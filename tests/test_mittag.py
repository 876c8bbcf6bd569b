"""Mittag-Leffler kernel tests: frozen oracle values, identities, the decay
and boundedness envelopes, the recurrence property, regime consistency, and
the array path that builds the solution-operator table."""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsteer import mittag, solver
from fracsteer.cli import run
from fracsteer.config import load_problem
from fracsteer.errors import ConfigError, EvaluationError
from fracsteer.mittag import mittag_leffler
from fracsteer.model import NonlinearityDescriptor, PhiDescriptor, ProblemSpec

from oracles import ml_branch_cut_oracle, ml_oracle

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# frozen via tests/oracles.py (extended-precision series, 64+ digits)
FROZEN = {
    (1.5, 1.0, -1.0): 0.39662936531808807,
    (1.5, 2.0, -1.0): 0.7374822479018948,
    (1.1, 1.0, -7.0): -0.022174543683396126,
    (1.9, 1.0, -33.0): 0.6233993044295216,
    (1.5, 1.0, -120.0): -0.002352871086538932,
}


class TestValidation:
    def test_alpha_range(self):
        with pytest.raises(ConfigError):
            mittag_leffler(0.0, 1.0, 1.0)
        with pytest.raises(ConfigError):
            mittag_leffler(2.5, 1.0, 1.0)
        with pytest.raises(ConfigError):
            mittag_leffler(1.5, 0.0, 1.0)
        with pytest.raises(ConfigError):
            mittag_leffler(1.5, 1.0, math.nan)


class TestKnownValues:
    def test_exponential_identity(self):
        assert mittag_leffler(1.0, 1.0, 1.0) == pytest.approx(math.e, abs=1e-12)

    def test_cosine_identity(self):
        assert mittag_leffler(2.0, 1.0, -4.0) == pytest.approx(math.cos(2.0), abs=1e-12)

    def test_exponential_up_to_overflow(self):
        assert mittag_leffler(1.0, 1.0, 709.5) == math.exp(709.5)
        assert mittag_leffler(1.0, 1.0, 710.0) == math.inf

    def test_zero_argument(self):
        assert mittag_leffler(1.5, 1.0, 0.0) == 1.0

    @pytest.mark.parametrize("key", sorted(FROZEN))
    def test_frozen_oracle_values(self, key):
        alpha, beta, z = key
        tol = 1e-10 if z >= -50 else 1e-6 * abs(FROZEN[key])
        assert mittag_leffler(alpha, beta, z) == pytest.approx(FROZEN[key], abs=tol)

    def test_sinc_family_at_alpha_two(self):
        assert mittag_leffler(2.0, 2.0, -4.0) == pytest.approx(math.sin(2.0) / 2.0, abs=1e-12)
        assert mittag_leffler(2.0, 2.0, 4.0) == pytest.approx(math.sinh(2.0) / 2.0, abs=1e-12)

    def test_array_matches_points_bit_for_bit(self):
        # one array call gives every point the value it gets alone, on each
        # route: series, quadrature, alpha = 1 closed forms
        zs = np.array([[-1e4, -60.0, -50.0, -3.0], [-0.5, 0.0, 0.7, 2.0]])
        for alpha, beta in [(1.5, 1.0), (0.6, 2.0), (1.9, 0.5), (2.0, 3.0), (1.0, 2.5)]:
            got = mittag_leffler(alpha, beta, zs)
            assert got.shape == zs.shape
            want = [[mittag_leffler(alpha, beta, float(z)) for z in row] for row in zs]
            np.testing.assert_array_equal(got, want)
        assert isinstance(mittag_leffler(1.5, 1.0, -1.0), float)


class TestAlphaOne:
    @pytest.mark.parametrize("beta", [0.5, 1.5, 2.5, 3.2])
    def test_array_call_has_the_bits_of_point_calls(self, beta):
        from scipy.special import hyp1f1

        zs = np.linspace(-700.0, 700.0, 2001)
        want = [float(hyp1f1(1.0, beta, z)) / math.gamma(beta) for z in zs.tolist()]
        np.testing.assert_array_equal(mittag_leffler(1.0, beta, zs), want)

    @pytest.mark.parametrize("beta", [0.5, 1.5, 2.0, 2.5, 3.2])
    def test_matches_extended_precision_hypergeometric(self, beta):
        # E_{1,beta}(z) = 1F1(1; beta; z) / Gamma(beta), here by mpmath at 50
        # digits, not by scipy's own bits; the bound is the README's 5.9e-13
        # on the smaller of absolute and relative error
        from mpmath import gamma, hyp1f1, mp

        zs = np.concatenate([-np.geomspace(1e4, 1e-3, 40), [0.0, 0.5, 1.0, 2.5, 5.0]])
        got = mittag_leffler(1.0, beta, zs)
        with mp.workdps(50):
            want = [float(hyp1f1(1, beta, z) / gamma(beta)) for z in zs.tolist()]
        for z, g, w in zip(zs.tolist(), got.tolist(), want):
            err = abs(g - w)
            assert min(err, err / abs(w)) <= 5.9e-13, z

    def test_one_hypergeometric_call_per_array(self, monkeypatch):
        import scipy.special

        calls = []
        hyp1f1 = scipy.special.hyp1f1
        monkeypatch.setattr(scipy.special, "hyp1f1", lambda *a: calls.append(a) or hyp1f1(*a))
        mittag_leffler(1.0, 2.5, np.linspace(-100.0, 5.0, 100))
        assert len(calls) == 1

    def test_first_failing_point_in_array_order_is_named(self):
        for zs, named in [([0.0, 800.0, 900.0], "800.0"), ([0.0, 900.0, 800.0], "900.0")]:
            with pytest.raises(EvaluationError, match=f"beta=2.5, z={named} "):
                mittag_leffler(1.0, 2.5, zs)


class TestAlphaTwo:
    # alpha = 2 lies outside the paper's (1, 2) but inside the evaluator's
    # range: its closed forms far out on the negative axis, and the Taylor
    # oracle at the beta they do not cover

    def test_cosine_and_sinc_closed_forms(self):
        xs = np.concatenate([[0.0], np.logspace(-3, 8, 39)])
        cos_got = mittag_leffler(2.0, 1.0, -xs)
        sinc_got = mittag_leffler(2.0, 2.0, -xs)
        for x, c, s in zip(xs.tolist(), cos_got, sinc_got):
            w = math.sqrt(x)
            # the rounding of sqrt(x) alone moves cos(w) by up to w * eps
            tol = 1e-12 + 1e-15 * w
            assert abs(c - math.cos(w)) <= tol, x
            assert abs(s - (math.sin(w) / w if x else 1.0)) <= tol, x

    @pytest.mark.parametrize("beta", [0.5, 1.5, 2.5, 3.2])
    def test_other_beta_match_oracle(self, beta):
        zs = np.concatenate([-np.geomspace(1e3, 1e-2, 21), [0.0, 1.0, 2.5, 5.0]])
        want = [ml_oracle(2.0, beta, z) for z in zs.tolist()]
        np.testing.assert_allclose(mittag_leffler(2.0, beta, zs), want, rtol=0, atol=1e-12)

    def test_grid_is_one_array_evaluation(self):
        # 2,001 points, most of them on the quadrature: about 10 ms
        zs = np.linspace(-1000.0, 5.0, 2001)
        t0 = time.perf_counter()
        mittag_leffler(2.0, 1.5, zs)
        assert time.perf_counter() - t0 < 1.0

    def test_large_positive_argument_is_not_certified(self):
        # the series needs over 600 terms there, as it does at alpha = 1.99
        for alpha in [2.0, 1.99]:
            with pytest.raises(EvaluationError, match="no route certifies"):
                mittag_leffler(alpha, 1.0, 2e5)


class TestOracleSweep:
    @pytest.mark.parametrize("alpha", [1.1, 1.25, 1.5, 1.75, 1.9])
    def test_negative_axis_band(self, alpha):
        for z in np.linspace(-50.0, 5.0, 23):
            got = mittag_leffler(alpha, 1.0, float(z))
            want = ml_oracle(alpha, 1.0, float(z))
            assert got == pytest.approx(want, abs=1e-10), f"z={z}"

    @pytest.mark.parametrize("beta", [0.7, 2.0, 3.2])
    def test_general_beta(self, beta):
        # alpha = 0.9 takes beta >= alpha + 1 at beta = 2, 3.2; alpha = 1.01
        # puts beta = 2 just below alpha + 1; alpha = 1.5, beta = 2 makes
        # sin pi(1 + alpha - b) vanish after one reduction
        for alpha in [1.4, 0.9, 1.01, 1.5]:
            for z in [-40.0, -9.0, -0.5, 2.0]:
                got = mittag_leffler(alpha, beta, z)
                want = ml_oracle(alpha, beta, z)
                assert got == pytest.approx(want, abs=1e-10), (alpha, z)

    def test_small_alpha_route(self):
        # at alpha = 0.01 and |z| = 0.999 the series needs about 39,000 terms;
        # at alpha = 0.5 the reduced beta equals alpha, so sin pi(alpha - b) = 0
        for alpha, z in [(0.6, -30.0), (0.6, -3.0), (0.6, 0.7), (0.01, -0.999), (0.5, -9.0)]:
            got = mittag_leffler(alpha, 1.0, z)
            want = ml_oracle(alpha, 1.0, z)
            assert got == pytest.approx(want, abs=1e-10), (alpha, z)
        # a positive z has only the series: an unconverged sum is no answer
        with pytest.raises(EvaluationError, match="no route certifies"):
            mittag_leffler(0.01, 1.0, 0.999)

    def test_series_points_skip_the_quadrature_checks(self):
        # at alpha = 0.001 the quadrature would need over 600 beta reductions;
        # points the series certifies never reach it
        for z in [0.5, -0.5]:
            want = ml_oracle(0.001, 1.0, z)
            assert mittag_leffler(0.001, 1.0, z) == pytest.approx(want, abs=1e-13), z


class TestProperties:
    @given(
        alpha=st.sampled_from([1.1, 1.5, 1.9]),
        z=st.floats(min_value=-20.0, max_value=5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_recurrence(self, alpha, z):
        # E_{a,b}(z) = z E_{a,a+b}(z) + 1/Gamma(b) with b = 1
        lhs = mittag_leffler(alpha, 1.0, z)
        rhs = z * mittag_leffler(alpha, alpha + 1.0, z) + 1.0
        assert lhs == pytest.approx(rhs, abs=1e-9)

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.75, 1.9])
    def test_decay_envelope_fit(self, alpha):
        # the envelope constant is fitted empirically; it stays small away
        # from alpha = 2 but grows without bound as the damping of the
        # oscillatory residue term vanishes (cos(pi/alpha) -> 0)
        xs = np.logspace(-3, 4, 400)
        fitted_c = max(
            abs(mittag_leffler(alpha, 1.0, -float(x))) * (1.0 + x) for x in xs
        )
        # verify on an offset grid; 5% headroom covers between-node wiggle
        for x in np.logspace(-2.9, 3.9, 180):
            assert abs(mittag_leffler(alpha, 1.0, -float(x))) <= 1.05 * fitted_c / (1.0 + x)
        if alpha <= 1.75:
            assert fitted_c <= 10.0

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_boundedness_on_negative_axis(self, alpha):
        xs = np.logspace(-3, 4, 150)
        vals = [abs(mittag_leffler(alpha, 1.0, -float(x))) for x in xs]
        assert max(vals) <= 1.0 + 1e-9

    def test_series_cutoff_matches_branch_cut_oracle(self):
        # the series is tried at z >= -50 only: both sides of that cutoff
        for alpha in [1.1, 1.5, 1.9]:
            for z in [-50.0 + 1e-9, -50.0 - 1e-9, -50.0]:
                want = ml_branch_cut_oracle(alpha, z)
                assert mittag_leffler(alpha, 1.0, z) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 1.001, 1.1, 1.5, 1.9, 1.99, 2.0])
    def test_series_floor_moves_no_certified_point(self, alpha):
        # the series runs at z >= z_lo only: below it, it certifies nothing
        z = np.linspace(-50.0, 0.0, 2001)
        for beta in [0.5, 1.0, 1.5, 2.5, 3.2]:
            floor = mittag._series_floor(alpha, beta)
            assert -50.0 <= floor < 0.0
            assert not mittag._series(alpha, beta, z[z < floor])[1].any(), beta

    def test_series_floor_ends_past_the_certified_range(self):
        # the series certifies z in [-16.63, 0] at alpha 1.5, beta 1, and
        # [-1.54, 0] at alpha 0.3, beta 0.5; all of [-50, 0] at alpha 1.7,
        # beta 2.5, where the series is tried everywhere
        assert -20.0 < mittag._series_floor(1.5, 1.0) < -16.63
        assert -2.0 < mittag._series_floor(0.3, 0.5) < -1.54
        assert mittag._series_floor(1.7, 2.5) == -50.0

    def test_asymptotic_branch_accuracy(self):
        # the branch-cut oracle stands in for the Taylor oracle, which needs
        # about 1900 digits and ten minutes at alpha = 1.1, z = -1e4;
        # test_branch_cut_oracle_matches_taylor checks the two agree
        for alpha in [1.1, 1.5, 1.9]:
            for z in [-60.0, -200.0, -1e4]:
                got = mittag_leffler(alpha, 1.0, z)
                want = ml_branch_cut_oracle(alpha, z)
                assert got == pytest.approx(want, rel=1e-6)

    def test_branch_cut_oracle_matches_taylor(self):
        # two independent exact routes, at points where the Taylor sum needs a few
        # hundred digits at most
        for alpha in [1.01, 1.1, 1.25, 1.5, 1.75, 1.9, 1.99]:
            for z in [-0.5, -3.0, -60.0, -200.0]:
                want = ml_oracle(alpha, 1.0, z)
                got = ml_branch_cut_oracle(alpha, z)
                assert got == pytest.approx(want, rel=1e-13), (alpha, z)
        for alpha in [1.5, 1.9]:
            assert ml_branch_cut_oracle(alpha, -1e4) == pytest.approx(
                ml_oracle(alpha, 1.0, -1e4), rel=1e-13
            )


def test_cli_import_leaves_out_scipy_integrate():
    # importing scipy.integrate alone adds about 0.8 s to every command
    src = Path(mittag.__file__).resolve().parents[1]
    probe = "import sys, fracsteer.cli; sys.exit('scipy.integrate' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env={"PYTHONPATH": str(src)}, timeout=60)
    assert done.returncode == 0


def _table(ts, alpha, eigs):
    """table[m, n] = E_{alpha,1}(eigs[n] * ts[m]^alpha), the outer product
    Grid.kernel_table evaluates, for times and eigenvalues no spec has."""
    return mittag_leffler(alpha, 1.0, np.multiply.outer(np.asarray(ts, float) ** alpha, eigs))


def _grid(alpha, omega, n_modes, T, dt):
    spec = ProblemSpec(
        alpha=alpha, omega=omega, n_modes=n_modes, horizon=T, delay=0.0,
        impulses=(), nonlocal_terms=(), phi=PhiDescriptor(np.ones(n_modes)),
        f_desc=NonlinearityDescriptor(holder_p=(alpha - 1.0) / 2.0),
        B=np.eye(n_modes),
    )
    return solver.Grid(spec, dt)


class TestSolutionOperator:
    def test_identity_at_t_zero(self):
        table = _grid(1.5, 0.0, 2, 1.0, 0.5).kernel_table  # lam = -1, -4
        np.testing.assert_array_equal(table[0], [1.0, 1.0])

    def test_cosine_family_limit(self):
        # alpha -> 2 reproduces the cosine family on an eigenvector, through
        # the series (z = -4) and through the branch-cut quadrature (z = -400)
        table = _grid(2.0 - 1e-12, 0.0, 20, 1.0, 0.5).kernel_table
        got = table[2, [1, 19]]  # t = 1, lam = -4 and -400
        np.testing.assert_allclose(got, [math.cos(2.0), math.cos(20.0)], rtol=0, atol=1e-9)

    def test_matches_scalar_kernel(self):
        got = _grid(1.5, 0.0, 1, 1.0, 0.5).kernel_table[2, 0]
        assert got == pytest.approx(FROZEN[(1.5, 1.0, -1.0)], abs=1e-10)

    def test_decay_bound_mode_wise(self):
        # lam_n = -n^2 - omega for n = 1..4; rows 1, 5, 10, 30 are t = 0.1,
        # 0.5, 1 and 3
        alpha, omega = 1.5, 1.0
        grid = _grid(alpha, omega, 4, 3.0, 0.1)
        eigs = grid.spec.eigenvalues
        for m in [1, 5, 10, 30]:
            t = m * grid.h
            envelope = 10.0 / (1.0 + np.abs(eigs) * t**alpha)
            assert np.all(np.abs(grid.kernel_table[m]) <= envelope)


_REAL_CUT_NODES = mittag._cut_nodes


def _poisoned_nodes(*args):
    """The quadrature's node set with one weight forced to NaN."""
    v, c = _REAL_CUT_NODES(*args)
    c = c.copy()
    c[3] = math.nan
    return v, c


class TestTablePath:
    # the kernel table over an array of times: the Taylor series where
    # its rounding gate certifies a point, the fixed-node branch-cut
    # quadrature everywhere else

    @pytest.mark.parametrize("alpha", [1.001, 1.01, 1.1, 1.5, 1.9, 1.99])
    def test_matches_branch_cut_oracle(self, alpha):
        # with eigenvalue -1 the time t gives z = -t^alpha, so x^{1/alpha} = t:
        # the times cover both routes and stay where the oracle is cheap
        ts = np.geomspace(0.05, 60.0, 12)
        want = np.array([ml_branch_cut_oracle(alpha, -(t**alpha)) for t in ts])
        got = _table(ts, alpha, [-1.0])[:, 0]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        # the quadrature alone, also where the series takes the table's points
        cut = ts >= 0.5
        got = mittag._branch_cut(alpha, 1.0, ts[cut] ** alpha)
        np.testing.assert_allclose(got, want[cut], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("alpha", [1.001, 1.5, 1.999])
    def test_quadrature_at_powers_of_two(self, alpha):
        # w = x^{1/alpha} on both sides of each power of two from 1 to 32, and
        # at both ends of the certified range: within the documented 1.2e-14
        edges = 2.0 ** np.arange(6)
        ws = np.concatenate([[0.5], edges * (1.0 - 1e-9), edges * (1.0 + 1e-9), [59.9]])
        want = np.array([ml_branch_cut_oracle(alpha, -(w**alpha)) for w in ws])
        got = mittag._branch_cut(alpha, 1.0, ws**alpha)
        np.testing.assert_allclose(got, want, rtol=0, atol=1.2e-14)

    def test_flagship_table_matches_scalar_kernel(self):
        spec = load_problem(CONFIGS / "flagship.json")
        grid = solver.Grid(spec, 1.0 / 200.0)
        table = solver.SolutionKernel(spec, grid).table
        want = np.array([
            [mittag_leffler(spec.alpha, 1.0, lam * t**spec.alpha) for lam in spec.eigenvalues]
            for t in grid.times[grid.n_hist :]
        ])
        np.testing.assert_allclose(table, want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("alpha", [1.01, 1.5, 1.99])
    def test_row_zero_is_exactly_one(self, alpha):
        table = _grid(alpha, 0.0, 43, 2.5, 0.5).kernel_table
        np.testing.assert_array_equal(table[0], 1.0)

    def test_non_finite_value_raises(self, monkeypatch):
        monkeypatch.setattr(mittag, "_cut_nodes", _poisoned_nodes)
        with pytest.raises(EvaluationError, match="non-finite"):
            _table([0.0, 1.0, 10.0], 1.5, [-1.0, -100.0])

    def test_uncertified_point_raises(self, monkeypatch):
        # z = -100 is past the series; the quadrature may not claim it either
        monkeypatch.setattr(mittag, "_CUT_W_MIN", 1e6)
        with pytest.raises(EvaluationError, match="no route certifies"):
            _table([0.0, 1.0], 1.5, [-1.0, -100.0])

    def test_cli_exits_3_instead_of_a_nan_table(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(mittag, "_cut_nodes", _poisoned_nodes)
        out = tmp_path / "t.csv"
        code = run([
            "solve", "--config", str(CONFIGS / "flagship.json"), "--dt", "0.05", "--out", str(out),
        ])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: non-finite kernel value for alpha=1.5 [regime=table]\n"
        )
        assert not out.exists()
