"""Mild-solver tests: grid construction, convolution quadrature against
refined-grid and closed-form oracles, free/impulse closed forms, quadrature
order, superposition, nonlocal consistency, and contraction arithmetic."""

import dataclasses
import gc
import math
import warnings
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from fracsteer import model, optimal, solver
from fracsteer.config import load_problem, load_target
from fracsteer.control import SteeringReport, epsilon_sweep, steer
from fracsteer.errors import ConfigError, ConvergenceError, DomainError, EvaluationError
from fracsteer.mittag import mittag_leffler
from fracsteer.model import (
    ImpulseDescriptor,
    NonlinearityDescriptor,
    NonlocalTerm,
    PhiDescriptor,
    ProblemSpec,
    contraction_check,
    contraction_warnings,
    picard_factor,
)
from fracsteer.solver import (
    ControlSignal,
    Grid,
    SolutionKernel,
    Trajectory,
    _convolve_all,
    eval_f,
    mild_map,
    solve_mild,
)

from oracles import mild_map_by_hand, nonlocal_residual, refined_convolution, residual_p
from specs import flagship_spec, make_spec

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def with_linear_memory(spec, gain):
    """spec with f1 and f2 both linear of the given gain, so that f, the only
    part a Picard sweep iterates, takes a solve through many sweeps."""
    f = dataclasses.replace(spec.f_desc, f1_form="linear", f1_gain=gain, f2_gain=gain,
                            L1=gain, L2=gain)
    return dataclasses.replace(spec, f_desc=f)


class TestGrid:
    def test_nodes_and_breakpoints(self):
        spec = make_spec(r=0.25, impulses=[ImpulseDescriptor(0.5, -1.0)])
        grid = Grid(spec, 1.0 / 8.0)
        assert grid.n_hist == 2
        assert grid.n_fwd == 8
        assert grid.times[0] == pytest.approx(-0.25)
        assert grid.times[-1] == pytest.approx(1.0)
        assert grid.kicks == ((4, -1.0),)
        assert grid.row(0.0) == grid.n_hist

    def test_incommensurate_step_rejected(self):
        spec = make_spec(impulses=[ImpulseDescriptor(0.5, -1.0)])
        with pytest.raises(ConfigError):
            Grid(spec, 1.0 / 3.0)

    def test_cell_count_cap_keeps_one_mode_grids(self):
        # at N = 1 both spans may take their full step budget
        grid = Grid(make_spec(T=1.0, r=1.0), 1e-6)
        assert len(grid) == 2 * 10**6 + 1

    def test_off_grid_time_rejected(self):
        spec = make_spec()
        grid = Grid(spec, 0.25)
        with pytest.raises(DomainError):
            grid.row(0.3)


class TestConvolve:
    def test_zero_forcing(self):
        spec = make_spec()
        grid = Grid(spec, 0.01)
        out = _convolve_all(grid, np.zeros((101, 1)))[-1]
        np.testing.assert_array_equal(out, np.zeros(1))

    def test_unit_kernel_weights_integrate_to_t(self):
        # with a unit kernel (lambda = 0) the trapezoid weights must sum to t
        spec = make_spec()
        grid = Grid(spec, 0.01)
        assert grid.trapezoid_weights(57).sum() == pytest.approx(0.57, abs=1e-14)

    def test_constant_forcing_closed_form(self):
        # int_0^t E_{a,1}(-s^a) ds = t E_{a,2}(-t^a), term-wise integration
        spec = make_spec(alpha=1.5, omega=0.0)  # lambda_1 = -1
        grid = Grid(spec, 1.0 / 400.0)
        t = 1.0
        forcing = np.ones((grid.n_fwd + 1, 1))
        got = _convolve_all(grid, forcing)[-1, 0]
        want = t * mittag_leffler(1.5, 2.0, -(t**1.5))
        assert got == pytest.approx(want, abs=5e-6)

    def test_constant_forcing_refined_oracle(self):
        spec = make_spec(alpha=1.5, omega=0.0)
        grid = Grid(spec, 1.0 / 100.0)
        t = 1.0
        forcing = np.ones((grid.n_fwd + 1, 1))
        got = _convolve_all(grid, forcing)[-1, 0]
        want = refined_convolution(1.5, -1.0, lambda s: 1.0, t, refine=10)
        # agreement at O(dt^2): coarse grid error ~ (10x finer)^2 * 100
        assert got == pytest.approx(want, abs=1e-4)
        assert got != pytest.approx(want, abs=1e-9)

    def test_fft_size_is_the_least_5_smooth_size_that_fits(self):
        # every 2^a 3^b 5^c below 30,000, enumerated without the helper's gcd
        smooth = sorted(
            2**a * 3**b * 5**c for a in range(15) for b in range(10) for c in range(7)
            if 2**a * 3**b * 5**c < 30_000
        )
        size = Grid.fft_size.func  # reads n_fwd only
        for n_fwd in range(1, 10_001):
            want = next(s for s in smooth if s >= 2 * n_fwd + 1)
            assert size(SimpleNamespace(n_fwd=n_fwd)) == want, n_fwd

    @pytest.mark.parametrize("config, dt, size", [
        ("linear1d.json", 0.01, 216),
        ("flagship.json", 1.0 / 200.0, 405),
        ("flagship.json", 1.0 / 400.0, 810),
    ])
    def test_fft_size_of_the_benchmarked_grids(self, config, dt, size):
        # the sizes scipy.fft.next_fast_len(2 n_fwd + 1, real=True) gave;
        # the convolution's bits depend on the size
        grid = Grid(load_problem(CONFIGS / config), dt)
        assert grid.fft_size == size
        assert grid.kernel_spectrum.shape == (size // 2 + 1, grid.spec.n_modes)


class TestFreeResponse:
    def test_matches_ml_kernel(self):
        # f = 0, u = 0, g = 0, N = 1, lambda = -1: x(t) = E_{1.5,1}(-t^1.5)
        spec = make_spec(alpha=1.5, omega=0.0)
        grid = Grid(spec, 1.0 / 200.0)
        traj = solve_mild(spec, ControlSignal.zeros(grid), tol=1e-12)
        ts = grid.times[grid.n_hist :]
        want = np.array([mittag_leffler(1.5, 1.0, -(t**1.5)) for t in ts])
        np.testing.assert_allclose(traj.forward_values()[:, 0], want, atol=1e-12)

    def test_two_mode_decay(self):
        spec = make_spec(n=2, alpha=1.5, omega=1.0, phi_coeffs=[1.0, -0.5])
        grid = Grid(spec, 1.0 / 100.0)
        traj = solve_mild(spec, ControlSignal.zeros(grid), tol=1e-12)
        lam = spec.eigenvalues
        for t in (0.25, 0.5, 1.0):
            want = [
                c * mittag_leffler(1.5, 1.0, lam[i] * t**1.5)
                for i, c in enumerate([1.0, -0.5])
            ]
            np.testing.assert_allclose(traj.values[grid.row(t)], want, atol=1e-12)


class TestImpulse:
    def test_one_impulse_closed_form(self):
        # I(x) = -x at t1: for t > t1,
        # x(t) = E(-t^a) x0 - E(-(t-t1)^a) E(-t1^a) x0
        alpha, t1 = 1.5, 0.5
        spec = make_spec(alpha=alpha, impulses=[ImpulseDescriptor(t1, -1.0)])
        grid = Grid(spec, 1.0 / 400.0)
        traj = solve_mild(spec, ControlSignal.zeros(grid), tol=1e-12)
        e_t1 = mittag_leffler(alpha, 1.0, -(t1**alpha))
        for t in (0.6, 0.75, 1.0):
            want = mittag_leffler(alpha, 1.0, -(t**alpha)) - mittag_leffler(
                alpha, 1.0, -((t - t1) ** alpha)
            ) * e_t1
            assert traj.values[grid.row(t), 0] == pytest.approx(want, abs=1e-6)

    def test_left_limit_convention_and_jump_record(self):
        spec = make_spec(alpha=1.5, impulses=[ImpulseDescriptor(0.5, -1.0)])
        grid = Grid(spec, 1.0 / 8.0)
        traj = solve_mild(spec, ControlSignal.zeros(grid), tol=1e-12)
        m = grid.kicks[0][0]
        left = traj.values[grid.fwd_row(m)]
        right = traj.right_value(m)
        # value AT the node is the left limit; jump identity holds exactly
        assert left[0] == pytest.approx(
            mittag_leffler(1.5, 1.0, -(0.5**1.5)), abs=1e-12
        )
        np.testing.assert_array_equal(right - left, -left)


class TestQuadratureOrder:
    def test_halving_dt_reduces_error(self):
        # constant control: x(t) = E_{a,1}(-t^a) + t E_{a,2}(-t^a)
        alpha = 1.5
        spec = make_spec(alpha=alpha)
        errors = []
        for denom in (100, 200, 400):
            grid = Grid(spec, 1.0 / denom)
            u = ControlSignal(grid, np.ones((grid.n_fwd + 1, 1)))
            traj = solve_mild(spec, u, tol=1e-13)
            ts = grid.times[grid.n_hist :]
            want = np.array(
                [
                    mittag_leffler(alpha, 1.0, -(t**alpha))
                    + t * mittag_leffler(alpha, 2.0, -(t**alpha))
                    for t in ts
                ]
            )
            errors.append(np.max(np.abs(traj.forward_values()[:, 0] - want)))
        assert errors[0] / errors[1] >= 3.5
        assert errors[1] / errors[2] >= 3.5


class TestNonlinearRefinement:
    def test_grid_refinement_envelope(self):
        # nonlinear configuration solved at dt = 1/200, 1/400, 1/800: the
        # coarse-pair difference must stay within 4x the extrapolated error
        # of the finest grid (second-order quadrature: difference ~ 3 e_800)
        f = NonlinearityDescriptor(
            f1_gain=0.05, f2_gain=0.05, kernel_rate=1.0,
            f1_form="saturating", f2_form="linear",
            L1=0.05, L2=0.05, M1=0.1, holder_p=0.4,
        )
        spec = make_spec(
            n=16, alpha=1.5, omega=1.0, r=0.25,
            impulses=[ImpulseDescriptor(0.5, -1.0)],
            nonlocal_terms=[NonlocalTerm(0.25, 0.3)],
            phi_coeffs=[2.0 ** (-k) for k in range(16)],
            f=f,
        )
        sols = {}
        for denom in (200, 400, 800):
            grid = Grid(spec, 1.0 / denom)
            sols[denom] = solve_mild(spec, ControlSignal.zeros(grid), tol=1e-11)

        def sup_diff(coarse, fine, stride):
            a = coarse.forward_values()
            b = fine.forward_values()[::stride]
            return float(np.max(np.linalg.norm(a - b, axis=1)))

        d_200_400 = sup_diff(sols[200], sols[400], 2)
        d_400_800 = sup_diff(sols[400], sols[800], 2)
        # second-order Richardson estimate from the finest pair: the error of
        # the 1/400 run is ~ (4/3) d_400_800, and d_200_400 ~ 4 d_400_800
        extrapolated = (4.0 / 3.0) * d_400_800
        assert d_200_400 <= 4.0 * extrapolated
        assert d_400_800 < d_200_400  # refinement actually contracts


class TestSuperposition:
    def test_linearity_of_control_map(self):
        spec = make_spec(n=2, alpha=1.4, omega=0.5, phi_coeffs=[1.0, 0.3])
        grid = Grid(spec, 1.0 / 50.0)
        rng = np.random.default_rng(17)
        u1 = ControlSignal(grid, rng.standard_normal((grid.n_fwd + 1, 2)))
        u2 = ControlSignal(grid, rng.standard_normal((grid.n_fwd + 1, 2)))
        u12 = ControlSignal(grid, u1.samples + u2.samples)
        x1 = solve_mild(spec, u1, tol=1e-12).values
        x2 = solve_mild(spec, u2, tol=1e-12).values
        x12 = solve_mild(spec, u12, tol=1e-12).values
        free = solve_mild(spec, ControlSignal.zeros(grid), tol=1e-12).values
        np.testing.assert_allclose(x12, x1 + x2 - free, atol=1e-8)


class TestNonlocal:
    @pytest.mark.parametrize("seed", range(5))
    def test_consistency_on_random_configs(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 4))
        weights = rng.uniform(-0.25, 0.25, size=2)
        weights *= 0.5 / max(0.5, np.abs(weights).sum())  # sum |c_i| <= 0.5
        taus = rng.choice([0.2, 0.4, 0.6, 0.8], size=2, replace=False)
        spec = make_spec(
            n=n,
            alpha=1.5,
            r=0.2,
            nonlocal_terms=[NonlocalTerm(float(c), float(t)) for c, t in zip(weights, taus)],
            phi_coeffs=rng.uniform(-1.0, 1.0, size=n),
        )
        grid = Grid(spec, 1.0 / 20.0)
        tol = 1e-10
        traj = solve_mild(spec, ControlSignal.zeros(grid), tol=tol)
        assert nonlocal_residual(spec, traj) <= tol

    def test_history_satisfies_phi_minus_g(self):
        spec = make_spec(
            n=1, r=0.25, nonlocal_terms=[NonlocalTerm(0.3, 0.5)], phi_coeffs=[1.0]
        )
        grid = Grid(spec, 1.0 / 16.0)
        traj = solve_mild(spec, ControlSignal.zeros(grid), tol=1e-12)
        for s in (-0.25, -0.125, 0.0):
            want = spec.phi(s) - 0.3 * traj.values[grid.row(0.5 + s)]
            np.testing.assert_allclose(traj.values[grid.row(s)], want, atol=1e-11)


class TestPicardBehaviour:
    @pytest.mark.parametrize("seed", range(5))
    def test_residual_geometric_decay(self, seed):
        rng = np.random.default_rng(300 + seed)
        f = NonlinearityDescriptor(
            f1_gain=float(rng.uniform(0.01, 0.05)),
            f2_gain=float(rng.uniform(0.01, 0.05)),
            kernel_rate=1.0,
            f1_form="saturating",
            f2_form="saturating",
            L1=0.05,
            L2=0.05,
            M1=0.1,
            holder_p=0.4,
        )
        spec = make_spec(
            n=2,
            r=0.25,
            nonlocal_terms=[NonlocalTerm(float(rng.uniform(0.05, 0.2)), 0.5)],
            impulses=[ImpulseDescriptor(0.5, float(rng.uniform(-0.1, 0.1)))],
            f=f,
            phi_coeffs=rng.uniform(-1, 1, size=2),
        )
        factor = contraction_check(spec, eps=10.0)
        assert factor < 1.0  # configs built to contract
        grid = Grid(spec, 1.0 / 20.0)
        traj = solve_mild(spec, ControlSignal.zeros(grid), tol=1e-12)
        res = traj.residuals
        for a, b in zip(res[1:], res[2:]):
            if a > 1e-14:
                assert b <= factor * a * (1.0 + 1e-9)

    def test_nonconvergence_carries_residuals(self):
        # f = 12 x on dt = 0.25: the half trapezoid weight at each node gives
        # a sweep the gain 12 * 0.125 = 1.5 there
        spec = make_spec(n=1, f=NonlinearityDescriptor(f1_gain=12.0, L1=12.0))
        grid = Grid(spec, 0.25)
        with pytest.raises(ConvergenceError) as err:
            solve_mild(spec, ControlSignal.zeros(grid), tol=1e-10, max_iter=15)
        assert len(err.value.residuals) == 15

    @staticmethod
    def diverging_exact_spec():
        # 1 + c Phi(T) = -0.017 here: a sweep that solves x(0) amplifies f's
        # feedback about 60-fold, while sweeps that read x(0) and the jumps
        # off the previous iterate converge, the negative f gain offsetting
        # the nonlocal loop
        return make_spec(
            n=1, alpha=1.39, omega=0.42, T=0.5, phi_coeffs=[-0.69], B=[[0.59]],
            impulses=[ImpulseDescriptor(0.05, -0.42), ImpulseDescriptor(0.075, 1.4)],
            nonlocal_terms=[NonlocalTerm(-1.15, 0.5)],
            f=NonlinearityDescriptor(
                f1_gain=-0.85, f2_gain=-1.75, f2_form="saturating", kernel_rate=0.8,
                L1=0.85, L2=1.75, holder_p=0.01,
            ),
        )

    def test_lagged_sweeps_solve_where_the_exact_sweep_diverges(self):
        # alone and in a batch, the solve ends at an oracle fixed point
        spec = self.diverging_exact_spec()
        grid = Grid(spec, 0.0125)
        ramp = np.linspace(-1.0, 1.0, grid.n_fwd + 1)
        samples = np.stack([0.0 * ramp, ramp])[..., None]
        batch = solve_mild(spec, ControlSignal(grid, samples), tol=1e-12)
        for i, u in enumerate(samples):
            single = solve_mild(spec, ControlSignal(grid, u), tol=1e-12)
            np.testing.assert_array_equal(batch.values[i], single.values)
            step = mild_map_by_hand(spec, grid.h, single.values, u @ spec.B.T) - single.values
            assert np.max(np.abs(step)) <= 1e-11

    def test_diverging_exact_run_restarts_once_past_the_limit(self, monkeypatch):
        # the exact run gives up at its first residual above DIVERGED times
        # its first one, sweep 3 here, instead of running on to overflow;
        # the lagged run then starts over from the same start
        spec = self.diverging_exact_spec()
        grid = Grid(spec, 0.0125)
        runs = []
        sweep = solver.mild_map

        def recorded(grid, values, bu, lagged=False):
            runs.append(lagged)
            return sweep(grid, values, bu, lagged)

        monkeypatch.setattr(solver, "mild_map", recorded)
        traj = solve_mild(spec, ControlSignal.zeros(grid), tol=1e-12)
        exact = runs.index(True)
        assert exact == 3 and all(runs[exact:])
        res = traj.residuals
        assert len(res) == len(runs)
        assert max(res[1:exact - 1]) <= solver.DIVERGED * res[0] < res[exact - 1]
        assert res[-1] <= 1e-12

    def test_overflowing_lagged_restart_raises_without_numpy_warnings(self):
        # f = 120 x on dt = 0.25 overflows the exact run and then the lagged
        # one; both run under the errstate that keeps numpy's overflow quiet
        spec = make_spec(n=1, f=NonlinearityDescriptor(f1_gain=120.0, L1=120.0))
        grid = Grid(spec, 0.25)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="non-finite iterate at sweep 126$"):
                solve_mild(spec, ControlSignal.zeros(grid))

    def test_anchor_weight_one_at_zero_converges(self):
        # x(0) = phi(0) - x(0): a sweep solves x(0) = phi(0) / 2 outright
        spec = make_spec(n=1, nonlocal_terms=[NonlocalTerm(1.0, 0.0)])
        grid = Grid(spec, 0.25)
        u = ControlSignal(grid, np.linspace(-1.0, 1.0, grid.n_fwd + 1)[:, None])
        traj = solve_mild(spec, u, tol=1e-12)
        np.testing.assert_allclose(traj.values[grid.row(0.0)], 0.5, rtol=0, atol=1e-15)
        step = mild_map_by_hand(spec, grid.h, traj.values, u.samples @ spec.B.T) - traj.values
        assert np.max(np.abs(step)) <= 1e-12

    def test_anchor_weight_one_at_zero_solves_the_history_rows(self):
        # with r > 0 the anchor couples every row s <= 0 to itself:
        # x(s) = phi(s) - x(s), so x = phi / 2 there.  A sweep solves the
        # history rows for the path it returns, so f = 0 takes one sweep;
        # read off the input path they flipped between two values for all
        # 400 sweeps
        spec = make_spec(n=1, r=0.25, nonlocal_terms=[NonlocalTerm(1.0, 0.0)])
        grid = Grid(spec, 0.25)
        traj = solve_mild(spec, ControlSignal.zeros(grid), tol=1e-12)
        assert len(traj.residuals) <= 2
        np.testing.assert_array_equal(traj.values[: grid.row(0.0) + 1], 0.5)
        step = mild_map_by_hand(spec, grid.h, traj.values, np.zeros((grid.n_fwd + 1, 1)))
        assert np.max(np.abs(step - traj.values)) <= 1e-12

    def test_history_rows_left_undetermined_raise_before_a_sweep(self, monkeypatch):
        # x(s) - x(s) = phi(s) - 0.5 x(0.5 + s) on the history rows has no
        # unique answer, although x(0) has one: no sweep runs, exact or lagged
        spec = make_spec(n=1, r=0.25,
                         nonlocal_terms=[NonlocalTerm(-1.0, 0.0), NonlocalTerm(0.5, 0.5)])
        grid = Grid(spec, 0.25)
        assert np.all(np.isfinite(grid.start_response))
        monkeypatch.setattr(solver, "eval_f", lambda *a: pytest.fail("a sweep ran"))
        bu = np.zeros((grid.n_fwd + 1, 1))
        for sweep in (lambda: solve_mild(spec, ControlSignal.zeros(grid)),
                      lambda: mild_map(grid, np.zeros((len(grid), 1)), bu, lagged=True)):
            with pytest.raises(EvaluationError) as info:
                sweep()
            assert str(info.value) == (
                "nonlocal condition leaves the history rows undetermined: "
                "1 + sum of c_i at tau_i = 0 is 0 [regime=nonlocal]"
            )

    def test_f_zero_stops_after_one_sweep(self):
        # with f = 0 a sweep reads nothing of its input path, so its output
        # is the fixed point: the solve records the residual 0.0 that a
        # second sweep measures, bit for bit, and stops there
        spec = make_spec(
            n=2, r=0.25, phi_coeffs=[1.0, -0.5], impulses=[ImpulseDescriptor(0.5, -0.7)],
            nonlocal_terms=[NonlocalTerm(0.4, 0.0), NonlocalTerm(-0.3, 0.1)],
        )
        grid = Grid(spec, 0.05)
        u = np.random.default_rng(7).standard_normal((2, grid.n_fwd + 1, 2))
        traj = solve_mild(spec, ControlSignal(grid, u), tol=1e-12)
        assert traj.residuals == [[0.0], [0.0]]
        np.testing.assert_array_equal(mild_map(grid, traj.values, u @ spec.B.T), traj.values)
        u[1, 3, 0] = np.nan
        with pytest.raises(ConvergenceError, match="non-finite iterate at sweep 1$"):
            solve_mild(spec, ControlSignal(grid, u), tol=1e-12)

    def test_anchor_weight_minus_one_at_zero_raises_before_a_sweep(self, monkeypatch):
        # x(0) = phi(0) + x(0) has no answer; no sweep runs on it
        spec = make_spec(n=2, nonlocal_terms=[NonlocalTerm(-1.0, 0.0)])
        grid = Grid(spec, 0.25)
        monkeypatch.setattr(solver, "eval_f", lambda *a: pytest.fail("a sweep ran"))
        with pytest.raises(EvaluationError, match="undetermined in mode 1: ") as info:
            solve_mild(spec, ControlSignal.zeros(grid))
        assert info.value.regime == "nonlocal"

    def test_warning_attached_when_factor_large(self):
        # the CLI writes the warning (TestCliSteerSweep); no run result has
        # a field for it (TestLedgerOnFirstUse)
        spec = make_spec(impulses=[ImpulseDescriptor(0.5, -1.0)])
        assert picard_factor(spec) >= 1.0
        assert contraction_warnings(spec) == ["contraction factor 1 >= 1: convergence not guaranteed"]
        assert contraction_warnings(make_spec()) == []


class TestContractionCheck:
    def test_all_zero_constants(self):
        spec = make_spec()  # no impulses, no nonlocal, f = 0
        assert contraction_check(spec, eps=1.0) == 0.0

    def test_hand_arithmetic(self):
        # M=1, K=1, l2=0.1, l_g=0.1, L-norms=0, M_B=1, T=1, eps=1 -> 0.4
        spec = make_spec(
            impulses=[ImpulseDescriptor(0.5, 0.1)],
            nonlocal_terms=[NonlocalTerm(0.1, 0.5)],
        )
        got = contraction_check(spec, eps=1.0)
        assert got == pytest.approx(0.4, abs=1e-12)

    def test_flagship_factor_matches_golden(self):
        import json
        from pathlib import Path

        golden = json.loads(
            (Path(__file__).parent / "golden" / "flagship.json").read_text()
        )
        got = contraction_check(flagship_spec(), eps=0.1)
        assert got == golden["contraction_factor_eps_0p1"]
        # hand check: 1*(1*1 + 0.25 + 1*(0.05+0.05)) * (1 + 1/0.1)
        assert got == pytest.approx(1.35 * 11.0, abs=1e-12)

    def test_hand_arithmetic_with_norms(self):
        T, p, L1, L2 = 2.0, 0.4, 0.3, 0.05
        f = NonlinearityDescriptor(f1_gain=0.3, L1=L1, L2=L2, holder_p=p)
        spec = make_spec(
            T=T,
            impulses=[ImpulseDescriptor(0.5, 0.2), ImpulseDescriptor(1.0, 0.1)],
            nonlocal_terms=[NonlocalTerm(0.15, 0.5)],
            f=f,
        )
        eps = 0.5
        norm_l1 = L1 * T**p
        norm_l2 = L2 * T**p
        want = (
            1.0
            * (2 * 0.2 + 0.15 + T ** (1 - p) * (norm_l1 + norm_l2))
            * (1.0 + 1.0 * 1.0**2 * T / eps)
        )
        assert contraction_check(spec, eps) == pytest.approx(want, abs=1e-12)

    def test_eps_must_be_positive(self):
        with pytest.raises(ConfigError):
            contraction_check(make_spec(), eps=0.0)


class TestLedgerOnFirstUse:
    # The contraction ledger is a diagnostic: loading a problem does not
    # build it, and no solve, steer, sweep or minimization reads it.
    def test_built_by_its_first_reader(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return mittag_leffler(*args)

        monkeypatch.setattr(model, "mittag_leffler", counted)
        spec = load_problem(CONFIGS / "flagship.json")
        assert calls == []
        ledger = spec.constants
        assert len(calls) == 1
        assert spec.constants is ledger
        assert contraction_check(spec, 0.1) == 1.35 * 11.0
        assert len(calls) == 1

    def test_solves_do_not_read_it(self, monkeypatch):
        def refuse(spec):
            pytest.fail("the ledger was read")

        monkeypatch.setattr(ProblemSpec, "constants", property(refuse))
        monkeypatch.setattr(model, "picard_factor", refuse)
        spec = load_problem(CONFIGS / "linear1d.json")
        grid = Grid(spec, 0.05)
        assert solve_mild(spec, ControlSignal.zeros(grid)).residuals
        assert optimal.eval_cost(spec, optimal.CostDescriptor(), ControlSignal.zeros(grid)) > 0.0
        param = optimal.ControlParameterization.boxed(2, 1, 10.0)
        result = optimal.minimize(spec, grid, optimal.CostDescriptor(), param)
        assert result.converged
        flagship = load_problem(CONFIGS / "flagship.json")
        grid = Grid(flagship, 0.05)
        traj = solve_mild(flagship, ControlSignal.zeros(grid))
        assert len(traj.residuals) == 6
        h = load_target(CONFIGS / "target_flagship.json", flagship.n_modes)
        assert steer(flagship, grid, h, 1e-2)[0].converged
        sweep = epsilon_sweep(flagship, grid, h, [1e-1, 1e-2])
        assert all(entry.report.converged for entry in sweep.entries)
        assert [f.name for f in dataclasses.fields(Trajectory)] == ["grid", "values", "residuals"]
        assert "warnings" not in [f.name for f in dataclasses.fields(SteeringReport)]


class TestKernelOwnership:
    # The grid builds its kernel table on first use and is the only holder
    # of it: no module-level cache shares tables between grids.  Builds are
    # counted at solver.mittag_leffler, the attribute the benchmark's span
    # wraps, so a table built around it fails here.
    def test_one_build_per_grid(self, monkeypatch):
        builds = []

        def counted(*args):
            builds.append(args)
            return mittag_leffler(*args)

        monkeypatch.setattr(solver, "mittag_leffler", counted)
        spec = load_problem(CONFIGS / "flagship.json")
        h = load_target(CONFIGS / "target_flagship.json", spec.n_modes)
        grid = Grid(spec, 1.0 / 100.0)
        steer(spec, grid, h, 1e-2)
        sweep = epsilon_sweep(spec, grid, h, [1e-1, 1e-2, 1e-3])
        assert all(e.report is not None for e in sweep.entries)
        assert len(builds) == 1
        assert Grid(spec, grid.h).kernel_table is not grid.kernel_table
        assert len(builds) == 2

    def test_table_dies_with_its_grid(self):
        # with the cycle collector off, only reference counts free objects:
        # a dead weakref shows that no cycle and no global holds the table
        gc.disable()
        try:
            spec = make_spec(n=2)
            grid = Grid(spec, 0.125)
            steer(spec, grid, np.array([0.3, -0.2]), 1e-1)
            table = weakref.ref(grid.kernel_table)
            spectrum = weakref.ref(grid.kernel_spectrum)
            del grid
            assert table() is None and spectrum() is None
        finally:
            gc.enable()

    def test_kernel_of_another_problem_raises(self):
        grid = Grid(make_spec(n=2), 0.125)
        with pytest.raises(DomainError):
            SolutionKernel(make_spec(n=2), grid)


class TestGridMembers:
    # Arrays that depend only on the grid: a sweep reads them, never builds them
    @pytest.mark.parametrize("alpha", [1.01, 1.5, 1.99])
    @pytest.mark.parametrize("omega, T, dt", [(0.0, 1.0, 0.25), (1.0, 2.0, 1.0 / 64.0)])
    def test_kernel_table_starts_at_one(self, alpha, omega, T, dt):
        # E_{alpha,1}(0) = 1 exactly in every mode: _convolve_all takes the
        # half-weight endpoint term at s = t as the forcing itself
        f = NonlinearityDescriptor(holder_p=0.005)  # p < alpha - 1
        grid = Grid(make_spec(n=16, alpha=alpha, omega=omega, T=T, f=f), dt)
        assert grid.kernel_table[0].tolist() == [1.0] * 16

    def test_window_weights_by_hand(self):
        spec = with_linear_memory(make_spec(n=2, r=0.25), 0.1)
        spec = dataclasses.replace(spec, f_desc=dataclasses.replace(spec.f_desc, kernel_rate=0.7))
        for dt in (1.0 / 20.0, 1.0 / 400.0):
            grid = Grid(spec, dt)
            offsets = np.arange(-grid.n_hist, 1) * dt
            step = offsets[1] - offsets[0]  # not dt in its last bits at dt = 1/400
            trapezoid = np.full(grid.n_hist + 1, step)
            trapezoid[[0, -1]] = 0.5 * step
            np.testing.assert_array_equal(grid.window_weights, trapezoid * np.exp(0.7 * offsets))

    def test_window_weights_built_once_per_grid(self, monkeypatch):
        builds = []

        def counted(n, h):
            builds.append(n)
            return model.trapezoid_weights(n, h)

        monkeypatch.setattr(solver, "trapezoid_weights", counted)
        spec = with_linear_memory(make_spec(n=2, r=0.25), 0.3)
        grid = Grid(spec, 0.05)
        weights = grid.window_weights
        traj = solve_mild(spec, ControlSignal.zeros(grid), tol=1e-12)
        assert len(traj.residuals) > 5 and grid.window_weights is weights
        assert builds == [grid.n_hist + 1]
        other = Grid(dataclasses.replace(spec, f_desc=dataclasses.replace(spec.f_desc,
                                                                          kernel_rate=2.0)), 0.05)
        assert other.window_weights is not weights
        assert not np.array_equal(other.window_weights, weights)
        assert builds == [grid.n_hist + 1] * 2


class TestOnePathStopRule:
    # Every path of a stack stops at the sweep where it stops alone, by the
    # same rule: at a first residual of +inf (d * d overflows on a start of
    # 1e200, and inf <= DIVERGED * inf holds), of NaN, or at one past
    # DIVERGED times the first.  The other two paths start from phi and run on.
    @staticmethod
    def stack(case):
        spec = TestPicardBehaviour.diverging_exact_spec()
        grid = Grid(spec, 0.0125)
        values = np.empty((3, len(grid), 1))
        values[:] = spec.phi(np.minimum(grid.times, 0.0))
        if case == "inf":
            values[1] = 1e200
        elif case == "nan":
            values[1, -1] = math.nan
        u = np.zeros((3, grid.n_fwd + 1, 1))
        u[2, :, 0] = np.linspace(-1.0, 1.0, grid.n_fwd + 1)
        return spec, ControlSignal(grid, u), values

    @pytest.mark.parametrize("lagged", [False, True])
    @pytest.mark.parametrize("case", ["inf", "nan", "diverged"])
    def test_sweeps_of_one_path_and_of_a_stack(self, case, lagged):
        spec, u, values = self.stack(case)
        bu = u.samples @ spec.B.T
        (stack, stack_res, stack_failed), (solo, solo_res, solo_failed) = [
            solver._iterate(u.grid, v, b, 1e-12, solver.PICARD_MAX, lagged)
            for v, b in ((values, bu), (values[1:2], bu[1:2]))
        ]
        res = solo_res[0]
        assert repr(res) == repr(stack_res[1])
        np.testing.assert_array_equal(solo[0], stack[1])
        assert solo_failed == [0] * (1 in stack_failed)
        if case != "diverged":  # stops at once
            assert repr(res) == repr([math.inf if case == "inf" else math.nan])
            assert solo_failed == [0] and len(stack_res[0]) > 1
        elif not lagged:  # stops at the first residual past DIVERGED times the first
            assert len(res) == 3 and res[2] > solver.DIVERGED * res[0] >= res[1]
            assert solo_failed == [0]
        else:  # lagged sweeps converge on this problem
            assert len(res) < solver.PICARD_MAX and res[-1] <= 1e-12 and solo_failed == []

    @pytest.mark.parametrize("case", ["inf", "nan", "diverged"])
    def test_solve_of_one_path_and_of_a_stack(self, case):
        spec, u, values = self.stack(case)
        runs = []  # the path's residuals, or the error it raises
        for paths, at in ((slice(None), 1), (slice(1, 2), 0)):
            try:
                traj = solve_mild(spec, ControlSignal(u.grid, u.samples[paths]), tol=1e-12,
                                  start=values[paths])
                runs.append(traj.residuals[at])
            except ConvergenceError as err:
                runs.append((str(err), err.residuals))
        assert repr(runs[0]) == repr(runs[1])
        if case == "diverged":  # the exact run gives up at sweep 3, the lagged one converges
            assert 3 < len(runs[1]) < solver.PICARD_MAX and runs[1][-1] <= 1e-12
        else:  # the lagged restart fails at once too
            assert runs[1][0] == "Picard iteration produced a non-finite iterate at sweep 1"

    def test_a_non_finite_residual_fails_at_any_tol(self):
        # tol = inf stops every path at sweep 1, and inf <= tol holds there
        spec, u, values = self.stack("inf")
        bu = u.samples @ spec.B.T
        _, res, failed = solver._iterate(u.grid, values, bu, math.inf, solver.PICARD_MAX, False)
        assert [len(r) for r in res] == [1, 1, 1] and res[1] == [math.inf]
        assert failed == [1]

    def test_a_stack_whose_paths_stop_three_ways(self):
        # path 0 passes DIVERGED times its first residual at sweep 3, path 1
        # starts at the fixed point and stops on tol, path 2 turns NaN at
        # sweep 1; the stack shrinks at sweeps 1 and 3
        spec, u, values = self.stack("diverged")
        grid, zero = u.grid, ControlSignal.zeros(u.grid)
        values[1] = solve_mild(spec, zero, tol=1e-13).values
        values[2, -1] = math.nan
        u = ControlSignal(grid, np.zeros_like(u.samples))
        bu = u.samples @ spec.B.T
        out, res, failed = solver._iterate(grid, values, bu, 1e-12, solver.PICARD_MAX, False)
        assert failed == [0, 2]
        assert [len(r) for r in res] == [3, 1, 1] and res[1][0] <= 1e-12
        assert res[0][2] > solver.DIVERGED * res[0][0] and math.isnan(res[2][0])
        for i, sweeps in enumerate([3, 1, 1]):
            x = values[i]
            for _ in range(sweeps):
                x = mild_map(grid, x, bu[i])
            np.testing.assert_array_equal(out[i], x)

        def solve(paths):
            return solve_mild(spec, ControlSignal(grid, u.samples[paths]), tol=1e-12,
                              start=values[paths])

        pair = solve(slice(0, 2))  # path 0 converges after the lagged restart
        for i in range(2):
            solo = solve(slice(i, i + 1))
            assert repr(pair.residuals[i]) == repr(solo.residuals[0])
            np.testing.assert_array_equal(pair.values[i], solo.values[0])
        errors = []  # path 2 fails both runs: the stack raises as path 2 alone does
        for paths in (slice(None), slice(2, 3)):
            with pytest.raises(ConvergenceError) as err:
                solve(paths)
            errors.append((str(err.value), repr(err.value.residuals), err.value.last_iterate))
        assert errors[0][:2] == errors[1][:2]
        np.testing.assert_array_equal(errors[0][2].values, errors[1][2].values)


class TestImpulseNodeForcing:
    # At an impulse node t_k the integral segment starting there uses
    # f1(x(t_k^+)) while the memory window still ends at the stored left
    # value x(t_k^-).  The helper rebuilds the mild formula by hand at every
    # forward node from the converged values.
    alpha, h, r, t_k, T = 1.5, 1.0 / 16.0, 0.25, 0.5, 1.0
    g1, g2, rate, scale = 0.3, 0.2, 1.0, -0.5
    phi0 = np.array([1.0, -0.5])

    def solve_by_hand(self, nonlocal_terms=()):
        """Solve one case; case.mild(m, fr) is the hand-built formula at
        forward node m with fr as the forcing's right value at t_k, and
        case.f_right the value the formula calls for."""
        alpha, h, r, t_k, T = self.alpha, self.h, self.r, self.t_k, self.T
        g1, g2, rate, scale = self.g1, self.g2, self.rate, self.scale
        f = NonlinearityDescriptor(
            f1_gain=g1, f2_gain=g2, kernel_rate=rate,
            f1_form="saturating", f2_form="linear",
            L1=g1, L2=g2, M1=0.5, holder_p=0.4,
        )
        spec = make_spec(
            n=2, alpha=alpha, omega=0.5, r=r, T=T,
            impulses=[ImpulseDescriptor(t_k, scale)],
            nonlocal_terms=nonlocal_terms, phi_coeffs=self.phi0, f=f,
        )
        grid = Grid(spec, h)
        traj = solve_mild(spec, ControlSignal.zeros(grid), tol=1e-13)
        x = traj.values
        n_hist, k, n = round(r / h), round(t_k / h), round(T / h)
        lam = spec.eigenvalues
        # phi(0) - g(x)(0), with g(x)(0) = sum_i c_i x(tau_i)
        start = self.phi0 - sum(
            (term.c * x[n_hist + round(term.tau / h)] for term in nonlocal_terms),
            np.zeros(2),
        )

        def D(t):
            return np.array([mittag_leffler(alpha, 1.0, lv * t**alpha) for lv in lam])

        def f1(v):
            return g1 * v / (1.0 + math.sqrt(float(v @ v)))

        def memory(m, last=None):
            # trapezoid sum of exp(-rate (t_m - s)) g2 x(s) over [t_m - r, t_m];
            # row m + i of x holds time t_m - r + i h
            total = np.zeros(2)
            for i in range(n_hist + 1):
                wt = h if 0 < i < n_hist else 0.5 * h
                v = x[m + i] if (i < n_hist or last is None) else last
                total += wt * math.exp(-rate * (n_hist - i) * h) * g2 * v
            return total

        forcing = [f1(x[n_hist + m]) + memory(m) for m in range(n + 1)]
        left = x[n_hist + k]
        right = left + scale * left

        def mild(m, f_right):
            out = D(m * h) * start
            if m > k:
                out = out + D((m - k) * h) * (scale * left)
            for j in range(m + 1):
                wt = h if 0 < j < m else 0.5 * h
                out = out + wt * D((m - j) * h) * forcing[j]
            if 0 < k < m:
                out = out + 0.5 * h * D((m - k) * h) * (f_right - forcing[k])
            return out

        return SimpleNamespace(
            spec=spec, traj=traj, mild=mild, forcing=forcing, memory=memory, f1=f1,
            right=right, f_right=f1(right) + memory(k), k=k, n=n, n_hist=n_hist,
        )

    def test_right_value_forcing_keeps_left_limit_memory_window(self):
        c = self.solve_by_hand()
        x = c.traj.values
        np.testing.assert_array_equal(c.traj.right_value(c.k), c.right)
        for m in range(1, c.n + 1):
            np.testing.assert_allclose(x[c.n_hist + m], c.mild(m, c.f_right), rtol=0, atol=1e-11)

        # the two readings a rewrite could slip into are far outside that
        # tolerance: f1 at the left value, or a window ending at x(t_k^+)
        for wrong in (c.forcing[c.k], c.f1(c.right) + c.memory(c.k, last=c.right)):
            assert np.linalg.norm(x[-1] - c.mild(c.n, wrong)) > 1e-6

    @pytest.mark.parametrize("nonlocal_terms", [(), (NonlocalTerm(0.2, 0.75),)],
                             ids=["local", "nonlocal"])
    @pytest.mark.parametrize("target", [(0.0, 0.0), (0.7, -1.3)], ids=["h0", "h1"])
    def test_residual_p_matches_hand_built_formula(self, nonlocal_terms, target):
        # the oracle's p(x) = h - (the mild formula at T with u = 0) against
        # the formula written out term for term
        c = self.solve_by_hand(nonlocal_terms)
        h = np.array(target)
        want = h - c.mild(c.n, c.f_right)
        got = residual_p(c.spec, self.h, c.traj.values, h)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    def test_hand_built_trajectory_right_value_applies_jump(self):
        # the right value follows from the jump condition, so a trajectory
        # built from bare values has one too; off the impulse nodes it is x
        spec = make_spec(
            n=2, r=0.25, impulses=[ImpulseDescriptor(0.25, -0.5),
                                   ImpulseDescriptor(0.75, 0.3)],
        )
        grid = Grid(spec, 1.0 / 8.0)
        values = np.random.default_rng(3).standard_normal((len(grid), 2))
        traj = Trajectory(grid, values)
        for k, (m, _) in enumerate(grid.kicks):
            left = values[grid.fwd_row(m)]
            np.testing.assert_array_equal(
                traj.right_value(m), left + spec.impulses[k].scale * left
            )
        np.testing.assert_array_equal(traj.right_value(1), values[grid.fwd_row(1)])


class TestWholeGridPrimitives:
    def test_match_per_node_evaluation(self):
        # whole-grid eval_f against a hand sum over each node's window, and
        # the FFT convolution against the direct trapezoid sum; the sums only
        # change order, so the gaps stay at rounding level
        f = NonlinearityDescriptor(
            f1_gain=0.3, f2_gain=0.2, kernel_rate=2.0,
            f1_form="saturating", f2_form="saturating",
            L1=0.3, L2=0.2, M1=0.5, holder_p=0.4,
        )
        spec = make_spec(n=3, omega=0.5, r=0.25, f=f)
        grid = Grid(spec, 1.0 / 40.0)
        rng = np.random.default_rng(5)
        values = rng.standard_normal((len(grid), 3))
        forcing = eval_f(grid, values)

        def sat(gain, v):
            return gain * v / (1.0 + np.linalg.norm(v))

        for m in range(grid.n_fwd + 1):
            want = sat(0.3, values[grid.fwd_row(m)])
            for j in range(grid.n_hist + 1):
                wt = grid.h if 0 < j < grid.n_hist else 0.5 * grid.h
                s = (j - grid.n_hist) * grid.h
                want = want + wt * math.exp(2.0 * s) * sat(0.2, values[m + j])
            np.testing.assert_allclose(forcing[m], want, rtol=0, atol=1e-15)

        table = grid.kernel_table
        conv = _convolve_all(grid, forcing)
        np.testing.assert_array_equal(conv[0], 0.0)
        for m in range(1, grid.n_fwd + 1):
            want = np.zeros(3)
            for j in range(m + 1):
                wt = grid.h if 0 < j < m else 0.5 * grid.h
                want += wt * table[m - j] * forcing[j]
            np.testing.assert_allclose(conv[m], want, rtol=0, atol=1e-14)


class TestBatchAxis:
    # A leading batch axis maps or solves several paths in one call; every
    # entry must equal its own one-path call bit for bit.  The flagship has
    # every ingredient: impulse, nonlocal term, delay, saturating memory f.
    @pytest.fixture(scope="class")
    def flagship(self):
        spec = load_problem(CONFIGS / "flagship.json")
        grid = Grid(spec, 1.0 / 200.0)
        base = np.random.default_rng(1).standard_normal((grid.n_fwd + 1, 16))
        return spec, grid, base

    def test_mild_map_stack_equals_single_paths(self, flagship):
        _, grid, _ = flagship
        rng = np.random.default_rng(2)
        values = rng.standard_normal((3, len(grid), 16))
        bu = rng.standard_normal((3, grid.n_fwd + 1, 16))
        stacked = mild_map(grid, values, bu)
        assert stacked.shape == values.shape
        for i in range(3):
            np.testing.assert_array_equal(
                stacked[i], mild_map(grid, values[i], bu[i])
            )

    def test_solve_stack_equals_single_solves(self, flagship):
        # with f linear of gain 2 the three controls stop at different sweeps
        # (17, 18 and 19); each leaves the loop at its own sweep with its own
        # residual list
        spec, grid, base = flagship
        spec = with_linear_memory(spec, 2.0)
        grid = Grid(spec, grid.h)
        samples = np.stack([c * base for c in (0.0, 100.0, 1000.0)])
        batch = solve_mild(spec, ControlSignal(grid, samples), tol=1e-11)
        singles = [solve_mild(spec, ControlSignal(grid, u), tol=1e-11) for u in samples]
        assert len({len(t.residuals) for t in singles}) == 3
        assert batch.values.shape == (3, len(grid), 16)
        for i, single in enumerate(singles):
            np.testing.assert_array_equal(batch.values[i], single.values)
            assert batch.residuals[i] == single.residuals

    @pytest.mark.parametrize("shape", [(200, 16), (201, 15), (201,), (2, 2, 201, 16)])
    def test_control_of_the_wrong_shape_rejected(self, flagship, shape):
        _, grid, _ = flagship
        with pytest.raises(DomainError, match=r"^control samples must have shape \(201, 16\)$"):
            ControlSignal(grid, np.zeros(shape))

    def test_non_finite_entry_raises_at_first_sweep(self, flagship):
        spec, grid, base = flagship
        samples = np.stack([base, base.copy(), base])
        samples[1, 7, 3] = np.nan
        with pytest.raises(ConvergenceError, match="non-finite iterate at sweep 1") as info:
            solve_mild(spec, ControlSignal(grid, samples), tol=1e-11)
        assert len(info.value.residuals) == 1
        assert not np.isfinite(info.value.last_iterate.values).all()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_control_raises_at_first_sweep(self, value):
        # inf times a zero of B is NaN in B u: an infinite control sample
        # takes the NaN path, with no numpy warning on the way
        spec = make_spec(n=2, phi_coeffs=[1.0, -0.5])
        grid = Grid(spec, 0.05)
        samples = np.zeros((2, grid.n_fwd + 1, 2))
        samples[1, 3, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="non-finite iterate at sweep 1$"):
                solve_mild(spec, ControlSignal(grid, samples))


class TestMildMapOracle:
    # mild_map and solve_mild against tests/oracles.py::mild_map_by_hand on
    # small random problems that have every ingredient the formula handles:
    # a delay with a nonlinearity of each kind and form, impulses, nonlocal
    # terms and a nonzero control.
    TOL = 1e-11

    @staticmethod
    def draw_memory_f(data, signed):
        forms = st.sampled_from(["linear", "saturating"])
        f1_gain, f2_gain = data.draw(signed), data.draw(signed)
        return NonlinearityDescriptor(
            f1_gain=f1_gain, f2_gain=f2_gain,
            kernel_rate=data.draw(st.floats(0.0, 3.0), label="rate"),
            f1_form=data.draw(forms, label="f1_form"),
            f2_form=data.draw(forms, label="f2_form"),
            L1=abs(f1_gain), L2=abs(f2_gain), M1=1.0, holder_p=0.01,
        )

    @staticmethod
    def draw_pointwise_f(data, signed):
        # the kinds without a memory window: f = 0 and f = gain * x
        if data.draw(st.sampled_from(["zero", "linear"]), label="f_kind") == "zero":
            return NonlinearityDescriptor(holder_p=0.01)
        gain = data.draw(signed, label="gain")
        return NonlinearityDescriptor(f1_gain=gain, L1=abs(gain), holder_p=0.01)

    @staticmethod
    def signed(top):
        """A float of size in [0.05, top] and either sign."""
        return st.tuples(st.floats(0.05, top), st.sampled_from([-1.0, 1.0])).map(
            lambda t: t[0] * t[1]
        )

    @classmethod
    def draw_problem(cls, data, draw_f=None, anchored=False, wide=False):
        """A random problem; anchored forces an impulse, an anchor at tau = 0
        and an anchor after the first impulse.  Weights, impulse scales and
        f gains are at most 0.3, 0.6 and 0.6 in size, or with wide 1.2, 1.5
        and 2, where some problems have no fixed point Picard reaches."""
        n_fwd = data.draw(st.integers(6, 40), label="n_fwd")
        T = data.draw(st.sampled_from([0.5, 1.0, 2.0]), label="T")
        h = T / n_fwd
        n_hist = data.draw(st.integers(1, min(n_fwd, 8)), label="n_hist")
        n = data.draw(st.integers(1, 3), label="N")
        signed = cls.signed(0.6)
        scales, weights, gains = (
            (cls.signed(1.5), cls.signed(2.4), cls.signed(2.0)) if wide else (signed,) * 3
        )
        imp_nodes = data.draw(
            st.lists(st.integers(1, n_fwd - 1), min_size=int(anchored), max_size=2, unique=True),
            label="impulses",
        )
        impulses = [
            ImpulseDescriptor(m * h, data.draw(scales)) for m in sorted(imp_nodes)
        ]
        if anchored:
            after = data.draw(st.integers(min(imp_nodes) + 1, n_fwd), label="anchor after")
            anchors = [0, after]
        else:
            anchors = data.draw(st.lists(st.integers(0, n_fwd), max_size=2), label="anchors")
        nonlocal_terms = [NonlocalTerm(0.5 * data.draw(weights), m * h) for m in anchors]
        f = (draw_f or cls.draw_memory_f)(data, gains)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        phi = data.draw(st.sampled_from(["constant", "linear"]), label="phi")
        coeffs, slope = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
        spec = ProblemSpec(
            alpha=data.draw(st.floats(1.05, 1.95), label="alpha"),
            omega=data.draw(st.floats(0.0, 1.0), label="omega"),
            n_modes=n,
            horizon=T,
            delay=n_hist * h,
            impulses=tuple(impulses),
            nonlocal_terms=tuple(nonlocal_terms),
            phi=PhiDescriptor(coeffs, slope if phi == "linear" else None),
            f_desc=f,
            B=rng.uniform(-1, 1, (n, n)),
        )
        return spec, Grid(spec, h), rng

    @given(data=st.data())
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_mild_map_and_fixed_points_match_oracle(self, data):
        spec, grid, rng = self.draw_problem(data)
        n = spec.n_modes

        # the mild map of a random path, node by node: x(0) and the linear
        # part of each jump read the path the sweep returns
        values = rng.standard_normal((len(grid), n))
        bu = rng.standard_normal((grid.n_fwd + 1, n))
        got = mild_map(grid, values, bu)
        want = mild_map_by_hand(spec, grid.h, values, bu, linear_from=got)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

        # converged paths are fixed points of the oracle, alone and in a batch
        samples = np.stack([c * rng.standard_normal((grid.n_fwd + 1, n)) for c in (1.0, 0.5, 2.0)])
        batch = solve_mild(spec, ControlSignal(grid, samples), tol=self.TOL)
        for i, u in enumerate(samples):
            single = solve_mild(spec, ControlSignal(grid, u), tol=self.TOL)
            np.testing.assert_array_equal(batch.values[i], single.values)
            step = mild_map_by_hand(spec, grid.h, single.values, u @ spec.B.T) - single.values
            assert np.max(np.linalg.norm(step, axis=-1)) <= self.TOL

    @given(data=st.data())
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_anchors_at_zero_and_after_an_impulse_give_fixed_points(self, data):
        # x(0) reads the path through an anchor at tau = 0 and through one
        # that lies after an impulse, so it sees the jump: a path solved to
        # 1e-12 is a fixed point of the oracle, alone and in a batch
        spec, grid, rng = self.draw_problem(data, anchored=True)
        assert spec.nonlocal_terms[0].tau == 0.0
        assert spec.nonlocal_terms[1].tau > spec.impulses[0].t
        n = spec.n_modes
        samples = np.stack([c * rng.standard_normal((grid.n_fwd + 1, n)) for c in (1.0, 3.0)])
        batch = solve_mild(spec, ControlSignal(grid, samples), tol=1e-12)
        for i, u in enumerate(samples):
            single = solve_mild(spec, ControlSignal(grid, u), tol=1e-12)
            np.testing.assert_array_equal(batch.values[i], single.values)
            step = mild_map_by_hand(spec, grid.h, single.values, u @ spec.B.T) - single.values
            assert np.max(np.linalg.norm(step, axis=-1)) <= self.TOL

    @given(data=st.data())
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_pointwise_kinds_match_oracle(self, data):
        # f = 0 and f = gain * x: at an impulse node only the pointwise part
        # of f takes the right value
        spec, grid, rng = self.draw_problem(data, self.draw_pointwise_f)
        n = spec.n_modes
        values = rng.standard_normal((2, len(grid), n))
        bu = rng.standard_normal((2, grid.n_fwd + 1, n))
        got = mild_map(grid, values, bu)
        for i in range(2):
            want = mild_map_by_hand(spec, grid.h, values[i], bu[i], linear_from=got[i])
            np.testing.assert_allclose(got[i], want, rtol=0, atol=1e-13)

        u = rng.standard_normal((grid.n_fwd + 1, n))
        x = solve_mild(spec, ControlSignal(grid, u), tol=self.TOL).values
        step = mild_map_by_hand(spec, grid.h, x, u @ spec.B.T) - x
        assert np.max(np.linalg.norm(step, axis=-1)) <= self.TOL

    @given(data=st.data())
    @seed(9)
    @settings(max_examples=100, deadline=None, database=None)
    def test_census_of_wide_problems(self, data):
        # wherever exact sweeps alone or lagged sweeps alone converge,
        # solve_mild converges; every converged path is a fixed point of the
        # oracle; every other problem raises one of the two errors a failed
        # solve may raise.  A fixed seed draws the same 100 problems whatever
        # this body says (derandomize would seed from the test's source).
        spec, grid, rng = self.draw_problem(data, wide=True)
        u = rng.standard_normal((grid.n_fwd + 1, spec.n_modes))
        bu = u @ spec.B.T
        converged = {}
        for lagged in (False, True):
            try:
                values = spec.phi(np.minimum(grid.times, 0.0))
                with np.errstate(over="ignore", invalid="ignore"):
                    for _ in range(solver.PICARD_MAX):
                        new_values = mild_map(grid, values, bu, lagged=lagged)
                        res = np.max(np.linalg.norm(new_values - values, axis=-1))
                        values = new_values
                        if res <= self.TOL or not math.isfinite(res):
                            break
            except EvaluationError:  # a linear coupling left undetermined: no sweep runs
                continue
            if res <= self.TOL:
                converged["lagged" if lagged else "exact"] = values
        paths = list(converged.values())
        try:
            paths.append(solve_mild(spec, ControlSignal(grid, u), tol=self.TOL).values)
        except (ConvergenceError, EvaluationError):
            assert not paths, f"{' and '.join(converged)} sweeps alone converge"
        for x in paths:
            step = mild_map_by_hand(spec, grid.h, x, bu) - x
            size = np.max(np.linalg.norm(x, axis=-1))
            assert np.max(np.linalg.norm(step, axis=-1)) <= 1e-10 * max(1.0, size)


class TestWarmStart:
    # solve_mild(start=values) begins the Picard loop at the path array
    # values instead of phi extended by phi(0); steer passes the last outer
    # iterate's values this way.
    @pytest.fixture(scope="class")
    def flagship(self):
        spec = load_problem(CONFIGS / "flagship.json")
        grid = Grid(spec, 1.0 / 200.0)
        # a sweep solves every linear coupling, so only f is iterated; f
        # linear of gain 2 makes a cold solve take 18 sweeps (6 with the
        # flagship f)
        spec = with_linear_memory(spec, 2.0)
        grid = Grid(spec, 1.0 / 200.0)
        base = 100.0 * np.random.default_rng(4).standard_normal((grid.n_fwd + 1, 16))
        return spec, grid, base

    @pytest.mark.parametrize("rebuilt", [False, True], ids=["same-grid", "equal-grid"])
    def test_converged_start_stops_after_one_sweep(self, flagship, rebuilt):
        # a start solved on a grid rebuilt with the same problem and step is accepted
        spec, grid, base = flagship
        u = ControlSignal(grid, base)
        cold = solve_mild(spec, ControlSignal(Grid(spec, grid.h), base) if rebuilt else u,
                          tol=1e-11)
        warm = solve_mild(spec, u, tol=1e-11, start=cold.values)
        assert len(cold.residuals) > 10
        assert len(warm.residuals) == 1
        np.testing.assert_allclose(warm.values, cold.values, rtol=0, atol=1e-11)

    def test_stack_equals_solo_warm_solves(self, flagship):
        # the three solves take 1, 18 and 19 sweeps: the start's error is
        # about nine times larger at scale 10 than at scale 0
        spec, grid, base = flagship
        start = solve_mild(spec, ControlSignal(grid, base), tol=1e-11).values
        samples = np.stack([c * base for c in (1.0, 0.0, 10.0)])
        batch = solve_mild(spec, ControlSignal(grid, samples), tol=1e-11, start=start)
        singles = [
            solve_mild(spec, ControlSignal(grid, u), tol=1e-11, start=start) for u in samples
        ]
        assert len({len(t.residuals) for t in singles}) == 3
        for i, single in enumerate(singles):
            np.testing.assert_array_equal(batch.values[i], single.values)
            assert batch.residuals[i] == single.residuals

    def test_start_left_unchanged(self, flagship):
        spec, grid, base = flagship
        start = np.ones((len(grid), 16))
        solve_mild(spec, ControlSignal(grid, base), tol=1e-11, start=start)
        np.testing.assert_array_equal(start, 1.0)

    @pytest.mark.parametrize("other", ["step"])
    def test_start_from_another_grid_rejected(self, flagship, other):
        # an array carries no problem: only its row count tells another step
        spec, grid, _ = flagship
        start = np.zeros((len(Grid(spec, 2.0 * grid.h)), 16))
        with pytest.raises(DomainError, match="start must be an array of u's grid rows"):
            solve_mild(spec, ControlSignal.zeros(grid), start=start)

    def test_start_with_another_batch_size_rejected(self, flagship):
        spec, grid, base = flagship
        start = np.zeros((2, len(grid), 16))
        with pytest.raises(DomainError, match="one per control"):
            solve_mild(spec, ControlSignal(grid, np.stack([base] * 3)), start=start)

    def test_one_start_per_control(self, flagship):
        spec, grid, base = flagship
        samples = np.stack([2.0 * base, base])
        starts = [solve_mild(spec, ControlSignal(grid, u), tol=1e-11) for u in samples]
        stacked = np.stack([t.values for t in starts])
        batch = solve_mild(spec, ControlSignal(grid, samples), tol=1e-11, start=stacked)
        for i, start in enumerate(starts):
            single = solve_mild(spec, ControlSignal(grid, samples[i]), tol=1e-11,
                                start=start.values)
            assert len(single.residuals) == 1
            np.testing.assert_array_equal(batch.values[i], single.values)
            assert batch.residuals[i] == single.residuals
