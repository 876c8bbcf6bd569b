"""Model-layer tests: descriptor validation, the three evaluation maps with
hand-computed oracles, and the declared Lipschitz data."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsteer.config import problem_from_dict
from fracsteer.errors import ConfigError
from fracsteer.model import (
    HistorySegment,
    ImpulseDescriptor,
    NonlinearityDescriptor,
    NonlocalTerm,
    eval_f,
)
from fracsteer.solver import (
    ControlSignal, Grid, Trajectory, _nonlocal_samples, mild_map, solve_mild,
)

from specs import make_spec


def config_with_f(f):
    """A one-mode problem file whose f is f."""
    return {"alpha": 1.5, "N": 1, "T": 1.0, "phi": {"kind": "zero"}, "f": f}


class TestValidation:
    def test_impulse_times_inside_horizon(self):
        with pytest.raises(ConfigError):
            make_spec(impulses=[ImpulseDescriptor(1.5, -1.0)])

    def test_impulse_times_increasing(self):
        with pytest.raises(ConfigError):
            make_spec(
                impulses=[
                    ImpulseDescriptor(0.6, -1.0),
                    ImpulseDescriptor(0.4, -1.0),
                ]
            )

    def test_anchor_range(self):
        with pytest.raises(ConfigError):
            make_spec(nonlocal_terms=[NonlocalTerm(0.5, 2.0)])

    def test_holder_exponent_window(self):
        f = NonlinearityDescriptor(holder_p=0.7)
        with pytest.raises(ConfigError):
            make_spec(alpha=1.5, f=f)  # needs p < alpha - 1 = 0.5

    def test_ledger_contents(self):
        spec = make_spec(
            n=2,
            r=0.25,
            impulses=[ImpulseDescriptor(0.5, -1.0)],
            nonlocal_terms=[NonlocalTerm(0.5, 0.25), NonlocalTerm(-0.25, 0.5)],
            f=NonlinearityDescriptor(L1=0.2, holder_p=0.4),
        )
        c = spec.constants
        assert c.K == 1
        assert c.l_2 == 1.0
        assert c.l_g == pytest.approx(0.75)
        assert c.M_B == pytest.approx(1.0)
        assert c.norm_L1 == pytest.approx(0.2 * 1.0**0.4)
        assert c.M == pytest.approx(1.0, abs=1e-9)  # attained at t = 0

    def test_misspelled_param_rejected(self):
        # a silently ignored "gian" would leave f = 0
        f = {"kind": "linear", "params": {"gian": 0.3}}
        with pytest.raises(ConfigError, match=r"unknown key\(s\) \['gian'\] in f.params"):
            problem_from_dict(config_with_f(f))

    def test_bad_f2_form_rejected_with_f2_off(self):
        # eval_f never reads f2_form while f2_gain is 0; the config still does
        params = {"f1_gain": 0.1, "f2_gain": 0.0, "f1_form": "linear", "f2_form": "satrating"}
        with pytest.raises(ConfigError, match="f.params.f2_form must be 'linear' or 'saturating'"):
            problem_from_dict(config_with_f({"kind": "memory", "params": params}))


def flat_history(spec, grid, value):
    offs = np.arange(-grid.n_hist, 1) * grid.h
    return HistorySegment(offs, np.tile(value, (len(offs), 1)))  # one window


class TestEvalF:
    def test_zero_kind(self):
        spec = make_spec(n=3)
        grid = Grid(spec, 0.25)
        x = np.array([1.0, 2.0, 3.0])
        out = eval_f(spec, [x], flat_history(spec, grid, x))[0]
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_memory_with_kernel_off(self):
        # f2 gain zero leaves only the pointwise part f1
        f = NonlinearityDescriptor(
            f1_gain=0.3, f2_gain=0.0, f1_form="linear",
            L1=0.3,
            holder_p=0.4,
        )
        spec = make_spec(n=2, r=0.5, f=f)
        grid = Grid(spec, 0.25)
        x = np.array([2.0, -1.0])
        out = eval_f(spec, [x], flat_history(spec, grid, x))[0]
        np.testing.assert_allclose(out, 0.3 * x)

    def test_memory_integral_against_hand_quadrature(self):
        # exponential kernel, linear f2, piecewise-constant history on 4
        # intervals: compare with an independently coded trapezoid sum
        rate, b_gain, r = 1.0, 0.7, 1.0
        f = NonlinearityDescriptor(
            f1_gain=0.0, f2_gain=b_gain, kernel_rate=rate,
            L2=b_gain,
            holder_p=0.4,
        )
        spec = make_spec(n=1, r=r, T=2.0, f=f)
        offs = np.linspace(-r, 0.0, 5)
        hist_vals = np.array([[1.0], [1.0], [-2.0], [-2.0], [0.5]])
        hist = HistorySegment(offs, hist_vals)
        got = eval_f(spec, [[0.0]], hist)[0, 0]
        h_step = r / 4
        expected = 0.0
        for j, s in enumerate(offs):
            w = 0.5 if j in (0, 4) else 1.0
            expected += w * h_step * math.exp(rate * s) * b_gain * hist_vals[j, 0]
        assert got == pytest.approx(expected, abs=1e-14)

    def test_declared_lipschitz_not_exceeded(self):
        # finite-difference Lipschitz estimates stay within declared L1, L2
        f = NonlinearityDescriptor(
            f1_gain=0.4,
            f2_gain=0.3,
            kernel_rate=1.0,
            f1_form="saturating",
            f2_form="saturating",
            L1=0.4,
            L2=0.3,
            M1=0.7,
            holder_p=0.4,
        )
        spec = make_spec(n=2, r=0.5, f=f)
        grid = Grid(spec, 0.125)
        rng = np.random.default_rng(3)
        offs = np.arange(-grid.n_hist, 1) * grid.h
        for _ in range(40):
            x1 = rng.standard_normal(2)
            x2 = rng.standard_normal(2)
            hv1 = rng.standard_normal((len(offs), 2))
            hv2 = rng.standard_normal((len(offs), 2))
            h1 = HistorySegment(offs, hv1)
            h2 = HistorySegment(offs, hv2)
            d_state = np.linalg.norm(
                eval_f(spec, [x1], h1) - eval_f(spec, [x2], h1)
            )
            assert d_state <= 1.01 * f.L1 * np.linalg.norm(x1 - x2) + 1e-12
            d_hist = np.linalg.norm(
                eval_f(spec, [x1], h1) - eval_f(spec, [x1], h2)
            )
            sup_dist = np.max(np.linalg.norm(hv1 - hv2, axis=1))
            assert d_hist <= 1.01 * f.L2 * sup_dist + 1e-12

    def test_bound_respected_when_declared(self):
        f = NonlinearityDescriptor(
            f1_gain=0.4, f2_gain=0.0, f1_form="saturating",
            L1=0.4,
            M1=0.4,
            holder_p=0.4,
        )
        spec = make_spec(n=2, r=0.0, f=f)
        grid = Grid(spec, 0.25)
        rng = np.random.default_rng(11)
        for _ in range(25):
            x = 10.0 * rng.standard_normal(2)
            out = eval_f(spec, [x], flat_history(spec, grid, x))[0]
            assert np.linalg.norm(out) <= f.M1 + 1e-12


class TestEvalG:
    # the nonlocal map g(x)(s) = sum_i c_i x(tau_i + s) on every history row
    # s in [-r, 0), as solver._nonlocal_samples evaluates it; g(x)(0) enters
    # through the start of mild_map
    def test_empty_nonlocal_list(self):
        spec = make_spec(n=2, r=0.5)
        grid = Grid(spec, 0.25)
        traj = solve_mild(spec, ControlSignal.zeros(grid))
        np.testing.assert_array_equal(_nonlocal_samples(grid, traj.values), np.zeros((2, 2)))

    def test_identity_anchor(self):
        spec = make_spec(n=1, r=0.5, nonlocal_terms=[NonlocalTerm(1.0, 0.0)])
        grid = Grid(spec, 0.25)
        traj = Trajectory(grid, np.cos(grid.times)[:, None])
        np.testing.assert_allclose(
            _nonlocal_samples(grid, traj.values), traj.values[: grid.row(0.0)]
        )

    def test_weighted_sum_on_known_trajectory(self):
        # linear-in-t synthetic trajectory: x(t) = 1 + t, by hand:
        # g(x)(s) = 0.5 x(0.3+s) + 0.25 x(0.6+s); a lagged sweep starts from
        # x(0) = phi(0) - g(x)(0) = 1 - g(x)(0)
        spec = make_spec(
            n=1,
            r=0.2,
            nonlocal_terms=[NonlocalTerm(0.5, 0.3), NonlocalTerm(0.25, 0.6)],
        )
        grid = Grid(spec, 0.1)
        values = (1.0 + grid.times)[:, None]
        swept = mild_map(grid, values, np.zeros((grid.n_fwd + 1, 1)), lagged=True)
        g = np.append(_nonlocal_samples(grid, values)[:, 0], 1.0 - swept[grid.row(0.0), 0])
        for row, s in enumerate((-0.2, -0.1, 0.0)):
            want = 0.5 * (1.0 + 0.3 + s) + 0.25 * (1.0 + 0.6 + s)
            assert g[row] == pytest.approx(want, abs=1e-12)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_lipschitz_in_trajectory(self, seed):
        # |g(x) - g(y)| <= (sum |c_i|) * sup-distance, exactly as declared
        spec = make_spec(
            n=2,
            r=0.2,
            nonlocal_terms=[NonlocalTerm(0.3, 0.2), NonlocalTerm(-0.2, 0.8)],
        )
        grid = Grid(spec, 0.1)
        rng = np.random.default_rng(seed)
        va = rng.standard_normal((len(grid), 2))
        vb = rng.standard_normal((len(grid), 2))
        sup = np.max(np.linalg.norm(va - vb, axis=1))
        l_g = spec.constants.l_g
        gap = _nonlocal_samples(grid, va) - _nonlocal_samples(grid, vb)
        assert np.all(np.linalg.norm(gap, axis=1) <= l_g * sup + 1e-12)


def impulse_jump(spec, x):
    """I(x) at the one impulse of spec: Trajectory.right_value at its node,
    less the left value x stored there."""
    grid = Grid(spec, 0.25)
    m = grid.impulse_nodes[0]
    values = np.zeros((len(grid), spec.n_modes))
    values[grid.fwd_row(m)] = x
    return Trajectory(grid, values).right_value(m) - x


class TestEvalImpulse:
    def test_flip_impulse(self):
        spec = make_spec(
            n=3, impulses=[ImpulseDescriptor(0.5, -1.0)]
        )
        x = np.array([1.0, 0.0, 0.0])
        np.testing.assert_array_equal(
            impulse_jump(spec, x), np.array([-1.0, 0.0, 0.0])
        )

    def test_zero_impulse(self):
        spec = make_spec(n=2, impulses=[ImpulseDescriptor(0.5, 0.0)])
        x = np.array([3.0, -4.0])
        np.testing.assert_array_equal(impulse_jump(spec, x), np.zeros(2))

    def test_scaled_impulse_linearity(self):
        spec = make_spec(n=4, impulses=[ImpulseDescriptor(0.5, 0.1)])
        rng = np.random.default_rng(5)
        x = rng.standard_normal(4)
        np.testing.assert_allclose(impulse_jump(spec, x), 0.1 * x)
