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
    ImpulseDescriptor,
    NonlinearityDescriptor,
    NonlocalTerm,
)
from fracsteer.solver import (
    ControlSignal, Grid, Trajectory, eval_f, mild_map, solve_mild,
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

    # checks that the config loader makes first, reached by direct calls
    @pytest.mark.parametrize("kwargs, message", [
        (dict(n=0), "N must be >= 1"),
        (dict(n=2, phi_coeffs=[1.0]), "phi coefficient length must equal N"),
        (dict(n=2, phi_coeffs=[1.0, 0.0, 0.0]), "phi coefficient length must equal N"),
        (dict(n=2, B=np.eye(3)), "B must be 2x2"),
        (dict(n=2, B=np.ones((2, 3))), "B must be 2x2"),
    ])
    def test_sizes_must_match_n(self, kwargs, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            make_spec(**kwargs)

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


class TestEvalF:
    # eval_f(grid, values) reads x(t_m) off forward row m of the path and
    # the delay window x_{t_m} off its rows m .. m + n_hist
    def test_zero_kind(self):
        spec = make_spec(n=3, r=0.5)
        grid = Grid(spec, 0.25)
        values = np.random.default_rng(2).standard_normal((len(grid), 3))
        out = eval_f(grid, values)
        np.testing.assert_array_equal(out, np.zeros((grid.n_fwd + 1, 3)))

    def test_memory_with_kernel_off(self):
        # f2 gain zero leaves only the pointwise part f1, read off the forward rows
        f = NonlinearityDescriptor(
            f1_gain=0.3, f2_gain=0.0, f1_form="linear",
            L1=0.3,
            holder_p=0.4,
        )
        spec = make_spec(n=2, r=0.5, f=f)
        grid = Grid(spec, 0.25)
        values = np.random.default_rng(6).standard_normal((len(grid), 2))
        out = eval_f(grid, values)
        np.testing.assert_allclose(out, 0.3 * values[grid.n_hist :])

    def test_memory_integral_against_hand_quadrature(self):
        # exponential kernel, linear f1 and f2, a piecewise-constant path on
        # [-r, T]: compare every forward node with an independently coded
        # trapezoid sum over the 5 samples of its window
        rate, a_gain, b_gain, r = 1.0, 0.2, 0.7, 1.0
        f = NonlinearityDescriptor(
            f1_gain=a_gain, f2_gain=b_gain, kernel_rate=rate,
            L1=a_gain, L2=b_gain,
            holder_p=0.4,
        )
        spec = make_spec(n=1, r=r, T=2.0, f=f)
        grid = Grid(spec, 0.25)
        path = [1.0, 1.0, -2.0, -2.0, 0.5, 0.5, 3.0, 3.0, -1.0, -1.0, 0.0, 0.0, 2.0]
        got = eval_f(grid, np.array(path)[:, None])[:, 0]
        assert got.shape == (9,)
        for m in range(9):
            expected = a_gain * path[m + 4]
            for j in range(5):
                s = -r + 0.25 * j
                w = 0.5 if j in (0, 4) else 1.0
                expected += w * 0.25 * math.exp(rate * s) * b_gain * path[m + j]
            assert got[m] == pytest.approx(expected, abs=1e-14)

    def test_declared_lipschitz_not_exceeded(self):
        # finite-difference Lipschitz estimates at a random node m: moving
        # only the window's earlier rows changes f by at most L2 times their
        # sup distance, moving only its last row x(t_m) by at most L1 + L2
        # times its distance
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
        for _ in range(40):
            m = int(rng.integers(grid.n_fwd + 1))
            last = m + grid.n_hist  # the row of x(t_m)
            v1 = rng.standard_normal((len(grid), 2))
            v_hist, v_last = v1.copy(), v1.copy()
            v_hist[m:last] = rng.standard_normal((grid.n_hist, 2))
            v_last[last] = rng.standard_normal(2)
            f1 = eval_f(grid, v1)[m]
            d_hist = np.linalg.norm(eval_f(grid, v_hist)[m] - f1)
            sup_dist = np.max(np.linalg.norm(v_hist - v1, axis=1))
            assert d_hist <= 1.01 * f.L2 * sup_dist + 1e-12
            d_state = np.linalg.norm(eval_f(grid, v_last)[m] - f1)
            dist = np.linalg.norm(v_last[last] - v1[last])
            assert d_state <= 1.01 * (f.L1 + f.L2) * dist + 1e-12

    def test_bound_respected_when_declared(self):
        f = NonlinearityDescriptor(
            f1_gain=0.4, f2_gain=0.0, f1_form="saturating",
            L1=0.4,
            M1=0.4,
            holder_p=0.4,
        )
        spec = make_spec(n=2, r=0.0, f=f)
        grid = Grid(spec, 1.0 / 32.0)
        values = 10.0 * np.random.default_rng(11).standard_normal((len(grid), 2))
        out = eval_f(grid, values)
        assert np.all(np.linalg.norm(out, axis=1) <= f.M1 + 1e-12)


class TestEvalG:
    # the nonlocal map g(x)(s) = sum_i c_i x(tau_i + s): a sweep returns a
    # path y with y(s) = phi(s) - g(y)(s) on every history row s < 0, and
    # closes y(0) = phi(0) - g(y)(0) through the start of mild_map; a lagged
    # sweep reads g(x)(0) off its input x instead
    @staticmethod
    def g_on_history(spec, grid, y):
        """phi(s) - y(s) on the history rows s < 0: g(y)(s) for a sweep's output y."""
        return spec.phi(grid.times[: grid.n_hist]) - y[..., : grid.n_hist, :]

    def test_empty_nonlocal_list(self):
        spec = make_spec(n=2, r=0.5)
        grid = Grid(spec, 0.25)
        traj = solve_mild(spec, ControlSignal.zeros(grid))
        np.testing.assert_array_equal(self.g_on_history(spec, grid, traj.values), np.zeros((2, 2)))

    def test_identity_anchor(self):
        # g(y)(s) = y(s): y(s) = phi(s) - y(s) is solved to phi(s) / 2 in one
        # sweep, exact or lagged, whatever path the sweep is given
        spec = make_spec(n=1, r=0.5, nonlocal_terms=[NonlocalTerm(1.0, 0.0)])
        grid = Grid(spec, 0.25)
        values = np.cos(grid.times)[:, None]
        for lagged in (False, True):
            swept = mild_map(grid, values, np.zeros((grid.n_fwd + 1, 1)), lagged=lagged)
            np.testing.assert_array_equal(swept[: grid.row(0.0)], 0.5)
            np.testing.assert_array_equal(
                self.g_on_history(spec, grid, swept), swept[: grid.row(0.0)]
            )

    def test_weighted_sum_on_known_trajectory(self):
        # g(x)(s) = 0.5 x(0.3+s) + 0.25 x(0.6+s), by hand.  A lagged sweep of
        # the linear-in-t trajectory x(t) = 1 + t starts from
        # x(0) = phi(0) - g(x)(0) = 1 - g(x)(0); on the history rows it
        # returns y(s) = phi(s) - g(y)(s), which reads y's forward rows
        spec = make_spec(
            n=1,
            r=0.2,
            nonlocal_terms=[NonlocalTerm(0.5, 0.3), NonlocalTerm(0.25, 0.6)],
        )
        grid = Grid(spec, 0.1)
        values = (1.0 + grid.times)[:, None]
        swept = mild_map(grid, values, np.zeros((grid.n_fwd + 1, 1)), lagged=True)
        assert 1.0 - swept[grid.row(0.0), 0] == pytest.approx(0.5 * 1.3 + 0.25 * 1.6, abs=1e-12)
        g = self.g_on_history(spec, grid, swept)[:, 0]
        for row, s in enumerate((-0.2, -0.1)):
            want = 0.5 * swept[grid.row(0.3 + s), 0] + 0.25 * swept[grid.row(0.6 + s), 0]
            assert g[row] == pytest.approx(want, abs=1e-12)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_lipschitz_in_trajectory(self, seed):
        # |g(x) - g(y)| <= (sum |c_i|) * sup-distance, exactly as declared.
        # Both anchors lie at or after r, so the history rows of a sweep's
        # output read its forward rows only; lagged sweeps make those depend
        # on the random input paths
        spec = make_spec(
            n=2,
            r=0.2,
            nonlocal_terms=[NonlocalTerm(0.3, 0.2), NonlocalTerm(-0.2, 0.8)],
        )
        grid = Grid(spec, 0.1)
        rng = np.random.default_rng(seed)
        bu = np.zeros((grid.n_fwd + 1, 2))
        ya, yb = (mild_map(grid, rng.standard_normal((len(grid), 2)), bu, lagged=True)
                  for _ in range(2))
        sup = np.max(np.linalg.norm(ya - yb, axis=1))
        l_g = spec.constants.l_g
        gap = self.g_on_history(spec, grid, ya) - self.g_on_history(spec, grid, yb)
        assert np.all(np.linalg.norm(gap, axis=1) <= l_g * sup + 1e-12)


def impulse_jump(spec, x):
    """I(x) at the one impulse of spec: Trajectory.right_value at its node,
    less the left value x stored there."""
    grid = Grid(spec, 0.25)
    m = grid.kicks[0][0]
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
