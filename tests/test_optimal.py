"""Optimal-control tests: cost evaluation against refined quadrature, the
direct method against exhaustive grid search (superposition-accelerated,
spot-checked against eval_cost), box-constrained KKT behaviour, convexity
checks, and coercivity."""

from pathlib import Path

import numpy as np
import pytest

from fracsteer import optimal, solver
from fracsteer.config import load_cost, load_problem
from fracsteer.errors import ConfigError, DomainError
from fracsteer.mittag import mittag_leffler
from fracsteer.model import (
    ImpulseDescriptor,
    NonlinearityDescriptor,
    NonlocalTerm,
)
from fracsteer.optimal import (
    ControlParameterization,
    CostDescriptor,
    MinimizeOptions,
    eval_cost,
    minimize,
)
from fracsteer.solver import ControlSignal, Grid, solve_mild
from oracles import CONVEXITY_SLACK, lq_quadratic, midpoint_costs
from specs import make_spec

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


QUAD = CostDescriptor()  # |x|^2 + |x_t|_r^2 + |u|^2
STATE_ONLY = CostDescriptor(w_state=1.0, w_hist=0.0, w_control=0.0, f_u=0.0)


class TestEvalCost:
    def test_zero_everything_gives_zero(self):
        spec = make_spec(phi_coeffs=[0.0])
        grid = Grid(spec, 1.0 / 50.0)
        assert eval_cost(spec, QUAD, ControlSignal.zeros(grid)) == 0.0

    def test_free_response_state_cost_refined_quadrature(self):
        # J = int_0^1 E_{1.5,1}(-t^1.5)^2 dt, refined-grid trapezoid oracle
        spec = make_spec(alpha=1.5)
        grid = Grid(spec, 1.0 / 100.0)
        got = eval_cost(spec, STATE_ONLY, ControlSignal.zeros(grid))
        n_fine = 4000
        ts = np.linspace(0.0, 1.0, n_fine + 1)
        vals = np.array([mittag_leffler(1.5, 1.0, -(t**1.5)) ** 2 for t in ts])
        w = np.full(n_fine + 1, 1.0 / n_fine)
        w[0] *= 0.5
        w[-1] *= 0.5
        want = float(w @ vals)
        assert got == pytest.approx(want, abs=1e-5)

    def test_history_term_strictly_increases_cost(self):
        spec = make_spec(alpha=1.5, r=0.25)
        grid = Grid(spec, 1.0 / 100.0)
        u = ControlSignal.zeros(grid)
        base = eval_cost(spec, STATE_ONLY, u)
        with_hist = eval_cost(
            spec, CostDescriptor(w_state=1.0, w_hist=0.5, w_control=0.0, f_u=0.0), u
        )
        assert with_hist > base

    def test_matches_per_node_running_cost(self):
        spec = make_spec(n=2, r=0.25, phi_coeffs=[1.0, -0.5])
        grid = Grid(spec, 1.0 / 20.0)
        rng = np.random.default_rng(4)
        u = ControlSignal(grid, rng.standard_normal((grid.n_fwd + 1, 2)))
        traj = solve_mild(spec, u)
        cost = CostDescriptor(w_state=1.0, w_hist=0.7, w_control=0.4, f_u=0.4)
        samples = cost.evaluate(grid, traj.values, u.samples)
        norms = np.linalg.norm(traj.values, axis=1)
        for m in range(grid.n_fwd + 1):
            x, window = traj.values[grid.fwd_row(m)], norms[m : m + grid.n_hist + 1]
            want = 1.0 * x @ x + 0.7 * max(window) ** 2 + 0.4 * u.samples[m] @ u.samples[m]
            assert samples[m] == pytest.approx(want, rel=1e-14)
        want = float(grid.trapezoid_weights(grid.n_fwd) @ samples)
        assert eval_cost(spec, cost, u) == pytest.approx(want, rel=1e-14)


class TestParameterization:
    def test_expansion_is_piecewise_constant(self):
        spec = make_spec()
        grid = Grid(spec, 1.0 / 8.0)
        param = ControlParameterization.boxed(4, 1, 5.0)
        theta = np.array([[1.0], [2.0], [3.0], [4.0]])
        u = param.expand(grid, theta)
        np.testing.assert_array_equal(
            u.samples[:, 0], [1, 1, 2, 2, 3, 3, 4, 4, 4]
        )

    @pytest.mark.parametrize("shape", [(3, 1), (4, 2), (4,), (2, 1, 4)])
    def test_expand_rejects_theta_of_the_wrong_shape(self, shape):
        grid = Grid(make_spec(), 1.0 / 8.0)
        param = ControlParameterization.boxed(4, 1, 5.0)
        with pytest.raises(DomainError, match=r"^theta must have shape \(4, 1\)$"):
            param.expand(grid, np.zeros(shape))

    def test_empty_box_rejected(self):
        with pytest.raises(ConfigError):
            ControlParameterization(2, 1, -1.0)

    @pytest.mark.parametrize("dt", [1 / 7, 1 / 9, 1 / 12, 0.01])
    def test_node_m_lands_in_the_interval_of_m_over_n(self, dt):
        # node m lies in interval q when q / P <= m / n_fwd < (q + 1) / P, the
        # last node in the last interval; in floats t / T * P read 0.29 * 100
        # as 28.999999999999996 and put node 29 of dt = 0.01 in interval 28
        grid = Grid(make_spec(), dt)
        n, m = grid.n_fwd, np.arange(grid.n_fwd + 1)
        for P in range(1, n + 1):
            q = ControlParameterization.boxed(P, 1, 1.0).interval_of(grid)
            assert np.all(q * n <= m * P) and np.all((m * P < (q + 1) * n) | (m == n))
            assert np.all(np.bincount(q, minlength=P) > 0)


class TestMinimize:
    def test_parameterization_of_another_dimension_rejected(self):
        spec = make_spec(n=2)
        with pytest.raises(ConfigError, match="^parameterization dimension does not match"):
            minimize(spec, Grid(spec, 0.25), QUAD, ControlParameterization.boxed(2, 1, 5.0))

    def test_control_penalty_dominates(self):
        # heavy control weight, no target pull: optimum is u = 0
        spec = make_spec(phi_coeffs=[0.5])
        grid = Grid(spec, 1.0 / 50.0)
        cost = CostDescriptor(w_state=1e-4, w_hist=0.0, w_control=1.0)
        param = ControlParameterization.boxed(3, 1, 5.0)
        result = minimize(
            spec, grid, cost, param,
            opts=MinimizeOptions(max_evals=600),
            theta0=np.full((3, 1), 0.8),
        )
        free_cost = eval_cost(spec, cost, ControlSignal.zeros(grid))
        assert np.max(np.abs(result.theta_opt)) <= 0.02
        assert result.J_opt <= free_cost + 1e-10

    def test_history_non_increasing(self):
        spec = make_spec(phi_coeffs=[1.0])
        grid = Grid(spec, 1.0 / 50.0)
        param = ControlParameterization.boxed(4, 1, 5.0)
        result = minimize(spec, grid, QUAD, param, opts=MinimizeOptions(max_evals=400))
        diffs = np.diff(result.history)
        assert np.all(diffs <= 0.0)

    def test_matches_exhaustive_grid_search(self):
        # 1-D LQ, P = 4: superposition makes J an explicit quadratic; the
        # oracle sweeps the full 21^4 grid of that quadratic after verifying
        # it agrees with eval_cost, then the direct method must come within 2%
        spec = make_spec(alpha=1.5, phi_coeffs=[1.0])
        grid = Grid(spec, 1.0 / 50.0)
        P = 4
        bound = 2.0
        param = ControlParameterization.boxed(P, 1, bound)
        w = grid.trapezoid_weights(grid.n_fwd)

        free = solve_mild(spec, ControlSignal.zeros(grid), tol=1e-13)
        x_free = free.forward_values()[:, 0]
        basis_x = []
        basis_u = []
        for q in range(P):
            theta = np.zeros((P, 1))
            theta[q, 0] = 1.0
            uq = param.expand(grid, theta)
            xq = solve_mild(spec, uq, tol=1e-13).forward_values()[:, 0] - x_free
            basis_x.append(xq)
            basis_u.append(uq.samples[:, 0])
        X = np.stack(basis_x)  # (P, nodes)
        U = np.stack(basis_u)

        # J(theta) = int (2 x^2 + u^2) dt   (r = 0 doubles the state term)
        c0 = float(w @ (2.0 * x_free**2))
        b = 2.0 * (X * (w * x_free)).sum(axis=1)  # gradient/2 of the x-part
        Q = 2.0 * (X * w) @ X.T + (U * w) @ U.T

        def J_quadratic(thetas):
            return c0 + 2.0 * thetas @ b + np.einsum("ij,jk,ik->i", thetas, Q, thetas)

        rng = np.random.default_rng(23)
        for _ in range(3):  # spot-check the quadratic against the true cost
            theta = rng.uniform(-bound, bound, size=(P, 1))
            direct = eval_cost(spec, QUAD, param.expand(grid, theta), tol=1e-13)
            fast = float(J_quadratic(theta.reshape(1, P))[0])
            assert fast == pytest.approx(direct, rel=1e-10)

        axis = np.linspace(-bound, bound, 21)
        mesh = np.stack(np.meshgrid(*([axis] * P), indexing="ij"), axis=-1).reshape(-1, P)
        J_all = J_quadratic(mesh)
        j_grid = float(J_all.min())

        result = minimize(
            spec, grid, QUAD, param, opts=MinimizeOptions(max_evals=1500)
        )
        assert abs(result.J_opt - j_grid) / j_grid <= 0.02
        # lowest index wins the tie-break; the argmin must reproduce J_grid
        assert J_all[int(J_all.argmin())] == j_grid

    def test_active_box_constraint_kkt_sign(self):
        # make the unconstrained optimum lie outside a tight box
        spec = make_spec(alpha=1.5, phi_coeffs=[1.0])
        grid = Grid(spec, 1.0 / 50.0)
        cost = CostDescriptor(w_state=50.0, w_hist=0.0, w_control=1.0)
        cap = 0.05
        param = ControlParameterization.boxed(1, 1, cap)
        result = minimize(spec, grid, cost, param, opts=MinimizeOptions(max_evals=400))
        theta_star = result.theta_opt[0, 0]
        assert theta_star == pytest.approx(-cap, abs=1e-12)  # pinned to the wall
        # finite-difference gradient points outward (negative at lower bound)
        h = 1e-6
        up = eval_cost(spec, cost, param.expand(grid, [[theta_star + h]]), tol=1e-13)
        dn = eval_cost(spec, cost, param.expand(grid, [[theta_star - h]]), tol=1e-13)
        assert (up - dn) / (2 * h) > 0.0

    @staticmethod
    def lq_problem():
        # the P = 8 problem of the optimize_lq_1d benchmark; the minimizer of
        # the superposition quadratic lies inside the box, so it is the exact
        # constrained minimum
        spec = load_problem(CONFIGS / "linear1d.json")
        cost = load_cost(CONFIGS / "cost_quadratic.json")
        grid = Grid(spec, 0.01)
        param = ControlParameterization.boxed(8, 1, 10.0)
        b, Q, J_quadratic = lq_quadratic(spec, grid, param)
        theta = np.linalg.solve(Q, -b).reshape(8, 1)
        assert np.all(np.abs(theta) < 10.0)
        j_min = float(J_quadratic(theta)[0])
        direct = eval_cost(spec, cost, param.expand(grid, theta), tol=1e-13)
        assert j_min == pytest.approx(direct, rel=1e-10)
        return spec, cost, grid, param, j_min

    def test_lq_exact_minimum_in_400_evals(self):
        # at the default options
        spec, cost, grid, param, j_min = self.lq_problem()
        result = minimize(spec, grid, cost, param)
        assert result.converged
        assert abs(result.J_opt - j_min) / j_min <= 1e-9
        assert result.n_evals <= 400

    def test_lq_stops_without_a_failing_line_search(self, monkeypatch):
        # at the minimizer the predicted decrease -g.d is below the acceptance
        # margin, so the descent stops there instead of halving a step 30
        # times: the start and 6 accepted steps, each point with its
        # 16-point gradient, 7 x 17 evaluations in 7 batched eval_cost calls
        spec, cost, grid, param, j_min = self.lq_problem()
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return eval_cost(*args, **kwargs)

        monkeypatch.setattr(optimal, "eval_cost", counted)
        result = minimize(spec, grid, cost, param)
        assert result.converged
        assert abs(result.J_opt - j_min) / j_min <= 1e-9
        assert result.n_evals <= 119 and len(calls) <= 7

    def test_short_accepted_step_is_stationary(self):
        # with the control weighed 1e4 the second accepted step is no longer
        # than _STAT_TOL, which ends the descent as stationary at its third
        # point; without that stop its gradient there adds 6 evaluations
        spec = load_problem(CONFIGS / "linear1d.json")
        cost = CostDescriptor(w_state=1.0, w_hist=0.0, w_control=1e4, f_u=1.0)
        param = ControlParameterization.boxed(3, 1, 10.0)
        result = minimize(spec, Grid(spec, 0.1), cost, param)
        assert (result.converged, result.n_evals, len(result.history)) == (True, 15, 3)

    def test_separable_quadratic_minimized_in_one_step(self):
        # a control-only cost is a separable quadratic in theta: the second
        # differences of the start's stencil are its Hessian's diagonal, so
        # the first accepted step lands on the minimizer theta = 0 to the
        # stencil's accuracy
        spec = load_problem(CONFIGS / "linear1d.json")
        cost = CostDescriptor(w_state=0.0, w_hist=0.0, w_control=1.0, f_u=1.0)
        param = ControlParameterization.boxed(3, 1, 10.0)
        theta0 = np.array([[0.5], [-0.3], [0.8]])
        result = minimize(spec, Grid(spec, 0.1), cost, param, theta0=theta0)
        assert result.converged
        assert result.history[1] <= 1e-11 * result.history[0]
        assert np.max(np.abs(result.theta_opt)) <= 1e-9

    def test_unusable_curvature_starts_at_first_step(self, monkeypatch):
        # a cost in three parameters, one term each: convex in the first, so
        # its inverse Hessian entry is 1 / c; concave in the second and
        # curved within rounding in the third, so both start at _FIRST_STEP.
        # The first trial point (solved alone in the smallest budget) shows
        # the step each coordinate took
        spec = load_problem(CONFIGS / "linear1d.json")
        grid = Grid(spec, 0.1)
        param = ControlParameterization.boxed(3, 1, 10.0)
        first = np.searchsorted(param.interval_of(grid), np.arange(3))
        # a t^2 + t / 8 with a h^2 = 2 eps at h = 1e-5: J(+-h) - J(0) is
        # +-h / 8 plus a rounding's worth of curvature
        a = 2.0 * np.finfo(float).eps / optimal._FD_STEP**2
        calls = []

        def fake_cost(spec_, cost_, u, tol=1e-10):
            t = u.samples[..., first, 0]
            convex, concave, flat = (t[:, 0] - 1.0) ** 2, t[:, 1] - t[:, 1] ** 2, a * t[:, 2] ** 2
            J = 2.0 + convex + concave + (flat + t[:, 2] / 8)
            calls.append((t, J))
            return J

        monkeypatch.setattr(optimal, "eval_cost", fake_cost)
        minimize(spec, grid, QUAD, param, opts=MinimizeOptions(max_evals=8))
        assert [len(t) for t, _ in calls] == [7, 1]
        (J, *stencil), trial = calls[0][1], calls[1][0][0]
        up, down = np.reshape(stencil, (2, 3))
        h = optimal._FD_STEP
        g, d2 = (up - down) / (2.0 * h), up + down - 2.0 * J
        assert d2[0] > optimal._ROUNDING * J and d2[1] < 0.0 and 0.0 < d2[2] <= optimal._ROUNDING * J
        step = [1.0 / (d2[0] / h**2), optimal._FIRST_STEP, optimal._FIRST_STEP]
        np.testing.assert_array_equal(trial, -(np.array(step) * g))
        assert trial[0] == pytest.approx(1.0, abs=1e-4)

    def test_overflowing_curvature_starts_at_first_step(self, monkeypatch):
        # J = 1e308 t^2 + 1e303 t: at t = 0 the second difference 2e298 over
        # h^2 = 1e-10 overflows to c = inf, so the first trial step is
        # -_FIRST_STEP g = -5e302, clipped to the box, not -g / c = 0
        spec = load_problem(CONFIGS / "linear1d.json")
        grid = Grid(spec, 0.1)
        param = ControlParameterization.boxed(1, 1, 10.0)
        trials = []

        def fake_cost(spec_, cost_, u, tol=1e-10):
            t = u.samples[..., 0, 0]
            trials.append(t)
            return 1e308 * t**2 + 1e303 * t

        monkeypatch.setattr(optimal, "eval_cost", fake_cost)
        with np.errstate(over="ignore"):
            minimize(spec, grid, QUAD, param, opts=MinimizeOptions(max_evals=4))
        assert [len(t) for t in trials] == [3, 1] and trials[1][0] == -10.0

    def test_lq_minimum_pinned_bit_for_bit(self):
        # the optimize_lq_1d run from its seed-0 start (theta = 0), to the
        # last bit: a change to how its f = 0 solves stop must not move it
        spec, cost, grid, param, _ = self.lq_problem()
        result = minimize(spec, grid, cost, param)
        assert repr(result.J_opt) == "0.8799374606768835"
        assert [repr(float(v)) for v in result.theta_opt.ravel()] == [
            "-0.7929629009300925", "-0.6338060439213267", "-0.4891946662472657",
            "-0.36280061818834775", "-0.25455188982078625", "-0.16300529466797492",
            "-0.08750029154440617", "-0.025583044162616662",
        ]
        assert result.n_evals == 119

    def test_lq_solves_take_one_sweep_each(self, monkeypatch):
        # f = 0, so each solve's first Picard sweep is its fixed point: the
        # descent's 7 batched solves, the start and each accepted trial point
        # with its gradient, make 7 mild maps (14 if each solve ran a second
        # sweep to see the residual 0)
        spec, cost, grid, param, _ = self.lq_problem()
        calls = {"solve_mild": 0, "mild_map": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(optimal, "solve_mild", counted("solve_mild", optimal.solve_mild))
        monkeypatch.setattr(solver, "mild_map", counted("mild_map", solver.mild_map))
        result = minimize(spec, grid, cost, param)
        assert result.n_evals == 119
        assert calls == {"solve_mild": 7, "mild_map": 7}

    def test_batched_gradient_equals_serial_differences(self, monkeypatch):
        # the start and the 2P points of its gradient go through one batched
        # eval_cost call; its values, the gradient, the second differences
        # and so the first trial point theta - g / c must equal 1 + 2P
        # one-at-a-time evaluations bit for bit
        spec, cost, grid, param, _ = self.lq_problem()
        theta0 = np.random.default_rng(4).uniform(-0.5, 0.5, (8, 1))
        calls = []

        def recording(spec_, cost_, u, tol=1e-10):
            J = eval_cost(spec_, cost_, u, tol=tol)
            calls.append((u.samples.copy(), J))
            return J

        monkeypatch.setattr(optimal, "eval_cost", recording)
        minimize(spec, grid, cost, param, opts=MinimizeOptions(max_evals=18), theta0=theta0)
        monkeypatch.undo()
        assert [np.shape(J) for _, J in calls] == [(17,), (1,)]

        x = theta0.ravel()
        J = eval_cost(spec, cost, param.expand(grid, theta0))
        assert calls[0][1][0] == J
        hstep = optimal._FD_STEP * np.maximum(1.0, np.abs(x))
        g, c = np.empty(x.size), np.empty(x.size)
        for i in range(x.size):
            e = np.zeros(x.size)
            e[i] = hstep[i]
            up = eval_cost(spec, cost, param.expand(grid, (x + e).reshape(8, 1)))
            dn = eval_cost(spec, cost, param.expand(grid, (x - e).reshape(8, 1)))
            assert calls[0][1][1 + i] == up and calls[0][1][1 + x.size + i] == dn
            g[i] = (up - dn) / (2.0 * hstep[i])
            c[i] = (up + dn - 2.0 * J) / hstep[i] ** 2
        # every coordinate's curvature is measured, none takes _FIRST_STEP
        assert np.all(c > 1e3 * np.finfo(float).eps * J / hstep**2)
        trial = param.expand(grid, np.clip(x - 1.0 / c * g, -10.0, 10.0).reshape(8, 1))
        np.testing.assert_array_equal(calls[1][0], trial.samples[None])

    @staticmethod
    def two_mode_saturating():
        # delay, memory forcing and a nonlocal term, P = 2 in 2 modes
        f = NonlinearityDescriptor(
            f1_gain=0.5, f2_gain=0.5, kernel_rate=1.0,
            f1_form="saturating", f2_form="saturating",
            L1=0.5, L2=0.5, M1=1.0,
        )
        spec = make_spec(n=2, alpha=1.5, r=0.25, phi_coeffs=[1.0, -0.5], f=f,
                         nonlocal_terms=[NonlocalTerm(0.3, 0.5)])
        return spec, Grid(spec, 0.05), ControlParameterization.boxed(2, 2, 10.0)

    def test_gradient_stack_split_by_the_cell_cap(self, monkeypatch):
        # a stack of a point and its gradient runs in chunks of at most
        # _MAX_CELLS cells (paths x rows x N); a batch entry equals its solo
        # solve, so a cap of three paths moves no bit of the descent.  At 40
        # evaluations each trial point is solved alone; at 4000 the first one
        # takes its gradient along
        spec, grid, param = self.two_mode_saturating()
        for max_evals, first in [(40, [(3,)] * 3 + [(1,)]), (4000, [(3,)] * 6)]:
            opts = MinimizeOptions(max_evals=max_evals)
            whole = minimize(spec, grid, QUAD, param, opts=opts)
            sizes = []

            def recording(spec_, cost_, u, tol=1e-10):
                sizes.append(u.samples.shape[:-2])
                return eval_cost(spec_, cost_, u, tol=tol)

            with monkeypatch.context() as m:
                m.setattr(optimal, "eval_cost", recording)
                m.setattr(optimal, "_MAX_CELLS", 3 * len(grid) * 2)
                split = minimize(spec, grid, QUAD, param, opts=opts)
            assert sizes[: len(first)] == first
            assert split.J_opt == whole.J_opt
            np.testing.assert_array_equal(split.theta_opt, whole.theta_opt)
            assert split.history == whole.history and split.n_evals == whole.n_evals

    def test_batched_eval_cost_equals_single_calls(self):
        # delay, memory forcing and the history term of the cost all active
        f = NonlinearityDescriptor(
            f1_gain=0.5, f2_gain=0.5, kernel_rate=1.0,
            f1_form="saturating", f2_form="saturating",
            L1=0.5, L2=0.5, M1=1.0,
        )
        spec = make_spec(n=2, alpha=1.5, r=0.25, phi_coeffs=[1.0, -0.5], f=f)
        grid = Grid(spec, 0.01)
        samples = np.random.default_rng(6).standard_normal((4, grid.n_fwd + 1, 2))
        batch = eval_cost(spec, QUAD, ControlSignal(grid, samples))
        assert batch.shape == (4,)
        for i, u in enumerate(samples):
            assert batch[i] == eval_cost(spec, QUAD, ControlSignal(grid, u))

    @staticmethod
    def assert_box_stationary(spec, grid, cost, param, theta):
        # central differences at theta*: a free parameter has a vanishing
        # partial derivative; one sitting at a bound has -dJ/dtheta pointing
        # out of the box, so no admissible move decreases J to first order
        h = 1e-6
        for idx in np.ndindex(theta.shape):
            e = np.zeros_like(theta)
            e[idx] = h
            up = eval_cost(spec, cost, param.expand(grid, theta + e), tol=1e-13)
            dn = eval_cost(spec, cost, param.expand(grid, theta - e), tol=1e-13)
            g = (up - dn) / (2 * h)
            if theta[idx] == -param.bound:
                assert g > 0.0, (idx, g)
            elif theta[idx] == param.bound:
                assert g < 0.0, (idx, g)
            else:
                assert abs(g) <= 1e-4, (idx, g)

    def test_mixed_active_set_stationary(self):
        # the box cuts the two early intervals off at -0.3 and leaves the two
        # late ones free
        spec = make_spec(alpha=1.5, phi_coeffs=[1.0])
        grid = Grid(spec, 1.0 / 50.0)
        param = ControlParameterization.boxed(4, 1, 0.3)
        result = minimize(spec, grid, QUAD, param, opts=MinimizeOptions(max_evals=1500))
        theta = result.theta_opt
        assert result.converged
        assert np.count_nonzero(np.abs(theta) == 0.3) == 2
        assert np.count_nonzero(np.abs(theta) < 0.29) == 2
        self.assert_box_stationary(spec, grid, QUAD, param, theta)

    def test_saturating_memory_forcing_converges(self):
        # a non-affine control-to-state map: J is not a quadratic in theta
        f = NonlinearityDescriptor(
            f1_gain=0.5, f2_gain=0.5, kernel_rate=1.0,
            f1_form="saturating", f2_form="saturating",
            L1=0.5, L2=0.5, M1=1.0,
        )
        spec = make_spec(alpha=1.5, r=0.25, phi_coeffs=[1.0], f=f)
        grid = Grid(spec, 0.01)
        param = ControlParameterization.boxed(8, 1, 10.0)
        result = minimize(spec, grid, QUAD, param)
        assert result.converged
        assert np.all(np.diff(result.history) <= 0.0)
        self.assert_box_stationary(spec, grid, QUAD, param, result.theta_opt)

    def test_budget_exhaustion_flagged(self):
        spec = make_spec(phi_coeffs=[1.0])
        grid = Grid(spec, 1.0 / 20.0)
        param = ControlParameterization.boxed(2, 1, 5.0)
        result = minimize(spec, grid, QUAD, param, opts=MinimizeOptions(max_evals=6))
        assert not result.converged
        assert result.n_evals <= 6

    @staticmethod
    def probe():
        # linear1d at dt 0.1 with P = 2: its descent ends in a line search
        # whose first trial point is rejected
        spec = load_problem(CONFIGS / "linear1d.json")
        cost = load_cost(CONFIGS / "cost_quadratic.json")
        return spec, cost, Grid(spec, 0.1), ControlParameterization.boxed(2, 1, 10.0)

    # n_evals of the probe's descent at the budgets 6 to 63; only 60 and up
    # converge.  Up to 29 each accepted step takes 5 evaluations (its
    # trial point and its 4-point gradient), or stops at the budget that
    # cannot hold them; from 30 on the final line search has no room for
    # its first trial's stencil and halves one trial at a time
    PROBE_N_EVALS = (
        [6] * 4 + [10] + [11] * 4 + [15] + [16] * 4 + [20] + [21] * 4 + [25] + [26] * 4
        + list(range(30, 61)) + [60] * 3
    )

    def test_probe_descent_pinned_bit_for_bit(self):
        spec, cost, grid, param = self.probe()
        result = minimize(spec, grid, cost, param)
        assert result.converged
        assert repr(result.J_opt) == "0.8983186557171275"
        assert [repr(float(v)) for v in result.theta_opt.ravel()] == [
            "-0.59982483886625", "-0.15185264765178666",
        ]
        assert [repr(v) for v in result.history] == [
            "1.1553315014134207", "0.9031918416962655", "0.8983467623304401",
            "0.8983186898024531", "0.8983186557299975", "0.8983186557171275",
        ]
        # each step's first trial point is solved with its 4-point gradient;
        # the last step's is rejected, so its stencil adds 4 evaluations to
        # the 30 failing trials
        assert result.n_evals == 64

    def test_probe_converges_with_one_evaluation_to_spare(self):
        spec, cost, grid, param = self.probe()
        result = minimize(spec, grid, cost, param, opts=MinimizeOptions(max_evals=61))
        assert result.converged and result.n_evals == 60
        assert repr(result.J_opt) == "0.8983186557171275"

    def test_probe_at_every_budget(self):
        # the budget is never passed and the best J never rises; below 64
        # the run stops where the recorded one did
        spec, cost, grid, param = self.probe()
        for max_evals in range(6, 81):
            result = minimize(spec, grid, cost, param, opts=MinimizeOptions(max_evals=max_evals))
            assert result.n_evals <= max_evals
            assert np.all(np.diff(result.history) <= 0.0)
            if max_evals <= 63:
                want = (max_evals >= 60, self.PROBE_N_EVALS[max_evals - 6])
                assert (result.converged, result.n_evals) == want, max_evals

    @pytest.mark.parametrize("max_evals", [60, 64])
    def test_line_search_on_the_last_evaluation_is_stationary(self, max_evals):
        # the probe's last line search runs every halving and its last trial
        # spends the whole budget: stationary, as with one evaluation to spare
        spec, cost, grid, param = self.probe()
        runs = [minimize(spec, grid, cost, param, opts=MinimizeOptions(max_evals=m))
                for m in (max_evals, max_evals + 1)]
        assert [(r.converged, r.n_evals) for r in runs] == [(True, max_evals)] * 2
        assert repr(runs[0].J_opt) == repr(runs[1].J_opt) == "0.8983186557171275"

    @pytest.mark.parametrize("max_evals, J_opt, theta_opt, history, n_evals, converged", [
        pytest.param(40, "1.105831219936331",
                     ["-0.38645958846864037", "0.05164804162588064", "-0.12864126965075848",
                      "-0.01654237736990541"],
                     ["1.2112932817975184", "1.1072118008001197", "1.1058326357593833",
                      "1.1058312203584642", "1.105831219936331"], 37, False, id="budget40"),
        pytest.param(4000, "1.1058312199358231",
                     ["-0.3864603316755492", "0.05164748490913745", "-0.12864123883681247",
                      "-0.016542458318047404"],
                     ["1.2112932817975184", "1.1072118008001197", "1.1058326357593833",
                      "1.1058312203584642", "1.105831219936331", "1.1058312199358231"],
                     54, True, id="budget4000"),
    ])
    def test_two_mode_saturating_descent_pinned(self, max_evals, J_opt, theta_opt, history,
                                                n_evals, converged):
        spec, grid, param = self.two_mode_saturating()
        result = minimize(spec, grid, QUAD, param, opts=MinimizeOptions(max_evals=max_evals))
        assert repr(result.J_opt) == J_opt
        assert [repr(float(v)) for v in result.theta_opt.ravel()] == theta_opt
        assert [repr(v) for v in result.history] == history
        assert (result.n_evals, result.converged) == (n_evals, converged)


class TestCoercivity:
    def test_cost_grows_with_control_scale(self):
        spec = make_spec(phi_coeffs=[0.5])
        grid = Grid(spec, 1.0 / 50.0)
        base = ControlSignal(grid, np.ones((grid.n_fwd + 1, 1)))
        costs = [
            eval_cost(spec, QUAD, ControlSignal(grid, c * base.samples))
            for c in (1.0, 10.0, 100.0)
        ]
        assert costs[0] < costs[1] < costs[2]
        assert costs[2] > 50.0 * costs[1]  # quadratic tail


class TestConvexity:
    def test_equal_controls_give_equality(self):
        spec = make_spec(phi_coeffs=[1.0])
        grid = Grid(spec, 1.0 / 50.0)
        u = ControlSignal(grid, 0.7 * np.ones((grid.n_fwd + 1, 1)))
        lhs, rhs = midpoint_costs(spec, QUAD, u, u)
        assert lhs <= rhs + CONVEXITY_SLACK
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_pairs_linear_dynamics(self, seed):
        rng = np.random.default_rng(400 + seed)
        spec = make_spec(
            n=2, omega=1.0, r=0.25,
            impulses=[ImpulseDescriptor(0.5, -0.5)],
            nonlocal_terms=[NonlocalTerm(0.25, 0.5)],
            phi_coeffs=[1.0, -0.25],
            f=NonlinearityDescriptor(f1_gain=0.1, L1=0.1, holder_p=0.4),
        )
        grid = Grid(spec, 1.0 / 20.0)
        u1 = ControlSignal(grid, rng.standard_normal((grid.n_fwd + 1, 2)))
        u2 = ControlSignal(grid, rng.standard_normal((grid.n_fwd + 1, 2)))
        lhs, rhs = midpoint_costs(spec, QUAD, u1, u2)
        assert lhs <= rhs + CONVEXITY_SLACK

    def test_opposite_controls_zero_data(self):
        spec = make_spec(phi_coeffs=[0.0])
        grid = Grid(spec, 1.0 / 50.0)
        u = ControlSignal(grid, np.ones((grid.n_fwd + 1, 1)))
        neg = ControlSignal(grid, -u.samples)
        lhs, rhs = midpoint_costs(spec, QUAD, u, neg)
        assert lhs <= rhs + CONVEXITY_SLACK
        assert lhs == pytest.approx(0.0, abs=1e-12)
