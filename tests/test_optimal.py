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

    def test_lq_stops_without_a_failing_line_search(self):
        # at the minimizer the predicted decrease -g.d is below the acceptance
        # margin, so the descent stops there instead of halving a step 30
        # times: the start and 8 accepted steps, each point with its
        # 16-point gradient, 9 x 17 evaluations
        spec, cost, grid, param, j_min = self.lq_problem()
        result = minimize(spec, grid, cost, param)
        assert result.converged
        assert abs(result.J_opt - j_min) / j_min <= 1e-9
        assert result.n_evals <= 160

    def test_lq_minimum_pinned_bit_for_bit(self):
        # the optimize_lq_1d run from its seed-0 start (theta = 0), to the
        # last bit: a change to how its f = 0 solves stop must not move it
        spec, cost, grid, param, _ = self.lq_problem()
        result = minimize(spec, grid, cost, param)
        assert repr(result.J_opt) == "0.8799374606768834"
        assert [repr(float(v)) for v in result.theta_opt.ravel()] == [
            "-0.7929628927671832", "-0.6338060298296778", "-0.48919467996881466",
            "-0.36280063489841746", "-0.2545518885386672", "-0.16300528361242556",
            "-0.0875002938498073", "-0.025583046451635737",
        ]
        assert result.n_evals == 153

    def test_lq_solves_take_one_sweep_each(self, monkeypatch):
        # f = 0, so each solve's first Picard sweep is its fixed point: the
        # descent's 9 batched solves, the start and each accepted trial point
        # with its gradient, make 9 mild maps (18 when each solve ran a
        # second sweep to see the residual 0)
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
        assert result.n_evals == 153
        assert calls == {"solve_mild": 9, "mild_map": 9}

    def test_batched_gradient_equals_serial_differences(self, monkeypatch):
        # the start and the 2P points of its gradient go through one batched
        # eval_cost call; its values, the gradient and so the first trial
        # point theta - step g must equal 1 + 2P one-at-a-time evaluations
        # bit for bit
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
        assert calls[0][1][0] == eval_cost(spec, cost, param.expand(grid, theta0))
        hstep = optimal._FD_STEP * np.maximum(1.0, np.abs(x))
        g = np.empty(x.size)
        for i in range(x.size):
            e = np.zeros(x.size)
            e[i] = hstep[i]
            up = eval_cost(spec, cost, param.expand(grid, (x + e).reshape(8, 1)))
            dn = eval_cost(spec, cost, param.expand(grid, (x - e).reshape(8, 1)))
            assert calls[0][1][1 + i] == up and calls[0][1][1 + x.size + i] == dn
            g[i] = (up - dn) / (2.0 * hstep[i])
        trial = param.expand(grid, np.clip(x - optimal._FIRST_STEP * g, -10.0, 10.0).reshape(8, 1))
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
        # linear1d at dt 0.1 with P = 4: its descent ends in a line search
        # whose first trial point is rejected
        spec = load_problem(CONFIGS / "linear1d.json")
        cost = load_cost(CONFIGS / "cost_quadratic.json")
        return spec, cost, Grid(spec, 0.1), ControlParameterization.boxed(4, 1, 10.0)

    # n_evals of the probe's descent at the budgets 10 to 127, recorded when
    # every trial point was solved alone; only 120 and up converge
    PROBE_N_EVALS = (
        [10] * 8 + [18] + [19] * 8 + [27] + [28] * 8 + [36] + [37] * 8 + [45] + [46] * 8
        + [54] + [55] * 8 + [63] + [64] * 8 + [72] + [73] * 8 + [81] + [82] * 8
        + list(range(90, 121)) + [120] * 7
    )

    def test_probe_descent_pinned_bit_for_bit(self):
        spec, cost, grid, param = self.probe()
        result = minimize(spec, grid, cost, param)
        assert result.converged
        assert repr(result.J_opt) == "0.8869514951257463"
        assert [repr(float(v)) for v in result.theta_opt.ravel()] == [
            "-0.7050065707730024", "-0.4516541228369858", "-0.2281704694816917",
            "-0.05729915356759806",
        ]
        assert [repr(v) for v in result.history] == [
            "1.1553315014134207", "0.9966581369951703", "0.8871939335260705",
            "0.8869782816377038", "0.8869523632671756", "0.8869515455968229",
            "0.8869514952146813", "0.8869514951267593", "0.8869514951258015",
            "0.8869514951257463",
        ]
        # each step's first trial point is solved with its 8-point gradient;
        # the last step's is rejected, so its stencil adds 8 evaluations to
        # the 30 failing trials
        assert result.n_evals == 128

    def test_probe_converges_in_a_budget_of_121(self):
        spec, cost, grid, param = self.probe()
        result = minimize(spec, grid, cost, param, opts=MinimizeOptions(max_evals=121))
        assert result.converged and result.n_evals == 120
        assert repr(result.J_opt) == "0.8869514951257463"

    def test_probe_at_every_budget(self):
        # the budget is never passed and the best J never rises; below 128
        # the run stops where the recorded one did
        spec, cost, grid, param = self.probe()
        for max_evals in range(10, 141):
            result = minimize(spec, grid, cost, param, opts=MinimizeOptions(max_evals=max_evals))
            assert result.n_evals <= max_evals
            assert np.all(np.diff(result.history) <= 0.0)
            if max_evals <= 127:
                want = (max_evals >= 120, self.PROBE_N_EVALS[max_evals - 10])
                assert (result.converged, result.n_evals) == want, max_evals

    @pytest.mark.parametrize("max_evals", [120, 128])
    def test_line_search_on_the_last_evaluation_is_stationary(self, max_evals):
        # the probe's last line search runs every halving and its last trial
        # spends the whole budget: stationary, as with one evaluation to spare
        spec, cost, grid, param = self.probe()
        runs = [minimize(spec, grid, cost, param, opts=MinimizeOptions(max_evals=m))
                for m in (max_evals, max_evals + 1)]
        assert [(r.converged, r.n_evals) for r in runs] == [(True, max_evals)] * 2
        assert repr(runs[0].J_opt) == repr(runs[1].J_opt) == "0.8869514951257463"

    @pytest.mark.parametrize("max_evals, J_opt, theta_opt, history, n_evals, converged", [
        (40, "1.1058312288292904",
         ["-0.38650226266422505", "0.051584554250305684", "-0.12873388399950322",
          "-0.01651516466215253"],
         ["1.2112932817975184", "1.1189994717694312", "1.1058999896095973",
          "1.1058320402331712", "1.1058312288292904"], 37, False),
        (4000, "1.105831219935823",
         ["-0.3864603486989935", "0.05164749573402724", "-0.12864121804593914",
          "-0.016542468495499847"],
         ["1.2112932817975184", "1.1189994717694312", "1.1058999896095973",
          "1.1058320402331712", "1.1058312288292904", "1.1058312199513678",
          "1.1058312199360811", "1.1058312199358242", "1.105831219935823"], 81, True),
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
