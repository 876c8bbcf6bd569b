"""Controllability tests: Grammian structure against refined quadrature, the
steering residual in closed form, the regularized law, the 1-D discrete
steering identity, sweeps, scaling, and degenerate input maps."""

import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracsteer.config import load_problem
from fracsteer.control import (
    PICARD_TOL,
    _free_path,
    epsilon_sweep,
    grammian,
    steer,
    synthesize_control,
)
from fracsteer.errors import ConfigError, ConvergenceError, EvaluationError
from fracsteer.mittag import mittag_leffler
from fracsteer.model import (
    ImpulseDescriptor,
    NonlinearityDescriptor,
    NonlocalTerm,
)
from fracsteer.solver import ControlSignal, Grid, _convolve_all, mild_map, solve_mild

from oracles import _kernel_by_hand, refined_grammian_1d, residual_p
from specs import flagship_spec, make_spec

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestGrammian:
    def test_scalar_refined_oracle(self):
        spec = make_spec(alpha=1.5)  # lambda = -1, B = 1, T = 1
        grid = Grid(spec, 1.0 / 100.0)
        got = grammian(spec, grid)[0, 0]
        want = refined_grammian_1d(1.5, -1.0, 1.0, n=4000)
        assert got == pytest.approx(want, abs=2e-5)

    def test_zero_input_map(self):
        spec = make_spec(n=2, B=np.zeros((2, 2)))
        grid = Grid(spec, 0.125)
        np.testing.assert_array_equal(grammian(spec, grid), np.zeros((2, 2)))

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(2)
        B = rng.standard_normal((3, 3))
        spec = make_spec(n=3, omega=1.0, B=B)
        grid = Grid(spec, 0.05)
        G = grammian(spec, grid)
        np.testing.assert_array_equal(G, G.T)
        assert np.linalg.eigvalsh(G).min() >= -1e-10

    def test_positive_definite_for_identity_input(self):
        spec = make_spec(n=4, omega=1.0)
        grid = Grid(spec, 0.05)
        assert np.linalg.eigvalsh(grammian(spec, grid)).min() > 0.0

    @pytest.mark.parametrize("dense", [False, True], ids=["flagship_B", "dense_B"])
    def test_flagship_entries_match_a_sum_by_hand(self, dense):
        # Gamma_ij = sum_m w_m D_i(T - t_m) (B B^T)_ij D_j(T - t_m), one entry
        # at a time, with the flagship's B and with a fixed dense B
        spec, _ = flagship_problem()
        if dense:
            spec = dataclasses.replace(spec, B=np.random.default_rng(11).standard_normal((16, 16)))
        h = 1.0 / 40.0
        grid = Grid(spec, h)
        n = grid.n_fwd
        D = _kernel_by_hand(spec.alpha, spec.omega, 16, h, n)
        w = [0.5 * h if m in (0, n) else h for m in range(n + 1)]
        B = spec.B.tolist()
        want = np.empty((16, 16))
        for i in range(16):
            for j in range(16):
                bb = sum(B[i][k] * B[j][k] for k in range(16))
                want[i, j] = sum(w[m] * D[n - m][i] * bb * D[n - m][j] for m in range(n + 1))
        np.testing.assert_allclose(grammian(spec, grid), want, rtol=1e-13, atol=0)

    def test_convolution_of_the_law_at_T_is_gamma_c(self):
        # the solver's trapezoid convolution of B u, u(t_m) = B^T D(T - t_m) c,
        # read at T is Gamma c: the Grammian and the solver share one rule,
        # here on a grid with an impulse and a nonlocal term
        spec, _ = flagship_problem()
        grid = Grid(spec, 1.0 / 200.0)
        c = np.random.default_rng(5).standard_normal(16)
        bu = (grid.kernel_table[::-1] * c) @ spec.B @ spec.B.T
        got = _convolve_all(grid, bu)[-1]
        want = grammian(spec, grid) @ c
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_resolvent_identity(self):
        spec = make_spec(n=3, omega=1.0)
        grid = Grid(spec, 0.05)
        G = grammian(spec, grid)
        for eps in (1e-1, 1e-3, 1e-5):
            A = G + eps * np.eye(3)
            np.testing.assert_allclose(np.linalg.solve(A, A), np.eye(3), atol=1e-10)


class TestResidual:
    def test_zero_terms_returns_target(self):
        spec = make_spec(phi_coeffs=[0.0])
        grid = Grid(spec, 0.125)
        traj = solve_mild(spec, ControlSignal.zeros(grid), tol=1e-12)
        h = np.array([1.0])
        np.testing.assert_allclose(residual_p(spec, grid.h, traj.values, h), h, atol=1e-14)

    def test_free_endpoint_gives_zero(self):
        spec = make_spec()
        grid = Grid(spec, 0.125)
        traj = solve_mild(spec, ControlSignal.zeros(grid), tol=1e-13)
        h = traj.terminal()
        assert np.linalg.norm(residual_p(spec, grid.h, traj.values, h)) <= 1e-12

    def test_one_impulse_closed_form(self):
        # f = 0, g = 0, one flip impulse, h = 0:
        # p = -E(-T^a) phi0 - E(-(T-t1)^a) I(x(t1^-))
        alpha, t1 = 1.5, 0.5
        spec = make_spec(alpha=alpha, impulses=[ImpulseDescriptor(t1, -1.0)])
        grid = Grid(spec, 1.0 / 200.0)
        traj = solve_mild(spec, ControlSignal.zeros(grid), tol=1e-13)
        p = residual_p(spec, grid.h, traj.values, np.zeros(1))[0]
        e_T = mittag_leffler(alpha, 1.0, -1.0)
        e_t1 = mittag_leffler(alpha, 1.0, -(t1**alpha))
        e_gap = mittag_leffler(alpha, 1.0, -((1.0 - t1) ** alpha))
        want = -e_T - e_gap * (-e_t1)
        assert p == pytest.approx(want, abs=1e-10)


class TestSynthesize:
    @staticmethod
    def coefficients(spec, grid, traj, h, eps):
        """(eps I + Gamma)^{-1} p(x), p by the oracle."""
        p = residual_p(spec, grid.h, traj.values, h)
        return np.linalg.solve(grammian(spec, grid) + eps * np.eye(spec.n_modes), p)

    def test_zero_residual_gives_zero_control(self):
        spec = make_spec()
        grid = Grid(spec, 0.125)
        traj = solve_mild(spec, ControlSignal.zeros(grid), tol=1e-13)
        u = synthesize_control(grid, self.coefficients(spec, grid, traj, traj.terminal(), 1e-3))
        assert np.max(np.abs(u.samples)) <= 1e-11

    def test_scalar_closed_form(self):
        # u(t) = E(-(T-t)^a) p / (eps + Gamma)
        spec = make_spec()
        grid = Grid(spec, 1.0 / 50.0)
        traj = solve_mild(spec, ControlSignal.zeros(grid), tol=1e-13)
        h = np.array([2.0])
        eps = 1e-2
        u = synthesize_control(grid, self.coefficients(spec, grid, traj, h, eps))
        G = grammian(spec, grid)[0, 0]
        p = residual_p(spec, grid.h, traj.values, h)[0]
        ts = grid.times[grid.n_hist :]
        want = np.array(
            [mittag_leffler(1.5, 1.0, -((1.0 - t) ** 1.5)) for t in ts]
        ) * p / (eps + G)
        np.testing.assert_allclose(u.samples[:, 0], want, atol=1e-12)

    def test_zero_input_map_gives_zero_control(self):
        spec = make_spec(n=2, B=np.zeros((2, 2)))
        grid = Grid(spec, 0.125)
        traj = solve_mild(spec, ControlSignal.zeros(grid), tol=1e-12)
        u = synthesize_control(grid, self.coefficients(spec, grid, traj, np.ones(2), 1e-2))
        np.testing.assert_array_equal(u.samples, np.zeros_like(u.samples))


class TestSteer:
    def test_scalar_identity_across_eps(self):
        # discrete-exact: terminal error = eps/(eps+Gamma) |p|
        spec = make_spec(alpha=1.5)
        grid = Grid(spec, 1.0 / 100.0)
        h = np.array([2.0])
        G = grammian(spec, grid)[0, 0]
        free = solve_mild(spec, ControlSignal.zeros(grid), tol=1e-13)
        p = abs(residual_p(spec, grid.h, free.values, h)[0])
        for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
            report, traj, u = steer(spec, grid, h, eps, tol=1e-10, picard_tol=1e-13)
            want = eps / (eps + G) * p
            assert report.terminal_error == pytest.approx(want, rel=1e-6)

    def test_free_endpoint_target(self):
        spec = make_spec()
        grid = Grid(spec, 1.0 / 50.0)
        free = solve_mild(spec, ControlSignal.zeros(grid), tol=1e-13)
        report, traj, u = steer(spec, grid, free.terminal(), eps=1e-3, tol=1e-9)
        assert report.terminal_error <= 1e-9
        assert np.max(np.abs(u.samples)) <= 1e-9

    def test_linear_scaling_in_target(self):
        # homogeneous initial data: u and the terminal error scale with |c|
        spec = make_spec(phi_coeffs=[0.0])
        grid = Grid(spec, 1.0 / 50.0)
        h = np.array([1.0])
        c = -3.7
        r1, _, u1 = steer(spec, grid, h, eps=1e-3, tol=1e-11, picard_tol=1e-13)
        r2, _, u2 = steer(spec, grid, c * h, eps=1e-3, tol=1e-11, picard_tol=1e-13)
        assert r2.terminal_error == pytest.approx(abs(c) * r1.terminal_error, rel=1e-8)
        np.testing.assert_allclose(u2.samples, c * u1.samples, atol=1e-8)

    def test_report_fields(self):
        spec = make_spec()
        grid = Grid(spec, 0.125)
        report, traj, u = steer(spec, grid, np.array([0.5]), eps=1e-2)
        assert report.eps == 1e-2
        assert report.control_energy >= 0.0
        assert report.outer_iters >= 1
        assert report.converged
        assert len(report.inner_residuals) == report.outer_iters + 1


class TestSweep:
    def test_errors_decrease_linear_full_rank(self):
        spec = make_spec(alpha=1.5)
        grid = Grid(spec, 1.0 / 100.0)
        h = np.array([2.0])
        result = epsilon_sweep(spec, grid, h, [1e-1, 1e-2, 1e-3, 1e-4])
        errs = [e.report.terminal_error for e in result.entries]
        assert result.errors_non_increasing
        assert all(b < a for a, b in zip(errs, errs[1:]))  # strict, linear case
        # once eps << Gamma, errors scale ~ eps: ratio approaches 10x
        assert errs[2] / errs[3] == pytest.approx(10.0, rel=0.05)

    def test_free_endpoint_all_small(self):
        spec = make_spec()
        grid = Grid(spec, 1.0 / 50.0)
        free = solve_mild(spec, ControlSignal.zeros(grid), tol=1e-13)
        result = epsilon_sweep(spec, grid, free.terminal(), [1e-1, 1e-2], tol=1e-9)
        assert all(e.report.terminal_error <= 1e-9 for e in result.entries)

    def test_degenerate_input_map_errors_constant(self):
        spec = make_spec(n=1, B=np.zeros((1, 1)), phi_coeffs=[1.0])
        grid = Grid(spec, 1.0 / 50.0)
        h = np.array([0.5])
        free = solve_mild(spec, ControlSignal.zeros(grid), tol=1e-13)
        p_norm = np.linalg.norm(residual_p(spec, grid.h, free.values, h))
        result = epsilon_sweep(spec, grid, h, [1e-1, 1e-2, 1e-3])
        for entry in result.entries:
            assert entry.report.terminal_error == pytest.approx(p_norm, rel=1e-10)

    def test_eps_list_must_decrease(self):
        spec = make_spec()
        grid = Grid(spec, 0.125)
        with pytest.raises(ConfigError):
            epsilon_sweep(spec, grid, np.array([1.0]), [1e-2, 1e-1])

    # steer's argument checks run on every eps before the shared u = 0 solve
    @pytest.mark.parametrize("eps_list, kwargs, message", [
        ([0.1, -1.0], {}, "eps must be finite and > 0 and tol > 0, got eps=-1.0, tol=1e-08"),
        ([0.1, math.nan], {}, "eps must be finite and > 0 and tol > 0, got eps=nan, tol=1e-08"),
        ([math.inf], {}, "eps must be finite and > 0 and tol > 0, got eps=inf, tol=1e-08"),
        ([0.1], {"tol": 0.0}, "eps must be finite and > 0 and tol > 0, got eps=0.1, tol=0.0"),
        ([0.1], {"max_outer": 0}, "max_outer must be >= 1, got 0"),
    ])
    def test_arguments_refused_before_any_solve(self, monkeypatch, eps_list, kwargs, message):
        import fracsteer.control as control

        calls = []
        solve = control.solve_mild
        monkeypatch.setattr(control, "solve_mild", lambda *a, **k: calls.append(1) or solve(*a, **k))
        spec = make_spec()
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            epsilon_sweep(spec, Grid(spec, 0.125), np.array([1.0]), eps_list, **kwargs)
        assert calls == []

    def test_failure_recorded_sweep_continues(self):
        # f = 12 x on dt = 0.25 defeats the Picard iteration (a gain of 1.5
        # per sweep at each node): every entry must record the failure and
        # the sweep itself must not raise
        f = NonlinearityDescriptor(f1_gain=12.0, L1=12.0)
        spec = make_spec(n=1, f=f)
        grid = Grid(spec, 0.25)
        result = epsilon_sweep(spec, grid, np.array([0.5]), [1e-1, 1e-2])
        assert all(e.report is None and "Picard iteration" in e.error for e in result.entries)

    def test_undetermined_start_recorded_per_entry(self):
        # x(0) = phi(0) + x(0) has no answer: each entry records the
        # one-line error, and the sweep itself does not raise
        spec = make_spec(n=1, nonlocal_terms=[NonlocalTerm(-1.0, 0.0)])
        grid = Grid(spec, 0.25)
        result = epsilon_sweep(spec, grid, np.array([0.5]), [1e-1, 1e-2])
        for entry in result.entries:
            assert entry.report is None
            assert entry.error.startswith("nonlocal condition leaves x(0) undetermined in mode 1")
            assert "\n" not in entry.error


class TestGoldenFlagship:
    def test_steer_report_matches_archive(self):
        import json
        from pathlib import Path

        golden = json.loads(
            (Path(__file__).parent / "golden" / "flagship.json").read_text()
        )
        spec = flagship_spec()
        h = np.zeros(16)
        h[:4] = [0.3, -0.2, 0.1, 0.05]
        grid = Grid(spec, 1.0 / 200.0)
        report, _, _ = steer(spec, grid, h, eps=1e-2, tol=1e-8)
        want = golden["steer_eps_1e-2"]["200"]
        assert report.terminal_error == pytest.approx(want["terminal_error"], rel=1e-9)
        assert report.control_energy == pytest.approx(want["control_energy"], rel=1e-9)
        assert report.outer_iters == want["outer_iters"]

    def test_inner_solves_start_from_last_iterate(self):
        # each inner solve after the second starts from the last outer
        # iterate extrapolated along the last outer step and, but for the
        # last, stops at 1e-3 times the control change it solves for; the
        # u = 0 solve stops at 1e-3 times the residual it seeds.  A sweep
        # solves x(0), the impulse jumps and the history rows, so only f is
        # iterated.  The 12 solves take at most 22 Picard sweeps (22
        # measured; 24 when the history rows lagged one sweep, 32 when x(0)
        # and the jumps did too, 43 with the u = 0 solve also run to
        # picard_tol, 72 when each solve started from the last iterate
        # itself, 129 when every solve also ran to picard_tol, 204 when each
        # started from phi), in the same 11 outer iterations
        spec, h = flagship_problem()
        report, _, _ = steer(spec, Grid(spec, 1.0 / 200.0), h, eps=1e-2, tol=1e-8)
        assert report.outer_iters == 11
        assert len(report.inner_residuals) == 12
        assert sum(map(len, report.inner_residuals)) <= 22

    def test_steer_reads_p_off_the_last_sweep(self, monkeypatch):
        # p is read off each inner solve's last sweep and (eps I + Gamma) is
        # factored once, so a flagship steer at 1/200 evaluates f once per
        # Picard sweep: at most 22 eval_f calls (22 measured; 24 when the
        # history rows lagged one sweep, 32 when x(0) and the jumps did too,
        # 43 with the u = 0 solve also run to picard_tol, 53 with one more
        # mild map per outer iteration for p) and one cho_factor call
        import fracsteer.control as control
        import fracsteer.solver as solver

        calls = {"eval_f": 0, "cho_factor": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(solver, "eval_f", counted("eval_f", solver.eval_f))
        monkeypatch.setattr(control, "cho_factor", counted("cho_factor", control.cho_factor))
        spec, h = flagship_problem()
        report, _, _ = steer(spec, Grid(spec, 1.0 / 200.0), h, eps=1e-2, tol=1e-8)
        assert report.outer_iters == 11
        assert calls["eval_f"] <= 22
        assert calls["cho_factor"] == 1

        # a 3-eps sweep: at most 58 (58 measured; 64 when the history rows
        # lagged one sweep, 83 when x(0) and the jumps did too, 94 with the
        # u = 0 solve also run to picard_tol, 126 before p came off the last
        # sweep)
        calls.update(eval_f=0, cho_factor=0)
        epsilon_sweep(spec, Grid(spec, 1.0 / 200.0), h, [1e-1, 1e-2, 1e-3], tol=1e-8)
        assert calls["eval_f"] <= 58
        assert calls["cho_factor"] == 3

    def test_failed_factorization_raises_once_per_steer(self, monkeypatch):
        import fracsteer.control as control

        calls = []

        def refuse(a):
            calls.append(1)
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(control, "cho_factor", refuse)
        spec = make_spec()
        grid = Grid(spec, 0.125)
        with pytest.raises(EvaluationError) as info:
            steer(spec, grid, np.array([0.5]), eps=1e-2)
        assert info.value.regime == "cholesky"
        assert len(calls) == 1
        result = epsilon_sweep(spec, grid, np.array([0.5]), [1e-1, 1e-2])
        assert all(e.report is None and "regime=cholesky" in e.error for e in result.entries)
        assert len(calls) == 3

    def test_sweep_solves_uncontrolled_problem_once(self, monkeypatch):
        # the u = 0 solve does not depend on eps: a 3-eps sweep makes it
        # once, then one solve per outer iteration of each entry.  Every
        # entry's first residual list is that shared solve; counted once,
        # the sweep takes at most 58 Picard sweeps (58 measured; 64 when the
        # history rows lagged one sweep, 83 when x(0) and the jumps did too,
        # 94 with the u = 0 solve also run to picard_tol, 180 when each inner
        # solve started from the last iterate itself)
        import fracsteer.control as control

        calls = []
        solve = control.solve_mild
        monkeypatch.setattr(control, "solve_mild", lambda *a, **k: calls.append(1) or solve(*a, **k))
        spec, h = flagship_problem()
        result = epsilon_sweep(spec, Grid(spec, 1.0 / 200.0), h, [1e-1, 1e-2, 1e-3], tol=1e-8)
        outer = [e.report.outer_iters for e in result.entries]
        assert outer == [10, 11, 12]
        assert len(calls) == 1 + sum(outer) == 34
        lists = [r for e in result.entries for r in e.report.inner_residuals[1:]]
        assert len(result.entries[0].report.inner_residuals[0]) + sum(map(len, lists)) <= 58

    def test_u0_solve_stops_at_a_thousandth_of_the_residual_it_seeds(self):
        # the u = 0 path only seeds p = h - x(T), so its Picard sweeps stop
        # at the first residual <= max(picard_tol, 1e-3 |h - x(T)|): 3 on
        # the flagship (7 to picard_tol, 8 when the history rows lagged one
        # sweep; 6 and 17 when x(0) and the jumps did too).  With the free
        # endpoint as target that bound is picard_tol
        spec, h = flagship_problem()
        grid = Grid(spec, 1.0 / 200.0)
        report, _, _ = steer(spec, grid, h, eps=1e-2, tol=1e-8)
        free = _free_path(spec, grid, h, PICARD_TOL)
        first = report.inner_residuals[0]
        assert first == free.residuals and len(first) == 3
        bound = 1e-3 * np.linalg.norm(h - free.terminal())
        assert first[-1] <= bound < first[-2]

        exact = solve_mild(spec, ControlSignal.zeros(grid), tol=1e-13).terminal()
        report, _, _ = steer(spec, grid, exact, eps=1e-2, tol=1e-8)
        assert report.inner_residuals[0][-1] <= PICARD_TOL


class TestInnerSolveSemantics:
    def test_returned_trajectory_is_picard_fixed_point(self):
        # the last inner solve runs to picard_tol, so one more mild-map sweep
        # under the returned control moves the returned path by at most
        # picard_tol in the solver's residual norm
        spec, h = flagship_problem()
        grid = Grid(spec, 1.0 / 200.0)
        for eps, tol, picard_tol in ((1e-2, 1e-8, 1e-11), (1e-5, 1e-6, 1e-12)):
            report, traj, u = steer(spec, grid, h, eps, tol=tol, picard_tol=picard_tol)
            step = mild_map(grid, traj.values, u.samples @ spec.B.T) - traj.values
            assert np.max(np.linalg.norm(step, axis=-1)) <= picard_tol
            assert len(report.inner_residuals) == report.outer_iters + 1

    @pytest.mark.parametrize("case", ["flagship", "linear1d"])
    def test_returned_control_is_the_law_at_the_returned_trajectory(self, case):
        # the outer fixed point: u = B^T D(T - t) (eps I + Gamma)^{-1} p(x)
        # to tol in sup norm, with p(x) taken by the oracle at the returned
        # trajectory x, however steer computes p along the way
        if case == "flagship":
            spec, h = flagship_problem()
        else:
            spec, h = load_problem(CONFIGS / "linear1d.json"), np.array([2.0])
        grid = Grid(spec, 1.0 / 100.0)
        eps, tol = 1e-2, 1e-8
        _, traj, u = steer(spec, grid, h, eps, tol=tol)
        p = residual_p(spec, grid.h, traj.values, h)
        c = np.linalg.solve(grammian(spec, grid) + eps * np.eye(spec.n_modes), p)
        want = ControlSignal(grid, (grid.kernel_table[::-1] * c) @ spec.B)
        assert np.max(np.linalg.norm(u.samples - want.samples, axis=1)) <= tol

    @pytest.mark.parametrize("f1_form", ["linear", "saturating"])
    def test_outer_budget_failure_keeps_finite_last_iterate(self, f1_form):
        # memory gains of 3 at eps 1e-4: with a linear f1 the outer control
        # change grows each iteration, with a saturating one it shrinks too
        # slowly; either way the loop spends max_outer iterations and raises
        # with a finite last trajectory, not a Picard failure on a NaN
        f = NonlinearityDescriptor(
            f1_gain=3.0, f2_gain=3.0, kernel_rate=1.0,
            f1_form=f1_form, f2_form="linear",
            L1=3.0, L2=3.0, M1=0.1, holder_p=0.4,
        )
        spec = make_spec(n=2, omega=1.0, r=0.25, f=f)
        grid = Grid(spec, 0.125)
        with pytest.raises(ConvergenceError) as info:
            steer(spec, grid, np.array([0.3, -0.2]), eps=1e-4, max_outer=30)
        exc = info.value
        assert str(exc).startswith("outer steering loop did not converge in 30 iterations")
        assert len(exc.residuals) == 30
        traj, u = exc.last_iterate
        assert np.isfinite(traj.values).all() and np.isfinite(u.samples).all()

    @pytest.mark.parametrize("target", ["origin", "free", "free+1e-3", "free+1e-6"])
    def test_u0_solve_tolerance_does_not_move_the_steer(self, target):
        # the outer loop contracts from any start, so the u = 0 path only
        # seeds the first residual: a steer gives the same outer count and,
        # within 1e-12, the same terminal error as one handed the u = 0
        # path solved to 1e-13, including at targets on or near the free
        # endpoint, where that seed is all the control has to correct
        spec, _ = flagship_problem()
        grid = Grid(spec, 1.0 / 200.0)
        free = solve_mild(spec, ControlSignal.zeros(grid), tol=1e-13)
        shift = np.linspace(-1.0, 1.0, spec.n_modes)
        shift /= np.linalg.norm(shift)
        h = {"origin": np.zeros(spec.n_modes), "free": free.terminal(),
             "free+1e-3": free.terminal() + 1e-3 * shift,
             "free+1e-6": free.terminal() + 1e-6 * shift}[target]
        for eps in (1e-1, 1e-3, 1e-5):
            report, _, _ = steer(spec, grid, h, eps, tol=1e-8)
            exact, _, _ = steer(spec, grid, h, eps, tol=1e-8, free=free)
            assert report.outer_iters == exact.outer_iters
            assert report.terminal_error == pytest.approx(exact.terminal_error, rel=0, abs=1e-12)

    def test_sweep_entry_equals_solo_steer(self):
        spec, h = flagship_problem()
        grid = Grid(spec, 1.0 / 200.0)
        result = epsilon_sweep(spec, grid, h, [1e-1, 1e-2], tol=1e-8)
        for entry in result.entries:
            solo, _, _ = steer(spec, grid, h, entry.eps, tol=1e-8)
            assert entry.report.terminal_error == solo.terminal_error
            assert entry.report.control_energy == solo.control_energy
            assert entry.report.outer_iters == solo.outer_iters
            assert entry.report.inner_residuals == solo.inner_residuals


def flagship_problem():
    """The flagship problem of the acceptance tests and its target."""
    h = np.zeros(16)
    h[:4] = [0.3, -0.2, 0.1, 0.05]
    return flagship_spec(), h


def flagship_sweep_reprs() -> str:
    """repr of the terminal errors and control energies of the 3-eps
    flagship sweep at dt = 1/200."""
    spec, h = flagship_problem()
    result = epsilon_sweep(spec, Grid(spec, 1.0 / 200.0), h, [1e-1, 1e-2, 1e-3], tol=1e-8)
    return repr([(e.report.terminal_error, e.report.control_energy) for e in result.entries])


def test_sweep_bits_independent_of_blas_threads():
    # the memory window is summed by BLAS matrix-vector products; the sweep
    # must give the same bits on one BLAS thread as at the default count
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    probe = "import test_control; print(test_control.flagship_sweep_reprs())"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == flagship_sweep_reprs()



class TestFlagshipBits:
    # The sweep tests above compare the tree only with itself; these pin
    # the flagship's bits (eps 1e-2, tol 1e-8), so a rewrite of the Picard
    # sweep that moves one fails here
    @pytest.mark.parametrize("steps, error, energy", [
        (200, "0.01886425498272974", "1.1276800920509062"),
        (400, "0.018864424546213284", "1.1277013332188868"),
    ])
    def test_steer(self, steps, error, energy):
        spec, h = flagship_problem()
        report, _, _ = steer(spec, Grid(spec, 1.0 / steps), h, 1e-2, tol=1e-8)
        assert (repr(report.terminal_error), repr(report.control_energy)) == (error, energy)
        sweeps = [len(r) for r in report.inner_residuals]
        assert sweeps == [3, 3, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1]

    def test_sweep_terminal_errors(self):
        spec, h = flagship_problem()
        result = epsilon_sweep(spec, Grid(spec, 1.0 / 200.0), h, [1e-1, 1e-2, 1e-3], tol=1e-8)
        assert repr([e.report.terminal_error for e in result.entries]) == (
            "[0.14055850817168142, 0.01886425498272974, 0.001958626857919529]")


class TestCrossInstanceMisuse:
    def test_foreign_spec_rejected_not_crashed(self):
        from fracsteer.errors import DomainError

        spec_a = make_spec()
        spec_b = make_spec()  # equal parameters, distinct instance
        grid_b = Grid(spec_b, 0.25)
        u = ControlSignal.zeros(grid_b)
        with pytest.raises(DomainError):
            solve_mild(spec_a, u)


class TestNonlinearSteer:
    def test_small_nonlinearity_steers(self):
        f = NonlinearityDescriptor(
            f1_gain=0.05, f2_gain=0.05, kernel_rate=1.0,
            f1_form="saturating", f2_form="saturating",
            L1=0.05, L2=0.05, M1=0.1, holder_p=0.4,
        )
        spec = make_spec(
            n=2, omega=1.0, r=0.25,
            impulses=[ImpulseDescriptor(0.5, -1.0)],
            nonlocal_terms=[NonlocalTerm(0.25, 0.3)],
            phi_coeffs=[1.0, 0.5], f=f,
        )
        grid = Grid(spec, 1.0 / 100.0)
        h = np.array([0.3, -0.1])
        r_hi, _, _ = steer(spec, grid, h, eps=1e-1, tol=1e-8)
        r_lo, _, _ = steer(spec, grid, h, eps=1e-3, tol=1e-8)
        assert r_lo.terminal_error < r_hi.terminal_error / 5.0
