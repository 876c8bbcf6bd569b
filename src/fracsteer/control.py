"""Controllability machinery: the Grammian of the input map under the
solution-operator flow, the regularized steering law

    u_eps(t) = B^T D(T - t) (eps I + Gamma)^{-1} p(x),

and the outer fixed point coupling the control to the mild solver.  The
steering residual p(x) collects everything the control must account for:

    p(x) = h - D(T) (phi(0) - g(x)(0))
             - sum_k D(T - t_k) I_k(x(t_k^-))
             - int_0^T D(T - s) f(s, x(s), x_s) ds.

The Grammian shares the trajectory grid and quadrature, so the input term
of the mild formula at T under u = B^T D(T - .) c is exactly Gamma c.  The
last Picard sweep of an inner solve solves x(0) and the impulse jumps for
the path x it returns and takes f at the path of the sweep before, x'
(a solve restarted with lagged sweeps takes x(0) and the jumps at x' too).
So steer reads h - x(T) + Gamma c off it without another pass over the
grid: p at the returned path with f one sweep behind, within the inner
solve's tolerance.  The same shared quadrature makes the
one-dimensional linear steering identity terminal_error = eps/(eps+Gamma)*|p|
hold exactly at the discrete level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import ConfigError, ConvergenceError, EvaluationError
from .model import FloatArray, ProblemSpec
from .solver import ControlSignal, Grid, SolutionKernel, Trajectory, contraction_warnings, solve_mild

PICARD_TOL = 1e-11  # inner tolerance of a steer's final solve
INEXACT = 1e-3  # an inexact inner solve stops at this fraction of what it feeds the outer loop


@dataclass
class SteeringReport:
    eps: float
    terminal_error: float
    control_energy: float
    outer_iters: int
    inner_residuals: list = field(default_factory=list)
    converged: bool = True
    warnings: list = field(default_factory=list)


def grammian(spec: ProblemSpec, grid: Grid) -> FloatArray:
    """Trapezoid-rule Grammian int_0^T D(T-s) B B^T D(T-s) ds on the
    trajectory grid, symmetric bit for bit.

    D is diagonal, so sum_m w_m D(T - t_m) B B^T D(T - t_m) is the entrywise
    product (B B^T) o (T^T diag(w) T) of the kernel table T; the trapezoid
    weights are symmetric, so the lag order does not matter.  With w > 0 it
    is a Schur product of Gram matrices, positive semidefinite up to
    rounding; it may be singular, and steer needs only eps I + Gamma to
    factor."""
    table = SolutionKernel(spec, grid).table
    w = grid.trapezoid_weights(grid.n_fwd)
    G = (spec.B @ spec.B.T) * (table.T @ (w[:, None] * table))
    return 0.5 * (G + G.T)


def synthesize_control(grid: Grid, c: FloatArray) -> ControlSignal:
    """The steering law's control u(t_m) = B^T D(T - t_m) c on grid."""
    return ControlSignal(grid, (grid.kernel_table[::-1] * c) @ grid.spec.B)


def _check_steer_args(eps: float, tol: float, max_outer: int) -> None:
    if not (0.0 < eps < math.inf and tol > 0.0):
        raise ConfigError(f"eps must be finite and > 0 and tol > 0, got eps={eps}, tol={tol}")
    if max_outer < 1:
        raise ConfigError(f"max_outer must be >= 1, got {max_outer}")


def _free_path(spec: ProblemSpec, grid: Grid, h: FloatArray, picard_tol: float) -> Trajectory:
    """The u = 0 path, which only seeds p: its Picard sweeps stop at a residual
    <= max(picard_tol, INEXACT |h - x(T)|), x(T) read off the returned path."""
    u = ControlSignal.zeros(grid)
    traj = solve_mild(spec, u, tol=max(picard_tol, INEXACT * np.linalg.norm(h - spec.phi(0.0))))
    while traj.residuals[-1] > (need := max(picard_tol, INEXACT * np.linalg.norm(h - traj.terminal()))):
        more = solve_mild(spec, u, tol=need, start=traj.values)
        traj.values, traj.residuals = more.values, traj.residuals + more.residuals
    return traj


def steer(
    spec: ProblemSpec,
    grid: Grid,
    h: FloatArray,
    eps: float,
    tol: float = 1e-8,
    max_outer: int = 120,
    picard_tol: float = PICARD_TOL,
    free: Trajectory | None = None,
) -> tuple[SteeringReport, Trajectory, ControlSignal]:
    """Undamped outer fixed point x -> u_eps(x) -> x: each iterate solves
    the mild problem under the control synthesized from the last one.

    (eps I + Gamma) is factored once.  p starts at h - x(T) of the u = 0
    solution; after each inner solve under u = B^T D(T - .) c it is
    h - x(T) + Gamma c, which is p at the returned path with f taken one
    sweep earlier (module docstring): a lag within the solve's tolerance,
    in place of one more mild map per outer iteration.

    Successive controls must agree to tol in sup-norm.  The loop contracts
    along one dominant direction, so inner solve k+1 starts from the path
    array x_k + a (x_k - x_{k-1}), a = <du_{k+1}, du_k> / <du_k, du_k>
    with du_k = u_k - u_{k-1} summed over all samples (from x_k when no
    earlier step exists).  It runs to max(picard_tol, INEXACT d), d the
    control's sup change; the last (d <= tol) runs to picard_tol.  free, if
    given, is the u = 0 path on grid, solved at least as far as _free_path
    does: it only seeds p.  The report carries |x(T) - h| and the energy.
    """
    _check_steer_args(eps, tol, max_outer)
    h = spec.check_vector(h)
    gram = grammian(spec, grid)
    try:
        factor = cho_factor(gram + eps * np.eye(spec.n_modes))
    except np.linalg.LinAlgError as exc:
        raise EvaluationError(
            f"factorization of (eps I + Gamma) failed for eps={eps}", regime="cholesky"
        ) from exc

    u = ControlSignal.zeros(grid)
    traj = free if free is not None else _free_path(spec, grid, h, picard_tol)
    p = h - traj.terminal()
    inner = [traj.residuals]
    diffs, du_prev, x_prev = [], None, None
    for outer in range(1, max_outer + 1):
        c = cho_solve(factor, p)
        u_prev, u = u, synthesize_control(grid, c)
        du, start = u.samples - u_prev.samples, traj.values
        diffs.append(float(np.max(np.linalg.norm(du, axis=1))))
        inner_tol = picard_tol if diffs[-1] <= tol else max(picard_tol, INEXACT * diffs[-1])
        if x_prev is not None:
            # np.sum, not np.vdot: BLAS splits a long dot product over its
            # threads, so its rounding would follow the thread count
            a = np.sum(du * du_prev) / np.sum(du_prev * du_prev)
            start = traj.values + a * (traj.values - x_prev)
        du_prev, x_prev = du, traj.values
        traj = solve_mild(spec, u, tol=inner_tol, start=start)
        # on the flagship a 16 x 16 mat-vec, which BLAS does not split over
        # threads, so sweeps stay bit-for-bit reproducible
        p = h - traj.terminal() + gram @ c
        inner.append(traj.residuals)
        if diffs[-1] <= tol:
            break
    else:
        raise ConvergenceError(
            f"outer steering loop did not converge in {max_outer} iterations "
            f"(last control change {diffs[-1]:.3e})",
            residuals=diffs,
            last_iterate=(traj, u),
        )
    report = SteeringReport(
        eps=eps,
        terminal_error=float(np.linalg.norm(traj.terminal() - h)),
        control_energy=u.energy(),
        outer_iters=outer,
        inner_residuals=inner,
        warnings=contraction_warnings(spec),
    )
    return report, traj, u


@dataclass
class SweepEntry:
    eps: float
    report: SteeringReport | None = None
    error: str | None = None


@dataclass
class SweepResult:
    entries: list
    errors_non_increasing: bool


def epsilon_sweep(
    spec: ProblemSpec,
    grid: Grid,
    h: FloatArray,
    eps_list,
    tol: float = 1e-8,
    max_outer: int = 120,
) -> SweepResult:
    """One steering run per eps (strictly decreasing list), all from one
    shared u = 0 path (steer's free=), which does not depend on eps and is
    solved as a solo steer would, to max(PICARD_TOL, INEXACT |h - x(T)|);
    steer's argument checks run on every eps first.  Failures are recorded
    per entry and the sweep continues."""
    eps_list = [float(e) for e in eps_list]
    if not eps_list:
        raise ConfigError("eps list must not be empty")
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ConfigError("eps values must be strictly decreasing")
    for eps in eps_list:
        _check_steer_args(eps, tol, max_outer)
    h = spec.check_vector(h)

    def run_one(eps: float) -> SweepEntry:
        try:
            report, _, _ = steer(spec, grid, h, eps, tol=tol, max_outer=max_outer, free=free)
            return SweepEntry(eps=eps, report=report)
        except (ConvergenceError, EvaluationError) as exc:
            return SweepEntry(eps=eps, error=str(exc))

    try:
        free = _free_path(spec, grid, h, PICARD_TOL)
    except (ConvergenceError, EvaluationError) as exc:
        entries = [SweepEntry(eps=e, error=str(exc)) for e in eps_list]
    else:
        entries = [run_one(e) for e in eps_list]

    errs = [e.report.terminal_error for e in entries if e.report is not None]
    non_increasing = all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))
    return SweepResult(entries=entries, errors_non_increasing=non_increasing)
