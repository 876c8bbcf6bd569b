"""Controllability machinery: the Grammian of the input map under the
solution-operator flow, the regularized steering law

    u_eps(t) = B^T D(T - t) (eps I + Gamma)^{-1} p(x),

and the outer fixed point coupling the control to the mild solver.  The
steering residual p(x) collects everything the control must account for:

    p(x) = h - D(T) (phi(0) - g(x)(0))
             - sum_k D(T - t_k) I_k(x(t_k^-))
             - int_0^T D(T - s) f(s, x(s), x_s) ds.

The Grammian shares the trajectory grid and quadrature, which makes the
one-dimensional linear steering identity terminal_error = eps/(eps+Gamma)*|p|
hold exactly at the discrete level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import ConfigError, ConvergenceError, DomainError, EvaluationError
from .model import FloatArray, ProblemSpec
from .solver import ControlSignal, Grid, SolutionKernel, Trajectory, mild_map, solve_mild

PICARD_TOL = 1e-11  # inner tolerance of a steer's final solve, and of a sweep's u = 0 solve
PICARD_MAX = 400  # Picard sweep budget of every inner solve


@dataclass(frozen=True)
class Grammian:
    """Symmetric PSD matrix int_0^T D(T-s) B B^T D(T-s) ds."""

    matrix: FloatArray

    def __post_init__(self):
        m = self.matrix
        if not np.allclose(m, m.T, atol=1e-12):
            raise EvaluationError("Grammian is not symmetric", regime="grammian")
        if np.linalg.eigvalsh(m).min() < -1e-10:
            raise EvaluationError("Grammian is not PSD", regime="grammian")


@dataclass
class SteeringReport:
    eps: float
    terminal_error: float
    control_energy: float
    outer_iters: int
    inner_residuals: list = field(default_factory=list)
    converged: bool = True
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        if self.terminal_error < 0.0 or self.control_energy < 0.0:
            raise ConfigError("report metrics must be non-negative")


def grammian(spec: ProblemSpec, grid: Grid) -> Grammian:
    """Trapezoid-rule Grammian on the trajectory grid.

    D is diagonal, so sum_m w_m D(T - t_m) B B^T D(T - t_m) is the entrywise
    product (B B^T) o (T^T diag(w) T) of the kernel table T; the trapezoid
    weights are symmetric, so the lag order does not matter."""
    table = SolutionKernel(spec, grid).table
    w = grid.trapezoid_weights(grid.n_fwd)
    G = (spec.B @ spec.B.T) * (table.T @ (w[:, None] * table))
    G = 0.5 * (G + G.T)
    return Grammian(G)


def residual_p(spec: ProblemSpec, x: Trajectory, h: FloatArray) -> FloatArray:
    """Steering residual p(x): h minus the mild formula at T with u = 0."""
    h = spec.check_vector(h)
    grid = x.grid
    if grid.spec is not spec:
        raise DomainError("trajectory grid belongs to a different problem instance")
    kernel = SolutionKernel(spec, grid)
    return h - mild_map(spec, grid, kernel, x.values, np.zeros_like(kernel.table))[-1]


def synthesize_control(
    spec: ProblemSpec,
    x: Trajectory,
    h: FloatArray,
    eps: float,
    gram: Grammian | None = None,
) -> ControlSignal:
    """Regularized steering law sampled on the trajectory grid."""
    if not (0.0 < eps < math.inf):
        raise ConfigError(f"eps must be finite and > 0, got {eps}")
    grid = x.grid
    if gram is None:
        gram = grammian(spec, grid)
    p = residual_p(spec, x, h)
    A = gram.matrix + eps * np.eye(spec.n_modes)
    try:
        factor = cho_factor(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EvaluationError(
            f"factorization of (eps I + Gamma) failed for eps={eps}",
            regime="cholesky",
        ) from exc
    c = cho_solve(factor, p)
    table = SolutionKernel(spec, grid).table
    return ControlSignal(grid, (table[::-1] * c) @ spec.B)  # row m: B^T D(T - t_m) c


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

    Successive controls must agree to tol in sup-norm.  The loop contracts
    along one dominant direction, so inner solve k+1 starts from the
    extrapolation x_k + a (x_k - x_{k-1}), a = <du_{k+1}, du_k> / <du_k, du_k>
    with du_k = u_k - u_{k-1} summed over all samples (from x_k when no
    earlier step exists).  It runs to max(picard_tol, 1e-3 * d), d the
    control's sup change; the last (d <= tol) runs to picard_tol.
    free, if given, must be the u = 0 solution on grid to picard_tol.  The
    report carries the terminal error |x(T) - h| and the control energy.
    """
    if not (0.0 < eps < math.inf and tol > 0.0):
        raise ConfigError(f"eps must be finite and > 0 and tol > 0, got eps={eps}, tol={tol}")
    if max_outer < 1:
        raise ConfigError(f"max_outer must be >= 1, got {max_outer}")
    h = spec.check_vector(h)
    gram = grammian(spec, grid)

    u = ControlSignal.zeros(grid)
    traj = free if free is not None else solve_mild(spec, u, tol=picard_tol, max_iter=PICARD_MAX)
    inner = [traj.residuals]
    warnings_list = list(traj.warnings)
    diffs, du_prev, x_prev = [], None, None
    for outer in range(1, max_outer + 1):
        u_prev, u = u, synthesize_control(spec, traj, h, eps, gram=gram)
        diffs.append(u.sup_distance(u_prev))
        inner_tol = picard_tol if diffs[-1] <= tol else max(picard_tol, 1e-3 * diffs[-1])
        du, start = u.samples - u_prev.samples, traj
        if x_prev is not None:
            # np.sum, not np.vdot: BLAS splits a long dot product over its
            # threads, so its rounding would follow the thread count
            a = np.sum(du * du_prev) / np.sum(du_prev * du_prev)
            start = Trajectory(grid, traj.values + a * (traj.values - x_prev.values))
        du_prev, x_prev = du, traj
        traj = solve_mild(spec, u, tol=inner_tol, max_iter=PICARD_MAX, start=start)
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
        warnings=warnings_list,
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
    shared u = 0 solve, which does not depend on eps and is solved as steer
    would; failures are recorded per entry and the sweep continues."""
    eps_list = [float(e) for e in eps_list]
    if not eps_list:
        raise ConfigError("eps list must not be empty")
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ConfigError("eps values must be strictly decreasing")
    h = spec.check_vector(h)

    def run_one(eps: float) -> SweepEntry:
        try:
            report, _, _ = steer(spec, grid, h, eps, tol=tol, max_outer=max_outer, free=free)
            return SweepEntry(eps=eps, report=report)
        except (ConvergenceError, EvaluationError) as exc:
            return SweepEntry(eps=eps, error=str(exc))

    try:
        free = solve_mild(spec, ControlSignal.zeros(grid), tol=PICARD_TOL, max_iter=PICARD_MAX)
    except (ConvergenceError, EvaluationError) as exc:
        entries = [SweepEntry(eps=e, error=str(exc)) for e in eps_list]
    else:
        entries = [run_one(e) for e in eps_list]

    errs = [e.report.terminal_error for e in entries if e.report is not None]
    non_increasing = all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))
    return SweepResult(entries=entries, errors_non_increasing=non_increasing)
