"""Performance-index evaluation along mild solutions and its minimization
over piecewise-constant controls by projected quasi-Newton (BFGS) steps on
central finite-difference gradients.

The running cost defaults to the quadratic form |x|^2 + |x_t|_r^2 + |u|^2;
the history norm |x_t|_r is the max sample norm over the trailing delay
window.  The direct method mirrors the minimizing-sequence structure of the
existence argument: parameterize, then descend inside the admissible box,
holding the active bounds of Bertsekas (SIAM J. Control Optim. 20(2), 1982).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .model import FloatArray, ProblemSpec
from .solver import _MAX_CELLS, ControlSignal, Grid, delay_windows, solve_mild


@dataclass(frozen=True)
class CostDescriptor:
    """Running cost L(t, x, x_t, u) with its declared coercivity data.

    The default weights reproduce the quadratic flagship cost; d, e and f_u
    document the lower bound L >= d|x| + e|x_t|_r + f_u |u|^2 that the
    descriptor is expected to satisfy."""

    w_state: float = 1.0
    w_hist: float = 1.0
    w_control: float = 1.0
    d: float = 0.0
    e: float = 0.0
    f_u: float = 1.0

    def __post_init__(self):
        for name in ("w_state", "w_hist", "w_control", "d", "e", "f_u"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"cost {name} must be finite, got {getattr(self, name)}")
        if min(self.w_state, self.w_hist, self.w_control) < 0.0:
            raise ConfigError("cost weights must be >= 0")
        if self.f_u > self.w_control:
            raise ConfigError("coercivity f_u cannot exceed the control weight")

    def evaluate(self, grid: Grid, values: FloatArray, u: FloatArray) -> FloatArray:
        """L at every forward node of grid, with x(t) and x_t read off the
        path values as eval_f reads them (|x_t|_r: the largest row norm in
        the window of delay_windows) and one row of u per node; leading axes
        stack paths."""
        x = values[..., grid.n_hist :, :]
        norms = np.linalg.norm(values, axis=-1, keepdims=True)
        hist_norm = delay_windows(grid, norms).max(axis=-1)[..., 0] if self.w_hist != 0.0 else 0.0
        return (
            self.w_state * np.einsum("...i,...i->...", x, x)
            + self.w_hist * hist_norm**2
            + self.w_control * np.einsum("...i,...i->...", u, u)
        )


@dataclass(frozen=True)
class ControlParameterization:
    """Piecewise-constant controls: P intervals of equal length, one state
    vector per interval, admissible set the closed box [-bound, bound] in
    every entry."""

    intervals: int
    n_modes: int
    bound: float

    def __post_init__(self):
        if self.intervals < 1:
            raise ConfigError("P must be >= 1")
        # minimize keeps a dense (P*N)^2 BFGS matrix; refuse one past the
        # grid's cell cap before anything of that size is allocated
        size = self.intervals * self.n_modes
        if size**2 > _MAX_CELLS:
            raise ConfigError(f"BFGS matrix of P*N={size} parameters squared exceeds {_MAX_CELLS} cells")
        if math.isnan(self.bound):
            raise ConfigError("box bounds must not be NaN")
        if self.bound < 0.0:
            raise ConfigError("admissible box is empty")

    @classmethod
    def boxed(cls, intervals: int, n_modes: int, bound: float) -> "ControlParameterization":
        return cls(intervals, n_modes, abs(bound))

    def project(self, theta: FloatArray) -> FloatArray:
        return np.clip(theta, -self.bound, self.bound)

    def interval_of(self, grid: Grid) -> np.ndarray:
        """Each forward node's interval (right-open; the final node in the
        last).  Node m sits at m / n_fwd of the horizon, so integer
        arithmetic places it: a float t / T * P can round below a boundary."""
        return np.minimum(np.arange(grid.n_fwd + 1) * self.intervals // grid.n_fwd, self.intervals - 1)

    def expand(self, grid: Grid, theta: FloatArray) -> ControlSignal:
        """Piecewise-constant expansion onto the forward grid; leading axes stack parameter sets."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape[-2:] != (self.intervals, self.n_modes):
            raise DomainError(f"theta must have shape ({self.intervals}, {self.n_modes})")
        return ControlSignal(grid, theta[..., self.interval_of(grid), :])


def eval_cost(
    spec: ProblemSpec,
    cost: CostDescriptor,
    u: ControlSignal,
    tol: float = 1e-10,
) -> float | FloatArray:
    """Trapezoid approximation of int_0^T L dt along the solved trajectory, per path."""
    traj = solve_mild(spec, u, tol=tol)
    grid = u.grid
    samples = cost.evaluate(grid, traj.values, u.samples)
    w = grid.trapezoid_weights(grid.n_fwd)
    # one dot product per path: a matrix-vector product rounds differently
    return float(w @ samples) if samples.ndim == 1 else np.array([w @ row for row in samples])


# An accepted step shorter than this ends the descent as stationary.
_STAT_TOL = 1e-9
# Step halvings tried before the descent is declared stationary (or boxed).
_MAX_BACKTRACKS = 30
# The BFGS inverse Hessian starts as diag(1 / c) on the start's second
# differences c, and as this where h^2 c is not above _ROUNDING |J|.
_FIRST_STEP = 0.5
_ROUNDING = 4.0 * np.finfo(float).eps
# Central differences step parameter i by _FD_STEP * max(1, |theta_i|).
_FD_STEP = 1e-5


@dataclass(frozen=True)
class MinimizeOptions:
    max_evals: int = 4000

    def __post_init__(self):
        if self.max_evals < 1:
            raise ConfigError(f"max_evals must be >= 1, got {self.max_evals}")


@dataclass
class MinimizeResult:
    J_opt: float
    theta_opt: FloatArray
    history: list
    converged: bool
    n_evals: int


def minimize(
    spec: ProblemSpec,
    grid: Grid,
    cost: CostDescriptor,
    param: ControlParameterization,
    opts: MinimizeOptions = MinimizeOptions(),
    theta0: FloatArray | None = None,
) -> MinimizeResult:
    """Projected quasi-Newton descent with central finite-difference gradients.

    Each step holds fixed every parameter that sits at a bound with its
    gradient g pointing out of the box, moves the free ones along -H g with
    the BFGS inverse Hessian H restricted to them, and clips the trial point
    to the box.  H starts as diag(1 / c) on the second differences c of the
    start's gradient stencil (Nocedal & Wright, Numerical Optimization, 2nd
    ed., sec. 6.1), _FIRST_STEP where c is not above rounding, so a
    separable quadratic's first step lands on its minimizer; an update with
    s.y <= 0 is skipped.  Steps are accepted only when they decrease J by
    more than 1e-15 (backtracking halving), so the best-J history is
    non-increasing; a predicted decrease -g.d within that margin is
    stationary, as is a line search that ran every halving without one, even
    on the last evaluation of the budget; a budget that cuts the descent
    short returns the best iterate flagged as non-converged.
    The start and, while a rejection would leave room for every halving,
    each step's first trial point are solved in one stack with their 2 P N
    gradient points; n_evals counts them all, a rejected trial's too.
    A budget too small for the start, one gradient and one trial point
    (2 P N + 2 evaluations) is refused, as is an interval with no grid node."""
    if param.n_modes != spec.n_modes:
        raise ConfigError("parameterization dimension does not match the problem")
    least = 2 * param.intervals * param.n_modes + 2
    if opts.max_evals < least:
        raise ConfigError(f"max_evals must be >= 2*P*N + 2 = {least}, got {opts.max_evals}")
    empty = int(np.sum(np.bincount(param.interval_of(grid), minlength=param.intervals) == 0))
    if empty:
        raise ConfigError(f"{empty} of P={param.intervals} control intervals hold no grid node")
    n_evals = 0
    theta = param.project(
        np.zeros((param.intervals, param.n_modes)) if theta0 is None else np.asarray(theta0, float)
    )

    def J_of(x: FloatArray) -> FloatArray:  # J at each row of a stack of points
        nonlocal n_evals
        n_evals += len(x)
        thetas = x.reshape((len(x),) + theta.shape)
        # a stack runs in chunks of at most _MAX_CELLS path cells; a batch
        # entry equals its solo solve, so the split moves no bit
        step = max(1, _MAX_CELLS // (len(grid) * spec.n_modes))
        return np.concatenate([eval_cost(spec, cost, param.expand(grid, thetas[i : i + step]))
                               for i in range(0, len(thetas), step)])

    def J_and_grad(x: FloatArray, J: float | None = None):  # J unless given, g and c, in one stack
        h = _FD_STEP * np.maximum(1.0, np.abs(x))
        J_all = J_of(np.concatenate([x[None]] * (J is None) + [x + np.diag(h), x - np.diag(h)]))
        up, down = J_all[-2 * x.size :].reshape(2, x.size)
        J = float(J_all[0]) if J is None else J
        d2 = up + down - 2.0 * J  # h^2 c; c is nan where this is not above rounding
        return J, (up - down) / (2.0 * h), np.where(d2 > _ROUNDING * abs(J), d2 / h**2, np.nan)

    x, b = theta.ravel(), param.bound
    J, g, c = J_and_grad(x)
    history = [J]
    converged = False
    eye = np.eye(x.size)
    H = np.diag(np.where(np.isfinite(c), 1.0 / c, _FIRST_STEP))
    s = g_old = None

    while g is not None or n_evals + 2 * x.size <= opts.max_evals:
        if g is None:  # a step accepted after backtracking
            g = J_and_grad(x, J)[1]
        if s is not None:
            y = g - g_old
            sy = s @ y
            if sy > 0.0:
                V = eye - np.outer(s, y) / sy
                H = V @ H @ V.T + np.outer(s, s) / sy
        free = ~(((x <= -b) & (g > 0.0)) | ((x >= b) & (g < 0.0)))
        d = free * -(H @ (free * g))
        if not -(g @ d) > 1e-15:  # predicted decrease within the acceptance margin
            converged = True
            break

        room = n_evals + 2 * x.size + _MAX_BACKTRACKS <= opts.max_evals  # to halve after a rejection
        tries = min(_MAX_BACKTRACKS, opts.max_evals - n_evals)
        for k in range(tries):
            cand = param.project(x + 0.5**k * d)
            if k == 0 and room and np.linalg.norm(cand - x) > _STAT_TOL:
                J_cand, g_cand, _ = J_and_grad(cand)
            else:
                J_cand, g_cand = float(J_of(cand[None])[0]), None
            if J_cand < J - 1e-15:
                break
        else:
            # no decrease at the finest step: stationary if every halving ran
            converged = tries == _MAX_BACKTRACKS
            break
        s, g_old, x, J, g = cand - x, g, cand, J_cand, g_cand
        history.append(J)
        if np.linalg.norm(s) <= _STAT_TOL:
            converged = True
            break

    return MinimizeResult(J_opt=J, theta_opt=x.reshape(theta.shape), history=history,
                          converged=converged, n_evals=n_evals)
