"""Mild-solution solver: Picard iteration on the variation-of-parameters
formula with impulse sums, delay history, and the nonlocal initial condition.

On the grid restricted to [0, T] the converged trajectory satisfies, between
impulses and to quadrature accuracy,

    x(t) = D(t) (phi(0) - g(x)(0))
         + sum_{0 < t_k < t} D(t - t_k) I_k(x(t_k^-))
         + int_0^t D(t - s) (B u(s) + f(s, x(s), x_s)) ds,

with D the diagonal solution operator, while x(s) = phi(s) - g(x)(s) holds on
[-r, 0].  mild_map applies this formula to a sampled path, with D tabulated
once per Grid (Grid.kernel_table).  Values stored at impulse nodes are left
limits.  The integral segment that starts at t_k takes f at the right value
x(t_k^+) = x(t_k^-) + I_k(x(t_k^-)), while the delay window x_{t_k} still
ends at x(t_k^-), so only the pointwise part of f jumps there.  x(0) and the
linear part of each jump are linear and mode-diagonal, so each Picard sweep
solves them for the path it returns, and the loop iterates f alone.  Where
that loop fails, solve_mild starts over with lagged sweeps, which read both
off the previous iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from .errors import ConfigError, ConvergenceError, DomainError, EvaluationError
from .mittag import mittag_leffler
from .model import (
    FloatArray, HistorySegment, ProblemSpec, eval_f, trapezoid_weights,
)

_NODE_TOL = 1e-9
# Largest number of grid steps a span may take, and of grid rows times modes
# (80 MB of float64 per array): a mistyped T, r, N or dt must not allocate
# arrays that large.
_MAX_STEPS = 10**6
_MAX_CELLS = 10**7
PICARD_MAX = 400  # Picard sweep budget of every solve


def _as_steps(value: float, h: float, what: str) -> int:
    if not abs(value / h) <= _MAX_STEPS:
        raise ConfigError(f"{what}={value} spans more than {_MAX_STEPS} steps of dt={h}")
    n = round(value / h)
    if abs(value - n * h) > _NODE_TOL * max(1.0, abs(value)):
        raise ConfigError(
            f"{what}={value} is not commensurate with the step dt={h}; "
            "choose dt so that T, r, impulse times and nonlocal anchors are "
            "integer multiples of it"
        )
    return int(n)


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform grid from -r to T; 0, every impulse time and every nonlocal
    anchor are exact nodes.  Forward index m counts nodes in [0, T]."""

    spec: ProblemSpec
    h: float
    n_hist: int = field(init=False)  # nodes below 0 (r / h)
    n_fwd: int = field(init=False)  # steps in [0, T] (T / h)
    times: FloatArray = field(init=False)
    impulse_nodes: tuple[int, ...] = field(init=False)  # forward indices

    def __post_init__(self):
        if not (0.0 < self.h < math.inf):
            raise ConfigError(f"dt must be finite and > 0, got {self.h}")
        nh = _as_steps(self.spec.delay, self.h, "delay r")
        nf = _as_steps(self.spec.horizon, self.h, "horizon T")
        imp = tuple(_as_steps(d.t, self.h, f"impulse time {d.t}") for d in self.spec.impulses)
        for term in self.spec.nonlocal_terms:
            _as_steps(term.tau, self.h, f"nonlocal anchor {term.tau}")
        rows, n = nh + nf + 1, self.spec.n_modes
        if rows * n > _MAX_CELLS:
            raise ConfigError(f"grid of {rows} rows x N={n} modes exceeds {_MAX_CELLS} cells")
        object.__setattr__(self, "n_hist", nh)
        object.__setattr__(self, "n_fwd", nf)
        object.__setattr__(self, "times", np.arange(-nh, nf + 1) * self.h)
        object.__setattr__(self, "impulse_nodes", imp)

    def __len__(self) -> int:
        return self.n_hist + self.n_fwd + 1

    def row(self, t: float) -> int:
        """Array row of grid time t (history rows included)."""
        i = round(t / self.h) + self.n_hist
        if not (0 <= i < len(self)) or abs(self.times[i] - t) > _NODE_TOL * max(1.0, abs(t)):
            raise DomainError(f"t={t} is not a grid node")
        return int(i)

    def fwd_row(self, m: int) -> int:
        return self.n_hist + m

    def forward_times(self) -> FloatArray:
        return self.times[self.n_hist :]

    def trapezoid_weights(self, m: int) -> FloatArray:
        return trapezoid_weights(m + 1, self.h)

    @cached_property
    def kernel_table(self) -> FloatArray:
        """table[m, n] = E_{alpha,1}(lam_n * (m h)^alpha) on every lag 0..n_fwd,
        built on first use and kept while the grid lives."""
        lags = np.arange(self.n_fwd + 1) * self.h
        alpha = self.spec.alpha
        return mittag_leffler(alpha, 1.0, np.multiply.outer(lags**alpha, self.spec.eigenvalues))

    @cached_property
    def start_response(self) -> FloatArray:
        """Phi / (1 + sum_i c_i Phi(tau_i)), Phi the kernel table kicked by
        the linear impulses in time order: the response to x(0) that closes
        the nonlocal condition (mild_map).  A denominator that is 0 or not
        finite leaves x(0) undetermined and raises."""
        table, spec = self.kernel_table, self.spec
        phi = table.copy()
        for imp, m in zip(spec.impulses, self.impulse_nodes):
            phi[m + 1 :] += table[1 : self.n_fwd + 1 - m] * (imp.scale * phi[m])
        denom = np.ones(spec.n_modes)
        for term in spec.nonlocal_terms:
            denom += term.c * phi[self.row(term.tau) - self.n_hist]
        for k in np.flatnonzero(~np.isfinite(denom) | (denom == 0.0)):
            raise EvaluationError(
                f"nonlocal condition leaves x(0) undetermined in mode {k + 1}: "
                f"1 + sum_i c_i Phi(tau_i) = {denom[k]:g}", regime="nonlocal"
            )
        phi /= denom
        return phi

    @cached_property
    def kernel_spectrum(self) -> FloatArray:
        """Real FFT of kernel_table, zero-padded for a linear convolution over
        the forward grid; the first convolution builds it."""
        size = next_fast_len(2 * self.n_fwd + 1, real=True)
        return rfft(self.kernel_table, size, axis=0)


class SolutionKernel:
    """The kernel table of grid, which must be a grid of spec."""

    def __init__(self, spec: ProblemSpec, grid: Grid):
        if grid.spec is not spec:
            raise DomainError("grid belongs to a different problem instance")
        self.table = grid.kernel_table


@dataclass
class ControlSignal:
    """Control samples u(t) on the forward grid nodes 0..n_fwd; leading axes stack controls."""

    grid: Grid
    samples: FloatArray  # shape (n_fwd + 1, N) or (batch, n_fwd + 1, N)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        expect = (self.grid.n_fwd + 1, self.grid.spec.n_modes)
        if self.samples.shape[-2:] != expect or self.samples.ndim > 3:
            raise DomainError(f"control samples must have shape {expect}")

    @classmethod
    def zeros(cls, grid: Grid) -> "ControlSignal":
        return cls(grid, np.zeros((grid.n_fwd + 1, grid.spec.n_modes)))

    def energy(self) -> float:
        """int_0^T |u(t)|^2 dt by the grid's trapezoid rule."""
        sq = np.sum(self.samples**2, axis=1)
        w = self.grid.trapezoid_weights(self.grid.n_fwd)
        return float(w @ sq)

    def sup_distance(self, other: "ControlSignal") -> float:
        return float(np.max(np.linalg.norm(self.samples - other.samples, axis=1)))


@dataclass
class Trajectory:
    """Piecewise-continuous sampled path on [-r, T].

    values[row] holds x at grid.times[row]; at an impulse node that is the
    left limit, and right_value applies the jump to it.  A batched solve
    stacks its paths along a leading axis, with one residual list per path."""

    grid: Grid
    values: FloatArray  # shape (len(grid), N) or (batch, len(grid), N)
    warnings: list = field(default_factory=list)
    residuals: list = field(default_factory=list)

    def right_value(self, m: int) -> FloatArray:
        """x(t_m^+): the left value plus I_k at impulse node m, else x(t_m)."""
        left = self.values[..., self.grid.fwd_row(m), :]
        if m in self.grid.impulse_nodes:
            k = self.grid.impulse_nodes.index(m)
            return left + self.grid.spec.impulses[k].scale * left
        return left

    def terminal(self) -> FloatArray:
        return self.values[..., -1, :]

    def forward_values(self) -> FloatArray:
        return self.values[..., self.grid.n_hist :, :]

    def history(self) -> HistorySegment:
        """Trailing delay windows ending at every forward node, stacked over
        the stored rows: window m is values[m : m + n_hist + 1]."""
        g = self.grid
        return HistorySegment(offsets=np.arange(-g.n_hist, 1) * g.h, values=self.values)


def contraction_check(spec: ProblemSpec, eps: float) -> float:
    """Left-hand side of the contraction inequality,

        M (K l_2 + l_g + T^{1-p} (|L1|_{1/p} + |L2|_{1/p}))
            * (1 + M M_B^2 T / eps);

    the caller compares the returned factor against 1."""
    if not eps > 0.0:
        raise ConfigError(f"eps must be > 0, got {eps}")
    c = spec.constants
    return picard_factor(spec) * (1.0 + c.M * c.M_B**2 * spec.horizon / eps)


def picard_factor(spec: ProblemSpec) -> float:
    """Control-free part of the contraction factor, governing the inner
    fixed-point iteration for a fixed control."""
    c = spec.constants
    p = spec.f_desc.holder_p
    return c.M * (
        c.K * c.l_2 + c.l_g + spec.horizon ** (1.0 - p) * (c.norm_L1 + c.norm_L2)
    )


def _convolve_all(grid: Grid, forcing: FloatArray) -> FloatArray:
    """Trapezoid convolution int_0^{t_m} D(t_m - s) w(s) ds for every forward
    node m, with D(l h) = grid.kernel_table[l] and forcing[..., j, :] = w(t_j).

    One real-FFT product gives h * sum_{j <= m} D(t_m - t_j) w(t_j) for all m
    at once (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6(3),
    1985); the two half-weight endpoint terms are then taken off."""
    h, ker, n = grid.h, grid.kernel_table, grid.n_fwd + 1
    size = next_fast_len(2 * n - 1, real=True)
    out = irfft(grid.kernel_spectrum * rfft(forcing, size, axis=-2), size, axis=-2)[..., :n, :]
    out *= h
    out -= 0.5 * h * (ker * forcing[..., :1, :] + ker[0] * forcing)
    out[..., 0, :] = 0.0
    return out


def _nonlocal_samples(grid: Grid, values: FloatArray) -> FloatArray:
    """g(x)(s) for every history node s < 0; zero when no nonlocal terms."""
    n_hist = grid.n_hist
    out = np.zeros(values.shape[:-2] + (n_hist, grid.spec.n_modes))
    for term in grid.spec.nonlocal_terms:
        anchor = grid.row(term.tau)
        out += term.c * values[..., anchor - n_hist : anchor, :]
    return out


def mild_map(grid: Grid, values: FloatArray, bu: FloatArray, lagged: bool = False) -> FloatArray:
    """One Picard sweep: the variation-of-parameters formula of grid's
    problem with f taken at the sampled path values.

    Returns phi - g(values) on the history rows s < 0 and, on the forward
    rows, x = D(t)(phi(0) - g(x)(0)) + sum_k D(t - t_k) I_k(x(t_k^-))
    + int_0^t D(t - s)(bu + f(s, values(s), values_s)) ds, with bu the input
    B u on every forward node: x is A + start_response * (phi(0) - g(A)(0))
    for the path A from x(0) = 0, whose impulse kicks read its own left
    values in time order.  lagged reads g(x)(0) and I_k(x(t_k^-)) off values
    instead.  Leading axes of values and bu stack paths.

    f is evaluated once, at the stored left values.  At impulse node m the
    trapezoid segment starting there takes f at the right value instead;
    the delay window ends at the left value on both sides, so the half
    weight h/2 carries only the jump of f's pointwise part, at values.
    """
    spec, n_hist, table = grid.spec, grid.n_hist, grid.kernel_table
    # first: an undetermined x(0) raises before any work
    response = table if lagged else grid.start_response
    x = values[..., n_hist:, :]
    f = eval_f(spec, x, Trajectory(grid, values).history())
    fwd = _convolve_all(grid, bu + f)
    linear = x if lagged else fwd  # the path the linear couplings read
    pointwise = spec.f_desc.pointwise
    for imp, m in zip(spec.impulses, grid.impulse_nodes):
        left = x[..., m, :]
        kick = imp.scale * linear[..., m, :]
        kick += 0.5 * grid.h * (pointwise(left + imp.scale * left) - pointwise(left))
        fwd[..., m + 1 :, :] += table[1 : grid.n_fwd + 1 - m] * kick[..., None, :]

    phi = spec.phi(grid.times[: n_hist + 1])
    start = phi[-1]
    for term in spec.nonlocal_terms:
        start = start - term.c * linear[..., grid.row(term.tau) - n_hist, :]
    fwd += response * start[..., None, :]
    out = np.empty_like(values)
    out[..., :n_hist, :] = phi[:-1] - _nonlocal_samples(grid, values)
    out[..., n_hist:, :] = fwd
    return out


def _iterate(grid: Grid, values: FloatArray, bu: FloatArray, tol: float, max_iter: int,
             lagged: bool) -> tuple[FloatArray, list[list[float]], list[int]]:
    """Picard sweeps on a stack of paths, each until its residual is <= tol
    or not finite, for at most max_iter sweeps: the last iterates, the
    residual list of every path and the indices of those that failed."""
    # values and bu hold the paths still iterating, ids their rows in out
    out, ids = np.empty_like(values), np.arange(len(values))
    residuals: list[list[float]] = [[] for _ in ids]
    failed: list[int] = []
    for _ in range(max_iter):
        new_values = mild_map(grid, values, bu, lagged)
        res = np.max(np.linalg.norm(new_values - values, axis=-1), axis=-1)
        values = new_values
        for k, r in zip(ids, res.tolist()):
            residuals[k].append(r)
        bad = ~np.isfinite(res)
        stop = (res <= tol) | bad
        if stop.any():
            if bad.any():
                failed += ids[bad].tolist()
            out[ids[stop]] = values[stop]
            ids, values, bu = ids[~stop], values[~stop], bu[~stop]
            if not ids.size:
                break
    out[ids] = values
    return out, residuals, sorted(failed + ids.tolist())


def solve_mild(
    spec: ProblemSpec,
    u: ControlSignal,
    tol: float = 1e-10,
    max_iter: int = PICARD_MAX,
    start: Trajectory | None = None,
) -> Trajectory:
    """Picard iteration for the mild solution under the control u.

    Iterates start from start.values when it is given, else from phi on
    [-r, 0] extended constantly by phi(0).  start must be a trajectory of
    spec with the rows of u's grid (for one spec, equal row counts mean
    equal steps), one path for every control or one per control.
    Stops when the sup-norm distance between successive iterates drops to
    tol.  A path that does not get there in max_iter sweeps, or whose
    iterate stops being finite, starts over from its start with lagged
    sweeps (mild_map), which read x(0) and the jumps off the previous
    iterate: where f's feedback offsets the nonlocal loop, only those
    converge.  Its residual list then holds both runs.  If the lagged run
    fails too, ConvergenceError carries that run's residuals and last
    iterate.  A contraction factor >= 1 attaches a warning, not an error.
    A stack of controls runs through the same loops (one control is a stack
    of one); each path stops at the sweep where it would alone, and the
    first path that fails both runs raises.
    """
    if not tol > 0.0:
        raise ConfigError(f"tol must be > 0, got {tol}")
    if max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {max_iter}")
    grid = u.grid
    if grid.spec is not spec:
        raise DomainError("control grid belongs to a different problem instance")

    warnings_list = []
    rho = picard_factor(spec)
    if rho >= 1.0:
        warnings_list.append(
            f"contraction factor {rho:.3g} >= 1: convergence not guaranteed"
        )

    bu = (u.samples @ spec.B.T).reshape(-1, grid.n_fwd + 1, spec.n_modes)
    shape = (len(bu), len(grid), spec.n_modes)
    if start is not None and (start.grid.spec is not spec
                              or start.values.shape not in (shape, shape[1:])):
        raise DomainError("start must be a trajectory on u's grid, one path or one per control")

    values = np.empty(shape)
    values[:] = spec.phi(np.minimum(grid.times, 0.0)) if start is None else start.values
    # a run that overflows is retried below, so numpy's warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        out, residuals, retry = _iterate(grid, values, bu, tol, max_iter, lagged=False)
    if retry:
        again, more, failed = _iterate(grid, values[retry], bu[retry], tol, max_iter, lagged=True)
        if failed:
            r = more[failed[0]]
            raise ConvergenceError(
                f"Picard iteration produced a non-finite iterate at sweep {len(r)}"
                if not math.isfinite(r[-1]) else
                f"Picard iteration did not reach tol={tol} in {max_iter} iterations "
                f"(last residual {r[-1]:.3e})",
                residuals=r,
                last_iterate=Trajectory(grid, again[failed[0]]),
            )
        out[retry] = again
        for k, r in zip(retry, more):
            residuals[k] += r
    if u.samples.ndim == 2:
        out, residuals = out[0], residuals[0]
    return Trajectory(grid, out, warnings=warnings_list, residuals=residuals)
