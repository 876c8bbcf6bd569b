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
ends at x(t_k^-), so only the pointwise part of f jumps there.  x(0), the
linear part of each jump and the history rows s < 0 are linear, so each
Picard sweep solves them for the path it returns, and the loop iterates f
alone.  With f = 0 the first sweep is therefore the fixed point, and a
solve stops there.  A path whose exact run does not converge, or whose
residual passes DIVERGED times its first, starts over with lagged sweeps,
which read x(0) and the jumps off the previous iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from .errors import ConfigError, ConvergenceError, DomainError, EvaluationError
from .mittag import mittag_leffler
from .model import FloatArray, ProblemSpec, _form, trapezoid_weights

_NODE_TOL = 1e-9
# Largest number of grid steps a span may take, and of grid rows times modes
# (80 MB of float64 per array): a mistyped T, r, N or dt must not allocate
# arrays that large.
_MAX_STEPS = 10**6
_MAX_CELLS = 10**7
PICARD_MAX = 400  # Picard sweep budget of every solve
DIVERGED = 100.0  # an exact run gives up once a residual passes this multiple of its first


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
    anchor are exact nodes.  Forward index m counts nodes in [0, T]; [0, T]
    spans at least one step, and the impulses fall on distinct inner nodes."""

    spec: ProblemSpec
    h: float
    n_hist: int = field(init=False)  # nodes below 0 (r / h)
    n_fwd: int = field(init=False)  # steps in [0, T] (T / h)
    times: FloatArray = field(init=False)
    kicks: tuple[tuple[int, float], ...] = field(init=False)  # (forward index, scale) per impulse
    anchors: tuple[tuple[float, int], ...] = field(init=False)  # (c_i, forward index of tau_i)

    def __post_init__(self):
        if not (0.0 < self.h < math.inf):
            raise ConfigError(f"dt must be finite and > 0, got {self.h}")
        nh = _as_steps(self.spec.delay, self.h, "delay r")
        nf = _as_steps(self.spec.horizon, self.h, "horizon T")
        imp = tuple(_as_steps(d.t, self.h, f"impulse time {d.t}") for d in self.spec.impulses)
        anchors = tuple((t.c, _as_steps(t.tau, self.h, f"nonlocal anchor {t.tau}"))
                        for t in self.spec.nonlocal_terms)
        if nf == 0:
            raise ConfigError(f"horizon T={self.spec.horizon} spans no step of dt={self.h}")
        if any(b <= a for a, b in zip((0,) + imp, imp + (nf,))):  # 0 < m_1 < ... < m_K < n_fwd
            raise ConfigError(f"impulse times must fall on strictly increasing nodes inside "
                              f"(0, T) at dt={self.h}, got nodes {list(imp)}")
        rows, n = nh + nf + 1, self.spec.n_modes
        if rows * n > _MAX_CELLS:
            raise ConfigError(f"grid of {rows} rows x N={n} modes exceeds {_MAX_CELLS} cells")
        object.__setattr__(self, "n_hist", nh)
        object.__setattr__(self, "n_fwd", nf)
        object.__setattr__(self, "times", np.arange(-nh, nf + 1) * self.h)
        object.__setattr__(self, "kicks", tuple((m, d.scale) for m, d in zip(imp, self.spec.impulses)))
        object.__setattr__(self, "anchors", anchors)

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
        for m, scale in self.kicks:
            phi[m + 1 :] += table[1 : self.n_fwd + 1 - m] * (scale * phi[m])
        denom = np.ones(spec.n_modes)
        for c, k in self.anchors:
            denom += c * phi[k]
        for k in np.flatnonzero(~np.isfinite(denom) | (denom == 0.0)):
            raise EvaluationError(
                f"nonlocal condition leaves x(0) undetermined in mode {k + 1}: "
                f"1 + sum_i c_i Phi(tau_i) = {denom[k]:g}", regime="nonlocal"
            )
        phi /= denom
        return phi

    @cached_property
    def window_weights(self) -> FloatArray:
        """Trapezoid weights of a delay window s = t - r .. t times exp(-rate (t - s))."""
        offsets = np.arange(-self.n_hist, 1) * self.h
        # the spacing offsets[1] - offsets[0] can differ from h in its last bits
        w = trapezoid_weights(self.n_hist + 1, offsets[1] - offsets[0])
        return w * np.exp(self.spec.f_desc.kernel_rate * offsets)

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
        w = self.grid.trapezoid_weights(self.grid.n_fwd)
        return float(w @ np.sum(self.samples**2, axis=1))


@dataclass
class Trajectory:
    """Piecewise-continuous sampled path on [-r, T].

    values[row] holds x at grid.times[row]; at an impulse node that is the
    left limit, and right_value applies the jump to it.  A batched solve
    stacks its paths along a leading axis, with one residual list per path."""

    grid: Grid
    values: FloatArray  # shape (len(grid), N) or (batch, len(grid), N)
    residuals: list = field(default_factory=list)

    def right_value(self, m: int) -> FloatArray:
        """x(t_m^+): the left value plus I_k at impulse node m, else x(t_m)."""
        left = self.values[..., self.grid.fwd_row(m), :]
        scale = dict(self.grid.kicks).get(m)
        return left if scale is None else left + scale * left

    def terminal(self) -> FloatArray:
        return self.values[..., -1, :]

    def forward_values(self) -> FloatArray:
        return self.values[..., self.grid.n_hist :, :]


def contraction_check(spec: ProblemSpec, eps: float) -> float:
    """Left-hand side of the contraction inequality,

        M (K l_2 + l_g + T^{1-p} (|L1|_{1/p} + |L2|_{1/p}))
            * (1 + M M_B^2 T / eps);

    the caller compares the returned factor against 1.  eps must be finite
    and > 0, as steer requires, and the factor finite."""
    if not 0.0 < eps < math.inf:
        raise ConfigError(f"eps must be finite and > 0, got eps={eps}")
    c = spec.constants
    factor = picard_factor(spec) * (1.0 + c.M * c.M_B**2 * spec.horizon / eps)
    if not math.isfinite(factor):
        raise EvaluationError(f"contraction factor overflows at eps={eps}", regime="contraction")
    return factor


def picard_factor(spec: ProblemSpec) -> float:
    """Control-free part of the contraction factor, governing the inner
    fixed-point iteration for a fixed control."""
    c = spec.constants
    p = spec.f_desc.holder_p
    return c.M * (
        c.K * c.l_2 + c.l_g + spec.horizon ** (1.0 - p) * (c.norm_L1 + c.norm_L2)
    )


def contraction_warnings(spec: ProblemSpec) -> list[str]:
    """The warning that steer and fracsteer solve report when picard_factor is >= 1."""
    rho = picard_factor(spec)
    return [f"contraction factor {rho:.3g} >= 1: convergence not guaranteed"] if rho >= 1.0 else []


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
    out -= 0.5 * h * (ker * forcing[..., :1, :] + forcing)  # ker[0] = E_{alpha,1}(0) = 1
    out[..., 0, :] = 0.0
    return out


def delay_windows(grid: Grid, rows: FloatArray) -> FloatArray:
    """The delay window of every forward node m as one view of rows, no copy:
    rows hold one entry per grid row along axis -2 (leading axes stack paths)
    and view[..., m, :, j] = rows[..., m + j, :], the sample at t_m - r + j h."""
    rows = np.ascontiguousarray(rows)
    return np.ndarray((*rows.shape[:-2], grid.n_fwd + 1, rows.shape[-1], grid.n_hist + 1),
                      rows.dtype, rows, 0, rows.strides + rows.strides[-2:-1])


def eval_f(grid: Grid, values: FloatArray) -> FloatArray:
    """f(t, x(t), x_t) at every forward node m of grid, read off the path
    values (one row per grid row; leading axes stack paths): x(t_m) is its
    forward row m and x_{t_m} its delay window (delay_windows).  f does not
    read t.  f is its pointwise part plus, when f2_gain is nonzero,
    h(t-s) f2(x(s)) integrated over each window by the trapezoid rule: f2
    is applied once per row, then every window of those rows is summed
    with the weights grid.window_weights."""
    desc, n_hist = grid.spec.f_desc, grid.n_hist
    f1 = desc.pointwise(values[..., n_hist:, :])
    if desc.f2_gain == 0.0 or n_hist == 0:
        return f1
    return f1 + delay_windows(grid, _form(desc.f2_form, desc.f2_gain, values)) @ grid.window_weights


def mild_map(grid: Grid, values: FloatArray, bu: FloatArray, lagged: bool = False) -> FloatArray:
    """One Picard sweep: the variation-of-parameters formula of grid's
    problem with f taken at the sampled path values.

    Returns the path x with x(s) = phi(s) - g(x)(s) on the history rows
    s < 0 and x = D(t)(phi(0) - g(x)(0)) + sum_k D(t - t_k) I_k(x(t_k^-))
    + int_0^t D(t - s)(bu + f(s, values(s), values_s)) ds on the forward
    rows, bu the input B u on every forward node: every linear coupling
    reads x, so the sweep reads values only through f.  The forward rows
    are A + start_response * (phi(0) - g(A)(0)) for the path A from
    x(0) = 0, whose impulse kicks read its own left values in time order.
    An anchor at tau = k h makes history row j read row j + k: an
    upper-triangular system with 1 + sum_{tau_i = 0} c_i on its diagonal,
    solved from s = 0 down in blocks of the smallest nonzero k.  lagged
    reads g(x)(0) and I_k(x(t_k^-)) off values instead.  Leading axes of
    values and bu stack paths.

    eval_f reads f once off values, at the stored left values.  At impulse
    node m the trapezoid segment starting there takes f at the right value
    instead; the delay window ends at the left value on both sides, so the
    half weight h/2 carries only the jump of f's pointwise part, at values.
    """
    spec, n_hist, table, anchors = grid.spec, grid.n_hist, grid.kernel_table, grid.anchors
    # first: an undetermined x(0) or history raises before any work
    response = table if lagged else grid.start_response
    diagonal = 1.0 + sum(c for c, k in anchors if k == 0)
    if n_hist and diagonal == 0.0:
        raise EvaluationError("nonlocal condition leaves the history rows undetermined: "
                              "1 + sum of c_i at tau_i = 0 is 0", regime="nonlocal")
    x = values[..., n_hist:, :]
    fwd = _convolve_all(grid, bu + eval_f(grid, values))
    linear = x if lagged else fwd  # the path x(0) and the jumps read
    pointwise = spec.f_desc.pointwise
    for m, scale in grid.kicks:
        left = x[..., m, :]
        kick = scale * linear[..., m, :]
        kick += 0.5 * grid.h * (pointwise(left + scale * left) - pointwise(left))
        fwd[..., m + 1 :, :] += table[1 : grid.n_fwd + 1 - m] * kick[..., None, :]

    phi = spec.phi(grid.times[: n_hist + 1])
    start = phi[-1]
    for c, k in anchors:
        start = start - c * linear[..., k, :]
    fwd += response * start[..., None, :]
    out = np.empty_like(values)
    out[..., n_hist:, :] = fwd
    # history rows from s = 0 down: rows [lo, stop) read only themselves
    # (the diagonal) and rows from stop on, which are final
    block = min((k for _, k in anchors if k), default=max(n_hist, 1))
    for stop in range(n_hist, 0, -block):
        lo = max(stop - block, 0)
        g = sum(c * out[..., lo + k : stop + k, :] for c, k in anchors if k)
        out[..., lo:stop, :] = (phi[lo:stop] - g) / diagonal
    return out


def _iterate(grid: Grid, values: FloatArray, bu: FloatArray, tol: float, max_iter: int,
             lagged: bool) -> tuple[FloatArray, list[list[float]], list[int]]:
    """Picard sweeps on a stack of paths, for at most max_iter sweeps: the
    last iterates, the residual list of every path and the sorted indices of
    those that failed.  A path goes on while its residual r is finite and
    tol < r <= DIVERGED times its first (exact run) or inf (lagged run);
    else its iterate is kept, and it fails unless r is finite and <= tol.
    With f = 0 an exact run stops at the 0.0 a second sweep would measure."""
    # values and bu hold the paths still iterating, ids their rows in out
    out, ids = np.empty_like(values), list(range(len(values)))
    residuals: list[list[float]] = [[] for _ in ids]
    failed: list[int] = []
    f = grid.spec.f_desc
    one_sweep = not lagged and f.f1_gain == f.f2_gain == 0.0
    # a path that overflows stops at a non-finite residual, and solve_mild
    # retries or raises on it, so numpy's warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            new_values = mild_map(grid, values, bu, lagged)
            # max row norm: sqrt is monotone, so the bits of np.linalg.norm
            res = np.sqrt(np.max(np.add.reduce((new_values - values) ** 2, axis=-1), axis=-1))
            values, going = new_values, []
            for i, (k, r) in enumerate(zip(ids, res.tolist())):
                finite = math.isfinite(r)
                r = 0.0 if one_sweep and finite else r
                residuals[k].append(r)
                limit = math.inf if lagged else DIVERGED * residuals[k][0]
                if finite and tol < r <= limit:
                    going.append(i)
                else:
                    out[k] = values[i]
                    if not (finite and r <= tol):
                        failed.append(k)
            if len(going) < len(ids):
                ids, values, bu = [ids[i] for i in going], values[going], bu[going]
                if not ids:
                    break
    out[ids] = values
    return out, residuals, sorted(failed + ids)


def solve_mild(
    spec: ProblemSpec,
    u: ControlSignal,
    tol: float = 1e-10,
    max_iter: int = PICARD_MAX,
    start: FloatArray | None = None,
) -> Trajectory:
    """Picard iteration for the mild solution under the control u.

    Iterates from the path array start, which holds the rows of u's grid
    (one path, or one per control) and is not written, or else from phi on
    [-r, 0] extended constantly by phi(0).  Stops when the sup-norm distance
    between successive iterates drops to tol; a sweep solves every linear
    coupling (mild_map), so with f = 0 the first sweep is the fixed point
    and the solve stops there, with the residual list [0.0].  A path that
    does not get there in max_iter sweeps, whose iterate stops being
    finite, or whose residual passes DIVERGED times its first, starts over
    from its start with lagged sweeps, which read x(0) and the jumps off
    the previous iterate: where f's feedback offsets the nonlocal loop,
    only those converge.  Its residual list then holds both runs.  If the
    lagged run fails too, ConvergenceError carries that run's residuals and
    last iterate.  A stack of controls runs through the same loops (one
    control is a stack of one); each path stops at the sweep where it would
    alone, and the first path that fails both runs raises.
    """
    if not tol > 0.0:
        raise ConfigError(f"tol must be > 0, got {tol}")
    if max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {max_iter}")
    grid = u.grid
    if grid.spec is not spec:
        raise DomainError("control grid belongs to a different problem instance")

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite B u fails at sweep 1
        bu = (u.samples @ spec.B.T).reshape(-1, grid.n_fwd + 1, spec.n_modes)
    shape = (len(bu), len(grid), spec.n_modes)
    if start is not None and np.shape(start) not in (shape, shape[1:]):
        raise DomainError("start must be an array of u's grid rows, one path or one per control")

    values = np.empty(shape)
    values[:] = spec.phi(np.minimum(grid.times, 0.0)) if start is None else start
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
    return Trajectory(grid, out, residuals=residuals)
