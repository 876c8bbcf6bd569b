"""Problem description in the truncated sine-basis: state vectors, the
nonlinearity / nonlocal / impulse maps, and the constants ledger feeding the
contraction diagnostics, built on first read: no solve reads it.

State vectors are plain float arrays holding coefficients of the orthonormal
basis sqrt(2/pi)*sin(n*y) on [0, pi]; the Euclidean norm of the coefficients
is the L2 norm of the represented function (Parseval).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.typing import NDArray

from .errors import ConfigError, DomainError
from .mittag import mittag_leffler

FloatArray = NDArray[np.float64]
_LOG_MAX = math.log(np.finfo(float).max)


def trapezoid_weights(n: int, h: float) -> FloatArray:
    """Composite trapezoid weights of n samples spaced h apart."""
    w = np.full(n, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _check_finite(name: str, value) -> None:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number") from None
    if not np.all(np.isfinite(arr)):
        got = f", got {value}" if arr.ndim == 0 else ""
        raise ConfigError(f"{name} must be finite{got}")


@dataclass(frozen=True)
class ImpulseDescriptor:
    """State jump at time t: I(x) = scale * x."""

    t: float
    scale: float


@dataclass(frozen=True)
class NonlocalTerm:
    c: float
    tau: float


@dataclass(frozen=True)
class HistorySegment:
    """Trailing delay windows of M grid nodes one step apart: window i holds
    samples of x(t_i + s), s in offsets, aligned with the trajectory grid.
    values holds the M + W - 1 trajectory rows the windows share
    (W = len(offsets)) and window i is values[i : i + W]; leading axes of
    values stack paths."""

    offsets: FloatArray  # uniform, offsets[0] = -r, offsets[-1] = 0
    values: FloatArray  # shape (..., M + W - 1, N)

    def sup_norm(self) -> FloatArray:
        """Largest sample norm in each window."""
        norms = np.linalg.norm(self.values, axis=-1)
        return sliding_window_view(norms, len(self.offsets), axis=-1).max(axis=-1)


@dataclass(frozen=True)
class PhiDescriptor:
    """Prescribed history data phi(s) = coeffs + s * slope on [-r, 0]; no
    slope means a zero slope.  An array of offsets s gives one row per offset."""

    coeffs: FloatArray
    slope: FloatArray | None = None

    def __call__(self, s: float | FloatArray) -> FloatArray:
        s = np.asarray(s, dtype=float)
        if self.slope is None:
            return np.full(s.shape + self.coeffs.shape, self.coeffs)
        return self.coeffs + s[..., None] * self.slope


def _form(form: str, gain: float, x: FloatArray) -> FloatArray:
    if form == "linear":
        return gain * x
    return gain * x / (1.0 + np.linalg.norm(x, axis=-1, keepdims=True))  # "saturating"


@dataclass(frozen=True)
class NonlinearityDescriptor:
    """Forcing nonlinearity f(t, x, x_t) = f1(x) + the integral over the delay
    window of h(t - s) f2(x(s)) ds, h(tau) = exp(-kernel_rate * tau), with its
    declared Lipschitz/bound data.  f1 and f2 are gain * x (form "linear") or
    gain * x / (1 + |x|) (form "saturating"); a zero gain switches its part
    off, so the defaults give f = 0.

    L1, L2 are the declared Lipschitz constants in x and in the history,
    M1 the declared bound, holder_p the exponent p in (0, alpha-1).
    """

    f1_gain: float = 0.0
    f1_form: str = "linear"
    f2_gain: float = 0.0
    f2_form: str = "linear"
    kernel_rate: float = 1.0
    L1: float = 0.0
    L2: float = 0.0
    M1: float = 0.0
    holder_p: float = 0.25

    def __post_init__(self):
        if min(self.L1, self.L2, self.M1) < 0.0:
            raise ConfigError("Lipschitz/bound constants must be >= 0")

    def pointwise(self, x: FloatArray) -> FloatArray:
        """f1(x), the part of f that depends on x(t) alone."""
        return _form(self.f1_form, self.f1_gain, x)


@dataclass(frozen=True)
class ConstantsLedger:
    """All scalar constants the contraction inequality consumes."""

    M: float  # solution-operator bound over [0, T]
    M_B: float  # operator norm of the input map
    l_1: float  # impulse bound (on the unit ball for linear impulses)
    l_2: float  # impulse Lipschitz constant
    l_g: float  # nonlocal Lipschitz constant, sum of |c_i|
    K: int  # impulse count
    norm_L1: float  # L_{1/p} norm of L1 over [0, T]
    norm_L2: float
    norm_M1: float


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Immutable description of one truncated problem instance.

    Equality is identity: the ndarray fields make structural equality
    ill-defined, and one instance is meant to be shared per problem."""

    alpha: float
    omega: float
    n_modes: int
    horizon: float  # T
    delay: float  # r
    impulses: tuple[ImpulseDescriptor, ...]
    nonlocal_terms: tuple[NonlocalTerm, ...]
    phi: PhiDescriptor
    f_desc: NonlinearityDescriptor
    B: FloatArray

    def __post_init__(self):
        for name, value in self._numeric_fields():
            _check_finite(name, value)
        if not (1.0 < self.alpha < 2.0):
            raise ConfigError(f"alpha must lie in (1, 2), got {self.alpha}")
        if self.omega < 0.0:
            raise ConfigError("omega must be >= 0")
        if self.n_modes < 1:
            raise ConfigError("N must be >= 1")
        if self.horizon <= 0.0:
            raise ConfigError("T must be > 0")
        if self.alpha * math.log(self.horizon) + math.log(-self.eigenvalues[-1]) > _LOG_MAX:
            raise ConfigError(
                f"T must be small enough for a finite |lambda_N| T^alpha, got {self.horizon}"
            )
        if self.delay < 0.0:
            raise ConfigError("r must be >= 0")
        times = [imp.t for imp in self.impulses]
        if any(not (0.0 < t < self.horizon) for t in times):
            raise ConfigError("impulse times must lie strictly inside (0, T)")
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ConfigError("impulse times must be strictly increasing")
        for term in self.nonlocal_terms:
            if not (0.0 <= term.tau <= self.horizon):
                raise ConfigError("nonlocal anchors must lie in [0, T]")
        if len(self.phi.coeffs) != self.n_modes:
            raise ConfigError("phi coefficient length must equal N")
        B = np.asarray(self.B, dtype=float)
        if B.shape != (self.n_modes, self.n_modes):
            raise ConfigError(f"B must be {self.n_modes}x{self.n_modes}")
        p = self.f_desc.holder_p
        if not (0.0 < p < self.alpha - 1.0):
            raise ConfigError(
                f"holder exponent p={p} must lie in (0, alpha-1)=(0, {self.alpha - 1})"
            )
        object.__setattr__(self, "B", B)

    def _numeric_fields(self):
        """(config name, value) of every number the problem is built from."""
        f = self.f_desc
        slope = 0.0 if self.phi.slope is None else self.phi.slope
        yield from [("alpha", self.alpha), ("omega", self.omega), ("T", self.horizon),
                    ("r", self.delay), ("phi.coeffs", self.phi.coeffs), ("phi.slope", slope),
                    ("B", self.B), ("f.f1_gain", f.f1_gain), ("f.f2_gain", f.f2_gain),
                    ("f.kernel_rate", f.kernel_rate), ("f.L1", f.L1), ("f.L2", f.L2),
                    ("f.M1", f.M1), ("f.p", f.holder_p)]
        for i, imp in enumerate(self.impulses):
            yield from [(f"impulses[{i}].t", imp.t), (f"impulses[{i}].scale", imp.scale)]
        for i, term in enumerate(self.nonlocal_terms):
            yield from [(f"nonlocal[{i}].c", term.c), (f"nonlocal[{i}].tau", term.tau)]

    @cached_property
    def constants(self) -> ConstantsLedger:
        """The contraction ledger, built on first read and kept while the spec lives."""
        p = self.f_desc.holder_p
        l_2 = max((abs(imp.scale) for imp in self.impulses), default=0.0)
        # L_{1/p} norm of a constant curve c: (int_0^T c^{1/p} dt)^p = c T^p
        t_p = self.horizon**p
        return ConstantsLedger(
            M=self.operator_bound(),
            M_B=float(np.linalg.norm(self.B, 2)),
            l_1=l_2,  # linear impulses: bound on the unit ball equals the slope
            l_2=l_2,
            l_g=float(sum(abs(t.c) for t in self.nonlocal_terms)),
            K=len(self.impulses),
            norm_L1=self.f_desc.L1 * t_p,
            norm_L2=self.f_desc.L2 * t_p,
            norm_M1=self.f_desc.M1 * t_p,
        )

    @property
    def eigenvalues(self) -> FloatArray:
        n = np.arange(1, self.n_modes + 1, dtype=float)
        return -(n**2) - self.omega

    def operator_bound(self) -> float:
        """max over a 65-point t-grid and all modes of |E_{alpha,1}(lam_n t^alpha)|."""
        ts = np.linspace(0.0, self.horizon, 65)
        lam_worst = self.eigenvalues[np.argmax(np.abs(self.eigenvalues))]
        z = np.multiply.outer(ts**self.alpha, [self.eigenvalues[0], lam_worst])
        return float(np.abs(mittag_leffler(self.alpha, 1.0, z)).max())

    def check_vector(self, x) -> FloatArray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_modes,):
            raise DomainError(f"state vector must have shape ({self.n_modes},)")
        return x


def eval_f(spec: ProblemSpec, x: FloatArray, hist: HistorySegment) -> FloatArray:
    """Nonlinearity value f(t, x, x_t) at a stack of times; f does not read t.

    x holds one state row per time and hist the matching stacked windows;
    leading axes of x and hist.values stack paths.  f is its pointwise part
    plus, when f2_gain is nonzero, h(t-s) f2(s, x(s)) integrated over each
    trailing delay window by the composite trapezoid rule on the window's own
    sub-grid: f2 is applied once per trajectory row, then every window is
    summed over a sliding view of those rows.
    """
    desc = spec.f_desc
    f1 = desc.pointwise(np.asarray(x, dtype=float))
    width = len(hist.offsets)
    if desc.f2_gain == 0.0 or width < 2:
        return f1
    rows = _form(desc.f2_form, desc.f2_gain, hist.values)
    w = trapezoid_weights(width, hist.offsets[1] - hist.offsets[0])
    w *= np.exp(desc.kernel_rate * hist.offsets)  # h(t - s) = exp(-rate (t - s))
    windows = sliding_window_view(rows, width, axis=-2)  # (..., M, N, W), no copy
    return f1 + windows @ w
