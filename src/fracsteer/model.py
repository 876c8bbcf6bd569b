"""Problem description in the truncated sine-basis: state vectors, the
nonlinearity / nonlocal / impulse maps, and the constants ledger feeding the
contraction diagnostics.

State vectors are plain float arrays holding coefficients of the orthonormal
basis sqrt(2/pi)*sin(n*y) on [0, pi]; the Euclidean norm of the coefficients
is the L2 norm of the represented function (Parseval).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    kind: str
    scale: float

    def __post_init__(self):
        if self.kind != "linear":
            raise ConfigError(f"unknown impulse kind {self.kind!r}")

    def apply(self, x_left: FloatArray) -> FloatArray:
        return self.scale * x_left

    @property
    def lipschitz(self) -> float:
        return abs(self.scale)


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
    """Prescribed history data phi(s) on [-r, 0].

    kinds: "zero"; "constant" (phi(s) = coeffs); "linear" (phi(s) = coeffs +
    s * slope).  An array of offsets s gives one row per offset.
    """

    kind: str
    coeffs: FloatArray
    slope: FloatArray | None = None

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "linear"):
            raise ConfigError(f"unknown phi kind {self.kind!r}")
        if self.kind == "linear" and self.slope is None:
            raise ConfigError("phi kind 'linear' requires a slope")

    def __call__(self, s: float | FloatArray) -> FloatArray:
        s = np.asarray(s, dtype=float)
        shape = s.shape + self.coeffs.shape
        if self.kind == "zero":
            return np.zeros(shape)
        if self.kind == "constant":
            return np.full(shape, self.coeffs)
        return self.coeffs + s[..., None] * self.slope


# the params each nonlinearity kind takes
F_PARAMS = {
    "zero": set(),
    "linear": {"gain"},
    "memory": {"f1_gain", "f2_gain", "kernel_rate", "f1_form", "f2_form"},
}


@dataclass(frozen=True)
class NonlinearityDescriptor:
    """Forcing nonlinearity f(t, x, x_t) with its declared Lipschitz/bound data.

    kinds:
      "zero"    -- f = 0
      "linear"  -- f = gain * x
      "memory"  -- f1(t, x) + integral over the delay window of
                   h(t - s) f2(s, x(s)) ds with h(tau) = exp(-rate * tau);
                   f1/f2 are gain*x ("linear") or gain*x/(1+|x|) ("saturating").

    L1, L2 are the declared Lipschitz constants in x and in the history,
    M1 the declared bound, holder_p the exponent p in (0, alpha-1).
    """

    kind: str
    params: dict
    L1: float = 0.0
    L2: float = 0.0
    M1: float = 0.0
    holder_p: float = 0.25

    def __post_init__(self):
        if self.kind not in F_PARAMS:
            raise ConfigError(f"unknown nonlinearity kind {self.kind!r}")
        unknown = set(self.params) - F_PARAMS[self.kind]
        if unknown:
            raise ConfigError(f"unknown key(s) {sorted(unknown)} in f.params")
        for key in ("f1_form", "f2_form"):
            form = self.params.get(key, "linear")
            if form not in ("linear", "saturating"):
                raise ConfigError(f"f.params.{key} must be 'linear' or 'saturating', got {form!r}")
        if min(self.L1, self.L2, self.M1) < 0.0:
            raise ConfigError("Lipschitz/bound constants must be >= 0")

    def pointwise(self, x: FloatArray) -> FloatArray:
        """The part of f that depends on x(t) alone: gain * x for "linear",
        f1(x) for "memory", 0 for "zero"."""
        p = self.params
        if self.kind == "zero":
            return np.zeros_like(x)
        if self.kind == "linear":
            return self._form("linear", float(p.get("gain", 0.0)), x)
        return self._form(p.get("f1_form", "linear"), float(p.get("f1_gain", 0.0)), x)

    def _form(self, form: str, gain: float, x: FloatArray) -> FloatArray:
        if form == "linear":
            return gain * x
        return gain * x / (1.0 + np.linalg.norm(x, axis=-1, keepdims=True))  # "saturating"


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

    def __post_init__(self):
        if min(self.M, self.M_B, self.l_1, self.l_2, self.l_g) < 0 or self.K < 0:
            raise ConfigError("ledger constants must be non-negative")
        if min(self.norm_L1, self.norm_L2, self.norm_M1) < 0:
            raise ConfigError("ledger norms must be non-negative")


def _lp_norm_const(value: float, p: float, horizon: float) -> float:
    # L_{1/p} norm of a constant curve: (int_0^T c^{1/p} dt)^p = c * T^p
    if value == 0.0:
        return 0.0
    return value * horizon**p


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
    constants: ConstantsLedger = field(init=False)

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
        object.__setattr__(self, "constants", self._build_ledger())

    def _numeric_fields(self):
        """(config name, value) of every number the problem is built from."""
        f = self.f_desc
        slope = 0.0 if self.phi.slope is None else self.phi.slope
        yield from [("alpha", self.alpha), ("omega", self.omega), ("T", self.horizon),
                    ("r", self.delay), ("phi.coeffs", self.phi.coeffs), ("phi.slope", slope),
                    ("B", self.B), ("f.L1", f.L1), ("f.L2", f.L2), ("f.M1", f.M1),
                    ("f.p", f.holder_p)]
        for i, imp in enumerate(self.impulses):
            yield from [(f"impulses[{i}].t", imp.t), (f"impulses[{i}].scale", imp.scale)]
        for i, term in enumerate(self.nonlocal_terms):
            yield from [(f"nonlocal[{i}].c", term.c), (f"nonlocal[{i}].tau", term.tau)]
        for key, value in f.params.items():
            if not key.endswith("_form"):
                yield f"f.params.{key}", value

    def _build_ledger(self) -> ConstantsLedger:
        p = self.f_desc.holder_p
        l_2 = max((imp.lipschitz for imp in self.impulses), default=0.0)
        return ConstantsLedger(
            M=self.operator_bound(),
            M_B=float(np.linalg.norm(self.B, 2)),
            l_1=l_2,  # linear impulses: bound on the unit ball equals the slope
            l_2=l_2,
            l_g=float(sum(abs(t.c) for t in self.nonlocal_terms)),
            K=len(self.impulses),
            norm_L1=_lp_norm_const(self.f_desc.L1, p, self.horizon),
            norm_L2=_lp_norm_const(self.f_desc.L2, p, self.horizon),
            norm_M1=_lp_norm_const(self.f_desc.M1, p, self.horizon),
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
    """Nonlinearity value f(t, x, x_t) at a stack of times; no kind reads t.

    x holds one state row per time and hist the matching stacked windows;
    leading axes of x and hist.values stack paths.  f is its pointwise part
    plus, for the memory kind, h(t-s) f2(s, x(s)) integrated over each
    trailing delay window by the composite trapezoid rule on the window's own
    sub-grid: f2 is applied once per trajectory row, then every window is
    summed over a sliding view of those rows.
    """
    desc, p = spec.f_desc, spec.f_desc.params
    f1 = desc.pointwise(np.asarray(x, dtype=float))
    f2_gain = float(p.get("f2_gain", 0.0))  # 0 unless the kind is memory
    width = len(hist.offsets)
    if f2_gain == 0.0 or width < 2:
        return f1
    rate = float(p.get("kernel_rate", 1.0))
    rows = desc._form(p.get("f2_form", "linear"), f2_gain, hist.values)
    w = trapezoid_weights(width, hist.offsets[1] - hist.offsets[0])
    w *= np.exp(rate * hist.offsets)  # h(t - s) = exp(-rate (t - s))
    windows = sliding_window_view(rows, width, axis=-2)  # (..., M, N, W), no copy
    return f1 + windows @ w


def eval_impulse(spec: ProblemSpec, k: int, x_left: FloatArray) -> FloatArray:
    """Jump vector I_k(x(t_k^-)); k is a zero-based impulse index."""
    if not (0 <= k < len(spec.impulses)):
        raise DomainError(f"impulse index {k} out of range")
    return spec.impulses[k].apply(np.asarray(x_left, dtype=float))
