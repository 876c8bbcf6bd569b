"""Two-parameter Mittag-Leffler evaluation and the diagonal solution operator.

E_{alpha,beta}(z) = sum_k z^k / Gamma(alpha*k + beta) is the scalar kernel of
the fractional solution operator: on an eigenvector with eigenvalue lam <= 0
the operator acts as E_{alpha,1}(lam * t^alpha).

Real arguments only; the negative real axis is the primary regime.  Scalar
calls (mittag_leffler, ml_eval) pick one of four routes per point:

  * compensated Taylor series with a running rounding-error gate,
  * a branch-cut integral representation plus (for alpha > 1) the residue
    pair of the Laplace-domain poles, exact for z < 0,
  * the algebraic asymptotic expansion for z < -50, augmented with the same
    exponentially damped residue term and gated by its own error estimate,
  * closed forms for alpha = 1 (confluent hypergeometric) and alpha = 2
    (trigonometric / hyperbolic families).

The integral route (QUADPACK) is the fallback whenever a cheaper route
cannot certify the accuracy target (5e-12 absolute or 1e-13 relative,
whichever is looser); the asymptotic route certifies 1e-8 relative.

solution_operator_diag builds a whole (time x mode) table in array code
instead: the same series, gate and targets at every point z >= -50 the gate
certifies, and one fixed-node Gauss-Legendre quadrature of the branch-cut
integral (the same for every point) plus the residue pair everywhere else.
Against the extended-precision branch-cut oracle in the tests that
quadrature is within 1.2e-14 absolute for alpha in [1.001, 1.999] and
(-z)^{1/alpha} in [0.5, 60]; the series points within 2.3e-13.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import hyp1f1

from .errors import EvaluationError, ParameterError

_EPS = 2.220446049250313e-16

# Absolute / relative accuracy targets a route must certify to be accepted.
_ABS_TARGET = 5.0e-12
_REL_TARGET = 1.0e-13

# z below this uses the asymptotic branch first (falls back if not accurate).
_ASYMPTOTIC_CUTOFF = -50.0

_SERIES_MAX_TERMS = 600

# The table's branch-cut quadrature ends at v = 64: it is certified for
# w = (-z)^{1/alpha} >= 0.5, where exp(-w v) < e^{-32} past that end.
_CUT_W_MIN = 0.5
# Largest exp(-w v) block of that quadrature in float64 entries (512 kB), so
# a table build does not raise a run's peak memory.
_BLOCK_ENTRIES = 2**16


@dataclass(frozen=True)
class MLQuery:
    """Validated point (alpha, beta, z) at which E_{alpha,beta} is evaluated."""

    alpha: float
    beta: float
    z: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= 2.0):
            raise ParameterError(f"alpha must lie in (0, 2], got {self.alpha}")
        if not (self.beta > 0.0):
            raise ParameterError(f"beta must be > 0, got {self.beta}")
        if not math.isfinite(self.z):
            raise ParameterError(f"z must be finite, got {self.z}")


def _recip_gamma(w: float) -> float:
    """1/Gamma(w) for real w, stable across the poles (where it vanishes)."""
    if w > 1e-9:
        if w <= 170.0:
            return 1.0 / math.gamma(w)
        return math.exp(-math.lgamma(w))
    n = round(w)
    if abs(w - n) < 1e-9 and n <= 0:
        return 0.0
    if w >= -170.0:
        return 1.0 / math.gamma(w)
    # deep negative argument: reflect; Gamma(1 - w) is positive there
    return math.sin(math.pi * w) * math.exp(math.lgamma(1.0 - w)) / math.pi


def _series(alpha: float, beta: float, z: float):
    """Compensated Taylor series.

    Returns (value, certified) where certified is False when accumulated
    rounding (dominated by per-term gamma-argument rounding, ~50 eps * sum|t|)
    cannot be certified below the accuracy target.
    """
    if z == 0.0:
        return 1.0 / math.gamma(beta), True
    acc = 0.0
    comp = 0.0
    sum_abs = 0.0
    ln_z = math.log(abs(z))
    negative = z < 0.0
    k = 0
    while k < _SERIES_MAX_TERMS:
        ln_t = k * ln_z - math.lgamma(alpha * k + beta)
        if ln_t > 700.0:
            if negative:
                return 0.0, False  # term overflow: cancellation regime, reject
            return math.inf, True  # genuine overflow of a positive-term sum
        t = math.exp(ln_t) if ln_t > -745.0 else 0.0
        if negative and (k & 1):
            t = -t
        s = acc + t
        comp += ((acc - s) + t) if abs(acc) >= abs(t) else ((t - s) + acc)
        acc = s
        sum_abs += abs(t)
        if k > 2 and abs(t) <= 1e-17 * max(abs(acc + comp), 1e-300) and abs(t) < 1.0:
            break
        k += 1
    val = acc + comp
    err = 50.0 * _EPS * sum_abs
    return val, err <= max(_ABS_TARGET, _REL_TARGET * abs(val))


def _residue_pair(alpha: float, beta: float, x: float) -> float:
    """Residue contribution of the conjugate pole pair, alpha in (1, 2).

    The poles of s^{alpha-beta}/(s^alpha + x) sit at x^{1/alpha} e^{+-i pi/alpha},
    in the open left half-plane for alpha < 2, hence the exponential damping.
    """
    w = x ** (1.0 / alpha)
    damp = w * math.cos(math.pi / alpha)
    if damp < -745.0:
        return 0.0
    return (
        (2.0 / alpha)
        * x ** ((1.0 - beta) / alpha)
        * math.exp(damp)
        * math.cos(w * math.sin(math.pi / alpha) + math.pi * (1.0 - beta) / alpha)
    )


def _integral(alpha: float, beta: float, z: float) -> float:
    """Branch-cut integral + residues; exact representation for z < 0.

    Valid for alpha in (0, 2) excluding 1.  beta is first reduced into
    (0, alpha + 1) through E_{a,b}(z) = (E_{a,b-a}(z) - 1/Gamma(b-a)) / z so
    the integrand stays integrable at r = 0.
    """
    x = -z
    shifts = []
    b = beta
    while b >= alpha + 1.0:
        b -= alpha
        shifts.append(b)

    c = math.cos(math.pi * alpha)
    s1 = math.sin(math.pi * (1.0 - b))
    s2 = math.sin(math.pi * (1.0 + alpha - b))

    def integrand(r: float) -> float:
        ra = r**alpha
        return (
            math.exp(-r)
            * r ** (alpha - b)
            * (ra * s1 + x * s2)
            / (ra * ra + 2.0 * x * ra * c + x * x)
        )

    w = x ** (1.0 / alpha)
    upper = 780.0  # exp(-r) underflows past this point
    pts = [w] if 0.0 < w < upper else None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, abserr = quad(
            integrand, 0.0, upper, points=pts, limit=400, epsabs=1e-15, epsrel=1e-13
        )
    if not math.isfinite(val) or abserr > 1e-8 * max(1.0, abs(val)):
        raise EvaluationError(
            f"branch-cut quadrature failed for alpha={alpha}, beta={beta}, z={z}"
            f" (abserr={abserr:.2e})",
            regime="integral",
        )
    val /= math.pi
    if alpha > 1.0:
        val += _residue_pair(alpha, b, x)
    for b_prev in reversed(shifts):
        val = (val - 1.0 / math.gamma(b_prev)) / z
    return val


def _asymptotic(alpha: float, beta: float, z: float):
    """Algebraic-decay expansion + residue pair, smallest-term truncation.

    Returns (value, certified).  The estimate (smallest retained term plus
    term rounding) must clear a 1e-8 relative bar, well inside the 1e-6
    contract for this branch; otherwise the caller falls back.
    """
    x = -z
    pole = _residue_pair(alpha, beta, x) if alpha > 1.0 else 0.0
    total = 0.0
    sum_abs = 0.0
    best = math.inf
    xk = 1.0
    for k in range(1, 400):
        xk /= x
        if xk == 0.0:
            break
        term = -((-1.0) ** k) * xk * _recip_gamma(beta - alpha * k)
        mag = abs(term)
        if mag > best > 0.0:
            break  # past the smallest term: divergent tail begins
        if 0.0 < mag < best:
            best = mag
        total += term
        sum_abs += mag
    val = total + pole
    trunc = 0.0 if best is math.inf else best
    est = trunc + 1e-14 * sum_abs
    return val, est <= 1e-8 * max(abs(val), 1e-300)


def _alpha_one(beta: float, z: float) -> float:
    if beta == 1.0:
        return math.exp(z) if z <= 709.0 else math.inf
    val = float(hyp1f1(1.0, beta, z)) / math.gamma(beta)
    if not math.isfinite(val):
        raise EvaluationError(
            f"confluent-hypergeometric route failed for beta={beta}, z={z}",
            regime="hyp1f1",
        )
    return val


def _alpha_two(beta: float, z: float):
    """alpha = 2 closed forms; extended-precision series for other beta."""
    if beta == 1.0:
        if z >= 0.0:
            s = math.sqrt(z)
            return (math.cosh(s) if s <= 709.0 else math.inf), "closed-form"
        return math.cos(math.sqrt(-z)), "closed-form"
    if beta == 2.0:
        if z == 0.0:
            return 1.0, "closed-form"
        if z > 0.0:
            s = math.sqrt(z)
            return (math.sinh(s) / s if s <= 709.0 else math.inf), "closed-form"
        s = math.sqrt(-z)
        return math.sin(s) / s, "closed-form"
    val, ok = _series(2.0, beta, z)
    if ok:
        return val, "series"
    return _mp_series(2.0, beta, z), "extended-series"


def _mp_series(alpha: float, beta: float, z: float) -> float:
    # precision scaled to the predicted peak term; rare edge regime only
    from mpmath import mp

    x = abs(z)
    w = x ** (1.0 / alpha)
    k_peak = max(3, int(w / alpha) + 2)
    ln_peak = k_peak * math.log(x) - math.lgamma(alpha * k_peak + beta)
    dps = max(40, int(ln_peak / 2.302585) + 40)
    with mp.workdps(dps):
        s = mp.mpf(0)
        zz = mp.mpf(z)
        aa = mp.mpf(alpha)
        bb = mp.mpf(beta)
        k = 0
        while True:
            t = zz**k / mp.gamma(aa * k + bb)
            s += t
            if k > k_peak and abs(t) < mp.mpf(10) ** (-dps) * max(abs(s), mp.mpf(1)):
                break
            k += 1
            if k > 200000:
                raise EvaluationError(
                    f"extended-precision series failed for alpha={alpha}, "
                    f"beta={beta}, z={z}",
                    regime="extended-series",
                )
        return float(s)


def _eval_tagged(alpha: float, beta: float, z: float):
    if alpha == 1.0:
        return _alpha_one(beta, z), "hyp1f1"
    if alpha == 2.0:
        return _alpha_two(beta, z)
    if z < _ASYMPTOTIC_CUTOFF:
        val, ok = _asymptotic(alpha, beta, z)
        if ok:
            return val, "asymptotic"
        return _integral(alpha, beta, z), "integral"
    val, ok = _series(alpha, beta, z)
    if ok:
        return val, "series"
    if z < 0.0:
        return _integral(alpha, beta, z), "integral"
    raise EvaluationError(
        f"series not certifiable for alpha={alpha}, beta={beta}, z={z}",
        regime="series",
    )


def ml_eval(q: MLQuery) -> float:
    """E_{alpha,beta}(z) at a validated query point.

    Absolute error <= 1e-10 for |z| <= 50; relative error <= 1e-6 on the
    algebraic-decay branch used for z < -50 (in practice far tighter).
    """
    return _eval_tagged(q.alpha, q.beta, q.z)[0]


def mittag_leffler(alpha: float, beta: float, z: float) -> float:
    """Convenience wrapper: validate and evaluate in one call."""
    return ml_eval(MLQuery(alpha, beta, z))


def solution_operator_diag(t, alpha: float, eigs) -> np.ndarray:
    """Diagonal of the solution operator at each time t: entry [..., n] is
    E_{alpha,1}(lam_n * t^alpha), with shape np.shape(t) + (len(eigs),).

    Requires t >= 0, alpha in (1, 2) and all eigenvalues <= 0 (the sectorial
    regime of the diagonal model); at t = 0 every entry is exactly 1.  Raises
    EvaluationError instead of returning a value no route certifies.
    """
    ts = np.asarray(t, dtype=float)
    if not np.all(ts >= 0.0):
        raise ParameterError(f"t must be >= 0, got {ts[~(ts >= 0.0)].flat[0]}")
    if not (1.0 < alpha < 2.0):
        raise ParameterError(f"alpha must lie in (1, 2), got {alpha}")
    lam = np.asarray(eigs, dtype=float)
    if lam.ndim != 1:
        raise ParameterError("eigs must be a one-dimensional sequence")
    if np.any(lam > 0.0):
        raise ParameterError("positive eigenvalue: outside the sectorial regime")
    x = -np.multiply.outer(ts**alpha, lam)
    out = np.ones_like(x)
    live = x > 0.0
    # the series where the scalar route tries it and its gate certifies the
    # point, the fixed-node branch-cut quadrature everywhere else
    z = x[live]
    val = np.empty_like(z)
    rest = z > -_ASYMPTOTIC_CUTOFF
    near = np.flatnonzero(~rest)
    val[near], certified = _series_table(alpha, z[near])
    rest[near[~certified]] = True
    if rest.any():
        val[rest] = _branch_cut_table(alpha, z[rest])
    if not np.all(np.isfinite(val)):
        raise EvaluationError(f"non-finite kernel value for alpha={alpha}", regime="table")
    out[live] = val
    return out


def _series_table(alpha: float, x: np.ndarray):
    """_series(alpha, 1, -x) for a 1-D array of 0 < x <= 50, one array sum
    per term, with the same compensated sum, rounding gate and targets.

    The sum stops once every point meets the scalar loop's stopping rule; a
    point that met it earlier gains only terms below 1e-17 of its value.
    Terms stay below e^50 here, so the loop's overflow exit never applies.
    Returns (values, certified).
    """
    ln_x = np.log(x)
    acc, comp, size = np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)
    for k in range(_SERIES_MAX_TERMS):
        mag = np.exp(k * ln_x - math.lgamma(alpha * k + 1.0))
        size += mag
        t = -mag if k & 1 else mag
        s = acc + t
        back = s - acc
        comp += (acc - (s - back)) + (t - back)  # exact rounding error of acc + t
        acc = s
        if k > 2 and np.all((mag <= 1e-17 * np.abs(acc + comp)) & (mag < 1.0)):
            break
    val = acc + comp
    return val, 50.0 * _EPS * size <= np.maximum(_ABS_TARGET, _REL_TARGET * np.abs(val))


def _cut_nodes(alpha: float):
    """Nodes v and weights c of the fixed-node branch-cut quadrature.

    Composite 16-point Gauss-Legendre panels on [0, 64]; c folds in K(v)/pi,
    K(v) = v^{alpha-1} sin(pi alpha) / (v^{2 alpha} + 2 v^alpha cos(pi alpha) + 1).
    Panels halve toward v = 0, where K ~ v^{alpha-1} sin(pi alpha), until the
    first one, [0, v_0], adds less than 1e-17 to the value; they halve toward
    v = 1 down to half the distance from 1 to the poles e^{+-i pi (alpha-1)/alpha}
    of K, which reach the cut as alpha -> 1; beyond 2 they double up to 64.
    """
    d = alpha - 1.0  # exact, so sin(pi d) = -sin(pi alpha) has no cancellation
    s = math.sin(math.pi * d)
    n0 = math.ceil(math.log2(0.5 / (1e-17 * math.pi * alpha / s) ** (1.0 / alpha)))
    n1 = math.ceil(-math.log2(2.0 * math.sin(0.5 * math.pi * d / alpha))) + 1
    edges = np.concatenate([
        [0.0], 0.5 ** np.arange(n0, 0, -1),
        1.0 - 0.5 ** np.arange(2, n1 + 1), [1.0], 1.0 + 0.5 ** np.arange(n1, 0, -1),
        2.0 ** np.arange(1, 7),
    ])
    gx, gw = np.polynomial.legendre.leggauss(16)
    half, mid = 0.5 * np.diff(edges)[:, None], 0.5 * (edges[1:] + edges[:-1])[:, None]
    v = (half * gx + mid).ravel()
    lv = np.log(v)
    # the denominator as (v^alpha - 1)^2 + 2 v^alpha (1 + cos(pi alpha)): no
    # cancellation next to v = 1 when alpha -> 1
    k = -s * np.exp(d * lv) / (
        np.expm1(alpha * lv) ** 2 + 4.0 * np.exp(alpha * lv) * math.sin(0.5 * math.pi * d) ** 2
    )
    return v, (half * gw).ravel() * k / math.pi


def _branch_cut_table(alpha: float, x: np.ndarray) -> np.ndarray:
    """E_{alpha,1}(-x) for a 1-D array of x with w = x^{1/alpha} >= _CUT_W_MIN.

    Substituting r = w v in the branch-cut integral of _integral (beta = 1)
    leaves int_0^inf exp(-w v) K(v) dv / pi, with K independent of x, so one
    node set serves every point; the residue pair is added as in _integral.
    exp(-w v) is formed in row blocks of at most _BLOCK_ENTRIES entries.
    """
    w = x ** (1.0 / alpha)
    if np.any(w < _CUT_W_MIN):
        raise EvaluationError(f"no route certifies alpha={alpha}, z={-x.min()}", regime="table")
    v, c = _cut_nodes(alpha)
    out = np.empty_like(w)
    rows = max(1, _BLOCK_ENTRIES // v.size)
    for i in range(0, w.size, rows):
        e = np.multiply.outer(w[i : i + rows], -v)
        out[i : i + rows] = np.exp(e, out=e) @ c
    damp, freq = math.cos(math.pi / alpha), math.sin(math.pi / alpha)
    return out + (2.0 / alpha) * np.exp(w * damp) * np.cos(w * freq)
