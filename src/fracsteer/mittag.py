"""Two-parameter Mittag-Leffler evaluation.

E_{alpha,beta}(z) = sum_k z^k / Gamma(alpha*k + beta) is the scalar kernel of
the fractional solution operator: on an eigenvector with eigenvalue lam <= 0
the operator acts as E_{alpha,1}(lam * t^alpha).

Real arguments only; the negative real axis is the primary regime.  One array
evaluator serves a single point (mittag_leffler of a float) and a whole table
(mittag_leffler of an array, as Grid.kernel_table calls it):

  * the compensated Taylor series, one array sum per term, at every z >= -50;
    a point counts only if it met the stopping rule and its rounding gate
    certifies 5e-12 absolute or 1e-13 relative, whichever is looser;
  * at every other z < 0, one fixed-node Gauss-Legendre quadrature of the
    branch-cut integral (Gorenflo, Loutchko & Luchko, Fract. Calc. Appl.
    Anal. 5(4), 2002) with the same nodes for every point, plus for alpha > 1
    the residue pair of the Laplace-domain poles;
  * closed forms at alpha = 1 (exponential, confluent hypergeometric), which
    takes neither route above.

A point no route certifies raises EvaluationError; no route returns a NaN.
A point's value does not depend on the other points of the array.
Measured against extended-precision references: within 1.2e-14 absolute on
the quadrature for alpha in [1.001, 1.999] and (-z)^{1/alpha} in [0.5, 60],
and within 3.7e-13 on the series points there; over alpha in [0.3, 1.99],
beta in [0.5, 3.2] and z in [-1e4, 5], within 5.9e-13 (the smaller of the
absolute and the relative error); at alpha = 2, over beta in
{0.5, 1, 1.5, 2, 2.5, 3.2} and z in [-1e3, 5], within 6.6e-13 absolute.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, EvaluationError

_EPS = 2.220446049250313e-16

# Absolute / relative accuracy targets the series' rounding gate certifies.
_ABS_TARGET = 5.0e-12
_REL_TARGET = 1.0e-13

# The series is tried at z >= _SERIES_Z_MIN only: further out on the negative
# axis its terms cancel beyond what the rounding gate certifies.
_SERIES_Z_MIN = -50.0

# Most terms of the series, and most beta -> beta - alpha reductions of the
# quadrature (each is one term of the same sum).
_SERIES_MAX_TERMS = 600

# The branch-cut quadrature ends at v = 64: it is certified for
# w = (-z)^{1/alpha} >= 0.5, where exp(-w v) < e^{-32} past that end.
_CUT_W_MIN = 0.5
# Largest exp(-w v) block of that quadrature in float64 entries (512 kB), so
# a table build does not raise a run's peak memory.
_BLOCK_ENTRIES = 2**16
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(16)


def _check(alpha: float, beta: float, z: np.ndarray) -> None:
    if not (0.0 < alpha <= 2.0):
        raise ConfigError(f"alpha must lie in (0, 2], got {alpha}")
    if not (0.0 < beta < math.inf):
        raise ConfigError(f"beta must be finite and > 0, got {beta}")
    bad = z[~np.isfinite(z)]
    if bad.size:
        raise ConfigError(f"z must be finite, got {bad[0]}")


def mittag_leffler(alpha: float, beta: float, z):
    """E_{alpha,beta}(z), validated: a float for a real z, an array of z's
    shape for an array of them."""
    zs = np.asarray(z, dtype=float)
    _check(alpha, beta, zs)
    out = _evaluate(alpha, beta, zs.ravel()).reshape(zs.shape)
    return float(out) if zs.ndim == 0 else out


def _evaluate(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """E_{alpha,beta} at every point of a 1-D array z of validated arguments."""
    if alpha == 1.0:
        return _alpha_one(beta, z)
    out = np.empty_like(z)
    rest = z < _SERIES_Z_MIN
    out[~rest], certified = _series(alpha, beta, z[~rest])
    rest[~rest] = ~certified
    out[rest] = _branch_cut(alpha, beta, -z[rest])
    return out


def _alpha_one(beta: float, z: np.ndarray) -> np.ndarray:
    """E_{1,beta} at a 1-D array z: exp(z) point by point at beta = 1
    (math.exp, which np.exp differs from in the last bit on some points),
    else one array call of 1F1(1; beta; z) / Gamma(beta)."""
    if beta == 1.0:
        return np.array([_exp(v) for v in z.tolist()], dtype=float)
    from scipy.special import hyp1f1

    val = hyp1f1(1.0, beta, z) / math.gamma(beta)
    bad = z[~np.isfinite(val)]
    if bad.size:
        raise EvaluationError(
            f"confluent-hypergeometric route failed for beta={beta}, z={float(bad[0])}",
            regime="hyp1f1",
        )
    return val


def _exp(z: float) -> float:
    try:
        return math.exp(z)
    except OverflowError:
        return math.inf


def _series(alpha: float, beta: float, z: np.ndarray):
    """Taylor series of E_{alpha,beta} at a 1-D array z, one array sum per term.

    Compensated summation.  A point stops, and takes no further terms, after
    the first term k > 2 below 1 and below 1e-17 of its sum, so its value
    does not depend on the other points.  It is certified only if it stopped
    within _SERIES_MAX_TERMS terms and its rounding (dominated by each term's
    gamma-argument rounding, about 50 eps times the sum of |terms|) is within
    the accuracy target.  A term past e^700 stops a point too: a positive sum
    is then +inf and certified, a negative one is not certified.
    Returns (values, certified).
    """
    neg = z < 0.0
    with np.errstate(divide="ignore"):
        ln_x = np.log(np.abs(z))
    acc = np.full_like(z, math.exp(-math.lgamma(beta)))
    comp, size = np.zeros_like(z), acc.copy()
    done, blown = np.zeros(z.shape, dtype=bool), np.zeros(z.shape, dtype=bool)
    for k in range(1, _SERIES_MAX_TERMS):
        ln_t = k * ln_x - math.lgamma(alpha * k + beta)
        blown |= ~done & (ln_t > 700.0)
        done |= blown
        mag = np.exp(np.where(done, -np.inf, ln_t))
        size += mag
        t = np.where(neg, -mag, mag) if k & 1 else mag
        s = acc + t
        back = s - acc
        comp += (acc - (s - back)) + (t - back)  # exact rounding error of acc + t
        acc = s
        if k > 2:
            done |= (mag <= 1e-17 * np.abs(acc + comp)) & (mag < 1.0)
            if done.all():
                break
    val = acc + comp
    gate = 50.0 * _EPS * size <= np.maximum(_ABS_TARGET, _REL_TARGET * np.abs(val))
    overflow = blown & ~neg
    val[overflow] = np.inf
    return val, (done & ~blown & gate) | overflow


def _cut_nodes(alpha: float, b: float, n0: int):
    """Nodes v and weights c of the fixed-node branch-cut quadrature of
    E_{alpha,b}, b in (0, alpha].

    Composite 16-point Gauss-Legendre panels on [0, 64]; c folds in K(v)/pi
    (K as in _branch_cut, with sin pi(1+alpha-b) = -sin pi(alpha-b)).  Panels
    halve toward v = 0 down to the first one, [0, 2^-n0]; they halve toward
    v = 1 down to half the distance from 1 to the zeros
    e^{+-i pi (alpha-1)/alpha} of K's denominator, which reach the cut as
    alpha -> 1 (that angle is clamped at pi/2 for alpha <= 2/3, where they
    lie far from it); beyond 2 they double up to 64.
    """
    d = alpha - 1.0  # exact for alpha >= 1/2: no cancellation in sin(pi d)
    s1, s2 = math.sin(math.pi * (1.0 - b)), math.sin(math.pi * (alpha - b))
    angle = min(math.pi * abs(d) / alpha, 0.5 * math.pi)
    n1 = math.ceil(-math.log2(2.0 * math.sin(0.5 * angle))) + 1
    edges = np.concatenate([
        [0.0], 0.5 ** np.arange(n0, 0, -1),
        1.0 - 0.5 ** np.arange(2, n1 + 1), [1.0], 1.0 + 0.5 ** np.arange(n1, 0, -1),
        2.0 ** np.arange(1, 7),
    ])
    half, mid = 0.5 * np.diff(edges)[:, None], 0.5 * (edges[1:] + edges[:-1])[:, None]
    v = (half * _GAUSS_X + mid).ravel()
    lv = np.log(v)
    va = np.exp(alpha * lv)
    # the denominator as (v^alpha - 1)^2 + 2 v^alpha (1 + cos(pi alpha)): no
    # cancellation next to v = 1 when alpha -> 1
    k = np.exp((alpha - b) * lv) * (va * s1 - s2) / (
        np.expm1(alpha * lv) ** 2 + 4.0 * va * math.sin(0.5 * math.pi * d) ** 2
    )
    return v, (half * _GAUSS_W).ravel() * k / math.pi


def _branch_cut(alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """E_{alpha,beta}(-x) for a 1-D array of x, alpha in (0, 2] but not 1.

    beta is first reduced to b in (0, alpha] by
    E_{a,b}(z) = (E_{a,b-a}(z) - 1/Gamma(b-a)) / z, which keeps v^{alpha-b}
    bounded at v = 0.  With w = x^{1/alpha} and r = w v, the branch-cut
    integral becomes w^{1-b} int_0^inf exp(-w v) K(v) dv / pi with

        K(v) = v^{alpha-b} (v^alpha sin pi(1-b) + sin pi(1+alpha-b))
               / (v^{2 alpha} + 2 v^alpha cos(pi alpha) + 1)

    independent of x, so one node set serves every point; for alpha > 1 the
    residue pair of the poles w e^{+-i pi/alpha} is added.  A point's first
    panel is narrow enough that it adds below 1e-17.  A point outside the
    quadrature's range (x < 0 among them) raises EvaluationError.  exp(-w v)
    is formed in row blocks of at most _BLOCK_ENTRIES entries.
    """
    if beta > alpha * _SERIES_MAX_TERMS:
        raise EvaluationError(
            f"beta={beta} needs over {_SERIES_MAX_TERMS} reductions for alpha={alpha}",
            regime="table",
        )
    shifts = []
    b = beta
    while b > alpha:
        b -= alpha
        shifts.append(b)
    s1, s2 = math.sin(math.pi * (1.0 - b)), math.sin(math.pi * (alpha - b))
    # K's denominator is near 1 on the first panel [0, v0], so that panel adds
    # at most w^{1-b} (|s1| + |s2|) v0^p / (pi p), p = alpha - b + 1.  For
    # b >= 1, w^{1-b} <= 2^{b-1}; for b < 1 it grows with w, so the points are
    # grouped by the n0 their own w needs.
    p = alpha - b + 1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = x ** (1.0 / alpha)
        bound = (abs(s1) + abs(s2)) * np.maximum(_CUT_W_MIN ** (1.0 - b), w ** (1.0 - b))
        n0 = np.ceil(np.log2(0.5 / (1e-17 * math.pi * p / bound) ** (1.0 / p)))
    # 2^-n0 stays a normal float
    bad = ~((x > 0.0) & (w >= _CUT_W_MIN) & (w < math.inf) & (n0 <= 1000))
    if bad.any():
        raise EvaluationError(
            f"no route certifies alpha={alpha}, beta={beta}, z={-x[bad][0]}", regime="table"
        )
    val = np.empty_like(w)
    for n in np.unique(n0):
        at = np.flatnonzero(n0 == n)
        v, c = _cut_nodes(alpha, b, int(n))
        rows = max(1, _BLOCK_ENTRIES // v.size)
        for i in range(0, at.size, rows):
            e = np.multiply.outer(w[at[i : i + rows]], -v)
            # einsum, unlike a BLAS product, sums each row the same way
            # whatever the number of rows
            val[at[i : i + rows]] = np.einsum("ij,j->i", np.exp(e, out=e), c)
    if alpha > 1.0:
        damp, freq = math.cos(math.pi / alpha), math.sin(math.pi / alpha)
        val += (2.0 / alpha) * np.exp(w * damp) * np.cos(w * freq + math.pi * (1.0 - b) / alpha)
    val *= w ** (1.0 - b)
    for b_prev in reversed(shifts):
        val = (val - math.exp(-math.lgamma(b_prev))) / -x
    if not np.all(np.isfinite(val)):
        raise EvaluationError(f"non-finite kernel value for alpha={alpha}", regime="table")
    return val
