"""Independent reference computations used across the test suite.

These deliberately avoid the package's evaluation routes: the Mittag-Leffler
oracle is a plain extended-precision Taylor summation (64+ decimal digits,
200+ terms, precision raised adaptively with the predicted peak term), and
the quadrature oracles refine the grid instead of reusing package kernels.

The gamma argument alpha*k is formed in working precision: forming it in
float64 perturbs Gamma by ~psi(a k) * a k * eps relatively, which is fatal
once the series terms grow large.

The Taylor oracle's precision grows with |z|^{1/alpha}: at alpha = 1.1,
z = -1e4 it needs about 1900 digits and ten minutes on mpmath's pure-Python
backend.  Far out on the negative axis the branch-cut oracle below serves
instead; it is an exact representation evaluated at 30 digits in well under
a second, and agrees with the Taylor oracle wherever both are cheap.
"""

from __future__ import annotations

import functools
import math

from mpmath import mp


@functools.lru_cache(maxsize=None)
def _gamma_term(alpha: float, beta: float, k: int, prec: int):
    """Gamma(alpha k + beta) at prec bits.  Every z of one (alpha, beta) at
    one working precision needs the same terms, so they are computed once."""
    with mp.workprec(prec):
        return mp.gamma(mp.mpf(alpha) * k + mp.mpf(beta))


def ml_oracle(alpha: float, beta: float, z: float, dps: int = 64, min_terms: int = 200) -> float:
    """E_{alpha,beta}(z) by extended-precision Taylor summation."""
    x = abs(z)
    if x > 1.0:
        w = x ** (1.0 / alpha)
        k_peak = max(3, int(w / alpha) + 2)
        ln_peak = k_peak * math.log(x) - math.lgamma(alpha * k_peak + beta)
        dps = max(dps, int(ln_peak / 2.302585) + 40)
    with mp.workdps(dps):
        s = mp.mpf(0)
        zz = mp.mpf(z)
        k = 0
        while True:
            t = zz**k / _gamma_term(alpha, beta, k, mp.prec)
            s += t
            if k >= min_terms and abs(t) < mp.mpf(10) ** (-dps) * max(abs(s), mp.mpf(1)):
                break
            k += 1
            if k > 100000:
                raise RuntimeError("oracle series did not converge")
        return float(s)


def ml_branch_cut_oracle(alpha: float, z: float, dps: int = 30) -> float:
    """E_{alpha,1}(z) for alpha in (1, 2) and z < 0 from its Laplace-inversion
    representation, by mpmath tanh-sinh quadrature in extended precision.

    With t = (-z)^{1/alpha}, e(t) = E_{alpha,1}(-t^alpha) has Laplace transform
    s^{alpha-1} / (s^alpha + 1).  Folding the Bromwich contour onto the cut
    along the negative real axis leaves (Gorenflo & Mainardi, 1997)

        e(t) = int_0^inf exp(-r t) K(r) dr + (2/alpha) exp(t cos(pi/alpha)) cos(t sin(pi/alpha)),
        K(r) = r^{alpha-1} sin(alpha pi) / (pi (r^{2 alpha} + 2 r^alpha cos(alpha pi) + 1)),

    the second term being the residues of the pole pair e^{+-i pi/alpha}.  The
    integral is taken in u = r t, split at u = t (r = 1), next to which the
    denominator of K nearly vanishes as alpha -> 1.  Nothing here is shared with the package, which integrates
    a different form of the cut with QUADPACK in float64 and, at large |z|,
    uses the asymptotic expansion instead.
    """
    if not (1.0 < alpha < 2.0 and z < 0.0):
        raise ValueError("branch-cut oracle covers alpha in (1, 2) and z < 0 only")
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        t = (-mp.mpf(z)) ** (1 / a)
        sin_a, cos_a = mp.sin(mp.pi * a), mp.cos(mp.pi * a)

        def integrand(u):
            r = u / t
            ra = r**a
            return mp.exp(-u) * r ** (a - 1) * sin_a / (ra * ra + 2 * ra * cos_a + 1)

        integral, err = mp.quad(integrand, [0, t, mp.inf], error=True)
        if not err <= mp.mpf(10) ** (10 - dps) * abs(integral):
            raise RuntimeError(f"branch-cut quadrature error {err} too large")
        integral /= mp.pi * t
        poles = 2 / a * mp.exp(t * mp.cos(mp.pi / a)) * mp.cos(t * mp.sin(mp.pi / a))
        return float(integral + poles)


def refined_convolution(alpha: float, lam: float, forcing, t: float, refine: int = 10) -> float:
    """int_0^t E_{alpha,1}(lam (t-s)^alpha) w(s) ds on a refine-times-finer
    uniform grid, composite trapezoid; forcing is a callable of s."""
    n = max(2, int(round(t * 400 * refine)))
    h = t / n
    total = 0.0
    for j in range(n + 1):
        s = j * h
        w = 0.5 if j in (0, n) else 1.0
        lag = t - s
        kernel = 1.0 if lag == 0.0 else ml_oracle(alpha, 1.0, lam * lag**alpha, dps=40, min_terms=40)
        total += w * kernel * forcing(s)
    return total * h


def refined_grammian_1d(alpha: float, lam: float, T: float, b: float = 1.0, n: int = 4000) -> float:
    """int_0^T (E_{alpha,1}(lam (T-s)^alpha) b)^2 ds on a fine trapezoid grid."""
    h = T / n
    total = 0.0
    for j in range(n + 1):
        s = j * h
        w = 0.5 if j in (0, n) else 1.0
        lag = T - s
        kernel = 1.0 if lag == 0.0 else ml_oracle(alpha, 1.0, lam * lag**alpha, dps=40, min_terms=40)
        total += w * (kernel * b) ** 2
    return total * h


def lq_quadratic(spec, grid, param):
    """J(theta) of the 1-D linear-quadratic instance as an explicit quadratic.

    Superposition turns J into c0 + 2 theta.b + theta.Q.theta (the dynamics
    are affine in the control), which the caller must spot-check against the
    real cost before trusting.  Returns (b, Q, J_quadratic).
    """
    import numpy as np

    from fracsteer.solver import ControlSignal, solve_mild

    P = param.intervals
    w = grid.trapezoid_weights(grid.n_fwd)
    free = solve_mild(spec, ControlSignal.zeros(grid), tol=1e-13)
    x_free = free.forward_values()[:, 0]
    basis_x, basis_u = [], []
    for q in range(P):
        theta = np.zeros((P, 1))
        theta[q, 0] = 1.0
        uq = param.expand(grid, theta)
        basis_x.append(solve_mild(spec, uq, tol=1e-13).forward_values()[:, 0] - x_free)
        basis_u.append(uq.samples[:, 0])
    X = np.stack(basis_x)
    U = np.stack(basis_u)
    # quadratic default with r = 0: history term duplicates the state term
    c0 = float(w @ (2.0 * x_free**2))
    b = 2.0 * (X * (w * x_free)).sum(axis=1)
    Q = 2.0 * (X * w) @ X.T + (U * w) @ U.T

    def J_quadratic(thetas):
        thetas = np.atleast_2d(np.asarray(thetas, float).reshape(-1, P))
        return c0 + 2.0 * thetas @ b + np.einsum("ij,jk,ik->i", thetas, Q, thetas)

    return b, Q, J_quadratic


def lq_grid_search(spec, grid, param, points_per_axis: int = 21):
    """Exhaustive grid search over the box for the quadratic of lq_quadratic.

    Ties go to the lowest flat index.  Returns (J_min, theta_min,
    J_quadratic).
    """
    import numpy as np

    P = param.intervals
    _, _, J_quadratic = lq_quadratic(spec, grid, param)
    axis = np.linspace(-param.bound, param.bound, points_per_axis)
    mesh = np.stack(np.meshgrid(*([axis] * P), indexing="ij"), axis=-1).reshape(-1, P)
    J_all = J_quadratic(mesh)
    best = int(J_all.argmin())  # argmin returns the lowest tied index
    return float(J_all[best]), mesh[best].reshape(P, 1), J_quadratic


# Absolute margin the midpoint may exceed the chord by and still pass.
CONVEXITY_SLACK = 1e-8


def midpoint_costs(spec, cost, u1, u2):
    """(J((u1 + u2) / 2), (J(u1) + J(u2)) / 2) by eval_cost, for a midpoint
    convexity check: the first may exceed the second by CONVEXITY_SLACK.  Only
    meaningful when the control-to-trajectory map is affine."""
    from fracsteer.optimal import eval_cost
    from fracsteer.solver import ControlSignal

    mid = ControlSignal(u1.grid, 0.5 * (u1.samples + u2.samples))
    return eval_cost(spec, cost, mid), 0.5 * (eval_cost(spec, cost, u1) + eval_cost(spec, cost, u2))


@functools.lru_cache(maxsize=8)
def _kernel_by_hand(alpha: float, omega: float, n_modes: int, h: float, n: int):
    """D(l h) for l = 0..n: the diagonal E_{alpha,1}(lam_k (l h)^alpha) with
    lam_k = -k^2 - omega, one scalar mittag_leffler call per lag and mode."""
    import numpy as np

    from fracsteer.mittag import mittag_leffler

    lam = [-(k * k) - omega for k in range(1, n_modes + 1)]
    return [
        np.array([mittag_leffler(alpha, 1.0, lv * (lag * h) ** alpha) for lv in lam])
        for lag in range(n + 1)
    ]


def _phi_by_hand(spec, s: float):
    """phi(s) = coeffs + s * slope rebuilt from the descriptor's fields; no
    slope gives coeffs."""
    import numpy as np

    if spec.phi.slope is None:
        return np.array(spec.phi.coeffs, dtype=float)
    return spec.phi.coeffs + s * spec.phi.slope


def nonlocal_residual(spec, traj) -> float:
    """max over the history rows of |x(s) + g(x)(s) - phi(s)|, one row and
    one anchor at a time: g(x)(s) = sum_i c_i x(tau_i + s) is summed over
    spec.nonlocal_terms, and traj.values[i] holds x at -r + i h."""
    h = traj.grid.h
    n_hist = round(spec.delay / h)
    worst = 0.0
    for i in range(n_hist + 1):
        mismatch = traj.values[i] - _phi_by_hand(spec, (i - n_hist) * h)
        for term in spec.nonlocal_terms:
            mismatch = mismatch + term.c * traj.values[round(term.tau / h) + i]
        worst = max(worst, math.sqrt(sum(float(v) ** 2 for v in mismatch)))
    return worst


def mild_map_by_hand(spec, h: float, values, bu, linear_from=None):
    """The variation-of-parameters formula applied to one sampled path, one
    grid node at a time, on the grid of step h from -r to T.

    values[i] holds x at time -r + i h, bu[m] the input B u(t_m) on the
    forward nodes.  History rows get phi(s) - g(x)(s) with
    g(x)(s) = sum_i c_i x(tau_i + s).  Forward node m gets

        D(t_m)(phi(0) - g(x)(0)) + sum_{t_k < t_m} D(t_m - t_k) I_k(x(t_k))
        + trapezoid sum over j <= m of D(t_m - t_j) F_j,

    with F_j = B u(t_j) + f1(x(t_j)) + the trapezoid sum of
    exp(-rate (t_j - s)) f2(x(s)) over the window [t_j - r, t_j], where f1
    and f2 are gain x or gain x / (1 + |x|) by their forms.  At an impulse
    node t_k < t_m the trapezoid weight h is split in two halves: one takes
    F_k, the other F_k with f1 at the right value x + I_k(x) (the memory
    window still ends at x(t_k)).  D comes from _kernel_by_hand.  The
    nonlinearity, impulses, phi and eigenvalues are rebuilt here from the
    descriptors' fields; nothing of the package's solver is used.

    linear_from, when given, is the path that g(x)(0) and the linear part
    I_k(x(t_k)) of each jump read; the history rows s < 0, f and the half
    weight with f1 at the right value still read values.  A sweep that
    solves x(0) and the jumps for the path x it returns gives
    x = mild_map_by_hand(spec, h, values, bu, linear_from=x).
    """
    import numpy as np

    values = np.asarray(values, dtype=float)
    lin = values if linear_from is None else np.asarray(linear_from, dtype=float)
    n_hist, n = round(spec.delay / h), round(spec.horizon / h)
    D = _kernel_by_hand(spec.alpha, spec.omega, spec.n_modes, h, n)

    def g(i):  # g(x) at history row i; at s = 0 it reads lin
        path = lin if i == n_hist else values
        total = np.zeros(spec.n_modes)
        for term in spec.nonlocal_terms:
            total += term.c * path[round(term.tau / h) + i]
        return total

    fd = spec.f_desc

    def form(name, gain, v):
        if name == "linear":
            return gain * v
        return gain * v / (1.0 + math.sqrt(sum(c * c for c in v)))

    def f1(v):
        return form(fd.f1_form, fd.f1_gain, v)

    def memory(j):  # window of forward node j: rows j .. j + n_hist
        total = np.zeros(spec.n_modes)
        if n_hist == 0:
            return total
        for i in range(n_hist + 1):
            wt = 0.5 * h if i in (0, n_hist) else h
            kern = math.exp(-fd.kernel_rate * (n_hist - i) * h)
            total += wt * kern * form(fd.f2_form, fd.f2_gain, values[j + i])
        return total

    out = np.empty_like(values)
    for i in range(n_hist + 1):
        out[i] = _phi_by_hand(spec, (i - n_hist) * h) - g(i)
    impulses = {round(imp.t / h): imp.scale for imp in spec.impulses}
    forcing = [bu[j] + f1(values[n_hist + j]) + memory(j) for j in range(n + 1)]
    for m in range(n + 1):
        x_m = D[m] * (_phi_by_hand(spec, 0.0) - g(n_hist))
        for k, scale in impulses.items():
            if k < m:
                x_m = x_m + D[m - k] * (scale * lin[n_hist + k])
        for j in range(m + 1 if m > 0 else 0):  # the integral over [0, 0] is 0
            if j in (0, m):
                x_m = x_m + 0.5 * h * D[m - j] * forcing[j]
            elif j in impulses:
                left = values[n_hist + j]
                right = bu[j] + f1(left + impulses[j] * left) + memory(j)
                x_m = x_m + 0.5 * h * D[m - j] * (forcing[j] + right)
            else:
                x_m = x_m + h * D[m - j] * forcing[j]
        out[n_hist + m] = x_m
    return out


def residual_p(spec, h: float, values, target):
    """Steering residual p(x) = target - (the mild formula at T with u = 0),
    read off mild_map_by_hand on the grid of step h."""
    import numpy as np

    bu = np.zeros((round(spec.horizon / h) + 1, spec.n_modes))
    return np.asarray(target, dtype=float) - mild_map_by_hand(spec, h, values, bu)[-1]
