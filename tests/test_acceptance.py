"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
with its measured figure and running inside its stated time budget.

Criterion 2 checks the decay envelope |E_{alpha,1}(-x)| <= C_alpha / (1 + x)
per alpha. For every test alpha, the constant fitted from the package on a
log grid must equal the maximum of the independent mp oracle over the grid
points it can afford, to 1e-9 relative; the constants must grow strictly
with alpha; and C <= 10 must hold for alpha <= 1.75. There is no single
constant for all alpha < 2: the damped residue term
exp(cos(pi/alpha) x^{1/alpha}) loses its damping as alpha -> 2, and its
leading term predicts C(1.9) of about 61 (59.46 measured), so the criterion
pins each constant to the oracle rather than to a blanket bound.
"""

import math
import time

import numpy as np
import pytest

from fracsteer.control import epsilon_sweep, grammian, steer
from fracsteer.mittag import mittag_leffler
from fracsteer.model import (
    ImpulseDescriptor,
    NonlinearityDescriptor,
    NonlocalTerm,
    contraction_check,
)
from fracsteer.optimal import (
    ControlParameterization,
    CostDescriptor,
    MinimizeOptions,
    eval_cost,
    minimize,
)
from fracsteer.solver import (
    ControlSignal,
    Grid,
    solve_mild,
)

from oracles import (
    CONVEXITY_SLACK, lq_grid_search, midpoint_costs, ml_oracle, nonlocal_residual, residual_p,
)
from specs import flagship_spec, make_spec

TEST_ALPHAS = [1.1, 1.25, 1.5, 1.75, 1.9]


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_mittag_leffler_accuracy():
    # the package and the oracle are timed apart; the budget covers both
    t0 = time.monotonic()
    points = [(alpha, float(z)) for alpha in TEST_ALPHAS for z in np.linspace(-50.0, 5.0, 100)]
    got = [mittag_leffler(alpha, 1.0, z) for alpha, z in points]
    id_err = 0.0
    for z in np.linspace(-30.0, 5.0, 36):
        id_err = max(id_err, abs(mittag_leffler(1.0, 1.0, float(z)) - math.exp(z)))
    for t in np.linspace(0.0, 7.0, 29):
        id_err = max(id_err, abs(mittag_leffler(2.0, 1.0, -float(t * t)) - math.cos(t)))
    t1 = time.monotonic()
    want = [ml_oracle(alpha, 1.0, z) for alpha, z in points]
    t2 = time.monotonic()
    worst = max(abs(a - b) for a, b in zip(got, want))
    elapsed = t2 - t0
    ok = worst <= 1e-10 and id_err <= 1e-10 and elapsed < 10.0
    _report(1, ok, f"max |ml - oracle| = {worst:.2e} over 500 pts, "
                   f"identity error {id_err:.2e}, {elapsed:.1f}s "
                   f"(package {t1 - t0:.1f}s, oracle {t2 - t1:.1f}s)")
    assert worst <= 1e-10
    assert id_err <= 1e-10
    assert elapsed < 10.0


def test_criterion_2_decay_envelope_constant():
    xs = np.logspace(-4, 4, 90)
    t0 = time.monotonic()
    fitted = {
        alpha: max(abs(mittag_leffler(alpha, 1.0, -float(x))) * (1.0 + x) for x in xs)
        for alpha in TEST_ALPHAS
    }
    elapsed = time.monotonic() - t0
    # the Taylor oracle's working precision grows with x^{1/alpha}; beyond
    # 60 it needs hundreds to thousands of digits, so it is not evaluated
    # there. Comparing against the package's fit over the full grid still
    # catches a spurious tail value larger than the true maximum.
    oracle = {
        alpha: max(
            abs(ml_oracle(alpha, 1.0, -float(x))) * (1.0 + x)
            for x in xs if x ** (1.0 / alpha) <= 60.0
        )
        for alpha in TEST_ALPHAS
    }
    gaps = {a: abs(fitted[a] - oracle[a]) / oracle[a] for a in TEST_ALPHAS}
    constants = [fitted[a] for a in TEST_ALPHAS]
    growing = all(b > a for a, b in zip(constants, constants[1:]))
    small = all(fitted[a] <= 10.0 for a in TEST_ALPHAS if a <= 1.75)
    matched = all(g <= 1e-9 for g in gaps.values())
    detail = ", ".join(
        f"C({a})={fitted[a]:.4f} vs oracle {oracle[a]:.4f} (gap {gaps[a]:.1e})"
        for a in TEST_ALPHAS
    )
    ok = matched and growing and small and elapsed < 5.0
    _report(2, ok, f"{detail}; growing={growing}, C<=10 for alpha<=1.75={small}, "
                   f"{elapsed:.2f}s")
    assert elapsed < 5.0
    assert matched, f"package constant departs from the oracle: {detail}"
    assert growing, f"constants do not grow strictly with alpha: {detail}"
    assert small, f"constant above 10 for some alpha <= 1.75: {detail}"


def test_criterion_3_solver_order():
    t0 = time.monotonic()
    alpha = 1.5
    spec = make_spec(alpha=alpha)
    errors = []
    for denom in (100, 200, 400):
        grid = Grid(spec, 1.0 / denom)
        u = ControlSignal(grid, np.ones((grid.n_fwd + 1, 1)))
        traj = solve_mild(spec, u, tol=1e-13)
        ts = grid.times[grid.n_hist :]
        closed = np.array(
            [mittag_leffler(alpha, 1.0, -(t**alpha))
             + t * mittag_leffler(alpha, 2.0, -(t**alpha)) for t in ts]
        )
        errors.append(float(np.max(np.abs(traj.forward_values()[:, 0] - closed))))
    r1 = errors[0] / errors[1]
    r2 = errors[1] / errors[2]
    elapsed = time.monotonic() - t0
    ok = r1 >= 3.5 and r2 >= 3.5 and elapsed < 30.0
    _report(3, ok, f"error ratios {r1:.2f}, {r2:.2f} (>= 3.5), {elapsed:.1f}s")
    assert r1 >= 3.5 and r2 >= 3.5
    assert elapsed < 30.0


def test_criterion_4_impulse_composition():
    alpha, t1 = 1.5, 0.5
    spec = make_spec(alpha=alpha, impulses=[ImpulseDescriptor(t1, -1.0)])
    grid = Grid(spec, 1.0 / 400.0)
    traj = solve_mild(spec, ControlSignal.zeros(grid), tol=1e-12)
    e_t1 = mittag_leffler(alpha, 1.0, -(t1**alpha))
    worst = 0.0
    for t in grid.times[grid.n_hist :]:
        if t <= t1:
            want = mittag_leffler(alpha, 1.0, -(t**alpha))
        else:
            want = mittag_leffler(alpha, 1.0, -(t**alpha)) - mittag_leffler(
                alpha, 1.0, -((t - t1) ** alpha)
            ) * e_t1
        worst = max(worst, abs(traj.values[grid.row(float(t)), 0] - want))
    ok = worst <= 1e-6
    _report(4, ok, f"max deviation from the ML composition {worst:.2e} (<= 1e-6)")
    assert worst <= 1e-6


def test_criterion_5_nonlocal_consistency():
    tol = 1e-10
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(1, 4))
        weights = rng.uniform(-0.3, 0.3, size=2)
        weights *= 0.5 / max(0.5, float(np.abs(weights).sum()))
        taus = rng.choice([0.2, 0.4, 0.6, 0.8], size=2, replace=False)
        spec = make_spec(
            n=n, alpha=1.5, r=0.2,
            nonlocal_terms=[NonlocalTerm(float(c), float(t)) for c, t in zip(weights, taus)],
            phi_coeffs=rng.uniform(-1.0, 1.0, size=n),
        )
        grid = Grid(spec, 1.0 / 20.0)
        traj = solve_mild(spec, ControlSignal.zeros(grid), tol=tol)
        worst = max(worst, nonlocal_residual(spec, traj))
    ok = worst <= tol
    _report(5, ok, f"max |x(s) + g(x)(s) - phi(s)| = {worst:.2e} (<= {tol:.0e})")
    assert worst <= tol


def test_criterion_6_scalar_steering_oracle():
    t0 = time.monotonic()
    spec = make_spec(alpha=1.5)
    grid = Grid(spec, 1.0 / 100.0)
    h = np.array([2.0])
    G = grammian(spec, grid)[0, 0]
    free = solve_mild(spec, ControlSignal.zeros(grid), tol=1e-13)
    p = abs(residual_p(spec, grid.h, free.values, h)[0])
    worst_rel = 0.0
    eps_values = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]
    errors = []
    for eps in eps_values:
        report, _, _ = steer(spec, grid, h, eps, tol=1e-10, picard_tol=1e-13)
        want = eps / (eps + G) * p
        worst_rel = max(worst_rel, abs(report.terminal_error - want) / want)
        errors.append(report.terminal_error)
    strictly_decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    elapsed = time.monotonic() - t0
    ok = worst_rel <= 1e-6 and strictly_decreasing and elapsed < 60.0
    _report(6, ok, f"max relative deviation {worst_rel:.2e} from eps/(eps+Gamma)|p|, "
                   f"strictly decreasing={strictly_decreasing}, {elapsed:.1f}s")
    assert worst_rel <= 1e-6
    assert strictly_decreasing
    assert elapsed < 60.0


def test_criterion_7_flagship_sweep():
    t0 = time.monotonic()
    spec = flagship_spec()
    h = np.zeros(16)
    h[:4] = [0.3, -0.2, 0.1, 0.05]
    eps_list = [1e-1, 1e-2, 1e-3]

    results = {}
    for denom in (200, 400):
        grid = Grid(spec, 1.0 / denom)
        sweep = epsilon_sweep(spec, grid, h, eps_list, tol=1e-8)
        assert all(e.report is not None for e in sweep.entries)
        results[denom] = [e.report.terminal_error for e in sweep.entries]

    # bit-for-bit reproducibility at the coarse resolution
    grid = Grid(spec, 1.0 / 200.0)
    rerun = epsilon_sweep(spec, grid, h, eps_list, tol=1e-8)
    identical = all(
        e.report.terminal_error == results[200][i]
        and e.report.control_energy == rerun.entries[i].report.control_energy
        for i, e in enumerate(rerun.entries)
    )

    total_drop = results[200][0] / results[200][-1]
    grid_gap = max(
        abs(a - b) / a for a, b in zip(results[200], results[400])
    )
    elapsed = time.monotonic() - t0
    ok = total_drop >= 5.0 and identical and grid_gap <= 0.01 and elapsed < 300.0
    _report(7, ok, f"error drop x{total_drop:.1f} (>= 5), bit-for-bit={identical}, "
                   f"grid consistency {grid_gap:.2%} (<= 1%), {elapsed:.0f}s")
    assert total_drop >= 5.0
    assert identical
    assert grid_gap <= 0.01
    assert elapsed < 300.0


def test_criterion_8_optimal_control_oracle():
    t0 = time.monotonic()
    spec = make_spec(alpha=1.5, phi_coeffs=[1.0])
    grid = Grid(spec, 1.0 / 50.0)
    param = ControlParameterization.boxed(4, 1, 2.0)
    cost = CostDescriptor()

    j_grid, _, J_quadratic = lq_grid_search(spec, grid, param, points_per_axis=21)
    rng = np.random.default_rng(77)
    for _ in range(3):  # trust gate for the superposition shortcut
        theta = rng.uniform(-2.0, 2.0, size=(4, 1))
        fast = float(J_quadratic(theta)[0])
        direct = eval_cost(spec, cost, param.expand(grid, theta), tol=1e-13)
        assert fast == pytest.approx(direct, rel=1e-10)

    result = minimize(spec, grid, cost, param,
                      opts=MinimizeOptions(max_evals=1500))
    gap = abs(result.J_opt - j_grid) / j_grid
    non_increasing = all(b <= a for a, b in zip(result.history, result.history[1:]))

    convex_ok = True
    for seed in range(100):
        prng = np.random.default_rng(5000 + seed)
        u1 = ControlSignal(grid, prng.standard_normal((grid.n_fwd + 1, 1)))
        u2 = ControlSignal(grid, prng.standard_normal((grid.n_fwd + 1, 1)))
        lhs, rhs = midpoint_costs(spec, cost, u1, u2)
        if not lhs <= rhs + CONVEXITY_SLACK:
            convex_ok = False
            break
    elapsed = time.monotonic() - t0
    ok = gap <= 0.02 and non_increasing and convex_ok and elapsed < 300.0
    _report(8, ok, f"direct vs grid search gap {gap:.3%} (<= 2%), "
                   f"history non-increasing={non_increasing}, "
                   f"convexity 100/100={convex_ok}, {elapsed:.0f}s")
    assert gap <= 0.02
    assert non_increasing
    assert convex_ok
    assert elapsed < 300.0


def test_criterion_9_contraction_arithmetic():
    # set 1: everything zero
    spec1 = make_spec()
    got1, want1 = contraction_check(spec1, eps=1.0), 0.0
    # set 2: M=1, K=1, l2=0.1, l_g=0.1, norms=0, M_B=1, T=1, eps=1
    spec2 = make_spec(
        impulses=[ImpulseDescriptor(0.5, 0.1)],
        nonlocal_terms=[NonlocalTerm(0.1, 0.5)],
    )
    got2 = contraction_check(spec2, eps=1.0)
    want2 = 1.0 * (1 * 0.1 + 0.1) * (1.0 + 1.0 * 1.0 * 1.0 / 1.0)
    # set 3: two impulses, nonzero Lipschitz norms, T=2, eps=0.5
    T, p, L1, L2 = 2.0, 0.4, 0.3, 0.05
    spec3 = make_spec(
        T=T,
        impulses=[ImpulseDescriptor(0.5, 0.2),
                  ImpulseDescriptor(1.0, 0.1)],
        nonlocal_terms=[NonlocalTerm(0.15, 0.5)],
        f=NonlinearityDescriptor(f1_gain=0.3, L1=L1, L2=L2, holder_p=p),
    )
    got3 = contraction_check(spec3, eps=0.5)
    want3 = (2 * 0.2 + 0.15 + T ** (1 - p) * (L1 * T**p + L2 * T**p)) * (1.0 + T / 0.5)
    devs = [abs(got1 - want1), abs(got2 - want2), abs(got3 - want3)]
    ok = all(d <= 1e-12 for d in devs)
    _report(9, ok, f"hand-computed deviations {[f'{d:.1e}' for d in devs]} (<= 1e-12)")
    assert all(d <= 1e-12 for d in devs)
