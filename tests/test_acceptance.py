"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines
as they happen; without ``-s`` they appear in the captured output of any
failing criterion.  The heavy entries (8 and 9) evolve a charged profile
over T = 200 at the default resolution and dominate the runtime.
"""

import time

import numpy as np
import pytest

from qball.potential import default_potential, hylomorphy_constants
from qball.fields import (
    FieldState,
    RadialGrid,
    ZeroShellChargeError,
    functionals,
    local_ratio,
    solve_poisson,
)
from qball.hylomorphy import (
    TestStateParams,
    build_test_state,
    calibrate_constants,
    coulomb_energy,
    estimate_lambda_star,
    q_threshold,
    ratio_bound,
)
from qball.solver import (
    SolveOptions,
    descent_seed,
    family_sweep,
    j_functional,
    minimize_J,
    solve_profile,
)
from qball.dynamics import (
    DEFAULT_DT_FACTOR,
    DynState,
    constrain,
    dyn_norm_sq,
    evolve,
    lift_profile,
    perturb,
    stability_probe,
    step,
    _distance,
)


def _verdict(number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


@pytest.fixture(scope="module")
def threshold_run(spec, grid):
    t0 = time.monotonic()
    report = q_threshold(spec, grid.r_max)
    return report, time.monotonic() - t0


@pytest.fixture(scope="module")
def profile_q5(spec, grid, threshold_run):
    report, _ = threshold_run
    return solve_profile(spec, 0.8, report.q_bar_est / 10.0, grid)


def test_criterion_01_pointwise_ratio_bound(spec):
    t0 = time.monotonic()
    g = RadialGrid(20.0, 800)
    rng = np.random.default_rng(101)
    worst = np.inf
    tested = 0
    for _ in range(10000):
        decay = rng.uniform(3.0, 6.0)
        env = np.exp(-(g.r / decay) ** 2)
        ph = rng.uniform(0.0, 2.0 * np.pi, 3)

        def field():
            c = rng.normal(size=4)
            return env * (c[0] + c[1] * np.cos(0.3 * g.r + ph[0])
                          + c[2] * np.sin(0.17 * g.r + ph[1])
                          + c[3] * np.cos(0.41 * g.r + ph[2]))

        u, u_hat, theta, Theta = field(), field(), field(), field()
        q = rng.uniform(0.0, 0.05)
        _, e_r = solve_poisson(-q * theta * u, g)
        st = FieldState(g, u, u_hat, theta, Theta, e_r, q)
        lo = rng.uniform(0.0, 14.0)
        hi = lo + rng.uniform(0.5, 5.0)
        try:
            worst = min(worst, local_ratio(st, lo, hi, spec))
        except ZeroShellChargeError:
            continue
        tested += 1

    # equality case: theta = m u, locally constant across the shell
    u = np.where(g.r <= 12.0, 0.5, 0.0)
    z = np.zeros(g.n)
    tight = local_ratio(FieldState(g, u, z, spec.m * u, z, z, 0.0),
                        2.0, 9.0, spec)
    elapsed = time.monotonic() - t0

    ok = (tested >= 9900 and worst >= spec.m - 1e-9
          and abs(tight - spec.m) <= 1e-9 and elapsed < 60.0)
    line = _verdict(1, ok, f"worst ratio {worst:.6f} over {tested} states, "
                           f"equality gap {abs(tight - spec.m):.2e}, "
                           f"{elapsed:.1f}s")
    assert ok, line


def test_criterion_02_trial_ratio_below_mass(spec, grid):
    t0 = time.monotonic()
    alpha, s_bar = hylomorphy_constants(spec)
    c1, c6 = calibrate_constants(spec, grid.r_max)
    results = []
    for q in (0.0, 1e-3, 1e-2):
        ratio, best_R = estimate_lambda_star(spec, q, grid.r_max)
        bound = ratio_bound(alpha, s_bar, q, best_R, c1, c6)
        results.append((q, ratio, bound))
    elapsed = time.monotonic() - t0

    ok = (all(r < 1.0 for _, r, _ in results)
          and all(r <= b + 1e-6 for _, r, b in results)
          and elapsed < 60.0)
    detail = ", ".join(f"q={q:g}: {r:.4f}<={b:.4f}" for q, r, b in results)
    line = _verdict(2, ok, f"{detail}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_03_coulomb_scaling(spec):
    alpha, s_bar = hylomorphy_constants(spec)
    radii = (5.0, 10.0, 20.0, 40.0)
    vals = [coulomb_energy(TestStateParams(s_bar, alpha, R, 0.01))
            for R in radii]
    slope = np.polyfit(np.log(radii), np.log(vals), 1)[0]
    doubled = coulomb_energy(TestStateParams(s_bar, alpha, 10.0, 0.02))
    ratio = doubled / vals[1]

    ok = 4.5 <= slope <= 5.0 and abs(ratio - 4.0) <= 1e-10
    line = _verdict(3, ok, f"log-log slope {slope:.4f}, "
                           f"q-doubling factor {ratio:.12f}")
    assert ok, line


def test_criterion_04_coupling_threshold(spec, grid, threshold_run):
    report, elapsed = threshold_run
    ratio_zero, _ = estimate_lambda_star(spec, 0.0, grid.r_max)
    ratio_ceiling, _ = estimate_lambda_star(spec, report.q_ceiling,
                                            grid.r_max)

    ok = (report.q_bar_est > 0.0 and ratio_zero < spec.m
          and not ratio_ceiling < spec.m
          and report.bisect_iters <= 40
          and report.bisect_rel_width <= 0.01 + 1e-12
          and elapsed < 300.0)
    line = _verdict(4, ok, f"q_bar_est {report.q_bar_est:.4f} in "
                           f"{report.bisect_iters} bisections "
                           f"(width {report.bisect_rel_width:.3%}), "
                           f"{elapsed:.1f}s")
    assert ok, line


def test_criterion_05_stationary_residuals(spec, grid, threshold_run,
                                           profile_q5):
    report, _ = threshold_run
    q5 = report.q_bar_est / 10.0
    t0 = time.monotonic()
    neutral = solve_profile(spec, 0.8, 0.0, grid)

    alpha, s_bar = hylomorphy_constants(spec)
    trial = build_test_state(TestStateParams(s_bar, alpha, 10.0, q5), grid)
    flow = minimize_J(spec, q5, grid, 2e-4, trial.u, trial.theta)

    polished = solve_profile(spec, flow.omega, q5, grid,
                             init_u=flow.state.u)
    direct = solve_profile(spec, flow.omega, q5, grid)
    diff = FieldState(grid,
                      polished.state.u - direct.state.u,
                      polished.state.u_hat - direct.state.u_hat,
                      polished.state.theta - direct.state.theta,
                      polished.state.Theta - direct.state.Theta,
                      polished.state.E_r - direct.state.E_r, 0.0)
    agree = np.sqrt(functionals(diff, spec).energy_norm_sq
                    / functionals(direct.state, spec).energy_norm_sq)
    elapsed = time.monotonic() - t0

    ok = (neutral.res1 < 1e-6 and neutral.res2 < 1e-6
          and profile_q5.res1 < 1e-6 and profile_q5.res2 < 1e-6
          and flow.res1 < 1e-4 and flow.fit_residual < 1e-4
          and agree <= 1e-3 and elapsed < 300.0)
    line = _verdict(5, ok, f"fixed-point residuals "
                           f"({neutral.res1:.1e},{neutral.res2:.1e}) and "
                           f"({profile_q5.res1:.1e},{profile_q5.res2:.1e}), "
                           f"flow residual {flow.res1:.1e}, "
                           f"agreement {agree:.1e}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_06_family_hylomorphy(spec, grid):
    sweep = family_sweep(spec, 0.0, grid)
    lambdas = [p.Lambda for p in sweep.ok]

    ok = (not sweep.failures and len(lambdas) == len(sweep.values)
          and all(lam < 1.0 for lam in lambdas))
    line = _verdict(6, ok, f"{len(lambdas)} profiles, "
                           f"max Lambda {max(lambdas):.4f}")
    assert ok, line


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_criterion_07_penalty_separates_minimizers(spec, grid):
    opts = SolveOptions(flow_max_iter=20000)
    q = 1e-3
    sol1 = minimize_J(spec, q, grid, 1e-3, *descent_seed(spec, grid),
                      opts=opts)
    sol2 = minimize_J(spec, q, grid, 1e-2, *descent_seed(spec, grid),
                      opts=opts)
    sep = abs(sol1.E - sol2.E) / sol1.E

    ok = sep > 1e-3
    line = _verdict(7, ok, f"E({1e-3:g})={sol1.E:.4f} vs "
                           f"E({1e-2:g})={sol2.E:.4f}, separation {sep:.3f}")
    assert ok, line


def test_criterion_08_conservation_horizon(spec, grid, profile_q5):
    t0 = time.monotonic()
    # the step's own lift: the continuum one would add the step's O(dt^2)
    # breathing (2.2e-9 in E) to the drift the integrator makes
    base = lift_profile(profile_q5, spec, DEFAULT_DT_FACTOR * grid.dr)
    trace = evolve(base, 200.0, sample_every=50)
    rel_e = np.max(np.abs(trace.E - trace.E[0])) / abs(trace.E[0])
    rel_c = np.max(np.abs(trace.C - trace.C[0])) / abs(trace.C[0])
    v_rel = np.max(trace.V) / (trace.e0 ** 2 + trace.c0 ** 2)
    elapsed = time.monotonic() - t0

    ok = rel_e <= 1e-5 and rel_c <= 1e-5 and v_rel <= 1e-6 and elapsed < 600.0
    line = _verdict(8, ok, f"relative drifts E {rel_e:.1e}, C {rel_c:.1e}, "
                           f"V/(e0^2+c0^2) {v_rel:.1e}, {elapsed:.0f}s")
    assert ok, line


def test_criterion_09_stability_probe(spec, profile_q5):
    t0 = time.monotonic()
    report = stability_probe(profile_q5, spec, [0.01], T=200.0,
                             sample_every=50)
    elapsed = time.monotonic() - t0
    for row in report.runs:
        print(f"criterion 9 report: mode={row.mode} eps={row.eps:g} "
              f"max_distance={row.max_distance:.4e} ratio={row.max_ratio:.3f} "
              f"-> {row.classification}")

    ok = (all(row.max_ratio <= 10.0 for row in report.runs)
          and elapsed < 600.0)
    worst = max(row.max_ratio for row in report.runs)
    line = _verdict(9, ok, f"worst growth ratio {worst:.3f} across "
                           f"{len(report.runs)} modes, {elapsed:.0f}s")
    assert ok, line


def test_criterion_10_numerical_hygiene(spec, grid, profile_q5):
    # (a) descent gradient against central finite differences
    q, delta, h = 0.01, 1e-3, 1e-6
    env = np.exp(-(grid.r / 10.0) ** 2)
    u0 = 0.6 * env
    th0 = 0.5 * env
    _, g_u, g_th = j_functional(spec, q, grid, delta, u0, th0)
    rng = np.random.default_rng(77)
    worst_grad = 0.0
    for _ in range(10):
        c = rng.normal(size=4)
        d_u = env * (c[0] * np.cos(0.2 * grid.r) + c[1] * np.sin(0.13 * grid.r))
        d_th = env * (c[2] * np.cos(0.34 * grid.r) + c[3])
        d_u[-1] = 0.0
        plus, _, _ = j_functional(spec, q, grid, delta,
                                  u0 + h * d_u, th0 + h * d_th)
        minus, _, _ = j_functional(spec, q, grid, delta,
                                   u0 - h * d_u, th0 - h * d_th)
        fd = (plus - minus) / (2.0 * h)
        exact = float(g_u @ d_u + g_th @ d_th)
        worst_grad = max(worst_grad, abs(fd - exact) / abs(exact))

    # (b) integrator self-convergence on a radiating pulse
    def advance(dt):
        psi = 0.1 * np.exp(-((grid.r - 10.0) / 3.0) ** 2).astype(complex)
        st = constrain(DynState(grid, spec, 0.01, psi,
                                np.zeros(grid.n, complex),
                                np.zeros(grid.n), np.zeros(grid.n)))
        for _ in range(int(round(2.0 / dt))):
            st = step(st, dt)
        return st

    ends = [advance(dt) for dt in (0.004, 0.002, 0.001)]
    order_t = np.log2(_distance(ends[0], ends[1])
                      / _distance(ends[1], ends[2]))

    # (c) quadrature self-convergence on an endpoint-active integrand
    vals = []
    for n in (1000, 2000, 4000):
        g = RadialGrid(40.0, n)
        vals.append(float(g.w @ (np.cos(g.r) * np.exp(-g.r / 5.0))))
    order_q = np.log2(abs(vals[0] - vals[1]) / abs(vals[1] - vals[2]))

    # (d) reruns are byte-identical
    rows = []
    for _ in range(2):
        prof = solve_profile(spec, 0.8, 0.01, grid)
        rows.append(",".join(format(v, ".17g") for v in
                             (prof.E, prof.C, prof.Lambda, prof.u0)))
    base = lift_profile(profile_q5, spec)
    n1 = perturb(base, "noise", 0.01, seed=11)
    n2 = perturb(base, "noise", 0.01, seed=11)
    identical = (rows[0] == rows[1]
                 and np.array_equal(n1.psi, n2.psi)
                 and np.array_equal(n1.pi, n2.pi))

    ok = (worst_grad <= 1e-5 and order_t >= 1.9 and order_q >= 1.9
          and identical)
    line = _verdict(10, ok, f"gradient error {worst_grad:.1e}, "
                            f"integrator order {order_t:.3f}, "
                            f"quadrature order {order_q:.3f}, "
                            f"byte-identical reruns {identical}")
    assert ok, line
