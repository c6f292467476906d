"""Soliton profile solvers: shooting, screened potential, descent, sweeps.

Reference numbers were produced by independent routes before these tests
were written: the separatrix value of u(0) comes from an adaptive
continuum integration (reproduced here by the in-test oracle), and the
discrete fixed-point values are frozen from the first converged runs so
regressions show up as drift against them.
"""

import numpy as np
import pytest

from qball import solver
from qball.fields import FieldState, RadialGrid, energy_norm_sq, gauss_residual
from qball.hylomorphy import TestStateParams, build_test_state, exact_coulomb_field
from qball.potential import PotentialSpec
from qball.solver import (
    ChargeCollapseError,
    ConvergenceError,
    DEFAULT_OMEGA_LIST,
    SolveOptions,
    descent_seed,
    family_sweep,
    flow_state,
    j_functional,
    minimize_J,
    newton_polish,
    shoot_u_given_phi,
    solve_phi_given_u,
    solve_profile,
)

FOUR_PI = 4.0 * np.pi

# separatrix u(0) of the neutral profile equation at omega = 0.8,
# from adaptive continuum integration with bisection to 1e-12
CONTINUUM_U0 = 0.5307916267822679

# discrete fixed point on RadialGrid(40, 4000), frozen at first convergence
NEUTRAL_U0 = 0.5307793252870213
NEUTRAL_E = 12.557830250863631
NEUTRAL_C = -13.765581515764033
NEUTRAL_LAMBDA = 0.9122629680760445

# the coupled Newton's fixed point, at res1 5e-12 and res2 9e-13
CHARGED_Q = 0.02
CHARGED_U0 = 0.5310527050124083
CHARGED_E = 12.568210101707354
CHARGED_LAMBDA = 0.9122363950807411

# descent minimizer of E/|C| + delta E^2 at delta = 2e-4, q = 1e-3
FLOW_DELTA = 2e-4
FLOW_Q = 1e-3
FLOW_OMEGA = 0.67142
FLOW_E = 21.6861
FLOW_LAMBDA = 0.82459


@pytest.fixture(scope="module")
def neutral_profile(spec, grid):
    return solve_profile(spec, 0.8, 0.0, grid)


@pytest.fixture(scope="module")
def charged_profile(spec, grid):
    return solve_profile(spec, 0.8, CHARGED_Q, grid)


@pytest.fixture(scope="module")
def flow_seed(spec, grid):
    from qball.potential import hylomorphy_constants
    alpha, s_bar = hylomorphy_constants(spec, "max_threshold")
    return build_test_state(TestStateParams(s_bar, alpha, 10.0, FLOW_Q), grid)


@pytest.fixture(scope="module")
def flow_profile(spec, grid, flow_seed):
    return minimize_J(spec, FLOW_Q, FLOW_DELTA, flow_seed)


@pytest.fixture(scope="module")
def default_sweep(spec, grid):
    return family_sweep(spec, 0.0, grid)


def _diff_norm(a, b, spec):
    grid = a.grid
    d = FieldState(grid, a.u - b.u, a.u_hat - b.u_hat, a.theta - b.theta,
                   a.Theta - b.Theta, a.E_r - b.E_r, a.q)
    return float(np.sqrt(energy_norm_sq(d, spec)))


def test_solve_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(tol=-1e-6)


def test_phi_solver_neutral_is_zero(grid):
    u = np.exp(-grid.r ** 2)
    phi = solve_phi_given_u(u, 0.8, 0.0, grid)
    assert np.array_equal(phi, np.zeros(grid.n))


def test_phi_solver_matches_ball_potential(spec, grid):
    # at vanishing coupling the screening term is negligible and the
    # potential of the plateau profile has a closed form
    p = TestStateParams(s_bar=1.0, alpha=0.25, R=10.0, q=1e-6)
    st = build_test_state(p, grid)
    phi = solve_phi_given_u(st.u, 0.25, 1e-6, grid)
    e_num = -grid.d_dr(phi)
    e_ref = exact_coulomb_field(p, grid.r) / FOUR_PI
    interior = (grid.r > 1.0) & (grid.r < 35.0)
    scale = np.max(np.abs(e_ref))
    assert np.max(np.abs(e_num[interior] - e_ref[interior])) < 1e-4 * scale


def test_phi_outer_tail_inverse_r(spec, grid):
    p = TestStateParams(s_bar=1.0, alpha=0.25, R=10.0, q=1e-6)
    st = build_test_state(p, grid)
    phi = solve_phi_given_u(st.u, 0.25, 1e-6, grid)
    far = (grid.r > 20.0) & (grid.r < 39.9)
    rphi = grid.r[far] * phi[far]
    assert np.ptp(rphi) < 1e-5 * np.max(rphi)


def test_screened_potential_bounds(charged_profile):
    # discrete maximum principle: 0 <= q phi <= omega
    qphi = charged_profile.q * charged_profile.phi
    assert np.all(qphi >= -1e-15)
    assert np.max(qphi) <= charged_profile.omega


def test_shoot_separatrix_value(spec, grid):
    u = shoot_u_given_phi(spec, 0.8, grid)
    assert abs(u[0] - CONTINUUM_U0) < 1e-8
    assert np.all(np.diff(u) <= 1e-14)
    assert u[-1] == 0.0
    # the glued exponential tail has decayed far below the core
    assert abs(u[-2]) < 1e-5 * u[0]


def _integrate_to_classification(spec, omega, u0, r_end=30.0):
    # independent marcher: adaptive integration, series start at the axis
    from scipy.integrate import solve_ivp

    def rhs(r, y):
        u, v = y
        return [v, spec.wp(u) - omega ** 2 * u - 2.0 * v / r]

    def crossed(r, y):
        return y[0]

    crossed.terminal = True
    crossed.direction = -1.0

    def turned(r, y):
        return y[1]

    turned.terminal = True
    turned.direction = 1.0

    r0 = 1e-6
    g = spec.wp(u0) - omega ** 2 * u0
    y0 = [u0 + g * r0 ** 2 / 6.0, g * r0 / 3.0]
    sol = solve_ivp(rhs, (r0, r_end), y0, events=[crossed, turned],
                    rtol=1e-11, atol=1e-13)
    if sol.t_events[0].size:
        return 2
    if sol.t_events[1].size:
        return 1
    return 1


def test_shoot_matches_independent_integrator(spec, grid):
    lo, hi = 0.4, 0.7
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        if _integrate_to_classification(spec, 0.8, mid) == 2:
            hi = mid
        else:
            lo = mid
    oracle = 0.5 * (lo + hi)
    u = shoot_u_given_phi(spec, 0.8, grid)
    assert abs(u[0] - oracle) < 1e-8


def test_omega_domain_errors(spec, grid):
    for omega in (0.0, -0.3, 1.0, 1.2):
        with pytest.raises(ValueError):
            solve_profile(spec, omega, 0.0, grid)


def test_newton_certificate(spec, grid):
    opts = SolveOptions()
    phi = np.zeros(grid.n)
    u = shoot_u_given_phi(spec, 0.8, grid)
    u_ref, _, gnorm, _ = newton_polish(spec, 0.8, 0.0, grid, u, phi, opts)
    assert gnorm <= opts.newton_tol
    assert abs(u_ref[0] - u[0]) < 2e-5


def test_neutral_profile_reference(neutral_profile):
    p = neutral_profile
    assert abs(p.u0 - NEUTRAL_U0) < 1e-8 * NEUTRAL_U0
    assert abs(p.E - NEUTRAL_E) < 1e-8 * NEUTRAL_E
    assert abs(p.C - NEUTRAL_C) < 1e-8 * abs(NEUTRAL_C)
    assert abs(p.Lambda - NEUTRAL_LAMBDA) < 1e-8
    assert p.res1 < 1e-6
    assert p.res2 == 0.0
    assert p.C < 0
    assert p.Lambda < 1.0
    np.testing.assert_allclose(p.state.theta, -0.8 * p.state.u,
                               rtol=0, atol=1e-14)


def test_charged_profile_reference(charged_profile, neutral_profile):
    p = charged_profile
    assert abs(p.u0 - CHARGED_U0) < 1e-8 * CHARGED_U0
    assert abs(p.E - CHARGED_E) < 1e-8 * CHARGED_E
    assert abs(p.Lambda - CHARGED_LAMBDA) < 1e-8
    assert p.res1 < 1e-6
    assert p.res2 < 1e-6
    # the gauge field costs energy and slightly reshapes the profile
    assert p.E > neutral_profile.E
    assert p.u0 > neutral_profile.u0


@pytest.mark.parametrize("q", [0.0, CHARGED_Q])
@pytest.mark.parametrize("omega", [0.5, 0.8, 0.95])
def test_cold_solve_is_seed_independent(spec, grid, omega, q):
    # the coarse-grid seed and the fine-grid shoot polish to one profile
    phi = np.zeros(grid.n)
    fine = shoot_u_given_phi(spec, omega, grid)
    u, _, _, _ = newton_polish(spec, omega, q, grid, fine, phi)
    seeded = solve_profile(spec, omega, q, grid, init_u=u)
    cold = solve_profile(spec, omega, q, grid)
    assert np.max(np.abs(cold.state.u - seeded.state.u)) <= 1e-13
    # so does a continuation step from the preceding omega of a sweep
    # (largest gap 9.7e-13, at omega 0.5 and q 0.02)
    prev = solve_profile(spec, omega - 0.05, q, grid)
    warm = solve_profile(spec, omega, q, grid, init_u=prev.state.u)
    assert np.max(np.abs(cold.state.u - warm.state.u)) <= 2e-12


def _spy_march(monkeypatch):
    """Record the node count of every shooting march."""
    sizes = []
    march = solver._march

    def spy(*args, **kwargs):
        sizes.append(args[2].n)
        return march(*args, **kwargs)

    monkeypatch.setattr(solver, "_march", spy)
    return sizes


def test_cold_solve_shoots_on_the_coarse_grid(spec, grid, monkeypatch):
    sizes = _spy_march(monkeypatch)
    solve_profile(spec, 0.8, CHARGED_Q, grid)
    assert sizes and set(sizes) == {(grid.n - 1) // solver.COARSEN + 1}


def test_coarse_grid_keeps_the_node_floor(spec, monkeypatch):
    # 5 nodes coarsen to 2, below RadialGrid's floor of 3
    sizes = _spy_march(monkeypatch)
    with pytest.raises(ConvergenceError):
        solve_profile(spec, 0.8, 0.0, RadialGrid(20.0, 5))
    assert set(sizes) == {3}


@pytest.mark.parametrize("omega", [0.5, 0.8])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_extra_step_at_the_roundoff_floor(spec, omega):
    # a converged profile admits no merit decrease; the polish keeps it
    grid = RadialGrid(20.0, 600)
    opts = SolveOptions()
    prof = solve_profile(spec, omega, 0.0, grid)
    u, _, res, _ = newton_polish(spec, omega, 0.0, grid, prof.state.u,
                                 prof.phi, opts)
    assert res < opts.newton_tol
    assert np.max(np.abs(u - prof.state.u)) < 1e-12


def test_line_search_floor_keeps_the_iterate(spec, grid, neutral_profile):
    # from the omega = 0.85 profile, the step taken past newton_tol finds
    # no merit decrease at the roundoff floor; the polish keeps the
    # iterate there instead of failing the solve
    start = solve_profile(spec, 0.85, 0.0, grid)
    warm = solve_profile(spec, 0.8, 0.0, grid, init_u=start.state.u)
    assert warm.res1 < SolveOptions().newton_tol
    assert np.max(np.abs(warm.state.u - neutral_profile.state.u)) <= 1e-12


def test_solve_counters(neutral_profile, charged_profile, flow_profile):
    assert 1 <= neutral_profile.newton_iters <= 4
    assert 1 <= charged_profile.newton_iters <= 4
    assert flow_profile.newton_iters is None


@pytest.mark.parametrize("spec, grid, q, omega", [
    *[pytest.param(PotentialSpec("double_well"), RadialGrid(20.0, 600), q,
                   omega, id=f"double_well-q{q}-omega{omega}")
      for q in (0.1, 0.2) for omega in (0.7, 0.9)],
    # a start with phi seeded by solve_phi_given_u stalls here
    pytest.param(PotentialSpec("poly46", a=1.0, b=0.3), RadialGrid(40.0, 4000),
                 0.01, 0.7, id="poly46-q0.01-omega0.7"),
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_coupled_newton_converges_cold_charged_solves(spec, grid, q, omega):
    prof = solve_profile(spec, omega, q, grid)
    assert prof.res1 <= 1e-9 and prof.res2 <= 1e-9
    assert prof.newton_iters <= 8


def test_profile_shape(neutral_profile):
    u = neutral_profile.state.u
    assert np.all(u >= 0.0)
    assert np.all(np.diff(u) <= 1e-14)
    assert u[-1] == 0.0
    assert neutral_profile.tail_ratio < 1e-8


def test_central_value_decreases_with_omega(default_sweep):
    u0s = [p.u0 for p in default_sweep.profiles]
    assert all(a > b for a, b in zip(u0s, u0s[1:]))


def test_flow_converges_small_penalty(flow_profile):
    m = flow_profile
    assert m.res1 <= 1e-4
    assert m.res1 <= 2e-5
    assert m.fit_residual <= 1e-3
    assert m.fit_residual <= 1e-5
    assert abs(m.omega - FLOW_OMEGA) < 1e-3
    assert abs(m.E - FLOW_E) < 1e-3 * FLOW_E
    assert abs(m.Lambda - FLOW_LAMBDA) < 1e-3
    assert m.delta == FLOW_DELTA
    assert m.flow_iters < 1000
    assert m.C < 0 and m.Lambda < 1.0


def test_flow_agrees_with_direct_after_polish(spec, grid, flow_profile):
    m = flow_profile
    polished = solve_profile(spec, m.omega, FLOW_Q, grid, init_u=m.state.u)
    fresh = solve_profile(spec, m.omega, FLOW_Q, grid)
    rel = _diff_norm(polished.state, fresh.state, spec) \
        / np.sqrt(energy_norm_sq(fresh.state, spec))
    assert rel < 1e-3
    assert rel < 1e-6
    assert polished.res1 < 1e-6
    # before polish the descent state is already close in energy norm
    rel0 = _diff_norm(m.state, fresh.state, spec) \
        / np.sqrt(energy_norm_sq(fresh.state, spec))
    assert rel0 < 1e-3


def test_flow_branch_symmetry(spec, grid, flow_seed, flow_profile):
    # starting from the opposite charge branch lands on the same profile
    mirrored = flow_state(spec, FLOW_Q, grid, flow_seed.u, -flow_seed.theta)
    m2 = minimize_J(spec, FLOW_Q, FLOW_DELTA, mirrored)
    assert abs(m2.E - flow_profile.E) < 1e-9 * flow_profile.E
    assert abs(m2.omega - flow_profile.omega) < 1e-9


def test_flow_rejects_bad_initial_states(spec, grid, flow_seed):
    with pytest.raises(ValueError):
        minimize_J(spec, FLOW_Q, FLOW_DELTA, FieldState.zero(grid, FLOW_Q))
    bad = flow_seed.clone()
    bad.E_r = np.zeros(grid.n)
    with pytest.raises(ValueError):
        minimize_J(spec, FLOW_Q, FLOW_DELTA, bad)
    with pytest.raises(TypeError):
        minimize_J(spec, FLOW_Q, FLOW_DELTA, (flow_seed.u, flow_seed.theta))
    with pytest.raises(ValueError):
        minimize_J(spec, FLOW_Q, -1e-3, flow_seed)


def test_flow_charge_floor_collapse(spec, grid, flow_seed):
    # a floor above the initial charge blocks every step immediately
    opts = SolveOptions(charge_floor=2.0)
    with pytest.raises(ChargeCollapseError):
        minimize_J(spec, FLOW_Q, FLOW_DELTA, flow_seed, opts=opts)


def test_flow_gradient_matches_finite_differences(spec, grid, flow_seed, rng):
    q, delta, h = 0.01, 1e-3, 1e-6
    seed = build_test_state(TestStateParams(1.0, 0.25, 10.0, q), grid)
    u, theta = seed.u, seed.theta
    _, g_u, g_th = j_functional(spec, q, grid, delta, u, theta)
    env = np.exp(-(grid.r / 10.0) ** 2)
    for _ in range(10):
        c = rng.normal(size=6)
        d_u = env * (c[0] + c[1] * np.cos(0.23 * grid.r)
                     + c[2] * np.sin(0.11 * grid.r))
        d_th = env * (c[3] + c[4] * np.cos(0.31 * grid.r)
                      + c[5] * np.sin(0.19 * grid.r))
        d_u[-1] = 0.0
        jp, _, _ = j_functional(spec, q, grid, delta, u + h * d_u,
                                theta + h * d_th)
        jm, _, _ = j_functional(spec, q, grid, delta, u - h * d_u,
                                theta - h * d_th)
        fd = (jp - jm) / (2.0 * h)
        an = float(np.dot(g_u, d_u) + np.dot(g_th, d_th))
        assert abs(fd - an) < 1e-5 * abs(an)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_penalty_weights_separate_energies(spec, grid, flow_seed):
    # beyond the penalty ceiling the descent drifts toward the vacuum
    # and stalls; the two stall states still have well separated energies
    opts = SolveOptions(flow_max_iter=20000)
    m1 = minimize_J(spec, FLOW_Q, 1e-3, flow_seed, opts=opts)
    m2 = minimize_J(spec, FLOW_Q, 1e-2, flow_seed, opts=opts)
    assert abs(m1.E - m2.E) / m1.E > 1e-3
    assert m1.E > m2.E
    # both runs are in the drift regime: residuals reflect it honestly
    assert m1.res1 > 1e-4
    assert m2.res1 > 1e-4
    assert m1.Lambda > 0.99


def test_penalty_sweep_continuation(spec, grid):
    sw = family_sweep(spec, FLOW_Q, grid, delta_list=[2e-4, 3e-4])
    assert sw.parameter == "delta"
    assert not sw.failures
    p1, p2 = sw.profiles
    assert p1.res1 <= 1e-4 and p2.res1 <= 1e-4
    assert p2.E < p1.E
    assert p2.omega > p1.omega


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_family_sweep_fails_short_descent(spec):
    # 50 iterations end the descent before J stalls, above flow_res_tol
    sw = family_sweep(spec, FLOW_Q, RadialGrid(20.0, 600), delta_list=[2e-4],
                      opts=SolveOptions(flow_max_iter=50))
    assert sw.profiles == [None]
    assert len(sw.failures) == 1
    value, reason = sw.failures[0]
    assert value == 2e-4
    assert "descent stopped after 50 iterations" in reason
    assert "above flow_res_tol=5e-05" in reason


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_family_sweep_fails_descent_above_the_mass():
    # this descent stalls near the vacuum (u0 about 0.01, res1 about 0.2)
    # with a fitted omega of 1.012: no bound state, although J stalled
    sw = family_sweep(PotentialSpec("poly46", a=1.0, b=0.3), 0.001,
                      RadialGrid(20, 600), delta_list=[2e-4])
    assert sw.profiles == [None]
    assert len(sw.failures) == 1
    value, reason = sw.failures[0]
    assert value == 2e-4
    assert reason.startswith("descent fitted omega=1.01")
    assert reason.endswith(" outside (0, m=1)")


@pytest.mark.parametrize("n", [600, 1200, 2400])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_descent_points_end_in_the_coupled_newton(spec, n):
    # the descent stalls at J's roundoff floor, res1 1.5e-4 to 3.0e-4
    # growing with n; the Newton finish brings every point below tol
    tol = SolveOptions().tol
    sw = family_sweep(spec, FLOW_Q, RadialGrid(20.0, n), delta_list=[2e-4])
    assert not sw.failures
    (p,) = sw.profiles
    assert p.res1 < tol and p.res2 < tol
    assert p.newton_iters >= 1
    assert p.delta == 2e-4
    assert p.flow_iters >= 1 and p.fit_residual < 1e-3


def test_descent_out_of_iterations_raises(spec):
    grid = RadialGrid(20.0, 600)
    with pytest.raises(ConvergenceError,
                       match="descent stopped after 50 iterations"):
        minimize_J(spec, FLOW_Q, 2e-4, descent_seed(spec, FLOW_Q, grid),
                   SolveOptions(flow_max_iter=50))


def test_family_sweep_default(default_sweep):
    sw = default_sweep
    assert sw.parameter == "omega"
    assert list(sw.values) == list(DEFAULT_OMEGA_LIST)
    assert not sw.failures
    assert all(p is not None for p in sw.profiles)
    for p in sw.profiles:
        assert p.Lambda < 1.0
        assert p.res1 < 1e-6
        assert p.C < 0
    energies = np.array([p.E for p in sw.profiles])
    charges = np.array([abs(p.C) for p in sw.profiles])
    assert np.all(np.diff(energies) < 0)
    assert np.all(np.diff(charges) < 0)
    # adjacent relative changes stay bounded along the family
    assert np.max(np.abs(np.diff(energies)) / energies[:-1]) < 0.40
    assert np.max(np.abs(np.diff(charges)) / charges[:-1]) < 0.40


def test_family_sweep_continuity_refinement(spec, grid, default_sweep):
    # halving the omega spacing roughly halves the jump, as it should
    # for a differentiable family
    e_90 = default_sweep.profiles[-2].E
    e_95 = default_sweep.profiles[-1].E
    mid = solve_profile(spec, 0.925, 0.0, grid)
    full = abs(e_90 - e_95)
    assert abs(e_90 - mid.E) < 0.65 * full
    assert abs(mid.E - e_95) < 0.65 * full


def test_family_sweep_records_failures(spec, grid):
    sw = family_sweep(spec, 0.0, grid, omega_list=[0.8, 1.5])
    assert sw.profiles[0] is not None
    assert sw.profiles[1] is None
    assert len(sw.failures) == 1
    assert sw.failures[0][0] == 1.5


def test_family_sweep_empty(spec, grid):
    sw = family_sweep(spec, 0.0, grid, omega_list=[])
    assert sw.values == []
    assert sw.profiles == []
    assert sw.failures == []
    assert sw.ok == []


def test_family_sweep_rejects_double_parameter(spec, grid):
    with pytest.raises(ValueError):
        family_sweep(spec, 0.0, grid, omega_list=[0.8], delta_list=[1e-3])


def test_tail_warning_near_mass_threshold(spec, grid):
    with pytest.warns(RuntimeWarning):
        solve_profile(spec, 0.97, 0.0, grid)


def test_descent_seed_is_admissible(spec, grid):
    # the default seed passes the constraint screen of the descent
    seed = descent_seed(spec, 0.5, grid)
    assert seed.q == 0.5
    assert np.max(np.abs(gauss_residual(seed))) < 1e-8


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_shooting_bracket_follows_the_field_scale():
    # W_10(s) = 100 W(s/10) has the profile 10 u wherever W has u.  Its
    # s_bar stays 1, so a bracket in units of s_bar finds no overshoot;
    # one in units of s_scale shoots the same fan, ten times higher.
    a, b = 0.9 * np.sqrt(8.0 / 3.0), 0.5
    grid = RadialGrid(20.0, 600)
    one = solve_profile(PotentialSpec("poly46", a=a, b=b), 0.8, 0.0, grid)
    ten = solve_profile(PotentialSpec("poly46", a=a / 100.0, b=b / 1e4),
                        0.8, 0.0, grid)
    assert ten.u0 == pytest.approx(15.4447, abs=1e-4)
    assert np.max(np.abs(ten.state.u - 10.0 * one.state.u)) <= 1e-13 * ten.u0


def test_largest_force_root_is_the_closed_form(spec):
    # W'(s)/s = (1 - s)(1 - 2s) = om^2 at s = (3 +- sqrt(1 + 8 om^2))/4
    root = solver._largest_force_root
    for om in (0.3, 0.5, 0.9):
        big, small = (3.0 + np.array([1.0, -1.0]) * np.sqrt(1 + 8 * om * om)) / 4
        assert root(spec, om, 0.01, 10.0) == pytest.approx(big, rel=1e-14)
        assert root(spec, om, 0.01, 0.9 * big) == pytest.approx(small, rel=1e-14)
        assert root(spec, om, 0.01, 0.9 * small) is None
    assert root(PotentialSpec("pure_mass"), 0.5, 0.01, 10.0) is None
