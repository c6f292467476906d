"""Trial-state ratios, Coulomb scaling, and the coupling threshold."""

import numpy as np
import pytest
from scipy.integrate import quad

from qball import hylomorphy
from qball.fields import FOUR_PI, RadialGrid, functionals, gauss_residual
from qball.hylomorphy import (
    GridTooSmallError,
    InconsistentSetupError,
    TestStateParams,
    build_test_state,
    calibrate_constants,
    coulomb_energy,
    estimate_lambda_star,
    exact_coulomb_field,
    q_threshold,
    ratio_bound,
    ratio_sweep,
    _trial_functionals,
)
from qball.potential import (
    AdmissibilityError, PotentialSpec, default_potential, hylomorphy_constants)

# the default r_max, which caps the R list at 39
R_MAX = 40.0

# Continuum reference values for the default potential (m = 1, s_bar = 1,
# alpha = 0.25), computed with adaptive quadrature independent of the
# grid code.  RATIO_Q0[R] is E/|C| of the trial state at q = 0; COUL_PER_Q2[R]
# is the Coulomb-induced increment (ratio(q) - ratio(0)) / q^2.
RATIO_Q0 = {
    2.0: 3.1217284623773174,
    5.0: 1.357353491855458,
    10.0: 0.744000219760332,
    20.0: 0.43487231339189114,
    39.0: 0.28395696230105266,
}
COUL_PER_Q2 = {
    2.0: 0.27134451108687724,
    5.0: 1.4210334363105488,
    10.0: 5.337598057198169,
    20.0: 20.670881711391797,
    39.0: 77.35419129435425,
}
C1_REF = 1.4358642311886587
C6_REF = 0.27134451130450543
QBAR_REF = 0.21900138579603579
SCALE_REF = 0.15351223985164833
SCALE_C_REF = 0.47269510934534165
CHARGE_R10 = 1157.2580138273602
# Charge excess over the sharp ball alpha (4/3) pi R^3 s_bar^2, divided by
# 4 pi alpha s_bar^2 R^2; equals 1/3 + 1/(6R) + 1/(30R^2) for the unit ramp.
CHARGE_EXCESS_COEFF_R10 = 0.350333
ENERGY_TERMS_R10 = {
    "theta": 144.65725172842002,
    "grad": 693.2447788921477,
    "pot": 23.098185986393528,
    "coul": 0.6176978126281929,
    "total": 861.6179144195895,
}
COUL_ENERGY = {
    5.0: 7.171948661403346,
    10.0: 195.0858576018715,
    20.0: 5749.611536068716,
    40.0: 176524.98265113478,
}
COUL_SLOPE = 4.864272644956481


def test_params_validation():
    with pytest.raises(ValueError):
        TestStateParams(s_bar=1.0, alpha=0.25, R=1.0)
    with pytest.raises(ValueError):
        TestStateParams(s_bar=1.0, alpha=0.0, R=5.0)
    with pytest.raises(ValueError):
        TestStateParams(s_bar=1.0, alpha=0.25, R=5.0, q=-0.1)


def test_profile_shape(grid):
    p = TestStateParams(s_bar=1.0, alpha=0.25, R=10.0)
    state = build_test_state(p, grid)
    r = grid.r
    assert np.all(state.u[r <= p.R] == 1.0)
    assert np.all(state.u[r >= p.R + 1.0] == 0.0)
    inner = (r > p.R + 2 * grid.dr) & (r < p.R + 1.0 - 2 * grid.dr)
    assert np.max(np.abs(np.diff(state.u[inner], 2))) < 1e-12
    assert np.array_equal(state.theta, p.alpha * state.u)
    assert not state.u_hat.any()
    assert not state.Theta.any()
    assert not state.E_r.any()  # q = 0 carries no field


def test_needs_room_and_resolution(grid):
    with pytest.raises(GridTooSmallError):
        build_test_state(TestStateParams(1.0, 0.25, 39.5), grid)
    coarse = RadialGrid(r_max=40.0, n=100)
    with pytest.raises(ValueError):
        build_test_state(TestStateParams(1.0, 0.25, 10.0), coarse)


def test_gauss_consistency(grid):
    p = TestStateParams(s_bar=1.0, alpha=0.25, R=10.0, q=0.01)
    state = build_test_state(p, grid)
    source = p.q * state.theta * state.u
    scale = np.sqrt(grid.integrate(source * source))
    assert gauss_residual(state) <= 1e-8 * scale


def test_interior_field_matches_closed_form(grid):
    p = TestStateParams(s_bar=1.0, alpha=0.25, R=10.0, q=0.01)
    state = build_test_state(p, grid)
    mask = (grid.r > 0) & (grid.r <= p.R)
    expected = exact_coulomb_field(p, grid.r[mask])
    rel = np.abs(np.abs(state.E_r[mask]) - expected) / expected
    assert np.max(rel) < 1e-6


def test_charge_against_ball(grid, spec):
    p = TestStateParams(s_bar=1.0, alpha=0.25, R=10.0)
    _, charge, _ = _trial_functionals(spec, p)
    assert charge == pytest.approx(CHARGE_R10, rel=1e-9)
    # the grid sample of the same state carries the same charge
    state = build_test_state(p, grid)
    assert functionals(state, spec).charge == pytest.approx(charge, rel=1e-4)
    ball = p.alpha * FOUR_PI / 3.0 * p.R ** 3 * p.s_bar ** 2
    excess = (charge - ball) / (FOUR_PI * p.alpha * p.s_bar ** 2 * p.R ** 2)
    assert excess == pytest.approx(CHARGE_EXCESS_COEFF_R10, rel=1e-3)
    # the ramp shell is a genuine 10 percent of the total at this radius
    assert (charge - ball) / ball == pytest.approx(0.1051, abs=1e-3)


def test_energy_terms(grid, spec):
    p = TestStateParams(s_bar=1.0, alpha=0.25, R=10.0, q=0.01)
    state = build_test_state(p, grid)
    theta_term = 0.5 * grid.integrate(state.theta ** 2)
    # the face form: 4 pi r_{i+1/2}^2 dr ((u_{i+1} - u_i)/dr)^2 on every
    # face, the last one to the ghost u = 0 past r_max
    r_face = grid.r + 0.5 * grid.dr
    du = np.append(state.u[1:], 0.0) - state.u
    grad_term = 0.5 * np.sum(FOUR_PI * r_face ** 2 * grid.dr
                             * (du / grid.dr) ** 2)
    pot_term = grid.integrate(spec.w(state.u))
    # the field on the grid plus the Coulomb field Q/r^2 outside r_max
    charge_out = grid.r_max ** 2 * state.E_r[-1]
    coul_term = (0.5 * grid.integrate(state.E_r ** 2)
                 + 0.5 * FOUR_PI * charge_out ** 2 / grid.r_max)
    assert theta_term == pytest.approx(ENERGY_TERMS_R10["theta"], rel=1e-4)
    assert pot_term == pytest.approx(ENERGY_TERMS_R10["pot"], rel=1e-4)
    # the two ramp corners fall between nodes, an O(dr) effect
    assert grad_term == pytest.approx(ENERGY_TERMS_R10["grad"], rel=1e-2)
    parts = theta_term + grad_term + pot_term + coul_term
    assert functionals(state, spec).energy == pytest.approx(parts, rel=1e-12)
    # the closed form, with the field out to infinity, as coul_term
    energy, _, coulomb = _trial_functionals(spec, p)
    coul = p.q ** 2 * coulomb
    assert coul == pytest.approx(ENERGY_TERMS_R10["coul"], rel=1e-9)
    assert coul_term == pytest.approx(coul, rel=1e-6)
    assert energy + coul == pytest.approx(ENERGY_TERMS_R10["total"], rel=1e-9)


def test_coulomb_field_plateau_exact():
    p = TestStateParams(s_bar=1.0, alpha=0.25, R=10.0, q=0.01)
    # q alpha Q(r)/r^2 with Q = s_bar^2 r^3/3 inside the plateau
    r = 3.0
    expected = p.q * p.alpha * p.s_bar ** 2 * r / 3.0
    assert exact_coulomb_field(p, r) == pytest.approx(expected, rel=1e-14)
    assert exact_coulomb_field(p, 0.0) == 0.0
    neutral = TestStateParams(s_bar=1.0, alpha=0.25, R=10.0, q=0.0)
    assert not np.any(exact_coulomb_field(neutral, np.linspace(0, 30, 7)))


def test_coulomb_field_outer_shape():
    p = TestStateParams(s_bar=1.0, alpha=0.25, R=10.0, q=0.01)
    r_out = 2.0 * (p.R + 1.0)
    cap = p.q * p.alpha * p.s_bar ** 2 * (p.R + 1.0) ** 3 / (3.0 * r_out ** 2)
    assert exact_coulomb_field(p, r_out) < cap
    lo = exact_coulomb_field(p, p.R - 1e-9)
    hi = exact_coulomb_field(p, p.R + 1e-9)
    assert hi == pytest.approx(lo, rel=1e-6)
    # pure inverse-square decay once the charge is enclosed
    f30 = exact_coulomb_field(p, 30.0)
    f50 = exact_coulomb_field(p, 50.0)
    assert f50 * 50.0 ** 2 == pytest.approx(f30 * 30.0 ** 2, rel=1e-12)


def test_coulomb_energy_scaling():
    radii = sorted(COUL_ENERGY)
    values = []
    for R in radii:
        p = TestStateParams(s_bar=1.0, alpha=0.25, R=R, q=0.01)
        e = coulomb_energy(p)
        # COUL_ENERGY holds int |grad phi|^2 4 pi r^2 dr with a 4 pi
        # field, 2 (4 pi)^2 times the energy (1/2) int E_r^2 4 pi r^2 dr
        assert e == pytest.approx(COUL_ENERGY[R] / (2.0 * FOUR_PI ** 2),
                                  rel=1e-9)
        values.append(e)
    logs_r = np.log(radii)
    logs_e = np.log(values)
    slopes = np.diff(logs_e) / np.diff(logs_r)
    assert np.all(slopes >= 4.5) and np.all(slopes <= 5.0)
    fit = np.polyfit(logs_r, logs_e, 1)[0]
    assert fit == pytest.approx(COUL_SLOPE, rel=1e-9)


def test_coulomb_energy_quadratic_in_q():
    lo = coulomb_energy(TestStateParams(1.0, 0.25, 10.0, 1e-3))
    hi = coulomb_energy(TestStateParams(1.0, 0.25, 10.0, 2e-3))
    assert hi / lo == pytest.approx(4.0, abs=1e-13)


def _quad(f, lo, hi):
    return quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def _quad_functionals(spec, p):
    """_trial_functionals of p by adaptive quadrature, split at the kinks."""
    R = p.R

    def u(r):
        return p.s_bar * min(1.0, max(0.0, R + 1.0 - r))

    def split(f, hi):
        return _quad(f, 0.0, min(hi, R)) + (_quad(f, R, hi) if hi > R else 0.0)

    def enclosed(r):
        return split(lambda v: (u(v) * v) ** 2, min(r, R + 1.0))

    mass = enclosed(R + 1.0)
    grad = _quad(lambda r: (p.s_bar * r) ** 2, R, R + 1.0)
    pot = split(lambda r: float(spec.w(u(r))) * r * r, R + 1.0)
    coul = (split(lambda r: (enclosed(r) / r) ** 2, R + 1.0)
            + _quad(lambda r: (mass / r) ** 2, R + 1.0, np.inf))
    return (FOUR_PI * (0.5 * p.alpha ** 2 * mass + 0.5 * grad + pot),
            FOUR_PI * p.alpha * mass, 0.5 * FOUR_PI * p.alpha ** 2 * coul)


@pytest.mark.parametrize("R", [2.0, 10.5, 39.0])
@pytest.mark.parametrize("spec", [
    default_potential(),
    PotentialSpec("double_well", s_bar=2.0),
    PotentialSpec("poly46", a=1.0, b=0.3),
])
def test_closed_form_matches_quadrature(spec, R):
    alpha, s_bar = hylomorphy_constants(spec)
    p = TestStateParams(s_bar, alpha, R, q=0.01)
    got = _trial_functionals(spec, p)
    want = _quad_functionals(spec, p)
    assert got == pytest.approx(want, rel=1e-12)
    # coulomb_energy is the same energy at coupling q
    assert coulomb_energy(p) == pytest.approx(p.q ** 2 * want[2], rel=1e-12)


def test_ratio_sweep_reference_values(spec):
    rows = dict(ratio_sweep(spec, 0.0, R_MAX))
    assert set(rows) == set(RATIO_Q0)
    for R, ratio in rows.items():
        assert ratio == pytest.approx(RATIO_Q0[R], rel=1e-9)
    ordered = [rows[R] for R in sorted(rows)]
    assert all(a > b for a, b in zip(ordered, ordered[1:]))


def test_ratio_coulomb_increment(spec):
    base = dict(ratio_sweep(spec, 0.0, R_MAX))
    bumped = dict(ratio_sweep(spec, 0.01, R_MAX))
    inc = (bumped[10.0] - base[10.0]) / 0.01 ** 2
    assert inc == pytest.approx(COUL_PER_Q2[10.0], rel=1e-9)
    # ratio grows monotonically with the coupling at every radius
    mid = dict(ratio_sweep(spec, 1e-3, R_MAX))
    for R in base:
        assert base[R] <= mid[R] <= bumped[R]


def test_r_list_capping(spec):
    # DEFAULT_R_LIST capped at r_max - 1
    rows = ratio_sweep(spec, 0.0, 30.0)
    assert [R for R, _ in rows] == [2.0, 5.0, 10.0, 20.0, 29.0]
    with pytest.raises(ValueError):
        ratio_sweep(spec, 0.0, 2.0)


def test_calibrated_constants(spec):
    c1, c6 = calibrate_constants(spec, R_MAX)
    assert c1 == pytest.approx(C1_REF, rel=1e-9)
    assert c6 == pytest.approx(C6_REF, rel=1e-8)
    alpha, s_bar = 0.25, 1.0
    for q in (0.0, 1e-3, 1e-2):
        for R, ratio in ratio_sweep(spec, q, R_MAX):
            assert ratio <= ratio_bound(alpha, s_bar, q, R, c1, c6) + 1e-6


def test_estimate_lambda_star(spec):
    best, best_R = estimate_lambda_star(spec, 0.0, R_MAX)
    assert best_R == 39.0
    assert best == pytest.approx(RATIO_Q0[39.0], rel=1e-9)
    assert best < spec.m
    strong, _ = estimate_lambda_star(spec, 10.0, R_MAX)
    assert strong >= spec.m


def test_threshold_report(spec):
    rep = q_threshold(spec, R_MAX)
    assert rep.q_bar_est == pytest.approx(QBAR_REF, rel=1e-9)
    assert rep.analytic_scale == pytest.approx(SCALE_REF, rel=1e-8)
    assert rep.scale_c == pytest.approx(SCALE_C_REF, rel=1e-8)
    assert rep.hylomorphic and rep.best_ratio < spec.m
    assert rep.bisect_iters <= 40
    assert rep.bisect_rel_width <= 0.01
    # verified coupling still passes, twice it clearly fails
    assert estimate_lambda_star(spec, rep.q_bar_est, R_MAX)[0] < spec.m
    assert estimate_lambda_star(spec, 2.0 * rep.q_bar_est, R_MAX)[0] >= spec.m
    assert estimate_lambda_star(spec, rep.q_ceiling, R_MAX)[0] >= spec.m


def test_threshold_closed_form_bracket(spec):
    rep = q_threshold(spec, R_MAX)
    assert estimate_lambda_star(spec, rep.q_bar_est, R_MAX)[0] < spec.m
    assert estimate_lambda_star(spec, rep.q_ceiling, R_MAX)[0] >= spec.m
    assert rep.bisect_iters == 0
    assert rep.bisect_rel_width <= 1e-12
    assert rep.q_bar_est == pytest.approx(QBAR_REF, rel=1e-9)


def test_threshold_builds_the_ratio_rows_once(spec):
    hylomorphy._ratio_coefficients.cache_clear()
    rep = q_threshold(spec, R_MAX)
    assert hylomorphy._ratio_coefficients.cache_info().misses == 1
    assert rep.q_bar_est == pytest.approx(QBAR_REF, rel=1e-9)


@pytest.mark.parametrize("spec, r_max", [
    (PotentialSpec("poly46", a=1.0, b=0.3), 40.0),
    (PotentialSpec("poly46", a=1.0, b=0.3), 25.0),
    (default_potential(), 30.0),
])
def test_threshold_bracket_other_setups(spec, r_max):
    rep = q_threshold(spec, r_max)
    assert estimate_lambda_star(spec, rep.q_bar_est, r_max)[0] < spec.m
    assert estimate_lambda_star(spec, rep.q_ceiling, r_max)[0] >= spec.m
    assert rep.bisect_iters == 0
    assert rep.bisect_rel_width <= 1e-12


def test_threshold_scale_is_bound_crossing(spec):
    rep = q_threshold(spec, R_MAX)
    eps = 0.5 * (spec.m - rep.alpha)
    r_star = rep.c1 / (rep.alpha * eps)
    below = ratio_bound(rep.alpha, rep.s_bar, 0.99 * rep.analytic_scale,
                        r_star, rep.c1, rep.c6)
    above = ratio_bound(rep.alpha, rep.s_bar, 1.01 * rep.analytic_scale,
                        r_star, rep.c1, rep.c6)
    assert below < spec.m < above


def test_pure_mass_has_no_threshold():
    bare = PotentialSpec(name="pure_mass", m=1.0)
    with pytest.raises(AdmissibilityError):
        q_threshold(bare, R_MAX)


def test_threshold_scales_inversely_with_plateau():
    tall = PotentialSpec(name="double_well", m=1.0, s_bar=2.0)
    rep1 = q_threshold(default_potential(), R_MAX)
    rep2 = q_threshold(tall, R_MAX)
    assert rep2.q_bar_est / rep1.q_bar_est == pytest.approx(0.5, abs=0.05)
