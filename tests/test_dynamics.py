"""Time evolution: conservation, reversibility, dispersion, stability probes.

The evolution claims are checked against independently derivable facts:
the Klein-Gordon dispersion relation for small standing waves, exact
phase rotation of a neutral stationary profile, quadratic charge
scaling under amplitude perturbations, and second-order convergence of
the splitting.  Conservation drifts are asserted at the bounds the
integrator is expected to hold at the default resolution.
"""

import numpy as np
import pytest

from qball import dynamics
from qball.dynamics import (
    BlowUpError,
    DEFAULT_DT_FACTOR,
    DynState,
    PERTURBATION_MODES,
    SERIES_RANGE,
    TRACE_COLUMNS,
    charge_density,
    constrain,
    dyn_charge,
    dyn_energy,
    dyn_norm_sq,
    evolve,
    lift_profile,
    orbit_distance,
    perturb,
    stability_probe,
    step,
    theta_field,
    _kick,
    _plain_distance,
)
from qball.solver import solve_profile


@pytest.fixture(scope="module")
def neutral_profile(spec, grid):
    return solve_profile(spec, 0.8, 0.0, grid)


@pytest.fixture(scope="module")
def charged_profile(spec, grid):
    return solve_profile(spec, 0.8, 0.02, grid)


@pytest.fixture(scope="module")
def neutral_lift(spec, neutral_profile):
    return lift_profile(neutral_profile, spec)


@pytest.fixture(scope="module")
def neutral_trace(neutral_lift):
    return evolve(neutral_lift, 50.0, sample_every=25)


@pytest.fixture(scope="module")
def charged_trace(spec, charged_profile):
    return evolve(lift_profile(charged_profile, spec), 25.0, sample_every=25)


def _pulse(spec, grid, q=0.01, amp=0.1, center=10.0):
    psi = amp * np.exp(-((grid.r - center) / 3.0) ** 2).astype(complex)
    st = DynState(grid, spec, q, psi, np.zeros(grid.n, complex),
                  np.zeros(grid.n), np.zeros(grid.n))
    return constrain(st)


def test_lift_matches_profile_functionals(spec, neutral_profile,
                                          charged_profile):
    for p in (neutral_profile, charged_profile):
        st = lift_profile(p, spec)
        assert abs(dyn_energy(st) - p.E) < 1e-8
        assert abs(dyn_charge(st) - p.C) < 1e-8


def test_neutral_orbit_is_pure_phase_rotation(neutral_trace):
    # |psi| must stay put while the phase turns
    spread = np.max(neutral_trace.max_psi) - np.min(neutral_trace.max_psi)
    assert spread < 1e-6


def test_conservation_neutral(neutral_trace, neutral_lift):
    tr = neutral_trace
    assert np.max(np.abs(tr.E - tr.E[0])) / abs(tr.E[0]) < 1e-5
    assert np.max(np.abs(tr.C - tr.C[0])) / abs(tr.C[0]) < 1e-5
    assert np.max(tr.V) < 1e-6 * (tr.e0 ** 2 + tr.c0 ** 2)
    assert np.max(tr.d) < 1e-5 * np.sqrt(dyn_norm_sq(neutral_lift))
    assert tr.sponge_flux[-1] < 1e-10


def test_conservation_charged(charged_trace):
    tr = charged_trace
    assert np.max(np.abs(tr.E - tr.E[0])) / abs(tr.E[0]) < 1e-5
    assert np.max(np.abs(tr.C - tr.C[0])) / abs(tr.C[0]) < 1e-5
    assert np.max(tr.V) < 1e-6 * (tr.e0 ** 2 + tr.c0 ** 2)


def test_liapunov_monitor_bit_consistency(neutral_trace):
    tr = neutral_trace
    again = (tr.E - tr.e0) ** 2 + (tr.C - tr.c0) ** 2
    assert np.array_equal(tr.V, again)


def test_trace_shape(neutral_trace):
    cols = neutral_trace.columns()
    assert tuple(cols) == TRACE_COLUMNS
    lengths = {len(v) for v in cols.values()}
    assert len(lengths) == 1
    assert np.all(np.diff(neutral_trace.t) > 0)


def test_step_zero_field(spec, grid):
    st = DynState(grid, spec, 0.01, np.zeros(grid.n, complex),
                  np.zeros(grid.n, complex), np.zeros(grid.n),
                  np.zeros(grid.n))
    out = step(st, 0.002)
    assert not np.any(out.psi)
    assert not np.any(out.pi)
    assert out.t == 0.002


def test_step_validation(spec, grid):
    st = _pulse(spec, grid)
    with pytest.raises(ValueError):
        step(st, 0.0)
    with pytest.raises(ValueError):
        step(st, 0.6 * grid.dr)


def test_blow_up_carries_time_and_partial_trace(spec, grid):
    st = _pulse(spec, grid)
    st.psi[5] = np.nan
    with pytest.raises(BlowUpError) as err:
        evolve(st, 1.0, dt=0.002)
    assert err.value.t > 0.0
    assert err.value.trace is not None
    assert err.value.trace.t.size >= 1


def test_time_reversal(spec, grid):
    st = _pulse(spec, grid)
    T, dt = 5.0, 0.002

    def flip(s):
        out = s.clone()
        out.psi = np.conj(s.psi)
        out.pi = -np.conj(s.pi)
        return constrain(out)

    cur = st
    for _ in range(int(T / dt)):
        cur = step(cur, dt)
    cur = flip(cur)
    for _ in range(int(T / dt)):
        cur = step(cur, dt)
    back = flip(cur)
    rel = _plain_distance(back, st) / np.sqrt(dyn_norm_sq(st))
    assert rel < 1e-4
    assert rel < 1e-9


def test_splitting_self_convergence(spec, grid):
    ends = []
    for dt in (0.004, 0.002, 0.001):
        cur = _pulse(spec, grid)
        for _ in range(int(round(2.0 / dt))):
            cur = step(cur, dt)
        ends.append(cur)
    e1 = _plain_distance(ends[0], ends[1])
    e2 = _plain_distance(ends[1], ends[2])
    order = np.log2(e1 / e2)
    assert order >= 1.9


def test_linear_dispersion(spec, grid):
    # standing mode sin(kr)/(kr) of the linearized field obeys
    # omega^2 = m^2 + k^2
    k = 5.0 * np.pi / grid.r_max
    prof = np.ones(grid.n)
    prof[1:] = np.sin(k * grid.r[1:]) / (k * grid.r[1:])
    st = DynState(grid, spec, 0.0, 1e-6 * prof.astype(complex),
                  np.zeros(grid.n, complex), np.zeros(grid.n),
                  np.zeros(grid.n))
    dt = 0.002
    proj = []
    cur = st
    for _ in range(int(25.0 / dt)):
        cur = step(cur, dt)
        proj.append(float(grid.w @ (cur.psi.real * prof)))
    proj = np.array(proj)
    t = dt * np.arange(1, proj.size + 1)
    sgn = np.sign(proj)
    flips = np.flatnonzero(sgn[:-1] * sgn[1:] < 0)
    t_zero = t[flips] + dt * proj[flips] / (proj[flips] - proj[flips + 1])
    omega_meas = 2.0 * np.pi / np.mean(2.0 * np.diff(t_zero))
    omega_true = np.sqrt(spec.m ** 2 + k * k)
    assert abs(omega_meas - omega_true) / omega_true < 0.01


def test_amplitude_perturbation_charge_scaling(neutral_lift):
    eps = 0.05
    kicked = perturb(neutral_lift, "amplitude", eps)
    ratio = dyn_charge(kicked) / dyn_charge(neutral_lift)
    assert abs(ratio - (1.0 + eps) ** 2) < 1e-12


def test_noise_perturbation_distance(neutral_lift):
    eps = 0.01
    kicked = perturb(neutral_lift, "noise", eps)
    target = eps * np.sqrt(dyn_norm_sq(neutral_lift))
    assert abs(_plain_distance(kicked, neutral_lift) - target) < 1e-6


def test_perturb_identity_at_zero(neutral_lift):
    for mode in PERTURBATION_MODES:
        same = perturb(neutral_lift, mode, 0.0)
        assert np.array_equal(same.psi, neutral_lift.psi)
        assert np.array_equal(same.pi, neutral_lift.pi)


def test_perturb_validation(neutral_lift):
    with pytest.raises(ValueError):
        perturb(neutral_lift, "amplitude", -0.01)
    with pytest.raises(ValueError):
        perturb(neutral_lift, "twist", 0.01)


def test_gauge_sector_consistency(spec, charged_profile):
    st = lift_profile(charged_profile, spec)
    for _ in range(500):
        st = step(st, 0.002)
    rho = charge_density(st)
    theta, mask = theta_field(st)
    # the two reconstructions are tied together wherever psi is visible
    back = -st.q * theta[mask] * np.abs(st.psi)[mask]
    assert np.max(np.abs(rho[mask] - back)) < 1e-12
    # and the evolved theta still matches the stationary one
    ref = charged_profile.state.theta
    assert np.max(np.abs(theta[mask] + np.abs(ref)[mask])) < 1e-4


def test_orbit_distance_phase_invariance(neutral_lift):
    rot = neutral_lift.clone()
    phase = np.exp(1j * 0.7)
    rot.psi = phase * rot.psi
    rot.pi = phase * rot.pi
    norm = np.sqrt(dyn_norm_sq(neutral_lift))
    assert orbit_distance(rot, neutral_lift) < 1e-10 * norm
    assert _plain_distance(rot, neutral_lift) > 0.1 * norm


def test_sponge_absorbs_outgoing_radiation(spec, grid):
    st = _pulse(spec, grid, q=0.0, amp=0.01, center=25.0)
    e0 = dyn_energy(st)
    cur = st
    flux = [0.0]
    for _ in range(int(30.0 / 0.002)):
        cur = step(cur, 0.002)
        flux.append(cur.sponge_flux)
    flux = np.array(flux)
    assert np.all(np.diff(flux) >= 0.0)
    assert cur.sponge_flux > 1e-4 * e0
    # the energy budget closes: what left the grid is accounted for
    assert abs(dyn_energy(cur) + cur.sponge_flux - e0) < 0.05 * e0


def test_stability_probe_neutral(spec, grid, neutral_profile):
    report = stability_probe(neutral_profile, spec, [0.0, 0.005, 0.01],
                             T=10.0, sample_every=20)
    assert len(report.rows) == 3 * len(PERTURBATION_MODES)
    for row in report.rows:
        assert row.failure is None
        assert row.classification == "stable-like"
    for mode in PERTURBATION_MODES:
        rows = report.by_mode(mode)
        eps = [row.eps for row in rows]
        assert eps == sorted(eps)
        dmax = [row.max_distance for row in rows]
        assert all(a <= b for a, b in zip(dmax, dmax[1:]))
        assert rows[0].max_ratio == 0.0


def test_stability_probe_runs_unperturbed_once(spec, neutral_profile,
                                               monkeypatch):
    unperturbed = []
    real_evolve = dynamics.evolve

    def counting_evolve(state, *args, reference=None, **kwargs):
        unperturbed.append(np.array_equal(state.psi, reference.psi)
                           and np.array_equal(state.pi, reference.pi))
        return real_evolve(state, *args, reference=reference, **kwargs)

    monkeypatch.setattr(dynamics, "evolve", counting_evolve)
    report = stability_probe(neutral_profile, spec, [0.0, 0.01], T=0.02,
                             seed=5)
    assert unperturbed == [True, False, False, False]
    assert [r.name for r in report.runs] == [
        "unperturbed", "amplitude_eps0.01", "velocity_eps0.01",
        "noise_eps0.01"]
    assert [r.seed for r in report.runs] == [5, 6, 7, 8]
    assert len(report.rows) == 2 * len(PERTURBATION_MODES)
    for mode in PERTURBATION_MODES:
        zero = report.by_mode(mode)[0]
        assert zero.eps == 0.0 and zero.trace is report.runs[0].trace


def _closed_kick(spec, q, psi, pi, phi, tau):
    """The gauge kick from a closed form free of cancellation.

    exp(-ix) = cos x - i sin x and (1 - exp(-ix))/(ix) = (sin x
    - 2i sin^2(x/2))/x, x = 2 q phi tau.
    """
    x = 2.0 * q * phi * tau
    fac = np.cos(x) - 1j * np.sin(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = tau * np.where(x == 0.0, 1.0,
                           (np.sin(x) - 2j * np.sin(0.5 * x) ** 2) / x)
    src = (q ** 2 * phi ** 2 - spec.wp_over_s(np.abs(psi))) * psi
    return fac * pi + src * g


def _kick_fields(n, seed=3):
    rng = np.random.default_rng(seed)
    psi = 0.5 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    pi = 0.5 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return psi, pi


def test_series_kick_matches_closed_form(spec):
    q, tau = 0.05, 0.001
    # |a tau| from 0 and 1e-12 up to just below the series range, both signs
    x = np.concatenate(([0.0], np.logspace(-12, np.log10(SERIES_RANGE), 200)))
    x[-1] = np.nextafter(SERIES_RANGE, 0.0)
    x = np.concatenate((x, -x))
    phi = x / (2.0 * q * tau)
    psi, pi = _kick_fields(x.size)
    zero = np.zeros_like(psi)
    # pi = 0 leaves g src, psi = 0 leaves exp(-i a tau) pi
    for psi_, pi_ in ((psi, zero), (zero, pi)):
        got = _kick(spec, q, psi_, np.abs(psi_), pi_, phi, tau)
        want = _closed_kick(spec, q, psi_, pi_, phi, tau)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14


def test_kick_takes_the_closed_form_above_the_series_range(spec, grid):
    # a strong coupling: |a tau| up to 0.2, crossing zero where phi does
    q, tau = 0.5, 0.05
    phi = 2.0 * np.cos(0.3 * grid.r)
    x = 2.0 * q * phi * tau
    assert np.max(np.abs(x)) > 100.0 * SERIES_RANGE
    psi, pi = _kick_fields(grid.n)
    got = _kick(spec, q, psi, np.abs(psi), pi, phi, tau)
    want = _closed_kick(spec, q, psi, pi, phi, tau)
    # the series alone would be off by (a tau)^4/24, about 7e-5 here
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


def test_evolve_monitors_match_the_public_functions(spec, charged_profile):
    base = lift_profile(charged_profile, spec)
    start = perturb(base, "amplitude", 0.01)
    dt = DEFAULT_DT_FACTOR * base.grid.dr
    trace = evolve(start, 12 * dt, dt, sample_every=4, reference=base)
    states = [start]
    for _ in range(3):
        cur = states[-1]
        for _ in range(4):
            cur = step(cur, dt)
        states.append(cur)
    assert trace.e0 == dyn_energy(base)
    assert trace.c0 == dyn_charge(base)
    assert list(trace.E) == [dyn_energy(s) for s in states]
    assert list(trace.C) == [dyn_charge(s) for s in states]
    assert list(trace.d) == [orbit_distance(s, base) for s in states]


# E, C, d and sponge_flux after 2000 steps of the kicked q = 0.02 profile,
# from the current split step.  The 4e-18 of sponge flux is collected in
# the tail, where phi is small and the closed-form kick the values were
# first frozen with lost up to 1e-9 relative per kick to cancellation, so
# it is held to 1e-8.  Re-frozen, with the step unchanged, when the input
# profile moved about 1e-7 to the fixed point of the coupled (u, phi)
# Newton.
FROZEN_KICKED = {"E": 12.78931536073016, "C": -14.054230588106462,
                 "d": 0.0639412452603852,
                 "sponge_flux": 3.9166629264661386e-18}


def test_kicked_charged_profile_regression(spec, charged_profile):
    base = lift_profile(charged_profile, spec)
    dt = DEFAULT_DT_FACTOR * base.grid.dr
    trace = evolve(perturb(base, "amplitude", 0.01), 2000 * dt, dt,
                   sample_every=2000, reference=base)
    tol = {"E": 1e-10, "C": 1e-10, "d": 1e-10, "sponge_flux": 1e-8}
    for name, want in FROZEN_KICKED.items():
        got = getattr(trace, name)[-1]
        assert abs(got - want) <= tol[name] * abs(want), name
