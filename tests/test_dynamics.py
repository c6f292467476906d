"""Time evolution: conservation, reversibility, dispersion, stability probes.

The evolution claims are checked against independently derivable facts:
the Klein-Gordon dispersion relation for small standing waves, exact
phase rotation of a neutral stationary profile, quadratic charge
scaling under amplitude perturbations, and second-order convergence of
the splitting.  Conservation drifts are asserted at the bounds the
integrator is expected to hold at the default resolution.
"""

import pickle
import warnings

import numpy as np
import pytest

from qball import dynamics
from qball.dynamics import (
    BlowUpError,
    CFL_LIMIT,
    DEFAULT_DT_FACTOR,
    DynState,
    LIFT_MAX_ITER,
    LiftError,
    PERTURBATION_MODES,
    SERIES_RANGE,
    SPONGE_FRACTION,
    SPONGE_SIGMA,
    TRACE_COLUMNS,
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
    _local,
    _distance,
    _sponge,
)
from qball.fields import RadialGrid
from qball.potential import PotentialSpec
from qball.solver import solve_profile


@pytest.fixture(scope="module")
def neutral_profile(spec, grid):
    return solve_profile(spec, 0.8, 0.0, grid)


@pytest.fixture(scope="module")
def charged_profile(spec, grid):
    return solve_profile(spec, 0.8, 0.02, grid)


@pytest.fixture(scope="module")
def neutral_lift(spec, grid, neutral_profile):
    # the state the probe evolves: the step's own lift at the default dt
    return lift_profile(neutral_profile, spec, DEFAULT_DT_FACTOR * grid.dr)


@pytest.fixture(scope="module")
def neutral_trace(neutral_lift):
    return evolve(neutral_lift, 50.0, sample_every=25)


@pytest.fixture(scope="module")
def charged_trace(spec, grid, charged_profile):
    # from the step's own lift the drifts are the integrator's, not the
    # O(dt^2) breathing of the continuum lift
    return evolve(lift_profile(charged_profile, spec,
                               DEFAULT_DT_FACTOR * grid.dr),
                  25.0, sample_every=25)


def _pulse(spec, grid, q=0.01, amp=0.1, center=10.0):
    psi = amp * np.exp(-((grid.r - center) / 3.0) ** 2).astype(complex)
    st = DynState(grid, spec, q, psi, np.zeros(grid.n, complex),
                  np.zeros(grid.n), np.zeros(grid.n))
    return constrain(st)


def test_lift_matches_profile_functionals(spec, neutral_profile,
                                          charged_profile):
    for p in (neutral_profile, charged_profile):
        st = lift_profile(p, spec)
        # one energy function on the same arrays
        assert abs(dyn_energy(st) - p.E) <= 1e-12 * abs(p.E)
        assert abs(dyn_charge(st) - p.C) < 1e-8


def test_continuum_lift_is_unchanged(spec, charged_profile):
    # dt = None is the lift psi = u, Pi = -i (omega - q phi) u, bit for bit
    p = charged_profile
    psi = p.state.u.astype(np.complex128)
    want = (psi, -1j * (p.omega - p.q * p.phi) * psi, p.phi, p.state.E_r)
    for st in (lift_profile(p, spec), lift_profile(p, spec, None)):
        got = (st.psi, st.pi, st.phi, st.e_r)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert (st.t, st.sponge_flux, st.q) == (0.0, 0.0, p.q)


def test_discrete_lift_steps_to_its_rotation(spec, grid, neutral_profile,
                                             charged_profile):
    dt = DEFAULT_DT_FACTOR * grid.dr
    for p in (neutral_profile, charged_profile):
        lift = lift_profile(p, spec, dt)
        # the time-symmetric point of the orbit: psi real, Pi imaginary
        assert not np.any(lift.psi.imag) and not np.any(lift.pi.real)
        assert np.array_equal(constrain(lift).phi, lift.phi)
        end = step(lift, dt)
        rot = np.exp(-1j * p.omega * dt)
        gap = np.hypot(np.linalg.norm(end.psi - rot * lift.psi),
                       np.linalg.norm(end.pi - rot * lift.pi))
        size = np.hypot(np.linalg.norm(lift.psi), np.linalg.norm(lift.pi))
        assert gap <= 1e-12 * size, p.q


@pytest.mark.parametrize("q", [0.0, 0.02, 0.1])
def test_discrete_lift_orbit_is_pure_phase_rotation(spec, q):
    # about 1e-10; from the continuum lift the same spread is the step's
    # O(dt^2) breathing, 8.5e-6 on this grid
    grid = RadialGrid(40.0, 2000)
    lift = lift_profile(solve_profile(spec, 0.8, q, grid), spec,
                        DEFAULT_DT_FACTOR * grid.dr)
    trace = evolve(lift, 50.0, sample_every=25)
    assert np.ptp(trace.max_psi) < 1e-9


def test_probe_lifts_at_the_step_its_runs_take(spec, grid, neutral_profile,
                                               monkeypatch):
    lifted = []
    real_lift = dynamics.lift_profile

    def recording_lift(profile, spec, dt=None):
        lifted.append(dt)
        return real_lift(profile, spec, dt)

    monkeypatch.setattr(dynamics, "lift_profile", recording_lift)
    for dt in (None, 0.3 * grid.dr):
        lifted.clear()
        report = stability_probe(neutral_profile, spec, [0.0, 0.01],
                                 T=0.05, modes=("amplitude",), dt=dt)
        # the lift the runs start from, then the continuum lift
        assert lifted[1] is None
        assert {r.trace.dt for r in report.runs} == {lifted[0]}
        assert lifted[0] == (DEFAULT_DT_FACTOR * grid.dr if dt is None
                             else dt)
        assert 0.0 < report.lift_offset < 1e-5


def test_unconverged_lift_raises_with_its_history(spec, grid,
                                                  charged_profile,
                                                  monkeypatch):
    # no residual reaches a zero tolerance
    monkeypatch.setattr(dynamics, "LIFT_TOL", 0.0)
    with pytest.raises(LiftError, match="did not converge") as err:
        lift_profile(charged_profile, spec, DEFAULT_DT_FACTOR * grid.dr)
    history = err.value.history
    assert len(history) == LIFT_MAX_ITER + 1
    assert history[-1] < 1e-3 * history[0]


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


def test_trace_shape(neutral_trace, grid):
    cols = neutral_trace.columns()
    assert tuple(cols) == TRACE_COLUMNS
    lengths = {len(v) for v in cols.values()}
    assert len(lengths) == 1
    assert np.all(np.diff(neutral_trace.t) > 0)
    # the trace records the default step it took
    assert neutral_trace.dt == DEFAULT_DT_FACTOR * grid.dr


def test_step_zero_field(spec, grid):
    st = DynState(grid, spec, 0.01, np.zeros(grid.n, complex),
                  np.zeros(grid.n, complex), np.zeros(grid.n),
                  np.zeros(grid.n))
    out = step(st, 0.002)
    assert not np.any(out.psi)
    assert not np.any(out.pi)
    assert out.t == 0.002


def test_step_validation(spec, grid, monkeypatch):
    st = _pulse(spec, grid)
    for dt in (0.0, np.nan):
        with pytest.raises(ValueError, match="dt must be positive"):
            step(st, dt)
    with pytest.raises(ValueError, match=f"CFL bound {CFL_LIMIT:g} dr"):
        step(st, 0.6 * grid.dr)
    # the message reads the bound the check applies
    monkeypatch.setattr(dynamics, "CFL_LIMIT", 0.4)
    with pytest.raises(ValueError, match="CFL bound 0.4 dr"):
        step(st, 0.45 * grid.dr)


def test_cfl_limit_is_inside_the_wave_stability_region():
    # diag(wt) lap is symmetric, so wt^(1/2) lap wt^(-1/2) has the real
    # spectrum of lap; the origin row sets its spectral radius rho, so
    # rho dr^2 is the same on every grid, and the drift-kick-drift wave
    # part is stable for dt < 2 / sqrt(rho) (leapfrog), about 0.79 dr
    for n in (200, 2000):
        grid = RadialGrid(40.0, n)
        _, diag, upper = grid.lap_bands
        s = np.sqrt(grid.wt)
        off = s[:-1] * upper[:-1] / s[1:]
        sym = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        rho_dr2 = np.max(np.abs(np.linalg.eigvalsh(sym))) * grid.dr ** 2
        assert abs(rho_dr2 - 6.4164) < 1e-4, n
        assert DEFAULT_DT_FACTOR < CFL_LIMIT < 2.0 / np.sqrt(rho_dr2), n


def test_default_step_error_is_within_the_grid_error(spec):
    # the unperturbed lift's orbit distance is the split step's bounded
    # O(dt^2) offset: 1.08e-5 of the lift's norm at the default 0.45 dr
    # (2.2e-6 at 0.2 dr, 4.8e-6 at 0.3 dr), against 7.3e-6 between the lift
    # on n nodes and the lift on 2n - 1 nodes sampled at every other node
    coarse, fine = RadialGrid(40.0, 2000), RadialGrid(40.0, 3999)
    lift = lift_profile(solve_profile(spec, 0.8, 0.02, coarse), spec)
    ref = lift_profile(solve_profile(spec, 0.8, 0.02, fine), spec)
    sub = DynState(coarse, spec, ref.q, ref.psi[::2], ref.pi[::2],
                   ref.phi[::2], ref.e_r[::2])
    norm = np.sqrt(dyn_norm_sq(lift))
    grid_error = orbit_distance(sub, lift) / norm
    trace = evolve(lift, 10.0)
    assert np.max(trace.d) / norm <= 2.0 * grid_error


def test_blow_up_carries_time_and_partial_trace(spec, grid):
    st = _pulse(spec, grid)
    st.psi[5] = np.nan
    with pytest.raises(BlowUpError) as err:
        evolve(st, 1.0, dt=0.002)
    assert err.value.t > 0.0
    assert err.value.trace is not None
    assert err.value.trace.t.size >= 1


def test_monitor_overflow_is_a_blow_up():
    # a linear field of amplitude 1e100 stays finite, but E is about 1e203,
    # so V = (E - e0)^2 leaves the float range at the first sample after a
    # step: a blow-up, with that sample's t and the trace before it
    grid = RadialGrid(40.0, 400)
    psi = 1e100 * np.exp(-((grid.r - 10.0) / 3.0) ** 2).astype(complex)
    st = DynState(grid, PotentialSpec("pure_mass"), 0.0, psi,
                  np.zeros(grid.n, complex), np.zeros(grid.n),
                  np.zeros(grid.n))
    end = step(st, DEFAULT_DT_FACTOR * grid.dr, 5)
    assert np.isfinite(end.psi).all() and np.isfinite(end.pi).all()
    assert 1e200 < dyn_energy(end) < np.inf
    with pytest.raises(BlowUpError, match="fields became non-finite") as err:
        evolve(st, 1.0, sample_every=5)
    assert err.value.t == end.t
    assert list(err.value.trace.t) == [0.0]
    assert list(err.value.trace.V) == [0.0]


def _single_steps(state, dt, n):
    for _ in range(n):
        state = step(state, dt)
    return state


def test_time_reversal(spec, grid):
    st = _pulse(spec, grid)
    T, dt = 5.0, 0.002

    def flip(s):
        out = s.clone()
        out.psi = np.conj(s.psi)
        out.pi = -np.conj(s.pi)
        return constrain(out)

    # single split steps, and one chunk whose local half substeps merge
    for advance in (_single_steps, step):
        cur = advance(st, dt, int(T / dt))
        cur = advance(flip(cur), dt, int(T / dt))
        back = flip(cur)
        rel = _distance(back, st) / np.sqrt(dyn_norm_sq(st))
        assert rel < 1e-4, advance
        assert rel < 1e-9, advance


def test_splitting_self_convergence(spec, grid):
    for advance in (_single_steps, step):
        ends = [advance(_pulse(spec, grid), dt, int(round(2.0 / dt)))
                for dt in (0.004, 0.002, 0.001)]
        e1 = _distance(ends[0], ends[1])
        e2 = _distance(ends[1], ends[2])
        order = np.log2(e1 / e2)
        assert order >= 1.9, advance


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
    assert abs(_distance(kicked, neutral_lift) - target) < 1e-6


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
    # theta = Im(D_t psi conj(psi)) / |psi| wherever psi is visible
    mod = np.abs(st.psi)
    mask = mod > 1e-6
    theta = np.imag(st.pi * np.conj(st.psi))[mask] / mod[mask]
    # the evolved theta still matches the stationary one
    ref = charged_profile.state.theta
    assert np.max(np.abs(theta + np.abs(ref)[mask])) < 1e-4


def test_orbit_distance_phase_invariance(neutral_lift):
    rot = neutral_lift.clone()
    phase = np.exp(1j * 0.7)
    rot.psi = phase * rot.psi
    rot.pi = phase * rot.pi
    norm = np.sqrt(dyn_norm_sq(neutral_lift))
    assert orbit_distance(rot, neutral_lift) < 1e-10 * norm
    assert _distance(rot, neutral_lift) > 0.1 * norm


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
    # (to 7.0e-7 of e0)
    assert abs(dyn_energy(cur) + cur.sponge_flux - e0) < 2e-6 * e0


def test_sponge_is_an_outer_ramp(grid):
    r_start = (1.0 - SPONGE_FRACTION) * grid.r_max
    x = np.clip((grid.r - r_start) / (grid.r_max - r_start), 0.0, 1.0)
    rate = SPONGE_SIGMA * x ** 5
    assert np.all(np.diff(rate) >= 0.0)
    assert rate[-1] == SPONGE_SIGMA
    for dt in (0.002, 0.004):
        start, damp, loss = _sponge(grid, dt)
        # absorption starts at the first node past 0.9 r_max
        assert grid.r[start - 1] <= 0.9 * grid.r_max < grid.r[start]
        assert not np.any(rate[:start]) and np.all(rate[start:] > 0.0)
        # the rates never decrease and peak at SPONGE_SIGMA
        assert np.all(np.diff(damp) <= 0.0)
        assert damp.min() == damp[-1] == np.exp(-SPONGE_SIGMA * dt)
        assert np.array_equal(damp, np.exp(-rate[start:] * dt))
        assert np.array_equal(loss, 0.5 * grid.w[start:] * (1.0 - damp ** 2))


def test_evolution_leaves_its_grid_as_built(spec, charged_profile):
    lift = lift_profile(charged_profile, spec)
    evolve(lift, 0.05)
    g = lift.grid
    assert pickle.dumps(g) == pickle.dumps(RadialGrid(g.r_max, g.n))


@pytest.mark.parametrize("sample_every", [0, -3, 2.9])
def test_evolve_rejects_a_bad_sample_every(neutral_lift, sample_every):
    with pytest.raises(ValueError, match="sample_every"):
        evolve(neutral_lift, 0.05, sample_every=sample_every)


@pytest.mark.parametrize("T", [-0.05, np.nan, np.inf])
def test_evolve_rejects_a_bad_horizon(neutral_lift, T):
    with pytest.raises(ValueError, match="T must be finite and nonnegative"):
        evolve(neutral_lift, T)


def test_evolve_takes_a_whole_float_sample_every(neutral_lift):
    want = evolve(neutral_lift, 0.05, sample_every=2)
    got = evolve(neutral_lift, 0.05, sample_every=2.0)
    for name in TRACE_COLUMNS:
        assert np.array_equal(getattr(got, name), getattr(want, name))


def test_stability_probe_neutral(spec, grid, neutral_profile):
    report = stability_probe(neutral_profile, spec, [0.0, 0.005, 0.01],
                             T=10.0, sample_every=20)
    assert len(report.runs) == 1 + 2 * len(PERTURBATION_MODES)
    for run in report.runs:
        assert run.classification == "stable-like"
    for mode in PERTURBATION_MODES:
        # the unperturbed run is every mode's eps = 0
        runs = report.runs[:1] + [r for r in report.runs if r.mode == mode]
        assert [r.eps for r in runs] == [0.0, 0.005, 0.01]
        dmax = [r.max_distance for r in runs]
        assert all(a <= b for a, b in zip(dmax, dmax[1:]))
        assert runs[0].max_ratio == 0.0


def test_stability_probe_runs_unperturbed_once(spec, neutral_profile,
                                               monkeypatch):
    unperturbed = []
    real_batch = dynamics._evolve_batch

    def recording_batch(starts, reference, *args):
        unperturbed.extend(np.array_equal(s.psi, reference.psi)
                           and np.array_equal(s.pi, reference.pi)
                           for s in starts)
        return real_batch(starts, reference, *args)

    monkeypatch.setattr(dynamics, "_evolve_batch", recording_batch)
    report = stability_probe(neutral_profile, spec, [0.0, 0.01], T=0.02,
                             seed=5)
    assert unperturbed == [True, False, False, False]
    assert [r.name for r in report.runs] == [
        "unperturbed", "amplitude_eps0.01", "velocity_eps0.01",
        "noise_eps0.01"]
    assert [r.seed for r in report.runs] == [5, 6, 7, 8]


def _assert_same_trace(got, want):
    for name in TRACE_COLUMNS:
        assert np.array_equal(getattr(got, name), getattr(want, name),
                              equal_nan=True), name
    assert (got.e0, got.c0, got.dt) == (want.e0, want.c0, want.dt)


def test_probe_runs_equal_their_solo_evolutions(spec, grid, charged_profile):
    # 25 steps in chunks of 10, 10 and 5: every run of the batch has the
    # bits of evolve of its start alone, on any number of workers
    dt = DEFAULT_DT_FACTOR * grid.dr
    report = stability_probe(charged_profile, spec, [0.0, 0.01], T=25 * dt,
                             sample_every=10, seed=3)
    base = lift_profile(charged_profile, spec, dt)
    for run in report.runs:
        start = base if run.mode is None else perturb(base, run.mode,
                                                      run.eps, run.seed)
        _assert_same_trace(run.trace, evolve(start, 25 * dt, dt, 10,
                                             reference=base))
    split = stability_probe(charged_profile, spec, [0.0, 0.01], T=25 * dt,
                            sample_every=10, seed=3, workers=2)
    assert (split.profile_norm, split.lift_offset) == (report.profile_norm,
                                                       report.lift_offset)
    for got, want in zip(split.runs, report.runs, strict=True):
        _assert_same_trace(got.trace, want.trace)
        got.trace = want.trace = None
        assert got == want


def test_batch_raises_its_earliest_blow_up(spec, grid):
    # a NaN node fails the first step, a Pi spike of 2e5 the 65th (the
    # seventh chunk): a batch raises its earliest failure, in whatever
    # row, as evolve of that start alone raises it
    base = _pulse(spec, grid)
    nan = base.clone()
    nan.psi[5] = np.nan
    spike = base.clone()
    spike.pi[5] = 2e5j
    kicked = perturb(base, "velocity", 0.01)
    dt = 0.002
    solo = {}
    for name, start in (("nan", nan), ("spike", spike)):
        with pytest.raises(BlowUpError) as err:
            evolve(start, 100 * dt, dt, 10, reference=base)
        solo[name] = err.value
    assert round(solo["nan"].t / dt) == 1
    assert round(solo["spike"].t / dt) == 65
    for starts, first in (([base, nan, kicked, spike], "nan"),
                          ([base, spike, kicked, nan], "nan"),
                          ([base, kicked, spike], "spike")):
        with pytest.raises(BlowUpError) as err:
            dynamics._evolve_batch(starts, base, 100 * dt, dt, 10)
        want = solo[first]
        assert (str(err.value), err.value.t) == (str(want), want.t)
        _assert_same_trace(err.value.trace, want.trace)


def test_probe_raises_the_blow_up_of_one_share(spec):
    # on two workers the kick of 1000 is a share of its own: the probe
    # raises its solo BlowUpError, partial trace included, across the pool
    grid = RadialGrid(20.0, 600)
    profile = solve_profile(spec, 0.8, 0.01, grid)
    dt = DEFAULT_DT_FACTOR * grid.dr
    base = lift_profile(profile, spec, dt)
    with pytest.raises(BlowUpError) as solo:
        evolve(perturb(base, "amplitude", 1000.0), 1.0, dt, 20,
               reference=base)
    with pytest.raises(BlowUpError) as err:
        stability_probe(profile, spec, [0.0, 1000.0], T=1.0,
                        sample_every=20, modes=("amplitude",), workers=2)
    assert (str(err.value), err.value.t) == (str(solo.value), solo.value.t)
    _assert_same_trace(err.value.trace, solo.value.trace)


def test_blow_up_raises_without_numpy_warnings(spec):
    # the fields overflow on their way out of the float range; the blow-up
    # is reported once, as BlowUpError, not as a RuntimeWarning per op.
    # The profile solve warns of its visible tail and stays outside
    grid = RadialGrid(20.0, 600)
    profile = solve_profile(spec, 0.8, 0.01, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lift = lift_profile(profile, spec, 0.45 * grid.dr)
        with pytest.raises(BlowUpError) as err:
            evolve(perturb(lift, "noise", 1000.0, 3), 10.0, reference=lift)
    assert err.value.t == 0.09015025041736226


def test_rotation_picks_its_form_per_row():
    # one row inside the series range and one beyond it: each row gets
    # the form, and the bits, it gets alone
    x = np.stack((np.linspace(-1e-4, 1e-4, 50), np.linspace(-0.2, 0.2, 50)))
    rot = dynamics._rotation(x)
    for j in range(2):
        assert np.array_equal(rot[j], dynamics._rotation(x[j]))
    assert not np.array_equal(rot[0], np.exp(-1j * x[0]))
    assert np.array_equal(rot[1], np.exp(-1j * x[1]))


def _local_fields(n, seed=3):
    rng = np.random.default_rng(seed)
    psi = 0.5 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    pi = 0.5 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return psi, pi


def _assert_local_rotates(spec, q, x, tau):
    """The local substep is exp(-ix) (psi, pi - tau h psi), x = q phi tau."""
    psi, pi = _local_fields(x.size)
    mod = np.abs(psi)
    got = _local(spec, q, psi, mod, pi, x / (q * tau), tau)
    rot = np.exp(-1j * x)
    want = (rot * psi, rot * (pi - tau * spec.wp_over_s(mod) * psi))
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w) / np.abs(w)) <= 1e-14


def test_series_rotation_matches_closed_form(spec):
    # |x| from 0 and 1e-12 up to just below the series range, both signs
    x = np.concatenate(([0.0], np.logspace(-12, np.log10(SERIES_RANGE), 200)))
    x[-1] = np.nextafter(SERIES_RANGE, 0.0)
    _assert_local_rotates(spec, 0.05, np.concatenate((x, -x)), 0.001)


def test_rotation_takes_the_closed_form_above_the_series_range(spec, grid):
    # a strong coupling: |x| up to 0.2, crossing zero where phi does
    x = 0.2 * np.cos(0.3 * grid.r)
    assert np.max(np.abs(x)) > 100.0 * SERIES_RANGE
    # the series alone would be off by x^4/24, about 7e-5 here
    _assert_local_rotates(spec, 0.5, x, 0.05)


def test_kicked_strong_coupling_conserves_charge(spec):
    # d/dt Im(Pi conj(psi)) is a divergence, so a kick at q = 0.1 drifts C
    # no more than at q = 0; T = 20 ends before the radiation reaches the
    # sponge, where absorbed charge is a real loss
    grid = RadialGrid(40.0, 2000)
    base = lift_profile(solve_profile(spec, 0.8, 0.1, grid), spec)
    kicked = perturb(base, "amplitude", 0.05)
    for factor in (0.2, 0.4):
        tr = evolve(kicked, 20.0, factor * grid.dr, sample_every=25)
        drift = np.max(np.abs(tr.C - tr.C[0])) / abs(tr.C[0])
        assert drift <= 1e-7, factor


def test_evolve_monitors_match_the_public_functions(spec, charged_profile):
    base = lift_profile(charged_profile, spec)
    start = perturb(base, "amplitude", 0.01)
    dt = DEFAULT_DT_FACTOR * base.grid.dr
    trace = evolve(start, 12 * dt, dt, sample_every=4, reference=base)
    states = [start]
    for _ in range(3):
        states.append(step(states[-1], dt, 4))
    assert trace.dt == dt
    assert trace.e0 == dyn_energy(base)
    assert trace.c0 == dyn_charge(base)
    assert list(trace.E) == [dyn_energy(s) for s in states]
    assert list(trace.C) == [dyn_charge(s) for s in states]
    assert list(trace.d) == [orbit_distance(s, base) for s in states]


def test_step_count_matches_single_steps(spec, charged_profile):
    # n steps merge the local half substeps between them; single steps
    # close each
    base = lift_profile(charged_profile, spec)
    start = perturb(base, "amplitude", 0.01)
    dt = DEFAULT_DT_FACTOR * base.grid.dr
    merged = step(start, dt, 10)
    split = _single_steps(start, dt, 10)
    scale = np.max(np.abs(split.psi))
    assert np.max(np.abs(merged.psi - split.psi)) <= 1e-9 * scale
    assert abs(dyn_energy(merged) - dyn_energy(split)) \
        <= 1e-12 * abs(dyn_energy(split))
    assert abs(dyn_charge(merged) - dyn_charge(split)) \
        <= 1e-12 * abs(dyn_charge(split))
    assert merged.t == split.t


def test_step_count_validation(spec, grid):
    st = _pulse(spec, grid)
    for n in (0, -1, 1.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="step count"):
            step(st, 0.002, n)
    # a whole float count runs as that many steps
    want, got = step(st, 0.002, 2), step(st, 0.002, 2.0)
    assert np.array_equal(got.psi, want.psi) and got.t == want.t


def test_blow_up_names_the_failing_step_of_a_chunk(spec, grid):
    st = _pulse(spec, grid)
    st.psi[5] = np.nan
    dt = 0.002
    with pytest.raises(BlowUpError) as err:
        evolve(st, 50 * dt, dt, sample_every=50)
    assert err.value.t == dt
    assert err.value.trace is not None
    assert list(err.value.trace.t) == [0.0]


def test_huge_finite_field_is_a_blow_up(spec, grid):
    # max |psi|^2 overflows a float; the step must still report a blow-up
    st = _pulse(spec, grid)
    st.psi[5] = 1e160
    with pytest.raises(BlowUpError), np.errstate(over="ignore",
                                                 invalid="ignore"):
        step(st, 0.002, 3)


# E, C, d and sponge_flux after 2000 single split steps of 0.2 dr of the
# q = 0.02 profile whose (psi, Pi = D_t psi) the amplitude kick scaled by
# 1.01.  They freeze the split step, not the default dt.
# The 4e-18 of sponge flux is a sum of last digits collected in the
# tail, so it is held to 1e-8.
FROZEN_KICKED = {"E": 12.789442666428194, "C": -14.054285921403931,
                 "d": 0.06395152786557536,
                 "sponge_flux": 3.916562567018683e-18}

# The same 2000 steps as one evolve chunk, whose local half substeps merge.
FROZEN_KICKED_EVOLVE = {"E": 12.7894426664283, "C": -14.054285921404041,
                        "d": 0.06395152786560679,
                        "sponge_flux": 3.918314662047624e-18}


def test_kicked_charged_profile_regression(spec, charged_profile):
    base = lift_profile(charged_profile, spec)
    start = perturb(base, "amplitude", 0.01)
    dt = 0.2 * base.grid.dr
    cur = _single_steps(start, dt, 2000)
    split = {"E": dyn_energy(cur), "C": dyn_charge(cur),
             "d": orbit_distance(cur, base), "sponge_flux": cur.sponge_flux}
    trace = evolve(start, 2000 * dt, dt, sample_every=2000, reference=base)
    merged = {name: getattr(trace, name)[-1] for name in FROZEN_KICKED}
    tol = {"E": 1e-10, "C": 1e-10, "d": 1e-10, "sponge_flux": 1e-8}
    for name, want in FROZEN_KICKED.items():
        assert abs(split[name] - want) <= tol[name] * abs(want), name
    for name, want in FROZEN_KICKED_EVOLVE.items():
        assert abs(merged[name] - want) <= tol[name] * abs(want), name
    # merging the local half substeps moves the conserved E and C at
    # roundoff (7.8e-15 each), d by 4.9e-13 and the 4e-18 tail flux by
    # 4.5e-4
    agree = {"E": 1e-12, "C": 1e-12, "d": 1e-7, "sponge_flux": 1e-3}
    for name, bound in agree.items():
        gap = abs(merged[name] - split[name])
        assert gap <= bound * abs(split[name]), name
