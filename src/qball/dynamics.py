"""Radial time evolution of the charged scalar with its electrostatic field.

The matter field is complex: psi with the covariant momentum
Pi = D_t psi = d_t psi + i q phi psi, stored as pi.  The electrostatic
potential phi is not an independent degree of freedom; it is the image
of Gauss's law with charge density

    rho = -q Im(Pi conj(psi)),

which holds no phi, so one Poisson solve gives it: there is no Picard
iteration and no screening term.  A stationary profile lifted by psi = u,
Pi = -i (omega - q phi) u is an exact steady source: rho reproduces the
profile's -q theta u and phi stays put.

The equations psi_t = Pi - i q phi psi, Pi_t = Lap psi - h psi - i q phi Pi
(h = W'(|psi|)/|psi|) split into two parts:

- the wave part psi_t = Pi, Pi_t = Lap psi (drift, Laplacian kick, drift);
- the local part psi_t = -i q phi psi, Pi_t = -h psi - i q phi Pi, exact
  for frozen phi: psi <- exp(-i q phi tau) psi and
  Pi <- exp(-i q phi tau) (Pi - tau h psi).

The local part leaves |psi| and rho unchanged, so phi stays exact during
it, and one Gauss solve after each wave part restores the constraint.
One step is a symmetric split: a local half substep, the wave part, the
Gauss solve, the mirrored local half substep, then an absorbing sponge
on Pi over the outer SPONGE_FRACTION of the grid.  The composition is
second order and time-reversible away from the sponge.  step advances
n steps at once and merges the closing local half substep of each step
with the opening one of the next into one full substep (the leapfrog
first-same-as-last form of the Strang split), so n steps cost n + 1
local substeps and n Gauss solves; n = 1 is the plain split step.
evolve advances one such chunk per sample interval, so the half
substeps close at every sample.

The step does not hold the continuum lift of a profile stationary:
started there, |psi| breathes by O(dt^2).  By backward error analysis
the split step has its own relative equilibrium O(dt^2) away, and
lift_profile(profile, spec, dt) finds it by Gauss-Newton on the
one-step map, so the stability probe starts its runs on the orbit its
step keeps.

The step is fused for speed without changing the scheme.  |psi| is taken
once per wave part and shared by h and the blow-up check.  The rotation
exp(-ix), x = q phi tau, comes from its four-term series while
max |x| < SERIES_RANGE (the truncation error, x^4/24, is then below
3e-15) and from the closed form otherwise.  The Gauss solve inside a
step skips solve_poisson's input checks, and the sponge's damping and
loss weights are built once per call of step, so once per chunk of n
steps.  The monitors read Pi where the state stores it, and their E
and norm are fields.energy_norm's, the energy the wave part of the step
conserves; the samples call the public monitors.  The stability
probe steps its runs as one batch, fields of shape (runs, n); no
operation mixes rows, so each run keeps the bits it has stepped alone,
and the first run to blow up ends the batch as it ends its solo run.
"""

import dataclasses

import numpy as np

from .fields import (energy_inner, energy_norm, fan_out, gauss_potential,
                     solve_poisson)
from .solver import _lapack

CFL_LIMIT = 0.5           # dt must stay below this times dr
DEFAULT_DT_FACTOR = 0.45  # default dt in units of dr; see evolve
LIFT_TOL = 1e-12          # relative one-step residual of the discrete lift
LIFT_MAX_ITER = 12        # Gauss-Newton iterations the discrete lift may take
LIFT_FD_STEP = 1e-5       # its difference step, relative to max |(u, v)|
SERIES_RANGE = 5e-4       # max |x| up to which exp(-ix) uses its series
SPONGE_FRACTION = 0.1     # outer fraction of the grid that absorbs
SPONGE_SIGMA = 5.0        # peak damping rate of the quintic ramp

PERTURBATION_MODES = ("amplitude", "velocity", "noise")

TRACE_COLUMNS = ("t", "E", "C", "V", "d", "max_psi", "sponge_flux")


def max_dt(dr):
    """Largest step the split step accepts on a grid of spacing dr."""
    return CFL_LIMIT * dr * (1.0 + 1e-12)


class BlowUpError(RuntimeError):
    """Fields or monitors went non-finite at time t; trace: the partial
    trace before it.  From step, rows: the rows of a batch that failed."""

    def __init__(self, message, t, trace=None):
        super().__init__(message)
        self.t = t
        self.trace = trace

    def __reduce__(self):
        # keeps the error intact across a process pool
        return type(self), (str(self), self.t, self.trace)


class LiftError(RuntimeError):
    """The discrete lift did not converge; carries its residual history."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = history


@dataclasses.dataclass
class DynState:
    """Complex matter field, its covariant momentum, and the potential."""

    grid: object
    spec: object
    q: float
    psi: np.ndarray      # complex radial samples
    pi: np.ndarray       # complex samples of D_t psi = d_t psi + i q phi psi
    phi: np.ndarray      # electrostatic potential, a constraint image
    e_r: np.ndarray      # radial electric field belonging to phi
    t: float = 0.0
    sponge_flux: float = 0.0

    def clone(self):
        return DynState(self.grid, self.spec, self.q, self.psi.copy(),
                        self.pi.copy(), self.phi.copy(), self.e_r.copy(),
                        self.t, self.sponge_flux)


def _constrain_phi(grid, q, psi, pi, solve):
    """(phi, e_r) of Gauss's law for rho = -q Im(pi conj(psi)).

    solve is the Poisson solve, unchecked inside a step.
    """
    if q == 0.0:
        z = np.zeros(psi.shape)
        return z, z.copy()
    return solve(-q * (pi.imag * psi.real - pi.real * psi.imag), grid)


def constrain(state):
    """Return a copy whose phi is the constraint image of its own fields."""
    out = state.clone()
    out.phi, out.e_r = _constrain_phi(state.grid, state.q, state.psi,
                                      state.pi, solve_poisson)
    return out


def _rotation(x):
    """exp(-ix), per row from its series while max |x| < SERIES_RANGE."""
    closed = np.abs(x).max(axis=-1) >= SERIES_RANGE
    mixed = closed.any()
    if mixed and closed.all():
        return np.exp(-1j * x)
    # exp(-ix) = 1 - ix - x^2/2 + ix^3/6 - ...
    x2 = x * x
    rot = np.empty(x.shape, np.complex128)
    np.multiply(x2, -0.5, out=rot.real)
    rot.real += 1.0
    x2 *= 1.0 / 6.0
    x2 -= 1.0
    np.multiply(x, x2, out=rot.imag)
    if mixed:
        rot[closed] = np.exp(-1j * x[closed])
    return rot


def _local(spec, q, psi, mod, pi, phi, tau):
    """The local substep of length tau, exact for frozen phi; mod is |psi|.

    Returns exp(-i q phi tau) psi and exp(-i q phi tau) (pi - tau h psi).
    """
    pi = pi - tau * spec.wp_over_s(mod) * psi
    if q == 0.0:
        return psi, pi
    rot = _rotation((q * tau) * phi)
    return rot * psi, rot * pi


def _sponge(grid, dt):
    """(start, damp, loss) of one sponge pass of length dt.

    The absorption rate is a quintic ramp up to SPONGE_SIGMA over the
    outer SPONGE_FRACTION of the grid; only nodes from start on absorb.
    damp = exp(-rate dt) scales Pi there, and loss = w (1 - damp^2) / 2
    weighs |Pi|^2 into the energy the pass removes.
    """
    r_start = (1.0 - SPONGE_FRACTION) * grid.r_max
    start = int(np.searchsorted(grid.r, r_start, side="right"))
    x = np.minimum((grid.r[start:] - r_start) / (grid.r_max - r_start), 1.0)
    damp = np.exp(-(SPONGE_SIGMA * x ** 5) * dt)
    return start, damp, 0.5 * grid.w[start:] * (1.0 - damp ** 2)


def step(state, dt, n=1):
    """Advance n symmetric split steps of size dt; returns a new state.

    Between two steps the closing and opening local half substeps are one
    full substep, so the n steps cost n + 1 local substeps and n Gauss
    solves; n = 1 is one plain split step, and a whole float n = 2.0
    runs as 2.  A batch state holds fields of shape (rows, n) and one
    sponge_flux per row; no operation mixes rows, so each comes out with
    the bits it gets stepped alone.  A non-finite field raises BlowUpError
    at the end of the step that produced it, naming the rows that failed.
    """
    grid, spec, q = state.grid, state.spec, state.q
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if dt > max_dt(grid.dr):
        raise ValueError(f"dt exceeds the CFL bound {CFL_LIMIT:g} dr")
    if n < 1 or n % 1:
        raise ValueError("the step count n must be whole and at least 1")
    half = 0.5 * dt
    start, damp, loss = _sponge(grid, dt)

    psi, pi = _local(spec, q, state.psi, np.abs(state.psi), state.pi,
                     state.phi, half)
    t, flux = state.t, np.ravel(state.sponge_flux).tolist()
    for remaining in range(int(n), 0, -1):
        psi = psi + half * pi
        lap = grid.laplacian(psi)
        lap *= dt
        pi += lap
        psi += half * pi

        mod = np.abs(psi)
        peak = mod.max(axis=-1)
        phi, e_r = _constrain_phi(grid, q, psi, pi, gauss_potential)
        # this step's closing half substep and the next one's opening one
        psi, pi = _local(spec, q, psi, mod, pi, phi,
                         dt if remaining > 1 else half)

        tail = pi[..., start:]
        sq = tail.real * tail.real + tail.imag * tail.imag
        flux = [f + loss @ r for f, r in zip(flux, sq.reshape(len(flux), -1))]
        tail *= damp

        t += dt
        # a sum is non-finite when a term is (or the fields overflow it)
        ok = np.isfinite(peak) & np.isfinite(pi.sum(axis=-1))
        if not ok.all():
            err = BlowUpError("fields became non-finite", t)
            err.rows = np.flatnonzero(~ok).tolist()
            raise err
    return DynState(grid, spec, q, psi, pi, phi, e_r, t,
                    float(flux[0]) if psi.ndim == 1 else np.array(flux))


def lift_profile(profile, spec, dt=None):
    """Stationary profile as an initial state.

    With dt = None this is the continuum lift psi = u and
    Pi = -i (omega - q phi) u, the D_t psi of the orbit
    psi = u exp(-i omega t).  The split step keeps that orbit only up to
    an O(dt^2) breathing of |psi|.  With a dt it is instead the step's
    own relative equilibrium (Hairer, Lubich and Wanner, Geometric
    Numerical Integration, ch. IX), O(dt^2) away from the continuum
    lift: the state psi = u, Pi = -i v with real (u, v) whose one step of
    size dt, sponge aside, is its rotation by exp(-i omega dt), phi its
    constraint image.  Gauss-Newton finds it from the continuum lift; see
    _discrete_lift.
    """
    grid = profile.state.grid
    psi = profile.state.u.astype(np.complex128)
    phi = np.array(profile.phi, dtype=float)
    pi = -1j * (profile.omega - profile.q * phi) * psi
    e_r = np.array(profile.state.E_r, dtype=float)
    lift = DynState(grid, spec, profile.q, psi, pi, phi, e_r)
    if dt is None:
        return lift
    return _discrete_lift(lift, profile.omega, dt)


def _discrete_lift(lift, omega, dt):
    """Gauss-Newton on the real pair x = (u_0, v_0, u_1, v_1, ...).

    For frozen phi one step couples a node only to its neighbours: the 4
    residual rows of node i see x of nodes i - 1, i and i + 1 only, a
    4 x 6 block B_i.  Central differences over six colour groups (node
    index mod 3, times u or v) give every block, and J^T J = sum_i
    B_i^T B_i is a band matrix with 5 sub- and superdiagonals, built
    straight into LAPACK band storage.  The colouring leaves out phi's
    nonlocal response, so for q > 0 convergence is linear at a rate of
    order q^2.  The residual undoes the sponge: where a profile's tail
    reaches it (a grid too short for omega) the damped step keeps no
    orbit, and where the tail has decayed the sponge moves nothing.
    Stops at a relative residual LIFT_TOL; raises LiftError after
    LIFT_MAX_ITER iterations or on a singular system.
    """
    dgbsv = _lapack()[0]
    grid, spec, q = lift.grid, lift.spec, lift.q
    n = grid.n
    x = np.empty(2 * n)
    x[0::2] = lift.psi.real
    x[1::2] = -lift.pi.imag
    h = LIFT_FD_STEP * np.max(np.abs(x))
    rot = np.exp(1j * omega * dt)
    outer, damp, _ = _sponge(grid, dt)

    def residual(x):
        """(state, rows): the state psi = u, Pi = -i v with phi its
        constraint image, and exp(i omega dt) step(state) - state as the
        rows Re psi, Im psi, Re Pi, Im Pi, with the sponge undone."""
        psi, pi = x[0::2].astype(np.complex128), -1j * x[1::2]
        start = DynState(grid, spec, q, psi, pi,
                         *_constrain_phi(grid, q, psi, pi, gauss_potential))
        end = step(start, dt)
        end.pi[outer:] /= damp
        r_psi, r_pi = rot * end.psi - psi, rot * end.pi - pi
        return start, np.stack((r_psi.real, r_psi.imag, r_pi.real, r_pi.imag))

    node = np.arange(n)
    # blocks[:, 2 (o + 1) + s, i] = d(rows of node i) / d(x[2 (i + o) + s])
    blocks = np.empty((4, 6, n))
    # J^T J and J^T r padded by the missing nodes -1 and n; band storage
    # A[a, b] at ab[10 + a - b, b] (kl = ku = 5), rows 0-4 take the LU fill
    ab = np.empty((16, 2 * n + 4), order="F")
    jtr = np.empty(2 * n + 4)
    history = []
    while True:
        state, res = residual(x)
        history.append(float(np.linalg.norm(res) / np.linalg.norm(x)))
        if history[-1] <= LIFT_TOL:
            return state
        if len(history) > LIFT_MAX_ITER:
            raise LiftError(f"discrete lift did not converge in "
                            f"{LIFT_MAX_ITER} iterations", history)
        for c in range(3):
            for s in range(2):
                bump = np.zeros(2 * n)
                bump[2 * c + s::6] = h
                diff = residual(x + bump)[1] - residual(x - bump)[1]
                # node i sees the bumped node of colour c among i - 1..i + 1
                blocks[:, 2 * ((c - node + 1) % 3) + s, node] = diff / (2 * h)
        # the end nodes have no neighbour beyond them: the padding stays 0
        blocks[:, :2, 0] = 0.0
        blocks[:, 4:, -1] = 0.0
        ab[:] = 0.0
        jtr[:] = 0.0
        for a in range(6):
            for b in range(6):
                ab[10 + a - b, b:b + 2 * n:2] += np.einsum(
                    "ki,ki->i", blocks[:, a], blocks[:, b])
            jtr[a:a + 2 * n:2] += np.einsum("ki,ki->i", blocks[:, a], res)
        *_, delta, info = dgbsv(5, 5, ab[:, 2:-2], -jtr[2:-2],
                                overwrite_ab=True, overwrite_b=True)
        if info:
            raise LiftError(f"singular discrete-lift system (info={info})",
                            history)
        x += delta


def dyn_energy(state):
    """fields.energy_norm's E = 1/2 int (|Pi|^2 + |psi'|^2 + E_r^2) + int W."""
    pi2 = (state.pi * np.conj(state.pi)).real
    return energy_norm(state.spec, state.grid, pi2, state.psi, state.e_r)[0]


def dyn_charge(state):
    """C = int Im(D_t psi conj(psi)), the hylenic charge."""
    return float(state.grid.w @ np.imag(state.pi * np.conj(state.psi)))


def dyn_norm_sq(state):
    """fields.energy_norm's int (|Pi|^2 + |psi'|^2 + m^2 |psi|^2 + E_r^2)."""
    pi2 = (state.pi * np.conj(state.pi)).real
    return energy_norm(state.spec, state.grid, pi2, state.psi, state.e_r)[1]


def _distance(state, ref, rot=1.0):
    """||state - ref|| in the energy norm, ref's matter pair turned by rot."""
    return np.sqrt(dyn_norm_sq(dataclasses.replace(
        state, psi=state.psi - rot * ref.psi, pi=state.pi - rot * ref.pi,
        e_r=state.e_r - ref.e_r)))


def orbit_distance(state, ref):
    """Energy-norm distance to the reference, minimized over global phase.

    The phase acts on the matter pair only; the optimal rotation is the
    phase of the cross inner product, and the distance is evaluated as
    an explicit difference so near-identical states do not cancel.
    """
    z = energy_inner(state.spec, state.grid, state.pi, state.psi, ref.pi,
                     ref.psi)
    return _distance(state, ref, z / abs(z) if z != 0.0 else 1.0)


def perturb(state, mode, eps, seed=0):
    """Kick a state off its orbit and re-solve the constraint.

    amplitude scales the matter pair (psi, Pi) by (1+eps), velocity adds
    eps psi to Pi, and noise adds smooth compactly supported random
    fields to (psi, Pi), rescaled so the energy-norm distance from the
    original state is eps times the state norm.
    """
    if eps < 0.0:
        raise ValueError("perturbation size must be nonnegative")
    if mode not in PERTURBATION_MODES:
        raise ValueError(f"unknown perturbation mode {mode!r}")
    out = state.clone()
    if eps == 0.0:
        return out
    if mode == "amplitude":
        out.psi = (1.0 + eps) * out.psi
        out.pi = (1.0 + eps) * out.pi
        return constrain(out)
    if mode == "velocity":
        out.pi = out.pi + eps * out.psi
        return constrain(out)
    rng = np.random.default_rng(seed)
    r = state.grid.r
    bump = np.clip(1.0 - (r / (0.5 * state.grid.r_max)) ** 2, 0.0, 1.0) ** 3

    def draw():
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        return bump * (c[0] + c[1] * np.cos(0.2 * r) + c[2] * np.sin(0.13 * r)
                       + c[3] * np.cos(0.34 * r))

    d_psi, d_pi = draw(), draw()
    target = eps * np.sqrt(dyn_norm_sq(state))
    scale = 1.0
    for _ in range(4):
        trial = state.clone()
        trial.psi = state.psi + scale * d_psi
        trial.pi = state.pi + scale * d_pi
        trial = constrain(trial)
        dist = _distance(trial, state)
        if abs(dist - target) <= 1e-9 * max(1.0, target):
            break
        scale *= target / dist
    return trial


@dataclasses.dataclass
class EvolutionTrace:
    """Sampled conservation monitors along one evolution, and its step."""

    t: np.ndarray
    E: np.ndarray
    C: np.ndarray
    V: np.ndarray
    d: np.ndarray
    max_psi: np.ndarray
    sponge_flux: np.ndarray
    e0: float
    c0: float
    dt: float                 # the step the evolution took

    def columns(self):
        return {name: getattr(self, name) for name in TRACE_COLUMNS}


def evolve(state, T, dt=None, sample_every=10, reference=None):
    """Advance to time T, sampling conservation and distance monitors.

    V(t) is the Liapunov monitor (E - e0)^2 + (C - c0)^2 with e0, c0
    taken from the reference (the initial state when none is given);
    d(t) is the phase-minimized energy-norm distance to the reference.
    Translation minimization is trivial in the radial sector and is not
    searched.  Each sample interval is one call of step with
    n = sample_every (fewer at the end), so the local half substeps
    close at every sample, which lie sample_every dt apart in time.  dt
    defaults to DEFAULT_DT_FACTOR dr = 0.45 dr: there the split step's
    bounded O(dt^2) offset from a stationary orbit, the distance from the
    continuum lift to the step's own relative equilibrium
    (lift_profile(..., dt)), stays below the grid's own error (the lift
    on n nodes against the lift on 2n - 1), so a smaller step buys no
    accuracy the grid keeps.  Started on the step's own lift, the
    unperturbed orbit is a pure rotation to about 1e-10.  The trace
    records the dt taken.  T must be finite and nonnegative, sample_every
    a whole number of at least 1.  Fields that step finds non-finite, or
    a later sample whose E, C, V or d leaves the float range (the start's
    own is recorded as given), raise BlowUpError with its t and the
    partial trace.  This is the one-row case of the probe's batch loop.
    """
    if dt is None:
        dt = DEFAULT_DT_FACTOR * state.grid.dr
    ref = reference if reference is not None else state.clone()
    return _evolve_batch([state], ref, T, dt, sample_every)[0]


def _evolve_batch(starts, ref, T, dt, sample_every):
    """evolve of each start (at one grid, spec, q and t) against ref as
    one batch: per start its EvolutionTrace.  The first run to blow up
    ends the batch; its BlowUpError has the message, t and partial trace
    of evolve of that start alone.
    """
    if not 0.0 <= T < np.inf:
        raise ValueError("T must be finite and nonnegative")
    if sample_every < 1 or sample_every % 1:
        raise ValueError("sample_every must be a whole number of at least 1")
    sample_every = int(sample_every)
    grid, s0 = starts[0].grid, starts[0]
    e0, c0 = dyn_energy(ref), dyn_charge(ref)
    n_steps = int(round(T / dt))
    samples = [[] for _ in starts]     # per start, rows in TRACE_COLUMNS

    def build(rows):
        return EvolutionTrace(*map(np.array, zip(*rows)), e0=e0, c0=c0,
                              dt=dt)

    def sample(batch):
        for j, rows in enumerate(samples):
            s = DynState(grid, s0.spec, s0.q, batch.psi[j], batch.pi[j],
                         batch.phi[j], batch.e_r[j], batch.t,
                         batch.sponge_flux[j])
            e, c = dyn_energy(s), dyn_charge(s)
            try:
                v = (e - e0) ** 2 + (c - c0) ** 2
            except OverflowError:   # finite E and C whose V overflows
                v = np.inf
            row = (s.t, e, c, v, orbit_distance(s, ref),
                   float(np.max(np.abs(s.psi))), s.sponge_flux)
            if rows and not np.isfinite(row[1:5]).all():  # after the start
                raise BlowUpError("fields became non-finite", s.t,
                                  build(rows))
            rows.append(row)

    current = DynState(grid, s0.spec, s0.q, t=s0.t, **{
        name: np.stack([getattr(s, name) for s in starts])
        for name in ("psi", "pi", "phi", "e_r", "sponge_flux")})
    # a blow-up is raised as BlowUpError below, not warned about per op
    with np.errstate(over="ignore", invalid="ignore"):
        sample(current)
        for k in range(0, n_steps, sample_every):
            try:
                current = step(current, dt, min(sample_every, n_steps - k))
            except BlowUpError as exc:
                exc.trace = build(samples[exc.rows[0]])
                raise
            sample(current)
    return [build(rows) for rows in samples]


@dataclasses.dataclass
class ProbeRun:
    """One evolution of the probe: its trace, growth ratio and label.

    The unperturbed run has mode None and eps 0 and stands for every
    mode's eps = 0.
    """
    name: str
    mode: str | None
    eps: float
    seed: int
    trace: EvolutionTrace
    max_distance: float
    max_ratio: float          # max_t d / (eps * profile norm); 0 when eps = 0
    classification: str       # stable-like / marginal / unstable-like


@dataclasses.dataclass
class StabilityReport:
    """The probe's runs, the profile norm their growth ratios divide by,
    and the distance from the continuum lift to the step's own one."""

    runs: list                # every evolution once, in plan order
    profile_norm: float
    lift_offset: float        # ||discrete lift - continuum lift|| / norm


def classify_ratio(ratio):
    """Label a growth ratio max_t d / (eps ||profile||)."""
    if ratio < 10.0:
        return "stable-like"
    if ratio < 100.0:
        return "marginal"
    return "unstable-like"


def _probe_batch(job):
    """Worker: evolve a share of the probe's runs as one batch."""
    return _evolve_batch(*job)


def stability_probe(profile, spec, eps_list, T, dt=None, sample_every=10,
                    modes=PERTURBATION_MODES, seed=0, workers=1):
    """Evolve perturbed lifts and classify growth of the orbit distance.

    The plan is one "unperturbed" run when 0 is in eps_list, then one
    run per (mode, nonzero eps) in modes x eps_list order, named
    "<mode>_eps<eps>"; run k >= 1 draws its noise from seed + k.  One
    unperturbed run serves every mode, since perturb(..., 0) is a clone
    whatever the mode.  dt = None takes evolve's default, resolved here
    once: every run starts from lift_profile at the dt it steps with, the
    step's own relative equilibrium, so the unperturbed run measures how
    well the start sits on the step's orbit, and lift_offset reports the
    step's O(dt^2) time error, the energy-norm distance from that lift to
    the continuum one over the profile norm.  The perturbed starts split
    into min(workers, runs) contiguous shares, one batch per process; a
    trace has the bits of evolve of its start alone, so the report does
    not depend on `workers`.

    The ratio max_t d(t) / (eps ||profile||) is classified stable-like
    below 10, marginal below 100, unstable-like above.  A run that blows
    up raises its BlowUpError, with the t and partial trace of evolve of
    its start alone: the first to fail of its share, and of the first
    share in plan order that fails.
    """
    if len(set(modes)) < len(modes) or len(set(eps_list)) < len(eps_list):
        raise ValueError("modes and eps_list must not repeat")
    if dt is None:
        dt = DEFAULT_DT_FACTOR * profile.state.grid.dr
    base = lift_profile(profile, spec, dt)
    norm = float(np.sqrt(dyn_norm_sq(base)))
    offset = _distance(base, lift_profile(profile, spec)) / norm
    kicks = [(mode, eps) for mode in modes for eps in eps_list if eps != 0.0]
    plan = [(f"{mode}_eps{eps:g}", mode, eps, seed + k)
            for k, (mode, eps) in enumerate(kicks, start=1)]
    if 0.0 in eps_list:
        plan.insert(0, ("unperturbed", None, 0.0, seed))
    starts = [base if eps == 0.0 else perturb(base, mode, eps, run_seed)
              for _, mode, eps, run_seed in plan]
    shares = max(min(workers, len(plan)), 1)
    cuts = [len(plan) * k // shares for k in range(shares + 1)]
    jobs = [(starts[a:b], base, T, dt, sample_every)
            for a, b in zip(cuts, cuts[1:]) if a < b]
    traces = [trace for batch in fan_out(_probe_batch, jobs, workers)
              for trace in batch]
    runs = []
    for (name, mode, eps, run_seed), trace in zip(plan, traces):
        dmax = float(np.max(trace.d))
        ratio = dmax / (eps * norm) if eps != 0.0 else 0.0
        runs.append(ProbeRun(name, mode, eps, run_seed, trace, dmax, ratio,
                             classify_ratio(ratio)))
    return StabilityReport(runs, norm, float(offset))
