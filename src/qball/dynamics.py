"""Radial time evolution of the charged scalar with its electrostatic field.

The matter field is complex: psi with momentum pi = d_t psi.  The
electrostatic potential phi is not an independent degree of freedom; it
is re-solved from Gauss's law after every kick, with charge density

    rho = -q Im(pi conj(psi)) - q^2 phi |psi|^2

evaluated using the previous potential (one Picard pass, a second when
the coupling is strong).  A stationary profile lifted by psi = u,
pi = -i omega u is an exact steady source: rho reproduces the profile's
-q theta u and phi stays put.

One step is a symmetric split: a half kick of the local terms (the
potential force and the frozen-phi gauge terms, integrated exactly), a
full wave substep of the radial Laplacian (drift, Laplacian kick,
drift), the mirrored half kick, then an absorbing sponge on pi over the
outer tenth of the grid.  The composition is second order and
time-reversible away from the sponge.
"""

import dataclasses

import numpy as np

from .fields import fan_out, solve_poisson

CFL_LIMIT = 0.5           # dt must stay below this times dr
DEFAULT_DT_FACTOR = 0.2

PERTURBATION_MODES = ("amplitude", "velocity", "noise")

TRACE_COLUMNS = ("t", "E", "C", "V", "d", "max_psi", "sponge_flux")


class BlowUpError(RuntimeError):
    """Fields left the finite range; carries the time of the failure."""

    def __init__(self, message, t, trace=None):
        super().__init__(message)
        self.t = t
        self.trace = trace

    def __reduce__(self):
        # keeps the error intact across a process pool
        return type(self), (str(self), self.t, self.trace)


@dataclasses.dataclass
class DynState:
    """Complex matter field, its momentum, and the derived potential."""

    grid: object
    spec: object
    q: float
    psi: np.ndarray      # complex radial samples
    pi: np.ndarray       # complex samples of d_t psi
    phi: np.ndarray      # electrostatic potential, a constraint image
    e_r: np.ndarray      # radial electric field belonging to phi
    t: float = 0.0
    sponge_flux: float = 0.0

    @property
    def d_t_psi(self):
        """Gauge-covariant time derivative pi + i q phi psi."""
        if self.q == 0.0:
            return self.pi
        return self.pi + 1j * self.q * self.phi * self.psi

    def clone(self):
        return DynState(self.grid, self.spec, self.q, self.psi.copy(),
                        self.pi.copy(), self.phi.copy(), self.e_r.copy(),
                        self.t, self.sponge_flux)


def charge_density(state):
    """Gauss source rho = -q Im(D_t psi conj(psi)), evaluated in place."""
    if state.q == 0.0:
        return np.zeros(state.grid.n)
    return -state.q * np.imag(state.d_t_psi * np.conj(state.psi))


def theta_field(state):
    """Phase-velocity variable theta = -rho/(q|psi|) where |psi| > 1e-6."""
    mod = np.abs(state.psi)
    mask = mod > 1e-6
    theta = np.zeros(state.grid.n)
    theta[mask] = (np.imag(state.d_t_psi * np.conj(state.psi))[mask]
                   / mod[mask])
    return theta, mask


def _constrain_phi(grid, q, psi, pi, phi_prev, picard=1):
    """Solve the Gauss constraint, feeding the previous phi into rho."""
    if q == 0.0:
        z = np.zeros(grid.n)
        return z, z.copy()
    phi = phi_prev
    for _ in range(max(1, picard)):
        rho = -q * np.imag(pi * np.conj(psi)) - q ** 2 * phi * np.abs(psi) ** 2
        phi, dphi = solve_poisson(rho, grid)
    return phi, -dphi


def constrain(state, picard=2):
    """Return a copy whose phi is the constraint image of its own fields."""
    out = state.clone()
    out.phi, out.e_r = _constrain_phi(state.grid, state.q, state.psi,
                                      state.pi, state.phi, picard)
    return out


def _kick(spec, q, psi, pi, phi, tau):
    """Exact integration of pi' = -2iq phi pi + (-h(|psi|) + q^2 phi^2) psi."""
    h = spec.wp_over_s(np.abs(psi))
    if q == 0.0:
        return pi - tau * h * psi
    src = (q ** 2 * phi ** 2 - h) * psi
    a = 2.0 * q * phi
    at = a * tau
    fac = np.exp(-1j * at)
    small = np.abs(at) < 1e-10
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(small, tau * (1.0 - 0.5j * at), (1.0 - fac) / (1j * a))
    return fac * pi + src * g


def step(state, dt):
    """One symmetric split step of size dt; returns a new state."""
    grid, spec, q = state.grid, state.spec, state.q
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if dt > CFL_LIMIT * grid.dr * (1.0 + 1e-12):
        raise ValueError("dt exceeds the CFL bound 0.5 dr")
    picard = 2 if q * dt * float(np.max(np.abs(state.psi)) ** 2) > 0.1 else 1
    half = 0.5 * dt

    pi = _kick(spec, q, state.psi, state.pi, state.phi, half)
    phi, e_r = _constrain_phi(grid, q, state.psi, pi, state.phi, picard)

    psi = state.psi + half * pi
    pi = pi + dt * grid.laplacian(psi)
    psi = psi + half * pi

    pi = _kick(spec, q, psi, pi, phi, half)
    phi, e_r = _constrain_phi(grid, q, psi, pi, phi, picard)

    damp = np.exp(-grid.sponge * dt)
    absorbed = 0.5 * float(grid.w @ (np.abs(pi) ** 2 * (1.0 - damp ** 2)))
    pi = pi * damp

    t = state.t + dt
    if not np.isfinite(np.max(np.abs(psi)) + np.max(np.abs(pi))):
        raise BlowUpError("fields became non-finite", t)
    return DynState(grid, spec, q, psi, pi, phi, e_r, t,
                    state.sponge_flux + absorbed)


def lift_profile(profile, spec):
    """Stationary profile as an initial state: psi = u, pi = -i omega u."""
    grid = profile.state.grid
    psi = profile.state.u.astype(np.complex128)
    pi = -1j * profile.omega * psi
    phi = np.array(profile.phi, dtype=float)
    e_r = np.array(profile.state.E_r, dtype=float)
    return DynState(grid, spec, profile.q, psi, pi, phi, e_r)


def dyn_energy(state):
    """E = (1/2) int (|D_t psi|^2 + |d_r psi|^2 + E_r^2) + int W(|psi|)."""
    g = state.grid
    chi = state.d_t_psi
    dpsi = g.d_dr(state.psi)
    dens = 0.5 * (np.abs(chi) ** 2 + np.abs(dpsi) ** 2 + state.e_r ** 2)
    return float(g.w @ (dens + state.spec.w(np.abs(state.psi))))


def dyn_charge(state):
    """C = int Im(D_t psi conj(psi)), the hylenic charge."""
    g = state.grid
    return float(g.w @ np.imag(state.d_t_psi * np.conj(state.psi)))


def _energy_norm_sq(g, chi, dpsi, psi, e_r, m2):
    """int (|chi|^2 + |dpsi|^2 + m^2 |psi|^2 + e_r^2)."""
    return float(g.w @ (np.abs(chi) ** 2 + np.abs(dpsi) ** 2
                        + m2 * np.abs(psi) ** 2 + e_r ** 2))


def dyn_norm_sq(state):
    """int (|D_t psi|^2 + |d_r psi|^2 + m^2 |psi|^2 + E_r^2)."""
    g = state.grid
    return _energy_norm_sq(g, state.d_t_psi, g.d_dr(state.psi), state.psi,
                           state.e_r, state.spec.m ** 2)


def orbit_distance(state, ref):
    """Energy-norm distance to the reference, minimized over global phase.

    The phase acts on the matter pair only; the optimal rotation is the
    phase of the cross inner product, and the distance is evaluated as
    an explicit difference so near-identical states do not cancel.
    """
    g = state.grid
    chi, chi0 = state.d_t_psi, ref.d_t_psi
    dpsi, dpsi0 = g.d_dr(state.psi), g.d_dr(ref.psi)
    m2 = state.spec.m ** 2
    z = complex(g.w @ (chi * np.conj(chi0) + dpsi * np.conj(dpsi0)
                       + m2 * state.psi * np.conj(ref.psi)))
    rot = z / abs(z) if z != 0.0 else 1.0
    d2 = _energy_norm_sq(g, chi - rot * chi0, dpsi - rot * dpsi0,
                         state.psi - rot * ref.psi, state.e_r - ref.e_r, m2)
    return np.sqrt(max(d2, 0.0))


def perturb(state, mode, eps, seed=0):
    """Kick a state off its orbit and re-solve the constraint.

    amplitude scales the matter pair by (1+eps), velocity adds eps psi
    to the momentum, and noise adds a smooth compactly supported random
    field rescaled so its energy-norm distance from the original state
    is eps times the state norm.
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
    trial = out
    for _ in range(4):
        trial = state.clone()
        trial.psi = state.psi + scale * d_psi
        trial.pi = state.pi + scale * d_pi
        trial = constrain(trial)
        dist = _plain_distance(trial, state)
        if abs(dist - target) <= 1e-9 * max(1.0, target):
            break
        scale *= target / dist
    return trial


def _plain_distance(state, ref):
    """Energy-norm distance without the phase minimization."""
    g = state.grid
    diff = state.psi - ref.psi
    d2 = _energy_norm_sq(g, state.d_t_psi - ref.d_t_psi, g.d_dr(diff), diff,
                         state.e_r - ref.e_r, state.spec.m ** 2)
    return np.sqrt(max(d2, 0.0))


@dataclasses.dataclass
class EvolutionTrace:
    """Sampled conservation monitors along one evolution."""

    t: np.ndarray
    E: np.ndarray
    C: np.ndarray
    V: np.ndarray
    d: np.ndarray
    max_psi: np.ndarray
    sponge_flux: np.ndarray
    e0: float
    c0: float

    def columns(self):
        return {name: getattr(self, name) for name in TRACE_COLUMNS}


def evolve(state, T, dt=None, sample_every=10, reference=None):
    """Advance to time T, sampling conservation and distance monitors.

    V(t) is the Liapunov monitor (E - e0)^2 + (C - c0)^2 with e0, c0
    taken from the reference (the initial state when none is given);
    d(t) is the phase-minimized energy-norm distance to the reference.
    Translation minimization is trivial in the radial sector and is not
    searched.  A blow-up is re-raised carrying the partial trace.
    """
    grid = state.grid
    if dt is None:
        dt = DEFAULT_DT_FACTOR * grid.dr
    if T < 0.0:
        raise ValueError("T must be nonnegative")
    sample_every = max(1, int(sample_every))
    ref = reference if reference is not None else state.clone()
    e0, c0 = dyn_energy(ref), dyn_charge(ref)
    n_steps = int(round(T / dt))
    cols = {name: [] for name in TRACE_COLUMNS}

    def sample(s):
        e, c = dyn_energy(s), dyn_charge(s)
        cols["t"].append(s.t)
        cols["E"].append(e)
        cols["C"].append(c)
        cols["V"].append((e - e0) ** 2 + (c - c0) ** 2)
        cols["d"].append(orbit_distance(s, ref))
        cols["max_psi"].append(float(np.max(np.abs(s.psi))))
        cols["sponge_flux"].append(s.sponge_flux)

    def build():
        return EvolutionTrace(*(np.array(cols[name]) for name in TRACE_COLUMNS),
                              e0=e0, c0=c0)

    sample(state)
    current = state
    for k in range(1, n_steps + 1):
        try:
            current = step(current, dt)
        except BlowUpError as exc:
            exc.trace = build()
            raise
        if k % sample_every == 0 or k == n_steps:
            sample(current)
    return build()


@dataclasses.dataclass
class ProbeRun:
    """One evolution of the probe: its trace, growth ratio and label.

    The unperturbed run has mode None and eps 0.  A blown-up run keeps
    its BlowUpError as failure, its partial trace and NaN distances.
    """
    name: str
    mode: str | None
    eps: float
    seed: int
    trace: EvolutionTrace
    max_distance: float
    max_ratio: float          # max_t d / (eps * profile norm); 0 when eps = 0
    classification: str       # stable-like / marginal / unstable-like
    failure: BlowUpError = None


@dataclasses.dataclass
class StabilityReport:
    runs: list                # every evolution once, in plan order
    modes: tuple
    eps_list: tuple
    profile_norm: float
    T: float
    dt: float

    @property
    def rows(self):
        """One run per (mode, eps), modes x eps_list; eps = 0 rows are
        the unperturbed run under each mode's name."""
        runs = {(run.mode, run.eps): run for run in self.runs}
        return [dataclasses.replace(runs[None, 0.0], mode=mode)
                if eps == 0.0 else runs[mode, eps]
                for mode in self.modes for eps in self.eps_list]

    def by_mode(self, mode):
        return [row for row in self.rows if row.mode == mode]


def classify_ratio(ratio):
    """Label a growth ratio max_t d / (eps ||profile||)."""
    if ratio < 10.0:
        return "stable-like"
    if ratio < 100.0:
        return "marginal"
    return "unstable-like"


def _probe_run(job):
    """Worker: perturb, evolve and classify one run of the probe."""
    base, norm, T, dt, sample_every, name, mode, eps, seed = job
    start = base if eps == 0.0 else perturb(base, mode, eps, seed)
    try:
        trace = evolve(start, T, dt, sample_every, reference=base)
    except BlowUpError as exc:
        return ProbeRun(name, mode, eps, seed, exc.trace, np.nan, np.nan,
                        "unstable-like", exc)
    dmax = float(np.max(trace.d))
    ratio = dmax / (eps * norm) if eps != 0.0 else 0.0
    return ProbeRun(name, mode, eps, seed, trace, dmax, ratio,
                    classify_ratio(ratio))


def stability_probe(profile, spec, eps_list, T, dt=None, sample_every=10,
                    modes=PERTURBATION_MODES, seed=0, workers=1):
    """Evolve perturbed lifts and classify growth of the orbit distance.

    The plan is one "unperturbed" run when 0 is in eps_list, then one
    run per (mode, nonzero eps) in modes x eps_list order, named
    "<mode>_eps<eps>"; run k >= 1 draws its noise from seed + k.  Every
    mode's eps = 0 row reuses the unperturbed run, since perturb(..., 0)
    is a clone whatever the mode.  Runs fan out over `workers`
    processes; the report does not depend on their number.

    The ratio max_t d(t) / (eps ||profile||) is classified stable-like
    below 10, marginal below 100, unstable-like above; a blow-up is
    recorded in its run, not raised.
    """
    if len(set(modes)) < len(modes) or len(set(eps_list)) < len(eps_list):
        raise ValueError("modes and eps_list must not repeat")
    base = lift_profile(profile, spec)
    norm = float(np.sqrt(dyn_norm_sq(base)))
    if dt is None:
        dt = DEFAULT_DT_FACTOR * base.grid.dr
    kicks = [(mode, eps) for mode in modes for eps in eps_list if eps != 0.0]
    plan = [(f"{mode}_eps{eps:g}", mode, eps, seed + k)
            for k, (mode, eps) in enumerate(kicks, start=1)]
    if 0.0 in eps_list:
        plan.insert(0, ("unperturbed", None, 0.0, seed))
    jobs = [(base, norm, T, dt, sample_every) + run for run in plan]
    runs = fan_out(_probe_run, jobs, workers)
    return StabilityReport(runs, tuple(modes), tuple(eps_list), norm,
                           float(T), float(dt))
