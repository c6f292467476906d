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

The step is fused for speed without changing the scheme.  |psi| is taken
once per half step and shared by the kick, the |psi|^2 of the Gauss
source, the Picard rule and the blow-up check.  The gauge kick's factors
exp(-i a tau) and (1 - exp(-i a tau))/(i a), a = 2 q phi, come from
their four-term series while max |a tau| < SERIES_RANGE (the truncation
error, (a tau)^4/24, is then below 3e-15) and from the closed form
otherwise.  The Gauss solve inside a step skips solve_poisson's input
checks, and the sponge's damping and loss weights are built once per
(grid, dt) by RadialGrid.sponge_factors.  evolve takes D_t psi and
d_r psi once per sample and shares them between E, C and d.
"""

import dataclasses

import numpy as np

from .fields import (energy_norm, fan_out, gauss_potential, norm_sq,
                     solve_poisson)

CFL_LIMIT = 0.5           # dt must stay below this times dr
DEFAULT_DT_FACTOR = 0.2
SERIES_RANGE = 5e-4       # max |a tau| up to which the gauge kick uses its series

PERTURBATION_MODES = ("amplitude", "velocity", "noise")

TRACE_COLUMNS = ("t", "E", "C", "V", "d", "max_psi", "sponge_flux")


def max_dt(dr):
    """Largest step the split step accepts on a grid of spacing dr."""
    return CFL_LIMIT * dr * (1.0 + 1e-12)


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


def _constrain_phi(grid, q, psi, mod, pi, phi_prev, picard=1,
                   solve=gauss_potential):
    """Solve the Gauss constraint, feeding the previous phi into rho.

    mod is |psi|; solve is the Poisson solve, unchecked inside a step.
    """
    if q == 0.0:
        z = np.zeros(grid.n)
        return z, z.copy()
    # -q Im(pi conj(psi)) from real parts, and |psi|^2 of the screening term
    src = -q * (pi.imag * psi.real - pi.real * psi.imag)
    mod2 = mod * mod
    q2 = q * q
    phi = phi_prev
    for _ in range(max(1, picard)):
        phi, dphi = solve(src - q2 * phi * mod2, grid)
    return phi, -dphi


def constrain(state, picard=2):
    """Return a copy whose phi is the constraint image of its own fields."""
    out = state.clone()
    out.phi, out.e_r = _constrain_phi(state.grid, state.q, state.psi,
                                      np.abs(state.psi), state.pi, state.phi,
                                      picard, solve=solve_poisson)
    return out


def _kick(spec, q, psi, mod, pi, phi, tau):
    """Exact integration of pi' = -2iq phi pi + (-h(|psi|) + q^2 phi^2) psi.

    The solution is exp(-i a tau) pi + g src with a = 2 q phi and
    g = (1 - exp(-i a tau))/(i a); mod is |psi|.  Where |a tau| is below
    SERIES_RANGE both factors come from their four-term series.
    """
    h = spec.wp_over_s(mod)
    if q == 0.0:
        return pi - tau * h * psi
    x = (2.0 * q * tau) * phi
    x2 = x * x
    src = (x2 * (0.5 / tau) ** 2 - h) * psi         # (q^2 phi^2 - h) psi
    # g = tau (1 - ix/2 - x^2/6 + ix^3/24 - ...)
    w = x2 * (1.0 / 6.0)
    w -= 1.0
    g = np.empty_like(pi)
    np.multiply(w, -tau, out=g.real)
    v = x2 * (1.0 / 12.0)
    v -= 1.0
    v *= x
    np.multiply(v, 0.5 * tau, out=g.imag)
    if np.max(np.abs(x)) < SERIES_RANGE:
        # exp(-ix) = 1 - ix - x^2/2 + ix^3/6 - ...
        fac = np.empty_like(pi)
        np.multiply(x2, -0.5, out=fac.real)
        fac.real += 1.0
        np.multiply(x, w, out=fac.imag)
    else:
        fac = np.exp(-1j * x)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.where(np.abs(x) < SERIES_RANGE, g,
                         (1.0 - fac) / (2j * q * phi))
    out = fac * pi
    out += src * g
    return out


def step(state, dt):
    """One symmetric split step of size dt; returns a new state."""
    grid, spec, q = state.grid, state.spec, state.q
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if dt > max_dt(grid.dr):
        raise ValueError("dt exceeds the CFL bound 0.5 dr")
    half = 0.5 * dt

    mod = np.abs(state.psi)
    picard = 2 if q * dt * float(np.max(mod)) ** 2 > 0.1 else 1
    pi = _kick(spec, q, state.psi, mod, state.pi, state.phi, half)
    phi, _ = _constrain_phi(grid, q, state.psi, mod, pi, state.phi, picard)

    psi = state.psi + half * pi
    lap = grid.laplacian(psi)
    lap *= dt
    pi += lap
    psi += half * pi

    mod = np.abs(psi)
    pi = _kick(spec, q, psi, mod, pi, phi, half)
    phi, e_r = _constrain_phi(grid, q, psi, mod, pi, phi, picard)

    start, damp, loss = grid.sponge_factors(dt)
    tail = pi[start:]
    absorbed = float(loss @ (tail.real * tail.real + tail.imag * tail.imag))
    tail *= damp

    t = state.t + dt
    # a sum is non-finite when a term is (or the fields overflow it)
    if not (np.isfinite(np.max(mod)) and np.isfinite(np.sum(pi))):
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


def _monitor_terms(state):
    """D_t psi and d_r psi, the terms E, C and d of one state share."""
    return state.d_t_psi, state.grid.d_dr(state.psi)


def _norm_terms(chi, dpsi, psi, e_r):
    """(k2, s) of fields.norm_sq: |chi|^2 + |dpsi|^2 + e_r^2 and |psi|."""
    return np.abs(chi) ** 2 + np.abs(dpsi) ** 2 + e_r ** 2, np.abs(psi)


def _energy(state, chi, dpsi):
    return energy_norm(state.spec, state.grid.w,
                       *_norm_terms(chi, dpsi, state.psi, state.e_r))[0]


def dyn_energy(state):
    """E = (1/2) int (|D_t psi|^2 + |d_r psi|^2 + E_r^2) + int W(|psi|)."""
    return _energy(state, *_monitor_terms(state))


def _charge(state, chi):
    return float(state.grid.w @ np.imag(chi * np.conj(state.psi)))


def dyn_charge(state):
    """C = int Im(D_t psi conj(psi)), the hylenic charge."""
    return _charge(state, state.d_t_psi)


def dyn_norm_sq(state):
    """int (|D_t psi|^2 + |d_r psi|^2 + m^2 |psi|^2 + E_r^2)."""
    return norm_sq(state.spec, state.grid.w,
                   *_norm_terms(*_monitor_terms(state), state.psi, state.e_r))


def _distance(state, chi, dpsi, ref, chi0, dpsi0):
    g = state.grid
    m2 = state.spec.m ** 2
    z = complex(g.w @ (chi * np.conj(chi0) + dpsi * np.conj(dpsi0)
                       + m2 * state.psi * np.conj(ref.psi)))
    rot = z / abs(z) if z != 0.0 else 1.0
    d2 = norm_sq(state.spec, g.w, *_norm_terms(
        chi - rot * chi0, dpsi - rot * dpsi0, state.psi - rot * ref.psi,
        state.e_r - ref.e_r))
    return np.sqrt(max(d2, 0.0))


def orbit_distance(state, ref):
    """Energy-norm distance to the reference, minimized over global phase.

    The phase acts on the matter pair only; the optimal rotation is the
    phase of the cross inner product, and the distance is evaluated as
    an explicit difference so near-identical states do not cancel.
    """
    return _distance(state, *_monitor_terms(state), ref,
                     *_monitor_terms(ref))


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
    d2 = norm_sq(state.spec, g.w, *_norm_terms(
        state.d_t_psi - ref.d_t_psi, g.d_dr(diff), diff, state.e_r - ref.e_r))
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
    ref_terms = _monitor_terms(ref)
    e0, c0 = _energy(ref, *ref_terms), _charge(ref, ref_terms[0])
    n_steps = int(round(T / dt))
    cols = {name: [] for name in TRACE_COLUMNS}

    def sample(s):
        chi, dpsi = _monitor_terms(s)
        e, c = _energy(s, chi, dpsi), _charge(s, chi)
        cols["t"].append(s.t)
        cols["E"].append(e)
        cols["C"].append(c)
        cols["V"].append((e - e0) ** 2 + (c - c0) ** 2)
        cols["d"].append(_distance(s, chi, dpsi, ref, *ref_terms))
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
