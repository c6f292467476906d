"""Stationary soliton profiles: shooting, Newton refinement, and descent.

A standing wave with frequency omega and coupling q solves the coupled
pair

    -lap u + W'(u) = (omega - q phi)^2 u,
    -lap phi + q^2 u^2 phi = q omega u^2,

with u'(0) = 0, u(r_max) = 0, and an outgoing 1/r condition on phi.
Two independent routes to the same discrete solution are provided: a
direct route (shooting for u, damped alternation with the screened
potential solve, Newton refinement of each) and a variational route
(preconditioned descent on J = E/|C| + delta E^2 over the pair
(u, theta), whose stationary points satisfy the same equations with
omega appearing as the constraint multiplier).
"""

import dataclasses
import warnings

import numpy as np
from scipy.linalg import solve_banded
from scipy.optimize import brentq

from .fields import (FieldState, cumulative_charge_adjoint, functionals,
                     gauss_field, gauss_residual, potential_from_field,
                     solve_poisson)

DEFAULT_OMEGA_LIST = (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)


class ConvergenceError(RuntimeError):
    """An iterative stage failed to reach its tolerance."""


class ChargeCollapseError(RuntimeError):
    """The descent drove the charge to zero; no constrained minimum here."""


@dataclasses.dataclass
class SolveOptions:
    tol: float = 1e-6            # residual target for the coupled system
    newton_tol: float = 1e-7     # inner Newton target, kept below tol
    max_outer: int = 60          # u/phi alternation sweeps
    damping: float = 0.5         # relaxation factor on phi updates
    scan_size: int = 64          # shooting candidates per pass
    scan_passes: int = 6
    bracket_lo: float = 0.1      # initial u(0) bracket, in units of s_bar
    bracket_hi: float = 10.0
    max_newton: int = 60
    tail_warn: float = 1e-8      # warn when u(r_max - dr) exceeds this times u(0)
    flow_max_iter: int = 6000
    flow_res_tol: float = 5e-5   # field-equation residual target for descent
    flow_tol: float = 1e-12      # relative J decrease considered stalled
    charge_floor: float = 1e-8   # |C| below this aborts the descent

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if self.tol <= 0 or self.newton_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.bracket_lo <= 0 or self.bracket_hi <= self.bracket_lo:
            raise ValueError("bracket must satisfy 0 < lo < hi")


@dataclasses.dataclass
class SolitonProfile:
    state: FieldState
    phi: np.ndarray
    omega: float
    q: float
    E: float
    C: float
    Lambda: float
    res1: float                  # field-equation residual of u
    res2: float                  # screened-potential residual of phi
    u0: float
    tail_ratio: float
    delta: float | None = None   # set when produced by the descent route
    fit_residual: float | None = None
    flow_iters: int | None = None
    flow_stalled: bool | None = None  # descent stopped on a stalled J


def _screened_system(u, omega, q, grid):
    """Banded matrix and right side for -lap phi + q^2 u^2 phi = q omega u^2."""
    lower, diag, upper = grid.lap_bands
    a_low = -lower
    a_diag = -diag + q * q * u * u
    a_up = -upper
    # outgoing condition phi' = -phi/r at r_max via a ghost node
    r_out, dr = grid.r[-1], grid.dr
    rp = r_out + 0.5 * dr
    rm = r_out - 0.5 * dr
    denom = dr * dr * r_out * r_out
    a_low[-1] = -(rp * rp + rm * rm) / denom
    a_diag[-1] = (rp * rp + rm * rm + 2.0 * dr * rp * rp / r_out) / denom \
        + q * q * u[-1] ** 2
    rhs = q * omega * u * u
    return a_low, a_diag, a_up, rhs


def _banded_solve(a_low, a_diag, a_up, rhs):
    n = a_diag.size
    ab = np.zeros((3, n))
    ab[0, 1:] = a_up[:-1]
    ab[1] = a_diag
    ab[2, :-1] = a_low[1:]
    return solve_banded((1, 1), ab, rhs)


def solve_phi_given_u(u, omega, q, grid):
    """Electrostatic potential of a frozen profile; zero coupling gives zero."""
    if q == 0.0:
        return np.zeros(grid.n)
    return _banded_solve(*_screened_system(u, omega, q, grid))


def screened_residual(u, omega, q, grid, phi):
    """Weighted residual norm of the potential equation at (u, phi)."""
    if q == 0.0:
        return float(np.sqrt(grid.integrate(phi * phi)))
    a_low, a_diag, a_up, rhs = _screened_system(u, omega, q, grid)
    y = a_diag * phi - rhs
    y[:-1] += a_up[:-1] * phi[1:]
    y[1:] += a_low[1:] * phi[:-1]
    return float(np.sqrt(grid.integrate(y * y)))


def _field_residual(spec, omega, q, phi, grid, u):
    G = -grid.laplacian(u) + spec.wp(u) - (omega - q * phi) ** 2 * u
    G[-1] = u[-1]
    return G


def shoot_u_given_phi(spec, omega, phi, q, grid, opts=None):
    """March the profile equation from r = 0, bisecting u(0) on the fan.

    Candidates that dip below zero have overshot; candidates that turn
    back upward while still positive have undershot.  Each pass refines
    the lowest undershoot-to-overshoot transition of the fan, keeping
    the ground state rather than an excited branch.  The winning
    trajectory is cut where it leaves the separatrix and continued with
    its own exponential tail.
    """
    opts = opts or SolveOptions()
    if not 0.0 < omega < spec.m:
        raise ValueError("omega must lie strictly between 0 and the mass m")
    lo = opts.bracket_lo * spec.s_bar
    hi = opts.bracket_hi * spec.s_bar
    capped = False
    lowered = False
    passes = 0
    while passes < opts.scan_passes:
        cand = np.linspace(lo, hi, opts.scan_size)
        status = _march(spec, omega, q, phi, grid, cand)
        over = np.flatnonzero(status == 2)
        if over.size == 0:
            if not capped:
                # At low omega the overshoot window is a sliver just below
                # the largest zero of the radial force W'(s) - omega^2 s;
                # cap the bracket there and rescan densely before giving up.
                s_star = _largest_force_root(spec, omega - q * phi[0], lo, hi)
                if s_star is not None:
                    capped = True
                    hi = s_star * (1.0 - 1e-9)
                    continue
            raise ConvergenceError(
                "no overshoot in the u(0) scan; widen the bracket")
        first = int(over[0])
        if first == 0:
            if not lowered:
                # Near the mass threshold the separatrix u(0) falls below
                # any fixed floor; push the bracket floor down and rescan.
                lowered = True
                lo = lo / 256.0
                continue
            raise ConvergenceError(
                "every candidate overshoots; lower the bracket")
        unders = np.flatnonzero(status[:first] == 1)
        lo_i = int(unders[-1]) if unders.size else first - 1
        lo, hi = float(cand[lo_i]), float(cand[first])
        passes += 1
    u0 = 0.5 * (lo + hi)
    _, traj_u, traj_v = _march(spec, omega, q, phi, grid,
                               np.array([u0]), record=True)
    u = traj_u[:, 0]
    v = traj_v[:, 0]
    bad = (u <= 1e-12 * u0) | (v >= 0.0)
    bad[0] = False
    cut = int(np.argmax(bad)) if bad.any() else grid.n - 1
    cut = max(cut, 2)
    c = cut - 1
    mu = -v[c] / u[c] if u[c] > 0 else np.nan
    if not np.isfinite(mu) or mu <= 0.0:
        mu = np.sqrt(spec.m ** 2 - omega ** 2)
    out = u.copy()
    out[c:] = u[c] * np.exp(-mu * (grid.r[c:] - grid.r[c]))
    out[-1] = 0.0
    return out


def _largest_force_root(spec, om_eff, lo, hi):
    """Largest s in (lo, hi] with W'(s) = om_eff^2 s, or None if absent."""
    s = np.linspace(max(lo, 1e-9), hi, 4096)
    g = spec.wp(s) - om_eff ** 2 * s
    sign = np.sign(g)
    flips = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    if flips.size == 0:
        return None
    k = int(flips[-1])
    return float(brentq(lambda x: spec.wp(x) - om_eff ** 2 * x,
                        s[k], s[k + 1]))


def _march(spec, omega, q, phi, grid, u0_vec, record=False):
    """Classify a vector of u(0) candidates by one RK4 sweep of the grid."""
    r, dr, n = grid.r, grid.dr, grid.n
    big = omega - q * phi
    big_mid = 0.5 * (big[:-1] + big[1:])
    u = np.array(u0_vec, dtype=float)
    v = np.zeros_like(u)
    status = np.zeros(u.shape, dtype=int)
    if record:
        traj_u = np.zeros((n,) + u.shape)
        traj_v = np.zeros_like(traj_u)
        traj_u[0] = u
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n - 1):
            o0 = big[i] ** 2
            om = big_mid[i] ** 2
            o1 = big[i + 1] ** 2
            rm = r[i] + 0.5 * dr
            if i == 0:
                k1v = (spec.wp(u) - o0 * u) / 3.0
            else:
                k1v = spec.wp(u) - o0 * u - 2.0 * v / r[i]
            k1u = v
            u2 = u + 0.5 * dr * k1u
            v2 = v + 0.5 * dr * k1v
            k2v = spec.wp(u2) - om * u2 - 2.0 * v2 / rm
            u3 = u + 0.5 * dr * v2
            v3 = v + 0.5 * dr * k2v
            k3v = spec.wp(u3) - om * u3 - 2.0 * v3 / rm
            u4 = u + dr * v3
            v4 = v + dr * k3v
            k4v = spec.wp(u4) - o1 * u4 - 2.0 * v4 / r[i + 1]
            active = status == 0
            u = np.where(active, u + dr * (k1u + 2.0 * v2 + 2.0 * v3 + v4) / 6.0, u)
            v = np.where(active, v + dr * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0, v)
            fresh = status == 0
            status[fresh & (u < 0.0)] = 2
            status[fresh & (v > 0.0) & (u > 0.0)] = 1
            if record:
                traj_u[i + 1] = u
                traj_v[i + 1] = v
            if not np.any(status == 0):
                break
    if record:
        return status, traj_u, traj_v
    return status


def newton_polish(spec, omega, phi, q, grid, u, opts=None):
    """Drive the discrete profile equation to tolerance from a nearby guess."""
    opts = opts or SolveOptions()
    lower, diag, upper = grid.lap_bands
    om2 = (omega - q * phi) ** 2
    x = np.array(u, dtype=float)
    G = _field_residual(spec, omega, q, phi, grid, x)
    for _ in range(opts.max_newton):
        gnorm = np.sqrt(grid.integrate(G * G))
        if gnorm < opts.newton_tol:
            return x, float(gnorm)
        j_low = -lower
        j_diag = -diag + spec.wpp(x) - om2
        j_up = -upper
        j_low[-1] = 0.0
        j_diag[-1] = 1.0
        step = _banded_solve(j_low, j_diag, j_up, -G)
        merit = np.dot(G, G)
        t = 1.0
        for _ in range(20):
            xn = x + t * step
            Gn = _field_residual(spec, omega, q, phi, grid, xn)
            if np.all(np.isfinite(Gn)) and np.dot(Gn, Gn) < merit:
                break
            t *= 0.5
        else:
            raise ConvergenceError("profile refinement stalled in line search")
        x, G = xn, Gn
    raise ConvergenceError("profile refinement did not reach tolerance")


def _assemble(spec, omega, q, grid, u, phi, res1, res2, opts,
              delta=None, fit_residual=None, flow_iters=None,
              flow_stalled=None):
    theta = -(omega - q * phi) * u
    state = FieldState(grid=grid, u=u.copy(), u_hat=np.zeros(grid.n),
                       theta=theta, Theta=np.zeros(grid.n),
                       E_r=-grid.d_dr(phi), q=q)
    f = functionals(state, spec)
    u0 = float(u[0])
    tail_ratio = float(abs(u[-2]) / max(abs(u0), 1e-300))
    if tail_ratio > opts.tail_warn:
        warnings.warn(
            f"profile tail {tail_ratio:.2e} of u(0) still visible at r_max; "
            "enlarge the grid or lower omega", RuntimeWarning)
    return SolitonProfile(
        state=state, phi=np.array(phi, dtype=float), omega=float(omega),
        q=float(q), E=f.energy, C=f.charge,
        Lambda=f.energy / abs(f.charge), res1=float(res1), res2=float(res2),
        u0=u0, tail_ratio=tail_ratio, delta=delta,
        fit_residual=fit_residual, flow_iters=flow_iters,
        flow_stalled=flow_stalled)


def solve_profile(spec, omega, q, grid, opts=None, init_u=None):
    """Direct route: shoot for u, then alternate with the potential solve.

    Each phi update is relaxed by the damping factor and u is re-polished
    against the new potential; both residuals must pass the tolerance.
    An initial u may be supplied to warm-start continuation sweeps.
    """
    opts = opts or SolveOptions()
    if not 0.0 < omega < spec.m:
        raise ValueError("omega must lie strictly between 0 and the mass m")
    phi = np.zeros(grid.n)
    if init_u is not None:
        u = np.array(init_u, dtype=float)
    else:
        u = shoot_u_given_phi(spec, omega, phi, q, grid, opts)
    u, res1 = newton_polish(spec, omega, phi, q, grid, u, opts)
    res2 = screened_residual(u, omega, q, grid, phi)
    if q != 0.0:
        for _ in range(opts.max_outer):
            if res1 < opts.tol and res2 < opts.tol:
                break
            target = solve_phi_given_u(u, omega, q, grid)
            phi = phi + opts.damping * (target - phi)
            u, res1 = newton_polish(spec, omega, phi, q, grid, u, opts)
            res2 = screened_residual(u, omega, q, grid, phi)
        else:
            raise ConvergenceError(
                "alternation between profile and potential did not settle")
    return _assemble(spec, omega, q, grid, u, phi, res1, res2, opts)


def _flow_energy(spec, q, grid, u, theta):
    """Energy, charge, and the Gauss-law field E_r used by the descent.

    Returns (E, C, e_field); _flow_grads needs e_field for the exact adjoint.
    """
    w = grid.w
    e_field = np.zeros(grid.n)
    if q != 0.0:
        _, e_field = gauss_field(-q * theta * u, grid)
    energy = 0.5 * np.dot(w, theta * theta) \
        + 0.5 * grid.dirichlet_energy(u) \
        + np.dot(w, spec.w(u)) \
        + 0.5 * np.dot(w, e_field * e_field)
    charge = np.dot(w, theta * u)
    return energy, charge, e_field


def _flow_grads(spec, q, grid, u, theta, e_field):
    """Euclidean partials of the flow energy and charge in (u, theta)."""
    w = grid.w
    de_u = 0.5 * grid.dirichlet_grad(u) + w * spec.wp(u)
    de_th = w * theta
    if q != 0.0:
        g_q = np.zeros(grid.n)
        g_q[1:] = w[1:] * e_field[1:] / grid.r[1:] ** 2
        ds = cumulative_charge_adjoint(g_q, grid)
        de_th += -q * u * ds
        de_u += -q * theta * ds
    dc_u = w * theta
    dc_th = w * u
    return de_u, de_th, dc_u, dc_th


def j_functional(spec, q, grid, delta, u, theta):
    """Value and Euclidean gradient of J = E/|C| + delta E^2 in (u, theta).

    The gradient pairs with plain dot products, so a centered finite
    difference of the value along any direction should reproduce it.
    """
    energy, charge, e_field = _flow_energy(spec, q, grid, u, theta)
    de_u, de_th, dc_u, dc_th = _flow_grads(spec, q, grid, u, theta, e_field)
    a = 1.0 / abs(charge) + 2.0 * delta * energy
    b = energy * np.sign(charge) / charge ** 2
    cost = energy / abs(charge) + delta * energy * energy
    return cost, a * de_u - b * dc_u, a * de_th - b * dc_th


def flow_state(spec, q, grid, u, theta):
    """Package a reduced pair (u, theta) as a Gauss-consistent state.

    The electric field is rebuilt from the charge density -q theta u,
    so the result always passes the constraint check in minimize_J.
    """
    u = np.array(u, dtype=float)
    theta = np.array(theta, dtype=float)
    e_r = np.zeros(grid.n)
    if q != 0.0:
        _, dphi = solve_poisson(-q * theta * u, grid)
        e_r = -dphi
    return FieldState(grid=grid, u=u, u_hat=np.zeros(grid.n), theta=theta,
                      Theta=np.zeros(grid.n), E_r=e_r, q=q)


def descent_seed(spec, q, grid):
    """Smooth charged bump used as the default start for the descent."""
    u = spec.s_bar * np.exp(-(grid.r / 8.0) ** 2)
    u[-1] = 0.0
    return flow_state(spec, q, grid, u, 0.7 * spec.m * u)


def minimize_J(spec, q, delta, init, opts=None):
    """Variational route: preconditioned descent on J = E/|C| + delta E^2.

    The initial state must carry nonzero charge and satisfy the Gauss
    constraint.  The descent works in the reduced pair (u, theta) with
    u_hat and Theta held at zero, rebuilding the radial electric field
    from the instantaneous charge density at every step, so the Gauss
    constraint is enforced by construction along the whole path.  The
    flow stays on the charge branch of the initial state (the two
    branches are images of each other under an exact sign symmetry).
    The multiplier omega is extracted afterwards by a least squares
    fit of the phase relation theta = -(omega - q phi) u, and the
    result is reported in the same orientation convention as the
    direct route (omega > 0, negative charge).

    The penalty weight matters.  Beyond a potential-dependent ceiling
    the functional has no nonvacuum minimizer: the descent then slides
    toward the vacuum along the soliton family until the relative
    J-decrease test stops it, and the returned state carries residuals
    that reflect the drift.  Inspect res1 before trusting the profile;
    flow_stalled tells a stalled J from a run cut off by flow_max_iter
    or stopped on the residual target.
    """
    opts = opts or SolveOptions()
    if delta < 0:
        raise ValueError("penalty weight delta must be nonnegative")
    if not isinstance(init, FieldState):
        raise TypeError("init must be a FieldState")
    grid = init.grid
    u = np.array(init.u, dtype=float)
    theta = np.array(init.theta, dtype=float)
    u[-1] = 0.0
    charge0 = float(np.dot(grid.w, theta * u))
    if not np.any(u) or charge0 == 0.0:
        raise ValueError("initial state must carry nonzero charge")
    gres = gauss_residual(init)
    gscale = q * float(np.max(np.abs(theta * u)))
    if float(np.max(np.abs(gres))) > 1e-6 * gscale + 1e-10:
        raise ValueError("initial state violates the Gauss constraint")
    branch = 1.0 if charge0 > 0 else -1.0
    if branch < 0:
        theta = -theta

    # mass-form preconditioner diag(wt) (-lap + m^2), symmetric positive
    # definite once the axis node carries its cell volume as weight
    lower, diag, upper = grid.lap_bands
    wt = grid.w.copy()
    wt[0] = grid.cell_vol[0]
    wt[-1] = 2.0 * wt[-1]
    m_low = wt * (-lower)
    m_diag = wt * (-diag + spec.m ** 2)
    m_up = wt * (-upper)

    energy, charge, e_field = _flow_energy(spec, q, grid, u, theta)
    cost = energy / charge + delta * energy * energy
    floor = opts.charge_floor * charge
    step = 1.0
    iters = 0
    stalled = False
    for iters in range(1, opts.flow_max_iter + 1):
        de_u, de_th, dc_u, dc_th = _flow_grads(spec, q, grid, u, theta, e_field)
        a = 1.0 / charge + 2.0 * delta * energy
        b = energy / charge ** 2
        g_u = a * de_u - b * dc_u
        g_th = a * de_th - b * dc_th
        dir_u = -_banded_solve(m_low, m_diag, m_up, g_u)
        dir_u[-1] = 0.0
        dir_th = -g_th / wt
        t = step
        accepted = False
        hit_floor = False
        for _ in range(20):
            un = u + t * dir_u
            thn = theta + t * dir_th
            en, cn, fn = _flow_energy(spec, q, grid, un, thn)
            if cn < floor:
                hit_floor = True
                t *= 0.5
                continue
            cost_n = en / cn + delta * en * en
            if np.isfinite(cost_n) and cost_n < cost:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            if hit_floor:
                raise ChargeCollapseError(
                    "charge fell to its floor during descent; "
                    "no constrained minimum along this path")
            raise ConvergenceError(
                "line search could not reduce J after 20 halvings")
        drop = cost - cost_n
        u, theta, energy, charge, e_field, cost = un, thn, en, cn, fn, cost_n
        step = min(2.0 * t, 64.0)
        if iters % 25 == 0 or drop < opts.flow_tol * (1.0 + abs(cost)):
            omega_fit, phi_pos = _fit_omega(q, grid, u, theta, e_field)
            res = np.sqrt(grid.integrate(
                _field_residual(spec, omega_fit, q, -phi_pos, grid, u) ** 2))
            if res < opts.flow_res_tol:
                break
            if drop < opts.flow_tol * (1.0 + abs(cost)):
                stalled = True
                break

    omega_fit, phi_pos = _fit_omega(q, grid, u, theta, e_field)
    fit_num = grid.integrate((theta - (omega_fit + q * phi_pos) * u) ** 2)
    fit_den = grid.integrate(theta * theta)
    fit_residual = float(np.sqrt(fit_num / fit_den)) if fit_den > 0 else np.inf
    # mirror onto the canonical branch: theta, phi, and E all flip sign
    phi = -phi_pos
    res1 = float(np.sqrt(grid.integrate(
        _field_residual(spec, omega_fit, q, phi, grid, u) ** 2)))
    res2 = screened_residual(u, omega_fit, q, grid, phi)
    return _assemble(spec, omega_fit, q, grid, u, phi, res1, res2, opts,
                     delta=delta, fit_residual=fit_residual, flow_iters=iters,
                     flow_stalled=stalled)


def _fit_omega(q, grid, u, theta, e_field):
    """Multiplier from theta = (omega + q phi) u on the positive branch."""
    phi_pos = potential_from_field(-e_field, grid)
    w = grid.w
    num = np.dot(w, u * (theta - q * phi_pos * u))
    den = np.dot(w, u * u)
    return float(num / den), phi_pos


@dataclasses.dataclass
class FamilySweepResult:
    parameter: str               # "omega" or "delta"
    values: list
    profiles: list               # SolitonProfile, or None where a point failed
    failures: list               # (value, reason) pairs
    q: float

    @property
    def ok(self):
        return [p for p in self.profiles if p is not None]


def family_sweep(spec, q, grid, omega_list=None, delta_list=None, opts=None):
    """Continuation over omega (direct route) or delta (descent route).

    Each point warm-starts from its predecessor and falls back to a
    fresh solve; failures are recorded per point rather than aborting
    the sweep.
    """
    if omega_list is not None and delta_list is not None:
        raise ValueError("sweep over omega or delta, not both")
    if delta_list is None:
        parameter = "omega"
        values = list(omega_list if omega_list is not None else DEFAULT_OMEGA_LIST)
    else:
        parameter = "delta"
        values = list(delta_list)
    profiles = []
    failures = []
    prev = None
    for val in values:
        try:
            if parameter == "omega":
                try:
                    prof = solve_profile(spec, val, q, grid, opts, init_u=prev)
                except (ConvergenceError, ChargeCollapseError):
                    prof = solve_profile(spec, val, q, grid, opts)
            else:
                seed = prev if prev is not None else descent_seed(spec, q, grid)
                prof = minimize_J(spec, q, val, seed, opts=opts)
        except (ValueError, ConvergenceError, ChargeCollapseError) as exc:
            profiles.append(None)
            failures.append((val, str(exc)))
            prev = None
            continue
        profiles.append(prof)
        if parameter == "omega":
            prev = prof.state.u
        else:
            prev = flow_state(spec, q, grid, prof.state.u, -prof.state.theta)
    return FamilySweepResult(parameter=parameter, values=values,
                             profiles=profiles, failures=failures, q=q)
