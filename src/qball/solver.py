"""Stationary soliton profiles: shooting, Newton refinement, and descent.

A standing wave with frequency omega and coupling q solves the coupled
pair

    -lap u + W'(u) = (omega - q phi)^2 u,
    -lap phi + q^2 u^2 phi = q omega u^2,

with u'(0) = 0, u(r_max) = 0, and an outgoing 1/r condition on phi.
Two independent routes to the same discrete solution are provided: a
direct route (shooting for u, then one Newton on the pair (u, phi)) and
a variational route (preconditioned descent on J = E/|C| + delta E^2
over the pair (u, theta), whose stationary points satisfy the same
equations with omega appearing as the constraint multiplier).  A cold
direct solve shoots on a coarser grid; the Newton runs on the caller's
grid one step past tolerance, so the profile forgets its start (the
shooting seed or a warm start) to roundoff.  family_sweep finishes a
descent with that Newton at its fitted omega: every point meets tol.
LAPACK (scipy) is imported at the first factorization, not with the module.
"""

import dataclasses
import warnings

import numpy as np

from .fields import (FieldState, RadialGrid, cumulative_charge_adjoint,
                     functionals, gauss_field, potential_from_field)
# kept for bench/test_bench.py::test_tracer_wraps_every_binding_and_restores
from .fields import solve_poisson  # noqa: F401
from .potential import _real_roots

DEFAULT_OMEGA_LIST = (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)
SCAN_SIZE = 64          # shooting candidates per pass
SCAN_PASSES = 6
COARSEN = 16            # cold solves shoot on every COARSEN-th node
BRACKET_LO = 0.1        # initial u(0) bracket, in units of spec.s_scale
BRACKET_HI = 10.0
MAX_NEWTON = 60
TAIL_WARN = 1e-8        # warn when u(r_max - dr) exceeds this times u(0)
FLOW_TOL = 1e-12        # relative J decrease considered stalled
NEWTON_TOL = 1e-7       # the coupled Newton stops one step past this
CHARGE_FLOOR = 1e-8     # relative |C| below which the descent aborts


class ConvergenceError(RuntimeError):
    """An iterative stage failed to reach its tolerance."""


class ChargeCollapseError(RuntimeError):
    """The descent drove the charge to zero; no constrained minimum here."""


@dataclasses.dataclass
class SolveOptions:
    """The ``[solver]`` config keys; the other solver limits are constants."""
    tol: float = 1e-6            # residual target for the coupled system
    flow_max_iter: int = 6000
    flow_res_tol: float = 5e-5   # field-equation residual target for descent

    def __post_init__(self):
        for name in ("tol", "flow_res_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.flow_max_iter < 1:
            raise ValueError("flow_max_iter must be at least 1")


@dataclasses.dataclass
class SolitonProfile:
    """A stationary profile.  A descent point of family_sweep keeps delta,
    fit_residual and flow_iters through its Newton finish; minimize_J
    alone returns the unfinished descent state, with no newton_iters."""
    state: FieldState
    phi: np.ndarray
    omega: float
    q: float
    E: float
    C: float
    Lambda: float
    res1: float                  # residual of the profile equation
    res2: float                  # residual of the screened-potential equation
    u0: float
    tail_ratio: float
    delta: float | None = None   # set when produced by the descent route
    fit_residual: float | None = None
    flow_iters: int | None = None
    newton_iters: int | None = None   # coupled Newton steps


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


def _lapack():
    """(dgbsv, dgttrf, dgttrs).  The package's only scipy import, run at
    the first factorization, so the survey never loads scipy."""
    from scipy.linalg.lapack import dgbsv, dgttrf, dgttrs
    return dgbsv, dgttrf, dgttrs


def _tridiagonal_lu(a_low, a_diag, a_up):
    """solve(rhs) for the matrix with rows (a_low[i], a_diag[i], a_up[i]),
    factored once; a_low[0] and a_up[-1] fall outside the matrix."""
    _, dgttrf, dgttrs = _lapack()
    *factors, info = dgttrf(a_low[1:], a_diag, a_up[:-1])
    if info != 0:
        raise ConvergenceError(f"singular tridiagonal matrix (info={info})")
    return lambda rhs: dgttrs(*factors, rhs)[0]


def solve_phi_given_u(u, omega, q, grid):
    """Electrostatic potential of a frozen profile; zero coupling gives zero."""
    if q == 0.0:
        return np.zeros(grid.n)
    a_low, a_diag, a_up, rhs = _screened_system(u, omega, q, grid)
    if not (np.isfinite(a_diag).all() and np.isfinite(rhs).all()):
        raise ValueError("screened system has non-finite entries")
    return _tridiagonal_lu(a_low, a_diag, a_up)(rhs)


def _residual(spec, omega, q, grid, u, phi):
    """Residuals at (u, phi): columns F1 (profile) and F2 (potential)."""
    F = np.empty((grid.n, 2))
    F[:, 0] = -grid.laplacian(u) + spec.wp(u) - (omega - q * phi) ** 2 * u
    F[-1, 0] = u[-1]
    a_low, a_diag, a_up, rhs = _screened_system(u, omega, q, grid)
    F[:, 1] = a_diag * phi - rhs
    F[:-1, 1] += a_up[:-1] * phi[1:]
    F[1:, 1] += a_low[1:] * phi[:-1]
    return F


def shoot_u_given_phi(spec, omega, grid):
    """March -lap u + W'(u) = omega^2 u from r = 0, bisecting u(0) on the fan.

    The potential is zero here: the shot only seeds the coupled Newton.
    Candidates that dip below zero have overshot; candidates that turn
    back upward while still positive have undershot.  Each pass refines
    the lowest undershoot-to-overshoot transition of the fan, keeping
    the ground state rather than an excited branch.  The winning
    trajectory is cut where it leaves the separatrix and continued with
    its own exponential tail.
    """
    if not 0.0 < omega < spec.m:
        raise ValueError("omega must lie strictly between 0 and the mass m")
    lo = BRACKET_LO * spec.s_scale
    hi = BRACKET_HI * spec.s_scale
    capped = False
    lowered = False
    passes = 0
    while passes < SCAN_PASSES:
        cand = np.linspace(lo, hi, SCAN_SIZE)
        status = _march(spec, omega, grid, cand)
        over = np.flatnonzero(status == 2)
        if over.size == 0:
            if not capped:
                # At low omega the overshoot window is a sliver just below
                # the largest zero of the radial force W'(s) - omega^2 s;
                # cap the bracket there and rescan densely before giving up.
                s_star = _largest_force_root(spec, omega, lo, hi)
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
    _, traj_u, traj_v = _march(spec, omega, grid, np.array([u0]),
                               record=True)
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


def _largest_force_root(spec, omega, lo, hi):
    """Largest real root in (lo, hi] of W'(s)/s = omega^2, or None."""
    s = _real_roots((spec.coeffs[0] - omega ** 2,) + spec.coeffs[1:], lo, hi)
    return float(s.max()) if s.size else None


def _march(spec, omega, grid, u0_vec, record=False):
    """Classify a vector of u(0) candidates by one RK4 sweep of the grid."""
    r, dr, n = grid.r, grid.dr, grid.n
    om = omega ** 2
    u = np.array(u0_vec, dtype=float)
    v = np.zeros_like(u)
    status = np.zeros(u.shape, dtype=int)
    if record:
        traj_u = np.zeros((n,) + u.shape)
        traj_v = np.zeros_like(traj_u)
        traj_u[0] = u
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n - 1):
            rm = r[i] + 0.5 * dr
            if i == 0:
                k1v = (spec.wp(u) - om * u) / 3.0
            else:
                k1v = spec.wp(u) - om * u - 2.0 * v / r[i]
            k1u = v
            u2 = u + 0.5 * dr * k1u
            v2 = v + 0.5 * dr * k1v
            k2v = spec.wp(u2) - om * u2 - 2.0 * v2 / rm
            u3 = u + 0.5 * dr * v2
            v3 = v + 0.5 * dr * k2v
            k3v = spec.wp(u3) - om * u3 - 2.0 * v3 / rm
            u4 = u + dr * v3
            v4 = v + dr * k3v
            k4v = spec.wp(u4) - om * u4 - 2.0 * v4 / r[i + 1]
            # a classified candidate never changes status, so its trajectory
            # need not be frozen; errstate silences its overflow
            u = u + dr * (k1u + 2.0 * v2 + 2.0 * v3 + v4) / 6.0
            v = v + dr * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
            fresh = status == 0
            status[fresh & (u < 0.0)] = 2
            status[fresh & (v > 0.0) & (u > 0.0)] = 1
            if record:
                traj_u[i + 1] = u
                traj_v[i + 1] = v
            if status.all():
                break
    if record:
        return status, traj_u, traj_v
    return status


def newton_polish(spec, omega, q, grid, u, phi, history=None):
    """Drive the discrete pair (u, phi) to tolerance from a nearby guess.

    One Newton on both equations; the unknowns interleave as [u_0, phi_0,
    u_1, phi_1, ...], so the Jacobian is banded (2, 2).  One step follows
    the first iterate whose residuals both meet NEWTON_TOL, so the result
    forgets the guess to roundoff; if the line search finds no decrease
    at that floor, the iterate is kept.  Returns (u, phi, res1, res2) and
    appends to history the (res1, res2) each step started from.  A failure
    names the step and the residuals it started from.
    """
    dgbsv = _lapack()[0]
    lower, diag, upper = grid.lap_bands
    # LAPACK band storage, A[i, j] at ab[4 + i - j, j]: rows 0-1 take the
    # LU fill, and the row u[-1] = 0 has no off-diagonal entries
    ab = np.zeros((7, 2 * grid.n), order="F")
    x = np.column_stack((u, phi)).astype(float).ravel()

    def failure(what):
        return ConvergenceError(
            f"{what} at step {k}, res1={res1:.6g} res2={res2:.6g}")

    F = _residual(spec, omega, q, grid, x[0::2], x[1::2])
    extra = True
    for k in range(MAX_NEWTON):
        res1, res2 = np.sqrt(grid.w @ F ** 2)
        met = max(res1, res2) < NEWTON_TOL
        if met and not extra:
            break
        u, phi = x[0::2], x[1::2]
        big = omega - q * phi
        s_low, s_diag, s_up, _ = _screened_system(u, omega, q, grid)
        ab[:] = 0.0
        ab[2, 2::2] = -upper[:-1]
        ab[2, 3::2] = s_up[:-1]
        ab[3, 1:-1:2] = 2.0 * q * (big * u)[:-1]    # dF1/dphi
        ab[4, 0::2] = -diag + spec.wpp(u) - big * big
        ab[4, -2] = 1.0
        ab[4, 1::2] = s_diag
        ab[5, 0::2] = -2.0 * q * big * u            # dF2/du
        ab[6, 0:-4:2] = -lower[1:-1]
        ab[6, 1:-2:2] = s_low[1:]
        *_, step, info = dgbsv(2, 2, ab, -F.ravel(), overwrite_ab=True,
                               overwrite_b=True)
        if info:
            raise failure("singular Newton matrix")
        merit = np.vdot(F, F)
        t = 1.0
        for _ in range(20):
            xn = x + t * step
            Fn = _residual(spec, omega, q, grid, xn[0::2], xn[1::2])
            if np.all(np.isfinite(Fn)) and np.vdot(Fn, Fn) < merit:
                break
            t *= 0.5
        else:
            if met:
                break
            raise failure("profile refinement stalled in line search")
        x, F = xn, Fn
        extra = extra and not met
        if history is not None:
            history.append((res1, res2))
    else:
        raise failure("profile refinement did not reach tolerance")
    return x[0::2].copy(), x[1::2].copy(), res1, res2


def _assemble(spec, omega, q, grid, u, phi, res1, res2, **record):
    theta = -(omega - q * phi) * u
    state = FieldState(grid=grid, u=u.copy(), u_hat=np.zeros(grid.n),
                       theta=theta, Theta=np.zeros(grid.n),
                       E_r=-grid.d_dr(phi), q=q)
    f = functionals(state, spec)
    u0 = float(u[0])
    tail_ratio = float(abs(u[-2]) / max(abs(u0), 1e-300))
    return SolitonProfile(
        state=state, phi=np.array(phi, dtype=float), omega=float(omega),
        q=float(q), E=f.energy, C=f.charge,
        Lambda=f.energy / abs(f.charge), res1=float(res1), res2=float(res2),
        u0=u0, tail_ratio=tail_ratio, **record)


def solve_profile(spec, omega, q, grid, opts=None, init_u=None):
    """Direct route: shoot for u, then one Newton on the pair (u, phi).

    A cold solve shoots on a grid COARSEN times coarser and interpolates
    onto the caller's grid; an initial u may be given instead to
    warm-start continuation sweeps.  Either way phi starts at zero and
    newton_polish takes both one step past NEWTON_TOL, so the profile
    forgets its start to roundoff.  Both residuals must pass tol.
    """
    opts = opts or SolveOptions()
    if not 0.0 < omega < spec.m:
        raise ValueError("omega must lie strictly between 0 and the mass m")
    if init_u is not None:
        u = init_u
    else:
        coarse = RadialGrid(grid.r_max, max((grid.n - 1) // COARSEN + 1, 3))
        u = np.interp(grid.r, coarse.r,
                      shoot_u_given_phi(spec, omega, coarse))
    steps = []
    u, phi, res1, res2 = newton_polish(spec, omega, q, grid, u,
                                       np.zeros(grid.n), history=steps)
    if max(res1, res2) >= opts.tol:
        raise ConvergenceError(f"residuals res1={res1:.6g} res2={res2:.6g} "
                               f"not below tol={opts.tol:g}")
    prof = _assemble(spec, omega, q, grid, u, phi, res1, res2,
                     newton_iters=len(steps))
    if prof.tail_ratio > TAIL_WARN:
        warnings.warn(
            f"profile tail {prof.tail_ratio:.2e} of u(0) still visible at "
            "r_max; enlarge the grid or lower omega", RuntimeWarning)
    return prof


def _flow_energy(spec, q, grid, u, theta):
    """Energy, charge, the Gauss-law field E_r and the Laplacian of u.

    Returns (E, C, e_field, lap); _j_grad needs e_field for the exact
    adjoint and lap for the Dirichlet term.
    """
    w = grid.w
    e_field = np.zeros(grid.n)
    if q != 0.0:
        _, e_field = gauss_field(-q * theta * u, grid)
    lap = grid.laplacian(u)
    energy = 0.5 * np.dot(w, theta * theta) \
        - 0.5 * np.dot(grid.wt * u, lap) \
        + np.dot(w, spec.w(u)) \
        + 0.5 * np.dot(w, e_field * e_field)
    charge = np.dot(w, theta * u)
    return energy, charge, e_field, lap


def _j_grad(spec, q, grid, delta, u, theta, energy, charge, e_field, lap):
    """Euclidean gradient (g_u, g_theta) of J = E/|C| + delta E^2.

    energy, charge, e_field and lap are _flow_energy at (u, theta).  The
    partials of E carry the exact adjoint of the Gauss-law field; those
    of C are w theta and w u.
    """
    w = grid.w
    de_u = w * spec.wp(u) - grid.wt * lap
    de_th = w * theta
    if q != 0.0:
        g_q = np.zeros(grid.n)
        g_q[1:] = w[1:] * e_field[1:] / grid.r[1:] ** 2
        ds = cumulative_charge_adjoint(g_q, grid)
        de_th += -q * u * ds
        de_u += -q * theta * ds
    a = 1.0 / abs(charge) + 2.0 * delta * energy
    b = energy * np.sign(charge) / charge ** 2
    return a * de_u - b * (w * theta), a * de_th - b * (w * u)


def j_functional(spec, q, grid, delta, u, theta):
    """Value and Euclidean gradient of J = E/|C| + delta E^2 in (u, theta).

    The gradient pairs with plain dot products, so a centered finite
    difference of the value along any direction should reproduce it.
    """
    energy, charge, e_field, lap = _flow_energy(spec, q, grid, u, theta)
    cost = energy / abs(charge) + delta * energy * energy
    return (cost, *_j_grad(spec, q, grid, delta, u, theta,
                           energy, charge, e_field, lap))


def descent_seed(spec, grid):
    """Smooth charged bump (u, theta), the default start of the descent."""
    u = spec.s_bar * np.exp(-(grid.r / 8.0) ** 2)
    u[-1] = 0.0
    return u, 0.7 * spec.m * u


def minimize_J(spec, q, grid, delta, u, theta, opts=None):
    """Variational route: preconditioned descent on J = E/|C| + delta E^2.

    The start (u, theta) must carry nonzero charge; u[-1] is set to zero.
    The descent works in the reduced pair (u, theta) with u_hat and Theta
    held at zero, rebuilding the radial electric field from the
    instantaneous charge density at every step, so the Gauss constraint
    holds by construction along the whole path.  The flow stays on the
    charge branch of the start (the two branches are images of each
    other under an exact sign symmetry).
    The multiplier omega is extracted afterwards by a least squares
    fit of the phase relation theta = -(omega - q phi) u, and the
    result is reported in the same orientation convention as the
    direct route (omega > 0, negative charge).

    The descent stops once res1 is below flow_res_tol or J stalls at its
    roundoff floor (where res1 may stay above it); running out of
    flow_max_iter first raises ConvergenceError.  The state is returned
    unfinished (family_sweep finishes it).  Beyond a potential-dependent
    penalty ceiling the functional has no nonvacuum minimizer: the
    descent slides toward the vacuum along the soliton family until J
    stalls, and the returned residuals reflect the drift.
    """
    opts = opts or SolveOptions()
    if delta < 0:
        raise ValueError("penalty weight delta must be nonnegative")
    u = np.array(u, dtype=float)
    theta = np.array(theta, dtype=float)
    u[-1] = 0.0
    charge0 = float(np.dot(grid.w, theta * u))
    if not np.any(u) or charge0 == 0.0:
        raise ValueError("initial state must carry nonzero charge")
    branch = 1.0 if charge0 > 0 else -1.0
    if branch < 0:
        theta = -theta

    # mass-form preconditioner diag(wt) (-lap + m^2), symmetric positive
    # definite since the axis node carries its cell volume as weight
    lower, diag, upper = grid.lap_bands
    wt = grid.wt
    precondition = _tridiagonal_lu(wt * (-lower), wt * (-diag + spec.m ** 2),
                                   wt * (-upper))

    energy, charge, e_field, lap = _flow_energy(spec, q, grid, u, theta)
    cost = energy / charge + delta * energy * energy
    floor = CHARGE_FLOOR * charge
    step = 1.0
    iters = 0
    stopped = False
    for iters in range(1, opts.flow_max_iter + 1):
        # the charge stays positive here, so this is J's gradient as is
        g_u, g_th = _j_grad(spec, q, grid, delta, u, theta,
                            energy, charge, e_field, lap)
        dir_u = -precondition(g_u)
        dir_u[-1] = 0.0
        dir_th = -g_th / wt
        t = step
        accepted = False
        hit_floor = False
        for _ in range(20):
            un = u + t * dir_u
            thn = theta + t * dir_th
            en, cn, fn, lapn = _flow_energy(spec, q, grid, un, thn)
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
        stalled = cost - cost_n < FLOW_TOL * (1.0 + abs(cost_n))
        u, theta, cost = un, thn, cost_n
        energy, charge, e_field, lap = en, cn, fn, lapn
        step = min(2.0 * t, 64.0)
        if iters % 25 == 0 or stalled:
            omega_fit, phi_pos = _fit_omega(q, grid, u, theta, e_field)
            F = _residual(spec, omega_fit, q, grid, u, -phi_pos)
            stopped = stalled or (np.sqrt(grid.w @ F[:, 0] ** 2)
                                  < opts.flow_res_tol)
            if stopped:
                break

    omega_fit, phi_pos = _fit_omega(q, grid, u, theta, e_field)
    fit_num = grid.integrate((theta - (omega_fit + q * phi_pos) * u) ** 2)
    fit_den = grid.integrate(theta * theta)
    fit_residual = float(np.sqrt(fit_num / fit_den)) if fit_den > 0 else np.inf
    # mirror onto the canonical branch: theta, phi, and E all flip sign
    phi = -phi_pos
    res1, res2 = np.sqrt(
        grid.w @ _residual(spec, omega_fit, q, grid, u, phi) ** 2)
    if not stopped:
        raise ConvergenceError(
            f"descent stopped after {iters} iterations, res1={res1:.6g} "
            f"res2={res2:.6g} above flow_res_tol={opts.flow_res_tol:g}")
    return _assemble(spec, omega_fit, q, grid, u, phi, res1, res2,
                     delta=delta, fit_residual=fit_residual, flow_iters=iters)


def _fit_omega(q, grid, u, theta, e_field):
    """Multiplier from theta = (omega + q phi) u on the positive branch."""
    phi_pos = potential_from_field(e_field, grid)
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
    """Continuation over omega (direct route), or independent delta points
    (descent route).

    An omega point warm-starts from its predecessor's u and falls back to
    a cold solve; the Newton forgets the start to roundoff.  A descent
    stops where J stalls, which depends on its start, so every delta
    point starts from descent_seed.  A descent point whose fitted omega
    is outside (0, m) fails as no bound state; otherwise solve_profile
    finishes it at that omega from its u.  Every point meets tol or
    fails; failures are recorded per point, not raised.
    """
    opts = opts or SolveOptions()
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
                except ConvergenceError:
                    if prev is None:
                        raise
                    prof = solve_profile(spec, val, q, grid, opts)
            else:
                flow = minimize_J(spec, q, grid, val,
                                  *descent_seed(spec, grid), opts=opts)
                if not 0.0 < flow.omega < spec.m:
                    raise ConvergenceError(
                        f"descent fitted omega={flow.omega:.6g} outside "
                        f"(0, m={spec.m:g})")
                prof = dataclasses.replace(
                    solve_profile(spec, flow.omega, q, grid, opts,
                                  init_u=flow.state.u),
                    delta=flow.delta, fit_residual=flow.fit_residual,
                    flow_iters=flow.flow_iters)
        except (ValueError, ConvergenceError, ChargeCollapseError) as exc:
            profiles.append(None)
            failures.append((val, str(exc)))
            prev = None
            continue
        profiles.append(prof)
        prev = prof.state.u
    return FamilySweepResult(parameter=parameter, values=values,
                             profiles=profiles, failures=failures, q=q)
