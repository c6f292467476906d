"""Explicit trial states, Coulomb estimates, and the coupling threshold.

The trial profile is a plateau of height s_bar out to radius R with a
linear ramp to zero on [R, R+1], carrying theta = alpha u.  The
witnesses (alpha, s_bar) are fixed per potential by
potential.hylomorphy_constants, and the radii R by DEFAULT_R_LIST capped
at r_max - 1, so every sweep here takes only (spec, q, grid).  The
energy-to-charge ratio obeys the closed-form estimate

    E/|C| <= alpha + c1/(alpha R) + c6 q^2 alpha s_bar^2 R^2,

where c1 and c6 are calibrated operationally as the smallest constants
that make the inequality tight over a reference (R, q) sweep.  Driving
the directly computed ratio below the mass parameter m certifies that
bound states are energetically possible.  The ratio is exactly quadratic
in q, which puts the coupling threshold q_bar in closed form, alongside
the analytic scale (c/s_bar) sqrt((m-alpha)^3 alpha) implied by the
calibrated constants through the optimal choice R = c1/(alpha eps),
eps = (m-alpha)/2.
"""

import dataclasses

import numpy as np

from .fields import FOUR_PI, FieldState, functionals, solve_poisson
from .potential import hylomorphy_constants

DEFAULT_R_LIST = (2.0, 5.0, 10.0, 20.0, 40.0)
CALIBRATION_Q = (0.0, 1e-3, 1e-2)
# ratio margin, in units of m, by which the threshold bracket must clear m;
# the sweep is quadratic in q to within 5e-14 on the presets measured
THRESHOLD_MARGIN = 1e-13

_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


class GridTooSmallError(ValueError):
    """Trial-state support R+1 does not fit inside the grid."""


class InconsistentSetupError(RuntimeError):
    """The threshold predicate failed already at q = 0."""


@dataclasses.dataclass(frozen=True)
class TestStateParams:
    __test__ = False  # keep pytest from collecting this as a test class

    s_bar: float
    alpha: float
    R: float
    q: float = 0.0

    def __post_init__(self):
        if not self.R > 1:
            raise ValueError("plateau radius must exceed 1")
        if self.s_bar <= 0 or self.alpha <= 0:
            raise ValueError("s_bar and alpha must be positive")
        if self.q < 0:
            raise ValueError("coupling must be nonnegative")


@dataclasses.dataclass
class HylomorphyReport:
    lambda0_bound: float       # the universal lower bound, = m
    best_ratio: float          # min over the R sweep of E/|C|
    best_R: float
    bound_at_best: float       # closed-form bound at the same R
    c1: float
    c6: float
    hylomorphic: bool          # best_ratio < m
    q_bar_est: float | None
    analytic_scale: float | None
    scale_c: float | None
    alpha: float
    s_bar: float
    q: float
    q_ceiling: float | None = None
    bisect_iters: int | None = None
    bisect_rel_width: float | None = None


def build_test_state(p, grid):
    """Plateau-plus-ramp trial state with theta = alpha u, Gauss-consistent E_r."""
    if p.R + 1.0 > grid.r_max:
        raise GridTooSmallError(f"need r_max >= R+1 = {p.R + 1.0}, have {grid.r_max}")
    if grid.dr > 0.1:
        raise ValueError("grid too coarse to resolve the unit transition layer")
    u = p.s_bar * np.clip(p.R + 1.0 - grid.r, 0.0, 1.0)
    theta = p.alpha * u
    state = FieldState.zero(grid, q=p.q)
    state.u = u
    state.theta = theta
    if p.q != 0.0:
        # div E = -q theta u, so the Poisson source is -q alpha u^2
        phi, dphi = solve_poisson(-p.q * theta * u, grid)
        state.E_r = -dphi
    return state


def _ramp_integral(p, r_hi):
    """int_R^{min(r_hi, R+1)} s_bar^2 (R+1-v)^2 v^2 dv by 8-point quadrature.

    The integrand is a quartic polynomial, for which the rule is exact.
    Accepts scalar or array r_hi.
    """
    hi = np.minimum(np.asarray(r_hi, dtype=float), p.R + 1.0)
    half = 0.5 * (hi - p.R)
    mid = p.R + half
    v = mid[..., None] + half[..., None] * _GL_X
    f = p.s_bar ** 2 * (p.R + 1.0 - v) ** 2 * v * v
    return half * (f @ _GL_W)


def exact_coulomb_field(p, r):
    """|grad phi|(r) of the trial state, as 4 pi q alpha int_0^r u^2 v^2 dv / r^2.

    Inside the plateau this is exactly (4/3) pi q alpha s_bar^2 r; across
    the ramp the remaining quartic integral is evaluated by quadrature.
    """
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    out = np.zeros_like(r)
    inside = r <= p.R
    out[inside] = FOUR_PI / 3.0 * p.q * p.alpha * p.s_bar ** 2 * r[inside]
    rest = ~inside
    if np.any(rest):
        plateau = p.s_bar ** 2 * p.R ** 3 / 3.0
        cel = FOUR_PI * p.q * p.alpha * (plateau + _ramp_integral(p, r[rest]))
        out[rest] = cel / r[rest] ** 2
    return float(out[0]) if scalar else out


def coulomb_energy(p, grid):
    """int |grad phi|^2 4 pi r^2 dr of the trial state, in the 4 pi field convention.

    Grid quadrature out to r_max plus the closed-form Coulomb tail beyond
    (the exterior contributes at the same order in R as the interior, so
    truncating it would bias the scaling exponent).
    """
    if p.R + 1.0 > grid.r_max:
        raise GridTooSmallError(f"need r_max >= R+1 = {p.R + 1.0}, have {grid.r_max}")
    f = exact_coulomb_field(p, grid.r)
    inner = grid.integrate(f * f)
    cel_inf = FOUR_PI * p.q * p.alpha * (p.s_bar ** 2 * p.R ** 3 / 3.0
                                         + float(_ramp_integral(p, p.R + 1.0)))
    tail = FOUR_PI * cel_inf ** 2 / grid.r_max
    return inner + tail


def ratio_bound(alpha, s_bar, q, R, c1, c6):
    """Closed-form upper estimate alpha + c1/(alpha R) + c6 q^2 alpha s_bar^2 R^2."""
    return alpha + c1 / (alpha * R) + c6 * q * q * alpha * s_bar ** 2 * R * R


def coulomb_tail(state):
    """Closed-form exterior Coulomb energy (1/2) int_{r_max}^inf E^2 4 pi r^2 dr.

    Outside the grid the field is Q/r^2 with Q read off the boundary
    node.  The trial field decays that slowly by construction, so the
    truncated exterior carries a fixed fraction of the Coulomb energy
    and dropping it would bias every q-dependent quantity.
    """
    return 0.5 * FOUR_PI * state.grid.r_max ** 3 * state.E_r[-1] ** 2


def ratio_sweep(spec, q, grid):
    """Energy-to-charge ratio of the trial state across the R sweep.

    The witnesses come from hylomorphy_constants(spec) and the radii
    from DEFAULT_R_LIST capped at r_max - 1.  The energy is the grid
    functional plus the exterior Coulomb tail.
    """
    alpha, s_bar = hylomorphy_constants(spec)
    radii = sorted({min(R, grid.r_max - 1.0) for R in DEFAULT_R_LIST})
    if radii[0] <= 1.0:
        raise ValueError("R sweep leaves no admissible radius")
    rows = []
    for R in radii:
        state = build_test_state(TestStateParams(s_bar, alpha, R, q), grid)
        f = functionals(state, spec)
        rows.append((R, (f.energy + coulomb_tail(state)) / abs(f.charge)))
    return rows


def estimate_lambda_star(spec, q, grid):
    """Best (smallest) trial ratio over the R sweep: an upper bound on Lambda*."""
    best_R, best = min(ratio_sweep(spec, q, grid), key=lambda t: t[1])
    return best, best_R


def calibrate_constants(spec, grid):
    """Fit (c1, c6) as the maxima that make the ratio bound tight on the sweep.

    c1 bounds the q-independent excess alpha R (ratio - alpha) at q = 0;
    c6 then bounds the remaining Coulomb excess per q^2 alpha s_bar^2 R^2.
    By construction every sweep point satisfies ratio <= bound.
    """
    alpha, s_bar = hylomorphy_constants(spec)
    base = dict(ratio_sweep(spec, 0.0, grid))
    c1 = max(alpha * R * (ratio - alpha) for R, ratio in base.items())
    c6 = 0.0
    for q in CALIBRATION_Q:
        if q == 0.0:
            continue
        for R, ratio in ratio_sweep(spec, q, grid):
            excess = ratio - alpha - c1 / (alpha * R)
            c6 = max(c6, excess / (q * q * alpha * s_bar ** 2 * R * R))
    return c1, c6


def q_threshold(spec, grid):
    """Closed-form coupling threshold for the verdict min_R E/|C| < m.

    The Coulomb field of a trial state is linear in q, so its ratio is
    exactly A_R + q^2 B_R, with A_R read off a q = 0 sweep and B_R off a
    q = 1 sweep; the threshold is q_bar = max_R sqrt((m - A_R)/B_R).
    Returns a HylomorphyReport whose bracket q_bar_est < q_bar < q_ceiling
    is verified by direct evaluation on both sides, with the calibrated
    (c1, c6) and the analytic threshold scale (c/s_bar)
    sqrt((m-alpha)^3 alpha) with c = 1/(c1 sqrt(8 c6)).
    """
    alpha, s_bar = hylomorphy_constants(spec)
    c1, c6 = calibrate_constants(spec, grid)
    a = np.array(ratio_sweep(spec, 0.0, grid))[:, 1]
    b = np.array(ratio_sweep(spec, 1.0, grid))[:, 1] - a
    if not a.min() < spec.m:
        raise InconsistentSetupError(
            f"trial ratio {a.min():.6g} is not below m even at q = 0")
    reach = np.where(a < spec.m, (spec.m - a) / b, -np.inf)
    k = int(np.argmax(reach))
    q_bar = float(np.sqrt(reach[k]))
    # step off q_bar far enough that the ratio clears m by a margin well
    # above the roundoff of the sweep (its slope in q_bar is 2 (m - A_R))
    eps = THRESHOLD_MARGIN * spec.m / (2.0 * (spec.m - a[k]))
    q_lo, q_hi = q_bar * (1.0 - eps), q_bar * (1.0 + eps)
    ratio, best_R = estimate_lambda_star(spec, q_lo, grid)
    ceiling, _ = estimate_lambda_star(spec, q_hi, grid)
    if not ratio < spec.m <= ceiling:
        raise InconsistentSetupError(
            f"closed-form threshold {q_bar:.17g} is not confirmed by the "
            "sweep; the trial ratio is not quadratic in q")

    scale_c = 1.0 / (c1 * np.sqrt(8.0 * c6)) if c6 > 0 else None
    analytic = (scale_c / s_bar * np.sqrt((spec.m - alpha) ** 3 * alpha)
                if scale_c is not None else None)
    return HylomorphyReport(
        lambda0_bound=spec.m, best_ratio=ratio, best_R=best_R,
        bound_at_best=ratio_bound(alpha, s_bar, q_lo, best_R, c1, c6),
        c1=c1, c6=c6, hylomorphic=True,
        q_bar_est=q_lo, analytic_scale=analytic, scale_c=scale_c,
        alpha=alpha, s_bar=s_bar, q=q_lo, q_ceiling=q_hi,
        bisect_iters=0, bisect_rel_width=(q_hi - q_lo) / q_hi)
