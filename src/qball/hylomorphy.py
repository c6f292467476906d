"""Explicit trial states, their closed-form ratios, and the coupling threshold.

The trial profile is a plateau of height s_bar out to radius R with a
linear ramp to zero on [R, R+1], carrying theta = alpha u (Coleman's
thin-wall ansatz).  The witnesses (alpha, s_bar) come from
potential.hylomorphy_constants and the radii from DEFAULT_R_LIST capped
at r_max - 1, so every sweep takes only (spec, q, r_max).  Its integrals
are closed-form, with no grid: plateau terms are monomials in R, ramp
terms 8-point Gauss-Legendre sums, and the exterior field adds
Q(R+1)^2/(R+1).  The Coulomb field and energy are in program units, as
the Gauss-law helpers of fields: E_r = q alpha Q(r)/r^2 and
(1/2) int E_r^2 4 pi r^2 dr.  The field is linear in q, so the ratio is
exactly E/|C| = A_R + q^2 B_R, and it obeys

    E/|C| <= alpha + c1/(alpha R) + c6 q^2 alpha s_bar^2 R^2,

with c1 and c6 fitted on the exact A_R and B_R as the smallest constants
that make it tight over the R list and CALIBRATION_Q.  A ratio below the
mass m certifies that bound states are energetically possible.  The
coupling threshold q_bar is in closed form, alongside the analytic scale
(c/s_bar) sqrt((m-alpha)^3 alpha) that the constants imply through
R = c1/(alpha eps), eps = (m-alpha)/2.  build_test_state samples the
same state on a grid; its (u, theta) can start a descent.
"""

import dataclasses
import functools

import numpy as np

from .fields import FOUR_PI, FieldState, solve_poisson
from .potential import hylomorphy_constants

DEFAULT_R_LIST = (2.0, 5.0, 10.0, 20.0, 40.0)
# q = 0 needs no calibration: c1 alone bounds it
CALIBRATION_Q = (1e-3, 1e-2)
# ratio margin, in units of m, by which the threshold bracket must clear m;
# well above the roundoff of A_R + q^2 B_R
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
        _, state.E_r = solve_poisson(-p.q * theta * u, grid)
    return state


def _gauss(f, lo, hi):
    """int_lo^hi f(v) dv by the 8-point Gauss-Legendre rule, exact up to
    degree 15; hi may be an array."""
    half = 0.5 * (np.asarray(hi, dtype=float) - lo)
    mid = lo + half
    v = mid[..., None] + half[..., None] * _GL_X
    return half * (f(v) @ _GL_W)


def _enclosed(p, r):
    """Q(r) = int_0^r u^2 v^2 dv of the trial state, for r >= R.

    The plateau gives s_bar^2 R^3 / 3; the ramp integrand is a quartic.
    Accepts scalar or array r.
    """
    ramp = _gauss(lambda v: p.s_bar ** 2 * (p.R + 1.0 - v) ** 2 * v * v,
                  p.R, np.minimum(r, p.R + 1.0))
    return p.s_bar ** 2 * p.R ** 3 / 3.0 + ramp


def exact_coulomb_field(p, r):
    """|E_r|(r) = q alpha Q(r) / r^2 of the trial state.

    Inside the plateau this is exactly q alpha s_bar^2 r / 3; across the
    ramp the remaining quartic integral is evaluated by quadrature.
    """
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    out = np.zeros_like(r)
    inside = r <= p.R
    out[inside] = p.q * p.alpha * p.s_bar ** 2 * r[inside] / 3.0
    rest = ~inside
    if np.any(rest):
        out[rest] = p.q * p.alpha * _enclosed(p, r[rest]) / r[rest] ** 2
    return float(out[0]) if scalar else out


def _coulomb_integral(p):
    """int_0^inf Q(r)^2 / r^2 dr of the trial state.

    The plateau gives s_bar^4 R^5 / 45 and the exterior Q(R+1)^2 / (R+1);
    the ramp integrand is rational, and the 8-point rule meets it at
    roundoff for R > 1.
    """
    ramp = _gauss(lambda v: _enclosed(p, v) ** 2 / (v * v), p.R, p.R + 1.0)
    return float(p.s_bar ** 4 * p.R ** 5 / 45.0 + ramp
                 + _enclosed(p, p.R + 1.0) ** 2 / (p.R + 1.0))


def coulomb_energy(p):
    """(1/2) int E_r^2 4 pi r^2 dr of the trial state, exterior included.

    With the field of exact_coulomb_field this is
    2 pi (q alpha)^2 int_0^inf Q^2/r^2 dr.
    """
    return 0.5 * FOUR_PI * (p.q * p.alpha) ** 2 * _coulomb_integral(p)


def ratio_bound(alpha, s_bar, q, R, c1, c6):
    """Closed-form upper estimate alpha + c1/(alpha R) + c6 q^2 alpha s_bar^2 R^2."""
    return alpha + c1 / (alpha * R) + c6 * q * q * alpha * s_bar ** 2 * R * R


def _trial_functionals(spec, p):
    """(E at q = 0, C, Coulomb energy per q^2) of the trial state p.

    E = 4 pi int (alpha^2 u^2/2 + u'^2/2 + W(u)) r^2 dr and
    C = 4 pi alpha int u^2 r^2 dr; the Coulomb energy per q^2 is
    coulomb_energy at q = 1.
    """
    R, s_bar, alpha = p.R, p.s_bar, p.alpha
    mass = float(_enclosed(p, R + 1.0))
    grad = s_bar ** 2 * ((R + 1.0) ** 3 - R ** 3) / 3.0
    pot = spec.w(s_bar) * R ** 3 / 3.0 + _gauss(
        lambda v: spec.w(s_bar * (R + 1.0 - v)) * v * v, R, R + 1.0)
    energy = FOUR_PI * (0.5 * alpha ** 2 * mass + 0.5 * grad + float(pot))
    return (energy, FOUR_PI * alpha * mass,
            coulomb_energy(dataclasses.replace(p, q=1.0)))


@functools.cache
def _ratio_coefficients(spec, r_max):
    """((R, A_R, B_R), ...) with E/|C| = A_R + q^2 B_R for each trial radius.

    The witnesses come from hylomorphy_constants(spec) and the radii
    from DEFAULT_R_LIST capped at r_max - 1.  Memoized: the rows do not
    depend on q.
    """
    alpha, s_bar = hylomorphy_constants(spec)
    radii = sorted({min(R, r_max - 1.0) for R in DEFAULT_R_LIST})
    if radii[0] <= 1.0:
        raise ValueError("R sweep leaves no admissible radius")
    rows = []
    for R in radii:
        energy, charge, coulomb = _trial_functionals(
            spec, TestStateParams(s_bar, alpha, R))
        rows.append((R, energy / charge, coulomb / charge))
    return tuple(rows)


def ratio_sweep(spec, q, r_max):
    """Energy-to-charge ratio A_R + q^2 B_R of the trial state across the R sweep."""
    return [(R, a + q * q * b) for R, a, b in _ratio_coefficients(spec, r_max)]


def estimate_lambda_star(spec, q, r_max):
    """(min_R ratio, that R) over ratio_sweep: an upper bound on Lambda*.

    The sweep runs in R, so a tie keeps the first radius.
    """
    return min((ratio, R) for R, ratio in ratio_sweep(spec, q, r_max))


def calibrate_constants(spec, r_max):
    """Fit (c1, c6) as the maxima that make the ratio bound tight on the sweep.

    c1 bounds the q-independent excess alpha R (A_R - alpha); c6 then
    bounds the remaining Coulomb excess per q^2 alpha s_bar^2 R^2 over
    CALIBRATION_Q.  By construction every sweep point satisfies
    ratio <= bound.
    """
    alpha, s_bar = hylomorphy_constants(spec)
    rows = _ratio_coefficients(spec, r_max)
    c1 = max(alpha * R * (a - alpha) for R, a, _ in rows)
    c6 = 0.0
    for q in CALIBRATION_Q:
        for R, a, b in rows:
            excess = a + q * q * b - alpha - c1 / (alpha * R)
            c6 = max(c6, excess / (q * q * alpha * s_bar ** 2 * R * R))
    return c1, c6


def q_threshold(spec, r_max):
    """Closed-form coupling threshold for the verdict min_R E/|C| < m.

    The trial ratio is A_R + q^2 B_R, so the threshold is
    q_bar = max_R sqrt((m - A_R)/B_R).  Returns a HylomorphyReport whose
    bracket q_bar_est < q_bar < q_ceiling is verified by direct
    evaluation on both sides, with the calibrated (c1, c6) and the
    analytic threshold scale (c/s_bar) sqrt((m-alpha)^3 alpha) with
    c = 1/(c1 sqrt(8 c6)).  The ratio rows are built once per (spec, r_max).
    """
    alpha, s_bar = hylomorphy_constants(spec)
    c1, c6 = calibrate_constants(spec, r_max)
    _, a, b = np.array(_ratio_coefficients(spec, r_max)).T
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
    ratio, best_R = estimate_lambda_star(spec, q_lo, r_max)
    ceiling, _ = estimate_lambda_star(spec, q_hi, r_max)
    if not ratio < spec.m <= ceiling:
        raise InconsistentSetupError(
            f"closed-form threshold {q_bar:.17g} is not confirmed by the sweep")

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
