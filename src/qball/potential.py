"""Scalar potentials W(s) = (m^2/2) s^2 + N(s) and their admissibility checks.

A potential enters the rest of the stack only through scalar callables
(W, W', W'', N, N', and the regularized quotient W'(s)/s used by the
complex-field evolution), each a polynomial evaluation.  Four structural
conditions are certified exactly from the coefficients of W'(s)/s, with
no sampling, positivity and hylomorphy from the minimum of the
polynomial alpha(s)^2 = 2 W(s)/s^2 on (0, s_max]:

* positivity:    W(s) >= 0 on [0, s_max],
* nondegeneracy: W''(0) = m^2, read exactly off the polynomial,
* hylomorphy:    alpha(s) = sqrt(2 W(s))/s dips below m somewhere, which
  yields witnesses (alpha, s_bar) with W(s_bar) <= alpha^2 s_bar^2 / 2,
* growth:        |N'(s)| <= a s^(p-1) + b s^(2-2/p) on all s > 0 for the
  declared exponent p, with (a, b) from weighted AM-GM on each monomial.

The hylomorphy witnesses (alpha, s_bar) parametrize the explicit trial
states and the coupling-threshold search in the ``hylomorphy`` module.
"""

import dataclasses
import functools

import numpy as np

DEFAULT_ALPHA_MIN = 0.05


class AdmissibilityError(ValueError):
    """A structural assumption on W failed; .assumption names which one."""

    def __init__(self, assumption, message):
        super().__init__(message)
        self.assumption = assumption


# the config keys each preset reads (s_bar also scales the descent seed)
PRESET_KEYS = {"double_well": ("m", "s_bar"), "pure_mass": ("m", "s_bar"),
               "poly46": ("m", "s_bar", "a", "b")}


def _poly(k, coeffs):
    """(k', g, c) with s^k sum_j coeffs_j s^j = s^k' sum_j c_j s^(g j), zero
    end terms moved into k' and g = 2 when only even offsets are left."""
    c = list(coeffs)
    while c and c[-1] == 0.0:
        c.pop()
    while c and c[0] == 0.0:
        c.pop(0)
        k += 1
    g = 2 if len(c) > 1 and not any(c[1::2]) else 1
    return k if c else 0, g, tuple(c[::g])


def _horner(poly, s):
    """s^k (c_0 + c_1 x + ... + c_d x^d), x = s^g, by Horner's rule."""
    k, g, c = poly
    s = np.asarray(s, dtype=float)
    if len(c) < 2:
        acc = np.full_like(s, c[0] if c else 0.0)
    else:
        x = s * s if g == 2 else s
        acc = c[-1] * x
        for cj in c[-2:0:-1]:
            acc += cj
            acc *= x
        acc += c[0]
    for _ in range(k):
        acc *= s
    return acc


@dataclasses.dataclass(frozen=True)
class PotentialSpec:
    """Immutable potential descriptor: preset name, mass, coefficients.

    Presets, each a polynomial W(s) = (m^2/2) s^2 + N(s):
      double_well: W = (m^2/2) s^2 (1 - s/s_bar)^2
      pure_mass:   W = (m^2/2) s^2                 (no binding possible)
      poly46:      W = (m^2/2) s^2 - (a/4) s^4 + (b/6) s^6

    Only the constructor reads the preset name.  It keeps W'(s)/s =
    m^2 + c_1 s + ... as coeffs, the field scale as s_scale (s_bar for
    double_well, sqrt(3a/(2b)) for poly46 with a, b > 0, else 1), and
    binds w, wp, wpp, n, nprime and wp_over_s, vectorized, to one Horner
    evaluation each of W, W', W'', N, N' and W'/s (N = 0 for pure_mass).
    The declared growth exponent is growth_p = max(4, deg W).
    """

    name: str
    m: float = 1.0
    s_bar: float = 1.0   # double_well plateau scale; descent seed amplitude
    a: float = 0.0       # poly46 quartic coefficient
    b: float = 0.0       # poly46 sextic coefficient

    def __post_init__(self):
        if self.m <= 0:
            raise ValueError("mass parameter must be positive")
        if self.name not in PRESET_KEYS:
            raise ValueError(f"unknown potential preset {self.name!r}")
        m2, scale = self.m ** 2, 1.0
        if self.name == "double_well":
            if self.s_bar <= 0:
                raise ValueError("double_well needs s_bar > 0")
            # m^2 (1 - x)(1 - 2x) with x = s/s_bar
            coeffs = (m2, -3.0 * m2 / self.s_bar, 2.0 * m2 / self.s_bar ** 2)
            scale = self.s_bar
        elif self.name == "poly46":
            coeffs = (m2, 0.0, -self.a, 0.0, self.b)
            if self.a > 0 and self.b > 0:
                scale = float(np.sqrt(1.5 * self.a / self.b))
        else:
            coeffs = (m2,)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "s_scale", scale)
        deg_w = 2 + max(j for j, cj in enumerate(coeffs) if cj)
        object.__setattr__(self, "growth_p", float(max(4, deg_w)))
        nl = coeffs[1:]        # N'(s) = s^2 (c_1 + c_2 s + ...)
        for name, k, c in (
                ("wp_over_s", 0, coeffs), ("wp", 1, coeffs),
                ("wpp", 0, [(j + 1) * cj for j, cj in enumerate(coeffs)]),
                ("w", 2, [cj / (j + 2) for j, cj in enumerate(coeffs)]),
                ("nprime", 2, nl),
                ("n", 3, [cj / (j + 3) for j, cj in enumerate(nl)])):
            object.__setattr__(self, name,
                               functools.partial(_horner, _poly(k, c)))


def default_potential():
    return PotentialSpec("double_well")


@dataclasses.dataclass
class AdmissibilityReport:
    positivity: bool
    nondegenerate: bool
    hylomorphy: bool
    growth: str                  # "marginal" for p = 6, else "pass"
    s_bar: float | None
    alpha: float | None
    growth_a: float              # |N'| <= a s^(p-1) + b s^(2-2/p) on s > 0
    growth_b: float
    small_s_coeff: float         # max |N'(s)/s| on (0, 0.1 s_scale]
    s_max: float

    @property
    def admissible(self):
        """check-potential verdict: all conditions hold (growth always does)."""
        return self.positivity and self.nondegenerate and self.hylomorphy

    def as_dict(self):
        return dataclasses.asdict(self)


def _real_roots(coeffs, lo, hi):
    """Real roots in (lo, hi] of sum_j coeffs_j s^j, by np.roots."""
    s = np.roots(np.asarray(coeffs, dtype=float)[::-1])
    return s.real[(s.imag == 0.0) & (s.real > lo) & (s.real <= hi)]


def _binding_minimum(spec):
    """(s*, P(s*)) minimizing P(s) = alpha(s)^2 = 2 W(s)/s^2 on (0, s_max]:
    P = sum_j 2 c_j s^j/(j+2) in the coefficients c_j of W'(s)/s, so s*
    is s_max = 10 s_scale or a real root of P'."""
    s_max = 10.0 * spec.s_scale
    dp = [2.0 * j * cj / (j + 2) for j, cj in enumerate(spec.coeffs)]
    s = np.append(_real_roots(dp[1:], 0.0, s_max), s_max)
    p = 2.0 * spec.w(s) / (s * s)
    k = int(np.argmin(p))
    return float(s[k]), float(p[k])


def check_admissibility(spec):
    """Certify the four structural conditions on W.

    Returns an AdmissibilityReport; never raises for a merely inadmissible
    potential (flags carry the verdicts).  Positivity is P(s*) >= -1e-12
    and hylomorphy P(s*) < m^2 at the exact minimum of _binding_minimum,
    whose s* is the witness s_bar, with alpha = sqrt(P(s*)) clipped from
    below at DEFAULT_ALPHA_MIN.  The growth bound of _growth_constants
    always exists, so the verdict follows from p: a sextic W tops out
    exactly at the excluded exponent p = 6 and is "marginal", any other W
    "pass".  small_s_coeff is the maximum of |N'(s)/s| =
    |sum_{j>=1} c_j s^j| on (0, h], h = 0.1 s_scale, taken at h or at a
    real root of its derivative.  Nothing is sampled.
    """
    s_star, p_star = _binding_minimum(spec)
    hylomorphy = p_star < spec.m ** 2
    nondegenerate = bool(abs(spec.wpp(0.0) - spec.m ** 2) <= 1e-6 * spec.m ** 2)
    ga, gb = _growth_constants(spec)
    h = 0.1 * spec.s_scale
    ds = [j * cj for j, cj in enumerate(spec.coeffs)][1:]
    s = np.append(_real_roots(ds, 0.0, h), h)
    return AdmissibilityReport(
        positivity=p_star >= -1e-12, nondegenerate=nondegenerate,
        hylomorphy=hylomorphy,
        growth="marginal" if spec.growth_p == 6.0 else "pass",
        s_bar=s_star if hylomorphy else None,
        alpha=(max(float(np.sqrt(max(p_star, 0.0))), DEFAULT_ALPHA_MIN)
               if hylomorphy else None),
        growth_a=ga, growth_b=gb,
        small_s_coeff=float(np.max(np.abs(spec.nprime(s)) / s)),
        s_max=10.0 * spec.s_scale)


def _growth_constants(spec):
    """(a, b) with |N'(s)| <= a s^(p-1) + b s^(2-2/p) for every s > 0.

    N'(s) = sum_{j>=1} c_j s^k with k = j + 1 in [2 - 2/p, p - 1], so
    weighted AM-GM gives s^k <= t s^(p-1) + (1 - t) s^(2-2/p) with
    t = (k - 2 + 2/p) / (p - 3 + 2/p) = (p (k - 2) + 2) / ((p - 1)(p - 2)),
    and a = sum t |c_j|, b = sum (1 - t) |c_j|.
    """
    p = spec.growth_p
    terms = [((p * (j - 1) + 2.0) / ((p - 1.0) * (p - 2.0)), abs(cj))
             for j, cj in enumerate(spec.coeffs) if j]
    return (float(sum(t * c for t, c in terms)),
            float(sum((1.0 - t) * c for t, c in terms)))


@functools.cache
def hylomorphy_constants(spec):
    """The binding witnesses (alpha, s_bar), W(s_bar) <= alpha^2 s_bar^2 / 2.

    One rule: s_bar is s* of _binding_minimum, as in check_admissibility,
    and alpha maximizes (m - alpha)^3 alpha over the feasible alphas
    (those above sqrt(P(s*)) and DEFAULT_ALPHA_MIN), which is m/4 whenever
    m/4 is feasible.  The pair is a property of the potential, so it is
    computed once per spec.

    Raises AdmissibilityError("hylomorphy") when no alpha < m exists.
    """
    s_bar, p_star = _binding_minimum(spec)
    if not p_star < spec.m ** 2:
        raise AdmissibilityError(
            "hylomorphy", "no alpha in (0, m) with W(s) <= alpha^2 s^2 / 2")
    # (m - alpha)^3 alpha peaks at alpha = m/4 and decreases beyond,
    # so the best feasible alpha is m/4 or the curve minimum above it.
    best = max(spec.m / 4.0, float(np.sqrt(max(p_star, 0.0))), DEFAULT_ALPHA_MIN)
    if not best < spec.m:
        raise AdmissibilityError("hylomorphy", "feasible alpha window is empty")
    return best, s_bar
