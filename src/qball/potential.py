"""Scalar potentials W(s) = (m^2/2) s^2 + N(s) and their admissibility checks.

A potential enters the rest of the stack only through scalar callables
(W, W', W'', N, N', and the regularized quotient W'(s)/s used by the
complex-field evolution), each a polynomial evaluation.  Four structural
conditions are certified, three of them numerically on a sample range:

* positivity:    W(s) >= 0 on [0, s_max],
* nondegeneracy: W''(0) = m^2, read exactly off the polynomial,
* hylomorphy:    alpha(s) = sqrt(2 W(s))/s dips below m somewhere, which
  yields witnesses (alpha, s_bar) with W(s_bar) <= alpha^2 s_bar^2 / 2,
* growth:        |N'(s)| <= a s^(p-1) + b s^(2-2/p) for the declared
  exponent p, fitted for the smallest feasible a + b.

The hylomorphy witnesses (alpha, s_bar) parametrize the explicit trial
states and the coupling-threshold search in the ``hylomorphy`` module.
"""

import dataclasses
import functools

import numpy as np
from scipy.optimize import linprog

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


def default_potential(m=1.0, s_bar=1.0):
    return PotentialSpec("double_well", m=m, s_bar=s_bar)


def evaluate(spec, s):
    """Return (W, W', N, N') at s >= 0; negative s is rejected."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise ValueError("potential evaluated at negative field value")
    return spec.w(s), spec.wp(s), spec.n(s), spec.nprime(s)


@dataclasses.dataclass
class AdmissibilityReport:
    positivity: bool
    nondegenerate: bool
    hylomorphy: bool
    growth: str                  # "pass", "marginal", or "fail"
    s_bar: float | None
    alpha: float | None
    growth_a: float | None
    growth_b: float | None
    small_s_coeff: float         # recorded plain |N'(s)| <= c*s fit near 0
    s_max: float
    n_samples: int

    @property
    def admissible(self):
        """check-potential verdict: all conditions hold, growth marginal at worst."""
        return (self.positivity and self.nondegenerate and self.hylomorphy
                and self.growth in ("pass", "marginal"))

    def as_dict(self):
        return dataclasses.asdict(self)


def _alpha_curve(spec, s):
    """alpha(s) = sqrt(2 W(s))/s on s > 0 (the binding-ratio curve)."""
    w = np.maximum(spec.w(s), 0.0)
    return np.sqrt(2.0 * w) / s


def check_admissibility(spec, s_max=None):
    """Sample-based certification of the four structural conditions on W.

    Returns an AdmissibilityReport; never raises for a merely inadmissible
    potential (flags carry the verdicts).  W is sampled at 2001 points of
    [0, s_max].  The hylomorphy witnesses are the grid argmin of alpha(s),
    with alpha clipped from below at DEFAULT_ALPHA_MIN.
    """
    if s_max is None:
        s_max = 10.0 * spec.s_scale
    if s_max <= 0:
        raise ValueError("s_max must be positive")

    s = np.linspace(0.0, s_max, 2001)
    w = spec.w(s)
    positivity = bool(np.all(w >= -1e-12))

    nondegenerate = bool(abs(spec.wpp(0.0) - spec.m ** 2) <= 1e-6 * spec.m ** 2)

    sp = s[1:]
    alpha = _alpha_curve(spec, sp)
    k = int(np.argmin(alpha))
    hylomorphy = bool(alpha[k] < spec.m)
    s_bar = float(sp[k]) if hylomorphy else None
    alpha_witness = float(max(alpha[k], DEFAULT_ALPHA_MIN)) if hylomorphy else None

    growth, ga, gb = _fit_growth(spec, sp)

    small = sp[sp <= 0.1 * spec.s_scale]
    small_s_coeff = float(np.max(np.abs(spec.nprime(small)) / small)) if small.size else 0.0

    return AdmissibilityReport(
        positivity=positivity, nondegenerate=nondegenerate,
        hylomorphy=hylomorphy, growth=growth,
        s_bar=s_bar, alpha=alpha_witness,
        growth_a=ga, growth_b=gb, small_s_coeff=small_s_coeff,
        s_max=float(s_max), n_samples=s.size)


def _fit_growth(spec, s):
    """Smallest feasible (a, b) with |N'(s_i)| <= a s_i^(p-1) + b s_i^(2-2/p).

    Linear program minimizing a + b subject to the sampled inequalities.
    A sextic W tops out exactly at the excluded exponent p = 6, so it is
    reported "marginal" even when the bounded-range fit succeeds.
    """
    p = spec.growth_p
    target = np.abs(spec.nprime(s))
    if np.max(target) == 0.0:
        return "pass", 0.0, 0.0
    basis = np.column_stack([s ** (p - 1.0), s ** (2.0 - 2.0 / p)])
    res = linprog(c=[1.0, 1.0], A_ub=-basis, b_ub=-target,
                  bounds=[(0, None), (0, None)], method="highs")
    if not res.success:
        return "fail", None, None
    verdict = "marginal" if p == 6.0 else "pass"
    return verdict, float(res.x[0]), float(res.x[1])


def hylomorphy_constants(spec, alpha_policy="max_threshold",
                         alpha_min=DEFAULT_ALPHA_MIN):
    """Pick binding witnesses (alpha, s_bar) with W(s_bar) <= alpha^2 s_bar^2 / 2.

    The alpha curve is sampled at 4000 points of (0, 10 s_scale].

    min_ratio:     s_bar minimizes alpha(s); alpha is that minimum, floored
                   at alpha_min.
    max_threshold: alpha maximizes (m - alpha)^3 alpha over the feasible
                   alphas (those above the curve minimum), which is m/4
                   whenever m/4 is feasible; s_bar is the curve argmin.

    Raises AdmissibilityError("hylomorphy") when no alpha < m exists.
    """
    s = np.linspace(0.0, 10.0 * spec.s_scale, 4001)[1:]
    alpha = _alpha_curve(spec, s)
    k = int(np.argmin(alpha))
    alpha_floor_of_curve = float(alpha[k])
    s_bar = float(s[k])
    if not alpha_floor_of_curve < spec.m:
        raise AdmissibilityError(
            "hylomorphy", "no alpha in (0, m) with W(s) <= alpha^2 s^2 / 2")

    if alpha_policy == "min_ratio":
        return max(alpha_floor_of_curve, alpha_min), s_bar
    if alpha_policy == "max_threshold":
        # (m - alpha)^3 alpha peaks at alpha = m/4 and decreases beyond,
        # so the best feasible alpha is m/4 or the curve minimum above it.
        best = max(spec.m / 4.0, alpha_floor_of_curve, alpha_min)
        if not best < spec.m:
            raise AdmissibilityError("hylomorphy", "feasible alpha window is empty")
        return best, s_bar
    raise ValueError(f"unknown alpha_policy {alpha_policy!r}")
