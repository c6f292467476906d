"""Scalar potentials W(s) = (m^2/2) s^2 + N(s) and their admissibility checks.

A potential enters the rest of the stack only through scalar callables
(W, W', W'', N, N', and the regularized quotient W'(s)/s used by the
complex-field evolution).  Four structural conditions are certified
numerically on a sample range:

* positivity:    W(s) >= 0 on [0, s_max],
* nondegeneracy: W''(0) = m^2,
* hylomorphy:    alpha(s) = sqrt(2 W(s))/s dips below m somewhere, which
  yields witnesses (alpha, s_bar) with W(s_bar) <= alpha^2 s_bar^2 / 2,
* growth:        |N'(s)| <= a s^(p-1) + b s^(2-2/p) for the declared
  exponent p, fitted for the smallest feasible a + b.

The hylomorphy witnesses (alpha, s_bar) parametrize the explicit trial
states and the coupling-threshold search in the ``hylomorphy`` module.
"""

import dataclasses

import numpy as np
from scipy.optimize import linprog

DEFAULT_ALPHA_MIN = 0.05


class AdmissibilityError(ValueError):
    """A structural assumption on W failed; .assumption names which one."""

    def __init__(self, assumption, message):
        super().__init__(message)
        self.assumption = assumption


@dataclasses.dataclass(frozen=True)
class PotentialSpec:
    """Immutable potential descriptor: preset name, mass, coefficients.

    Presets:
      double_well: W = (m^2/2) s^2 (1 - s/s_bar)^2, declared growth p=4
      pure_mass:   W = (m^2/2) s^2                 (no binding possible)
      poly46:      W = (m^2/2) s^2 - (a/4) s^4 + (b/6) s^6, declared p=6
    """

    name: str
    m: float = 1.0
    s_bar: float = 1.0   # double_well plateau scale
    a: float = 0.0       # poly46 quartic coefficient
    b: float = 0.0       # poly46 sextic coefficient

    def __post_init__(self):
        if self.m <= 0:
            raise ValueError("mass parameter must be positive")
        if self.name not in ("double_well", "pure_mass", "poly46"):
            raise ValueError(f"unknown potential preset {self.name!r}")
        if self.name == "double_well" and self.s_bar <= 0:
            raise ValueError("double_well needs s_bar > 0")

    # ---- scalar callables (vectorized over numpy arrays) ----

    def w(self, s):
        s = np.asarray(s, dtype=float)
        m2 = self.m ** 2
        if self.name == "double_well":
            return 0.5 * m2 * s * s * (1.0 - s / self.s_bar) ** 2
        if self.name == "pure_mass":
            return 0.5 * m2 * s * s
        return 0.5 * m2 * s * s - 0.25 * self.a * s ** 4 + self.b / 6.0 * s ** 6

    def wp(self, s):
        s = np.asarray(s, dtype=float)
        m2 = self.m ** 2
        if self.name == "double_well":
            x = s / self.s_bar
            return m2 * s * (1.0 - x) * (1.0 - 2.0 * x)
        if self.name == "pure_mass":
            return m2 * s
        return m2 * s - self.a * s ** 3 + self.b * s ** 5

    def wpp(self, s):
        s = np.asarray(s, dtype=float)
        m2 = self.m ** 2
        if self.name == "double_well":
            x = s / self.s_bar
            return m2 * (1.0 - 6.0 * x + 6.0 * x * x)
        if self.name == "pure_mass":
            return m2 * np.ones_like(s)
        return m2 - 3.0 * self.a * s ** 2 + 5.0 * self.b * s ** 4

    def n(self, s):
        s = np.asarray(s, dtype=float)
        return self.w(s) - 0.5 * self.m ** 2 * s * s

    def nprime(self, s):
        s = np.asarray(s, dtype=float)
        return self.wp(s) - self.m ** 2 * s

    def wp_over_s(self, s):
        """W'(s)/s evaluated without dividing, finite at s = 0.

        This is the coefficient h(s) in the complex-field force
        W'(|psi|) psi/|psi| = h(|psi|) psi.
        """
        s = np.asarray(s, dtype=float)
        m2 = self.m ** 2
        if self.name == "double_well":
            x = s / self.s_bar
            return m2 * (1.0 - x) * (1.0 - 2.0 * x)
        if self.name == "pure_mass":
            return m2 * np.ones_like(s)
        return m2 - self.a * s ** 2 + self.b * s ** 4

    @property
    def growth_p(self):
        return 6.0 if self.name == "poly46" else 4.0

    @property
    def s_scale(self):
        """Natural field scale for sampling ranges."""
        if self.name == "double_well":
            return self.s_bar
        if self.name == "poly46" and self.a > 0 and self.b > 0:
            return float(np.sqrt(1.5 * self.a / self.b))
        return 1.0


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

    # W''(0) by one-sided second differences, Richardson-extrapolated.
    h = 1e-4 * spec.s_scale
    d2 = lambda hh: (spec.w(2 * hh) - 2 * spec.w(hh) + spec.w(0.0)) / hh ** 2
    wpp0 = 2.0 * d2(h) - d2(2 * h)
    nondegenerate = bool(abs(wpp0 - spec.m ** 2) <= 1e-6 * spec.m ** 2)

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
    The sextic preset tops out exactly at the excluded exponent p = 6, so
    it is reported "marginal" even when the bounded-range fit succeeds.
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
    verdict = "marginal" if (spec.name == "poly46" and spec.b != 0.0) else "pass"
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
