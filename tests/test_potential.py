"""Potential evaluation and admissibility certification."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qball.potential import (
    AdmissibilityError, PotentialSpec, check_admissibility, default_potential,
    evaluate, hylomorphy_constants)

# default potential W(s) = s^2 (1-s)^2 / 2, frozen by hand
eval_cases = {
    # s: (W, W', N, N')
    0.0: (0.0, 0.0, 0.0, 0.0),
    1.0: (0.0, 0.0, -0.5, -1.0),
    2.0: (2.0, 6.0, 0.0, 4.0),
    0.5: (0.03125, 0.0, -0.09375, -0.5),
}


@pytest.mark.parametrize("s", sorted(eval_cases))
def test_evaluate_default(s):
    got = evaluate(default_potential(), s)
    want = eval_cases[s]
    print(s, got)
    assert np.allclose(got, want, rtol=0, atol=1e-14)


def test_negative_s_rejected():
    with pytest.raises(ValueError):
        evaluate(default_potential(), -0.1)


def test_origin_conditions():
    for spec in (default_potential(), PotentialSpec("pure_mass", m=2.0),
                 PotentialSpec("poly46", a=1.0, b=0.3),
                 PotentialSpec("double_well", m=1.5, s_bar=2.0)):
        assert spec.w(0.0) == 0.0
        assert spec.wp(0.0) == 0.0
        assert abs(spec.wpp(0.0) - spec.m ** 2) <= 1e-8 * spec.m ** 2
        assert spec.wp_over_s(0.0) == pytest.approx(spec.m ** 2, rel=1e-14)


def test_mass_plus_nonlinear_split():
    s = np.geomspace(1e-6, 10.0, 200)
    for spec in (default_potential(), PotentialSpec("poly46", a=1.0, b=0.3)):
        lhs = spec.w(s)
        rhs = 0.5 * spec.m ** 2 * s * s + spec.n(s)
        assert np.allclose(lhs, rhs, rtol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.05, 8.0))
def test_wp_matches_centered_difference(s):
    spec = default_potential()
    h = 1e-5
    fd = (spec.w(s + h) - spec.w(s - h)) / (2 * h)
    assert abs(spec.wp(s) - fd) <= 1e-7 * (1 + abs(spec.wp(s)))


def test_fd_consistency_is_second_order():
    spec = PotentialSpec("poly46", a=1.0, b=0.3)
    s = np.geomspace(0.1, 5.0, 20)
    errs = []
    for h in (1e-2, 5e-3, 2.5e-3):
        fd = (spec.w(s + h) - spec.w(s - h)) / (2 * h)
        errs.append(np.max(np.abs(fd - spec.wp(s))))
    order = np.log2(errs[0] / errs[1])
    print("fd orders", np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2]))
    assert order > 1.9


def test_admissibility_default():
    rep = check_admissibility(default_potential(), s_max=10.0)
    print(rep)
    assert rep.positivity and rep.nondegenerate and rep.hylomorphy
    assert rep.growth == "pass"
    assert rep.admissible
    # the verdict is derived, so admissibility.txt does not carry it
    assert "admissible" not in rep.as_dict()
    # alpha(s) = |1-s| dips to 0 at s=1; the report clips at the floor
    assert rep.s_bar == pytest.approx(1.0, abs=1e-2)
    assert rep.alpha == pytest.approx(0.05)
    assert rep.growth_a >= 0 and rep.growth_b >= 0
    # the fitted bound dominates |N'| on the sampled range it was fit on
    s = np.linspace(0.0, rep.s_max, rep.n_samples)[1:]
    bound = rep.growth_a * s ** 3 + rep.growth_b * s ** 1.5
    assert np.all(np.abs(default_potential().nprime(s)) <= bound * (1 + 1e-6) + 1e-9)


def test_admissibility_pure_mass():
    rep = check_admissibility(PotentialSpec("pure_mass"))
    assert rep.positivity and rep.nondegenerate
    assert not rep.hylomorphy
    assert rep.s_bar is None
    assert not rep.admissible


def test_admissibility_unbounded_below():
    # W = s^2/2 - s^4/4 goes negative: W(3) = 4.5 - 20.25
    rep = check_admissibility(PotentialSpec("poly46", a=1.0, b=0.0), s_max=10.0)
    assert not rep.positivity
    assert not rep.admissible


def test_poly46_growth_marginal():
    rep = check_admissibility(PotentialSpec("poly46", a=1.0, b=0.3))
    assert rep.positivity and rep.hylomorphy
    assert rep.growth == "marginal"
    assert rep.admissible


def test_hylomorphy_constants_max_threshold():
    alpha, s_bar = hylomorphy_constants(default_potential(), "max_threshold")
    print(alpha, s_bar)
    assert alpha == pytest.approx(0.25, abs=1e-12)
    assert s_bar == pytest.approx(1.0, abs=1e-2)
    # witness inequality at the stored pair
    assert default_potential().w(s_bar) <= 0.5 * alpha ** 2 * s_bar ** 2 + 1e-12


def test_hylomorphy_constants_min_ratio_floor():
    alpha, s_bar = hylomorphy_constants(default_potential(), "min_ratio", alpha_min=0.05)
    assert alpha == pytest.approx(0.05)
    assert s_bar == pytest.approx(1.0, abs=1e-2)


def test_hylomorphy_constants_pure_mass_errors():
    with pytest.raises(AdmissibilityError) as exc:
        hylomorphy_constants(PotentialSpec("pure_mass"))
    assert exc.value.assumption == "hylomorphy"


def test_max_threshold_beats_sampled_alphas():
    # no feasible alpha on a grid scores higher on (m - a)^3 a
    spec = default_potential()
    alpha, s_bar = hylomorphy_constants(spec, "max_threshold")
    best = (spec.m - alpha) ** 3 * alpha
    s = np.linspace(0.0, 10.0, 4001)[1:]
    curve = np.sqrt(2.0 * np.maximum(spec.w(s), 0.0)) / s
    feasible = np.linspace(1e-3, spec.m - 1e-3, 999)
    feasible = feasible[feasible >= curve.min()]
    scores = (spec.m - feasible) ** 3 * feasible
    assert np.all(scores <= best + 1e-12)


def test_poly46_constants_above_curve_minimum():
    spec = PotentialSpec("poly46", a=1.0, b=0.3)
    alpha, s_bar = hylomorphy_constants(spec, "max_threshold")
    # curve minimum sqrt(1 - 3 a^2/(16 b)) = sqrt(0.375) exceeds m/4
    assert alpha == pytest.approx(np.sqrt(0.375), rel=1e-4)
    assert spec.w(s_bar) <= 0.5 * alpha ** 2 * s_bar ** 2 * (1 + 1e-9)


# closed forms of W, W', W'' and W'/s per preset, the oracle for the
# polynomials derived from the coefficient tuple; N and N' follow by
# subtracting the mass term
CLOSED_FORMS = {
    "double_well": (
        lambda p, s: 0.5 * p.m ** 2 * s * s * (1.0 - s / p.s_bar) ** 2,
        lambda p, s: p.m ** 2 * s * (1.0 - s / p.s_bar) * (1.0 - 2.0 * s / p.s_bar),
        lambda p, s: p.m ** 2 * (1.0 - 6.0 * s / p.s_bar + 6.0 * (s / p.s_bar) ** 2),
        lambda p, s: p.m ** 2 * (1.0 - s / p.s_bar) * (1.0 - 2.0 * s / p.s_bar),
    ),
    "pure_mass": (
        lambda p, s: 0.5 * p.m ** 2 * s * s,
        lambda p, s: p.m ** 2 * s,
        lambda p, s: p.m ** 2 * np.ones_like(s),
        lambda p, s: p.m ** 2 * np.ones_like(s),
    ),
    "poly46": (
        lambda p, s: 0.5 * p.m ** 2 * s * s - 0.25 * p.a * s ** 4 + p.b / 6.0 * s ** 6,
        lambda p, s: p.m ** 2 * s - p.a * s ** 3 + p.b * s ** 5,
        lambda p, s: p.m ** 2 - 3.0 * p.a * s ** 2 + 5.0 * p.b * s ** 4,
        lambda p, s: p.m ** 2 - p.a * s ** 2 + p.b * s ** 4,
    ),
}


@pytest.mark.parametrize("spec", [
    PotentialSpec("double_well", m=1.5, s_bar=2.0),
    PotentialSpec("poly46", a=1.0, b=0.3),
    PotentialSpec("pure_mass", m=2.0),
])
def test_polynomials_match_the_closed_forms(spec):
    s = np.linspace(0.0, 10.0 * spec.s_scale, 2001)
    w, wp, wpp, wp_over_s = (f(spec, s) for f in CLOSED_FORMS[spec.name])
    want = {"w": w, "wp": wp, "wpp": wpp, "wp_over_s": wp_over_s,
            "n": w - 0.5 * spec.m ** 2 * s * s, "nprime": wp - spec.m ** 2 * s}
    for name, ref in want.items():
        got = getattr(spec, name)(s)
        assert got.shape == s.shape, name
        assert np.allclose(got, ref, rtol=1e-13, atol=1e-13 * np.max(np.abs(w))), name


def test_pure_mass_polynomials_are_exact():
    spec = PotentialSpec("pure_mass", m=2.0)
    s = np.linspace(0.0, 5.0, 11).reshape(1, 11)
    assert np.all(spec.n(s) == 0.0) and np.all(spec.nprime(s) == 0.0)
    # a constant polynomial keeps the shape of its argument
    for f in (spec.wpp, spec.wp_over_s):
        assert f(s).shape == (1, 11) and np.all(f(s) == 4.0)
        assert np.shape(f(0.0)) == ()


@pytest.mark.parametrize("spec, p", [
    (default_potential(), 4.0),
    (PotentialSpec("pure_mass"), 4.0),
    (PotentialSpec("poly46", a=1.0, b=0.0), 4.0),
    (PotentialSpec("poly46", a=1.0, b=0.3), 6.0),
])
def test_growth_exponent_is_max_of_four_and_degree(spec, p):
    assert spec.growth_p == p
