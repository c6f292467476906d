"""Grid quadrature, functionals, Poisson solve, and the Gauss residual."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qball import fields
from qball.fields import (
    PROFILE_COLUMNS, FieldState, RadialGrid, ZeroShellChargeError,
    functionals, gauss_residual, local_ratio, solve_poisson)
from qball.potential import PotentialSpec, default_potential
from qball.solver import solve_profile

from conftest import smooth_random_state

# closed-form anchors, frozen from independent quadrature

GAUSSIAN_ENERGY = 3.9374024864306043          # pi sqrt(pi/2): u=exp(-r^2), pure mass
ERF_PHI = {1.0: 0.37341206640621344,          # sqrt(pi) erf(r)/(4 r)
           2.0: 0.22052034769060538,
           5.0: 0.08862269254513955}


def test_grid_nodes(grid):
    assert grid.r[0] == 0.0
    assert grid.r[-1] == grid.r_max
    assert np.allclose(np.diff(grid.r), grid.dr)


@pytest.mark.parametrize("n", [1000, 4000])
def test_quadrature_of_one(n):
    g = RadialGrid(40.0, n)
    exact = 4.0 / 3.0 * np.pi * g.r_max ** 3
    rel = abs(g.integrate(np.ones(g.n)) - exact) / exact
    print(n, rel)
    assert rel <= 1e-6


def test_energy_zero_state(grid, spec):
    assert functionals(FieldState.zero(grid), spec).energy == 0.0


def test_energy_gaussian_pure_mass(grid):
    st_ = FieldState.zero(grid)
    st_.u = np.exp(-grid.r ** 2)
    e = functionals(st_, PotentialSpec("pure_mass")).energy
    print(e, GAUSSIAN_ENERGY, abs(e / GAUSSIAN_ENERGY - 1))
    assert e == pytest.approx(GAUSSIAN_ENERGY, rel=1e-4)


def test_charge_sign_flip_exact(grid, spec, rng):
    st_ = smooth_random_state(grid, rng)
    c1 = functionals(st_, spec).charge
    st_.theta = -st_.theta
    assert functionals(st_, spec).charge == -c1


def test_charge_zero_state(grid, spec):
    assert functionals(FieldState.zero(grid), spec).charge == 0.0


def test_nonfinite_rejected(grid, spec):
    st_ = FieldState.zero(grid)
    st_.u[5] = np.nan
    with pytest.raises(ValueError):
        functionals(st_, spec)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.1, 10.0))
def test_norm_scales_quadratically(lam):
    g = RadialGrid(20.0, 500)
    state = FieldState.zero(g)
    state.u = np.exp(-g.r)
    base = functionals(state, default_potential()).energy_norm_sq
    state.u = lam * state.u
    assert functionals(state, default_potential()).energy_norm_sq == pytest.approx(
        lam * lam * base, rel=1e-12)


def test_norm_doubling_exact(grid, rng):
    st_ = smooth_random_state(grid, rng)
    spec = default_potential()
    base = functionals(st_, spec).energy_norm_sq
    st_.u, st_.u_hat = 2.0 * st_.u, 2.0 * st_.u_hat
    st_.theta, st_.Theta, st_.E_r = 2.0 * st_.theta, 2.0 * st_.Theta, 2.0 * st_.E_r
    assert functionals(st_, spec).energy_norm_sq == 4.0 * base


def test_pure_mass_norm_is_twice_energy(grid, rng):
    st_ = smooth_random_state(grid, rng)
    spec = PotentialSpec("pure_mass")
    f = functionals(st_, spec)
    assert f.energy_norm_sq == 2.0 * f.energy


def test_functionals_decomposition(grid, rng):
    st_ = smooth_random_state(grid, rng)
    spec = default_potential()
    f = functionals(st_, spec)
    # E = ||.||^2 / 2 + int N(|u|): the norm has m^2 u^2 in place of 2 W(u)
    nonlinear = grid.integrate(spec.n(np.abs(st_.u)))
    assert f.energy == pytest.approx(0.5 * f.energy_norm_sq + nonlinear,
                                     rel=1e-10)
    assert f.charge == pytest.approx(grid.integrate(st_.theta * st_.u),
                                     rel=1e-14, abs=1e-300)


def test_local_ratio_equality_case(grid):
    st_ = FieldState.zero(grid)
    st_.u = np.full(grid.n, 0.5)
    st_.theta = np.full(grid.n, 0.5)     # theta = m u with m = 1
    assert local_ratio(st_, 2.0, 7.0, default_potential()) == 1.0


def test_local_ratio_double_theta(grid):
    st_ = FieldState.zero(grid)
    st_.u = np.full(grid.n, 0.5)
    st_.theta = np.full(grid.n, 1.0)     # theta = 2 m u -> (m^2+4m^2)/(4m)
    assert local_ratio(st_, 2.0, 7.0, default_potential()) == pytest.approx(
        1.25, rel=1e-12)


def test_local_ratio_bounded_below(grid, rng, spec):
    for _ in range(20):
        st_ = smooth_random_state(grid, rng)
        lo = rng.uniform(0.0, 10.0)
        hi = lo + rng.uniform(1.0, 15.0)
        try:
            ratio = local_ratio(st_, lo, min(hi, grid.r_max), spec)
        except ZeroShellChargeError:
            continue
        assert ratio >= spec.m - 1e-9


def test_local_ratio_empty_shell_errors(grid, spec):
    st_ = FieldState.zero(grid)
    st_.u = np.where(grid.r < 5.0, 1.0, 0.0)
    st_.theta = st_.u.copy()
    with pytest.raises(ZeroShellChargeError):
        local_ratio(st_, 20.0, 30.0, spec)


# ---- Poisson ----

def test_poisson_zero_source(grid):
    phi, e_r = solve_poisson(np.zeros(grid.n), grid)
    assert np.all(phi == 0.0) and np.all(e_r == 0.0)


def test_poisson_uniform_ball(grid):
    rho0, R = 2.0, 5.0
    source = np.where(grid.r <= R, rho0, 0.0)
    phi, e_r = solve_poisson(source, grid)
    inside = (grid.r > 0) & (grid.r <= R)
    outside = grid.r > R + grid.dr
    # E_r = rho0 r / 3 inside (exact by construction), rho0 R^3/(3 r^2) outside
    assert np.allclose(e_r[inside], rho0 * grid.r[inside] / 3.0, rtol=1e-12)
    assert np.allclose(e_r[outside], rho0 * R ** 3 / (3 * grid.r[outside] ** 2),
                       rtol=1e-2)
    # the field of a positive source points outward: phi decreasing
    assert np.all(e_r[1:] > 0)


def test_poisson_gaussian_vs_closed_form():
    g = RadialGrid(16.0, 16001)
    phi, _ = solve_poisson(np.exp(-g.r ** 2), g)
    for r0, want in ERF_PHI.items():
        got = phi[int(round(r0 / g.dr))]
        print(r0, got, want, abs(got / want - 1))
        assert got == pytest.approx(want, rel=1e-6)


def test_poisson_robin_tail(grid, rng):
    source = np.exp(-grid.r ** 2 / 4) * (1 + 0.3 * np.sin(grid.r))
    phi, e_r = solve_poisson(source, grid)
    # phi' = -E_r = -phi/r at r_max
    assert e_r[-1] == pytest.approx(phi[-1] / grid.r_max, rel=1e-13)


def test_poisson_warns_on_nondecaying_source(grid):
    with pytest.warns(UserWarning):
        solve_poisson(np.ones(grid.n), grid)


# ---- Gauss residual ----

def test_gauss_zero_state(grid):
    assert gauss_residual(FieldState.zero(grid)) == 0.0


def test_gauss_linear_field_identity(grid):
    st_ = FieldState.zero(grid, q=2.0)
    st_.E_r = grid.r / 3.0
    st_.u = np.ones(grid.n)
    st_.theta = np.full(grid.n, -1.0 / st_.q)   # q theta u = -1 = -div E
    assert gauss_residual(st_) <= 1e-9


def test_gauss_after_poisson_solve(grid):
    q = 0.7
    u = np.exp(-grid.r ** 2 / 8)
    theta = np.exp(-grid.r ** 2 / 4) * (1 + 0.3 * np.sin(grid.r))
    _, e_r = solve_poisson(-q * theta * u, grid)
    st_ = FieldState(grid, u, np.zeros_like(u), theta, np.zeros_like(u),
                     e_r, q)
    res = gauss_residual(st_)
    scale = np.sqrt(grid.integrate((q * theta * u) ** 2))
    print(res, scale)
    assert res <= 1e-8 * scale


# ---- Laplacian and the adjoint pair ----

def test_laplacian_gaussian():
    # pointwise second order away from the axis (the flux form trades
    # pointwise accuracy at the first nodes for conservation)
    errs = []
    for n in (2001, 4001):
        g = RadialGrid(20.0, n)
        f = np.exp(-g.r ** 2)
        exact = (4 * g.r ** 2 - 6) * f
        sel = g.r > 1.0
        errs.append(np.max(np.abs(g.laplacian(f) - exact)[sel]))
    print("laplacian errs", errs, np.log2(errs[0] / errs[1]))
    assert np.log2(errs[0] / errs[1]) > 1.9


def test_laplacian_nearly_self_adjoint(grid):
    # the conservative form is symmetric in the quadrature inner product
    # up to a small origin defect (and an exponentially small boundary one)
    u = np.exp(-grid.r ** 2 / 6)
    v = np.exp(-grid.r ** 2 / 9) * np.cos(0.5 * grid.r)
    a = grid.integrate(grid.laplacian(u) * v)
    b = grid.integrate(u * grid.laplacian(v))
    print(a, b, abs(a - b) / abs(a))
    assert abs(a - b) <= 1e-5 * abs(a)


def test_laplacian_bands_match_stencil(grid):
    # nonzero at r_max, so the zero Dirichlet ghost enters the last row
    f = 0.5 + np.cos(0.1 * grid.r) * np.exp(-grid.r / 30.0)
    lower, diag, upper = grid.lap_bands
    terms = np.zeros((3, grid.n))
    terms[0, 1:] = lower[1:] * f[:-1]
    terms[1] = diag * f
    terms[2, :-1] = upper[:-1] * f[1:]
    err = np.abs(terms.sum(axis=0) - grid.laplacian(f))
    bound = 16 * np.finfo(float).eps * np.abs(terms).sum(axis=0)
    assert err[0] <= bound[0] and err[-1] <= bound[-1]
    assert np.all(err <= bound)
    with pytest.raises(ValueError):
        diag[1] = 0.0


def _complex_stencil(g, f):
    """The flux stencil in complex arithmetic, as laplacian ran it on psi."""
    out = np.empty_like(f)
    out[1:-1] = (g._rp2[1:-1] * (f[2:] - f[1:-1])
                 - g._rm2[1:-1] * (f[1:-1] - f[:-2]))
    out[-1] = g._rp2[-1] * (0.0 - f[-1]) - g._rm2[-1] * (f[-1] - f[-2])
    out[1:] /= g.dr2_r2
    out[0] = 6.0 * (f[1] - f[0]) / g.dr ** 2
    return out


@pytest.mark.parametrize("r_max, n", [(40.0, 4000), (20.0, 2000), (3.0, 3)])
def test_complex_laplacian_is_the_complex_stencil(r_max, n, rng):
    # the interleaved real view must give every bit of the complex result
    g = RadialGrid(r_max, n)
    charged = (0.5 + np.cos(0.1 * g.r)) * np.exp(-1j * 0.8 * g.r)
    noise = rng.normal(size=(2, n)) * [[1e-6], [1e3]]
    for psi in (charged, noise[0] + 1j * noise[1], 1j * charged):
        lap = g.laplacian(psi)
        assert lap.dtype == np.complex128
        assert np.array_equal(lap, _complex_stencil(g, psi))
    strided = np.repeat(charged, 2)[::2]
    assert np.array_equal(g.laplacian(strided), _complex_stencil(g, charged))


def test_batched_operators_act_row_by_row(grid, rng):
    # a batch of fields, one per row, gives each row the bits it gets alone
    rows = (rng.normal(size=(3, grid.n))
            * np.exp(-(grid.r / 8.0) ** 2) * [[1.0], [1e-3], [1e4]])
    lap = lambda f: (grid.laplacian(f),)
    field = lambda f: fields.gauss_field(f, grid)
    potential = lambda f: fields.gauss_potential(f, grid)
    for batch, op in ((rows, lap), (rows + 1j * rows[::-1], lap),
                      (rows, field), (rows, potential)):
        got = op(batch)
        for j, row in enumerate(batch):
            for g, w in zip(got, op(row), strict=True):
                assert g.shape == batch.shape
                assert np.array_equal(g[j], w), (op, j)


def _dirichlet(grid, u):
    """The descent's Dirichlet form -(wt u) . laplacian(u)."""
    return -float((grid.wt * u) @ grid.laplacian(u))


def test_dirichlet_energy_matches_integral(grid):
    u = np.exp(-grid.r ** 2 / 4)
    byweights = grid.integrate(grid.d_dr(u) ** 2)
    assert _dirichlet(grid, u) == pytest.approx(byweights, rel=1e-4)
    with pytest.raises(ValueError):
        grid.wt[0] = 0.0


def test_dirichlet_grad_is_exact_derivative(grid, rng):
    # -2 wt laplacian(u) is the exact gradient: diag(wt) laplacian is symmetric
    u = np.exp(-grid.r ** 2 / 4) * (1 + 0.2 * np.sin(grid.r))
    v = smooth_random_state(grid, rng).u
    h = 1e-6
    fd = (_dirichlet(grid, u + h * v) - _dirichlet(grid, u - h * v)) / (2 * h)
    an = float(-2.0 * (grid.wt * grid.laplacian(u)) @ v)
    print(fd, an)
    assert an == pytest.approx(fd, rel=1e-8)
    lower, _, upper = grid.lap_bands
    assert np.allclose(grid.wt[:-1] * upper[:-1], grid.wt[1:] * lower[1:],
                       rtol=1e-14, atol=0.0)


# ---- serialization ----

def test_profile_file_holds_the_solved_pair(tmp_path, spec):
    # the phi column is the solver's phi, not one rebuilt from E_r; %.17g
    # round-trips float64, so every column reads back bit for bit
    g = RadialGrid(20.0, 600)
    with pytest.warns(RuntimeWarning, match="profile tail"):
        prof = solve_profile(spec, 0.8, 0.01, g)
    p = tmp_path / "profile.txt"
    prof.state.save(p, prof.phi, m=spec.m, omega=prof.omega)
    lines = p.read_text().splitlines()
    assert lines[:6] == [f"# q={prof.q:.17g}", "# r_max=20", "# n=600",
                         f"# m={spec.m:.17g}", f"# omega={prof.omega:.17g}",
                         "# columns=" + " ".join(PROFILE_COLUMNS)]
    cols = np.loadtxt(p, unpack=True)
    for got, want in zip(cols, (g.r, *prof.state.arrays(), prof.phi),
                         strict=True):
        assert np.array_equal(got, want)


def test_columnar_rows_are_per_value_17g(tmp_path):
    # normal doubles, signed zeros, subnormals, infinities and nan, in a
    # 4000 x 7 block like a profile file
    rng = np.random.default_rng(5)
    data = rng.normal(size=(4000, 7)) * 10.0 ** rng.integers(-300, 300,
                                                              (4000, 7))
    special = [0.0, -0.0, 5e-324, -2.5e-310, np.inf, -np.inf, np.nan,
               np.finfo(float).max, np.finfo(float).tiny, 1.0 / 3.0]
    data.flat[:len(special)] = special
    data[-1] = special[-7:]
    cols = {f"c{j}": data[:, j] for j in range(7)}
    p = tmp_path / "block.dat"
    fields.write_columnar(p, {"n": 4000, "x": 0.1}, cols)
    want = ("# n=4000\n# x=0.10000000000000001\n# columns=c0 c1 c2 c3 c4 c5 c6\n"
            + "".join(" ".join(f"{x:.17g}" for x in row) + "\n"
                      for row in data))
    assert p.read_text() == want


def test_grid_caches_match_their_formulas(grid):
    assert np.array_equal(grid.r2, grid.r ** 2)
    assert np.array_equal(grid.dr2_r2, grid.dr ** 2 * grid.r[1:] ** 2)
    with pytest.raises(ValueError):
        grid.r2[1] = 0.0


def test_quadrature_second_order():
    # fixed smooth state evaluated on a dr-halving triple; theta is
    # nonzero at r_max so plain second-order trapezoid behavior is
    # visible.  u vanishes there: the gradient term's last face reaches
    # the zero ghost past r_max, so a u that did not would cost energy
    # growing as 1/dr
    spec = default_potential()
    vals = []
    for n in (251, 501, 1001):
        g = RadialGrid(10.0, n)
        st_ = FieldState.zero(g)
        st_.u = 1.0 / (1.0 + g.r) - 1.0 / (1.0 + g.r_max)
        st_.theta = 0.5 / (1.0 + g.r ** 2)
        vals.append(functionals(st_, spec).energy)
    e1, e2, e3 = vals
    order = np.log2(abs(e1 - e2) / abs(e2 - e3))
    print("quadrature order", order, vals)
    assert order >= 1.9


def test_fan_out_starts_no_more_workers_than_payloads(monkeypatch):
    # a fork-start pool launches all max_workers at its first submit
    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    assert fields.fan_out(abs, [-1, -2], 64) == [1, 2]
    assert seen == [2]
