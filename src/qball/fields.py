"""Radial grid, gauge-invariant field states, and the energy/charge functionals.

Everything is radial: a state is the tuple (u, u_hat, theta, Theta, E_r)
sampled on a uniform grid r_i = i*dr, with the magnetic field and all
angular components identically zero.  Integrals over R^3 reduce to
int f(r) 4 pi r^2 dr, discretized by trapezoid weights in r with the
r^2 factor absorbed into the weights.

The radial Laplacian is kept in flux (conservative) form

    (lap f)_i = [r_{i+1/2}^2 (f_{i+1}-f_i) - r_{i-1/2}^2 (f_i-f_{i-1})] / (dr^2 r_i^2)

with the regularized row 6 (f_1 - f_0)/dr^2 at the origin and a zero
Dirichlet ghost beyond r_max.  The Poisson solve integrates Gauss's law
in cumulative form instead of inverting a stencil; the divergence used
by gauss_residual applies the exact inverse of that construction, so a
solved field has residual at roundoff level by design.
"""

import dataclasses
from concurrent.futures import ProcessPoolExecutor

import numpy as np

FOUR_PI = 4.0 * np.pi
SPONGE_FRACTION = 0.1     # outer fraction of the grid that absorbs
SPONGE_SIGMA = 5.0        # peak damping rate of the quintic ramp

PROFILE_COLUMNS = ("r", "u", "u_hat", "theta", "Theta", "E_r", "phi")


class ZeroShellChargeError(ValueError):
    """local_ratio asked on a shell carrying no charge."""


class RadialGrid:
    """Uniform radial mesh with quadrature weights for 3D radial integrals."""

    def __init__(self, r_max=40.0, n=4000):
        if n < 3:
            raise ValueError("need at least 3 radial nodes")
        if r_max <= 0:
            raise ValueError("r_max must be positive")
        self.r_max = float(r_max)
        self.n = int(n)
        self.dr = self.r_max / (self.n - 1)
        self.r = np.linspace(0.0, self.r_max, self.n)
        self.r2 = self.r ** 2
        # trapezoid weights for int f 4 pi r^2 dr; the r=0 node weighs zero
        self.w = FOUR_PI * self.r2 * self.dr
        self.w[-1] *= 0.5
        # face radii squared for the flux Laplacian
        rp = self.r + 0.5 * self.dr
        rm = np.maximum(self.r - 0.5 * self.dr, 0.0)
        self._rp2 = rp ** 2
        self._rm2 = rm ** 2
        # the same stencil as tridiagonal bands (lower, diag, upper), with
        # the regularized origin row; row n-1 omits the zero ghost
        denom = self.dr * self.dr * self.r[1:] * self.r[1:]
        lower = np.zeros(self.n)
        diag = np.zeros(self.n)
        upper = np.zeros(self.n)
        lower[1:] = self._rm2[1:] / denom
        upper[1:] = self._rp2[1:] / denom
        diag[1:] = -(lower[1:] + upper[1:])
        diag[0] = -6.0 / self.dr ** 2
        upper[0] = 6.0 / self.dr ** 2
        for band in (lower, diag, upper):
            band.flags.writeable = False
        self.lap_bands = (lower, diag, upper)
        # row scale dr^2 r^2 of the flux Laplacian, rows 1..n-1
        self.dr2_r2 = self.dr ** 2 * self.r2[1:]
        # cell coefficients for cumulative charge integrals:
        # int_{r_{i-1}}^{r_i} s v^2 dv ~ (s_i + s_{i-1}) * (r_i^3 - r_{i-1}^3)/6
        r3 = self.r ** 3
        self.cell_c = np.zeros(self.n)
        self.cell_c[1:] = (r3[1:] - r3[:-1]) / 6.0
        self.cell_vol = np.empty(self.n)
        self.cell_vol[0] = FOUR_PI * (0.5 * self.dr) ** 3 / 3.0
        self.cell_vol[1:] = FOUR_PI * (r3[1:] - r3[:-1]) / 3.0
        # absorbing-sponge rate: a quintic ramp over the outer SPONGE_FRACTION
        r_start = (1.0 - SPONGE_FRACTION) * self.r_max
        x = np.clip((self.r - r_start) / (self.r_max - r_start), 0.0, 1.0)
        self.sponge = SPONGE_SIGMA * x ** 5
        for a in (self.r2, self.dr2_r2, self.sponge):
            a.flags.writeable = False
        self._sponge_dt = None

    def __eq__(self, other):
        return (isinstance(other, RadialGrid)
                and other.n == self.n and other.r_max == self.r_max)

    def integrate(self, f):
        """int f 4 pi r^2 dr over [0, r_max]."""
        return float(self.w @ f)

    def d_dr(self, f):
        """Centered first derivative, one-sided at both ends."""
        return np.gradient(f, self.dr)

    def laplacian(self, f):
        """Flux-form radial Laplacian with zero Dirichlet ghost at r_max."""
        out = np.empty_like(f)
        out[1:-1] = (self._rp2[1:-1] * (f[2:] - f[1:-1])
                     - self._rm2[1:-1] * (f[1:-1] - f[:-2]))
        out[-1] = self._rp2[-1] * (0.0 - f[-1]) - self._rm2[-1] * (f[-1] - f[-2])
        out[1:] /= self.dr2_r2
        out[0] = 6.0 * (f[1] - f[0]) / self.dr ** 2
        return out

    def sponge_factors(self, dt):
        """(start, damp, loss) of one sponge pass of length dt.

        Only nodes from start on absorb: damp = exp(-sponge dt) scales pi
        there, and loss = w (1 - damp^2) / 2 weighs |pi|^2 into the energy
        the pass removes.  Kept for the last dt asked.
        """
        if dt != self._sponge_dt:
            start = int(np.flatnonzero(self.sponge)[0])
            damp = np.exp(-self.sponge[start:] * dt)
            loss = 0.5 * self.w[start:] * (1.0 - damp ** 2)
            damp.flags.writeable = loss.flags.writeable = False
            self._sponge = (start, damp, loss)
            self._sponge_dt = dt
        return self._sponge

    def dirichlet_energy(self, u):
        """Face-based int |grad u|^2 4 pi r^2 dr with a zero ghost at r_max.

        This quadratic form and dirichlet_grad are exact adjoints of each
        other; the descent flow uses them so its gradient is the true
        derivative of its objective.
        """
        d = np.diff(u) / self.dr
        inner = FOUR_PI * self.dr * float(self._rp2[:-1] @ (d * d))
        outer = FOUR_PI * self.dr * self._rp2[-1] * (u[-1] / self.dr) ** 2
        return inner + outer

    def dirichlet_grad(self, u):
        """Exact partials d/du_i of dirichlet_energy(u)."""
        g = np.zeros_like(u)
        d = np.diff(u) / self.dr
        flux = FOUR_PI * self._rp2[:-1] * d / self.dr * self.dr
        g[:-1] -= 2.0 * flux
        g[1:] += 2.0 * flux
        g[-1] += 2.0 * FOUR_PI * self._rp2[-1] * u[-1] / self.dr
        return g


@dataclasses.dataclass
class FieldState:
    """A point of the radial phase space: (u, u_hat, theta, Theta, E_r) plus q."""

    grid: RadialGrid
    u: np.ndarray
    u_hat: np.ndarray
    theta: np.ndarray
    Theta: np.ndarray
    E_r: np.ndarray
    q: float = 0.0

    @classmethod
    def zero(cls, grid, q=0.0):
        z = lambda: np.zeros(grid.n)
        return cls(grid, z(), z(), z(), z(), z(), q)

    def clone(self):
        return FieldState(self.grid, self.u.copy(), self.u_hat.copy(),
                          self.theta.copy(), self.Theta.copy(),
                          self.E_r.copy(), self.q)

    def arrays(self):
        return (self.u, self.u_hat, self.theta, self.Theta, self.E_r)

    def save(self, path, m=None, omega=None, delta=None):
        header = {"q": self.q, "r_max": self.grid.r_max, "n": self.grid.n}
        if m is not None:
            header["m"] = m
        if omega is not None:
            header["omega"] = omega
        if delta is not None:
            header["delta"] = delta
        phi = potential_from_field(-self.E_r, self.grid)
        cols = dict(zip(PROFILE_COLUMNS,
                        (self.grid.r, self.u, self.u_hat, self.theta,
                         self.Theta, self.E_r, phi)))
        write_columnar(path, header, cols)

    @classmethod
    def load(cls, path):
        header, cols = read_columnar(path)
        grid = RadialGrid(header["r_max"], int(header["n"]))
        return cls(grid, cols["u"], cols["u_hat"], cols["theta"],
                   cols["Theta"], cols["E_r"], header.get("q", 0.0))


def _require_finite(state):
    for a in state.arrays():
        if not np.all(np.isfinite(a)):
            raise ValueError("state contains non-finite samples")


@dataclasses.dataclass
class Functionals:
    """Energy/charge record with the quadratic/nonlinear decomposition."""

    energy: float
    charge: float
    energy_norm_sq: float
    quadratic: float        # (1/2) int (u_hat^2 + |grad u|^2 + theta^2 + Theta^2 + E^2)
    nonlinear: float        # int N(u)


def norm_sq(spec, w, k2, s):
    """||.||^2 = int (k2 + m^2 s^2) under the quadrature weights w."""
    return float(w @ (k2 + spec.m ** 2 * (s * s)))


def energy_norm(spec, w, k2, s):
    """(E, ||.||^2, int N(s)) with E = ||.||^2 / 2 + int N(s): the one energy.

    k2 sums the squares of the time, radial and field parts of a state
    and s is the modulus of its matter field, |u| or |psi|.
    """
    norm = norm_sq(spec, w, k2, s)
    nonlinear = float(w @ spec.n(s))
    return 0.5 * norm + nonlinear, norm, nonlinear


def functionals(state, spec, w=None):
    """Energy, charge and energy norm in one pass, under weights w or g.w."""
    _require_finite(state)
    w = state.grid.w if w is None else w
    k2 = (state.u_hat ** 2 + state.grid.d_dr(state.u) ** 2 + state.theta ** 2
          + state.Theta ** 2 + state.E_r ** 2)
    e, norm, nonlinear = energy_norm(spec, w, k2, np.abs(state.u))
    return Functionals(e, float(w @ (state.theta * state.u)), norm,
                       0.5 * float(w @ k2), nonlinear)


def energy(state, spec):
    """E = (1/2) int (u_hat^2 + |grad u|^2 + theta^2 + Theta^2 + E^2) + int W(u)."""
    return functionals(state, spec).energy


def charge(state):
    """C = int theta u (sign preserved)."""
    _require_finite(state)
    return state.grid.integrate(state.theta * state.u)


def energy_norm_sq(state, spec):
    """int (u_hat^2 + |grad u|^2 + m^2 u^2 + theta^2 + Theta^2 + E^2)."""
    return functionals(state, spec).energy_norm_sq


def local_ratio(state, r_lo, r_hi, spec):
    """(1/2) (norm^2 on the shell) / |shell charge|, the cell-ratio diagnostic."""
    g = state.grid
    if not (0.0 <= r_lo < r_hi <= g.r_max):
        raise ValueError("need 0 <= r_lo < r_hi <= r_max")
    shell = functionals(state, spec,
                        np.where((g.r >= r_lo) & (g.r <= r_hi), g.w, 0.0))
    if shell.charge == 0.0:
        raise ZeroShellChargeError("shell carries no charge, ratio undefined")
    return 0.5 * shell.energy_norm_sq / abs(shell.charge)


def cumulative_charge(source, grid):
    """Q_i = int_0^{r_i} source(v) v^2 dv by cell-trapezoid quadrature."""
    dq = np.empty(grid.n)
    dq[0] = 0.0
    np.add(source[1:], source[:-1], out=dq[1:])
    dq[1:] *= grid.cell_c[1:]
    return np.cumsum(dq, out=dq)


def cumulative_charge_adjoint(g, grid):
    """Partials d/d source_j of sum_i g_i Q_i, with Q = cumulative_charge(source)."""
    rev = np.cumsum(g[::-1])[::-1]
    ds = grid.cell_c * rev
    ds[:-1] += grid.cell_c[1:] * rev[1:]
    return ds


def gauss_field(source, grid):
    """Enclosed charge Q and radial field E = Q/r^2 of a source; E(0) = 0."""
    q_cum = cumulative_charge(source, grid)
    e = np.zeros(grid.n)
    e[1:] = q_cum[1:] / grid.r2[1:]
    return q_cum, e


def _integrate_inward(e, phi_out, grid):
    """phi with phi(r_max) = phi_out and phi' = -e, by the trapezoid rule inward."""
    phi = np.empty(grid.n)
    phi[-1] = phi_out
    steps = 0.5 * grid.dr * (e[:-1] + e[1:])
    np.add(phi[-1], np.cumsum(steps[::-1])[::-1], out=phi[:-1])
    return phi


def solve_poisson(source, grid):
    """Solve (1/r^2)(r^2 phi')' = -source, phi'(0) = 0, Coulomb tail at r_max.

    Returns (phi, dphi).  The field E = -phi' is obtained by integrating
    the source (Gauss's law in integral form), which makes the discrete
    divergence of gauss_residual vanish identically on the result; phi
    follows by integrating -E inward from phi(r_max) = Q(r_max)/r_max,
    which satisfies the Robin condition phi'(r_max) = -phi(r_max)/r_max
    exactly.
    """
    source = np.asarray(source, dtype=float)
    if source.shape != (grid.n,):
        raise ValueError("source shape does not match grid")
    if abs(source[-1]) > 1e-6 * max(1.0, np.max(np.abs(source))):
        import warnings
        warnings.warn("Poisson source does not decay by r_max; "
                      "the Coulomb-tail boundary condition is inaccurate")
    return gauss_potential(source, grid)


def gauss_potential(source, grid):
    """solve_poisson without its shape and decay checks, for hot loops."""
    q_cum, e = gauss_field(source, grid)
    return _integrate_inward(e, q_cum[-1] / grid.r_max, grid), -e


def potential_from_field(dphi, grid):
    """Integrate phi' = dphi inward with the Coulomb value at r_max."""
    e = -np.asarray(dphi, dtype=float)
    return _integrate_inward(e, e[-1] * grid.r_max, grid)


def gauss_residual(state):
    """Grid L2 norm of div E + q theta u (the Gauss-constraint defect).

    The divergence is evaluated per cell as the exact inverse of the
    cumulative construction in solve_poisson: on cell (r_{i-1}, r_i) the
    defect is 3 (r_i^2 E_i - r_{i-1}^2 E_{i-1}) / (r_i^3 - r_{i-1}^3) plus
    the cell average of q theta u; at the origin the divergence is the
    one-sided 3 (E_1 - E_0)/dr (E(0) = 0 regularity), paired with the
    same first-cell source average.
    """
    _require_finite(state)
    g = state.grid
    s = state.q * state.theta * state.u
    r2e = g.r ** 2 * state.E_r
    res = np.empty(g.n)
    res[1:] = ((r2e[1:] - r2e[:-1]) / (2.0 * g.cell_c[1:])
               + 0.5 * (s[1:] + s[:-1]))
    res[0] = 3.0 * (state.E_r[1] - state.E_r[0]) / g.dr + 0.5 * (s[0] + s[1])
    return float(np.sqrt(g.cell_vol @ res ** 2))


def write_columnar(path, header, columns):
    """Columnar text format: '# key=value' header lines, then data rows."""
    names = list(columns)
    data = np.column_stack([columns[k] for k in names])
    fmt = " ".join(["%.17g"] * len(names)) + "\n"
    with open(path, "w") as f:
        for k, v in header.items():
            if isinstance(v, float):
                f.write(f"# {k}={v:.17g}\n")
            else:
                f.write(f"# {k}={v}\n")
        f.write("# columns=" + " ".join(names) + "\n")
        # a block of rows at a time keeps the Python floats of tolist few
        for i in range(0, len(data), 256):
            rows = map(tuple, data[i:i + 256].tolist())
            f.writelines(fmt % row for row in rows)


def read_columnar(path):
    """Inverse of write_columnar: returns (header dict, column dict)."""
    header = {}
    names = None
    rows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    k, v = body.split("=", 1)
                    k = k.strip()
                    if k == "columns":
                        names = v.split()
                    else:
                        try:
                            header[k] = int(v) if v.lstrip("+-").isdigit() else float(v)
                        except ValueError:
                            header[k] = v
                continue
            rows.append([float(x) for x in line.split()])
    data = np.asarray(rows)
    if names is None:
        names = list(PROFILE_COLUMNS[:data.shape[1]])
    return header, {k: data[:, j] for j, k in enumerate(names)}


def fan_out(fn, payloads, workers):
    """[fn(p) for p in payloads] in order, over `workers` processes if > 1."""
    if workers <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, payloads))
