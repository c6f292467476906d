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
solved field has residual at roundoff level by design.  The Gauss-law
helpers take and return the field E_r = -phi' that a state stores, in
program units: E_r = Q(r)/r^2 with Q = int_0^r source v^2 dv, no 4 pi.
energy_norm is the one energy and norm: its gradient term is the face
form of the same stencil, its field term runs on past r_max (Coulomb).
The Laplacian and Gauss-law integrals treat a batch of fields by row.
fan_out imports the process pool only when it runs more than one worker.
"""

import dataclasses

import numpy as np

FOUR_PI = 4.0 * np.pi

PROFILE_COLUMNS = ("r", "u", "u_hat", "theta", "Theta", "E_r", "phi")


class ZeroShellChargeError(ValueError):
    """local_ratio asked on a shell carrying no charge."""


class RadialGrid:
    """Uniform radial mesh with quadrature weights for 3D radial integrals.

    Everything it holds is fixed by (r_max, n); it keeps no state of a run.
    """

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
        # w with the axis cell volume at r = 0 and no half weight at r_max:
        # diag(wt) laplacian is symmetric, so -(wt u) . laplacian(u) is the
        # Dirichlet form int |grad u|^2 4 pi r^2 dr of the flux stencil
        self.wt = self.w.copy()
        self.wt[0] = self.cell_vol[0]
        self.wt[-1] = 2.0 * self.wt[-1]
        # the stencil's coefficients on the interleaved (re, im) view of a
        # complex field, each value twice; the row scale and the origin's
        # 1/dr^2 as the reciprocals numpy's complex-by-real division uses
        self._pair_rp2 = np.repeat(self._rp2, 2)
        self._pair_rm2 = np.repeat(self._rm2, 2)
        self._pair_inv_scale = np.repeat(1.0 / self.dr2_r2, 2)
        self._inv_dr2 = 1.0 / self.dr ** 2
        # weight of |f_{i+1} - f_i|^2 on the face r_{i+1/2}, the last one
        # the zero ghost's: 4 pi r_{i+1/2}^2 dr / dr^2
        self.face_w = FOUR_PI * self._rp2 / self.dr
        for a in (self.r2, self.dr2_r2, self.wt, self._pair_rp2,
                  self._pair_rm2, self._pair_inv_scale, self.face_w):
            a.flags.writeable = False

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
        """Flux-form radial Laplacian with zero Dirichlet ghost at r_max.

        A complex128 field runs the stencil on its interleaved real view,
        bit-for-bit the complex arithmetic without casting the real
        coefficients to complex.
        """
        if f.dtype == np.complex128:
            return self._pair_laplacian(f)
        out = np.empty_like(f)
        out[..., 1:-1] = (self._rp2[1:-1] * (f[..., 2:] - f[..., 1:-1])
                          - self._rm2[1:-1] * (f[..., 1:-1] - f[..., :-2]))
        out[..., -1] = (self._rp2[-1] * (0.0 - f[..., -1])
                        - self._rm2[-1] * (f[..., -1] - f[..., -2]))
        out[..., 1:] /= self.dr2_r2
        out[..., 0] = 6.0 * (f[..., 1] - f[..., 0]) / self.dr ** 2
        return out

    def _pair_laplacian(self, f):
        """laplacian of complex f on the view [re_0, im_0, re_1, im_1, ...]."""
        v = np.ascontiguousarray(f).view(float)
        rp2, rm2 = self._pair_rp2, self._pair_rm2
        out = np.empty_like(v)
        outer = np.subtract(v[..., 4:], v[..., 2:-2])
        outer *= rp2[2:-2]
        inner = np.subtract(v[..., 2:-2], v[..., :-4], out=out[..., 2:-2])
        inner *= rm2[2:-2]
        np.subtract(outer, inner, out=inner)
        out[..., -2:] = (rp2[-2:] * (0.0 - v[..., -2:])
                         - rm2[-2:] * (v[..., -2:] - v[..., -4:-2]))
        out[..., 2:] *= self._pair_inv_scale
        out[..., :2] = 6.0 * (v[..., 2:4] - v[..., :2]) * self._inv_dr2
        return out.view(complex)


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

    def save(self, path, phi, m, omega, delta=None):
        """Profile file of the pair (state, phi) the solver returned: header
        q, r_max, n, m, omega[, delta], then the PROFILE_COLUMNS rows, whose
        phi column is the phi given."""
        header = {"q": self.q, "r_max": self.grid.r_max, "n": self.grid.n,
                  "m": m, "omega": omega}
        if delta is not None:
            header["delta"] = delta
        cols = dict(zip(PROFILE_COLUMNS,
                        (self.grid.r, self.u, self.u_hat, self.theta,
                         self.Theta, self.E_r, phi)))
        write_columnar(path, header, cols)


def _require_finite(state):
    for a in state.arrays():
        if not np.all(np.isfinite(a)):
            raise ValueError("state contains non-finite samples")


@dataclasses.dataclass
class Functionals:
    """Energy, charge and energy norm of a state."""

    energy: float
    charge: float
    energy_norm_sq: float


def _faces(f):
    """f_{i+1} - f_i on the faces r_{i+1/2}, the last one to the zero ghost."""
    df = np.empty_like(f)
    np.subtract(f[1:], f[:-1], out=df[:-1])
    df[-1] = -f[-1]
    return df


def energy_norm(spec, grid, k2, f, e_r, shell=None):
    """(E, ||.||^2) from the time parts' squares k2, the matter field f (u
    or psi) and the field e_r: E = (1/2) int (k2 + |grad f|^2 + E_r^2)
    + int W(|f|); the norm has m^2 |f|^2 in place of 2 W(|f|).  The
    gradient term (1/2) sum 4 pi r_{i+1/2}^2 dr |(f_{i+1} - f_i)/dr|^2
    includes the ghost face: it is -(1/2) (wt f) . laplacian(f), which
    the Newton makes stationary and the wave step conserves.  The field
    term adds 2 pi r_max^3 E_r(r_max)^2 outside r_max.  A node mask
    shell keeps its nodes, the faces between two and no exterior term.
    """
    w, face_w = grid.w, grid.face_w
    exterior = FOUR_PI * grid.r_max ** 3 * e_r[-1] ** 2
    if shell is not None:
        w = np.where(shell, w, 0.0)
        face_w = np.where(shell & np.append(shell[1:], False), face_w, 0.0)
        exterior = 0.0
    df = _faces(f)
    norm = float(w @ (k2 + e_r * e_r + spec.m ** 2 * (f * np.conj(f)).real)
                 + face_w @ (df * np.conj(df)).real + exterior)
    return 0.5 * norm + float(w @ spec.n(np.abs(f))), norm


def energy_inner(spec, grid, k, f, k_ref, f_ref):
    """energy_norm's matter inner product <(k, f), (k_ref, f_ref)>."""
    return complex(np.vdot(k_ref, grid.w * k)
                   + spec.m ** 2 * np.vdot(f_ref, grid.w * f)
                   + np.vdot(_faces(f_ref), grid.face_w * _faces(f)))


def functionals(state, spec, shell=None):
    """Energy, charge and energy norm on the grid or a shell (energy_norm
    of time parts u_hat, theta, Theta and field u), C = int theta u."""
    _require_finite(state)
    w = state.grid.w if shell is None else np.where(shell, state.grid.w, 0.0)
    e, norm = energy_norm(spec, state.grid, state.u_hat ** 2
                          + state.theta ** 2 + state.Theta ** 2,
                          state.u, state.E_r, shell)
    return Functionals(e, float(w @ (state.theta * state.u)), norm)


def local_ratio(state, r_lo, r_hi, spec):
    """(1/2) (norm^2 on the shell) / |shell charge|, the cell-ratio diagnostic."""
    g = state.grid
    if not (0.0 <= r_lo < r_hi <= g.r_max):
        raise ValueError("need 0 <= r_lo < r_hi <= r_max")
    shell = functionals(state, spec, (g.r >= r_lo) & (g.r <= r_hi))
    if shell.charge == 0.0:
        raise ZeroShellChargeError("shell carries no charge, ratio undefined")
    return 0.5 * shell.energy_norm_sq / abs(shell.charge)


def cumulative_charge(source, grid):
    """Q_i = int_0^{r_i} source(v) v^2 dv by cell-trapezoid quadrature."""
    dq = np.empty(source.shape)
    dq[..., 0] = 0.0
    np.add(source[..., 1:], source[..., :-1], out=dq[..., 1:])
    dq[..., 1:] *= grid.cell_c[1:]
    return np.cumsum(dq, axis=-1, out=dq)


def cumulative_charge_adjoint(g, grid):
    """Partials d/d source_j of sum_i g_i Q_i, with Q = cumulative_charge(source)."""
    rev = np.cumsum(g[::-1])[::-1]
    ds = grid.cell_c * rev
    ds[:-1] += grid.cell_c[1:] * rev[1:]
    return ds


def gauss_field(source, grid):
    """Enclosed charge Q and radial field E = Q/r^2 of a source; E(0) = 0."""
    q_cum = cumulative_charge(source, grid)
    e = np.zeros(q_cum.shape)
    np.divide(q_cum[..., 1:], grid.r2[1:], out=e[..., 1:])
    return q_cum, e


def _integrate_inward(e, phi_out, grid):
    """phi with phi(r_max) = phi_out and phi' = -e, by the trapezoid rule inward."""
    phi = np.empty(e.shape)
    phi[..., -1] = phi_out
    steps = np.add(e[..., :-1], e[..., 1:])
    steps *= 0.5 * grid.dr
    np.cumsum(steps[..., ::-1], axis=-1, out=steps[..., ::-1])
    np.add(phi[..., -1:], steps, out=phi[..., :-1])
    return phi


def solve_poisson(source, grid):
    """Solve (1/r^2)(r^2 phi')' = -source, phi'(0) = 0, Coulomb tail at r_max.

    Returns (phi, E_r).  The field E_r = -phi' is obtained by integrating
    the source (Gauss's law in integral form), which makes the discrete
    divergence of gauss_residual vanish identically on the result; phi
    follows by integrating -E_r inward from phi(r_max) = Q(r_max)/r_max,
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
    return _integrate_inward(e, q_cum[..., -1] / grid.r_max, grid), e


def potential_from_field(e_r, grid):
    """Integrate phi' = -e_r inward with the Coulomb value at r_max."""
    e = np.asarray(e_r, dtype=float)
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


def fan_out(fn, payloads, workers):
    """[fn(p) for p in payloads] in order, over min(workers, len(payloads))
    processes if that is > 1: a fork-start pool launches all its workers at
    the first submit, so the cap keeps idle ones from being forked."""
    if workers <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
        return list(pool.map(fn, payloads))
