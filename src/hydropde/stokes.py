"""Hydrostatic Stokes operator A = P(-Delta) in one shared vertical eigenbasis.

At horizontal wavenumber k the negative Laplacian acts diagonally on the
vertical-mode coefficients c_m = (u_m, v_m) of the velocity,

    Lambda = diag(4 pi^2 |k|^2 + lam_m^2),

while the constraint div_H vbar = 0 reads sum_m a_m (k . c_m) = 0: its normal
is k (x) a, with a_m the vertical-average factors, and a is the same vector
at every k.  Rotating each c_m into its parts across k and along k splits a
block k != 0 in two:

- the across-k part is unconstrained and already diagonal, with eigenvalues
  4 pi^2 |k|^2 + lam_m^2;
- the along-k part is diag(lam^2) compressed to a-perp, shifted by
  4 pi^2 |k|^2, so one (nz - 1)-sized eigendecomposition serves every k.

For k = 0 the constraint is vacuous and the block is already diagonal.  A
real field is kept by one Hermitian half of its wavenumbers off the Nyquist
lines, with weights for the mirrored rows (see StokesOperator).  Semigroup,
shifted solves and resolvent are scalar functions of A, diagonal in these
coordinates, so the semigroup law and decay bounds hold at rounding accuracy
on the discrete operator.  The dense per-wavenumber assembly (assemble_block) is kept as
the reference the tests compare against.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DomainError, SingularResolventError
from .fields import SpectralField, hermitize, sobolev_norm, vertical_average
from .grid import Grid
from .projection import constrain, solve_surface_poisson


@dataclass(frozen=True)
class StokesBlock:
    """Dense realization at a single wavenumber, reduced to the constraint manifold."""

    k: tuple
    lam_diag: np.ndarray       # (2 nz,) diagonal of Lambda
    basis: np.ndarray          # (2 nz, r) orthonormal basis of the constraint manifold
    reduced: np.ndarray        # (r, r) SPD reduced block
    eigenvalues: np.ndarray    # (r,) ascending
    eigenvectors: np.ndarray   # (r, r)


def _householder_basis(n):
    """Orthonormal basis of the hyperplane orthogonal to n (n != 0)."""
    nhat = n / np.linalg.norm(n)
    e = np.zeros_like(nhat)
    e[0] = 1.0 if nhat[0] >= 0 else -1.0
    u = nhat + e
    H = np.eye(len(n)) - 2.0 * np.outer(u, u) / (u @ u)
    return H[:, 1:]


def assemble_block(grid: Grid, k) -> StokesBlock:
    """Reference (single-wavenumber) block assembly."""
    kx, ky = int(k[0]), int(k[1])
    if kx not in grid.kx or ky not in grid.ky:
        raise ConfigurationError(f"wavenumber {k} outside grid {grid.nx}x{grid.ny}")
    lam_diag = np.tile(4 * np.pi**2 * (kx**2 + ky**2) + grid.lam**2, 2)
    if kx == 0 and ky == 0:
        Q = np.eye(2 * grid.nz)
    else:
        Q = _householder_basis(np.concatenate([kx * grid.avg_factor, ky * grid.avg_factor]))
    R = (Q.T * lam_diag) @ Q
    R = 0.5 * (R + R.T)
    w, U = np.linalg.eigh(R)
    return StokesBlock((kx, ky), lam_diag, Q, R, w, U)


def eigenmode(grid: Grid, k, m, amplitude=1.0) -> SpectralField:
    """Exact eigenfunction: a cos(2 pi k.x) phi_m(z) with a = (-ky, kx)/|k|.

    Eigenvalue 4 pi^2 |k|^2 + lam_m^2.  At k = 0 every direction is on the
    constraint manifold and a = (1, 0).  k must lie off the Nyquist lines
    (Grid.off_nyquist), where the velocity space has no modes.
    """
    kx, ky = int(k[0]), int(k[1])
    if m < 0 or m >= grid.nz:
        raise ConfigurationError(f"vertical mode {m} outside 0..{grid.nz - 1}")
    if kx not in grid.kx or ky not in grid.ky:
        raise ConfigurationError(f"wavenumber {k} outside grid {grid.nx}x{grid.ny}")
    ix, iy = list(grid.kx).index(kx), list(grid.ky).index(ky)
    if not grid.off_nyquist[ix, iy]:
        raise ConfigurationError(f"wavenumber {k} lies on a Nyquist line")
    d = np.array([1.0, 0.0]) if kx == 0 and ky == 0 else np.array([-ky, kx], float)
    d = d / np.linalg.norm(d)
    c = np.zeros((2, grid.nx, grid.ny, grid.nz), complex)
    c[:, ix, iy, m] = amplitude * d
    return hermitize(SpectralField(grid, c))


@dataclass(frozen=True)
class SpectrumReport:
    beta: float
    entries: tuple  # ((kx, ky), eigenvalue array) pairs


@dataclass(frozen=True)
class SectorSweepReport:
    eps: float
    rows: tuple  # (lambda, M(lambda)) pairs
    sup_m: float


@dataclass(frozen=True)
class SmoothingReport:
    theta1: float
    theta2: float
    rows: tuple  # (t, g(t)) pairs
    sup_g: float


class StokesOperator:
    """A on one grid, applied through the shared vertical eigenbasis.

    The eigen-coordinates hold a real field by one Hermitian half: k = (0, 0),
    the stacked (u, v) coefficients, then one row [across k (nz) | along k in
    the columns of W (nz - 1)] per wavenumber of `rows`.  from_eigen fills the
    ky < 0 entries by the mirror c(-k) = conj(c(k)) and leaves the Nyquist
    lines zero, and `weights` counts the rows it mirrors twice.
    """

    def __init__(self, grid: Grid):
        self.grid = grid

    @cached_property
    def rows(self):
        """(ix, iy) of the rows k != 0, in C order: the ky >= 0 columns
        0 .. ny/2 - 1 of every kx row off the Nyquist lines."""
        g = self.grid
        return np.nonzero(g.off_nyquist & (g.ky >= 0) & (g.k2 > 0))

    @cached_property
    def _khat(self):
        """Unit wavenumber components kx/|k|, ky/|k| of the rows, each (rows, 1)."""
        (ix, iy), g = self.rows, self.grid
        kx, ky = g.kx[ix, None].astype(float), g.ky[iy, None].astype(float)
        norm = np.hypot(kx, ky)
        return kx / norm, ky / norm

    @cached_property
    def _along_basis(self):
        """(nu, W): eigenpairs of diag(lam^2) compressed to a-perp; W is complex nz x (nz - 1)."""
        Q = _householder_basis(self.grid.avg_factor)
        R = (Q.T * self.grid.lam**2) @ Q
        nu, U = np.linalg.eigh(0.5 * (R + R.T))
        return nu, (Q @ U).astype(complex)

    def _row_eigenvalues(self, k2):
        """Eigenvalues at k != 0 for 4 pi^2 |k|^2 values k2, one row each."""
        return k2[:, None] + np.concatenate([self.grid.lam**2, self._along_basis[0]])

    @cached_property
    def eigenvalues(self):
        """Every eigenvalue, flat in the order of the to_eigen coordinates."""
        g = self.grid
        mu = self._row_eigenvalues(g.k2[self.rows])
        return np.concatenate([np.tile(g.lam**2, 2), mu.ravel()])

    @cached_property
    def weights(self):
        """Multiplicity of each coordinate, flat like eigenvalues: 2 on the
        rows ky > 0, whose -k the mirror fills, 1 on ky = 0, where k and -k
        are both rows."""
        n0 = 2 * self.grid.nz
        return np.concatenate([np.ones(n0), np.repeat(1.0 + (self.rows[1] > 0), n0 - 1)])

    @property
    def beta(self):
        """Smallest eigenvalue: the exponential decay rate of the semigroup."""
        return float(self.eigenvalues.min())

    # -- action -----------------------------------------------------------

    def apply(self, v: SpectralField) -> SpectralField:
        """A v for v on the constraint manifold (projects input and output)."""
        vc = constrain(v)
        lam = self.grid.laplace_symbol
        return constrain(SpectralField(self.grid, lam[None] * vc.coeffs))

    # -- eigenbasis coordinates (for Duhamel integrals and implicit steps) --

    def eigenvalues_split(self):
        """(k=0 diagonal eigenvalues, eigenvalues of the k != 0 rows): views of eigenvalues.

        The package reads the flat eigenvalues; this pair is kept only for
        perfbench's set-up hook and per-layer sweep.
        """
        n0 = 2 * self.grid.nz
        return self.eigenvalues[:n0], self.eigenvalues[n0:].reshape(-1, n0 - 1)

    def to_eigen(self, f: SpectralField):
        """Coordinates of the constrained part of the real field f in the A-eigenbasis.

        Only k = 0 and the rows are read, so f is taken to be Hermitian.  The
        basis is orthogonal to the constraint normal: no projection is needed.
        """
        if f.components != 2:
            raise ConfigurationError("the Stokes operator acts on 2-component velocities")
        nz = self.grid.nz
        u, v = f.coeffs[:, self.rows[0], self.rows[1]]
        kx, ky = self._khat
        y = np.empty((len(kx), 2 * nz - 1), complex)
        np.subtract(kx * v, ky * u, out=y[:, :nz])
        np.matmul(kx * u + ky * v, self._along_basis[1], out=y[:, nz:])
        return f.coeffs[:, 0, 0].flatten(), y

    def from_eigen(self, y0, y) -> SpectralField:
        """The real field with coordinates (y0, y), zero on the Nyquist lines."""
        g = self.grid
        nz, h, ix, iy = g.nz, g.nx // 2, *self.rows
        kx, ky = self._khat
        across = y[:, :nz]
        along = y[:, nz:] @ self._along_basis[1].T
        c = np.empty((2, g.nx, g.ny, nz), complex)
        c[:, 0, 0] = np.reshape(y0, (2, nz))
        c[0, ix, iy] = kx * along - ky * across
        c[1, ix, iy] = ky * along + kx * across
        c[:, ~g.off_nyquist] = 0.0
        # ky < 0: conj of -k, rows reversed and rolled by one
        neg, pos = slice(g.ny // 2 + 1, None), slice(g.ny // 2 - 1, 0, -1)
        np.conjugate(c[:, :1, pos], out=c[:, :1, neg])
        np.conjugate(c[:, :h:-1, pos], out=c[:, 1:h, neg])
        np.conjugate(c[:, h - 1:0:-1, pos], out=c[:, h + 1:, neg])
        return SpectralField(g, c)

    def to_eigen_flat(self, f: SpectralField):
        """to_eigen's coordinates as one flat vector, in the order of eigenvalues."""
        y0, y = self.to_eigen(f)
        return np.concatenate([y0, y.ravel()])

    def from_eigen_flat(self, y):
        """The real field with flat coordinates y (inverse of to_eigen_flat)."""
        n0 = 2 * self.grid.nz
        return self.from_eigen(y[:n0], y[n0:].reshape(-1, n0 - 1))

    def norm(self, y):
        """((h/2) sum w |y|^2)^(1/2): the L^2 norm of the field with flat coordinates y."""
        return float(np.sqrt(self.grid.h / 2 * (self.weights @ np.abs(y) ** 2)))

    def _spectral_map(self, fn, f: SpectralField) -> SpectralField:
        """fn(A) applied to the constrained part of f, for a scalar function fn.

        f = H1 + i H2 with real H1 = hermitize(f), H2 = hermitize(-i f), and
        fn = p + i q acts as (p(A) H1 - q(A) H2) + i (q(A) H1 + p(A) H2).
        """
        p = fn(self.eigenvalues)
        h1, h2 = (self.to_eigen_flat(hermitize(x)) for x in (f, -1j * f))
        re = self.from_eigen_flat(p.real * h1 - p.imag * h2)
        im = self.from_eigen_flat(p.imag * h1 + p.real * h2)
        return re + 1j * im

    # -- semigroup and shifted solves --------------------------------------

    def semigroup_apply(self, t, f: SpectralField) -> SpectralField:
        """exp(-tA) applied to the constrained part of f."""
        if t < 0:
            raise DomainError(f"semigroup time must be >= 0, got {t}")
        return self._spectral_map(lambda mu: np.exp(-t * mu), f)

    def solve_shifted(self, c, f: SpectralField) -> SpectralField:
        """(I + c A)^{-1} f for c > -1/max eigenvalue (f projected internally)."""
        return self._spectral_map(lambda mu: 1 / (1 + c * mu), f)

    # -- resolvent ---------------------------------------------------------

    def resolvent_solve(self, lam, f: SpectralField):
        """Solve (lam + A) v = P f; returns (v, pi).

        pi is the surface pressure balancing the residual of the full
        momentum equation at each wavenumber.
        """
        g = self.grid
        lam = complex(lam)
        dist = np.abs(lam + self.eigenvalues)
        if dist.min() <= 1e-12 * max(1.0, abs(lam)):
            raise SingularResolventError(
                f"lambda = {lam} lies in (or within rounding of) the spectrum"
            )
        v = self._spectral_map(lambda mu: 1 / (lam + mu), f)
        # pressure from the momentum residual r = P f - (lam + Lambda) v,
        # which is parallel to the constraint normal k (x) a: pi solves
        # Delta_H pi = div_H of its vertical average over 2 a.a
        a = g.avg_factor
        r = constrain(f) - SpectralField(g, (lam + g.laplace_symbol) * v.coeffs)
        return v, solve_surface_poisson((0.5 / (a @ a)) * vertical_average(r))

    # -- reports -----------------------------------------------------------

    def spectrum(self) -> SpectrumReport:
        """Eigenvalues per wavenumber off the Nyquist lines, ascending at each k != 0."""
        g = self.grid
        ix, iy = np.nonzero(g.off_nyquist & (g.k2 > 0))
        mu = np.sort(self._row_eigenvalues(g.k2[ix, iy]), axis=1)
        entries = [((0, 0), self.eigenvalues[:2 * g.nz].copy())]
        entries += [((int(g.kx[i]), int(g.ky[j])), row) for i, j, row in zip(ix, iy, mu)]
        return SpectrumReport(beta=self.beta, entries=tuple(entries))

    def sector_sweep(self, eps, lambdas=None) -> SectorSweepReport:
        """M(lambda) = |lambda| ||(lambda + A)^{-1}|| over a sector sweep."""
        if not 0 < eps < np.pi / 2:
            raise DomainError(f"sector opening eps must lie in (0, pi/2), got {eps}")
        if lambdas is None:
            radii = np.logspace(-3, 6, 19)
            args = np.linspace(0.0, np.pi - eps, 7)
            lambdas = [r * np.exp(1j * th) for r in radii for th in args]
        evs = self.eigenvalues
        rows = []
        for lam in lambdas:
            m = float(np.max(np.abs(lam) / np.abs(lam + evs)))
            rows.append((complex(lam), m))
        return SectorSweepReport(eps=eps, rows=tuple(rows), sup_m=max(m for _, m in rows))

    def smoothing_probe(self, theta1, theta2, t_samples, f: SpectralField) -> SmoothingReport:
        """sup_t t^theta1 e^(beta t) ||exp(-tA) f||_{H^{2(theta1+theta2)}} / ||f||_{H^{2 theta2}}."""
        if theta1 < 0 or theta2 < 0 or theta1 + theta2 > 1:
            raise DomainError("need theta1, theta2 >= 0 with theta1 + theta2 <= 1")
        fc = constrain(f)
        denom = sobolev_norm(fc, 2 * theta2)
        beta = self.beta
        rows = []
        for t in t_samples:
            num = sobolev_norm(self.semigroup_apply(t, fc), 2 * (theta1 + theta2))
            g = (t**theta1) * np.exp(beta * t) * num / denom
            rows.append((float(t), float(g)))
        return SmoothingReport(theta1, theta2, tuple(rows), max(g for _, g in rows))
