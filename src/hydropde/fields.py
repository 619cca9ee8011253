"""Field representations, transforms, and norms.

Three containers share a Grid:

  SpectralField  complex coefficients over (component, kx, ky, m)
  PhysicalField  real values over (component, x_i, y_j, z_q)
  AveragedField  complex coefficients over (component, kx, ky), z-independent

A coefficient c at wavenumber k multiplies exp(2*pi*i*k.x) directly
(forward normalization), and the physical field of any c is the real part of
that sum.  The horizontal transforms run on a block of the Hermitian ky >= 0
half (all of it, or Grid.dealias_block): zero-fill along kx, ifft along x
and irfft along y one way, rfft along y and fft along x back, and the ky < 0
half follows from conjugate symmetry.  The vertical transform evaluates or
projects onto the cosine basis phi_m(z); its forward direction goes through a
Gram solve, so round trips are exact to rounding at any quadrature resolution.

Norm conventions: for vector fields the pointwise magnitude is the Euclidean
norm over components, then the L^p quadrature is taken over the box; the
L^p norms raise the squared magnitude |f|^2 to the power p/2.  With
|G| = 1 the total measure is h, so a constant c has L^p norm |c| h^(1/p).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .grid import Grid


def _check_shape(array, tail, what):
    if array.shape[1:] != tail or array.shape[0] not in (1, 2):
        raise ConfigurationError(
            f"{what}: expected shape (1 or 2 components,) + {tail}, got {array.shape}"
        )


class _Linear:
    """Vector-space operations of a field on its one array, named by _array."""

    def _other(self, other):
        _require_same_grid(self, other, type(self))
        return getattr(other, self._array)

    @property
    def components(self):
        return getattr(self, self._array).shape[0]

    def __add__(self, other):
        return type(self)(self.grid, getattr(self, self._array) + self._other(other))

    def __sub__(self, other):
        return type(self)(self.grid, getattr(self, self._array) - self._other(other))

    def __mul__(self, scalar):
        return type(self)(self.grid, getattr(self, self._array) * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return type(self)(self.grid, -getattr(self, self._array))


@dataclass(frozen=True)
class SpectralField(_Linear):
    """Coefficient tensor c[comp, kx, ky, m] of sum c exp(2 pi i k.x) phi_m(z)."""

    grid: Grid
    coeffs: np.ndarray
    _array = "coeffs"

    def __post_init__(self):
        _check_shape(self.coeffs, (self.grid.nx, self.grid.ny, self.grid.nz), "SpectralField")
        if not np.iscomplexobj(self.coeffs):
            object.__setattr__(self, "coeffs", self.coeffs.astype(complex))


@dataclass(frozen=True)
class PhysicalField(_Linear):
    """Collocation values f[comp, x_i, y_j, z_q] on the quadrature grid."""

    grid: Grid
    values: np.ndarray
    _array = "values"

    def __post_init__(self):
        _check_shape(self.values, (self.grid.nx, self.grid.ny, self.grid.nzq), "PhysicalField")


@dataclass(frozen=True)
class AveragedField(_Linear):
    """z-independent field on G as Fourier coefficients c[comp, kx, ky]."""

    grid: Grid
    coeffs: np.ndarray
    _array = "coeffs"

    def __post_init__(self):
        _check_shape(self.coeffs, (self.grid.nx, self.grid.ny), "AveragedField")
        if not np.iscomplexobj(self.coeffs):
            object.__setattr__(self, "coeffs", self.coeffs.astype(complex))

    def l2_norm(self):
        """L^2(G) norm (unit-area horizontal box)."""
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))


def _require_same_grid(a, b, cls):
    if not isinstance(b, cls):
        raise ConfigurationError(f"cannot combine {type(a).__name__} with {type(b).__name__}")
    if a.grid != b.grid:
        raise ConfigurationError("fields live on different grids")


def zeros_spectral(grid, components=2):
    return SpectralField(grid, np.zeros((components, grid.nx, grid.ny, grid.nz), complex))


# -- transforms ----------------------------------------------------------


def hermitian_block(grid, coeffs, modes, block):
    """(c(k) + conj(c(-k))) / 2 of coeffs[..., :modes] on a block, a new array.

    block is (rows, K), the whole half or Grid.dealias_block; coeffs is
    (..., kx, ky, m) and the result is mode-major, (..., m, rows, K).  On the
    whole half it is the spectrum of the real field Re(sum c exp(2 pi i k.x)).
    """
    (ix, iy), (rows, K) = grid.neg_k, block
    c = np.moveaxis(coeffs[..., :modes], -1, -3)
    herm = np.conj(c[..., ix[rows], iy[:, :K]])
    herm += c[..., rows, :K]
    herm *= 0.5
    return herm


def half_to_planes(grid, half):
    """Real planes (..., m, x_i, y_j) of a Hermitian half (..., m, nx, K).

    Consumes half: the inverse transform along x runs in place on it.
    """
    np.fft.ifft(half, axis=-2, norm="forward", out=half)
    return np.fft.irfft(half, grid.ny, norm="forward")


def planes_to_coeffs(grid, planes, block):
    """Coefficients (..., kx, ky, nz) on a block of real planes (..., m, x_i, y_j).

    One rfft along y, one fft along x on its first K columns; c is 0 outside
    the block and its ky < 0 mirror c(-k) = conj(c(k)).
    """
    (ix, iy), (rows, K), nyh, m = grid.neg_k, block, grid.ny // 2 + 1, planes.shape[-3]
    half = np.fft.fft(np.fft.rfft(planes, norm="forward")[..., :K], axis=-2, norm="forward")
    c = np.zeros(half.shape[:-3] + (grid.nx, grid.ny, grid.nz), complex)
    c[..., rows, :K, :m] = np.moveaxis(half[..., rows, :], -3, -1)
    c[..., nyh:, :m] = np.conj(c[..., ix, iy[:, nyh:], :m])
    return c


def synthesize(grid, coeffs, table) -> PhysicalField:
    """Values at the collocation nodes of coefficients (comp, kx, ky, m).

    table maps the modes to the nodes, shape (modes, nzq): grid.nodes.cos for
    the field itself, .dz for its z-derivative, .wint for its integral from
    z to 0.  The Hermitian half of the mode planes goes through the
    inverse transform and the real table is applied to the real planes, so
    the result is Re(sum c exp(2 pi i k.x) phi_m) for any c.
    """
    block = slice(None), grid.ny // 2 + 1
    herm = hermitian_block(grid, coeffs, table.shape[0], block)
    return PhysicalField(grid, np.tensordot(half_to_planes(grid, herm), table, (1, 0)))


def to_physical(f: SpectralField) -> PhysicalField:
    return synthesize(f.grid, f.coeffs, f.grid.nodes.cos)


def to_spectral(g: PhysicalField) -> SpectralField:
    """Cosine-Fourier coefficients of collocation values.

    The inverse of synthesize with grid.nodes.cos: the real node values are
    projected onto the vertical modes first (Grid.vertical_to_modes), then
    the nz mode planes go through the forward transform (planes_to_coeffs).
    """
    modes = g.grid.vertical_to_modes(g.values)
    block = slice(None), g.grid.ny // 2 + 1
    return SpectralField(g.grid, planes_to_coeffs(g.grid, np.moveaxis(modes, -1, -3), block))


def hermitize(f: SpectralField) -> SpectralField:
    """Project onto the Hermitian-symmetric (real physical field) part.

    Done in coefficient space, c(k) -> (c(k) + conj(c(-k))) / 2, so modes
    outside the support of f stay exactly zero.
    """
    ix, iy = f.grid.neg_k
    return SpectralField(f.grid, 0.5 * (f.coeffs + np.conj(f.coeffs[:, ix, iy])))


def random_spectral(grid, components, rng, kmax=None, mmax=None, amplitude=1.0):
    """Random Hermitian field on |kx|, |ky| <= kmax (nx/4, ny/4), m < mmax (nz/2), from rng."""
    kx_max, ky_max = (grid.nx // 4, grid.ny // 4) if kmax is None else (kmax, kmax)
    mmax = max(grid.nz // 2, 1) if mmax is None else mmax
    shape = (components, grid.nx, grid.ny, grid.nz)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    keep = (
        (np.abs(grid.kx)[:, None, None] <= kx_max)
        & (np.abs(grid.ky)[None, :, None] <= ky_max)
        & (np.arange(grid.nz)[None, None, :] < mmax)
    )
    c *= keep
    return amplitude * hermitize(SpectralField(grid, c))


# -- vertical structure ---------------------------------------------------


def vertical_average(f: SpectralField) -> AveragedField:
    """(1/h) int_{-h}^0 f dz, exact from int phi_m = (-1)^m / lam_m."""
    return AveragedField(f.grid, f.coeffs @ f.grid.avg_factor)


def fluctuation(f: SpectralField, out=None) -> SpectralField:
    """f minus the in-basis representative of its vertical average.

    The subtracted profile is the least-squares representation of a
    z-constant within the retained cosine modes, scaled so its own vertical
    average reproduces vertical_average(f) exactly.  This makes
    vertical_average(fluctuation(f)) vanish identically.  out, as in numpy,
    receives the coefficients; f.coeffs itself forms the fluctuation in place.
    """
    g = f.grid
    a = g.avg_factor
    avg = f.coeffs @ a
    profile = a / np.sum(a**2)
    return SpectralField(g, np.subtract(f.coeffs, avg[..., None] * profile, out=out))


# -- norms ----------------------------------------------------------------


def lp_norm(f: PhysicalField, p) -> float:
    """L^p(Omega) norm by quadrature; p = inf takes the max over nodes."""
    if p != np.inf and p < 1:
        raise DomainError(f"lp_norm requires p >= 1, got {p}")
    mag2 = np.einsum("c...,c...->...", f.values, f.values)
    if p == np.inf:
        return float(np.sqrt(mag2.max(initial=0.0)))
    g = f.grid
    hw = 1.0 / (g.nx * g.ny)
    mag2 **= p / 2
    total = hw * np.sum(mag2 @ g.nodes.w)
    return float(total ** (1.0 / p))


def l2_norm(f: SpectralField) -> float:
    """L^2(Omega) norm via Parseval: ||f||^2 = (h/2) sum |c|^2."""
    return float(np.sqrt(f.grid.h / 2 * np.sum(np.abs(f.coeffs) ** 2)))


def l2_inner(f: SpectralField, g: SpectralField) -> float:
    """Real L^2(Omega) inner product of two real (Hermitian) fields."""
    _require_same_grid(f, g, SpectralField)
    return float(f.grid.h / 2 * np.sum(f.coeffs.conj() * g.coeffs).real)


def sobolev_norm(f: SpectralField, s) -> float:
    """Spectral H^s-equivalent norm, multiplier (1 + 4 pi^2 |k|^2 + lam_m^2)^s."""
    if not 0 <= s <= 2:
        raise DomainError(f"sobolev_norm requires s in [0, 2], got {s}")
    g = f.grid
    w = g.sobolev_symbol**s
    return float(np.sqrt(g.h / 2 * np.sum(w * np.abs(f.coeffs) ** 2)))
