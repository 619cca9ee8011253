"""Field representations, transforms, and norms.

Three containers share a Grid:

  SpectralField  velocity (u, v): complex coefficients over (component, kx, ky, m)
  PhysicalField  real values over (component, x_i, y_j, z_q)
  AveragedField  complex coefficients over (component, kx, ky), z-independent

A coefficient c at wavenumber k multiplies exp(2*pi*i*k.x) directly
(forward normalization), and the physical field of any c is the real part of
that sum.  The horizontal transforms run on a block of the Hermitian ky >= 0
half (all of it in synthesize, Grid.dealias_block in advect): zero-fill along
kx, ifft along x and irfft along y, and the ky < 0 half by conjugate symmetry.
The vertical synthesis evaluates phi_m(z) at the grid's nodes.  The one forward
transform is advect's: Grid.vertical_to_modes projects its node products onto
m < mk exactly, then planes_to_coeffs takes rfft along y and fft along x.

A real field on the march and Picard paths is held by its half (see
SpectralField).  One mirror maps k to -k, by reversed slices: hermitian_part
reads c(-k), and _unfold writes it when a half's full plane is formed.

Norm conventions: for vector fields the pointwise magnitude is the Euclidean
norm over components, then the L^p quadrature is taken over the box; the
L^p norms raise the squared magnitude |f|^2 to the power p/2.  With
|G| = 1 the total measure is h, so a constant c has L^p norm |c| h^(1/p).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .grid import Grid


def _check_shape(array, tail, what, counts=(1, 2)):
    if array.shape[1:] != tail or array.shape[0] not in counts:
        n = " or ".join(map(str, counts))
        raise ConfigurationError(f"{what}: expected shape ({n} components,) + {tail}, "
                                 f"got {array.shape}")


class _Linear:
    """Vector-space operations of a coefficient field on its coeffs."""

    def _other(self, other):
        if not isinstance(other, type(self)):
            raise ConfigurationError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.grid != other.grid:
            raise ConfigurationError("fields live on different grids")
        return other.coeffs

    @property
    def components(self):
        return self.coeffs.shape[0]

    def __add__(self, other):
        return type(self)(self.grid, self.coeffs + self._other(other))

    def __sub__(self, other):
        return type(self)(self.grid, self.coeffs - self._other(other))

    def __mul__(self, scalar):
        return type(self)(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return type(self)(self.grid, -self.coeffs)


class SpectralField(_Linear):
    """The velocity (u, v): coefficients c[comp, kx, ky, m], comp = 0, 1, of
    sum c exp(2 pi i k.x) phi_m(z); any other component count is refused.

    Built from a full plane, or, in the package only, as SpectralField(grid,
    half=half_array(grid)) from a real field's half: the columns ky = 0 ..
    (ny + 1) // 2 - 1, Nyquist row zero, at the front of a full-plane-sized
    block.  Reading .coeffs unfolds it there in place (ky < 0 by c(-k) =
    conj(c(k)), Nyquist column zero) and keeps it; .half is then its view.
    From a full plane, .half is hermitian_part on those columns, formed on
    each read.  Only F (on advect's fresh half) and fluctuation(r,
    out=r.coeffs) write into a field.
    """

    def __init__(self, grid: Grid, coeffs=None, *, half=None):
        self.grid, self._half, self._coeffs = grid, half, coeffs
        if half is None:
            _check_shape(coeffs, (grid.nx, grid.ny, grid.nz), "SpectralField", (2,))
            self._coeffs = coeffs if np.iscomplexobj(coeffs) else coeffs.astype(complex)

    @property
    def coeffs(self):
        if self._coeffs is None:
            self._coeffs = _unfold(self.grid, self._half)
            self._half = self._coeffs[:, :, :self._half.shape[2]]
        return self._coeffs

    components = 2

    @property
    def half(self):
        if self._half is not None:
            return self._half
        return hermitian_part(self._coeffs, (self.grid.ny + 1) // 2)


@dataclass(frozen=True)
class PhysicalField:
    """Collocation values f[comp, x_i, y_j, z_q] on the quadrature grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        _check_shape(self.values, (self.grid.nx, self.grid.ny, self.grid.nzq), "PhysicalField")


@dataclass(frozen=True)
class AveragedField(_Linear):
    """z-independent field on G as Fourier coefficients c[comp, kx, ky]."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        _check_shape(self.coeffs, (self.grid.nx, self.grid.ny), "AveragedField")
        if not np.iscomplexobj(self.coeffs):
            object.__setattr__(self, "coeffs", self.coeffs.astype(complex))

    def l2_norm(self):
        """L^2(G) norm (unit-area horizontal box)."""
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))


def half_array(grid):
    """The one allocator of halves: (2, nx, (ny + 1) // 2, nz), C-contiguous at
    the front of a block the size of the full plane, its Nyquist row zero."""
    shape = (2, grid.nx, (grid.ny + 1) // 2, grid.nz)
    block = np.empty((2, grid.nx, grid.ny, grid.nz), complex)
    half = block.reshape(-1)[:np.prod(shape)].reshape(shape)
    half[:, grid.nx - grid.nx // 2:grid.nx // 2 + 1] = 0.0
    return half


def hermitian_part(c, n):
    """(c(k) + conj(c(-k))) / 2 on the first n ky columns of full planes c (comp, kx, ky, ...).

    -k by reversed slices: row 0 and column 0 are their own -k, the others run in reverse."""
    ny, h = c.shape[2], np.empty(c.shape[:2] + (n,) + c.shape[3:], complex)
    for dst, src in ((h[:, :1], c[:, :1]), (h[:, 1:], c[:, :0:-1])):
        np.conjugate(src[:, :, :1], out=dst[:, :, :1])
        np.conjugate(src[:, :, :ny - n:-1], out=dst[:, :, 1:])
    h += c[:, :, :n]
    h *= 0.5
    return h


def _unfold(grid, half):
    """The full plane of a half from half_array, formed in place in its block, half.base."""
    c, (comp, nx, n, nz), ny = half.base, half.shape, grid.ny
    dst, src, hi = c.reshape(comp * nx, ny, nz), half.reshape(comp * nx, n, nz), comp * nx
    while hi > 1:  # last rows first, each group onto memory no unmoved row holds
        lo = min(-(-hi * n // ny), hi - 1)
        dst[lo:hi, :n] = src[lo:hi]
        hi = lo
    # ky < 0 from ky > 0 at -kx: row 0 from itself, rows 1 .. nx - 1 reversed
    neg, pos = slice(ny - n + 1, None), slice(n - 1, 0, -1)
    np.conjugate(c[:, :1, pos], out=c[:, :1, neg])
    np.conjugate(c[:, :0:-1, pos], out=c[:, 1:, neg])
    c[:, :, n:ny - n + 1] = c[:, nx - nx // 2:nx // 2 + 1] = 0.0  # Nyquist column, row if even
    return c


# -- transforms ----------------------------------------------------------


def half_to_planes(grid, half):
    """Real planes (..., m, x_i, y_j) of a Hermitian half (..., m, nx, K).

    Consumes half: the inverse transform along x runs in place on it.
    """
    np.fft.ifft(half, axis=-2, norm="forward", out=half)
    return np.fft.irfft(half, grid.ny, norm="forward")


def planes_to_coeffs(grid, planes):
    """The half (comp, kx, ky, nz) on Grid.dealias_block of real planes (comp, m, x_i, y_j).

    One rfft along y, one fft along x on its first K columns; the half from
    half_array is 0 outside the block.
    """
    (rows, K), m = grid.dealias_block, planes.shape[-3]
    half = np.fft.fft(np.fft.rfft(planes, norm="forward")[..., :K], axis=-2, norm="forward")
    c = half_array(grid)
    c.fill(0.0)
    c[:, rows, :K, :m] = np.moveaxis(half[:, :, rows], -3, -1)
    return c


def synthesize(grid, coeffs, table) -> PhysicalField:
    """Values at the collocation nodes of coefficients (comp, kx, ky, m).

    table maps the modes to the nodes, shape (modes, nzq): grid.nodes.cos for
    the field itself, .dz for its z-derivative, .wint for its integral from
    z to 0.  hermitian_part of c on the columns ky >= 0, mode axis first,
    goes through the inverse transform and the real table is applied to the
    real planes, so the result is Re(sum c exp(2 pi i k.x) phi_m) for any c.
    """
    herm = np.moveaxis(hermitian_part(coeffs[..., :table.shape[0]], grid.ny // 2 + 1), -1, -3)
    return PhysicalField(grid, np.tensordot(half_to_planes(grid, herm), table, (1, 0)))


def to_physical(f: SpectralField) -> PhysicalField:
    return synthesize(f.grid, f.coeffs, f.grid.nodes.cos)


def hermitize(f: SpectralField) -> SpectralField:
    """Project onto the Hermitian-symmetric (real physical field) part.

    Done in coefficient space, c(k) -> (c(k) + conj(c(-k))) / 2, so modes
    outside the support of f stay exactly zero.
    """
    return SpectralField(f.grid, hermitian_part(f.coeffs, f.grid.ny))


def random_spectral(grid, components, rng, kmax=None, mmax=None, amplitude=1.0):
    """Random Hermitian field on |kx|, |ky| <= kmax (nx/4, ny/4), m < mmax (nz/2), from rng."""
    if not np.isfinite(amplitude):
        raise ConfigurationError(f"random_spectral amplitude must be finite, got {amplitude}")
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
    if not p >= 1:
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


def sobolev_norm(f: SpectralField, s) -> float:
    """Spectral H^s-equivalent norm, multiplier (1 + 4 pi^2 |k|^2 + lam_m^2)^s."""
    if not 0 <= s <= 2:
        raise DomainError(f"sobolev_norm requires s in [0, 2], got {s}")
    g = f.grid
    w = g.sobolev_symbol**s
    return float(np.sqrt(g.h / 2 * np.sum(w * np.abs(f.coeffs) ** 2)))
