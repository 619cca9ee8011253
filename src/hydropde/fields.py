"""Field representations, transforms, and norms.

Three containers share a Grid:

  SpectralField  complex coefficients over (component, kx, ky, m)
  PhysicalField  real values over (component, x_i, y_j, z_q)
  AveragedField  complex coefficients over (component, kx, ky), z-independent

The horizontal transform is the standard FFT with forward normalization, so
a coefficient c at wavenumber k multiplies exp(2*pi*i*k.x) directly.  The
vertical transform evaluates or projects onto the cosine basis phi_m(z); the
forward direction goes through a Gram solve so that round trips are exact to
rounding regardless of quadrature resolution.

Norm conventions: for vector fields the pointwise magnitude is the Euclidean
norm over components, then the L^p quadrature is taken over the box.  With
|G| = 1 the total measure is h, so a constant c has L^p norm |c| h^(1/p).
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DomainError
from .grid import Grid


def _check_shape(array, tail, what):
    expected = array.shape[1:] if array.ndim == len(tail) + 1 else None
    if array.ndim != len(tail) + 1 or expected != tail:
        raise ConfigurationError(
            f"{what}: expected shape (components,) + {tail}, got {array.shape}"
        )
    if array.shape[0] not in (1, 2):
        raise ConfigurationError(
            f"{what}: component count must be 1 or 2, got {array.shape[0]}"
        )


@dataclass(frozen=True)
class SpectralField:
    """Coefficient tensor c[comp, kx, ky, m] of sum c exp(2 pi i k.x) phi_m(z)."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        g = self.grid
        _check_shape(self.coeffs, (g.nx, g.ny, g.nz), "SpectralField")
        if not np.iscomplexobj(self.coeffs):
            object.__setattr__(self, "coeffs", self.coeffs.astype(complex))

    @property
    def components(self):
        return self.coeffs.shape[0]

    def __add__(self, other):
        _require_same_grid(self, other, SpectralField)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _require_same_grid(self, other, SpectralField)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralField(self.grid, -self.coeffs)

    def copy(self):
        return replace(self, coeffs=self.coeffs.copy())


@dataclass(frozen=True)
class PhysicalField:
    """Collocation values f[comp, x_i, y_j, z_q] on the quadrature grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        g = self.grid
        _check_shape(self.values, (g.nx, g.ny, g.nzq), "PhysicalField")

    @property
    def components(self):
        return self.values.shape[0]

    def __add__(self, other):
        _require_same_grid(self, other, PhysicalField)
        return PhysicalField(self.grid, self.values + other.values)

    def __sub__(self, other):
        _require_same_grid(self, other, PhysicalField)
        return PhysicalField(self.grid, self.values - other.values)

    def __mul__(self, scalar):
        return PhysicalField(self.grid, self.values * scalar)

    __rmul__ = __mul__


@dataclass(frozen=True)
class AveragedField:
    """z-independent field on G as Fourier coefficients c[comp, kx, ky]."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        g = self.grid
        _check_shape(self.coeffs, (g.nx, g.ny), "AveragedField")
        if not np.iscomplexobj(self.coeffs):
            object.__setattr__(self, "coeffs", self.coeffs.astype(complex))

    @property
    def components(self):
        return self.coeffs.shape[0]

    def __add__(self, other):
        _require_same_grid(self, other, AveragedField)
        return AveragedField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _require_same_grid(self, other, AveragedField)
        return AveragedField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return AveragedField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return AveragedField(self.grid, -self.coeffs)

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


def synthesize(grid, coeffs, table) -> PhysicalField:
    """Values at the collocation nodes of coefficients (comp, kx, ky, m).

    table maps the modes to the nodes, shape (nz, nzq): cos_table for the
    field itself, dz_table for its z-derivative, w_table for its integral
    from z to 0.  The inverse horizontal FFT runs first, on the nz mode
    planes, and the real table is applied to its real part; applying the
    table first would transform all nzq node planes in complex arithmetic.
    This is the only spectral-to-physical transform.
    """
    planes = np.fft.ifft2(coeffs, axes=(1, 2), norm="forward").real
    return PhysicalField(grid, planes @ table)


def to_physical(f: SpectralField) -> PhysicalField:
    return synthesize(f.grid, f.coeffs, f.grid.cos_table)


def to_spectral(g: PhysicalField) -> SpectralField:
    """Cosine-Fourier coefficients of collocation values.

    The inverse of synthesize with cos_table: the real node values are
    projected onto the vertical modes first (Grid.vertical_to_modes), then
    the forward horizontal FFT runs on the nz mode planes.  This is the only
    physical-to-spectral transform.
    """
    modes = g.grid.vertical_to_modes(g.values)
    return SpectralField(g.grid, np.fft.fft2(modes, axes=(1, 2), norm="forward"))


def hermitize(f: SpectralField) -> SpectralField:
    """Project onto the Hermitian-symmetric (real physical field) part.

    Done in coefficient space, c(k) -> (c(k) + conj(c(-k))) / 2, so modes
    outside the support of f stay exactly zero.
    """
    c = f.coeffs
    rev = np.conj(np.roll(np.flip(c, axis=(1, 2)), 1, axis=(1, 2)))
    return SpectralField(f.grid, 0.5 * (c + rev))


def random_spectral(grid, components, rng, kmax=None, mmax=None, amplitude=1.0):
    """Random Hermitian-symmetric band-limited field (deterministic under rng)."""
    kmax = grid.nx // 4 if kmax is None else kmax
    mmax = max(grid.nz // 2, 1) if mmax is None else mmax
    shape = (components, grid.nx, grid.ny, grid.nz)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    keep = (
        (np.abs(grid.kx)[:, None, None] <= kmax)
        & (np.abs(grid.ky)[None, :, None] <= kmax)
        & (np.arange(grid.nz)[None, None, :] < mmax)
    )
    c *= keep
    return amplitude * hermitize(SpectralField(grid, c))


# -- vertical structure ---------------------------------------------------


def vertical_average(f: SpectralField) -> AveragedField:
    """(1/h) int_{-h}^0 f dz, exact from int phi_m = (-1)^m / lam_m."""
    return AveragedField(f.grid, f.coeffs @ f.grid.avg_factor)


def fluctuation(f: SpectralField) -> SpectralField:
    """f minus the in-basis representative of its vertical average.

    The subtracted profile is the least-squares representation of a
    z-constant within the retained cosine modes, scaled so its own vertical
    average reproduces vertical_average(f) exactly.  This makes
    vertical_average(fluctuation(f)) vanish identically.
    """
    g = f.grid
    a = g.avg_factor
    avg = f.coeffs @ a
    profile = a / np.sum(a**2)
    return SpectralField(g, f.coeffs - avg[..., None] * profile)


def diagnostic_w(v: SpectralField) -> PhysicalField:
    """Vertical velocity w(x,y,z) = int_z^0 div_H v dzeta.

    Computed per wavenumber from the exact antiderivative
    int_z^0 cos(lam_m zeta) dzeta = -sin(lam_m z)/lam_m, then sampled at the
    quadrature nodes.  w vanishes at z = 0 identically; at z = -h it equals
    h * div_H of the vertical average.
    """
    g = v.grid
    if v.components != 2:
        raise ConfigurationError("diagnostic_w needs a 2-component velocity")
    divc = _horizontal_divergence_coeffs(v)
    return synthesize(g, divc[None], g.w_table)


def diagnostic_w_bottom(v: SpectralField) -> AveragedField:
    """w evaluated at z = -h, as a scalar field on G (equals h div_H vbar)."""
    g = v.grid
    divc = _horizontal_divergence_coeffs(v)
    signs = np.where(np.arange(g.nz) % 2 == 0, 1.0, -1.0)
    bottom = divc @ (signs / g.lam)
    return AveragedField(g, bottom[None, :, :])


def averaged_to_physical(f: AveragedField) -> PhysicalField:
    """Broadcast a z-independent field onto the 3D collocation grid."""
    g = f.grid
    return synthesize(g, f.coeffs[..., None], np.ones((1, g.nzq)))


def _horizontal_divergence_coeffs(v):
    g = v.grid
    return 2j * np.pi * (
        g.kx[:, None, None] * v.coeffs[0] + g.ky[None, :, None] * v.coeffs[1]
    )


# -- norms ----------------------------------------------------------------


def _pointwise_magnitude(f: PhysicalField):
    if f.components == 1:
        return np.abs(f.values[0])
    return np.sqrt(np.sum(f.values**2, axis=0))


def lp_norm(f: PhysicalField, p) -> float:
    """L^p(Omega) norm by quadrature; p = inf takes the max over nodes."""
    if p != np.inf and p < 1:
        raise DomainError(f"lp_norm requires p >= 1, got {p}")
    mag = _pointwise_magnitude(f)
    if p == np.inf:
        return float(mag.max(initial=0.0))
    g = f.grid
    hw = 1.0 / (g.nx * g.ny)
    total = hw * np.sum(mag**p @ g.wq)
    return float(total ** (1.0 / p))


def mixed_norm(f: PhysicalField, q_z, p_xy) -> float:
    """Anisotropic norm: L^{p_xy} over each horizontal slice, then L^{q_z} in z."""
    for label, e in (("q_z", q_z), ("p_xy", p_xy)):
        if e != np.inf and e < 1:
            raise DomainError(f"mixed_norm requires {label} >= 1, got {e}")
    g = f.grid
    mag = _pointwise_magnitude(f)
    hw = 1.0 / (g.nx * g.ny)
    if p_xy == np.inf:
        slab = mag.max(axis=(0, 1))
    else:
        slab = (hw * np.sum(mag**p_xy, axis=(0, 1))) ** (1.0 / p_xy)
    if q_z == np.inf:
        return float(slab.max(initial=0.0))
    return float(np.sum(g.wq * slab**q_z) ** (1.0 / q_z))


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


def grad_norm(f: SpectralField) -> float:
    """||grad f||_{L^2(Omega)} including the vertical derivative."""
    g = f.grid
    return float(np.sqrt(g.h / 2 * np.sum(g.laplace_symbol * np.abs(f.coeffs) ** 2)))
