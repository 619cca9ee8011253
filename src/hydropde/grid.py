"""Computational grid for the periodic-in-horizontal ocean box.

The domain is G x (-h, 0) with G = (0,1)^2 fully periodic.  Horizontal
directions use an integer-wavenumber Fourier basis exp(2*pi*i*k.x).  The
vertical direction uses the cosine family

    phi_m(z) = cos(lam_m * z),   lam_m = (m + 1/2) * pi / h,

which satisfies phi_m'(0) = 0 and phi_m(-h) = 0 exactly, so the rigid-lid /
no-slip-bottom boundary conditions are built into the basis.  Vertical
quadrature is Gauss-Legendre on (-h, 0); the node count is chosen so that
triple products of basis functions integrate to near machine precision
(needed for the discrete energy-neutrality of the advection term).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class Grid:
    """Mode counts and geometry of the discretization.

    nx, ny : horizontal Fourier mode counts (even, >= 4)
    nz     : number of vertical cosine modes (>= 2)
    h      : layer depth (> 0); vertical domain is (-h, 0)
    dealias_fraction : f in (0, 1]; advect keeps |k| < f n / 2, m < f nz (all at f = 1)
    """

    nx: int
    ny: int
    nz: int
    h: float = 1.0
    dealias_fraction: float = 2.0 / 3.0

    def __post_init__(self):
        if self.nx < 4 or self.nx % 2 or self.ny < 4 or self.ny % 2:
            raise ConfigurationError(
                f"horizontal mode counts must be even and >= 4, got {self.nx}x{self.ny}"
            )
        if self.nz < 2:
            raise ConfigurationError(f"nz must be >= 2, got {self.nz}")
        if not self.h > 0:
            raise ConfigurationError(f"layer depth must be positive, got {self.h}")
        if not 0 < self.dealias_fraction <= 1:
            raise ConfigurationError(
                f"dealias_fraction must lie in (0, 1], got {self.dealias_fraction}"
            )

    # -- vertical basis -------------------------------------------------

    @cached_property
    def lam(self):
        """Vertical wavenumbers lam_m = (m + 1/2) pi / h."""
        return (np.arange(self.nz) + 0.5) * np.pi / self.h

    @cached_property
    def nzq(self):
        """Vertical quadrature node count.

        3*nz + 8 makes Gauss-Legendre exact (to ~1e-14) for products of up
        to three retained basis functions, which the pseudospectral
        nonlinearity and the L^p norms rely on.
        """
        return 3 * self.nz + 8

    @cached_property
    def _vertical_quadrature(self):
        x, w = np.polynomial.legendre.leggauss(self.nzq)
        z = -self.h / 2 + (self.h / 2) * x
        return z, w * (self.h / 2)

    @property
    def zq(self):
        """Quadrature nodes in (-h, 0), ascending."""
        return self._vertical_quadrature[0]

    @property
    def wq(self):
        """Positive quadrature weights summing to h."""
        return self._vertical_quadrature[1]

    @cached_property
    def cos_table(self):
        """cos(lam_m z_q), shape (nz, nzq)."""
        return np.cos(np.outer(self.lam, self.zq))

    @cached_property
    def dz_table(self):
        """dz phi_m at the nodes, -lam_m sin(lam_m z_q), shape (nz, nzq)."""
        return -self.lam[:, None] * np.sin(np.outer(self.lam, self.zq))

    @cached_property
    def w_table(self):
        """int_z^0 phi_m at the nodes, -sin(lam_m z_q) / lam_m, shape (nz, nzq)."""
        return -np.sin(np.outer(self.lam, self.zq)) / self.lam[:, None]

    @cached_property
    def avg_factor(self):
        """(1/h) * int_{-h}^0 phi_m dz = (-1)^m / (lam_m h), shape (nz,)."""
        signs = np.where(np.arange(self.nz) % 2 == 0, 1.0, -1.0)
        return signs / (self.lam * self.h)

    @cached_property
    def _node_to_mode(self):
        # Quadrature projection times the inverse of the quadrature Gram
        # matrix of the normalized basis: the Gram matrix is ~identity, but
        # the solve makes to_spectral(to_physical(.)) exact regardless.
        C = self.cos_table
        B = (2.0 / self.h) * C * self.wq
        return np.linalg.solve(B @ C.T, B).T

    def vertical_to_modes(self, values, modes=None, z_major=False):
        """Project node values onto the cosine coefficients m < modes (all nz).

        The nodes are the last axis, (..., nzq) -> (..., modes), or with
        z_major the second to last, (..., nzq, n) -> (..., modes, n).
        """
        M = self._node_to_mode[:, :modes]
        return M.T @ values if z_major else values @ M

    # -- horizontal wavenumbers -----------------------------------------

    @cached_property
    def kx(self):
        """Integer wavenumbers along x in FFT ordering, shape (nx,)."""
        return np.fft.fftfreq(self.nx, d=1.0 / self.nx).astype(int)

    @cached_property
    def ky(self):
        return np.fft.fftfreq(self.ny, d=1.0 / self.ny).astype(int)

    @cached_property
    def k2(self):
        """4 pi^2 |k|^2 on the (kx, ky) grid."""
        return 4 * np.pi**2 * (
            self.kx[:, None].astype(float) ** 2 + self.ky[None, :].astype(float) ** 2
        )

    @cached_property
    def neg_k(self):
        """Index arrays (ix (nx, 1), iy (1, ny)) of -k: c[..., ix, iy] is c(-k)."""
        return (-np.arange(self.nx))[:, None] % self.nx, (-np.arange(self.ny))[None, :] % self.ny

    @cached_property
    def half_ik(self):
        """2 pi i (kx, ky) on dealias_block, each split (off, on) its Nyquist line.

        On it k is its own negative: herm(i k c) = i k anti(c) there, i k herm(c) off it.
        """
        kx, ky = self.kx[self.dealias_block[0], None], self.ky[None, : self.dealias_block[1]]
        return tuple((2j * np.pi * k * (k != -n // 2), 2j * np.pi * k * (k == -n // 2))
                     for k, n in ((kx, self.nx), (ky, self.ny)))

    @cached_property
    def xg(self):
        return np.arange(self.nx) / self.nx

    # -- dealiasing ------------------------------------------------------

    @cached_property
    def dealias_modes(self):
        """mk, the count of vertical modes m < dealias_fraction * nz kept."""
        return int(np.count_nonzero(np.arange(self.nz) < self.dealias_fraction * self.nz))

    @cached_property
    def dealias_block(self):
        """(rows, K): the kept kx rows in FFT order and the kept ky >= 0 columns 0 .. K-1.

        For f < 1 the kept |k| < f n / 2, so 3 |k| < n at f = 2/3; f = 1 keeps every k.
        """
        f = self.dealias_fraction
        Kx, K = (n // 2 + 1 if f == 1 else int(np.ceil(f * n / 2)) for n in (self.nx, self.ny))
        return np.flatnonzero(np.abs(self.kx) < Kx), K

    @cached_property
    def dealias_mask(self):
        """Boolean keep-mask over (kx, ky, m): the block's rows, |ky| < K and m < mk."""
        rows, K = self.dealias_block
        keep_x = np.isin(np.arange(self.nx), rows)[:, None, None]
        return keep_x & (np.abs(self.ky) < K)[:, None] & (np.arange(self.nz) < self.dealias_modes)

    # -- convenience ------------------------------------------------------

    @cached_property
    def laplace_symbol(self):
        """4 pi^2 |k|^2 + lam_m^2 over (kx, ky, m): the symbol of -Delta."""
        return self.k2[:, :, None] + (self.lam**2)[None, None, :]

    @cached_property
    def sobolev_symbol(self):
        """1 + 4 pi^2 |k|^2 + lam_m^2 over (kx, ky, m)."""
        return 1.0 + self.laplace_symbol
