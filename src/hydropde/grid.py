"""Computational grid for the periodic-in-horizontal ocean box.

The domain is G x (-h, 0) with G = (0,1)^2 fully periodic.  Horizontal
directions use an integer-wavenumber Fourier basis exp(2*pi*i*k.x).  The
vertical direction uses the cosine family

    phi_m(z) = cos(lam_m * z),   lam_m = (m + 1/2) * pi / h,

which satisfies phi_m'(0) = 0 and phi_m(-h) = 0 exactly, so the rigid-lid /
no-slip-bottom boundary conditions are built into the basis.  Vertical
quadrature is Gauss-Legendre on (-h, 0); the node count is chosen so that
triple products of basis functions integrate to near machine precision
(needed for the discrete energy-neutrality of the advection term), with a
smaller set for the dealiased modes the advection term keeps.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError


class VerticalNodes:
    """Gauss-Legendre nodes z on (-h, 0), weights w, and the modes lam there.

    cos, dz and wint: phi_m, dz phi_m = -lam_m sin(lam_m z) and int_z^0 phi_m =
    -sin(lam_m z) / lam_m at the nodes, shape (modes, nodes).  to_modes, shape
    (nodes, modes): the quadrature projection times the inverse of the
    ~identity quadrature Gram matrix, so that it inverts the cos synthesis exactly.
    """

    def __init__(self, lam, h, n):
        x, w = np.polynomial.legendre.leggauss(n)
        self.z, self.w = -h / 2 + (h / 2) * x, w * (h / 2)
        self.cos, sin = np.cos(np.outer(lam, self.z)), np.sin(np.outer(lam, self.z))
        self.dz, self.wint = -lam[:, None] * sin, -sin / lam[:, None]
        B = (2.0 / h) * self.cos * self.w
        self.to_modes = np.linalg.solve(B @ self.cos.T, B).T


@dataclass(frozen=True)
class Grid:
    """Mode counts and geometry of the discretization.

    nx, ny : horizontal Fourier mode counts (even, >= 4)
    nz     : number of vertical cosine modes (>= 2)
    h      : layer depth (finite, > (nz - 1/2) pi 1e-77); vertical domain is (-h, 0)
    dealias_fraction : f in (0, 1]; advect keeps |k| < f n / 2 and m < f nz
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
        # below hmin the top mode's lam = (nz - 1/2) pi / h passes 1e77: its H^2
        # weight (1 + 4 pi^2 |k|^2 + lam^2)^2 and the vertical eigenproblem overflow
        hmin = (self.nz - 0.5) * np.pi * 1e-77
        if not (np.isfinite(self.h) and self.h > hmin):
            raise ConfigurationError(f"layer depth h must be finite and > {hmin:.3g}, "
                                     f"got {self.h}")
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
        """Vertical quadrature node count of the grid (the L^p norms use it).

        3*nz + 8 integrates products of three basis functions to ~1e-13, not
        1e-14: at f = 1, advect is 2-5e-13 off a 6*nz + 40-node reference.
        """
        return 3 * self.nz + 8

    @cached_property
    def nodes(self):
        """The grid's vertical node set: nzq nodes, the tables of all nz modes."""
        return VerticalNodes(self.lam, self.h, self.nzq)

    @cached_property
    def advect_nodes(self):
        """advect's set: min(3 mk + 12, nzq) nodes for m < mk; nodes itself at nzq (f = 1).

        3 mk + 8 would be 7e-13 off a 6*nz + 40-node reference at nz <= 16.
        """
        mk = self.dealias_modes
        n = min(3 * mk + 12, self.nzq)
        return self.nodes if n == self.nzq else VerticalNodes(self.lam[:mk], self.h, n)

    @cached_property
    def avg_factor(self):
        """(1/h) * int_{-h}^0 phi_m dz = (-1)^m / (lam_m h), shape (nz,)."""
        signs = np.where(np.arange(self.nz) % 2 == 0, 1.0, -1.0)
        return signs / (self.lam * self.h)

    def vertical_to_modes(self, values, modes=None, z_major=False):
        """Project node values onto the cosine coefficients m < modes (all).

        The nodes are the last axis, (..., nodes) -> (..., modes), or with
        z_major the second to last, (..., nodes, n) -> (..., modes, n).  Its
        length picks the node set: nzq nodes are the grid's, others advect's.
        """
        n = values.shape[-2 if z_major else -1]
        M = (self.nodes if n == self.nzq else self.advect_nodes).to_modes[:, :modes]
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
    def off_nyquist(self):
        """(nx, ny) mask of the velocity space's wavenumbers: all but the Nyquist
        row kx = -nx/2 and column ky = -ny/2, whose -k is on the same line."""
        return (self.kx != -self.nx // 2)[:, None] & (self.ky != -self.ny // 2)

    @cached_property
    def half_ik(self):
        """2 pi i kx (rows, 1) and 2 pi i ky (1, K) on dealias_block."""
        rows, K = self.dealias_block
        return 2j * np.pi * self.kx[rows, None], 2j * np.pi * self.ky[None, :K]

    # -- dealiasing ------------------------------------------------------

    @cached_property
    def dealias_modes(self):
        """mk, the count of vertical modes m < dealias_fraction * nz kept."""
        return int(np.count_nonzero(np.arange(self.nz) < self.dealias_fraction * self.nz))

    @cached_property
    def dealias_block(self):
        """(rows, K): the kept kx rows in FFT order and the kept ky >= 0 columns 0 .. K-1.

        The kept |k| < f n / 2, so 3 |k| < n at f = 2/3 and, at f = 1, every
        wavenumber off the Nyquist lines.
        """
        Kx, K = (int(np.ceil(self.dealias_fraction * n / 2)) for n in (self.nx, self.ny))
        return np.flatnonzero(np.abs(self.kx) < Kx), K

    # -- convenience ------------------------------------------------------

    @cached_property
    def laplace_symbol(self):
        """4 pi^2 |k|^2 + lam_m^2 over (kx, ky, m): the symbol of -Delta."""
        return self.k2[:, :, None] + (self.lam**2)[None, None, :]

    @cached_property
    def sobolev_symbol(self):
        """1 + 4 pi^2 |k|^2 + lam_m^2 over (kx, ky, m)."""
        return 1.0 + self.laplace_symbol
