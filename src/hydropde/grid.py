"""Computational grid for the periodic-in-horizontal ocean box.

The domain is G x (-h, 0) with G = (0,1)^2 fully periodic.  Horizontal
directions use an integer-wavenumber Fourier basis exp(2*pi*i*k.x).  The
vertical direction uses the cosine family

    phi_m(z) = cos(lam_m * z),   lam_m = (m + 1/2) * pi / h,

which satisfies phi_m'(0) = 0 and phi_m(-h) = 0 exactly, so the rigid-lid /
no-slip-bottom boundary conditions are built into the basis.  Vertical
quadrature is Gauss-Legendre on (-h, 0); the node count is chosen so that
triple products of basis functions integrate to within ~1e-12 h.
The advection term projects its products of the dealiased modes exactly on
a smaller set, Gauss-Legendre in t = -sin(pi z / 2h).
"""

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError


class VerticalNodes:
    """Nodes z on (-h, 0), weights w, and the modes lam there.

    cos, dz and wint: phi_m, dz phi_m = -lam_m sin(lam_m z) and int_z^0 phi_m =
    -sin(lam_m z) / lam_m at the nodes, shape (modes, nodes).  to_modes, shape
    (nodes, modes): the quadrature projection (2/h) w cos onto the modes.
    """

    def __init__(self, lam, h, z, w):
        self.z, self.w = z, w
        self.cos, sin = np.cos(np.outer(lam, z)), np.sin(np.outer(lam, z))
        self.dz, self.wint = -lam[:, None] * sin, -sin / lam[:, None]
        self.to_modes = ((2.0 / h) * self.cos * w).T


def _gauss_half(n):
    """s = 1 - t and the weights W of the n-point Gauss-Legendre rule at its nodes t >= 0.

    leggauss leaves s near t = 1 only ~1e-13 relative and its weights up to
    ~1e-12 off, so Newton steps on P_n(1 - s), formed in s, refine s, and the
    weight W = 2 / ((1 - t^2) P_n'(t)^2) is taken there.
    """
    s = 1 - np.polynomial.legendre.leggauss(n)[0][n // 2:]
    for _ in range(3):
        P, d = np.ones_like(s), np.zeros_like(s)  # P_j(1 - s) and P_j - P_(j-1)
        for j in range(n):
            d = (j * d - (2 * j + 1) * s * P) / (j + 1)
            P = P + d
        dP = n * (d - s * P) / (s * (s - 2))  # P_n'(t)
        s = s + P / dP
    q = s * (2 - s)  # 1 - t^2
    return s, 2 / (q * dP**2)


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
        for name in ("nx", "ny"):  # nan and inf fail the first test or have no parity
            n = getattr(self, name)
            if n < 4 or n % 2:
                raise ConfigurationError(f"{name} must be even and >= 4, got {n}")
        if not 2 <= self.nz < np.inf:
            raise ConfigurationError(f"nz must be finite and >= 2, got {self.nz}")
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
        """Node count of the grid's vertical set: to_physical's values, the L^p norms' quadrature.

        3*nz + 8 integrates products of three basis functions to within ~1e-12 h.
        """
        return 3 * self.nz + 8

    @cached_property
    def nodes(self):
        """The grid's vertical set: nzq Gauss-Legendre nodes z = -(h/2)(1 - t), all nz modes."""
        s, W = _gauss_half(self.nzq)
        r = slice(self.nzq % 2, None)  # the node t = 0 of an odd rule appears once
        one_minus_t, W = np.concatenate([2 - s[r][::-1], s]), np.concatenate([W[r][::-1], W])
        return VerticalNodes(self.lam, self.h, -(self.h / 2) * one_minus_t, (self.h / 2) * W)

    @cached_property
    def advect_nodes(self):
        """advect's set, which projects products of the modes m < mk exactly.

        Projected onto phi_m, such a product is a sum of cos((j + 1/2) pi z / h),
        j <= 3 mk - 2, which z = -(2h/pi) arcsin t turns into even polynomials of
        degree 2j in t: the ceil(n/2) nodes t >= 0 of the n = 3 mk - 1 point
        Gauss-Legendre rule integrate them exactly, and to_modes is the plain
        projection.
        """
        mk = self.dealias_modes
        n = 3 * mk - 1
        s, W = _gauss_half(n)
        q = s * (2 - s)  # 1 - t^2
        c = np.where(np.arange(len(s)) == 0, 2 - n % 2, 2)  # symmetric rule: t > 0 counts twice
        z = -self.h + (4 * self.h / np.pi) * np.arcsin(np.sqrt(s / 2))
        return VerticalNodes(self.lam[:mk], self.h, z, (self.h / np.pi) * c * W / np.sqrt(q))

    @cached_property
    def avg_factor(self):
        """(1/h) * int_{-h}^0 phi_m dz = (-1)^m / (lam_m h), shape (nz,)."""
        signs = np.where(np.arange(self.nz) % 2 == 0, 1.0, -1.0)
        return signs / (self.lam * self.h)

    def vertical_to_modes(self, values):
        """Project advect's node values onto the modes m < mk, (..., nodes, n) -> (..., mk, n)."""
        return self.advect_nodes.to_modes.T @ values

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
    def off_nyquist(self):
        """(nx, ny) mask of the velocity space's wavenumbers: all but the Nyquist
        row kx = -nx/2 and column ky = -ny/2, whose -k is on the same line."""
        return (self.kx != -self.nx // 2)[:, None] & (self.ky != -self.ny // 2)

    def index(self, name, k, axis):
        """The index along axis 0, 1 or 2 of the integer k: a wavenumber of the
        velocity space, |k| < n/2, at k % n, or a vertical mode 0 <= k < nz.
        Anything else, a Nyquist wavenumber or 1.5 or nan, is refused by name."""
        n = (self.nx, self.ny, self.nz)[axis]
        lo, hi = (0, n - 1) if axis == 2 else (-((n - 1) // 2), (n - 1) // 2)
        if not isinstance(k, numbers.Integral):
            raise ConfigurationError(f"{name} = {k} is not an integer")
        if not lo <= k <= hi:
            raise ConfigurationError(f"{name} = {k} lies outside {lo}..{hi} on this grid")
        return int(k) % n

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
