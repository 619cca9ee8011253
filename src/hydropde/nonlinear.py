"""Pseudospectral evaluation of the transport nonlinearity.

advect(v, v_adv) computes v_adv . grad_H v + w(v_adv) dz v pointwise on the
collocation grid, with 2/3-rule dealiasing in all three mode indices, and
returns the result as cosine-basis coefficients.  F(v) applies the
constraint projection with a minus sign, matching the right-hand side of the
evolution equation.

Only Grid.dealias_block (kept kx rows, ky >= 0 columns) and m < mk are
transformed: the nine input planes (v_adv, dx v, dy v, dz v, w) form one
Hermitian stack on the block, zero-filled along kx for one ifft along x and
one irfft along y; the product's rfft along y and fft along x on the kept
columns fill the block and its -ky mirror.  w comes from sine antiderivatives,
not the cosine basis (its boundary conditions differ); dz v is exact in it.

The vertical stage runs tile by tile over the flattened horizontal points:
each TILE columns of the planes meet cos_table, dz_table and w_table as
z-major matmuls, form the three products and are projected onto m < mk
before the next tile starts, so the node values of one tile stay in cache
and the full (2, nzq, nx*ny) node arrays are never built.  A matmul column
is computed from its own input column alone, so every output element goes
through the same arithmetic in the same order as without tiles and the
result is bit-identical to the untiled evaluation.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .fields import (
    SpectralField,
    half_to_planes,
    l2_norm,
    mirror_pair,
    planes_to_coeffs,
    random_spectral,
    sobolev_norm,
)
from .grid import Grid
from .projection import constrain


@dataclass(frozen=True)
class NonlinearWorkspace:
    """Holds only the grid; F accepts one and ignores it.

    The vertical tables are on Grid (cos_table, dz_table, w_table).  The
    class and F's ws argument are kept only because perfbench/child.py's
    sweep builds one and calls F(a, ws); they go once that caller stops.
    """

    grid: Grid


# Horizontal points per tile of advect's vertical stage.  A tile's node
# values, about four arrays of 2 * nzq * TILE doubles (1.7 MB at nzq = 104),
# fit in a 2 MB per-core L2 cache; much smaller tiles shrink the matmuls
# until their call overhead shows.
TILE = 256


def advect(v: SpectralField, v_adv: SpectralField) -> SpectralField:
    """Unprojected transport term v_adv . grad_H v + w(v_adv) dz v."""
    g = v.grid
    if v.grid != v_adv.grid:
        raise ConfigurationError("advect operands live on different grids")
    if v.components != 2 or v_adv.components != 2:
        raise ConfigurationError("advect needs 2-component velocities")
    mk, n, block = g.dealias_modes, g.nx * g.ny, g.dealias_block

    def parts(c):  # Hermitian and anti-Hermitian parts on the block
        half, rev = mirror_pair(g, c, mk, block)
        return 0.5 * (half + rev), 0.5 * (half - rev)

    hv, av = parts(v.coeffs)
    ha, aa = (hv, av) if v_adv is v else parts(v_adv.coeffs)
    (dx, dx_nyq), (dy, dy_nyq) = g.half_ik
    w = dx * ha[0] + dx_nyq * aa[0] + dy * ha[1] + dy_nyq * aa[1]
    stack = np.concatenate([ha, dx * hv + dx_nyq * av, dy * hv + dy_nyq * av, hv, w[None]])
    planes = half_to_planes(g, stack, block).reshape(9, mk, n)
    C, Dz, W = (t[:mk].T for t in (g.cos_table, g.dz_table, g.w_table))
    modes = np.empty((2, mk, n))
    for s in range(0, n, TILE):
        p = planes[..., s:s + TILE]
        va = C @ p[:2]
        prod = va[0] * (C @ p[2:4])
        term = C @ p[4:6]
        term *= va[1]
        prod += term
        np.matmul(Dz, p[6:8], out=term)
        term *= W @ p[8]
        prod += term
        modes[..., s:s + TILE] = g.vertical_to_modes(prod, mk, z_major=True)
    return SpectralField(g, planes_to_coeffs(g, modes.reshape(2, mk, g.nx, g.ny), block))


def F(v: SpectralField, ws: NonlinearWorkspace | None = None) -> SpectralField:
    """Constrained nonlinearity -P(v . grad_H v + w dz v) (ws is ignored)."""
    c = constrain(advect(v, v)).coeffs
    return SpectralField(v.grid, np.negative(c, out=c))


@dataclass(frozen=True)
class BilinearProbeReport:
    ratios: tuple           # per-sample ||F(v)|| / ||v||_{H^{3/2}}^2
    m_hat: float
    lipschitz_ratios: tuple  # per-pair ||F(v)-F(v')|| / ((||v||+||v'||) ||v-v'||)
    m_lip: float


def bilinear_estimate_probe(grid: Grid, samples=20, seed=0) -> BilinearProbeReport:
    """Sampled surrogate of the quadratic bound ||F(v)|| <= M ||v||_{H^{3/2}}^2.

    Samples are band-limited to |kx|, |ky| <= 3 and m < 3, inside the dealias
    cutoff of every probed grid (16^2x8 and finer), so estimates on refined
    grids probe the same family of fields and stay comparable.
    """
    rng = np.random.default_rng(seed)
    ratios = []
    lip = []
    prev = None
    for _ in range(samples):
        v = constrain(random_spectral(grid, 2, rng, kmax=3, mmax=3))
        nv = sobolev_norm(v, 1.5)
        ratios.append(l2_norm(F(v)) / nv**2)
        if prev is not None:
            diff = l2_norm(F(v) - F(prev))
            denom = (sobolev_norm(v, 1.5) + sobolev_norm(prev, 1.5)) * sobolev_norm(v - prev, 1.5)
            lip.append(diff / denom)
        prev = v
    return BilinearProbeReport(
        ratios=tuple(ratios),
        m_hat=max(ratios),
        lipschitz_ratios=tuple(lip),
        m_lip=max(lip),
    )
