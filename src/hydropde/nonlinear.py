"""Pseudospectral evaluation of the transport nonlinearity.

advect(v) computes v . grad_H v + w dz v pointwise on the collocation grid,
with w = int_z^0 div_H v and 2/3-rule dealiasing in all three mode indices,
and returns the result as cosine-basis coefficients.  F(v) applies the
constraint projection with a minus sign, matching the right-hand side of the
evolution equation.

Only Grid.dealias_block (kept kx rows, ky >= 0 columns) and m < mk are
transformed: the six input plane groups (v, dx v, dy v) form one Hermitian
stack on the block of v's half, zero-filled along kx for one ifft along x
and one irfft along y; the product's rfft along y and fft along x on the
kept columns fill the block of the result's half.  dz v takes v's planes
through the dz table, w the dx u + dy v planes through the sine
antiderivative table.

The vertical stage runs on Grid.advect_nodes, ceil((3 mk - 1) / 2) nodes on
which the products of the modes m < mk project exactly (33 at 64^2x32),
tile by tile over the flattened horizontal points: each TILE columns of the
planes meet its cos, dz and w tables as z-major matmuls, form the three
products and are projected onto m < mk before the next tile starts, so the
node values of one tile stay in cache and the full (2, nodes, nx*ny) node
arrays are never built.  A matmul column is computed from its own input
column alone, so the result is bit-identical to the untiled evaluation.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fields import (
    SpectralField,
    half_to_planes,
    hermitian_part,
    l2_norm,
    planes_to_coeffs,
    random_spectral,
    sobolev_norm,
)
from .grid import Grid
from .projection import constrain, constrain_coeffs


@dataclass(frozen=True)
class NonlinearWorkspace:
    """Holds only the grid; F accepts one and ignores it.

    The vertical tables are on Grid.advect_nodes (cos, dz, wint).  The
    class and F's ws argument are kept only because perfbench/child.py's
    sweep builds one and calls F(a, ws); they go once that caller stops.
    """

    grid: Grid


# Horizontal points per tile of advect's vertical stage.  A tile's node
# values, about four arrays of 2 * nodes * TILE doubles (1.1 MB at the 33
# advect nodes of 64^2x32), fit in a 2 MB per-core L2 cache; much smaller
# tiles shrink the matmuls until their call overhead shows.
TILE = 512


def advect(v: SpectralField) -> SpectralField:
    """Unprojected transport term v . grad_H v + w dz v."""
    g = v.grid
    mk, n, (rows, K), nodes = g.dealias_modes, g.nx * g.ny, g.dealias_block, g.advect_nodes
    dx, dy = 2j * np.pi * g.kx[rows, None], 2j * np.pi * g.ky[None, :K]
    hv = v.half[:, rows, :K, :mk]
    hv[:, :, :1] = hermitian_part(hv, 1)  # ky = 0 holds both k and -k; the rows are symmetric
    hv = np.moveaxis(hv, -1, -3)
    # v, dx v and dy v go straight onto the block rows of one zero-filled
    # transform buffer, which the inverse transform then consumes
    buf = np.zeros((6, mk, g.nx, K), complex)
    buf[:2, :, rows] = hv
    buf[2:4, :, rows] = dx * hv
    buf[4:, :, rows] = dy * hv
    del hv
    planes = half_to_planes(g, buf).reshape(6, mk, n)
    del buf
    C, Dz, W = nodes.cos.T, nodes.dz.T, nodes.wint.T
    modes = np.empty((2, mk, n))
    for s in range(0, n, TILE):
        p = planes[..., s:s + TILE]
        va = C @ p[:2]
        prod = va[0] * (C @ p[2:4])
        term = C @ p[4:6]
        term *= va[1]
        prod += term
        np.matmul(Dz, p[:2], out=term)
        term *= W @ (p[2] + p[5])  # w from div_H v = dx u + dy v
        prod += term
        modes[..., s:s + TILE] = g.vertical_to_modes(prod)
    del planes, p  # the node planes go before the forward transform's arrays come
    return SpectralField(g, half=planes_to_coeffs(g, modes.reshape(2, mk, g.nx, g.ny)))


def F(v: SpectralField, ws: NonlinearWorkspace | None = None) -> SpectralField:
    """Constrained nonlinearity -P(v . grad_H v + w dz v), in place on advect's half (ws unused)."""
    f = advect(v)
    np.negative(constrain_coeffs(v.grid, f.half), out=f.half)
    return f


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
    if not 2 <= samples < np.inf:  # the Lipschitz ratios need a pair
        raise DomainError(f"bilinear_estimate_probe needs samples >= 2, got {samples}")
    rng = np.random.default_rng(seed)
    ratios = []
    lip = []
    prev = None
    for _ in range(samples):
        v = constrain(random_spectral(grid, 2, rng, kmax=3, mmax=3))
        fv, nv = F(v), sobolev_norm(v, 1.5)
        ratios.append(l2_norm(fv) / nv**2)
        if prev is not None:
            u, fu, nu = prev
            lip.append(l2_norm(fv - fu) / ((nv + nu) * sobolev_norm(v - u, 1.5)))
        prev = v, fv, nv
    return BilinearProbeReport(
        ratios=tuple(ratios),
        m_hat=max(ratios),
        lipschitz_ratios=tuple(lip),
        m_lip=max(lip),
    )
