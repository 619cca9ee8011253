"""Pseudospectral evaluation of the transport nonlinearity.

advect(v, v_adv) computes v_adv . grad_H v + w(v_adv) dz v pointwise on the
collocation grid, with 2/3-rule dealiasing in all three mode indices, and
returns the result as cosine-basis coefficients.  F(v) applies the
constraint projection with a minus sign, matching the right-hand side of the
evolution equation.

The diagnostic vertical velocity w is evaluated directly on the physical
grid from its sine-profile antiderivatives and is never re-expanded in the
cosine basis (it satisfies different boundary conditions).  dz v is exact in
the basis: dz cos(lam_m z) = -lam_m sin(lam_m z), tabulated at the nodes.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .fields import (
    PhysicalField,
    SpectralField,
    l2_norm,
    random_spectral,
    sobolev_norm,
    synthesize,
    to_spectral,
)
from .grid import Grid
from .projection import constrain


@dataclass(frozen=True)
class NonlinearWorkspace:
    """Holds only the grid; advect and F accept one and ignore it.

    The vertical tables are on Grid (cos_table, dz_table, w_table).  The
    class is kept because perfbench/child.py's sweep builds one and calls
    F(a, ws); it and the ws arguments go once that caller stops.
    """

    grid: Grid


def advect(v: SpectralField, v_adv: SpectralField, ws: NonlinearWorkspace | None = None) -> SpectralField:
    """Unprojected transport term v_adv . grad_H v + w(v_adv) dz v (ws is ignored)."""
    g = v.grid
    if v.grid != v_adv.grid:
        raise ConfigurationError("advect operands live on different grids")
    if v.components != 2 or v_adv.components != 2:
        raise ConfigurationError("advect needs 2-component velocities")
    mask = g.dealias_mask
    cv = v.coeffs * mask
    ca = v_adv.coeffs * mask

    kx = g.kx[:, None, None]
    ky = g.ky[None, :, None]
    C = g.cos_table
    va = synthesize(g, ca, C).values
    dxv = synthesize(g, 2j * np.pi * kx * cv, C).values
    dyv = synthesize(g, 2j * np.pi * ky * cv, C).values
    dzv = synthesize(g, cv, g.dz_table).values
    w = synthesize(g, 2j * np.pi * (kx * ca[0] + ky * ca[1])[None], g.w_table).values[0]
    prod = va[0] * dxv + va[1] * dyv + w * dzv
    return SpectralField(g, to_spectral(PhysicalField(g, prod)).coeffs * mask)


def F(v: SpectralField, ws: NonlinearWorkspace | None = None) -> SpectralField:
    """Constrained nonlinearity -P(v . grad_H v + w dz v) (ws is ignored)."""
    return -constrain(advect(v, v))


@dataclass(frozen=True)
class BilinearProbeReport:
    ratios: tuple           # per-sample ||F(v)|| / ||v||_{H^{3/2}}^2
    m_hat: float
    lipschitz_ratios: tuple  # per-pair ||F(v)-F(v')|| / ((||v||+||v'||) ||v-v'||)
    m_lip: float


def bilinear_estimate_probe(grid: Grid, samples=20, seed=0, kmax=3, mmax=3) -> BilinearProbeReport:
    """Sampled surrogate of the quadratic bound ||F(v)|| <= M ||v||_{H^{3/2}}^2.

    Samples are band-limited (kmax, mmax) so that estimates on successively
    refined grids probe the same family of fields and stay comparable.
    """
    rng = np.random.default_rng(seed)
    ratios = []
    lip = []
    prev = None
    for _ in range(samples):
        v = constrain(random_spectral(grid, 2, rng, kmax=kmax, mmax=mmax))
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
