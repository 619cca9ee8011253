"""Pressure projection onto fields whose vertical average is divergence-free.

The reduced pressure is a 2D periodic scalar pi on G with zero mean,
determined by the Poisson problem Delta_H pi = div_H vbar.  Subtracting
grad_H pi from the velocity kills the divergence of the vertical average.
Because grad_H pi is independent of z it is carried on the z-constant
(AveragedField) channel rather than folded into the cosine basis, which keeps
the subtraction exact.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .fields import AveragedField, SpectralField, vertical_average
from .grid import Grid


@dataclass(frozen=True)
class SurfacePressure:
    """Zero-mean periodic scalar on G: coefficients over (kx, ky)."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        g = self.grid
        if self.coeffs.shape != (g.nx, g.ny):
            raise ConfigurationError(
                f"SurfacePressure: expected shape ({g.nx}, {g.ny}), got {self.coeffs.shape}"
            )
        c = np.asarray(self.coeffs, dtype=complex).copy()
        c[0, 0] = 0.0  # zero-mean gauge
        object.__setattr__(self, "coeffs", c)

    def gradient(self) -> AveragedField:
        """grad_H pi as a z-independent 2-vector field."""
        g = self.grid
        gx = 2j * np.pi * g.kx[:, None] * self.coeffs
        gy = 2j * np.pi * g.ky[None, :] * self.coeffs
        return AveragedField(g, np.stack([gx, gy]))

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))


def solve_surface_poisson(f: AveragedField) -> SurfacePressure:
    """Solve Delta_H pi = div_H f on G with zero mean.

    Per wavenumber k != 0: pi_hat = -2 pi i (k . f_hat) / (4 pi^2 |k|^2).
    """
    g = f.grid
    if f.components != 2:
        raise ConfigurationError("solve_surface_poisson needs a 2-vector field")
    kdotf = g.kx[:, None] * f.coeffs[0] + g.ky[None, :] * f.coeffs[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        pihat = -2j * np.pi * kdotf / g.k2
    pihat[0, 0] = 0.0
    return SurfacePressure(g, pihat)


def total_average(v: SpectralField, mean: AveragedField | None) -> AveragedField:
    """Vertical average of the composite field (cosine part plus mean channel)."""
    avg = vertical_average(v)
    return avg if mean is None else avg + mean


def project(v: SpectralField, mean: AveragedField | None = None):
    """Apply the pressure projection to a composite velocity.

    Returns (v_out, mean_out, pi) with v_out - here identical to v, since the
    subtracted gradient is z-independent - and mean_out = mean - grad_H pi.
    """
    if v.components != 2:
        raise ConfigurationError("project needs a 2-component velocity")
    pi = solve_surface_poisson(total_average(v, mean))
    grad = pi.gradient()
    mean_out = -grad if mean is None else mean - grad
    return v, mean_out, pi


def constrain(v: SpectralField) -> SpectralField:
    """Orthogonal coefficient-space projection onto div_H vbar = 0.

    Works entirely within the cosine basis: per wavenumber k != 0 the
    constraint is a single linear functional of the stacked coefficients and
    the projection subtracts its normal component.  This is the projection
    the evolution operators use; unlike project() it does not carry a
    z-constant channel.

    The velocity space has no Nyquist lines (Grid.off_nyquist): on the row
    kx = -nx/2 and the column ky = -ny/2, +n/2 aliases to -n/2, so -k lies on
    the same line, and the projection sets both lines to zero.
    """
    g = v.grid
    if v.components != 2:
        raise ConfigurationError("constrain needs a 2-component velocity")
    a = g.avg_factor
    kx = g.kx[:, None].astype(float)
    ky = g.ky[None, :].astype(float)
    c = v.coeffs * g.off_nyquist[:, :, None]
    s = kx * (c[0] @ a) + ky * (c[1] @ a)
    k2i = kx**2 + ky**2
    k2i[0, 0] = 1.0
    coef = s / (k2i * np.sum(a**2))
    c[0] -= (kx * coef)[:, :, None] * a
    c[1] -= (ky * coef)[:, :, None] * a
    return SpectralField(g, c)


def divergence_of_average(v: SpectralField, mean: AveragedField | None = None) -> AveragedField:
    """div_H of the vertical average, as a scalar field on G."""
    g = v.grid
    avg = total_average(v, mean)
    div = 2j * np.pi * (g.kx[:, None] * avg.coeffs[0] + g.ky[None, :] * avg.coeffs[1])
    return AveragedField(g, div[None])
