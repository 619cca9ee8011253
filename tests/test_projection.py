"""Pressure Poisson solve and the divergence-removing projections."""

import numpy as np
import pytest

from hydropde.errors import ConfigurationError
from hydropde.fields import (
    AveragedField,
    SpectralField,
    hermitize,
    l2_norm,
    lp_norm,
    random_spectral,
    to_physical,
)
from hydropde.grid import Grid
from hydropde.projection import (
    SurfacePressure,
    constrain,
    divergence_of_average,
    project,
    solve_surface_poisson,
    total_average,
)
from oracles import l2_inner


def averaged(grid, values):
    return AveragedField(grid, np.asarray(values, complex))


def scalar_mode(grid, kx, ky, value):
    c = np.zeros((grid.nx, grid.ny), complex)
    c[list(grid.kx).index(kx), list(grid.ky).index(ky)] = value
    return c


class TestSurfacePoisson:
    def test_recovers_gradient_potential(self, grid16):
        # f = grad psi with psi = cos(2 pi x): pi should equal psi (zero mean)
        g = grid16
        psi = scalar_mode(g, 1, 0, 0.5) + scalar_mode(g, -1, 0, 0.5)
        fx = 2j * np.pi * g.kx[:, None] * psi
        fy = 2j * np.pi * g.ky[None, :] * psi
        pi = solve_surface_poisson(averaged(g, np.stack([fx, fy])))
        assert np.max(np.abs(pi.coeffs - psi)) < 1e-14

    def test_divergence_free_input_gives_zero(self, grid16):
        # f = (sin(2 pi y), 0) has zero horizontal divergence
        g = grid16
        fx = scalar_mode(g, 0, 1, -0.5j) + scalar_mode(g, 0, -1, 0.5j)
        pi = solve_surface_poisson(averaged(g, np.stack([fx, np.zeros_like(fx)])))
        assert np.max(np.abs(pi.coeffs)) == 0.0

    def test_sine_hand_example(self, grid16):
        # f = (sin(2 pi x), 0): div f = 2 pi cos(2 pi x),
        # pi = -cos(2 pi x) / (2 pi)
        g = grid16
        fx = scalar_mode(g, 1, 0, -0.5j) + scalar_mode(g, -1, 0, 0.5j)
        pi = solve_surface_poisson(averaged(g, np.stack([fx, np.zeros_like(fx)])))
        expected = -(scalar_mode(g, 1, 0, 0.5) + scalar_mode(g, -1, 0, 0.5)) / (2 * np.pi)
        assert np.max(np.abs(pi.coeffs - expected)) < 1e-14

    def test_poisson_residual(self, grid16, rng):
        g = grid16
        f = averaged(g, rng.standard_normal((2, g.nx, g.ny))
                     + 1j * rng.standard_normal((2, g.nx, g.ny)))
        pi = solve_surface_poisson(f)
        lap = -g.k2 * pi.coeffs
        div = 2j * np.pi * (g.kx[:, None] * f.coeffs[0] + g.ky[None, :] * f.coeffs[1])
        div[0, 0] = 0.0
        assert np.max(np.abs(lap - div)) < 1e-10 * np.max(np.abs(f.coeffs))

    def test_gauge_and_shape(self, grid16):
        g = grid16
        c = np.ones((g.nx, g.ny), complex)
        pi = SurfacePressure(g, c)
        assert pi.coeffs[0, 0] == 0.0
        with pytest.raises(ConfigurationError):
            SurfacePressure(g, np.ones((g.nx, g.ny + 1), complex))
        with pytest.raises(ConfigurationError):
            solve_surface_poisson(AveragedField(g, np.zeros((1, g.nx, g.ny), complex)))


class TestProject:
    def test_idempotent_and_divergence_free(self, grid16, rng):
        g = grid16
        for _ in range(20):
            v = random_spectral(g, 2, rng)
            v1, m1, _ = project(v)
            scale = max(l2_norm(v), 1.0)
            div = divergence_of_average(v1, m1)
            assert np.max(np.abs(div.coeffs)) < 1e-12 * scale
            v2, m2, pi2 = project(v1, m1)
            assert np.max(np.abs(v2.coeffs - v1.coeffs)) < 1e-12 * scale
            assert np.max(np.abs(m2.coeffs - m1.coeffs)) < 1e-12 * scale
            assert np.linalg.norm(pi2.coeffs) < 1e-12 * scale

    def test_identity_on_constrained_fields(self, grid16, rng):
        v = constrain(random_spectral(grid16, 2, rng))
        v1, m1, pi = project(v)
        scale = l2_norm(v)
        assert np.max(np.abs(v1.coeffs - v.coeffs)) == 0.0
        assert np.max(np.abs(m1.coeffs)) < 1e-12 * scale
        assert np.linalg.norm(pi.coeffs) < 1e-12 * scale

    def test_z_independent_gradient_maps_to_zero_divergence(self, grid16):
        # starting from mean = grad pi0 the projection removes it entirely
        g = grid16
        pi0 = SurfacePressure(g, scalar_mode(g, 2, 1, 1.0 + 0.5j))
        mean = pi0.gradient()
        v = SpectralField(g, np.zeros((2, g.nx, g.ny, g.nz), complex))
        _, m1, pi = project(v, mean)
        assert np.max(np.abs(m1.coeffs)) < 1e-13
        assert np.max(np.abs(pi.coeffs - pi0.coeffs)) < 1e-13

    def test_orthogonality(self, grid16, rng):
        # <Pv, v - Pv> = 0 where the inner product is over the composite
        # field; the removed part is a z-independent gradient
        g = grid16
        v = random_spectral(g, 2, rng)
        v1, m1, pi = project(v)
        removed = pi.gradient()
        # composite Pv has cosine part v1 and constant part m1 = -grad pi;
        # inner product in spectral form: (h) sum over k of conj pairs with
        # the cosine part folded through the vertical average
        avg1 = total_average(v1, m1)
        ip = np.sum(avg1.coeffs.conj() * removed.coeffs) * g.h
        assert abs(ip) < 1e-10 * max(l2_norm(v) ** 2, 1.0)

    def test_l2_bounded(self, grid16, rng):
        g = grid16
        for _ in range(20):
            v = random_spectral(g, 2, rng)
            v1, m1, _ = project(v)
            # composite norm^2 = cosine-part norm^2 + cross + constant part
            phys = to_physical(v1).values + np.real(
                np.fft.ifft2(m1.coeffs, axes=(1, 2), norm="forward")
            )[..., None]
            norm_out = float(
                np.sqrt(np.sum(np.sum(phys**2, axis=0) @ g.nodes.w) / (g.nx * g.ny))
            )
            assert norm_out <= l2_norm(v) * (1 + 1e-10)

    def test_lp_ratio_stable_under_refinement(self, rng):
        # || P v ||_p / || v ||_p stays bounded by a grid-independent factor
        for p in (4 / 3, 4.0):
            ratios = []
            for n in (16, 32, 64):
                g = Grid(n, n, 8)
                r = np.random.default_rng(7)
                worst = 0.0
                for _ in range(5):
                    v = random_spectral(g, 2, r, kmax=4, mmax=4)
                    v1, m1, _ = project(v)
                    phys = to_physical(v1).values + np.real(
                        np.fft.ifft2(m1.coeffs, axes=(1, 2), norm="forward")
                    )[..., None]
                    from hydropde.fields import PhysicalField

                    num = lp_norm(PhysicalField(g, phys), p)
                    den = lp_norm(to_physical(v), p)
                    worst = max(worst, num / den)
                ratios.append(worst)
            assert max(ratios) < 2.0 * min(ratios) + 1e-12

    def test_rejects_wrong_component_count(self, grid16):
        # project and constrain take a SpectralField, a velocity by construction
        for op in (project, constrain):
            with pytest.raises(ConfigurationError, match=r"expected shape \(2 components"):
                op(SpectralField(grid16, np.zeros((1, 16, 16, 8), complex)))


class TestConstrain:
    def test_idempotent(self, grid16, rng):
        v = random_spectral(grid16, 2, rng)
        p1 = constrain(v)
        p2 = constrain(p1)
        scale = l2_norm(v)
        assert np.max(np.abs(p2.coeffs - p1.coeffs)) < 1e-13 * scale

    def test_kills_average_divergence(self, grid16, rng):
        v = constrain(random_spectral(grid16, 2, rng))
        div = divergence_of_average(v)
        assert np.max(np.abs(div.coeffs)) < 1e-12 * l2_norm(v)

    def test_self_adjoint(self, grid16, rng):
        u = random_spectral(grid16, 2, rng)
        v = random_spectral(grid16, 2, rng)
        lhs = l2_inner(constrain(u), v)
        rhs = l2_inner(u, constrain(v))
        assert abs(lhs - rhs) < 1e-10 * l2_norm(u) * l2_norm(v)

    def test_orthogonal_complement(self, grid16, rng):
        v = random_spectral(grid16, 2, rng)
        pv = constrain(v)
        assert abs(l2_inner(pv, v - pv)) < 1e-10 * l2_norm(v) ** 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_nyquist_lines_stay_hermitian(self, seed):
        # kmax = nx/2 fills the Nyquist row and column, where -n/2 also
        # stands for +n/2; the constrained field must still be real, and
        # zero on both lines, which the velocity space drops
        g = Grid(8, 8, 4)
        v = constrain(random_spectral(g, 2, np.random.default_rng(seed), kmax=4))
        assert not np.any(v.coeffs[:, 4]) and not np.any(v.coeffs[:, :, 4])
        assert np.max(np.abs(hermitize(v).coeffs - v.coeffs)) < 1e-15 * l2_norm(v)
        assert np.max(np.abs(divergence_of_average(v).coeffs)) < 1e-12 * l2_norm(v)
        assert np.max(np.abs(constrain(v).coeffs - v.coeffs)) < 1e-13 * l2_norm(v)
        u = random_spectral(g, 2, np.random.default_rng(seed + 10), kmax=4)
        assert abs(l2_inner(constrain(u), u - constrain(u))) < 1e-14 * l2_norm(u) ** 2

    def test_zero_wavenumber_untouched(self, grid16, rng):
        v = random_spectral(grid16, 2, rng)
        pv = constrain(v)
        assert np.max(np.abs(pv.coeffs[:, 0, 0, :] - v.coeffs[:, 0, 0, :])) == 0.0
