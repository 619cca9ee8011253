"""Transforms, vertical structure, and norms.

Derived values are checked against independent quadrature oracles (midpoint
rules on fine grids, closed-form integrals) rather than against the
package's own quadrature machinery.
"""

import numpy as np
import pytest

from hydropde.config import InitialConditionSpec, make_initial
from hydropde.errors import ConfigurationError, DomainError
from hydropde import fields
from hydropde.evolution import ImexConfig, imex_run
from hydropde.fields import (
    AveragedField,
    PhysicalField,
    SpectralField,
    fluctuation,
    half_array,
    hermitian_part,
    hermitize,
    l2_norm,
    lp_norm,
    random_spectral,
    sobolev_norm,
    to_physical,
    vertical_average,
)
from hydropde.grid import Grid
from hydropde.nonlinear import advect
from hydropde.projection import constrain
from hydropde.stokes import StokesOperator, eigenmode
from oracles import (
    OddGrid,
    averaged_to_physical,
    full_plane_from_eigen,
    full_plane_to_eigen,
    index_map_hermitian_part,
    l2_inner,
    zeros_spectral,
)


def single_mode(grid, comp, kx, ky, m, value=1.0):
    c = np.zeros((2, grid.nx, grid.ny, grid.nz), complex)
    c[comp, list(grid.kx).index(kx), list(grid.ky).index(ky), m] = value
    return SpectralField(grid, c)


class TestGrid:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            Grid(3, 16, 8)
        with pytest.raises(ConfigurationError):
            Grid(16, 10, 8, h=0.0)
        with pytest.raises(ConfigurationError):
            Grid(16, 16, 1)
        with pytest.raises(ConfigurationError):
            Grid(16, 16, 8, dealias_fraction=0.0)

    def test_depth_bound_keeps_the_spectrum_finite(self):
        # h = inf leaves lam = 0 and the average factors nan; below
        # (nz - 1/2) pi 1e-77 the top mode's H^2 weight overflows
        for h in (np.inf, np.nan, 1e-300, 1e-76):
            with pytest.raises(ConfigurationError, match="layer depth h"):
                Grid(8, 8, 4, h=h)
        g = Grid(8, 8, 4, h=1.2e-76)
        assert np.all(np.isfinite(g.sobolev_symbol**2))
        assert np.all(np.isfinite(StokesOperator(g).eigenvalues))

    def test_vertical_basis_boundary_conditions(self, grid16):
        # phi_m'(0) = 0 and phi_m(-h) = 0 exactly
        lam = grid16.lam
        assert np.allclose(np.sin(lam * 0.0), 0.0)
        assert np.max(np.abs(np.cos(lam * (-grid16.h)))) < 1e-13

    def test_quadrature_weights(self, grid16):
        assert grid16.nodes.w.min() > 0
        assert abs(grid16.nodes.w.sum() - grid16.h) < 1e-13
        assert grid16.nodes.z.min() > -grid16.h and grid16.nodes.z.max() < 0

    def test_quadrature_orthogonality(self):
        for nz in (2, 8, 16, 32):
            g = Grid(8, 8, nz)
            C = g.nodes.cos
            gram = (2.0 / g.h) * (C * g.nodes.w) @ C.T
            assert np.max(np.abs(gram - np.eye(nz))) < 1e-13


class TestTransforms:
    def test_single_basis_function(self, grid16):
        f = single_mode(grid16, 0, 0, 0, 0, 1.0)
        phys = to_physical(f)
        expected = np.cos(grid16.lam[0] * grid16.nodes.z)
        assert np.max(np.abs(phys.values[0] - expected[None, None, :])) < 1e-13
        assert np.all(phys.values[1] == 0)

    def test_zero_maps_to_zero(self, grid16):
        assert np.all(to_physical(zeros_spectral(grid16)).values == 0)

    def test_shape_mismatch_rejected(self, grid16):
        with pytest.raises(ConfigurationError):
            SpectralField(grid16, np.zeros((2, 8, 16, 8), complex))
        for comps in (1, 3):  # a SpectralField is the velocity (u, v)
            with pytest.raises(ConfigurationError, match=r"SpectralField: expected shape \(2 comp"):
                SpectralField(grid16, np.zeros((comps, 16, 16, 8), complex))
        with pytest.raises(ConfigurationError):
            PhysicalField(grid16, np.zeros((2, 16, 16, 7)))
        with pytest.raises(ConfigurationError):
            AveragedField(grid16, np.zeros((3, 16, 16), complex))


class TestVerticalAverage:
    def test_single_mode_value(self, grid16):
        # (1/h) int_{-1}^0 cos(pi z / 2) dz = 2 / pi
        f = single_mode(grid16, 0, 0, 0, 0, 1.0)
        avg = vertical_average(f)
        assert abs(avg.coeffs[0, 0, 0] - 2 / np.pi) < 1e-14
        assert np.all(avg.coeffs[1] == 0)
        # independent midpoint oracle
        zf = -1.0 + (np.arange(20000) + 0.5) / 20000
        oracle = np.mean(np.cos(np.pi * zf / 2))
        assert abs(avg.coeffs[0, 0, 0].real - oracle) < 1e-8

    def test_projected_constant_averages_to_one(self, grid16):
        g = grid16
        modes = 2 * g.avg_factor
        c = np.zeros((2, g.nx, g.ny, g.nz), complex)
        c[0, 0, 0, :] = modes
        avg = vertical_average(SpectralField(g, c))
        # truncation of a z-constant leaves an O(1/nz) defect
        assert abs(avg.coeffs[0, 0, 0] - 1.0) < 0.1

    def test_zero(self, grid16):
        assert np.all(vertical_average(zeros_spectral(grid16)).coeffs == 0)


class TestFluctuation:
    def test_zero_average_field_is_fixed_point(self, grid16):
        g = grid16
        # c0 * a0 + c1 * a1 = 0 with a0 = 2/pi, a1 = -2/(3 pi): c = (1, 3)
        c = np.zeros((2, g.nx, g.ny, g.nz), complex)
        c[0, 2, 1, 0] = 1.0
        c[0, 2, 1, 1] = 3.0
        f = SpectralField(g, c)
        assert abs(vertical_average(f).coeffs[0, 2, 1]) < 1e-15
        fl = fluctuation(f)
        assert np.max(np.abs(fl.coeffs - f.coeffs)) < 1e-14

    def test_projected_constant_maps_to_zero(self, grid16):
        g = grid16
        modes = 2 * g.avg_factor
        c = np.zeros((2, g.nx, g.ny, g.nz), complex)
        c[0, 0, 0, :] = modes
        fl = fluctuation(SpectralField(g, c))
        assert np.max(np.abs(fl.coeffs)) < 1e-12

    def test_average_of_fluctuation_vanishes(self, grid16, rng):
        f = random_spectral(grid16, 2, rng)
        avg = vertical_average(fluctuation(f))
        assert np.max(np.abs(avg.coeffs)) < 1e-12 * np.max(np.abs(f.coeffs))

    def test_zero(self, grid16):
        assert np.all(fluctuation(zeros_spectral(grid16)).coeffs == 0)

    def test_in_place_matches(self, grid16, rng):
        f = random_spectral(grid16, 2, rng)
        ref = fluctuation(f).coeffs
        out = fluctuation(f, out=f.coeffs)
        assert out.coeffs is f.coeffs and np.array_equal(out.coeffs, ref)

    def test_lift_of_average_plus_fluctuation_recombines(self, grid16, rng):
        # lift(avg f) + fluctuation(f) = f, with the lift the in-basis
        # representative of the z-constant average
        g = grid16
        f = random_spectral(g, 2, rng)
        a = g.avg_factor
        lift = SpectralField(g, vertical_average(f).coeffs[..., None] * (a / np.sum(a**2)))
        assert l2_norm(lift + fluctuation(f) - f) < 1e-12 * l2_norm(f)


class TestNorms:
    def test_sine_l2_closed_form(self):
        for h in (1.0, 2.0):
            g = Grid(16, 16, 8, h=h)
            vals = np.broadcast_to(
                np.sin(2 * np.pi * np.arange(g.nx) / g.nx)[None, :, None, None],
                (1, g.nx, g.ny, g.nzq),
            ).copy()
            f = PhysicalField(g, vals)
            assert abs(lp_norm(f, 2) - np.sqrt(h / 2)) < 1e-12

    def test_parseval(self, grid16, rng):
        f = random_spectral(grid16, 2, rng)
        quad = lp_norm(to_physical(f), 2)
        spectral = l2_norm(f)
        assert abs(quad - spectral) < 1e-8 * spectral

    @pytest.mark.parametrize("components", [1, 2])
    @pytest.mark.parametrize("p", [1, 3, 4, np.inf], ids=["1", "3", "4", "inf"])
    def test_lp_and_mixed_against_direct_quadrature(self, grid16, rng, p, components):
        # oracle: the pointwise magnitude |f| itself, |f|^p summed with the
        # horizontal and vertical quadrature weights (the max at p = inf)
        g = grid16
        # a scalar is the first component of a velocity's values
        f = to_physical(random_spectral(g, 2, rng))
        f = PhysicalField(g, f.values[:components])
        mag = np.abs(f.values[0]) if components == 1 else np.sqrt(np.sum(f.values**2, axis=0))
        hw = 1.0 / (g.nx * g.ny)

        def slab_norm(a, p):  # over each horizontal slice
            if p == np.inf:
                return a.max(axis=(0, 1))
            return (hw * np.sum(a**p, axis=(0, 1))) ** (1 / p)

        def depth_norm(s, q):
            return s.max() if q == np.inf else np.sum(g.nodes.w * s**q) ** (1 / q)

        assert lp_norm(f, p) == pytest.approx(depth_norm(slab_norm(mag, p), p), rel=1e-13)

    def test_lp_rejects_small_p(self, grid16):
        f = PhysicalField(grid16, np.zeros((1, 16, 16, grid16.nzq)))
        with pytest.raises(DomainError):
            lp_norm(f, 0.5)

    def test_sobolev_s0_is_l2(self, grid16, rng):
        f = random_spectral(grid16, 2, rng)
        assert abs(sobolev_norm(f, 0) - l2_norm(f)) < 1e-12 * l2_norm(f)
        assert abs(sobolev_norm(f, 0) - lp_norm(to_physical(f), 2)) < 1e-8 * l2_norm(f)

    def test_sobolev_single_mode_multiplier(self, grid16):
        f = single_mode(grid16, 0, 1, 0, 0, 1.0)
        base = l2_norm(f)
        expected = np.sqrt(1 + 4 * np.pi**2 + np.pi**2 / 4) * base
        assert abs(sobolev_norm(f, 1) - expected) < 1e-12
        # cross-check the gradient factor by finite differences in physical space
        gphys = to_physical(f)
        eps = 1e-6
        xs = np.arange(16) / 16
        dfdx = (np.exp(2j * np.pi * (xs + eps)) - np.exp(2j * np.pi * (xs - eps))) / (2 * eps)
        assert abs(np.max(np.abs(dfdx)) - 2 * np.pi) < 1e-4
        assert np.all(gphys.values[1] == 0)

    def test_sobolev_monotone(self, grid16, rng):
        f = random_spectral(grid16, 2, rng)
        norms = [sobolev_norm(f, s) for s in (0, 0.5, 1, 1.5, 2)]
        assert all(a <= b * (1 + 1e-13) for a, b in zip(norms, norms[1:]))
        with pytest.raises(DomainError):
            sobolev_norm(f, 2.5)

    def test_inner_product_matches_quadrature(self, grid16, rng):
        f = random_spectral(grid16, 2, rng)
        g = random_spectral(grid16, 2, rng)
        quad = float(
            np.sum(
                np.sum(to_physical(f).values * to_physical(g).values, axis=0)
                @ grid16.nodes.w
            )
            / (grid16.nx * grid16.ny)
        )
        assert abs(l2_inner(f, g) - quad) < 1e-10 * (l2_norm(f) * l2_norm(g))


class TestAveragedField:
    def test_broadcast_is_z_independent(self, grid16, rng):
        f = random_spectral(grid16, 2, rng)
        avg = vertical_average(f)
        phys = averaged_to_physical(avg)
        assert np.max(np.abs(phys.values - phys.values[..., :1])) == 0.0

    def test_algebra(self, grid16, rng):
        f = random_spectral(grid16, 2, rng)
        g = random_spectral(grid16, 2, rng)
        s = 2 * f - g
        assert np.allclose(s.coeffs, 2 * f.coeffs - g.coeffs)
        with pytest.raises(ConfigurationError):
            f + to_physical(g)


G8 = Grid(8, 8, 4)


class TestLibraryErrors:
    @pytest.mark.parametrize("call, message", [
        (lambda: ImexConfig(dt=1e-3, t_end=0), "end time must be finite and > 0"),
        (lambda: eigenmode(G8, (5, 0), 0), "outside grid 8x8"),
        (lambda: StokesOperator(G8).to_eigen(zeros_spectral(G8, components=1)),
         r"SpectralField: expected shape \(2 components,\)"),
        (lambda: zeros_spectral(G8) + zeros_spectral(Grid(8, 8, 6)),
         "fields live on different grids"),
    ], ids=["imex-t-end", "eigenmode-k", "to-eigen-components", "add-grids"])
    def test_raises_naming_the_fault(self, call, message):
        with pytest.raises(ConfigurationError, match=message):
            call()

    @pytest.mark.parametrize("cls, shape", [(SpectralField, (2, 8, 8, 4)),
                                            (AveragedField, (2, 8, 8))],
                             ids=["spectral", "averaged"])
    def test_real_coefficients_are_stored_complex(self, cls, shape):
        real = np.arange(np.prod(shape), dtype=float).reshape(shape)
        f = cls(G8, real)
        assert f.coeffs.dtype == complex
        assert np.array_equal(f.coeffs, real)


class TestRandomSpectral:
    def test_default_band_is_a_quarter_of_each_direction(self):
        # |kx| <= nx/4 and |ky| <= ny/4: on 32x8 that is |ky| <= 2, so the
        # Nyquist column ky = -4 stays empty, also for random-band data
        g = Grid(32, 8, 4)
        f = random_spectral(g, 2, np.random.default_rng(0))
        a = make_initial(InitialConditionSpec("random-band", 1e-3, seed=0), g)
        for c in (f.coeffs, a.coeffs):
            assert np.any(c[:, np.abs(g.kx) == 8]) and np.any(c[:, :, np.abs(g.ky) == 2])
            assert not np.any(c[:, np.abs(g.kx) > 8]) and not np.any(c[:, :, np.abs(g.ky) > 2])

    def test_square_grid_default_unchanged(self, grid16):
        f = random_spectral(grid16, 2, np.random.default_rng(1))
        g = random_spectral(grid16, 2, np.random.default_rng(1), kmax=4)
        assert np.array_equal(f.coeffs, g.coeffs)


# odd ny: the half (ny + 1) // 2 columns wide, with no Nyquist column
HALF_GRIDS = [Grid(8, 8, 4), Grid(16, 16, 8, dealias_fraction=1.0), OddGrid(10, 9, 4)]
HALF_IDS = ["8x8x4", "16x16x8-f1", "10x9x4-odd"]


class TestHalfLayout:
    """A real field held by its half, the columns ky = 0 .. (ny + 1) // 2 - 1,
    and unfolded into its full plane in place."""

    @staticmethod
    def real_field(grid, seed=0):
        # Hermitian in every mode, zero on the Nyquist lines, as a half-built field is
        f = random_spectral(grid, 2, np.random.default_rng(seed), kmax=grid.nx // 2, mmax=grid.nz)
        return SpectralField(grid, f.coeffs * grid.off_nyquist[:, :, None])

    @pytest.mark.parametrize("grid", HALF_GRIDS, ids=HALF_IDS)
    def test_half_full_half_is_exact(self, grid):
        f = self.real_field(grid)
        half = half_array(grid)
        half[...] = f.half
        g = SpectralField(grid, half=half)
        assert np.array_equal(g.half, f.coeffs[:, :, :(grid.ny + 1) // 2])
        assert np.array_equal(g.coeffs, f.coeffs)
        assert np.shares_memory(g.coeffs, half) and np.array_equal(g.half, f.half)
        assert np.array_equal(SpectralField(grid, g.coeffs).half, g.half)

    @pytest.mark.parametrize("grid", HALF_GRIDS, ids=HALF_IDS)
    def test_from_eigen_matches_full_plane_oracle(self, grid):
        op = StokesOperator(grid)
        f = constrain(self.real_field(grid, seed=1))
        got = op.from_eigen(*op.to_eigen(f)).coeffs
        want = full_plane_from_eigen(op, *full_plane_to_eigen(op, f)).coeffs
        want *= grid.off_nyquist[:, :, None]
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("grid", HALF_GRIDS, ids=HALF_IDS)
    def test_advect_reads_the_hermitian_part(self, grid):
        rng = np.random.default_rng(2)
        shape = (2, grid.nx, grid.ny, grid.nz)
        f = SpectralField(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        assert np.array_equal(advect(f).coeffs, advect(hermitize(f)).coeffs)

    def test_march_unfolds_only_the_cfl_checks_plane(self, monkeypatch):
        calls = []

        def counted(grid, half):
            calls.append(half.shape)
            return unfold(grid, half)

        unfold = fields._unfold
        monkeypatch.setattr(fields, "_unfold", counted)
        a = constrain(random_spectral(G8, 2, np.random.default_rng(3), amplitude=1e-2))
        imex_run(a, None, ImexConfig(dt=1e-3, t_end=5e-3, sample_every=1), StokesOperator(G8))
        assert calls == [(2, 8, 4, 4)]


class TestHermitianPart:
    """The one reader of c(-k): reversed slices, checked bit for bit against the index map."""

    @pytest.mark.parametrize("grid", HALF_GRIDS, ids=HALF_IDS)
    @pytest.mark.parametrize("components", [1, 2])
    @pytest.mark.parametrize("modes", ["nz", "below-nz"])
    def test_matches_the_index_map(self, grid, components, modes):
        nz = grid.nz if modes == "nz" else grid.nz // 2
        rng = np.random.default_rng(4)
        shape = (components, grid.nx, grid.ny, nz)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ny = grid.ny
        for n in sorted({1, (ny + 1) // 2, ny // 2 + 1, ny}):
            got, want = hermitian_part(c, n), index_map_hermitian_part(c, n)
            assert got.shape == want.shape == (components, grid.nx, n, nz)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("grid", HALF_GRIDS, ids=HALF_IDS)
    def test_half_array_nyquist_row_is_zero(self, grid, monkeypatch):
        # every block comes filled with nan, so only half_array's own write zeroes a row
        empty = np.empty

        def poisoned(shape, dtype):
            block = empty(shape, dtype)
            block.fill(np.nan)
            return block

        monkeypatch.setattr(np, "empty", poisoned)
        half = half_array(grid)
        nyquist = grid.kx == -grid.nx // 2
        assert half.shape == (2, grid.nx, (grid.ny + 1) // 2, grid.nz)
        assert np.count_nonzero(nyquist) == 1 and not np.any(half[:, nyquist])
        assert np.all(np.isnan(half[:, ~nyquist]))
