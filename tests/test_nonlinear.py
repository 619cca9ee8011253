"""Transport nonlinearity: polarization, energy neutrality, hand examples, node sets.

advect is checked against oracles.reference_advect, its full-spectrum
oracle on 6 nz + 40 vertical nodes.
"""

import tracemalloc

import numpy as np
import pytest

from hydropde.errors import ConfigurationError
from hydropde.fields import (
    SpectralField,
    hermitize,
    l2_norm,
    random_spectral,
    to_physical,
)
from hydropde.grid import Grid
from hydropde.nonlinear import (
    TILE,
    BilinearProbeReport,
    NonlinearWorkspace,
    advect,
    bilinear_estimate_probe,
    F,
)
from hydropde.projection import constrain, divergence_of_average
from hydropde.stokes import StokesOperator, eigenmode
from oracles import OddGrid, dealias_mask, l2_inner, reference_advect, zeros_spectral


def dealias(v):
    return SpectralField(v.grid, v.coeffs * dealias_mask(v.grid))


def sine_x_mode(grid, comp=0, kx=1, m=0, amplitude=1.0):
    """amplitude * sin(2 pi kx x) phi_m in the given component."""
    c = np.zeros((2, grid.nx, grid.ny, grid.nz), complex)
    ix = list(grid.kx).index(kx)
    jx = list(grid.kx).index(-kx)
    c[comp, ix, 0, m] = -0.5j * amplitude
    c[comp, jx, 0, m] = 0.5j * amplitude
    return SpectralField(grid, c)


def embed(v, fine):
    """Copy coefficients onto a finer horizontal grid (same nz, h)."""
    g = v.grid
    c = np.zeros((v.components, fine.nx, fine.ny, fine.nz), complex)
    for i, kx in enumerate(g.kx):
        for j, ky in enumerate(g.ky):
            c[:, list(fine.kx).index(kx), list(fine.ky).index(ky), :] = v.coeffs[:, i, j, :]
    return SpectralField(fine, c)


class TestAdvect:
    def test_polarization_of_reference_bilinear_form(self, grid16, rng):
        # advect is the quadratic form of the bilinear reference_advect, so
        # its polarization is the symmetrized bilinear form
        u = random_spectral(grid16, rng)
        w = random_spectral(grid16, rng)
        lhs = advect(u + w) - advect(u) - advect(w)
        rhs = reference_advect(u, w) + reference_advect(w, u)
        scale = np.max(np.abs(rhs)) + 1.0
        assert np.max(np.abs(lhs.coeffs - rhs)) < 1e-11 * scale
        assert np.max(np.abs(lhs.coeffs)) > 0.1

    def test_zero_advecting_field(self, grid16):
        assert np.max(np.abs(advect(zeros_spectral(grid16)).coeffs)) == 0.0

    def test_hand_example(self, grid16):
        # v = (sin(2 pi x) phi_0, 0).  The horizontal term is
        # 2 pi sin cos phi_0^2 and the vertical term 2 pi sin cos sin^2(lam z),
        # summing to the z-independent field (pi sin(4 pi x), 0).
        g = grid16
        v = sine_x_mode(g)
        out = advect(v)
        ones = 2 * g.avg_factor
        expected = np.zeros_like(out.coeffs)
        expected[0, list(g.kx).index(2), 0, :] = -0.5j * np.pi * ones
        expected[0, list(g.kx).index(-2), 0, :] = 0.5j * np.pi * ones
        expected *= dealias_mask(g)
        assert np.max(np.abs(out.coeffs - expected)) < 1e-12

    def test_hand_example_quadrature_oracle(self, grid16):
        # same field, checked in physical space against pi sin(4 pi x)
        # projected through the (truncated) vertical basis
        g = grid16
        v = sine_x_mode(g)
        out = to_physical(advect(v))
        ones = 2 * g.avg_factor * dealias_mask(g)[0, 0]
        profile = ones @ g.nodes.cos
        x = np.arange(g.nx) / g.nx
        exact = np.pi * np.sin(4 * np.pi * x)[:, None, None] * profile[None, None, :]
        assert np.max(np.abs(out.values[0] - exact)) < 1e-10
        assert np.max(np.abs(out.values[1])) < 1e-13

    def test_energy_neutral_for_constrained_advecting_field(self, grid16, rng):
        for _ in range(10):
            v = constrain(random_spectral(grid16, rng))
            vm = dealias(v)
            ip = l2_inner(advect(v), vm)
            assert abs(ip) < 1e-9 * l2_norm(v) ** 3

    @pytest.mark.parametrize("n", [12, 18, 24])
    def test_energy_neutral_when_n_is_a_multiple_of_three(self, n):
        # at f = 2/3 two modes with |k| = n/3 alias onto -n/3, so the 2/3
        # rule must keep |k| < n/3 strictly (3K < n)
        g = Grid(n, n, 6)
        rng = np.random.default_rng(n)
        for _ in range(3):
            v = dealias(random_spectral(g, rng, kmax=n // 2, mmax=g.nz))
            assert abs(l2_inner(advect(v), v)) < 1e-12 * l2_norm(v) ** 3

    @pytest.mark.parametrize("n", [12, 16])
    def test_full_fraction_keeps_every_mode(self, n):
        # every mode of the velocity space, which has no Nyquist lines
        g = Grid(n, n, 4, dealias_fraction=1.0)
        mask = dealias_mask(g)
        assert np.array_equal(mask, np.broadcast_to(g.off_nyquist[..., None], mask.shape))
        assert g.dealias_block[1] == n // 2 and len(g.dealias_block[0]) == n - 1

    def test_peak_memory_under_four_fields(self, rng):
        # advect writes v, dx v and dy v into one transform buffer, which the
        # inverse transform consumes, and drops the buffer and the node planes
        # before the forward transform; a concatenated stack with a zero-filled
        # copy beside it peaks near 4.9 field sizes at 32^2x16, this near 3.3
        g = Grid(32, 32, 16)
        v = constrain(random_spectral(g, rng, amplitude=1e-3))
        advect(v)  # fill the grid's lazy tables before measuring
        tracemalloc.start()
        try:
            advect(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * v.coeffs.nbytes

    def test_wrong_component_count_rejected(self, grid16):
        # a field advect could be handed is a velocity by construction
        with pytest.raises(ConfigurationError, match=r"expected shape \(2 components"):
            advect(SpectralField(grid16, np.zeros((1, 16, 16, 8), complex)))


# 26x24 has 624 horizontal points: one full tile of advect's vertical stage
# (nonlinear.TILE = 512) and a partial one.
ORACLE_GRIDS = [OddGrid(10, 9, 4, 0.7, f) for f in (0.5, 2.0 / 3.0, 1.0)] + [
    Grid(nx, ny, nz, h, f)
    for nx, ny, nz, h in ((8, 12, 5, 1.3), (12, 8, 4, 0.4), (20, 18, 5, 1.3), (26, 24, 5, 1.3))
    for f in (2.0 / 3.0, 1.0)]
GRID_IDS = dict(ids=lambda g: f"{g.nx}x{g.ny}x{g.nz}-f{g.dealias_fraction:.2f}")


def nyquist_velocity(grid, kind, rng):
    """A velocity with content on the Nyquist row and column."""
    if kind == "non-hermitian":
        shape = (2, grid.nx, grid.ny, grid.nz)
        return SpectralField(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    v = random_spectral(grid, rng, kmax=max(grid.nx, grid.ny) // 2, mmax=grid.nz)
    return constrain(v) if kind == "constrained" else v


class TestAdvectOracle:
    @pytest.mark.parametrize("kind", ["hermitian", "non-hermitian", "constrained"])
    @pytest.mark.parametrize("grid", ORACLE_GRIDS, **GRID_IDS)
    def test_matches_reference(self, grid, kind):
        v = nyquist_velocity(grid, kind, np.random.default_rng(7))
        if kind == "non-hermitian":
            # advect reads only the Hermitian part, the real field's spectrum
            assert np.max(np.abs(hermitize(v).coeffs - v.coeffs)) > 0.1
        ref = reference_advect(v, v)
        assert np.max(np.abs(advect(v).coeffs - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("grid", ORACLE_GRIDS, **GRID_IDS)
    def test_zero_outside_the_dealias_mask(self, grid):
        v = nyquist_velocity(grid, "non-hermitian", np.random.default_rng(3))
        out = advect(v).coeffs
        assert np.max(np.abs(out)) > 0
        assert not np.any(out[:, ~dealias_mask(grid)])

    @pytest.mark.parametrize("grid", ORACLE_GRIDS + [Grid(n, n, 6) for n in (12, 18, 24)],
                             **GRID_IDS)
    def test_block_has_the_support_of_the_mask(self, grid):
        rows, K = grid.dealias_block
        # FFT order, and k -> -k maps the rows onto themselves
        assert np.array_equal(rows, np.sort(rows))
        assert np.array_equal(np.sort(-rows % grid.nx), rows)
        block = np.zeros((grid.nx, grid.ny), bool)
        block[rows[:, None], np.arange(K) % grid.ny] = True
        block[rows[:, None], -np.arange(K) % grid.ny] = True
        keep_m = np.arange(grid.nz) < grid.dealias_modes
        assert np.array_equal(dealias_mask(grid), block[..., None] & keep_m)

    def test_tiles_split_the_horizontal_points(self):
        g = ORACLE_GRIDS[-1]
        n = g.nx * g.ny
        assert n > TILE and n % TILE


class TestAdvectNodes:
    """advect's own node set, ceil((3 mk - 1) / 2) nodes for its modes m < mk,
    projects exactly: it matches the reference on 6 nz + 40 nodes at every f."""

    @pytest.mark.parametrize("grid", [g for g in ORACLE_GRIDS if g.dealias_fraction < 1]
                             + [Grid(32, 32, 16, 1.0, f) for f in (2.0 / 3.0, 1.0)],
                             **GRID_IDS)
    def test_matches_reference_on_more_nodes(self, grid):
        rng = np.random.default_rng(5)
        for kind in ("hermitian", "non-hermitian", "constrained"):
            v = nyquist_velocity(grid, kind, rng)
            ref = reference_advect(v, v)
            assert np.max(np.abs(advect(v).coeffs - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_node_count(self):
        # ceil((3 mk - 1) / 2) for mk = 22, 11, 6 and 16
        for nz, f, n in ((32, 2.0 / 3.0, 33), (16, 2.0 / 3.0, 16), (8, 2.0 / 3.0, 9),
                         (16, 1.0, 24)):
            g = Grid(8, 8, nz, dealias_fraction=f)
            assert g.advect_nodes.z.shape == (n,) and g.nzq == 3 * nz + 8
            assert g.advect_nodes.cos.shape == (g.dealias_modes, n)


class TestF:
    @pytest.mark.parametrize("k, m", [((1, 0), 0), ((0, 0), 0), ((1, 1), 1), ((0, 1), 2)])
    @pytest.mark.parametrize("amplitude", [1e-3, 1.0, 1e6])
    def test_vanishes_on_an_eigenmode(self, k, m, amplitude):
        # a cos(2 pi k.x) phi_m with a perpendicular to k: div_H v = 0 and
        # (v . grad_H) v = 0, with each product's factors zero or cancelling
        # exactly; the linear march tests start from these modes
        g = Grid(8, 8, 4)
        op = StokesOperator(g)
        y = op.to_eigen_flat(F(eigenmode(g, k, m, amplitude)))
        assert np.all(y == 0.0)

    def test_zero(self, grid16):
        assert np.max(np.abs(F(zeros_spectral(grid16)).coeffs)) == 0.0

    def test_quadratic_scaling(self, grid16, rng):
        v = constrain(random_spectral(grid16, rng))
        for c in (2.0, -0.5, 10.0):
            lhs = F(c * v)
            rhs = c**2 * F(v)
            scale = np.max(np.abs(rhs.coeffs))
            assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-11 * scale

    def test_range_on_constraint_manifold(self, grid16, rng):
        v = constrain(random_spectral(grid16, rng))
        f = F(v)
        div = divergence_of_average(f)
        assert np.max(np.abs(div.coeffs)) < 1e-12 * max(l2_norm(f), 1.0)

    def test_energy_neutral(self, grid16, rng):
        for _ in range(10):
            v = constrain(random_spectral(grid16, rng))
            assert abs(l2_inner(F(v), v)) < 1e-9 * l2_norm(v) ** 3

    def test_horizontal_refinement_invariance(self, rng):
        # a field band-limited well inside the dealias cutoff produces the
        # same F coefficients after horizontal refinement at fixed nz
        coarse = Grid(16, 16, 8)
        fine = Grid(32, 32, 8)
        v = dealias(constrain(random_spectral(coarse, rng, kmax=2, mmax=2)))
        fc = F(v)
        ff = F(embed(v, fine))
        diff = np.max(np.abs(embed(fc, fine).coeffs - ff.coeffs))
        assert diff < 1e-8 * max(np.max(np.abs(fc.coeffs)), 1e-30)

    def test_workspace_reuse_matches(self, grid16, rng):
        v = constrain(random_spectral(grid16, rng))
        ws = NonlinearWorkspace(grid16)
        a = F(v, ws)
        b = F(v)
        assert np.max(np.abs(a.coeffs - b.coeffs)) == 0.0


class TestBilinearProbe:
    def test_report_finite_and_positive(self):
        rep = bilinear_estimate_probe(Grid(8, 8, 4), samples=6, seed=1)
        assert isinstance(rep, BilinearProbeReport)
        assert len(rep.ratios) == 6
        assert len(rep.lipschitz_ratios) == 5
        assert np.isfinite(rep.m_hat) and rep.m_hat > 0
        assert np.isfinite(rep.m_lip) and rep.m_lip > 0
        assert rep.m_hat == max(rep.ratios)

    def test_constant_stable_under_refinement(self):
        # sample band (kmax = mmax = 3) must sit inside every dealias cutoff
        ms = [
            bilinear_estimate_probe(Grid(n, n, nz), samples=8, seed=2).m_hat
            for n, nz in ((16, 8), (32, 16), (64, 32))
        ]
        assert max(ms) < 2.0 * min(ms)
