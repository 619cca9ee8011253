"""Constrained viscous operator: blocks, spectrum, resolvent, semigroup.

The block eigenstructure is cross-checked against an independent dense
oracle built from scratch with scipy (quadrature for the average factors,
null_space for the constraint manifold, eigvalsh for the reduced block).
"""

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from hydropde.errors import ConfigurationError, DomainError, SingularResolventError
from hydropde.fields import (
    SpectralField,
    l2_norm,
    lp_norm,
    random_spectral,
    sobolev_norm,
    to_physical,
)
from hydropde.grid import Grid
from hydropde.projection import constrain
from hydropde.stokes import StokesOperator, eigenmode
from oracles import (
    eigenmode_eigenvalue,
    full_plane_eigenvalues,
    full_plane_from_eigen,
    full_plane_to_eigen,
)

HALF_PLANE_GRIDS = [Grid(n, n, n // 2, dealias_fraction=f) for n in (8, 16) for f in (2 / 3, 1.0)]
HALF_PLANE_IDS = ["8x8x4-f2/3", "8x8x4-f1", "16x16x8-f2/3", "16x16x8-f1"]


def off_lines(f):
    """The coefficients of f with the Nyquist lines zeroed."""
    return f.coeffs * f.grid.off_nyquist[:, :, None]


def oracle_eigenvalues(grid, k):
    """Dense reduced-block eigenvalues built independently with scipy."""
    nz, h = grid.nz, grid.h
    lam = (np.arange(nz) + 0.5) * np.pi / h
    # average factors by quadrature, not by closed form
    a = np.array(
        [
            scipy.integrate.quad(lambda z, l=l: np.cos(l * z), -h, 0)[0] / h
            for l in lam
        ]
    )
    big = np.diag(np.tile(4 * np.pi**2 * (k[0] ** 2 + k[1] ** 2) + lam**2, 2))
    if k == (0, 0):
        return np.sort(np.diag(big))
    n = np.concatenate([k[0] * a, k[1] * a])
    basis = scipy.linalg.null_space(n[None, :])
    reduced = basis.T @ big @ basis
    return np.sort(scipy.linalg.eigvalsh(reduced))


class TestBlocks:
    @pytest.mark.parametrize("k", [(0, 0), (1, 0), (0, 1), (2, 3), (-1, 2), (7, -5)])
    def test_against_dense_oracle(self, grid16, op16, k):
        evs = dict(op16.spectrum().entries)[k]
        oracle = oracle_eigenvalues(grid16, k)
        assert evs.shape == oracle.shape
        assert np.max(np.abs(np.sort(evs) - oracle)) < 1e-9

    def test_batched_decomposition_matches_reference(self, grid16, op16):
        g = grid16
        _, mu = op16.eigenvalues_split()
        # the last row is k = (-1, 7), the last ky >= 0 column of the last kx row
        for row in (0, 5, 100, mu.shape[0] - 1):
            ix, iy = (int(r[row]) for r in op16.rows)
            k = (int(g.kx[ix]), int(g.ky[iy]))
            ref = oracle_eigenvalues(g, k)
            assert np.max(np.abs(np.sort(mu[row]) - ref)) < 1e-10
            # the images of unit eigen-coordinates are orthonormal
            # eigenvectors of the constrained operator Pi Lambda Pi, with Pi
            # the projection off the normal n
            V = np.empty((2 * g.nz, mu.shape[1]))
            for j in range(mu.shape[1]):
                y = np.zeros(mu.shape, complex)
                y[row, j] = 1.0
                c = op16.from_eigen(np.zeros(2 * g.nz), y).coeffs
                V[:, j] = c[:, ix, iy, :].reshape(-1).real
            lam = np.tile(4 * np.pi**2 * (k[0] ** 2 + k[1] ** 2) + g.lam**2, 2)
            n = np.concatenate([k[0] * g.avg_factor, k[1] * g.avg_factor])
            av = lam[:, None] * V
            av -= np.outer(n, (n @ av) / (n @ n))
            res = av - V * mu[row][None, :]
            assert np.max(np.abs(res)) < 1e-8 * lam.max()
            gram = V.T @ V
            assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-12


class TestSpectrum:
    def test_zero_wavenumber_diagonal(self, grid16, op16):
        rep = op16.spectrum()
        k0, evs = rep.entries[0]
        assert k0 == (0, 0)
        expected = np.tile(grid16.lam**2, 2)
        assert np.max(np.abs(np.sort(evs) - np.sort(expected))) < 1e-12
        assert abs(evs.min() - np.pi**2 / 4) < 1e-12

    def test_beta_value(self, op16):
        assert abs(op16.beta - np.pi**2 / 4) < 1e-10

    def test_beta_scales_with_depth(self):
        op = StokesOperator(Grid(8, 8, 4, h=2.0))
        assert abs(op.beta - np.pi**2 / 16) < 1e-10

    def test_first_nonzero_wavenumber_eigenvalue(self, op16):
        # perpendicular mode at k = (1, 0), m = 0: 4 pi^2 + pi^2 / 4
        rep = op16.spectrum()
        target = 4 * np.pi**2 + np.pi**2 / 4
        for k, evs in rep.entries:
            if k == (1, 0):
                assert np.min(np.abs(evs - target)) < 1e-10
                break
        else:
            raise AssertionError("k = (1, 0) missing from spectrum report")

    def test_all_eigenvalues_real_positive(self, op16):
        evs = np.concatenate([e for _, e in op16.spectrum().entries])
        assert evs.min() >= np.pi**2 / 4 - 1e-12

    def test_flat_eigenvalues_follow_to_eigen_order(self, grid16, op16, rng):
        # scaling the flat to_eigen coordinates by op.eigenvalues applies A
        v = constrain(random_spectral(grid16, 2, rng))
        y0, y = op16.to_eigen(v)
        mu = op16.eigenvalues
        av = op16.from_eigen(mu[:y0.size] * y0, mu[y0.size:].reshape(y.shape) * y)
        ref = op16.apply(v)
        assert l2_norm(av - ref) < 1e-12 * l2_norm(ref)


class TestEigenmodes:
    def test_eigenmode_is_eigenfunction(self, grid16, op16):
        for k, m in (((0, 0), 0), ((1, 0), 0), ((2, 1), 3), ((0, -2), 1)):
            v = eigenmode(grid16, k, m)
            mu = eigenmode_eigenvalue(grid16, k, m)
            av = op16.apply(v)
            assert np.max(np.abs(av.coeffs - mu * v.coeffs)) < 1e-10 * mu

    def test_eigenmode_on_constraint_manifold(self, grid16):
        v = eigenmode(grid16, (2, 1), 3)
        pv = constrain(v)
        assert np.max(np.abs(pv.coeffs - v.coeffs)) < 1e-14

    def test_eigenmode_validation(self, grid16):
        # (-8, .) and (., -8) are the Nyquist lines, which the velocity space drops
        for k, m in (((1, 0), 99), ((-8, 0), 0), ((-8, -8), 2), ((3, -8), 1)):
            with pytest.raises(ConfigurationError):
                eigenmode(grid16, k, m)


class TestResolvent:
    def test_lambda_zero_inverts_eigenmode(self, grid16, op16):
        v = eigenmode(grid16, (1, 2), 1)
        mu = eigenmode_eigenvalue(grid16, (1, 2), 1)
        sol, _ = op16.resolvent_solve(0.0, v)
        assert np.max(np.abs(sol.coeffs - v.coeffs / mu)) < 1e-12

    def test_large_imaginary_lambda_bound(self, grid16, op16, rng):
        lam = 1e6j
        f = random_spectral(grid16, 2, rng)
        sol, _ = op16.resolvent_solve(lam, f)
        assert abs(lam) * l2_norm(sol) <= l2_norm(f) * (1 + 1e-10)

    def test_resolvent_identity(self, grid16, op16, rng):
        # R(a) - R(b) = (b - a) R(a) R(b)
        f = constrain(random_spectral(grid16, 2, rng))
        a, b = 1.0 + 2.0j, 5.0
        ra, _ = op16.resolvent_solve(a, f)
        rb, _ = op16.resolvent_solve(b, f)
        rab, _ = op16.resolvent_solve(a, rb)
        lhs = ra.coeffs - rb.coeffs
        rhs = (b - a) * rab.coeffs
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(f.coeffs))

    def test_defining_equation_with_pressure(self, grid16, op16, rng):
        # (lam + Lambda) v + fold(grad pi) = P f in coefficient space
        g = grid16
        lam = 0.5 + 3.0j
        f = random_spectral(g, 2, rng)
        v, pi = op16.resolvent_solve(lam, f)
        fc = constrain(f)
        grad = pi.gradient()
        # fold of a z-constant onto the cosine basis: b_m = 2 a_m
        fold = 2.0 * g.avg_factor
        resid = (
            (lam + g.laplace_symbol[None, None, None, :]) * v.coeffs
            + grad.coeffs[..., None] * fold
            - fc.coeffs
        )
        assert np.max(np.abs(resid)) < 1e-9 * np.max(np.abs(f.coeffs))

    def test_h2_regularity_ratio_stable(self, rng):
        # || A R(lam) f || / || f || stays O(1) as the grid is refined
        ratios = []
        for n in (8, 16, 32):
            g = Grid(n, n, 8)
            op = StokesOperator(g)
            r = np.random.default_rng(3)
            f = constrain(random_spectral(g, 2, r, kmax=3, mmax=3))
            v, _ = op.resolvent_solve(1.0, f)
            ratios.append(sobolev_norm(v, 2) / l2_norm(f))
        assert max(ratios) < 2.0 * min(ratios)

    def test_singular_at_eigenvalue(self, grid16, op16, rng):
        f = random_spectral(grid16, 2, rng)
        with pytest.raises(SingularResolventError):
            op16.resolvent_solve(-op16.beta, f)


class TestSemigroup:
    def test_identity_at_t_zero(self, grid16, op16, rng):
        f = constrain(random_spectral(grid16, 2, rng))
        out = op16.semigroup_apply(0.0, f)
        assert np.max(np.abs(out.coeffs - f.coeffs)) < 1e-13 * np.max(np.abs(f.coeffs))

    def test_eigenmode_decay_closed_form(self, grid16, op16):
        v = eigenmode(grid16, (1, 1), 2)
        mu = eigenmode_eigenvalue(grid16, (1, 1), 2)
        for t in (0.001, 0.01, 0.1):
            out = op16.semigroup_apply(t, v)
            assert np.max(np.abs(out.coeffs - np.exp(-mu * t) * v.coeffs)) < 1e-12

    def test_semigroup_law(self, grid16, op16, rng):
        f = constrain(random_spectral(grid16, 2, rng))
        one = op16.semigroup_apply(0.3, op16.semigroup_apply(0.2, f))
        two = op16.semigroup_apply(0.5, f)
        assert l2_norm(one - two) < 1e-11 * l2_norm(f)

    def test_exponential_decay_bound(self, grid16, op16, rng):
        beta = op16.beta
        for _ in range(10):
            f = constrain(random_spectral(grid16, 2, rng))
            base = l2_norm(f)
            for t in (0.01, 0.1, 1.0, 5.0):
                assert l2_norm(op16.semigroup_apply(t, f)) <= np.exp(-beta * t) * base * (
                    1 + 1e-11
                )

    def test_negative_time_rejected(self, grid16, op16):
        f = SpectralField(grid16, np.zeros((2, 16, 16, 8), complex))
        with pytest.raises(DomainError):
            op16.semigroup_apply(-0.1, f)

    def test_solve_shifted_is_backward_euler(self, grid16, op16, rng):
        f = constrain(random_spectral(grid16, 2, rng))
        c = 0.05
        v = op16.solve_shifted(c, f)
        # (I + cA) v = f
        resid = v.coeffs + c * op16.apply(v).coeffs - f.coeffs
        assert np.max(np.abs(resid)) < 1e-10 * np.max(np.abs(f.coeffs))


@pytest.mark.parametrize("name, call", [
    ("t", lambda op, f: op.semigroup_apply(np.nan, f)),
    ("c", lambda op, f: op.solve_shifted(np.nan, f)),
    ("c", lambda op, f: op.solve_shifted(-1 / op.eigenvalues.max(), f)),
    ("lam", lambda op, f: op.resolvent_solve(np.nan, f)),
    ("p", lambda op, f: lp_norm(to_physical(f), np.nan)),
], ids=["semigroup-t-nan", "shifted-c-nan", "shifted-c-singular", "resolvent-lam-nan", "lp-p-nan"])
def test_nan_or_singular_scalar_rejected(grid16, op16, name, call):
    # each returned a NaN field or norm instead of raising
    f = constrain(random_spectral(grid16, 2, np.random.default_rng(0)))
    with pytest.raises(DomainError, match=rf"\b{name} (must|>=)"):
        call(op16, f)


class TestBlockMachineryConsistency:
    def test_eigen_coordinates_round_trip(self, grid16, op16, rng):
        f = constrain(random_spectral(grid16, 2, rng))
        y0, y = op16.to_eigen(f)
        back = op16.from_eigen(y0, y)
        assert l2_norm(back - f) < 1e-12 * l2_norm(f)

    def test_apply_matches_spectral_form(self, grid16, op16, rng):
        f = random_spectral(grid16, 2, rng)
        direct = op16.apply(f)
        mu0, mu = op16.eigenvalues_split()
        y0, y = op16.to_eigen(f)
        via_eigen = op16.from_eigen(mu0 * y0, mu * y)
        assert l2_norm(direct - via_eigen) < 1e-11 * l2_norm(direct)


class TestHalfPlane:
    """The coordinates of one Hermitian half against the full plane, where
    every k != 0 was a row (tests/oracles.py keeps those maps), compared off
    the Nyquist lines, which the half drops."""

    @staticmethod
    def nyquist_field(grid, seed=0):
        # Hermitian, with content on both Nyquist lines and in every mode
        return random_spectral(grid, 2, np.random.default_rng(seed),
                               kmax=grid.nx // 2, mmax=grid.nz)

    @staticmethod
    def full_rows(op):
        ix, iy = op.rows
        return ix * op.grid.ny + iy - 1

    @pytest.mark.parametrize("grid", HALF_PLANE_GRIDS, ids=HALF_PLANE_IDS)
    def test_maps_match_full_plane(self, grid):
        op = StokesOperator(grid)
        f = self.nyquist_field(grid)
        (y0, y), (z0, z) = op.to_eigen(f), full_plane_to_eigen(op, f)
        assert len(y) < len(z) and np.array_equal(y0, z0)
        assert np.max(np.abs(y - z[self.full_rows(op)])) <= 1e-14 * np.max(np.abs(z))
        got = op.from_eigen(y0, y).coeffs
        want = off_lines(full_plane_from_eigen(op, z0, z))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        mu = full_plane_eigenvalues(op)
        full_mu = mu[2 * grid.nz:].reshape(z.shape)
        assert np.array_equal(op.eigenvalues_split()[1], full_mu[self.full_rows(op)])

    @pytest.mark.parametrize("grid", HALF_PLANE_GRIDS, ids=HALF_PLANE_IDS)
    def test_weights_count_each_wavenumber_once(self, grid):
        op = StokesOperator(grid)
        # the kept rows and the mirror cover every k != 0 off the Nyquist lines once
        w = op.weights[2 * grid.nz::2 * grid.nz - 1]
        assert w.sum() == (grid.nx - 1) * (grid.ny - 1) - 1
        f = self.nyquist_field(grid, seed=1)
        y0, y = op.to_eigen(f)
        z0, z = full_plane_to_eigen(op, SpectralField(grid, off_lines(f)))
        half = op.weights @ np.abs(np.concatenate([y0, y.ravel()])) ** 2
        full = np.sum(np.abs(z0) ** 2) + np.sum(np.abs(z) ** 2)
        assert half == pytest.approx(full, rel=1e-14)

    @pytest.mark.parametrize("lam", [0.0, 2.0 + 5.0j])
    def test_spectral_map_of_any_field_matches_full_plane(self, grid16, op16, rng, lam):
        # the resolvent at complex lambda does not map real fields to real
        # ones, and the field need not be Hermitian
        c = rng.standard_normal((2, 16, 16, 8)) + 1j * rng.standard_normal((2, 16, 16, 8))
        f = SpectralField(grid16, c)
        z0, z = full_plane_to_eigen(op16, f)
        mu = full_plane_eigenvalues(op16)
        n0 = 2 * grid16.nz
        want = full_plane_from_eigen(op16, z0 / (lam + mu[:n0]), z / (lam + mu[n0:]).reshape(z.shape))
        got, _ = op16.resolvent_solve(lam, f)
        want = off_lines(want)
        assert np.max(np.abs(got.coeffs - want)) <= 1e-13 * np.max(np.abs(want))


class TestSectorSweep:
    @pytest.mark.parametrize("eps", [np.pi / 8, np.pi / 4])
    def test_bound_holds(self, op16, eps):
        rep = op16.sector_sweep(eps)
        assert rep.sup_m <= 1.0 / np.sin(eps) + 1e-9
        assert len(rep.rows) == 19 * 7

    def test_rejects_bad_opening(self, op16):
        with pytest.raises(DomainError):
            op16.sector_sweep(0.0)
        with pytest.raises(DomainError):
            op16.sector_sweep(np.pi / 2)

    @pytest.mark.parametrize("lams", [[1.0, np.nan], [np.nan, 1.0], [1.0, np.inf]])
    def test_rejects_non_finite_lambda(self, op16, lams):
        with pytest.raises(DomainError, match=r"lambda must be finite, got \(?(nan|inf)"):
            op16.sector_sweep(0.3, lams)


class TestSmoothing:
    def test_trivial_exponents_bounded_by_one(self, grid16, op16, rng):
        f = constrain(random_spectral(grid16, 2, rng))
        rep = op16.smoothing_probe(0.0, 0.0, [0.01, 0.1, 1.0], f)
        assert rep.sup_g <= 1.0 + 1e-11

    def test_eigenfunction_closed_form(self, grid16, op16):
        v = eigenmode(grid16, (1, 0), 0)
        mu = eigenmode_eigenvalue(grid16, (1, 0), 0)
        beta = op16.beta
        th1 = 0.5
        ts = [0.01, 0.1, 0.5]
        rep = op16.smoothing_probe(th1, 0.0, ts, v)
        for (t, g) in rep.rows:
            expected = t**th1 * np.exp((beta - mu) * t) * (1 + mu) ** th1
            assert abs(g - expected) < 1e-9 * expected

    def test_exponent_validation(self, grid16, op16, rng):
        f = random_spectral(grid16, 2, rng)
        with pytest.raises(DomainError):
            op16.smoothing_probe(0.7, 0.7, [0.1], f)
        with pytest.raises(DomainError):
            op16.smoothing_probe(-0.1, 0.0, [0.1], f)

    @pytest.mark.parametrize("theta1, theta2", [(np.nan, 0.0), (0.0, np.nan)])
    def test_nan_exponent_is_named(self, grid16, op16, rng, theta1, theta2):
        f = random_spectral(grid16, 2, rng)
        with pytest.raises(DomainError, match=r"got theta1 = \S+, theta2 = \S+"):
            op16.smoothing_probe(theta1, theta2, [0.1], f)


class TestThreading:
    def test_results_independent_of_thread_count(self, grid16, monkeypatch):
        monkeypatch.setenv("PE_THREADS", "2")
        _, mu2 = StokesOperator(grid16).eigenvalues_split()
        monkeypatch.setenv("PE_THREADS", "1")
        _, mu1 = StokesOperator(grid16).eigenvalues_split()
        assert np.max(np.abs(np.sort(mu1, axis=1) - np.sort(mu2, axis=1))) < 1e-10
