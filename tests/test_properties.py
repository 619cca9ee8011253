"""Property tests on random non-square grids with h != 1 and no dealiasing.

The eigen-coordinates of the Stokes operator and the vertical transform are
checked against the projection, the operator's direct application, the dense
per-wavenumber oracle and the vertical synthesis of to_physical, and the
operator's coordinate norm against the L^2 norm of the field.  The
transform pair (synthesize, to_spectral) is checked against the direct sum
of the basis functions at the collocation nodes and against the complex
FFT, and advect against its full-spectrum oracle, also with dealiasing;
F is -constrain(advect) bit for bit.  Checkpoints round-trip bit for bit,
and constrain is idempotent.
"""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hydropde.fields import (
    AveragedField,
    SpectralField,
    l2_norm,
    random_spectral,
    synthesize,
    to_physical,
    to_spectral,
)
from hydropde.grid import Grid
from hydropde.io import load_checkpoint, save_checkpoint
from hydropde.nonlinear import F, advect
from hydropde.projection import constrain
from hydropde.stokes import StokesOperator, assemble_block
from oracles import averaged_to_physical
from test_nonlinear import reference_advect

grids = st.builds(
    Grid,
    nx=st.sampled_from([4, 6, 8, 12]),
    ny=st.sampled_from([4, 6, 8, 12]),
    nz=st.integers(2, 6),
    h=st.sampled_from([0.4, 1.3, 2.7]),
    dealias_fraction=st.just(1.0),
)
dealiased_grids = st.builds(
    Grid,
    nx=st.sampled_from([4, 6, 8, 12]),
    ny=st.sampled_from([4, 6, 8, 12]),
    nz=st.integers(2, 6),
    h=st.sampled_from([0.4, 1.3, 2.7]),
    dealias_fraction=st.sampled_from([2.0 / 3.0, 1.0]),
)
seeds = st.integers(0, 2**32 - 1)
components = st.sampled_from([1, 2])
few = settings(max_examples=25, deadline=None, database=None, derandomize=True)


def random_velocity(grid, seed):
    return random_spectral(grid, 2, np.random.default_rng(seed),
                           kmax=grid.nx // 2, mmax=grid.nz)


@few
@given(grids, seeds)
def test_eigen_round_trip_is_constrain(grid, seed):
    op = StokesOperator(grid)
    f = random_velocity(grid, seed)
    pf = constrain(f)
    back = op.from_eigen(*op.to_eigen(f))
    assert l2_norm(back - pf) <= 1e-12 * l2_norm(f)
    assert l2_norm(constrain(back) - pf) <= 1e-12 * l2_norm(f)
    assert l2_norm(op.from_eigen(*op.to_eigen(pf)) - pf) <= 1e-12 * l2_norm(f)


@few
@given(grids, seeds)
def test_eigenvalues_times_coordinates_is_apply(grid, seed):
    op = StokesOperator(grid)
    f = random_velocity(grid, seed)
    mu0, mu = op.eigenvalues_split()
    direct = op.apply(f)
    y0, y = op.to_eigen(f)
    assert l2_norm(op.from_eigen(mu0 * y0, mu * y) - direct) <= 1e-11 * l2_norm(direct)
    y0, y = op.to_eigen(constrain(f))
    assert l2_norm(constrain(op.from_eigen(mu0 * y0, mu * y)) - direct) <= 1e-11 * l2_norm(direct)


@few
@given(grids, st.data())
def test_eigenvalues_match_dense_oracle(grid, data):
    op = StokesOperator(grid)
    _, mu = op.eigenvalues_split()
    row = data.draw(st.integers(0, mu.shape[0] - 1))
    ix, iy = (r[row] for r in op.rows)
    ref = assemble_block(grid, (grid.kx[ix], grid.ky[iy])).eigenvalues
    assert np.max(np.abs(np.sort(mu[row]) - np.sort(ref))) <= 1e-12 * ref.max()


@few
@given(grids, seeds)
def test_coordinate_norm_is_the_field_norm(grid, seed):
    op = StokesOperator(grid)
    y = op.to_eigen_flat(random_velocity(grid, seed))
    want = l2_norm(op.from_eigen_flat(y))
    assert abs(op.norm(y) - want) <= 1e-14 * want


@few
@given(grids, seeds)
def test_constrain_is_idempotent(grid, seed):
    raw = SpectralField(grid, random_coeffs((2, grid.nx, grid.ny, grid.nz), seed))
    for f in (raw, random_velocity(grid, seed)):
        p = constrain(f)
        # not bitwise: re-projecting moves values by rounding (1.8e-16 seen)
        assert np.max(np.abs(constrain(p).coeffs - p.coeffs)) <= 1e-15 * np.max(np.abs(p.coeffs))


@few
@given(grids, components, seeds)
def test_checkpoint_round_trip_is_bit_exact(grid, comps, seed):
    c = random_coeffs((comps, grid.nx, grid.ny, grid.nz), seed)
    # signed zeros in both parts, and a zero of each sign in each part
    c.real[..., 0] = -0.0
    c.imag[..., 1] = -0.0
    c.real[:, 0, 0] = 0.0
    f = SpectralField(grid, c)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "f.ckpt")
        save_checkpoint(path, f)
        back = load_checkpoint(path)
    assert (back.grid.nx, back.grid.ny, back.grid.nz, back.grid.h) == (
        grid.nx, grid.ny, grid.nz, grid.h)
    assert back.coeffs.shape == c.shape
    assert back.coeffs.tobytes() == c.tobytes()


@few
@given(grids, seeds)
def test_vertical_to_modes_inverts_synthesis(grid, seed):
    c = np.random.default_rng(seed).standard_normal((3, grid.nz))
    back = grid.vertical_to_modes(c @ grid.nodes.cos)
    assert np.max(np.abs(back - c)) <= 1e-13 * np.max(np.abs(c))


def random_coeffs(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def horizontal_sum(grid, c):
    """Re sum_k c[..., kx, ky, :] exp(2 pi i k.x) at the nodes, by direct sums."""
    ex = np.exp(2j * np.pi * np.outer(np.arange(grid.nx) / grid.nx, grid.kx))
    ey = np.exp(2j * np.pi * np.outer(np.arange(grid.ny) / grid.ny, grid.ky))
    return np.einsum("ik,jl,ckl...->cij...", ex, ey, c).real


@few
@given(grids, components, seeds)
def test_synthesis_is_the_direct_sum(grid, comps, seed):
    c = random_coeffs((comps, grid.nx, grid.ny, grid.nz), seed)
    lz = np.outer(grid.lam, grid.nodes.z)
    tol = 1e-12 * np.sum(np.abs(c))
    phi = horizontal_sum(grid, c @ np.cos(lz))
    assert np.max(np.abs(to_physical(SpectralField(grid, c)).values - phi)) <= tol
    dz_phi = horizontal_sum(grid, c @ (-grid.lam[:, None] * np.sin(lz)))
    assert np.max(np.abs(synthesize(grid, c, grid.nodes.dz).values - dz_phi)) <= tol


@few
@given(grids, components, seeds)
def test_averaged_synthesis_is_the_broadcast_sum(grid, comps, seed):
    c = random_coeffs((comps, grid.nx, grid.ny), seed)
    plane = horizontal_sum(grid, c)
    got = averaged_to_physical(AveragedField(grid, c)).values
    assert got.shape == plane.shape + (grid.nzq,)
    assert np.max(np.abs(got - plane[..., None])) <= 1e-12 * np.sum(np.abs(c))


@few
@given(grids, components, seeds)
def test_to_spectral_inverts_to_physical(grid, comps, seed):
    f = random_spectral(grid, comps, np.random.default_rng(seed),
                        kmax=grid.nx // 2, mmax=grid.nz)
    back = to_spectral(to_physical(f))
    assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-13 * np.max(np.abs(f.coeffs))


@few
@given(grids, seeds)
def test_F_is_minus_constrain_of_advect(grid, seed):
    # F projects advect's output in place through constrain's projection
    raw = SpectralField(grid, random_coeffs((2, grid.nx, grid.ny, grid.nz), seed))
    for v in (raw, constrain(random_velocity(grid, seed))):
        assert np.array_equal(F(v).coeffs, -constrain(advect(v)).coeffs)


@few
@given(grids, components, seeds)
def test_to_physical_is_the_real_part_of_ifft2(grid, comps, seed):
    c = random_coeffs((comps, grid.nx, grid.ny, grid.nz), seed)
    ref = np.fft.ifft2(c, axes=(1, 2), norm="forward").real @ grid.nodes.cos
    got = to_physical(SpectralField(grid, c)).values
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@few
@given(dealiased_grids, seeds)
def test_advect_matches_reference(grid, seed):
    raw = SpectralField(grid, random_coeffs((2, grid.nx, grid.ny, grid.nz), seed))
    for v in (raw, constrain(random_velocity(grid, seed))):
        ref = reference_advect(v, v)
        got = advect(v).coeffs
        assert np.max(np.abs(got - ref)) <= 1e-14 * max(np.max(np.abs(ref)), 1e-300)
