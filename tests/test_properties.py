"""Property tests on random non-square grids with h != 1 and no dealiasing.

The eigen-coordinates of the Stokes operator and the vertical transform are
checked against the projection, the operator's direct application, the dense
per-wavenumber oracle and the vertical synthesis of to_physical.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hydropde.fields import l2_norm, random_spectral
from hydropde.grid import Grid
from hydropde.projection import constrain
from hydropde.stokes import StokesOperator, assemble_block

grids = st.builds(
    Grid,
    nx=st.sampled_from([4, 6, 8, 12]),
    ny=st.sampled_from([4, 6, 8, 12]),
    nz=st.integers(2, 6),
    h=st.sampled_from([0.4, 1.3, 2.7]),
    dealias_fraction=st.just(1.0),
)
seeds = st.integers(0, 2**32 - 1)
few = settings(max_examples=25, deadline=None, database=None, derandomize=True)


def random_velocity(grid, seed):
    return random_spectral(grid, 2, np.random.default_rng(seed),
                           kmax=grid.nx // 2, mmax=grid.nz)


@few
@given(grids, seeds)
def test_eigen_round_trip_is_constrain(grid, seed):
    op = StokesOperator(grid)
    f = random_velocity(grid, seed)
    back = op.from_eigen(*op.to_eigen(f))
    assert l2_norm(back - constrain(f)) <= 1e-12 * l2_norm(f)


@few
@given(grids, seeds)
def test_eigenvalues_times_coordinates_is_apply(grid, seed):
    op = StokesOperator(grid)
    f = random_velocity(grid, seed)
    mu0, mu = op.eigenvalues_split()
    y0, y = op.to_eigen(f)
    direct = op.apply(f)
    assert l2_norm(op.from_eigen(mu0 * y0, mu * y) - direct) <= 1e-11 * l2_norm(direct)


@few
@given(grids, st.data())
def test_eigenvalues_match_dense_oracle(grid, data):
    op = StokesOperator(grid)
    _, mu = op.eigenvalues_split()
    row = data.draw(st.integers(0, mu.shape[0] - 1))
    ix, iy = divmod(row + 1, grid.ny)
    ref = assemble_block(grid, (grid.kx[ix], grid.ky[iy])).eigenvalues
    assert np.max(np.abs(np.sort(mu[row]) - np.sort(ref))) <= 1e-12 * ref.max()


@few
@given(grids, seeds)
def test_vertical_to_modes_inverts_synthesis(grid, seed):
    c = np.random.default_rng(seed).standard_normal((3, grid.nz))
    back = grid.vertical_to_modes(c @ grid.cos_table)
    assert np.max(np.abs(back - c)) <= 1e-13 * np.max(np.abs(c))
