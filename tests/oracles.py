"""Reference implementations the tests compare the package against.

Each oracle is the plain, field-form, whole-list or full-plane version of
something the package computes a faster way, kept here rather than in
`src/` because only the tests call it; so are the zero field and the L^2
inner product.  `reference_advect` is the oracle of
the transport term.  The dense oracle of the Stokes operator's eigenvalues
is `test_stokes.oracle_eigenvalues`.
"""

import math
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from hydropde.evolution import (
    Forcing,
    ImexConfig,
    PicardConfig,
    PicardReport,
    TrajectoryLedger,
    _forcing_coords,
    _phi_pair,
    forcing_eval,
)
from hydropde.fields import (
    AveragedField,
    PhysicalField,
    SpectralField,
    hermitian_part,
    hermitize,
    synthesize,
)
from hydropde.grid import Grid, VerticalNodes
from hydropde.nonlinear import F
from hydropde.projection import constrain
from hydropde.stokes import StokesOperator


def zeros_spectral(grid, components=2):
    return SpectralField(grid, np.zeros((components, grid.nx, grid.ny, grid.nz), complex))


def l2_inner(f: SpectralField, g: SpectralField) -> float:
    """Real L^2(Omega) inner product of two real (Hermitian) fields."""
    return float(f.grid.h / 2 * np.sum(f.coeffs.conj() * g.coeffs).real)


def index_map_hermitian_part(c, n):
    """fields.hermitian_part by an index map: c(-k) is c[:, (-i) % nx, (-j) % ny]."""
    nx, ny = c.shape[1:3]
    ix, iy = (-np.arange(nx)) % nx, (-np.arange(ny)) % ny
    return 0.5 * (c[:, :, :n] + np.conj(c[:, ix][:, :, iy])[:, :, :n])


def averaged_to_physical(f: AveragedField) -> PhysicalField:
    """Broadcast a z-independent field onto the 3D collocation grid."""
    g = f.grid
    return synthesize(g, hermitian_part(f.coeffs[..., None], g.ny // 2 + 1), np.ones((1, g.nzq)))


def grad_norm(f: SpectralField) -> float:
    """||grad f||_{L^2(Omega)} including the vertical derivative."""
    g = f.grid
    return float(np.sqrt(g.h / 2 * np.sum(g.laplace_symbol * np.abs(f.coeffs) ** 2)))


def dealias_mask(grid: Grid):
    """Keep-mask over (kx, ky, m) of the 2/3 rule: |k| < f n / 2 and m < f nz."""
    f = grid.dealias_fraction
    keep_x, keep_y = (np.abs(k) < f * n / 2 for k, n in ((grid.kx, grid.nx), (grid.ky, grid.ny)))
    return keep_x[:, None, None] & keep_y[:, None] & (np.arange(grid.nz) < f * grid.nz)


class OddGrid(Grid):
    """A Grid without the even-count check.

    The transforms do not assume even counts, and an odd ny is the one case
    where the ky >= 0 half has no Nyquist column to leave out of the -ky
    mirror fill.
    """

    def __post_init__(self):
        pass


class OracleNodes(OddGrid):
    """A grid with 6 nz + 40 vertical nodes, far more than triple products need.

    The Gauss-Legendre weights are 2 / ((1 - x^2) P_n'(x)^2) at leggauss's
    nodes x: leggauss's own weights are up to 5e-12 relative off at n = 76,
    which moves reference_advect by up to 3e-14 of its largest coefficient.
    """

    nzq = property(lambda self: 6 * self.nz + 40)

    @cached_property
    def nodes(self):
        n = self.nzq
        x = np.polynomial.legendre.leggauss(n)[0]
        p0, p1 = np.ones_like(x), x  # P_(j-1)(x) and P_j(x)
        for j in range(1, n):
            p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
        dp = n * (x * p1 - p0) / ((x - 1) * (x + 1))
        w = 2 / ((1 - x) * (1 + x) * dp**2)
        return VerticalNodes(self.lam, self.h, -self.h / 2 + (self.h / 2) * x, w * (self.h / 2))


def reference_advect(v, v_adv):
    """advect's coefficients from Re(ifft2) of each full (comp, kx, ky, m) input.

    The test oracle for advect, as test_stokes.oracle_eigenvalues is for the
    Stokes operator: five full-spectrum syntheses and one complex FFT back,
    with none of advect's half-spectrum or mode truncation, and the vertical
    products on the 6 nz + 40 nodes of OracleNodes.
    """
    g = v.grid
    fine = OracleNodes(g.nx, g.ny, g.nz, g.h, g.dealias_fraction)
    mask = dealias_mask(g)
    cv, ca = v.coeffs * mask, v_adv.coeffs * mask
    ikx, iky = 2j * np.pi * g.kx[:, None, None], 2j * np.pi * g.ky[None, :, None]

    def nodes(c, table):
        return np.fft.ifft2(c, axes=(1, 2), norm="forward").real @ table

    va = nodes(ca, fine.nodes.cos)
    w = nodes((ikx * ca[0] + iky * ca[1])[None], fine.nodes.wint)[0]
    prod = (va[0] * nodes(ikx * cv, fine.nodes.cos) + va[1] * nodes(iky * cv, fine.nodes.cos)
            + w * nodes(cv, fine.nodes.dz))
    return np.fft.fft2(prod @ fine.nodes.to_modes, axes=(1, 2), norm="forward") * mask


def eigenmode_eigenvalue(grid: Grid, k, m) -> float:
    """Closed-form eigenvalue 4 pi^2 |k|^2 + lam_m^2 of stokes.eigenmode(grid, k, m)."""
    return float(4 * np.pi**2 * (k[0] ** 2 + k[1] ** 2) + grid.lam[m] ** 2)


def imex_step(v, f_prev, t, cfg: ImexConfig, op: StokesOperator,
              forcing: Forcing | None, first: bool):
    """One IMEX step from time t; returns (v_next, F(v)) for reuse.

    The field-form oracle of imex_run's eigen-coordinate march: the same
    scheme written with the operator's apply and shifted solve.
    """
    dt = cfg.dt
    fn = F(v)
    if cfg.order == 1 or first:
        rhs = v + dt * fn
        if forcing is not None:
            rhs = rhs + dt * forcing_eval(forcing, t + dt)
        vnext = op.solve_shifted(dt, rhs)
    else:
        rhs = v - (dt / 2) * op.apply(v) + dt * (1.5 * fn - 0.5 * f_prev)
        if forcing is not None:
            rhs = rhs + (dt / 2) * (forcing_eval(forcing, t) + forcing_eval(forcing, t + dt))
        vnext = op.solve_shifted(dt / 2, rhs)
    return vnext, fn


def picard_whole_lists(a: SpectralField, f_ext: Forcing | None, cfg: PicardConfig,
                       op: StokesOperator):
    """evolution.picard_solve with each iteration run on whole node lists.

    One iteration forms every node's source first, then the whole new
    trajectory, then its changes and fields, so it holds four trajectories
    at once: the old one, its fields, the sources and the new one.  The
    package's picard_solve streams the same arithmetic over the nodes and
    must agree with this bit for bit.  The forcing's node coordinates come
    from the package's one transform per run (evolution._forcing_coords),
    and k reads the operator's coordinate norm (StokesOperator.norm) of
    (1 + mu)^(3/4) y as the package does; the energy budget is written out here.
    """
    g = a.grid
    times = np.linspace(0.0, cfg.horizon, cfg.nodes)
    dt = times[1] - times[0]
    mu, w = op.eigenvalues, op.weights
    decay = np.exp(-dt * mu)
    pa, pb = _phi_pair(dt * mu)
    s = (1 + mu) ** 0.75
    h2 = g.h / 2
    have_f = f_ext is not None
    f_at = _forcing_coords(op, f_ext)
    fcat = [f_at(t) if have_f else 0.0 for t in times]
    acat = op.to_eigen_flat(hermitize(a))

    def duhamel(src):
        traj = [acat]
        for i in range(cfg.nodes - 1):
            traj.append(decay * traj[-1] + dt * (pa * src[i] + pb * src[i + 1]))
        return traj

    def k_of(traj):
        return max(t ** 0.25 * op.norm(s * y) for t, y in zip(times[1:], traj[1:]))

    vm = duhamel(fcat)
    vs = [op.from_eigen_flat(y) for y in vm]
    v0 = vs[0]
    src0 = fcat[0] + op.to_eigen_flat(F(v0))
    k_hist = [k_of(vm)]
    change_hist = []
    converged = diverged = False
    iterations = 0
    for _ in range(cfg.max_iterations):
        if converged or diverged:
            break
        iterations += 1
        vnew = duhamel([src0] + [f + op.to_eigen_flat(F(v)) for f, v in zip(fcat[1:], vs[1:])])
        change = max(
            math.sqrt(h2 * float(w @ np.abs(ya - yb) ** 2))
            for ya, yb in zip(vnew, vm)
        )
        scale = max(math.sqrt(h2 * float(w @ np.abs(y) ** 2)) for y in vnew)
        change_hist.append(change)
        vm = vnew
        vs = [v0] + [op.from_eigen_flat(y) for y in vm[1:]]
        k_hist.append(k_of(vm))
        if k_hist[-1] > 1e6 or not math.isfinite(k_hist[-1]):
            diverged = True
        elif change <= cfg.tolerance * max(scale, 1e-300) or change == 0.0:
            converged = True

    ledger = TrajectoryLedger(op, f_ext)
    d2_int = 0.0
    fwork_int = 0.0
    prev = None
    for t, y, f in zip(times, vm, fcat):
        p2 = np.abs(y) ** 2
        e2, d2 = h2 * float(w @ p2), h2 * float(w * mu @ p2)
        fw = h2 * float(w @ (np.conj(f) * y).real) if have_f else 0.0
        if prev is not None:
            d2_int += dt * 0.5 * (prev[0] + d2)
            fwork_int += dt * 0.5 * (prev[1] + fw)
        ledger.append(t, y, e2, d2, d2_int, fwork_int)
        prev = d2, fw
    report = PicardReport(converged, diverged, iterations,
                          tuple(k_hist), tuple(change_hist))
    return ledger, report


# -- the full plane of eigen-coordinates ------------------------------------
#
# Before the march carried one Hermitian half, StokesOperator.to_eigen and
# from_eigen gave every wavenumber k != 0 its own row, in C order over the
# (kx, ky) grid.  These are those two methods as they were, with self the
# operator and its _khat the full-plane table below.


def full_plane_khat(grid: Grid):
    """Unit wavenumber components kx/|k|, ky/|k| at k != 0, each (nx ny - 1, 1)."""
    g = grid
    kx = np.repeat(g.kx.astype(float), g.ny)[1:, None]
    ky = np.tile(g.ky.astype(float), g.nx)[1:, None]
    norm = np.hypot(kx, ky)
    return kx / norm, ky / norm


def full_plane_eigenvalues(op: StokesOperator):
    """Every eigenvalue, flat in the order of the full-plane coordinates."""
    g = op.grid
    lam2 = g.lam**2
    mu = g.k2.reshape(-1)[1:, None] + np.concatenate([lam2, op._along_basis[0]])
    return np.concatenate([np.tile(lam2, 2), mu.reshape(-1)])


def full_plane_to_eigen(op: StokesOperator, f: SpectralField):
    """Coordinates of the constrained part of f in the A-eigenbasis.

    The basis is orthogonal to the constraint normal, so the normal
    component of f drops out without a projection.
    """
    g = op.grid
    nz = g.nz
    c = f.coeffs.reshape(2, g.nx * g.ny, nz)
    u, v = c[0, 1:], c[1, 1:]
    kx, ky = full_plane_khat(g)
    y = np.empty((g.nx * g.ny - 1, 2 * nz - 1), complex)
    y[:, :nz] = kx * v - ky * u
    y[:, nz:] = (kx * u + ky * v) @ op._along_basis[1]
    return c[:, 0].flatten(), y


def full_plane_from_eigen(op: StokesOperator, y0, y) -> SpectralField:
    g = op.grid
    nz = g.nz
    kx, ky = full_plane_khat(g)
    across = y[:, :nz]
    along = y[:, nz:] @ op._along_basis[1].T
    c = np.empty((2, g.nx * g.ny, nz), complex)
    c[:, 0] = np.reshape(y0, (2, nz))
    c[0, 1:] = kx * along - ky * across
    c[1, 1:] = ky * along + kx * across
    return SpectralField(g, c.reshape(2, g.nx, g.ny, nz))


def reference_march(a: SpectralField, f_ext: Forcing | None, cfg: ImexConfig,
                    op: StokesOperator, full_plane: bool) -> SimpleNamespace:
    """evolution.imex_run as it was before the half plane and the forcing's
    one transform: every step transforms forcing_eval(f_ext, t).

    With full_plane the coordinates are the full-plane ones above, weighted
    1; otherwise the operator's half with its weights.  Returns the samples
    as fields, `states`, and the ledger's `columns`.
    """
    g = a.grid
    if full_plane:
        to, back = full_plane_to_eigen, full_plane_from_eigen
        mu, w = full_plane_eigenvalues(op), 1.0
    else:
        to, back = StokesOperator.to_eigen, StokesOperator.from_eigen
        mu, w = op.eigenvalues, op.weights
    n0 = 2 * g.nz

    def eig(f):
        y0, y = to(op, f)
        return np.concatenate([y0, y.ravel()])

    def uneig(y):
        return back(op, y[:n0], y[n0:].reshape(-1, n0 - 1))

    def f_eig(t):
        return eig(forcing_eval(f_ext, t)) if f_ext is not None else 0.0

    def budget(y, f):
        p2 = np.abs(y) ** 2
        fw = 0.0 if f_ext is None else h2 * float(np.sum(w * (np.conj(f) * y).real))
        return h2 * float(np.sum(w * p2)), h2 * float(np.sum(w * mu * p2)), fw

    nsteps = round(cfg.t_end / cfg.dt)
    dt, h2 = cfg.dt, g.h / 2
    v = constrain(a)
    y = eig(v)
    ledger, states = TrajectoryLedger(op, f_ext), [v]
    d2_int = fwork_int = 0.0
    fnext = f_eig(0.0)
    e2, d2, fw = budget(y, fnext)
    ledger.append(0.0, None, e2, d2, d2_int, fwork_int)
    g_prev = None
    for n in range(nsteps):
        t = n * dt
        fn, fnext = fnext, f_eig(t + dt)
        gn = eig(F(uneig(y)))
        if cfg.order == 1 or n == 0:
            y = (y + dt * gn + dt * fnext) / (1 + dt * mu)
        else:
            y = (y * (1 - 0.5 * dt * mu) + dt * (1.5 * gn - 0.5 * g_prev)
                 + 0.5 * dt * (fn + fnext)) / (1 + 0.5 * dt * mu)
        g_prev = gn
        e2n, d2n, fwn = budget(y, fnext)
        d2_int += dt * 0.5 * (d2 + d2n)
        fwork_int += dt * 0.5 * (fw + fwn)
        e2, d2, fw = e2n, d2n, fwn
        if (n + 1) % cfg.sample_every == 0 or n + 1 == nsteps:
            ledger.append((n + 1) * dt, None, e2, d2, d2_int, fwork_int)
            states.append(uneig(y))
    return SimpleNamespace(states=states, columns=ledger.columns)
