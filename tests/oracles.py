"""Reference implementations the tests compare the package against.

Each oracle is the plain, field-form or whole-list version of something the
package computes a faster way, kept here rather than in `src/` because only
the tests call it (the dense `stokes.assemble_block` stays in the package,
since the north star keeps it there).
"""

import math

import numpy as np

from hydropde.evolution import (
    Forcing,
    ImexConfig,
    PicardConfig,
    PicardReport,
    TrajectoryLedger,
    _budget,
    _eig_flat,
    _phi_pair,
    _uneig_flat,
    forcing_eval,
)
from hydropde.fields import SpectralField, sobolev_norm, zeros_spectral
from hydropde.grid import Grid
from hydropde.nonlinear import F
from hydropde.stokes import StokesOperator


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
    fn = F(v) if cfg.nonlinear else zeros_spectral(v.grid)
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
    must agree with this bit for bit.
    """
    g = a.grid
    times = np.linspace(0.0, cfg.horizon, cfg.nodes)
    dt = times[1] - times[0]
    mu = op.eigenvalues
    decay = np.exp(-dt * mu)
    pa, pb = _phi_pair(dt * mu)
    h2 = g.h / 2
    have_f = f_ext is not None
    fcat = [_eig_flat(op, forcing_eval(f_ext, t)) if have_f else 0.0 for t in times]
    acat = _eig_flat(op, a)

    def duhamel(src):
        traj = [acat]
        for i in range(cfg.nodes - 1):
            traj.append(decay * traj[-1] + dt * (pa * src[i] + pb * src[i + 1]))
        return traj

    def k_of(states):
        vals = [t ** 0.25 * sobolev_norm(v, 1.5) for t, v in zip(times[1:], states[1:])]
        return max(vals) if vals else 0.0

    vm = duhamel(fcat)
    vs = [_uneig_flat(op, y) for y in vm]
    v0 = vs[0]
    src0 = fcat[0] + _eig_flat(op, F(v0)) if cfg.nonlinear else None
    k_hist = [k_of(vs)]
    change_hist = []
    converged = not cfg.nonlinear
    diverged = False
    iterations = 0
    for _ in range(cfg.max_iterations):
        if converged or diverged:
            break
        iterations += 1
        vnew = duhamel([src0] + [f + _eig_flat(op, F(v)) for f, v in zip(fcat[1:], vs[1:])])
        change = max(
            math.sqrt(h2 * float(np.sum(np.abs(ya - yb) ** 2)))
            for ya, yb in zip(vnew, vm)
        )
        scale = max(math.sqrt(h2 * float(np.sum(np.abs(y) ** 2))) for y in vnew)
        change_hist.append(change)
        vm = vnew
        vs = [v0] + [_uneig_flat(op, y) for y in vm[1:]]
        k_hist.append(k_of(vs))
        if k_hist[-1] > 1e6 or not math.isfinite(k_hist[-1]):
            diverged = True
        elif change <= cfg.tolerance * max(scale, 1e-300) or change == 0.0:
            converged = True

    ledger = TrajectoryLedger(g)
    d2_int = 0.0
    fwork_int = 0.0
    prev = None
    for t, y, f, v in zip(times, vm, fcat, vs):
        e2, d2, fw = _budget(mu, h2, y, f if have_f else None)
        if prev is not None:
            d2_int += dt * 0.5 * (prev[0] + d2)
            fwork_int += dt * 0.5 * (prev[1] + fw)
        ledger.append(t, v, e2, d2, d2_int, fwork_int)
        prev = d2, fw
    report = PicardReport(converged, diverged, iterations,
                          tuple(k_hist), tuple(change_hist))
    return ledger, report
