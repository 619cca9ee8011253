"""Time evolution: Picard iteration on the Duhamel integral and IMEX marching.

Both integrators work on the constraint manifold.  The Picard scheme
realizes the mild formulation

    v(t) = e^{-tA} a + int_0^t e^{-(t-s)A} (P f(s) + F v(s)) ds

on a uniform node grid: integrands are interpolated linearly in the
A-eigenbasis between nodes and the exponential moments of the interpolant
are integrated exactly per eigenvalue, so the linear part (F = 0) is
reproduced at rounding accuracy.  The IMEX stepper treats the viscous
operator implicitly (Crank-Nicolson at order 2, backward Euler at order 1)
and the nonlinearity explicitly (Adams-Bashforth 2 / forward Euler).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NanAbort
from .fields import (
    SpectralField,
    grad_norm,
    l2_norm,
    sobolev_norm,
    to_physical,
    zeros_spectral,
)
from .grid import Grid
from .nonlinear import F
from .stokes import StokesOperator, eigenmode


# -- configuration -------------------------------------------------------


@dataclass(frozen=True)
class PicardConfig:
    horizon: float
    nodes: int = 33
    max_iterations: int = 12
    tolerance: float = 1e-12
    divergence_ceiling: float = 1e6
    gamma: float = 0.75
    nonlinear: bool = True

    def __post_init__(self):
        if not self.horizon > 0:
            raise ConfigurationError(f"Picard horizon must be > 0, got {self.horizon}")
        if self.nodes < 4:
            raise ConfigurationError(f"Picard needs >= 4 nodes, got {self.nodes}")


@dataclass(frozen=True)
class ImexConfig:
    dt: float
    t_end: float
    order: int = 2
    sample_every: int = 10
    cfl_limit: float = 50.0
    nonlinear: bool = True

    def __post_init__(self):
        if not self.dt > 0:
            raise ConfigurationError(f"step size must be > 0, got {self.dt}")
        if not self.t_end > 0:
            raise ConfigurationError(f"end time must be > 0, got {self.t_end}")
        if self.order not in (1, 2):
            raise ConfigurationError(f"scheme order must be 1 or 2, got {self.order}")
        if self.sample_every < 1:
            raise ConfigurationError(f"sample_every must be >= 1, got {self.sample_every}")
        steps = self.t_end / self.dt
        if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * steps:
            raise ConfigurationError(
                f"step size {self.dt} does not divide end time {self.t_end}"
            )


@dataclass
class TrajectoryLedger:
    """Sampled trajectory with per-step-accumulated budget integrals.

    d2_int carries int_0^t ||grad v||^2 ds and fwork_int carries
    int_0^t <P f, v> ds, both accumulated by per-step trapezoid sums so the
    sampling cadence does not degrade the energy-budget check.
    """

    grid: Grid
    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    e2: list = field(default_factory=list)
    d2: list = field(default_factory=list)
    d2_int: list = field(default_factory=list)
    fwork_int: list = field(default_factory=list)

    def append(self, t, state, e2, d2, d2_int, fwork_int):
        if self.times and not t > self.times[-1]:
            raise ConfigurationError("ledger times must be strictly increasing")
        self.times.append(float(t))
        self.states.append(state)
        self.e2.append(float(e2))
        self.d2.append(float(d2))
        self.d2_int.append(float(d2_int))
        self.fwork_int.append(float(fwork_int))

    def __len__(self):
        return len(self.times)


# -- external forcing ----------------------------------------------------


@dataclass(frozen=True)
class ManufacturedSolution:
    """Exact solution g(t) psi with forcing built from the discrete operators.

    f(t) = g'(t) psi + g(t) A psi - g(t)^2 F(psi), so the manufactured field
    solves the semi-discrete system exactly; the only error an integrator
    commits against it is temporal.
    """

    op: StokesOperator
    psi: SpectralField
    a_psi: SpectralField
    f_psi: SpectralField
    decay: float = 0.3
    wobble: float = 0.4
    freq: float = 2.0

    def envelope(self, t):
        e = math.exp(-self.decay * t)
        g = e * (1 + self.wobble * math.sin(self.freq * t))
        gp = e * (self.wobble * self.freq * math.cos(self.freq * t)) - self.decay * g
        return g, gp

    def solution(self, t) -> SpectralField:
        return self.envelope(t)[0] * self.psi

    def initial(self) -> SpectralField:
        return self.solution(0.0)

    def forcing(self, t) -> SpectralField:
        g, gp = self.envelope(t)
        return gp * self.psi + g * self.a_psi - g * g * self.f_psi


def make_manufactured(op: StokesOperator, psi: SpectralField, **kw) -> ManufacturedSolution:
    psi = op.constrain(psi)
    return ManufacturedSolution(op, psi, op.apply(psi), F(psi), **kw)


@dataclass(frozen=True)
class ForcingSpec:
    """Analytic forcing description: kind in {zero, single-mode, mms}."""

    grid: Grid
    kind: str = "zero"
    amplitude: float = 0.0
    mode: tuple = (1, 0, 0)
    rate: float = 1.0
    mms: ManufacturedSolution | None = None


def forcing_eval(spec: ForcingSpec, t) -> SpectralField:
    """Evaluate the configured forcing at time t (already on the constraint manifold)."""
    if spec.kind == "zero":
        return zeros_spectral(spec.grid)
    if spec.kind == "single-mode":
        kx, ky, m = spec.mode
        base = eigenmode(spec.grid, (kx, ky), m, amplitude=spec.amplitude)
        return math.exp(-spec.rate * t) * base
    if spec.kind == "mms":
        if spec.mms is None:
            raise ConfigurationError("mms forcing requires a ManufacturedSolution")
        return spec.mms.forcing(t)
    raise ConfigurationError(f"unknown forcing kind {spec.kind!r}")


def _is_zero_forcing(spec):
    return spec is None or spec.kind == "zero"


# -- Picard iteration ----------------------------------------------------


def _phi_pair(x):
    """Exact exponential moments of a linear interpolant on one subinterval.

    int_0^1 e^{-x(1-tau)} (1-tau) dtau  and  int_0^1 e^{-x(1-tau)} tau dtau,
    the weights of the left and right node values.
    """
    x = np.asarray(x, float)
    small = x < 1e-5
    xs = np.where(small, 1.0, x)
    em = np.exp(-xs)
    pa = np.where(small, 0.5 - x / 3 + x**2 / 8, (1 - (1 + xs) * em) / xs**2)
    pb = np.where(small, 0.5 - x / 6 + x**2 / 24, (xs - 1 + em) / xs**2)
    return pa, pb


def _eig_flat(op, f):
    y0, y = op.to_eigen(f)
    return np.concatenate([y0, y.ravel()])


def _uneig_flat(op, ycat):
    g = op.grid
    n0 = 2 * g.nz
    nk = g.nx * g.ny - 1
    return op.from_eigen(ycat[:n0], ycat[n0:].reshape(nk, 2 * g.nz - 1))


def _mu_flat(op):
    mu0, mu = op.eigenvalues_split()
    return np.concatenate([mu0, mu.ravel()])


@dataclass(frozen=True)
class PicardReport:
    converged: bool
    diverged: bool
    iterations: int
    k_history: tuple
    change_history: tuple
    gamma: float


def picard_solve(a: SpectralField, f_ext: ForcingSpec | None, cfg: PicardConfig,
                 op: StokesOperator | None = None):
    """Iterate the Duhamel integral on a uniform node grid.

    Returns (TrajectoryLedger, PicardReport).  Non-convergence within
    max_iterations, or an iterate norm passing the divergence ceiling, is
    reported in the PicardReport rather than raised.
    """
    op = op or StokesOperator(a.grid)
    g = a.grid
    times = np.linspace(0.0, cfg.horizon, cfg.nodes)
    dt = times[1] - times[0]
    mu = _mu_flat(op)
    decay = np.exp(-dt * mu)
    pa, pb = _phi_pair(dt * mu)
    h2 = g.h / 2

    fcat = [np.zeros_like(mu, dtype=complex) if _is_zero_forcing(f_ext)
            else _eig_flat(op, forcing_eval(f_ext, t)) for t in times]
    acat = _eig_flat(op, a)

    v0 = [acat]
    for i in range(cfg.nodes - 1):
        v0.append(decay * v0[-1] + dt * (pa * fcat[i] + pb * fcat[i + 1]))

    s = 2 * cfg.gamma

    def k_of(traj):
        vals = [t ** (1 - cfg.gamma) * sobolev_norm(_uneig_flat(op, y), s)
                for t, y in zip(times[1:], traj[1:])]
        return max(vals) if vals else 0.0

    vm = v0
    k_hist = [k_of(vm)]
    change_hist = []
    converged = not cfg.nonlinear
    diverged = False
    iterations = 0
    for _ in range(cfg.max_iterations):
        if converged or diverged:
            break
        iterations += 1
        G = [_eig_flat(op, F(_uneig_flat(op, y))) for y in vm]
        integral = np.zeros_like(acat)
        vnew = [v0[0]]
        for i in range(cfg.nodes - 1):
            integral = decay * integral + dt * (pa * G[i] + pb * G[i + 1])
            vnew.append(v0[i + 1] + integral)
        change = max(
            math.sqrt(h2 * float(np.sum(np.abs(ya - yb) ** 2)))
            for ya, yb in zip(vnew, vm)
        )
        scale = max(math.sqrt(h2 * float(np.sum(np.abs(y) ** 2))) for y in vnew)
        change_hist.append(change)
        vm = vnew
        k_hist.append(k_of(vm))
        if k_hist[-1] > cfg.divergence_ceiling or not math.isfinite(k_hist[-1]):
            diverged = True
        elif change <= cfg.tolerance * max(scale, 1e-300) or change == 0.0:
            converged = True

    ledger = TrajectoryLedger(g)
    d2_int = 0.0
    fwork_int = 0.0
    prev = None
    for t, y, f in zip(times, vm, fcat):
        state = _uneig_flat(op, y)
        e2 = l2_norm(state) ** 2
        d2 = grad_norm(state) ** 2
        fw = h2 * float(np.sum((np.conj(f) * y).real))
        if prev is not None:
            d2_int += dt * 0.5 * (prev[0] + d2)
            fwork_int += dt * 0.5 * (prev[1] + fw)
        ledger.append(t, state, e2, d2, d2_int, fwork_int)
        prev = d2, fw
    report = PicardReport(converged, diverged, iterations,
                          tuple(k_hist), tuple(change_hist), cfg.gamma)
    return ledger, report


# -- IMEX marching -------------------------------------------------------


def imex_step(v, f_prev, t, cfg: ImexConfig, op: StokesOperator,
              forcing: ForcingSpec | None, first: bool):
    """One IMEX step from time t; returns (v_next, F(v)) for reuse."""
    dt = cfg.dt
    fn = F(v) if cfg.nonlinear else zeros_spectral(v.grid)
    have_f = not _is_zero_forcing(forcing)
    if cfg.order == 1 or first:
        rhs = v + dt * fn
        if have_f:
            rhs = rhs + dt * forcing_eval(forcing, t + dt)
        vnext = op.solve_shifted(dt, rhs)
    else:
        rhs = v - (dt / 2) * op.apply(v) + dt * (1.5 * fn - 0.5 * f_prev)
        if have_f:
            rhs = rhs + (dt / 2) * (forcing_eval(forcing, t) + forcing_eval(forcing, t + dt))
        vnext = op.solve_shifted(dt / 2, rhs)
    return vnext, fn


def imex_run(a: SpectralField, f_ext: ForcingSpec | None, cfg: ImexConfig,
             op: StokesOperator | None = None) -> TrajectoryLedger:
    """March from t = 0 to t_end; raises NanAbort (with .ledger) on blow-up."""
    op = op or StokesOperator(a.grid)
    g = a.grid
    nsteps = round(cfg.t_end / cfg.dt)
    v = op.constrain(a)

    vmax = float(np.max(np.abs(to_physical(v).values), initial=0.0))
    if cfg.dt * vmax * max(g.nx, g.ny) > cfg.cfl_limit:
        raise ConfigurationError(
            f"step size {cfg.dt} too large for data of amplitude {vmax:.3g}"
        )

    # march in the A-eigenbasis: the implicit solve is a diagonal division
    # and the energy norms are plain weighted sums of the coordinates
    ledger = TrajectoryLedger(g)
    h2 = g.h / 2
    dt = cfg.dt
    mu = _mu_flat(op)
    y = _eig_flat(op, v)
    have_f = not _is_zero_forcing(f_ext)

    def f_eig(t):
        return _eig_flat(op, forcing_eval(f_ext, t)) if have_f else 0.0

    def norms(ycat):
        p2 = np.abs(ycat) ** 2
        return h2 * float(np.sum(p2)), h2 * float(np.sum(mu * p2))

    e2, d2 = norms(y)
    d2_int = 0.0
    fwork_int = 0.0
    fnext = f_eig(0.0)
    fw = h2 * float(np.sum((np.conj(fnext) * y).real)) if have_f else 0.0
    ledger.append(0.0, v, e2, d2, d2_int, fwork_int)

    g_prev = None
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(nsteps):
            t = n * dt
            fn, fnext = fnext, f_eig(t + dt)
            gn = _eig_flat(op, F(_uneig_flat(op, y))) if cfg.nonlinear else 0.0
            if cfg.order == 1 or n == 0:
                y = (y + dt * gn + dt * fnext) / (1 + dt * mu)
            else:
                y = (y * (1 - 0.5 * dt * mu) + dt * (1.5 * gn - 0.5 * g_prev)
                     + 0.5 * dt * (fn + fnext)) / (1 + 0.5 * dt * mu)
            g_prev = gn
            e2n, d2n = norms(y)
            if not (math.isfinite(e2n) and math.isfinite(d2n)):
                err = NanAbort(f"non-finite state at t = {t + dt:.6g} (step {n + 1})")
                err.ledger = ledger
                raise err
            fwn = h2 * float(np.sum((np.conj(fnext) * y).real)) if have_f else 0.0
            d2_int += dt * 0.5 * (d2 + d2n)
            fwork_int += dt * 0.5 * (fw + fwn)
            e2, d2, fw = e2n, d2n, fwn
            if (n + 1) % cfg.sample_every == 0 or n + 1 == nsteps:
                ledger.append((n + 1) * dt, _uneig_flat(op, y), e2, d2, d2_int, fwork_int)
    return ledger
