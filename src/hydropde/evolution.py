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
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NanAbort
from .fields import SpectralField, to_physical
from .nonlinear import F
from .projection import constrain
from .stokes import StokesOperator


# -- configuration -------------------------------------------------------


@dataclass(frozen=True)
class PicardConfig:
    horizon: float
    nodes: int = 33
    max_iterations: int = 12
    tolerance: float = 1e-12

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ConfigurationError(f"Picard horizon must be finite and > 0, got {self.horizon}")
        if not 4 <= self.nodes < math.inf:
            raise ConfigurationError(f"Picard needs finite nodes >= 4, got {self.nodes}")
        if not 1 <= self.max_iterations < math.inf:
            raise ConfigurationError(
                f"Picard needs finite max_iterations >= 1, got {self.max_iterations}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ConfigurationError(
                f"Picard tolerance must be finite and > 0, got {self.tolerance}")


@dataclass(frozen=True)
class ImexConfig:
    dt: float
    t_end: float
    order: int = 2
    sample_every: int = 10
    cfl_limit: float = 50.0

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ConfigurationError(f"step size must be finite and > 0, got {self.dt}")
        if not (math.isfinite(self.t_end) and self.t_end > 0):
            raise ConfigurationError(f"end time must be finite and > 0, got {self.t_end}")
        if self.order not in (1, 2):
            raise ConfigurationError(f"scheme order must be 1 or 2, got {self.order}")
        if not 1 <= self.sample_every < math.inf:
            raise ConfigurationError(
                f"sample_every must be finite and >= 1, got {self.sample_every}")
        # inf switches the CFL check off; nan would do so silently
        if not self.cfl_limit > 0:
            raise ConfigurationError(f"cfl_limit must be > 0, got {self.cfl_limit}")
        steps = self.t_end / self.dt
        if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * steps:
            raise ConfigurationError(
                f"step size {self.dt} does not divide end time {self.t_end}")


class _Fields(Sequence):
    """A ledger's sampled fields, each formed from its coordinates when read."""

    def __init__(self, ledger):
        self.ledger = ledger

    def __len__(self):
        return len(self.ledger.coords)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self.ledger.op.from_eigen_flat(y) for y in self.ledger.coords[i]]
        return self.ledger.op.from_eigen_flat(self.ledger.coords[i])


@dataclass
class TrajectoryLedger:
    """Sampled trajectory: its op.to_eigen_flat coordinates and the integrator's columns.

    forcing is the Forcing (None for none) the trajectory was integrated under.
    columns holds one list of floats per series: the sample times t, the
    energy e2 = ||v||^2 and dissipation d2 = ||grad v||^2, d2_int carrying
    int_0^t ||grad v||^2 ds and fwork_int carrying int_0^t <P f, v> ds.  The
    integrals are accumulated by per-step trapezoid sums, so the sampling
    cadence does not degrade the energy-budget check.
    """

    op: StokesOperator
    forcing: "Forcing | None"
    coords: list = field(default_factory=list)
    columns: dict = field(default_factory=lambda: {
        name: [] for name in ("t", "e2", "d2", "d2_int", "fwork_int")})
    states = property(_Fields, doc="The sampled fields (read-only), formed when read.")

    def append(self, t, y, e2, d2, d2_int, fwork_int):
        times = self.columns["t"]
        if not math.isfinite(t):
            raise ConfigurationError(f"ledger time t must be finite, got {t}")
        if times and not t > times[-1]:
            raise ConfigurationError(
                f"ledger times must be strictly increasing, got t = {t} after {times[-1]}")
        self.coords.append(y)
        for col, val in zip(self.columns.values(), (t, e2, d2, d2_int, fwork_int)):
            col.append(float(val))


# -- external forcing ----------------------------------------------------


@dataclass(frozen=True)
class ManufacturedSolution:
    """Exact solution g(t) psi with forcing built from the discrete operators.

    f(t) = g'(t) psi + g(t) A psi - g(t)^2 F(psi), so the manufactured field
    solves the semi-discrete system exactly; the only error an integrator
    commits against it is temporal.
    """

    psi: SpectralField
    a_psi: SpectralField
    f_psi: SpectralField

    def envelope(self, t):
        """g(t) = e^{-0.3 t} (1 + 0.4 sin 2t) and g'(t)."""
        e = math.exp(-0.3 * t)
        g = e * (1 + 0.4 * math.sin(2.0 * t))
        gp = e * (0.8 * math.cos(2.0 * t)) - 0.3 * g
        return g, gp

    def solution(self, t) -> SpectralField:
        return self.envelope(t)[0] * self.psi


def make_manufactured(op: StokesOperator, psi: SpectralField) -> ManufacturedSolution:
    psi = constrain(psi)
    return ManufacturedSolution(psi, op.apply(psi), F(psi))


@dataclass(frozen=True)
class ForcingSpec:
    """Single-mode forcing f(t) = e^{-rate t} base.

    base is an eigenmode, so f lies on the constraint manifold.  A forcing
    is a ForcingSpec or a ManufacturedSolution; None means no forcing.
    """

    base: SpectralField
    rate: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.rate):  # at rate = inf, exp(-rate t) is nan at t = 0
            raise ConfigurationError(f"forcing rate must be finite, got {self.rate}")


Forcing = ForcingSpec | ManufacturedSolution


def _terms(spec: Forcing, t):
    """(scalars s_i(t), fixed parts p_i) with f(t) = sum s_i(t) p_i."""
    if isinstance(spec, ManufacturedSolution):
        g, gp = spec.envelope(t)
        return (gp, g, -g * g), (spec.psi, spec.a_psi, spec.f_psi)
    return (math.exp(-spec.rate * t),), (spec.base,)


def _combine(scales, parts):
    """sum s_i p_i, of fields or of their coordinates."""
    return sum((s * p for s, p in zip(scales[1:], parts[1:])), scales[0] * parts[0])


def forcing_eval(spec: Forcing, t) -> SpectralField:
    """P f(t) of a ForcingSpec or a ManufacturedSolution, on the constraint manifold.

    None, the value for no forcing, is never evaluated: callers skip the term.
    """
    return _combine(*_terms(spec, t))


def _finite(y, what):
    """y, the A-eigen-coordinates of what; ConfigurationError naming it if one is not finite."""
    if not np.all(np.isfinite(y)):
        raise ConfigurationError(f"{what} is not finite: its coordinates hold nan or inf")
    return y


def _forcing_coords(op: StokesOperator, spec: Forcing | None):
    """t -> the A-eigen-coordinates of P f(t), None for no forcing: the
    forcing's fixed parts are transformed once and each time rescales them."""
    if spec is None:
        return None
    parts = [_finite(op.to_eigen_flat(p), "forcing") for p in _terms(spec, 0.0)[1]]
    return lambda t: _combine(_terms(spec, t)[0], parts)


class _Budget:
    """The energy ledger of a trajectory from its A-eigen-coordinates y.

    Called once per step of dt, with the forcing's coordinates f or None,
    it returns E2 = (h/2) sum w |y|^2, D2 = (h/2) sum w mu |y|^2 and the
    running trapezoid sums of D2 and <P f, v> = (h/2) sum w Re(conj(f) y),
    with w the coordinates' multiplicities (StokesOperator.weights).
    """

    def __init__(self, op: StokesOperator, dt):
        self.h2, self.dt, self.w = op.grid.h / 2, dt, op.weights
        self.wmu = self.w * op.eigenvalues
        self.d2_int = self.fwork_int = 0.0
        self.prev = None

    def __call__(self, y, f):
        p2 = np.abs(y) ** 2
        d2 = self.h2 * float(self.wmu @ p2)
        fw = 0.0 if f is None else self.h2 * float(self.w @ (np.conj(f) * y).real)
        if self.prev is not None:
            self.d2_int += self.dt * 0.5 * (self.prev[0] + d2)
            self.fwork_int += self.dt * 0.5 * (self.prev[1] + fw)
        self.prev = d2, fw
        return self.h2 * float(self.w @ p2), d2, self.d2_int, self.fwork_int


# -- Picard iteration ----------------------------------------------------

K_CEILING = 1e6  # the iterate norm k past which picard_solve reports divergence


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


@dataclass(frozen=True)
class PicardReport:
    converged: bool
    diverged: bool
    iterations: int
    k_history: tuple
    change_history: tuple


def picard_solve(a: SpectralField, f_ext: Forcing | None, cfg: PicardConfig,
                 op: StokesOperator):
    """Iterate the Duhamel integral on a uniform node grid.

    Returns (TrajectoryLedger, PicardReport).  Non-convergence within
    max_iterations, or an iterate norm passing the divergence ceiling, is
    reported in the PicardReport rather than raised.
    """
    times = np.linspace(0.0, cfg.horizon, cfg.nodes)
    dt = times[1] - times[0]
    decay = np.exp(-dt * op.eigenvalues)
    pa, pb = _phi_pair(dt * op.eigenvalues)
    s = (1 + op.eigenvalues) ** 0.75
    budget = _Budget(op, dt)
    f_at = _forcing_coords(op, f_ext)
    acat = _finite(op.to_eigen_flat(a), "initial data")

    def forcing(i):
        return f_at(times[i]) if f_at else 0.0

    def sweep(src, source):
        """Yield (i, y_i), i >= 1, the nodes of e^{-tA} a + int_0^t e^{-(t-s)A} s ds
        with s linear between node sources: src at node 0, then source(i),
        asked for in order just before node i is formed."""
        y = acat
        for i in range(1, cfg.nodes):
            src_prev, src = src, source(i)
            y = decay * y + dt * (pa * src_prev + pb * src)
            yield i, y

    def k_of(traj):
        # sup_t t^{1-gamma} ||(1 + A)^gamma v(t)|| with gamma = 3/4: the
        # time-weighted norm in which the mild-solution iteration contracts
        return max(t ** 0.25 * op.norm(s * y) for t, y in zip(times[1:], traj[1:]))

    # an iterate is its node coordinates alone; node 0 is a's in every
    # iterate, so its F is formed once
    vm = [acat, *(y for _, y in sweep(forcing(0), forcing))]
    src0 = forcing(0) + op.to_eigen_flat(F(op.from_eigen_flat(acat)))

    def source(i):
        # node i's field is formed from the old node just before F reads it
        return forcing(i) + op.to_eigen_flat(F(op.from_eigen_flat(vm[i])))

    k_hist, change_hist = [k_of(vm)], []
    converged = diverged = False
    while not (converged or diverged) and len(change_hist) < cfg.max_iterations:
        # the sweep streams over the nodes: the new node replaces the old
        # one in place, so vm holds one trajectory and two sources are live
        changes, scales = [0.0], [op.norm(acat)]  # node 0 is a in every iterate
        for i, y in sweep(src0, source):
            changes.append(op.norm(y - vm[i]))
            scales.append(op.norm(y))
            vm[i] = y
        change, scale = max(changes), max(scales)
        change_hist.append(change)
        k_hist.append(k_of(vm))
        # the weighted norm k past K_CEILING has left the small-data regime
        # in which the iteration contracts
        if k_hist[-1] > K_CEILING or not math.isfinite(k_hist[-1]):
            diverged = True
        elif change <= cfg.tolerance * max(scale, 1e-300) or change == 0.0:
            converged = True

    ledger = TrajectoryLedger(op, f_ext)
    for t, y in zip(times, vm):
        ledger.append(t, y, *budget(y, f_at(t) if f_at else None))
    report = PicardReport(converged, diverged, len(change_hist),
                          tuple(k_hist), tuple(change_hist))
    return ledger, report


# -- IMEX marching -------------------------------------------------------


def imex_run(a: SpectralField, f_ext: Forcing | None, cfg: ImexConfig,
             op: StokesOperator) -> TrajectoryLedger:
    """March from t = 0 to t_end; raises NanAbort (with .ledger) on blow-up."""
    nsteps = round(cfg.t_end / cfg.dt)
    # march in the A-eigenbasis: the implicit solve is a diagonal division
    # and the energy norms are plain weighted sums of the coordinates
    y = _finite(op.to_eigen_flat(a), "initial data")

    vmax = float(np.max(np.abs(to_physical(op.from_eigen_flat(y)).values), initial=0.0))
    if cfg.dt * vmax * max(a.grid.nx, a.grid.ny) > cfg.cfl_limit:
        raise ConfigurationError(
            f"step size {cfg.dt} too large for data of amplitude {vmax:.3g}")

    ledger = TrajectoryLedger(op, f_ext)
    dt = cfg.dt
    mu = op.eigenvalues
    budget = _Budget(op, dt)
    f_at = _forcing_coords(op, f_ext)
    fnext = f_at(0.0) if f_at else None
    ledger.append(0.0, y, *budget(y, fnext))

    g_prev = None
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(nsteps):
            t = n * dt
            gn = op.to_eigen_flat(F(op.from_eigen_flat(y)))
            # backward Euler at order 1 and on the first step, else CN/AB2;
            # c is the implicit weight
            euler = cfg.order == 1 or n == 0
            c = dt if euler else 0.5 * dt
            rhs = (y + dt * gn if euler
                   else y * (1 - c * mu) + dt * (1.5 * gn - 0.5 * g_prev))
            if f_at:
                fn, fnext = fnext, f_at(t + dt)
                rhs = rhs + c * (fnext if euler else fn + fnext)
            y = rhs / (1 + c * mu)
            g_prev = gn
            e2, d2, d2_int, fwork_int = budget(y, fnext)
            if not (math.isfinite(e2) and math.isfinite(d2)):
                err = NanAbort(f"non-finite state at t = {t + dt:.6g} (step {n + 1})")
                err.ledger = ledger
                raise err
            if (n + 1) % cfg.sample_every == 0 or n + 1 == nsteps:
                ledger.append((n + 1) * dt, y, e2, d2, d2_int, fwork_int)
    return ledger
