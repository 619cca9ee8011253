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
from .fields import SpectralField, hermitize, sobolev_norm, to_physical
from .grid import Grid
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
    nonlinear: bool = True

    def __post_init__(self):
        if not self.horizon > 0:
            raise ConfigurationError(f"Picard horizon must be > 0, got {self.horizon}")
        if self.nodes < 4:
            raise ConfigurationError(f"Picard needs >= 4 nodes, got {self.nodes}")
        if self.max_iterations < 1:
            raise ConfigurationError(
                f"Picard needs max_iterations >= 1, got {self.max_iterations}")
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
        # inf switches the CFL check off; nan would do so silently
        if not self.cfl_limit > 0:
            raise ConfigurationError(f"cfl_limit must be > 0, got {self.cfl_limit}")
        steps = self.t_end / self.dt
        if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * steps:
            raise ConfigurationError(
                f"step size {self.dt} does not divide end time {self.t_end}"
            )


@dataclass
class TrajectoryLedger:
    """Sampled trajectory: its states and the integrator's ledger columns.

    columns holds one list of floats per series: the sample times t, the
    energy e2 = ||v||^2 and dissipation d2 = ||grad v||^2, d2_int carrying
    int_0^t ||grad v||^2 ds and fwork_int carrying int_0^t <P f, v> ds.  The
    integrals are accumulated by per-step trapezoid sums, so the sampling
    cadence does not degrade the energy-budget check.
    """

    grid: Grid
    states: list = field(default_factory=list)
    columns: dict = field(default_factory=lambda: {
        name: [] for name in ("t", "e2", "d2", "d2_int", "fwork_int")})

    def append(self, t, state, e2, d2, d2_int, fwork_int):
        times = self.columns["t"]
        if times and not t > times[-1]:
            raise ConfigurationError("ledger times must be strictly increasing")
        self.states.append(state)
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

    def initial(self) -> SpectralField:
        return self.solution(0.0)

    def forcing(self, t) -> SpectralField:
        return forcing_eval(self, t)


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
    n0 = 2 * op.grid.nz
    return op.from_eigen(ycat[:n0], ycat[n0:].reshape(-1, n0 - 1))


def _budget(w, wmu, h2, y, f=None):
    """(E2, D2, <P f, v>) of the real state whose A-eigen-coordinates are y.

    (h/2) sum w |y|^2, (h/2) sum w mu |y|^2 and (h/2) sum w Re(conj(f) y),
    with w the coordinates' multiplicities (StokesOperator.weights), wmu =
    w mu and f the forcing's coordinates; the work term is 0 when f is None.
    """
    p2 = np.abs(y) ** 2
    fw = 0.0 if f is None else h2 * float(w @ (np.conj(f) * y).real)
    return h2 * float(w @ p2), h2 * float(wmu @ p2), fw


@dataclass(frozen=True)
class PicardReport:
    converged: bool
    diverged: bool
    iterations: int
    k_history: tuple
    change_history: tuple


def picard_solve(a: SpectralField, f_ext: Forcing | None, cfg: PicardConfig,
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
    mu, w = op.eigenvalues, op.weights
    wmu = w * mu
    decay = np.exp(-dt * mu)
    pa, pb = _phi_pair(dt * mu)
    h2 = g.h / 2
    have_f = f_ext is not None
    fcat = [_eig_flat(op, forcing_eval(f_ext, t)) if have_f else 0.0 for t in times]
    acat = _eig_flat(op, hermitize(a))

    def duhamel(src):
        """Nodes of e^{-tA} a + int_0^t e^{-(t-s)A} src(s) ds, src linear between nodes."""
        traj = [acat]
        for i in range(cfg.nodes - 1):
            traj.append(decay * traj[-1] + dt * (pa * src[i] + pb * src[i + 1]))
        return traj

    def k_of(states):
        # sup_t t^{1-gamma} ||v(t)||_{H^{2 gamma}} with gamma = 3/4: the
        # time-weighted norm in which the mild-solution iteration contracts
        vals = [t ** 0.25 * sobolev_norm(v, 1.5) for t, v in zip(times[1:], states[1:])]
        return max(vals) if vals else 0.0

    def norm(y):
        return math.sqrt(h2 * float(w @ np.abs(y) ** 2))

    # each iterate's node fields serve its k, the next F and the ledger;
    # node 0 is constrain(a) in every iterate, so its field and F are formed once
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
        # the sweep streams over the nodes: node i's source is formed from
        # the old field when the recurrence reaches it, and the new node and
        # its field replace the old ones in place, so vm and vs each hold
        # one trajectory and only two sources are live
        y, src = acat, src0
        changes, scales = [norm(acat - vm[0])], [norm(acat)]
        for i in range(1, cfg.nodes):
            src_prev, src = src, fcat[i] + _eig_flat(op, F(vs[i]))
            vs[i] = None
            y = decay * y + dt * (pa * src_prev + pb * src)
            changes.append(norm(y - vm[i]))
            scales.append(norm(y))
            vm[i] = y
            vs[i] = _uneig_flat(op, y)
        change, scale = max(changes), max(scales)
        change_hist.append(change)
        k_hist.append(k_of(vs))
        # the weighted norm k past 1e6 has left the small-data regime in
        # which the iteration contracts
        if k_hist[-1] > 1e6 or not math.isfinite(k_hist[-1]):
            diverged = True
        elif change <= cfg.tolerance * max(scale, 1e-300) or change == 0.0:
            converged = True

    ledger = TrajectoryLedger(g)
    d2_int = fwork_int = 0.0
    prev = None
    for t, y, f, v in zip(times, vm, fcat, vs):
        e2, d2, fw = _budget(w, wmu, h2, y, f if have_f else None)
        if prev is not None:
            d2_int += dt * 0.5 * (prev[0] + d2)
            fwork_int += dt * 0.5 * (prev[1] + fw)
        ledger.append(t, v, e2, d2, d2_int, fwork_int)
        prev = d2, fw
    report = PicardReport(converged, diverged, iterations,
                          tuple(k_hist), tuple(change_hist))
    return ledger, report


# -- IMEX marching -------------------------------------------------------


def imex_run(a: SpectralField, f_ext: Forcing | None, cfg: ImexConfig,
             op: StokesOperator | None = None) -> TrajectoryLedger:
    """March from t = 0 to t_end; raises NanAbort (with .ledger) on blow-up."""
    op = op or StokesOperator(a.grid)
    g = a.grid
    nsteps = round(cfg.t_end / cfg.dt)
    v = hermitize(constrain(a))

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
    mu, w = op.eigenvalues, op.weights
    wmu = w * mu
    y = _eig_flat(op, v)
    have_f = f_ext is not None
    # the forcing's fixed parts are transformed once; each time rescales them
    parts = [_eig_flat(op, p) for p in _terms(f_ext, 0.0)[1]] if have_f else None

    def f_eig(t):
        return _combine(_terms(f_ext, t)[0], parts) if have_f else 0.0

    d2_int = fwork_int = 0.0
    fnext = f_eig(0.0)
    e2, d2, fw = _budget(w, wmu, h2, y, fnext if have_f else None)
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
            e2n, d2n, fwn = _budget(w, wmu, h2, y, fnext if have_f else None)
            if not (math.isfinite(e2n) and math.isfinite(d2n)):
                err = NanAbort(f"non-finite state at t = {t + dt:.6g} (step {n + 1})")
                err.ledger = ledger
                raise err
            d2_int += dt * 0.5 * (d2 + d2n)
            fwork_int += dt * 0.5 * (fw + fwn)
            e2, d2, fw = e2n, d2n, fwn
            if (n + 1) % cfg.sample_every == 0 or n + 1 == nsteps:
                ledger.append((n + 1) * dt, _uneig_flat(op, y), e2, d2, d2_int, fwork_int)
    return ledger
