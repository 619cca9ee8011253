"""Trajectory diagnostics: the a priori estimate ledger made executable.

Every monitored quantity is a norm the fields module can compute.
build_records samples a trajectory once: per sample it evaluates the
forcing and the transport term once and returns the estimate record and the
barotropic/baroclinic split residuals.  summarize turns the ledger columns
into the report summary; the monitors it runs check the discrete
counterparts of the energy identity, the Gronwall-type bound on the split
energy Phi, and exponential decay.  Multiplicative constants in the
continuous estimates are not computable, so all pass criteria are
identities, boundedness, or stability-under-refinement, never absolute
constants.
"""

import math
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from .errors import ConfigurationError
from .fields import (
    PhysicalField,
    SpectralField,
    averaged_to_physical,
    fluctuation,
    grad_norm,
    l2_norm,
    lp_norm,
    sobolev_norm,
    synthesize,
    to_physical,
    vertical_average,
)
from .nonlinear import advect
from .projection import constrain, solve_surface_poisson
from .evolution import ForcingSpec, TrajectoryLedger, forcing_eval, zeros_spectral


@dataclass(frozen=True)
class EstimateRecord:
    """All monitored norms at one sample time (squared/raised as named)."""

    t: float
    e2: float        # ||v||^2_{L^2}
    d2: float        # ||grad v||^2_{L^2}
    grad_h_bar: float  # ||grad_H vbar||^2_{L^2(G)}
    vz2: float       # ||dz v||^2_{L^2}
    tilde4: float    # ||v - vbar||^4_{L^4}
    grad_pi: float   # ||grad_H pi||^2_{L^2(G)}
    vz3: float       # ||dz v||^3_{L^3}
    dtv2: float      # ||dt v||^2_{L^2}, centered differences of samples
    h1: float        # ||v||^2 in the H^1 surrogate
    h2: float        # ||v||^2 in the H^2 surrogate

    def __post_init__(self):
        for name, val in self.__dict__.items():
            if not (math.isfinite(val) and (val >= 0 or name == "t")):
                raise ConfigurationError(f"estimate record entry {name} = {val}")


def trajectory_pressure(state: SpectralField, f_field: SpectralField | None = None,
                        adv: SpectralField | None = None):
    """Surface pressure balancing the averaged momentum equation at this state.

    adv is advect(state, state) when the caller has it already.
    """
    g = state.grid
    lapv = SpectralField(g, -g.laplace_symbol[None] * state.coeffs)
    rhs = lapv - (advect(state, state) if adv is None else adv)
    if f_field is not None:
        rhs = rhs + f_field
    return solve_surface_poisson(vertical_average(rhs))


def tilde_values(state: SpectralField):
    """Pointwise fluctuation v - vbar on the collocation grid.

    The vertical average is subtracted as an exact z-constant (not through
    its truncated cosine representative), so no basis truncation error
    enters near the bottom boundary.
    """
    vb = vertical_average(state)
    return to_physical(state).values - averaged_to_physical(vb).values


def record(state: SpectralField, t, pi, dtv2=0.0) -> EstimateRecord:
    """Compute every monitored norm at one state (dtv2 supplied by the caller)."""
    g = state.grid
    vbar = vertical_average(state)
    grad_h_bar = float(np.sum(g.k2[None] * np.abs(vbar.coeffs) ** 2))
    vz2 = float(g.h / 2 * np.sum((g.lam**2)[None, None, None] * np.abs(state.coeffs) ** 2))
    tilde4 = lp_norm(PhysicalField(g, tilde_values(state)), 4) ** 4
    grad_pi = float(np.sum(g.k2 * np.abs(pi.coeffs) ** 2)) if pi is not None else 0.0
    vz3 = lp_norm(synthesize(g, state.coeffs, g.dz_table), 3) ** 3
    return EstimateRecord(
        t=float(t),
        e2=l2_norm(state) ** 2,
        d2=grad_norm(state) ** 2,
        grad_h_bar=grad_h_bar,
        vz2=vz2,
        tilde4=tilde4,
        grad_pi=grad_pi,
        vz3=vz3,
        dtv2=float(dtv2),
        h1=sobolev_norm(state, 1) ** 2,
        h2=sobolev_norm(state, 2) ** 2,
    )


def ledger_sample(ledger: TrajectoryLedger, i, forcing: ForcingSpec | None = None):
    """(EstimateRecord, SplitResiduals) of sample i, from one advect evaluation.

    dt v is the centered difference of the neighbouring samples; the end
    samples of a trajectory with >= 2 samples take the one-sided difference
    for dtv2 and the semi-discrete right-hand side for the split residuals.
    """
    n = len(ledger.times)
    t = ledger.times[i]
    state = ledger.states[i]
    dt_v = None
    if n >= 3 and 0 < i < n - 1:
        dv = ledger.states[i + 1] - ledger.states[i - 1]
        span = ledger.times[i + 1] - ledger.times[i - 1]
        dtv2 = (l2_norm(dv) / span) ** 2
        dt_v = (1.0 / span) * dv
    elif n >= 2:
        j = 1 if i == 0 else i
        dv = ledger.states[j] - ledger.states[j - 1]
        dtv2 = (l2_norm(dv) / (ledger.times[j] - ledger.times[j - 1])) ** 2
    else:
        dtv2 = 0.0
    f_field = forcing_eval(forcing, t) if forcing is not None else None
    adv = advect(state, state)
    pi = trajectory_pressure(state, f_field, adv)
    return (record(state, t, pi, dtv2),
            split_residuals(state, pi, dt_v=dt_v, f_field=f_field, adv=adv))


def build_records(ledger: TrajectoryLedger, forcing: ForcingSpec | None = None):
    """One pass over a sampled trajectory: (records, split residuals) lists."""
    rows = [ledger_sample(ledger, i, forcing) for i in range(len(ledger.times))]
    return [r for r, _ in rows], [s for _, s in rows]


# -- energy budget --------------------------------------------------------


@dataclass(frozen=True)
class EnergyBudgetReport:
    residuals: tuple
    max_residual: float
    max_relative_residual: float
    monotone: bool


def energy_budget(ledger: TrajectoryLedger) -> EnergyBudgetReport:
    """Check E2(t) + 2 int_0^t D2 ds = E2(0) + 2 int_0^t <P f, v> ds.

    Uses the per-step accumulated integrals the integrator stored, so the
    check is independent of the sampling cadence.
    """
    e20 = ledger.e2[0]
    res = tuple(
        ledger.e2[i] + 2 * ledger.d2_int[i] - 2 * ledger.fwork_int[i] - e20
        for i in range(len(ledger))
    )
    mx = max(abs(r) for r in res)
    rel = mx / e20 if e20 > 0 else mx
    mono = all(b < a for a, b in zip(ledger.e2, ledger.e2[1:]))
    return EnergyBudgetReport(res, mx, rel, mono)


# -- Gronwall monitor -----------------------------------------------------


@dataclass(frozen=True)
class GronwallReport:
    phi: tuple
    phi_max: float
    bound: tuple          # Phi(0) * exp(int K1_hat), per sample
    dominated: bool       # Phi(t) <= bound(t) everywhere
    max_jump_ratio: float


def _k1_surrogate(rec: EstimateRecord) -> float:
    # unit-constant stand-in for the Gronwall rate: grows with the solution
    # size in L^2 and H^1
    e = math.sqrt(rec.e2)
    h1 = math.sqrt(rec.h1)
    return (1 + e + e * e) * (h1 ** (2.0 / 3.0) + h1 + h1 * h1)


def gronwall_monitor(records, c3=1.0) -> GronwallReport:
    """Check Phi(t) <= Phi(0) exp(int_0^t K1_hat) along a list of records.

    Phi = 8 ||grad_H vbar||^2 + ||dz v||^2 + (c3/4) ||v - vbar||^4_{L^4}.
    The non-negative dissipation on the left of the continuous estimate
    only strengthens it, so the check leaves it out.
    """
    phi = [8 * r.grad_h_bar + r.vz2 + (c3 / 4) * r.tilde4 for r in records]
    k1 = [_k1_surrogate(r) for r in records]
    bound = [phi[0]]
    acc = 0.0
    for i in range(1, len(records)):
        acc += 0.5 * (records[i].t - records[i - 1].t) * (k1[i] + k1[i - 1])
        bound.append(phi[0] * math.exp(min(acc, 700.0)))
    dominated = all(p <= b * (1 + 1e-9) + 1e-300 for p, b in zip(phi, bound))
    jumps = [
        max(p1, p0) / max(min(p1, p0), 1e-300)
        for p0, p1 in zip(phi, phi[1:])
        if max(p0, p1) > 0
    ]
    return GronwallReport(
        phi=tuple(phi),
        phi_max=max(phi),
        bound=tuple(bound),
        dominated=dominated,
        max_jump_ratio=max(jumps) if jumps else 1.0,
    )


# -- decay fit ------------------------------------------------------------


@dataclass(frozen=True)
class DecayFit:
    rate: float
    amplitude: float
    residual: float


def decay_fit(ledger: TrajectoryLedger, quantity="e2", tail_fraction=0.5) -> DecayFit:
    """Least-squares fit of log(quantity) vs t on the trajectory tail."""
    times = np.asarray(ledger.times)
    if quantity in ("e2", "d2"):
        vals = np.asarray(getattr(ledger, quantity))
    else:
        raise ConfigurationError(f"unknown decay quantity {quantity!r}")
    start = int(len(times) * (1 - tail_fraction))
    t = times[start:]
    q = vals[start:]
    pos = q > 0
    if not pos.all():
        stop = int(np.argmin(pos))
        t, q = t[:stop], q[:stop]
    if len(t) < 10:
        raise ConfigurationError("decay fit needs >= 10 positive tail samples")
    coef, res = np.polynomial.polynomial.polyfit(t, np.log(q), 1, full=True)
    rate = -float(coef[1])
    amplitude = math.exp(float(coef[0]))
    residual = float(res[0][0]) if len(res[0]) else 0.0
    return DecayFit(rate, amplitude, residual)


# -- barotropic / baroclinic split ---------------------------------------


@dataclass(frozen=True)
class SplitResiduals:
    bar: float            # averaged-equation residual, L^2(G)
    tilde: float          # fluctuation-equation residual, L^2(Omega)
    recombination: float  # || lift(avg r) + fluct(r) - r ||, algebraic identity


def split_residuals(state: SpectralField, pi, dt_v: SpectralField | None = None,
                    f_field: SpectralField | None = None,
                    adv: SpectralField | None = None) -> SplitResiduals:
    """Residuals of the averaged and fluctuation momentum equations.

    With dt_v omitted, the semi-discrete right-hand side -Av + F(v) + Pf is
    used and both residuals vanish to rounding; along a marched trajectory
    pass dt_v from finite differences to test the integrator.  adv is
    advect(state, state) when the caller has it already.
    """
    g = state.grid
    adv = advect(state, state) if adv is None else adv
    lap = SpectralField(g, -g.laplace_symbol[None] * state.coeffs)
    f_field = f_field if f_field is not None else zeros_spectral(g)
    if dt_v is None:
        av = constrain(SpectralField(g, g.laplace_symbol[None] * constrain(state).coeffs))
        dt_v = -av - constrain(adv) + constrain(f_field)

    r_cos = dt_v + adv - lap - f_field
    r_bar = vertical_average(r_cos) + pi.gradient()
    r_tilde = fluctuation(r_cos)

    # in-basis lift of the average: the representative fluctuation subtracts
    a = g.avg_factor
    lift = vertical_average(r_cos).coeffs[..., None] * (a / np.sum(a**2))
    recomb = SpectralField(g, lift + r_tilde.coeffs) - r_cos

    scale = max(l2_norm(state), 1e-300)
    return SplitResiduals(
        bar=float(np.sqrt(np.sum(np.abs(r_bar.coeffs) ** 2))) / scale,
        tilde=l2_norm(r_tilde) / scale,
        recombination=l2_norm(recomb) / scale,
    )


def poincare_slack(ledger: TrajectoryLedger) -> float:
    """max over samples of lam_0^2 E2 - D2 (should be <= ~0)."""
    lam0sq = (0.5 * math.pi / ledger.grid.h) ** 2
    return max(lam0sq * e - d for e, d in zip(ledger.e2, ledger.d2))


# -- report summary -------------------------------------------------------


def summarize(columns) -> dict:
    """Report summary of ledger columns ({name: list of floats}).

    The run report and `pe diagnose` both come from here, the latter from
    the columns of the CSV alone, so the two agree exactly: the CSV stores
    floats with repr.  The EstimateRecords are rebuilt from the columns,
    with the integrator's e2 and d2.
    """
    t = columns["t"]
    # no grid and no states: the budget and the decay fit read only these series
    ledger = TrajectoryLedger(None, times=t, e2=columns["e2"], d2=columns["d2"],
                              d2_int=columns["d2_int"], fwork_int=columns["fwork_int"])
    names = [f.name for f in dataclass_fields(EstimateRecord)]
    records = [EstimateRecord(**{n: columns[n][i] for n in names}) for i in range(len(t))]
    budget = energy_budget(ledger)
    gron = gronwall_monitor(records)
    rates = {}
    for q in ("e2", "d2"):
        try:
            rates[q] = decay_fit(ledger, q).rate
        except ConfigurationError:
            rates[q] = None
    interior = zip(columns["bar_residual"][1:-1], columns["tilde_residual"][1:-1])
    return {
        "samples": len(t),
        "t_end": t[-1],
        "e2_final": ledger.e2[-1],
        "energy_residual_max": budget.max_residual,
        "energy_residual_relative": budget.max_relative_residual,
        "e2_monotone": budget.monotone,
        "phi_max": gron.phi_max,
        "gronwall_dominated": gron.dominated,
        "split_residual_max": max((max(b, s) for b, s in interior), default=0.0),
        "decay_rates": rates,
    }
