"""Trajectory diagnostics: the a priori estimate ledger made executable.

Every monitored quantity is a norm the fields module can compute.  A
sampled trajectory is one table, {column name: list of floats}: the
integrator's columns (t, e2, d2 and the budget integrals) plus the columns
of one row per sample.  build_records forms each sample's momentum balance
m = advect(v) - Delta v - f once, for the surface pressure and the
barotropic/baroclinic split residuals, and synthesizes v and dz v once each
for the estimate norms.  The monitors and summarize read any mapping with
those column names (the ledger's columns, build_records' table or a ledger
CSV read back); they check the discrete counterparts of the energy
identity, the Gronwall-type bound on the split energy Phi, and exponential
decay.  Multiplicative constants in the continuous estimates are not
computable, so all pass criteria are identities, boundedness, or
stability-under-refinement, never absolute constants.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .fields import (
    PhysicalField,
    SpectralField,
    fluctuation,
    l2_norm,
    lp_norm,
    synthesize,
    to_physical,
    vertical_average,
)
from .nonlinear import advect
from .projection import constrain, solve_surface_poisson
from .evolution import Forcing, TrajectoryLedger, forcing_eval


def _check_entries(row: dict):
    """Reject a non-finite entry, or a negative one.

    Every ledger series is a norm, an integral of one or a residual norm,
    except the time t and the forcing work fwork_int, which may be negative.
    """
    for name, val in row.items():
        if not (math.isfinite(val) and (val >= 0 or name in ("t", "fwork_int"))):
            raise ConfigurationError(f"estimate record entry {name} = {val}")


def _momentum_balance(state: SpectralField, f_field: SpectralField | None = None):
    """m = advect(v) - Delta v - f, so that dt v + m + grad_H pi = 0."""
    g = state.grid
    m = advect(state).coeffs + g.laplace_symbol * state.coeffs
    if f_field is not None:
        m -= f_field.coeffs
    return SpectralField(g, m)


def trajectory_pressure(state: SpectralField, f_field: SpectralField | None = None,
                        balance: SpectralField | None = None):
    """Surface pressure: Delta_H pi = -div_H avg(m) for the momentum balance m.

    balance is m = _momentum_balance(state, f_field) if the caller has it.
    """
    m = _momentum_balance(state, f_field) if balance is None else balance
    return solve_surface_poisson(-vertical_average(m))


def tilde_values(state: SpectralField):
    """Pointwise fluctuation v - vbar on the collocation grid.

    vbar is the quadrature mean over the depth, an exact z-constant (not the
    truncated cosine representative of the average), subtracted in place.
    """
    g = state.grid
    vals = to_physical(state).values
    vals -= (vals @ g.nodes.w)[..., None] / g.h
    return vals


def record(state: SpectralField, t, pi, dtv2=0.0) -> dict:
    """The estimate norms of one state, as a row of ledger columns.

    grad_h_bar = ||grad_H vbar||^2_{L^2(G)}, vz2 = ||dz v||^2_{L^2},
    tilde4 = ||v - vbar||^4_{L^4}, grad_pi = ||grad_H pi||^2_{L^2(G)},
    vz3 = ||dz v||^3_{L^3}, dtv2 = ||dt v||^2_{L^2} as the caller supplies it,
    and h1, h2 = ||v||^2 in the H^1 and H^2 surrogates.  The sample time t
    and the integrator's e2 and d2 are ledger columns, not part of the row.
    A non-finite or negative entry raises ConfigurationError; h1 bounds e2
    and d2 term by term, so a state whose e2 or d2 overflows is rejected too.
    """
    g = state.grid
    vbar = vertical_average(state)
    p2 = g.h / 2 * np.sum(np.abs(state.coeffs) ** 2, axis=0)  # Parseval density
    row = {
        "grad_h_bar": float(np.sum(g.k2[None] * np.abs(vbar.coeffs) ** 2)),
        "vz2": float(np.sum(g.lam**2 * p2)),
        "tilde4": lp_norm(PhysicalField(g, tilde_values(state)), 4) ** 4,
        "grad_pi": float(np.sum(g.k2 * np.abs(pi.coeffs) ** 2)) if pi is not None else 0.0,
        "vz3": lp_norm(synthesize(g, state.coeffs, g.nodes.dz), 3) ** 3,
        "dtv2": float(dtv2),
        "h1": float(np.sum(g.sobolev_symbol * p2)),
        "h2": float(np.sum(g.sobolev_symbol**2 * p2)),
    }
    _check_entries(row)
    return row


def ledger_sample(ledger: TrajectoryLedger, i, forcing: Forcing | None = None) -> dict:
    """Row of sample i: record's norms and the split residuals, from one balance m.

    dt v is the difference quotient dy of the neighbouring samples'
    coordinates and dtv2 its norm; only a centred sample forms dy's field,
    for the split residuals, and the end samples of a trajectory with >= 2
    samples take the semi-discrete right-hand side there instead.
    """
    times, y, op = ledger.columns["t"], ledger.coords, ledger.op
    lo, hi = max(i - 1, 0), min(i + 1, len(y) - 1)
    dtv2, dt_v = 0.0, None
    if hi > lo:
        dy = (y[hi] - y[lo]) / (times[hi] - times[lo])
        dtv2 = op.norm(dy) ** 2
        if hi - lo == 2:
            dt_v = op.from_eigen_flat(dy)
    t, state = times[i], ledger.states[i]
    m = _momentum_balance(state, forcing_eval(forcing, t) if forcing is not None else None)
    pi = trajectory_pressure(state, balance=m)
    split = split_residuals(state, pi, dt_v=dt_v, balance=m)
    del dt_v, m  # gone before record's syntheses, the sample's largest arrays
    return {**record(state, t, pi, dtv2), **split}


def build_records(ledger: TrajectoryLedger, forcing: Forcing | None = None) -> dict:
    """One pass over a sampled trajectory: the full ledger table.

    The ledger's columns (copied) come first, then the columns of the rows
    ledger_sample returns: together the io.LEDGER_COLUMNS order of the CSV.
    """
    table = {name: list(col) for name, col in ledger.columns.items()}
    for i in range(len(ledger.coords)):
        for name, val in ledger_sample(ledger, i, forcing).items():
            table.setdefault(name, []).append(val)
    return table


# -- energy budget --------------------------------------------------------


@dataclass(frozen=True)
class EnergyBudgetReport:
    residuals: tuple
    max_residual: float
    max_relative_residual: float
    monotone: bool


def energy_budget(table) -> EnergyBudgetReport:
    """Check E2(t) + 2 int_0^t D2 ds = E2(0) + 2 int_0^t <P f, v> ds.

    Uses the per-step accumulated integrals the integrator stored, so the
    check is independent of the sampling cadence.  The relative residual
    divides by the largest budget term over the samples (E2, 2 int D2 or
    2 |int <P f, v>|), so a forced run from small data is not judged by E2(0).
    """
    e2, d2_int, fwork_int = table["e2"], table["d2_int"], table["fwork_int"]
    res = tuple(e + 2 * d - 2 * w - e2[0] for e, d, w in zip(e2, d2_int, fwork_int))
    mx = max(abs(r) for r in res)
    scale = max(max(e2), 2 * max(d2_int), 2 * max(map(abs, fwork_int)))
    rel = mx / scale if scale > 0 else mx
    mono = all(b < a for a, b in zip(e2, e2[1:]))
    return EnergyBudgetReport(res, mx, rel, mono)


# -- Gronwall monitor -----------------------------------------------------


@dataclass(frozen=True)
class GronwallReport:
    phi: tuple
    phi_max: float
    bound: tuple          # Phi(0) * exp(int K1_hat), per sample
    dominated: bool       # Phi(t) <= bound(t) everywhere


def _k1_surrogate(e2, h1) -> float:
    # unit-constant stand-in for the Gronwall rate: grows with the solution
    # size in L^2 and H^1
    e = math.sqrt(e2)
    h = math.sqrt(h1)
    return (1 + e + e * e) * (h ** (2.0 / 3.0) + h + h * h)


def gronwall_monitor(table) -> GronwallReport:
    """Check Phi(t) <= Phi(0) exp(int_0^t K1_hat) along the ledger table.

    Phi = 8 ||grad_H vbar||^2 + ||dz v||^2 + (c3/4) ||v - vbar||^4_{L^4}.
    The non-negative dissipation on the left of the continuous estimate
    only strengthens it, so the check leaves it out.
    """
    # c3 = 1: Phi's weight on the L^4 energy of the fluctuation is a free
    # positive constant of the Cao-Titi estimate, so c3/4 = 0.25
    t = table["t"]
    phi = [8 * g + v + 0.25 * w
           for g, v, w in zip(table["grad_h_bar"], table["vz2"], table["tilde4"])]
    k1 = [_k1_surrogate(e, h) for e, h in zip(table["e2"], table["h1"])]
    bound = [phi[0]]
    acc = 0.0
    for i in range(1, len(t)):
        acc += 0.5 * (t[i] - t[i - 1]) * (k1[i] + k1[i - 1])
        bound.append(phi[0] * math.exp(min(acc, 700.0)))
    dominated = all(p <= b * (1 + 1e-9) + 1e-300 for p, b in zip(phi, bound))
    return GronwallReport(
        phi=tuple(phi),
        phi_max=max(phi),
        bound=tuple(bound),
        dominated=dominated,
    )


# -- decay fit ------------------------------------------------------------


@dataclass(frozen=True)
class DecayFit:
    rate: float
    amplitude: float
    residual: float


def decay_fit(table, quantity="e2") -> DecayFit:
    """Least-squares fit of log(quantity) vs t on the trajectory tail.

    The tail is the second half of the samples, past the transient of the
    faster-decaying modes.
    """
    times = np.asarray(table["t"])
    if quantity in ("e2", "d2"):
        vals = np.asarray(table[quantity])
    else:
        raise ConfigurationError(f"unknown decay quantity {quantity!r}")
    start = len(times) // 2
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


def split_residuals(state: SpectralField, pi, dt_v: SpectralField | None = None,
                    f_field: SpectralField | None = None,
                    balance: SpectralField | None = None) -> dict:
    """Residuals of the averaged (L^2(G)) and fluctuation (L^2) momentum equations.

    r = dt v + m for the momentum balance m (balance, if the caller has it).
    With dt_v omitted, dt v is -P m (P = constrain), the semi-discrete
    right-hand side of a state on the constraint manifold, and both residuals
    vanish to rounding; along a marched trajectory pass dt_v from finite
    differences to test the integrator.
    """
    m = _momentum_balance(state, f_field) if balance is None else balance
    r = m - constrain(m) if dt_v is None else dt_v + m
    r_bar = vertical_average(r) + pi.gradient()
    scale = max(l2_norm(state), 1e-300)
    return {"bar_residual": r_bar.l2_norm() / scale,
            "tilde_residual": l2_norm(fluctuation(r, out=r.coeffs)) / scale}


# -- report summary -------------------------------------------------------


def summarize(table) -> dict:
    """Report summary of a ledger table ({column name: list of floats}).

    The run report and `pe diagnose` both come from here, the latter from
    the table of the CSV alone, so the two agree exactly: the CSV stores
    floats with repr.  An entry no run writes (non-finite, or negative where
    a norm belongs) raises ConfigurationError; the split residuals are left
    unchecked, since those of a blow-up's last kept samples may overflow.
    """
    t = table["t"]
    for i in range(len(t)):
        _check_entries({name: col[i] for name, col in table.items()
                        if name not in ("bar_residual", "tilde_residual")})
    budget = energy_budget(table)
    gron = gronwall_monitor(table)
    rates = {}
    for q in ("e2", "d2"):
        try:
            rates[q] = decay_fit(table, q).rate
        except ConfigurationError:
            rates[q] = None
    interior = zip(table["bar_residual"][1:-1], table["tilde_residual"][1:-1])
    return {
        "samples": len(t),
        "t_end": t[-1],
        "e2_final": table["e2"][-1],
        "energy_residual_max": budget.max_residual,
        "energy_residual_relative": budget.max_relative_residual,
        "e2_monotone": budget.monotone,
        "phi_max": gron.phi_max,
        "gronwall_dominated": gron.dominated,
        "split_residual_max": max((max(b, s) for b, s in interior), default=0.0),
        "decay_rates": rates,
    }
