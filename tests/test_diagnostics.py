"""Estimate ledger, energy budget, Gronwall monitor, decay fit, split."""

import tracemalloc

import numpy as np
import pytest

from hydropde.diagnostics import (
    build_records,
    decay_fit,
    energy_budget,
    gronwall_monitor,
    ledger_sample,
    record,
    split_residuals,
    summarize,
    trajectory_pressure,
)
from hydropde.errors import ConfigurationError
from hydropde.evolution import ForcingSpec, ImexConfig, forcing_eval, imex_run
from hydropde.fields import (
    SpectralField,
    fluctuation,
    l2_norm,
    random_spectral,
    to_physical,
    vertical_average,
    zeros_spectral,
)
from hydropde.grid import Grid
from hydropde.io import LEDGER_COLUMNS
from hydropde.nonlinear import advect
from hydropde.projection import SurfacePressure, constrain
from hydropde.stokes import StokesOperator, eigenmode
from oracles import averaged_to_physical, eigenmode_eigenvalue, grad_norm


@pytest.fixture(scope="module")
def grid8():
    return Grid(8, 8, 4)


@pytest.fixture(scope="module")
def op8(grid8):
    return StokesOperator(grid8)


@pytest.fixture(scope="module")
def short_run(grid8, op8):
    rng = np.random.default_rng(11)
    a = constrain(random_spectral(grid8, 2, rng, kmax=2, mmax=2, amplitude=1e-2))
    cfg = ImexConfig(dt=5e-4, t_end=0.5, sample_every=20)
    return imex_run(a, None, cfg, op8)


class TestRecord:
    def test_zero_state(self, grid8):
        z = zeros_spectral(grid8)
        r = record(z, 0.0, trajectory_pressure(z))
        assert r["h1"] == r["vz2"] == r["tilde4"] == r["vz3"] == 0.0

    def test_rejects_non_finite(self, grid8):
        z = zeros_spectral(grid8)
        nan = SpectralField(grid8, np.full_like(z.coeffs, np.nan))
        with pytest.raises(ConfigurationError):
            record(nan, 0.0, None)
        with pytest.raises(ConfigurationError, match="dtv2"):
            record(z, 0.0, None, dtv2=-1.0)

    def test_d2_splits_into_parts(self, grid8, rng):
        # ||grad v||^2 = horizontal part + vertical part; vz2 is the vertical
        # part and for a z-independent-average field the horizontal part of
        # the average is grad_h_bar
        v = constrain(random_spectral(grid8, 2, rng))
        r = record(v, 0.0, trajectory_pressure(v))
        g = grid8
        horiz = float(g.h / 2 * np.sum(g.k2[None, :, :, None] * np.abs(v.coeffs) ** 2))
        d2 = grad_norm(v) ** 2
        assert abs(d2 - (horiz + r["vz2"])) < 1e-10 * max(d2, 1.0)

    def test_tilde4_against_direct_quadrature(self, grid8, rng):
        v = constrain(random_spectral(grid8, 2, rng))
        r = record(v, 0.0, trajectory_pressure(v))
        g = grid8
        # oracle: the exact vertical average lifted to the nodes, where record
        # subtracts the quadrature mean of the node values
        vals = to_physical(v).values - averaged_to_physical(vertical_average(v)).values
        mag2 = np.sum(vals**2, axis=0)
        direct = float(np.sum((mag2**2) @ g.nodes.w) / (g.nx * g.ny))
        assert direct > 0
        assert abs(r["tilde4"] - direct) < 1e-12 * direct


class TestEnergyBudget:
    def test_linear_run_closes(self, grid8, op8):
        # slow mode: the trapezoid closure error scales like dt^2 mu^3
        a = eigenmode(grid8, (0, 0), 0, amplitude=0.1)
        led = imex_run(a, None, ImexConfig(dt=2e-4, t_end=0.3, sample_every=50, nonlinear=False), op8)
        rep = energy_budget(led.columns)
        assert rep.max_relative_residual < 1e-6
        assert rep.monotone

    def test_nonlinear_run_closes(self, short_run):
        # broadband data contains fast modes, so closure is looser here; the
        # dt-refinement behavior of the residual is covered elsewhere
        rep = energy_budget(short_run.columns)
        assert rep.max_relative_residual < 5e-2
        assert rep.monotone
        assert len(rep.residuals) == len(short_run.columns["t"])


class TestGronwall:
    def test_zero_trajectory(self, grid8, op8):
        led = imex_run(zeros_spectral(grid8), None,
                       ImexConfig(dt=1e-2, t_end=0.1, sample_every=2), op8)
        rep = gronwall_monitor(build_records(led))
        assert rep.phi_max == 0.0
        assert rep.dominated

    def test_decaying_run_dominated(self, short_run):
        rep = gronwall_monitor(build_records(short_run))
        assert rep.dominated
        assert rep.phi_max > 0

    def test_bound_grows_from_initial_value(self, short_run):
        rep = gronwall_monitor(build_records(short_run))
        assert rep.bound[0] == rep.phi[0]
        assert all(b2 >= b1 for b1, b2 in zip(rep.bound, rep.bound[1:]))


class TestDecayFit:
    def test_recovers_eigenmode_rate(self, grid8, op8):
        a = eigenmode(grid8, (1, 0), 0, amplitude=1e-3)
        mu = eigenmode_eigenvalue(grid8, (1, 0), 0)
        led = imex_run(a, None, ImexConfig(dt=1e-4, t_end=0.2, sample_every=10), op8)
        fit = decay_fit(led.columns, "e2")
        assert abs(fit.rate - 2 * mu) < 0.01 * 2 * mu

    def test_d2_quantity(self, short_run):
        fit = decay_fit(short_run.columns, "d2")
        assert fit.rate > 0

    def test_too_few_samples(self, grid8, op8):
        a = eigenmode(grid8, (1, 0), 0, amplitude=1e-3)
        led = imex_run(a, None, ImexConfig(dt=1e-2, t_end=0.1, sample_every=2), op8)
        with pytest.raises(ConfigurationError):
            decay_fit(led.columns, "e2")

    def test_unknown_quantity(self, short_run):
        with pytest.raises(ConfigurationError):
            decay_fit(short_run.columns, "enstrophy")

    def test_tail_is_cut_at_first_nonpositive_sample(self):
        # 40 samples, tail from sample 20: 10 positive samples, then 0, then
        # positive samples off the curve that the fit must not read
        t = 0.1 * np.arange(40)
        e2 = np.exp(-2 * t)
        e2[30] = 0.0
        e2[31:] = 5.0
        fit = decay_fit({"t": list(t), "e2": list(e2)}, "e2")
        assert abs(fit.rate - 2) <= 1e-12
        assert abs(fit.amplitude - 1) <= 1e-12

    def test_too_few_positive_tail_samples(self, short_run):
        t = 0.1 * np.arange(40)
        e2 = np.exp(-2 * t)
        e2[29] = 0.0
        with pytest.raises(ConfigurationError, match=">= 10 positive tail samples"):
            decay_fit({"t": list(t), "e2": list(e2)}, "e2")
        table = build_records(short_run)
        start = len(table["t"]) // 2
        table["e2"][start + 9] = 0.0
        rates = summarize(table)["decay_rates"]
        assert rates["e2"] is None and rates["d2"] > 0


class TestSplitResiduals:
    def test_semi_discrete_residuals_vanish(self, grid8, rng):
        v = constrain(random_spectral(grid8, 2, rng, amplitude=0.1))
        pi = trajectory_pressure(v)
        s = split_residuals(v, pi)
        assert s["bar_residual"] < 1e-10
        assert s["tilde_residual"] < 1e-10

    @pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
    def test_semi_discrete_rhs_matches_stokes_formula(self, grid8, op8, rng, forced):
        # oracle: the residuals of dt v = -A v - P adv + P f, written with the
        # Stokes operator.  Doubling the pressure makes bar_residual O(1), so
        # not only rounding-level numbers are compared; the residuals are
        # relative to ||v||, so abs=1e-12 is 1e-12 of the state.
        spec = ForcingSpec(eigenmode(grid8, (1, 0), 0, amplitude=0.1)) if forced else None
        f = forcing_eval(spec, 0.3) if forced else zeros_spectral(grid8)
        lap = -grid8.laplace_symbol[None]
        for _ in range(4):
            v = constrain(random_spectral(grid8, 2, rng, amplitude=0.1))
            adv = advect(v)
            dt_v = -op8.apply(v) - constrain(adv) + constrain(f)
            r = dt_v + adv - SpectralField(grid8, lap * v.coeffs) - f
            pi = trajectory_pressure(v, f if forced else None)
            for p in (pi, SurfacePressure(grid8, 2 * pi.coeffs)):
                got = split_residuals(v, p, f_field=f if forced else None)
                want = {"bar_residual": (vertical_average(r) + p.gradient()).l2_norm(),
                        "tilde_residual": l2_norm(fluctuation(r))}
                for name, val in want.items():
                    assert got[name] == pytest.approx(val / l2_norm(v), rel=1e-12, abs=1e-12)
            assert got["bar_residual"] > 0.1

    def test_zero_state(self, grid8):
        z = zeros_spectral(grid8)
        s = split_residuals(z, trajectory_pressure(z))
        assert s["bar_residual"] == s["tilde_residual"] == 0.0

    def test_marched_trajectory_residuals_small(self, grid8, op8):
        a = eigenmode(grid8, (1, 0), 0, amplitude=1e-2) \
            + eigenmode(grid8, (0, 0), 0, amplitude=1e-2)
        led = imex_run(a, None, ImexConfig(dt=1e-4, t_end=0.02, sample_every=1), op8)
        i = len(led.columns["t"]) // 2
        dt_v = (1.0 / (led.columns["t"][i + 1] - led.columns["t"][i - 1])) * (
            led.states[i + 1] - led.states[i - 1]
        )
        pi = trajectory_pressure(led.states[i])
        s = split_residuals(led.states[i], pi, dt_v=dt_v)
        assert s["bar_residual"] < 1e-4
        assert s["tilde_residual"] < 1e-4


class TestBuildRecords:
    def test_series_shapes_and_dtv(self, short_run):
        table = build_records(short_run)
        assert len(table["dtv2"]) == len(short_run.states)
        assert all(x >= 0 for x in table["dtv2"])
        assert table["dtv2"][1] > 0
        assert table["t"] == short_run.columns["t"]

    def test_keys_follow_the_csv_layout(self, short_run):
        # the table's keys, in order, are the columns the CSV writes
        table = build_records(short_run)
        assert list(table) == list(LEDGER_COLUMNS)
        assert all(len(col) == len(short_run.states) for col in table.values())

    def test_forced_records(self, grid8, op8):
        spec = ForcingSpec(eigenmode(grid8, (1, 0), 0, amplitude=0.01))
        a = eigenmode(grid8, (1, 0), 0, amplitude=0.01)
        led = imex_run(a, spec, ImexConfig(dt=1e-3, t_end=0.05, sample_every=10), op8)
        table = build_records(led, spec)
        assert all(np.isfinite(x) for x in table["h2"])

    def test_split_matches_standalone_oracle(self, grid8, op8):
        # the sampler shares one advect between pressure and split residuals;
        # the standalone functions, each advecting on its own, are the reference
        spec = ForcingSpec(eigenmode(grid8, (1, 0), 0, amplitude=0.01))
        a = eigenmode(grid8, (1, 0), 0, amplitude=0.01)
        led = imex_run(a, spec, ImexConfig(dt=1e-3, t_end=0.02, sample_every=4), op8)
        table = build_records(led, spec)
        n = len(led.columns["t"])
        assert n >= 3 and len(table["bar_residual"]) == n
        for i, state in enumerate(led.states):
            dt_v = None
            if 0 < i < n - 1:
                dt_v = (1.0 / (led.columns["t"][i + 1] - led.columns["t"][i - 1])) * (
                    led.states[i + 1] - led.states[i - 1])
            f = forcing_eval(spec, led.columns["t"][i])
            oracle = split_residuals(state, trajectory_pressure(state, f),
                                     dt_v=dt_v, f_field=f)
            assert {name: table[name][i] for name in oracle} == oracle

    def test_forms_dt_v_at_interior_samples_alone(self, short_run, monkeypatch):
        # one field per sample for its state, one more per interior sample
        # for dt v: the end samples read dtv2 off the coordinates
        calls, form = [], StokesOperator.from_eigen_flat
        monkeypatch.setattr(StokesOperator, "from_eigen_flat",
                            lambda op, y: calls.append(y) or form(op, y))
        build_records(short_run)
        n = len(short_run.coords)
        assert n >= 3 and len(calls) == 2 * n - 2

    def test_interior_sample_peak_memory(self, rng):
        # ledger_sample forms dt v from the coordinates and drops it and the
        # balance m before record's syntheses; keeping both through record
        # peaks near 7.9 field sizes at 32^2x16, this near 5.7
        g = Grid(32, 32, 16)
        a = constrain(random_spectral(g, 2, rng, amplitude=1e-3))
        led = imex_run(a, None, ImexConfig(dt=1e-5, t_end=3e-5, sample_every=1),
                       StokesOperator(g))
        ledger_sample(led, 1)  # fill the grid's lazy tables before measuring
        tracemalloc.start()
        try:
            ledger_sample(led, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.5 * a.coeffs.nbytes


class TestSummarize:
    def test_rejects_entries_no_run_writes(self, short_run):
        table = build_records(short_run)
        summarize(table)
        for name, val in (("h1", -1.0), ("e2", float("inf")), ("t", float("inf"))):
            bad = {n: list(col) for n, col in table.items()}
            bad[name][2] = val
            with pytest.raises(ConfigurationError, match=f"entry {name} ="):
                summarize(bad)
        # a negative forcing work and an overflowed split residual are kept
        ok = {n: list(col) for n, col in table.items()}
        ok["fwork_int"][2] = -1.0
        ok["bar_residual"][2] = float("inf")
        summarize(ok)


def poincare_slack(ledger):
    """max over samples of lam_0^2 E2 - D2, which the Poincare inequality keeps <= 0."""
    lam0sq = (0.5 * np.pi / ledger.op.grid.h) ** 2
    return max(lam0sq * e - d for e, d in zip(ledger.columns["e2"], ledger.columns["d2"]))


class TestPoincare:
    def test_slack_nonpositive(self, short_run):
        assert poincare_slack(short_run) <= 1e-12

    def test_ground_mode_saturates(self, grid8, op8):
        a = eigenmode(grid8, (0, 0), 0, amplitude=1e-3)
        led = imex_run(a, None, ImexConfig(dt=1e-3, t_end=0.05, sample_every=10), op8)
        assert abs(poincare_slack(led)) < 1e-12 * max(led.columns["e2"])
