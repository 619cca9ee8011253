"""Picard iteration and IMEX marching."""

import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest

from hydropde import evolution
from hydropde.errors import ConfigurationError, NanAbort
from hydropde.evolution import (
    ForcingSpec,
    ImexConfig,
    PicardConfig,
    TrajectoryLedger,
    forcing_eval,
    imex_run,
    make_manufactured,
    picard_solve,
)
from hydropde.fields import hermitize, l2_norm, random_spectral
from hydropde.grid import Grid
from hydropde.nonlinear import F
from hydropde.projection import constrain, divergence_of_average
from hydropde.stokes import StokesOperator, eigenmode
from oracles import (
    eigenmode_eigenvalue,
    grad_norm,
    imex_step,
    l2_inner,
    picard_whole_lists,
    reference_march,
    zeros_spectral,
)


@pytest.fixture(scope="module")
def grid8():
    return Grid(8, 8, 4)


@pytest.fixture(scope="module")
def op8(grid8):
    return StokesOperator(grid8)


def small_data(grid, amplitude=1e-3):
    return (
        eigenmode(grid, (0, 0), 0, amplitude=amplitude)
        + eigenmode(grid, (1, 0), 0, amplitude=0.1 * amplitude)
    )


class TestConfigs:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PicardConfig(horizon=0.0)
        with pytest.raises(ConfigurationError):
            PicardConfig(horizon=1.0, nodes=3)
        with pytest.raises(ConfigurationError):
            ImexConfig(dt=-1e-3, t_end=1.0)
        with pytest.raises(ConfigurationError):
            ImexConfig(dt=1e-3, t_end=1.0, order=3)
        # a non-finite step or horizon would march no step, or form no node grid
        for dt in (np.inf, np.nan):
            with pytest.raises(ConfigurationError, match="step size must be finite and > 0"):
                ImexConfig(dt=dt, t_end=1.0, cfl_limit=np.inf)
        for horizon in (np.inf, np.nan):
            with pytest.raises(ConfigurationError, match="horizon must be finite and > 0"):
                PicardConfig(horizon=horizon)
        # an infinite end time is not a step size that fails to divide it
        for t_end in (np.inf, np.nan, 0.0):
            with pytest.raises(ConfigurationError, match="end time must be finite and > 0"):
                ImexConfig(dt=1e-3, t_end=t_end)

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_picard_max_iterations_below_one_rejected(self, iterations):
        with pytest.raises(ConfigurationError, match="max_iterations >= 1"):
            PicardConfig(horizon=1.0, max_iterations=iterations)

    @pytest.mark.parametrize("tol", [0.0, -1e-12, np.inf, np.nan])
    def test_picard_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(ConfigurationError, match="tolerance must be finite"):
            PicardConfig(horizon=1.0, tolerance=tol)

    @pytest.mark.parametrize("limit", [np.nan, 0.0, -50.0])
    def test_cfl_limit_nan_or_nonpositive_rejected(self, limit):
        with pytest.raises(ConfigurationError, match="cfl_limit must be > 0"):
            ImexConfig(dt=1e-3, t_end=1.0, cfl_limit=limit)

    def test_infinite_cfl_limit_switches_the_check_off(self, grid8, op8):
        a = eigenmode(grid8, (1, 0), 0, amplitude=1e6)
        with pytest.raises(ConfigurationError, match="too large"):
            imex_run(a, None, ImexConfig(dt=1e-3, t_end=1e-3), op8)
        cfg = ImexConfig(dt=1e-3, t_end=1e-3, cfl_limit=np.inf)
        assert imex_run(a, None, cfg, op8).columns["t"] == [0.0, 1e-3]

    def test_sample_every_below_one_rejected(self, grid8, op8):
        a = eigenmode(grid8, (1, 0), 0, amplitude=1e-3)
        with pytest.raises(ConfigurationError, match="sample_every"):
            imex_run(a, None, ImexConfig(dt=1e-3, t_end=0.01, sample_every=0), op8)

    @pytest.mark.parametrize("dt, t_end", [(0.3, 1.0), (0.5, 0.1)])
    def test_step_must_divide_end_time(self, dt, t_end):
        with pytest.raises(ConfigurationError, match="does not divide"):
            ImexConfig(dt=dt, t_end=t_end)

    def test_ledger_requires_increasing_times(self, op8):
        led = TrajectoryLedger(op8, None)
        led.append(0.0, None, 1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ConfigurationError):
            led.append(0.0, None, 1.0, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_ledger_refuses_a_non_finite_time(self, op8, t):
        # also as the first time, which no order check sees
        for times in ([], [0.0]):
            led = TrajectoryLedger(op8, None)
            for s in times:
                led.append(s, None, 1.0, 1.0, 0.0, 0.0)
            with pytest.raises(ConfigurationError, match=rf"ledger time t must be finite, got {t}"):
                led.append(t, None, 1.0, 1.0, 0.0, 0.0)
            assert led.columns["t"] == times and len(led.coords) == len(times)


class TestForcing:
    def test_single_mode_decay(self, grid8):
        spec = ForcingSpec(eigenmode(grid8, (1, 0), 0, amplitude=2.0), rate=0.7)
        f0 = forcing_eval(spec, 0.0)
        f1 = forcing_eval(spec, 1.0)
        assert np.max(np.abs(f1.coeffs - np.exp(-0.7) * f0.coeffs)) < 1e-14
        div = divergence_of_average(f0)
        assert np.max(np.abs(div.coeffs)) < 1e-12

    def test_mms_forcing_matches_finite_differences(self, grid8, op8, rng):
        # f(t) must equal d/dt v_exact + A v_exact - F(v_exact) for the
        # manufactured trajectory, with the time derivative checked by
        # central differences
        psi = constrain(random_spectral(grid8, rng, kmax=2, mmax=2, amplitude=1e-2))
        mms = make_manufactured(op8, psi)
        t, delta = 0.37, 1e-5
        vp = mms.solution(t + delta)
        vm = mms.solution(t - delta)
        dvdt = (1.0 / (2 * delta)) * (vp - vm)
        v = mms.solution(t)
        lhs = forcing_eval(mms, t)
        rhs = dvdt + op8.apply(v) - F(v)
        scale = max(np.max(np.abs(lhs.coeffs)), 1e-30)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-6 * scale


class TestPicard:
    def test_zero_data_one_iteration(self, grid8, op8):
        cfg = PicardConfig(horizon=0.5, nodes=9)
        ledger, report = picard_solve(zeros_spectral(grid8), None, cfg, op8)
        assert report.converged and not report.diverged
        assert report.iterations == 1
        assert max(ledger.columns["e2"]) == 0.0

    def test_linear_problem_matches_semigroup(self, grid8, op8, rng, monkeypatch):
        # F = 0: the first iterate is the semigroup orbit, and the sweep
        # after it changes nothing
        monkeypatch.setattr(evolution, "F", lambda v: 0 * v)
        a = constrain(random_spectral(grid8, rng))
        cfg = PicardConfig(horizon=0.4, nodes=17)
        ledger, report = picard_solve(a, None, cfg, op8)
        assert report.converged and report.iterations == 1
        for t, state in zip(ledger.columns["t"], ledger.states):
            exact = op8.semigroup_apply(t, a)
            assert l2_norm(state - exact) < 1e-10 * l2_norm(a)

    def test_small_data_converges_quickly(self, grid8, op8):
        a = small_data(grid8)
        cfg = PicardConfig(horizon=0.5, nodes=17)
        ledger, report = picard_solve(a, None, cfg, op8)
        assert report.converged
        assert report.iterations <= 6
        # quadratic recursion k_{m+1} <= k_0 + C1 k_m^2 with a moderate C1
        k = report.k_history
        c1 = 1e4
        for m in range(len(k) - 1):
            assert k[m + 1] <= k[0] + c1 * k[m] ** 2 + 1e-15

    def test_node_zero_evaluates_f_once(self, grid8, op8, monkeypatch):
        # node 0 is constrain(a) in every iterate: one F there, then one per
        # later node and iteration
        import hydropde.evolution as evolution

        calls = []

        def counted(v):
            calls.append(v)
            return F(v)

        monkeypatch.setattr(evolution, "F", counted)
        cfg = PicardConfig(horizon=0.5, nodes=9)
        _, report = picard_solve(small_data(grid8), None, cfg, op8)
        assert report.iterations >= 2
        assert len(calls) == 1 + report.iterations * (cfg.nodes - 1)

    def test_iterates_stay_constrained(self, grid8, op8):
        a = small_data(grid8)
        ledger, _ = picard_solve(a, None, PicardConfig(horizon=0.3, nodes=9), op8)
        for state in ledger.states:
            div = divergence_of_average(state)
            assert np.max(np.abs(div.coeffs)) < 1e-12

    def test_forced_ledger_matches_field_norms(self, grid8, op8):
        # the ledger's budget is read off eigen-coordinates; the field-form
        # norms of the stored states and a trapezoid sum of <f, v> are the
        # reference
        spec = ForcingSpec(eigenmode(grid8, (1, 0), 0, amplitude=0.05), rate=0.5)
        a = small_data(grid8, amplitude=0.05)
        ledger, report = picard_solve(a, spec, PicardConfig(horizon=0.1, nodes=9), op8)
        assert report.converged
        work = np.array([l2_inner(forcing_eval(spec, t), s)
                         for t, s in zip(ledger.columns["t"], ledger.states)])
        fwork = np.concatenate([[0.0], np.cumsum(
            0.5 * np.diff(ledger.columns["t"]) * (work[1:] + work[:-1]))])
        assert fwork[-1] > 0
        c = ledger.columns
        for i, state in enumerate(ledger.states):
            assert c["e2"][i] == pytest.approx(l2_norm(state) ** 2, rel=1e-12, abs=0)
            assert c["d2"][i] == pytest.approx(grad_norm(state) ** 2, rel=1e-12, abs=0)
            assert c["fwork_int"][i] == pytest.approx(fwork[i], rel=1e-12, abs=0)

    def test_k_is_the_iteration_norm(self, grid8, op8):
        # k = sup_t t^(1/4) ||(1 + A)^(3/4) v(t)||, the time-weighted norm of
        # the mild-solution iteration; (1 + A)^(3/4) applied to the field is
        # the reference for the weight picard_solve puts on the coordinates
        a = random_spectral(grid8, np.random.default_rng(6), kmax=4, amplitude=0.05)
        ledger, report = picard_solve(a, None, PicardConfig(horizon=1e-2, nodes=9), op8)
        want = max(t ** 0.25 * l2_norm(op8._spectral_map(lambda mu: (1 + mu) ** 0.75, v))
                   for t, v in zip(ledger.columns["t"], ledger.states) if t > 0)
        assert abs(report.k_history[-1] - want) <= 1e-13 * want

    def test_non_convergence_reported_not_raised(self, grid8, op8):
        # huge data on a short budget: the iteration must report failure
        a = 200.0 * constrain(random_spectral(grid8, np.random.default_rng(5)))
        cfg = PicardConfig(horizon=0.5, nodes=9, max_iterations=3, tolerance=1e-15)
        ledger, report = picard_solve(a, None, cfg, op8)
        assert not report.converged
        assert len(ledger.columns["t"]) == 9


def _picard_case(name, grid, op):
    """(a, forcing, PicardConfig) of one oracle case on an 8^2x4 grid."""
    a = small_data(grid, amplitude=0.05)
    cfg = PicardConfig(horizon=0.1, nodes=9)
    if name == "unforced":
        return a, None, cfg
    if name == "forcing-spec":
        return a, ForcingSpec(eigenmode(grid, (1, 0), 0, amplitude=0.05), rate=0.5), cfg
    if name == "manufactured":
        psi = random_spectral(grid, np.random.default_rng(3), kmax=2, mmax=2, amplitude=1e-2)
        mms = make_manufactured(op, psi)
        return mms.solution(0.0), mms, cfg
    # amplitude 200 passes the ceiling k > 1e6 at the second iteration
    big = constrain(random_spectral(grid, np.random.default_rng(0), amplitude=200.0))
    return big, None, PicardConfig(horizon=0.5, nodes=9, max_iterations=2, tolerance=1e-300)


class TestStreamedSweep:
    """picard_solve streams each iteration over the nodes; the whole-list
    loop it replaced is the oracle, and the two must agree bit for bit."""

    @pytest.mark.parametrize(
        "case", ["unforced", "forcing-spec", "manufactured", "diverging"])
    def test_matches_whole_list_iteration(self, grid8, op8, case):
        a, forcing, cfg = _picard_case(case, grid8, op8)
        ledger, report = picard_solve(a, forcing, cfg, op8)
        ref_ledger, ref_report = picard_whole_lists(a, forcing, cfg, op8)
        assert report == ref_report
        assert ledger.columns == ref_ledger.columns
        assert len(ledger.states) == len(ref_ledger.states) == cfg.nodes
        for state, ref in zip(ledger.states, ref_ledger.states):
            assert np.array_equal(state.coeffs, ref.coeffs)
        if case == "diverging":
            assert report.diverged and report.iterations == 2
        else:
            assert report.converged and report.iterations >= 2

    def test_one_iteration_holds_under_three_trajectories(self, grid16, op16):
        # a sweep that keeps four whole node lists peaks near 3.9 trajectories
        # of fields (130 field sizes), and a streamed one that keeps each
        # node's field beside its coordinates near 60; holding the old
        # trajectory, shrinking, and the new one, growing, as coordinates
        # alone (0.47 of a field's bytes per node at 16^2x8) peaks near 28
        a = constrain(random_spectral(grid16, np.random.default_rng(3), amplitude=1e-3))
        # fill the operator's and the grid's lazy tables before measuring
        picard_solve(a, None, PicardConfig(horizon=1e-2, nodes=4, max_iterations=1), op16)
        cfg = PicardConfig(horizon=1e-2, nodes=33, max_iterations=3, tolerance=1e-300)
        tracemalloc.start()
        try:
            _, report = picard_solve(a, None, cfg, op16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.iterations == 3
        assert peak < 40 * a.coeffs.nbytes


class TestImex:
    def test_linear_exact_mode_order_two(self, grid8, op8):
        # errors on a pure eigenmode must shrink by about 4x per halving
        a = eigenmode(grid8, (1, 0), 0, amplitude=1.0)
        mu = eigenmode_eigenvalue(grid8, (1, 0), 0)
        t_end = 0.1
        errs = []
        for dt in (2e-3, 1e-3, 5e-4):
            led = imex_run(a, None, ImexConfig(dt=dt, t_end=t_end), op8)
            exact = np.exp(-mu * t_end)
            e2 = led.columns["e2"]
            errs.append(abs(np.sqrt(e2[-1]) / np.sqrt(e2[0]) - exact))
        r1 = errs[0] / errs[1]
        r2 = errs[1] / errs[2]
        assert 3.3 < r1 < 4.7 and 3.3 < r2 < 4.7

    def test_order_one_scheme(self, grid8, op8):
        a = eigenmode(grid8, (1, 0), 0)
        mu = eigenmode_eigenvalue(grid8, (1, 0), 0)
        t_end = 0.1
        errs = []
        for dt in (2e-3, 1e-3):
            led = imex_run(a, None, ImexConfig(dt=dt, t_end=t_end, order=1), op8)
            e2 = led.columns["e2"]
            errs.append(abs(np.sqrt(e2[-1]) / np.sqrt(e2[0]) - np.exp(-mu * t_end)))
        assert 1.7 < errs[0] / errs[1] < 2.3

    def test_nonlinear_order_two_against_reference(self, grid8, op8):
        a = small_data(grid8, amplitude=0.1)
        t_end = 0.2
        ref = imex_run(a, None, ImexConfig(dt=1.25e-4, t_end=t_end, sample_every=10**9), op8)
        errs = []
        for dt in (2e-3, 1e-3, 5e-4):
            led = imex_run(a, None, ImexConfig(dt=dt, t_end=t_end, sample_every=10**9), op8)
            errs.append(l2_norm(led.states[-1] - ref.states[-1]))
        assert 3.0 < errs[0] / errs[1] < 5.0
        assert 3.0 < errs[1] / errs[2] < 5.0

    def test_states_stay_constrained(self, grid8, op8, rng):
        a = constrain(random_spectral(grid8, rng, amplitude=1e-2))
        led = imex_run(a, None, ImexConfig(dt=1e-3, t_end=0.05, sample_every=10), op8)
        for state in led.states:
            div = divergence_of_average(state)
            assert np.max(np.abs(div.coeffs)) < 1e-12

    def test_step_function_matches_run(self, grid8, op8):
        a = small_data(grid8, amplitude=0.1)
        cfg = ImexConfig(dt=1e-3, t_end=5e-3, sample_every=1)
        led = imex_run(a, None, cfg, op8)
        v = constrain(a)
        f_prev = None
        for n in range(5):
            v, f_prev = imex_step(v, f_prev, n * cfg.dt, cfg, op8, None, n == 0)
        assert l2_norm(v - led.states[-1]) < 1e-12 * l2_norm(v)

    def test_energy_dissipates_without_forcing(self, grid8, op8, rng):
        a = constrain(random_spectral(grid8, rng, amplitude=1e-2))
        led = imex_run(a, None, ImexConfig(dt=1e-3, t_end=0.2, sample_every=20), op8)
        assert all(b < a_ for a_, b in zip(led.columns["e2"], led.columns["e2"][1:]))

    def test_energy_budget_closes_at_scheme_order(self, grid8, op8):
        a = small_data(grid8, amplitude=0.1)
        resid = []
        for dt in (1e-3, 5e-4):
            led = imex_run(a, None, ImexConfig(dt=dt, t_end=0.2, sample_every=10**9), op8)
            c = led.columns
            resid.append(abs(c["e2"][-1] + 2 * c["d2_int"][-1] - c["e2"][0]))
        assert resid[0] / max(resid[1], 1e-300) > 3.0

    def test_forced_budget_includes_work_term(self, grid8, op8):
        spec = ForcingSpec(eigenmode(grid8, (1, 0), 0, amplitude=0.05), rate=0.5)
        a = small_data(grid8, amplitude=0.05)
        led = imex_run(a, spec, ImexConfig(dt=2e-4, t_end=0.2, sample_every=10**9), op8)
        c = led.columns
        resid = abs(c["e2"][-1] + 2 * c["d2_int"][-1] - 2 * c["fwork_int"][-1] - c["e2"][0])
        assert resid < 1e-6 * c["e2"][0]

    def test_nan_abort_carries_partial_ledger(self, grid8, op8):
        a = 40.0 * constrain(random_spectral(grid8, np.random.default_rng(9)))
        cfg = ImexConfig(dt=0.05, t_end=10.0, sample_every=1, cfl_limit=1e9)
        with pytest.raises(NanAbort) as exc:
            imex_run(a, None, cfg, op8)
        led = exc.value.ledger
        assert isinstance(led, TrajectoryLedger)
        assert len(led.columns["t"]) >= 1
        assert all(np.isfinite(e) for e in led.columns["e2"])

    def test_cfl_precheck(self, grid8, op8):
        a = 40.0 * constrain(random_spectral(grid8, np.random.default_rng(9)))
        with pytest.raises(ConfigurationError):
            imex_run(a, None, ImexConfig(dt=1.0, t_end=2.0), op8)


def _forcing_case(kind, grid, op):
    """(initial data with Nyquist content, forcing) of a half-plane march case."""
    a = random_spectral(grid, np.random.default_rng(4), kmax=grid.nx // 2,
                        mmax=grid.nz, amplitude=0.05)
    if kind == "single-mode":
        return a, ForcingSpec(eigenmode(grid, (1, -1), 1, amplitude=0.5), rate=0.5)
    if kind == "manufactured":
        psi = random_spectral(grid, np.random.default_rng(5), kmax=grid.nx // 2,
                              mmax=grid.nz, amplitude=0.02)
        mms = make_manufactured(op, psi)
        return mms.solution(0.0), mms
    return a, None


def _assert_same_march(led, ref, rtol):
    assert len(led.states) == len(ref.states)
    for state, want in zip(led.states, ref.states):
        assert np.max(np.abs(state.coeffs - want.coeffs)) <= rtol * np.max(np.abs(want.coeffs))
    for name, col in ref.columns.items():
        assert led.columns[name] == pytest.approx(col, rel=1e-13, abs=1e-300), name


class TestHalfPlaneMarch:
    """imex_run carries one Hermitian half of the eigen-coordinates; the
    march on the full plane, with its forcing transformed at every step, is
    the oracle."""

    @pytest.mark.parametrize("kind", ["unforced", "single-mode", "manufactured"])
    @pytest.mark.parametrize(
        "grid", [Grid(n, n, n // 2, dealias_fraction=f) for n in (8, 16) for f in (2 / 3, 1.0)],
        ids=["8x8x4-f2/3", "8x8x4-f1", "16x16x8-f2/3", "16x16x8-f1"])
    def test_matches_full_plane_march(self, grid, kind):
        op = StokesOperator(grid)
        a, forcing = _forcing_case(kind, grid, op)
        cfg = ImexConfig(dt=1e-3, t_end=8e-3, sample_every=3)
        led = imex_run(a, forcing, cfg, op)
        _assert_same_march(led, reference_march(a, forcing, cfg, op, full_plane=True), 1e-14)

    @pytest.mark.parametrize("f", [2 / 3, 1.0], ids=["f2/3", "f1"])
    def test_marched_states_stay_hermitian(self, f):
        # kmax = 4 fills the Nyquist lines of 8^2x4, which the velocity space drops
        g = Grid(8, 8, 4, dealias_fraction=f)
        op = StokesOperator(g)
        a = random_spectral(g, np.random.default_rng(0), kmax=4)
        led = imex_run(a, None, ImexConfig(dt=1e-3, t_end=2e-2, sample_every=5), op)
        pled, _ = picard_solve(a, None, PicardConfig(horizon=2e-2, nodes=9), op)
        for v in [*led.states, *pled.states]:
            gap = np.max(np.abs(hermitize(v).coeffs - v.coeffs))
            assert gap <= 1e-15 * np.max(np.abs(v.coeffs))

    @pytest.mark.parametrize("kind", ["single-mode", "manufactured"])
    def test_forcing_is_transformed_once(self, grid8, op8, kind, monkeypatch):
        a, forcing = _forcing_case(kind, grid8, op8)
        cfg = ImexConfig(dt=1e-3, t_end=1e-2, sample_every=5)
        ref = reference_march(a, forcing, cfg, op8, full_plane=False)
        calls = []
        to_eigen = StokesOperator.to_eigen

        def counted(self, f):
            calls.append(f)
            return to_eigen(self, f)

        monkeypatch.setattr(StokesOperator, "to_eigen", counted)
        led = imex_run(a, forcing, cfg, op8)
        # the initial state, F at each of the 10 steps, and each fixed part once
        assert len(calls) == 1 + 10 + (1 if kind == "single-mode" else 3)
        _assert_same_march(led, ref, 1e-14)

    @pytest.mark.parametrize("kind", ["single-mode", "manufactured"])
    def test_picard_forcing_is_transformed_once(self, grid8, op8, kind, monkeypatch):
        a, forcing = _forcing_case(kind, grid8, op8)
        cfg = PicardConfig(horizon=1e-2, nodes=9)
        coords, seen = evolution._forcing_coords, []

        def recorded(op, spec):
            f_at = coords(op, spec)
            return lambda t: seen.append((t, f_at(t))) or seen[-1][1]

        calls, f_calls = [], []
        to_eigen, nonlinear = StokesOperator.to_eigen, evolution.F
        monkeypatch.setattr(evolution, "_forcing_coords", recorded)
        monkeypatch.setattr(StokesOperator, "to_eigen",
                            lambda op, f: calls.append(f) or to_eigen(op, f))
        monkeypatch.setattr(evolution, "F", lambda v: f_calls.append(v) or nonlinear(v))
        picard_solve(a, forcing, cfg, op8)
        monkeypatch.undo()
        # the initial state, each F, and each fixed part once: no transform per node
        assert len(calls) == 1 + len(f_calls) + (1 if kind == "single-mode" else 3)
        assert {t for t, _ in seen} == set(np.linspace(0.0, cfg.horizon, cfg.nodes))
        for t, y in seen:
            want = op8.to_eigen_flat(forcing_eval(forcing, t))
            assert np.max(np.abs(y - want)) <= 1e-14 * np.max(np.abs(want))


class TestCoordinateLedger:
    """Ledgers keep each sample's flat eigen-coordinates and form its field
    only when states is read."""

    @pytest.fixture(scope="class")
    def ledgers(self, grid8, op8):
        a = random_spectral(grid8, np.random.default_rng(6), kmax=4, amplitude=0.05)
        led = imex_run(a, None, ImexConfig(dt=1e-3, t_end=1e-2, sample_every=5), op8)
        pled, _ = picard_solve(a, None, PicardConfig(horizon=1e-2, nodes=9), op8)
        return a, led, pled

    def test_states_are_formed_from_coords(self, op8, ledgers):
        for led in ledgers[1:]:
            assert isinstance(led.states, Sequence)
            assert len(led.states) == len(led.coords) == len(led.columns["t"])
            for i in (*range(len(led.coords)), -1):
                want = op8.from_eigen_flat(led.coords[i])
                assert np.array_equal(led.states[i].coeffs, want.coeffs)
            assert [s.coeffs.tobytes() for s in led.states] == [
                op8.from_eigen_flat(y).coeffs.tobytes() for y in led.coords]
            with pytest.raises(AttributeError):
                led.states = []
            assert not hasattr(led.states, "append")

    @pytest.mark.parametrize("cut", [slice(1, None), slice(None, None, -1), slice(1, 2)])
    def test_states_can_be_sliced(self, op8, ledgers, cut):
        for led in ledgers[1:]:
            got = led.states[cut]
            assert isinstance(got, list)
            assert [s.coeffs.tobytes() for s in got] == [
                op8.from_eigen_flat(y).coeffs.tobytes() for y in led.coords[cut]]

    def test_first_sample_is_the_marched_state(self, op8, ledgers):
        # both integrators start from the coordinates of a's Hermitian part:
        # to_eigen reads its constrained part alone
        a, led, pled = ledgers
        want = op8.to_eigen_flat(hermitize(a))
        assert np.array_equal(led.coords[0], want)
        assert np.array_equal(pled.coords[0], want)


class TestPicardVsImex:
    def test_agreement_on_small_data(self, grid8, op8):
        a = small_data(grid8)
        horizon = 0.25
        pled, rep = picard_solve(a, None, PicardConfig(horizon=horizon, nodes=33), op8)
        assert rep.converged
        iled = imex_run(a, None, ImexConfig(dt=5e-4, t_end=horizon, sample_every=10**9), op8)
        gap = l2_norm(pled.states[-1] - iled.states[-1])
        assert gap < 1e-6 * l2_norm(iled.states[-1])


class TestManufactured:
    def test_imex_reproduces_manufactured_solution(self, grid8, op8, rng):
        psi = constrain(random_spectral(grid8, rng, kmax=2, mmax=2, amplitude=1e-2))
        mms = make_manufactured(op8, psi)
        t_end = 0.25
        errs = []
        for dt in (2e-3, 1e-3):
            led = imex_run(mms.solution(0.0), mms, ImexConfig(dt=dt, t_end=t_end, sample_every=10**9), op8)
            exact = mms.solution(t_end)
            errs.append(l2_norm(led.states[-1] - exact) / l2_norm(exact))
        assert 3.0 < errs[0] / errs[1] < 5.0
