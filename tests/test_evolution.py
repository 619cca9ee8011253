"""Picard iteration and IMEX marching."""

import numpy as np
import pytest

from hydropde.errors import ConfigurationError, NanAbort
from hydropde.evolution import (
    ForcingSpec,
    ImexConfig,
    PicardConfig,
    TrajectoryLedger,
    forcing_eval,
    imex_run,
    imex_step,
    make_manufactured,
    picard_solve,
)
from hydropde.fields import l2_norm, random_spectral, zeros_spectral
from hydropde.grid import Grid
from hydropde.nonlinear import F
from hydropde.projection import constrain, divergence_of_average
from hydropde.stokes import eigenmode, eigenmode_eigenvalue


@pytest.fixture(scope="module")
def grid8():
    return Grid(8, 8, 4)


@pytest.fixture(scope="module")
def op8(grid8):
    from hydropde.stokes import StokesOperator

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

    def test_sample_every_below_one_rejected(self, grid8, op8):
        a = eigenmode(grid8, (1, 0), 0, amplitude=1e-3)
        with pytest.raises(ConfigurationError, match="sample_every"):
            imex_run(a, None, ImexConfig(dt=1e-3, t_end=0.01, sample_every=0), op8)

    @pytest.mark.parametrize("dt, t_end", [(0.3, 1.0), (0.5, 0.1)])
    def test_step_must_divide_end_time(self, dt, t_end):
        with pytest.raises(ConfigurationError, match="does not divide"):
            ImexConfig(dt=dt, t_end=t_end)

    def test_ledger_requires_increasing_times(self, grid8):
        led = TrajectoryLedger(grid8)
        led.append(0.0, None, 1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ConfigurationError):
            led.append(0.0, None, 1.0, 1.0, 0.0, 0.0)


class TestForcing:
    def test_zero(self, grid8):
        f = forcing_eval(ForcingSpec(grid8, "zero"), 0.3)
        assert np.max(np.abs(f.coeffs)) == 0.0

    def test_single_mode_decay(self, grid8):
        spec = ForcingSpec(grid8, "single-mode", amplitude=2.0, mode=(1, 0, 0), rate=0.7)
        f0 = forcing_eval(spec, 0.0)
        f1 = forcing_eval(spec, 1.0)
        assert np.max(np.abs(f1.coeffs - np.exp(-0.7) * f0.coeffs)) < 1e-14
        div = divergence_of_average(f0)
        assert np.max(np.abs(div.coeffs)) < 1e-12

    def test_unknown_kind(self, grid8):
        with pytest.raises(ConfigurationError):
            forcing_eval(ForcingSpec(grid8, "sinusoid"), 0.0)
        with pytest.raises(ConfigurationError):
            forcing_eval(ForcingSpec(grid8, "mms"), 0.0)

    def test_mms_forcing_matches_finite_differences(self, grid8, op8, rng):
        # f(t) must equal d/dt v_exact + A v_exact - F(v_exact) for the
        # manufactured trajectory, with the time derivative checked by
        # central differences
        psi = constrain(random_spectral(grid8, 2, rng, kmax=2, mmax=2, amplitude=1e-2))
        mms = make_manufactured(op8, psi)
        t, delta = 0.37, 1e-5
        vp = mms.solution(t + delta)
        vm = mms.solution(t - delta)
        dvdt = (1.0 / (2 * delta)) * (vp - vm)
        v = mms.solution(t)
        lhs = mms.forcing(t)
        rhs = dvdt + op8.apply(v) - F(v)
        scale = max(np.max(np.abs(lhs.coeffs)), 1e-30)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-6 * scale


class TestPicard:
    def test_zero_data_one_iteration(self, grid8, op8):
        cfg = PicardConfig(horizon=0.5, nodes=9)
        ledger, report = picard_solve(zeros_spectral(grid8), None, cfg, op8)
        assert report.converged and not report.diverged
        assert report.iterations == 1
        assert max(ledger.e2) == 0.0

    def test_linear_problem_matches_semigroup(self, grid8, op8, rng):
        a = constrain(random_spectral(grid8, 2, rng))
        cfg = PicardConfig(horizon=0.4, nodes=17, nonlinear=False)
        ledger, report = picard_solve(a, None, cfg, op8)
        assert report.converged
        for t, state in zip(ledger.times, ledger.states):
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

    def test_iterates_stay_constrained(self, grid8, op8):
        a = small_data(grid8)
        ledger, _ = picard_solve(a, None, PicardConfig(horizon=0.3, nodes=9), op8)
        for state in ledger.states:
            div = divergence_of_average(state)
            assert np.max(np.abs(div.coeffs)) < 1e-12

    def test_non_convergence_reported_not_raised(self, grid8, op8):
        # huge data on a short budget: the iteration must report failure
        a = 200.0 * constrain(random_spectral(grid8, 2, np.random.default_rng(5)))
        cfg = PicardConfig(horizon=0.5, nodes=9, max_iterations=3, tolerance=1e-15)
        ledger, report = picard_solve(a, None, cfg, op8)
        assert not report.converged
        assert len(ledger.times) == 9


class TestImex:
    def test_linear_exact_mode_order_two(self, grid8, op8):
        # errors on a pure eigenmode must shrink by about 4x per halving
        a = eigenmode(grid8, (1, 0), 0, amplitude=1.0)
        mu = eigenmode_eigenvalue(grid8, (1, 0), 0)
        t_end = 0.1
        errs = []
        for dt in (2e-3, 1e-3, 5e-4):
            led = imex_run(a, None, ImexConfig(dt=dt, t_end=t_end, nonlinear=False), op8)
            exact = np.exp(-mu * t_end)
            errs.append(abs(np.sqrt(led.e2[-1]) / np.sqrt(led.e2[0]) - exact))
        r1 = errs[0] / errs[1]
        r2 = errs[1] / errs[2]
        assert 3.3 < r1 < 4.7 and 3.3 < r2 < 4.7

    def test_order_one_scheme(self, grid8, op8):
        a = eigenmode(grid8, (1, 0), 0)
        mu = eigenmode_eigenvalue(grid8, (1, 0), 0)
        t_end = 0.1
        errs = []
        for dt in (2e-3, 1e-3):
            led = imex_run(a, None, ImexConfig(dt=dt, t_end=t_end, order=1, nonlinear=False), op8)
            errs.append(abs(np.sqrt(led.e2[-1]) / np.sqrt(led.e2[0]) - np.exp(-mu * t_end)))
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
        a = constrain(random_spectral(grid8, 2, rng, amplitude=1e-2))
        led = imex_run(a, None, ImexConfig(dt=1e-3, t_end=0.05, sample_every=10), op8)
        for state in led.states:
            div = divergence_of_average(state)
            assert np.max(np.abs(div.coeffs)) < 1e-12

    def test_step_function_matches_run(self, grid8, op8):
        a = small_data(grid8, amplitude=0.1)
        cfg = ImexConfig(dt=1e-3, t_end=5e-3, sample_every=1)
        led = imex_run(a, None, cfg, op8)
        v = op8.constrain(a)
        f_prev = None
        for n in range(5):
            v, f_prev = imex_step(v, f_prev, n * cfg.dt, cfg, op8, None, n == 0)
        assert l2_norm(v - led.states[-1]) < 1e-12 * l2_norm(v)

    def test_energy_dissipates_without_forcing(self, grid8, op8, rng):
        a = constrain(random_spectral(grid8, 2, rng, amplitude=1e-2))
        led = imex_run(a, None, ImexConfig(dt=1e-3, t_end=0.2, sample_every=20), op8)
        assert all(b < a_ for a_, b in zip(led.e2, led.e2[1:]))

    def test_energy_budget_closes_at_scheme_order(self, grid8, op8):
        a = small_data(grid8, amplitude=0.1)
        resid = []
        for dt in (1e-3, 5e-4):
            led = imex_run(a, None, ImexConfig(dt=dt, t_end=0.2, sample_every=10**9), op8)
            resid.append(abs(led.e2[-1] + 2 * led.d2_int[-1] - led.e2[0]))
        assert resid[0] / max(resid[1], 1e-300) > 3.0

    def test_forced_budget_includes_work_term(self, grid8, op8):
        spec = ForcingSpec(grid8, "single-mode", amplitude=0.05, mode=(1, 0, 0), rate=0.5)
        a = small_data(grid8, amplitude=0.05)
        led = imex_run(a, spec, ImexConfig(dt=2e-4, t_end=0.2, sample_every=10**9), op8)
        resid = abs(led.e2[-1] + 2 * led.d2_int[-1] - 2 * led.fwork_int[-1] - led.e2[0])
        assert resid < 1e-6 * led.e2[0]

    def test_nan_abort_carries_partial_ledger(self, grid8, op8):
        a = 40.0 * constrain(random_spectral(grid8, 2, np.random.default_rng(9)))
        cfg = ImexConfig(dt=0.05, t_end=10.0, sample_every=1, cfl_limit=1e9)
        with pytest.raises(NanAbort) as exc:
            imex_run(a, None, cfg, op8)
        led = exc.value.ledger
        assert isinstance(led, TrajectoryLedger)
        assert len(led.times) >= 1
        assert all(np.isfinite(e) for e in led.e2)

    def test_cfl_precheck(self, grid8, op8):
        a = 40.0 * constrain(random_spectral(grid8, 2, np.random.default_rng(9)))
        with pytest.raises(ConfigurationError):
            imex_run(a, None, ImexConfig(dt=1.0, t_end=2.0), op8)


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
        psi = constrain(random_spectral(grid8, 2, rng, kmax=2, mmax=2, amplitude=1e-2))
        mms = make_manufactured(op8, psi)
        spec = ForcingSpec(grid8, "mms", mms=mms)
        t_end = 0.25
        errs = []
        for dt in (2e-3, 1e-3):
            led = imex_run(mms.initial(), spec, ImexConfig(dt=dt, t_end=t_end, sample_every=10**9), op8)
            exact = mms.solution(t_end)
            errs.append(l2_norm(led.states[-1] - exact) / l2_norm(exact))
        assert 3.0 < errs[0] / errs[1] < 5.0
