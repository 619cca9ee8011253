"""Acceptance suite: one check per shipped guarantee, one PASS/FAIL line each.

The long zero-forcing trajectory (criteria 8 and 9) is computed once and
shared; everything else runs on small grids.  Verdict lines go through the
pytest terminal writer so they appear in the log despite output capture.
"""

import numpy as np
import pytest

from hydropde.cli import main as cli_main
from hydropde.diagnostics import build_records, decay_fit, energy_budget, gronwall_monitor
from hydropde.evolution import (
    ImexConfig,
    PicardConfig,
    forcing_eval,
    imex_run,
    make_manufactured,
    picard_solve,
)
from hydropde.fields import (
    l2_inner,
    l2_norm,
    random_spectral,
    to_physical,
)
from hydropde.grid import Grid
from hydropde.io import load_checkpoint, read_ledger_csv, save_checkpoint
from hydropde.nonlinear import F, bilinear_estimate_probe
from hydropde.projection import (
    SurfacePressure,
    constrain,
    divergence_of_average,
    project,
)
from hydropde.stokes import StokesOperator, eigenmode


@pytest.fixture(autouse=True)
def _reporter(request):
    global _write_line
    rep = request.config.pluginmanager.get_plugin("terminalreporter")
    _write_line = rep.write_line if rep is not None else print
    yield


def _check(num, name, cond, detail=""):
    verdict = "PASS" if cond else "FAIL"
    line = f"[criterion {num:02d}] {name}: {verdict}"
    if detail:
        line += f" ({detail})"
    _write_line(line)
    assert cond, line


@pytest.fixture(scope="module")
def grid():
    return Grid(16, 16, 8)


@pytest.fixture(scope="module")
def op(grid):
    return StokesOperator(grid)


def slow_mixture(grid, amplitude=1e-3):
    return (
        eigenmode(grid, (0, 0), 0, amplitude=amplitude)
        + eigenmode(grid, (1, 0), 0, amplitude=0.1 * amplitude)
    )


@pytest.fixture(scope="module")
def long_run(grid, op):
    a = slow_mixture(grid)
    cfg = ImexConfig(dt=2e-4, t_end=5.0, sample_every=200)
    return imex_run(a, None, cfg, op)


def test_criterion_01_projection_identities(grid):
    rng = np.random.default_rng(101)
    worst_idem = worst_div = 0.0
    for _ in range(200):
        v = random_spectral(grid, 2, rng)
        scale = max(l2_norm(v), 1e-300)
        pv = constrain(v)
        ppv = constrain(pv)
        worst_idem = max(worst_idem, np.max(np.abs(ppv.coeffs - pv.coeffs)) / scale)
        div = divergence_of_average(pv)
        worst_div = max(worst_div, np.max(np.abs(div.coeffs)) / scale)
    # pure pressure gradients are annihilated by the composite projection
    worst_grad = 0.0
    for _ in range(20):
        c = rng.standard_normal((grid.nx, grid.ny)) + 1j * rng.standard_normal((grid.nx, grid.ny))
        mean = SurfacePressure(grid, c).gradient()
        from hydropde.fields import zeros_spectral

        _, mean_out, _ = project(zeros_spectral(grid), mean)
        worst_grad = max(
            worst_grad,
            np.max(np.abs(mean_out.coeffs)) / max(np.max(np.abs(mean.coeffs)), 1e-300),
        )
    _check(1, "projection idempotent, divergence-free, kills gradients",
           worst_idem <= 1e-12 and worst_div <= 1e-12 and worst_grad <= 1e-12,
           f"idem {worst_idem:.2e}, div {worst_div:.2e}, grad {worst_grad:.2e}")


def test_criterion_02_spectral_gap(op):
    beta_err = abs(op.beta - np.pi**2 / 4)
    target = 4 * np.pi**2 + np.pi**2 / 4
    evs = op.spectrum()
    first = min(
        float(np.min(np.abs(np.asarray(e) - target)))
        for k, e in evs.entries if k == (1, 0)
    )
    _check(2, "spectral gap pi^2/4 and first nonzero-mode eigenvalue 41.94580...",
           beta_err <= 1e-10 and first <= 1e-10,
           f"beta err {beta_err:.2e}, 41.9458 err {first:.2e}")


def test_criterion_03_sectorial_resolvent_bound(op):
    eps = np.pi / 8
    radii = np.logspace(-3, 6, 19)
    args = [0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi - eps]
    lambdas = [r * np.exp(1j * th) for r in radii for th in args]
    rep = op.sector_sweep(eps, lambdas=lambdas)
    bound = 1.0 / np.sin(eps) + 1e-9
    _check(3, "resolvent bound |lambda| ||R(lambda)|| <= 1/sin(pi/8) on the sector",
           rep.sup_m <= bound, f"sup {rep.sup_m:.6f} vs {bound:.6f}")


def test_criterion_04_semigroup_decay_and_law(grid, op):
    rng = np.random.default_rng(104)
    beta = op.beta
    worst_decay = -np.inf
    for _ in range(50):
        f = constrain(random_spectral(grid, 2, rng))
        base = l2_norm(f)
        for t in (0.01, 0.1, 1.0, 5.0):
            slack = l2_norm(op.semigroup_apply(t, f)) - np.exp(-beta * t) * base
            worst_decay = max(worst_decay, slack / base)
    f = constrain(random_spectral(grid, 2, rng))
    law = l2_norm(
        op.semigroup_apply(0.3, op.semigroup_apply(0.2, f)) - op.semigroup_apply(0.5, f)
    ) / l2_norm(f)
    _check(4, "semigroup decay e^{-beta t} and composition law",
           worst_decay <= 1e-11 and law <= 1e-11,
           f"decay slack {worst_decay:.2e}, law {law:.2e}")


def test_criterion_05_smoothing_estimate():
    ts = np.logspace(-3, 0.5, 25)
    sups = []
    for n in (16, 32, 64):
        g = Grid(n, n, 8)
        o = StokesOperator(g)
        rng = np.random.default_rng(105)
        worst = 0.0
        for _ in range(5):
            f = constrain(random_spectral(g, 2, rng, kmax=3, mmax=3))
            rep = o.smoothing_probe(0.5, 0.0, ts, f)
            worst = max(worst, rep.sup_g)
        sups.append(worst)
    finite = all(np.isfinite(s) for s in sups)
    stable = max(sups) <= 2.0 * min(sups)
    _check(5, "t^{1/2} e^{beta t} L^2 -> H^1 smoothing constant finite and stable",
           finite and stable, f"sups {', '.join(f'{s:.4f}' for s in sups)}")


def test_criterion_06_nonlinearity_structure(grid):
    rng = np.random.default_rng(106)
    worst_neutral = 0.0
    for _ in range(100):
        v = constrain(random_spectral(grid, 2, rng))
        worst_neutral = max(worst_neutral,
                            abs(l2_inner(F(v), v)) / max(l2_norm(v) ** 3, 1e-300))
    v = constrain(random_spectral(grid, 2, rng))
    worst_scale = 0.0
    for c in (2.0, -3.0, 0.25):
        diff = F(c * v).coeffs - c**2 * F(v).coeffs
        worst_scale = max(worst_scale,
                          np.max(np.abs(diff)) / max(np.max(np.abs(F(v).coeffs)) * c**2, 1e-300))
    ms = [
        bilinear_estimate_probe(Grid(n, n, nz), samples=8, seed=106).m_hat
        for n, nz in ((16, 8), (32, 16), (64, 32))
    ]
    stable = max(ms) <= 2.0 * min(ms)
    _check(6, "nonlinearity energy-neutral, quadratic, with stable bilinear constant",
           worst_neutral <= 1e-9 and worst_scale <= 1e-11 and stable,
           f"neutral {worst_neutral:.2e}, scaling {worst_scale:.2e}, "
           f"M {', '.join(f'{m:.4f}' for m in ms)}")


def test_criterion_07_picard_small_data(grid, op):
    a = slow_mixture(grid)
    horizon = 0.5
    ledger, report = picard_solve(a, None, PicardConfig(horizon=horizon, nodes=33), op)
    k = report.k_history
    c1 = 1e4
    dominated = all(k[m + 1] <= k[0] + c1 * k[m] ** 2 + 1e-15 for m in range(len(k) - 1))
    iled = imex_run(a, None, ImexConfig(dt=5e-4, t_end=horizon, sample_every=10**9), op)
    gap = l2_norm(ledger.states[-1] - iled.states[-1]) / l2_norm(iled.states[-1])
    _check(7, "Picard converges in <= 6 iterations and matches the time stepper",
           report.converged and report.iterations <= 6 and dominated and gap <= 1e-6,
           f"iterations {report.iterations}, gap {gap:.2e}")


def test_criterion_08_energy_budget(long_run):
    rep = energy_budget(long_run.columns)
    _check(8, "energy identity closes to 1e-6 E2(0) with strictly decreasing E2",
           rep.max_relative_residual <= 1e-6 and rep.monotone,
           f"relative residual {rep.max_relative_residual:.2e}")


def test_criterion_09_decay_and_gronwall(long_run, op):
    fit = decay_fit(long_run.columns, "e2")
    target = 0.9 * 2 * op.beta
    gron = gronwall_monitor(build_records(long_run))
    _check(9, "fitted decay rate >= 0.9 * 2 beta and Gronwall bound dominates",
           fit.rate >= target and gron.dominated,
           f"rate {fit.rate:.4f} vs {target:.4f}, dominated {gron.dominated}")


def test_criterion_10_manufactured_convergence():
    g = Grid(8, 8, 4)
    o = StokesOperator(g)
    rng = np.random.default_rng(110)
    psi = constrain(random_spectral(g, 2, rng, kmax=2, mmax=2, amplitude=1e-2))
    mms = make_manufactured(o, psi)
    t_end = 0.25
    errors = []
    for dt in (2e-3, 1e-3, 5e-4):
        led = imex_run(mms.solution(0.0), mms, ImexConfig(dt=dt, t_end=t_end, sample_every=10**9), o)
        exact = mms.solution(t_end)
        errors.append(l2_norm(led.states[-1] - exact) / l2_norm(exact))
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    # spatial residual: the semi-discrete equation holds identically in space
    spatial = 0.0
    for t in (0.0, 0.1, 0.2):
        gt, gpt = mms.envelope(t)
        v = mms.solution(t)
        resid = gpt * psi + o.apply(v) - F(v) - forcing_eval(mms, t)
        spatial = max(spatial, l2_norm(resid) / max(l2_norm(v), 1e-300))
    ok_orders = all(1.8 <= p <= 2.2 for p in orders)
    _check(10, "manufactured solution: temporal order 2, no spatial error",
           ok_orders and spatial <= 1e-8,
           f"orders {', '.join(f'{p:.3f}' for p in orders)}, spatial {spatial:.2e}")


def test_criterion_11_reproducibility_and_failure_modes(grid, tmp_path):
    # byte-identical ledgers from identical configured runs
    base = (
        "nx = 8\nny = 8\nnz = 4\ndt = 1e-3\nt_end = 0.02\nsample_every = 5\n"
        "ic = random-band\namplitude = 1e-2\nseed = 7\n"
    )
    leds = []
    for tag in ("a", "b"):
        led = tmp_path / f"{tag}.csv"
        cfg = tmp_path / f"{tag}.cfg"
        cfg.write_text(base + f"out_ledger = {led}\nout_report = {tmp_path / tag}.json\n")
        assert cli_main(["run", "--config", str(cfg)]) == 0
        leds.append(led.read_bytes())
    deterministic = leds[0] == leds[1]

    # bit-exact checkpoint round trip
    rng = np.random.default_rng(111)
    v = constrain(random_spectral(grid, 2, rng))
    p = tmp_path / "state.ckpt"
    save_checkpoint(p, v)
    round_trip = np.array_equal(load_checkpoint(p).coeffs, v.coeffs)
    save_checkpoint(tmp_path / "state2.ckpt", load_checkpoint(p))
    bit_exact = p.read_bytes() == (tmp_path / "state2.ckpt").read_bytes()

    # blow-up aborts with exit code 2 and a finite partial ledger
    blow_cfg = tmp_path / "blow.cfg"
    blow_led = tmp_path / "blow.csv"
    blow_cfg.write_text(
        "nx = 8\nny = 8\nnz = 4\ndt = 0.05\nt_end = 10.0\nsample_every = 1\n"
        "cfl_limit = 1e9\nic = random-band\namplitude = 40.0\nseed = 9\n"
        f"out_ledger = {blow_led}\nout_report = {tmp_path / 'blow.json'}\n"
    )
    nan_exit = cli_main(["run", "--config", str(blow_cfg)])
    nan_ok = nan_exit == 2 and all(np.isfinite(x) for x in read_ledger_csv(blow_led)["e2"])

    # Picard non-convergence exits 3
    pic_cfg = tmp_path / "pic.cfg"
    pic_cfg.write_text(
        "nx = 8\nny = 8\nnz = 4\nt_end = 0.5\npicard_max_iterations = 2\n"
        "picard_tolerance = 1e-300\nic = random-band\namplitude = 5.0\nseed = 4\n"
        f"out_ledger = {tmp_path / 'pic.csv'}\nout_report = {tmp_path / 'pic.json'}\n"
    )
    pic_exit = cli_main(["picard", "--config", str(pic_cfg)])

    _check(11, "deterministic ledgers, bit-exact checkpoints, abort exit codes",
           deterministic and round_trip and bit_exact and nan_ok and pic_exit == 3,
           f"nan exit {nan_exit}, picard exit {pic_exit}")
