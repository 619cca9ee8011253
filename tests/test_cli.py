"""End-to-end command line checks, run in process via main(argv)."""

import json

import numpy as np
import pytest

from hydropde import cli
from hydropde.cli import main
from hydropde.config import manufactured_profile, parse_config
from hydropde.evolution import make_manufactured
from hydropde.fields import l2_norm
from hydropde.io import LEDGER_COLUMNS, LEDGER_VERSION_LINE, load_checkpoint, read_ledger_csv
from hydropde.stokes import StokesOperator

SMALL_GRID = "nx = 8\nny = 8\nnz = 4\n"


def write_config(tmp_path, body, name="run.cfg"):
    p = tmp_path / name
    p.write_text(body)
    return str(p)


class TestRun:
    def test_decay_run_success(self, tmp_path, capsys):
        ledger = tmp_path / "run.csv"
        report = tmp_path / "report.json"
        ckpt = tmp_path / "final.ckpt"
        cfg = write_config(
            tmp_path,
            SMALL_GRID
            + "dt = 1e-3\nt_end = 0.05\nsample_every = 10\n"
            + "ic = eigenmode\namplitude = 1e-3\n"
            + f"out_ledger = {ledger}\nout_report = {report}\nout_checkpoint = {ckpt}\n",
        )
        assert main(["run", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "completed" in out
        cols = read_ledger_csv(ledger)
        assert cols["t"][-1] == pytest.approx(0.05)
        data = json.loads(report.read_text())
        assert data["status"] == "completed"
        assert data["e2_monotone"] is True
        final = load_checkpoint(ckpt)
        assert final.grid.nx == 8

    def test_run_determinism(self, tmp_path):
        led1, led2 = tmp_path / "a.csv", tmp_path / "b.csv"
        base = (
            SMALL_GRID
            + "dt = 1e-3\nt_end = 0.02\nsample_every = 5\n"
            + "ic = random-band\namplitude = 1e-2\nseed = 3\n"
        )
        cfg1 = write_config(
            tmp_path, base + f"out_ledger = {led1}\nout_report = {tmp_path/'r1.json'}\n", "a.cfg")
        cfg2 = write_config(
            tmp_path, base + f"out_ledger = {led2}\nout_report = {tmp_path/'r2.json'}\n", "b.cfg")
        assert main(["run", "--config", cfg1]) == 0
        assert main(["run", "--config", cfg2]) == 0
        assert led1.read_bytes() == led2.read_bytes()

    def test_missing_config_exits_one(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_config_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "dt = -5\n")
        assert main(["run", "--config", cfg]) == 1
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_sample_every_exits_one(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, SMALL_GRID + f"sample_every = {value}\n")
        assert main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "line 4" in err and "sample_every" in err

    @pytest.mark.parametrize("dt, t_end", [("0.3", "1"), ("0.5", "0.1")])
    def test_step_not_dividing_end_time_exits_one(self, tmp_path, capsys, dt, t_end):
        ledger = tmp_path / "run.csv"
        cfg = write_config(
            tmp_path,
            SMALL_GRID + f"dt = {dt}\nt_end = {t_end}\n"
            + f"out_ledger = {ledger}\nout_report = {tmp_path/'r.json'}\n",
        )
        assert main(["run", "--config", cfg]) == 1
        assert "does not divide" in capsys.readouterr().err
        assert not ledger.exists()

    def test_picard_scheme_exits_one(self, tmp_path, capsys):
        ledger = tmp_path / "run.csv"
        cfg = write_config(
            tmp_path,
            SMALL_GRID + "t_end = 0.01\nscheme = picard\n"
            + f"out_ledger = {ledger}\nout_report = {tmp_path/'r.json'}\n",
        )
        assert main(["run", "--config", cfg]) == 1
        assert "pe picard" in capsys.readouterr().err
        assert not ledger.exists()

    def test_blow_up_exits_two_with_partial_ledger(self, tmp_path, capsys):
        ledger = tmp_path / "partial.csv"
        cfg = write_config(
            tmp_path,
            SMALL_GRID
            + "dt = 0.05\nt_end = 10.0\nsample_every = 1\ncfl_limit = 1e9\n"
            + "ic = random-band\namplitude = 40.0\nseed = 9\n"
            + f"out_ledger = {ledger}\nout_report = {tmp_path/'r.json'}\n",
        )
        assert main(["run", "--config", cfg]) == 2
        assert "aborted" in capsys.readouterr().err
        # the march aborts at step 7; the 7th sample's diagnostics overflow,
        # so the trim drops it and the first six samples remain
        cols = read_ledger_csv(ledger)
        assert len(cols["t"]) == 6
        assert all(np.isfinite(v) for v in cols["e2"])
        data = json.loads((tmp_path / "r.json").read_text())
        assert data["status"] == "nan-abort"
        assert data["samples"] == 6


class TestBadInput:
    # each exits 1 naming its key, with its line where the parser knows it
    @pytest.mark.parametrize("verb, body, key, line", [
        ("run", "ic = random-band\nseed = -1\n", "seed", "line 5"),
        ("run", "ic = manufactured\nseed = -2\n", "seed", "line 5"),
        ("run", "ic = shear\nic_kx = -4\n", "ic_kx", None),
        ("run", "ic = shear\nic_kx = 0\n", "ic_kx", None),
        ("picard", "t_end = 0.01\npicard_max_iterations = 0\n",
         "picard_max_iterations", "line 5"),
        ("run", "h = inf\n", "h", "line 4"),
        ("run", "h = 1e-300\n", "layer depth h", None),
        ("run", "ic = random-band\namplitude = inf\n", "amplitude", "line 5"),
        ("run", "forcing = single-mode\nforcing_amplitude = nan\n", "forcing_amplitude",
         "line 5"),
        ("run", "ic_m = 9\n", "ic_m", None),
        ("run", "ic_kx = 9\n", "ic_kx", None),
        ("run", "ic = shear\nic_m = 9\n", "ic_m", None),
        ("run", "forcing = single-mode\nforcing_m = 99\n", "forcing_m", None),
        ("run", "forcing = single-mode\nforcing_kx = 7\n", "forcing_kx", None),
        ("picard", "forcing = single-mode\nforcing_ky = -5\n", "forcing_ky", None),
        ("run", "ic_kx = -4\nic_ky = 1\n", "ic_kx", None),
        ("run", "forcing = single-mode\nforcing_ky = -4\n", "forcing_ky", None),
        ("run", "nx = 16\n", "nx", "line 4: nx is already set on line 1"),
    ], ids=["seed-random-band", "seed-manufactured", "shear-nyquist", "shear-zero",
            "picard-max-iterations", "h-inf", "h-overflow", "amplitude-inf",
            "forcing-amplitude-nan", "ic-m-off-grid", "ic-kx-off-grid", "shear-m-off-grid",
            "forcing-m-off-grid", "forcing-kx-off-grid", "forcing-ky-off-grid", "ic-kx-nyquist",
            "forcing-ky-nyquist", "repeated-key"])
    def test_exits_one_naming_the_key(self, tmp_path, capsys, verb, body, key, line):
        ledger = tmp_path / "run.csv"
        cfg = write_config(
            tmp_path,
            SMALL_GRID + body + f"out_ledger = {ledger}\nout_report = {tmp_path/'r.json'}\n",
        )
        assert main([verb, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        if line:
            assert line in err
        assert not ledger.exists()

    def test_infinite_cfl_limit_runs(self, tmp_path, capsys):
        # cfl_limit = inf is the documented way to switch the CFL check off
        report = tmp_path / "r.json"
        cfg = write_config(
            tmp_path,
            SMALL_GRID + "dt = 1e-3\nt_end = 0.01\ncfl_limit = inf\n"
            + f"out_ledger = {tmp_path/'run.csv'}\nout_report = {report}\n",
        )
        assert main(["run", "--config", cfg]) == 0
        assert json.loads(report.read_text())["status"] == "completed"


class TestPicard:
    def test_converged_exits_zero(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            SMALL_GRID
            + "t_end = 0.25\nscheme = picard\npicard_nodes = 17\n"
            + "ic = eigenmode\nic_kx = 0\namplitude = 1e-3\n"
            + f"out_ledger = {tmp_path/'p.csv'}\nout_report = {tmp_path/'p.json'}\n",
        )
        assert main(["picard", "--config", cfg]) == 0
        assert "converged" in capsys.readouterr().out
        data = json.loads((tmp_path / "p.json").read_text())
        assert data["status"] == "converged"
        assert data["picard_iterations"] <= 6

    def test_non_convergence_exits_three(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            SMALL_GRID
            + "t_end = 0.5\npicard_max_iterations = 2\npicard_tolerance = 1e-300\n"
            + "ic = random-band\namplitude = 5.0\nseed = 4\n"
            + f"out_ledger = {tmp_path/'p.csv'}\nout_report = {tmp_path/'p.json'}\n",
        )
        assert main(["picard", "--config", cfg]) == 3
        assert "did not converge" in capsys.readouterr().err

    def test_divergence_exits_three_saying_so(self, tmp_path, capsys):
        # k passes the ceiling 1e6 at the second iteration (1.3e8)
        report = tmp_path / "p.json"
        cfg = write_config(
            tmp_path,
            SMALL_GRID
            + "t_end = 0.05\npicard_nodes = 9\nic = random-band\namplitude = 200\n"
            + f"out_ledger = {tmp_path/'p.csv'}\nout_report = {report}\n",
        )
        assert main(["picard", "--config", cfg]) == 3
        data = json.loads(report.read_text())
        assert data["status"] == "diverged"
        assert data["picard_iterations"] == 2
        k = data["picard_k_history"][-1]
        assert k > 1e6
        err = capsys.readouterr().err
        assert "diverged" in err and f"k = {k:.6e}" in err and "ceiling 1e+06" in err

    def test_forced_energy_ledger_closes(self, tmp_path):
        # the forcing work <Pf, v> enters the budget: a forced run closes it
        # about as well as its unforced twin
        base = SMALL_GRID + "t_end = 0.05\nic = random-band\namplitude = 1e-3\n"
        residual = {}
        forced = "forcing = single-mode\nforcing_amplitude = 1\n"
        for tag, forcing in (("free", ""), ("forced", forced)):
            report = tmp_path / f"{tag}.json"
            outputs = f"out_ledger = {tmp_path/tag}.csv\nout_report = {report}\n"
            cfg = write_config(tmp_path, base + forcing + outputs, f"{tag}.cfg")
            assert main(["picard", "--config", cfg]) == 0
            residual[tag] = json.loads(report.read_text())["energy_residual_relative"]
        assert read_ledger_csv(tmp_path / "forced.csv")["fwork_int"][-1] > 0
        assert residual["forced"] <= 1.5 * residual["free"]


class TestEnergyResidual:
    @pytest.mark.parametrize("verb", ["run", "picard"])
    def test_forced_run_from_small_data_is_relative_to_largest_term(self, tmp_path, verb):
        # e2 grows 400x from the eigenmode's 1e-3 amplitude: the budget closes
        # to ~1e-3 of its largest term, although the residual is ~0.2-0.4 of e2(0)
        report = tmp_path / "r.json"
        cfg = write_config(
            tmp_path,
            SMALL_GRID
            + "t_end = 0.05\ndt = 1e-3\nforcing = single-mode\nforcing_amplitude = 1\n"
            + f"out_ledger = {tmp_path/'r.csv'}\nout_report = {report}\n",
        )
        assert main([verb, "--config", cfg]) == 0
        data = json.loads(report.read_text())
        cols = read_ledger_csv(tmp_path / "r.csv")
        assert data["energy_residual_max"] > 0.1 * cols["e2"][0]
        assert data["energy_residual_relative"] < 1e-2


class TestSpectrum:
    def test_prints_beta_and_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--nx", "8", "--ny", "8", "--nz", "4",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "beta" in printed
        beta = float(printed.split("=")[1])
        assert abs(beta - np.pi**2 / 4) < 1e-10
        lines = out.read_text().splitlines()
        assert lines[0] == "kx,ky,eigenvalue"
        # 2 nz eigenvalues at k = 0, 2 nz - 1 at each of the other 48
        # wavenumbers off the Nyquist lines kx = -4 and ky = -4
        assert len(lines) == 1 + 2 * 4 + 48 * (2 * 4 - 1)
        evs = [float(l.split(",")[2]) for l in lines[1:]]
        assert min(evs) == pytest.approx(np.pi**2 / 4)

    @pytest.mark.parametrize("h", ["inf", "1e-300"])
    def test_extreme_depth_exits_one(self, capsys, h):
        # at h = inf lam = 0 and the average factors are nan; at h = 1e-300
        # the vertical eigenproblem overflows
        assert main(["spectrum", "--nx", "8", "--ny", "8", "--nz", "4", "--h", h]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: layer depth h") and "Traceback" not in err


class TestResolventSweep:
    def test_sweep_report(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        eps = np.pi / 8
        assert main(["resolvent-sweep", "--nx", "8", "--ny", "8", "--nz", "4",
                     "--eps", repr(float(eps)), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "re_lambda,im_lambda,M_lambda"
        assert len(lines) == 1 + 19 * 7
        ms = [float(l.split(",")[2]) for l in lines[1:]]
        assert max(ms) <= 1.0 / np.sin(eps) + 1e-9

    def test_bad_eps_exits_one(self, tmp_path, capsys):
        assert main(["resolvent-sweep", "--nx", "8", "--ny", "8", "--nz", "4",
                     "--eps", "3.0", "--out", str(tmp_path / "x.csv")]) == 1


class TestDiagnose:
    def test_diagnose_from_csv_only(self, tmp_path, capsys):
        ledger = tmp_path / "run.csv"
        report = tmp_path / "report.json"
        cfg = write_config(
            tmp_path,
            SMALL_GRID
            + "dt = 5e-4\nt_end = 0.3\nsample_every = 20\n"
            + "ic = eigenmode\nic_kx = 0\namplitude = 1e-3\n"
            + f"out_ledger = {ledger}\nout_report = {tmp_path/'r0.json'}\n",
        )
        assert main(["run", "--config", cfg]) == 0
        assert main(["diagnose", "--ledger", str(ledger), "--out", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["energy_residual_max"] < 1e-6 * 1e-6  # scale of e2(0) = 5e-7
        assert np.isfinite(data["phi_max"])
        assert data["decay_rates"]["e2"] == pytest.approx(np.pi**2 / 2, rel=0.05)
        assert data["split_residual_max"] >= 0.0

    def test_diagnose_reproduces_run_summary(self, tmp_path):
        ledger = tmp_path / "run.csv"
        run_report = tmp_path / "run.json"
        report = tmp_path / "report.json"
        cfg = write_config(
            tmp_path,
            SMALL_GRID
            + "dt = 1e-3\nt_end = 0.05\nsample_every = 2\n"
            + "ic = random-band\namplitude = 1e-2\nseed = 5\n"
            + "forcing = single-mode\nforcing_amplitude = 1e-2\n"
            + f"out_ledger = {ledger}\nout_report = {run_report}\n",
        )
        assert main(["run", "--config", cfg]) == 0
        assert main(["diagnose", "--ledger", str(ledger), "--out", str(report)]) == 0
        ran = json.loads(run_report.read_text())
        data = json.loads(report.read_text())
        assert set(data) == {
            "samples", "t_end", "e2_final", "energy_residual_max",
            "energy_residual_relative", "e2_monotone", "phi_max",
            "gronwall_dominated", "split_residual_max", "decay_rates",
        }
        assert data["samples"] == 26
        assert data["decay_rates"]["e2"] is not None
        for key, value in data.items():
            assert ran[key] == value, key

    @pytest.mark.parametrize("case, line", [
        ("header-only", None), ("missing-column", "line 2"), ("non-numeric", "line 3"),
        ("short-row", "line 3"), ("nan-cell", "line 3"), ("dup-column", "line 2"),
    ])
    def test_bad_ledger_exits_one(self, tmp_path, capsys, case, line):
        names = list(LEDGER_COLUMNS)
        cells = ["0.5"] * len(names)
        if case == "missing-column":
            names.remove("d2_int")
            cells.pop()
        elif case == "non-numeric":
            cells[3] = "n/a"
        elif case == "nan-cell":
            cells[3] = "nan"
        elif case == "short-row":
            cells.pop()
        elif case == "dup-column":
            names.append("e2")
            cells.append("1e9")
        rows = [LEDGER_VERSION_LINE, ",".join(names)]
        if case != "header-only":
            rows.append(",".join(cells))
        ledger = tmp_path / "bad.csv"
        ledger.write_text("\n".join(rows) + "\n")
        assert main(["diagnose", "--ledger", str(ledger),
                     "--out", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert str(ledger) in err and "Traceback" not in err
        if line:
            assert line in err

    def test_missing_ledger_exits_one(self, tmp_path):
        assert main(["diagnose", "--ledger", str(tmp_path / "no.csv"),
                     "--out", str(tmp_path / "r.json")]) == 1


class TestMms:
    def test_observed_second_order(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_GRID + "amplitude = 1e-2\nseed = 1\n")
        out = tmp_path / "mms.json"
        assert main(["mms", "--config", cfg, "--dt", "2e-3", "--levels", "3",
                     "--t-end", "0.2", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["errors"]) == 3
        for order in data["observed_orders"]:
            assert 1.8 <= order <= 2.2

    def test_observed_first_order_for_imex1(self, tmp_path, capsys):
        # pe mms marches with the config's scheme, as pe run does
        cfg = write_config(tmp_path, SMALL_GRID + "ic = manufactured\namplitude = 1e-2\n"
                           "seed = 1\nforcing = mms\nscheme = imex1\n")
        out = tmp_path / "mms.json"
        assert main(["mms", "--config", cfg, "--dt", "2e-3", "--levels", "3",
                     "--t-end", "0.2", "--out", str(out)]) == 0
        for order in json.loads(out.read_text())["observed_orders"]:
            assert 0.9 <= order <= 1.1

    def test_picard_scheme_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_GRID + "scheme = picard\n")
        out = tmp_path / "mms.json"
        assert main(["mms", "--config", cfg, "--levels", "2", "--t-end", "0.05",
                     "--out", str(out)]) == 1
        assert "pe picard" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("levels", ["0", "-2"])
    def test_levels_below_one_exit_one(self, tmp_path, capsys, levels):
        assert main(["mms", "--levels", levels, "--out", str(tmp_path / "m.json")]) == 1
        assert "--levels" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_blow_up_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_GRID + "ic = manufactured\namplitude = 40\n")
        assert main(["mms", "--config", cfg, "--levels", "2", "--t-end", "0.05"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("aborted: non-finite state") and "Traceback" not in err

    def test_honours_cfl_limit(self, tmp_path, capsys):
        # a limit the default data passes only without the check
        cfg = write_config(tmp_path, SMALL_GRID + "ic = manufactured\ncfl_limit = 1e-6\n")
        assert main(["mms", "--config", cfg, "--levels", "2", "--t-end", "0.05"]) == 1
        assert "too large for data" in capsys.readouterr().err
        # cfl_limit = inf switches it off: this data then runs into its blow-up
        cfg = write_config(tmp_path, SMALL_GRID + "ic = manufactured\namplitude = 400\n"
                           "cfl_limit = inf\n")
        assert main(["mms", "--config", cfg, "--levels", "2", "--t-end", "0.05"]) == 2
        assert "too large" not in capsys.readouterr().err

    def test_infinite_step_exits_one(self, tmp_path, capsys):
        # with the CFL check switched off, dt = inf would march no step and
        # report the initial data's error as the scheme's
        cfg = write_config(tmp_path, SMALL_GRID + "ic = manufactured\nforcing = mms\n"
                           "cfl_limit = inf\n")
        assert main(["mms", "--config", cfg, "--dt", "inf"]) == 1
        captured = capsys.readouterr()
        assert "step size must be finite" in captured.err and captured.out == ""

    def test_infinite_end_time_exits_one(self, tmp_path, capsys):
        out = tmp_path / "mms.json"
        assert main(["mms", "--t-end", "inf", "--levels", "1", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "end time must be finite and > 0" in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["run", "picard"])
    def test_forced_run_follows_manufactured_solution(self, tmp_path, verb, monkeypatch):
        # forcing = mms drives both integrators along the exact g(t) psi
        body = (SMALL_GRID + "ic = manufactured\namplitude = 1e-2\nseed = 1\n"
                "forcing = mms\ndt = 1e-3\nt_end = 0.05\n")
        ckpt = tmp_path / "final.ckpt"
        cfg = write_config(tmp_path, body + f"out_ledger = {tmp_path/'run.csv'}\n"
                           f"out_report = {tmp_path/'r.json'}\nout_checkpoint = {ckpt}\n")
        name = {"run": "imex_run", "picard": "picard_solve"}[verb]
        integrate, calls = getattr(cli, name), []
        monkeypatch.setattr(cli, name, lambda *args: calls.append(args) or integrate(*args))
        assert main([verb, "--config", cfg]) == 0
        # both verbs start from g(0) psi and pass the operator 4th, positionally
        a, mms, _, op = calls[0]
        assert np.array_equal(a.coeffs, mms.solution(0.0).coeffs)
        assert isinstance(op, StokesOperator)
        run_cfg = parse_config(body)
        grid = run_cfg.grid()
        psi = manufactured_profile(grid, run_cfg.ic)
        exact = make_manufactured(StokesOperator(grid), psi).solution(0.05)
        final = load_checkpoint(ckpt)
        assert l2_norm(final - exact) <= 1e-6 * l2_norm(exact)


class FakeLibc:
    """Stands in for the C library: records mallopt calls, never sets anything."""

    def __init__(self, accept=True):
        self.calls = []
        self.accept = accept

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return int(self.accept)


class TestKeepHeap:
    @pytest.fixture
    def patch_cdll(self, monkeypatch):
        """patch_cdll(lib) makes ctypes.CDLL return lib (raise it, if an
        exception) and returns the list of the names it is called with."""
        import ctypes

        def patch(lib):
            names = []

            def cdll(name):
                names.append(name)
                if isinstance(lib, Exception):
                    raise lib
                return lib
            monkeypatch.setattr(ctypes, "CDLL", cdll)
            return names
        return patch

    def test_sets_both_thresholds(self, monkeypatch, patch_cdll):
        monkeypatch.setattr(cli.sys, "platform", "linux")
        libc = FakeLibc()
        patch_cdll(libc)
        cli._keep_heap()
        # glibc's malloc.h: M_TRIM_THRESHOLD -1, M_MMAP_THRESHOLD -3
        assert (cli.M_TRIM_THRESHOLD, cli.M_MMAP_THRESHOLD) == (-1, -3)
        assert libc.calls == [(-3, 32 * 2**20), (-1, 2**30)]

    def test_rejected_mmap_threshold_sets_neither(self, monkeypatch, patch_cdll):
        monkeypatch.setattr(cli.sys, "platform", "linux")
        libc = FakeLibc(accept=False)
        patch_cdll(libc)
        cli._keep_heap()
        assert libc.calls == [(-3, 32 * 2**20)]

    @pytest.mark.parametrize("platform", ["darwin", "win32", "freebsd14"])
    def test_no_call_off_linux(self, monkeypatch, patch_cdll, platform):
        monkeypatch.setattr(cli.sys, "platform", platform)
        libc = FakeLibc()
        names = patch_cdll(libc)
        cli._keep_heap()
        assert names == [] and libc.calls == []

    @pytest.mark.parametrize("lib", [OSError("no C library"), object()],
                             ids=["cdll-fails", "no-mallopt"])
    def test_main_runs_without_mallopt(self, monkeypatch, patch_cdll, capsys, lib):
        monkeypatch.setattr(cli.sys, "platform", "linux")
        names = patch_cdll(lib)
        assert main(["spectrum", "--nx", "4", "--ny", "4", "--nz", "2"]) == 0
        assert names == [None]
        assert "beta" in capsys.readouterr().out
