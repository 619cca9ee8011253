"""End-to-end command line checks, run in process via main(argv)."""

import json

import numpy as np
import pytest

from hydropde.cli import main
from hydropde.io import LEDGER_COLUMNS, LEDGER_VERSION_LINE, load_checkpoint, read_ledger_csv

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
        cols = read_ledger_csv(ledger)
        assert len(cols["t"]) >= 1
        assert all(np.isfinite(v) for v in cols["e2"])
        data = json.loads((tmp_path / "r.json").read_text())
        assert data["status"] == "nan-abort"


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
        # 2 nz eigenvalues at k = 0, 2 nz - 1 at each of the other 63 modes
        assert len(lines) == 1 + 2 * 4 + 63 * (2 * 4 - 1)
        evs = [float(l.split(",")[2]) for l in lines[1:]]
        assert min(evs) == pytest.approx(np.pi**2 / 4)


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
        ("short-row", "line 3"), ("nan-cell", "line 3"),
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
