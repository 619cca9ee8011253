"""Checkpoint format, ledger CSV, JSON reports, config parsing."""

import json

import numpy as np
import pytest

from hydropde.config import (
    InitialConditionSpec,
    RunConfig,
    make_initial,
    manufactured_profile,
    parse_config,
)
from hydropde.diagnostics import build_records, split_residuals, trajectory_pressure
from hydropde.errors import ConfigurationError
from hydropde.evolution import ImexConfig, imex_run
from hydropde.fields import l2_norm, random_spectral
from hydropde.grid import Grid
from hydropde.io import (
    LEDGER_COLUMNS,
    LEDGER_VERSION_LINE,
    ledger_columns,
    load_checkpoint,
    read_ledger_csv,
    save_checkpoint,
    write_ledger_csv,
    write_report_json,
)
from hydropde.projection import SurfacePressure, constrain, divergence_of_average
from hydropde.stokes import eigenmode


class TestCheckpoint:
    def test_field_round_trip_bit_exact(self, grid16, rng, tmp_path):
        v = random_spectral(grid16, 2, rng)
        p = tmp_path / "state.ckpt"
        save_checkpoint(p, v)
        back = load_checkpoint(p)
        assert back.grid == grid16
        assert np.array_equal(back.coeffs, v.coeffs)
        # byte-identical on rewrite
        p2 = tmp_path / "state2.ckpt"
        save_checkpoint(p2, back)
        assert p.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path, rng):
        g = Grid(8, 4, 6, h=2.0)
        v = random_spectral(g, 2, rng)
        p = tmp_path / "h.ckpt"
        save_checkpoint(p, v)
        head = p.read_bytes().split(b"\n", 1)[0].decode()
        assert head == "HYDROPDE1 8 4 6 2.0 2"
        payload = p.read_bytes().split(b"\n", 1)[1]
        assert len(payload) == 2 * 8 * v.coeffs.size
        # re/im interleaving of the first coefficient, little endian
        first = np.frombuffer(payload[:16], dtype="<f8")
        assert first[0] == v.coeffs.flat[0].real
        assert first[1] == v.coeffs.flat[0].imag

    def test_pressure_round_trip(self, grid16, rng, tmp_path):
        pi = SurfacePressure(
            grid16,
            rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)),
        )
        p = tmp_path / "pi.ckpt"
        save_checkpoint(p, pi)
        head = p.read_bytes().split(b"\n", 1)[0].decode()
        assert head.split()[3] == "0"
        back = load_checkpoint(p, grid16)
        assert np.array_equal(back.coeffs, pi.coeffs)
        with pytest.raises(ConfigurationError):
            load_checkpoint(p)  # pressures need an explicit grid

    def test_grid_mismatch(self, grid16, rng, tmp_path):
        v = random_spectral(grid16, 2, rng)
        p = tmp_path / "state.ckpt"
        save_checkpoint(p, v)
        with pytest.raises(ConfigurationError):
            load_checkpoint(p, Grid(16, 16, 4))

    def test_bad_header(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"NOTACKPT 1 2 3 4 5\n")
        with pytest.raises(ConfigurationError):
            load_checkpoint(p)

    def test_rejects_unknown_object(self, grid16, tmp_path):
        with pytest.raises(ConfigurationError):
            save_checkpoint(tmp_path / "x.ckpt", grid16)


@pytest.fixture(scope="module")
def short_ledger():
    g = Grid(8, 8, 4)
    a = eigenmode(g, (1, 0), 0, amplitude=1e-2)
    led = imex_run(a, None, ImexConfig(dt=1e-3, t_end=0.05, sample_every=10))
    recs, _ = build_records(led)
    split = [split_residuals(s, trajectory_pressure(s)) for s in led.states]
    return led, recs, split


class TestLedgerCsv:
    def test_round_trip(self, short_ledger, tmp_path):
        led, recs, split = short_ledger
        p = tmp_path / "run.csv"
        write_ledger_csv(p, ledger_columns(led, recs, split))
        text = p.read_text().splitlines()
        assert text[0] == LEDGER_VERSION_LINE
        assert text[1].split(",") == list(LEDGER_COLUMNS)
        cols = read_ledger_csv(p)
        assert cols["t"] == led.times
        assert cols["e2"] == led.e2
        assert cols["d2_int"] == led.d2_int
        assert cols["h1"] == [r.h1 for r in recs]

    def test_byte_determinism(self, short_ledger, tmp_path):
        led, recs, split = short_ledger
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_ledger_csv(p1, ledger_columns(led, recs, split))
        write_ledger_csv(p2, ledger_columns(led, recs, split))
        assert p1.read_bytes() == p2.read_bytes()

    def test_nan_cell_rejected_inf_accepted(self, short_ledger, tmp_path):
        led, recs, split = short_ledger
        columns = ledger_columns(led, recs, split)
        columns["bar_residual"][-1] = float("inf")
        p = tmp_path / "run.csv"
        write_ledger_csv(p, columns)
        assert read_ledger_csv(p)["bar_residual"][-1] == float("inf")
        columns["d2_int"][0] = float("nan")
        write_ledger_csv(p, columns)
        with pytest.raises(ConfigurationError, match="line 3: column d2_int"):
            read_ledger_csv(p)

    def test_missing_version_line(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("t,e2\n0.0,1.0\n")
        with pytest.raises(ConfigurationError):
            read_ledger_csv(p)


class TestReportJson:
    def test_stable_serialization(self, tmp_path):
        p = tmp_path / "r.json"
        write_report_json(p, {"b": 2.0, "a": [1, 2], "nested": {"z": 1}})
        data = json.loads(p.read_text())
        assert data == {"b": 2.0, "a": [1, 2], "nested": {"z": 1}}
        # keys sorted for determinism
        assert p.read_text().index('"a"') < p.read_text().index('"b"')


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config("")
        assert (cfg.nx, cfg.ny, cfg.nz, cfg.h) == (32, 32, 16, 1.0)
        assert cfg.dt == 1e-3
        assert cfg.scheme == "imex2"
        assert cfg.ic.kind == "eigenmode"

    def test_values_comments_and_grid(self):
        cfg = parse_config(
            """
            # a comment line
            nx = 16
            ny = 16   # trailing comment
            nz = 8
            h = 2.0
            dt = 5e-4
            ic = shear
            amplitude = 0.01
            ic_m = 1
            """
        )
        assert cfg.h == 2.0
        g = cfg.grid()
        assert abs(g.lam[0] - np.pi / 4) < 1e-15
        assert cfg.ic.kind == "shear" and cfg.ic.m == 1

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ConfigurationError) as exc:
            parse_config("dt = -1")
        assert "line 1" in str(exc.value)

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigurationError) as exc:
            parse_config("nx = 16\nbogus = 3\n")
        assert "line 2" in str(exc.value)
        assert "bogus" in str(exc.value)

    def test_malformed_line(self):
        with pytest.raises(ConfigurationError):
            parse_config("just words\n")
        with pytest.raises(ConfigurationError):
            parse_config("nx = lots\n")

    def test_unknown_scheme_and_forcing(self):
        with pytest.raises(ConfigurationError):
            parse_config("scheme = rk4")
        with pytest.raises(ConfigurationError):
            parse_config("forcing = noise")


class TestMakeInitial:
    def test_deterministic(self, grid16):
        spec = InitialConditionSpec(kind="random-band", amplitude=0.01, seed=42)
        a = make_initial(spec, grid16)
        b = make_initial(spec, grid16)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_eigenmode_kind(self, grid16):
        spec = InitialConditionSpec(kind="eigenmode", amplitude=0.5, kx=1, ky=0, m=2)
        a = make_initial(spec, grid16)
        ref = eigenmode(grid16, (1, 0), 2, amplitude=0.5)
        assert np.array_equal(a.coeffs, ref.coeffs)

    def test_all_kinds_on_constraint_manifold(self, grid16):
        for kind in ("eigenmode", "random-band", "shear", "manufactured"):
            a = make_initial(InitialConditionSpec(kind=kind, amplitude=0.01), grid16)
            div = divergence_of_average(a)
            assert np.max(np.abs(div.coeffs)) < 1e-12, kind

    def test_shear_divergence_exactly_zero(self, grid16):
        a = make_initial(InitialConditionSpec(kind="shear", amplitude=0.1), grid16)
        div = divergence_of_average(a)
        assert np.max(np.abs(div.coeffs)) == 0.0
        # purely y-component, real in physical space
        assert np.max(np.abs(a.coeffs[0])) == 0.0

    def test_manufactured_profile_band_limited(self, grid16):
        v = manufactured_profile(grid16, InitialConditionSpec(amplitude=0.01))
        for i, kx in enumerate(grid16.kx):
            for j, ky in enumerate(grid16.ky):
                if max(abs(int(kx)), abs(int(ky))) > 2:
                    assert np.max(np.abs(v.coeffs[:, i, j, :])) == 0.0

    def test_validation(self, grid16):
        with pytest.raises(ConfigurationError):
            InitialConditionSpec(kind="vortex")
        with pytest.raises(ConfigurationError):
            InitialConditionSpec(amplitude=0.0)
        with pytest.raises(ConfigurationError):
            make_initial(InitialConditionSpec(kind="shear", m=99), grid16)
