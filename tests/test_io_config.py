"""Checkpoint format, ledger CSV, JSON reports, config parsing."""

import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from hydropde.config import (
    _IC_KEYS,
    InitialConditionSpec,
    RunConfig,
    keyed_eigenmode,
    make_initial,
    manufactured_profile,
    parse_config,
)
from hydropde.diagnostics import build_records
from hydropde.errors import ConfigurationError
from hydropde.evolution import ImexConfig, imex_run
from hydropde.fields import random_spectral
from hydropde.grid import Grid
from hydropde.io import (
    LEDGER_COLUMNS,
    LEDGER_VERSION_LINE,
    load_checkpoint,
    read_ledger_csv,
    save_checkpoint,
    write_ledger_csv,
    write_report_json,
)
from hydropde.projection import SurfacePressure, divergence_of_average
from hydropde.stokes import StokesOperator, eigenmode


class TestCheckpoint:
    def test_field_round_trip_bit_exact(self, grid16, rng, tmp_path):
        v = random_spectral(grid16, rng)
        p = tmp_path / "state.ckpt"
        save_checkpoint(p, v)
        back = load_checkpoint(p)
        assert back.grid == grid16
        assert np.array_equal(back.coeffs, v.coeffs)
        # a complex128 array of its own, not a read-only view of the file
        assert back.coeffs.dtype == np.complex128 and back.coeffs.flags.writeable
        # byte-identical on rewrite
        p2 = tmp_path / "state2.ckpt"
        save_checkpoint(p2, back)
        assert p.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path, rng):
        g = Grid(8, 4, 6, h=2.0)
        v = random_spectral(g, rng)
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

    def test_grid_mismatch(self, grid16, rng, tmp_path):
        v = random_spectral(grid16, rng)
        p = tmp_path / "state.ckpt"
        save_checkpoint(p, v)
        with pytest.raises(ConfigurationError):
            load_checkpoint(p, Grid(16, 16, 4))

    def test_bad_header(self, grid16, tmp_path):
        p = tmp_path / "junk.ckpt"
        # a wrong magic word, the nz = 0 header surface pressures once had, a
        # field that is not a number, data shorter than the header says, data
        # that is not a whole number of complex values (half a value short,
        # one byte too long), and one or three components
        n = 2 * 8 * 8 * 4
        for header, size in ((b"NOTACKPT 1 2 3 4 5\n", 16 * 16 * 16),
                             (b"HYDROPDE1 16 16 0 1.0 1\n", 16 * 16 * 16),
                             (b"HYDROPDE1 8 8 x 1.0 2\n", 64),
                             (b"HYDROPDE1 8 8 4 1.0 2\n", 64),
                             (b"HYDROPDE1 8 8 4 1.0 2\n", 16 * n - 8),
                             (b"HYDROPDE1 8 8 4 1.0 2\n", 16 * n + 1),
                             (b"HYDROPDE1 8 8 4 1.0 1\n", 8 * 8 * 4 * 16),
                             (b"HYDROPDE1 8 8 4 1.0 3\n", 3 * 8 * 8 * 4 * 16)):
            p.write_bytes(header + bytes(size))
            for grid in (None, grid16):
                with pytest.raises(ConfigurationError, match="junk.ckpt"):
                    load_checkpoint(p, grid)

    def test_rejects_unknown_object(self, grid16, tmp_path):
        for obj in (grid16, SurfacePressure(grid16, np.ones((16, 16), complex))):
            with pytest.raises(ConfigurationError):
                save_checkpoint(tmp_path / "x.ckpt", obj)


@pytest.fixture(scope="module")
def short_ledger():
    g = Grid(8, 8, 4)
    a = eigenmode(g, (1, 0), 0, amplitude=1e-2)
    led = imex_run(a, None, ImexConfig(dt=1e-3, t_end=0.05, sample_every=10), StokesOperator(g))
    return led, build_records(led)


class TestLedgerCsv:
    def test_round_trip(self, short_ledger, tmp_path):
        led, table = short_ledger
        p = tmp_path / "run.csv"
        write_ledger_csv(p, table)
        text = p.read_text().splitlines()
        assert text[0] == LEDGER_VERSION_LINE
        assert text[1].split(",") == list(LEDGER_COLUMNS)
        cols = read_ledger_csv(p)
        assert cols["t"] == led.columns["t"]
        assert cols["e2"] == led.columns["e2"]
        assert cols["d2_int"] == led.columns["d2_int"]
        assert cols == table

    def test_byte_determinism(self, short_ledger, tmp_path):
        _, table = short_ledger
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_ledger_csv(p1, table)
        write_ledger_csv(p2, table)
        assert p1.read_bytes() == p2.read_bytes()

    def test_nan_cell_rejected_inf_accepted(self, short_ledger, tmp_path):
        columns = {name: list(col) for name, col in short_ledger[1].items()}
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


# a valid non-default value for every config key
NON_DEFAULT = {
    "nx": 16, "ny": 8, "nz": 4, "h": 2.5, "dealias": 0.5, "dt": 2e-3, "t_end": 0.5,
    "scheme": "imex1", "sample_every": 3, "cfl_limit": 20.0, "forcing": "single-mode",
    "forcing_amplitude": 0.25, "forcing_kx": 2, "forcing_ky": 1, "forcing_m": 1,
    "forcing_rate": 0.5, "picard_nodes": 17, "picard_max_iterations": 4,
    "picard_tolerance": 1e-9, "out_ledger": "a.csv", "out_report": "a.json",
    "out_checkpoint": "a.ckpt", "ic": "shear", "amplitude": 0.5, "ic_kx": 2, "ic_ky": 1,
    "ic_m": 1, "seed": 7,
}
CONFIG_KEYS = [f.name for f in fields(RunConfig) if f.name != "ic"] + list(_IC_KEYS)


def _setting(cfg, key):
    return getattr(cfg.ic, _IC_KEYS[key]) if key in _IC_KEYS else getattr(cfg, key)


class TestParseConfig:
    @pytest.mark.parametrize("key", CONFIG_KEYS)
    def test_every_key_parses_with_its_type(self, key):
        value = NON_DEFAULT[key]
        assert value != _setting(RunConfig(), key)
        parsed = _setting(parse_config(f"{key} = {value}\n"), key)
        assert parsed == value and type(parsed) is type(value)

    def test_readme_config_block_sets_every_key_to_its_default(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = [b for b in readme.split("```")[1::2] if b.lstrip().startswith("nx =")]
        assert len(blocks) == 1
        keys = [line.partition("=")[0].strip() for line in blocks[0].strip().splitlines()]
        assert sorted(keys) == sorted(CONFIG_KEYS)
        assert parse_config(blocks[0]) == RunConfig()

    def test_library_config_is_checked(self):
        for kw in ({"scheme": "rk4"}, {"forcing": "noise"}, {"nx": 5}, {"nz": 1},
                   {"dealias": 0.0}):
            with pytest.raises(ConfigurationError):
                RunConfig(**kw)

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

    @pytest.mark.parametrize("key", ["h", "dealias", "dt", "t_end", "cfl_limit", "amplitude",
                                     "forcing_amplitude", "forcing_rate", "picard_tolerance"])
    @pytest.mark.parametrize("val", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_numbers(self, key, val):
        if key == "cfl_limit" and val == "inf":
            assert parse_config("nx = 16\ncfl_limit = inf\n").cfl_limit == math.inf
            return
        with pytest.raises(ConfigurationError) as exc:
            parse_config(f"nx = 16\n{key} = {val}\n")
        msg = str(exc.value)
        assert "line 2" in msg and f"{key} must be finite" in msg

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

    # the parser rejects these by line; a spec built in code is checked too
    @pytest.mark.parametrize("amplitude", [math.inf, math.nan])
    def test_non_finite_amplitude_rejected(self, amplitude):
        with pytest.raises(ConfigurationError, match="amplitude must be finite"):
            InitialConditionSpec(amplitude=amplitude)

    @pytest.mark.parametrize("name, value", [("kx", 1.5), ("ky", -0.5), ("m", 0.5),
                                             ("seed", 2.5), ("seed", 2.0)])
    def test_non_integer_rejected_by_name(self, name, value):
        with pytest.raises(ConfigurationError, match=rf"\b{name} must be an integer"):
            InitialConditionSpec(kind="random-band", **{name: value})

    def test_keyed_eigenmode_names_the_key_of_a_non_integer(self, grid16):
        with pytest.raises(ConfigurationError, match=r"^forcing_ky = 1\.5 is not an integer"):
            keyed_eigenmode(grid16, "forcing", 1, 1.5, 0, 1e-3)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="seed must be >= 0"):
            InitialConditionSpec(kind="random-band", seed=-3)
