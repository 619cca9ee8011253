"""Checkpoint, ledger CSV, and report serialization.

Checkpoint layout: one ASCII header line

    HYDROPDE1 nx ny nz h components

followed by little-endian 8-byte floats, coefficients in
(component, kx, ky, m) row-major order with real and imaginary parts
interleaved.  The depth h is written with repr so a save/load round trip
is bit-exact.

Ledger CSV: the ledger table ({column name: list of floats}, as
diagnostics.build_records returns it) written as a version comment
`# hydropde-ledger v1`, a header row of LEDGER_COLUMNS, then one row per
sample time with full-precision (repr) floats, so identical runs produce
byte-identical files and the floats read back are exactly the floats
written.  read_ledger_csv returns the same table.
"""

import csv
import json
import math

import numpy as np

from .errors import ConfigurationError
from .fields import SpectralField
from .grid import Grid

LEDGER_VERSION_LINE = "# hydropde-ledger v1"

LEDGER_COLUMNS = (
    "t", "e2", "d2", "d2_int", "fwork_int",
    "grad_h_bar", "vz2", "tilde4", "grad_pi", "vz3", "dtv2", "h1", "h2",
    "bar_residual", "tilde_residual",
)


def _interleave(coeffs):
    flat = np.ascontiguousarray(coeffs).ravel()
    out = np.empty(2 * flat.size)
    out[0::2] = flat.real
    out[1::2] = flat.imag
    return out.astype("<f8")


def save_checkpoint(path, field: SpectralField):
    """Write a SpectralField."""
    if not isinstance(field, SpectralField):
        raise ConfigurationError(f"cannot checkpoint {type(field).__name__}")
    g = field.grid
    with open(path, "wb") as fh:
        fh.write(f"HYDROPDE1 {g.nx} {g.ny} {g.nz} {g.h!r} {field.components}\n".encode("ascii"))
        fh.write(_interleave(field.coeffs).tobytes())


def load_checkpoint(path, grid: Grid | None = None) -> SpectralField:
    """Read a checkpoint; a malformed file, or a header that no Grid accepts or
    that differs from grid, raises ConfigurationError naming the file."""
    with open(path, "rb") as fh:
        header = fh.readline().split()
        raw = fh.read()
    try:
        if len(header) != 6 or header[0] != b"HYDROPDE1":
            raise ValueError("not a HYDROPDE1 checkpoint")
        nx, ny, nz, comp = (int(header[i]) for i in (1, 2, 3, 5))
        h = float(header[4])
        data = np.frombuffer(raw, dtype="<f8")
        if comp not in (1, 2) or data.size != 2 * comp * nx * ny * nz:
            raise ValueError(f"{data.size} floats for a {comp}x{nx}x{ny}x{nz} complex field")
        if grid is None:
            grid = Grid(nx, ny, nz, h)
        elif (grid.nx, grid.ny, grid.nz, grid.h) != (nx, ny, nz, h):
            raise ValueError("grid mismatch with checkpoint header")
    except ValueError as err:  # ConfigurationError from Grid included
        raise ConfigurationError(f"{path}: {err}") from None
    # assign parts separately so signed zeros survive the round trip
    coeffs = np.empty(data.size // 2, complex)
    coeffs.real = data[0::2]
    coeffs.imag = data[1::2]
    return SpectralField(grid, coeffs.reshape(comp, nx, ny, nz))


def write_ledger_csv(path, table):
    """Write a ledger table (as build_records returns it), one row per sample."""
    with open(path, "w", newline="") as fh:
        fh.write(LEDGER_VERSION_LINE + "\n")
        writer = csv.writer(fh)
        writer.writerow(LEDGER_COLUMNS)
        for row in zip(*(table[name] for name in LEDGER_COLUMNS)):
            writer.writerow([repr(float(x)) for x in row])


def read_ledger_csv(path):
    """The ledger table of a CSV, {column name: list of floats}.

    The reader is name-based: every column of LEDGER_COLUMNS must be
    present, others are kept, and no column may be named twice.  A malformed
    file, or a NaN cell, raises ConfigurationError naming the file and the
    line; inf is accepted, since the ledger of a blow-up may hold overflowed
    values.
    """
    with open(path, newline="") as fh:
        first = fh.readline().rstrip("\n")
        if first != LEDGER_VERSION_LINE:
            raise ConfigurationError(f"{path}: missing ledger version line")
        reader = csv.reader(fh)
        names = next(reader, [])
        missing = [n for n in LEDGER_COLUMNS if n not in names]
        if missing:
            raise ConfigurationError(
                f"{path}: line 2: header lacks column(s) {', '.join(missing)}")
        cols = {n: [] for n in names}
        if len(cols) < len(names):
            twice = next(n for i, n in enumerate(names) if n in names[:i])
            raise ConfigurationError(f"{path}: line 2: header names column {twice} twice")
        for lineno, row in enumerate(reader, start=3):
            if len(row) != len(names):
                raise ConfigurationError(
                    f"{path}: line {lineno}: {len(row)} cells, header has {len(names)}")
            for n, x in zip(names, row):
                try:
                    val = float(x)
                except ValueError:
                    raise ConfigurationError(
                        f"{path}: line {lineno}: column {n} is not a number: {x!r}")
                if math.isnan(val):
                    raise ConfigurationError(f"{path}: line {lineno}: column {n} is NaN")
                cols[n].append(val)
    if not cols["t"]:
        raise ConfigurationError(f"{path}: no sample rows after the header")
    return cols


def write_report_json(path, report: dict):
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
