"""Checkpoint, ledger CSV, and report serialization.

Checkpoint layout: one ASCII header line

    HYDROPDE1 nx ny nz h components

followed by little-endian 8-byte floats, coefficients in
(component, kx, ky, m) row-major order with real and imaginary parts
interleaved.  Surface pressures use nz = 0 as a sentinel.  The depth h is
written with repr so a save/load round trip is bit-exact.

Ledger CSV: a version comment `# hydropde-ledger v1`, a column-header row,
then one row per sample time with full-precision (repr) floats, so
identical runs produce byte-identical files and the floats read back are
exactly the floats written.
"""

import csv
import json
import math

import numpy as np

from .errors import ConfigurationError
from .fields import SpectralField
from .grid import Grid
from .projection import SurfacePressure

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


def save_checkpoint(path, obj):
    """Write a SpectralField or SurfacePressure."""
    if isinstance(obj, SpectralField):
        nz, comp, coeffs = obj.grid.nz, obj.components, obj.coeffs
    elif isinstance(obj, SurfacePressure):
        nz, comp, coeffs = 0, 1, obj.coeffs[None]
    else:
        raise ConfigurationError(f"cannot checkpoint {type(obj).__name__}")
    g = obj.grid
    with open(path, "wb") as fh:
        fh.write(f"HYDROPDE1 {g.nx} {g.ny} {nz} {g.h!r} {comp}\n".encode("ascii"))
        fh.write(_interleave(coeffs).tobytes())


def load_checkpoint(path, grid: Grid | None = None):
    """Read a checkpoint; returns a SpectralField or SurfacePressure.

    For surface pressures (nz = 0 in the header) a grid must be supplied,
    since the file does not carry a vertical mode count.
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        raw = fh.read()
    if len(header) != 6 or header[0] != "HYDROPDE1":
        raise ConfigurationError(f"{path}: not a HYDROPDE1 checkpoint")
    nx, ny, nz, comp = int(header[1]), int(header[2]), int(header[3]), int(header[5])
    h = float(header[4])
    data = np.frombuffer(raw, dtype="<f8")
    # assign parts separately so signed zeros survive the round trip
    coeffs = np.empty(data.size // 2, complex)
    coeffs.real = data[0::2]
    coeffs.imag = data[1::2]
    if nz == 0:
        if grid is None:
            raise ConfigurationError("surface-pressure checkpoint needs an explicit grid")
        if (grid.nx, grid.ny) != (nx, ny) or grid.h != h:
            raise ConfigurationError(f"{path}: grid mismatch with checkpoint header")
        return SurfacePressure(grid, coeffs.reshape(nx, ny))
    if grid is None:
        grid = Grid(nx, ny, nz, h)
    elif (grid.nx, grid.ny, grid.nz, grid.h) != (nx, ny, nz, h):
        raise ConfigurationError(f"{path}: grid mismatch with checkpoint header")
    return SpectralField(grid, coeffs.reshape(comp, nx, ny, nz))


def ledger_columns(ledger, records, split):
    """Ledger CSV columns {name: list of floats} of a sampled trajectory.

    records and split are the two lists diagnostics.build_records returns;
    t, e2, d2 and the budget integrals come from the integrator's ledger.
    """
    rows = [
        (ledger.times[i], ledger.e2[i], ledger.d2[i],
         ledger.d2_int[i], ledger.fwork_int[i],
         rec.grad_h_bar, rec.vz2, rec.tilde4, rec.grad_pi,
         rec.vz3, rec.dtv2, rec.h1, rec.h2, sr.bar, sr.tilde)
        for i, (rec, sr) in enumerate(zip(records, split))
    ]
    return {name: [row[j] for row in rows] for j, name in enumerate(LEDGER_COLUMNS)}


def write_ledger_csv(path, columns):
    """Write ledger columns (as ledger_columns returns them), one row per sample."""
    with open(path, "w", newline="") as fh:
        fh.write(LEDGER_VERSION_LINE + "\n")
        writer = csv.writer(fh)
        writer.writerow(LEDGER_COLUMNS)
        for row in zip(*(columns[name] for name in LEDGER_COLUMNS)):
            writer.writerow([repr(float(x)) for x in row])


def read_ledger_csv(path):
    """Columns of a ledger CSV as {name: list of floats}.

    The reader is name-based: every column of LEDGER_COLUMNS must be
    present, others are kept.  A malformed file, or a NaN cell, raises
    ConfigurationError naming the file and the line; inf is accepted, since
    the ledger of a blow-up may hold overflowed values.
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
