"""The benchmark's workloads, the per-layer metrics, and the output checks.

Shared by `run.py` (the measuring parent) and `make_reference.py` (which
records the reference values the checks compare against).
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# Each --seed selects one of POOL initial-condition seeds; reference.json
# holds the expected ledger values for every one of them.
POOL = 32

# Relative tolerance of the e2/d2 comparison with the reference, fixed before
# any later change is measured.  Refactors that reorder floating-point sums
# move these values by ~1e-13; a wrong answer moves them by far more.
REFERENCE_RTOL = 1e-8

# |div_H vbar| of the final checkpoint, relative to |k||vbar|, must stay at
# rounding level.
DIVERGENCE_LIMIT = 1e-10

# Rows of the ledger compared with the reference (first, last, and up to
# REFERENCE_ROWS - 2 evenly spaced rows between them).
REFERENCE_ROWS = 11


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str                    # `pe run` or `pe picard`
    grid: tuple                  # (nx, ny, nz)
    settings: dict               # config keys besides the grid, seed and outputs
    steps: int                   # IMEX steps, or Picard nodes - 1
    samples: int                 # ledger rows
    why: str
    # per-layer spans the workload must call (the coverage check)
    expect: tuple = ()

    @property
    def t_end(self) -> float:
        return float(self.settings["t_end"])

    def config_text(self, seed: int, outdir: Path) -> str:
        nx, ny, nz = self.grid
        lines = [f"nx = {nx}", f"ny = {ny}", f"nz = {nz}"]
        lines += [f"{k} = {v}" for k, v in self.settings.items()]
        lines += [
            f"seed = {ic_seed(seed)}",
            f"out_ledger = {outdir / 'ledger.csv'}",
            f"out_report = {outdir / 'report.json'}",
            f"out_checkpoint = {outdir / 'final.ckpt'}",
        ]
        return "\n".join(lines) + "\n"


def ic_seed(seed: int) -> int:
    return seed % POOL


# Spans every workload calls: the layers on the path of both integrators and
# of the output stage.
_COMMON = (
    "stokes.to_eigen", "stokes.from_eigen", "nonlinear.F", "nonlinear.advect",
    "projection.constrain", "grid.vertical_to_modes", "fields.to_physical",
    "diagnostics.build_records", "diagnostics.gronwall_monitor",
    "diagnostics.trajectory_pressure", "diagnostics.split_residuals",
    "io.write_ledger_csv", "io.save_checkpoint", "cli.main",
)

# dt * mu_max is 0.23 on both IMEX grids (mu_max = 22584 at 32^2x16 and
# 90645 at 64^2x32), so the energy identity closes to better than 1e-3
# relative; the Picard node spacing 5e-4 / 32 gives 0.35.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="march-64x32", verb="run", grid=(64, 64, 32),
            settings=dict(dt="2.5e-6", t_end="2.5e-5", scheme="imex2",
                          sample_every=1000000, ic="random-band",
                          amplitude="1e-3", forcing="zero"),
            steps=10, samples=2,
            why="pe run IMEX2 at 64^2x32, sampled at the end only: operator "
                "set-up and the eigenbasis changes of the march dominate",
            expect=_COMMON + ("evolution.imex_run",),
        ),
        Workload(
            name="ledger-32x16", verb="run", grid=(32, 32, 16),
            settings=dict(dt="1e-5", t_end="5e-4", scheme="imex2",
                          sample_every=1, ic="random-band", amplitude="1e-3",
                          forcing="single-mode", forcing_amplitude="1e-3"),
            steps=50, samples=51,
            why="pe run IMEX2 at 32^2x16, forced, sampled every step: the "
                "per-sample diagnostics dominate and set-up is small",
            expect=_COMMON + ("evolution.imex_run", "evolution.forcing_eval"),
        ),
        Workload(
            name="picard-32x16", verb="picard", grid=(32, 32, 16),
            settings=dict(t_end="5e-4", ic="random-band", amplitude="3e-3",
                          forcing="zero", picard_nodes=33),
            steps=32, samples=33,
            why="pe picard, 33 nodes, 5 iterations: whole trajectories change "
                "eigenbasis in batches with exact exponential weights",
            expect=_COMMON + ("evolution.picard_solve",),
        ),
    )
}

# Per-layer metric -> (span names summed, statistic).  The integrator span is
# imex_run on the IMEX workloads and picard_solve on the Picard one.
_INTEGRATE = ("evolution.imex_run", "evolution.picard_solve")
LAYER_SPANS = {
    "stokes.to_eigen": ("stokes.StokesOperator.to_eigen",),
    "stokes.from_eigen": ("stokes.StokesOperator.from_eigen",),
    "nonlinear.F": ("nonlinear.F",),
    "nonlinear.advect": ("nonlinear.advect",),
    "projection.constrain": ("projection.constrain",),
    "grid.vertical_to_modes": ("grid.Grid.vertical_to_modes",),
    "fields.to_physical": ("fields.to_physical",),
    "evolution.integrate": _INTEGRATE,
    "evolution.imex_run": ("evolution.imex_run",),
    "evolution.picard_solve": ("evolution.picard_solve",),
    "evolution.forcing_eval": ("evolution.forcing_eval",),
    "diagnostics.build_records": ("diagnostics.build_records",),
    "diagnostics.gronwall_monitor": ("diagnostics.gronwall_monitor",),
    "diagnostics.trajectory_pressure": ("diagnostics.trajectory_pressure",),
    "diagnostics.split_residuals": ("diagnostics.split_residuals",),
    "io.write_ledger_csv": ("io.write_ledger_csv",),
    "io.save_checkpoint": ("io.save_checkpoint",),
    "cli.main": ("cli.main",),
}

# (metric name, unit, span key in LAYER_SPANS, statistic)
SPAN_METRICS = [
    ("stokes.to_eigen.calls", "count", "stokes.to_eigen", "calls"),
    ("stokes.to_eigen.ms", "ms", "stokes.to_eigen", "ms"),
    ("stokes.from_eigen.calls", "count", "stokes.from_eigen", "calls"),
    ("stokes.from_eigen.ms", "ms", "stokes.from_eigen", "ms"),
    ("nonlinear.F.calls", "count", "nonlinear.F", "calls"),
    ("nonlinear.F.ms", "ms", "nonlinear.F", "ms"),
    ("nonlinear.advect.calls", "count", "nonlinear.advect", "calls"),
    ("nonlinear.advect.ms", "ms", "nonlinear.advect", "ms"),
    ("projection.constrain.calls", "count", "projection.constrain", "calls"),
    ("projection.constrain.ms", "ms", "projection.constrain", "ms"),
    ("grid.vertical_to_modes.calls", "count", "grid.vertical_to_modes", "calls"),
    ("grid.vertical_to_modes.ms", "ms", "grid.vertical_to_modes", "ms"),
    ("fields.to_physical.calls", "count", "fields.to_physical", "calls"),
    ("fields.to_physical.ms", "ms", "fields.to_physical", "ms"),
    ("evolution.integrate.ms", "ms", "evolution.integrate", "ms"),
    ("evolution.integrate.self_ms", "ms", "evolution.integrate", "self_ms"),
    ("evolution.forcing_eval.calls", "count", "evolution.forcing_eval", "calls"),
    ("diagnostics.build_records.ms", "ms", "diagnostics.build_records", "ms"),
    ("diagnostics.gronwall_monitor.ms", "ms", "diagnostics.gronwall_monitor", "ms"),
    ("diagnostics.trajectory_pressure.calls", "count",
     "diagnostics.trajectory_pressure", "calls"),
    ("diagnostics.trajectory_pressure.ms", "ms", "diagnostics.trajectory_pressure", "ms"),
    ("diagnostics.split_residuals.calls", "count", "diagnostics.split_residuals", "calls"),
    ("diagnostics.split_residuals.ms", "ms", "diagnostics.split_residuals", "ms"),
    ("io.write_ledger_csv.ms", "ms", "io.write_ledger_csv", "ms"),
    ("io.save_checkpoint.ms", "ms", "io.save_checkpoint", "ms"),
    ("cli.main.ms", "ms", "cli.main", "ms"),
]

# The per-layer sweep: the ROADMAP baseline table, one row per grid.
SWEEP_GRIDS = ((16, 16, 8), (32, 32, 16), (64, 64, 16), (64, 64, 32))
SWEEP_COLUMNS = ("setup", "F", "to_eigen", "from_eigen", "imex_step", "record")


def grid_tag(grid) -> str:
    nx, ny, nz = grid
    return f"{nx}x{ny}x{nz}"


def per_layer_names():
    """Every per-layer metric, (name, unit), in the order they are printed."""
    names = [("stokes.setup.ms", "ms"), ("stokes.setup.rss_rise_mb", "MB")]
    names += [(m, u) for m, u, _, _ in SPAN_METRICS]
    names += [("io.write_ledger_csv.bytes", "bytes"),
              ("io.save_checkpoint.bytes", "bytes"),
              ("trace.cpu_s", "s"), ("trace.untraced_cpu_s", "s"),
              ("trace.overhead_s", "s")]
    names += [(f"sweep.{grid_tag(g)}.{c}.ms", "ms")
              for g in SWEEP_GRIDS for c in SWEEP_COLUMNS]
    return names


END_TO_END = [
    ("cpu_s", "s"), ("setup_s", "s"), ("solve_s", "s"),
    ("import_s", "s"), ("peak_rss_mb", "MB"),
]


# -- output checks ------------------------------------------------------------


def read_ledger(path: Path) -> dict:
    """Ledger CSV columns by name; '#' lines (the version line) are skipped."""
    rows = [ln for ln in path.read_text().splitlines()
            if ln and not ln.startswith("#")]
    names = rows[0].split(",")
    cols = {n: [] for n in names}
    for ln in rows[1:]:
        for n, x in zip(names, ln.split(",")):
            cols[n].append(float(x))
    return cols


def reference_rows(n: int):
    """Indices of the ledger rows compared with the reference."""
    k = min(n, REFERENCE_ROWS)
    return sorted({round(i * (n - 1) / (k - 1)) for i in range(k)}) if k > 1 else [0]


def reference_entry(ledger: dict, report: dict) -> dict:
    """The values of one run that the reference records."""
    rows = reference_rows(len(ledger["t"]))
    entry = {"rows": rows,
             "e2": [ledger["e2"][i] for i in rows],
             "d2": [ledger["d2"][i] for i in rows]}
    if "picard_iterations" in report:
        entry["picard_iterations"] = report["picard_iterations"]
    return entry


def checkpoint_divergence(path: Path) -> float:
    """Relative |div_H vbar| of a velocity checkpoint, from the documented format.

    Reads the file with numpy alone: one ASCII header line
    `HYDROPDE1 nx ny nz h components`, then little-endian float64 coefficients
    in (component, kx, ky, m) order, real and imaginary parts interleaved.
    """
    import numpy as np

    raw = path.read_bytes()
    head, _, body = raw.partition(b"\n")
    magic, nx, ny, nz, h, comp = head.decode("ascii").split()
    nx, ny, nz, comp, h = int(nx), int(ny), int(nz), int(comp), float(h)
    if magic != "HYDROPDE1" or comp != 2 or nz < 1:
        raise ValueError(f"{path}: not a velocity checkpoint")
    data = np.frombuffer(body, dtype="<f8")
    c = (data[0::2] + 1j * data[1::2]).reshape(2, nx, ny, nz)
    m = np.arange(nz)
    lam = (m + 0.5) * math.pi / h
    avg = np.where(m % 2 == 0, 1.0, -1.0) / (lam * h)   # (1/h) int phi_m dz
    vbar = c @ avg
    kx = np.fft.fftfreq(nx, 1.0 / nx)[:, None]
    ky = np.fft.fftfreq(ny, 1.0 / ny)[None, :]
    div = kx * vbar[0] + ky * vbar[1]
    scale = np.sqrt(np.sum((kx**2 + ky**2) * (np.abs(vbar[0])**2 + np.abs(vbar[1])**2)))
    return float(np.sqrt(np.sum(np.abs(div) ** 2)) / max(scale, 1e-300))


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def check_outputs(w: Workload, seed: int, rc: int, outdir: Path, reference: dict):
    """Problems with one run's outputs; an empty list means the run is correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    problems = []
    try:
        report = json.loads((outdir / "report.json").read_text())
        ledger = read_ledger(outdir / "ledger.csv")
        div = checkpoint_divergence(outdir / "final.ckpt")
    except (OSError, ValueError, KeyError, IndexError) as err:
        return [f"unreadable output: {err}"]
    if report.get("status") not in ("completed", "converged"):
        problems.append(f"status {report.get('status')!r}")
    t_final = ledger["t"][-1] if ledger.get("t") else float("nan")
    if not math.isclose(t_final, w.t_end, rel_tol=1e-12):
        problems.append(f"final ledger t = {t_final!r}, configured t_end = {w.t_end!r}")
    if not div <= DIVERGENCE_LIMIT:
        problems.append(f"|div_H vbar| of the final checkpoint is {div:.3e} relative")
    ref = reference["workloads"][w.name][str(ic_seed(seed))]
    got = reference_entry(ledger, report)
    if got["rows"] != ref["rows"]:
        problems.append(f"ledger has {len(ledger['t'])} rows, reference rows {ref['rows']}")
    else:
        for q in ("e2", "d2"):
            bad = [i for i, (a, b) in enumerate(zip(got[q], ref[q]))
                   if not math.isclose(a, b, rel_tol=REFERENCE_RTOL)]
            if bad:
                i = bad[0]
                problems.append(f"{q} at row {ref['rows'][i]} is {got[q][i]!r}, "
                                f"reference {ref[q][i]!r}")
    if got.get("picard_iterations") != ref.get("picard_iterations"):
        problems.append(f"Picard iterations {got.get('picard_iterations')}, "
                        f"reference {ref.get('picard_iterations')}")
    return problems
