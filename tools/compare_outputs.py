"""Compare what `pe` writes when run from two source trees.

    python3 tools/compare_outputs.py BASE_SRC NEW_SRC

BASE_SRC and NEW_SRC are `src` directories, for example that of a second
checkout of the parent commit and this tree's `src`.  Each config runs
`hydropde.cli.main` in one fresh interpreter per tree, in a directory of
its own, with the same config text, so no git is needed.  For each run the
ledger, report, checkpoint, and stdout with the exit code are compared
byte for byte.  Prints `byte-identical`, or each differing file with the
largest relative move of each ledger column that moved, and exits 1 on any
difference.

The default configs are the three perfbench workloads at input seeds 0-2
and the small configs of SMALL, each under `pe run` and `pe picard`, plus
a forced random-band `pe picard`.
"""

import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench.workloads import WORKLOADS, read_ledger  # noqa: E402

OUTPUTS = "out_ledger = ledger.csv\nout_report = report.json\nout_checkpoint = final.ckpt\n"

# small grids: t_end covers five IMEX steps or one 9-node Picard horizon
_SMALL_RUN = "nx = 8\nny = 8\nnz = 4\ndt = 1e-3\nt_end = 5e-3\nsample_every = 1\npicard_nodes = 9\n"
SMALL = {
    "manufactured": _SMALL_RUN + "ic = manufactured\nforcing = mms\nforcing_amplitude = 1\n",
    "shear": _SMALL_RUN + "ic = shear\nic_kx = 2\nic_m = 1\namplitude = 1e-2\n",
    "eigenmode-forced": _SMALL_RUN + (
        "ic = eigenmode\nic_kx = 1\nic_ky = -2\namplitude = 1e-2\nforcing = single-mode\n"
        "forcing_kx = -1\nforcing_ky = 2\nforcing_amplitude = 1e-2\n"),
    "dealias-1": ("nx = 12\nny = 10\nnz = 6\ndealias = 1\ndt = 1e-3\nt_end = 5e-3\n"
                  "sample_every = 1\npicard_nodes = 9\nic = random-band\namplitude = 1e-2\n"),
}


def default_configs():
    """(name, verb, config text) of every default run."""
    configs = [(f"{name}-seed{seed}", w.verb, w.config_text(seed, Path(".")))
               for name, w in WORKLOADS.items() for seed in range(3)]
    configs += [(f"{name}-{verb}", verb, text + OUTPUTS)
                for name, text in SMALL.items() for verb in ("run", "picard")]
    configs.append(("random-band-forced-picard", "picard", _SMALL_RUN + (
        "ic = random-band\nseed = 5\namplitude = 1e-2\nforcing = single-mode\n"
        "forcing_kx = 2\nforcing_ky = 1\nforcing_m = 1\nforcing_amplitude = 1e-2\n") + OUTPUTS))
    return configs


def run(src, verb, text, workdir):
    """Run `pe VERB --config` on text in workdir from the tree src; {file name: bytes}."""
    workdir.mkdir(parents=True)
    (workdir / "run.cfg").write_text(text)
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hydropde.cli; sys.exit(hydropde.cli.main())",
         verb, "--config", "run.cfg"], cwd=workdir, env=env, capture_output=True)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir()) if p.name != "run.cfg"}
    files["stdout"] = proc.stdout + f"exit code {proc.returncode}\n".encode()
    return files


def ledger_moves(a, b):
    """'column: largest relative move' of each column of ledgers a and b that moved."""
    moves = []
    for col in sorted(a.keys() | b.keys()):
        xs, ys = a.get(col, []), b.get(col, [])
        if len(xs) != len(ys):
            moves.append(f"{col}: {len(xs)} rows in base, {len(ys)} in new")
            continue
        rel = max((abs(x - y) / max(abs(x), abs(y)) for x, y in zip(xs, ys)
                   if x != y and not (math.isnan(x) and math.isnan(y))), default=0.0)
        if rel:
            moves.append(f"{col}: {rel:.3e}")
    return moves


def compare(base_src, new_src, configs):
    """The differences of each config's outputs between the two trees; [] if byte-identical."""
    lines = []
    with tempfile.TemporaryDirectory() as d:
        for name, verb, text in configs:
            dirs = [Path(d, side, name) for side in ("base", "new")]
            base, new = (run(src, verb, text, w) for src, w in zip((base_src, new_src), dirs))
            for file in sorted(base.keys() | new.keys()):
                if base.get(file) == new.get(file):
                    continue
                lines.append(f"{name}: {file} differs")
                if file.endswith(".csv") and file in base and file in new:
                    lines += [f"    {move}" for move in
                              ledger_moves(*(read_ledger(w / file) for w in dirs))]
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    lines = compare(*argv, default_configs())
    print("\n".join(lines) if lines else "byte-identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
