"""Record the reference values that run.py checks every run against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload once per input seed (0 .. POOL-1) and stores, per run,
the ledger's e2 and d2 at the compared rows and the Picard iteration count
in reference.json.  The stored file was produced on the commit named in its
"generated_from" field; regenerate it only when a change is meant to alter
these values, and say so with the change.
"""

import json
import shutil
import sys

from run import OUT, run_child, source_digest, git_commit
from workloads import POOL, REFERENCE_PATH, WORKLOADS, read_ledger, reference_entry


def record(w, seed):
    d = OUT / "reference" / f"{w.name}-{seed}"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    cfg = d / "run.cfg"
    cfg.write_text(w.config_text(seed, d))
    rc, wall, _, _ = run_child(["cli", w.verb, str(cfg), str(d / "result.json")], d)
    report = json.loads((d / "report.json").read_text())
    if rc != 0 or report.get("status") not in ("completed", "converged"):
        sys.exit(f"{w.name} seed {seed}: exit {rc}, status {report.get('status')!r}")
    entry = reference_entry(read_ledger(d / "ledger.csv"), report)
    print(f"{w.name} seed {seed}: {wall:.2f} s, {entry.get('picard_iterations', '')}",
          flush=True)
    shutil.rmtree(d)
    return entry


def main(names):
    ref = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    ref.update(generated_from={"git_commit": git_commit(), "src_sha256": source_digest()})
    table = ref.setdefault("workloads", {})
    for name in names or list(WORKLOADS):
        w = WORKLOADS[name]
        table[name] = {str(seed): record(w, seed) for seed in range(POOL)}
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
