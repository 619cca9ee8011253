"""hydropde benchmark: runs the `pe` CLI on seeded workloads and checks its outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S   # both modes

Run from anywhere; the repository root is the parent of this directory and
the package is imported from its `src/`.  With --trace 0 every sample is one
untraced `pe` process and the end-to-end metrics are printed; with --trace 1
traced and untraced processes alternate, the per-layer sweep runs once, and
the per-layer metrics are printed.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from workloads import (
    END_TO_END, LAYER_SPANS, SPAN_METRICS, SWEEP_COLUMNS, SWEEP_GRIDS, WORKLOADS,
    check_outputs, grid_tag, ic_seed, load_reference, per_layer_names,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

MIN_SAMPLES = 3           # untraced samples per --trace 0 run, even past --seconds
PROBES = 2                # extra processes per untraced sample that time the
PROBE_SETUP_BELOW_S = 1.0  # import, and also the set-up while it is this cheap
HARD_LIMIT_S = 150        # no sample starts, and none runs on, past this
THREAD_ENV = {"PE_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# ROADMAP baseline table (ms, measured on the 2-CPU development machine with
# numpy 2.4.6 and PE_THREADS=1; its noise is about +-20%)
ROADMAP_MS = {
    "16x16x8": (11, 2.4, 0.44, 0.24, 2.4, 4.2),
    "32x32x16": (256, 5.5, 4.9, 2.5, 16.4, 17.7),
    "64x64x16": (1000, 37, 26, 19, 73, 84),
    "64x64x32": (4185, 81, 74, 46, 230, 206),
}


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
    # imports are timed from byte-compiled modules, as an installed package has
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(args, workdir, timeout=HARD_LIMIT_S):
    """Run child.py in a fresh interpreter; (exit code, wall s, CPU s, peak RSS MB).

    The CPU time is user plus system time of the process, from `os.wait4`.

    A child still running after `timeout` seconds is killed.
    """
    with open(workdir / "stderr.txt", "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                                cwd=workdir, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024


def stderr_tail(workdir, lines=5):
    text = (workdir / "stderr.txt").read_text(errors="replace").strip().splitlines()
    return " | ".join(text[-lines:])


class Sampler:
    """Runs samples of one workload, each in its own directory, and checks them."""

    def __init__(self, w, seed, reference):
        self.w, self.seed, self.reference = w, seed, reference
        self.hard_deadline = perf_counter() + HARD_LIMIT_S
        self.base = OUT / "work" / f"{w.name}-{os.getpid()}"
        self.count = 0
        self.attempted = 0
        self.problems = []

    def may_start(self):
        return perf_counter() < self.hard_deadline

    def _run(self, args, d):
        return run_child(args, d, timeout=self.hard_deadline - perf_counter())

    def _keep_failed(self, d):
        dest = OUT / "failed" / f"{self.w.name}-seed{self.seed}-{os.getpid()}-{d.name}"
        dest.parent.mkdir(parents=True, exist_ok=True)
        shutil.move(str(d), str(dest))
        return dest

    def _fresh_dir(self):
        self.count += 1
        d = self.base / f"s{self.count}"
        d.mkdir(parents=True)
        return d

    def cli(self, traced, spans_path=None):
        """One `pe` process; returns its measurements, or None if it failed."""
        d = self._fresh_dir()
        cfg = d / "run.cfg"
        cfg.write_text(self.w.config_text(self.seed, d))
        mode = ["trace", self.w.verb, str(cfg), str(d / "result.json"), str(spans_path)] \
            if traced else ["cli", self.w.verb, str(cfg), str(d / "result.json")]
        rc, wall, cpu, rss = self._run(mode, d)
        self.attempted += 1
        problems = check_outputs(self.w, self.seed, rc, d, self.reference)
        sample = None
        if not problems:
            sample = json.loads((d / "result.json").read_text())
            if "solve_s" not in sample or "setup_rss_rise_mb" not in sample:
                problems.append("the set-up or integrator hook never ran")
            sample.update(wall_s=wall, cpu_s=cpu, peak_rss_mb=rss,
                          ledger_bytes=(d / "ledger.csv").stat().st_size,
                          checkpoint_bytes=(d / "final.ckpt").stat().st_size)
            if traced:
                problems += coverage_problems(self.w, sample)
        if problems:
            tail = f" [stderr: {stderr_tail(d)}]" if rc != 0 else ""
            kind = "traced" if traced else "untraced"
            self.problems.append(f"sample {self.count} ({kind}): " + "; ".join(problems)
                                 + tail + f" [kept in {self._keep_failed(d)}]")
            return None
        shutil.rmtree(d)
        return sample

    def probe(self, setup=False):
        """{import_s[, setup_s]} of one process that imports the package and,
        if `setup`, sets up the workload's operator; None if it failed."""
        d = self._fresh_dir()
        grid = [str(n) for n in self.w.grid] if setup else []
        rc, _, _, _ = self._run(["probe", str(d / "probe.json"), *grid], d)
        if rc != 0:
            return None
        times = json.loads((d / "probe.json").read_text())
        shutil.rmtree(d)
        return times

    def sweep(self):
        d = self._fresh_dir()
        rc, _, _, _ = self._run(["sweep", str(self.seed), str(d / "sweep.json")], d)
        self.attempted += 1
        if rc != 0:
            self.problems.append(f"sweep exited {rc} [stderr: {stderr_tail(d)}]"
                                 f" [kept in {self._keep_failed(d)}]")
            return None
        rows = json.loads((d / "sweep.json").read_text())
        shutil.rmtree(d)
        return rows

    def close(self):
        shutil.rmtree(self.base, ignore_errors=True)


def span_stat(spans, key, stat):
    return sum(spans.get(name, {}).get(stat, 0) for name in LAYER_SPANS[key])


def coverage_problems(w, sample):
    """Named per-layer spans that recorded no call where the workload predicts work."""
    installed = set(sample["installed"])
    problems = []
    for key in w.expect:
        names = LAYER_SPANS[key]
        if not installed.intersection(names):
            problems.append(f"coverage: no function {' or '.join(names)} to trace")
        elif span_stat(sample["spans"], key, "calls") == 0:
            problems.append(f"coverage: {key} recorded no calls")
    return problems


def median(samples, key):
    vals = [s[key] for s in samples]
    return statistics.median(vals), len(vals), min(vals), max(vals)


def rounds(sampler, seconds, minimum):
    """Count rounds until `seconds` are used: a round starts only if it
    should end less than half a round past the deadline."""
    deadline = perf_counter() + seconds
    n, last = 0, 0.0
    while sampler.may_start() and (n < minimum or perf_counter() + last / 2 < deadline):
        t0 = perf_counter()
        yield n
        n, last = n + 1, perf_counter() - t0


def end_to_end(sampler, seconds):
    samples, probes = [], []
    for _ in rounds(sampler, seconds, MIN_SAMPLES):
        s = sampler.cli(traced=False)
        if s is None:
            continue
        samples.append(s)
        cheap = statistics.median(x["setup_s"] for x in samples) < PROBE_SETUP_BELOW_S
        probes += [p for p in (sampler.probe(cheap) for _ in range(PROBES)) if p]
    pooled = {"import_s": samples + probes,
              "setup_s": samples + [p for p in probes if "setup_s" in p]}
    # wall_s is printed beside the metrics, not reported: see README.md
    return {name: (*median(pooled.get(name, samples), name), unit)
            for name, unit in [*END_TO_END, ("wall_s", "s")] if samples}


def per_layer(sampler, seconds):
    t0 = perf_counter()
    sweep = sampler.sweep()
    traced, plain, overheads = [], [], []
    spans_path = OUT / "results" / f"{sampler.w.name}-seed{sampler.seed}-spans.csv"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    for _ in rounds(sampler, seconds - (perf_counter() - t0), 1):
        p = sampler.cli(traced=False)
        if p is not None:
            plain.append(p)
        s = sampler.cli(traced=True, spans_path=spans_path)
        if s is not None:
            traced.append(s)
        if p is not None and s is not None:
            # paired within a round, so the machine's drift mostly cancels
            overheads.append(s["cpu_s"] - p["cpu_s"])
    table = {}
    if traced and plain:
        def add(name, unit, vals):
            table[name] = (statistics.median(vals), len(vals), min(vals), max(vals), unit)

        add("stokes.setup.ms", "ms", [s["spans"]["stokes.setup"]["ms"] for s in traced])
        add("stokes.setup.rss_rise_mb", "MB", [s["setup_rss_rise_mb"] for s in traced])
        for name, unit, key, stat in SPAN_METRICS:
            add(name, unit, [span_stat(s["spans"], key, stat) for s in traced])
        add("io.write_ledger_csv.bytes", "bytes", [s["ledger_bytes"] for s in traced])
        add("io.save_checkpoint.bytes", "bytes", [s["checkpoint_bytes"] for s in traced])
        add("trace.cpu_s", "s", [s["cpu_s"] for s in traced])
        add("trace.untraced_cpu_s", "s", [s["cpu_s"] for s in plain])
        if overheads:
            add("trace.overhead_s", "s", overheads)
    if sweep is not None and table:
        for g in SWEEP_GRIDS:
            for c in SWEEP_COLUMNS:
                v = sweep[grid_tag(g)][c]
                table[f"sweep.{grid_tag(g)}.{c}.ms"] = (v, 1, v, v, "ms")
    return table, sweep


def source_digest():
    h = hashlib.sha256()
    for p in sorted((SRC / "hydropde").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(w, seed):
    from importlib import metadata

    import numpy as np

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = None
    return {
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": blas,
        "threads": THREAD_ENV,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "seed": seed,
        "ic_seed": ic_seed(seed),
        "workload": w.name,
        "verb": w.verb,
        "grid": list(w.grid),
        "steps": w.steps,
        "samples": w.samples,
    }


def print_table(title, table):
    print(title)
    for name, (value, n, lo, hi, unit) in table.items():
        spread = f"  (median of {n}, min {lo:.6g}, max {hi:.6g})" if n > 1 else ""
        print(f"  {name:42s} {value:14.6f} {unit}{spread}")


def print_sweep(sweep):
    print("  per-layer sweep, ms (ROADMAP figure in brackets, its noise +-20%):")
    print("  " + f"{'grid':10s}" + "".join(f"{c:>20s}" for c in SWEEP_COLUMNS))
    for g in SWEEP_GRIDS:
        tag = grid_tag(g)
        cells = "".join(f"{sweep[tag][c]:11.2f} [{ref:6g}]"
                        for c, ref in zip(SWEEP_COLUMNS, ROADMAP_MS[tag]))
        print(f"  {tag:10s}{cells}")


def run_workload(w, seed, seconds, trace, reference):
    sampler = Sampler(w, seed, reference)
    try:
        # byte-compile the package and warm the file cache; a failure here
        # shows again, and is counted, in the first sample
        sampler.probe()
        sweep = None
        if trace:
            table, sweep = per_layer(sampler, seconds)
            wanted = per_layer_names()
        else:
            table = end_to_end(sampler, seconds)
            wanted = END_TO_END
    finally:
        sampler.close()
    env = environment(w, seed)
    failed = len(sampler.problems)
    missing = [name for name, _ in wanted if name not in table]
    correct = failed == 0 and not missing
    print(f"perfbench {w.name} seed {seed} (input seed {ic_seed(seed)}) trace {trace}: "
          f"{sampler.attempted} processes, {failed} failed")
    print("  env " + json.dumps(env, sort_keys=True))
    for p in sampler.problems:
        print(f"  FAILED {p}")
    if missing:
        print(f"  FAILED no value for {', '.join(missing)}")
    print_table("  metrics:", table)
    if sweep is not None:
        print_sweep(sweep)
    result = {
        "correct": correct,
        "attempted": sampler.attempted,
        "failed": failed,
        "metrics": {name: {"value": table[name][0], "unit": unit}
                    for name, unit in wanted if name in table},
    }
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    record = dict(result, env=env, problems=sampler.problems,
                  table={k: list(v) for k, v in table.items()}, sweep=sweep)
    OUT.joinpath("results", f"{w.name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "hydropde" / "cli.py").is_file():
        print(f"perfbench: no hydropde package under {SRC}", file=sys.stderr)
        return 2
    reference = load_reference()
    if args.workload != "all":
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              args.trace, reference)
        print(json.dumps(result))
        return 0
    ok = True
    for w in WORKLOADS.values():
        for trace in (0, 1):
            result = run_workload(w, args.seed, args.seconds, trace, reference)
            print(json.dumps(result))
            ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
