"""One measured process, started fresh by run.py for every sample.

    child.py cli    VERB CONFIG RESULT          # `pe VERB --config CONFIG`, untraced
    child.py trace  VERB CONFIG RESULT SPANS    # the same, with every layer traced
    child.py sweep  SEED RESULT                 # the per-layer sweep over grids
    child.py probe  RESULT [NX NY NZ]           # `import hydropde.cli` [and set-up]

The cli and trace modes time `import hydropde.cli` (nothing but builtin
modules is imported before it), then run `hydropde.cli.main`, the `pe` entry
point, with two hooks on the names `cli` looks up:

- `StokesOperator` is timed as it is built, and before the integrator runs
  `op.eigenvalues_split()` is called on the same operator, so the lazily
  cached eigendecomposition is timed as set-up;
- `imex_run` / `picard_solve` run under one timer, the solve time.

The probe mode times the import alone and, given a grid, then times
`StokesOperator(Grid(NX, NY, NZ)).eigenvalues_split()`.  RESULT receives a
JSON object; the exit code is the CLI's.

Import, set-up and solve are timed in CPU seconds of the process
(`time.process_time`).  The program runs on one thread, so that is its wall
time on a free core, without the time a shared host gives to other tenants.
The sweep is timed in wall seconds, like the ROADMAP table it reproduces.
"""

import os
import sys
from time import perf_counter, process_time

# only builtin modules are loaded before `import hydropde.cli` is timed
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _current_rss_mb():
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, IndexError):
        return _peak_rss_mb()


def _peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _import_cli():
    t0 = process_time()
    import hydropde.cli as cli
    import_s = process_time() - t0
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"hydropde imported from {cli.__file__}, not from {SRC}")
    return cli, import_s


def _install_hooks(cli, span, timings):
    make_operator = cli.StokesOperator

    def operator(grid):
        t0 = process_time()
        with span("stokes.setup"):
            op = make_operator(grid)
        timings["setup_s"] += process_time() - t0
        return op

    def timed(integrate):
        def run(*args, **kwargs):
            op = args[3] if len(args) > 3 else kwargs.get("op")
            if op is not None:
                rss0 = _current_rss_mb()
                t0 = process_time()
                with span("stokes.setup"):
                    op.eigenvalues_split()
                timings["setup_s"] += process_time() - t0
                timings["setup_rss_rise_mb"] = _peak_rss_mb() - rss0
            t0 = process_time()
            try:
                return integrate(*args, **kwargs)
            finally:
                timings["solve_s"] = process_time() - t0
        return run

    cli.StokesOperator = operator
    cli.imex_run = timed(cli.imex_run)
    cli.picard_solve = timed(cli.picard_solve)


def run_cli(verb, config, result, spans_path=None):
    tracer = None
    if spans_path is not None:
        from tracer import Tracer
        tracer = Tracer()
    cli, import_s = _import_cli()

    from contextlib import nullcontext

    installed = tracer.instrument() if tracer else []
    span = tracer.span if tracer else (lambda name: nullcontext())
    timings = {"import_s": import_s, "setup_s": 0.0}
    _install_hooks(cli, span, timings)
    rc = cli.main([verb, "--config", config])

    import json

    out = dict(timings, rc=rc)
    if tracer:
        out["spans"] = tracer.aggregate()
        out["installed"] = installed
        tracer.write(spans_path)
    with open(result, "w") as fh:
        json.dump(out, fh)
    return rc


def _median_ms(fn, reps):
    from statistics import median

    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(1e3 * (perf_counter() - t0))
    return median(times)


# grid -> (repetitions of each timed call, extra IMEX steps in the difference)
SWEEP = {(16, 16, 8): (9, 8), (32, 32, 16): (7, 6), (64, 64, 16): (3, 3),
         (64, 64, 32): (3, 2)}


def run_sweep(seed, result):
    """The ROADMAP baseline table: per-grid costs of the hot calls, in ms.

    imex_step is the cost of one step of `imex_run`'s march: the difference
    between runs of 1 + k and 1 steps (sampled only at the end), over k.
    record is one sample of the ledger: pressure recovery plus
    `diagnostics.record`.
    """
    _import_cli()
    from hydropde import Grid, ImexConfig, StokesOperator, imex_run
    from hydropde.config import InitialConditionSpec, make_initial
    from hydropde.diagnostics import record, trajectory_pressure
    from hydropde.nonlinear import F, NonlinearWorkspace

    rows = {}
    for (nx, ny, nz), (reps, k) in SWEEP.items():
        t0 = perf_counter()
        g = Grid(nx, ny, nz)
        op = StokesOperator(g)
        _, mu = op.eigenvalues_split()
        setup = 1e3 * (perf_counter() - t0)
        a = make_initial(InitialConditionSpec("random-band", 1e-3, seed=seed), g)
        ws = NonlinearWorkspace(g)
        F(a, ws)
        y0, y = op.to_eigen(a)
        dt = 0.2 / float(mu.max())

        def march(n):
            return lambda: imex_run(a, None, ImexConfig(dt=dt, t_end=n * dt,
                                                        sample_every=10**9), op)

        imex_reps = max(2, reps // 2)
        rows[f"{nx}x{ny}x{nz}"] = {
            "setup": setup,
            "F": _median_ms(lambda: F(a, ws), reps),
            "to_eigen": _median_ms(lambda: op.to_eigen(a), reps),
            "from_eigen": _median_ms(lambda: op.from_eigen(y0, y), reps),
            "imex_step": (_median_ms(march(1 + k), imex_reps)
                          - _median_ms(march(1), imex_reps)) / k,
            "record": _median_ms(lambda: record(a, 0.0, trajectory_pressure(a)), reps),
        }

    import json

    with open(result, "w") as fh:
        json.dump(rows, fh)
    return 0


def main(argv):
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        return run_cli(*rest)
    if mode == "trace":
        return run_cli(*rest[:3], spans_path=rest[3])
    if mode == "sweep":
        return run_sweep(int(rest[0]), rest[1])
    if mode == "probe":
        out = {"import_s": _import_cli()[1]}
        if len(rest) > 1:
            from hydropde import Grid, StokesOperator

            t0 = process_time()
            StokesOperator(Grid(*map(int, rest[1:4]))).eigenvalues_split()
            out["setup_s"] = process_time() - t0
        import json

        with open(rest[0], "w") as fh:
            json.dump(out, fh)
        return 0
    sys.exit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
