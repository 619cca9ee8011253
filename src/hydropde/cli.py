"""Command line entry point.

Verbs: run, picard, spectrum, resolvent-sweep, diagnose, mms.
Exit codes: 0 success, 1 I/O or configuration failure, 2 blow-up (non-finite
state) abort, 3 Picard non-convergence or divergence.  For `pe run`, dt must
divide t_end and sample_every must be >= 1, and `pe mms --levels` must be
>= 1; other values exit 1.  `pe mms` marches with the config's scheme (not
picard).  numpy is the only runtime dependency.
"""

import argparse
import math
import sys

import numpy as np

from . import diagnostics as diag
from .config import (RunConfig, keyed_eigenmode, make_initial, manufactured_profile,
                     parse_config)
from .errors import ConfigurationError, DomainError, NanAbort
from .evolution import (
    K_CEILING,
    ForcingSpec,
    ImexConfig,
    PicardConfig,
    imex_run,
    make_manufactured,
    picard_solve,
)
from .fields import l2_norm
from .grid import Grid
from .io import read_ledger_csv, save_checkpoint, write_ledger_csv, write_report_json
from .stokes import StokesOperator


def _set_up(cfg: RunConfig):
    """(operator, initial data, forcing) of a run config; forcing is None when
    there is none, and ic = manufactured with forcing = mms starts from the
    manufactured solution's initial value."""
    grid = cfg.grid()
    op = StokesOperator(grid)
    a = make_initial(cfg.ic, grid)
    if cfg.forcing == "zero":
        return op, a, None
    if cfg.forcing == "single-mode":
        base = keyed_eigenmode(grid, "forcing", cfg.forcing_kx, cfg.forcing_ky,
                               cfg.forcing_m, cfg.forcing_amplitude)
        return op, a, ForcingSpec(base, cfg.forcing_rate)
    mms = make_manufactured(op, manufactured_profile(grid, cfg.ic))
    return op, mms.solution(0.0) if cfg.ic.kind == "manufactured" else a, mms


def _emit_outputs(cfg, ledger, extra):
    table = diag.build_records(ledger)
    write_ledger_csv(cfg.out_ledger, table)
    report = diag.summarize(table)
    report.update(extra)
    write_report_json(cfg.out_report, report)
    if cfg.out_checkpoint:
        save_checkpoint(cfg.out_checkpoint, ledger.states[-1])
    return report


def _trim_overflowed(ledger):
    """Drop trailing samples whose diagnostics overflow (blow-up aborts only)."""
    while len(ledger.coords) > 1:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                diag.ledger_sample(ledger, len(ledger.coords) - 1)
            break
        except ConfigurationError:
            for col in (*ledger.columns.values(), ledger.coords):
                col.pop()
    return ledger


def _load_config(path) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def _imex_config(cfg: RunConfig, dt, t_end, sample_every) -> ImexConfig:
    """cfg's march to t_end in steps of dt: its scheme sets the order, picard is refused."""
    if cfg.scheme == "picard":
        raise ConfigurationError("scheme = picard is the mild-solution iteration: "
                                 "run it with `pe picard`")
    return ImexConfig(dt=dt, t_end=t_end, order=1 if cfg.scheme == "imex1" else 2,
                      sample_every=sample_every, cfl_limit=cfg.cfl_limit)


def cmd_run(args):
    cfg = _load_config(args.config)
    icfg = _imex_config(cfg, cfg.dt, cfg.t_end, cfg.sample_every)
    op, a, forcing = _set_up(cfg)
    try:
        ledger = imex_run(a, forcing, icfg, op)
    except NanAbort as err:
        _emit_outputs(cfg, _trim_overflowed(err.ledger), extra={"status": "nan-abort"})
        print(f"aborted: {err}", file=sys.stderr)
        return 2
    del a  # the output stage reads the ledger alone
    _emit_outputs(cfg, ledger, extra={"status": "completed"})
    t, e2 = ledger.columns["t"][-1], ledger.columns["e2"][-1]
    print(f"completed t = {t:g}, E2 = {e2:.6e}")
    return 0


def cmd_picard(args):
    cfg = _load_config(args.config)
    op, a, forcing = _set_up(cfg)
    pcfg = PicardConfig(horizon=cfg.t_end, nodes=cfg.picard_nodes,
                        max_iterations=cfg.picard_max_iterations,
                        tolerance=cfg.picard_tolerance)
    ledger, report = picard_solve(a, forcing, pcfg, op)
    extra = {
        "status": ("converged" if report.converged
                   else "diverged" if report.diverged else "non-convergence"),
        "picard_iterations": report.iterations,
        "picard_k_history": list(report.k_history),
        "picard_changes": list(report.change_history),
    }
    _emit_outputs(cfg, ledger, extra=extra)
    if not report.converged:
        why = (f"diverged: k = {report.k_history[-1]:.6e} passed the ceiling {K_CEILING:g}"
               if report.diverged else "did not converge")
        print(f"Picard iteration {why}", file=sys.stderr)
        return 3
    print(f"converged in {report.iterations} iterations, "
          f"final k = {report.k_history[-1]:.6e}")
    return 0


def cmd_spectrum(args):
    op = StokesOperator(Grid(args.nx, args.ny, args.nz, args.h))
    rep = op.spectrum()
    print(f"beta = {rep.beta!r}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("kx,ky,eigenvalue\n")
            for (kx, ky), evs in rep.entries:
                for ev in evs:
                    fh.write(f"{kx},{ky},{float(ev)!r}\n")
    return 0


def cmd_resolvent_sweep(args):
    op = StokesOperator(Grid(args.nx, args.ny, args.nz, args.h))
    rep = op.sector_sweep(args.eps)
    with open(args.out, "w") as fh:
        fh.write("re_lambda,im_lambda,M_lambda\n")
        for lam, m in rep.rows:
            fh.write(f"{lam.real!r},{lam.imag!r},{m!r}\n")
    print(f"sup M = {rep.sup_m!r} (bound 1/sin(eps) = {1.0 / math.sin(args.eps)!r})")
    return 0


def cmd_diagnose(args):
    report = diag.summarize(read_ledger_csv(args.ledger))
    write_report_json(args.out, report)
    print(f"energy residual max = {report['energy_residual_max']:.3e}, "
          f"phi max = {report['phi_max']:.3e}")
    return 0


def cmd_mms(args):
    if args.levels < 1:
        raise ConfigurationError(f"--levels must be >= 1, got {args.levels}")
    cfg = _load_config(args.config) if args.config else RunConfig()
    grid = cfg.grid()
    op = StokesOperator(grid)
    mms = make_manufactured(op, manufactured_profile(grid, cfg.ic))
    errors = []
    dt = args.dt
    for _ in range(args.levels):
        icfg = _imex_config(cfg, dt, args.t_end, sample_every=10**9)
        try:
            ledger = imex_run(mms.solution(0.0), mms, icfg, op)
        except NanAbort as err:
            print(f"aborted: {err}", file=sys.stderr)
            return 2
        exact = mms.solution(ledger.columns["t"][-1])
        errors.append(l2_norm(ledger.states[-1] - exact) / l2_norm(exact))
        dt /= 2
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    report = {"dt_base": args.dt, "t_end": args.t_end,
              "errors": errors, "observed_orders": orders}
    if args.out:
        write_report_json(args.out, report)
    print("errors:", " ".join(f"{e:.3e}" for e in errors))
    print("observed orders:", " ".join(f"{o:.3f}" for o in orders))
    return 0


def _add_grid_args(p):
    p.add_argument("--nx", type=int, default=32)
    p.add_argument("--ny", type=int, default=32)
    p.add_argument("--nz", type=int, default=16)
    p.add_argument("--h", type=float, default=1.0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pe",
        description="Spectral solver and verification harness for the "
                    "hydrostatic primitive equations",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("run", help="march with the IMEX scheme")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("picard", help="iterate the mild-solution scheme")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_picard)

    p = sub.add_parser("spectrum", help="eigenvalues of the viscous operator")
    _add_grid_args(p)
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("resolvent-sweep", help="sectorial resolvent bound sweep")
    _add_grid_args(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_resolvent_sweep)

    p = sub.add_parser("diagnose", help="summarize a ledger CSV")
    p.add_argument("--ledger", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("mms", help="manufactured-solution convergence study")
    p.add_argument("--config", default="")
    p.add_argument("--dt", type=float, default=2e-3)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--t-end", dest="t_end", type=float, default=0.25)
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_mms)

    return parser


# glibc's mallopt parameter numbers (malloc.h)
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


def _keep_heap():
    """Keep the heap's freed pages for the rest of the process (Linux, glibc).

    By default glibc hands the top of the heap back to the kernel, so each
    march step faults its ~15 MB of short-lived arrays in afresh.  Fixing
    either threshold turns off glibc's dynamic thresholds, which alone is
    slower than the default, so both are set or neither: the trim threshold
    only once the mmap threshold is accepted.  A no-op off Linux and where
    the C library has no mallopt.
    """
    if not sys.platform.startswith("linux"):
        return
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    # arrays up to 32 MiB (DEFAULT_MMAP_THRESHOLD_MAX on 64-bit) come from
    # the heap, and up to 1 GiB of freed heap stays with the process
    if mallopt(M_MMAP_THRESHOLD, 32 << 20):
        mallopt(M_TRIM_THRESHOLD, 1 << 30)


def main(argv=None) -> int:
    _keep_heap()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ConfigurationError, DomainError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
