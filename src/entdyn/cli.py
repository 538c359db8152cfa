"""Command-line driver: sweep | events | gme-single | amplitude.

Every subcommand takes ``--config cfg.json`` plus ``--out-dir`` and
``--format``; :mod:`entdyn.sweep` reads the configs and writes the files, and
this module parses arguments and dispatches.  Exit codes: 0 success; 1 config
error (invalid JSON, an unknown top-level key or a bad value, a malformed
trace); 2 numerical failure (an SDP solve that failed or did not converge, a
sweep worker that died); 3 I/O error (a missing file, an unwritable directory).

The witness-SDP solver is imported only by the commands that solve: gme-single
and a sweep whose measures include gme.  The process pool is imported only by
a sweep with ``workers > 1``.

Threads: the solves are many small dense problems (blocks of at most 16,
Schur blocks of at most 256), which a second BLAS thread does not speed up
but which it slows down when the other cores are busy.  So before numpy
loads, this module sets ``OPENBLAS_NUM_THREADS=1`` unless the user set one
of the variables OpenBLAS reads (``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS``, ``OMP_NUM_THREADS``); pool workers inherit it, so
``workers`` is the one source of parallelism.  Importing the library
(``import entdyn``) sets nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

if not any(k in os.environ for k in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                       "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import sweep  # noqa: E402  (loads numpy, after the thread default)

# perfbench/trace_cli.py times the commands by wrapping these names here;
# _c0 and evolve_four are reached through entdyn.sweep, where it wraps them too
from .amplitude import c0 as _c0  # noqa: E402, F401
from .evolution import evolve_four  # noqa: E402, F401
from .sweep import detect_events, emit, run_sweep, solve_gme  # noqa: E402

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


def _cmd_sweep(args) -> int:
    cfg = sweep.SweepConfig.from_dict(sweep.load_config(args.config))
    if args.measures:
        cfg = dataclasses.replace(cfg, measures=tuple(args.measures.split(",")))
    table = run_sweep(cfg)
    report = detect_events(table, cfg.tolerances)
    emit(table, report, args.out_dir, args.format)
    for diag in table.diagnostics:
        print(f"sdp failure: {diag}", file=sys.stderr)
    return EXIT_NUMERICAL if table.diagnostics else EXIT_OK


def _cmd_events(args) -> int:
    cfg = sweep.SweepConfig.from_dict(sweep.load_config(args.config)) if args.config else None
    table = sweep.read_trace(args.out_dir)
    sweep.write_events(detect_events(table, cfg.tolerances if cfg else None), args.out_dir)
    return EXIT_OK


def _cmd_gme_single(args) -> int:
    from .gme import SOLVE_ERRORS, GmeProblem

    cfg = sweep.GmeSingleConfig.from_dict(sweep.load_config(args.config))
    problem = GmeProblem(rho=cfg.state, tolerance=cfg.tolerance)
    if cfg.dump_problem:
        sweep.write_problem(problem, cfg.symmetry_reduction, args.out_dir)
    try:
        solution = solve_gme(problem, symmetry_reduction=cfg.symmetry_reduction)
    except SOLVE_ERRORS as exc:
        print(f"sdp failure: {sweep.write_gme_failure(exc, args.out_dir)}", file=sys.stderr)
        return EXIT_NUMERICAL
    sweep.write_gme(solution, problem.rho.dims, args.out_dir)
    return EXIT_OK


def _cmd_amplitude(args) -> int:
    cfg = sweep.AmplitudeConfig.from_dict(sweep.load_config(args.config))
    sweep.write_amplitude(cfg, args.out_dir)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entdyn",
        description="Entanglement dynamics of cavity-reservoir qubit pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("sweep", _cmd_sweep),
        ("events", _cmd_events),
        ("gme-single", _cmd_gme_single),
        ("amplitude", _cmd_amplitude),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=(name != "events"), default=None,
                       help="path to the JSON configuration")
        p.add_argument("--out-dir", default=".", help="output directory")
        p.add_argument("--format", default="csv", choices=("csv", "json"),
                       help="trace table format (events are always JSON)")
        if name == "sweep":
            p.add_argument("--measures", default=None,
                           help="comma-separated override of the measures to "
                                "compute (e.g. cc,rr to skip the SDP)")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except sweep.WorkerError as exc:
        print(f"worker failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:   # ConfigError, StateValidationError and JSONDecodeError too
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
