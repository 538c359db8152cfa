"""Command-line driver: sweep | events | gme-single | amplitude.

Every subcommand takes ``--out-dir``; sweep, gme-single and amplitude also
take ``--config cfg.json``, and sweep ``--measures``.  events takes nothing
else: it re-reads the trace.csv in ``--out-dir`` and writes the events.json
the sweep wrote, byte for byte.  :mod:`entdyn.events` writes and reads the
trace files, :mod:`entdyn.sweep` reads the configs and writes the other
files, and this module parses arguments and dispatches.  Exit
codes: 0 success; 1 config or usage error (invalid JSON, an unknown
top-level key or a bad value, a malformed trace, an unknown flag or a
missing ``--config``); 2 numerical failure (an SDP solve that failed or did
not converge, a sweep worker that died); 3 I/O error (a missing file such
as a trace.csv, an unwritable directory).

At start-up this module loads only :mod:`entdyn.events`, which needs no
numpy, so events never loads it.  The names that do (``sweep``,
``run_sweep``, ``solve_gme``, ``_c0``, ``evolve_four``) load on first use
through the module ``__getattr__``, and the commands call them as
attributes of this module, where perfbench/trace_cli.py wraps them.  The
witness-SDP solver is imported only by the commands that solve: gme-single
and a sweep whose measures include gme.  The process pool is imported only
by a sweep with ``workers > 1`` and at least two batches of GME points.

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
import importlib
import os
import sys

from .events import detect_events, emit, read_trace, write_events

if not any(k in os.environ for k in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                       "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

# name -> (module, attribute or None for the module), each loading numpy.  No
# command calls _c0 or evolve_four: they are here only as wrap sites of
# perfbench/trace_cli.py, which also reaches them through entdyn.sweep.
_LAZY = {"sweep": ("entdyn.sweep", None), "run_sweep": ("entdyn.sweep", "run_sweep"),
         "solve_gme": ("entdyn.gme", "solve_gme"), "_c0": ("entdyn.amplitude", "c0"),
         "evolve_four": ("entdyn.evolution", "evolve_four")}


def __getattr__(name: str):
    if name in _LAZY:
        module, attr = _LAZY[name]
        module = importlib.import_module(module)
        return getattr(module, attr) if attr else module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_this = sys.modules[__name__]     # the commands call the lazy names through it

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


def _cmd_sweep(args) -> int:
    sweep = _this.sweep
    cfg = sweep.SweepConfig.from_dict(sweep.load_config(args.config))
    if args.measures:
        cfg = dataclasses.replace(cfg, measures=tuple(args.measures.split(",")))
    try:
        table = _this.run_sweep(cfg)
    except sweep.WorkerError as exc:
        print(f"worker failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    emit(table, detect_events(table), args.out_dir)
    for diag in table.diagnostics:
        print(f"sdp failure: {diag}", file=sys.stderr)
    return EXIT_NUMERICAL if table.diagnostics else EXIT_OK


def _cmd_events(args) -> int:
    write_events(detect_events(read_trace(args.out_dir)), args.out_dir)
    return EXIT_OK


def _cmd_gme_single(args) -> int:
    from .gme import SOLVE_ERRORS, GmeProblem

    sweep = _this.sweep
    cfg = sweep.GmeSingleConfig.from_dict(sweep.load_config(args.config))
    problem = GmeProblem(rho=cfg.state, tolerance=cfg.tolerance)
    if cfg.dump_problem:
        sweep.write_problem(problem, args.out_dir)
    try:
        solution = _this.solve_gme(problem)
    except SOLVE_ERRORS as exc:
        print(f"sdp failure: {sweep.write_gme_failure(exc, args.out_dir)}", file=sys.stderr)
        return EXIT_NUMERICAL
    sweep.write_gme(solution, problem.rho.dims, args.out_dir)
    return EXIT_OK


def _cmd_amplitude(args) -> int:
    sweep = _this.sweep
    cfg = sweep.AmplitudeConfig.from_dict(sweep.load_config(args.config))
    sweep.write_amplitude(cfg, args.out_dir)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors on ``EXIT_CONFIG``: its own code, 2,
    is ``EXIT_NUMERICAL`` here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        if name != "events":
            p.add_argument("--config", required=True, help="path to the JSON configuration")
        p.add_argument("--out-dir", default=".", help="output directory")
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
    except ValueError as exc:   # ConfigError, StateValidationError and JSONDecodeError too
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
