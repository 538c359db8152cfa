"""Command-line driver: sweep | events | gme-single | amplitude.

Every subcommand takes ``--config cfg.json`` plus ``--out-dir`` and
``--format``.  Exit codes: 0 success, 1 config error, 2 numerical failure
(any SDP non-convergence), 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .amplitude import AmplitudeModel, c0 as _c0, c_excitation as _cexc
from .evolution import evolve_four
from .gme import (
    GmeProblem,
    SdpNonConvergenceError,
    SdpNumericalError,
    problem_json_dict,
    solve_gme,
)
from .states import (
    DensityMatrix,
    StateValidationError,
    biseparable_bell_mixture,
    ghz_state,
    kay_state,
)
from .sweep import (
    CSV_HEADER,
    ConfigError,
    SweepConfig,
    SweepTable,
    Tolerances,
    _parse_initial_state,
    detect_events,
    emit,
    run_sweep,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


def _load_config(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    return doc


def _cmd_sweep(args) -> int:
    doc = _load_config(args.config)
    if args.measures:
        doc["measures"] = args.measures.split(",")
    cfg = SweepConfig.from_dict(doc)
    table = run_sweep(cfg)
    report = detect_events(table, cfg.tolerances)
    emit(table, report, args.out_dir, args.format)
    if table.diagnostics:
        for diag in table.diagnostics:
            print(f"sdp failure: {diag}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_events(args) -> int:
    doc = _load_config(args.config) if args.config else {}
    tol = Tolerances.from_dict(doc.get("tolerances"))
    csv_path = os.path.join(args.out_dir, "trace.csv")
    if os.path.exists(csv_path):
        table = _read_trace_csv(csv_path)
    else:
        table = _read_trace_json(os.path.join(args.out_dir, "trace.json"))
    report = detect_events(table, tol)
    events_path = os.path.join(args.out_dir, "events.json")
    with open(events_path, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
        fh.write("\n")
    return EXIT_OK


def _read_trace_csv(path: str) -> SweepTable:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"{path} does not start with the header {CSV_HEADER!r}")
    cols: list[list[float]] = [[], [], [], [], []]
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 5:
            raise ConfigError(f"bad trace row: {ln!r}")
        for col, part in zip(cols, parts):
            col.append(float(part) if part else math.nan)
    arrs = [np.asarray(col) for col in cols]
    return SweepTable(*arrs)


def _read_trace_json(path: str) -> SweepTable:
    with open(path) as fh:
        doc = json.load(fh)
    names = CSV_HEADER.split(",")
    if not isinstance(doc, dict) or set(doc) != set(names):
        raise ConfigError(f"{path} does not hold the columns {names}")
    try:
        arrs = [np.array([math.nan if v is None else float(v) for v in doc[name]])
                for name in names]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad trace column in {path}: {exc}") from exc
    if len({a.size for a in arrs}) != 1:
        raise ConfigError(f"{path} columns differ in length")
    return SweepTable(*arrs)


def _state_from_config(doc: dict) -> DensityMatrix:
    spec = doc.get("state")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("gme-single config needs a 'state' object with a 'kind'")
    kind = spec["kind"]
    try:
        if kind == "matrix":
            return DensityMatrix.from_json_dict(spec["matrix"])
        if kind == "ghz":
            return ghz_state(int(spec.get("n", 3)))
        if kind == "kay":
            return kay_state(float(spec["alpha"]))
        if kind == "biseparable_bell_mixture":
            return biseparable_bell_mixture()
        if kind == "evolved":
            s0 = _parse_initial_state(spec["initial_state"])
            model = AmplitudeModel(1.0, float(spec["x"]))
            return evolve_four(s0, model, float(spec["gamma0_t"]))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, StateValidationError) as exc:
        raise ConfigError(f"invalid state spec: {exc}") from exc
    raise ConfigError(f"unknown state kind {kind!r}")


def _cmd_gme_single(args) -> int:
    doc = _load_config(args.config)
    rho = _state_from_config(doc)
    problem = GmeProblem(rho=rho, tolerance=float(doc.get("tolerance", 1e-7)))
    reduction = bool(doc.get("symmetry_reduction", True))
    os.makedirs(args.out_dir, exist_ok=True)
    if doc.get("dump_problem", False):
        with open(os.path.join(args.out_dir, "sdp_problem.json"), "w") as fh:
            json.dump(problem_json_dict(problem, reduction), fh, indent=2)
            fh.write("\n")
    out_path = os.path.join(args.out_dir, "gme.json")
    try:
        sol = solve_gme(problem, symmetry_reduction=reduction)
    except (SdpNonConvergenceError, SdpNumericalError) as exc:
        payload = {"error": f"{type(exc).__name__}: {exc}"}
        if isinstance(exc, SdpNonConvergenceError):
            payload["best_bound"] = exc.best_bound
        with open(out_path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"sdp failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    payload = {
        "objective": sol.objective,
        "genuine_negativity": sol.genuine_negativity,
        "dual_objective": sol.dual_objective,
        "iterations": sol.iterations,
        "converged": sol.converged,
        "reduced": sol.reduced,
        "num_variables": sol.num_variables,
        "residuals": {k: float(v) for k, v in sol.residuals.items()},
        "witness": {
            "dims": list(rho.dims),
            "re": sol.witness.real.tolist(),
            "im": sol.witness.imag.tolist(),
        },
    }
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return EXIT_OK


def _cmd_amplitude(args) -> int:
    doc = _load_config(args.config)
    try:
        x = float(doc["x"])
        tmax = float(doc.get("gamma0_t_max", 10.0))
        steps = int(doc.get("steps", 400))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid amplitude config: {exc}") from exc
    if steps < 2 or tmax <= 0:
        raise ConfigError("need steps >= 2 and gamma0_t_max > 0")
    model = AmplitudeModel(1.0, x)
    ts = np.linspace(0.0, tmax, steps + 1)
    a = np.asarray(_c0(model, ts))
    c = np.asarray(_cexc(model, ts))
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "amplitude.csv")
    lines = ["gamma0_t,c0,c"]
    for row in zip(ts, a, c):
        lines.append(",".join(f"{v:.12g}" for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
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
    except (ConfigError, StateValidationError, ValueError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
