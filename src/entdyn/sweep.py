"""Time-grid sweeps with sudden-death / sudden-birth / freezing detection,
and every config and file of the ``entdyn`` command line.

All times are the dimensionless ``gamma0 * t``; the relaxation rate never
appears separately in sweep input or output.  The GME points of a sweep are
solved in batches of consecutive points, which can be distributed over a
worker pool.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import typing
from dataclasses import dataclass, field

import numpy as np

from .amplitude import AmplitudeModel, c0 as _c0, c_excitation as _cexc
from .entanglement import ZERO_ENTANGLEMENT_TOL, negativity_xstate
from .evolution import evolve_cc, evolve_four, evolve_rr
from .states import (DensityMatrix, XState, biseparable_bell_mixture, ghz_state, json_exact,
                     json_number, kay_state, pure_alpha_beta, werner, x_state)

if typing.TYPE_CHECKING:
    from .gme import GmeProblem, GmeSolution

__all__ = [
    "ConfigError",
    "WorkerError",
    "SDP_TOLERANCE",
    "GME_BATCH",
    "SweepConfig",
    "GmeSingleConfig",
    "AmplitudeConfig",
    "SweepTable",
    "EventReport",
    "solve_gme",
    "load_config",
    "run_sweep",
    "detect_events",
    "emit",
    "write_events",
    "read_trace",
    "write_problem",
    "write_gme",
    "write_gme_failure",
    "write_amplitude",
    "CSV_HEADER",
]

CSV_HEADER = "gamma0_t,c0,e_cc,e_rr,e_gme"
_COLUMNS = CSV_HEADER.split(",")

_MEASURES = ("cc", "rr", "gme")

# The default of both configs' SDP tolerance: GmeProblem.tolerance, written
# here so that reading a config does not import the solver
SDP_TOLERANCE = 1e-7

# Event-detection thresholds; a value at or below ZERO_ENTANGLEMENT_TOL
# counts as zero.  The slope threshold must sit well below the curvature
# scale of smooth maxima (which are not freezes) and well above solver noise
# on true locked plateaus; 1e-5 separates the two by orders of magnitude
# even for strongly non-Markovian sweeps where the dynamics slows down.
_PLATEAU_SLOPE = 1e-5       # per unit gamma0*t
_PLATEAU_DWELL = 0.5        # minimum plateau length in gamma0*t

# GME points per batch.  A sweep cuts its GME points into batches of this
# many consecutive points whatever ``workers`` is, so that its output does
# not depend on the pool: a point's value can differ at round-off between
# batches of other sizes.
GME_BATCH = 16


class ConfigError(ValueError):
    """Invalid configuration or trace file."""


class WorkerError(RuntimeError):
    """A worker process of a sweep's pool died before the sweep finished."""


def load_config(path):
    """The JSON document at ``path``; the ``from_dict`` methods check its shape."""
    with open(path) as fh:
        return json.load(fh)


def _json_strings(v) -> tuple[str, ...]:
    if type(v) is not list or not all(type(s) is str for s in v):
        raise TypeError(f"expected a JSON array of strings, got {v!r}")
    return tuple(v)


_STRICT = {bool: json_exact(bool, "boolean"), int: json_exact(int, "integer"), float: json_number,
           tuple[str, ...]: _json_strings}


def _from_dict(cls, doc, what: str, **convert):
    """The config dataclass ``cls`` from JSON object ``doc``; its fields are the keys.

    Any other key is rejected.  Each key present is converted by
    ``convert[key]``, or else by ``_STRICT`` for the field's annotation: a
    ``bool``, ``int``, ``float`` or ``tuple[str, ...]`` field takes only a
    JSON boolean, integer, number or array of strings.  Absent keys are not
    passed, so every default is written once, in ``cls``.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object")
    hints = typing.get_type_hints(cls)
    unknown = set(doc) - set(hints)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    try:
        return cls(**{
            key: (convert.get(key) or _STRICT[hints[key]])(v)
            for key, v in doc.items()
        })
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def _tagged(spec, kinds: dict, what: str):
    """``kinds[kind](spec)`` for a config object tagged by its ``kind``."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{what} needs a 'kind' field, one of {list(kinds)}")
    try:
        return kinds[kind](spec)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def _parse_initial_state(spec) -> XState:
    return _tagged(spec, {
        "pure": lambda d: pure_alpha_beta(_as_complex(d["alpha"]), _as_complex(d["beta"])),
        "werner": lambda d: werner(json_number(d["p"])),
        "xstate": lambda d: x_state(*(json_number(d[k])
                                      for k in ("rho11", "rho22", "rho33", "rho44")),
                                    _as_complex(d.get("rho14", 0.0)),
                                    _as_complex(d.get("rho23", 0.0))),
    }, "initial_state")


def _as_complex(v) -> complex:
    if isinstance(v, (list, tuple)):
        if len(v) != 2:
            raise ConfigError(f"complex values are [re, im] pairs, got {v!r}")
        return complex(json_number(v[0]), json_number(v[1]))
    return complex(json_number(v), 0.0)


@dataclass(frozen=True)
class SweepConfig:
    initial_state: XState
    x: float
    gamma0_t_max: float
    steps: int = 400
    measures: tuple[str, ...] = ("cc", "rr", "gme")
    gme_stride: int = 1
    workers: int = 1
    sdp_tolerance: float = SDP_TOLERANCE

    def __post_init__(self):
        if self.steps < 2:
            raise ConfigError(f"steps must be >= 2, got {self.steps}")
        if not (self.gamma0_t_max > 0):
            raise ConfigError(f"gamma0_t_max must be positive, got {self.gamma0_t_max}")
        if not (self.x > 0):
            raise ConfigError(f"x must be positive, got {self.x}")
        bad = set(self.measures) - set(_MEASURES)
        if bad or not self.measures:
            raise ConfigError(f"measures must be a nonempty subset of {_MEASURES}")
        if self.gme_stride < 1:
            raise ConfigError("gme_stride must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        # GmeProblem's range, checked before any evolution work is done
        if not (0 < self.sdp_tolerance < 1e-2):
            raise ConfigError(f"sdp_tolerance must lie in (0, 1e-2), got {self.sdp_tolerance}")

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        return _from_dict(cls, data, "config", initial_state=_parse_initial_state)


def _parse_state(spec) -> DensityMatrix:
    """A gme-single state: a density-matrix document or a named constructor."""
    return _tagged(spec, {
        "matrix": lambda d: DensityMatrix.from_json_dict(d["matrix"]),
        "ghz": lambda d: ghz_state(_STRICT[int](d.get("n", 3))),
        "kay": lambda d: kay_state(json_number(d["alpha"])),
        "biseparable_bell_mixture": lambda d: biseparable_bell_mixture(),
        "evolved": lambda d: evolve_four(_parse_initial_state(d["initial_state"]),
                                         AmplitudeModel(1.0, json_number(d["x"])),
                                         json_number(d["gamma0_t"])),
    }, "state")


@dataclass(frozen=True)
class GmeSingleConfig:
    """An ``entdyn gme-single`` config: one state and how to solve it."""

    state: DensityMatrix
    tolerance: float = SDP_TOLERANCE
    symmetry_reduction: bool = True
    dump_problem: bool = False

    @classmethod
    def from_dict(cls, data: dict) -> "GmeSingleConfig":
        return _from_dict(cls, data, "gme-single config", state=_parse_state)


@dataclass(frozen=True)
class AmplitudeConfig:
    """An ``entdyn amplitude`` config: ``steps`` intervals over [0, gamma0_t_max]."""

    x: float
    gamma0_t_max: float = 10.0
    steps: int = 400

    def __post_init__(self):
        if self.steps < 2 or not (self.gamma0_t_max > 0):
            raise ConfigError("need steps >= 2 and gamma0_t_max > 0")

    @classmethod
    def from_dict(cls, data: dict) -> "AmplitudeConfig":
        return _from_dict(cls, data, "amplitude config")


@dataclass
class SweepTable:
    gamma0_t: np.ndarray
    c0: np.ndarray
    e_cc: np.ndarray        # NaN where not computed
    e_rr: np.ndarray
    e_gme: np.ndarray
    diagnostics: list[str] = field(default_factory=list)


@dataclass
class EventReport:
    esd_time: float | None = None
    esb_time: float | None = None
    dead_window: tuple[float, float] | None = None
    freeze_windows: list[tuple[float, float]] = field(default_factory=list)
    revival_times: list[float] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "esd_time": self.esd_time,
            "esb_time": self.esb_time,
            "dead_window": list(self.dead_window) if self.dead_window else None,
            "freeze_windows": [list(w) for w in self.freeze_windows],
            "revival_times": list(self.revival_times),
        }


def solve_gme(problem, *, symmetry_reduction: bool = True):
    """:func:`entdyn.gme.solve_gme` for a ``GmeProblem``, or
    :func:`entdyn.gme.solve_gme_batch` for a list of them (always reduced),
    importing the solver at the first call.

    Only GME work loads the witness-SDP solver; a cc/rr sweep, ``events`` and
    ``amplitude`` never import it.
    """
    from . import gme

    if isinstance(problem, list):
        return gme.solve_gme_batch(problem)
    return gme.solve_gme(problem, symmetry_reduction=symmetry_reduction)


def _gme_batch(
    cfg: SweepConfig, ts: list[float], states: np.ndarray
) -> list[tuple[float, str | None]]:
    """One batch of SDP solves, also for the worker pool: each point's value,
    and a diagnostic where it failed.

    A point that fails gets NaN and its own diagnostic; if the batch's solve
    raises, every point of the batch does.
    """
    from .gme import SOLVE_ERRORS, GmeProblem

    problems = [GmeProblem(rho=DensityMatrix(rho, (2, 2, 2, 2), validate=False),
                           tolerance=cfg.sdp_tolerance) for rho in states]
    try:
        solved = solve_gme(problems)
    except SOLVE_ERRORS as exc:
        solved = [exc] * len(problems)
    return [(math.nan, f"gamma0_t={t:.6g}: {type(sol).__name__}: {sol}")
            if isinstance(sol, Exception) else (sol.genuine_negativity, None)
            for t, sol in zip(ts, solved)]


def run_sweep(cfg: SweepConfig) -> SweepTable:
    """Evaluate the requested measures on a uniform grid over [0, gamma0_t_max].

    The GME states are built in one call and solved in batches of
    ``GME_BATCH`` consecutive points.  With ``workers > 1`` the batches run
    on a process pool, and a worker that dies raises :class:`WorkerError`.
    """
    model = AmplitudeModel(1.0, cfg.x)
    ts = np.linspace(0.0, cfg.gamma0_t_max, cfg.steps + 1)
    amp = np.asarray(_c0(model, ts))

    npts = ts.size
    e_cc = np.full(npts, np.nan)
    e_rr = np.full(npts, np.nan)
    e_gme = np.full(npts, np.nan)
    diagnostics: list[str] = []

    if "cc" in cfg.measures:
        e_cc = negativity_xstate(evolve_cc(cfg.initial_state, model, ts)).value
    if "rr" in cfg.measures:
        e_rr = negativity_xstate(evolve_rr(cfg.initial_state, model, ts)).value

    if "gme" in cfg.measures:
        idxs = np.arange(0, npts, cfg.gme_stride)
        times = ts[idxs].tolist()
        states = evolve_four(cfg.initial_state, model, ts[idxs])
        starts = range(0, len(times), GME_BATCH)
        batches = ([times[k:k + GME_BATCH] for k in starts],
                   [states[k:k + GME_BATCH] for k in starts])
        solve = functools.partial(_gme_batch, cfg)
        if cfg.workers > 1:
            # imported here: the pool machinery costs a process ~25 ms to load
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            try:
                with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
                    results = list(pool.map(solve, *batches))
            except BrokenProcessPool as exc:
                raise WorkerError(str(exc)) from exc
        else:
            results = list(map(solve, *batches))
        for k, (val, diag) in zip(idxs.tolist(), itertools.chain.from_iterable(results)):
            e_gme[k] = val
            if diag is not None:
                diagnostics.append(diag)

    return SweepTable(gamma0_t=ts, c0=amp, e_cc=e_cc, e_rr=e_rr, e_gme=e_gme,
                      diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# event detection

def _interp_crossing(t0, v0, t1, v1, level) -> float:
    if v1 == v0:
        return float(t1)
    lam = (level - v0) / (v1 - v0)
    return float(t0 + np.clip(lam, 0.0, 1.0) * (t1 - t0))


def _secant_root(t0, v0, t1, v1, level, lo, hi) -> float:
    if v1 == v0:
        return float(np.clip(t1, lo, hi))
    out = t1 + (level - v1) * (t1 - t0) / (v1 - v0)
    return float(np.clip(out, lo, hi))


def _crossing(ts, vs, k, tol) -> float:
    """Time at which ``vs`` crosses ``tol`` between samples ``k - 1`` and ``k``.

    The value typically hits exactly zero somewhere inside the bracket and
    stays there, so the dead end of the bracket carries no slope
    information; the secant through the two nearest live samples, on the
    live side, is extrapolated instead, or else the bracket's chord is used.
    """
    near, far = (k - 1, k - 2) if vs[k - 1] > tol else (k, k + 1)
    if 0 <= far < len(vs) and vs[far] > vs[near] > tol:
        return _secant_root(ts[far], vs[far], ts[near], vs[near], tol, ts[k - 1], ts[k])
    return _interp_crossing(ts[k - 1], vs[k - 1], ts[k], vs[k], tol)


def _crossings(ts, vs, tol) -> tuple[list[float], list[float]]:
    """Times at which a finite series falls to ``tol`` or below, and at which
    it rises above it."""
    live = vs > tol
    falls, rises = live[:-1] & ~live[1:], ~live[:-1] & live[1:]
    return ([_crossing(ts, vs, k, tol) for k in np.flatnonzero(falls) + 1],
            [_crossing(ts, vs, k, tol) for k in np.flatnonzero(rises) + 1])


def _first_dead_window(ts, cc, rr, tol) -> tuple[float, float] | None:
    both = np.maximum(cc, rr)
    dead = both <= tol
    if not np.any(dead):
        return None
    k0 = int(np.argmax(dead))
    k1 = k0
    while k1 + 1 < len(ts) and dead[k1 + 1]:
        k1 += 1
    start = ts[0] if k0 == 0 else _crossing(ts, both, k0, tol)
    end = ts[-1] if k1 == len(ts) - 1 else _crossing(ts, both, k1 + 1, tol)
    if end <= start:
        return None
    return float(start), float(end)


def _freeze_windows(ts, vs) -> list[tuple[float, float]]:
    """Locked plateaus of a (sub)sampled genuine-negativity series.

    A freeze is a run of consecutive grid intervals with |slope| below
    ``_PLATEAU_SLOPE``, trimmed to the contiguous stretch staying within 1%
    of the run maximum, lasting at least ``_PLATEAU_DWELL``.  Freezing means
    locking at the series maximum, so runs whose level falls short of the
    global maximum (for example flat tails near zero, or slow smooth peaks
    elsewhere) are not freezes.

    Boundary refinement is asymmetric on purpose.  The entry is a kink (the
    value arrives with finite slope and stops dead), so it is located by
    intersecting the plateau level with the secant of the approach segment.
    The exit departs quadratically and is invisible at first; the reported
    end is where the value has measurably left the plateau, at 0.1% of the
    plateau level, found by interpolation.

    A spacing wider than 1.5 times the smallest one is a gap, where a
    failed solve left no sample.  Nothing is read across a gap: a run of
    flat intervals ends at it, an entry whose secant would reach across it
    is the first sample after it, and an exit that would is the last sample
    before it.
    """
    if len(ts) < 3:
        return []
    dt = np.diff(ts)
    gap = dt > 1.5 * np.min(dt)
    slopes = np.diff(vs) / dt
    ok = (np.abs(slopes) <= _PLATEAU_SLOPE) & ~gap
    global_max = float(np.max(vs))

    windows: list[tuple[float, float]] = []
    k = 0
    while k < len(ok):
        if not ok[k]:
            k += 1
            continue
        k_end = k
        while k_end + 1 < len(ok) and ok[k_end + 1]:
            k_end += 1
        lo, hi = k, k_end + 1            # point indices of the run
        vmax = float(np.max(vs[lo : hi + 1]))
        if vmax > ZERO_ENTANGLEMENT_TOL and vmax >= 0.99 * global_max:
            band = 0.99 * vmax
            arg = lo + int(np.argmax(vs[lo : hi + 1]))
            a = arg
            while a - 1 >= lo and vs[a - 1] >= band:
                a -= 1
            b = arg
            while b + 1 <= hi and vs[b + 1] >= band:
                b += 1
            start = float(ts[a])
            if a >= 2 and not (gap[a - 2] or gap[a - 1]) and vs[a - 1] > vs[a - 2]:
                start = _secant_root(ts[a - 2], vs[a - 2], ts[a - 1], vs[a - 1],
                                     vmax, ts[a - 1], ts[a])
            level = (1.0 - 1e-3) * vmax
            while b + 1 < len(ts) and not gap[b] and vs[b + 1] >= level:
                b += 1
            if b + 1 < len(ts) and not gap[b]:
                end = _interp_crossing(ts[b], vs[b], ts[b + 1], vs[b + 1], level)
            else:
                end = float(ts[b])
            if end - start >= _PLATEAU_DWELL:
                windows.append((start, end))
        k = k_end + 1

    merged: list[tuple[float, float]] = []
    for start, end in windows:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def detect_events(table: SweepTable) -> EventReport:
    """Extract sudden-death, sudden-birth, dead-window and freezing events."""
    if table.gamma0_t.size == 0:
        raise ValueError("empty sweep table")
    ts = table.gamma0_t
    report = EventReport()

    cc_ok = np.all(np.isfinite(table.e_cc))
    rr_ok = np.all(np.isfinite(table.e_rr))
    if cc_ok:
        downs, ups = _crossings(ts, table.e_cc, ZERO_ENTANGLEMENT_TOL)
        report.esd_time = downs[0] if downs else None
        # only onsets after a death count as re-entanglement
        if report.esd_time is not None:
            report.revival_times = [u for u in ups if u > report.esd_time]
    if rr_ok:
        ups = _crossings(ts, table.e_rr, ZERO_ENTANGLEMENT_TOL)[1]
        report.esb_time = ups[0] if ups else None
    if cc_ok and rr_ok:
        report.dead_window = _first_dead_window(ts, table.e_cc, table.e_rr,
                                                ZERO_ENTANGLEMENT_TOL)

    valid = np.isfinite(table.e_gme)
    if np.any(valid):
        report.freeze_windows = _freeze_windows(ts[valid], table.e_gme[valid])
    return report


# ---------------------------------------------------------------------------
# output files

def _write(out_dir, name: str, text: str) -> str:
    """Write ``text`` to ``out_dir/name``, creating the directory; returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _write_json(out_dir, name: str, doc) -> str:
    """The one JSON writer: two-space indent and a trailing newline."""
    return _write(out_dir, name, json.dumps(doc, indent=2) + "\n")


def _csv_cells(col) -> list[str]:
    """Shortest round-trip text of each value, so a re-read gives the same
    floats; an empty cell for NaN and ±inf."""
    col = np.asarray(col, dtype=float)
    cells = list(map(repr, col.tolist()))
    for k in np.flatnonzero(~np.isfinite(col)).tolist():
        cells[k] = ""
    return cells


def _write_csv(out_dir, name: str, header: str, cols) -> str:
    rows = map(",".join, zip(*map(_csv_cells, cols)))
    return _write(out_dir, name, "\n".join([header, *rows]) + "\n")


def emit(table: SweepTable, report: EventReport, out_dir):
    """Write trace.csv and events.json; output is deterministic."""
    cols = (table.gamma0_t, table.c0, table.e_cc, table.e_rr, table.e_gme)
    return _write_csv(out_dir, "trace.csv", CSV_HEADER, cols), write_events(report, out_dir)


def write_events(report: EventReport, out_dir) -> str:
    """Write events.json, for ``emit`` and ``entdyn events`` alike."""
    return _write_json(out_dir, "events.json", report.to_json_dict())


def read_trace(out_dir) -> SweepTable:
    """The table ``emit`` wrote to ``out_dir/trace.csv``.

    Raises ConfigError for a malformed trace, such as a header other than
    ``CSV_HEADER`` or a gamma0_t column that is not finite and strictly
    increasing, and OSError when there is none.  Each column is converted by
    one numpy call.
    """
    path = os.path.join(out_dir, "trace.csv")
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()] or [""]
    if lines[0] != CSV_HEADER:
        raise ConfigError(f"{path} does not start with the header {CSV_HEADER!r}")
    rows = [ln.split(",") for ln in lines[1:]]
    for row in rows:
        if len(row) != len(_COLUMNS):
            raise ConfigError(f"bad trace row in {path}: {','.join(row)!r}")
    # an empty cell holds a value that was not computed
    columns = list(zip(*rows)) or [()] * len(_COLUMNS)
    try:
        cols = [np.array([cell or "nan" for cell in col], dtype=float) for col in columns]
    except ValueError as exc:
        raise ConfigError(f"bad trace column in {path}: {exc}") from exc
    ts = cols[0]
    if not np.all(np.isfinite(ts)):
        raise ConfigError(f"{path}: every gamma0_t must be a finite number")
    if np.any(np.diff(ts) <= 0):
        raise ConfigError(f"{path}: gamma0_t must increase from row to row")
    return SweepTable(*cols)


def write_problem(problem: GmeProblem, symmetry_reduction: bool, out_dir) -> None:
    """Write the SDP of ``problem`` to sdp_problem.json."""
    from .gme import problem_json_dict

    _write_json(out_dir, "sdp_problem.json", problem_json_dict(problem, symmetry_reduction))


def write_gme(solution: GmeSolution, dims, out_dir) -> None:
    """Write gme.json: the solve's values, certificate, residuals and witness."""
    _write_json(out_dir, "gme.json", {
        "objective": solution.objective,
        "genuine_negativity": solution.genuine_negativity,
        "dual_objective": solution.dual_objective,
        "iterations": solution.iterations,
        "converged": solution.converged,
        "reduced": solution.reduced,
        "num_variables": solution.num_variables,
        "residuals": {k: float(v) for k, v in solution.residuals.items()},
        "witness": {
            "dims": list(dims),
            "re": solution.witness.real.tolist(),
            "im": solution.witness.imag.tolist(),
        },
    })


def write_gme_failure(exc: Exception, out_dir) -> str:
    """Write gme.json for a failed solve, with its best dual bound; return the error text."""
    error = f"{type(exc).__name__}: {exc}"
    _write_json(out_dir, "gme.json", {"error": error, "best_bound": getattr(exc, "best_bound", None)})
    return error


def write_amplitude(cfg: AmplitudeConfig, out_dir) -> None:
    """Write amplitude.csv: ``c0`` and ``c`` on the grid, with round-trip digits."""
    model = AmplitudeModel(1.0, cfg.x)
    ts = np.linspace(0.0, cfg.gamma0_t_max, cfg.steps + 1)
    _write_csv(out_dir, "amplitude.csv", "gamma0_t,c0,c", (ts, _c0(model, ts), _cexc(model, ts)))
