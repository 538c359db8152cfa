"""Event detection (sudden death and birth, the dead window, freezing) and
the trace files trace.csv and events.json, with the standard library only,
so that ``entdyn events`` runs without numpy.

Every event is a crossing of one level: zero for death, birth and the dead
window, and just below the conserved ceiling N_cc(0), the first ``e_cc``,
for a freeze.

A :class:`SweepTable` holds numpy arrays from ``run_sweep`` and lists of
floats from ``read_trace``; detection converts each column to floats once,
so both give the same report bit for bit.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

__all__ = ["CSV_HEADER", "ConfigError", "ZERO_ENTANGLEMENT_TOL", "SweepTable", "EventReport",
           "detect_events", "emit", "write_events", "read_trace"]

CSV_HEADER = "gamma0_t,c0,e_cc,e_rr,e_gme"
_COLUMNS = CSV_HEADER.split(",")

# Event-detection thresholds.  A value at or below ZERO_ENTANGLEMENT_TOL
# counts as zero; it sits below the eigensolver noise floor for 4x4
# matrices.  A freeze holds the genuine negativity within _FREEZE_MARGIN,
# relative, of its ceiling N_cc(0) for at least _PLATEAU_DWELL.
ZERO_ENTANGLEMENT_TOL = 1e-8
_FREEZE_MARGIN = 1e-3
_PLATEAU_DWELL = 0.5        # minimum plateau length in gamma0*t


class ConfigError(ValueError):
    """Invalid configuration or trace file."""


@dataclass
class SweepTable:
    gamma0_t: list[float]
    c0: list[float]
    e_cc: list[float]       # NaN where not computed
    e_rr: list[float]
    e_gme: list[float]
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


# ---------------------------------------------------------------------------
# event detection

def _interp_crossing(ts, vs, k, level) -> float:
    """Time at which the chord between samples ``k - 1`` and ``k`` meets ``level``."""
    t0, v0, t1, v1 = ts[k - 1], vs[k - 1], ts[k], vs[k]
    if v1 == v0:
        return t1
    lam = (level - v0) / (v1 - v0)
    return t0 + min(max(lam, 0.0), 1.0) * (t1 - t0)


def _crossing(ts, vs, k, tol) -> float:
    """Time at which ``vs`` crosses ``tol`` between samples ``k - 1`` and ``k``.

    The value typically hits exactly zero somewhere inside the bracket and
    stays there, so the dead end of the bracket carries no slope
    information; the secant through the two nearest live samples, on the
    live side, is extrapolated instead, or else the bracket's chord is used.
    """
    near, far = (k - 1, k - 2) if vs[k - 1] > tol else (k, k + 1)
    if 0 <= far < len(vs) and vs[far] > vs[near] > tol:
        out = ts[near] + (tol - vs[near]) * (ts[near] - ts[far]) / (vs[near] - vs[far])
        return min(max(out, ts[k - 1]), ts[k])
    return _interp_crossing(ts, vs, k, tol)


def _crossings(ts, vs, level, at=_crossing) -> tuple[list[float], list[float]]:
    """Times at which a finite series falls to ``level`` or below, and at
    which it rises above it, each placed in its bracket by ``at``."""
    live = [v > level for v in vs]
    edges = [k for k in range(1, len(live)) if live[k] != live[k - 1]]
    return ([at(ts, vs, k, level) for k in edges if not live[k]],
            [at(ts, vs, k, level) for k in edges if live[k]])


def _first_dead_window(ts, cc, rr, tol) -> tuple[float, float] | None:
    both = list(map(max, cc, rr))
    dead = [v <= tol for v in both]
    if True not in dead:
        return None
    k0 = dead.index(True)
    k1 = k0
    while k1 + 1 < len(ts) and dead[k1 + 1]:
        k1 += 1
    start = ts[0] if k0 == 0 else _crossing(ts, both, k0, tol)
    end = ts[-1] if k1 == len(ts) - 1 else _crossing(ts, both, k1 + 1, tol)
    if end <= start:
        return None
    return start, end


def _freeze_windows(ts, vs, ceiling) -> list[tuple[float, float]]:
    """Stretches of at least ``_PLATEAU_DWELL`` where the genuine negativity
    ``vs`` stays above ``(1 - _FREEZE_MARGIN) * ceiling``.

    The ceiling is N_cc(0), the negativity the pair cut c1 r1 | c2 r2
    conserves and the genuine negativity never exceeds, so a freeze is a
    lock at it; there is none when it is not finite or counts as zero.  The
    edges are the level's crossings by the chord of their bracket: the side
    above the level is the flat plateau, whose secant carries no slope.  A
    window runs from the first sample, or to the last, when that sample is
    above the level.
    """
    if not (math.isfinite(ceiling) and ceiling > ZERO_ENTANGLEMENT_TOL):
        return []
    level = (1.0 - _FREEZE_MARGIN) * ceiling
    ends, starts = _crossings(ts, vs, level, at=_interp_crossing)
    if vs[0] > level:
        starts.insert(0, ts[0])
    if vs[-1] > level:
        ends.append(ts[-1])
    return [(a, b) for a, b in zip(starts, ends) if b - a >= _PLATEAU_DWELL]


def detect_events(table: SweepTable) -> EventReport:
    """Extract sudden-death, sudden-birth, dead-window and freezing events."""
    ts, cc, rr, gme = (list(map(float, col))
                       for col in (table.gamma0_t, table.e_cc, table.e_rr, table.e_gme))
    if not ts:
        raise ValueError("empty sweep table")
    report = EventReport()

    cc_ok = all(map(math.isfinite, cc))
    rr_ok = all(map(math.isfinite, rr))
    if cc_ok:
        downs, ups = _crossings(ts, cc, ZERO_ENTANGLEMENT_TOL)
        report.esd_time = downs[0] if downs else None
        # only onsets after a death count as re-entanglement
        if report.esd_time is not None:
            report.revival_times = [u for u in ups if u > report.esd_time]
    if rr_ok:
        ups = _crossings(ts, rr, ZERO_ENTANGLEMENT_TOL)[1]
        report.esb_time = ups[0] if ups else None
    if cc_ok and rr_ok:
        report.dead_window = _first_dead_window(ts, cc, rr, ZERO_ENTANGLEMENT_TOL)

    valid = [k for k, v in enumerate(gme) if math.isfinite(v)]
    if valid:
        report.freeze_windows = _freeze_windows([ts[k] for k in valid],
                                                [gme[k] for k in valid], cc[0])
    return report


# ---------------------------------------------------------------------------
# trace files

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
    return [repr(v) if math.isfinite(v) else "" for v in map(float, col)]


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
    """The table ``emit`` wrote to ``out_dir/trace.csv``, as lists of floats.

    Raises ConfigError for a malformed trace, such as a header other than
    ``CSV_HEADER`` or a gamma0_t column that is not finite and strictly
    increasing, and OSError when there is none.
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
        cols = [[float(cell or "nan") for cell in col] for col in columns]
    except ValueError as exc:
        raise ConfigError(f"bad trace column in {path}: {exc}") from exc
    ts = cols[0]
    if not all(map(math.isfinite, ts)):
        raise ConfigError(f"{path}: every gamma0_t must be a finite number")
    if any(t1 <= t0 for t0, t1 in zip(ts, ts[1:])):
        raise ConfigError(f"{path}: gamma0_t must increase from row to row")
    return SweepTable(*cols)
