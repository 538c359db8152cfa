"""Time-grid sweeps with sudden-death / sudden-birth / freezing detection.

All times are the dimensionless ``gamma0 * t``; the relaxation rate never
appears separately in sweep input or output.  Each grid row is computed
independently, so rows can be distributed over a worker pool.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .amplitude import AmplitudeModel, c0 as _c0
from .entanglement import ZERO_ENTANGLEMENT_TOL, negativity_xstate
from .evolution import evolve_cc, evolve_four, evolve_rr
from .gme import GmeProblem, SdpNonConvergenceError, SdpNumericalError, solve_gme
from .states import StateValidationError, XState, pure_alpha_beta, werner, x_state

__all__ = [
    "ConfigError",
    "Tolerances",
    "SweepConfig",
    "SweepTable",
    "EventReport",
    "run_sweep",
    "detect_events",
    "emit",
    "CSV_HEADER",
]

CSV_HEADER = "gamma0_t,c0,e_cc,e_rr,e_gme"

_MEASURES = ("cc", "rr", "gme")


class ConfigError(ValueError):
    """Invalid sweep configuration."""


@dataclass(frozen=True)
class Tolerances:
    # The slope threshold must sit well below the curvature scale of smooth
    # maxima (which are not freezes) and well above solver noise on true
    # locked plateaus; 1e-5 separates the two by orders of magnitude even
    # for strongly non-Markovian sweeps where the dynamics slows down.
    zero: float = ZERO_ENTANGLEMENT_TOL
    plateau_slope: float = 1e-5        # per unit gamma0*t
    plateau_dwell: float = 0.5         # minimum plateau length in gamma0*t

    @classmethod
    def from_dict(cls, data: dict | None) -> "Tolerances":
        data = dict(data or {})
        known = {"zero", "plateau_slope", "plateau_dwell"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown tolerance keys: {sorted(unknown)}")
        return cls(**{k: float(v) for k, v in data.items()})


def _parse_initial_state(data: dict) -> XState:
    try:
        kind = data["kind"]
    except (TypeError, KeyError):
        raise ConfigError("initial_state needs a 'kind' field (pure | werner | xstate)")
    try:
        if kind == "pure":
            return pure_alpha_beta(_as_complex(data["alpha"]), _as_complex(data["beta"]))
        if kind == "werner":
            return werner(float(data["p"]))
        if kind == "xstate":
            return x_state(
                data["rho11"], data["rho22"], data["rho33"], data["rho44"],
                _as_complex(data.get("rho14", 0.0)), _as_complex(data.get("rho23", 0.0)),
            )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, StateValidationError) as exc:
        raise ConfigError(f"invalid initial_state: {exc}") from exc
    raise ConfigError(f"unknown initial_state kind {kind!r}")


def _as_complex(v) -> complex:
    if isinstance(v, (list, tuple)):
        if len(v) != 2:
            raise ConfigError(f"complex values are [re, im] pairs, got {v!r}")
        return complex(float(v[0]), float(v[1]))
    return complex(float(v), 0.0)


@dataclass(frozen=True)
class SweepConfig:
    initial_state: XState
    x: float
    gamma0_t_max: float
    steps: int = 400
    measures: tuple[str, ...] = ("cc", "rr", "gme")
    tolerances: Tolerances = field(default_factory=Tolerances)
    gme_stride: int = 1
    workers: int = 1
    sdp_tolerance: float = 1e-7

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

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        known = {
            "initial_state", "x", "gamma0_t_max", "steps", "measures",
            "tolerances", "gme_stride", "workers", "sdp_tolerance",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(
                initial_state=_parse_initial_state(data["initial_state"]),
                x=float(data["x"]),
                gamma0_t_max=float(data["gamma0_t_max"]),
                steps=int(data.get("steps", 400)),
                measures=tuple(data.get("measures", list(_MEASURES))),
                tolerances=Tolerances.from_dict(data.get("tolerances")),
                gme_stride=int(data.get("gme_stride", 1)),
                workers=int(data.get("workers", 1)),
                sdp_tolerance=float(data.get("sdp_tolerance", 1e-7)),
            )
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid config: {exc}") from exc


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


def _xstate_tuple(s: XState):
    return (s.rho11, s.rho22, s.rho33, s.rho44, s.rho14, s.rho23)


def _gme_point(args):
    """One SDP solve for the worker pool; returns (index, value, diagnostic)."""
    idx, state_tuple, x, t, tol = args
    s0 = XState(*state_tuple)
    model = AmplitudeModel(1.0, x)
    try:
        sol = solve_gme(GmeProblem(rho=evolve_four(s0, model, t), tolerance=tol))
        return idx, sol.genuine_negativity, None
    except (SdpNonConvergenceError, SdpNumericalError) as exc:
        return idx, math.nan, f"gamma0_t={t:.6g}: {type(exc).__name__}: {exc}"


def run_sweep(cfg: SweepConfig) -> SweepTable:
    """Evaluate the requested measures on a uniform grid over [0, gamma0_t_max]."""
    model = AmplitudeModel(1.0, cfg.x)
    ts = np.linspace(0.0, cfg.gamma0_t_max, cfg.steps + 1)
    amp = np.asarray(_c0(model, ts))

    npts = ts.size
    e_cc = np.full(npts, np.nan)
    e_rr = np.full(npts, np.nan)
    e_gme = np.full(npts, np.nan)
    diagnostics: list[str] = []

    if "cc" in cfg.measures:
        for k, t in enumerate(ts):
            e_cc[k] = negativity_xstate(evolve_cc(cfg.initial_state, model, t)).value
    if "rr" in cfg.measures:
        for k, t in enumerate(ts):
            e_rr[k] = negativity_xstate(evolve_rr(cfg.initial_state, model, t)).value

    if "gme" in cfg.measures:
        idxs = list(range(0, npts, cfg.gme_stride))
        jobs = [
            (k, _xstate_tuple(cfg.initial_state), cfg.x, float(ts[k]), cfg.sdp_tolerance)
            for k in idxs
        ]
        if cfg.workers > 1:
            chunk = max(1, len(jobs) // (4 * cfg.workers))
            with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
                results = list(pool.map(_gme_point, jobs, chunksize=chunk))
        else:
            results = [_gme_point(job) for job in jobs]
        for k, val, diag in results:
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


def _refine_death(ts, vs, k, tol) -> float:
    """Crossing time for vs[k-1] > tol >= vs[k].

    The value typically hits exactly zero somewhere inside the bracket and
    stays there, so the bracket endpoints carry no slope information;
    extrapolate the secant through the last two live samples instead.
    """
    if k >= 2 and vs[k - 2] > vs[k - 1] > tol:
        return _secant_root(ts[k - 2], vs[k - 2], ts[k - 1], vs[k - 1], tol,
                            ts[k - 1], ts[k])
    return _interp_crossing(ts[k - 1], vs[k - 1], ts[k], vs[k], tol)


def _refine_birth(ts, vs, k, tol) -> float:
    """Crossing time for vs[k-1] <= tol < vs[k] (secant through first live samples)."""
    if k + 1 < len(vs) and vs[k + 1] > vs[k] > tol:
        return _secant_root(ts[k + 1], vs[k + 1], ts[k], vs[k], tol,
                            ts[k - 1], ts[k])
    return _interp_crossing(ts[k - 1], vs[k - 1], ts[k], vs[k], tol)


def _down_crossings(ts, vs, tol) -> list[float]:
    return [
        _refine_death(ts, vs, k, tol)
        for k in range(1, len(ts))
        if vs[k - 1] > tol >= vs[k]
    ]


def _up_crossings(ts, vs, tol) -> list[float]:
    return [
        _refine_birth(ts, vs, k, tol)
        for k in range(1, len(ts))
        if vs[k - 1] <= tol < vs[k]
    ]


def _first_dead_window(ts, cc, rr, tol) -> tuple[float, float] | None:
    both = np.maximum(cc, rr)
    dead = both <= tol
    if not np.any(dead):
        return None
    k0 = int(np.argmax(dead))
    k1 = k0
    while k1 + 1 < len(ts) and dead[k1 + 1]:
        k1 += 1
    start = ts[0] if k0 == 0 else _refine_death(ts, both, k0, tol)
    end = ts[-1] if k1 == len(ts) - 1 else _refine_birth(ts, both, k1 + 1, tol)
    if end <= start:
        return None
    return float(start), float(end)


def _freeze_windows(ts, vs, tol: Tolerances) -> list[tuple[float, float]]:
    """Locked plateaus of a (sub)sampled genuine-negativity series.

    A freeze is a run of consecutive grid intervals with |slope| below
    ``plateau_slope``, trimmed to the contiguous stretch staying within 1%
    of the run maximum, lasting at least ``plateau_dwell``.  Freezing means
    locking at the series maximum, so runs whose level falls short of the
    global maximum (for example flat tails near zero, or slow smooth peaks
    elsewhere) are not freezes.

    Boundary refinement is asymmetric on purpose.  The entry is a kink (the
    value arrives with finite slope and stops dead), so it is located by
    intersecting the plateau level with the secant of the approach segment.
    The exit departs quadratically and is invisible at first; the reported
    end is where the value has measurably left the plateau, at 0.1% of the
    plateau level, found by interpolation.
    """
    if len(ts) < 3:
        return []
    slopes = np.diff(vs) / np.diff(ts)
    ok = np.abs(slopes) <= tol.plateau_slope
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
        if vmax > tol.zero and vmax >= 0.99 * global_max:
            band = 0.99 * vmax
            arg = lo + int(np.argmax(vs[lo : hi + 1]))
            a = arg
            while a - 1 >= lo and vs[a - 1] >= band:
                a -= 1
            b = arg
            while b + 1 <= hi and vs[b + 1] >= band:
                b += 1
            start = float(ts[a])
            if a >= 2 and vs[a - 1] > vs[a - 2]:
                start = _secant_root(ts[a - 2], vs[a - 2], ts[a - 1], vs[a - 1],
                                     vmax, ts[a - 1], ts[a])
            level = (1.0 - 1e-3) * vmax
            q = max(arg, b)
            while q + 1 < len(ts) and vs[q + 1] >= level:
                q += 1
            if q + 1 < len(ts):
                end = _interp_crossing(ts[q], vs[q], ts[q + 1], vs[q + 1], level)
            else:
                end = float(ts[-1])
            if end - start >= tol.plateau_dwell:
                windows.append((start, end))
        k = k_end + 1

    merged: list[tuple[float, float]] = []
    for start, end in windows:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def detect_events(table: SweepTable, tolerances: Tolerances | None = None) -> EventReport:
    """Extract sudden-death, sudden-birth, dead-window and freezing events."""
    if table.gamma0_t.size == 0:
        raise ValueError("empty sweep table")
    tol = tolerances or Tolerances()
    ts = table.gamma0_t
    report = EventReport()

    cc_ok = np.all(np.isfinite(table.e_cc))
    rr_ok = np.all(np.isfinite(table.e_rr))
    if cc_ok:
        downs = _down_crossings(ts, table.e_cc, tol.zero)
        report.esd_time = downs[0] if downs else None
        ups = _up_crossings(ts, table.e_cc, tol.zero)
        # only onsets after a death count as re-entanglement
        if report.esd_time is not None:
            report.revival_times = [u for u in ups if u > report.esd_time]
    if rr_ok:
        ups = _up_crossings(ts, table.e_rr, tol.zero)
        report.esb_time = ups[0] if ups else None
    if cc_ok and rr_ok:
        report.dead_window = _first_dead_window(ts, table.e_cc, table.e_rr, tol.zero)

    valid = np.isfinite(table.e_gme)
    if np.any(valid):
        report.freeze_windows = _freeze_windows(ts[valid], table.e_gme[valid], tol)
    return report


# ---------------------------------------------------------------------------
# output

def _fmt(v: float) -> str:
    """Shortest round-trip text of ``v``, so a re-read gives the same float."""
    return "" if not math.isfinite(v) else repr(float(v))


def emit(table: SweepTable, report: EventReport, out_dir, fmt: str = "csv"):
    """Write trace.csv(|.json) and events.json; output is deterministic."""
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown output format {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)
    cols = (table.gamma0_t, table.c0, table.e_cc, table.e_rr, table.e_gme)
    if fmt == "csv":
        trace_path = os.path.join(out_dir, "trace.csv")
        lines = [CSV_HEADER]
        for row in zip(*cols):
            lines.append(",".join(_fmt(v) for v in row))
        with open(trace_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        trace_path = os.path.join(out_dir, "trace.json")
        doc = {
            name: [None if not math.isfinite(v) else v for v in col]
            for name, col in zip(CSV_HEADER.split(","), cols)
        }
        with open(trace_path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")

    events_path = os.path.join(out_dir, "events.json")
    with open(events_path, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
        fh.write("\n")
    return trace_path, events_path
