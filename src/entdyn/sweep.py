"""Time-grid sweeps, and every config and output file of the ``entdyn``
command line but the trace files, which :mod:`entdyn.events` writes and
reads.

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
import typing
from dataclasses import dataclass

import numpy as np

from .amplitude import AmplitudeModel, c0 as _c0, c_excitation as _cexc
from .entanglement import negativity_xstate
from .events import ConfigError, SweepTable, _write_csv, _write_json
from .evolution import evolve_cc, evolve_four, evolve_rr
from .states import (DensityMatrix, XState, biseparable_bell_mixture, ghz_state, json_exact,
                     json_number, kay_state, pure_alpha_beta, werner, x_state)

if typing.TYPE_CHECKING:
    from .gme import GmeProblem, GmeSolution, SdpError

__all__ = [
    "ConfigError",
    "WorkerError",
    "SDP_TOLERANCE",
    "GME_BATCH",
    "SweepConfig",
    "GmeSingleConfig",
    "AmplitudeConfig",
    "solve_gme",
    "load_config",
    "run_sweep",
    "write_problem",
    "write_gme",
    "write_gme_failure",
    "write_amplitude",
]

_MEASURES = ("cc", "rr", "gme")

# The default of both configs' SDP tolerance: GmeProblem.tolerance, written
# here so that reading a config does not import the solver
SDP_TOLERANCE = 1e-7

# GME points per batch.  A sweep cuts its GME points into batches of this
# many consecutive points whatever ``workers`` is, so that its output does
# not depend on the pool: a point's value can differ at round-off between
# batches of other sizes.
GME_BATCH = 16


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


def solve_gme(problems: list[GmeProblem]) -> list[GmeSolution | SdpError]:
    """:func:`entdyn.gme.solve_gme_batch` (always reduced), importing the
    solver at the first call: a cc/rr sweep never imports it."""
    from .gme import solve_gme_batch

    return solve_gme_batch(problems)


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
    ``GME_BATCH`` consecutive points.  With ``workers > 1`` and at least two
    batches, the batches run on a pool of at most one process per batch, and
    a worker that dies raises :class:`WorkerError`.
    """
    model = AmplitudeModel(1.0, cfg.x)
    ts = np.linspace(0.0, cfg.gamma0_t_max, cfg.steps + 1)
    amp = np.asarray(_c0(model, ts))

    npts = ts.size
    e_cc = np.full(npts, np.nan)
    e_rr = np.full(npts, np.nan)
    e_gme = np.full(npts, np.nan)
    diagnostics: list[str] = []

    # a GME sweep writes e_cc too: its first value is the freeze ceiling
    if {"cc", "gme"} & set(cfg.measures):
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
        if cfg.workers > 1 and len(starts) > 1:
            # imported here: the pool machinery costs a process ~25 ms to load
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            try:
                with ProcessPoolExecutor(max_workers=min(cfg.workers, len(starts))) as pool:
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
