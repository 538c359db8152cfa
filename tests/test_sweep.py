import collections
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entdyn
import entdyn.evolution
import entdyn.sweep
from entdyn.amplitude import AmplitudeModel, c0
from entdyn.cli import main
from entdyn.entanglement import ZERO_ENTANGLEMENT_TOL
from entdyn.events import (_FREEZE_MARGIN, CSV_HEADER, EventReport, SweepTable,
                           detect_events, emit, read_trace)
from entdyn.gme import GmeProblem
from entdyn.states import DensityMatrix, StateValidationError
from entdyn.gme import solve_block_sdp, solve_block_sdp_batch
from entdyn.sweep import (GME_BATCH, SDP_TOLERANCE, ConfigError, GmeSingleConfig, SweepConfig,
                          run_sweep)

A26 = {"kind": "pure", "alpha": math.sqrt(1 / 26), "beta": 5 * math.sqrt(1 / 26)}


def bipartite_config(**over):
    cfg = {
        "initial_state": A26,
        "x": 5.0,
        "gamma0_t_max": 4.0,
        "steps": 200,
        "measures": ["cc", "rr"],
    }
    cfg.update(over)
    return SweepConfig.from_dict(cfg)


def test_config_parsing_and_validation():
    cfg = bipartite_config()
    assert cfg.steps == 200 and cfg.measures == ("cc", "rr")
    with pytest.raises(ConfigError):
        SweepConfig.from_dict({"initial_state": A26, "x": -1, "gamma0_t_max": 4})
    with pytest.raises(ConfigError):
        SweepConfig.from_dict({"initial_state": A26, "x": 1, "gamma0_t_max": 4, "steps": 1})
    with pytest.raises(ConfigError):
        SweepConfig.from_dict({"initial_state": A26, "x": 1, "gamma0_t_max": 4,
                               "measures": ["cc", "bogus"]})
    with pytest.raises(ConfigError):
        SweepConfig.from_dict({"initial_state": {"kind": "nope"}, "x": 1, "gamma0_t_max": 4})
    with pytest.raises(ConfigError):
        SweepConfig.from_dict({"initial_state": A26, "x": 1, "gamma0_t_max": 4,
                               "unexpected": 1})


def test_initial_state_variants():
    pure = SweepConfig.from_dict({"initial_state": A26, "x": 1, "gamma0_t_max": 1})
    assert pure.initial_state.rho44 == pytest.approx(25 / 26)
    wer = SweepConfig.from_dict(
        {"initial_state": {"kind": "werner", "p": 0.45}, "x": 1, "gamma0_t_max": 1}
    )
    assert wer.initial_state.rho14 == pytest.approx(0.225)
    xs = SweepConfig.from_dict(
        {
            "initial_state": {
                "kind": "xstate",
                "rho11": 0.4, "rho22": 0.1, "rho33": 0.1, "rho44": 0.4,
                "rho14": [0.1, 0.05], "rho23": 0.05,
            },
            "x": 1,
            "gamma0_t_max": 1,
        }
    )
    assert xs.initial_state.rho14 == pytest.approx(0.1 + 0.05j)


def test_grid_has_inclusive_endpoints():
    table = run_sweep(bipartite_config(steps=400))
    assert table.gamma0_t.size == 401
    assert table.gamma0_t[0] == 0.0
    assert table.gamma0_t[-1] == pytest.approx(4.0)
    assert table.c0[0] == pytest.approx(1.0)


def test_row_zero_values():
    table = run_sweep(bipartite_config())
    assert table.e_cc[0] == pytest.approx(5 / 26, abs=1e-9)
    assert table.e_rr[0] == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.isnan(table.e_gme))


def test_values_nonnegative_and_bounded():
    table = run_sweep(bipartite_config())
    for col in (table.e_cc, table.e_rr):
        assert np.all(col >= 0)
        assert np.all(col <= 1.0)


def test_event_detection_on_synthetic_series():
    ts = np.linspace(0.0, 10.0, 101)
    e_cc = np.clip(0.3 - 0.1 * ts, 0.0, None)          # dies at t = 3
    e_rr = np.clip(0.2 * (ts - 5.0), 0.0, None)        # born at t = 5
    gme = np.full_like(ts, np.nan)
    table = SweepTable(ts, np.ones_like(ts), e_cc, e_rr, gme)
    rep = detect_events(table)
    assert rep.esd_time == pytest.approx(3.0, abs=1e-6)
    assert rep.esb_time == pytest.approx(5.0, abs=1e-6)
    assert rep.dead_window[0] == pytest.approx(3.0, abs=1e-6)
    assert rep.dead_window[1] == pytest.approx(5.0, abs=1e-6)
    assert rep.freeze_windows == []
    assert rep.revival_times == []


def test_event_detection_revivals():
    ts = np.linspace(0.0, 10.0, 201)
    e_cc = np.maximum(0.0, 0.2 * np.sin(ts))           # alive on (0, pi), (2pi, 3pi)
    table = SweepTable(ts, np.ones_like(ts), e_cc, np.zeros_like(ts),
                       np.full_like(ts, np.nan))
    rep = detect_events(table)
    assert rep.esd_time == pytest.approx(math.pi, abs=0.05)
    assert len(rep.revival_times) == 1
    assert rep.revival_times[0] == pytest.approx(2 * math.pi, abs=0.05)


def _gme_table(ts, v, ceiling=0.2) -> SweepTable:
    """A table of the genuine negativity ``v`` whose e_cc holds only its
    first value, the freeze ceiling N_cc(0)."""
    e_cc = np.full_like(ts, np.nan)
    e_cc[0] = ceiling
    return SweepTable(ts, np.ones_like(ts), e_cc, np.full_like(ts, np.nan), v)


def test_freeze_detection_on_synthetic_plateau():
    ts = np.linspace(0.0, 10.0, 401)
    v = np.minimum(0.05 * ts, 0.2)                     # ramps, locks at 0.2 from t=4
    v = np.where(ts > 8.0, 0.2 - 0.08 * (ts - 8.0), v)  # decays after t=8
    rep = detect_events(_gme_table(ts, v))
    assert len(rep.freeze_windows) == 1
    start, end = rep.freeze_windows[0]
    assert start == pytest.approx(4.0, abs=0.1)
    assert end == pytest.approx(8.0, abs=0.1)


def _plateau_table(drop=()):
    """Ramp locking at the ceiling 0.2 from t=4.03, leaving it quadratically
    after t=8, with the samples ``drop`` failed (NaN)."""
    ts = np.linspace(0.0, 10.0, 201)
    v = np.minimum(0.2 * ts / 4.03, 0.2)
    v = np.where(ts > 8.0, 0.2 - 0.01 * (ts - 8.0) ** 2, v)
    v[list(drop)] = np.nan
    return _gme_table(ts, v)


@pytest.mark.parametrize("drop, windows", [
    ((), [(4.043283333333333, 8.140000000000002)]),
    ((81,), [(4.086566666666667, 8.140000000000002)]),     # the first plateau sample failed
    ((163,), [(4.043283333333333, 8.133333333333336)]),    # the sample past the exit failed
    ((120,), [(4.043283333333333, 8.140000000000002)]),    # a plateau sample failed
], ids=["none", "entry", "exit", "inside"])
def test_freeze_windows_stop_at_a_failed_sample(tmp_path, drop, windows):
    # a failed sample leaves no value: each edge is the chord between the
    # finite samples that bracket the level, and a failed sample inside the
    # plateau leaves it whole; the events command, from trace.csv, finds
    # the same
    table = _plateau_table(drop)
    assert detect_events(table).freeze_windows == windows
    _rereads_to_the_same_events(table, tmp_path)


def _rereads_to_the_same_events(table, out_dir) -> None:
    """``entdyn events`` on the trace.csv that ``emit`` wrote gives its events.json bytes."""
    emit(table, detect_events(table), out_dir)
    original = (out_dir / "events.json").read_bytes()
    (out_dir / "events.json").unlink()
    assert main(["events", "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "events.json").read_bytes() == original


def test_a_crossing_with_one_live_sample_takes_the_chord(tmp_path):
    # e_cc dies between the first two samples and e_rr is born between the
    # last two: the live side has no second sample to extrapolate from, so
    # each edge is the bracket's chord
    ts = np.linspace(0.0, 1.0, 11)
    e_cc, e_rr = np.zeros_like(ts), np.zeros_like(ts)
    e_cc[0], e_rr[-1] = 0.1, 0.1
    table = SweepTable(ts, np.ones_like(ts), e_cc, e_rr, np.full_like(ts, np.nan))
    report = detect_events(table)
    tol = ZERO_ENTANGLEMENT_TOL
    death = ts[0] + (tol - 0.1) / (0.0 - 0.1) * (ts[1] - ts[0])
    birth = ts[-2] + (tol - 0.0) / (0.1 - 0.0) * (ts[-1] - ts[-2])
    assert (report.esd_time, report.esb_time) == (death, birth)
    assert report.dead_window == (death, birth)
    _rereads_to_the_same_events(table, tmp_path)


@pytest.mark.parametrize("e_cc, e_rr, window", [
    (lambda ts: 0.0 * ts, lambda ts: np.clip(0.2 * (ts - 5.0), 0.0, None), (0.0, 5.0)),
    (lambda ts: np.clip(0.3 - 0.1 * ts, 0.0, None), lambda ts: 0.0 * ts, (3.0, 10.0)),
    (lambda ts: 0.0 * ts, lambda ts: 0.0 * ts, (0.0, 10.0)),
    (lambda ts: np.clip(0.3 - 0.1 * ts, 0.0, None), lambda ts: 0.1 + 0.0 * ts, None),
    (lambda ts: 0.1 + 0.0 * ts, lambda ts: 0.0 * ts, None),
], ids=["opens-at-first-sample", "runs-to-last-sample", "whole-grid", "rr-alive", "cc-alive"])
def test_dead_window_edges(tmp_path, e_cc, e_rr, window):
    # the window opens at the first sample when it is dead and otherwise at
    # the first death of both, and closes at the first birth or else at the
    # last sample; while either pair stays entangled there is none
    ts = np.linspace(0.0, 10.0, 101)
    table = SweepTable(ts, np.ones_like(ts), e_cc(ts), e_rr(ts), np.full_like(ts, np.nan))
    got = detect_events(table).dead_window
    if window is None:
        assert got is None
    else:
        assert got == pytest.approx(window, abs=1e-6)
    _rereads_to_the_same_events(table, tmp_path)


def test_a_freeze_window_opens_at_the_first_sample(tmp_path):
    # e_gme starts locked at its ceiling N_cc(0) = 0.2 and leaves it after
    # t = 2; the chord to 0.19 at t = 2.1 meets the level 0.1998 at 2.002
    ts = np.linspace(0.0, 10.0, 101)
    v = np.where(ts <= 2.0, 0.2, 0.2 - 0.1 * (ts - 2.0))
    table = _gme_table(ts, v)
    (window,) = detect_events(table).freeze_windows
    assert window[0] == 0.0
    assert window[1] == pytest.approx(2.002, abs=1e-12)
    _rereads_to_the_same_events(table, tmp_path)


def test_freeze_detection_rejects_smooth_peak():
    # the peak touches its ceiling: it stays above the freeze level for
    # 0.1, shorter than the minimum length of 0.5
    ts = np.linspace(0.0, 10.0, 401)
    v = 0.2 * np.exp(-((ts - 5.0) ** 2) / 4.0)
    assert detect_events(_gme_table(ts, v)).freeze_windows == []


def _hold_table(hold: float, ceiling: float = 0.2) -> SweepTable:
    """Ramp to 0.2 by t=1, hold it for ``hold``, then decay."""
    ts = np.linspace(0.0, 10.0, 401)
    v = np.minimum(0.2 * ts, 0.2)
    v = np.where(ts > 1.0 + hold, np.maximum(0.2 - 0.4 * (ts - 1.0 - hold), 0.0), v)
    return _gme_table(ts, v, ceiling)


def test_freeze_detection_respects_dwell():
    # a plateau 1.0 long is a freeze; one 0.3 long, below the minimum
    # length of 0.5, is not
    assert len(detect_events(_hold_table(1.0)).freeze_windows) == 1
    assert detect_events(_hold_table(0.3)).freeze_windows == []


def test_a_plateau_below_the_ceiling_is_no_freeze():
    # the series holds its maximum for 2.0, but at 0.9 of N_cc(0): a freeze
    # is a lock at the conserved ceiling, not at the series maximum
    assert detect_events(_hold_table(2.0, ceiling=0.2 / 0.9)).freeze_windows == []


@pytest.mark.parametrize("ceiling", [0.0, 1e-11, ZERO_ENTANGLEMENT_TOL])
@pytest.mark.parametrize("base", [0.0, 0.1], ids=["noise", "plateau"])
def test_no_freeze_without_a_ceiling(ceiling, base):
    # with no pair-cut negativity at t = 0 nothing can freeze: a level at
    # or near zero would make solver noise of 1e-10 a freeze
    ts = np.linspace(0.0, 10.0, 401)
    v = base + 1e-10 * np.random.default_rng(5).random(ts.size)
    assert detect_events(_gme_table(ts, v, ceiling)).freeze_windows == []


def test_a_gme_sweep_writes_its_freeze_ceiling(tmp_path):
    # a GME-only sweep writes e_cc, whose first value is the freeze
    # ceiling, and so reports the freeze a cc,rr,gme sweep reports
    doc = {"initial_state": A26, "x": 5.0, "gamma0_t_max": 2.5, "steps": 20}
    windows = {}
    for name in ("gme", "cc,rr,gme"):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({**doc, "measures": name.split(",")}))
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / name)]) == 0
        trace = read_trace(tmp_path / name)
        assert all(map(math.isfinite, trace.e_cc))
        assert trace.e_cc[0] == pytest.approx(5 / 26, abs=1e-9)
        windows[name] = json.loads((tmp_path / name / "events.json").read_text())["freeze_windows"]
    assert len(windows["gme"]) == 1
    assert windows["gme"] == windows["cc,rr,gme"]


def test_detect_events_rejects_empty_table():
    empty = SweepTable(np.array([]), np.array([]), np.array([]), np.array([]), np.array([]))
    with pytest.raises(ValueError):
        detect_events(empty)


def test_emit_csv_schema_and_determinism(tmp_path):
    cfg = bipartite_config(steps=50)
    table = run_sweep(cfg)
    rep = detect_events(table)
    d1, d2 = tmp_path / "one", tmp_path / "two"
    emit(table, rep, d1)
    table2 = run_sweep(cfg)
    emit(table2, detect_events(table2), d2)

    text1 = (d1 / "trace.csv").read_bytes()
    text2 = (d2 / "trace.csv").read_bytes()
    assert text1 == text2
    lines = text1.decode().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 52
    # gme column empty when not computed
    assert lines[1].split(",")[4] == ""
    cells = [cell for line in lines[1:] for cell in line.split(",")]
    assert "0.0" in cells and "-0.0" not in cells

    events1 = json.loads((d1 / "events.json").read_text())
    assert set(events1) == {
        "esd_time", "esb_time", "dead_window", "freeze_windows", "revival_times"
    }
    assert events1 == json.loads((d2 / "events.json").read_text())


def _fmt(v) -> str:
    """The per-value CSV formatter the column writer replaced, kept as its reference."""
    return "" if not math.isfinite(v) else repr(float(v))


def test_emit_writes_the_bytes_of_the_per_value_formatters(tmp_path):
    rng = np.random.default_rng(17)
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
               1.7976931348623157e308, 0.1 + 0.2, 1 / 3, 2.0 / 3e-7]
    seventeen_digits = (rng.choice([-1.0, 1.0], 40) * rng.random(40)
                        * 10.0 ** rng.integers(-300, 300, 40))
    values = np.concatenate([special, seventeen_digits])
    assert sum(len(repr(v).lstrip("-").split("e")[0]) == 18 for v in values.tolist()) >= 10
    cols = [np.roll(values, k) for k in range(5)]    # every value in every column
    table = SweepTable(*cols)

    emit(table, EventReport(), tmp_path)
    rows = [",".join(_fmt(v) for v in row) for row in zip(*cols)]
    expected = "\n".join([CSV_HEADER, *rows]) + "\n"
    assert (tmp_path / "trace.csv").read_bytes() == expected.encode()


def test_one_default_sdp_tolerance():
    # both configs default to one constant, which must stay the solver's own
    # default: sweep.py cannot read GmeProblem without importing the solver
    assert SDP_TOLERANCE == GmeProblem.tolerance
    assert SweepConfig.sdp_tolerance == GmeSingleConfig.tolerance == SDP_TOLERANCE


def test_sdp_defaults_agree():
    # the sweep's constant, the problem's default and both IPM entry points'
    # defaults are one value
    ipm_defaults = {inspect.signature(f).parameters["tolerance"].default
                    for f in (solve_block_sdp, solve_block_sdp_batch)}
    assert ipm_defaults == {SDP_TOLERANCE} == {GmeProblem.tolerance}


def test_sweep_and_solver_reject_the_same_sdp_tolerances():
    # a sweep checks its sdp_tolerance against GmeProblem's range, written
    # out in sweep.py, when it is read
    state = DensityMatrix(np.eye(16) / 16, (2, 2, 2, 2))
    for tolerance in (0.0, 1e-2):
        with pytest.raises(ConfigError, match="sdp_tolerance"):
            bipartite_config(sdp_tolerance=tolerance)
        with pytest.raises(ValueError, match="out of range"):
            GmeProblem(rho=state, tolerance=tolerance)


def test_gme_sweep_with_stride_and_workers():
    cfg = SweepConfig.from_dict({
        "initial_state": A26,
        "x": 5.0,
        "gamma0_t_max": 1.0,
        "steps": 8,
        "measures": ["cc", "rr", "gme"],
        "gme_stride": 4,
    })
    table = run_sweep(cfg)
    finite = np.isfinite(table.e_gme)
    assert list(np.nonzero(finite)[0]) == [0, 4, 8]
    assert table.diagnostics == []
    # same rows from the worker-pool path
    cfg2 = SweepConfig.from_dict({
        "initial_state": A26,
        "x": 5.0,
        "gamma0_t_max": 1.0,
        "steps": 8,
        "measures": ["cc", "rr", "gme"],
        "gme_stride": 4,
        "workers": 2,
    })
    table2 = run_sweep(cfg2)
    assert np.allclose(table2.e_gme[finite], table.e_gme[finite], atol=1e-6)
    assert np.array_equal(np.isfinite(table2.e_gme), finite)


@pytest.mark.parametrize("workers, cores, started", [(8, 2, 2), (8, 4, 3), (2, 1, 1)])
def test_the_pool_has_at_most_one_worker_per_batch_and_usable_core(monkeypatch, workers, cores,
                                                                   started):
    # three batches of GME points; a fake executor records its size and maps
    # in-process, and a stub stands for the solves, so no process starts
    import concurrent.futures

    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    monkeypatch.setattr(entdyn.sweep, "_gme_batch",
                        lambda cfg, ts, states: [(t, None) for t in ts])
    table = run_sweep(SweepConfig.from_dict({
        "initial_state": A26, "x": 5.0, "gamma0_t_max": 1.0, "steps": 2 * GME_BATCH,
        "measures": ["gme"], "workers": workers,
    }))
    assert sizes == [started]
    assert table.e_gme.tolist() == table.gamma0_t.tolist()


def test_grid_resolution_stability():
    # halving the step moves detected event times by less than a coarse step
    coarse = run_sweep(bipartite_config(steps=200, gamma0_t_max=4.0))
    fine = run_sweep(bipartite_config(steps=400, gamma0_t_max=4.0))
    rep_c = detect_events(coarse)
    rep_f = detect_events(fine)
    step = 4.0 / 200
    assert abs(rep_c.esd_time - rep_f.esd_time) < step
    assert abs(rep_c.esb_time - rep_f.esb_time) < step


def test_esd_esb_ordering_by_amplitude_ratio():
    def order(alpha, beta):
        cfg = SweepConfig.from_dict({
            "initial_state": {"kind": "pure", "alpha": alpha, "beta": beta},
            "x": 5.0,
            "gamma0_t_max": 6.0,
            "steps": 400,
            "measures": ["cc", "rr"],
        })
        rep = detect_events(run_sweep(cfg))
        return rep.esd_time, rep.esb_time

    # sudden death needs beta > alpha, so probe beta < 2*alpha at beta = 1.5*alpha
    esd, esb = order(math.sqrt(1 / 3.25), 1.5 * math.sqrt(1 / 3.25))
    assert esb < esd
    esd, esb = order(math.sqrt(1 / 26), 5 * math.sqrt(1 / 26))  # beta > 2 alpha
    assert esd < esb
    esd, esb = order(math.sqrt(1 / 5), 2 * math.sqrt(1 / 5))    # beta = 2 alpha
    assert abs(esd - esb) <= 6.0 / 400


def test_event_report_json_round_trip():
    rep = EventReport(esd_time=1.0, esb_time=2.0, dead_window=(1.0, 2.0),
                      freeze_windows=[(1.1, 1.9)], revival_times=[5.0])
    doc = rep.to_json_dict()
    assert doc["dead_window"] == [1.0, 2.0]
    assert doc["freeze_windows"] == [[1.1, 1.9]]
    rep2 = EventReport()
    doc2 = rep2.to_json_dict()
    assert doc2["esd_time"] is None and doc2["dead_window"] is None


def test_bipartite_layer_runs_once_per_measure(monkeypatch):
    # the cc and rr columns come from one call per measure on the whole grid,
    # so the bench spans around these names cover the whole bipartite layer
    calls = collections.Counter()
    for name in ("evolve_cc", "evolve_rr", "negativity_xstate"):
        def counted(*args, _fn=getattr(entdyn.sweep, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(entdyn.sweep, name, counted)
    table = run_sweep(bipartite_config(steps=300))
    assert np.all(np.isfinite(table.e_cc)) and np.all(np.isfinite(table.e_rr))
    assert calls == {"evolve_cc": 1, "evolve_rr": 1, "negativity_xstate": 2}


def test_sweep_rejects_an_invalid_marginal_at_one_grid_point(monkeypatch):
    def bad_c0(model, t):
        a = c0(model, t)
        a[len(a) // 2] *= 1.01          # |c0| above 1 breaks the trace there
        return a
    monkeypatch.setattr(entdyn.evolution, "_c0", bad_c0)
    with pytest.raises(StateValidationError, match="sum to"):
        run_sweep(bipartite_config(measures=["cc"]))


def _first_root(model, level, tmax):
    """First time c0**2 falls to ``level``: a dense scan, then bisection."""
    grid = np.linspace(0.0, tmax, 20001)
    k = int(np.argmax(np.asarray(c0(model, grid)) ** 2 <= level))
    assert k > 0
    lo, hi = float(grid[k - 1]), float(grid[k])
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if c0(model, mid) ** 2 > level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("steps", [400, 6000])
@pytest.mark.parametrize("x, tmax", [(5.0, 8.0), (0.1, 10.0), (0.01, 50.0)])
def test_event_times_within_a_grid_step_of_c0_roots(x, tmax, steps):
    # alpha|00> + beta|11> with |alpha| < |beta| and r = |alpha/beta|: the
    # cavity pair dies where c0**2 = 1 - r, the reservoir pair is born where
    # c0**2 = r
    alpha, beta = math.sqrt(1 / 3), math.sqrt(2 / 3)
    r = alpha / beta
    cfg = bipartite_config(initial_state={"kind": "pure", "alpha": alpha, "beta": beta},
                           x=x, gamma0_t_max=tmax, steps=steps)
    rep = detect_events(run_sweep(cfg))
    model = AmplitudeModel(1.0, x)
    step = tmax / steps
    assert abs(rep.esd_time - _first_root(model, 1.0 - r, tmax)) <= step
    assert abs(rep.esb_time - _first_root(model, r, tmax)) <= step


def test_gme_solves_and_sweeps_do_not_import_numpy_ma():
    # np.unique without an index or count output imports numpy.ma, which
    # costs every GME process 9-16 ms; a fresh interpreter runs a reduced and
    # a generic solve and a GME sweep without it
    code = (
        "import math, sys\n"
        "from entdyn.amplitude import AmplitudeModel\n"
        "from entdyn.evolution import evolve_four\n"
        "from entdyn.gme import GmeProblem, solve_gme\n"
        "from entdyn.states import pure_alpha_beta\n"
        "from entdyn.sweep import SweepConfig, run_sweep\n"
        "a = math.sqrt(1 / 26)\n"
        "rho = evolve_four(pure_alpha_beta(a, 5 * a), AmplitudeModel(1.0, 0.01), 8.0)\n"
        "reduced = solve_gme(GmeProblem(rho=rho))\n"
        "generic = solve_gme(GmeProblem(rho=rho), symmetry_reduction=False)\n"
        "assert reduced.num_variables < generic.num_variables == 2048\n"
        "state = {'kind': 'pure', 'alpha': a, 'beta': 5 * a}\n"
        "run_sweep(SweepConfig.from_dict({'initial_state': state, 'x': 0.01,\n"
        "                                 'gamma0_t_max': 10.0, 'steps': 4, 'measures': ['gme']}))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(entdyn.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


# --- GMN as a function of c0**2 -------------------------------------------------
# On each cavity-reservoir pair |10> -> c0 |10> + c |01>, with c0 real and
# c = sqrt(1 - c0**2).  Up to local unitaries, which leave every negativity
# unchanged, the four-qubit state depends on t and x only through
# q = c0(t)**2, and swapping each cavity with its reservoir maps q to 1 - q.

@pytest.mark.parametrize("state", [A26, {"kind": "werner", "p": 0.9}], ids=["pure26", "werner09"])
def test_gme_is_a_function_of_c0_squared(state):
    # at equal q the GMN agrees across x, and g(q) = g(1 - q)
    from entdyn.amplitude import first_zero
    from entdyn.evolution import evolve_four
    from entdyn.gme import solve_gme_batch

    s0 = bipartite_config(initial_state=state).initial_state
    qs, xs = (0.2, 0.35, 0.5, 0.65, 0.8), (5.0, 0.1, 0.01)
    problems = []
    for x in xs:
        model = AmplitudeModel(1.0, x)
        tmax = first_zero(model) or 20.0
        problems += [GmeProblem(rho=evolve_four(s0, model, _first_root(model, q, tmax)))
                     for q in qs]
    solved = solve_gme_batch(problems)
    assert not any(isinstance(sol, Exception) for sol in solved)
    g = np.array([sol.genuine_negativity for sol in solved]).reshape(len(xs), len(qs))
    tol = 10 * SDP_TOLERANCE
    assert np.max(np.ptp(g, axis=0)) <= tol, g
    assert np.max(np.abs(g - g[:, ::-1])) <= tol, g


@pytest.mark.parametrize("alpha2", [1 / 26, 1 / 10, 1 / 50, 1 / 5, 1 / 3],
                         ids=["a26", "a10", "a50", "a5", "a3"])
def test_dead_band_in_closed_form(alpha2):
    # alpha|00> + beta|11> with r = |alpha/beta|: e_cc > 0 exactly when
    # q > 1 - r and e_rr > 0 exactly when q < r, so a time is dead exactly
    # when r <= q <= 1 - r, an empty band for r > 1/2
    alpha, beta = math.sqrt(alpha2), math.sqrt(1 - alpha2)
    r = alpha / beta
    for x in (0.01, 0.1, 0.2, 5.0):
        cfg = bipartite_config(initial_state={"kind": "pure", "alpha": alpha, "beta": beta},
                               x=x, gamma0_t_max=50.0, steps=6000)
        table = run_sweep(cfg)
        q = table.c0**2
        clear = (np.abs(q - r) > 1e-6) & (np.abs(q - (1 - r)) > 1e-6)
        dead = np.maximum(table.e_cc, table.e_rr) <= ZERO_ENTANGLEMENT_TOL
        band = (r <= q) & (q <= 1 - r)
        np.testing.assert_array_equal(dead[clear], band[clear], err_msg=f"x={x}")


@pytest.mark.parametrize("alpha2", [1 / 5, 1 / 4, 1 / 3, 1 / 2], ids=["a5", "a4", "a3", "a2"])
def test_dead_band_is_at_most_a_point_from_alpha2_one_fifth(alpha2):
    # derived rule: alpha2 >= 1/5 gives r >= 1/2, so the band [r, 1 - r] is
    # empty or the point q = 1/2, and nothing freezes for want of a dead
    # window of positive width
    alpha, beta = math.sqrt(alpha2), math.sqrt(1 - alpha2)
    r = alpha / beta
    assert 1 - r <= r + 1e-15
    for x in (0.01, 0.1, 0.2, 5.0):
        cfg = bipartite_config(initial_state={"kind": "pure", "alpha": alpha, "beta": beta},
                               x=x, gamma0_t_max=50.0, steps=6000)
        table = run_sweep(cfg)
        dead = np.maximum(table.e_cc, table.e_rr) <= ZERO_ENTANGLEMENT_TOL
        assert np.all(np.abs(table.c0[dead] ** 2 - 0.5) <= 1e-6), f"x={x}"
        window = detect_events(table).dead_window
        assert window is None or window[1] - window[0] <= 2 * 50.0 / 6000, f"x={x}"


@pytest.mark.parametrize("x", [2.0, 3.0, 5.0, 20.0])
def test_c0_squared_never_rises_from_x_2_so_one_dead_window(x):
    # derived rule: for x >= 2 c0**2 falls monotonically, so it crosses the
    # band [r, 1 - r] once and a sweep has one dead window; below x = 2 it
    # oscillates
    ts = np.linspace(0.0, 50.0, 20001)
    assert np.all(np.diff(c0(AmplitudeModel(1.0, x), ts) ** 2) <= 0.0)
    assert np.any(np.diff(c0(AmplitudeModel(1.0, 1.9), ts) ** 2) > 0.0)
    table = run_sweep(bipartite_config(x=x, gamma0_t_max=50.0, steps=6000))
    dead = (np.maximum(table.e_cc, table.e_rr) <= ZERO_ENTANGLEMENT_TOL).astype(np.int8)
    assert dead[0] + np.count_nonzero(np.diff(dead) == 1) == 1     # runs of dead points
    assert detect_events(table).dead_window is not None


@pytest.mark.slow
def test_census_sweeps_fail_at_few_points():
    # the census grid (201 points over [0, 50], GME only, default tolerance)
    # on the census's two sweeps that fail most from a feasible dual start
    # (16 NaN cells together, against 1 from the identity)
    sweeps = {
        "alpha2=1/2 x=0.01": ({"kind": "pure", "alpha": math.sqrt(0.5), "beta": math.sqrt(0.5)},
                              0.01),
        "werner(0.9) x=0.1": ({"kind": "werner", "p": 0.9}, 0.1),
    }
    nans = {}
    for name, (state, x) in sweeps.items():
        cfg = bipartite_config(initial_state=state, x=x, gamma0_t_max=50.0, steps=200,
                               measures=["gme"])
        nans[name] = int(np.count_nonzero(np.isnan(run_sweep(cfg).e_gme)))
    assert sum(nans.values()) <= 3, f"NaN cells per sweep: {nans}"


@pytest.mark.slow
@pytest.mark.parametrize("alpha2, x, tmax, windows", [
    (1 / 5, 0.01, 40.0, []),
    (1 / 5, 0.1, 10.0, []),
    (1 / 10, 0.1, 10.0, [(2.991, 4.513)]),
], ids=["a5_x001", "a5_x01", "a10_x01"])
def test_freeze_margin_on_the_census_grid(alpha2, x, tmax, windows):
    # the census grid's points (spacing 0.25) up to tmax, where each sweep
    # comes nearest its ceiling: alpha^2 = 1/5 peaks 8.2e-4 to 8.4e-4
    # (relative) below it, above the freeze level but for less than the
    # minimum length, so nothing freezes; alpha^2 = 1/10 locks at it
    alpha, beta = math.sqrt(alpha2), math.sqrt(1 - alpha2)
    cfg = bipartite_config(initial_state={"kind": "pure", "alpha": alpha, "beta": beta},
                           x=x, gamma0_t_max=tmax, steps=round(4 * tmax), measures=["gme"])
    table = run_sweep(cfg)
    assert table.diagnostics == []
    assert 1 - np.max(table.e_gme) / table.e_cc[0] < _FREEZE_MARGIN
    found = detect_events(table).freeze_windows
    assert len(found) == len(windows)
    for got, want in zip(found, windows):
        assert got == pytest.approx(want, abs=1e-3)
