import collections
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
from entdyn.gme import GmeProblem
from entdyn.states import DensityMatrix, StateValidationError
from entdyn.sweep import (
    CSV_HEADER,
    SDP_TOLERANCE,
    ConfigError,
    EventReport,
    GmeSingleConfig,
    SweepConfig,
    SweepTable,
    Tolerances,
    detect_events,
    emit,
    run_sweep,
)

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
    rep = detect_events(table, Tolerances())
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
    rep = detect_events(table, Tolerances())
    assert rep.esd_time == pytest.approx(math.pi, abs=0.05)
    assert len(rep.revival_times) == 1
    assert rep.revival_times[0] == pytest.approx(2 * math.pi, abs=0.05)


def test_freeze_detection_on_synthetic_plateau():
    ts = np.linspace(0.0, 10.0, 401)
    v = np.minimum(0.05 * ts, 0.2)                     # ramps, locks at 0.2 from t=4
    v = np.where(ts > 8.0, 0.2 - 0.08 * (ts - 8.0), v)  # decays after t=8
    table = SweepTable(ts, np.ones_like(ts), np.full_like(ts, np.nan),
                       np.full_like(ts, np.nan), v)
    rep = detect_events(table, Tolerances())
    assert len(rep.freeze_windows) == 1
    start, end = rep.freeze_windows[0]
    assert start == pytest.approx(4.0, abs=0.1)
    assert end == pytest.approx(8.0, abs=0.1)


def _plateau_table(drop=()):
    """Ramp locking at 0.2 from t=4.03, leaving it quadratically after t=8,
    with the samples ``drop`` failed (NaN)."""
    ts = np.linspace(0.0, 10.0, 201)
    v = np.minimum(0.2 * ts / 4.03, 0.2)
    v = np.where(ts > 8.0, 0.2 - 0.01 * (ts - 8.0) ** 2, v)
    v[list(drop)] = np.nan
    return SweepTable(ts, np.ones_like(ts), np.full_like(ts, np.nan), np.full_like(ts, np.nan), v)


@pytest.mark.parametrize("drop, windows", [
    ((), [(4.03, 8.140000000000002)]),                     # as without the gap rule
    ((81,), [(4.1000000000000005, 8.140000000000002)]),    # the first plateau sample failed
    ((163,), [(4.03, 8.1)]),                               # the sample past the exit failed
    ((120,), [(4.03, 5.95), (6.050000000000001, 8.140000000000002)]),
], ids=["none", "entry", "exit", "inside"])
def test_freeze_windows_stop_at_a_failed_sample(tmp_path, drop, windows):
    # a failed sample leaves a gap in the finite series: the entry secant
    # and the exit interpolation never reach across it, and a plateau run
    # ends at it; the events command, from trace.csv, finds the same
    table = _plateau_table(drop)
    report = detect_events(table, Tolerances())
    assert report.freeze_windows == windows
    emit(table, report, tmp_path)
    original = (tmp_path / "events.json").read_bytes()
    (tmp_path / "events.json").unlink()
    assert main(["events", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "events.json").read_bytes() == original


def test_freeze_detection_rejects_smooth_peak():
    ts = np.linspace(0.0, 10.0, 401)
    v = 0.2 * np.exp(-((ts - 5.0) ** 2) / 4.0)
    table = SweepTable(ts, np.ones_like(ts), np.full_like(ts, np.nan),
                       np.full_like(ts, np.nan), v)
    rep = detect_events(table, Tolerances())
    assert rep.freeze_windows == []


def test_freeze_detection_respects_dwell():
    # ramp to 0.2 by t=1, hold until t=2, decay: plateau lasts 1.0
    ts = np.linspace(0.0, 10.0, 401)
    v = np.minimum(0.2 * ts, 0.2)
    v = np.where(ts > 2.0, np.maximum(0.2 - 0.4 * (ts - 2.0), 0.0), v)
    table = SweepTable(ts, np.ones_like(ts), np.full_like(ts, np.nan),
                       np.full_like(ts, np.nan), v)
    assert len(detect_events(table, Tolerances()).freeze_windows) == 1
    rep = detect_events(table, Tolerances(plateau_dwell=2.0))
    assert rep.freeze_windows == []


def test_detect_events_rejects_empty_table():
    empty = SweepTable(np.array([]), np.array([]), np.array([]), np.array([]), np.array([]))
    with pytest.raises(ValueError):
        detect_events(empty, Tolerances())


def test_emit_csv_schema_and_determinism(tmp_path):
    cfg = bipartite_config(steps=50)
    table = run_sweep(cfg)
    rep = detect_events(table, cfg.tolerances)
    d1, d2 = tmp_path / "one", tmp_path / "two"
    emit(table, rep, d1)
    table2 = run_sweep(cfg)
    emit(table2, detect_events(table2, cfg.tolerances), d2)

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


def test_emit_json_format(tmp_path):
    cfg = bipartite_config(steps=10)
    table = run_sweep(cfg)
    rep = detect_events(table, cfg.tolerances)
    emit(table, rep, tmp_path, fmt="json")
    doc = json.loads((tmp_path / "trace.json").read_text())
    assert list(doc) == CSV_HEADER.split(",")
    assert len(doc["gamma0_t"]) == 11
    assert doc["e_gme"][0] is None


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

    emit(table, EventReport(), tmp_path / "csv")
    rows = [",".join(_fmt(v) for v in row) for row in zip(*cols)]
    expected = "\n".join([CSV_HEADER, *rows]) + "\n"
    assert (tmp_path / "csv" / "trace.csv").read_bytes() == expected.encode()

    emit(table, EventReport(), tmp_path / "json", fmt="json")
    doc = {name: [None if not math.isfinite(v) else v for v in col]
           for name, col in zip(CSV_HEADER.split(","), cols)}
    expected = json.dumps(doc, indent=2) + "\n"
    assert (tmp_path / "json" / "trace.json").read_bytes() == expected.encode()


def test_one_default_sdp_tolerance():
    # both configs default to one constant, which must stay the solver's own
    # default: sweep.py cannot read GmeProblem without importing the solver
    assert SDP_TOLERANCE == GmeProblem.tolerance
    assert SweepConfig.sdp_tolerance == GmeSingleConfig.tolerance == SDP_TOLERANCE


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


def test_grid_resolution_stability():
    # halving the step moves detected event times by less than a coarse step
    coarse = run_sweep(bipartite_config(steps=200, gamma0_t_max=4.0))
    fine = run_sweep(bipartite_config(steps=400, gamma0_t_max=4.0))
    rep_c = detect_events(coarse, Tolerances())
    rep_f = detect_events(fine, Tolerances())
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
        rep = detect_events(run_sweep(cfg), cfg.tolerances)
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
    rep = detect_events(run_sweep(cfg), cfg.tolerances)
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
    assert all(sol.converged for sol in solved)
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
        dead = np.maximum(table.e_cc, table.e_rr) <= Tolerances().zero
        band = (r <= q) & (q <= 1 - r)
        np.testing.assert_array_equal(dead[clear], band[clear], err_msg=f"x={x}")


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
