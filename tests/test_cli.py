import argparse
import collections
import dataclasses
import importlib
import inspect
import json
import math
import os
import runpy
import subprocess
import sys
import time
import typing
from pathlib import Path

import numpy as np
import pytest

import entdyn
from entdyn.amplitude import AmplitudeModel, c0, c_excitation
from entdyn.cli import _build_parser, main
from entdyn.events import CSV_HEADER
from entdyn.gme import (GmeProblem, GmeSolution, SdpNumericalError, SdpResult,
                        problem_json_dict, solve_block_sdp, solve_block_sdp_batch, solve_gme,
                        solve_gme_batch)
from entdyn.states import ghz_state, random_density_matrix
from entdyn.sweep import AmplitudeConfig, GmeSingleConfig, SweepConfig


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_sweep_command(tmp_path):
    cfg = write_config(tmp_path, {
        "initial_state": {"kind": "pure", "alpha": math.sqrt(1 / 26),
                          "beta": 5 * math.sqrt(1 / 26)},
        "x": 5.0,
        "gamma0_t_max": 3.0,
        "steps": 60,
        "measures": ["cc", "rr"],
    })
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out-dir", str(out)]) == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "gamma0_t,c0,e_cc,e_rr,e_gme"
    assert len(lines) == 62
    events = json.loads((out / "events.json").read_text())
    assert events["esd_time"] == pytest.approx(0.39, abs=0.05)


def test_sweep_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, {
        "initial_state": {"kind": "werner", "p": 0.45},
        "x": 0.5,
        "gamma0_t_max": 2.0,
        "steps": 40,
        "measures": ["cc", "rr"],
    })
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--config", cfg, "--out-dir", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--out-dir", str(out2)]) == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    assert (out1 / "events.json").read_bytes() == (out2 / "events.json").read_bytes()


def test_events_command_recomputes_from_trace(tmp_path):
    cfg = write_config(tmp_path, {
        "initial_state": {"kind": "pure", "alpha": math.sqrt(1 / 26),
                          "beta": 5 * math.sqrt(1 / 26)},
        "x": 5.0,
        "gamma0_t_max": 3.0,
        "steps": 60,
        "measures": ["cc", "rr"],
    })
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out-dir", str(out)]) == 0
    original = json.loads((out / "events.json").read_text())
    (out / "events.json").unlink()
    assert main(["events", "--out-dir", str(out)]) == 0
    recomputed = json.loads((out / "events.json").read_text())
    # trace.csv keeps round-trip digits, so the times are reproduced
    assert recomputed["esd_time"] == pytest.approx(original["esd_time"], abs=1e-9)
    assert recomputed["esb_time"] == pytest.approx(original["esb_time"], abs=1e-9)
    assert recomputed["dead_window"] == pytest.approx(original["dead_window"], abs=1e-9)


@pytest.mark.parametrize("doc, freezes", [
    ({"initial_state": {"kind": "pure", "alpha": math.sqrt(1 / 3), "beta": math.sqrt(2 / 3)},
      "x": 5.0, "gamma0_t_max": 8.0, "steps": 6000, "measures": ["cc", "rr"]}, 0),
    # the freeze-sweep benchmark's config: 10 SDP points, a freeze window
    # and its recurrence
    ({"initial_state": {"kind": "pure", "alpha": math.sqrt(1 / 26),
                        "beta": 5 * math.sqrt(1 / 26)},
      "x": 0.01, "gamma0_t_max": 40.75, "steps": 405, "gme_stride": 45}, 2),
], ids=["cc_rr", "gme"])
def test_events_command_reproduces_sweep_events_exactly(tmp_path, doc, freezes):
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out-dir", str(out)]) == 0
    original = (out / "events.json").read_bytes()
    events = json.loads(original)
    assert events["esd_time"] is not None and len(events["freeze_windows"]) == freezes
    (out / "events.json").unlink()
    assert main(["events", "--out-dir", str(out)]) == 0
    assert (out / "events.json").read_bytes() == original


def test_events_command_rejects_malformed_json_trace(tmp_path):
    # trace.csv is the only trace: a directory that holds only a trace.json
    # has none
    (tmp_path / "trace.json").write_text(json.dumps({"gamma0_t": [0.0, 1.0]}))
    assert main(["events", "--out-dir", str(tmp_path)]) == 3
    assert main(["events", "--out-dir", str(tmp_path / "missing")]) == 3
    assert not (tmp_path / "events.json").exists()


@pytest.mark.parametrize("times", [[0.0, None, 1.0, 1.5], [0.0, 0.5, 0.4, 1.5],
                                   [0.0, 0.5, 0.5, 1.5]], ids=["empty", "decreasing", "repeated"])
def test_events_command_rejects_a_bad_time_column(tmp_path, capsys, times):
    # events on a grid with a hole or out of order would be meaningless, and
    # a NaN time would reach events.json as NaN, which is not JSON
    doc = {"gamma0_t": times, "c0": [1.0, 0.9, 0.8, 0.7], "e_cc": [0.4, 0.2, 0.0, 0.0],
           "e_rr": [0.0, 0.0, 0.1, 0.2], "e_gme": [None] * 4}
    rows = zip(*(["" if v is None else repr(v) for v in col] for col in doc.values()))
    (tmp_path / "trace.csv").write_text("\n".join([",".join(doc), *map(",".join, rows)]))
    assert main(["events", "--out-dir", str(tmp_path)]) == 1
    assert "gamma0_t" in capsys.readouterr().err
    assert not (tmp_path / "events.json").exists()


@pytest.mark.parametrize("lines, message", [
    ([CSV_HEADER, "0.0,1.0,0.4,0.0,", "0.5,0.9,abc,0.1,", "1.0,0.8,0.0,0.2,"],
     "bad trace column"),
    ([CSV_HEADER, "0.0,1.0,0.4,0.0,", "0.5,0.9,0.2,0.1", "1.0,0.8,0.0,0.2,"], "bad trace row"),
    # a reader that went by column names would drop the second e_gme, and
    # would read the reordered columns by their names
    (["gamma0_t,c0,e_cc,e_rr,e_gme,e_gme", "0.0,1.0,0.4,0.0,,", "0.5,0.9,0.2,0.1,,",
      "1.0,0.8,0.0,0.2,,"], CSV_HEADER),
    (["gamma0_t,c0,e_rr,e_cc,e_gme", "0.0,1.0,0.0,0.4,", "0.5,0.9,0.1,0.2,",
      "1.0,0.8,0.2,0.0,"], CSV_HEADER),
], ids=["non_numeric_e_cc", "ragged", "duplicate_column", "reordered_columns"])
def test_events_command_rejects_a_malformed_csv_row(tmp_path, capsys, lines, message):
    (tmp_path / "trace.csv").write_text("\n".join(lines) + "\n")
    assert main(["events", "--out-dir", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "events.json").exists()


def test_gme_single_reduced_flag_ignores_problem_dump(tmp_path):
    rho = random_density_matrix((2, 2, 2), np.random.default_rng(7))
    for dump in (True, False):
        cfg = write_config(tmp_path, {
            "state": {"kind": "matrix", "matrix": rho.to_json_dict()},
            "dump_problem": dump,
        })
        out = tmp_path / f"dump-{dump}"
        assert main(["gme-single", "--config", cfg, "--out-dir", str(out)]) == 0
        assert (out / "sdp_problem.json").exists() == dump
        assert json.loads((out / "gme.json").read_text())["reduced"] is False


def test_tests_see_the_sessions_thread_variables(session_thread_env):
    # this file imports entdyn.cli while it is collected, which would leave
    # OPENBLAS_NUM_THREADS=1 for the subprocesses of every later test;
    # conftest.py restores the session's values once the module is loaded
    assert "entdyn.cli" in sys.modules
    assert {k: os.environ.get(k) for k in session_thread_env} == session_thread_env


def test_cli_import_does_not_load_scipy():
    code = "import sys, entdyn.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


NUMPY = ("numpy",)
SOLVER = ("entdyn.gme.ipm", "entdyn.gme.witness")
POOL = ("concurrent.futures.process", "multiprocessing")


def test_only_commands_that_solve_load_the_solver_and_the_pool(tmp_path):
    # each command runs in a fresh process, which reports its exit code and
    # which of numpy and the solver and pool modules it has loaded by then
    code = ("import sys\n"
            "from entdyn.cli import main\n"
            "code = main(sys.argv[1:])\n"
            f"print(code, *(m for m in {NUMPY + SOLVER + POOL!r} if m in sys.modules))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(entdyn.__file__).parents[1])}

    def loaded(*argv, out=tmp_path):
        proc = subprocess.run([sys.executable, "-c", code, *argv, "--out-dir", str(out)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        exit_code, *modules = proc.stdout.split()
        assert exit_code == "0", proc.stderr
        return tuple(modules)

    # 5 GME points form one batch, 17 form two
    gme_doc = {**SWEEP_DOC, "steps": 4, "measures": ["cc", "gme"]}
    serial = write_config(tmp_path, gme_doc, "serial.json")
    one_batch = write_config(tmp_path, {**gme_doc, "workers": 2}, "one-batch.json")
    pooled = write_config(tmp_path, {**gme_doc, "steps": 16, "workers": 2}, "pooled.json")
    amplitude = write_config(tmp_path, {"x": 5.0, "gamma0_t_max": 2.0, "steps": 20}, "amp.json")
    ghz = write_config(tmp_path, {"state": {"kind": "ghz", "n": 3}}, "ghz.json")
    assert loaded("sweep", "--config", pooled, "--measures", "cc,rr") == NUMPY
    # events re-reads that trace.csv with the standard library alone
    assert loaded("events") == ()
    assert loaded("amplitude", "--config", amplitude) == NUMPY
    assert loaded("gme-single", "--config", ghz) == NUMPY + SOLVER
    assert loaded("sweep", "--config", serial, out=tmp_path / "serial") == NUMPY + SOLVER
    # one batch leaves a pool nothing to share: it is solved in the main
    # process, with the bytes of the one-worker sweep
    assert loaded("sweep", "--config", one_batch, out=tmp_path / "one-batch") == NUMPY + SOLVER
    for name in ("trace.csv", "events.json"):
        assert ((tmp_path / "one-batch" / name).read_bytes()
                == (tmp_path / "serial" / name).read_bytes())
    # with a pool, the solves and so the solver imports happen in the workers
    assert loaded("sweep", "--config", pooled) == NUMPY + POOL


def test_gme_single_named_state(tmp_path):
    cfg = write_config(tmp_path, {"state": {"kind": "ghz", "n": 3}, "dump_problem": True})
    out = tmp_path / "out"
    assert main(["gme-single", "--config", cfg, "--out-dir", str(out)]) == 0
    doc = json.loads((out / "gme.json").read_text())
    assert doc["genuine_negativity"] == pytest.approx(0.5, abs=1e-4)
    assert "converged" not in doc
    assert len(doc["witness"]["re"]) == 8
    sdp = json.loads((out / "sdp_problem.json").read_text())
    assert sdp["dimension"] == 8 and len(sdp["cuts"]) == 3


def test_gme_single_matrix_state(tmp_path):
    dm = ghz_state(2)
    cfg = write_config(tmp_path, {"state": {"kind": "matrix", "matrix": dm.to_json_dict()}})
    out = tmp_path / "out"
    assert main(["gme-single", "--config", cfg, "--out-dir", str(out)]) == 0
    doc = json.loads((out / "gme.json").read_text())
    assert doc["genuine_negativity"] == pytest.approx(0.5, abs=1e-5)


def test_gme_single_evolved_state(tmp_path):
    cfg = write_config(tmp_path, {
        "state": {
            "kind": "evolved",
            "initial_state": {"kind": "pure", "alpha": math.sqrt(1 / 26),
                              "beta": 5 * math.sqrt(1 / 26)},
            "x": 5.0,
            "gamma0_t": 1.0,
        }
    })
    out = tmp_path / "out"
    assert main(["gme-single", "--config", cfg, "--out-dir", str(out)]) == 0
    doc = json.loads((out / "gme.json").read_text())
    assert doc["genuine_negativity"] == pytest.approx(0.192308, abs=1e-4)


def test_gme_single_nonconvergence_exit_code(tmp_path):
    # a tolerance below float resolution cannot be met within the cap
    cfg = write_config(tmp_path, {"state": {"kind": "ghz", "n": 3}, "tolerance": 1e-30})
    out = tmp_path / "out"
    code = main(["gme-single", "--config", cfg, "--out-dir", str(out)])
    assert code == 2
    doc = json.loads((out / "gme.json").read_text())
    assert "error" in doc


def test_amplitude_command(tmp_path):
    cfg = write_config(tmp_path, {"x": 5.0, "gamma0_t_max": 2.0, "steps": 20})
    out = tmp_path / "out"
    assert main(["amplitude", "--config", cfg, "--out-dir", str(out)]) == 0
    lines = (out / "amplitude.csv").read_text().splitlines()
    assert lines[0] == "gamma0_t,c0,c"
    assert len(lines) == 22
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(1.0)
    assert float(first[2]) == pytest.approx(0.0)


def test_sweep_measures_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, {
        "initial_state": {"kind": "werner", "p": 0.45},
        "x": 5.0,
        "gamma0_t_max": 1.0,
        "steps": 10,
        "measures": ["cc", "rr", "gme"],
    })
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out-dir", str(out),
                 "--measures", "cc,rr"]) == 0
    rows = (out / "trace.csv").read_text().splitlines()[1:]
    assert all(row.split(",")[4] == "" for row in rows)   # gme skipped
    assert all(row.split(",")[2] != "" for row in rows)


def test_config_error_exit_code(tmp_path):
    bad = write_config(tmp_path, {"x": 5.0})  # missing fields for sweep
    assert main(["sweep", "--config", bad, "--out-dir", str(tmp_path)]) == 1
    malformed = tmp_path / "broken.json"
    malformed.write_text("{not json")
    assert main(["sweep", "--config", str(malformed), "--out-dir", str(tmp_path)]) == 1
    missing = str(tmp_path / "nope.json")
    assert main(["sweep", "--config", missing, "--out-dir", str(tmp_path)]) == 3


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--config", "cfg.json", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["sweep"], "the following arguments are required: --config"),
    # every command writes one fixed format, and events reads trace.csv alone
    (["events", "--format", "json"], "unrecognized arguments: --format json"),
    (["sweep", "--config", "cfg.json", "--format", "json"],
     "unrecognized arguments: --format json"),
    (["events", "--config", "cfg.json"], "unrecognized arguments: --config cfg.json"),
], ids=["unknown_flag", "missing_config", "format_on_events", "format_on_sweep",
        "config_on_events"])
def test_usage_error_exits_1(tmp_path, capsys, argv, message):
    # argparse's own code, 2, would read as a numerical failure
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exited:
        main([*argv, "--out-dir", str(out)])
    assert exited.value.code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["sweep", "--help"])
    assert exited.value.code == 0
    assert "--measures" in capsys.readouterr().out


def test_the_settable_surface_is_pinned():
    # every option and config key a user can set, so that adding or
    # removing one changes exactly this test; 8 options and 14 keys
    subcommands = next(a for a in _build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
    options = {name: sorted(flag for action in p._actions for flag in action.option_strings
                            if flag not in ("-h", "--help"))
               for name, p in subcommands.items()}
    assert options == {
        "sweep": ["--config", "--measures", "--out-dir"],
        "events": ["--out-dir"],
        "gme-single": ["--config", "--out-dir"],
        "amplitude": ["--config", "--out-dir"],
    }
    keys = {cls.__name__: list(typing.get_type_hints(cls))
            for cls in (SweepConfig, GmeSingleConfig, AmplitudeConfig)}
    assert keys == {
        "SweepConfig": ["initial_state", "x", "gamma0_t_max", "steps", "measures",
                        "gme_stride", "workers", "sdp_tolerance"],
        "GmeSingleConfig": ["state", "tolerance", "dump_problem"],
        "AmplitudeConfig": ["x", "gamma0_t_max", "steps"],
    }


def test_the_library_surface_is_pinned():
    # every field of the solve's problem and results, and every parameter
    # of its entry points, so that adding or removing a knob or a result
    # field changes exactly this test
    fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
              for cls in (GmeProblem, GmeSolution, SdpResult)}
    assert fields == {
        "GmeProblem": ["rho", "tolerance"],
        "GmeSolution": ["objective", "genuine_negativity", "witness", "decompositions",
                        "residuals", "dual_objective", "iterations", "reduced",
                        "num_variables"],
        "SdpResult": ["x", "primal_objective", "dual_objective", "gap", "rel_gap",
                      "dual_residual", "iterations"],
    }
    params = {fn.__name__: list(inspect.signature(fn).parameters)
              for fn in (solve_gme, solve_gme_batch, problem_json_dict, solve_block_sdp,
                         solve_block_sdp_batch)}
    assert params == {
        "solve_gme": ["problem", "symmetry_reduction"],
        "solve_gme_batch": ["problems"],
        "problem_json_dict": ["problem"],
        "solve_block_sdp": ["stack", "c", "x0", "tolerance"],
        "solve_block_sdp_batch": ["stack", "c", "x0", "tolerance"],
    }


def test_io_error_exit_code(tmp_path):
    cfg = write_config(tmp_path, {"x": 5.0, "gamma0_t_max": 1.0, "steps": 5})
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a directory")
    code = main(["amplitude", "--config", cfg, "--out-dir", str(blocker / "sub")])
    assert code == 3


@pytest.mark.parametrize("command, doc, key", [
    ("gme-single", {"state": {"kind": "ghz", "n": 3}, "symetry_reduction": False},
     "symetry_reduction"),
    ("amplitude", {"x": 5.0, "gamma0_t_max": 2.0, "stpes": 20}, "stpes"),
])
def test_unknown_config_key_exits_1(tmp_path, capsys, command, doc, key):
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out-dir", str(out)]) == 1
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


SWEEP_DOC = {"initial_state": {"kind": "werner", "p": 0.45}, "x": 5.0,
             "gamma0_t_max": 1.0, "measures": ["cc"]}


def _matrix_state(key, bad):
    """gme-single state: the two-qubit GHZ document with one entry or dim replaced."""
    matrix = ghz_state(2).to_json_dict()
    if key == "dims":
        matrix["dims"][0] = bad
    else:
        matrix[key][0][0] = bad
    return {"state": {"kind": "matrix", "matrix": matrix}}


@pytest.mark.parametrize("command, doc", [
    ("gme-single", {"state": {"kind": "ghz", "n": 3}, "dump_problem": "false"}),
    ("gme-single", {"state": {"kind": "ghz", "n": 3}, "dump_problem": 1}),
    ("sweep", {**SWEEP_DOC, "steps": 4.7}),
    ("sweep", {**SWEEP_DOC, "workers": 1.9}),
    ("sweep", {**SWEEP_DOC, "gme_stride": True}),
    ("sweep", {**SWEEP_DOC, "x": True}),
    ("sweep", {**SWEEP_DOC, "gamma0_t_max": "1.0"}),
    ("sweep", {**SWEEP_DOC, "sdp_tolerance": "1e-7"}),
    ("sweep", {**SWEEP_DOC, "initial_state": {"kind": "werner", "p": "0.45"}}),
    ("sweep", {**SWEEP_DOC, "initial_state": {"kind": "pure", "alpha": True, "beta": 0}}),
    ("sweep", {**SWEEP_DOC, "initial_state": {"kind": "pure", "alpha": [0.6, "0"],
                                              "beta": 0.8}}),
    ("sweep", {**SWEEP_DOC, "initial_state": {"kind": "xstate", "rho11": "1", "rho22": 0,
                                              "rho33": 0, "rho44": 0}}),
    ("gme-single", {"state": {"kind": "ghz", "n": 3.0}}),
    ("gme-single", {"state": {"kind": "ghz", "n": 3}, "tolerance": "1e-7"}),
    ("gme-single", {"state": {"kind": "kay", "alpha": "3"}}),
    ("gme-single", {"state": {"kind": "evolved", "initial_state": {"kind": "werner", "p": 0.45},
                              "x": True, "gamma0_t": 1.0}}),
    ("gme-single", {"state": {"kind": "evolved", "initial_state": {"kind": "werner", "p": 0.45},
                              "x": 5.0, "gamma0_t": "1"}}),
    ("amplitude", {"x": "5"}),
    ("amplitude", {"x": 5.0, "gamma0_t_max": False}),
    ("gme-single", _matrix_state("re", "1")),
    ("gme-single", _matrix_state("im", False)),
    ("gme-single", _matrix_state("dims", 2.7)),
    ("gme-single", _matrix_state("re", math.nan)),
    ("gme-single", _matrix_state("im", math.inf)),
    ("sweep", {**SWEEP_DOC, "x": math.nan}),
    ("sweep", {**SWEEP_DOC, "x": 10**400}),
    ("sweep", {**SWEEP_DOC, "measures": {"cc": 1, "rr": 2}}),
])
def test_config_value_of_wrong_json_type_exits_1(tmp_path, capsys, command, doc):
    # booleans take only true/false, integers only JSON integers, floats
    # only JSON numbers and measures only a JSON array of strings: nothing is
    # coerced, so "false" does not run the reduced solve, 4.7 is not 4,
    # neither true nor "1.0" is 1.0, and an object is not its keys
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out-dir", str(out)]) == 1
    assert "expected a JSON" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, doc, key", [
    ("sweep", {**SWEEP_DOC, "sdp_tolerance": 0.5}, "sdp_tolerance"),
    ("sweep", {**SWEEP_DOC, "sdp_tolerance": -1}, "sdp_tolerance"),
    # the event thresholds are constants, not config values
    ("sweep", {**SWEEP_DOC, "tolerances": {"zero": 1e-8}}, "tolerances"),
])
def test_config_value_out_of_range_exits_1(tmp_path, capsys, command, doc, key):
    # rejected when the config is read, before any evolution or SDP work;
    # a sweep of cc and rr only checks its sdp_tolerance all the same
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not out.exists()


def test_sweep_worker_pool_writes_the_same_bytes(tmp_path):
    doc = {
        "initial_state": {"kind": "pure", "alpha": math.sqrt(1 / 26),
                          "beta": 5 * math.sqrt(1 / 26)},
        "x": 5.0,
        "gamma0_t_max": 1.2,
        "steps": 12,
        "gme_stride": 3,
    }
    outs = []
    for workers in (1, 2):
        cfg = write_config(tmp_path, {**doc, "workers": workers}, f"w{workers}.json")
        outs.append(tmp_path / f"w{workers}")
        assert main(["sweep", "--config", cfg, "--out-dir", str(outs[-1])]) == 0
    serial, pooled = outs
    rows = (serial / "trace.csv").read_text().splitlines()[1:]
    assert sum(row.split(",")[4] != "" for row in rows) == 5
    for name in ("trace.csv", "events.json"):
        assert (pooled / name).read_bytes() == (serial / name).read_bytes()


def test_amplitude_csv_keeps_round_trip_digits(tmp_path):
    cfg = write_config(tmp_path, {"x": 0.1, "gamma0_t_max": 2.0, "steps": 4})
    out = tmp_path / "out"
    assert main(["amplitude", "--config", cfg, "--out-dir", str(out)]) == 0
    table = np.loadtxt(out / "amplitude.csv", delimiter=",", skiprows=1)
    model = AmplitudeModel(1.0, 0.1)
    ts = np.linspace(0.0, 2.0, 5)
    assert np.array_equal(table[:, 0], ts)
    assert np.array_equal(table[:, 1], c0(model, ts))
    assert np.array_equal(table[:, 2], c_excitation(model, ts))


@pytest.mark.parametrize("exc, best_bound", [
    (np.linalg.LinAlgError("injected"), None),
    (SdpNumericalError("injected", best_bound=-0.25, iterations=4), -0.25),
])
def test_gme_single_numerical_failure_exit_code(tmp_path, monkeypatch, exc, best_bound):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr("entdyn.cli.solve_gme", fail)
    cfg = write_config(tmp_path, {"state": {"kind": "ghz", "n": 3}})
    out = tmp_path / "out"
    assert main(["gme-single", "--config", cfg, "--out-dir", str(out)]) == 2
    doc = json.loads((out / "gme.json").read_text())
    assert doc == {"error": f"{type(exc).__name__}: injected", "best_bound": best_bound}


def run_with_failing_solver(tmp_path, failure, workers):
    """``entdyn sweep`` in a fresh process whose GME batches run ``failure``.

    ``entdyn.sweep.solve_gme`` is the batch entry: the sweep calls it once
    per batch of GME points, with the list of their problems.
    """
    cfg = write_config(tmp_path, {
        "initial_state": {"kind": "werner", "p": 0.45},
        "x": 5.0,
        "gamma0_t_max": 1.0,
        "steps": 16,            # 17 GME points: two batches, so two workers start a pool
        "measures": ["cc", "gme"],
        "workers": workers,
    })
    out = tmp_path / "out"
    code = (
        "import os, sys, numpy as np, entdyn.sweep\n"
        "def fail(*args, **kwargs):\n"
        f"    {failure}\n"
        "entdyn.sweep.solve_gme = fail\n"
        "from entdyn.cli import main\n"
        f"sys.exit(main(['sweep', '--config', {cfg!r}, '--out-dir', {str(out)!r}]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(entdyn.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    return proc, out


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_linalg_error_becomes_nan_and_exit_2(tmp_path, workers):
    # a batch whose solve raises gives every one of its points NaN and a
    # diagnostic of its own
    proc, out = run_with_failing_solver(
        tmp_path, "raise np.linalg.LinAlgError('injected')", workers)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("LinAlgError: injected") == 17
    rows = [row.split(",") for row in (out / "trace.csv").read_text().splitlines()[1:]]
    assert len(rows) == 17 and all(row[4] == "" and row[2] != "" for row in rows)
    for row in rows:
        assert f"gamma0_t={float(row[0]):.6g}: LinAlgError: injected" in proc.stderr


def test_sweep_crashed_worker_exits_2(tmp_path):
    proc, _ = run_with_failing_solver(tmp_path, "os._exit(1)", workers=2)
    assert proc.returncode == 2, proc.stderr
    assert "worker failure" in proc.stderr


def test_benchmark_spans_count_the_calls_at_the_wrapped_sites(tmp_path):
    # the bench replaces each site's module attribute once, at start-up; a
    # name the program bound elsewhere, or imported again later, would be
    # called without its span and leave these counts at zero
    script = Path(__file__).resolve().parents[1] / "perfbench" / "trace_cli.py"
    spans = tmp_path / "spans"
    spans.mkdir()
    env = {**os.environ, "PYTHONPATH": str(Path(entdyn.__file__).parents[1]),
           "PERFBENCH_SPANS": str(spans), "PERFBENCH_LAUNCH": repr(time.monotonic())}
    sweep = write_config(tmp_path, {**SWEEP_DOC, "steps": 4, "gme_stride": 2,
                                    "measures": ["cc", "gme"]}, "sweep.json")
    ghz = write_config(tmp_path, {"state": {"kind": "ghz", "n": 3}}, "ghz.json")
    for argv in (["sweep", "--config", sweep], ["gme-single", "--config", ghz]):
        subprocess.run([sys.executable, str(script), *argv, "--out-dir", str(tmp_path)],
                       check=True, env=env, timeout=120)
    calls = collections.Counter()
    for path in spans.glob("spans-*.jsonl"):
        for line in path.read_text().splitlines():
            for site, (count, _, _) in json.loads(line)["totals"].items():
                calls[site] += count
    # the sweep solves its 3 GME points as one batch, through
    # solve_block_sdp_batch; only gme-single calls solve_block_sdp
    assert calls["entdyn.sweep.solve_gme"] == 1
    assert calls["entdyn.cli.solve_gme"] == 1
    assert calls["entdyn.gme.witness.solve_block_sdp"] == 1
    assert calls["entdyn.gme.ipm.cho_factor"] >= 4


def test_benchmark_wrap_sites_resolve():
    # perfbench/trace_cli.py replaces each SITES entry by module attribute;
    # a name moved away from its site would fail only in a traced bench run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "trace_cli.py"
    sites = runpy.run_path(str(path))["SITES"]
    assert sites
    for site in sites:
        module_name, attr = site.rsplit(".", 1)
        assert callable(getattr(importlib.import_module(module_name), attr, None)), site


@pytest.mark.parametrize("command, doc", [
    ("sweep", {**SWEEP_DOC, "steps": 4, "gme_stride": 2, "measures": ["cc", "gme"]}),
    ("gme-single", {"state": {"kind": "matrix", "matrix": ghz_state(4).to_json_dict()},
                    "tolerance": 1e-7}),
], ids=["sweep", "gme-single"])
def test_benchmark_probe_sets_up(tmp_path, command, doc):
    # perfbench/probe.py parses the config and builds the first solve's
    # formulation through the library's names; a renamed config field or
    # function would fail only in a bench run
    probe = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"
    env = {**os.environ, "PYTHONPATH": str(Path(entdyn.__file__).parents[1])}
    proc = subprocess.run([sys.executable, str(probe), command, write_config(tmp_path, doc)],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    (stamp,) = proc.stdout.split()
    assert math.isfinite(float(stamp))
