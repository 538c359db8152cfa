import json
import math
import subprocess
import sys

import numpy as np
import pytest

from entdyn.cli import main
from entdyn.states import ghz_state, random_density_matrix


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_events_command_reproduces_sweep_events_exactly(tmp_path, fmt):
    cfg = write_config(tmp_path, {
        "initial_state": {"kind": "pure", "alpha": math.sqrt(1 / 3),
                          "beta": math.sqrt(2 / 3)},
        "x": 5.0,
        "gamma0_t_max": 8.0,
        "steps": 6000,
        "measures": ["cc", "rr"],
    })
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out-dir", str(out), "--format", fmt]) == 0
    original = (out / "events.json").read_bytes()
    assert json.loads(original)["esd_time"] is not None
    (out / "events.json").unlink()
    assert main(["events", "--out-dir", str(out)]) == 0
    assert (out / "events.json").read_bytes() == original


def test_events_command_rejects_malformed_json_trace(tmp_path):
    (tmp_path / "trace.json").write_text(json.dumps({"gamma0_t": [0.0, 1.0]}))
    assert main(["events", "--out-dir", str(tmp_path)]) == 1
    assert main(["events", "--out-dir", str(tmp_path / "missing")]) == 3


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


def test_cli_import_does_not_load_scipy():
    code = "import sys, entdyn.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_gme_single_named_state(tmp_path):
    cfg = write_config(tmp_path, {"state": {"kind": "ghz", "n": 3}, "dump_problem": True})
    out = tmp_path / "out"
    assert main(["gme-single", "--config", cfg, "--out-dir", str(out)]) == 0
    doc = json.loads((out / "gme.json").read_text())
    assert doc["genuine_negativity"] == pytest.approx(0.5, abs=1e-4)
    assert doc["converged"] is True
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


def test_sweep_json_format(tmp_path):
    cfg = write_config(tmp_path, {
        "initial_state": {"kind": "werner", "p": 0.45},
        "x": 5.0,
        "gamma0_t_max": 1.0,
        "steps": 10,
        "measures": ["cc"],
    })
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out-dir", str(out),
                 "--format", "json"]) == 0
    doc = json.loads((out / "trace.json").read_text())
    assert len(doc["gamma0_t"]) == 11
    assert doc["e_rr"][0] is None and doc["e_cc"][0] > 0


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


def test_io_error_exit_code(tmp_path):
    cfg = write_config(tmp_path, {"x": 5.0, "gamma0_t_max": 1.0, "steps": 5})
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a directory")
    code = main(["amplitude", "--config", cfg, "--out-dir", str(blocker / "sub")])
    assert code == 3
