"""One fresh entdyn process up to the point where work can start.

Usage: ``python3 perfbench/probe.py sweep|gme-single <config.json>`` with
``src/`` on ``PYTHONPATH``.  Imports what the command line imports, parses
the config, and for an SDP workload builds the witness-SDP formulation for
the workload's first state; then prints ``time.monotonic()``.  The caller
subtracts its own launch time to get the set-up time.
"""

from __future__ import annotations

import json
import sys
import time

import entdyn.cli  # noqa: F401  (the command line's import cost)
from entdyn import AmplitudeModel, DensityMatrix, GmeProblem
from entdyn.evolution import evolve_four
from entdyn.gme import problem_json_dict
from entdyn.sweep import SweepConfig


def main(command: str, path: str) -> None:
    with open(path) as fh:
        doc = json.load(fh)
    if command == "sweep":
        cfg = SweepConfig.from_dict(doc)
        if "gme" in cfg.measures:
            rho = evolve_four(cfg.initial_state, AmplitudeModel(1.0, cfg.x), 0.0)
            problem_json_dict(GmeProblem(rho=rho, tolerance=cfg.sdp_tolerance))
    else:
        rho = DensityMatrix.from_json_dict(doc["state"]["matrix"])
        problem_json_dict(GmeProblem(rho=rho, tolerance=float(doc.get("tolerance", 1e-7))))
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
