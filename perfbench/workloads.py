"""The benchmark workloads: inputs made from the seed, and output checks.

A workload writes its configs into its work directory, names the
``entdyn`` commands of one round (and any reference commands run once per
benchmark run), and checks a round's output files against the oracles in
``oracles.py``.  Checks never compare with stored program output.
"""

from __future__ import annotations

import json
import math
import os
import shutil

import numpy as np

import oracles

ALPHA_26, BETA_26 = math.sqrt(1 / 26), 5 * math.sqrt(1 / 26)
ALPHA_13, BETA_13 = math.sqrt(1 / 3), math.sqrt(2 / 3)
SDP_TOL = 1e-7          # the program's default solver tolerance
GME_SLACK = 10 * SDP_TOL


def read_trace(path: str) -> dict[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    cols = zip(*rows)
    return {name: np.array([float(v) if v else math.nan for v in col])
            for name, col in zip(header, cols)}


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def near(label: str, got, want, tol: float) -> list[str]:
    if got is None or want is None or not abs(got - want) <= tol:
        return [f"{label}: {got} vs oracle {want} (tolerance {tol:.3g})"]
    return []


class Workload:
    """Base: ``round_commands`` are timed; ``reference_commands`` run once.

    The checks get the exit code of each command and look only at the
    outputs of commands that exited 0; a non-zero exit is already counted as
    a failed operation."""

    def __init__(self, seed: int, work_dir: str):
        self.dir = work_dir
        self.rng = np.random.default_rng(seed)
        self.outputs: list[str] = []

    def path(self, *parts: str) -> str:
        return os.path.join(self.dir, *parts)

    def reference_commands(self, traced: bool) -> list[list[str]]:
        return []

    def check_references(self, codes: list[int]) -> list[str]:
        return []

    def start_round(self) -> None:
        """Remove the last round's output directories, so that no check reads
        a file a failed command left unwritten."""
        for out in self.outputs:
            shutil.rmtree(out, ignore_errors=True)

    def after_command(self, index: int, code: int) -> None:
        """Called with the exit code after each round command, outside its
        timed interval."""

    def output_operations(self, codes: list[int]) -> tuple[int, int]:
        """Comparisons between the last round's outputs that count as
        operations of their own: (attempted, failed)."""
        return 0, 0


class FreezeSweep(Workload):
    """Pure alpha = sqrt(1/26) at x = 0.01 through the first freeze window and
    into the recurrent one; the seed shifts the grid end by up to 0.5.

    The traced run also runs the same config once on a two-worker pool: its
    outputs must match the one-worker rounds byte for byte, and its
    ``run_sweep`` time is the base of ``sweep.pool_speedup``.
    """

    x = 0.01
    gme_points = 10
    stride = 45

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.tmax = 40.5 + 0.5 * float(self.rng.random())
        self.steps = self.stride * (self.gme_points - 1)
        self.rho_cc = oracles.pure_state(ALPHA_26, BETA_26)
        self.oracle = oracles.pure_events(ALPHA_26, BETA_26, self.x, self.tmax)
        doc = {
            "initial_state": {"kind": "pure", "alpha": ALPHA_26, "beta": BETA_26},
            "x": self.x, "gamma0_t_max": self.tmax, "steps": self.steps,
            "measures": ["cc", "rr", "gme"], "gme_stride": self.stride,
        }
        self.config = self.path("freeze.json")
        self.pool_config = self.path("freeze-pool.json")
        write_json(self.config, {**doc, "workers": 1})
        write_json(self.pool_config, {**doc, "workers": 2})
        self.probe = ["sweep", self.config]
        self.outputs = [self.path("out")]
        self.pooled = False

    def reference_commands(self, traced):
        self.pooled = traced
        if not traced:
            return []
        return [["sweep", "--config", self.pool_config, "--out-dir", self.path("pool")]]

    def check_references(self, codes):
        self.pooled = self.pooled and codes == [0]
        return self._check("pool") if self.pooled else []

    def round_commands(self):
        return [["sweep", "--config", self.config, "--out-dir", self.path("out")]]

    def check_round(self, codes) -> list[str]:
        if codes != [0]:
            return []
        bad = self._check("out")
        if self.pooled:
            for name in ("trace.csv", "events.json"):
                with open(self.path("out", name), "rb") as a, \
                        open(self.path("pool", name), "rb") as b:
                    if a.read() != b.read():
                        bad.append(f"{name} from workers=2 differs from the workers=1 run")
        return bad

    def _check(self, out: str) -> list[str]:
        """Events against the oracle roots, every e_gme inside [0, min-cut
        bound], and two freeze windows at 5/26, the second after the first."""
        events = read_json(self.path(out, "events.json"))
        step = self.tmax / self.steps
        bad = near(f"{out} esd", events["esd_time"], self.oracle["esd"], step)
        bad += near(f"{out} esb", events["esb_time"], self.oracle["esb"], step)
        trace = read_trace(self.path(out, "trace.csv"))
        ts, gme = trace["gamma0_t"], trace["e_gme"]
        for t, e in zip(ts, gme):
            if math.isnan(e):
                continue
            bound = oracles.min_cut_negativity(oracles.four_qubit_state(self.rho_cc, self.x, t))
            if not 0.0 <= e <= bound + GME_SLACK:
                bad.append(f"{out} e_gme({t}) = {e} outside [0, min-cut bound {bound}]")
        levels = []
        for start, end in events["freeze_windows"]:
            inside = gme[(ts >= start) & (ts <= end) & np.isfinite(gme)]
            levels.append(float(inside.max()) if inside.size else math.nan)
        frozen = [k for k, lvl in enumerate(levels)
                  if abs(lvl - oracles.FREEZE_LEVEL) <= 1e-6]
        windows = events["freeze_windows"]
        if not frozen:
            bad.append(f"{out}: no freeze window at 5/26: windows {windows}, levels {levels}")
        elif not any(windows[k][0] > windows[frozen[0]][1] for k in frozen[1:]):
            bad.append(f"{out}: no recurrent freeze window at 5/26 after "
                       f"{windows[frozen[0]]}: {windows}")
        return bad


class GenericSolve(Workload):
    """freeze-sweep's state at one seeded time inside the first freeze window
    and one before the cavity death, each turned by a seeded random local
    unitary, so that no diagonal-phase symmetry is left and every solve takes
    the unreduced path.  Reference: the reduced solve of the unturned state."""

    x = 0.01

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        rho_cc = oracles.pure_state(ALPHA_26, BETA_26)
        ev = oracles.pure_events(ALPHA_26, BETA_26, self.x, 20.0)
        self.times = {
            "frozen": float(self.rng.uniform(ev["esd"] + 2.0, ev["esb"] - 2.0)),
            "live": float(self.rng.uniform(1.0, ev["esd"] - 1.5)),
        }
        self.states = {}
        for label, t in self.times.items():
            u = oracles.random_local_unitary(self.rng, 4)
            rho = u @ oracles.four_qubit_state(rho_cc, self.x, t) @ u.conj().T
            rho = 0.5 * (rho + rho.conj().T)
            self.states[label] = rho
            write_json(self.path(f"{label}.json"), {
                "state": {"kind": "matrix", "matrix": {
                    "dims": [2, 2, 2, 2], "re": rho.real.tolist(), "im": rho.imag.tolist()}},
                "tolerance": SDP_TOL,
            })
            write_json(self.path(f"{label}-ref.json"), {
                "state": {"kind": "evolved", "x": self.x, "gamma0_t": t,
                          "initial_state": {"kind": "pure", "alpha": ALPHA_26, "beta": BETA_26}},
                "tolerance": SDP_TOL,
            })
        self.probe = ["gme-single", self.path("frozen.json")]
        self.outputs = [self.path(k) for k in self.times]
        self.ref_ok = dict.fromkeys(self.times, False)

    def reference_commands(self, traced):
        return [["gme-single", "--config", self.path(f"{k}-ref.json"),
                 "--out-dir", self.path(f"{k}-ref")] for k in self.times]

    def round_commands(self):
        return [["gme-single", "--config", self.path(f"{k}.json"),
                 "--out-dir", self.path(k)] for k in self.times]

    def check_references(self, codes):
        bad = []
        for k, code in zip(self.times, codes):
            self.ref_ok[k] = code == 0
            if code != 0:
                continue
            sol = read_json(self.path(f"{k}-ref", "gme.json"))
            if not sol.get("reduced"):
                bad.append(f"{k}-ref: reference solve did not take the reduced path")
        return bad

    def check_round(self, codes):
        bad = []
        for (k, t), code in zip(self.times.items(), codes):
            if code != 0:
                continue
            sol = read_json(self.path(k, "gme.json"))
            gn, primal, dual = sol["genuine_negativity"], sol["objective"], sol["dual_objective"]
            if sol["reduced"] is not False:
                bad.append(f"{k}: gme.json reports reduced={sol['reduced']}")
            if dual > primal + SDP_TOL * (1 + abs(primal) + abs(dual)):
                bad.append(f"{k}: dual {dual} above primal {primal}")
            if self.ref_ok[k]:
                ref = read_json(self.path(f"{k}-ref", "gme.json"))
                bad += near(f"{k} (t={t:.4f}) vs reduced unrotated solve", gn,
                            ref["genuine_negativity"], GME_SLACK)
            if k == "frozen":
                bad += near(f"{k} (t={t:.4f}) freeze level", gn, oracles.FREEZE_LEVEL, GME_SLACK)
            bound = oracles.min_cut_negativity(self.states[k])
            if not 0.0 <= gn <= bound + GME_SLACK:
                bad.append(f"{k}: genuine negativity {gn} outside [0, min-cut bound {bound}]")
        return bad


class BipartiteFine(Workload):
    """alpha = sqrt(1/3) on fine cc/rr grids at x = 5, 0.1, 0.01, each followed
    by ``entdyn events`` re-reading its trace.csv.  The grids are fixed, so the
    re-read comparison gives the same verdict on every seed; the seed sets the
    order of the three sweeps.

    Each round has nine operations: three sweeps and three re-reads, whose
    events.json files are each checked against the oracle roots, and three
    comparisons of a re-read's events.json with its sweep's, byte for byte.
    A comparison fails when the bytes differ or when either command exited
    non-zero, so a crashing re-read fails two operations and a wrong one
    fails the oracle check."""

    cases = ((5.0, 8.0), (0.1, 10.0), (0.01, 50.0))    # (x, gamma0_t_max)
    steps = 6000

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.order = [self.cases[k] for k in self.rng.permutation(len(self.cases))]
        self.oracle_by_x = {x: oracles.pure_events(ALPHA_13, BETA_13, x, tmax)
                            for x, tmax in self.cases}
        for x, tmax in self.cases:
            write_json(self.path(f"x{x}.json"), {
                "initial_state": {"kind": "pure", "alpha": ALPHA_13, "beta": BETA_13},
                "x": x, "gamma0_t_max": tmax, "steps": self.steps, "measures": ["cc", "rr"],
            })
        self.probe = ["sweep", self.path(f"x{self.order[0][0]}.json")]
        self.outputs = [self.path(f"x{x}") for x, _ in self.cases]
        # (x, "sweep" | "events") -> events.json bytes after that command
        # exited 0, or None when it wrote no events.json
        self.events: dict[tuple[float, str], bytes | None] = {}

    def start_round(self):
        super().start_round()
        self.events = {}

    def round_commands(self):
        cmds = []
        for x, _ in self.order:
            out = self.path(f"x{x}")
            cmds.append(["sweep", "--config", self.path(f"x{x}.json"), "--out-dir", out,
                         "--measures", "cc,rr"])
            cmds.append(["events", "--out-dir", out])
        return cmds

    def after_command(self, index, code):
        if code != 0:
            return
        x = self.order[index // 2][0]
        path = self.path(f"x{x}", "events.json")
        data = None
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
        self.events[x, ("sweep", "events")[index % 2]] = data

    def output_operations(self, codes):
        mismatched = [x for x, _ in self.order
                      if self.events.get((x, "sweep")) is None
                      or self.events.get((x, "sweep")) != self.events.get((x, "events"))]
        return len(self.order), len(mismatched)

    def check_round(self, codes):
        bad = []
        for x, tmax in self.order:
            oracle = self.oracle_by_x[x]
            step = tmax / self.steps
            for command in ("sweep", "events"):
                if (x, command) not in self.events:
                    continue        # the command exited non-zero
                label = f"x={x} {command}"
                data = self.events[x, command]
                if data is None:
                    bad.append(f"{label}: exited 0 but wrote no events.json")
                    continue
                events = json.loads(data)
                bad += near(f"{label} esd", events["esd_time"], oracle["esd"], step)
                bad += near(f"{label} esb", events["esb_time"], oracle["esb"], step)
                if x == 0.01:
                    revival = events["revival_times"][:1] or [None]
                    bad += near(f"{label} revival", revival[0],
                                (oracle["revivals"] or [None])[0], step)
        return bad


WORKLOADS = {
    "freeze-sweep": FreezeSweep,
    "generic-solve": GenericSolve,
    "bipartite-fine": BipartiteFine,
}
