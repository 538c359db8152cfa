"""Benchmark of the entdyn command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload freeze-sweep --seed 1 --seconds 30 --trace 0

Every command is a fresh ``python -m entdyn.cli`` process with ``src/`` on
the path, as a user runs it, with the BLAS thread count the libraries pick
by default.  A run measures as many whole rounds of the workload's commands
as fit in ``--seconds``, checks every round's outputs against the
oracles in ``oracles.py``, and prints one JSON object as its last line:
the end-to-end metrics with ``--trace 0``, the per-layer metrics from
``trace_cli.py`` spans with ``--trace 1``.  The traced run alternates
untraced and traced rounds and reports the tracing overhead between them.
A record of the run, the machine and the raw per-round figures goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass

import numpy as np
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5

BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
RUN_LIMIT_S = 170.0      # the whole run ends well inside 180 s


@dataclass
class Proc:
    """One finished process: wall time, CPU of it and its waited-for children,
    peak resident set (max over the same processes), exit code."""

    args: list
    launch: float
    wall_s: float
    cpu_s: float
    rss_kib: int
    code: int


def launch(argv: list[str], env: dict, log_path: str, timeout: float) -> Proc:
    """Run argv to its end; the child's own children die with it on timeout."""
    with open(log_path, "wb") as log:
        t0 = time.monotonic()
        env = {**env, "PERFBENCH_LAUNCH": repr(t0)}
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(argv, t0, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                proc.returncode)


def blas_record() -> list[dict]:
    """Each loaded OpenBLAS with the thread count it chose by default.

    Afterwards the benchmark's own process uses one BLAS thread, so that its
    checks leave no spinning threads behind to compete with the program;
    child processes still start with the default.
    """
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower() and path.endswith(".so"):
                libs.add(path)
    out = []
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for suffix in ("64_", "", "_64"):
            for prefix in ("scipy_openblas_", "openblas_"):
                fn = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                cfg = getattr(lib, f"{prefix}get_config{suffix}", None)
                pin = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
                if fn is not None and "threads" not in entry:
                    fn.restype = ctypes.c_int
                    entry["threads"] = fn()
                    if pin is not None:
                        pin(ctypes.c_int(1))
                if cfg is not None and "config" not in entry:
                    cfg.restype = ctypes.c_char_p
                    entry["config"] = cfg().decode()
        out.append(entry)
    return out


def machine_record(args) -> dict:
    cpu_model = ""
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), "")
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS for the record)

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def spans_of(span_dir: str) -> list[dict]:
    records = []
    for path in sorted(glob.glob(os.path.join(span_dir, "spans-*.jsonl"))):
        with open(path) as fh:
            records += [json.loads(line) for line in fh if line.strip()]
        os.remove(path)
    return records


def layer_metrics(records: list[dict]) -> dict:
    """Per-layer figures of one traced round, summed over its processes."""
    def total(*sites, field=1):
        return sum(r["totals"].get(s, [0, 0.0, 0.0])[field] for r in records for s in sites)

    solves = [s for r in records for s in r["solve_s"]]
    firsts = [r["first_solve_s"] for r in records if r["first_solve_s"] is not None]
    iterations = sum(r["iterations"] for r in records)
    num_vars = [v for r in records for v in r["num_vars"]]
    blocks = [b for r in records for b in r["blocks"]]
    ipm_s = total("entdyn.gme.witness.solve_block_sdp")
    solve_s = total("entdyn.sweep.solve_gme", "entdyn.cli.solve_gme")
    mains = [r for r in records if "command" in r]
    return {
        "amplitude.c0_calls": total("entdyn.amplitude.c0", "entdyn.evolution._c0",
                                    "entdyn.sweep._c0", "entdyn.cli._c0", field=0),
        "amplitude.c0_s": total("entdyn.amplitude.c0", "entdyn.evolution._c0",
                                "entdyn.sweep._c0", "entdyn.cli._c0"),
        "evolution.evolve_s": total("entdyn.sweep.evolve_cc", "entdyn.sweep.evolve_rr",
                                    "entdyn.sweep.evolve_four", "entdyn.cli.evolve_four"),
        "entanglement.negativity_xstate_s": total("entdyn.sweep.negativity_xstate"),
        "gme.witness.solve_gme_s": solve_s,
        "gme.witness.self_s": solve_s - ipm_s,
        "gme.witness.solve_p50_ms": 1e3 * float(np.percentile(solves, 50)) if solves else 0.0,
        "gme.witness.solve_p90_ms": 1e3 * float(np.percentile(solves, 90)) if solves else 0.0,
        "gme.witness.first_solve_s": statistics.median(firsts) if firsts else 0.0,
        "gme.ipm.solve_block_sdp_s": ipm_s,
        "gme.ipm.iterations": iterations,
        "gme.ipm.ms_per_iteration": 1e3 * ipm_s / iterations if iterations else 0.0,
        "gme.ipm.num_vars": statistics.median(num_vars) if num_vars else 0,
        "gme.ipm.blocks": statistics.median(blocks) if blocks else 0,
        "gme.ipm.schur_factor_s": total("entdyn.gme.ipm.cho_factor"),
        "gme.ipm.schur_solve_s": total("entdyn.gme.ipm.cho_solve"),
        "gme.ipm.schur_factor_gflop": sum(r["factor_flop"] for r in records) / 1e9,
        "sweep.run_sweep_s": total("entdyn.cli.run_sweep"),
        "sweep.detect_events_s": total("entdyn.cli.detect_events"),
        "sweep.emit_s": total("entdyn.cli.emit"),
        "sweep.grid_points": sum(r["grid_points"] for r in records),
        "sweep.sdp_solves": total("entdyn.sweep.solve_gme", field=0),
        "cli.process_start_s": statistics.median(r["process_start_s"] for r in mains)
        if mains else 0.0,
        "cli.events_s": sum(r["main_s"] for r in mains if r["command"] == "events"),
    }


class Runner:
    """Launches one workload's commands and keeps the run's time limit."""

    def __init__(self, root: str, work_dir: str, started: float):
        self.work_dir = work_dir
        self.started = started
        self.span_dir = os.path.join(work_dir, "spans")
        os.makedirs(self.span_dir)
        src = os.path.join(root, "src")
        self.env = {**os.environ,
                    "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
                    "PERFBENCH_SPANS": self.span_dir}
        self.count = 0

    def run(self, args: list[str], traced: bool = False, prog: list[str] | None = None,
            log: str | None = None) -> Proc:
        if prog is None:
            prog = [os.path.join(HERE, "trace_cli.py")] if traced else ["-m", "entdyn.cli"]
        self.count += 1
        log = log or os.path.join(self.work_dir, f"log-{self.count % 8}.txt")
        left = RUN_LIMIT_S - (time.monotonic() - self.started)
        proc = launch([sys.executable, *prog, *args], self.env, log, max(left, 1.0))
        if proc.code != 0:
            with open(log, errors="replace") as fh:
                tail = fh.read()[-2000:]
            print(f"exit {proc.code}: {' '.join(args)}\n{tail}", file=sys.stderr)
        return proc

    def setup_s(self, probe: list[str]) -> float:
        """Launch to ready of one fresh process (see probe.py)."""
        log = os.path.join(self.work_dir, "probe.txt")
        proc = self.run(probe, prog=[os.path.join(HERE, "probe.py")], log=log)
        if proc.code != 0:
            raise RuntimeError("set-up probe failed")
        with open(log) as fh:
            ready = float(fh.read().split()[-1])
        return ready - proc.launch


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "entdyn", "cli.py")):
        print("perfbench: run from the repository root; src/entdyn/cli.py not found",
              file=sys.stderr)
        return 2
    failures = oracles.self_test()
    if failures:
        print("perfbench: oracle self-test failed:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 1

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(HERE, "out", tag)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    runner = Runner(root, work_dir, started)
    os.chdir(work_dir)   # the program's relative paths, if any, stay in the checkout
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    machine = machine_record(args)

    attempted = failed = 0
    comparisons = {"attempted": 0, "failed": 0}    # output comparisons among them
    problems: list[str] = []

    references = []
    for cmd in workload.reference_commands(bool(args.trace)):
        proc = runner.run(cmd, traced=bool(args.trace))
        references.append(proc)
        attempted += 1
        failed += proc.code != 0
    problems += workload.check_references([p.code for p in references])
    reference_layers = layer_metrics(spans_of(runner.span_dir)) if args.trace and references else None

    # Whole rounds, as many as fit in --seconds judged by the last one (at
    # least one); a traced run alternates untraced and traced rounds.  The
    # set-up probes are spread over the run, one before each round, so that
    # their median sees the same machine conditions as the rounds.
    rounds = {False: [], True: []}      # traced? -> per-round records
    setup: list[float] = []
    t_measure = time.monotonic()
    while True:
        t_round = time.monotonic()
        if not args.trace:
            setup.append(runner.setup_s(workload.probe))
        for traced in ((False, True) if args.trace else (False,)):
            procs = []
            workload.start_round()
            for index, cmd in enumerate(workload.round_commands()):
                procs.append(runner.run(cmd, traced=traced))
                workload.after_command(index, procs[-1].code)
            codes = [p.code for p in procs]
            compared, mismatched = workload.output_operations(codes)
            attempted += len(procs) + compared
            failed += sum(c != 0 for c in codes) + mismatched
            comparisons["attempted"] += compared
            comparisons["failed"] += mismatched
            problems += workload.check_round(codes)
            record = {
                "time_s": sum(p.wall_s for p in procs),
                "cpu_s": sum(p.cpu_s for p in procs),
                "rss_kib": max(p.rss_kib for p in procs),
                "procs": [asdict(p) for p in procs],
            }
            if traced:
                record["layers"] = layer_metrics(spans_of(runner.span_dir))
            rounds[traced].append(record)
        now = time.monotonic()
        last = now - t_round
        if now + last > t_measure + args.seconds or now + last > started + RUN_LIMIT_S:
            break

    while not args.trace and len(setup) < SETUP_REPEATS:
        setup.append(runner.setup_s(workload.probe))

    plain = rounds[False]
    if args.trace:
        metrics = traced_metrics(rounds, reference_layers)
    else:
        metrics = {
            "time_to_solution_s": (statistics.median(r["time_s"] for r in plain), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "cpu_s": (statistics.median(r["cpu_s"] for r in plain), "s"),
            "peak_rss_mib": (max(r["rss_kib"] for r in plain) / 1024.0, "MiB"),
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"machine": machine, "result": result, "problems": problems,
              "comparisons": comparisons, "setup_s": setup,
              "references": [asdict(p) for p in references],
              "rounds": rounds[False], "traced_rounds": rounds[True],
              "wall_s": time.monotonic() - started}
    with open(os.path.join(HERE, "out", f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    for line in problems:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    blas = ", ".join(f"{b['library']}: {b.get('threads')} threads" for b in machine["blas"])
    print(f"{args.workload} seed {args.seed}: {len(plain)} rounds, "
          f"{attempted} operations, {failed} failed (output comparisons: "
          f"{comparisons['failed']} of {comparisons['attempted']} failed); BLAS {blas}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:12.6g} {unit}")
    print(json.dumps(result))
    return 0


def traced_metrics(rounds: dict, reference_layers: dict | None) -> dict:
    """Median per-layer figures over the traced rounds, plus tracing overhead.

    ``sweep.pool_speedup`` is the one-worker ``run_sweep`` time of the rounds
    over that of the two-worker reference run, where the workload has one.
    """
    layers = [r["layers"] for r in rounds[True]]
    out = {}
    for name in layers[0]:
        out[name] = statistics.median(lay[name] for lay in layers)
    pooled = reference_layers["sweep.run_sweep_s"] if reference_layers else 0.0
    out["sweep.pool_speedup"] = out["sweep.run_sweep_s"] / pooled if pooled else 0.0
    untraced = statistics.median(r["time_s"] for r in rounds[False])
    traced = statistics.median(r["time_s"] for r in rounds[True])
    out["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    with open(BENCHMARK) as fh:
        per_layer = json.load(fh)["per_layer"]
    return {m["name"]: (out[m["name"]], m["unit"]) for m in per_layer}


if __name__ == "__main__":
    sys.exit(main())
