"""Run the entdyn command line with per-layer spans around its public calls.

Usage: ``python3 perfbench/trace_cli.py <entdyn arguments>`` with ``src/``
on ``PYTHONPATH``, ``PERFBENCH_SPANS`` naming a directory and
``PERFBENCH_LAUNCH`` holding the caller's ``time.monotonic()`` at launch.
Behaves like ``python -m entdyn.cli`` and also appends one JSON line per
finished outermost span to ``$PERFBENCH_SPANS/spans-<pid>.jsonl``; the
last line of the main process adds its start-up time and command.

Each wrapper replaces a function at the module attribute its caller looks
it up by (``entdyn.gme.witness.solve_block_sdp``, ``entdyn.gme.ipm.cho_factor``
and so on), so the program itself is unchanged.  A span's self time is its
duration minus the time of the wrapped calls it made.  Pool workers forked
by a sweep inherit the wrappers; a fork hook clears the inherited totals
so each process reports only its own work.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict

# site "module.attribute" -> span name
SITES = {
    "entdyn.amplitude.c0": "amplitude.c0",
    "entdyn.evolution._c0": "amplitude.c0",
    "entdyn.sweep._c0": "amplitude.c0",
    "entdyn.cli._c0": "amplitude.c0",
    "entdyn.sweep.evolve_cc": "evolution.evolve_cc",
    "entdyn.sweep.evolve_rr": "evolution.evolve_rr",
    "entdyn.sweep.evolve_four": "evolution.evolve_four",
    "entdyn.cli.evolve_four": "evolution.evolve_four",
    "entdyn.sweep.negativity_xstate": "entanglement.negativity_xstate",
    "entdyn.sweep.solve_gme": "gme.witness.solve_gme",
    "entdyn.cli.solve_gme": "gme.witness.solve_gme",
    "entdyn.gme.witness.solve_block_sdp": "gme.ipm.solve_block_sdp",
    "entdyn.gme.ipm.cho_factor": "gme.ipm.cho_factor",
    "entdyn.gme.ipm.cho_solve": "gme.ipm.cho_solve",
    "entdyn.cli.run_sweep": "sweep.run_sweep",
    "entdyn.cli.detect_events": "sweep.detect_events",
    "entdyn.cli.emit": "sweep.emit",
}


class Tracer:
    """Span totals of one process, flushed whenever the span stack empties."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.solved = False
        self.reset()

    def forked(self) -> None:
        self.solved = False
        self.reset()

    def reset(self) -> None:
        self.stack: list[float] = []          # child time of each open span
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])   # count, total, self
        self.solve_s: list[float] = []
        self.first_solve_s: float | None = None
        self.iterations = 0
        self.num_vars: list[int] = []
        self.blocks: list[int] = []
        self.factor_flop = 0.0
        self.grid_points = 0

    def wrap(self, site: str, name: str, fn):
        def traced(*args, **kwargs):
            self.stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self.stack.pop()
                if self.stack:
                    self.stack[-1] += dt
                rec = self.totals[site]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
            self._observe(name, args, out, dt)
            if not self.stack:
                self.flush()
            return out

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name, args, out, dt) -> None:
        if name == "gme.witness.solve_gme":
            self.solve_s.append(dt)
            if not self.solved:
                self.solved = True
                self.first_solve_s = dt
        elif name == "gme.ipm.solve_block_sdp":
            self.iterations += out.iterations
            self.num_vars.append(int(args[1].size))
            self.blocks.append(len(args[0]))
        elif name == "gme.ipm.cho_factor":
            m = args[0].shape[0]
            self.factor_flop += m**3 / 3.0
        elif name == "sweep.run_sweep":
            self.grid_points += int(out.gamma0_t.size)

    def flush(self, **extra) -> None:
        if not self.totals and not extra:
            return
        record = {
            "pid": os.getpid(),
            "totals": dict(self.totals),
            "solve_s": self.solve_s,
            "first_solve_s": self.first_solve_s,
            "iterations": self.iterations,
            "num_vars": self.num_vars,
            "blocks": self.blocks,
            "factor_flop": self.factor_flop,
            "grid_points": self.grid_points,
            **extra,
        }
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps(record) + "\n")
        self.reset()

    def install(self) -> None:
        for site, name in SITES.items():
            module_name, attr = site.rsplit(".", 1)
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(site, name, getattr(module, attr)))
        os.register_at_fork(after_in_child=self.forked)


def main(argv: list[str]) -> int:
    tracer = Tracer(os.environ["PERFBENCH_SPANS"])
    import entdyn.cli

    tracer.install()
    start = time.monotonic()
    try:
        return entdyn.cli.main(argv)
    finally:
        tracer.flush(command=argv[0] if argv else "",
                     process_start_s=start - float(os.environ["PERFBENCH_LAUNCH"]),
                     main_s=time.monotonic() - start)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
