"""Entanglement sudden death and sudden birth between qubit pairs.

Two cavities start in the entangled pure state alpha|00> + beta|11>; each
leaks into its own reservoir.  Cavity-cavity negativity dies at a finite
time; reservoir-reservoir negativity is born at another.  For beta > 2
alpha the death comes first, opening a window where neither pair is
entangled.
"""

import math

import numpy as np

from entdyn import AmplitudeModel, negativity_xstate, pure_alpha_beta
from entdyn.evolution import evolve_cc, evolve_rr


def trace_line(label, values, width=64):
    lo, hi = 0.0, max(values.max(), 1e-9)
    cells = " .:-=+*#%@"
    line = "".join(cells[min(int((v - lo) / (hi - lo) * (len(cells) - 1)), 9)] for v in values)
    print(f"{label} |{line[:width]}|  peak={hi:.4f}")


def main():
    s0 = pure_alpha_beta(math.sqrt(1 / 26), 5 * math.sqrt(1 / 26))
    print("initial cavity-cavity negativity:", f"{negativity_xstate(s0):.4f}")
    print()

    for x in (5.0, 0.1, 0.01):
        model = AmplitudeModel(1.0, x)
        tmax = {5.0: 4.0, 0.1: 12.0, 0.01: 40.0}[x]
        ts = np.linspace(0.0, tmax, 64)
        # the closed forms take the whole time grid at once
        e_cc = negativity_xstate(evolve_cc(s0, model, ts))
        e_rr = negativity_xstate(evolve_rr(s0, model, ts))
        print(f"x = {x}  (gamma0*t from 0 to {tmax})")
        trace_line("  E_cc", e_cc)
        trace_line("  E_rr", e_rr)
        dead = (e_cc <= 1e-8) & (e_rr <= 1e-8)
        if np.any(dead):
            w = ts[dead]
            print(f"  both pairs unentangled on roughly [{w.min():.2f}, {w.max():.2f}]")
        print()


if __name__ == "__main__":
    main()
