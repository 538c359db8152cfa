"""Entanglement dynamics of two cavity-reservoir qubit pairs.

Library layout:

- ``amplitude``: the closed-form cavity amplitude across damping regimes,
- ``states``: density matrices, the X-state family, benchmark states,
- ``evolution``: closed-form marginals and the dilated four-qubit state,
- ``entanglement``: negativity and the X-state concurrence cross-check,
- ``gme``: genuine multipartite negativity via a witness SDP with a
  self-contained interior-point solver,
- ``events``: event detection (sudden death / birth, the dead window,
  freezing) and the trace files trace.csv and events.json, with the
  standard library only,
- ``sweep``: time-grid sweeps, and every config and other output file of
  the command line,
- ``cli``: the ``entdyn`` argument parser and dispatcher.

The names exported here load on first use: ``import entdyn`` imports
neither numpy nor any submodule, and ``from entdyn import GmeProblem``
imports ``entdyn.gme`` (and numpy) only then.  That lets the command line
choose numpy's thread count before numpy loads.
"""

import importlib

__version__ = "0.1.0"

# the names each submodule exports here
_SOURCES = {
    "amplitude": ("AmplitudeModel", "c0", "c_excitation", "first_zero"),
    "entanglement": ("concurrence_xstate", "negativity", "negativity_xstate"),
    "events": ("ZERO_ENTANGLEMENT_TOL",),
    "evolution": ("evolve_cc", "evolve_four", "evolve_rr"),
    "states": ("Bipartition", "DensityMatrix", "StateValidationError", "XState", "bell_pair",
               "biseparable_bell_mixture", "ghz_state", "kay_state", "partial_trace",
               "partial_transpose", "permute_subsystems", "pure_alpha_beta",
               "random_density_matrix", "random_pure_state", "tensor", "werner", "x_state",
               "x_state_is_entangled"),
    "gme": ("GmeProblem", "GmeSolution", "SdpError", "SdpNonConvergenceError",
            "SdpNumericalError", "enumerate_bipartitions", "solve_gme", "verify_witness"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
