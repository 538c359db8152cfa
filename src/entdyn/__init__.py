"""Entanglement dynamics of two cavity-reservoir qubit pairs.

Library layout:

- ``amplitude``: the closed-form cavity amplitude across damping regimes,
- ``states``: density matrices, the X-state family, benchmark states,
- ``evolution``: closed-form marginals and the dilated four-qubit state,
- ``entanglement``: negativity and the X-state concurrence cross-check,
- ``gme``: genuine multipartite negativity via a witness SDP with a
  self-contained interior-point solver; its names here load it on first use,
- ``sweep``: time-grid sweeps, event detection (sudden death / birth,
  freezing), and every config and output file of the command line,
- ``cli``: the ``entdyn`` argument parser and dispatcher.
"""

from .amplitude import AmplitudeModel, c0, c_excitation, first_zero
from .entanglement import (
    ZERO_ENTANGLEMENT_TOL,
    EntanglementValue,
    concurrence_xstate,
    negativity,
    negativity_xstate,
)
from .evolution import EvolvedPair, evolve_cc, evolve_four, evolve_pair, evolve_rr
from .states import (
    Bipartition,
    DensityMatrix,
    StateValidationError,
    XState,
    bell_pair,
    biseparable_bell_mixture,
    ghz_state,
    kay_state,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    pure_alpha_beta,
    random_density_matrix,
    random_pure_state,
    tensor,
    werner,
    x_state,
    x_state_is_entangled,
)

__version__ = "0.1.0"

# The witness-SDP solver loads on first use of one of its names, so a process
# that does no GME work (a cc/rr sweep, events, amplitude) never imports it.
_GME_NAMES = frozenset({
    "GmeProblem",
    "GmeSolution",
    "SdpError",
    "SdpNonConvergenceError",
    "SdpNumericalError",
    "enumerate_bipartitions",
    "negativity_via_gme",
    "solve_gme",
    "verify_witness",
})


def __getattr__(name: str):
    if name in _GME_NAMES:
        from . import gme

        return getattr(gme, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
