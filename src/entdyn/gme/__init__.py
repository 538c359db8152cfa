"""Genuine multipartite negativity via the fully-decomposable-witness SDP."""

from .ipm import (
    SchurPartition,
    SdpBlock,
    SdpNonConvergenceError,
    SdpNumericalError,
    SdpResult,
    solve_block_sdp,
)
from .witness import (
    GmeProblem,
    GmeSolution,
    WitnessReport,
    enumerate_bipartitions,
    negativity_via_gme,
    problem_json_dict,
    solve_gme,
    verify_witness,
)

__all__ = [
    "SchurPartition",
    "SdpBlock",
    "SdpResult",
    "SdpNonConvergenceError",
    "SdpNumericalError",
    "solve_block_sdp",
    "GmeProblem",
    "GmeSolution",
    "WitnessReport",
    "enumerate_bipartitions",
    "negativity_via_gme",
    "problem_json_dict",
    "solve_gme",
    "verify_witness",
]
