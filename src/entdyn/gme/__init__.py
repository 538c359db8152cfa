"""Genuine multipartite negativity via the fully-decomposable-witness SDP."""

import numpy as np

from .ipm import (
    SchurPartition,
    SdpBlock,
    SdpError,
    SdpNonConvergenceError,
    SdpNumericalError,
    SdpResult,
    StackedBlocks,
    solve_block_sdp,
    solve_block_sdp_batch,
)
from .witness import (
    GmeProblem,
    GmeSolution,
    WitnessReport,
    enumerate_bipartitions,
    problem_json_dict,
    solve_gme,
    solve_gme_batch,
    verify_witness,
)

# What a failed solve raises: NaN and a diagnostic in a sweep, an error
# payload in gme.json
SOLVE_ERRORS = (SdpError, np.linalg.LinAlgError)

__all__ = [
    "SOLVE_ERRORS",
    "SchurPartition",
    "SdpBlock",
    "SdpResult",
    "SdpError",
    "SdpNonConvergenceError",
    "SdpNumericalError",
    "StackedBlocks",
    "solve_block_sdp",
    "solve_block_sdp_batch",
    "GmeProblem",
    "GmeSolution",
    "WitnessReport",
    "enumerate_bipartitions",
    "problem_json_dict",
    "solve_gme",
    "solve_gme_batch",
    "verify_witness",
]
