"""Bipartite entanglement measures: negativity and the X-state concurrence.

Negativity is the reported measure (it matches the witness-based monotone
on a single cut); concurrence is kept as an independent cross-check with
the same zero set on X states.  Each returns a float.  The X-state
negativity also takes an X state with array fields, a whole trajectory at
once, and then returns an array of their shape.
"""

from __future__ import annotations

import math

import numpy as np

from .events import ZERO_ENTANGLEMENT_TOL
from .states import Bipartition, DensityMatrix, XState

__all__ = [
    "ZERO_ENTANGLEMENT_TOL",
    "negativity",
    "negativity_xstate",
    "concurrence_xstate",
]


def negativity(rho: DensityMatrix, cut: Bipartition) -> float:
    """Sum of |negative eigenvalues| of the partial transpose across ``cut``."""
    from .states import partial_transpose

    pt = partial_transpose(rho, cut)
    eig = np.linalg.eigvalsh(pt)
    return float(-eig[eig < 0].sum())


def negativity_xstate(s: XState) -> float | np.ndarray:
    """Closed-form negativity from the two 2x2 blocks of the partial transpose.

    The partially transposed X state splits into the blocks
    ``{rho22, rho33; rho14}`` and ``{rho11, rho44; rho23}``; only the lower
    eigenvalue of each block can go negative.  For an X state with array
    fields the value is an array of their shape; otherwise it is a float.
    """
    val = _negative_part(s.rho22, s.rho33, s.rho14) + _negative_part(s.rho11, s.rho44, s.rho23)
    val = val + 0.0                     # no -0.0 in written traces
    return float(val) if val.ndim == 0 else val


def _negative_part(p, q, coh):
    """``max(0, -lo)`` for the lower eigenvalue ``lo`` of ``{p, q; coh}``."""
    d = 0.5 * (p - q)
    r = np.hypot(np.real(coh), np.imag(coh))
    lo = 0.5 * (p + q) - np.sqrt(d * d + r * r)
    return np.maximum(-lo, 0.0)


def concurrence_xstate(s: XState) -> float:
    """X-state concurrence 2*max(0, |rho14| - sqrt(rho22*rho33), |rho23| - sqrt(rho11*rho44))."""
    return 2.0 * max(
        0.0,
        abs(s.rho14) - math.sqrt(max(s.rho22 * s.rho33, 0.0)),
        abs(s.rho23) - math.sqrt(max(s.rho11 * s.rho44, 0.0)),
    )
