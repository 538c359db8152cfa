"""Time evolution of two cavity-reservoir qubit pairs.

Each cavity qubit dumps its excitation into its own reservoir qubit through
the isometry ``|0>_c |0>_r -> |00>``, ``|1>_c |0>_r -> c0(t)|10> + c(t)|01>``.
Starting from an X state on the cavities and both reservoirs in vacuum, the
cavity-cavity and reservoir-reservoir marginals stay in the X family and
have closed forms; the full four-qubit state is built by applying the
isometry per pair (dilation), so the closed forms double as independent
cross-checks.  The closed forms and the dilation take a scalar time or an
array of times, so a sweep evaluates a whole grid in one call.

Qubit ordering of the four-qubit state is ``(c1, c2, r1, r2)``.
"""

from __future__ import annotations

import numpy as np

from .amplitude import AmplitudeModel, c0 as _c0, c_excitation as _cexc
from .states import DensityMatrix, XState

__all__ = ["evolve_cc", "evolve_rr", "evolve_four"]


def _amplitudes(model: AmplitudeModel, t):
    """``c0`` and ``c`` at ``t``: floats for a scalar, arrays of its shape otherwise."""
    return _c0(model, t), _cexc(model, t)


def _marginal(s0: XState, keep, leak) -> XState:
    """Marginal X state of one qubit from each pair, when each pair's
    excitation sits on the observed qubit with probability ``keep`` and on
    its partner with probability ``leak``."""
    r11 = s0.rho11 + (s0.rho22 + s0.rho33 + s0.rho44 * leak) * leak
    return XState(
        r11,
        (s0.rho22 + s0.rho44 * leak) * keep,
        (s0.rho33 + s0.rho44 * leak) * keep,
        s0.rho44 * keep * keep,
        s0.rho14 * keep,
        s0.rho23 * keep,
    )


def evolve_cc(s0: XState, model: AmplitudeModel, t) -> XState:
    """Cavity-cavity X state at time ``t``.

    ``t`` is a scalar or an array; for an array every field of the result
    is an array of its shape, and every point is validated.
    """
    a, c = _amplitudes(model, t)
    return _marginal(s0, a * a, c * c)


def evolve_rr(s0: XState, model: AmplitudeModel, t) -> XState:
    """Reservoir-reservoir X state at time ``t`` (scalar or array): the roles
    of c0 and c in ``evolve_cc`` swapped."""
    a, c = _amplitudes(model, t)
    return _marginal(s0, c * c, a * a)


def _pair_isometries(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The pair isometry at each time, ``(T, 4, 2)``: columns are the images of
    |0>_cavity and |1>_cavity in the (cavity, reservoir) pair basis |00>,
    |01>, |10>, |11>."""
    v = np.zeros((a.size, 4, 2))
    v[:, 0, 0] = 1.0
    v[:, 2, 1] = a
    v[:, 1, 1] = c
    return v


def evolve_four(s0: XState, model: AmplitudeModel, t):
    """Full four-qubit state at time ``t``, ordered (c1, c2, r1, r2).

    For a scalar ``t`` the state is a ``DensityMatrix``; for an array of
    ``T`` times it is the ``(T, 16, 16)`` stack of their matrices, each
    equal to the scalar call's entries.
    """
    a, c = (np.atleast_1d(np.asarray(v, dtype=float)) for v in _amplitudes(model, t))
    v = _pair_isometries(a.ravel(), c.ravel())
    # kron(v, v) at each time: (c1, r1, c2, r2) <- (c1, c2)
    big = (v[:, :, None, :, None] * v[:, None, :, None, :]).reshape(-1, 16, 4)
    rho = big @ s0.to_density().entries @ np.swapaxes(big, 1, 2)
    # (c1, r1, c2, r2) -> (c1, c2, r1, r2): swap the middle two qubits
    rho = rho.reshape((-1,) + (2,) * 8).transpose(0, 1, 3, 2, 4, 5, 7, 6, 8)
    rho = np.ascontiguousarray(rho.reshape(-1, 16, 16))
    if np.ndim(t) == 0:
        return DensityMatrix(rho[0], (2, 2, 2, 2), validate=False)
    return rho

