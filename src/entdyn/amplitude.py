"""Cavity amplitude for a qubit mode damped by a Lorentzian reservoir.

A single cavity excitation coupled resonantly to a broadband reservoir with
a Lorentzian spectral profile keeps a closed-form survival amplitude.  With
``gamma0`` the relaxation rate, ``gamma`` the spectral width and
``x = gamma / gamma0``, the amplitude reads

    c0(t) = exp(-x*g0t/2) * [cos(s*g0t/2) + (x/s)*sin(s*g0t/2)],
    s = sqrt(x*(2 - x)),   g0t = gamma0 * t,

for ``x < 2`` (oscillatory, memory-bearing regime).  For ``x > 2`` the same
expression continues analytically with ``cos -> cosh``, ``sin -> sinh`` and
``s = sqrt(x*(x - 2))``; the overdamped branch approaches the plain
exponential decay ``exp(-g0t/2)`` for large ``x``.  At ``x = 2`` both
branches share the limit ``exp(-g0t) * (1 + g0t)``, so ``c0`` is continuous
in ``x``.

The excitation transferred into the reservoir carries the complementary
amplitude ``c = sqrt(1 - c0**2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["AmplitudeModel", "c0", "c_excitation", "first_zero"]

# Below this distance from x = 2 the closed-form critical limit is used.
_CRITICAL_WINDOW = 1e-12


@dataclass(frozen=True)
class AmplitudeModel:
    """Damping model defined by the relaxation rate and the width ratio.

    Parameters
    ----------
    gamma0:
        Qubit relaxation rate (inverse time).  Sets the scale of the
        dimensionless time ``gamma0 * t`` used throughout.
    x:
        Ratio ``gamma / gamma0`` of reservoir spectral width to relaxation
        rate.  ``x < 2`` is the non-Markovian regime, ``x > 2`` the
        Markovian one.
    """

    gamma0: float = 1.0
    x: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma0) and self.gamma0 > 0):
            raise ValueError(f"gamma0 must be positive and finite, got {self.gamma0}")
        if not (math.isfinite(self.x) and self.x > 0):
            raise ValueError(f"x must be positive and finite, got {self.x}")

    @property
    def regime(self) -> str:
        """One of ``"non_markovian"`` (x < 2), ``"critical"``, ``"markovian"``."""
        if self.x < 2.0:
            return "non_markovian"
        if self.x > 2.0:
            return "markovian"
        return "critical"


def _check_times(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("time values must be finite")
    if np.any(t < 0):
        raise ValueError("time values must be nonnegative")
    return t


def c0(model: AmplitudeModel, t) -> np.ndarray | float:
    """Survival amplitude of the cavity excitation at time ``t``.

    Parameters
    ----------
    model:
        Damping model supplying ``gamma0`` and ``x``.
    t:
        Time (scalar or array), in units where ``gamma0 * t`` is the
        dimensionless abscissa.  Must be nonnegative and finite.

    Returns
    -------
    Amplitude in ``[-1, 1]`` with the same shape as ``t``.  ``c0(0) = 1``.
    """
    t = _check_times(t)
    x = model.x
    tau = model.gamma0 * t
    if abs(x - 2.0) <= _CRITICAL_WINDOW:
        out = np.exp(-tau) * (1.0 + tau)
    elif x < 2.0:
        s = math.sqrt(x * (2.0 - x))
        u = 0.5 * s * tau
        out = np.exp(-0.5 * x * tau) * (np.cos(u) + (x / s) * np.sin(u))
    else:
        s = math.sqrt(x * (x - 2.0))
        u = np.asarray(0.5 * s * tau)
        out = np.empty_like(u)
        # direct hyperbolic form where cosh cannot overflow; asymptotic
        # single-exponential form beyond (the second exponential underflows)
        small = u < 350.0
        us, ts = u[small], np.asarray(tau)[small]
        out[small] = np.exp(-0.5 * x * ts) * (np.cosh(us) + (x / s) * np.sinh(us))
        tl = np.asarray(tau)[~small]
        out[~small] = 0.5 * (1.0 + x / s) * np.exp((s - x) * 0.5 * tl)
    if out.ndim == 0:
        return float(out)
    return out


def c_excitation(model: AmplitudeModel, t) -> np.ndarray | float:
    """Amplitude ``sqrt(1 - c0(t)**2)`` of the excitation in the reservoir.

    The radicand is clamped at zero when ``|c0|`` exceeds 1 by floating
    point noise (at most 1e-12); a larger excess indicates a bug in the
    amplitude evaluation and raises.
    """
    a = np.asarray(c0(model, t))
    rad = 1.0 - a * a
    if np.any(rad < -1e-12):
        raise ArithmeticError(
            f"amplitude radicand {float(np.min(rad)):.3e} below -1e-12; "
            "c0 evaluation is inconsistent"
        )
    out = np.sqrt(np.clip(rad, 0.0, None))
    if out.ndim == 0:
        return float(out)
    return out


def first_zero(model: AmplitudeModel) -> float | None:
    """First zero of ``c0`` in dimensionless time, or None if there is none.

    Zeros exist only in the oscillatory regime ``x < 2``.  There ``c0`` is a
    positive factor times ``cos u + (x/s) sin u`` with ``u = s gamma0 t / 2``,
    which first vanishes at ``u = pi/2 + arctan(x/s)``, so the zero is at
    ``gamma0 t = 2 atan2(s, -x) / s``.
    """
    x = model.x
    if x >= 2.0 - _CRITICAL_WINDOW:
        return None
    s = math.sqrt(x * (2.0 - x))
    return 2.0 * math.atan2(s, -x) / s
