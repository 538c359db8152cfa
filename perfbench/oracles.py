"""Reference values for the benchmark's output checks, computed without entdyn.

Everything here is an independent copy of the physics: the closed-form
survival amplitude ``c0``, the pair isometry that dilates two cavity qubits
into cavity-reservoir pairs, partial transposes and negativities from
``numpy.linalg.eigvalsh``, and event times found with
``scipy.optimize.brentq``.  Nothing is imported from ``src/``.

Qubit order of four-qubit states is ``(c1, c2, r1, r2)``, the order the
program writes; the two-qubit basis is ``|00>, |01>, |10>, |11>`` with the
first qubit most significant.

``self_test()`` checks the oracles against values derived by hand and
against the analytic event roots tabulated in ROADMAP item 5; run this file
to execute it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import brentq

FREEZE_LEVEL = 5.0 / 26.0

# Analytic roots for alpha = sqrt(1/3) (ROADMAP item 5): (x, event, root).
ROADMAP_ROOTS = (
    (5.0, "esd", 1.3293),
    (0.1, "esd", 4.8577),
    (0.01, "esd", 14.4942),
    (0.01, "esb", 8.2004),
)


def c0(x: float, tau):
    """Survival amplitude at dimensionless time ``tau = gamma0 * t``.

    Above ``x = 2`` the hyperbolic form is rewritten as two decaying
    exponentials, which cannot overflow.
    """
    tau = np.asarray(tau, dtype=float)
    if x < 2.0:
        s = math.sqrt(x * (2.0 - x))
        u = 0.5 * s * tau
        return np.exp(-0.5 * x * tau) * (np.cos(u) + (x / s) * np.sin(u))
    if x == 2.0:
        return np.exp(-tau) * (1.0 + tau)
    s = math.sqrt(x * (x - 2.0))
    return (0.5 * (1.0 + x / s) * np.exp(0.5 * (s - x) * tau)
            + 0.5 * (1.0 - x / s) * np.exp(-0.5 * (s + x) * tau))


def pure_state(alpha: float, beta: float) -> np.ndarray:
    """Two-qubit density matrix of alpha|00> + beta|11> (real amplitudes)."""
    psi = np.array([alpha, 0.0, 0.0, beta], dtype=complex)
    return np.outer(psi, psi.conj())


def four_qubit_state(rho_cc: np.ndarray, x: float, tau: float) -> np.ndarray:
    """Dilated state of both cavity-reservoir pairs, qubits (c1, c2, r1, r2).

    Each pair evolves by the isometry |0>_c -> |0_c 0_r>,
    |1>_c -> c0 |1_c 0_r> + c |0_c 1_r>.
    """
    a = float(c0(x, tau))
    c = math.sqrt(max(0.0, 1.0 - a * a))
    v = np.zeros((4, 2))            # rows: (cavity, reservoir) basis of one pair
    v[0, 0] = 1.0
    v[2, 1] = a
    v[1, 1] = c
    big = np.kron(v, v)             # qubits (c1, r1, c2, r2)
    rho = big @ rho_cc @ big.T
    t = rho.reshape((2,) * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7)
    return t.reshape(16, 16)


def partial_transpose(rho: np.ndarray, left, n: int) -> np.ndarray:
    """Transpose the qubits in ``left`` of an n-qubit matrix."""
    axes = list(range(2 * n))
    for k in left:
        axes[k], axes[k + n] = axes[k + n], axes[k]
    return rho.reshape((2,) * (2 * n)).transpose(axes).reshape(2**n, 2**n)


def partial_trace(rho: np.ndarray, keep, n: int) -> np.ndarray:
    """Reduced state on the qubits in ``keep`` (kept in increasing order)."""
    keep = sorted(keep)
    drop = [k for k in range(n) if k not in keep]
    t = rho.reshape((2,) * (2 * n))
    for k in sorted(drop, reverse=True):
        t = np.trace(t, axis1=k, axis2=k + t.ndim // 2)
    d = 2 ** len(keep)
    return t.reshape(d, d)


def negativity(rho: np.ndarray, left, n: int) -> float:
    """Sum of the magnitudes of the negative eigenvalues of rho^{T_left}."""
    eig = np.linalg.eigvalsh(partial_transpose(rho, left, n))
    return float(-eig[eig < 0.0].sum())


def cuts(n: int) -> list[tuple[int, ...]]:
    """The 2^(n-1) - 1 bipartitions, each named by the side holding qubit 0."""
    out = []
    for size in range(1, n):
        for rest in itertools.combinations(range(1, n), size - 1):
            out.append((0, *rest))
    return out


def min_cut_negativity(rho: np.ndarray, n: int = 4) -> float:
    """Smallest bipartite negativity over all cuts: an upper bound on the
    genuine negativity, since each single-cut witness program relaxes the
    fully decomposable one."""
    return min(negativity(rho, left, n) for left in cuts(n))


def pair_lower_eig(rho_cc: np.ndarray, x: float, tau: float, pair: str) -> float:
    """Lower eigenvalue of the partially transposed cc or rr marginal."""
    full = four_qubit_state(rho_cc, x, tau)
    keep = (0, 1) if pair == "cc" else (2, 3)
    marginal = partial_trace(full, keep, 4)
    return float(np.linalg.eigvalsh(partial_transpose(marginal, (1,), 2))[0])


def crossings(f, t_max: float, samples: int = 1000) -> list[tuple[float, str]]:
    """All sign changes of f on (0, t_max], refined by brentq.

    Returns (time, direction) pairs, direction ``"down"`` when f goes from
    positive to nonpositive and ``"up"`` the other way.
    """
    ts = np.linspace(0.0, t_max, samples + 1)
    vs = np.array([f(t) for t in ts])
    out = []
    for k in range(1, len(ts)):
        if (vs[k - 1] > 0.0) != (vs[k] > 0.0):
            if vs[k] == 0.0:
                root = float(ts[k])
            else:
                root = brentq(f, ts[k - 1], ts[k], xtol=1e-13)
            out.append((root, "down" if vs[k - 1] > 0.0 else "up"))
    return out


def pure_events(alpha: float, beta: float, x: float, t_max: float) -> dict:
    """Cavity ESD, its revivals, and reservoir ESB for alpha|00> + beta|11>.

    With r = |alpha / beta| < 1 the cavity pair is entangled while
    c0^2 > 1 - r and the reservoir pair while c0^2 < r.
    """
    r = abs(alpha / beta)
    cc = crossings(lambda t: float(c0(x, t)) ** 2 - (1.0 - r), t_max)
    rr = crossings(lambda t: r - float(c0(x, t)) ** 2, t_max)
    return _events(cc, rr)


def state_events(rho_cc: np.ndarray, x: float, t_max: float) -> dict:
    """Same events for any initial cavity state, from the lower eigenvalue of
    the partially transposed marginals (entangled while it is negative)."""
    cc = crossings(lambda t: -pair_lower_eig(rho_cc, x, t, "cc"), t_max)
    rr = crossings(lambda t: -pair_lower_eig(rho_cc, x, t, "rr"), t_max)
    return _events(cc, rr)


def _events(cc, rr) -> dict:
    deaths = [t for t, d in cc if d == "down"]
    esd = deaths[0] if deaths else None
    births = [t for t, d in rr if d == "up"]
    return {
        "esd": esd,
        "revivals": [t for t, d in cc if d == "up" and esd is not None and t > esd],
        "esb": births[0] if births else None,
    }


def random_local_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Tensor product of n Haar-random single-qubit unitaries."""
    u = np.eye(1, dtype=complex)
    for _ in range(n):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(g)
        u = np.kron(u, q * (np.diag(r) / np.abs(np.diag(r))))
    return u


def self_test() -> list[str]:
    """Failures of the oracles against independent values; empty when sound."""
    bad = []
    a13, b13 = math.sqrt(1 / 3), math.sqrt(2 / 3)
    a26, b26 = math.sqrt(1 / 26), 5 * math.sqrt(1 / 26)

    for x, event, want in ROADMAP_ROOTS:
        got = pure_events(a13, b13, x, 20.0)[event]
        if got is None or abs(got - want) > 1e-4:
            bad.append(f"{event} x={x}: brentq root {got} vs analytic {want}")

    # Both oracle routes agree on a pure state.
    rho26 = pure_state(a26, b26)
    closed = pure_events(a26, b26, 0.01, 20.0)
    eig = state_events(rho26, 0.01, 20.0)
    for event in ("esd", "esb"):
        if abs(closed[event] - eig[event]) > 1e-6:
            bad.append(f"{event}: c0 route {closed[event]} vs eigenvalue route {eig[event]}")

    # c0 branches: c0(0) = 1 and continuity across x = 2.
    ts = np.linspace(0.0, 20.0, 201)
    if abs(float(c0(0.3, 0.0)) - 1.0) > 1e-15 or abs(float(c0(7.0, 0.0)) - 1.0) > 1e-15:
        bad.append("c0(0) != 1")
    jump = float(np.max(np.abs(c0(2.0 - 1e-6, ts) - c0(2.0 + 1e-6, ts))))
    if jump > 1e-4:
        bad.append(f"c0 discontinuous at x = 2 ({jump:.2e})")

    # The dilation keeps trace and reproduces the initial negativity 5/26,
    # and the min-cut bound sits at or above it.
    rho4 = four_qubit_state(rho26, 0.01, 0.0)
    if abs(np.trace(rho4).real - 1.0) > 1e-12:
        bad.append("dilated state not normalized")
    n0 = negativity(partial_trace(rho4, (0, 1), 4), (1,), 2)
    if abs(n0 - FREEZE_LEVEL) > 1e-12:
        bad.append(f"initial cc negativity {n0} != 5/26")
    rho4 = four_qubit_state(rho26, 0.01, 10.0)
    if min_cut_negativity(rho4) < FREEZE_LEVEL - 1e-9:
        bad.append("min-cut bound below the freeze level inside the freeze window")
    if len(cuts(4)) != 7:
        bad.append("expected 7 bipartitions of 4 qubits")

    # Local unitaries leave every cut negativity unchanged.
    u = random_local_unitary(np.random.default_rng(0), 4)
    rot = u @ rho4 @ u.conj().T
    if abs(min_cut_negativity(rot) - min_cut_negativity(rho4)) > 1e-10:
        bad.append("cut negativities not invariant under local unitaries")
    return bad


if __name__ == "__main__":
    failures = self_test()
    for line in failures:
        print("FAIL", line)
    print("oracle self-test:", "FAIL" if failures else "ok")
    raise SystemExit(1 if failures else 0)
