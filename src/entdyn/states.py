"""Multi-qubit density matrices, the X-state family, and benchmark states.

Basis convention: qubit 0 is the most significant bit (plain ``np.kron``
ordering), so the two-qubit basis is ``|1> = |0_A 0_B>``, ``|2> = |0_A 1_B>``,
``|3> = |1_A 0_B>``, ``|4> = |1_A 1_B>``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StateValidationError",
    "DensityMatrix",
    "XState",
    "Bipartition",
    "x_state",
    "x_state_is_entangled",
    "pure_alpha_beta",
    "werner",
    "bell_pair",
    "ghz_state",
    "kay_state",
    "biseparable_bell_mixture",
    "tensor",
    "partial_trace",
    "partial_transpose",
    "permute_subsystems",
    "random_density_matrix",
    "random_pure_state",
]

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9
# Slack on the scalar X-state inequalities; covers float noise in products
# such as rho11*rho44 == |rho14|**2 for pure states.
_X_SLACK = 1e-12


class StateValidationError(ValueError):
    """Raised when a matrix or parameter set is not a valid quantum state."""


def json_exact(kind: type, json_name: str):
    """Converter that accepts only a JSON ``json_name``; a boolean is not an integer.

    With ``json_number`` this is the value rule of every document entdyn reads.
    """
    def check(v):
        if type(v) is not kind:
            raise TypeError(f"expected a JSON {json_name}, got {v!r}")
        return v
    return check


def json_number(v) -> float:
    """A JSON number (integer or not) as a float.

    A boolean is not a number, and neither are the ``NaN`` and ``Infinity``
    tokens, which standard JSON forbids but ``json.load`` reads, nor an
    integer beyond the float range.
    """
    if type(v) in (int, float):
        try:
            x = float(v)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return x
    raise TypeError(f"expected a JSON number, got {v!r}")


def _as_complex_matrix(entries) -> np.ndarray:
    m = np.array(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StateValidationError(f"expected a square matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, trace-one, positive semidefinite matrix with subsystem dims.

    Instances compare by identity (matrix equality is a numerical question;
    use ``np.allclose`` on ``entries``).
    """

    entries: np.ndarray
    dims: tuple[int, ...]

    def __init__(self, entries, dims=None, validate: bool = True):
        m = _as_complex_matrix(entries)
        d = m.shape[0]
        if dims is None:
            dims = (d,)
        dims = tuple(int(k) for k in dims)
        if int(np.prod(dims)) != d:
            raise StateValidationError(f"dims {dims} do not multiply to size {d}")
        if validate:
            herm = np.max(np.abs(m - m.conj().T))
            if herm > HERMITICITY_TOL:
                raise StateValidationError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
            m = 0.5 * (m + m.conj().T)
            tr = m.trace()
            if abs(tr - 1.0) > TRACE_TOL:
                raise StateValidationError(f"trace {tr:.12g} differs from 1")
            lo = float(np.linalg.eigvalsh(m)[0])
            if lo < -PSD_TOL:
                raise StateValidationError(f"minimum eigenvalue {lo:.3e} below -{PSD_TOL:g}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def num_subsystems(self) -> int:
        return len(self.dims)

    def purity(self) -> float:
        return float(np.real(np.trace(self.entries @ self.entries)))

    def to_json_dict(self) -> dict:
        """Serialize as ``{dims, re, im}``; the exact field names are stable."""
        return {
            "dims": list(self.dims),
            "re": self.entries.real.tolist(),
            "im": self.entries.imag.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DensityMatrix":
        """Inverse of ``to_json_dict``: entries must be JSON numbers and dims JSON integers."""
        integer = json_exact(int, "integer")
        try:
            re, im = (np.array([[json_number(v) for v in row] for row in data[k]])
                      for k in ("re", "im"))
            dims = tuple(integer(k) for k in data["dims"])
        except (KeyError, TypeError, ValueError) as exc:
            raise StateValidationError(f"malformed density-matrix document: {exc}") from exc
        return cls(re + 1j * im, dims)


@dataclass(frozen=True)
class Bipartition:
    """Split of subsystem indices into two nonempty complementary groups."""

    left: tuple[int, ...]
    right: tuple[int, ...]

    def __init__(self, left, right):
        left = tuple(sorted(int(i) for i in left))
        right = tuple(sorted(int(i) for i in right))
        if not left or not right:
            raise ValueError("both sides of a bipartition must be nonempty")
        if set(left) & set(right):
            raise ValueError(f"bipartition sides overlap: {left} | {right}")
        n = len(left) + len(right)
        if set(left) | set(right) != set(range(n)):
            raise ValueError(f"bipartition {left} | {right} must cover 0..{n - 1}")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @classmethod
    def of_left(cls, left, n: int) -> "Bipartition":
        left = tuple(sorted(int(i) for i in left))
        right = tuple(i for i in range(n) if i not in set(left))
        return cls(left, right)

    @property
    def num_subsystems(self) -> int:
        return len(self.left) + len(self.right)

    def __str__(self) -> str:
        return "".join(map(str, self.left)) + "|" + "".join(map(str, self.right))


_X_FIELDS = ("rho11", "rho22", "rho33", "rho44", "rho14", "rho23")


@dataclass(frozen=True)
class XState:
    """Two-qubit X state: populations rho11..rho44 plus coherences rho14, rho23.

    Validity requires finite entries, unit trace, nonnegative populations,
    and the block positivity conditions rho22*rho33 >= |rho23|^2 and
    rho11*rho44 >= |rho14|^2.
    The fields may also be arrays of one shape, a family of X states such as
    a trajectory on a time grid, validated entry by entry; ``to_density``
    needs scalar fields.
    """

    rho11: float
    rho22: float
    rho33: float
    rho44: float
    rho14: complex = 0.0
    rho23: complex = 0.0

    def __post_init__(self):
        # every entry of array fields is checked; a message names the worst
        fields = (self.rho11, self.rho22, self.rho33, self.rho44, self.rho14, self.rho23)
        *pops, r14, r23 = flat = [np.ravel(f) for f in np.broadcast_arrays(*fields)]
        for name, f in zip(_X_FIELDS, flat):
            bad = ~np.isfinite(f)
            if np.any(bad):
                raise StateValidationError(f"{name} must be finite, got {f[bad][0]}")
        for k, name in enumerate(_X_FIELDS[:4]):
            imag = np.abs(np.imag(pops[k]))
            if np.any(imag > 0):
                raise StateValidationError(
                    f"population {name} must be real, got {pops[k][np.nanargmax(imag)]}")
            pops[k] = np.real(pops[k])
            if np.any(pops[k] < -_X_SLACK):
                raise StateValidationError(
                    f"population {name} = {np.nanmin(pops[k]):.6g} is negative")
        r11, r22, r33, r44 = pops
        tr = r11 + r22 + r33 + r44
        dev = np.abs(tr - 1.0)
        if np.any(dev > TRACE_TOL):
            raise StateValidationError(
                f"populations sum to {tr[np.nanargmax(dev)]:.12g}, expected 1")
        for pa, pb, coh, prod, sq in ((r22, r33, r23, "rho22*rho33", "|rho23|^2"),
                                      (r11, r44, r14, "rho11*rho44", "|rho14|^2")):
            both, mag = pa * pb, np.abs(coh) ** 2
            gap = both - mag
            if np.any(gap < -_X_SLACK):
                k = np.nanargmin(gap)
                raise StateValidationError(
                    f"positivity violated: {prod} = {both[k]:.6g} < {sq} = {mag[k]:.6g}")

    def to_density(self) -> DensityMatrix:
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0], m[1, 1], m[2, 2], m[3, 3] = self.rho11, self.rho22, self.rho33, self.rho44
        m[0, 3], m[3, 0] = self.rho14, np.conj(self.rho14)
        m[1, 2], m[2, 1] = self.rho23, np.conj(self.rho23)
        return DensityMatrix(m, (2, 2))

    @classmethod
    def from_density(cls, rho: DensityMatrix, tol: float = 1e-10) -> "XState":
        if rho.dims != (2, 2):
            raise StateValidationError(f"X states are two-qubit states, got dims {rho.dims}")
        m = rho.entries
        mask = np.ones((4, 4), dtype=bool)
        for i, j in ((0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0), (1, 2), (2, 1)):
            mask[i, j] = False
        worst = float(np.max(np.abs(m[mask])))
        if worst > tol:
            raise StateValidationError(f"matrix has off-X entries up to {worst:.3e}")
        return cls(m[0, 0].real, m[1, 1].real, m[2, 2].real, m[3, 3].real, m[0, 3], m[1, 2])


def x_state(rho11, rho22, rho33, rho44, rho14=0.0, rho23=0.0) -> XState:
    """Validated X state from its four populations and two coherences."""
    return XState(float(rho11), float(rho22), float(rho33), float(rho44),
                  complex(rho14), complex(rho23))


def x_state_is_entangled(s: XState) -> bool:
    """Entanglement criterion: rho22*rho33 < |rho14|^2 or rho11*rho44 < |rho23|^2."""
    return (s.rho22 * s.rho33 < abs(s.rho14) ** 2) or (s.rho11 * s.rho44 < abs(s.rho23) ** 2)


def pure_alpha_beta(alpha, beta) -> XState:
    """X state of the pure superposition alpha|00> + beta|11>."""
    alpha, beta = complex(alpha), complex(beta)
    nrm = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(nrm - 1.0) > HERMITICITY_TOL:
        raise StateValidationError(f"|alpha|^2 + |beta|^2 = {nrm:.12g}, expected 1")
    return XState(abs(alpha) ** 2, 0.0, 0.0, abs(beta) ** 2, alpha * np.conj(beta), 0.0)


def werner(p) -> XState:
    """Werner state p*|Phi><Phi| + (1-p)/4 * I with |Phi> = (|00>+|11>)/sqrt(2)."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise StateValidationError(f"werner parameter p = {p} outside [0, 1]")
    q = (1.0 - p) / 4.0
    return XState((1.0 + p) / 4.0, q, q, (1.0 + p) / 4.0, p / 2.0, 0.0)


def bell_pair() -> XState:
    """Maximally entangled (|00>+|11>)/sqrt(2) as an X state."""
    return XState(0.5, 0.0, 0.0, 0.5, 0.5, 0.0)


def ghz_state(n: int = 3) -> DensityMatrix:
    """n-qubit GHZ projector (|0...0> + |1...1>)/sqrt(2)."""
    if n < 2:
        raise ValueError("GHZ state needs at least 2 qubits")
    d = 2**n
    psi = np.zeros(d, dtype=complex)
    psi[0] = psi[-1] = 1.0 / np.sqrt(2.0)
    return DensityMatrix(np.outer(psi, psi.conj()), (2,) * n)


def kay_state(alpha: float) -> DensityMatrix:
    """Three-qubit family with all partial transposes positive for alpha >= 2.

    The 8x8 matrix carries ``4 + alpha`` on the extremal diagonal entries,
    ``alpha`` elsewhere on the diagonal, anti-diagonal couplings
    ``(2, 2, -2, 2)``, and normalization ``1/(8 + 8*alpha)``.  For
    ``alpha < 2`` the matrix is not positive semidefinite and is rejected.
    """
    alpha = float(alpha)
    if alpha < 2.0:
        raise StateValidationError(f"kay state needs alpha >= 2, got {alpha}")
    m = np.diag([4 + alpha, alpha, alpha, alpha, alpha, alpha, alpha, 4 + alpha]).astype(complex)
    anti = [2.0, 2.0, -2.0, 2.0]
    for k, v in enumerate(anti):
        m[k, 7 - k] = v
        m[7 - k, k] = v
    return DensityMatrix(m / (8.0 + 8.0 * alpha), (2, 2, 2))


def biseparable_bell_mixture() -> DensityMatrix:
    """Equal mixture of a Bell pair on each qubit pair with the third in |0>.

    Every partial transpose of this three-qubit state has a negative
    eigenvalue, yet the state carries no genuine multipartite entanglement.
    """
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1.0 / np.sqrt(2.0)
    bell = np.outer(phi, phi.conj())
    ket0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)

    ab_c = np.kron(bell, ket0)                       # ordering (A, B, C)
    ac_b = _permute_matrix(np.kron(bell, ket0), (0, 2, 1), (2, 2, 2))   # (A, C, B) -> (A, B, C)
    bc_a = _permute_matrix(np.kron(bell, ket0), (2, 0, 1), (2, 2, 2))   # (B, C, A) -> (A, B, C)
    return DensityMatrix((ab_c + ac_b + bc_a) / 3.0, (2, 2, 2))


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product with concatenated subsystem dims."""
    return DensityMatrix(np.kron(a.entries, b.entries), a.dims + b.dims, validate=False)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state over the subsystems in ``keep`` (order preserved)."""
    keep = sorted(set(int(k) for k in keep))
    n = rho.num_subsystems
    if not keep:
        raise ValueError("keep set must be nonempty")
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")
    traced = [k for k in range(n) if k not in keep]
    t = rho.entries.reshape(rho.dims + rho.dims)
    for k in sorted(traced, reverse=True):
        t = np.trace(t, axis1=k, axis2=k + (t.ndim // 2))
    new_dims = tuple(rho.dims[k] for k in keep)
    d = int(np.prod(new_dims))
    return DensityMatrix(t.reshape(d, d), new_dims, validate=False)


def partial_transpose(rho: DensityMatrix, cut: Bipartition) -> np.ndarray:
    """Transpose the subsystems in ``cut.left``; Hermitian but possibly non-PSD."""
    n = rho.num_subsystems
    if cut.num_subsystems != n:
        raise ValueError(f"cut covers {cut.num_subsystems} subsystems, state has {n}")
    return _partial_transpose_matrix(rho.entries, cut.left, rho.dims)


def _partial_transpose_matrix(m: np.ndarray, left, dims) -> np.ndarray:
    """Transpose the subsystems in ``left`` of a matrix over subsystems of ``dims``."""
    n = len(dims)
    axes = list(range(2 * n))
    for k in left:
        axes[k], axes[k + n] = axes[k + n], axes[k]
    return np.ascontiguousarray(m.reshape(tuple(dims) * 2).transpose(axes).reshape(m.shape))


def _permute_matrix(m: np.ndarray, perm, dims) -> np.ndarray:
    """Reorder subsystems of a matrix so new position k holds old subsystem perm[k]."""
    n = len(dims)
    t = m.reshape(tuple(dims) + tuple(dims))
    axes = list(perm) + [p + n for p in perm]
    d = int(np.prod(dims))
    return np.ascontiguousarray(t.transpose(axes).reshape(d, d))


def permute_subsystems(rho: DensityMatrix, perm) -> DensityMatrix:
    """Density matrix with subsystems reordered: new position k <- old perm[k]."""
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(rho.num_subsystems)):
        raise ValueError(f"perm {perm} is not a permutation of 0..{rho.num_subsystems - 1}")
    new_dims = tuple(rho.dims[p] for p in perm)
    return DensityMatrix(_permute_matrix(rho.entries, perm, rho.dims), new_dims, validate=False)


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def random_density_matrix(dims, rng: np.random.Generator, rank: int | None = None) -> DensityMatrix:
    """Ginibre-ensemble random state over the given subsystem dims."""
    dims = tuple(int(k) for k in dims)
    d = int(np.prod(dims))
    r = d if rank is None else int(rank)
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, dims, validate=False)
