"""Genuine-multipartite-negativity SDP over fully decomposable witnesses.

The measure solves

    minimize    Tr(W rho)
    subject to  W = P_M + Q_M^{T_M},  0 <= P_M <= 1,  0 <= Q_M <= 1

for every bipartition ``M | complement``, where ``T_M`` is the partial
transpose over ``M`` and the operator bounds are against the identity.  A
negative minimum certifies genuine multipartite entanglement and its
magnitude (clipped at zero) is the genuine negativity; a zero minimum means
the state is a mixture of per-cut PPT states, which does not imply
separability.  On two qubits the measure reduces to plain negativity.

``P_M`` is eliminated as ``W - Q_M^{T_M}``, leaving four one-sided bounds
per cut.  When the state commutes with a group of local diagonal-phase
unitaries (detected from its support pattern), every variable can be
restricted to the corresponding block structure without changing the
optimum: conjugating a feasible witness by a local phase unitary keeps it
feasible, so group-averaging an optimal solution lands in the commutant.
The constraint blocks then split into charge sectors, which is what makes
dense interior-point solves cheap enough for time sweeps.

When the state is also real (``rho = conj(rho)``), the witness can be taken
real.  Complex conjugation commutes with partial transposition and keeps
spectra, so it maps a feasible ``(W, P_M, Q_M)`` to a feasible one, and the
objective ``Tr(W rho)`` is unchanged because ``rho`` is real.  The average
of an optimal solution and its conjugate is therefore a real optimal
solution, and every imaginary parameter can be dropped (the invariance
reduction of Gatermann & Parrilo, J. Pure Appl. Algebra 192, 2004).  The
SDP blocks are then real symmetric and the solver runs in real arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..states import Bipartition, DensityMatrix
from .ipm import SchurPartition, SdpBlock, SdpResult, StackedBlocks, solve_block_sdp

__all__ = [
    "GmeProblem",
    "GmeSolution",
    "WitnessReport",
    "enumerate_bipartitions",
    "solve_gme",
    "negativity_via_gme",
    "verify_witness",
    "problem_json_dict",
]

_SUPPORT_TOL = 1e-12


def enumerate_bipartitions(n: int) -> list[Bipartition]:
    """All 2^(n-1) - 1 unordered bipartitions, lowest index kept on the left."""
    if n < 2:
        raise ValueError(f"need at least 2 subsystems, got {n}")
    cuts = []
    rest = list(range(1, n))
    for mask in range(2 ** (n - 1)):
        left = [0] + [rest[k] for k in range(n - 1) if mask >> k & 1]
        if len(left) == n:
            continue
        cuts.append(Bipartition.of_left(left, n))
    cuts.sort(key=lambda c: (len(c.left), c.left))
    return cuts


@dataclass(frozen=True)
class GmeProblem:
    """State, bipartition family and solver accuracy for one GME solve."""

    rho: DensityMatrix
    cuts: tuple[Bipartition, ...] = ()
    tolerance: float = 1e-7

    def __post_init__(self):
        if any(d != 2 for d in self.rho.dims):
            raise ValueError(f"only qubit subsystems are supported, got dims {self.rho.dims}")
        n = self.rho.num_subsystems
        if n < 2:
            raise ValueError("need at least two qubits")
        cuts = tuple(self.cuts) if self.cuts else tuple(enumerate_bipartitions(n))
        if len(set(cuts)) != len(cuts):
            raise ValueError("bipartition list contains duplicates")
        for cut in cuts:
            if cut.num_subsystems != n:
                raise ValueError(f"cut {cut} does not match {n} qubits")
        object.__setattr__(self, "cuts", cuts)
        if not (0 < self.tolerance < 1e-2):
            raise ValueError(f"tolerance {self.tolerance} out of range")


@dataclass
class GmeSolution:
    """Optimal witness value with the per-cut decompositions that certify it."""

    objective: float
    genuine_negativity: float
    witness: np.ndarray
    decompositions: dict[Bipartition, tuple[np.ndarray, np.ndarray]]
    residuals: dict[str, float]
    dual_objective: float
    iterations: int
    converged: bool
    reduced: bool
    num_variables: int


@dataclass
class WitnessReport:
    """Independent recheck of the witness constraints from a solution."""

    passed: bool
    tolerance: float
    recomputed_objective: float
    per_cut: dict[Bipartition, dict[str, float]]
    violations: list[str]


# ---------------------------------------------------------------------------
# symmetry detection

def _bit_table(n: int) -> np.ndarray:
    idx = np.arange(2**n)
    return ((idx[:, None] >> (n - 1 - np.arange(n))) & 1).astype(float)


def _support_symmetry(entries: np.ndarray, n: int) -> tuple[np.ndarray, bool]:
    """Span of bit differences across the support, and global-parity flag."""
    bits = _bit_table(n)
    ii, jj = np.nonzero(np.abs(entries) > _SUPPORT_TOL)
    off = ii != jj
    diffs = bits[ii[off]] - bits[jj[off]]
    if diffs.size == 0:
        return np.zeros((0, n)), True
    diffs = np.unique(diffs, axis=0)
    parity_ok = bool(np.all(np.mod(diffs.sum(axis=1), 2) == 0))
    _, sv, vt = np.linalg.svd(diffs, full_matrices=False)
    span = vt[sv > 1e-9]
    return span, parity_ok


def _sector_labels(n: int, span: np.ndarray, parity_ok: bool, signs: np.ndarray) -> tuple[int, ...]:
    """Charge-sector label per basis index for the sign-flipped bit pattern.

    Two indices share a label exactly when their (sign-flipped) bit
    difference lies in ``span``; appending global parity refines the
    partition when the support allows it.
    """
    bits = _bit_table(n) * signs[None, :]
    if span.size:
        resid = bits - (bits @ span.T) @ span
    else:
        resid = bits
    keys = [tuple(np.round(row, 6)) for row in resid]
    if parity_ok:
        par = _bit_table(n).sum(axis=1) % 2
        keys = [k + (int(p),) for k, p in zip(keys, par)]
    seen: dict[tuple, int] = {}
    return tuple(seen.setdefault(k, len(seen)) for k in keys)


def _symmetry_labels(
    problem: GmeProblem, symmetry_reduction: bool
) -> tuple[bool, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Whether the witness can be real, and the sector labels of W and of each cut's Q.

    Without reduction the witness is complex and every label is zero.
    """
    n = problem.rho.num_subsystems
    if not symmetry_reduction:
        trivial = (0,) * (2**n)
        return False, trivial, tuple(trivial for _ in problem.cuts)
    real = float(np.max(np.abs(problem.rho.entries.imag))) <= _SUPPORT_TOL
    span, parity_ok = _support_symmetry(problem.rho.entries, n)
    w_labels = _sector_labels(n, span, parity_ok, np.ones(n))
    q_labels = []
    for cut in problem.cuts:
        signs = np.ones(n)
        signs[list(cut.left)] = -1.0
        q_labels.append(_sector_labels(n, span, parity_ok, signs))
    return real, w_labels, tuple(q_labels)


# ---------------------------------------------------------------------------
# formulation

def _sectors(labels: tuple[int, ...]) -> list[list[int]]:
    by_label: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        by_label.setdefault(lab, []).append(i)
    return [by_label[lab] for lab in sorted(by_label)]


# Parameter kinds of a Hermitian matrix: real diagonal entry (i, i), and the
# real and imaginary parts of the off-diagonal pair (i, j), (j, i).
_DIAG, _REAL, _IMAG = 0, 1, 2


def _param_specs(
    labels: tuple[int, ...], real: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kind code, row and column of every parameter of a sector-block matrix.

    Sector by sector: its diagonal entries, then a real and (unless the
    matrix is ``real``) an imaginary part for each pair ``i < j`` in the
    sector.
    """
    lab = np.array(labels)
    ii, jj = np.triu_indices(lab.size, 1)
    same = lab[ii] == lab[jj]
    diag = np.arange(lab.size)
    kinds = [_REAL] if real else [_REAL, _IMAG]
    row = np.r_[diag, np.repeat(ii[same], len(kinds))]
    col = np.r_[diag, np.repeat(jj[same], len(kinds))]
    kind = np.r_[np.full(lab.size, _DIAG), np.tile(kinds, np.count_nonzero(same))]
    order = np.lexsort((kind != _DIAG, lab[row]))
    return kind[order], row[order], col[order]


def _basis(
    kind: np.ndarray, row: np.ndarray, col: np.ndarray, sign: np.ndarray, sector: list[int],
    dtype: type,
) -> np.ndarray:
    """Basis matrices ``sign * E_k`` of the given parameters on one sector block.

    ``E_k`` is ``|i><i|`` for a diagonal parameter, ``|i><j| + |j><i|`` for
    a real part and ``i|i><j| - i|j><i|`` for an imaginary part, which only
    a complex ``dtype`` holds.
    """
    pos = np.zeros(max(sector) + 1, dtype=int)
    pos[sector] = np.arange(len(sector))
    a = np.zeros((kind.size, len(sector), len(sector)), dtype=dtype)
    k = np.arange(kind.size)
    coef = sign if dtype is float else np.where(kind == _IMAG, 1j, 1.0) * sign
    a[k, pos[row], pos[col]] += coef
    off = kind != _DIAG
    a[k[off], pos[col[off]], pos[row[off]]] += coef[off].conj()
    return a


def _cut_mask(cut: Bipartition, n: int) -> int:
    mask = 0
    for k in cut.left:
        mask |= 1 << (n - 1 - k)
    return mask


@dataclass
class _Formulation:
    """Variables and SDP blocks of one witness problem.

    Variable ``k`` parametrises matrix ``owner[k]`` (0 for W, ``1 + c`` for
    the Q of cut ``c``) through its entry ``(row[k], col[k])`` of kind
    ``kind[k]``; the W variables come first.  A ``real`` formulation has no
    imaginary parameters and real symmetric blocks.  ``blocks`` are stacked
    once, with the Schur partition under which W is the border.
    """

    n: int
    cuts: tuple[Bipartition, ...]
    real: bool
    num_vars: int
    kind: np.ndarray
    row: np.ndarray
    col: np.ndarray
    owner: np.ndarray
    blocks: StackedBlocks
    block_meta: list[tuple[int, str, tuple[int, ...]]]
    reduced: bool


@lru_cache(maxsize=64)
def _formulation_for(
    n: int,
    cuts: tuple[Bipartition, ...],
    real: bool,
    w_labels: tuple[int, ...],
    q_labels: tuple[tuple[int, ...], ...],
) -> _Formulation:
    dtype = float if real else complex
    specs = [_param_specs(w_labels, real)] + [_param_specs(ql, real) for ql in q_labels]
    kind, row, col = (np.concatenate(arrays) for arrays in zip(*specs))
    owner = np.repeat(np.arange(len(specs)), [sp[0].size for sp in specs])
    w_sector_of = np.array(w_labels)
    w_vars = np.flatnonzero(owner == 0)
    q_vars_of = [np.flatnonzero(owner == ci + 1) for ci in range(len(cuts))]

    blocks: list[SdpBlock] = []
    block_meta: list[tuple[int, str, tuple[int, ...]]] = []

    def add_pair(ci: int, roles: tuple[str, str], sec: list[int], var_idx: np.ndarray, a: np.ndarray):
        ds = len(sec)
        blocks.append(SdpBlock(a0=np.zeros((ds, ds), dtype=dtype), a=a, var_idx=var_idx))
        block_meta.append((ci, roles[0], tuple(sec)))
        blocks.append(SdpBlock(a0=-np.eye(ds, dtype=dtype), a=-a, var_idx=var_idx.copy()))
        block_meta.append((ci, roles[1], tuple(sec)))

    for ci, (cut, q_vars) in enumerate(zip(cuts, q_vars_of)):
        mask = _cut_mask(cut, n)
        # Q enters P = W - Q^{T_M}: partial transposition moves entry (i, j)
        # to (ti, tj), which lies in a single W sector.
        qi, qj = row[q_vars], col[q_vars]
        ti, tj = (qi & ~mask) | (qj & mask), (qj & ~mask) | (qi & mask)
        assert np.array_equal(w_sector_of[ti], w_sector_of[tj])

        # Each W sector's P block holds its W parameters, then the Q
        # parameters that T_M carries into it.
        for lab, sec in enumerate(_sectors(w_labels)):
            w_sel = w_vars[w_sector_of[row[w_vars]] == lab]
            q_sel = np.flatnonzero(w_sector_of[ti] == lab)
            a = _basis(
                np.concatenate([kind[w_sel], kind[q_vars[q_sel]]]),
                np.concatenate([row[w_sel], ti[q_sel]]),
                np.concatenate([col[w_sel], tj[q_sel]]),
                np.concatenate([np.ones(w_sel.size), -np.ones(q_sel.size)]),
                sec,
                dtype,
            )
            add_pair(ci, ("p_lower", "p_upper"), sec, np.concatenate([w_sel, q_vars[q_sel]]), a)

        q_sector_of = np.array(q_labels[ci])
        for lab, sec in enumerate(_sectors(q_labels[ci])):
            sel = q_vars[q_sector_of[row[q_vars]] == lab]
            a = _basis(kind[sel], row[sel], col[sel], np.ones(sel.size), sec, dtype)
            add_pair(ci, ("q_lower", "q_upper"), sec, sel, a)

    # W couples to every cut; the Q variables of different cuts never share
    # a block, so the Schur complement is an arrowhead with W as its border.
    partition = SchurPartition(border=w_vars, blocks=tuple(q_vars_of))
    return _Formulation(
        n=n,
        cuts=cuts,
        real=real,
        num_vars=kind.size,
        kind=kind,
        row=row,
        col=col,
        owner=owner,
        blocks=StackedBlocks(blocks, kind.size, partition),
        block_meta=block_meta,
        reduced=real or len(set(w_labels)) > 1,
    )


# ---------------------------------------------------------------------------
# per-solve data: objective vector and strictly feasible starting points

def _objective_vector(form: _Formulation, entries: np.ndarray) -> np.ndarray:
    """``c`` with ``c . x = Re tr(W(x) rho)``; the Q variables cost nothing."""
    c = np.zeros(form.num_vars)
    w = form.owner == 0
    kind, e = form.kind[w], entries[form.row[w], form.col[w]]
    c[w] = np.select([kind == _DIAG, kind == _REAL], [e.real, 2.0 * e.real], 2.0 * e.imag)
    return c


def _initial_x(form: _Formulation) -> np.ndarray:
    """W = I and every Q = I/2: strictly inside all four bounds of each cut."""
    diag = form.kind == _DIAG
    return np.where(diag & (form.owner == 0), 1.0, np.where(diag, 0.5, 0.0))


def _pt_raw(entries: np.ndarray, left: tuple[int, ...], n: int) -> np.ndarray:
    t = entries.reshape((2,) * (2 * n))
    axes = list(range(2 * n))
    for k in left:
        axes[k], axes[k + n] = axes[k + n], axes[k]
    return np.ascontiguousarray(t.transpose(axes).reshape(2**n, 2**n))


def _initial_z(form: _Formulation, entries: np.ndarray) -> list[np.ndarray]:
    if form.real:
        entries = entries.real
    mc = len(form.cuts)
    shift = 0.2
    pts, bumps = [], []
    for cut in form.cuts:
        pt = _pt_raw(entries, cut.left, form.n)
        pts.append(pt)
        lam_min = float(np.linalg.eigvalsh(pt)[0])
        bumps.append(shift + max(0.0, -lam_min) / mc)
    z0 = []
    for ci, role, sec in form.block_meta:
        sel = np.ix_(sec, sec)
        ds = len(sec)
        if role == "p_lower":
            z0.append(entries[sel] / mc + shift * np.eye(ds))
        elif role == "p_upper":
            z0.append(shift * np.eye(ds))
        elif role == "q_lower":
            z0.append(pts[ci][sel] / mc + bumps[ci] * np.eye(ds))
        else:
            z0.append(bumps[ci] * np.eye(ds))
    return z0


def _matrices_from_x(form: _Formulation, x: np.ndarray):
    """W and the per-cut Q matrices that the variable vector ``x`` parametrises."""
    d = 2**form.n
    mats = np.zeros((1 + len(form.cuts), d, d), dtype=complex)
    o, i, j, kind = form.owner, form.row, form.col, form.kind
    sel = kind != _IMAG
    mats[o[sel], i[sel], j[sel]] += x[sel]
    sel = kind == _REAL
    mats[o[sel], j[sel], i[sel]] += x[sel]
    sel = kind == _IMAG
    mats[o[sel], i[sel], j[sel]] += 1j * x[sel]
    mats[o[sel], j[sel], i[sel]] -= 1j * x[sel]
    return mats[0], list(mats[1:])


# ---------------------------------------------------------------------------
# public entry points

def solve_gme(
    problem: GmeProblem | DensityMatrix,
    *,
    symmetry_reduction: bool = True,
    max_iterations: int = 200,
) -> GmeSolution:
    """Solve the fully-decomposable-witness SDP for one state.

    ``symmetry_reduction`` restricts the variables to the commutant of the
    local diagonal-phase symmetries detected from the state's support
    pattern, and to real witnesses when the state is real (the optimum is
    unchanged).  Without it the generic complex formulation is solved.
    """
    if isinstance(problem, DensityMatrix):
        problem = GmeProblem(rho=problem)
    entries = problem.rho.entries
    form = _formulation_for(
        problem.rho.num_subsystems, problem.cuts, *_symmetry_labels(problem, symmetry_reduction)
    )
    result = solve_block_sdp(
        form.blocks, _objective_vector(form, entries), _initial_x(form),
        _initial_z(form, entries), tolerance=problem.tolerance,
        max_iterations=max_iterations,
    )
    return _solution_from_result(form, problem, result)


def _solution_from_result(
    form: _Formulation, problem: GmeProblem, result: SdpResult
) -> GmeSolution:
    w, qs = _matrices_from_x(form, result.x)
    decomps: dict[Bipartition, tuple[np.ndarray, np.ndarray]] = {}
    residuals = {
        "rel_gap": result.rel_gap,
        "duality_gap": result.gap,
        "dual_residual": result.dual_residual,
    }
    for cut, q in zip(problem.cuts, qs):
        p = w - _pt_raw(q, cut.left, form.n)
        decomps[cut] = (p, q)
        eig_p = np.linalg.eigvalsh(p)
        eig_q = np.linalg.eigvalsh(q)
        residuals[f"p_bounds[{cut}]"] = max(0.0, -float(eig_p[0]), float(eig_p[-1]) - 1.0)
        residuals[f"q_bounds[{cut}]"] = max(0.0, -float(eig_q[0]), float(eig_q[-1]) - 1.0)
    objective = result.primal_objective
    return GmeSolution(
        objective=objective,
        genuine_negativity=max(0.0, -objective),
        witness=w,
        decompositions=decomps,
        residuals=residuals,
        dual_objective=result.dual_objective,
        iterations=result.iterations,
        converged=result.converged,
        reduced=form.reduced,
        num_variables=form.num_vars,
    )


def negativity_via_gme(rho: DensityMatrix, tolerance: float = 1e-7) -> float:
    """Witness-SDP value on a two-qubit state; equals eigenvalue negativity."""
    if rho.num_subsystems != 2:
        raise ValueError("negativity_via_gme expects a two-qubit state")
    sol = solve_gme(GmeProblem(rho=rho, tolerance=tolerance))
    return sol.genuine_negativity


def verify_witness(solution: GmeSolution, problem: GmeProblem) -> WitnessReport:
    """Recheck every witness constraint with fresh eigendecompositions.

    Passes when each decomposition residual and operator-bound violation is
    within ``10 * problem.tolerance``.
    """
    tol = 10.0 * problem.tolerance
    n = problem.rho.num_subsystems
    w = solution.witness
    per_cut: dict[Bipartition, dict[str, float]] = {}
    violations: list[str] = []
    for cut in problem.cuts:
        if cut not in solution.decompositions:
            violations.append(f"missing decomposition for cut {cut}")
            continue
        p, q = solution.decompositions[cut]
        resid = float(np.linalg.norm(w - (p + _pt_raw(q, cut.left, n))))
        eig_p = np.linalg.eigvalsh(0.5 * (p + p.conj().T))
        eig_q = np.linalg.eigvalsh(0.5 * (q + q.conj().T))
        entry = {
            "decomposition_residual": resid,
            "p_eig_min": float(eig_p[0]),
            "p_eig_max": float(eig_p[-1]),
            "q_eig_min": float(eig_q[0]),
            "q_eig_max": float(eig_q[-1]),
        }
        per_cut[cut] = entry
        if resid > tol:
            violations.append(f"cut {cut}: ||W - (P + Q^T_M)|| = {resid:.3e} > {tol:.1e}")
        for name, lo, hi in (("P", eig_p[0], eig_p[-1]), ("Q", eig_q[0], eig_q[-1])):
            if lo < -tol:
                violations.append(f"cut {cut}: {name} eigenvalue {lo:.3e} below -{tol:.1e}")
            if hi > 1.0 + tol:
                violations.append(f"cut {cut}: {name} eigenvalue {hi:.6f} above 1 + {tol:.1e}")
    recomputed = float(np.real(np.trace(w @ problem.rho.entries)))
    return WitnessReport(
        passed=not violations,
        tolerance=tol,
        recomputed_objective=recomputed,
        per_cut=per_cut,
        violations=violations,
    )


def problem_json_dict(problem: GmeProblem, symmetry_reduction: bool = True) -> dict:
    """Documented JSON form of the SDP: blocks, dimensions, objective matrix."""
    n = problem.rho.num_subsystems
    form = _formulation_for(n, problem.cuts, *_symmetry_labels(problem, symmetry_reduction))
    return {
        "num_qubits": n,
        "dimension": 2**n,
        "tolerance": problem.tolerance,
        "num_variables": form.num_vars,
        "cuts": [{"left": list(c.left), "right": list(c.right)} for c in problem.cuts],
        "objective_matrix": problem.rho.to_json_dict(),
        "blocks": [
            {"cut_index": ci, "role": role, "basis_indices": list(sec), "size": len(sec)}
            for ci, role, sec in form.block_meta
        ],
    }
