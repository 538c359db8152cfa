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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..states import Bipartition, DensityMatrix
from .ipm import SchurPartition, SdpBlock, SdpResult, solve_block_sdp

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
_ROLES = ("p_lower", "p_upper", "q_lower", "q_upper")


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
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Sector labels of W and of each cut's Q (all zero without reduction)."""
    n = problem.rho.num_subsystems
    if not symmetry_reduction:
        trivial = (0,) * (2**n)
        return trivial, tuple(trivial for _ in problem.cuts)
    span, parity_ok = _support_symmetry(problem.rho.entries, n)
    w_labels = _sector_labels(n, span, parity_ok, np.ones(n))
    q_labels = []
    for cut in problem.cuts:
        signs = np.ones(n)
        signs[list(cut.left)] = -1.0
        q_labels.append(_sector_labels(n, span, parity_ok, signs))
    return w_labels, tuple(q_labels)


# ---------------------------------------------------------------------------
# formulation

def _sectors(labels: tuple[int, ...]) -> list[list[int]]:
    by_label: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        by_label.setdefault(lab, []).append(i)
    return [by_label[lab] for lab in sorted(by_label)]


def _param_specs(labels: tuple[int, ...]) -> list[tuple[str, int, int]]:
    specs: list[tuple[str, int, int]] = []
    for sector in _sectors(labels):
        for i in sector:
            specs.append(("d", i, i))
        for a in range(len(sector)):
            for b in range(a + 1, len(sector)):
                specs.append(("r", sector[a], sector[b]))
                specs.append(("i", sector[a], sector[b]))
    return specs


def _spec_entries(spec: tuple[str, int, int]) -> list[tuple[int, int, complex]]:
    kind, i, j = spec
    if kind == "d":
        return [(i, i, 1.0 + 0.0j)]
    if kind == "r":
        return [(i, j, 1.0 + 0.0j), (j, i, 1.0 + 0.0j)]
    return [(i, j, 1.0j), (j, i, -1.0j)]


def _cut_mask(cut: Bipartition, n: int) -> int:
    mask = 0
    for k in cut.left:
        mask |= 1 << (n - 1 - k)
    return mask


def _transpose_entry(i: int, j: int, mask: int) -> tuple[int, int]:
    return (i & ~mask) | (j & mask), (j & ~mask) | (i & mask)


@dataclass
class _Formulation:
    n: int
    cuts: tuple[Bipartition, ...]
    num_vars: int
    w_specs: list[tuple[str, int, int]]
    w_offset: int
    q_specs: list[list[tuple[str, int, int]]]
    q_offsets: list[int]
    blocks: list[SdpBlock]
    block_meta: list[tuple[int, str, tuple[int, ...]]]
    partition: SchurPartition
    reduced: bool


@lru_cache(maxsize=64)
def _formulation_for(
    n: int,
    cuts: tuple[Bipartition, ...],
    w_labels: tuple[int, ...],
    q_labels: tuple[tuple[int, ...], ...],
) -> _Formulation:
    d = 2**n
    w_specs = _param_specs(w_labels)
    q_specs = [_param_specs(ql) for ql in q_labels]

    w_offset = 0
    q_offsets, pos = [], len(w_specs)
    for specs in q_specs:
        q_offsets.append(pos)
        pos += len(specs)
    num_vars = pos

    w_sector_of = {i: lab for i, lab in enumerate(w_labels)}
    w_sector_indices = {lab: sec for lab, sec in zip(sorted(set(w_labels)), _sectors(w_labels))}

    blocks: list[SdpBlock] = []
    block_meta: list[tuple[int, str, tuple[int, ...]]] = []

    for ci, cut in enumerate(cuts):
        mask = _cut_mask(cut, n)

        # Group every variable touching this cut by the W-sector its
        # contribution lands in: W params directly, Q params through T_M.
        per_sector: dict[int, list[tuple[int, list[tuple[int, int, complex]], float]]] = {}
        for k, spec in enumerate(w_specs):
            lab = w_sector_of[spec[1]]
            per_sector.setdefault(lab, []).append((w_offset + k, _spec_entries(spec), +1.0))
        for k, spec in enumerate(q_specs[ci]):
            entries = [
                (*_transpose_entry(i, j, mask), coef) for (i, j, coef) in _spec_entries(spec)
            ]
            lab = w_sector_of[entries[0][0]]
            assert all(w_sector_of[i] == lab and w_sector_of[j] == lab for i, j, _ in entries)
            per_sector.setdefault(lab, []).append((q_offsets[ci] + k, entries, -1.0))

        for lab in sorted(per_sector):
            sec = w_sector_indices[lab]
            pos_of = {g: l for l, g in enumerate(sec)}
            ds = len(sec)
            members = per_sector[lab]
            a = np.zeros((len(members), ds, ds), dtype=complex)
            var_idx = np.zeros(len(members), dtype=int)
            for row, (gvar, entries, sign) in enumerate(members):
                var_idx[row] = gvar
                for i, j, coef in entries:
                    a[row, pos_of[i], pos_of[j]] += sign * coef
            blocks.append(SdpBlock(a0=np.zeros((ds, ds), dtype=complex), a=a, var_idx=var_idx))
            block_meta.append((ci, "p_lower", tuple(sec)))
            blocks.append(SdpBlock(a0=-np.eye(ds, dtype=complex), a=-a, var_idx=var_idx.copy()))
            block_meta.append((ci, "p_upper", tuple(sec)))

        for sec in _sectors(q_labels[ci]):
            pos_of = {g: l for l, g in enumerate(sec)}
            ds = len(sec)
            rows = [
                (q_offsets[ci] + k, _spec_entries(spec))
                for k, spec in enumerate(q_specs[ci])
                if spec[1] in pos_of
            ]
            a = np.zeros((len(rows), ds, ds), dtype=complex)
            var_idx = np.zeros(len(rows), dtype=int)
            for row, (gvar, entries) in enumerate(rows):
                var_idx[row] = gvar
                for i, j, coef in entries:
                    a[row, pos_of[i], pos_of[j]] += coef
            blocks.append(SdpBlock(a0=np.zeros((ds, ds), dtype=complex), a=a, var_idx=var_idx))
            block_meta.append((ci, "q_lower", tuple(sec)))
            blocks.append(SdpBlock(a0=-np.eye(ds, dtype=complex), a=-a, var_idx=var_idx.copy()))
            block_meta.append((ci, "q_upper", tuple(sec)))

    # W couples to every cut; the Q variables of different cuts never share
    # a block, so the Schur complement is an arrowhead with W as its border.
    partition = SchurPartition(
        border=np.arange(w_offset, w_offset + len(w_specs)),
        blocks=tuple(np.arange(off, off + len(specs)) for off, specs in zip(q_offsets, q_specs)),
    )
    return _Formulation(
        n=n,
        cuts=cuts,
        num_vars=num_vars,
        w_specs=w_specs,
        w_offset=w_offset,
        q_specs=q_specs,
        q_offsets=q_offsets,
        blocks=blocks,
        block_meta=block_meta,
        partition=partition,
        reduced=len(set(w_labels)) > 1,
    )


# ---------------------------------------------------------------------------
# per-solve data: objective vector and strictly feasible starting points

def _objective_vector(form: _Formulation, entries: np.ndarray) -> np.ndarray:
    c = np.zeros(form.num_vars)
    for k, (kind, i, j) in enumerate(form.w_specs):
        if kind == "d":
            c[form.w_offset + k] = entries[i, i].real
        elif kind == "r":
            c[form.w_offset + k] = 2.0 * entries[i, j].real
        else:
            c[form.w_offset + k] = 2.0 * entries[i, j].imag
    return c


def _initial_x(form: _Formulation) -> np.ndarray:
    x0 = np.zeros(form.num_vars)
    for k, (kind, _, _) in enumerate(form.w_specs):
        if kind == "d":
            x0[form.w_offset + k] = 1.0
    for ci in range(len(form.cuts)):
        for k, (kind, _, _) in enumerate(form.q_specs[ci]):
            if kind == "d":
                x0[form.q_offsets[ci] + k] = 0.5
    return x0


def _pt_raw(entries: np.ndarray, left: tuple[int, ...], n: int) -> np.ndarray:
    t = entries.reshape((2,) * (2 * n))
    axes = list(range(2 * n))
    for k in left:
        axes[k], axes[k + n] = axes[k + n], axes[k]
    return np.ascontiguousarray(t.transpose(axes).reshape(2**n, 2**n))


def _initial_z(form: _Formulation, entries: np.ndarray) -> list[np.ndarray]:
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
            z0.append(shift * np.eye(ds, dtype=complex))
        elif role == "q_lower":
            z0.append(pts[ci][sel] / mc + bumps[ci] * np.eye(ds))
        else:
            z0.append(bumps[ci] * np.eye(ds, dtype=complex))
    return z0


def _matrices_from_x(form: _Formulation, x: np.ndarray):
    d = 2**form.n
    w = np.zeros((d, d), dtype=complex)
    _apply_specs(w, form.w_specs, x[form.w_offset : form.w_offset + len(form.w_specs)])
    qs = []
    for ci in range(len(form.cuts)):
        q = np.zeros((d, d), dtype=complex)
        off = form.q_offsets[ci]
        _apply_specs(q, form.q_specs[ci], x[off : off + len(form.q_specs[ci])])
        qs.append(q)
    return w, qs


def _apply_specs(mat: np.ndarray, specs, values: np.ndarray) -> None:
    for (kind, i, j), val in zip(specs, values):
        if kind == "d":
            mat[i, i] += val
        elif kind == "r":
            mat[i, j] += val
            mat[j, i] += val
        else:
            mat[i, j] += 1j * val
            mat[j, i] -= 1j * val


def _embed(h: np.ndarray) -> np.ndarray:
    return np.block([[h.real, -h.imag], [h.imag, h.real]])


# ---------------------------------------------------------------------------
# public entry points

def solve_gme(
    problem: GmeProblem | DensityMatrix,
    *,
    symmetry_reduction: bool = True,
    real_embedding: bool = False,
    max_iterations: int = 200,
) -> GmeSolution:
    """Solve the fully-decomposable-witness SDP for one state.

    ``symmetry_reduction`` restricts the variables to the commutant of the
    local diagonal-phase symmetries detected from the state's support
    pattern (the optimum is unchanged).  ``real_embedding`` runs the solver
    on the real-symmetric embedding ``[[Re, -Im], [Im, Re]]`` of every block
    instead of complex Hermitian arithmetic; both paths agree to solver
    accuracy and the embedding is kept as a cross-check.
    """
    if isinstance(problem, DensityMatrix):
        problem = GmeProblem(rho=problem)
    entries = problem.rho.entries
    form = _formulation_for(
        problem.rho.num_subsystems, problem.cuts, *_symmetry_labels(problem, symmetry_reduction)
    )
    c = _objective_vector(form, entries)
    x0 = _initial_x(form)
    z0 = _initial_z(form, entries)
    blocks = form.blocks
    if real_embedding:
        blocks = [
            SdpBlock(a0=_embed(b.a0), a=np.stack([_embed(ak) for ak in b.a]), var_idx=b.var_idx)
            for b in blocks
        ]
        z0 = [0.5 * _embed(zb) for zb in z0]

    result = solve_block_sdp(
        blocks, c, x0, z0, tolerance=problem.tolerance, max_iterations=max_iterations,
        partition=form.partition,
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
