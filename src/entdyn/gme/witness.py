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

When a real four-qubit state, ordered (c1, c2, r1, r2), is also invariant
under the pair swap ``U`` (c1 <-> c2 together with r1 <-> r2) and the cut
family is closed under it, the witness can be taken swap invariant (the
invariant-SDP reduction of Bachoc, Gijswijt, Schrijver & Vallentin, in
Handbook on Semidefinite, Conic and Polynomial Optimization, Springer,
2012).  ``U`` maps cut ``M`` to cut ``pi(M)`` and ``(U Q U^T)^{T_pi(M)} =
U Q^{T_M} U^T``, so ``(U W U^T, U Q_M U^T on cut pi(M))`` is feasible with
the same objective, and the average of an optimal solution and its image
is optimal and swap invariant.  On it:

- the mirrored cuts c2|rest and r2|rest are implied: with ``Q_pi(M) = U
  Q_M U^T``, their ``Q`` and ``P = U P_M U^T`` are congruent by ``U`` to
  those of c1|rest and r1|rest, so they carry no variables or blocks;
- the cuts that ``U`` maps to themselves have a swap-invariant ``Q`` (for
  c1r1|c2r2 and c1r2|c2r1, which ``U`` maps to their complements, this
  needs ``Q^T = Q``, which holds for real witnesses), so W and these Q are
  parametrised by orbits of entries under ``U``;
- within such a cut, a sector block whose sector ``U`` maps onto another
  sector is the permuted block of that sector, so only the first of the
  two is kept.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..states import Bipartition, DensityMatrix, _partial_transpose_matrix
from .ipm import (SchurPartition, SdpBlock, SdpError, SdpResult, StackedBlocks, solve_block_sdp,
                  solve_block_sdp_batch)

__all__ = [
    "GmeProblem",
    "GmeSolution",
    "WitnessReport",
    "enumerate_bipartitions",
    "solve_gme",
    "solve_gme_batch",
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

@lru_cache(maxsize=8)
def _bit_table(n: int) -> np.ndarray:
    """The bits of every basis index of ``n`` qubits, one row each (read-only)."""
    idx = np.arange(2**n)
    table = ((idx[:, None] >> (n - 1 - np.arange(n))) & 1).astype(float)
    table.setflags(write=False)
    return table


def _support_symmetry(entries: np.ndarray, n: int) -> tuple[np.ndarray, bool]:
    """Span of bit differences across the support, and global-parity flag."""
    bits = _bit_table(n)
    ii, jj = np.nonzero(np.abs(entries) > _SUPPORT_TOL)
    off = ii != jj
    diffs = bits[ii[off]] - bits[jj[off]]
    if diffs.size == 0:
        return np.zeros((0, n)), True
    # sorted distinct rows; asking for an index output keeps np.unique from
    # importing numpy.ma, which costs 9-16 ms per process
    diffs = np.unique(diffs, axis=0, return_index=True)[0]
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
    # rows agree to 6 decimals exactly when these codes agree: np.round(x, 6)
    # is rint(x * 1e6) / 1e6
    keys = np.rint(resid * 1e6).astype(np.int64)
    if parity_ok:
        keys = np.column_stack([keys, _bit_table(n).sum(axis=1).astype(np.int64) % 2])
    seen: dict[tuple, int] = {}
    return tuple(seen.setdefault(k, len(seen)) for k in map(tuple, keys.tolist()))


# The paper's four-qubit states are ordered (c1, c2, r1, r2); the pair swap
# exchanges the two cavity-reservoir pairs, c1 <-> c2 together with r1 <-> r2.
_PAIR_SWAP = (1, 0, 3, 2)


def _swap_perm(n: int) -> np.ndarray:
    """The pair swap as a permutation of the 2^n basis indices (n = 4)."""
    bits = _bit_table(n).astype(int)[:, _PAIR_SWAP]
    return bits @ (1 << np.arange(n - 1, -1, -1))


def _cut_images(cuts: tuple[Bipartition, ...]) -> list[int] | None:
    """Index in ``cuts`` of each cut's pair-swap image, or None if some image is missing."""
    index = {frozenset((c.left, c.right)): i for i, c in enumerate(cuts)}
    images = []
    for cut in cuts:
        sides = (tuple(sorted(_PAIR_SWAP[k] for k in side)) for side in (cut.left, cut.right))
        img = index.get(frozenset(sides))
        if img is None:
            return None
        images.append(img)
    return images


def _symmetry_labels(
    problem: GmeProblem, symmetry_reduction: bool
) -> tuple[bool, bool, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Whether the witness can be real and pair-swap invariant, and the sector
    labels of W and of each cut's Q.

    The swap is used only for a real state on four qubits whose cut family
    is closed under it.  Without reduction the witness is complex and every
    label is zero.
    """
    n = problem.rho.num_subsystems
    if not symmetry_reduction:
        trivial = (0,) * (2**n)
        return False, False, trivial, tuple(trivial for _ in problem.cuts)
    entries = problem.rho.entries
    real = float(np.max(np.abs(entries.imag))) <= _SUPPORT_TOL
    swap = False
    if real and n == len(_PAIR_SWAP) and _cut_images(problem.cuts) is not None:
        perm = _swap_perm(n)
        swap = float(np.max(np.abs(entries[np.ix_(perm, perm)] - entries))) <= _SUPPORT_TOL
    span, parity_ok = _support_symmetry(entries, n)
    w_labels = _sector_labels(n, span, parity_ok, np.ones(n))
    q_labels = []
    for cut in problem.cuts:
        signs = np.ones(n)
        signs[list(cut.left)] = -1.0
        q_labels.append(_sector_labels(n, span, parity_ok, signs))
    return real, swap, w_labels, tuple(q_labels)


# ---------------------------------------------------------------------------
# formulation

def _sectors(labels: tuple[int, ...]) -> list[list[int]]:
    by_label: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        by_label.setdefault(lab, []).append(i)
    return [by_label[lab] for lab in sorted(by_label)]


def _kept_sectors(labels: tuple[int, ...], perm: np.ndarray) -> list[tuple[int, list[int]]]:
    """``(label, sector)`` of each sector whose block is kept.

    For a matrix invariant under ``perm``, the block of a sector is the
    permuted block of its image sector, so of two sectors that ``perm``
    exchanges only the first is kept.
    """
    sectors = _sectors(labels)
    kept = []
    for lab, sec in enumerate(sectors):
        twin = labels[perm[sec[0]]]
        assert sorted(perm[sec]) == sectors[twin]
        if twin >= lab:
            kept.append((lab, sec))
    return kept


# Block roles, by code: each P and Q sector block has a lower (>= 0) and an upper (<= I) bound.
_ROLES = ("p_lower", "p_upper", "q_lower", "q_upper")


def _param_specs(
    labels: tuple[int, ...], real: bool, perm: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The unit of every parameter of a sector-block matrix, as whether it is
    imaginary, its row and its column in ``SdpBlock``'s convention, and
    whether the parameter also sets the ``perm`` image of its entry.

    Sector by sector: its diagonal units ``E_ii``, then for each pair
    ``i < j`` in the sector the real unit ``E_ij + E_ji`` and (unless the
    matrix is ``real``) the imaginary one ``i (E_ij - E_ji)``.  For a matrix
    invariant under ``perm`` (the identity, or the pair swap of a real
    matrix), the entries ``(i, j)`` and ``(perm[i], perm[j])`` are one
    parameter, listed at the first of the two.
    """
    lab = np.array(labels)
    ii, jj = np.triu_indices(lab.size, 1)
    same = lab[ii] == lab[jj]
    diag = np.arange(lab.size)
    parts = [False] if real else [False, True]
    row = np.r_[diag, np.repeat(ii[same], len(parts))]
    col = np.r_[diag, np.repeat(jj[same], len(parts))]
    imag = np.r_[np.zeros(lab.size, bool), np.tile(parts, np.count_nonzero(same))]
    order = np.lexsort((row != col, lab[row]))
    imag, row, col = imag[order], row[order], col[order]
    pi, pj = perm[row], perm[col]
    key, image = row * lab.size + col, np.minimum(pi, pj) * lab.size + np.maximum(pi, pj)
    first = key <= image
    return imag[first], row[first], col[first], key[first] < image[first]


def _cut_mask(cut: Bipartition, n: int) -> int:
    mask = 0
    for k in cut.left:
        mask |= 1 << (n - 1 - k)
    return mask


@dataclass
class _Formulation:
    """Variables and SDP blocks of one witness problem.

    Variable ``k`` parametrises matrix ``owner[k]`` (0 for W, ``1 + c`` for
    the Q of the ``c``-th kept cut); the W variables come first.
    ``entries`` lists, as ``(variable, row, col, imag)``, the unit of every
    matrix entry a variable sets, in ``SdpBlock``'s convention: one per
    variable, in variable order, then the swap image of each tied one.  A
    ``real`` formulation has no imaginary units and real symmetric blocks.
    ``q_source[c]`` is the matrix that holds the Q of cut ``c``, to be
    conjugated by the swap ``perm`` where ``swapped[c]``.  ``blocks`` are
    stacked once, with the Schur partition under which W is the border.
    Block ``b`` bounds, as ``_ROLES[block_role[b]]``, the P or Q of cut
    ``block_cut[b]`` on its sector: the next ``block_size[b]`` state
    indices of ``block_sectors``.
    """

    n: int
    cuts: tuple[Bipartition, ...]
    kept: list[int]
    real: bool
    num_vars: int
    owner: np.ndarray
    entries: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    perm: np.ndarray
    q_source: np.ndarray
    swapped: np.ndarray
    blocks: StackedBlocks
    block_cut: np.ndarray
    block_role: np.ndarray
    block_size: np.ndarray
    block_sectors: np.ndarray
    reduced: bool


@lru_cache(maxsize=64)
def _formulation_for(
    n: int,
    cuts: tuple[Bipartition, ...],
    real: bool,
    swap: bool,
    w_labels: tuple[int, ...],
    q_labels: tuple[tuple[int, ...], ...],
) -> _Formulation:
    dtype = float if real else complex
    dim = 2**n
    identity = np.arange(dim)
    perm = _swap_perm(n) if swap else identity
    images = _cut_images(cuts) if swap else list(range(len(cuts)))

    # Of a cut and its distinct swap image only one is kept, the one whose
    # smaller side comes first: the other's constraints are its image.
    def side_key(cut: Bipartition):
        return min((len(side), side) for side in (cut.left, cut.right))

    kept = [ci for ci, img in enumerate(images)
            if img == ci or side_key(cuts[ci]) < side_key(cuts[img])]
    slot = {ci: k for k, ci in enumerate(kept)}
    q_source = np.array([1 + slot.get(ci, slot.get(images[ci])) for ci in range(len(cuts))])
    swapped = np.array([ci not in slot for ci in range(len(cuts))])
    # a cut that is its own image has a swap-invariant Q and P
    tie = [perm if images[ci] == ci else identity for ci in kept]

    specs = [_param_specs(w_labels, real, perm)]
    specs += [_param_specs(q_labels[ci], real, t) for ci, t in zip(kept, tie)]
    imag, row, col, mirrored = (np.concatenate(arrays) for arrays in zip(*specs))
    num_vars = imag.size
    owner = np.repeat(np.arange(len(specs)), [sp[0].size for sp in specs])
    paired = np.flatnonzero(mirrored)
    e_var = np.r_[np.arange(num_vars), paired]
    e_row, e_col = np.r_[row, perm[row[paired]]], np.r_[col, perm[col[paired]]]
    e_imag, e_owner = imag[e_var], owner[e_var]
    w_sector_of = np.array(w_labels)
    w_ent = np.flatnonzero(e_owner == 0)

    blocks: list[SdpBlock] = []
    roles: list[tuple[int, int, int]] = []   # per block: cut, role code, size
    sectors: list[list[int]] = []

    def add_pair(ci: int, role: int, sec: list[int], ent: np.ndarray, e_r: np.ndarray,
                 e_c: np.ndarray, sign: np.ndarray):
        ds = len(sec)
        # positions in the sector, which is in ascending order
        coords = dict(var=e_var[ent], row=np.searchsorted(sec, e_r), col=np.searchsorted(sec, e_c),
                      imag=e_imag[ent])
        blocks.append(SdpBlock(a0=np.zeros((ds, ds), dtype=dtype), coef=sign, **coords))
        blocks.append(SdpBlock(a0=-np.eye(ds, dtype=dtype), coef=-sign, **coords))
        roles.extend([(ci, role, ds), (ci, role + 1, ds)])
        sectors.extend([sec, sec])

    for k, (ci, t) in enumerate(zip(kept, tie)):
        mask = _cut_mask(cuts[ci], n)
        q_ent = np.flatnonzero(e_owner == k + 1)
        # Q enters P = W - Q^{T_M}: partial transposition moves entry (i, j)
        # to (ti, tj), which lies in a single W sector.
        qi, qj = e_row[q_ent], e_col[q_ent]
        ti, tj = (qi & ~mask) | (qj & mask), (qj & ~mask) | (qi & mask)
        assert np.array_equal(w_sector_of[ti], w_sector_of[tj])

        # Each W sector's P block holds W's entries in it, then those that
        # T_M carries there from Q.
        p_ent = np.r_[w_ent, q_ent]
        p_row, p_col = np.r_[e_row[w_ent], ti], np.r_[e_col[w_ent], tj]
        p_sign = np.r_[np.ones(w_ent.size), -np.ones(q_ent.size)]
        for lab, sec in _kept_sectors(w_labels, t):
            sel = w_sector_of[p_row] == lab
            add_pair(ci, 0, sec, p_ent[sel], p_row[sel], p_col[sel], p_sign[sel])

        q_sector_of = np.array(q_labels[ci])
        for lab, sec in _kept_sectors(q_labels[ci], t):
            sel = q_sector_of[qi] == lab
            add_pair(ci, 2, sec, q_ent[sel], qi[sel], qj[sel], np.ones(np.count_nonzero(sel)))

    # W couples to every cut; the Q variables of different cuts never share
    # a block, so the Schur complement is an arrowhead with W as its border.
    partition = SchurPartition(
        border=np.flatnonzero(owner == 0),
        blocks=tuple(np.flatnonzero(owner == k + 1) for k in range(len(kept))),
    )
    cut, role, sizes = (np.array(a) for a in zip(*roles))
    sectors = np.concatenate(sectors)
    return _Formulation(
        n=n,
        cuts=cuts,
        kept=kept,
        real=real,
        num_vars=num_vars,
        owner=owner,
        entries=(e_var, e_row, e_col, e_imag),
        perm=perm,
        q_source=q_source,
        swapped=swapped,
        blocks=StackedBlocks(blocks, num_vars, partition),
        block_cut=cut,
        block_role=role,
        block_size=sizes,
        block_sectors=sectors,
        reduced=real or len(set(w_labels)) > 1,
    )


# ---------------------------------------------------------------------------
# per-solve data: objective vector and interior starting points

def _objective_vector(form: _Formulation, entries: np.ndarray) -> np.ndarray:
    """``c`` with ``c . x = Re tr(W(x) rho)``; the Q variables cost nothing.

    A unit prices ``rho``'s entry at its coordinates: ``tr(E_ii rho)`` is its
    real part, and ``E_ij + E_ji`` and ``i (E_ij - E_ji)`` price twice its
    real and imaginary part.
    """
    var, i, j, imag = form.entries
    w = form.owner[var] == 0
    e, i, j, imag = entries[i[w], j[w]], i[w], j[w], imag[w]
    price = np.where(imag, e.imag, e.real) * np.where(i == j, 1.0, 2.0)
    return np.bincount(var[w], price, minlength=form.num_vars)


def _initial_x(form: _Formulation) -> np.ndarray:
    """W = I and every Q = I/2: strictly inside all four bounds of each cut."""
    _, i, j, _ = form.entries
    diag = (i == j)[:form.num_vars]
    return np.where(diag & (form.owner == 0), 1.0, np.where(diag, 0.5, 0.0))


def _initial_z(form: _Formulation) -> np.ndarray:
    """Z0 = I in every dual block, as one row: the blocks flattened and
    concatenated in block order."""
    return np.concatenate([np.eye(d).ravel() for d in form.block_size])


def _matrices_from_x(form: _Formulation, x: np.ndarray):
    """W and the Q matrix of every cut that the variable vector ``x`` parametrises.

    A dropped cut's Q is its kept image's conjugated by the swap; it is
    real, so the transpose that a cut mapped onto its complement would
    take is the identity.
    """
    d = 2**form.n
    var, i, j, imag = form.entries
    o, val = form.owner[var], np.where(imag, 1j * x[var], x[var])
    mats = np.zeros((1 + len(form.kept), d, d), dtype=complex)
    # np.add.at, as a real and an imaginary unit can share an entry
    np.add.at(mats, (o, i, j), val)
    off = i != j
    np.add.at(mats, (o[off], j[off], i[off]), val[off].conj())
    qs = mats[form.q_source]
    p = form.perm
    qs[form.swapped] = qs[form.swapped][:, p][:, :, p]
    return mats[0], list(qs)


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
    pattern, to real witnesses when the state is real, and to pair-swap
    invariant ones when a real four-qubit state is swap invariant (the
    optimum is unchanged).  Without it the generic complex formulation is
    solved.
    """
    if isinstance(problem, DensityMatrix):
        problem = GmeProblem(rho=problem)
    form = _formulation_for(
        problem.rho.num_subsystems, problem.cuts, *_symmetry_labels(problem, symmetry_reduction)
    )
    return _solve(form, problem, max_iterations)


def _solve(form: _Formulation, problem: GmeProblem, max_iterations: int = 200) -> GmeSolution:
    """Solve ``problem`` on the given formulation of it."""
    result = solve_block_sdp(
        form.blocks, _objective_vector(form, problem.rho.entries), _initial_x(form),
        [_initial_z(form)], tolerance=problem.tolerance, max_iterations=max_iterations,
    )
    return _solution_from_result(form, problem, result)


def solve_gme_batch(
    problems: Sequence[GmeProblem],
    *,
    symmetry_reduction: bool = True,
    max_iterations: int = 200,
) -> list[GmeSolution | SdpError]:
    """Solve many states, with one interior-point run per formulation.

    The problems are grouped by formulation (qubit count, cuts and the
    symmetry labels that ``solve_gme`` derives) and by tolerance, and each
    group is one batch of ``solve_block_sdp_batch``.  Returns, in input
    order, each problem's ``GmeSolution``, or the ``SdpError`` that
    ``solve_gme`` would raise for it; a failed point does not stop the
    others.  A point's values agree with its ``solve_gme`` values to
    round-off; a group of one is the same computation.
    """
    groups: dict[tuple, list[int]] = {}
    for k, problem in enumerate(problems):
        labels = _symmetry_labels(problem, symmetry_reduction)
        key = (problem.rho.num_subsystems, problem.cuts, *labels, problem.tolerance)
        groups.setdefault(key, []).append(k)
    out: list[GmeSolution | SdpError] = [None] * len(problems)  # type: ignore[list-item]
    for key, members in groups.items():
        form = _formulation_for(*key[:-1])
        batch = [problems[k] for k in members]
        results = solve_block_sdp_batch(
            form.blocks, np.stack([_objective_vector(form, p.rho.entries) for p in batch]),
            np.tile(_initial_x(form), (len(batch), 1)),
            np.tile(_initial_z(form), (len(batch), 1)),
            tolerance=key[-1], max_iterations=max_iterations,
        )
        for k, problem, result in zip(members, batch, results):
            out[k] = result if isinstance(result, SdpError) else \
                _solution_from_result(form, problem, result)
    return out


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
        p = w - _partial_transpose_matrix(q, cut.left, problem.rho.dims)
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
    dims = problem.rho.dims
    w = solution.witness
    per_cut: dict[Bipartition, dict[str, float]] = {}
    violations: list[str] = []
    for cut in problem.cuts:
        if cut not in solution.decompositions:
            violations.append(f"missing decomposition for cut {cut}")
            continue
        p, q = solution.decompositions[cut]
        resid = float(np.linalg.norm(w - (p + _partial_transpose_matrix(q, cut.left, dims))))
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
            {"cut_index": ci, "role": _ROLES[role], "basis_indices": sec.tolist(), "size": sec.size}
            for ci, role, sec in zip(form.block_cut.tolist(), form.block_role.tolist(),
                                     np.split(form.block_sectors, np.cumsum(form.block_size)[:-1]))
        ],
    }
