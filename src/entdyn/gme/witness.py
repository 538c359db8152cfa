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

from ..states import Bipartition, DensityMatrix
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


def _kept_sectors(labels: tuple[int, ...], perm: np.ndarray) -> list[tuple[int, list[int], bool]]:
    """``(label, sector, twinned)`` of each sector whose block is kept.

    For a matrix invariant under ``perm``, the block of a sector is the
    permuted block of its image sector, so of two sectors that ``perm``
    exchanges only the first is kept, and marked ``twinned``.
    """
    sectors = _sectors(labels)
    kept = []
    for lab, sec in enumerate(sectors):
        twin = labels[perm[sec[0]]]
        assert sorted(perm[sec]) == sectors[twin]
        if twin >= lab:
            kept.append((lab, sec, twin > lab))
    return kept


# Parameter kinds of a Hermitian matrix: real diagonal entry (i, i), and the
# real and imaginary parts of the off-diagonal pair (i, j), (j, i).
_DIAG, _REAL, _IMAG = 0, 1, 2


def _param_specs(
    labels: tuple[int, ...], real: bool, perm: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Kind code, row and column of every parameter of a sector-block matrix,
    and whether the parameter also sets the ``perm`` image of its entry.

    Sector by sector: its diagonal entries, then a real and (unless the
    matrix is ``real``) an imaginary part for each pair ``i < j`` in the
    sector.  For a matrix invariant under ``perm`` (the identity, or the
    pair swap of a real matrix), the entries ``(i, j)`` and ``(perm[i],
    perm[j])`` are one parameter, listed at the first of the two.
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
    kind, row, col = kind[order], row[order], col[order]
    pi, pj = perm[row], perm[col]
    key, image = row * lab.size + col, np.minimum(pi, pj) * lab.size + np.maximum(pi, pj)
    first = key <= image
    return kind[first], row[first], col[first], key[first] < image[first]


def _basis(
    param: np.ndarray, count: int, kind: np.ndarray, row: np.ndarray, col: np.ndarray,
    sign: np.ndarray, sector: list[int], dtype: type,
) -> np.ndarray:
    """Basis matrices on one sector block of ``count`` parameters, from their entries.

    Entry ``e`` adds ``sign[e] * E`` to the matrix of parameter ``param[e]``,
    where ``E`` is ``|i><i|`` for a diagonal entry, ``|i><j| + |j><i|`` for a
    real part and ``i|i><j| - i|j><i|`` for an imaginary part, which only a
    complex ``dtype`` holds; ``(i, j) = (row[e], col[e])`` lies in ``sector``.
    """
    pos = np.zeros(max(sector) + 1, dtype=int)
    pos[sector] = np.arange(len(sector))
    a = np.zeros((count, len(sector), len(sector)), dtype=dtype)
    coef = sign if dtype is float else np.where(kind == _IMAG, 1j, 1.0) * sign
    a[param, pos[row], pos[col]] += coef
    off = kind != _DIAG
    a[param[off], pos[col[off]], pos[row[off]]] += coef[off].conj()
    return a


def _cut_mask(cut: Bipartition, n: int) -> int:
    mask = 0
    for k in cut.left:
        mask |= 1 << (n - 1 - k)
    return mask


@dataclass(frozen=True)
class _StartIndex:
    """Where each element of the starting dual blocks is read from.

    Element ``e`` of the concatenated, flattened blocks is
    ``sources.flat[src[e]] + coefs[coef[e]]`` (see ``_initial_z``); a
    ``twinned`` block adds the same of its twin sector, permuted, at
    ``twin_at`` from ``twin_src``.
    """

    src: np.ndarray
    coef: np.ndarray
    twin_at: np.ndarray
    twin_src: np.ndarray


@dataclass
class _Formulation:
    """Variables and SDP blocks of one witness problem.

    Variable ``k`` parametrises matrix ``owner[k]`` (0 for W, ``1 + c`` for
    the Q of the ``c``-th kept cut) and has kind ``kind[k]``; the W
    variables come first.  ``entries`` lists, as ``(variable, row, col)``,
    every matrix entry a variable sets: one per variable, then the swap
    image of each tied one.  A ``real`` formulation has no imaginary
    parameters and real symmetric blocks.  ``q_source[c]`` is the matrix
    that holds the Q of cut ``c``, to be conjugated by the swap ``perm``
    where ``swapped[c]``.  ``blocks`` are stacked once, with the Schur
    partition under which W is the border.
    """

    n: int
    cuts: tuple[Bipartition, ...]
    kept: list[int]
    real: bool
    num_vars: int
    kind: np.ndarray
    owner: np.ndarray
    entries: tuple[np.ndarray, np.ndarray, np.ndarray]
    perm: np.ndarray
    q_source: np.ndarray
    swapped: np.ndarray
    blocks: StackedBlocks
    block_meta: list[tuple[int, str, tuple[int, ...]]]
    start: _StartIndex
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
    kind, row, col, mirrored = (np.concatenate(arrays) for arrays in zip(*specs))
    owner = np.repeat(np.arange(len(specs)), [sp[0].size for sp in specs])
    paired = np.flatnonzero(mirrored)
    e_var = np.r_[np.arange(kind.size), paired]
    e_row, e_col = np.r_[row, perm[row[paired]]], np.r_[col, perm[col[paired]]]
    e_kind, e_owner = kind[e_var], owner[e_var]
    w_sector_of = np.array(w_labels)
    w_ent = np.flatnonzero(e_owner == 0)

    blocks: list[SdpBlock] = []
    block_meta: list[tuple[int, str, tuple[int, ...]]] = []
    twinned: list[bool] = []

    def add_pair(ci: int, roles: tuple[str, str], sec: list[int], twin_sec: bool, ent: np.ndarray,
                 e_r: np.ndarray, e_c: np.ndarray, sign: np.ndarray):
        ds = len(sec)
        var_idx, param = np.unique(e_var[ent], return_inverse=True)
        a = _basis(param, var_idx.size, e_kind[ent], e_r, e_c, sign, sec, dtype)
        blocks.append(SdpBlock(a0=np.zeros((ds, ds), dtype=dtype), a=a, var_idx=var_idx))
        blocks.append(SdpBlock(a0=-np.eye(ds, dtype=dtype), a=-a, var_idx=var_idx.copy()))
        block_meta.extend([(ci, roles[0], tuple(sec)), (ci, roles[1], tuple(sec))])
        twinned.extend([twin_sec, twin_sec])

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
        for lab, sec, twin_sec in _kept_sectors(w_labels, t):
            sel = w_sector_of[p_row] == lab
            add_pair(ci, ("p_lower", "p_upper"), sec, twin_sec, p_ent[sel], p_row[sel], p_col[sel],
                     p_sign[sel])

        q_sector_of = np.array(q_labels[ci])
        for lab, sec, twin_sec in _kept_sectors(q_labels[ci], t):
            sel = q_sector_of[qi] == lab
            add_pair(ci, ("q_lower", "q_upper"), sec, twin_sec, q_ent[sel], qi[sel], qj[sel],
                     np.ones(np.count_nonzero(sel)))

    # W couples to every cut; the Q variables of different cuts never share
    # a block, so the Schur complement is an arrowhead with W as its border.
    partition = SchurPartition(
        border=np.flatnonzero(owner == 0),
        blocks=tuple(np.flatnonzero(owner == k + 1) for k in range(len(kept))),
    )
    return _Formulation(
        n=n,
        cuts=cuts,
        kept=kept,
        real=real,
        num_vars=kind.size,
        kind=kind,
        owner=owner,
        entries=(e_var, e_row, e_col),
        perm=perm,
        q_source=q_source,
        swapped=swapped,
        blocks=StackedBlocks(blocks, kind.size, partition),
        block_meta=block_meta,
        start=_start_index(block_meta, twinned, slot, perm),
        reduced=real or len(set(w_labels)) > 1,
    )


def _start_index(
    block_meta: list[tuple[int, str, tuple[int, ...]]], twinned: list[bool], slot: dict[int, int],
    perm: np.ndarray,
) -> _StartIndex:
    """Gather indices of the starting dual blocks (see ``_initial_z``).

    Source 0 is zero, 1 the state and ``2 + k`` its partial transpose over
    the ``k``-th kept cut; coefficient 1 is the P blocks' shift and
    ``2 + k`` the Q blocks' bump of that cut.  Upper-bound blocks read
    source 0, so they hold only their coefficient times the identity.
    """
    dim = perm.size
    sizes = np.array([len(sec) for _, _, sec in block_meta])
    secs = np.concatenate([sec for _, _, sec in block_meta])
    k = np.array([1 if role[0] == "p" else 2 + slot[ci] for ci, role, _ in block_meta])
    src_k = np.where([role.endswith("lower") for _, role, _ in block_meta], k, 0)
    # element e of block b is entry (i, j) of the state's indices
    areas = sizes**2
    blk = np.repeat(np.arange(sizes.size), areas)
    local = np.arange(blk.size) - (np.cumsum(areas) - areas)[blk]
    first = (np.cumsum(sizes) - sizes)[blk]
    i, j = secs[first + local // sizes[blk]], secs[first + local % sizes[blk]]
    base = src_k[blk] * dim * dim
    twin_at = np.flatnonzero(np.array(twinned)[blk])
    return _StartIndex(
        src=base + i * dim + j,
        coef=np.where(i == j, k[blk], 0),
        twin_at=twin_at,
        twin_src=base[twin_at] + perm[i[twin_at]] * dim + perm[j[twin_at]],
    )


# ---------------------------------------------------------------------------
# per-solve data: objective vector and strictly feasible starting points

def _objective_vector(form: _Formulation, entries: np.ndarray) -> np.ndarray:
    """``c`` with ``c . x = Re tr(W(x) rho)``; the Q variables cost nothing."""
    var, i, j = form.entries
    w = form.owner[var] == 0
    kind, e = form.kind[var[w]], entries[i[w], j[w]]
    price = np.select([kind == _DIAG, kind == _REAL], [e.real, 2.0 * e.real], 2.0 * e.imag)
    return np.bincount(var[w], price, minlength=form.num_vars)


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


def _initial_z(form: _Formulation, entries: np.ndarray) -> np.ndarray:
    """A strictly feasible dual start, ``<A_k, Z0> = c_k`` for every variable, as one
    row: the blocks flattened and concatenated in block order.

    Each kept cut's lower P blocks hold ``rho / mc`` plus a shift, and its
    lower Q blocks ``rho^{T_M} / mc`` plus a bump that makes them positive
    definite, with ``mc`` the kept cut count; each upper block holds the
    same multiple of the identity as its lower partner, so that the two
    cancel in ``A*(Z0)``.  A twinned block also holds its dropped twin's
    start, permuted, so that the entries the twin held are still priced.
    """
    if form.real:
        entries = entries.real
    d = 2**form.n
    mc = len(form.kept)
    shift = 0.2
    pts = np.stack([_pt_raw(entries, form.cuts[ci].left, form.n) for ci in form.kept])
    bumps = shift + np.maximum(0.0, -np.linalg.eigvalsh(pts)[:, 0]) / mc
    sources = np.concatenate([np.zeros((1, d, d)), entries[None], pts]).ravel() / mc
    coefs = np.r_[0.0, shift, bumps]
    st = form.start
    z = sources[st.src] + coefs[st.coef]
    z[st.twin_at] += sources[st.twin_src] + coefs[st.coef[st.twin_at]]
    return z


def _matrices_from_x(form: _Formulation, x: np.ndarray):
    """W and the Q matrix of every cut that the variable vector ``x`` parametrises.

    A dropped cut's Q is its kept image's conjugated by the swap; it is
    real, so the transpose that a cut mapped onto its complement would
    take is the identity.
    """
    d = 2**form.n
    var, i, j = form.entries
    o, kind, val = form.owner[var], form.kind[var], x[var]
    mats = np.zeros((1 + len(form.kept), d, d), dtype=complex)
    sel = kind != _IMAG
    mats[o[sel], i[sel], j[sel]] += val[sel]
    sel = kind == _REAL
    mats[o[sel], j[sel], i[sel]] += val[sel]
    sel = kind == _IMAG
    mats[o[sel], i[sel], j[sel]] += 1j * val[sel]
    mats[o[sel], j[sel], i[sel]] -= 1j * val[sel]
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
    entries = problem.rho.entries
    result = solve_block_sdp(
        form.blocks, _objective_vector(form, entries), _initial_x(form),
        [_initial_z(form, entries)], tolerance=problem.tolerance,
        max_iterations=max_iterations,
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
        entries = [problem.rho.entries for problem in batch]
        results = solve_block_sdp_batch(
            form.blocks, np.stack([_objective_vector(form, e) for e in entries]),
            np.tile(_initial_x(form), (len(batch), 1)),
            np.stack([_initial_z(form, e) for e in entries]),
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
