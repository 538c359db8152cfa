"""Primal-dual interior-point method for batches of small dense block-diagonal SDPs.

Problem form (linear matrix inequality with free variables)::

    minimize    c . x
    subject to  S(x) = sum_i x_i A_i - A0  >=  0

where ``S`` is Hermitian block diagonal and each block sees only a subset
of the variables.  The Lagrangian dual is::

    maximize    <A0, Z>
    subject to  <A_i, Z> = c_i  for all i,   Z >= 0.

The solver is a Mehrotra predictor-corrector method with Nesterov-Todd
scaling.  Per iteration and per block it computes a scaling factor ``J``
with ``J^-1 S J^-H = J^H Z J = diag(v)`` (both scaled iterates coincide and
are diagonal), reduces the Newton system to the Schur complement
``M[i, j] = <J^-1 A_i J^-H, J^-1 A_j J^-H>``, and takes separate primal and
dual step lengths at a 0.98 fraction to the cone boundary.

A run solves a batch of ``B`` problems on one block structure that differ
only in ``c``, ``x0`` and ``Z0``; ``solve_block_sdp`` is the batch of one.
Every array of an iteration carries a leading batch axis, so each numpy
call serves the whole batch.  Each point keeps its own ``mu``, ``sigma``,
step lengths, Schur shift, convergence test, stall count and best bound.
A point that converges or fails leaves the active set and the others run
on; a failed point gets its own ``SdpError``, and the batch raises nothing.

Blocks of one size and dtype are stacked into size classes
(``StackedBlocks``), and every step of an iteration is batched over the
classes, with no loop over the blocks.  The stages that see only the
iterates (the NT scaling, the step lengths and the dual update) run once
per class; the primal and dual step lengths of a class share one
``eigvalsh`` call, on the blocks that a Gershgorin screen leaves (see
``_step_lengths``).

Each block is given in sparse unit coordinates (``SdpBlock``), and the
witness bases have one or two units per block; no dense basis is formed.
The four stages that read the basis use them as follows:

- the slack ``S = sum_k x_k A_k - A0`` and the directions
  ``J^-1 (sum_k dx_k A_k) J^-H`` scatter coefficients onto matrix entries;
- the dual residual ``c - A*(Z)`` and the corrector right-hand side
  ``<A_k, J^-H R J^-1>`` gather matrix entries onto the variables;
- the Schur complement is ``M[i, j] = <A_i, G A_j G>`` summed over the
  blocks, with ``G = J^-H J^-1`` (the sparse-constraint formula of
  Fujisawa, Kojima & Nakata, Math. Program. 79, 1997).  Per class, ``K``
  holds ``<U, G W G>`` for every two units ``U, W``, from outer products
  of the real and imaginary parts of ``G``, and blocks with the same
  variables and coordinates up to sign, such as the two bounds of
  ``0 <= X <= I``, add theirs first.  ``M`` is then one gather from ``K``
  times a coordinate product, over a term list of int32 indices built once
  per problem structure; the list is built and applied in chunks, so that
  its temporaries stay bounded.

Each scatter onto variables is one ``np.bincount`` per point, and onto
Schur entries one ``np.add.at`` per chunk of the term list; both add every
contribution to an entry that several blocks share, in list order, where a
fancy-index ``+=`` would keep only one.

The Schur complement is factored as a block arrowhead matrix.  A
``SchurPartition`` splits the variables into diagonal blocks that never
share an SDP block with each other and a border that may couple to all of
them; with the border ordered last, ``M`` has diagonal blocks ``M_c``,
border couplings ``B_c = M[border, block c]`` and border block ``A``.  Only
these are stored (``_ArrowLayout``), the diagonal and border blocks as
their lower triangles: the Schur terms are scattered straight into them,
and no dense ``m x m`` matrix is formed.  Each
``M_c = L_c L_c^T`` is factored first, then the border system
``A - sum_c C_c^T C_c`` with ``C_c = L_c^-1 B_c^T``; in exact arithmetic this
is the Cholesky factor of ``M`` with the border last (the block-angular
reduction of Gondzio & Grothey, Comput. Manag. Sci. 6, 2009).  Without a
partition the border is empty and all variables form one block.

Consecutive diagonal blocks of one order form a run, which the storage
holds as one contiguous stack (``_ArrowLayout.runs``): the generic
formulation's seven blocks of 256 are one run, and the swap-reduced
form's blocks the runs [43], [27, 27, 27] and [43].  Each run, over the
batch, and then the border system are factored by ``_chol_inv``, one
recursion at matrix-product speed that gives the inverse factors ``L^-1``
(Elmroth, Gustavson, Jonsson & Kagstrom, SIAM Rev. 46, 2004), and the
couplings of all runs are one ``(B, m_q, m_border)`` array, so that the
border system is one product (a ``syrk``) and each solve meets the border
with one product each way.  At shift 0 the factor is written into ``K``'s
buffer, which the Schur assembly is done with, and the recursions'
scratch into another of its buffers, so that an iteration allocates no
large array.  The points whose factor fails there (``_guarded``) climb a
ladder of growing multiples of the identity added to their ``M``,
together, and the others keep theirs.  The factors are kept as inverses,
so the two solves of an iteration are matrix-vector products.  numpy has
no triangular inverse, and its general one is a pivoted LU solve
against the identity, so ``_tri_inv`` halves each factor recursively and
inverts it with matrix products, down to small leaves that
``np.linalg.inv`` inverts; every triangular inverse of the
solver, those of the NT scaling and of ``_chol_inv``'s leaves included,
goes through it.  A solve through inverses is not backward stable: late
in a run its residual, which the dual residual inherits, can rise above
the feasibility tolerance or stay there and keep a point from converging.
So the corrector's solve has one refinement rule: while a point's solve
residual ``e = A*(dZ) - r`` has an entry above that tolerance, it takes a
step of iterative refinement against the operator, at most
``_REFINE_STEPS`` of them.  ``e`` is formed through the operator, not as a
product with the stored, rounded ``M``.

A batch of one computes exactly what a solver for one problem would: each
inner product is one dot product per point.  A larger batch can differ
from it at round-off, where numpy's stacked kernels differ from its
single-matrix ones.

The method starts from any interior pair, ``S(x0)`` and ``Z0`` positive
definite, feasible or not (an infeasible-start method, as SDPT3 is).  The
dual residual ``r = c - A*(Z)`` is folded into the corrector's right-hand
side, so a full dual step removes it, and the predictor's right-hand side
is ``-c`` whatever ``r`` is.  A point counts as converged only once ``r``
is within the feasibility tolerance.

Every inner product of Hermitian matrices, ``<X, Y> = Re tr(XY) =
sum Re X * Re Y + Im X * Im Y``, is a real dot product of the float64 views
of the complex arrays, and ``K`` is computed from the real and imaginary
parts of ``G``, so the Schur complement, the residuals and the directions
never compute an imaginary part only to drop it (as in SDPT3, Toh, Todd &
Tutuncu, Optim. Methods Softw. 11, 1999).

Blocks may be complex Hermitian or real symmetric.  Each class runs in its
blocks' own dtype, with no cast to complex: for real blocks every Cholesky
factor, eigendecomposition, ``K`` and step is real arithmetic, and the
float64 view of a real array is the array itself.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby

import numpy as np

__all__ = [
    "SchurPartition",
    "SdpBlock",
    "SdpResult",
    "SdpError",
    "SdpNonConvergenceError",
    "SdpNumericalError",
    "StackedBlocks",
    "solve_block_sdp",
    "solve_block_sdp_batch",
]

_STEP_FRACTION = 0.98
_MIN_STEP = 1e-10
# Most steps of iterative refinement of a corrector solve.
_REFINE_STEPS = 10
# Cumulative identity shifts, in units of max(trace(M)/m, 1), tried in turn
# when the Schur complement is not numerically positive definite.
_SHIFT_LADDER = np.cumsum([0.0, 1e-12, 1e-11, 1e-10])
# Order at or below which _tri_inv inverts directly instead of halving.
_TRI_LEAF = 16
# Order at or below which _chol_inv factors directly instead of halving.
_CHOL_LEAF = 32
# Float64 entries of the chunk buffers of the Schur assembly: its term list
# is built and applied, and the later layers of ``F`` are added, this many
# entries at a time (see ``StackedBlocks.schur``).
_CHUNK = 1 << 18


class SdpError(RuntimeError):
    """The iteration stopped before reaching the requested duality gap.

    ``best_bound`` is the largest dual objective seen at an iterate whose
    dual residual met the feasibility tolerance (None if there was none),
    and ``iterations`` the iteration at which the solver stopped.
    """

    def __init__(self, message: str, best_bound: float | None = None, iterations: int | None = None):
        super().__init__(message)
        self.best_bound = best_bound
        self.iterations = iterations


class SdpNumericalError(SdpError):
    """Newton system became indefinite or a cone factorization failed."""


class SdpNonConvergenceError(SdpError):
    """Iteration cap hit before reaching the requested duality gap."""


@dataclass(frozen=True)
class SdpBlock:
    """One semidefinite block, ``S_b(x) = sum_e coef[e] x[var[e]] U_e - a0``, in unit coordinates.

    With ``(i, j) = (row[e], col[e])``, ``U_e`` is ``E_ii`` if ``i == j``, else
    ``E_ij + E_ji``, or ``i (E_ij - E_ji)`` if ``imag[e]`` (zero if ``i == j``);
    repeated units add.  The block is complex if ``a0`` is or a unit is imaginary.
    """

    a0: np.ndarray     # (d, d)
    var: np.ndarray    # (n_e,) indices into the global variable vector
    row: np.ndarray    # (n_e,)
    col: np.ndarray    # (n_e,)
    imag: np.ndarray   # (n_e,) bool
    coef: np.ndarray   # (n_e,) float

    def check(self, num_vars: int) -> None:
        """Raise ValueError unless this is a well-formed block on ``num_vars`` variables."""
        shape = np.shape(self.a0)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"block matrix a0 of shape {shape} is not square")
        if len({np.shape(c) for c in (self.var, self.row, self.col, self.imag, self.coef)}) != 1:
            raise ValueError("the coordinate arrays of a block differ in shape")
        if np.any((self.var < 0) | (self.var >= num_vars)):
            raise ValueError(f"a block variable lies outside [0, {num_vars})")
        if np.any((np.r_[self.row, self.col] < 0) | (np.r_[self.row, self.col] >= shape[0])):
            raise ValueError(f"a block coordinate lies outside its {shape[0]} x {shape[0]} matrix")


@dataclass(frozen=True)
class SchurPartition:
    """Variable partition under which the Schur complement is block arrowhead.

    No SDP block may hold variables of two different ``blocks``; ``border``
    variables may appear with any of them.  Every variable index appears
    exactly once.
    """

    border: np.ndarray              # (m_border,) variable indices
    blocks: tuple[np.ndarray, ...]  # index arrays of the diagonal blocks

    def check(self, m: int, blocks: Sequence[SdpBlock]) -> None:
        """Raise ValueError unless this partition fits ``blocks`` on ``m`` variables."""
        owner = np.full(m, -2)
        for k, idx in enumerate((self.border, *self.blocks)):
            if np.any(owner[idx] != -2):
                raise ValueError("partition lists a variable twice")
            owner[idx] = k - 1
        if np.any(owner == -2):
            raise ValueError("partition misses a variable")
        for blk in blocks:
            held = owner[blk.var][owner[blk.var] >= 0]
            if np.any(held != held[:1]):
                raise ValueError("an SDP block couples two diagonal blocks of the partition")


@dataclass
class SdpResult:
    x: np.ndarray
    primal_objective: float
    dual_objective: float
    gap: float
    rel_gap: float
    dual_residual: float
    iterations: int
    converged: bool


class _SizeClass:
    """The blocks of one size ``d`` and dtype, stacked, and their unit coordinates.

    ``pa <= pb`` list the index pairs ``(a, b)`` of a ``d x d`` block.

    Blocks with the same variables and, up to one sign, the same
    coordinates form a set, such as the two bounds of ``0 <= X <= I``, and
    share one ``K`` (``unit_gram``).  The stack is layer-major: the first
    block of every set, then the second of every set that has one, and so
    on, with the sets of most blocks first, so ``layers`` counts the sets
    in each layer and the first ``layers[0]`` blocks stand for their sets.

    ``entry_var``, ``entry_at`` and ``entry_coef`` list each matrix entry
    that a variable sets, as a position in the stack's flat float64 view
    (real and imaginary parts interleaved for complex blocks) and a
    coefficient.  ``term_*`` list the unit coordinates of each set's first
    block: the set, the variable, whether the unit is imaginary, its pair,
    and the coordinate, halved for ``E_aa``.
    """

    def __init__(self, ids: list[int], blocks: Sequence[SdpBlock], dtype: np.dtype,
                 block_at: np.ndarray):
        self.d = d = blocks[ids[0]].a0.shape[0]
        self.dtype = dtype
        self.pa, self.pb = np.triu_indices(d)
        n_p = self.pa.size
        imag = dtype.kind == "c"

        # coordinates oriented to a <= b and summed per block, kind (real
        # first), variable and pair, in that order; zero sums dropped
        var, row, col, is_imag, coef = (np.concatenate([getattr(blocks[bi], f) for bi in ids])
                                        for f in ("var", "row", "col", "imag", "coef"))
        blk = np.repeat(np.arange(len(ids)), [blocks[bi].var.size for bi in ids])
        shape = (len(ids), 2, int(var.max(initial=0)) + 1, d, d)
        lo, hi = np.minimum(row, col), np.maximum(row, col)
        key, where = np.unique(np.ravel_multi_index((blk, is_imag, var, lo, hi), shape),
                               return_inverse=True)
        val = np.bincount(where, coef * np.where(is_imag, np.sign(col - row), 1))
        blk, unit = np.divmod(key[val != 0.0], np.prod(shape[1:]))
        val = val[val != 0.0]

        keys: dict[tuple, int] = {}
        set_of = []
        splits = np.cumsum(np.bincount(blk, minlength=len(ids)))[:-1]
        for b_unit, b_val in zip(np.split(unit, splits), np.split(val, splits)):
            sign = 1.0 if b_val.size == 0 or b_val[0] > 0 else -1.0
            set_of.append(keys.setdefault((b_unit.tobytes(), (sign * b_val).tobytes()), len(keys)))
        set_of = np.asarray(set_of)
        by_set = np.argsort(set_of, kind="stable")
        layer = np.empty_like(set_of)
        layer[by_set] = np.arange(set_of.size) - np.searchsorted(set_of[by_set], set_of[by_set])
        size = np.bincount(set_of)
        rank = np.empty_like(size)
        rank[np.argsort(-size, kind="stable")] = np.arange(size.size)
        order = np.lexsort((rank[set_of], layer))
        self.layers = np.bincount(layer).tolist()
        self.block_ids = np.asarray(ids)[order]
        self.n = len(ids)
        self.a0 = np.stack([blocks[b].a0 for b in self.block_ids], dtype=dtype)
        # where each stacked block starts in a row of flattened blocks in block order
        self.z_index = (block_at[self.block_ids][:, None] + np.arange(d * d)).ravel()

        # the coordinates in stack order, each block numbered by its place
        place = np.argsort(order)[blk]
        by_place = np.argsort(place, kind="stable")
        blk, val = place[by_place], val[by_place]
        is_imag, var, a, b = np.unravel_index(unit[by_place], shape[1:])

        # each coordinate's entries (a, b) and (b, a) in the stack's flat view
        width = 2 if imag else 1
        entry_at = width * ((blk * d * d)[:, None] + np.stack([a * d + b, b * d + a], axis=1))
        entry_coef = (val[:, None] * np.stack(
            [np.ones(val.size), np.where(a == b, 0.0, 1.0 - 2.0 * is_imag)], axis=1)).ravel()
        keep = entry_coef != 0.0
        self.entry_var = np.repeat(var, 2)[keep]
        self.entry_at = (entry_at + is_imag[:, None]).ravel()[keep]
        self.entry_coef = entry_coef[keep]
        self.flat_size = self.n * d * d * width
        # K of each set: an n_p x n_p part RR, and II and RI in complex blocks
        self.k_parts = 3 if imag else 1
        self.k_size = self.layers[0] * self.k_parts * n_p * n_p

        rep = blk < self.layers[0]
        self.term_set = blk[rep]
        self.term_var = var[rep]
        self.term_imag = is_imag[rep].astype(bool)
        self.term_pair = (a * d - a * (a - 1) // 2 + b - a)[rep]   # row-major index of a <= b
        self.term_val = val[rep] * np.where(a == b, 0.5, 1.0)[rep]
        # columns of (c, d) and (d, c) of each pair in the rows of ``F`` and ``F2``
        span = 2 * d if imag else d
        self._columns = np.stack(
            [self.pa * span + self.pb, self.pb * span + self.pa]
            + ([self.pa * span + d + self.pb, self.pb * span + d + self.pa] if imag else []))

    def unit_gram(self, g: np.ndarray, out: np.ndarray, work: dict, room: int) -> None:
        """``K[u, w] = <U_u, G U_w G> / 2`` of every set, summed over its blocks, into ``out``.

        Here the real unit of a diagonal pair is ``E_aa + E_aa``, which the
        halved coordinates of ``term_val`` make up for.  ``g`` holds each
        point's ``G = J^-H J^-1`` of every block, ``(B, n, d, d)``, and ``out``
        is ``(B, k_size)``: the parts RR, II and RI in turn, each an
        ``(n_p, n_p)`` matrix per set; the large intermediates live in
        ``work`` (see ``_buffer``).
        With ``G = A + iB``, each unit ``u = (a, b)`` has the outer products
        ``F[u, c, d] = A_bc A_ad + B_bc B_ad`` and
        ``F2[u, c, d] = A_bc B_ad - B_bc A_ad``, one ``matmul`` for both.
        Against a unit ``w = (c, d)``, ``K`` is ``F[u, c, d] + F[u, d, c]`` for
        two real units, ``F[u, d, c] - F[u, c, d]`` for two imaginary ones and
        ``F2[u, c, d] - F2[u, d, c]`` for real ``u`` and imaginary ``w``.

        ``F`` is formed for the first layer's blocks only, in the
        ``"scratch"`` buffer that the Schur storage of ``room`` entries takes
        next, and each later layer's ``F`` is added to it a chunk of blocks
        at a time, in layer order.
        """
        n, n_p, sets = len(g), self.pa.size, self.layers[0]
        if self.dtype.kind == "c":
            rows = np.stack([g.real, g.imag], axis=-1)            # (B, n, d, d, 2)
            right = np.concatenate([rows, np.stack([g.imag, -g.real], axis=-1)], axis=-2)
        else:
            rows = right = g[..., None]
        # (B, n, n_p, d, 2d): F and F2 side by side (F alone for real blocks)
        left, right = rows[..., self.pb, :, :], np.swapaxes(right[..., self.pa, :, :], -1, -2)
        shape = left.shape[:-1] + right.shape[-1:]
        per_block = n * int(np.prod(shape[2:]))
        _buffer(work, "scratch", (room,))   # sized for the storage, so it need not grow
        f = np.matmul(left[:, :sets], right[:, :sets],
                      out=_buffer(work, "scratch", (n, sets) + shape[2:]))
        step = max(1, _CHUNK // per_block)
        at = sets
        for count in self.layers[1:]:
            for lo in range(0, count, step):
                hi = min(lo + step, count)
                f[:, lo:hi] += np.matmul(left[:, at + lo:at + hi], right[:, at + lo:at + hi],
                                         out=_buffer(work, "f_chunk", (n, hi - lo) + shape[2:]))
            at += count
        f = f[:, :sets].reshape(n, sets, n_p, -1)
        parts = out.reshape(n, self.k_parts, sets, n_p, n_p)
        # x = F at (c, d) and y = F at (d, c): RR = x + y, II = y - x
        x, y = parts[:, 0], _buffer(work, "k_part", parts[:, 0].shape)
        np.take(f, self._columns[0], axis=-1, mode="clip", out=x)
        np.take(f, self._columns[1], axis=-1, mode="clip", out=y)
        if self.dtype.kind == "c":
            np.subtract(y, x, out=parts[:, 1])
        np.add(x, y, out=x)
        if self.dtype.kind == "c":
            np.take(f, self._columns[2], axis=-1, mode="clip", out=parts[:, 2])
            np.take(f, self._columns[3], axis=-1, mode="clip", out=y)
            parts[:, 2] -= y


class _ArrowLayout:
    """Where each point keeps the stored parts of its arrowhead Schur complement.

    ``order`` lists the variables of the partition's diagonal blocks, in
    its order, then the border's.  A point's storage is one flat array
    holding, in turn:

    - each diagonal block ``M_c``, ``(s_c, s_c)``;
    - the couplings ``M[block c, border]`` of all blocks, as one
      ``(m_q, m_border)`` matrix whose rows follow ``order``;
    - the border block ``(m_border, m_border)``.

    Only the lower triangles of the diagonal blocks and of the border block
    are written, as the factor reads no other entries, and the transposed
    couplings ``M[border, block c]`` are not stored.

    ``runs`` lists the runs of consecutive diagonal blocks of one order
    ``s``, each as ``(s, k, first entry, first row in order)``: the ``k``
    blocks of a run are one contiguous ``(k, s, s)`` stack in the storage,
    and their couplings ``k * s`` contiguous rows, so a run is factored as
    one stack, with no copy (``runs_of``).  The arrowhead factor
    (``_ArrowFactor``) is kept in this layout too.
    """

    def __init__(self, part: SchurPartition):
        self.partition = part
        self.order = np.concatenate([*part.blocks, part.border]).astype(np.intp)
        self.mq = self.order.size - part.border.size
        self.mb = part.border.size
        sizes = np.array([len(q) for q in part.blocks], dtype=np.intp)
        self._diag_at = np.cumsum(sizes * sizes) - sizes * sizes
        self._rows = np.cumsum(sizes) - sizes
        self.runs = []
        for s, run in groupby(zip(sizes.tolist(), self._diag_at.tolist(), self._rows.tolist()),
                              key=lambda block: block[0]):
            run = list(run)
            self.runs.append((s, len(run), run[0][1], run[0][2]))
        diag_end = int(np.sum(sizes * sizes))
        self.coupling = slice(diag_end, diag_end + self.mq * self.mb)
        self.border = slice(self.coupling.stop, self.coupling.stop + self.mb * self.mb)
        self.size = self.border.stop
        # scratch entries per point of the factor's recursions (_factor_shifted)
        self.room = max([k * _chol_room(s) for s, k, _, _ in self.runs]
                        + [self.mb * self.mb + _chol_room(self.mb)])
        # per variable: its row in ``order``, and for a block variable its
        # block's first row in ``order``, place in the storage and size
        m = self.order.size
        self._rank = np.empty(m, dtype=np.intp)
        self._rank[self.order] = np.arange(m)
        first = np.zeros(m, dtype=np.intp)
        at = np.zeros(m, dtype=np.intp)
        size = np.zeros(m, dtype=np.intp)
        for q, q_first, q_at, q_size in zip(part.blocks, self._rows, self._diag_at, sizes):
            first[q], at[q], size[q] = q_first, q_at, q_size
        # entry (i, j) is stored at row_at[j in border][i] + col_at[j]
        rank = self._rank
        self.in_border = rank >= self.mq
        self.row_at = (at + (rank - first) * size,
                       np.where(self.in_border, self.border.start + (rank - self.mq) * self.mb,
                                self.coupling.start + rank * self.mb))
        self.col_at = np.where(self.in_border, rank - self.mq, rank - first)

    def stored(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Whether the storage holds Schur entry ``(i, j)``, for arrays of
        variable pairs that share an SDP block."""
        ri, rj = self._rank[i], self._rank[j]
        return np.where(self.in_border[i] == self.in_border[j], ri >= rj, self.in_border[j])

    def index(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Storage position of Schur entry ``(i, j)``, for arrays of stored pairs.

        No pair may join two different diagonal blocks.
        """
        return np.where(self.in_border[j], self.row_at[1][i], self.row_at[0][i]) + self.col_at[j]

    def runs_of(self, arr: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each run's ``(B, k, s, s)`` diagonal blocks and ``(B, k, s, m_border)``
        couplings, as views of ``arr``, a batch's storage or factor."""
        n, couplings = len(arr), self.couplings(arr)
        return [(arr[:, at:at + k * s * s].reshape(n, k, s, s),
                 couplings[:, row:row + k * s].reshape(n, k, s, self.mb))
                for s, k, at, row in self.runs]

    def couplings(self, arr: np.ndarray) -> np.ndarray:
        return arr[:, self.coupling].reshape(len(arr), self.mq, self.mb)

    def border_block(self, arr: np.ndarray) -> np.ndarray:
        return arr[:, self.border].reshape(len(arr), self.mb, self.mb)

    @cached_property
    def _diagonal(self) -> np.ndarray:
        """Storage positions of ``M[i, i]``, in variable order."""
        m = self.order.size
        return self.index(np.arange(m), np.arange(m))

    def trace(self, schur: np.ndarray) -> np.ndarray:
        """``trace(M)`` of each point, summed in variable order."""
        return schur[:, self._diagonal].sum(axis=1)


class StackedBlocks:
    """The blocks of one SDP stacked by size and dtype, with its Schur partition and index arrays.

    Build it once per problem structure and pass it to ``solve_block_sdp``
    in place of the block list, so that the stacks and the index arrays are
    made once.  The blocks are checked and stacked here; the index arrays
    are made on the first solve, so a caller that only reads a problem's
    structure does not pay for them.  ``len`` counts the ``blocks``.

    Raises ``ValueError`` if a block is malformed (``SdpBlock.check``) or
    ``partition`` does not fit the blocks (``SchurPartition.check``);
    without one all variables form one block.
    """

    def __init__(
        self, blocks: Sequence[SdpBlock], num_vars: int, partition: SchurPartition | None = None
    ):
        if partition is None:
            partition = SchurPartition(border=np.zeros(0, dtype=int), blocks=(np.arange(num_vars),))
        # one _SizeClass per block size and dtype, in order of first appearance
        by_kind: dict[tuple[int, np.dtype], list[int]] = {}
        for bi, blk in enumerate(blocks):
            blk.check(num_vars)
            kind = complex if np.iscomplexobj(blk.a0) or blk.imag.any() else float
            by_kind.setdefault((blk.a0.shape[0], np.dtype(kind)), []).append(bi)
        partition.check(num_vars, blocks)
        self.num_vars = num_vars
        self.partition = partition
        self.blocks = list(blocks)
        areas = np.array([blk.a0.size for blk in blocks])
        block_at = np.cumsum(areas) - areas
        self.classes = [_SizeClass(ids, blocks, dtype, block_at)
                        for (_, dtype), ids in by_kind.items()]

    def __len__(self) -> int:
        return len(self.blocks)

    @cached_property
    def _entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[slice], int]:
        """The classes' entry lists joined: variable, position in one flat float64
        array that holds every class (each starting at an even offset, so
        that its complex view is aligned), coefficient; and each class's
        slice of that array and the array's size."""
        flats, at = [], 0
        for cl in self.classes:
            at += at % 2
            flats.append(slice(at, at + cl.flat_size))
            at += cl.flat_size
        pos = np.concatenate([cl.entry_at + f.start for cl, f in zip(self.classes, flats)])
        var = np.concatenate([cl.entry_var for cl in self.classes])
        coef = np.concatenate([cl.entry_coef for cl in self.classes])
        return var, pos, coef, flats, at + at % 2

    @cached_property
    def arrow(self) -> _ArrowLayout:
        return _ArrowLayout(self.partition)

    @cached_property
    def _k_at(self) -> np.ndarray:
        """Where each class's ``K`` starts in the joined ``K`` of all classes, and its end."""
        return np.cumsum([0] + [cl.k_size for cl in self.classes])

    @cached_property
    def _terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Storage position and index into the joined ``K`` of all sets, as
        int32, and coefficient of every term of ``M``.

        Each set adds ``2 coef_i coef_j K[u_i, u_j]`` to entry ``(var_i, var_j)``
        for every two of its unit coordinates ``i, j`` whose entry is stored.
        The terms are listed by set size, set, ``i`` and ``j``.  The sets of
        one size are done a chunk of at most ``_CHUNK`` pairs at a time, as
        outer sums of per-coordinate offsets.
        """
        classes, lay = self.classes, self.arrow
        if max(lay.size, self._k_at[-1]) > np.iinfo(np.int32).max:
            raise ValueError("the Schur storage or K has more entries than int32 indexes")
        cls_of = np.repeat(np.arange(len(classes)), [cl.term_var.size for cl in classes])
        n_sets = np.cumsum([0] + [cl.layers[0] for cl in classes])
        e_set = np.concatenate([cl.term_set for cl in classes]) + n_sets[cls_of]
        var = np.concatenate([cl.term_var for cl in classes])
        imag = np.concatenate([cl.term_imag for cl in classes])
        pair = np.concatenate([cl.term_pair for cl in classes])
        val = np.concatenate([cl.term_val for cl in classes])
        n = np.array([cl.pa.size for cl in classes])[cls_of]
        k_set = self._k_at[cls_of] + (e_set - n_sets[cls_of]) * n * n
        part = np.array([cl.layers[0] for cl in classes])[cls_of] * n * n
        # K index = k_row[imag_j][i] + k_col[imag_i][j]: parts RR, II, RI at
        # 0, part, 2 part, and an IR entry is the RI entry of (j, i)
        k_row = tuple(a.astype(np.int32) for a in (
            k_set + np.where(imag, 2 * part + pair, pair * n),
            k_set + np.where(imag, part, 2 * part) + pair * n))
        k_col = tuple(a.astype(np.int32) for a in (pair, np.where(imag, pair, pair * n)))
        border = lay.in_border[var]
        row_at = tuple(a[var].astype(np.int32) for a in lay.row_at)
        col_at = lay.col_at[var].astype(np.int32)

        counts = np.bincount(e_set)
        starts = np.cumsum(counts) - counts
        i, j = (..., slice(None), None), (..., None, slice(None))
        chunks = []
        for size in np.flatnonzero(np.bincount(counts)[1:]) + 1:
            first = starts[counts == size]
            step = max(1, _CHUNK // (size * size))
            for lo in range(0, first.size, step):
                e = first[lo:lo + step, None] + np.arange(size)
                chunks.append((e, lay.stored(var[e][i], var[e][j])))
        total = sum(int(np.count_nonzero(keep)) for _, keep in chunks)
        pos, k_idx, coef = np.empty(total, np.int32), np.empty(total, np.int32), np.empty(total)
        at = 0
        for e, keep in chunks:
            span = slice(at, at + int(np.count_nonzero(keep)))
            at = span.stop
            full = np.where(border[e][j], row_at[1][e][i], row_at[0][e][i])
            full += col_at[e][j]
            pos[span] = full[keep]
            full = np.where(imag[e][j], k_row[1][e][i], k_row[0][e][i])
            full += np.where(imag[e][i], k_col[1][e][j], k_col[0][e][j])
            k_idx[span] = full[keep]
            del full
            coef[span] = (2.0 * val[e][i] * val[e][j])[keep]
        return pos, k_idx, coef

    def start(self, z0: np.ndarray) -> list[np.ndarray]:
        """Each class's ``(B, n, d, d)`` stack of the dual blocks in ``z0``, one
        ``(B, sum d_b^2)`` row per point holding the flattened blocks in block order."""
        rows = [np.take(z0, cl.z_index, axis=1) for cl in self.classes]
        return [np.asarray(r.real if cl.dtype.kind == "f" else r, dtype=cl.dtype)
                .reshape(len(z0), cl.n, cl.d, cl.d) for cl, r in zip(self.classes, rows)]

    def combine(self, coef: np.ndarray) -> list[np.ndarray]:
        """``sum_k coef[p, k] A_k`` of every block of each point ``p``, one
        ``(B, n, d, d)`` stack per class."""
        var, pos, entry_coef, flats, size = self._entries
        flat = _scatter(pos, np.take(coef, var, axis=1) * entry_coef, size)
        return [flat[:, f].view(cl.dtype).reshape(len(coef), cl.n, cl.d, cl.d)
                for cl, f in zip(self.classes, flats)]

    def adjoint(self, ys: list[np.ndarray]) -> np.ndarray:
        """``sum_b <A_bk, Y_b>`` over the blocks that hold variable ``k``, for each point.

        ``ys`` holds one ``(B, n, d, d)`` stack per class.  ``np.bincount``
        adds every contribution, also those of blocks that share a variable.
        """
        var, _, entry_coef, _, _ = self._entries
        flats = [y.reshape(len(y), -1).view(np.float64) for y in ys]
        vals = np.concatenate([np.take(f, cl.entry_at, axis=1)
                               for cl, f in zip(self.classes, flats)], axis=1)
        return _scatter(var, vals * entry_coef, self.num_vars)

    def schur(self, jinv: list[np.ndarray], work: dict) -> np.ndarray:
        """Each point's arrowhead storage of ``M``, ``(B, arrow.size)``, from the
        ``J^-1`` of every block, one ``(B, n, d, d)`` stack per class.

        ``M[i, j] = sum_b <A_bi, G_b A_bj G_b>`` with ``G_b = J_b^-H J_b^-1``
        is ``<J^-1 A_i J^-H, J^-1 A_j J^-H>`` summed over the blocks.  Each
        term is a unit-coordinate product times an entry of ``K``
        (``_SizeClass.unit_gram``); the terms are gathered one chunk at a
        time into a chunk-sized buffer and added into the zeroed storage by
        ``np.add.at``, which adds each entry's terms in list order.  The
        storage and the large intermediates live in ``work`` (see
        ``_buffer``), so the storage is valid until the next call with the
        same ``work``, or the next ``unit_gram`` with it; the arrowhead
        factor of the storage takes ``K``'s buffer once this call is done.
        """
        pos, k_idx, coef = self._terms
        n = len(jinv[0])
        # the arrowhead factor takes "k" and "terms" next (_factor_shifted):
        # sized for both, so that they need not grow
        _buffer(work, "k", (n * max(self._k_at[-1], self.arrow.size),))
        _buffer(work, "terms", (max(min(coef.size, _CHUNK), n * self.arrow.room),))
        kflat = _buffer(work, "k", (n, self._k_at[-1]))
        for cl, j, at in zip(self.classes, jinv, self._k_at):
            cl.unit_gram(np.swapaxes(j.conj(), -1, -2) @ j, kflat[:, at:at + cl.k_size], work,
                         n * self.arrow.size)
        # the outer products of unit_gram are done with: the storage takes their buffer
        out = _buffer(work, "scratch", (n, self.arrow.size))
        vals = _buffer(work, "terms", (min(coef.size, _CHUNK),))
        for k, target in zip(kflat, out):
            target[...] = 0.0
            for lo in range(0, coef.size, _CHUNK):
                part = slice(lo, lo + _CHUNK)
                chunk = vals[:coef[part].size]
                np.take(k, k_idx[part], mode="clip", out=chunk)
                chunk *= coef[part]
                np.add.at(target, pos[part], chunk)
        return out


def _buffer(work: dict, key, shape: tuple[int, ...]) -> np.ndarray:
    """A float64 array of ``shape`` from the buffer ``work[key]``, made on first use.

    A run keeps its large per-iteration arrays in one ``work`` dict, so they
    are allocated once and not paged in afresh every iteration (a batch's
    shrinking point count takes a prefix of the buffer).
    """
    size = int(np.prod(shape))
    buf = work.get(key)
    if buf is None or buf.size < size:
        buf = work[key] = np.empty(size)
    return buf[:size].reshape(shape)


def _scatter(idx: np.ndarray, vals: np.ndarray, size: int) -> np.ndarray:
    """``np.bincount(idx, row, minlength=size)`` of each row of ``vals``, one row per point.

    One call per point keeps the index array at one copy; an index offset
    per point would make ``B`` of them.
    """
    out = np.empty((len(vals), size))
    for row, target in zip(vals, out):
        target[...] = np.bincount(idx, row, minlength=size)
    return out


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sum of ``<X_n, Y_n>`` over each point's stack of Hermitian matrices; ``y`` may
    hold one stack for all points.

    Each point's sum is one dot product, as ``np.dot`` of the flat views
    computes it.
    """
    xr = x.reshape(len(x), -1).view(np.float64)
    yr = y.reshape(len(y), -1).view(np.float64)
    return (xr[:, None, :] @ yr[:, :, None])[:, 0, 0]


def _congruence(jinv: np.ndarray, mat: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """``J^-1 X J^-H``, or with ``adjoint`` ``J^-H X J^-1``, for stacks of blocks."""
    jinvh = np.swapaxes(jinv.conj(), -1, -2)
    return jinvh @ mat @ jinv if adjoint else jinv @ mat @ jinvh


class _Batch:
    """The iterates of a batch's active points, one row per point, and their bookkeeping."""

    def __init__(self, c, x, z):
        self.c, self.x, self.z = c, x, z
        self.point = np.arange(len(c))          # input position of each row
        self.best = np.full(len(c), -np.inf)    # best feasible dual bound, -inf for none
        self.stalls = np.zeros(len(c), dtype=int)

    def __len__(self) -> int:
        return len(self.point)

    def keep(self, rows: np.ndarray) -> None:
        for name in ("c", "x", "point", "best", "stalls"):
            setattr(self, name, getattr(self, name)[rows])
        self.z = [zc[rows] for zc in self.z]

    def bound(self, row: int) -> float | None:
        return None if self.best[row] == -np.inf else float(self.best[row])


def solve_block_sdp(
    blocks: StackedBlocks | Sequence[SdpBlock],
    c: np.ndarray,
    x0: np.ndarray,
    z0: Sequence[np.ndarray],
    tolerance: float = 1e-7,
    max_iterations: int = 200,
) -> SdpResult:
    """Run the interior-point iteration from an interior pair: ``S(x0)`` and
    ``Z0`` positive definite.

    ``blocks`` is a ``StackedBlocks``, which carries the Schur partition;
    a plain list of ``SdpBlock`` is stacked for this solve, with all
    variables in one dense Schur block.  ``z0`` holds the dual blocks in the
    order the blocks were given, in arrays whose flattened concatenation
    lists each block row-major: one array per block, or a list of one flat
    array of all blocks.  A real block takes the real part of its start.  This is
    ``solve_block_sdp_batch`` on a batch of one.

    Raises
    ------
    SdpNumericalError
        If a cone factorization fails, or the Schur complement is not
        positive definite even after the largest identity shift.
    SdpNonConvergenceError
        If the iteration cap is reached or the step length collapses.

    Both carry the best dual bound and the iteration count (``SdpError``).
    """
    z_row = np.concatenate([np.ravel(z) for z in z0])
    (out,) = solve_block_sdp_batch(blocks, np.asarray(c)[None], np.asarray(x0)[None], z_row[None],
                                   tolerance, max_iterations)
    if isinstance(out, SdpError):
        raise out
    return out


def solve_block_sdp_batch(
    blocks: StackedBlocks | Sequence[SdpBlock],
    c: np.ndarray,
    x0: np.ndarray,
    z0: np.ndarray,
    tolerance: float = 1e-7,
    max_iterations: int = 200,
) -> list[SdpResult | SdpError]:
    """Run the interior-point iteration on a batch of problems that share their blocks.

    ``c`` and ``x0`` are ``(B, m)``, one row per point, and ``z0`` is
    ``(B, sum d_b^2)``: each point's dual blocks flattened and concatenated
    in block order.  Returns, in input order, each point's ``SdpResult``, or
    the ``SdpNumericalError`` or ``SdpNonConvergenceError`` that
    ``solve_block_sdp`` would raise for it.
    """
    c = np.asarray(c, dtype=float)
    m = c.shape[1]
    stack = blocks if isinstance(blocks, StackedBlocks) else StackedBlocks(blocks, m)
    dim_total = sum(cl.n * cl.d for cl in stack.classes)
    a0 = [cl.a0 for cl in stack.classes]
    batch = _Batch(c, np.array(x0, dtype=float), stack.start(np.asarray(z0)))
    work: dict = {}
    results: list[SdpResult | SdpError | None] = [None] * len(c)

    def fail(rows, error: type[SdpError], messages, it: int) -> None:
        for row, message in zip(rows, messages):
            results[batch.point[row]] = error(message, batch.bound(row), it)

    feas_tol = max(tolerance, 1e-9)
    it = 0
    while len(batch):
        x, z = batch.x, batch.z
        s = [sc - a for sc, a in zip(stack.combine(x), a0)]

        gap = sum(_inner(sc, zc) for sc, zc in zip(s, z))
        pobj = (batch.c[:, None, :] @ x[:, :, None])[:, 0, 0]
        dobj = sum(_inner(zc, a[None]) for zc, a in zip(z, a0))
        r = batch.c - stack.adjoint(z)
        rd_inf = np.max(np.abs(r), axis=1) if m else np.zeros(len(batch))

        feasible = rd_inf <= feas_tol
        batch.best = np.where(feasible & (dobj > batch.best), dobj, batch.best)
        # <S, Z> >= 0 for PSD iterates; a negative value is round-off, which
        # must not count as meeting a tolerance set below it
        rel_gap = np.abs(gap) / (1.0 + np.abs(pobj) + np.abs(dobj))
        done = (rel_gap <= tolerance) & feasible
        for row in np.flatnonzero(done):
            results[batch.point[row]] = SdpResult(
                x=x[row].copy(),
                primal_objective=float(pobj[row]),
                dual_objective=float(dobj[row]),
                gap=float(gap[row]),
                rel_gap=float(rel_gap[row]),
                dual_residual=float(rd_inf[row]),
                iterations=it,
                converged=True,
            )
        stop = ~done & ((it == max_iterations) | (batch.stalls >= 6))
        rows = np.flatnonzero(stop)
        fail(rows, SdpNonConvergenceError, [
            f"{'step length collapsed' if batch.stalls[k] >= 6 else 'iteration cap reached'} "
            f"at iteration {it}: gap={gap[k]:.3e}, rel_gap={rel_gap[k]:.3e}, "
            f"dual_residual={rd_inf[k]:.3e}" for k in rows], it)
        if np.any(done | stop):
            live = np.flatnonzero(~(done | stop))
            batch.keep(live)
            if not len(batch):
                break
            x, z = batch.x, batch.z
            s, gap, r = [sc[live] for sc in s], gap[live], r[live]

        # Nesterov-Todd scaling per block: J^-1 S J^-H = J^H Z J = diag(v).
        v_all, jinv_all, why = _nt_scaling(s, z)
        failed = {k: f"cone factorization failed: {w}" for k, w in why.items()}
        if not failed:
            factor = _factor_arrow(stack.schur(jinv_all, work), stack.arrow, failed, work)
        if failed:
            fail(failed, SdpNumericalError, failed.values(), it)
            batch.keep(np.setdiff1d(np.arange(len(batch)), list(failed)))
            continue
        mu = gap / dim_total

        # Predictor (affine) direction: with A*(Z) = c - r the right-hand
        # side -r - A*(Z) is -c, feasible iterate or not.
        dx_aff = cho_solve(factor, -batch.c)
        ds_aff = [_congruence(j, d_s) for j, d_s in zip(jinv_all, stack.combine(dx_aff))]
        dz_aff = [-_add_diag(d_s, v) for d_s, v in zip(ds_aff, v_all)]

        alpha_aff, beta_aff = _step_lengths(v_all, ds_aff, dz_aff, 1.0)
        s_aff = [_add_diag(alpha_aff[:, None, None, None] * d_s, v)
                 for v, d_s in zip(v_all, ds_aff)]
        z_aff = [_add_diag(beta_aff[:, None, None, None] * d_z, v)
                 for v, d_z in zip(v_all, dz_aff)]
        mu_aff = sum(_inner(a, b) for a, b in zip(s_aff, z_aff)) / dim_total
        # scalar powers: numpy's vector pow rounds some cubes differently
        ratio = (np.maximum(mu_aff, 0.0) / mu).tolist()
        sigma = np.clip([q ** 3 for q in ratio], 1e-10, 1.0)

        # Corrector with the Mehrotra second-order term.
        rt_all = []
        for v, d_s, d_z in zip(v_all, ds_aff, dz_aff):
            resid = _add_diag(-(0.5 * (d_s @ d_z + d_z @ d_s)), -v * v)
            resid = _add_diag(resid, (sigma * mu)[:, None, None])
            rt_all.append(2.0 * resid / (v[..., :, None] + v[..., None, :]))

        # <J^-1 A_k J^-H, R> = <A_k, J^-H R J^-1>
        rhs = stack.adjoint([_congruence(j, rt, adjoint=True) for j, rt in zip(jinv_all, rt_all)])
        rhs -= r
        dx = cho_solve(factor, rhs)
        ds, dz, dz_full = _directions(stack, jinv_all, rt_all, dx)
        # The step leaves the dual residual at (1 - beta) r - beta e, with
        # e = A*(dZ) - r = rhs - M dx this solve's residual, formed through
        # the operator, which the explicit triangular inverses leave at up
        # to eps cond(M) |rhs| late in a run.  While e is above the
        # feasibility tolerance, iterative refinement cuts it down.
        for _ in range(_REFINE_STEPS):
            e = stack.adjoint(dz_full) - r
            off = np.any(np.abs(e) > feas_tol, axis=1)
            if not np.any(off):
                break
            dx[off] += cho_solve(factor, e)[off]
            ds, dz, dz_full = _directions(stack, jinv_all, rt_all, dx)

        alpha, beta = _step_lengths(v_all, ds, dz, _STEP_FRACTION)
        batch.stalls = np.where((alpha < _MIN_STEP) & (beta < _MIN_STEP), batch.stalls + 1, 0)

        batch.x = x + alpha[:, None] * dx
        for ci, d_z in enumerate(dz_full):
            znew = z[ci] + beta[:, None, None, None] * d_z
            z[ci] = 0.5 * (znew + np.swapaxes(znew.conj(), -1, -2))
        # not held while the next iteration builds its own
        del factor
        it += 1

    return results


def _directions(stack: StackedBlocks, jinv_all, rt_all, dx):
    """The scaled directions ``dS = J^-1 (sum_k dx_k A_k) J^-H`` and
    ``dZ = R - dS`` of each class, and ``dZ`` unscaled, ``J^-H dZ J^-1``."""
    ds = [_congruence(j, d_s) for j, d_s in zip(jinv_all, stack.combine(dx))]
    dz = [rt - d_s for rt, d_s in zip(rt_all, ds)]
    return ds, dz, [_congruence(j, d_z, adjoint=True) for j, d_z in zip(jinv_all, dz)]


def _step_lengths(v_all, ds_all, dz_all, fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """Each point's primal and dual step: ``fraction`` of the way to the cone
    boundary, at most 1.

    Along ``D_S``, ``diag(v) + a D_S`` stays PSD up to ``a = -1 / lambda``,
    with ``lambda`` the smallest eigenvalue over the blocks of ``D_S``
    scaled by ``diag(v)^-1/2`` on both sides (likewise for ``D_Z``).  Only
    a block whose Gershgorin bound ``g <= lambda_min`` is at most
    ``min(U, -fraction) + m`` can set the step: ``U``, the smallest diagonal
    entry of all blocks, is at least the smallest eigenvalue of all, and a
    smallest eigenvalue above ``-fraction`` gives the step 1.  The margin
    ``m`` covers the rounding of ``g`` and LAPACK's eigenvalue error.
    ``eigvalsh`` runs on those blocks alone, one call per size class for
    both directions, and its result for a matrix does not depend on the
    other matrices of the stack, so the steps are those of every block.
    """
    # per class, point and side (primal, dual): each block's scaled direction
    # and Gershgorin bound, and the smallest diagonal entry and largest
    # d * (absolute row sum) of its blocks
    scaled, gersh, diag_min, row_max = [], [], [], []
    for v, d_s, d_z in zip(v_all, ds_all, dz_all):
        w = 1.0 / np.sqrt(np.concatenate([v, v], axis=-2))
        sc = np.concatenate([d_s, d_z], axis=-3) * w[..., :, None] * w[..., None, :]
        # eigvalsh reads the lower triangle and the real diagonal
        diag = np.diagonal(sc, axis1=-2, axis2=-1).real
        low = np.abs(np.tril(sc, -1))
        off = low.sum(axis=-1) + low.sum(axis=-2)
        n, d = len(v), sc.shape[-1]
        scaled.append(sc.reshape(n, 2, -1, d, d))
        gersh.append((diag - off).min(axis=-1).reshape(n, 2, -1))
        diag_min.append(diag.reshape(n, 2, -1).min(axis=-1))
        row_max.append(d * (np.abs(diag) + off).reshape(n, 2, -1).max(axis=-1))
    margin = 64 * np.finfo(float).eps * np.maximum.reduce(row_max)
    screen = np.minimum(np.minimum.reduce(diag_min), -fraction) + margin
    lows = np.full(screen.shape, np.inf)
    for sc, g in zip(scaled, gersh):
        pick = g <= screen[..., None]
        if np.any(pick):
            np.minimum.at(lows, np.nonzero(pick)[:2], np.linalg.eigvalsh(sc[pick]).min(axis=-1))
    steps = np.full(lows.shape, np.inf)
    neg = lows < -1e-14
    steps[neg] = 1.0 / -lows[neg]
    steps = np.minimum(1.0, fraction * steps)
    return steps[:, 0], steps[:, 1]


def _guarded(fn, mats: np.ndarray, failed: dict[int, str]) -> np.ndarray:
    """``fn(mats)`` of a LAPACK routine (a Cholesky factor or ``eigh``) on a
    stack whose leading axis is the batch.

    A point whose matrices ``fn`` rejects, found by trying its ``(1, ...)``
    slice alone, is entered in ``failed`` with the error's message (unless
    it is there), and the stack runs again with identities in its place.
    LAPACK factors each matrix alone, so the others' results are unchanged.
    """
    def attempt(stack):
        # the message only: a kept error would hold its traceback's frames
        try:
            return fn(stack), None
        except np.linalg.LinAlgError as exc:
            return None, str(exc)

    out, error = attempt(mats)
    if error is None:
        return out
    mats = mats.copy()
    for k in range(len(mats)):
        if (error := attempt(mats[k:k + 1])[1]) is not None:
            failed.setdefault(k, error)
            mats[k] = np.eye(mats.shape[-1])
    return fn(mats)


def _nt_scaling(s: list[np.ndarray], z: list[np.ndarray]):
    """``v`` and ``J^-1`` of every block of each class stack, as two lists, and
    why each point whose slack or scaled dual iterate is not positive
    definite failed, for its first such block."""
    v_all, jinv_all, why = [], [], {}
    for sc, zc in zip(s, z):
        ls = _guarded(np.linalg.cholesky, sc, why)
        lam, uk = _guarded(np.linalg.eigh, np.swapaxes(ls.conj(), -1, -2) @ zc @ ls, why)
        for k in np.flatnonzero(lam.min(axis=(1, 2)) <= 0.0).tolist():
            why.setdefault(k, "dual iterate lost definiteness")
        lam[list(why)] = 1.0
        jinv_all.append((np.swapaxes(uk.conj(), -1, -2) @ _tri_inv(ls)) * (lam ** 0.25)[..., None])
        v_all.append(np.sqrt(lam))
    return v_all, jinv_all, why


def _add_diag(mat: np.ndarray, v) -> np.ndarray:
    """``mat`` plus ``v`` on the diagonal of each matrix; ``v`` broadcasts against the diagonals."""
    out = mat.copy()
    idx = np.arange(mat.shape[-1])
    out[..., idx, idx] += v
    return out


def cho_factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors ``L`` (``a = L L^T``) of a stack of symmetric matrices.

    Raises ``np.linalg.LinAlgError`` when one of them is not numerically
    positive definite.
    """
    return np.linalg.cholesky(a)


def _tri_inv(low: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The inverses of a stack ``(..., n, n)`` of nonsingular lower-triangular
    matrices, written into ``out`` when given.

    Recursive halving (Elmroth, Gustavson, Jonsson & Kagstrom, SIAM Rev. 46,
    2004): with ``L = [[A, 0], [C, D]]``, ``L^-1 = [[A^-1, 0], [-(D^-1 C)
    A^-1, D^-1]]``, so above ``_TRI_LEAF`` the work is two matrix products
    per level.  Multiplied in that order, the inverse is a closer left
    inverse, and a solve through it has a smaller backward error than with
    ``D^-1 (C A^-1)``.  A leaf inverts ``L^T``, which is upper triangular:
    the LU inside ``np.linalg.inv`` then never pivots, and each inverse is
    exactly lower triangular.
    """
    n = low.shape[-1]
    if n <= _TRI_LEAF:
        inv = np.swapaxes(np.linalg.inv(np.swapaxes(low, -1, -2)), -1, -2)
        if out is None:
            return inv
        out[...] = inv
        return out
    if out is None:
        out = np.zeros_like(low)
    h = n // 2
    a_inv = _tri_inv(low[..., :h, :h], out[..., :h, :h])
    d_inv = _tri_inv(low[..., h:, h:], out[..., h:, h:])
    lower = out[..., h:, :h]
    np.matmul(d_inv @ low[..., h:, :h], a_inv, out=lower)
    np.negative(lower, out=lower)
    return out




def _chol_room(n: int) -> int:
    """Scratch entries per matrix that ``_chol_inv`` takes at order ``n``."""
    return 0 if n <= _CHOL_LEAF else (n - n // 2) ** 2 + _chol_room(n - n // 2)


def _chol_inv(m: np.ndarray, out: np.ndarray | None = None, failed: dict[int, str] | None = None,
              tmp: np.ndarray | None = None, shift: np.ndarray | None = None) -> np.ndarray:
    """``L^-1`` for the lower Cholesky factor ``L`` of each matrix of a stack
    ``m + shift I``, ``(..., n, n)``, reading only the lower triangles of
    ``m``; written into ``out`` when given, which must not overlap ``m``.

    One recursion at matrix-product speed (Elmroth, Gustavson, Jonsson &
    Kagstrom, SIAM Rev. 46, 2004): with ``m = [[A, .], [B, C]]`` it inverts
    ``A``'s factor into ``I_A``, sets ``L21 = B I_A^H`` and ``S = C - L21
    L21^H``, inverts ``S``'s factor into ``I_S``, and the lower-left block
    of the inverse is ``-(I_S L21) I_A``.  Leaves of order at most
    ``_CHOL_LEAF`` are factored by ``cho_factor`` and inverted by
    ``_tri_inv``, so each result is exactly lower triangular.

    ``m`` is never written.  A leaf that is not positive definite raises
    ``np.linalg.LinAlgError``, or with ``failed`` is entered there per point
    (``_guarded``).  ``tmp`` is a flat array of ``m``'s dtype with
    ``_chol_room(n)`` entries per matrix, and ``shift``, one value per
    matrix, broadcasts against the stack's leading axes ``(...)``.
    """
    n = m.shape[-1]
    if out is None:
        out = np.empty_like(m)
    if n <= _CHOL_LEAF:
        a = m if shift is None else _add_diag(m, shift[..., None])
        out[...] = _tri_inv(cho_factor(a) if failed is None else _guarded(cho_factor, a, failed))
        return out
    if tmp is None:
        tmp = np.empty(m[..., 0, 0].size * _chol_room(n), dtype=m.dtype)
    h = n // 2
    i_a = _chol_inv(m[..., :h, :h], out[..., :h, :h], failed, tmp, shift)
    if failed is not None and len(failed) == len(m):
        return out    # every point has failed: nothing of out is kept
    l21, c = out[..., h:, :h], m[..., h:, h:]
    np.matmul(m[..., h:, :h], np.swapaxes(i_a.conj(), -1, -2), out=l21)
    s = tmp[:c.size].reshape(c.shape)
    # a syrk for real l21, whose conj() is itself
    np.matmul(l21, np.swapaxes(l21.conj(), -1, -2), out=s)
    np.subtract(c, s, out=s)
    if shift is not None:
        idx = np.arange(n - h)
        s[..., idx, idx] += shift[..., None]
    i_s = _chol_inv(s, out[..., h:, h:], failed, tmp[s.size:])
    t = tmp[:l21.size].reshape(l21.shape)
    np.matmul(i_s, l21, out=t)
    np.matmul(t, i_a, out=l21)
    np.negative(l21, out=l21)
    out[..., :h, h:] = 0.0
    return out


@dataclass
class _ArrowFactor:
    """Cholesky factors of each point's block-arrowhead matrix, diagonal blocks
    first, kept as inverses in the layout of the Schur storage.

    ``L = [[L_1, ..., 0], ..., [C_1^T, ..., L_B]]`` with ``L_c`` the factor of
    diagonal block ``c``, ``C_c = L_c^-1 M[block c, border]`` and ``L_B`` the
    factor of the border system ``M[border, border] - sum_c C_c^T C_c``.
    ``data`` holds ``L_c^-1`` where the storage holds ``M_c``, the ``C_c``
    where it holds the couplings and ``L_B^-1`` where it holds the border
    block (``_ArrowLayout.runs_of``), so that every solve with ``L`` is a
    few matrix-vector products.
    """

    layout: _ArrowLayout
    data: np.ndarray             # (B, layout.size)
    shift: np.ndarray            # (B,) identity shift each factorization needed

    def put(self, rows: np.ndarray, other: _ArrowFactor) -> None:
        """Take the factors of ``other``'s points for the points ``rows``."""
        self.data[rows] = other.data
        self.shift[rows] = other.shift


def _factor_arrow(schur: np.ndarray, lay: _ArrowLayout, failed: dict[int, str],
                  work: dict | None = None):
    """Block-arrowhead Cholesky of each point's storage ``schur``.

    The batch is factored at shift 0.  The points whose factor fails there
    climb the shift ladder together, each rung factoring ``M + shift * I``
    of each of them, with the diagonal blocks and the border shifted alike;
    the other points keep their factors.  A point that fails on every rung
    is entered in ``failed``, and if every point does, no factor is
    returned.

    The factor and the recursions' scratch live in the buffers ``"k"`` and
    ``"terms"`` of ``work``, which the Schur assembly is done with (a fresh
    dict when none is given); so do those of every rung while no point has
    a factor, and a sub-batch that climbs beside factored points gets
    buffers of its own.
    """
    work = {} if work is None else work
    factor, rows = None, np.arange(len(schur))
    scale = np.maximum(lay.trace(schur) / max(lay.order.size, 1), 1.0)
    for rung in _SHIFT_LADDER:
        # uncopied while no point has a factor, as on rung 0 or for one point
        climbed, still = _factor_shifted(schur if factor is None else schur[rows], lay,
                                         rung * scale[rows], work if factor is None else {})
        if factor is None:
            factor = climbed
        elif climbed is not None:
            factor.put(rows, climbed)
        rows = rows[still]
        if not rows.size:
            break
    failed.update(dict.fromkeys(rows.tolist(),
                                "indefinite Newton system: Schur complement not positive definite"))
    return factor


def _factor_shifted(schur: np.ndarray, lay: _ArrowLayout, shift: np.ndarray, work: dict):
    """The arrowhead factors of ``M + shift * I`` for each point, in the
    buffers of ``work``, or None as soon as every point has failed, and the
    points whose Cholesky failed.

    Each run of diagonal blocks is one ``_chol_inv`` stack, and its
    couplings one product with it; the border system is then formed with
    one product over all couplings, a ``syrk`` as both operands are the
    same array.
    """
    n, failed, shifted = len(schur), {}, np.any(shift)
    data = _buffer(work, "k", (n, lay.size))
    tmp = _buffer(work, "terms", (n * lay.room,))
    for (diag, coupling), (inv, cq) in zip(lay.runs_of(schur), lay.runs_of(data)):
        _chol_inv(diag, inv, failed, tmp, shift[:, None] if shifted else None)
        if len(failed) == n:
            return None, np.arange(n)
        np.matmul(inv, coupling, out=cq)
    cq = lay.couplings(data)
    border = tmp[:n * lay.mb * lay.mb].reshape(n, lay.mb, lay.mb)
    np.matmul(np.swapaxes(cq, -1, -2), cq, out=border)
    np.subtract(lay.border_block(schur), border, out=border)
    _chol_inv(border, lay.border_block(data), failed, tmp[border.size:],
              shift if shifted else None)
    if len(failed) == n:
        return None, np.arange(n)
    return _ArrowFactor(lay, data, shift), np.array(sorted(failed), dtype=np.intp)


def cho_solve(factor: _ArrowFactor, b: np.ndarray) -> np.ndarray:
    """Solve ``(M + shift I) x = b`` for each point's row of ``b``: forward and
    back substitution with ``L``.

    With the triangular inverses held by ``factor``, both substitutions are
    matrix-vector products: one per run of diagonal blocks each way, and
    one over all couplings each way.
    """
    lay, n = factor.layout, len(b)
    runs = lay.runs_of(factor.data)
    cq, lb_inv = lay.couplings(factor.data), lay.border_block(factor.data)
    # b in layout order, the block variables run by run, then the border
    z = b[:, lay.order, None]
    y, border = z[:, :lay.mq], z[:, lay.mq:]
    for (inv, _), (s, k, _, row) in zip(runs, lay.runs):
        at = slice(row, row + k * s)
        y[:, at] = (inv @ y[:, at].reshape(n, k, s, 1)).reshape(n, -1, 1)
    border -= np.swapaxes(cq, -1, -2) @ y
    border[...] = np.swapaxes(lb_inv, -1, -2) @ (lb_inv @ border)
    y -= cq @ border
    for (inv, _), (s, k, _, row) in zip(runs, lay.runs):
        at = slice(row, row + k * s)
        y[:, at] = (np.swapaxes(inv, -1, -2) @ y[:, at].reshape(n, k, s, 1)).reshape(n, -1, 1)
    x = np.empty_like(b)
    x[:, lay.order] = z[..., 0]
    return x
