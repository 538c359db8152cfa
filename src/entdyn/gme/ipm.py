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

Blocks of equal shape are stacked into groups (``StackedBlocks``), and
every step of an iteration is batched over the groups, with no loop over
the blocks.  With ``P_b`` selecting block ``b``'s variables, the Schur
complement ``sum_b P_b^T G_b P_b``, the dual residual ``c - A*(Z)`` and the
corrector right-hand side are each one ``np.bincount`` per point over index
arrays built once per problem structure; ``bincount`` adds every
contribution to a variable or Schur entry that several blocks share, where
a fancy-index ``+=`` would keep only one.  Blocks with the same variable
set, such as the two bounds of ``0 <= X <= I``, add their Gram matrices
``G_b`` before the scatter, which halves its indices and work.  The stages
that see only the iterates and not the basis matrices (the NT scaling, the
step lengths and the dual update) run once per size class, a stack of
every block of one size and dtype whatever its variable count; the primal
and dual step lengths of a class share one ``eigvalsh`` call.  Only the
stages that read the basis (slack, Gram, directions, adjoint) run per
group.

The Schur complement is factored as a block arrowhead matrix.  A
``SchurPartition`` splits the variables into diagonal blocks that never
share an SDP block with each other and a border that may couple to all of
them; with the border ordered last, ``M`` has diagonal blocks ``M_c``,
border couplings ``B_c = M[border, block c]`` and border block ``A``.  Only
these are stored (``_ArrowLayout``): the Gram entries are scattered
straight into them, and no dense ``m x m`` matrix is formed.  Each
``M_c = L_c L_c^T`` is factored first, then the border system
``A - sum_c C_c^T C_c`` with ``C_c = L_c^-1 B_c^T``; in exact arithmetic this
is the Cholesky factor of ``M`` with the border last (the block-angular
reduction of Gondzio & Grothey, Comput. Manag. Sci. 6, 2009).  Without a
partition the border is empty and all variables form one block.  Each
block is factored as one stack over the batch, at shift 0.  If that fails
at round-off, each point of the batch climbs its own ladder of growing
multiples of the identity added to its ``M``.  Each triangular factor is
inverted once per factorization, so the two solves of an iteration are
matrix-vector products.

A batch of one computes exactly what a solver for one problem would: each
inner product is one dot product per point, and the border update
subtracts the blocks' terms one at a time.  A larger batch can differ
from it at round-off, because numpy's stacked kernels differ from its
single-matrix ones (``C^T C`` is a ``syrk`` for one matrix, a ``gemm`` in
a stack).

Callers supply strictly feasible starting points, so the dual equality
residual stays at round-off level; it is still folded into the right-hand side each iteration
to keep it from drifting.

Every inner product of Hermitian matrices, ``<X, Y> = Re tr(XY) =
sum Re X * Re Y + Im X * Im Y``, is a real dot product of the float64 views
of the complex arrays, so the Schur complement, the residuals and the
directions never compute an imaginary part only to drop it (as in SDPT3,
Toh, Todd & Tutuncu, Optim. Methods Softw. 11, 1999).

Blocks may be complex Hermitian or real symmetric.  Each group runs in its
blocks' own dtype, with no cast to complex: for real blocks every Cholesky
factor, eigendecomposition, Gram product and step is real arithmetic, and
the float64 view of a real array is the array itself.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

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
# Cumulative identity shifts, in units of max(trace(M)/m, 1), tried in turn
# when the Schur complement is not numerically positive definite.
_SHIFT_LADDER = np.cumsum([0.0, 1e-12, 1e-11, 1e-10])


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
    """One semidefinite block: S_b(x) = sum_k x[var_idx[k]] * a[k] - a0."""

    a0: np.ndarray        # (d, d)
    a: np.ndarray         # (m_b, d, d), Hermitian or real symmetric basis matrices
    var_idx: np.ndarray   # (m_b,) indices into the global variable vector


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
            if np.unique(owner[blk.var_idx][owner[blk.var_idx] >= 0]).size > 1:
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


class _Group:
    """Blocks of identical shape stacked, in their common dtype, for batched linear algebra.

    Blocks that share their whole variable set, such as the two bounds of
    ``0 <= X <= I``, share one Schur scatter: when each variable set of the
    group belongs to the same number ``k`` of blocks, the blocks are stacked
    in ``k`` layers, the ``j``-th block of every set in layer ``j``, and
    ``sets`` holds the variables of layer 0.  Otherwise ``k`` is 1.
    ``_group_blocks`` places the group's blocks at rows ``span`` of the
    stack of size class ``cls``.
    """

    cls: int
    span: slice

    def __init__(self, block_ids: list[int], blocks: Sequence[SdpBlock]):
        idx = np.stack([blocks[b].var_idx for b in block_ids]).astype(np.intp)
        _, inverse, counts = np.unique(idx, axis=0, return_inverse=True, return_counts=True)
        self.k = int(counts[0]) if np.all(counts == counts[0]) else 1
        order = np.argsort(inverse.ravel(), kind="stable").reshape(-1, self.k).T.ravel()
        self.block_ids = [block_ids[i] for i in order]
        self.idx = idx[order]
        self.dtype = np.result_type(
            np.float64, *(m for b in block_ids for m in (blocks[b].a0, blocks[b].a))
        )
        self.a0 = np.stack([blocks[b].a0 for b in self.block_ids], dtype=self.dtype)
        self.a = np.stack([blocks[b].a for b in self.block_ids], dtype=self.dtype)
        self.nb, self.m_b, self.d, _ = self.a.shape
        self.sets = self.idx[: self.nb // self.k]
        # (nb, m_b, d^2) float64 view, or (nb, m_b, 2 d^2) with Re and Im of
        # A_k interleaved for complex blocks
        self.a_real = self.a.reshape(self.nb, self.m_b, -1).view(np.float64)


class _ArrowLayout:
    """Where each point keeps the stored parts of its arrowhead Schur complement.

    ``order`` lists the variables of the partition's diagonal blocks, in
    its order, then the border's.  A point's storage is one flat array
    holding, in turn:

    - each diagonal block ``M_c``, ``(s_c, s_c)``;
    - the couplings ``M[block c, border]`` of all blocks, as one
      ``(m_q, m_border)`` matrix whose rows follow ``order``;
    - the border block ``(m_border, m_border)``;
    - one slot that takes every entry ``M[border, block c]``, the transpose
      of a stored coupling, and is never read.
    """

    def __init__(self, part: SchurPartition):
        self.partition = part
        self.order = np.concatenate([*part.blocks, part.border]).astype(np.intp)
        self.mq = self.order.size - part.border.size
        self.mb = part.border.size
        sizes = np.array([len(q) for q in part.blocks], dtype=np.intp)
        self._diag_at = np.cumsum(sizes * sizes) - sizes * sizes
        self._rows = np.cumsum(sizes) - sizes
        diag_end = int(np.sum(sizes * sizes))
        self.coupling = slice(diag_end, diag_end + self.mq * self.mb)
        self.border = slice(self.coupling.stop, self.coupling.stop + self.mb * self.mb)
        self.size = self.border.stop + 1
        # per variable: its row in ``order``, and for a block variable its
        # block's first row in ``order``, place in the storage and size
        m = self.order.size
        self._rank = np.empty(m, dtype=np.intp)
        self._rank[self.order] = np.arange(m)
        self._first = np.zeros(m, dtype=np.intp)
        self._at = np.zeros(m, dtype=np.intp)
        self._size = np.zeros(m, dtype=np.intp)
        for q, first, at, size in zip(part.blocks, self._rows, self._diag_at, sizes):
            self._first[q], self._at[q], self._size[q] = first, at, size

    def index(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Storage position of Schur entry ``(i, j)``, for arrays of variable pairs.

        No pair may join two different diagonal blocks.
        """
        ri, rj = self._rank[i], self._rank[j]
        in_i, in_j = ri < self.mq, rj < self.mq
        mb = self.mb
        return np.select(
            [in_i & in_j, in_i, in_j],
            [self._at[i] + (ri - self._first[i]) * self._size[i] + rj - self._first[j],
             self.coupling.start + ri * mb + rj - self.mq,
             self.size - 1],
            self.border.start + (ri - self.mq) * mb + rj - self.mq,
        )

    def blocks(self, schur: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each diagonal block's ``(B, s, s)`` and coupling's ``(B, s, m_border)``
        view of the batch's storage."""
        n = len(schur)
        couplings = schur[:, self.coupling].reshape(n, self.mq, self.mb)
        return [(schur[:, at:at + len(q) ** 2].reshape(n, len(q), len(q)),
                 couplings[:, row:row + len(q)])
                for q, at, row in zip(self.partition.blocks, self._diag_at, self._rows)]

    def border_block(self, schur: np.ndarray) -> np.ndarray:
        return schur[:, self.border].reshape(len(schur), self.mb, self.mb)

    @cached_property
    def _diagonal(self) -> np.ndarray:
        """Storage positions of ``M[i, i]``, in variable order."""
        m = self.order.size
        return self.index(np.arange(m), np.arange(m))

    def trace(self, schur: np.ndarray) -> np.ndarray:
        """``trace(M)`` of each point, summed in variable order."""
        return schur[:, self._diagonal].sum(axis=1)


class StackedBlocks:
    """The blocks of one SDP stacked by shape, with its Schur partition and scatter indices.

    Build it once per problem structure and pass it to ``solve_block_sdp``
    in place of the block list, so that the stacks and the index arrays are
    made once.  The partition is checked here; the stacks and the index
    arrays are made on the first solve, so a caller that only reads a
    problem's structure does not pay for them, and making the stacks drops
    the block list, so the basis matrices are then held once.  ``len`` is
    the number of blocks.

    Raises ``ValueError`` if ``partition`` does not fit the blocks (see
    ``SchurPartition.check``); without one all variables form one block.
    """

    def __init__(
        self, blocks: Sequence[SdpBlock], num_vars: int, partition: SchurPartition | None = None
    ):
        if partition is None:
            partition = SchurPartition(border=np.zeros(0, dtype=int), blocks=(np.arange(num_vars),))
        partition.check(num_vars, blocks)
        self.num_vars = num_vars
        self.partition = partition
        self._blocks = list(blocks)
        self._count = len(self._blocks)

    def __len__(self) -> int:
        return self._count

    @cached_property
    def groups(self) -> list[_Group]:
        groups = _group_blocks(self._blocks)
        del self._blocks
        return groups

    @cached_property
    def classes(self) -> list[tuple[int, int, np.dtype]]:
        """Block count, block size and dtype of each size class (see ``_group_blocks``)."""
        shapes: dict[int, tuple[int, int, np.dtype]] = {}
        for g in self.groups:
            shapes[g.cls] = (g.span.stop, g.d, g.dtype)
        return [shapes[k] for k in range(len(shapes))]

    @cached_property
    def var_idx(self) -> np.ndarray:
        """The variable of every basis matrix of every block, group by group."""
        return np.concatenate([g.idx.ravel() for g in self.groups])

    @cached_property
    def arrow(self) -> _ArrowLayout:
        return _ArrowLayout(self.partition)

    @cached_property
    def schur_idx(self) -> np.ndarray:
        """The storage position (see ``_ArrowLayout``) of every entry ``(i, j)``
        of every variable set's Gram matrix, group by group."""
        out = np.empty(sum(g.sets.size * g.m_b for g in self.groups), dtype=np.intp)
        for g, view in zip(self.groups, self._per_group(out[None])):
            view[0] = self.arrow.index(g.sets[:, :, None], g.sets[:, None, :])
        return out

    def adjoint(self, bases: list[np.ndarray], ys: list[np.ndarray]) -> np.ndarray:
        """``sum_b P_b^T <B_bk, Y_b>_k`` of each point: each block's inner
        products, scattered onto the variables.

        ``bases`` and ``ys`` hold one stack per group, the bases as float64
        views like ``_Group.a_real`` (shared by the batch) or with a leading
        batch axis, and ``ys`` as ``(B, nb, d, d)``.  ``np.bincount`` adds
        every contribution, also those of blocks that share a variable.
        """
        vals = np.concatenate([_inner_each(b, y) for b, y in zip(bases, ys)], axis=1)
        return _scatter(self.var_idx, vals, self.num_vars)

    def schur(self, bases: list[np.ndarray]) -> np.ndarray:
        """Each point's arrowhead storage of ``M = sum_b P_b^T G_b P_b``, ``(B, arrow.size)``.

        ``bases`` holds one ``(B, nb, m_b, L)`` float64 view of a scaled
        basis per group.  The Gram matrices ``G_b = B_b B_b^T`` of a group's
        layers are added per variable set first, then ``np.bincount`` adds
        the sets' into the storage.
        """
        gram = np.empty((len(bases[0]), self.schur_idx.size))
        for g, b, out in zip(self.groups, bases, self._per_group(gram)):
            layers = b.reshape(len(b), g.k, -1, *b.shape[2:])
            np.matmul(layers[:, 0], np.swapaxes(layers[:, 0], -1, -2), out=out)
            for j in range(1, g.k):
                out += layers[:, j] @ np.swapaxes(layers[:, j], -1, -2)
        return _scatter(self.schur_idx, gram, self.arrow.size)

    def _per_group(self, flat: np.ndarray) -> list[np.ndarray]:
        """``flat``, ``(B, Gram entries)``, as one ``(B, sets, m_b, m_b)`` view per group."""
        sizes = [g.sets.size * g.m_b for g in self.groups]
        return [flat[:, end - size:end].reshape(len(flat), -1, g.m_b, g.m_b)
                for g, size, end in zip(self.groups, sizes, np.cumsum(sizes))]


def _scatter(idx: np.ndarray, vals: np.ndarray, size: int) -> np.ndarray:
    """``np.bincount(idx, row, minlength=size)`` of each row of ``vals``, one row per point.

    One call per point keeps the index array at one copy; an index offset
    per point would make ``B`` of them.
    """
    out = np.empty((len(vals), size))
    for row, target in zip(vals, out):
        target[...] = np.bincount(idx, row, minlength=size)
    return out


def _combine(coef: np.ndarray, basis_real: np.ndarray, d: int, dtype: np.dtype) -> np.ndarray:
    """``sum_k coef[p, n, k] B[n, k]`` for each point ``p`` and block ``n``, from the float64
    view of ``B``, shared by the points or one per point."""
    out = (coef[..., None, :] @ basis_real).view(dtype)
    return out.reshape(*coef.shape[:2], d, d)


def _inner_each(basis_real: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``<B[n, k], Y[p, n]>`` for every point ``p``, block ``n`` and ``k``, flattened
    per point; the adjoint of ``_combine``."""
    yr = y.reshape(*y.shape[:2], -1).view(np.float64)
    return (basis_real @ yr[..., None]).reshape(y.shape[0], -1)


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


def _group_blocks(blocks: Sequence[SdpBlock]) -> list[_Group]:
    """Blocks grouped by shape, each group placed in the stack of its size class.

    A size class holds every group of one block size and dtype, whatever
    its variable count: group ``g`` fills rows ``g.span`` of class
    ``g.cls``, so the stages that see only matrices run once per class.
    """
    by_shape: dict[tuple[int, int], list[int]] = {}
    for bi, blk in enumerate(blocks):
        by_shape.setdefault((blk.a0.shape[0], blk.a.shape[0]), []).append(bi)
    groups = [_Group(ids, blocks) for ids in by_shape.values()]
    classes: dict[tuple[int, np.dtype], int] = {}
    filled: list[int] = []
    for g in groups:
        g.cls = classes.setdefault((g.d, g.dtype), len(classes))
        if g.cls == len(filled):
            filled.append(0)
        g.span = slice(filled[g.cls], filled[g.cls] + g.nb)
        filled[g.cls] += g.nb
    return groups


def _max_steps(v: np.ndarray, d_s: np.ndarray, d_z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest steps a, b with diag(v) + a*d_s and diag(v) + b*d_z staying PSD (may be inf).

    ``v`` is ``(..., n, d)`` and the directions ``(..., n, d, d)``; the
    steps are over the ``n`` blocks, for each leading index.  Both
    directions of one size class share one ``eigvalsh`` call.
    """
    w = 1.0 / np.sqrt(np.concatenate([v, v], axis=-2))
    scaled = np.concatenate([d_s, d_z], axis=-3) * w[..., :, None] * w[..., None, :]
    lows = np.linalg.eigvalsh(scaled).reshape(*v.shape[:-2], 2, -1).min(axis=-1)
    steps = np.full(lows.shape, np.inf)
    neg = lows < -1e-14
    steps[neg] = 1.0 / -lows[neg]
    return steps[..., 0], steps[..., 1]


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
    z0: list[np.ndarray],
    tolerance: float = 1e-7,
    max_iterations: int = 200,
) -> SdpResult:
    """Run the interior-point iteration from a strictly feasible pair.

    ``blocks`` is a ``StackedBlocks``, which carries the Schur partition;
    a plain list of ``SdpBlock`` is stacked for this solve, with all
    variables in one dense Schur block.  ``z0`` holds one dual block per
    SDP block, in the order the blocks were given; a real block needs a
    real one.  This is ``solve_block_sdp_batch`` on a batch of one.

    Raises
    ------
    SdpNumericalError
        If a cone factorization fails, or the Schur complement is not
        positive definite even after the largest identity shift.
    SdpNonConvergenceError
        If the iteration cap is reached or the step length collapses.

    Both carry the best dual bound and the iteration count (``SdpError``).
    """
    (out,) = solve_block_sdp_batch(blocks, np.asarray(c)[None], np.asarray(x0)[None], [z0],
                                   tolerance, max_iterations)
    if isinstance(out, SdpError):
        raise out
    return out


def solve_block_sdp_batch(
    blocks: StackedBlocks | Sequence[SdpBlock],
    c: np.ndarray,
    x0: np.ndarray,
    z0: Sequence[list[np.ndarray]],
    tolerance: float = 1e-7,
    max_iterations: int = 200,
) -> list[SdpResult | SdpError]:
    """Run the interior-point iteration on a batch of problems that share their blocks.

    ``c`` and ``x0`` are ``(B, m)``, one row per point, and ``z0`` holds each
    point's dual blocks as ``solve_block_sdp`` takes them.  Returns, in
    input order, each point's ``SdpResult``, or the ``SdpNumericalError`` or
    ``SdpNonConvergenceError`` that ``solve_block_sdp`` would raise for it.
    """
    c = np.asarray(c, dtype=float)
    m = c.shape[1]
    stack = blocks if isinstance(blocks, StackedBlocks) else StackedBlocks(blocks, m)
    groups = stack.groups
    classes = stack.classes
    dim_total = sum(g.nb * g.d for g in groups)

    def per_group(stacks: list[np.ndarray]) -> list[np.ndarray]:
        """Each group's rows of its class stack, in group order."""
        return [stacks[g.cls][:, g.span] for g in groups]

    def by_class(arrays: list[np.ndarray]) -> list[np.ndarray]:
        """One ``(B, nb, d, d)`` array per group, in group order, gathered into the class stacks."""
        out = [np.empty((len(arrays[0]), n, d, d), dtype) for n, d, dtype in classes]
        for a, o in zip(arrays, per_group(out)):
            o[...] = a
        return out

    def combine(coef: np.ndarray, bases: list[np.ndarray]) -> list[np.ndarray]:
        """``sum_k coef_k B_k`` of every block of each point, from each group's float64
        view of ``B``."""
        return by_class([_combine(coef[:, g.idx], b, g.d, g.dtype) for g, b in zip(groups, bases)])

    a_real = [g.a_real for g in groups]
    a0 = [a[0] for a in by_class([g.a0[None] for g in groups])]
    z = by_class([np.array([[zp[b] for b in g.block_ids] for zp in z0]) for g in groups])
    batch = _Batch(c, np.array(x0, dtype=float), z)
    results: list[SdpResult | SdpError | None] = [None] * len(c)

    def fail(rows, error: type[SdpError], messages, it: int) -> None:
        for row, message in zip(rows, messages):
            results[batch.point[row]] = error(message, batch.bound(row), it)

    feas_tol = max(tolerance, 1e-9)
    it = 0
    while len(batch):
        x, z = batch.x, batch.z
        s = [sc - a for sc, a in zip(combine(x, a_real), a0)]

        z_g = per_group(z)
        gap = sum(_inner(sg, zg) for sg, zg in zip(per_group(s), z_g))
        pobj = (batch.c[:, None, :] @ x[:, :, None])[:, 0, 0]
        dobj = sum(_inner(zg, g.a0[None]) for g, zg in zip(groups, z_g))
        r = batch.c - stack.adjoint(a_real, z_g)
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
        scaling, failed = _per_point(_nt_scaling, s, z)
        if failed:
            fail(failed, SdpNumericalError,
                 [f"cone factorization failed: {exc}" for exc in failed.values()], it)
            batch.keep(np.setdiff1d(np.arange(len(batch)), list(failed)))
            continue
        v_all, jinv_all = scaling

        scaled_a = []
        for g, jinv in zip(groups, per_group(jinv_all)):
            at = _congruence(jinv[:, :, None], g.a)
            scaled_a.append(at.reshape(*at.shape[:3], -1).view(np.float64))
        factor, failed = _per_point(_factor_arrow, stack.schur(scaled_a), stack.arrow)
        if failed:
            fail(failed, SdpNumericalError, [str(exc) for exc in failed.values()], it)
            batch.keep(np.setdiff1d(np.arange(len(batch)), list(failed)))
            continue
        mu = gap / dim_total

        # Predictor (affine) direction; with feasibility maintained the
        # right-hand side reduces to -c exactly.
        dx_aff = cho_solve(factor, -batch.c)
        ds_aff = combine(dx_aff, scaled_a)
        dz_aff = [-_add_diag(d_s, v) for d_s, v in zip(ds_aff, v_all)]

        alpha_aff, beta_aff = _step_lengths(v_all, ds_aff, dz_aff, 1.0)
        s_aff = [_add_diag(alpha_aff[:, None, None, None] * d_s, v)
                 for v, d_s in zip(v_all, ds_aff)]
        z_aff = [_add_diag(beta_aff[:, None, None, None] * d_z, v)
                 for v, d_z in zip(v_all, dz_aff)]
        mu_aff = sum(_inner(a, b) for a, b in zip(per_group(s_aff), per_group(z_aff))) / dim_total
        # scalar powers: numpy's vector pow rounds some cubes differently
        ratio = (np.maximum(mu_aff, 0.0) / mu).tolist()
        sigma = np.clip([q ** 3 for q in ratio], 1e-10, 1.0)

        # Corrector with the Mehrotra second-order term.
        rt_all = []
        for v, d_s, d_z in zip(v_all, ds_aff, dz_aff):
            resid = _add_diag(-(0.5 * (d_s @ d_z + d_z @ d_s)), -v * v)
            resid = _add_diag(resid, (sigma * mu)[:, None, None])
            rt_all.append(2.0 * resid / (v[..., :, None] + v[..., None, :]))

        dx = cho_solve(factor, stack.adjoint(scaled_a, per_group(rt_all)) - r)
        ds = combine(dx, scaled_a)
        dz = [rt - d_s for rt, d_s in zip(rt_all, ds)]

        alpha, beta = _step_lengths(v_all, ds, dz, _STEP_FRACTION)
        batch.stalls = np.where((alpha < _MIN_STEP) & (beta < _MIN_STEP), batch.stalls + 1, 0)

        batch.x = x + alpha[:, None] * dx
        for ci, (jinv, d_z) in enumerate(zip(jinv_all, dz)):
            znew = z[ci] + beta[:, None, None, None] * _congruence(jinv, d_z, adjoint=True)
            z[ci] = 0.5 * (znew + np.swapaxes(znew.conj(), -1, -2))
        # not held while the next iteration builds its own
        del factor, scaled_a
        it += 1

    return results


def _step_lengths(v_all, ds_all, dz_all, fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """Each point's primal and dual step: ``fraction`` of the way to the cone
    boundary, at most 1."""
    steps = [_max_steps(v, d_s, d_z) for v, d_s, d_z in zip(v_all, ds_all, dz_all)]
    alpha = np.minimum.reduce([a for a, _ in steps], initial=np.inf)
    beta = np.minimum.reduce([b for _, b in steps], initial=np.inf)
    return np.minimum(1.0, fraction * alpha), np.minimum(1.0, fraction * beta)


def _per_point(stage, *args):
    """``stage(*args)`` over the batch, or, if it raises, over each point in turn.

    Every array in ``args`` (or in a list there) has the batch on its
    leading axis.  Returns the stage's output, with the points that raised
    left out, and a dict from each such point's row to its ``LinAlgError``
    or ``SdpNumericalError``.
    """
    size = len(args[0][0] if isinstance(args[0], list) else args[0])
    try:
        return stage(*args), {}
    except (np.linalg.LinAlgError, SdpNumericalError) as exc:
        if size == 1:
            return None, {0: exc}

    def rows(a, k):
        if isinstance(a, list):
            return [rows(item, k) for item in a]
        return a[k:k + 1] if isinstance(a, np.ndarray) else a

    outs, failed = [], {}
    for k in range(size):
        try:
            outs.append(stage(*(rows(a, k) for a in args)))
        except (np.linalg.LinAlgError, SdpNumericalError) as exc:
            failed[k] = exc
    return (_concat(outs) if outs else None), failed


def _concat(parts: list):
    """The per-point outputs of a stage joined along the batch axis, field by
    field; an object that every output holds, such as the partition, is kept."""
    first = parts[0]
    if all(p is first for p in parts):
        return first
    if isinstance(first, np.ndarray):
        return np.concatenate(parts)
    if isinstance(first, (list, tuple)):
        return type(first)(_concat(list(items)) for items in zip(*parts))
    return type(first)(**{f.name: _concat([getattr(p, f.name) for p in parts])
                          for f in dataclasses.fields(first)})


def _nt_scaling(s: list[np.ndarray], z: list[np.ndarray]):
    """``v`` and ``J^-1`` of every block of each class stack, as two lists; raises
    LinAlgError if an iterate is not positive definite."""
    v_all, jinv_all = [], []
    for sc, zc in zip(s, z):
        ls = np.linalg.cholesky(sc)
        lam, uk = np.linalg.eigh(np.swapaxes(ls.conj(), -1, -2) @ zc @ ls)
        if np.min(lam) <= 0.0:
            raise np.linalg.LinAlgError("dual iterate lost definiteness")
        lsinv = np.linalg.solve(ls, np.broadcast_to(np.eye(sc.shape[-1]), sc.shape))
        jinv_all.append((np.swapaxes(uk.conj(), -1, -2) @ lsinv) * (lam ** 0.25)[..., None])
        v_all.append(np.sqrt(lam))
    return v_all, jinv_all


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


@dataclass
class _ArrowFactor:
    """Cholesky factors of each point's block-arrowhead matrix, diagonal blocks
    first, kept as inverses.

    ``L = [[L_1, ..., 0], ..., [C_1^T, ..., L_B]]`` with ``L_c`` the factor of
    diagonal block ``c``, ``C_c = L_c^-1 M[block c, border]`` and ``L_B`` the
    factor of the border system ``M[border, border] - sum_c C_c^T C_c``.
    Each triangular factor is inverted once, so that every solve with
    ``L`` is a few matrix-vector products.
    """

    partition: SchurPartition
    block_inv: list[np.ndarray]  # L_c^-1, (B, s_c, s_c)
    coupling: list[np.ndarray]   # C_c, (B, s_c, m_border)
    border_inv: np.ndarray       # L_B^-1, (B, m_border, m_border)
    shift: np.ndarray            # (B,) identity shift each factorization needed


def _factor_arrow(schur: np.ndarray, lay: _ArrowLayout) -> _ArrowFactor:
    """Block-arrowhead Cholesky of each point's storage ``schur``.

    A batch is factored at shift 0 only; ``_per_point`` gives each point of
    a batch that raises its own call.  A single point that fails at shift 0
    climbs the shift ladder, and raises ``SdpNumericalError`` if it fails on
    every rung.  Every rung shifts the diagonal blocks and the border
    together, so each attempt factors ``M + shift * I`` exactly.  The
    triangular inverses come from ``np.linalg.inv``; numpy has no triangular
    solver, and one inverse per factor replaces a general solve per use.
    """
    try:
        return _factor_shifted(schur, lay, np.zeros(len(schur)))
    except np.linalg.LinAlgError:
        if len(schur) > 1:
            raise
    scale = max(float(lay.trace(schur)[0]) / max(lay.order.size, 1), 1.0)
    for shift in _SHIFT_LADDER[1:] * scale:
        try:
            return _factor_shifted(schur, lay, np.array([shift]))
        except np.linalg.LinAlgError:
            continue
    raise SdpNumericalError("indefinite Newton system: Schur complement not positive definite")


def _factor_shifted(schur: np.ndarray, lay: _ArrowLayout, shift: np.ndarray) -> _ArrowFactor:
    """The arrowhead factors of ``M + shift * I`` for each point; raises LinAlgError on failure."""
    block_inv, couplings = [], []
    border = _add_diag(lay.border_block(schur), shift[:, None])
    for diag, coupling in lay.blocks(schur):
        inv = np.linalg.inv(cho_factor(_add_diag(diag, shift[:, None])))
        cq = inv @ coupling
        border -= np.swapaxes(cq, -1, -2) @ cq
        block_inv.append(inv)
        couplings.append(cq)
    return _ArrowFactor(lay.partition, block_inv, couplings, np.linalg.inv(cho_factor(border)),
                        shift)


def cho_solve(factor: _ArrowFactor, b: np.ndarray) -> np.ndarray:
    """Solve ``(M + shift I) x = b`` for each point's row of ``b``: forward and
    back substitution with ``L``.

    With the triangular inverses held by ``factor``, both substitutions are
    matrix-vector products.
    """
    part = factor.partition
    y = [lq_inv @ b[:, q, None] for lq_inv, q in zip(factor.block_inv, part.blocks)]
    r_border = b[:, part.border, None]
    for cq, yq in zip(factor.coupling, y):
        r_border -= np.swapaxes(cq, -1, -2) @ yq
    lb_inv = factor.border_inv
    x_border = np.swapaxes(lb_inv, -1, -2) @ (lb_inv @ r_border)
    x = np.empty_like(b)
    x[:, part.border] = x_border[..., 0]
    for lq_inv, q, cq, yq in zip(factor.block_inv, part.blocks, factor.coupling, y):
        x[:, q] = (np.swapaxes(lq_inv, -1, -2) @ (yq - cq @ x_border))[..., 0]
    return x
