"""Primal-dual interior-point method for small dense block-diagonal SDPs.

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

Blocks of equal shape are stacked into groups (``StackedBlocks``), and
every step of an iteration is batched over the groups, with no loop over
the blocks.  With ``P_b`` selecting block ``b``'s variables, the Schur
complement ``sum_b P_b^T G_b P_b``, the dual residual ``c - A*(Z)`` and the
corrector right-hand side are each one ``np.bincount`` over index arrays
built once per problem structure; ``bincount`` adds every contribution to
a variable or Schur entry that several blocks share, where a fancy-index
``+=`` would keep only one.  Blocks with the same variable set, such as the
two bounds of ``0 <= X <= I``, add their Gram matrices ``G_b`` before the
scatter, which halves its indices and work.  The stages that see only the
iterates and not the basis matrices (the NT scaling, the step lengths and
the dual update) run once per size class, a stack of every block of one
size and dtype whatever its variable count; the primal and dual step
lengths of a class share one ``eigvalsh`` call.  Only the stages that read
the basis (slack, Gram, directions, adjoint) run per group.

The Schur complement is factored as a block arrowhead matrix.  A
``SchurPartition`` splits the variables into diagonal blocks that never
share an SDP block with each other and a border that may couple to all of
them; with the border ordered last, ``M`` has diagonal blocks ``M_c``,
border couplings ``B_c = M[border, block c]`` and border block ``A``.  Each
``M_c = L_c L_c^T`` is factored first, then the border system
``A - sum_c C_c^T C_c`` with ``C_c = L_c^-1 B_c^T``; in exact arithmetic this
is the Cholesky factor of ``M`` with the border last (the block-angular
reduction of Gondzio & Grothey, Comput. Manag. Sci. 6, 2009).  Without a
partition the border is empty and all variables form one block.  If a
factor fails at round-off, the whole factorization is retried with growing
multiples of the identity added to ``M``.  Each triangular factor is
inverted once per factorization, so the two solves of an iteration are
matrix-vector products.

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


class StackedBlocks:
    """The blocks of one SDP stacked by shape, with its Schur partition and scatter indices.

    Build it once per problem structure and pass it to ``solve_block_sdp``
    in place of the block list, so that the stacks and the index arrays are
    made once.  The partition is checked here; the stacks are made on the
    first solve, so a caller that only reads a problem's structure does not
    pay for them, and making them drops the block list, so the basis
    matrices are then held once.  ``len`` is the number of blocks.

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
    def schur_idx(self) -> np.ndarray:
        """The flat position ``i * m + j`` in the Schur complement of every entry
        ``(i, j)`` of every variable set's Gram matrix, group by group."""
        m = self.num_vars
        out = np.empty(sum(g.sets.size * g.m_b for g in self.groups), dtype=np.intp)
        for g, view in zip(self.groups, self._per_group(out)):
            np.add(g.sets[:, :, None] * m, g.sets[:, None, :], out=view)
        return out

    def adjoint(self, bases: list[np.ndarray], ys: list[np.ndarray]) -> np.ndarray:
        """``sum_b P_b^T <B_bk, Y_b>_k``: each block's inner products, scattered onto the variables.

        ``bases`` and ``ys`` hold one stack per group, the bases as float64
        views like ``_Group.a_real``.  ``np.bincount`` adds every
        contribution, also those of blocks that share a variable.
        """
        vals = np.concatenate([_inner_each(b, y).ravel() for b, y in zip(bases, ys)])
        return np.bincount(self.var_idx, vals, minlength=self.num_vars)

    def schur(self, bases: list[np.ndarray]) -> np.ndarray:
        """``M = sum_b P_b^T G_b P_b`` with ``G_b = B_b B_b^T`` from each group's float64 view.

        The Gram matrices of a group's layers are added per variable set
        first, then ``np.bincount`` adds the sets' into ``M``.
        """
        m = self.num_vars
        gram = np.empty(self.schur_idx.size)
        for g, b, out in zip(self.groups, bases, self._per_group(gram)):
            layers = b.reshape(g.k, -1, *b.shape[1:])
            np.matmul(layers[0], np.swapaxes(layers[0], 1, 2), out=out)
            for layer in layers[1:]:
                out += layer @ np.swapaxes(layer, 1, 2)
        return np.bincount(self.schur_idx, gram, minlength=m * m).reshape(m, m)

    def _per_group(self, flat: np.ndarray) -> list[np.ndarray]:
        """``flat``, with one entry per Gram entry, as one ``(sets, m_b, m_b)`` view per group."""
        sizes = [g.sets.size * g.m_b for g in self.groups]
        return [flat[end - size:end].reshape(-1, g.m_b, g.m_b)
                for g, size, end in zip(self.groups, sizes, np.cumsum(sizes))]


def _combine(coef: np.ndarray, basis_real: np.ndarray, d: int, dtype: np.dtype) -> np.ndarray:
    """``sum_k coef[n, k] B[n, k]`` for each ``n``, from the float64 view of ``B`` in ``dtype``."""
    return (coef[:, None, :] @ basis_real).view(dtype).reshape(-1, d, d)


def _inner_each(basis_real: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``<B[n, k], Y_n>`` for every ``n`` and ``k``; the adjoint of ``_combine``."""
    return (basis_real @ y.reshape(y.shape[0], -1).view(np.float64)[:, :, None])[:, :, 0]


def _inner(x: np.ndarray, y: np.ndarray) -> float:
    """Sum of ``<X_n, Y_n>`` over a stack of Hermitian matrices."""
    return float(x.view(np.float64).ravel() @ y.view(np.float64).ravel())


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


def _max_steps(v: np.ndarray, d_s: np.ndarray, d_z: np.ndarray) -> tuple[float, float]:
    """Largest steps a, b with diag(v) + a*d_s and diag(v) + b*d_z staying PSD (may be inf).

    Both directions of one size class share one ``eigvalsh`` call.
    """
    w = 1.0 / np.sqrt(np.concatenate([v, v]))
    dmat = np.concatenate([d_s, d_z])
    scaled = dmat * w[:, :, None] * w[:, None, :]
    lows = np.linalg.eigvalsh(scaled).reshape(2, -1).min(axis=1)
    return tuple(np.inf if lo >= -1e-14 else 1.0 / (-float(lo)) for lo in lows)


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
    real one.

    Raises
    ------
    SdpNumericalError
        If a cone factorization fails, or the Schur complement is not
        positive definite even after the largest identity shift.
    SdpNonConvergenceError
        If the iteration cap is reached or the step length collapses.

    Both carry the best dual bound and the iteration count (``SdpError``).
    """
    m = c.size
    stack = blocks if isinstance(blocks, StackedBlocks) else StackedBlocks(blocks, m)
    groups = stack.groups
    classes = stack.classes
    dim_total = sum(g.nb * g.d for g in groups)

    def per_group(stacks: list[np.ndarray]) -> list[np.ndarray]:
        """Each group's rows of its class stack, in group order."""
        return [stacks[g.cls][g.span] for g in groups]

    def by_class(arrays: list[np.ndarray]) -> list[np.ndarray]:
        """One array per group, in group order, gathered into the class stacks."""
        out = [np.empty((n, d, d), dtype) for n, d, dtype in classes]
        for a, o in zip(arrays, per_group(out)):
            o[...] = a
        return out

    def combine(coef: np.ndarray, bases: list[np.ndarray]) -> list[np.ndarray]:
        """``sum_k coef_k B_k`` of every block, from each group's float64 view of ``B``."""
        return by_class([_combine(coef[g.idx], b, g.d, g.dtype) for g, b in zip(groups, bases)])

    a_real = [g.a_real for g in groups]
    a0 = by_class([g.a0 for g in groups])
    x = np.array(x0, dtype=float)
    z = by_class([np.stack([z0[b] for b in g.block_ids]) for g in groups])

    feas_tol = max(tolerance, 1e-9)
    best_bound: float | None = None
    stalls = 0

    for it in range(max_iterations + 1):
        s = [sc - a for sc, a in zip(combine(x, a_real), a0)]
        z_g = per_group(z)

        gap = sum(_inner(sg, zg) for sg, zg in zip(per_group(s), z_g))
        pobj = float(c @ x)
        dobj = sum(_inner(g.a0, zg) for g, zg in zip(groups, z_g))
        r = c - stack.adjoint(a_real, z_g)
        rd_inf = float(np.max(np.abs(r))) if m else 0.0

        if rd_inf <= feas_tol and (best_bound is None or dobj > best_bound):
            best_bound = dobj
        # <S, Z> >= 0 for PSD iterates; a negative value is round-off, which
        # must not count as meeting a tolerance set below it
        rel_gap = abs(gap) / (1.0 + abs(pobj) + abs(dobj))
        if rel_gap <= tolerance and rd_inf <= feas_tol:
            return SdpResult(
                x=x,
                primal_objective=pobj,
                dual_objective=dobj,
                gap=gap,
                rel_gap=rel_gap,
                dual_residual=rd_inf,
                iterations=it,
                converged=True,
            )
        if it == max_iterations or stalls >= 6:
            reason = "step length collapsed" if stalls >= 6 else "iteration cap reached"
            raise SdpNonConvergenceError(
                f"{reason} at iteration {it}: gap={gap:.3e}, rel_gap={rel_gap:.3e}, "
                f"dual_residual={rd_inf:.3e}",
                best_bound=best_bound,
                iterations=it,
            )

        # Nesterov-Todd scaling per block: J^-1 S J^-H = J^H Z J = diag(v).
        v_all, jinv_all = [], []
        try:
            for sc, zc in zip(s, z):
                ls = np.linalg.cholesky(sc)
                k = np.swapaxes(ls.conj(), 1, 2) @ zc @ ls
                lam, uk = np.linalg.eigh(k)
                if np.min(lam) <= 0.0:
                    raise np.linalg.LinAlgError("dual iterate lost definiteness")
                lsinv = np.linalg.solve(ls, np.broadcast_to(np.eye(sc.shape[1]), sc.shape))
                jinv_all.append((np.swapaxes(uk.conj(), 1, 2) @ lsinv) * (lam ** 0.25)[:, :, None])
                v_all.append(np.sqrt(lam))
        except np.linalg.LinAlgError as exc:
            raise SdpNumericalError(f"cone factorization failed: {exc}", best_bound, it) from exc
        scaled_a = []
        for g, jinv in zip(groups, per_group(jinv_all)):
            jinvh = np.swapaxes(jinv.conj(), 1, 2)
            at = np.matmul(jinv[:, None], g.a) @ jinvh[:, None]
            scaled_a.append(at.reshape(g.nb, g.m_b, -1).view(np.float64))

        try:
            factor = _factor_arrow(stack.schur(scaled_a), stack.partition)
        except SdpNumericalError as exc:
            exc.best_bound, exc.iterations = best_bound, it
            raise
        mu = gap / dim_total

        # Predictor (affine) direction; with feasibility maintained the
        # right-hand side reduces to -c exactly.
        dx_aff = cho_solve(factor, -c)
        ds_aff = combine(dx_aff, scaled_a)
        dz_aff = [-_add_diag(d_s, v) for d_s, v in zip(ds_aff, v_all)]

        steps = [_max_steps(v, d_s, d_z) for v, d_s, d_z in zip(v_all, ds_aff, dz_aff)]
        alpha_aff = min(1.0, min((a for a, _ in steps), default=np.inf))
        beta_aff = min(1.0, min((b for _, b in steps), default=np.inf))

        s_aff = [_add_diag(alpha_aff * d_s, v) for v, d_s in zip(v_all, ds_aff)]
        z_aff = [_add_diag(beta_aff * d_z, v) for v, d_z in zip(v_all, dz_aff)]
        mu_aff = sum(_inner(a, b) for a, b in zip(per_group(s_aff), per_group(z_aff))) / dim_total
        sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, 1e-10, 1.0))

        # Corrector with the Mehrotra second-order term.
        rt_all = []
        for v, d_s, d_z in zip(v_all, ds_aff, dz_aff):
            cross = 0.5 * (d_s @ d_z + d_z @ d_s)
            resid = -cross
            resid -= v[:, :, None] * v[:, None, :] * np.eye(v.shape[1])[None]
            _add_diag_inplace(resid, sigma * mu)
            rt_all.append(2.0 * resid / (v[:, :, None] + v[:, None, :]))

        dx = cho_solve(factor, stack.adjoint(scaled_a, per_group(rt_all)) - r)
        ds = combine(dx, scaled_a)
        dz = [rt - d_s for rt, d_s in zip(rt_all, ds)]

        steps = [_max_steps(v, d_s, d_z) for v, d_s, d_z in zip(v_all, ds, dz)]
        alpha = min(1.0, _STEP_FRACTION * min((a for a, _ in steps), default=np.inf))
        beta = min(1.0, _STEP_FRACTION * min((b for _, b in steps), default=np.inf))
        if alpha < _MIN_STEP and beta < _MIN_STEP:
            stalls += 1
        else:
            stalls = 0

        x = x + alpha * dx
        for ci, (jinv, d_z) in enumerate(zip(jinv_all, dz)):
            jinvh = np.swapaxes(jinv.conj(), 1, 2)
            delta = jinvh @ d_z @ jinv
            znew = z[ci] + beta * delta
            z[ci] = 0.5 * (znew + np.swapaxes(znew.conj(), 1, 2))

    raise AssertionError("unreachable")


def _add_diag(mat: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = mat.copy()
    idx = np.arange(mat.shape[-1])
    out[:, idx, idx] += v
    return out


def _add_diag_inplace(mat: np.ndarray, scalar: float) -> None:
    idx = np.arange(mat.shape[-1])
    mat[:, idx, idx] += scalar


def cho_factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor ``L`` (``a = L L^T``) of one symmetric matrix.

    Raises ``np.linalg.LinAlgError`` when ``a`` is not numerically positive
    definite.
    """
    return np.linalg.cholesky(a)


@dataclass
class _ArrowFactor:
    """Cholesky factor of a block-arrowhead matrix, diagonal blocks first, kept as inverses.

    ``L = [[L_1, ..., 0], ..., [C_1^T, ..., L_B]]`` with ``L_c`` the factor of
    diagonal block ``c``, ``C_c = L_c^-1 M[block c, border]`` and ``L_B`` the
    factor of the border system ``M[border, border] - sum_c C_c^T C_c``.
    Each triangular factor is inverted once, so that every solve with
    ``L`` is a few matrix-vector products.
    """

    partition: SchurPartition
    block_inv: list[np.ndarray]  # L_c^-1
    coupling: list[np.ndarray]   # C_c
    border_inv: np.ndarray       # L_B^-1
    shift: float                 # identity shift the factorization needed


def _factor_arrow(schur: np.ndarray, part: SchurPartition) -> _ArrowFactor:
    """Block-arrowhead Cholesky of ``schur``, climbing the shift ladder on failure.

    Every rung shifts the diagonal blocks and the border together, so each
    attempt factors ``schur + shift * I`` exactly.  The triangular inverses
    come from ``np.linalg.inv``; numpy has no triangular solver, and one
    inverse per factor replaces a general solve per use.
    """
    m = schur.shape[0]
    scale = max(float(np.trace(schur)) / max(m, 1), 1.0)
    border = schur[np.ix_(part.border, part.border)]
    diag = [schur[np.ix_(q, q)] for q in part.blocks]
    off = [schur[np.ix_(q, part.border)] for q in part.blocks]
    for shift in _SHIFT_LADDER * scale:
        try:
            inverses, couplings = [], []
            s = border + shift * np.eye(part.border.size)
            for mq, bq in zip(diag, off):
                lq_inv = np.linalg.inv(cho_factor(mq + shift * np.eye(mq.shape[0])))
                cq = lq_inv @ bq
                s -= cq.T @ cq
                inverses.append(lq_inv)
                couplings.append(cq)
            border_inv = np.linalg.inv(cho_factor(s))
            return _ArrowFactor(part, inverses, couplings, border_inv, float(shift))
        except np.linalg.LinAlgError:
            continue
    raise SdpNumericalError("indefinite Newton system: Schur complement not positive definite")


def cho_solve(factor: _ArrowFactor, b: np.ndarray) -> np.ndarray:
    """Solve ``(M + shift I) x = b``: forward and back substitution with ``L``.

    With the triangular inverses held by ``factor``, both substitutions are
    matrix-vector products.
    """
    part = factor.partition
    y = [lq_inv @ b[q] for lq_inv, q in zip(factor.block_inv, part.blocks)]
    r_border = b[part.border]
    for cq, yq in zip(factor.coupling, y):
        r_border -= cq.T @ yq
    x = np.empty_like(b)
    x[part.border] = x_border = factor.border_inv.T @ (factor.border_inv @ r_border)
    for lq_inv, q, cq, yq in zip(factor.block_inv, part.blocks, factor.coupling, y):
        x[q] = lq_inv.T @ (yq - cq @ x_border)
    return x
