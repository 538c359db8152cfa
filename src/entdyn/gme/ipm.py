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
multiples of the identity added to ``M``.

Callers supply strictly feasible starting points, so the dual equality
residual stays at round-off level; it is still folded into the right-hand side each iteration
to keep it from drifting.

Every inner product of Hermitian matrices, ``<X, Y> = Re tr(XY) =
sum Re X * Re Y + Im X * Im Y``, is a real dot product of the float64 views
of the complex arrays, so the Schur complement, the residuals and the
directions never compute an imaginary part only to drop it (as in SDPT3,
Toh, Todd & Tutuncu, Optim. Methods Softw. 11, 1999).

Blocks may be complex Hermitian or real symmetric; real blocks are cast to
complex so that both run through the same code.  All operations are
batched over groups of equally shaped blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SchurPartition",
    "SdpBlock",
    "SdpResult",
    "SdpNonConvergenceError",
    "SdpNumericalError",
    "solve_block_sdp",
]

_STEP_FRACTION = 0.98
_MIN_STEP = 1e-10
# Cumulative identity shifts, in units of max(trace(M)/m, 1), tried in turn
# when the Schur complement is not numerically positive definite.
_SHIFT_LADDER = np.cumsum([0.0, 1e-12, 1e-11, 1e-10])


class SdpNumericalError(RuntimeError):
    """Newton system became indefinite or a cone factorization failed."""


class SdpNonConvergenceError(RuntimeError):
    """Iteration cap hit before reaching the requested duality gap."""

    def __init__(self, message: str, best_bound: float | None, iterations: int):
        super().__init__(message)
        self.best_bound = best_bound
        self.iterations = iterations


@dataclass(frozen=True)
class SdpBlock:
    """One semidefinite block: S_b(x) = sum_k x[var_idx[k]] * a[k] - a0."""

    a0: np.ndarray        # (d, d)
    a: np.ndarray         # (m_b, d, d), Hermitian basis matrices
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

    def check(self, m: int, blocks: list[SdpBlock]) -> None:
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
    z_blocks: list[np.ndarray]
    primal_objective: float
    dual_objective: float
    gap: float
    rel_gap: float
    dual_residual: float
    iterations: int
    converged: bool


class _Group:
    """Blocks of identical shape stacked for batched linear algebra."""

    def __init__(self, block_ids: list[int], blocks: list[SdpBlock]):
        self.block_ids = block_ids
        self.a0 = np.stack([blocks[b].a0 for b in block_ids], dtype=complex)
        self.a = np.stack([blocks[b].a for b in block_ids], dtype=complex)
        self.idx = np.stack([blocks[b].var_idx for b in block_ids])
        self.nb, self.m_b, self.d, _ = self.a.shape
        # (nb, m_b, 2 d^2) float64 view: row k holds Re and Im of A_k interleaved
        self.a_real = self.a.reshape(self.nb, self.m_b, -1).view(np.float64)

    def slack(self, x: np.ndarray) -> np.ndarray:
        return _combine(x[self.idx], self.a_real, self.d) - self.a0


def _combine(coef: np.ndarray, basis_real: np.ndarray, d: int) -> np.ndarray:
    """``sum_k coef[n, k] B[n, k]`` for each ``n``, from the float64 view of ``B``."""
    return (coef[:, None, :] @ basis_real).view(complex).reshape(-1, d, d)


def _inner_each(basis_real: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``<B[n, k], Y_n>`` for every ``n`` and ``k``; the adjoint of ``_combine``."""
    return (basis_real @ y.reshape(y.shape[0], -1).view(np.float64)[:, :, None])[:, :, 0]


def _inner(x: np.ndarray, y: np.ndarray) -> float:
    """Sum of ``<X_n, Y_n>`` over a stack of Hermitian matrices."""
    return float(x.view(np.float64).ravel() @ y.view(np.float64).ravel())


def _group_blocks(blocks: list[SdpBlock]) -> list[_Group]:
    by_shape: dict[tuple[int, int], list[int]] = {}
    for bi, blk in enumerate(blocks):
        by_shape.setdefault((blk.a0.shape[0], blk.a.shape[0]), []).append(bi)
    return [_Group(ids, blocks) for ids in by_shape.values()]


def _max_step(v: np.ndarray, dmat: np.ndarray) -> float:
    """Largest step a with diag(v) + a*dmat staying PSD (may be inf)."""
    w = 1.0 / np.sqrt(v)
    scaled = dmat * w[:, :, None] * w[:, None, :]
    lo = float(np.min(np.linalg.eigvalsh(scaled)))
    if lo >= -1e-14:
        return np.inf
    return 1.0 / (-lo)


def solve_block_sdp(
    blocks: list[SdpBlock],
    c: np.ndarray,
    x0: np.ndarray,
    z0: list[np.ndarray],
    tolerance: float = 1e-7,
    max_iterations: int = 200,
    partition: SchurPartition | None = None,
) -> SdpResult:
    """Run the interior-point iteration from a strictly feasible pair.

    ``partition`` tells the Schur factorization which variables never
    couple; without one all variables form a single dense block.

    Raises
    ------
    ValueError
        If ``partition`` does not cover the variables once each, or an SDP
        block couples two of its diagonal blocks.
    SdpNumericalError
        If a cone factorization fails, or the Schur complement is not
        positive definite even after the largest identity shift.
    SdpNonConvergenceError
        If the iteration cap is reached or the step length collapses;
        carries the best dual bound.
    """
    m = c.size
    if partition is None:
        partition = SchurPartition(border=np.zeros(0, dtype=int), blocks=(np.arange(m),))
    partition.check(m, blocks)
    groups = _group_blocks(blocks)
    dim_total = sum(g.nb * g.d for g in groups)

    x = np.array(x0, dtype=float)
    z = [np.stack([z0[b] for b in g.block_ids], dtype=complex) for g in groups]

    feas_tol = max(tolerance, 1e-9)
    best_bound: float | None = None
    stalls = 0

    for it in range(max_iterations + 1):
        s = [g.slack(x) for g in groups]

        gap = sum(_inner(sg, zg) for sg, zg in zip(s, z))
        pobj = float(c @ x)
        dobj = sum(_inner(g.a0, zg) for g, zg in zip(groups, z))
        r = c.copy()
        for g, zg in zip(groups, z):
            prods = _inner_each(g.a_real, zg)
            for n_local in range(g.nb):
                r[g.idx[n_local]] -= prods[n_local]
        rd_inf = float(np.max(np.abs(r))) if m else 0.0

        if rd_inf <= feas_tol and (best_bound is None or dobj > best_bound):
            best_bound = dobj
        # <S, Z> >= 0 for PSD iterates; a negative value is round-off, which
        # must not count as meeting a tolerance set below it
        rel_gap = abs(gap) / (1.0 + abs(pobj) + abs(dobj))
        if rel_gap <= tolerance and rd_inf <= feas_tol:
            return SdpResult(
                x=x,
                z_blocks=_ungroup(groups, z, len(blocks)),
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
        scaled_a, v_all, jinv_all = [], [], []
        try:
            for g, sg, zg in zip(groups, s, z):
                ls = np.linalg.cholesky(sg)
                k = np.swapaxes(ls.conj(), 1, 2) @ zg @ ls
                lam, uk = np.linalg.eigh(k)
                if np.min(lam) <= 0.0:
                    raise np.linalg.LinAlgError("dual iterate lost definiteness")
                lsinv = np.linalg.solve(ls, np.broadcast_to(np.eye(g.d), sg.shape))
                jinv = (np.swapaxes(uk.conj(), 1, 2) @ lsinv) * (lam ** 0.25)[:, :, None]
                jinvh = np.swapaxes(jinv.conj(), 1, 2)
                at = np.matmul(jinv[:, None], g.a) @ jinvh[:, None]
                scaled_a.append(at.reshape(g.nb, g.m_b, -1).view(np.float64))
                v_all.append(np.sqrt(lam))
                jinv_all.append(jinv)
        except np.linalg.LinAlgError as exc:
            raise SdpNumericalError(f"cone factorization failed: {exc}") from exc

        schur = np.zeros((m, m))
        for g, atr in zip(groups, scaled_a):
            gram = atr @ np.swapaxes(atr, 1, 2)
            for n_local in range(g.nb):
                ii = g.idx[n_local]
                schur[np.ix_(ii, ii)] += gram[n_local]

        factor = _factor_arrow(schur, partition)
        mu = gap / dim_total

        # Predictor (affine) direction; with feasibility maintained the
        # right-hand side reduces to -c exactly.
        dx_aff = cho_solve(factor, -c)
        ds_aff = [_combine(dx_aff[g.idx], atr, g.d) for g, atr in zip(groups, scaled_a)]
        dz_aff = [-_add_diag(d_s, v) for d_s, v in zip(ds_aff, v_all)]

        alpha_aff = min((_max_step(v, d_s) for v, d_s in zip(v_all, ds_aff)), default=np.inf)
        beta_aff = min((_max_step(v, d_z) for v, d_z in zip(v_all, dz_aff)), default=np.inf)
        alpha_aff, beta_aff = min(1.0, alpha_aff), min(1.0, beta_aff)

        mu_aff = (
            sum(
                _inner(_add_diag(alpha_aff * d_s, v), _add_diag(beta_aff * d_z, v))
                for v, d_s, d_z in zip(v_all, ds_aff, dz_aff)
            )
            / dim_total
        )
        sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, 1e-10, 1.0))

        # Corrector with the Mehrotra second-order term.
        rhs = -r.astype(float)
        rt_all = []
        for g, atr, v, d_s, d_z in zip(groups, scaled_a, v_all, ds_aff, dz_aff):
            cross = 0.5 * (d_s @ d_z + d_z @ d_s)
            resid = -cross
            resid -= v[:, :, None] * v[:, None, :] * np.eye(g.d)[None]
            _add_diag_inplace(resid, sigma * mu)
            rt = 2.0 * resid / (v[:, :, None] + v[:, None, :])
            rt_all.append(rt)
            contrib = _inner_each(atr, rt)
            for n_local in range(g.nb):
                rhs[g.idx[n_local]] += contrib[n_local]

        dx = cho_solve(factor, rhs)
        ds = [_combine(dx[g.idx], atr, g.d) for g, atr in zip(groups, scaled_a)]
        dz = [rt - d_s for rt, d_s in zip(rt_all, ds)]

        alpha = min(1.0, _STEP_FRACTION * min((_max_step(v, d) for v, d in zip(v_all, ds)), default=np.inf))
        beta = min(1.0, _STEP_FRACTION * min((_max_step(v, d) for v, d in zip(v_all, dz)), default=np.inf))
        if alpha < _MIN_STEP and beta < _MIN_STEP:
            stalls += 1
        else:
            stalls = 0

        x = x + alpha * dx
        for gi, (g, jinv, d_z) in enumerate(zip(groups, jinv_all, dz)):
            jinvh = np.swapaxes(jinv.conj(), 1, 2)
            delta = jinvh @ d_z @ jinv
            znew = z[gi] + beta * delta
            z[gi] = 0.5 * (znew + np.swapaxes(znew.conj(), 1, 2))

    raise AssertionError("unreachable")


def _add_diag(mat: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = mat.copy()
    idx = np.arange(mat.shape[-1])
    out[:, idx, idx] += v
    return out


def _add_diag_inplace(mat: np.ndarray, scalar: float) -> None:
    idx = np.arange(mat.shape[-1])
    mat[:, idx, idx] += scalar


def cho_factor(a: np.ndarray, lower: bool = True) -> np.ndarray:
    """Lower Cholesky factor ``L`` (``a = L L^T``) of one symmetric matrix.

    Raises ``np.linalg.LinAlgError`` when ``a`` is not numerically positive
    definite.  Only the lower factor is supported.
    """
    if not lower:
        raise ValueError("only the lower Cholesky factor is supported")
    return np.linalg.cholesky(a)


@dataclass
class _ArrowFactor:
    """Cholesky factor of a block-arrowhead matrix, diagonal blocks first.

    ``L = [[L_1, ..., 0], ..., [C_1^T, ..., L_B]]`` with ``L_c`` the factor of
    diagonal block ``c``, ``C_c = L_c^-1 M[block c, border]`` and ``L_B`` the
    factor of the border system ``M[border, border] - sum_c C_c^T C_c``.
    """

    partition: SchurPartition
    blocks: list[np.ndarray]     # L_c
    coupling: list[np.ndarray]   # C_c
    border: np.ndarray           # L_B
    shift: float                 # identity shift the factorization needed


def _factor_arrow(schur: np.ndarray, part: SchurPartition) -> _ArrowFactor:
    """Block-arrowhead Cholesky of ``schur``, climbing the shift ladder on failure.

    Every rung shifts the diagonal blocks and the border together, so each
    attempt factors ``schur + shift * I`` exactly.
    """
    m = schur.shape[0]
    scale = max(float(np.trace(schur)) / max(m, 1), 1.0)
    border_sel = np.ix_(part.border, part.border)
    for shift in _SHIFT_LADDER * scale:
        try:
            factors, couplings = [], []
            s = schur[border_sel] + shift * np.eye(part.border.size)
            for q in part.blocks:
                lq = cho_factor(schur[np.ix_(q, q)] + shift * np.eye(q.size))
                cq = np.linalg.solve(lq, schur[np.ix_(q, part.border)])
                s -= cq.T @ cq
                factors.append(lq)
                couplings.append(cq)
            return _ArrowFactor(part, factors, couplings, cho_factor(s), float(shift))
        except np.linalg.LinAlgError:
            continue
    raise SdpNumericalError("indefinite Newton system: Schur complement not positive definite")


def cho_solve(factor: _ArrowFactor, b: np.ndarray) -> np.ndarray:
    """Solve ``(M + shift I) x = b`` by forward and back substitution with ``L``.

    Triangular solves go through ``np.linalg.solve``; numpy has no
    dedicated triangular solver.
    """
    part = factor.partition
    y = [np.linalg.solve(lq, b[q]) for lq, q in zip(factor.blocks, part.blocks)]
    r_border = b[part.border]
    for cq, yq in zip(factor.coupling, y):
        r_border -= cq.T @ yq
    x = np.empty_like(b)
    x[part.border] = x_border = np.linalg.solve(
        factor.border.T, np.linalg.solve(factor.border, r_border)
    )
    for lq, q, cq, yq in zip(factor.blocks, part.blocks, factor.coupling, y):
        x[q] = np.linalg.solve(lq.T, yq - cq @ x_border)
    return x


def _ungroup(groups: list[_Group], z: list[np.ndarray], n_blocks: int) -> list[np.ndarray]:
    out: list[np.ndarray | None] = [None] * n_blocks
    for g, zg in zip(groups, z):
        for n_local, b in enumerate(g.block_ids):
            out[b] = zg[n_local]
    return out  # type: ignore[return-value]
