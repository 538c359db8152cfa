import ast
import dataclasses
import gc
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from entdyn.amplitude import AmplitudeModel
from entdyn.entanglement import negativity
from entdyn.evolution import evolve_four
from entdyn.gme import (
    GmeProblem,
    SdpError,
    SdpNonConvergenceError,
    enumerate_bipartitions,
    problem_json_dict,
    solve_gme,
    solve_gme_batch,
    verify_witness,
)
from entdyn.gme import ipm, witness
from entdyn.gme.ipm import (
    SchurPartition,
    SdpBlock,
    SdpNumericalError,
    StackedBlocks,
    _SHIFT_LADDER,
    _STEP_FRACTION,
    _TRI_LEAF,
    _ArrowLayout,
    _chol_inv,
    _chol_room,
    _directions,
    _factor_arrow,
    _step_lengths,
    _tri_inv,
    cho_factor,
    cho_solve,
    solve_block_sdp,
    solve_block_sdp_batch,
)
from entdyn.gme.witness import (
    _formulation,
    _formulation_for,
    _initial_x,
    _ROLES,
    _matrices_from_x,
    _objective_vector,
    _solution_from_result,
    _support_symmetry,
    _swap_perm,
    _symmetry_labels,
)
from entdyn.states import (
    Bipartition,
    DensityMatrix,
    bell_pair,
    biseparable_bell_mixture,
    ghz_state,
    kay_state,
    pure_alpha_beta,
    random_density_matrix,
    random_pure_state,
    tensor,
    werner,
    _partial_transpose_matrix,
)


# --- bipartition bookkeeping --------------------------------------------------

def test_enumerate_bipartitions_counts():
    assert len(enumerate_bipartitions(2)) == 1
    assert len(enumerate_bipartitions(3)) == 3
    assert len(enumerate_bipartitions(4)) == 7
    with pytest.raises(ValueError):
        enumerate_bipartitions(1)


def test_enumerate_bipartitions_canonical():
    cuts = enumerate_bipartitions(4)
    assert len(set(cuts)) == 7
    for cut in cuts:
        assert cut.left[0] == 0


# --- the raw solver on tiny hand problems --------------------------------------

def _block(a0, a, var):
    """The block ``sum_k x[var[k]] a[k] - a0`` of a dense Hermitian basis ``a``,
    ``(m_b, d, d)``, in unit coordinates."""
    upper = np.triu(np.ones(a.shape[1:], dtype=bool))
    k, i, j = np.nonzero(upper & (a.real != 0))
    ki, ii, ji = np.nonzero(np.triu(upper, 1) & (a.imag != 0))
    return SdpBlock(a0=a0, var=np.asarray(var)[np.r_[k, ki]], row=np.r_[i, ii], col=np.r_[j, ji],
                    imag=np.r_[np.zeros(k.size, bool), np.ones(ki.size, bool)],
                    coef=np.r_[a.real[k, i, j], a.imag[ki, ii, ji]])


def _units(blk):
    """``coef[e] U_e`` of each coordinate ``e`` of a block, ``(n_e, d, d)``, dense."""
    e, off = np.arange(blk.var.size), blk.row != blk.col
    u = np.zeros((e.size, *blk.a0.shape), dtype=complex)
    u[e, blk.row, blk.col] = np.where(blk.imag, 1j, 1.0) * blk.coef
    u[e[off], blk.col[off], blk.row[off]] = (np.where(blk.imag, -1j, 1.0) * blk.coef)[off]
    return u


def _dense_basis(blk):
    """The variables of a block and its dense basis, one matrix per variable."""
    var, at = np.unique(blk.var, return_inverse=True)
    a = np.zeros((var.size, *blk.a0.shape), dtype=complex)
    np.add.at(a, at, _units(blk))
    return var, a


def _adjoint(blocks, zs, m):
    """``sum_b <A_bk, Z_b>`` of every variable ``k``."""
    out = np.zeros(m)
    for blk, z in zip(blocks, zs):
        np.add.at(out, blk.var, np.einsum("eij,ji->e", _units(blk), z).real)
    return out


def test_solver_scalar_bound():
    # minimize x subject to x >= 1
    blocks = [_block(np.eye(1, dtype=complex), np.ones((1, 1, 1), dtype=complex), [0])]
    res = solve_block_sdp(StackedBlocks(blocks, 1), np.array([1.0]), np.array([2.0]))
    assert res.primal_objective == pytest.approx(1.0, abs=1e-6)
    assert res.dual_objective == pytest.approx(1.0, abs=1e-6)


def test_solver_interval():
    # minimize -x subject to 0 <= x <= 3, via two 1x1 blocks
    blocks = [
        _block(np.zeros((1, 1), dtype=complex), np.ones((1, 1, 1), dtype=complex), [0]),
        _block(-3.0 * np.eye(1, dtype=complex), -np.ones((1, 1, 1), dtype=complex), [0]),
    ]
    res = solve_block_sdp(StackedBlocks(blocks, 1), np.array([-1.0]), np.array([1.5]))
    assert res.primal_objective == pytest.approx(-3.0, abs=1e-6)


def _random_hermitian(rng, *shape):
    g = rng.normal(size=(*shape, 2)) @ np.array([1.0, 1j])
    return g + np.swapaxes(g.conj(), -1, -2)


def _embed(h):
    """Real-symmetric embedding ``[[Re, -Im], [Im, Re]]`` of a Hermitian matrix."""
    return np.block([[h.real, -h.imag], [h.imag, h.real]])


def test_solver_real_embedding_matches_complex_blocks():
    # two blocks share a shape, so they run as one batched group
    stack, c, x0, _ = _random_block_sdp(13)
    # halved: <embed(X) / 2, embed(Y)> = <X, Y>, so Z maps to embed(Z), and
    # the identity start of each complex block to that of its embedding
    embedded = [_block(_embed(b.a0) / 2, np.stack([_embed(ak) / 2 for ak in a]), var)
                for b in stack.blocks for var, a in [_dense_basis(b)]]
    assert not any(b.imag.any() for b in embedded)

    # S(x) maps to embed(S(x)) / 2 and Z to embed(Z), with the same
    # objectives, residuals and gap; both runs take the same iterates up to
    # round-off
    direct = solve_block_sdp(stack, c, x0)
    real = solve_block_sdp(StackedBlocks(embedded, c.size), c, x0)
    assert real.iterations == direct.iterations
    assert real.primal_objective == pytest.approx(direct.primal_objective, abs=1e-8)
    assert real.dual_objective == pytest.approx(direct.dual_objective, abs=1e-8)


def _random_block_sdp(seed):
    """Random Hermitian block SDP with a strictly feasible pair built in: its
    stacked blocks, ``c``, ``x0`` and the dual blocks ``Z_f``.

    ``S(x0) = P`` and ``<A_k, Z_f> = c_k`` with ``P`` and ``Z_f`` positive definite.
    """
    rng = np.random.default_rng(seed)
    m = 7
    layout = [(3, [0, 1, 2, 3]), (3, [2, 4, 5, 6]), (2, [0, 5, 6])]
    x0 = rng.normal(size=m)
    blocks, z_f = [], []
    c = np.zeros(m)
    for d, var_idx in layout:
        a = _random_hermitian(rng, len(var_idx), d, d)
        g = _random_hermitian(rng, d, d)
        p = g @ g / d + np.eye(d)
        blocks.append(_block(np.einsum("k,kij->ij", x0[var_idx], a) - p, a, var_idx))
        h = _random_hermitian(rng, d, d)
        z_f.append(h @ h / d + np.eye(d))
        c[var_idx] += np.einsum("kij,ji->k", a, z_f[-1]).real
    return StackedBlocks(blocks, m), c, x0, z_f


def test_real_blocks_run_real_and_match_complex_blocks():
    # one real symmetric SDP, solved with float64 blocks and with the same
    # blocks cast to complex: the real run stays real and takes the same steps
    stack, c, x0, z_f = _random_block_sdp(17)
    real = [_block(b.a0.real, a.real, var) for b in stack.blocks for var, a in [_dense_basis(b)]]
    # the real parts keep S(x0) > 0, and c is re-priced against the real Z_f
    c = _adjoint(real, [z.real for z in z_f], c.size)
    # the same coordinates: a complex a0 alone makes a block complex
    as_complex = [dataclasses.replace(b, a0=b.a0.astype(complex)) for b in real]
    real, as_complex = StackedBlocks(real, c.size), StackedBlocks(as_complex, c.size)
    assert {cl.dtype for cl in real.classes} == {np.dtype(np.float64)}
    assert {cl.dtype for cl in as_complex.classes} == {np.dtype(complex)}
    r = solve_block_sdp(real, c, x0)
    z = solve_block_sdp(as_complex, c, x0)
    assert r.iterations == z.iterations
    assert r.primal_objective == pytest.approx(z.primal_objective, abs=1e-8)
    assert r.dual_objective == pytest.approx(z.dual_objective, abs=1e-8)


def test_numerical_failure_keeps_best_bound(monkeypatch):
    # the cone factorization fails on every call from two iterations past
    # where the default-tolerance run converged (its slack is negated
    # there), in a run at a tolerance it cannot meet first; the bound it had
    # reached lies in the default-tolerance solve's interval
    sdp = _random_block_sdp(13)[:3]
    ref = solve_block_sdp(*sdp)
    calls = 0
    nt_scaling = ipm._nt_scaling

    def failing(s, *args):
        nonlocal calls
        calls += 1
        if calls > ref.iterations + 2:
            s = [-sc for sc in s]
        return nt_scaling(s, *args)

    monkeypatch.setattr(ipm, "_nt_scaling", failing)
    with pytest.raises(SdpNumericalError, match="cone factorization failed") as err:
        solve_block_sdp(*sdp, tolerance=1e-12)
    assert err.value.iterations > ref.iterations
    assert ref.dual_objective <= err.value.best_bound <= ref.primal_objective


# --- block-arrowhead Schur factorization ---------------------------------------

def _random_arrowhead(rng, border_size, block_sizes):
    """SPD matrix, in shuffled variable order, that is arrowhead under the partition."""
    m = border_size + sum(block_sizes)
    perm = rng.permutation(m)
    border = np.sort(perm[:border_size])
    blocks, start = [], border_size
    for size in block_sizes:
        blocks.append(np.sort(perm[start:start + size]))
        start += size
    mat = np.zeros((m, m))
    for q in blocks:
        # each diagonal block couples only to itself and to the border
        idx = np.concatenate([q, border])
        g = rng.normal(size=(idx.size, idx.size + 3))
        mat[np.ix_(idx, idx)] += g @ g.T
    return mat, SchurPartition(border=border, blocks=tuple(blocks))


def _arrow_storage(mats, part):
    """The arrowhead storage of each dense matrix of ``mats``, one row per matrix."""
    layout = _ArrowLayout(part)
    owner = np.full(mats.shape[1], -1)
    for c, q in enumerate(part.blocks):
        owner[q] = c
    i, j = np.indices(mats.shape[1:]).reshape(2, -1)
    # no entry between two different diagonal blocks is stored, and of the
    # others only the lower triangles and the couplings to the border
    keep = (owner[i] == owner[j]) | (owner[i] < 0) | (owner[j] < 0)
    keep[keep] = layout.stored(i[keep], j[keep])
    i, j = i[keep], j[keep]
    storage = np.zeros((len(mats), layout.size))
    storage[:, layout.index(i, j)] = mats[:, i, j]
    return storage, layout


# the last two have diagonal blocks and borders above _TRI_LEAF, so their
# triangular inverses recurse
@pytest.mark.parametrize("border_size, block_sizes", [(6, (5, 7, 4)), (0, (12,)), (9, (1,)),
                                                      (4, (3, 5, 3, 5)), (37, (43, 27, 70)),
                                                      (0, (257,))])
def test_arrow_factor_solves_like_dense(border_size, block_sizes):
    rng = np.random.default_rng(11)
    mat, part = _random_arrowhead(rng, border_size, block_sizes)
    # a batch of three matrices with the same pattern
    mats = np.stack([mat, 2.0 * mat, mat + np.diag(rng.uniform(0.0, 1.0, size=len(mat)))])
    storage, layout = _arrow_storage(mats, part)
    rhs = rng.normal(size=(3, mat.shape[0]))
    failed = {}
    factor = _factor_arrow(storage, layout, failed, {})
    assert not failed
    np.testing.assert_array_equal(factor.shift, 0.0)
    want = np.linalg.solve(mats, rhs[..., None])[..., 0]
    np.testing.assert_allclose(cho_solve(factor, rhs), want, rtol=1e-10, atol=1e-12)


def _indefinite_at_round_off(mat):
    """``mat`` moved to the smallest eigenvalue -5e-13 * scale, and its new
    scale: indefinite at round-off only, so the first rung (+1e-12 * scale)
    makes it positive definite."""
    scale = np.trace(mat) / mat.shape[0]
    lam_min = np.linalg.eigvalsh(mat)[0]
    mat = mat - (lam_min + 5e-13 * scale) * np.eye(mat.shape[0])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(mat)
    return mat, np.trace(mat) / mat.shape[0]


def _climb_the_shift_ladder(rng, border_size, block_sizes):
    mat, part = _random_arrowhead(rng, border_size, block_sizes)
    mat, scale = _indefinite_at_round_off(mat)
    storage, layout = _arrow_storage(mat[None], part)
    failed = {}
    factor = _factor_arrow(storage, layout, failed, {})
    assert not failed
    assert factor.shift[0] == pytest.approx(1e-12 * scale, rel=1e-12)
    rhs = rng.normal(size=mat.shape[0])
    x = cho_solve(factor, rhs[None])[0]
    shifted = mat + factor.shift[0] * np.eye(mat.shape[0])
    backward = np.linalg.norm(shifted @ x - rhs) / (np.linalg.norm(shifted, 2) * np.linalg.norm(x))
    assert backward < 1e-12


def test_arrow_factor_climbs_the_shift_ladder():
    _climb_the_shift_ladder(np.random.default_rng(5), 5, (6, 6))


def _factor_rows(factor, rows):
    # each run's inverses, the couplings and the border's inverse
    lay, data = factor.layout, factor.data[rows]
    return [*(inv for inv, _ in lay.runs_of(data)), lay.couplings(data), lay.border_block(data)]


def _indefinite_middle_block(rng):
    """An arrowhead matrix with a run of three blocks of 6, the middle one
    uncoupled; and the same matrix with that block indefinite at round-off,
    and the latter's scale.  All else stays positive definite, so the middle
    block alone fails, and the first rung mends it."""
    mat, part = _random_arrowhead(rng, 5, (6, 6, 6))
    q = part.blocks[1]
    mat[np.ix_(q, part.border)] = mat[np.ix_(part.border, q)] = 0.0
    bad = mat.copy()
    bad[np.ix_(q, q)] = _indefinite_at_round_off(mat[np.ix_(q, q)])[0]
    return mat, part, bad, np.trace(bad) / len(bad)


def _indefinite_whole(rng):
    mat, part = _random_arrowhead(rng, 5, (6, 6))
    return (mat, part, *_indefinite_at_round_off(mat))


def test_arrow_factor_climbs_the_shift_ladder_in_a_batch():
    # of three points only the middle one is indefinite at round-off: it
    # climbs the ladder alone, and the others keep their stacked factors
    rng = np.random.default_rng(5)
    _climb_in_a_batch(rng, *_indefinite_whole(rng))


def test_arrow_factor_climbs_the_shift_ladder_in_a_run():
    # likewise when, of the middle point, only the middle block of a run of
    # three blocks is indefinite
    rng = np.random.default_rng(5)
    _climb_in_a_batch(rng, *_indefinite_middle_block(rng))


def _climb_in_a_batch(rng, mat, part, bad, scale):
    assert len(_ArrowLayout(part).runs) == 1
    mats = np.stack([mat, bad, 2.0 * mat])
    storage, layout = _arrow_storage(mats, part)
    failed = {}
    factor = _factor_arrow(storage, layout, failed, {})
    assert not failed
    assert factor.shift[[0, 2]].tolist() == [0.0, 0.0]
    assert factor.shift[1] == pytest.approx(_SHIFT_LADDER[1] * scale, rel=1e-12)
    pair = _factor_arrow(storage[[0, 2]], layout, failed, {})
    for got, want in zip(_factor_rows(factor, [0, 2]), _factor_rows(pair, slice(None))):
        np.testing.assert_array_equal(got, want)
    rhs = rng.normal(size=(3, len(mat)))
    shifted = mats + factor.shift[:, None, None] * np.eye(len(mat))
    want = np.linalg.solve(shifted, rhs[..., None])[..., 0]
    got = cho_solve(factor, rhs)
    # both solves lose accuracy with the condition number of M + shift * I
    bound = 10 * np.finfo(float).eps * np.linalg.cond(shifted)
    err = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
    assert np.all(err <= bound), (err, bound)


def test_arrow_factor_climbs_the_shift_ladder_above_the_leaf(monkeypatch):
    # every inverse is taken of a factor that cho_factor returned: a point
    # whose Cholesky failed has its matrix replaced by the identity before
    # the stack is factored again, so no factor of a failed Cholesky is
    # inverted (the halves that _tri_inv recurses on, with their out, come
    # from a returned factor too)
    factors, failures, inverted = [], [], []

    def spy_factor(a):
        try:
            factors.append(cho_factor(a))
        except np.linalg.LinAlgError:
            failures.append(a.shape)
            raise
        return factors[-1]

    def spy_inv(low, out=None):
        if out is None:
            inverted.append(low)
        return _tri_inv(low, out)

    monkeypatch.setattr(ipm, "cho_factor", spy_factor)
    monkeypatch.setattr(ipm, "_tri_inv", spy_inv)
    _climb_the_shift_ladder(np.random.default_rng(7), 37, (43, 27, 70))
    assert failures and inverted
    assert all(any(low is f for f in factors) for low in inverted)


@pytest.mark.parametrize("n", sorted({1, 2, _TRI_LEAF - 1, _TRI_LEAF, _TRI_LEAF + 1, 27, 43, 255,
                                      256, 257}))
@pytest.mark.parametrize("batch", [(3,), (2, 3)], ids=["B", "B_k"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_tri_inv_inverts_lower_triangular_stacks(n, batch, dtype):
    rng = np.random.default_rng(n)
    g = rng.normal(size=(*batch, n, n))
    if dtype is complex:
        g = g + 1j * rng.normal(size=g.shape)
    # well conditioned: the factor of I + G G^H / n
    low = np.linalg.cholesky(np.eye(n) + g @ np.swapaxes(g.conj(), -1, -2) / n)
    inv = _tri_inv(low)
    assert inv.shape == low.shape and inv.dtype == low.dtype
    assert not np.any(np.triu(inv, 1))
    np.testing.assert_allclose(low @ inv, np.broadcast_to(np.eye(n), low.shape), rtol=0, atol=1e-12)
    ref = np.linalg.inv(low)
    err = np.linalg.norm(inv - ref, axis=(-2, -1)) / np.linalg.norm(ref, axis=(-2, -1))
    assert np.all(err <= 1e-12)


def test_tri_inv_is_exactly_triangular_where_lu_pivots():
    # diagonals below the entries beneath them: the pivoted LU inside
    # np.linalg.inv leaves round-off above the diagonal, _tri_inv none
    rng = np.random.default_rng(3)
    for n in (6, _TRI_LEAF + 5, 40):
        low = np.tril(rng.normal(size=(2, n, n)), -1) + 0.5 * np.eye(n)
        assert np.any(np.triu(np.linalg.inv(low), 1))
        assert not np.any(np.triu(_tri_inv(low), 1))


def _chol_inv_of(mats):
    """``_chol_inv`` of a stack into fresh buffers, and the points it failed."""
    failed = {}
    tmp = np.empty(mats[..., 0, 0].size * _chol_room(mats.shape[-1]), dtype=mats.dtype)
    return _chol_inv(mats, np.empty_like(mats), failed, tmp), failed


# orders 300 and 512 recurse past the witness's largest Schur blocks (256)
@pytest.mark.parametrize("n", [1, 16, 31, 32, 33, 43, 64, 65, 255, 256, 257, 300, 512])
@pytest.mark.parametrize("batch", [(3,), (2, 3)], ids=["B", "B_k"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_chol_inv_inverts_cholesky_factors_of_stacks(n, batch, dtype):
    rng = np.random.default_rng(n)
    g = rng.normal(size=(*batch, n, n))
    if dtype is complex:
        g = g + 1j * rng.normal(size=g.shape)
    mat = 1e-3 * np.eye(n) + g @ np.swapaxes(g.conj(), -1, -2) / n
    # only the lower triangles are read: what is above them is not M's
    given = np.tril(mat) + np.triu(rng.normal(size=mat.shape), 1)
    before = given.copy()
    inv, failed = _chol_inv_of(given)
    assert np.array_equal(given, before) and not failed
    assert inv.shape == mat.shape and inv.dtype == mat.dtype
    assert not np.any(np.triu(inv, 1))
    eye = np.broadcast_to(np.eye(n), mat.shape)
    resid = np.linalg.norm(inv @ mat @ np.swapaxes(inv.conj(), -1, -2) - eye, 2, axis=(-2, -1))
    assert np.all(resid <= 4 * np.finfo(float).eps * np.linalg.cond(mat))
    ref = _tri_inv(np.linalg.cholesky(mat))
    err = np.linalg.norm(inv - ref, axis=(-2, -1)) / np.linalg.norm(ref, axis=(-2, -1))
    assert np.all(err <= 1e-12)

    # one indefinite member of the stack: entered per point, and the later
    # levels of the failed point compute on finite values (an overflow
    # would be an error here), while the other points' inverses are those
    # of the stack without it
    bad = given.copy()
    bad[(1,) * len(batch)] *= -1.0
    got, failed = _chol_inv_of(bad)
    assert list(failed) == [1]
    assert np.all(np.isfinite(got))
    others = [0, 2] if len(batch) == 1 else [0]
    np.testing.assert_array_equal(got[others], inv[others])


def test_ipm_inverts_only_through_tri_inv():
    # one code path for every triangular inverse: no general inverse or
    # solve anywhere else in the solver
    tree = ast.parse(Path(ipm.__file__).read_text())
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_tri_inv":
            allowed = {id(sub) for sub in ast.walk(node)}
    assert allowed
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("numpy.linalg", "scipy.linalg"):
            found += [(node.lineno, a.name) for a in node.names if a.name in ("inv", "solve")]
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("inv", "solve")
                and isinstance(node.func.value, ast.Attribute) and node.func.value.attr == "linalg"
                and id(node) not in allowed):
            found.append((node.lineno, ast.unparse(node.func)))
    assert not found


def test_arrow_factor_rejects_indefinite_schur():
    rng = np.random.default_rng(6)
    mat, part = _random_arrowhead(rng, 3, (4, 4))
    mat[0, 0] = -1.0
    storage, layout = _arrow_storage(mat[None], part)
    failed = {}
    _factor_arrow(storage, layout, failed, {})
    assert failed == {0: "indefinite Newton system: Schur complement not positive definite"}


def test_a_failed_factor_leaves_no_reference_cycle():
    # a kept LinAlgError would hold its traceback's frames, and the factors
    # they hold, until the cyclic collector ran: on a single unreduced solve
    # that climbs the ladder that is several MiB of peak memory
    rng = np.random.default_rng(6)
    mat, part = _random_arrowhead(rng, 3, (4, 4))
    mat[0, 0] = -1.0
    storage, layout = _arrow_storage(mat[None], part)
    gc.collect()
    gc.disable()
    try:
        failed = {}
        _factor_arrow(storage, layout, failed, {})
        assert failed and gc.collect() == 0
    finally:
        gc.enable()


def test_ipm_has_one_exception_handler():
    # one failure rule: the guarded LAPACK call is the solver's only
    # exception handler, so no stage falls back to a second code path
    tree = ast.parse(Path(ipm.__file__).read_text())
    handlers = [node for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)]
    assert [ast.unparse(node.type) for node in handlers] == ["np.linalg.LinAlgError"]
    (guarded,) = [node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "_guarded"]
    assert handlers[0] in list(ast.walk(guarded))


def test_partition_check_rejects_mismatched_partitions():
    blocks = [_block(np.zeros((1, 1), dtype=complex), np.ones((2, 1, 1), dtype=complex), [1, 2])]
    cases = {
        "couples two diagonal blocks": SchurPartition(np.array([0]), (np.array([1]), np.array([2]))),
        "twice": SchurPartition(np.array([0, 1]), (np.array([1, 2]),)),
        "misses": SchurPartition(np.array([0]), (np.array([1]),)),
    }
    for message, part in cases.items():
        with pytest.raises(ValueError, match=message):
            part.check(3, blocks)
    SchurPartition(np.array([0]), (np.array([1, 2]),)).check(3, blocks)


def _coords(a0, var, row, col, imag, coef):
    return SdpBlock(a0=np.asarray(a0), var=np.array(var), row=np.array(row),
                    col=np.array(col), imag=np.array(imag, dtype=bool), coef=np.array(coef, float))


@pytest.mark.parametrize("block, message", [
    (_coords(np.eye(2), [-1], [0], [0], [False], [1.0]), "variable lies outside"),
    (_coords(np.eye(2), [3], [0], [1], [False], [1.0]), "variable lies outside"),
    (_coords(np.eye(2), [0], [2], [0], [False], [1.0]), "coordinate lies outside"),
    (_coords(np.eye(2), [0], [0], [-1], [False], [1.0]), "coordinate lies outside"),
    (_coords(np.eye(2), [0, 1], [0], [0], [False], [1.0]), "differ in shape"),
    (_coords(np.eye(2), [0], [0], [0], [False], [1.0, 2.0]), "differ in shape"),
    (_coords(np.ones((2, 3)), [0], [0], [0], [False], [1.0]), "not square"),
], ids=["negative_var", "var_past_end", "row_past_end", "negative_col", "var_longer",
        "coef_longer", "a0_not_square"])
def test_stacked_blocks_reject_malformed_blocks(block, message):
    # on 2 variables, with and without a partition whose check reads the variables
    with pytest.raises(ValueError, match=message):
        StackedBlocks([block], 2)
    with pytest.raises(ValueError, match=message):
        StackedBlocks([block], 2, SchurPartition(np.array([0]), (np.array([1]),)))


def test_block_coordinates_add_per_variable_and_unit():
    # i(E_10 - E_01) is -i(E_01 - E_10) and i(E_00 - E_00) is zero;
    # coordinates of one variable and unit add, and a zero sum is dropped,
    # so these two blocks are the same
    a0 = np.zeros((2, 2), dtype=complex)
    split = _coords(a0, [0, 0, 1, 1, 0, 1], [0, 1, 0, 1, 1, 0], [1, 0, 1, 0, 1, 0],
                    [True, True, False, False, False, True], [0.5, -1.5, 1.0, -1.0, 3.0, 4.0])
    summed = _coords(a0, [0, 0], [1, 0], [1, 1], [False, True], [3.0, 2.0])
    x = np.random.default_rng(2).normal(size=(2, 2))
    stacks = StackedBlocks([split], 2), StackedBlocks([summed], 2)
    (got,), (want,) = (stack.combine(x) for stack in stacks)
    np.testing.assert_array_equal(got, want)
    assert (got[0, 0, 0, 1], got[0, 0, 1, 1]) == (2.0j * x[0, 0], 3.0 * x[0, 0])
    (cl_split,), (cl_summed,) = (stack.classes for stack in stacks)
    for name in ("entry_var", "entry_at", "entry_coef", "term_var", "term_imag", "term_pair",
                 "term_val"):
        np.testing.assert_array_equal(getattr(cl_split, name), getattr(cl_summed, name))


# --- Schur and residual scatter -------------------------------------------------

# (size, variables, basis) of each block: a fresh random basis, or the
# negated basis of an earlier block, like the upper partner of a lower
# bound, which shares its variables and unit coordinates up to sign.  The
# blocks of size 3 form two such pairs, and their sets overlap in part;
# among those of size 2, one pair sits beside single blocks, two of which
# share a variable set but not their basis.
_SCATTER_LAYOUT = [(3, [0, 1, 2, 3], None), (2, [0, 5, 8], None), (3, [2, 4, 5, 6], None),
                   (3, [0, 1, 2, 3], 0), (2, [0, 5, 8], None), (3, [2, 4, 5, 6], 2),
                   (2, [1, 2, 7], None), (2, [3, 5, 8], None), (2, [1, 2, 7], 6)]


def _scatter_blocks(rng, dtype):
    blocks = []
    for d, var_idx, partner in _SCATTER_LAYOUT:
        a = _random_hermitian(rng, len(var_idx), d, d)
        a0 = _random_hermitian(rng, d, d)
        a0 = a0 if dtype is complex else a0.real
        if partner is None:
            blocks.append(_block(a0, a if dtype is complex else a.real, var_idx))
        else:
            blocks.append(dataclasses.replace(blocks[partner], a0=a0, coef=-blocks[partner].coef))
    return blocks


def _dense_reference(blocks, jinvs, ys, x, m):
    """``<J^-1 A_i J^-H, J^-1 A_j J^-H>`` and ``<A_k, Y>`` summed over the blocks,
    and ``sum_k x_k A_k`` of each block, one block at a time, from dense bases."""
    schur, mats = np.zeros((m, m)), []
    for blk, j in zip(blocks, jinvs):
        var, a = _dense_basis(blk)
        scaled = (j @ a @ j.conj().T).reshape(len(a), -1)
        flat = np.concatenate([scaled.real, scaled.imag], axis=1)
        schur[np.ix_(var, var)] += flat @ flat.T
        mats.append(np.einsum("k,kij->ij", x[var], a))
    return schur, _adjoint(blocks, ys, m), mats


def _by_class(stack, per_block):
    """Each size class's ``(B, n, d, d)`` stack of ``per_block[b]``, each ``(B, d, d)``."""
    return [np.stack([per_block[b] for b in cl.block_ids], axis=1) for cl in stack.classes]


@pytest.mark.parametrize("case", ["float", "complex", "generic", "swap_reduced"])
def test_stacked_scatter_matches_dense_reference(case):
    # the Schur storage built from unit coordinates, the adjoint and the
    # combination against dense references from the basis matrices, and
    # the unscaled direction dZ = -J^-H (J^-1 A(dx) J^-H) J^-1 of a zero
    # corrector residual, whose adjoint -M dx the corrector's refinement reads
    rng = np.random.default_rng(23)
    if case in ("float", "complex"):
        m, points = 9, 2
        blocks = _scatter_blocks(rng, complex if case == "complex" else float)
        # every block's variables outside the border lie in one diagonal block
        part = SchurPartition(np.array([0, 1, 2, 3, 5]),
                              (np.array([4, 6]), np.array([7]), np.array([8])))
        stacks = [StackedBlocks(blocks, m), StackedBlocks(blocks, m, part)]
    else:
        # the witness forms of 2048 and 194 variables
        m, points = (194, 2) if case == "swap_reduced" else (2048, 1)
        problem = _paper_problem(8.0)
        form = _formulation(problem, case == "swap_reduced")
        blocks = form.blocks.blocks
        stacks = [form.blocks]
        assert form.num_vars == m
    for stack in stacks:
        assert len(stack) == len(blocks)
        for cl in stack.classes:
            np.testing.assert_array_equal(cl.a0, [blocks[b].a0 for b in cl.block_ids])
        if case in ("float", "complex"):
            assert [cl.layers for cl in stack.classes] == [[2, 2], [4, 1]]
        else:
            # the two bounds of every P and Q block share their coordinates
            assert all(cl.layers == [cl.n // 2] * 2 for cl in stack.classes)
        # repeated targets: a single fancy-index += would drop contributions
        assert np.unique(stack._terms[0]).size < stack._terms[0].size

        # each point has a congruence J^-1 per block, as the NT scaling
        # gives, a Hermitian Y per block, as the dual iterate Z or the
        # corrector's scaled residual, and coefficients x
        jinvs, ys = [], []
        for b in blocks:
            d, real = b.a0.shape[0], b.a0.dtype.kind == "f"
            j = np.eye(d) + _random_hermitian(rng, points, d, d) / (2 * d) \
                + rng.normal(size=(points, d, d)) / (2 * d)
            y = _random_hermitian(rng, points, d, d)
            jinvs.append(j.real if real else j)
            ys.append(y.real if real else y)
        x = rng.normal(size=(points, m))
        refs = [_dense_reference(blocks, [j[p] for j in jinvs], [y[p] for y in ys], x[p], m)
                for p in range(points)]
        schur_ref, _ = _arrow_storage(np.stack([schur for schur, _, _ in refs]), stack.partition)
        got = stack.schur(_by_class(stack, jinvs), {})
        assert np.max(np.abs(got - schur_ref)) <= 1e-12 * np.max(np.abs(schur_ref))
        dx = rng.normal(size=(points, m))
        m_dx = np.stack([schur @ step for (schur, _, _), step in zip(refs, dx)])
        jinv = _by_class(stack, jinvs)
        *_, dz_full = _directions(stack, jinv, [np.zeros_like(j) for j in jinv], dx)
        assert np.max(np.abs(stack.adjoint(dz_full) + m_dx)) <= 1e-12 * np.max(np.abs(m_dx))
        np.testing.assert_allclose(stack.adjoint(_by_class(stack, ys)),
                                   [adj for _, adj, _ in refs], rtol=1e-12, atol=1e-12)
        mats = [np.stack([mats[b] for _, _, mats in refs]) for b in range(len(blocks))]
        for got, want in zip(stack.combine(x), _by_class(stack, mats)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def _witness_stack(swap_reduced, points, seed):
    """A fresh stack of the 194- or 2048-variable witness form, whose term list
    is not built yet, and random ``J^-1`` of each of its classes."""
    problem = _paper_problem(8.0)
    form = _formulation(problem, swap_reduced)
    stack = StackedBlocks(form.blocks.blocks, form.num_vars, form.blocks.partition)
    rng = np.random.default_rng(seed)
    jinv = []
    for cl in stack.classes:
        j = np.eye(cl.d) + rng.normal(size=(points, cl.n, cl.d, cl.d)) / (2 * cl.d)
        if cl.dtype.kind == "c":
            j = j + 1j * rng.normal(size=j.shape) / (2 * cl.d)
        jinv.append(j)
    return form, stack, jinv


def _whole_f_unit_gram(cl, g):
    """``K`` of every set of a class, from one ``matmul`` of ``F`` over all its
    blocks whose later layers are then added to the first in turn."""
    n, n_p, sets = len(g), cl.pa.size, cl.layers[0]
    if cl.dtype.kind == "c":
        rows = np.stack([g.real, g.imag], axis=-1)
        right = np.concatenate([rows, np.stack([g.imag, -g.real], axis=-1)], axis=-2)
    else:
        rows = right = g[..., None]
    f = rows[..., cl.pb, :, :] @ np.swapaxes(right[..., cl.pa, :, :], -1, -2)
    at = sets
    for count in cl.layers[1:]:
        f[:, :count] += f[:, at:at + count]
        at += count
    f = f[:, :sets].reshape(n, sets, n_p, -1)
    x, y, *ri = (np.take(f, cols, axis=-1) for cols in cl._columns)
    parts = [x + y] + ([y - x, ri[0] - ri[1]] if ri else [])
    return np.stack(parts, axis=1).reshape(n, -1)


@pytest.mark.parametrize("chunk", [None, 1000])
@pytest.mark.parametrize("swap_reduced", [False, True])
def test_chunked_schur_storage_is_the_one_shot_sum(monkeypatch, swap_reduced, chunk):
    # the Schur storage, gathered and added chunk by chunk, and K, whose F is
    # formed layer by layer, equal bit for bit one np.bincount over the whole
    # term list of a K from one matmul over all blocks; with a small chunk the
    # list is built and applied in several chunks and F takes several passes
    form, stack, jinv = _witness_stack(swap_reduced, 2 if swap_reduced else 1, 3)
    want_terms = form.blocks._terms
    if chunk:
        monkeypatch.setattr(ipm, "_CHUNK", chunk)
    pos, k_idx, coef = stack._terms
    assert pos.dtype == k_idx.dtype == np.int32
    for got, want in zip((pos, k_idx, coef), want_terms):
        assert got.tobytes() == want.tobytes()
    work = {}
    storage = stack.schur(jinv, work)
    points = len(storage)
    assert (coef.size > ipm._CHUNK) == (not swap_reduced or chunk is not None)

    k_want = np.concatenate([_whole_f_unit_gram(cl, np.swapaxes(j.conj(), -1, -2) @ j)
                             for cl, j in zip(stack.classes, jinv)], axis=1)
    want = np.stack([np.bincount(pos, np.take(k, k_idx) * coef, minlength=stack.arrow.size)
                     for k in k_want])
    assert work["k"][:k_want.size].tobytes() == k_want.tobytes()
    assert storage.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", ["generic", "real_reduced", "swap_reduced"])
def test_blocks_encode_the_witness_constraints(case):
    # at random x, each block's S_b(x), from the stack and densified from its
    # coordinates, is its sector of P_M = W - Q_M^{T_M}, I - P_M, Q_M or
    # I - Q_M, with W and Q_M from the variables alone
    problem = _paper_problem(8.0)
    real, swap, w_labels, q_labels = _symmetry_labels(problem, case != "generic")
    form = _formulation_for(4, real, swap and case == "swap_reduced", w_labels, q_labels)
    assert form.num_vars == {"generic": 2048, "real_reduced": 344, "swap_reduced": 194}[case]
    blocks = form.blocks.blocks
    x = np.random.default_rng(43).normal(size=form.num_vars)
    stacked = {}
    for cl, s in zip(form.blocks.classes, form.blocks.combine(x[None])):
        stacked.update(zip(cl.block_ids.tolist(), s[0] - cl.a0))
    w, qs = _matrices_from_x(form, x)
    roles = {(int(c), int(r)) for c, r in zip(form.block_cut, form.block_role)}
    assert roles == {(ci, r) for ci in form.kept for r in range(len(_ROLES))}
    starts = np.cumsum(form.block_size) - form.block_size
    for b, blk in enumerate(blocks):
        ci, role = form.block_cut[b], _ROLES[form.block_role[b]]
        sec = form.block_sectors[starts[b]:starts[b] + form.block_size[b]]
        mat = qs[ci]
        if role[0] == "p":
            mat = w - _partial_transpose_matrix(mat, problem.cuts[ci].left, (2,) * 4)
        want = mat[np.ix_(sec, sec)]
        if role.endswith("upper"):
            want = np.eye(sec.size) - want
        dense = np.einsum("e,eij->ij", x[blk.var], _units(blk)) - blk.a0
        np.testing.assert_allclose(dense, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(stacked[b], want, rtol=0, atol=1e-12)


def test_stacked_blocks_carry_their_partition():
    plain, c, x0, _ = _random_block_sdp(13)
    blocks = plain.blocks
    whole = SchurPartition(np.zeros(0, dtype=int), (np.arange(c.size),))
    stack = StackedBlocks(blocks, c.size, whole)
    # without a partition all variables form one block
    assert solve_block_sdp(stack, c, x0).primal_objective == \
        solve_block_sdp(plain, c, x0).primal_objective
    with pytest.raises(ValueError, match="misses a variable"):
        StackedBlocks(blocks, c.size, SchurPartition(np.zeros(0, dtype=int), (np.arange(1),)))


def test_solve_gme_keeps_the_per_layer_call_contract(monkeypatch):
    # perfbench/trace_cli.py wraps these names and reads len(args[0]) and
    # args[1].size of solve_block_sdp and args[0].shape[0] of cho_factor.
    # A single solve calls solve_block_sdp once, with positional arguments;
    # a batch runs through solve_block_sdp_batch, which the bench does not
    # wrap.  cho_factor takes a stack of square matrices whose leading axis
    # is the batch, so for a single solve shape[0] is 1
    factored, solves, sdp_args = [], [], []

    def factor(*args):
        factored.append(args)
        return cho_factor(*args)

    def solve(*args):
        solves.append(args)
        return cho_solve(*args)

    def sdp(*args, **kwargs):
        sdp_args.append(args)
        return solve_block_sdp(*args, **kwargs)

    monkeypatch.setattr("entdyn.gme.ipm.cho_factor", factor)
    monkeypatch.setattr("entdyn.gme.ipm.cho_solve", solve)
    monkeypatch.setattr("entdyn.gme.witness.solve_block_sdp", sdp)
    problems = [_paper_problem(t) for t in (8.0, 9.05687, 13.5853)]
    sol = solve_gme(problems[0])
    assert sol.reduced

    (args,) = sdp_args
    assert len(args) >= 2
    assert len(args[0]) == 84 and args[1].size == sol.num_variables == 194
    # one diagonal block per kept cut plus the border, at least, every iteration
    assert len(factored) >= 6 * sol.iterations
    for args in factored:
        assert len(args) == 1 and args[0].shape[0] == 1
        assert args[0].ndim >= 3 and args[0].shape[-1] == args[0].shape[-2]
    assert len(solves) == 2 * sol.iterations

    factored.clear()
    solves.clear()
    batch = solve_gme_batch(problems)
    assert not sdp_args[1:]
    assert factored[0][0].shape[0] == len(problems)
    assert len(solves) == 2 * max(b.iterations for b in batch)
    assert [b.iterations for b in batch] == [solve_gme(p).iterations for p in problems]


@pytest.mark.parametrize("gamma0_t", [9.05687, 13.5853, 31.699, 40.7559])
def test_freeze_window_points_converge_with_certificate(gamma0_t):
    # points of the alpha = sqrt(1/26), x = 0.01 sweep whose late Schur
    # matrices are mostly indefinite at round-off and need the shift ladder
    s0 = pure_alpha_beta(math.sqrt(1 / 26), 5 * math.sqrt(1 / 26))
    problem = GmeProblem(rho=evolve_four(s0, AmplitudeModel(1.0, 0.01), gamma0_t))
    sol = solve_gme(problem)
    assert sol.reduced
    assert verify_witness(sol, problem).passed
    assert sol.dual_objective <= sol.objective
    if gamma0_t != 31.699:      # the freeze window ends just before 31.699
        assert sol.genuine_negativity == pytest.approx(5 / 26, abs=1e-6)


def test_a_step_that_would_break_dual_feasibility_is_refined(monkeypatch):
    # the corrector solve of the first iteration comes back with a relative
    # error of 1e-4, as a Schur solve late in a run can; the full step would
    # leave the dual residual far above the tolerance, so the same iteration
    # refines the solve
    sdp = _random_block_sdp(13)[:3]
    c = sdp[1]
    ref = solve_block_sdp(*sdp)
    calls = []

    def spy(factor, b):
        calls.append(b)
        x = cho_solve(factor, b)
        return x * (1.0 + 1e-4 * np.cos(np.arange(x.shape[-1]))) if len(calls) == 2 else x

    monkeypatch.setattr(ipm, "cho_solve", spy)
    sol = solve_block_sdp(*sdp)
    # predictor and corrector take -c and the corrector right-hand side, a
    # refinement the corrector's residual; the next iteration starts at -c
    np.testing.assert_array_equal(calls[0], -c[None])
    assert not np.array_equal(calls[2], -c[None])
    np.testing.assert_array_equal(calls[3], -c[None])
    assert sol.iterations == ref.iterations
    assert sol.primal_objective == pytest.approx(ref.primal_objective, abs=1e-8)
    assert sol.dual_residual <= 1e-7


# points of the alpha = sqrt(1/26), x = 0.01 sweep where the dual residual
# jumps late in the run and, unless the corrector's Schur solve is refined,
# can stay above the feasibility tolerance until the Schur complement turns
# singular; which of them fail that way depends on the solver's round-off
@pytest.mark.parametrize("gamma0_t", [3.657539073022387, 3.8453446969579095,
                                      3.6116111210710145, 3.6416730223857527])
def test_points_with_a_stuck_dual_residual_converge(gamma0_t):
    problem = _paper_problem(gamma0_t)
    sol = solve_gme(problem)
    assert sol.reduced
    assert sol.residuals["dual_residual"] <= problem.tolerance
    assert verify_witness(sol, problem).passed
    min_cut = min(negativity(problem.rho, cut) for cut in problem.cuts)
    assert 0.0 < sol.genuine_negativity <= min_cut + 1e-6


@pytest.mark.parametrize("symmetry_reduction", [True, False])
def test_objective_vector_prices_the_witness(symmetry_reduction):
    # c . x must equal Re tr(W(x) rho) for every x, not only at the optimum
    rng = np.random.default_rng(19)
    if symmetry_reduction:
        # GHZ coherence with a complex phase over a random diagonal
        psi = np.zeros(8, dtype=complex)
        psi[[0, 7]] = np.array([1.0, np.exp(0.7j)]) / math.sqrt(2)
        entries = 0.6 * np.outer(psi, psi.conj()) + 0.4 * np.diag(rng.dirichlet(np.ones(8)))
        rho = DensityMatrix(entries, (2, 2, 2))
    else:
        rho = random_density_matrix((2, 2, 2), rng)
    problem = GmeProblem(rho=rho)
    form = _formulation(problem, symmetry_reduction)
    assert form.reduced == symmetry_reduction
    x = rng.normal(size=form.num_vars)
    w, qs = _matrices_from_x(form, x)
    assert len(qs) == len(problem.cuts)
    np.testing.assert_array_equal(w, w.conj().T)
    price = float(np.real(np.trace(w @ rho.entries)))
    assert _objective_vector(form, rho.entries) @ x == pytest.approx(price, abs=1e-12)


# --- oracle values -------------------------------------------------------------

def test_bell_matches_negativity():
    assert solve_gme(bell_pair().to_density()).genuine_negativity == pytest.approx(0.5, abs=1e-6)


def test_werner_matches_negativity():
    sol = solve_gme(werner(0.45).to_density())
    assert sol.genuine_negativity == pytest.approx(0.0875, abs=1e-6)


def test_separable_two_qubit_is_zero():
    rng = np.random.default_rng(3)
    rho = tensor(random_density_matrix((2,), rng), random_density_matrix((2,), rng))
    assert solve_gme(rho).genuine_negativity == pytest.approx(0.0, abs=1e-6)


def test_ghz3_value_and_dual_bound():
    sol = solve_gme(ghz_state(3))
    assert sol.genuine_negativity == pytest.approx(0.5, abs=1e-4)
    # dual bound certifies optimality to solver accuracy
    assert sol.dual_objective == pytest.approx(-0.5, abs=1e-5)
    # the canonical witness I/2 - |GHZ><GHZ| reaches the same objective
    w = np.eye(8) / 2 - ghz_state(3).entries
    assert np.real(np.trace(w @ ghz_state(3).entries)) == pytest.approx(-0.5, abs=1e-12)


def test_kay_state_is_ppt_mixture():
    sol = solve_gme(kay_state(2.5))
    assert sol.genuine_negativity == pytest.approx(0.0, abs=1e-6)


def test_biseparable_mixture_not_genuinely_entangled():
    sol = solve_gme(biseparable_bell_mixture())
    assert sol.genuine_negativity == pytest.approx(0.0, abs=1e-6)


def test_product_state_zero():
    rng = np.random.default_rng(5)
    rho = tensor(tensor(random_density_matrix((2,), rng), random_density_matrix((2,), rng)),
                 random_density_matrix((2,), rng))
    sol = solve_gme(rho)
    assert sol.genuine_negativity == pytest.approx(0.0, abs=1e-6)


def test_evolved_t0_is_biseparable():
    s0 = pure_alpha_beta(math.sqrt(1 / 3), math.sqrt(2 / 3))
    rho = evolve_four(s0, AmplitudeModel(1.0, 5.0), 0.0)
    sol = solve_gme(rho)
    assert sol.genuine_negativity == pytest.approx(0.0, abs=1e-6)


def test_bipartite_sdp_equals_eigen_negativity():
    rng = np.random.default_rng(11)
    cut = Bipartition.of_left([0], 2)
    worst = 0.0
    for _ in range(100):
        rho = random_density_matrix((2, 2), rng)
        worst = max(worst, abs(solve_gme(rho).genuine_negativity - negativity(rho, cut)))
    assert worst < 1e-6


# --- properties -----------------------------------------------------------------

def _random_local_unitary(rng, n):
    blocks = []
    for _ in range(n):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(g)
        q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
        blocks.append(q)
    u = blocks[0]
    for b in blocks[1:]:
        u = np.kron(u, b)
    return u


def test_local_unitary_invariance_on_ghz():
    rng = np.random.default_rng(17)
    base = ghz_state(3).entries
    for _ in range(3):
        u = _random_local_unitary(rng, 3)
        rho = DensityMatrix(u @ base @ u.conj().T, (2, 2, 2), validate=False)
        sol = solve_gme(rho)
        assert sol.genuine_negativity == pytest.approx(0.5, abs=1e-6)


def test_bounded_by_every_single_cut_negativity():
    # relaxing to a single cut can only lower the witness minimum, so the
    # genuine negativity never exceeds any bipartite negativity
    rng = np.random.default_rng(37)
    for _ in range(10):
        psi = random_pure_state(8, rng)
        rho = DensityMatrix(np.outer(psi, psi.conj()), (2, 2, 2), validate=False)
        sol = solve_gme(rho)
        cap = min(negativity(rho, cut) for cut in enumerate_bipartitions(3))
        assert -1e-7 <= sol.genuine_negativity <= cap + 1e-6


def test_convexity_of_measure():
    rng = np.random.default_rng(23)
    for _ in range(3):
        r1 = random_density_matrix((2, 2, 2), rng, rank=2)
        r2 = random_density_matrix((2, 2, 2), rng, rank=2)
        lam = float(rng.uniform(0.2, 0.8))
        mix = DensityMatrix(lam * r1.entries + (1 - lam) * r2.entries, (2, 2, 2),
                            validate=False)
        e_mix = solve_gme(mix).genuine_negativity
        e_sum = (lam * solve_gme(r1).genuine_negativity
                 + (1 - lam) * solve_gme(r2).genuine_negativity)
        assert e_mix <= e_sum + 1e-6


def _diagonal_states():
    ket = np.zeros(8)
    ket[0] = 1.0
    probs = np.random.default_rng(41).dirichlet(np.ones(16))
    return [DensityMatrix(np.outer(ket, ket), (2, 2, 2)), DensityMatrix(np.eye(8) / 8, (2, 2, 2)),
            DensityMatrix(np.diag(probs), (2, 2, 2, 2))]


@pytest.mark.parametrize("rho", _diagonal_states(), ids=["ket000", "maximally_mixed",
                                                         "full_rank_diagonal4"])
def test_states_without_off_diagonal_support(rho):
    # no off-diagonal entry leaves the symmetry detector no bit difference:
    # every basis index is its own sector, and the state is separable
    problem = GmeProblem(rho=rho)
    span, parity_ok = _support_symmetry(rho.entries, rho.num_subsystems)
    assert span.shape == (0, rho.num_subsystems) and parity_ok
    assert _symmetry_labels(problem, True)[2] == tuple(range(rho.dim))
    sol = solve_gme(problem)
    assert sol.genuine_negativity == 0.0 and sol.reduced
    assert verify_witness(sol, problem).passed


def test_reduced_and_generic_paths_agree():
    s0 = pure_alpha_beta(math.sqrt(1 / 26), 5 * math.sqrt(1 / 26))
    rho = evolve_four(s0, AmplitudeModel(1.0, 5.0), 0.9)
    fast = solve_gme(rho)
    slow = solve_gme(rho, symmetry_reduction=False)
    assert fast.reduced and not slow.reduced
    assert fast.genuine_negativity == pytest.approx(slow.genuine_negativity, abs=1e-6)
    assert fast.num_variables < slow.num_variables


def test_reduced_and_generic_paths_agree_at_freeze_point():
    # inside the freeze window of the alpha = sqrt(1/26), x = 0.01 sweep
    s0 = pure_alpha_beta(math.sqrt(1 / 26), 5 * math.sqrt(1 / 26))
    problem = GmeProblem(rho=evolve_four(s0, AmplitudeModel(1.0, 0.01), 13.5853))
    fast = solve_gme(problem)
    slow = solve_gme(problem, symmetry_reduction=False)
    assert fast.reduced and not slow.reduced
    for sol in (fast, slow):
        assert sol.genuine_negativity == pytest.approx(5 / 26, abs=1e-6)
        assert verify_witness(sol, problem).passed
        assert sol.dual_objective - sol.objective <= sol.residuals["rel_gap"]
    assert fast.genuine_negativity == pytest.approx(slow.genuine_negativity, abs=1e-7)


def test_parity_only_reduction_two_qubits():
    # both coherences nonzero kills the continuous phase symmetry but keeps
    # global parity; the reduced value must still match the eigen oracle
    from entdyn.states import x_state

    rng = np.random.default_rng(41)
    cut = Bipartition.of_left([0], 2)
    for _ in range(25):
        pops = rng.dirichlet(np.ones(4))
        r14 = math.sqrt(pops[0] * pops[3]) * rng.uniform(0.2, 1) * np.exp(2j * np.pi * rng.uniform())
        r23 = math.sqrt(pops[1] * pops[2]) * rng.uniform(0.2, 1) * np.exp(2j * np.pi * rng.uniform())
        rho = x_state(*pops, r14, r23).to_density()
        sol = solve_gme(rho)
        assert sol.reduced
        assert sol.genuine_negativity == pytest.approx(
            negativity(rho, cut), abs=1e-6
        )


@pytest.mark.slow
def test_parity_only_reduction_four_qubits():
    from entdyn.states import x_state

    s0 = x_state(0.35, 0.15, 0.1, 0.4, rho14=0.2 + 0.25j, rho23=0.05 - 0.08j)
    rho = evolve_four(s0, AmplitudeModel(1.0, 0.5), 1.3)
    fast = solve_gme(rho)
    slow = solve_gme(rho, symmetry_reduction=False)
    assert fast.reduced and fast.num_variables == 1024   # parity halves each block
    assert fast.genuine_negativity == pytest.approx(slow.genuine_negativity, abs=1e-6)


def test_real_path_agrees_with_generic_complex_path():
    # a real state with no diagonal-phase symmetry: only the real reduction
    # applies, so the reduced solve differs from the generic one in that alone
    rng = np.random.default_rng(29)
    psi = random_pure_state(8, rng).real
    psi /= np.linalg.norm(psi)
    rho = DensityMatrix(
        0.7 * np.outer(psi, psi) + 0.3 * np.eye(8) / 8, (2, 2, 2), validate=False
    )
    problem = GmeProblem(rho=rho)
    real = solve_gme(problem)
    generic = solve_gme(problem, symmetry_reduction=False)
    assert real.reduced and not generic.reduced
    assert (real.num_variables, generic.num_variables) == (144, 256)
    for sol in (real, generic):
        assert verify_witness(sol, problem).passed
    assert real.genuine_negativity > 0.1
    assert real.genuine_negativity == pytest.approx(generic.genuine_negativity, abs=1e-6)
    np.testing.assert_array_equal(real.witness.imag, 0.0)


def _xstate_four(rho14, rho23):
    from entdyn.states import x_state

    s0 = x_state(0.35, 0.15, 0.1, 0.4, rho14=rho14, rho23=rho23)
    return GmeProblem(rho=evolve_four(s0, AmplitudeModel(1.0, 0.5), 1.3))


def test_reduction_counts_real_and_complex_states():
    # (state, reduced variable count); the generic formulation has 2048
    pure = pure_alpha_beta(math.sqrt(1 / 26), 5 * math.sqrt(1 / 26))
    u = _random_local_unitary(np.random.default_rng(3), 4)
    turned = evolve_four(pure, AmplitudeModel(1.0, 0.01), 8.0).entries
    cases = [
        (GmeProblem(rho=evolve_four(pure, AmplitudeModel(1.0, 0.01), 8.0)), 194),
        (GmeProblem(rho=evolve_four(werner(0.45), AmplitudeModel(1.0, 0.1), 3.96)), 194),
        (_xstate_four(0.2, 0.05), 576),
        (_xstate_four(0.2 + 0.25j, 0.05 - 0.08j), 1024),
        (GmeProblem(rho=DensityMatrix(u @ turned @ u.conj().T, (2,) * 4, validate=False)), 2048),
    ]
    for problem, count in cases:
        real = not np.any(problem.rho.entries.imag)
        assert problem_json_dict(problem)["num_variables"] == count
        form = _formulation(problem, True)
        assert form.real == real
        assert {cl.dtype for cl in form.blocks.classes} == {np.dtype(float if real else complex)}
        generic = _formulation(problem, False)
        assert not generic.real and not generic.reduced and generic.num_vars == 2048
        assert {cl.dtype for cl in generic.blocks.classes} == {np.dtype(complex)}


# pure alpha = sqrt(1/10), x = 0.01 next to its recurrent plateau at |alpha beta| = 0.3.
# All three formulations converge to 0.293765 here, and the public path
# converges at the census point gamma0*t = 33.25 next to it.  If round-off
# makes one fail here, put it back under a strict xfail, never loosen the
# tolerance.
@pytest.mark.parametrize("symmetry_reduction", [
    "unswapped",
    True,
    # the generic path's Schur complement turns singular to working
    # precision late in the run; its corrector solves are refined until
    # their residual is within the tolerance, and it converges in 12
    # iterations with one OpenBLAS thread, as the command line runs, and
    # with two (numpy's default on two cores, which this test process keeps)
    False,
])
def test_known_failure_alpha10_x001_t33(symmetry_reduction):
    s0 = pure_alpha_beta(math.sqrt(1 / 10), math.sqrt(9 / 10))
    problem = GmeProblem(rho=evolve_four(s0, AmplitudeModel(1.0, 0.01), 33.0))
    if symmetry_reduction == "unswapped":
        assert _symmetry_labels(problem, True)[1]
        sol = _solve_on(_unswapped(problem), problem)
    else:
        sol = solve_gme(problem, symmetry_reduction=symmetry_reduction)
    assert verify_witness(sol, problem).passed
    min_cut = min(negativity(problem.rho, cut) for cut in problem.cuts)
    assert sol.genuine_negativity <= min_cut + 1e-6
    assert sol.genuine_negativity == pytest.approx(0.293765, abs=1e-6)


# pure alpha = sqrt(1/2), x = 0.01: the census sweep's batch of grid points
# 144-159 (gamma0*t 36.0-39.75), as a sweep solves it, where the point
# gamma0*t = 38.5 fails with "cone factorization failed: Matrix is not
# positive definite" (with one and with two OpenBLAS threads), the one
# failure of the census of 21 sweeps.  Solved alone it converges, to
# 0.3992332 in 13 iterations.  When the point is fixed, drop the mark
@pytest.mark.xfail(strict=True, raises=SdpNumericalError,
                   reason="known solver failure at a census point of alpha^2 = 1/2")
def test_known_failure_alpha2_x001_t385():
    s0 = pure_alpha_beta(math.sqrt(1 / 2), math.sqrt(1 / 2))
    ts = np.linspace(0.0, 50.0, 201)[144:160]
    states = evolve_four(s0, AmplitudeModel(1.0, 0.01), ts)
    problems = [GmeProblem(rho=DensityMatrix(rho, (2,) * 4, validate=False)) for rho in states]
    solved = solve_gme_batch(problems)
    problem, sol = problems[10], solved[10]
    assert ts[10] == 38.5
    if isinstance(sol, Exception):
        raise sol
    assert verify_witness(sol, problem).passed
    min_cut = min(negativity(problem.rho, cut) for cut in problem.cuts)
    assert sol.genuine_negativity <= min_cut + 1e-6
    assert sol.genuine_negativity == pytest.approx(0.3992332, abs=1e-6)


# --- pair-swap reduction --------------------------------------------------------

def _paper_problem(gamma0_t=13.5853):
    s0 = pure_alpha_beta(math.sqrt(1 / 26), 5 * math.sqrt(1 / 26))
    return GmeProblem(rho=evolve_four(s0, AmplitudeModel(1.0, 0.01), gamma0_t))


def _solve_on(form, problem):
    """``solve_gme``'s solve of ``problem``, on the formulation ``form`` of it."""
    result = solve_block_sdp(form.blocks, _objective_vector(form, problem.rho.entries),
                             _initial_x(form), tolerance=problem.tolerance)
    return _solution_from_result(form, problem, result)


def _unswapped(problem):
    real, _, w_labels, q_labels = _symmetry_labels(problem, True)
    return _formulation_for(problem.rho.num_subsystems, real, False, w_labels, q_labels)


@pytest.mark.parametrize("problem", [
    _paper_problem(),
    GmeProblem(rho=evolve_four(werner(0.45), AmplitudeModel(1.0, 0.1), 3.96)),
], ids=["pure26_freeze", "werner"])
def test_pair_swap_reduction_matches_unswapped(problem):
    real, swap, _, _ = _symmetry_labels(problem, True)
    assert real and swap
    form = _formulation(problem, True)
    plain = _unswapped(problem)
    assert (len(form.blocks), form.num_vars) == (84, 194)
    assert (len(plain.blocks), plain.num_vars) == (140, 344)
    part = form.blocks.partition
    assert (part.border.size, [q.size for q in part.blocks]) == (27, [43, 27, 27, 27, 43])
    assert [(size, k) for size, k, _, _ in form.blocks.arrow.runs] == [(43, 1), (27, 3), (43, 1)]

    swapped, unswapped = solve_gme(problem), _solve_on(plain, problem)
    for sol in (swapped, unswapped):
        assert set(sol.decompositions) == set(problem.cuts)
        report = verify_witness(sol, problem)
        assert report.passed, report.violations
    assert swapped.genuine_negativity == pytest.approx(unswapped.genuine_negativity, abs=1e-7)
    # W(x) is swap invariant for every x, and c . x prices it
    perm = _swap_perm(4)
    x = np.random.default_rng(5).normal(size=form.num_vars)
    w, qs = _matrices_from_x(form, x)
    np.testing.assert_array_equal(w[np.ix_(perm, perm)], w)
    assert len(qs) == 7
    price = float(np.real(np.trace(w @ problem.rho.entries)))
    assert _objective_vector(form, problem.rho.entries) @ x == pytest.approx(price, abs=1e-12)


def _swap_invariant_complex_state():
    from entdyn.states import x_state

    # rho22 = rho33 and a real rho23 keep the swap; the complex rho14 makes it complex
    s0 = x_state(0.35, 0.15, 0.15, 0.35, rho14=0.2 + 0.25j, rho23=0.05)
    return GmeProblem(rho=evolve_four(s0, AmplitudeModel(1.0, 0.5), 1.3))


@pytest.mark.parametrize("problem, count", [
    (_xstate_four(0.2, 0.05), 576),         # rho22 != rho33 breaks the swap
    (_swap_invariant_complex_state(), 1024),
    (GmeProblem(rho=ghz_state(3)), 36),
], ids=["xstate_rho22_ne_rho33", "complex_swap_invariant", "three_qubits"])
def test_pair_swap_reduction_keeps_its_scope(problem, count):
    n = problem.rho.num_subsystems
    entries = problem.rho.entries
    if n == 4:
        perm = _swap_perm(4)
        invariant = np.array_equal(entries[np.ix_(perm, perm)], entries)
        assert invariant == (count != 576)
    labels = _symmetry_labels(problem, True)
    assert labels[1] is False
    form = _formulation_for(n, *labels)
    assert form is _unswapped(problem)
    assert form.num_vars == count and form.kept == list(range(len(problem.cuts)))
    sol = solve_gme(problem)
    assert verify_witness(sol, problem).passed


@pytest.mark.parametrize("swap", [True, False])
def test_initial_dual_is_interior(monkeypatch, swap):
    # the solver needs an interior start, not a feasible one: the dual
    # iterate of its first scaling is Z0 = I in every block, in each size
    # class's dtype, positive definite
    problem = _paper_problem(8.0)
    real, _, w_labels, q_labels = _symmetry_labels(problem, True)
    form = _formulation_for(4, real, swap, w_labels, q_labels)
    nt_scaling, starts = ipm._nt_scaling, []

    def spy(s, z):
        if not starts:
            starts.append([zc.copy() for zc in z])
        return nt_scaling(s, z)

    monkeypatch.setattr(ipm, "_nt_scaling", spy)
    _solve_on(form, problem)
    (zs,) = starts
    for cl, z in zip(form.blocks.classes, zs):
        assert z.dtype == cl.dtype and z.shape == (1, cl.n, cl.d, cl.d)
        np.testing.assert_array_equal(z, np.broadcast_to(np.eye(cl.d), z.shape))
        assert np.linalg.eigvalsh(z).min() > 0.1
    # which is dual infeasible for the state
    c = _objective_vector(form, problem.rho.entries)
    assert np.max(np.abs(c - form.blocks.adjoint(zs)[0])) > 0.1


def test_identity_dual_start_reaches_the_feasible_start_optimum():
    # the random SDP's built-in Z_f is strictly feasible, the identity is
    # not: from it the iteration ends dual feasible, at an optimum that weak
    # duality bounds below by Z_f's objective <A0, Z_f>
    stack, c, x0, z_f = _random_block_sdp(13)
    eye = [np.eye(len(z), dtype=complex) for z in z_f]
    assert np.max(np.abs(c - _adjoint(stack.blocks, eye, c.size))) > 0.1
    got = solve_block_sdp(stack, c, x0)
    assert got.dual_residual <= 1e-7
    # the primal iterates stay strictly feasible, and the dual one is
    # feasible to within the tolerance
    feasible = sum(np.vdot(b.a0, z).real for b, z in zip(stack.blocks, z_f))
    tol = 1e-7 * (1.0 + abs(got.primal_objective) + abs(got.dual_objective))
    assert got.primal_objective >= feasible
    assert got.dual_objective >= feasible - tol


def test_fused_step_lengths_equal_separate_calls():
    # one eigvalsh on both directions of a size class gives bit for bit the
    # steps of one call per direction over all its blocks
    rng = np.random.default_rng(37)

    def separate(v, dmat, fraction):
        w = 1.0 / np.sqrt(v)
        scaled = dmat * w[:, :, None] * w[:, None, :]
        lo = float(np.min(np.linalg.eigvalsh(scaled)))
        return min(1.0, fraction * (np.inf if lo >= -1e-14 else 1.0 / (-lo)))

    for d in (1, 4, 6):
        v = rng.uniform(0.1, 2.0, size=(5, d))
        d_s = rng.normal(size=(5, d, d))
        d_s = d_s + np.swapaxes(d_s, 1, 2)
        psd = np.eye(d)[None] * rng.uniform(0.0, 1.0, size=(5, 1, 1))
        for pair in ((d_s, -d_s), (d_s, psd), (psd, d_s), (0.05 * d_s, -d_s)):
            for fraction in (1.0, _STEP_FRACTION):
                alpha, beta = _step_lengths([v[None]], [pair[0][None]], [pair[1][None]], fraction)
                assert (alpha[0], beta[0]) == (separate(v, pair[0], fraction),
                                               separate(v, pair[1], fraction))


def _unscreened_step_lengths(v_all, ds_all, dz_all, fraction):
    """The step lengths from the smallest eigenvalue of every scaled block."""
    steps = []
    for v, d_s, d_z in zip(v_all, ds_all, dz_all):
        w = 1.0 / np.sqrt(np.concatenate([v, v], axis=-2))
        scaled = np.concatenate([d_s, d_z], axis=-3) * w[..., :, None] * w[..., None, :]
        lows = np.linalg.eigvalsh(scaled).reshape(len(v), 2, -1).min(axis=-1)
        step = np.full(lows.shape, np.inf)
        step[lows < -1e-14] = 1.0 / -lows[lows < -1e-14]
        steps.append(step)
    steps = np.minimum(1.0, fraction * np.minimum.reduce(steps))
    return steps[:, 0], steps[:, 1]


def _near_fraction_stacks(rng, fraction, points):
    """Real and complex classes whose smallest scaled eigenvalues sit a few
    ulps from ``-fraction``, with ties within and across the classes: ``v``
    is 1, and each direction block is ``Q diag(lam) Q^H`` or ``diag(lam)``."""
    ulps = fraction * np.finfo(float).eps * np.arange(-4, 5)
    v_all, ds_all, dz_all = [], [], []
    for d, n, dtype in ((6, 5, float), (4, 6, float), (1, 4, float), (4, 3, complex)):
        sides = []
        for _ in range(2):
            lam = rng.uniform(-0.5, 2.0, size=(points, n, d))
            lam[..., 0] = -fraction + rng.choice(ulps, size=(points, n))
            lam[::2, :, 0] = np.abs(lam[::2, :, 0] + fraction) - fraction   # none below -fraction
            lam[:, 0, 0] = lam[:, 1, 0]                      # a tie within the class
            lam[:, -1, 0] = -fraction                        # and across the classes
            q = np.linalg.qr(rng.normal(size=(points, n, d, d))
                             + (1j * rng.normal(size=(points, n, d, d)) if dtype is complex
                                else 0.0))[0]
            mats = (q * lam[..., None, :]) @ np.swapaxes(q.conj(), -1, -2)
            mats[:, 1::2] = lam[:, 1::2, :, None] * np.eye(d)   # exactly diagonal blocks
            sides.append(0.5 * (mats + np.swapaxes(mats.conj(), -1, -2)))
        v_all.append(np.ones((points, n, d)))
        ds_all.append(sides[0])
        dz_all.append(sides[1])
    return v_all, ds_all, dz_all


def _tight_gershgorin_cases(rng, d=6, tries=64):
    """One-block stacks whose direction block's computed smallest eigenvalue
    lies below its computed Gershgorin bound, each with a fraction between
    the two, so the step is just below 1 and only the screen's margin lets
    the block through.  The block ``D (a I - b (1 - I)) D`` with signs ``D``
    has the bound ``a - (d - 1) b`` as its smallest eigenvalue."""
    cases = []
    for _ in range(tries):
        b = rng.uniform(0.05, 1.0)
        a = -1.0 + (d - 1) * b + rng.uniform(-1e-3, 1e-3)
        signs = rng.choice([-1.0, 1.0], size=d)
        mat = (a * np.eye(d) - b * (np.ones((d, d)) - np.eye(d))) * np.outer(signs, signs)
        low = np.abs(np.tril(mat, -1))
        bound = (np.diagonal(mat) - low.sum(axis=-1) - low.sum(axis=-2)).min()
        fraction = -np.nextafter(bound, -np.inf)
        if fraction * (1.0 / -np.linalg.eigvalsh(mat).min()) < 1.0:
            cases.append((([np.ones((1, 1, d))], [mat[None, None]], [np.zeros((1, 1, d, d))]),
                          fraction))
    return cases


def test_screened_step_lengths_equal_unscreened(monkeypatch):
    # the Gershgorin screen leaves out blocks that cannot set the step, and
    # the steps are those of eigvalsh on every block, bit for bit: on random
    # real and complex classes at several scales, and on blocks whose
    # smallest eigenvalue is a few ulps from -fraction, with exact ties
    rng = np.random.default_rng(41)
    points = 6
    scale = np.array([1e-3, 0.05, 0.3, 1.0, 3.0, 30.0])[:, None, None, None]
    v_all, ds_all, dz_all = [], [], []
    for d, n, dtype in ((6, 20, float), (4, 32, float), (1, 32, float), (5, 7, complex)):
        v_all.append(rng.uniform(0.05, 2.0, size=(points, n, d)))
        for out in (ds_all, dz_all):
            mats = _random_hermitian(rng, points, n, d, d) / (2 * d)
            mats = mats if dtype is complex else mats.real
            out.append(scale * (mats + np.eye(d) * rng.uniform(0.0, 1.0, size=(points, n, 1, 1))))
    cases = [((v_all, ds_all, dz_all), fraction, "random") for fraction in (1.0, _STEP_FRACTION)]
    cases += [(_near_fraction_stacks(rng, fraction, points), fraction, "near")
              for fraction in (1.0, _STEP_FRACTION)]
    tight = _tight_gershgorin_cases(rng)
    assert tight, "no block's eigvalsh result fell below its Gershgorin bound"
    cases += [(case, fraction, "tight") for case, fraction in tight]

    eigvalsh, solved = np.linalg.eigvalsh, []

    def counted(a, *args, **kw):
        solved.append(a.shape[0])
        return eigvalsh(a, *args, **kw)

    for case, fraction, kind in cases:
        want = _unscreened_step_lengths(*case, fraction)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        got = _step_lengths(*case, fraction)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
            # random steps both below 1 and cut to 1; near -fraction, within ulps of 1
            if kind == "random":
                assert np.any(w < 1.0) and np.any(w == 1.0)
            else:
                assert np.all(np.abs(w - 1.0) < 1e-14)
        if kind == "tight":
            assert want[0][0] < 1.0 and want[1][0] == 1.0
    # the screen did leave blocks out
    total = sum(2 * v.shape[0] * v.shape[1] for case, _, _ in cases for v in case[0])
    assert 0 < sum(solved) < total / 2


def test_witness_certificate_sound_on_biseparable_states():
    problem = GmeProblem(rho=ghz_state(3))
    sol = solve_gme(problem)
    assert sol.genuine_negativity > 0.4
    rng = np.random.default_rng(31)
    cuts = enumerate_bipartitions(3)
    worst = 0.0
    for _ in range(1000):
        # random mixture of per-cut product pure states
        parts = []
        weights = rng.dirichlet(np.ones(3))
        for cut in cuts:
            da, db = 2 ** len(cut.left), 2 ** len(cut.right)
            psi_a = random_pure_state(da, rng)
            psi_b = random_pure_state(db, rng)
            block = np.kron(np.outer(psi_a, psi_a.conj()), np.outer(psi_b, psi_b.conj()))
            # reorder (left qubits, right qubits) back to 0..n-1
            perm = list(cut.left) + list(cut.right)
            inv = np.argsort(perm)
            block = _permute(block, inv, 3)
            parts.append(block)
        rho_bs = sum(w * p for w, p in zip(weights, parts))
        val = float(np.real(np.trace(sol.witness @ rho_bs)))
        worst = min(worst, val)
    assert worst >= -10 * problem.tolerance


def _permute(mat, perm, n):
    t = mat.reshape((2,) * (2 * n))
    axes = list(perm) + [p + n for p in perm]
    return t.transpose(axes).reshape(2**n, 2**n)


# --- verification and reporting --------------------------------------------------

def test_verify_witness_accepts_solver_output():
    problem = GmeProblem(rho=ghz_state(3))
    sol = solve_gme(problem)
    report = verify_witness(sol, problem)
    assert report.passed, report.violations
    assert report.recomputed_objective == pytest.approx(sol.objective, abs=1e-9)
    assert all(v["decomposition_residual"] <= 1e-6 for v in report.per_cut.values())


def test_verify_witness_flags_corrupted_solution():
    problem = GmeProblem(rho=ghz_state(3))
    sol = solve_gme(problem)
    sol.witness = sol.witness + 0.1 * np.eye(8)
    report = verify_witness(sol, problem)
    # objective shifts by exactly the added trace term
    assert report.recomputed_objective == pytest.approx(sol.objective + 0.1, abs=1e-9)
    assert not report.passed
    assert any("||W - (P + Q^T_M)||" in v for v in report.violations)


def test_verify_witness_flags_bound_violation():
    problem = GmeProblem(rho=ghz_state(3))
    sol = solve_gme(problem)
    cut = problem.cuts[0]
    p, q = sol.decompositions[cut]
    sol.decompositions[cut] = (p, q + 0.3 * np.eye(8))
    report = verify_witness(sol, problem)
    assert not report.passed
    assert any("above 1" in v for v in report.violations)


def test_solution_residuals_are_small():
    # the solver's own three numbers; verify_witness is the audit of the bounds
    problem = GmeProblem(rho=ghz_state(3))
    sol = solve_gme(problem)
    assert set(sol.residuals) == {"rel_gap", "duality_gap", "dual_residual"}
    for key, val in sol.residuals.items():
        assert val <= 1e-5, (key, val)
    assert verify_witness(sol, problem).passed


def test_nonconvergence_reported_with_bound(monkeypatch):
    # GHZ(3)'s witness SDP capped one iteration short of convergence, which
    # is past the first dual-feasible iterate of the identity start
    problem = GmeProblem(rho=ghz_state(3))
    form = _formulation(problem, True)
    sdp = form.blocks, _objective_vector(form, problem.rho.entries), _initial_x(form)
    iterations = solve_block_sdp(*sdp).iterations
    assert iterations == solve_gme(problem).iterations
    monkeypatch.setattr(ipm, "_MAX_ITERATIONS", iterations - 1)
    with pytest.raises(SdpNonConvergenceError) as err:
        solve_block_sdp(*sdp)
    assert err.value.best_bound is not None
    assert err.value.best_bound <= -0.4  # valid lower bound on the optimum


def test_problem_json_dump():
    problem = GmeProblem(rho=ghz_state(3))
    doc = problem_json_dict(problem)
    assert doc["num_qubits"] == 3
    assert doc["dimension"] == 8
    assert len(doc["cuts"]) == 3
    assert doc["num_variables"] > 0
    roles = {b["role"] for b in doc["blocks"]}
    assert roles == {"p_lower", "p_upper", "q_lower", "q_upper"}
    assert set(doc["objective_matrix"]) == {"dims", "re", "im"}


def test_gme_problem_validation():
    with pytest.raises(ValueError):
        GmeProblem(rho=DensityMatrix(np.eye(3) / 3, (3,)))
    with pytest.raises(ValueError):
        GmeProblem(rho=ghz_state(3), tolerance=0.5)


# --- batched solves -------------------------------------------------------------

def test_mixed_batch_matches_single_solves():
    # freeze-window points, the t = 0 point, whose symmetry labels differ
    # from the others', a Werner point and the public alpha^2 = 1/10,
    # x = 0.01, t = 33 point: two formulations, so two interior-point runs
    s0 = pure_alpha_beta(math.sqrt(1 / 10), math.sqrt(9 / 10))
    problems = [_paper_problem(t) for t in (0.0, 9.05687, 13.5853, 31.699, 40.7559)] + [
        GmeProblem(rho=evolve_four(werner(0.45), AmplitudeModel(1.0, 0.1), 3.96)),
        GmeProblem(rho=evolve_four(s0, AmplitudeModel(1.0, 0.01), 33.0)),
    ]
    assert len({_symmetry_labels(p, True) for p in problems}) == 2
    for problem, got in zip(problems, solve_gme_batch(problems)):
        want = solve_gme(problem)
        assert got.iterations == want.iterations
        assert got.genuine_negativity == pytest.approx(want.genuine_negativity,
                                                       abs=10 * problem.tolerance)
        assert verify_witness(got, problem).passed


def test_equal_labels_share_one_formulation_and_one_batch(monkeypatch):
    # two freeze-window points with equal symmetry labels find the same
    # formulation object and run as one batch; the same state at another
    # tolerance is a second group, after the first
    a, b = _paper_problem(9.05687), _paper_problem(13.5853)
    c = GmeProblem(rho=b.rho, tolerance=3e-7)
    assert _symmetry_labels(a, True) == _symmetry_labels(b, True)
    assert _formulation(a) is _formulation(b) is _formulation(c)
    calls = []

    def spy(stack, c_vecs, x0, tolerance):
        calls.append((c_vecs.shape[0], tolerance))
        return solve_block_sdp_batch(stack, c_vecs, x0, tolerance=tolerance)

    monkeypatch.setattr(witness, "solve_block_sdp_batch", spy)
    solved = solve_gme_batch([a, c, b])
    assert calls == [(2, a.tolerance), (1, 3e-7)]
    assert all(verify_witness(sol, p).passed for sol, p in zip(solved, (a, c, b)))


def test_every_four_qubit_problem_has_the_one_cut_tuple():
    problems = [_paper_problem(1.0), _paper_problem(8.0), GmeProblem(rho=ghz_state(4))]
    assert all(p.cuts is enumerate_bipartitions(4) for p in problems)
    assert type(enumerate_bipartitions(4)) is tuple


@pytest.mark.parametrize("kind, message", [
    ("primal", "cone factorization failed: Matrix is not positive definite"),
    ("dual", "cone factorization failed: dual iterate lost definiteness"),
    ("newton", "indefinite Newton system: Schur complement not positive definite"),
], ids=["primal", "dual", "newton"])
def test_failed_point_of_a_batch_gets_its_own_error(monkeypatch, kind, message):
    problems = [_paper_problem(t) for t in (8.0, 13.5853, 40.7559)]
    form = _formulation(problems[0], True)
    entries = [p.rho.entries for p in problems]
    c = np.stack([_objective_vector(form, e) for e in entries])
    x0 = np.tile(_initial_x(form), (len(problems), 1))
    if kind == "primal":
        # the slack of x = 0 is singular
        x0[1] = 0.0
    elif kind == "dual":
        # the middle point's first dual iterate is negated
        nt_scaling, calls = ipm._nt_scaling, 0

        def negated(s, z):
            nonlocal calls
            calls += 1
            if calls == 1:
                z = [zc.copy() for zc in z]
                for zc in z:
                    zc[1] *= -1.0
            return nt_scaling(s, z)

        monkeypatch.setattr(ipm, "_nt_scaling", negated)
    else:
        # the middle point's first Schur complement gets a negative diagonal
        schur = StackedBlocks.schur

        def negated(self, jinv, work):
            out = schur(self, jinv, work)
            if len(out) == 3:
                out[1, self.arrow._diagonal] *= -1.0
            return out

        monkeypatch.setattr(StackedBlocks, "schur", negated)

    results = solve_block_sdp_batch(form.blocks, c, x0)
    err = results[1]
    assert isinstance(err, SdpNumericalError)
    assert str(err) == message
    # the identity start is dual infeasible, so a failure at iteration 0 has no bound
    assert err.iterations == 0 and err.best_bound is None
    # the others run as a batch without the failed point
    others = solve_block_sdp_batch(form.blocks, c[[0, 2]], x0[[0, 2]])
    for got, want in zip(results[::2], others):
        assert got.iterations == want.iterations
        np.testing.assert_array_equal(got.x, want.x)


def test_generic_formulation_peak_memory():
    # the generic formulation of 2048 variables, its blocks stacked into size
    # classes, holds the basis as unit coordinates only: as dense
    # (m_b, 16, 16) matrices it would take 42 MiB
    problem = _paper_problem(8.0)
    labels = _symmetry_labels(problem, False)
    tracemalloc.start()
    try:
        form = _formulation_for.__wrapped__(4, *labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert form.num_vars == 2048
    assert peak < 8 * 2**20


def test_generic_solve_peak_memory():
    # one unreduced solve of 2048 variables, its formulation built inside:
    # the blocks are unit coordinates, and no scaled basis or Gram array is
    # held while it iterates
    problem = _paper_problem(8.0)
    labels = _symmetry_labels(problem, False)
    tracemalloc.start()
    try:
        form = _formulation_for.__wrapped__(4, *labels)
        sol = _solve_on(form, problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert form.num_vars == 2048
    assert peak < 100 * 2**20


def test_generic_solve_factors_in_its_run_buffers(monkeypatch):
    # after the first iteration of an unreduced solve no buffer of the run is
    # made afresh, and the factor's inverses and couplings are written into
    # them, so that its iterations allocate no large arrays
    problem = _paper_problem(8.0)
    form = _formulation(problem, False)
    seen = []

    def spy(schur, lay, failed, work):
        factor = _factor_arrow(schur, lay, failed, work)
        views = [inv for inv, _ in lay.runs_of(factor.data)] + [lay.couplings(factor.data)]
        seen.append((dict(work), [np.shares_memory(v, work["k"]) for v in views]))
        return factor

    monkeypatch.setattr(ipm, "_factor_arrow", spy)
    sol = _solve_on(form, problem)
    assert len(seen) == sol.iterations > 2
    # one run of seven diagonal blocks of 256
    assert [(size, k) for size, k, _, _ in form.blocks.arrow.runs] == [(256, 7)]
    first = seen[0][0]
    for work, shared in seen:
        assert all(shared)
        assert work.keys() == first.keys()
        assert all(work[key] is first[key] for key in first)


def test_generic_schur_assembly_memory_budget():
    # on the 2048-variable form: the int32 term list, its build set by set
    # and one Schur assembly through chunk-sized buffers (each was 27.7 MB,
    # 60.2 MB and 40.9 MB with an intp list applied in one piece)
    _, stack, jinv = _witness_stack(False, 1, 5)
    stack.arrow   # the layout is the formulation's, not the term list's
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        terms = stack._terms
        held, build = (b - start for b in tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        stack.schur(jinv, {})
        assembly = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert terms[0].size == 1149568
    assert held <= 20e6 and build <= 30e6 and assembly <= 30e6


def test_freeze_batch_peak_memory():
    # the 9 points of the freeze-sweep grid that share one formulation
    problems = [_paper_problem(t) for t in np.linspace(0.0, 40.75, 406)[45::45]]
    solve_gme(problems[0])   # the shared formulation is built once, outside
    tracemalloc.start()
    try:
        batch = solve_gme_batch(problems)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not any(isinstance(sol, SdpError) for sol in batch)
    assert peak < 5 * 2**20
