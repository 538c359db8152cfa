import math

import numpy as np
import pytest

from entdyn.amplitude import AmplitudeModel
from entdyn.entanglement import negativity
from entdyn.evolution import evolve_four
from entdyn.gme import (
    GmeProblem,
    SdpNonConvergenceError,
    enumerate_bipartitions,
    negativity_via_gme,
    problem_json_dict,
    solve_gme,
    verify_witness,
)
from entdyn.gme.ipm import (
    SchurPartition,
    SdpBlock,
    SdpNumericalError,
    _factor_arrow,
    cho_solve,
    solve_block_sdp,
)
from entdyn.gme.witness import (
    _embed,
    _formulation_for,
    _matrices_from_x,
    _objective_vector,
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

def test_solver_scalar_bound():
    # minimize x subject to x >= 1
    blocks = [SdpBlock(a0=np.eye(1, dtype=complex), a=np.ones((1, 1, 1), dtype=complex),
                       var_idx=np.array([0]))]
    res = solve_block_sdp(blocks, np.array([1.0]), np.array([2.0]),
                          [np.array([[1.0 + 0j]])])
    assert res.primal_objective == pytest.approx(1.0, abs=1e-6)
    assert res.dual_objective == pytest.approx(1.0, abs=1e-6)


def test_solver_interval():
    # minimize -x subject to 0 <= x <= 3, via two 1x1 blocks
    blocks = [
        SdpBlock(a0=np.zeros((1, 1), dtype=complex), a=np.ones((1, 1, 1), dtype=complex),
                 var_idx=np.array([0])),
        SdpBlock(a0=-3.0 * np.eye(1, dtype=complex), a=-np.ones((1, 1, 1), dtype=complex),
                 var_idx=np.array([0])),
    ]
    res = solve_block_sdp(blocks, np.array([-1.0]), np.array([1.5]),
                          [np.array([[0.5 + 0j]]), np.array([[0.5 + 0j]])])
    assert res.primal_objective == pytest.approx(-3.0, abs=1e-6)


def _random_hermitian(rng, *shape):
    g = rng.normal(size=(*shape, 2)) @ np.array([1.0, 1j])
    return g + np.swapaxes(g.conj(), -1, -2)


def test_solver_real_embedding_matches_complex_blocks():
    # random Hermitian SDP with a strictly feasible pair built in: S(x0) = P
    # and <A_k, Z0> = c_k with P, Z0 positive definite; two blocks share a
    # shape, so they run as one batched group
    rng = np.random.default_rng(13)
    m = 7
    layout = [(3, [0, 1, 2, 3]), (3, [2, 4, 5, 6]), (2, [0, 5, 6])]
    x0 = rng.normal(size=m)
    blocks, z0 = [], []
    c = np.zeros(m)
    for d, var_idx in layout:
        a = _random_hermitian(rng, len(var_idx), d, d)
        g = _random_hermitian(rng, d, d)
        p = g @ g / d + np.eye(d)
        blocks.append(SdpBlock(a0=np.einsum("k,kij->ij", x0[var_idx], a) - p, a=a,
                               var_idx=np.array(var_idx)))
        h = _random_hermitian(rng, d, d)
        z0.append(h @ h / d + np.eye(d))
        c[var_idx] += np.einsum("kij,ji->k", a, z0[-1]).real
    embedded = [SdpBlock(a0=_embed(b.a0), a=np.stack([_embed(ak) for ak in b.a]),
                         var_idx=b.var_idx) for b in blocks]
    assert all(b.a.dtype == np.float64 for b in embedded)

    # <embed(X), embed(Y)> = 2 <X, Y>, so the halved embedded Z0 keeps the
    # dual equalities; both runs take the same iterates up to round-off
    direct = solve_block_sdp(blocks, c, x0, z0)
    real = solve_block_sdp(embedded, c, x0, [0.5 * _embed(z) for z in z0])
    assert direct.converged and real.converged
    assert real.iterations == direct.iterations
    assert real.primal_objective == pytest.approx(direct.primal_objective, abs=1e-8)
    assert real.dual_objective == pytest.approx(direct.dual_objective, abs=1e-8)


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


@pytest.mark.parametrize("border_size, block_sizes", [(6, (5, 7, 4)), (0, (12,)), (9, (1,))])
def test_arrow_factor_solves_like_dense(border_size, block_sizes):
    rng = np.random.default_rng(11)
    mat, part = _random_arrowhead(rng, border_size, block_sizes)
    rhs = rng.normal(size=mat.shape[0])
    factor = _factor_arrow(mat, part)
    assert factor.shift == 0.0
    np.testing.assert_allclose(cho_solve(factor, rhs), np.linalg.solve(mat, rhs),
                               rtol=1e-10, atol=1e-12)


def test_arrow_factor_climbs_the_shift_ladder():
    rng = np.random.default_rng(5)
    mat, part = _random_arrowhead(rng, 5, (6, 6))
    scale = np.trace(mat) / mat.shape[0]
    # smallest eigenvalue -5e-13 * scale: indefinite at round-off only, so
    # the first rung (+1e-12 * scale) makes it positive definite
    lam_min = np.linalg.eigvalsh(mat)[0]
    mat = mat - (lam_min + 5e-13 * scale) * np.eye(mat.shape[0])
    scale = np.trace(mat) / mat.shape[0]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(mat)
    factor = _factor_arrow(mat, part)
    assert factor.shift == pytest.approx(1e-12 * scale, rel=1e-12)
    rhs = rng.normal(size=mat.shape[0])
    x = cho_solve(factor, rhs)
    shifted = mat + factor.shift * np.eye(mat.shape[0])
    backward = np.linalg.norm(shifted @ x - rhs) / (np.linalg.norm(shifted, 2) * np.linalg.norm(x))
    assert backward < 1e-12


def test_arrow_factor_rejects_indefinite_schur():
    rng = np.random.default_rng(6)
    mat, part = _random_arrowhead(rng, 3, (4, 4))
    mat[0, 0] = -1.0
    with pytest.raises(SdpNumericalError, match="indefinite Newton system"):
        _factor_arrow(mat, part)


def test_partition_check_rejects_mismatched_partitions():
    blocks = [SdpBlock(a0=np.zeros((1, 1), dtype=complex), a=np.ones((2, 1, 1), dtype=complex),
                       var_idx=np.array([1, 2]))]
    cases = {
        "couples two diagonal blocks": SchurPartition(np.array([0]), (np.array([1]), np.array([2]))),
        "twice": SchurPartition(np.array([0, 1]), (np.array([1, 2]),)),
        "misses": SchurPartition(np.array([0]), (np.array([1]),)),
    }
    for message, part in cases.items():
        with pytest.raises(ValueError, match=message):
            part.check(3, blocks)
    SchurPartition(np.array([0]), (np.array([1, 2]),)).check(3, blocks)


@pytest.mark.parametrize("gamma0_t", [9.05687, 13.5853, 31.699, 40.7559])
def test_freeze_window_points_converge_with_certificate(gamma0_t):
    # points of the alpha = sqrt(1/26), x = 0.01 sweep whose late Schur
    # matrices are mostly indefinite at round-off and need the shift ladder
    s0 = pure_alpha_beta(math.sqrt(1 / 26), 5 * math.sqrt(1 / 26))
    problem = GmeProblem(rho=evolve_four(s0, AmplitudeModel(1.0, 0.01), gamma0_t))
    sol = solve_gme(problem)
    assert sol.converged and sol.reduced
    assert verify_witness(sol, problem).passed
    assert sol.dual_objective <= sol.objective
    if gamma0_t != 31.699:      # the freeze window ends just before 31.699
        assert sol.genuine_negativity == pytest.approx(5 / 26, abs=1e-6)


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
    form = _formulation_for(3, problem.cuts, *_symmetry_labels(problem, symmetry_reduction))
    assert form.reduced == symmetry_reduction
    x = rng.normal(size=form.num_vars)
    w, qs = _matrices_from_x(form, x)
    assert len(qs) == len(problem.cuts)
    np.testing.assert_array_equal(w, w.conj().T)
    price = float(np.real(np.trace(w @ rho.entries)))
    assert _objective_vector(form, rho.entries) @ x == pytest.approx(price, abs=1e-12)


# --- oracle values -------------------------------------------------------------

def test_bell_matches_negativity():
    assert negativity_via_gme(bell_pair().to_density()) == pytest.approx(0.5, abs=1e-6)


def test_werner_matches_negativity():
    assert negativity_via_gme(werner(0.45).to_density()) == pytest.approx(0.0875, abs=1e-6)


def test_separable_two_qubit_is_zero():
    rng = np.random.default_rng(3)
    rho = tensor(random_density_matrix((2,), rng), random_density_matrix((2,), rng))
    assert negativity_via_gme(rho) == pytest.approx(0.0, abs=1e-6)


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
        worst = max(worst, abs(negativity_via_gme(rho) - negativity(rho, cut).value))
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
        cap = min(negativity(rho, cut).value for cut in enumerate_bipartitions(3))
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
        assert sol.converged
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
            negativity(rho, cut).value, abs=1e-6
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


def test_real_embedding_agrees_with_complex_path():
    rng = np.random.default_rng(29)
    # a state with genuinely complex coherences
    psi = random_pure_state(8, rng)
    rho = DensityMatrix(
        0.7 * np.outer(psi, psi.conj()) + 0.3 * np.eye(8) / 8, (2, 2, 2), validate=False
    )
    direct = solve_gme(rho)
    embedded = solve_gme(rho, real_embedding=True)
    assert direct.genuine_negativity == pytest.approx(embedded.genuine_negativity, abs=1e-6)
    ghz_emb = solve_gme(ghz_state(3), real_embedding=True)
    assert ghz_emb.genuine_negativity == pytest.approx(0.5, abs=1e-4)


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
    sol = solve_gme(ghz_state(3))
    for key, val in sol.residuals.items():
        assert val <= 1e-5, (key, val)


def test_nonconvergence_reported_with_bound():
    with pytest.raises(SdpNonConvergenceError) as err:
        solve_gme(ghz_state(3), max_iterations=2)
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
    cut = Bipartition.of_left([0], 3)
    with pytest.raises(ValueError):
        GmeProblem(rho=ghz_state(3), cuts=(cut, cut))
