import math

import numpy as np
import pytest

from entdyn.states import (
    Bipartition,
    DensityMatrix,
    StateValidationError,
    XState,
    bell_pair,
    biseparable_bell_mixture,
    ghz_state,
    kay_state,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    pure_alpha_beta,
    random_density_matrix,
    tensor,
    werner,
    x_state,
    x_state_is_entangled,
)

RNG = np.random.default_rng(20240811)


def random_x_state(rng) -> XState:
    pops = rng.dirichlet(np.ones(4))
    r14 = math.sqrt(pops[0] * pops[3]) * rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    r23 = math.sqrt(pops[1] * pops[2]) * rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return XState(*pops, r14, r23)


# --- constructors -----------------------------------------------------------

def test_vacuum_is_valid():
    s = x_state(1, 0, 0, 0)
    assert not x_state_is_entangled(s)
    dm = s.to_density()
    assert dm.entries[0, 0] == 1.0


def test_pure_state_density_matrix():
    s = x_state(1 / 3, 0, 0, 2 / 3, rho14=math.sqrt(2) / 3)
    assert s.to_density().purity() == pytest.approx(1.0, abs=1e-12)


def test_x_state_rejects_bad_coherence():
    with pytest.raises(StateValidationError, match="rho11\\*rho44"):
        x_state(0.25, 0.25, 0.25, 0.25, rho14=0.3)
    with pytest.raises(StateValidationError, match="rho22\\*rho33"):
        x_state(0.25, 0.25, 0.25, 0.25, rho23=0.3)


def test_x_state_array_fields_checked_entry_by_entry():
    quarter = np.full(3, 0.25)
    s = XState(quarter, quarter, quarter, quarter, np.array([0.1, 0.25j, 0.0]))
    assert s.rho14.shape == (3,)
    # one negative population among valid entries; the message names the worst
    with pytest.raises(StateValidationError, match="rho22 = -0.02 is negative"):
        XState(np.array([0.25, 0.26, 0.27]), np.array([0.25, -0.01, -0.02]),
               np.array([0.25, 0.25, 0.25]), np.array([0.25, 0.5, 0.5]))
    # one entry breaking positivity of the outer block
    with pytest.raises(StateValidationError,
                       match=r"rho11\*rho44 = 0.0625 < \|rho14\|\^2 = 0.09"):
        XState(quarter, quarter, quarter, quarter, np.array([0.1, 0.3j, 0.2]))
    with pytest.raises(StateValidationError, match=r"rho22\*rho33"):
        XState(quarter, quarter, quarter, quarter, 0.0, np.array([0.0, 0.0, 0.26]))
    with pytest.raises(StateValidationError, match="sum to 1.01"):
        XState(np.array([0.25, 0.26]), quarter[:2], quarter[:2], quarter[:2])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["rho11", "rho22", "rho33", "rho44", "rho14", "rho23"])
def test_x_state_rejects_non_finite_fields(field, bad):
    # every check is a comparison, which NaN passes; the field is named
    fields = dict(rho11=0.25, rho22=0.25, rho33=0.25, rho44=0.25, rho14=0.0, rho23=0.0)
    with pytest.raises(StateValidationError, match=f"{field} must be finite"):
        XState(**{**fields, field: bad})
    # on the array path one bad entry among valid ones is enough
    column = np.array([fields[field], bad, fields[field]])
    with pytest.raises(StateValidationError, match=f"{field} must be finite"):
        XState(**{**{k: np.full(3, v) for k, v in fields.items()}, field: column})


def test_x_state_rejects_bad_trace():
    with pytest.raises(StateValidationError, match="sum to"):
        x_state(0.5, 0.5, 0.5, 0.5)


def test_entanglement_criterion():
    assert x_state_is_entangled(bell_pair())
    assert not x_state_is_entangled(x_state(1, 0, 0, 0))
    assert not x_state_is_entangled(werner(1 / 3))
    assert x_state_is_entangled(werner(0.34))


def test_pure_alpha_beta_values():
    s = pure_alpha_beta(1.0, 0.0)
    assert (s.rho11, s.rho44, s.rho14) == (1.0, 0.0, 0.0)
    s = pure_alpha_beta(math.sqrt(1 / 3), math.sqrt(2 / 3))
    assert s.rho14 == pytest.approx(math.sqrt(2) / 3)
    s = pure_alpha_beta(math.sqrt(1 / 26), 5 * math.sqrt(1 / 26))
    assert s.rho14 == pytest.approx(5 / 26)
    with pytest.raises(StateValidationError):
        pure_alpha_beta(0.9, 0.9)


def test_werner_family():
    s = werner(0.0)
    assert s.rho11 == s.rho22 == s.rho33 == s.rho44 == 0.25
    s = werner(1.0)
    assert (s.rho11, s.rho14) == (0.5, 0.5)
    s = werner(0.45)
    assert s.rho11 == pytest.approx(1.45 / 4)
    with pytest.raises(StateValidationError):
        werner(1.2)


def test_kay_state():
    dm = kay_state(2.0)
    assert np.trace(dm.entries).real == pytest.approx(1.0, abs=1e-12)
    dm = kay_state(2.5)
    for cut in ([0], [1], [2]):
        pt = partial_transpose(dm, Bipartition.of_left(cut, 3))
        assert np.linalg.eigvalsh(pt)[0] >= -1e-12
    with pytest.raises(StateValidationError):
        kay_state(1.9)


def test_biseparable_bell_mixture_is_npt_everywhere():
    dm = biseparable_bell_mixture()
    assert np.trace(dm.entries).real == pytest.approx(1.0, abs=1e-12)
    for cut in ([0], [1], [2]):
        pt = partial_transpose(dm, Bipartition.of_left(cut, 3))
        assert np.linalg.eigvalsh(pt)[0] < -1e-3


# --- density-matrix invariants ----------------------------------------------

def test_density_matrix_validation():
    with pytest.raises(StateValidationError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 0.5j], [0.5j, 0.5]]), (2,))
    with pytest.raises(StateValidationError, match="trace"):
        DensityMatrix(np.eye(2), (2,))
    with pytest.raises(StateValidationError, match="eigenvalue"):
        DensityMatrix(np.diag([1.5, -0.5]), (2,))
    with pytest.raises(StateValidationError, match="dims"):
        DensityMatrix(np.eye(4) / 4, (2, 3))


def test_constructors_yield_valid_density_matrices():
    rng = np.random.default_rng(5)
    mats = [
        bell_pair().to_density(),
        werner(0.45).to_density(),
        kay_state(3.0),
        biseparable_bell_mixture(),
        ghz_state(3),
        random_x_state(rng).to_density(),
    ]
    for dm in mats:
        DensityMatrix(dm.entries, dm.dims)  # revalidate


def test_xstate_density_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = random_x_state(rng)
        back = XState.from_density(s.to_density())
        assert back.rho11 == pytest.approx(s.rho11, abs=1e-14)
        assert back.rho14 == pytest.approx(s.rho14, abs=1e-14)
        assert back.rho23 == pytest.approx(s.rho23, abs=1e-14)


def test_from_density_rejects_non_x():
    dm = random_density_matrix((2, 2), np.random.default_rng(3))
    with pytest.raises(StateValidationError, match="off-X"):
        XState.from_density(dm)


@pytest.mark.parametrize("key, bad", [
    ("re", "1"), ("re", False), ("im", None), ("re", [0.5]), ("dims", 2.0), ("dims", True),
    ("re", math.nan), ("im", math.inf), ("re", -math.inf),
])
def test_json_matrix_takes_only_json_numbers(key, bad):
    # entries must be JSON numbers and dims JSON integers: nothing is coerced,
    # and the NaN and Infinity tokens that json.load reads are not numbers
    doc = bell_pair().to_density().to_json_dict()
    if key == "dims":
        doc["dims"] = [bad, 2]
    else:
        doc[key][0][0] = bad
    with pytest.raises(StateValidationError, match="malformed density-matrix document"):
        DensityMatrix.from_json_dict(doc)


def test_json_round_trip():
    dm = random_density_matrix((2, 2), np.random.default_rng(9))
    doc = dm.to_json_dict()
    assert set(doc) == {"dims", "re", "im"}
    back = DensityMatrix.from_json_dict(doc)
    assert np.allclose(back.entries, dm.entries)
    assert back.dims == dm.dims


# --- tensor / partial trace / partial transpose ------------------------------

def test_tensor_of_maximally_mixed():
    half = DensityMatrix(np.eye(2) / 2, (2,))
    out = tensor(half, half)
    assert out.dims == (2, 2)
    assert np.allclose(out.entries, np.eye(4) / 4)


def test_tensor_round_trip_partial_trace():
    rng = np.random.default_rng(1)
    rho = random_density_matrix((2, 2), rng)
    ket0 = DensityMatrix(np.diag([1.0, 0.0]), (2,))
    prod = tensor(rho, ket0)
    assert np.allclose(partial_trace(prod, [0, 1]).entries, rho.entries, atol=1e-12)
    assert np.allclose(partial_trace(prod, [2]).entries, ket0.entries, atol=1e-12)


def test_tensor_rank_multiplies():
    s = pure_alpha_beta(math.sqrt(0.4), math.sqrt(0.6)).to_density()
    vac = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]), (2, 2))
    full = tensor(s, vac)
    assert np.trace(full.entries).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.matrix_rank(full.entries, tol=1e-10) == np.linalg.matrix_rank(
        s.entries, tol=1e-10
    )


def test_partial_trace_of_bell_is_maximally_mixed():
    dm = bell_pair().to_density()
    for keep in ([0], [1]):
        red = partial_trace(dm, keep)
        assert np.allclose(red.entries, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_validation():
    dm = bell_pair().to_density()
    with pytest.raises(ValueError):
        partial_trace(dm, [])
    with pytest.raises(ValueError):
        partial_trace(dm, [2])


def test_partial_trace_preserves_trace_and_psd():
    rng = np.random.default_rng(17)
    for _ in range(10):
        dm = random_density_matrix((2, 2, 2), rng)
        red = partial_trace(dm, [0, 2])
        assert np.trace(red.entries).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(red.entries)[0] >= -1e-12


def test_partial_transpose_involution_and_trace():
    rng = np.random.default_rng(23)
    dm = random_density_matrix((2, 2, 2), rng)
    cut = Bipartition.of_left([0, 2], 3)
    pt = partial_transpose(dm, cut)
    assert np.trace(pt).real == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(pt, pt.conj().T)
    again = partial_transpose(DensityMatrix(pt, dm.dims, validate=False), cut)
    assert np.allclose(again, dm.entries)


def test_partial_transpose_bell_spectrum():
    pt = partial_transpose(bell_pair().to_density(), Bipartition.of_left([0], 2))
    assert np.allclose(sorted(np.linalg.eigvalsh(pt)), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_transpose_product_state_stays_psd():
    rng = np.random.default_rng(29)
    prod = tensor(
        tensor(random_density_matrix((2,), rng), random_density_matrix((2,), rng)),
        random_density_matrix((2,), rng),
    )
    for left in ([0], [1], [2], [0, 1], [0, 2]):
        pt = partial_transpose(prod, Bipartition.of_left(left, 3))
        assert np.linalg.eigvalsh(pt)[0] >= -1e-12


def test_partial_transpose_sides_share_spectrum():
    rng = np.random.default_rng(31)
    dm = random_density_matrix((2, 2, 2), rng)
    for left in ([0], [1], [0, 2]):
        cut = Bipartition.of_left(left, 3)
        flipped = Bipartition(cut.right, cut.left)
        ev_left = np.linalg.eigvalsh(partial_transpose(dm, cut))
        ev_right = np.linalg.eigvalsh(partial_transpose(dm, flipped))
        assert np.allclose(ev_left, ev_right, atol=1e-10)


def test_permute_subsystems_round_trip():
    rng = np.random.default_rng(37)
    dm = random_density_matrix((2, 2, 2), rng)
    out = permute_subsystems(permute_subsystems(dm, (2, 0, 1)), (1, 2, 0))
    assert np.allclose(out.entries, dm.entries)


def test_bipartition_validation():
    with pytest.raises(ValueError):
        Bipartition((), (0, 1))
    with pytest.raises(ValueError):
        Bipartition((0,), (0, 1))
    with pytest.raises(ValueError):
        Bipartition((0,), (2,))
    cut = Bipartition.of_left([2], 3)
    assert cut.left == (2,) and cut.right == (0, 1)
