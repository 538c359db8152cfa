import math

import numpy as np
import pytest

from entdyn.amplitude import AmplitudeModel, c0, c_excitation
from entdyn.entanglement import negativity_xstate
from entdyn.evolution import evolve_cc, evolve_four, evolve_rr
from entdyn.states import (DensityMatrix, partial_trace, permute_subsystems, pure_alpha_beta,
                           werner, x_state)

from test_states import random_x_state


def test_t0_identity_and_vacuum():
    s0 = werner(0.45)
    model = AmplitudeModel(1.0, 5.0)
    cc = evolve_cc(s0, model, 0.0)
    assert cc == s0
    rr = evolve_rr(s0, model, 0.0)
    assert rr.rho11 == pytest.approx(1.0, abs=1e-14)
    assert abs(rr.rho14) < 1e-14


def test_t0_four_qubit_is_product_with_vacuum():
    s0 = pure_alpha_beta(math.sqrt(1 / 3), math.sqrt(2 / 3))
    full = evolve_four(s0, AmplitudeModel(1.0, 5.0), 0.0)
    # reordered (c1, c2, r1, r2): expect s0 on cavities, |00><00| on reservoirs
    cc = partial_trace(full, [0, 1])
    assert np.allclose(cc.entries, s0.to_density().entries, atol=1e-12)
    rr = partial_trace(full, [2, 3])
    assert rr.entries[0, 0].real == pytest.approx(1.0, abs=1e-12)


def test_markov_long_time_limits():
    s0 = werner(0.45)
    model = AmplitudeModel(1.0, 5.0)
    cc = evolve_cc(s0, model, 40.0)
    assert cc.rho11 == pytest.approx(1.0, abs=1e-9)       # cavities decay to vacuum
    rr = evolve_rr(s0, model, 40.0)
    for attr in ("rho11", "rho22", "rho33", "rho44", "rho14", "rho23"):
        assert getattr(rr, attr) == pytest.approx(getattr(s0, attr), abs=1e-9)


def test_marginals_match_dilation():
    rng = np.random.default_rng(42)
    for _ in range(50):
        s0 = random_x_state(rng)
        x = float(rng.uniform(0.02, 6.0))
        t = float(rng.uniform(0.0, 8.0))
        model = AmplitudeModel(1.0, x)
        full = evolve_four(s0, model, t)
        cc = partial_trace(full, [0, 1]).entries
        rr = partial_trace(full, [2, 3]).entries
        assert np.max(np.abs(cc - evolve_cc(s0, model, t).to_density().entries)) < 1e-10
        assert np.max(np.abs(rr - evolve_rr(s0, model, t).to_density().entries)) < 1e-10


def test_evolved_states_are_valid():
    rng = np.random.default_rng(43)
    for _ in range(10):
        s0 = random_x_state(rng)
        model = AmplitudeModel(1.0, float(rng.uniform(0.05, 5.0)))
        t = float(rng.uniform(0.0, 10.0))
        full = evolve_four(s0, model, t)
        DensityMatrix(full.entries, full.dims)  # trace/hermiticity/PSD checks


def test_purity_preserved_for_pure_inputs():
    s0 = pure_alpha_beta(math.sqrt(0.2), -math.sqrt(0.8))
    for x in (0.01, 2.0, 5.0):
        model = AmplitudeModel(1.0, x)
        for t in (0.0, 0.7, 3.0, 12.0):
            full = evolve_four(s0, model, t)
            assert full.purity() == pytest.approx(1.0, abs=1e-9)


def test_exchange_symmetry_for_symmetric_initial_state():
    # swapping the two pairs leaves the state invariant when rho22 == rho33
    s0 = werner(0.45)
    model = AmplitudeModel(1.0, 0.3)
    full = evolve_four(s0, model, 1.7)
    swapped = permute_subsystems(full, (1, 0, 3, 2))
    assert np.max(np.abs(swapped.entries - full.entries)) < 1e-12


def test_monotone_cavity_population_in_markov_regime():
    s0 = werner(0.45)
    number_op = np.diag([0.0, 1.0])
    n_c1 = np.kron(np.kron(number_op, np.eye(2)), np.eye(4))
    n_c2 = np.kron(np.kron(np.eye(2), number_op), np.eye(4))
    for x in (2.0, 5.0):
        model = AmplitudeModel(1.0, x)
        ts = np.linspace(0.0, 6.0, 121)
        pops = []
        for t in ts:
            full = evolve_four(s0, model, t)
            pops.append(float(np.real(np.trace(full.entries @ (n_c1 + n_c2)))))
        assert np.all(np.diff(pops) <= 1e-12)


def test_evolve_pair_consistency():
    s0 = pure_alpha_beta(math.sqrt(1 / 3), math.sqrt(2 / 3))
    model = AmplitudeModel(1.0, 5.0)
    assert c0(model, 1.0)**2 + c_excitation(model, 1.0)**2 == pytest.approx(1.0, abs=1e-12)
    cc = evolve_cc(s0, model, 1.0)
    assert np.allclose(
        partial_trace(evolve_four(s0, model, 1.0), [0, 1]).entries, cc.to_density().entries,
        atol=1e-10,
    )


@pytest.mark.parametrize("evolve", [evolve_cc, evolve_rr])
def test_array_times_match_scalar_calls(evolve):
    rng = np.random.default_rng(44)
    ts = np.concatenate([[0.0], rng.uniform(0.0, 60.0, 40)])
    for x in (0.01, 0.5, 2.0, 5.0):
        model = AmplitudeModel(1.0, x)
        s0 = random_x_state(rng)
        grid = evolve(s0, model, ts)
        points = [evolve(s0, model, float(t)) for t in ts]
        for attr in ("rho11", "rho22", "rho33", "rho44", "rho14", "rho23"):
            got = np.asarray(getattr(grid, attr))
            want = np.array([getattr(p, attr) for p in points])
            assert got.shape == ts.shape
            np.testing.assert_array_max_ulp(got.real, want.real, maxulp=1)
            np.testing.assert_array_max_ulp(got.imag, want.imag, maxulp=1)


def test_four_qubit_array_times_match_scalar_calls():
    rng = np.random.default_rng(45)
    ts = np.concatenate([[0.0], rng.uniform(0.0, 60.0, 20)])
    for s0 in (random_x_state(rng), pure_alpha_beta(math.sqrt(1 / 26), 5 * math.sqrt(1 / 26)),
               werner(0.45)):
        for x in (0.01, 0.5, 5.0):
            model = AmplitudeModel(1.0, x)
            stack = evolve_four(s0, model, ts)
            assert stack.shape == (ts.size, 16, 16)
            for t, rho in zip(ts, stack):
                np.testing.assert_array_equal(rho, evolve_four(s0, model, float(t)).entries)


def _pair_cut_negativity(stack: np.ndarray) -> np.ndarray:
    """Negativity across c1 r1 | c2 r2 of each (c1, c2, r1, r2) state of a stack,
    from numpy partial transposes over c1 and r1."""
    # axes: stack, rows of c1 c2 r1 r2, columns of c1 c2 r1 r2
    pt = stack.reshape((-1,) + (2,) * 8).transpose(0, 5, 2, 7, 4, 1, 6, 3, 8)
    eig = np.linalg.eigvalsh(pt.reshape(-1, 16, 16))
    return -np.where(eig < 0.0, eig, 0.0).sum(axis=-1)


@pytest.mark.parametrize("s0", [
    pure_alpha_beta(math.sqrt(1 / 26), 5 * math.sqrt(1 / 26)),
    werner(0.45),
    x_state(0.1, 0.4, 0.3, 0.2, rho14=0.05 + 0.1j, rho23=0.3 * np.exp(0.7j)),
], ids=["pure", "werner", "complex_coherences"])
def test_pair_cut_negativity_stays_at_its_initial_value(s0):
    # each cavity-reservoir pair evolves by its own isometry, a local
    # operation across c1 r1 | c2 r2, so that cut keeps the cavities'
    # initial negativity N_cc(0): the ceiling of the genuine negativity
    n0 = negativity_xstate(s0)
    assert n0 > 0.05
    ts = np.linspace(0.0, 50.0, 51)
    for x in (0.01, 0.1, 1.0, 5.0):
        got = _pair_cut_negativity(evolve_four(s0, AmplitudeModel(1.0, x), ts))
        np.testing.assert_allclose(got, n0, rtol=0.0, atol=1e-12)
