import math

import numpy as np
import pytest

from entdyn.amplitude import AmplitudeModel
from entdyn.entanglement import concurrence_xstate, negativity, negativity_xstate
from entdyn.evolution import evolve_cc
from entdyn.states import (Bipartition, XState, bell_pair, pure_alpha_beta, werner, x_state,
                           x_state_is_entangled)

from test_states import random_x_state

CUT = Bipartition.of_left([0], 2)


def test_bell_pair_values():
    s = bell_pair()
    assert negativity(s.to_density(), CUT).value == pytest.approx(0.5, abs=1e-12)
    assert negativity_xstate(s).value == pytest.approx(0.5, abs=1e-12)
    assert concurrence_xstate(s).value == pytest.approx(1.0, abs=1e-12)


def test_paper_initial_negativities():
    s = pure_alpha_beta(math.sqrt(1 / 3), math.sqrt(2 / 3))
    assert negativity_xstate(s).value == pytest.approx(0.4714, abs=1e-3)
    s = pure_alpha_beta(math.sqrt(1 / 26), 5 * math.sqrt(1 / 26))
    assert negativity_xstate(s).value == pytest.approx(0.1923, abs=1e-3)


def test_pure_state_closed_forms():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.uniform(0.05, 0.95)
        s = pure_alpha_beta(math.sqrt(a), math.sqrt(1 - a))
        ab = math.sqrt(a * (1 - a))
        assert negativity_xstate(s).value == pytest.approx(ab, abs=1e-12)
        assert concurrence_xstate(s).value == pytest.approx(2 * ab, abs=1e-12)


def test_werner_closed_form():
    for p in (0.0, 0.2, 1 / 3, 0.34, 0.45, 0.8, 1.0):
        expect = max(0.0, (3 * p - 1) / 4)
        assert negativity_xstate(werner(p)).value == pytest.approx(expect, abs=1e-12)
    assert negativity_xstate(werner(0.45)).value == pytest.approx(0.0875, abs=1e-12)


def test_closed_form_matches_eigen_oracle():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        s = random_x_state(rng)
        via_eigen = negativity(s.to_density(), CUT).value
        via_blocks = negativity_xstate(s).value
        assert abs(via_eigen - via_blocks) < 1e-10


def test_vacuum_and_criterion_consistency():
    assert negativity_xstate(x_state(1, 0, 0, 0)).value == 0.0
    rng = np.random.default_rng(13)
    for _ in range(500):
        s = random_x_state(rng)
        n = negativity_xstate(s).value
        c = concurrence_xstate(s).value
        flag = x_state_is_entangled(s)
        assert (n > 1e-12) == flag
        assert (c > 1e-12) == flag


def test_measure_ranges():
    rng = np.random.default_rng(19)
    for _ in range(200):
        s = random_x_state(rng)
        assert 0.0 <= negativity_xstate(s).value <= 0.5 + 1e-12
        assert 0.0 <= concurrence_xstate(s).value <= 1.0 + 1e-12


def test_zero_crossing_agreement_along_trajectory():
    # negativity and concurrence vanish at the same grid step
    s0 = pure_alpha_beta(math.sqrt(1 / 26), 5 * math.sqrt(1 / 26))
    model = AmplitudeModel(1.0, 5.0)
    ts = np.linspace(0.0, 4.0, 401)
    neg = np.array([negativity_xstate(evolve_cc(s0, model, t)).value for t in ts])
    con = np.array([concurrence_xstate(evolve_cc(s0, model, t)).value for t in ts])
    k_neg = int(np.argmax(neg <= 1e-8))
    k_con = int(np.argmax(con <= 1e-8))
    assert abs(k_neg - k_con) <= 1


def test_array_fields_match_scalar_values():
    rng = np.random.default_rng(29)
    states = [random_x_state(rng) for _ in range(200)]
    model = AmplitudeModel(1.0, 0.1)
    states += [evolve_cc(states[0], model, 0.0), evolve_cc(states[1], model, 3.0),
               x_state(0.3, 0.2, 0.15, 0.35, 0.2 + 0.15j, 0.05 - 0.1j), x_state(1, 0, 0, 0)]
    attrs = ("rho11", "rho22", "rho33", "rho44", "rho14", "rho23")
    family = XState(*(np.array([getattr(s, a) for s in states]) for a in attrs))
    got = negativity_xstate(family).value
    want = np.array([negativity_xstate(s).value for s in states])
    assert got.shape == (len(states),)
    np.testing.assert_array_max_ulp(got, want, maxulp=1)
    assert not np.any(np.signbit(got))


def test_negativity_multiqubit_cut():
    from entdyn.states import ghz_state

    dm = ghz_state(3)
    for left in ([0], [1], [2]):
        val = negativity(dm, Bipartition.of_left(left, 3)).value
        assert val == pytest.approx(0.5, abs=1e-12)


def test_method_labels():
    s = bell_pair()
    assert negativity(s.to_density(), CUT).method == "negativity_eigen"
    assert negativity_xstate(s).method == "negativity_xstate_closed_form"
    assert concurrence_xstate(s).method == "concurrence"
    assert float(negativity_xstate(s)) == negativity_xstate(s).value


def test_float_of_an_array_value_names_its_shape():
    s = bell_pair()
    trajectory = XState(*(np.array([getattr(s, f)]) for f in ("rho11", "rho22", "rho33", "rho44",
                                                                "rho14", "rho23")))
    value = negativity_xstate(trajectory)
    assert value.value.shape == (1,)
    with pytest.raises(TypeError, match=r"array shape \(1,\)"):
        float(value)
    assert float(negativity_xstate(s)) == negativity_xstate(s).value
