import math

import numpy as np
import pytest

from entdyn.amplitude import AmplitudeModel, c0, c_excitation, first_zero


def test_initial_condition_is_one():
    for x in (0.01, 0.5, 1.999, 2.0, 2.001, 5.0, 50.0):
        assert c0(AmplitudeModel(1.0, x), 0.0) == pytest.approx(1.0, abs=1e-14)
        assert c_excitation(AmplitudeModel(1.0, x), 0.0) == pytest.approx(0.0, abs=1e-10)


def test_critical_point_closed_form():
    # limit of the oscillatory branch as the frequency goes to zero
    model = AmplitudeModel(1.0, 2.0)
    assert c0(model, 1.0) == pytest.approx(2.0 * math.exp(-1.0), abs=1e-12)
    # cross-check numerically just off the critical ratio
    for eps in (1e-6, -1e-6):
        val = c0(AmplitudeModel(1.0, 2.0 + eps), 1.0)
        assert val == pytest.approx(2.0 * math.exp(-1.0), abs=1e-5)


def test_first_zero_strongly_non_markovian():
    root = first_zero(AmplitudeModel(1.0, 0.01))
    assert root == pytest.approx(23.27, abs=0.01)
    assert abs(c0(AmplitudeModel(1.0, 0.01), root)) < 1e-9
    assert c_excitation(AmplitudeModel(1.0, 0.01), root) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("x", [1e-4, 0.01, 0.1, 0.5, 1.0, 1.5, 1.9, 1.999])
def test_first_zero_closed_form_matches_bisection(x):
    # bisection on c0 itself, from a bracket found by a dense scan of c0
    model = AmplitudeModel(1.0, x)
    root = first_zero(model)
    ts = np.linspace(0.0, 2.0 * root, 20001)
    vals = np.asarray(c0(model, ts))
    k = int(np.flatnonzero(vals <= 0.0)[0])
    lo, hi = float(ts[k - 1]), float(ts[k])
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if c0(model, mid) > 0.0 else (lo, mid)
    assert root == pytest.approx(0.5 * (lo + hi), rel=1e-11, abs=1e-11)
    assert abs(c0(model, root)) < 1e-12


def test_no_zeros_at_or_above_critical():
    assert first_zero(AmplitudeModel(1.0, 2.0)) is None
    assert first_zero(AmplitudeModel(1.0, 5.0)) is None
    ts = np.linspace(0.0, 50.0, 2001)
    for x in (2.0, 3.0, 5.0, 20.0):
        assert np.all(np.asarray(c0(AmplitudeModel(1.0, x), ts)) > 0)


def test_large_x_recovers_markov_decay():
    # for wide reservoirs the amplitude approaches exp(-gamma0 t / 2)
    val = c0(AmplitudeModel(1.0, 50.0), 1.0)
    assert val == pytest.approx(math.exp(-0.5), rel=0.02)


def test_markov_limit_excitation_saturates():
    assert c_excitation(AmplitudeModel(1.0, 5.0), 40.0) == pytest.approx(1.0, abs=1e-9)


def test_normalization_identity():
    ts = np.linspace(0.0, 50.0, 501)
    for x in (0.01, 0.3, 1.0, 2.0, 3.0, 5.0):
        model = AmplitudeModel(1.0, x)
        a = np.asarray(c0(model, ts))
        c = np.asarray(c_excitation(model, ts))
        assert np.max(np.abs(a * a + c * c - 1.0)) < 1e-12


def test_continuity_in_x_at_critical():
    ts = np.linspace(0.0, 50.0, 201)
    for eps in (1e-3, 1e-5):
        lo = np.asarray(c0(AmplitudeModel(1.0, 2.0 - eps), ts))
        hi = np.asarray(c0(AmplitudeModel(1.0, 2.0 + eps), ts))
        assert np.max(np.abs(lo - hi)) < 50 * eps


def test_oscillation_sign_change_below_critical():
    # the first zero lies inside one scaled period 2*pi/sqrt(x*(2-x))
    for x in (0.01, 0.1, 0.5, 1.0, 1.5, 1.9):
        s = math.sqrt(x * (2.0 - x))
        ts = np.linspace(0.0, 2.0 * math.pi / s, 4001)
        vals = np.asarray(c0(AmplitudeModel(1.0, x), ts))
        assert np.min(vals) < 0 < np.max(vals)


def test_decay_envelope():
    ts = np.linspace(0.0, 60.0, 601)[1:]
    for x in (0.01, 0.5, 1.0, 1.9):
        # oscillatory branch: |c0| <= exp(-x t / 2) * (1 + x / s)
        s = math.sqrt(x * (2.0 - x))
        bound = np.exp(-0.5 * x * ts) * (1.0 + x / s)
        vals = np.abs(np.asarray(c0(AmplitudeModel(1.0, x), ts)))
        assert np.all(vals <= bound + 1e-12)
    for x in (2.5, 5.0, 20.0):
        # overdamped branch decays like exp(-(x - s) t / 2) instead
        s = math.sqrt(x * (x - 2.0))
        bound = np.exp(-0.5 * (x - s) * ts) * (1.0 + x / s)
        vals = np.abs(np.asarray(c0(AmplitudeModel(1.0, x), ts)))
        assert np.all(vals <= bound + 1e-12)


def test_input_validation():
    with pytest.raises(ValueError):
        AmplitudeModel(0.0, 1.0)
    with pytest.raises(ValueError):
        AmplitudeModel(1.0, -0.5)
    with pytest.raises(ValueError):
        c0(AmplitudeModel(1.0, 1.0), -1.0)
    with pytest.raises(ValueError):
        c0(AmplitudeModel(1.0, 1.0), math.nan)
    with pytest.raises(ValueError):
        c0(AmplitudeModel(1.0, 1.0), math.inf)


def test_regime_classification():
    assert AmplitudeModel(1.0, 0.5).regime == "non_markovian"
    assert AmplitudeModel(1.0, 2.0).regime == "critical"
    assert AmplitudeModel(1.0, 7.0).regime == "markovian"


def test_gamma0_scaling():
    # time enters only through gamma0 * t
    assert c0(AmplitudeModel(2.0, 0.7), 1.5) == pytest.approx(
        c0(AmplitudeModel(1.0, 0.7), 3.0), abs=1e-14
    )


def _rk4_c0(xs, tau_max, steps):
    """``c0`` from ``c0'' + x c0' + (x/2) c0 = 0``, ``c0(0) = 1``, ``c0'(0) = 0``.

    Classical RK4 in ``tau = gamma0 t``, one step size per ``x``; returns the
    time grid and the solution, each of shape ``(steps + 1, len(xs))``.
    """
    xs = np.asarray(xs, dtype=float)
    h = np.asarray(tau_max, dtype=float) / steps

    def f(y, v):
        return v, -xs * v - 0.5 * xs * y

    y, v = np.ones_like(xs), np.zeros_like(xs)
    out = [y]
    for _ in range(steps):
        k1y, k1v = f(y, v)
        k2y, k2v = f(y + 0.5 * h * k1y, v + 0.5 * h * k1v)
        k3y, k3v = f(y + 0.5 * h * k2y, v + 0.5 * h * k2v)
        k4y, k4v = f(y + h * k3y, v + h * k3v)
        y = y + h / 6 * (k1y + 2 * k2y + 2 * k3y + k4y)
        v = v + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        out.append(y)
    return np.outer(np.arange(steps + 1), h), np.array(out)


def test_c0_matches_independent_ode_integration():
    # oscillatory, near-critical (either side of the 1e-12 closed-form
    # window and inside it), overdamped, and overdamped far enough that the
    # asymptotic branch (u = s tau / 2 >= 350) is reached on the grid
    xs = [1e-3, 1e-2, 0.1, 1.0, 2 - 1e-9, 2 - 1e-13, 2.0, 2 + 1e-13, 2 + 1e-9, 5.0, 100.0, 1e3]
    tau_max = [50.0] * 10 + [20.0, 5.0]
    taus, ref = _rk4_c0(xs, tau_max, 50_000)
    for j, x in enumerate(xs):
        tau = taus[::100, j]
        got = c0(AmplitudeModel(1.0, x), tau)
        np.testing.assert_allclose(got, ref[::100, j], rtol=0, atol=1e-9, err_msg=f"x={x}")
        if x > 2:
            s = math.sqrt(x * (x - 2))
            assert (0.5 * s * tau[-1] >= 350) == (x >= 100)
