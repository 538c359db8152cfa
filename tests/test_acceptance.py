"""Acceptance suite: one test per criterion, one printed pass/fail line each.

The sweeps mirror the reference scenarios: the two pure-state families and
the Werner family, each at x = 5 / 0.1 / 0.01.  Figure-derived times carry
a tolerance of +-0.15 in gamma0*t (read-off precision) unless the criterion
states +-0.2; text-stated values use their stated precision.  Run with
``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import math

import numpy as np
import pytest

from entdyn.amplitude import AmplitudeModel, c0, c_excitation
from entdyn.entanglement import (ZERO_ENTANGLEMENT_TOL, concurrence_xstate, negativity,
                                 negativity_xstate)
from entdyn.events import SweepTable, _crossings, detect_events
from entdyn.evolution import evolve_cc, evolve_four, evolve_rr
from entdyn.gme import GmeProblem, enumerate_bipartitions, solve_gme
from entdyn.states import (
    Bipartition,
    DensityMatrix,
    XState,
    biseparable_bell_mixture,
    ghz_state,
    kay_state,
    partial_trace,
    partial_transpose,
    pure_alpha_beta,
    random_density_matrix,
    random_pure_state,
    tensor,
    werner,
)
from entdyn.sweep import SweepConfig, run_sweep

pytestmark = pytest.mark.acceptance

ALPHA_13 = math.sqrt(1 / 3)
BETA_13 = math.sqrt(2 / 3)
ALPHA_26 = math.sqrt(1 / 26)
BETA_26 = 5 * math.sqrt(1 / 26)


def _sweep(state: XState, x: float, tmax: float, measures, steps: int = 400,
           stride: int = 1):
    cfg = SweepConfig(
        initial_state=state,
        x=x,
        gamma0_t_max=tmax,
        steps=steps,
        measures=tuple(measures),
        gme_stride=stride,
    )
    table = run_sweep(cfg)
    assert table.diagnostics == [], table.diagnostics
    return table, detect_events(table)


@pytest.fixture(scope="module")
def pure13_x5():
    return _sweep(pure_alpha_beta(ALPHA_13, BETA_13), 5.0, 8.0, ("cc", "rr"))


@pytest.fixture(scope="module")
def pure13_x01():
    return _sweep(pure_alpha_beta(ALPHA_13, BETA_13), 0.1, 10.0, ("cc", "rr"))


@pytest.fixture(scope="module")
def pure13_x001():
    return _sweep(pure_alpha_beta(ALPHA_13, BETA_13), 0.01, 50.0, ("cc", "rr"))


@pytest.fixture(scope="module")
def pure26_x5():
    return _sweep(pure_alpha_beta(ALPHA_26, BETA_26), 5.0, 6.0, ("cc", "rr", "gme"), stride=3)


@pytest.fixture(scope="module")
def pure26_x01():
    return _sweep(pure_alpha_beta(ALPHA_26, BETA_26), 0.1, 12.0, ("cc", "rr", "gme"), stride=3)


@pytest.fixture(scope="module")
def pure26_x001():
    # 399 grid points keep the GME subgrid at 200 solves
    return _sweep(pure_alpha_beta(ALPHA_26, BETA_26), 0.01, 50.0, ("cc", "rr", "gme"),
                  steps=398, stride=2)


@pytest.fixture(scope="module")
def werner_x5():
    return _sweep(werner(0.45), 5.0, 10.0, ("cc", "rr", "gme"), stride=3)


@pytest.fixture(scope="module")
def werner_x01():
    return _sweep(werner(0.45), 0.1, 12.0, ("cc", "rr", "gme"), stride=3)


@pytest.fixture(scope="module")
def werner_x001():
    return _sweep(werner(0.45), 0.01, 25.0, ("cc", "rr", "gme"), stride=3)


@pytest.fixture(scope="module")
def pure26_long_cc():
    # cheap bipartite-only runs to the gamma0*t = 50 horizon for the
    # no-revival clauses
    return {
        x: _sweep(pure_alpha_beta(ALPHA_26, BETA_26), x, 50.0, ("cc",))
        for x in (5.0, 0.1, 0.01)
    }


def _near(label, value, target, tol):
    if value is None:
        return f"{label}: missing (expected {target})", False
    return f"{label}: {value:.4f} vs {target} +-{tol}", abs(value - target) <= tol


def _criterion(num: int, name: str, checks):
    failures = [desc for desc, ok in checks if not ok]
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status}")
    for desc, ok in checks:
        print(f"    [{'ok' if ok else 'FAIL'}] {desc}")
    assert not failures, f"criterion {num} ({name}): {failures}"


def test_criterion_1_initial_negativities():
    n13 = negativity_xstate(pure_alpha_beta(ALPHA_13, BETA_13))
    n26 = negativity_xstate(pure_alpha_beta(ALPHA_26, BETA_26))
    _criterion(1, "initial negativities", [
        _near("pure(sqrt(1/3))", n13, 0.4714, 1e-3),
        _near("pure(sqrt(1/26))", n26, 0.1923, 1e-3),
    ])


def test_criterion_2_esd_times_alpha13(pure13_x5, pure13_x01, pure13_x001):
    _, r5 = pure13_x5
    _, r01 = pure13_x01
    _, r001 = pure13_x001
    revival = r001.revival_times[0] if r001.revival_times else None
    _criterion(2, "cavity-cavity ESD, alpha=sqrt(1/3)", [
        _near("esd x=5", r5.esd_time, 1.4, 0.15),
        _near("esd x=0.1", r01.esd_time, 4.7, 0.15),
        _near("esd x=0.01", r001.esd_time, 14.5, 0.15),
        _near("revival x=0.01", revival, 33.2, 0.15),
    ])


def test_criterion_3_esb_times_alpha13(pure13_x5, pure13_x01, pure13_x001):
    t5, r5 = pure13_x5
    _, r01 = pure13_x01
    _, r001 = pure13_x001
    tail = t5.e_rr[t5.gamma0_t >= 0.95 * t5.gamma0_t[-1]]
    plateau_err = float(np.max(np.abs(tail - 0.4714)))
    _criterion(3, "reservoir-reservoir ESB, alpha=sqrt(1/3)", [
        _near("esb x=5", r5.esb_time, 0.6, 0.15),
        _near("esb x=0.1", r01.esb_time, 2.7, 0.15),
        _near("esb x=0.01", r001.esb_time, 8.3, 0.15),
        (f"markov E_rr plateau within 1e-3 of 0.4714 (err {plateau_err:.2e})",
         plateau_err <= 1e-3),
    ])


def test_criterion_4_esd_times_alpha26(pure26_x5, pure26_x01, pure26_x001, pure26_long_cc):
    _, r5 = pure26_x5
    _, r01 = pure26_x01
    _, r001 = pure26_x001
    checks = [
        _near("esd x=5", r5.esd_time, 0.4, 0.15),
        _near("esd x=0.1", r01.esd_time, 2.2, 0.15),
        _near("esd x=0.01", r001.esd_time, 6.7, 0.15),
    ]
    for x, (_, rep) in sorted(pure26_long_cc.items(), reverse=True):
        checks.append((
            f"no cc revival up to gamma0_t=50 at x={x} (found {rep.revival_times})",
            rep.esd_time is not None and rep.revival_times == [],
        ))
    _criterion(4, "cavity-cavity ESD, alpha=sqrt(1/26)", checks)


def test_criterion_5_reservoir_window_alpha26(pure26_x5, pure26_x001):
    _, r5 = pure26_x5
    t001, r001 = pure26_x001
    dead = r5.dead_window or (None, None)
    rr_deaths = _crossings(t001.gamma0_t, t001.e_rr, ZERO_ENTANGLEMENT_TOL)[0]
    rr_vanish = rr_deaths[0] if rr_deaths else None
    _criterion(5, "reservoir windows, alpha=sqrt(1/26)", [
        _near("markov esb", r5.esb_time, 1.7, 0.15),
        _near("dead window start (markov)", dead[0], 0.4, 0.15),
        _near("dead window end (markov)", dead[1], 1.7, 0.15),
        _near("rr onset x=0.01", r001.esb_time, 16.2, 0.2),
        _near("rr vanish x=0.01", rr_vanish, 31.1, 0.2),
    ])


def _window_variation(table, window):
    ts, vs = table.gamma0_t, table.e_gme
    sel = np.isfinite(vs) & (ts >= window[0]) & (ts <= window[1])
    vals = vs[sel]
    return float((vals.max() - vals.min()) / vals.max())


def test_criterion_6_freeze_windows(pure26_x5, pure26_x01, pure26_x001):
    t5, r5 = pure26_x5
    t01, r01 = pure26_x01
    t001, r001 = pure26_x001
    checks = []
    for label, (table, rep), expect in (
        ("x=5", (t5, r5), (0.4, 1.5)),
        ("x=0.1", (t01, r01), (2.4, 5.1)),
        ("x=0.01", (t001, r001), (7.7, 15.2)),
    ):
        if not rep.freeze_windows:
            checks.append((f"{label}: no freeze window found (expected {expect})", False))
            continue
        start, end = rep.freeze_windows[0]
        checks.append(_near(f"{label} freeze start", start, expect[0], 0.2))
        checks.append(_near(f"{label} freeze end", end, expect[1], 0.2))
        var = _window_variation(table, (start, end))
        checks.append((f"{label} in-window variation {var:.2e} < 1%", var < 0.01))
    if len(r001.freeze_windows) >= 2:
        checks.append(_near("x=0.01 second lock start", r001.freeze_windows[1][0], 32.4, 0.2))
        var = _window_variation(t001, r001.freeze_windows[1])
        checks.append((f"x=0.01 second lock variation {var:.2e} < 1%", var < 0.01))
    else:
        checks.append(("x=0.01 second freeze window missing", False))
    _criterion(6, "genuine-negativity freezing, alpha=sqrt(1/26)", checks)


def test_criterion_7_werner_events(werner_x5, werner_x01, werner_x001):
    reps = {5.0: werner_x5[1], 0.1: werner_x01[1], 0.01: werner_x001[1]}
    esd_expect = {5.0: 0.5, 0.1: 2.4, 0.01: 7.4}
    esb_expect = {5.0: 1.6, 0.1: 5.2, 0.01: 15.4}
    checks = []
    for x in (5.0, 0.1, 0.01):
        checks.append(_near(f"esd x={x}", reps[x].esd_time, esd_expect[x], 0.15))
        checks.append(_near(f"esb x={x}", reps[x].esb_time, esb_expect[x], 0.15))
    for x in (5.0, 0.1, 0.01):
        checks.append((
            f"no freeze window at x={x} (found {reps[x].freeze_windows})",
            reps[x].freeze_windows == [],
        ))
    _criterion(7, "Werner p=0.45 events", checks)


# initial state and x of each GME acceptance sweep, by fixture name
GME_SWEEPS = {
    "pure26_x5": (pure_alpha_beta(ALPHA_26, BETA_26), 5.0),
    "pure26_x01": (pure_alpha_beta(ALPHA_26, BETA_26), 0.1),
    "pure26_x001": (pure_alpha_beta(ALPHA_26, BETA_26), 0.01),
    "werner_x5": (werner(0.45), 5.0),
    "werner_x01": (werner(0.45), 0.1),
    "werner_x001": (werner(0.45), 0.01),
}


def _min_cut_negativity(rho: np.ndarray, n: int) -> float:
    """Smallest negativity over the cuts of ``n`` qubits, from numpy partial transposes."""
    best = math.inf
    for mask in range(1, 2 ** (n - 1)):       # qubit n-1 stays on the right
        axes = list(range(2 * n))
        for k in range(n):
            if mask >> k & 1:
                axes[k], axes[k + n] = k + n, k
        pt = rho.reshape((2,) * (2 * n)).transpose(axes).reshape(2**n, 2**n)
        eig = np.linalg.eigvalsh(pt)
        best = min(best, float(-eig[eig < 0].sum()))
    return best


@pytest.mark.parametrize("sweep", list(GME_SWEEPS))
def test_gme_sweep_within_min_cut_bound(request, sweep):
    # a fully decomposable witness is decomposable across each single cut,
    # so the genuine negativity never exceeds the smallest cut negativity
    table, _ = request.getfixturevalue(sweep)
    state, x = GME_SWEEPS[sweep]
    model = AmplitudeModel(1.0, x)
    slack = 10 * SweepConfig.sdp_tolerance
    finite = np.flatnonzero(np.isfinite(table.e_gme))
    assert finite.size >= 134
    for k in finite:
        t, e = table.gamma0_t[k], table.e_gme[k]
        bound = _min_cut_negativity(evolve_four(state, model, t).entries, 4)
        assert 0.0 <= e <= bound + slack, (sweep, t, e, bound)


@pytest.mark.parametrize("sweep", list(GME_SWEEPS))
def test_gme_sweep_within_conserved_pair_cut_negativity(request, sweep):
    # the genuine negativity never exceeds the negativity across c1 r1 |
    # c2 r2, which the pairs' local isometries keep at N_cc(0); the bound
    # needs no eigensolver on the SDP side
    table, _ = request.getfixturevalue(sweep)
    state, _ = GME_SWEEPS[sweep]
    ceiling = negativity_xstate(state)
    finite = np.isfinite(table.e_gme)
    assert np.count_nonzero(finite) >= 134
    assert np.all(table.e_gme[finite] <= ceiling + 10 * SweepConfig.sdp_tolerance), sweep


def test_freeze_windows_sit_at_the_conserved_pair_cut_negativity(pure26_x5, pure26_x01,
                                                                  pure26_x001):
    # in each freeze window of criterion 6, the first ones at x = 5, 0.1 and
    # 0.01 and the recurrent one at 0.01, the genuine negativity reaches the
    # ceiling N_cc(0) that the pair cut c1 r1 | c2 r2 conserves: the freeze
    # level is that negativity, 5/26 here
    ceiling = negativity_xstate(pure_alpha_beta(ALPHA_26, BETA_26))
    assert ceiling == pytest.approx(5 / 26, abs=1e-15)
    slack = 10 * SweepConfig.sdp_tolerance
    for (table, report), k in ((pure26_x5, 0), (pure26_x01, 0), (pure26_x001, 0),
                               (pure26_x001, 1)):
        assert len(report.freeze_windows) > k
        start, end = report.freeze_windows[k]
        sel = np.isfinite(table.e_gme) & (table.gamma0_t >= start) & (table.gamma0_t <= end)
        assert np.any(sel), (start, end)
        assert abs(float(table.e_gme[sel].max()) - ceiling) <= slack, (start, end)


def _dead_runs(table, zero: float) -> list[tuple[float, float]]:
    """Every maximal run of grid points where neither pair is entangled,
    widened by one grid step on each side to the grid points that bracket it
    (the grid's ends where the run reaches them)."""
    ts = table.gamma0_t
    dead = np.maximum(table.e_cc, table.e_rr) <= zero
    edges = np.flatnonzero(np.diff(np.concatenate(([0], dead.view(np.int8), [0]))))
    return [(float(ts[max(k0 - 1, 0)]), float(ts[min(k1, len(ts) - 1)]))
            for k0, k1 in zip(edges[::2], edges[1::2])]


def test_events_from_arrays_and_from_lists_agree(pure26_x001):
    # run_sweep's table holds numpy arrays and read_trace's lists of floats;
    # on this table, with two freeze windows, detection reports the same
    table, report = pure26_x001
    columns = (table.gamma0_t, table.c0, table.e_cc, table.e_rr, table.e_gme)
    as_lists = SweepTable(*(col.tolist() for col in columns))
    assert len(report.freeze_windows) == 2
    assert detect_events(as_lists) == report


def test_every_freeze_window_lies_in_a_dead_window(pure26_x5, pure26_x01, pure26_x001):
    # the paper's claim: the genuine negativity freezes while neither the
    # cavities nor the reservoirs are entangled, the recurrent freeze at
    # x = 0.01 included (its dead run is the second one, which events.json
    # does not report)
    checked = 0
    for table, report in (pure26_x5, pure26_x01, pure26_x001):
        runs = _dead_runs(table, ZERO_ENTANGLEMENT_TOL)
        assert report.freeze_windows, runs
        for start, end in report.freeze_windows:
            assert any(lo <= start and end <= hi for lo, hi in runs), ((start, end), runs)
            checked += 1
    assert checked == 4


def test_every_freeze_window_maps_into_the_closed_form_dead_band(pure26_x5, pure26_x01,
                                                                  pure26_x001):
    # up to local unitaries the state depends on t and x only through
    # q = c0(t)^2, and for alpha|00> + beta|11> a time is dead exactly when
    # r <= q <= 1 - r, with r = |alpha| / |beta| = 1/5 here: so every freeze
    # window, the recurrent one at x = 0.01 included, lies in that band at
    # every time inside it, not only at its ends
    r = ALPHA_26 / BETA_26
    assert r == pytest.approx(0.2, abs=1e-15)
    checked = 0
    for (_, report), x in ((pure26_x5, 5.0), (pure26_x01, 0.1), (pure26_x001, 0.01)):
        assert report.freeze_windows
        for start, end in report.freeze_windows:
            q = np.asarray(c0(AmplitudeModel(1.0, x), np.linspace(start, end, 2001))) ** 2
            assert r <= q.min() and q.max() <= 1 - r, (x, (start, end), q.min(), q.max())
            checked += 1
    assert checked == 4


def test_criterion_8_sdp_oracles():
    rng = np.random.default_rng(808)
    checks = []

    prod3 = tensor(tensor(random_density_matrix((2,), rng), random_density_matrix((2,), rng)),
                   random_density_matrix((2,), rng))
    e4 = solve_gme(prod3).genuine_negativity
    checks.append((f"3-qubit product state E = {e4:.2e} <= 1e-6", e4 <= 1e-6))

    prod2 = tensor(random_density_matrix((2,), rng), random_density_matrix((2, 2), rng))
    e3 = solve_gme(prod2).genuine_negativity
    checks.append((f"1x2-qubit product state E = {e3:.2e} <= 1e-6", e3 <= 1e-6))

    ghz = solve_gme(ghz_state(3)).genuine_negativity
    checks.append(_near("GHZ-3 genuine negativity", ghz, 0.5, 1e-4))

    kay = kay_state(2.5)
    kay_ppt = all(
        np.linalg.eigvalsh(partial_transpose(kay, cut))[0] >= -1e-9
        for cut in enumerate_bipartitions(3)
    )
    e_kay = solve_gme(kay).genuine_negativity
    checks.append((f"kay(2.5) PPT on all 3 cuts", kay_ppt))
    checks.append((f"kay(2.5) E = {e_kay:.2e} <= 1e-6", e_kay <= 1e-6))

    bisep = biseparable_bell_mixture()
    bisep_npt = all(
        np.linalg.eigvalsh(partial_transpose(bisep, cut))[0] < -1e-9
        for cut in enumerate_bipartitions(3)
    )
    e_bisep = solve_gme(bisep).genuine_negativity
    checks.append(("biseparable Bell mixture NPT on all 3 cuts", bisep_npt))
    checks.append((f"biseparable Bell mixture E = {e_bisep:.2e} <= 1e-6", e_bisep <= 1e-6))

    cut2 = Bipartition.of_left([0], 2)
    worst = 0.0
    for _ in range(100):
        rho = random_density_matrix((2, 2), rng)
        worst = max(worst, abs(solve_gme(rho).genuine_negativity - negativity(rho, cut2)))
    checks.append((f"bipartite SDP vs eigen-negativity, worst |diff| = {worst:.2e} <= 1e-6",
                   worst <= 1e-6))

    _criterion(8, "SDP oracle suite", checks)


def test_criterion_9_property_suites():
    rng = np.random.default_rng(909)
    checks = []

    # amplitude normalization and continuity in x at the critical point
    ts = np.linspace(0.0, 50.0, 501)
    norm_err = 0.0
    for x in (0.01, 0.1, 1.0, 2.0, 5.0):
        model = AmplitudeModel(1.0, x)
        a = np.asarray(c0(model, ts))
        cex = np.asarray(c_excitation(model, ts))
        norm_err = max(norm_err, float(np.max(np.abs(a * a + cex * cex - 1.0))))
    checks.append((f"amplitude normalization err {norm_err:.2e} <= 1e-12", norm_err <= 1e-12))
    cont_err = 0.0
    for eps in (1e-3, 1e-5):
        lo = np.asarray(c0(AmplitudeModel(1.0, 2.0 - eps), ts))
        hi = np.asarray(c0(AmplitudeModel(1.0, 2.0 + eps), ts))
        cont_err = max(cont_err, float(np.max(np.abs(lo - hi))) / eps)
    checks.append((f"x-continuity at critical point (err/eps = {cont_err:.2f})",
                   cont_err < 100.0))

    # marginal consistency of the dilation against the closed forms
    from test_states import random_x_state

    marg_err = 0.0
    for _ in range(50):
        s0 = random_x_state(rng)
        model = AmplitudeModel(1.0, float(rng.uniform(0.02, 6.0)))
        t = float(rng.uniform(0.0, 8.0))
        full = evolve_four(s0, model, t)
        cc = partial_trace(full, [0, 1]).entries
        rr = partial_trace(full, [2, 3]).entries
        marg_err = max(
            marg_err,
            float(np.max(np.abs(cc - evolve_cc(s0, model, t).to_density().entries))),
            float(np.max(np.abs(rr - evolve_rr(s0, model, t).to_density().entries))),
        )
    checks.append((f"dilation marginals vs closed forms, err {marg_err:.2e} <= 1e-10",
                   marg_err <= 1e-10))

    # closed-form negativity against the eigensolver oracle
    cut2 = Bipartition.of_left([0], 2)
    neg_err = 0.0
    for _ in range(1000):
        s = random_x_state(rng)
        neg_err = max(neg_err, abs(negativity_xstate(s)
                                   - negativity(s.to_density(), cut2)))
    checks.append((f"negativity closed form vs eigen, err {neg_err:.2e} <= 1e-10",
                   neg_err <= 1e-10))

    # concurrence and negativity die on the same grid step
    s0 = pure_alpha_beta(ALPHA_26, BETA_26)
    model = AmplitudeModel(1.0, 5.0)
    grid = np.linspace(0.0, 4.0, 401)
    neg = np.array([negativity_xstate(evolve_cc(s0, model, t)) for t in grid])
    con = np.array([concurrence_xstate(evolve_cc(s0, model, t)) for t in grid])
    k_neg = int(np.argmax(neg <= 1e-8))
    k_con = int(np.argmax(con <= 1e-8))
    checks.append((f"negativity/concurrence zero step {k_neg} vs {k_con}",
                   abs(k_neg - k_con) <= 1))

    # local-unitary invariance of the genuine negativity on GHZ
    lu_err = 0.0
    base = ghz_state(3).entries
    for _ in range(3):
        u = _random_local_unitary(rng, 3)
        rho = DensityMatrix(u @ base @ u.conj().T, (2, 2, 2), validate=False)
        lu_err = max(lu_err, abs(solve_gme(rho).genuine_negativity - 0.5))
    checks.append((f"local-unitary invariance on GHZ, err {lu_err:.2e} <= 1e-6",
                   lu_err <= 1e-6))

    # witness certificate sound on sampled biseparable states
    problem = GmeProblem(rho=ghz_state(3))
    sol = solve_gme(problem)
    cuts = enumerate_bipartitions(3)
    worst = 0.0
    for _ in range(1000):
        weights = rng.dirichlet(np.ones(len(cuts)))
        rho_bs = np.zeros((8, 8), dtype=complex)
        for w, cut in zip(weights, cuts):
            da, db = 2 ** len(cut.left), 2 ** len(cut.right)
            psi_a = random_pure_state(da, rng)
            psi_b = random_pure_state(db, rng)
            block = np.kron(np.outer(psi_a, psi_a.conj()), np.outer(psi_b, psi_b.conj()))
            rho_bs += w * _permute_qubits(block, np.argsort(list(cut.left) + list(cut.right)), 3)
        worst = min(worst, float(np.real(np.trace(sol.witness @ rho_bs))))
    checks.append((f"witness vs 1000 biseparable samples, min Tr(W rho) = {worst:.2e} "
                   f">= -1e-6", worst >= -10 * problem.tolerance))

    _criterion(9, "property suites", checks)


def _random_local_unitary(rng, n):
    u = np.eye(1, dtype=complex)
    for _ in range(n):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(g)
        q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
        u = np.kron(u, q)
    return u


def _permute_qubits(mat, perm, n):
    t = mat.reshape((2,) * (2 * n))
    axes = list(perm) + [int(p) + n for p in perm]
    return t.transpose(axes).reshape(2**n, 2**n)
