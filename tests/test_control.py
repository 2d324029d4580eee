"""Tests for feedforward/feedback design, the investment LPs, and the
closed-loop simulation."""

import json

import numpy as np
import pytest

from fincascade import (
    FinancialNetwork,
    LinearProgram,
    LpSolution,
    admissible_scale,
    build_lp2,
    check_row_sum_stability,
    clamp_demands,
    design_K,
    design_u1,
    design_u1_bounded,
    external_fractions,
    orthant_system,
    signature_of,
    simulate,
    simulate_closed_loop,
    solve_investments,
    solve_lp,
    spectral_radius_bound,
    threshold_income,
)
from fincascade import control
from fincascade.analysis import FailureBoundBox
from fincascade.control import (
    MODE_U1,
    MODE_U1_U2,
    ControlPlan,
    offset_with_income,
    write_control_log,
)
from fincascade.errors import (
    InfeasibleEps,
    InvalidSlack,
    LpInfeasible,
    NumericalBreakdown,
)
from fincascade.harness import (
    ScenarioConfig,
    build_network,
    initial_errors,
    preset_baseline100,
)
from fincascade.lp_solver import INFEASIBLE, OPTIMAL

from helpers import build_lp1, decoupled_stable_instance, loose_instance


def flat_net(n, prices, thresholds, beta=1.0):
    return FinancialNetwork(
        np.zeros((n, n)), np.eye(n), np.asarray(prices, dtype=float),
        np.asarray(thresholds, dtype=float), beta,
    )


def oracle_net():
    C = np.array(
        [
            [0.0, 0.1, 0.0],
            [0.1, 0.0, 0.1],
            [0.0, 0.1, 0.0],
        ]
    )
    return FinancialNetwork(
        C, np.eye(3), np.array([10.0, 12.0, 9.0]), np.array([5.0, 6.0, 4.0]), 5.0
    )


# --------------------------------------------------------------- feedforward


def test_design_u1_decoupled_healthy():
    v_lo = np.array([3.0, 8.0])
    net = flat_net(2, np.ones(2), v_lo, beta=4.0)
    ext = external_fractions(net)
    signs = np.ones(2)
    u1 = design_u1(net, ext, signs, np.ones(2))
    np.testing.assert_allclose(u1, v_lo + 1.0, atol=1e-12)
    b_tilde = offset_with_income(net, ext, signs, u1)
    np.testing.assert_allclose(b_tilde, np.ones(2), atol=1e-12)


def test_design_u1_decoupled_failed():
    v_lo = np.array([3.0, 8.0])
    beta = 4.0
    net = flat_net(2, np.ones(2), v_lo, beta=beta)
    ext = external_fractions(net)
    signs = -np.ones(2)
    u1 = design_u1(net, ext, signs, np.ones(2))
    np.testing.assert_allclose(u1, v_lo + beta - 1.0, atol=1e-12)
    b_tilde = offset_with_income(net, ext, signs, u1)
    assert (b_tilde >= 0.0).all()


def test_design_u1_mixed_signature_oracle():
    net = oracle_net()
    ext = external_fractions(net)
    signs = np.array([1.0, -1.0, 1.0])
    xi = np.array([0.5, 1.0, 2.0])
    u1 = design_u1(net, ext, signs, xi)
    b_tilde = offset_with_income(net, ext, signs, u1)
    assert (b_tilde >= 0.0).all()
    # healthy offsets carry at least the external-fraction-scaled slack
    healthy = signs > 0
    assert (b_tilde[healthy] >= ext[healthy] * xi[healthy] - 1e-12).all()


def test_design_u1_rejects_bad_slack():
    net = oracle_net()
    ext = external_fractions(net)
    with pytest.raises(InvalidSlack):
        design_u1(net, ext, np.ones(3), np.array([1.0, 0.0, 1.0]))
    with pytest.raises(InvalidSlack):
        design_u1(net, ext, np.ones(3), np.array([1.0, -2.0, 1.0]))


def test_design_u1_bounded_reductions():
    rng = np.random.default_rng(6)
    net, ext, signs = decoupled_stable_instance(rng, n=6)
    xi = np.full(6, 0.7)
    healthy = signs > 0
    # decoupled holdings: the drag term vanishes for any box
    u_boxed = design_u1_bounded(net, ext, signs, FailureBoundBox(np.full(6, 9.0)), xi)
    u_plain = design_u1(net, ext, signs, xi)
    np.testing.assert_allclose(u_boxed[healthy], u_plain[healthy], atol=1e-12)
    assert (u_boxed[~healthy] == 0.0).all()

    # zero box reduces the same way even with cross holdings
    net2 = oracle_net()
    ext2 = external_fractions(net2)
    signs2 = np.array([1.0, -1.0, 1.0])
    xi2 = np.ones(3)
    u_boxed2 = design_u1_bounded(net2, ext2, signs2, FailureBoundBox(np.zeros(3)), xi2)
    base2 = threshold_income(net2, ext2)
    np.testing.assert_allclose(u_boxed2[[0, 2]], base2[[0, 2]] + 1.0, atol=1e-12)


def test_design_u1_bounded_drag_term():
    net = oracle_net()
    ext = external_fractions(net)
    signs = np.array([1.0, -1.0, 1.0])
    bound = 10.0
    box = FailureBoundBox(np.array([0.0, bound, 0.0]))
    xi = np.ones(3)
    u1 = design_u1_bounded(net, ext, signs, box, xi)
    system = orthant_system(net, ext, signs)
    base = threshold_income(net, ext)
    expected = base[0] - system.coupling[0, 1] * bound / ext[0] + 1.0
    assert u1[0] == pytest.approx(expected, abs=1e-12)
    assert u1[0] > base[0] + 1.0  # the failed neighbor raises the requirement


# ------------------------------------------------------------------ gain LP


def test_lp1_decoupled_optimum_row_sums():
    n = 3
    net = flat_net(n, np.ones(n), np.ones(n))
    ext = external_fractions(net)
    epsilon = 0.25
    K = design_K(net, ext, np.ones(n), epsilon)
    np.testing.assert_array_equal(np.diag(K), np.zeros(n))
    np.testing.assert_allclose(K.sum(axis=1), np.full(n, 1.0 - epsilon), atol=1e-9)


def test_lp1_infeasible_epsilon():
    n = 2
    net = flat_net(n, np.ones(n), np.ones(n))
    ext = external_fractions(net)
    with pytest.raises(InfeasibleEps, match="exceeds 1/ext for rows"):
        design_K(net, ext, np.ones(n), epsilon=1.5)
    for epsilon in (0.0, -0.1):
        with pytest.raises(ValueError):
            design_K(net, ext, np.ones(n), epsilon)


def test_design_k_matches_lp1_oracle():
    # the closed form is the vertex the simplex reaches on the gain LP
    rng = np.random.default_rng(44)
    nets = [loose_instance(rng)[0] for _ in range(12)]
    dense = ScenarioConfig(n=30, link_prob=0.8)
    nets += [build_network(dense, seed) for seed in range(3)]
    for net in nets:
        ext = external_fractions(net)
        n = net.n_companies
        for _ in range(2):
            signs = np.where(rng.uniform(size=n) < 0.4, -1.0, 1.0)
            epsilon = float(rng.uniform(0.0, 1.0 / ext.max()))
            sol = solve_lp(build_lp1(net, ext, epsilon, signs=signs))
            assert sol.status == OPTIMAL
            K = design_K(net, ext, signs, epsilon)
            np.testing.assert_allclose(K, sol.z.reshape(n, n), rtol=1e-12)


def test_lp1_zero_gain_feasible():
    rng = np.random.default_rng(41)
    for _ in range(30):
        net, ext, signs = decoupled_stable_instance(rng)
        n = net.n_companies
        A = np.abs(orthant_system(net, ext, signs).coupling)
        eps_cap = float(((1.0 - A.sum(axis=1)) / ext).min())
        epsilon = 0.9 * eps_cap
        lp = build_lp1(net, ext, epsilon, signs=signs)
        z0 = np.zeros(n * n)
        assert (lp.ineq_lhs @ z0 <= lp.ineq_rhs + 1e-15).all()
        assert (lp.lower_bounds <= 1e-15).all()
        assert all(value == 0.0 for _, value in lp.fixed)


def test_design_k_postconditions():
    rng = np.random.default_rng(43)
    for _ in range(25):
        net, ext = loose_instance(rng)
        n = net.n_companies
        signs = np.where(rng.uniform(size=n) < 0.4, -1.0, 1.0)
        epsilon = float(rng.uniform(1e-6, 0.9))
        K = design_K(net, ext, signs, epsilon)
        A = orthant_system(net, ext, signs).coupling
        closed = A + ext[:, None] * K
        assert (closed >= -1e-10).all()
        np.testing.assert_array_equal(np.diag(closed), np.zeros(n))
        assert (closed.sum(axis=1) < 1.0).all()
        row_max, _ = spectral_radius_bound(closed)
        assert row_max < 1.0


def test_control_plan_rejects_gain_with_nonzero_diagonal():
    # a postcondition, not an assert: it must fire under python -O too
    K = np.array([[0.0, 0.1], [0.2, 1e-12]])
    with pytest.raises(NumericalBreakdown, match="diagonal"):
        ControlPlan(np.ones(2), K, np.ones(2), 1e-6, 0, np.ones(2))


def test_design_k_restabilizes_near_unstable():
    # row quantities within a hair of one: open loop close to unstable
    n = 5
    C = np.full((n, n), 0.999 / (n - 1))
    np.fill_diagonal(C, 0.0)
    net = FinancialNetwork(C, np.eye(n), np.ones(n), np.ones(n), 1.0)
    ext = external_fractions(net)
    open_rep = check_row_sum_stability(net, ext)
    assert min(open_rep.margins) < 2e-3  # barely stable to begin with
    K = design_K(net, ext, np.ones(n), epsilon=0.05)
    closed = orthant_system(net, ext, np.ones(n)).coupling + ext[:, None] * K
    row_max, _ = spectral_radius_bound(closed)
    assert row_max <= 1.0 - ext.min() * 0.05 + 1e-9


# ----------------------------------------------------------- demand shaping


def test_clamp_demands_cases():
    np.testing.assert_array_equal(
        clamp_demands(np.array([5.0, -3.0]), np.zeros(2), np.array([1.0, 1.0])),
        [5.0, 0.0],
    )
    np.testing.assert_array_equal(
        clamp_demands(np.array([5.0, 5.0]), np.zeros(2), np.array([-1.0, 1.0])),
        [0.0, 5.0],
    )
    np.testing.assert_array_equal(
        clamp_demands(np.array([2.0, 3.0]), np.array([1.0, 1.0]), np.ones(2)),
        [3.0, 4.0],
    )


# -------------------------------------------------------------------- LP2


def test_lp2_hand_case():
    sol = solve_investments(np.array([3.0]), np.array([2.0, 4.0]))
    np.testing.assert_allclose(sol.D_new, [[0.5, 0.5]], atol=1e-9)
    assert not sol.scaled
    assert sol.demands_met[0] <= 1e-8


def test_lp2_zero_demand():
    sol = solve_investments(np.zeros(2), np.array([2.0, 4.0]))
    np.testing.assert_array_equal(sol.D_new, np.zeros((2, 2)))


def test_lp2_infeasible_demand_reported():
    # total demand above total asset value cannot be allocated
    lp = build_lp2(np.array([7.0]), np.array([2.0, 4.0]))
    assert solve_lp(lp).status == INFEASIBLE
    with pytest.raises(LpInfeasible):
        solve_investments(np.array([7.0]), np.array([2.0, 4.0]), allow_scaling=False)


def test_lp2_scaling_fallback_flagged():
    sol = solve_investments(np.array([7.0]), np.array([2.0, 4.0]))
    assert sol.scaled
    # a single company holds at most one share of each asset and one
    # share in all, so the most it can buy is the dearest asset, 4 of 7
    assert sol.scale == pytest.approx(4.0 / 7.0)
    np.testing.assert_allclose(sol.D_new @ np.array([2.0, 4.0]), [4.0], atol=1e-6)


def test_lp2_scale_is_largest_feasible():
    rng = np.random.default_rng(48)
    scaled = unscaled = 0
    for _ in range(40):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        if n == m:
            m += 1
        p = rng.uniform(1.0, 20.0, size=m)
        # up to three times the capacity, so some draws must be shrunk
        w = rng.uniform(0.0, 3.0 * float(p.sum()) / n, size=n)
        w[rng.uniform(size=n) < 0.25] = 0.0
        s = solve_investments(w, p).scale
        assert solve_lp(build_lp2(s * w, p)).status == OPTIMAL
        if s < 1.0:
            scaled += 1
            assert solve_lp(build_lp2(s * (1.0 + 1e-6) * w, p)).status == INFEASIBLE
        else:
            unscaled += 1
    assert scaled and unscaled


def test_lp2_over_capacity_solves_once(monkeypatch):
    calls = []

    def counting_solve_lp(lp):
        calls.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(control, "solve_lp", counting_solve_lp)
    sol = solve_investments(np.array([7.0]), np.array([2.0, 4.0]))
    assert sol.scaled
    assert len(calls) == 1


def test_lp2_allocation_missing_its_demand_raises(monkeypatch):
    # an optimal status is not enough: the closed loop steps on s* w, so
    # an allocation that does not buy it must not reach the log
    def wrong_optimum(lp):
        return LpSolution(OPTIMAL, np.zeros(lp.n_vars), 0.0, 0)

    monkeypatch.setattr(control, "solve_lp", wrong_optimum)
    with pytest.raises(NumericalBreakdown):
        solve_investments(np.array([3.0]), np.array([2.0, 4.0]))


def test_lp2_solution_invariants():
    rng = np.random.default_rng(47)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        p = rng.uniform(1.0, 20.0, size=m)
        # keep demands comfortably inside total capacity
        w = rng.uniform(0.0, float(p.sum()) / (2 * n), size=n)
        clamped = [i for i in range(n) if rng.uniform() < 0.2]
        for i in clamped:
            w[i] = 0.0
        sol = solve_investments(w, p, clamped=clamped)
        assert not sol.scaled
        D = sol.D_new
        assert (D >= -1e-10).all() and (D <= 1.0 + 1e-9).all()
        assert (D.sum(axis=0) <= 1.0 + 1e-9).all()
        assert (D.sum(axis=1) <= 1.0 + 1e-9).all()
        assert (sol.demands_met <= 1e-8).all()
        np.testing.assert_allclose(D @ p, w, atol=1e-7)
        for i in clamped:
            assert not D[i].any()


# -------------------------------------------------------------- closed loop


def test_closed_loop_decoupled_tracks_slack():
    n = 3
    net = flat_net(n, np.full(n, 10.0), np.ones(n), beta=2.0)
    ext = external_fractions(net)
    xi = np.array([0.5, 0.7, 0.9])
    run = simulate_closed_loop(
        net, ext, np.array([4.0, 5.0, 6.0]), 10, activation_t=0, xi=xi, mode=MODE_U1
    )
    # with no holdings the controlled error lands exactly on the slack
    for t in range(1, 11):
        np.testing.assert_allclose(run.trajectory.errors[t], xi, atol=1e-7)
    assert run.scaled_steps() == []


def test_closed_loop_validation_errors():
    n = 2
    net = flat_net(n, np.ones(n), np.ones(n))
    ext = external_fractions(net)
    x0 = np.ones(n)
    with pytest.raises(ValueError):
        simulate_closed_loop(net, ext, x0, 10, activation_t=11)
    with pytest.raises(ValueError):
        simulate_closed_loop(net, ext, x0, 10, activation_t=0, mode="u3")


def test_closed_loop_protects_healthy_companies():
    rng = np.random.default_rng(53)
    protected = 0
    for _ in range(100):
        n = int(rng.integers(3, 9))
        mask = rng.uniform(size=(n, n)) < 0.5
        C = rng.uniform(0.05, 1.0, size=(n, n)) * mask
        np.fill_diagonal(C, 0.0)
        col = C.sum(axis=0).max()
        if col > 0.6:
            C *= 0.6 / col
        thresholds = rng.uniform(1.0, 5.0, size=n)
        prices = rng.uniform(20.0, 60.0, size=n)
        beta = float(rng.uniform(5.0, 20.0))
        net = FinancialNetwork(C, np.eye(n), prices, thresholds, beta)
        ext = external_fractions(net)
        x0 = rng.uniform(-5.0, 5.0, size=n)
        activation = 2
        run = simulate_closed_loop(
            net, ext, x0, 30, activation_t=activation,
            epsilon=0.05, xi=np.full(n, 0.5), mode=MODE_U1,
        )
        assert run.scaled_steps() == []
        healthy_at_a = run.trajectory.errors[activation] >= 0.0
        tail = run.trajectory.errors[activation + 1 :, healthy_at_a]
        assert (tail >= 0.0).all(), "a protected company failed"
        protected += int(healthy_at_a.sum())
    assert protected > 0


def test_closed_loop_with_gain_stays_row_sum_stable():
    n = 5
    C = np.full((n, n), 0.9 / (n - 1))
    np.fill_diagonal(C, 0.0)
    net = FinancialNetwork(
        C, np.eye(n), np.full(n, 30.0), np.full(n, 2.0), 5.0
    )
    ext = external_fractions(net)
    run = simulate_closed_loop(
        net, ext, np.full(n, 1.0), 12, activation_t=0,
        epsilon=0.05, xi=np.full(n, 0.5), mode=MODE_U1_U2,
    )
    assert run.steps, "control must have been active"
    for rec in run.steps:
        assert rec.plan.K_tilde is not None
        signs = rec.plan.signs
        closed = (
            orthant_system(net, ext, signs).coupling
            + ext[:, None] * rec.plan.K_tilde
        )
        row_max, _ = spectral_radius_bound(closed)
        assert row_max < 1.0


def test_control_log_structure(tmp_path):
    n = 3
    net = flat_net(n, np.full(n, 10.0), np.ones(n), beta=2.0)
    ext = external_fractions(net)
    run = simulate_closed_loop(
        net, ext, np.array([1.0, -0.5, 2.0]), 6, activation_t=3,
        epsilon=0.05, xi=np.full(n, 0.5), mode=MODE_U1_U2,
    )
    path = tmp_path / "control_log.json"
    write_control_log(path, run)
    doc = json.loads(path.read_text())
    assert [rec["t"] for rec in doc["steps"]] == [3, 4, 5]
    first = doc["steps"][0]
    assert set(first) >= {"t", "u1", "w", "K_tilde", "D_new", "lp_status", "scale"}
    assert first["lp_status"] in ("optimal", "scaled")
    assert all(len(trip) == 3 for trip in first["D_new"])
    for rec in doc["steps"]:
        assert rec["scale"] == admissible_scale(np.array(rec["w"]), net.prices)


def _newly_failed(errors, activation):
    """Companies healthy at ``activation`` that fail at any later step."""
    healthy = errors[activation] >= 0.0
    return int((errors[activation + 1 :, healthy] < 0.0).any(axis=0).sum())


@pytest.mark.parametrize("mode", [MODE_U1, MODE_U1_U2])
def test_closed_loop_prefix_is_the_open_loop(mode):
    cfg = preset_baseline100()
    net = build_network(cfg, 0)
    ext = external_fractions(net)
    x0 = initial_errors(cfg.x0, cfg.n)
    open_errors = simulate(net, ext, x0, cfg.horizon).errors
    for a in (0, 60, cfg.horizon):
        run = simulate_closed_loop(net, ext, x0, cfg.horizon, a, mode=mode)
        assert np.array_equal(run.trajectory.errors[: a + 1], open_errors[: a + 1])


@pytest.mark.parametrize("link_prob", [0.8, 0.2])
def test_closed_loop_stops_cascades_the_open_loop_spreads(link_prob):
    # fresh networks with early activation, where the open loop still has
    # companies left to lose (criterion 8's activation at step 60 comes
    # after the open loop has settled)
    cfg = preset_baseline100()
    cfg.link_prob = link_prob
    horizon = 80
    x0 = initial_errors(cfg.x0, cfg.n)
    for seed in (9001, 9002, 9003):
        net = build_network(cfg, seed)
        ext = external_fractions(net)
        open_errors = simulate(net, ext, x0, horizon).errors
        for a in (1, 3):
            assert _newly_failed(open_errors, a) >= 1, (seed, a)
            u1 = simulate_closed_loop(net, ext, x0, horizon, a, mode=MODE_U1)
            u1u2 = simulate_closed_loop(net, ext, x0, horizon, a, mode=MODE_U1_U2)
            assert _newly_failed(u1.trajectory.errors, a) == 0, (seed, a)
            assert _newly_failed(u1u2.trajectory.errors, a) == 0, (seed, a)
            last_move = np.abs(np.diff(u1.trajectory.errors[-2:], axis=0)).max()
            assert last_move <= 1e-9, (seed, a, last_move)


def test_closed_loop_solves_lp_only_when_the_log_reads_allocations(
    monkeypatch, tmp_path
):
    cfg = preset_baseline100()
    cfg.n = 12
    cfg.market.thresholds, cfg.market.failure_cost = 10.0, 50.0
    cfg.x0.lo, cfg.x0.hi = 0.1, 500.0
    net = build_network(cfg, 0)
    ext = external_fractions(net)
    x0 = initial_errors(cfg.x0, cfg.n)
    calls = []

    def counting_solve_lp(lp):
        calls.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(control, "solve_lp", counting_solve_lp)
    for mode in (MODE_U1, MODE_U1_U2):
        run = simulate_closed_loop(
            net, ext, x0, 20, activation_t=5, epsilon=0.05, mode=mode
        )
        assert calls == [], mode
        distinct = {rec.demand.tobytes() for rec in run.steps}
        assert 1 < len(distinct) < len(run.steps), mode
        write_control_log(tmp_path / "control_log.json", run)
        assert len(calls) == len(distinct), mode
        for rec in run.steps:
            D = rec.investment.D_new
            np.testing.assert_allclose(
                D @ net.prices, rec.scale * rec.demand, rtol=0, atol=1e-8
            )
        write_control_log(tmp_path / "control_log.json", run)
        assert len(calls) == len(distinct), mode
        calls.clear()
