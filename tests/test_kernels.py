"""Hot numeric kernels against hand recurrences and loop-form oracles.

Each kernel is a private helper next to its only caller: the linear
solve and power iteration in ``numerics``, trajectory stepping in
``dynamics``, simplex pivoting in ``lp_solver``.  The loop-form oracles
live in ``helpers``.
"""

import numpy as np
import pytest

from fincascade import solve_linear
from fincascade.dynamics import _simulate_steps
from fincascade.errors import SingularMatrix
from fincascade.lp_solver import (
    SIMPLEX_BREAKDOWN,
    SIMPLEX_ITER_LIMIT,
    SIMPLEX_OPTIMAL,
    SIMPLEX_UNBOUNDED,
    LinearProgram,
    _simplex_iterate,
    solve_lp,
)
from fincascade.numerics import _gauss_solve, _power_iter

from helpers import gauss_solve_loops, simplex_iterate_loops

# Vectorized back-substitution sums each row in a different order than
# the scalar loop; on these diagonally dominant systems the two agree to
# a few ulps per unknown.
_SOLVE_RTOL = 64 * np.finfo(np.float64).eps


# -------------------------------------------------------------- gauss solve


def test_gauss_solve_residual_matches_loop_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        A = rng.uniform(-1.0, 1.0, (n, n)) + n * np.eye(n)
        b = rng.uniform(-5.0, 5.0, n)
        x = _gauss_solve(A, b, 1e-12)
        np.testing.assert_allclose(A @ x, b, atol=1e-9)
        np.testing.assert_allclose(
            x, gauss_solve_loops(A, b), rtol=_SOLVE_RTOL, atol=_SOLVE_RTOL
        )


def test_gauss_solve_singular_flag_on_both_paths():
    # the kernel raises at its explicit floor, solve_linear at the
    # relative floor PIVOT_FLOOR * max|A|
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    b = np.ones(2)
    with pytest.raises(SingularMatrix, match=r"pivot below 1\.000e-10 .*max\|A\| = 4\.000e\+00"):
        _gauss_solve(A, b, 1e-10)
    with pytest.raises(SingularMatrix, match=r"pivot below 4\.000e-12 .*max\|A\| = 4\.000e\+00"):
        solve_linear(A, b)


def test_gauss_solve_leaves_inputs_untouched():
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    b = np.array([3.0, 5.0])
    A0, b0 = A.copy(), b.copy()
    _gauss_solve(A, b, 1e-12)
    np.testing.assert_array_equal(A, A0)
    np.testing.assert_array_equal(b, b0)


# ------------------------------------------------------------- power method


def test_power_iter_within_row_sum_bound():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        M = rng.uniform(0.0, 1.0, (n, n))
        r = _power_iter(M, np.ones(n), 500, 1e-13)
        assert M.sum(axis=1).min() - 1e-9 <= r <= M.sum(axis=1).max() + 1e-9


def test_power_iter_zero_start_returns_zero():
    M = np.ones((3, 3))
    assert _power_iter(M, np.zeros(3), 100, 1e-12) == 0.0


# ---------------------------------------------------------------- simulator


def test_simulate_steps_matches_hand_recurrence():
    W = np.array([[0.0, 0.2], [0.1, 0.0]])
    drive = np.array([0.5, -0.3])
    pen = np.array([1.0, 2.0])
    x = np.array([1.0, -1.0])
    hist = _simulate_steps(W, drive, pen, x, 25)
    for t in range(25):
        hit = np.where(x < 0.0, pen, 0.0)
        x = W @ x + drive - hit
        np.testing.assert_allclose(hist[t + 1], x, atol=0.0)


def test_simulate_steps_random_network_history_shape_and_recurrence():
    rng = np.random.default_rng(37)
    n = 7
    W = rng.uniform(0.0, 0.1, (n, n))
    np.fill_diagonal(W, 0.0)
    drive = rng.uniform(-1.0, 1.0, n)
    pen = rng.uniform(0.0, 2.0, n)
    x0 = rng.uniform(-2.0, 2.0, n)
    hist = _simulate_steps(W, drive, pen, x0, 60)
    assert hist.shape == (61, n)
    np.testing.assert_array_equal(hist[0], x0)
    x = x0
    for t in range(60):
        x = W @ x + drive - np.where(x < 0.0, pen, 0.0)
        np.testing.assert_allclose(hist[t + 1], x, rtol=1e-12, atol=1e-13)


# ------------------------------------------------------------- simplex pivots


def _two_constraint_tableau():
    # min -z1 - z2  s.t.  z1 + 2 z2 <= 4,  3 z1 + z2 <= 6, slack basis
    T = np.array(
        [
            [1.0, 2.0, 1.0, 0.0, 4.0],
            [3.0, 1.0, 0.0, 1.0, 6.0],
            [-1.0, -1.0, 0.0, 0.0, 0.0],
        ]
    )
    basis = np.array([2, 3], dtype=np.int64)
    return T, basis


_SIMPLEX_KERNELS = (simplex_iterate_loops, _simplex_iterate)


def test_simplex_twins_walk_identical_pivots():
    T_a, basis_a = _two_constraint_tableau()
    T_b, basis_b = _two_constraint_tableau()
    s_a, it_a = simplex_iterate_loops(T_a, basis_a, 4, 1e-9, 1e-11, 100, 25)
    s_b, it_b = _simplex_iterate(T_b, basis_b, 4, 1e-9, 1e-11, 100, 25)
    assert s_a == s_b == SIMPLEX_OPTIMAL
    assert it_a == it_b == 2
    np.testing.assert_array_equal(basis_a, basis_b)
    np.testing.assert_array_equal(T_a, T_b)
    z = np.zeros(4)
    for i, var in enumerate(basis_a):
        z[var] = T_a[i, -1]
    np.testing.assert_allclose(z[:2], [8.0 / 5.0, 6.0 / 5.0], atol=1e-12)
    # cost-row rhs carries minus the objective
    assert T_a[-1, -1] == pytest.approx(14.0 / 5.0)


def test_simplex_active_kernel_agrees_with_twins():
    # solve_lp drives the kernel on the same program; it must land on the
    # loop oracle's vertex after the same number of pivots
    T, basis = _two_constraint_tableau()
    _, it = simplex_iterate_loops(T, basis, 4, 1e-9, 1e-11, 100, 25)
    lp = LinearProgram(
        objective=np.array([-1.0, -1.0]),
        ineq_lhs=np.array([[1.0, 2.0], [3.0, 1.0]]),
        ineq_rhs=np.array([4.0, 6.0]),
    )
    sol = solve_lp(lp)
    assert sol.iterations == it == 2
    z = np.zeros(4)
    z[basis] = T[:2, -1]
    np.testing.assert_array_equal(sol.z, z[:2])
    assert sol.objective_value == pytest.approx(-T[-1, -1])


def test_simplex_unbounded_status_on_both_twins():
    def tableau():
        # min -z1  s.t.  -z1 + z2 <= 1: z1 grows without bound
        T = np.array([[-1.0, 1.0, 1.0, 1.0], [-1.0, 0.0, 0.0, 0.0]])
        return T, np.array([2], dtype=np.int64)

    for fn in _SIMPLEX_KERNELS:
        T, basis = tableau()
        status, _ = fn(T, basis, 3, 1e-9, 1e-11, 100, 25)
        assert status == SIMPLEX_UNBOUNDED


def test_simplex_breakdown_on_tiny_pivot_column():
    def tableau():
        # the only positive entry sits below the pivot floor
        T = np.array([[1e-13, 1.0, 5.0], [-1.0, 0.0, 0.0]])
        return T, np.array([1], dtype=np.int64)

    for fn in _SIMPLEX_KERNELS:
        T, basis = tableau()
        status, _ = fn(T, basis, 2, 1e-9, 1e-11, 100, 25)
        assert status == SIMPLEX_BREAKDOWN


def test_simplex_iteration_cap_status():
    for fn in _SIMPLEX_KERNELS:
        T, basis = _two_constraint_tableau()
        status, it = fn(T, basis, 4, 1e-9, 1e-11, 1, 25)
        assert status == SIMPLEX_ITER_LIMIT
        assert it == 1


def test_simplex_twins_lockstep_on_random_tableaus():
    rng = np.random.default_rng(59)
    for _ in range(30):
        m = int(rng.integers(1, 6))
        k = int(rng.integers(1, 6))
        A = rng.uniform(-1.0, 1.0, (m, k))
        rhs = rng.uniform(0.0, 4.0, m)
        cost = rng.uniform(-1.0, 1.0, k)
        T = np.zeros((m + 1, k + m + 1))
        T[:m, :k] = A
        T[:m, k : k + m] = np.eye(m)
        T[:m, -1] = rhs
        T[m, :k] = cost
        basis = np.arange(k, k + m, dtype=np.int64)
        T_b = T.copy()
        basis_b = basis.copy()
        # tight stall limit forces the lowest-index fallback to engage
        s_a, it_a = simplex_iterate_loops(T, basis, k + m, 1e-9, 1e-11, 400, 2)
        s_b, it_b = _simplex_iterate(T_b, basis_b, k + m, 1e-9, 1e-11, 400, 2)
        assert s_a == s_b
        assert it_a == it_b
        np.testing.assert_array_equal(basis, basis_b)
        np.testing.assert_array_equal(T, T_b)


def test_simplex_degenerate_pivots_trigger_lowest_index_fallback():
    # first pivot is degenerate (zero rhs), so a stall limit of one flips
    # the entering rule; both twins must still finish at the optimum
    def tableau():
        T = np.array(
            [
                [1.0, 0.0, 1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 1.0, 1.0],
                [-2.0, -1.0, 0.0, 0.0, 0.0],
            ]
        )
        return T, np.array([2, 3], dtype=np.int64)

    results = []
    for fn in _SIMPLEX_KERNELS:
        T, basis = tableau()
        status, it = fn(T, basis, 4, 1e-9, 1e-11, 100, 1)
        results.append((status, it, T.copy(), basis.copy()))
    (s_a, it_a, T_a, basis_a), (s_b, it_b, T_b, basis_b) = results
    assert s_a == s_b == SIMPLEX_OPTIMAL
    assert it_a == it_b
    np.testing.assert_array_equal(T_a, T_b)
    np.testing.assert_array_equal(basis_a, basis_b)
