"""Shared builders and oracles for the test suite.

Everything here is deliberately independent of the library internals:
the LP oracle enumerates polytope vertices by brute force, the gain
program states as a linear program what ``design_K`` writes down in
closed form, the loop-form kernels spell out the solver arithmetic one
scalar at a time, and the instance generators construct admissible
networks from first principles so the checkers under test are not used
to certify their own inputs.
"""

import itertools

import numpy as np

from fincascade import FinancialNetwork, external_fractions, threshold_income
from fincascade.analysis import FailureBoundBox
from fincascade.dynamics import orthant_system
from fincascade.errors import InfeasibleEps
from fincascade.lp_solver import (
    SIMPLEX_BREAKDOWN,
    SIMPLEX_ITER_LIMIT,
    SIMPLEX_OPTIMAL,
    SIMPLEX_UNBOUNDED,
    LinearProgram,
)


# ---------------------------------------------------------------------------
# brute-force LP oracle


def vertex_optimum(c, A_ub, b_ub, tol=1e-9):
    """Solve min c@z s.t. A_ub@z <= b_ub, z >= 0 by vertex enumeration.

    The feasible region must be bounded (callers include an explicit
    sum cap row), so every nonempty region has at least one vertex and
    an optimum is attained at one of them.  Returns (status, value)
    with value None when infeasible.
    """
    c = np.asarray(c, dtype=np.float64)
    A_ub = np.asarray(A_ub, dtype=np.float64)
    b_ub = np.asarray(b_ub, dtype=np.float64)
    n = c.shape[0]
    rows = np.vstack([A_ub, -np.eye(n)])
    rhs = np.concatenate([b_ub, np.zeros(n)])
    best = None
    for idx in itertools.combinations(range(rows.shape[0]), n):
        sel = np.array(idx)
        try:
            z = np.linalg.solve(rows[sel], rhs[sel])
        except np.linalg.LinAlgError:
            continue
        if not np.isfinite(z).all():
            continue
        if (rows @ z <= rhs + tol).all():
            val = float(c @ z)
            if best is None or val < best:
                best = val
    if best is None:
        return "infeasible", None
    return "optimal", best


def random_small_lp(rng):
    """A random bounded LP with 2..5 variables and at most 8 rows.

    The last inequality row caps sum(z), keeping the polytope bounded so
    the vertex oracle is complete.  Roughly a fifth of the draws come
    out infeasible, which exercises both status paths.
    """
    n = int(rng.integers(2, 6))
    k = int(rng.integers(1, 8))  # cap row brings the total to <= 8
    A = rng.uniform(-1.0, 1.0, size=(k, n))
    b = rng.uniform(-0.5, 1.5, size=k)
    cap = np.ones((1, n))
    A = np.vstack([A, cap])
    b = np.append(b, rng.uniform(1.0, 10.0))
    c = rng.uniform(-1.0, 1.0, size=n)
    return c, A, b


# ---------------------------------------------------------------------------
# loop-form kernel oracles


def gauss_solve_loops(A, b):
    """Gaussian elimination with partial pivoting, every update a scalar
    loop.  Reference for the vectorized solver; no singularity check."""
    U = np.array(A, dtype=np.float64)
    y = np.array(b, dtype=np.float64)
    n = U.shape[0]
    for k in range(n):
        p = k + int(np.argmax(np.abs(U[k:, k])))
        U[[k, p]] = U[[p, k]]
        y[[k, p]] = y[[p, k]]
        for i in range(k + 1, n):
            f = U[i, k] / U[k, k]
            for j in range(k, n):
                U[i, j] -= f * U[k, j]
            y[i] -= f * y[k]
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        acc = y[i]
        for j in range(i + 1, n):
            acc -= U[i, j] * x[j]
        x[i] = acc / U[i, i]
    return x


def simplex_iterate_loops(T, basis, n_allowed, tol_cost, tol_piv, max_iter, stall_limit):
    """Simplex iterations on a dense tableau, loop form.

    The readable specification of the pivot rule in
    ``fincascade.lp_solver._simplex_iterate``: same arguments, same
    status codes, same in-place updates of ``T`` and ``basis``, and the
    same per-element arithmetic, so both walk the same vertex sequence.
    """
    m = T.shape[0] - 1
    rhs = T.shape[1] - 1
    it = 0
    lowest_index = False
    stalled = 0
    last_obj = T[m, rhs]
    while it < max_iter:
        enter = -1
        if lowest_index:
            for j in range(n_allowed):
                if T[m, j] < -tol_cost:
                    enter = j
                    break
        else:
            best_cost = -tol_cost
            for j in range(n_allowed):
                if T[m, j] < best_cost:
                    best_cost = T[m, j]
                    enter = j
        if enter == -1:
            return SIMPLEX_OPTIMAL, it
        leave = -1
        best = np.inf
        best_var = rhs + 1
        tiny = False
        for i in range(m):
            a = T[i, enter]
            if a > tol_piv:
                r = T[i, rhs] / a
                if r < best:
                    best = r
                    leave = i
                    best_var = basis[i]
                elif r == best and basis[i] < best_var:
                    leave = i
                    best_var = basis[i]
            elif a > 0.0:
                tiny = True
        if leave == -1:
            if tiny:
                return SIMPLEX_BREAKDOWN, it
            return SIMPLEX_UNBOUNDED, it
        piv = T[leave, enter]
        for c in range(rhs + 1):
            T[leave, c] /= piv
        for i in range(m + 1):
            if i == leave:
                continue
            f = T[i, enter]
            if f != 0.0:
                for c in range(rhs + 1):
                    T[i, c] -= f * T[leave, c]
        basis[leave] = enter
        it += 1
        # rhs of the cost row carries minus the objective, so improvement
        # shows up as an increase
        obj = T[m, rhs]
        if obj > last_obj + 1e-12 * (1.0 + np.abs(last_obj)):
            stalled = 0
            lowest_index = False
        else:
            stalled += 1
            if stalled >= stall_limit:
                lowest_index = True
        last_obj = obj
    return SIMPLEX_ITER_LIMIT, it


def build_lp1(net, ext_frac, epsilon, signs=None):
    """Gain-synthesis linear program over the flattened gain matrix.

    Variables k[i*n+l] = gain from company l's state into company i's
    investment.  Element lower bounds keep every closed-loop coupling
    entry nonnegative; per-row sum windows keep row sums in
    [0, 1 - epsilon * ext_i]; diagonal entries are fixed at zero.  The
    objective maximizes the total gain.  ``design_K`` returns the
    optimum this program's simplex solve reaches.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    n = net.n_companies
    if signs is None:
        signs = np.ones(n)
    signs = np.asarray(signs, dtype=np.float64)
    system = orthant_system(net, ext_frac, signs)
    A = system.coupling
    row_sums = A.sum(axis=1)
    gamma = (1.0 - row_sums) / ext_frac - epsilon
    mu = row_sums / ext_frac
    bad = np.flatnonzero(gamma < -mu)
    if bad.size:
        raise InfeasibleEps(
            f"epsilon={epsilon} exceeds 1/ext for rows {bad.tolist()[:10]}"
        )

    lower = (-A / ext_frac[:, None]).reshape(-1)
    ineq = np.zeros((2 * n, n * n))
    rhs = np.empty(2 * n)
    for i in range(n):
        ineq[i, i * n : (i + 1) * n] = 1.0
        ineq[n + i, i * n : (i + 1) * n] = -1.0
        rhs[i] = gamma[i]
        rhs[n + i] = mu[i]
    fixed = [(i * n + i, 0.0) for i in range(n)]
    return LinearProgram(
        objective=-np.ones(n * n),
        ineq_lhs=ineq,
        ineq_rhs=rhs,
        fixed=fixed,
        lower_bounds=lower,
    )


# ---------------------------------------------------------------------------
# admissible network builders


def _scaled_holdings(rng, n, mask, max_row=0.4, max_col=0.3):
    """Random nonnegative holdings supported on mask, rescaled so every
    row sum stays below max_row and every column sum below max_col."""
    C = rng.uniform(0.1, 1.0, size=(n, n)) * mask
    np.fill_diagonal(C, 0.0)
    row = C.sum(axis=1).max()
    col = C.sum(axis=0).max()
    scale = 1.0
    if row > 0.0:
        scale = min(scale, max_row / row)
    if col > 0.0:
        scale = min(scale, max_col / col)
    return C * scale


def random_signs(rng, n, p_fail=0.3):
    signs = np.where(rng.uniform(size=n) < p_fail, -1.0, 1.0)
    return signs


def decoupled_stable_instance(rng, n=None):
    """Network + signature satisfying the nonnegative-offset, decoupling
    and row-sum contraction conditions with strict margins.

    Cross-holdings are block diagonal with respect to the signature, so
    no company holds one of the opposite sign.  Prices are backed out
    from the threshold-sustaining income with a strict margin on each
    side, which keeps the orthant offset strictly positive.
    """
    if n is None:
        n = int(rng.integers(4, 11))
    signs = random_signs(rng, n)
    mask = (signs[:, None] * signs[None, :]) > 0.0
    C = _scaled_holdings(rng, n, mask)
    thresholds = rng.uniform(10.0, 100.0, size=n)
    prices_stub = np.ones(n)
    net = FinancialNetwork(C, np.eye(n), prices_stub, thresholds, 1.0)
    ext = external_fractions(net)
    base = threshold_income(net, ext)
    failed = signs < 0.0
    beta = max(20.0, float(-base[failed].min()) + 20.0) if failed.any() else 20.0
    margin = rng.uniform(0.1, 5.0, size=n)
    prices = np.where(failed, base + beta - margin, np.maximum(base, 0.0) + margin)
    assert (prices > 0.0).all()
    net = FinancialNetwork(C, np.eye(n), prices, thresholds, beta)
    return net, external_fractions(net), signs


def bounded_failure_instance(rng, n=None):
    """Network, signature, start state and box for the bounded-failure
    income condition, built so the box provably contains every failed
    state along the trajectory.

    Failed companies hold nothing, so from step one onward their error
    is pinned at the (negative) orthant offset; the box is the max of
    that offset and the start magnitude plus headroom.  Healthy prices
    then cover the threshold income plus the worst-case drag through
    the box with a strict margin.
    """
    if n is None:
        n = int(rng.integers(4, 11))
    n_fail = int(rng.integers(1, n))  # at least one of each kind
    order = rng.permutation(n)
    signs = np.ones(n)
    signs[order[:n_fail]] = -1.0
    failed = signs < 0.0
    healthy = ~failed
    mask = np.ones((n, n), dtype=bool)
    mask[failed, :] = False  # failed companies hold nothing
    C = _scaled_holdings(rng, n, mask)
    thresholds = rng.uniform(10.0, 100.0, size=n)
    stub = FinancialNetwork(C, np.eye(n), np.ones(n), thresholds, 1.0)
    ext = external_fractions(stub)
    base = threshold_income(stub, ext)
    beta = max(20.0, float(-base[failed].min()) + 20.0)
    margin = rng.uniform(0.1, 5.0, size=n)
    prices = np.ones(n)
    prices[failed] = base[failed] + beta - margin[failed]

    X0 = np.empty(n)
    X0[failed] = rng.uniform(0.1, 50.0, size=n_fail)
    X0[healthy] = rng.uniform(0.5, 5.0, size=n - n_fail)

    # failed offsets only read the failed companies' own prices
    net = FinancialNetwork(C, np.eye(n), prices, thresholds, beta)
    system = orthant_system(net, external_fractions(net), signs)
    bounds = np.zeros(n)
    bounds[failed] = np.maximum(X0[failed], system.offset[failed]) + 0.1
    box = FailureBoundBox(bounds)

    drag = system.coupling[np.ix_(np.flatnonzero(healthy), np.flatnonzero(failed))]
    required = base[healthy] - (drag @ bounds[failed]) / ext[healthy]
    prices[healthy] = np.maximum(required, 0.0) + margin[healthy]
    net = FinancialNetwork(C, np.eye(n), prices, thresholds, beta)
    return net, external_fractions(net), signs, X0, box


def loose_instance(rng, n=None):
    """A network with no structural guarantees beyond validity: column
    sums below one and positive prices.  Used where only the algebraic
    preconditions matter, not stability."""
    if n is None:
        n = int(rng.integers(3, 9))
    mask = rng.uniform(size=(n, n)) < 0.5
    C = rng.uniform(0.05, 1.0, size=(n, n)) * mask
    np.fill_diagonal(C, 0.0)
    col = C.sum(axis=0)
    cap = rng.uniform(0.1, 0.8)
    over = col.max()
    if over > cap:
        C *= cap / over
    thresholds = rng.uniform(1.0, 100.0, size=n)
    prices = rng.uniform(1.0, 100.0, size=n)
    beta = float(rng.uniform(1.0, 1000.0))
    net = FinancialNetwork(C, np.eye(n), prices, thresholds, beta)
    return net, external_fractions(net)
