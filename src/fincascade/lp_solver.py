"""Dense two-phase simplex solver.

Solves ``min c.z`` subject to ``A_ub z <= b_ub``, ``A_eq z = b_eq``,
per-variable lower bounds (zero by default), and exactly pinned
variables.  Equalities go through phase-1 artificials rather than
inequality pairs.  The entering column is the most negative reduced
cost with ties broken by lowest index; after ``STALL_LIMIT`` pivots
without objective improvement the rule drops to Bland's lowest-index
selection until progress resumes, which rules out cycling.  Leaving
rows use the minimum ratio with ties broken by lowest basis variable.
The whole policy is deterministic, so identical inputs walk identical
vertex sequences.

The one program built elsewhere in the package stays dense and
moderate: investment allocation has one variable per company/asset
pair.  A dense tableau is the right tool at that size.  Gain synthesis
needs no solver; ``control.design_K`` writes its optimum down directly.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NumericalBreakdown

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# Absolute feasibility tolerance on inequality/equality residuals.
FEAS_TOL = 1e-8
# Absolute tolerance on variable bounds.
BOUND_TOL = 1e-10
# Entering-column eligibility threshold on reduced costs.
COST_TOL = 1e-9
# Pivot floor; smaller positive pivots abort with NumericalBreakdown.
PIVOT_TOL = 1e-11
MAX_ITER = 100_000
STALL_LIMIT = 10_000

# Status codes returned by _simplex_iterate.
SIMPLEX_OPTIMAL = 0
SIMPLEX_UNBOUNDED = 1
SIMPLEX_ITER_LIMIT = 2
SIMPLEX_BREAKDOWN = 3


@dataclass
class LinearProgram:
    """A linear program in the solver's native form.

    ``objective`` is minimized.  ``fixed`` pins variables to exact
    values (they are substituted out before solving).  ``lower_bounds``
    defaults to zero for every variable; bounds must be finite.
    """

    objective: np.ndarray
    ineq_lhs: np.ndarray | None = None
    ineq_rhs: np.ndarray | None = None
    eq_lhs: np.ndarray | None = None
    eq_rhs: np.ndarray | None = None
    fixed: list = field(default_factory=list)
    lower_bounds: np.ndarray | None = None

    @property
    def n_vars(self):
        return int(np.asarray(self.objective).shape[0])


@dataclass
class LpSolution:
    """Solver outcome.  ``z`` is populated only when status is optimal;
    the point is then a vertex of the feasible polytope."""

    status: str
    z: np.ndarray | None
    objective_value: float
    iterations: int


def _as_2d(a, n, what):
    if a is None:
        return np.zeros((0, n))
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != n:
        raise DimensionMismatch(f"{what} must be 2-D with {n} columns, got {m.shape}")
    return m


def _as_1d(a, m, what):
    if a is None:
        return np.zeros(0)
    v = np.ascontiguousarray(a, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != m:
        raise DimensionMismatch(f"{what} must be 1-D with {m} entries, got {v.shape}")
    return v


def _pivot(T, row, col):
    T[row, :] /= T[row, col]
    f = T[:, col].copy()
    f[row] = 0.0
    T -= np.outer(f, T[row, :])


def solve_lp(lp):
    """Solve a :class:`LinearProgram`.

    Returns
    -------
    LpSolution
        On ``optimal``: every inequality holds within ``FEAS_TOL``,
        equalities within ``FEAS_TOL``, bounds within ``BOUND_TOL``,
        fixed values exactly.

    Raises
    ------
    DimensionMismatch
        On inconsistent shapes, repeated or out-of-range fixed indices.
    NumericalBreakdown
        When pivot magnitudes collapse below ``PIVOT_TOL``, the
        iteration cap is hit, or the returned point fails its own
        feasibility post-check.
    """
    c = np.ascontiguousarray(lp.objective, dtype=np.float64)
    if c.ndim != 1:
        raise DimensionMismatch(f"objective must be 1-D, got {c.shape}")
    n = c.shape[0]
    A_ub = _as_2d(lp.ineq_lhs, n, "ineq_lhs")
    b_ub = _as_1d(lp.ineq_rhs, A_ub.shape[0], "ineq_rhs")
    A_eq = _as_2d(lp.eq_lhs, n, "eq_lhs")
    b_eq = _as_1d(lp.eq_rhs, A_eq.shape[0], "eq_rhs")
    lb = (
        np.zeros(n)
        if lp.lower_bounds is None
        else _as_1d(lp.lower_bounds, n, "lower_bounds")
    )
    for arr, what in (
        (c, "objective"),
        (A_ub, "ineq_lhs"),
        (b_ub, "ineq_rhs"),
        (A_eq, "eq_lhs"),
        (b_eq, "eq_rhs"),
        (lb, "lower_bounds"),
    ):
        if arr.size and not np.isfinite(arr).all():
            raise ValueError(f"non-finite entries in {what}")

    fix_idx = [int(i) for i, _ in lp.fixed]
    fix_val = np.array([float(v) for _, v in lp.fixed], dtype=np.float64)
    if len(set(fix_idx)) != len(fix_idx):
        raise DimensionMismatch("fixed indices must be distinct")
    if any(i < 0 or i >= n for i in fix_idx):
        raise DimensionMismatch("fixed index out of range")

    free = np.setdiff1d(np.arange(n), np.array(fix_idx, dtype=int))
    nf = free.shape[0]
    z_fixed_part_ub = A_ub[:, fix_idx] @ fix_val if fix_idx else np.zeros(A_ub.shape[0])
    z_fixed_part_eq = A_eq[:, fix_idx] @ fix_val if fix_idx else np.zeros(A_eq.shape[0])

    # Shift free variables so standard-form variables are >= 0.
    lb_free = lb[free]
    b1 = b_ub - z_fixed_part_ub - A_ub[:, free] @ lb_free
    b2 = b_eq - z_fixed_part_eq - A_eq[:, free] @ lb_free
    A1 = A_ub[:, free]
    A2 = A_eq[:, free]
    c_free = c[free]

    def assemble(z_shift):
        z = np.zeros(n)
        z[free] = lb_free + z_shift
        z[fix_idx] = fix_val
        return z

    def finish(z_shift, iterations):
        z = assemble(z_shift)
        _post_check(z, A_ub, b_ub, A_eq, b_eq, lb, fix_idx)
        return LpSolution(OPTIMAL, z, float(c @ z), iterations)

    if nf == 0:
        # Everything pinned: just test feasibility of the fixed point.
        ok = (b1 >= -FEAS_TOL).all() and (np.abs(b2) <= FEAS_TOL).all()
        if not ok:
            return LpSolution(INFEASIBLE, None, float("nan"), 0)
        return finish(np.zeros(0), 0)

    mu, me = A1.shape[0], A2.shape[0]
    m = mu + me

    if m == 0:
        # No constraints: minimum of c.z over z >= 0 is at the origin
        # unless some cost is negative.
        if (c_free < -COST_TOL).any():
            return LpSolution(UNBOUNDED, None, float("nan"), 0)
        return finish(np.zeros(nf), 0)

    # Rows sign-normalized so every right-hand side is nonnegative.
    rows = np.vstack([A1, A2])
    rhs = np.concatenate([b1, b2])
    flip = rhs < 0.0
    rows[flip] *= -1.0
    rhs = np.where(flip, -rhs, rhs)

    slack_of_row = np.full(m, -1, dtype=np.int64)
    needs_art = np.zeros(m, dtype=bool)
    for i in range(mu):
        slack_of_row[i] = i
        needs_art[i] = flip[i]  # flipped slack coefficient is -1
    needs_art[mu:] = True

    art_rows = np.nonzero(needs_art)[0]
    na = art_rows.shape[0]
    n_struct = nf + mu
    width = n_struct + na + 1

    T = np.zeros((m + 1, width))
    T[:m, :nf] = rows
    for i in range(mu):
        T[i, nf + i] = -1.0 if flip[i] else 1.0
    for k, i in enumerate(art_rows):
        T[i, n_struct + k] = 1.0
    T[:m, -1] = rhs

    basis = np.empty(m, dtype=np.int64)
    for i in range(mu):
        basis[i] = nf + i
    art_col = {int(i): n_struct + k for k, i in enumerate(art_rows)}
    for i in art_rows:
        basis[i] = art_col[int(i)]

    iterations = 0
    if na > 0:
        # Phase 1: minimize the artificial total.
        T[m, n_struct : n_struct + na] = 1.0
        for i in art_rows:
            T[m, :] -= T[i, :]
        status, it = _simplex_iterate(
            T, basis, width - 1, COST_TOL, PIVOT_TOL, MAX_ITER, STALL_LIMIT
        )
        iterations += it
        if status == SIMPLEX_BREAKDOWN:
            raise NumericalBreakdown("pivot collapse during feasibility phase")
        if status == SIMPLEX_ITER_LIMIT:
            raise NumericalBreakdown("iteration cap hit during feasibility phase")
        if status == SIMPLEX_UNBOUNDED:
            raise NumericalBreakdown("feasibility phase reported unbounded")
        w_star = -T[m, -1]
        if w_star > 1e-7 * (1.0 + float(np.abs(rhs).max(initial=0.0))):
            return LpSolution(INFEASIBLE, None, float("nan"), iterations)
        # Pivot leftover artificials out; rows that cannot release one
        # are linearly dependent and get dropped.
        drop = []
        for i in range(m):
            if basis[i] < n_struct:
                continue
            cols = np.nonzero(np.abs(T[i, :n_struct]) > 1e-9)[0]
            if cols.size:
                _pivot(T, i, int(cols[0]))
                basis[i] = int(cols[0])
            else:
                drop.append(i)
        if drop:
            keep = np.setdiff1d(np.arange(m), np.array(drop, dtype=int))
            T = np.vstack([T[keep, :], T[m:, :]])
            basis = basis[keep]
            m = keep.shape[0]

    # Phase 2 on a tableau without artificial columns.
    T2 = np.empty((m + 1, n_struct + 1))
    T2[:m, :n_struct] = T[:m, :n_struct]
    T2[:m, -1] = T[:m, -1]
    c_ext = np.concatenate([c_free, np.zeros(mu)])
    T2[m, :n_struct] = c_ext
    T2[m, -1] = 0.0
    for i in range(m):
        cb = c_ext[basis[i]]
        if cb != 0.0:
            T2[m, :] -= cb * T2[i, :]

    status, it = _simplex_iterate(
        T2, basis, n_struct, COST_TOL, PIVOT_TOL, MAX_ITER, STALL_LIMIT
    )
    iterations += it
    if status == SIMPLEX_BREAKDOWN:
        raise NumericalBreakdown("pivot collapse during optimization phase")
    if status == SIMPLEX_ITER_LIMIT:
        raise NumericalBreakdown("iteration cap hit during optimization phase")
    if status == SIMPLEX_UNBOUNDED:
        return LpSolution(UNBOUNDED, None, float("nan"), iterations)

    z_shift = np.zeros(n_struct)
    for i in range(m):
        z_shift[basis[i]] = T2[i, -1]
    return finish(z_shift[:nf], iterations)


def _simplex_iterate(T, basis, n_allowed, tol_cost, tol_piv, max_iter, stall_limit):
    """Simplex iterations on a dense tableau.

    ``T`` is ``(m + 1, cols + 1)``: constraint rows then the reduced-cost
    row, right-hand side in the last column.  Entering column: most
    negative reduced cost below ``-tol_cost`` (ties to the lowest index);
    after ``stall_limit`` pivots without objective progress the scan
    drops to pure lowest-index selection, whose termination guarantee
    breaks any cycle.  Leaving row: minimum ratio, ties broken by lowest
    basis variable.  Mutates ``T`` and ``basis`` in place; returns
    ``(status, iterations)``.
    """
    m = T.shape[0] - 1
    rhs = T.shape[1] - 1
    it = 0
    lowest_index = False
    stalled = 0
    last_obj = T[m, rhs]
    while it < max_iter:
        if lowest_index:
            neg = np.nonzero(T[m, :n_allowed] < -tol_cost)[0]
            if neg.size == 0:
                return SIMPLEX_OPTIMAL, it
            enter = int(neg[0])
        else:
            enter = int(np.argmin(T[m, :n_allowed]))
            if not T[m, enter] < -tol_cost:
                return SIMPLEX_OPTIMAL, it
        col = T[:m, enter]
        elig = col > tol_piv
        if not elig.any():
            if (col > 0.0).any():
                return SIMPLEX_BREAKDOWN, it
            return SIMPLEX_UNBOUNDED, it
        ratios = np.full(m, np.inf)
        ratios[elig] = T[:m, rhs][elig] / col[elig]
        best = ratios.min()
        ties = np.nonzero(ratios == best)[0]
        leave = int(ties[np.argmin(basis[ties])])
        _pivot(T, leave, enter)
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


def _post_check(z, A_ub, b_ub, A_eq, b_eq, lb, fix_idx):
    fixed = np.zeros(z.shape[0], dtype=bool)
    fixed[fix_idx] = True
    if A_ub.shape[0] and float((A_ub @ z - b_ub).max()) > FEAS_TOL:
        raise NumericalBreakdown("optimal point violates an inequality")
    if A_eq.shape[0] and float(np.abs(A_eq @ z - b_eq).max()) > FEAS_TOL:
        raise NumericalBreakdown("optimal point violates an equality")
    if ((z < lb - BOUND_TOL) & ~fixed).any():
        raise NumericalBreakdown("optimal point violates a lower bound")
