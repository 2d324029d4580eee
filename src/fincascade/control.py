"""Stabilizing investment control: constant feedforward, closed-form
feedback gain, and investment-matrix recovery.

The feedforward part u1 buys each company enough external income to hold
its orthant; the feedback part u2 = J K X reshapes the coupling so every
closed-loop row sum contracts, with K written down directly from the
row-separable gain program.  The closed-loop simulator steps the open
loop's kernel on income ``s* w``, the largest share of the combined
demand that a majorization test admits; one allocation LP per distinct
demand turns that income into asset holdings when a log reads them.
"""

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .analysis import FailureBoundBox, threshold_income
from .dynamics import (
    Trajectory,
    _drive,
    _simulate_steps,
    coupling_matrix,
    failure_penalty,
    orthant_system,
    signature_of,
    simulate,
)
from .errors import InfeasibleEps, InvalidSlack, LpInfeasible, NumericalBreakdown
from .lp_solver import FEAS_TOL, OPTIMAL, LinearProgram, solve_lp

EPSILON_DEFAULT = 1e-6
GAIN_TOL = 1e-10


def _check_slack(xi, n):
    xi = np.ascontiguousarray(xi, dtype=np.float64)
    if xi.shape != (n,):
        raise InvalidSlack(f"slack must have length {n}")
    if (xi <= 0.0).any():
        raise InvalidSlack("slack must be strictly positive componentwise")
    return xi


def default_slack(net):
    """All-ones slack scaled to 1% of the mean threshold."""
    level = 0.01 * float(net.thresholds.mean())
    if level <= 0.0:
        level = 1.0
    return np.full(net.n_companies, level)


def offset_with_income(net, ext_frac, signs, income):
    """Orthant offset when per-company external income is ``income``
    instead of the network's asset portfolio."""
    signs = np.asarray(signs, dtype=np.float64)
    W = coupling_matrix(net, ext_frac)
    pen = failure_penalty(signs, net.failure_cost)
    return signs * _drive(net, ext_frac, W, income - pen)


def design_u1(net, ext_frac, signs, xi):
    """Feedforward income making the orthant offset nonnegative.

    Every company receives its threshold-sustaining income, failed
    companies additionally cover the failure cost, and the slack xi
    pushes the offset strictly positive for healthy companies.
    """
    signs = np.asarray(signs, dtype=np.float64)
    xi = _check_slack(xi, net.n_companies)
    base = threshold_income(net, ext_frac)
    u1 = base + failure_penalty(signs, net.failure_cost) + signs * xi
    b_tilde = offset_with_income(net, ext_frac, signs, u1)
    if not (b_tilde >= -GAIN_TOL).all():
        raise NumericalBreakdown("designed offset went negative")
    return u1


def design_u1_bounded(net, ext_frac, signs, box, xi):
    """Feedforward for healthy companies only, tolerating bounded failed
    neighbors.

    Each healthy company's income covers its threshold plus the worst
    drag its failed holdings can exert under ``box``.  Entries at failed
    positions are zero; their demand is clamped downstream anyway.
    """
    signs = np.asarray(signs, dtype=np.float64)
    xi = _check_slack(xi, net.n_companies)
    healthy = np.flatnonzero(signs >= 0.0)
    failed = np.flatnonzero(signs < 0.0)
    system = orthant_system(net, ext_frac, signs)
    drag = system.coupling[np.ix_(healthy, failed)] @ box.bounds[failed]
    u1 = np.zeros(net.n_companies)
    u1[healthy] = (
        threshold_income(net, ext_frac)[healthy]
        - drag / ext_frac[healthy]
        + xi[healthy]
    )
    return u1


def design_K(net, ext_frac, signs, epsilon):
    """Gain matrix contracting every closed-loop row sum to
    ``1 - ext_i * epsilon``, built in closed form.

    The gain program maximizes the total gain subject to, per row i:
    entries ``K[i, j] >= -A[i, j] / ext_i`` so the closed-loop coupling
    ``A + ext K`` stays nonnegative, ``K[i, i] = 0``, and a row sum in
    ``[-rowsum(A)_i / ext_i, gamma_i]`` with
    ``gamma_i = (1 - rowsum(A)_i) / ext_i - epsilon``.  Rows share
    no variable and the objective is a plain sum, so each row is
    maximized on its own and every optimum puts row i's sum at
    ``gamma_i``.  That face is nonempty exactly when the lower bounds
    fit under it, i.e. ``gamma_i >= -rowsum(A)_i / ext_i``, which is
    ``epsilon <= 1 / ext_i``.

    Start every off-diagonal entry at its lower bound and lift one
    entry ``j0`` by the remaining room ``gamma_i + rowsum(A)_i / ext_i
    = 1 / ext_i - epsilon``.  Column ``j0`` is 0, or 1 in row 0: this is
    the vertex a lowest-index simplex returns, and the choice is only a
    tie-break.  Every point of the optimal face gives the same closed-loop
    row sums, so each carries the same linear copositive certificate
    ``v = 1`` for the positive closed loop (Rantzer 2015, "Scalable
    control of positive systems").
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    A = orthant_system(net, ext_frac, signs).coupling
    lift = 1.0 / ext_frac - epsilon
    bad = np.flatnonzero(lift < 0.0)
    if bad.size:
        raise InfeasibleEps(
            f"epsilon={epsilon} exceeds 1/ext for rows {bad.tolist()[:10]}"
        )
    K = -A / ext_frac[:, None]
    np.fill_diagonal(K, 0.0)
    if net.n_companies > 1:
        K[1:, 0] += lift[1:]
        K[0, 1] += lift[0]
    closed = A + ext_frac[:, None] * K
    if closed.min() < -GAIN_TOL:
        raise NumericalBreakdown("closed-loop coupling has a negative entry")
    if np.abs(np.diag(closed)).max() > 0.0:
        raise NumericalBreakdown("closed-loop diagonal is not exactly zero")
    sums = closed.sum(axis=1)
    # each row sum reaches 1 - ext_i * epsilon up to rounding
    if sums.min() < -GAIN_TOL or (sums > 1.0 - ext_frac * epsilon + GAIN_TOL).any():
        raise NumericalBreakdown("closed-loop row sums escaped their window")
    return K


def clamp_demands(u1, u2, signs):
    """Per-company investment demand: failed companies and negative
    combined controls demand nothing."""
    total = np.asarray(u1, dtype=np.float64) + np.asarray(u2, dtype=np.float64)
    signs = np.asarray(signs)
    return np.where((signs < 0.0) | (total < 0.0), 0.0, total)


def build_lp2(w, p):
    """Investment-allocation linear program over the flattened share
    matrix d[i*m+h].

    Equalities buy each company exactly its demand at current prices;
    per-company budgets and per-asset capacities stay within one.  The
    objective maximizes total allocated shares, favoring cheap assets.
    """
    w = np.ascontiguousarray(w, dtype=np.float64)
    p = np.ascontiguousarray(p, dtype=np.float64)
    if (w < 0.0).any():
        raise ValueError("demands must be nonnegative")
    if (p <= 0.0).any():
        raise ValueError("prices must be positive")
    n = w.shape[0]
    m = p.shape[0]
    eq = np.zeros((n, n * m))
    ineq = np.zeros((n + m, n * m))
    for i in range(n):
        eq[i, i * m : (i + 1) * m] = p
        ineq[i, i * m : (i + 1) * m] = 1.0
    for h in range(m):
        ineq[n + h, h::m] = 1.0
    return LinearProgram(
        objective=-np.ones(n * m),
        ineq_lhs=ineq,
        ineq_rhs=np.ones(n + m),
        eq_lhs=eq,
        eq_rhs=w,
    )


@dataclass
class InvestmentSolution:
    """Asset allocation realizing per-company demands.

    ``demands_met`` holds the absolute demand residuals; ``clamped``
    lists companies whose demand was zeroed before the solve; ``scale``
    is below one when the demands had to be shrunk to fit capacity.
    """

    D_new: np.ndarray
    demands_met: np.ndarray
    clamped: list
    scaled: bool = False
    scale: float = 1.0


def admissible_scale(w, p):
    """Largest scale ``s*`` <= 1 at which demands ``s* w`` fit prices ``p``.

    An allocation buying ``s w`` is a D >= 0 with row and column sums at
    most one and ``D p = s w``.  Pad the shorter of w and p with zeros
    to a common length; D is then doubly substochastic, and one exists
    exactly when ``s w`` is weakly submajorized by p (Marshall, Olkin &
    Arnold, *Inequalities*, ch. 2): for every k, the k largest demands
    sum to at most the k largest prices.  Necessity is direct, since any
    k companies hold at most one share of each asset and k shares in
    all.  With ``W_k`` and ``P_k`` those partial sums, the largest
    feasible scale is ``s* = min(1, min_k P_k / W_k)``.
    """
    n = len(w)
    m = len(p)
    size = max(n, m)
    W = np.cumsum(np.sort(np.pad(w, (0, size - n)))[::-1])
    P = np.cumsum(np.sort(np.pad(p, (0, size - m)))[::-1])
    pos = W > 0.0
    return min(1.0, float((P[pos] / W[pos]).min())) if pos.any() else 1.0


def solve_investments(w, p, clamped=(), allow_scaling=True):
    """Allocate assets buying ``s* w``, ``s* = admissible_scale(w, p)``, with
    one LP solve.  The closed loop steps on income ``s* w``, so a ``D p``
    missing it by more than ``FEAS_TOL`` raises ``NumericalBreakdown``."""
    w = np.ascontiguousarray(w, dtype=np.float64)
    p = np.ascontiguousarray(p, dtype=np.float64)
    scale = admissible_scale(w, p)
    if scale < 1.0 and not allow_scaling:
        raise LpInfeasible("demands exceed what the assets can cover")
    sol = solve_lp(build_lp2(scale * w, p))
    if sol.status != OPTIMAL:
        raise NumericalBreakdown(f"allocation LP is {sol.status} at its feasible scale")
    D = sol.z.reshape(w.shape[0], p.shape[0])
    missed = np.abs(D @ p - scale * w)
    if missed.max(initial=0.0) > FEAS_TOL:
        raise NumericalBreakdown(f"allocation misses s* w by {missed.max():.3g}")
    return InvestmentSolution(
        D_new=D,
        demands_met=missed,
        clamped=list(clamped),
        scaled=scale < 1.0,
        scale=scale,
    )


@dataclass
class ControlPlan:
    """One step's control design."""

    u1: np.ndarray
    K_tilde: np.ndarray | None
    xi: np.ndarray
    epsilon: float
    activation_t: int
    signs: np.ndarray

    def __post_init__(self):
        if self.K_tilde is not None and np.diag(self.K_tilde).any():
            raise NumericalBreakdown("gain diagonal is not exactly zero")

    def u2_of(self, X):
        if self.K_tilde is None:
            return np.zeros(self.signs.shape[0])
        return self.signs * (self.K_tilde @ np.asarray(X, dtype=np.float64))


@dataclass
class StepRecord:
    """One controlled step: the dynamics received income ``scale *
    demand``.  ``investment``, the allocation realizing it, is solved by
    ``allocate`` on first read; assigning it replaces it."""

    t: int
    plan: ControlPlan
    demand: np.ndarray
    scale: float
    allocate: object = field(repr=False, compare=False)

    @functools.cached_property
    def investment(self):
        return self.allocate()


@dataclass
class ClosedLoopRun:
    trajectory: Trajectory
    steps: list = field(default_factory=list)

    def scaled_steps(self):
        return [rec.t for rec in self.steps if rec.scale < 1.0]


MODE_U1 = "u1_only"
MODE_U1_U2 = "u1_and_u2"


def simulate_closed_loop(
    net,
    ext_frac,
    x0,
    horizon,
    activation_t,
    epsilon=EPSILON_DEFAULT,
    xi=None,
    mode=MODE_U1,
):
    """Run the cascade dynamics with control switching on at
    ``activation_t``.

    The first ``activation_t`` steps are :func:`simulate`.  Each
    controlled step rebuilds the feedforward from the current signature
    (tolerating the currently failed magnitudes), in ``MODE_U1_U2``
    redesigns the gain, and steps the same kernel on income ``s* w``
    without an LP; steps with equal demands share one lazy allocation.
    """
    if mode not in (MODE_U1, MODE_U1_U2):
        raise ValueError(f"unknown mode {mode!r}")
    if not 0 <= activation_t <= horizon:
        raise ValueError("activation time must lie within the horizon")
    n = net.n_companies
    xi = default_slack(net) if xi is None else _check_slack(xi, n)
    W = coupling_matrix(net, ext_frac)
    pen = ext_frac * net.failure_cost
    errors = np.empty((horizon + 1, n))
    errors[: activation_t + 1] = simulate(net, ext_frac, x0, activation_t).errors

    @functools.cache
    def allocation(key, clamped):
        return solve_investments(np.frombuffer(key), net.prices, clamped=clamped)

    steps = []
    for t in range(activation_t, horizon):
        x = errors[t]
        signs = signature_of(x)
        failed = signs < 0.0
        if failed.any():
            box = FailureBoundBox(np.where(failed, -np.minimum(x, 0.0), 0.0))
            u1 = design_u1_bounded(net, ext_frac, signs, box, xi)
        else:
            u1 = design_u1(net, ext_frac, signs, xi)
        gain = None
        if mode == MODE_U1_U2:
            gain = design_K(net, ext_frac, signs, epsilon)
        plan = ControlPlan(
            u1=u1,
            K_tilde=gain,
            xi=xi,
            epsilon=epsilon,
            activation_t=activation_t,
            signs=signs,
        )
        u2 = plan.u2_of(signs * x)
        w = clamp_demands(u1, u2, signs)
        scale = admissible_scale(w, net.prices)
        drive = _drive(net, ext_frac, W, scale * w)
        errors[t + 1] = _simulate_steps(W, drive, pen, x, 1)[1]
        clamped = tuple(np.flatnonzero(w != u1 + u2).tolist())
        allocate = functools.partial(allocation, w.tobytes(), clamped)
        steps.append(StepRecord(t, plan, w, scale, allocate))
    return ClosedLoopRun(trajectory=Trajectory.from_errors(errors), steps=steps)


def _triplets(M, tol=0.0):
    out = []
    rows, cols = np.nonzero(np.abs(M) > tol)
    for i, j in zip(rows, cols):
        out.append([int(i), int(j), float(M[i, j])])
    return out


def write_control_log(path, run):
    doc = {"steps": []}
    for rec in run.steps:
        entry = {
            "t": rec.t,
            "u1": [float(v) for v in rec.plan.u1],
            "w": [float(v) for v in rec.demand],
            "K_tilde": _triplets(rec.plan.K_tilde)
            if rec.plan.K_tilde is not None
            else [],
            "D_new": _triplets(rec.investment.D_new, tol=1e-15),
            "lp_status": "scaled" if rec.scale < 1.0 else "optimal",
            "scale": rec.scale,
            "clamped": [int(i) for i in rec.investment.clamped],
        }
        doc["steps"].append(entry)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
