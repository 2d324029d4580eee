"""Outside-in tracing for the traced benchmark run.

Nothing inside ``fincascade`` is instrumented.  ``instrument`` replaces
each layer function with a wrapper at the name its caller looks up
(``fincascade.harness.simulate``, ``fincascade.control.solve_lp``, ...),
records one in-memory span per call and restores the originals on exit.
Self time of a span is its duration minus the time its direct children
cover; per-layer busy time is the sum of self times by span name.
"""

import collections
import contextlib
import functools
import time

import fincascade
from fincascade import analysis, cascade_estimate, control, harness


class Tracer:
    """In-memory spans ``[name, start, end, parent, run_id]`` and counters.

    ``parent`` is the index of the enclosing span or -1; ``run_id`` is the
    benchmark item the span belongs to.
    """

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.run_id = 0
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
                  self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def self_times(self):
        """Per span name: (calls, total self time in seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = collections.Counter()
        busy = collections.defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            calls[name] += 1
            busy[name] += (end - start) - covered
        return calls, busy


def _wrap(tracer, fn, name, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(tracer, result)
        return result

    return wrapper


def _count_steps(counter):
    def after(tracer, traj):
        tracer.counts[counter] += traj.errors.shape[0] - 1

    return after


def _count_controlled_steps(tracer, run):
    tracer.counts["control.steps"] += len(run.steps)


# LP programs are told apart by the control function that solves them.
_LP_OF_CALLER = {"control.design_K": "lp_solver.lp1", "control.solve_investments": "lp_solver.lp2"}


def tableau_shape(lp):
    """Phase-1 tableau shape of the dense simplex for ``lp``, computed
    from the program's array shapes the way ``solve_lp`` lays it out:
    free variables, one slack per inequality, one artificial per
    equality, the right-hand side column, and the cost row.  Inequality
    rows with a negative right-hand side would add artificials too; the
    allocation LP has none."""
    n_free = lp.n_vars - len(lp.fixed)
    n_ub = 0 if lp.ineq_lhs is None else lp.ineq_lhs.shape[0]
    n_eq = 0 if lp.eq_lhs is None else lp.eq_lhs.shape[0]
    return n_ub + n_eq + 1, n_free + n_ub + n_eq + 1


def _wrap_solve_lp(tracer, fn):
    @functools.wraps(fn)
    def wrapper(lp, *args, **kwargs):
        program = _LP_OF_CALLER.get(tracer.parent_name(), "lp_solver.other")
        with tracer.span(program):
            sol = fn(lp, *args, **kwargs)
        rows, cols = tableau_shape(lp)
        tableau_bytes = 8 * rows * cols
        counts = tracer.counts
        counts[program + ".solves"] += 1
        counts[program + ".pivots"] += sol.iterations
        counts[program + "." + sol.status] += 1
        counts[program + ".tableau_bytes"] = max(counts[program + ".tableau_bytes"], tableau_bytes)
        # Each dense pivot makes four full passes over the tableau: np.outer
        # writes a tableau-sized temporary, the update reads it and T, and
        # writes T.
        counts[program + ".bytes_moved"] += 4 * tableau_bytes * sol.iterations
        return sol

    return wrapper


class _JsonProxy:
    """Stands in for the ``json`` module inside ``harness`` so that its
    ``json.dump`` calls (conditions, clusters, summaries) are spanned."""

    def __init__(self, real, dump):
        self._real = real
        self.dump = dump

    def __getattr__(self, attr):
        return getattr(self._real, attr)


# (module, attribute, span name, hook run on the result)
_SITES = (
    (harness, "run", "harness.run", None),
    (harness, "generate_cross_holdings", "network.generate", None),
    (harness, "simulate", "dynamics.simulate", _count_steps("dynamics.simulate.steps")),
    (fincascade, "simulate", "dynamics.simulate", _count_steps("dynamics.simulate.steps")),
    (cascade_estimate, "simulate", "dynamics.simulate", _count_steps("cascade_estimate.pilot_steps")),
    (harness, "write_trajectory_csv", "dynamics.write", None),
    (harness, "write_events_json", "dynamics.write", None),
    (harness, "check_offset_nonneg", "analysis.checks", None),
    (harness, "check_row_sum_stability", "analysis.checks", None),
    (analysis, "check_row_sum_stability", "analysis.checks", None),
    (fincascade, "equilibrium", "analysis.equilibrium", None),
    (analysis, "solve_linear", "numerics.solve_linear", None),
    (harness, "estimate_from_network", "cascade_estimate.estimate", None),
    (fincascade, "estimate_from_network", "cascade_estimate.estimate", None),
    (harness, "write_estimate_csv", "cascade_estimate.write", None),
    (harness, "write_estimate_summary", "cascade_estimate.write", None),
    (harness, "simulate_closed_loop", "control.simulate_closed_loop", _count_controlled_steps),
    (fincascade, "simulate_closed_loop", "control.simulate_closed_loop", _count_controlled_steps),
    (control, "design_u1", "control.design_u1", None),
    (control, "design_u1_bounded", "control.design_u1", None),
    (control, "design_K", "control.design_K", None),
    (control, "solve_investments", "control.solve_investments", None),
    (harness, "write_control_log", "control.write_log", None),
    (control, "write_control_log", "control.write_log", None),
)


@contextlib.contextmanager
def instrument(tracer):
    """Wrap every layer call site for the duration of the block."""
    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    try:
        for owner, attr, name, after in _SITES:
            # A call site that a refactor removes is skipped; its layer reads 0.
            if hasattr(owner, attr):
                patch(owner, attr, _wrap(tracer, getattr(owner, attr), name, after))
        if hasattr(control, "solve_lp"):
            patch(control, "solve_lp", _wrap_solve_lp(tracer, control.solve_lp))
        if hasattr(harness, "json"):
            patch(harness, "json", _JsonProxy(harness.json, _wrap(tracer, harness.json.dump, "harness.write")))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
