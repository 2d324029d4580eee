"""Discrete-time cascade dynamics.

Company market values follow a linear cross-holdings flow plus external
asset income, minus a fixed penalty charged while a company sits below
its failure threshold.  Working in error coordinates (market value minus
threshold) makes the map piecewise affine: inside each sign orthant it
is one affine map, and flipping failed coordinates positive turns that
map into a nonnegative-matrix iteration whenever the structural
conditions checked in :mod:`fincascade.analysis` hold.

Sign convention: a company is failed exactly when its error coordinate
is strictly negative; sitting on the threshold counts as healthy.
"""

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch


@dataclass
class SystemState:
    """Snapshot of the network at one step.

    ``market`` is the externally relevant value ``external_fraction *
    equity`` and ``error`` is ``market - thresholds``; constructors keep
    the three representations consistent by deriving two of them from
    the third.
    """

    t: int
    equity: np.ndarray
    market: np.ndarray
    error: np.ndarray


def state_from_error(net, ext_frac, x, t=0):
    x = np.ascontiguousarray(x, dtype=np.float64)
    market = x + net.thresholds
    return SystemState(t, market / ext_frac, market, x)


def state_from_equity(net, ext_frac, equity, t=0):
    equity = np.ascontiguousarray(equity, dtype=np.float64)
    market = ext_frac * equity
    return SystemState(t, equity, market, market - net.thresholds)


def failure_penalty(x, cost):
    """Penalty vector: ``cost`` where the error coordinate is negative."""
    return np.where(np.asarray(x) < 0.0, float(cost), 0.0)


def signature_of(x):
    """Orthant signature of an error vector: -1 where failed, +1 otherwise."""
    return np.where(np.asarray(x) < 0.0, -1.0, 1.0)


def coupling_matrix(net, ext_frac):
    """Error-coordinate coupling ``diag(ext) C diag(ext)^-1``."""
    return net.cross_holdings * (ext_frac[:, None] / ext_frac[None, :])


def step_equity(net, ext_frac, state):
    """Advance one step in equity coordinates.

    Equity moves by cross-holdings flow plus asset income minus the
    penalty on currently failed companies (failure judged on market
    value against threshold).
    """
    pen = failure_penalty(state.market - net.thresholds, net.failure_cost)
    equity_next = (
        net.cross_holdings @ state.equity + net.external_income() - pen
    )
    return state_from_equity(net, ext_frac, equity_next, state.t + 1)


def step_error(net, ext_frac, x):
    """Advance one step in error coordinates.

    Independent of :func:`step_equity`: uses the expanded affine form
    ``x' = W x + (W - I) thr + ext * (income - penalty(x))``.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    W = coupling_matrix(net, ext_frac)
    drive = _drive(net, ext_frac, W, net.external_income())
    return W @ x + drive - ext_frac * failure_penalty(x, net.failure_cost)


def _drive(net, ext_frac, W, income):
    """Constant term ``(W - I) thr + ext * income`` of the step map."""
    return W @ net.thresholds - net.thresholds + ext_frac * income


@dataclass
class OrthantSystem:
    """Fixed-signature dynamics in flipped-positive coordinates.

    With ``J = diag(signs)`` and ``X = J x >= 0`` on the orthant, one
    step is ``X' = coupling @ X + offset``.
    """

    signs: np.ndarray
    coupling: np.ndarray
    offset: np.ndarray


def orthant_system(net, ext_frac, signs):
    signs = np.ascontiguousarray(signs, dtype=np.float64)
    if signs.shape[0] != net.n_companies:
        raise DimensionMismatch("signature length does not match the network")
    W = coupling_matrix(net, ext_frac)
    A = signs[:, None] * W * signs[None, :]
    np.fill_diagonal(A, 0.0)
    # Inside the orthant the penalty is a constant: failed companies pay
    # the full cost, healthy ones pay nothing.
    pen = failure_penalty(signs, net.failure_cost)
    b = signs * _drive(net, ext_frac, W, net.external_income() - pen)
    return OrthantSystem(signs, A, b)


def step_orthant(system, X):
    return system.coupling @ np.asarray(X, dtype=np.float64) + system.offset


@dataclass
class FailureEvent:
    t: int
    company: int
    direction: str  # "fail" or "recover"


@dataclass
class Trajectory:
    """Error history with per-step signatures and sign-change events."""

    errors: np.ndarray  # (horizon + 1, n)
    signs: np.ndarray  # (horizon + 1, n)
    events: list

    @property
    def horizon(self):
        return self.errors.shape[0] - 1

    def failed_counts(self):
        return (self.errors < 0.0).sum(axis=1)

    def failed_set(self, t):
        return np.flatnonzero(self.errors[t] < 0.0)

    @classmethod
    def from_errors(cls, errors):
        """Trajectory of an error history; events list every sign change
        in step order."""
        signs = np.where(errors < 0.0, -1.0, 1.0)
        events = []
        flips = np.argwhere(signs[1:] != signs[:-1])
        for step, company in flips:
            direction = "fail" if signs[step + 1, company] < 0 else "recover"
            events.append(FailureEvent(int(step) + 1, int(company), direction))
        return cls(errors, signs, events)


def simulate(net, ext_frac, x0, horizon):
    """Iterate :func:`step_error` for ``horizon`` steps and return the
    full :class:`Trajectory`."""
    x0 = np.ascontiguousarray(x0, dtype=np.float64)
    if x0.shape[0] != net.n_companies:
        raise DimensionMismatch("x0 length does not match the network")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    W = coupling_matrix(net, ext_frac)
    drive = _drive(net, ext_frac, W, net.external_income())
    pen = ext_frac * net.failure_cost
    return Trajectory.from_errors(_simulate_steps(W, drive, pen, x0, int(horizon)))


def _simulate_steps(W, drive, pen, x0, steps):
    """Iterate ``x' = W x + drive - pen * (x < 0)`` for ``steps`` steps.

    ``pen`` is the per-company penalty hit applied while a company sits
    below its threshold.  Returns the ``(steps + 1, n)`` history.
    """
    n = x0.shape[0]
    hist = np.empty((steps + 1, n))
    hist[0, :] = x0
    x = x0.copy()
    for t in range(steps):
        hit = np.where(x < 0.0, pen, 0.0)
        x = np.dot(W, x) + drive - hit
        hist[t + 1, :] = x
    return hist


def write_trajectory_csv(path, traj):
    """Rows ``t, x_1..x_n, failed_count``; floats use repr round-trip form."""
    n = traj.errors.shape[1]
    counts = traj.failed_counts()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x_{i + 1}" for i in range(n)] + ["failed_count"])
        for t in range(traj.errors.shape[0]):
            writer.writerow(
                [t] + [repr(float(v)) for v in traj.errors[t]] + [int(counts[t])]
            )


def write_events_json(path, traj):
    doc = [
        {"t": e.t, "company": e.company, "direction": e.direction}
        for e in traj.events
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
