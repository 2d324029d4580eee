"""Session-wide fixtures: the three reference experiments are simulated
once and shared by every test that reads their statistics."""

import time

import pytest
import numpy as np

from fincascade import (
    estimate_from_network,
    external_fractions,
    simulate,
)
from fincascade.harness import build_network, initial_errors, preset_baseline100


def run_experiment(net_kind, link_prob=0.2, exponent=2.1, seeds=range(20)):
    """Simulate one reference experiment over the given seeds.

    Returns per-seed terminal failure counts, cascade-size estimates,
    flags for new failures after step 60 among companies healthy at 60,
    and the total wall time spent simulating.
    """
    cfg = preset_baseline100()
    cfg.net_kind = net_kind
    cfg.link_prob = link_prob
    cfg.exponent = exponent
    observed = []
    estimates = []
    late_failures = []
    t0 = time.perf_counter()
    for seed in seeds:
        net = build_network(cfg, seed)
        ext = external_fractions(net)
        x0 = initial_errors(cfg.x0, cfg.n)
        traj = simulate(net, ext, x0, cfg.horizon)
        observed.append(int((traj.errors[-1] < 0.0).sum()))
        est = estimate_from_network(net, ext, x0=x0, force_mean_weight=True)
        estimates.append(est.estimate)
        failed_at_60 = traj.failed_set(60)
        late = any(
            e.t > 60 and e.direction == "fail" and e.company not in failed_at_60
            for e in traj.events
        )
        late_failures.append(late)
    wall = time.perf_counter() - t0
    return {
        "observed": np.array(observed),
        "estimates": np.array(estimates),
        "late_failures": late_failures,
        "wall": wall,
        "n": cfg.n,
    }


@pytest.fixture(scope="session")
def exp1_results():
    return run_experiment("uniform", link_prob=0.2)


@pytest.fixture(scope="session")
def exp2_results():
    return run_experiment("uniform", link_prob=0.8)


@pytest.fixture(scope="session")
def exp3_results():
    return run_experiment("powerlaw", exponent=2.1)
