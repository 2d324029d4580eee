"""Scenario configuration and batch experiment runner.

A scenario bundles a network source (generated or loaded), an initial
error pattern, a horizon, and an optional control setup.  Running it
produces per-seed artifact directories (trajectory, events, condition
reports, cluster snapshots, cascade estimate, control log, summary) plus
an aggregate summary.  All outputs are deterministic functions of the
config and seed; wall times stay in memory only.
"""

import json
import os
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .analysis import (
    check_offset_nonneg,
    check_row_sum_stability,
    report_as_dict,
)
from .cascade_estimate import (
    estimate_from_network,
    write_estimate_csv,
    write_estimate_summary,
)
from .control import (
    MODE_U1,
    MODE_U1_U2,
    simulate_closed_loop,
    write_control_log,
)
from .dynamics import simulate, write_events_json, write_trajectory_csv
from .errors import ConfigError
from .network import (
    FinancialNetwork,
    NetworkGenSpec,
    external_fractions,
    generate_cross_holdings,
    load_network,
)

X0_PRESETS = ("alternating", "linspace", "values")
CONTROL_MODES = ("open", "u1", "u1u2")
_MODE_MAP = {"u1": MODE_U1, "u1u2": MODE_U1_U2}
_NETWORK_KEYS = ("file", "kind", "n", "link_prob", "exponent", "weight")
_TOP_KEYS = ("horizon", "seeds", "outputs", "network", "market", "x0", "control")


def _known_keys(doc, section, known):
    """Return ``doc`` after checking it is an object naming only ``known``
    keys.  An unknown key fails loudly rather than being ignored, so a
    typo cannot silently run at a default and a field that once existed
    cannot silently change meaning."""
    if not isinstance(doc, dict):
        raise ConfigError(f"the {section} section must be a JSON object")
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ConfigError(f"unknown {section} settings {unknown}")
    return doc


def _spec_from_dict(cls, doc, section):
    return cls(**_known_keys(doc, section, [f.name for f in fields(cls)]))


@dataclass
class MarketSpec:
    """Market side of a generated scenario: flat thresholds, one asset
    per company held fully, arithmetic price ladder."""

    thresholds: float = 100.0
    failure_cost: float = 5000.0
    price_start: float = 1.0
    price_step: float = 6.0

    def to_dict(self):
        return {
            "thresholds": self.thresholds,
            "failure_cost": self.failure_cost,
            "price_start": self.price_start,
            "price_step": self.price_step,
        }

    @classmethod
    def from_dict(cls, doc):
        return _spec_from_dict(cls, doc, "market")


@dataclass
class InitialSpec:
    """Initial error pattern.

    ``alternating`` tiles the pair (lo, hi); ``linspace`` spreads evenly
    from lo to hi; ``values`` uses an explicit list.
    """

    preset: str = "alternating"
    lo: float = 1.0
    hi: float = 5000.0
    values: list | None = None

    def to_dict(self):
        doc = {"preset": self.preset, "lo": self.lo, "hi": self.hi}
        if self.values is not None:
            doc["values"] = list(self.values)
        return doc

    @classmethod
    def from_dict(cls, doc):
        return _spec_from_dict(cls, doc, "x0")


@dataclass
class ControlSpec:
    mode: str = "open"
    activation_t: int = 60
    epsilon: float = 1e-6
    xi_scale: float | None = None

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, doc):
        return _spec_from_dict(cls, doc, "control")


@dataclass
class ScenarioConfig:
    horizon: int = 300
    seeds: list = field(default_factory=lambda: [0])
    outputs: str = "runs"
    network_file: str | None = None
    net_kind: str | None = "uniform"
    n: int = 100
    link_prob: float = 0.2
    exponent: float = 2.1
    weight: float | None = None
    market: MarketSpec = field(default_factory=MarketSpec)
    x0: InitialSpec = field(default_factory=InitialSpec)
    control: ControlSpec = field(default_factory=ControlSpec)

    def to_dict(self):
        if self.network_file is not None:
            net_doc = {"file": self.network_file}
        else:
            net_doc = {
                "kind": self.net_kind,
                "n": self.n,
                "link_prob": self.link_prob,
                "exponent": self.exponent,
                "weight": self.weight,
            }
        return {
            "horizon": self.horizon,
            "seeds": list(self.seeds),
            "outputs": self.outputs,
            "network": net_doc,
            "market": self.market.to_dict(),
            "x0": self.x0.to_dict(),
            "control": self.control.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc):
        _known_keys(doc, "top-level", _TOP_KEYS)
        if "network" not in doc:
            raise ConfigError("config is missing the network section")
        net_doc = _known_keys(doc["network"], "network", _NETWORK_KEYS)
        cfg = cls(
            horizon=doc.get("horizon", 300),
            seeds=list(doc.get("seeds", [0])),
            outputs=doc.get("outputs", "runs"),
            market=MarketSpec.from_dict(doc.get("market", {})),
            x0=InitialSpec.from_dict(doc.get("x0", {})),
            control=ControlSpec.from_dict(doc.get("control", {})),
        )
        if "file" in net_doc:
            cfg.network_file = net_doc["file"]
            cfg.net_kind = None
        else:
            cfg.net_kind = net_doc.get("kind", "uniform")
            cfg.n = net_doc.get("n", 100)
            cfg.link_prob = net_doc.get("link_prob", 0.2)
            cfg.exponent = net_doc.get("exponent", 2.1)
            cfg.weight = net_doc.get("weight")
        return cfg


def validate_config(cfg):
    if cfg.horizon < 1:
        raise ConfigError("horizon must be at least 1")
    if not cfg.seeds:
        raise ConfigError("at least one seed is required")
    has_file = cfg.network_file is not None
    has_gen = cfg.net_kind is not None
    if has_file == has_gen:
        raise ConfigError("exactly one network source (file or generator) is required")
    if cfg.x0.preset not in X0_PRESETS:
        raise ConfigError(f"unknown x0 preset {cfg.x0.preset!r}")
    if cfg.x0.preset == "values" and cfg.x0.values is None:
        raise ConfigError("x0 preset 'values' needs an explicit list")
    if cfg.control.mode not in CONTROL_MODES:
        raise ConfigError(f"unknown control mode {cfg.control.mode!r}")
    if cfg.control.mode != "open":
        if not 0 <= cfg.control.activation_t <= cfg.horizon:
            raise ConfigError("activation time must lie within the horizon")
        if cfg.control.epsilon <= 0.0:
            raise ConfigError("epsilon must be positive")


def save_config(cfg, path):
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_config(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    cfg = ScenarioConfig.from_dict(doc)
    validate_config(cfg)
    return cfg


def preset_baseline100():
    """Hundred-company reference scenario: flat threshold 100, failure
    cost 5000, price ladder 1, 7, ..., 595, each company fully holding
    its own asset, errors alternating between 1 and 5000, horizon 300."""
    return ScenarioConfig(
        horizon=300,
        seeds=list(range(20)),
        outputs="runs/baseline100",
        net_kind="uniform",
        n=100,
        link_prob=0.2,
        exponent=2.1,
        weight=None,
        market=MarketSpec(),
        x0=InitialSpec(preset="alternating", lo=1.0, hi=5000.0),
        control=ControlSpec(mode="open"),
    )


def initial_errors(spec, n):
    if spec.preset == "alternating":
        pattern = np.empty(n)
        pattern[0::2] = spec.lo
        pattern[1::2] = spec.hi
        return pattern
    if spec.preset == "linspace":
        return np.linspace(spec.lo, spec.hi, n)
    values = np.asarray(spec.values, dtype=np.float64)
    if values.shape != (n,):
        raise ConfigError(f"x0 values must have length {n}")
    return values


def build_network(cfg, seed):
    """Materialize the scenario's network for one seed."""
    if cfg.network_file is not None:
        return load_network(cfg.network_file)
    gen = NetworkGenSpec(
        kind=cfg.net_kind,
        n=cfg.n,
        link_prob=cfg.link_prob,
        exponent=cfg.exponent,
        weight=cfg.weight,
        seed=seed,
    )
    holdings = generate_cross_holdings(gen)
    n = cfg.n
    prices = cfg.market.price_start + cfg.market.price_step * np.arange(n)
    return FinancialNetwork(
        cross_holdings=holdings.cross_holdings,
        asset_shares=np.eye(n),
        prices=prices,
        thresholds=np.full(n, cfg.market.thresholds),
        failure_cost=cfg.market.failure_cost,
    )


def snapshot_clusters(traj, healthy_report, times, external_investment):
    """Cluster snapshots at the requested times.

    Companies split by whether their external income sustains their
    threshold (the healthy-rows offset condition); failed flags come
    from the trajectory signs, sizes from external investment value.
    """
    margins = {s: m for s, m in zip(healthy_report.subjects, healthy_report.margins)}
    snaps = []
    for t in times:
        signs = traj.signs[t]
        companies = []
        for i in range(signs.shape[0]):
            violating = margins.get(i, 0.0) < 0.0
            companies.append(
                {
                    "company": i,
                    "cluster": "violating" if violating else "satisfying",
                    "failed": bool(signs[i] < 0.0),
                    "external_investment": float(external_investment[i]),
                }
            )
        snaps.append({"t": int(t), "companies": companies})
    return snaps


def write_clusters_json(path, snaps):
    with open(path, "w") as fh:
        json.dump({"snapshots": snaps}, fh, indent=1, sort_keys=True)
        fh.write("\n")


@dataclass
class RunSummary:
    seed: int
    terminal_failed: int
    failure_fraction: float
    estimate: int
    conditions: dict
    out_dir: str
    wall_time: float
    scaled_steps: list = field(default_factory=list)


def _seed_summary_doc(cfg, summary, n):
    return {
        "seed": summary.seed,
        "n": n,
        "horizon": cfg.horizon,
        "terminal_failed": summary.terminal_failed,
        "failure_fraction": summary.failure_fraction,
        "estimate": summary.estimate,
        "conditions": summary.conditions,
        "scaled_steps": summary.scaled_steps,
    }


def _run_seed(cfg, seed):
    started = time.perf_counter()
    net = build_network(cfg, seed)
    ext = external_fractions(net)
    n = net.n_companies
    x0 = initial_errors(cfg.x0, n)

    scaled_steps = []
    if cfg.control.mode == "open":
        traj = simulate(net, ext, x0, cfg.horizon)
        run_cl = None
    else:
        xi = None
        if cfg.control.xi_scale is not None:
            xi = np.full(n, cfg.control.xi_scale)
        run_cl = simulate_closed_loop(
            net,
            ext,
            x0,
            cfg.horizon,
            cfg.control.activation_t,
            epsilon=cfg.control.epsilon,
            xi=xi,
            mode=_MODE_MAP[cfg.control.mode],
        )
        traj = run_cl.trajectory
        scaled_steps = run_cl.scaled_steps()

    out_dir = os.path.join(cfg.outputs, f"seed-{seed}")
    os.makedirs(out_dir, exist_ok=True)
    write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), traj)
    write_events_json(os.path.join(out_dir, "events.json"), traj)

    healthy_sig = np.ones(n)
    rep_failed, rep_healthy = check_offset_nonneg(net, ext, healthy_sig)
    rep_stability = check_row_sum_stability(net, ext)
    reports = [rep_failed, rep_healthy, rep_stability]
    with open(os.path.join(out_dir, "conditions.json"), "w") as fh:
        json.dump([report_as_dict(r) for r in reports], fh, indent=1, sort_keys=True)
        fh.write("\n")

    est = estimate_from_network(net, ext, x0=x0, force_mean_weight=True)
    write_estimate_csv(os.path.join(out_dir, "estimate.csv"), est)
    write_estimate_summary(os.path.join(out_dir, "estimate_summary.json"), est)

    times = sorted({min(t, cfg.horizon) for t in (0, 30, 60, cfg.horizon)})
    snaps = snapshot_clusters(traj, rep_healthy, times, net.external_income())
    write_clusters_json(os.path.join(out_dir, "clusters.json"), snaps)

    if run_cl is not None:
        write_control_log(os.path.join(out_dir, "control_log.json"), run_cl)

    terminal_failed = int((traj.errors[-1] < 0.0).sum())
    summary = RunSummary(
        seed=seed,
        terminal_failed=terminal_failed,
        failure_fraction=terminal_failed / n,
        estimate=est.estimate,
        conditions={r.condition: bool(r.holds) for r in reports},
        out_dir=out_dir,
        wall_time=time.perf_counter() - started,
        scaled_steps=scaled_steps,
    )
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(_seed_summary_doc(cfg, summary, n), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return summary


def run(cfg):
    """Run every seed of a scenario and write the aggregate summary."""
    validate_config(cfg)
    os.makedirs(cfg.outputs, exist_ok=True)
    summaries = [_run_seed(cfg, int(seed)) for seed in cfg.seeds]
    doc = {
        "seeds": [s.seed for s in summaries],
        "terminal_failed": {str(s.seed): s.terminal_failed for s in summaries},
        "estimates": {str(s.seed): s.estimate for s in summaries},
        "mean_terminal_failed": float(
            np.mean([s.terminal_failed for s in summaries])
        ),
        "mean_failure_fraction": float(
            np.mean([s.failure_fraction for s in summaries])
        ),
    }
    with open(os.path.join(cfg.outputs, "summary.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return summaries
