"""Tests for scenario configuration, the batch runner, and the CLI."""

import filecmp
import json
import os

import numpy as np
import pytest

from fincascade import load_network
from fincascade.cli import main
from fincascade.errors import ConfigError
from fincascade.harness import (
    ControlSpec,
    InitialSpec,
    MarketSpec,
    ScenarioConfig,
    build_network,
    initial_errors,
    load_config,
    preset_baseline100,
    run,
    save_config,
    validate_config,
)


def tiny_config(outputs, mode="open", n=12):
    # small market tuned so closed-loop demands fit the asset capacity
    return ScenarioConfig(
        horizon=40,
        seeds=[0, 1],
        outputs=str(outputs),
        net_kind="uniform",
        n=n,
        link_prob=0.3,
        weight=None,
        market=MarketSpec(thresholds=10.0, failure_cost=50.0),
        x0=InitialSpec(preset="alternating", lo=0.1, hi=500.0),
        control=ControlSpec(mode=mode, activation_t=5, epsilon=0.05),
    )


# ------------------------------------------------------------------- preset


def test_preset_reference_values():
    cfg = preset_baseline100()
    assert cfg.n == 100
    assert cfg.horizon == 300
    assert len(cfg.seeds) >= 20
    assert cfg.market.thresholds == 100.0
    assert cfg.market.failure_cost == 5000.0
    net = build_network(cfg, seed=0)
    assert net.prices[0] == 1.0
    assert net.prices[99] == 1.0 + 6.0 * 99  # arithmetic ladder tops at 595
    np.testing.assert_array_equal(net.thresholds, np.full(100, 100.0))
    assert net.failure_cost == 5000.0
    x0 = initial_errors(cfg.x0, cfg.n)
    assert x0.max() == 5000.0 and x0.min() == 1.0


def test_initial_error_patterns():
    alt = initial_errors(InitialSpec(preset="alternating", lo=1.0, hi=9.0), 5)
    np.testing.assert_array_equal(alt, [1.0, 9.0, 1.0, 9.0, 1.0])
    lin = initial_errors(InitialSpec(preset="linspace", lo=0.0, hi=1.0), 3)
    np.testing.assert_allclose(lin, [0.0, 0.5, 1.0])
    vals = initial_errors(InitialSpec(preset="values", values=[3.0, -1.0]), 2)
    np.testing.assert_array_equal(vals, [3.0, -1.0])
    with pytest.raises(ConfigError):
        initial_errors(InitialSpec(preset="values", values=[1.0]), 2)


# -------------------------------------------------------------------- config


def test_config_round_trip_dict(tmp_path):
    cfg = tiny_config(tmp_path / "runs", mode="u1")
    doc = cfg.to_dict()
    back = ScenarioConfig.from_dict(json.loads(json.dumps(doc)))
    assert back == cfg


def test_config_round_trip_file(tmp_path):
    cfg = tiny_config(tmp_path / "runs")
    path = tmp_path / "scenario.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_validate_config_errors(tmp_path):
    base = tiny_config(tmp_path)
    bad = tiny_config(tmp_path)
    bad.horizon = 0
    with pytest.raises(ConfigError):
        validate_config(bad)

    bad = tiny_config(tmp_path)
    bad.seeds = []
    with pytest.raises(ConfigError):
        validate_config(bad)

    bad = tiny_config(tmp_path)
    bad.net_kind = None  # no network source left
    with pytest.raises(ConfigError):
        validate_config(bad)

    bad = tiny_config(tmp_path)
    bad.x0.preset = "sawtooth"
    with pytest.raises(ConfigError):
        validate_config(bad)

    bad = tiny_config(tmp_path, mode="u1")
    bad.control.activation_t = 99
    with pytest.raises(ConfigError):
        validate_config(bad)

    validate_config(base)  # the template itself is clean


def test_config_rejects_removed_freeze_gain(tmp_path):
    doc = tiny_config(tmp_path / "runs", mode="u1u2").to_dict()
    doc["control"]["freeze_gain"] = True
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="freeze_gain"):
        load_config(path)
    assert main(["run-preset", "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section, key",
    [("market", "price_stp"), ("x0", "preest"), ("network", "link_prop"),
     (None, "horizn")],
)
def test_config_rejects_unknown_keys(tmp_path, section, key):
    # a misspelled setting must not run at its default (a network
    # "link_prop" would silently keep link_prob at 0.2)
    doc = tiny_config(tmp_path / "runs").to_dict()
    (doc if section is None else doc[section])[key] = 1
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=key):
        load_config(path)
    assert main(["run-preset", "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


# -------------------------------------------------------------------- runner


def test_run_writes_expected_artifacts(tmp_path):
    cfg = tiny_config(tmp_path / "runs")
    summaries = run(cfg)
    assert len(summaries) == 2
    for seed in (0, 1):
        seed_dir = tmp_path / "runs" / f"seed-{seed}"
        for name in (
            "trajectory.csv",
            "events.json",
            "conditions.json",
            "estimate.csv",
            "estimate_summary.json",
            "clusters.json",
            "summary.json",
        ):
            assert (seed_dir / name).exists(), name
        assert not (seed_dir / "control_log.json").exists()
    top = json.loads((tmp_path / "runs" / "summary.json").read_text())
    assert top["seeds"] == [0, 1]
    for s in summaries:
        assert top["terminal_failed"][str(s.seed)] == s.terminal_failed


def test_run_deterministic_reruns(tmp_path):
    cfg_a = tiny_config(tmp_path / "a")
    cfg_b = tiny_config(tmp_path / "b")
    run(cfg_a)
    run(cfg_b)
    for seed in (0, 1):
        dir_a = tmp_path / "a" / f"seed-{seed}"
        dir_b = tmp_path / "b" / f"seed-{seed}"
        names = sorted(os.listdir(dir_a))
        assert names == sorted(os.listdir(dir_b))
        match, mismatch, errors = filecmp.cmpfiles(dir_a, dir_b, names, shallow=False)
        assert mismatch == [] and errors == []


def test_cluster_snapshots_match_trajectory(tmp_path):
    cfg = tiny_config(tmp_path / "runs")
    cfg.seeds = [0]
    run(cfg)
    seed_dir = tmp_path / "runs" / "seed-0"
    clusters = json.loads((seed_dir / "clusters.json").read_text())
    rows = (seed_dir / "trajectory.csv").read_text().strip().splitlines()[1:]
    errors = np.array([[float(v) for v in row.split(",")[1:-1]] for row in rows])
    for snap in clusters["snapshots"]:
        t = snap["t"]
        for entry in snap["companies"]:
            assert entry["failed"] == bool(errors[t, entry["company"]] < 0.0)
        assert {e["cluster"] for e in snap["companies"]} <= {"violating", "satisfying"}
    times = [snap["t"] for snap in clusters["snapshots"]]
    assert times == sorted({0, 30, cfg.horizon})


def test_controlled_run_writes_log(tmp_path):
    cfg = tiny_config(tmp_path / "runs", mode="u1")
    cfg.seeds = [0]
    run(cfg)
    log = json.loads((tmp_path / "runs" / "seed-0" / "control_log.json").read_text())
    assert [rec["t"] for rec in log["steps"]] == list(range(5, cfg.horizon))


def test_controlled_run_protects_healthy(tmp_path):
    cfg = tiny_config(tmp_path / "runs", mode="u1u2")
    cfg.seeds = [0]
    # feedback demands scale with state magnitudes, so start small and
    # widen the price ladder to keep the allocation inside capacity
    cfg.market = MarketSpec(thresholds=10.0, failure_cost=50.0, price_step=20.0)
    cfg.x0 = InitialSpec(preset="alternating", lo=0.1, hi=5.0)
    summaries = run(cfg)
    seed_dir = tmp_path / "runs" / "seed-0"
    rows = (seed_dir / "trajectory.csv").read_text().strip().splitlines()[1:]
    errors = np.array([[float(v) for v in row.split(",")[1:-1]] for row in rows])
    act = cfg.control.activation_t
    healthy = errors[act] >= 0.0
    assert (errors[act + 1 :, healthy] >= 0.0).all()
    assert summaries[0].scaled_steps == []


# ----------------------------------------------------------------------- CLI


def test_cli_network_pipeline(tmp_path):
    net_path = tmp_path / "net.json"
    code = main(
        [
            "gen-network",
            "--net-kind", "uniform",
            "--n", "12",
            "--link-prob", "0.3",
            "--seed", "7",
            "--threshold", "10",
            "--failure-cost", "50",
            "--out", str(net_path),
        ]
    )
    assert code == 0
    assert load_network(net_path).n_companies == 12

    assert main(["validate", "--net", str(net_path)]) == 0

    sim_dir = tmp_path / "sim"
    code = main(
        [
            "simulate",
            "--net", str(net_path),
            "--horizon", "30",
            "--x0-preset", "alternating",
            "--x0-lo", "0.1",
            "--x0-hi", "500",
            "--out", str(sim_dir),
        ]
    )
    assert code == 0
    assert (sim_dir / "trajectory.csv").exists()

    cond_path = tmp_path / "conditions.json"
    assert main(["analyze", "--net", str(net_path), "--failed", "0,3",
                 "--out", str(cond_path)]) == 0
    reports = json.loads(cond_path.read_text())
    assert len(reports) == 4
    assert all("condition" in rep and "holds" in rep for rep in reports)

    eq_path = tmp_path / "equilibrium.json"
    assert main(["equilibrium", "--net", str(net_path), "--out", str(eq_path)]) == 0
    eq = json.loads(eq_path.read_text())
    assert len(eq["v_star"]) == 12

    est_dir = tmp_path / "est"
    assert main(["estimate", "--net", str(net_path), "--force-mean-weight",
                 "--out", str(est_dir)]) == 0
    assert (est_dir / "estimate.csv").exists()
    assert (est_dir / "estimate_summary.json").exists()

    ctl_path = tmp_path / "control.json"
    assert main(["design-control", "--net", str(net_path), "--epsilon", "0.05",
                 "--with-gain", "--out", str(ctl_path)]) == 0
    ctl = json.loads(ctl_path.read_text())
    assert len(ctl["u1"]) == 12


def test_cli_exit_codes(tmp_path):
    # 2: config error (bad generator spec)
    code = main(
        [
            "gen-network",
            "--net-kind", "uniform",
            "--n", "5",
            "--link-prob", "1.7",
            "--out", str(tmp_path / "x.json"),
        ]
    )
    assert code == 2

    # 4: i/o error (missing file)
    assert main(["validate", "--net", str(tmp_path / "missing.json")]) == 4

    # 3: numerical failure (gain synthesis infeasible, epsilon too large)
    net_path = tmp_path / "tiny.json"
    assert main(
        [
            "gen-network",
            "--net-kind", "uniform",
            "--n", "4",
            "--link-prob", "0.5",
            "--seed", "3",
            "--out", str(net_path),
        ]
    ) == 0
    code = main(
        [
            "design-control",
            "--net", str(net_path),
            "--epsilon", "1.5",
            "--with-gain",
        ]
    )
    assert code == 3


def test_cli_run_preset_smoke(tmp_path):
    out = tmp_path / "preset"
    code = main(
        [
            "run-preset",
            "--preset", "baseline100",
            "--seed", "0",
            "--horizon", "40",
            "--out", str(out),
        ]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seeds"] == [0]
