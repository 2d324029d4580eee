#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of fincascade.

    python3 e2ebench/run.py --workload open_sweep --seed 0 --seconds 10 --trace 0

Runs one workload (see ``workloads.py``) against the package source in
``src/`` next to this directory, checks every operation's output, and
prints the metrics by name and unit; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the workload's item list once untraced and once
traced, reports the per-layer metrics from the traced pass, and writes
the spans to ``.bench_out/``.  ``--write-manifest`` regenerates
``BENCHMARK.json`` from the definitions below.

Claims made with this benchmark must also hold on ``--seed 9001``,
which was not used while the benchmark was tuned.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")
OUT_DIR = os.path.join(ROOT, ".bench_out")

HELD_OUT_SEED = 9001
RUN_SECONDS = 10
# setup_s is the median of this many set-ups: this process plus fresh
# child processes, so each one pays the import again.
SETUP_REPEATS = 5

# name, unit, better, bound.  The closed loops set the timing bounds: their
# LP2 pivots stream 25 MB tableaus, and on a shared 2-core machine their
# run time drifts by 8-9% (quartile spread) over ten seeds.  Four networks
# per u1u2_scaled run instead of two did not narrow it.  u1u2_scaled's peak
# RSS takes a few levels from 195 to 227 MB between runs of the same code.
END_TO_END = (
    ("ops_per_s", "1/s", "higher", 0.24),
    ("run_ms.p50", "ms", "lower", 0.24),
    ("run_ms.tail", "ms", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.2),
    # failed/attempted is zero on a healthy tree, so the benchmark bounds
    # its complement; failed_ops_frac is printed alongside.
    ("ok_ops_frac", "ratio", "higher", 0.01),
    ("setup_s", "s", "lower", 0.25),
)

# name, unit, better
PER_LAYER = (
    ("network.generate.calls", "count", "lower"),
    ("network.generate.s", "s", "lower"),
    ("dynamics.simulate.calls", "count", "lower"),
    ("dynamics.simulate.steps", "count", "lower"),
    ("dynamics.simulate.s", "s", "lower"),
    ("dynamics.write.s", "s", "lower"),
    ("dynamics.write.bytes", "bytes", "lower"),
    ("harness.run.s", "s", "lower"),
    ("harness.write.s", "s", "lower"),
    ("harness.write.bytes", "bytes", "lower"),
    ("analysis.checks.s", "s", "lower"),
    ("analysis.equilibrium.calls", "count", "lower"),
    ("analysis.equilibrium.s", "s", "lower"),
    ("numerics.solve_linear.s", "s", "lower"),
    ("cascade_estimate.estimate.s", "s", "lower"),
    ("cascade_estimate.pilot_steps", "count", "lower"),
    ("cascade_estimate.write.s", "s", "lower"),
    ("cascade_estimate.write.bytes", "bytes", "lower"),
    ("control.steps", "count", "higher"),
    ("control.simulate_closed_loop.s", "s", "lower"),
    ("control.design_u1.s", "s", "lower"),
    ("control.design_K.calls", "count", "lower"),
    ("control.design_K.s", "s", "lower"),
    ("control.solve_investments.calls", "count", "lower"),
    ("control.solve_investments.s", "s", "lower"),
    ("control.write_log.s", "s", "lower"),
    ("control.write_log.bytes", "bytes", "lower"),
    ("control.lp2_cache.hits", "count", "higher"),
    ("control.lp2_cache.hit_ratio", "ratio", "higher"),
    ("lp_solver.lp1.solves", "count", "lower"),
    ("lp_solver.lp1.pivots", "count", "lower"),
    ("lp_solver.lp1.s", "s", "lower"),
    ("lp_solver.lp2.solves", "count", "lower"),
    ("lp_solver.lp2.pivots", "count", "lower"),
    ("lp_solver.lp2.infeasible", "count", "lower"),
    ("lp_solver.lp2.s", "s", "lower"),
    ("lp_solver.lp2.useful_ratio", "ratio", "higher"),
    ("lp_solver.lp2.wall_share", "ratio", "lower"),
    ("lp_solver.lp2.tableau_mb", "MB", "lower"),
    ("lp_solver.lp2.bytes_moved", "bytes", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Artifact file name -> the layer whose writer produces it.
FILE_LAYER = {
    "trajectory.csv": "dynamics.write",
    "events.json": "dynamics.write",
    "clusters.json": "harness.write",
    "conditions.json": "harness.write",
    "summary.json": "harness.write",
    "estimate.csv": "cascade_estimate.write",
    "estimate_summary.json": "cascade_estimate.write",
    "control_log.json": "control.write_log",
}


def manifest():
    import workloads

    return {
        "command": ["python3", "e2ebench/run.py"],
        "paths": ["e2ebench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def set_up(name, seed, size, tmp):
    """Import the package, build the workload's inputs, make one warm-up
    call.  Returns (workload, seconds)."""
    started = time.perf_counter()
    import fincascade  # noqa: F401  (timed: part of set-up)
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[name](seed, size, tmp)
    wl.warm_up()
    return wl, time.perf_counter() - started


def setup_probe(name, seed, size):
    """Set-up time of a fresh process, measured in a child."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", name, "--seed", str(seed), "--size", size]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Measurement:
    def __init__(self):
        self.samples = []  # (item index, seconds) per item run
        self.attempted = 0
        self.failed = 0

    def seconds(self):
        return sum(s for _, s in self.samples)

    def per_item_ms(self):
        """One sample per input item: the median of its repeats, so the
        tail ranks slow inputs rather than scheduler jitter."""
        runs = {}
        for index, s in self.samples:
            runs.setdefault(index, []).append(1000.0 * s)
        return [statistics.median(v) for v in runs.values()]


def measure(wl, seconds, cycles=None, corrupt_item=None, tracer=None):
    """Cycle through the workload's items until ``seconds`` have passed
    (or for exactly ``cycles`` cycles), timing each item and checking its
    output outside the timed region."""
    m = Measurement()
    started = time.perf_counter()
    cycle = 0
    item_no = 0
    while True:
        for index, item in enumerate(wl.items):
            item_no += 1
            if tracer is not None:
                tracer.run_id = item_no
            try:
                t0 = time.perf_counter()
                output = wl.run_item(item)
                m.samples.append((index, time.perf_counter() - t0))
                ops = wl.ops_of(output)
                if item_no - 1 == corrupt_item:
                    wl.corrupt(output)
                bad = min(wl.check(index, item, output), ops)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ops = bad = wl.expected_ops(item)
            m.attempted += ops
            m.failed += bad
        cycle += 1
        if cycle < wl.min_cycles:
            continue
        if cycle == cycles or (cycles is None and time.perf_counter() - started >= seconds):
            return m


def tail_of(samples):
    """Highest nearest-rank percentile with at least ten samples above it,
    as (value, percentile); the maximum when there are fewer than 11."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n


def end_to_end_metrics(m, setup_times):
    run_ms = m.per_item_ms()
    tail, pct = tail_of(run_ms)
    ok = (m.attempted - m.failed) / m.attempted
    notes = {
        "run_ms.samples": f"{len(run_ms)} inputs, {len(m.samples)} runs",
        "run_ms.tail_percentile": round(pct, 2),
        "failed_ops_frac": m.failed / m.attempted,
        "setup_s.samples": [round(s, 4) for s in setup_times],
    }
    values = {
        "ops_per_s": (m.attempted - m.failed) / m.seconds() if m.samples else 0.0,
        "run_ms.p50": statistics.median(run_ms) if run_ms else 0.0,
        "run_ms.tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ops_frac": ok,
        "setup_s": statistics.median(setup_times),
    }
    return values, notes


def per_layer_metrics(tracer, traced, untraced, bytes_by_file):
    calls, busy = tracer.self_times()
    c = tracer.counts
    wall = traced.seconds()
    values = {}
    for name, _, _ in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "s":
            values[name] = busy.get(base, 0.0)
        elif kind == "calls":
            values[name] = calls.get(base, 0)
        else:
            values[name] = c.get(name, 0)
    for file_name, size in bytes_by_file.items():
        layer = FILE_LAYER.get(file_name)
        if layer is not None:
            values[layer + ".bytes"] += size
    steps = c["control.steps"]
    lp2 = c["lp_solver.lp2.solves"]
    values["control.lp2_cache.hits"] = steps - calls.get("control.solve_investments", 0)
    values["control.lp2_cache.hit_ratio"] = values["control.lp2_cache.hits"] / steps if steps else 0.0
    values["lp_solver.lp2.useful_ratio"] = c["lp_solver.lp2.optimal"] / lp2 if lp2 else 0.0
    values["lp_solver.lp2.wall_share"] = busy.get("lp_solver.lp2", 0.0) / wall if wall else 0.0
    values["lp_solver.lp2.tableau_mb"] = c["lp_solver.lp2.tableau_bytes"] / 1e6
    values["trace.spans"] = len(tracer.spans)
    values["trace.wall_s"] = wall
    values["trace.untraced_wall_s"] = untraced.seconds()
    values["trace.overhead_s"] = wall - untraced.seconds()
    return values


def environment():
    import numpy

    import fincascade

    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    try:
        from fincascade import _accel

        kernel_path = "numba" if _accel.NUMBA_ENABLED else "numpy"
    except ImportError:
        kernel_path = "numpy"
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "fincascade": fincascade.__version__,
        "numba_imports": numba_imports,
        "kernel_path": kernel_path,
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_model": cpu,
        "held_out_seed": HELD_OUT_SEED,
    }


def report(values, units, notes, m):
    for name, value in values.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    for name, value in notes.items():
        print(f"note {name} = {value}")
    print(json.dumps({
        "correct": m.failed == 0 and m.attempted > 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny only exercises the code paths (smoke test)")
    p.add_argument("--corrupt-item", type=int, default=None,
                   help="corrupt this item's output before its check (smoke test)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--write-manifest", action="store_true",
                   help="regenerate BENCHMARK.json and exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.workload is None and not args.write_manifest:
        p.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fincascade", "__init__.py")):
        print(f"error: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # Before numpy loads: BLAS threads stay within the machine's cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(manifest(), fh, indent=2)
            fh.write("\n")
        return 0
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP_ROOT)
    try:
        wl, setup_s = set_up(args.workload, args.seed, args.size, tmp)
        if args.setup_probe:
            print(setup_s)
            return 0
        env = environment()
        print("env " + json.dumps(env, sort_keys=True))
        if args.trace:
            return run_traced(args, wl, env)
        setup_times = [setup_s] + [
            setup_probe(args.workload, args.seed, args.size) for _ in range(SETUP_REPEATS - 1)
        ]
        m = measure(wl, args.seconds, corrupt_item=args.corrupt_item)
        values, notes = end_to_end_metrics(m, setup_times)
        units = {name: unit for name, unit, _, _ in END_TO_END}
        report(values, units, notes, m)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass


def run_traced(args, wl, env):
    from tracing import Tracer, instrument

    untraced = measure(wl, 0.0, cycles=wl.min_cycles)
    wl.bytes_written.clear()
    tracer = Tracer()
    with instrument(tracer):
        traced = measure(wl, 0.0, cycles=wl.min_cycles, corrupt_item=args.corrupt_item,
                         tracer=tracer)
    values = per_layer_metrics(tracer, traced, untraced, wl.bytes_written)
    m = Measurement()
    m.attempted = untraced.attempted + traced.attempted
    m.failed = untraced.failed + traced.failed
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "env": env,
            "span_fields": ["name", "start", "end", "parent", "run_id"],
            "spans": tracer.spans,
            "counters": dict(tracer.counts),
            "bytes_by_file": wl.bytes_written,
            "per_layer": values,
        }, fh)
    units = {name: unit for name, unit, _ in PER_LAYER}
    report(values, units, {"span_file": os.path.relpath(path, ROOT)}, m)
    return 0


if __name__ == "__main__":
    sys.exit(main())
