#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny size; exits nonzero on a failure.

    python3 e2ebench/smoke.py

Checks that
- BENCHMARK.json matches the definitions in run.py and workloads.py;
- on every workload, the untraced run prints every end-to-end metric and
  the traced run every per-layer metric, each with its unit, and no
  operation fails;
- a deliberately corrupted output counts toward failed_ops_frac;
- without the package source next to it, the benchmark exits nonzero
  and prints no result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join("e2ebench", "run.py"), "--seed", "0",
           "--seconds", "0", "--size", "tiny", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(done):
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]) if done.returncode == 0 and lines else None


def note_of(done, name):
    prefix = f"note {name} = "
    return next(ln[len(prefix):] for ln in done.stdout.splitlines() if ln.startswith(prefix))


def main():
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        expect(json.load(fh) == run.manifest(), "BENCHMARK.json matches run.manifest()")

    units = {
        0: {name: unit for name, unit, _, _ in run.END_TO_END},
        1: {name: unit for name, unit, _ in run.PER_LAYER},
    }
    for workload in run.manifest()["workloads"]:
        name = workload["name"]
        for trace in (0, 1):
            res = result_of(bench("--workload", name, "--trace", str(trace)))
            expect(res is not None and set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace={trace}: result line")
            if res is None:
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == units[trace], f"{name} trace={trace}: every metric with its unit")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{name} trace={trace}: no failed operation")
        done = bench("--workload", name, "--trace", "0", "--corrupt-item", "0")
        res = result_of(done)
        expect(res is not None and not res["correct"] and res["failed"] >= 1
               and res["metrics"]["ok_ops_frac"]["value"] < 1.0
               and float(note_of(done, "failed_ops_frac")) > 0.0,
               f"{name}: corrupted output counts toward failed_ops_frac")

    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(dir=scratch)
    try:
        shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        done = bench("--workload", "experiments", cwd=bare)
        expect(done.returncode != 0 and not done.stdout.strip(),
               "without the package source: nonzero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    print(f"{len(failures)} failed" if failures else "all smoke checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
