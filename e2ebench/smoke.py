#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark, run from the repository root:

    python3 e2ebench/smoke.py

Runs the tiny configuration (--smoke) of every workload the driver knows
(BENCHMARK.json gates a subset), untraced and traced, and checks that the last output line is the result JSON
with exactly the metric names and units BENCHMARK.json declares, that every
value is a finite number and that the run was correct. Then it corrupts the
expected catalogue (--inject-fault) and checks that the correctness check
fails the run: correct=false and a non-zero exit code.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = json.loads(Path("BENCHMARK.json").read_text())
RUN = [sys.executable, str(Path(__file__).resolve().parent / "run.py")]
WORKLOADS = ["control_seq", "control_free", "dist_batch"]


def run(workload: str, trace: int, *extra: str):
    cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def check(cond: bool, what: str, failures: list) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def main() -> int:
    failures: list = []
    check({w["name"] for w in BENCH["workloads"]} <= set(WORKLOADS),
          "BENCHMARK.json names only known workloads", failures)
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, res = run(name, trace)
            tag = f"{name} trace={trace}"
            check(rc == 0 and res is not None and res["correct"] is True
                  and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{tag}: correct run", failures)
            if res is None:
                continue
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result keys", failures)
            want = {m["name"]: m["unit"] for m in BENCH[key]}
            got = res["metrics"]
            check(set(got) == set(want), f"{tag}: metric names", failures)
            check(all(got[n]["unit"] == want[n] for n in want if n in got),
                  f"{tag}: metric units", failures)
            check(all(isinstance(v["value"], (int, float))
                      and math.isfinite(v["value"]) for v in got.values()),
                  f"{tag}: finite values", failures)
            if trace == 0:
                check(all(got[n]["value"] > 0 for n in want if n in got),
                      f"{tag}: end-to-end metrics are never 0", failures)
        rc, res = run(name, 0, "--inject-fault")
        check(rc != 0 and res is not None and res["correct"] is False
              and res["failed"] >= 1,
              f"{name}: a wrong reply fails the run", failures)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
