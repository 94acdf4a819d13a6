#!/usr/bin/env python3
"""Paired end-to-end runs of two mcam_e2e builds.

    python3 bench/e2e_pairs.py PARENT_BIN CHANGE_BIN --workload control_seq \\
        --seconds 55 --pairs 10 --seed 8101 [--trace 0]

Both binaries are e2ebench's `mcam_e2e` (built by `e2ebench/run.py`, or by
CMake from `e2ebench/`). Each pair runs the two at the same time on the same
seed, each pinned to one half of the CPUs this process may use. The halves
swap every pair, so neither side keeps the faster CPUs. `mcam_e2e` visits
the CPUs of its starting affinity mask one measurement window at a time, so
each side stays on its own half. Pair i uses seed SEED + i.

Prints every run, then for each metric each side's median and quartiles,
the change's median against the parent's, in how many pairs the change was
better, and whether the change's median beats the parent's by more than the
parent's interquartile range. The direction of each metric comes from
BENCHMARK.json. Needs at least 4 CPUs, so that each side has two of its own.
Exit code 0 when every run was correct, 1 otherwise, 2 on a usage error.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def directions() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def start(binary: str, cpus: list, args, seed: int, sockdir: Path):
    cmd = [binary, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--sockdir", str(sockdir)]
    return subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        preexec_fn=lambda: os.sched_setaffinity(0, cpus))


def result(proc, timeout: float) -> dict:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"correct": False, "metrics": {}}
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "metrics": {}}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="mcam_e2e built from the parent commit")
    ap.add_argument("change", help="mcam_e2e built from the change")
    ap.add_argument("--workload", required=True,
                    choices=["control_seq", "control_free", "dist_batch"])
    ap.add_argument("--seconds", type=float, required=True,
                    help="run length of each run")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True,
                    help="seed of the first pair")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 4:
        print(f"e2e_pairs: {len(cpus)} CPUs allowed, at least 4 needed",
              file=sys.stderr)
        return 2
    halves = (cpus[:len(cpus) // 2], cpus[len(cpus) // 2:])
    better = directions()
    sockroot = Path(".e2e_sock") / f"pairs-{os.getpid()}"
    timeout = 3 * args.seconds + 120

    runs = {"parent": [], "change": []}
    all_correct = True
    for i in range(args.pairs):
        seed = args.seed + i
        # The parent takes the first half on even pairs, the second on odd.
        placement = {"parent": halves[i % 2], "change": halves[1 - i % 2]}
        procs = {side: start(getattr(args, side), placement[side], args, seed,
                             sockroot / side)
                 for side in ("parent", "change")}
        for side, proc in procs.items():
            r = result(proc, timeout)
            all_correct = all_correct and bool(r.get("correct"))
            values = {name: m["value"] for name, m in r["metrics"].items()}
            runs[side].append(values)
            shown = " ".join(f"{name}={v:.6g}" for name, v in values.items())
            cpu_list = ",".join(map(str, placement[side]))
            print(f"pair {i + 1} seed {seed} {side:6} cpus {cpu_list} "
                  f"correct={r.get('correct')} {shown}", flush=True)

    shutil.rmtree(sockroot, ignore_errors=True)
    try:
        sockroot.parent.rmdir()  # only when no other run still uses it
    except OSError:
        pass

    names = [n for n in runs["parent"][0] if n in runs["change"][0]]
    print()
    print(f"{args.workload}, {args.pairs} pairs of {args.seconds:g} s, "
          f"seeds {args.seed}-{args.seed + args.pairs - 1}")
    print(f"{'metric':32} {'parent median [q1, q3]':34} "
          f"{'change median [q1, q3]':34} {'change':>8} {'wins':>6}  "
          f"beyond parent IQR")
    for name in names:
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        higher = better.get(name, "lower") == "higher"
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(parent, change))
        gain = (cmed - pmed) if higher else (pmed - cmed)
        ratio = f"{(cmed / pmed - 1) * 100:+.1f}%" if pmed else "n/a"
        cells = [f"{pmed:.5g} [{pq1:.5g}, {pq3:.5g}]",
                 f"{cmed:.5g} [{cq1:.5g}, {cq3:.5g}]"]
        print(f"{name:32} {cells[0]:34} {cells[1]:34} {ratio:>8} "
              f"{wins:>3}/{len(parent):<2}  "
              f"{'yes' if gain > pq3 - pq1 else 'no'}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
