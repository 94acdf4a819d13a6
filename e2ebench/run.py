#!/usr/bin/env python3
"""Build and run the end-to-end MCAM benchmark.

Run from the root of a source checkout:

    python3 e2ebench/run.py --workload control_seq --seed 1 --seconds 15 --trace 0

The first call configures and compiles e2ebench/ (the library sources under
src/ plus the driver) in Release mode under $CARGO_TARGET_DIR, or
.bench_build/ when that is unset; later calls only re-check the build. Build
output goes to stderr, so the driver's last stdout line stays the result
JSON. Exit codes: the driver's own (0 correct, 1 correctness check or guard
failed, 2 usage), 3 when the build fails, 4 when the driver overruns its
time limit.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 175


def build(build_dir: Path) -> Path:
    build_dir.mkdir(parents=True, exist_ok=True)
    tmp = build_dir / "tmp"  # keep compiler temporaries inside the checkout
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp.resolve()))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
                fail(3, f"build step failed: {' '.join(cmd)}")
    return build_dir / "mcam_e2e"


def fail(code: int, why: str) -> None:
    print(f"e2ebench: {why}", file=sys.stderr)
    sys.exit(code)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["control_seq", "control_free", "dist_batch"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny configuration (the smoke test's)")
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt the expected catalogue (smoke test only)")
    args = ap.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(target / "e2ebench")

    # Unix socket paths must stay short: a relative directory under the cwd.
    sockdir = Path(".e2e_sock") / str(os.getpid())
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--sockdir", str(sockdir)]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject_fault:
        cmd.append("--inject-fault")
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(4, f"driver exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(sockdir, ignore_errors=True)
        try:
            sockdir.parent.rmdir()
        except OSError:
            pass
    sys.exit(rc)


if __name__ == "__main__":
    main()
