#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload fig7_full --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The simulator library and the benchmark are compiled (Release) into
.bench_build/perfbench under the checkout, or under $CARGO_TARGET_DIR
when it is set. The first run builds; later runs only check that the
build is current. The benchmark's own output is passed through: its
last stdout line is the JSON result. Build output goes to stderr.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure once, then bring the build up to date."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"no {need} next to {os.path.basename(HERE)}/: the "
                 "benchmark builds the simulator from the checkout")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout)
            fail(f"build step failed: {' '.join(cmd)}", 1)
    return out


def run(cmd):
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(cmd[0])} exceeded {RUN_TIMEOUT_S} s", 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload",
                    choices=["fig7_full", "chip_banked", "serve_mixed"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the statistics self-tests")
    args = ap.parse_args()

    if args.self_test:
        out = build()
        code = run([os.path.join(out, "perfbench-selftest")])
        tests = subprocess.run(
            [sys.executable, "-B", "-m", "unittest", "discover", "-s",
             os.path.join(HERE, "tests")]).returncode
        sys.exit(code or tests)

    if (args.workload is None or args.seed is None or args.seconds is None
            or args.trace is None):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        ap.error("--seed must be >= 0 and --seconds in 1..3600")

    out = build()
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    sys.exit(run([os.path.join(out, "siwi-perfbench"),
                  "--workload", args.workload,
                  "--seed", str(args.seed),
                  "--seconds", str(args.seconds),
                  "--trace", str(args.trace),
                  "--root", ROOT,
                  "--work-dir", work]))


if __name__ == "__main__":
    main()
