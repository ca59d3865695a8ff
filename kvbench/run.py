#!/usr/bin/env python3
"""Build kvbench from source and run one benchmark run.

Run from the root of a checkout:

    python3 kvbench/run.py --workload update-pipelined --seed 1 --seconds 10 --trace 0

The Go toolchain's caches and every file the run writes stay under the
build directory ($CARGO_TARGET_DIR if set, else .bench_build), so the run
touches nothing outside the checkout. The last line of standard output is
the run's JSON result; the exit code is the benchmark's.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170  # every run must end within 180 s


def main():
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ)
    # The benchmark measures the program at the runtime's defaults.
    for var in ("GOMAXPROCS", "GOGC", "GOMEMLIMIT", "GODEBUG", "GOFLAGS"):
        env.pop(var, None)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomod"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "kvbench-bin")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, timeout=DEADLINE_S)
    if built.returncode != 0:
        print("run.py: building kvbench failed", file=sys.stderr)
        return 1
    args = [binary, "--dir", os.path.join(build, "kvbench")] + sys.argv[1:]
    try:
        return subprocess.run(args, cwd=ROOT, env=env, timeout=DEADLINE_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: kvbench ran past %d s" % DEADLINE_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
