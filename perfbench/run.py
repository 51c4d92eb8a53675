#!/usr/bin/env python3
"""Build and run the pak end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload text_to_pak --seed 1 --seconds 10 --trace 0

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`,
or `.bench_build` when that is unset, then runs it with the given flags.
Its output is passed through; the last line is the result as one JSON
object. Exits non-zero, without a result line, when the build or the run
fails.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")

    binary = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                          "release", "perfbench")
    out_dir = os.path.join(ROOT, "perfbench", "out")
    # One malloc arena for all threads: with glibc's default, whether the
    # server's worker got an arena of its own varied from run to run and
    # made closed-loop throughput bimodal.
    run_env = dict(os.environ, MALLOC_ARENA_MAX="1")
    # Every thread of the run on one CPU, so a request handed to the
    # server's worker never waits for an idle virtual CPU to be woken.
    # On a shared VM that wake-up took 30 µs in some minutes and 70 µs in
    # others, and moved the serve workloads' latencies with it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        run = subprocess.run(
            [binary, *sys.argv[1:], "--out", out_dir],
            cwd=ROOT,
            env=run_env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if run.returncode != 0 or not isinstance(result, dict):
        sys.stderr.write(run.stdout)
        fail(f"run failed with exit code {run.returncode}")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
