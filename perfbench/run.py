#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `perfbench` and the `dagchkpt-serve` daemon in release mode (into
`$CARGO_TARGET_DIR`, default `.bench_build`), then runs one workload. The
last line of standard output is the result object
`{"correct", "attempted", "failed", "metrics"}`; the lines before it name
every metric with its unit and record the environment (nproc, thread
count, client connections, build profile, rustc version, git revision,
seed). Exits non-zero, without a result line, when the repository sources
are missing or the build or run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["fig3_quick", "replication_quick", "mc_quick", "serve_mixed"]
# Load comes from one process with at most this many threads / connections.
MAX_THREADS = 2
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def tool_output(cmd):
    try:
        return subprocess.run(
            cmd, capture_output=True, text=True, timeout=30, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    for needed in ["Cargo.toml", "crates/bench", "crates/serve", "tests/golden/quick"]:
        if not os.path.exists(needed):
            fail(f"run from the repository root: `{needed}` is missing")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    threads = min(MAX_THREADS, os.cpu_count() or 1)
    env["RAYON_NUM_THREADS"] = str(threads)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml", "--bins"],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--rustc", tool_output(["rustc", "--version"]),
        "--git-rev", tool_output(["git", "rev-parse", "--short=12", "HEAD"]),
    ]
    # Own process group, so a timed-out run takes its daemon down with it.
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        fail(f"{args.workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    sys.stdout.write(stdout)


if __name__ == "__main__":
    main()
