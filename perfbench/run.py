#!/usr/bin/env python3
"""Build the planner and the benchmark from source, then run one benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first form builds `pase` (the CLI whose `serve` subcommand the serve
workloads start) and the `perfbench` binary in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), runs the binary, and passes its
output and exit code through; the last line of stdout is the JSON result.
`--self-test` builds the same way and runs the benchmark's own tests,
including the determinism test that runs every workload twice.

Without the repository's crates beside it the build fails, and so does
the run: it exits non-zero without printing a result.
"""

import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170


def cargo(args, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Cargo's progress goes to stderr; stdout stays for the result line.
    return subprocess.run(["cargo", *args], env=env, stdout=sys.stderr).returncode == 0


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    built = cargo(["build", "--release", "-p", "pase-cli"], target) and cargo(
        ["build", "--release", "--manifest-path", "perfbench/Cargo.toml"], target
    )
    if not built:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if sys.argv[1:] == ["--self-test"]:
        ok = cargo(["test", "--release", "--manifest-path", "perfbench/Cargo.toml"], target)
        return 0 if ok else 1
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--pase",
        os.path.join(release, "pase"),
    ]
    # A session of its own, so a timeout can stop the benchmark and the
    # server it started together.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
