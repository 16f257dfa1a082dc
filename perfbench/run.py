#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` binary from source
(release, offline; target directory from CARGO_TARGET_DIR, default
`.bench_build`), runs one workload and relays its output. The last line
of standard output is the run's JSON result; build output and progress
go to standard error. Exits non-zero, printing no result, when the build
or the run fails or the result line is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, env=None, capture=False):
    """Runs `cmd` to completion (killing it on timeout); returns (code, stdout)."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{' '.join(cmd[:2])} timed out after {timeout} s")
    return proc.returncode, out


def check_result(line):
    """Parses and validates the result line; returns it or None."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    if not isinstance(result["metrics"], dict) or not result["metrics"]:
        return None
    for m in result["metrics"].values():
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            return None
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()

    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isfile(manifest):
        fail(f"missing {manifest}")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)

    code, _ = run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        BUILD_TIMEOUT_S,
        env=env,
    )
    if code != 0:
        fail(f"build failed (exit {code})")

    binary = os.path.join(target, "release", "perfbench")
    code, out = run(
        [
            binary,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", args.trace,
            "--out-dir", os.path.join(ROOT, ".bench_out"),
        ],
        RUN_TIMEOUT_S,
        capture=True,
    )
    lines = out.rstrip("\n").split("\n") if out else []
    if code != 0 or not lines or check_result(lines[-1]) is None:
        sys.stderr.write(out or "")
        fail(f"run failed (exit {code})")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
