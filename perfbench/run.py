#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the shipped `knw-worker` / `knw-aggregate` binaries (the root
workspace, default features only) and the `knw-perfbench` package into
`$CARGO_TARGET_DIR` (default `.bench_build` at the checkout root), prints a
host and build record, then runs the benchmark binary, whose last stdout
line is the JSON result.  Spans and fleet logs go to
`$CARGO_TARGET_DIR/perfbench/`.  Extra flags (`--tiny`, `--perturb`) pass
through to the binary.
"""

import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(target):
    """Release builds of the fleet binaries and the benchmark; False on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "knw-cluster",
         "--bin", "knw-worker", "--bin", "knw-aggregate",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout carries only records.
        if subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            return False
    return True


def command_output(args):
    try:
        out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_record():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "kernel": platform.release(),
        "rustc": command_output(["rustc", "--version"]),
        "git_commit": command_output(["git", "rev-parse", "HEAD"]) or "not a git checkout",
        "cargo_features": "default",
    }


def cpu_times():
    """Aggregate CPU time counters from /proc/stat (None where unavailable)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def load_record(before, after):
    """Shares of host CPU time spent busy, idle and stolen during the run."""
    if not before or not after:
        return {}
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta) or 1
    return {"cpu_busy": round((delta[0] + delta[1] + delta[2]) / total, 4),
            "cpu_idle": round(delta[3] / total, 4),
            "cpu_steal": round(delta[7] / total, 4) if len(delta) > 7 else None}


def main():
    target = target_dir()
    if not build(target):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    out_dir = os.path.join(target, "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    print(json.dumps({"host": host_record()}), flush=True)
    binary = os.path.join(release, "knw-perfbench")
    args = [binary, "--bin-dir", release, "--out-dir", out_dir] + sys.argv[1:]
    before = cpu_times()
    run = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if not lines:
        return run.returncode or 1
    # The host's CPU load over the run goes just before the result line,
    # which stays last.
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"host_load": load_record(before, cpu_times())}))
    print(lines[-1])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
