#!/usr/bin/env python3
"""The benchmark's own smoke test.

    python3 perfbench/smoke.py

For two seeds and every workload in BENCHMARK.json, at a tiny size:
  * an untraced run must pass its correctness gates and print every
    end-to-end metric with its declared unit;
  * a traced run must print every per-layer metric with its declared unit,
    the workload's own ones (per the layer map) nonzero and the others 0;
  * a run whose correctness references are fed a perturbed stream must
    trip a gate (report failures, `correct: false`, exit nonzero).
Exits nonzero on the first problem found.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 2)


def run(workload, seed, trace, perturb=False):
    args = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    if perturb:
        args.append("--perturb")
    out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    records = [json.loads(l)["record"] for l in lines if l.startswith('{"record"')]
    return out.returncode, result, records[0] if records else {}, out.stderr


def check_metrics(result, declared, label):
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(got) != set(want):
        return f"{label}: metric names differ: missing {sorted(set(want) - set(got))}, " \
               f"extra {sorted(set(got) - set(want))}"
    for name, unit in want.items():
        value = got[name]["value"]
        if got[name]["unit"] != unit:
            return f"{label}: {name} has unit {got[name]['unit']!r}, declared {unit!r}"
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"{label}: {name} is not a finite number: {value!r}"
    return None


def check_layer_map(result, record, label):
    """The workload's own per-layer metrics are measured (nonzero, except a
    tracing overhead, which can be exactly 0); the layers the layer map
    assigns to other workloads read 0."""
    own = set(record.get("measured_per_layer", "").split(","))
    for name, metric in result["metrics"].items():
        if name in own and metric["value"] == 0 and not name.startswith("trace.overhead."):
            return f"{label}: {name} reads 0"
        if name not in own and metric["value"] != 0:
            return f"{label}: {name} is off the layer map but nonzero"
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for seed in SEEDS:
        for workload in (w["name"] for w in bench["workloads"]):
            label = f"{workload} seed {seed}"
            code, result, _, err = run(workload, seed, 0)
            if code != 0 or not result or not result["correct"] or result["failed"]:
                problems.append(f"{label}: untraced run failed (exit {code}): {err[-500:]}")
            else:
                problems.append(check_metrics(result, bench["end_to_end"], label + " untraced"))

            code, result, record, err = run(workload, seed, 1)
            if code != 0 or not result or not result["correct"]:
                problems.append(f"{label}: traced run failed (exit {code}): {err[-500:]}")
            else:
                problems.append(check_metrics(result, bench["per_layer"], label + " traced"))
                problems.append(check_layer_map(result, record, label + " traced"))

            code, result, _, err = run(workload, seed, 0, perturb=True)
            tripped = code != 0 and result and not result["correct"] and result["failed"] > 0 \
                and result["metrics"]["success_rate"]["value"] < 1
            if not tripped:
                problems.append(f"{label}: perturbed reference did not trip the gate (exit {code})")
            problems = [p for p in problems if p]
            print(f"{label}: {'ok' if not problems else 'FAILED'}", flush=True)
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
