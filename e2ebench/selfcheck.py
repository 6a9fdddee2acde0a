#!/usr/bin/env python3
"""Self-check of the end-to-end benchmark.

Usage, from the repository root:

    python3 e2ebench/selfcheck.py

Runs every workload named in BENCHMARK.json at a tiny size through the same
code path as a real run, untraced and traced, and checks that

  - each run is correct and prints exactly the metrics BENCHMARK.json
    declares, with their units, as finite numbers;
  - a corrupted expansion witness and a short informed count are counted
    as failures (correct false, failed >= 1, non-zero exit);
  - e2ebench/layers.json describes exactly the declared workloads and maps
    every per-layer metric to declared end-to-end metrics and workloads.

Prints one line per problem and exits 1 if there is any, else 0.
"""

import json
import math
import os
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402

problems = []


def problem(msg):
    problems.append(msg)
    print("PROBLEM " + msg, flush=True)


def load(path):
    with open(os.path.join(run.ROOT, path)) as f:
        return json.load(f)


def result(args):
    """Run the benchmark executable; return (exit code, parsed last line or None)."""
    code, out = run.run_exe(args, capture=True)
    lines = (out or b"").decode().strip().splitlines()
    try:
        return code, json.loads(lines[-1])
    except (IndexError, ValueError):
        return code, None


def check_run(label, code, res, declared):
    if res is None:
        problem(f"{label}: no JSON result on the last line")
        return
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problem(f"{label}: result keys {sorted(res)}")
        return
    if not (res["correct"] is True and res["failed"] == 0 and code == 0):
        problem(f"{label}: correct {res['correct']}, failed {res['failed']}, exit {code}")
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1):
        problem(f"{label}: attempted {res['attempted']}")
    printed = {k: v.get("unit") for k, v in res["metrics"].items()}
    if printed != declared:
        problem(f"{label}: printed metrics {printed} differ from BENCHMARK.json {declared}")
    for k, v in res["metrics"].items():
        if not (isinstance(v.get("value"), (int, float)) and math.isfinite(v["value"])):
            problem(f"{label}: {k} = {v.get('value')!r} is not a finite number")


def check_fault(workload, inject):
    label = f"{workload} --inject {inject}"
    code, res = result(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0",
                        "--size", "tiny", "--inject", inject])
    if res is None or res.get("correct") is not False or res.get("failed", 0) < 1 or code == 0:
        problem(f"{label}: the corrupted answer was not counted as a failure "
                f"(exit {code}, result {res})")


def check_layers(bench, layers):
    workloads = {w["name"] for w in bench["workloads"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    per_layer = [m["name"] for m in bench["per_layer"]]
    if set(layers["workloads"]) != workloads:
        problem(f"layers.json workloads {sorted(layers['workloads'])} != {sorted(workloads)}")
    mapped = [m["metric"] for m in layers["metrics"]]
    if sorted(mapped) != sorted(per_layer):
        problem(f"layers.json maps {sorted(mapped)}, BENCHMARK.json declares {sorted(per_layer)}")
    for m in layers["metrics"]:
        for target in m["moves"]:
            if target["metric"] not in e2e or not set(target["on"]) <= workloads:
                problem(f"layers.json: {m['metric']} moves undeclared {target}")
    for recorded in layers["recorded"]["runs"]:
        for name in recorded["values"]:
            if name not in per_layer:
                problem(f"layers.json records undeclared metric {name}")


def main():
    bench = load("BENCHMARK.json")
    check_layers(bench, load("e2ebench/layers.json"))
    run.build()
    units = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in bench["workloads"]:
        for seed in ("1", "2"):
            for trace in ("0", "1"):
                label = f"{w['name']} seed {seed} trace {trace}"
                code, res = result(["--workload", w["name"], "--seed", seed, "--seconds", "1",
                                    "--trace", trace, "--size", "tiny"])
                check_run(label, code, res, units[trace])
                print(f"ok {label}" if res and res.get("correct") else f"-- {label}", flush=True)
    check_fault("expand-exact", "corrupt-witness")
    check_fault("bcast-decay-128k", "short-informed")
    check_fault("bcast-gnm-stall", "short-informed")
    print(f"{len(problems)} problem(s)")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
