"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload once at toy sizes, untraced and traced, through the same
code as a real run, and checks that each result is correct and carries
exactly the metrics that BENCHMARK.json names, each with its unit and a
finite value.  Exits 0 when all hold.
"""

import json
import math
import os
import sys

import run

TINY = {
    "toda-lax": [
        ("toda-lax", "toda-run", {"N": 4, "flow": "lax"},
         {"dt": 1e-3, "steps": 50, "stride": 10}),
    ],
    "toda-record": [
        ("toda-record", "toda-run", {"N": 4, "flow": "canonical"},
         {"dt": 1e-3, "steps": 50, "stride": 1}),
    ],
    "checks": [
        ("verify", "verify", {"dim": 4}, None),
        ("orbit-kks", "orbit-kks", {"N": 3}, None),
        ("reduce-measurement", "reduce-demo", {"N": 4, "kind": "measurement"}, None),
        ("reduce-lower", "reduce-demo", {"N": 4, "kind": "lower"}, None),
        ("reduce-group", "reduce-demo", {"N": 4, "kind": "group"}, None),
        ("lvn-isospectral", "lvn-run", {"N": 3},
         {"dt": 1e-2, "steps": 10, "stride": 5, "method": "isospectral"}),
    ],
}


def expected_metrics() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def problems_in(result: dict, want: dict) -> list:
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"not correct: {result['attempted']} attempted, "
                        f"{result['failed']} failed")
    got = result["metrics"]
    for name in sorted(set(want) ^ set(got)):
        state = "missing" if name in want else "unexpected"
        problems.append(f"metric {name} is {state}")
    for name in sorted(set(want) & set(got)):
        value, unit = got[name]["value"], got[name]["unit"]
        if unit != want[name]:
            problems.append(f"{name} has unit {unit!r}, expected {want[name]!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} has value {value!r}")
    return problems


def main() -> int:
    want = expected_metrics()
    if set(TINY) != set(run.WORKLOADS):
        print("self-test sizes do not cover every workload")
        return 1
    failures = 0
    for workload in run.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run.measure(workload, seed=7, seconds=0, trace=trace,
                                 workloads=TINY)
            for problem in problems_in(result, want[key]):
                failures += 1
                print(f"SELFTEST {workload} trace={int(trace)}: {problem}")
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
