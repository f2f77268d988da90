#!/usr/bin/env python3
"""Compare saved runs of perfbench/run.py: parent runs against change runs.

    python3 perfbench/compare.py PARENT_OUT... -- CHANGE_OUT...

Each file is the captured stdout of one run. All files must be one workload
and one trace mode, and runs whose kernel backend differs are refused (exit
2): their numbers measure different code. Other environment differences
(numpy, Python, core count) are printed as warnings.

For every metric it prints each side's median and quartiles, the pairs the
change wins (run i of each side paired, ties counting for neither), and a
verdict: 'worse' when the change's median is worse than the parent's by more
than the bound in BENCHMARK.json, 'gain' when the change wins 9/10 of the
pairs and the medians differ by more than the parent's quartile spread,
'unresolved' when the parent's spread exceeds the bound, else 'same'.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}
METRICS["trace.overhead_ratio"] = {"better": "lower"}


def load(path):
    env, result = None, None
    for line in Path(path).read_text().splitlines():
        if line.startswith("# env "):
            env = json.loads(line[len("# env "):])
        elif line.startswith("{"):
            result = json.loads(line)
    if env is None or result is None:
        sys.exit(f"compare: {path} holds no run (need '# env' and a result line)")
    return env, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv):
    if "--" not in argv:
        sys.exit(__doc__)
    cut = argv.index("--")
    sides = [[load(p) for p in argv[:cut]], [load(p) for p in argv[cut + 1:]]]
    if not sides[0] or not sides[1]:
        sys.exit("compare: need at least one run on each side")
    envs = [env for side in sides for env, _ in side]
    for key in ("backend", "workload", "trace"):
        if len({str(env[key]) for env in envs}) > 1:
            print(f"compare: refusing, runs differ in {key}: "
                  f"{sorted({str(env[key]) for env in envs})}", file=sys.stderr)
            return 2
    for key in ("numpy", "python", "nproc", "CHOREOCERT_BACKEND"):
        if len({str(env[key]) for env in envs}) > 1:
            print(f"compare: warning, runs differ in {key}", file=sys.stderr)
    if not all(result["correct"] for side in sides for _, result in side):
        print("compare: warning, some runs failed their correctness gates", file=sys.stderr)

    print(f"workload {envs[0]['workload']}, backend {envs[0]['backend']}, "
          f"{len(sides[0])} parent and {len(sides[1])} change runs")
    print(f"{'metric':<58}{'parent':>12}{'change':>12}{'ratio':>8}{'wins':>7}  verdict")
    for name in sides[0][0][1]["metrics"]:
        parent = [r["metrics"][name]["value"] for _, r in sides[0]]
        change = [r["metrics"][name]["value"] for _, r in sides[1]]
        spec = METRICS.get(name, {"better": "lower"})
        sign = 1.0 if spec["better"] == "lower" else -1.0
        p1, pm, p3 = quartiles(parent)
        _, cm, _ = quartiles(change)
        pairs = list(zip(parent, change))
        wins = sum(sign * (p - c) > 0 for p, c in pairs)
        ratio = cm / pm if pm else float("nan")
        bound = spec.get("bound")
        spread = (p3 - p1) / abs(pm) if pm else 0.0
        if bound is not None and sign * (cm - pm) > bound * abs(pm):
            verdict = "worse"
        elif pairs and wins >= 0.9 * len(pairs) and abs(cm - pm) > p3 - p1:
            verdict = "gain"
        elif bound is not None and spread > bound:
            verdict = "unresolved"
        else:
            verdict = "same"
        print(f"{name:<58}{pm:>12.5g}{cm:>12.5g}{ratio:>8.3f}{wins:>4}/{len(pairs):<2}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
