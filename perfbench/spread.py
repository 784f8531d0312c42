#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark command from BENCHMARK.json once per seed on each
chosen workload and reports, per metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the first and third quartile as a share of the median.
Spreads above a third of the metric's bound are flagged.

With ``--sets 2`` every seed runs twice, the two sets interleaved
(set 1 seed a, set 2 seed a, set 1 seed b, ...), and the report adds how
much worse the second set's median is than the first's, as a share of
the first; a difference beyond the metric's bound is flagged.

    python3 perfbench/spread.py --workloads cold_solves --seeds 1-5
    python3 perfbench/spread.py --seeds 11-20 --sets 2

Run it from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(bench, workload, seed, seconds):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    took = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: verdict gate failed")
    return result["metrics"], took


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10", type=seed_list)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    args = ap.parse_args()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    worst = {}
    for workload in args.workloads.split(","):
        sets = [{} for _ in range(args.sets)]
        for seed in args.seeds:
            for k, values in enumerate(sets):
                result, took = run(bench, workload, seed, args.seconds)
                for name, m in result.items():
                    values.setdefault(name, []).append(m["value"])
                print(f"{workload} set {k + 1} seed {seed} ({took:.0f}s): " + ", ".join(
                    f"{n}={m['value']:.4g}" for n, m in result.items()), flush=True)
        medians = []
        for k, values in enumerate(sets):
            print(f"\n{workload} set {k + 1}: {len(args.seeds)} runs")
            print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
            med_of = {}
            for name, vals in values.items():
                q1, _, q3 = statistics.quantiles(vals, n=4)
                med = med_of[name] = statistics.median(vals)
                spread = (q3 - q1) / med if med else float("inf")
                bound = metrics[name]["bound"]
                flag = "" if name == "setup_s" or spread <= bound / 3 else "  <-- above bound/3"
                worst[name] = max(worst.get(name, 0.0), spread)
                print(f"  {name:<14} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.4f} {bound:>6}{flag}")
            medians.append(med_of)
        if len(medians) == 2:
            print(f"\n{workload}: set 2 median against set 1 (positive = worse)")
            for name, first in medians[0].items():
                sign = 1 if metrics[name]["better"] == "lower" else -1
                worse = sign * (medians[1][name] - first) / first if first else 0.0
                bound = metrics[name]["bound"]
                flag = "  <-- beyond bound" if worse > bound else ""
                print(f"  {name:<14} {first:>12.5g} {medians[1][name]:>12.5g} {worse:>+8.4f} {bound:>6}{flag}")
        print(flush=True)
    print("worst spread per metric: " + ", ".join(f"{k}={v:.4f}" for k, v in worst.items()))


if __name__ == "__main__":
    main()
