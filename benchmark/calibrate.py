#!/usr/bin/env python3
"""Noise calibration for the benchmark; prints the tables of NOISE.md.

    python3 benchmark/calibrate.py BINARY repeat   # five runs per workload, seed 1
    python3 benchmark/calibrate.py BINARY seeds    # ten seeds per workload

Rows in parentheses are not metrics: `ops_per_s` as the clock read it and
the median speed factor of the run (see README.md, "Times are at the
reference speed"). `repeat` runs the four workloads five times back to back on one tree,
alternating the workload order between repetitions, and reports per
metric x workload the five values, their median and the largest
deviation from it as a share of the median. `seeds` does what the driver
does: ten runs per workload, each with another seed, and per metric the
distance between the first and third quartile as a share of the median.
Run it from the repo root; nothing else should be running.
"""
import json
import re
import statistics
import subprocess
import sys

WORKLOADS = ["config_mci", "churn_torus", "serve_loop_mci", "simulate_mci"]
SECONDS = json.load(open("BENCHMARK.json"))["run_seconds"]


def run(binary, workload, seed):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS)],
        check=True, capture_output=True, text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    values = {name: m["value"] for name, m in result["metrics"].items()}
    # Not metrics: what the clock read before the reference kernel's speed
    # factor was divided out, to show what the division buys.
    clock = re.search(r"speed factor \[[^,]+, [^,]+, ([^,]+),.*ops_per_s (\S+)$", out, re.M)
    values["(ops_per_s as the clock read it)"] = float(clock.group(2))
    values["(speed factor)"] = float(clock.group(1))
    return values


def table(rows, header):
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for row in rows:
        print("| " + " | ".join(row) + " |")
    print()


def repeat(binary):
    runs = {w: [] for w in WORKLOADS}
    for rep in range(5):
        order = WORKLOADS if rep % 2 == 0 else WORKLOADS[::-1]
        for w in order:
            runs[w].append(run(binary, w, 1))
            print(f"# repetition {rep + 1} {w} done", file=sys.stderr)
    rows = []
    for w in WORKLOADS:
        for metric in runs[w][0]:
            values = [r[metric] for r in runs[w]]
            med = statistics.median(values)
            dev = max(abs(v - med) for v in values) / med
            rows.append([w, metric] + [f"{v:.5g}" for v in values] + [f"{med:.5g}", f"{dev:.4f}"])
    table(rows, ["workload", "metric", "run 1", "run 2", "run 3", "run 4", "run 5", "median", "max dev / median"])


def seeds(binary):
    rows = []
    for w in WORKLOADS:
        runs = [run(binary, w, seed) for seed in range(1, 11)]
        print(f"# {w} done", file=sys.stderr)
        for metric in runs[0]:
            values = [r[metric] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            rows.append([w, metric, f"{med:.5g}", f"{q1:.5g}", f"{q3:.5g}", f"{(q3 - q1) / med:.4f}"])
    table(rows, ["workload", "metric", "median", "q1", "q3", "(q3 - q1) / median"])


if __name__ == "__main__":
    {"repeat": repeat, "seeds": seeds}[sys.argv[2]](sys.argv[1])
