#!/usr/bin/env python3
"""Repeats benchmark runs and summarizes each metric's spread.

Run from the repository root:

    python3 benchmark/measure.py --runs 10                # seeds 2024, 2025, ...
    python3 benchmark/measure.py --runs 5 --fixed-seed    # seed 2024 every run
    python3 benchmark/measure.py --runs 1 --trace         # per-layer metrics

For every workload and metric it reports the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median,
which for an end-to-end metric should stay below a third of its bound in
BENCHMARK.json. --out writes the summary as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    done = subprocess.run(args, capture_output=True, text=True, env=env, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values, bound):
    if len(values) < 2:
        return {"median": values[0], "runs": values}
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("nan")
    summary = {"median": median, "q1": q1, "q3": q3, "spread": spread, "runs": values}
    if bound is not None:
        summary["steady"] = spread < bound / 3
    return summary


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--fixed-seed", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--out")
    opts = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    metrics = bench["per_layer" if opts.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = opts.workloads.split(",")

    report = {}
    for workload in workloads:
        runs = []
        for i in range(opts.runs):
            seed = opts.seed if opts.fixed_seed else opts.seed + i
            runs.append(run_once(bench["command"], workload, seed,
                                 bench["run_seconds"], opts.trace))
            print(f"{workload} run {i + 1}/{opts.runs} (seed {seed}) done", file=sys.stderr)
        report[workload] = {}
        for m in metrics:
            values = [r[m["name"]] for r in runs if m["name"] in r]
            if values:
                report[workload][m["name"]] = summarize(values, bounds[m["name"]])
        for name, s in report[workload].items():
            line = f"{workload:<13} {name:<36} median {s['median']:<12.6g}"
            if "spread" in s:
                line += f" q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f}"
            if "steady" in s:
                line += f" (bound {bounds[name]}: {'ok' if s['steady'] else 'WIDE'})"
            print(line)
    if opts.out:
        with open(opts.out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
