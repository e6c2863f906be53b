#!/usr/bin/env python3
"""Run one workload of the serving benchmark repeatedly and report how steady
its end-to-end metrics are.

    python3 perfbench/steadiness.py --workload pull-hotspot --seeds 801-810

Run from the repository root. Each seed is one untraced run of perfbench/run.py
with BENCHMARK.json's run_seconds, one after another. For every end-to-end metric the helper prints the median,
the first and third quartiles (statistics.quantiles, n=4), the spread
IQR / median, and the metric's bound from BENCHMARK.json. Per run it prints
the host's stolen-CPU share, so a reader can tell a noisy host from a noisy
benchmark.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_once(workload, seed, seconds):
    run = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if run.returncode != 0:
        sys.exit(f"steadiness: seed {seed} exited with {run.returncode}")
    lines = run.stdout.strip().splitlines()
    report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
    return report, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="801-810",
                        help="comma-separated seeds or ranges, e.g. 1-5,9")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        report, result = run_once(args.workload, seed, seconds)
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append(values)
        print(f"seed {seed}: steal {report['provenance']['host.steal_share']:.3f}"
              f" failed {result['failed']}/{result['attempted']}"
              f" {report['pass']['fail_reasons'] or ''} "
              + " ".join(f"{k}={v:.6g}" for k, v in values.items()),
              flush=True)

    print(f"\n{args.workload}: {len(runs)} runs of {seconds:g} s")
    print(f"{'metric':26} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'bound':>6}")
    for name in runs[0]:
        values = [run[name] for run in runs]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0],) * 3)
        spread = (q3 - q1) / med if med else float("inf")
        print(f"{name:26} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
              f"{bounds.get(name, float('nan')):6.3g}")


if __name__ == "__main__":
    main()
