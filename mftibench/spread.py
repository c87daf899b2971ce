#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

Usage, from the repository root:
    python3 mftibench/spread.py --workload pdn_noisy_fit --seeds 1-10

Every run takes ``run_seconds`` from BENCHMARK.json and ``--trace 0``.

For every metric it prints the median over the seeds, the first and
third quartile (Python's ``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median.
It also prints, per seed, what the run reports on its summary line: the
raw (unscaled) model-time median, the reference-loop median, the largest
held-out error and the number of models above the workload's miss
ceiling.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values, raw, ref, shares = {}, [], [], set()
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        summary = next(l for l in lines if l.startswith("ops "))
        m = re.search(r"model p50 raw ([\d.]+) ms.*ref loop median ([\d.]+) ms"
                      r".*max ([\d.e+-]+), (\d+ above \S+)", summary)
        raw.append(float(m.group(1)))
        ref.append(float(m.group(2)))
        shares.add((result["failed"] / result["attempted"]))
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} raw model p50 {m.group(1)} ms, ref {m.group(2)} ms, "
              f"max error {m.group(3)}, {m.group(4)}")
        if not result["correct"]:
            print(out.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    def row(name, xs):
        q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
        med = statistics.median(xs)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        print(f"{name:32} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  spread {spread:7.2%}")

    row("raw model p50 (ms)", raw)
    row("reference loop (ms)", ref)
    for name, xs in values.items():
        row(name, xs)
    print(f"failed shares: {sorted(shares)}")


if __name__ == "__main__":
    main()
