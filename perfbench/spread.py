#!/usr/bin/env python3
"""Run one workload on several seeds and report each end-to-end metric's
spread: the distance between the first and third quartiles of its values
(statistics.quantiles, n=4) as a share of their median, next to the
metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]
                                [--jsonl FILE]

Run it from the root of a lepts checkout. Each run is
`python3 perfbench/run.py --workload NAME --seed S --seconds <run_seconds>
--trace 0`, one after another. With --jsonl, every run's result line is
appended to FILE. Exits non-zero when a run fails or a spread exceeds its
bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--jsonl")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    rows = []
    for seed in range(a.first_seed, a.first_seed + a.runs):
        out = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", a.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True,
        )
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            print(f"seed {seed}: run failed (exit {out.returncode})")
            return 1
        rows.append(json.loads(lines[-1]))
        if a.jsonl:
            with open(a.jsonl, "a") as f:
                f.write(lines[-1] + "\n")
    ok = True
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in rows]
        q = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q[2] - q[0]) / med
        within = spread <= bound
        ok = ok and within
        print(f"{a.workload:17s} {name:17s} median {med:<12.6g} spread {spread:.4f}"
              f"  bound {bound}  third {bound / 3:.4f}  {'ok' if within else 'OVER'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
