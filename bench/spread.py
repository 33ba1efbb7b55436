"""Run one workload over several seeds and report each metric's spread.

    python3 bench/spread.py --workload long-remap --seeds 1-10

The runs are untraced. For every end-to-end metric it prints the median,
the quartiles and the quartile distance as a share of the median, next to
the metric's bound from BENCHMARK.json. The runs go one after another, never in parallel, so they
do not compete for the machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)
    if len(results) < 2:
        return 0
    print(f"\n{'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:36s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
              f"{bounds[name]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
