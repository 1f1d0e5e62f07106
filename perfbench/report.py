#!/usr/bin/env python3
"""Print every end-to-end metric, by name and unit, for every workload.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs `run.py --trace 0` once per workload of BENCHMARK.json (default:
seed 1 and the benchmark's `run_seconds`) and prints one table.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    status = 0
    for workload in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", workload["name"], "--seed", str(args.seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload['name']}: run failed\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{workload['name']}: correct={result['correct']} "
              f"error_rate={result['failed']}/{result['attempted']}")
        for name, m in result["metrics"].items():
            print(f"  {name:<20} {m['value']:12.6g} {m['unit']}")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
