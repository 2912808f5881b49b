"""Run every workload once and print its end-to-end metrics as a table.

    python3 bench/report.py --seed 1 --seconds 20

Each workload runs in its own ``bench/run.py`` process, one after another.
Per-layer metrics come from ``bench/run.py --trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()
    status = 0
    for name in (cls.name for cls in workloads.CLASSES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"== {name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"fail_ratio {result['failed'] / result['attempted']:.4f}")
        for line in proc.stdout.splitlines()[:-1]:
            if not line.startswith("# ") or " = " not in line:
                print(f"   {line[2:]}")
        for metric, m in result["metrics"].items():
            print(f"   {metric:40s} {m['value']:14.6g} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
