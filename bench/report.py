"""Print every end-to-end and per-layer metric of the benchmark, by name and
unit, for each workload.

    python3 bench/report.py [--seed N] [--seconds S]

Runs ``bench/run.py`` once per workload with tracing off (end-to-end metrics)
and once with tracing on (per-layer metrics), then prints one table.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOAD_NAMES


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    args = p.parse_args(argv)
    run_py = str(Path(__file__).resolve().parent / "run.py")
    status = 0
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, run_py, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            ratio = result["failed"] / result["attempted"]
            print(f"== {workload}  trace {trace}  attempted {result['attempted']}  "
                  f"failed {result['failed']}  failed_ratio {ratio:.6g}  "
                  f"correct {result['correct']}")
            print("   " + lines[1])  # wall_s median, tail percentile and sample count
            for name, m in result["metrics"].items():
                print(f"   {name:40s} {m['value']:>14.6g} {m['unit']}")
            status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
