"""Run every workload untraced and traced and print every metric.

    python3 perfbench/reference.py [--seed 1] [--seconds 10]

Each workload runs twice through ``run.py`` in its own process, with
``--trace 0`` for the end-to-end metrics and ``--trace 1`` for the
per-layer ones.  Every metric is printed by name with its unit, followed
by the tracing overhead (traced minus untraced pass time) and whether
the outputs passed their checks.  Exits 1 if any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args()
    all_correct = True
    print(f"python {sys.version.split()[0]}, {os.cpu_count()} cpus, "
          f"seed {args.seed}, {args.seconds} s per run")
    for workload in WORKLOADS:
        plain = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        print(f"\n== {workload}")
        for result in (plain, traced):
            all_correct &= result["correct"]
            print(f"  correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:32s} {metric['value']:>14.6g} "
                      f"{metric['unit']}")
        overhead = traced["metrics"]["trace.overhead_s"]["value"]
        wall = plain["metrics"]["wall_s"]["value"]
        print(f"  tracing overhead: {overhead:+.4g} s per pass "
              f"({100 * overhead / wall:+.1f}% of wall_s)")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
