"""Run workloads over several seeds and summarise each metric, from a checkout's root.

    python3 perfbench/record.py --seeds 1-10 --seconds 15 [--workload NAME ...] [--trace 1]

Prints one JSON object: the environment, and per workload and metric the
values of every run, their median, quartiles (``statistics.quantiles(n=4)``)
and spread (quartile distance over the median).  Every metric a run prints
is kept, the ungated ones (``wall_*``, ``machine_speed``, ...) too, except
the per-command latencies.  ``baseline.json`` was made this way.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS, environment


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="FIRST-LAST")
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))

    summary = {"environment": environment(), "seconds": args.seconds, "trace": args.trace,
               "workloads": {}}
    for workload in args.workload or WORKLOADS:
        values: dict = {}
        failed = 0
        for seed in range(first, last + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            failed += result["failed"]
            for line in proc.stdout.splitlines():
                printed = re.fullmatch(rf"{workload}  (\S+) = (\S+) \S+", line)
                if printed and not printed[1].endswith(".p50_ms"):
                    values.setdefault(printed[1], []).append(float(printed[2]))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), file=sys.stderr)
        summary["workloads"][workload] = {
            "runs": last - first + 1, "failed": failed,
            "metrics": {name: summarise(xs) for name, xs in values.items()},
        }
    print(json.dumps(summary, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
