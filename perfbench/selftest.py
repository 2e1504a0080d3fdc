"""Self-test of the benchmark's output checks, run from the root of a source checkout.

    python3 perfbench/selftest.py

Each workload runs briefly twice: once as is, where every output must pass,
and once with a fault injected into the package (``union`` drops one
approval from its result), where ``error_rate`` must rise above zero.  A
check that cannot see a wrong union is vacuous, so this exits non-zero.
"""

from __future__ import annotations

import sys

from run import WORKLOADS, run_workload

FAULT = "union-drops-approval"


def main() -> int:
    problems = []
    for workload in WORKLOADS:
        clean = run_workload(workload, seed=1, seconds=1, trace=False)
        faulty = run_workload(workload, seed=1, seconds=1, trace=False, fault=FAULT)
        clean_rate = clean["metrics"]["error_rate"]
        faulty_rate = faulty["metrics"]["error_rate"]
        print(f"{workload}: error_rate {clean_rate:.4f} as is, {faulty_rate:.4f} with {FAULT}"
              f" ({faulty['failed']} of {faulty['attempted']} failed)")
        if clean_rate != 0:
            problems.append(f"{workload}: outputs fail without a fault: {clean['notes']}")
        if faulty_rate <= clean_rate:
            problems.append(f"{workload}: the injected fault went unnoticed")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
