#!/usr/bin/env python3
"""Run every verification suite and write JSON/CSV reports.

Usage:
    python scripts/run_all_suites.py [--n 1000000] [--seed 0] [--out reports]
"""

import argparse
import sys
import time

from stable_hitting.cli import _at_least
from stable_hitting.verify import (SUITE_NAMES, all_passed, run_suite,
                                   write_reports)


def main():
    ap = argparse.ArgumentParser()
    # the Monte Carlo suites need two draws for a standard error, and
    # numpy's SeedSequence takes no negative seed
    ap.add_argument("--n", type=_at_least(2), default=1_000_000)
    ap.add_argument("--seed", type=_at_least(0), default=0)
    ap.add_argument("--out", default="reports")
    args = ap.parse_args()

    ok = True
    for suite in SUITE_NAMES:
        t0 = time.perf_counter()
        reports = run_suite(suite, seed=args.seed, n_samples=args.n)
        elapsed = time.perf_counter() - t0
        write_reports(args.out, suite, reports)
        n_pass = sum(r.passed for r in reports)
        status = "ok" if all_passed(reports) else "FAIL"
        print(f"{suite:16s} {n_pass:4d}/{len(reports):<4d} checks pass "
              f"[{status}] ({elapsed:.1f}s)")
        ok = ok and all_passed(reports)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
