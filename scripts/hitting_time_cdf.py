#!/usr/bin/env python3
"""Tabulate P(T_a < t) for the first hitting time of a point, two ways:
Gaver-Stehfest inversion of the resolvent ratio, and the empirical CDF of
the exact sampler.  Prints CSV: t, inverted, empirical, |diff|.

Exit codes: 0 on success, 1 when the package rejects a parameter or an
evaluation fails (its message on stderr), 2 on usage errors.

Usage:
    python scripts/hitting_time_cdf.py --alpha 1.5 --a 1.0 --n 200000
"""

import argparse
import math
import sys

import numpy as np

from stable_hitting.cli import _FAILURES, _at_least
from stable_hitting.hitting_laws import HittingQuery, lt_hit_point
from stable_hitting.numerics import laplace_invert_cdf
from stable_hitting.sampling import RandomStream, sample_hitting_time


def _times(raw: str) -> list:
    """--t: a comma-separated grid of positive, finite times."""
    ts = []
    for v in raw.split(","):
        try:
            t = float(v)
        except ValueError:
            t = math.nan
        if not (math.isfinite(t) and t > 0.0):
            raise argparse.ArgumentTypeError(
                f"invalid time {v!r}: expected a positive finite number")
        ts.append(t)
    return ts


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--alpha", type=float, default=1.5)
    ap.add_argument("--a", type=float, default=1.0)
    ap.add_argument("--n", type=_at_least(1), default=200_000)
    ap.add_argument("--seed", type=_at_least(0), default=0)
    ap.add_argument("--t", type=_times, default="0.1,0.25,0.5,1,2,4,8,16")
    args = ap.parse_args()

    try:
        draws = np.sort(sample_hitting_time(args.alpha, args.a,
                                            RandomStream(args.seed),
                                            size=args.n))
        phi = lambda q: lt_hit_point(HittingQuery(args.alpha, float(q), a=args.a))
        print("t,inverted_cdf,empirical_cdf,abs_diff")
        for t in args.t:
            inv = laplace_invert_cdf(phi, t)
            emp = float(np.searchsorted(draws, t, side="right")) / args.n
            print(f"{t!r},{inv!r},{emp!r},{abs(inv - emp)!r}")
    except _FAILURES as exc:
        print(f"hitting_time_cdf: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
