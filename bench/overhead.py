"""Tracing overhead: the traced run's end-to-end numbers against the
untraced run's, for the same workload and seed.

    python3 bench/run.py --workload grid_sweep --seed 1 --trace 0
    python3 bench/run.py --workload grid_sweep --seed 1 --trace 1
    python3 bench/overhead.py grid_sweep 1
"""

import json
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"


def main(workload, seed):
    runs = [json.loads((RESULTS / f"{workload}-seed{seed}-trace{t}.json").read_text())
            for t in (0, 1)]
    print(f"{'metric':20s} {'untraced':>12s} {'traced':>12s} {'change':>8s}")
    for name, plain in runs[0]["end_to_end"].items():
        traced = runs[1]["end_to_end"][name]
        print(f"{name:20s} {plain:12.5g} {traced:12.5g} "
              f"{(traced - plain) / plain:+8.1%}")


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
