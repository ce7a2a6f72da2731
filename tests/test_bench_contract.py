"""The calls that ``bench/workloads.py`` makes into the package, on small
inputs, so that a changed call shape fails here and not only as a failed
benchmark run."""

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

from stable_hitting import verify  # noqa: E402


def test_values_take_the_benchmark_arguments():
    rng = np.random.default_rng(0)
    for _ in range(3):
        p = workloads.ColdTransforms.params(rng)
        for name, v in workloads.VALUES.items():
            value = getattr(v.module, name)(*v.args(p))
            assert math.isfinite(value), (name, p, value)


def test_setup_mix_runs():
    for name, _, call in workloads._setup_mix(10, (1.5,)):
        assert np.all(np.isfinite(call())), name


def test_run_suite_takes_idx_grid():
    reports = verify.run_suite("formula_algebra", idx_grid=[1.5])
    assert reports and verify.all_passed(reports)
