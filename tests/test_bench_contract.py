"""The calls that ``bench/workloads.py`` makes into the package, on small
inputs, so that a changed call shape fails here and not only as a failed
benchmark run."""

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracing  # noqa: E402
import workloads  # noqa: E402

from stable_hitting import (distributions, hitting_laws,  # noqa: E402
                            numerics, resolvent, verify)


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


def test_invert_takes_the_benchmark_arguments():
    value = workloads._invert(tracing.NullTracer(), 1.5, 1.0, 1.0)
    assert 0.0 <= value <= 1.0


def _jobs():
    jobs = workloads.Jobs(workloads.MonteCarloChecks())
    return [
        jobs.eval_grid("lt-T", {"alpha": [1.5], "q": [0.5, 2.0], "a": [1.0]},
                       "replay"),
        jobs.eval_grid("exc-n", {"alpha": [1.5], "a": [1.0, 2.0], "q": [1.0]},
                       "replay"),
        jobs.invert_grid(1.5, 1.0, [0.5, 1.0], "replay"),
        jobs.sample_t_point(1.5, 1.0, 50, 3),
    ]


def test_jobs_run_and_check_clean():
    # each cli.main call, then the direct calls it is paired with
    for pair in _jobs():
        for op in pair:
            result = op.call(tracing.NullTracer())
            assert op.check(result) == [], op.name


def test_clear_kernel_caches_empties_every_kernel_cache():
    # the benchmark's cold numbers rest on this reset reaching every
    # functools cache of the kernel modules
    modules = (numerics, resolvent, distributions, hitting_laws)
    hitting_laws.lt_hit_three(1.5, np.geomspace(0.5, 2.0, 5), 0.3, 1.0)
    hitting_laws.lt_hit_abs(1.5, 0.8, 1.0)
    distributions.linnik_density(1.5, 0.7)
    resolvent.transition_density(1.5, 1.0, 0.4)
    numerics.laplace_invert_cdf(
        lambda q: hitting_laws.lt_hit_abs(1.5, float(q), 1.0), 1.0)
    caches = [obj for mod in modules for obj in vars(mod).values()
              if hasattr(obj, "cache_info")
              and getattr(obj, "__module__", None) == mod.__name__]
    assert caches
    assert all(c.cache_info().currsize > 0 for c in caches), caches
    workloads.clear_kernel_caches()
    assert all(c.cache_info().currsize == 0 for c in caches), caches
