"""Benchmark of the stable-hitting package: one workload per process.

    python3 bench/run.py --workload cold_transforms --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Results, and with ``--trace 1`` the spans, are written under
``bench/results/``.  See bench/README.md.
"""

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOAD_NAMES = ("cold_transforms", "grid_sweep", "monte_carlo")
SETUP_PROBES = 2          # extra set-ups in fresh processes, besides this one
ORACLE_QUOTA = 1          # oracle-checked operations per (kind, name) and run

# end-to-end rate (1/s) -> the operation kind whose units and seconds it pools
RATES = {
    "eval_per_s": "eval",
    "density_per_s": "density",
    "invert_per_s": "invert",
    "grid_rows_per_s": "grid",
    "draws_per_s": "draws",
    "series_draws_per_s": "series",
    "cli_rows_per_s": "cli_sample",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time the import and the one-off builds, print "
                         "them as JSON and exit")
    return ap.parse_args(argv)


def import_program(tracer):
    """Import stable_hitting from this checkout's src/, never from elsewhere."""
    if not (SRC / "stable_hitting" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no package at {SRC / 'stable_hitting'}; "
                         "run from the root of a stable-hitting checkout")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    with tracer.span("process.import"):
        import stable_hitting
    import_s = time.perf_counter() - t0
    if Path(stable_hitting.__file__).resolve().parent != SRC / "stable_hitting":
        raise SystemExit(f"run.py: imported {stable_hitting.__file__}, "
                         f"not the checkout's package")
    return import_s


def set_up(workload, tracer, ref, phase="first"):
    """Run the workload's one-off builds; returns their quiet-host seconds."""
    total = defaultdict(float)
    for sampler, alpha, build in workload.setup_calls():
        with tracer.span("sampling.setup", sampler=sampler, alpha=alpha,
                         phase=phase):
            t0 = time.perf_counter()
            build()
            ref.add("setup", time.perf_counter() - t0, total)
        ref.tick(force=True)
    return total["setup"]


def probe_setup(workload_name):
    """Time import plus set-up in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload_name, "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


class Reference:
    """Times a fixed kernel that does not use the package, so that the
    host's speed drift can be divided out of every timing.

    The host is shared: a fixed loop's time varies up to 1.8x within a
    minute, in step for all code.  The kernel runs at least every
    ``EVERY_S`` of wall time, between calls; the calls made between two of
    its runs have their seconds multiplied by REF_S over the mean of those
    two runs, where REF_S is the kernel's time on this host when quiet, so
    figures read as seconds of a quiet host.  The kernel is interpreted
    code calling QUADPACK, like the package's quadratures; array code would
    track the host worse, as its speed after a large allocation drops more.
    """

    REF_S = 0.0075
    EVERY_S = 0.25

    def __init__(self):
        self.last_s = None
        self.last_t = -float("inf")
        self.pending = []

    def _sample(self):
        import math
        from scipy import integrate
        t0 = time.perf_counter()
        for k in range(100):
            integrate.quad(lambda x: math.cos(x + k) / (1.0 + x * x), 0.0, 60.0,
                           limit=200)
        self.last_t = time.perf_counter()
        return self.last_t - t0

    def add(self, kind, seconds, out):
        """Queue a timing; it lands in ``out[kind]`` once bracketed."""
        self.pending.append((kind, seconds, out))

    def tick(self, force=False):
        """Run the kernel if due, and settle the queued timings."""
        if not force and time.perf_counter() - self.last_t < self.EVERY_S:
            return
        before, self.last_s = self.last_s, self._sample()
        scale = self.REF_S / (0.5 * (before + self.last_s) if before else self.last_s)
        for kind, seconds, out in self.pending:
            out[kind] += seconds * scale
        self.pending.clear()


def measure(workload, rng, seconds, tracer, run_id, ref):
    """Run whole rounds until ``seconds`` have passed; returns the per-round
    quiet-host seconds and units per kind, the counts and the problems the
    checks found."""
    rounds = []
    attempted = failed = 0
    problems, deferred = [], []
    quota = Counter()
    # collections would land in whichever call happens to allocate; run
    # them between rounds instead, outside every timing
    gc.collect()
    gc.freeze()
    gc.disable()
    ref.tick(force=True)
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        busy = defaultdict(float)
        units = defaultdict(int)
        round_id = f"{run_id}/{len(rounds)}"
        tracer.run_id = round_id
        with tracer.span("bench.round"):
            for op in workload.round(rng, len(rounds)):
                attempted += 1
                ref.tick()
                with tracer.span(f"bench.{op.kind}", op=op.name, units=op.units,
                                 job=op.job, replay=op.replay) as rec:
                    t0 = time.perf_counter()
                    try:
                        result = op.call(tracer)
                    except Exception as exc:  # counted, and the run goes on
                        failed += 1
                        if not isinstance(exc, op.expect):
                            print(f"{round_id} {op.kind} {op.name}: unexpected "
                                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
                        continue
                    dt = time.perf_counter() - t0
                    if rec is not None:
                        rec[6]["kargs"] = op.kargs
                ref.add(op.kind, dt, busy)
                units[op.kind] += op.units
                problems += run_check(op.kind, op.name, op.check, result)
                if op.oracle is not None and quota[op.kind, op.name] < ORACLE_QUOTA:
                    quota[op.kind, op.name] += 1
                    # not the op: its call may hold a whole batch of draws
                    deferred.append((op.kind, op.name, op.oracle, result))
        ref.tick(force=True)
        rounds.append((busy, units))
        gc.collect()
    gc.enable()
    for kind, name, oracle, result in deferred:
        problems += run_check(kind, name, oracle, result)
    problems += workload.mc.problems()
    return rounds, attempted, failed, problems


def run_check(kind, name, check, result):
    """A check's problems; output it cannot even read is one more."""
    if check is None:
        return []
    try:
        return check(result)
    except Exception as exc:  # malformed output marks the run incorrect
        return [f"{kind} {name}: check raised {type(exc).__name__}: {exc}"]


def end_to_end(rounds, setup_samples):
    """Each rate pools its kind's units and quiet-host seconds over the run;
    suite_s is the suites' quiet-host seconds per round; setup_s is the
    median over this process and the probes."""
    out = {"setup_s": (statistics.median(setup_samples), "s")}
    for metric, kind in RATES.items():
        busy = sum(b[kind] for b, _ in rounds)
        out[metric] = (sum(u[kind] for _, u in rounds) / busy if busy else 0.0, "1/s")
    out["suite_s"] = (sum(b["suite"] for b, _ in rounds) / len(rounds), "s")
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return out


def main(argv=None):
    args = parse_args(argv)
    from tracing import NullTracer, Tracer, per_layer_metrics
    run_id = f"{args.workload}/seed{args.seed}"
    tracer = Tracer(run_id) if args.trace else NullTracer()
    import_s = import_program(tracer)
    import numpy as np
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    ref = Reference()
    setup = defaultdict(float)
    ref.add("setup", import_s, setup)
    ref.tick(force=True)
    setup_s = setup["setup"] + set_up(workload, tracer, ref)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_samples = [setup_s] + [probe_setup(args.workload)
                                 for _ in range(SETUP_PROBES)]
    if args.trace:
        set_up(workload, tracer, ref, phase="steady")

    rng = np.random.default_rng(args.seed)
    rounds, attempted, failed, problems = measure(
        workload, rng, args.seconds, tracer, run_id, ref)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    e2e = end_to_end(rounds, setup_samples)
    metrics = per_layer_metrics(tracer.spans) if args.trace else e2e
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, rounds=len(rounds), setup_samples=setup_samples,
                  end_to_end={k: v for k, (v, _) in e2e.items()},
                  problems=problems,
                  mc_z={k: z for k, (z, _) in workload.mc.z_scores().items()},
                  per_round=[(dict(b), dict(u)) for b, u in rounds])
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.dump(stem.with_suffix(".spans.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
