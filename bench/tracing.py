"""In-memory spans around the benchmark's calls into the program, and the
per-layer metrics derived from them.

A span is (id, parent, name, start_ns, end_ns, run_id, attrs).  Names of
library calls are ``<module>.<function>``, with the module one of the
package's layers; names the benchmark gives its own operations start with
``bench.``.  ``NullTracer`` has the same interface and records nothing, so the
untraced run pays one attribute lookup per call.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from collections import defaultdict

# per-layer metric -> sampler function whose draws it times
SAMPLER_METRICS = {
    "sampling.hit_ns_per_draw": "sample_hitting_time",
    "sampling.rayleigh_ns_per_draw": "sample_alpha_rayleigh",
    "sampling.stable_ns_per_draw": "sample_sym_stable",
    "sampling.linnik_ns_per_draw": "sample_linnik",
    "sampling.excursion_ns_per_draw": "sample_excursion_age_duration",
    "sampling.from_lt_ns_per_draw": "sample_from_lt",
    "sampling.series_ns_per_draw": "sample_gamma_series_subordinator",
}


class NullTracer:
    """Calls straight through; records nothing."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name, **attrs):
        return nullcontext()

    def note(self, **attrs):
        pass


class Tracer:
    """Records one span per call, kept in memory until ``dump``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._last = None

    @contextmanager
    def span(self, name, **attrs):
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), parent, name, time.perf_counter_ns(), 0,
                  self.run_id, attrs]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record
        finally:
            record[4] = time.perf_counter_ns()
            self._stack.pop()
            self._last = record

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def note(self, **attrs):
        """Attach attributes to the span that closed last."""
        self._last[6].update(attrs)

    def dump(self, path) -> None:
        with open(path, "w") as out:
            for sid, parent, name, t0, t1, run_id, attrs in self.spans:
                out.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "start_ns": t0,
                    "end_ns": t1, "run_id": run_id, "attrs": attrs}) + "\n")


def _pct(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, round(p / 100.0 * len(ordered) + 0.5) - 1))
    return ordered[k]


def per_layer_metrics(spans) -> dict:
    """Every per-layer metric of BENCHMARK.json, from one run's spans."""
    dur = {s[0]: (s[4] - s[3]) * 1e-9 for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append(s)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[2]].append(s)
    out = {}

    out["process.import_s"] = (sum(dur[s[0]] for s in by_name["process.import"]), "s")

    inverts = by_name["numerics.laplace_invert_cdf"]
    nodes = sum(len(children[s[0]]) for s in inverts)
    out["numerics.invert_calls"] = (len(inverts), "count")
    out["numerics.invert_self_s"] = (
        sum(dur[s[0]] - sum(dur[c[0]] for c in children[s[0]]) for s in inverts), "s")
    out["numerics.nodes_per_invert"] = (nodes / max(len(inverts), 1), "count")

    for layer in ("hitting_laws", "resolvent", "distributions"):
        times = [dur[s[0]] for s in spans if s[2].startswith(layer + ".")]
        out[f"{layer}.calls"] = (len(times), "count")
        out[f"{layer}.busy_s"] = (sum(times), "s")
        out[f"{layer}.call_p50_us"] = (_pct(times, 50) * 1e6 if times else 0.0, "us")
        out[f"{layer}.call_p99_us"] = (_pct(times, 99) * 1e6 if times else 0.0, "us")

    # share of reduced kernel arguments already seen earlier in the run
    seen, repeats, total = set(), 0, 0
    for s in spans:
        for key in s[6].get("kargs", ()):
            key = tuple(key)
            total += 1
            repeats += key in seen
            seen.add(key)
    out["resolvent.repeat_share"] = (repeats / max(total, 1), "ratio")

    firsts, steadies = {}, {}
    for s in by_name["sampling.setup"]:
        key = (s[6]["sampler"], s[6]["alpha"])
        (firsts if s[6]["phase"] == "first" else steadies)[key] = dur[s[0]]
    out["sampling.setup_s"] = (
        sum(firsts[k] - steadies.get(k, 0.0) for k in firsts), "s")

    parents = {s[0]: s for s in spans}
    for metric, fn in SAMPLER_METRICS.items():
        busy, draws = 0.0, 0
        for s in by_name["sampling." + fn]:
            op = parents.get(s[1])
            if op is not None and op[2] in ("bench.draws", "bench.series"):
                busy += dur[s[0]]
                draws += op[6]["units"]
        out[metric] = (busy / max(draws, 1) * 1e9, "ns")

    suites = by_name["verify.run_suite"]
    out["verify.checks"] = (sum(s[6].get("checks", 0) for s in suites), "count")
    out["verify.busy_s"] = (sum(dur[s[0]] for s in suites), "s")

    mains = by_name["cli.main"]
    out["cli.rows"] = (sum(s[6].get("rows", 0) for s in mains), "count")
    out["cli.bytes"] = (sum(s[6].get("bytes", 0) for s in mains), "B")
    # cli.main time minus the same library calls made directly; the replay
    # operation of a job runs right after its cli.main call, from the same
    # cache state
    cli_by_job = {}
    for s in mains:
        op = parents.get(s[1])
        cli_by_job[op[6]["job"]] = dur[s[0]]
    format_s = 0.0
    for s in spans:
        if s[2].startswith("bench.") and s[6].get("replay") is not None:
            format_s += cli_by_job[s[6]["replay"]] - dur[s[0]]
    out["cli.format_s"] = (format_s, "s")
    return out
