"""The benchmark's three workloads, as rounds of operations on the program.

Every workload runs every kind of operation, so that each run reports every
end-to-end metric; what differs between workloads is the shape of the inputs:

* ``cold_transforms`` draws every parameter afresh, so no reduced kernel
  argument repeats and the quadrature does the work;
* ``grid_sweep`` evaluates Cartesian grids through ``cli.main`` and runs the
  deterministic suites, so kernel arguments repeat within each call;
* ``monte_carlo`` draws 10^6 variates per sampler batch and runs the Monte
  Carlo suites at N = 10^6.

An operation calls one public function of one module, or ``cli.main``.
``check`` runs right after the call, outside its timed region, and looks at
properties the output must have or at Monte Carlo means against closed forms;
``oracle`` compares against the independent values of ``oracles`` and is
deferred to the end of the run, for the first operation of each kind and
name only.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import oracles as O
from stable_hitting import cli, distributions as dist, hitting_laws as hl
from stable_hitting import numerics, resolvent, sampling as smp, verify
from stable_hitting.errors import TableBuildError

REL_TOL = 1e-6      # quadrature values against the mpmath/scipy oracles
CDF_TOL = 1e-3      # 12-term Gaver-Stehfest against the quadrature CDF
N_SE = 6.0          # Monte Carlo bound, in standard errors
TABLE_ALPHA = 1.5   # index of the table samplers outside monte_carlo


@dataclass
class Op:
    kind: str                      # metric bucket, see run.RATES
    name: str
    call: Callable                 # call(tracer) -> result
    units: int = 1                 # values, rows or draws the call yields
    check: Optional[Callable] = None   # check(result) -> list of problems
    oracle: Optional[Callable] = None  # deferred, costly check
    kargs: list = field(default_factory=list)  # reduced kernel arguments
    job: Optional[int] = None      # a cli.main call ...
    replay: Optional[int] = None   # ... and the direct calls it is paired with
    expect: tuple = ()             # exceptions of known program faults


# ------------------------------------------------------------ helpers

def loguniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _close(label, got, want):
    """Relative agreement of a quadrature value with its oracle."""
    if not (math.isfinite(got) and abs(got - want) <= REL_TOL * abs(want)):
        return [f"{label}: program {got!r} vs oracle {want!r}"]
    return []


def _cdf_close(label, got, alpha, a, t):
    """Absolute agreement of an inverted CDF value with the quadrature CDF."""
    want = O.hitting_cdf(alpha, a, t)
    if not abs(got - want) <= CDF_TOL:
        return [f"{label}: program {got!r} vs oracle {want!r}"]
    return []


def _u_key(alpha, q, y):
    # the program's reduction u_q(y) = q^{1/a-1} u_1(|y| q^{1/a}), cache key (a, w)
    return ("u", alpha, abs(y) * q ** (1.0 / alpha))


def _p_key(alpha, t, x):
    return ("p", alpha, abs(x) * t ** -(1.0 / alpha))


def clear_kernel_caches():
    """Empty the program's lru caches outside ``sampling``, as a fresh
    process would find them; sampler tables stay, they are set-up."""
    for mod in (numerics, resolvent, dist, hl):
        for obj in vars(mod).values():
            if (callable(getattr(obj, "cache_clear", None))
                    and getattr(obj, "__module__", None) == mod.__name__):
                obj.cache_clear()


class MonteCarloChecks:
    """Monte Carlo means against closed forms, pooled over a run.

    Each batch adds its residuals f(X_i) - E f(X) under a label; at the end
    the pooled mean of every label must lie within N_SE standard errors of
    zero.  Pooling keeps the check sound for the small batches of
    cold_transforms, whose own sample variance would be unreliable."""

    def __init__(self):
        self.sums = {}

    def add(self, label, values, want):
        r = np.asarray(values, dtype=float) - want
        n, s, ss = self.sums.get(label, (0, 0.0, 0.0))
        self.sums[label] = (n + r.size, s + float(r.sum()), ss + float(r @ r))
        return []

    def z_scores(self):
        """Pooled mean residual of each label, in standard errors."""
        out = {}
        for label, (n, s, ss) in self.sums.items():
            mean = s / n
            se = math.sqrt(max(ss / n - mean * mean, 0.0) / max(n - 1, 1))
            out[label] = (abs(mean) / se if se > 0 else (0.0 if mean == 0 else math.inf), n)
        return out

    def problems(self):
        return [f"{label}: Monte Carlo mean {z:.1f} standard errors off, "
                f"over {n} draws" for label, (z, n) in self.z_scores().items()
                if not z <= N_SE]


# ------------------------------------------------- transforms and densities

@dataclass(frozen=True)
class Value:
    """A transform or density: the library call's arguments, the oracle's
    (``oracles`` has a function of the same name), the reduced kernel
    arguments of its documented formula, and whether it lies in [0, 1]."""

    module: object
    args: Callable
    oracle_args: Callable
    keys: Callable
    unit: bool = False


def _aqa(p):
    return (p["alpha"], p["q"], p["a"])


def _query(p, **kw):
    return hl.HittingQuery(p["alpha"], p["q"], a=p["a"], **kw)


def _transform(offsets, args=_aqa, oracle_args=_aqa, unit=True):
    """A hitting_laws transform; ``offsets`` are the y of the u(y) its
    formula reads."""
    return Value(hl, args, oracle_args,
                 lambda p: [_u_key(p["alpha"], p["q"], y) for y in set(offsets(p))],
                 unit)


VALUES = {
    "lt_hit_point": _transform(
        lambda p: (p["x"] - p["a"], 0.0), args=lambda p: (_query(p, x=p["x"]),),
        oracle_args=lambda p: (p["alpha"], p["q"], p["a"], p["x"])),
    "lt_last_exit": _transform(lambda p: (0.0, p["a"])),
    "lt_post_exit": _transform(lambda p: (0.0, p["a"])),
    "lt_hit_abs": _transform(lambda p: (p["a"], 0.0, 2.0 * p["a"])),
    "lt_last_exit_abs": _transform(lambda p: (0.0, 2.0 * p["a"], p["a"])),
    "lt_post_exit_abs": _transform(lambda p: (p["a"], 0.0, 2.0 * p["a"])),
    "lt_hit_before": _transform(
        lambda p: (0.0, p["a"] - p["b"], p["x"] - p["a"], p["x"] - p["b"]),
        args=lambda p: (_query(p, x=p["x"], b=p["b"]),),
        oracle_args=lambda p: (p["alpha"], p["q"], p["x"], p["a"], p["b"])),
    "lt_hit_three": _transform(
        lambda p: (0.0, 2.0 * p["a"], p["a"], p["x"], p["x"] - p["a"], p["x"] + p["a"]),
        args=lambda p: (p["alpha"], p["q"], p["x"], p["a"]),
        oracle_args=lambda p: (p["alpha"], p["q"], p["x"], p["a"])),
    "excursion_hit_lt": _transform(lambda p: (0.0, p["a"]), unit=False),
    "excursion_hit_lt_abs": _transform(lambda p: (p["a"], 0.0, 2.0 * p["a"]), unit=False),
    "transition_density": Value(
        resolvent, lambda p: (p["alpha"], p["t"], p["x"]),
        lambda p: (p["alpha"], p["t"], p["x"]),
        lambda p: [_p_key(p["alpha"], p["t"], p["x"])]),
    "linnik_density": Value(
        dist, lambda p: (p["alpha"], p["x"]), lambda p: (p["alpha"], p["x"]),
        lambda p: []),
    "alpha_rayleigh_survival": Value(
        dist, lambda p: (p["alpha"], abs(p["x"])), lambda p: (p["alpha"], abs(p["x"])),
        lambda p: [_p_key(p["alpha"], 1.0, p["x"]), _p_key(p["alpha"], 1.0, 0.0)],
        unit=True),
    "meixner_density": Value(
        dist, lambda p: (p["beta"], p["t"], p["x"]), lambda p: (p["beta"], p["t"], p["x"]),
        lambda p: []),
}
NINE = tuple(VALUES)[:9]
DENSITIES = tuple(VALUES)[10:]

# cli eval kind -> library function name and the flags it reads
CLI_EVAL = {
    "lt-T": ("lt_hit_point", ("alpha", "q", "a")),
    "lt-G": ("lt_last_exit", ("alpha", "q", "a")),
    "lt-Xi": ("lt_post_exit", ("alpha", "q", "a")),
    "lt-T-abs": ("lt_hit_abs", ("alpha", "q", "a")),
    "lt-G-abs": ("lt_last_exit_abs", ("alpha", "q", "a")),
    "lt-Xi-abs": ("lt_post_exit_abs", ("alpha", "q", "a")),
    "exc-n": ("excursion_hit_lt", ("alpha", "a", "q")),
    "exc-m": ("excursion_hit_lt_abs", ("alpha", "a", "q")),
    "density": ("transition_density", ("alpha", "t", "x")),
    "linnik": ("linnik_density", ("alpha", "x")),
    "meixner": ("meixner_density", ("beta", "t", "x")),
    "rayleigh-survival": ("alpha_rayleigh_survival", ("alpha", "x")),
}


def _value_check(label, v, unit):
    if not math.isfinite(v) or v < 0.0 or (unit and v > 1.0 + 1e-12):
        return [f"{label}: value {v!r} outside {'[0, 1]' if unit else '[0, inf)'}"]
    return []


def _library_value(tr, name, p):
    """One direct library call for a transform or density at parameters p."""
    v = VALUES[name]
    return tr.call(f"{v.module.__name__.rsplit('.', 1)[1]}.{name}",
                   getattr(v.module, name), *v.args(p))


def _oracle_value(name, p):
    return getattr(O, name)(*VALUES[name].oracle_args(p))


def value_op(kind, name, p):
    """One transform or density value at parameters p."""
    return Op(kind, name, lambda tr: _library_value(tr, name, p),
              check=lambda v: _value_check(f"{name}{p}", v, VALUES[name].unit),
              oracle=lambda v: _close(f"{name}{p}", v, _oracle_value(name, p)),
              kargs=VALUES[name].keys(p))


# ------------------------------------------------------------- inversion

def _stehfest_nodes(t, n_terms=12):
    ln2_t = np.log(np.longdouble(2)) / np.longdouble(t)
    return [float(np.longdouble(k) * ln2_t) for k in range(1, n_terms + 1)]


def _invert(tr, alpha, a, t):
    def phi(s):
        return tr.call("hitting_laws.lt_hit_point", hl.lt_hit_point,
                       hl.HittingQuery(alpha, float(s), a=a))
    return tr.call("numerics.laplace_invert_cdf", numerics.laplace_invert_cdf,
                   phi, t)


def _invert_keys(alpha, a, t):
    return [k for q in _stehfest_nodes(t)
            for k in (_u_key(alpha, q, -a), _u_key(alpha, q, 0.0))]


def invert_op(kind, alpha, a, t):
    """P(T_a < t) by 12-term Gaver-Stehfest inversion of E e^{-q T_a}."""
    label = f"cdf(alpha={alpha}, a={a}, t={t})"
    return Op(kind, "laplace_invert_cdf", lambda tr: _invert(tr, alpha, a, t),
              check=lambda v: _value_check(label, v, True),
              oracle=lambda v: _cdf_close(label, v, alpha, a, t),
              kargs=_invert_keys(alpha, a, t))


# --------------------------------------------------------------- the CLI

def _cli(tr, argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = tr.call("cli.main", cli.main, argv)
    text = sink.getvalue()
    tr.note(rows=max(text.count("\n") - 1, 0), bytes=len(text.encode()))
    return code, text


def _csv(text):
    lines = text.splitlines() or [""]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _fmt_grid(values):
    return ",".join(repr(float(v)) for v in values)


def _grid_cli_op(argv, n_rows, keys, job, shared):
    """`stable-hitting eval|invert` from empty kernel caches; its CSV rows are
    left in ``shared`` for the replay's check."""
    def run(tr):
        clear_kernel_caches()
        return _cli(tr, argv)

    def check(out):
        code, text = out
        shared["rows"] = _csv(text)[1]
        if code != 0 or len(shared["rows"]) != n_rows:
            return [f"{' '.join(argv[:2])}: exit {code}, "
                    f"{len(shared['rows'])} rows for {n_rows}"]
        return []

    return Op("grid", " ".join(argv[:2]), run, units=n_rows, check=check,
              kargs=keys, job=job)


class Jobs:
    """Pairs each cli.main call with the same library calls made directly,
    each started from empty kernel caches, as a fresh process would be."""

    def __init__(self, mc):
        self._ids = itertools.count()
        self.mc = mc

    def eval_grid(self, kind, grids, replay_kind):
        """`stable-hitting eval` over the Cartesian product of ``grids``."""
        fn_name, flags = CLI_EVAL[kind]
        argv = ["eval", kind] + [f"--{f}={_fmt_grid(grids[f])}" for f in flags]
        combos = [dict(zip(flags, c)) for c in itertools.product(*(grids[f] for f in flags))]
        for p in combos:
            p.setdefault("x", 0.0)
        job = next(self._ids)
        shared = {}

        def run_replay(tr):
            clear_kernel_caches()
            return [_library_value(tr, fn_name, p) for p in combos]

        def check_replay(values):
            problems = []
            rows = shared.pop("rows", [])
            for p, v, row in zip(combos, values, rows):
                problems += _value_check(f"{fn_name}{p}", v, VALUES[fn_name].unit)
                if row[-1] != repr(float(v)):
                    problems.append(f"eval {kind}{p}: cli wrote {row[-1]}, "
                                    f"library gives {v!r}")
            return problems

        def oracle_replay(values):
            # the first and the last point of the grid
            return [msg for i in {0, len(values) - 1}
                    for msg in _close(f"{fn_name}{combos[i]}", values[i],
                                      _oracle_value(fn_name, combos[i]))]

        keys = [k for p in combos for k in VALUES[fn_name].keys(p)]
        return [_grid_cli_op(argv, len(combos), keys, job, shared),
                Op(replay_kind, fn_name, run_replay, units=len(combos),
                   check=check_replay, oracle=oracle_replay, replay=job)]

    def invert_grid(self, alpha, a, ts, replay_kind):
        """`stable-hitting invert lt-T` over the time grid ``ts``."""
        ts = sorted(ts)
        argv = ["invert", "lt-T", "--alpha", repr(alpha), "--a", repr(a),
                "--t", _fmt_grid(ts)]
        job = next(self._ids)
        shared = {}

        def run_replay(tr):
            clear_kernel_caches()
            return [_invert(tr, alpha, a, t) for t in ts]

        def check_replay(values):
            label = f"cdf(alpha={alpha}, a={a})"
            problems = [m for v in values for m in _value_check(label, v, True)]
            running = np.maximum.accumulate(values)
            for t, want, row in zip(ts, running, shared.pop("rows", [])):
                if row[1] != repr(float(want)):
                    problems.append(f"invert {label} t={t}: cli wrote {row[1]}, "
                                    f"library gives {float(want)!r}")
            return problems

        def oracle_replay(values):
            return _cdf_close(f"cdf(alpha={alpha}, a={a}, t={ts[-1]})", values[-1],
                              alpha, a, ts[-1])

        keys = [k for t in ts for k in _invert_keys(alpha, a, t)]
        return [_grid_cli_op(argv, len(ts), keys, job, shared),
                Op(replay_kind, "laplace_invert_cdf", run_replay, units=len(ts),
                   check=check_replay, oracle=oracle_replay, replay=job)]

    def sample_t_point(self, alpha, a, n, seed):
        """`stable-hitting sample t-point` and the same draws made directly."""
        argv = ["sample", "t-point", "--alpha", repr(alpha), "--a", repr(a),
                "-n", str(n), "--seed", str(seed)]
        job = next(self._ids)
        shared = {}

        def check_cli(out):
            code, text = out
            shared["text"] = text
            header, rows = _csv(text)
            if code != 0 or header != ["draw"] or len(rows) != n:
                return [f"sample t-point: exit {code}, {len(rows)} rows for {n}"]
            return []

        def run_replay(tr):
            return tr.call("sampling.sample_hitting_time", smp.sample_hitting_time,
                           alpha, a, smp.RandomStream(seed, 0), n)

        def check_replay(draws):
            cli_draws = np.array(shared.pop("text").split()[1:], dtype=float)
            hitting_mc(self.mc, alpha, draws / abs(a) ** alpha)
            if not np.array_equal(cli_draws, draws):
                return ["sample t-point: cli draws differ from the library's"]
            return []

        return [Op("cli_sample", "sample t-point", lambda tr: _cli(tr, argv),
                   units=n, check=check_cli, job=job),
                Op("replay", "sample_hitting_time", run_replay, units=n,
                   check=check_replay, replay=job)]


# ------------------------------------------------------------- samplers

def hitting_mc(mc, alpha, t1_draws):
    """E e^{-q T_1} against the oracle resolvent ratio."""
    for q in (0.5, 1.0, 2.0):
        mc.add(f"E exp(-{q} T_1), alpha={alpha}", np.exp(-q * t1_draws),
               O.lt_hit_point(alpha, q, 1.0))
    return []


def _sampler_op(kind, fn_name, n, args, check):
    fn = getattr(smp, fn_name)
    return Op(kind, fn_name,
              lambda tr: tr.call(f"sampling.{fn_name}", fn, *args), units=n,
              check=check)


def draw_mix(mc, rng, n, alpha, alpha_table):
    """One batch of each sampler in the mix; the table samplers use
    ``alpha_table``, whose size-biased table the set-up built."""
    gamma = 1.0 / alpha
    t = float(rng.uniform(0.5, 2.0))
    stream = lambda: smp.RandomStream(int(rng.integers(2 ** 32)))

    def cos_check(label, form):
        def check(x):
            for th in (0.5, 1.0, 2.0):
                mc.add(f"E cos({th} X), {label}", np.cos(th * x), form(alpha, th))
            return []
        return check

    def rayleigh_check(r):
        for x in (0.5, 1.0, 2.0):
            mc.add(f"P(R > {x}), alpha={alpha_table}", r > x,
                   O.alpha_rayleigh_survival(alpha_table, x))
        return []

    def excursion_check(pair):
        age, dur = pair
        mc.add("E excursion age", age, O.excursion_age_mean(gamma))
        mc.add("P(excursion duration <= 1)", dur <= 1.0,
               O.excursion_duration_le_one(gamma))
        return []

    def tanh_check(s):
        for lam in (0.5, 1.0, 2.0):
            mc.add(f"tanh law E exp(-{lam} S)", np.exp(-lam * s), O.tanh_lt(t, lam))
        return []

    from_lt_stream = stream()
    return [
        _sampler_op("draws", "sample_hitting_time", n,
                    (alpha_table, 1.0, stream(), n),
                    lambda d: hitting_mc(mc, alpha_table, d)),
        _sampler_op("draws", "sample_alpha_rayleigh", n,
                    (alpha_table, stream(), n), rayleigh_check),
        _sampler_op("draws", "sample_sym_stable", n, (alpha, stream(), n),
                    cos_check("symmetric stable", O.stable_cos_mean)),
        _sampler_op("draws", "sample_linnik", n, (alpha, stream(), n),
                    cos_check("Linnik", O.linnik_cos_mean)),
        _sampler_op("draws", "sample_excursion_age_duration", n,
                    (gamma, stream(), n), excursion_check),
        Op("draws", "sample_from_lt",
           lambda tr: tr.call("sampling.sample_from_lt", smp.sample_from_lt,
                              smp.tanh_subordinator_lt(t), from_lt_stream, n),
           units=n, check=tanh_check),
    ]


def series_ops(mc, rng, n):
    """Gamma-series subordinator at its default 10,000 terms, at the two
    parameters with closed-form transforms."""
    ops = []
    for a in (0.5, 1.0):
        t = float(rng.uniform(0.5, 2.0))

        def check(s, a=a, t=t):
            for lam in (0.5, 1.0, 2.0):
                mc.add(f"gamma series E exp(-{lam} S), a={a}", np.exp(-lam * s),
                       O.gamma_series_lt(a, t, lam))
            return []

        stream = smp.RandomStream(int(rng.integers(2 ** 32)))
        ops.append(_sampler_op("series", "sample_gamma_series_subordinator",
                               n, (a, t, stream, n), check))
    return ops


def suite_op(kind, suite, idx_grid=None, seed=0, n=1_000_000, fresh=False):
    """One verify suite; ``fresh`` starts it from empty kernel caches, like
    `stable-hitting verify` in a new process."""
    def run(tr):
        if fresh:
            clear_kernel_caches()
        reports = tr.call("verify.run_suite", verify.run_suite, suite,
                          idx_grid=idx_grid, seed=seed, n_samples=n)
        tr.note(checks=len(reports))
        return reports

    def check(reports):
        bad = [r.check_id for r in reports if not r.passed]
        if not reports or bad:
            return [f"verify {suite} (alpha={idx_grid}, seed={seed}): "
                    f"{len(bad)} of {len(reports)} checks failed: {bad[:3]}"]
        return []

    return Op(kind, suite, run, check=check)


def failing_hitting_op(mc, alpha, n, seed):
    """A sampler call that raises on this code; counted as failed."""
    def check(draws):
        return hitting_mc(mc, alpha, draws)

    return Op("failing", f"sample_hitting_time(alpha={alpha})",
              lambda tr: tr.call("sampling.sample_hitting_time",
                                 smp.sample_hitting_time, alpha, 1.0,
                                 smp.RandomStream(seed), n),
              units=n, check=check, expect=(TableBuildError, OverflowError))


# ------------------------------------------------------------ workloads

def _setup_mix(n, alphas):
    """One-off builds: a first call of every sampler (the size-biased table
    of each alpha, the sample_from_lt table)."""
    calls = []
    for al in alphas:
        calls.append(("sample_hitting_time", al,
                      lambda al=al: smp.sample_hitting_time(al, 1.0, smp.RandomStream(0), n)))
    calls += [
        ("sample_alpha_rayleigh", alphas[0],
         lambda: smp.sample_alpha_rayleigh(alphas[0], smp.RandomStream(1), n)),
        ("sample_sym_stable", TABLE_ALPHA,
         lambda: smp.sample_sym_stable(TABLE_ALPHA, smp.RandomStream(2), n)),
        ("sample_linnik", TABLE_ALPHA,
         lambda: smp.sample_linnik(TABLE_ALPHA, smp.RandomStream(3), n)),
        ("sample_excursion_age_duration", TABLE_ALPHA,
         lambda: smp.sample_excursion_age_duration(1 / TABLE_ALPHA, smp.RandomStream(4), n)),
        ("sample_from_lt", 1.0,
         lambda: smp.sample_from_lt(smp.tanh_subordinator_lt(1.0), smp.RandomStream(5), n)),
    ]
    return calls


def interleave(*groups):
    """Round-robin merge of groups of operations, so that every kind's work
    is spread over the round and host speed drift averages out.  An item is
    one Op or a list of Ops that must stay together."""
    out = []
    for batch in itertools.zip_longest(*groups):
        for item in batch:
            if item is not None:
                out += item if isinstance(item, list) else [item]
    return out


def stratified(rng, lo, hi, k):
    """k draws, one uniform in each of k equal slices of [lo, hi]."""
    return [float(lo + (hi - lo) * (i + rng.random()) / k) for i in range(k)]


def log_stratified(rng, lo, hi, k):
    return [math.exp(v) for v in stratified(rng, math.log(lo), math.log(hi), k)]


class ColdTransforms:
    """Fresh parameters for every operation: alpha ~ U[1.1, 1.95], q
    log-uniform on [0.1, 10], a, |x|, |b| log-uniform on [0.25, 4], t
    log-uniform on [0.1, 10], beta ~ U[-2, 2]."""

    name = "cold_transforms"
    batch = 10_000

    def __init__(self):
        self.mc = MonteCarloChecks()
        self.jobs = Jobs(self.mc)

    def setup_calls(self):
        return _setup_mix(self.batch, (TABLE_ALPHA,))

    @staticmethod
    def params(rng):
        sign = 1.0 if rng.random() < 0.5 else -1.0
        return {"alpha": float(rng.uniform(1.1, 1.95)), "q": loguniform(rng, 0.1, 10.0),
                "a": loguniform(rng, 0.25, 4.0), "x": sign * loguniform(rng, 0.25, 4.0),
                "b": -loguniform(rng, 0.25, 4.0), "t": loguniform(rng, 0.1, 10.0),
                "beta": float(rng.uniform(-2.0, 2.0))}

    def round(self, rng, r):
        evals = [value_op("eval", name, self.params(rng))
                 for _ in range(4) for name in NINE]
        densities = [value_op("density", name, self.params(rng))
                     for _ in range(4) for name in DENSITIES]
        inverts = []
        for _ in range(2):
            p = self.params(rng)
            inverts.append(invert_op("invert", p["alpha"], p["a"], p["t"]))
        # one small grid per round through the CLI, rotating over its kinds
        kind = tuple(CLI_EVAL)[r % len(CLI_EVAL)]
        p, p2, p3 = self.params(rng), self.params(rng), self.params(rng)
        grids = {"alpha": [p["alpha"]], "beta": [p["beta"]],
                 "q": [p["q"], p2["q"], p3["q"]], "t": [p["t"], p2["t"], p3["t"]],
                 "a": [p["a"], p2["a"]], "x": [abs(p["x"]), abs(p2["x"])]}
        jobs = [self.jobs.eval_grid(kind, grids, "replay"),
                self.jobs.invert_grid(p2["alpha"], p2["a"],
                                      [p["t"], p2["t"], p3["t"]], "replay")]
        al = self.params(rng)["alpha"]
        suites = [suite_op("suite", "formula_algebra", [al]),
                  suite_op("suite", "relation_R", [al])]
        draws = draw_mix(self.mc, rng, self.batch, self.params(rng)["alpha"],
                         TABLE_ALPHA)
        series = series_ops(self.mc, rng, 4)
        cli_sample = [self.jobs.sample_t_point(
            TABLE_ALPHA, loguniform(rng, 0.25, 4.0), 2_000, int(rng.integers(2 ** 31)))]
        return interleave(evals, densities, draws, inverts, jobs, suites, series,
                          cli_sample)


class GridSweep:
    """Per round four seeded alphas, one in each quarter of [1.1, 1.95], and
    two betas, one in each half of [-2, 2]; q on an 8-point log grid over
    [0.1, 10], a in {0.5, 1, 2}, x on an 8-point log grid over [0.25, 4],
    t in {0.5, 1, 2}, and doubling t-grids 0.125 * 2^k, k = 0..6.  Each grid
    is one cli.main call, started from empty kernel caches."""

    name = "grid_sweep"
    batch = 100_000
    Q = tuple(np.geomspace(0.1, 10.0, 8))
    A = (0.5, 1.0, 2.0)
    X = tuple(np.geomspace(0.25, 4.0, 8))
    T = (0.5, 1.0, 2.0)
    SUITES = ("brownian_oracle", "formula_algebra", "relation_R", "appendix")

    def __init__(self):
        self.mc = MonteCarloChecks()
        self.jobs = Jobs(self.mc)

    def setup_calls(self):
        return _setup_mix(self.batch, (TABLE_ALPHA,))

    def round(self, rng, r):
        alphas = stratified(rng, 1.1, 1.95, 4)
        grids = {"alpha": alphas, "beta": stratified(rng, -2.0, 2.0, 2),
                 "q": self.Q, "a": self.A, "x": self.X, "t": self.T}
        jobs = [self.jobs.eval_grid(kind, grids,
                                    "eval" if VALUES[fn_name].module is hl else "density")
                for kind, (fn_name, _) in CLI_EVAL.items()]
        jobs += [self.jobs.invert_grid(al, 1.0, [0.125 * 2 ** k for k in range(7)],
                                       "invert") for al in alphas]
        suites = [suite_op("suite", s, fresh=True) for s in self.SUITES]
        draws = draw_mix(self.mc, rng, self.batch, alphas[1], TABLE_ALPHA)
        series = series_ops(self.mc, rng, 10)
        cli_sample = [self.jobs.sample_t_point(TABLE_ALPHA, 1.0, 20_000,
                                               int(rng.integers(2 ** 31)))]
        return interleave(jobs, draws, suites, series, cli_sample)


class MonteCarlo:
    """10^6 draws per sampler batch at alpha = 1.5, the three Monte Carlo
    suites at N = 10^6 with seeded streams, and `sample t-point` for 120,000
    draws per round.  Alongside, the values users compare with simulations:
    the transforms and densities at the suites' alphas 1.2, 1.5 and 1.8 with
    seeded q, t and x, an `eval lt-T` grid per alpha, and the hitting CDF at
    the deciles of the round's hitting-time draws."""

    name = "monte_carlo"
    batch = 1_000_000
    ALPHAS = (1.2, 1.5, 1.8)
    SUITES = ("mc_vs_formula", "excursion", "inversion")

    def __init__(self):
        self.mc = MonteCarloChecks()
        self.jobs = Jobs(self.mc)

    def setup_calls(self):
        return _setup_mix(self.batch, self.ALPHAS)

    def round(self, rng, r):
        evals, densities, jobs = [], [], []
        for al in self.ALPHAS:
            # stratified, so that every round meets the whole range
            for q in log_stratified(rng, 0.1, 10.0, 36):
                p = {"alpha": al, "q": q, "a": 1.0, "x": 0.5, "b": -1.0}
                evals += [value_op("eval", name, p) for name in NINE]
            for t, x, beta in zip(log_stratified(rng, 0.1, 10.0, 36),
                                  rng.permutation(log_stratified(rng, 0.25, 4.0, 36)),
                                  rng.permutation(stratified(rng, -2.0, 2.0, 36))):
                p = {"alpha": al, "t": t, "x": float(x), "beta": float(beta)}
                densities += [value_op("density", name, p) for name in DENSITIES]
            qs = sorted(loguniform(rng, 0.1, 10.0) for _ in range(16))
            jobs.append(self.jobs.eval_grid(
                "lt-T", {"alpha": [al], "q": qs, "a": [0.5, 1.0, 2.0]}, "replay"))
            t0 = loguniform(rng, 0.1, 10.0)
            jobs.append(self.jobs.invert_grid(al, 1.0, [t0 * 2 ** k for k in range(4)],
                                              "replay"))
        draws = draw_mix(self.mc, rng, self.batch, TABLE_ALPHA, TABLE_ALPHA)
        inverts = self._decile_inversions(draws[0], rng)
        seed = int(rng.integers(2 ** 31))
        suites = [suite_op("suite", s, seed=seed, n=self.batch) for s in self.SUITES]
        series = [op for _ in range(3) for op in series_ops(self.mc, rng, 150)]
        cli_sample = [self.jobs.sample_t_point(TABLE_ALPHA, 1.0, 40_000,
                                               int(rng.integers(2 ** 31)))
                      for _ in range(3)]
        failing = [failing_hitting_op(self.mc, al, self.batch, int(rng.integers(2 ** 31)))
                   for al in (1.9, 1.99)]
        # the hitting draws come first, the inversions read their deciles;
        # then the short calls, together, and the long ones
        return ([draws[0]] + interleave(evals, densities, inverts, jobs)
                + interleave(draws[1:], suites, series, cli_sample) + failing)

    @staticmethod
    def _decile_inversions(hit_op, rng):
        """P(T_1 < t) at the deciles of the round's hitting-time draws, which
        must come back within Monte Carlo noise of the decile's level."""
        seen = {}
        inner_check = hit_op.check

        def keep(draws):
            seen["sorted"] = np.sort(draws)
            return inner_check(draws)

        hit_op.check = keep
        ops = []
        for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            op = Op("invert", "laplace_invert_cdf", None)
            at = {}

            def run(tr, p=p, op=op, at=at):
                draws = seen["sorted"]
                at["t"] = t = float(draws[int(p * draws.size)])
                at["n"] = draws.size
                op.kargs = _invert_keys(TABLE_ALPHA, 1.0, t)
                return _invert(tr, TABLE_ALPHA, 1.0, t)

            def check(v, p=p, at=at):
                bound = CDF_TOL + N_SE * math.sqrt(p * (1 - p) / at["n"])
                if not abs(v - p) <= bound:
                    return [f"P(T_1 < t_{p}) = {v!r}, want {p} +- {bound:.2g}"]
                return []

            def oracle(v, at=at):
                return _cdf_close(f"cdf(alpha={TABLE_ALPHA}, a=1, t={at['t']})", v,
                                  TABLE_ALPHA, 1.0, at["t"])

            op.call, op.check, op.oracle = run, check, oracle
            ops.append(op)
        return ops


WORKLOADS = {w.name: w for w in (ColdTransforms, GridSweep, MonteCarlo)}
