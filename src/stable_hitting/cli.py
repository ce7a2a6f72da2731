"""Command-line front end: evaluators, samplers, Laplace inversion and the
verification suites, all emitting CSV on stdout.

Exit codes: 0 on success (and all checks passing for ``verify``), 1 on domain
or numeric failure, 2 on usage errors.  All randomness is controlled by the
global ``--seed`` and ``--streams`` flags; stream_id equals the worker index,
and draws are concatenated in stream order, so output is reproducible for a
fixed (seed, streams, n).
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from pathlib import Path

import numpy as np

from . import hitting_laws as hl
from . import sampling as smp
from . import verify as vf
from .distributions import (alpha_rayleigh_survival, linnik_density,
                            meixner_density, z_density)
from .errors import (ConsistencyError, DegenerateDenominator, DomainError,
                     NonConvergence, NumericInstability, TableBuildError,
                     UnknownSuite)
from .numerics import laplace_invert_cdf
from .resolvent import potential_kernel, resolvent_density, transition_density

_NUMERIC_ERRORS = (DomainError, NonConvergence, NumericInstability,
                   ConsistencyError, DegenerateDenominator, TableBuildError,
                   OverflowError)


def _fmt(v) -> str:
    return repr(float(v))


def _emit(row) -> None:
    # buffered; ``main`` flushes once when the command returns
    print(",".join(str(c) for c in row))


# -------------------------------------------------------------------- eval

def _q(p):
    return hl.HittingQuery(p["alpha"], p["q"], x=p.get("x", 0.0), a=p["a"],
                           b=p.get("b"))


EVAL_KINDS = {
    # kind: (required params, optional params with defaults, evaluator)
    "density": (("alpha", "t", "x"), {}, lambda p: transition_density(p["alpha"], p["t"], p["x"])),
    "resolvent": (("alpha", "q", "x"), {}, lambda p: resolvent_density(p["alpha"], p["q"], p["x"])),
    "h": (("alpha", "x"), {}, lambda p: potential_kernel(p["alpha"], p["x"])),
    "lt-T": (("alpha", "q", "a"), {"x": 0.0}, lambda p: hl.lt_hit_point(_q(p))),
    "lt-G": (("alpha", "q", "a"), {}, lambda p: hl.lt_last_exit(p["alpha"], p["q"], p["a"])),
    "lt-Xi": (("alpha", "q", "a"), {}, lambda p: hl.lt_post_exit(p["alpha"], p["q"], p["a"])),
    "lt-T-abs": (("alpha", "q", "a"), {}, lambda p: hl.lt_hit_abs(p["alpha"], p["q"], p["a"])),
    "lt-G-abs": (("alpha", "q", "a"), {}, lambda p: hl.lt_last_exit_abs(p["alpha"], p["q"], p["a"])),
    "lt-Xi-abs": (("alpha", "q", "a"), {}, lambda p: hl.lt_post_exit_abs(p["alpha"], p["q"], p["a"])),
    "exc-n": (("alpha", "a"), {"q": None, "r": None},
              lambda p: hl.excursion_hit_mass(p["alpha"], p["a"]) if p.get("q") is None
              else hl.excursion_hit_lt(p["alpha"], p["q"], p["a"], r=p.get("r"))),
    "exc-m": (("alpha", "a"), {"q": None, "r": None},
              lambda p: hl.excursion_hit_mass_abs(p["alpha"], p["a"]) if p.get("q") is None
              else hl.excursion_hit_lt_abs(p["alpha"], p["q"], p["a"], r=p.get("r"))),
    "getoor": (("alpha", "x", "a", "b"), {}, lambda p: hl.prob_hit_before(p["alpha"], p["x"], p["a"], p["b"])),
    "linnik": (("alpha", "x"), {}, lambda p: linnik_density(p["alpha"], p["x"])),
    "meixner": (("beta", "t", "x"), {}, lambda p: meixner_density(p["beta"], p["t"], p["x"])),
    "z": (("a", "x"), {}, lambda p: z_density(p["a"], p["x"])),
    "rayleigh-survival": (("alpha", "x"), {}, lambda p: alpha_rayleigh_survival(p["alpha"], p["x"])),
}

_EVAL_FLAGS = ("alpha", "q", "r", "x", "a", "b", "t", "beta")


def _cmd_eval(args) -> int:
    required, optional, fn = EVAL_KINDS[args.kind]
    grids = {}
    for name in required:
        raw = getattr(args, name)
        if raw is None:
            print(f"eval {args.kind}: missing required flag --{name}",
                  file=sys.stderr)
            return 2
        grids[name] = raw
    for name, default in optional.items():
        raw = getattr(args, name)
        grids[name] = [default] if raw is None else raw
    names = list(grids)
    _emit(names + ["value"])
    for combo in itertools.product(*(grids[n] for n in names)):
        params = dict(zip(names, combo))
        value = fn(params)
        _emit([_fmt(params[n]) if params[n] is not None else "" for n in names]
              + [_fmt(value)])
    return 0


# ------------------------------------------------------------------ sample

SAMPLE_DISTS = {
    "gamma": (("a",), lambda p, s, n: smp.sample_gamma(p["a"], s, n)),
    "beta": (("a", "b"), lambda p, s, n: smp.sample_beta(p["a"], p["b"], s, n)),
    "exponential": ((), lambda p, s, n: smp.sample_exponential(s, n)),
    "uniform": ((), lambda p, s, n: smp.sample_uniform(s, n)),
    "sign": ((), lambda p, s, n: smp.sample_bernoulli_sign(s, n)),
    "sym-stable": (("alpha",), lambda p, s, n: smp.sample_sym_stable(p["alpha"], s, n)),
    "unilateral": (("beta",), lambda p, s, n: smp.sample_unilateral_stable(p["beta"], s, n)),
    "size-biased": (("beta",), lambda p, s, n: smp.sample_size_biased_stable(p["beta"], s, n)),
    "alpha-cauchy": (("alpha",), lambda p, s, n: smp.sample_alpha_cauchy(p["alpha"], s, n)),
    "alpha-rayleigh": (("alpha",), lambda p, s, n: smp.sample_alpha_rayleigh(p["alpha"], s, n)),
    "linnik": (("alpha",), lambda p, s, n: smp.sample_linnik(p["alpha"], s, n)),
    "t-point": (("alpha", "a"), lambda p, s, n: smp.sample_hitting_time(p["alpha"], p["a"], s, n)),
    "overshoot": (("alpha", "a"), lambda p, s, n: smp.sample_overshoot(p["alpha"], p["a"], s, n)),
    "excursion": (("gamma",), lambda p, s, n: smp.sample_excursion_age_duration(p["gamma"], s, n)),
    "excursion-exp": (("gamma",), lambda p, s, n: smp.sample_excursion_at_exp_time(p["gamma"], s, n)),
    "gamma-series": (("a", "t"), lambda p, s, n: smp.sample_gamma_series_subordinator(
        p["a"], p["t"], s, n, **({"n_terms": p["terms"]} if "terms" in p else {}))),
    "tanh-law": ((), lambda p, s, n: smp.sample_from_lt(
        smp.tanh_subordinator_lt(**({"t": p["t"]} if "t" in p else {})), s, n)),
}

_COLUMNS = {
    "excursion": ("age", "duration"),
    "excursion-exp": ("last_zero", "age", "duration"),
}


def _cmd_sample(args) -> int:
    required, fn = SAMPLE_DISTS[args.dist]
    params = {}
    for name in required:
        raw = getattr(args, name)
        if raw is None:
            print(f"sample {args.dist}: missing required flag --{name}",
                  file=sys.stderr)
            return 2
        params[name] = raw
    for name in ("t", "terms"):
        raw = getattr(args, name, None)
        if raw is not None and name not in params:
            params[name] = raw
    n, streams = args.n, args.streams
    counts = [n // streams + (1 if i < n % streams else 0)
              for i in range(streams)]
    chunks = [fn(params, smp.RandomStream(args.seed, i), c)
              for i, c in enumerate(counts) if c > 0]
    if isinstance(chunks[0], tuple):
        cols = _COLUMNS[args.dist]
        draws = [np.concatenate([np.atleast_1d(ch[j]) for ch in chunks])
                 for j in range(len(cols))]
    else:
        cols = ("draw",)
        draws = [np.concatenate([np.atleast_1d(ch) for ch in chunks])]
    if args.summary:
        _emit(["column", "n", "mean", "variance", "stderr", "ks"])
        for name, d in zip(cols, draws):
            st = smp.SampleStats.from_draws(d)
            _emit([name, st.n, _fmt(st.mean), _fmt(st.variance),
                   _fmt(st.stderr), "" if st.ks is None else _fmt(st.ks)])
    else:
        _emit(cols)
        for row in zip(*draws):
            _emit([_fmt(v) for v in row])
    return 0


# ------------------------------------------------------------------ invert

# the eval kinds that are Laplace transforms in q of a hitting-type time
_INVERT_CHOICES = sorted(kind for kind, (required, _, _) in EVAL_KINDS.items()
                         if required == ("alpha", "q", "a"))


def _cmd_invert(args) -> int:
    _, optional, fn = EVAL_KINDS[args.kind]
    params = {**optional, "alpha": args.alpha, "a": args.a}
    if args.x is not None:
        params["x"] = args.x

    def phi(q):
        return fn({**params, "q": float(q)})

    t_grid = sorted(args.t)
    _emit(["t", "p", "note"])
    rows = []
    failed = False
    for t in t_grid:
        try:
            rows.append((t, laplace_invert_cdf(phi, t, n_terms=args.terms), ""))
        except NumericInstability as exc:
            rows.append((t, math.nan, f"unstable: {exc}"))
            failed = True
    # clamp the CDF monotone along the grid
    best = 0.0
    for t, p, note in rows:
        if not math.isnan(p):
            best = max(best, p)
            p = best
        _emit([_fmt(t), "" if math.isnan(p) else _fmt(p), note])
    return 1 if failed else 0


# ------------------------------------------------------------------ verify

def _cmd_verify(args) -> int:
    try:
        reports = vf.run_suite(args.suite, idx_grid=args.alpha, seed=args.seed,
                               n_samples=args.n)
    except UnknownSuite as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(vf.report_to_csv(reports))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{args.suite}.json").write_text(vf.report_to_json(reports))
        (out / f"{args.suite}.csv").write_text(vf.report_to_csv(reports))
    return 0 if vf.all_passed(reports) else 1


# -------------------------------------------------------------------- main

def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _finite_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"invalid value {raw!r}: expected a finite number")
    return value


def _float_grid(raw: str) -> list:
    return [_finite_float(v) for v in raw.split(",")]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stable-hitting",
        description="hitting-time laws of symmetric stable processes: "
                    "evaluate, sample, invert, verify")
    sub = ap.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate a formula on a parameter grid")
    ev.add_argument("kind", choices=sorted(EVAL_KINDS))
    for flag in _EVAL_FLAGS:
        ev.add_argument(f"--{flag}", type=_float_grid,
                        help="value or comma-separated grid")

    sa = sub.add_parser("sample", help="draw from a named law")
    sa.add_argument("dist", choices=sorted(SAMPLE_DISTS))
    for flag in ("alpha", "beta", "gamma", "a", "b", "t"):
        sa.add_argument(f"--{flag}", type=_finite_float)
    sa.add_argument("--terms", type=int)
    sa.add_argument("-n", type=_positive_int, default=10)
    sa.add_argument("--seed", type=int, default=0)
    sa.add_argument("--streams", type=_positive_int, default=1)
    sa.add_argument("--summary", action="store_true")

    iv = sub.add_parser("invert", help="numerically invert a hitting-law "
                                       "transform into P(T < t)")
    iv.add_argument("kind", choices=_INVERT_CHOICES)
    iv.add_argument("--alpha", type=_finite_float, required=True)
    iv.add_argument("--a", type=_finite_float, required=True)
    iv.add_argument("--x", type=_finite_float)
    iv.add_argument("--t", type=_float_grid, required=True,
                    help="comma-separated time grid")
    iv.add_argument("--terms", type=int, default=12)

    ve = sub.add_parser("verify", help="run a verification suite")
    ve.add_argument("suite")
    ve.add_argument("--alpha", type=_float_grid,
                    help="comma-separated alpha grid")
    ve.add_argument("--seed", type=int, default=0)
    ve.add_argument("--n", type=int, default=1_000_000)
    ve.add_argument("--out", help="directory for JSON/CSV report files")
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "sample":
            return _cmd_sample(args)
        if args.command == "invert":
            return _cmd_invert(args)
        return _cmd_verify(args)
    except _NUMERIC_ERRORS as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1
    finally:
        sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
