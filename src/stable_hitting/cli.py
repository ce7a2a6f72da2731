"""Command-line front end: evaluators, samplers, Laplace inversion and the
verification suites, all emitting CSV on stdout.

``eval`` of a kind that takes alpha calls its function once per alpha, with
each other flag an array column over the product of the other grids, and
prints the rows in the product order of the flags, as row-by-row evaluation
would, one write per block of rows; ``meixner`` and ``z``, which take no
alpha, are evaluated row by row.  ``invert`` calls its law once for the
whole t grid, on the (len(t), n_terms) matrix of Stehfest nodes, through
``numerics._invert_cdf_rows``.  Where such an array call fails (``_at_once``),
the command makes the float calls instead, so that its output, message and
exit code are always those of one call per row.

Exit codes: 0 on success (and all checks passing for ``verify``), 1 on domain
or numeric failure, 2 on usage errors.  All randomness is controlled by the
global ``--seed`` and ``--streams`` flags: ``sample --streams k`` draws k
chunks in one process, chunk i from stream_id i, in stream order, so output
is reproducible for a fixed (seed, streams, n).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import re
import sys

import numpy as np

from . import hitting_laws as hl
from . import sampling as smp
from . import verify as vf
from .distributions import (alpha_rayleigh_survival, linnik_density,
                            meixner_density, z_density)
from .errors import (ConsistencyError, DegenerateDenominator, DomainError,
                     NonConvergence, NumericInstability, TableBuildError)
from .numerics import _invert_cdf_rows, laplace_invert_cdf
from .resolvent import potential_kernel, resolvent_density, transition_density

_NUMERIC_ERRORS = (DomainError, NonConvergence, NumericInstability,
                   ConsistencyError, DegenerateDenominator, TableBuildError,
                   OverflowError)


def _fmt(v) -> str:
    return repr(float(v))


def _emit(row) -> None:
    # a header, or a row of invert or --summary (``eval`` and ``sample``
    # rows go through ``_write_lines`` and ``_write_rows``); buffered, and
    # ``main`` flushes once when the command returns
    print(",".join(str(c) for c in row))


_ROW_BLOCK = 2 ** 16


def _write_rows(columns) -> None:
    """The rows of equal-length columns as CSV, one write per block of
    ``_ROW_BLOCK`` rows: memory stays bounded at any length, and each cell
    is ``_fmt`` of its value (integer draws print as floats)."""
    for i in range(0, len(columns[0]), _ROW_BLOCK):
        cells = [map(repr, c[i:i + _ROW_BLOCK].astype(float).tolist())
                 for c in columns]
        lines = cells[0] if len(cells) == 1 else map(",".join, zip(*cells))
        sys.stdout.write("\n".join(lines) + "\n")


def _write_lines(lines) -> None:
    """CSV lines, one write per block of ``_ROW_BLOCK``; where ``lines``
    raises, the lines before it are written first."""
    block = []
    try:
        for line in lines:
            block.append(line)
            if len(block) == _ROW_BLOCK:
                sys.stdout.write("\n".join(block) + "\n")
                block = []
    finally:
        if block:
            sys.stdout.write("\n".join(block) + "\n")


class _UsageError(Exception):
    """A flag the command needs is missing, or one it cannot use is given."""


def _read_flags(args, required, optional, offered) -> dict:
    """The flags an entry lists, read from ``args`` as the keywords of its
    function.  An optional flag not given takes the entry's default, and is
    left out where that is None, so that the function's own default applies.
    A flag of ``offered`` (the command's) that the entry does not list must
    not be given."""
    listed = (*required, *optional)
    for name in offered:
        if name not in listed and getattr(args, name) is not None:
            raise _UsageError(f"--{name} given, but this kind does not take it")
    params = {}
    for name in listed:
        value = getattr(args, name)
        if value is None and name in required:
            raise _UsageError(f"missing required flag --{name}")
        params[name] = optional.get(name) if value is None else value
    if params.get("r") is not None and params.get("q") is None:
        # r is the second rate of a joint transform in q
        raise _UsageError("--r needs --q")
    return {name: value for name, value in params.items() if value is not None}


# -------------------------------------------------------------------- eval

def _lt_hit_point(alpha, q, a, x):
    return hl.lt_hit_point(hl.HittingQuery(alpha, q, x=x, a=a))


def _excursion(mass, transform):
    """The excursion mass without --q, its transform in q with it."""
    def value(alpha, a, q=None, r=None):
        return mass(alpha, a) if q is None else transform(alpha, q, a, r=r)
    return value


EVAL_KINDS = {
    # kind: (required flags, optional flags with defaults, function); the
    # function is called with the flags as keywords
    "density": (("alpha", "t", "x"), {}, transition_density),
    "resolvent": (("alpha", "q", "x"), {}, resolvent_density),
    "h": (("alpha", "x"), {}, potential_kernel),
    "lt-T": (("alpha", "q", "a"), {"x": 0.0}, _lt_hit_point),
    "lt-G": (("alpha", "q", "a"), {}, hl.lt_last_exit),
    "lt-Xi": (("alpha", "q", "a"), {}, hl.lt_post_exit),
    "lt-T-abs": (("alpha", "q", "a"), {}, hl.lt_hit_abs),
    "lt-G-abs": (("alpha", "q", "a"), {}, hl.lt_last_exit_abs),
    "lt-Xi-abs": (("alpha", "q", "a"), {}, hl.lt_post_exit_abs),
    "exc-n": (("alpha", "a"), {"q": None, "r": None},
              _excursion(hl.excursion_hit_mass, hl.excursion_hit_lt)),
    "exc-m": (("alpha", "a"), {"q": None, "r": None},
              _excursion(hl.excursion_hit_mass_abs, hl.excursion_hit_lt_abs)),
    "getoor": (("alpha", "x", "a", "b"), {}, hl.prob_hit_before),
    "linnik": (("alpha", "x"), {}, linnik_density),
    "meixner": (("beta", "t", "x"), {}, meixner_density),
    "z": (("a", "x"), {}, z_density),
    "rayleigh-survival": (("alpha", "x"), {}, alpha_rayleigh_survival),
}

# the flags of ``eval``; each kind takes the ones its entry lists
_EVAL_FLAGS = ("alpha", "q", "r", "x", "a", "b", "t", "beta")


def _row_by_row(fn, grids):
    """Each row's value, in the product order of the grids."""
    for combo in itertools.product(*grids.values()):
        yield fn(**dict(zip(grids, combo)))


def _strict(fn):
    """``fn`` with floating-point overflow, division by zero and invalid
    operations raised, as ``_at_once`` needs them."""
    def call(*args, **kwargs):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return fn(*args, **kwargs)
    return call


def _at_once(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, one call that stands in for many float calls
    of a law, with floating-point overflow, division by zero and invalid
    operations raised; None where it raises one of those or a package error.
    The caller then makes the float calls, so that the rows printed before
    a failing one, its message and the exit code are theirs."""
    try:
        return _strict(fn)(*args, **kwargs)
    except (ArithmeticError, ValueError):
        return None


def _by_alpha(fn, grids):
    """``_row_by_row``, from one call of ``fn`` per alpha, with every other
    flag an array column over the product of the other grids; alpha leads
    the flags of every kind that takes it, so the rows keep the product
    order.

    Every function that takes alpha gives each element bit for bit as float
    arguments do.  An alpha whose call fails (``_at_once``) gives its rows
    by one call each."""
    rest = {name: grid for name, grid in grids.items() if name != "alpha"}
    columns = {name: np.array(column) for name, column
               in zip(rest, zip(*itertools.product(*rest.values())))}
    for alpha in grids["alpha"]:
        values = _at_once(fn, alpha=alpha, **columns)
        if values is None:
            yield from _row_by_row(fn, {**grids, "alpha": [alpha]})
        else:
            yield from values.tolist()


def _cmd_eval(args) -> int:
    required, optional, fn = EVAL_KINDS[args.kind]
    flags = _read_flags(args, required, optional, _EVAL_FLAGS)
    names = [*required, *optional]
    _emit(names + ["value"])
    # a given flag is a grid, a default one value
    grids = {name: v if isinstance(v, list) else [v]
             for name, v in flags.items()}
    # the flag cells of every row, each grid value formatted once; grids
    # keeps the order of names, so the product runs in the rows' order
    cells = itertools.product(*[[_fmt(v) for v in grids[n]] if n in grids
                                else [""] for n in names])
    rows = _by_alpha if "alpha" in grids else _row_by_row
    _write_lines(",".join((*row, _fmt(value)))
                 for row, value in zip(cells, rows(fn, grids)))
    return 0


# ------------------------------------------------------------------ sample

def _gamma_series(a, t, stream, size, terms=None):
    kw = {} if terms is None else {"n_terms": terms}
    return smp.sample_gamma_series_subordinator(a, t, stream, size, **kw)


def _tanh_law(stream, size, **t):
    return smp.sample_from_lt(smp.tanh_subordinator_lt(**t), stream, size)


SAMPLE_DISTS = {
    # dist: (required flags, optional flags with defaults, sampler); the
    # sampler is called with the flags, stream and size as keywords
    "gamma": (("a",), {}, smp.sample_gamma),
    "beta": (("a", "b"), {}, smp.sample_beta),
    "exponential": ((), {}, smp.sample_exponential),
    "uniform": ((), {}, smp.sample_uniform),
    "sign": ((), {}, smp.sample_bernoulli_sign),
    "sym-stable": (("alpha",), {}, smp.sample_sym_stable),
    "unilateral": (("beta",), {}, smp.sample_unilateral_stable),
    "size-biased": (("beta",), {}, smp.sample_size_biased_stable),
    "alpha-cauchy": (("alpha",), {}, smp.sample_alpha_cauchy),
    "alpha-rayleigh": (("alpha",), {}, smp.sample_alpha_rayleigh),
    "linnik": (("alpha",), {}, smp.sample_linnik),
    "t-point": (("alpha", "a"), {}, smp.sample_hitting_time),
    "overshoot": (("alpha", "a"), {}, smp.sample_overshoot),
    "excursion": (("gamma",), {}, smp.sample_excursion_age_duration),
    "excursion-exp": (("gamma",), {}, smp.sample_excursion_at_exp_time),
    "gamma-series": (("a", "t"), {"terms": None}, _gamma_series),
    "tanh-law": ((), {"t": None}, _tanh_law),
}

# the flags of ``sample``; each dist takes the ones its entry lists
_SAMPLE_FLAGS = ("alpha", "beta", "gamma", "a", "b", "t", "terms")

_COLUMNS = {
    "excursion": ("age", "duration"),
    "excursion-exp": ("last_zero", "age", "duration"),
}


def _cmd_sample(args) -> int:
    required, optional, fn = SAMPLE_DISTS[args.kind]
    params = _read_flags(args, required, optional, _SAMPLE_FLAGS)
    n, streams = args.n, args.streams
    counts = [n // streams + (1 if i < n % streams else 0)
              for i in range(streams)]
    chunks = [fn(**params, stream=smp.RandomStream(args.seed, i), size=c)
              for i, c in enumerate(counts) if c > 0]
    cols = _COLUMNS.get(args.kind, ("draw",))
    draws = [np.concatenate([np.atleast_1d(ch if len(cols) == 1 else ch[j])
                             for ch in chunks]) for j in range(len(cols))]
    if args.summary:
        _emit(["column", "n", "mean", "variance", "stderr"])
        for name, d in zip(cols, draws):
            st = smp.SampleStats.from_draws(d)
            _emit([name, st.n, _fmt(st.mean), _fmt(st.variance),
                   _fmt(st.stderr)])
    else:
        _emit(cols)
        _write_rows(draws)
    return 0


# ------------------------------------------------------------------ invert

# the eval kinds that are Laplace transforms in q of a hitting-type time
_INVERT_CHOICES = sorted(kind for kind, (required, _, _) in EVAL_KINDS.items()
                         if required == ("alpha", "q", "a"))

# the flags of ``invert``; each kind takes the ones its entry lists but q
_INVERT_FLAGS = ("alpha", "a", "x")


def _cmd_invert(args) -> int:
    required, optional, fn = EVAL_KINDS[args.kind]
    params = _read_flags(args, [n for n in required if n != "q"], optional,
                         _INVERT_FLAGS)
    ts = sorted(args.t)
    # the whole grid from one call of the law on its node matrix; the
    # inverter silences its transform's floating-point warnings, so the law
    # raises them under its own errstate
    law = _strict(fn)
    grid = _at_once(_invert_cdf_rows,
                    lambda q: law(**params, q=q.astype(float)), ts, args.terms)

    def phi(q):
        return fn(**params, q=float(q))

    _emit(["t", "p", "note"])
    failed, best = False, 0.0
    for i, t in enumerate(ts):
        try:
            p = (laplace_invert_cdf(phi, t, n_terms=args.terms)
                 if grid is None else float(grid[i]))
        except NumericInstability as exc:
            _emit([_fmt(t), "", f"unstable: {exc}"])
            failed = True
            continue
        # clamp the CDF monotone along the grid
        best = max(best, p)
        _emit([_fmt(t), _fmt(best), ""])
    return 1 if failed else 0


# ------------------------------------------------------------------ verify

def _cmd_verify(args) -> int:
    if args.alpha is not None and args.kind not in vf._ALPHA_GRID:
        raise _UsageError("--alpha given, but this suite does not take it")
    reports = vf.run_suite(args.kind, idx_grid=args.alpha, seed=args.seed,
                           n_samples=args.n)
    sys.stdout.write(vf.report_to_csv(reports))
    if args.out:
        vf.write_reports(args.out, args.kind, reports)
    return 0 if vf.all_passed(reports) else 1


# -------------------------------------------------------------------- main

def _at_least(least: int):
    """The argparse type of an int flag of at least ``least``."""
    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}")
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value
    return parse


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
    sa.add_argument("kind", metavar="dist", choices=sorted(SAMPLE_DISTS))
    for flag in _SAMPLE_FLAGS:
        sa.add_argument(f"--{flag}",
                        type=int if flag == "terms" else _finite_float)
    sa.add_argument("-n", type=_at_least(1), default=10)
    # numpy's SeedSequence takes no negative seed
    sa.add_argument("--seed", type=_at_least(0), default=0)
    sa.add_argument("--streams", type=_at_least(1), default=1)
    sa.add_argument("--summary", action="store_true")

    iv = sub.add_parser("invert", help="numerically invert a hitting-law "
                                       "transform into P(T < t)")
    iv.add_argument("kind", choices=_INVERT_CHOICES)
    for flag in _INVERT_FLAGS:
        iv.add_argument(f"--{flag}", type=_finite_float)
    iv.add_argument("--t", type=_float_grid, required=True,
                    help="comma-separated time grid")
    iv.add_argument("--terms", type=int, default=12)

    ve = sub.add_parser("verify", help="run a verification suite")
    ve.add_argument("kind", metavar="suite", choices=vf.SUITE_NAMES)
    ve.add_argument("--alpha", type=_float_grid,
                    help="comma-separated alpha grid")
    ve.add_argument("--seed", type=_at_least(0), default=0)
    ve.add_argument("--n", type=_at_least(1), default=1_000_000)
    ve.add_argument("--out", help="directory for JSON/CSV report files")
    # argparse reads a token that starts with "-" as a flag unless it is a
    # plain negative number, so "--a -2,0.5" and "--x -1e-3" would lose
    # their values; a token of "-" and a digit or "." is the flag's value
    for parser in (ev, sa, iv, ve):
        parser._negative_number_matcher = re.compile(r"-[\d.]")
    return ap


# built on the first call of ``main``, not at import; parsing leaves the
# parser unchanged, so one serves every call in a process
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return {"eval": _cmd_eval, "sample": _cmd_sample, "invert": _cmd_invert,
                "verify": _cmd_verify}[args.command](args)
    except _UsageError as exc:
        print(f"{args.command} {args.kind}: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1
    finally:
        sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
