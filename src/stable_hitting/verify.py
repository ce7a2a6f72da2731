"""Cross-check executive: every formula-vs-oracle, formula-vs-formula and
formula-vs-Monte-Carlo comparison is packaged into named suites that emit
machine-readable reports.

Each suite yields one report a check and never stops at a failing one, so
one quadrature regression cannot mask another.  Monte Carlo checks use 4
standard errors (two-sided false-alarm rate about 6e-5 per check) or a KS
distance of 0.002 at N = 1e6; each check draws from its own (seed,
check-index) stream so reruns are bitwise reproducible.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import distributions as dist
from . import hitting_laws as hl
from . import sampling as smp
from .errors import DomainError, UnknownSuite, _alpha
from .numerics import _invert_cdf_rows, laplace_invert_cdf
from .resolvent import (one_minus_cos_integral, potential_kernel,
                        potential_kernel_at_one, resolvent_density,
                        transition_density)


@dataclass(frozen=True)
class VerificationReport:
    """One named check: both sides, the tolerance and the verdict."""

    check_id: str
    lhs: float
    rhs: float
    tolerance: float
    passed: bool
    n_samples: Optional[int] = None
    notes: str = ""


def _check(check_id, lhs, rhs, tol, n_samples=None, notes=""):
    """The report of ``lhs`` against ``rhs`` within the absolute ``tol``."""
    lhs, rhs = float(lhs), float(rhs)
    return VerificationReport(
        check_id=check_id, lhs=lhs, rhs=rhs, tolerance=float(tol),
        passed=bool(abs(lhs - rhs) <= tol), n_samples=n_samples, notes=notes)


def _check_mean(check_id, values, want):
    """The mean of the draws ``values`` against ``want``, within 4 standard
    errors."""
    n = values.size
    se = float(np.std(values, ddof=1) / math.sqrt(n))
    return _check(check_id, float(np.mean(values)), want, 4 * se,
                  n_samples=n, notes=f"stderr={se:.3e}")


def _alphas(idx_grid, default):
    return [_alpha(a) for a in idx_grid or default]


# ------------------------------------------------------------------- suites

def _suite_brownian_oracle(idx_grid, seed, n_samples):
    """alpha = 2 closed forms: Gaussian resolvent and the six

    hyperbolic hitting/last-exit transforms, all to 1e-8."""
    del idx_grid, seed, n_samples
    tol = 1e-8
    al = 2.0
    for q in (0.25, 1.0, 4.0):
        rq = math.sqrt(q)
        for x in (0.0, 0.5, 1.0, 2.0):
            yield _check(f"resolvent/q={q}/x={x}",
                         resolvent_density(al, q, x),
                         math.exp(-rq * x) / (2 * rq), tol)
        for a in (0.5, 1.0, 2.0):
            z = rq * a
            yield _check(f"lt_hit/q={q}/a={a}",
                         hl.lt_hit_point(hl.HittingQuery(al, q, a=a)),
                         math.exp(-z), tol)
            yield _check(f"lt_last_exit/q={q}/a={a}",
                         hl.lt_last_exit(al, q, a),
                         (1 - math.exp(-2 * z)) / (2 * z), tol)
            yield _check(f"lt_post_exit/q={q}/a={a}",
                         hl.lt_post_exit(al, q, a), z / math.sinh(z), tol)
            yield _check(f"lt_hit_abs/q={q}/a={a}",
                         hl.lt_hit_abs(al, q, a), 1 / math.cosh(z), tol)
            yield _check(f"lt_last_exit_abs/q={q}/a={a}",
                         hl.lt_last_exit_abs(al, q, a), math.tanh(z) / z, tol)
            yield _check(f"lt_post_exit_abs/q={q}/a={a}",
                         hl.lt_post_exit_abs(al, q, a), z / math.sinh(z), tol)
    for t, x in ((0.5, 0.0), (1.0, 0.7), (2.0, 1.5)):
        yield _check(
            f"density/t={t}/x={x}", transition_density(al, t, x),
            math.exp(-x * x / (4 * t)) / (2 * math.sqrt(math.pi * t)), tol)
    yield _check("potential_kernel/x=3", potential_kernel(al, 3.0), 1.5, tol)


def _suite_formula_algebra(idx_grid, seed, n_samples):
    """Product/sum/chain rules, the leg-decomposition gap, the series
    bracket and scale invariance, over an (alpha, q, a) grid."""
    del seed, n_samples
    for al in _alphas(idx_grid, (1.2, 1.5, 1.8, 2.0)):
        for q in (0.5, 1.0, 2.0):
            for a in (0.5, 1.0, 2.0):
                tag = f"alpha={al}/q={q}/a={a}"
                yield _check(
                    f"product_point/{tag}",
                    hl.lt_last_exit(al, q, a) * hl.lt_post_exit(al, q, a),
                    hl.lt_hit_point(hl.HittingQuery(al, q, a=a)), 1e-12)
                yield _check(
                    f"product_abs/{tag}",
                    hl.lt_last_exit_abs(al, q, a)
                    * hl.lt_post_exit_abs(al, q, a),
                    hl.lt_hit_abs(al, q, a), 1e-12)
                for c in (0.5, 3.0):
                    yield _check(f"scale_c={c}/{tag}",
                                 hl.lt_hit_abs(al, q, a),
                                 hl.lt_hit_abs(al, q / c ** al, c * a), 1e-9)
        # two-route agreement for D_n plus its sign
        for n in range(1, 11):
            gap = hl.leg_decomposition_gap(al, 1.0, 1.0, n)
            if al < 2.0:
                yield _check(f"dn_positive/alpha={al}/n={n}",
                             min(gap, 0.0), 0.0, 0.0,
                             notes=f"D_n={gap:.3e}")
            else:
                yield _check(f"dn_zero/alpha={al}/n={n}", gap, 0.0, 1e-12)
        target = hl.lt_hit_abs(al, 1.0, 1.0)
        ok = True
        for n in range(2, 51):
            _, (lo, hi) = hl.lt_hit_abs_series(al, 1.0, 1.0, n)
            ok = ok and (lo - 1e-13 <= target <= hi + 1e-13)
        yield _check(f"series_bracket/alpha={al}", float(ok), 1.0, 0.0)


def _suite_mc_vs_formula(idx_grid, seed, n_samples):
    """Monte Carlo of the hitting-time sampler against the resolvent ratio."""
    for i, al in enumerate(_alphas(idx_grid, (1.2, 1.5, 1.8))):
        stream = smp.RandomStream(seed, i)
        draws = smp.sample_hitting_time(al, 1.0, stream, size=n_samples)
        for q in (0.5, 1.0, 2.0):
            yield _check_mean(f"hit_mc/alpha={al}/q={q}",
                              np.exp(-q * draws),
                              hl.lt_hit_point(hl.HittingQuery(al, q, a=1.0)))


def _suite_relation_r(idx_grid, seed, n_samples):
    """alpha-Cauchy char-fn against the Linnik density times
    alpha sin(pi/alpha)."""
    del seed, n_samples
    for al in _alphas(idx_grid, (1.25, 1.5, 1.8)):
        const = dist.relation_r_constant(al)
        for theta in (0.25, 0.5, 1.0, 2.0, 4.0):
            yield _check(f"relation_r/alpha={al}/theta={theta}",
                         dist.alpha_cauchy_charfn(al, theta),
                         const * dist.linnik_density(al, theta), 1e-6)


def _stieltjes_reference(p, q, r, g):
    """E[1/(p + q B + r B U^{-1/g})] by quadrature over B.

    The integral over U is closed: with A = p + q v and C = r v,
    int_0^1 du / (A + C u^{-1/g}) = (1 - 2F1(1, g; 1 + g; -A/C)) / A."""
    from scipy import integrate, special

    def inner(v):
        fb = v ** (-g) * (1 - v) ** (g - 1) / special.beta(1 - g, g)
        big = p + q * v
        return fb * (1.0 - special.hyp2f1(1.0, g, 1.0 + g, -big / (r * v))) / big
    return integrate.quad(inner, 0, 1, points=[0.0, 1.0], limit=200)[0]


def _suite_excursion(idx_grid, seed, n_samples):
    """Age/duration of the straddling excursion: Stieltjes transform against
    quadrature, and the exponential-time triplet marginals."""
    del idx_grid
    for i, g in enumerate((1.0 / 3.0, 0.5)):
        stream = smp.RandomStream(seed, 100 + i)
        xi, delta = smp.sample_excursion_age_duration(g, stream, size=n_samples)
        for p, q, r in ((1.0, 1.0, 1.0), (2.0, 1.0, 0.5)):
            yield _check_mean(
                f"stieltjes/gamma={g:.4f}/pqr={p},{q},{r}",
                1.0 / (p + q * xi + r * delta),
                _stieltjes_reference(p, q, r, g))
        stream = smp.RandomStream(seed, 200 + i)
        gg, age, _ = smp.sample_excursion_at_exp_time(g, stream, size=n_samples)
        for name, draws, want in (("last_zero", gg, g), ("age", age, 1 - g)):
            yield _check_mean(f"exp_triplet_mean/{name}/gamma={g:.4f}", draws,
                              want)


def _suite_appendix(idx_grid, seed, n_samples):
    """Quadrature of (1/pi) int (1-cos x)/x^a dx against the closed form."""
    del idx_grid, seed, n_samples
    for alpha in (1.1, 1.5, 2.0, 2.5, 2.9):
        yield _check(f"appendix/alpha={alpha}",
                     one_minus_cos_integral(alpha),
                     potential_kernel_at_one(alpha), 1e-8)


def _suite_inversion(idx_grid, seed, n_samples):
    """Gaver-Stehfest inversion: exponential oracle, and the hitting-time CDF
    against empirical quantiles of the exact sampler."""
    del idx_grid
    phi = lambda q: 1.0 / (1.0 + q)
    worst = max(abs(laplace_invert_cdf(phi, float(t), n_terms=20)
                    - (1 - math.exp(-t)))
                for t in np.arange(0.1, 5.01, 0.1))
    yield _check("exponential_cdf/n_terms=20", worst, 0.0, 1e-6,
                 notes="max abs error over t in 0.1..5")
    al = 1.5
    stream = smp.RandomStream(seed, 300)
    n = n_samples
    draws = np.sort(smp.sample_hitting_time(al, 1.0, stream, size=n))
    ps = (0.10, 0.25, 0.50, 0.75, 0.90)
    ts = [float(draws[min(int(p * n), n - 1)]) for p in ps]
    # one law call on all the nodes; each value is laplace_invert_cdf's at its t
    cdf = _invert_cdf_rows(lambda q: hl.lt_hit_point(
        hl.HittingQuery(al, q.astype(float), a=1.0)), ts)
    for p, t_emp, inverted in zip(ps, ts, cdf.tolist()):
        noise = math.sqrt(p * (1 - p) / n)
        yield _check(f"hit_cdf_quantile/p={p}", inverted, p,
                     1e-3 + 3 * noise, n_samples=n,
                     notes=f"t={t_emp:.5f}")


_SUITES = {
    "brownian_oracle": _suite_brownian_oracle,
    "formula_algebra": _suite_formula_algebra,
    "mc_vs_formula": _suite_mc_vs_formula,
    "relation_R": _suite_relation_r,
    "excursion": _suite_excursion,
    "appendix": _suite_appendix,
    "inversion": _suite_inversion,
}

SUITE_NAMES = tuple(_SUITES)

# the suites that compare a sample of n_samples draws with a formula
_MONTE_CARLO = frozenset({"mc_vs_formula", "excursion", "inversion"})

# the suites that run over an alpha grid, ``idx_grid``; the others ignore it
_ALPHA_GRID = frozenset({"formula_algebra", "mc_vs_formula", "relation_R"})


def run_suite(suite_name: str, idx_grid=None, seed: int = 0,
              n_samples: int = 1_000_000) -> list[VerificationReport]:
    """Run every check of a named suite; failures collect, never abort.
    A Monte Carlo suite needs n_samples >= 2 for a standard error."""
    try:
        fn = _SUITES[suite_name]
    except KeyError:
        raise UnknownSuite(
            f"unknown suite {suite_name!r}; choose from {', '.join(_SUITES)}")
    if suite_name in _MONTE_CARLO and not n_samples >= 2:
        raise DomainError(
            f"n={n_samples}: the {suite_name} suite needs at least 2 draws")
    return list(fn(idx_grid, seed, n_samples))


# ------------------------------------------------------------------ reports

_FIELDS = ("check_id", "lhs", "rhs", "tolerance", "pass", "n_samples", "notes")


def _cells(r: VerificationReport) -> tuple:
    """The report's cells in ``_FIELDS`` order: floats at 17 significant
    digits, the verdict as true/false, no sample count as ''."""
    return (r.check_id,
            *(format(float(x), ".17g") for x in (r.lhs, r.rhs, r.tolerance)),
            "true" if r.passed else "false",
            "" if r.n_samples is None else str(r.n_samples), r.notes)


def report_to_json(reports) -> str:
    """One object a line, in ``_FIELDS`` order: the two text cells quoted,
    an empty cell of another field as null."""
    rows = ("{" + ", ".join(
        f"\"{k}\": "
        f"{json.dumps(c) if k in ('check_id', 'notes') else c or 'null'}"
        for k, c in zip(_FIELDS, _cells(r))) + "}" for r in reports)
    return "[" + ",\n ".join(rows) + "]"


def report_to_csv(reports) -> str:
    """A header of ``_FIELDS``, then one row a report."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_FIELDS)
    writer.writerows(map(_cells, reports))
    return out.getvalue()


def write_reports(out, suite: str, reports) -> None:
    """``reports`` as ``<suite>.json`` and ``<suite>.csv`` in the directory
    ``out``, which is made if it is missing."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{suite}.json").write_text(report_to_json(reports))
    (out / f"{suite}.csv").write_text(report_to_csv(reports))


def all_passed(reports) -> bool:
    return all(r.passed for r in reports)
