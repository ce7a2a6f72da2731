"""Acceptance criteria, one test per criterion, each printing a PASS line
with its worst observed deviation.  Tolerances are fixed here, not tuned."""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from stable_hitting.distributions import (alpha_cauchy_charfn,
                                          alpha_cauchy_density,
                                          alpha_rayleigh_survival,
                                          beta_prime_density, linnik_density,
                                          meixner_density,
                                          relation_r_constant, z_density)
from stable_hitting.hitting_laws import (HittingQuery, leg_decomposition_gap,
                                         lt_hit_abs, lt_hit_abs_series,
                                         lt_hit_point, lt_last_exit,
                                         lt_last_exit_abs, lt_post_exit,
                                         lt_post_exit_abs)
from stable_hitting.numerics import laplace_invert_cdf
from stable_hitting.resolvent import (one_minus_cos_integral,
                                      potential_kernel_at_one,
                                      resolvent_density, transition_density)
from stable_hitting.sampling import (RandomStream,
                                     gamma_series_tail_variance, ks_distance,
                                     sample_alpha_rayleigh,
                                     sample_excursion_age_duration,
                                     sample_excursion_at_exp_time,
                                     sample_gamma_series_subordinator,
                                     sample_hitting_time)
from stable_hitting.verify import _stieltjes_reference

N_MC = 1_000_000


def _report(criterion, detail):
    print(f"\n[acceptance] {criterion}: PASS ({detail})")


def test_criterion_01_brownian_oracle_suite():
    t0 = time.perf_counter()
    tol, worst = 1e-8, 0.0
    alpha = 2.0
    for q in (0.25, 1.0, 4.0):
        rq = math.sqrt(q)
        for x in (0.0, 0.5, 1.0, 2.0):
            worst = max(worst, abs(resolvent_density(alpha, q, x)
                                   - math.exp(-rq * x) / (2 * rq)))
        for a in (0.5, 1.0, 2.0):
            z = rq * a
            checks = (
                (lt_hit_point(HittingQuery(alpha, q, a=a)), math.exp(-z)),
                (lt_last_exit(alpha, q, a), (1 - math.exp(-2 * z)) / (2 * z)),
                (lt_post_exit(alpha, q, a), z / math.sinh(z)),
                (lt_hit_abs(alpha, q, a), 1 / math.cosh(z)),
                (lt_last_exit_abs(alpha, q, a), math.tanh(z) / z),
                (lt_post_exit_abs(alpha, q, a), z / math.sinh(z)),
            )
            for lhs, rhs in checks:
                worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - t0
    assert worst <= tol
    assert elapsed < 10.0
    _report("criterion 1 brownian oracle",
            f"worst dev {worst:.2e} <= {tol}, runtime {elapsed:.2f}s")


def test_criterion_02_appendix_constant():
    worst = 0.0
    for alpha in (1.1, 1.5, 2.0, 2.5, 2.9):
        dev = abs(one_minus_cos_integral(alpha) - potential_kernel_at_one(alpha))
        worst = max(worst, dev)
    assert worst <= 1e-8
    _report("criterion 2 appendix constant", f"worst dev {worst:.2e} <= 1e-8")


def test_criterion_03_formula_algebra():
    worst_prod, worst_scale = 0.0, 0.0
    for alpha in (1.2, 1.5, 1.8, 2.0):
        for q in (0.5, 1.0, 2.0):
            for a in (0.5, 1.0, 2.0):
                worst_prod = max(worst_prod, abs(
                    lt_last_exit(alpha, q, a) * lt_post_exit(alpha, q, a)
                    - lt_hit_point(HittingQuery(alpha, q, a=a))))
                worst_prod = max(worst_prod, abs(
                    lt_last_exit_abs(alpha, q, a) * lt_post_exit_abs(alpha, q, a)
                    - lt_hit_abs(alpha, q, a)))
                for c in (0.5, 3.0):
                    worst_scale = max(worst_scale, abs(
                        lt_hit_abs(alpha, q, a)
                        - lt_hit_abs(alpha, q / c ** alpha, c * a)))
        # two-route D_n agreement to 1e-9 is asserted inside the call
        for n in range(1, 11):
            gap = leg_decomposition_gap(alpha, 1.0, 1.0, n)
            if alpha < 2.0:
                assert gap > 0.0
            else:
                assert abs(gap) <= 1e-12
        target = lt_hit_abs(alpha, 1.0, 1.0)
        for n in range(2, 51):
            _, (lo, hi) = lt_hit_abs_series(alpha, 1.0, 1.0, n)
            assert lo - 1e-13 <= target <= hi + 1e-13
    assert worst_prod <= 1e-12
    assert worst_scale <= 1e-9
    _report("criterion 3 formula algebra",
            f"product dev {worst_prod:.2e} <= 1e-12, "
            f"scale dev {worst_scale:.2e} <= 1e-9, D_n and bracket ok")


@pytest.mark.parametrize("alpha,stream_id", [(1.2, 0), (1.5, 1), (1.8, 2)])
def test_criterion_04_mc_vs_hitting_formula(alpha, stream_id):
    t0 = time.perf_counter()
    draws = sample_hitting_time(alpha, 1.0, RandomStream(2024, stream_id),
                                size=N_MC)
    worst_ratio = 0.0
    for q in (0.5, 1.0, 2.0):
        vals = np.exp(-q * draws)
        mc = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(N_MC))
        want = lt_hit_point(HittingQuery(alpha, q, a=1.0))
        assert abs(mc - want) <= 4 * se, (alpha, q, mc, want, se)
        worst_ratio = max(worst_ratio, abs(mc - want) / se)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(f"criterion 4 MC vs formula alpha={alpha}",
            f"worst |dev|/stderr {worst_ratio:.2f} <= 4, N={N_MC}, "
            f"runtime {elapsed:.1f}s")


def test_criterion_05_relation_r():
    worst = 0.0
    for alpha in (1.25, 1.5, 1.8):
        const = relation_r_constant(alpha)
        for theta in (0.25, 0.5, 1.0, 2.0, 4.0):
            dev = abs(alpha_cauchy_charfn(alpha, theta)
                      - const * linnik_density(alpha, theta))
            worst = max(worst, dev)
    assert worst <= 1e-6
    _report("criterion 5 relation (R)", f"worst dev {worst:.2e} <= 1e-6")


def test_criterion_06_alpha_rayleigh_ks():
    alpha = 1.5
    draws = sample_alpha_rayleigh(alpha, RandomStream(2025, 0), size=N_MC)
    grid = np.concatenate([[0.0], np.geomspace(1e-3, 2e4, 1400)])
    cdf_grid = 1.0 - np.array([alpha_rayleigh_survival(alpha, float(x))
                               for x in grid])
    cdf_grid = np.maximum.accumulate(cdf_grid)
    d = ks_distance(np.clip(draws, 0.0, grid[-1]),
                    lambda x: np.interp(x, grid, cdf_grid))
    assert d <= 0.002
    _report("criterion 6 alpha-Rayleigh KS", f"KS {d:.5f} <= 0.002 at N={N_MC}")


def test_criterion_07_excursion_durations():
    worst_ratio = 0.0
    for i, g in enumerate((1.0 / 3.0, 0.5)):
        xi, delta = sample_excursion_age_duration(
            g, RandomStream(2026, i), size=N_MC)
        for p, q, r in ((1.0, 1.0, 1.0), (2.0, 1.0, 0.5)):
            vals = 1.0 / (p + q * xi + r * delta)
            mc = float(np.mean(vals))
            se = float(np.std(vals, ddof=1) / math.sqrt(N_MC))
            want = _stieltjes_reference(p, q, r, g)
            assert abs(mc - want) <= 4 * se, (g, p, q, r, mc, want)
            worst_ratio = max(worst_ratio, abs(mc - want) / se)
        gg, age, _ = sample_excursion_at_exp_time(
            g, RandomStream(2027, i), size=N_MC)
        for draws, want in ((gg, g), (age, 1.0 - g)):
            se = float(np.std(draws, ddof=1) / math.sqrt(N_MC))
            assert abs(float(np.mean(draws)) - want) <= 4 * se
    _report("criterion 7 excursion durations",
            f"worst |dev|/stderr {worst_ratio:.2f} <= 4 at N={N_MC}")


def test_criterion_08_laplace_inversion():
    # smooth oracle: the unit exponential law (n_terms flag raised to 20,
    # where the extended-precision inversion reaches 1e-6)
    phi = lambda q: 1.0 / (1.0 + q)
    worst = max(abs(laplace_invert_cdf(phi, float(t), n_terms=20)
                    - (1 - math.exp(-t)))
                for t in np.arange(0.1, 5.01, 0.1))
    assert worst <= 1e-6
    # inverted hitting-time CDF against empirical quantiles of the sampler
    alpha = 1.5
    draws = np.sort(sample_hitting_time(alpha, 1.0, RandomStream(2028, 0),
                                        size=N_MC))
    hit_lt = lambda q: lt_hit_point(HittingQuery(alpha, float(q), a=1.0))
    worst_q = 0.0
    for p in (0.10, 0.25, 0.50, 0.75, 0.90):
        t_emp = float(draws[int(p * N_MC) - 1])
        inverted = laplace_invert_cdf(hit_lt, t_emp, n_terms=12)
        noise = math.sqrt(p * (1 - p) / N_MC)
        assert abs(inverted - p) <= 1e-3 + 3 * noise, (p, inverted)
        worst_q = max(worst_q, abs(inverted - p))
    _report("criterion 8 Laplace inversion",
            f"exp CDF dev {worst:.2e} <= 1e-6, "
            f"quantile dev {worst_q:.2e} <= 1e-3 + 3*KS noise")


def test_criterion_09_gamma_series_laws():
    n_draws, n_terms = 200_000, 2000
    worst_ratio = 0.0
    for i, (a, lt) in enumerate(
            ((0.5, lambda lam: 1 / math.cosh(math.sqrt(2 * lam))),
             (1.0, lambda lam: math.sqrt(2 * lam) / math.sinh(math.sqrt(2 * lam))))):
        draws = sample_gamma_series_subordinator(
            a, 1.0, RandomStream(2029, i), size=n_draws, n_terms=n_terms)
        for lam in (0.5, 1.0):
            vals = np.exp(-lam * draws)
            mc = float(np.mean(vals))
            se = float(np.std(vals, ddof=1) / math.sqrt(n_draws))
            trunc = 0.5 * lam * lam * gamma_series_tail_variance(a, 1.0, n_terms)
            assert abs(mc - lt(lam)) <= 4 * se + trunc, (a, lam, mc, lt(lam))
            worst_ratio = max(worst_ratio, abs(mc - lt(lam)) / se)
    _report("criterion 9 gamma-series laws",
            f"worst |dev|/stderr {worst_ratio:.2f} <= 4 "
            f"(+ truncation bound) at N={n_draws}, terms={n_terms}")


def test_criterion_10_density_normalizations():
    worst = 0.0
    for alpha in (1.2, 1.5, 1.8, 2.0):
        total = 2 * integrate.quad(
            lambda x: transition_density(alpha, 1.0, x), 0, np.inf,
            limit=300)[0]
        worst = max(worst, abs(total - 1.0))
    named = [
        ("beta-prime(0.5,0.5)", integrate.quad(
            lambda x: beta_prime_density(0.5, 0.5, x), 0, np.inf, limit=300)[0]),
        ("beta-prime(2,3)", integrate.quad(
            lambda x: beta_prime_density(2.0, 3.0, x), 0, np.inf, limit=300)[0]),
        ("alpha-cauchy(1.5)", 2 * integrate.quad(
            lambda x: alpha_cauchy_density(1.5, x), 0, np.inf, limit=300)[0]),
        ("alpha-cauchy(3)", 2 * integrate.quad(
            lambda x: alpha_cauchy_density(3.0, x), 0, np.inf, limit=300)[0]),
        ("linnik(1.5)", 2 * integrate.quad(
            lambda x: linnik_density(1.5, x), 0, np.inf, limit=300)[0]),
        ("z(0.5)", 2 * integrate.quad(
            lambda x: z_density(0.5, x), 0, np.inf, limit=300)[0]),
        ("z(2)", 2 * integrate.quad(
            lambda x: z_density(2.0, x), 0, np.inf, limit=300)[0]),
        ("meixner(0,1)", integrate.quad(
            lambda x: meixner_density(0.0, 1.0, x), -25, 25, limit=300)[0]),
        ("meixner(0.5,1)", integrate.quad(
            lambda x: meixner_density(0.5, 1.0, x), -30, 30, limit=300)[0]),
    ]
    for name, total in named:
        assert abs(total - 1.0) <= 1e-6, (name, total)
        worst = max(worst, abs(total - 1.0))
    assert worst <= 1e-6
    _report("criterion 10 density normalizations",
            f"worst |integral - 1| {worst:.2e} <= 1e-6")
