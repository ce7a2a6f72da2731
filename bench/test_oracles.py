"""The oracles against the Brownian closed forms at alpha = 2.

    python3 -m pytest bench/test_oracles.py

At alpha = 2 the process is sqrt(2) B, so E e^{-q T_a} = e^{-sqrt(q)|a|} and
P(T_a < t) = erfc(|a| / (2 sqrt t)).  The transforms are rebuilt from u_1 by
the same formulas the benchmark uses for 1 < alpha < 2, so these tests pin
the formulas; the rotated u_1 integral itself is pinned by its alpha -> 2
limit and by its own closed form at w = 0.
"""

import math

import numpy as np
import pytest
from scipy import integrate

import oracles as O

QS = (0.25, 1.0, 4.0)
AS = (0.5, 1.0, 2.0)


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("a", AS)
def test_hitting_transforms_match_brownian_forms(q, a):
    z = math.sqrt(q) * a
    assert O.lt_hit_point(2.0, q, a) == pytest.approx(math.exp(-z), rel=1e-12)
    assert O.lt_last_exit(2.0, q, a) == pytest.approx(
        (1 - math.exp(-2 * z)) / (2 * z), rel=1e-12)
    assert O.lt_post_exit(2.0, q, a) == pytest.approx(z / math.sinh(z), rel=1e-12)
    assert O.lt_hit_abs(2.0, q, a) == pytest.approx(1 / math.cosh(z), rel=1e-12)
    assert O.lt_last_exit_abs(2.0, q, a) == pytest.approx(math.tanh(z) / z, rel=1e-12)
    assert O.lt_post_exit_abs(2.0, q, a) == pytest.approx(z / math.sinh(z), rel=1e-12)


@pytest.mark.parametrize("q", QS)
def test_two_and_three_point_transforms_at_alpha_2(q):
    # started between the targets, Brownian paths cannot jump over one
    rq = math.sqrt(q)
    x, a, b = 0.3, 1.0, -0.5
    # E[e^{-q T_a}; T_a < T_b] for Brownian motion with generator d^2/dx^2
    want = math.sinh(rq * (x - b)) / math.sinh(rq * (a - b))
    assert O.lt_hit_before(2.0, q, x, a, b) == pytest.approx(want, rel=1e-12)
    # from x in (0, a) the set {0, a, -a} is reached at 0 or at a
    want3 = (math.sinh(rq * x) + math.sinh(rq * (a - x))) / math.sinh(rq * a)
    assert O.lt_hit_three(2.0, q, x, a) == pytest.approx(want3, rel=1e-12)


def test_u1_rotated_integral_tends_to_the_gaussian_resolvent():
    for w in (0.5, 1.0, 3.0):
        assert O.u1(1.999, w) == pytest.approx(math.exp(-w) / 2, rel=5e-3)


def test_u1_near_zero_meets_closed_form_minus_potential_kernel():
    # u_1(0) - u_1(w) -> h(w) as w -> 0: ties the rotated integral to the
    # closed form at w = 0
    w = 1e-6
    for alpha in (1.1, 1.5, 1.9):
        assert O.u1(alpha, 0.0) - O.u1(alpha, w) == pytest.approx(
            O.h(alpha, w), rel=1e-3)


def test_p1_is_the_gaussian_density_of_sqrt2_b():
    for x in (0.0, 0.7, 2.5):
        assert O.p1(2.0, x) == pytest.approx(
            math.exp(-x * x / 4) / (2 * math.sqrt(math.pi)), rel=1e-9)


@pytest.mark.parametrize("a", (0.5, 2.0))
@pytest.mark.parametrize("t", (0.1, 1.0, 10.0))
def test_hitting_cdf_matches_erfc(a, t):
    assert O.hitting_cdf(2.0, a, t) == pytest.approx(
        math.erfc(a / (2 * math.sqrt(t))), abs=1e-8)


def test_meixner_is_the_hyperbolic_secant_law_at_t1_beta0():
    for x in (0.0, 0.4, 1.5):
        assert O.meixner_density(0.0, 1.0, x) == pytest.approx(
            1 / math.cosh(math.pi * x), rel=1e-12)


def test_meixner_density_integrates_to_one():
    total = integrate.quad(lambda x: O.meixner_density(0.7, 1.3, x), -40, 40,
                           limit=200)[0]
    assert total == pytest.approx(1.0, abs=1e-9)


def test_monte_carlo_closed_forms_at_alpha_2():
    # X(1) = sqrt(2) N and the Linnik law is X at an exponential time
    for th in (0.5, 1.0, 2.0):
        gauss = integrate.quad(lambda x: math.cos(th * x) * O.p1(2.0, x),
                               -30, 30, limit=200)[0]
        assert O.stable_cos_mean(2.0, th) == pytest.approx(gauss, abs=1e-9)
        linnik = integrate.quad(lambda s: math.exp(-s) * math.exp(-s * th * th),
                                0, np.inf)[0]
        assert O.linnik_cos_mean(2.0, th) == pytest.approx(linnik, rel=1e-9)


def test_series_laws_match_their_products():
    # (2/pi^2) sum_j Gamma_j(t) / (j + a)^2 has E e^{-lam S} equal to the
    # product of (1 + 2 lam / (pi^2 (j + a)^2))^{-t}
    for a in (0.5, 1.0):
        for lam in (0.5, 2.0):
            j = np.arange(200_000)
            log_prod = -np.sum(np.log1p(2 * lam / (math.pi ** 2 * (j + a) ** 2)))
            assert O.gamma_series_lt(a, 1.0, lam) == pytest.approx(
                math.exp(log_prod), rel=1e-5)
    # tanh law = the cosh law divided by the sinh law
    for lam in (0.5, 2.0):
        assert O.tanh_lt(1.0, lam) == pytest.approx(
            O.gamma_series_lt(0.5, 1.0, lam) / O.gamma_series_lt(1.0, 1.0, lam),
            rel=1e-12)


def test_excursion_forms_match_quadrature():
    for g in (1 / 3, 0.5, 2 / 3):
        fb = lambda b: b ** -g * (1 - b) ** (g - 1) / (
            math.gamma(1 - g) * math.gamma(g))
        mean = integrate.quad(lambda b: b * fb(b), 0, 1)[0]
        assert O.excursion_age_mean(g) == pytest.approx(mean, rel=1e-8)
        # P(B U^{-1/g} <= 1) = P(U >= B^g) = E[1 - B^g]
        p = integrate.quad(lambda b: (1 - b ** g) * fb(b), 0, 1)[0]
        assert O.excursion_duration_le_one(g) == pytest.approx(p, rel=1e-8)
