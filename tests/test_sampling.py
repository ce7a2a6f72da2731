import inspect
import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, special

from stable_hitting import numerics, sampling as smp
from stable_hitting.errors import (DomainError, NumericInstability,
                                   TableBuildError)
from stable_hitting.hitting_laws import HittingQuery, lt_hit_point
from stable_hitting.distributions import alpha_cauchy_density
from stable_hitting.numerics import _invert_cdf_rows, laplace_invert_cdf
from stable_hitting.sampling import (_SERIES_BLOCK, RandomStream, SampleStats,
                                     gamma_series_coefficient,
                                     gamma_series_tail_gamma,
                                     gamma_series_tail_mean, ks_distance,
                                     sample_alpha_cauchy,
                                     sample_alpha_rayleigh,
                                     sample_bernoulli_sign, sample_beta,
                                     sample_excursion_age_duration,
                                     sample_excursion_at_exp_time,
                                     sample_exponential, sample_from_lt,
                                     sample_gamma,
                                     sample_gamma_series_subordinator,
                                     sample_hitting_time, sample_linnik,
                                     sample_overshoot, sample_sym_stable,
                                     sample_uniform,
                                     sample_unilateral_stable,
                                     sample_size_biased_stable,
                                     tanh_subordinator_lt)

N = 200_000


def within_4se(est, want, draws):
    se = np.std(draws, ddof=1) / math.sqrt(len(draws))
    return abs(est - want) <= 4 * se, se


class TestRandomStream:
    def test_reproducible(self):
        a = sample_gamma(1.5, RandomStream(7, 3), size=10)
        b = sample_gamma(1.5, RandomStream(7, 3), size=10)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = sample_uniform(RandomStream(7, 0), size=10)
        b = sample_uniform(RandomStream(7, 1), size=10)
        assert not np.array_equal(a, b)

    def test_streams_order_independent(self):
        # pre-assigned streams: the draws of one stream do not depend on
        # whether another stream was consumed first
        s0, s1 = RandomStream(9, 0), RandomStream(9, 1)
        first = sample_uniform(s0, size=5)
        _ = sample_uniform(s1, size=1000)
        again = sample_uniform(RandomStream(9, 0), size=5)
        assert np.array_equal(first, again)

    def test_scalar_draws(self):
        assert isinstance(float(sample_exponential(RandomStream(1))), float)


class TestSampleStats:
    def test_stderr_definition(self):
        stats = SampleStats.from_draws(np.arange(10.0))
        assert stats.stderr == pytest.approx(math.sqrt(stats.variance / stats.n))

    def test_draws_past_double_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = SampleStats.from_draws([1.0, math.inf, 2.0])
        assert stats.mean == math.inf
        assert stats.variance == math.inf and stats.stderr == math.inf

    def test_draws_past_double_range_on_both_sides(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = SampleStats.from_draws([1.0, math.inf, -math.inf])
        assert math.isnan(stats.mean) and stats.variance == math.inf

    def test_sums_past_double_range(self):
        # finite draws whose sums pass the double range: a finite mean, and
        # an inf variance, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = SampleStats.from_draws([1.0, 2.0, 1e308, 1e308])
        assert stats.mean == 5e307
        assert stats.variance == math.inf and stats.stderr == math.inf
        # numpy's pairwise sum overflows to inf in one accumulator and -inf
        # in another, a NaN sum of draws whose mean is 0
        draws = np.zeros(16)
        draws[[0, 8]], draws[[1, 9]] = 1e308, -1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = SampleStats.from_draws(draws)
        assert stats.mean == 0.0
        assert stats.variance == math.inf and stats.stderr == math.inf
        # equal draws whose sum overflows have no spread
        stats = SampleStats.from_draws([1e308, 1e308])
        assert stats.mean == 1e308 and stats.variance == 0.0


class TestPrimitives:
    def test_gamma_mean(self):
        for a in (0.3, 2.5):
            draws = sample_gamma(a, RandomStream(11), size=N)
            ok, _ = within_4se(np.mean(draws), a, draws)
            assert ok

    def test_beta_mean(self):
        draws = sample_beta(0.4, 1.7, RandomStream(12), size=N)
        ok, _ = within_4se(np.mean(draws), 0.4 / 2.1, draws)
        assert ok

    def test_sign(self):
        draws = sample_bernoulli_sign(RandomStream(13), size=N)
        assert set(np.unique(draws)) == {-1, 1}

    def test_beta_gamma_splitting_identity(self):
        # (G_a, G'_b) and (B G_{a+b}, (1-B) G_{a+b}) share mixed moments
        a, b = 0.7, 1.4
        s = RandomStream(14)
        g1 = sample_gamma(a, s, size=N)
        g2 = sample_gamma(b, s, size=N)
        bb = sample_beta(a, b, s, size=N)
        gg = sample_gamma(a + b, s, size=N)
        lhs, rhs = g1 * g2, bb * gg * (1 - bb) * gg
        se = math.hypot(np.std(lhs) / math.sqrt(N), np.std(rhs) / math.sqrt(N))
        assert abs(np.mean(lhs) - np.mean(rhs)) <= 4 * se
        for lhs_m, rhs_m, want in ((g1, bb * gg, a), (g2, (1 - bb) * gg, b)):
            se = math.hypot(np.std(lhs_m) / math.sqrt(N), np.std(rhs_m) / math.sqrt(N))
            assert abs(np.mean(lhs_m) - np.mean(rhs_m)) <= 4 * se
            assert abs(np.mean(lhs_m) - want) <= 4 * np.std(lhs_m) / math.sqrt(N)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sample_gamma(0.0, RandomStream(1))
        with pytest.raises(DomainError):
            sample_beta(1.0, -1.0, RandomStream(1))


class TestSymStable:
    def test_alpha_two_variance(self):
        draws = sample_sym_stable(2.0, RandomStream(21), size=N)
        sq = draws ** 2
        ok, _ = within_4se(np.mean(sq), 2.0, sq)
        assert ok

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_empirical_charfn(self, alpha):
        draws = sample_sym_stable(alpha, RandomStream(22), size=N)
        vals = np.cos(draws)  # real part of e^{i theta X} at theta = 1
        ok, _ = within_4se(np.mean(vals), math.exp(-1.0), vals)
        assert ok

    def test_sign_symmetry(self):
        draws = sample_sym_stable(1.5, RandomStream(23), size=N)
        signs = np.sign(draws)
        ok, _ = within_4se(np.mean(signs), 0.0, signs)
        assert ok

    def test_alpha_one_is_cauchy(self):
        draws = sample_sym_stable(1.0, RandomStream(24), size=N)
        d = ks_distance(draws, lambda x: 0.5 + np.arctan(x) / math.pi)
        assert d < 0.005


class TestSmallAlpha:
    """Below alpha of about 0.02 the two factors of the Chambers-Mallows-Stuck
    product overflow or underflow apart, where the log-space form of a draw
    does not; tier-1 runs these under ``error::RuntimeWarning``."""

    @pytest.mark.parametrize("alpha", [1e-4, 0.005, 0.01])
    @pytest.mark.parametrize("linnik", [False, True])
    def test_draws_past_the_product_range(self, alpha, linnik):
        # the draws the product forms and those it gives as NaN, inf or 0
        # alike match 30-digit mpmath for the same u, w and e
        n = 20_000
        stream = RandomStream(5)
        e = stream.rng.standard_exponential(n) if linnik else np.ones(n)
        u = stream.rng.uniform(-0.5 * math.pi, 0.5 * math.pi, n)
        w = stream.rng.standard_exponential(n)
        sampler = sample_linnik if linnik else sample_sym_stable
        draws = sampler(alpha, RandomStream(5), n)
        assert not np.isnan(draws).any()
        assert (np.signbit(draws) == np.signbit(u)).all()
        with np.errstate(all="ignore"):
            product = e ** (1.0 / alpha) * (
                np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
                * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha))
        kept = np.isfinite(product) & (product != 0.0)
        parts = [np.flatnonzero(kept), np.flatnonzero(~kept)]
        assert all(part.size > 0 for part in parts)
        with mp.workdps(30):
            a = mp.mpf(alpha)
            for i in np.concatenate([part[:: max(1, part.size // 25)]
                                     for part in parts]):
                v = mp.mpf(u[i])
                log_abs = (mp.log(abs(mp.sin(a * v))) - mp.log(mp.cos(v)) / a
                           + (1 - a) / a * (mp.log(mp.cos((1 - a) * v))
                                            - mp.log(w[i]))
                           + mp.log(e[i]) / a)
                want = math.copysign(float(mp.exp(log_abs)), u[i])
                # abs=0: approx's default abs=1e-12 would pass any draw
                # below 1e-2 in size
                assert draws[i] == pytest.approx(want, rel=1e-10, abs=0)

    def test_scalar_draws(self):
        # the product gives -inf and NaN at these seeds; the values are
        # 40-digit mpmath's for the same u, w and e
        x = sample_sym_stable(0.005, RandomStream(57))
        y = sample_linnik(0.005, RandomStream(82))
        assert type(x) is np.float64 and type(y) is np.float64
        assert x == pytest.approx(-1.2381659911249122e+79, rel=1e-10)
        assert y == pytest.approx(1.7602024379397282e-81, rel=1e-10)

    @pytest.mark.parametrize("sampler", [sample_sym_stable, sample_linnik])
    def test_index_limit(self, sampler):
        # from 5e-308 down the log-space form gives NaN draws
        limit = smp._STABLE_ALPHA_MIN
        with np.errstate(all="ignore"):
            draws = sampler(limit, RandomStream(3), 10_000)
        assert not np.isnan(draws).any()
        for alpha in (math.nextafter(limit, 0.0), 1e-308, 5e-324):
            with pytest.raises(DomainError, match="is below 1e-300"):
                sampler(alpha, RandomStream(3), 3)


class TestUnilateralStable:
    @pytest.mark.parametrize("beta", [0.5, 0.6, 0.75, 0.9])
    def test_laplace_transform(self, beta):
        draws = sample_unilateral_stable(beta, RandomStream(31), size=N)
        vals = np.exp(-draws)
        ok, _ = within_4se(np.mean(vals), math.exp(-1.0), vals)
        assert ok

    def test_half_index_at_lambda_four(self):
        draws = sample_unilateral_stable(0.5, RandomStream(32), size=N)
        vals = np.exp(-4.0 * draws)
        ok, _ = within_4se(np.mean(vals), math.exp(-2.0), vals)
        assert ok

    def test_positive(self):
        draws = sample_unilateral_stable(0.75, RandomStream(33), size=1000)
        assert np.all(draws > 0)


class TestSizeBiasedStable:
    def test_half_index_closed_form(self):
        # tilting T_{1/2} by t^{-1/2} gives exactly the law of 1/(4 E),
        # whose CDF is e^{-1/(4t)}
        draws = sample_size_biased_stable(0.5, RandomStream(41), size=N)
        d = ks_distance(draws, lambda t: np.exp(-1.0 / (4.0 * t)))
        assert d < 0.005

    def test_size_bias_identity(self):
        # E[f(T')] = E[T^{-1/2} f(T)] / E[T^{-1/2}] for f = e^{-t}
        beta = 0.75
        tilted = sample_size_biased_stable(beta, RandomStream(42), size=N)
        plain = sample_unilateral_stable(beta, RandomStream(43), size=N)
        lhs = np.mean(np.exp(-tilted))
        w = plain ** -0.5
        rhs = np.mean(w * np.exp(-plain)) / np.mean(w)
        assert abs(lhs - rhs) < 0.01

    def test_positive(self):
        draws = sample_size_biased_stable(0.6, RandomStream(44), size=1000)
        assert np.all(draws > 0)

    def test_index_limit(self):
        # below the limit the acceptance would fall to 0 and the loop not end
        limit = smp._SIZE_BIASED_BETA_MIN
        assert sample_size_biased_stable(limit, RandomStream(46), size=3).shape == (3,)
        for beta in (math.nextafter(limit, 0.0), 1e-300):
            with pytest.raises(DomainError, match="is below 1e-12"):
                sample_size_biased_stable(beta, RandomStream(46), size=3)
        assert sample_alpha_rayleigh(2.0 * limit, RandomStream(46), size=3).shape == (3,)
        with pytest.raises(DomainError, match="beta = 5e-301 is below 1e-12"):
            sample_alpha_rayleigh(1e-300, RandomStream(46), size=3)

    @pytest.mark.parametrize("beta", [0.3, 0.75, 0.95, 0.995])
    def test_negative_moments(self, beta):
        # E[T'^q] = Gamma(3/2) Gamma(1 + 1/(2b) - q/b)
        #           / (Gamma(3/2 - q) Gamma(1 + 1/(2b))), from E[T^{-p}]
        #           = Gamma(1 + p/b) / Gamma(1 + p) for the one-sided stable
        draws = sample_size_biased_stable(beta, RandomStream(45), size=N)
        for q in (-1.0, -0.5):
            want = (special.gamma(1.5) * special.gamma(1 + 0.5 / beta - q / beta)
                    / (special.gamma(1.5 - q) * special.gamma(1 + 0.5 / beta)))
            vals = draws ** q
            ok, se = within_4se(np.mean(vals), want, vals)
            assert ok, (q, np.mean(vals), want, se)


class TestAlphaCauchy:
    def test_standard_cauchy(self):
        draws = sample_alpha_cauchy(2.0, RandomStream(51), size=N)
        assert abs(np.median(draws)) < 0.01
        assert np.mean(draws <= 1.0) == pytest.approx(0.75, abs=0.005)

    def test_ks_vs_quadrature_cdf(self):
        # tail decays like x^{-1.5}: the grid must reach far enough that the
        # clipped mass (~2c x^{-1/2}) is below the KS resolution
        alpha = 1.5
        draws = sample_alpha_cauchy(alpha, RandomStream(52), size=N)
        grid = np.concatenate([-np.geomspace(1e8, 1e-3, 1200), [0.0],
                               np.geomspace(1e-3, 1e8, 1200)])
        dens = np.array([alpha_cauchy_density(alpha, x) for x in grid])
        cdf_grid = np.concatenate([[0.0], np.cumsum(
            0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
        cdf_grid += 0.5 - np.interp(0.0, grid, cdf_grid)  # symmetry anchor
        d = ks_distance(np.clip(draws, grid[0], grid[-1]),
                        lambda x: np.interp(x, grid, cdf_grid))
        assert d < 0.005

    def test_sign_symmetry(self):
        draws = sample_alpha_cauchy(1.5, RandomStream(53), size=N)
        signs = np.sign(draws)
        ok, _ = within_4se(np.mean(signs), 0.0, signs)
        assert ok


class TestAlphaRayleigh:
    def test_gaussian_case(self):
        draws = sample_alpha_rayleigh(2.0, RandomStream(61), size=N)
        d = ks_distance(draws, lambda x: 1.0 - np.exp(-x ** 2 / 4.0))
        assert d < 0.005

    def test_nonnegative(self):
        assert np.all(sample_alpha_rayleigh(1.5, RandomStream(62), size=1000) >= 0)

    def test_survival_near_two(self):
        from stable_hitting.distributions import alpha_rayleigh_survival
        draws = sample_alpha_rayleigh(1.9, RandomStream(64), size=N)
        for x in (0.5, 1.0, 2.0):
            vals = (draws > x).astype(float)
            ok, se = within_4se(np.mean(vals), alpha_rayleigh_survival(1.9, x), vals)
            assert ok, (x, np.mean(vals), se)

    def test_survival_vs_formula(self):
        from stable_hitting.distributions import alpha_rayleigh_survival
        draws = sample_alpha_rayleigh(1.5, RandomStream(63), size=N)
        grid = np.concatenate([[0.0], np.geomspace(1e-2, 2e3, 700)])
        surv = np.array([alpha_rayleigh_survival(1.5, x) for x in grid])
        d = ks_distance(np.clip(draws, 0, grid[-1]),
                        lambda x: np.interp(x, grid, 1.0 - surv))
        assert d < 0.005


class TestRejectionSamplers:
    SAMPLERS = {
        "size_biased": lambda st, size: sample_size_biased_stable(0.75, st, size),
        "alpha_rayleigh": lambda st, size: sample_alpha_rayleigh(1.9, st, size),
        "hitting_time": lambda st, size: sample_hitting_time(1.5, 2.0, st, size),
    }

    @pytest.mark.parametrize("name", SAMPLERS)
    def test_size_shapes(self, name):
        # candidates come in blocks of _SERIES_BLOCK; a size one past that
        # needs a second block
        draw = self.SAMPLERS[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            one = draw(RandomStream(121), None)
            grid = draw(RandomStream(122), (3, 5))
            many = draw(RandomStream(123), _SERIES_BLOCK + 1)
        assert np.ndim(one) == 0 and one > 0
        assert grid.shape == (3, 5) and np.all(grid > 0)
        assert many.shape == (_SERIES_BLOCK + 1,) and np.all(many > 0)
        assert np.all(np.isfinite(many))


class TestLinnik:
    def test_charfn_half(self):
        draws = sample_linnik(1.5, RandomStream(71), size=N)
        vals = np.cos(draws)
        ok, _ = within_4se(np.mean(vals), 0.5, vals)
        assert ok

    def test_alpha_two_is_bilateral_exponential(self):
        draws = sample_linnik(2.0, RandomStream(72), size=N)
        cdf = lambda x: np.where(x < 0, 0.5 * np.exp(x), 1 - 0.5 * np.exp(-x))
        assert ks_distance(draws, cdf) < 0.005

    def test_symmetry(self):
        draws = sample_linnik(1.2, RandomStream(73), size=N)
        signs = np.sign(draws)
        ok, _ = within_4se(np.mean(signs), 0.0, signs)
        assert ok


class TestHittingTime:
    def test_brownian_reduction(self):
        # E[e^{-q T_1}] = e^{-sqrt q} for the alpha = 2 normalization
        draws = sample_hitting_time(2.0, 1.0, RandomStream(81), size=N)
        for q in (0.5, 1.0, 2.0):
            vals = np.exp(-q * draws)
            ok, _ = within_4se(np.mean(vals), math.exp(-math.sqrt(q)), vals)
            assert ok

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
    def test_matches_resolvent_formula(self, q):
        draws = sample_hitting_time(1.5, 1.0, RandomStream(82), size=N)
        vals = np.exp(-q * draws)
        want = lt_hit_point(HittingQuery(1.5, q, a=1.0))
        ok, se = within_4se(np.mean(vals), want, vals)
        assert ok, (np.mean(vals), want, se)

    @pytest.mark.parametrize("alpha", [1.05, 1.9, 1.99])
    def test_matches_resolvent_formula_near_limits(self, alpha):
        draws = sample_hitting_time(alpha, 1.0, RandomStream(85), size=N)
        for q in (0.5, 1.0, 2.0):
            vals = np.exp(-q * draws)
            want = lt_hit_point(HittingQuery(alpha, q, a=1.0))
            ok, se = within_4se(np.mean(vals), want, vals)
            assert ok, (q, np.mean(vals), want, se)

    def test_near_alpha_one_passes_double_range_as_inf(self):
        # P(Y > y) decays like y^{1/alpha - 1}, so at alpha = 1.001 about
        # DBL_MAX^{1/alpha - 1} = 0.49 of the draws pass the double range;
        # they come back as inf, and no numpy warning is raised
        draws = sample_hitting_time(1.001, 1.0, RandomStream(86), size=N)
        assert (draws > 0.0).all()
        share = float(np.mean(np.isinf(draws)))
        want = sys.float_info.max ** (1.0 / 1.001 - 1.0)
        assert abs(share - want) <= 4 * math.sqrt(want * (1 - want) / N), share

    def test_level_scaling(self):
        # T_2 = 2^alpha T_1 in law: the quantiles of T_2, scaled back by
        # 2^alpha, sit at their levels of the inverted CDF of T_1
        alpha = 1.5
        d2 = sample_hitting_time(alpha, 2.0, RandomStream(84), size=N)
        phi = lambda q: lt_hit_point(HittingQuery(alpha, float(q), a=1.0))
        for p in (0.1, 0.25, 0.5, 0.75, 0.9):
            t = float(np.quantile(d2, p)) / 2 ** alpha
            got = laplace_invert_cdf(phi, t)
            assert abs(got - p) <= 1e-3 + 4 * math.sqrt(p * (1 - p) / N), (p, got)


class TestOvershoot:
    def test_brownian_is_zero(self):
        assert sample_overshoot(2.0, 1.0, RandomStream(91)) == 0.0
        assert np.all(sample_overshoot(2.0, 1.0, RandomStream(91), size=3) == 0.0)

    def test_ks_vs_beta_prime(self):
        alpha, a = 1.5, 1.0
        draws = sample_overshoot(alpha, a, RandomStream(92), size=N)
        p, q = 1 - alpha / 2, alpha / 2
        cdf = lambda y: special.betainc(p, q, (y / a) / (1.0 + y / a))
        assert ks_distance(draws, cdf) < 0.005

    def test_linear_level_scaling(self):
        d1 = sample_overshoot(1.5, 1.0, RandomStream(93), size=N)
        d3 = sample_overshoot(1.5, 3.0, RandomStream(93), size=N)
        assert np.allclose(3 * np.quantile(d1, [0.25, 0.5, 0.75]),
                           np.quantile(d3, [0.25, 0.5, 0.75]), rtol=1e-12)


class TestExcursions:
    def test_age_below_duration(self):
        xi, delta = sample_excursion_age_duration(1 / 3, RandomStream(101), size=5000)
        assert np.all(xi <= delta)

    def test_exp_time_marginal_means(self):
        g = 1 / 3
        gg, xi, _ = sample_excursion_at_exp_time(g, RandomStream(102), size=N)
        ok, _ = within_4se(np.mean(gg), g, gg)
        assert ok
        ok, _ = within_4se(np.mean(xi), 1 - g, xi)
        assert ok

    def test_stieltjes_transform_vs_quadrature(self):
        g, (p, q, r) = 0.5, (1.0, 1.0, 1.0)
        xi, delta = sample_excursion_age_duration(g, RandomStream(103), size=N)
        vals = 1.0 / (p + q * xi + r * delta)
        def inner(v):
            fb = v ** (-g) * (1 - v) ** (g - 1) / special.beta(1 - g, g)
            return fb * integrate.quad(
                lambda u: 1.0 / (p + q * v + r * v * u ** (-1.0 / g)), 0, 1)[0]
        want = integrate.quad(inner, 0, 1, points=[0.0, 1.0], limit=200)[0]
        ok, _ = within_4se(np.mean(vals), want, vals)
        assert ok


class TestGammaSeries:
    def test_mean(self):
        a, t = 0.5, 1.0
        draws = sample_gamma_series_subordinator(a, t, RandomStream(111),
                                                 size=50_000)
        want = t * (2 / math.pi ** 2) * special.polygamma(1, a)
        ok, _ = within_4se(np.mean(draws), want, draws)
        assert ok

    def test_exact_product_transform(self):
        # E e^{-lam S} = prod_j (1 + lam c_j)^{-t}
        a, t, lam = 0.5, 1.0, 0.7
        draws = sample_gamma_series_subordinator(a, t, RandomStream(112),
                                                 size=100_000)
        log_prod = -t * sum(math.log1p(lam * gamma_series_coefficient(a, j))
                            for j in range(200_000))
        log_prod -= lam * gamma_series_tail_mean(a, t, 200_000)
        vals = np.exp(-lam * draws)
        ok, _ = within_4se(np.mean(vals), math.exp(log_prod), vals)
        assert ok

    def test_hyperbolic_cosine_law(self):
        # a = 1/2, t = 1: E[e^{-(th^2/2) draw}] = 1/cosh(th)
        draws = sample_gamma_series_subordinator(0.5, 1.0, RandomStream(113),
                                                 size=100_000)
        th = 1.0
        vals = np.exp(-0.5 * th * th * draws)
        ok, _ = within_4se(np.mean(vals), 1 / math.cosh(th), vals)
        assert ok

    def test_logistic_law(self):
        # a = 1, t = 1: E[e^{-(th^2/2) draw}] = th/sinh(th)
        draws = sample_gamma_series_subordinator(1.0, 1.0, RandomStream(114),
                                                 size=100_000)
        th = 1.0
        vals = np.exp(-0.5 * th * th * draws)
        ok, _ = within_4se(np.mean(vals), th / math.sinh(th), vals)
        assert ok

    @pytest.mark.parametrize("a", [0.5, 1.0])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_sampled_law_transform_at_default_terms(self, a, t):
        # the sampled law's transform, prod_{j<N} (1 + lam c_j)^{-t} times
        # e^{-lam shift} (1 + lam theta)^{-k} for the shifted gamma tail,
        # against cosh(z)^{-t} (a = 1/2) and (z/sinh z)^t (a = 1),
        # z = sqrt(2 lam), at 40 digits
        n_terms = smp._SERIES_TERMS
        coef = gamma_series_coefficient(a, np.arange(n_terms))
        shift, k, theta = gamma_series_tail_gamma(a, t, n_terms)
        with mp.workdps(40):
            for lam in np.linspace(0.1, 20.0, 60):
                got = math.exp(-t * math.fsum(np.log1p(lam * coef))
                               - lam * shift - k * math.log1p(lam * theta))
                z = mp.sqrt(2 * mp.mpf(lam))
                want = mp.cosh(z) ** -t if a == 0.5 else (z / mp.sinh(z)) ** t
                assert got == pytest.approx(float(want), rel=0, abs=5e-14)

    @pytest.mark.parametrize("s", [2, 4, 6])
    def test_scaled_zeta(self, s):
        # x^(s-1) zeta(s, x) within a few ulp of 50-digit mpmath, on both
        # sides of the Euler-Maclaurin cut at x = 64 and far past the point
        # where zeta(s, x) underflows
        xs = np.concatenate([np.linspace(1.0, 70.0, 139),
                             np.geomspace(1.0, 1e300, 301)])
        with mp.workdps(50):
            for x in xs:
                want = mp.mpf(x) ** (s - 1) * mp.zeta(s, mp.mpf(x))
                got = smp._scaled_zeta(s, float(x))
                assert abs(got - want) <= 4 * sys.float_info.epsilon * want, x

    @pytest.mark.parametrize("a", [1e-150, 0.5, 1.0, 1e100])
    @pytest.mark.parametrize("t", [1e-3, 1.0, 1e3])
    def test_tail_matches_three_cumulants(self, a, t):
        # shift + k theta, k theta^2 and 2 k theta^3 against the tail's
        # kappa_r = t (r-1)! (2/pi^2)^r zeta(2r, n + a) at 40 digits, in
        # mpmath's exponent range: at a = 1e100 kappa_3 is about 1e-501
        n_terms = smp._SERIES_TERMS
        shift, k, theta = map(mp.mpf, gamma_series_tail_gamma(a, t, n_terms))
        assert shift >= 0
        with mp.workdps(40):
            c, x = 2 / mp.pi ** 2, n_terms + mp.mpf(a)
            kappa = [t * mp.factorial(r - 1) * c ** r * mp.zeta(2 * r, x)
                     for r in (1, 2, 3)]
            got = [shift + k * theta, k * theta ** 2, 2 * k * theta ** 3]
            for g, want in zip(got, kappa):
                assert abs(g - want) <= 1e-14 * want

    @pytest.mark.parametrize("t,n", [(1e-3, 10_000), (1e-2, 200_000)])
    def test_small_time_law(self, t, n):
        # one-sample Kolmogorov distance to the exact C_t CDF,
        # 2^t sum_k (-1)^k (t)_k/k! erfc((2k + t)/sqrt(2x)), under its 1%
        # critical value.  The head grows so that t (n + a) >= 2; a 64-term
        # head, whose tail's shift is a floor with visible C_t mass below
        # it, gave 0.40 at t = 1e-3 and 0.008 at 1e-2
        draws = sample_gamma_series_subordinator(0.5, t, RandomStream(119),
                                                 size=n)

        def cdf(x):
            total = np.zeros_like(x)
            for k in range(60):
                coef = math.exp(special.gammaln(k + t) - special.gammaln(t)
                                - special.gammaln(k + 1))
                total += (-1) ** k * coef * special.erfc(
                    (2 * k + t) / np.sqrt(2 * x))
            return 2 ** t * total

        assert ks_distance(draws, cdf) < 1.63 / math.sqrt(n)

    def test_time_below_the_head_limit_raises(self):
        # below t = 2/(2^20 + a) the head would need more than 2^20 terms;
        # a large a carries a small t with no head past 64 terms
        with pytest.raises(DomainError, match="below 1.91e-06 at a = 0.5"):
            sample_gamma_series_subordinator(0.5, 1e-7, RandomStream(120), 3)
        draws = sample_gamma_series_subordinator(2e7, 1e-7, RandomStream(120), 3)
        assert np.all(np.isfinite(draws)) and np.all(draws > 0)

    def test_tiny_shape_raises(self):
        # below about 3.4e-155 the first coefficient (2/pi^2)/a^2 overflows,
        # with a divide-by-zero RuntimeWarning and inf draws if unchecked
        with pytest.raises(DomainError, match="3.36e-155"):
            sample_gamma_series_subordinator(1e-200, 1.0, RandomStream(116), size=3)
        with pytest.raises(DomainError, match="overflows"):
            sample_gamma_series_subordinator(3e-155, 1.0, RandomStream(116), size=3)
        draws = sample_gamma_series_subordinator(1e-150, 1.0, RandomStream(116), size=3)
        assert np.all(np.isfinite(draws)) and np.all(draws > 0)

    def test_draws_past_the_double_range_are_inf_without_warning(self):
        # just above the shape floor the coefficient is a double, but the
        # draws, of mean about t (2/pi^2)/a^2 = 6.3e308 here, are not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = sample_gamma_series_subordinator(4e-155, 5.0, RandomStream(116), size=3)
        assert np.all(np.isposinf(draws))

    @pytest.mark.parametrize("a,t", [(0.5, 1e28), (0.5, 1e157), (0.5, 1e200),
                                     (0.5, 1e300), (1.0, 1e300), (1e60, 1e300),
                                     (1e100, 1e250), (1e120, 1e300),
                                     (1e156, 1e150)])
    def test_large_time_draws_are_finite(self, a, t):
        # the draws' mean is t (2/pi^2) zeta(2, a): t at a = 1/2 (C_t) and
        # t/3 at a = 1 (S_t), with a relative spread of order t^{-1/2}.  The
        # tail's shape k, about t (64 + a), passes 2^106 from t = 1e30 at
        # a = 1/2, and the double range where t (64 + a) does, and the tail
        # is then drawn as its mean; at (1e156, 1e150), where its scale is
        # subnormal, too.  At (1e120, 1e300) the tail variance is about
        # 1e-62, though zeta(4, 64 + a) underflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = sample_gamma_series_subordinator(a, t, RandomStream(118),
                                                     size=3)
        want = t * (2 / math.pi ** 2) * special.polygamma(1, a)
        assert draws == pytest.approx(np.full(3, want), rel=1e-12, abs=0)

    def test_size_shapes(self):
        stream = RandomStream(115)
        assert isinstance(sample_gamma_series_subordinator(0.5, 1.0, stream),
                          float)
        draws = sample_gamma_series_subordinator(0.5, 1.0, stream, size=(3, 5))
        assert draws.shape == (3, 5)

    def test_size_beyond_one_block(self, monkeypatch):
        # more draws than one block holds: each block is a single row
        monkeypatch.setattr(smp, "_SERIES_BLOCK", 1000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = sample_gamma_series_subordinator(
                1.0, 1.0, RandomStream(116), size=1001)
        assert draws.shape == (1001,)
        assert np.all(draws > 0)
        ok, _ = within_4se(np.mean(draws), 1 / 3, draws)
        assert ok

    def test_one_term(self):
        # the shifted gamma tail matches the tail's first three cumulants,
        # so even a series cut after one term keeps S_1's mean 1/3, variance
        # 2/45 and third cumulant 16/945; a tail fixed at its mean would
        # leave the variance of the first term alone, 7.6% short.  The
        # sampler's draws have the first two moments
        c0 = gamma_series_coefficient(1.0, 0)
        shift, k, theta = gamma_series_tail_gamma(1.0, 1.0, 1)
        assert c0 + shift + k * theta == pytest.approx(1 / 3, rel=1e-14)
        assert c0 * c0 + k * theta * theta == pytest.approx(2 / 45, rel=1e-14)
        assert (2 * c0 ** 3 + 2 * k * theta ** 3
                == pytest.approx(16 / 945, rel=1e-14))
        draws = sample_gamma_series_subordinator(1.0, 1.0, RandomStream(117),
                                                 size=100_000)
        ok, _ = within_4se(np.mean(draws), 1 / 3, draws)
        assert ok
        sq = (draws - 1 / 3) ** 2
        ok, _ = within_4se(np.mean(sq), 2 / 45, sq)
        assert ok


@pytest.mark.parametrize("call", [
    lambda size: sample_alpha_cauchy(1.0000001, RandomStream(1), size),
    lambda size: sample_overshoot(1e-300, 1.0, RandomStream(1), size),
    lambda size: sample_excursion_age_duration(1e-300, RandomStream(1), size),
    lambda size: sample_excursion_at_exp_time(1e-300, RandomStream(1), size),
    lambda size: sample_unilateral_stable(1e-300, RandomStream(1), size),
], ids=["alpha-cauchy", "overshoot", "age-duration", "at-exp-time",
        "unilateral-stable"])
@pytest.mark.parametrize("size", [None, 1000])
def test_past_the_double_range_without_warning(call, size):
    # draws past the double range come back inf or 0, the true value
    # rounded, with no warning and no NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = call(size)
    for part in out if isinstance(out, tuple) else (out,):
        assert not np.isnan(np.asarray(part, dtype=float)).any()


class TestSampleFromLt:
    def test_exponential_law(self):
        phi = lambda q: 1.0 / (1.0 + q)
        draws = sample_from_lt(phi, RandomStream(121), size=100_000)
        assert ks_distance(draws, lambda t: 1 - np.exp(-t)) < 0.005

    def test_tanh_law_mean(self):
        # E[T] = -phi'(0+) by finite difference; 2/3 for tanh(sqrt 2q)/sqrt 2q
        phi = tanh_subordinator_lt(1.0)
        draws = sample_from_lt(phi, RandomStream(122), size=100_000)
        h = 1e-6
        want = (1.0 - float(phi(h))) / h
        assert want == pytest.approx(2 / 3, abs=1e-5)
        ok, _ = within_4se(np.mean(draws), want, draws)
        assert ok

    def test_plain_sqrt_q_variant_mean(self):
        # tanh(sqrt q)/sqrt q is the same law scaled by 1/2; mean 1/3
        phi = lambda q: np.tanh(np.sqrt(q)) / np.sqrt(q)
        draws = sample_from_lt(phi, RandomStream(126), size=50_000)
        ok, _ = within_4se(np.mean(draws), 1 / 3, draws)
        assert ok

    def test_hyperbolic_decomposition(self):
        # the a=1/2 series law must match the independent sum of the tanh
        # and logistic pieces in Laplace transform at lam = 1
        lam = 1.0
        c_draws = sample_gamma_series_subordinator(0.5, 1.0, RandomStream(123),
                                                   size=100_000)
        t_draws = sample_from_lt(tanh_subordinator_lt(1.0), RandomStream(124),
                                 size=100_000)
        s_draws = sample_gamma_series_subordinator(1.0, 1.0, RandomStream(125),
                                                   size=100_000)
        lhs = np.exp(-lam * c_draws)
        rhs = np.exp(-lam * (t_draws + s_draws))
        se = math.hypot(np.std(lhs) / math.sqrt(lhs.size),
                        np.std(rhs) / math.sqrt(rhs.size))
        assert abs(np.mean(lhs) - np.mean(rhs)) <= 4 * se + 1e-3


def _exponential_lt(q):
    return 1.0 / (1.0 + q)


# (label, transform); the table and bracket rows must equal the scalar
# inversions bit for bit on each
LT_LAWS = [("exponential", _exponential_lt)] + [
    (f"tanh-{t}", tanh_subordinator_lt(t)) for t in (0.7, 1.0, 1.37, 2.0)]


def _scalar_bracket(phi, n_terms):
    """The quantile bracket of ``sample_from_lt`` as a walk that inverts one
    ladder point at a time."""
    t_lo = t_hi = 1.0
    while laplace_invert_cdf(phi, t_lo, n_terms) > 1e-5:
        t_lo /= 4.0
    while laplace_invert_cdf(phi, t_hi, n_terms) < 1.0 - 1e-5:
        t_hi *= 4.0
    return t_lo, t_hi


class TestLtTable:
    # the table and the bracket hold no term count of their own: at the
    # count numerics names, 12 or another, they equal the scalar inversions
    @pytest.mark.parametrize("n_terms", [12, 16])
    @pytest.mark.parametrize("label,phi", LT_LAWS, ids=[c[0] for c in LT_LAWS])
    def test_rows_equal_scalar_inversion(self, label, phi, n_terms,
                                         monkeypatch):
        monkeypatch.setattr(numerics, "_TERMS", n_terms)
        t_lo, t_hi = smp._bracket_quantiles(phi)
        grid = np.geomspace(t_lo, t_hi, smp._LT_TABLE_SIZE)
        want = np.array([laplace_invert_cdf(phi, t, n_terms) for t in grid])
        assert np.array_equal(_invert_cdf_rows(phi, grid), want)
        log_grid, probs = smp._lt_table(phi)
        assert np.array_equal(log_grid, np.log(grid))
        assert np.array_equal(probs, np.maximum.accumulate(want))

    @pytest.mark.parametrize("n_terms", [12, 16])
    @pytest.mark.parametrize(
        "label,phi", LT_LAWS + [("tanh-0.5", tanh_subordinator_lt(0.5))],
        ids=[c[0] for c in LT_LAWS] + ["tanh-0.5"])
    def test_bracket_equals_scalar_walk(self, label, phi, n_terms,
                                        monkeypatch):
        monkeypatch.setattr(numerics, "_TERMS", n_terms)
        assert smp._bracket_quantiles(phi) == _scalar_bracket(phi, n_terms)

    def test_long_lower_walk_spans_blocks(self):
        # at t = 0.5 the lower walk takes 35 steps, to 4^-34 = 3.4e-21
        t_lo, _ = smp._bracket_quantiles(tanh_subordinator_lt(0.5))
        assert t_lo == 4.0 ** -34
        assert 34 > 2 * smp._BRACKET_BLOCK

    def test_first_draws_pinned(self):
        draws = sample_from_lt(tanh_subordinator_lt(1.37), RandomStream(7), 5)
        assert draws.tolist() == [1.5001793308129925, 0.02382894574253509,
                                  0.836684274350425, 1.8953839626036357,
                                  1.2289283315255155]

    def test_rows_past_the_crossing_are_not_checked(self):
        # nan beyond q = 1e13: the lower walk of the tanh law at t = 1
        # crosses at 4^-17, and the nan rows from 4^-21 on share its block
        tanh = tanh_subordinator_lt(1.0)
        phi = lambda q: np.where(q > 1e13, np.nan, tanh(q))
        block = np.ldexp(1.0, -2 * np.arange(smp._BRACKET_BLOCK,
                                             2 * smp._BRACKET_BLOCK))
        with pytest.raises(NumericInstability, match="non-finite"):
            _invert_cdf_rows(phi, block)
        draws = sample_from_lt(phi, RandomStream(3), 1000)
        assert np.array_equal(
            draws, sample_from_lt(tanh, RandomStream(3), 1000))

    def test_transform_overflow_past_the_bracket_is_silenced(self):
        # exit times of [-1, 1] at scales 1 and 1e-6, half each: cosh
        # overflows at the far nodes of both the bracket walk and the table
        def phi(q):
            return (0.5 / np.cosh(np.sqrt(2.0 * q))
                    + 0.5 / np.cosh(np.sqrt(2e-6 * q)))

        with np.errstate(over="raise"):
            draws = sample_from_lt(phi, RandomStream(3), 1000)
        assert np.isfinite(draws).all()
        assert abs(np.mean(draws < 1e-3) - 0.5) < 0.1

    @pytest.mark.parametrize("bump,match", [(50.0, "terms differ"),
                                            (np.nan, "non-finite")])
    def test_failing_table_row_raises(self, bump, match):
        # a valid transform, except on the last node of table row 200
        def phi(q):
            out = _exponential_lt(q)
            if q.shape[0] == smp._LT_TABLE_SIZE:
                out[200, -1] += bump
            return out

        with pytest.raises(NumericInstability, match=match):
            sample_from_lt(phi, RandomStream(3), 10)

    def test_non_monotone_table_raises(self):
        # the CDF 1 - e^{-t} + e^{-t/5} - e^{-t/10} falls from 0.762 near
        # t = 3.6 to 0.749 near t = 6.7 before it rises to 1
        def phi(q):
            return 1.0 / (1.0 + q) + 0.1 / (0.1 + q) - 0.2 / (0.2 + q)

        with pytest.raises(TableBuildError, match="not monotone"):
            sample_from_lt(phi, RandomStream(3), 10)

    @pytest.mark.parametrize("n_terms", [math.nan, 12.5, 13, 2])
    def test_bad_n_terms_raises_before_phi(self, n_terms):
        # no term count is taken, of any value
        def phi(q):
            raise AssertionError("phi called")

        with pytest.raises(TypeError, match="n_terms"):
            sample_from_lt(phi, RandomStream(3), 10, n_terms=n_terms)


def test_signatures_take_no_term_count():
    # as the CLI's option strings are pinned: a term count that comes back
    # to a sampler, or leaves laplace_invert_cdf, shows here
    got = {fn.__name__: str(inspect.signature(fn)) for fn in (
        sample_from_lt, sample_gamma_series_subordinator, laplace_invert_cdf)}
    assert got == {
        "sample_from_lt": "(phi, stream: 'RandomStream', size=None)",
        "sample_gamma_series_subordinator":
            "(a: 'float', t: 'float', stream: 'RandomStream', size=None)",
        "laplace_invert_cdf":
            "(phi, t: 'float', n_terms: 'int' = 12) -> 'float'",
    }
    # sample_from_lt's refusal is test_bad_n_terms_raises_before_phi
    with pytest.raises(TypeError, match="n_terms"):
        sample_gamma_series_subordinator(1.0, 1.0, RandomStream(3), 10,
                                         n_terms=256)
