import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stable_hitting import resolvent
from stable_hitting.errors import DomainError, NonConvergence
from stable_hitting.hitting_laws import HittingQuery, lt_hit_point
from stable_hitting.numerics import (integrate_adaptive,
                                     integrate_oscillatory_cos, tolerance)
from stable_hitting.resolvent import (_U1_BLOCK, _p1, _p1_rows, _u1, _u1_rows,
                                      one_minus_cos_integral,
                                      potential_kernel,
                                      potential_kernel_at_one,
                                      resolvent_density, transition_density,
                                      u1_zero)
from stable_hitting.sampling import RandomStream, sample_hitting_time


def u1_rotated(alpha, w):
    """u_1(w), w > 0, at 40 digits: (sin(pi a/2)/pi) int_0^1 [v^a e^{-wv}
    + v^{a-2} e^{-w/v}] / (1 + 2 cos(pi a/2) v^a + v^{2a}) dv, split where
    the cutoff of one of the exponentials sits."""
    with mp.workdps(40):
        a, w = mp.mpf(alpha), mp.mpf(w)
        c, s = mp.cos(mp.pi * a / 2), mp.sin(mp.pi * a / 2)

        def f(v):
            va = v ** a
            return ((va * mp.exp(-w * v) + va / (v * v) * mp.exp(-w / v))
                    / (1 + 2 * c * va + va * va))

        cuts = sorted({min(w, 1 / w), mp.mpf(1)})
        return float(s / mp.pi * mp.quad(f, [0] + cuts))


def p1_power_series(alpha, w):
    """p_1(w) at 40 digits by the power series
    (1/(pi a)) sum_k (-1)^k Gamma((2k+1)/a) w^{2k} / (2k)!, for small w."""
    with mp.workdps(40):
        a, w = mp.mpf(alpha), mp.mpf(w)
        total, k = mp.mpf(0), 0
        while True:
            term = ((-1) ** k * mp.gamma((2 * k + 1) / a) * w ** (2 * k)
                    / mp.factorial(2 * k))
            total += term
            if k > 2 and abs(term) < mp.mpf(10) ** -35 * abs(total):
                return float(total / (mp.pi * a))
            k += 1


def p1_cosine_integral(alpha, w):
    """p_1(w) at 20 digits: (1/pi) int_0^inf cos(w xi) e^{-xi^a} dxi, by
    quad on the first quarter period, where xi^a is not smooth at 0, and
    quadosc between the cosine zeros beyond it."""
    with mp.workdps(20):
        a, w = mp.mpf(alpha), mp.mpf(w)

        def f(x):
            return mp.cos(w * x) * mp.exp(-x ** a)

        z = mp.pi / (2 * w)
        head = mp.quad(f, [0, z])
        tail = mp.quadosc(f, [z, mp.inf],
                          zeros=lambda n: (n + mp.mpf(1) / 2) * mp.pi / w)
        return float((head + tail) / mp.pi)


def p1_asymptotic(alpha, w):
    """p_1(w) for large w at 40 digits by the asymptotic series
    sum_k (-1)^{k+1} Gamma(k a + 1) sin(k pi a/2) / (pi k!) w^{-k a - 1},
    summed while the terms' magnitudes fall."""
    with mp.workdps(40):
        a, w = mp.mpf(alpha), mp.mpf(w)
        total, prev = mp.mpf(0), mp.inf
        for k in range(1, 2000):
            size = mp.gamma(k * a + 1) / mp.factorial(k) * w ** (-k * a - 1)
            if size > prev or size < mp.mpf(10) ** -35 * abs(total):
                break
            total += (-1) ** (k + 1) * size * mp.sin(k * mp.pi * a / 2) / mp.pi
            prev = size
        return float(total)


def p1_convergent_series(alpha, w):
    """p_1(w) for alpha < 1 at 40 digits: the series
    sum_k (-1)^{k+1} Gamma(k a + 1) sin(k pi a/2) / (pi k!) w^{-k a - 1},
    which converges for every w > 0 when a < 1, summed directly over 300
    terms."""
    with mp.workdps(40):
        a, w = mp.mpf(alpha), mp.mpf(w)
        return float(mp.fsum(
            (-1) ** (k + 1) * mp.gamma(k * a + 1) * mp.sin(k * mp.pi * a / 2)
            / (mp.pi * mp.factorial(k)) * w ** (-k * a - 1)
            for k in range(1, 301)))


def p1_small_w_expansion(alpha, w):
    """p_1(w) for alpha < 1 at 40 digits by the small-w expansion
    (1/(pi a)) sum_k (-1)^k Gamma((2k+1)/a) w^{2k} / (2k)!, which diverges
    for a < 1: summed while its terms fall, and used only where the
    smallest term is below 1e-20 of the sum."""
    with mp.workdps(40):
        a, w = mp.mpf(alpha), mp.mpf(w)
        total, prev = mp.mpf(0), mp.inf
        for k in range(5000):
            size = mp.gamma((2 * k + 1) / a) * w ** (2 * k) / mp.factorial(2 * k)
            if size > prev:
                break
            total += (-1) ** k * size
            prev = size
            if size < mp.mpf(10) ** -35 * abs(total):
                break
        assert prev < mp.mpf(10) ** -20 * abs(total), "expansion too coarse"
        return float(total / (mp.pi * a))


def u1_far_field(alpha, w):
    """Leading term Gamma(1 + a) sin(pi a/2) / (pi w^{1+a}) of u_1 at 40 digits."""
    with mp.workdps(40):
        a = mp.mpf(alpha)
        return float(mp.gamma(1 + a) * mp.sin(mp.pi * a / 2)
                     / (mp.pi * mp.mpf(w) ** (1 + a)))


class TestAlphaDomain:
    def test_range(self):
        for alpha in (0.0, 2.5):
            with pytest.raises(DomainError):
                transition_density(alpha, 1.0, 0.5)

    def test_hitting_requires_alpha_above_one(self):
        with pytest.raises(DomainError):
            resolvent_density(0.9, 1.0, 0.5)
        with pytest.raises(DomainError):
            resolvent_density(1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            lt_hit_point(HittingQuery(0.9, 1.0))
        with pytest.raises(DomainError):
            sample_hitting_time(0.9, 1.0, RandomStream(0), size=3)


class TestTransitionDensity:
    def test_gaussian_at_zero(self):
        # p_1(0) = 1/(2 sqrt(pi)) for alpha = 2
        assert transition_density(2.0, 1.0, 0.0) == pytest.approx(1 / (2 * math.sqrt(math.pi)), abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.2, 1.5, 1.8])
    def test_value_at_zero(self, alpha):
        want = math.gamma(1 / alpha) / (alpha * math.pi)
        assert transition_density(alpha, 1.0, 0.0) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("alpha", [0.5, 0.8])
    @pytest.mark.parametrize("w", [0.5, 3.0, 30.0, 1e6])
    def test_below_one_matches_convergent_series(self, alpha, w):
        want = p1_convergent_series(alpha, w)
        assert abs(transition_density(alpha, 1.0, w) - want) <= tolerance(want)

    @pytest.mark.parametrize("x", [0.3, 1.7])
    def test_symmetry(self, x):
        assert transition_density(1.5, 1.0, x) == transition_density(1.5, 1.0, -x)

    def test_gaussian_grid_vs_closed_form(self):
        for t in (0.5, 1.0, 3.0):
            for x in (0.0, 0.7, 2.5):
                want = math.exp(-x * x / (4 * t)) / (2 * math.sqrt(math.pi * t))
                assert transition_density(2.0, t, x) == pytest.approx(want, abs=1e-8)

    def test_quadrature_path_matches_gaussian(self):
        # same integral computed without the alpha=2 dispatch
        for x in (0.0, 1.0, 3.0):
            by_quad = integrate_oscillatory_cos(lambda s: np.exp(-s ** 2.0), x) / math.pi
            assert by_quad == pytest.approx(transition_density(2.0, 1.0, x), abs=1e-10)

    def test_scaling_reduction(self):
        # p_t(x) = t^{-1/a} p_1(x t^{-1/a}); evaluate both sides at t != 1
        alpha, t, x = 1.5, 3.7, 0.9
        lhs = transition_density(alpha, t, x)
        s = t ** (-1 / alpha)
        assert lhs == pytest.approx(s * transition_density(alpha, 1.0, x * s), abs=1e-12)

    def test_normalization(self):
        val = 2 * integrate_adaptive(lambda x: transition_density(1.5, 1.0, x), 0, math.inf)
        assert val == pytest.approx(1.0, abs=1e-6)


class TestResolventDensity:
    def test_brownian_closed_form(self):
        assert resolvent_density(2.0, 1.0, 0.0) == pytest.approx(0.5, abs=1e-12)
        for q in (0.25, 1.0, 4.0):
            for x in (0.0, 0.5, 2.0):
                want = math.exp(-math.sqrt(q) * abs(x)) / (2 * math.sqrt(q))
                assert resolvent_density(2.0, q, x) == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("q", [0.25, 1.0, 4.0])
    def test_scaling_at_zero(self, q):
        alpha = 1.5
        want = u1_zero(alpha) * q ** (1 / alpha - 1)
        assert resolvent_density(alpha, q, 0.0) == pytest.approx(want, abs=1e-9)

    def test_u1_zero_matches_quadrature(self):
        for alpha in (1.2, 1.5, 1.8, 2.0):
            by_quad = integrate_adaptive(lambda s: 1 / (1 + s ** alpha), 0, math.inf) / math.pi
            assert by_quad == pytest.approx(u1_zero(alpha), abs=1e-10)

    @pytest.mark.parametrize("q,x", [(0.25, 0.5), (4.0, 1.0), (1.0, 2.0)])
    def test_two_path_raw_vs_scaled(self, q, x):
        # raw quadrature without the scaling reduction
        alpha = 1.5
        raw = integrate_oscillatory_cos(lambda s: 1.0 / (q + s ** alpha), x) / math.pi
        assert raw == pytest.approx(resolvent_density(alpha, q, x), abs=1e-9)

    def test_symmetry(self):
        assert resolvent_density(1.5, 1.0, 1.3) == resolvent_density(1.5, 1.0, -1.3)

    def test_vanishing_ratio_as_q_to_zero(self):
        # u_q(x)/u_q(0) -> 1; the exact rate at x=1 is
        # 1 - (h(1)/u_1(0)) q^{1-1/alpha}, which is 0.98964 at q=1e-6
        ratios = [resolvent_density(1.5, q, 1.0) / resolvent_density(1.5, q, 0.0)
                  for q in (1e-2, 1e-4, 1e-6)]
        assert ratios[0] < ratios[1] < ratios[2]
        rate = potential_kernel(1.5, 1.0) / u1_zero(1.5)
        assert ratios[2] == pytest.approx(1.0 - rate * 1e-6 ** (1 / 3), abs=1e-4)
        assert ratios[2] > 0.98


class TestU1Kernel:
    @pytest.mark.parametrize("alpha", [0.7, 1.01, 1.5, 1.9, 1.99, 1.999])
    def test_matches_rotated_integral(self, alpha):
        for w in (1e-4, 0.1, 1.0, 10.0, 1e3, 1e5):
            assert _u1(alpha, w) == pytest.approx(u1_rotated(alpha, w),
                                                  rel=1e-9, abs=0.0)

    def test_positive_far_out_near_alpha_two(self):
        value = _u1(1.999, 1e6)
        assert value > 0.0
        assert value == pytest.approx(u1_rotated(1.999, 1e6), rel=1e-9, abs=0.0)

    def test_alpha_two_is_gaussian(self):
        for w in (0.0, 0.5, 3.0, 40.0):
            assert _u1(2.0, w) == math.exp(-w) / 2

    def test_origin_is_closed_form(self):
        assert _u1(1.5, 0.0) == u1_zero(1.5)
        with pytest.raises(DomainError, match="alpha <= 1"):
            _u1(0.8, 0.0)

    @pytest.mark.parametrize("alpha", [1.01, 1.1, 1.5, 1.9, 1.995, 1.999])
    def test_small_w_is_the_expansion(self, alpha):
        # u_1(0) - h(1) w^{alpha-1}; the rule raises at 1.995 and 1.999
        assert _u1(alpha, 1e-12) == pytest.approx(u1_rotated(alpha, 1e-12),
                                                  rel=1e-13, abs=0.0)

    def test_unresolved_rule_raises(self):
        # at alpha = 1.999 the cutoff at w = 5e-12 and the near-double root
        # at v = 1 lie too far apart for the rule's half-step check to pass;
        # from w = 1e-12 down the small-w expansion takes over
        with pytest.raises(NonConvergence, match="half-step"):
            _u1(1.999, 5e-12)

    def test_half_step_check_is_relative(self):
        # at alpha = 0.1, w = 1e151 the rule is 3.4e-4 off the asymptotic
        # series, and u_1 ~ 4e-168 lies far below the 1e-10 absolute floor of
        # numerics.tolerance, so only a relative check can see the gap; w q
        # overflows at the far nodes on the way, with no warning
        for u1 in (_u1, lambda alpha, w: _u1_rows(alpha, np.array([w]))):
            with pytest.raises(NonConvergence, match="relative"), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")
                u1(0.1, 1e151)

    @pytest.mark.parametrize("alpha", [1.5, 1.999])
    def test_far_field_is_the_asymptote(self, alpha):
        # the rule's products underflow at w = 1e100
        assert _u1(alpha, 1e100) == pytest.approx(u1_far_field(alpha, 1e100),
                                                  rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.9, 1.01, 1.5, 1.9, 1.999])
    def test_no_warning_out_to_1e300(self, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for w in np.logspace(0.0, 300.0, 61):
                value = _u1(alpha, float(w))
                assert math.isfinite(value) and value >= 0.0

    @pytest.mark.parametrize("alpha,w", [(0.05, 2e289), (0.05, 1e300),
                                         (0.03, 1.5e289), (0.058, 1e295)])
    def test_rule_overflow_names_its_limit(self, alpha, w):
        # below alpha of about 0.06 the far field starts past the w where
        # the rule's products overflow; there both kernels raise an error
        # that names the limit, with no numpy warning
        for u1 in (_u1, lambda alpha, w: _u1_rows(alpha, np.array([1.0, w]))):
            with pytest.raises(DomainError, match=r"above w = 1\.137e\+289"), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")
                u1(alpha, w)
        # the rule runs up to the limit
        limit = resolvent._U1_RULE_W_MAX
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resolvent._u1_rule(alpha, limit)
            with pytest.raises(DomainError):
                _u1(alpha, math.nextafter(limit, math.inf))


def _scalar_rows(alpha, w):
    """[_u1(alpha, x) for x in w], or the message of the first row that
    raises NonConvergence, from empty caches."""
    _u1.cache_clear()
    try:
        return np.array([_u1(alpha, x) for x in w.tolist()]), None
    except NonConvergence as exc:
        return None, str(exc)
    finally:
        _u1.cache_clear()


class TestU1Rows:
    @pytest.mark.parametrize("n", [1, _U1_BLOCK - 1, _U1_BLOCK, _U1_BLOCK + 1,
                                   40])
    def test_equals_scalar_kernel_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        alphas = [0.2, 1.0, 2.0, *rng.uniform(0.2, 2.0, 30)]
        compared = 0
        for alpha in alphas:
            w = np.exp(rng.uniform(math.log(1e-14), math.log(1e160), n))
            want, message = _scalar_rows(float(alpha), w)
            if message is not None:
                with pytest.raises(NonConvergence) as info:
                    _u1_rows(float(alpha), w)
                assert str(info.value) == message
                continue
            got = _u1_rows(float(alpha), w)
            assert got.tobytes() == want.tobytes()
            compared += n
        assert compared >= 25 * n

    def test_block_edges_and_shape(self):
        w = np.geomspace(1e-3, 1e3, 2 * _U1_BLOCK + 1).reshape(-1, 1)
        want, _ = _scalar_rows(1.5, w.ravel())
        got = _u1_rows(1.5, w)
        assert got.shape == w.shape
        assert got.ravel().tobytes() == want.tobytes()
        assert _u1_rows(1.5, np.array([])).shape == (0,)

    def test_failing_row_raises_the_scalar_message(self):
        # w = 3e-12 lies in the rule's range, where its half-step check
        # fails near alpha = 2; the rows around it pass
        w = np.array([1.0, 3e-12, 2.0])
        _, message = _scalar_rows(1.999, w)
        assert "half-step" in message
        with pytest.raises(NonConvergence) as info:
            _u1_rows(1.999, w)
        assert str(info.value) == message

    def test_failing_row_costs_one_rule_evaluation(self, monkeypatch):
        # the block's own sums raise the scalar message; no scalar _u1 runs
        # the rule on that row a second time
        w = np.array([1.0, 3e-12, 2.0])
        _, message = _scalar_rows(1.999, w)
        shapes = []
        rule = resolvent._u1_rule

        def counted(alpha, x):
            shapes.append(np.shape(x))
            return rule(alpha, x)

        monkeypatch.setattr(resolvent, "_u1_rule", counted)
        with pytest.raises(NonConvergence) as info:
            _u1_rows(1.999, w)
        assert str(info.value) == message
        assert shapes == [(3, 1)]

    def test_each_distinct_w_is_routed_once(self, monkeypatch):
        # Stehfest nodes of a doubling t grid repeat, and u(0) over an array
        # of q is a row of zeros
        w = np.array([0.0, 1.0, 2.0, 1.0, 0.0, 4.0, 2.0, 1e-13, 0.0, 1e-13,
                      1e100, 1e100, 0.5, 4.0])
        want, _ = _scalar_rows(1.5, w)
        rule, closed = resolvent._u1_rule, resolvent._u1_closed
        ruled, routed = [], []

        def counted_rule(alpha, x):
            ruled.extend(np.ravel(x).tolist())
            return rule(alpha, x)

        def counted_closed(alpha, x):
            routed.append(x)
            return closed(alpha, x)

        monkeypatch.setattr(resolvent, "_u1_rule", counted_rule)
        monkeypatch.setattr(resolvent, "_u1_closed", counted_closed)
        got = _u1_rows(1.5, w)
        assert got.tobytes() == want.tobytes()
        assert ruled == [1.0, 2.0, 4.0, 0.5]
        # one route for each distinct w, closed forms included
        assert routed == list(dict.fromkeys(w.tolist()))

    def test_array_calls_keep_nothing(self, monkeypatch):
        # an array call neither reads nor fills _u1's cache, a repeated call
        # runs the rule again, and a large call leaves no memory behind
        _u1.cache_clear()
        w = np.array([0.0, 1e-13, 1e100, 0.5, 1.0, 2.0])
        before = _u1.cache_info()
        first = _u1_rows(1.5, w)
        assert _u1.cache_info() == before
        ruled = []
        rule = resolvent._u1_rule

        def counted(alpha, x):
            ruled.extend(np.ravel(x).tolist())
            return rule(alpha, x)

        monkeypatch.setattr(resolvent, "_u1_rule", counted)
        again = _u1_rows(1.5, w.reshape(2, 3))
        assert ruled == [0.5, 1.0, 2.0]
        assert again.shape == (2, 3)
        assert again.ravel().tobytes() == first.tobytes()
        monkeypatch.undo()
        q = np.geomspace(1e-3, 1e3, 100_000)
        tracemalloc.start()
        try:
            resolvent_density(1.5, q, 1.0)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 0.5e6


class TestArrayRate:
    def test_resolvent_of_an_array_of_q(self):
        q = np.geomspace(1e-40, 1e250, 60)
        for alpha in (1.05, 1.5, 1.99, 2.0):
            for x in (0.0, 1e-3, -1.0, 50.0):
                got = resolvent_density(alpha, q, x)
                want = [resolvent_density(alpha, float(v), x) for v in q]
                assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_one_bad_rate_raises(self, bad):
        with pytest.raises(DomainError, match="q must be positive"):
            resolvent_density(1.5, np.array([1.0, bad, 2.0]), 1.0)


P1_ALPHAS = [1.01, 1.1, 1.15, 1.2, 1.5, 1.9, 1.99]
P1_ALPHAS_BELOW_ONE = [0.1, 0.3, 0.5, 0.8, 0.95, 0.999]


def _scalar_p1(alpha, w):
    """[_p1(alpha, x) for x in w], or the message of the first row that
    raises NonConvergence."""
    try:
        return np.array([_p1(alpha, x) for x in np.ravel(w).tolist()]), None
    except NonConvergence as exc:
        return None, str(exc)


class TestP1Rows:
    # every route of _p1: alpha 2 and 1, w = 0 and below 1e-9, the far field
    # for alpha > 1, the series for alpha < 1, and the rule
    @pytest.mark.parametrize("alpha", [2.0, 1.0, 1.5, 1.05, 1.999, 0.5, 0.1,
                                       0.999])
    def test_equals_scalar_kernel_bit_for_bit(self, alpha):
        rng = np.random.default_rng(7)
        w = np.concatenate([
            [0.0, 1e-12, 5e-10, 1e-301, 1e-200, 1e90, 1e200, 3.0, 5.0],
            np.exp(rng.uniform(math.log(1e-8), math.log(1e80),
                               3 * _U1_BLOCK + 5))])
        want, message = _scalar_p1(alpha, w)
        assert message is None
        assert _p1_rows(alpha, w).tobytes() == want.tobytes()

    def test_routes_are_met(self, monkeypatch):
        # the block rows are exactly the w that _p1_closed leaves to the rule
        w = np.array([0.0, 1e-10, 1e200, 0.5, 2.0, 0.5, 40.0])
        ruled = []
        rule = resolvent._zolotarev_rule

        def counted(alpha, lw, c):
            ruled.append(np.shape(c))
            return rule(alpha, lw, c)

        monkeypatch.setattr(resolvent, "_zolotarev_rule", counted)
        want, _ = _scalar_p1(1.5, w)
        ruled.clear()
        assert _p1_rows(1.5, w).tobytes() == want.tobytes()
        assert ruled == [(3, 1)]

    @pytest.mark.parametrize("w", [3.0, 5.0])
    def test_recentred_pass(self, monkeypatch, w):
        # near alpha = 2 and w = 3 the first pass fails its half-step check,
        # and that row alone is centred again, as in _p1
        ruled = []
        rule = resolvent._zolotarev_rule

        def counted(alpha, lw, c):
            ruled.append(np.shape(c))
            return rule(alpha, lw, c)

        monkeypatch.setattr(resolvent, "_zolotarev_rule", counted)
        want, _ = _scalar_p1(1.999, [1.0, w, 2.0])
        assert ruled == [(), (), (), ()]
        ruled.clear()
        got = _p1_rows(1.999, np.array([1.0, w, 2.0]))
        assert got.tobytes() == want.tobytes()
        assert ruled == [(3, 1), ()]

    def test_failing_row_raises_the_scalar_message(self):
        w = np.array([1.0, 8.0, 2.0])
        _, message = _scalar_p1(1.9999, w)
        assert "half-step" in message
        with pytest.raises(NonConvergence) as info:
            _p1_rows(1.9999, w)
        assert str(info.value) == message

    def test_shape_and_no_cache(self):
        w = np.geomspace(1e-3, 1e3, 2 * _U1_BLOCK + 2).reshape(-1, 2)
        want, _ = _scalar_p1(1.3, w)
        got = _p1_rows(1.3, w)
        assert got.shape == w.shape
        assert got.ravel().tobytes() == want.tobytes()
        empty = _p1_rows(1.3, np.array([]))
        assert empty.shape == (0,) and empty.dtype == float
        assert not hasattr(_p1_rows, "cache_info")

    def test_transition_density_of_arrays(self):
        rng = np.random.default_rng(3)
        t = 10.0 ** rng.uniform(-3, 3, 50)
        x = rng.uniform(-40, 40, 50)
        for alpha in (0.5, 1.0, 1.5, 2.0):
            for tt, xx in ((t, x), (t, 0.7), (2.5, x)):
                want = np.array([transition_density(alpha, float(a), float(b))
                                 for a, b in np.broadcast(tt, xx)])
                got = transition_density(alpha, tt, xx)
                assert got.tobytes() == want.tobytes()

    def test_transition_density_of_a_bad_time_raises(self):
        with pytest.raises(DomainError, match="^t must be positive$"):
            transition_density(1.5, np.array([1.0, 0.0]), 1.0)


class TestP1Kernel:
    @pytest.mark.parametrize("alpha", P1_ALPHAS)
    def test_small_w_matches_power_series(self, alpha):
        for w in (1e-6, 1e-3, 0.1, 0.5):
            assert _p1(alpha, w) == pytest.approx(p1_power_series(alpha, w),
                                                  rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha", P1_ALPHAS)
    def test_moderate_w_matches_cosine_integral(self, alpha):
        for w in (2.0, 8.0):
            assert _p1(alpha, w) == pytest.approx(
                p1_cosine_integral(alpha, w), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha", P1_ALPHAS)
    def test_far_field_matches_asymptotic_series(self, alpha):
        for w in (30.0, 1e3, 1e6):
            assert _p1(alpha, w) == pytest.approx(p1_asymptotic(alpha, w),
                                                  rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha", [1.01, 1.1, 1.5, 1.99, 1.999])
    def test_positive_without_warnings(self, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for w in np.logspace(-100.0, 100.0, 81):
                value = _p1(alpha, float(w))
                assert math.isfinite(value) and value > 0.0

    @pytest.mark.parametrize("alpha", [1.995, 1.999, 1.9999])
    def test_near_two_is_close_or_raises(self, alpha):
        for w in (0.5, 2.0, 3.0, 5.0):
            try:
                value = _p1(alpha, w)
            except NonConvergence:
                continue
            want = (p1_power_series(alpha, w) if w < 1.0
                    else p1_cosine_integral(alpha, w))
            assert value == pytest.approx(want, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("alpha,w", [(1.999, 3.0), (1.999, 5.0),
                                         (1.9999, 3.0), (1.9999, 5.0)])
    def test_near_two_recentred(self, alpha, w):
        # the first pass fails its half-step check here: the bulk of the
        # integrand lies on the flat part of V, far left of the nodes' centre
        assert _p1(alpha, w) == pytest.approx(p1_cosine_integral(alpha, w),
                                              rel=1e-12, abs=0.0)

    def test_uncached_with_unchanged_values(self):
        # the benchmark's rounds repeat an argument of p_1 only at w = 0, its
        # closed form, so _p1 keeps no cache; a repeated call gives the same
        # pinned value
        assert not hasattr(_p1, "cache_info")
        pinned = {(1.5, 1.0, 0.0): "0x1.263fccb79c53bp-2",
                  (1.5, 2.0, 0.7): "0x1.59451cb4fd4cep-3",
                  (0.7, 1.0, 3.0): "0x1.d303475df6a40p-6",
                  (1.9999, 1.0, 5.0): "0x1.1e3dc90d37d86p-11",
                  (1.2, 0.3, -40.0): "0x1.f739bcc841115p-16",
                  (1.999, 1.0, 3.0): "0x1.e72a42cb9b4f6p-6"}
        for args, value in pinned.items():
            for _ in range(2):
                assert transition_density(*args) == float.fromhex(value)

    def test_unresolved_rule_raises(self):
        # at alpha = 1.9999, w = 8 the half rule stays too coarse after the
        # rule is centred on its largest node
        with pytest.raises(NonConvergence, match="half-step"):
            _p1(1.9999, 8.0)

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_origin_is_closed_form(self, alpha):
        assert _p1(alpha, 0.0) == math.gamma(1.0 + 1.0 / alpha) / math.pi

    def test_alpha_one_is_cauchy(self):
        for w in (0.0, 0.5, 3.0):
            assert _p1(1.0, w) == pytest.approx(1 / (math.pi * (1 + w * w)),
                                                abs=1e-10)

    def test_alpha_two_is_gaussian(self):
        for w in (0.0, 0.5, 3.0):
            assert _p1(2.0, w) == math.exp(-w * w / 4) / (2 * math.sqrt(math.pi))

    def test_alpha_one_is_cauchy_closed_form(self):
        for w in (0.0, 1e-300, 0.5, 3.0, 1e10, 1e150):
            assert _p1(1.0, w) == pytest.approx(1 / (math.pi * (1 + w * w)),
                                                rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("alpha", P1_ALPHAS_BELOW_ONE)
    def test_below_one_matches_convergent_series(self, alpha):
        # Zolotarev's rule up to alpha log w = 8, the kernel's own series
        # beyond
        for w in (30.0, 1e3, 1e6, 1e20, 1e100):
            assert _p1(alpha, w) == pytest.approx(
                p1_convergent_series(alpha, w), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha,w", [
        (0.15, 1e-12), (0.2, 1e-12), (0.3, 1e-6), (0.5, 1e-3), (0.7, 0.05),
        (0.9, 0.3), (0.99, 1e-9), (0.99, 0.3), (0.999, 1e-12), (0.999, 0.1)])
    def test_below_one_matches_small_w_expansion(self, alpha, w):
        assert _p1(alpha, w) == pytest.approx(p1_small_w_expansion(alpha, w),
                                              rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha", P1_ALPHAS_BELOW_ONE)
    def test_below_one_positive_without_warnings(self, alpha):
        # p_1(1e300) lies below the doubles for every alpha < 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for w in np.logspace(-12.0, 300.0, 105):
                value = _p1(alpha, float(w))
                assert math.isfinite(value) and value >= 0.0
                assert value > 0.0 or w > 1e150


class TestResolventGap:
    # u_q(0) - u_q(x), which tends to the potential kernel h(x) as q -> 0
    def test_brownian(self):
        want = (1 - math.exp(-1.0)) / 2
        gap = resolvent_density(2.0, 1.0, 0.0) - resolvent_density(2.0, 1.0, 1.0)
        assert gap == pytest.approx(want, abs=1e-10)

    def test_approaches_potential_kernel(self):
        h = potential_kernel(1.5, 1.0)
        gaps = [abs(resolvent_density(1.5, q, 0.0) - resolvent_density(1.5, q, 1.0) - h)
                for q in (1e-2, 1e-4, 1e-6)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3


class TestPotentialKernel:
    def test_brownian_half_abs(self):
        assert potential_kernel(2.0, 3.0) == pytest.approx(1.5, abs=1e-12)

    def test_zero(self):
        assert potential_kernel(1.7, 0.0) == 0.0

    def test_value_at_one(self):
        want = 1 / (2 * math.gamma(1.5) * math.sin(math.pi / 4))
        assert potential_kernel(1.5, 1.0) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.797885, abs=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=1.05, max_value=2.0),
           st.floats(min_value=0.01, max_value=50.0))
    def test_homogeneity(self, alpha, x):
        lhs = potential_kernel(alpha, x)
        rhs = potential_kernel_at_one(alpha) * x ** (alpha - 1)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestOneMinusCosIntegral:
    def test_alpha_two_is_half(self):
        # equivalent to int sin(x)/x dx = pi/2
        assert one_minus_cos_integral(2.0) == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0, 2.5, 2.9])
    def test_matches_closed_form(self, alpha):
        assert one_minus_cos_integral(alpha) == pytest.approx(
            potential_kernel_at_one(alpha), abs=1e-9)

    def test_cross_check_with_potential_kernel(self):
        assert one_minus_cos_integral(1.5) == pytest.approx(
            potential_kernel(1.5, 1.0), abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            one_minus_cos_integral(1.0)
        with pytest.raises(DomainError):
            one_minus_cos_integral(3.0)
