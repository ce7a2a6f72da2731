import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, special

from stable_hitting.errors import DomainError
from stable_hitting.distributions import (alpha_cauchy_charfn,
                                          alpha_cauchy_density,
                                          alpha_rayleigh_survival,
                                          beta_prime_density, linnik_density,
                                          meixner_density,
                                          relation_r_constant, z_density,
                                          z_levy_exponent)
from stable_hitting.numerics import integrate_adaptive, integrate_oscillatory_cos
from stable_hitting.resolvent import resolvent_density, u1_zero


class TestBetaPrime:
    def test_unit_shapes(self):
        assert beta_prime_density(1, 1, 1.0) == pytest.approx(0.25, abs=1e-14)

    def test_half_shapes(self):
        # B(1/2, 1/2) = pi
        assert beta_prime_density(0.5, 0.5, 1.0) == pytest.approx(1 / (2 * math.pi), abs=1e-12)

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (2.0, 3.0)])
    def test_normalization(self, a, b):
        val = integrate_adaptive(lambda x: beta_prime_density(a, b, x), 0, math.inf)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            beta_prime_density(-1, 1, 1.0)
        with pytest.raises(DomainError):
            beta_prime_density(1, 1, -0.5)

    def test_nonfinite_normaliser_raises(self):
        # betaln(1e-310, 1) is inf, which would round the density to 0.0
        with pytest.raises(DomainError, match="2.2e-308"):
            beta_prime_density(1e-310, 1.0, 1.0)


class TestAlphaCauchy:
    def test_standard_cauchy(self):
        assert alpha_cauchy_density(2.0, 0.0) == pytest.approx(1 / math.pi, abs=1e-14)
        assert alpha_cauchy_density(2.0, 1.0) == pytest.approx(1 / (2 * math.pi), abs=1e-14)

    @pytest.mark.parametrize("alpha", [1.5, 3.0])
    def test_normalization(self, alpha):
        val = 2 * integrate_adaptive(lambda x: alpha_cauchy_density(alpha, x), 0, math.inf)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            alpha_cauchy_density(1.0, 0.0)


class TestLinnik:
    def test_alpha_two_is_bilateral_exponential(self):
        for x in (0.0, 0.5, 2.0):
            assert linnik_density(2.0, x) == pytest.approx(0.5 * math.exp(-abs(x)), abs=1e-9)

    def test_at_zero_two_routes(self):
        # (1/pi) int dtheta/(1+theta^1.5) == (1/(1.5 pi)) B(2/3, 1/3)
        # via the substitution u = theta^1.5
        want = special.beta(2 / 3, 1 / 3) / (1.5 * math.pi)
        assert linnik_density(1.5, 0.0) == pytest.approx(want, abs=1e-10)

    def test_normalization(self):
        val = 2 * integrate_adaptive(lambda x: linnik_density(1.5, x), 0, math.inf)
        assert val == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.9])
    def test_is_unit_resolvent(self, alpha):
        # the Linnik density is u_1, evaluated by the same kernel
        for x in (-2.0, 0.0, 0.5, 3.0):
            assert linnik_density(alpha, x) == resolvent_density(alpha, 1.0, x)

    def test_domain(self):
        with pytest.raises(DomainError):
            linnik_density(2.5, 0.0)

    @pytest.mark.parametrize("alpha", [0.8, 1.0])
    def test_origin_diverges_for_alpha_at_most_one(self, alpha):
        with pytest.raises(DomainError, match="alpha <= 1"):
            linnik_density(alpha, 0.0)
        with pytest.raises(DomainError, match="alpha <= 1"):
            u1_zero(alpha)
        assert linnik_density(alpha, 0.5) > 0.0


class TestArrayPoints:
    # linnik_density and alpha_rayleigh_survival take an array of x, and
    # each element equals the float call's bit for bit
    @pytest.mark.parametrize("density", [linnik_density,
                                         alpha_rayleigh_survival])
    def test_elements_equal_the_float_calls(self, density):
        rng = np.random.default_rng(11)
        x = np.concatenate([[0.0, 1e-300, 1e-10, 1e300],
                            10.0 ** rng.uniform(-3, 3, 40)])
        if density is linnik_density:
            # u_1's rule does not settle at w = 1e-300 for alpha < 1
            x = x[x != 1e-300] * rng.choice([-1.0, 1.0], x.size - 1)
        for alpha in (0.5, 1.0, 1.3, 1.8, 2.0):
            if density is linnik_density and alpha <= 1.0:
                x = x[x != 0.0]
            want = np.array([density(alpha, float(v)) for v in x])
            got = density(alpha, x)
            assert got.shape == x.shape
            assert got.tobytes() == want.tobytes(), alpha

    @pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan])
    def test_one_negative_point_raises(self, bad):
        with pytest.raises(DomainError, match="^x must be nonnegative$"):
            alpha_rayleigh_survival(1.5, bad)
        with pytest.raises(DomainError, match="^x must be nonnegative$"):
            alpha_rayleigh_survival(1.5, np.array([1.0, bad, 0.0]))

    def test_linnik_origin_in_an_array_diverges(self):
        with pytest.raises(DomainError, match="alpha <= 1"):
            linnik_density(0.9, np.array([1.0, 0.0]))


class TestRelationR:
    def test_charfn_at_zero(self):
        for alpha in (1.25, 1.5, 1.8):
            assert alpha_cauchy_charfn(alpha, 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_charfn_even(self):
        assert alpha_cauchy_charfn(1.5, 1.0) == alpha_cauchy_charfn(1.5, -1.0)

    @pytest.mark.parametrize("alpha", [1.25, 1.5, 1.8])
    @pytest.mark.parametrize("theta", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_proportionality(self, alpha, theta):
        lhs = alpha_cauchy_charfn(alpha, theta)
        rhs = relation_r_constant(alpha) * linnik_density(alpha, theta)
        assert abs(lhs - rhs) <= 1e-6

    def test_constant_normalizes_linnik_at_zero(self):
        # L_a(0) = 1/(a sin(pi/a)), so const * L_a(0) must be exactly 1
        for alpha in (1.25, 1.5, 1.8):
            assert relation_r_constant(alpha) * linnik_density(alpha, 0.0) == pytest.approx(1.0, abs=1e-9)


class TestZDensity:
    def test_half_shape_at_zero(self):
        assert z_density(0.5, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_half_shape_is_sech(self):
        # z_{1/2}(x) = 1 / (2 cosh(pi x / 2))
        for x in (0.3, 1.0, 4.0):
            assert z_density(0.5, x) == pytest.approx(1 / (2 * math.cosh(math.pi * x / 2)), rel=1e-12)

    def test_symmetry(self):
        assert z_density(1.3, 0.7) == pytest.approx(z_density(1.3, -0.7), rel=1e-13)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_charfn_is_sech(self, theta):
        val = 2 * integrate_oscillatory_cos(lambda x: z_density(0.5, x), theta)
        assert val == pytest.approx(1 / math.cosh(theta), abs=1e-6)

    def test_no_overflow_far_out(self):
        assert 0.0 <= z_density(0.5, 80.0) < 1e-50
        assert 0.0 <= z_density(3.0, -60.0) < 1e-50

    @pytest.mark.parametrize("a", [0.5, 2.0])
    def test_normalization(self, a):
        val = 2 * integrate_adaptive(lambda x: z_density(a, x), 0, math.inf)
        assert val == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("a", [10.0, 1000.0])
    @pytest.mark.parametrize("x", [0.0, 0.01, -0.02, 0.1])
    def test_large_shape_against_mpmath(self, a, x):
        # betaln below a = 30, the duplication formula's series above
        with mp.workdps(50):
            aa, y = mp.mpf(a), mp.pi * mp.mpf(x)
            want = mp.pi * mp.exp(aa * y) / ((1 + mp.exp(y)) ** (2 * aa) * mp.beta(aa, aa))
        assert z_density(a, x) == pytest.approx(float(want), rel=1e-12, abs=0)

    @pytest.mark.parametrize("a", [1e3, 1e6, 1e10, 1e15, 1e16, 1e23, 1e50,
                                   1e100, 1e200, 1e300, 1e308])
    @pytest.mark.parametrize("s", [0.0, 0.37, -1.3, 2.9])
    def test_huge_shape_against_mpmath(self, a, s):
        # the density has width 1/sqrt(a); log B(a, a) is about -2a log 2,
        # so the reference keeps 50 digits beyond the log10(a) that the
        # cancellation in its normaliser takes
        x = s / math.sqrt(a)
        with mp.workdps(50 + int(math.log10(a))):
            aa, y = mp.mpf(a), mp.pi * mp.mpf(x)
            want = mp.exp(mp.log(mp.pi) - mp.log(mp.beta(aa, aa)) + aa * y
                          - 2 * aa * mp.log1p(mp.exp(y)))
        assert z_density(a, x) == pytest.approx(float(want), rel=1e-13, abs=0)

    @pytest.mark.parametrize("a", [1e-310])
    def test_nonfinite_normaliser_raises(self, a):
        # betaln(a, a) is inf at 1e-310, which would make the density 0.0;
        # from a = 30 on the normaliser is a series, finite up to 1.8e308
        with pytest.raises(DomainError, match="2.2e-308.*2.6e305"):
            z_density(a, 1.0)


class TestZLevyExponent:
    def test_zero(self):
        assert z_levy_exponent(0.7, 0.0) == 0.0

    def test_even(self):
        assert z_levy_exponent(0.7, 1.3) == z_levy_exponent(0.7, -1.3)

    def test_half_shape_is_log_cosh(self):
        # e^{-Phi_{1/2}} is the char-fn of z_{1/2}, i.e. sech
        for th in (0.5, 1.0, 3.0):
            assert z_levy_exponent(0.5, th) == pytest.approx(math.log(math.cosh(th)), abs=1e-9)

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.7])
    @pytest.mark.parametrize("theta", [0.5, 2.0, 10.0, 60.0])
    def test_loggamma_identity(self, a, theta):
        # Phi_a(th) = 2 log Gamma(a) - 2 Re log Gamma(a + i th / pi)
        want = 2 * special.loggamma(a).real - 2 * special.loggamma(a + 1j * theta / math.pi).real
        assert z_levy_exponent(a, theta) == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("a,theta", [(0.5, 2.0), (1.0, 0.5), (1.7, 10.0), (3.0, 60.0)])
    def test_levy_khintchine_integral(self, a, theta):
        # the defining integral by QUADPACK: 2 sin^2 form on (0, 1); past 1
        # the flat part minus the cosine part, the latter by QAWF
        def envelope(u):
            return math.exp(-a * math.pi * u) / (u * -math.expm1(-math.pi * u))

        head = integrate.quad(lambda u: 2 * math.sin(0.5 * theta * u) ** 2 * envelope(u),
                              0, 1, epsabs=0, epsrel=1e-13, limit=200)[0]
        flat = integrate.quad(envelope, 1, math.inf, epsabs=0, epsrel=1e-13)[0]
        cos_part = integrate.quad(envelope, 1, math.inf, weight="cos", wvar=theta,
                                  epsabs=1e-14)[0]
        want = 2 * (head + flat - cos_part)
        assert z_levy_exponent(a, theta) == pytest.approx(want, rel=1e-12, abs=0)

    def test_domain(self):
        with pytest.raises(DomainError):
            z_levy_exponent(0.0, 1.0)


class TestMeixner:
    def test_normalization_symmetric(self):
        val = integrate.quad(lambda x: meixner_density(0.0, 1.0, x), -25, 25, limit=200)[0]
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_equals_scaled_z_half(self):
        # M_0(1) has the law of half a hyperbolic-cosine variable
        for x in (0.0, 0.4, 1.5):
            assert meixner_density(0.0, 1.0, x) == pytest.approx(2 * z_density(0.5, 2 * x), abs=1e-8)

    def test_positive_mean_shift(self):
        mean = integrate.quad(lambda x: x * meixner_density(0.5, 1.0, x), -25, 25, limit=200)[0]
        assert mean > 0.01

    def test_asymmetric_normalization(self):
        val = integrate.quad(lambda x: meixner_density(0.5, 1.0, x), -30, 30, limit=200)[0]
        assert val == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("t", [0.3, 1.0, 4.0])
    @pytest.mark.parametrize("beta", [-2.0, 0.0, 0.5, 2.0])
    def test_gamma_modulus_form(self, beta, t):
        # (2 cos(beta/2))^t e^{beta x} |Gamma(t/2 + ix)|^2 / (2 pi Gamma(t)) at 40 digits
        with mp.workdps(40):
            b, tt = mp.mpf(beta), mp.mpf(t)
            norm = (2 * mp.cos(b / 2)) ** tt / (2 * mp.pi * mp.gamma(tt))
            for x in (-4.0, -0.5, 0.0, 0.7, 3.0, 10.0, 50.0):
                xx = mp.mpf(x)
                want = float(norm * mp.exp(b * xx) * abs(mp.gamma(tt / 2 + 1j * xx)) ** 2)
                assert meixner_density(beta, t, x) == pytest.approx(want, rel=1e-12, abs=0)

    def test_domain(self):
        with pytest.raises(DomainError):
            meixner_density(3.5, 1.0, 0.0)
        with pytest.raises(DomainError):
            meixner_density(0.0, -1.0, 0.0)

    def test_nonfinite_normaliser_raises(self):
        # betaln and gammaln at t/2 = 5e-311 are both inf, and their
        # difference would be nan
        with pytest.raises(DomainError, match="Meixner density.*2.2e-308"):
            meixner_density(0.0, 1e-310, 1.0)


class TestAlphaRayleighSurvival:
    def test_at_zero(self):
        for alpha in (1.2, 1.7, 2.0):
            assert alpha_rayleigh_survival(alpha, 0.0) == 1.0

    def test_gaussian_case(self):
        # R_2 = 2 sqrt(e), survival e^{-x^2/4}
        for x in (0.5, 1.0, 3.0):
            assert alpha_rayleigh_survival(2.0, x) == pytest.approx(math.exp(-x * x / 4), abs=1e-10)

    def test_nonincreasing(self):
        grid = np.linspace(0.0, 8.0, 30)
        vals = [alpha_rayleigh_survival(1.5, float(x)) for x in grid]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)
