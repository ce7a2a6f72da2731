import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from stable_hitting.errors import (BracketError, DomainError, NonConvergence,
                                   NumericInstability)
from stable_hitting.numerics import (ABS_TOL, REL_TOL, LaplaceTransform,
                                     integrate_adaptive,
                                     integrate_oscillatory_cos,
                                     invert_monotone, laplace_invert_cdf,
                                     tolerance)


class TestQuadSpec:
    def test_defaults(self):
        assert ABS_TOL == 1e-10
        assert REL_TOL == 1e-9


class TestAdaptive:
    def test_exponential(self):
        assert integrate_adaptive(lambda x: math.exp(-x), 0, math.inf) == pytest.approx(1.0, abs=1e-10)

    def test_constant(self):
        assert integrate_adaptive(lambda x: 1.0, 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_moment(self):
        # antiderivative of x e^{-x^2/2} is -e^{-x^2/2}
        val = integrate_adaptive(lambda x: x * math.exp(-x * x / 2), 0, math.inf)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_linearity(self):
        f = lambda x: math.exp(-x)
        g = lambda x: x * math.exp(-x * x / 2)
        lhs = integrate_adaptive(lambda x: 2.0 * f(x) + 3.0 * g(x), 0, math.inf)
        rhs = 2.0 * integrate_adaptive(f, 0, math.inf) + 3.0 * integrate_adaptive(g, 0, math.inf)
        assert abs(lhs - rhs) <= 2 * tolerance(rhs)

    def test_divergent_raises(self):
        with pytest.raises(NonConvergence):
            integrate_adaptive(lambda x: 1.0 / (1.0 + x), 0, math.inf)


class TestOscillatoryCos:
    def test_zero_frequency_is_adaptive(self):
        val = integrate_oscillatory_cos(lambda x: np.exp(-x), 0.0)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_gaussian_envelope(self):
        # int cos(x) e^{-x^2} dx = (sqrt(pi)/2) e^{-1/4}
        want = 0.5 * math.sqrt(math.pi) * math.exp(-0.25)
        assert integrate_oscillatory_cos(lambda x: np.exp(-x ** 2), 1.0) == pytest.approx(want, abs=1e-10)

    def test_cauchy_envelope(self):
        # int cos(x)/(1+x^2) dx = (pi/2) e^{-1}
        want = 0.5 * math.pi * math.exp(-1.0)
        assert integrate_oscillatory_cos(lambda x: 1.0 / (1.0 + x ** 2), 1.0) == pytest.approx(want, abs=1e-10)

    def test_evenness_in_w(self):
        g = lambda x: np.exp(-x ** 1.5)
        assert integrate_oscillatory_cos(g, 2.0) == integrate_oscillatory_cos(g, -2.0)

    @pytest.mark.parametrize("alpha,w", [(1.2, 1.0), (1.5, 33.0), (1.2, 75.0),
                                         (1.5, 0.01), (1.2, 1e-4)])
    def test_algebraic_envelopes_vs_quadpack_qawf(self, alpha, w):
        # independent oracle: QUADPACK's dedicated Fourier integrator
        g = lambda x: 1.0 / (1.0 + x ** alpha)
        ref = integrate.quad(g, 0, np.inf, weight="cos", wvar=w, limit=800)[0]
        assert integrate_oscillatory_cos(g, w) == pytest.approx(ref, abs=5e-10)

    def test_scalar_callable_accepted(self):
        g = lambda x: math.exp(-float(x) ** 2)  # rejects arrays
        want = 0.5 * math.sqrt(math.pi) * math.exp(-0.25)
        assert integrate_oscillatory_cos(g, 1.0) == pytest.approx(want, abs=1e-9)


class TestLaplaceInvertCdf:
    def test_exponential_cdf(self):
        phi = lambda q: 1.0 / (1.0 + q)
        for t in (0.1, 0.5, 1.0, 2.0, 5.0):
            assert laplace_invert_cdf(phi, t) == pytest.approx(1 - math.exp(-t), abs=2e-4)

    def test_exponential_cdf_high_order(self):
        # longdouble evaluation lets n_terms=20 reach ~1e-6
        phi = lambda q: 1.0 / (1.0 + q)
        for t in np.arange(0.1, 5.01, 0.1):
            est = laplace_invert_cdf(phi, float(t), n_terms=20)
            assert est == pytest.approx(1 - math.exp(-t), abs=1e-6)

    def test_point_mass(self):
        phi = lambda q: np.exp(-q)
        assert laplace_invert_cdf(phi, 2.0) == pytest.approx(1.0, abs=0.05)

    def test_one_sided_half_stable(self):
        # phi = e^{-sqrt q} is the law of 1/(4*Gamma_{1/2}); CDF erfc(1/(2 sqrt t))
        phi = lambda q: np.exp(-np.sqrt(q))
        assert laplace_invert_cdf(phi, 1.0, n_terms=16) == pytest.approx(special.erfc(0.5), abs=1e-5)
        assert laplace_invert_cdf(phi, 2.0, n_terms=16) == pytest.approx(special.erfc(1 / (2 * math.sqrt(2))), abs=1e-5)

    def test_clamped_and_monotone(self):
        for phi in (lambda q: 1.0 / (1.0 + q), lambda q: np.exp(-np.sqrt(q))):
            grid = [laplace_invert_cdf(phi, t) for t in np.linspace(0.05, 8.0, 40)]
            assert all(0.0 <= p <= 1.0 for p in grid)
            assert all(b >= a - 1e-12 for a, b in zip(grid, grid[1:]))

    def test_instability_reported(self):
        # an oscillating fake transform is not completely monotone
        bad = lambda q: math.cos(25.0 * float(q))
        with pytest.raises(NumericInstability):
            laplace_invert_cdf(bad, 1.0)

    def test_q_min_respected(self):
        phi = LaplaceTransform(eval=lambda q: 1.0 / (1.0 + q), q_min=0.5, label="exp")
        with pytest.raises(DomainError):
            laplace_invert_cdf(phi, 10.0)

    def test_bad_args(self):
        with pytest.raises(DomainError):
            laplace_invert_cdf(lambda q: 1.0, 0.0)
        with pytest.raises(DomainError):
            laplace_invert_cdf(lambda q: 1.0, 1.0, n_terms=7)


class TestInvertMonotone:
    def test_identity(self):
        assert invert_monotone(lambda x: x, 0.25, (0.0, 1.0)) == pytest.approx(0.25, abs=1e-10)

    def test_exponential_quantile(self):
        got = invert_monotone(lambda x: 1 - math.exp(-x), 0.5, (0.0, 10.0))
        assert got == pytest.approx(math.log(2), abs=1e-10)

    def test_sigmoid_median(self):
        got = invert_monotone(lambda x: 1 / (1 + math.exp(-x)), 0.5, (-5.0, 5.0))
        assert got == pytest.approx(0.0, abs=1e-10)

    def test_bracket_error(self):
        with pytest.raises(BracketError):
            invert_monotone(lambda x: x, 2.0, (0.0, 1.0))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.01, max_value=0.99))
    def test_roundtrip_property(self, p):
        F = lambda x: 0.5 * (1 + math.tanh(x))
        x = invert_monotone(F, p, (-20.0, 20.0))
        assert abs(F(x) - p) <= 1e-10
