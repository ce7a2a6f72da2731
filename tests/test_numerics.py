import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, special

from stable_hitting import numerics
from stable_hitting.errors import DomainError, NonConvergence, NumericInstability
from stable_hitting.numerics import (ABS_TOL, REL_TOL, _invert_cdf_rows,
                                     integrate_adaptive,
                                     integrate_oscillatory_cos,
                                     laplace_invert_cdf, tolerance)


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

    @pytest.mark.parametrize("lo", [0.5, 8.5 * math.pi])
    def test_lower_limit(self, lo):
        # e^{-x} (sin x - cos x)/2 is an antiderivative of cos(x) e^{-x}
        want = -0.5 * math.exp(-lo) * (math.sin(lo) - math.cos(lo))
        got = integrate_oscillatory_cos(lambda x: math.exp(-x), 1.0, lo=lo)
        assert got == pytest.approx(want, abs=1e-12)

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

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_transform_raises_without_warning(self, value):
        # the sums run with floating-point warnings silenced, as in the rows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericInstability,
                               match=r"^non-finite inversion estimate at t=1\.0$"):
                laplace_invert_cdf(lambda q: value, 1.0)

    @pytest.mark.parametrize("n_terms", [4, 12, 16])
    def test_transform_called_once_per_node_on_scalars(self, n_terms):
        seen = []

        def phi(q):
            seen.append(q)
            return 1.0 / (1.0 + q)

        laplace_invert_cdf(phi, 1.37, n_terms)
        ln2_t = np.log(np.longdouble(2)) / np.longdouble(1.37)
        assert [type(q) for q in seen] == [np.longdouble] * n_terms
        assert seen == [np.longdouble(k) * ln2_t for k in range(1, n_terms + 1)]

    @pytest.mark.parametrize("n_terms", [4, 12, 16, 20, 40])
    def test_weights_equal_stehfest_formula(self, n_terms):
        # Stehfest's sum of rationals, as published, is the reference
        fac = math.factorial
        weights, k = numerics._stehfest_weights(n_terms)
        assert k.tolist() == list(range(1, n_terms + 1))
        for row, n in enumerate((n_terms, n_terms - 2)):
            n2 = n // 2
            want = []
            for j in range(1, n + 1):
                acc = Fraction(0)
                for i in range((j + 1) // 2, min(j, n2) + 1):
                    acc += Fraction(i ** n2 * fac(2 * i),
                                    fac(n2 - i) * fac(i) * fac(i - 1)
                                    * fac(j - i) * fac(2 * i - j))
                acc *= (-1) ** (n2 + j)
                want.append(np.longdouble(acc.numerator)
                            / np.longdouble(acc.denominator))
            assert weights[row].tolist() == want + [0.0] * (n_terms - n)

    @pytest.mark.parametrize("n_terms", [12, 16, 20])
    def test_sums_equal_the_term_loop(self, n_terms):
        # the loop over terms that the array sums replaced is the reference:
        # terms added one at a time, k = 1, 2, ..., in extended precision.
        # The weights cancel in a smooth transform's values, so another
        # order of the same terms shows in the rounded double from 12 terms
        ld = np.longdouble
        phi = lambda q: np.exp(-np.sqrt(q))

        def loop_estimate(t, n):
            weights = numerics._stehfest_weights(n)[0][0]
            ln2_t = np.log(ld(2)) / ld(t)
            acc = ld(0.0)
            for k in range(1, n + 1):
                acc += weights[k - 1] * phi(ld(k) * ln2_t) / ld(k)
            return float(acc)

        ts = np.geomspace(1e-3, 1e4, 64)
        want = []
        for t in ts:
            est, check = loop_estimate(t, n_terms), loop_estimate(t, n_terms - 2)
            assert abs(est - check) <= 0.1
            want.append(min(1.0, max(0.0, est)))
        assert _invert_cdf_rows(phi, ts, n_terms).tolist() == want
        assert [laplace_invert_cdf(phi, t, n_terms) for t in ts] == want

    @pytest.mark.parametrize("phi,match", [
        (lambda q: np.exp(-q) * (1.0 + 0.5 * np.sin(3.0 * q)), "terms differ"),
        (lambda q: np.where(q > 50.0, np.nan, 1.0 / (1.0 + q)), "non-finite"),
    ], ids=["gap", "non-finite"])
    def test_both_inverters_fail_alike(self, phi, match):
        # the walk down from t = 100 passes several points before failing
        ts = np.geomspace(100.0, 1e-2, 25)
        with pytest.raises(NumericInstability, match=match) as rows:
            _invert_cdf_rows(phi, ts, 12)
        passed = 0
        for t in ts:
            try:
                laplace_invert_cdf(phi, t)
            except NumericInstability as exc:
                assert str(exc) == str(rows.value)
                break
            passed += 1
        assert passed >= 5

    def test_rows_leave_the_transforms_warnings_to_the_caller(self):
        # the transform runs under the caller's errstate; only the sums are
        # silenced, so a silenced overflow ends as a non-finite estimate
        phi = lambda q: np.exp(q * 1e4)
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                _invert_cdf_rows(phi, [1.0], 12)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericInstability, match="non-finite"):
                _invert_cdf_rows(phi, [1.0], 12)

    def test_bad_args(self):
        with pytest.raises(DomainError):
            laplace_invert_cdf(lambda q: 1.0, 0.0)
        with pytest.raises(DomainError):
            laplace_invert_cdf(lambda q: 1.0, 1.0, n_terms=7)
