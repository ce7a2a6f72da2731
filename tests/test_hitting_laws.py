import math

import numpy as np
import pytest

from stable_hitting import errors, hitting_laws, resolvent
from stable_hitting.errors import DegenerateDenominator, DomainError
from stable_hitting.hitting_laws import (HittingQuery, excursion_hit_lt,
                                         excursion_hit_lt_abs,
                                         excursion_hit_mass,
                                         excursion_hit_mass_abs,
                                         leg_decomposition_gap, lt_hit_abs,
                                         lt_hit_abs_series, lt_hit_before,
                                         lt_hit_either, lt_hit_point,
                                         lt_hit_pair_before_zero,
                                         lt_hit_three, lt_last_exit,
                                         lt_last_exit_abs, lt_post_exit,
                                         lt_post_exit_abs, prob_hit_before)
from stable_hitting.resolvent import resolvent_density

ALPHAS = [1.2, 1.5, 1.8, 2.0]


class TestHitPoint:
    def test_start_on_target(self):
        assert lt_hit_point(HittingQuery(1.5, 1.0, x=1.0, a=1.0)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("q", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_brownian(self, q, a):
        want = math.exp(-math.sqrt(q) * a)
        assert lt_hit_point(HittingQuery(2.0, q, a=a)) == pytest.approx(want, abs=1e-8)

    def test_in_unit_interval_decreasing_in_q(self):
        vals = [lt_hit_point(HittingQuery(1.5, q, a=1.0)) for q in (0.5, 1.0, 2.0, 4.0)]
        assert all(0 < v <= 1 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_tends_to_one_as_q_vanishes(self):
        vals = [lt_hit_point(HittingQuery(1.5, q, a=1.0)) for q in (1e-2, 1e-4, 1e-6)]
        assert vals[0] < vals[1] < vals[2] < 1.0
        assert vals[2] > 0.97

    def test_complete_monotonicity_divided_differences(self):
        # divided differences of a completely monotone function alternate sign
        grid = [0.5, 1.0, 2.0, 4.0, 8.0]
        for fn in (lambda q: lt_hit_point(HittingQuery(1.5, q, a=1.0)),
                   lambda q: lt_hit_abs(1.5, q, 1.0)):
            f = [fn(q) for q in grid]
            d1 = [(f[i + 1] - f[i]) / (grid[i + 1] - grid[i]) for i in range(4)]
            d2 = [(d1[i + 1] - d1[i]) / (grid[i + 2] - grid[i]) for i in range(3)]
            d3 = [(d2[i + 1] - d2[i]) / (grid[i + 3] - grid[i]) for i in range(2)]
            assert all(v < 0 for v in d1)
            assert all(v > 0 for v in d2)
            assert all(v < 0 for v in d3)


class TestHitEither:
    def test_start_on_either_target(self):
        assert lt_hit_either(HittingQuery(1.5, 1.0, x=1.0, a=1.0, b=-1.0)) == pytest.approx(1.0, abs=1e-12)
        assert lt_hit_either(HittingQuery(1.5, 1.0, x=-1.0, a=1.0, b=-1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_brownian_cosh(self):
        q, x, a, b = 1.3, 0.4, -1.0, 2.0
        want = (math.cosh(math.sqrt(q) * (x - (a + b) / 2))
                / math.cosh(math.sqrt(q) * (b - a) / 2))
        assert lt_hit_either(HittingQuery(2.0, q, x=x, a=a, b=b)) == pytest.approx(want, abs=1e-8)

    def test_equals_abs_value_form(self):
        got = lt_hit_either(HittingQuery(1.5, 1.0, x=0.0, a=1.0, b=-1.0))
        assert got == pytest.approx(lt_hit_abs(1.5, 1.0, 1.0), abs=1e-14)

    def test_requires_b(self):
        with pytest.raises(DomainError):
            lt_hit_either(HittingQuery(1.5, 1.0, a=1.0))


class TestHitBefore:
    def test_sum_rule(self):
        for alpha in (1.5, 2.0):
            fwd = lt_hit_before(HittingQuery(alpha, 1.0, x=0.3, a=1.0, b=-1.5))
            bwd = lt_hit_before(HittingQuery(alpha, 1.0, x=0.3, a=-1.5, b=1.0))
            both = lt_hit_either(HittingQuery(alpha, 1.0, x=0.3, a=1.0, b=-1.5))
            assert fwd + bwd == pytest.approx(both, abs=1e-12)

    def test_brownian_sinh(self):
        q, a, x, b = 0.7, -1.0, 0.2, 1.5
        want = math.sinh(math.sqrt(q) * (b - x)) / math.sinh(math.sqrt(q) * (b - a))
        assert lt_hit_before(HittingQuery(2.0, q, x=x, a=a, b=b)) == pytest.approx(want, abs=1e-8)

    def test_chain_rule(self):
        # phi_{x->a} = phi_{x->a<b} + phi_{x->b<a} phi_{b->a}
        alpha, q, x, a, b = 1.5, 1.0, 0.3, 1.0, -1.2
        lhs = lt_hit_point(HittingQuery(alpha, q, x=x, a=a))
        rhs = (lt_hit_before(HittingQuery(alpha, q, x=x, a=a, b=b))
               + lt_hit_before(HittingQuery(alpha, q, x=x, a=b, b=a))
               * lt_hit_point(HittingQuery(alpha, q, x=b, a=a)))
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestGetoor:
    def test_symmetric(self):
        assert prob_hit_before(1.5, 0.0, 1.0, -1.0) == pytest.approx(0.5, abs=1e-15)

    def test_formula_value(self):
        want = 0.5 * (1 + (math.sqrt(2) - 1))
        assert prob_hit_before(1.5, 0.0, 1.0, 2.0) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.707107, abs=1e-6)

    def test_q_limit_of_lt(self):
        target = prob_hit_before(1.5, 0.0, 1.0, 2.0)
        vals = [lt_hit_before(HittingQuery(1.5, q, x=0.0, a=1.0, b=2.0))
                for q in (1e-2, 1e-4, 1e-6)]
        errs = [abs(v - target) for v in vals]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 5e-3


class TestLastExitAndPostExit:
    def test_brownian_values(self):
        assert lt_last_exit(2.0, 1.0, 1.0) == pytest.approx((1 - math.exp(-2)) / 2, abs=1e-10)
        assert lt_post_exit(2.0, 1.0, 1.0) == pytest.approx(1 / math.sinh(1.0), abs=1e-10)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_product_rule(self, alpha, q, a):
        prod = lt_last_exit(alpha, q, a) * lt_post_exit(alpha, q, a)
        assert prod == pytest.approx(lt_hit_point(HittingQuery(alpha, q, a=a)), abs=1e-12)

    @pytest.mark.parametrize("alpha", [1.5, 1.8])
    def test_scaling_in_q_a_alpha(self, alpha):
        # law depends on (q, a) only through q |a|^alpha
        lhs = lt_last_exit(alpha, 1.0, 2.0)
        rhs = lt_last_exit(alpha, 2.0 ** alpha, 1.0)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_post_exit_bounded_decreasing(self):
        vals = [lt_post_exit(1.5, q, 1.0) for q in (0.5, 1.0, 2.0, 4.0)]
        assert all(0 < v <= 1 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_both_tend_to_one(self):
        g = [lt_last_exit(1.5, q, 1.0) for q in (1e-2, 1e-4, 1e-6)]
        x = [lt_post_exit(1.5, q, 1.0) for q in (1e-2, 1e-4, 1e-6)]
        assert g[0] < g[1] < g[2] < 1.0 and g[2] > 0.95
        assert x[0] < x[1] < x[2] < 1.0 and x[2] > 0.95


class TestExcursionPointMeasure:
    def test_brownian_mass(self):
        assert excursion_hit_mass(2.0, 1.0) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_mass_scaling(self, alpha):
        ratio = excursion_hit_mass(alpha, 2.0) / excursion_hit_mass(alpha, 1.0)
        assert ratio == pytest.approx(2.0 ** (1 - alpha), rel=1e-12)

    def test_joint_r_grid_approaches_limit(self):
        limit = excursion_hit_lt(1.5, 1.0, 1.0, r=None)
        errs = [abs(excursion_hit_lt(1.5, 1.0, 1.0, r=r) - limit)
                for r in (1e-2, 1e-4, 1e-6)]
        assert errs[0] > errs[1] > errs[2]
        # u_r(a)/u_r(0) approaches 1 only like r^{1-1/alpha} = r^{1/3} here
        assert errs[2] < 2e-2 * limit

    def test_double_limit_recovers_mass(self):
        mass = excursion_hit_mass(1.5, 1.0)
        errs = [abs(excursion_hit_lt(1.5, q, 1.0, r=q) - mass)
                for q in (1e-2, 1e-4, 1e-6)]
        assert errs[0] > errs[1] > errs[2]

    def test_post_exit_reconstruction(self):
        # n[e^{-q T_a}; T_a < zeta] / n(T_a < zeta) is the post-exit transform
        got = excursion_hit_lt(1.5, 1.0, 1.0) / excursion_hit_mass(1.5, 1.0)
        assert got == pytest.approx(lt_post_exit(1.5, 1.0, 1.0), abs=1e-13)

    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_last_exit_reconstruction(self, alpha):
        # 1/E[e^{-q G_a}] = 1 + n[1 - e^{-q zeta}; T_a > zeta] / n(T_a < zeta)
        q, a = 1.3, 1.0
        mass = excursion_hit_mass(alpha, a)
        lifetime_lt = 1.0 / resolvent_density(alpha, q, 0.0)  # n[1 - e^{-q zeta}]
        n_short = lifetime_lt - mass + excursion_hit_lt(alpha, q, a, r=q)
        assert 1.0 / lt_last_exit(alpha, q, a) == pytest.approx(1.0 + n_short / mass, abs=1e-12)


class TestHitAbs:
    def test_brownian_sech(self):
        assert lt_hit_abs(2.0, 1.0, 1.0) == pytest.approx(1 / math.cosh(1.0), abs=1e-10)
        assert 1 / math.cosh(1.0) == pytest.approx(0.648054, abs=1e-6)

    def test_series_bracket_contains_value(self):
        target = lt_hit_abs(1.5, 1.0, 1.0)
        for n in range(2, 51):
            _, (lo, hi) = lt_hit_abs_series(1.5, 1.0, 1.0, n)
            assert lo - 1e-14 <= target <= hi + 1e-14

    def test_series_geometric_tail(self):
        # |S_50 - lt| <= phi_{0->2a}^50, up to float rounding
        alpha, q, a = 1.5, 1.0, 1.0
        ratio = lt_hit_point(HittingQuery(alpha, q, a=2 * a))
        s50, _ = lt_hit_abs_series(alpha, q, a, 50)
        assert abs(s50 - lt_hit_abs(alpha, q, a)) <= ratio ** 50 + 1e-13

    def test_brownian_series_is_sech_expansion(self):
        # partial sums of 2 sum (-1)^n e^{-sqrt q (2n+1) a}
        q, a = 1.0, 1.0
        s, _ = lt_hit_abs_series(2.0, q, a, 40)
        want = sum(2 * (-1) ** n * math.exp(-math.sqrt(q) * (2 * n + 1) * a)
                   for n in range(40))
        assert s == pytest.approx(want, abs=1e-9)


class TestLegDecompositionGap:
    def test_brownian_vanishes(self):
        for n in (1, 3, 7):
            assert abs(leg_decomposition_gap(2.0, 1.0, 1.0, n)) <= 1e-12

    def test_strictly_positive_below_two(self):
        for n in range(1, 11):
            assert leg_decomposition_gap(1.5, 1.0, 1.0, n) > 0.0

    @pytest.mark.parametrize("alpha", [1.2, 1.8])
    @pytest.mark.parametrize("q", [0.5, 2.0])
    @pytest.mark.parametrize("a", [0.5, 1.0])
    def test_two_form_agreement_grid(self, alpha, q, a):
        # ConsistencyError inside would signal >1e-9 disagreement
        for n in (1, 2, 5):
            assert leg_decomposition_gap(alpha, q, a, n) > -1e-12


class TestThreePoint:
    def test_start_on_targets(self):
        for x in (0.0, 1.0, -1.0):
            assert lt_hit_three(1.5, 1.0, x, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        assert lt_hit_three(1.5, 1.0, 0.4, 1.0) == lt_hit_three(1.5, 1.0, -0.4, 1.0)

    def test_dominates_two_point(self):
        # extra target means an earlier stop, hence a larger transform
        three = lt_hit_three(1.5, 1.0, 0.5, 1.0)
        two = lt_hit_either(HittingQuery(1.5, 1.0, x=0.5, a=1.0, b=-1.0))
        assert three >= two

    def test_pair_before_zero_at_target(self):
        assert lt_hit_pair_before_zero(1.5, 1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_pair_before_zero_alternate_assembly(self):
        alpha, q, x, a = 1.5, 1.0, 0.4, 1.0
        direct = lt_hit_pair_before_zero(alpha, q, x, a)
        pair_x = lt_hit_either(HittingQuery(alpha, q, x=x, a=a, b=-a))
        pair_0 = lt_hit_either(HittingQuery(alpha, q, x=0.0, a=a, b=-a))
        three_x = lt_hit_three(alpha, q, x, a)
        assembled = (pair_x - pair_0 * three_x) / (1.0 - pair_0)
        assert direct == pytest.approx(assembled, abs=1e-9)

    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_small_start_ratio_limit(self, alpha):
        # phi_{x -> {a,-a} < 0} / h(x) -> 2 u_q(a) / V_q(a) as x -> 0
        from stable_hitting.resolvent import potential_kernel
        q, a = 1.0, 1.0
        want = excursion_hit_lt_abs(alpha, q, a)  # equals 2 u_q(a)/V_q(a)
        x = 1e-3
        got = lt_hit_pair_before_zero(alpha, q, x, a) / potential_kernel(alpha, x)
        assert got == pytest.approx(want, rel=2e-3)


class TestAbsLastExitPostExit:
    def test_brownian_values(self):
        assert lt_last_exit_abs(2.0, 1.0, 1.0) == pytest.approx(math.tanh(1.0), abs=1e-10)
        assert lt_post_exit_abs(2.0, 1.0, 1.0) == pytest.approx(1 / math.sinh(1.0), abs=1e-10)

    def test_post_exit_matches_point_case_at_two(self):
        # Brownian symmetry: both post-exit laws are the Bessel(3) passage time
        assert lt_post_exit_abs(2.0, 1.3, 0.7) == pytest.approx(lt_post_exit(2.0, 1.3, 0.7), abs=1e-12)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_product_rule_abs(self, alpha, q, a):
        prod = lt_last_exit_abs(alpha, q, a) * lt_post_exit_abs(alpha, q, a)
        assert prod == pytest.approx(lt_hit_abs(alpha, q, a), abs=1e-12)

    def test_scaling(self):
        alpha = 1.8
        assert lt_last_exit_abs(alpha, 1.0, 2.0) == pytest.approx(
            lt_last_exit_abs(alpha, 2.0 ** alpha, 1.0), abs=1e-9)

    def test_mass_abs_brownian(self):
        # h(1) = 1/2, h(2) = 1, so m(T_1 < zeta) = 2/(2 - 1) = 2
        assert excursion_hit_mass_abs(2.0, 1.0) == pytest.approx(2.0, abs=1e-13)

    def test_post_exit_reconstruction_abs(self):
        got = excursion_hit_lt_abs(1.5, 1.0, 1.0) / excursion_hit_mass_abs(1.5, 1.0)
        assert got == pytest.approx(lt_post_exit_abs(1.5, 1.0, 1.0), abs=1e-13)

    def test_joint_abs_r_grid(self):
        limit = excursion_hit_lt_abs(1.5, 1.0, 1.0, r=None)
        errs = [abs(excursion_hit_lt_abs(1.5, 1.0, 1.0, r=r) - limit)
                for r in (1e-2, 1e-4, 1e-6)]
        assert errs[0] > errs[1] > errs[2]


class TestScaleInvariance:
    @pytest.mark.parametrize("c", [0.5, 3.0])
    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8, 2.0])
    def test_all_six_transforms(self, c, alpha):
        q, a = 1.0, 1.0
        qc, ac = q / c ** alpha, c * a
        pairs = [
            (lt_hit_point(HittingQuery(alpha, q, a=a)), lt_hit_point(HittingQuery(alpha, qc, a=ac))),
            (lt_last_exit(alpha, q, a), lt_last_exit(alpha, qc, ac)),
            (lt_post_exit(alpha, q, a), lt_post_exit(alpha, qc, ac)),
            (lt_hit_abs(alpha, q, a), lt_hit_abs(alpha, qc, ac)),
            (lt_last_exit_abs(alpha, q, a), lt_last_exit_abs(alpha, qc, ac)),
            (lt_post_exit_abs(alpha, q, a), lt_post_exit_abs(alpha, qc, ac)),
        ]
        for lhs, rhs in pairs:
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestQueryValidation:
    # a HittingQuery holds any values; the law that reads them checks them
    def test_alpha_range(self):
        query = HittingQuery(1.0, 1.0)
        with pytest.raises(DomainError, match="requires 1 < alpha <= 2"):
            lt_hit_point(query)

    def test_rate_positive(self):
        query = HittingQuery(1.5, 0.0)
        with pytest.raises(DomainError, match="q must be positive"):
            lt_hit_point(query)

    def test_coincident_targets(self):
        query = HittingQuery(1.5, 1.0, a=1.0, b=1.0)
        for law in (lt_hit_either, lt_hit_before):
            with pytest.raises(DomainError, match="targets a and b must differ"):
                law(query)

    def test_zero_target_rejected(self):
        with pytest.raises(DomainError):
            lt_last_exit(1.5, 1.0, 0.0)
        with pytest.raises(DomainError):
            excursion_hit_mass(1.5, 0.0)

    def test_second_target_rule_is_shared(self):
        # b must be given and differ from a, and a NaN b fails
        for b, message in ((None, "second target b required"),
                           (1.0, "targets a and b must differ"),
                           (math.nan, "targets a and b must differ")):
            query = HittingQuery(1.5, 1.0, a=1.0, b=b)
            for law in (lt_hit_either, lt_hit_before):
                with pytest.raises(DomainError, match=message):
                    law(query)
            if b is not None:
                with pytest.raises(DomainError, match=message):
                    prob_hit_before(1.5, 0.0, 1.0, b)

    @pytest.mark.parametrize("law", [lt_hit_point, lt_hit_either, lt_hit_before])
    def test_alpha_and_q_checked_once(self, monkeypatch, law):
        seen = []

        def point_alpha(alpha):
            seen.append("alpha")
            return errors._point_alpha(alpha)

        def positive(name, value):
            seen.append(name)
            return errors._positive(name, value)

        for module in (hitting_laws, resolvent):
            monkeypatch.setattr(module, "_point_alpha", point_alpha)
            monkeypatch.setattr(module, "_positive", positive)
        law(HittingQuery(1.5, 0.7, x=0.3, a=1.0, b=-1.0))
        assert seen == ["alpha", "q"]


class TestDegenerateDenominator:
    # at a level far below the scale q^{-1/alpha} the denominators round to 0
    def test_post_exit(self):
        with pytest.raises(DegenerateDenominator,
                           match=r"u_q\(0\)\^2 - u_q\(d\)\^2 = 0.0 for d = 1e-300"):
            lt_post_exit(1.5, 1.0, 1e-300)

    def test_post_exit_abs(self):
        with pytest.raises(DegenerateDenominator, match=r"V_q\(a\) = 0.0 <= 0"):
            lt_post_exit_abs(1.5, 1.0, 1e-300)


# every law in q, called with the rate q and the levels x, a, b and r of one
# row (each law takes the ones it has)
Q_LAWS = {
    "lt_hit_point": lambda q, x, a, b, r: lt_hit_point(
        HittingQuery(1.5, q, x=x, a=a)),
    "lt_hit_either": lambda q, x, a, b, r: lt_hit_either(
        HittingQuery(1.5, q, x=x, a=a, b=b)),
    "lt_hit_before": lambda q, x, a, b, r: lt_hit_before(
        HittingQuery(1.5, q, x=x, a=a, b=b)),
    "lt_last_exit": lambda q, x, a, b, r: lt_last_exit(1.5, q, a),
    "lt_post_exit": lambda q, x, a, b, r: lt_post_exit(1.5, q, a),
    "excursion_hit_lt": lambda q, x, a, b, r: excursion_hit_lt(1.5, q, a, r=r),
    "lt_hit_abs": lambda q, x, a, b, r: lt_hit_abs(1.5, q, a),
    "lt_hit_abs_series":
        lambda q, x, a, b, r: lt_hit_abs_series(1.5, q, a, 7)[1][0],
    "leg_decomposition_gap":
        lambda q, x, a, b, r: leg_decomposition_gap(1.5, q, a, 2),
    "lt_hit_three": lambda q, x, a, b, r: lt_hit_three(1.5, q, x, a),
    "lt_hit_pair_before_zero":
        lambda q, x, a, b, r: lt_hit_pair_before_zero(1.5, q, x, a),
    "lt_last_exit_abs": lambda q, x, a, b, r: lt_last_exit_abs(1.5, q, a),
    "lt_post_exit_abs": lambda q, x, a, b, r: lt_post_exit_abs(1.5, q, a),
    "excursion_hit_lt_abs":
        lambda q, x, a, b, r: excursion_hit_lt_abs(1.5, q, a, r=r),
}
ROW = {"x": 0.3, "a": 1.2, "b": -0.7, "r": 0.4}


def _random_row(n):
    """n random rates q and levels x, a, b, r, spread over decades so that
    a numpy ``power`` in place of C ``pow`` would change some last bits."""
    rng = np.random.default_rng(20)
    sign = rng.choice([-1.0, 1.0], size=(2, n))
    return 10.0 ** rng.uniform(-3, 3, n), {
        "x": rng.uniform(-3, 3, n),
        "a": sign[0] * 10.0 ** rng.uniform(-2, 1, n),
        "b": sign[1] * 10.0 ** rng.uniform(-2, 1, n),
        "r": 10.0 ** rng.uniform(-2, 2, n)}


class TestArrayRate:
    @pytest.mark.parametrize("name", sorted(Q_LAWS))
    def test_elements_equal_the_float_calls(self, name):
        law = Q_LAWS[name]
        q = np.geomspace(1e-3, 1e3, 41)
        got = law(q, **ROW)
        want = np.array([law(float(v), **ROW) for v in q])
        assert got.shape == q.shape
        assert got.tobytes() == want.tobytes()
        # every level an array of q's shape too, and each alone
        q, levels = _random_row(128)
        for given in (levels, *({k: c} for k, c in levels.items())):
            row = {**ROW, **given}
            want = np.array([law(float(v), **{
                k: float(c[i]) if k in given else c for k, c in row.items()})
                for i, v in enumerate(q)])
            got = law(q, **row)
            assert got.shape == q.shape
            assert got.tobytes() == want.tobytes(), sorted(given)

    @pytest.mark.parametrize("law", [
        lambda a: resolvent.potential_kernel(1.5, a),
        lambda a: excursion_hit_mass(1.5, a),
        lambda a: excursion_hit_mass_abs(1.5, a)],
        ids=["potential_kernel", "excursion_hit_mass",
             "excursion_hit_mass_abs"])
    def test_level_arrays_equal_the_float_calls(self, law):
        a = _random_row(128)[1]["a"]
        want = np.array([law(float(v)) for v in a])
        assert law(a).tobytes() == want.tobytes()

    def test_getoor_arrays_equal_the_float_calls(self):
        # x, a and b each an array, together and each alone
        _, levels = _random_row(128)
        row = {"x": 0.3, "a": 1.2, "b": -0.7}
        for alpha in (1.05, 1.5, 2.0):
            for given in ({k: levels[k] for k in row},
                          *({k: levels[k]} for k in row)):
                args = {**row, **given}
                want = np.array([prob_hit_before(alpha, *map(float, v))
                                 for v in np.broadcast(*args.values())])
                got = prob_hit_before(alpha, **args)
                assert got.tobytes() == want.tobytes(), sorted(given)

    def test_one_degenerate_element_raises(self):
        # at q = 1 the level 1e-150 is far below the scale q^{-1/alpha}
        with pytest.raises(DegenerateDenominator):
            lt_post_exit(1.5, np.array([1e-300, 1.0]), 1e-150)
        with pytest.raises(DegenerateDenominator, match="V_q"):
            lt_post_exit_abs(1.5, np.array([1e-300, 1.0]), 1e-150)

    def test_squares_are_products(self):
        # u(a) ** 2 calls C pow, which can differ from u(a) * u(a); V_q
        # forms the product, so a float q gives what numpy's array path does
        u = resolvent._resolvent(1.5, 0.37)
        ua, u0, u2a = u(0.9), u(0.0), u(1.8)
        assert (hitting_laws._v_q(u0, ua, u2a)
                == u0 * u0 + u0 * u2a - 2.0 * ua * ua)

    @pytest.mark.parametrize("q", [0.37, np.geomspace(1e-3, 1e3, 7)],
                             ids=["float", "array"])
    @pytest.mark.parametrize("name", sorted(set(Q_LAWS)
                                            - {"leg_decomposition_gap"}))
    def test_each_level_is_read_once(self, monkeypatch, name, q):
        # leg_decomposition_gap is left out: it reads u((2n+1)a) and
        # u((2n-1)a) again through lt_hit_before, the independent second
        # route behind its ConsistencyError
        closures = []

        def counting(alpha, rate):
            u, levels = resolvent._resolvent(alpha, rate), []
            closures.append(levels)

            def read(y):
                levels.append(y)
                return u(y)
            return read

        monkeypatch.setattr(hitting_laws, "_resolvent", counting)
        Q_LAWS[name](q, **ROW)
        assert closures and all(closures)
        for levels in closures:
            assert len(levels) == len(set(levels)), levels

    def test_numpy_float_rate_is_a_float_rate(self):
        # a numpy float q makes the checks numpy bools, not arrays
        q = np.float64(0.7)
        assert lt_post_exit(1.5, q, 1.2) == lt_post_exit(1.5, 0.7, 1.2)
        with pytest.raises(DegenerateDenominator):
            lt_post_exit(1.5, np.float64(1.0), 1e-300)
