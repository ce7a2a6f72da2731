"""Domain checks: every parameter rule is one validator of ``errors``, and a
NaN parameter fails each of them with DomainError."""

import math

import numpy as np
import pytest

from stable_hitting import distributions as dist
from stable_hitting import hitting_laws as hl
from stable_hitting import resolvent
from stable_hitting import sampling as smp
from stable_hitting.errors import (ConsistencyError, DomainError, _alpha,
                                   _consistent, _count, _finite, _inside,
                                   _nonnegative, _nonzero, _point_alpha,
                                   _positive)
from stable_hitting.numerics import laplace_invert_cdf

NAN = math.nan


def _stream():
    return smp.RandomStream(1)


def _phi(q):
    return 1.0 / (1.0 + q)


# (label, call); each call passes NaN for exactly one checked parameter
NAN_CALLS = [
    ("transition_density/alpha", lambda: resolvent.transition_density(NAN, 1.0, 0.5)),
    ("transition_density/t", lambda: resolvent.transition_density(1.5, NAN, 0.5)),
    ("resolvent_density/q", lambda: resolvent.resolvent_density(1.5, NAN, 0.5)),
    ("lt_last_exit/alpha", lambda: hl.lt_last_exit(NAN, 1.0, 1.0)),
    ("lt_last_exit/q", lambda: hl.lt_last_exit(1.5, NAN, 1.0)),
    ("lt_last_exit/a", lambda: hl.lt_last_exit(1.5, 1.0, NAN)),
    ("lt_hit_point/alpha", lambda: hl.lt_hit_point(hl.HittingQuery(NAN, 1.0))),
    ("lt_hit_point/q", lambda: hl.lt_hit_point(hl.HittingQuery(1.5, NAN))),
    ("lt_hit_either/b",
     lambda: hl.lt_hit_either(hl.HittingQuery(1.5, 1.0, a=1.0, b=NAN))),
    ("lt_hit_before/b",
     lambda: hl.lt_hit_before(hl.HittingQuery(1.5, 1.0, a=1.0, b=NAN))),
    ("prob_hit_before/b", lambda: hl.prob_hit_before(1.5, 0.0, 1.0, NAN)),
    ("lt_hit_point/a", lambda: hl.lt_hit_point(hl.HittingQuery(1.5, 1.0, a=NAN))),
    ("lt_hit_point/x", lambda: hl.lt_hit_point(hl.HittingQuery(1.5, 1.0, x=NAN))),
    ("lt_hit_three/x", lambda: hl.lt_hit_three(1.5, 1.0, NAN, 1.0)),
    ("lt_hit_pair_before_zero/x",
     lambda: hl.lt_hit_pair_before_zero(1.5, 1.0, NAN, 1.0)),
    ("prob_hit_before/x", lambda: hl.prob_hit_before(1.5, NAN, 1.0, 2.0)),
    ("lt_hit_either/x",
     lambda: hl.lt_hit_either(hl.HittingQuery(1.5, 1.0, x=NAN, a=1.0, b=2.0))),
    ("lt_hit_before/x",
     lambda: hl.lt_hit_before(hl.HittingQuery(1.5, 1.0, x=NAN, a=1.0, b=2.0))),
    ("excursion_hit_mass_abs/alpha", lambda: hl.excursion_hit_mass_abs(NAN, 1.0)),
    ("excursion_hit_mass_abs/a", lambda: hl.excursion_hit_mass_abs(1.5, NAN)),
    ("excursion_hit_lt/r", lambda: hl.excursion_hit_lt(1.5, 1.0, 1.0, r=NAN)),
    ("excursion_hit_lt_abs/a", lambda: hl.excursion_hit_lt_abs(1.5, 1.0, NAN)),
    ("alpha_cauchy_density/alpha", lambda: dist.alpha_cauchy_density(NAN, 0.5)),
    ("meixner_density/beta", lambda: dist.meixner_density(NAN, 1.0, 0.5)),
    ("meixner_density/t", lambda: dist.meixner_density(0.5, NAN, 0.5)),
    ("alpha_rayleigh_survival/alpha", lambda: dist.alpha_rayleigh_survival(NAN, 0.5)),
    ("alpha_rayleigh_survival/x", lambda: dist.alpha_rayleigh_survival(1.5, NAN)),
    ("beta_prime_density/x", lambda: dist.beta_prime_density(1.0, 2.0, NAN)),
    ("z_density/a", lambda: dist.z_density(NAN, 0.5)),
    ("sample_gamma/a", lambda: smp.sample_gamma(NAN, _stream(), 3)),
    ("sample_beta/b", lambda: smp.sample_beta(1.0, NAN, _stream(), 3)),
    ("sample_overshoot/alpha", lambda: smp.sample_overshoot(NAN, 1.0, _stream(), 3)),
    ("sample_overshoot/a", lambda: smp.sample_overshoot(1.5, NAN, _stream(), 3)),
    ("sample_hitting_time/alpha", lambda: smp.sample_hitting_time(NAN, 1.0, _stream(), 3)),
    ("sample_hitting_time/a", lambda: smp.sample_hitting_time(1.5, NAN, _stream(), 3)),
    ("sample_gamma_series_subordinator/a",
     lambda: smp.sample_gamma_series_subordinator(NAN, 1.0, _stream(), 3)),
    ("sample_gamma_series_subordinator/t",
     lambda: smp.sample_gamma_series_subordinator(1.0, NAN, _stream(), 3)),
    ("sample_unilateral_stable/beta",
     lambda: smp.sample_unilateral_stable(NAN, _stream(), 3)),
    ("sample_excursion_age_duration/gamma",
     lambda: smp.sample_excursion_age_duration(NAN, _stream(), 3)),
    ("tanh_subordinator_lt/t", lambda: smp.tanh_subordinator_lt(NAN)),
    ("laplace_invert_cdf/t", lambda: laplace_invert_cdf(_phi, NAN)),
    ("u1_zero/alpha", lambda: resolvent.u1_zero(NAN)),
    ("potential_kernel_at_one/alpha",
     lambda: resolvent.potential_kernel_at_one(NAN)),
    ("leg_decomposition_gap/n",
     lambda: hl.leg_decomposition_gap(1.5, 1.0, 1.0, NAN)),
    ("lt_hit_abs_series/n_terms",
     lambda: hl.lt_hit_abs_series(1.5, 1.0, 1.0, NAN)),
    ("laplace_invert_cdf/n_terms",
     lambda: laplace_invert_cdf(_phi, 1.0, n_terms=NAN)),
]


@pytest.mark.parametrize("label,call", NAN_CALLS, ids=[c[0] for c in NAN_CALLS])
def test_nan_parameter_raises_domain_error(label, call):
    with pytest.raises(DomainError):
        call()


# the functions that check alpha in (0, 2] through ``_alpha``
ALPHA_CALLS = {
    "sample_sym_stable": lambda al: smp.sample_sym_stable(al, _stream(), 3),
    "sample_alpha_rayleigh": lambda al: smp.sample_alpha_rayleigh(al, _stream(), 3),
    "sample_linnik": lambda al: smp.sample_linnik(al, _stream(), 3),
    "sample_overshoot": lambda al: smp.sample_overshoot(al, 1.0, _stream(), 3),
    "linnik_density": lambda al: dist.linnik_density(al, 1.0),
}


@pytest.mark.parametrize("alpha", [0.0, 2.5, NAN])
@pytest.mark.parametrize("name", sorted(ALPHA_CALLS))
def test_alpha_outside_zero_two_names_alpha(name, alpha):
    with pytest.raises(DomainError, match="alpha"):
        ALPHA_CALLS[name](alpha)


# (label, call); each call passes one finite value outside its domain
OUTSIDE_CALLS = [
    ("u1_zero/alpha=2.5", lambda: resolvent.u1_zero(2.5)),
    ("potential_kernel_at_one/alpha=0.5",
     lambda: resolvent.potential_kernel_at_one(0.5)),
    ("potential_kernel_at_one/alpha=1",
     lambda: resolvent.potential_kernel_at_one(1.0)),
    ("potential_kernel_at_one/alpha=3.5",
     lambda: resolvent.potential_kernel_at_one(3.5)),
    ("leg_decomposition_gap/n=1.5",
     lambda: hl.leg_decomposition_gap(1.5, 1.0, 1.0, 1.5)),
    ("lt_hit_abs_series/n_terms=2.5",
     lambda: hl.lt_hit_abs_series(1.5, 1.0, 1.0, 2.5)),
    ("laplace_invert_cdf/n_terms=5",
     lambda: laplace_invert_cdf(_phi, 1.0, n_terms=5)),
]


@pytest.mark.parametrize("label,call", OUTSIDE_CALLS,
                         ids=[c[0] for c in OUTSIDE_CALLS])
def test_outside_domain_raises_domain_error(label, call):
    with pytest.raises(DomainError):
        call()


def test_u1_zero_keeps_its_own_rule_below_one():
    with pytest.raises(DomainError, match="infinite for alpha <= 1"):
        resolvent.u1_zero(0.5)


class TestValidators:
    def test_each_returns_its_value(self):
        assert _alpha(2) == 2.0 and isinstance(_alpha(2), float)
        assert _point_alpha(1.5) == 1.5
        assert _positive("q", 0.25) == 0.25
        assert _inside("beta", -3.0, -math.pi, math.pi) == -3.0
        assert _nonzero(-1.0) == -1.0
        assert _count("n", 3.0, 1) == 3
        assert _finite("x", -0.5) == -0.5
        assert isinstance(_count("n", 3.0, 1), int)

    @pytest.mark.parametrize("check", [
        lambda v: _alpha(v), lambda v: _point_alpha(v),
        lambda v: _positive("t", v), lambda v: _inside("gamma", v, 0.0, 1.0),
        lambda v: _nonzero(v), lambda v: _count("n", v, 1),
        lambda v: _finite("x", v)])
    def test_nan_fails_each(self, check):
        with pytest.raises(DomainError):
            check(NAN)

    def test_open_interval_excludes_both_ends(self):
        for v in (0.0, 1.0):
            with pytest.raises(DomainError, match=r"gamma=.* outside \(0, 1\)"):
                _inside("gamma", v, 0.0, 1.0)

    def test_positive_names_the_parameter(self):
        with pytest.raises(DomainError, match="^t must be positive$"):
            _positive("t", 0.0)
        # an array fails where one element does, with the float message
        for bad in (0.0, NAN, -math.inf, -1.0):
            with pytest.raises(DomainError, match="^t must be positive$"):
                _positive("t", np.array([1.0, bad, math.inf]))

    def test_nonnegative_names_the_parameter(self):
        assert _nonnegative("x", 0.0) == 0.0
        for bad in (-1e-300, NAN, -math.inf):
            with pytest.raises(DomainError, match="^x must be nonnegative$"):
                _nonnegative("x", bad)
            with pytest.raises(DomainError, match="^x must be nonnegative$"):
                _nonnegative("x", np.array([0.0, bad, math.inf]))
        good = np.array([0.0, 0.5, math.inf])
        assert _nonnegative("x", good) is good

    def test_count_names_the_parameter(self):
        with pytest.raises(DomainError, match="^n_terms must be >= 1$"):
            _count("n_terms", 0, 1)
        with pytest.raises(DomainError, match=r"^n=1\.5 is not an integer$"):
            _count("n", 1.5, 1)
        with pytest.raises(DomainError, match="^n=inf is not an integer$"):
            _count("n", math.inf, 1)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, NAN])
    def test_finite_names_the_parameter(self, value):
        with pytest.raises(DomainError, match="^x must be finite$"):
            _finite("x", value)
        with pytest.raises(DomainError, match="^x must be finite$"):
            _finite("x", np.array([0.5, value, -1.0]))

    def test_consistent_names_both_routes(self):
        assert _consistent(0.25, 0.25 + 5e-10, 1e-9, "D_n", "n", 2) == 0.25
        for second in (0.25 + 2e-9, NAN, math.inf):
            with pytest.raises(ConsistencyError,
                               match=r"^D_n routes disagree: 0\.25 vs .* at n=2$"):
                _consistent(0.25, second, 1e-9, "D_n", "n", 2)
        good = np.array([0.25, -1.0])
        assert _consistent(good, good - 5e-10, 1e-9, "D_n", "n", 2) is good
        with pytest.raises(ConsistencyError, match="^D_n routes disagree: "):
            _consistent(good, good + np.array([0.0, NAN]), 1e-9, "D_n", "n", 2)

    def test_arrays_pass_whole(self):
        good = np.array([-2.0, 0.5, 1e300])
        assert _finite("x", good) is good
        assert _nonzero(good) is good
        assert _positive("q", abs(good)).tobytes() == abs(good).tobytes()
        assert _positive("q", np.array([])).size == 0


# (label, call(level)); each call passes ``level`` as its one target level
LEVEL_CALLS = [
    ("lt_hit_point", lambda a: hl.lt_hit_point(hl.HittingQuery(1.5, 1.0, a=a))),
    ("lt_hit_either/a",
     lambda a: hl.lt_hit_either(hl.HittingQuery(1.5, 1.0, a=a, b=1.0))),
    ("lt_hit_either/b",
     lambda a: hl.lt_hit_either(hl.HittingQuery(1.5, 1.0, a=1.0, b=a))),
    ("lt_hit_before/a",
     lambda a: hl.lt_hit_before(hl.HittingQuery(1.5, 1.0, a=a, b=1.0))),
    ("lt_hit_before/b",
     lambda a: hl.lt_hit_before(hl.HittingQuery(1.5, 1.0, a=1.0, b=a))),
    ("prob_hit_before/a", lambda a: hl.prob_hit_before(1.5, 0.0, a, 1.0)),
    ("prob_hit_before/b", lambda a: hl.prob_hit_before(1.5, 0.0, 1.0, a)),
    ("lt_last_exit", lambda a: hl.lt_last_exit(1.5, 1.0, a)),
    ("lt_post_exit", lambda a: hl.lt_post_exit(1.5, 1.0, a)),
    ("excursion_hit_mass", lambda a: hl.excursion_hit_mass(1.5, a)),
    ("excursion_hit_lt", lambda a: hl.excursion_hit_lt(1.5, 1.0, a)),
    ("lt_hit_abs", lambda a: hl.lt_hit_abs(1.5, 1.0, a)),
    ("lt_hit_abs_series", lambda a: hl.lt_hit_abs_series(1.5, 1.0, a, 4)),
    ("leg_decomposition_gap", lambda a: hl.leg_decomposition_gap(1.5, 1.0, a, 1)),
    ("lt_hit_three", lambda a: hl.lt_hit_three(1.5, 1.0, 0.5, a)),
    ("lt_hit_pair_before_zero",
     lambda a: hl.lt_hit_pair_before_zero(1.5, 1.0, 0.5, a)),
    ("lt_last_exit_abs", lambda a: hl.lt_last_exit_abs(1.5, 1.0, a)),
    ("lt_post_exit_abs", lambda a: hl.lt_post_exit_abs(1.5, 1.0, a)),
    ("excursion_hit_mass_abs", lambda a: hl.excursion_hit_mass_abs(1.5, a)),
    ("excursion_hit_lt_abs", lambda a: hl.excursion_hit_lt_abs(1.5, 1.0, a)),
    ("sample_hitting_time",
     lambda a: smp.sample_hitting_time(1.5, a, _stream(), 3)),
    ("sample_overshoot", lambda a: smp.sample_overshoot(1.5, a, _stream(), 3)),
]


@pytest.mark.parametrize("level", [math.inf, -math.inf])
@pytest.mark.parametrize("label,call", LEVEL_CALLS,
                         ids=[c[0] for c in LEVEL_CALLS])
def test_infinite_level_raises_domain_error(label, call, level):
    with pytest.raises(DomainError, match="must be finite|must be positive"):
        call(level)


def test_second_target_rule_checks_infinity_last():
    # the checks that raise on finite input keep their messages first
    query = hl.HittingQuery(1.5, 1.0, a=math.inf, b=math.inf)
    with pytest.raises(DomainError, match="^targets a and b must differ$"):
        hl.lt_hit_either(query)
    with pytest.raises(DomainError, match="^b must be finite$"):
        hl.prob_hit_before(1.5, 0.0, 1.0, -math.inf)
    with pytest.raises(DomainError, match="^target level a must be nonzero$"):
        _nonzero(0.0)
    with pytest.raises(DomainError, match="^a must be finite$"):
        _nonzero(-math.inf)
    # the same rules for arrays, which fail where any element fails; an
    # infinite level is not swallowed by the array test of the zero rule
    ones = np.array([1.0, 2.0, 3.0])
    for bad, message in [(0.0, "^target level a must be nonzero$"),
                         (NAN, "^target level a must be nonzero$"),
                         (math.inf, "^a must be finite$"),
                         (-math.inf, "^a must be finite$")]:
        with pytest.raises(DomainError, match=message):
            _nonzero(np.array([1.0, bad, 3.0]))
    with pytest.raises(DomainError, match="^a must be finite$"):
        _nonzero(np.array([1.0, math.inf]))
    differ = "^targets a and b must differ$"
    for a, b, message in [
            (ones, np.array([0.5, 2.0, -1.0]), differ),
            (ones, np.array([0.5, NAN, -1.0]), differ),
            (ones, np.array([0.5, math.inf, -1.0]), "^b must be finite$"),
            (np.array([1.0, -math.inf, 3.0]), 0.5, "^a must be finite$")]:
        with pytest.raises(DomainError, match=message):
            hl._second_target(a, b)
    with pytest.raises(DomainError, match=differ):
        hl.lt_hit_either(hl.HittingQuery(1.5, ones, a=ones,
                                         b=np.array([0.5, 2.0, 0.0])))
    assert hl._second_target(ones, -ones).tobytes() == (-ones).tobytes()


# the laws of |X| that take a level a; u and h are even in it
ABS_LAWS = [
    ("lt_hit_abs", lambda a: hl.lt_hit_abs(1.5, 0.7, a)),
    ("lt_last_exit_abs", lambda a: hl.lt_last_exit_abs(1.5, 0.7, a)),
    ("lt_post_exit_abs", lambda a: hl.lt_post_exit_abs(1.5, 0.7, a)),
    ("excursion_hit_mass_abs", lambda a: hl.excursion_hit_mass_abs(1.5, a)),
    ("excursion_hit_lt_abs",
     lambda a: hl.excursion_hit_lt_abs(1.5, 0.7, a, r=2.0)),
]


@pytest.mark.parametrize("label,law", ABS_LAWS, ids=[c[0] for c in ABS_LAWS])
def test_abs_laws_share_one_level_rule(label, law):
    for a in (0.3, 1.0, 4.0):
        assert law(-a) == law(a)
    with pytest.raises(DomainError, match="^target level a must be nonzero$"):
        law(0.0)


def test_pair_before_zero_checks_a_before_reading_u():
    # |x| q^{1/alpha} = 5e-12 lies in u_1's failing band near alpha = 2,
    # so a read of u there would raise NonConvergence
    with pytest.raises(DomainError, match="^target level a must be nonzero$"):
        hl.lt_hit_pair_before_zero(1.999, 1.0, 5e-12, 0.0)
