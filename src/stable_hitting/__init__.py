"""Numerical realization of the hitting-time, last-exit-time and excursion
laws of one-dimensional symmetric stable Levy processes, with exact samplers
and cross-verification suites.

Importing the package loads numpy only: the few functions that call scipy
(QUADPACK and special functions) import it on their first call."""

from .errors import (ConsistencyError, DegenerateDenominator, DomainError,
                     NonConvergence, NumericInstability, TableBuildError,
                     UnknownSuite)
from .numerics import (integrate_adaptive, integrate_oscillatory_cos,
                       laplace_invert_cdf)
from .resolvent import (one_minus_cos_integral, potential_kernel,
                        potential_kernel_at_one, resolvent_density,
                        transition_density, u1_zero)
from .distributions import (alpha_cauchy_charfn, alpha_cauchy_density,
                            alpha_rayleigh_survival, beta_prime_density,
                            linnik_density, meixner_density,
                            relation_r_constant, z_density, z_levy_exponent)
from .hitting_laws import (HittingQuery, excursion_hit_lt,
                           excursion_hit_lt_abs, excursion_hit_mass,
                           excursion_hit_mass_abs, leg_decomposition_gap,
                           lt_hit_abs, lt_hit_abs_series, lt_hit_before,
                           lt_hit_either, lt_hit_pair_before_zero,
                           lt_hit_point, lt_hit_three, lt_last_exit,
                           lt_last_exit_abs, lt_post_exit, lt_post_exit_abs,
                           prob_hit_before)
from .sampling import (RandomStream, SampleStats, ks_distance,
                       sample_alpha_cauchy, sample_alpha_rayleigh,
                       sample_bernoulli_sign, sample_beta,
                       sample_excursion_age_duration,
                       sample_excursion_at_exp_time, sample_exponential,
                       sample_from_lt, sample_gamma,
                       sample_gamma_series_subordinator, sample_hitting_time,
                       sample_linnik, sample_overshoot,
                       sample_size_biased_stable, sample_sym_stable,
                       sample_uniform, sample_unilateral_stable,
                       tanh_subordinator_lt)
from .verify import (SUITE_NAMES, VerificationReport, all_passed,
                     report_to_csv, report_to_json, run_suite)

__version__ = "0.1.0"
