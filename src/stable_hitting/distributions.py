"""Density and characteristic-function evaluators for the named laws tied to
stable hitting times: beta-prime, alpha-Cauchy, Linnik, symmetric z-laws,
Meixner, and the alpha-Rayleigh survival function.

The alpha-Cauchy characteristic function is a real cosine quadrature of its
symmetric density.  The z-process Levy exponent, and with it the Meixner
density, is the closed form in log Gamma at a complex argument.  z and
Meixner densities are evaluated in log space so large |x| underflows
gracefully instead of overflowing the intermediate exponentials.

The Linnik density and the alpha-Rayleigh survival function also take an
array of x, through ``resolvent._u1_rows`` and ``resolvent._p1_rows``, and
give each element bit for bit as a float x does.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, _alpha, _inside, _nonnegative, _positive
from .numerics import integrate_oscillatory_cos
from .resolvent import _u1, _u1_rows, transition_density


def _log_beta(a: float, b: float, law: str) -> float:
    """log B(a, b) by scipy's ``betaln``, which is not finite for a shape
    below the smallest normal double (about 2.2e-308) or for a + b above
    about 2.6e305; there this raises DomainError naming those limits."""
    from scipy.special import betaln

    out = betaln(a, b)
    if not math.isfinite(out):
        raise DomainError(
            f"{law}: log B({a!r}, {b!r}) is not finite; beta shapes must be "
            "at least 2.2e-308 and sum to less than 2.6e305")
    return out


def beta_prime_density(a: float, b: float, x: float) -> float:
    """Density of Gamma_a / Gamma_b at x > 0: x^{a-1} (1+x)^{-a-b} / B(a,b)."""
    _positive("a", a)
    _positive("b", b)
    _positive("x", x)
    return math.exp((a - 1.0) * math.log(x) - (a + b) * math.log1p(x)
                    - _log_beta(a, b, "beta-prime density"))


def alpha_cauchy_density(alpha: float, x: float) -> float:
    """Density sin(pi/a)/(2 pi/a) * 1/(1+|x|^a) on the whole line, a > 1."""
    _inside("alpha", alpha, 1.0, math.inf)
    c = math.sin(math.pi / alpha) / (2.0 * math.pi / alpha)
    return c / (1.0 + abs(x) ** alpha)


def linnik_density(alpha: float, x):
    """Density of the law with characteristic function 1/(1+|theta|^alpha),
    (1/pi) int_0^inf cos(x theta) / (1+theta^alpha) dtheta.  This is the
    resolvent density u_1(x), so it is the cached kernel ``resolvent._u1``:
    a tanh-sinh rule on the rotated, non-oscillatory contour integral for
    alpha < 2 and x != 0, e^{-|x|}/2 at alpha = 2, and the closed form
    ``resolvent.u1_zero`` at x = 0, where the density is infinite for
    alpha <= 1 and this raises DomainError.  For an array of x it is
    ``resolvent._u1_rows``, equal to the float calls bit for bit."""
    alpha = _alpha(alpha)
    if type(x) is np.ndarray:
        return _u1_rows(alpha, abs(x))
    return _u1(alpha, abs(float(x)))


def alpha_cauchy_charfn(alpha: float, theta: float) -> float:
    """E[e^{i theta C_alpha}] by cosine quadrature of the density."""
    _inside("alpha", alpha, 1.0, math.inf)
    return 2.0 * integrate_oscillatory_cos(
        lambda x: alpha_cauchy_density(alpha, x), theta)


def relation_r_constant(alpha: float) -> float:
    """Constant of proportionality in E[e^{i th C_a}] = const * L_a(th).

    Fourier inversion of the Linnik char-fn fixes it as alpha * sin(pi/alpha):
    at theta = 0 the char-fn is 1 while L_a(0) = 1/(alpha sin(pi/alpha)) by
    the classical integral int_0^inf dt/(1+t^a) = (pi/a)/sin(pi/a).
    """
    return alpha * math.sin(math.pi / alpha)


def _log_cosh(u: float) -> float:
    u = abs(u)
    if u < 1.0:
        # cosh u - 1 = 2 sinh(u/2)^2, without the cancellation
        return math.log1p(2.0 * math.sinh(0.5 * u) ** 2)
    return u - math.log(2.0) + math.log1p(math.exp(-2.0 * u))


# the shape from which z_density takes log B(a, a) from its asymptotic series
_Z_SERIES_FROM = 30.0


def _log_z_norm(a: float, law: str) -> float:
    """log(pi / (4^a B(a, a))), the log of the z density at 0, for a > 0.

    Below a = 30 it is log pi - log B(a, a) - 2a log 2, from scipy's
    ``betaln``, which loses about eps a of relative accuracy.  From a = 30
    on it is (1/2) log(pi a) - log 2 - r(a), by the duplication formula,
    where r(a) = log Gamma(a) - log Gamma(a + 1/2) + (1/2) log a =
    1/(8a) - 1/(192 a^3) + 1/(640 a^5) - 17/(14336 a^7) + O(a^-9) is the
    asymptotic series of the gamma ratio, and no large terms cancel.  Below
    a = 2.2e-308, where log B(a, a) is not finite, this raises DomainError
    naming ``law``."""
    if a < _Z_SERIES_FROM:
        return (math.log(math.pi) - _log_beta(a, a, law)
                - 2.0 * a * math.log(2.0))
    a2 = a * a
    r = (0.125 - (1.0 / 192.0 - (1.0 / 640.0 - 17.0 / (14336.0 * a2))
                  / a2) / a2) / a
    # pi a overflows from a = 5.7e307
    log_pi_a = (math.log(math.pi * a) if a < 5e307
                else math.log(math.pi) + math.log(a))
    return 0.5 * log_pi_a - math.log(2.0) - r


def z_density(a: float, x: float) -> float:
    """Density of (1/pi) log(Gamma_a / Gamma_a'):
    pi e^{a pi x} / ((1+e^{pi x})^{2a} B(a,a)), evaluated in log space as
    pi / (4^a B(a, a)) * cosh(pi x / 2)^{-2a}, with the normaliser's log
    from ``_log_z_norm``.

    Against 50-digit mpmath, at x = 0 and at x = s/sqrt(a) for |s| <= 3, the
    relative error is below 4e-15 for a from 0.5 to 30, below 6e-15 up to
    a = 1e15 and 1e-14 up to a = 1e100, and it grows with log a to 3.5e-14
    at a = 1e300 and 4.1e-14 at a = 1e308.  Below a = 2.2e-308, where
    log B(a, a) is not finite, this raises DomainError."""
    _positive("a", a)
    # a (2 log cosh), not 2a log cosh: 2a overflows from a = 9e307
    return math.exp(_log_z_norm(a, "z density")
                    - a * (2.0 * _log_cosh(0.5 * math.pi * x)))


def z_levy_exponent(a: float, theta: float) -> float:
    """Levy exponent Phi_a of the symmetric z-process:
    2 int_0^inf (1 - cos(theta u)) e^{-a pi u} / (u (1 - e^{-pi u})) du,
    in closed form 2 log Gamma(a) - 2 Re log Gamma(a + i theta/pi).

    Pitman, J. and Yor, M. (2003).  Infinitely divisible laws associated with
    hyperbolic functions.  Canadian Journal of Mathematics 55(2):292-330.

    The two log Gammas, each of order a log a, cancel, so the absolute
    error (the relative error of e^{-Phi_a}) grows like eps a log a.
    Against 60-digit mpmath, over theta = pi s sqrt(2a)/2 for 60 values of
    s in [1e-4, 6], its largest absolute error is 7.6e-15 up to a = 5,
    1.3e-13 at 50, 2.4e-11 at 5e3, 2.9e-10 at 5e4, 5.3e-10 at 1.5e5,
    2.5e-9 at 5e5, 3.7e-8 at 5e6, 3.0e-7 at 5e7, 4.5e-3 at 5e11 and 46 at
    5e15.
    """
    _positive("a", a)
    if theta == 0.0:
        return 0.0
    from scipy.special import gammaln, loggamma

    return 2.0 * (gammaln(a) - loggamma(complex(a, abs(theta) / math.pi)).real)


# Largest time of ``meixner_density``.  Against 80-digit mpmath, over 100
# points x = s sqrt(t)/2 with s in [1e-4, 6] and beta in {0, 1}, its worst
# relative error, that of ``z_levy_exponent``, is 5.6e-10 at t = 2e5 and
# 2.5e5, 6.3e-10 to 7.5e-10 at 3e5 and 3.4e5, then 1.3e-9 at 3.6e5 and 3.8e5,
# past ``numerics.REL_TOL`` = 1e-9, and 2.2e-9 at 1e6.
_MEIXNER_T_MAX = 3e5


def meixner_density(beta: float, t: float, x: float) -> float:
    """Meixner density at time t with asymmetry beta in (-pi, pi):
    (2 cos(beta/2))^t B(t/2, t/2) / (2 pi) * e^{beta x - Phi_{t/2}(pi x)}.

    The exponent argument is pi x: |Gamma(t/2 + ix)|^2 equals
    Gamma(t/2)^2 e^{-Phi_{t/2}(pi x)} since Phi_a absorbs a 1/pi rescaling.
    With a = t/2, 2^t B(t/2, t/2) = 4^a B(a, a) = pi e^{-``_log_z_norm``(a)},
    whose stable form replaces the cancelling t log 2 + log B(t/2, t/2):
    against 80-digit mpmath at x = 0 and beta = 0 the relative error is
    below 1.5e-15 for t from 1e-10 to 3e5, where the old form gave 6.2e-12
    at t = 1e4 and 5.6e-10 at 3e5.  Elsewhere nearly all the error is
    ``z_levy_exponent``'s: at beta in {0, 0.5, -2} and x = s sqrt(t)/2 for
    s in [0, 5], below 6e-15 up to t = 10, 1.3e-13 at 100, 1e-11 at 1e4 and
    2.9e-10 at 1e5.  Above t = ``_MEIXNER_T_MAX`` = 3e5 it passes 1e-9, and
    this raises DomainError.
    """
    _inside("beta", beta, -math.pi, math.pi)
    _positive("t", t)
    if t > _MEIXNER_T_MAX:
        raise DomainError(f"Meixner time t = {t!r} is above "
                          f"{_MEIXNER_T_MAX:g}, where the Levy exponent's "
                          "cancellation error passes 1e-9")
    log_norm = (t * math.log(math.cos(0.5 * beta)) - math.log(2.0)
                - _log_z_norm(0.5 * t, "Meixner density"))
    return math.exp(log_norm + beta * x - z_levy_exponent(0.5 * t, math.pi * x))


def alpha_rayleigh_survival(alpha: float, x):
    """P(R_alpha > x) = p_1(x) / p_1(0), clamped to [0, 1], for a float x
    or, element by element and bit for bit, an array of x."""
    alpha = _alpha(alpha)
    ratio = (transition_density(alpha, 1.0, _nonnegative("x", x))
             / transition_density(alpha, 1.0, 0.0))
    if type(ratio) is np.ndarray:
        return np.clip(ratio, 0.0, 1.0)
    return min(1.0, max(0.0, ratio))
