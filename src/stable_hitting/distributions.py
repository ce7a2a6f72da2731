"""Density and characteristic-function evaluators for the named laws tied to
stable hitting times: beta-prime, alpha-Cauchy, Linnik, symmetric z-laws,
Meixner, and the alpha-Rayleigh survival function.

The alpha-Cauchy characteristic function is a real cosine quadrature of its
symmetric density.  The z-process Levy exponent, and with it the Meixner
density, is the closed form in log Gamma at a complex argument.  z and
Meixner densities are evaluated in log space so large |x| underflows
gracefully instead of overflowing the intermediate exponentials.
"""

from __future__ import annotations

import math

from scipy import special

from .errors import DomainError
from .numerics import integrate_oscillatory_cos
from .resolvent import _u1, as_index, transition_density


def beta_prime_density(a: float, b: float, x: float) -> float:
    """Density of Gamma_a / Gamma_b at x > 0: x^{a-1} (1+x)^{-a-b} / B(a,b)."""
    if a <= 0 or b <= 0:
        raise DomainError("beta-prime shapes must be positive")
    if x <= 0:
        raise DomainError("beta-prime support is x > 0")
    return math.exp((a - 1.0) * math.log(x) - (a + b) * math.log1p(x)
                    - special.betaln(a, b))


def alpha_cauchy_density(alpha: float, x: float) -> float:
    """Density sin(pi/a)/(2 pi/a) * 1/(1+|x|^a) on the whole line, a > 1."""
    if alpha <= 1.0:
        raise DomainError("alpha-Cauchy density requires alpha > 1")
    c = math.sin(math.pi / alpha) / (2.0 * math.pi / alpha)
    return c / (1.0 + abs(x) ** alpha)


def linnik_density(alpha: float, x: float) -> float:
    """Density of the law with characteristic function 1/(1+|theta|^alpha),
    (1/pi) int_0^inf cos(x theta) / (1+theta^alpha) dtheta.  This is the
    resolvent density u_1(x), so it is the cached kernel ``resolvent._u1``:
    a tanh-sinh rule on the rotated, non-oscillatory contour integral for
    alpha < 2 and x != 0, e^{-|x|}/2 at alpha = 2, and the closed form
    ``resolvent.u1_zero`` at x = 0, where the density is infinite for
    alpha <= 1 and this raises DomainError."""
    if not 0.0 < alpha <= 2.0:
        raise DomainError("Linnik index must lie in (0, 2]")
    return _u1(float(alpha), abs(float(x)))


def alpha_cauchy_charfn(alpha: float, theta: float) -> float:
    """E[e^{i theta C_alpha}] by cosine quadrature of the density."""
    if alpha <= 1.0:
        raise DomainError("alpha-Cauchy requires alpha > 1")
    return 2.0 * integrate_oscillatory_cos(
        lambda x: alpha_cauchy_density(alpha, x), theta)


def relation_r_constant(alpha: float) -> float:
    """Constant of proportionality in E[e^{i th C_a}] = const * L_a(th).

    Fourier inversion of the Linnik char-fn fixes it as alpha * sin(pi/alpha):
    at theta = 0 the char-fn is 1 while L_a(0) = 1/(alpha sin(pi/alpha)) by
    the classical integral int_0^inf dt/(1+t^a) = (pi/a)/sin(pi/a).
    """
    return alpha * math.sin(math.pi / alpha)


def _softplus(y: float) -> float:
    return max(y, 0.0) + math.log1p(math.exp(-abs(y)))


def z_density(a: float, x: float) -> float:
    """Density of (1/pi) log(Gamma_a / Gamma_a'):
    pi e^{a pi x} / ((1+e^{pi x})^{2a} B(a,a)), evaluated in log space."""
    if a <= 0:
        raise DomainError("z-law shape must be positive")
    y = math.pi * x
    return math.exp(math.log(math.pi) - special.betaln(a, a)
                    + a * y - 2.0 * a * _softplus(y))


def z_levy_exponent(a: float, theta: float) -> float:
    """Levy exponent Phi_a of the symmetric z-process:
    2 int_0^inf (1 - cos(theta u)) e^{-a pi u} / (u (1 - e^{-pi u})) du,
    in closed form 2 log Gamma(a) - 2 Re log Gamma(a + i theta/pi).

    Pitman, J. and Yor, M. (2003).  Infinitely divisible laws associated with
    hyperbolic functions.  Canadian Journal of Mathematics 55(2):292-330.
    """
    if a <= 0:
        raise DomainError("shape must be positive")
    if theta == 0.0:
        return 0.0
    return 2.0 * (special.gammaln(a)
                  - special.loggamma(complex(a, abs(theta) / math.pi)).real)


def meixner_density(beta: float, t: float, x: float) -> float:
    """Meixner density at time t with asymmetry beta in (-pi, pi):
    (2 cos(beta/2))^t B(t/2, t/2) / (2 pi) * e^{beta x - Phi_{t/2}(pi x)}.

    The exponent argument is pi x: |Gamma(t/2 + ix)|^2 equals
    Gamma(t/2)^2 e^{-Phi_{t/2}(pi x)} since Phi_a absorbs a 1/pi rescaling.
    """
    if abs(beta) >= math.pi:
        raise DomainError("Meixner asymmetry must satisfy |beta| < pi")
    if t <= 0:
        raise DomainError("t must be positive")
    log_norm = (t * math.log(2.0 * math.cos(0.5 * beta))
                + special.betaln(0.5 * t, 0.5 * t) - math.log(2.0 * math.pi))
    return math.exp(log_norm + beta * x - z_levy_exponent(0.5 * t, math.pi * x))


def alpha_rayleigh_survival(alpha: float, x: float) -> float:
    """P(R_alpha > x) = p_1(x) / p_1(0), clamped to [0, 1]."""
    idx = as_index(alpha)
    if x < 0:
        raise DomainError("x must be nonnegative")
    ratio = transition_density(idx, 1.0, x) / transition_density(idx, 1.0, 0.0)
    return min(1.0, max(0.0, ratio))
