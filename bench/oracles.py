"""Reference values computed apart from the program under test.

Nothing here imports ``stable_hitting``.  The resolvent density comes from
mpmath at 40 digits through the non-oscillatory rotated integral, the
transition density from ``scipy.stats.levy_stable``, the Meixner density from
its gamma-function closed form, and the hitting-time CDF from the
representation ``T_a = |a|^alpha / (R^alpha B)``.  The hitting-law transforms
are rebuilt from the resolvent by the formulas documented in
``hitting_laws``.  Every oracle memoises its values, so a run pays for each
distinct argument once.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp
from scipy import integrate, special
from scipy.stats import levy_stable

_DPS = 40


@lru_cache(maxsize=None)
def u1(alpha: float, w: float) -> float:
    """u_1(w) for the process with E e^{i th X(1)} = e^{-|th|^alpha}.

    For 1 < alpha < 2 and w > 0 the contour rotation xi -> i v gives the
    positive integral (sin(pi a/2)/pi) int_0^inf v^a e^{-w v} /
    (1 + 2 v^a cos(pi a/2) + v^{2a}) dv, split at 1 and 1/w.  w = 0 uses the
    closed form Gamma(1-1/a) Gamma(1/a) / (a pi); alpha = 2 is e^{-w}/2.
    """
    w = abs(w)
    with mp.workdps(_DPS):
        a = mp.mpf(alpha)
        if alpha == 2.0:
            return float(mp.exp(-mp.mpf(w)) / 2)
        if w == 0.0:
            return float(mp.gamma(1 - 1 / a) * mp.gamma(1 / a) / (a * mp.pi))
        wm = mp.mpf(w)
        c = mp.cos(mp.pi * a / 2)

        def f(v):
            va = v ** a
            return va * mp.exp(-wm * v) / (1 + 2 * va * c + va * va)

        cuts = sorted({mp.mpf(1), 1 / wm})
        return float(mp.sin(mp.pi * a / 2) / mp.pi
                     * mp.quad(f, [0] + cuts + [mp.inf]))


def u(alpha: float, q: float, y: float) -> float:
    """u_q(y) = q^{1/a - 1} u_1(|y| q^{1/a})."""
    scale = q ** (1.0 / alpha)
    return scale / q * u1(alpha, abs(y) * scale)


@lru_cache(maxsize=None)
def h(alpha: float, x: float) -> float:
    """Potential kernel |x|^{a-1} / (2 Gamma(a) sin((a-1) pi/2))."""
    with mp.workdps(_DPS):
        a = mp.mpf(alpha)
        return float(abs(mp.mpf(x)) ** (a - 1)
                     / (2 * mp.gamma(a) * mp.sin((a - 1) * mp.pi / 2)))


# ------------------------------------------------------- hitting transforms

def _v(alpha, q, a):
    u0 = u(alpha, q, 0.0)
    return u0 * u0 + u0 * u(alpha, q, 2 * a) - 2 * u(alpha, q, a) ** 2


def _h_combo(alpha, a):
    return 4 * h(alpha, a) - h(alpha, 2 * a)


def lt_hit_point(alpha, q, a, x=0.0):
    return u(alpha, q, x - a) / u(alpha, q, 0.0)


def lt_last_exit(alpha, q, a):
    u0, ua = u(alpha, q, 0.0), u(alpha, q, a)
    return (u0 * u0 - ua * ua) / (2 * h(alpha, a) * u0)


def lt_post_exit(alpha, q, a):
    u0, ua = u(alpha, q, 0.0), u(alpha, q, a)
    return 2 * h(alpha, a) * ua / (u0 * u0 - ua * ua)


def lt_hit_abs(alpha, q, a):
    return 2 * u(alpha, q, a) / (u(alpha, q, 0.0) + u(alpha, q, 2 * a))


def lt_last_exit_abs(alpha, q, a):
    return (2 * _v(alpha, q, a)
            / ((u(alpha, q, 0.0) + u(alpha, q, 2 * a)) * _h_combo(alpha, a)))


def lt_post_exit_abs(alpha, q, a):
    return u(alpha, q, a) * _h_combo(alpha, a) / _v(alpha, q, a)


def lt_hit_before(alpha, q, x, a, b):
    u0, uab = u(alpha, q, 0.0), u(alpha, q, a - b)
    return ((u0 * u(alpha, q, x - a) - uab * u(alpha, q, x - b))
            / (u0 * u0 - uab * uab))


def lt_hit_three(alpha, q, x, a):
    u0, ua, u2a = u(alpha, q, 0.0), u(alpha, q, a), u(alpha, q, 2 * a)
    v = _v(alpha, q, a)
    return ((u0 + u2a - 2 * ua) / v * u(alpha, q, x)
            + (u0 - ua) / v * (u(alpha, q, x - a) + u(alpha, q, x + a)))


def excursion_hit_lt(alpha, q, a):
    u0, ua = u(alpha, q, 0.0), u(alpha, q, a)
    return ua / (u0 * u0 - ua * ua)


def excursion_hit_lt_abs(alpha, q, a):
    return 2 * u(alpha, q, a) / _v(alpha, q, a)


# ----------------------------------------------------------------- densities

@lru_cache(maxsize=None)
def p1(alpha: float, x: float) -> float:
    """Density of X(1); levy_stable's S1 form with beta = 0 and unit scale
    has exactly the characteristic function e^{-|th|^alpha}."""
    return float(levy_stable.pdf(abs(x), alpha, 0.0))


def transition_density(alpha, t, x):
    scale = t ** (-1.0 / alpha)
    return scale * p1(alpha, abs(x) * scale)


def linnik_density(alpha, x):
    """The Linnik law 1/(1+|th|^a) has density u_1(|x|)."""
    return u1(alpha, abs(x))


def alpha_rayleigh_survival(alpha, x):
    return p1(alpha, x) / p1(alpha, 0.0)


@lru_cache(maxsize=None)
def meixner_density(beta, t, x):
    """(2 cos(beta/2))^t |Gamma(t/2 + ix)|^2 e^{beta x} / (2 pi Gamma(t))."""
    with mp.workdps(_DPS):
        b, tt, xx = mp.mpf(beta), mp.mpf(t), mp.mpf(x)
        g = abs(mp.gamma(tt / 2 + 1j * xx)) ** 2
        return float((2 * mp.cos(b / 2)) ** tt * g * mp.exp(b * xx)
                     / (2 * mp.pi * mp.gamma(tt)))


@lru_cache(maxsize=None)
def hitting_cdf(alpha: float, a: float, t: float) -> float:
    """P(T_a < t) = int_0^1 f_B(b) P(R > (|a|^a / (t b))^{1/a}) db, with
    B ~ Beta(1 - 1/a, 1/a) and P(R > x) = p_1(x) / p_1(0)."""
    g = 1.0 / alpha
    p0 = p1(alpha, 0.0)
    norm = special.beta(1.0 - g, g)

    def f(b):
        x = (abs(a) ** alpha / (t * b)) ** g
        dens = b ** (-g) * (1.0 - b) ** (g - 1.0) / norm
        return dens * float(levy_stable.pdf(x, alpha, 0.0)) / p0

    return integrate.quad(f, 0.0, 1.0, limit=200, epsabs=1e-10,
                          epsrel=1e-9)[0]


# ------------------------------------------------- Monte Carlo closed forms

def stable_cos_mean(alpha, theta):
    """E cos(theta X(1)) = e^{-|theta|^alpha}."""
    return math.exp(-abs(theta) ** alpha)


def linnik_cos_mean(alpha, theta):
    return 1.0 / (1.0 + abs(theta) ** alpha)


def gamma_series_lt(a, t, lam):
    """E e^{-lam S_t}: cosh(z)^{-t} at a = 1/2 and (z / sinh z)^t at a = 1,
    z = sqrt(2 lam)."""
    z = math.sqrt(2.0 * lam)
    if a == 0.5:
        return math.cosh(z) ** -t
    if a == 1.0:
        return (z / math.sinh(z)) ** t
    raise ValueError("closed form known for a = 1/2 and a = 1 only")


def tanh_lt(t, lam):
    z = math.sqrt(2.0 * lam)
    return (math.tanh(z) / z) ** t


def excursion_age_mean(gamma):
    """The age is Beta(1 - gamma, gamma): mean 1 - gamma."""
    return 1.0 - gamma


def excursion_duration_le_one(gamma):
    """P(B U^{-1/gamma} <= 1) = 1 - E B^gamma = 1 - sin(pi g) / (pi g)."""
    return 1.0 - math.sin(math.pi * gamma) / (math.pi * gamma)
