"""Transition density, resolvent density and potential kernel of the
symmetric stable process normalized by E[e^{i theta X(t)}] = e^{-t|theta|^alpha}.

All evaluations reduce to t = 1 (density) or q = 1 (resolvent) through the
self-similarity scaling before any quadrature runs.  p_1 and u_1 each have
exactly one evaluator, the cached kernels ``_p1`` and ``_u1``; the Linnik
density of ``distributions`` is u_1 itself and shares that cache.

``_p1`` is a Fourier-cosine integral (a QUADPACK head and an accelerated
panel series).  ``_u1`` takes no oscillatory route: rotating the contour
xi -> i v turns u_1 into an integral of a positive function, evaluated by one
fixed tanh-sinh rule in numpy.  Against a 40-digit mpmath evaluation of the
same integral its relative error is below 1e-12 for alpha in [0.9, 1.999]
and w in [1e-6, 1e6], and its values are positive out to w = 1e60.  At w = 0
it returns the closed form ``u1_zero``, and at alpha = 2 the Gaussian
e^{-w}/2.  ``resolvent_density`` also dispatches alpha = 2 to the Gaussian
closed forms before calling either kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, NonConvergence
from .numerics import (DEFAULT_SPEC, _as_vectorized, _cos_panel_series,
                       integrate_adaptive, integrate_oscillatory_cos)

# Tanh-sinh rule (Takahasi and Mori, 1974) for ``_u1``: nodes t_k = k/64 for
# |k| <= 205, that is |t| <= 3.2.  At node t the tanh-sinh abscissa x on
# (0, 1) has (1 - x)/x = _TS_R, and _TS_W is the step times dx/dt divided by
# x^2.  Every other node, t = 0 among them, is the same rule at step 1/32.
_TS_T = np.arange(-205, 206) / 64.0
_TS_R = np.exp(-math.pi * np.sinh(_TS_T))
_TS_W = math.pi * np.cosh(_TS_T) * _TS_R / 64.0
_TS_HALF = slice(1, None, 2)


@dataclass(frozen=True)
class StableIndex:
    """Stability index alpha together with gamma = 1/alpha."""

    alpha: float
    gamma: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise DomainError(f"alpha={self.alpha} outside (0, 2]")
        object.__setattr__(self, "gamma", 1.0 / self.alpha)

    def require_point_hitting(self) -> "StableIndex":
        # points are regular for themselves only when 1 < alpha <= 2
        if self.alpha <= 1.0:
            raise DomainError(
                f"alpha={self.alpha}: point hitting (and the resolvent "
                "density at points) requires 1 < alpha <= 2")
        return self


def as_index(alpha) -> StableIndex:
    return alpha if isinstance(alpha, StableIndex) else StableIndex(float(alpha))


@lru_cache(maxsize=None)
def _p1(alpha: float, w: float) -> float:
    """p_1(w) = (1/pi) int_0^inf cos(w xi) e^{-xi^alpha} dxi, w >= 0."""
    return integrate_oscillatory_cos(lambda x: np.exp(-x ** alpha), w) / math.pi


@lru_cache(maxsize=None)
def _u1(alpha: float, w: float) -> float:
    """u_1(w) = (1/pi) int_0^inf cos(w xi) / (1 + xi^alpha) dxi, w >= 0.

    For 0 < a < 2 and w > 0, rotating the contour xi -> i v and folding
    v -> 1/v onto (0, 1) gives the positive integral

        u_1(w) = (sin(pi a/2)/pi) int_0^1 [v^a e^{-wv} + v^{a-2} e^{-w/v}] / D(v) dv,
        D(v) = 1 + 2 cos(pi a/2) v^a + v^{2a} = (v^a + cos(pi a/2))^2 + sin(pi a/2)^2.

    The rule runs in the variable v = 1/(1 + m r) with r = (1 - x)/x, which
    moves the tanh-sinh nodes by -ln m in logit v.  The integrand lives
    between the cutoff of e^{-w/v} or e^{-wv} at logit v ~ -|ln w| and, as
    alpha -> 2, the near-double root of D at v = 1, which reaches out to
    logit v ~ ln(2a / (pi (2 - a))).  m is the larger of two shifts: one
    centres the nodes between those two places, the other, at large w,
    follows the cutoff of e^{-wv} to v ~ e/w.

    The rule is checked against its every-other-node half, the way
    ``numerics._quad`` checks QUADPACK's error estimate: a gap above ten
    times the default tolerance, or a value that is not finite and
    positive, raises ``NonConvergence``.  w = 0 is the closed form
    ``u1_zero`` (infinite for alpha <= 1) and alpha = 2 is e^{-w}/2.
    Callers pass w as a float, so the cache key is a float too.
    """
    if alpha == 2.0:
        return 0.5 * math.exp(-w)
    if w == 0.0:
        return u1_zero(alpha)
    c, s = math.cos(0.5 * math.pi * alpha), math.sin(0.5 * math.pi * alpha)
    root = max(1.0, 2.0 * alpha / (math.pi * (2.0 - alpha)))  # e^{logit v}
    m = max(1.0 / math.sqrt(w * root), w / math.e)
    q = 1.0 + m * _TS_R
    v = 1.0 / q
    va = q ** -alpha
    g = va * (v * v * np.exp(-w * v) + np.exp(-w * q)) / ((va + c) ** 2 + s * s)
    scale = m * s / math.pi
    value = scale * float(_TS_W @ g)
    half = 2.0 * scale * float(_TS_W[_TS_HALF] @ g[_TS_HALF])
    if not (math.isfinite(value) and value > 0.0):
        raise NonConvergence(
            f"u_1 rule gave {value!r} at alpha={alpha}, w={w}")
    if abs(value - half) > 10.0 * DEFAULT_SPEC.tolerance(value):
        raise NonConvergence(
            f"u_1 rule and its half-step rule differ by {abs(value - half):.3g}"
            f" at alpha={alpha}, w={w}")
    return value


def u1_zero(alpha: float) -> float:
    """Closed form of u_1(0): Gamma(1 - 1/a) Gamma(1/a) / (a pi).

    The integral diverges for alpha <= 1, where this raises DomainError."""
    if alpha <= 1.0:
        raise DomainError(
            f"alpha={alpha}: u_1(0) is infinite for alpha <= 1")
    g = 1.0 / alpha
    return math.gamma(1.0 - g) * math.gamma(g) / (alpha * math.pi)


def transition_density(idx, t: float, x: float) -> float:
    """Density of X(t) at x, via p_t(x) = t^{-1/a} p_1(x t^{-1/a})."""
    idx = as_index(idx)
    if t <= 0:
        raise DomainError("t must be positive")
    if idx.alpha == 2.0:
        return math.exp(-x * x / (4.0 * t)) / (2.0 * math.sqrt(math.pi * t))
    scale = t ** -idx.gamma
    return scale * _p1(idx.alpha, abs(x) * scale)


def resolvent_density(idx, q: float, x: float) -> float:
    """Resolvent density u_q(x), via u_q(x) = q^{1/a - 1} u_1(x q^{1/a})."""
    idx = as_index(idx).require_point_hitting()
    if q <= 0:
        raise DomainError("q must be positive")
    if idx.alpha == 2.0:
        rq = math.sqrt(q)
        return math.exp(-rq * abs(x)) / (2.0 * rq)
    scale = q ** idx.gamma
    return (scale / q) * _u1(idx.alpha, float(abs(x) * scale))


def resolvent_gap(idx, q: float, x: float) -> float:
    """u_q(0) - u_q(x); nonnegative, tends to the potential kernel as q -> 0."""
    gap = resolvent_density(idx, q, 0.0) - resolvent_density(idx, q, x)
    return max(gap, 0.0)


def potential_kernel_at_one(alpha: float) -> float:
    """The constant 1 / (2 Gamma(alpha) sin((alpha - 1) pi / 2))."""
    return 1.0 / (2.0 * math.gamma(alpha) * math.sin(0.5 * math.pi * (alpha - 1.0)))


def potential_kernel(idx, x: float) -> float:
    """lim_{q->0} [u_q(0) - u_q(x)] = |x|^{alpha-1} / (2 G(a) sin((a-1)pi/2))."""
    idx = as_index(idx).require_point_hitting()
    if x == 0.0:
        return 0.0
    return potential_kernel_at_one(idx.alpha) * abs(x) ** (idx.alpha - 1.0)


def one_minus_cos_integral(alpha: float) -> float:
    """(1/pi) int_0^inf (1 - cos x) / x^alpha dx for 1 < alpha < 3, by quadrature.

    The closed form of this constant is a test oracle, not the implementation.
    The integral is split at a cosine zero z = (K + 1/2) pi: the head uses the
    cancellation-free form 2 sin^2(x/2), the tail contributes the exact
    power-law piece minus an alternating cosine series.
    """
    if not 1.0 < alpha < 3.0:
        raise DomainError(f"alpha={alpha} outside (1, 3)")
    k_cut = 8
    z = (k_cut + 0.5) * math.pi
    head = integrate_adaptive(
        lambda x: 2.0 * math.sin(0.5 * x) ** 2 / x ** alpha, 0.0, z)
    power_tail = z ** (1.0 - alpha) / (alpha - 1.0)
    gv = _as_vectorized(lambda x: x ** -alpha)
    cos_tail = _cos_panel_series(gv, 1.0, k_cut + 1, base=head)
    return (head + power_tail - cos_tail) / math.pi
