"""Transition density, resolvent density and potential kernel of the
symmetric stable process normalized by E[e^{i theta X(t)}] = e^{-t|theta|^alpha}.

All evaluations reduce to t = 1 (density) or q = 1 (resolvent) through the
self-similarity scaling before any quadrature runs, so the oscillatory
envelope is always well conditioned.  p_1 and u_1 each have exactly one
evaluator, the cached kernels ``_p1`` and ``_u1``; the Linnik density of
``distributions`` is u_1 itself and shares that cache.  alpha = 2 dispatches
to the Gaussian closed forms outside the kernels, so the quadrature path is
still exercised against them in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .numerics import (_as_vectorized, _cos_panel_series, integrate_adaptive,
                       integrate_oscillatory_cos)


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
    """u_1(w) = (1/pi) int_0^inf cos(w xi) / (1 + xi^alpha) dxi, w >= 0."""
    return integrate_oscillatory_cos(lambda x: 1.0 / (1.0 + x ** alpha), w) / math.pi


def u1_zero(alpha: float) -> float:
    """Closed form of u_1(0): Gamma(1 - 1/a) Gamma(1/a) / (a pi)."""
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
    return (scale / q) * _u1(idx.alpha, abs(x) * scale)


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
