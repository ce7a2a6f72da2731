"""Closed-form Laplace transforms for first hitting times, last exit times
and excursion-measure functionals of the symmetric stable process X and of
its absolute value |X|, all expressed through the resolvent density u_q and
the potential kernel h.

Notation used in the formulas below (1 < alpha <= 2, q > 0):

    u(x)  = u_q(x)                  resolvent density,
    h(x)  = lim_{q->0} u_q(0)-u_q(x)  potential kernel,
    V_q(a) = u(0)^2 + u(0) u(2a) - 2 u(a)^2   (strictly positive for a != 0).

T_a is the first hitting time of the point a from the start position, G_a
the last visit to the origin before T_a, and the post-exit part T_a - G_a is
independent of G_a.  The same objects for |X| hit the set {a, -a}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ConsistencyError, DegenerateDenominator, DomainError
from .resolvent import StableIndex, as_index, potential_kernel, resolvent_density


@dataclass(frozen=True)
class HittingQuery:
    """Parameters of one hitting-law evaluation.

    ``x`` is the start position, ``a`` the target point, ``b`` an optional
    second target, ``r`` an optional second rate for joint excursion
    transforms.
    """

    idx: StableIndex
    q: float
    x: float = 0.0
    a: float = 1.0
    b: Optional[float] = None
    r: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "idx", as_index(self.idx).require_point_hitting())
        if self.q <= 0:
            raise DomainError("q must be positive")
        if self.b is not None and self.a == self.b:
            raise DomainError("targets a and b must differ")
        if self.r is not None and self.r <= 0:
            raise DomainError("r must be positive")

    def u(self, y: float) -> float:
        return resolvent_density(self.idx, self.q, y)


def lt_hit_point(query: HittingQuery) -> float:
    """E[e^{-q T_a}] started at x: u(x-a) / u(0)."""
    return query.u(query.x - query.a) / query.u(0.0)


def lt_hit_either(query: HittingQuery) -> float:
    """E[e^{-q (T_a ^ T_b)}] started at x:
    (u(x-a) + u(x-b)) / (u(0) + u(a-b))."""
    if query.b is None:
        raise DomainError("second target b required")
    u = query.u
    return ((u(query.x - query.a) + u(query.x - query.b))
            / (u(0.0) + u(query.a - query.b)))


def lt_hit_before(query: HittingQuery) -> float:
    """E[e^{-q T_a}; T_a < T_b] started at x."""
    if query.b is None:
        raise DomainError("second target b required")
    u = query.u
    u0 = u(0.0)
    uab = u(query.a - query.b)
    den = u0 * u0 - uab * uab
    if den <= 0.0:
        raise DegenerateDenominator(
            f"u_q(0)^2 - u_q(a-b)^2 = {den} for a-b = {query.a - query.b}")
    return (u0 * u(query.x - query.a) - uab * u(query.x - query.b)) / den


def prob_hit_before(idx, x: float, a: float, b: float) -> float:
    """P(T_a < T_b) started at x; Getoor's two-point formula
    (the q -> 0 limit of lt_hit_before)."""
    idx = as_index(idx).require_point_hitting()
    if a == b:
        raise DomainError("targets a and b must differ")
    e = idx.alpha - 1.0
    return 0.5 * (1.0 + (abs(x - b) ** e - abs(x - a) ** e) / abs(a - b) ** e)


def lt_last_exit(idx, q: float, a: float) -> float:
    """E[e^{-q G_a}] = (u(0)^2 - u(a)^2) / (2 h(a) u(0))."""
    query = HittingQuery(idx, q, a=_nonzero(a))
    u0, ua = query.u(0.0), query.u(a)
    return (u0 * u0 - ua * ua) / (2.0 * potential_kernel(query.idx, a) * u0)


def lt_post_exit(idx, q: float, a: float) -> float:
    """E[e^{-q (T_a - G_a)}] = 2 h(a) u(a) / (u(0)^2 - u(a)^2)."""
    query = HittingQuery(idx, q, a=_nonzero(a))
    u0, ua = query.u(0.0), query.u(a)
    return 2.0 * potential_kernel(query.idx, a) * ua / (u0 * u0 - ua * ua)


def excursion_hit_mass(idx, a: float) -> float:
    """Excursion-measure mass of paths reaching a: n(T_a < zeta) = 1/(2 h(a))."""
    idx = as_index(idx).require_point_hitting()
    return 1.0 / (2.0 * potential_kernel(idx, _nonzero(a)))


def excursion_hit_lt(idx, q: float, a: float, r: Optional[float] = None) -> float:
    """n[e^{-q T_a - r (zeta - T_a)}; T_a < zeta]
    = (u_r(a)/u_r(0)) u_q(a) / (u_q(0)^2 - u_q(a)^2); r = None takes r -> 0+,
    where the leading ratio tends to 1."""
    query = HittingQuery(idx, q, a=_nonzero(a), r=r)
    u0, ua = query.u(0.0), query.u(a)
    out = ua / (u0 * u0 - ua * ua)
    if r is not None:
        out *= (resolvent_density(query.idx, r, a)
                / resolvent_density(query.idx, r, 0.0))
    return out


def lt_hit_abs(idx, q: float, a: float) -> float:
    """E[e^{-q T_a(|X|)}] = 2 u(a) / (u(0) + u(2a))."""
    query = HittingQuery(idx, q, a=_nonzero(a))
    return 2.0 * query.u(a) / (query.u(0.0) + query.u(2.0 * a))


def lt_hit_abs_series(idx, q: float, a: float, n_terms: int):
    """Partial sums of 2 sum_n (-1)^n phi_{0->a} phi_{0->2a}^n.

    Returns ``(partial_sum, (low, high))`` where the bracket is spanned by the
    last two partial sums; the alternating geometric structure guarantees it
    contains lt_hit_abs.
    """
    if n_terms < 2:
        raise DomainError("need n_terms >= 2")
    query = HittingQuery(idx, q, a=_nonzero(a))
    u0 = query.u(0.0)
    phi_a = query.u(a) / u0
    phi_2a = query.u(2.0 * a) / u0
    total = 0.0
    term = 2.0 * phi_a
    prev = 0.0
    for _ in range(n_terms):
        prev = total
        total += term
        term *= -phi_2a
    return total, (min(prev, total), max(prev, total))


def leg_decomposition_gap(idx, q: float, a: float, n: int) -> float:
    """D_n: how much hitting (2n+1)a directly beats a first leg to (2n-1)a
    plus an independent 2a leg, in Laplace-transform terms.

    Evaluated both as phi_{0->(2n+1)a} - phi_{0->(2n-1)a} phi_{0->2a} and as
    phi_{0->(2n+1)a < (2n-1)a} (1 - phi_{0->2a}^2); the two routes must agree
    to 1e-9 and the mean is returned.  Vanishes identically at alpha = 2 and
    is strictly positive for alpha < 2.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    query = HittingQuery(idx, q, a=_nonzero(a))
    u = query.u
    u0 = u(0.0)
    direct = (u((2 * n + 1) * a) / u0
              - (u((2 * n - 1) * a) / u0) * (u(2.0 * a) / u0))
    before = lt_hit_before(HittingQuery(idx, q, x=0.0, a=(2 * n + 1) * a,
                                        b=(2 * n - 1) * a))
    routed = before * (1.0 - (u(2.0 * a) / u0) ** 2)
    if abs(direct - routed) > 1e-9:
        raise ConsistencyError(
            f"D_n routes disagree: {direct} vs {routed} at n={n}")
    return 0.5 * (direct + routed)


def _v_q(query: HittingQuery) -> float:
    u0 = query.u(0.0)
    v = u0 * u0 + u0 * query.u(2.0 * query.a) - 2.0 * query.u(query.a) ** 2
    if v <= 0.0:
        raise DegenerateDenominator(f"V_q(a) = {v} <= 0")
    return v


def lt_hit_three(idx, q: float, x: float, a: float) -> float:
    """E[e^{-q T_{{0, a, -a}}}] started at x."""
    query = HittingQuery(idx, q, x=x, a=_nonzero(a))
    u = query.u
    v = _v_q(query)
    u0 = u(0.0)
    c_zero = (u0 + u(2.0 * a) - 2.0 * u(a)) / v
    c_side = (u0 - u(a)) / v
    return c_zero * u(x) + c_side * (u(x - a) + u(x + a))


def lt_hit_pair_before_zero(idx, q: float, x: float, a: float) -> float:
    """E[e^{-q T_{{a,-a}}}; T_{{a,-a}} < T_0] started at x:
    (u(0) (u(x-a) + u(x+a)) - 2 u(a) u(x)) / V_q(a)."""
    query = HittingQuery(idx, q, x=x, a=_nonzero(a))
    u = query.u
    return ((u(0.0) * (u(x - a) + u(x + a)) - 2.0 * u(a) * u(x))
            / _v_q(query))


def _h_combo(idx, a: float) -> float:
    """4 h(a) - h(2a), the |X| analogue of 2 h(a)."""
    return (4.0 * potential_kernel(idx, a)
            - potential_kernel(idx, 2.0 * a))


def lt_last_exit_abs(idx, q: float, a: float) -> float:
    """E[e^{-q G_a(|X|)}] = 2 V_q(a) / ((u(0) + u(2a)) (4h(a) - h(2a)))."""
    query = HittingQuery(idx, q, a=_nonzero(a))
    return (2.0 * _v_q(query)
            / ((query.u(0.0) + query.u(2.0 * a)) * _h_combo(query.idx, a)))


def lt_post_exit_abs(idx, q: float, a: float) -> float:
    """E[e^{-q (T_a - G_a)(|X|)}] = u(a) (4h(a) - h(2a)) / V_q(a)."""
    query = HittingQuery(idx, q, a=_nonzero(a))
    return query.u(a) * _h_combo(query.idx, a) / _v_q(query)


def excursion_hit_mass_abs(idx, a: float) -> float:
    """m(T_a < zeta) for |X|: 2 / (4 h(a) - h(2a))."""
    idx = as_index(idx).require_point_hitting()
    if a <= 0:
        raise DomainError("a must be positive")
    return 2.0 / _h_combo(idx, a)


def excursion_hit_lt_abs(idx, q: float, a: float, r: Optional[float] = None) -> float:
    """m[e^{-q T_a - r (zeta - T_a)}; T_a < zeta]
    = (u_r(a)/u_r(0)) 2 u_q(a) / V_q(a); r = None takes r -> 0+."""
    if a <= 0:
        raise DomainError("a must be positive")
    query = HittingQuery(idx, q, a=a, r=r)
    out = 2.0 * query.u(a) / _v_q(query)
    if r is not None:
        out *= (resolvent_density(query.idx, r, a)
                / resolvent_density(query.idx, r, 0.0))
    return out


def _nonzero(a: float) -> float:
    if a == 0.0:
        raise DomainError("target level a must be nonzero")
    return a
