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

Every law takes the stability index ``alpha`` as a float and raises
DomainError outside 1 < alpha <= 2; a law in q checks ``alpha`` and ``q``
once, in ``_resolvent``, also where they come in a ``HittingQuery``, and
reads each u(y) once (``_v_q`` takes the levels the law has read).  A start
point ``x`` must be finite, and so must every target.  A level ``a`` is
checked by one rule, ``errors._nonzero``, also in the |X| laws, where u
and h are even, so a level -a gives the value at a.

Every law in q broadcasts over all its arguments but ``alpha`` and the
term counts: with q an array, each of x, a, b and r may be a float or an
array of q's shape, and the law returns an array of q's shape whose
elements equal the float calls' bit for bit.  ``_resolvent`` reads u_1 for
the whole array through ``resolvent._u1_rows``, powers are C ``pow`` per
element (``resolvent._pow``), the bodies are the same numpy-safe
arithmetic, and a check that any element fails raises.  Squares are
products, ``u * u``, since Python's ``u ** 2`` calls C ``pow``, which can
differ from numpy's square in the last bit.  The excursion masses and
``potential_kernel`` take an array of a the same way.
"""

from __future__ import annotations

from math import inf
from typing import NamedTuple, Optional

import numpy as np

from .errors import (ConsistencyError, DegenerateDenominator, DomainError,
                     _count, _finite, _nonzero, _point_alpha, _positive)
from .resolvent import _pow, _resolvent, potential_kernel


class HittingQuery(NamedTuple):
    """The input of ``lt_hit_point``, ``lt_hit_either`` and ``lt_hit_before``,
    which check its fields: the index ``alpha`` in (1, 2], the rate ``q``,
    the start ``x``, the target ``a`` and an optional second target ``b``."""

    alpha: float
    q: float
    x: float = 0.0
    a: float = 1.0
    b: Optional[float] = None


def _second_target(a: float, b: Optional[float]) -> float:
    """The second target ``b``, or DomainError where it is missing, equal to
    ``a`` or NaN, or where either target is infinite; for arrays, where any
    element is, as in ``errors``."""
    if b is None:
        raise DomainError("second target b required")
    try:
        if abs(a - b) > 0.0 and -inf < a < inf and -inf < b < inf:
            return b
    except ValueError:
        pass
    # an array, or floats that fail: the rules in order, for the message
    if not np.all(abs(a - b) > 0.0):
        raise DomainError("targets a and b must differ")
    _finite("a", a)
    return _finite("b", b)


def lt_hit_point(query: HittingQuery) -> float:
    """E[e^{-q T_a}] started at x: u(x-a) / u(0)."""
    u = _resolvent(query.alpha, query.q)
    return u(_finite("x", query.x) - _finite("a", query.a)) / u(0.0)


def lt_hit_either(query: HittingQuery) -> float:
    """E[e^{-q (T_a ^ T_b)}] started at x:
    (u(x-a) + u(x-b)) / (u(0) + u(a-b))."""
    alpha, q, x, a, b = query
    b = _second_target(a, b)
    u = _resolvent(alpha, q)
    x = _finite("x", x)
    return (u(x - a) + u(x - b)) / (u(0.0) + u(a - b))


def lt_hit_before(query: HittingQuery) -> float:
    """E[e^{-q T_a}; T_a < T_b] started at x."""
    alpha, q, x, a, b = query
    b = _second_target(a, b)
    u = _resolvent(alpha, q)
    u0, uab = u(0.0), u(a - b)
    den = _u_gap(u0, uab, a - b)
    x = _finite("x", x)
    return (u0 * u(x - a) - uab * u(x - b)) / den


def _u_gap(u0: float, ud: float, d: float) -> float:
    """u_q(0)^2 - u_q(d)^2, or DegenerateDenominator where it rounds to 0
    or below, as it does for |d| far below the scale q^{-1/alpha}."""
    den = u0 * u0 - ud * ud
    if _any(den <= 0.0):
        raise DegenerateDenominator(
            f"u_q(0)^2 - u_q(d)^2 = {np.min(den)} for d = {d}")
    return den


def _any(flags) -> bool:
    """Whether a check fails: ``flags`` is a bool (numpy's, for a numpy
    float q), or an array of them for an array of q, which fails where any
    element does."""
    return bool(flags.any()) if isinstance(flags, np.ndarray) else flags


def prob_hit_before(alpha, x: float, a: float, b: float) -> float:
    """P(T_a < T_b) started at x; Getoor's two-point formula
    (the q -> 0 limit of lt_hit_before)."""
    e = _point_alpha(alpha) - 1.0
    b = _second_target(a, b)
    x = _finite("x", x)
    return 0.5 * (1.0 + (_pow(abs(x - b), e) - _pow(abs(x - a), e))
                  / _pow(abs(a - b), e))


def lt_last_exit(alpha, q: float, a: float) -> float:
    """E[e^{-q G_a}] = (u(0)^2 - u(a)^2) / (2 h(a) u(0))."""
    u = _resolvent(alpha, q)
    u0, ua = u(0.0), u(_nonzero(a))
    return (u0 * u0 - ua * ua) / (2.0 * potential_kernel(alpha, a) * u0)


def lt_post_exit(alpha, q: float, a: float) -> float:
    """E[e^{-q (T_a - G_a)}] = 2 h(a) u(a) / (u(0)^2 - u(a)^2)."""
    u = _resolvent(alpha, q)
    u0, ua = u(0.0), u(_nonzero(a))
    return 2.0 * potential_kernel(alpha, a) * ua / _u_gap(u0, ua, a)


def excursion_hit_mass(alpha, a: float) -> float:
    """Excursion-measure mass of paths reaching a: n(T_a < zeta) = 1/(2 h(a))."""
    alpha = _point_alpha(alpha)
    return 1.0 / (2.0 * potential_kernel(alpha, _nonzero(a)))


def _after_hit(alpha, r: Optional[float], a: float) -> float:
    """u_r(a)/u_r(0), the factor of zeta - T_a; 1 at r = None (r -> 0+)."""
    if r is None:
        return 1.0
    if type(a) is np.ndarray:
        # one rate per level; a type test, as in ``potential_kernel``
        r = np.full(a.shape, r)
    u = _resolvent(alpha, _positive("r", r))
    return u(a) / u(0.0)


def excursion_hit_lt(alpha, q: float, a: float, r: Optional[float] = None) -> float:
    """n[e^{-q T_a - r (zeta - T_a)}; T_a < zeta]
    = (u_r(a)/u_r(0)) u_q(a) / (u_q(0)^2 - u_q(a)^2); r = None takes r -> 0+,
    where the leading ratio tends to 1."""
    u = _resolvent(alpha, q)
    u0, ua = u(0.0), u(_nonzero(a))
    return ua / _u_gap(u0, ua, a) * _after_hit(alpha, r, a)


def lt_hit_abs(alpha, q: float, a: float) -> float:
    """E[e^{-q T_a(|X|)}] = 2 u(a) / (u(0) + u(2a))."""
    u = _resolvent(alpha, q)
    return 2.0 * u(_nonzero(a)) / (u(0.0) + u(2.0 * a))


def lt_hit_abs_series(alpha, q: float, a: float, n_terms: int):
    """Partial sums of 2 sum_n (-1)^n phi_{0->a} phi_{0->2a}^n.

    Returns ``(partial_sum, (low, high))`` where the bracket is spanned by the
    last two partial sums; the alternating geometric structure guarantees it
    contains lt_hit_abs.
    """
    n_terms = _count("n_terms", n_terms, 2)
    u = _resolvent(alpha, q)
    u0 = u(0.0)
    phi_a = u(_nonzero(a)) / u0
    phi_2a = u(2.0 * a) / u0
    total = 0.0
    term = 2.0 * phi_a
    prev = 0.0
    for _ in range(n_terms):
        # not +=, which would change an array of q under prev
        prev, total = total, total + term
        term = term * -phi_2a
    if isinstance(total, np.ndarray):
        return total, (np.minimum(prev, total), np.maximum(prev, total))
    return total, (min(prev, total), max(prev, total))


def leg_decomposition_gap(alpha, q: float, a: float, n: int) -> float:
    """D_n: how much hitting (2n+1)a directly beats a first leg to (2n-1)a
    plus an independent 2a leg, in Laplace-transform terms.

    Evaluated both as phi_{0->(2n+1)a} - phi_{0->(2n-1)a} phi_{0->2a} and as
    phi_{0->(2n+1)a < (2n-1)a} (1 - phi_{0->2a}^2); the two routes must agree
    to 1e-9 and the mean is returned.  Vanishes identically at alpha = 2 and
    is strictly positive for alpha < 2.
    """
    n = _count("n", n, 1)
    a = _nonzero(a)
    u = _resolvent(alpha, q)
    u0 = u(0.0)
    phi_2a = u(2.0 * a) / u0
    direct = u((2 * n + 1) * a) / u0 - (u((2 * n - 1) * a) / u0) * phi_2a
    before = lt_hit_before(HittingQuery(alpha, q, x=0.0, a=(2 * n + 1) * a,
                                        b=(2 * n - 1) * a))
    routed = before * (1.0 - phi_2a * phi_2a)
    if _any(abs(direct - routed) > 1e-9):
        raise ConsistencyError(
            f"D_n routes disagree: {direct} vs {routed} at n={n}")
    return 0.5 * (direct + routed)


def _v_q(u0: float, ua: float, u2a: float) -> float:
    """V_q(a) from u(0), u(a) and u(2a) of u = u_q, at a level a != 0."""
    v = u0 * u0 + u0 * u2a - 2.0 * ua * ua
    if _any(v <= 0.0):
        raise DegenerateDenominator(f"V_q(a) = {np.min(v)} <= 0")
    return v


def lt_hit_three(alpha, q: float, x: float, a: float) -> float:
    """E[e^{-q T_{{0, a, -a}}}] started at x."""
    u = _resolvent(alpha, q)
    x = _finite("x", x)
    u0, ua, u2a = u(0.0), u(_nonzero(a)), u(2.0 * a)
    v = _v_q(u0, ua, u2a)
    c_zero = (u0 + u2a - 2.0 * ua) / v
    c_side = (u0 - ua) / v
    return c_zero * u(x) + c_side * (u(x - a) + u(x + a))


def lt_hit_pair_before_zero(alpha, q: float, x: float, a: float) -> float:
    """E[e^{-q T_{{a,-a}}}; T_{{a,-a}} < T_0] started at x:
    (u(0) (u(x-a) + u(x+a)) - 2 u(a) u(x)) / V_q(a)."""
    u = _resolvent(alpha, q)
    x = _finite("x", x)
    a = _nonzero(a)
    u0, side, ua = u(0.0), u(x - a) + u(x + a), u(a)
    return (u0 * side - 2.0 * ua * u(x)) / _v_q(u0, ua, u(2.0 * a))


def _h_combo(alpha, a: float) -> float:
    """4 h(a) - h(2a), the |X| analogue of 2 h(a)."""
    return (4.0 * potential_kernel(alpha, a)
            - potential_kernel(alpha, 2.0 * a))


def lt_last_exit_abs(alpha, q: float, a: float) -> float:
    """E[e^{-q G_a(|X|)}] = 2 V_q(a) / ((u(0) + u(2a)) (4h(a) - h(2a)))."""
    u = _resolvent(alpha, q)
    u0, ua, u2a = u(0.0), u(_nonzero(a)), u(2.0 * a)
    return 2.0 * _v_q(u0, ua, u2a) / ((u0 + u2a) * _h_combo(alpha, a))


def lt_post_exit_abs(alpha, q: float, a: float) -> float:
    """E[e^{-q (T_a - G_a)(|X|)}] = u(a) (4h(a) - h(2a)) / V_q(a)."""
    u = _resolvent(alpha, q)
    u0, ua, u2a = u(0.0), u(_nonzero(a)), u(2.0 * a)
    return ua * _h_combo(alpha, a) / _v_q(u0, ua, u2a)


def excursion_hit_mass_abs(alpha, a: float) -> float:
    """m(T_a < zeta) for |X|: 2 / (4 h(a) - h(2a))."""
    alpha = _point_alpha(alpha)
    return 2.0 / _h_combo(alpha, _nonzero(a))


def excursion_hit_lt_abs(alpha, q: float, a: float, r: Optional[float] = None) -> float:
    """m[e^{-q T_a - r (zeta - T_a)}; T_a < zeta]
    = (u_r(a)/u_r(0)) 2 u_q(a) / V_q(a); r = None takes r -> 0+."""
    _nonzero(a)
    u = _resolvent(alpha, q)
    u0, ua, u2a = u(0.0), u(a), u(2.0 * a)
    return 2.0 * ua / _v_q(u0, ua, u2a) * _after_hit(alpha, r, a)
