"""Transition density, resolvent density and potential kernel of the
symmetric stable process normalized by E[e^{i theta X(t)}] = e^{-t|theta|^alpha}.

All evaluations reduce to t = 1 (density) or q = 1 (resolvent) through the
self-similarity scaling before any quadrature runs.  p_1 and u_1 each have
one kernel, ``_p1`` and ``_u1``; only ``_u1`` is cached, and the Linnik
density of ``distributions`` is u_1 itself and shares that cache.
``_u1_rows`` and ``_p1_rows`` give u_1 and p_1 of an array, equal to ``_u1``
and ``_p1`` element by element, from blocks of the same rules (``_u1_rule``,
``_zolotarev_rule``) run by ``_rows``, and keep no cache; each pair routes w
through one function (``_u1_closed``, ``_p1_closed``) and sums a rule's row
in another (``_u1_sum``, ``_p1_sum``).  So u_q, and every hitting law with
it, takes an array of q, and p_t an array of t and x; the reader of u_q at
an array of q keeps the u_1 values it has read for the life of one law
call, so a level read twice runs its rule once.  ``_pow`` forms each power
of an array by C ``pow``, as for a float.

Neither kernel takes an oscillatory route.  ``_p1`` is Zolotarev's integral of
a positive function for every alpha != 1, ``_u1`` the integral of a positive
function that rotating the contour xi -> i v gives; each runs on the same
fixed tanh-sinh rule in numpy, and ``_settled`` checks every evaluation of
either against the rule's half-step version.  Against 40-digit mpmath the
relative error of ``_p1`` is below 1e-13 for alpha in [1.01, 1.99] and w in
[1e-6, 1e6] and below 1e-12 for alpha in [0.1, 0.999] and w in [1e-12, 1e300],
that of ``_u1`` below 1e-12 for alpha in [0.9, 1.999] and w in [1e-6, 1e6];
``_p1`` stays positive for w in [1e-100, 1e100] and ``_u1`` out to w = 1e60.
Far out both return their common leading asymptote (``_far_field``), except
that ``_p1`` sums the convergent series ``_p1_series`` for alpha < 1.  At
w = 0 they return the closed forms Gamma(1 + 1/alpha)/pi and ``u1_zero``, at
alpha = 2 the Gaussians, and ``_p1`` at alpha = 1 the Cauchy density.  Only
the reference quadratures ``one_minus_cos_integral`` and
``distributions.alpha_cauchy_charfn`` integrate a cosine.

The stability index ``alpha`` is a plain float throughout the package;
the validators ``_alpha`` and ``_point_alpha`` that check its range, like
every other domain check, live in ``errors``.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache, partial

import numpy as np

from .errors import (DomainError, NonConvergence, _alpha, _inside,
                     _point_alpha, _positive)
from .numerics import REL_TOL, integrate_adaptive, integrate_oscillatory_cos

# Tanh-sinh rule (Takahasi and Mori, 1974) for ``_u1`` and ``_p1``: nodes
# t_k = k/64 for |k| <= 205, that is |t| <= 3.2.  At node t the tanh-sinh
# abscissa x on (0, 1) has logit x = _TS_S = pi sinh t and (1 - x)/x = _TS_R;
# _TS_W is the step times dx/dt divided by x^2, and _TS_LOGD is the log of
# the step times d(logit x)/dt.  Every other node, t = 0 among them, is the
# same rule at step 1/32.
_TS_T = np.arange(-205, 206) / 64.0
_TS_S = math.pi * np.sinh(_TS_T)
_TS_R = np.exp(-_TS_S)
_TS_W = math.pi * np.cosh(_TS_T) * _TS_R / 64.0
_TS_LOGD = np.log(math.pi * np.cosh(_TS_T) / 64.0)
_TS_HALF = slice(1, None, 2)
_HALF_PI = 0.5 * math.pi


def _far_field(alpha: float, w: float):
    """Gamma(1 + a) sin(pi a/2) / (pi w^{1+a}), the leading term as w -> inf
    of both p_1(w) and u_1(w), or None nearer in.

    It is taken only beyond w^{2+a} = e^{600}, where the products of ``_u1``
    near its peak leave the range of doubles (not much further out, the
    nodes of ``_p1`` would pass logit 700), and where also w^a > e^{40}: the
    next term of either series is at most 24 w^{-a} times the first, below
    1e-16 relative.
    """
    lw = math.log(w)
    if (2.0 + alpha) * lw <= 600.0 or alpha * lw <= 40.0:
        return None
    return (math.gamma(1.0 + alpha) * math.sin(_HALF_PI * alpha) / math.pi
            * math.exp(-(1.0 + alpha) * lw))


def _zolotarev_log_v(alpha: float, lw: float, L: float):
    """g = log(y V) at logit(th/(pi/2)) = L, and dg/dL, for ``_p1``."""
    a1 = alpha - 1.0
    e = math.exp(-abs(L))
    s, q = 1.0 / (1.0 + e), e / (1.0 + e)      # s = th/(pi/2), q = 1 - s
    if L < 0:
        s, q = q, s
    x = min(alpha * s, (2.0 - alpha) + alpha * q)   # sin(alpha th) = sin(pi x/2)
    sa, ca = math.sin(_HALF_PI * x), math.cos(_HALF_PI * x)
    if alpha * s > 1.0:
        ca = -ca
    ct, st = math.sin(_HALF_PI * q), math.cos(_HALF_PI * q)
    b = a1 * _HALF_PI * s
    g = (alpha * (lw - math.log(sa)) + math.log(ct)) / a1 + math.log(math.cos(b))
    dg = (-(st / ct) - alpha * alpha * ca / sa) / a1 - a1 * math.tan(b)
    return g, dg * _HALF_PI * s * q


def _zolotarev_centre(alpha: float, lw: float) -> float:
    """The root c of log(y V) in L = logit(th/(pi/2)), to 0.1 |alpha - 1|.

    Newton's method starts from one of the two asymptotic roots,
    th = w/alpha and pi/2 - th = sin(pi alpha/2) w^{-alpha}: the later for
    alpha > 1, where log(y V) decreases in L, the earlier for alpha < 1,
    where it increases.  Each step narrows a bracket; a step that leaves the
    bracket bisects it, and no step is longer than 4.
    """
    a1 = alpha - 1.0
    roots = (lw - math.log(alpha * _HALF_PI),
             alpha * lw + math.log(_HALF_PI / math.sin(_HALF_PI * alpha)))
    L = max(roots) if a1 > 0.0 else min(roots)
    lo, hi = -math.inf, math.inf
    for _ in range(60):
        g, dg = _zolotarev_log_v(alpha, lw, L)
        if (g > 0.0) == (a1 > 0.0):
            lo = L
        else:
            hi = L
        nxt = L - min(4.0, max(-4.0, g / dg))
        if not lo <= nxt <= hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - L) < 0.1 * abs(a1):
            return nxt
        L = nxt
    raise NonConvergence(
        f"p_1 peak search did not settle at alpha={alpha}, w={math.exp(lw)}")


def _p1(alpha: float, w: float) -> float:
    """p_1(w) = (1/pi) int_0^inf cos(w xi) e^{-xi^alpha} dxi, w >= 0.

    For a != 1 and w > 0, Zolotarev's integral (Zolotarev 1986; Nolan 1997)
    gives p_1 as an integral of a positive function: with y = w^{a/(a-1)},

        p_1(w) = a / (pi |a-1| w) int_0^{pi/2} y V e^{-y V} dth,
        V(th) = (cos th / sin(a th))^{a/(a-1)} cos((a-1) th) / cos th.

    V falls from infinity to 0 for a > 1 and rises from 0 to infinity for
    a < 1, so the integrand peaks near y V = 1.  The tanh-sinh rule runs in
    L = logit(th/(pi/2)) = c + (a-1) pi sinh t, with c the root of log(y V)
    found by ``_zolotarev_centre``.  log V is nearly linear in L, with slopes
    -a/(a-1) and -1/(a-1) at the two ends, so the stretch |a - 1| gives the
    peak unit width in t for every a > 1.  The integrand is formed in log
    space, with cos th = sin((pi/2)(1 - s)) and sin(a th) =
    sin((pi/2)(2 - a s)) past its maximum, so that nothing cancels at either
    end.  ``_settled`` checks the rule against its every-other-node half; a
    pass that fails is followed by one more, centred on its largest node.

    Against mpmath (the power series at small w, a cosine integral at
    moderate w, the asymptotic series from w = 30) its relative error is
    below 1e-13 for alpha in [1.01, 1.99] and w in [1e-6, 1e6].  It grows
    like 1e-16/(alpha - 1) below alpha = 1.01, and up to alpha = 1.9999 it
    stays below 1e-12 wherever the half-step check passes.  From alpha = 1.999
    near w = 3 the first pass fails that check, since the bulk of the
    integrand lies on the flat part of V, left of the root; the re-centred
    pass passes it at alpha 1.999 and 1.9999 for w = 3 and 5, but at
    alpha = 1.9999, w = 8 the gap stays at 3e-8 and ``NonConvergence`` is
    raised.  For alpha in [0.1, 0.999] and w in [1e-12, 1e300] it is within
    7e-13 of 40-digit mpmath wherever p_1 is a normal double.  At smaller w
    the weight s of dth moves the peak right of the root, by
    log(1/alpha)/alpha units of t, and widens it like alpha^{-1/2}: at
    alpha = 0.1 the error is 2.5e-12 below w = 1e-20, and from alpha = 0.05
    down the half-step check fails there.

    Below w = 1e-9 for alpha > 1, where p_1(w)/p_1(0) = 1 - O(w^2) rounds to
    1, the value is the closed form p_1(0) = Gamma(1 + 1/alpha)/pi.  For
    alpha < 1 the w^2 coefficient Gamma(3/a) / (2 Gamma(1/a)) reaches 1e25
    at a = 0.1, so the rule runs down to w = 1e-300.  The far field is
    ``_far_field`` for alpha > 1 and ``_p1_series`` for alpha < 1; alpha = 1
    is the Cauchy density and alpha = 2 the Gaussian.
    """
    value = _p1_closed(alpha, w)
    if value is not None:
        return value
    lw = math.log(w)
    c = _zolotarev_centre(alpha, lw)
    return _p1_sum(alpha, w, lw, c, _zolotarev_rule(alpha, lw, c))


# Smallest alpha at which p_1(0) = Gamma(1 + 1/alpha)/pi is a finite double:
# Gamma overflows past 171.6243769563027.
_P1_ZERO_ALPHA_MIN = 1.0 / 170.6243769563027


def _p1_closed(alpha: float, w: float):
    """p_1(w) where ``_p1`` takes a closed form or a series, None where it
    runs its rule: alpha = 2 is the Gaussian and alpha = 1 the Cauchy
    density, w below 1e-9 (1e-300 for alpha < 1) is p_1(0), which raises
    DomainError below ``_P1_ZERO_ALPHA_MIN``, and far out it is
    ``_far_field`` for alpha > 1 and ``_p1_series`` for alpha < 1."""
    if alpha == 2.0:
        return math.exp(-0.25 * w * w) / (2.0 * math.sqrt(math.pi))
    if alpha == 1.0:
        return 1.0 / (math.pi * (1.0 + w * w))
    if w < (1e-9 if alpha > 1.0 else 1e-300):
        try:
            return math.gamma(1.0 + 1.0 / alpha) / math.pi
        except OverflowError:
            raise DomainError(
                f"alpha={alpha}: p_1(0) = Gamma(1 + 1/alpha)/pi overflows "
                f"below alpha = {_P1_ZERO_ALPHA_MIN:.4g}") from None
    if alpha > 1.0:
        return _far_field(alpha, w)
    return _p1_series(alpha, math.log(w))


def _p1_sum(alpha: float, w: float, lw: float, c: float, f) -> float:
    """p_1(w) from the row ``f`` of ``_zolotarev_rule`` centred at c, once
    ``_settled`` accepts it.  Where it does not, the bulk of the integrand
    lies away from the root of log(y V), and one more pass, centred on the
    row's largest node, must settle."""
    for last in (False, True):
        rule = float(f.sum())
        half = 2.0 * float(f[_TS_HALF].sum())
        value = 0.5 * alpha * math.exp(_zolotarev_weight(c) - lw) * rule
        if _settled("p_1", value, rule, half, alpha, w, last):
            return value
        c += (alpha - 1.0) * _TS_S[int(np.argmax(f))]
        f = _zolotarev_rule(alpha, lw, c)


def _settled(kernel, value, rule, half, alpha, w, last=True) -> bool:
    """Whether a rule's half-step sum ``half`` is within 10 ``REL_TOL`` of
    its sum ``rule``; ``NonConvergence`` where the kernel's ``value`` is not
    finite and positive, or the gap is wider on the ``last`` pass."""
    if not (math.isfinite(value) and value > 0.0):
        raise NonConvergence(
            f"{kernel} rule gave {value!r} at alpha={alpha}, w={w}")
    settled = abs(rule - half) <= 10.0 * REL_TOL * rule
    if last and not settled:
        raise NonConvergence(
            f"{kernel} rule and its half-step rule differ by "
            f"{abs(rule - half) / rule:.3g} relative at alpha={alpha}, w={w}")
    return settled


def _p1_series(alpha: float, lw: float):
    """p_1(w) for alpha < 1 by the series, convergent for every w > 0,

        (1/pi) sum_k (-1)^{k+1} Gamma(k a + 1)/k! sin(k pi a/2) w^{-k a - 1},

    or None where a log w <= 8.  Beyond that each term is at most about e^{-8}
    times the one before; the terms are formed in log space, so they
    underflow rather than overflow."""
    if alpha * lw <= 8.0:
        return None
    total = 0.0
    for k in range(1, 40):
        size = math.exp(math.lgamma(k * alpha + 1.0) - math.lgamma(k + 1.0)
                        - (k * alpha + 1.0) * lw)
        total += (-1.0) ** (k + 1) * math.sin(k * _HALF_PI * alpha) * size
        if size <= 1e-17 * abs(total):
            break
    return total / math.pi


def _zolotarev_weight(c: float) -> float:
    """The log of the weight e^{-1} s (1 - s) of ``_p1``'s integrand at
    L = c, by which ``_zolotarev_rule`` scales its row."""
    return -1.0 - abs(c) - 2.0 * math.log1p(math.exp(-abs(c)))


def _zolotarev_rule(alpha: float, lw, c):
    """The integrand of ``_p1``'s tanh-sinh rule centred at L = c, at the
    nodes, scaled by its weight at the centre (``_zolotarev_weight``), for
    floats lw = log w and c, or for columns of them with one row of nodes
    each."""
    a1 = alpha - 1.0
    L = c + a1 * _TS_S
    e = np.exp(L)
    q = 1.0 / (1.0 + e)                       # 1 - s, with s = th/(pi/2)
    s = e * q
    x = np.minimum(alpha * s, (2.0 - alpha) + alpha * q)
    g = ((alpha * (lw - np.log(np.sin(_HALF_PI * x)))
          + np.log(np.sin(_HALF_PI * q))) / a1
         + np.log(np.cos((a1 * _HALF_PI) * s)))
    if isinstance(c, np.ndarray):
        e0 = np.array([[_zolotarev_weight(ci)] for ci in c[:, 0].tolist()])
    else:
        e0 = _zolotarev_weight(c)
    return np.exp(g - np.exp(g) + np.log(s * q) + (_TS_LOGD - e0))


def _p1_rows(alpha: float, w) -> np.ndarray:
    """``_p1(alpha, x)`` for each x of the array ``w``, bit for bit, in an
    array of w's shape.  Each distinct x is routed once, by ``_p1_closed``;
    where that is None, x runs on blocks of at most ``_U1_BLOCK`` rows of
    ``_zolotarev_rule``, each centred by the scalar ``_zolotarev_centre``
    (a Newton search over a whole column would move c in its last bits) and
    summed and checked by ``_p1_sum``, which re-centres a row that fails
    alone; so the first row to fail raises ``_p1``'s message."""
    def block(xs):
        lws = [math.log(x) for x in xs]
        cs = [_zolotarev_centre(alpha, lw) for lw in lws]
        f = _zolotarev_rule(alpha, np.array(lws)[:, None],
                            np.array(cs)[:, None])
        return map(partial(_p1_sum, alpha), xs, lws, cs, f)

    return _rows(w, partial(_p1_closed, alpha), block, {})


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

    ``_settled`` checks the rule against its every-other-node half, as it
    does ``_p1``'s, and ``_u1_closed`` holds the other routes.  Callers pass
    w as a float, so the cache key is a float too.
    """
    value = _u1_closed(alpha, w)
    if value is not None:
        return value
    return _u1_sum(alpha, w, *_u1_rule(alpha, w))


# Largest w at which the products of ``_u1_rule`` are finite doubles: past
# it the exponent -746 q of e^{-w q} (w capped at 746), with
# q = 1 + (w/e) _TS_R, overflows
_U1_RULE_W_MAX = sys.float_info.max / (746.0 * float(_TS_R[0])) * math.e


def _u1_closed(alpha: float, w: float):
    """u_1(w) where ``_u1`` takes a closed form, None where it runs its rule:
    w = 0 is ``u1_zero`` (infinite for alpha <= 1) and alpha = 2 is e^{-w}/2;
    for alpha > 1 and w <= 1e-12 it is u_1(0) - h(1) w^{alpha-1}, h(1) =
    ``potential_kernel_at_one``: within 3.8e-14 of 40-digit mpmath at
    w = 1e-12 for alpha in [1.01, 1.999], where the rule fails near 2, but
    2.7e-12 off at w = 1e-9, alpha = 1.1; far out it is ``_far_field``.
    Below alpha = 40 / log ``_U1_RULE_W_MAX`` (about 0.06) the far field
    starts past the w where the rule overflows, and in between this raises
    DomainError."""
    if alpha == 2.0:
        return 0.5 * math.exp(-w)
    if w == 0.0 or (alpha > 1.0 and w <= 1e-12):
        return u1_zero(alpha) - potential_kernel_at_one(alpha) * w ** (alpha - 1.0)
    value = _far_field(alpha, w)
    if value is None and w > _U1_RULE_W_MAX:
        raise DomainError(
            f"u_1 at alpha={alpha}, w={w}: the rule overflows above "
            f"w = {_U1_RULE_W_MAX:.4g}, and the far-field form holds only "
            f"where alpha log w > 40")
    return value


def _u1_rule(alpha: float, w):
    """The scale m sin(pi a/2)/pi of ``_u1``'s rule and its integrand at the
    nodes, for a float w, or for a column of w with one row of nodes each."""
    c, s = math.cos(0.5 * math.pi * alpha), math.sin(0.5 * math.pi * alpha)
    root = max(1.0, 2.0 * alpha / (math.pi * (2.0 - alpha)))  # e^{logit v}
    if isinstance(w, np.ndarray):
        m = np.maximum(1.0 / np.sqrt(w * root), w / math.e)
        w_cap = np.minimum(w, 746.0)
    else:
        m = max(1.0 / math.sqrt(w * root), w / math.e)
        w_cap = min(w, 746.0)
    q = 1.0 + m * _TS_R
    v = 1.0 / q
    va = q ** -alpha
    far = np.exp(-w_cap * q)  # = e^{-w q}: 0 from w = 746 on, as q >= 1
    g = va * (v * v * np.exp(-w * v) + far) / ((va + c) ** 2 + s * s)
    return m * s / math.pi, g


def _u1_sum(alpha: float, w: float, scale: float, g) -> float:
    """u_1(w) from ``_u1_rule``'s scale and row ``g`` at w, once ``_settled``
    accepts it; 1-d dots, as a matrix product would add in another order."""
    value = scale * float(_TS_W.dot(g))
    half = 2.0 * scale * float(_TS_W[_TS_HALF].dot(g[_TS_HALF]))
    _settled("u_1", value, value, half, alpha, w)
    return value


# rows of a rule, ``_u1``'s or ``_p1``'s, evaluated at once: a block is at
# most _U1_BLOCK x 411 doubles
_U1_BLOCK = 16


def _rows(w, closed, block, values) -> np.ndarray:
    """A kernel's value at each x of the array ``w``, in an array of w's
    shape, from the dict ``values`` of the values already known, which it
    fills.  Each new distinct x is routed once, by ``closed``; where that is
    None, x runs through ``block``, which gives the rule's values for a list
    of at most ``_U1_BLOCK`` such x."""
    ws = np.asarray(w, dtype=float).ravel().tolist()
    new = [x for x in dict.fromkeys(ws) if x not in values]
    values.update((x, closed(x)) for x in new)
    rule = [x for x in new if values[x] is None]
    for start in range(0, len(rule), _U1_BLOCK):
        xs = rule[start:start + _U1_BLOCK]
        values.update(zip(xs, block(xs)))
    return np.array([values[x] for x in ws]).reshape(np.shape(w))


def _u1_rows(alpha: float, w, values=None) -> np.ndarray:
    """``_u1(alpha, x)`` for each x of the array ``w``, bit for bit, in an
    array of w's shape, with no cache of its own.  ``values`` is a dict of
    the u_1 values at this alpha already read, which it reads and fills;
    ``_resolvent`` keeps one for the life of a law call, so that u(2a) at
    one level shares its rows with u(a) at another.  Each new distinct x is
    routed once, by ``_u1_closed``; where that is None, x runs on blocks of
    at most ``_U1_BLOCK`` rows of ``_u1_rule``, each summed and checked by
    ``_u1_sum``, so the first row to fail raises ``_u1``'s message."""
    def block(xs):
        scale, g = _u1_rule(alpha, np.array(xs)[:, None])
        return map(partial(_u1_sum, alpha), xs,
                   scale[:, 0].tolist(), g)

    return _rows(w, partial(_u1_closed, alpha), block,
                 {} if values is None else values)


def u1_zero(alpha: float) -> float:
    """Closed form of u_1(0): Gamma(1 - 1/a) Gamma(1/a) / (a pi).

    The integral diverges for alpha <= 1, where this raises DomainError, as
    it does outside (0, 2]."""
    alpha = _alpha(alpha)
    if alpha <= 1.0:
        raise DomainError(
            f"alpha={alpha}: u_1(0) is infinite for alpha <= 1")
    g = 1.0 / alpha
    return math.gamma(1.0 - g) * math.gamma(g) / (alpha * math.pi)


def transition_density(alpha, t, x):
    """Density of X(t) at x, via p_t(x) = t^{-1/a} p_1(x t^{-1/a}), for
    floats t and x or, element by element and bit for bit, for arrays of
    either: the power is ``_pow`` and p_1 comes from ``_p1_rows``.  Where
    t^{-1/a} passes the double range, t <= DBL_MAX^{-alpha} (only for
    alpha below about 1.049), this raises DomainError."""
    alpha = _alpha(alpha)
    try:
        scale = _pow(_positive("t", t), -(1.0 / alpha))
    except OverflowError:
        raise DomainError(
            f"density time t = {t} is not above DBL_MAX^(-alpha) = "
            f"{math.exp(-alpha * math.log(sys.float_info.max)):.4g} at "
            f"alpha = {alpha}, where t^(-1/alpha) overflows") from None
    w = abs(x) * scale
    if type(w) is np.ndarray:
        return scale * _p1_rows(alpha, w)
    return scale * _p1(alpha, w)


def _pow(x, e: float):
    """x ** e, by C ``pow`` for a float x and for each element of an array
    x: numpy's ``power`` differs from it in the last bit on some doubles, so
    an array call would not give the float calls' bits."""
    # a type test, not ``isinstance``: on a float it costs about 35 ns,
    # ``isinstance`` about 70 ns (2-core x86-64 host)
    if type(x) is not np.ndarray:
        return x ** e
    return np.array([v ** e for v in x.ravel().tolist()]).reshape(x.shape)


def _resolvent(alpha, q):
    """y -> u_q(y) = q^{1/a - 1} u_1(|y| q^{1/a}), with alpha and q checked
    and q^{1/a} formed once for all the points read.

    ``q`` is a float, or an array for which u_q(y), at a float y or an
    array of q's shape, is an array of q's shape: its q^{1/a} is ``_pow``
    and u_1 comes from ``_u1_rows``, so each element equals the float
    call's bit for bit.  The u_1 values read are kept for the life of the
    reader, one law call, so a level read twice, such as u(2a) at a = 0.5
    and u(a) at a = 1, runs its rule once."""
    alpha = _point_alpha(alpha)
    k = 1.0 / alpha
    if isinstance(q, np.ndarray):
        q = _positive("q", q.astype(float))
        scale = _pow(q, k)
        factor = scale / q
        known = {}
        return lambda y: factor * _u1_rows(alpha, abs(y) * scale, known)
    scale = _positive("q", q) ** k
    factor = scale / q
    return lambda y: factor * _u1(alpha, float(abs(y) * scale))


def resolvent_density(alpha, q, x: float):
    """Resolvent density u_q(x), via u_q(x) = q^{1/a - 1} u_1(x q^{1/a}),
    for a float q or an array of q."""
    return _resolvent(alpha, q)(x)


def potential_kernel_at_one(alpha: float) -> float:
    """The constant 1 / (2 Gamma(alpha) sin((alpha - 1) pi / 2)) for
    1 < alpha < 3, which ``one_minus_cos_integral`` gives by quadrature."""
    _inside("alpha", alpha, 1.0, 3.0)
    return 1.0 / (2.0 * math.gamma(alpha) * math.sin(0.5 * math.pi * (alpha - 1.0)))


def potential_kernel(alpha, x: float) -> float:
    """lim_{q->0} [u_q(0) - u_q(x)] = |x|^{alpha-1} / (2 G(a) sin((a-1)pi/2)),
    for a float x or, element by element, an array of x."""
    alpha = _point_alpha(alpha)
    return potential_kernel_at_one(alpha) * _pow(abs(x), alpha - 1.0)


def one_minus_cos_integral(alpha: float) -> float:
    """(1/pi) int_0^inf (1 - cos x) / x^alpha dx for 1 < alpha < 3, by quadrature.

    The closed form of this constant is a test oracle, not the implementation.
    The integral is split at a cosine zero z = (K + 1/2) pi: the head uses the
    cancellation-free form 2 sin^2(x/2), the tail contributes the exact
    power-law piece minus the cosine integral of x^{-alpha} over (z, inf).
    """
    _inside("alpha", alpha, 1.0, 3.0)
    z = 8.5 * math.pi
    head = integrate_adaptive(
        lambda x: 2.0 * math.sin(0.5 * x) ** 2 / x ** alpha, 0.0, z)
    power_tail = z ** (1.0 - alpha) / (alpha - 1.0)
    cos_tail = integrate_oscillatory_cos(lambda x: x ** -alpha, 1.0, lo=z)
    return (head + power_tail - cos_tail) / math.pi
