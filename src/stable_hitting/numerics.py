"""Quadrature engines and numerical Laplace inversion.

Three workhorses live here:

* ``integrate_adaptive``   -- QUADPACK for smooth integrands, with its error
  estimate checked against the fixed tolerance,
* ``integrate_oscillatory_cos`` -- Fourier-cosine integrals over (lo, inf) by
  QUADPACK's QAWF, under the same check; no kernel of ``resolvent`` uses it,
  only the reference quadratures that the verify suites and tests compare
  the kernels with,
* ``laplace_invert_cdf``   -- Gaver-Stehfest inversion of E[e^{-qT}] into
  P(T < t), run in 80-bit extended precision because the Salzer weights
  amplify rounding in the transform values.  It calls the transform once
  per node on a scalar; ``_invert_cdf_rows``, behind the table of
  ``sampling.sample_from_lt``, gives the same values at a grid of times
  from one call on an array of nodes, so that transform must broadcast.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (DomainError, NonConvergence, NumericInstability,
                     _count, _positive)

_LD = np.longdouble

# Every quadrature accepts an error up to max(ABS_TOL, REL_TOL |value|);
# QUADPACK subdivides at most MAX_PANELS times (per cycle for QAWF).
ABS_TOL = 1e-10
REL_TOL = 1e-9
MAX_PANELS = 400

# Largest accepted gap between the Gaver-Stehfest estimates at n and n - 2
# terms.
_DIVERGENCE_TOL = 0.1

_LN2 = np.log(_LD(2))


def tolerance(scale: float) -> float:
    """Error accepted for an integral of size ``scale``."""
    return max(ABS_TOL, REL_TOL * abs(scale))


def integrate_adaptive(f, lo: float, hi: float) -> float:
    """Adaptive quadrature of ``f`` over (lo, hi); ``hi`` may be +inf.

    A stalled QUADPACK run, that is an error estimate above ten times
    ``tolerance``, or a non-finite value raises NonConvergence.
    """
    return _quad(f, lo, hi)


def _quad(f, lo: float, hi: float, **weight) -> float:
    """``scipy.integrate.quad`` at the fixed tolerances, with the checks of
    ``integrate_adaptive``; ``weight`` selects a weighted QUADPACK rule."""
    from scipy import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        out = integrate.quad(f, lo, hi, epsabs=ABS_TOL, epsrel=REL_TOL,
                             limit=MAX_PANELS, full_output=1, **weight)
    value, abserr = out[0], out[1]
    if not math.isfinite(value):
        raise NonConvergence(f"integral over ({lo}, {hi}) is not finite")
    if len(out) > 3 and abserr > 10.0 * tolerance(value):
        raise NonConvergence(f"quadrature over ({lo}, {hi}) stalled: {out[3]}")
    return value


def integrate_oscillatory_cos(g, w: float, lo: float = 0.0) -> float:
    """int_lo^inf cos(w x) g(x) dx for g decaying to 0, by QUADPACK's QAWF.

    QAWF sums the integral over cycles of cos(w x) and extrapolates the
    series.  It is reliable for the smooth, slowly varying g of the
    reference quadratures; for g concentrated in a small part of its first
    cycle, such as e^{-x^alpha} at w <= 1e-6, it returns wrong values with
    no error flag.  ``w = 0`` is plain adaptive quadrature; the sign of
    ``w`` is irrelevant by evenness of the cosine.
    """
    if w == 0.0:
        return integrate_adaptive(g, lo, math.inf)
    return _quad(g, lo, math.inf, weight="cos", wvar=abs(w))


@lru_cache(maxsize=None)
def _stehfest_weights(n_terms: int):
    """Salzer summation weights for the Gaver-Stehfest scheme (exact
    rationals, rounded once to extended precision).

    Stehfest, H. (1970). Algorithm 368: numerical inversion of Laplace
    transforms. Communications of the ACM 13(1):47-49.
    """
    n2 = n_terms // 2
    fac = math.factorial
    out = []
    for k in range(1, n_terms + 1):
        acc = Fraction(0)
        for j in range((k + 1) // 2, min(k, n2) + 1):
            acc += Fraction(
                j ** n2 * fac(2 * j),
                fac(n2 - j) * fac(j) * fac(j - 1) * fac(k - j) * fac(2 * j - k))
        acc *= (-1) ** (n2 + k)
        out.append(_LD(acc.numerator) / _LD(acc.denominator))
    return np.array(out, dtype=_LD)


def _stehfest_sum(values, n_terms: int):
    """sum_k w_k v_k / k in extended precision over ``values[k - 1]``, each
    the transform at node k: an extended-precision scalar, or a column with
    one entry per time."""
    weights = _stehfest_weights(n_terms)
    acc = _LD(0.0)
    for k in range(1, n_terms + 1):
        acc += weights[k - 1] * values[k - 1] / _LD(k)
    return acc


def _stehfest_terms(n_terms) -> int:
    n_terms = _count("n_terms", n_terms, 4)
    if n_terms % 2:
        raise DomainError(f"n_terms={n_terms} is not even")
    return n_terms


def _checked(est: float, check: float, t: float, n_terms: int) -> float:
    """The estimate at ``n_terms`` clamped to [0, 1], once it and the one at
    ``n_terms - 2`` are finite and within ``_DIVERGENCE_TOL``."""
    if not (math.isfinite(est) and math.isfinite(check)):
        raise NumericInstability(f"non-finite inversion estimate at t={t}")
    if abs(est - check) > _DIVERGENCE_TOL:
        raise NumericInstability(
            f"estimates at {n_terms} and {n_terms - 2} terms differ by "
            f"{abs(est - check):.3g} at t={t}")
    return min(1.0, max(0.0, est))


def laplace_invert_cdf(phi, t: float, n_terms: int = 12) -> float:
    """Gaver-Stehfest estimate of P(T < t) from phi(q) = E[e^{-qT}].

    The scheme inverts phi(q)/q at the real nodes q_k = k ln2 / t.  Nodes are
    passed to ``phi`` one at a time as numpy extended-precision scalars, so a
    transform written with plain arithmetic (or np.* functions) is evaluated
    beyond double precision, which the weight cancellation requires for
    n_terms above ~16.  The estimate at n_terms is cross-checked against
    n_terms - 2; a large gap raises NumericInstability instead of being
    clamped away.
    """
    _positive("t", t)
    n_terms = _stehfest_terms(n_terms)
    ln2_t = _LN2 / _LD(t)
    values = [_LD(phi(_LD(k) * ln2_t)) for k in range(1, n_terms + 1)]
    est = float(_stehfest_sum(values, n_terms))
    check = float(_stehfest_sum(values[:n_terms - 2], n_terms - 2))
    return _checked(est, check, t, n_terms)


def _invert_cdf_rows(phi, ts, n_terms: int, stop=None):
    """``laplace_invert_cdf(phi, t, n_terms)`` for each t of the float array
    ``ts``, bit for bit, from one call of ``phi`` on the (len(ts), n_terms)
    matrix of nodes; ``phi`` must broadcast over it.

    Rows are checked in order, and the first failing one raises as
    ``laplace_invert_cdf`` would at its t.  With ``stop``, a vectorized
    predicate on the clamped estimates, the rows after the first one where
    it holds are neither checked nor returned, so a transform may be
    invalid there.  Floating-point warnings are silenced for the same
    reason: non-finite rows that count raise through the checks.
    """
    n_terms = _stehfest_terms(n_terms)
    nodes = (_LN2 / ts.astype(_LD))[:, None] * np.arange(1, n_terms + 1,
                                                          dtype=_LD)
    with np.errstate(all="ignore"):
        values = np.broadcast_to(np.asarray(phi(nodes), dtype=_LD),
                                 nodes.shape).T
        est = _stehfest_sum(values, n_terms).astype(float)
        check = _stehfest_sum(values[:n_terms - 2], n_terms - 2).astype(float)
        bad = ~(np.isfinite(est) & np.isfinite(check)
                & (np.abs(est - check) <= _DIVERGENCE_TOL))
    probs = np.clip(est, 0.0, 1.0)
    halt = bad if stop is None else bad | stop(probs)
    if halt.any():
        i = int(np.argmax(halt))
        _checked(est[i], check[i], float(ts[i]), n_terms)  # raises if bad[i]
        return probs[:i + 1]
    return probs
