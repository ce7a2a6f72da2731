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
  per node on a scalar, and ``_invert_cdf_rows`` once on the nodes of a
  grid of times: behind the table of ``sampling.sample_from_lt``, the
  ``invert`` command of ``cli`` and the ``inversion`` suite of ``verify``.
  Both hand the values to the one body ``_stehfest``, so they agree bit
  for bit, at the package's one term count ``_TERMS``.
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

# Gaver-Stehfest terms of the package's inversions, and the largest accepted
# gap between the estimates at n and n - 2 terms.
_TERMS = 12
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
    rationals, rounded once to extended precision), at n_terms terms in row
    0 and at n_terms - 2 in row 1, which ends in two zeros; and the node
    numbers k = 1, ..., n_terms.

    Stehfest, H. (1970). Algorithm 368: numerical inversion of Laplace
    transforms. Communications of the ACM 13(1):47-49.  With his
    (2j)!/(j! (j-1)!) = j C(2j, j), every other factorial of a term's
    denominator divides (n/2)!: a weight is one integer sum over ((n/2)!)^3.
    """
    fac = math.factorial
    out = np.zeros((2, n_terms), dtype=_LD)
    for row, n in enumerate((n_terms, n_terms - 2)):
        n2 = n // 2
        common = fac(n2) ** 3
        for k in range(1, n + 1):
            total = sum(j ** (n2 + 1) * math.comb(2 * j, j) * common
                        // (fac(n2 - j) * fac(k - j) * fac(2 * j - k))
                        for j in range((k + 1) // 2, min(k, n2) + 1))
            w = Fraction((-1) ** (n2 + k) * total, common)
            out[row, k - 1] = _LD(w.numerator) / _LD(w.denominator)
    return out, np.arange(1, n_terms + 1, dtype=_LD)


def _stehfest(fill, ts, n_terms, stop=None):
    """Gaver-Stehfest estimates of P(T < t) at each t of ``ts``.

    ``fill`` maps the (len(ts), n_terms) extended-precision matrix of nodes
    q_k = k ln2 / t to the transform's values there.  Each estimate at
    ``n_terms`` is clamped to [0, 1] once it and the one at ``n_terms - 2``
    are finite and within ``_DIVERGENCE_TOL``; rows are checked in order,
    and the first failing one raises NumericInstability.  With ``stop``, a
    vectorized predicate on the clamped estimates, the rows after the first
    one where it holds are neither checked nor returned.  The sums run with
    warnings silenced, since a non-finite estimate raises through the checks.
    """
    n_terms = _count("n_terms", n_terms, 4)
    if n_terms % 2:
        raise DomainError(f"n_terms={n_terms} is not even")
    weights, k = _stehfest_weights(n_terms)
    values = fill((_LN2 / np.asarray(ts, dtype=_LD))[:, None] * k)
    with np.errstate(all="ignore"):
        # sum_k w_k v_k / k at n_terms and n_terms - 2 terms, added in the
        # order k = 1, 2, ... whatever the number of rows (np.sum need not
        # be); row 1's two zero weights change its sum only in the sign of a
        # zero, which the gap and the clamp drop, or where a value is not
        # finite, which makes the n_terms sum non-finite too
        sums = np.add.accumulate(weights * values[:, None, :] / k, axis=2)
        est, check = sums[:, :, -1].astype(float).T
        # a non-finite estimate leaves the gap NaN or inf, so it fails too
        gap = np.abs(est - check)
        bad = ~(gap <= _DIVERGENCE_TOL)
        # min(1.0, max(0.0, est)); adding 0.0 turns -0.0 into 0.0
        probs = np.minimum(np.maximum(est, 0.0), 1.0) + 0.0
    halt = bad if stop is None else bad | stop(probs)
    if not halt.any():
        return probs
    i = int(np.argmax(halt))
    if not (math.isfinite(est[i]) and math.isfinite(check[i])):
        raise NumericInstability(f"non-finite inversion estimate at t={ts[i]}")
    if bad[i]:
        raise NumericInstability(
            f"estimates at {n_terms} and {n_terms - 2} terms differ by "
            f"{gap[i]:.3g} at t={ts[i]}")
    return probs[:i + 1]


def laplace_invert_cdf(phi, t: float, n_terms: int = _TERMS) -> float:
    """Gaver-Stehfest estimate of P(T < t) from phi(q) = E[e^{-qT}].

    The scheme inverts phi(q)/q at the real nodes q_k = k ln2 / t.  Nodes are
    passed to ``phi`` one at a time, in the order k = 1, 2, ..., as numpy
    extended-precision scalars, so a transform written with plain arithmetic
    (or np.* functions) is evaluated beyond double precision, which the
    weight cancellation requires for n_terms above ~16.  The estimate at
    n_terms is cross-checked against n_terms - 2: a large gap or a
    non-finite estimate raises NumericInstability instead of being clamped.
    """
    _positive("t", t)

    def fill(nodes):
        return np.array([[_LD(phi(q)) for q in nodes[0]]])

    return float(_stehfest(fill, (t,), n_terms)[0])


def _invert_cdf_rows(phi, ts, stop=None):
    """``laplace_invert_cdf(phi, t)`` at each t of the float array
    ``ts``, from one call of ``phi`` on the matrix of nodes, over which it
    must broadcast.  The transform runs under the caller's ``np.errstate``:
    with ``stop`` (see ``_stehfest``) later rows may be invalid for it, and
    a caller that passes ``stop`` silences it."""

    def fill(nodes):
        return np.broadcast_to(np.asarray(phi(nodes), dtype=_LD), nodes.shape)

    return _stehfest(fill, ts, _TERMS, stop)
