"""Quadrature engines, numerical Laplace inversion and 1-D root finding.

Three workhorses live here:

* ``integrate_adaptive``   -- QUADPACK for smooth integrands, with its error
  estimate checked against the fixed tolerance,
* ``integrate_oscillatory_cos`` -- Fourier-cosine integrals over (0, inf),
  partitioned at the cosine zeros with averaging (Euler) acceleration of the
  alternating panel series,
* ``laplace_invert_cdf``   -- Gaver-Stehfest inversion of E[e^{-qT}] into
  P(T < t), run in 80-bit extended precision because the Salzer weights
  amplify rounding in the transform values.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy import integrate, optimize

from .errors import BracketError, DomainError, NonConvergence, NumericInstability

_LD = np.longdouble

# 16-point Gauss-Legendre rule, reused for every half-period panel.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

# Half-period segments summed directly before the alternating-series
# acceleration is consulted.
_OSCILLATORY_TERMS = 10

# Every quadrature accepts an error up to max(ABS_TOL, REL_TOL |value|);
# QUADPACK subdivides at most MAX_PANELS times, and the panel series takes at
# most 1000 * MAX_PANELS half-periods.
ABS_TOL = 1e-10
REL_TOL = 1e-9
MAX_PANELS = 400

# Largest accepted gap between the Gaver-Stehfest estimates at n and n - 2
# terms.
_DIVERGENCE_TOL = 0.1


def tolerance(scale: float) -> float:
    """Error accepted for an integral of size ``scale``."""
    return max(ABS_TOL, REL_TOL * abs(scale))


@dataclass(frozen=True)
class LaplaceTransform:
    """A real Laplace transform q -> E[e^{-qT}] of a law on [0, inf).

    ``q_min`` is the smallest argument the callable is safe to evaluate at;
    inversion raises DomainError if a quadrature node would fall below it.
    """

    eval: Callable[[float], float]
    q_min: float = 0.0
    label: str = ""

    def __call__(self, q):
        return self.eval(q)


def integrate_adaptive(f, lo: float, hi: float, points=None) -> float:
    """Adaptive quadrature of ``f`` over (lo, hi); ``hi`` may be +inf.

    ``points`` are break points inside a finite interval.  A stalled
    QUADPACK run, that is an error estimate above ten times ``tolerance``,
    or a non-finite value raises NonConvergence.
    """
    kwargs = dict(epsabs=ABS_TOL, epsrel=REL_TOL, limit=MAX_PANELS,
                  full_output=1)
    if points is not None:
        kwargs["points"] = points
        kwargs["limit"] = max(MAX_PANELS, len(points) + 50)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        out = integrate.quad(f, lo, hi, **kwargs)
    value, abserr = out[0], out[1]
    if not math.isfinite(value):
        raise NonConvergence(f"integral over ({lo}, {hi}) is not finite")
    if len(out) > 3 and abserr > 10.0 * tolerance(value):
        raise NonConvergence(f"quadrature over ({lo}, {hi}) stalled: {out[3]}")
    return value


def _as_vectorized(g):
    """Return a callable mapping ndarray -> ndarray, wrapping scalar-only g."""
    probe = np.array([0.7, 1.3])
    try:
        out = np.asarray(g(probe), dtype=float)
        if out.shape == probe.shape:
            return g
    except Exception:
        pass
    return np.vectorize(g, otypes=[float])


def _averaged_apex(sums: Sequence[float]) -> float:
    """Iterated-averaging (van Wijngaarden / Euler) limit estimate of an
    alternating series from a window of its partial sums."""
    row = np.asarray(sums, dtype=float)
    while row.size > 1:
        row = 0.5 * (row[1:] + row[:-1])
    return float(row[0])


def _cos_panel_series(gv, w: float, k_start: int, base: float = 0.0) -> float:
    """Sum_{k>=k_start} of int_{z_{k-1}}^{z_k} cos(w x) g(x) dx with
    z_k = (k + 1/2) pi / w.

    Panels alternate in sign because g is positive; the series is summed
    directly while the terms still carry weight and accelerated by repeated
    averaging of the partial sums once ``_OSCILLATORY_TERMS`` segments
    have been taken.  ``base`` only feeds the relative-tolerance scale.
    """
    half_period = math.pi / w
    budget = 1000 * MAX_PANELS
    window = 30
    running = 0.0
    tail_sums: list[float] = []
    n_panels = 0
    k = k_start
    block = 64
    while n_panels < budget:
        ks = np.arange(k, min(k + block, k_start + budget))
        lo = (ks - 0.5) * half_period
        mid = lo + 0.5 * half_period
        half = 0.5 * half_period
        nodes = mid[:, None] + half * _GL_NODES[None, :]
        vals = np.cos(w * nodes) * gv(nodes)
        panels = (vals @ _GL_WEIGHTS) * half
        partial = running + np.cumsum(panels)
        running = float(partial[-1])
        tail_sums.extend(partial.tolist())
        del tail_sums[:-2 * window]
        n_panels += len(ks)
        tol = tolerance(base + running)
        # alternating series: remainder is bounded by the next term
        if abs(panels[-1]) < 0.05 * tol and n_panels >= 2:
            return running
        if n_panels >= _OSCILLATORY_TERMS + 4 and len(tail_sums) >= 8:
            # apexes of windows ending two, one and zero panels ago
            a0 = _averaged_apex(tail_sums[-(window + 2):-2])
            a1 = _averaged_apex(tail_sums[-(window + 1):-1])
            a2 = _averaged_apex(tail_sums[-window:])
            if abs(a2 - a1) < 0.25 * tol and abs(a1 - a0) < 0.25 * tol:
                return a2
        k = ks[-1] + 1
        block = min(2 * block, 65536)
    raise NonConvergence(
        f"oscillatory panel budget ({budget}) exhausted at w={w}")


def integrate_oscillatory_cos(g, w: float) -> float:
    """int_0^inf cos(w x) g(x) dx for positive, decreasing g.

    ``w = 0`` degenerates to ``integrate_adaptive``; the sign of ``w`` is
    irrelevant by evenness of the cosine.
    """
    if w == 0.0:
        return integrate_adaptive(g, 0.0, math.inf)
    w = abs(w)
    gv = _as_vectorized(g)

    def f(x):
        return math.cos(w * x) * float(gv(x))

    z0 = 0.5 * math.pi / w
    if z0 <= 16.0:
        head = integrate_adaptive(f, 0.0, z0)
    else:
        # break points stop QUADPACK skipping a sharply concentrated g
        pts = np.geomspace(min(1.0, 0.25 * z0), z0, 48)[:-1]
        head = integrate_adaptive(f, 0.0, z0, points=pts)
    return head + _cos_panel_series(gv, w, 1, base=head)


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


def _stehfest_sum(values, n_terms: int) -> float:
    weights = _stehfest_weights(n_terms)
    acc = _LD(0.0)
    for k in range(1, n_terms + 1):
        acc += weights[k - 1] * values[k - 1] / _LD(k)
    return float(acc)


def laplace_invert_cdf(phi, t: float, n_terms: int = 12) -> float:
    """Gaver-Stehfest estimate of P(T < t) from phi(q) = E[e^{-qT}].

    The scheme inverts phi(q)/q at the real nodes q_k = k ln2 / t.  Nodes are
    passed to ``phi`` as numpy extended-precision scalars, so a transform
    written with plain arithmetic (or np.* functions) is evaluated beyond
    double precision, which the weight cancellation requires for n_terms
    above ~16.  The estimate at n_terms is cross-checked against n_terms - 2;
    a large gap raises NumericInstability instead of being clamped away.
    """
    if t <= 0:
        raise DomainError("t must be positive")
    if n_terms < 4 or n_terms % 2:
        raise DomainError("n_terms must be an even integer >= 4")
    fn = phi.eval if isinstance(phi, LaplaceTransform) else phi
    q_min = phi.q_min if isinstance(phi, LaplaceTransform) else 0.0
    ln2_t = np.log(_LD(2)) / _LD(t)
    if float(ln2_t) < q_min:
        raise DomainError(
            f"smallest inversion node {float(ln2_t):g} below q_min={q_min:g}")
    values = [_LD(fn(_LD(k) * ln2_t)) for k in range(1, n_terms + 1)]
    est = _stehfest_sum(values, n_terms)
    check = _stehfest_sum(values[:n_terms - 2], n_terms - 2)
    if not (math.isfinite(est) and math.isfinite(check)):
        raise NumericInstability(f"non-finite inversion estimate at t={t}")
    if abs(est - check) > _DIVERGENCE_TOL:
        raise NumericInstability(
            f"estimates at {n_terms} and {n_terms - 2} terms differ by "
            f"{abs(est - check):.3g} at t={t}")
    return min(1.0, max(0.0, est))


def invert_monotone(F, p: float, bracket) -> float:
    """Solve F(x) = p for nondecreasing F on the bracket (lo, hi)."""
    lo, hi = float(bracket[0]), float(bracket[1])
    f_lo, f_hi = F(lo), F(hi)
    if not (f_lo <= p <= f_hi):
        raise BracketError(
            f"p={p} outside [F(lo), F(hi)] = [{f_lo}, {f_hi}]")
    if p == f_lo:
        return lo
    if p == f_hi:
        return hi
    root = optimize.brentq(lambda x: F(x) - p, lo, hi, xtol=1e-14,
                           rtol=8.9e-16, maxiter=200)
    if abs(F(root) - p) > ABS_TOL:
        raise NonConvergence(f"root refinement stalled at x={root}")
    return float(root)
