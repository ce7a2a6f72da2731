"""Exact samplers for the random variables with constructive representations
in terms of beta, gamma, uniform and stable building blocks, plus two
controlled-bias table samplers (size-biased one-sided stable, and laws known
only through a Laplace transform).

Randomness contract: every sampler draws from a RandomStream, which wraps a
PCG64 generator keyed by (seed, stream_id) through numpy's SeedSequence
spawning, so distinct stream ids give statistically independent streams and
identical ids reproduce bit-identical output.  Streams are single-owner;
parallel callers must use distinct stream ids (the CLI assigns
stream_id = worker index).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy import integrate, special

from .errors import DomainError, TableBuildError
from .numerics import LaplaceTransform, laplace_invert_cdf
from .resolvent import as_index


@dataclass
class RandomStream:
    """Seeded, splittable source of randomness (single-owner)."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        ss = np.random.SeedSequence(entropy=self.seed,
                                    spawn_key=(self.stream_id,))
        self.rng = np.random.default_rng(ss)


@dataclass(frozen=True)
class SampleStats:
    """Summary of a Monte Carlo batch; ks only when a reference CDF was given."""

    n: int
    mean: float
    variance: float
    stderr: float
    ks: Optional[float] = None

    @classmethod
    def from_draws(cls, draws, ref_cdf=None) -> "SampleStats":
        draws = np.asarray(draws, dtype=float)
        n = draws.size
        var = float(np.var(draws, ddof=1)) if n > 1 else 0.0
        ks = ks_distance(draws, ref_cdf) if ref_cdf is not None else None
        return cls(n=n, mean=float(np.mean(draws)), variance=var,
                   stderr=math.sqrt(var / n), ks=ks)


def ks_distance(draws, cdf) -> float:
    """Kolmogorov-Smirnov distance between an empirical sample and a CDF."""
    xs = np.sort(np.asarray(draws, dtype=float))
    n = xs.size
    f = np.asarray(cdf(xs), dtype=float)
    steps = np.arange(1, n + 1) / n
    return float(max(np.max(steps - f), np.max(f - (steps - 1 / n))))


# ---------------------------------------------------------------- primitives

def sample_gamma(a: float, stream: RandomStream, size=None):
    if a <= 0:
        raise DomainError("gamma shape must be positive")
    return stream.rng.gamma(a, size=size)


def sample_beta(a: float, b: float, stream: RandomStream, size=None):
    if a <= 0 or b <= 0:
        raise DomainError("beta shapes must be positive")
    return stream.rng.beta(a, b, size=size)


def sample_exponential(stream: RandomStream, size=None):
    return stream.rng.standard_exponential(size=size)


def sample_uniform(stream: RandomStream, size=None):
    return stream.rng.random(size=size)


def sample_bernoulli_sign(stream: RandomStream, size=None):
    return 2 * stream.rng.integers(0, 2, size=size) - 1


# ------------------------------------------------------------ stable family

def sample_sym_stable(alpha: float, stream: RandomStream, size=None):
    """Draw of X(1) with E[e^{i theta X}] = e^{-|theta|^alpha}.

    Chambers, Mallows and Stuck (1976) transform of a uniform angle and an
    exponential; the alpha = 2 branch returns sqrt(2) times a standard
    normal rather than the degenerate limit of the formula.
    """
    if not 0.0 < alpha <= 2.0:
        raise DomainError("alpha must lie in (0, 2]")
    rng = stream.rng
    if alpha == 2.0:
        return math.sqrt(2.0) * rng.standard_normal(size)
    u = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, size)
    w = rng.standard_exponential(size)
    s = np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
    if alpha == 1.0:
        return np.tan(u)
    return s * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)


def _log_zolotarev_a(u, beta: float):
    """log A(u) for Kanter's representation, u in (0, 1)."""
    pu = np.pi * u
    return (np.log(np.sin((1.0 - beta) * pu))
            + (beta / (1.0 - beta)) * np.log(np.sin(beta * pu))
            - np.log(np.sin(pu)) / (1.0 - beta))


def sample_unilateral_stable(beta: float, stream: RandomStream, size=None):
    """Draw of the one-sided stable law with E[e^{-lam T}] = e^{-lam^beta}.

    Kanter (1975): T = (A(U)/W)^{(1-beta)/beta} with U uniform and W a unit
    exponential; computed in log space so draws from the far tail stay finite.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError("one-sided index must lie in (0, 1)")
    rng = stream.rng
    u = rng.uniform(0.0, 1.0, size)
    w = rng.standard_exponential(size)
    log_t = ((1.0 - beta) / beta) * (_log_zolotarev_a(u, beta) - np.log(w))
    return np.exp(log_t)


@lru_cache(maxsize=None)
def _size_biased_table(beta: float):
    """Inverse-CDF table of the t^{-1/2}-size-biased one-sided stable law.

    The tilted CDF has the quadrature form

        F'(t) = int_0^1 A(u)^{-s} Q(1+s, A(u) t^{-c}) du / int_0^1 A(u)^{-s} du

    with s = (1-beta)/(2 beta), c = beta/(1-beta) and Q the regularized upper
    incomplete gamma function, because conditioning on U = u makes T a power
    of an exponential.  The denominator times Gamma(1+s) is the quadrature
    value of E[T^{-1/2}] used for the normalization.
    """
    s = (1.0 - beta) / (2.0 * beta)
    c = beta / (1.0 - beta)

    def denom_integrand(u):
        return math.exp(-s * _log_zolotarev_a(u, beta))

    denom = integrate.quad(denom_integrand, 0.0, 1.0, epsabs=1e-13,
                           epsrel=1e-12, limit=200)[0]

    def cdf(t):
        log_tc = -c * math.log(t)

        def f(u):
            log_a = _log_zolotarev_a(u, beta)
            try:
                return math.exp(-s * log_a) * special.gammaincc(
                    1.0 + s, math.exp(log_a + log_tc))
            except OverflowError:
                raise TableBuildError(
                    f"tilted CDF overflows for beta={beta} at t={t:g}; the "
                    "table builds only for beta <= 0.902") from None

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            num = integrate.quad(f, 0.0, 1.0, epsabs=1e-12, epsrel=1e-11,
                                 limit=200)[0]
        return min(1.0, max(0.0, num / denom))

    # quadrature noise near F = 1 sits around 1e-8, so stay above it
    t_lo, t_hi = _bracket_quantiles(cdf, 1e-7, 1.0 - 1e-7)
    grid = np.geomspace(t_lo, t_hi, 1200)
    probs = np.array([cdf(t) for t in grid])
    if np.any(np.diff(probs) < -1e-6):
        raise TableBuildError(f"tilted CDF not monotone for beta={beta}")
    probs = np.maximum.accumulate(probs)
    return np.log(grid), probs


def _bracket_quantiles(cdf, p_lo, p_hi, t0=1.0, max_steps=200):
    t_lo = t_hi = t0
    for _ in range(max_steps):
        if cdf(t_lo) <= p_lo:
            break
        t_lo /= 4.0
    else:
        raise TableBuildError("lower quantile bracket not found")
    for _ in range(max_steps):
        if cdf(t_hi) >= p_hi:
            break
        t_hi *= 4.0
    else:
        raise TableBuildError("upper quantile bracket not found")
    return t_lo, t_hi


def sample_size_biased_stable(beta: float, stream: RandomStream, size=None):
    """Draw of the one-sided stable law reweighted by t^{-1/2}, by inverse
    interpolation of the tabulated tilted CDF (bias bounded by the table
    resolution; the table spans quantiles 1e-8 to 1 - 1e-8).

    The table builds for beta <= 0.9.  Probed on a grid, the build raises
    TableBuildError for 0.905 <= beta <= 0.99, where the tilted CDF comes
    out non-monotone, and from beta = 0.991, where its integrand overflows."""
    if not 0.0 < beta < 1.0:
        raise DomainError("one-sided index must lie in (0, 1)")
    log_grid, probs = _size_biased_table(beta)
    v = stream.rng.random(size)
    v = np.clip(v, probs[0], probs[-1])
    return np.exp(np.interp(v, probs, log_grid))


def sample_alpha_cauchy(alpha: float, stream: RandomStream, size=None):
    """Draw with density proportional to 1/(1+|x|^alpha):
    a sign times (Gamma_{1/a} / Gamma_{1-1/a})^{1/a}."""
    if alpha <= 1.0:
        raise DomainError("alpha-Cauchy requires alpha > 1")
    g = 1.0 / alpha
    rng = stream.rng
    num = rng.gamma(g, size=size)
    den = rng.gamma(1.0 - g, size=size)
    sign = 2 * rng.integers(0, 2, size=size) - 1
    return sign * (num / den) ** g


def sample_alpha_rayleigh(alpha: float, stream: RandomStream, size=None):
    """Draw with survival p_1(x)/p_1(0): 2 sqrt(e T') with T' the size-biased
    one-sided stable of index alpha/2; alpha = 2 degenerates to 2 sqrt(e)."""
    if not 0.0 < alpha <= 2.0:
        raise DomainError("alpha must lie in (0, 2]")
    e = stream.rng.standard_exponential(size)
    if alpha == 2.0:
        return 2.0 * np.sqrt(e)
    tprime = sample_size_biased_stable(alpha / 2.0, stream, size)
    return 2.0 * np.sqrt(e * tprime)


def sample_linnik(alpha: float, stream: RandomStream, size=None):
    """Draw with characteristic function 1/(1+|theta|^alpha): the stable
    process at an independent unit exponential time, e^{1/alpha} X(1)."""
    if not 0.0 < alpha <= 2.0:
        raise DomainError("Linnik index must lie in (0, 2]")
    e = stream.rng.standard_exponential(size)
    x = sample_sym_stable(alpha, stream, size)
    return e ** (1.0 / alpha) * x


def sample_hitting_time(idx, a: float, stream: RandomStream, size=None):
    """Draw of the first hitting time of the point a from the origin:
    |a|^alpha / (R_alpha^alpha B_{1-g, g}) with g = 1/alpha."""
    idx = as_index(idx).require_point_hitting()
    if a == 0.0:
        raise DomainError("target level a must be nonzero")
    g = idx.gamma
    r = sample_alpha_rayleigh(idx.alpha, stream, size)
    b = stream.rng.beta(1.0 - g, g, size=size)
    return abs(a) ** idx.alpha / (r ** idx.alpha * b)


def sample_overshoot(alpha: float, a: float, stream: RandomStream, size=None):
    """Overshoot above the level a at first passage (Ray's law):
    a Gamma_{1-a/2} / Gamma_{a/2}; zero at alpha = 2 (continuous paths)."""
    if not 0.0 < alpha <= 2.0:
        raise DomainError("alpha must lie in (0, 2]")
    if a <= 0:
        raise DomainError("level a must be positive")
    if alpha == 2.0:
        return 0.0 if size is None else np.zeros(size)
    rng = stream.rng
    num = rng.gamma(1.0 - 0.5 * alpha, size=size)
    den = rng.gamma(0.5 * alpha, size=size)
    return a * num / den


# ----------------------------------------------------- excursion quantities

def sample_excursion_age_duration(gamma: float, stream: RandomStream, size=None):
    """(age, duration) of the excursion straddling time 1 when local time is
    self-similar of index gamma: (B, B / U^{1/gamma}) with a shared beta
    variable B = B_{1-gamma, gamma} and an independent uniform U."""
    if not 0.0 < gamma < 1.0:
        raise DomainError("self-similarity index must lie in (0, 1)")
    rng = stream.rng
    b = rng.beta(1.0 - gamma, gamma, size=size)
    u = rng.random(size)
    return b, b * u ** (-1.0 / gamma)


def sample_excursion_at_exp_time(gamma: float, stream: RandomStream, size=None):
    """(last zero, age, duration) at an independent exponential time:
    (G_gamma, G'_{1-gamma}, G'_{1-gamma} / U^{1/gamma}) with the same
    G'_{1-gamma} in the last two coordinates."""
    if not 0.0 < gamma < 1.0:
        raise DomainError("self-similarity index must lie in (0, 1)")
    rng = stream.rng
    g = rng.gamma(gamma, size=size)
    ghat = rng.gamma(1.0 - gamma, size=size)
    u = rng.random(size)
    return g, ghat, ghat * u ** (-1.0 / gamma)


# -------------------------------------------------------- series and tables

def gamma_series_coefficient(a: float, j) -> float:
    return (2.0 / math.pi ** 2) / (j + a) ** 2


def gamma_series_tail_mean(a: float, t: float, n_terms: int) -> float:
    """Mean of the dropped tail: t (2/pi^2) sum_{j>=n} (j+a)^{-2}, via trigamma."""
    return t * (2.0 / math.pi ** 2) * float(special.polygamma(1, n_terms + a))


def gamma_series_tail_variance(a: float, t: float, n_terms: int) -> float:
    """Variance of the dropped tail, for truncation-bias bounds."""
    return t * (2.0 / math.pi ** 2) ** 2 * float(special.polygamma(3, n_terms + a)) / 6.0


def sample_gamma_series_subordinator(a: float, t: float, stream: RandomStream,
                                     size=None, n_terms: int = 10_000):
    """Draw of the subordinator (2/pi^2) sum_j gamma_j(t) / (j+a)^2 at time t,
    truncated at n_terms with the tail replaced by its mean."""
    if a <= 0 or t <= 0:
        raise DomainError("need a > 0 and t > 0")
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    rng = stream.rng
    shape = () if size is None else (size if isinstance(size, tuple) else (size,))
    acc = np.full(shape, gamma_series_tail_mean(a, t, n_terms))
    for j in range(n_terms):
        acc += gamma_series_coefficient(a, j) * rng.gamma(t, size=shape)
    return float(acc) if size is None else acc


def tanh_subordinator_lt(t: float = 1.0) -> LaplaceTransform:
    """Transform (tanh(sqrt(2q))/sqrt(2q))^t of the subordinator T_t whose
    value at an independent Brownian time has char-fn (tanh th / th)^t, in
    the standard normalization E[e^{i th B(s)}] = e^{-s th^2 / 2}.

    The sqrt(2q) argument keeps it consistent with the gamma-series laws:
    C_t = T_t + S_t in law with independent summands.  No constructive
    sampler exists for it here; draw through sample_from_lt.
    """
    if t <= 0:
        raise DomainError("t must be positive")

    def phi(q):
        rq = np.sqrt(2.0 * q)
        return (np.tanh(rq) / rq) ** t

    return LaplaceTransform(eval=phi, q_min=0.0, label=f"tanh-subordinator t={t}")


# Log-spaced CDF points in the table of ``sample_from_lt``.
_LT_TABLE_SIZE = 512


def sample_from_lt(phi, stream: RandomStream, size=None, n_terms: int = 12):
    """Approximate draw of a positive law known only through its Laplace
    transform: Gaver-Stehfest CDF values on a log grid, inverse-sampled by
    monotone interpolation on ``_LT_TABLE_SIZE`` points.  Bias is bounded by
    the table resolution plus the inversion error and is deterministic for a
    fixed table."""
    log_grid, probs = _lt_table(phi, n_terms)
    v = stream.rng.random(size)
    v = np.clip(v, probs[0], probs[-1])
    return np.exp(np.interp(v, probs, log_grid))


def _lt_table(phi, n_terms: int):
    label = phi.label if isinstance(phi, LaplaceTransform) else repr(phi)

    def cdf(t):
        return laplace_invert_cdf(phi, t, n_terms=n_terms)

    t_lo, t_hi = _bracket_quantiles(cdf, 1e-5, 1.0 - 1e-5)
    grid = np.geomspace(t_lo, t_hi, _LT_TABLE_SIZE)
    probs = np.array([cdf(t) for t in grid])
    # dips beyond the Gaver-Stehfest error scale mean the input was not a
    # valid transform; smaller wiggles are inversion noise and get flattened
    if np.any(np.diff(probs) < -1e-4):
        raise TableBuildError(f"inverted CDF not monotone for {label}")
    probs = np.maximum.accumulate(probs)
    return np.log(grid), probs
