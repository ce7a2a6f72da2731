"""Exact samplers for the random variables with constructive representations
in terms of beta, gamma, uniform and stable building blocks, some of them by
rejection, plus one controlled-bias table sampler, ``sample_from_lt``, for
laws known only through a Laplace transform.

Randomness contract: every sampler draws from a RandomStream, which wraps a
PCG64 generator keyed by (seed, stream_id) through numpy's SeedSequence
spawning, so distinct stream ids give statistically independent streams and
identical ids reproduce bit-identical output.  Streams are single-owner;
parallel callers must use distinct stream ids.  The CLI's ``sample`` draws
from the one stream ``RandomStream(seed)``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, TableBuildError, _alpha, _finite, _inside,
                     _nonzero, _point_alpha, _positive)
from .numerics import _invert_cdf_rows


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
    """Size, mean, sample variance and standard error of a Monte Carlo batch."""

    n: int
    mean: float
    variance: float
    stderr: float

    @classmethod
    def from_draws(cls, draws) -> "SampleStats":
        draws = np.asarray(draws, dtype=float)
        n = draws.size
        if n < 2:
            var = 0.0
        elif np.isinf(draws).any():
            # draws past the double range (sample_hitting_time near alpha = 1)
            var = math.inf
        else:
            var = float(np.var(draws, ddof=1))
        # draws past it on both sides have no mean: NaN, with no warning
        with np.errstate(invalid="ignore"):
            mean = float(np.mean(draws))
        return cls(n=n, mean=mean, variance=var, stderr=math.sqrt(var / n))


def ks_distance(draws, cdf) -> float:
    """Kolmogorov-Smirnov distance between an empirical sample and a CDF."""
    xs = np.sort(np.asarray(draws, dtype=float))
    n = xs.size
    f = np.asarray(cdf(xs), dtype=float)
    steps = np.arange(1, n + 1) / n
    return float(max(np.max(steps - f), np.max(f - (steps - 1 / n))))


# ---------------------------------------------------------------- primitives

def sample_gamma(a: float, stream: RandomStream, size=None):
    return stream.rng.gamma(_positive("a", a), size=size)


def sample_beta(a: float, b: float, stream: RandomStream, size=None):
    return stream.rng.beta(_positive("a", a), _positive("b", b), size=size)


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
    return _stable_scaled(_alpha(alpha), stream, size)


def _stable_scaled(alpha: float, stream: RandomStream, size, e=None):
    """X(1) as ``sample_sym_stable`` draws it, times e^{1/alpha} for the
    exponentials ``e`` if given.  Below alpha of about 0.02 the factors of
    the product overflow or underflow apart, to NaN, +-inf or 0 where the
    draw is a normal double; such a draw is formed again from the log of
    each factor, with the sign of u, and every other is the product."""
    rng = stream.rng
    if alpha == 2.0:
        x = math.sqrt(2.0) * rng.standard_normal(size)
        return x if e is None else e ** (1.0 / alpha) * x
    u = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, size)
    # drawn at alpha = 1 too, so the stream advances alike for every alpha
    w = rng.standard_exponential(size)
    with np.errstate(all="ignore"):
        x = np.tan(u) if alpha == 1.0 else (
            np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
            * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha))
        if e is not None:
            x = e ** (1.0 / alpha) * x
        if np.isfinite(x).all() and x.all():
            return x
        log_x = (np.log(np.abs(np.sin(alpha * u))) - np.log(np.cos(u)) / alpha
                 + ((1.0 - alpha) / alpha)
                 * (np.log(np.cos((1.0 - alpha) * u)) - np.log(w))
                 + (0.0 if e is None else np.log(e) / alpha))
        bad = ~np.isfinite(x) | (x == 0.0)
        return np.where(bad, np.copysign(np.exp(log_x), u), x)[()]


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
    _inside("beta", beta, 0.0, 1.0)
    rng = stream.rng
    u = rng.uniform(0.0, 1.0, size)
    w = rng.standard_exponential(size)
    log_t = ((1.0 - beta) / beta) * (_log_zolotarev_a(u, beta) - np.log(w))
    return np.exp(log_t)


def _shape(size) -> tuple:
    return () if size is None else (size if isinstance(size, tuple) else (size,))


def _accepted(propose, size):
    """Draws of shape ``size`` by rejection: ``propose(m)`` returns m
    candidates and the mask of those accepted, and is called on at most
    ``_SERIES_BLOCK`` candidates at a time until enough are accepted."""
    shape = _shape(size)
    n = math.prod(shape)
    out = np.empty(n)
    filled = 0
    while filled < n:
        x, ok = propose(min(n - filled, _SERIES_BLOCK))
        x = x[ok]
        out[filled:filled + x.size] = x
        filled += x.size
    return float(out[0]) if size is None else out.reshape(shape)


def sample_size_biased_stable(beta: float, stream: RandomStream, size=None):
    """Exact draw of the one-sided stable law reweighted by t^{-1/2}.

    Reweighting Kanter's T = (A(U)/W)^{(1-beta)/beta} by T^{-1/2} =
    A(U)^{-s} W^s, with s = (1-beta)/(2 beta), makes W a Gamma(1+s) variable
    and gives U the density proportional to A(u)^{-s} (polynomially tilted
    stables, Devroye, ACM TOMACS 19(4), 2009).  A increases from
    A(0+) = (1-beta) beta^{beta/(1-beta)}, so a uniform U is kept when a unit
    exponential is at least s (log A(U) - log A(0+)); the acceptance rate is
    0.64 at beta = 0.5, 0.86 at 0.9 and 0.998 at 0.9995."""
    _inside("beta", beta, 0.0, 1.0)
    s = (1.0 - beta) / (2.0 * beta)
    log_a0 = math.log1p(-beta) + (beta / (1.0 - beta)) * math.log(beta)

    def propose(m):
        log_a = _log_zolotarev_a(stream.rng.random(m), beta)
        return log_a, stream.rng.standard_exponential(m) >= s * (log_a - log_a0)

    log_a = _accepted(propose, size)
    g = stream.rng.gamma(1.0 + s, size=size)
    return np.exp(((1.0 - beta) / beta) * (log_a - np.log(g)))


def sample_alpha_cauchy(alpha: float, stream: RandomStream, size=None):
    """Draw with density proportional to 1/(1+|x|^alpha):
    a sign times (Gamma_{1/a} / Gamma_{1-1/a})^{1/a}."""
    g = 1.0 / _inside("alpha", alpha, 1.0, math.inf)
    rng = stream.rng
    num = rng.gamma(g, size=size)
    den = rng.gamma(1.0 - g, size=size)
    sign = 2 * rng.integers(0, 2, size=size) - 1
    return sign * (num / den) ** g


def sample_alpha_rayleigh(alpha: float, stream: RandomStream, size=None):
    """Exact draw with survival p_1(x)/p_1(0): 2 sqrt(e T') with T' the
    size-biased one-sided stable of index alpha/2; alpha = 2 gives 2 sqrt(e)."""
    alpha = _alpha(alpha)
    e = stream.rng.standard_exponential(size)
    if alpha == 2.0:
        return 2.0 * np.sqrt(e)
    tprime = sample_size_biased_stable(alpha / 2.0, stream, size)
    return 2.0 * np.sqrt(e * tprime)


def sample_linnik(alpha: float, stream: RandomStream, size=None):
    """Draw with characteristic function 1/(1+|theta|^alpha): the stable
    process at an independent unit exponential time, e^{1/alpha} X(1)."""
    alpha = _alpha(alpha)
    e = stream.rng.standard_exponential(size)
    return _stable_scaled(alpha, stream, size, e)


def sample_hitting_time(alpha, a: float, stream: RandomStream, size=None):
    """Exact draw of the first hitting time of the point a from the origin:
    T_a = |a|^alpha S Y, with S one-sided stable of index 1/alpha (Kanter).

    From T_a = |a|^alpha / (R^alpha B_{1-1/alpha, 1/alpha}), R alpha-Rayleigh,
    E[T_1^{-p}] = Gamma(1+alpha p)/Gamma(1+p) * cos(pi alpha p/2)
    sin(pi/alpha)/sin(pi (1/alpha - p)).  The first factor is E[S^{-p}]; the
    second is E[Y^{-p}] for Lamperti's ratio (S_1/S_2)^{alpha/2} of two
    one-sided alpha/2-stables (Trans. AMS 88, 1958) reweighted by its 1/alpha
    power, of density proportional to y^{1/alpha}/(y^2 + 2 y cos th + 1),
    th = pi alpha/2.  With c, s = cos th, sin th and Y = s cot(xi) - c, xi in
    (0, th) has density proportional to (s cot xi - c)^k, k = 1/alpha, below
    the majorant s^k xi^{-k} + |c|^k drawn by inversion; acceptance is
    0.68-0.995 over alpha in [1.01, 1.999].  At alpha = 2, T_a = a^2 S.

    P(Y > y) decays only like y^{1/alpha - 1}, so near alpha = 1 a share of
    the draws passes the double range and comes back as inf: at a = 1, about
    half of them at alpha = 1.001, 1e-3 at 1.01 and none in 1e5 at 1.05."""
    alpha = _point_alpha(alpha)
    k = 1.0 / alpha
    scale = abs(_nonzero(a)) ** alpha
    stable = sample_unilateral_stable(k, stream, size)
    if alpha == 2.0:
        return scale * stable
    th = 0.5 * math.pi * alpha
    c, s = math.cos(th), math.sin(th)
    sk, ck = s ** k, (-c) ** k
    # masses of the majorant's two parts, s^k xi^{-k} and |c|^k, on (0, th)
    m_head = sk * th ** (1.0 - k) / (1.0 - k)
    m_flat = ck * th

    def propose(m):
        u = stream.rng.random(m) * (m_head + m_flat)
        xi = np.where(u < m_head, th * (u / m_head) ** (1.0 / (1.0 - k)),
                      (u - m_head) / ck)
        y = s / np.tan(xi) - c
        return y, stream.rng.random(m) * (sk * xi ** -k + ck) <= y ** k

    # xi underflows to 0, and Y or the product overflows, only for draws
    # past the double range; those are inf, the true value rounded
    with np.errstate(divide="ignore", over="ignore"):
        return scale * stable * _accepted(propose, size)


def sample_overshoot(alpha: float, a: float, stream: RandomStream, size=None):
    """Overshoot above the level a at first passage (Ray's law):
    a Gamma_{1-a/2} / Gamma_{a/2}; zero at alpha = 2 (continuous paths)."""
    alpha = _alpha(alpha)
    _finite("a", _positive("a", a))
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
    _inside("gamma", gamma, 0.0, 1.0)
    rng = stream.rng
    b = rng.beta(1.0 - gamma, gamma, size=size)
    u = rng.random(size)
    return b, b * u ** (-1.0 / gamma)


def sample_excursion_at_exp_time(gamma: float, stream: RandomStream, size=None):
    """(last zero, age, duration) at an independent exponential time:
    (G_gamma, G'_{1-gamma}, G'_{1-gamma} / U^{1/gamma}) with the same
    G'_{1-gamma} in the last two coordinates."""
    _inside("gamma", gamma, 0.0, 1.0)
    rng = stream.rng
    g = rng.gamma(gamma, size=size)
    ghat = rng.gamma(1.0 - gamma, size=size)
    u = rng.random(size)
    return g, ghat, ghat * u ** (-1.0 / gamma)


# -------------------------------------------------------- series and tables

# Smallest shape a at which the first coefficient (2/pi^2)/a^2 of the gamma
# series is a finite double.
_SERIES_A_MIN = math.sqrt((2.0 / math.pi ** 2) / sys.float_info.max)


def gamma_series_coefficient(a: float, j) -> float:
    return (2.0 / math.pi ** 2) / (j + a) ** 2


def gamma_series_tail_mean(a: float, t: float, n_terms: int) -> float:
    """Mean of the dropped tail: t (2/pi^2) sum_{j>=n} (j+a)^{-2}, via trigamma."""
    from scipy.special import polygamma

    return t * (2.0 / math.pi ** 2) * float(polygamma(1, n_terms + a))


def gamma_series_tail_variance(a: float, t: float, n_terms: int) -> float:
    """Variance of the dropped tail: t (2/pi^2)^2 sum_{j>=n} (j+a)^{-4}, via
    the third polygamma; with the mean it fixes ``gamma_series_tail_gamma``."""
    from scipy.special import polygamma

    return t * (2.0 / math.pi ** 2) ** 2 * float(polygamma(3, n_terms + a)) / 6.0


def gamma_series_tail_gamma(a: float, t: float, n_terms: int):
    """(shape k, scale theta) of the Gamma law that stands in for the tail
    sum_{j>=n} c_j gamma_j(t): k = m^2/v and theta = v/m match its mean m
    and variance v."""
    m = gamma_series_tail_mean(a, t, n_terms)
    v = gamma_series_tail_variance(a, t, n_terms)
    return m * m / v, v / m


# Entries in one block of head draws of ``sample_gamma_series_subordinator``
# (2 MiB of doubles), and the most candidates one pass of a rejection sampler
# draws; a block is never less than one row of ``size`` draws.
_SERIES_BLOCK = 2 ** 18
_SERIES_TERMS = 256  # the head: terms drawn before the gamma tail


def sample_gamma_series_subordinator(a: float, t: float, stream: RandomStream,
                                     size=None):
    """Draw of the subordinator (2/pi^2) sum_j gamma_j(t) / (j+a)^2 at time t:
    C_t at a = 1/2 and S_t at a = 1, with transforms cosh(z)^{-t} and
    (z/sinh z)^t at lambda = z^2/2 (Biane, Pitman and Yor, Bull. AMS 38, 2001).

    The first ``_SERIES_TERMS`` = 256 terms are drawn explicitly, as gamma
    matrices of at most ``_SERIES_BLOCK`` entries whose rows are summed
    against the coefficients; the tail is one Gamma(k, theta) with the
    tail's mean and variance (``gamma_series_tail_gamma``), a truncated sum
    with a tail approximation as in Polson, Scott and Windle (JASA 2013).
    The Laplace transform of the sampled law is within 1.4e-13 of the
    closed forms over t in {0.5, 1, 2} and lambda in [0.1, 20] (40-digit
    mpmath), against 2.1e-13 for 10,000 terms with the tail replaced by its
    mean.

    Below a = 3.36e-155 the first coefficient (2/pi^2)/a^2 overflows, which
    raises DomainError.  Just above, draws (of mean about t (2/pi^2)/a^2)
    past the double range come back as inf, with no warning: at a = 4e-155
    and t = 5 all of them do.
    """
    _positive("a", a)
    _positive("t", t)
    if a < _SERIES_A_MIN:
        raise DomainError(f"gamma-series shape a = {a!r} is below "
                          f"{_SERIES_A_MIN:.3g}, where the first coefficient "
                          "(2/pi^2)/a^2 overflows")
    shape = _shape(size)
    m = math.prod(shape)
    k, theta = gamma_series_tail_gamma(a, t, _SERIES_TERMS)
    acc = stream.rng.gamma(k, theta, size=m)
    coef = gamma_series_coefficient(a, np.arange(_SERIES_TERMS))
    rows = max(1, _SERIES_BLOCK // max(m, 1))
    for j0 in range(0, _SERIES_TERMS, rows):
        # einsum, not @: a BLAS gemv would wake OpenBLAS's worker threads
        block = stream.rng.gamma(t, size=(min(rows, _SERIES_TERMS - j0), m))
        acc += np.einsum("j,jm->m", coef[j0:j0 + rows], block)
    return float(acc[0]) if size is None else acc.reshape(shape)


def tanh_subordinator_lt(t: float = 1.0):
    """Transform (tanh(sqrt(2q))/sqrt(2q))^t of the subordinator T_t whose
    value at an independent Brownian time has char-fn (tanh th / th)^t, in
    the standard normalization E[e^{i th B(s)}] = e^{-s th^2 / 2}.

    The sqrt(2q) argument keeps it consistent with the gamma-series laws:
    C_t = T_t + S_t in law with independent summands.  It is drawn through
    sample_from_lt: the exact constructions known for it, U^2 C_2 at t = 1
    and a product of compound Poisson laws at any t, cost several times more
    per draw than the table.  ``phi`` broadcasts over arrays of q.
    """
    _positive("t", t)

    def phi(q):
        rq = np.sqrt(2.0 * q)
        return (np.tanh(rq) / rq) ** t

    return phi


# Log-spaced CDF points in the table of ``sample_from_lt``, ladder points of
# its quantile bracket per call of the transform, and its tail probability.
_LT_TABLE_SIZE = 512
_BRACKET_BLOCK = 16
_TAIL_P = 1e-5


def sample_from_lt(phi, stream: RandomStream, size=None):
    """Approximate draw of a positive law known only through its Laplace
    transform, a callable phi(q) = E[e^{-qT}]: Gaver-Stehfest CDF values on
    a log grid, inverse-sampled by monotone interpolation on
    ``_LT_TABLE_SIZE`` points.  Bias is bounded by the table resolution plus
    the inversion error and is deterministic for a fixed table.

    ``phi`` is called on 2-d arrays of extended-precision ``q`` and must
    broadcast over them, as a transform written with np.* functions does:
    one call per ``_BRACKET_BLOCK`` points of the quantile bracket, and one
    for the whole table."""
    log_grid, probs = _lt_table(phi)
    v = np.clip(stream.rng.random(size), probs[0], probs[-1])
    return np.exp(np.interp(v, probs, log_grid))


def _lt_table(phi):
    grid = np.geomspace(*_bracket_quantiles(phi), _LT_TABLE_SIZE)
    # the transform may over- or underflow at the nodes of the outer points
    with np.errstate(all="ignore"):
        probs = _invert_cdf_rows(phi, grid)
    # dips beyond the Gaver-Stehfest error scale mean the input was not a
    # valid transform; smaller wiggles are inversion noise and get flattened
    if np.any(np.diff(probs) < -1e-4):
        raise TableBuildError(f"inverted CDF not monotone for {phi!r}")
    probs = np.maximum.accumulate(probs)
    return np.log(grid), probs


def _bracket_quantiles(phi):
    """Step out from t = 1 by factors of 4, at most 200 times each way."""
    return (_ladder(phi, -2, lambda p: p <= _TAIL_P, "lower"),
            _ladder(phi, 2, lambda p: p >= 1.0 - _TAIL_P, "upper"))


def _ladder(phi, log2_step, crossed, side):
    """First t = 2^(log2_step i), i < 200, whose CDF value is ``crossed``,
    inverted ``_BRACKET_BLOCK`` points at a time; the points past it are
    never checked."""
    for i0 in range(0, 200, _BRACKET_BLOCK):
        steps = np.arange(i0, min(i0 + _BRACKET_BLOCK, 200))
        ts = np.ldexp(1.0, log2_step * steps)
        # the points past the crossing may be invalid for the transform
        with np.errstate(all="ignore"):
            probs = _invert_cdf_rows(phi, ts, stop=crossed)
        if crossed(probs[-1]):
            return float(ts[probs.size - 1])
    raise TableBuildError(f"{side} quantile bracket not found")
