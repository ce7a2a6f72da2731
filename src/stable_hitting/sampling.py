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
                     _nondegenerate, _nonzero, _point_alpha, _positive)
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
        # draws past the double range on both sides have no mean: NaN, with
        # no warning
        with np.errstate(over="ignore", invalid="ignore"):
            mean = float(np.mean(draws))
            e = 0
            if (n and not math.isfinite(mean)
                    and np.isfinite(draws).all()):
                # a sum of finite draws passed the double range, not their
                # mean (NaN where numpy's pairwise sum overflows to inf and
                # -inf): both moments come from the draws scaled down by a
                # power of two
                e = math.frexp(float(np.max(np.abs(draws))))[1]
                draws = np.ldexp(draws, -e)
                mean = math.ldexp(float(np.mean(draws)), e)
            if n < 2:
                var = 0.0
            elif np.isinf(draws).any():
                # draws past it (sample_hitting_time near alpha = 1)
                var = math.inf
            else:
                var = float(np.ldexp(np.var(draws, ddof=1), 2 * e))
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


# Smallest index of ``_stable_scaled``.  Below it 1/alpha nears the double
# range and the log-space form of a draw gives NaN: of 1e5 draws at seeds 3
# and 4, sym-stable and Linnik gave no NaN from alpha = 1e-290 down to
# 1e-307, then 1-9 at 5e-308, about 1,100 at 2e-308, 6,653-9,336 at 1e-308
# and 11,501-18,475 at 7e-309 (1/alpha overflows below 5.56e-309).
_STABLE_ALPHA_MIN = 1e-300


def _stable_scaled(alpha: float, stream: RandomStream, size, e=None):
    """X(1) as ``sample_sym_stable`` draws it, times e^{1/alpha} for the
    exponentials ``e`` if given.  Other than at alpha 1 and 2, each draw is
    formed once in log space, with the sign of u, as in Kanter's sampler, so
    it is a normal double wherever the draw is one, and inf or 0, with no
    warning, only past the double range.  Below alpha =
    ``_STABLE_ALPHA_MIN`` = 1e-300 this raises DomainError."""
    if alpha < _STABLE_ALPHA_MIN:
        raise DomainError(f"stable index alpha = {alpha!r} is below "
                          f"{_STABLE_ALPHA_MIN:g}, where the log-space form "
                          "of a draw gives NaN")
    rng = stream.rng
    if alpha == 2.0:
        x = math.sqrt(2.0) * rng.standard_normal(size)
        return x if e is None else e ** (1.0 / alpha) * x
    u = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, size)
    # drawn at alpha = 1 too, so the stream advances alike for every alpha
    w = rng.standard_exponential(size)
    if alpha == 1.0:
        # the closed form keeps 0 * log(0) out where an exponential is 0
        return np.tan(u) if e is None else e * np.tan(u)
    with np.errstate(all="ignore"):
        log_x = (np.log(np.abs(np.sin(alpha * u))) - np.log(np.cos(u)) / alpha
                 + ((1.0 - alpha) / alpha)
                 * np.log(np.cos((1.0 - alpha) * u) / w))
        if e is not None:
            log_x += np.log(e) / alpha
        return np.copysign(np.exp(log_x), u)


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
    # draws past the double range (beta near 0) are inf, the true value rounded
    with np.errstate(over="ignore"):
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


# Smallest index of ``sample_size_biased_stable``.  The rounding error of its
# acceptance exponent s (log A(U) - log A(0+)), s = (1-beta)/(2 beta), shifts
# the acceptance by about 2e-17/beta (the mean of |error| e^{-exponent} over
# 400 uniforms against 60-digit mpmath): 2.3e-5 at 1e-12, 2.2e-4 at 1e-13.
# The acceptance of 2e6 candidates of one stream reads 0.48350 from
# beta = 1e-6 to 3e-13, then 0.48347 at 1e-13, 0.48327 at 1e-14, 0.47976 at
# 1e-15 and 0.45468 at 1e-16.
_SIZE_BIASED_BETA_MIN = 1e-12


def sample_size_biased_stable(beta: float, stream: RandomStream, size=None):
    """Exact draw of the one-sided stable law reweighted by t^{-1/2}.

    Reweighting Kanter's T = (A(U)/W)^{(1-beta)/beta} by T^{-1/2} =
    A(U)^{-s} W^s, with s = (1-beta)/(2 beta), makes W a Gamma(1+s) variable
    and gives U the density proportional to A(u)^{-s} (polynomially tilted
    stables, Devroye, ACM TOMACS 19(4), 2009).  A increases from
    A(0+) = (1-beta) beta^{beta/(1-beta)}, so a uniform U is kept when a unit
    exponential is at least s (log A(U) - log A(0+)); the acceptance rate is
    0.64 at beta = 0.5, 0.86 at 0.9 and 0.998 at 0.9995, and 0.4835 as
    beta tends to 0.

    Below beta = ``_SIZE_BIASED_BETA_MIN`` = 1e-12, which raises
    DomainError, 1 - beta and the exponent lose beta to rounding, and the
    acceptance falls to 0 (at beta = 1e-50), where the loop would not end.
    """
    _inside("beta", beta, 0.0, 1.0)
    if beta < _SIZE_BIASED_BETA_MIN:
        raise DomainError(f"size-biased stable index beta = {beta!r} is below "
                          f"{_SIZE_BIASED_BETA_MIN:g}, where the acceptance "
                          "exponent loses beta to rounding")
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
    # den, of shape 1 - 1/alpha, rounds to 0 near alpha = 1: the draw is past
    # the double range, and inf is the true value rounded
    with np.errstate(divide="ignore", over="ignore"):
        return sign * np.divide(num, den) ** g


def sample_alpha_rayleigh(alpha: float, stream: RandomStream, size=None):
    """Exact draw with survival p_1(x)/p_1(0): 2 sqrt(e T') with T' the
    size-biased one-sided stable of index alpha/2; alpha = 2 gives 2 sqrt(e).
    Below alpha = 2e-12 that index is below ``_SIZE_BIASED_BETA_MIN``, and
    ``sample_size_biased_stable`` raises DomainError."""
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
    half of them at alpha = 1.001, 1e-3 at 1.01 and none in 1e5 at 1.05.
    Where |a|^alpha itself passes it, |a| >= DBL_MAX^(1/alpha), this raises
    DomainError."""
    alpha = _point_alpha(alpha)
    k = 1.0 / alpha
    try:
        scale = abs(_nonzero(a)) ** alpha
    except OverflowError:
        raise DomainError(
            f"t-point level |a| = {abs(a)!r} is not below DBL_MAX^(1/alpha) "
            f"= {sys.float_info.max ** k:.4g}, where |a|^alpha overflows"
        ) from None
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
    # den rounds to 0 at a tiny alpha: the draw is past the double range, and
    # inf is the true value rounded
    with np.errstate(divide="ignore", over="ignore"):
        return np.divide(a * num, den)


# ----------------------------------------------------- excursion quantities

def sample_excursion_age_duration(gamma: float, stream: RandomStream, size=None):
    """(age, duration) of the excursion straddling time 1 when local time is
    self-similar of index gamma: (B, B / U^{1/gamma}) with a shared beta
    variable B = B_{1-gamma, gamma} and an independent uniform U."""
    _inside("gamma", gamma, 0.0, 1.0)
    rng = stream.rng
    b = rng.beta(1.0 - gamma, gamma, size=size)
    u = rng.random(size)
    # U^{-1/gamma} passes the double range at a tiny gamma: inf, the true
    # value rounded
    with np.errstate(divide="ignore", over="ignore"):
        return b, b * np.power(u, -1.0 / gamma)


def sample_excursion_at_exp_time(gamma: float, stream: RandomStream, size=None):
    """(last zero, age, duration) at an independent exponential time:
    (G_gamma, G'_{1-gamma}, G'_{1-gamma} / U^{1/gamma}) with the same
    G'_{1-gamma} in the last two coordinates."""
    _inside("gamma", gamma, 0.0, 1.0)
    rng = stream.rng
    g = rng.gamma(gamma, size=size)
    ghat = rng.gamma(1.0 - gamma, size=size)
    u = rng.random(size)
    # as in sample_excursion_age_duration
    with np.errstate(divide="ignore", over="ignore"):
        return g, ghat, ghat * np.power(u, -1.0 / gamma)


# -------------------------------------------------------- series and tables

# Smallest shape a at which the first coefficient (2/pi^2)/a^2 of the gamma
# series is a finite double.
_C = 2.0 / math.pi ** 2  # the series' coefficient scale
_SERIES_A_MIN = math.sqrt(_C / sys.float_info.max)

# Least argument of the Euler-Maclaurin sum of ``_scaled_zeta``: there its
# first term left out, B_12/12! s (s+1) ... (s+10) x^-12, is below 1e-19 of
# the value for s <= 6.
_ZETA_X_MIN = 64


def _euler_maclaurin_terms(s: int) -> tuple:
    """B_2k/(2k)! s (s+1) ... (s+2k-2) for k = 1..5, the coefficients of
    x^-2k in the Euler-Maclaurin sum of x^(s-1) zeta(s, x)."""
    terms, rising = [], s
    for k, b in enumerate((1 / 12, -1 / 720, 1 / 30240, -1 / 1209600,
                           1 / 47900160)):
        terms.append(b * rising)
        rising *= (s + 2 * k + 1) * (s + 2 * k + 2)
    return tuple(terms)


_EULER_MACLAURIN = {s: _euler_maclaurin_terms(s) for s in (2, 4, 6)}


def _scaled_zeta(s: int, x: float) -> float:
    """x^(s-1) zeta(s, x), the Hurwitz zeta scaled to 1/(s-1) + O(1/x), for
    s in {2, 4, 6} and x >= 1: the Euler-Maclaurin sum with five Bernoulli
    terms at y = x + m >= 64, lifted to x by the first m terms of the
    series.  Scaled, it is a normal double for every such x, where
    zeta(s, x) itself underflows from x of about 1e308^(1/(s-1))."""
    m = max(0, math.ceil(_ZETA_X_MIN - x))
    y = x + m
    w = 1.0 / y / y
    c1, c2, c3, c4, c5 = _EULER_MACLAURIN[s]
    z = (1.0 / (s - 1) + 0.5 / y
         + w * (c1 + w * (c2 + w * (c3 + w * (c4 + w * c5)))))
    if m == 0:
        return z
    return math.fsum([(x / (x + j)) ** s / x for j in range(m)]
                     + [(x / y) ** (s - 1) * z])


def gamma_series_coefficient(a: float, j) -> float:
    # divided twice: (j + a)^2 overflows from 1.3e154, with a warning, where
    # the coefficient is still a subnormal double
    x = j + a
    return _C / x / x


def gamma_series_tail_mean(a: float, t: float, n_terms: int) -> float:
    """Mean of the dropped tail: kappa_1 = t (2/pi^2) zeta(2, n + a)."""
    x = n_terms + a
    return t * _C / x * _scaled_zeta(2, x)


def gamma_series_tail_variance(a: float, t: float, n_terms: int) -> float:
    """Variance of the dropped tail: kappa_2 = t (2/pi^2)^2 zeta(4, n + a)."""
    x = n_terms + a
    return t * _C / x * _C * _scaled_zeta(4, x) / x / x


def gamma_series_tail_gamma(a: float, t: float, n_terms: int):
    """(shift, shape k, scale theta) of the shifted Gamma law that stands in
    for the tail sum_{j>=n} c_j gamma_j(t), shift + Gamma(k, theta), which
    matches the tail's first three cumulants kappa_r = t (r-1)! (2/pi^2)^r
    zeta(2r, x), x = n + a: theta = kappa_3/(2 kappa_2), k = kappa_2/theta^2
    and shift = kappa_1 - kappa_2/theta, which is >= 0 by Cauchy-Schwarz.
    Each is formed from the scaled zetas x^(2r-1) zeta(2r, x), so none
    underflows where the variance is a normal double; k passes the double
    range where t x does.  The variance, of order t/(n + a)^3, underflows to
    0 at a tiny t or a huge a (t = 5e-324, or a = 1e300), which raises
    DegenerateDenominator."""
    _nondegenerate(gamma_series_tail_variance(a, t, n_terms),
                   "gamma-series tail variance", "(a, t)", (a, t))
    x = n_terms + a
    z4 = _scaled_zeta(4, x)
    r = z4 / _scaled_zeta(6, x)
    shift = t * _C / x * (_scaled_zeta(2, x) - z4 * r)
    return shift, t * x * z4 * r * r, _C / r / x / x


# Entries in one block of head draws of ``sample_gamma_series_subordinator``
# (2 MiB of doubles), and the most candidates one pass of a rejection sampler
# draws; a block is never less than one row of ``size`` draws.
_SERIES_BLOCK = 2 ** 18
_SERIES_TERMS = 64  # the head: terms drawn before the shifted gamma tail
# Least t (n + a) of the tail after a head of n terms: the head grows past
# ``_SERIES_TERMS`` at a small t to reach it, up to ``_SERIES_TERMS_MAX``.
# Below it the tail is a sum of a few large gamma draws, and the true law
# puts visible mass below the shift, a floor the shifted gamma has.
_TAIL_TX_MIN = 2.0
_SERIES_TERMS_MAX = 2 ** 20
# Tail shape above which the gamma's relative spread 1/sqrt(k) is below
# 2^-53, so the tail is drawn as its mean: this keeps k = inf (at
# (a, t) = (1e60, 1e300)) out of numpy's gamma, and a subnormal theta out of
# every draw.
_TAIL_SHAPE_MAX = 2.0 ** 106


def sample_gamma_series_subordinator(a: float, t: float, stream: RandomStream,
                                     size=None):
    """Draw of the subordinator (2/pi^2) sum_j gamma_j(t) / (j+a)^2 at time t:
    C_t at a = 1/2 and S_t at a = 1, with transforms cosh(z)^{-t} and
    (z/sinh z)^t at lambda = z^2/2 (Biane, Pitman and Yor, Bull. AMS 38, 2001).

    The first n = ``_SERIES_TERMS`` = 64 terms (more at a small t, below)
    are drawn explicitly, as gamma matrices of at most ``_SERIES_BLOCK``
    entries whose rows are summed against the coefficients; the tail is one
    shifted Gamma(k, theta) with the tail's first three cumulants
    (``gamma_series_tail_gamma``), a truncated sum with a tail
    approximation as in Polson, Scott and Windle (JASA 2013), who match
    two.  The Laplace transform of the sampled law is
    within 2.5e-14 of the closed forms over t in {0.5, 1, 2} and lambda in
    [0.1, 20] (40-digit mpmath), against 1.3e-13 for 256 terms with a
    two-cumulant gamma tail.  Where the tail's shape k passes
    ``_TAIL_SHAPE_MAX`` (t x above about 1e32, x = n + a), its spread is
    below the double precision, and the tail is its mean.

    The tail's shift, 4/9 of its mean for large x, is a floor the true tail
    lacks, and at a small t x the true law puts visible mass below it: with
    64 terms, the Kolmogorov distance to the exact C_t law at a = 1/2 is
    0.40 at t = 1e-3 and 0.008 at 0.01.  So where t is small the head runs
    to n = ceil(2/t - a) terms, which keeps t x >= ``_TAIL_TX_MIN`` = 2,
    and a draw costs about 2/t gamma draws; the distance is then within
    the noise of 2e5 draws (0.003) from t = 1e-3 up.  Below
    t = 2/(2^20 + a) the head would pass ``_SERIES_TERMS_MAX`` = 2^20
    terms, which raises DomainError.

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
    # the head length at which t (n + a) reaches _TAIL_TX_MIN, inf at
    # t = 5e-324: a tail variance that underflows at the capped head raises
    # DegenerateDenominator before the head limit is checked
    need = _TAIL_TX_MIN / t - a
    n = max(_SERIES_TERMS, math.ceil(min(need, _SERIES_TERMS_MAX)))
    shift, k, theta = gamma_series_tail_gamma(a, t, n)
    if need > _SERIES_TERMS_MAX:
        raise DomainError(f"gamma-series time t = {t!r} is below "
                          f"{_TAIL_TX_MIN / (_SERIES_TERMS_MAX + a):.3g} at "
                          f"a = {a!r}, where the head would need more than "
                          f"{_SERIES_TERMS_MAX} terms")
    shape = _shape(size)
    m = math.prod(shape)
    if k < _TAIL_SHAPE_MAX:
        acc = stream.rng.gamma(k, theta, size=m) + shift
    else:
        acc = np.full(m, gamma_series_tail_mean(a, t, n))
    coef = gamma_series_coefficient(a, np.arange(n))
    rows = max(1, _SERIES_BLOCK // max(m, 1))
    for j0 in range(0, n, rows):
        # einsum, not @: a BLAS gemv would wake OpenBLAS's worker threads
        block = stream.rng.gamma(t, size=(min(rows, n - j0), m))
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

    The table builds for t from about 0.083 to 11.4 (measured over 200
    log-spaced t in [1e-3, 20]); outside, ``sample_from_lt`` raises
    TableBuildError.  Below, the lower bracket walk finds no CDF value at
    or below 1e-5 by t = 4^-199; above, the inverted CDF falls by more than
    1e-4 on the table's grid.
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
    steps = np.diff(probs)
    if np.any(steps < -1e-4):
        i = int(np.argmin(steps))
        raise TableBuildError(
            f"inverted CDF not monotone: it falls by {-steps[i]:.3g} to "
            f"{probs[i + 1]:.6g} at t = {grid[i + 1]:.6g}")
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
    raise TableBuildError(f"{side} quantile bracket not found: the walk "
                          f"stopped at t = {ts[-1]:.6g}, where the CDF is "
                          f"{probs[-1]:.6g}")
