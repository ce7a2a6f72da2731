"""Exception types shared across the package, and the eleven validators
that every domain and consistency check of the package calls.

Every exception type here is an ArithmeticError or a ValueError, the two
families that Python's own float arithmetic raises, so a caller that
catches those two catches every failure of the package; the CLI's
``_FAILURES`` is that pair.

Each validator tests that the value lies inside its domain, so a NaN
fails all of them, and returns the value; the name it is given is the one
the CLI flag uses.  ``_nondegenerate`` checks a computed quantity, such as
a hitting law's gap, and alone raises DegenerateDenominator;
``_consistent`` checks two routes to one quantity, and alone raises
ConsistencyError; the other nine raise DomainError.

``_positive``, ``_nonnegative``, ``_finite``, ``_nonzero``,
``_second_target``, ``_nondegenerate`` and ``_consistent`` also take an
array, the rates, points, levels and gaps of a function called on arrays,
and fail where any element fails.  A float pays nothing for that: an
array is told by the ValueError that the truth value of its comparison
raises, under a ``try`` that costs nothing unless it catches (Python 3.11
and later) and that wraps no raising check, since DomainError is a
ValueError too."""

import math

import numpy as np


class DomainError(ValueError):
    """A parameter lies outside the mathematical domain of the operation."""


class NonConvergence(ArithmeticError):
    """A quadrature or series did not reach the requested tolerance."""


class NumericInstability(ArithmeticError):
    """Successive Laplace-inversion estimates diverge; result untrustworthy."""


class ConsistencyError(ArithmeticError):
    """Two algebraically equivalent evaluation routes disagree."""


class DegenerateDenominator(ArithmeticError):
    """A denominator that should be strictly positive and finite evaluated
    to ~0, or overflowed."""


class TableBuildError(ArithmeticError):
    """An inverse-CDF sampling table failed monotonicity or range checks."""


class UnknownSuite(ValueError):
    """Requested verification suite name is not registered."""


def _alpha(alpha) -> float:
    """alpha as a float, or DomainError outside (0, 2]."""
    alpha = float(alpha)
    if not 0.0 < alpha <= 2.0:
        raise DomainError(f"alpha={alpha} outside (0, 2]")
    return alpha


def _point_alpha(alpha) -> float:
    """``_alpha``, restricted to 1 < alpha <= 2: points are regular for
    themselves only there."""
    alpha = _alpha(alpha)
    if alpha <= 1.0:
        raise DomainError(
            f"alpha={alpha}: point hitting (and the resolvent "
            "density at points) requires 1 < alpha <= 2")
    return alpha


def _positive(name: str, value):
    """``value``, or DomainError unless it is above 0."""
    try:
        if value > 0:
            return value
    except ValueError:
        if (value > 0).all():
            return value
    raise DomainError(f"{name} must be positive")


def _nonnegative(name: str, value):
    """``value``, or DomainError unless it is 0 or above."""
    try:
        if value >= 0:
            return value
    except ValueError:
        if (value >= 0).all():
            return value
    raise DomainError(f"{name} must be nonnegative")


def _inside(name: str, value, lo: float, hi: float):
    """``value``, or DomainError outside the open interval (lo, hi)."""
    if not lo < value < hi:
        raise DomainError(f"{name}={value} outside ({lo:g}, {hi:g})")
    return value


def _finite(name: str, value):
    """``value``, or DomainError unless it is a finite number."""
    try:
        if -math.inf < value < math.inf:
            return value
    except ValueError:
        if (abs(value) < math.inf).all():
            return value
    raise DomainError(f"{name} must be finite")


def _nonzero(a):
    """The target level ``a``, or DomainError at 0 or where it is not
    finite."""
    try:
        if 0.0 < abs(a) < math.inf:
            return a
    except ValueError:
        pass
    # an array, or a float that fails: the rules in order, for the message
    if not np.all(abs(a) > 0.0):
        raise DomainError("target level a must be nonzero")
    return _finite("a", a)


def _second_target(a, b):
    """The second target ``b``, or DomainError where it is missing, equal to
    ``a`` or NaN, or where either target is infinite; for arrays, where any
    element is."""
    if b is None:
        raise DomainError("second target b required")
    try:
        if (abs(a - b) > 0.0 and -math.inf < a < math.inf
                and -math.inf < b < math.inf):
            return b
    except ValueError:
        pass
    # an array, or floats that fail: the rules in order, for the message
    if not np.all(abs(a - b) > 0.0):
        raise DomainError("targets a and b must differ")
    _finite("a", a)
    return _finite("b", b)


def _nondegenerate(value, what: str, name: str, level):
    """``value``, or DegenerateDenominator "what = v for name = level"
    outside (0, inf), v the value or an array's first element that fails."""
    try:
        if 0.0 < value < math.inf:
            return value
    except ValueError:
        ok = (0.0 < value) & (value < math.inf)
        if ok.all():
            return value
        value = value[~ok].flat[0]
    raise DegenerateDenominator(f"{what} = {value} for {name} = {level}")


def _consistent(first, second, tol: float, what: str, name: str, level):
    """``first``, or ConsistencyError "what routes disagree: first vs second
    at name=level" unless the two routes to one value are within ``tol``."""
    gap = first - second
    try:
        if -tol <= gap <= tol:
            return first
    except ValueError:
        if (abs(gap) <= tol).all():
            return first
    raise ConsistencyError(
        f"{what} routes disagree: {first} vs {second} at {name}={level}")


def _count(name: str, value, least: int) -> int:
    """``value`` as an int, or DomainError unless it is a whole number of at
    least ``least``."""
    if not value >= least:
        raise DomainError(f"{name} must be >= {least}")
    if not float(value).is_integer():
        raise DomainError(f"{name}={value} is not an integer")
    return int(value)
