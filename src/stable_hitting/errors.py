"""Exception types shared across the package."""


class DomainError(ValueError):
    """A parameter lies outside the mathematical domain of the operation."""


class NonConvergence(ArithmeticError):
    """A quadrature or series did not reach the requested tolerance."""


class NumericInstability(ArithmeticError):
    """Successive Laplace-inversion estimates diverge; result untrustworthy."""


class ConsistencyError(ArithmeticError):
    """Two algebraically equivalent evaluation routes disagree."""


class DegenerateDenominator(ArithmeticError):
    """A denominator that should be strictly positive evaluated to ~0."""


class TableBuildError(RuntimeError):
    """An inverse-CDF sampling table failed monotonicity or range checks."""


class UnknownSuite(ValueError):
    """Requested verification suite name is not registered."""
