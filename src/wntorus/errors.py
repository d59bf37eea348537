"""Exception types shared across the estimation routines."""


class FitFailure(Exception):
    """Base of the errors that mean a fit failed on its data.

    The command line maps these to exit status 2 (``DimensionGuardError``
    to 1) and the experiment runner records them as NaN rows.
    ``LatticeTooLargeError`` is a configuration error, not a fit failure.
    """


class DegenerateStatisticError(FitFailure, ValueError):
    """A sample statistic needed for estimation is undefined or degenerate.

    Raised e.g. when a circular mean has zero resultant length, when a
    mean resultant length of 0 or 1 makes the moment-based starting
    values unusable, or when a classification M-step sees fewer than two
    observations or a zero-variance coordinate.
    """


class SingularCovarianceError(FitFailure, ValueError):
    """A covariance matrix is numerically singular or not positive definite."""


class LatticeTooLargeError(ValueError):
    """The requested wrapping lattice exceeds the row-count guard."""


class DimensionGuardError(FitFailure, ValueError):
    """Direct numerical maximization was requested above its dimension limit."""


class NumericalFailureError(FitFailure, RuntimeError):
    """An iterative fit produced a non-finite log-likelihood."""


class ConvergenceError(FitFailure, RuntimeError):
    """An iterative construction failed to reach its target tolerance."""
