"""Classification EM: hard-assign each observation to its best lattice
row, then apply the ordinary normal MLE to the unwrapped points."""

from dataclasses import dataclass

import numpy as np

from . import circular, model
from ._linalg import TWO_PI
from .em import FitResult
from .errors import DegenerateStatisticError, NumericalFailureError


@dataclass(frozen=True)
class CemFitResult(FitResult):
    """FitResult plus the classification byproducts.

    ``coefficients`` are integer lattice rows relative to the sample
    recentered about the fitted mean, so each entry lies within the
    truncation window; ``unwrapped`` are the reconstructed Euclidean
    points, congruent to the input sample modulo 2*pi.  The trace holds
    the classification log-likelihood.
    """

    coefficients: np.ndarray = None
    unwrapped: np.ndarray = None


def classify(weights, config=model.LatticeConfig(), p=None):
    """Lattice row with the highest posterior weight.

    Ties resolve to the lexicographically smallest row, which is the
    first occurrence in the window's row ordering.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size == 0:
        raise ValueError("weights must be a non-empty 1-D array")
    m = weights.shape[0]
    width = 2 * config.J + 1
    if p is None:
        if width == 1:
            raise ValueError("dimension cannot be inferred for J=0; pass p")
        p = round(np.log(m) / np.log(width))
    if config.n_rows(p) != m:
        raise ValueError(f"{m} weights do not form a J={config.J} window")
    rows = model.lattice_rows(config, p)
    return rows[int(np.argmax(weights))].copy()


def _classification_mle(x):
    """Mean and population covariance of unwrapped points, unvalidated."""
    n = x.shape[0]
    if n < 2:
        raise DegenerateStatisticError(
            "classification M-step needs at least two observations"
        )
    mu_raw = np.mean(x, axis=0)
    dev = x - mu_raw
    sigma = dev.T @ dev / n
    if np.any(np.diag(sigma) <= 0.0):
        raise DegenerateStatisticError(
            "classification M-step produced a zero-variance coordinate"
        )
    return mu_raw, 0.5 * (sigma + sigma.T)


def cem_m_step(sample, coefficients):
    """Normal MLE of ``sample + 2*pi*coefficients``.

    ``sample`` rows are the representatives the coefficients refer to
    (the classification fit passes recentered ones).  The covariance uses
    divisor n.
    """
    y = model._as_sample(sample)
    coefficients = np.asarray(coefficients)
    if coefficients.shape != y.shape:
        raise ValueError("coefficients must match the sample shape")
    mu_raw, sigma = _classification_mle(y + TWO_PI * coefficients)
    return model.WnParams(circular.wrap_angle(mu_raw), sigma)


def _classification_loglik(x, params):
    vals = model.mvn_logpdf(x, params)
    return float(np.sum(np.atleast_1d(vals)))


def fit_cem(sample, init=None, config=model.LatticeConfig(), *, max_iter=500, tol=1e-8):
    """Classification-EM fit of a wrapped normal.

    Alternates the posterior-weight computation, a hard assignment of
    each observation to its best lattice row, and the normal MLE of the
    resulting unwrapped points.  Stops at a classification fixed point,
    when the classification log-likelihood change drops below ``tol``, or
    at ``max_iter``.

    Returns
    -------
    CemFitResult
        The final coefficients are re-derived at the returned parameters,
        so they are posterior-optimal for what is reported.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not np.isfinite(tol):
        raise ValueError("tol must be finite")
    y = model._as_sample(sample)
    if init is None:
        init = circular.initial_params(y)
    if init.p != y.shape[1]:
        raise ValueError("init dimension does not match sample")
    p = y.shape[1]
    rows = model.lattice_rows(config, p)

    mu = init.mu.copy()
    sigma = init.sigma
    trace = []
    prev_totals = None
    converged = False
    reason = "max-iter"
    iterations = 0

    for it in range(1, max_iter + 1):
        current = model.WnParams(mu, sigma)
        # a pass that stops at each observation's best row
        jhat = rows[model._per_observation_loglik(y, current, config, True)]
        y_centered = circular.center_to(y, current.mu)
        turns = np.rint((y - y_centered) / TWO_PI).astype(int)
        totals = jhat - turns
        if prev_totals is not None and np.array_equal(totals, prev_totals):
            converged = True
            reason = "fixed-point"
            break

        x_hat = y_centered + TWO_PI * jhat
        if it == 1:
            trace.append(_classification_loglik(x_hat, current))
        mu, sigma = _classification_mle(x_hat)
        fitted = model.WnParams(mu, sigma)
        value = _classification_loglik(x_hat, fitted)
        if not np.isfinite(value):
            raise NumericalFailureError(
                f"non-finite classification log-likelihood at iteration {it}"
            )
        trace.append(value)
        iterations = it
        prev_totals = totals
        if abs(trace[-1] - trace[-2]) < tol:
            converged = True
            reason = "tol-reached"
            break

    final = model.WnParams(circular.wrap_angle(mu), sigma)
    # At a fixed point with a canonical mean, the last classification
    # was made at exactly these parameters.
    if reason != "fixed-point" or not np.array_equal(final.mu, current.mu):
        jhat = rows[model._per_observation_loglik(y, final, config, True)]
        y_centered = circular.center_to(y, final.mu)
    coefficients = jhat
    unwrapped = y_centered + TWO_PI * coefficients
    return CemFitResult(
        params=final,
        loglik_trace=np.asarray(trace),
        iterations=iterations,
        converged=converged,
        reason=reason,
        coefficients=coefficients,
        unwrapped=unwrapped,
    )
