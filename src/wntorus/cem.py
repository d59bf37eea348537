"""Classification EM: hard-assign each observation to its best lattice
row, then apply the ordinary normal MLE to the unwrapped points."""

from dataclasses import dataclass

import numpy as np

from . import circular, model
from ._linalg import TWO_PI, safe_cholesky
from .em import FitResult, _start
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


def _classification_loglik(x, mu, L):
    """Summed :func:`model.mvn_logpdf` of ``x`` at the mean ``mu`` and
    covariance factor ``L``."""
    return float(model._normal_loglik(x - mu, L).sum())


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
    y, init = _start(sample, init, max_iter=max_iter, tol=tol)
    mu, sigma = init.mu, init.sigma
    L = safe_cholesky(sigma)
    trace = []
    prev_totals = None
    converged = False
    reason = "max-iter"
    iterations = 0

    for it in range(1, max_iter + 1):
        y_centered = circular.center_to(y, mu)
        jhat = model._best_rows(y, mu, L, config, y_centered)
        turns = np.rint((y - y_centered) / TWO_PI).astype(int)
        totals = jhat - turns
        if prev_totals is not None and np.array_equal(totals, prev_totals):
            converged = True
            reason = "fixed-point"
            break

        x_hat = y_centered + TWO_PI * jhat
        if it == 1:
            trace.append(_classification_loglik(x_hat, mu, L))
        mu, sigma = _classification_mle(x_hat)
        L = safe_cholesky(sigma)
        value = _classification_loglik(x_hat, mu, L)
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
    # A fixed point's last classification was made at these parameters;
    # only its recentring of the sample may be on the raw mean's turn.
    if reason != "fixed-point" or not np.array_equal(final.mu, mu):
        y_centered = circular.center_to(y, final.mu)
    if reason != "fixed-point":
        jhat = model._best_rows(y, final.mu, L, config, y_centered)
    return CemFitResult(
        params=final,
        loglik_trace=np.asarray(trace),
        iterations=iterations,
        converged=converged,
        reason=reason,
        coefficients=jhat,
        unwrapped=y_centered + TWO_PI * jhat,
    )
