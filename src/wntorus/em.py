"""Expectation-maximization for the wrapped normal via variance
decomposition of the lattice-augmented complete data."""

from dataclasses import dataclass

import numpy as np

from . import circular, model
from ._linalg import TWO_PI, safe_cholesky
from .errors import NumericalFailureError, SingularCovarianceError

#: Relative size of the diagonal ridge used to repair a numerically
#: non-positive-definite M-step covariance.
RIDGE_SCALE = 1e-10


@dataclass(frozen=True)
class ConditionalMoments:
    """Per-observation conditional mean and covariance over the lattice."""

    mean: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True)
class FitResult:
    """Outcome of an iterative fit.

    ``loglik_trace`` holds one objective value per visited iterate,
    starting at the initial parameters and ending at the returned ones.
    ``reason`` is one of ``tol-reached``, ``max-iter``, ``degenerate``
    (a covariance repair was needed), or — for classification fits —
    ``fixed-point``; direct fits report ``stalled`` when the optimizer
    stopped without success before its evaluation budget ran out.
    """

    params: model.WnParams
    loglik_trace: np.ndarray
    iterations: int
    converged: bool
    reason: str


def _start(sample, init, *, max_iter=1, tol=0.0):
    """The checked (n, p) sample and start of a fit: checks the budget
    and the sample before ``init`` defaults to
    :func:`circular.initial_params`, then the dimension of ``init``."""
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not np.isfinite(tol):
        raise ValueError("tol must be finite")
    y = model._as_sample(sample)
    if init is None:
        init = circular.initial_params(y)
    if init.p != y.shape[1]:
        raise ValueError("init dimension does not match sample")
    return y, init


def e_step(y, params, config=model.LatticeConfig()):
    """Posterior weights of each lattice row for one observation.

    The observation is recentered about the current mean before the
    whole window is applied.  Weights are non-negative and sum to one.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("y must be a single angle vector")
    return model._per_observation_loglik(y[None, :], params, config, whole=True).row_mass


def conditional_moments(y, weights, config=model.LatticeConfig()):
    """Weighted mean and covariance of the lattice-shifted copies of ``y``.

    ``y`` is used as the base representative: the moments are taken over
    the points ``y + 2*pi*j`` for every row ``j`` of the window, with the
    given weights.  Callers recenter first when that is wanted.
    """
    y = np.asarray(y, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if y.ndim != 1 or weights.ndim != 1:
        raise ValueError("y and weights must be 1-D")
    p = y.shape[0]
    if weights.shape[0] != config.n_rows(p):
        raise ValueError(
            f"expected {config.n_rows(p)} weights for p={p}, got {weights.shape[0]}"
        )
    if np.any(weights < 0.0) or abs(np.sum(weights) - 1.0) > 1e-9:
        raise ValueError("weights must be non-negative and sum to one")
    offsets = TWO_PI * model.lattice_rows(config, p)
    shift = weights @ offsets
    centered = offsets - shift
    cov = (centered * weights[:, None]).T @ centered
    return ConditionalMoments(y + shift, 0.5 * (cov + cov.T))


def _ridge_repair(sigma):
    """Make ``sigma`` choleskyable by adding a tiny diagonal ridge.

    Returns (matrix, its lower Cholesky factor, ridged flag).  The ridge
    is RIDGE_SCALE times the mean diagonal entry, falling back to an
    absolute RIDGE_SCALE floor when the trace itself has collapsed to
    zero.
    """
    p = sigma.shape[0]
    ridge = RIDGE_SCALE * float(np.trace(sigma)) / p
    if ridge <= 0.0:
        ridge = RIDGE_SCALE
    for attempt in range(3):
        try:
            return sigma, safe_cholesky(sigma), attempt > 0
        except SingularCovarianceError:
            sigma = sigma + ridge * np.eye(p)
            ridge = max(ridge * 1e6, RIDGE_SCALE)
    raise SingularCovarianceError("covariance update could not be repaired")


def _m_step_arrays(means, scatter):
    """Pooled update from the conditional means and summed covariances.

    New mean: average of the conditional means (left unwrapped).  New
    covariance: average within-observation covariance plus the
    population-covariance (divisor n) of the conditional means.  Returns
    the mean, the covariance and its factor and ridged flag as
    :func:`_ridge_repair` does.
    """
    n = means.shape[0]
    mu_raw = means.sum(axis=0) / n  # as np.mean computes it
    dev = means - mu_raw
    sigma = (scatter + dev.T @ dev) / n
    sigma = 0.5 * (sigma + sigma.T)
    return (mu_raw,) + _ridge_repair(sigma)


def m_step(moments):
    """Pooled parameter update from a sequence of ConditionalMoments."""
    moments = list(moments)
    if not moments:
        raise ValueError("at least one observation is required")
    means = np.stack([m.mean for m in moments])
    scatter = np.sum([m.cov for m in moments], axis=0)
    mu_raw, sigma, _, _ = _m_step_arrays(means, scatter)
    return model.WnParams(circular.wrap_angle(mu_raw), sigma)


def fit_em(
    sample,
    init=None,
    config=model.LatticeConfig(),
    *,
    max_iter=500,
    tol=1e-8,
):
    """Maximum-likelihood fit of a wrapped normal by EM.

    Each iteration recenters the sample about the current mean, computes
    posterior weights over the truncation window, and pools the
    per-observation conditional moments.  Iteration stops when the
    absolute log-likelihood change drops below ``tol``.

    Parameters
    ----------
    sample : array, shape (n, p)
        Angles in radians; any real representatives are accepted.
    init : WnParams, optional
        Starting values; defaults to the moment-based ones.
    config : LatticeConfig
        Truncation window.
    max_iter, tol : int, float
        Iteration budget and (finite) log-likelihood tolerance.

    Returns
    -------
    FitResult
    """
    return _fit_em(sample, init, config, max_iter=max_iter, tol=tol)[0]


def _fit_em(sample, init=None, config=model.LatticeConfig(), *, max_iter=500, tol=1e-8):
    """:func:`fit_em`, also returning the lattice record of its last
    pass.  That pass was made at the returned parameters before the mean
    was wrapped, so the record's conditional means are those of the
    returned fit up to whole turns of the mean."""
    y, init = _start(sample, init, max_iter=max_iter, tol=tol)
    record = model._recentred_pass(y, init.mu, safe_cholesky(init.sigma), config)
    ll = float(np.sum(record.loglik))
    if not np.isfinite(ll):
        raise NumericalFailureError("non-finite log-likelihood at iteration 0")
    trace = [ll]
    ridged_ever = False

    for it in range(1, max_iter + 1):
        mu, sigma, L, ridged = _m_step_arrays(record.cond_mean, record.scatter)
        ridged_ever |= ridged

        record = model._recentred_pass(y, mu, L, config)
        ll_new = float(np.sum(record.loglik))
        if not np.isfinite(ll_new):
            raise NumericalFailureError(
                f"non-finite log-likelihood at iteration {it}"
            )
        trace.append(ll_new)
        converged = abs(ll_new - ll) < tol
        ll = ll_new
        if converged:
            break

    if ridged_ever:
        reason = "degenerate"
    elif converged:
        reason = "tol-reached"
    else:
        reason = "max-iter"
    result_params = model.WnParams(circular.wrap_angle(mu), sigma)
    result = FitResult(
        params=result_params,
        loglik_trace=np.asarray(trace),
        iterations=len(trace) - 1,
        converged=converged,
        reason=reason,
    )
    return result, record
