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
    window is applied.  Weights are non-negative and sum to one; they
    are the observation's share of the ``row_mass`` of a fit's pass, so
    the rows that pass leaves out, which carry less than
    ``model._PRUNE_EPS`` together, get weight 0.  An observation with no
    finite term, whose log density is -inf, gets nan weights on every
    row, whatever the window's size.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("y must be a single angle vector")
    return model._per_observation_loglik(y[None, :], params, config).row_mass


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
    """Maximum-likelihood fit of a wrapped normal by EM, accelerated by
    squared extrapolation (SQUAREM, Varadhan & Roland 2008).

    One EM map recenters the sample about the current mean, computes
    posterior weights over the truncation window, and pools the
    per-observation conditional moments.  Each cycle makes two EM maps,
    θ0 → θ1 → θ2, and extrapolates along them to
    θ′ = θ0 − 2αr + α²v over (μ, Σ), with r = θ1 − θ0,
    v = θ2 − 2θ1 + θ0 and α = −|r|/|v| capped at −1.  θ′ is kept if Σ′
    is positive definite and its log-likelihood is at least θ1's;
    otherwise the cycle ends at the plain θ2.  So an extrapolation
    never lowers the log-likelihood, and the fixed points are EM's.
    Iteration stops when the absolute change between consecutive
    iterates drops below ``tol``, or when θ′ falls short of θ1 by less
    than ``tol`` (the fit then ends at θ1).

    Parameters
    ----------
    sample : array, shape (n, p)
        Angles in radians; any real representatives are accepted.
    init : WnParams, optional
        Starting values; defaults to the moment-based ones.
    config : LatticeConfig
        Truncation window.
    max_iter, tol : int, float
        Budget of lattice passes after the start's, the pass at a
        rejected θ′ included, and the (finite) log-likelihood tolerance.

    Returns
    -------
    FitResult
        ``loglik_trace`` holds the start and every iterate kept (θ1,
        then θ′ or θ2, per cycle), never a rejected θ′, and
        ``iterations`` is its length less one.  A rejected θ′ spends a
        pass that no iterate records, so ``iterations`` can fall short
        of the passes spent, and never exceeds ``max_iter``.
    """
    return _fit_em(sample, init, config, max_iter=max_iter, tol=tol)[0]


def _extrapolate(theta0, theta1, theta2):
    """:func:`fit_em`'s θ′ from three consecutive (mu, sigma) EM
    iterates, norms taken over μ and every entry of Σ.  Returns (mu,
    sigma, lower factor of sigma), or None if θ′ is not finite or sigma
    is not positive definite."""
    t0, t1, t2 = (np.concatenate((mu, sigma.ravel())) for mu, sigma in (theta0, theta1, theta2))
    r = t1 - t0
    v = t2 - 2.0 * t1 + t0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        alpha = min(-np.linalg.norm(r) / np.linalg.norm(v), -1.0)
        theta = t0 - 2.0 * alpha * r + alpha * alpha * v
    if not np.all(np.isfinite(theta)):
        return None
    p = theta0[0].shape[0]
    mu, sigma = theta[:p], theta[p:].reshape(p, p)
    try:
        return mu, sigma, safe_cholesky(sigma)
    except SingularCovarianceError:
        return None


def _fit_em(sample, init=None, config=model.LatticeConfig(), *, max_iter=500, tol=1e-8):
    """:func:`fit_em`, also returning the lattice record of its last
    kept pass.  That pass was made at the returned parameters, its
    conditional means on the turn of the mean before it was wrapped, so
    they are those of the returned fit up to whole turns of the mean."""
    y, init = _start(sample, init, max_iter=max_iter, tol=tol)
    mu, sigma = init.mu, init.sigma
    record = model._recentred_pass(y, mu, safe_cholesky(sigma), config)
    trace = []
    passes = 0
    ridged_ever = False

    def em_map(record):
        nonlocal ridged_ever
        mu, sigma, L, ridged = _m_step_arrays(record.cond_mean, record.scatter)
        ridged_ever |= ridged
        return mu, sigma, L

    def visit(mu, L):
        nonlocal passes
        passes += 1
        return model._recentred_pass(y, mu, L, config)

    def keep(record):
        """Append the iterate's log-likelihood; True if converged."""
        ll = float(np.sum(record.loglik))
        if not np.isfinite(ll):
            raise NumericalFailureError(
                f"non-finite log-likelihood at iteration {len(trace)}"
            )
        trace.append(ll)
        return len(trace) > 1 and abs(ll - trace[-2]) < tol

    converged = keep(record)
    while not converged and passes < max_iter:
        theta0 = mu, sigma
        mu, sigma, L = em_map(record)
        record = visit(mu, L)
        converged = keep(record)
        if converged or passes == max_iter:
            break
        mu2, sigma2, L2 = em_map(record)
        step = _extrapolate(theta0, (mu, sigma), (mu2, sigma2))
        if step is not None:
            ext = visit(step[0], step[2])
            ll = float(np.sum(ext.loglik))
            if not np.isfinite(ll):
                ll = -np.inf
            if ll >= trace[-1]:
                mu, sigma, _ = step
                record = ext
                converged = keep(record)
                continue
            if trace[-1] - ll < tol:
                # a rounding dip below θ1: θ1 is the fixed point
                converged = True
                break
            if passes == max_iter:
                break
        mu, sigma, record = mu2, sigma2, visit(mu2, L2)
        converged = keep(record)

    reason = "degenerate" if ridged_ever else "tol-reached" if converged else "max-iter"
    result = FitResult(
        params=model.WnParams(circular.wrap_angle(mu), sigma),
        loglik_trace=np.asarray(trace),
        iterations=len(trace) - 1,
        converged=converged,
        reason=reason,
    )
    return result, record
