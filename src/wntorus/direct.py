"""Direct numerical maximization of the truncated wrapped normal
log-likelihood in the unconstrained log-Cholesky parameterization, by
BFGS on the exact score.

The minimizer is the textbook one (Nocedal and Wright, *Numerical
Optimization*, 2nd ed., Algorithm 3.1 and section 6.1): a backtracking
line search on the Armijo sufficient-decrease condition, each failed
trial replaced by the minimizer of the quadratic through the value and
slope at 0 and the value at the trial, and the BFGS inverse-Hessian
update, skipped where the step and the change in gradient have no
positive inner product.
"""

import math

import numpy as np

from . import circular, model
from .em import FitResult, _start
from .errors import DimensionGuardError

#: Dimensions above this are refused: every objective evaluation is a
#: lattice pass over up to (2J+1)^p rows.
P_LIMIT = 6

#: BFGS stops when the largest gradient entry is below GTOL.
GTOL = 1e-5

#: Sufficient-decrease constant of the Armijo condition
#: f(a) <= f(0) + C1 a f'(0).
C1 = 1e-4
#: A line search fails once its step shrinks to this fraction of its
#: first trial.
STEP_FLOOR = 1e-3


def _guard_dimension(p):
    """Refuse direct maximization in ``p`` dimensions above ``P_LIMIT``."""
    if p > P_LIMIT:
        raise DimensionGuardError(
            f"direct maximization refused for p={p} (dimension guard limit "
            f"{P_LIMIT}); use the EM or classification fits"
        )


def objective(theta, sample, config=model.LatticeConfig()):
    """Negative truncated log-likelihood at packed parameters ``theta``
    and its gradient, both from one lattice pass.

    ``theta`` is laid out as by :func:`model.to_log_cholesky`: the mean,
    then the row-major upper triangle of R, with sigma = R'R and the
    diagonal of R on log scale.  By Louis' identity the score is the
    posterior expectation of the complete-data score over the lattice
    window.  With m_i the posterior mean of observation i's unwrapped
    deviation from the mean and S the pass's scatter plus sum_i m_i m_i',
    the score is sigma^-1 sum_i m_i in the mean and
    G = sigma^-1 (S - n sigma) sigma^-1 / 2 in sigma, which is 2 R G in R
    and 2 (R G)_kk R_kk in a log diagonal entry.

    Returns ``(value, gradient)``.  A non-finite ``theta``, a diagonal
    entry of R that overflows or underflows to zero, or a point where the
    likelihood is zero gives ``(inf, zeros)``.  Where only the score
    overflows, the value is finite and the gradient is not.
    """
    y = model._as_sample(sample)
    n, p = y.shape
    theta = np.asarray(theta, dtype=float)
    R = model._upper_factor(theta, p)
    diag = R.diagonal()
    if not (np.isfinite(theta).all() and all(0.0 < d < math.inf for d in diag.tolist())):
        return np.inf, np.zeros(theta.shape)
    mu = theta[:p]
    L = R.T
    record = model._recentred_pass(y, mu, L, config)
    with np.errstate(over="ignore"):
        value = -float(record.loglik.sum())
    if not math.isfinite(value):
        return np.inf, np.zeros(theta.shape)
    m = record.cond_mean - mu
    L_inv = model._forward(L, np.eye(p))
    rows, cols = model._upper_indices(p)
    # sigma^-1 (S - n sigma) sigma^-1 without forming sigma; near a
    # singular covariance the score itself may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        precision = L_inv.T @ L_inv
        scatter = record.scatter + m.T @ m
        d_sigma = 0.5 * (precision @ scatter @ precision - n * precision)
        d_sigma = 0.5 * (d_sigma + d_sigma.T)
        d_R = 2.0 * R @ d_sigma
        d_R.reshape(-1)[:: p + 1] *= diag
        score = np.concatenate([precision @ m.sum(axis=0), d_R[rows, cols]])
    return value, -score


def _inverse_fisher(theta, n, p):
    """Inverse complete-data Fisher information of ``n`` observations at
    packed parameters ``theta``: that of the normal model N(mu, R'R) in
    the coordinates of :func:`objective`.

    The mean block is sigma / n and the cross block 0.  With B = R^-T,
    the entry of the R block for entries (i, j) and (k, l) of R is
    n tr(sigma^-1 dA sigma^-1 dB) / 2 = n (B_il B_kj + [i = k] sigma^-1_jl),
    where dA = E_ji R + R' E_ij, times R_ii (R_kk) for a log diagonal
    entry.
    """
    R = model._upper_factor(theta, p)
    rows, cols = model._upper_indices(p)
    B = model._forward(R.T, np.eye(p))
    scale = np.where(rows == cols, R.diagonal()[rows], 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        cross = B[rows[:, None], cols]
        info = cross * cross.T + (rows[:, None] == rows) * (B.T @ B)[cols[:, None], cols]
        info *= n * np.multiply.outer(scale, scale)
        H = np.zeros((theta.size, theta.size))
        H[:p, :p] = R.T @ R / n
        H[p:, p:] = np.linalg.inv(info)
    return H


def _line_search(phi, f0, d0, stp):
    """The first step, from ``stp`` down, that meets the Armijo condition
    with ``C1``.

    ``phi(a)`` returns the value at step ``a``, or None to abandon the
    search; ``f0`` and ``d0`` are the value and the directional
    derivative at 0, and ``stp`` is the first trial step.  After a
    failed trial the next is the minimizer of the quadratic through
    ``f0``, ``d0`` and the trial's value, kept within [0.1, 0.5] times
    the failed step.  Returns the accepted step (the last one passed to
    ``phi``), or None if ``d0`` is not negative, the search is abandoned
    or the step shrinks to ``STEP_FLOOR`` times the first trial.
    """
    if not d0 < 0:
        return None
    floor = STEP_FLOOR * stp
    while stp > floor:
        f = phi(stp)
        if f is None:
            return None
        if f <= f0 + C1 * stp * d0:
            return stp
        # an infinite value puts the minimizer at 0 and a NaN one makes
        # it NaN; max and min then both give 0.1 stp
        trial = -d0 * stp * stp / (2.0 * (f - f0 - d0 * stp))
        stp = max(0.1 * stp, min(trial, 0.5 * stp))
    return None


def _minimize(fun, x, f, g, H, max_evals, gtol):
    """Minimize ``fun`` by BFGS from ``x``, where ``fun(x)`` is ``(f, g)``
    and ``H`` is the starting estimate of the inverse Hessian there.

    ``fun`` returns the value and gradient at a point.  The first trial
    step moves ``x`` by at most 1 in the Euclidean norm; later searches
    start from the full quasi-Newton step.  A point whose gradient is not
    finite counts as having value ``inf``: it fails sufficient decrease
    and is never the best point.  A point equal to the last or the best
    one is not evaluated again, and at most ``max_evals`` points are.
    The search stops when every entry of the gradient is at most
    ``gtol``, when a line search fails or the start has no finite value
    or gradient, or after 200 iterations per parameter.

    Returns ``(reason, x, f, g, evals)``: "tol-reached", "stalled" or
    "max-iter" (the budget is spent), the best point seen with its value
    and gradient, and the number of evaluations spent.
    """
    best = last = (x, f, g)
    evals = 0

    def evaluate(point):
        # the value at ``point``, or None once the budget is spent; points
        # have one shape, so equality is that of every entry
        nonlocal best, last, evals
        if not (point == last[0]).all():
            if last is not best and (point == best[0]).all():
                last = best
            elif evals == max_evals:
                return None
            else:
                evals += 1
                value, grad = fun(point)
                if not np.isfinite(grad).all():
                    value = np.inf
                last = (point, value, grad)
                if value < best[1]:
                    best = last
        return last[1]

    if not (np.isfinite(f) and np.isfinite(g).all()):
        return "stalled", *best, evals
    identity = np.eye(x.size)
    cap = 200 * x.size
    for iteration in range(cap + 1):
        if np.abs(g).max() <= gtol:
            return "tol-reached", *best, evals
        if iteration == cap:
            break
        p = -np.dot(H, g)
        stp = 1.0 if iteration else min(1.0, 1.0 / np.linalg.norm(p))
        stp = _line_search(lambda a: evaluate(x + a * p), f, np.dot(g, p), stp)
        if stp is None:
            return "max-iter" if evals == max_evals else "stalled", *best, evals
        s = stp * p
        x = x + s
        y = last[2] - g
        f, g = last[1], last[2]
        sy = np.dot(y, s)
        if sy > 0:
            A = identity - np.multiply.outer(s, y) / sy
            H = np.dot(A, np.dot(H, A.T)) + np.multiply.outer(s, s) / sy
    return "stalled", *best, evals


def fit_direct(sample, init=None, config=model.LatticeConfig(), *, max_iter=500):
    """Fit a wrapped normal by BFGS on the exact score of the
    log-Cholesky parameters (see :func:`objective`).

    Each BFGS run takes as its first inverse-Hessian estimate the
    inverse complete-data Fisher information at its starting point,
    that of the plain normal model, and its first trial step moves the
    parameters by at most 1.  BFGS stops when every gradient entry is
    below ``GTOL``.  A run that stops short of that (typically on a
    failed line search, one whose step shrinks to ``STEP_FLOOR`` times
    its first trial without sufficient decrease) but has raised the
    log-likelihood is restarted from the best point seen, with a fresh
    estimate.  A start without a finite score stalls at once.  At most
    ``max_iter`` objective evaluations are spent, the one at the start
    included, and ``iterations`` reports the number spent.  Dimensions
    above ``P_LIMIT`` (6) are refused with :class:`DimensionGuardError`
    before the start is computed.  The returned point never has a lower
    log-likelihood than the starting point.  The trace holds the
    log-likelihoods of the start and of the best evaluation; wrapping
    the returned mean into [0, 2*pi) changes the latter only by
    rounding.

    Returns
    -------
    FitResult
    """
    y = model._as_sample(sample)
    _guard_dimension(y.shape[1])
    y, init = _start(y, init, max_iter=max_iter)
    n, p = y.shape
    theta = model.to_log_cholesky(init)
    value, grad = objective(theta, y, config)
    f0 = value
    evals = 1
    # a stalled run that raised the log-likelihood restarts from its best
    # point with a fresh Hessian estimate
    while True:
        start = value
        reason, theta, value, grad, spent = _minimize(
            lambda t: objective(t, y, config),
            theta, value, grad, _inverse_fisher(theta, n, p),
            max_iter - evals, GTOL,
        )
        evals += spent
        if reason != "stalled" or not value < start:
            break

    raw = model.from_log_cholesky(theta, p)
    final = model.WnParams(circular.wrap_angle(raw.mu), raw.sigma)
    return FitResult(
        params=final,
        loglik_trace=np.asarray([-f0, -value]),
        iterations=evals,
        converged=reason == "tol-reached",
        reason=reason,
    )
