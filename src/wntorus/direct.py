"""Direct numerical maximization of the truncated wrapped normal
log-likelihood in the unconstrained log-Cholesky parameterization, by
BFGS on the exact score."""

import numpy as np

from . import circular, model
from .em import FitResult
from .errors import DimensionGuardError

#: Dimensions above this are refused by default: every objective
#: evaluation is a full pass over the (2J+1)^p lattice rows.
DEFAULT_P_LIMIT = 6

#: BFGS stops when the largest gradient entry is below GTOL.
GTOL = 1e-5


def __getattr__(name):
    # scipy.optimize takes most of the package's import time, so it is
    # imported on first use, as ``direct.optimize`` or by fit_direct.
    if name == "optimize":
        from scipy import optimize

        return optimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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

    Returns ``(value, gradient)``, as ``scipy.optimize.minimize`` takes
    them with ``jac=True``.  A non-finite ``theta``, a diagonal entry of
    R that overflows or underflows to zero, or a point where the
    likelihood is zero or the score overflows gives ``(inf, zeros)``.
    """
    y = model._as_sample(sample)
    n, p = y.shape
    theta = np.asarray(theta, dtype=float)
    R = model._upper_factor(theta, p)
    diag = np.diag(R)
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(diag)) and np.all(diag > 0)):
        return np.inf, np.zeros(theta.shape)
    mu = theta[:p]
    L = R.T
    record = model._recentred_pass(y, mu, L, config)
    value = -float(np.sum(record.loglik))
    if not np.isfinite(value):
        return np.inf, np.zeros(theta.shape)
    m = record.cond_mean - mu
    L_inv = model._forward(L, np.eye(p))
    # sigma^-1 (S - n sigma) sigma^-1 without forming sigma; near a
    # singular covariance the score itself may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        precision = L_inv.T @ L_inv
        scatter = record.scatter + m.T @ m
        d_sigma = 0.5 * (precision @ scatter @ precision - n * precision)
        d_sigma = 0.5 * (d_sigma + d_sigma.T)
        d_R = 2.0 * R @ d_sigma
        d_R[np.diag_indices(p)] *= diag
        score = np.concatenate([precision @ np.sum(m, axis=0), d_R[model._upper_indices(p)]])
    if not np.all(np.isfinite(score)):
        return np.inf, np.zeros(theta.shape)
    return value, -score


class _BudgetExhausted(Exception):
    pass


def fit_direct(
    sample,
    init=None,
    config=model.LatticeConfig(),
    *,
    max_evals=5000,
    p_limit=DEFAULT_P_LIMIT,
):
    """Fit a wrapped normal by BFGS on the exact score of the
    log-Cholesky parameters (see :func:`objective`).

    BFGS stops when every gradient entry is below ``GTOL``.  A run that
    stops short of that (typically on a failed line search far from the
    optimum) but has raised the log-likelihood is restarted from the
    best point seen, with a fresh Hessian estimate.  At most
    ``max_evals`` objective evaluations are spent, the one at the start
    included.  Refuses dimensions above ``p_limit`` (default 6); pass a
    larger limit to override.  The returned point never has a lower
    log-likelihood than the starting point, and ``iterations`` reports
    the number of objective evaluations spent.  The trace holds the
    log-likelihoods of the start and of the best evaluation; wrapping
    the returned mean into [0, 2*pi) changes the latter only by rounding.

    Returns
    -------
    FitResult
    """
    from scipy import optimize

    if max_evals < 1:
        raise ValueError("max_evals must be positive")
    y = model._as_sample(sample)
    p = y.shape[1]
    if p > p_limit:
        raise DimensionGuardError(
            f"direct maximization refused for p={p} > limit {p_limit}; "
            "raise p_limit to override, or use the EM/classification fits"
        )
    if init is None:
        init = circular.initial_params(y)
    if init.p != p:
        raise ValueError("init dimension does not match sample")
    theta0 = model.to_log_cholesky(init)

    state = {"evals": 1, "best_theta": theta0, "best": objective(theta0, y, config)}
    f0 = state["best"][0]

    def fun(theta):
        # Each run starts at the best point seen, which is not evaluated again.
        if np.array_equal(theta, state["best_theta"]):
            return state["best"]
        if state["evals"] >= max_evals:
            raise _BudgetExhausted
        state["evals"] += 1
        value, grad = objective(theta, y, config)
        if value < state["best"][0]:
            state["best"] = (value, grad)
            state["best_theta"] = np.array(theta, dtype=float)
        return value, grad

    budget_hit = False
    success = False
    try:
        # A start with zero likelihood or an overflowing score gives no
        # gradient to follow, so the fit stalls there.
        while np.isfinite(state["best"][0]):
            start_f = state["best"][0]
            res = optimize.minimize(
                fun,
                state["best_theta"],
                jac=True,
                method="BFGS",
                options={"gtol": GTOL},
            )
            success = bool(res.success)
            if success or not state["best"][0] < start_f:
                break
    except _BudgetExhausted:
        budget_hit = True

    converged = success and not budget_hit
    reason = "max-iter" if budget_hit else "tol-reached" if success else "stalled"
    raw = model.from_log_cholesky(state["best_theta"], p)
    final = model.WnParams(circular.wrap_angle(raw.mu), raw.sigma)
    return FitResult(
        params=final,
        loglik_trace=np.asarray([-f0, -state["best"][0]]),
        iterations=state["evals"],
        converged=converged,
        reason=reason,
    )
