"""Direct numerical maximization of the truncated wrapped normal
log-likelihood in the unconstrained log-Cholesky parameterization."""

import numpy as np
from scipy import optimize

from . import circular, model
from .em import FitResult
from .errors import DimensionGuardError

#: Dimensions above this are refused by default: the parameter count
#: p + p(p+1)/2 makes derivative-free search impractical.
DEFAULT_P_LIMIT = 6

#: Absolute per-coordinate displacement of the initial simplex.
SIMPLEX_STEP = 0.1

#: Nelder-Mead stops when the simplex spans less than X_TOL in every
#: coordinate and F_TOL in objective value.
X_TOL = 1e-5
F_TOL = 1e-9


def objective(theta, sample, config=model.LatticeConfig()):
    """Negative truncated log-likelihood at packed parameters ``theta``."""
    y = model._as_sample(sample)
    params = model.from_log_cholesky(theta, y.shape[1])
    return -model.log_likelihood(y, params, config)


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
    """Fit a wrapped normal by Nelder-Mead search over the log-Cholesky
    parameters.

    At most ``max_evals`` objective evaluations are spent, the one at the
    start included.  Refuses dimensions above ``p_limit`` (default 6);
    pass a larger limit to override.  The returned point never has a
    lower log-likelihood than the starting point, and ``iterations``
    reports the number of objective evaluations spent.

    Returns
    -------
    FitResult
    """
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

    state = {"evals": 0, "best_theta": theta0.copy(), "best_f": np.inf}

    def fun(theta):
        if state["evals"] >= max_evals:
            raise _BudgetExhausted
        state["evals"] += 1
        value = objective(theta, y, config)
        if value < state["best_f"]:
            state["best_f"] = value
            state["best_theta"] = np.array(theta, dtype=float)
        return value

    f0 = fun(theta0)
    budget_hit = False
    success = False
    try:
        d = theta0.size
        simplex = np.vstack([theta0, np.tile(theta0, (d, 1)) + SIMPLEX_STEP * np.eye(d)])
        res = optimize.minimize(
            fun,
            theta0,
            method="Nelder-Mead",
            options={
                "initial_simplex": simplex,
                "maxfev": max_evals,
                "xatol": X_TOL,
                "fatol": F_TOL,
            },
        )
        success = bool(res.success)
    except _BudgetExhausted:
        budget_hit = True

    converged = success and not budget_hit
    reason = "max-iter" if budget_hit else "tol-reached" if success else "stalled"
    raw = model.from_log_cholesky(state["best_theta"], p)
    final = model.WnParams(circular.wrap_angle(raw.mu), raw.sigma)
    ll_final = model.log_likelihood(y, final, config)
    return FitResult(
        params=final,
        loglik_trace=np.asarray([-f0, ll_final]),
        iterations=state["evals"],
        converged=converged,
        reason=reason,
    )
