"""Direct numerical maximization of the truncated wrapped normal
log-likelihood in the unconstrained log-Cholesky parameterization."""

from dataclasses import dataclass

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


@dataclass(frozen=True)
class OptimizerControl:
    """Knobs for :func:`fit_direct`.

    ``method`` is ``"simplex"`` (Nelder-Mead, the default) or
    ``"quasi-newton-numeric"`` (BFGS with central finite-difference
    gradients).  ``max_evals`` bounds objective evaluations; ``x_tol``
    and ``f_tol`` are the simplex convergence tolerances (the
    quasi-Newton path uses ``f_tol`` as its gradient tolerance).
    """

    method: str = "simplex"
    max_evals: int = 5000
    x_tol: float = 1e-5
    f_tol: float = 1e-9

    def __post_init__(self):
        if self.method not in ("simplex", "quasi-newton-numeric"):
            raise ValueError(
                "method must be 'simplex' or 'quasi-newton-numeric'"
            )
        if self.max_evals < 1:
            raise ValueError("max_evals must be positive")
        if self.x_tol <= 0.0 or self.f_tol <= 0.0:
            raise ValueError("tolerances must be positive")


def objective(theta, sample, config=model.LatticeConfig()):
    """Negative truncated log-likelihood at packed parameters ``theta``."""
    y = model._as_sample(sample)
    params = model.from_log_cholesky(theta, y.shape[1])
    return -model.log_likelihood(y, params, config)


def _central_gradient(fun, theta):
    """Central finite differences with step cbrt(eps) * max(1, |theta_i|)."""
    h = np.cbrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(theta))
    grad = np.empty_like(theta)
    for i in range(theta.size):
        step = np.zeros_like(theta)
        step[i] = h[i]
        grad[i] = (fun(theta + step) - fun(theta - step)) / (2.0 * h[i])
    return grad


class _BudgetExhausted(Exception):
    pass


def fit_direct(
    sample,
    init=None,
    config=model.LatticeConfig(),
    ctrl=OptimizerControl(),
    *,
    p_limit=DEFAULT_P_LIMIT,
):
    """Fit a wrapped normal by general-purpose numerical optimization.

    Refuses dimensions above ``p_limit`` (default 6); pass a larger limit
    to override.  The returned point never has a lower log-likelihood
    than the starting point, and ``iterations`` reports the number of
    objective evaluations spent.

    Returns
    -------
    FitResult
    """
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
        if state["evals"] >= ctrl.max_evals:
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
        if ctrl.method == "simplex":
            d = theta0.size
            simplex = np.vstack([theta0, np.tile(theta0, (d, 1)) + SIMPLEX_STEP * np.eye(d)])
            res = optimize.minimize(
                fun,
                theta0,
                method="Nelder-Mead",
                options={
                    "initial_simplex": simplex,
                    "maxfev": ctrl.max_evals,
                    "xatol": ctrl.x_tol,
                    "fatol": ctrl.f_tol,
                },
            )
        else:
            res = optimize.minimize(
                fun,
                theta0,
                method="BFGS",
                jac=lambda t: _central_gradient(fun, t),
                options={"gtol": ctrl.f_tol, "maxiter": ctrl.max_evals},
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
