"""One entry point for the three estimators and their CEM-then-EM chain."""

from . import cem, direct, em, mixed, model

METHODS = ("em", "cem", "direct", "cem-then-em")


def fit(
    sample,
    method="em",
    init=None,
    config=model.LatticeConfig(),
    *,
    max_iter=500,
    tol=1e-8,
):
    """Fit a wrapped normal with the estimator named by ``method``.

    ``em``, ``cem`` and ``direct`` call :func:`fit_em`, :func:`fit_cem`
    and :func:`fit_direct`; ``cem-then-em`` runs EM from the parameters
    of a CEM fit and returns the EM result.  ``max_iter`` bounds each
    run: EM's lattice passes, CEM's iterations, or ``direct``'s objective
    evaluations.
    ``tol`` is the log-likelihood tolerance of EM and CEM; ``direct``
    stops on its gradient test ``GTOL`` instead.

    Returns
    -------
    FitResult
        A :class:`CemFitResult` for ``cem``.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; valid: {', '.join(METHODS)}")
    if method == "direct":
        return direct.fit_direct(sample, init, config, max_iter=max_iter)
    if method == "em":
        return em.fit_em(sample, init, config, max_iter=max_iter, tol=tol)
    result = cem.fit_cem(sample, init, config, max_iter=max_iter, tol=tol)
    if method == "cem":
        return result
    return em.fit_em(sample, result.params, config, max_iter=max_iter, tol=tol)


def _fitted_loglik(sample, result, config):
    """The observed log-likelihood of ``sample`` at ``result.params``.

    An EM, direct or CEM-then-EM trace ends at it (direct's taken
    before the mean was wrapped).  A CEM trace holds the classification
    log-likelihood instead, so a :class:`CemFitResult` is evaluated
    afresh, as is a :class:`MixedFitResult` on its :class:`MixedSample`.
    """
    if isinstance(result, mixed.MixedFitResult):
        return mixed.mixed_log_likelihood(sample, result.params, config)
    if isinstance(result, cem.CemFitResult):
        return model.log_likelihood(sample, result.params, config)
    return float(result.loglik_trace[-1])
