import numpy as np
import pytest

from wntorus import (
    METHODS,
    ConvergenceError,
    DegenerateStatisticError,
    DimensionGuardError,
    FitFailure,
    LatticeConfig,
    LatticeTooLargeError,
    MixedSample,
    NumericalFailureError,
    SingularCovarianceError,
    cem,
    direct,
    em,
    fit,
    fit_mixed_cem,
    fit_mixed_em,
    log_likelihood,
    mixed_log_likelihood,
)
from wntorus.fitting import _fitted_loglik

from .conftest import TWO_PI, make_wn_sample

#: Each method spelled out as calls to the fitters themselves.
BY_HAND = {
    "em": lambda y, **kw: em.fit_em(y, **kw),
    "cem": lambda y, **kw: cem.fit_cem(y, **kw),
    "direct": lambda y, **kw: direct.fit_direct(y),
    "cem-then-em": lambda y, **kw: em.fit_em(y, cem.fit_cem(y, **kw).params, **kw),
}


@pytest.fixture(scope="module")
def sample():
    return make_wn_sample(2, 60, 0.8, seed=5)[0]


class TestFit:
    @pytest.mark.parametrize("method", METHODS)
    def test_same_result_as_the_fitter(self, sample, method):
        got = fit(sample, method)
        want = BY_HAND[method](sample)
        np.testing.assert_array_equal(got.params.mu, want.params.mu)
        np.testing.assert_array_equal(got.params.sigma, want.params.sigma)
        np.testing.assert_array_equal(got.loglik_trace, want.loglik_trace)
        assert (got.iterations, got.converged, got.reason) == (
            want.iterations,
            want.converged,
            want.reason,
        )

    @pytest.mark.parametrize("method", ("em", "cem", "cem-then-em"))
    def test_iteration_budget_and_tolerance_passed_on(self, sample, method):
        got = fit(sample, method, max_iter=1, tol=1e3)
        want = BY_HAND[method](sample, max_iter=1, tol=1e3)
        np.testing.assert_array_equal(got.loglik_trace, want.loglik_trace)
        assert got.iterations <= 1

    @pytest.mark.parametrize("method", METHODS)
    def test_budget_binds_every_method(self, sample, method):
        assert fit(sample, method, max_iter=2).iterations <= 2

    def test_direct_ignores_tolerance(self, sample):
        a = fit(sample, "direct", tol=1e3)
        b = fit(sample, "direct")
        np.testing.assert_array_equal(a.params.sigma, b.params.sigma)
        assert a.iterations == b.iterations > 1

    def test_init_and_config_passed_on(self, sample):
        init = em.fit_em(sample).params
        config = LatticeConfig(1)
        got = fit(sample, "em", init, config)
        want = em.fit_em(sample, init, config)
        np.testing.assert_array_equal(got.loglik_trace, want.loglik_trace)

    @pytest.mark.parametrize("method", ("sgd", "emT", "EM", ""))
    def test_unknown_method_raises(self, sample, method):
        with pytest.raises(ValueError, match="unknown method"):
            fit(sample, method)


class TestFittedLoglik:
    """The one place that decides which log-likelihood a fit reports."""

    @pytest.mark.parametrize("method", METHODS)
    def test_is_the_loglik_at_the_fitted_params(self, sample, method):
        config = LatticeConfig()
        res = fit(sample, method, None, config)
        want = log_likelihood(sample, res.params, config)
        assert _fitted_loglik(sample, res, config) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("fitter", [fit_mixed_em, fit_mixed_cem])
    def test_mixed_is_the_joint_loglik(self, sample, fitter):
        linear = np.cos(sample[:, :1]) + np.linspace(-1.0, 1.0, sample.shape[0])[:, None]
        mixed = MixedSample(sample, linear)
        config = LatticeConfig()
        res = fitter(mixed, None, config)
        want = mixed_log_likelihood(mixed, res.params, config)
        assert _fitted_loglik(mixed, res, config) == pytest.approx(want, rel=1e-12)


FIT_FAILURES = (
    DegenerateStatisticError,
    SingularCovarianceError,
    NumericalFailureError,
    ConvergenceError,
    DimensionGuardError,
)


class TestFailureTaxonomy:
    def test_fit_failures_are_exactly_these(self):
        assert set(FitFailure.__subclasses__()) == set(FIT_FAILURES)

    def test_builtin_bases_kept(self):
        for exc in (DegenerateStatisticError, SingularCovarianceError, DimensionGuardError):
            assert issubclass(exc, ValueError)
        for exc in (NumericalFailureError, ConvergenceError):
            assert issubclass(exc, RuntimeError)

    def test_lattice_guard_is_not_a_fit_failure(self):
        assert issubclass(LatticeTooLargeError, ValueError)
        assert not issubclass(LatticeTooLargeError, FitFailure)


class TestIterates:
    @pytest.mark.parametrize("fitter", [em.fit_em, cem.fit_cem])
    def test_one_factorization_per_iterate(self, monkeypatch, fitter):
        sample = make_wn_sample(2, 60, 2.5, seed=5)[0]
        factor = np.linalg.cholesky
        calls = []
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(1) or factor(a))
        res = fitter(sample)
        assert res.iterations >= 4
        # one each for the moment start, its factor and the result
        if fitter is cem.fit_cem:
            assert len(calls) == res.iterations + 3
        else:
            # an EM cycle keeps at most two iterates and factors its two
            # M-step images and the point extrapolated from them
            cycles = -(-res.iterations // 2)
            assert res.iterations + 3 <= len(calls) <= 3 * cycles + 3

    def test_singular_m_step(self):
        # two copies of one column: every M-step covariance is singular
        x = np.random.default_rng(0).normal(3.0, 0.3, size=200) % TWO_PI
        sample = np.column_stack([x, x])
        with pytest.raises(SingularCovarianceError):
            cem.fit_cem(sample)
        res = em.fit_em(sample)
        assert (res.reason, res.iterations) == ("degenerate", 2)
