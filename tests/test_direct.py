import warnings

import numpy as np
import pytest

from wntorus import (
    CorrelationSpec,
    DimensionGuardError,
    LatticeConfig,
    WnParams,
    direct,
    fit_direct,
    fit_em,
    initial_params,
    log_likelihood,
    model,
    objective,
    random_correlation,
    sample_wn,
    scale_to_covariance,
    to_log_cholesky,
)
from wntorus.model import TWO_PI

from . import oracles
from .conftest import make_wn_sample


class TestObjective:
    def test_is_negated_log_likelihood(self):
        sample, params = make_wn_sample(2, 25, 0.7, seed=50)
        theta = to_log_cholesky(params)
        assert objective(theta, sample, LatticeConfig())[0] == pytest.approx(
            -log_likelihood(sample, params), rel=1e-14
        )

    def test_truth_beats_distant_point(self):
        sample, params = make_wn_sample(2, 100, 0.4, seed=51)
        near = objective(to_log_cholesky(params), sample, LatticeConfig())[0]
        far_params = WnParams(
            (params.mu + np.pi) % TWO_PI, 25.0 * np.eye(2)
        )
        far = objective(to_log_cholesky(far_params), sample, LatticeConfig())[0]
        assert near < far

    def test_full_turn_mean_shift_leaves_value_unchanged(self):
        sample, params = make_wn_sample(2, 40, 0.6, seed=52)
        theta = to_log_cholesky(params)
        shifted = theta.copy()
        shifted[:2] += TWO_PI * np.array([1.0, -2.0])
        a = objective(theta, sample, LatticeConfig())[0]
        b = objective(shifted, sample, LatticeConfig())[0]
        assert b == pytest.approx(a, abs=1e-10)

    def test_finite_for_extreme_log_diagonal(self):
        sample, params = make_wn_sample(1, 10, 0.5, seed=53)
        theta = to_log_cholesky(params)
        for t in (-20.0, -5.0, 5.0):
            bent = theta.copy()
            bent[1] += t
            assert np.isfinite(objective(bent, sample, LatticeConfig())[0])

    def test_finite_where_the_covariance_overflows(self):
        # a diagonal of e^400 in R is finite, R'R is not; p=4, J=3 is a
        # window that the pass may narrow
        sample, params = make_wn_sample(4, 10, 0.5, seed=53)
        theta = to_log_cholesky(params)
        theta[4 + np.array([0, 4, 7, 9])] = 400.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(objective(theta, sample, LatticeConfig())[0])

    def test_overflowing_log_diagonal_is_infinite(self):
        sample, params = make_wn_sample(2, 10, 0.5, seed=53)
        theta = to_log_cholesky(params)
        theta[2] = 800.0  # exp overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, grad = objective(theta, sample, LatticeConfig())
        assert value == np.inf
        np.testing.assert_array_equal(grad, np.zeros(theta.shape))

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("sigma", [np.pi / 4, 3 * np.pi / 2])
    def test_score_matches_central_differences(self, p, sigma):
        sample, params = make_wn_sample(p, 60, sigma, seed=70 + p)
        rng = np.random.default_rng(p)
        theta = to_log_cholesky(params)
        theta += 0.1 * rng.standard_normal(theta.shape)
        _, grad = objective(theta, sample, LatticeConfig())
        h = 1e-5
        numeric = np.empty(theta.shape)
        for k in range(theta.size):
            step = np.zeros(theta.shape)
            step[k] = h
            up = objective(theta + step, sample, LatticeConfig())[0]
            down = objective(theta - step, sample, LatticeConfig())[0]
            numeric[k] = (up - down) / (2 * h)
        assert np.max(np.abs(grad - numeric)) <= 1e-4 * np.max(np.abs(numeric))


class TestInverseFisher:
    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_observed_information_at_normal_mle(self, p):
        # With J=0 the model is the normal one, and at its MLE (the sample
        # mean and the divisor-n covariance of a sample far from the
        # cut) observed and expected information agree.
        sample, _ = make_wn_sample(p, 100, 0.3, seed=80 + p, mu=np.full(p, np.pi))
        mean = sample.mean(axis=0)
        dev = sample - mean
        theta = to_log_cholesky(WnParams(mean, dev.T @ dev / len(sample)))
        config = LatticeConfig(0)
        h = 1e-5
        hessian = np.empty((theta.size, theta.size))
        for k in range(theta.size):
            step = np.zeros(theta.shape)
            step[k] = h
            up = objective(theta + step, sample, config)[1]
            down = objective(theta - step, sample, config)[1]
            hessian[k] = (up - down) / (2 * h)
        expected = np.linalg.inv(0.5 * (hessian + hessian.T))
        got = direct._inverse_fisher(theta, len(sample), p)
        assert np.max(np.abs(got - expected)) <= 1e-5 * np.max(np.abs(expected))


class TestFitDirect:
    def test_rejects_empty_budget(self):
        sample, _ = make_wn_sample(1, 20, 0.5, seed=55)
        with pytest.raises(ValueError):
            fit_direct(sample, max_iter=0)

    def test_never_worse_than_init(self):
        sample, _ = make_wn_sample(1, 100, np.pi / 4, seed=54)
        start = initial_params(sample)
        res = fit_direct(sample, init=start)
        assert res.loglik_trace[-1] >= log_likelihood(sample, start) - 1e-9
        assert res.loglik_trace[0] == pytest.approx(
            log_likelihood(sample, start), rel=1e-12
        )

    def test_exhausted_budget_returns_best_seen(self):
        sample, _ = make_wn_sample(1, 50, 0.5, seed=55)
        start = initial_params(sample)
        res = fit_direct(sample, init=start, max_iter=1)
        assert not res.converged
        assert res.reason == "max-iter"
        assert res.iterations == 1
        np.testing.assert_allclose(res.params.mu, start.mu, atol=1e-12)
        np.testing.assert_allclose(res.params.sigma, start.sigma, atol=1e-12)

    def test_budget_cut_mid_search_returns_best_seen(self, monkeypatch):
        # Seven evaluations: the start and six search points, of which
        # the last is a line-search trial worse than the one before, so
        # neither the start nor the last point is the best seen.
        seen = []
        evaluate = direct.objective

        def spy(theta, sample, config):
            value = evaluate(theta, sample, config)
            seen.append(value[0])
            return value

        monkeypatch.setattr(direct, "objective", spy)
        sample, _ = make_wn_sample(2, 100, np.pi / 2, seed=69)
        res = fit_direct(sample, max_iter=7)
        assert res.reason == "max-iter"
        assert res.iterations == 7
        assert len(seen) == 7
        assert min(seen) < min(seen[0], seen[-1])
        assert res.loglik_trace[-1] == pytest.approx(-min(seen), rel=1e-12)

    def test_one_lattice_pass_per_evaluation(self, monkeypatch):
        # the reported log-likelihood is the best evaluation's, not a
        # further pass at the wrapped best point
        kernel = model._recentred_pass
        calls = []
        monkeypatch.setattr(
            model, "_recentred_pass", lambda *a: calls.append(1) or kernel(*a)
        )
        sample, _ = make_wn_sample(2, 100, np.pi / 2, seed=58)
        res = fit_direct(sample)
        assert len(calls) == res.iterations
        assert res.loglik_trace[-1] == pytest.approx(
            log_likelihood(sample, res.params), rel=1e-12
        )

    def test_stall_before_budget_is_not_max_iter(self, monkeypatch):
        # A line search that gives up after three trials, at 4, 8 and 16
        # times the first step.  Each overshoots the optimum and none
        # raises the log-likelihood, so the run is not restarted and
        # stalls four evaluations into the budget.
        def failing_search(phi, f0, d0, stp):
            for k in range(2, 5):
                phi(stp * 2**k)
            return None

        monkeypatch.setattr(direct, "_line_search", failing_search)
        sample, _ = make_wn_sample(2, 100, np.pi / 2, seed=58)
        max_evals = 5000
        res = fit_direct(sample, max_iter=max_evals)
        assert res.reason == "stalled"
        assert not res.converged
        assert res.iterations == 4 < max_evals

    def test_matches_em_optimum_bivariate(self):
        sample, _ = make_wn_sample(2, 100, np.pi / 4, seed=56)
        em = fit_em(sample)
        dm = fit_direct(sample)
        assert dm.converged
        assert dm.loglik_trace[-1] == pytest.approx(em.loglik_trace[-1], abs=1e-3)

    def test_fisher_start_converges_in_few_evaluations(self):
        # from the identity, BFGS spent 17 evaluations on this sample
        sample, _ = make_wn_sample(2, 100, np.pi / 4, seed=56)
        res = fit_direct(sample)
        assert res.converged
        assert res.iterations <= 10
        assert res.loglik_trace[-1] == pytest.approx(fit_em(sample).loglik_trace[-1], abs=1e-9)

    def test_ill_conditioned_small_scale_converges(self):
        # correlation -19/21 at sigma = pi/8: the fit once stopped on
        # precision loss just above GTOL
        sample, _ = make_wn_sample(2, 100, np.pi / 8, seed=1)
        res = fit_direct(sample)
        assert res.reason == "tol-reached"
        assert res.loglik_trace[-1] == pytest.approx(fit_em(sample).loglik_trace[-1], abs=1e-9)

    def test_far_start_reaches_em_optimum(self):
        # From a scale 4000 times too small, the first BFGS runs stop
        # on failed line searches well short of the optimum; restarts
        # from their best points finish the climb.
        sample = sample_wn(WnParams(np.ones(2), 0.16 * np.eye(2)), 500, seed=1)
        start = WnParams(np.ones(2), 1e-8 * np.eye(2))
        res = fit_direct(sample, init=start)
        em = fit_em(sample)
        assert res.converged
        assert res.loglik_trace[-1] == pytest.approx(em.loglik_trace[-1], abs=1e-6)

    def test_start_without_score_stalls(self):
        # At a covariance of 1e-200 the score overflows, so there is no
        # gradient to follow; the log-likelihood there is finite.
        sample, _ = make_wn_sample(2, 100, 0.4, seed=64)
        start = WnParams(np.ones(2), 1e-200 * np.eye(2))
        res = fit_direct(sample, init=start)
        assert res.reason == "stalled"
        assert not res.converged
        assert res.iterations == 1
        assert np.isfinite(res.loglik_trace[0])
        assert res.loglik_trace[0] == pytest.approx(
            log_likelihood(sample, start), rel=1e-12
        )

    def test_start_without_finite_value_stalls_silently(self):
        # at 1e-310 * I the log-likelihood is -inf, and the Fisher start
        # estimate there overflows
        sample, _ = make_wn_sample(2, 100, 0.4, seed=64)
        start = WnParams(np.ones(2), 1e-310 * np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit_direct(sample, init=start)
        assert res.reason == "stalled"
        assert res.iterations == 1
        assert res.loglik_trace[-1] == -np.inf

    def test_overflowing_slope_stays_silent(self):
        # a runner replicate (p=3, cn=20, sigma=pi) started half a turn
        # away on every axis with the correlations of axes 1 and 2
        # flipped: a line search's slope along a long step overflows
        rng = np.random.default_rng(np.random.SeedSequence([11, 0, 6]))
        corr = random_correlation(CorrelationSpec(3, 20.0), rng)
        truth = WnParams(np.zeros(3), scale_to_covariance(corr, np.pi))
        sample = sample_wn(truth, 100, rng)
        moment = initial_params(sample)
        flip = np.diag([1.0, -1.0, -1.0])
        start = WnParams(moment.mu + np.pi, flip @ moment.sigma @ flip)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit_direct(sample, init=start, config=LatticeConfig(3))
        assert res.reason == "tol-reached"
        assert res.iterations == 270

    def test_matches_grid_oracle_univariate(self):
        sample, _ = make_wn_sample(1, 100, np.pi / 4, seed=57)
        res = fit_direct(sample)
        gm, gs, _ = oracles.grid_mle_1d(sample[:, 0])
        assert 1.0 - np.cos(res.params.mu[0] - gm) < 1e-3
        assert abs(np.sqrt(res.params.sigma[0, 0]) - gs) < 2e-3

    def test_dimension_guard(self):
        sample, _ = make_wn_sample(7, 20, 0.3, seed=59)
        with pytest.raises(DimensionGuardError) as exc:
            fit_direct(sample, config=LatticeConfig(J=1))
        assert "6" in str(exc.value)

    def test_dimension_guard_runs_before_the_start(self):
        sample, _ = make_wn_sample(7, 20, 0.3, seed=59)
        sample[:, 0] = 1.0  # a constant column has no moment start
        with pytest.raises(DimensionGuardError):
            fit_direct(sample)

    def test_iterations_count_objective_evaluations(self):
        sample, _ = make_wn_sample(1, 30, 0.4, seed=61)
        res = fit_direct(sample, max_iter=40)
        assert 0 < res.iterations <= 40

    def test_moderate_dimension_within_envelope(self):
        import time

        sample, _ = make_wn_sample(5, 100, 0.4, seed=62)
        t0 = time.time()
        res = fit_direct(
            sample,
            config=LatticeConfig(J=2),
            max_iter=400,
        )
        assert time.time() - t0 < 120.0
        assert np.isfinite(res.loglik_trace[-1])

    def test_deterministic(self):
        sample, _ = make_wn_sample(2, 60, 0.5, seed=63)
        a = fit_direct(sample)
        b = fit_direct(sample)
        np.testing.assert_array_equal(a.params.mu, b.params.mu)
        np.testing.assert_array_equal(a.params.sigma, b.params.sigma)
        assert a.iterations == b.iterations
