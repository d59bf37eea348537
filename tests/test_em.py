import numpy as np
import pytest

from wntorus import (
    LatticeConfig,
    NumericalFailureError,
    WnParams,
    conditional_moments,
    e_step,
    fit_em,
    log_likelihood,
    m_step,
)
from wntorus.em import ConditionalMoments
from wntorus.model import TWO_PI, lattice_rows

from . import oracles
from .conftest import make_wn_sample, quantize_angles


class TestEStep:
    def test_weights_simplex(self):
        sample, params = make_wn_sample(2, 30, 0.8, seed=1)
        for row in sample:
            w = e_step(row, params)
            assert w.shape == (7**2,)
            assert np.all(w >= 0.0)
            assert np.sum(w) == pytest.approx(1.0, abs=1e-12)

    def test_tiny_scale_concentrates_on_nearest_row(self):
        params = WnParams(np.array([1.0]), np.array([[(np.pi / 64) ** 2]]))
        w = e_step(params.mu, params)
        rows = lattice_rows(LatticeConfig(), 1)
        center = int(np.flatnonzero((rows == 0).all(axis=1))[0])
        assert w[center] > 1.0 - 1e-10
        assert np.all(np.delete(w, center) < 1e-10)

    def test_symmetric_weights_at_diffuse_scale(self):
        # observation exactly at the mean, scale pi, J = 1: the posterior
        # over the offsets (-1, 0, 1) is symmetric under negation
        params = WnParams(np.array([0.0]), np.array([[np.pi**2]]))
        w = e_step(np.array([0.0]), params, LatticeConfig(J=1))
        assert w.shape == (3,)
        assert w[0] == pytest.approx(w[2], abs=1e-14)

    def test_weight_ratios_match_dense_oracle(self):
        sample, params = make_wn_sample(2, 5, 1.0, seed=2)
        rows = lattice_rows(LatticeConfig(), 2)
        from wntorus.circular import center_to

        for i in range(5):
            w = e_step(sample[i], params)
            base = center_to(sample[i], params.mu)
            dense = np.array(
                [
                    oracles.mvn_logpdf_dense(
                        base + TWO_PI * row, params.mu, params.sigma
                    )
                    for row in rows
                ]
            )
            dense = np.exp(dense - dense.max())
            dense /= dense.sum()
            np.testing.assert_allclose(w, dense, atol=1e-12)


class TestConditionalMoments:
    def test_point_mass_weight(self):
        y = np.array([1.0, 2.0])
        w = np.zeros(9)
        w[4] = 1.0  # row (0, 0) in the J=1 window
        mom = conditional_moments(y, w, LatticeConfig(J=1))
        np.testing.assert_allclose(mom.mean, y, atol=1e-15)
        np.testing.assert_allclose(mom.cov, 0.0, atol=1e-15)

    def test_two_point_split(self):
        # half the mass on offset 0, half on offset +1 turn: mean sits at
        # pi with spread pi^2
        mom = conditional_moments(
            np.array([0.0]), np.array([0.0, 0.5, 0.5]), LatticeConfig(J=1)
        )
        assert mom.mean[0] == pytest.approx(np.pi, rel=1e-14)
        assert mom.cov[0, 0] == pytest.approx(np.pi**2, rel=1e-14)

    def test_matches_loop_oracle(self, rng):
        for _ in range(4):
            y = rng.uniform(0, TWO_PI, size=2)
            w = rng.dirichlet(np.ones(49))
            mom = conditional_moments(y, w, LatticeConfig(J=3))
            mean, cov = oracles.weighted_moments_loop(y, w, J=3)
            np.testing.assert_allclose(mom.mean, mean, atol=1e-12)
            np.testing.assert_allclose(mom.cov, cov, atol=1e-12)

    def test_cov_positive_semidefinite(self, rng):
        for _ in range(6):
            y = rng.uniform(0, TWO_PI, size=2)
            w = rng.dirichlet(np.ones(9))
            mom = conditional_moments(y, w, LatticeConfig(J=1))
            assert np.linalg.eigvalsh(mom.cov).min() > -1e-10

    def test_weights_validated(self):
        y = np.array([0.0])
        with pytest.raises(ValueError):
            conditional_moments(y, np.array([0.5, 0.6, 0.2]), LatticeConfig(J=1))
        with pytest.raises(ValueError):
            conditional_moments(y, np.array([-0.1, 0.9, 0.2]), LatticeConfig(J=1))


class TestMStep:
    def test_two_observation_example(self):
        mom = [
            ConditionalMoments(np.array([0.0]), np.array([[0.0]])),
            ConditionalMoments(np.array([2.0]), np.array([[0.0]])),
        ]
        params = m_step(mom)
        assert params.mu[0] == pytest.approx(1.0)
        assert params.sigma[0, 0] == pytest.approx(1.0)

    def test_mean_reported_on_principal_range(self):
        mom = [
            ConditionalMoments(np.array([TWO_PI + 1.0]), np.array([[0.5]])),
            ConditionalMoments(np.array([TWO_PI + 1.2]), np.array([[0.5]])),
        ]
        params = m_step(mom)
        assert 0.0 <= params.mu[0] < TWO_PI
        assert params.mu[0] == pytest.approx(1.1)

    def test_variance_decomposition_identity(self, rng):
        # average within-spread plus between-spread of the conditional
        # means equals the spread of the pooled weighted point cloud
        y = rng.uniform(0, TWO_PI, size=(8, 2))
        w = rng.dirichlet(np.ones(9), size=8)
        config = LatticeConfig(J=1)
        mom = [conditional_moments(y[i], w[i], config) for i in range(8)]
        params = m_step(mom)

        rows = lattice_rows(config, 2)
        points = y[:, None, :] + TWO_PI * rows[None, :, :]  # (n, m, p)
        flat_w = (w / len(y)).ravel()
        flat_pts = points.reshape(-1, 2)
        pooled_mean = flat_w @ flat_pts
        dev = flat_pts - pooled_mean
        pooled_cov = (flat_w[:, None] * dev).T @ dev
        np.testing.assert_allclose(params.sigma, pooled_cov, atol=1e-10)
        np.testing.assert_allclose(
            params.mu, pooled_mean % TWO_PI, atol=1e-10
        )


class TestFitEm:
    def test_monotone_trace_and_convergence(self):
        sample, _ = make_wn_sample(2, 80, 0.7, seed=12)
        res = fit_em(sample)
        assert res.converged
        assert res.reason == "tol-reached"
        diffs = np.diff(res.loglik_trace)
        assert np.all(diffs >= -1e-8)
        assert res.loglik_trace[-1] == log_likelihood(sample, res.params)
        assert len(res.loglik_trace) == res.iterations + 1

    def test_trace_starts_at_init(self):
        sample, params = make_wn_sample(1, 40, 0.5, seed=13)
        res = fit_em(sample, init=params)
        assert res.loglik_trace[0] == log_likelihood(sample, params)

    def test_deterministic(self):
        sample, _ = make_wn_sample(2, 50, 0.6, seed=14)
        a = fit_em(sample)
        b = fit_em(sample)
        np.testing.assert_array_equal(a.params.mu, b.params.mu)
        np.testing.assert_array_equal(a.params.sigma, b.params.sigma)
        np.testing.assert_array_equal(a.loglik_trace, b.loglik_trace)

    def test_full_turn_shift_equivariance(self):
        sample, params = make_wn_sample(2, 60, 0.5, seed=15)
        sample = quantize_angles(sample)
        shift = TWO_PI * np.array([1.0, -2.0])
        a = fit_em(sample, init=params)
        b = fit_em(sample + shift, init=params)
        np.testing.assert_array_equal(a.params.mu, b.params.mu)
        np.testing.assert_array_equal(a.params.sigma, b.params.sigma)

    def test_single_observation_degenerates(self):
        res = fit_em(np.array([[1.0, 2.0]]), init=WnParams(np.ones(2), np.eye(2)))
        assert res.reason == "degenerate"
        assert res.converged
        assert np.all(np.diag(res.params.sigma) < 1e-8)

    def test_iteration_budget_respected(self):
        sample, _ = make_wn_sample(2, 80, 1.2, seed=16)
        res = fit_em(sample, max_iter=3, tol=1e-15)
        assert res.iterations == 3
        assert res.reason == "max-iter"
        assert not res.converged

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_non_finite_tol_rejected(self, tol):
        sample, _ = make_wn_sample(2, 20, 0.5, seed=16)
        with pytest.raises(ValueError, match="tol"):
            fit_em(sample, tol=tol)

    def test_accepts_flat_vector(self):
        sample, _ = make_wn_sample(1, 30, 0.3, seed=19)
        res = fit_em(sample[:, 0])
        assert res.params.p == 1

    def test_improves_on_moment_start(self):
        sample, _ = make_wn_sample(3, 50, 0.9, seed=20)
        from wntorus import initial_params

        start = initial_params(sample)
        res = fit_em(sample)
        assert res.loglik_trace[-1] >= log_likelihood(sample, start) - 1e-9

    def test_numerical_failure_reported_with_iteration(self):
        # a start so concentrated that the squared deviations overflow,
        # sending every lattice term to -inf
        sample = np.array([[0.0], [np.pi], [4.0]])
        bad = WnParams(np.array([1.0]), np.array([[1e-310]]))
        with pytest.raises(NumericalFailureError) as exc:
            fit_em(sample, init=bad)
        assert "iteration" in str(exc.value).lower()

    def test_small_scale_matches_unwrapped_gaussian_mle(self):
        # with negligible wrapping the estimate is the ordinary MLE
        sample, params = make_wn_sample(2, 200, 0.1, seed=21, mu=[3.0, 3.5])
        res = fit_em(sample)
        np.testing.assert_allclose(res.params.mu, np.mean(sample, axis=0), atol=1e-6)
        centered = sample - np.mean(sample, axis=0)
        np.testing.assert_allclose(
            res.params.sigma, centered.T @ centered / len(sample), atol=1e-6
        )
