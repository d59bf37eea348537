import numpy as np
import pytest

from wntorus import (
    LatticeConfig,
    MixedParams,
    MixedSample,
    WnParams,
    fit_cem,
    fit_em,
    fit_mixed_cem,
    fit_mixed_em,
    mixed_log_likelihood,
    mvn_logpdf,
    wrap_angle,
)
from wntorus import model
from wntorus.circular import center_to
from wntorus.mixed import _mixed_fit
from wntorus.model import TWO_PI


def make_joint_sample(n, rho, sigma1=0.3, sigma2=1.0, seed=0, mu1=3.0, mu2=-2.0):
    """Euclidean pair (x1, x2) with correlation rho; x1 is then wrapped."""
    gen = np.random.default_rng(seed)
    cov = np.array(
        [[sigma1**2, rho * sigma1 * sigma2], [rho * sigma1 * sigma2, sigma2**2]]
    )
    xy = gen.multivariate_normal([mu1, mu2], cov, size=n)
    sample = MixedSample(wrap_angle(xy[:, :1]), xy[:, 1:])
    return sample, xy


class TestMixedSample:
    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            MixedSample(np.zeros((3, 1)), np.zeros((4, 1)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            MixedSample(np.array([[np.nan]]), np.array([[1.0]]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MixedSample(np.zeros((0, 1)), np.zeros((0, 1)))

    def test_one_dimensional_blocks_are_columns(self):
        sample = MixedSample(np.array([0.1, 0.2, 0.3, 0.25]), np.array([1.0, 2.0, 3.0, 2.5]))
        assert sample.n == 4
        assert sample.torus.shape == (4, 1)
        assert sample.linear.shape == (4, 1)


class TestMixedParams:
    def test_joint_blocks_roundtrip(self):
        params = MixedParams(
            mu_torus=np.array([1.0]),
            mu_linear=np.array([0.0, 2.0]),
            cov_torus=np.array([[0.5]]),
            cov_cross=np.array([[0.1, 0.0]]),
            cov_linear=np.eye(2),
        )
        joint = params.joint_cov()
        assert joint.shape == (3, 3)
        np.testing.assert_array_equal(joint, joint.T)
        np.testing.assert_array_equal(params.joint_mu(), [1.0, 0.0, 2.0])

    def test_indefinite_joint_rejected(self):
        with pytest.raises(Exception):
            MixedParams(
                mu_torus=np.array([0.0]),
                mu_linear=np.array([0.0]),
                cov_torus=np.array([[1.0]]),
                cov_cross=np.array([[2.0]]),
                cov_linear=np.array([[1.0]]),
            )


class TestFitPaths:
    def test_independent_blocks_give_small_cross_term(self):
        sample, _ = make_joint_sample(500, rho=0.0, seed=70)
        for fit in (fit_mixed_cem, fit_mixed_em):
            params = fit(sample).params
            bound = 0.1 * np.sqrt(
                params.cov_torus.max() * params.cov_linear.max()
            )
            assert np.abs(params.cov_cross).max() < bound

    def test_perfect_dependence_recovered(self):
        gen = np.random.default_rng(71)
        x1 = gen.normal(3.0, 0.25, size=(400, 1))
        sample = MixedSample(wrap_angle(x1), x1.copy())
        for fit in (fit_mixed_cem, fit_mixed_em):
            params = fit(sample).params
            np.testing.assert_allclose(
                params.cov_cross, params.cov_torus, rtol=0.05
            )

    def test_wrap_inactive_case_reduces_to_bivariate_mle(self):
        sample, xy = make_joint_sample(300, rho=0.6, seed=72)
        res = fit_mixed_cem(sample)
        assert np.all(res.torus_result.coefficients == 0)
        x1c = center_to(sample.torus, res.params.mu_torus)
        stack = np.hstack([x1c, sample.linear])
        mean = stack.mean(axis=0)
        dev = stack - mean
        mle_cov = dev.T @ dev / len(stack)
        np.testing.assert_allclose(res.params.joint_cov(), mle_cov, atol=1e-6)
        np.testing.assert_allclose(
            wrap_angle(mean[0]), res.params.mu_torus[0], atol=1e-6
        )
        np.testing.assert_allclose(mean[1:], res.params.mu_linear, atol=1e-12)

    def test_linear_marginals_depend_only_on_linear_block(self):
        sample, _ = make_joint_sample(200, rho=0.5, seed=73)
        perm = np.random.default_rng(0).permutation(200)
        shuffled = MixedSample(sample.torus[perm], sample.linear)
        for fit in (fit_mixed_em, fit_mixed_cem):
            a = fit(sample).params
            b = fit(shuffled).params
            np.testing.assert_allclose(a.mu_linear, b.mu_linear, atol=1e-12)
            np.testing.assert_allclose(a.cov_linear, b.cov_linear, atol=1e-12)

    def test_linear_covariance_is_population_moment(self):
        sample, _ = make_joint_sample(150, rho=0.4, seed=74)
        params = fit_mixed_em(sample).params
        d2 = sample.linear - sample.linear.mean(axis=0)
        np.testing.assert_allclose(
            params.cov_linear, d2.T @ d2 / 150, atol=1e-12
        )
        np.testing.assert_allclose(
            params.mu_linear, sample.linear.mean(axis=0), atol=1e-12
        )

    def test_torus_block_taken_from_torus_only_fit(self):
        sample, _ = make_joint_sample(120, rho=0.5, seed=75)
        cem_only = fit_cem(sample.torus)
        em_only = fit_em(sample.torus)
        a = fit_mixed_cem(sample).params
        b = fit_mixed_em(sample).params
        np.testing.assert_array_equal(a.cov_torus, cem_only.params.sigma)
        np.testing.assert_array_equal(a.mu_torus, cem_only.params.mu)
        np.testing.assert_array_equal(b.cov_torus, em_only.params.sigma)
        np.testing.assert_array_equal(b.mu_torus, em_only.params.mu)

    @pytest.mark.parametrize("init_mu", [None, [0.001]])
    def test_em_path_reuses_the_last_pass(self, monkeypatch, init_mu):
        # Data just below 2*pi: started just above 0, the unwrapped EM mean
        # is negative, and the last pass differs from the returned fit by
        # a whole turn of the mean.
        sample, _ = make_joint_sample(150, rho=0.6, sigma1=0.5, seed=77, mu1=6.23)
        init = None if init_mu is None else WnParams(init_mu, [[0.25]])
        kernel = model._recentred_pass
        calls = []
        monkeypatch.setattr(model, "_recentred_pass", lambda *a: calls.append(1) or kernel(*a))
        res = fit_mixed_em(sample, init, max_iter=2, tol=1e-15)
        assert res.torus_result.iterations == 2
        assert len(calls) == 3
        record = model._per_observation_loglik(sample.torus, res.torus_result.params, LatticeConfig())
        want = _mixed_fit(res.torus_result, record.cond_mean, sample.linear).params
        got = res.params
        np.testing.assert_allclose(got.joint_mu(), want.joint_mu(), rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.joint_cov(), want.joint_cov(), rtol=0, atol=1e-12)

    def test_paths_coincide_when_wrapping_inactive(self):
        sample, _ = make_joint_sample(400, rho=0.3, sigma1=0.2, seed=76)
        a = fit_mixed_cem(sample).params
        b = fit_mixed_em(sample).params
        np.testing.assert_allclose(a.joint_mu(), b.joint_mu(), atol=1e-6)
        np.testing.assert_allclose(a.joint_cov(), b.joint_cov(), atol=1e-6)

    def test_pd_repair_flagged_and_warned(self):
        # a linear block that exactly copies the reconstructed angles
        # makes the assembled joint covariance singular
        gen = np.random.default_rng(77)
        x1 = gen.normal(3.0, 0.2, size=(60, 1))
        sample = MixedSample(wrap_angle(x1), wrap_angle(x1).copy())
        with pytest.warns(RuntimeWarning):
            res = fit_mixed_cem(sample)
        assert res.params.repaired
        assert np.linalg.eigvalsh(res.params.joint_cov()).min() > 0.0


class TestMixedLogLikelihood:
    def test_matches_joint_normal_when_wrap_inactive(self):
        sample, _ = make_joint_sample(100, rho=0.5, seed=78)
        res = fit_mixed_em(sample)
        got = mixed_log_likelihood(sample, res.params)
        joint = WnParams(
            np.concatenate(
                [res.params.mu_torus, res.params.mu_linear]
            ),
            res.params.joint_cov(),
        )
        stack = np.hstack(
            [center_to(sample.torus, res.params.mu_torus), sample.linear]
        )
        want = float(np.sum(mvn_logpdf(stack, joint)))
        assert got == pytest.approx(want, abs=1e-8)

    def test_torus_shift_invariance(self):
        sample, _ = make_joint_sample(50, rho=0.2, seed=79)
        res = fit_mixed_cem(sample)
        base = mixed_log_likelihood(sample, res.params)
        shifted = MixedSample(sample.torus + TWO_PI, sample.linear)
        assert mixed_log_likelihood(shifted, res.params) == pytest.approx(
            base, abs=1e-9
        )

    def test_dimension_validation(self):
        sample, _ = make_joint_sample(20, rho=0.2, seed=80)
        params = MixedParams(
            mu_torus=np.array([1.0, 2.0]),
            mu_linear=np.array([0.0]),
            cov_torus=np.eye(2),
            cov_cross=np.zeros((2, 1)),
            cov_linear=np.eye(1),
        )
        with pytest.raises(ValueError):
            mixed_log_likelihood(sample, params)
        with pytest.raises(TypeError):
            mixed_log_likelihood(sample.torus, params)