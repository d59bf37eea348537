import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wntorus import (
    CorrelationSpec,
    FitFailure,
    LatticeConfig,
    NumericalFailureError,
    WnParams,
    conditional_moments,
    e_step,
    fit_em,
    log_likelihood,
    m_step,
    random_correlation,
    sample_wn,
)
from wntorus import circular, em, model
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(ValueError, match="weights must be finite"):
            conditional_moments(np.array([0.0]), np.array([bad, 1.0, 0.0]), LatticeConfig(J=1))


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

    # p=7, J=1: a cut window of 2187 rows, where a block of observations
    # that has no finite top term reduces no candidates
    _CUT_CONFIG = LatticeConfig(1)
    _CUT_START = WnParams(np.zeros(7), 1e-310 * np.eye(7))

    def test_numerical_failure_reported_on_a_cut_window(self):
        sample = np.array([[np.pi] * 7, [4.0] * 7])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_likelihood(sample, self._CUT_START, self._CUT_CONFIG) == -np.inf
            with pytest.raises(NumericalFailureError, match="at iteration 0"):
                fit_em(sample, init=self._CUT_START, config=self._CUT_CONFIG)

    def test_one_observation_without_finite_term_on_a_cut_window(self):
        y = np.full(7, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            density = model.wrapped_log_density(y, self._CUT_START, self._CUT_CONFIG)
            weights = e_step(y, self._CUT_START, self._CUT_CONFIG)
        assert density == -np.inf
        assert weights.shape == (2187,)

    @pytest.mark.parametrize("p", [6, 7])
    def test_no_finite_term_gives_nan_weights_at_every_size(self, p):
        # 729 rows are reduced over every row, 2187 are cut
        start = WnParams(np.zeros(p), 1e-310 * np.eye(p))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weights = e_step(np.full(p, 0.5), start, self._CUT_CONFIG)
        assert weights.shape == (3**p,)
        assert np.isnan(weights).all()

    def test_small_scale_matches_unwrapped_gaussian_mle(self):
        # with negligible wrapping the estimate is the ordinary MLE
        sample, params = make_wn_sample(2, 200, 0.1, seed=21, mu=[3.0, 3.5])
        res = fit_em(sample)
        np.testing.assert_allclose(res.params.mu, np.mean(sample, axis=0), atol=1e-6)
        centered = sample - np.mean(sample, axis=0)
        np.testing.assert_allclose(
            res.params.sigma, centered.T @ centered / len(sample), atol=1e-6
        )

    def test_default_budget_reaches_slow_optimum(self):
        # p=3 at sigma=pi: unaccelerated EM stopped at its 500-iteration
        # budget 2.24 below this optimum, which it reached at iteration 1004
        sample, _ = make_wn_sample(3, 100, np.pi, seed=5)
        res = fit_em(sample)
        assert res.reason == "tol-reached"
        assert res.loglik_trace[-1] == pytest.approx(-542.2252, abs=1e-4)

    def test_last_trace_value_is_the_loglik_at_the_wrapped_fit(self):
        # data about the zero meridian, started on either side of it: the
        # M-step means leave [0, 2pi), and the returned mean is wrapped
        sample, _ = make_wn_sample(2, 50, 0.3, seed=19, mu=[6.25, 0.05])
        init = WnParams([0.001, 6.2], 0.1 * np.eye(2))
        for max_iter in (1, 2, 500):
            res = fit_em(sample, init, max_iter=max_iter)
            assert res.loglik_trace[-1] == log_likelihood(sample, res.params)


def _plain_em(sample, max_iter=500, tol=1e-8):
    """The unaccelerated EM trace from the moment start, written out."""
    y = model._as_sample(sample)
    start = circular.initial_params(y)
    record = model._recentred_pass(y, start.mu, np.linalg.cholesky(start.sigma), LatticeConfig())
    trace = [float(np.sum(record.loglik))]
    for _ in range(max_iter):
        mu, _, L, _ = em._m_step_arrays(record.cond_mean, record.scatter)
        record = model._recentred_pass(y, mu, L, LatticeConfig())
        trace.append(float(np.sum(record.loglik)))
        if abs(trace[-1] - trace[-2]) < tol:
            break
    return trace


class TestAcceleration:
    @staticmethod
    def _count_passes(monkeypatch):
        kernel = model._recentred_pass
        calls = []
        monkeypatch.setattr(model, "_recentred_pass", lambda *a: calls.append(a[1]) or kernel(*a))
        return calls

    @staticmethod
    def _far_extrapolation(monkeypatch):
        """Make every extrapolated point a diffuse one that EM rejects."""
        made = []

        def far(theta0, theta1, theta2):
            sigma = 100.0 * np.eye(theta0[0].shape[0])
            made.append(1)
            return theta0[0], sigma, np.linalg.cholesky(sigma)

        monkeypatch.setattr(em, "_extrapolate", far)
        return made

    def test_rejected_extrapolations_leave_the_em_iterates(self, monkeypatch):
        sample, _ = make_wn_sample(2, 80, 0.7, seed=12)
        want = _plain_em(sample)
        made = self._far_extrapolation(monkeypatch)
        calls = self._count_passes(monkeypatch)
        res = fit_em(sample)
        np.testing.assert_array_equal(res.loglik_trace, want)
        assert res.reason == "tol-reached"
        # the start, every iterate and every rejected point
        assert len(calls) == 1 + res.iterations + len(made)

    def test_budget_counts_rejected_passes(self, monkeypatch):
        sample, _ = make_wn_sample(2, 80, 0.7, seed=12)
        made = self._far_extrapolation(monkeypatch)
        calls = self._count_passes(monkeypatch)
        res = fit_em(sample, max_iter=5, tol=1e-15)
        # theta1, rejected, theta2, theta3, rejected: the budget ends at theta3
        assert (len(calls), len(made), res.iterations) == (6, 2, 3)
        assert res.reason == "max-iter"
        np.testing.assert_array_equal(res.loglik_trace, _plain_em(sample, max_iter=3, tol=1e-15))

    def test_accelerates_a_slow_fit(self, monkeypatch):
        # unaccelerated EM takes 104 iterations here
        sample, _ = make_wn_sample(2, 100, np.pi / 2, seed=7)
        plain = _plain_em(sample)
        calls = self._count_passes(monkeypatch)
        res = fit_em(sample)
        assert res.reason == "tol-reached"
        assert res.loglik_trace[-1] >= plain[-1] - 1e-6
        assert 2 * len(calls) <= len(plain)

    @pytest.mark.parametrize("dip", [0.5, 2.0])
    def test_dip_below_first_map_within_tol_ends_there(self, monkeypatch, dip):
        # The extrapolated point is the first map's own, with its
        # log-likelihood lowered by ``dip`` times ``tol``: within tol the
        # fit ends at the first map, beyond it at the plain second map.
        sample, _ = make_wn_sample(2, 100, np.pi / 2, seed=7)
        tol = 1e-8
        points = []

        def at_first_map(theta0, theta1, theta2):
            points.append(theta1[0].copy())
            return points[-1], theta1[1], np.linalg.cholesky(theta1[1])

        kernel = model._recentred_pass

        def lowered(y, mu, L, config):
            record = kernel(y, mu, L, config)
            if any(mu is point for point in points):
                record = record._replace(loglik=record.loglik - dip * tol / len(y))
            return record

        monkeypatch.setattr(em, "_extrapolate", at_first_map)
        monkeypatch.setattr(model, "_recentred_pass", lowered)
        res, record = em._fit_em(sample, max_iter=3, tol=tol)
        iterations = 1 if dip < 1 else 2
        np.testing.assert_array_equal(res.loglik_trace, _plain_em(sample, iterations, 0.0))
        assert (res.converged, len(points)) == (dip < 1, 1)
        assert res.loglik_trace[-1] == float(np.sum(record.loglik))


def _start_for(kind, sample, rng):
    """A moment, half-turn-and-sign-flipped or random PD start."""
    if kind == "moment":
        return None
    p = sample.shape[1]
    if kind == "random":
        a = rng.normal(size=(p, p))
        return WnParams(rng.uniform(0.0, TWO_PI, p), a @ a.T + 0.05 * np.eye(p))
    start = circular.initial_params(sample)
    flip = np.diag(rng.choice([-1.0, 1.0], size=p))
    mu = circular.wrap_angle(start.mu + np.pi * rng.integers(0, 2, p))
    return WnParams(mu, flip @ start.sigma @ flip)


def _em_map_drops(trace, passes):
    """Whether every fall of more than 1e-8 in ``trace`` is an EM map's:
    some pass at the lower value was made at the M-step image of an
    earlier pass at the higher one.  ``passes`` lists each pass,
    the start's first, as (log-likelihood, record, mu, L), in order."""

    def maps_to(record, mu, L):
        image_mu, _, image_L, _ = em._m_step_arrays(record.cond_mean, record.scatter)
        return np.array_equal(image_mu, mu) and np.array_equal(image_L, L)

    return all(
        ll1 >= ll0 - 1e-8
        or any(
            maps_to(record, mu, L)
            for a, (ll_a, record, _, _) in enumerate(passes)
            if ll_a == ll0
            for ll_b, _, mu, L in passes[a + 1 :]
            if ll_b == ll1
        )
        for ll0, ll1 in zip(trace, trace[1:])
    )


@given(
    p=st.sampled_from([1, 2, 3, 7]),
    scale=st.floats(np.pi / 16, 2 * np.pi),
    cn=st.floats(1.01, 1e4),
    n=st.sampled_from([3, 10, 100]),
    kind=st.sampled_from(["moment", "half-turn", "random"]),
    max_iter=st.integers(1, 500),
    seed=st.integers(0, 2**32 - 1),
)
@settings(deadline=None, max_examples=40)
# p=7, n=100: every pass searched, and every search declined as costlier
@example(p=7, scale=np.pi / 8, cn=20.0, n=100, kind="moment", max_iter=20, seed=1)
@example(p=7, scale=np.pi, cn=20.0, n=100, kind="moment", max_iter=5, seed=1)
def test_accelerated_fit_returns_monotone_or_fails_cleanly(p, scale, cn, n, kind, max_iter, seed):
    # p=7 runs on a J=1 window of 2187 rows, which each pass cuts: at
    # n=100 its blocks are searched or, where the search would cost more,
    # scored; at n <= 10 no search could pay, and none is set up
    config = LatticeConfig(1) if p == 7 else LatticeConfig()
    if p == 7:
        max_iter = min(max_iter, 20)
    rng = np.random.default_rng(seed)
    corr = np.eye(1) if p == 1 else random_correlation(CorrelationSpec(p=p, cn=cn), seed=seed)
    sample = sample_wn(WnParams(rng.uniform(0.0, TWO_PI, p), scale**2 * corr), n, seed=seed)
    kernel = model._recentred_pass
    passes = []

    def logged(y, mu, L, config):
        record = kernel(y, mu, L, config)
        passes.append((float(np.sum(record.loglik)), record, mu, L))
        return record

    with warnings.catch_warnings(), mock.patch.object(model, "_recentred_pass", logged):
        warnings.simplefilter("error")
        try:
            res = fit_em(sample, _start_for(kind, sample, rng), config, max_iter=max_iter)
        except FitFailure:
            return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at_fit = log_likelihood(sample, res.params, config)
    trace = res.loglik_trace
    # The J window truncates the lattice sum about each iterate's own
    # mean, so where it cuts off mass, or the M-step covariance needs a
    # ridge, an EM map can lower the log-likelihood, accelerated or not.
    # Every other step is monotone: an extrapolation is kept only if it
    # is no lower than the EM map it extrapolates from.
    assert np.all(np.diff(trace) >= -1e-8) or _em_map_drops(trace, passes)
    assert res.iterations <= max_iter
    assert len(trace) == res.iterations + 1
    assert trace[-1] == at_fit
