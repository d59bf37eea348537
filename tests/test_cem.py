import numpy as np
import pytest

from wntorus import (
    DegenerateStatisticError,
    LatticeConfig,
    WnParams,
    cem_m_step,
    classify,
    e_step,
    fit_cem,
    fit_em,
    from_log_cholesky,
    to_log_cholesky,
    wrap_angle,
)
from wntorus import circular, model
from wntorus.circular import center_to
from wntorus.model import TWO_PI, lattice_rows, mvn_logpdf

from .conftest import make_wn_sample, quantize_angles


def classification_loglik(sample, params, coeffs):
    """Gaussian log-likelihood of the reconstructed points."""
    x = center_to(sample, params.mu) + TWO_PI * coeffs
    return float(np.sum(mvn_logpdf(x, params)))


class TestClassify:
    def test_point_mass(self):
        w = np.zeros(9)
        w[4] = 1.0
        np.testing.assert_array_equal(classify(w, LatticeConfig(J=1)), [0, 0])

    def test_tie_breaks_to_lexicographically_smallest(self):
        w = np.array([0.4, 0.2, 0.4])  # window rows (-1), (0), (1)
        np.testing.assert_array_equal(classify(w, LatticeConfig(J=1)), [-1])

    def test_central_row_wins_at_small_scale(self):
        params = WnParams(np.array([2.0, 3.0]), 0.01 * np.eye(2))
        w = e_step(params.mu, params)
        np.testing.assert_array_equal(classify(w), [0, 0])

    def test_rows_within_window(self, rng):
        for w in rng.dirichlet(np.ones(27), size=10):
            row = classify(w, LatticeConfig(J=1))
            assert row.shape == (3,)
            assert np.all(np.abs(row) <= 1)

    def test_weight_count_validated(self):
        with pytest.raises(ValueError):
            classify(np.ones(8) / 8, LatticeConfig(J=1))


class TestCemMStep:
    def test_zero_coefficients_reduce_to_normal_mle(self, rng):
        sample = rng.normal(3.0, 0.2, size=(40, 2)) % TWO_PI
        coeffs = np.zeros((40, 2), dtype=int)
        params = cem_m_step(sample, coeffs)
        np.testing.assert_allclose(params.mu, sample.mean(axis=0), atol=1e-12)
        dev = sample - sample.mean(axis=0)
        np.testing.assert_allclose(params.sigma, dev.T @ dev / 40, atol=1e-12)

    def test_constant_coefficient_shift_is_absorbed(self, rng):
        sample = rng.normal(3.0, 0.3, size=(30, 2)) % TWO_PI
        coeffs = rng.integers(-1, 2, size=(30, 2))
        base = cem_m_step(sample, coeffs)
        shifted = cem_m_step(sample, coeffs + np.array([2, -1]))
        np.testing.assert_allclose(shifted.mu, base.mu, atol=1e-10)
        np.testing.assert_allclose(shifted.sigma, base.sigma, atol=1e-10)

    def test_grid_verification_small_instance(self, rng):
        # the closed-form update must beat every point of a coarse grid
        # spanning all five free parameters around it
        sample = rng.uniform(0, TWO_PI, size=(5, 2))
        coeffs = rng.integers(-1, 2, size=(5, 2))
        fitted = cem_m_step(sample, coeffs)

        x = sample + TWO_PI * coeffs  # the points the update fits
        mu_star = x.mean(axis=0)
        np.testing.assert_allclose(wrap_angle(mu_star), fitted.mu, atol=1e-12)
        best = float(np.sum(mvn_logpdf(x, WnParams(mu_star, fitted.sigma))))

        theta0 = to_log_cholesky(WnParams(mu_star, fitted.sigma))
        deltas = (-0.3, -0.15, 0.0, 0.15, 0.3)
        grid_best = -np.inf
        for offset in np.stack(
            np.meshgrid(*([np.array(deltas)] * 5), indexing="ij"), axis=-1
        ).reshape(-1, 5):
            cand = from_log_cholesky(theta0 + offset, 2)
            val = float(np.sum(mvn_logpdf(x, cand)))
            grid_best = max(grid_best, val)
        assert best >= grid_best - 1e-9

    def test_too_few_observations(self):
        with pytest.raises(DegenerateStatisticError):
            cem_m_step(np.array([[1.0, 2.0]]), np.zeros((1, 2), dtype=int))

    def test_zero_variance_column(self):
        sample = np.column_stack([np.full(10, 1.5), np.linspace(0.1, 1.0, 10)])
        with pytest.raises(DegenerateStatisticError):
            cem_m_step(sample, np.zeros((10, 2), dtype=int))


class TestFitCem:
    def test_small_scale_matches_normal_mle(self):
        sample, _ = make_wn_sample(
            2, 200, np.pi / 8, seed=30, mu=[np.pi, np.pi]
        )
        res = fit_cem(sample)
        assert res.converged
        np.testing.assert_array_equal(res.coefficients, 0)
        centered = center_to(sample, res.params.mu)
        np.testing.assert_allclose(res.params.mu, centered.mean(axis=0), atol=1e-6)
        dev = centered - centered.mean(axis=0)
        np.testing.assert_allclose(res.params.sigma, dev.T @ dev / 200, atol=1e-6)

    def test_reconstruction_bitwise_on_quantized_sample(self):
        sample, params = make_wn_sample(2, 150, 1.5, seed=31)
        sample = wrap_angle(quantize_angles(sample))
        res = fit_cem(sample)
        np.testing.assert_array_equal(wrap_angle(res.unwrapped), sample)
        np.testing.assert_array_equal(
            res.unwrapped,
            center_to(sample, res.params.mu) + TWO_PI * res.coefficients,
        )

    def test_reconstruction_close_on_arbitrary_sample(self):
        sample, _ = make_wn_sample(3, 100, 1.0, seed=32)
        res = fit_cem(sample)
        np.testing.assert_allclose(wrap_angle(res.unwrapped), sample, atol=1e-10)

    def test_coefficients_within_window(self):
        sample, _ = make_wn_sample(2, 120, 2.0, seed=33)
        res = fit_cem(sample)
        assert np.all(np.abs(res.coefficients) <= 3)
        assert res.coefficients.dtype.kind == "i"

    def test_classification_trace_non_decreasing(self):
        for seed in range(34, 40):
            sample, _ = make_wn_sample(2, 70, 1.8, seed=seed)
            res = fit_cem(sample)
            assert np.all(np.diff(res.loglik_trace) >= -1e-8), seed

    def test_trace_last_matches_returned_state(self):
        sample, _ = make_wn_sample(2, 90, 1.0, seed=41)
        res = fit_cem(sample)
        want = classification_loglik(sample, res.params, res.coefficients)
        assert res.loglik_trace[-1] == pytest.approx(want, abs=1e-9)

    def test_estimate_not_worse_than_init(self):
        # large-scale univariate case: the classification objective at the
        # returned state must dominate its value at the starting point
        sample, _ = make_wn_sample(1, 500, 1.5 * np.pi, seed=42)
        res = fit_cem(sample)
        assert res.loglik_trace[-1] >= res.loglik_trace[0] - 1e-8

    def test_cstep_optimality_post_hoc(self):
        sample, _ = make_wn_sample(2, 80, 1.2, seed=43)
        res = fit_cem(sample)
        w = np.stack([e_step(row, res.params) for row in sample])
        rows = lattice_rows(LatticeConfig(), 2)
        chosen = np.array(
            [
                int(np.flatnonzero((rows == c).all(axis=1))[0])
                for c in res.coefficients
            ]
        )
        picked = w[np.arange(len(sample)), chosen]
        assert np.all(picked >= w.max(axis=1) - 1e-12)

    def test_fixed_point_is_stable(self):
        sample, _ = make_wn_sample(2, 60, 0.9, seed=44)
        res = fit_cem(sample)
        if res.reason == "fixed-point":
            again = fit_cem(sample, init=res.params, max_iter=2)
            np.testing.assert_allclose(again.params.mu, res.params.mu, atol=1e-9)
            np.testing.assert_allclose(
                again.params.sigma, res.params.sigma, atol=1e-9
            )

    def test_sample_recentred_once_per_classification(self, monkeypatch):
        # a one-iteration fit classifies twice, at the start and at the
        # returned parameters; each recentring serves the best-row search
        # and the unwrapped points
        sample, _ = make_wn_sample(2, 100, np.pi / 2, seed=3)
        recentre = circular.center_to
        calls = []
        monkeypatch.setattr(
            circular, "center_to", lambda y, mu: calls.append(1) or recentre(y, mu)
        )
        res = fit_cem(sample, max_iter=1)
        assert res.reason == "max-iter"
        assert len(calls) == 2

    @pytest.mark.parametrize("init_mu,extra_pass", [(None, 0), ([0.001, 0.001], 0)])
    def test_fixed_point_reuses_last_classification(self, monkeypatch, init_mu, extra_pass):
        # Data just below 2*pi: started just above 0, the means leave
        # [0, 2*pi), yet each classification is made about the wrapped
        # mean, so the returned parameters need no further pass.
        sample, truth = make_wn_sample(2, 120, 0.5, seed=50, mu=[6.23, 6.23])
        init = None if init_mu is None else WnParams(init_mu, truth.sigma)
        kernel = model._best_rows
        calls = []
        monkeypatch.setattr(model, "_best_rows", lambda *a: calls.append(1) or kernel(*a))
        res = fit_cem(sample, init)
        assert res.reason == "fixed-point"
        assert len(calls) == res.iterations + 1 + extra_pass
        config = LatticeConfig()
        np.testing.assert_array_equal(
            res.coefficients,
            [classify(e_step(row, res.params, config), config, 2) for row in sample],
        )
        np.testing.assert_array_equal(
            res.unwrapped, center_to(sample, res.params.mu) + TWO_PI * res.coefficients
        )

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_non_finite_tol_rejected(self, tol):
        sample, _ = make_wn_sample(2, 20, 0.5, seed=16)
        with pytest.raises(ValueError, match="tol"):
            fit_cem(sample, tol=tol)

    def test_deterministic_including_tie_breaks(self):
        sample, _ = make_wn_sample(2, 100, 2.5, seed=45)
        a = fit_cem(sample)
        b = fit_cem(sample)
        np.testing.assert_array_equal(a.coefficients, b.coefficients)
        np.testing.assert_array_equal(a.params.mu, b.params.mu)
        np.testing.assert_array_equal(a.unwrapped, b.unwrapped)

    def test_terminates_finitely(self):
        # the classification space is finite, so every run must stop on
        # its own well before a generous iteration cap
        for seed in (46, 47, 48):
            sample, _ = make_wn_sample(1, 50, 2.0, seed=seed)
            res = fit_cem(sample, max_iter=500)
            assert res.reason in {"fixed-point", "tol-reached"}

    def test_small_scale_agrees_with_em(self):
        sample, _ = make_wn_sample(2, 200, np.pi / 8, seed=49, mu=[3.0, 3.1])
        a = fit_cem(sample)
        b = fit_em(sample)
        np.testing.assert_allclose(a.params.mu, b.params.mu, atol=1e-6)
        np.testing.assert_allclose(a.params.sigma, b.params.sigma, atol=1e-6)
