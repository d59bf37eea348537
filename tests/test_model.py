import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wntorus import (
    LatticeConfig,
    LatticeTooLargeError,
    MixedParams,
    MixedSample,
    SingularCovarianceError,
    WnParams,
    e_step,
    fit_cem,
    fit_em,
    from_log_cholesky,
    log_likelihood,
    mixed_log_likelihood,
    mvn_logpdf,
    to_log_cholesky,
    wrapped_log_density,
)
from wntorus import model
from wntorus.circular import center_to, wrap_angle
from wntorus.direct import objective
from wntorus.model import TWO_PI, lattice_rows

from . import oracles
from .conftest import make_wn_sample, quantize_angles


class TestWnParams:
    def test_basic_construction(self):
        p = WnParams(np.array([1.0, 2.0]), np.eye(2))
        assert p.p == 2
        assert p.mu.flags.writeable is False

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            WnParams(np.zeros(2), np.array([[1.0, 0.3], [0.2, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(SingularCovarianceError):
            WnParams(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_singular(self):
        with pytest.raises(SingularCovarianceError):
            WnParams(np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            WnParams(np.zeros((2, 1)), np.eye(2))
        with pytest.raises(ValueError):
            WnParams(np.zeros(3), np.eye(2))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            WnParams(np.array([np.nan]), np.eye(1))

    def test_mean_not_silently_wrapped(self):
        p = WnParams(np.array([7.0]), np.eye(1))
        assert p.mu[0] == 7.0


class TestLattice:
    def test_row_count(self):
        assert lattice_rows(LatticeConfig(J=0), 2).shape == (1, 2)
        assert lattice_rows(LatticeConfig(J=1), 2).shape == (9, 2)
        assert lattice_rows(LatticeConfig(J=3), 3).shape == (343, 3)

    def test_lexicographic_order(self):
        rows = lattice_rows(LatticeConfig(J=1), 2)
        expected_head = [(-1, -1), (-1, 0), (-1, 1), (0, -1)]
        for got, want in zip(rows[:4], expected_head):
            assert tuple(got) == want
        assert tuple(rows[-1]) == (1, 1)

    def test_rows_immutable(self):
        rows = lattice_rows(LatticeConfig(J=1), 1)
        with pytest.raises(ValueError):
            rows[0, 0] = 5

    def test_size_guard(self):
        with pytest.raises(LatticeTooLargeError) as exc:
            LatticeConfig(J=3).n_rows(12)
        msg = str(exc.value)
        assert "J" in msg or "window" in msg.lower()

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            LatticeConfig(J=-1)


class TestMvnLogpdf:
    def test_at_mean_equals_normalizing_constant(self):
        sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        params = WnParams(np.array([0.5, 1.5]), sigma)
        want = -0.5 * (2 * np.log(TWO_PI) + np.log(np.linalg.det(sigma)))
        assert mvn_logpdf(params.mu, params) == pytest.approx(want, rel=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=25)
    def test_matches_dense_oracle(self, seed):
        gen = np.random.default_rng(seed)
        p = int(gen.integers(1, 4))
        a = gen.normal(size=(p, p))
        sigma = a @ a.T + p * np.eye(p)
        mu = gen.normal(size=p)
        x = gen.normal(size=p)
        params = WnParams(mu, sigma)
        assert mvn_logpdf(x, params) == pytest.approx(
            oracles.mvn_logpdf_dense(x, mu, sigma), rel=1e-10, abs=1e-10
        )

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=60)
    def test_closed_form_is_the_one_row_pass(self, seed):
        # deviations up to 1e300 and scales from 1e-150 to 1e150 reach
        # overflowing and nan terms
        gen = np.random.default_rng(seed)
        p = int(gen.integers(1, 7))
        scale = 10.0 ** gen.uniform(-150.0, 150.0)
        L = np.linalg.cholesky(_random_sigma(gen, p, scale, 10.0 ** gen.uniform(0.0, 4.0)))
        dev = gen.normal(size=(20, p)) * 10.0 ** gen.uniform(-3.0, 300.0, (20, 1))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            want = model._lattice_pass(dev, L, (0,) * p).loglik
        np.testing.assert_array_equal(model._normal_loglik(dev, L), want)

    def test_vectorized_rows(self):
        params = WnParams(np.array([0.0]), np.array([[1.0]]))
        x = np.array([[0.0], [1.0], [2.0]])
        out = mvn_logpdf(x, params)
        assert out.shape == (3,)
        assert out[0] == pytest.approx(-0.5 * np.log(TWO_PI))


class TestWrappedLogDensity:
    def test_huge_scale_is_nearly_uniform(self):
        # when the scale dwarfs the circle the density flattens to 1/(2 pi)
        params = WnParams(np.array([1.0]), np.array([[100.0]]))
        config = LatticeConfig(J=6)
        for y in (0.0, 1.0, np.pi, 5.0):
            got = wrapped_log_density(np.array([y]), params, config)
            assert got == pytest.approx(-np.log(TWO_PI), abs=1e-3)

    def test_matches_wide_window_oracle_1d(self):
        params = WnParams(np.array([0.0]), np.array([[(np.pi / 4) ** 2]]))
        want = oracles.wrapped_logpdf_dense(
            np.array([1.0]), params.mu, params.sigma, J=50
        )
        got = wrapped_log_density(np.array([1.0]), params)
        assert got == pytest.approx(want, abs=1e-12)

    def test_matches_wide_window_oracle_2d(self):
        sigma = np.array([[1.0, 0.5], [0.5, 1.2]])
        params = WnParams(np.array([0.3, 5.9]), sigma)
        y = np.array([3.0, 0.1])
        want = oracles.wrapped_logpdf_dense(y, params.mu, params.sigma, J=8)
        got = wrapped_log_density(y, params, LatticeConfig(J=4))
        assert got == pytest.approx(want, abs=1e-10)

    def test_batch_rows_match_scalar_calls(self, rng):
        y = rng.uniform(0, TWO_PI, size=(15, 2))
        params = WnParams(np.array([1.0, 4.0]), np.array([[0.5, 0.1], [0.1, 0.4]]))
        batch = wrapped_log_density(y, params)
        assert batch.shape == (15,)
        per_row = np.array([wrapped_log_density(row, params) for row in y])
        np.testing.assert_array_equal(batch, per_row)

    def test_ten_dimensional_rows_match_batch(self):
        sample, params = make_wn_sample(10, 6, np.pi / 4, seed=5)
        config = LatticeConfig(1)
        batch = wrapped_log_density(sample, params, config)
        per_row = [wrapped_log_density(row, params, config) for row in sample]
        np.testing.assert_array_equal(batch, per_row)

    def test_three_dimensional_input_rejected(self):
        params = WnParams(np.array([0.0]), np.eye(1))
        with pytest.raises(ValueError, match="angle vector"):
            wrapped_log_density(np.zeros((2, 3, 1)), params)

    def test_observation_shift_by_full_turn_is_exact(self, rng):
        y = quantize_angles(rng.uniform(0, TWO_PI, size=(20, 2)))
        params = WnParams(np.array([1.0, 4.0]), np.array([[0.5, 0.1], [0.1, 0.4]]))
        base = np.array([wrapped_log_density(row, params) for row in y])
        shifted = np.array(
            [wrapped_log_density(row + TWO_PI * np.array([1.0, -2.0]), params) for row in y]
        )
        np.testing.assert_array_equal(base, shifted)

    def test_window_growth_monotone_and_stable(self):
        # adding lattice rows can only add probability mass; at window 3
        # the sum has converged to well below 1e-8 for scales up to 2 pi
        params = WnParams(np.array([2.0]), np.array([[TWO_PI]]))
        y = np.array([0.5])
        vals = [
            wrapped_log_density(y, params, LatticeConfig(J=j)) for j in range(1, 7)
        ]
        assert np.all(np.diff(vals) >= -1e-15)
        assert abs(vals[2] - vals[5]) < 1e-8

    def test_normalizes_to_one_univariate(self):
        grid = np.linspace(0.0, TWO_PI, 10_001)
        for s2 in (np.pi / 8, np.pi / 4, np.pi, TWO_PI):
            params = WnParams(np.array([1.2]), np.array([[s2**2]]))
            dens = np.exp(
                [wrapped_log_density(np.array([g]), params, LatticeConfig(J=6)) for g in grid]
            )
            assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-6)


class TestLogLikelihood:
    def test_sums_per_observation_densities(self):
        sample, params = make_wn_sample(2, 40, 0.6, seed=2)
        total = log_likelihood(sample, params)
        per_obs = sum(wrapped_log_density(row, params) for row in sample)
        assert total == pytest.approx(per_obs, rel=1e-12)

    def test_repeat_evaluation_bit_identical(self):
        sample, params = make_wn_sample(3, 60, 1.0, seed=4)
        assert log_likelihood(sample, params) == log_likelihood(sample, params)

    def test_accepts_1d_sample(self):
        params = WnParams(np.array([1.0]), np.array([[0.3]]))
        flat = np.array([0.9, 1.1, 1.3])
        assert log_likelihood(flat, params) == log_likelihood(
            flat.reshape(-1, 1), params
        )

    def test_empty_sample_rejected(self):
        params = WnParams(np.array([1.0]), np.array([[0.3]]))
        with pytest.raises(ValueError):
            log_likelihood(np.empty((0, 1)), params)

    def test_matches_dense_oracle(self):
        sample, params = make_wn_sample(2, 15, 0.8, seed=6)
        want = oracles.loglik_dense(sample, params.mu, params.sigma, J=8)
        assert log_likelihood(sample, params) == pytest.approx(want, abs=1e-9)


class TestFullTurnMean:
    @staticmethod
    def _cells(p):
        """Samples and means of p=``p`` cells whose mean mu has a
        representative mu - 2 pi that wraps back to mu bit for bit."""
        for seed in range(30):
            sample, params = make_wn_sample(p, 60, 0.6, seed=seed)
            turned = params.mu - TWO_PI
            if np.array_equal(wrap_angle(turned), params.mu):
                yield seed, sample, params, turned

    @pytest.mark.parametrize("p", [2, 4])
    def test_every_lattice_sum_ignores_a_full_turn_of_the_mean(self, p):
        # p=4 windows have 2401 rows, so the best rows come from the
        # closest-vector search there and from the whole window at p=2
        config = LatticeConfig()
        cells = list(self._cells(p))
        assert cells
        for seed, sample, params, turned in cells:
            other = WnParams(turned, params.sigma)
            L = np.linalg.cholesky(params.sigma)
            for f in (log_likelihood, wrapped_log_density):
                assert np.array_equal(f(sample, params), f(sample, other)), (f.__name__, seed)
            for row in sample:
                np.testing.assert_array_equal(e_step(row, params), e_step(row, other))
            np.testing.assert_array_equal(
                model._best_rows(sample, params.mu, L, config),
                model._best_rows(sample, turned, L, config),
            )
            # the conditional means stay on the given mean's turn
            here, there = (
                model._recentred_pass(sample, mu, L, config) for mu in (params.mu, turned)
            )
            np.testing.assert_array_equal(there.cond_mean, here.cond_mean + (turned - params.mu))
            theta = to_log_cholesky(params)
            shifted = theta.copy()
            shifted[:p] = turned
            assert objective(theta, sample)[0] == objective(shifted, sample)[0], seed
            mixed = MixedSample(sample, sample[:, :1])
            joint = [
                MixedParams(mu, [1.0], params.sigma, np.zeros((p, 1)), np.eye(1))
                for mu in (params.mu, turned)
            ]
            assert mixed_log_likelihood(mixed, joint[0]) == mixed_log_likelihood(mixed, joint[1])


class TestLatticePass:
    """The one lattice pass against the loop oracles.

    The sample is recentered about the mean first, so the pass and the
    oracles, which do not recenter, sum over the same window.
    """

    J = 3

    def centered_case(self, sigma_scale):
        sample, params = make_wn_sample(2, 40, sigma_scale, seed=9)
        return center_to(sample, params.mu), params

    def oracle_weights(self, y, params):
        shifts = TWO_PI * np.array(
            list(itertools.product(range(-self.J, self.J + 1), repeat=params.p))
        )
        terms = np.array(
            [oracles.mvn_logpdf_dense(y + s, params.mu, params.sigma) for s in shifts]
        )
        w = np.exp(terms - terms.max())
        return w / w.sum()

    @pytest.mark.parametrize("sigma_scale", [np.pi / 4, 1.5 * np.pi])
    def test_matches_loop_oracles(self, sigma_scale):
        y, params = self.centered_case(sigma_scale)
        rec = model._per_observation_loglik(y, params, LatticeConfig(self.J))
        want = oracles.loglik_dense(y, params.mu, params.sigma, self.J)
        assert np.sum(rec.loglik) == pytest.approx(want, rel=1e-10)
        weights = [self.oracle_weights(row, params) for row in y]
        moments = [
            oracles.weighted_moments_loop(row, w, self.J) for row, w in zip(y, weights)
        ]
        means = np.array([mean for mean, _ in moments])
        scatter = np.sum([cov for _, cov in moments], axis=0)
        # posterior mass sits off the zero row, or the moments would be trivial
        assert np.trace(scatter) > 1e-4
        for got, want in ((rec.cond_mean, means), (rec.scatter, scatter)):
            np.testing.assert_allclose(
                got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max()
            )
        np.testing.assert_allclose(
            rec.row_mass, np.sum(weights, axis=0), rtol=1e-12, atol=1e-14
        )

    @pytest.mark.parametrize("window", ["49-rows", "pruned-625", "cut-2187"])
    def test_row_mass_sums_one_row_passes(self, window):
        # e_step's weights are the rows a fit's pass keeps: on a dense
        # window, on one that _reach narrows to 625 of 2401 rows, and on
        # one of 2187 rows that the pass cuts
        y, params, config = {
            "49-rows": lambda: (*self.centered_case(np.pi / 4), LatticeConfig(self.J)),
            "pruned-625": _shrinking_case,
            "cut-2187": _CUT_CELLS["near-singular"],
        }[window]()
        rec = model._per_observation_loglik(y, params, config)
        per_row = np.sum([e_step(row, params, config) for row in y], axis=0)
        assert per_row.shape == rec.row_mass.shape == (config.n_rows(params.p),)
        np.testing.assert_allclose(rec.row_mass, per_row, rtol=1e-12, atol=1e-14)

    def test_blocks_do_not_change_the_record(self, monkeypatch):
        y, params = self.centered_case(1.5 * np.pi)
        config = LatticeConfig(self.J)
        L = np.linalg.cholesky(params.sigma)
        whole = model._per_observation_loglik(y, params, config)
        whole_best = model._best_rows(y, params.mu, L, config)
        # three observations of 49 rows per block
        monkeypatch.setattr(model, "_CHUNK_ELEMS", 3 * 49)
        blocked = model._per_observation_loglik(y, params, config)
        np.testing.assert_array_equal(model._best_rows(y, params.mu, L, config), whole_best)
        np.testing.assert_array_equal(blocked.loglik, whole.loglik)
        for field in ("loglik", "cond_mean", "scatter", "row_mass"):
            np.testing.assert_allclose(
                getattr(blocked, field), getattr(whole, field), rtol=1e-12, atol=1e-12
            )

    def test_zero_width_axes_match_window_oracle(self):
        # the mixed-model window: two wrapped axes and one linear axis
        sample, params = make_wn_sample(3, 20, 1.2, seed=12)
        dev0 = center_to(sample, params.mu) - params.mu
        widths = (self.J, self.J, 0)
        rec = model._lattice_pass(dev0, np.linalg.cholesky(params.sigma), widths)
        want = [
            oracles.window_logpdf_dense(row, np.zeros(3), params.sigma, widths)
            for row in dev0
        ]
        np.testing.assert_allclose(rec.loglik, want, rtol=1e-12)
        assert rec.row_mass.shape == ((2 * self.J + 1) ** 2,)
        # the linear coordinate is never shifted
        np.testing.assert_array_equal(rec.cond_mean[:, 2], 0.0)

    def test_zero_window_is_the_normal_density(self):
        y, params = self.centered_case(np.pi / 4)
        rec = model._per_observation_loglik(y, params, LatticeConfig(0))
        np.testing.assert_array_equal(rec.loglik, mvn_logpdf(y, params))
        want = [oracles.mvn_logpdf_dense(row, params.mu, params.sigma) for row in y]
        np.testing.assert_allclose(rec.loglik, want, rtol=1e-12)
        L = np.linalg.cholesky(params.sigma)
        np.testing.assert_array_equal(model._best_rows(y, params.mu, L, LatticeConfig(0)), 0)
        np.testing.assert_array_equal(rec.row_mass, [y.shape[0]])
        np.testing.assert_array_equal(rec.cond_mean, params.mu + (y - params.mu))

    def test_ten_dimensions_match_loop_oracle(self):
        sample, params = make_wn_sample(10, 2, np.pi / 4, seed=9)
        y = center_to(sample, params.mu)
        rec = model._per_observation_loglik(y, params, LatticeConfig(1))
        want = oracles.loglik_dense(y, params.mu, params.sigma, 1)
        assert np.sum(rec.loglik) == pytest.approx(want, rel=1e-10)

    def test_overflowing_deviations_give_minus_inf_silently(self):
        # sigma's square root is 1e-155, so squared deviations overflow
        params = WnParams(np.zeros(1), np.array([[1e-310]]))
        y = np.array([[0.5], [2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = model._per_observation_loglik(y, params, LatticeConfig(self.J))
            best = model._best_rows(y, params.mu, np.sqrt(params.sigma), LatticeConfig(self.J))
            normal = mvn_logpdf(y, params)
        np.testing.assert_array_equal(rec.loglik, -np.inf)
        # every term is -inf, so the first row is the best
        np.testing.assert_array_equal(best, -self.J)
        np.testing.assert_array_equal(normal, -np.inf)


def _near_singular_case():
    """A covariance with standard deviation 12 along a line 0.006 rad off
    axis 1 and 1.5e-3 across it, in a J=16 window.  Observations half a
    turn from the mean on axis 0 have their best rows at r_0 = 0 or
    r_0 = -1 at the far ends of axis 1; rows one step beyond the window
    lie above them, so only comparators inside the window may be used to
    leave rows out."""
    t = 0.006
    along = np.array([np.sin(t), np.cos(t)])
    across = np.array([np.cos(t), -np.sin(t)])
    sigma = 12.0**2 * np.outer(along, along) + 1.5e-3**2 * np.outer(across, across)
    y = np.column_stack([np.full(8, np.pi), np.linspace(0.1, TWO_PI - 0.1, 8)])
    return y, WnParams(np.zeros(2), sigma), LatticeConfig(16)


def _shrinking_case():
    """p=4, J=3 at sigma = pi/5: most of the 2401 rows are out of reach."""
    sample, params = make_wn_sample(4, 30, np.pi / 5, seed=3)
    return sample, params, LatticeConfig(3)


def _grid_best(dev0, L, widths):
    """Each observation's first row of highest term in the window of
    per-axis half-widths ``widths``, by scoring every row."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        blocks = model._scored_blocks(*model._project(dev0, L), L, tuple(widths))
        return np.concatenate([best for _, _, best, _ in blocks])


def _scored_window(dev0, L, row_part, grids):
    """The terms, best rows and tops of _block_top for the base
    deviations ``dev0``, scored as one block."""
    return model._block_top(*model._project(dev0, L), row_part, grids)


def _enumerated(dev0, L, widths, cut):
    """The search of _enumerate over the whole of ``dev0`` as one block,
    from its own set-up, at any cost."""
    with mock.patch.object(model, "_SEARCH_LEVEL_COST", 0), mock.patch.object(
        model, "_SEARCH_NODE_COST", 0
    ), np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        setup = model._search_setup(dev0, L, widths, cut, dev0.shape[0])
        return model._enumerate(setup, L, widths, cut)


class TestPrunedWindow:
    """The pass runs over the rows of the J window that sigma can reach."""

    @pytest.fixture(
        params=[_shrinking_case, _near_singular_case], ids=["shrinking", "near-singular"]
    )
    def case(self, request):
        y, params, config = request.param()
        L = np.linalg.cholesky(params.sigma)
        widths = model._reach(L, config.J)
        full = (config.J,) * params.p
        assert widths != full  # the case exercises a pruned window
        dev0 = center_to(y, params.mu) - params.mu
        return y, params, config, dev0, model._lattice_pass(dev0, L, full)

    def test_matches_full_window_pass(self, case):
        y, params, config, dev0, full = case
        L = np.linalg.cholesky(params.sigma)
        rec = model._per_observation_loglik(y, params, config)
        np.testing.assert_allclose(rec.loglik, full.loglik, rtol=1e-12)
        # the pruned pass's rows, as indices into the J window
        rows = model._window(model._reach(L, config.J))[0]
        index = np.ravel_multi_index(tuple((rows + config.J).T), (2 * config.J + 1,) * params.p)
        assert np.isin(_grid_best(dev0, L, (config.J,) * params.p), index).all()
        # row_mass covers the J window, with no mass outside the pruned one
        np.testing.assert_allclose(rec.row_mass, full.row_mass, rtol=0, atol=1e-12)
        assert not np.delete(rec.row_mass, index).any()

    def test_best_only_pass_matches_record(self, case):
        y, params, config, dev0, _ = case
        L = np.linalg.cholesky(params.sigma)
        best = model._best_rows(y, params.mu, L, config)
        index = _grid_best(dev0, L, (config.J,) * params.p)
        np.testing.assert_array_equal(best, lattice_rows(config, params.p)[index])

    def test_matches_window_oracle(self):
        y, params, config = _shrinking_case()
        got = wrapped_log_density(y, params, config)
        centred = center_to(y, params.mu)
        want = [
            oracles.window_logpdf_dense(row, params.mu, params.sigma, (config.J,) * 4)
            for row in centred[:10]
        ]
        np.testing.assert_allclose(got[:10], want, rtol=1e-12)

    def test_batch_rows_match_scalar_calls(self):
        y, params, config = _shrinking_case()
        batch = wrapped_log_density(y, params, config)
        per_row = [wrapped_log_density(row, params, config) for row in y]
        np.testing.assert_array_equal(batch, per_row)

    def test_e_step_covers_the_whole_window(self):
        y, params, config = _shrinking_case()
        widths = model._reach(np.linalg.cholesky(params.sigma), config.J)
        rows = lattice_rows(config, 4)
        outside = np.any(np.abs(rows) > np.array(widths), axis=1)
        for row in y[:5]:
            w = e_step(row, params, config)
            assert w.shape == (7**4,)
            assert np.sum(w) == pytest.approx(1.0, abs=1e-12)
            # the rows that the pass leaves out carry under _PRUNE_EPS
            assert np.sum(w[outside]) < model._PRUNE_EPS


#: Cells whose pass keeps at least _PRUNE_MIN_ROWS rows after _reach, so
#: that each observation keeps only the rows within T of its top.
_CUT_CELLS = {
    # p=10, J=1: 59 049 rows, 2 to 13 of them within T of the top
    "p10": lambda: (*make_wn_sample(10, 12, np.pi / 4, seed=21), LatticeConfig(1)),
    # p=5, J=2: 3125 rows, none of which _reach can leave out, about 190
    # within T of the top
    "p5": lambda: (*make_wn_sample(5, 30, np.pi / 2, seed=4), LatticeConfig(2)),
    # p=7, J=1 on a correlation of condition number 1e6: 2187 rows, 7 to
    # 13 within T of the top
    "near-singular": lambda: (
        *make_wn_sample(7, 30, np.pi, seed=5, cn=1e6),
        LatticeConfig(1),
    ),
}


class TestCutPass:
    """Pruned passes of _PRUNE_MIN_ROWS rows or more reduce only the rows
    within T = log(m / _PRUNE_EPS) + 1 of each observation's top row."""

    @pytest.fixture(params=list(_CUT_CELLS))
    def cell(self, request):
        y, params, config = _CUT_CELLS[request.param]()
        # _reach keeps every row, so the cut and whole passes share rows
        full = (config.J,) * params.p
        assert model._reach(np.linalg.cholesky(params.sigma), config.J) == full
        assert config.n_rows(params.p) >= model._PRUNE_MIN_ROWS
        return y, params, config

    def test_matches_the_whole_window_pass(self, cell, monkeypatch):
        y, params, config = cell
        L = np.linalg.cholesky(params.sigma)
        dev0 = center_to(y, params.mu) - params.mu
        widths = (config.J,) * params.p
        cut = model._lattice_pass(dev0, L, widths)
        rec = model._per_observation_loglik(y, params, config)
        # the reference reduces every row, as on a window below the threshold
        monkeypatch.setattr(model, "_PRUNE_MIN_ROWS", config.n_rows(params.p) + 1)
        full = model._lattice_pass(dev0, L, widths)
        # the recentred pass is the cut one, and the cut left rows out
        np.testing.assert_array_equal(rec.loglik, cut.loglik)
        assert np.sum(cut.row_mass == 0) > np.sum(full.row_mass == 0)
        np.testing.assert_allclose(cut.loglik, full.loglik, rtol=1e-15, atol=0)
        # posterior means of offsets of size up to 2 pi J
        np.testing.assert_allclose(cut.cond_mean, full.cond_mean, rtol=1e-12, atol=1e-12)
        # the whole pass subtracts sum_i s_i s_i' from the row second
        # moments, so its scatter is exact only to their scale
        moments = full.scatter + full.cond_mean.T @ full.cond_mean
        np.testing.assert_allclose(
            cut.scatter, full.scatter, rtol=1e-12, atol=1e-12 * max(np.abs(moments).max(), 1.0)
        )
        np.testing.assert_allclose(cut.row_mass, full.row_mass, rtol=0, atol=1e-12)

    def test_matches_window_oracle(self):
        sample, params = make_wn_sample(7, 10, np.pi / 3, seed=8)
        config = LatticeConfig(1)
        got = wrapped_log_density(sample, params, config)
        centred = center_to(sample, params.mu)
        want = [
            oracles.window_logpdf_dense(row, params.mu, params.sigma, (1,) * 7)
            for row in centred
        ]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_batch_rows_and_blocks_match_scalar_calls(self, cell, monkeypatch):
        y, params, config = cell
        batch = wrapped_log_density(y, params, config)
        per_row = [wrapped_log_density(row, params, config) for row in y]
        np.testing.assert_array_equal(batch, per_row)
        whole = model._per_observation_loglik(y, params, config)
        # three observations per block
        monkeypatch.setattr(model, "_CHUNK_ELEMS", 3 * whole.row_mass.shape[0])
        blocked = model._per_observation_loglik(y, params, config)
        np.testing.assert_array_equal(blocked.loglik, whole.loglik)
        np.testing.assert_array_equal(blocked.cond_mean, whole.cond_mean)

    def test_observation_without_finite_term_is_minus_inf(self):
        # sigma's square root is 1e-155, so squared deviations overflow
        # everywhere but at the mean itself
        params = WnParams(np.zeros(7), 1e-310 * np.eye(7))
        y = np.array([np.full(7, 0.5), np.zeros(7), np.full(7, 2.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = model._per_observation_loglik(y, params, LatticeConfig(1))
            single = wrapped_log_density(y[1], params, LatticeConfig(1))
        np.testing.assert_array_equal(rec.loglik[[0, 2]], -np.inf)
        assert np.isfinite(rec.loglik[1])
        assert rec.loglik[1] == single
        assert np.isnan(rec.cond_mean[[0, 2]]).all()

    @pytest.mark.parametrize("p", [6, 7])
    def test_scatter_is_nan_without_a_finite_term(self, p):
        # a window of 729 rows is reduced over every row, one of 2187 rows
        # is cut; both give the observation at 0.5 no finite term
        params = WnParams(np.zeros(p), 1e-310 * np.eye(p))
        y = np.array([np.full(p, 0.5), np.zeros(p)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = model._per_observation_loglik(y, params, LatticeConfig(1))
        assert rec.loglik[0] == -np.inf and np.isfinite(rec.loglik[1])
        assert np.isnan(rec.scatter).all()
        assert np.isnan(rec.row_mass).all()

    def test_rows_left_out_carry_under_the_prune_bound(self, cell):
        y, params, config = cell
        widths = (config.J,) * params.p
        for row in center_to(y[:10], params.mu):
            kept = e_step(row, params, config) > 0
            w = oracles.window_weights_dense(row, params.mu, params.sigma, widths)
            assert kept.sum() < w.shape[0]
            assert np.sum(w[~kept]) < model._PRUNE_EPS

    def test_mixed_window_is_cut_and_matches_oracle(self, monkeypatch):
        # a 2187 x 1-row window: the pass keeps only the rows within T
        reduced = []
        reduce = model._reduce_candidates
        monkeypatch.setattr(
            model, "_reduce_candidates", lambda *a: reduced.append(1) or reduce(*a)
        )
        sample, params = make_wn_sample(7, 20, np.pi / 3, seed=8)
        config = LatticeConfig(1)
        linear = sample[:, :1] + 0.3
        mixed = MixedParams(
            mu_torus=params.mu,
            mu_linear=np.array([0.5]),
            cov_torus=params.sigma,
            cov_cross=0.2 * params.sigma[:, :1],
            cov_linear=np.array([[1.0]]),
        )
        got = mixed_log_likelihood(MixedSample(sample, linear), mixed, config)
        assert reduced
        centred = np.hstack([center_to(sample, params.mu), linear])
        mean = np.concatenate([params.mu, [0.5]])
        want = sum(
            oracles.window_logpdf_dense(row, mean, mixed.joint_cov(), (1,) * 7 + (0,))
            for row in centred
        )
        assert got == pytest.approx(want, rel=1e-15, abs=0)


def _random_sigma(gen, p, scale, cn):
    """scale^2 times a random unit-diagonal matrix whose eigenvalues
    span a ratio of about ``cn``."""
    q, _ = np.linalg.qr(gen.normal(size=(p, p)))
    cov = (q * np.geomspace(1.0, 1.0 / cn, p)) @ q.T
    d = np.sqrt(np.diag(cov))
    cov = cov / np.outer(d, d)
    return scale**2 * 0.5 * (cov + cov.T)


@st.composite
def _closest_cases(draw):
    """A (p, J) window, a covariance and a small sample of one of three
    kinds: wrapped-normal draws with uniform outliers; angles on the
    pi/2 grid about a mean of 0 or pi on a diagonal covariance, whose
    deviations of exactly +-pi give rows of exactly equal terms; and
    deviations just inside +-pi at the smallest scale, where the term
    formula cancels large parts."""
    p = draw(st.integers(1, 6))
    J = draw(st.integers(1, 3))
    scale = draw(st.floats(np.pi / 16, 1.5 * np.pi))
    cn = 10.0 ** draw(st.floats(0.0, 4.0))
    kind = draw(st.sampled_from(["sample", "ties", "cancel"]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 8
    if kind == "ties":
        sigma = np.diag(scale**2 * gen.permutation(np.geomspace(1.0, 1.0 / cn, p)))
        mu = np.pi * gen.integers(0, 2, p)
        y = (np.pi / 2) * gen.integers(0, 4, (n, p))
    else:
        if kind == "cancel":
            scale = np.pi / 16
        sigma = _random_sigma(gen, p, scale, cn)
        mu = gen.uniform(0.0, TWO_PI, p)
        if kind == "sample":
            y = mu + gen.normal(size=(n, p)) @ np.linalg.cholesky(sigma).T
            y[: n // 4] = gen.uniform(0.0, TWO_PI, (n // 4, p))
        else:
            near = 1.0 - 10.0 ** gen.uniform(-16.0, -6.0, (n, p))
            y = mu + np.pi * gen.choice([-1.0, 1.0], (n, p)) * near
        y = np.mod(y, TWO_PI)
    return center_to(y, mu), mu, sigma, J


def _searched_best(dev0, L, J):
    """Each observation's best row in the {-J..J}^p window, as found by
    the search of _enumerate at any cost."""
    return _enumerated(dev0, L, (J,) * dev0.shape[1], 0.0)[1]


class TestClosestRows:
    """Best rows are found by a search for each observation's closest
    lattice row instead of scoring the whole window, where the search
    costs less."""

    @given(_closest_cases())
    @settings(deadline=None, max_examples=80)
    def test_matches_grid_and_oracle(self, case):
        y, mu, sigma, J = case
        L = np.linalg.cholesky(sigma)
        dev0 = y - mu
        got = _searched_best(dev0, L, J)
        np.testing.assert_array_equal(got, _grid_best(dev0, L, (J,) * mu.shape[0]))
        for row, index in zip(y, got):
            want, gap = oracles.best_row_dense(row, mu, sigma, J)
            if gap > 1e-9:
                assert index == want

    def test_exact_ties_go_to_the_first_row(self):
        L = np.diag([0.3, 0.7, 1.1])
        grid = [-np.pi, np.pi, 0.0, 1.0]
        dev0 = np.array(list(itertools.product(grid, repeat=3)))
        _, offsets, grids = model._window((2,) * 3)
        terms, best = _scored_window(dev0, L, model._row_part(L, offsets), grids)[:2]
        tied = np.sum(terms == terms.max(axis=1)[:, None], axis=1) > 1
        assert tied.sum() >= 20  # the case exercises exact ties
        np.testing.assert_array_equal(_searched_best(dev0, L, 2), best)

    @pytest.mark.parametrize("scale", [np.pi / 16, np.pi])
    def test_near_ties_within_rounding(self, scale):
        # deviations a few units in the last place from +-pi: rows tie to
        # within the rounding of the terms, which the slack must cover
        gen = np.random.default_rng(5)
        sigma = _random_sigma(gen, 3, scale, 100.0)
        L = np.linalg.cholesky(sigma)
        mu = gen.uniform(0.0, TWO_PI, 3)
        near = 1.0 - 10.0 ** gen.uniform(-16.0, -12.0, (200, 3))
        y = np.mod(mu + np.pi * gen.choice([-1.0, 1.0], (200, 3)) * near, TWO_PI)
        dev0 = center_to(y, mu) - mu
        want = _grid_best(dev0, L, (2,) * 3)
        np.testing.assert_array_equal(_searched_best(dev0, L, 2), want)

    @pytest.mark.parametrize("axes", [[0, 1], [1, 0]])
    def test_rows_outside_the_box_are_never_chosen(self, axes):
        # the best rows of the near-singular case lie next to rows one
        # step beyond the window that would score higher, on either axis
        y, params, config = _near_singular_case()
        sigma = params.sigma[np.ix_(axes, axes)]
        L = np.linalg.cholesky(sigma)
        dev0 = center_to(y[:, axes], params.mu) - params.mu
        want = _grid_best(dev0, L, (config.J,) * 2)
        np.testing.assert_array_equal(_searched_best(dev0, L, config.J), want)

    def test_each_box_row_is_scored_at_most_once(self, monkeypatch):
        # across the long axis the search radius spans thousands of turns
        y, params, config = _near_singular_case()
        L = np.linalg.cholesky(params.sigma[::-1, ::-1])
        dev0 = center_to(y[:, ::-1], params.mu) - params.mu
        scored = []
        row_part = model._row_part
        monkeypatch.setattr(
            model, "_row_part", lambda L, o: scored.append(o / TWO_PI) or row_part(L, o)
        )
        for d in dev0:
            _searched_best(d[None], L, config.J)
        assert len(scored) == dev0.shape[0]
        for rows in scored:
            assert np.all(np.abs(rows) <= config.J + 1e-9)
            assert np.unique(np.rint(rows), axis=0).shape[0] == rows.shape[0]

    def test_batch_rows_and_blocks_match(self, monkeypatch):
        sample, params = make_wn_sample(4, 40, np.pi, seed=11)
        cases = [(np.linalg.cholesky(params.sigma), center_to(sample, params.mu) - params.mu)]
        # deviations of exactly +-pi on axis 0 of a diagonal sigma: rows
        # r_0 = 0 and r_0 = -+1 tie exactly, and with one parent per run
        # they are reached in different runs
        L = np.diag([0.3, 0.7, 1.1, 0.5])
        dev0 = np.array(list(itertools.product([-np.pi, np.pi, 0.0, 1.0], repeat=4)))
        rows, offsets, grids = model._window((3,) * 4)
        terms = _scored_window(dev0, L, model._row_part(L, offsets), grids)[0]
        assert sum(np.unique(rows[t == t.max(), 0]).size > 1 for t in terms) >= 20
        cases.append((L, dev0))
        for L, dev0 in cases:
            whole = _searched_best(dev0, L, 3)
            per_row = [_searched_best(dev0[i : i + 1], L, 3)[0] for i in range(dev0.shape[0])]
            np.testing.assert_array_equal(whole, per_row)
            for chunk in (4, 50, 997):
                # levels split into runs of a few parents each; at 4, of one
                monkeypatch.setattr(model, "_CHUNK_ELEMS", chunk)
                np.testing.assert_array_equal(_searched_best(dev0, L, 3), whole)
            monkeypatch.undo()
            np.testing.assert_array_equal(whole, _grid_best(dev0, L, (3,) * 4))

    def test_overflowing_radius_falls_back_to_the_grid(self, monkeypatch):
        # L[1, 1] = 1e-155: a deviation off the line L[:, 0] squares to inf
        L = np.eye(4)
        L[1, 0], L[1, 1] = 0.9, 1e-155
        dev0 = np.array([[0.5, 0.45, 0.1, -2.0], [0.5, 1.0, 0.1, 3.0], [0.0, 0.0, 1.0, 1.0]])
        want = model._decode(_grid_best(dev0, L, (3,) * 4), (3,) * 4)
        # the search runs at any cost
        monkeypatch.setattr(model, "_SEARCH_LEVEL_COST", 0)
        monkeypatch.setattr(model, "_SEARCH_NODE_COST", 0)
        calls = []
        blocks = model._scored_blocks
        monkeypatch.setattr(
            model, "_scored_blocks", lambda d, *a: calls.append(d.shape[0]) or blocks(d, *a)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # about a zero mean, the deviations are the sample itself
            got = model._best_rows(dev0, np.zeros(4), L, LatticeConfig(3))
        assert calls == [3]  # the whole sample, for the overflowing observation
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "p, J, n, scale, searched",
        [
            pytest.param(10, 1, 100, np.pi / 5, True, id="p10-J1-n100"),  # highdim's shape
            pytest.param(4, 3, 1000, np.pi / 5, True, id="p4-J3-n1000"),  # large_n's shape
            pytest.param(3, 3, 1000, np.pi / 4, True, id="p3-J3-n1000"),  # 343 rows
            pytest.param(4, 3, 20, np.pi / 5, False, id="p4-J3-n20"),
            pytest.param(7, 1, 30, np.pi / 5, False, id="p7-J1-n30"),
        ],
    )
    def test_best_rows_follow_the_cost_rule(self, p, J, n, scale, searched, monkeypatch):
        # the sample is searched where the search costs less than scoring
        # it, whatever the window's size, and the rows are the same
        sample, params = make_wn_sample(p, n, scale, seed=3)
        L = np.linalg.cholesky(params.sigma)
        widths = (J,) * p
        dev0 = model._deviations(sample, params.mu)[0]
        want = model._window(widths)[0][_grid_best(dev0, L, widths)]
        calls = []
        blocks = model._scored_blocks
        monkeypatch.setattr(
            model, "_scored_blocks", lambda d, *a: calls.append(d.shape[0]) or blocks(d, *a)
        )
        got = model._best_rows(sample, params.mu, L, LatticeConfig(J))
        assert calls == ([] if searched else [n])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _scored_cut_pass(dev0, L, widths):
    """The cut pass of _lattice_pass with its candidates found by scoring
    every row of the window: the terms of _block_top over _window's
    table, each observation's rows within T of its top, reduced by
    _reduce_candidates, in the pass's blocks."""
    _, offsets, grids = model._window(widths)
    m, (n, p) = offsets.shape[0], dev0.shape
    cut = model._prune_cut(m)
    loglik, cond_mean = np.empty(n), np.empty((n, p))
    row_mass, scatter = np.zeros(m), np.zeros((p, p))
    block = max(1, model._CHUNK_ELEMS // m)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        row_part = model._row_part(L, offsets)
        for start in range(0, n, block):
            sl = slice(start, start + block)
            terms, _, top = _scored_window(dev0[sl], L, row_part, grids)
            top[~np.isfinite(top)] = 0.0
            keep = np.flatnonzero(terms >= (top - cut)[:, None])
            obs, rows = np.divmod(keep, m)
            loglik[sl], cond_mean[sl], part = model._reduce_candidates(
                obs, rows, terms.ravel()[keep], top, offsets[rows], row_mass
            )
            scatter += part
    return model._LatticePass(loglik, cond_mean, scatter, row_mass)


def _overflow_case():
    """L[1, 1] = 1e-155: the second observation's radius overflows."""
    L = np.eye(4)
    L[1, 0], L[1, 1] = 0.9, 1e-155
    dev0 = np.array([[0.5, 0.45, 0.1, -2.0], [0.5, 1.0, 0.1, 3.0], [0.0, 0.0, 1.0, 1.0]])
    return dev0, L, (3,) * 4


def _enumerated_case(sample, params, widths):
    return center_to(sample, params.mu) - params.mu, np.linalg.cholesky(params.sigma), widths


#: Windows of _PRUNE_MIN_ROWS rows or more, as (dev0, L, widths).
_ENUMERATED_CELLS = {
    # 59 049 rows, 16 observations per block: seven blocks, one or two
    # candidates per observation
    "p10": lambda: _enumerated_case(*make_wn_sample(10, 100, np.pi / 5, seed=21), (1,) * 10),
    # 3125 rows, 164 to 227 candidates per observation
    "p5": lambda: _enumerated_case(*make_wn_sample(5, 30, np.pi / 2, seed=4), (2,) * 5),
    # 2187 rows, 1690 to 1958 candidates per observation
    "p7-wide": lambda: _enumerated_case(*make_wn_sample(7, 20, np.pi, seed=5), (1,) * 7),
    # the mixed model's window: four wrapped axes and one linear axis
    "mixed": lambda: _enumerated_case(*make_wn_sample(5, 40, np.pi / 4, seed=6), (3, 3, 3, 3, 0)),
    # a correlation of condition number 1e6
    "near-singular": lambda: _enumerated_case(
        *make_wn_sample(4, 30, np.pi / 3, seed=7, cn=1e6), (3,) * 4
    ),
    "overflow": _overflow_case,
    # sigma = 1e-310 I at p=7, J=1: the observations half a turn and 4 rad
    # away have no finite term, the one at the mean has
    "no-finite-term": lambda: (
        np.array([[0.0] * 7, [np.pi] * 7, [4.0 - TWO_PI] * 7]),
        1e-155 * np.eye(7),
        (1,) * 7,
    ),
}

#: Cells with an observation whose set-up or top term is not finite,
#: whose blocks _enumerate declines.
_DECLINED_CELLS = ("overflow", "no-finite-term")


class TestEnumeratedPass:
    """Cut passes list each observation's candidate rows by the
    closest-vector search of _enumerate instead of scoring the window,
    where the search costs less."""

    @staticmethod
    def _pass(dev0, L, widths, monkeypatch):
        """_lattice_pass, and the block sizes it scored by _block_top."""
        scored = []
        block_top = model._block_top
        monkeypatch.setattr(
            model, "_block_top", lambda d, *a: scored.append(d.shape[0]) or block_top(d, *a)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = model._lattice_pass(dev0, L, widths)
        return got, scored

    @classmethod
    def _counted_pass(cls, dev0, L, widths, monkeypatch):
        """:meth:`_pass`, and the block sizes it estimated a search for."""
        estimated = []
        enumerate_ = model._enumerate
        monkeypatch.setattr(
            model,
            "_enumerate",
            lambda setup, *a: estimated.append(setup.half_a.shape[0]) or enumerate_(setup, *a),
        )
        return (*cls._pass(dev0, L, widths, monkeypatch), estimated)

    @pytest.mark.parametrize("search", ["always", "always, one parent per run", "by cost"])
    @pytest.mark.parametrize("cell", list(_ENUMERATED_CELLS))
    def test_matches_the_scored_cut_pass_bit_for_bit(self, cell, search, monkeypatch):
        dev0, L, widths = _ENUMERATED_CELLS[cell]()
        if search != "by cost":
            monkeypatch.setattr(model, "_SEARCH_LEVEL_COST", 0)
            monkeypatch.setattr(model, "_SEARCH_NODE_COST", 0)
        if search == "always, one parent per run":
            # one observation per block, and every level split into runs
            # of one parent each
            monkeypatch.setattr(model, "_CHUNK_ELEMS", dev0.shape[1])
        want = _scored_cut_pass(dev0, L, widths)
        got, scored = self._pass(dev0, L, widths, monkeypatch)
        for field in got._fields:
            a, b = getattr(got, field), getattr(want, field)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), field
        if search == "always":
            # only the block with an observation whose radius overflows
            # or that has no finite term
            assert scored == ([3] if cell in _DECLINED_CELLS else [])
        if cell in _DECLINED_CELLS:
            cut = model._prune_cut(math.prod(2 * w + 1 for w in widths))
            assert _enumerated(dev0, L, widths, cut) is None
            finite = [0, 2] if cell == "overflow" else [0]
            assert np.isfinite(got.loglik[finite]).all()
            assert np.sum(np.isfinite(got.loglik)) == len(finite)

    def test_scores_where_the_posterior_is_broad(self, monkeypatch):
        # p10 keeps one or two rows per observation and is searched; p7-wide
        # keeps 1690 to 1958 of 2187, where the search would cost three
        # times the scoring
        dev0, L, widths = _ENUMERATED_CELLS["p10"]()
        assert self._pass(dev0, L, widths, monkeypatch)[1] == []
        dev0, L, widths = _ENUMERATED_CELLS["p7-wide"]()
        assert self._pass(dev0, L, widths, monkeypatch)[1] == [20]
        cut = model._prune_cut(2187)
        setup = model._search_setup(dev0, L, widths, cut, 20)
        assert model._enumerate(setup, L, widths, cut) is None
        # each block of a pass makes its own estimate, and here each one
        # gives its search up
        dev0, L, widths = _enumerated_case(
            *make_wn_sample(10, 40, np.pi / 2, seed=21), (1,) * 10
        )
        got, scored, estimated = self._counted_pass(dev0, L, widths, monkeypatch)
        assert estimated == [16, 16, 8] and scored == [16, 16, 8]
        want = _scored_cut_pass(dev0, L, widths)
        for field in got._fields:
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field

    def test_searches_a_block_after_a_scored_one(self, monkeypatch):
        # the first block's 16 observations lie half a turn from the
        # mean, where the search would cost more than scoring them; the
        # second block's lie near it and are searched
        sample, params = make_wn_sample(10, 32, 0.4 * np.pi, seed=21)
        signs = np.random.default_rng(0).choice([-1.0, 1.0], (16, 10))
        sample[:16] = np.mod(params.mu + 0.99 * np.pi * signs, TWO_PI)
        dev0, L, widths = _enumerated_case(sample, params, (1,) * 10)
        got, scored, estimated = self._counted_pass(dev0, L, widths, monkeypatch)
        assert estimated == [16, 16] and scored == [16]
        want = _scored_cut_pass(dev0, L, widths)
        for field in got._fields:
            a, b = getattr(got, field), getattr(want, field)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), field

    @pytest.mark.parametrize("blocks", ["one observation each", "one block"])
    @pytest.mark.parametrize("cell", [*_ENUMERATED_CELLS, "p12"])
    def test_blocks_share_the_pass_set_up(self, cell, blocks, monkeypatch):
        # the set-up is made once for the whole sample and sliced per
        # block; at p=12, J=1 (531 441 rows) a block holds one observation
        if cell == "p12":
            dev0, L, widths = _enumerated_case(*make_wn_sample(12, 6, np.pi / 5, seed=2), (1,) * 12)
        else:
            dev0, L, widths = _ENUMERATED_CELLS[cell]()
        whole = self._pass(dev0, L, widths, monkeypatch)[0]
        m = math.prod(2 * w + 1 for w in widths)
        chunk = m if blocks == "one observation each" else dev0.shape[0] * m
        monkeypatch.setattr(model, "_CHUNK_ELEMS", chunk)
        want = _scored_cut_pass(dev0, L, widths)
        got = self._pass(dev0, L, widths, monkeypatch)[0]
        for field in got._fields:
            a, b = getattr(got, field), getattr(want, field)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), field
        # the scatter sums its blocks' parts, so only it may depend on them
        for field in ("loglik", "cond_mean", "row_mass"):
            assert getattr(got, field).tobytes() == getattr(whole, field).tobytes(), field

    def test_one_set_up_per_pass(self, monkeypatch):
        # seven blocks of 16 observations, each searched from one set-up
        dev0, L, widths = _ENUMERATED_CELLS["p10"]()
        setups = []
        setup = model._search_setup
        monkeypatch.setattr(
            model, "_search_setup", lambda d, *a: setups.append(d.shape[0]) or setup(d, *a)
        )
        got, scored, estimated = self._counted_pass(dev0, L, widths, monkeypatch)
        assert setups == [100] and scored == []
        assert estimated == [16] * 6 + [4]
        # _best_rows searches the whole sample from one set-up
        setups.clear()
        model._best_rows(dev0, np.zeros(10), L, LatticeConfig(1))
        assert setups == [100]
        # and none where no search could pay: p=2 with 49 rows
        setups.clear()
        model._best_rows(dev0[:, :2], np.zeros(2), L[:2, :2], LatticeConfig(3))
        assert setups == []

    @given(_closest_cases())
    @settings(deadline=None, max_examples=60)
    def test_candidates_match_the_scored_window(self, case):
        # the wider radius must list every row within T of the top, at
        # exact ties and where the term formula cancels large parts
        y, mu, sigma, J = case
        L = np.linalg.cholesky(sigma)
        dev0 = y - mu
        widths = (J,) * mu.shape[0]
        _, offsets, grids = model._window(widths)
        cut = model._prune_cut(offsets.shape[0])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            terms, _, top = _scored_window(dev0, L, model._row_part(L, offsets), grids)
        keep = np.flatnonzero(terms >= (top - cut)[:, None])
        obs, rows = np.divmod(keep, offsets.shape[0])
        want = (top, (obs, rows, terms.ravel()[keep], offsets[rows]))
        got = _enumerated(dev0, L, widths, cut)
        np.testing.assert_array_equal(got[0], want[0])
        assert len(got[2]) == len(want[1])
        for a, b in zip(got[2], want[1]):
            np.testing.assert_array_equal(a, b)

    def test_fits_build_no_window_table(self, monkeypatch):
        sample, _ = make_wn_sample(10, 40, np.pi / 5, seed=3)
        sizes = []
        window = model._window
        monkeypatch.setattr(
            model, "_window", lambda w: sizes.append(np.prod([2 * k + 1 for k in w])) or window(w)
        )

        def refuse(*args):
            raise AssertionError("the window was scored")

        monkeypatch.setattr(model, "_block_top", refuse)
        fit_em(sample, None, LatticeConfig(1))
        fit_cem(sample, None, LatticeConfig(1))
        assert all(size < model._PRUNE_MIN_ROWS for size in sizes)

    def test_ten_dimensions_at_two_turns(self):
        # 9 765 625 rows: at sigma = pi/5 the rows with some |r_k| = 2
        # carry no mass that rounding can see, so the fits are the J=1
        # fits'
        sample, _ = make_wn_sample(10, 100, np.pi / 5, seed=1)
        wide, narrow = LatticeConfig(2), LatticeConfig(1)
        assert wide.n_rows(10) == 9_765_625
        em_wide, em_narrow = fit_em(sample, None, wide), fit_em(sample, None, narrow)
        np.testing.assert_array_equal(em_wide.loglik_trace, em_narrow.loglik_trace)
        np.testing.assert_array_equal(em_wide.params.sigma, em_narrow.params.sigma)
        cem_wide, cem_narrow = fit_cem(sample, None, wide), fit_cem(sample, None, narrow)
        np.testing.assert_array_equal(cem_wide.coefficients, cem_narrow.coefficients)
        np.testing.assert_array_equal(cem_wide.params.sigma, cem_narrow.params.sigma)


class TestLogCholesky:
    def test_univariate_layout(self):
        params = WnParams(np.array([1.5]), np.array([[4.0]]))
        theta = to_log_cholesky(params)
        assert theta.shape == (2,)
        assert theta[0] == 1.5
        assert theta[1] == pytest.approx(np.log(2.0))

    def test_round_trip_from_params(self):
        sample, params = make_wn_sample(3, 10, 0.7, seed=8)
        back = from_log_cholesky(to_log_cholesky(params), 3)
        np.testing.assert_allclose(back.mu, params.mu, atol=1e-12)
        np.testing.assert_allclose(back.sigma, params.sigma, rtol=1e-10, atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=25)
    def test_round_trip_from_theta(self, seed):
        gen = np.random.default_rng(seed)
        p = int(gen.integers(1, 4))
        theta = gen.normal(scale=1.0, size=p + p * (p + 1) // 2)
        params = from_log_cholesky(theta, p)
        # any real vector maps to a valid (positive definite) model
        assert np.linalg.eigvalsh(params.sigma).min() > 0.0
        np.testing.assert_allclose(to_log_cholesky(params), theta, atol=1e-9)

    def test_theta_length_validated(self):
        with pytest.raises(ValueError):
            from_log_cholesky(np.zeros(4), 2)
