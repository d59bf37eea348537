import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wntorus import (
    DegenerateStatisticError,
    angle_separation,
    center_to,
    circular_correlation,
    circular_mean,
    initial_params,
    mean_resultant_length,
    wrap_angle,
)
from wntorus.circular import TWO_PI

from .conftest import make_wn_sample, quantize_angles

finite_angles = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestWrapAngle:
    def test_known_values(self):
        assert wrap_angle(TWO_PI + 0.5) == pytest.approx(0.5, abs=1e-12)
        assert wrap_angle(-0.5) == pytest.approx(TWO_PI - 0.5, abs=1e-12)
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(TWO_PI) == 0.0
        assert wrap_angle(-TWO_PI) == 0.0

    def test_scalar_returns_scalar(self):
        out = wrap_angle(7.0)
        assert np.isscalar(out) or np.ndim(out) == 0

    def test_array_shape_preserved(self):
        x = np.array([[0.1, -0.1], [10.0, -10.0]])
        assert wrap_angle(x).shape == x.shape

    @given(finite_angles)
    @settings(deadline=None)
    def test_range_and_idempotent(self, x):
        w = wrap_angle(x)
        assert 0.0 <= w < TWO_PI
        assert wrap_angle(w) == w

    @given(finite_angles)
    @settings(deadline=None)
    def test_congruent_mod_two_pi(self, x):
        w = wrap_angle(x)
        k = (x - w) / TWO_PI
        assert abs(k - round(k)) < 1e-6

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            wrap_angle(bad)
        with pytest.raises(ValueError):
            wrap_angle(np.array([0.0, bad]))


class TestCenterTo:
    @given(finite_angles, st.floats(min_value=0.0, max_value=TWO_PI - 1e-9))
    @settings(deadline=None)
    def test_result_in_half_open_window(self, y, mu):
        c = center_to(y, mu)
        d = c - mu
        assert -np.pi - 1e-9 < d <= np.pi + 1e-9
        # congruence: the applied shift is a whole number of turns
        k = (y - c) / TWO_PI
        assert abs(k - round(k)) < 1e-6

    def test_boundary_maps_to_plus_pi(self):
        # representative exactly pi away lands at mu + pi, never mu - pi
        assert center_to(0.0, np.pi) == TWO_PI
        assert center_to(np.pi, 0.0) == pytest.approx(np.pi)
        c = center_to(np.array([0.0]), np.array([np.pi]))
        assert c[0] - np.pi == pytest.approx(np.pi)

    def test_exact_turn_shift_invariance_on_quantized_grid(self, rng):
        y = quantize_angles(rng.uniform(0.0, TWO_PI, size=(64, 3)))
        mu = np.array([0.3, 3.0, 6.0])
        base = center_to(y, mu)
        for k in (-3, -1, 1, 2):
            shifted = center_to(y + TWO_PI * k, mu)
            np.testing.assert_array_equal(shifted, base)

    def test_broadcasts_rows_against_mu(self):
        y = np.array([[0.1, 6.0], [3.0, 0.2]])
        mu = np.array([6.2, 0.1])
        c = center_to(y, mu)
        assert c.shape == y.shape
        assert np.all(np.abs(c - mu) <= np.pi + 1e-12)


class TestCircularMean:
    def test_quarter_turn_pair(self):
        assert circular_mean(np.array([0.0, np.pi / 2])) == pytest.approx(np.pi / 4)

    def test_wrapping_beats_arithmetic_mean(self):
        # two angles straddling zero: arithmetic mean is near pi, the
        # circular mean is near zero
        x = np.array([0.1, TWO_PI - 0.1])
        assert circular_mean(x) == pytest.approx(0.0, abs=1e-12) or circular_mean(
            x
        ) == pytest.approx(TWO_PI, abs=1e-12)

    def test_rotation_equivariance(self, rng):
        x = rng.uniform(0, 1.0, size=200)
        for c in (0.5, 2.0, 5.0):
            lhs = circular_mean(wrap_angle(x + c))
            rhs = wrap_angle(circular_mean(x) + c)
            assert 1.0 - np.cos(lhs - rhs) < 1e-20

    def test_antipodal_raises(self):
        with pytest.raises(DegenerateStatisticError):
            circular_mean(np.array([np.pi / 2, 3 * np.pi / 2]))


class TestMeanResultantLength:
    def test_constant_sample_gives_one(self):
        assert mean_resultant_length(np.full(10, 1.3)) == pytest.approx(1.0)
        assert mean_resultant_length(np.full(10, 1.3)) <= 1.0

    def test_antipodal_gives_zero(self):
        assert mean_resultant_length(np.array([0.0, np.pi])) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_monte_carlo_matches_gaussian_concentration(self):
        # for a wrapped normal the population value is exp(-sigma^2/2)
        sigma = np.pi / 4
        sample, _ = make_wn_sample(1, 200_000, sigma, seed=5, mu=[1.0])
        rho = mean_resultant_length(sample[:, 0])
        assert rho == pytest.approx(np.exp(-(sigma**2) / 2.0), abs=0.01)


class TestCircularCorrelation:
    def test_self_correlation_is_one(self, rng):
        x = rng.uniform(0, TWO_PI, size=300)
        assert circular_correlation(x, x) == pytest.approx(1.0)

    def test_reflection_gives_minus_one(self, rng):
        x = rng.uniform(0.0, 1.5, size=300)
        y = wrap_angle(-x)
        assert circular_correlation(x, y) == pytest.approx(-1.0, abs=1e-12)

    def test_rotation_invariance(self, rng):
        x = rng.normal(1.0, 0.4, size=400) % TWO_PI
        y = wrap_angle(x + rng.normal(0.0, 0.3, size=400))
        base = circular_correlation(x, y)
        rotated = circular_correlation(wrap_angle(x + 2.5), wrap_angle(y + 5.1))
        assert rotated == pytest.approx(base, abs=1e-10)

    def test_range_clipped(self, rng):
        for seed in range(10):
            gen = np.random.default_rng(seed)
            x = gen.uniform(0, TWO_PI, 50)
            y = gen.uniform(0, TWO_PI, 50)
            r = circular_correlation(x, y)
            assert -1.0 <= r <= 1.0

    def test_constant_input_raises(self):
        with pytest.raises(DegenerateStatisticError):
            circular_correlation(np.full(20, 0.7), np.linspace(0.1, 1.0, 20))


class TestAngleSeparation:
    def test_zero_for_equal_mod_two_pi(self):
        a = np.array([0.5, 3.0])
        assert angle_separation(a, a) == 0.0
        assert angle_separation(a, a + TWO_PI) == pytest.approx(0.0, abs=1e-15)

    def test_antipodal_hits_upper_bound(self):
        mu = np.array([0.5, 1.5, 2.5])
        assert angle_separation(mu, mu + np.pi) == pytest.approx(6.0, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=30)
    def test_symmetric_and_bounded(self, seed):
        gen = np.random.default_rng(seed)
        a = gen.uniform(0, TWO_PI, 4)
        b = gen.uniform(0, TWO_PI, 4)
        s = angle_separation(a, b)
        assert s == angle_separation(b, a)
        assert 0.0 <= s <= 8.0 + 1e-12


class TestInitialParams:
    def test_moment_inversion_diagonal(self):
        sample, params = make_wn_sample(1, 100_000, 0.5, seed=11, mu=[1.0])
        est = initial_params(sample)
        assert est.mu[0] == pytest.approx(1.0, abs=0.02)
        # diagonal entries invert the resultant length exactly
        rho = mean_resultant_length(sample[:, 0])
        assert est.sigma[0, 0] == pytest.approx(-2.0 * np.log(rho), rel=1e-12)
        assert est.sigma[0, 0] == pytest.approx(0.25, abs=0.02)

    def test_offdiagonal_scaling(self):
        sample, _ = make_wn_sample(5, 500, 0.4, seed=3)
        s = initial_params(sample).sigma
        scale = np.sqrt(np.diag(s))
        for a in range(5):
            for b in range(a + 1, 5):
                r = circular_correlation(sample[:, a], sample[:, b])
                assert s[a, b] == s[b, a] == r * scale[a] * scale[b]

    def test_result_is_positive_definite_with_duplicated_column(self, rng):
        x = rng.normal(3.0, 0.3, size=200) % TWO_PI
        sample = np.column_stack([x, x])
        est = initial_params(sample)  # raw moment matrix is singular here
        assert np.linalg.eigvalsh(est.sigma).min() > 0.0

    def test_uniform_column_raises(self, rng):
        spread = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2] * 25)
        sample = np.column_stack([spread, rng.normal(1.0, 0.1, 100) % TWO_PI])
        with pytest.raises(DegenerateStatisticError):
            initial_params(sample)

    def test_constant_column_raises(self, rng):
        sample = np.column_stack(
            [np.full(50, 2.0), rng.normal(1.0, 0.1, 50) % TWO_PI]
        )
        with pytest.raises(DegenerateStatisticError):
            initial_params(sample)

    def test_input_wrapped_first(self):
        sample, _ = make_wn_sample(2, 300, 0.3, seed=9)
        shifted = sample + TWO_PI * np.array([2.0, -1.0])
        a = initial_params(sample)
        b = initial_params(shifted)
        np.testing.assert_allclose(a.mu, b.mu, atol=1e-12)
        np.testing.assert_allclose(a.sigma, b.sigma, atol=1e-12)
