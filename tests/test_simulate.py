import csv
import io

import numpy as np
import pytest

from wntorus import (
    ConvergenceError,
    CorrelationSpec,
    ExperimentConfig,
    LatticeConfig,
    WnParams,
    circular_mean,
    evaluate_fit,
    fit,
    fit_em,
    mean_resultant_length,
    random_correlation,
    run_experiment,
    sample_wn,
    scale_to_covariance,
    scatter_divergence,
    summarize_report,
    wilks_lambda,
    write_report_csv,
)
from wntorus import circular, model, simulate
from wntorus.model import TWO_PI
from wntorus.simulate import REPORT_COLUMNS

from . import oracles


class TestSampleWn:
    def test_range_and_shape(self):
        params = WnParams(np.array([1.0, 5.0]), np.diag([4.0, 0.2]))
        y = sample_wn(params, 257, seed=1)
        assert y.shape == (257, 2)
        assert np.all((y >= 0.0) & (y < TWO_PI))

    def test_seed_reproducibility(self):
        params = WnParams(np.array([1.0]), np.array([[1.0]]))
        np.testing.assert_array_equal(
            sample_wn(params, 50, seed=9), sample_wn(params, 50, seed=9)
        )
        assert not np.array_equal(
            sample_wn(params, 50, seed=9), sample_wn(params, 50, seed=10)
        )

    def test_tight_scale_centers_on_mean(self):
        mu = np.array([0.3, 4.4])
        params = WnParams(mu, (np.pi / 64) ** 2 * np.eye(2))
        y = sample_wn(params, 10_000, seed=2)
        for r in range(2):
            d = circular_mean(y[:, r]) - mu[r]
            assert 1.0 - np.cos(d) < (0.05**2) / 2

    def test_concentration_matches_theory(self):
        sigma = np.pi / 4
        params = WnParams(np.array([2.0]), np.array([[sigma**2]]))
        y = sample_wn(params, 100_000, seed=3)
        assert mean_resultant_length(y[:, 0]) == pytest.approx(
            np.exp(-(sigma**2) / 2), abs=0.01
        )

    def test_requires_positive_count(self):
        params = WnParams(np.array([0.0]), np.eye(1))
        with pytest.raises(ValueError):
            sample_wn(params, 0, seed=1)


class TestRandomCorrelation:
    def test_two_dimensional_closed_form(self):
        for seed in range(8):
            r = random_correlation(CorrelationSpec(p=2), seed=seed)
            assert abs(r[0, 1]) == pytest.approx(19.0 / 21.0, abs=1e-6)
            np.testing.assert_array_equal(np.diag(r), [1.0, 1.0])

    def test_properties_at_moderate_dimension(self):
        spec = CorrelationSpec(p=5, cn=20.0)
        for seed in range(5):
            r = random_correlation(spec, seed=seed)
            np.testing.assert_allclose(r, r.T, atol=1e-12)
            np.testing.assert_allclose(np.diag(r), 1.0, atol=1e-12)
            w = np.linalg.eigvalsh(r)
            assert w.min() > 0.0
            cond = w.max() / w.min()
            assert 20.0 / 1.001 <= cond <= 20.0 * 1.001

    def test_other_condition_numbers(self):
        r = random_correlation(CorrelationSpec(p=4, cn=5.0), seed=11)
        w = np.linalg.eigvalsh(r)
        assert w.max() / w.min() == pytest.approx(5.0, rel=1e-3)

    def test_failure_reports_achieved_condition_number(self):
        spec = CorrelationSpec(p=6, cn=20.0, tol=1e-15, max_rounds=1)
        with pytest.raises(ConvergenceError) as exc:
            random_correlation(spec, seed=0)
        assert any(ch.isdigit() for ch in str(exc.value))

    def test_correlation_spec_validation(self):
        with pytest.raises(ValueError):
            CorrelationSpec(p=1)
        with pytest.raises(ValueError):
            CorrelationSpec(p=3, cn=1.0)
        with pytest.raises(ValueError):
            CorrelationSpec(p=3, tol=0.0)
        for unreachable in (1e308, 1e15, 4.6e12):
            with pytest.raises(ValueError, match="below"):
                CorrelationSpec(p=3, cn=unreachable)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                CorrelationSpec(p=3, cn=bad)
            with pytest.raises(ValueError):
                CorrelationSpec(p=3, tol=bad)


class TestScaleToCovariance:
    def test_identity_case(self):
        np.testing.assert_allclose(
            scale_to_covariance(np.eye(2), np.pi / 4),
            (np.pi / 4) ** 2 * np.eye(2),
        )

    def test_diagonal_and_condition_preserved(self):
        r = random_correlation(CorrelationSpec(p=3), seed=21)
        cov = scale_to_covariance(r, 0.7)
        np.testing.assert_allclose(np.diag(cov), 0.49, atol=1e-12)
        assert np.linalg.cond(cov) == pytest.approx(np.linalg.cond(r), rel=1e-9)

    def test_scale_validated(self):
        with pytest.raises(ValueError):
            scale_to_covariance(np.eye(2), 0.0)

    def test_scale_whose_square_overflows_rejected(self):
        with pytest.raises(ValueError, match="at most"):
            scale_to_covariance(np.eye(2), 1e308)


class TestWilksLambda:
    def test_zero_at_truth(self):
        params = WnParams(np.array([1.0]), np.array([[0.5]]))
        y = sample_wn(params, 30, seed=31)
        assert wilks_lambda(y, params, params) == 0.0

    def test_nonnegative_at_maximizer(self):
        params = WnParams(np.array([2.0]), np.array([[(np.pi / 4) ** 2]]))
        y = sample_wn(params, 200, seed=32)
        gm, gs, _ = oracles.grid_mle_1d(y[:, 0])
        hat = WnParams(np.array([gm]), np.array([[gs**2]]))
        assert wilks_lambda(y, hat, params) >= 0.0

    def test_negative_for_bad_estimate(self):
        params = WnParams(np.array([2.0]), np.array([[0.2]]))
        y = sample_wn(params, 100, seed=33)
        bad = WnParams(np.array([5.0]), np.array([[0.01]]))
        assert wilks_lambda(y, bad, params) < 0.0

    def test_given_truth_loglik_is_used(self):
        params = WnParams(np.array([2.0]), np.array([[0.2]]))
        y = sample_wn(params, 50, seed=34)
        hat = fit_em(y).params
        ll_truth = model.log_likelihood(y, params)
        assert wilks_lambda(y, hat, params, ll_truth=ll_truth) == wilks_lambda(y, hat, params)
        assert wilks_lambda(y, hat, params, ll_truth=ll_truth + 1.0) != wilks_lambda(y, hat, params)


class TestScatterDivergence:
    def test_zero_at_equality(self):
        r = random_correlation(CorrelationSpec(p=3), seed=41)
        cov = scale_to_covariance(r, 1.3)
        assert abs(scatter_divergence(cov, cov)) < 1e-10

    def test_scalar_double(self):
        assert scatter_divergence(
            np.array([[2.0]]), np.array([[1.0]])
        ) == pytest.approx(1.0 - np.log(2.0))

    def test_nonnegative_and_matches_eigen_oracle(self, rng):
        for _ in range(20):
            a = rng.normal(size=(3, 3))
            b = rng.normal(size=(3, 3))
            s_hat = a @ a.T + 0.5 * np.eye(3)
            s_true = b @ b.T + 0.5 * np.eye(3)
            got = scatter_divergence(s_hat, s_true)
            assert got >= 0.0
            assert got == pytest.approx(
                oracles.scatter_divergence_eig(s_hat, s_true), rel=1e-9, abs=1e-9
            )

    def test_rejects_indefinite(self):
        with pytest.raises(Exception):
            scatter_divergence(np.array([[-1.0]]), np.array([[1.0]]))


class TestEvaluateFit:
    def test_reports_consistent_fields(self):
        params = WnParams(np.array([1.0, 4.0]), 0.25 * np.eye(2))
        y = sample_wn(params, 100, seed=51)
        res = fit_em(y)
        report = evaluate_fit(y, res.params, params)
        assert 0.0 <= report.angle_sep <= 4.0
        assert report.scatter_div >= 0.0
        assert report.wilks == wilks_lambda(y, res.params, params)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(p_list=(), n_list=(10,), sigma_list=(0.3,), replications=1)
        with pytest.raises(ValueError):
            ExperimentConfig(p_list=(1,), n_list=(10,), sigma_list=(0.3,), replications=0)
        with pytest.raises(ValueError):
            ExperimentConfig(
                p_list=(1,),
                n_list=(10,),
                sigma_list=(0.3,),
                replications=1,
                methods=("gradient-descent",),
            )
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                ExperimentConfig(
                    p_list=(1,), n_list=(10,), sigma_list=(0.3, bad), replications=1
                )
            with pytest.raises(ValueError):
                ExperimentConfig(
                    p_list=(2,), n_list=(10,), sigma_list=(0.3,), replications=1,
                    cn=bad,
                )

    def test_overflowing_scale_and_condition_number_rejected(self):
        with pytest.raises(ValueError, match="squares are finite"):
            ExperimentConfig(
                p_list=(2,), n_list=(10,), sigma_list=(1e308,), replications=1
            )
        with pytest.raises(ValueError, match="below"):
            ExperimentConfig(
                p_list=(2,), n_list=(10,), sigma_list=(0.3,), replications=1, cn=1e308
            )

    @pytest.mark.parametrize(
        "overrides,needle",
        [
            (dict(p_list=(1, 2), cn=0.5), "cn must exceed 1"),
            (dict(p_list=(2,), cn=1.0), "cn must exceed 1"),
            (dict(J=-1), "J must be"),
            (dict(p_list=(6,), J=20), "J=20 in dimension p=6"),
            (dict(seed=-3), "seed must be non-negative"),
        ],
    )
    def test_settings_a_replicate_would_refuse_are_rejected(self, overrides, needle):
        base = dict(p_list=(1,), n_list=(10,), sigma_list=(0.3,), replications=1)
        with pytest.raises(ValueError, match=needle):
            ExperimentConfig(**{**base, **overrides})

    def test_condition_number_unused_at_p_1(self):
        config = ExperimentConfig(
            p_list=(1,), n_list=(10,), sigma_list=(0.3,), replications=1, cn=0.5
        )
        assert config.cn == 0.5

    def test_cells_cross_factors(self):
        config = ExperimentConfig(
            p_list=(1, 2), n_list=(10, 20), sigma_list=(0.3,), replications=1
        )
        assert len(list(config.cells())) == 4


def tiny_config(**overrides):
    base = dict(
        p_list=(1,),
        n_list=(20,),
        sigma_list=(np.pi / 8,),
        replications=2,
        methods=("em",),
        seed=77,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_row_bookkeeping(self):
        rows = run_experiment(tiny_config())
        assert len(rows) == 2
        for row in rows:
            assert row["method"] == "em"
            assert row["p"] == 1
            assert row["n"] == 20
            assert set(REPORT_COLUMNS) <= set(row)

    def test_angle_separation_bounds_on_all_rows(self):
        rows = run_experiment(
            tiny_config(methods=("em", "cem", "direct"), replications=3)
        )
        for row in rows:
            assert 0.0 <= row["angle_sep"] <= 2.0 * row["p"] + 1e-12

    def test_consistency_ordering_in_sample_size(self):
        config = tiny_config(n_list=(50, 500), replications=100)
        rows = run_experiment(config, workers=2)
        small = np.median([r["angle_sep"] for r in rows if r["n"] == 50])
        large = np.median([r["angle_sep"] for r in rows if r["n"] == 500])
        assert large < small

    def test_truth_start_close_to_moment_start_at_small_scale(self):
        config = tiny_config(methods=("em", "emT"), replications=30, n_list=(100,))
        rows = run_experiment(config)
        lam = {}
        for row in rows:
            lam.setdefault(row["method"], {})[row["replicate"]] = row["wilks"]
        diffs = [abs(lam["em"][i] - lam["emT"][i]) for i in lam["em"]]
        assert np.median(diffs) < 1.0

    def test_cem_then_em_methods(self):
        config = tiny_config(p_list=(2,), methods=("cem-then-em", "cem-then-emT"))
        rows = run_experiment(config)
        assert [r["method"] for r in rows] == ["cem-then-em", "cem-then-emT"] * 2
        for row in rows:
            assert row["iterations"] >= 1
            for col in ("wilks", "angle_sep", "scatter_div", "runtime_seconds"):
                assert np.isfinite(row[col])

    def test_failures_recorded_not_raised(self):
        config = tiny_config(
            p_list=(7,), methods=("direct",), n_list=(10,), replications=2
        )
        rows = run_experiment(config)
        assert len(rows) == 2
        for row in rows:
            assert row["converged"] is False
            assert np.isnan(row["wilks"])
            assert row["iterations"] == 0

    def test_deterministic_across_workers_and_runs(self):
        config = tiny_config(replications=4, methods=("em", "cem"))
        rows_a = run_experiment(config, workers=1)
        rows_b = run_experiment(config, workers=3)
        keep = [c for c in REPORT_COLUMNS if c != "runtime_seconds"]
        for a, b in zip(rows_a, rows_b):
            for col in keep:
                assert a[col] == b[col] or (
                    isinstance(a[col], float)
                    and np.isnan(a[col])
                    and np.isnan(b[col])
                ), col

    def test_replicate_makes_start_and_truth_loglik_once(self, monkeypatch):
        # em, cem and direct share each replicate's moment start and the
        # log-likelihood of its truth (the only parameters with mean 0);
        # only cem's fitted parameters need a log-likelihood of their own
        starts, truths, fitted = [], [], []
        initial_params, log_likelihood = circular.initial_params, model.log_likelihood

        def counted_start(sample):
            starts.append(1)
            return initial_params(sample)

        def counted_loglik(sample, params, config=LatticeConfig()):
            (fitted if np.any(params.mu) else truths).append(1)
            return log_likelihood(sample, params, config)

        monkeypatch.setattr(circular, "initial_params", counted_start)
        monkeypatch.setattr(model, "log_likelihood", counted_loglik)
        config = tiny_config(p_list=(2,), methods=("em", "cem", "direct"), replications=3)
        rows = run_experiment(config)
        assert len(rows) == 9
        assert len(starts) == 3
        assert len(truths) == 3
        assert len(fitted) == 3

    def test_shared_start_and_truth_loglik_reproduce_separate_fits(self):
        config = tiny_config(
            p_list=(2,), sigma_list=(np.pi / 2,), methods=("em", "cem", "direct", "emT")
        )
        lattice = LatticeConfig(config.J)
        for row in run_experiment(config):
            # the replicate's draws, as the runner makes them
            rng = np.random.default_rng(
                np.random.SeedSequence([config.seed, 0, row["replicate"]])
            )
            corr = random_correlation(CorrelationSpec(2, config.cn), rng)
            truth = WnParams(np.zeros(2), scale_to_covariance(corr, row["sigma"]))
            sample = sample_wn(truth, row["n"], rng)
            base = row["method"].removesuffix("T")
            res = fit(sample, base, truth if base != row["method"] else None, lattice)
            ll_fit = None if base == "cem" else res.loglik_trace[-1]
            report = evaluate_fit(sample, res.params, truth, lattice, ll_fit=ll_fit)
            assert (row["wilks"], row["angle_sep"], row["scatter_div"]) == (
                report.wilks, report.angle_sep, report.scatter_div,
            )
            assert row["iterations"] == res.iterations

    def test_reused_fit_loglik_matches_a_fresh_pass(self, monkeypatch):
        # the runner takes em's and direct's log-likelihood from the fit's
        # trace; a pass at the wrapped fitted parameters differs by rounding
        fresh = []
        evaluate = simulate.evaluate_fit

        def recomputing(sample, fitted, truth, config, **known):
            ll = model.log_likelihood(sample, fitted, config)
            fresh.append((ll, evaluate(sample, fitted, truth, config).wilks))
            return evaluate(sample, fitted, truth, config, **known)

        monkeypatch.setattr(simulate, "evaluate_fit", recomputing)
        config = tiny_config(
            p_list=(1, 2),
            sigma_list=(np.pi / 8, np.pi / 2),
            methods=("em", "cem", "direct", "cem-then-em", "emT", "directT"),
        )
        rows = run_experiment(config)
        assert len(rows) == len(fresh) == 48
        for row, (ll, wilks) in zip(rows, fresh):
            assert abs(row["wilks"] - wilks) <= 1e-9 * max(1.0, abs(ll))

    def test_seed_changes_results(self):
        a = run_experiment(tiny_config(seed=1))
        b = run_experiment(tiny_config(seed=2))
        assert any(x["wilks"] != y["wilks"] for x, y in zip(a, b))


class TestReportIo:
    def test_csv_round_trip_full_precision(self, tmp_path):
        rows = run_experiment(tiny_config())
        path = tmp_path / "report.csv"
        write_report_csv(rows, path)
        with open(path, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == len(rows)
        assert list(parsed[0]) == list(REPORT_COLUMNS)
        for row, back in zip(rows, parsed):
            assert float(back["wilks"]) == row["wilks"]
            assert int(back["iterations"]) == row["iterations"]

    def test_summary_medians_skip_failures(self):
        # A later cell that comes first in the input must come out second.
        later = [
            dict(
                p=2, n=10, sigma=0.3, method="cem", replicate=i,
                wilks=w, angle_sep=w, scatter_div=10.0 * w,
                runtime_seconds=0.0, converged=True, iterations=3,
            )
            for i, w in enumerate([5.0, 7.0])
        ]
        rows = later[:1] + [
            dict(
                p=1, n=10, sigma=0.3, method="em", replicate=i,
                wilks=w, angle_sep=w, scatter_div=w,
                runtime_seconds=0.0, converged=True, iterations=3,
            )
            for i, w in enumerate([1.0, 2.0, 3.0])
        ]
        rows.append(
            dict(
                p=1, n=10, sigma=0.3, method="em", replicate=3,
                wilks=float("nan"), angle_sep=float("nan"),
                scatter_div=float("nan"), runtime_seconds=0.0,
                converged=False, iterations=0,
            )
        )
        rows.append(later[1])
        stats, other = summarize_report(rows)
        assert (stats["p"], stats["n"], stats["sigma"], stats["method"]) == (
            1, 10, 0.3, "em",
        )
        assert stats["median_angle_sep"] == 2.0
        assert stats["failures"] == 1
        assert stats["replicates"] == 4
        assert other == {
            "p": 2, "n": 10, "sigma": 0.3, "method": "cem",
            "replicates": 2, "failures": 0,
            "median_wilks": 6.0, "median_angle_sep": 6.0, "median_scatter_div": 60.0,
        }
