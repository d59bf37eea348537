import json
import subprocess
import sys

import numpy as np
import pytest

from wntorus import (
    METHODS,
    DimensionGuardError,
    FitFailure,
    MixedParams,
    MixedSample,
    WnParams,
    cli,
    fit_direct,
    fit_mixed_cem,
    log_likelihood,
    mixed_log_likelihood,
    sample_wn,
    wrap_angle,
)
from wntorus import cli
from wntorus.cli import build_parser, main, parse_sigma_token
from wntorus.model import TWO_PI


def write_csv(path, array, header=None):
    kwargs = {"delimiter": ","}
    if header:
        kwargs.update(header=header, comments="")
    np.savetxt(path, np.asarray(array), **kwargs)
    return str(path)


@pytest.fixture
def torus_csv(tmp_path):
    params = WnParams(np.array([0.8, 4.0]), (np.pi / 4) ** 2 * np.eye(2))
    sample = sample_wn(params, 500, seed=123)
    return write_csv(tmp_path / "angles.csv", sample)


class TestSigmaTokens:
    @pytest.mark.parametrize(
        "token,value",
        [
            ("pi/8", np.pi / 8),
            ("pi/4", np.pi / 4),
            ("pi/2", np.pi / 2),
            ("pi", np.pi),
            ("3pi/2", 1.5 * np.pi),
            ("2pi", TWO_PI),
            ("0.37", 0.37),
        ],
    )
    def test_valid(self, token, value):
        assert parse_sigma_token(token) == pytest.approx(value, rel=1e-15)

    @pytest.mark.parametrize("token", ["", "pie", "tau", "pi/0", "--"])
    def test_invalid(self, token):
        with pytest.raises(ValueError):
            parse_sigma_token(token)


class TestFitCommand:
    def test_em_json_schema(self, torus_csv, capsys):
        assert main(["fit", torus_csv, "--method", "em"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["method"] == "em"
        assert out["p"] == 2 and out["n"] == 500
        assert len(out["mu"]) == 2
        assert len(out["sigma"]) == 2 and len(out["sigma"][0]) == 2
        assert np.isfinite(out["loglik"])
        assert isinstance(out["converged"], bool)
        assert isinstance(out["iterations"], int)
        assert out["warnings"] == []
        assert all(0.0 <= m < TWO_PI for m in out["mu"])

    def test_recovers_simulation_parameters(self, torus_csv, capsys):
        main(["fit", torus_csv, "--method", "em"])
        out = json.loads(capsys.readouterr().out)
        assert 1.0 - np.cos(out["mu"][0] - 0.8) < 0.01
        assert 1.0 - np.cos(out["mu"][1] - 4.0) < 0.01
        assert out["sigma"][0][0] == pytest.approx((np.pi / 4) ** 2, rel=0.3)

    def test_output_file(self, torus_csv, tmp_path, capsys):
        dest = tmp_path / "fit.json"
        assert main(["fit", torus_csv, "--output", str(dest)]) == 0
        assert json.loads(dest.read_text())["method"] == "em"
        assert capsys.readouterr().out == ""

    def test_cem_writes_unwrapped_and_coefficients(self, torus_csv, tmp_path, capsys):
        dest = tmp_path / "fit.json"
        assert main(
            ["fit", torus_csv, "--method", "cem", "--output", str(dest)]
        ) == 0
        out = json.loads(dest.read_text())
        assert out["unwrapped_path"].endswith(".unwrapped.csv")
        coeffs = np.asarray(out["coefficients"])
        assert coeffs.shape == (500, 2)
        unwrapped = np.loadtxt(out["unwrapped_path"], delimiter=",", ndmin=2)
        original = np.loadtxt(torus_csv, delimiter=",", ndmin=2)
        np.testing.assert_allclose(wrap_angle(unwrapped), original, atol=1e-9)

    def test_unwrapped_destination_flag(self, torus_csv, tmp_path, capsys):
        dest = tmp_path / "x.csv"
        main(["fit", torus_csv, "--method", "cem", "--unwrapped-out", str(dest)])
        out = json.loads(capsys.readouterr().out)
        assert out["unwrapped_path"] == str(dest)
        assert dest.exists()

    def test_cem_then_em_chain(self, torus_csv, capsys):
        assert main(["fit", torus_csv, "--method", "cem-then-em"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["method"] == "cem-then-em"
        assert "coefficients" not in out

    def test_direct_method(self, torus_csv, capsys):
        assert main(["fit", torus_csv, "--method", "direct"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert np.isfinite(out["loglik"])

    def test_direct_spends_max_iter_evaluations(self, torus_csv, capsys):
        assert main(["fit", torus_csv, "--method", "direct", "--max-iter", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["iterations"] == 1
        assert out["converged"] is False

    def test_methods_agree_on_easy_data(self, torus_csv, capsys):
        lls = {}
        for method in ("em", "cem", "direct", "cem-then-em"):
            main(["fit", torus_csv, "--method", method])
            lls[method] = json.loads(capsys.readouterr().out)["loglik"]
        spread = max(lls.values()) - min(lls.values())
        assert spread < 1e-2

    @pytest.mark.parametrize("method", METHODS)
    def test_loglik_is_that_of_the_reported_fit(self, torus_csv, method, capsys):
        assert main(["fit", torus_csv, "--method", method]) == 0
        out = json.loads(capsys.readouterr().out)
        params = WnParams(np.array(out["mu"]), np.array(out["sigma"]))
        sample = np.loadtxt(torus_csv, delimiter=",", ndmin=2)
        assert out["loglik"] == pytest.approx(
            log_likelihood(sample, params), rel=1e-12
        )

    @pytest.mark.parametrize("method", ("em", "cem"))
    def test_mixed_loglik_is_that_of_the_reported_fit(self, tmp_path, method, capsys):
        gen = np.random.default_rng(8)
        angles = wrap_angle(gen.normal([1.0, 5.0], 0.9, size=(150, 2)))
        linear = np.sin(angles[:, :1]) + gen.normal(0.0, 0.5, size=(150, 1))
        path = write_csv(tmp_path / "mix.csv", np.hstack([angles, linear]))
        argv = ["fit", path, "--linear-columns", "2", "--method", method]
        assert main(argv + ["--unwrapped-out", str(tmp_path / "u.csv")]) == 0
        out = json.loads(capsys.readouterr().out)
        mu, sigma = np.array(out["mu"]), np.array(out["sigma"])
        params = MixedParams(mu[:2], mu[2:], sigma[:2, :2], sigma[:2, 2:], sigma[2:, 2:])
        sample = MixedSample(angles, linear)
        assert out["loglik"] == pytest.approx(
            mixed_log_likelihood(sample, params), rel=1e-12
        )

    @pytest.mark.parametrize("exc", FitFailure.__subclasses__())
    def test_fit_failure_exit_codes(self, torus_csv, exc, monkeypatch, capsys):
        def failing_fit(*args, **kwargs):
            raise exc("injected failure")

        monkeypatch.setattr(cli, "fit", failing_fit)
        code = main(["fit", torus_csv])
        assert code == (1 if exc is DimensionGuardError else 2)
        assert "injected failure" in capsys.readouterr().err

    def test_header_csv_accepted(self, tmp_path, capsys):
        params = WnParams(np.array([1.0]), np.array([[0.2]]))
        path = write_csv(
            tmp_path / "h.csv", sample_wn(params, 80, seed=5), header="angle"
        )
        assert main(["fit", path]) == 0

    def test_degrees_flag(self, tmp_path, capsys):
        gen = np.random.default_rng(6)
        radians = gen.normal(1.0, 0.2, size=(200, 1)) % TWO_PI
        p_rad = write_csv(tmp_path / "rad.csv", radians)
        p_deg = write_csv(tmp_path / "deg.csv", np.degrees(radians))
        main(["fit", p_rad])
        mu_rad = json.loads(capsys.readouterr().out)["mu"][0]
        main(["fit", p_deg, "--degrees"])
        mu_deg = json.loads(capsys.readouterr().out)["mu"][0]
        assert mu_deg == pytest.approx(mu_rad, abs=1e-9)

    def test_out_of_range_value_warns_and_wraps(self, tmp_path, capsys):
        data = np.array([[1.0], [7.0], [1.2], [0.9], [1.1], [1.3]])
        path = write_csv(tmp_path / "w.csv", data)
        assert main(["fit", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["warnings"]
        assert "wrap" in out["warnings"][0].lower()

    def test_empty_csv_exit_1(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert main(["fit", str(path)]) == 1
        assert "empty.csv" in capsys.readouterr().err

    def test_missing_file_exit_1(self, tmp_path, capsys):
        assert main(["fit", str(tmp_path / "nope.csv")]) == 1

    def test_ragged_csv_exit_1(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        assert main(["fit", str(path)]) == 1

    def test_non_finite_exit_1(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("1.0\nnan\n2.0\n")
        assert main(["fit", str(path)]) == 1

    @pytest.mark.parametrize("method", ["em", "cem"])
    def test_non_finite_tol_exit_1(self, torus_csv, method, capsys):
        assert main(["fit", torus_csv, "--method", method, "--tol", "nan"]) == 1
        assert "tol must be finite" in capsys.readouterr().err

    def test_degenerate_data_exit_2(self, tmp_path, capsys):
        path = write_csv(tmp_path / "const.csv", np.full((40, 1), 2.0))
        assert main(["fit", str(path)]) == 2

    def test_mixed_fit(self, tmp_path, capsys):
        gen = np.random.default_rng(7)
        x1 = gen.normal(3.0, 0.3, size=(300, 1))
        x2 = 0.8 * x1 + gen.normal(0.0, 0.4, size=(300, 1))
        path = write_csv(
            tmp_path / "mix.csv", np.hstack([wrap_angle(x1), x2])
        )
        assert main(["fit", path, "--linear-columns", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["linear_columns"] == [1]
        assert len(out["mu"]) == 2
        assert out["sigma"][0][1] == pytest.approx(
            out["sigma"][1][0], abs=1e-12
        )
        assert out["sigma"][0][1] > 0.0

    def test_mixed_cem_writes_unwrapped_and_coefficients(self, tmp_path, capsys):
        gen = np.random.default_rng(10)
        angles = wrap_angle(gen.normal([1.0, 6.0], 0.7, size=(200, 2)))
        linear = angles[:, :1] + gen.normal(0.0, 0.4, size=(200, 1))
        path = write_csv(
            tmp_path / "mix.csv", np.hstack([angles[:, :1], linear, angles[:, 1:]])
        )
        dest = tmp_path / "fit.json"
        assert main(
            ["fit", path, "--linear-columns", "1", "--method", "cem", "--output", str(dest)]
        ) == 0
        out = json.loads(dest.read_text())
        assert out["unwrapped_path"] == str(dest) + ".unwrapped.csv"
        data = np.loadtxt(path, delimiter=",", ndmin=2)
        expected = fit_mixed_cem(
            MixedSample(data[:, [0, 2]], data[:, [1]])
        ).torus_result
        np.testing.assert_array_equal(out["coefficients"], expected.coefficients)
        unwrapped = np.loadtxt(out["unwrapped_path"], delimiter=",", ndmin=2)
        np.testing.assert_array_equal(unwrapped, expected.unwrapped)
        np.testing.assert_allclose(wrap_angle(unwrapped), data[:, [0, 2]], atol=1e-9)

    def test_mixed_rejects_direct(self, tmp_path, capsys):
        gen = np.random.default_rng(8)
        data = np.hstack(
            [
                gen.uniform(0, TWO_PI, size=(30, 1)),
                gen.normal(size=(30, 1)),
            ]
        )
        path = write_csv(tmp_path / "mix2.csv", data)
        assert main(["fit", path, "--linear-columns", "1", "--method", "direct"]) == 1

    def test_linear_columns_validated(self, tmp_path, capsys):
        path = write_csv(
            tmp_path / "m.csv", np.random.default_rng(9).uniform(1, 2, (20, 2))
        )
        assert main(["fit", path, "--linear-columns", "5"]) == 1
        assert main(["fit", path, "--linear-columns", "0,1"]) == 1
        assert main(["fit", path, "--linear-columns", "zero"]) == 1


def write_config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return str(path)


class TestSimulateCommand:
    def test_minimal_run(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "p = 1\nn = 20\nsigma = pi/8\nreps = 2\nmethods = em\nseed = 3\n",
        )
        report = tmp_path / "rep.csv"
        assert main(["simulate", cfg, "--output", str(report)]) == 0
        lines = report.read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 rows
        assert lines[0].startswith("p,n,sigma,method")
        out = capsys.readouterr().out
        assert "median" in out.lower() or "em" in out

    def test_repeat_run_identical_apart_from_runtime(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "p = 2\nn = 15\nsigma = pi/4\nreps = 2\nmethods = em,cem\nseed = 9\n",
        )

        def strip_runtime(path):
            lines = path.read_text().strip().splitlines()
            header = lines[0].split(",")
            drop = header.index("runtime_seconds")
            return [
                ",".join(tok for i, tok in enumerate(line.split(",")) if i != drop)
                for line in lines
            ]

        r1, r2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", cfg, "--output", str(r1)]) == 0
        assert main(["simulate", cfg, "--output", str(r2)]) == 0
        assert strip_runtime(r1) == strip_runtime(r2)

    def test_comments_and_blank_lines_ok(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "# experiment\n\np = 1\nn = 10\nsigma = 0.4\nreps = 1\nmethods = em\n",
        )
        assert main(["simulate", cfg, "--output", str(tmp_path / "r.csv")]) == 0

    def test_unknown_method_exit_1_lists_valid(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "p = 1\nn = 10\nsigma = 0.4\nreps = 1\nmethods = sgd\n"
        )
        assert main(["simulate", cfg, "--output", str(tmp_path / "r.csv")]) == 1
        err = capsys.readouterr().err
        assert "em" in err and "cem" in err

    def test_direct_with_large_p_exit_1(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "p = 10\nn = 10\nsigma = 0.4\nreps = 1\nmethods = direct\nj = 1\n"
        )
        assert main(["simulate", cfg, "--output", str(tmp_path / "r.csv")]) == 1
        assert "guard" in capsys.readouterr().err.lower()

    def test_direct_with_large_p_gives_fit_direct_message(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "p = 10\nn = 10\nsigma = 0.4\nreps = 1\nmethods = direct\nj = 1\n"
        )
        sample = sample_wn(WnParams(np.zeros(10), 0.16 * np.eye(10)), 10, seed=1)
        with pytest.raises(DimensionGuardError) as exc:
            fit_direct(sample)
        assert main(["simulate", cfg, "--output", str(tmp_path / "r.csv")]) == 1
        assert str(exc.value) in capsys.readouterr().err

    def test_missing_required_key_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "p = 1\nn = 10\nreps = 1\n")
        assert main(["simulate", cfg, "--output", str(tmp_path / "r.csv")]) == 1

    def test_unknown_key_exit_1(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "p = 1\nn = 10\nsigma = 0.4\nreps = 1\nbogus = 7\n",
        )
        assert main(["simulate", cfg, "--output", str(tmp_path / "r.csv")]) == 1

    def test_malformed_line_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "p 1\n")
        assert main(["simulate", cfg, "--output", str(tmp_path / "r.csv")]) == 1

    def test_bad_sigma_token_exit_1(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "p = 1\nn = 10\nsigma = tau\nreps = 1\nmethods = em\n"
        )
        assert main(["simulate", cfg, "--output", str(tmp_path / "r.csv")]) == 1

    def test_non_finite_cn_exit_1(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "p = 2\nn = 10\nsigma = 0.4\ncn = nan\nreps = 1\nmethods = em\n"
        )
        assert main(["simulate", cfg, "--output", str(tmp_path / "r.csv")]) == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entries,needle",
        [("sigma = 1e308\n", "sigma"), ("sigma = 0.4\ncn = 1e308\n", "condition number")],
    )
    def test_overflowing_number_exit_1(self, tmp_path, capsys, entries, needle):
        cfg = write_config(tmp_path, "p = 2\nn = 10\nreps = 1\nmethods = em\n" + entries)
        assert main(["simulate", cfg, "--output", str(tmp_path / "r.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and needle in err

    @pytest.mark.parametrize(
        "entries,needle",
        [
            ("p = 1, 2\ncn = 0.5\n", "cn"),
            ("p = 2\nj = -1\n", "J"),
            ("p = 6\nj = 20\n", "J=20"),
            ("p = 2\nseed = -3\n", "seed"),
        ],
    )
    def test_config_refused_before_any_fit(self, tmp_path, capsys, entries, needle):
        cfg = write_config(tmp_path, "n = 10\nsigma = 0.4\nreps = 1\nmethods = em\n" + entries)
        report = tmp_path / "r.csv"
        assert main(["simulate", cfg, "--output", str(report)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and needle in err
        assert not report.exists()


class TestGencorCommand:
    def parse_output(self, text):
        rows = []
        comment = None
        for line in text.strip().splitlines():
            if line.startswith("#"):
                comment = line
                continue
            rows.append([float(tok) for tok in line.split()])
        return np.asarray(rows), comment

    def test_two_dimensional(self, capsys):
        assert main(["gencor", "-p", "2", "--seed", "4"]) == 0
        matrix, comment = self.parse_output(capsys.readouterr().out)
        assert matrix.shape == (2, 2)
        assert abs(matrix[0, 1]) == pytest.approx(19 / 21, abs=1e-6)
        assert matrix[0, 0] == 1.0 and matrix[1, 1] == 1.0
        assert comment and "condition number" in comment

    def test_condition_number_reported(self, capsys):
        assert main(["gencor", "-p", "5", "--seed", "0"]) == 0
        matrix, comment = self.parse_output(capsys.readouterr().out)
        reported = float(comment.split(":")[1])
        w = np.linalg.eigvalsh(matrix)
        assert reported == pytest.approx(w.max() / w.min(), rel=1e-9)
        assert reported == pytest.approx(20.0, rel=1e-3)

    def test_custom_cn(self, capsys):
        assert main(["gencor", "-p", "3", "--cn", "5", "--seed", "1"]) == 0
        matrix, _ = self.parse_output(capsys.readouterr().out)
        w = np.linalg.eigvalsh(matrix)
        assert w.max() / w.min() == pytest.approx(5.0, rel=1e-3)

    def test_non_convergence_exit_2(self, capsys):
        code = main(
            ["gencor", "-p", "6", "--seed", "0", "--tol", "1e-15", "--max-rounds", "1"]
        )
        assert code == 2

    def test_invalid_dimension_exit_1(self, capsys):
        assert main(["gencor", "-p", "1"]) == 1

    def test_unreachable_condition_number_exit_1(self, capsys):
        # the generator stops short of 1e15 (at 1.19e15 for this seed)
        assert main(["gencor", "-p", "3", "--seed", "1", "--cn", "1e15"]) == 1
        assert "condition number must" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--cn", "nan"], ["--cn", "inf"], ["--tol", "nan"], ["--tol", "inf"]]
    )
    def test_non_finite_number_exit_1(self, flags, capsys):
        assert main(["gencor", "-p", "3", *flags]) == 1
        assert "finite" in capsys.readouterr().err


class TestThreadsPlumbing:
    def test_flag_accepted(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "p = 1\nn = 10\nsigma = 0.4\nreps = 2\nmethods = em\n"
        )
        assert main(
            ["--threads", "2", "simulate", cfg, "--output", str(tmp_path / "r.csv")]
        ) == 0

    def test_env_var_sets_default(self, monkeypatch):
        monkeypatch.setenv("WNTORUS_THREADS", "5")
        parser = build_parser()
        args = parser.parse_args(["gencor", "-p", "2"])
        assert args.threads == 5

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("WNTORUS_THREADS", "5")
        parser = build_parser()
        args = parser.parse_args(["--threads", "2", "gencor", "-p", "2"])
        assert args.threads == 2

    def test_main_builds_its_parser_once(self, monkeypatch, capsys):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        try:
            assert main(["gencor", "-p", "2", "--seed", "1"]) == 0
            assert main(["gencor", "-p", "3", "--seed", "1"]) == 0
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1

    def test_env_var_read_on_every_call(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "_cmd_gencor", lambda args: seen.append(args.threads) or 0)
        for env, argv in [
            ("5", []),
            ("3", []),
            ("3", ["--threads", "2"]),
            ("4", []),
        ]:
            monkeypatch.setenv("WNTORUS_THREADS", env)
            assert main(argv + ["gencor", "-p", "2"]) == 0
        monkeypatch.delenv("WNTORUS_THREADS")
        assert main(["gencor", "-p", "2"]) == 0
        assert seen == [5, 3, 2, 4, 1]

    @pytest.mark.parametrize(
        "env,argv,message",
        [
            pytest.param(
                "abc", ["gencor", "-p", "3"], "invalid int value: 'abc'", id="abc-argv0"
            ),
            pytest.param(
                "1",
                ["--threads", "abc", "gencor", "-p", "3"],
                "invalid int value: 'abc'",
                id="1-argv1",
            ),
            pytest.param(
                "1",
                ["--threads", "-3", "gencor", "-p", "2"],
                "must be at least 1, got -3",
                id="1-argv-negative",
            ),
            pytest.param(
                "0", ["gencor", "-p", "2"], "must be at least 1, got 0", id="0-argv0"
            ),
            pytest.param(
                "1",
                ["fit", "data.csv", "--method", "nope"],
                "invalid choice: 'nope'",
                id="unknown-method",
            ),
        ],
    )
    def test_malformed_thread_count_is_a_usage_error(
        self, monkeypatch, capsys, env, argv, message
    ):
        monkeypatch.setenv("WNTORUS_THREADS", env)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: wntorus")
        assert message in err


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        params = WnParams(np.array([1.0]), np.array([[0.1]]))
        path = write_csv(tmp_path / "d.csv", sample_wn(params, 50, seed=11))
        proc = subprocess.run(
            [sys.executable, "-m", "wntorus.cli", "fit", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["p"] == 1

    def test_import_leaves_scipy_unloaded(self):
        # the package depends on numpy only: neither it nor the command
        # line imports scipy; the process pool of parallel sweeps is
        # imported only by a sweep that uses it
        code = (
            "import sys, wntorus, wntorus.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'concurrent', 'multiprocessing')))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_direct_fits_leave_scipy_unloaded(self, tmp_path):
        # fit_direct runs the package's own BFGS, called directly and
        # from a simulation
        cfg = write_config(
            tmp_path,
            "p = 2\nn = 30\nsigma = pi/4\nreps = 1\nmethods = em, direct\nseed = 5\n",
        )
        code = (
            "import sys, numpy as np, wntorus, wntorus.cli\n"
            "def loaded():\n"
            "    print('scipy:', sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "params = wntorus.WnParams(np.ones(2), 0.3 * np.eye(2))\n"
            "assert wntorus.fit_direct(wntorus.sample_wn(params, 50, seed=1)).converged\n"
            "loaded()\n"
            f"assert wntorus.cli.main(['simulate', {cfg!r}, '-o', {str(tmp_path / 'r.csv')!r}]) == 0\n"
            "loaded()\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = [line for line in proc.stdout.splitlines() if line.startswith("scipy:")]
        assert loaded == ["scipy: []", "scipy: []"]
        assert "direct" in (tmp_path / "r.csv").read_text()
