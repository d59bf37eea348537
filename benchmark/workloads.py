"""The benchmark's workloads: seeded inputs, one round of timed
operations, output checks, and the extra calls of the traced run.

A workload is built in ``build`` (the set-up that ``setup_s`` times),
warmed up on small inputs, then runs whole rounds of the operations
listed by ``operations``.  Every round repeats the same operations on the
same inputs.  ``check`` takes the outputs of all rounds; ``probe`` makes
the traced run's direct calls into modules the round reaches only
through private helpers, or not at all.
"""

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
from checks import require

TWO_PI = 2.0 * np.pi


@dataclass
class Operation:
    """One timed call: ``run`` is timed, ``collect`` reads its output."""

    label: str
    fits: int
    run: Callable
    collect: Callable


def quantize(y):
    """Snap angles to the 2**-40 grid inside [0, 2*pi).

    On that grid adding whole turns is exact, so CEM's unwrapped points
    can be required to wrap back to the input bit for bit.
    """
    q = np.ldexp(np.round(np.ldexp(np.asarray(y, dtype=float), 40)), -40)
    q[q >= TWO_PI] = 0.0
    return q


def recenter(y, mu):
    """Representative of ``y`` within half a turn of ``mu``."""
    return y - TWO_PI * np.round((y - mu) / TWO_PI)


def seeded_rng(seed, tag):
    return np.random.default_rng([tag, seed % 2**63])


def linear_column(angles, mu, rng):
    """A linear variable correlated with the unwrapped angle: 5 plus 1.5
    times the angle's deviation from ``mu``, plus N(0, 0.3^2) noise."""
    return 5.0 + 1.5 * (recenter(angles, mu) - mu) + rng.normal(0.0, 0.3, angles.shape)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])


def read_float_csv(path):
    with open(path, newline="") as handle:
        return np.array([[float(c) for c in row] for row in csv.reader(handle) if row])


def run_cli(pkg, argv):
    """``wntorus.cli.main`` with its standard output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return pkg.cli.main(argv)


class Workload:
    name = ""

    def __init__(self, pkg, seed, workdir):
        self.pkg = pkg
        self.seed = seed
        self.dir = workdir

    def failures(self, op, output):
        """Fits of ``op`` that failed, given its collected output."""
        return 0 if output is not None else op.fits


class Study(Workload):
    """``wntorus simulate`` on p=2, n=100 cells at a small and a large
    scale with em, cem and direct: one replicate per command, each
    command with its own seed."""

    name = "study"
    P, N, J = 2, 100, 3
    SIGMAS = {"pi/4": math.pi / 4, "pi/2": math.pi / 2}
    METHODS = ("em", "cem", "direct")
    COMMANDS = 12

    def _write_config(self, path, seed):
        path.write_text(
            f"p = {self.P}\nn = {self.N}\nsigma = {', '.join(self.SIGMAS)}\nreps = 1\n"
            f"methods = {', '.join(self.METHODS)}\ncn = 20\nj = {self.J}\nseed = {seed}\n"
        )

    def build(self):
        seeds = [int(s) for s in seeded_rng(self.seed, 1).integers(2**31, size=self.COMMANDS + 1)]
        self.config_seeds = seeds[:-1]
        self.configs = [self.dir / f"study-{k:02d}.cfg" for k in range(self.COMMANDS)]
        self.reports = [self.dir / f"report-{k:02d}.csv" for k in range(self.COMMANDS)]
        for path, seed in zip(self.configs, self.config_seeds):
            self._write_config(path, seed)
        self.warm_config = self.dir / "warm.cfg"
        self._write_config(self.warm_config, seeds[-1])

    def _simulate(self, config, report):
        return run_cli(self.pkg, ["--threads", "1", "simulate", str(config), "-o", str(report)])

    def warm_up(self):
        require(self._simulate(self.warm_config, self.dir / "warm.csv") == 0, "warm-up failed")

    def operations(self):
        def collect(code, report):
            if code != 0:
                return None
            with open(report, newline="") as handle:
                return list(csv.DictReader(handle))

        fits = len(self.SIGMAS) * len(self.METHODS)
        return [
            Operation(
                f"simulate-{k:02d}",
                fits,
                lambda config=config, report=report: self._simulate(config, report),
                lambda code, report=report: collect(code, report),
            )
            for k, (config, report) in enumerate(zip(self.configs, self.reports))
        ]

    def failures(self, op, output):
        if output is None:
            return op.fits
        return sum(1 for row in output if not math.isfinite(float(row["wilks"])))

    def replicate(self, command, cell):
        """Truth and sample of one cell of one command, drawn as the
        runner draws them."""
        pkg = self.pkg
        rng = np.random.default_rng(np.random.SeedSequence([self.config_seeds[command], cell, 0]))
        corr = pkg.simulate.random_correlation(pkg.simulate.CorrelationSpec(self.P, 20.0), rng)
        sigma = list(self.SIGMAS.values())[cell]
        truth = pkg.model.WnParams(np.zeros(self.P), pkg.simulate.scale_to_covariance(corr, sigma))
        return truth, pkg.simulate.sample_wn(truth, self.N, rng)

    def check(self, rounds):
        def stable(rows):
            return [{k: v for k, v in r.items() if k != "runtime_seconds"} for r in rows]

        sigmas = tuple(self.SIGMAS.values())
        for k, rows in enumerate(rounds[0]):
            if rows is not None:
                checks.check_study_rows(rows, self.P, self.N, sigmas, self.METHODS, 1)
                for later in rounds[1:]:
                    require(later[k] is None or stable(later[k]) == stable(rows), "report differs between rounds")
        pkg = self.pkg
        lattice = pkg.model.LatticeConfig(self.J)
        fitters = {"em": pkg.em.fit_em, "cem": pkg.cem.fit_cem, "direct": pkg.direct.fit_direct}
        for k in (0, self.COMMANDS - 1):
            if rounds[0][k] is None:
                continue
            index = {(float(r["sigma"]), r["method"]): r for r in rounds[0][k]}
            for cell, sigma in enumerate(sigmas):
                truth, sample = self.replicate(k, cell)
                ll_truth = checks.dense_loglik(sample, truth.mu, truth.sigma, self.J)
                for method, fitter in fitters.items():
                    what = f"study command {k} sigma={sigma:.4g} {method}"
                    row = index[(sigma, method)]
                    fit = fitter(sample, None, lattice)
                    require(
                        fit.iterations == int(row["iterations"]),
                        f"{what}: library refit disagrees with the report",
                    )
                    checks.check_params(fit.params.mu, fit.params.sigma, what)
                    ll_fit = checks.dense_loglik(sample, fit.params.mu, fit.params.sigma, self.J)
                    wilks = -2.0 * (ll_truth - ll_fit)
                    require(
                        abs(float(row["wilks"]) - wilks) <= 1e-7 * max(1.0, abs(ll_truth)),
                        f"{what}: reported wilks {row['wilks']} but dense sums give {wilks!r}",
                    )
                    if method == "em":
                        checks.check_em_trace(fit.loglik_trace, what)
                    elif method == "direct":
                        checks.check_direct_trace(fit.loglik_trace, what)
                    if method != "cem":
                        checks.check_loglik(
                            fit.loglik_trace[-1], sample, fit.params.mu, fit.params.sigma, self.J, what=what
                        )
                    if k == 0 and cell == 0:
                        # The test suite's oracle sums a plain window one
                        # turn wider than the recentered one; at the small
                        # scale the extra rows carry no mass.
                        from tests import oracles

                        reference = oracles.loglik_dense(
                            sample, fit.params.mu, fit.params.sigma, self.J + 1
                        )
                        require(
                            abs(reference - ll_fit) <= checks.LOGLIK_RTOL * abs(reference),
                            f"{what}: dense sum {ll_fit!r} disagrees with the test oracle {reference!r}",
                        )

    def probe(self, tracer):
        pkg = self.pkg
        truth, sample = self.replicate(0, 0)
        fit = pkg.cem.fit_cem(sample)
        tracer.side("cem.cem_m_step", pkg.cem.cem_m_step, pkg.circular.center_to(sample, fit.params.mu), fit.coefficients)
        linear = linear_column(sample[:, :1], 0.0, seeded_rng(self.seed, 2))
        tracer.side("mixed.fit_mixed_em", pkg.mixed.fit_mixed_em, pkg.mixed.MixedSample(sample, linear))
        tracer.measure_alloc("model.log_likelihood", pkg.model.log_likelihood, sample, truth)
        tracer.measure_alloc("em.fit_em", pkg.em.fit_em, sample)


class HighDim(Workload):
    """``fit_em`` and ``fit_cem`` at p=10 with a J=1 window (59 049 rows)."""

    name = "highdim"
    P, N, J = 10, 100, 1
    SIGMA = math.pi / 5

    def build(self):
        pkg = self.pkg
        rng = seeded_rng(self.seed, 10)
        corr = pkg.simulate.random_correlation(pkg.simulate.CorrelationSpec(self.P, 20.0), rng)
        self.truth = pkg.model.WnParams(
            rng.uniform(0.0, TWO_PI, self.P), pkg.simulate.scale_to_covariance(corr, self.SIGMA)
        )
        self.sample = quantize(pkg.simulate.sample_wn(self.truth, self.N, rng))
        self.lattice = pkg.model.LatticeConfig(self.J)

    def warm_up(self):
        pkg = self.pkg
        head = self.sample[:20]
        pkg.model.log_likelihood(head, self.truth, self.lattice)
        pkg.em.fit_em(head, None, self.lattice, max_iter=1)
        pkg.cem.fit_cem(head, None, self.lattice, max_iter=1)

    def operations(self):
        pkg = self.pkg
        return [
            Operation("fit_em", 1, lambda: pkg.em.fit_em(self.sample, None, self.lattice), lambda r: r),
            Operation("fit_cem", 1, lambda: pkg.cem.fit_cem(self.sample, None, self.lattice), lambda r: r),
        ]

    def check(self, rounds):
        em_fit, cem_fit = rounds[0]
        if em_fit is not None:
            checks.check_em_trace(em_fit.loglik_trace, "highdim EM")
            checks.check_params(em_fit.params.mu, em_fit.params.sigma, "highdim EM")
            checks.check_loglik(
                em_fit.loglik_trace[-1], self.sample, em_fit.params.mu, em_fit.params.sigma,
                self.J, what="highdim EM log-likelihood",
            )
        if cem_fit is not None:
            checks.check_params(cem_fit.params.mu, cem_fit.params.sigma, "highdim CEM")
            checks.check_cem_unwrap(
                self.sample, cem_fit.unwrapped, cem_fit.coefficients, self.J, "highdim CEM"
            )
        for later in rounds[1:]:
            for first, again in zip(rounds[0], later):
                if first is None or again is None:
                    continue
                require(
                    np.array_equal(first.params.mu, again.params.mu)
                    and np.array_equal(first.params.sigma, again.params.sigma)
                    and np.array_equal(first.loglik_trace, again.loglik_trace),
                    "highdim fit differs between rounds",
                )

    def probe(self, tracer):
        pkg = self.pkg
        em_fit, cem_fit = self.last_outputs
        for params in (self.truth, em_fit.params):
            tracer.side("model.log_likelihood", pkg.model.log_likelihood, self.sample, params, self.lattice)
        tracer.side(
            "cem.cem_m_step", pkg.cem.cem_m_step,
            pkg.circular.center_to(self.sample, cem_fit.params.mu), cem_fit.coefficients,
        )
        tracer.side(
            "direct.objective", pkg.direct.objective,
            pkg.model.to_log_cholesky(self.truth), self.sample, self.lattice,
        )
        tracer.side("simulate.evaluate_fit", pkg.simulate.evaluate_fit, self.sample, em_fit.params, self.truth, self.lattice)
        # fit_direct refuses p=10; it and the mixed fit run on the first
        # two coordinates of the sample.
        tracer.side("direct.fit_direct", pkg.direct.fit_direct, self.sample[:, :2])
        linear = linear_column(self.sample[:, :1], self.truth.mu[0], seeded_rng(self.seed, 11))
        tracer.side("mixed.fit_mixed_em", pkg.mixed.fit_mixed_em, pkg.mixed.MixedSample(self.sample[:, :2], linear))
        tracer.side("cli.main", run_cli, pkg, ["gencor", "-p", str(self.P), "--seed", str(self.seed % 2**32)])
        tracer.measure_alloc("model.log_likelihood", pkg.model.log_likelihood, self.sample, self.truth, self.lattice)
        tracer.measure_alloc("em.fit_em", pkg.em.fit_em, self.sample, None, self.lattice)


class LargeN(Workload):
    """A fixed sequence of ``wntorus fit`` commands on a p=4 CSV with
    thousands of rows and the default J=3 window (2 401 rows)."""

    name = "large_n"
    P, N, J = 4, 1000, 3
    SIGMA = math.pi / 5
    WARM_ROWS = 40
    COMMANDS = ("em", "cem", "cem-then-em", "mixed-em")

    def build(self):
        pkg = self.pkg
        rng = seeded_rng(self.seed, 30)
        corr = pkg.simulate.random_correlation(pkg.simulate.CorrelationSpec(self.P, 20.0), rng)
        self.truth = pkg.model.WnParams(
            rng.uniform(0.0, TWO_PI, self.P), pkg.simulate.scale_to_covariance(corr, self.SIGMA)
        )
        self.sample = quantize(pkg.simulate.sample_wn(self.truth, self.N, rng))
        self.linear = linear_column(self.sample[:, 0], self.truth.mu[0], rng)
        angle_header = [f"theta{i}" for i in range(self.P)]
        joint = np.column_stack([self.sample, self.linear])
        self.files = {}
        for tag, rows in (("", slice(None)), ("warm-", slice(self.WARM_ROWS))):
            angles = self.dir / f"{tag}angles.csv"
            mixed = self.dir / f"{tag}mixed.csv"
            write_csv(angles, angle_header, self.sample[rows])
            write_csv(mixed, angle_header + ["x"], joint[rows])
            self.files[tag] = (angles, mixed)

    def _argv(self, command, tag):
        angles, mixed = self.files[tag]
        out = self.dir / f"{tag}{command}.json"
        if command == "mixed-em":
            argv = ["fit", str(mixed), "--method", "em", "--linear-columns", str(self.P)]
        else:
            argv = ["fit", str(angles), "--method", command]
        if command == "cem":
            argv += ["--unwrapped-out", str(self.dir / f"{tag}unwrapped.csv")]
        return argv + ["--output", str(out)], out

    def warm_up(self):
        for command in self.COMMANDS:
            argv, _ = self._argv(command, "warm-")
            require(run_cli(self.pkg, argv) == 0, f"warm-up {command} failed")

    def operations(self):
        ops = []
        for command in self.COMMANDS:
            argv, out = self._argv(command, "")

            def collect(code, out=out, command=command):
                if code != 0:
                    return None
                with open(out) as handle:
                    result = json.load(handle)
                if command == "cem":
                    result["unwrapped"] = read_float_csv(result["unwrapped_path"]).tolist()
                return result

            ops.append(Operation(command, 1, lambda argv=argv: run_cli(self.pkg, argv), collect))
        return ops

    def check(self, rounds):
        for command, out in zip(self.COMMANDS, rounds[0]):
            if out is None:
                continue
            what = f"large_n {command}"
            require(out["n"] == self.N and out["iterations"] >= 1, f"{what}: bad summary fields")
            mu, sigma = np.array(out["mu"]), np.array(out["sigma"])
            if command == "mixed-em":
                require(out["linear_columns"] == [self.P], f"{what}: wrong linear columns")
                checks.check_params(mu[: self.P], sigma[: self.P, : self.P], what)
                checks.check_positive_definite(sigma, f"{what} joint")
                data = np.column_stack([self.sample, self.linear])
                checks.check_loglik(out["loglik"], data, mu, sigma, self.J, wrapped=self.P, what=what)
            else:
                checks.check_params(mu, sigma, what)
                checks.check_loglik(out["loglik"], self.sample, mu, sigma, self.J, what=what)
            if command == "cem":
                checks.check_cem_unwrap(self.sample, out["unwrapped"], out["coefficients"], self.J, what)
        for later in rounds[1:]:
            require(later == rounds[0], "large_n outputs differ between rounds")

    def probe(self, tracer):
        pkg = self.pkg
        em_out, cem_out = self.last_outputs[0], self.last_outputs[1]
        em_params = pkg.model.WnParams(np.array(em_out["mu"]), np.array(em_out["sigma"]))
        tracer.side("model.log_likelihood", pkg.model.log_likelihood, self.sample, self.truth)
        tracer.side(
            "cem.cem_m_step", pkg.cem.cem_m_step,
            pkg.circular.center_to(self.sample, np.array(cem_out["mu"])), np.array(cem_out["coefficients"]),
        )
        tracer.side("direct.objective", pkg.direct.objective, pkg.model.to_log_cholesky(self.truth), self.sample)
        tracer.side("simulate.evaluate_fit", pkg.simulate.evaluate_fit, self.sample, em_params, self.truth)
        # fit_direct on the full file would take minutes; it runs on the
        # first two coordinates of the first hundred rows.
        tracer.side("direct.fit_direct", pkg.direct.fit_direct, self.sample[:100, :2])
        tracer.measure_alloc("model.log_likelihood", pkg.model.log_likelihood, self.sample, self.truth)
        tracer.measure_alloc("em.fit_em", pkg.em.fit_em, self.sample)


WORKLOADS = {cls.name: cls for cls in (Study, HighDim, LargeN)}
