"""Sampling, random correlation matrices with a fixed condition number,
estimation-quality metrics, and the Monte Carlo experiment harness."""

import csv
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import circular, model
from ._linalg import safe_cholesky
from .circular import angle_separation, wrap_angle
from .errors import ConvergenceError, FitFailure
from .fitting import METHODS, _fitted_loglik, fit

REPORT_COLUMNS = (
    "p",
    "n",
    "sigma",
    "method",
    "replicate",
    "wilks",
    "angle_sep",
    "scatter_div",
    "runtime_seconds",
    "converged",
    "iterations",
)

#: Largest common standard deviation whose square is a finite float.
_MAX_SIGMA = float(np.sqrt(np.finfo(float).max))

#: The smallest eigenvalue of a matrix with unit diagonal, about 1/cn of
#: the largest, is resolved only to about eps * cn relative.  From
#: 1e-3/eps (4.5e12) up, where that reaches the generator's default
#: tolerance, ``random_correlation`` cannot be relied on to reach cn.
_MAX_CN = 1e-3 / np.finfo(float).eps

#: The fit methods, bare and with a ``T`` suffix (start from the truth).
VALID_METHODS = METHODS + tuple(m + "T" for m in METHODS)


def sample_wn(params, n, seed=None):
    """Draw ``n`` observations from the wrapped normal, reduced to
    [0, 2*pi) componentwise.

    ``seed`` may be anything accepted by ``numpy.random.default_rng``,
    including an existing Generator.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    L = safe_cholesky(params.sigma)
    z = rng.standard_normal((int(n), params.p))
    return wrap_angle(params.mu + z @ L.T)


@dataclass(frozen=True)
class CorrelationSpec:
    """Target for the random correlation generator.

    ``cn`` is the requested ratio of extreme eigenvalues and ``tol`` the
    relative tolerance on the achieved ratio after renormalization.
    """

    p: int
    cn: float = 20.0
    tol: float = 1e-3
    max_rounds: int = 100

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("correlation matrices need p >= 2")
        if not (np.isfinite(self.cn) and 1.0 < self.cn < _MAX_CN):
            raise ValueError(
                f"condition number must be finite, exceed 1 and stay below {_MAX_CN:.3g}"
            )
        if not (np.isfinite(self.tol) and self.tol > 0.0) or self.max_rounds < 1:
            raise ValueError(
                "tol must be finite and positive and max_rounds at least 1"
            )


def _normalize_to_correlation(matrix):
    d = np.sqrt(np.diag(matrix))
    corr = matrix / np.outer(d, d)
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    return corr


def _condition_number(corr):
    eigvals = np.linalg.eigvalsh(corr)
    return float(eigvals[-1] / eigvals[0])


def random_correlation(spec, seed=None):
    """Random correlation matrix whose condition number is ``spec.cn``.

    Construction: a spectrum with extremes 1 and ``cn`` and sorted
    uniform interior values is rotated by a random orthogonal basis
    (eigenvectors of Y'Y for a standard normal Y); the result is rescaled
    to unit diagonal, which perturbs the spectrum, so the largest
    eigenvalue is repeatedly reset to ``cn`` times the smallest and the
    matrix renormalized until the achieved condition number is within
    ``tol`` (relative) of the target.
    """
    rng = np.random.default_rng(seed)
    p, cn = spec.p, spec.cn

    lam = np.empty(p)
    lam[0] = 1.0
    lam[-1] = cn
    if p > 2:
        lam[1:-1] = np.sort(rng.uniform(1.0, cn, size=p - 2))
    y = rng.standard_normal((p, p))
    _, basis = np.linalg.eigh(y.T @ y)
    corr = _normalize_to_correlation((basis * lam) @ basis.T)

    achieved = _condition_number(corr)
    for _ in range(spec.max_rounds):
        if abs(achieved - cn) <= spec.tol * cn:
            return corr
        eigval, eigvec = np.linalg.eigh(corr)
        eigval[-1] = cn * eigval[0]
        corr = _normalize_to_correlation((eigvec * eigval) @ eigvec.T)
        achieved = _condition_number(corr)
    raise ConvergenceError(
        f"correlation generator stopped at condition number {achieved:.6g} "
        f"after {spec.max_rounds} rounds (target {cn:g})"
    )


def scale_to_covariance(corr, sigma0):
    """Covariance matrix with common standard deviation ``sigma0`` and
    the given correlation structure."""
    if not 0.0 < sigma0 <= _MAX_SIGMA:
        raise ValueError(f"sigma0 must be positive and at most {_MAX_SIGMA:.5g}")
    return float(sigma0) ** 2 * np.asarray(corr, dtype=float)


def wilks_lambda(
    sample, fitted, truth, config=model.LatticeConfig(), *, ll_truth=None, ll_fit=None
):
    """Likelihood-ratio statistic of the fit against the generating
    parameters: non-negative when the fit truly maximizes.  ``ll_truth``
    and ``ll_fit`` are the log-likelihoods of ``sample`` at ``truth`` and
    at ``fitted``, if the caller has them already."""
    if ll_truth is None:
        ll_truth = model.log_likelihood(sample, truth, config)
    if ll_fit is None:
        ll_fit = model.log_likelihood(sample, fitted, config)
    return -2.0 * (ll_truth - ll_fit)


def scatter_divergence(sigma_hat, sigma_true):
    """Stein-type divergence of an estimated covariance from the truth.

    trace(S Sigma0^-1) - log det(S Sigma0^-1) - p; zero iff the two
    matrices are equal, positive otherwise.  Computed through Cholesky
    solves, so both inputs must be positive definite.
    """
    sigma_hat = np.asarray(sigma_hat, dtype=float)
    sigma_true = np.asarray(sigma_true, dtype=float)
    p = sigma_hat.shape[0]
    L0 = safe_cholesky(sigma_true)
    Lh = safe_cholesky(sigma_hat)
    half = model._forward(L0, sigma_hat)
    ratio = model._forward(L0, half.T)
    logdet = 2.0 * (
        np.sum(np.log(np.diag(Lh))) - np.sum(np.log(np.diag(L0)))
    )
    return float(np.trace(ratio) - logdet - p)


@dataclass(frozen=True)
class MetricsReport:
    """The three discrepancy metrics of one fit against the truth; its
    fields are the metric columns of a report row."""

    wilks: float
    angle_sep: float
    scatter_div: float


_METRIC_COLUMNS = tuple(f.name for f in fields(MetricsReport))


def evaluate_fit(
    sample, fitted, truth, config=model.LatticeConfig(), *, ll_truth=None, ll_fit=None
):
    """Wilks statistic, angle separation and scatter divergence of
    ``fitted`` against the generating parameters ``truth``; ``ll_truth``
    and ``ll_fit`` as for :func:`wilks_lambda`."""
    return MetricsReport(
        wilks=wilks_lambda(sample, fitted, truth, config, ll_truth=ll_truth, ll_fit=ll_fit),
        angle_sep=angle_separation(fitted.mu, truth.mu),
        scatter_div=scatter_divergence(fitted.sigma, truth.sigma),
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Factorial design of a Monte Carlo run.

    Cells are the full cross product of ``p_list``, ``n_list``, and
    ``sigma_list`` (common standard deviations).  Methods ending in ``T``
    start from the generating parameters instead of the moment-based
    values.  Per-replicate random streams are derived from ``seed``
    jointly with the cell and replicate indices, so results do not
    depend on scheduling or worker count.
    """

    p_list: tuple
    n_list: tuple
    sigma_list: tuple
    replications: int
    cn: float = 20.0
    methods: tuple = ("em", "cem", "direct")
    J: int = 3
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "p_list", tuple(int(p) for p in self.p_list))
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        object.__setattr__(
            self, "sigma_list", tuple(float(s) for s in self.sigma_list)
        )
        object.__setattr__(self, "methods", tuple(self.methods))
        if not (self.p_list and self.n_list and self.sigma_list):
            raise ValueError("p_list, n_list, and sigma_list must be non-empty")
        if min(self.p_list) < 1 or min(self.n_list) < 1:
            raise ValueError("dimensions and sample sizes must be positive")
        if not all(0.0 < s <= _MAX_SIGMA for s in self.sigma_list):
            raise ValueError(
                f"sigma values must be finite, positive and at most {_MAX_SIGMA:.5g}, "
                "so that their squares are finite"
            )
        if not (np.isfinite(self.cn) and self.cn < _MAX_CN):
            raise ValueError(f"condition number must be finite and below {_MAX_CN:.3g}")
        if max(self.p_list) > 1 and not self.cn > 1.0:
            raise ValueError(f"cn must exceed 1 when some p is 2 or more, got {self.cn:g}")
        model.LatticeConfig(self.J).n_rows(max(self.p_list))  # J's guard
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        for method in self.methods:
            if method not in VALID_METHODS:
                raise ValueError(
                    f"unknown method {method!r}; valid: {', '.join(VALID_METHODS)}"
                )

    def cells(self):
        return [
            (p, n, sigma)
            for p in self.p_list
            for n in self.n_list
            for sigma in self.sigma_list
        ]


def _replicate_rows(config, cell_index, cell, replicate):
    p, n, sigma = cell
    lattice = model.LatticeConfig(config.J)
    rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, cell_index, replicate])
    )
    if p == 1:
        corr = np.eye(1)
    else:
        corr = random_correlation(CorrelationSpec(p, config.cn), rng)
    truth = model.WnParams(np.zeros(p), scale_to_covariance(corr, sigma))
    sample = sample_wn(truth, n, rng)

    # The moment start, with the seconds it took, and the truth's
    # log-likelihood are made once and shared by the methods; each
    # method's runtime includes the start it uses.
    moment_start = None
    ll_truth = None
    rows = []
    for method in config.methods:
        base = method.removesuffix("T")
        row = {"p": p, "n": n, "sigma": sigma, "method": method, "replicate": replicate}
        start = time.perf_counter()
        init, init_seconds = truth, 0.0
        try:
            if base == method:
                if moment_start is None:
                    moment_start = (circular.initial_params(sample), time.perf_counter() - start)
                    start = time.perf_counter()
                init, init_seconds = moment_start
            result = fit(sample, base, init, lattice)
            runtime = init_seconds + time.perf_counter() - start
            if ll_truth is None:
                ll_truth = model.log_likelihood(sample, truth, lattice)
            ll_fit = _fitted_loglik(sample, result, lattice)
            report = evaluate_fit(
                sample, result.params, truth, lattice, ll_truth=ll_truth, ll_fit=ll_fit
            )
            row.update(
                asdict(report),
                runtime_seconds=runtime,
                converged=bool(result.converged),
                iterations=int(result.iterations),
            )
        except FitFailure:
            row.update(
                dict.fromkeys(_METRIC_COLUMNS, float("nan")),
                runtime_seconds=init_seconds + time.perf_counter() - start,
                converged=False,
                iterations=0,
            )
        rows.append(row)
    return rows


def run_experiment(config, workers=1):
    """Run every (cell, replicate, method) fit and collect metric rows.

    Individual fit failures are recorded as rows with NaN metrics and
    never abort the sweep.  Rows come back in deterministic cell-major,
    replicate-minor order regardless of ``workers``.  With ``workers``
    above 1 the replicates run in that many freshly started (``spawn``)
    worker processes, so a script that asks for them must call this
    under ``if __name__ == "__main__":``.  With one BLAS thread per
    process (e.g. ``OPENBLAS_NUM_THREADS=1``) the numeric content is
    reproducible bit for bit.
    """
    cells = config.cells()
    tasks = [
        (ci, cell, rep)
        for ci, cell in enumerate(cells)
        for rep in range(config.replications)
    ]
    if workers <= 1:
        grouped = [_replicate_rows(config, *task) for task in tasks]
    else:
        # imported here: a serial run, and every command-line start,
        # does without them
        import concurrent.futures
        import multiprocessing

        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            futures = [pool.submit(_replicate_rows, config, *task) for task in tasks]
            grouped = [future.result() for future in futures]
    return [row for group in grouped for row in group]


def write_report_csv(rows, path):
    """Write metric rows with full float precision (repr round-trip)."""

    def fmt(value):
        if isinstance(value, bool):
            return str(value)
        if isinstance(value, float):
            return repr(value)
        return str(value)

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(REPORT_COLUMNS)
        for row in rows:
            writer.writerow([fmt(row[col]) for col in REPORT_COLUMNS])


def summarize_report(rows):
    """Per-(cell, method) medians of the three metrics.

    Failed fits (NaN metrics) are excluded from the medians but counted.
    """
    cell_keys = ("p", "n", "sigma", "method")
    groups = defaultdict(list)
    for r in rows:
        groups[tuple(r[k] for k in cell_keys)].append(r)
    summaries = []
    for key in sorted(groups):
        group = groups[key]
        ok = [r for r in group if np.isfinite(r["wilks"])]
        summary = dict(
            zip(cell_keys, key), replicates=len(group), failures=len(group) - len(ok)
        )
        if ok:
            medians = np.median([[r[col] for col in _METRIC_COLUMNS] for r in ok], axis=0)
        else:
            medians = [float("nan")] * len(_METRIC_COLUMNS)
        for col, value in zip(_METRIC_COLUMNS, medians):
            summary["median_" + col] = float(value)
        summaries.append(summary)
    return summaries
