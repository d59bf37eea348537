"""Output checks for the benchmark workloads.

Every check compares an output of the package with a computation made
here, from the defining formulas and plain numpy, or with a property the
method must have.  None compares with a stored copy of earlier output.
A failed check raises :class:`CheckError`.
"""

import itertools
import math

import numpy as np

TWO_PI = 2.0 * np.pi

#: Relative tolerance between a reported log-likelihood and the dense sum.
LOGLIK_RTOL = 1e-9

#: EM traces may dip by rounding, never by more than this (as in the
#: acceptance gate of the test suite).
TRACE_SLACK = 1e-8


class CheckError(AssertionError):
    """An output of the package failed a benchmark check."""


def require(condition, message):
    if not condition:
        raise CheckError(message)


def dense_loglik(x, mu, sigma, J, wrapped=None):
    """Truncated wrapped-normal log-likelihood by a dense lattice sum.

    The first ``wrapped`` coordinates (all by default) are angles: each
    is recentered to within half a turn of ``mu`` and shifted by every
    vector of {-J..J}^wrapped times 2*pi; the remaining coordinates are
    linear and never shifted.  Densities use the explicit inverse and
    log-determinant of ``sigma``.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    n, p = x.shape
    q = p if wrapped is None else wrapped
    dev = x - mu
    dev[:, :q] -= TWO_PI * np.round(dev[:, :q] / TWO_PI)
    sign, logdet = np.linalg.slogdet(sigma)
    require(sign > 0, "covariance has a non-positive determinant")
    inv = np.linalg.inv(sigma)
    window = np.array(list(itertools.product(range(-J, J + 1), repeat=q)), dtype=float)
    shifts = np.zeros((window.shape[0], p))
    shifts[:, :q] = TWO_PI * window.reshape(-1, q)
    m = shifts.shape[0]
    const = -0.5 * (p * math.log(TWO_PI) + logdet)
    block = max(1, 1_000_000 // (m * p))
    total = 0.0
    for start in range(0, n, block):
        d = (dev[start : start + block, None, :] + shifts[None, :, :]).reshape(-1, p)
        quad = np.sum((d @ inv) * d, axis=1).reshape(-1, m)
        terms = const - 0.5 * quad
        top = terms.max(axis=1)
        total += float(np.sum(top + np.log(np.sum(np.exp(terms - top[:, None]), axis=1))))
    return total


def check_loglik(reported, x, mu, sigma, J, wrapped=None, what="log-likelihood"):
    """A reported log-likelihood equals the dense lattice sum."""
    reported = float(reported)
    expected = dense_loglik(x, mu, sigma, J, wrapped)
    require(
        np.isfinite(reported)
        and abs(reported - expected) <= LOGLIK_RTOL * max(1.0, abs(expected)),
        f"{what} {reported!r} differs from the dense lattice sum {expected!r}",
    )


def check_params(mu, sigma, what="fit"):
    """Mean angles lie in [0, 2*pi); the covariance is symmetric PD."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    require(
        np.all(np.isfinite(mu)) and np.all((mu >= 0.0) & (mu < TWO_PI)),
        f"{what}: mean angles outside [0, 2pi): {mu}",
    )
    check_positive_definite(sigma, what)


def check_positive_definite(matrix, what="covariance"):
    matrix = np.asarray(matrix, dtype=float)
    require(np.all(np.isfinite(matrix)), f"{what}: non-finite covariance")
    require(np.array_equal(matrix, matrix.T), f"{what}: covariance is not symmetric")
    require(
        float(np.linalg.eigvalsh(matrix)[0]) > 0.0,
        f"{what}: covariance is not positive definite",
    )


def check_em_trace(trace, what="EM"):
    """An EM log-likelihood trace is finite and never decreases."""
    trace = np.asarray(trace, dtype=float)
    require(trace.size >= 2 and np.all(np.isfinite(trace)), f"{what}: bad trace {trace}")
    worst = float(np.min(np.diff(trace)))
    require(worst >= -TRACE_SLACK, f"{what}: log-likelihood decreased by {-worst:.3g}")


def check_direct_trace(trace, what="direct"):
    """Direct maximization never ends below its starting log-likelihood."""
    trace = np.asarray(trace, dtype=float)
    require(
        trace.size == 2 and np.all(np.isfinite(trace)) and trace[-1] >= trace[0],
        f"{what}: final log-likelihood below the start: {trace}",
    )


def check_cem_unwrap(sample, unwrapped, coefficients, J, what="CEM"):
    """Unwrapped points wrap back to the input bytes; coefficients are
    integers inside the lattice window."""
    sample = np.asarray(sample, dtype=float)
    unwrapped = np.asarray(unwrapped, dtype=float)
    coefficients = np.asarray(coefficients)
    require(
        unwrapped.shape == sample.shape and coefficients.shape == sample.shape,
        f"{what}: output shapes {unwrapped.shape}, {coefficients.shape} "
        f"do not match the sample {sample.shape}",
    )
    require(
        np.all(coefficients == np.round(coefficients))
        and np.all(np.abs(coefficients) <= J),
        f"{what}: coefficients outside the window [-{J}, {J}]",
    )
    turns = np.round((unwrapped - sample) / TWO_PI)
    require(
        np.array_equal(unwrapped - TWO_PI * turns, sample),
        f"{what}: unwrapped points do not wrap back to the input",
    )


def check_study_rows(rows, p, n, sigmas, methods, reps):
    """The report has each (cell, replicate, method) row once, with
    finite metrics in their ranges."""
    expected = {
        (p, n, s, m, r) for s in sigmas for m in methods for r in range(reps)
    }
    seen = set()
    for row in rows:
        key = (
            int(row["p"]),
            int(row["n"]),
            float(row["sigma"]),
            row["method"],
            int(row["replicate"]),
        )
        require(key not in seen, f"duplicate report row {key}")
        seen.add(key)
        wilks, sep, div = (float(row[k]) for k in ("wilks", "angle_sep", "scatter_div"))
        require(
            all(np.isfinite(v) for v in (wilks, sep, div)),
            f"non-finite metrics in report row {key}",
        )
        require(div >= 0.0, f"negative scatter divergence {div} in row {key}")
        require(0.0 <= sep <= 2.0 * p, f"angle separation {sep} outside [0, {2 * p}]")
        require(int(row["iterations"]) >= 1, f"no iterations in report row {key}")
    missing = expected - seen
    extra = seen - expected
    require(not missing and not extra, f"report rows missing {sorted(missing)[:3]}, unexpected {sorted(extra)[:3]}")
