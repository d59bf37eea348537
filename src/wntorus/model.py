"""Wrapped normal parameters, truncated-lattice densities, and the
log-Cholesky parameter vector used by the direct optimizer."""

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import logsumexp

from . import circular
from ._linalg import TWO_PI, safe_cholesky
from .errors import LatticeTooLargeError

#: Reject lattices with more rows than this.
MAX_LATTICE_ROWS = 100_000_000

#: Target element count of temporary (block, rows, p) arrays.
_CHUNK_ELEMS = 4_000_000


@dataclass(frozen=True)
class WnParams:
    """Mean vector and covariance matrix of a wrapped normal distribution.

    ``mu`` holds one angle per coordinate (any real representative is
    accepted; fits report canonical values in [0, 2*pi)).  ``sigma`` must
    be symmetric positive definite.
    """

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mu = np.array(self.mu, dtype=float)
        sigma = np.array(self.sigma, dtype=float)
        if mu.ndim != 1:
            raise ValueError("mu must be a 1-D array of angles")
        p = mu.shape[0]
        if sigma.shape != (p, p):
            raise ValueError(f"sigma must have shape ({p}, {p}), got {sigma.shape}")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
            raise ValueError("parameters must be finite")
        if not np.allclose(sigma, sigma.T, rtol=1e-10, atol=1e-14):
            raise ValueError("sigma must be symmetric")
        safe_cholesky(sigma)  # raises SingularCovarianceError if not PD
        mu.flags.writeable = False
        sigma.flags.writeable = False
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def p(self):
        return self.mu.shape[0]


@dataclass(frozen=True)
class LatticeConfig:
    """Truncation window for the wrapping lattice.

    The infinite sum over integer shift vectors is truncated to the
    hypercube {-J, ..., J}^p, i.e. (2J+1)^p rows.  With per-observation
    recentering the default J = 3 is accurate for every variance used in
    the simulation study.
    """

    J: int = 3

    def __post_init__(self):
        if not isinstance(self.J, (int, np.integer)) or self.J < 0:
            raise ValueError("J must be a non-negative integer")
        object.__setattr__(self, "J", int(self.J))

    def n_rows(self, p):
        """Row count (2J+1)^p, guarded against absurd sizes."""
        if p < 1:
            raise ValueError("dimension must be at least 1")
        count = (2 * self.J + 1) ** int(p)
        if count > MAX_LATTICE_ROWS:
            raise LatticeTooLargeError(
                f"lattice with J={self.J} in dimension p={p} has {count} rows, "
                f"exceeding the guard of {MAX_LATTICE_ROWS}"
            )
        return count


@functools.lru_cache(maxsize=32)
def _cached_rows(J, p):
    axes = [np.arange(-J, J + 1)] * p
    grid = np.meshgrid(*axes, indexing="ij")
    rows = np.stack(grid, axis=-1).reshape(-1, p)
    rows.setflags(write=False)
    return rows


def lattice_rows(config, p):
    """All integer shift vectors of the truncation window, as an (m, p)
    array in ascending lexicographic order."""
    config.n_rows(p)  # guard
    return _cached_rows(config.J, int(p))


def _log_norm_const(L):
    """log of the normal density constant for a lower Cholesky factor."""
    p = L.shape[0]
    return -0.5 * p * np.log(TWO_PI) - np.sum(np.log(np.diag(L)))


def _log_terms(dev0, L, offsets):
    """Log normal densities at ``dev0[i] + offsets[r]`` deviations.

    Parameters are a (n, p) array of base deviations from the mean, the
    lower Cholesky factor of the covariance, and an (m, p) array of
    lattice offsets (already scaled by 2*pi).  Returns an (n, m) array.
    """
    n, p = dev0.shape
    m = offsets.shape[0]
    const = _log_norm_const(L)
    out = np.empty((n, m))
    block = max(1, _CHUNK_ELEMS // (m * p))
    for start in range(0, n, block):
        dev = dev0[start : start + block, None, :] + offsets[None, :, :]
        z = solve_triangular(L, dev.reshape(-1, p).T, lower=True)
        out[start : start + block] = const - 0.5 * np.einsum("ij,ij->j", z, z).reshape(
            -1, m
        )
    return out


def _as_sample(sample):
    """``sample`` as a finite, non-empty (n, p) float array; a 1-D
    sample is one column."""
    y = np.asarray(sample, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if y.ndim != 2 or y.shape[0] == 0:
        raise ValueError("sample must be a non-empty (n, p) array")
    if not np.all(np.isfinite(y)):
        raise ValueError("sample must be finite")
    return y


def _per_observation_loglik(sample, params, config):
    """Recenter, factor, and return (loglik per observation, extras).

    The extras tuple (dev0, L, offsets, terms) lets callers reuse the
    expensive pieces, e.g. for expectation-step weights.
    """
    y = _as_sample(sample)
    p = params.p
    if y.shape[1] != p:
        raise ValueError(f"sample has {y.shape[1]} columns, parameters have {p}")
    L = safe_cholesky(params.sigma)
    offsets = TWO_PI * lattice_rows(config, p)
    dev0 = circular.center_to(y, params.mu) - params.mu
    terms = _log_terms(dev0, L, offsets)
    return logsumexp(terms, axis=1), (dev0, L, offsets, terms)


def mvn_logpdf(x, params):
    """Multivariate normal log density at ``x`` (no wrapping).

    ``x`` may be a single length-p vector or an (n, p) array; the result
    is a float or a length-n array accordingly.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    dev = np.atleast_2d(x) - params.mu
    L = safe_cholesky(params.sigma)
    z = solve_triangular(L, dev.T, lower=True)
    vals = _log_norm_const(L) - 0.5 * np.einsum("ij,ij->j", z, z)
    return float(vals[0]) if single else vals


def wrapped_log_density(y, params, config=LatticeConfig()):
    """Truncated-lattice log density of the wrapped normal.

    ``y`` is either a single angle vector of length ``p`` (returns a
    float) or an ``(n, p)`` stack of angle vectors (returns an ``(n,)``
    array).  Each observation is recentered so that its deviation from
    the mean lies in (-pi, pi] before the lattice window is applied,
    which keeps small windows accurate.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        vals, _ = _per_observation_loglik(y[None, :], params, config)
        return float(vals[0])
    if y.ndim == 2:
        vals, _ = _per_observation_loglik(y, params, config)
        return vals
    raise ValueError("y must be an angle vector or a stack of angle vectors")


def log_likelihood(sample, params, config=LatticeConfig()):
    """Sum of wrapped log densities over the rows of ``sample``.

    Summation order is fixed, so repeated calls on identical inputs give
    bit-identical results.
    """
    vals, _ = _per_observation_loglik(sample, params, config)
    return float(np.sum(vals))


def to_log_cholesky(params):
    """Flatten parameters into the unconstrained optimizer vector.

    Layout: the p mean angles, then the row-major upper triangle of the
    upper-triangular factor R with sigma = R'R, diagonal entries stored
    on log scale.
    """
    p = params.p
    R = safe_cholesky(params.sigma).T
    packed = R.copy()
    idx = np.arange(p)
    packed[idx, idx] = np.log(R[idx, idx])
    return np.concatenate([params.mu, packed[np.triu_indices(p)]])


def from_log_cholesky(theta, p):
    """Inverse of :func:`to_log_cholesky` for dimension ``p``."""
    theta = np.asarray(theta, dtype=float)
    expected = p + p * (p + 1) // 2
    if theta.shape != (expected,):
        raise ValueError(
            f"theta must have length {expected} for p={p}, got {theta.shape}"
        )
    R = np.zeros((p, p))
    R[np.triu_indices(p)] = theta[p:]
    idx = np.arange(p)
    R[idx, idx] = np.exp(R[idx, idx])
    return WnParams(theta[:p], R.T @ R)
