"""Circular summary statistics and angle bookkeeping on the torus."""

import numpy as np

from . import model
from ._linalg import TWO_PI, clip_to_pd
from .errors import DegenerateStatisticError

# Resultant lengths below this are treated as exactly zero: the circular
# mean direction of such a sample is undefined.
_ZERO_RESULTANT = 1e-14


def wrap_angle(x):
    """Reduce angles to the canonical interval [0, 2*pi).

    Accepts scalars or arrays and preserves the input shape.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("angles must be finite")
    out = np.mod(x, TWO_PI)
    # np.mod can round up to the modulus itself for tiny negative inputs.
    out = np.where(out >= TWO_PI, out - TWO_PI, out)
    if out.ndim == 0:
        return float(out)
    return out


def center_to(y, mu):
    """Shift ``y`` by whole turns so that ``y - mu`` lies in (-pi, pi].

    Works componentwise and broadcasts, so a full (n, p) sample can be
    recentered about a length-p mean in one call.  The returned
    representative is congruent to ``y`` modulo 2*pi; a difference of
    exactly -pi maps to +pi.
    """
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if y.shape[-1:] != mu.shape[-1:]:
        raise ValueError(
            f"dimension mismatch: y has trailing dimension {y.shape[-1:]}, "
            f"mu has {mu.shape[-1:]}"
        )
    turns = np.ceil((y - mu - np.pi) / TWO_PI)
    return y - TWO_PI * turns


def _resultant(angles):
    """Mean cosine and mean sine of a non-empty sample of angles."""
    angles = np.asarray(angles, dtype=float)
    if angles.size == 0:
        raise ValueError("empty sample")
    return np.mean(np.cos(angles)), np.mean(np.sin(angles))


def circular_mean(angles):
    """Mean direction of a sample of angles, in [0, 2*pi)."""
    c, s = _resultant(angles)
    if np.hypot(c, s) < _ZERO_RESULTANT:
        raise DegenerateStatisticError(
            "circular mean is undefined: resultant length is zero"
        )
    return wrap_angle(np.arctan2(s, c))


def mean_resultant_length(angles):
    """Length of the average unit vector of a sample of angles, in [0, 1]."""
    return min(float(np.hypot(*_resultant(angles))), 1.0)


def _sine_correlation(sx, sy):
    """Correlation of two paired samples of sine deviations."""
    denom = np.sqrt(np.sum(sx**2) * np.sum(sy**2))
    if denom < _ZERO_RESULTANT:
        raise DegenerateStatisticError(
            "circular correlation is undefined: zero sine variation"
        )
    return float(np.clip(np.sum(sx * sy) / denom, -1.0, 1.0))


def circular_correlation(x, y):
    """Circular correlation coefficient of two paired angle samples.

    Computed from products of sines of deviations from the respective
    mean directions; the result lies in [-1, 1].
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("samples must have equal length")
    return _sine_correlation(np.sin(x - circular_mean(x)), np.sin(y - circular_mean(y)))


def angle_separation(a, b):
    """Sum of 1 - cos differences between two angle vectors.

    A discrepancy measure on the torus: 0 iff the vectors agree modulo
    2*pi, with maximum 2p attained when every component is antipodal.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("angle vectors must have equal length")
    return float(np.sum(1.0 - np.cos(a - b)))


def initial_params(sample):
    """Moment-based starting values for the wrapped normal fits.

    Component means are the circular means of the columns.  Diagonal
    variances invert the mean-resultant-length relation
    ``rho = exp(-sigma^2 / 2)``, giving ``-2 log rho_hat``.  Off-diagonal
    entries are the circular correlation of each column pair times the
    product of the implied standard deviations.  The assembled matrix is
    repaired to positive definiteness by eigenvalue clipping when needed.

    Parameters
    ----------
    sample : array, shape (n, p) or (n,)
        Angles in radians.  Arbitrary real representatives are accepted
        and are reduced modulo 2*pi.

    Returns
    -------
    WnParams
    """
    y = wrap_angle(model._as_sample(sample))
    p = y.shape[1]

    mu = np.empty(p)
    var = np.empty(p)
    sines = []  # each column's sine deviations from its mean direction
    for r in range(p):
        c, s = _resultant(y[:, r])
        rho = min(float(np.hypot(c, s)), 1.0)
        if rho < _ZERO_RESULTANT or rho >= 1.0 - 1e-12:
            raise DegenerateStatisticError(
                f"column {r} has mean resultant length {rho:.3g}; starting "
                "values are undefined (try jittering the data)"
            )
        mu[r] = wrap_angle(np.arctan2(s, c))
        var[r] = -2.0 * np.log(rho)
        sines.append(np.sin(y[:, r] - mu[r]))

    sigma = np.diag(var)
    scale = np.sqrt(var)
    for r in range(p):
        for s in range(r + 1, p):
            cov = _sine_correlation(sines[r], sines[s]) * scale[r] * scale[s]
            sigma[r, s] = cov
            sigma[s, r] = cov
    sigma, _ = clip_to_pd(sigma)
    return model.WnParams(mu, sigma)
