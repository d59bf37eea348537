"""Independent reference implementations used only by the tests.

Everything here is written directly from the defining formulas with
plain dense linear algebra (matrix inverses, explicit loops, wide
truncation windows) and deliberately shares no code with the package
under test.
"""

import itertools

import numpy as np

TWO_PI = 2.0 * np.pi


def mvn_logpdf_dense(x, mu, sigma):
    """Normal log density via explicit inverse and determinant."""
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    p = mu.shape[0]
    dev = x - mu
    inv = np.linalg.inv(sigma)
    _, logdet = np.linalg.slogdet(sigma)
    return -0.5 * (p * np.log(TWO_PI) + logdet + dev @ inv @ dev)


def wrapped_logpdf_dense(y, mu, sigma, J):
    """Truncated lattice sum of shifted normal log densities.

    No recentering: accuracy comes from a wide window, so callers pass a
    J large enough for the scale at hand.
    """
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    p = mu.shape[0]
    terms = []
    for shift in itertools.product(range(-J, J + 1), repeat=p):
        terms.append(mvn_logpdf_dense(y + TWO_PI * np.asarray(shift), mu, sigma))
    terms = np.asarray(terms)
    top = np.max(terms)
    return float(top + np.log(np.sum(np.exp(terms - top))))


def window_logpdf_dense(y, mu, sigma, widths):
    """Lattice sum over the product window {-w..w} of each coordinate's
    half-width ``w``; a width of 0 leaves that coordinate unshifted."""
    y = np.asarray(y, dtype=float)
    terms = [
        mvn_logpdf_dense(y + TWO_PI * np.asarray(shift), mu, sigma)
        for shift in itertools.product(*(range(-w, w + 1) for w in widths))
    ]
    top = max(terms)
    return float(top + np.log(np.sum(np.exp(np.asarray(terms) - top))))


def window_weights_dense(y, mu, sigma, widths):
    """Posterior weight of each row of the product window {-w..w} of
    each coordinate's half-width ``w``, rows in lexicographic order, for
    one observation ``y``."""
    shifts = TWO_PI * np.array(
        list(itertools.product(*(range(-w, w + 1) for w in widths))), dtype=float
    )
    dev = np.asarray(y, dtype=float) + shifts - np.asarray(mu, dtype=float)
    terms = -0.5 * np.einsum("ri,ij,rj->r", dev, np.linalg.inv(sigma), dev)
    w = np.exp(terms - terms.max())
    return w / w.sum()


def best_row_dense(y, mu, sigma, J):
    """Index in the {-J..J}^p window, rows in lexicographic order, of the
    first row r with the highest normal log density at ``y + 2*pi*r``,
    and the gap between the highest and the next highest density.

    ``y`` is used as given, with no recentering.
    """
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    inv = np.linalg.inv(np.asarray(sigma, dtype=float))
    shifts = np.array(list(itertools.product(range(-J, J + 1), repeat=mu.shape[0])))
    dev = y + TWO_PI * shifts - mu
    terms = -0.5 * np.einsum("ri,ij,rj->r", dev, inv, dev)
    best = int(np.argmax(terms))  # first occurrence
    if terms.shape[0] == 1:
        return best, np.inf
    second = np.max(np.delete(terms, best))
    return best, float(terms[best] - second)


def loglik_dense(sample, mu, sigma, J):
    return float(
        np.sum([wrapped_logpdf_dense(row, mu, sigma, J) for row in np.atleast_2d(sample)])
    )


def weighted_moments_loop(y, weights, J):
    """Conditional mean/covariance by explicit loops over the window."""
    y = np.asarray(y, dtype=float)
    p = y.shape[0]
    rows = list(itertools.product(range(-J, J + 1), repeat=p))
    mean = np.zeros(p)
    for w, row in zip(weights, rows):
        mean += w * (y + TWO_PI * np.asarray(row))
    cov = np.zeros((p, p))
    for w, row in zip(weights, rows):
        dev = y + TWO_PI * np.asarray(row) - mean
        cov += w * np.outer(dev, dev)
    return mean, cov


def scatter_divergence_eig(sigma_hat, sigma_true):
    """Stein divergence through the eigenvalues of the matrix ratio."""
    ratio = np.linalg.solve(sigma_true, sigma_hat)
    gammas = np.linalg.eigvals(ratio).real
    return float(np.sum(gammas - np.log(gammas) - 1.0))


def _loglik_1d_grid(y, mus, sigmas, J):
    """Univariate truncated log-likelihood on a (mu, sigma) grid.

    Returns an array of shape (len(mus), len(sigmas)).  Evaluates the
    plain lattice sum with shifts -J..J; no recentering, which is exact
    enough because the window is wide and the data canonical.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    shifts = TWO_PI * np.arange(-J, J + 1)
    sigmas = np.asarray(sigmas, dtype=float)
    out = np.empty((len(mus), len(sigmas)))
    inv_two_var = 1.0 / (2.0 * sigmas**2)
    log_norm = -np.log(sigmas) - 0.5 * np.log(TWO_PI)
    chunk = max(1, 2_000_000 // (n * shifts.size))
    for mi, mu in enumerate(mus):
        sq = (y[:, None] + shifts[None, :] - mu) ** 2  # (n, 2J+1)
        for s0 in range(0, len(sigmas), chunk):
            block = inv_two_var[s0 : s0 + chunk]
            ex = np.exp(-sq[:, :, None] * block[None, None, :])
            with np.errstate(divide="ignore"):
                # exp underflow at tiny sigma far from the data gives
                # log(0) = -inf, which correctly loses the argmax
                lse = np.log(np.sum(ex, axis=1))  # (n, chunk)
            out[mi, s0 : s0 + chunk] = np.sum(lse, axis=0) + n * log_norm[s0 : s0 + chunk]
    return out


def grid_mle_1d(
    y,
    J=10,
    mu_step=1e-3,
    sigma_step=1e-3,
    sigma_lo=0.05,
    sigma_hi=TWO_PI,
    coarse_step=0.02,
    mu_halfwidth=0.5,
):
    """Brute-force maximizer of the univariate truncated log-likelihood
    over the fine (mu, sigma) grid.

    The fine grids step by ``mu_step`` around the circular mean and by
    ``sigma_step`` from ``sigma_lo``.  A coarse scan locates the optimum
    basin first and the fine grid is evaluated in an expanding window
    around it, so the returned point is the fine-grid argmax without
    evaluating millions of grid nodes.  The window is widened until the
    argmax is strictly interior.
    """
    y = np.asarray(y, dtype=float)
    c = np.mean(np.cos(y))
    s = np.mean(np.sin(y))
    mu_center = np.arctan2(s, c) % TWO_PI

    def mu_grid(lo_k, hi_k):
        return mu_center + mu_step * np.arange(lo_k, hi_k + 1)

    def sigma_grid(lo_k, hi_k):
        ks = np.arange(max(lo_k, 0), hi_k + 1)
        vals = sigma_lo + sigma_step * ks
        return ks[vals <= sigma_hi + 1e-12], np.minimum(vals[vals <= sigma_hi + 1e-12], sigma_hi)

    # Coarse scan.
    mus_c = mu_center + np.arange(-mu_halfwidth, mu_halfwidth + coarse_step, coarse_step)
    sigmas_c = np.arange(sigma_lo, sigma_hi + coarse_step, coarse_step)
    sigmas_c = sigmas_c[sigmas_c <= sigma_hi]
    grid_c = _loglik_1d_grid(y, mus_c, sigmas_c, J)
    ci, cj = np.unravel_index(np.argmax(grid_c), grid_c.shape)
    mu_best_k = round((mus_c[ci] - mu_center) / mu_step)
    sigma_best_k = round((sigmas_c[cj] - sigma_lo) / sigma_step)

    # Fine scan in an expanding window around the coarse winner.
    half = int(round(1.5 * coarse_step / mu_step))
    for _ in range(8):
        mu_lo, mu_hi = mu_best_k - half, mu_best_k + half
        sg_lo, sg_hi = sigma_best_k - half, sigma_best_k + half
        mus = mu_grid(mu_lo, mu_hi)
        sigma_ks, sigmas = sigma_grid(sg_lo, sg_hi)
        grid = _loglik_1d_grid(y, mus, sigmas, J)
        fi, fj = np.unravel_index(np.argmax(grid), grid.shape)
        mu_best_k = mu_lo + fi
        sigma_best_k = int(sigma_ks[fj])
        interior_mu = 0 < fi < len(mus) - 1
        interior_sigma = (0 < fj < len(sigmas) - 1) or (
            fj == len(sigmas) - 1 and sigmas[fj] >= sigma_hi - 1e-12
        ) or (fj == 0 and sigma_ks[0] == 0)
        if interior_mu and interior_sigma:
            return (
                mus[fi] % TWO_PI,
                float(sigmas[fj]),
                float(grid[fi, fj]),
            )
        half *= 2
    raise RuntimeError("grid maximizer failed to bracket the optimum")
