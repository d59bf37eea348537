"""Wrapped normal parameters, truncated-lattice densities, and the
log-Cholesky parameter vector used by the direct optimizer."""

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import circular
from ._linalg import TWO_PI, safe_cholesky
from .errors import LatticeTooLargeError

#: Reject lattices with more rows than this.
MAX_LATTICE_ROWS = 100_000_000

#: Target element count of a block's (observation, row) term array.
_CHUNK_ELEMS = 1_000_000

#: Rows whose log term lies further than this below an observation's
#: top term get weight zero.  Such weights, under e^-600 (about 1e-261)
#: of the top row's, are below one unit in the last place of every sum
#: they enter, even over MAX_LATTICE_ROWS rows.  The terms are raised to
#: the floor before ``exp``, which on the far, underflowing terms takes a
#: path tens of times slower, and the floor's weight is then subtracted.
_LOG_WEIGHT_FLOOR = -600.0
#: Twice the weight of a floored term, so that rounding cannot leave one
#: above zero.
_WEIGHT_CUT = 2.0 * math.exp(_LOG_WEIGHT_FLOOR)

#: Rows of the J window that the covariance puts further below an
#: observation's top row than log(rows / _PRUNE_EPS) + 1 are left out of
#: the pass; together they carry less than _PRUNE_EPS of its mass.
_PRUNE_EPS = 1e-16
#: Smaller windows are passed whole, and their best rows found by
#: scoring every row: there the bound of :func:`_reach` and the search
#: of :func:`_closest_rows` cost about as much as the rows they save.
_PRUNE_MIN_ROWS = 1000

#: Relative slack of the radius of :func:`_closest_rows`.
_SEARCH_SLACK = 1e-10


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
        if not (np.isfinite(mu).all() and np.isfinite(sigma).all()):
            raise ValueError("parameters must be finite")
        # np.allclose(sigma, sigma.T, rtol=1e-10, atol=1e-14) on finite entries
        if not (np.abs(sigma - sigma.T) <= 1e-14 + 1e-10 * np.abs(sigma.T)).all():
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
    recentering, the default J = 3 against a J = 8 reference (p = 1-3,
    correlation condition number 20, at the true parameters) loses at
    most 9e-16 of an observation's log density at sigma = pi/2 and 6e-11
    at sigma = pi, but up to 2e-5 at sigma = 3*pi/2, or 9e-4 in the total
    log-likelihood of 100 observations.
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
def _window(widths):
    """Integer rows, their 2*pi offsets and per-axis offset grids of the
    window {-widths[0]..widths[0]} x ... x {-widths[-1]..widths[-1]}.

    Rows are in ascending lexicographic order (last coordinate fastest);
    ``grids`` holds (axis, 2*pi*(-J..J)) for each axis of width J > 0.
    """
    axes = [np.arange(-J, J + 1) for J in widths]
    grid = np.meshgrid(*axes, indexing="ij")
    rows = np.stack(grid, axis=-1).reshape(-1, len(widths))
    offsets = TWO_PI * rows
    grids = tuple((k, TWO_PI * ax) for k, ax in enumerate(axes) if ax.size > 1)
    for arr in (rows, offsets, *(g for _, g in grids)):
        arr.setflags(write=False)
    return rows, offsets, grids


def lattice_rows(config, p):
    """All integer shift vectors of the truncation window, as an (m, p)
    array in ascending lexicographic order."""
    config.n_rows(p)  # guard
    return _window((config.J,) * int(p))[0]


def _forward(L, x):
    """L^-1 x for a (p, k) ``x``, one coordinate row at a time.

    Every column is solved by the same elementwise operations in the
    same order, so a column's result does not depend on ``k`` or on the
    other columns (a BLAS solve or product may round differently with
    the batch).  Each step is written into the result's row.
    """
    z = np.empty(x.shape)
    for k in range(x.shape[0]):
        acc = x[k]
        for j in range(k):
            acc = np.subtract(acc, L[k, j] * z[j], out=z[k])
        np.divide(acc, L[k, k], out=z[k])
    return z


def _backward(L, z):
    """L^-T z for a (p, k) ``z``, elementwise like :func:`_forward`."""
    c = np.empty(z.shape)
    for k in reversed(range(z.shape[0])):
        acc = z[k]
        for j in range(k + 1, z.shape[0]):
            acc = np.subtract(acc, L[j, k] * c[j], out=c[k])
        np.divide(acc, L[k, k], out=c[k])
    return c


def _half_sq_norms(z):
    """Half the squared norm of each column of a (p, k) array."""
    acc = z[0] * z[0]
    for row in z[1:]:
        acc += row * row
    return 0.5 * acc


#: What one lattice pass keeps; see :func:`_lattice_pass`.
_LatticePass = namedtuple("_LatticePass", "loglik cond_mean scatter row_mass")


def _row_part(L, offsets):
    """const - |L^-1 o_r|^2 / 2 for each window offset ``o_r``: the part
    of a row's log term that no observation changes."""
    const = -0.5 * L.shape[0] * np.log(TWO_PI) - np.log(L.diagonal()).sum()
    return const - _half_sq_norms(_forward(L, offsets.T))


def _normal_loglik(dev, L):
    """Normal log density, const - |L^-1 d|^2 / 2, of each row ``d`` of
    the (n, p) ``dev`` at the covariance factor ``L``, nan set to -inf.

    This is, bit for bit, the ``loglik`` of :func:`_lattice_pass` over
    the one-row window (0, ..., 0), whose row part is const - 0 and
    whose single weight is exactly 1.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals = _row_part(L, dev)
    vals[np.isnan(vals)] = -np.inf
    return vals


def _block_top(dev0, L, row_part, grids):
    """Log terms of a block of base deviations ``dev0`` (block, p) at
    every window row, each observation's first row of highest term, and
    that term.

    With a = L^-1 d and c = L^-T a the term of row r is
    ``row_part[r]`` - |a|^2/2 - c.o_r, the cross term being an outer sum
    of per-axis terms over ``grids``.  nan terms are set to -inf.
    """
    a = _forward(L, dev0.T)
    c = _backward(L, a)
    nb = a.shape[1]
    # |a|^2/2 + c.o_r as an outer sum, built from the last axis
    # (the fastest in row order) outwards
    terms = _half_sq_norms(a)[:, None]
    for k, g in reversed(grids):
        cross = np.multiply.outer(c[k], g)
        terms = (cross[:, :, None] + terms[:, None, :]).reshape(nb, -1)
    np.subtract(row_part, terms, out=terms)
    rows = np.arange(nb)
    best = terms.argmax(axis=1)
    # argmax stops at a row's first nan
    top = terms[rows, best]
    if np.isnan(top).any():
        terms[np.isnan(terms)] = -np.inf
        best = terms.argmax(axis=1)
        top = terms[rows, best]
    return terms, best, top


def _prune_cut(m):
    """T = log(m/_PRUNE_EPS) + 1 for a window of ``m`` rows: the rows of
    an observation more than T below its top row carry, together, less
    than _PRUNE_EPS/e of its mass."""
    return math.log(m / _PRUNE_EPS) + 1.0


def _reduce_candidates(obs, rows, terms, top, offsets):
    """Reduce candidate (observation, row, log term) triples into a
    :data:`_LatticePass` of the observations of ``top``.

    ``obs`` indexes ``top``, each observation's finite top term, and
    ``rows`` the rows of the window ``offsets``; each observation's
    candidates come in ascending row order.  Every sum of an observation
    runs over its own candidates in that order (``np.bincount`` adds in
    input order), so its results do not depend on the other
    observations.  The scatter is summed as w (o - s)(o - s)' over the
    candidates, about each one's conditional mean s.  An observation
    without candidates gets ``loglik`` -inf and a nan ``cond_mean``.
    """
    nb, p = top.shape[0], offsets.shape[1]
    w = np.exp(terms - top[obs])
    total = np.bincount(obs, w, nb)
    w /= total[obs]
    o = offsets[rows]
    # the p coordinates of observation i are the bins i * p .. i * p + p - 1
    bins = (obs[:, None] * p + np.arange(p)).ravel()
    cond_mean = np.bincount(bins, (w[:, None] * o).ravel(), nb * p).reshape(nb, p)
    cond_mean[total == 0] = np.nan
    o -= cond_mean[obs]
    return _LatticePass(
        loglik=top + np.log(total),
        cond_mean=cond_mean,
        scatter=(w[:, None] * o).T @ o,
        row_mass=np.bincount(rows, w, offsets.shape[0]),
    )


def _lattice_pass(dev0, L, widths, cut=None):
    """Reduce the normal log densities at ``dev0[i] + 2*pi*j`` over the
    window rows ``j`` of per-axis half-widths ``widths``.

    Parameters are a (n, p) array of base deviations from the mean, the
    lower Cholesky factor of the covariance, and one half-width per
    coordinate (0 leaves a coordinate unshifted); the m rows are ordered
    as in :func:`lattice_rows`.

    The row part of the log terms is computed once per pass and the rest
    by :func:`_block_top`.  Every per-observation step is elementwise,
    so an observation's terms do not depend on the block it shares.
    Observations are walked in blocks of about ``_CHUNK_ELEMS``
    (observation, row) elements; each block's (block, m) terms are
    turned in place into posterior weights by a max-shifted
    log-sum-exp, with weights under ``exp(_LOG_WEIGHT_FLOOR)`` of the
    top row's set to zero, and reduced at once, so no (n, m) array is
    held.

    Given a ``cut`` T, each observation keeps only the rows whose term
    is at least its top term minus T, and :func:`_reduce_candidates`
    reduces those instead: the block's m weights per observation are
    never formed.  The rows dropped lie more than T below the top row,
    so together they carry less than m e^-T of the observation's mass:
    under _PRUNE_EPS/e for a T of :func:`_prune_cut` (m) or more.  They
    add nothing to ``row_mass``.

    Returns a :data:`_LatticePass` of ``loglik`` (n,), the log of each
    observation's summed densities; ``cond_mean`` (n, p), each
    observation's posterior mean offset; ``scatter`` (p, p), the
    within-observation posterior scatter summed over the sample; and
    ``row_mass`` (m,), each row's posterior weight summed over the
    sample.
    """
    n, p = dev0.shape
    _, offsets, grids = _window(tuple(widths))
    m = offsets.shape[0]
    loglik = np.empty(n)
    cond_mean = np.empty((n, p))
    row_mass = np.zeros(m)
    scatter = np.zeros((p, p))
    block = max(1, _CHUNK_ELEMS // m)
    # Squared deviations that overflow make terms of -inf, or nan
    # (inf - inf) in the expanded form, which _block_top sets to -inf.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        row_part = _row_part(L, offsets)
        for start in range(0, n, block):
            sl = slice(start, start + block)
            terms, _, top = _block_top(dev0[sl], L, row_part, grids)
            # A row of -inf terms gets loglik -inf, which the fits
            # report, and nan weights.
            top[~np.isfinite(top)] = 0.0
            if cut is not None:
                keep = np.flatnonzero(terms >= (top - cut)[:, None])
                obs, rows = np.divmod(keep, m)
                part = _reduce_candidates(obs, rows, terms.ravel()[keep], top, offsets)
                loglik[sl], cond_mean[sl] = part.loglik, part.cond_mean
                row_mass += part.row_mass
                scatter += part.scatter
                continue
            terms -= top[:, None]
            np.maximum(terms, _LOG_WEIGHT_FLOOR, out=terms)
            w = np.exp(terms, out=terms)
            w -= _WEIGHT_CUT
            np.maximum(w, 0.0, out=w)
            total = w.sum(axis=1)
            loglik[sl] = top + np.log(total)
            w /= total[:, None]
            s = w @ offsets
            cond_mean[sl] = s
            row_mass += w.sum(axis=0)
            scatter -= s.T @ s
    if cut is None:
        # sum_i sum_r w_ir (o_r - s_i)(o_r - s_i)' = sum_r mass_r o_r o_r' - sum_i s_i s_i'
        scatter += (offsets * row_mass[:, None]).T @ offsets
    return _LatticePass(loglik, cond_mean, scatter, row_mass)


def _lattice_best(dev0, L, widths):
    """Each observation's first row of highest term in the window of
    per-axis half-widths ``widths``, scored as in :func:`_lattice_pass`
    but without the weights and reductions."""
    _, offsets, grids = _window(tuple(widths))
    best = np.empty(dev0.shape[0], dtype=np.intp)
    block = max(1, _CHUNK_ELEMS // offsets.shape[0])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        row_part = _row_part(L, offsets)
        for start in range(0, dev0.shape[0], block):
            sl = slice(start, start + block)
            best[sl] = _block_top(dev0[sl], L, row_part, grids)[1]
    return best


def _closest_rows(dev0, L, J):
    """The rows of :func:`_lattice_best` over the {-J..J}^p window,
    found by a closest-vector search instead of scoring all
    (2J+1)^p rows.

    Row r's term is const - |z|^2/2 with z = L^-1 (d + 2 pi r), so the
    best row is the box row closest to -d/(2 pi) in the sigma^-1 metric.
    Because L is lower-triangular, z_k depends on r_0..r_k only.
    Babai's nearest-plane row z_B (each r_k rounded in turn, clipped to
    [-J, J]) bounds the least |z|^2.  A breadth-first Fincke-Pohst
    search then lists, in lexicographic order, every box row with
    |z|^2 <= R^2 = |z_B|^2 + _SEARCH_SLACK (1 + |a|^2 + |z_B|^2), where
    a = L^-1 d.  Each candidate's term is computed by the formula and in
    the order of :func:`_block_top`, nan set to -inf, and the first
    highest wins, so the result is the full window's bit for bit.

    The slack covers rounding.  The formula sums about 2p + 2 rounded
    terms whose sizes are bounded by |a|^2, |b|^2 and |a||b|, with
    b = L^-1 o_r and |b| <= |a| + |z|; its error is of order
    p eps (|a|^2 + |z|^2), and the search's own error on |z|^2 of order
    p eps |z|^2, each times the condition number kappa of L that the
    substitutions bring in.  A row whose formula term is at least
    Babai's therefore has
    |z|^2 <= |z_B|^2 + 10 p kappa eps (1 + |a|^2 + |z_B|^2) or so.  At
    p <= 16, the largest p a guarded window allows, and kappa <= 100
    (a condition number of sigma up to 1e4), that is under 4e-12, a
    25th of the slack of 1e-10.
    The cancellation of |a|^2 against 2 c.o_r (at small sigma with d
    near +-pi) is why the slack scales with |a|^2.

    The search runs across observations at once; every step is
    elementwise per (observation, prefix) node, so a row's result does
    not depend on the others.  A level whose nodes would exceed about
    ``_CHUNK_ELEMS / p`` children is split into consecutive runs of
    parents, searched one after another.  Observations whose radius or
    sigma^-1 d is not finite, or whose best candidate term is not
    finite, are scored on the whole window by :func:`_lattice_best`.
    """
    n, p = dev0.shape
    width = 2 * J + 1
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a = _forward(L, dev0.T)
        half_a = _half_sq_norms(a)
        c = _backward(L, a)
        # Babai's nearest-plane row, clipped to the box; row k of `rest`
        # is d_k - sum_{j<k} L[k, j] z_j
        rest = dev0.T.copy()
        zb = np.zeros(n)
        for k in range(p):
            r = np.clip(np.rint(-rest[k] / TWO_PI), -J, J)
            zk = (rest[k] + TWO_PI * r) / L[k, k]
            rest[k + 1 :] -= L[k + 1 :, k, None] * zk
            zb += zk * zk
        radius = zb + _SEARCH_SLACK * (1.0 + 2.0 * half_a + zb)
        ok = np.isfinite(radius) & np.all(np.isfinite(c), axis=0)
        top = np.full(n, -np.inf)
        best = np.full(n, -1, dtype=np.intp)
        limit = max(1, _CHUNK_ELEMS // p)

        def score(obs, index):
            # the terms of _block_top, in its order
            digits = np.empty((p, index.shape[0]), dtype=np.intp)
            place = index
            for k in reversed(range(p)):
                place, digits[k] = np.divmod(place, width)
            offsets = TWO_PI * (digits - J)
            terms = half_a[obs]
            for k in reversed(range(p)):
                terms = c[k][obs] * offsets[k] + terms
            terms = _row_part(L, offsets.T) - terms
            terms[np.isnan(terms)] = -np.inf
            # each observation's first highest candidate
            starts = np.flatnonzero(np.r_[True, obs[1:] != obs[:-1]])
            high = np.maximum.reduceat(terms, starts)
            sizes = np.diff(np.r_[starts, obs.shape[0]])
            at = np.where(terms == np.repeat(high, sizes), np.arange(obs.shape[0]), obs.shape[0])
            first = np.minimum.reduceat(at, starts)
            # runs come in lexicographic order, so a later tie loses
            who = obs[starts]
            new = (high > top[who]) | (best[who] < 0)
            top[who[new]] = high[new]
            best[who[new]] = index[first[new]]

        def search(k, obs, index, partial, rest):
            # rest: rows k.. of d - sum_{j<k} L[:, j] z_j for each node's prefix
            if k == p:
                score(obs, index)
                return
            acc = rest[0]
            centre = -acc / TWO_PI
            spread = L[k, k] * np.sqrt(np.maximum(radius[obs] - partial, 0.0)) / TWO_PI
            lo = np.clip(np.ceil(centre - spread), -J, J + 1)
            hi = np.clip(np.floor(centre + spread), -J - 1, J)
            count = np.where(hi >= lo, hi - lo + 1, 0).astype(np.intp)
            lo = lo.astype(np.intp)  # where count > 0
            # consecutive runs of parents with about `limit` children each
            cuts = np.flatnonzero(np.diff((np.cumsum(count) - count) // limit)) + 1
            for run in np.split(np.arange(obs.shape[0]), cuts):
                size = count[run]
                parent = np.repeat(run, size)
                if parent.shape[0] == 0:
                    continue
                step = np.arange(parent.shape[0]) - np.repeat(np.cumsum(size) - size, size)
                r = lo[parent] + step
                zk = (acc[parent] + TWO_PI * r) / L[k, k]
                search(
                    k + 1,
                    obs[parent],
                    index[parent] * width + (r + J),
                    partial[parent] + zk * zk,
                    rest[1:, parent] - L[k + 1 :, k, None] * zk,
                )

        live = np.flatnonzero(ok)
        search(0, live, np.zeros_like(live), np.zeros(live.shape[0]), dev0.T[:, live])
    redo = np.flatnonzero(~np.isfinite(top) | (best < 0))
    if redo.shape[0]:
        best[redo] = _lattice_best(dev0[redo], L, (J,) * p)
    return best


@functools.lru_cache(maxsize=32)
def _steps(J, p):
    """The steps u of :func:`_reach`, as a (3^p - 1, p) array of
    {-1, 0, 1}^p without 0, and an (m, 3^p - 1) mask of whether r - u
    lies in the {-J..J}^p window, for each row r of :func:`lattice_rows`.
    """
    rows = _window((J,) * p)[0]
    steps = _window((1,) * p)[0]
    steps = np.delete(steps, steps.shape[0] // 2, axis=0)
    # r - u leaves the window only where r_k = J and u_k = -1, or
    # r_k = -J and u_k = 1
    at_top = (rows == J).astype(float)
    at_bottom = (rows == -J).astype(float)
    inside = at_top @ (steps == -1).T + at_bottom @ (steps == 1).T == 0
    for arr in (steps, inside):
        arr.setflags(write=False)
    return steps, inside


def _reach(L, J):
    """Per-axis half-widths, at most ``J``, of the window rows that the
    covariance with lower Cholesky factor ``L`` lets carry mass.

    Every row r of the {-J..J}^p window left outside the returned widths
    lies more than T = log(m/_PRUNE_EPS) + 1 below some row of the J
    window, whatever the recentred deviation d in [-pi, pi]^p: so below
    the top row by as much, and together the m rows dropped carry less
    than _PRUNE_EPS/e of an observation's mass.  With P = sigma^-1, a
    row s = r - u for a step u in {-1, 0, 1}^p lies above r by
        term_s - term_r = 2 pi u'P d + 4 pi^2 u'P r - 2 pi^2 u'P u
                       >= 4 pi^2 u'P r - 2 pi^2 (u'P u + |P u|_1),
    and the zero row lies above r by at least
    2 pi^2 (r'P r - |P r|_1).  The bound rounds in proportion to
    sigma^-1; the top row, whose bound is at most 0, is left out only if
    that rounding exceeds T.  The widths depend on sigma, J and p only,
    not on the sample, so a row's term does not depend on the batch.

    The full window is kept when J < 2 (no row of a J = 1 window can be
    certified), when the window has fewer than _PRUNE_MIN_ROWS rows (the
    bound costs more than it saves) or more (row, step) pairs than one
    block of the pass holds, and when sigma^-1 is not finite.
    """
    p = L.shape[0]
    full = (J,) * p
    m = (2 * J + 1) ** p
    if J < 2 or m < _PRUNE_MIN_ROWS or m * (3**p - 1) > _CHUNK_ELEMS:
        return full
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        L_inv = _forward(L, np.eye(p))
        P = L_inv.T @ L_inv
        if not np.all(np.isfinite(P)):
            return full
        rows, offsets, _ = _window(full)
        steps, inside = _steps(J, p)
        T = _prune_cut(m)
        Pu = steps @ P
        cut = T + 2 * np.pi**2 * (np.sum(steps * Pu, axis=1) + np.sum(np.abs(Pu), axis=1))

        def dropped(index):
            o = offsets[index]  # 2 pi r
            # the zero row above r
            Po = o @ P
            quad = 0.5 * np.sum(o * Po, axis=1)
            l1 = np.pi * np.sum(np.abs(Po), axis=1)
            far = quad - l1 > T
            # r - u above r, where r - u lies in the window
            above = (o @ (TWO_PI * Pu).T > cut) & inside[index]
            return far | np.any(above, axis=1)

        # On each axis k, the row nearest to J sigma[:, k] / sigma[k, k],
        # the point of least Mahalanobis norm with r_k = J, is the likeliest
        # to be kept, and keeps the axis whole.  When all of them are
        # kept, the other rows need no test.  (Any row may be tried, so
        # an overflowing sigma only makes a worse guess.)
        sigma = L @ L.T
        near = np.nan_to_num(np.rint(J * sigma / np.diag(sigma)))
        near = np.clip(near, -J, J).astype(np.intp)
        if not np.any(dropped(np.ravel_multi_index(tuple(near + J), (2 * J + 1,) * p))):
            return full
        kept = rows[~dropped(slice(None))]
    return tuple(int(w) for w in np.max(np.abs(kept), axis=0))


def _as_sample(sample):
    """``sample`` as a finite, non-empty (n, p) float array; a 1-D
    sample is one column."""
    y = np.asarray(sample, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if y.ndim != 2 or y.shape[0] == 0:
        raise ValueError("sample must be a non-empty (n, p) array")
    if not np.isfinite(y).all():
        raise ValueError("sample must be finite")
    return y


def _per_observation_loglik(sample, params, config, whole=False):
    """:func:`_recentred_pass` of a sample at validated parameters."""
    y = _as_sample(sample)
    p = params.p
    if y.shape[1] != p:
        raise ValueError(f"sample has {y.shape[1]} columns, parameters have {p}")
    return _recentred_pass(y, params.mu, safe_cholesky(params.sigma), config, whole)


def _recentred_pass(y, mu, L, config, whole=False):
    """Recenter the (n, p) sample ``y`` about the mean ``mu`` and make one
    lattice pass with the lower Cholesky factor ``L`` of the covariance.

    The pass runs over the rows of the J window that :func:`_reach`
    keeps, or over the whole window if ``whole``.  Returns its
    :data:`_LatticePass` record, ``row_mass`` over the rows passed, with
    ``cond_mean`` in absolute coordinates: each observation's posterior
    mean of its unwrapped representative.

    A pass that is not ``whole`` and still has ``_PRUNE_MIN_ROWS`` rows
    or more after :func:`_reach` is also cut at _reach's own
    T = :func:`_prune_cut` (m), m the J window's rows: each observation
    keeps only the rows within T of its top row.  Every row dropped,
    by the cut or by _reach, lies more than T below the top row, so
    together they carry less than _PRUNE_EPS/e of the observation's
    mass.  Whole passes (the E-step's weights) and smaller windows are
    reduced over every row.  The kept rows are still found by scoring
    the whole window.  A sphere search like :func:`_closest_rows` could
    list them directly, but the benchmark keeps every round's outputs,
    so its peak memory would read that speed as a regression.
    """
    p = y.shape[1]
    m = config.n_rows(p)  # guard
    dev0 = circular.center_to(y, mu) - mu
    widths = (config.J,) * p if whole else _reach(L, config.J)
    rows = math.prod(2 * w + 1 for w in widths)
    cut = None if whole or rows < _PRUNE_MIN_ROWS else _prune_cut(m)
    record = _lattice_pass(dev0, L, widths, cut)
    return record._replace(cond_mean=mu + dev0 + record.cond_mean)


def _best_rows(y, mu, L, config, centred=None):
    """Each observation's first row of highest term in the J window,
    after recentring ``y`` about ``mu``: by :func:`_closest_rows` on
    windows of ``_PRUNE_MIN_ROWS`` rows or more, by scoring every row
    (:func:`_lattice_best`) on smaller ones.  ``centred`` is
    ``circular.center_to(y, mu)``, if the caller has it already."""
    p = y.shape[1]
    m = config.n_rows(p)  # guard
    if centred is None:
        centred = circular.center_to(y, mu)
    dev0 = centred - mu
    if m >= _PRUNE_MIN_ROWS:
        return _closest_rows(dev0, L, config.J)
    return _lattice_best(dev0, L, (config.J,) * p)


def mvn_logpdf(x, params):
    """Multivariate normal log density at ``x`` (no wrapping).

    ``x`` may be a single length-p vector or an (n, p) array; the result
    is a float or a length-n array accordingly.
    """
    x = np.asarray(x, dtype=float)
    vals = _normal_loglik(np.atleast_2d(x) - params.mu, safe_cholesky(params.sigma))
    return float(vals[0]) if x.ndim == 1 else vals


def wrapped_log_density(y, params, config=LatticeConfig()):
    """Truncated-lattice log density of the wrapped normal.

    ``y`` is either a single angle vector of length ``p`` (returns a
    float) or an ``(n, p)`` stack of angle vectors (returns an ``(n,)``
    array).  Each observation is recentered so that its deviation from
    the mean lies in (-pi, pi] before the lattice window is applied,
    which keeps small windows accurate.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2):
        raise ValueError("y must be an angle vector or a stack of angle vectors")
    vals = _per_observation_loglik(np.atleast_2d(y), params, config).loglik
    return float(vals[0]) if y.ndim == 1 else vals


def log_likelihood(sample, params, config=LatticeConfig()):
    """Sum of wrapped log densities over the rows of ``sample``.

    Summation order is fixed, so repeated calls on identical inputs give
    bit-identical results.
    """
    return float(np.sum(_per_observation_loglik(sample, params, config).loglik))


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
    return np.concatenate([params.mu, packed[_upper_indices(p)]])


@functools.lru_cache(maxsize=32)
def _upper_indices(p):
    """Row-major indices of the upper triangle of a (p, p) matrix."""
    rows, cols = np.triu_indices(p)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _upper_factor(theta, p):
    """The upper-triangular factor R packed in the log-Cholesky vector
    ``theta`` of dimension ``p``.  A log diagonal entry whose ``exp``
    overflows gives ``inf``, with no warning."""
    expected = p + p * (p + 1) // 2
    if theta.shape != (expected,):
        raise ValueError(
            f"theta must have length {expected} for p={p}, got {theta.shape}"
        )
    R = np.zeros((p, p))
    R[_upper_indices(p)] = theta[p:]
    diag = R.reshape(-1)[:: p + 1]  # a view
    with np.errstate(over="ignore"):
        np.exp(diag, out=diag)
    return R


def from_log_cholesky(theta, p):
    """Inverse of :func:`to_log_cholesky` for dimension ``p``."""
    theta = np.asarray(theta, dtype=float)
    R = _upper_factor(theta, p)
    return WnParams(theta[:p], R.T @ R)
