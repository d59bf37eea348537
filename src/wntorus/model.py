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

#: Rows of a window that lie further below an observation's top row
#: than log(rows / _PRUNE_EPS) + 1 are left out of the pass; together
#: they carry less than _PRUNE_EPS of its mass.
_PRUNE_EPS = 1e-16
#: Smaller windows are reduced over every row: there the bound of
#: :func:`_reach` and the cut of :func:`_lattice_pass` cost about as
#: much as the rows they save.
_PRUNE_MIN_ROWS = 1000

#: Relative slack of the radius of :func:`_enumerate`.
_SEARCH_SLACK = 1e-10
#: A cut pass lists a block's rows, and :func:`_best_rows` a sample's
#: best rows, by :func:`_enumerate` only if the search would cost less
#: than scoring them.  Counted in scored terms (about 4 ns each on one
#: x86-64 core), a level of the search's nodes costs about
#: _SEARCH_LEVEL_COST (its fixed numpy calls, 80 to 90 us) and a node
#: about _SEARCH_NODE_COST (70 to 140 ns).  With the set-up of
#: :func:`_search_setup` made once per pass, a searched p=10, J=1 block
#: took 680 to 690 us for 1 or 16 observations (29 and 512 nodes), about
#: 62 to 68 us for each of its ten levels and the scoring, and the set-up
#: of 100 observations about 0.7 ms, on a shared 2-vCPU x86-64 VM.
_SEARCH_LEVEL_COST = 25_000
_SEARCH_NODE_COST = 25


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


def _project(dev0, L):
    """|a|^2/2 and c = L^-T a, with a = L^-1 d, for each row d of the
    (n, p) base deviations ``dev0``: the (n,) and (p, n) parts of a row's
    log term that the observation brings (see :func:`_block_top`)."""
    a = _forward(L, dev0.T)
    return _half_sq_norms(a), _backward(L, a)


def _block_top(half_a, c, row_part, grids):
    """Log terms of a block of observations at every window row, each
    observation's first row of highest term, and that term.

    The block is given by the |a|^2/2 (block,) and c (p, block) of
    :func:`_project`, which a pass computes once for its whole sample.
    The term of row r is ``row_part[r]`` - |a|^2/2 - c.o_r, the cross
    term being an outer sum of per-axis terms over ``grids``.  nan terms
    are set to -inf.
    """
    nb = half_a.shape[0]
    # |a|^2/2 + c.o_r as an outer sum, built from the last axis
    # (the fastest in row order) outwards
    terms = half_a[:, None]
    for k, g in reversed(grids):
        cross = np.multiply.outer(c[k], g)
        terms = (cross[:, :, None] + terms[:, None, :]).reshape(nb, -1)
    # in place, unless no axis is shifted and terms is still half_a
    terms = np.subtract(row_part, terms, out=terms if grids else None)
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


def _decode(index, widths):
    """The (k, p) integer rows of the window of per-axis half-widths
    ``widths`` at the row indices ``index``, which number the rows in
    the order of :func:`_window`."""
    rows = np.empty((index.shape[0], len(widths)), dtype=np.intp)
    for k in reversed(range(len(widths))):
        index, rows[:, k] = np.divmod(index, 2 * widths[k] + 1)
    rows -= widths
    return rows


def _reduce_candidates(obs, rows, terms, top, offsets, row_mass):
    """Reduce candidate (observation, row, log term) triples into the
    ``loglik``, ``cond_mean`` and ``scatter`` of a :data:`_LatticePass`
    of the observations of ``top``, and add each candidate's weight to
    ``row_mass`` at its row.

    ``obs`` indexes ``top``, each observation's finite top term, and
    ``rows`` the window rows of ``row_mass``; ``offsets`` (k, p) holds
    each candidate's row offset and is overwritten.  Each observation's
    candidates come in ascending row order.  Every sum of an observation
    runs over its own candidates in that order (``np.bincount`` and
    ``np.add.at`` add in input order), so its results do not depend on
    the other observations.  The scatter is summed as
    w (o - s)(o - s)' over the candidates, about each one's conditional
    mean s.  An observation without candidates gets ``loglik`` -inf, a
    nan ``cond_mean`` and, as on a window reduced over every row, nan
    ``row_mass`` and a nan ``scatter``.
    """
    nb, p = top.shape[0], offsets.shape[1]
    w = np.exp(terms - top[obs])
    total = np.bincount(obs, w, nb)
    w /= total[obs]
    # the p coordinates of observation i are the bins i * p .. i * p + p - 1
    bins = (obs[:, None] * p + np.arange(p)).ravel()
    sums = np.bincount(bins, (w[:, None] * offsets).ravel(), nb * p)
    # np.bincount of no weights is integer, which cannot hold the nan
    cond_mean = sums.astype(float, copy=False).reshape(nb, p)
    cond_mean[total == 0] = np.nan
    offsets -= cond_mean[obs]
    np.add.at(row_mass, rows, w)
    scatter = (w[:, None] * offsets).T @ offsets
    if not total.all():
        row_mass += np.nan
        scatter += np.nan
    return top + np.log(total), cond_mean, scatter


def _scored_blocks(half_a, c, L, widths):
    """Score observations, given by the |a|^2/2 and c of
    :func:`_project`, on every row of the window of per-axis half-widths
    ``widths``: yield, for each block of about ``_CHUNK_ELEMS``
    (observation, row) terms, its slice of the sample and the ``terms``,
    ``best`` and ``top`` of :func:`_block_top`.  The row part is computed
    once, before the first block.  The caller silences floating-point
    warnings, as :func:`_lattice_pass` does."""
    _, offsets, grids = _window(widths)
    row_part = _row_part(L, offsets)
    block = max(1, _CHUNK_ELEMS // offsets.shape[0])
    for start in range(0, half_a.shape[0], block):
        sl = slice(start, start + block)
        yield sl, *_block_top(half_a[sl], c[:, sl], row_part, grids)


def _lattice_pass(dev0, L, widths):
    """Reduce the normal log densities at ``dev0[i] + 2*pi*j`` over the
    window rows ``j`` of per-axis half-widths ``widths``.

    Parameters are a (n, p) array of base deviations from the mean, the
    lower Cholesky factor of the covariance, and one half-width per
    coordinate (0 leaves a coordinate unshifted); the m rows are ordered
    as in :func:`lattice_rows`.  Observations are walked in blocks of
    about ``_CHUNK_ELEMS`` (observation, row) elements, and every
    per-observation step is elementwise, so an observation's results do
    not depend on the block it shares.

    A window of fewer than ``_PRUNE_MIN_ROWS`` rows is reduced over
    every row: :func:`_scored_blocks` scores it, and each block's
    (block, m) terms are turned in place into posterior weights by a
    max-shifted log-sum-exp, with weights under
    ``exp(_LOG_WEIGHT_FLOOR)`` of the top row's set to zero, and reduced
    at once, so no (n, m) array is held.

    A larger window is cut instead: each observation keeps only the rows
    whose term is at least its top term minus T = :func:`_prune_cut` (m),
    which together carry all but less than m e^-T = _PRUNE_EPS/e of its
    mass, and :func:`_reduce_candidates` reduces those.  The pass first
    makes the per-observation set-up of the search once for the whole
    sample, by :func:`_search_setup`: each observation's |a|^2/2 and c,
    radius and estimated node count.  Each block's kept rows are then
    listed by :func:`_enumerate` from the block's slice of it, unless the
    block's summed node counts say the search would cost more than
    scoring the block, or the search finds some top term not finite;
    then :func:`_block_top` scores the block from the same |a|^2/2 and c,
    on a row part computed at most once per pass.  Both ways keep the
    same rows with the same terms, bit for bit.

    Returns a :data:`_LatticePass` of ``loglik`` (n,), the log of each
    observation's summed densities; ``cond_mean`` (n, p), each
    observation's posterior mean offset; ``scatter`` (p, p), the
    within-observation posterior scatter summed over the sample; and
    ``row_mass`` (m,), each row's posterior weight summed over the
    sample, nan if some observation has no finite term.
    """
    n, p = dev0.shape
    widths = tuple(widths)
    m = math.prod(2 * w + 1 for w in widths)
    loglik = np.empty(n)
    cond_mean = np.empty((n, p))
    row_mass = np.zeros(m)
    scatter = np.zeros((p, p))
    # Squared deviations that overflow make terms of -inf, or nan
    # (inf - inf) in the expanded form, which is set to -inf.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if m >= _PRUNE_MIN_ROWS:
            cut = _prune_cut(m)
            block = max(1, _CHUNK_ELEMS // m)
            setup = _search_setup(dev0, L, widths, cut, min(n, block))
            table = None
            for start in range(0, n, block):
                sl = slice(start, start + block)
                sub = _Setup(*(f if f is None else f[..., sl] for f in setup))
                listed = _enumerate(sub, L, widths, cut)
                if listed is not None and np.isfinite(listed[0]).all():
                    top, _, (obs, rows, terms, offsets) = listed
                else:
                    if table is None:
                        _, offsets, grids = _window(widths)
                        table = offsets, grids, _row_part(L, offsets)
                    terms, _, top = _block_top(sub.half_a, sub.c, table[2], table[1])
                    top[~np.isfinite(top)] = 0.0
                    keep = np.flatnonzero(terms >= (top - cut)[:, None])
                    obs, rows = np.divmod(keep, m)
                    terms, offsets = terms.ravel()[keep], table[0][rows]
                loglik[sl], cond_mean[sl], part = _reduce_candidates(
                    obs, rows, terms, top, offsets, row_mass
                )
                scatter += part
            return _LatticePass(loglik, cond_mean, scatter, row_mass)
        offsets = _window(widths)[1]
        for sl, terms, _, top in _scored_blocks(*_project(dev0, L), L, widths):
            # A row of -inf terms gets loglik -inf, which the fits
            # report, and nan weights.
            top[~np.isfinite(top)] = 0.0
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
    # sum_i sum_r w_ir (o_r - s_i)(o_r - s_i)' = sum_r mass_r o_r o_r' - sum_i s_i s_i'
    scatter += (offsets * row_mass[:, None]).T @ offsets
    return _LatticePass(loglik, cond_mean, scatter, row_mass)


#: The per-observation set-up of :func:`_enumerate`; see
#: :func:`_search_setup`.  Every field holds one entry, or one column,
#: per observation, on its last axis, or is None, so a block's set-up
#: is a slice.
_Setup = namedtuple("_Setup", "dev half_a c radius ok nodes")


def _search_pays(p, n, m, nodes):
    """Whether a search of ``n`` observations over ``nodes`` nodes in
    all, on p levels, costs less than scoring them on every one of a
    window's ``m`` rows, about (n + 2p) m terms."""
    return p * _SEARCH_LEVEL_COST + _SEARCH_NODE_COST * nodes <= (n + 2 * p) * m


def _search_setup(dev0, L, widths, cut, block):
    """The set-up of :func:`_enumerate` for each observation of the
    (n, p) base deviations ``dev0`` in the window of per-axis half-widths
    ``widths``, made once per pass for the whole sample.

    Returns a :data:`_Setup` of ``dev``, ``dev0`` transposed; ``half_a``
    and ``c``, the |a|^2/2 and c = L^-T a of :func:`_project`, with which
    :func:`_block_top` also scores; ``radius``, the squared search radius
    R^2 about Babai's row; ``ok``, whether that radius and c are finite;
    and ``nodes``, the estimated node count of each observation's search
    summed over its levels.

    Babai's nearest-plane row z_B (each r_k rounded in turn, clipped to
    [-w_k, w_k]) bounds the least |z|^2, and
    R^2 = |z_B|^2 + x + _SEARCH_SLACK (1 + |a|^2 + |z_B|^2 + x), with
    x = 2 ``cut``; :func:`_enumerate` gives the reasons.  The nodes of
    each level k are counted by the Gaussian heuristic: the prefixes
    r_0..r_{k-1} whose z_0..z_{k-1} lie in the ball of radius R (less
    its slack) number about the ball's volume over the covolume
    prod_{j<k} 2 pi / L[j, j] of their lattice, and at least 1, at most
    the box's.  Summed over a block, the count came within 0.9 to 1.6
    times the search's on windows of 2187 to 59 049 rows.

    ``block`` is the most observations that the caller searches at once.
    If a search of that many would cost more than scoring them even at
    the least count, one node per level, no block can be searched:
    Babai's row and the estimate are skipped, and ``radius``, ``ok`` and
    ``nodes`` are None.  Every step is elementwise per observation,
    so a block's slice of the set-up is its own observations' set-up,
    bit for bit.  The caller silences floating-point warnings, as
    :func:`_lattice_pass` does.
    """
    n, p = dev0.shape
    half_a, c = _project(dev0, L)
    if not _search_pays(p, block, math.prod(2 * w + 1 for w in widths), p * block):
        return _Setup(dev0.T, half_a, c, None, None, None)
    extra = 2.0 * cut
    # Babai's nearest-plane row, clipped to the box; row k of `rest` is
    # d_k - sum_{j<k} L[k, j] z_j
    rest = dev0.T.copy()
    zb = np.zeros(n)
    for k, w in enumerate(widths):
        r = np.clip(np.rint(-rest[k] / TWO_PI), -w, w)
        zk = (rest[k] + TWO_PI * r) / L[k, k]
        rest[k + 1 :] -= L[k + 1 :, k, None] * zk
        zb += zk * zk
    R = np.sqrt(zb + extra)
    nodes, scale, box = np.zeros(n), 1.0, 1
    for k, w in enumerate(widths, 1):
        scale *= L[k - 1, k - 1] / TWO_PI
        box *= 2 * w + 1
        ball = math.pi ** (k / 2) / math.gamma(k / 2 + 1) * R**k
        nodes += np.fmin(np.fmax(ball * scale, 1.0), box)
    radius = zb + extra + _SEARCH_SLACK * (1.0 + 2.0 * half_a + zb + extra)
    ok = np.isfinite(radius) & np.all(np.isfinite(c), axis=0)
    return _Setup(dev0.T, half_a, c, radius, ok, nodes)


def _enumerate(setup, L, widths, cut):
    """List, for each observation of a block, the rows of the window of
    per-axis half-widths ``widths`` that lie near its best row, by a
    closest-vector search instead of scoring every row.  ``setup`` is the
    block's slice of the :func:`_search_setup` of its pass, made at the
    same ``cut``.

    Row r's term is const - |z|^2/2 with z = L^-1 (d + 2 pi r), so the
    best row is the box row closest to -d/(2 pi) in the sigma^-1 metric.
    Because L is lower-triangular, z_k depends on r_0..r_k only.  A
    breadth-first Fincke-Pohst search lists, in lexicographic order,
    every box row with |z|^2 <= R^2 = |z_B|^2 + x + _SEARCH_SLACK
    (1 + |a|^2 + |z_B|^2 + x), where z_B is Babai's row of the set-up,
    a = L^-1 d and x = 2 ``cut``.  Each listed row's term is computed by
    the formula and in the order of :func:`_block_top`, nan set to -inf.
    The top term is at least Babai's, so every row within ``cut`` of it
    has |z|^2 <= |z_B|^2 + x up to rounding: the search lists it, and its
    top and first highest row are the whole window's bit for bit.

    The slack covers rounding.  The formula sums about 2p + 2 rounded
    terms whose sizes are bounded by |a|^2, |b|^2 and |a||b|, with
    b = L^-1 o_r and |b| <= |a| + |z|; its error is of order
    p eps (|a|^2 + |z|^2), and the search's own error on |z|^2 of order
    p eps |z|^2, each times the condition number kappa of L that the
    substitutions bring in.  A row whose formula term is at least
    Babai's minus x/2 therefore has
    |z|^2 <= |z_B|^2 + x + 10 p kappa eps (1 + |a|^2 + |z_B|^2 + x) or
    so.  At p <= 16, the largest p a guarded window allows, and
    kappa <= 100 (a condition number of sigma up to 1e4), that is under
    4e-12 (1 + |a|^2 + |z_B|^2 + x), a 25th of the slack.  The
    cancellation of |a|^2 against 2 c.o_r (at small sigma with d near
    +-pi) is why the slack scales with |a|^2.

    The search runs across the block's observations at once; every step
    is elementwise per (observation, prefix) node, so a row's result
    does not depend on the others.  A level whose nodes would exceed
    about ``_CHUNK_ELEMS / p`` children is split into consecutive runs of
    parents, searched one after another.

    If the set-up has no node counts, or the block's, summed, say the
    search would cost more than scoring the block, counted in scored
    terms as _SEARCH_LEVEL_COST per level and _SEARCH_NODE_COST per node,
    None is returned without searching.

    Returns ``top``, each observation's highest term; ``best``, the
    index of its first row of that term; and the observations, row
    indices, terms and (k, p) 2 pi offsets of the k rows whose term is
    at least top - cut, in ascending (observation, row) order.  An
    observation that is not ``ok`` (its radius or sigma^-1 d is not
    finite) is not searched and gets top -inf and best -1; one whose top
    is not finite gets no rows.  The caller silences floating-point
    warnings.
    """
    if setup.nodes is None:
        return None
    p, n = setup.dev.shape
    if not _search_pays(p, n, math.prod(2 * w + 1 for w in widths), setup.nodes.sum()):
        return None
    half_a, c, radius = setup.half_a, setup.c, setup.radius
    top = np.full(n, -np.inf)
    best = np.full(n, -1, dtype=np.intp)
    none = np.empty(0, dtype=np.intp)
    found = [(none, none, np.empty(0), np.empty((0, p)))]
    limit = max(1, _CHUNK_ELEMS // p)

    def score(obs, index):
        # the terms of _block_top, in its order
        offsets = TWO_PI * _decode(index, widths)
        terms = half_a[obs]
        for k in reversed(range(p)):
            if widths[k]:
                terms = c[k][obs] * offsets[:, k] + terms
        terms = _row_part(L, offsets) - terms
        terms[np.isnan(terms)] = -np.inf
        # each observation's first highest candidate
        starts = np.flatnonzero(np.concatenate(([True], obs[1:] != obs[:-1])))
        high = np.maximum.reduceat(terms, starts)
        sizes = np.diff(np.append(starts, obs.shape[0]))
        at = np.where(terms == np.repeat(high, sizes), np.arange(obs.shape[0]), obs.shape[0])
        first = np.minimum.reduceat(at, starts)
        # runs come in lexicographic order, so a later tie loses
        who = obs[starts]
        new = (high > top[who]) | (best[who] < 0)
        top[who[new]] = high[new]
        best[who[new]] = index[first[new]]
        # the final top is at least this one
        keep = terms >= top[obs] - cut
        found.append((obs[keep], index[keep], terms[keep], offsets[keep]))

    def search(k, obs, index, partial, rest):
        # rest: rows k.. of d - sum_{j<k} L[:, j] z_j for each node's prefix
        if k == p:
            score(obs, index)
            return
        w = widths[k]
        acc = rest[0]
        centre = -acc / TWO_PI
        spread = L[k, k] * np.sqrt(np.maximum(radius[obs] - partial, 0.0)) / TWO_PI
        lo = np.clip(np.ceil(centre - spread), -w, w + 1)
        hi = np.clip(np.floor(centre + spread), -w - 1, w)
        count = np.where(hi >= lo, hi - lo + 1, 0).astype(np.intp)
        lo = lo.astype(np.intp)  # where count > 0
        runs = [np.arange(obs.shape[0])]
        if count.sum() > limit:
            # consecutive runs of parents with about `limit` children each
            cuts = np.flatnonzero(np.diff((np.cumsum(count) - count) // limit)) + 1
            runs = np.split(runs[0], cuts)
        for run in runs:
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
                index[parent] * (2 * w + 1) + (r + w),
                partial[parent] + zk * zk,
                rest[1:, parent] - L[k + 1 :, k, None] * zk,
            )

    live = np.flatnonzero(setup.ok)
    search(0, live, np.zeros_like(live), np.zeros(live.shape[0]), setup.dev[:, live])
    obs, index, terms, offsets = (np.concatenate(part) for part in zip(*found))
    keep = (terms >= top[obs] - cut) & np.isfinite(top[obs])
    return top, best, (obs[keep], index[keep], terms[keep], offsets[keep])


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


def _per_observation_loglik(sample, params, config):
    """:func:`_recentred_pass` of a sample at validated parameters."""
    y = _as_sample(sample)
    p = params.p
    if y.shape[1] != p:
        raise ValueError(f"sample has {y.shape[1]} columns, parameters have {p}")
    return _recentred_pass(y, params.mu, safe_cholesky(params.sigma), config)


def _deviations(y, mu, centred=None):
    """Deviations in (-pi, pi] of the (n, p) sample ``y`` from the mean
    ``mu``, taken about ``circular.wrap_angle(mu)`` so that every full
    turn of ``mu`` gives them bit for bit, and that centre.  ``centred``
    is ``circular.center_to(y, mu)``, if the caller has it already; only
    a ``mu`` in [0, 2*pi), its own centre, uses it."""
    if not all(0.0 <= m < TWO_PI for m in mu.tolist()):
        mu, centred = circular.wrap_angle(mu), None
    if centred is None:
        centred = circular.center_to(y, mu)
    return centred - mu, mu


def _recentred_pass(y, mu, L, config):
    """Recenter the (n, p) sample ``y`` about the mean ``mu`` by
    :func:`_deviations` and make one lattice pass with the lower Cholesky
    factor ``L`` of the covariance.

    The pass runs over the rows of the J window that :func:`_reach`
    keeps, cut as :func:`_lattice_pass` cuts a window of its size.
    Returns its :data:`_LatticePass` record, ``row_mass`` over the whole
    J window (0 on the rows _reach leaves out), with ``cond_mean`` in
    absolute coordinates: each observation's posterior mean of its
    unwrapped representative, on ``mu``'s own turn.

    The rows _reach leaves out carry less than _PRUNE_EPS/e of an
    observation's mass, and so do the rows the pass's cut drops from
    what remains, so together they carry less than _PRUNE_EPS.
    """
    J = config.J
    config.n_rows(y.shape[1])  # guard
    dev0, centre = _deviations(y, mu)
    widths = _reach(L, J)
    record = _lattice_pass(dev0, L, widths)
    cond_mean = centre + dev0 + record.cond_mean
    if centre is not mu:  # back to mu's turn
        cond_mean += mu - centre
    if widths != (J,) * len(widths):  # the kept box, inside the J window
        row_mass = np.zeros([2 * J + 1 for _ in widths])
        row_mass[tuple(slice(J - w, J + w + 1) for w in widths)].flat = record.row_mass
        record = record._replace(row_mass=row_mass.ravel())
    return record._replace(cond_mean=cond_mean)


def _best_rows(y, mu, L, config, centred=None):
    """Each observation's first row of highest term in the J window, as
    an (n, p) integer array, at the :func:`_deviations` of ``y`` from
    ``mu`` (with ``centred``).

    The rows are found by :func:`_enumerate` at cut 0, over the whole
    sample and from one :func:`_search_setup`, unless its search would
    cost more than scoring every row of the window, as a cut pass
    decides for a block, or finds some top term not finite; then
    :func:`_scored_blocks` scores the whole sample, from the set-up's
    |a|^2/2 and c if it was made.  Where even the least search, one node
    per level and observation, would cost more, the set-up is not made:
    its fixed cost is a few per cent of a p=2 CEM fit.  Both ways give
    the same rows."""
    n, p = y.shape
    m = config.n_rows(p)  # guard
    dev0, _ = _deviations(y, mu, centred)
    widths = (config.J,) * p
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if _search_pays(p, n, m, p * n):
            setup = _search_setup(dev0, L, widths, 0.0, n)
            listed = _enumerate(setup, L, widths, 0.0)
            if listed is not None and np.isfinite(listed[0]).all():
                return _decode(listed[1], widths)
            half_a, c = setup.half_a, setup.c
        else:
            half_a, c = _project(dev0, L)
        best = np.concatenate([b for _, _, b, _ in _scored_blocks(half_a, c, L, widths)])
    return _decode(best, widths)


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
