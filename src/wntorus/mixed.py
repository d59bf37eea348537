"""Joint models with both torus-valued and linear (Euclidean)
coordinates: the torus block is fitted on its own, then cross- and
linear-block moments are estimated from unwrapped or conditional-mean
reconstructions of the angular data."""

import warnings
from dataclasses import dataclass

import numpy as np

from . import model
from ._linalg import clip_to_pd, safe_cholesky
from .cem import fit_cem
from .em import _fit_em
from .errors import SingularCovarianceError


@dataclass(frozen=True)
class MixedSample:
    """Paired observations: angles ``torus`` (n, p1) and real-valued
    ``linear`` (n, p2) coordinates, row-aligned; a 1-D block is one
    column."""

    torus: np.ndarray
    linear: np.ndarray

    def __post_init__(self):
        torus = model._as_sample(self.torus)
        linear = model._as_sample(self.linear)
        if torus.shape[0] != linear.shape[0]:
            raise ValueError("torus and linear blocks must have equal row counts")
        object.__setattr__(self, "torus", torus)
        object.__setattr__(self, "linear", linear)

    @property
    def n(self):
        return self.torus.shape[0]


@dataclass(frozen=True)
class MixedParams:
    """Blockwise parameters of a joint torus/linear normal model.

    The assembled joint covariance must be positive definite;
    ``repaired`` records whether eigenvalue clipping was applied while
    assembling it.
    """

    mu_torus: np.ndarray
    mu_linear: np.ndarray
    cov_torus: np.ndarray
    cov_cross: np.ndarray
    cov_linear: np.ndarray
    repaired: bool = False

    def __post_init__(self):
        mu1 = np.asarray(self.mu_torus, dtype=float)
        mu2 = np.asarray(self.mu_linear, dtype=float)
        p1, p2 = mu1.shape[0], mu2.shape[0]
        if np.shape(self.cov_torus) != (p1, p1):
            raise ValueError("cov_torus has wrong shape")
        if np.shape(self.cov_cross) != (p1, p2):
            raise ValueError("cov_cross has wrong shape")
        if np.shape(self.cov_linear) != (p2, p2):
            raise ValueError("cov_linear has wrong shape")
        safe_cholesky(self.joint_cov())  # must be PD

    def joint_mu(self):
        return np.concatenate([self.mu_torus, self.mu_linear])

    def joint_cov(self):
        return np.block(
            [
                [np.asarray(self.cov_torus), np.asarray(self.cov_cross)],
                [np.asarray(self.cov_cross).T, np.asarray(self.cov_linear)],
            ]
        )


@dataclass(frozen=True)
class MixedFitResult:
    """Mixed-model estimates together with the underlying torus-block fit."""

    params: MixedParams
    torus_result: object


def _mixed_fit(torus_result, x1, x2):
    """Complete a torus-block fit into a mixed fit.

    ``x1`` is the Euclidean reconstruction of the torus block and ``x2``
    the linear block.  The torus blocks come from ``torus_result``; the
    linear mean and the cross and linear covariance blocks are the
    population moments of the stacked data.  The joint covariance is
    clipped to positive definiteness, with a warning, when needed.
    """
    n = x1.shape[0]
    mu2 = np.mean(x2, axis=0)
    d1 = x1 - np.mean(x1, axis=0)
    d2 = x2 - mu2
    s22 = d2.T @ d2 / n
    s12 = d1.T @ d2 / n
    s11 = torus_result.params.sigma
    joint = np.block([[s11, s12], [s12.T, 0.5 * (s22 + s22.T)]])
    joint = 0.5 * (joint + joint.T)
    repaired = False
    try:
        safe_cholesky(joint)
    except SingularCovarianceError:
        joint, repaired = clip_to_pd(joint)
        warnings.warn(
            "assembled mixed covariance was not positive definite; "
            "eigenvalues were clipped",
            RuntimeWarning,
        )
    p1 = s11.shape[0]
    params = MixedParams(
        mu_torus=torus_result.params.mu,
        mu_linear=mu2,
        cov_torus=joint[:p1, :p1],
        cov_cross=joint[:p1, p1:],
        cov_linear=joint[p1:, p1:],
        repaired=repaired,
    )
    return MixedFitResult(params=params, torus_result=torus_result)


def fit_mixed_cem(sample, init=None, config=model.LatticeConfig(), **fit_kwargs):
    """Mixed fit through the classification path.

    The torus block is fitted by classification EM; its unwrapped
    reconstruction is stacked with the linear block, and the cross and
    linear covariance blocks are the population moments of that stack.
    The torus blocks of the result equal the torus-only fit exactly
    (unless a positive-definiteness repair of the assembled matrix was
    needed).
    """
    torus_result = fit_cem(sample.torus, init, config, **fit_kwargs)
    return _mixed_fit(torus_result, torus_result.unwrapped, sample.linear)


def fit_mixed_em(sample, init=None, config=model.LatticeConfig(), **fit_kwargs):
    """Mixed fit through the soft-assignment path.

    The torus block is fitted by EM; the per-observation conditional
    means at the fitted parameters stand in for the unobserved Euclidean
    angles when estimating the cross-covariance block.  The linear mean
    and covariance come from the observed linear data alone.
    """
    torus_result, record = _fit_em(sample.torus, init, config, **fit_kwargs)
    return _mixed_fit(torus_result, record.cond_mean, sample.linear)


def mixed_log_likelihood(sample, params, config=model.LatticeConfig()):
    """Joint log-likelihood with wrapping applied to the torus block only.

    Lattice shifts run over the torus coordinates; linear coordinates
    enter the joint normal density unshifted.  The pass is cut as
    :func:`model._lattice_pass` cuts any window of its size.
    """
    if not isinstance(sample, MixedSample):
        raise TypeError("sample must be a MixedSample")
    mu1 = np.asarray(params.mu_torus, dtype=float)
    p1, p2 = mu1.shape[0], np.asarray(params.mu_linear).shape[0]
    if sample.torus.shape[1] != p1 or sample.linear.shape[1] != p2:
        raise ValueError("sample blocks do not match parameter dimensions")
    config.n_rows(p1)  # guard
    dev_torus, _ = model._deviations(sample.torus, mu1)
    dev0 = np.hstack([dev_torus, sample.linear - params.mu_linear])
    L = safe_cholesky(params.joint_cov())
    widths = (config.J,) * p1 + (0,) * p2
    return float(np.sum(model._lattice_pass(dev0, L, widths).loglik))
