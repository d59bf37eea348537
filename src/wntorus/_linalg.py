"""The full-turn constant and small dense-linear-algebra helpers used by
several modules."""

import numpy as np

from .errors import SingularCovarianceError

TWO_PI = 2.0 * np.pi

#: Eigenvalue floor of ``clip_to_pd``, relative to the largest eigenvalue.
PD_REL_FLOOR = 1e-6


def safe_cholesky(sigma):
    """Lower Cholesky factor of ``sigma``, or raise SingularCovarianceError."""
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise SingularCovarianceError(
            f"covariance matrix is not positive definite: {exc}"
        ) from exc


def clip_to_pd(matrix):
    """Return a symmetric positive definite repair of ``matrix`` and
    whether it was clipped.

    Eigenvalues below ``PD_REL_FLOOR`` times the largest eigenvalue are
    raised to that floor and the matrix is reassembled.  The input is
    returned unchanged (up to symmetrization) when no clipping is needed.
    """
    sym = 0.5 * (matrix + matrix.T)
    eigval, eigvec = np.linalg.eigh(sym)
    floor = PD_REL_FLOOR * float(eigval[-1])
    if floor <= 0.0:
        # Entirely non-positive spectrum: fall back to an absolute floor.
        floor = PD_REL_FLOOR
    if eigval[0] >= floor:
        return sym, False
    clipped = np.maximum(eigval, floor)
    repaired = (eigvec * clipped) @ eigvec.T
    return 0.5 * (repaired + repaired.T), True
