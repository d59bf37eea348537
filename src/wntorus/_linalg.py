"""The full-turn constant and small dense-linear-algebra helpers used by
several modules."""

import numpy as np

from .errors import SingularCovarianceError

TWO_PI = 2.0 * np.pi


def safe_cholesky(sigma):
    """Lower Cholesky factor of ``sigma``, or raise SingularCovarianceError."""
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise SingularCovarianceError(
            f"covariance matrix is not positive definite: {exc}"
        ) from exc


def clip_to_pd(matrix, rel_floor=1e-6):
    """Return a symmetric positive definite repair of ``matrix``.

    Eigenvalues below ``rel_floor`` times the largest eigenvalue are
    raised to that floor and the matrix is reassembled.  The input is
    returned unchanged (up to symmetrization) when no clipping is needed.
    """
    sym = 0.5 * (matrix + matrix.T)
    eigval, eigvec = np.linalg.eigh(sym)
    floor = rel_floor * float(eigval[-1])
    if floor <= 0.0:
        # Entirely non-positive spectrum: fall back to an absolute floor.
        floor = rel_floor
    if eigval[0] >= floor:
        return sym, False
    clipped = np.maximum(eigval, floor)
    repaired = (eigvec * clipped) @ eigvec.T
    return 0.5 * (repaired + repaired.T), True
