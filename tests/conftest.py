import os
from pathlib import Path

import numpy as np
import pytest

TWO_PI = 2.0 * np.pi

# Interpreters that the tests start import the package from this
# checkout, as pytest does through ``pythonpath`` in pyproject.toml.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def quantize_angles(y):
    """Snap angles to the 2**-40 grid.

    On that grid, adding any small multiple of 2*pi (itself an exact
    binary64 multiple of 2**-47) is exact in floating point, which makes
    wrap/unwrap round trips bit-identical instead of merely close.
    """
    return np.ldexp(np.round(np.ldexp(np.asarray(y, dtype=float), 40)), -40)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_wn_sample(p, n, sigma_scale, seed, mu=None, cn=20.0):
    """Draw a wrapped-normal sample with a random correlation of the
    requested condition number, returning (sample, true_params)."""
    from wntorus import CorrelationSpec, WnParams, random_correlation, sample_wn

    gen = np.random.default_rng(seed)
    if mu is None:
        mu = gen.uniform(0.0, TWO_PI, size=p)
    mu = np.asarray(mu, dtype=float)
    if p == 1:
        corr = np.eye(1)
    else:
        corr = random_correlation(CorrelationSpec(p=p, cn=cn), seed=seed)
    params = WnParams(mu, sigma_scale**2 * corr)
    sample = sample_wn(params, n, seed=seed + 10_000)
    return sample, params
