import numpy as np
import pytest

from spinwire.core import Regime


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def random_cmat2(rng, scale=1.0):
    re = rng.normal(size=(2, 2))
    im = rng.normal(size=(2, 2))
    return scale * (re + 1j * im)


# Per-matrix and per-result code that batch code replaced, kept as references:
# the batch results must equal these bit for bit.
def hs_norm_reference(a):
    return float(np.sqrt(np.sum(np.abs(a) ** 2)))


def probability_table_reference(result):
    p = result.probabilities
    masked = result.channel.regime is not Regime.TWO_CHANNEL
    return {
        "P00": float(p[0, 0]),
        "P01": 0.0 if masked else float(p[0, 1]),
        "P10": 0.0 if masked else float(p[1, 0]),
        "P11": 0.0 if masked else float(p[1, 1]),
        "R00sq": float(abs(result.r[0, 0]) ** 2),
    }
