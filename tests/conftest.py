import numpy as np
import pytest


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def random_cmat2(rng, scale=1.0):
    re = rng.normal(size=(2, 2))
    im = rng.normal(size=(2, 2))
    return scale * (re + 1j * im)

