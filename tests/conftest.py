"""Shared fixtures."""

import pytest


def _random_element(alg, rng):
    """An element of a realized algebra with standard normal coordinates
    over its orthonormal ambient basis, summed in basis order."""
    out = alg.zero()
    for c, b in zip(rng.standard_normal(alg.dim), alg.ambient_basis):
        out = out + float(c) * b
    return out


@pytest.fixture
def random_element():
    """random_element(alg, rng): a random element of a realized algebra."""
    return _random_element
