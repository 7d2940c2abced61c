import math

import numpy as np
import pytest

from genmi import Channel, EntropyPair, Pmf, make_channel, make_pmf


def rand_pmf(rng: np.random.Generator, m: int, floor: float = 0.0) -> Pmf:
    return make_pmf(rng.random(m) + floor)


def rand_channel(rng: np.random.Generator, m: int, n: int, floor: float = 0.0) -> Channel:
    return make_channel(rng.random((m, n)) + floor)


@pytest.fixture
def bsc10() -> Channel:
    return make_channel([[0.9, 0.1], [0.1, 0.9]])


@pytest.fixture
def uniform2() -> Pmf:
    return make_pmf([0.5, 0.5])


def binary_entropy(eps: float) -> float:
    """Independent oracle: -e log e - (1-e) log(1-e), in nats."""
    return float(-eps * np.log(eps) - (1 - eps) * np.log(1 - eps))


#: Custom pairs whose F only handles a single pmf: one reduces the whole
#: array to one number, the other fails on anything but a vector.
SCALAR_ONLY_PAIRS = (
    EntropyPair(name="gini-scalar", F=lambda p: 1.0 - float(np.sum(p * p)),
                grad_f=lambda p: -2.0 * p, eta=lambda t: t, eta_slope=lambda t: 1.0,
                eta_domain=(-math.inf, math.inf)),
    EntropyPair(name="shannon-loop", F=lambda p: -sum(x * math.log(x) for x in p if x > 0.0),
                grad_f=lambda p: -np.log(p) - 1.0, eta=lambda t: t, eta_slope=lambda t: 1.0,
                eta_domain=(-math.inf, math.inf)),
)
