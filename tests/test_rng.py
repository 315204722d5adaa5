
from itertools import islice

import numpy as np
import pytest

from sivjp import SeedSpec, derive_stream
from sivjp.errors import ConfigError
from sivjp.rng import uniform_pairs


def test_determinism():
    a = derive_stream(SeedSpec(12345, 0)).random(1000)
    b = derive_stream(SeedSpec(12345, 0)).random(1000)
    assert np.array_equal(a, b)


def test_stream_separation():
    a = derive_stream(SeedSpec(12345, 0)).random(1000)
    b = derive_stream(SeedSpec(12345, 1)).random(1000)
    assert np.any(a != b)


def test_master_seed_separation():
    a = derive_stream(SeedSpec(1, 0)).random(100)
    b = derive_stream(SeedSpec(2, 0)).random(100)
    assert np.any(a != b)


def test_order_independence():
    # stream content must not depend on creation order
    first = derive_stream(SeedSpec(9, 3)).random(10)
    for k in (5, 1, 4):
        derive_stream(SeedSpec(9, k)).random(10)
    again = derive_stream(SeedSpec(9, 3)).random(10)
    assert np.array_equal(first, again)


def test_exponential_mean():
    gen = derive_stream(SeedSpec(2718, 0))
    u = gen.random(1_000_000)
    draws = -np.log1p(-u)
    assert abs(draws.mean() - 1.0) < 0.01


def test_seed_validation():
    with pytest.raises(ConfigError):
        SeedSpec(-1, 0)
    with pytest.raises(ConfigError):
        SeedSpec(2 ** 64, 0)
    with pytest.raises(ConfigError):
        SeedSpec(0, -2)


def test_draw_buffer_consumes_stream_in_order():
    # 20 pairs at batch 8 cross four refills and read the stream in order,
    # as Python floats
    ref = derive_stream(SeedSpec(4, 0)).random(40)
    pairs = uniform_pairs(derive_stream(SeedSpec(4, 0)), batch=8)
    got = [u for pair in islice(pairs, 20) for u in pair]
    assert np.array_equal(np.array(got), ref)
    assert {type(u) for u in got} == {float}


@pytest.mark.parametrize("batch", [-2, 0, 1, 7])
def test_draw_buffer_batch_must_be_even_and_positive(batch):
    with pytest.raises(ConfigError):
        uniform_pairs(derive_stream(SeedSpec(4, 0)), batch=batch)
