import numpy as np
import pytest
from numpy.testing import assert_array_equal

from affine2f.rng import RngStream


def test_same_address_reproduces():
    a = RngStream(7, 3).generator(1).standard_normal(16)
    b = RngStream(7, 3).generator(1).standard_normal(16)
    assert_array_equal(a, b)


def test_streams_and_substreams_differ():
    draws = {
        RngStream(7, 0).generator(0).standard_normal(),
        RngStream(7, 1).generator(0).standard_normal(),
        RngStream(7, 0).generator(1).standard_normal(),
        RngStream(8, 0).generator(0).standard_normal(),
    }
    assert len(draws) == 4


def test_generator_calls_share_state():
    stream = RngStream(1, 0)
    gen = stream.generator(0)
    first = gen.standard_normal()
    assert stream.generator(0) is gen
    assert stream.generator(0).standard_normal() != first


def test_numpy_trailing_zero_canary():
    # numpy treats trailing zero entropy words as absent; the +1 offset in
    # RngStream keys exists solely because of this. If numpy ever changes,
    # this canary flags the assumption for review.
    plain = np.random.SeedSequence((5, 2)).generate_state(4)
    padded = np.random.SeedSequence((5, 2, 0)).generate_state(4)
    assert_array_equal(plain, padded)


def test_spawn_does_not_collide_with_substreams():
    base = RngStream(5, 2)
    child = base.spawn(0)
    draws = {
        base.generator(0).standard_normal(),
        base.generator(1).standard_normal(),
        child.generator(0).standard_normal(),
        child.generator(1).standard_normal(),
        base.spawn(1).generator(0).standard_normal(),
        child.spawn(0).generator(0).standard_normal(),
    }
    assert len(draws) == 6


def test_scalar_and_vector_draws_agree():
    # the vector stepper relies on this equivalence
    scalars = [RngStream(11, 4).generator(0).standard_normal() for _ in range(1)]
    vector = RngStream(11, 4).generator(0).standard_normal(1)
    assert scalars[0] == vector[0]
    one_by_one = RngStream(11, 5).generator(2)
    bulk = RngStream(11, 5).generator(2)
    assert_array_equal(
        np.array([one_by_one.standard_normal() for _ in range(8)]),
        bulk.standard_normal(8),
    )


def test_rejects_negative_addresses():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(0, -2)
    with pytest.raises(ValueError):
        RngStream(0).generator(-1)
    with pytest.raises(ValueError):
        RngStream(0).spawn(-1)
