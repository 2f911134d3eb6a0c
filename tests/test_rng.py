import numpy as np
import pytest
from numpy.testing import assert_array_equal

from affine2f.limit_laws import limit_draws
from affine2f.model import make_spec
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


def test_generator_calls_restart_the_substream():
    # a stream is an address: every call starts substream k afresh
    stream = RngStream(1, 0)
    first = stream.generator(0).standard_normal(4)
    assert_array_equal(stream.generator(0).standard_normal(4), first)


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


@pytest.mark.parametrize("make", [
    lambda: RngStream(1.5),
    lambda: RngStream(1, 0.7),
    lambda: RngStream(1.0),
    lambda: RngStream(np.float64(2.0)),
    lambda: RngStream("1"),
    lambda: RngStream(1).spawn(0.5),
    lambda: RngStream(1).generator(1.0),
], ids=["seed", "stream_id", "whole_float_seed", "numpy_float_seed", "str_seed",
        "spawn_index", "substream"])
def test_rejects_non_integer_addresses(make):
    # truncating would make RngStream(1.5, 0.7) draw RngStream(1, 0)'s
    # numbers: two addresses on one stream
    with pytest.raises(ValueError, match="must be an integer"):
        make()


def test_numpy_integers_address_the_same_stream():
    want = RngStream(3, 2).spawn(1).generator(4).standard_normal(4)
    got = RngStream(np.uint64(3), np.int32(2)).spawn(np.int64(1)).generator(
        np.int8(4)).standard_normal(4)
    assert_array_equal(got, want)


def test_limit_draws_refuse_a_fractional_seed():
    spec = make_spec(1.0, 1.0, 0.5, 0.3, 0.6, 0.5, 0.3, 0.4, 0.3)
    with pytest.raises(ValueError, match="seed must be an integer"):
        limit_draws(spec, 4, 0.01, 1.5, 0)
