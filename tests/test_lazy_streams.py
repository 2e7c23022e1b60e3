"""Lazy streams and their first draws in one pass.

``RngStream`` checks its two integers when it is opened and builds its
numpy Generator on the first draw. ``RngStream.first_uniforms`` computes
the first draws of many fresh streams with numpy's SeedSequence and
Philox4x64-10 written out on arrays; they must equal numpy's own draws
to the bit, and a stream's later draws must continue its sequence."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrum_auction.rng import RngStream

U64 = st.integers(0, 2**64 - 1)


def numpy_draws(seed, index, d):
    """A stream's first ``d`` draws straight from numpy."""
    seq = np.random.SeedSequence(seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(seq)).random(d)


@settings(max_examples=200)
@given(st.lists(st.tuples(U64, U64), min_size=1, max_size=8), st.integers(1, 12),
       st.integers(1, 9))
def test_first_uniforms_are_each_streams_draws(pairs, d, later):
    streams = [RngStream(seed, index) for seed, index in pairs]
    first = RngStream.first_uniforms(streams, d)
    assert first.shape == (len(pairs), d)
    for row, stream, (seed, index) in zip(first, streams, pairs):
        assert np.array_equal(row, RngStream(seed, index).uniforms(d))
        assert np.array_equal(stream.uniforms(later), numpy_draws(seed, index, d + later)[d:])


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 + 12345, 2**64 - 1])
def test_first_uniforms_on_many_indices(seed):
    indices = [*range(300), 2**31, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1]
    first = RngStream.first_uniforms([RngStream(seed, i) for i in indices], 6)
    assert np.array_equal(first, np.array([numpy_draws(seed, i, 6) for i in indices]))


def test_a_scalar_draw_continues_after_the_first_uniforms():
    stream = RngStream(7, 3)
    RngStream.first_uniforms([stream], 5)
    expected = numpy_draws(7, 3, 7)
    assert stream.uniform() == expected[5]
    assert stream.pick(1000) == min(int(expected[6] * 1000), 999)


def test_first_uniforms_refuses_a_stream_that_has_drawn():
    drawn = RngStream(0, 1)
    drawn.uniform()
    with pytest.raises(ValueError, match="not drawn"):
        RngStream.first_uniforms([RngStream(0, 0), drawn], 4)
    taken = RngStream(0, 2)
    RngStream.first_uniforms([taken], 4)
    with pytest.raises(ValueError, match="not drawn"):
        RngStream.first_uniforms([taken], 4)


@pytest.mark.parametrize("args", [(1.5,), (2.0,), (0, 1.5), ("3",), (None,), (0, "3"),
                                  (np.float64(2.0),), (np.array(5),), ([1],)])
def test_opening_refuses_what_is_not_an_integer(args):
    """Before streams were lazy, numpy's SeedSequence refused the floats
    when the stream was opened; they must not wait for the first draw."""
    with pytest.raises(TypeError):
        RngStream(*args)


@pytest.mark.parametrize("args", [(-1,), (2**64,), (0, -1), (0, 2**64), (np.int8(-1),),
                                  (1.5, -1)])
def test_opening_refuses_integers_outside_64_bits(args):
    with pytest.raises(ValueError, match="unsigned 64-bit"):
        RngStream(*args)


@pytest.mark.parametrize("args", [(True,), (np.uint64(5),), (np.int64(7), np.uint32(2))])
def test_opening_accepts_bools_and_numpy_integers(args):
    seed, index = (*args, 0)[:2]
    expected = numpy_draws(seed, index, 6)
    assert np.array_equal(RngStream(*args).uniforms(6), expected)
    assert np.array_equal(RngStream.first_uniforms([RngStream(*args)], 6)[0], expected)
