from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distillab import seeding
from distillab.errors import InvalidInputError


def test_phase_tags_are_pairwise_distinct():
    tags = {name: value for name, value in vars(seeding).items() if name.startswith("TAG_")}
    assert len(tags) == 8
    assert len(set(tags.values())) == len(tags)
    assert sorted(tags.values()) == [0, 2, 3, 4, 5, 6, 7, 9]  # 1 and 8 are retired


def _draw(*path):
    return seeding.derive_rng(*path).random()


def test_derive_rng_depends_on_the_whole_path():
    assert _draw(0, seeding.TAG_TRAIN, 1) == _draw(0, seeding.TAG_TRAIN, 1)
    assert _draw(0, seeding.TAG_TRAIN, 1) != _draw(0, seeding.TAG_EVAL, 1)
    assert isinstance(seeding.derive_rng(3), np.random.Generator)
    for bad in ((), (0, -1)):
        with pytest.raises(InvalidInputError):
            seeding.derive_rng(*bad)


# zero, one 32-bit word, and two or three words: SeedSequence reads an int
# part as its 32-bit words, the one place the uint32 fast path could differ
_parts = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.sampled_from([2**32 - 1, 2**32, 2**64 - 1, 2**64]),
    st.integers(2**32, 2**70 - 1),
)


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(_parts, min_size=1, max_size=7))
@example(parts=[0])
@example(parts=[2**32 - 1, 0, 2**32])
@example(parts=[0, 0, 0, 0, 0, 0, 0])
def test_derive_rng_equals_numpy_default_rng(parts):
    for path in (parts, [np.uint64(p) if p < 2**64 else p for p in parts]):
        got, expected = seeding.derive_rng(*path), np.random.default_rng(np.random.SeedSequence(list(parts)))
        assert got.random(16).tobytes() == expected.random(16).tobytes()
        assert got.integers(2**62) == expected.integers(2**62)


# One Generator call and its arguments. Ranges of one value draw nothing;
# ranges just above 2**31 reject about half their first draws (Lemire).
_near_2_31 = st.integers(2**31 - 3, 2**31 + 3)
_ops = st.one_of(
    st.tuples(st.just("integers"), st.one_of(st.just(1), st.integers(1, 40), _near_2_31, st.integers(1, 2**32 - 1))),
    st.tuples(st.just("interval"), st.integers(0, 2**20), st.one_of(st.just(1), st.integers(1, 40), _near_2_31)),
    st.tuples(st.just("random")),
    st.tuples(st.just("uniform"), st.floats(-10.0, 10.0), st.floats(0.0, 10.0)),
    st.tuples(st.just("choice"), st.integers(1, 40), st.integers(0, 40)),
)


def _apply(rng, op, *args, replay):
    if op == "integers":
        return rng.integers(*args)
    if op == "interval":
        return rng.integers(args[0], args[0] + args[1])
    if op == "random":
        return rng.random()
    if op == "uniform":
        return rng.uniform(args[0], args[0] + args[1])
    n, k = args[0], min(args)
    pop = list(range(100, 100 + n))
    return rng.choice(pop, k) if replay else rng.choice(np.array(pop), size=k, replace=False).tolist()


@settings(max_examples=300, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70)),
    chunk=st.one_of(st.integers(1, 9), st.just(256)),
    ops=st.lists(_ops, max_size=60),
)
# ranges of one value: integers(1) and choice of all n from n
@example(seed=0, chunk=256, ops=[("integers", 1), ("integers", 12), ("choice", 5, 5), ("interval", 7, 1), ("random",)])
@example(seed=2**32, chunk=256, ops=[("choice", 1, 1), ("choice", 3, 3), ("choice", 4, 2), ("integers", 3)])
# Lemire rejection: each draw near 2**31 redraws about half the time
@example(seed=5, chunk=3, ops=[("integers", 2**31 + 1)] * 12 + [("interval", 3, 2**31 + 3)] * 6)
# the high half-word kept across random() and uniform()
@example(seed=1, chunk=256, ops=[("integers", 12), ("random",), ("integers", 12), ("uniform", 0.85, 0.3), ("integers", 12)])
# more raw outputs than one 256-word chunk, and a one-word chunk
@example(seed=2**40, chunk=256, ops=[("random",)] * 200 + [("choice", 30, 3)] * 30)
@example(seed=3, chunk=1, ops=[("integers", 12), ("random",), ("choice", 11, 3), ("integers", 5)] * 5)
def test_raw_draws_equal_the_generator(seed, chunk, ops):
    replay = type("Replay", (seeding.RawDraws,), {"CHUNK": chunk})(seeding.derive_rng(seed))
    expected = seeding.derive_rng(seed)
    for op, *args in ops:
        want, got = _apply(expected, op, *args, replay=False), _apply(replay, op, *args, replay=True)
        assert got == want, (op, args)
        assert type(got) is (float if op in ("random", "uniform") else list if op == "choice" else int)
    # both streams stand at the same raw output and the same kept half-word
    assert replay.integers(2**32 - 1) == expected.integers(2**32 - 1)
    assert replay.random() == expected.random()


@pytest.mark.parametrize("args", [(0,), (2**32,), (5, 5), (3, 2), (0, 2**32)])
def test_raw_draws_refuse_empty_and_2_32_ranges(args):
    with pytest.raises(InvalidInputError, match="draw range"):
        seeding.RawDraws(seeding.derive_rng(0)).integers(*args)


_part = st.one_of(st.sampled_from([0, 1, 2**31, 2**32 - 1]), st.integers(0, 2**32 - 1))


# one word, the pool's four, and the words past four that are mixed into all
# of the pool; a part of 2**32 or more sends every path to derive_rng
@settings(max_examples=150, deadline=None)
@given(width=st.integers(1, 6), wide=st.booleans(), data=st.data())
@example(width=1, wide=False, data=None)
def test_replayed_states_equal_each_generator(width, wide, data):
    if data is None:  # the boundary words, each its own path
        paths = [[0], [2**31], [2**32 - 1]]
    else:
        paths = data.draw(st.lists(st.lists(_part, min_size=width, max_size=width), min_size=1, max_size=8))
    if wide:
        at = data.draw(st.integers(0, len(paths) - 1)), data.draw(st.integers(0, width - 1))
        paths[at[0]][at[1]] = data.draw(st.integers(2**32, 2**70))
    with mock.patch.object(seeding, "derive_rng", wraps=seeding.derive_rng) as spy:
        got = [rng.bit_generator.state for rng in seeding.replayed(paths)]
    assert spy.call_count == (len(paths) if wide else 0)
    assert got == [seeding.derive_rng(*path).bit_generator.state for path in paths]


@pytest.mark.parametrize("paths", [[[0], [2**31], [2**32 - 1]], [[0, 2**31, 2**32 - 1, 7, 0, 2**31]] * 2, [[3, 2**32, 1]]])
def test_replayed_generators_draw_as_each_derived_generator(paths):
    got = [rng.standard_normal(5).tobytes() for rng in seeding.replayed(paths)]
    assert got == [seeding.derive_rng(*path).standard_normal(5).tobytes() for path in paths]


@pytest.mark.parametrize("paths", [[[0, 1], [2, 3], [0, 1]], [[0, 2**32], [2, 3], [0, 2**32]]])  # replayed, and the fallback
def test_replayed_generators_are_independent(paths):
    rngs = list(seeding.replayed(paths))  # every generator taken before any draws
    got = [rng.bit_generator.random_raw(3).tobytes() for rng in rngs]
    assert got == [seeding.derive_rng(*path).bit_generator.random_raw(3).tobytes() for path in paths]


@pytest.mark.parametrize("request_", [(4, np.uint32), (8, np.uint64), (2, np.uint64)])
def test_replayed_words_refuse_any_request_but_four_uint64(request_):
    words = seeding._Words(np.zeros(4, np.uint64))
    assert words.generate_state(4, np.uint64) is words.words
    with pytest.raises(RuntimeError, match="PCG64 asked for"):
        words.generate_state(*request_)


def test_replayed_refuses_negative_paths():
    for paths in ([[0, -1]], [[1, 2], [3, -4]]):
        with pytest.raises(InvalidInputError):
            list(seeding.replayed(paths))
