import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distillab import seeding
from distillab.errors import InvalidInputError


def test_phase_tags_are_pairwise_distinct():
    tags = {name: value for name, value in vars(seeding).items() if name.startswith("TAG_")}
    assert len(tags) == 9
    assert len(set(tags.values())) == len(tags)
    assert sorted(tags.values()) == [0, 1, 2, 3, 4, 5, 6, 7, 9]  # 8 is unused


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
