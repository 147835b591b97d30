import numpy as np
import pytest

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
