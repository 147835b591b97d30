"""Deterministic RNG derivation.

Every stochastic unit of work (a problem, a rollout, a bootstrap resample, an
ensemble member) gets its own generator derived from a tuple of non-negative
integers, so running units in any order -- or on any number of workers --
produces identical results. Generators are numpy PCG64 seeded through
SeedSequence; reports record RNG_ID so downstream readers know the algorithm.

Two replays of numpy's own algorithms, bit for bit, take the place of
per-call numpy work where it is the cost: `RawDraws` serves one generator's
small draws from blocks of its raw outputs; and `replayed` derives many
generators at once, running SeedSequence's hashing as one array pass across
their paths (`_generate_state`) and handing each path's four words to
numpy's PCG64, which finishes the seeding itself. numpy reads those words
through a raw pointer, so each path's must be a contiguous (4,) array.
"""
from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

import numpy as np
import numpy.random  # numpy loads it lazily; load it at import, not at the first draw
from numpy.random.bit_generator import ISeedSequence

from .errors import InvalidInputError

RNG_ID = "numpy-pcg64/seedsequence"

# Phase tags: the part after the root seed in every tagged path, one per kind
# of draw, so no two kinds can share a path. Tags are never reassigned: 1 and
# 8 are retired and stay unused. The bootstrap (seed, resample) and
# identities (seed, trial) paths carry no tag.
TAG_PROBLEM = 0  # world: generate_problem
TAG_FORCE = 2  # world: a problem's forced-continuation table draw
TAG_ENSEMBLE = 3  # world: teacher_ensemble members
TAG_INIT = 4  # trainer: init_student noise
TAG_TRAIN = 5  # trainer: training rollouts
TAG_EVAL = 6  # trainer: evaluation rollouts
TAG_NORM_PROFILE = 7  # trainer: gradient_norm_profile batch
TAG_GRADCHECK = 9  # cli: gradcheck batches


def derive_rng(*parts: int) -> np.random.Generator:
    """Return a fresh Generator for the integer path `parts`.

    Parts must be non-negative integers (phase tags, indices, user seeds).
    """
    clean = []
    for p in parts:
        q = int(p)
        if q < 0:
            raise InvalidInputError(f"seed path parts must be non-negative, got {p!r}")
        clean.append(q)
    if not clean:
        raise InvalidInputError("seed path must contain at least one part")
    # SeedSequence reads an int as its 32-bit words, so parts below 2**32 give
    # the same entropy as a uint32 array, which it takes without the per-int split
    words = np.array(clean, dtype=np.uint32) if max(clean) < 2**32 else clean
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


# SeedSequence's hashmix constants
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
# 0-d arrays: cheaper operands than numpy scalars for the replay's small arrays
_MIX_L, _MIX_R, _U16 = (np.array(v, np.uint32) for v in (0xCA01F9DD, 0x4973F715, 16))
_U32 = np.uint64(32)


@lru_cache(maxsize=8)
def _hash_consts(const: int, mult: int, n: int) -> np.ndarray:
    """SeedSequence's first n + 1 hash constants from `const`, as a uint32 column."""
    consts = [const]
    for _ in range(n):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, np.uint32)[:, None]


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of a (P,) or (n, P) uint32 array, row k of the
    (n, P) result under the hash constant consts[k] (and consts[k + 1])."""
    value = value ^ consts[:-1]
    value *= consts[1:]
    value ^= value >> _U16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = _MIX_L * x - _MIX_R * y
    mixed ^= mixed >> _U16
    return mixed


def _generate_state(words: np.ndarray) -> np.ndarray:
    """`SeedSequence(words[:, j]).generate_state(4, np.uint64)` for every
    column j of a (W, P) uint32 array, as a (4, P) uint64 array: the hashmix
    pool of four words (zero-padded), every word mixed into every other, each
    word past the fourth mixed into all four, then the pool hashed out twice
    and paired, low word first."""
    extra = max(len(words) - 4, 0)
    consts = _hash_consts(_INIT_A, _MULT_A, 16 + 4 * extra)
    entropy = np.zeros((4 + extra, words.shape[1]), np.uint32)
    entropy[: len(words)] = words
    pool = _hashmix(entropy[:4], consts[:5])
    for src in range(4):  # pool[src] is read before any of its three updates
        dst, k = [d for d in range(4) if d != src], 4 + 3 * src
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[k : k + 4]))
    for k, word in enumerate(entropy[4:], 4):
        pool = _mix(pool, _hashmix(word, consts[4 * k : 4 * k + 5]))
    state = _hashmix(np.concatenate([pool, pool]), _hash_consts(_INIT_B, _MULT_B, 8)).astype(np.uint64)
    return state[0::2] | state[1::2] << _U32


class _Words(ISeedSequence):
    """A seed sequence holding one path's `SeedSequence.generate_state(4,
    np.uint64)` words, a contiguous (4,) uint64 array: numpy reads them
    through a raw pointer, so a strided view would seed a wrong state."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:  # what numpy's PCG64 asks for
            raise RuntimeError(f"PCG64 asked for {n_words} {np.dtype(dtype)} words, not 4 uint64")
        return self.words


def replayed(paths) -> Iterator[np.random.Generator]:
    """`derive_rng(*path)` for each path in `paths`, all of one length, in
    turn, each a Generator of its own. When every part lies below 2**32,
    SeedSequence runs as one array pass across the paths (`_generate_state`)
    and numpy's PCG64 finishes each path's seeding from its four words.
    Otherwise every path is derived."""
    paths = list(paths)
    if not (paths and all(paths) and min(map(min, paths)) >= 0 and max(map(max, paths)) < 2**32):
        for path in paths:
            yield derive_rng(*path)
        return
    # rows of a copy, not columns of the (4, P) result: each (4,) contiguous
    for words in _generate_state(np.array(paths, np.uint32).T).T.copy():
        yield np.random.Generator(np.random.PCG64(_Words(words)))


class RawDraws:
    """A fresh Generator's `integers`, `random`, `uniform` and `choice`
    (without replacement) replayed bit for bit in Python, from blocks of its
    raw PCG64 outputs, at a fraction of numpy's per-call cost. Raw outputs
    are read CHUNK at a time, ahead of use, so the wrapped generator must
    draw nothing else."""

    CHUNK = 256  # a default problem reads 240 to 560 raw outputs

    def __init__(self, rng: np.random.Generator):
        self._read = rng.bit_generator.random_raw
        self._raws: Iterator[int] = iter(())
        self._half: int | None = None  # the high half-word next_uint32 keeps

    def _next64(self) -> int:
        try:
            return next(self._raws)
        except StopIteration:
            self._raws = iter(self._read(self.CHUNK).tolist())
            return next(self._raws)

    def _lemire(self, top: int) -> int:
        """A uniform integer in [0, top] by numpy's 32-bit Lemire rejection: a
        `next_uint32` word (a raw output's low half, then its kept high half)
        times top + 1, redrawn while the product's low 32 bits are below 2**32
        mod (top + 1). One value draws nothing; 2**32 or more are refused."""
        if not 0 <= top < 0xFFFFFFFF:
            raise InvalidInputError(f"draw range [0, {top}] must hold 1 to 2**32 - 1 values")
        threshold = (0xFFFFFFFF - top) % (top + 1)
        while top:
            if self._half is None:
                word = self._next64()
                self._half, word = word >> 32, word & 0xFFFFFFFF
            else:
                word, self._half = self._half, None
            m = word * (top + 1)
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32
        return 0

    def integers(self, low: int, high: int | None = None) -> int:
        return self._lemire(low - 1) if high is None else low + self._lemire(high - low - 1)

    def random(self) -> float:  # a kept half-word stays kept
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def choice(self, pop: list, size: int) -> list:
        """Floyd's algorithm with draws in [0, j], then a shuffle of positions size-1 .. 1."""
        picked: list[int] = []
        for j in range(len(pop) - size, len(pop)):
            val = self._lemire(j)
            picked.append(j if val in picked else val)
        for i in range(size - 1, 0, -1):
            j = self._lemire(i)
            picked[i], picked[j] = picked[j], picked[i]
        return [pop[i] for i in picked]
