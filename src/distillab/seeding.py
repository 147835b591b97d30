"""Deterministic RNG derivation.

Every stochastic unit of work (a problem, a rollout, a bootstrap resample, an
ensemble member) gets its own generator derived from a tuple of non-negative
integers, so running units in any order -- or on any number of workers --
produces identical results. Generators are numpy PCG64 seeded through
SeedSequence; reports record RNG_ID so downstream readers know the algorithm.
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np
import numpy.random  # numpy loads it lazily; load it at import, not at the first draw

from .errors import InvalidInputError

RNG_ID = "numpy-pcg64/seedsequence"

# Phase tags: the part after the root seed in every tagged path, one per kind
# of draw, so no two kinds can share a path. 8 is unused. The bootstrap
# (seed, resample) and identities (seed, trial) paths carry no tag.
TAG_PROBLEM = 0  # world: generate_problem
TAG_ROLLOUT = 1  # world: sampled student_rollout
TAG_FORCE = 2  # world: forced_continuation attempts
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
