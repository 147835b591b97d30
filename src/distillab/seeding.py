"""Deterministic RNG derivation.

Every stochastic unit of work (a problem, a rollout, a bootstrap resample, an
ensemble member) gets its own generator derived from a tuple of non-negative
integers, so running units in any order -- or on any number of workers --
produces identical results. Generators are numpy PCG64 seeded through
SeedSequence; reports record RNG_ID so downstream readers know the algorithm.
"""
from __future__ import annotations

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
