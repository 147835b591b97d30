"""Deterministic RNG derivation.

Every stochastic unit of work (a problem, a rollout, a bootstrap resample, an
ensemble member) gets its own generator derived from a tuple of non-negative
integers, so running units in any order -- or on any number of workers --
produces identical results. Generators are numpy PCG64 seeded through
SeedSequence; reports record RNG_ID so downstream readers know the algorithm.

Three replays of numpy's own algorithms, bit for bit, take the place of
per-call numpy work where it is the cost: `RawDraws` serves one generator's
small draws from blocks of its raw outputs; `raw_outputs` computes the first
raw outputs of many derived generators at once, in array operations across
their paths; and `replayed` computes the seeded states of many derived
generators at once and sets them on one reused Generator in turn, so
numpy's own samplers (such as `standard_normal`) draw from each. The two
array replays share one SeedSequence kernel, `_generate_state`.
"""
from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

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


# SeedSequence's hashmix constants and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
# 0-d arrays: cheaper operands than numpy scalars for the replay's small arrays
_MIX_L, _MIX_R, _U16 = (np.array(v, np.uint32) for v in (0xCA01F9DD, 0x4973F715, 16))
_PCG_MULT, _M128 = 0x2360ED051FC65DA44385DF649FCCF645, 2**128 - 1
_LO32, _U32 = np.uint64(0xFFFFFFFF), np.uint64(32)


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


def replayed(paths) -> Iterator[np.random.Generator]:
    """`derive_rng(*path)` for each path in `paths`, all of one length, in
    turn, as one reused Generator whose state is set per path: it is valid
    only until the next is taken. When every part lies below 2**32 the state
    is replayed: SeedSequence runs as one array pass across the paths
    (`_generate_state`) and PCG64's seeding is finished per path in Python
    ints, inc = 2 * initseq + 1 and state = (inc + initstate) * A + inc mod
    2**128. Otherwise every path is derived and its state copied."""
    paths = list(paths)
    rng = np.random.Generator(np.random.PCG64(0))
    if not (paths and all(paths) and min(map(min, paths)) >= 0 and max(map(max, paths)) < 2**32):
        for path in paths:
            rng.bit_generator.state = derive_rng(*path).bit_generator.state
            yield rng
        return
    for init_hi, init_lo, seq_hi, seq_lo in zip(*_generate_state(np.array(paths, np.uint32).T).tolist()):
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _M128
        state = ((inc + (init_hi << 64 | init_lo)) * _PCG_MULT + inc) & _M128
        rng.bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0
        }
        yield rng


def _mul128(x_hi, x_lo, k_hi, k_lo) -> tuple[np.ndarray, np.ndarray]:
    """x * k mod 2**128 on (high, low) uint64 words; the high word of
    x_lo * k_lo comes from 32-bit limbs."""
    x0, x1, k0, k1 = x_lo & _LO32, x_lo >> _U32, k_lo & _LO32, k_lo >> _U32
    p01, p10 = x0 * k1, x1 * k0
    mid = (x0 * k0 >> _U32) + (p01 & _LO32) + (p10 & _LO32)
    carry = x1 * k1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    return carry + x_hi * k_lo + x_lo * k_hi, x_lo * k_lo


def raw_outputs(seed: int, indices, n: int, rows: int | None = None) -> Iterator[np.ndarray]:
    """`derive_rng(seed, b).bit_generator.random_raw(n)` for every b in
    `indices`, in index order, as uint64 blocks of `rows` rows (the last may
    be shorter; one block of every row by default).

    When the seed and every index lie below 2**32, numpy's own steps run as
    array operations across the indices: SeedSequence's
    `generate_state(4, uint64)` (`_generate_state`), PCG64's seeding (state 0,
    inc = 2 * initseq + 1, step, add initstate, step), and the k-th output as
    the XSL-RR of P_k * initstate + Q_k * inc mod 2**128, where P_k = A**(k+1)
    and Q_k = A**(k+1) + A**k + ... + 1 for the multiplier A. Any other path
    is derived row by row."""
    paths = [int(i) for i in indices]
    rows = rows or max(len(paths), 1)
    if not (0 <= seed < 2**32 and paths and min(paths) >= 0 and max(paths) < 2**32):
        for start in range(0, len(paths), rows):
            block = [derive_rng(seed, i).bit_generator.random_raw(n) for i in paths[start : start + rows]]
            yield np.array(block, dtype=np.uint64).reshape(len(block), n)
        return
    b = np.array(paths, dtype=np.uint32)
    init_hi, init_lo, seq_hi, seq_lo = _generate_state(np.stack([np.full_like(b, seed), b]))[:, :, None]
    inc_hi, inc_lo = seq_hi << np.uint64(1) | seq_lo >> np.uint64(63), seq_lo << np.uint64(1) | np.uint64(1)
    power, total, coefficients = _PCG_MULT, 1, []  # P_k and Q_k for k = 1..n
    for _ in range(n):
        total += power
        power = power * _PCG_MULT % 2**128
        coefficients.extend((power, (power + total) % 2**128))
    words = np.array([[c >> 64, c & 2**64 - 1] for c in coefficients], dtype=np.uint64)
    p_hi, p_lo, q_hi, q_lo = words.reshape(n, 4).T
    for start in range(0, len(paths), rows):
        block = slice(start, start + rows)
        a_hi, a_lo = _mul128(init_hi[block], init_lo[block], p_hi, p_lo)
        c_hi, c_lo = _mul128(inc_hi[block], inc_lo[block], q_hi, q_lo)
        lo = a_lo + c_lo
        hi = a_hi + c_hi + (lo < a_lo)
        mixed, rot = hi ^ lo, hi >> np.uint64(58)
        yield mixed >> rot | mixed << (np.uint64(64) - rot & np.uint64(63))


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
