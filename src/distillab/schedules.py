"""Sigmoid position-weight schedule.

A token at one-based position t of an L-token sequence sits at position
fraction r = (t - 0.5) / L. Its training weight is

    w(r) = w_min + (1 - w_min) * sigma((r - midpoint) / steepness)

which rises monotonically from about w_min at the start of the sequence to
about 1 near the end, crossing w_min + (1 - w_min) / 2 exactly at the
midpoint. Four named presets span gentle to aggressive early-token
suppression.

sigma is the libm logistic 1 / (1 + exp(-x)), one `math.exp` per element.
That is the formula scipy.special.expit evaluates in double precision, so the
weights equal expit's bit for bit without loading scipy; numpy's own SIMD
`exp` is not libm's and would move low-order bits. Weights per sequence
length are memoised, which pays back the per-element Python loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class PositionSchedule:
    """Parameters of the sigmoid weight curve."""

    w_min: float  # floor weight in [0, 1]
    midpoint: float  # position fraction where the rise is half-complete, in [0, 1]
    steepness: float  # sigmoid scale, > 0 (smaller = sharper)

    def __post_init__(self) -> None:
        if not (0.0 <= self.w_min <= 1.0):
            raise InvalidInputError(f"w_min must lie in [0, 1], got {self.w_min!r}")
        if not (0.0 <= self.midpoint <= 1.0):
            raise InvalidInputError(f"midpoint must lie in [0, 1], got {self.midpoint!r}")
        if not (self.steepness > 0.0) or not np.isfinite(self.steepness):
            raise InvalidInputError(f"steepness must be positive, got {self.steepness!r}")


PRESETS: dict[str, PositionSchedule] = {
    "mild": PositionSchedule(0.50, 0.20, 0.20),
    "moderate": PositionSchedule(0.25, 0.30, 0.10),
    "sharp": PositionSchedule(0.10, 0.40, 0.05),
    "aggressive": PositionSchedule(0.05, 0.50, 0.05),
}


def preset(name: str) -> PositionSchedule:
    """Look up a preset by case-insensitive name."""
    key = name.strip().lower()
    if key not in PRESETS:
        raise InvalidInputError(
            f"unknown schedule preset {name!r}; choose from {sorted(PRESETS)}"
        )
    return PRESETS[key]


def position_fraction(t: int, length: int) -> float:
    """Fraction (t - 0.5) / length for one-based position t of a length-L sequence."""
    if length < 1:
        raise InvalidInputError(f"sequence length must be >= 1, got {length}")
    if not (1 <= t <= length):
        raise InvalidInputError(f"position must satisfy 1 <= t <= {length}, got {t}")
    return (t - 0.5) / length


def _logistic(x: float) -> float:
    """1 / (1 + exp(-x)) with libm's exp; 0.0 where exp(-x) overflows, as expit."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def weight(r, schedule: PositionSchedule):
    """Schedule weight at position fraction(s) `r` (scalar or array).

    weight(midpoint) evaluates the logistic at exactly 0 and returns
    w_min + (1 - w_min) * 0.5 exactly.
    """
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise InvalidInputError("position fractions must lie in [0, 1]")
    x = (arr - schedule.midpoint) / schedule.steepness
    sig = np.fromiter(map(_logistic, x.flat), float, x.size).reshape(x.shape)
    w = schedule.w_min + (1.0 - schedule.w_min) * sig
    if np.ndim(r) == 0:
        return float(w)
    return w


@lru_cache(maxsize=1024)
def weights_for_length(length: int, schedule: PositionSchedule) -> np.ndarray:
    """Read-only vector of schedule weights for positions 1..length (memoised)."""
    if length < 1:
        raise InvalidInputError(f"sequence length must be >= 1, got {length}")
    t = np.arange(1, length + 1, dtype=float)
    w = weight((t - 0.5) / length, schedule)
    w.flags.writeable = False
    return w
