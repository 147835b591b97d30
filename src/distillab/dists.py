"""Probability-vector kernels: softmax, entropies, and the clipped divergence terms.

Conventions used throughout the package:

* all logarithms are natural;
* 0 * ln 0 = 0;
* probabilities are floored to PROB_FLOOR *inside* logarithms only -- the
  distribution itself is never renormalized by the floor;
* token distributions are float rows that sum to 1 within 1e-9 and contain
  no negative entries; `as_rows` is the one check of that.
"""
from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError, InvalidInputError

PROB_FLOOR = 1e-12

_SUM_TOL = 1e-9


def as_distribution(p, name: str = "distribution") -> np.ndarray:
    """Validate and return `p` as a 1-D probability vector."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise InvalidInputError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    return as_rows(arr, name)


def as_rows(p, name: str = "distribution") -> np.ndarray:
    """Validate and return `p` as probability rows along its last axis.

    The first bad row in C order is named `name[i]` (`name[i, j]` for a 3-D
    `p`; a 1-D `p` is the one row `name`), with the first check it fails:
    finite, then non-negative, then summing to 1 within _SUM_TOL.
    """
    arr = np.asarray(p, dtype=float)
    if arr.ndim < 1 or arr.shape[-1] < 1:
        raise InvalidInputError(f"{name} must hold rows of at least one entry, got shape {arr.shape}")
    # entries in [0, 1 + tol] cannot overflow a sum; a NaN, or an entry outside
    # (which no valid row holds), takes the error path
    if ((arr >= 0.0) & (arr <= 1.0 + _SUM_TOL)).all():
        if (np.abs(arr.sum(axis=-1) - 1.0) <= _SUM_TOL).all():
            return arr
    rows = arr.reshape(-1, arr.shape[-1])
    with np.errstate(all="ignore"):  # a bad row may sum to inf - inf, or overflow
        sums = rows.sum(axis=1)  # each the same pairwise sum as its row's own
    ok = np.isfinite(rows).all(axis=1) & ~(rows < 0.0).any(axis=1)
    first = int(np.argmin(ok & (np.abs(sums - 1.0) <= _SUM_TOL)))
    if arr.ndim > 1:
        name = f"{name}[{', '.join(map(str, np.unravel_index(first, arr.shape[:-1])))}]"
    if not np.isfinite(rows[first]).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    if (rows[first] < 0.0).any():
        raise InvalidInputError(f"{name} contains negative entries")
    raise InvalidInputError(f"{name} sums to {float(sums[first])!r}, expected 1 within {_SUM_TOL}")


def floored_log(p: np.ndarray) -> np.ndarray:
    """ln(max(p, PROB_FLOOR)) elementwise; the floor applies only inside the log."""
    return np.log(np.maximum(p, PROB_FLOOR))


def fkl_terms(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Elementwise forward-KL terms q_j (ln q_j - ln p_j), 0 where q_j = 0.

    Both logs are floored (floored_log); nothing is validated, and the terms
    keep the inputs' dtype. Reverse-KL terms are fkl_terms(p, q).
    """
    return np.where(q > 0.0, q * (floored_log(q) - floored_log(p)), 0.0)


def temperature_scaled(q: np.ndarray, temperature: float) -> np.ndarray:
    """q^(1/T) renormalized along the last axis; exact zeros stay zero and
    T = 1 returns `q` itself. Unvalidated: callers check T and q."""
    if temperature == 1.0:
        return q
    scaled = np.where(q > 0.0, np.exp(floored_log(q) / temperature), 0.0)
    return scaled / scaled.sum(axis=-1, keepdims=True)


def softmax_with_temperature(logits, temperature: float) -> np.ndarray:
    """Row-wise softmax of logits / temperature, stabilized by max-shift.

    Accepts a 1-D vector or a 2-D (rows = tokens) array; temperature must be
    positive and finite, logits must be finite.
    """
    z = np.asarray(logits, dtype=float)
    if not np.isfinite(temperature) or temperature <= 0.0:
        raise InvalidInputError(f"temperature must be positive and finite, got {temperature!r}")
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("logits contain non-finite entries")
    scaled = z / temperature
    shifted = scaled - scaled.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def entropy(p) -> float:
    """Shannon entropy in nats with the 0 ln 0 = 0 convention."""
    arr = as_distribution(p, "entropy input")
    pos = arr[arr > 0.0]
    return float(-(pos * np.log(pos)).sum())


def row_entropies(table) -> np.ndarray:
    """entropy() of every row of a 2-D table, validated as a whole.

    Rows without an exact zero take one pass whose last-axis sums are the
    same pairwise reductions as entropy()'s 1-D sums. A row holding a zero
    keeps entropy()'s own path, which drops the zeros before summing.
    """
    arr = as_rows(table, "entropy table")
    if arr.ndim != 2:
        raise InvalidInputError(f"entropy table must be 2-D, got shape {arr.shape}")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -(arr * np.log(arr)).sum(axis=1)
    for i in np.flatnonzero((arr == 0.0).any(axis=1)):
        out[i] = entropy(arr[i])
    return out


def prefix_entropies(ranked: np.ndarray) -> np.ndarray:
    """Entropy of each descending row (a positive prefix, then zeros) renormalized
    over its prefix; unvalidated. Rows with the same count of positives share one
    pass, whose row sums are the same pairwise sums as a 1-D sum of the prefix."""
    width = (ranked > 0.0).sum(axis=1)
    out = np.empty(len(ranked))
    for k in set(width.tolist()):
        same = width == k
        p = ranked[same, :k]
        p = p / p.sum(axis=1, keepdims=True)
        out[same] = -(p * np.log(p)).sum(axis=1)
    return out


def truncated_entropy(p, valid_mask, top_m: int) -> float:
    """Entropy of the renormalized top-`top_m` valid-token probabilities.

    Invalid tokens are masked out first; ties at the top-M boundary break
    toward the lowest vocabulary index. All-zero valid mass is degenerate.
    """
    arr = as_distribution(p, "truncated-entropy input")
    mask = np.asarray(valid_mask, dtype=bool)
    if mask.shape != arr.shape:
        raise InvalidInputError(
            f"valid_mask shape {mask.shape} does not match distribution shape {arr.shape}"
        )
    if top_m < 1:
        raise InvalidInputError(f"top_m must be >= 1, got {top_m}")
    masked = np.where(mask, arr, 0.0)
    if masked.sum() <= 0.0:
        raise DegenerateInputError("no probability mass on valid tokens")
    # stable sort on negated probs: equal values keep index order (lowest wins)
    order = np.argsort(-masked, kind="stable")
    return float(prefix_entropies(masked[order[:top_m]][None])[0])


def _as_pair(q, p, q_name: str, p_name: str) -> tuple[np.ndarray, np.ndarray]:
    """Validate two distributions over one vocabulary."""
    qa, pa = as_distribution(q, q_name), as_distribution(p, p_name)
    if qa.shape != pa.shape:
        raise InvalidInputError(f"shape mismatch {qa.shape} vs {pa.shape}")
    return qa, pa


def clipped_fkl_terms(q, p, clip_threshold: float) -> np.ndarray:
    """Per-token terms min(q_j ln(q_j / p_j), clip_threshold), with q_j = 0 giving 0.

    `p` is floored inside the log only. The returned vector may sum to a
    negative number; clipping is one-sided from above.
    """
    qa, pa = _as_pair(q, p, "teacher distribution", "student distribution")
    if not np.isfinite(clip_threshold) or clip_threshold <= 0.0:
        raise InvalidInputError(f"clip_threshold must be positive, got {clip_threshold!r}")
    return np.minimum(fkl_terms(qa, pa), clip_threshold)


def forward_kl(q, p) -> float:
    """Unclipped forward KL divergence sum_j q_j ln(q_j / p_j).

    Always finite: p is floored inside the log, so where q has mass and p has
    none the term is q_j (ln q_j - ln PROB_FLOOR).
    """
    qa, pa = _as_pair(q, p, "forward-kl q", "forward-kl p")
    return float(fkl_terms(qa, pa).sum())


def reverse_kl(q, p) -> float:
    """Reverse KL divergence sum_j p_j ln(p_j / q_j), q floored inside the log."""
    qa, pa = _as_pair(q, p, "reverse-kl q", "reverse-kl p")
    return float(fkl_terms(pa, qa).sum())
