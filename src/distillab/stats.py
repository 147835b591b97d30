"""Ranking statistics with problem-level clustering.

Candidates from the same problem share position structure, so raw AUROC would
mostly measure between-problem differences. Scores are therefore
*residualized* first: within each problem the problem-mean score is
subtracted. AUROC then uses the mid-rank Mann-Whitney form (exactly equal to
the brute-force pairwise count, ties scoring one half), and AUPRC sweeps
descending scores with ties processed as one block.

Confidence intervals come from a cluster bootstrap: problems (not candidates)
are resampled with replacement, multiplicity preserved, and the percentile
interval is read from the resampled AUROCs with nearest-order-statistic
quantiles so both ends are values some resample actually attained. Resamples
that collapse to a single label class are skipped and counted.

The bootstrap never rebuilds a resampled dataset. A problem's residuals do not
change when the problem is duplicated, so they are computed once per problem.
With M[a, b] the Mann-Whitney count of (positive in problem a, negative in
problem b) pairs, ties counting one half, a resample that draws problem p c[p]
times has U = c^T M c and denominator (c . n_pos)(c . n_neg), where n_pos and
n_neg count each problem's positives and negatives; it is degenerate exactly
when one factor is zero. Every term is a multiple of one half far below 2**53,
so float64 holds every sum exactly in any order, and the one final division is
the same as the rank-based AUROC of the assembled resample: results are
bit-identical to the direct resample-and-rank loop, which `_group_indices`,
`_assemble_resample` and `_auroc_from_arrays` still implement as the
reference. The draw counts depend only on (seed, resamples, number of
problems), so several scores over the same candidates share one set of draws.
Each resample's counts are those of its own generator's `integers` draw,
computed in blocks of resamples from the raw outputs of generators that
`seeding.replayed` derives in one pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from .errors import DegenerateInputError, InvalidInputError
from .seeding import RNG_ID, derive_rng, replayed


@dataclass(frozen=True)
class ScoredCandidate:
    problem_id: str
    score: float
    label: bool  # True = the "positive" class (real-uncertain)


@dataclass(frozen=True)
class BootstrapConfig:
    resamples: int = 2000
    confidence: float = 0.95
    seed: int = 0

    def __post_init__(self) -> None:
        if self.resamples < 1:
            raise InvalidInputError(f"resamples must be >= 1, got {self.resamples}")
        if not (0.0 < self.confidence < 1.0):
            raise InvalidInputError(f"confidence must lie in (0, 1), got {self.confidence!r}")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be non-negative, got {self.seed}")


def _split(items) -> tuple[list[str], np.ndarray, np.ndarray]:
    problems = [str(it.problem_id) for it in items]
    scores = np.array([float(it.score) for it in items], dtype=float)
    labels = np.array([bool(it.label) for it in items], dtype=bool)
    if scores.size == 0:
        raise DegenerateInputError("empty candidate list")
    return problems, _finite(scores), labels


def _finite(scores: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(scores)):
        raise InvalidInputError("scores contain non-finite values")
    return scores


def _residuals(groups: list[np.ndarray], scores: np.ndarray) -> np.ndarray:
    """Each score minus its problem's mean, the mean's sum taken sequentially
    in candidate order (bincount adds its weights one by one from 0.0)."""
    problem = np.empty(scores.size, dtype=np.intp)
    for p, idx in enumerate(groups):
        problem[idx] = p
    return scores - (np.bincount(problem, weights=scores) / np.bincount(problem))[problem]


def residualize_within_problem(items) -> list[ScoredCandidate]:
    """Subtract each problem's mean score; order is preserved."""
    problems, scores, labels = _split(items)
    residual = _residuals(_group_indices(problems)[1], scores)
    return [
        ScoredCandidate(pid, float(r), bool(l))
        for pid, r, l in zip(problems, residual, labels)
    ]


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks where each block of tied values shares its average rank."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size, dtype=float)
    # ranks starts+1 .. ends average to (starts + 1 + ends) / 2, a half-integer
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def _auroc_from_arrays(scores: np.ndarray, labels: np.ndarray) -> float:
    n_pos = int(labels.sum())
    n_neg = int(labels.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise DegenerateInputError("AUROC needs both label classes")
    ranks = _midranks(scores)
    u = float(ranks[labels].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def auroc(items) -> float:
    """Mann-Whitney AUROC via mid-ranks; exact under ties (each tie scores 1/2)."""
    _, scores, labels = _split(items)
    return _auroc_from_arrays(scores, labels)


def auprc(items) -> float:
    """Area under the precision-recall curve, descending-score sweep.

    Tied scores are processed as one block: the block's recall gain is
    credited at the precision reached after including the whole block. An
    uninformative (all-tied) score therefore lands at positive prevalence.
    """
    _, scores, labels = _split(items)
    return _auprc_from_arrays(scores, labels)


def _auprc_from_arrays(scores: np.ndarray, labels: np.ndarray) -> float:
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise DegenerateInputError("AUPRC needs at least one positive")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])  # tie blocks, as in _midranks
    ends = np.r_[starts[1:], s.size]
    block_tp = np.add.reduceat(y.astype(np.int64), starts)
    # each block with a positive adds recall gain times precision (tp over the
    # ends[i] candidates seen), summed one by one in block order as a loop would
    gains = (block_tp / n_pos) * (np.cumsum(block_tp) / ends)
    return float(np.add.accumulate(gains[block_tp > 0])[-1])


def _group_indices(problems: list[str]) -> tuple[list[str], list[np.ndarray]]:
    """Unique problems in first-appearance order with their candidate indices."""
    order: list[str] = []
    index_map: dict[str, list[int]] = {}
    for i, pid in enumerate(problems):
        if pid not in index_map:
            index_map[pid] = []
            order.append(pid)
        index_map[pid].append(i)
    return order, [np.array(index_map[pid], dtype=int) for pid in order]


def _assemble_resample(
    groups: list[np.ndarray], draw: np.ndarray, scores: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Residualized scores and labels for one resample of problem indices.

    A problem drawn k times contributes its candidates k times, exactly as if
    the dataset had been built with the problem duplicated.
    """
    parts_scores = []
    parts_labels = []
    for g in draw:
        idx = groups[g]
        block = scores[idx]
        parts_scores.append(block - block.mean())
        parts_labels.append(labels[idx])
    return np.concatenate(parts_scores), np.concatenate(parts_labels)


@dataclass(frozen=True)
class BootstrapResult:
    point: float
    ci_low: float
    ci_high: float
    n_resamples: int
    n_degenerate: int
    seed: int
    rng_id: str


def _count_row(seed: int, b: int, n: int) -> np.ndarray:
    """How often resample b draws each of n problems, from its own generator."""
    return np.bincount(derive_rng(seed, b).integers(0, n, size=n), minlength=n)


@lru_cache(maxsize=4)
def _draw_counts(seed: int, resamples: int, n_problems: int) -> np.ndarray:
    """(resamples, n_problems) read-only matrix: row b counts how often resample
    b draws each problem. Depends on nothing but its arguments, so every score
    bootstrapped over the same problems reuses one matrix.

    Row b is `derive_rng(seed, b).integers(0, n, size=n)` counted, computed in
    blocks of rows from the raw outputs of the `replayed` generators: numpy's
    32-bit Lemire rule on a fresh buffer, the low half of each raw output and
    then its high half, each word w giving (w * n) >> 32. A row in which a
    word would be rejected (the low 32 bits of w * n below (2**32 - n) mod n)
    is redrawn from its own generator. Row 0 is always redrawn so, and if it
    differs every row is."""
    n = n_problems
    counts = np.empty((resamples, n), dtype=float)
    threshold = np.uint64((2**32 - n) % n)
    step = max(1, 2**13 // n)  # rows per block: temporaries of 64 KiB at up to 8,192 problems
    rngs = replayed((seed, b) for b in range(resamples))
    for start in range(0, resamples, step):
        raws = np.array([rng.bit_generator.random_raw((n + 1) // 2) for rng in islice(rngs, step)])
        stop = start + raws.shape[0]
        # a raw output's two 32-bit halves, low first, on any byte order
        words = raws.astype("<u8").view("<u4")[:, :n].astype(np.uint64) * np.uint64(n)
        draws = (words >> np.uint64(32)).astype(np.int64) + np.arange(stop - start)[:, None] * n
        counts[start:stop] = np.bincount(draws.ravel(), minlength=draws.size).reshape(-1, n)
        for b in start + np.flatnonzero(((words & np.uint64(0xFFFFFFFF)) < threshold).any(axis=1)):
            counts[b] = _count_row(seed, int(b), n)
    if not np.array_equal(counts[0], _count_row(seed, 0, n)):
        counts = np.array([_count_row(seed, b, n) for b in range(resamples)], dtype=float)
    counts.flags.writeable = False
    return counts


def _pair_count_matrix(
    groups: list[np.ndarray], scores: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """M[a, b] = #(positive in a, negative in b) with r+ > r-, plus 1/2 per tie,
    on within-problem residuals; also each problem's positive and negative counts.
    Problems with the same candidate count share one 2-D mean, each of whose
    row reductions is the 1-D `block.mean()` of `_assemble_resample`. M is one
    `bincount` of the pair wins over (positive's problem, negative's problem)
    cells, exact in any order: a matmul through a membership matrix sums the
    same halves, but OpenBLAS's threaded path can stall on its shapes."""
    residual = np.empty_like(scores)
    problem = np.empty(scores.size, dtype=np.intp)
    sizes = np.array([idx.size for idx in groups])
    for size in set(sizes.tolist()):  # np.unique would import numpy.ma
        same = np.flatnonzero(sizes == size)
        idx = np.array([groups[p] for p in same])
        block = scores[idx]
        residual[idx] = block - block.mean(axis=1, keepdims=True)
        problem[idx] = same[:, None]
    n, pos, neg = len(groups), problem[labels], problem[~labels]
    r_pos = residual[labels][:, None]
    r_neg = residual[~labels][None, :]
    wins = (r_pos > r_neg) + 0.5 * (r_pos == r_neg)
    cells = (pos[:, None] * n + neg).ravel()
    m = np.bincount(cells, weights=wins.ravel(), minlength=n * n).reshape(n, n).astype(float)  # int if no pairs
    return m, np.bincount(pos, minlength=n).astype(float), np.bincount(neg, minlength=n).astype(float)


def _resample_aurocs(
    groups: list[np.ndarray], scores: np.ndarray, labels: np.ndarray, seed: int, resamples: int
) -> tuple[np.ndarray, int]:
    """AUROCs of the usable resamples in draw order, and the degenerate count."""
    m, n_pos, n_neg = _pair_count_matrix(groups, scores, labels)
    counts = _draw_counts(seed, resamples, len(groups))
    # c^T M c per resample, in blocks so that no intermediate adds to peak RSS;
    # every term is a multiple of 1/2 far below 2**53, so BLAS sums it exactly
    u = np.concatenate([((c @ m) * c).sum(axis=1) for c in np.array_split(counts, 8)])
    denom = (counts @ n_pos) * (counts @ n_neg)
    usable = denom > 0
    return u[usable] / denom[usable], int(resamples - usable.sum())


def cluster_bootstrap_auroc(items, cfg: BootstrapConfig) -> BootstrapResult:
    """Point AUROC on residualized scores plus a problem-level percentile CI."""
    return _cluster_bootstrap(items, cfg)[0]


def _cluster_bootstrap(items, cfg: BootstrapConfig) -> tuple[BootstrapResult, list, np.ndarray, np.ndarray]:
    """`cluster_bootstrap_auroc`, and the problems' candidate indices, the
    labels and the `residualize_within_problem` residuals it computed."""
    problems, scores, labels = _split(items)
    groups = _group_indices(problems)[1]
    if len(groups) < 2:
        raise DegenerateInputError("cluster bootstrap needs at least two problems")
    residual = _residuals(groups, scores)
    point = _auroc_from_arrays(residual, labels)
    arr, n_degenerate = _resample_aurocs(groups, scores, labels, cfg.seed, cfg.resamples)
    if arr.size == 0:
        raise DegenerateInputError("every bootstrap resample was single-class")
    alpha = (1.0 - cfg.confidence) / 2.0
    ci_low = float(np.quantile(arr, alpha, method="nearest"))
    ci_high = float(np.quantile(arr, 1.0 - alpha, method="nearest"))
    boot = BootstrapResult(
        point=point,
        ci_low=ci_low,
        ci_high=ci_high,
        n_resamples=int(arr.size),
        n_degenerate=n_degenerate,
        seed=cfg.seed,
        rng_id=RNG_ID,
    )
    return boot, groups, labels, residual


def score_report(score_name: str, items, cfg: BootstrapConfig) -> dict:
    """Full JSON-ready report for one uncertainty score over labeled candidates."""
    boot, groups, labels, residual = _cluster_bootstrap(items, cfg)
    n_pos = int(labels.sum())
    return {
        "score_name": score_name,
        "point_auroc": boot.point,
        "ci": [boot.ci_low, boot.ci_high],
        "auprc": _auprc_from_arrays(_finite(residual), labels),
        "n_pos": n_pos,
        "n_neg": int(labels.size - n_pos),
        "n_problems": len(groups),
        "n_degenerate": boot.n_degenerate,
        "seed": cfg.seed,
        "rng_id": boot.rng_id,
    }
