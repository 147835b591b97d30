"""Multi-sample evaluation metrics: Avg@N, Pass@N, Maj@N.

Answers are extracted as the brace-balanced content of the *last* boxed
marker in a sample's text; anything unparseable becomes the INVALID key.
Samples are clustered under a caller-supplied equivalence predicate using
first-occurrence representatives: each sample joins the earliest cluster
whose representative it matches, else founds a new cluster. INVALID samples
always share the INVALID cluster and are never correct.

* Avg@N  -- mean per-sample correctness;
* Pass@N -- 1 if any sample is correct;
* Maj@N  -- correctness of the plurality cluster's representative, with ties
  broken toward the cluster whose first member appeared earliest; an INVALID
  plurality scores 0 (INVALID votes count, they just cannot win points).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateInputError, InvalidInputError

INVALID = "INVALID"

DEFAULT_MARKER = "\\boxed{"

# the ProblemMetrics fields every aggregate, spread and CSV reports, in order
METRIC_KEYS = ("avg_at_n", "pass_at_n", "maj_at_n")

EquivalencePredicate = Callable[[str, str], bool]


def normalize_answer(text: str) -> str:
    """Trim, collapse internal whitespace, casefold."""
    return " ".join(text.split()).casefold()


def default_equivalence(a: str, b: str) -> bool:
    """Whitespace- and case-normalized string equality."""
    return normalize_answer(a) == normalize_answer(b)


def extract_final_answer(text: str, marker: str = DEFAULT_MARKER) -> str:
    """Brace-balanced content of the last `marker` occurrence, else INVALID.

    The marker must end with the opening brace; scanning starts just past it
    with depth 1 and returns the content when the matching close brace is
    found. No occurrence, or unbalanced braces after the last occurrence,
    yields INVALID.
    """
    if not marker or not marker.endswith("{"):
        raise InvalidInputError(f"marker must end with '{{', got {marker!r}")
    start = text.rfind(marker)
    if start < 0:
        return INVALID
    depth = 1
    i = start + len(marker)
    while i < len(text):
        ch = text[i]
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return text[start + len(marker) : i]
        i += 1
    return INVALID


@dataclass(frozen=True)
class SampleGrade:
    answer: str  # extracted answer text, or INVALID
    cluster_key: str  # representative answer of the sample's cluster
    correct: bool


@dataclass(frozen=True)
class ProblemMetrics:
    avg_at_n: float
    pass_at_n: float
    maj_at_n: float
    n: int


def grade_and_cluster(
    sample_texts,
    gold_answer: str,
    eq: EquivalencePredicate = default_equivalence,
    marker: str = DEFAULT_MARKER,
) -> list[SampleGrade]:
    """Extract, grade against gold, and cluster each sample in order."""
    texts = list(sample_texts)
    if len(texts) == 0:
        raise DegenerateInputError("need at least one sample")
    representatives: list[str] = []  # non-INVALID cluster reps, creation order
    grades: list[SampleGrade] = []
    for text in texts:
        answer = extract_final_answer(str(text), marker)
        if answer == INVALID:
            grades.append(SampleGrade(answer=INVALID, cluster_key=INVALID, correct=False))
            continue
        key = None
        for rep in representatives:
            if eq(answer, rep):
                key = rep
                break
        if key is None:
            representatives.append(answer)
            key = answer
        grades.append(SampleGrade(answer=answer, cluster_key=key, correct=bool(eq(answer, gold_answer))))
    return grades


def problem_metrics(grades) -> ProblemMetrics:
    """Avg/Pass/Maj for one problem's graded samples."""
    gs = list(grades)
    if len(gs) == 0:
        raise DegenerateInputError("need at least one graded sample")
    n = len(gs)
    avg = sum(g.correct for g in gs) / n
    passed = 1.0 if any(g.correct for g in gs) else 0.0

    counts: dict[str, int] = {}
    first_seen: dict[str, int] = {}
    rep_correct: dict[str, bool] = {}
    for i, g in enumerate(gs):
        if g.cluster_key not in counts:
            counts[g.cluster_key] = 0
            first_seen[g.cluster_key] = i
            # the first member of a cluster is its representative
            rep_correct[g.cluster_key] = g.correct
        counts[g.cluster_key] += 1
    best = max(counts.values())
    winner = min(
        (k for k, c in counts.items() if c == best),
        key=lambda k: first_seen[k],
    )
    maj = 0.0
    if winner != INVALID and rep_correct[winner]:
        maj = 1.0
    return ProblemMetrics(avg_at_n=avg, pass_at_n=passed, maj_at_n=maj, n=n)


def score_problem(
    sample_texts,
    gold_answer: str,
    eq: EquivalencePredicate = default_equivalence,
    marker: str = DEFAULT_MARKER,
) -> ProblemMetrics:
    """grade_and_cluster + problem_metrics in one call."""
    return problem_metrics(grade_and_cluster(sample_texts, gold_answer, eq, marker))


def aggregate_metrics(per_problem: list[ProblemMetrics]) -> dict[str, float]:
    """Mean of each metric over problems."""
    if len(per_problem) == 0:
        raise DegenerateInputError("no problems to aggregate")
    return {key: float(np.mean([getattr(m, key) for m in per_problem])) for key in METRIC_KEYS}


def seed_spread(per_seed_aggregates: list[dict[str, float]]) -> dict[str, tuple[float, float]]:
    """Mean and sample (n-1) standard deviation of each metric across seed runs."""
    if len(per_seed_aggregates) == 0:
        raise DegenerateInputError("no seed runs to spread")
    out: dict[str, tuple[float, float]] = {}
    for key in METRIC_KEYS:
        vals = np.array([agg[key] for agg in per_seed_aggregates], dtype=float)
        sd = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        out[key] = (float(vals.mean()), sd)
    return out
