"""Branch-viability probing: candidate selection, child viability, and labels.

Given a correct greedy rollout (the *spine*) and teacher distributions scored
along it, the probe:

1. filters spine positions where the teacher's second-favorite valid token is
   genuinely plausible (p2 >= p2_min and p2/p1 >= ratio_min, both inclusive);
2. selects up to max_candidates positions greedily by descending truncated
   entropy, skipping any position within `spacing` tokens of one already
   selected (ties break toward the earlier position);
3. records each candidate's top valid child tokens by teacher probability;
4. after forced continuations are run elsewhere, labels the candidate from
   its children's empirical viability:

   * diversity      -- at least min_high_children children reach viability
                       >= v_high (several alternatives genuinely work);
   * real_uncertain -- every child sits below v_low and so does the mean
                       (the teacher's local alternatives all fail);
   * gray           -- anything else (excluded from downstream scoring).

Position scores: a candidate at zero-based spine position s of an L-token
spine has normalized position (s + 0.5) / L; the *oriented* score is one
minus that, so earlier positions score higher (aligned with "early tokens are
the unreliable ones").
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .dists import as_rows, prefix_entropies
from .errors import DegenerateInputError, InvalidInputError


class Label(str, Enum):
    DIVERSITY = "diversity"
    REAL_UNCERTAIN = "real_uncertain"
    GRAY = "gray"


@dataclass(frozen=True)
class FilterConfig:
    """Plausibility and spacing filters for candidate selection."""

    p2_min: float = 0.02  # second-choice probability floor (inclusive)
    ratio_min: float = 0.10  # p2 / p1 floor (inclusive)
    spacing: int = 64  # minimum token distance between selected candidates
    max_candidates: int = 5  # per problem
    top_m: int = 16  # entropy truncation width
    top_children: int = 3  # children recorded per candidate

    def __post_init__(self) -> None:
        if not (0.0 < self.p2_min < 1.0):
            raise InvalidInputError(f"p2_min must lie in (0, 1), got {self.p2_min!r}")
        if not (0.0 < self.ratio_min <= 1.0):
            raise InvalidInputError(f"ratio_min must lie in (0, 1], got {self.ratio_min!r}")
        if self.spacing < 1:
            raise InvalidInputError(f"spacing must be >= 1, got {self.spacing}")
        if self.max_candidates < 1:
            raise InvalidInputError(f"max_candidates must be >= 1, got {self.max_candidates}")
        if self.top_m < 2:
            raise InvalidInputError(f"top_m must be >= 2, got {self.top_m}")
        if self.top_children < 1:
            raise InvalidInputError(f"top_children must be >= 1, got {self.top_children}")


@dataclass(frozen=True)
class LabelThresholds:
    v_high: float = 0.75  # child viability needed to count as "works"
    v_low: float = 0.40  # ceiling for the real-uncertain label
    min_high_children: int = 2

    def __post_init__(self) -> None:
        if not (0.0 <= self.v_low <= self.v_high <= 1.0):
            raise InvalidInputError(
                f"need 0 <= v_low <= v_high <= 1, got v_low={self.v_low!r} v_high={self.v_high!r}"
            )
        if self.min_high_children < 1:
            raise InvalidInputError(
                f"min_high_children must be >= 1, got {self.min_high_children}"
            )


@dataclass
class CandidateRecord:
    """One probed spine position; viability fields fill in after Phase E."""

    problem_id: str
    spine_pos: int  # zero-based position on the spine
    normalized_position: float
    oriented_score: float
    truncated_entropy: float
    children: list[tuple[int, float]]  # (token, teacher probability), best first
    child_viabilities: list[float] | None = None
    label: Label | None = None
    scores: dict[str, float] = field(default_factory=dict)
    ground_truth_reliable: bool | None = None

    def to_json_dict(self) -> dict:
        return {
            "problem_id": self.problem_id,
            "spine_pos": self.spine_pos,
            "normalized_position": self.normalized_position,
            "oriented_score": self.oriented_score,
            "h_trunc": self.truncated_entropy,
            "children": [{"token": int(t), "prob": float(p)} for t, p in self.children],
            "viabilities": self.child_viabilities,
            "label": self.label.value if self.label is not None else None,
            "scores": self.scores,
            "ground_truth_reliable": self.ground_truth_reliable,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "CandidateRecord":
        try:
            children = [(int(c["token"]), float(c["prob"])) for c in d.get("children", [])]
            rec = CandidateRecord(
                problem_id=str(d["problem_id"]),
                spine_pos=int(d["spine_pos"]),
                normalized_position=float(d.get("normalized_position", 0.0)),
                oriented_score=float(d.get("oriented_score", 0.0)),
                truncated_entropy=float(d["h_trunc"]),
                children=children,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed candidate record: {exc}") from exc
        if d.get("viabilities") is not None:
            rec.child_viabilities = [float(v) for v in d["viabilities"]]
        if d.get("label") is not None:
            rec.label = Label(d["label"])
        rec.scores = {str(k): float(v) for k, v in (d.get("scores") or {}).items()}
        if d.get("ground_truth_reliable") is not None:
            rec.ground_truth_reliable = bool(d["ground_truth_reliable"])
        return rec


def position_scores(spine_pos: int, spine_length: int) -> tuple[float, float]:
    """(normalized position, oriented score) for a zero-based spine position."""
    if spine_length < 1:
        raise InvalidInputError(f"spine_length must be >= 1, got {spine_length}")
    if not (0 <= spine_pos < spine_length):
        raise InvalidInputError(
            f"spine_pos must satisfy 0 <= pos < {spine_length}, got {spine_pos}"
        )
    r = (spine_pos + 0.5) / spine_length
    return r, 1.0 - r


def select_candidates(
    problem_id: str,
    teacher_dists,
    valid_mask,
    cfg: FilterConfig,
    answer_position: int | None = None,
) -> list[CandidateRecord]:
    """Filter and select candidate positions along problem `problem_id`'s spine.

    `teacher_dists` is an (L, V) array of teacher rows aligned with the spine,
    L >= 1; `valid_mask` is a (V,) boolean vocabulary mask. Positions at or beyond
    `answer_position` (when given) are never candidates; every row before it
    must be a probability row (`dists.as_rows`). The output keeps
    selection order: descending truncated entropy, ties toward the earlier
    position.
    """
    dists = np.asarray(teacher_dists, dtype=float)
    if dists.ndim != 2 or dists.shape[0] < 1:
        raise InvalidInputError(f"teacher_dists must be (spine length >= 1, vocab), got {dists.shape}")
    L = dists.shape[0]
    mask = np.asarray(valid_mask, dtype=bool)
    if mask.shape != (dists.shape[1],):
        raise InvalidInputError(
            f"valid_mask shape {mask.shape} does not match vocab {dists.shape[1]}"
        )
    if not mask.any():
        raise DegenerateInputError("valid_mask excludes every token")
    limit = L if answer_position is None else min(L, answer_position)

    # each position's valid tokens ranked by one stable argsort, ties toward the lower index
    rows = np.where(mask, as_rows(dists[:limit], "teacher_dists"), 0.0)
    order = np.argsort(-rows, axis=1, kind="stable")
    ranked = np.take_along_axis(rows, order, axis=1)
    p1 = ranked[:, 0]
    p2 = ranked[:, 1] if ranked.shape[1] > 1 else np.zeros(limit)
    with np.errstate(divide="ignore", invalid="ignore"):
        keep = np.flatnonzero(~((p1 <= 0.0) | (p2 < cfg.p2_min) | (p2 / p1 < cfg.ratio_min)))
    # truncated entropy of each passing row: its top_m valid probabilities
    entropy = prefix_entropies(ranked[keep, : cfg.top_m])
    tc = cfg.top_children
    passing = [
        (h, pos, [(j, v) for j, v in zip(order[pos, :tc].tolist(), ranked[pos, :tc].tolist()) if v > 0.0])
        for h, pos in zip(entropy.tolist(), keep.tolist())
    ]

    passing.sort(key=lambda item: (-item[0], item[1]))
    selected: list[CandidateRecord] = []
    taken: list[int] = []
    for h, pos, children in passing:
        if len(selected) >= cfg.max_candidates:
            break
        if any(abs(pos - other) < cfg.spacing for other in taken):
            continue
        taken.append(pos)
        r, oriented = position_scores(pos, L)
        selected.append(
            CandidateRecord(
                problem_id=problem_id,
                spine_pos=pos,
                normalized_position=r,
                oriented_score=oriented,
                truncated_entropy=h,
                children=children,
            )
        )
    return selected


def child_viability(outcomes) -> float:
    """Fraction of successful forced continuations for one child."""
    arr = list(outcomes)
    if len(arr) == 0:
        raise DegenerateInputError("child viability needs at least one outcome")
    return float(sum(bool(o) for o in arr)) / len(arr)


def label_candidate(child_viabilities, thresholds: LabelThresholds) -> Label:
    """Diversity / real-uncertain / gray from the children's viability vector."""
    vs = [float(v) for v in child_viabilities]
    if len(vs) == 0:
        raise DegenerateInputError("cannot label a candidate with no children")
    if any(not (0.0 <= v <= 1.0) for v in vs):
        raise InvalidInputError(f"viabilities must lie in [0, 1], got {vs!r}")
    high = sum(v >= thresholds.v_high for v in vs)
    if high >= thresholds.min_high_children:
        return Label.DIVERSITY
    if all(v < thresholds.v_low for v in vs) and (sum(vs) / len(vs)) < thresholds.v_low:
        return Label.REAL_UNCERTAIN
    return Label.GRAY


def candidates_jsonl(records) -> str:
    """The records as `candidates.jsonl` text, one JSON object a line."""
    return "".join(json.dumps(rec.to_json_dict(), sort_keys=True) + "\n" for rec in records)
