"""Synthetic branch-structured environment with planted positional unreliability.

Each problem is a layered DAG walked left to right for `length` steps
(`length` is drawn per problem between depth/2 and depth). The walker is
always in one of `branch_count` viable *lanes* or the absorbing *dead* lane.
At every reasoning layer a lane has a canonical continuation token; a layer
can also be a *branch state*, where the teacher sees salient alternatives:

* diverse branch state    -- the teacher spreads `ambiguity_mass` over two
  alternative tokens that hop to other viable lanes; every top child works;
* unreliable branch state -- the teacher (conditioned on privileged answer
  information) prefers three shortcut tokens that all enter the dead lane;
  the student's own canonical token sits below them in teacher probability.

Whether a branch state is unreliable is drawn from `early_dead_fraction` for
normalized positions below 0.4 and `late_dead_fraction` at or beyond it --
that is the planted position/reliability coupling. Both branch kinds get the
same teacher probability *shape* (ambiguity mass jittered identically), so
teacher entropy carries no position or reliability information by
construction.

The dead lane runs forward to the final layer and emits a wrong answer, so
any continuation that enters it scores 0: dead subtrees have viability
exactly 0. The final layer emits the answer token (gold in viable lanes).
The student policy concentrates on the canonical token everywhere, which
keeps greedy rollouts correct and makes nucleus continuations deterministic.
"""
from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .dists import PROB_FLOOR, softmax_with_temperature
from .errors import DegenerateInputError, InvalidInputError
from .seeding import derive_rng
from .stats import BootstrapConfig, ScoredCandidate, score_report
from .uncertainty import score_ensemble
from .viability import (
    CandidateRecord,
    FilterConfig,
    Label,
    LabelThresholds,
    Spine,
    child_viability,
    label_candidate,
    select_candidates,
)
from .workers import map_sharded

# fractions of layer positions below/above which the planted dead fractions apply
EARLY_CUTOFF = 0.4
# probability that a reasoning layer is a branch state at all
BRANCH_DENSITY = 0.6
# teacher / student background probability mass spread over non-salient tokens
TEACHER_BACKGROUND = 0.02
STUDENT_BACKGROUND = 0.03
# multiplicative jitter on the ambiguity mass, position-independent by design
AMBIGUITY_JITTER = (0.85, 1.15)

# phase tags for seed derivation
_TAG_PROBLEM = 0
_TAG_ROLLOUT = 1
_TAG_FORCE = 2
_TAG_ENSEMBLE = 3

PLAIN, DIVERSE, UNRELIABLE = 0, 1, 2


@dataclass(frozen=True)
class WorldConfig:
    vocab_size: int = 12
    depth: int = 48  # maximum tokens per episode (length is drawn per problem)
    branch_count: int = 3
    early_dead_fraction: float = 0.7
    late_dead_fraction: float = 0.05
    ambiguity_mass: float = 0.45
    seed: int = 0

    def __post_init__(self) -> None:
        if self.vocab_size < 4:
            raise InvalidInputError(f"vocab_size must be >= 4, got {self.vocab_size}")
        if self.depth < 4:
            raise InvalidInputError(f"depth must be >= 4, got {self.depth}")
        if self.branch_count < 1:
            raise InvalidInputError(f"branch_count must be >= 1, got {self.branch_count}")
        for name in ("early_dead_fraction", "late_dead_fraction"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise InvalidInputError(f"{name} must lie in [0, 1], got {v!r}")
        if not (0.0 < self.ambiguity_mass < 1.0 - TEACHER_BACKGROUND):
            raise InvalidInputError(
                f"ambiguity_mass must lie in (0, {1.0 - TEACHER_BACKGROUND}), got {self.ambiguity_mass!r}"
            )
        if self.seed < 0:
            raise InvalidInputError(f"seed must be non-negative, got {self.seed}")

    def as_dict(self) -> dict:
        return {
            "vocab_size": self.vocab_size,
            "depth": self.depth,
            "branch_count": self.branch_count,
            "early_dead_fraction": self.early_dead_fraction,
            "late_dead_fraction": self.late_dead_fraction,
            "ambiguity_mass": self.ambiguity_mass,
            "seed": self.seed,
        }


@dataclass
class ProblemInstance:
    problem_id: str
    index: int
    cfg: WorldConfig
    length: int  # layers including the final answer emission
    gold_token: int
    wrong_token: int
    filler_token: int
    kind: np.ndarray  # (length-1, branch_count) in {PLAIN, DIVERSE, UNRELIABLE}
    canon: np.ndarray  # (length-1, branch_count) canonical tokens
    alts: list  # [t][lane] -> tuple of (token, target_lane)
    teacher: np.ndarray  # (length, branch_count+1, vocab)
    student: np.ndarray  # (length, branch_count+1, vocab)

    @property
    def dead_lane(self) -> int:
        return self.cfg.branch_count

    @property
    def answer_position(self) -> int:
        return self.length - 1

    @property
    def gold_answer(self) -> str:
        return str(self.gold_token)

    def transition(self, t: int, lane: int, token: int) -> int:
        """Lane occupied after emitting `token` from layer t in `lane`."""
        if lane == self.dead_lane:
            return self.dead_lane
        if token == self.canon[t, lane]:
            return lane
        for tok, target in self.alts[t][lane]:
            if token == tok:
                return target
        return self.dead_lane

    def children(self, t: int, lane: int) -> list[int]:
        """Designated child tokens of a state (forcing any other is invalid)."""
        if t == self.answer_position:
            return [self.wrong_token if lane == self.dead_lane else self.gold_token]
        if lane == self.dead_lane:
            return [self.filler_token]
        return [int(self.canon[t, lane])] + [int(tok) for tok, _ in self.alts[t][lane]]

    def child_viable(self, t: int, lane: int, token: int) -> bool:
        """Ground truth: can the gold answer still be reached after this child?"""
        if t == self.answer_position:
            return lane != self.dead_lane and token == self.gold_token
        return self.transition(t, lane, token) != self.dead_lane


@dataclass(frozen=True)
class EpisodeTrace:
    problem_id: str
    tokens: tuple[int, ...]
    lanes: tuple[int, ...]  # lane occupied when each token was emitted
    teacher_dists: np.ndarray  # (length, vocab)
    student_dists: np.ndarray  # (length, vocab)
    answer: str
    correct: bool

    @property
    def length(self) -> int:
        return len(self.tokens)


def _concentrated(vocab: int, token: int, top_mass: float) -> np.ndarray:
    p = np.full(vocab, (1.0 - top_mass) / (vocab - 1))
    p[token] = top_mass
    return p


def generate_problem(cfg: WorldConfig, index: int) -> ProblemInstance:
    """Deterministically build problem `index` of the world."""
    if index < 0:
        raise InvalidInputError(f"problem index must be non-negative, got {index}")
    rng = derive_rng(cfg.seed, _TAG_PROBLEM, index)
    V = cfg.vocab_size
    B = cfg.branch_count
    dead = B
    length = int(rng.integers(max(4, cfg.depth // 2), cfg.depth + 1))
    gold = int(rng.integers(V))
    wrong = int((gold + 1 + rng.integers(V - 1)) % V)
    filler = int(rng.integers(V))

    kind = np.zeros((length - 1, B), dtype=np.int8)
    canon = np.zeros((length - 1, B), dtype=np.int64)
    alts: list[list[tuple[tuple[int, int], ...]]] = []
    teacher = np.zeros((length, B + 1, V))
    student = np.zeros((length, B + 1, V))

    for t in range(length - 1):
        r = (t + 0.5) / length
        dead_fraction = cfg.early_dead_fraction if r < EARLY_CUTOFF else cfg.late_dead_fraction
        row_alts: list[tuple[tuple[int, int], ...]] = []
        for z in range(B):
            c = int(rng.integers(V))
            canon[t, z] = c
            others = np.array([tok for tok in range(V) if tok != c])
            state_alts: tuple[tuple[int, int], ...] = ()
            if rng.random() < BRANCH_DENSITY:
                amb = cfg.ambiguity_mass * rng.uniform(*AMBIGUITY_JITTER)
                amb = float(np.clip(amb, 0.05, 1.0 - TEACHER_BACKGROUND - 0.05))
                unreliable = rng.random() < dead_fraction
                if unreliable:
                    kind[t, z] = UNRELIABLE
                    picks = rng.choice(others, size=3, replace=False)
                    state_alts = tuple((int(tok), dead) for tok in picks)
                    q = np.full(V, TEACHER_BACKGROUND / (V - 3))
                    q[picks[0]] = 1.0 - amb - TEACHER_BACKGROUND
                    q[picks[1]] = amb / 2.0
                    q[picks[2]] = amb / 2.0
                else:
                    kind[t, z] = DIVERSE
                    picks = rng.choice(others, size=2, replace=False)
                    state_alts = tuple(
                        (int(tok), (z + 1 + j) % B) for j, tok in enumerate(picks)
                    )
                    q = np.full(V, TEACHER_BACKGROUND / (V - 3))
                    q[c] = 1.0 - amb - TEACHER_BACKGROUND
                    q[picks[0]] = amb / 2.0
                    q[picks[1]] = amb / 2.0
            else:
                q = _concentrated(V, c, 1.0 - TEACHER_BACKGROUND)
            teacher[t, z] = q
            student[t, z] = _concentrated(V, c, 1.0 - STUDENT_BACKGROUND)
            row_alts.append(state_alts)
        alts.append(row_alts)
        teacher[t, dead] = _concentrated(V, filler, 1.0 - TEACHER_BACKGROUND)
        student[t, dead] = _concentrated(V, filler, 1.0 - STUDENT_BACKGROUND)

    final = length - 1
    for z in range(B):
        teacher[final, z] = _concentrated(V, gold, 1.0 - TEACHER_BACKGROUND)
        student[final, z] = _concentrated(V, gold, 1.0 - STUDENT_BACKGROUND)
    teacher[final, dead] = _concentrated(V, wrong, 1.0 - TEACHER_BACKGROUND)
    student[final, dead] = _concentrated(V, wrong, 1.0 - STUDENT_BACKGROUND)

    return ProblemInstance(
        problem_id=f"p{index:04d}",
        index=index,
        cfg=cfg,
        length=length,
        gold_token=gold,
        wrong_token=wrong,
        filler_token=filler,
        kind=kind,
        canon=canon,
        alts=alts,
        teacher=teacher,
        student=student,
    )


def nucleus_sample(rng: np.random.Generator, probs: np.ndarray, temperature: float, top_p: float) -> int:
    """Temperature rescale, keep the smallest descending-probability prefix with
    mass >= top_p, renormalize, draw. top_p = 1 is plain categorical sampling.

    The prefix (kept tokens and their cumulative mass) is memoised by the row's
    bytes, temperature and top_p in a least-recently-used memo of
    `_NUCLEUS_MEMO_SIZE` entries, so a draw from a row already seen costs one
    `rng.random()` and one bisection. The memo is exact: the same bytes go
    through the same computation, and a row changed in place has new bytes,
    so it can never serve a stale prefix."""
    if not (0.0 < top_p <= 1.0):
        raise InvalidInputError(f"top_p must lie in (0, 1], got {top_p!r}")
    if temperature != 1.0 and temperature <= 0.0:
        raise InvalidInputError(f"temperature must be positive, got {temperature!r}")
    kept, cum = _nucleus_prefix(np.asarray(probs, dtype=float).tobytes(), temperature, top_p)
    return kept[min(bisect_right(cum, rng.random()), len(kept) - 1)]


_NUCLEUS_MEMO_SIZE = 256


@lru_cache(maxsize=_NUCLEUS_MEMO_SIZE)
def _nucleus_prefix(
    row: bytes, temperature: float, top_p: float
) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Kept tokens of a row's nucleus, most probable first, and the cumulative
    renormalized mass over them."""
    p = np.frombuffer(row)
    if temperature != 1.0:
        scaled = np.where(p > 0.0, np.exp(np.log(np.maximum(p, PROB_FLOOR)) / temperature), 0.0)
        p = scaled / scaled.sum()
    order = np.argsort(-p, kind="stable")
    cum = np.cumsum(p[order])
    cut = int(np.searchsorted(cum, top_p, side="left")) + 1
    kept = order[:cut]
    kp = p[kept]
    kp = kp / kp.sum()
    return tuple(kept.tolist()), tuple(np.cumsum(kp).tolist())


def _trace(problem: ProblemInstance, tokens: list[int], lanes: list[int]) -> EpisodeTrace:
    t_rows = np.array([problem.teacher[t, lane] for t, lane in enumerate(lanes)])
    s_rows = np.array([problem.student[t, lane] for t, lane in enumerate(lanes)])
    answer = str(tokens[-1])
    return EpisodeTrace(
        problem_id=problem.problem_id,
        tokens=tuple(tokens),
        lanes=tuple(lanes),
        teacher_dists=t_rows,
        student_dists=s_rows,
        answer=answer,
        correct=answer == problem.gold_answer,
    )


def student_rollout(
    problem: ProblemInstance,
    mode: str = "greedy",
    attempt: int = 0,
    temperature: float = 1.0,
    top_p: float = 0.95,
) -> EpisodeTrace:
    """Roll the world student policy from the root. Greedy breaks ties toward
    the lowest token index; sampling is nucleus sampling with the given
    temperature and top_p, seeded by (world seed, problem index, attempt)."""
    if mode not in ("greedy", "sample"):
        raise InvalidInputError(f"mode must be 'greedy' or 'sample', got {mode!r}")
    rng = None
    if mode == "sample":
        rng = derive_rng(problem.cfg.seed, _TAG_ROLLOUT, problem.index, attempt)
    lane = 0
    tokens: list[int] = []
    lanes: list[int] = []
    for t in range(problem.length):
        p = problem.student[t, lane]
        if mode == "greedy":
            token = int(np.argmax(p))  # argmax returns the lowest tied index
        else:
            token = nucleus_sample(rng, p, temperature, top_p)
        tokens.append(token)
        lanes.append(lane)
        if t < problem.length - 1:
            lane = problem.transition(t, lane, token)
    return _trace(problem, tokens, lanes)


def forced_continuation(
    problem: ProblemInstance,
    spine: EpisodeTrace,
    position: int,
    forced_token: int,
    attempts: int = 6,
    temperature: float = 1.0,
    top_p: float = 0.95,
) -> list[bool]:
    """Force one child token at a spine position, then sample the student to the
    end `attempts` times; outcome per attempt is terminal-answer correctness."""
    if not (0 <= position < problem.length - 1):
        raise InvalidInputError(
            f"position must lie in [0, {problem.length - 2}], got {position}"
        )
    if attempts < 1:
        raise InvalidInputError(f"attempts must be >= 1, got {attempts}")
    lane = spine.lanes[position]
    if forced_token not in problem.children(position, lane):
        raise InvalidInputError(
            f"token {forced_token} is not a child of layer {position} lane {lane}"
        )
    outcomes = []
    for a in range(attempts):
        rng = derive_rng(
            problem.cfg.seed, _TAG_FORCE, problem.index, position, int(forced_token), a
        )
        lane_now = problem.transition(position, lane, int(forced_token))
        token = None
        for t in range(position + 1, problem.length):
            token = nucleus_sample(rng, problem.student[t, lane_now], temperature, top_p)
            if t < problem.length - 1:
                lane_now = problem.transition(t, lane_now, token)
        outcomes.append(str(token) == problem.gold_answer)
    return outcomes


def teacher_ensemble(
    problem: ProblemInstance,
    position: int,
    lane: int,
    members: int = 5,
    perturb_scale: float = 0.1,
) -> np.ndarray:
    """Stochastic ensemble for a state: seeded logit-noise perturbations of the
    teacher distribution. Zero perturbation returns exact copies."""
    if members < 2:
        raise InvalidInputError(f"members must be >= 2, got {members}")
    if perturb_scale < 0.0:
        raise InvalidInputError(f"perturb_scale must be >= 0, got {perturb_scale!r}")
    q = problem.teacher[position, lane]
    if perturb_scale == 0.0:
        return np.tile(q, (members, 1))
    rows = []
    for m in range(members):
        rng = derive_rng(problem.cfg.seed, _TAG_ENSEMBLE, problem.index, position, m)
        logits = np.log(np.maximum(q, PROB_FLOOR)) + perturb_scale * rng.standard_normal(q.size)
        rows.append(softmax_with_temperature(logits, 1.0))
    return np.array(rows)


SCORE_NAMES = (
    "oriented_position",
    "truncated_entropy",
    "mean_entropy",
    "mutual_information",
    "log_kappa",
)


@dataclass
class DiagnosticReport:
    world: dict
    n_problems: int
    n_correct_spines: int
    label_counts: dict
    candidates: list[CandidateRecord]
    spines: list[dict]
    reports: dict
    position_curve: list[dict]
    params: dict = field(default_factory=dict)
    workers: int = field(default=1, compare=False)  # processes that probed


def default_filter_for_depth(depth: int) -> FilterConfig:
    """Candidate filter with spacing scaled to the world's episode depth.

    The reference spacing (64 tokens) assumes traces orders of magnitude
    longer than this world's episodes; scaled spacing keeps several candidates
    per problem so within-problem residualization stays informative.
    """
    return FilterConfig(spacing=max(1, depth // 16))


def _probe_problem(
    cfg: WorldConfig,
    index: int,
    filter_cfg: FilterConfig,
    thresholds: LabelThresholds,
    ensemble_members: int,
    perturb_scale: float,
    continuations_per_child: int,
) -> tuple[dict, list[CandidateRecord]]:
    """One problem's greedy spine record and its labelled, scored candidates
    (none when the spine is wrong: the probe reads only correct spines)."""
    problem = generate_problem(cfg, index)
    trace = student_rollout(problem, mode="greedy")
    spine_record = {
        "problem_id": problem.problem_id,
        "tokens": list(trace.tokens),
        "correct": trace.correct,
        "gold_answer": problem.gold_answer,
    }
    if not trace.correct:
        return spine_record, []
    spine = Spine(
        problem_id=problem.problem_id,
        tokens=trace.tokens,
        gold_answer=problem.gold_answer,
        correct=True,
    )
    valid_mask = np.ones(cfg.vocab_size, dtype=bool)  # every world token is valid
    candidates = select_candidates(
        spine,
        trace.teacher_dists,
        valid_mask,
        filter_cfg,
        answer_position=problem.answer_position,
    )
    for cand in candidates:
        lane = trace.lanes[cand.spine_pos]
        viabilities = []
        for token, _prob in cand.children:
            outcomes = forced_continuation(
                problem,
                trace,
                cand.spine_pos,
                token,
                attempts=continuations_per_child,
            )
            viabilities.append(child_viability(outcomes))
        cand.child_viabilities = viabilities
        cand.label = label_candidate(viabilities, thresholds)
        ensemble = teacher_ensemble(
            problem, cand.spine_pos, lane, ensemble_members, perturb_scale
        )
        record = score_ensemble(ensemble, cand.truncated_entropy)
        cand.scores = {
            "oriented_position": cand.oriented_score,
            **record.as_dict(),
        }
        state_kind = int(problem.kind[cand.spine_pos, lane])
        cand.ground_truth_reliable = state_kind != UNRELIABLE
    return spine_record, candidates


def run_diagnostic(
    cfg: WorldConfig,
    n_problems: int = 60,
    filter_cfg: FilterConfig | None = None,
    thresholds: LabelThresholds | None = None,
    bootstrap_cfg: BootstrapConfig | None = None,
    ensemble_members: int = 5,
    perturb_scale: float = 0.1,
    continuations_per_child: int = 6,
    on_samples: Callable[[list[CandidateRecord], list[dict]], None] | None = None,
    threads: int = 1,
) -> DiagnosticReport:
    """Full probe: greedy spines, candidate selection, forced continuations,
    labels, uncertainty scores, and residualized AUROC reports per score.
    `on_samples(candidates, spines)` runs before any statistic, so a caller
    keeps the sampled data even when the statistics then fail. Problems are
    probed on up to `threads` processes (`workers.map_sharded`) and merged in
    problem order; the statistics run in this process, so the report does
    not depend on `threads`. `report.workers` is the number of processes used."""
    if n_problems < 2:
        raise InvalidInputError(f"n_problems must be >= 2, got {n_problems}")
    filter_cfg = filter_cfg or default_filter_for_depth(cfg.depth)
    thresholds = thresholds or LabelThresholds()
    bootstrap_cfg = bootstrap_cfg or BootstrapConfig(seed=cfg.seed)

    probes, workers = map_sharded(
        lambda index: _probe_problem(
            cfg,
            index,
            filter_cfg,
            thresholds,
            ensemble_members,
            perturb_scale,
            continuations_per_child,
        ),
        range(n_problems),
        threads,
    )
    spines = [spine for spine, _ in probes]
    all_candidates = [cand for _, candidates in probes for cand in candidates]
    n_correct = sum(1 for spine in spines if spine["correct"])

    if on_samples is not None:
        on_samples(all_candidates, spines)
    if not all_candidates:
        raise DegenerateInputError("diagnostic produced no candidates")

    label_counts = {label.value: 0 for label in Label}
    for cand in all_candidates:
        label_counts[cand.label.value] += 1

    reports = {}
    for name in SCORE_NAMES:
        items = [
            ScoredCandidate(c.problem_id, c.scores[name], c.label is Label.REAL_UNCERTAIN)
            for c in all_candidates
            if c.label is not Label.GRAY
        ]
        reports[name] = score_report(name, items, bootstrap_cfg)

    curve = []
    edges = np.linspace(0.0, 1.0, 11)
    for lo, hi in zip(edges[:-1], edges[1:]):
        in_bin = [
            c
            for c in all_candidates
            if lo <= c.normalized_position < hi
            or (hi == 1.0 and c.normalized_position == 1.0)
        ]
        row = {
            "bin_low": float(lo),
            "bin_high": float(hi),
            "n": len(in_bin),
            "real_uncertain_rate": (
                sum(c.label is Label.REAL_UNCERTAIN for c in in_bin) / len(in_bin)
                if in_bin
                else None
            ),
            "ground_truth_reliable_rate": (
                sum(bool(c.ground_truth_reliable) for c in in_bin) / len(in_bin)
                if in_bin
                else None
            ),
        }
        curve.append(row)

    return DiagnosticReport(
        world=cfg.as_dict(),
        n_problems=n_problems,
        n_correct_spines=n_correct,
        label_counts=label_counts,
        candidates=all_candidates,
        spines=spines,
        reports=reports,
        position_curve=curve,
        params={
            "filter": {
                "p2_min": filter_cfg.p2_min,
                "ratio_min": filter_cfg.ratio_min,
                "spacing": filter_cfg.spacing,
                "max_candidates": filter_cfg.max_candidates,
                "top_m": filter_cfg.top_m,
                "top_children": filter_cfg.top_children,
            },
            "thresholds": {
                "v_high": thresholds.v_high,
                "v_low": thresholds.v_low,
                "min_high_children": thresholds.min_high_children,
            },
            "bootstrap": {
                "resamples": bootstrap_cfg.resamples,
                "confidence": bootstrap_cfg.confidence,
                "seed": bootstrap_cfg.seed,
            },
            "ensemble_members": ensemble_members,
            "perturb_scale": perturb_scale,
            "continuations_per_child": continuations_per_child,
        },
        workers=workers,
    )
