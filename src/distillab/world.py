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

import dataclasses
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .dists import floored_log, softmax_with_temperature
from .errors import DegenerateInputError, InvalidInputError
from .seeding import TAG_ENSEMBLE, TAG_FORCE, TAG_PROBLEM, RawDraws, derive_rng, replayed
from .stats import BootstrapConfig, ScoredCandidate, score_report
from .uncertainty import score_ensemble
from .viability import (
    CandidateRecord,
    FilterConfig,
    Label,
    LabelThresholds,
    candidates_jsonl,
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
        return dataclasses.asdict(self)


@dataclass(eq=False)  # compared and hashed by identity: its fields hold arrays
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
    alts: np.ndarray  # (length-1, branch_count, 3) alternative tokens, -1 after a state's last
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

    @cached_property
    def next_lane(self) -> list[list[bytes | list[int]]]:
        """`next_lane[t][lane][token]`: the lane occupied after emitting `token`
        from layer t < length - 1 in `lane`. The canonical token keeps the
        lane, a DIVERSE state's two alternatives go to lanes z + 1 and z + 2
        (mod B), and every other token, like an UNRELIABLE state's three
        alternatives and every token from the dead lane, goes to the dead
        lane. Each state's row is a `bytes` object when every lane fits in a
        byte (under half the memory of a list), a list otherwise."""
        dead, V = self.dead_lane, self.cfg.vocab_size
        table = np.full((self.length - 1, dead + 1, V), dead)
        layer, lane = np.indices(self.canon.shape)
        table[layer, lane, self.canon] = lane
        t, z = np.nonzero(self.kind == DIVERSE)
        table[t, z, self.alts[t, z, 0]] = (z + 1) % dead
        table[t, z, self.alts[t, z, 1]] = (z + 2) % dead
        if dead >= 256:
            return table.tolist()
        data = table.astype(np.uint8).tobytes()
        rows = [data[i : i + V] for i in range(0, len(data), V)]
        return [rows[i : i + dead + 1] for i in range(0, len(rows), dead + 1)]

    def transition(self, t: int, lane: int, token: int) -> int:
        """Lane occupied after emitting `token` from layer t in `lane`; a token
        outside the vocabulary, like any non-child, enters the dead lane."""
        row = self.next_lane[t][lane]
        return row[token] if 0 <= token < len(row) else self.dead_lane

    def children(self, t: int, lane: int) -> list[int]:
        """Designated child tokens of a state (forcing any other is invalid)."""
        if t == self.answer_position:
            return [self.wrong_token if lane == self.dead_lane else self.gold_token]
        if lane == self.dead_lane:
            return [self.filler_token]
        return [int(self.canon[t, lane])] + [tok for tok in self.alts[t, lane].tolist() if tok >= 0]


@dataclass(frozen=True)
class Episode:
    """One walk through a problem to its answer: the token emitted at each
    layer and the lane occupied when it was emitted."""

    problem: ProblemInstance
    tokens: tuple[int, ...]
    lanes: tuple[int, ...]

    @property
    def answer(self) -> str:
        return str(self.tokens[-1])

    @property
    def correct(self) -> bool:
        return self.answer == self.problem.gold_answer

    def rows(self, table: np.ndarray) -> np.ndarray:
        """The visited rows of a (layer, lane, ...) table, in walk order."""
        first = self.problem.length - len(self.lanes)  # every walk ends at the answer
        return table[np.arange(first, self.problem.length), np.array(self.lanes)]


def walk(problem: ProblemInstance, start: int, lane: int, tokens: np.ndarray) -> Episode:
    """The one rollout loop: from layer `start` in `lane`, emit
    `tokens[t - start][lane]` at every layer to the answer, moving lanes by
    `problem.next_lane` after each layer but the answer's. `tokens` holds a
    token for every state of layers `start` on, as one table draw of
    `nucleus_sample` does."""
    rows = tokens.tolist()
    next_lane = problem.next_lane
    lanes = []
    for t, row in enumerate(rows[:-1], start):
        lanes.append(lane)
        lane = next_lane[t][lane][row[lane]]
    lanes.append(lane)
    return Episode(problem, tuple(map(list.__getitem__, rows, lanes)), tuple(lanes))


def generate_problem(cfg: WorldConfig, index: int) -> ProblemInstance:
    """Deterministically build problem `index` of the world. Its draws are
    `RawDraws` replays of the Generator calls a per-state body makes."""
    if index < 0:
        raise InvalidInputError(f"problem index must be non-negative, got {index}")
    rng = RawDraws(derive_rng(cfg.seed, TAG_PROBLEM, index))
    V = cfg.vocab_size
    B = cfg.branch_count
    dead = B
    length = rng.integers(max(4, cfg.depth // 2), cfg.depth + 1)
    gold = rng.integers(V)
    wrong = (gold + 1 + rng.integers(V - 1)) % V
    filler = rng.integers(V)

    kind = np.zeros((length - 1, B), dtype=np.int8)
    canon = []
    alts = np.full((length - 1, B, 3), -1)
    # per branch state: (layer, lane, kind, peak token, two half-mass tokens) and its ambiguity
    branch: list[tuple[int, ...]] = []
    ambs: list[float] = []
    others = [[tok for tok in range(V) if tok != c] for c in range(V)]

    for t in range(length - 1):
        r = (t + 0.5) / length
        dead_fraction = cfg.early_dead_fraction if r < EARLY_CUTOFF else cfg.late_dead_fraction
        for z in range(B):
            c = rng.integers(V)
            canon.append(c)
            if rng.random() < BRANCH_DENSITY:
                amb = cfg.ambiguity_mass * rng.uniform(*AMBIGUITY_JITTER)
                ambs.append(min(max(amb, 0.05), 1.0 - TEACHER_BACKGROUND - 0.05))  # np.clip costs 10 us a call
                if rng.random() < dead_fraction:
                    picks = rng.choice(others[c], 3)
                    branch.append((t, z, UNRELIABLE, *picks))
                else:
                    picks = rng.choice(others[c], 2)
                    branch.append((t, z, DIVERSE, c, *picks))

    # background rows concentrated on each state's top token; three array writes then redo branch states
    teacher_top, student_top = 1.0 - TEACHER_BACKGROUND, 1.0 - STUDENT_BACKGROUND
    teacher = np.full((length, B + 1, V), (1.0 - teacher_top) / (V - 1))
    student = np.full((length, B + 1, V), (1.0 - student_top) / (V - 1))
    canon = np.array(canon, dtype=np.int64).reshape(length - 1, B)
    # the concentrated token of each state: canonical in a viable lane, the
    # filler in the dead lane, and at the answer gold or (dead lane) wrong
    top = np.empty((length, B + 1), dtype=np.int64)
    top[:-1, :B], top[:-1, dead], top[-1, :B], top[-1, dead] = canon, filler, gold, wrong
    layer, lane = np.indices(top.shape)
    student[layer, lane, top] = student_top
    teacher[layer, lane, top] = teacher_top
    if branch:
        states, amb = np.array(branch), np.array(ambs)
        t, z, kinds, peak = states[:, :4].T
        kind[t, z] = kinds
        alts[t, z, :2] = states[:, 4:]  # a diverse state's alternatives: its two half-mass tokens
        unreliable = kinds == UNRELIABLE  # an unreliable state's: its peak, then those
        alts[t[unreliable], z[unreliable]] = states[unreliable, 3:]
        teacher[t, z] = TEACHER_BACKGROUND / (V - 3)
        teacher[t, z, peak] = 1.0 - amb - TEACHER_BACKGROUND
        teacher[t[:, None], z[:, None], states[:, 4:]] = (amb / 2.0)[:, None]
    teacher.flags.writeable = student.flags.writeable = False  # memos key a problem by identity

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


def nucleus_rows(p: np.ndarray, top_p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nucleus of each row of (n, V) probabilities, V columns wide: the
    token order, most probable first (a stable sort); the cumulative mass
    over the kept prefix (the smallest with mass >= top_p), renormalized, and
    set to inf at its last kept column; and each row's count of kept tokens.
    top_p = 1 keeps every token of positive mass. A row's values do not
    depend on the other rows, and the columns after its last kept one are
    never read (`nucleus_sample`)."""
    if not (0.0 < top_p <= 1.0):
        raise InvalidInputError(f"top_p must lie in (0, 1], got {top_p!r}")
    vocab = p.shape[-1]
    order = np.argsort(-p, axis=-1, kind="stable")
    ranked = np.take_along_axis(p, order, axis=-1)
    cut = np.minimum((np.cumsum(ranked, axis=-1) < top_p).sum(axis=-1) + 1, vocab)
    # a full nucleus renormalizes by the row's own sum; a shorter one alone
    cum = np.cumsum(ranked / ranked.sum(axis=-1, keepdims=True), axis=-1)
    for row in np.flatnonzero((cut > 1) & (cut < vocab)):
        kept = ranked[row, : cut[row]]
        cum[row, : cut[row]] = np.cumsum(kept / kept.sum())
    cum[np.arange(len(cut)), cut - 1] = np.inf
    return order, cum, cut


def nucleus_sample(rng: np.random.Generator, order: np.ndarray, cum: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw from nucleus rows (`nucleus_rows`): `order` is the
    flattened token order, `cum` the (..., K, W) cumulative rows and `starts`
    each row's (..., K) start in `order`. Returns the (..., K) tokens, drawn
    with `rng.random(cum.shape[:-2])`: the K rows at one leading index share
    one uniform `u`, and each takes the first column whose mass exceeds it. A
    walk that reads one row per layer therefore consumes the same uniforms,
    in the same order, as one row draw per layer would."""
    return order[starts + (cum > rng.random(cum.shape[:-2])[..., None, None]).argmax(axis=-1)]


@lru_cache(maxsize=1)  # `diagnose` probes one problem at a time
def _continuation_outcomes(problem: ProblemInstance) -> list[list[bool]]:
    """outcomes[t][lane]: whether the student, continued from layer t in
    `lane` at T = 1 and top_p = 0.95, reaches the gold answer. This rests on
    STUDENT_BACKGROUND < 1 - 0.95: every student row keeps one token, so one
    draw of the table (the problem's `TAG_FORCE` generator) is every
    continuation, and one backward pass gives each state its next state's
    outcome. The memo is keyed by the problem, whose arrays never change."""
    L, K, V = problem.student.shape
    order, cum, _ = nucleus_rows(problem.student.reshape(-1, V), 0.95)
    rng = derive_rng(problem.cfg.seed, TAG_FORCE, problem.index)
    rows = nucleus_sample(rng, order.reshape(-1), cum.reshape(L, K, V), np.arange(L * K).reshape(L, K) * V).tolist()
    outcomes = [[str(token) == problem.gold_answer for token in rows[-1]]]  # `Episode.correct`
    for t in range(problem.length - 2, -1, -1):
        after = outcomes[-1]
        outcomes.append([after[lanes[token]] for lanes, token in zip(problem.next_lane[t], rows[t])])
    return outcomes[::-1]


def student_rollout(problem: ProblemInstance) -> Episode:
    """The world student's greedy walk from the root; a tie goes to the lowest
    token index (`argmax` returns the first)."""
    return walk(problem, 0, 0, problem.student.argmax(axis=-1))


def forced_continuation(
    problem: ProblemInstance, spine: Episode, position: int, forced_token: int, attempts: int = 6
) -> list[bool]:
    """Force one child token at a spine position, then continue the student
    to the answer at T = 1, top_p = 0.95 `attempts` times; the outcome per
    attempt is terminal-answer correctness. Every kept nucleus of the world
    student is one token, so every attempt walks the same tokens and each
    reads its outcome from the problem's `_continuation_outcomes`."""
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
    after = problem.transition(position, lane, int(forced_token))
    return [_continuation_outcomes(problem)[position + 1][after]] * attempts


def teacher_ensemble(
    problems: list[ProblemInstance],
    positions: list[int],
    lanes: list[int],
    members: int = 5,
    perturb_scale: float = 0.1,
) -> np.ndarray:
    """Stochastic ensembles for C states, given as equal-length sequences of
    problems, positions and lanes: seeded logit-noise perturbations of each
    state's teacher distribution, one generator per (problem, position,
    member), returned as their (C, members, V) stack with one overflow check
    and one softmax. The generators' states are replayed in one pass
    (`seeding.replayed`), so each member's noise is numpy's own
    `standard_normal`. Zero perturbation returns exact copies. A scale whose
    logits, or their shift by the row max, overflow is refused."""
    if members < 2:
        raise InvalidInputError(f"members must be >= 2, got {members}")
    if perturb_scale < 0.0:
        raise InvalidInputError(f"perturb_scale must be >= 0, got {perturb_scale!r}")
    q = np.array([p.teacher[t, z] for p, t, z in zip(problems, positions, lanes, strict=True)])[:, None]
    if perturb_scale == 0.0:
        return np.repeat(q, members, axis=1)
    paths = [(p.cfg.seed, TAG_ENSEMBLE, p.index, t, m) for p, t in zip(problems, positions) for m in range(members)]
    noise = np.empty((len(paths), q.shape[-1]))
    for row, rng in zip(noise, replayed(paths)):
        rng.standard_normal(out=row)
    with np.errstate(over="ignore", invalid="ignore"):
        logits = floored_log(q) + perturb_scale * noise.reshape(len(q), members, -1)
        if not np.isfinite(logits - logits.max(axis=-1, keepdims=True)).all():
            raise InvalidInputError(f"perturb_scale {perturb_scale!r} overflows the ensemble logits")
    return softmax_with_temperature(logits, 1.0)


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
    continuations_per_child: int,
) -> tuple[dict, list[CandidateRecord], ProblemInstance, Episode]:
    """One problem's greedy spine record, its labelled candidates (none when
    the spine is wrong: the probe reads only correct spines), the problem
    and its spine. `_score_block` scores the candidates."""
    problem = generate_problem(cfg, index)
    trace = student_rollout(problem)
    spine_record = {
        "problem_id": problem.problem_id,
        "tokens": list(trace.tokens),
        "correct": trace.correct,
        "gold_answer": problem.gold_answer,
    }
    if not trace.correct:
        return spine_record, [], problem, trace
    valid_mask = np.ones(cfg.vocab_size, dtype=bool)  # every world token is valid
    candidates = select_candidates(
        problem.problem_id,
        trace.rows(problem.teacher),
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
        cand.ground_truth_reliable = int(problem.kind[cand.spine_pos, lane]) != UNRELIABLE
    return spine_record, candidates, problem, trace


def _score_block(probes: list, ensemble_members: int, perturb_scale: float) -> list[tuple[dict, list, str, str]]:
    """Score every candidate of a block of `_probe_problem` results as one
    (C, members, V) stack: one `teacher_ensemble` and one `score_ensemble`
    call. Returns per problem its spine record, its candidates, and their
    JSON lines as `diagnose` writes them."""
    block = [(problem, cand, trace.lanes[cand.spine_pos]) for _, cands, problem, trace in probes for cand in cands]
    if block:
        problems, cands, lanes = map(list, zip(*block))
        ensembles = teacher_ensemble(problems, [c.spine_pos for c in cands], lanes, ensemble_members, perturb_scale)
        for c, scores in zip(cands, score_ensemble(ensembles)):
            c.scores = {"oriented_position": c.oriented_score, "truncated_entropy": c.truncated_entropy, **scores}
    return [
        (spine, cands, json.dumps(spine, sort_keys=True) + "\n", candidates_jsonl(cands)) for spine, cands, *_ in probes
    ]


def run_diagnostic(
    cfg: WorldConfig,
    n_problems: int = 60,
    filter_cfg: FilterConfig | None = None,
    thresholds: LabelThresholds | None = None,
    bootstrap_cfg: BootstrapConfig | None = None,
    ensemble_members: int = 5,
    perturb_scale: float = 0.1,
    continuations_per_child: int = 6,
    on_samples: Callable[[str, str], None] | None = None,
    threads: int = 1,
) -> DiagnosticReport:
    """Full probe: greedy spines, candidate selection, forced continuations,
    labels, uncertainty scores, and residualized AUROC reports per score.
    Problems are dealt to up to `threads` processes (`workers.map_sharded`),
    each probing its problems one by one (`_probe_problem`) and then scoring
    their candidates and writing their JSON lines (`_score_block`). Results
    merge in problem order and the statistics run here, so the report does
    not depend on `threads`. `on_samples(candidates_jsonl, spines_jsonl)` gets
    the two files' text before any statistic, so a caller keeps them even
    when the statistics fail. `report.workers` is the processes used."""
    if n_problems < 2:
        raise InvalidInputError(f"n_problems must be >= 2, got {n_problems}")
    # the kernels' own refusals, made before any problem is probed
    if ensemble_members < 2:
        raise InvalidInputError(f"members must be >= 2, got {ensemble_members}")
    if perturb_scale < 0.0:
        raise InvalidInputError(f"perturb_scale must be >= 0, got {perturb_scale!r}")
    if not math.isfinite(perturb_scale):
        raise InvalidInputError(f"perturb_scale {perturb_scale!r} overflows the ensemble logits")
    if continuations_per_child < 1:
        raise InvalidInputError(f"attempts must be >= 1, got {continuations_per_child}")
    filter_cfg = filter_cfg or default_filter_for_depth(cfg.depth)
    thresholds = thresholds or LabelThresholds()
    bootstrap_cfg = bootstrap_cfg or BootstrapConfig(seed=cfg.seed)

    probes, workers = map_sharded(
        lambda index: _probe_problem(cfg, index, filter_cfg, thresholds, continuations_per_child),
        range(n_problems),
        threads,
        finish=lambda block: _score_block(block, ensemble_members, perturb_scale),
    )
    spines = [spine for spine, *_ in probes]
    all_candidates = [cand for _, candidates, *_ in probes for cand in candidates]
    n_correct = sum(1 for spine in spines if spine["correct"])

    if on_samples is not None:
        on_samples("".join(lines for *_, lines in probes), "".join(line for *_, line, _ in probes))
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

    # each candidate's bin by one search of the edges: lo <= r < hi, with r < 1
    edges = np.linspace(0.0, 1.0, 11)
    bins = np.searchsorted(edges, [c.normalized_position for c in all_candidates], side="right") - 1
    counts = np.bincount(bins, minlength=10).tolist()
    real = np.bincount(bins, [c.label is Label.REAL_UNCERTAIN for c in all_candidates], minlength=10).tolist()
    reliable = np.bincount(bins, [bool(c.ground_truth_reliable) for c in all_candidates], minlength=10).tolist()
    curve = [
        {
            "bin_low": float(lo),
            "bin_high": float(hi),
            "n": n,
            "real_uncertain_rate": r / n if n else None,
            "ground_truth_reliable_rate": g / n if n else None,
        }
        for lo, hi, n, r, g in zip(edges[:-1], edges[1:], counts, real, reliable)
    ]

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
            "filter": dataclasses.asdict(filter_cfg),
            "thresholds": dataclasses.asdict(thresholds),
            "bootstrap": dataclasses.asdict(bootstrap_cfg),
            "ensemble_members": ensemble_members,
            "perturb_scale": perturb_scale,
            "continuations_per_child": continuations_per_child,
        },
        workers=workers,
    )
