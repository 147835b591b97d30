"""Distillation objectives over batches of scored rollouts.

The base objective is an element-clipped forward KL: for teacher distribution
q and student distribution p at one token,

    loss(token) = sum_j min(q_j ln(q_j / p_j), clip_threshold)

with clipping applied per vocabulary entry *before* the sum, so a token's
loss may be negative. Student distributions come from
softmax(logits / distill_temperature); teacher rows arrive as distributions
(already temperature-scaled upstream).

Weighting modes:

* uniform           -- every token weighs 1;
* position schedule -- sigmoid weight of the token's position fraction;
* entropy gate      -- weight 1, but tokens whose teacher entropy is at or
  below the gate threshold use reverse KL instead of clipped forward KL.

Reductions:

* global token mean    -- sum of weighted token losses / total token count;
* per-sequence mean    -- mean over sequences of (weighted sum / length).

The analytic gradient with respect to student logits treats the teacher as a
constant. A vocabulary entry exactly at the clip boundary is treated as
clipped (zero pull from that entry). The loss, the gradient and the
finite-difference check read one memoised pass over a batch (`RolloutBatch`,
its one constructor), whose arrays are read-only once it is built; none
hands out an array of that pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .dists import as_rows, fkl_terms, floored_log, row_entropies, softmax_with_temperature
from .errors import InvalidInputError
from .schedules import PositionSchedule, weights_for_length


@dataclass(frozen=True)
class ObjectiveConfig:
    distill_temperature: float = 1.1
    clip_threshold: float = 0.05

    def __post_init__(self) -> None:
        if not np.isfinite(self.distill_temperature) or self.distill_temperature <= 0.0:
            raise InvalidInputError(
                f"distill_temperature must be positive, got {self.distill_temperature!r}"
            )
        if not np.isfinite(self.clip_threshold) or self.clip_threshold <= 0.0:
            raise InvalidInputError(
                f"clip_threshold must be positive, got {self.clip_threshold!r}"
            )


class Reduction(str, Enum):
    GLOBAL_TOKEN_MEAN = "global_token_mean"
    PER_SEQUENCE_MEAN = "per_sequence_mean"


@dataclass(frozen=True)
class UniformWeighting:
    pass


@dataclass(frozen=True)
class PositionWeighting:
    schedule: PositionSchedule


@dataclass(frozen=True)
class EntropyGateWeighting:
    """Forward KL where the teacher is uncertain, reverse KL where it is confident."""

    gate_threshold: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.gate_threshold) or self.gate_threshold < 0.0:
            raise InvalidInputError(
                f"gate_threshold must be a non-negative real, got {self.gate_threshold!r}"
            )


Weighting = UniformWeighting | PositionWeighting | EntropyGateWeighting


def default_gate_threshold(vocab_size: int) -> float:
    """Half the maximum possible teacher entropy, ln(vocab)/2."""
    if vocab_size < 2:
        raise InvalidInputError(f"vocab_size must be >= 2, got {vocab_size}")
    return math.log(vocab_size) / 2.0


class RolloutBatch:
    """Ragged batch of (teacher distribution rows, student logit rows) pairs,
    packed: `teacher` and `student` are read-only (N_tokens, vocab) arrays,
    and sequence i is their rows offsets[i]:offsets[i+1]. Values are checked
    on the packed rows; a refusal names the first bad sequence."""

    def __init__(self, teacher_dists, student_logits):
        if len(teacher_dists) != len(student_logits):
            raise InvalidInputError(
                f"{len(teacher_dists)} teacher sequences vs {len(student_logits)} student sequences"
            )
        if len(teacher_dists) == 0:
            raise InvalidInputError("batch must contain at least one sequence")
        teacher: list[np.ndarray] = []
        student: list[np.ndarray] = []
        for i, (q, z) in enumerate(zip(teacher_dists, student_logits)):
            qa = np.asarray(q, dtype=float)
            za = np.asarray(z, dtype=float)
            if qa.ndim != 2 or za.ndim != 2:
                raise InvalidInputError(f"sequence {i}: rows must be 2-D (length, vocab)")
            if qa.shape != za.shape:
                raise InvalidInputError(
                    f"sequence {i}: teacher shape {qa.shape} != student shape {za.shape}"
                )
            if qa.shape[0] < 1:
                raise InvalidInputError(f"sequence {i} is empty")
            if qa.shape[1] < 2:
                raise InvalidInputError(f"sequence {i}: vocab must be >= 2")
            if teacher and qa.shape[1] != teacher[0].shape[1]:
                raise InvalidInputError("all sequences must share one vocabulary size")
            teacher.append(qa)
            student.append(za)
        self.teacher: np.ndarray = np.concatenate(teacher)
        self.student: np.ndarray = np.concatenate(student)
        try:
            if not np.isfinite(self.student).all():
                raise InvalidInputError("non-finite student logits")
            as_rows(self.teacher)
        except InvalidInputError:  # refused: name the first bad sequence
            for i, (qa, za) in enumerate(zip(teacher, student)):
                if not np.isfinite(za).all():
                    raise InvalidInputError(f"sequence {i}: student logits contain non-finite entries")
                as_rows(qa, f"teacher_dists[{i}]")
        self.teacher.flags.writeable = self.student.flags.writeable = False
        self.lengths: list[int] = [q.shape[0] for q in teacher]
        self.offsets: np.ndarray = np.cumsum([0, *self.lengths])

    def split(self, packed: np.ndarray) -> list[np.ndarray]:
        """Per-sequence views of an array whose rows are the batch's tokens."""
        return [packed[a:b] for a, b in zip(self.offsets[:-1], self.offsets[1:])]

    @property
    def total_tokens(self) -> int:
        return self.teacher.shape[0]

    def __len__(self) -> int:
        return len(self.lengths)


def token_weights(batch: RolloutBatch, weighting: Weighting) -> np.ndarray:
    """Per-token scalar weights, packed (N_tokens,) (entropy gating weighs 1)."""
    if isinstance(weighting, PositionWeighting):
        return np.concatenate([weights_for_length(L, weighting.schedule) for L in batch.lengths])
    return np.ones(batch.total_tokens)


class _Objective(NamedTuple):  # packed by token
    terms: np.ndarray  # fkl_terms(teacher, p) for p = softmax(student / T), before the clip
    unclipped: np.ndarray  # terms < clip: U, the boundary counting as clipped
    gates: np.ndarray | None  # entropy gating only: True = forward KL
    weights: np.ndarray  # token_weights
    losses: np.ndarray  # unweighted per-token losses
    grad: np.ndarray  # gradient rows before weight and reduction scaling


@lru_cache(maxsize=1)
def _objective(batch: RolloutBatch, cfg: ObjectiveConfig, weighting: Weighting) -> _Objective:
    """The parts the loss, its gradient and the finite-difference check share,
    for the last batch asked (a batch hashes by identity and never changes)."""
    T = cfg.distill_temperature
    q = batch.teacher
    p = softmax_with_temperature(batch.student, T)
    terms = fkl_terms(q, p)
    losses = np.minimum(terms, cfg.clip_threshold).sum(axis=1)
    unclipped = terms < cfg.clip_threshold
    q_unclipped = np.where(unclipped, q, 0.0)
    grad = (p * q_unclipped.sum(axis=1, keepdims=True) - q_unclipped) / T
    gates = None
    if isinstance(weighting, EntropyGateWeighting):  # reverse KL on the closed-gate rows
        gates = row_entropies(q) > weighting.gate_threshold
        closed = ~gates
        pc, qc = p[closed], q[closed]
        rkl = fkl_terms(pc, qc).sum(axis=1)
        losses[closed] = rkl
        grad[closed] = pc * ((floored_log(pc) - floored_log(qc)) - rkl[:, None]) / T
    return _Objective(terms, unclipped, gates, token_weights(batch, weighting), losses, grad)


def weighted_reduction(losses: list[np.ndarray], weights: list[np.ndarray], reduction: Reduction) -> float:
    """Combine per-token losses and weights under the chosen reduction.

    Summation order is fixed (sequence 0..B-1, tokens in order) so results are
    bit-stable regardless of how callers parallelize upstream work.
    """
    if len(losses) != len(weights) or len(losses) == 0:
        raise InvalidInputError("losses and weights must be equal-length non-empty lists")
    if reduction is Reduction.GLOBAL_TOKEN_MEAN:
        num = 0.0
        denom = 0
        for l, w in zip(losses, weights):
            num += float((w * l).sum())
            denom += l.shape[0]
        return num / denom
    if reduction is Reduction.PER_SEQUENCE_MEAN:
        acc = 0.0
        for l, w in zip(losses, weights):
            acc += float((w * l).sum()) / l.shape[0]
        return acc / len(losses)
    raise InvalidInputError(f"unknown reduction {reduction!r}")


def distillation_loss(
    batch: RolloutBatch,
    cfg: ObjectiveConfig,
    weighting: Weighting,
    reduction: Reduction,
) -> float:
    """Scalar training loss for the batch under the given weighting and reduction,
    summed sequence by sequence."""
    obj = _objective(batch, cfg, weighting)
    return weighted_reduction(batch.split(obj.losses), batch.split(obj.weights), reduction)


def loss_gradient_wrt_student_logits(
    batch: RolloutBatch,
    cfg: ObjectiveConfig,
    weighting: Weighting,
    reduction: Reduction,
) -> np.ndarray:
    """d(loss)/d(student logits), packed (N_tokens, vocab) like batch.student.

    Forward-KL tokens: with U = {j : q_j ln(q_j/p_j) < clip} (boundary counts
    as clipped) and Q_U = sum of teacher mass on U,

        g_k = (1/T) * (p_k * Q_U - q_k * [k in U]).

    Reverse-KL tokens (entropy gate closed):

        g_k = (p_k / T) * (ln(p_k/q_k) - RKL(p, q)).

    Every token's gradient is scaled by its weight times its reduction
    coefficient (1 / total tokens, or 1 / (B * its sequence's length)), so the
    result is the exact gradient of distillation_loss.
    """
    if reduction is Reduction.GLOBAL_TOKEN_MEAN:
        coef = 1.0 / batch.total_tokens
    elif reduction is Reduction.PER_SEQUENCE_MEAN:
        coef = np.repeat(1.0 / (len(batch) * np.array(batch.lengths)), batch.lengths)
    else:
        raise InvalidInputError(f"unknown reduction {reduction!r}")
    obj = _objective(batch, cfg, weighting)
    return obj.grad * (obj.weights * coef)[:, None]


@dataclass(frozen=True)
class FiniteDifferenceReport:
    max_rel_err: float  # worst relative error where |analytic| > rel_floor
    max_abs_err: float  # worst absolute error on the remaining coordinates
    compared: int
    skipped_boundary_tokens: int


_FD_BLOCK_ENTRIES = 1 << 16  # longdouble entries in one block of perturbed logit rows
_FD_OFFSETS = np.array([-2.0, -1.0, 1.0, 2.0])


def _token_losses_from_exps(q_row, e, cfg: ObjectiveConfig, fkl: bool) -> np.ndarray:
    """One token's unweighted loss for each (..., V) row of exponentials
    exp(z/T - max(z/T)) of a logit row z. Mirrors `_objective`'s losses
    row-wise for a single teacher row, in np.longdouble so that central
    differences of the result are not drowned by float64 rounding of the loss
    values themselves."""
    p = e / e.sum(axis=-1, keepdims=True)
    q = q_row.astype(np.longdouble)
    if fkl:
        return np.minimum(fkl_terms(q, p), np.longdouble(cfg.clip_threshold)).sum(axis=-1)
    return fkl_terms(p, q).sum(axis=-1)


def _fd_row(q_row, z_row, scale, cfg: ObjectiveConfig, fkl: bool, step: float) -> np.ndarray:
    """`scale` times the five-point difference quotient of one token's
    extended-precision loss, one float64 per logit coordinate."""
    V = z_row.size
    chunk = max(1, _FD_BLOCK_ENTRIES // (4 * V))
    T = np.longdouble(cfg.distill_temperature)
    zb = z_row.astype(np.longdouble) / T
    top = int(zb.argmax())
    M = zb[top]
    eb = np.exp(zb - M)
    rest_max = np.where(np.arange(V) == top, np.delete(zb, top).max(), M)  # max over j != k
    h = np.longdouble(step)
    fd = np.empty(V)
    for k0 in range(0, V, chunk):
        cols = np.arange(k0, min(k0 + chunk, V))
        # row (o, k) of the block: the logits with coordinate cols[k] moved by o*step
        moved = (z_row[cols] + _FD_OFFSETS[:, None] * step).astype(np.longdouble) / T
        row_max = np.maximum(moved, rest_max[cols])
        e = np.tile(eb, (4, cols.size, 1))
        # same max: only entry cols[k] differs from eb (elsewhere moved - M may overflow)
        o, k = np.nonzero(row_max == M)
        e[o, k, cols[k]] = np.exp(moved[o, k] - M)
        o, k = np.nonzero(row_max != M)  # a new max shifts every entry
        z = np.tile(zb, (o.size, 1))
        z[np.arange(o.size), cols[k]] = moved[o, k]
        e[o, k] = np.exp(z - row_max[o, k, None])
        probes = _token_losses_from_exps(q_row, e, cfg, fkl)
        quotient = (probes[0] - 8.0 * probes[1] + 8.0 * probes[2] - probes[3]) / (12.0 * h)
        fd[k0 : k0 + cols.size] = scale * quotient
    return fd


def finite_difference_check(
    batch: RolloutBatch,
    cfg: ObjectiveConfig,
    weighting: Weighting,
    reduction: Reduction,
    step: float = 1e-5,
    rel_floor: float = 1e-8,
    max_tokens: int | None = None,
) -> FiniteDifferenceReport:
    """Compare the analytic gradient against central differences of the loss.

    Perturbing one logit changes exactly one token's loss, and the reduction
    is linear in that loss, so the difference quotient of the full loss equals
    the token's own difference quotient times the token's weight-and-reduction
    multiplier, which repeats the float operations weighted_reduction makes on
    an indicator of the token. The token loss itself is evaluated in
    extended precision on a five-point stencil (a fourth-order central
    difference at the given step), which keeps both truncation and rounding
    noise in the quotient far below the comparison tolerance even for
    gradient coordinates just above rel_floor; a plain two-point quotient at
    this step carries O(step^2) truncation error that swamps such
    coordinates no matter how precisely the loss is computed. Tokens with
    any vocabulary term within 10 * step of the clip boundary are excluded:
    the stencil straddles the kink there and no derivative comparison is
    meaningful. `max_tokens` stops after that many tokens have been compared
    (spot-check mode); None compares every token in the batch.

    A token's stencil is one (4, K, V) block whose row (o, k) is its logits
    with coordinate k moved by o * step, o in (-2, -1, 1, 2); K = V, or
    chunks of max(1, _FD_BLOCK_ENTRIES // 4V) coordinates when that bounds
    memory. The rows reuse the token's own exponentials eb = exp(z / T - M):
    a row whose exact max, max(max_{j != k} z_j / T, moved z_k / T), is M is
    eb with entry k alone recomputed, and a row whose max moved (k is the
    argmax, or the move crosses it) is recomputed whole. Each row so meets
    the same ufuncs on the same inputs as alone, and a row's last-axis sum in
    a C-contiguous block is the same pairwise reduction as its 1-D sum, so
    this is bit-identical to one evaluation per perturbed row.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise InvalidInputError(f"step must be positive and finite, got {step!r}")
    if max_tokens is not None and max_tokens < 1:
        raise InvalidInputError(f"max_tokens must be >= 1, got {max_tokens}")
    analytic = loss_gradient_wrt_student_logits(batch, cfg, weighting, reduction)
    obj = _objective(batch, cfg, weighting)
    # weighted_reduction of each token's indicator, less its exact-zero terms
    if reduction is Reduction.GLOBAL_TOKEN_MEAN:
        scales = obj.weights / batch.total_tokens
    else:
        scales = obj.weights / np.repeat(batch.lengths, batch.lengths) / len(batch)
    margin = 10.0 * step

    max_rel = 0.0
    max_abs = 0.0
    skipped = 0
    tokens_done = 0
    for t in range(batch.total_tokens):
        if max_tokens is not None and tokens_done >= max_tokens:
            break
        fkl_token = obj.gates is None or obj.gates[t]
        if fkl_token and np.any(np.abs(obj.terms[t] - cfg.clip_threshold) <= margin):
            skipped += 1
            continue
        tokens_done += 1
        scale = np.longdouble(scales[t])
        fd = _fd_row(batch.teacher[t], batch.student[t], scale, cfg, fkl_token, step)
        a = analytic[t]
        err = np.abs(fd - a)
        rel = np.abs(a) > rel_floor
        max_rel = np.max(err[rel] / np.abs(a[rel]), initial=max_rel)
        max_abs = np.max(err[~rel], initial=max_abs)
    return FiniteDifferenceReport(float(max_rel), float(max_abs), tokens_done * batch.student.shape[-1], skipped)
