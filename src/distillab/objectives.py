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


_FD_BLOCK_ENTRIES = 1 << 13  # longdouble entries in one block of perturbed logit rows
_FD_OFFSETS = np.array([-2.0, -1.0, 1.0, 2.0])


def _fd_rows(q, z, scale, cfg: ObjectiveConfig, fkl: bool, step: float) -> np.ndarray:
    """`scale` (n,) times the five-point difference quotient of each token's
    unweighted loss, (n, V) float64, for n tokens of one gate kind (`fkl`:
    clipped forward KL, else reverse KL) with teacher rows `q` and student
    logit rows `z`, in blocks as finite_difference_check describes. The probe
    losses mirror `_objective`'s row-wise, in np.longdouble so that central
    differences of them are not drowned by float64 rounding of the loss
    values themselves; every temporary is bounded by a block or by n tokens."""
    n, V = z.shape
    chunk = min(V, max(1, _FD_BLOCK_ENTRIES // (4 * V)))  # coordinates per block
    per_block = max(1, _FD_BLOCK_ENTRIES // (4 * V * chunk))  # tokens per block
    T = np.longdouble(cfg.distill_temperature)
    zb = z.astype(np.longdouble)
    zb /= T
    top = zb.argmax(axis=1)[:, None]
    M = np.take_along_axis(zb, top, axis=1)
    eb = np.subtract(zb, M)
    np.exp(eb, out=eb)
    # the max over j != k where k is the argmax (M itself when the max is tied)
    second = np.where(np.arange(V) == top, -np.inf, zb).max(axis=1, keepdims=True)
    clip = np.longdouble(cfg.clip_threshold)
    h = np.longdouble(step)
    fd = np.empty((n, V))
    for t0 in range(0, n, per_block):
        t = slice(t0, t0 + per_block)
        for k0 in range(0, V, chunk):
            cols = np.arange(k0, min(k0 + chunk, V))
            # row (o, i, k) of the block: token i's logits with coordinate cols[k] moved by o*step
            moved = (z[t][:, cols] + _FD_OFFSETS[:, None, None] * step).astype(np.longdouble) / T
            row_max = np.maximum(moved, np.where(cols == top[t], second[t], M[t]))
            e = np.broadcast_to(eb[t, None, :], moved.shape + (V,)).copy()
            # same max: only entry cols[k] differs from eb (elsewhere moved - M may overflow)
            same = row_max == M[t]
            o, i, k = np.nonzero(same)
            e[o, i, k, cols[k]] = np.exp(moved[o, i, k] - M[t][i, 0])
            o, i, k = np.nonzero(~same)  # a new max shifts every entry
            zz = zb[t][i]
            zz[np.arange(o.size), cols[k]] = moved[o, i, k]
            e[o, i, k] = np.exp(zz - row_max[o, i, k, None])
            e /= e.sum(axis=-1, keepdims=True)
            q_rows = q[None, t, None, :].astype(np.longdouble)  # (1, tokens, 1, V) against the block
            if fkl:
                terms = fkl_terms(q_rows, e)
                probes = np.minimum(terms, clip, out=terms).sum(axis=-1)
            else:
                probes = fkl_terms(e, q_rows).sum(axis=-1)
            quotient = (probes[0] - 8.0 * probes[1] + 8.0 * probes[2] - probes[3]) / (12.0 * h)
            fd[t, k0 : k0 + cols.size] = scale[t, None] * quotient
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

    The compared tokens go to _fd_rows by gate kind (forward KL, then
    reverse KL) in groups of at most _FD_BLOCK_ENTRIES // V tokens, and the
    errors are reduced per group: a max is exact in any order. A group's
    stencils are (4, tokens, K, V) longdouble blocks of at most
    _FD_BLOCK_ENTRIES entries, whose row (o, i, k) is token i's logits with
    coordinate k moved by o * step, o in (-2, -1, 1, 2): several whole tokens
    (K = V) when 4V^2 fits, else one token's coordinates in chunks of
    max(1, _FD_BLOCK_ENTRIES // 4V). The rows reuse each token's own
    exponentials eb = exp(z / T - M): a row whose exact max,
    max(max_{j != k} z_j / T, moved z_k / T), is M is eb with entry k alone
    recomputed, and a row whose max moved (k is the argmax, or the move
    crosses it) is recomputed whole. Each row so meets the same ufuncs on the
    same inputs as alone, and a row's last-axis sum in a C-contiguous block
    is the same pairwise reduction as its 1-D sum, so this is bit-identical
    to one evaluation per perturbed row.
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
    N, V = batch.student.shape
    group = max(1, _FD_BLOCK_ENTRIES // V)  # tokens handed to one _fd_rows call
    fkl = np.ones(N, dtype=bool) if obj.gates is None else obj.gates
    near = np.empty(N, dtype=bool)  # a term within 10 * step of the clip
    for r in range(0, N, group):
        near[r : r + group] = (np.abs(obj.terms[r : r + group] - cfg.clip_threshold) <= 10.0 * step).any(axis=1)
    near &= fkl
    chosen = np.flatnonzero(~near)
    end = N
    if max_tokens is not None and chosen.size >= max_tokens:  # stop after the last one compared
        chosen = chosen[:max_tokens]
        end = chosen[-1] + 1

    max_rel = 0.0
    max_abs = 0.0
    for kind in (True, False):
        tokens = chosen[fkl[chosen] == kind]
        for g0 in range(0, tokens.size, group):
            g = tokens[g0 : g0 + group]
            fd = _fd_rows(batch.teacher[g], batch.student[g], scales[g].astype(np.longdouble), cfg, kind, step)
            a = analytic[g]
            err = np.abs(fd - a)
            rel = np.abs(a) > rel_floor
            max_rel = np.max(err[rel] / np.abs(a[rel]), initial=max_rel)
            max_abs = np.max(err[~rel], initial=max_abs)
    return FiniteDifferenceReport(float(max_rel), float(max_abs), chosen.size * V, int(near[:end].sum()))
