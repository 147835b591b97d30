import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import distillab.objectives as objectives_module
from distillab.dists import (
    PROB_FLOOR,
    as_rows,
    entropy,
    fkl_terms,
    floored_log,
    forward_kl,
    reverse_kl,
    row_entropies,
    softmax_with_temperature,
)
from distillab.errors import InvalidInputError
from distillab.objectives import (
    EntropyGateWeighting,
    FiniteDifferenceReport,
    ObjectiveConfig,
    PositionWeighting,
    Reduction,
    RolloutBatch,
    UniformWeighting,
    default_gate_threshold,
    distillation_loss,
    finite_difference_check,
    loss_gradient_wrt_student_logits,
    token_weights,
    weighted_reduction,
)
from distillab.objectives import _objective
from distillab.schedules import PRESETS, PositionSchedule, preset, weights_for_length
from distillab.seeding import derive_rng


def _gate_masks(batch, weighting):
    gates = _objective(batch, ObjectiveConfig(), weighting).gates
    return None if gates is None else batch.split(gates)


def _losses(batch, cfg, weighting):
    return _objective(batch, cfg, weighting).losses


def _random_batch(rng, n_seqs=4, vocab=32, max_len=16):
    teachers, logits = [], []
    for _ in range(n_seqs):
        L = int(rng.integers(1, max_len + 1))
        teachers.append(rng.dirichlet(np.ones(vocab), size=L))
        logits.append(rng.standard_normal((L, vocab)))
    return RolloutBatch(teachers, logits)


def _single_token_batch(q, z):
    return RolloutBatch([np.array([q])], [np.array([z], dtype=float)])


# ---------------------------------------------------------------- fixtures


def test_hand_fixture_loss_and_gradient():
    # q = (1/2, 1/2), logits (ln 3, 0), T = 1.1, clip 0.05.
    # p = softmax((ln 3)/1.1, 0); term for j=0 is negative (kept), term for
    # j=1 exceeds the clip (capped), so U = {0} and Q_U = 1/2.
    cfg = ObjectiveConfig(distill_temperature=1.1, clip_threshold=0.05)
    batch = _single_token_batch([0.5, 0.5], [math.log(3.0), 0.0])
    p = softmax_with_temperature(np.array([math.log(3.0), 0.0]), 1.1)
    expected_loss = 0.5 * math.log(0.5 / p[0]) + 0.05
    loss = distillation_loss(batch, cfg, UniformWeighting(), Reduction.GLOBAL_TOKEN_MEAN)
    assert abs(loss - expected_loss) < 1e-14
    assert abs(loss - (-0.1397730259784477)) < 1e-12

    g = loss_gradient_wrt_student_logits(
        batch, cfg, UniformWeighting(), Reduction.GLOBAL_TOKEN_MEAN
    )[0]
    expected_g0 = (p[0] * 0.5 - 0.5) / 1.1
    expected_g1 = (p[1] * 0.5) / 1.1
    assert abs(g[0] - expected_g0) < 1e-14
    assert abs(g[1] - expected_g1) < 1e-14
    assert abs(g[0] - (-0.12235887753426)) < 1e-11
    assert abs(g[1] - 0.12235887753426) < 1e-11
    # softmax gradients always sum to zero across the vocabulary here:
    # g = (p Q_U - q 1_U)/T and both p and the masked q carry mass Q_U
    assert abs(g.sum()) < 1e-15


def test_criterion_fixture_quarter_three_quarter():
    # student distribution (1/4, 3/4) realized through logits T*ln(p)
    cfg = ObjectiveConfig(distill_temperature=1.1, clip_threshold=0.05)
    z = 1.1 * np.log([0.25, 0.75])
    batch = _single_token_batch([0.5, 0.5], z)
    loss = distillation_loss(batch, cfg, UniformWeighting(), Reduction.GLOBAL_TOKEN_MEAN)
    assert abs(loss - (-0.1527325540540822)) < 1e-12


def test_gradient_zero_at_teacher_match_with_large_clip():
    # with a huge clip nothing is capped, so loss = FKL and the teacher-equal
    # student is a stationary global minimum
    cfg = ObjectiveConfig(distill_temperature=1.0, clip_threshold=1e6)
    q = np.array([0.2, 0.3, 0.5])
    batch = _single_token_batch(q, np.log(q))
    loss = distillation_loss(batch, cfg, UniformWeighting(), Reduction.GLOBAL_TOKEN_MEAN)
    g = loss_gradient_wrt_student_logits(
        batch, cfg, UniformWeighting(), Reduction.GLOBAL_TOKEN_MEAN
    )
    assert abs(loss) < 1e-14
    assert np.abs(g).max() < 1e-14


def test_boundary_term_counts_as_clipped():
    # construct q, p with one term exactly at the clip threshold: that entry
    # must contribute no gradient pull (it is outside U)
    cfg_T = 1.0
    q = np.array([0.5, 0.5])
    # pick p0 so q0 ln(q0/p0) == clip exactly
    clip = 0.5 * math.log(0.5 / 0.25)  # term0 at p0=0.25 equals this clip
    p = np.array([0.25, 0.75])
    z = np.log(p)
    cfg = ObjectiveConfig(distill_temperature=cfg_T, clip_threshold=clip)
    batch = _single_token_batch(q, z)
    g = loss_gradient_wrt_student_logits(
        batch, cfg, UniformWeighting(), Reduction.GLOBAL_TOKEN_MEAN
    )[0]
    # U = {1} only: Q_U = 0.5; g0 = p0 * 0.5, g1 = p1 * 0.5 - 0.5
    assert abs(g[0] - (p[0] * 0.5)) < 1e-14
    assert abs(g[1] - (p[1] * 0.5 - 0.5)) < 1e-14


# ------------------------------------------------------------- reductions


def test_reduction_closed_forms():
    losses = [np.array([1.0, 2.0]), np.array([3.0])]
    weights = [np.array([1.0, 1.0]), np.array([1.0])]
    gtm = weighted_reduction(losses, weights, Reduction.GLOBAL_TOKEN_MEAN)
    psm = weighted_reduction(losses, weights, Reduction.PER_SEQUENCE_MEAN)
    assert abs(gtm - 2.0) < 1e-15  # (1+2+3)/3
    assert abs(psm - ((1.5) + 3.0) / 2.0) < 1e-15
    # weights scale tokens before the reduction
    w2 = [np.array([2.0, 0.0]), np.array([1.0])]
    assert abs(weighted_reduction(losses, w2, Reduction.GLOBAL_TOKEN_MEAN) - 5.0 / 3.0) < 1e-15


def test_reductions_agree_on_equal_length_single_weight_batches():
    rng = derive_rng(11)
    for _ in range(20):
        L = int(rng.integers(1, 9))
        teachers = [rng.dirichlet(np.ones(8), size=L) for _ in range(3)]
        logits = [rng.standard_normal((L, 8)) for _ in range(3)]
        batch = RolloutBatch(teachers, logits)
        cfg = ObjectiveConfig()
        a = distillation_loss(batch, cfg, UniformWeighting(), Reduction.GLOBAL_TOKEN_MEAN)
        b = distillation_loss(batch, cfg, UniformWeighting(), Reduction.PER_SEQUENCE_MEAN)
        assert abs(a - b) < 1e-12


# ------------------------------------------------------------- weightings


def test_position_weighting_w_min_one_equals_uniform():
    # w_min = 1 collapses the schedule to all-ones: same loss to 1e-12
    rng = derive_rng(12)
    flat = PositionSchedule(w_min=1.0, midpoint=0.3, steepness=0.1)
    cfg = ObjectiveConfig()
    for _ in range(100):
        batch = _random_batch(rng, n_seqs=3, vocab=12, max_len=10)
        for red in Reduction:
            lu = distillation_loss(batch, cfg, UniformWeighting(), red)
            lw = distillation_loss(batch, cfg, PositionWeighting(flat), red)
            assert abs(lu - lw) < 1e-12


def test_position_weights_match_schedule():
    batch = _random_batch(derive_rng(13), n_seqs=2, vocab=6, max_len=9)
    sched = preset("moderate")
    weights = batch.split(token_weights(batch, PositionWeighting(sched)))
    for q, w in zip(batch.split(batch.teacher), weights):
        assert np.allclose(w, weights_for_length(q.shape[0], sched), atol=0, rtol=0)


def test_entropy_gate_routes_tokens():
    # two tokens: one diffuse teacher (above gate -> FKL), one confident
    # teacher (below gate -> RKL); verify against hand-assembled values
    cfg = ObjectiveConfig(distill_temperature=1.0, clip_threshold=0.05)
    q_hi = np.array([0.5, 0.5])  # entropy ln 2
    q_lo = np.array([0.999, 0.001])  # tiny entropy
    z = np.array([[0.3, -0.2], [0.1, 0.4]])
    batch = RolloutBatch([np.array([q_hi, q_lo])], [z])
    gate = default_gate_threshold(2)  # ln(2)/2
    p = softmax_with_temperature(z, 1.0)
    tok0 = float(np.minimum(q_hi * (np.log(q_hi) - np.log(p[0])), 0.05).sum())
    tok1 = reverse_kl(q_lo, p[1])
    expected = (tok0 + tok1) / 2.0
    got = distillation_loss(batch, cfg, EntropyGateWeighting(gate), Reduction.GLOBAL_TOKEN_MEAN)
    assert abs(got - expected) < 1e-12
    assert entropy(q_hi) > gate > entropy(q_lo)


def test_gate_threshold_default_and_validation():
    assert abs(default_gate_threshold(12) - math.log(12) / 2.0) < 1e-15
    with pytest.raises(InvalidInputError):
        default_gate_threshold(1)
    with pytest.raises(InvalidInputError):
        EntropyGateWeighting(-0.1)


# ------------------------------------------------------ analytic gradient


def test_gradient_matches_finite_differences_on_random_batches():
    cfg = ObjectiveConfig()
    rng = derive_rng(14)
    worst = 0.0
    for _ in range(5):
        batch = _random_batch(rng, n_seqs=3, vocab=16, max_len=8)
        rep = finite_difference_check(
            batch, cfg, UniformWeighting(), Reduction.GLOBAL_TOKEN_MEAN
        )
        worst = max(worst, rep.max_rel_err)
        assert rep.compared > 0
    assert worst < 1e-6


def test_gradient_fd_covers_weighted_and_gated_paths():
    cfg = ObjectiveConfig()
    rng = derive_rng(15)
    combos = [
        (PositionWeighting(preset("moderate")), Reduction.PER_SEQUENCE_MEAN),
        (PositionWeighting(preset("aggressive")), Reduction.GLOBAL_TOKEN_MEAN),
        (EntropyGateWeighting(default_gate_threshold(16)), Reduction.PER_SEQUENCE_MEAN),
    ]
    for weighting, red in combos:
        batch = _random_batch(rng, n_seqs=3, vocab=16, max_len=8)
        rep = finite_difference_check(batch, cfg, weighting, red)
        assert rep.max_rel_err < 1e-6


def test_fd_spot_check_mode_stops_early():
    batch = _random_batch(derive_rng(16), n_seqs=4, vocab=8, max_len=6)
    rep = finite_difference_check(
        batch,
        ObjectiveConfig(),
        UniformWeighting(),
        Reduction.GLOBAL_TOKEN_MEAN,
        max_tokens=1,
    )
    assert rep.compared == 8  # one token, vocab coordinates
    assert rep.max_rel_err < 1e-6
    with pytest.raises(InvalidInputError):
        finite_difference_check(
            batch, ObjectiveConfig(), UniformWeighting(), Reduction.GLOBAL_TOKEN_MEAN,
            max_tokens=0,
        )


def _reference_token_loss(q_row, z_row, temperature, clip_threshold, fkl):
    # one perturbed logit row at a time, in extended precision
    floor = np.longdouble(PROB_FLOOR)
    z = z_row.astype(np.longdouble) / np.longdouble(temperature)
    e = np.exp(z - z.max())
    p = e / e.sum()
    q = q_row.astype(np.longdouble)
    logp = np.log(np.maximum(p, floor))
    logq = np.log(np.maximum(q, floor))
    zero = np.longdouble(0.0)
    if fkl:
        terms = np.where(q > 0.0, q * (logq - logp), zero)
        return np.minimum(terms, np.longdouble(clip_threshold)).sum()
    return np.where(p > 0.0, p * (logp - logq), zero).sum()


# Per-token reference copies of the stencil code that objectives._fd_rows
# replaced: one token at a time, in (4, K, V) blocks of up to _REF_FD_BLOCK
# entries.
_REF_FD_BLOCK = 1 << 16
_FD_OFFSETS = np.array([-2.0, -1.0, 1.0, 2.0])


def _ref_token_losses_from_exps(q_row, e, cfg, fkl):
    p = e / e.sum(axis=-1, keepdims=True)
    q = q_row.astype(np.longdouble)
    if fkl:
        return np.minimum(fkl_terms(q, p), np.longdouble(cfg.clip_threshold)).sum(axis=-1)
    return fkl_terms(p, q).sum(axis=-1)


def _ref_fd_row(q_row, z_row, scale, cfg, fkl, step):
    V = z_row.size
    chunk = max(1, _REF_FD_BLOCK // (4 * V))
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
        moved = (z_row[cols] + _FD_OFFSETS[:, None] * step).astype(np.longdouble) / T
        row_max = np.maximum(moved, rest_max[cols])
        e = np.tile(eb, (4, cols.size, 1))
        o, k = np.nonzero(row_max == M)
        e[o, k, cols[k]] = np.exp(moved[o, k] - M)
        o, k = np.nonzero(row_max != M)
        z = np.tile(zb, (o.size, 1))
        z[np.arange(o.size), cols[k]] = moved[o, k]
        e[o, k] = np.exp(z - row_max[o, k, None])
        probes = _ref_token_losses_from_exps(q_row, e, cfg, fkl)
        quotient = (probes[0] - 8.0 * probes[1] + 8.0 * probes[2] - probes[3]) / (12.0 * h)
        fd[k0 : k0 + cols.size] = scale * quotient
    return fd


def _spied_fd_rows(rows, budget=None):
    """Patch objectives._fd_rows (and the block budget, when given) so that
    every call appends (q_row bytes, z_row bytes, scale, fkl, fd row) for each
    of its tokens to `rows`, after checking the group size and that each row
    equals _ref_fd_row's bit for bit."""
    fd_rows = objectives_module._fd_rows

    def spy(q, z, scale, cfg, fkl, step):
        got = fd_rows(q, z, scale, cfg, fkl, step)
        assert got.shape == z.shape and z.shape[0] <= max(1, objectives_module._FD_BLOCK_ENTRIES // z.shape[1])
        for i in range(z.shape[0]):
            assert _same_bits(got[i], _ref_fd_row(q[i], z[i], scale[i], cfg, fkl, step))
            rows.append((q[i].tobytes(), z[i].tobytes(), scale[i], fkl, got[i]))
        return got

    budget = objectives_module._FD_BLOCK_ENTRIES if budget is None else budget
    return mock.patch.multiple(objectives_module, _fd_rows=spy, _FD_BLOCK_ENTRIES=budget)


def _by_gate_kind(rows, at):
    """Per-token `rows` in token order, reordered as the check takes them: the
    forward-KL tokens (row[at] true) first, then the reverse-KL ones."""
    return [row for row in rows if row[at]] + [row for row in rows if not row[at]]


def _reference_fd_check(batch, cfg, weighting, reduction, step=1e-5, rel_floor=1e-8, max_tokens=None):
    """The scalar per-coordinate, per-probe finite-difference loop: the report
    and, for each compared token in token order, (forward KL?, its fd values)."""
    analytic = batch.split(loss_gradient_wrt_student_logits(batch, cfg, weighting, reduction))
    weights = batch.split(token_weights(batch, weighting))
    gates = _gate_masks(batch, weighting)
    h = np.longdouble(step)
    max_rel = max_abs = 0.0
    compared = skipped = tokens_done = 0
    fds = []
    teachers, students = batch.split(batch.teacher), batch.split(batch.student)
    for i, z in enumerate(students):
        if max_tokens is not None and tokens_done >= max_tokens:
            break
        raw = fkl_terms(teachers[i], softmax_with_temperature(z, cfg.distill_temperature))
        for t in range(z.shape[0]):
            if max_tokens is not None and tokens_done >= max_tokens:
                break
            fkl_token = gates is None or gates[i][t]
            if fkl_token and np.any(np.abs(raw[t] - cfg.clip_threshold) <= 10.0 * step):
                skipped += 1
                continue
            tokens_done += 1
            indicator = [np.zeros(zz.shape[0]) for zz in students]
            indicator[i][t] = 1.0
            scale = np.longdouble(weighted_reduction(indicator, weights, reduction))
            fd_row = []
            for k in range(z.shape[1]):
                row = z[t].copy()
                probes = []
                for offset in (-2.0, -1.0, 1.0, 2.0):
                    row[k] = z[t, k] + offset * step
                    probes.append(
                        _reference_token_loss(
                            teachers[i][t], row, cfg.distill_temperature,
                            cfg.clip_threshold, fkl_token,
                        )
                    )
                quotient = (probes[0] - 8.0 * probes[1] + 8.0 * probes[2] - probes[3]) / (12.0 * h)
                fd = float(scale * quotient)
                fd_row.append(fd)
                a = analytic[i][t, k]
                compared += 1
                if abs(a) > rel_floor:
                    max_rel = max(max_rel, abs(fd - a) / abs(a))
                else:
                    max_abs = max(max_abs, abs(fd - a))
            fds.append((fkl_token, np.array(fd_row)))
    return FiniteDifferenceReport(max_rel, max_abs, compared, skipped), fds


@st.composite
def _fd_cases(draw):
    vocab = draw(st.integers(2, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    alpha = draw(st.sampled_from([0.05, 0.3, 1.0, 5.0]))
    logit_scale = draw(st.sampled_from([0.5, 1.0, 4.0]))
    teachers, logits = [], []
    for _ in range(draw(st.integers(1, 3))):
        L = draw(st.integers(1, 4))
        q = rng.dirichlet(np.full(vocab, alpha), size=L)
        if vocab > 2 and draw(st.booleans()):  # an exact zero in each teacher row
            q[np.arange(L), q.argmin(axis=1)] = 0.0
            q /= q.sum(axis=1, keepdims=True)
        teachers.append(q)
        logits.append(logit_scale * rng.standard_normal((L, vocab)))
    kind = draw(st.sampled_from(["uniform", "position", "gate", "gate"]))
    if kind == "uniform":
        weighting = UniformWeighting()
    elif kind == "position":
        weighting = PositionWeighting(preset(draw(st.sampled_from(sorted(PRESETS)))))
    else:  # a threshold at one token's teacher entropy: that token and lower ones take reverse KL
        entropies = sorted(entropy(row) for q in teachers for row in q)
        weighting = EntropyGateWeighting(draw(st.sampled_from(entropies)))
    temperature = draw(st.sampled_from([0.5, 1.0, 1.1, 2.5]))
    clip = draw(st.sampled_from([0.01, 0.05, 0.3]))
    if draw(st.booleans()):  # put the first token's largest term at the clip: a skipped token
        p = softmax_with_temperature(logits[0][:1], temperature)
        clip = max(float(fkl_terms(teachers[0][:1], p).max()), 1e-3)
    cfg = ObjectiveConfig(distill_temperature=temperature, clip_threshold=clip)
    # a block budget that splits a token's coordinates into chunks, holds one
    # whole token or several, or the default
    budget = draw(st.one_of(st.none(), st.integers(1, 3 * 4 * vocab * vocab)))
    return (
        RolloutBatch(teachers, logits),
        cfg,
        weighting,
        draw(st.sampled_from(list(Reduction))),
        draw(st.sampled_from([None, 1, 2])),
        budget,
    )


@settings(max_examples=150, deadline=None)
@given(case=_fd_cases())
def test_batched_fd_check_equals_scalar_reference(case):
    batch, cfg, weighting, reduction, max_tokens, budget = case
    rows = []
    with _spied_fd_rows(rows, budget):
        report = finite_difference_check(batch, cfg, weighting, reduction, max_tokens=max_tokens)
    expected, expected_rows = _reference_fd_check(batch, cfg, weighting, reduction, max_tokens=max_tokens)
    assert report == expected
    assert len(rows) == len(expected_rows)
    for got, (fkl, want) in zip(rows, _by_gate_kind(expected_rows, 0)):
        assert got[3] == fkl
        assert got[4].dtype == want.dtype and np.array_equal(got[4], want)


def test_fd_check_memory_is_bounded_for_a_large_vocabulary():
    # unchunked, one token's (4, V, V) longdouble block alone would be 64 MiB
    rng = derive_rng(19)
    vocab = 1024
    batch = RolloutBatch([rng.dirichlet(np.ones(vocab), size=1)], [rng.standard_normal((1, vocab))])
    tracemalloc.start()
    try:
        rep = finite_difference_check(
            batch, ObjectiveConfig(), UniformWeighting(), Reduction.GLOBAL_TOKEN_MEAN, max_tokens=1
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.compared == vocab
    assert rep.max_rel_err < 1e-6
    assert peak < 16 * 2**20


def test_fd_check_memory_is_bounded_for_many_tokens():
    # 20,000 tokens at V = 4: the stencils run in groups of _FD_BLOCK_ENTRIES // V
    # tokens, so no temporary grows with the batch beyond a per-token mask
    rng = derive_rng(23)
    vocab = 4
    batch = RolloutBatch(
        [rng.dirichlet(np.ones(vocab), size=200) for _ in range(100)],
        [rng.standard_normal((200, vocab)) for _ in range(100)],
    )
    tracemalloc.start()
    try:
        rep = finite_difference_check(batch, ObjectiveConfig(), UniformWeighting(), Reduction.GLOBAL_TOKEN_MEAN)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.compared + vocab * rep.skipped_boundary_tokens == batch.teacher.size
    assert rep.max_rel_err < 1e-6
    assert peak < 8 * batch.teacher.nbytes


def _stencil_case(vocab, plant, step=1e-5, budget=objectives_module._FD_BLOCK_ENTRIES):
    """Two tokens whose stencils take the recomputed-row path: the argmax
    coordinate always, and each planted logit (j places past the argmax, at
    the max plus delta) whose probes reach or cross the max."""
    rng = np.random.default_rng(vocab)
    q = rng.dirichlet(np.ones(vocab), size=2)
    z = 2.0 * rng.standard_normal((2, vocab))
    top = z.argmax(axis=1)
    for t in range(2):
        for j, delta in plant:
            z[t, (top[t] + j) % vocab] = z[t, top[t]] + delta
    return q, z, step, budget


_STENCIL_CASES = {
    "argmax-only": _stencil_case(8, []),
    "within-2-steps-of-the-max": _stencil_case(8, [(1, -1.5e-5), (2, -0.5e-5)]),
    "two-equal-maxima": _stencil_case(8, [(3, 0.0)]),
    "vocab-2": _stencil_case(2, [(1, -1.5e-5)]),
    "vocab-2-equal-maxima": _stencil_case(2, [(1, 0.0)]),
    # 5000 below the max is an exact float64 student zero; 20000, a longdouble one
    "exact-student-zeros": _stencil_case(8, [(1, -1e-5), (4, -5000.0), (5, -20000.0)]),
    "step-1e-3": _stencil_case(8, [(1, -1.5e-3), (2, 0.0)], step=1e-3),
    "chunked": _stencil_case(13, [(1, -1.5e-5), (6, -0.5e-5), (12, 0.0)], budget=4 * 13 * 5),
    "one-token-blocks": _stencil_case(8, [(1, -1.5e-5), (3, 0.0)], budget=4 * 8 * 8),
}


@pytest.mark.parametrize("gated", [False, True])
@pytest.mark.parametrize("case", _STENCIL_CASES.values(), ids=_STENCIL_CASES.keys())
def test_fd_stencil_fallback_rows_equal_scalar_reference(case, gated):
    q, z, step, budget = case
    batch = RolloutBatch([q], [z])
    cfg = ObjectiveConfig(clip_threshold=0.3)
    # a gate at the larger teacher entropy sends both tokens to reverse KL
    weighting = EntropyGateWeighting(max(entropy(row) for row in q)) if gated else UniformWeighting()
    reduction = Reduction.GLOBAL_TOKEN_MEAN
    rows = []
    with _spied_fd_rows(rows, budget):
        report = finite_difference_check(batch, cfg, weighting, reduction, step=step)
    expected, expected_rows = _reference_fd_check(batch, cfg, weighting, reduction, step=step)
    assert report == expected and report.compared > 0
    assert len(rows) == len(expected_rows)
    for got, (fkl, want) in zip(rows, _by_gate_kind(expected_rows, 0)):
        assert got[3] == fkl and _same_bits(got[4], want)


def test_gradient_scales_with_weights_and_reduction():
    # doubling a token's weight doubles its gradient rows; reduction
    # coefficients follow 1/(B*L) for the per-sequence mean
    cfg = ObjectiveConfig()
    rng = derive_rng(17)
    q = rng.dirichlet(np.ones(6), size=3)
    z = rng.standard_normal((3, 6))
    batch = RolloutBatch([q], [z])
    g_uniform = loss_gradient_wrt_student_logits(
        batch, cfg, UniformWeighting(), Reduction.PER_SEQUENCE_MEAN
    )
    sched = PositionSchedule(w_min=0.5, midpoint=0.5, steepness=0.1)
    g_sched = loss_gradient_wrt_student_logits(
        batch, cfg, PositionWeighting(sched), Reduction.PER_SEQUENCE_MEAN
    )
    w = weights_for_length(3, sched)
    for t in range(3):
        assert np.allclose(g_sched[t], w[t] * g_uniform[t], rtol=0, atol=1e-15)


def test_batch_validation():
    with pytest.raises(InvalidInputError):
        RolloutBatch([], [])
    with pytest.raises(InvalidInputError):
        RolloutBatch([np.ones((2, 3)) / 3.0], [np.zeros((2, 4))])
    with pytest.raises(InvalidInputError):
        RolloutBatch([np.full((1, 2), 0.7)], [np.zeros((1, 2))])  # rows sum to 1.4
    bad = np.array([[0.5, 0.5]])
    with pytest.raises(InvalidInputError):
        RolloutBatch([bad], [np.array([[np.inf, 0.0]])])


def _refusal(make):
    with pytest.raises(InvalidInputError) as info:
        make()
    return str(info.value)


def _reference_checked_rows(teacher_dists, student_logits):
    # the per-sequence checks that the check of the packed rows replaced: each
    # sequence's shapes and then its values, sequence by sequence; returns
    # the packed rows and the lengths
    teacher, student, vocab = [], [], None
    for i, (q, z) in enumerate(zip(teacher_dists, student_logits)):
        qa, za = np.asarray(q, dtype=float), np.asarray(z, dtype=float)
        if qa.ndim != 2 or za.ndim != 2:
            raise InvalidInputError(f"sequence {i}: rows must be 2-D (length, vocab)")
        if qa.shape != za.shape:
            raise InvalidInputError(f"sequence {i}: teacher shape {qa.shape} != student shape {za.shape}")
        if qa.shape[0] < 1:
            raise InvalidInputError(f"sequence {i} is empty")
        if qa.shape[1] < 2:
            raise InvalidInputError(f"sequence {i}: vocab must be >= 2")
        if vocab is None:
            vocab = qa.shape[1]
        elif qa.shape[1] != vocab:
            raise InvalidInputError("all sequences must share one vocabulary size")
        if not np.all(np.isfinite(za)):
            raise InvalidInputError(f"sequence {i}: student logits contain non-finite entries")
        teacher.append(as_rows(qa, f"teacher_dists[{i}]"))
        student.append(za)
    return np.concatenate(teacher), np.concatenate(student), [q.shape[0] for q in teacher]


@pytest.mark.parametrize("bad", ["none", "teacher_sum", "teacher_nan", "student_inf", "both", "vocab", "empty"])
def test_packed_batch_equals_the_per_sequence_batch(bad):
    # three sequences of 2, 1 and 3 rows; a bad row in the second or third
    # sequence is refused with the message the per-sequence checks give
    rng = derive_rng(31)
    lengths = [2, 1, 3]
    vocab = 1 if bad == "vocab" else 4
    teacher = rng.dirichlet(np.ones(vocab), size=6)
    student = rng.standard_normal((6, vocab))
    if bad in ("teacher_sum", "both"):
        teacher[4, 0] += 0.25
    if bad == "teacher_nan":
        teacher[2, 1] = np.nan
    if bad in ("student_inf", "both"):
        student[2, 0] = np.inf
    if bad == "empty":
        lengths = [2, 0, 4]
    offsets = np.cumsum([0, *lengths])
    seqs = [[a[i:j] for i, j in zip(offsets[:-1], offsets[1:])] for a in (teacher, student)]
    if bad == "none":
        batch = RolloutBatch(*seqs)
        q, z, want_lengths = _reference_checked_rows(*seqs)
        assert batch.lengths == want_lengths == lengths
        assert _same_bits(batch.offsets, offsets)
        assert _same_bits(batch.teacher, q) and _same_bits(batch.teacher, teacher)
        assert _same_bits(batch.student, z) and _same_bits(batch.student, student)
    else:
        message = _refusal(lambda: _reference_checked_rows(*seqs))
        assert _refusal(lambda: RolloutBatch(*seqs)) == message


_bad_entries = st.sampled_from([np.nan, np.inf, -np.inf, -0.5, 0.25])


@settings(max_examples=100, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 4), min_size=1, max_size=5),
    vocab=st.integers(2, 5),
    bad=st.lists(st.tuples(st.booleans(), st.integers(0, 2**16), st.integers(0, 4), _bad_entries), max_size=3),
    seed=st.integers(0, 2**16),
)
def test_batch_names_the_first_bad_sequence_as_the_per_sequence_checks(lengths, vocab, bad, seed):
    # well-shaped sequences with bad values anywhere: the batch is refused,
    # or built, as the sequence-by-sequence checks refuse or build it
    rng = derive_rng(34, seed)
    teacher = rng.dirichlet(np.ones(vocab), size=sum(lengths))
    student = rng.standard_normal((sum(lengths), vocab))
    for in_teacher, row, col, value in bad:
        (teacher if in_teacher else student)[row % len(teacher), col % vocab] += value
    offsets = np.cumsum([0, *lengths])
    seqs = [[a[i:j] for i, j in zip(offsets[:-1], offsets[1:])] for a in (teacher, student)]
    try:
        q, z, want_lengths = _reference_checked_rows(*seqs)
    except InvalidInputError as exc:
        assert _refusal(lambda: RolloutBatch(*seqs)) == str(exc)
    else:
        batch = RolloutBatch(*seqs)
        assert batch.lengths == want_lengths
        assert _same_bits(batch.teacher, q) and _same_bits(batch.student, z)


@pytest.mark.parametrize("weighting", [UniformWeighting(), PositionWeighting(preset("sharp")), EntropyGateWeighting(1.8)])
def test_alternating_batches_give_each_its_own_loss_and_gradient(weighting):
    # the memo holds one batch: A, B, A must recompute A, and get A's bits
    rng = derive_rng(32)
    a, b = _random_batch(rng, n_seqs=3, vocab=9, max_len=6), _random_batch(rng, n_seqs=2, vocab=9, max_len=6)
    cfg, reduction = ObjectiveConfig(), Reduction.PER_SEQUENCE_MEAN
    seen = []
    for batch in (a, b, a):
        loss = distillation_loss(batch, cfg, weighting, reduction)
        grad = loss_gradient_wrt_student_logits(batch, cfg, weighting, reduction)
        seen.append((loss.hex(), grad.tobytes()))
    assert seen[0] == seen[2] and seen[0] != seen[1]
    # each reader hands out its own array: writing into one leaves the next call's alone
    grad[:] = 0.0
    assert loss_gradient_wrt_student_logits(a, cfg, weighting, reduction).tobytes() == seen[0][1]


@pytest.mark.parametrize("packed", [False, True])
def test_batch_arrays_are_read_only(packed):
    # packed: the sequences are views of one array each, as the trainer
    # passes them; the batch packs copies, and the caller's arrays stay writable
    rng = derive_rng(33)
    teacher, student = rng.dirichlet(np.ones(4), size=5), rng.standard_normal((5, 4))
    if packed:
        batch = RolloutBatch(np.split(teacher, [2]), np.split(student, [2]))
        q, z = teacher.copy(), student.copy()
        teacher += 1.0
        student += 1.0
        assert _same_bits(batch.teacher, q) and _same_bits(batch.student, z)
    else:
        batch = RolloutBatch([teacher], [student])
    for array in (batch.teacher, batch.student, *batch.split(batch.student), *batch.split(batch.teacher)):
        with pytest.raises(ValueError):
            array[0, 0] = 0.5
        with pytest.raises(ValueError):
            array += 1.0


@st.composite
def _theorem_cases(draw):
    """Batches under every weighting (uniform, each preset, and an entropy gate
    at the median row entropy, which closes the rows at or below it), with
    teacher zeros, and a clip that is a drawn constant or exactly one of the
    batch's positive forward-KL terms."""
    vocab = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    teachers, logits = [], []
    for _ in range(draw(st.integers(1, 4))):
        L = draw(st.integers(1, 8))
        q = rng.dirichlet(np.full(vocab, draw(st.sampled_from([0.05, 0.3, 1.0]))), size=L)
        if vocab > 2 and draw(st.booleans()):
            q[np.arange(L), q.argmin(axis=1)] = 0.0
            q /= q.sum(axis=1, keepdims=True)
        teachers.append(q)
        logits.append(draw(st.sampled_from([0.5, 1.0, 4.0])) * rng.standard_normal((L, vocab)))
    batch = RolloutBatch(teachers, logits)
    kind = draw(st.sampled_from(["uniform", *sorted(PRESETS), "gate"]))
    if kind == "uniform":
        weighting = UniformWeighting()
    elif kind == "gate":
        entropies = np.sort(row_entropies(batch.teacher))
        weighting = EntropyGateWeighting(float(entropies[len(entropies) // 2]))
    else:
        weighting = PositionWeighting(preset(kind))
    temperature = draw(st.sampled_from([0.5, 1.1, 2.5]))
    terms = _objective(batch, ObjectiveConfig(temperature, 1.0), weighting).terms
    positive = np.sort(terms[terms > 0.0])
    if positive.size and draw(st.booleans()):
        clip = float(positive[draw(st.integers(0, positive.size - 1))])
    else:
        clip = draw(st.sampled_from([0.01, 0.05, 0.3]))
    return batch, ObjectiveConfig(temperature, clip), weighting


@settings(max_examples=150, deadline=None)
@given(case=_theorem_cases())
def test_clipped_terms_never_pull_their_logit_up(case):
    # where token k's forward-KL term is at or above the clip, k is outside U,
    # so g_k = w * c * p_k * Q_U / T >= 0: descent never raises that logit
    batch, cfg, weighting = case
    obj = _objective(batch, cfg, weighting)
    fkl_rows = np.ones(batch.total_tokens, bool) if obj.gates is None else obj.gates
    assert np.array_equal(~obj.unclipped, obj.terms >= cfg.clip_threshold)
    clipped = (obj.terms >= cfg.clip_threshold) & fkl_rows[:, None]
    for reduction in Reduction:
        g = loss_gradient_wrt_student_logits(batch, cfg, weighting, reduction)
        assert (g[clipped] >= 0.0).all()


def test_per_token_losses_shapes_and_order():
    batch = _random_batch(derive_rng(18), n_seqs=3, vocab=5, max_len=7)
    losses = batch.split(_losses(batch, ObjectiveConfig(), UniformWeighting()))
    assert [l.shape[0] for l in losses] == batch.lengths


# Reference copies of the code that the shared kernels replaced: the per-row
# reverse-KL loops over closed-gate tokens, and the longdouble term code.
def _ref_rkl_value(q_row, p_row):
    logp = np.log(np.maximum(p_row, PROB_FLOOR))
    logq = np.log(np.maximum(q_row, PROB_FLOOR))
    return float(np.where(p_row > 0.0, p_row * (logp - logq), 0.0).sum())


def _ref_per_token_losses(batch, cfg, weighting):
    gates = _gate_masks(batch, weighting)
    out = []
    for i, (q, z) in enumerate(zip(batch.split(batch.teacher), batch.split(batch.student))):
        p = softmax_with_temperature(z, cfg.distill_temperature)
        fkl = np.minimum(fkl_terms(q, p), cfg.clip_threshold).sum(axis=1)
        losses = fkl.copy()
        if gates is not None:
            for t in np.nonzero(~gates[i])[0]:
                losses[t] = _ref_rkl_value(q[t], p[t])
        out.append(losses)
    return out


def _ref_gradient(batch, cfg, weighting, reduction):
    T = cfg.distill_temperature
    weights = batch.split(token_weights(batch, weighting))
    gates = _gate_masks(batch, weighting)
    if reduction is Reduction.GLOBAL_TOKEN_MEAN:
        coefs = [1.0 / batch.total_tokens] * len(batch)
    else:
        coefs = [1.0 / (len(batch) * L) for L in batch.lengths]
    grads = []
    for i, (q, z) in enumerate(zip(batch.split(batch.teacher), batch.split(batch.student))):
        p = softmax_with_temperature(z, T)
        unclipped = fkl_terms(q, p) < cfg.clip_threshold
        q_mass_unclipped = np.where(unclipped, q, 0.0).sum(axis=1, keepdims=True)
        g = (p * q_mass_unclipped - np.where(unclipped, q, 0.0)) / T
        if gates is not None:
            for t in np.nonzero(~gates[i])[0]:
                logp = np.log(np.maximum(p[t], PROB_FLOOR))
                logq = np.log(np.maximum(q[t], PROB_FLOOR))
                g[t] = p[t] * ((logp - logq) - _ref_rkl_value(q[t], p[t])) / T
        g *= (weights[i] * coefs[i])[:, None]
        grads.append(g)
    return grads


def _ref_token_losses_extended(q_row, z_rows, cfg, fkl):
    floor = np.longdouble(PROB_FLOOR)
    z = z_rows.astype(np.longdouble) / np.longdouble(cfg.distill_temperature)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    q = q_row.astype(np.longdouble)
    logp = np.log(np.maximum(p, floor))
    logq = np.log(np.maximum(q, floor))
    zero = np.longdouble(0.0)
    if fkl:
        terms = np.where(q > 0.0, q * (logq - logp), zero)
        return np.minimum(terms, np.longdouble(cfg.clip_threshold)).sum(axis=-1)
    return np.where(p > 0.0, p * (logp - logq), zero).sum(axis=-1)


def _identical(a, b):  # equal values and zero signs, without a longdouble's padding bytes
    same_meta = a.dtype == b.dtype and a.shape == b.shape
    return same_meta and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    vocab=st.sampled_from([2, 3, 12, 129]),
    zeros=st.booleans(),
    gate_at=st.floats(0.0, 1.0),
    temperature=st.sampled_from([0.5, 1.0, 1.1, 2.5]),
    reduction=st.sampled_from(list(Reduction)),
    boundary=st.booleans(),
)
def test_masked_gate_rows_equal_per_row_loops(seed, vocab, zeros, gate_at, temperature, reduction, boundary):
    rng = np.random.default_rng(seed)
    teachers, logits = [], []
    for _ in range(int(rng.integers(1, 4))):
        L = int(rng.integers(1, 9))
        q = rng.dirichlet(np.full(vocab, 0.3), size=L)
        if zeros and vocab > 2:  # exact zeros in the teacher rows
            q[rng.random(q.shape) < 0.3] = 0.0
            q[:, 0] += 0.1
            q /= q.sum(axis=1, keepdims=True)
        teachers.append(q)
        z = 3.0 * rng.standard_normal((L, vocab))
        if zeros:  # a logit this far below the rest gives an exact student zero
            z[:, -1] = -5000.0
        logits.append(z)
    batch = RolloutBatch(teachers, logits)
    entropies = sorted(entropy(row) for q in teachers for row in q)
    # a threshold at a token's entropy: open and closed rows mixed, or all closed
    weighting = EntropyGateWeighting(entropies[int(gate_at * (len(entropies) - 1))])
    cfg = ObjectiveConfig(distill_temperature=temperature, clip_threshold=0.05)
    obj = _objective(batch, cfg, weighting)
    terms = obj.terms[obj.gates] if obj.gates.any() else obj.terms
    if boundary and (terms > 0.0).any():  # a clip exactly at the largest term, of an open row if any
        cfg = ObjectiveConfig(distill_temperature=temperature, clip_threshold=float(terms.max()))
        assert (_objective(batch, cfg, weighting).terms == cfg.clip_threshold).any()
    for got, want in zip(batch.split(_losses(batch, cfg, weighting)), _ref_per_token_losses(batch, cfg, weighting)):
        assert _identical(got, want)
    got_grads = batch.split(loss_gradient_wrt_student_logits(batch, cfg, weighting, reduction))
    for got, want in zip(got_grads, _ref_gradient(batch, cfg, weighting, reduction)):
        assert _identical(got, want)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    vocab=st.sampled_from([2, 3, 12, 129]),
    tokens=st.sampled_from([1, 2, 5]),
    zeros=st.booleans(),
    fkl=st.booleans(),
    temperature=st.sampled_from([0.5, 1.1, 2.5]),
    budget_share=st.floats(0.0, 1.0),
)
def test_extended_token_losses_equal_longdouble_reference(seed, vocab, tokens, zeros, fkl, temperature, budget_share):
    # every token's fd row from _fd_rows equals the quotient of the longdouble
    # reference losses of its 4V perturbed rows, built one by one, and
    # _ref_fd_row's, at a block budget that chunks a token, holds one or several
    rng = np.random.default_rng(seed)
    q = rng.dirichlet(np.full(vocab, 0.5), size=tokens)
    if zeros:
        q[np.arange(tokens), q.argmin(axis=1)] = 0.0
        q /= q.sum(axis=1, keepdims=True)
    z = 30.0 * rng.standard_normal((tokens, vocab))  # large logits give student zeros
    scale = np.longdouble(1.0) / rng.integers(1, 50, size=tokens)
    cfg = ObjectiveConfig(distill_temperature=temperature, clip_threshold=0.05)
    step = 1e-5
    budget = 1 + int(budget_share * 3 * 4 * vocab * vocab)
    with mock.patch.object(objectives_module, "_FD_BLOCK_ENTRIES", budget):
        got = objectives_module._fd_rows(q, z, scale, cfg, fkl, step)
    assert got.shape == z.shape and got.dtype == np.float64
    h = np.longdouble(step)
    for t in range(tokens):
        rows = np.tile(z[t], (4, vocab, 1))  # row (o, k): coordinate k moved by o * step
        rows[:, np.arange(vocab), np.arange(vocab)] = z[t] + _FD_OFFSETS[:, None] * step
        probes = _ref_token_losses_extended(q[t], rows, cfg, fkl)
        for index in [(0, 0), (3, vocab - 1)]:  # one row alone, as the scalar stencil took it
            one = _reference_token_loss(q[t], rows[index], temperature, 0.05, fkl)
            assert _identical(np.asarray(probes[index]), np.asarray(one))
        quotient = (probes[0] - 8.0 * probes[1] + 8.0 * probes[2] - probes[3]) / (12.0 * h)
        assert _same_bits(got[t], (scale[t] * quotient).astype(np.float64))
        assert _same_bits(got[t], _ref_fd_row(q[t], z[t], scale[t], cfg, fkl, step))


# Reference copies of the per-sequence code the packed (N_tokens, V) batch
# replaced, run on the old layout: one (L_i, V) array per sequence.
class _ListBatch:
    def __init__(self, teacher_dists, student_logits):
        self.teacher_dists = [np.asarray(q, dtype=float) for q in teacher_dists]
        self.student_logits = [np.asarray(z, dtype=float) for z in student_logits]

    @property
    def lengths(self):
        return [q.shape[0] for q in self.teacher_dists]

    @property
    def total_tokens(self):
        return sum(self.lengths)

    def __len__(self):
        return len(self.teacher_dists)


def _seq_token_weights(batch, weighting):
    out = []
    for q in batch.teacher_dists:
        L = q.shape[0]
        if isinstance(weighting, PositionWeighting):
            out.append(weights_for_length(L, weighting.schedule))
        else:
            out.append(np.ones(L))
    return out


def _seq_gate_masks(batch, weighting):
    if not isinstance(weighting, EntropyGateWeighting):
        return None
    return [row_entropies(q) > weighting.gate_threshold for q in batch.teacher_dists]


def _seq_per_token_losses(batch, cfg, weighting):
    gates = _seq_gate_masks(batch, weighting)
    out = []
    for i, (q, z) in enumerate(zip(batch.teacher_dists, batch.student_logits)):
        p = softmax_with_temperature(z, cfg.distill_temperature)
        losses = np.minimum(fkl_terms(q, p), cfg.clip_threshold).sum(axis=1)
        if gates is not None:  # reverse KL on the closed-gate rows
            closed = ~gates[i]
            losses[closed] = fkl_terms(p[closed], q[closed]).sum(axis=1)
        out.append(losses)
    return out


def _seq_reduction_coefficients(batch, reduction):
    if reduction is Reduction.GLOBAL_TOKEN_MEAN:
        total = batch.total_tokens
        return [1.0 / total] * len(batch)
    if reduction is Reduction.PER_SEQUENCE_MEAN:
        B = len(batch)
        return [1.0 / (B * L) for L in batch.lengths]
    raise InvalidInputError(f"unknown reduction {reduction!r}")


def _seq_gradient(batch, cfg, weighting, reduction):
    T = cfg.distill_temperature
    weights = _seq_token_weights(batch, weighting)
    gates = _seq_gate_masks(batch, weighting)
    coefs = _seq_reduction_coefficients(batch, reduction)
    grads = []
    for i, (q, z) in enumerate(zip(batch.teacher_dists, batch.student_logits)):
        p = softmax_with_temperature(z, T)
        unclipped = fkl_terms(q, p) < cfg.clip_threshold
        q_mass_unclipped = np.where(unclipped, q, 0.0).sum(axis=1, keepdims=True)
        g = (p * q_mass_unclipped - np.where(unclipped, q, 0.0)) / T
        if gates is not None:
            closed = ~gates[i]
            pc, qc = p[closed], q[closed]
            rkl = fkl_terms(pc, qc).sum(axis=1, keepdims=True)
            g[closed] = pc * ((floored_log(pc) - floored_log(qc)) - rkl) / T
        g *= (weights[i] * coefs[i])[:, None]
        grads.append(g)
    return grads


def _seq_fd_check(batch, cfg, weighting, reduction, rows, step=1e-5, rel_floor=1e-8, max_tokens=None):
    # appends (q_row bytes, z_row bytes, scale, fkl, fd row) of each compared token to `rows`
    analytic = _seq_gradient(batch, cfg, weighting, reduction)
    weights = _seq_token_weights(batch, weighting)
    gates = _seq_gate_masks(batch, weighting)
    margin = 10.0 * step
    total = batch.total_tokens

    max_rel = 0.0
    max_abs = 0.0
    compared = 0
    skipped = 0
    tokens_done = 0
    for i, z in enumerate(batch.student_logits):
        if max_tokens is not None and tokens_done >= max_tokens:
            break
        p = softmax_with_temperature(z, cfg.distill_temperature)
        raw = fkl_terms(batch.teacher_dists[i], p)
        for t in range(z.shape[0]):
            if max_tokens is not None and tokens_done >= max_tokens:
                break
            fkl_token = gates is None or gates[i][t]
            if fkl_token and np.any(np.abs(raw[t] - cfg.clip_threshold) <= margin):
                skipped += 1
                continue
            tokens_done += 1
            w = float(weights[i][t])
            if reduction is Reduction.GLOBAL_TOKEN_MEAN:
                scale = np.longdouble(w / total)
            else:
                scale = np.longdouble(w / z.shape[0] / len(batch))
            fd = _ref_fd_row(batch.teacher_dists[i][t], z[t], scale, cfg, fkl_token, step)
            rows.append((batch.teacher_dists[i][t].tobytes(), z[t].tobytes(), scale, fkl_token, fd))
            a = analytic[i][t]
            err = np.abs(fd - a)
            rel = np.abs(a) > rel_floor
            max_rel = np.max(err[rel] / np.abs(a[rel]), initial=max_rel)
            max_abs = np.max(err[~rel], initial=max_abs)
            compared += fd.size
    return FiniteDifferenceReport(float(max_rel), float(max_abs), compared, skipped)


@st.composite
def _ragged_cases(draw, max_vocab=129, max_len=40, max_cells=None):
    """Random ragged sequences, with exact teacher and student zeros, every
    weighting kind (gate thresholds exactly at one token's entropy), both
    reductions and every temperature the CLI defaults use. `max_cells`
    bounds length * vocab^2, a sequence's finite-difference work."""
    vocab = draw(st.integers(2, max_vocab))
    if max_cells is not None:
        max_len = max(1, min(max_len, max_cells // vocab**2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = draw(st.booleans())
    teachers, logits = [], []
    for _ in range(draw(st.integers(1, 5))):
        L = draw(st.integers(1, max_len))
        q = rng.dirichlet(np.full(vocab, draw(st.sampled_from([0.05, 0.3, 1.0]))), size=L)
        z = draw(st.sampled_from([0.5, 1.0, 4.0])) * rng.standard_normal((L, vocab))
        if zeros and vocab > 2:
            q[rng.random(q.shape) < 0.3] = 0.0  # exact teacher zeros
            q[:, 0] += 0.1
            q /= q.sum(axis=1, keepdims=True)
            z[:, -1] = -5000.0  # an exact student zero
        teachers.append(q)
        logits.append(z)
    kind = draw(st.sampled_from(["uniform", "position", "gate"]))
    if kind == "uniform":
        weighting = UniformWeighting()
    elif kind == "position":
        weighting = PositionWeighting(preset(draw(st.sampled_from(sorted(PRESETS)))))
    else:
        entropies = sorted(entropy(row) for q in teachers for row in q)
        weighting = EntropyGateWeighting(draw(st.sampled_from(entropies)))
    cfg = ObjectiveConfig(
        distill_temperature=draw(st.sampled_from([0.5, 0.7, 1.0, 1.1, 2.5])),
        clip_threshold=draw(st.sampled_from([0.01, 0.05, 0.3])),
    )
    reduction = draw(st.sampled_from(list(Reduction)))
    total = sum(q.shape[0] for q in teachers)
    return teachers, logits, cfg, weighting, reduction, draw(st.sampled_from([None, *range(1, total + 1)]))


# five sequences of 7, 9 and 11 tokens: 1/9/5 != 1/(9*5) and 1/(5*L) != 1/5/L
# for L = 7, 11, so the finite-difference scale and the gradient coefficient
# must each keep their own float operations
_FIVE_RAGGED = (
    [np.full((L, 3), 1.0 / 3.0) for L in (7, 9, 11, 9, 7)],
    [np.arange(3.0 * L).reshape(L, 3) / 10.0 for L in (7, 9, 11, 9, 7)],
    ObjectiveConfig(),
    UniformWeighting(),
    Reduction.PER_SEQUENCE_MEAN,
    None,
)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(case=_ragged_cases())
@example(case=_FIVE_RAGGED)
def test_packed_objective_equals_per_sequence_reference(case):
    teachers, logits, cfg, weighting, reduction, _ = case
    batch, ref = RolloutBatch(teachers, logits), _ListBatch(teachers, logits)
    pairs = [
        (batch.split(token_weights(batch, weighting)), _seq_token_weights(ref, weighting)),
        (batch.split(_losses(batch, cfg, weighting)), _seq_per_token_losses(ref, cfg, weighting)),
        (
            batch.split(loss_gradient_wrt_student_logits(batch, cfg, weighting, reduction)),
            _seq_gradient(ref, cfg, weighting, reduction),
        ),
    ]
    gates, ref_gates = _gate_masks(batch, weighting), _seq_gate_masks(ref, weighting)
    assert (gates is None) == (ref_gates is None)
    if gates is not None:
        pairs.append((gates, ref_gates))
    for got, want in pairs:
        assert len(got) == len(want)
        assert all(_same_bits(g, w) for g, w in zip(got, want))
    loss = distillation_loss(batch, cfg, weighting, reduction)
    want = weighted_reduction(
        _seq_per_token_losses(ref, cfg, weighting), _seq_token_weights(ref, weighting), reduction
    )
    assert np.float64(loss).tobytes() == np.float64(want).tobytes()


@settings(max_examples=80, deadline=None)
@given(case=_ragged_cases(max_len=12, max_cells=10_000))
@example(case=_FIVE_RAGGED)
def test_packed_fd_check_equals_nested_loop_reference(case):
    teachers, logits, cfg, weighting, reduction, max_tokens = case
    batch, ref = RolloutBatch(teachers, logits), _ListBatch(teachers, logits)
    got_rows, want_rows = [], []
    with _spied_fd_rows(got_rows):
        got = finite_difference_check(batch, cfg, weighting, reduction, max_tokens=max_tokens)
    want = _seq_fd_check(ref, cfg, weighting, reduction, want_rows, max_tokens=max_tokens)
    assert got == want
    assert len(got_rows) == len(want_rows)
    for (q, z, scale, fkl, fd), (q_ref, z_ref, scale_ref, fkl_ref, fd_ref) in zip(
        got_rows, _by_gate_kind(want_rows, 3)
    ):
        assert (q, z, fkl) == (q_ref, z_ref, fkl_ref)
        assert scale.dtype == scale_ref.dtype and scale == scale_ref
        assert _same_bits(fd, fd_ref)


@settings(max_examples=50, deadline=None)
@given(case=_ragged_cases(max_vocab=8))
def test_split_views_cover_the_packed_rows_once(case):
    teachers, logits = case[:2]
    batch = RolloutBatch(teachers, logits)
    covered = np.zeros(batch.total_tokens, dtype=int)
    row_bytes = batch.teacher.strides[0]
    for view, q in zip(batch.split(batch.teacher), teachers, strict=True):
        assert view.base is batch.teacher  # a view, not a copy
        assert np.array_equal(view, q)
        start = (view.__array_interface__["data"][0] - batch.teacher.__array_interface__["data"][0]) // row_bytes
        covered[start : start + view.shape[0]] += 1
    assert np.all(covered == 1)
    assert batch.offsets[0] == 0 and batch.offsets[-1] == batch.total_tokens
    assert batch.lengths == [q.shape[0] for q in teachers]
    assert all(np.array_equal(z, want) for z, want in zip(batch.split(batch.student), logits, strict=True))
