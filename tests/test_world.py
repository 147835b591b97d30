import dataclasses
import json
import os
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import distillab.trainer as trainer_module
import distillab.world as world_module
from distillab.dists import floored_log, softmax_with_temperature, temperature_scaled
from distillab.errors import InvalidInputError
from distillab.seeding import TAG_ENSEMBLE, TAG_FORCE, TAG_PROBLEM, derive_rng
from distillab.stats import BootstrapConfig
from distillab.trainer import TrainConfig
from distillab.uncertainty import score_ensemble
from distillab.viability import Label, LabelThresholds
from distillab.world import (
    AMBIGUITY_JITTER,
    BRANCH_DENSITY,
    DIVERSE,
    EARLY_CUTOFF,
    PLAIN,
    STUDENT_BACKGROUND,
    TEACHER_BACKGROUND,
    UNRELIABLE,
    DiagnosticReport,
    WorldConfig,
    default_filter_for_depth,
    forced_continuation,
    generate_problem,
    nucleus_rows,
    nucleus_sample,
    run_diagnostic,
    student_rollout,
    teacher_ensemble,
)


def _small_cfg(**kw):
    base = dict(vocab_size=10, depth=16, branch_count=3, seed=0)
    base.update(kw)
    return WorldConfig(**base)


def test_problems_compare_and_hash_by_identity():
    cfg = _small_cfg()
    a, b = generate_problem(cfg, 0), generate_problem(cfg, 0)
    # a field-wise comparison raised ValueError on the array fields
    assert a == a and a != b
    episodes = {student_rollout(a), student_rollout(a), student_rollout(b)}
    assert len(episodes) == 2


def test_problem_generation_is_deterministic():
    cfg = _small_cfg()
    a = generate_problem(cfg, 3)
    b = generate_problem(cfg, 3)
    assert a.length == b.length
    assert a.gold_token == b.gold_token
    assert np.array_equal(a.teacher, b.teacher)
    assert np.array_equal(a.student, b.student)
    assert np.array_equal(a.canon, b.canon)
    # a different index gives a different problem somewhere
    c = generate_problem(cfg, 4)
    assert c.problem_id != a.problem_id


def test_problem_shapes_and_rows_are_distributions():
    cfg = _small_cfg()
    p = generate_problem(cfg, 0)
    B, V = cfg.branch_count, cfg.vocab_size
    assert cfg.depth // 2 <= p.length <= cfg.depth
    assert p.teacher.shape == (p.length, B + 1, V)
    assert p.student.shape == (p.length, B + 1, V)
    assert np.all(p.teacher >= 0.0)
    assert np.all(np.abs(p.teacher.sum(axis=-1) - 1.0) < 1e-12)
    assert np.all(np.abs(p.student.sum(axis=-1) - 1.0) < 1e-12)
    assert p.kind.shape == (p.length - 1, B)
    assert p.canon.shape == (p.length - 1, B)
    assert p.gold_token != p.wrong_token
    assert p.dead_lane == B
    assert p.answer_position == p.length - 1
    assert p.gold_answer == str(p.gold_token)


def _alternatives(problem, t, lane):
    # a state's (token, target lane) pairs: the alternative tokens, sent where their kind says
    tokens = [tok for tok in problem.alts[t, lane].tolist() if tok >= 0]
    if problem.kind[t, lane] == DIVERSE:
        return [(tok, (lane + 1 + j) % problem.cfg.branch_count) for j, tok in enumerate(tokens)]
    return [(tok, problem.dead_lane) for tok in tokens]


def test_transition_semantics():
    cfg = _small_cfg()
    p = generate_problem(cfg, 1)
    # canonical token keeps the lane
    for t in range(p.length - 1):
        for z in range(cfg.branch_count):
            assert p.transition(t, z, int(p.canon[t, z])) == z
    # dead lane is absorbing under any token
    for tok in range(cfg.vocab_size):
        assert p.transition(0, p.dead_lane, tok) == p.dead_lane
    # alternatives go where the table says; anything else dies
    for t in range(p.length - 1):
        for z in range(cfg.branch_count):
            listed = dict(_alternatives(p, t, z))
            for tok in range(cfg.vocab_size):
                got = p.transition(t, z, tok)
                if tok == p.canon[t, z]:
                    assert got == z
                elif tok in listed:
                    assert got == listed[tok]
                else:
                    assert got == p.dead_lane


def test_branch_kinds_control_alternative_targets():
    cfg = _small_cfg(depth=48)
    p = generate_problem(cfg, 2)
    found_diverse = found_unreliable = False
    for t in range(p.length - 1):
        for z in range(cfg.branch_count):
            k = int(p.kind[t, z])
            targets = [p.transition(t, z, tok) for tok in p.children(t, z)[1:]]
            if k == DIVERSE:
                found_diverse = True
                assert len(targets) == 2
                assert all(tgt != p.dead_lane for tgt in targets)
            elif k == UNRELIABLE:
                found_unreliable = True
                assert len(targets) == 3
                assert all(tgt == p.dead_lane for tgt in targets)
            else:
                assert k == PLAIN
                assert targets == []
    assert found_diverse and found_unreliable


def test_children_and_ground_truth_viability():
    cfg = _small_cfg()
    p = generate_problem(cfg, 5)
    t = 0
    for z in range(cfg.branch_count):
        kids = p.children(t, z)
        assert kids[0] == int(p.canon[t, z])
        assert p.transition(t, z, kids[0]) != p.dead_lane
        if int(p.kind[t, z]) == UNRELIABLE:
            for tok in kids[1:]:
                assert p.transition(t, z, tok) == p.dead_lane
        if int(p.kind[t, z]) == DIVERSE:
            for tok in kids[1:]:
                assert p.transition(t, z, tok) != p.dead_lane
    # answer layer: a viable lane's only child is the gold token
    ap = p.answer_position
    assert p.children(ap, 0) == [p.gold_token]
    assert p.children(ap, p.dead_lane) == [p.wrong_token]


def test_greedy_rollout_is_correct_and_stays_in_lane_zero():
    cfg = _small_cfg()
    for index in range(6):
        p = generate_problem(cfg, index)
        trace = student_rollout(p)
        assert trace.correct
        assert trace.lanes == tuple([0] * p.length)
        assert trace.tokens[-1] == p.gold_token
        assert trace.rows(p.teacher).shape == (p.length, cfg.vocab_size)


def _table_rows(table, top_p):
    """The nucleus rows of a (L, K, V) table as `nucleus_sample` takes them,
    in the form `StudentParams.policy` gives: V columns, one start per row."""
    L, K, V = table.shape
    order, cum, _ = nucleus_rows(table.reshape(-1, V), top_p)
    return order.reshape(-1), cum.reshape(L, K, V), np.arange(L * K).reshape(L, K) * V


def test_nucleus_sample_properties():
    rng = derive_rng(71)
    p = np.array([[[0.7, 0.2, 0.1]]])
    # top_p below the head keeps only the argmax: draw is deterministic
    head = _table_rows(p, 0.5)
    for _ in range(10):
        assert nucleus_sample(rng, *head).tolist() == [[0]]
    # top_p = 1 is plain categorical: all tokens appear over many draws
    full = _table_rows(p, 1.0)
    seen = {int(nucleus_sample(rng, *full)[0, 0]) for _ in range(400)}
    assert seen == {0, 1, 2}
    # zero-probability tokens are never drawn
    q = _table_rows(np.array([[[0.5, 0.5, 0.0]]]), 1.0)
    assert all(nucleus_sample(rng, *q)[0, 0] != 2 for _ in range(200))
    for bad in (0.0, -0.5, 1.5, float("nan")):
        with pytest.raises(InvalidInputError, match="top_p must lie in"):
            nucleus_rows(p[0], bad)


def _reference_nucleus_sample(rng, probs, top_p):
    # the row-by-row algorithm: sort, cut, renormalize, then draw
    p = np.asarray(probs, dtype=float)
    order = np.argsort(-p, kind="stable")
    cum = np.cumsum(p[order])
    cut = int(np.searchsorted(cum, top_p, side="left")) + 1
    kept = order[:cut]
    kp = p[kept]
    kp = kp / kp.sum()
    u = rng.random()
    return int(kept[np.searchsorted(np.cumsum(kp), u, side="right").clip(0, len(kept) - 1)])


class _GivenUniforms:
    """A generator stand-in whose `random()` returns the first given uniform
    and `random(size)` all of them in that shape."""

    def __init__(self, uniforms):
        self.uniforms = np.array(uniforms, dtype=float)

    def random(self, size=None):
        return float(self.uniforms[0]) if size is None else self.uniforms.reshape(size)


def _assert_table_draw_equals_reference(tokens, table, top_p, uniforms):
    """Each row of a (L, K, V) table, drawn with its layer's uniform by the
    reference, gives the token the table draw gave it."""
    assert tokens.shape == table.shape[:-1]
    for t, u in enumerate(uniforms):
        for lane, row in enumerate(table[t]):
            assert tokens[t, lane] == _reference_nucleus_sample(_GivenUniforms([u]), row, top_p)


# Logits with ties, and entries so far below the rest that their softmax
# underflows to exactly 0.
_logit_entries = st.sampled_from([0.0, 0.0, 1.0, 2.5, -3.0, -800.0])


@st.composite
def _policy_calls(draw):
    """Logit tables of a few problems, draws that revisit them (cache hits),
    and one entry edited in place partway through."""
    cfg = draw(
        st.builds(WorldConfig, vocab_size=st.integers(4, 8), depth=st.integers(4, 8), branch_count=st.integers(1, 2))
    )
    problems = [generate_problem(cfg, i) for i in range(draw(st.integers(1, 3)))]
    tables = {
        p.problem_id: np.array(
            draw(st.lists(_logit_entries, min_size=p.teacher.size, max_size=p.teacher.size))
        ).reshape(p.teacher.shape)
        for p in problems
    }
    calls = draw(st.lists(st.integers(0, len(problems) - 1), min_size=1, max_size=20))
    at = draw(st.integers(0, len(calls)))
    edit = draw(st.tuples(st.integers(0, 7), st.integers(0, 2), st.integers(0, cfg.vocab_size - 1), _logit_entries))
    return problems, tables, calls, at, edit


@settings(max_examples=200, deadline=None)
@given(case=_policy_calls(), seed=st.integers(0, 2**32))
def test_memoised_nucleus_sample_equals_reference(case, seed):
    # `StudentParams.policy` is the one memo of nucleus rows: every draw from
    # it equals the row-by-row draw from the softmax of the current logits
    problems, tables, calls, at, (t, lane, token, value) = case
    theta = trainer_module.StudentParams(tables)
    fast_rng, slow_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for k, i in enumerate(calls):
        p = problems[i]
        if k == at:  # same array, new contents
            theta.tables[p.problem_id][t % p.length, lane % p.teacher.shape[1], token] = value
        tokens = nucleus_sample(fast_rng, *theta.policy([p])[p])
        probs = softmax_with_temperature(theta.tables[p.problem_id], 1.0)
        _assert_table_draw_equals_reference(tokens, probs, 1.0, [slow_rng.random() for _ in range(p.length)])


# Row entries with exact zeros, ties, and masses far apart: a row like
# (0.5, 0.5, 1e-18) has a cumulative sum that reaches 1.0 before its last
# token, so even top_p = 1 cuts its nucleus inside the row.
_row_entries = st.sampled_from([0.0, 1.0, 1.0, 2.0, 3.0, 1e-18, 1e-300, 1e17])


@st.composite
def _tables(draw):
    layers, lanes, vocab = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(2, 12))
    if draw(st.booleans()):
        rows = st.lists(_row_entries, min_size=vocab, max_size=vocab).filter(any)
        mass = np.array(draw(st.lists(rows, min_size=layers * lanes, max_size=layers * lanes)))
    else:
        alpha = draw(st.sampled_from([0.05, 0.5, 5.0]))
        mass = np.random.default_rng(draw(st.integers(0, 2**32))).dirichlet(
            np.full(vocab, alpha), size=layers * lanes
        )
    table = (mass / mass.sum(axis=1, keepdims=True)).reshape(layers, lanes, vocab)
    return table, draw(st.integers(0, layers - 1))


# dyadic top_p and uniforms: cumulative sums of rows like (1, 1, 2) / 4 hit
# them exactly, where `<` against `<=` decides the nucleus and the draw
_table_top_ps = st.sampled_from([1.0, 0.999, 0.95, 0.75, 0.6, 0.5, 0.3, 0.25, 1e-6])
_boundary_uniforms = st.sampled_from([0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1 - 2**-53])


@settings(max_examples=300, deadline=None)
@given(case=_tables(), top_p=_table_top_ps, seed=st.integers(0, 2**32), data=st.data())
def test_table_draw_equals_the_reference_row_by_row(case, top_p, seed, data):
    table, start = case
    rest = table[start:]  # a walk that starts past layer 0 draws from the rest
    rows = _table_rows(rest, top_p)
    fast_rng, slow_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):  # repeated draws from one table's rows
        uniforms = [slow_rng.random() for _ in range(len(rest))]  # one per layer
        tokens = nucleus_sample(fast_rng, *rows)
        _assert_table_draw_equals_reference(tokens, rest, top_p, uniforms)
        assert fast_rng.random() == slow_rng.random()  # both consumed the same uniforms
    # uniforms exactly on a cumulative mass: the draw is bisect_right
    uniforms = data.draw(st.lists(_boundary_uniforms, min_size=len(rest), max_size=len(rest)))
    tokens = nucleus_sample(_GivenUniforms(uniforms), *rows)
    _assert_table_draw_equals_reference(tokens, rest, top_p, uniforms)


def test_forced_continuation_basics():
    cfg = _small_cfg()
    p = generate_problem(cfg, 0)
    trace = student_rollout(p)
    t = 2
    canon = int(p.canon[t, 0])
    outcome = forced_continuation(p, trace, t, canon)
    assert isinstance(outcome, bool)
    # determinism
    assert outcome == forced_continuation(p, trace, t, canon)
    # the per-attempt loop's attempts all walk to this one outcome
    assert [correct for *_, correct in _reference_forced_continuation(p, trace, t, canon, 4)] == [outcome] * 4
    with pytest.raises(InvalidInputError):
        forced_continuation(p, trace, p.length - 1, p.gold_token)
    bad_children = [tok for tok in range(cfg.vocab_size) if tok not in p.children(t, 0)]
    with pytest.raises(InvalidInputError):
        forced_continuation(p, trace, t, bad_children[0])


def test_forcing_a_dead_child_never_recovers():
    # a token that enters the dead lane can only reach the wrong answer
    cfg = _small_cfg(depth=48)
    p = generate_problem(cfg, 2)
    trace = student_rollout(p)
    tried = 0
    for t in range(p.length - 1):
        if int(p.kind[t, 0]) == UNRELIABLE:
            for tok in p.children(t, 0)[1:]:
                assert p.transition(t, 0, tok) == p.dead_lane
                assert forced_continuation(p, trace, t, int(tok)) is False
                assert [correct for *_, correct in _reference_forced_continuation(p, trace, t, tok, 5)] == [False] * 5
                tried += 1
            break
    assert tried == 3


def test_teacher_ensemble_zero_perturbation_is_exact():
    cfg = _small_cfg()
    p = generate_problem(cfg, 0)
    ens = teacher_ensemble([p], [1], [0], members=4, perturb_scale=0.0)
    assert ens.shape == (1, 4, cfg.vocab_size)
    for row in ens[0]:
        assert np.array_equal(row, p.teacher[1, 0])
    # exact copies carry zero mutual information
    assert score_ensemble(ens)[0]["mutual_information"] < 1e-14


def test_teacher_ensemble_perturbation_is_seeded_and_spreads():
    cfg = _small_cfg()
    p = generate_problem(cfg, 0)
    e1 = teacher_ensemble([p], [1], [0], members=5, perturb_scale=0.1)
    e2 = teacher_ensemble([p], [1], [0], members=5, perturb_scale=0.1)
    assert np.array_equal(e1, e2)
    assert np.all(np.abs(e1.sum(axis=-1) - 1.0) < 1e-12)
    assert score_ensemble(e1)[0]["mutual_information"] > 0.0
    with pytest.raises(InvalidInputError):
        teacher_ensemble([p], [1], [0], members=1)
    with pytest.raises(InvalidInputError):
        teacher_ensemble([p], [1], [0], perturb_scale=-0.1)


def test_world_config_validation():
    with pytest.raises(InvalidInputError):
        WorldConfig(vocab_size=3)
    with pytest.raises(InvalidInputError):
        WorldConfig(depth=3)
    with pytest.raises(InvalidInputError):
        WorldConfig(branch_count=0)
    with pytest.raises(InvalidInputError):
        WorldConfig(early_dead_fraction=1.5)
    with pytest.raises(InvalidInputError):
        WorldConfig(ambiguity_mass=0.0)
    with pytest.raises(InvalidInputError):
        WorldConfig(seed=-1)
    with pytest.raises(InvalidInputError):
        generate_problem(WorldConfig(), -1)


def test_default_filter_scales_spacing_with_depth():
    assert default_filter_for_depth(48).spacing == 3
    assert default_filter_for_depth(8).spacing == 1
    assert default_filter_for_depth(1024).spacing == 64


def _reference_position_curve(candidates):
    # the per-bin scan that the one searchsorted pass replaced
    curve = []
    edges = np.linspace(0.0, 1.0, 11)
    for lo, hi in zip(edges[:-1], edges[1:]):
        in_bin = [c for c in candidates if lo <= c.normalized_position < hi]
        n = len(in_bin)
        curve.append({
            "bin_low": float(lo),
            "bin_high": float(hi),
            "n": n,
            "real_uncertain_rate": sum(c.label is Label.REAL_UNCERTAIN for c in in_bin) / n if n else None,
            "ground_truth_reliable_rate": sum(bool(c.ground_truth_reliable) for c in in_bin) / n if n else None,
        })
    return curve


def test_diagnostic_on_a_small_world():
    cfg = _small_cfg(depth=24)
    report = run_diagnostic(cfg, n_problems=12, continuations_per_child=4)
    assert isinstance(report, DiagnosticReport)
    assert report.n_problems == 12
    assert 1 <= report.n_correct_spines <= 12
    assert sum(report.label_counts.values()) == len(report.candidates)
    for name in ("oriented_position", "truncated_entropy", "mean_entropy",
                 "mutual_information", "log_kappa"):
        rep = report.reports[name]
        assert 0.0 <= rep["point_auroc"] <= 1.0
        assert rep["ci"][0] <= rep["ci"][1]
    assert len(report.position_curve) == 10
    assert json.dumps(report.position_curve) == json.dumps(_reference_position_curve(report.candidates))
    # 4-token spines leave most bins empty
    tiny = run_diagnostic(_small_cfg(vocab_size=4, depth=4, branch_count=1), n_problems=12)
    assert [row["n"] for row in tiny.position_curve].count(0) > 0
    assert json.dumps(tiny.position_curve) == json.dumps(_reference_position_curve(tiny.candidates))
    for cand in report.candidates:
        assert cand.label is not None
        assert cand.child_viabilities is not None
        assert set(cand.scores) == {
            "oriented_position", "truncated_entropy", "mean_entropy",
            "mutual_information", "log_kappa",
        }
        assert cand.ground_truth_reliable is not None
    with pytest.raises(InvalidInputError):
        run_diagnostic(cfg, n_problems=1)


def test_diagnostic_is_deterministic():
    cfg = _small_cfg(depth=24)
    r1 = run_diagnostic(cfg, n_problems=8, continuations_per_child=3)
    r2 = run_diagnostic(cfg, n_problems=8, continuations_per_child=3)
    assert r1.label_counts == r2.label_counts
    assert [c.to_json_dict() for c in r1.candidates] == [c.to_json_dict() for c in r2.candidates]
    assert r1.reports == r2.reports


def test_diagnostic_does_not_depend_on_threads(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # fork even on a one-CPU host
    cfg = _small_cfg(depth=24)
    boot = BootstrapConfig(resamples=40, seed=0)
    serial = run_diagnostic(cfg, n_problems=7, bootstrap_cfg=boot, continuations_per_child=3)
    for threads in (2, 3, 8):
        sharded = run_diagnostic(
            cfg, n_problems=7, bootstrap_cfg=boot, continuations_per_child=3, threads=threads
        )
        assert sharded.spines == serial.spines
        assert [c.to_json_dict() for c in sharded.candidates] == [
            c.to_json_dict() for c in serial.candidates
        ]
        assert sharded.n_correct_spines == serial.n_correct_spines
        assert sharded.reports == serial.reports
        assert sharded.position_curve == serial.position_curve
        assert (serial.workers, sharded.workers) == (1, min(threads, 7))


# Reference copies of the rollout loops that `world.walk` replaced: the world
# student's greedy spine, the forced continuation (at diagnose's T = 1,
# top_p = 0.95) and the trainer's rollout, with the trace builder they shared.
# Each records its lanes too.


def _reference_trace(problem, tokens, lanes):
    t_rows = np.array([problem.teacher[t, lane] for t, lane in enumerate(lanes)])
    s_rows = np.array([problem.student[t, lane] for t, lane in enumerate(lanes)])
    answer = str(tokens[-1])
    return tuple(tokens), tuple(lanes), t_rows, s_rows, answer, answer == problem.gold_answer


def _reference_student_rollout(problem):
    lane = 0
    tokens, lanes = [], []
    for t in range(problem.length):
        token = int(np.argmax(problem.student[t, lane]))
        tokens.append(token)
        lanes.append(lane)
        if t < problem.length - 1:
            lane = problem.transition(t, lane, token)
    return _reference_trace(problem, tokens, lanes)


def _reference_forced_continuation(problem, spine, position, forced_token, attempts):
    # the per-attempt loop that the outcome table replaced: one generator per
    # attempt, then one row draw per layer from the forced token's lane to the
    # answer; each attempt's tokens, lanes and correctness
    after = problem.transition(position, spine.lanes[position], int(forced_token))
    walks = []
    for a in range(attempts):
        rng = derive_rng(
            problem.cfg.seed, TAG_FORCE, problem.index, position, int(forced_token), a
        )
        lane_now = after
        tokens, lanes = [], []
        for t in range(position + 1, problem.length):
            token = _reference_nucleus_sample(rng, problem.student[t, lane_now], 0.95)
            tokens.append(token)
            lanes.append(lane_now)
            if t < problem.length - 1:
                lane_now = problem.transition(t, lane_now, token)
        walks.append((tuple(tokens), tuple(lanes), str(token) == problem.gold_answer))
    return walks


def _reference_rollout_from_params(problem, theta, rng):
    probs = softmax_with_temperature(theta, 1.0)
    lane = 0
    tokens, lanes = [], []
    for t in range(problem.length):
        token = _reference_nucleus_sample(rng, probs[t, lane], 1.0)
        tokens.append(token)
        lanes.append(lane)
        if t < problem.length - 1:
            lane = problem.transition(t, lane, token)
    answer = str(tokens[-1])
    return tokens, lanes, answer, answer == problem.gold_answer


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


def _assert_matches_trace(episode, reference):
    tokens, lanes, t_rows, s_rows, answer, correct = reference
    assert episode.tokens == tokens
    assert episode.lanes == lanes
    assert _bits(episode.rows(episode.problem.teacher)) == _bits(t_rows)
    assert _bits(episode.rows(episode.problem.student)) == _bits(s_rows)
    assert (episode.answer, episode.correct) == (answer, correct)


_worlds = st.builds(
    WorldConfig,
    vocab_size=st.integers(4, 12),
    depth=st.integers(4, 24),
    branch_count=st.integers(1, 4),
    early_dead_fraction=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    late_dead_fraction=st.sampled_from([0.0, 0.05, 0.5]),
    seed=st.integers(0, 2**16),
)


def _reference_transition(problem, t, lane, token):
    # the scan that the next-lane table replaced
    if lane == problem.dead_lane:
        return problem.dead_lane
    if token == problem.canon[t, lane]:
        return lane
    for tok, target in _alternatives(problem, t, lane):
        if token == tok:
            return target
    return problem.dead_lane


@settings(max_examples=40, deadline=None)
@given(cfg=_worlds, index=st.integers(0, 5))
@example(cfg=WorldConfig(vocab_size=4, depth=4, branch_count=255), index=0)  # lanes fill a byte
@example(cfg=WorldConfig(vocab_size=4, depth=4, branch_count=256), index=0)  # they do not
def test_next_lane_table_equals_the_replaced_transition(cfg, index):
    p = generate_problem(cfg, index)
    B, V = cfg.branch_count, cfg.vocab_size
    assert len(p.next_lane) == p.length - 1
    assert all(len(rows) == B + 1 and all(len(row) == V for row in rows) for rows in p.next_lane)
    for t in range(p.length - 1):
        for lane in range(B + 1):
            for token in range(V):
                expected = _reference_transition(p, t, lane, token)
                assert p.next_lane[t][lane][token] == expected
                assert p.transition(t, lane, token) == expected
            for token in (-1, V):  # outside the vocabulary
                assert p.transition(t, lane, token) == _reference_transition(p, t, lane, token)


@settings(max_examples=40, deadline=None)
@given(cfg=_worlds, index=st.integers(0, 5))
@example(cfg=WorldConfig(vocab_size=5, depth=6, branch_count=255), index=1)  # lanes fill a byte
@example(cfg=WorldConfig(vocab_size=5, depth=6, branch_count=256), index=1)  # they do not
def test_next_lane_equals_the_per_alternative_writes(cfg, index):
    p = generate_problem(cfg, index)
    dead = p.dead_lane
    table = np.full((p.length - 1, dead + 1, cfg.vocab_size), dead)
    layer, lane = np.indices(p.canon.shape)
    table[layer, lane, p.canon] = lane
    for t in range(p.length - 1):  # one scalar write per alternative
        for z in range(cfg.branch_count):
            for tok, target in _alternatives(p, t, z):
                table[t, z, tok] = target
    pack = bytes if dead < 256 else list
    assert p.next_lane == [[pack(row) for row in rows] for rows in table.tolist()]
    assert all(type(row) is pack for rows in p.next_lane for row in rows)


@settings(max_examples=60, deadline=None)
@given(cfg=_worlds, index=st.integers(0, 5), data=st.data())
def test_walk_equals_the_replaced_world_loops(cfg, index, data):
    p = generate_problem(cfg, index)
    spine = student_rollout(p)
    _assert_matches_trace(spine, _reference_student_rollout(p))
    # every child of a spine state, forced, then sampled to the answer
    position = data.draw(st.integers(0, p.length - 2), label="position")
    lane = spine.lanes[position]
    attempts = data.draw(st.integers(1, 4), label="attempts")
    nucleus = _table_rows(p.student[position + 1 :], 0.95)
    for token in p.children(position, lane):
        reference = _reference_forced_continuation(p, spine, position, token, attempts)
        outcome = forced_continuation(p, spine, position, token)
        assert [correct for _, _, correct in reference] == [outcome] * attempts
        after = p.transition(position, lane, token)
        for a, (tokens, lanes, correct) in enumerate(reference):
            rng = derive_rng(cfg.seed, TAG_FORCE, index, position, token, a)
            episode = world_module.walk(p, position + 1, after, nucleus_sample(rng, *nucleus))
            assert (episode.tokens, episode.lanes, episode.correct) == (tokens, lanes, correct)
            rows = np.array([p.teacher[position + 1 + k, z] for k, z in enumerate(lanes)])
            assert _bits(episode.rows(p.teacher)) == _bits(rows)


@settings(max_examples=40, deadline=None)
@given(
    cfg=_worlds,
    index=st.integers(0, 5),
    noise=st.sampled_from([0.0, 0.05, 1.0, 4.0]),
    seed=st.integers(0, 2**32),
)
def test_trainer_rollout_equals_the_replaced_loop(cfg, index, noise, seed):
    p = generate_problem(cfg, index)
    theta = floored_log(p.teacher) + noise * derive_rng(seed, 1).standard_normal(p.teacher.shape)
    policy = trainer_module.StudentParams({p.problem_id: theta}).policy([p])[p]
    episode = trainer_module.rollout_from_params(p, policy, derive_rng(seed, 2))
    tokens, lanes, answer, correct = _reference_rollout_from_params(p, theta, derive_rng(seed, 2))
    assert (list(episode.tokens), list(episode.lanes)) == (tokens, lanes)
    assert (episode.answer, episode.correct) == (answer, correct)


_temperatures = st.sampled_from([1.0, 0.1, 0.5, 0.9, 1.1, 2.0, 7.0])


@settings(max_examples=30, deadline=None)
@given(
    cfg=_worlds,
    step=st.integers(0, 4),
    batch=st.integers(1, 6),
    train_problems=st.integers(1, 3),
    temperature=_temperatures,
    noise=st.sampled_from([0.05, 2.0]),
)
def test_batch_gather_and_update_scatter_equal_the_per_episode_code(
    cfg, step, batch, train_problems, temperature, noise
):
    tcfg = TrainConfig(
        batch_sequences=batch,
        train_problems=train_problems,
        init_noise=noise,
        distill_temperature=temperature,
    )
    problems = [generate_problem(cfg, i) for i in range(train_problems)]
    theta = trainer_module.init_student(tcfg, problems)
    theta.scale_teachers(problems, temperature)
    theta.step = step
    episodes = trainer_module._collect_episodes(theta, problems, tcfg)
    assert len(episodes) == batch
    got = trainer_module._batch_from_episodes(
        episodes, theta, trainer_module._pool_rows(episodes, theta._first, theta.logits.shape[1])
    )
    for ep, q, z in zip(episodes, got.split(got.teacher), got.split(got.student), strict=True):
        visited = (np.arange(len(ep.lanes)), np.array(ep.lanes))
        expected_q = temperature_scaled(ep.problem.teacher[visited], temperature)
        expected_z = theta.tables[ep.problem.problem_id][visited]
        assert _bits(q) == _bits(expected_q)
        assert _bits(z) == _bits(expected_z)
    # the update's scatter, against the old per-episode index
    before = {pid: t.copy() for pid, t in theta.tables.items()}
    lr = tcfg.step_size(step)
    theta, _, grad, used = trainer_module.train_step(theta, problems, tcfg)
    for ep, g in zip(episodes, used.split(grad), strict=True):
        visited = (np.arange(len(ep.tokens)), np.array(ep.lanes))
        np.subtract.at(before[ep.problem.problem_id], visited, lr * g)
    assert all(before[pid].tobytes() == t.tobytes() for pid, t in theta.tables.items())


def _is_point_mass(table, top_p):
    """Every row's nucleus holds one token, by the reference algorithm's cut."""
    for row in table.reshape(-1, table.shape[-1]):
        cum = np.cumsum(np.sort(row)[::-1])
        if int(np.searchsorted(cum, top_p, side="left")) + 1 > 1:
            return False
    return True


@settings(max_examples=80, deadline=None)
@given(cfg=_worlds, index=st.integers(0, 5), attempts=st.integers(1, 8), data=st.data())
@example(cfg=WorldConfig(vocab_size=12, depth=16), index=0, attempts=6, data=None)
@example(cfg=WorldConfig(vocab_size=12, depth=16, late_dead_fraction=1.0), index=0, attempts=6, data=None)
@example(cfg=WorldConfig(vocab_size=4, depth=8), index=1, attempts=8, data=None)
def test_forced_continuation_equals_the_per_attempt_loop(cfg, index, attempts, data):
    p = generate_problem(cfg, index)
    spine = student_rollout(p)
    if data is None:  # the explicit examples force every child of the middle layer
        position = (p.length - 1) // 2
    else:
        position = data.draw(st.integers(0, p.length - 2), label="position")
    children = p.children(position, spine.lanes[position])
    with mock.patch.object(world_module, "derive_rng", wraps=world_module.derive_rng) as spy:
        outcomes = [forced_continuation(p, spine, position, token) for token in children]
    for token, outcome in zip(children, outcomes, strict=True):
        reference = _reference_forced_continuation(p, spine, position, token, attempts)
        assert [correct for *_, correct in reference] == [outcome] * attempts  # every attempt, one outcome
    assert spy.call_count == 1  # the problem's one generator, for every child and attempt


@settings(max_examples=40, deadline=None)
@given(cfg=_worlds, index=st.integers(0, 5), attempts=st.integers(1, 8))
@example(cfg=WorldConfig(), index=0, attempts=3)  # the default world
def test_point_mass_outcome_table_equals_the_walks(cfg, index, attempts):
    p = generate_problem(cfg, index)
    # STUDENT_BACKGROUND < 1 - 0.95: every student row keeps one token at diagnose's top_p = 0.95
    assert _is_point_mass(p.student, 0.95)
    spine = student_rollout(p)
    world_module._continuation_outcomes.cache_clear()
    with mock.patch.object(world_module, "derive_rng", wraps=world_module.derive_rng) as spy, mock.patch.object(
        world_module, "nucleus_rows", wraps=world_module.nucleus_rows
    ) as built:
        forced = {
            (position, token): forced_continuation(p, spine, position, token)
            for position in range(p.length - 1)
            for token in p.children(position, spine.lanes[position])
        }
    # all forced continuations of a problem: one generator, one build of the
    # student table's nucleus rows and one outcome table
    assert spy.call_count == 1
    assert built.call_count == 1
    assert world_module._continuation_outcomes.cache_info().misses == 1
    table = world_module._continuation_outcomes(p)
    greedy = p.student.argmax(axis=-1)
    for t in range(p.length):  # every state: the outcome of its greedy walk
        assert table[t] == [world_module.walk(p, t, lane, greedy[t:]).correct for lane in range(cfg.branch_count + 1)]
    for (position, token), outcome in forced.items():
        reference = _reference_forced_continuation(p, spine, position, token, attempts)
        assert [correct for *_, correct in reference] == [outcome] * attempts


def _reference_teacher_ensemble(problem, position, lane, members, perturb_scale):
    # the per-member loop that the one (members, V) softmax replaced
    q = problem.teacher[position, lane]
    if perturb_scale == 0.0:
        return np.tile(q, (members, 1))
    rows = []
    for m in range(members):
        rng = derive_rng(problem.cfg.seed, TAG_ENSEMBLE, problem.index, position, m)
        logits = floored_log(q) + perturb_scale * rng.standard_normal(q.size)
        rows.append(softmax_with_temperature(logits, 1.0))
    return np.array(rows)


@settings(max_examples=80, deadline=None)
@given(
    cfg=_worlds,
    index=st.integers(0, 5),
    members=st.integers(2, 9),
    # 0, 0.1 and 3, and the largest scales that diagnose runs without a refusal
    perturb_scale=st.sampled_from([0.0, 0.1, 3.0, 1e300, 1e306]),
    data=st.data(),
)
def test_teacher_ensemble_equals_the_per_member_loop(cfg, index, members, perturb_scale, data):
    p = generate_problem(cfg, index)
    position = data.draw(st.integers(0, p.length - 1), label="position")
    lane = data.draw(st.integers(0, cfg.branch_count), label="lane")
    expected = _reference_teacher_ensemble(p, position, lane, members, perturb_scale)
    with mock.patch.object(world_module, "derive_rng", wraps=world_module.derive_rng) as spy:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = teacher_ensemble([p], [position], [lane], members, perturb_scale)
    assert _bits(got) == _bits(expected[None])
    assert spy.call_count == 0  # the members' generator states are replayed, not derived


@settings(max_examples=80, deadline=None)
@given(
    cfg=_worlds,
    index=st.integers(0, 5),
    members=st.integers(2, 6),
    perturb_scale=st.sampled_from([0.0, 0.1, 3.0, 1e300, 1e306]),
    wide_seed=st.booleans(),  # a seed of two words: every member is derived
    data=st.data(),
)
def test_stacked_teacher_ensemble_equals_each_pair(cfg, index, members, perturb_scale, wide_seed, data):
    if wide_seed:
        cfg = dataclasses.replace(cfg, seed=2**32 + cfg.seed)
    problems = [generate_problem(cfg, index), generate_problem(cfg, index + 1)]
    # (problem, position, lane) states of either problem
    state = st.sampled_from([0, 1]).flatmap(
        lambda k: st.tuples(st.just(k), st.integers(0, problems[k].length - 1), st.integers(0, cfg.branch_count))
    )
    states = data.draw(st.lists(state, min_size=1, max_size=5), label="states")
    states.append(states[0])  # a duplicate state shares its members' noise
    expected = np.array(
        [_reference_teacher_ensemble(problems[k], pos, lane, members, perturb_scale) for k, pos, lane in states]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = teacher_ensemble(
            [problems[k] for k, _, _ in states],
            [pos for _, pos, _ in states],
            np.array([lane for *_, lane in states]),
            members,
            perturb_scale,
        )
    assert _bits(got) == _bits(expected)


@pytest.mark.parametrize("perturb_scale", [1e308, float("inf"), float("nan")])
def test_teacher_ensemble_refuses_overflowing_logits_by_name(perturb_scale):
    p = generate_problem(_small_cfg(), 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before numpy warns
        with pytest.raises(InvalidInputError, match=re.escape(f"perturb_scale {perturb_scale!r} ")):
            teacher_ensemble([p], [1], [0], members=5, perturb_scale=perturb_scale)


@pytest.mark.parametrize("perturb_scale", [1e308, float("inf"), float("nan")])
def test_stacked_teacher_ensemble_refuses_overflowing_logits_by_name(perturb_scale):
    p = generate_problem(_small_cfg(), 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before numpy warns
        with pytest.raises(InvalidInputError) as got:
            teacher_ensemble([p] * 3, [1, 2, 1], [0, 1, 0], members=5, perturb_scale=perturb_scale)
    with pytest.raises(InvalidInputError) as expected:
        teacher_ensemble([p], [1], [0], members=5, perturb_scale=perturb_scale)
    assert str(got.value) == str(expected.value) == f"perturb_scale {perturb_scale!r} overflows the ensemble logits"


def test_score_block_scores_each_candidate_as_its_own_ensemble():
    cfg = _small_cfg()
    probes = [
        world_module._probe_problem(cfg, index, default_filter_for_depth(cfg.depth), LabelThresholds())
        for index in range(6)
    ]
    assert not any(cand.scores for _, candidates, *_ in probes for cand in candidates)  # the probe scores none
    with mock.patch.object(world_module, "teacher_ensemble", wraps=teacher_ensemble) as ensembles:
        with mock.patch.object(world_module, "score_ensemble", wraps=score_ensemble) as scores:
            block = world_module._score_block(probes, 4, 0.1)
            empty = world_module._score_block([probe for probe in probes if not probe[1]], 4, 0.1)
    assert ensembles.call_count == scores.call_count == 1  # one stack for the whole block
    assert len(empty) < len(block) == len(probes)
    probed = 0
    for index, (spine, candidates, spine_line, candidate_lines) in enumerate(block):
        p = generate_problem(cfg, index)
        lanes = student_rollout(p).lanes
        for cand in candidates:
            ensemble = _reference_teacher_ensemble(p, cand.spine_pos, lanes[cand.spine_pos], 4, 0.1)
            expected = {
                "oriented_position": cand.oriented_score,
                "truncated_entropy": cand.truncated_entropy,
                **score_ensemble(ensemble[None])[0],
            }
            assert {k: float(v).hex() for k, v in cand.scores.items()} == {k: float(v).hex() for k, v in expected.items()}
        assert spine_line == json.dumps(spine, sort_keys=True) + "\n"
        assert candidate_lines == "".join(json.dumps(c.to_json_dict(), sort_keys=True) + "\n" for c in candidates)
        probed += len(candidates)
    assert probed > 0


def _reference_concentrated(vocab, token, top_mass):
    p = np.full(vocab, (1.0 - top_mass) / (vocab - 1))
    p[token] = top_mass
    return p


def _reference_generate_problem(cfg, index):
    # the per-state body that the array writes replaced; returns the fields
    rng = derive_rng(cfg.seed, TAG_PROBLEM, index)
    V = cfg.vocab_size
    B = cfg.branch_count
    dead = B
    length = int(rng.integers(max(4, cfg.depth // 2), cfg.depth + 1))
    gold = int(rng.integers(V))
    wrong = int((gold + 1 + rng.integers(V - 1)) % V)
    filler = int(rng.integers(V))

    kind = np.zeros((length - 1, B), dtype=np.int8)
    canon = np.zeros((length - 1, B), dtype=np.int64)
    alts = []
    teacher = np.zeros((length, B + 1, V))
    student = np.zeros((length, B + 1, V))

    for t in range(length - 1):
        r = (t + 0.5) / length
        dead_fraction = cfg.early_dead_fraction if r < EARLY_CUTOFF else cfg.late_dead_fraction
        row_alts = []
        for z in range(B):
            c = int(rng.integers(V))
            canon[t, z] = c
            others = np.array([tok for tok in range(V) if tok != c])
            state_alts = ()
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
                q = _reference_concentrated(V, c, 1.0 - TEACHER_BACKGROUND)
            teacher[t, z] = q
            student[t, z] = _reference_concentrated(V, c, 1.0 - STUDENT_BACKGROUND)
            row_alts.append(state_alts)
        alts.append(row_alts)
        teacher[t, dead] = _reference_concentrated(V, filler, 1.0 - TEACHER_BACKGROUND)
        student[t, dead] = _reference_concentrated(V, filler, 1.0 - STUDENT_BACKGROUND)

    final = length - 1
    for z in range(B):
        teacher[final, z] = _reference_concentrated(V, gold, 1.0 - TEACHER_BACKGROUND)
        student[final, z] = _reference_concentrated(V, gold, 1.0 - STUDENT_BACKGROUND)
    teacher[final, dead] = _reference_concentrated(V, wrong, 1.0 - TEACHER_BACKGROUND)
    student[final, dead] = _reference_concentrated(V, wrong, 1.0 - STUDENT_BACKGROUND)
    return length, gold, wrong, filler, kind, canon, alts, teacher, student


_fractions = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=80, deadline=None)
@given(
    cfg=st.builds(
        WorldConfig,
        vocab_size=st.integers(4, 30),
        depth=st.integers(4, 64),
        branch_count=st.integers(1, 7),
        early_dead_fraction=_fractions,
        late_dead_fraction=_fractions,
        ambiguity_mass=st.floats(
            0.0, 1.0 - TEACHER_BACKGROUND, exclude_min=True, exclude_max=True
        ),
        seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70)),
    ),
    index=st.one_of(st.integers(0, 9), st.integers(2**32, 2**40)),
)
@example(cfg=WorldConfig(vocab_size=4, depth=64, branch_count=7, seed=2**32), index=0)
@example(cfg=WorldConfig(vocab_size=30, depth=4, branch_count=1, seed=2**32 - 1), index=2**32)
def test_generate_problem_equals_the_per_state_body(cfg, index):
    p = generate_problem(cfg, index)
    length, gold, wrong, filler, kind, canon, alts, teacher, student = _reference_generate_problem(
        cfg, index
    )
    assert (p.length, p.gold_token, p.wrong_token, p.filler_token) == (length, gold, wrong, filler)
    assert type(p.gold_token) is type(p.wrong_token) is type(p.filler_token) is int
    for got, expected in ((p.kind, kind), (p.canon, canon), (p.teacher, teacher), (p.student, student)):
        assert _bits(got) == _bits(expected)
    padded = [[[tok for tok, _ in state] + [-1] * (3 - len(state)) for state in row] for row in alts]
    assert p.alts.tolist() == padded
    pairs = [[_alternatives(p, t, z) for z in range(cfg.branch_count)] for t in range(length - 1)]
    assert pairs == [[list(state) for state in row] for row in alts]  # each target follows from the kind


@settings(max_examples=20, deadline=None)
@given(cfg=_worlds, step=st.integers(0, 4), batch=st.integers(1, 9), train_problems=st.integers(1, 4))
def test_collect_episodes_computes_each_policy_once(cfg, step, batch, train_problems):
    # one softmax per step, over the picked problems' rows that changed since
    # their last one: every row at first, then only the rows edited
    tcfg = TrainConfig(batch_sequences=batch, train_problems=train_problems, init_noise=1.0)
    problems = [generate_problem(cfg, i) for i in range(train_problems)]
    theta = trainer_module.init_student(tcfg, problems)
    theta.step = step
    picked = [problems[(step * batch + i) % train_problems] for i in range(batch)]

    def collect():
        with mock.patch.object(
            trainer_module, "softmax_with_temperature", wraps=softmax_with_temperature
        ) as spy:
            episodes = trainer_module._collect_episodes(theta, problems, tcfg)
        for i, (ep, p) in enumerate(zip(episodes, picked, strict=True)):
            tokens, lanes, _, _ = _reference_rollout_from_params(
                p, theta.tables[p.problem_id], derive_rng(tcfg.seed, trainer_module.TAG_TRAIN, step, i)
            )
            assert (ep.problem, list(ep.tokens), list(ep.lanes)) == (p, tokens, lanes)
        return [len(call.args[0]) for call in spy.call_args_list]

    lanes = cfg.branch_count + 1
    assert collect() == [sum(p.length for p in set(picked)) * lanes]
    assert collect() == []
    theta.tables[picked[-1].problem_id][-1, -1, 0] += 3.0  # an edit in place
    unpicked = [p for p in problems if p not in picked]
    for p in unpicked:  # not drawn from this step, so not refreshed
        theta.tables[p.problem_id][0] += 1.0
    assert collect() == [1]
