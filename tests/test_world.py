import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distillab.world as world_module
from distillab.errors import InvalidInputError
from distillab.seeding import derive_rng
from distillab.stats import BootstrapConfig
from distillab.uncertainty import mutual_information
from distillab.world import (
    DIVERSE,
    PLAIN,
    UNRELIABLE,
    DiagnosticReport,
    WorldConfig,
    default_filter_for_depth,
    forced_continuation,
    generate_problem,
    nucleus_sample,
    run_diagnostic,
    student_rollout,
    teacher_ensemble,
)


def _small_cfg(**kw):
    base = dict(vocab_size=10, depth=16, branch_count=3, seed=0)
    base.update(kw)
    return WorldConfig(**base)


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
            listed = {int(tok): tgt for tok, tgt in p.alts[t][z]}
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
            targets = [tgt for _, tgt in p.alts[t][z]]
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
        assert p.child_viable(t, z, kids[0])
        if int(p.kind[t, z]) == UNRELIABLE:
            for tok in kids[1:]:
                assert not p.child_viable(t, z, tok)
        if int(p.kind[t, z]) == DIVERSE:
            for tok in kids[1:]:
                assert p.child_viable(t, z, tok)
    # answer layer: gold token from a viable lane is the only viable child
    ap = p.answer_position
    assert p.children(ap, 0) == [p.gold_token]
    assert p.child_viable(ap, 0, p.gold_token)
    assert not p.child_viable(ap, p.dead_lane, p.wrong_token)
    assert p.children(ap, p.dead_lane) == [p.wrong_token]


def test_greedy_rollout_is_correct_and_stays_in_lane_zero():
    cfg = _small_cfg()
    for index in range(6):
        p = generate_problem(cfg, index)
        trace = student_rollout(p, mode="greedy")
        assert trace.correct
        assert trace.lanes == tuple([0] * p.length)
        assert trace.tokens[-1] == p.gold_token
        assert trace.teacher_dists.shape == (p.length, cfg.vocab_size)


def test_sampled_rollout_is_deterministic_per_attempt():
    cfg = _small_cfg()
    p = generate_problem(cfg, 0)
    a = student_rollout(p, mode="sample", attempt=0, top_p=1.0)
    b = student_rollout(p, mode="sample", attempt=0, top_p=1.0)
    assert a.tokens == b.tokens
    # default top_p = 0.95 truncates to the canonical token (0.97 mass), so
    # full-support sampling is needed to see attempt-level variety
    diffs = 0
    for idx in range(8):
        q = generate_problem(cfg, idx)
        x = student_rollout(q, mode="sample", attempt=0, top_p=1.0)
        y = student_rollout(q, mode="sample", attempt=1, top_p=1.0)
        diffs += x.tokens != y.tokens
    assert diffs >= 1
    assert student_rollout(p, mode="greedy").correct
    with pytest.raises(InvalidInputError):
        student_rollout(p, mode="beam")


def test_nucleus_sample_properties():
    rng = derive_rng(71)
    p = np.array([0.7, 0.2, 0.1])
    # top_p below the head keeps only the argmax: draw is deterministic
    for _ in range(10):
        assert nucleus_sample(rng, p, 1.0, 0.5) == 0
    # top_p = 1 is plain categorical: all tokens appear over many draws
    seen = {nucleus_sample(rng, p, 1.0, 1.0) for _ in range(400)}
    assert seen == {0, 1, 2}
    # zero-probability tokens are never drawn
    q = np.array([0.5, 0.5, 0.0])
    assert all(nucleus_sample(rng, q, 1.0, 1.0) != 2 for _ in range(200))
    with pytest.raises(InvalidInputError):
        nucleus_sample(rng, p, 1.0, 0.0)
    with pytest.raises(InvalidInputError):
        nucleus_sample(rng, p, -1.0, 0.9)


def _reference_nucleus_sample(rng, probs, temperature, top_p):
    # the uncached algorithm: rescale, sort, cut, renormalize, then draw
    p = np.asarray(probs, dtype=float)
    if temperature != 1.0:
        scaled = np.where(p > 0.0, np.exp(np.log(np.maximum(p, 1e-12)) / temperature), 0.0)
        p = scaled / scaled.sum()
    order = np.argsort(-p, kind="stable")
    cum = np.cumsum(p[order])
    cut = int(np.searchsorted(cum, top_p, side="left")) + 1
    kept = order[:cut]
    kp = p[kept]
    kp = kp / kp.sum()
    u = rng.random()
    return int(kept[np.searchsorted(np.cumsum(kp), u, side="right").clip(0, len(kept) - 1)])


_temperatures = st.sampled_from([1.0, 0.1, 0.5, 0.9, 1.1, 2.0, 7.0])
_top_ps = st.sampled_from([1.0, 0.999, 0.95, 0.6, 0.3, 1e-6])


@st.composite
def _nucleus_calls(draw):
    """Rows with ties and zeros, then calls that revisit them (memo hits),
    with one row overwritten in place partway through."""
    vocab = draw(st.integers(2, 12))
    weights = st.lists(st.integers(0, 4), min_size=vocab, max_size=vocab).filter(any)
    rows = [np.array(w, dtype=float) / sum(w) for w in draw(st.lists(weights, min_size=1, max_size=5))]
    calls = draw(
        st.lists(
            st.tuples(st.integers(0, len(rows) - 1), _temperatures, _top_ps),
            min_size=1,
            max_size=60,
        )
    )
    replacement = np.array(draw(weights), dtype=float)
    return rows, calls, draw(st.integers(0, len(calls))), replacement / replacement.sum()


@settings(max_examples=200, deadline=None)
@given(case=_nucleus_calls(), seed=st.integers(0, 2**32))
def test_memoised_nucleus_sample_equals_reference(case, seed):
    rows, calls, mutate_at, replacement = case
    fast_rng, slow_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for k, (i, temperature, top_p) in enumerate(calls):
        if k == mutate_at:
            rows[0][:] = replacement  # same array object, new contents
        expected = _reference_nucleus_sample(slow_rng, rows[i], temperature, top_p)
        assert nucleus_sample(fast_rng, rows[i], temperature, top_p) == expected


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32), vocab=st.integers(2, 12), temperature=_temperatures, top_p=_top_ps)
def test_memoised_nucleus_sample_survives_eviction(seed, vocab, temperature, top_p):
    memo = world_module._nucleus_prefix
    size = world_module._NUCLEUS_MEMO_SIZE
    rows = derive_rng(seed).dirichlet(np.full(vocab, 0.5), size=size + 7)
    memo.cache_clear()
    fast_rng, slow_rng = derive_rng(seed, 1), derive_rng(seed, 1)
    for _ in range(2):  # a cycle longer than the memo evicts every row before its reuse
        for row in rows:
            expected = _reference_nucleus_sample(slow_rng, row, temperature, top_p)
            assert nucleus_sample(fast_rng, row, temperature, top_p) == expected
    info = memo.cache_info()
    assert info.currsize == size
    assert (info.hits, info.misses) == (0, 2 * len(rows))


def test_nucleus_low_temperature_sharpens():
    rng = derive_rng(72)
    p = np.array([0.6, 0.4])
    draws = [nucleus_sample(rng, p, 0.1, 1.0) for _ in range(300)]
    # at T = 0.1 the head holds nearly all mass
    assert sum(d == 0 for d in draws) >= 295


def test_forced_continuation_basics():
    cfg = _small_cfg()
    p = generate_problem(cfg, 0)
    trace = student_rollout(p, mode="greedy")
    t = 2
    canon = int(p.canon[t, 0])
    outs = forced_continuation(p, trace, t, canon, attempts=4)
    assert len(outs) == 4
    assert all(isinstance(o, bool) for o in outs)
    # determinism
    assert outs == forced_continuation(p, trace, t, canon, attempts=4)
    with pytest.raises(InvalidInputError):
        forced_continuation(p, trace, p.length - 1, p.gold_token)
    with pytest.raises(InvalidInputError):
        forced_continuation(p, trace, t, canon, attempts=0)
    bad_children = [tok for tok in range(cfg.vocab_size) if tok not in p.children(t, 0)]
    with pytest.raises(InvalidInputError):
        forced_continuation(p, trace, t, bad_children[0])


def test_forcing_a_dead_child_never_recovers():
    # a token that enters the dead lane can only reach the wrong answer
    cfg = _small_cfg(depth=48)
    p = generate_problem(cfg, 2)
    trace = student_rollout(p, mode="greedy")
    tried = 0
    for t in range(p.length - 1):
        if int(p.kind[t, 0]) == UNRELIABLE:
            for tok, tgt in p.alts[t][0]:
                assert tgt == p.dead_lane
                outs = forced_continuation(p, trace, t, int(tok), attempts=5)
                assert outs == [False] * 5
                tried += 1
            break
    assert tried == 3


def test_teacher_ensemble_zero_perturbation_is_exact():
    cfg = _small_cfg()
    p = generate_problem(cfg, 0)
    ens = teacher_ensemble(p, 1, 0, members=4, perturb_scale=0.0)
    assert ens.shape == (4, cfg.vocab_size)
    for row in ens:
        assert np.array_equal(row, p.teacher[1, 0])
    # exact copies carry zero mutual information
    assert mutual_information(ens) < 1e-14


def test_teacher_ensemble_perturbation_is_seeded_and_spreads():
    cfg = _small_cfg()
    p = generate_problem(cfg, 0)
    e1 = teacher_ensemble(p, 1, 0, members=5, perturb_scale=0.1)
    e2 = teacher_ensemble(p, 1, 0, members=5, perturb_scale=0.1)
    assert np.array_equal(e1, e2)
    assert np.all(np.abs(e1.sum(axis=1) - 1.0) < 1e-12)
    assert mutual_information(e1) > 0.0
    with pytest.raises(InvalidInputError):
        teacher_ensemble(p, 1, 0, members=1)
    with pytest.raises(InvalidInputError):
        teacher_ensemble(p, 1, 0, perturb_scale=-0.1)


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
