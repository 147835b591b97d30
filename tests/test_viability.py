import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distillab.cli import main
from distillab.errors import DegenerateInputError, InvalidInputError
from distillab.seeding import derive_rng
from distillab.viability import (
    CandidateRecord,
    FilterConfig,
    Label,
    LabelThresholds,
    candidates_jsonl,
    child_viability,
    label_candidate,
    position_scores,
    select_candidates,
)
from test_dists import _reference_truncated_entropy


def _cfg(**kw):
    base = dict(p2_min=0.02, ratio_min=0.10, spacing=1, max_candidates=64,
                top_m=16, top_children=3)
    base.update(kw)
    return FilterConfig(**base)


def test_position_scores_convention():
    r, score = position_scores(0, 4)
    assert r == 0.125
    assert score == 0.875
    r_last, score_last = position_scores(3, 4)
    assert r_last == 0.875
    assert abs(score_last - 0.125) < 1e-15


def test_position_scores_validation():
    with pytest.raises(InvalidInputError):
        position_scores(-1, 4)
    with pytest.raises(InvalidInputError):
        position_scores(4, 4)
    with pytest.raises(InvalidInputError):
        position_scores(0, 0)


def test_p2_floor_is_inclusive():
    # p2 exactly at the floor passes; just below fails
    cfg = _cfg(p2_min=0.125, ratio_min=0.10)
    teacher = np.array([
        [0.75, 0.125, 0.125, 0.0],   # p2 = 0.125 == p2_min: keep
        [0.76, 0.12, 0.12, 0.0],     # p2 = 0.12 < p2_min: drop
    ])
    mask = np.ones(4, dtype=bool)
    picked = select_candidates("p0", teacher, mask, cfg)
    assert [c.spine_pos for c in picked] == [0]


def test_ratio_floor_is_inclusive():
    cfg = _cfg(p2_min=0.01, ratio_min=0.25)
    teacher = np.array([
        [0.5, 0.125, 0.125, 0.125, 0.125],   # p2/p1 = 0.25 == ratio_min: keep
        [0.52, 0.12, 0.12, 0.12, 0.12],      # p2/p1 ~ 0.231 < ratio_min: drop
    ])
    mask = np.ones(5, dtype=bool)
    picked = select_candidates("p0", teacher, mask, cfg)
    assert [c.spine_pos for c in picked] == [0]


def test_valid_mask_hides_tokens_from_the_filter():
    # unmasked the row easily passes; masking its runner-up kills p2
    cfg = _cfg()
    teacher = np.array([[0.5, 0.5, 0.0]])
    full = np.ones(3, dtype=bool)
    assert len(select_candidates("p0", teacher, full, cfg)) == 1
    masked = np.array([True, False, True])
    assert select_candidates("p0", teacher, masked, cfg) == []


def test_children_are_valid_positive_tokens_best_first():
    cfg = _cfg(top_children=2)
    teacher = np.array([[0.1, 0.6, 0.3, 0.0]])
    mask = np.ones(4, dtype=bool)
    picked = select_candidates("p0", teacher, mask, cfg)
    assert len(picked) == 1
    assert picked[0].children == [(1, 0.6), (2, 0.3)]


def test_selection_orders_by_entropy_then_position():
    # equal-entropy rows: earlier position fills the single slot
    cfg = _cfg(max_candidates=1)
    teacher = np.full((6, 4), 0.25)
    mask = np.ones(4, dtype=bool)
    picked = select_candidates("p0", teacher, mask, cfg)
    assert len(picked) == 1
    assert picked[0].spine_pos == 0


def test_higher_entropy_wins_regardless_of_position():
    cfg = _cfg(max_candidates=1)
    teacher = np.array([
        [0.7, 0.2, 0.1, 0.0],
        [0.25, 0.25, 0.25, 0.25],  # highest entropy, later position
    ])
    mask = np.ones(4, dtype=bool)
    picked = select_candidates("p0", teacher, mask, cfg)
    assert picked[0].spine_pos == 1


def test_spacing_and_candidate_cap():
    rng = derive_rng(31)
    L = 40
    teacher = rng.dirichlet(np.ones(6), size=L)
    mask = np.ones(6, dtype=bool)
    cfg = _cfg(p2_min=0.001, ratio_min=0.001, spacing=5, max_candidates=4)
    picked = select_candidates("p0", teacher, mask, cfg)
    assert 1 <= len(picked) <= 4
    pos = sorted(c.spine_pos for c in picked)
    for a, b in zip(pos, pos[1:]):
        assert b - a >= 5


def test_answer_position_truncates_the_search():
    teacher = np.full((10, 4), 0.25)
    mask = np.ones(4, dtype=bool)
    cfg = _cfg()
    picked = select_candidates("p0", teacher, mask, cfg, answer_position=3)
    assert all(c.spine_pos < 3 for c in picked)


def test_select_candidates_validation():
    cfg = _cfg()
    mask = np.ones(4, dtype=bool)
    with pytest.raises(InvalidInputError):  # a spine holds at least one token
        select_candidates("p0", np.empty((0, 4)), mask, cfg)
    with pytest.raises(InvalidInputError):
        select_candidates("p0", np.full((2, 4), 0.25), np.ones(3, dtype=bool), cfg)
    with pytest.raises(DegenerateInputError):
        select_candidates("p0", np.full((2, 4), 0.25), np.zeros(4, dtype=bool), cfg)
    bad = np.full((3, 4), 0.25)
    bad[1] = [0.5, 0.5, 0.5, 0.0]  # sums to 1.5
    with pytest.raises(InvalidInputError, match=r"teacher_dists\[1\] sums to 1.5"):
        select_candidates("p0", bad, mask, cfg)
    # rows at or beyond the answer position are not searched, nor checked
    assert [c.spine_pos for c in select_candidates("p0", bad, mask, cfg, answer_position=1)] == [0]


def _reference_select(problem_id, dists, mask, cfg, answer_position=None):
    """The per-position loop that select_candidates replaced."""
    L = dists.shape[0]
    limit = L if answer_position is None else min(L, answer_position)
    passing = []
    for pos in range(limit):
        row = np.where(mask, dists[pos], 0.0)
        order = np.argsort(-row, kind="stable")
        p1 = float(row[order[0]])
        p2 = float(row[order[1]]) if row.size > 1 else 0.0
        if p1 <= 0.0 or p2 < cfg.p2_min or p2 / p1 < cfg.ratio_min:
            continue
        children = [(int(j), float(row[j])) for j in order[: cfg.top_children] if row[j] > 0.0]
        if not children:
            continue
        passing.append((_reference_truncated_entropy(dists[pos], mask, cfg.top_m), pos, children))
    passing.sort(key=lambda item: (-item[0], item[1]))
    selected, taken = [], []
    for h, pos, children in passing:
        if len(selected) >= cfg.max_candidates:
            break
        if any(abs(pos - other) < cfg.spacing for other in taken):
            continue
        taken.append(pos)
        r, oriented = position_scores(pos, L)
        selected.append(CandidateRecord(problem_id, pos, r, oriented, h, children))
    return selected


@st.composite
def _spines(draw):
    """Teacher rows from small integer weights (ties and exact zeros), a mask
    that keeps at least one token, and a filter, answer position and top_m
    that may cut below the vocabulary."""
    V = draw(st.integers(1, 20))
    L = draw(st.integers(1, 12))
    weights = np.array(draw(st.lists(
        st.lists(st.sampled_from([0, 0, 1, 1, 2, 3, 7]), min_size=V, max_size=V).filter(any),
        min_size=L, max_size=L,
    )), dtype=float)
    mask = np.array(draw(st.lists(st.booleans(), min_size=V, max_size=V).filter(any)))
    cfg = FilterConfig(
        p2_min=draw(st.sampled_from([0.01, 0.1, 0.125, 0.25, 0.4])),
        ratio_min=draw(st.sampled_from([0.1, 0.25, 0.5, 1.0])),
        spacing=draw(st.integers(1, 4)),
        max_candidates=draw(st.integers(1, 12)),
        top_m=draw(st.integers(2, 22)),
        top_children=draw(st.integers(1, 5)),
    )
    answer = draw(st.one_of(st.none(), st.integers(0, L + 1)))
    return weights / weights.sum(axis=1, keepdims=True), mask, cfg, answer


@settings(max_examples=150, deadline=None)
@given(case=_spines())
@example(case=(np.full((6, 4), 0.25), np.ones(4, dtype=bool), _cfg(spacing=2, top_m=3), None))  # all tied
@example(case=(np.array([[0.5, 0.5, 0.0]] * 3), np.array([True, False, True]), _cfg(), 2))
def test_select_candidates_equals_the_per_position_loop(case):
    dists, mask, cfg, answer = case
    expected = _reference_select("p7", dists, mask, cfg, answer)
    got = select_candidates("p7", dists, mask, cfg, answer_position=answer)
    assert got == expected
    assert [type(t) for c in got for t, _ in c.children] == [int] * sum(len(c.children) for c in got)


def test_child_viability_fraction():
    assert child_viability([True, True, False, True]) == 0.75
    assert child_viability([False, False]) == 0.0
    assert child_viability([True]) == 1.0
    with pytest.raises(DegenerateInputError):
        child_viability([])


def test_label_rules():
    th = LabelThresholds(v_high=0.75, v_low=0.40, min_high_children=2)
    assert label_candidate([0.80, 0.90], th) == Label.DIVERSITY
    assert label_candidate([0.80, 0.10], th) == Label.GRAY
    assert label_candidate([0.10, 0.20], th) == Label.REAL_UNCERTAIN
    # v_high boundary is inclusive
    assert label_candidate([0.75, 0.75], th) == Label.DIVERSITY
    # v_low boundary is strict: 0.40 itself is not "below"
    assert label_candidate([0.39, 0.39], th) == Label.REAL_UNCERTAIN
    assert label_candidate([0.40, 0.10], th) == Label.GRAY
    # one strong child is not enough for diversity
    assert label_candidate([0.9], th) == Label.GRAY
    with pytest.raises(DegenerateInputError):
        label_candidate([], th)
    with pytest.raises(InvalidInputError):
        label_candidate([0.5, 1.5], th)


def test_threshold_validation():
    with pytest.raises(InvalidInputError):
        LabelThresholds(v_high=0.3, v_low=0.4, min_high_children=2)
    with pytest.raises(InvalidInputError):
        LabelThresholds(v_high=0.75, v_low=0.40, min_high_children=0)


def test_filter_config_validation():
    with pytest.raises(InvalidInputError):
        _cfg(p2_min=0.0)
    with pytest.raises(InvalidInputError):
        _cfg(ratio_min=1.5)
    with pytest.raises(InvalidInputError):
        _cfg(spacing=0)
    with pytest.raises(InvalidInputError):
        _cfg(max_candidates=0)
    with pytest.raises(InvalidInputError):
        _cfg(top_m=1)
    with pytest.raises(InvalidInputError):
        _cfg(top_children=0)


def _read_back(path):  # the records of a candidates.jsonl, one per line
    return [CandidateRecord.from_json_dict(json.loads(line)) for line in path.read_text("utf-8").splitlines()]


def test_candidate_record_roundtrip(tmp_path, capsys):
    recs = [
        CandidateRecord(
            problem_id="p0", spine_pos=3, normalized_position=0.21875,
            oriented_score=0.78125, truncated_entropy=0.41,
            children=[(2, 0.5), (5, 0.25)],
            child_viabilities=[1.0, 0.0], label=Label.DIVERSITY,
            scores={"mean_entropy": 0.3}, ground_truth_reliable=False,
        ),
        CandidateRecord(
            problem_id="p1", spine_pos=7, normalized_position=0.625,
            oriented_score=0.375, truncated_entropy=0.10,
            children=[(1, 0.9)],
        ),
    ]
    path = tmp_path / "cands.jsonl"
    path.write_text(candidates_jsonl(recs), encoding="utf-8")
    back = _read_back(path)
    assert len(back) == 2
    for a, b in zip(recs, back):
        assert a.problem_id == b.problem_id
        assert a.spine_pos == b.spine_pos
        assert a.truncated_entropy == b.truncated_entropy
        assert a.children == b.children
        assert a.child_viabilities == b.child_viabilities
        assert a.label == b.label
        assert a.scores == b.scores
        assert a.ground_truth_reliable == b.ground_truth_reliable
    # the file diagnose writes reads back, and writing it again gives the same bytes
    out = tmp_path / "diag"
    argv = ["diagnose", "--vocab", "10", "--depth", "24", "--problems", "6", "--resamples", "30",
            "--members", "3", "--continuations", "2", "--out", str(out)]
    assert main(argv) == 0, capsys.readouterr().err
    written = (out / "candidates.jsonl").read_bytes()
    back = _read_back(out / "candidates.jsonl")
    assert len(back) == written.count(b"\n") > 0
    (tmp_path / "again.jsonl").write_text(candidates_jsonl(back), encoding="utf-8")
    assert (tmp_path / "again.jsonl").read_bytes() == written


def test_candidate_json_dict_uses_h_trunc_key():
    rec = CandidateRecord(
        problem_id="p0", spine_pos=3, normalized_position=0.21875,
        oriented_score=0.78125, truncated_entropy=0.41, children=[(0, 1.0)],
    )
    d = rec.to_json_dict()
    assert d["h_trunc"] == 0.41
    assert d["label"] is None
    assert CandidateRecord.from_json_dict(d).label is None


def test_candidate_record_rejects_a_missing_field():
    with pytest.raises(InvalidInputError):
        CandidateRecord.from_json_dict({"problem_id": "p"})
