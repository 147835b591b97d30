import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distillab import stats
from distillab.errors import DegenerateInputError, InvalidInputError
from distillab.seeding import RNG_ID, derive_rng, replayed
from distillab.stats import (
    BootstrapConfig,
    BootstrapResult,
    ScoredCandidate,
    _assemble_resample,
    _auroc_from_arrays,
    _group_indices,
    _midranks,
    _resample_aurocs,
    _residuals,
    _split,
    auprc,
    auroc,
    cluster_bootstrap_auroc,
    residualize_within_problem,
    score_report,
)


def _items(scores, labels, problems=None):
    if problems is None:
        problems = [f"p{i}" for i in range(len(scores))]
    return [ScoredCandidate(p, s, l) for p, s, l in zip(problems, scores, labels)]


def _brute_force_auroc(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    total = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                total += 1.0
            elif a == b:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_auroc_perfect_and_reversed():
    assert auroc(_items([3.0, 2.0, 1.0, 0.0], [True, True, False, False])) == 1.0
    assert auroc(_items([0.0, 1.0, 2.0, 3.0], [True, True, False, False])) == 0.0


def test_auroc_all_tied_is_half():
    assert auroc(_items([1.0] * 6, [True, False, True, False, False, True])) == 0.5


def test_auroc_matches_brute_force_on_tied_data():
    # discrete scores force heavy ties; mid-rank result must equal the
    # O(n^2) pairwise count exactly, not approximately
    rng = derive_rng(41)
    for trial in range(200):
        n = int(rng.integers(5, 201))
        scores = rng.integers(0, 6, size=n).astype(float)
        labels = rng.random(n) < 0.4
        if labels.all() or not labels.any():
            labels[0] = not labels[0]
        fast = auroc(_items(scores, labels))
        slow = _brute_force_auroc(scores.tolist(), labels.tolist())
        assert fast == slow, f"trial {trial}: {fast} != {slow}"


def test_auroc_label_flip_antisymmetry():
    rng = derive_rng(42)
    for _ in range(50):
        n = int(rng.integers(5, 80))
        scores = rng.integers(0, 4, size=n).astype(float)
        labels = rng.random(n) < 0.5
        if labels.all() or not labels.any():
            labels[0] = not labels[0]
        a = auroc(_items(scores, labels))
        b = auroc(_items(scores, (~labels)))
        assert a + b == 1.0


def test_auroc_needs_both_classes():
    with pytest.raises(DegenerateInputError):
        auroc(_items([1.0, 2.0], [True, True]))
    with pytest.raises(DegenerateInputError):
        auroc(_items([], []))
    with pytest.raises(InvalidInputError):
        auroc(_items([float("nan"), 1.0], [True, False]))


def test_auprc_hand_values():
    # descending sweep: hits at ranks 1 and 3
    # AP = 1/2 * (1/1) + 1/2 * (2/3)
    items = _items([3.0, 2.0, 1.0], [True, False, True])
    assert abs(auprc(items) - (0.5 + 0.5 * (2.0 / 3.0))) < 1e-15
    # all scores tied: one block, lands at prevalence
    tied = _items([1.0, 1.0, 1.0, 1.0], [True, False, False, True])
    assert auprc(tied) == 0.5


def test_auprc_needs_a_positive():
    with pytest.raises(DegenerateInputError):
        auprc(_items([1.0, 2.0], [False, False]))


def _reference_auprc(items):
    """The while-loop sweep that auprc's flatnonzero tie blocks replaced."""
    _, scores, labels = _split(items)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise DegenerateInputError("AUPRC needs at least one positive")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    ap = 0.0
    tp = 0
    fp = 0
    i = 0
    n = s.size
    while i < n:
        j = i
        block_tp = 0
        block_fp = 0
        while j < n and s[j] == s[i]:
            if y[j]:
                block_tp += 1
            else:
                block_fp += 1
            j += 1
        tp += block_tp
        fp += block_fp
        if block_tp > 0:
            ap += (block_tp / n_pos) * (tp / (tp + fp))
        i = j
    return ap


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(  # mostly a few tied values, signed zeros among them
                st.sampled_from([-1.0, -0.0, 0.0, 0.25, 1.0, 5e-324]),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            st.booleans(),
        ),
        min_size=1,
        max_size=40,
    )
)
@example([(0.0, True), (-0.0, False), (0.0, True)])
@example([(1.0, False), (1.0, False)])
def test_auprc_equals_the_while_loop_bit_for_bit(pairs):
    items = _items([s for s, _ in pairs], [l for _, l in pairs])
    if not any(l for _, l in pairs):
        for fn in (auprc, _reference_auprc):
            with pytest.raises(DegenerateInputError):
                fn(items)
        return
    assert np.float64(auprc(items)).tobytes() == np.float64(_reference_auprc(items)).tobytes()


def test_residualize_centers_each_problem():
    items = _items(
        [1.0, 3.0, 10.0, 20.0],
        [True, False, True, False],
        problems=["a", "a", "b", "b"],
    )
    out = residualize_within_problem(items)
    assert [c.score for c in out] == [-1.0, 1.0, -5.0, 5.0]
    assert [c.problem_id for c in out] == ["a", "a", "b", "b"]
    assert [c.label for c in out] == [True, False, True, False]


def test_residualization_removes_between_problem_shift():
    # raw scores are dominated by a problem-level offset; within problems the
    # positive always scores higher, so residualized AUROC is 1
    items = _items(
        [100.0, 99.0, 0.5, 0.0],
        [True, False, True, False],
        problems=["a", "a", "b", "b"],
    )
    assert auroc(residualize_within_problem(items)) == 1.0
    # raw AUROC is weaker: problem a's negative outranks problem b's positive
    assert auroc(items) < 1.0


def test_bootstrap_is_deterministic():
    rng = derive_rng(43)
    scores = rng.random(30)
    labels = rng.random(30) < 0.5
    labels[0] = True
    labels[1] = False
    problems = [f"p{i % 6}" for i in range(30)]
    items = _items(scores, labels, problems)
    cfg = BootstrapConfig(resamples=200, confidence=0.95, seed=7)
    r1 = cluster_bootstrap_auroc(items, cfg)
    r2 = cluster_bootstrap_auroc(items, cfg)
    assert r1 == r2
    assert isinstance(r1, BootstrapResult)
    assert r1.rng_id == RNG_ID
    assert r1.seed == 7
    assert r1.n_resamples + r1.n_degenerate == 200
    assert r1.ci_low <= r1.point or r1.ci_low <= r1.ci_high  # interval is ordered
    assert r1.ci_low <= r1.ci_high


def test_duplicated_problem_equals_duplicated_dataset():
    # drawing problem "a" twice in a resample must equal computing AUROC on a
    # dataset where problem "a" literally appears twice
    scores = [1.0, 3.0, 2.0, 0.5, 4.0]
    labels = [True, False, True, False, True]
    problems = ["a", "a", "a", "b", "b"]
    items = _items(scores, labels, problems)

    from distillab.stats import _assemble_resample, _group_indices, _split

    pids, groups = _group_indices(problems)
    sc = np.array(scores)
    lb = np.array(labels)
    draw = np.array([0, 0, 1])  # problem a twice, b once
    rs, rl = _assemble_resample(groups, draw, sc, lb)

    dup_scores = scores[0:3] + scores[0:3] + scores[3:5]
    dup_labels = labels[0:3] + labels[0:3] + labels[3:5]
    dup_problems = ["a1"] * 3 + ["a2"] * 3 + ["b"] * 2
    dup_items = _items(dup_scores, dup_labels, dup_problems)
    expected = auroc(residualize_within_problem(dup_items))

    from distillab.stats import _auroc_from_arrays

    assert _auroc_from_arrays(rs, rl) == expected


def test_bootstrap_null_simulation_covers_half():
    # labels independent of scores: point AUROC near 1/2 and CI covering it
    rng = derive_rng(0)
    items = []
    for p in range(50):
        req = rng.random(4)
        lab = rng.random(4) < 0.5
        for s, l in zip(req, lab):
            items.append(ScoredCandidate(f"p{p}", float(s), bool(l)))
    cfg = BootstrapConfig(resamples=500, confidence=0.95, seed=0)
    res = cluster_bootstrap_auroc(items, cfg)
    assert abs(res.point - 0.5) < 0.1
    assert res.ci_low <= 0.5 <= res.ci_high


def test_bootstrap_rejects_single_problem():
    items = _items([1.0, 2.0], [True, False], problems=["a", "a"])
    with pytest.raises(DegenerateInputError):
        cluster_bootstrap_auroc(items, BootstrapConfig(resamples=10))


def test_bootstrap_config_validation():
    with pytest.raises(InvalidInputError):
        BootstrapConfig(resamples=0)
    with pytest.raises(InvalidInputError):
        BootstrapConfig(confidence=1.0)
    with pytest.raises(InvalidInputError):
        BootstrapConfig(seed=-1)


def test_score_report_shape():
    rng = derive_rng(44)
    items = []
    for p in range(8):
        for _ in range(3):
            items.append(ScoredCandidate(f"p{p}", float(rng.random()), bool(rng.random() < 0.5)))
    labels = [it.label for it in items]
    if all(labels) or not any(labels):
        items[0] = ScoredCandidate(items[0].problem_id, items[0].score, not labels[0])
    rep = score_report("mean_entropy", items, BootstrapConfig(resamples=50, seed=3))
    assert rep["score_name"] == "mean_entropy"
    assert 0.0 <= rep["point_auroc"] <= 1.0
    assert len(rep["ci"]) == 2
    assert rep["n_pos"] + rep["n_neg"] == len(items)
    assert rep["n_problems"] == 8
    assert rep["seed"] == 3
    assert rep["rng_id"] == RNG_ID



def _reference_resample_aurocs(items, seed, resamples):
    """One derived RNG, assembled resample and rank-based AUROC per resample."""
    problems, scores, labels = _split(items)
    _, groups = _group_indices(problems)
    values = []
    n_degenerate = 0
    for b in range(resamples):
        draw = derive_rng(seed, b).integers(0, len(groups), size=len(groups))
        rs, rl = _assemble_resample(groups, draw, scores, labels)
        if rl.all() or not rl.any():
            n_degenerate += 1
            continue
        values.append(_auroc_from_arrays(rs, rl))
    return np.array(values, dtype=float), n_degenerate


# each candidate: (problem index, score, label); the list order interleaves
# problems, and small integer scores force ties within and across problems
_candidate = st.tuples(
    st.integers(0, 5),
    st.one_of(
        st.integers(0, 3).map(float),
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    ),
    st.booleans(),
)


@settings(max_examples=150, deadline=None)
@given(
    cands=st.lists(_candidate, min_size=2, max_size=30),
    seed=st.integers(0, 2**32),
    resamples=st.integers(1, 40),
)
@example(  # two one-class problems: every resample drawing one of them twice is single-class
    cands=[(0, 1.0, True), (0, 1.0, True), (1, 0.0, False), (1, 2.0, False)],
    seed=0,
    resamples=40,
)
@example(  # interleaved ids, all scores tied, one problem holding both classes
    cands=[(2, 1.0, True), (0, 1.0, False), (2, 1.0, False), (0, 1.0, False), (1, 1.0, True)],
    seed=3,
    resamples=40,
)
@example(  # a two-word seed: every draw row comes from its own generator
    cands=[(0, 1.0, True), (0, 0.5, False), (1, 2.0, False), (1, 0.0, True), (2, 1.0, True)],
    seed=2**32,
    resamples=40,
)
def test_count_matrix_bootstrap_equals_reference_bit_for_bit(cands, seed, resamples):
    items = [ScoredCandidate(f"p{p}", s, l) for p, s, l in cands]
    problems, scores, labels = _split(items)
    _, groups = _group_indices(problems)
    fast, fast_degenerate = _resample_aurocs(groups, scores, labels, seed, resamples)
    slow, slow_degenerate = _reference_resample_aurocs(items, seed, resamples)
    assert fast_degenerate == slow_degenerate
    assert fast.tobytes() == slow.tobytes()
    cfg = BootstrapConfig(resamples=resamples, seed=seed)
    if len(groups) < 2 or labels.all() or not labels.any() or slow.size == 0:
        with pytest.raises(DegenerateInputError):
            cluster_bootstrap_auroc(items, cfg)
        return
    res = cluster_bootstrap_auroc(items, cfg)
    alpha = (1.0 - cfg.confidence) / 2.0
    assert (res.n_resamples, res.n_degenerate) == (slow.size, slow_degenerate)
    assert res.ci_low == float(np.quantile(slow, alpha, method="nearest"))
    assert res.ci_high == float(np.quantile(slow, 1.0 - alpha, method="nearest"))


def _reference_pair_count_matrix(groups, scores, labels):
    # the membership-matrix product that one bincount replaced
    residual = _residuals(groups, scores)
    member = np.zeros((scores.size, len(groups)))
    for p, idx in enumerate(groups):
        member[idx, p] = 1.0
    r_pos = residual[labels][:, None]
    r_neg = residual[~labels][None, :]
    wins = (r_pos > r_neg) + 0.5 * (r_pos == r_neg)
    m = member[labels].T @ wins @ member[~labels]
    return m, member[labels].sum(axis=0), member[~labels].sum(axis=0)


@settings(max_examples=150, deadline=None)
@given(cands=st.lists(_candidate, min_size=1, max_size=40))
@example(cands=[(0, 1.0, True), (0, 1.0, True), (1, 0.0, False), (1, 2.0, False)])  # single-class problems
@example(cands=[(0, 1.0, True), (1, 1.0, False), (0, 1.0, False), (1, 1.0, True)])  # every residual tied
def test_pair_count_matrix_equals_the_membership_product(cands):
    items = [ScoredCandidate(f"p{p}", s, l) for p, s, l in cands]
    problems, scores, labels = _split(items)
    groups = _group_indices(problems)[1]
    got = stats._pair_count_matrix(groups, scores, labels)
    expected = _reference_pair_count_matrix(groups, scores, labels)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
        assert [v.hex() for v in a.ravel().tolist()] == [v.hex() for v in b.ravel().tolist()]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(st.integers(-3, 3).map(float), st.floats(allow_nan=False, width=64)),
        min_size=1,
        max_size=40,
    )
)
def test_midranks_equal_rankdata_and_pairwise_count(values):
    from scipy.stats import rankdata

    x = np.array(values, dtype=float)
    ranks = _midranks(x)
    assert ranks.tobytes() == rankdata(x).astype(float).tobytes()
    brute = [sum(v < xi for v in x) + (sum(v == xi for v in x) + 1) / 2.0 for xi in x]
    assert ranks.tolist() == brute


def _reference_draw_counts(seed, resamples, n):
    """One derived generator and one `integers` draw per resample."""
    rows = [np.bincount(derive_rng(seed, b).integers(0, n, size=n), minlength=n) for b in range(resamples)]
    return np.array(rows, dtype=float)


@pytest.mark.parametrize(
    "seed, resamples, n",
    [(0, 40, 1), (5, 40, 2), (0, 2000, 60), (3, 500, 7), (2**32 - 1, 100, 61), (2**32, 50, 60), (0, 5, 60000)],
)
def test_draw_counts_equal_the_per_resample_loop(seed, resamples, n):
    stats._draw_counts.cache_clear()
    counts = stats._draw_counts(seed, resamples, n)
    assert counts.tobytes() == _reference_draw_counts(seed, resamples, n).tobytes()
    assert not counts.flags.writeable


def _count_derivations(monkeypatch):
    calls = []

    def counted(*path):
        calls.append(path)
        return derive_rng(*path)

    monkeypatch.setattr(stats, "derive_rng", counted)
    stats._draw_counts.cache_clear()
    return calls


def test_draw_counts_derive_only_row_zero_and_rejected_rows(monkeypatch):
    calls = _count_derivations(monkeypatch)
    stats._draw_counts(0, 2000, 60)
    assert calls == [(0, 0)]  # the check of row 0; every other row is an array row
    calls.clear()
    # an odd count draws the low half of its last raw output, not the high half;
    # with the halves in the wrong order row 0 would differ and every row be derived
    assert stats._draw_counts(0, 2000, 61).tobytes() == _reference_draw_counts(0, 2000, 61).tobytes()
    assert calls == [(0, 0)]
    calls.clear()
    # at 60,000 problems one word in about 14,000 is rejected: rows 3 and 4 hold one
    assert stats._draw_counts(0, 5, 60000).tobytes() == _reference_draw_counts(0, 5, 60000).tobytes()
    assert sorted(calls) == [(0, 0), (0, 3), (0, 4)]


# one-word seeds replay their generators, wider ones derive each; odd counts
# draw the low half of their last raw output only
@settings(max_examples=60, deadline=None)
@given(
    seed=st.one_of(st.sampled_from([0, 2**32 - 1, 2**32]), st.integers(0, 2**70)),
    resamples=st.integers(1, 40),
    n=st.one_of(st.integers(1, 9), st.integers(1, 600)),
)
@example(seed=2**32 - 1, resamples=40, n=599)
@example(seed=2**32, resamples=1, n=1)
def test_draw_counts_equal_the_reference_at_any_seed(seed, resamples, n):
    stats._draw_counts.cache_clear()
    assert stats._draw_counts(seed, resamples, n).tobytes() == _reference_draw_counts(seed, resamples, n).tobytes()


def test_draw_counts_fall_back_to_every_generator_when_row_zero_differs(monkeypatch):
    def ahead(paths):  # a replay whose generators are one raw output ahead
        for rng in replayed(paths):
            rng.bit_generator.random_raw()
            yield rng

    calls = _count_derivations(monkeypatch)
    monkeypatch.setattr(stats, "replayed", ahead)
    assert stats._draw_counts(7, 30, 9).tobytes() == _reference_draw_counts(7, 30, 9).tobytes()
    assert len(calls) == 31
    stats._draw_counts.cache_clear()


def _reference_residuals(items):
    """The per-problem running sums that residualize_within_problem replaced."""
    sums, counts = {}, {}
    for it in items:
        sums[it.problem_id] = sums.get(it.problem_id, 0.0) + np.float64(it.score)
        counts[it.problem_id] = counts.get(it.problem_id, 0) + 1
    return [np.float64(it.score) - sums[it.problem_id] / counts[it.problem_id] for it in items]


@settings(max_examples=150, deadline=None)
@given(
    cands=st.lists(_candidate, min_size=2, max_size=60),
    seed=st.integers(0, 2**32),
    resamples=st.integers(1, 40),
)
@example(cands=[(0, 1e308, True), (0, 1e308, False), (1, 0.0, True), (1, 1.0, False)], seed=0, resamples=5)
def test_score_report_equals_its_public_parts(cands, seed, resamples):
    items = [ScoredCandidate(f"p{p}", s, l) for p, s, l in cands]
    cfg = BootstrapConfig(resamples=resamples, seed=seed)
    with np.errstate(over="ignore"):  # the 1e308 example's problem sums overflow
        residual = residualize_within_problem(items)
        assert [r.score for r in residual] == [float(r) for r in _reference_residuals(items)]
        try:
            boot = cluster_bootstrap_auroc(items, cfg)
            expected = (auroc(residual), [boot.ci_low, boot.ci_high], auprc(residual), boot.n_degenerate)
        except (DegenerateInputError, InvalidInputError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                score_report("s", items, cfg)
            return
        report = score_report("s", items, cfg)
    assert (report["point_auroc"], report["ci"], report["auprc"], report["n_degenerate"]) == expected
    assert boot.point == expected[0]
    labels = [it.label for it in items]
    assert (report["n_pos"], report["n_neg"]) == (sum(labels), len(labels) - sum(labels))
    assert report["n_problems"] == len({it.problem_id for it in items})
