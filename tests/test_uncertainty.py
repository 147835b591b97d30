import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distillab.dists import entropy, row_entropies
from distillab.errors import InvalidInputError
from distillab.seeding import derive_rng
from distillab.uncertainty import (
    DIRICHLET_EPSILON,
    dirichlet_precision,
    score_ensemble,
)


def _score(members, key):
    return score_ensemble([members])[0][key]


def test_mean_entropy_hand_value():
    members = [[0.5, 0.5], [1.0, 0.0]]
    # (ln 2 + 0) / 2
    assert abs(_score(members, "mean_entropy") - math.log(2.0) / 2.0) < 1e-15


def test_mutual_information_agreeing_ensemble_is_zero():
    members = [[0.3, 0.7], [0.3, 0.7], [0.3, 0.7]]
    # summation-order noise only; the value must not be meaningfully positive
    assert 0.0 <= _score(members, "mutual_information") < 1e-12


def test_mutual_information_hand_value():
    # two opposite deltas: mean is uniform, member entropies are 0,
    # so MI = ln 2 exactly
    members = [[1.0, 0.0], [0.0, 1.0]]
    assert abs(_score(members, "mutual_information") - math.log(2.0)) < 1e-15


def test_mutual_information_nonnegative_on_random_ensembles():
    rng = derive_rng(21)
    for _ in range(200):
        m = int(rng.integers(2, 7))
        v = int(rng.integers(2, 9))
        members = rng.dirichlet(np.ones(v), size=m)
        assert _score(members, "mutual_information") >= 0.0


def test_dirichlet_precision_two_delta_fixture():
    # members (1,0) and (0,1): p_bar = (1/2, 1/2), ddof-1 variance sums to 1,
    # kappa_hat = (1 - 1/2) / 1 - 1 = -1/2; the log floors at epsilon
    kappa, log_kappa = dirichlet_precision([[1.0, 0.0], [0.0, 1.0]])
    assert kappa == -0.5
    assert abs(log_kappa - math.log(DIRICHLET_EPSILON)) < 1e-15
    assert abs(log_kappa - (-13.815510557964274)) < 1e-12


def test_dirichlet_precision_identical_members_is_infinite():
    kappa, log_kappa = dirichlet_precision([[0.4, 0.6], [0.4, 0.6]])
    assert kappa == math.inf
    assert abs(log_kappa - math.log(1.0 / DIRICHLET_EPSILON)) < 1e-15


def test_dirichlet_precision_recovers_true_concentration():
    # moment estimator on true Dirichlet(kappa * p) samples: kappa_hat within
    # 10% of kappa = 50 at M = 10^4, V = 8
    rng = derive_rng(22)
    kappa_true = 50.0
    base = rng.dirichlet(np.ones(8))
    members = rng.dirichlet(kappa_true * base, size=10_000)
    kappa_hat, _ = dirichlet_precision(members)
    assert abs(kappa_hat - kappa_true) / kappa_true < 0.10


def test_precision_estimator_monotone_in_spread():
    rng = derive_rng(23)
    base = rng.dirichlet(np.ones(6))
    tight = rng.dirichlet(200.0 * base, size=500)
    loose = rng.dirichlet(5.0 * base, size=500)
    k_tight, _ = dirichlet_precision(tight)
    k_loose, _ = dirichlet_precision(loose)
    assert k_tight > k_loose


def test_ensemble_validation():
    with pytest.raises(InvalidInputError):
        score_ensemble([[[1.0, 0.0]]])  # single member
    with pytest.raises(InvalidInputError):
        score_ensemble([[[0.5, 0.6], [0.5, 0.5]]])  # not a distribution
    with pytest.raises(InvalidInputError):
        dirichlet_precision([[0.5, 0.5], [0.5, 0.5]], epsilon=0.0)


def test_score_ensemble_bundles_everything():
    # one dict per ensemble of the stack, holding the three ensemble scores
    members = [[0.6, 0.4], [0.5, 0.5], [0.7, 0.3]]
    got = score_ensemble([members])
    assert isinstance(got, list) and len(got) == 1
    d = got[0]
    assert list(d) == ["mean_entropy", "mutual_information", "log_kappa"]
    assert abs(d["mean_entropy"] - float(np.mean(row_entropies(np.array(members))))) < 1e-15
    assert d["log_kappa"] == dirichlet_precision(members)[1]


def _reference_scores(members, epsilon):
    # the three scores, each computed on its own array
    arr = np.asarray(members, dtype=float)
    mean_entropy = float(np.mean(row_entropies(arr)))
    mi = entropy(np.asarray(members, dtype=float).mean(axis=0)) - float(np.mean(row_entropies(arr)))
    p_bar = arr.mean(axis=0)
    spread = float(arr.var(axis=0, ddof=1).sum())
    if spread == 0.0:
        log_kappa = math.log(1.0 / epsilon)
    else:
        log_kappa = math.log(max((1.0 - float((p_bar**2).sum())) / spread - 1.0, epsilon))
    return mean_entropy, mi if mi > 0.0 else 0.0, log_kappa


@st.composite
def _ensembles(draw, shape=None):
    members, vocab = shape or (draw(st.integers(2, 6)), draw(st.integers(2, 12)))
    kind = draw(st.sampled_from(["dirichlet", "weights", "identical"]))
    if kind == "dirichlet":
        alpha = draw(st.sampled_from([0.05, 0.5, 5.0]))
        rows = np.random.default_rng(draw(st.integers(0, 2**32))).dirichlet(np.full(vocab, alpha), size=members)
    else:  # integer weights: rows with exact zeros, and identical rows (zero spread)
        weights = st.lists(st.integers(0, 3), min_size=vocab, max_size=vocab).filter(any)
        w = np.array(draw(st.lists(weights, min_size=members, max_size=members)), dtype=float)
        rows = w / w.sum(axis=1, keepdims=True)
        if kind == "identical":
            rows = np.tile(rows[0], (members, 1))
    return rows.tolist() if draw(st.booleans()) else rows


def _floats_bits(values):
    return [float(v).hex() for v in values]


@settings(max_examples=300, deadline=None)
@given(members=_ensembles(), epsilon=st.sampled_from([DIRICHLET_EPSILON, 1e-3, 0.5]))
@example(members=[[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]], epsilon=DIRICHLET_EPSILON)  # zero spread
@example(members=[[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], epsilon=DIRICHLET_EPSILON)  # exact zeros
def test_score_ensemble_equals_the_reference_scores(members, epsilon):
    (got,) = score_ensemble([members], epsilon)
    assert list(got) == ["mean_entropy", "mutual_information", "log_kappa"]
    assert _floats_bits(got.values()) == _floats_bits(_reference_scores(members, epsilon))
    assert got["log_kappa"].hex() == dirichlet_precision(members, epsilon)[1].hex()


@pytest.mark.parametrize(
    "members, epsilon",
    [
        ([[0.5, 0.5], [0.5, 0.5]], 0.0),
        ([[0.5, 0.5], [0.5, 0.5]], math.inf),
        ([[0.5, 0.6], [0.5, 0.5]], 0.0),  # both bad: epsilon is named first
        ([[0.5, 0.6], [0.5, 0.5]], DIRICHLET_EPSILON),
        ([[1.0, 0.0]], DIRICHLET_EPSILON),
    ],
)
def test_score_ensemble_refuses_what_dirichlet_precision_refuses(members, epsilon):
    with pytest.raises(InvalidInputError) as expected:
        dirichlet_precision(members, epsilon)
    with pytest.raises(InvalidInputError) as got:
        score_ensemble([members], epsilon)
    # the same check fails, named for the (1, M, V) stack: its shape and its rows' leading index
    stacked = str(expected.value).replace("(M >=", "(C, M >=").replace("shape (", "shape (1, ")
    assert str(got.value) == stacked.replace("members[", "members[0, ")


def _scores_bits(scores):
    return {key: float(value).hex() for key, value in scores.items()}


@settings(max_examples=150, deadline=None)
@given(
    members=st.integers(2, 6),
    vocab=st.integers(2, 12),
    count=st.integers(1, 5),
    epsilon=st.sampled_from([DIRICHLET_EPSILON, 1e-3, 0.5]),
    data=st.data(),
)
def test_stacked_score_ensemble_equals_each_ensemble(members, vocab, count, epsilon, data):
    # each ensemble is drawn as dirichlet rows, rows with exact zeros, or identical members (zero spread)
    stack = [np.asarray(data.draw(_ensembles((members, vocab))), dtype=float) for _ in range(count)]
    got = score_ensemble(np.array(stack), epsilon)
    assert [_scores_bits(d) for d in got] == [_scores_bits(score_ensemble([e], epsilon)[0]) for e in stack]
    reference = [_reference_scores(e, epsilon) for e in stack]
    assert [list(_scores_bits(d).values()) for d in got] == [_floats_bits(r) for r in reference]


@pytest.mark.parametrize(
    "members, message",
    [
        ([[[0.5, 0.5]], [[1.0, 0.0]]], "ensemble must be (C, M >= 2, vocab) probability rows"),
        # one (M, V) ensemble is not a stack
        ([[0.5, 0.5], [0.5, 0.5]], "ensemble must be (C, M >= 2, vocab) probability rows"),
        ([[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.6]]], "members[1, 1] sums to"),
    ],
)
def test_stacked_score_ensemble_refusals(members, message):
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        score_ensemble(members)
