import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distillab.dists import (
    PROB_FLOOR,
    as_distribution,
    as_rows,
    clipped_fkl_terms,
    entropy,
    fkl_terms,
    floored_log,
    forward_kl,
    reverse_kl,
    row_entropies,
    softmax_with_temperature,
    temperature_scaled,
    truncated_entropy,
)
from distillab.errors import DegenerateInputError, InvalidInputError
from distillab.objectives import EntropyGateWeighting, ObjectiveConfig, RolloutBatch, _objective


def test_softmax_two_point_fixture():
    # softmax((ln 3, 0)) = (3/4, 1/4) exactly
    p = softmax_with_temperature([math.log(3.0), 0.0], 1.0)
    assert abs(p[0] - 0.75) < 1e-15
    assert abs(p[1] - 0.25) < 1e-15


def test_softmax_infinite_temperature_limit():
    # deviation from uniform decays as gap / (4 T): 2.5e-6 at T = 1e6
    p = softmax_with_temperature([10.0, 0.0], 1e6)
    assert abs(p[0] - 0.5) < 2.6e-6
    p = softmax_with_temperature([10.0, 0.0], 1e7)
    assert abs(p[0] - 0.5) < 1e-6
    assert abs(p[1] - 0.5) < 1e-6


def test_softmax_rows_and_shift_stability():
    z = np.array([[1000.0, 1000.0 + math.log(2.0)], [0.0, 0.0]])
    p = softmax_with_temperature(z, 1.0)
    assert p.shape == (2, 2)
    assert abs(p[0, 1] / p[0, 0] - 2.0) < 1e-12
    assert abs(p[1, 0] - 0.5) < 1e-15
    sums = p.sum(axis=1)
    assert np.all(np.abs(sums - 1.0) < 1e-12)


def test_softmax_rejects_bad_temperature_and_logits():
    for bad_t in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidInputError):
            softmax_with_temperature([0.0, 1.0], bad_t)
    with pytest.raises(InvalidInputError):
        softmax_with_temperature([0.0, math.nan], 1.0)


def test_as_distribution_validation():
    arr = as_distribution([0.25, 0.75])
    assert arr.dtype == float
    with pytest.raises(InvalidInputError):
        as_distribution([0.5, 0.6])  # sums to 1.1
    with pytest.raises(InvalidInputError):
        as_distribution([-0.1, 1.1])
    with pytest.raises(InvalidInputError):
        as_distribution([[0.5, 0.5]])
    with pytest.raises(InvalidInputError):
        as_distribution([math.nan, 1.0])


def test_entropy_closed_forms():
    assert entropy([1.0, 0.0]) == 0.0
    assert abs(entropy([0.25, 0.25, 0.25, 0.25]) - math.log(4.0)) < 1e-15
    # H(3/4, 1/4) = ln 4 - (3/4) ln 3
    expected = math.log(4.0) - 0.75 * math.log(3.0)
    assert abs(entropy([0.75, 0.25]) - expected) < 1e-15
    assert abs(expected - 0.5623351446188083) < 1e-15


def test_floored_log_handles_zero():
    out = floored_log(np.array([0.0, 1.0]))
    assert out[0] == math.log(PROB_FLOOR)
    assert out[1] == 0.0


def test_truncated_entropy_renormalizes_top_m():
    # top-2 of (0.7, 0.2, 0.1) -> (7/9, 2/9)
    h = truncated_entropy([0.7, 0.2, 0.1], [True, True, True], 2)
    q = np.array([7.0 / 9.0, 2.0 / 9.0])
    expected = float(-(q * np.log(q)).sum())
    assert abs(h - expected) < 1e-12
    assert abs(h - 0.5297061990576545) < 1e-12


def test_truncated_entropy_respects_mask():
    # masking out the favorite leaves (0.2, 0.1) -> (2/3, 1/3)
    h = truncated_entropy([0.7, 0.2, 0.1], [False, True, True], 2)
    q = np.array([2.0 / 3.0, 1.0 / 3.0])
    expected = float(-(q * np.log(q)).sum())
    assert abs(h - expected) < 1e-12
    assert abs(h - 0.6365141682948128) < 1e-12


def test_truncated_entropy_top_m_wider_than_vocab():
    full = truncated_entropy([0.5, 0.3, 0.2], [True, True, True], 10)
    assert abs(full - entropy([0.5, 0.3, 0.2])) < 1e-15


def test_truncated_entropy_tie_breaks_to_lowest_index():
    # coordinates 0 and 2 tie, so top-1 must pick index 0; the single kept
    # token renormalizes to certainty either way
    h = truncated_entropy([0.4, 0.2, 0.4], [True, True, True], 1)
    assert h == 0.0
    # with top-2 the tie means (0.4, 0.4) is kept, not (0.4, 0.2)
    h2 = truncated_entropy([0.4, 0.2, 0.4], [True, True, True], 2)
    assert abs(h2 - math.log(2.0)) < 1e-15


def test_truncated_entropy_degenerate_mask():
    with pytest.raises(DegenerateInputError):
        truncated_entropy([1.0, 0.0], [False, True], 1)
    with pytest.raises(InvalidInputError):
        truncated_entropy([1.0, 0.0], [True, True], 0)


def _reference_truncated_entropy(p, valid_mask, top_m):
    # the one-row body that the shared prefix_entropies kernel replaced
    masked = np.where(np.asarray(valid_mask, dtype=bool), np.asarray(p, dtype=float), 0.0)
    order = np.argsort(-masked, kind="stable")
    top = masked[order[: min(top_m, masked.size)]]
    top = top[top > 0.0]
    top = top / top.sum()
    return float(-(top * np.log(top)).sum())


@st.composite
def _masked_rows(draw):
    """A probability row (small integer weights, with ties and exact zeros, or
    a Dirichlet draw) and a mask that keeps some of its mass."""
    vocab = draw(st.integers(1, 20))
    if draw(st.booleans()):
        w = np.array(draw(st.lists(st.sampled_from([0, 0, 1, 1, 2, 3, 7]), min_size=vocab, max_size=vocab).filter(any)))
    else:
        alpha = draw(st.sampled_from([0.1, 1.0]))
        w = np.random.default_rng(draw(st.integers(0, 2**32))).dirichlet(np.full(vocab, alpha))
    p = w / w.sum()
    mask = np.array(draw(st.lists(st.booleans(), min_size=vocab, max_size=vocab)))
    mask[int(np.argmax(p))] |= not (mask & (p > 0.0)).any()
    return p, mask


@settings(max_examples=300, deadline=None)
@given(row=_masked_rows(), top_m=st.integers(1, 24))
@example(row=(np.array([0.4, 0.2, 0.4]), np.ones(3, dtype=bool)), top_m=2)  # a tie at the cut
def test_truncated_entropy_equals_the_one_row_reference(row, top_m):
    p, mask = row
    assert truncated_entropy(p, mask, top_m).hex() == _reference_truncated_entropy(p, mask, top_m).hex()


def test_clipped_terms_fixture():
    # q = (1/2, 1/2), p = (1/4, 3/4), clip 0.05:
    #   term0 = (1/2) ln 2 = 0.3466 -> clipped to 0.05
    #   term1 = (1/2) ln(2/3) = -0.2027 (kept, negative)
    terms = clipped_fkl_terms([0.5, 0.5], [0.25, 0.75], 0.05)
    assert terms[0] == 0.05
    assert abs(terms[1] - 0.5 * math.log(2.0 / 3.0)) < 1e-15
    total = float(terms.sum())
    assert abs(total - (0.05 + 0.5 * math.log(2.0 / 3.0))) < 1e-15
    assert abs(total - (-0.1527325540540822)) < 1e-12
    assert total < 0.0  # the sum may be negative by design


def test_clipped_terms_zero_mass_coordinate_is_zero():
    terms = clipped_fkl_terms([0.0, 1.0], [0.5, 0.5], 0.05)
    assert terms[0] == 0.0
    assert abs(terms[1] - 0.05) < 1e-15


def test_clip_large_threshold_recovers_forward_kl():
    q = [0.5, 0.5]
    p = [0.25, 0.75]
    total = float(clipped_fkl_terms(q, p, 1e6).sum())
    assert abs(total - forward_kl(q, p)) < 1e-15
    # closed form: (1/2) ln 2 + (1/2) ln(2/3) = (1/2) ln(4/3)
    assert abs(forward_kl(q, p) - 0.5 * math.log(4.0 / 3.0)) < 1e-15
    assert abs(forward_kl(q, p) - 0.14384103622589042) < 1e-15


def test_clip_threshold_validation():
    with pytest.raises(InvalidInputError):
        clipped_fkl_terms([0.5, 0.5], [0.5, 0.5], 0.0)
    with pytest.raises(InvalidInputError):
        clipped_fkl_terms([0.5, 0.5], [0.5, 0.5], -0.05)


def test_forward_kl_zero_at_equality_and_positive_otherwise():
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = int(rng.integers(2, 12))
        q = rng.dirichlet(np.ones(v))
        p = rng.dirichlet(np.ones(v))
        assert forward_kl(q, q) < 1e-12
        assert forward_kl(q, p) >= -1e-12


def test_reverse_kl_closed_form():
    # RKL((1/2,1/2) teacher, (1/4,3/4) student) = sum_j p_j ln(p_j/q_j)
    expected = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
    got = reverse_kl([0.5, 0.5], [0.25, 0.75])
    assert abs(got - expected) < 1e-15
    assert abs(got - 0.130812035941137) < 1e-12


def test_kl_shape_mismatch_rejected():
    with pytest.raises(InvalidInputError):
        forward_kl([0.5, 0.5], [0.25, 0.25, 0.5])
    with pytest.raises(InvalidInputError):
        reverse_kl([0.5, 0.5], [0.25, 0.25, 0.5])


def test_floor_applies_inside_log_only():
    # teacher mass on a token the student zeroes out: the term uses
    # ln(PROB_FLOOR) but the distributions themselves stay untouched
    q = [0.5, 0.5]
    p = [1.0, 0.0]
    val = forward_kl(q, p)
    expected = 0.5 * math.log(0.5 / 1.0) + 0.5 * (math.log(0.5) - math.log(PROB_FLOOR))
    assert abs(val - expected) < 1e-12


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 12),
    vocab=st.sampled_from([1, 2, 3, 7, 8, 9, 16, 33, 127, 128, 129, 300, 1030]),
    kind=st.sampled_from(["smooth", "ties", "peaked"]),
    zero_share=st.sampled_from([0.0, 0.1, 0.5, 0.9]),
)
def test_row_entropies_equal_per_row_entropy_bit_for_bit(seed, rows, vocab, kind, zero_share):
    rng = np.random.default_rng(seed)
    if kind == "smooth":
        mass = rng.exponential(size=(rows, vocab))
    elif kind == "ties":
        mass = rng.integers(1, 4, size=(rows, vocab)).astype(float)
    else:
        mass = np.exp(40.0 * rng.standard_normal((rows, vocab)))
    mass[rng.random((rows, vocab)) < zero_share] = 0.0
    mass[:, 0] += 1.0  # no row is all zero
    table = mass / mass.sum(axis=1, keepdims=True)
    expected = np.array([entropy(row) for row in table])
    got = row_entropies(table)
    assert got.tobytes() == expected.tobytes()
    if vocab >= 2:
        # the gate on the same rows, with the threshold exactly at one row's entropy
        threshold = float(expected[rng.integers(rows)])
        batch = RolloutBatch([table], [np.zeros((rows, vocab))])
        mask = _objective(batch, ObjectiveConfig(), EntropyGateWeighting(threshold)).gates
        assert mask.tolist() == [h > threshold for h in expected]


def test_row_entropies_validation():
    assert row_entropies([[1.0, 0.0], [0.5, 0.5]]).tolist() == [0.0, math.log(2.0)]
    for bad in ([0.5, 0.5], [[0.5, 0.6]], [[1.5, -0.5]], [[np.nan, 1.0]], np.zeros((2, 0))):
        with pytest.raises(InvalidInputError):
            row_entropies(bad)


# Reference copies of the term and temperature code that dists.fkl_terms and
# dists.temperature_scaled replaced, kept as oracles for bit equality.
def _ref_fkl_raw_terms(q, p):  # the former objectives._fkl_raw_terms
    logp = np.log(np.maximum(p, PROB_FLOOR))
    logq = np.log(np.maximum(q, PROB_FLOOR))
    return np.where(q > 0.0, q * (logq - logp), 0.0)


def _ref_clipped_terms(qa, pa, clip):  # the body of clipped_fkl_terms
    raw = np.where(qa > 0.0, qa * (np.log(np.maximum(qa, PROB_FLOOR)) - floored_log(pa)), 0.0)
    return np.minimum(raw, clip)


def _ref_reverse_kl(qa, pa):  # the body of reverse_kl
    terms = np.where(pa > 0.0, pa * (np.log(np.maximum(pa, PROB_FLOOR)) - floored_log(qa)), 0.0)
    return float(terms.sum())


def _ref_trainer_temperature_scaled(q, temperature):  # trainer._temperature_scaled
    if temperature == 1.0:
        return q
    scaled = np.where(q > 0.0, np.exp(np.log(np.maximum(q, PROB_FLOOR)) / temperature), 0.0)
    return scaled / scaled.sum(axis=-1, keepdims=True)


def _ref_nucleus_scaling(p, temperature):  # the scaling inside world._nucleus_prefix
    if temperature != 1.0:
        scaled = np.where(p > 0.0, np.exp(np.log(np.maximum(p, PROB_FLOOR)) / temperature), 0.0)
        p = scaled / scaled.sum()
    return p


def _identical(a, b):
    """Equal values, signs of zero, dtype and shape: bit equality without
    comparing the padding bytes of a longdouble."""
    a, b = np.asarray(a), np.asarray(b)
    same_meta = a.dtype == b.dtype and a.shape == b.shape
    return same_meta and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _random_rows(rng, shape, zero_share):
    mass = np.exp(6.0 * rng.standard_normal(shape))
    mass[rng.random(shape) < zero_share] = 0.0
    mass[..., 0] += 1.0  # no row is all zero
    return mass / mass.sum(axis=-1, keepdims=True)


_ROW_SHAPES = st.sampled_from([(1,), (2,), (12,), (129,), (1, 2), (5, 12), (7, 129), (3, 4, 9)])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=_ROW_SHAPES,
    zero_share=st.sampled_from([0.0, 0.3, 0.9]),
    dtype=st.sampled_from([np.float64, np.longdouble]),
)
def test_fkl_terms_equal_every_replaced_copy_bit_for_bit(seed, shape, zero_share, dtype):
    rng = np.random.default_rng(seed)
    q = _random_rows(rng, shape, zero_share).astype(dtype)
    p = _random_rows(rng, shape, zero_share).astype(dtype)
    got = fkl_terms(q, p)
    assert got.dtype == dtype
    assert _identical(got, _ref_fkl_raw_terms(q, p))
    if dtype is np.longdouble:
        return
    rows = q.reshape(-1, shape[-1]), p.reshape(-1, shape[-1])
    reverse = fkl_terms(rows[1], rows[0]).sum(axis=-1)  # the gate's masked row sums
    for q_row, p_row, rkl in zip(*rows, reverse):
        assert rkl == reverse_kl(q_row, p_row) == _ref_reverse_kl(q_row, p_row)
        assert forward_kl(q_row, p_row) == float(_ref_fkl_raw_terms(q_row, p_row).sum())
        for clip in (1e-3, 0.05, 1e6):
            got_terms = clipped_fkl_terms(q_row, p_row, clip)
            assert _identical(got_terms, _ref_clipped_terms(q_row, p_row, clip))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=_ROW_SHAPES,
    zero_share=st.sampled_from([0.0, 0.3, 0.9]),
    temperature=st.sampled_from([1.0, 0.1, 0.7, 1.1, 2.5, 7.0]),
)
def test_temperature_scaled_equals_both_replaced_copies(seed, shape, zero_share, temperature):
    rng = np.random.default_rng(seed)
    q = _random_rows(rng, shape, zero_share)
    got = temperature_scaled(q, temperature)
    assert _identical(got, _ref_trainer_temperature_scaled(q, temperature))
    if temperature == 1.0:
        assert got is q
    for row in q.reshape(-1, shape[-1]):
        assert _identical(temperature_scaled(row, temperature), _ref_nucleus_scaling(row, temperature))


def test_temperature_scaled_low_temperature_sharpens():
    p = np.array([0.6, 0.4])
    # at T = 0.1 the head holds nearly all mass: 0.6^10 / (0.6^10 + 0.4^10)
    sharp = temperature_scaled(p, 0.1)
    assert abs(sharp[0] - 0.6**10 / (0.6**10 + 0.4**10)) < 1e-12
    assert sharp[0] > 0.98
    # above T = 1 the head keeps the lead with less mass
    assert 0.5 < temperature_scaled(p, 4.0)[0] < 0.6


# Reference copy of the 1-D check that as_rows replaced, run row by row as
# `score` ran it on `members[i]`, kept as an oracle for which input raises and
# which row the message names.
def _reference_as_distribution(p, name):
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise InvalidInputError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    if np.any(arr < 0.0):
        raise InvalidInputError(f"{name} contains negative entries")
    total = float(arr.sum())
    if abs(total - 1.0) > 1e-9:
        raise InvalidInputError(f"{name} sums to {total!r}, expected 1 within {1e-9}")
    return arr


def _reference_rows_loop(p, name):
    arr = np.asarray(p, dtype=float)
    for index in np.ndindex(arr.shape[:-1]):
        label = f"{name}[{', '.join(map(str, index))}]" if index else name
        _reference_as_distribution(arr[index], label)
    return arr


_DEFECTS = ("nan", "inf", "inf-inf", "negative", "negative-sums-to-1", "off-sum", "zero", "overflow")


def _plant(row, defect, rng):
    """Make one probability row invalid in the named way."""
    k = rng.integers(row.size)
    if defect == "nan":
        row[k] = np.nan
    elif defect == "inf":
        row[k] = np.inf
    elif defect == "inf-inf":  # sums to nan
        row[:2] = np.inf, -np.inf
    elif defect == "negative":
        row[k] = -0.25
    elif defect == "negative-sums-to-1":
        row[:] = 0.0
        row[:2] = 1.5, -0.5
    elif defect == "off-sum":
        row *= 1.0 + 1e-6
    elif defect == "zero":
        row[:] = 0.0
    else:  # finite entries whose sum overflows
        row[:] = 1e308


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.lists(st.integers(1, 4), min_size=0, max_size=2),
    vocab=st.integers(1, 6),
    defects=st.lists(st.tuples(st.integers(0, 63), st.sampled_from(_DEFECTS)), max_size=3),
)
@example(seed=0, shape=[], vocab=3, defects=[(0, "zero")])
@example(seed=0, shape=[2, 3], vocab=2, defects=[(4, "negative-sums-to-1"), (5, "nan")])
def test_as_rows_names_the_row_the_per_row_loop_names(seed, shape, vocab, defects):
    rng = np.random.default_rng(seed)
    arr = rng.dirichlet(np.ones(vocab), size=tuple(shape)) if shape else rng.dirichlet(np.ones(vocab))
    rows = arr.reshape(-1, vocab)
    for at, defect in defects:
        if vocab >= 2 or defect not in ("inf-inf", "negative-sums-to-1"):
            _plant(rows[at % rows.shape[0]], defect, rng)
    outcomes = []
    for check in (as_rows, _reference_rows_loop):
        with np.errstate(all="ignore"):  # the reference's sums may overflow
            try:
                got = check(arr, "members")
                outcomes.append(("ok", got.tobytes()))
            except InvalidInputError as exc:
                outcomes.append(("raised", str(exc)))
    assert outcomes[0] == outcomes[1]
    if not defects:
        assert outcomes[0][0] == "ok"


@pytest.mark.parametrize(
    "p, complaint",
    [
        ([1e308] * 3, "members sums to inf"),
        ([[0.5, 0.5], [1e308, 1e308]], "members[1] sums to inf"),
    ],
)
def test_as_rows_refuses_an_overflowing_sum_without_a_warning(p, complaint):
    # finite, non-negative entries whose sum overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError) as info:
            as_rows(p, "members")
    assert str(info.value).startswith(complaint)
