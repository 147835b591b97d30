import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distillab.errors import InvalidInputError
from distillab.schedules import (
    PRESETS,
    PositionSchedule,
    _logistic,
    position_fraction,
    preset,
    weight,
    weights_for_length,
)

EXPECTED_PRESETS = {
    "mild": (0.50, 0.20, 0.20),
    "moderate": (0.25, 0.30, 0.10),
    "sharp": (0.10, 0.40, 0.05),
    "aggressive": (0.05, 0.50, 0.05),
}


def test_preset_table():
    assert set(PRESETS) == set(EXPECTED_PRESETS)
    for name, (w_min, mid, steep) in EXPECTED_PRESETS.items():
        s = preset(name)
        assert (s.w_min, s.midpoint, s.steepness) == (w_min, mid, steep)
    assert preset("Moderate") is PRESETS["moderate"]
    with pytest.raises(InvalidInputError):
        preset("gentle")


def test_midpoint_anchor_is_exact():
    # at r = midpoint the sigmoid argument is exactly 0, so the weight is
    # exactly w_min + (1 - w_min) / 2
    for name in EXPECTED_PRESETS:
        s = preset(name)
        assert weight(s.midpoint, s) == s.w_min + (1.0 - s.w_min) * 0.5


def test_monotone_on_dense_grid():
    grid = np.linspace(0.0, 1.0, 10_000)
    for name in EXPECTED_PRESETS:
        w = weight(grid, preset(name))
        assert np.all(np.diff(w) >= 0.0)
        assert w[0] >= preset(name).w_min - 1e-12
        assert w[-1] <= 1.0 + 1e-12


def test_endpoints_approach_floor_and_one():
    s = preset("moderate")
    # start of sequence: close to the floor; end: close to 1
    assert abs(weight(0.0, s) - 0.25) < 0.05
    assert weight(1.0, s) > 0.99


def test_moderate_frozen_values():
    s = preset("moderate")
    assert abs(weight(0.0, s) - 0.2855694048831751) < 1e-15
    assert abs(weight(0.99, s) - 0.9992449218849357) < 1e-15


def test_position_fraction_convention():
    # one-based position t of L tokens sits at (t - 0.5) / L
    assert position_fraction(1, 4) == 0.125
    assert position_fraction(4, 4) == 0.875
    with pytest.raises(InvalidInputError):
        position_fraction(0, 4)
    with pytest.raises(InvalidInputError):
        position_fraction(5, 4)
    with pytest.raises(InvalidInputError):
        position_fraction(1, 0)


def test_weights_for_length_matches_scalar_calls():
    s = preset("sharp")
    for L in (1, 2, 7, 48):
        vec = weights_for_length(L, s)
        assert vec.shape == (L,)
        for t in range(1, L + 1):
            assert abs(vec[t - 1] - weight(position_fraction(t, L), s)) < 1e-15
        assert np.all(np.diff(vec) >= 0.0)


def test_weight_rejects_out_of_range_fractions():
    s = preset("mild")
    with pytest.raises(InvalidInputError):
        weight(-0.01, s)
    with pytest.raises(InvalidInputError):
        weight(1.01, s)


def test_schedule_validation():
    with pytest.raises(InvalidInputError):
        PositionSchedule(w_min=-0.1, midpoint=0.5, steepness=0.1)
    with pytest.raises(InvalidInputError):
        PositionSchedule(w_min=0.5, midpoint=1.5, steepness=0.1)
    with pytest.raises(InvalidInputError):
        PositionSchedule(w_min=0.5, midpoint=0.5, steepness=0.0)


def test_w_min_one_degenerates_to_uniform():
    s = PositionSchedule(w_min=1.0, midpoint=0.3, steepness=0.1)
    vec = weights_for_length(17, s)
    assert np.all(vec == 1.0)


# math.exp(-x) overflows below about -709.78; expit returns 0.0 there
LOGISTIC_ARGS = st.one_of(
    st.floats(-40.0, 40.0),
    st.floats(-800.0, 800.0),
    st.floats(-709.9, -709.7),
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 5e-324, np.nextafter(-709.78, 0.0)]),
)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=400, deadline=None)
@given(xs=st.lists(LOGISTIC_ARGS, min_size=1, max_size=64))
def test_libm_logistic_equals_scipy_expit_bit_for_bit(xs):
    from scipy.special import expit  # the oracle; the package never imports scipy

    x = np.array(xs)
    assert _bits([_logistic(v) for v in xs]) == _bits(expit(x))


@settings(max_examples=300, deadline=None)
@given(
    w_min=st.floats(0.0, 1.0),
    midpoint=st.floats(0.0, 1.0),
    steepness=st.one_of(st.floats(1e-300, 1e-3), st.floats(1e-3, 10.0)),
    r=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=32),
)
def test_weight_equals_expit_formula_bit_for_bit(w_min, midpoint, steepness, r):
    from scipy.special import expit

    s = PositionSchedule(w_min, midpoint, steepness)
    arr = np.array(r + [midpoint])  # the midpoint anchor evaluates expit(0)
    expected = s.w_min + (1.0 - s.w_min) * expit((arr - s.midpoint) / s.steepness)
    assert _bits(weight(arr, s)) == _bits(expected)
    assert weight(midpoint, s) == s.w_min + (1.0 - s.w_min) * 0.5
    assert _bits(weight(r[0], s)) == _bits(expected[0])


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_weights_for_length_is_memoised_and_read_only(name):
    s = preset(name)
    for L in (1, 5, 48, 333):
        vec = weights_for_length(L, s)
        assert weights_for_length(L, s) is vec
        assert not vec.flags.writeable
        with pytest.raises(ValueError):
            vec[0] = 0.0
        fresh = weights_for_length.__wrapped__(L, s)  # uncached
        assert fresh is not vec
        assert _bits(fresh) == _bits(vec)
        t = np.arange(1, L + 1, dtype=float)
        assert _bits(weight((t - 0.5) / L, s)) == _bits(vec)
    with pytest.raises(InvalidInputError):
        weights_for_length(0, s)
