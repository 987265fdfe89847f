import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lingdecide.errors import RangeError
from lingdecide.scale import (
    LinguisticScale,
    TermCoord,
    from_unit,
    parse_term,
    to_unit,
    unit_value,
)


def test_center_maps_to_half(scale):
    assert to_unit(scale, TermCoord(0, 0)) == 0.5


def test_endpoints(scale):
    assert to_unit(scale, TermCoord(-4, 0)) == 0.0
    assert to_unit(scale, TermCoord(4, 0)) == 1.0


def test_known_unit_values(scale):
    # gamma = (k + (tau + t) * zeta) / (2 * zeta * tau) at tau = zeta = 4
    assert to_unit(scale, TermCoord(-2, 1)) == pytest.approx(9 / 32, abs=0)
    assert to_unit(scale, TermCoord(1, -2)) == pytest.approx(18 / 32, abs=0)
    assert to_unit(scale, TermCoord(2, -1)) == pytest.approx(23 / 32, abs=0)


def test_second_hierarchy_refines_first(scale):
    base = to_unit(scale, TermCoord(1, 0))
    assert to_unit(scale, TermCoord(1, 1)) > base
    assert to_unit(scale, TermCoord(1, -1)) < base


def test_from_unit_canonical_branch(scale):
    coord = from_unit(scale, 9 / 32)
    assert coord == TermCoord(-2.0, 1.0)
    assert from_unit(scale, 0.5) == TermCoord(0.0, 0.0)
    assert from_unit(scale, 0.0) == TermCoord(-4.0, 0.0)


def test_from_unit_one_is_the_top_term(scale):
    assert from_unit(scale, 1.0) == TermCoord(4.0, 0.0)


def test_from_unit_rejects_outside(scale):
    with pytest.raises(RangeError):
        from_unit(scale, -0.001)
    with pytest.raises(RangeError):
        from_unit(scale, 1.001)
    with pytest.raises(RangeError):
        from_unit(scale, math.nan)


def test_to_unit_names_offending_coordinate(scale):
    with pytest.raises(RangeError, match="t=5"):
        to_unit(scale, TermCoord(5, 0))
    with pytest.raises(RangeError, match="k=-7"):
        to_unit(scale, TermCoord(0, -7))


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_round_trip_unit(gamma):
    scale = LinguisticScale(4, 4)
    assert abs(to_unit(scale, from_unit(scale, gamma)) - gamma) <= 1e-12


@given(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=9),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_round_trip_any_scale(tau, zeta, gamma):
    scale = LinguisticScale(tau, zeta)
    assert abs(to_unit(scale, from_unit(scale, gamma)) - gamma) <= 1e-12


@given(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=4),
)
def test_coords_survive_as_unit_values(t, k):
    # from_unit canonicalizes the representation but never the value;
    # corner coords below s-4 or above s4 lie off the scale, skip them
    scale = LinguisticScale(4, 4)
    gamma = unit_value(scale, t, k)
    assume(0.0 <= gamma <= 1.0)
    assert to_unit(scale, from_unit(scale, gamma)) == pytest.approx(gamma, abs=1e-12)


def test_strictly_increasing_in_each_coordinate(scale):
    for t in range(-3, 4):
        for k in range(-4, 4):
            assert unit_value(scale, t, k) < unit_value(scale, t, k + 1)
            assert unit_value(scale, t, k) < unit_value(scale, t + 1, k)


def test_label_validation():
    with pytest.raises(RangeError):
        LinguisticScale(2, 2, first_labels=("a", "b"))
    with pytest.raises(RangeError):
        LinguisticScale(0, 2)
    with pytest.raises(RangeError):
        LinguisticScale(2, -1)


def test_parse_term_literals():
    assert parse_term("s-2(o1)") == TermCoord(-2.0, 1.0)
    assert parse_term(" s0(o0) ") == TermCoord(0.0, 0.0)
    assert parse_term("s1.5(o-0.5)") == TermCoord(1.5, -0.5)


def test_parse_rejects_garbage():
    for text in ("s1o2", "t1(o2)", "s(o)", "s1(o2", "", "s--1(o2)"):
        with pytest.raises(RangeError):
            parse_term(text)
