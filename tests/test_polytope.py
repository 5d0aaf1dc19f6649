import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ldic import (
    ChannelParams,
    RatePoint,
    RatePolytope,
    build_bounds,
    capacity_region,
)
from ldic.bounds import BoundSet
from ldic.params import MAX_EXPONENT
from ldic.polytope import _support

from helpers import (
    constraint_mask,
    contains,
    pairwise_vertices,
    polygon_mask,
    raw_constraints,
    scaled_grid,
    slice_cap,
    subset_of,
    vertex_slice,
)


def region_from_caps(*caps):
    return RatePolytope.from_bounds(BoundSet(caps))


def vertex_set(poly):
    return {(v.r1, v.r2) for v in poly.vertices}


def test_rate_point_coerces_and_validates():
    p = RatePoint(2, 9)
    assert p.r1 == Fraction(2) and isinstance(p.r1, Fraction)
    with pytest.raises(ValueError):
        RatePoint(-1, 0)


def test_vertex_enumeration_on_a_generic_region():
    poly = region_from_caps(10, 9, 15, 25, 24)
    assert vertex_set(poly) == {(0, 0), (0, 9), (6, 9), (10, 5), (10, 0)}
    assert poly.vertices == (
        RatePoint(10, 0),
        RatePoint(10, 5),
        RatePoint(6, 9),
        RatePoint(0, 9),
        RatePoint(0, 0),
    )


def test_origin_only_region():
    poly = region_from_caps(0, 0, 0, 0, 0)
    assert poly.vertices == (RatePoint(0, 0),)


def test_loose_weighted_caps_leave_the_full_square():
    # both weighted caps hold at the far corner, so nothing is cut off
    poly = region_from_caps(5, 5, 10, 15, 15)
    assert vertex_set(poly) == {(0, 0), (5, 0), (5, 5), (0, 5)}
    assert poly.vertices[0] == RatePoint(5, 0)


def test_degenerate_segment_region():
    poly = region_from_caps(0, 7, 9, 9, 9)
    assert poly.vertices == (RatePoint(0, 0), RatePoint(0, Fraction(9, 2)))
    poly = region_from_caps(7, 0, 9, 9, 9)
    assert poly.vertices == (RatePoint(Fraction(9, 2), 0), RatePoint(0, 0))


def test_subset_and_equality():
    narrow = capacity_region(ChannelParams(10, 10, 3, 8, 0, 0))
    wide = capacity_region(ChannelParams(10, 10, 3, 8, 9, 4))
    assert subset_of(narrow, wide)
    assert not subset_of(wide, narrow)
    assert subset_of(narrow, narrow)
    assert narrow.equals_region(narrow)
    assert not narrow.equals_region(wide)


def test_max_linear_examples():
    assert capacity_region(ChannelParams(10, 10, 3, 8, 0, 0)).max_linear(1, 1) == 11
    assert capacity_region(ChannelParams(10, 10, 3, 8, 9, 4)).max_linear(1, 1) == 12
    assert region_from_caps(0, 0, 0, 0, 0).max_linear(3, 7) == 0
    with pytest.raises(ValueError):
        region_from_caps(1, 1, 1, 1, 1).max_linear(0, 0)


def test_slice_max_examples():
    rich = capacity_region(ChannelParams(20, 15, 12, 13, 15, 14))
    bare = capacity_region(ChannelParams(20, 15, 12, 13, 0, 0))
    assert rich.slice_max(2, 10) == 12
    assert bare.slice_max(2, 10) == 10
    assert rich.slice_max(2, 16) is None
    assert rich.slice_max(2, 15) == 2
    with pytest.raises(ValueError):
        rich.slice_max(3, 1)
    with pytest.raises(ValueError):
        rich.slice_max(2, -1)


def test_first_vertex_attains_the_r1_maximum():
    poly = region_from_caps(10, 9, 15, 25, 24)
    assert poly.max_linear(1, 0) == poly.vertices[0].r1


caps_strategy = st.tuples(
    st.integers(0, 50), st.integers(0, 50), st.integers(0, 50),
    st.integers(0, 50), st.integers(0, 50),
)


@settings(max_examples=200, deadline=None)
@given(caps_strategy)
def test_vertices_are_feasible_tight_and_unique(caps):
    poly = region_from_caps(*caps)
    assert len(set(poly.vertices)) == len(poly.vertices)
    for v in poly.vertices:
        assert contains(poly, v)
        tight = sum(
            1
            for c in poly.bounds.constraints
            if c.r1_coeff * v.r1 + c.r2_coeff * v.r2 == c.rhs
        )
        assert tight >= 2
        assert v.r1.denominator in (1, 2, 3)
        assert v.r2.denominator in (1, 2, 3)


@settings(max_examples=200, deadline=None)
@given(caps_strategy)
def test_vertex_order_is_counter_clockwise_from_the_anchor(caps):
    poly = region_from_caps(*caps)
    vs = poly.vertices
    anchor = max(vs, key=lambda v: (v.r1, -v.r2))
    assert vs[0] == anchor
    if len(vs) >= 3:
        for a, b, c in zip(vs, vs[1:] + vs[:1], vs[2:] + vs[:2]):
            turn = (b.r1 - a.r1) * (c.r2 - a.r2) - (b.r2 - a.r2) * (c.r1 - a.r1)
            assert turn > 0


# small caps make several lines meet in one corner; caps up to three times
# the exponent cap stand for the weighted bounds of channels near that cap
wide_cap = st.one_of(st.integers(0, 12), st.integers(0, 3 * MAX_EXPONENT))


def assert_corners_match_the_pairwise_scan(bounds):
    poly = RatePolytope.from_bounds(bounds)
    assert poly.vertices == pairwise_vertices(raw_constraints(bounds))
    assert poly.scaled == tuple((6 * v.r1, 6 * v.r2) for v in poly.vertices)


@settings(max_examples=400, deadline=None)
@given(st.tuples(*[wide_cap] * 5))
def test_corners_match_the_pairwise_scan(caps):
    assert_corners_match_the_pairwise_scan(BoundSet(caps))


# n12 and n21 are drawn independently, and feedback levels run past saturation
wide_exponent = st.one_of(st.integers(0, 12), st.integers(0, MAX_EXPONENT))


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[wide_exponent] * 6))
def test_channel_corners_match_the_pairwise_scan(params):
    assert_corners_match_the_pairwise_scan(build_bounds(ChannelParams(*params)))


@pytest.mark.parametrize(
    "caps,corners",
    [
        # the slice ends at R2max = 2 with R1 = 2 > 0, so (0, R2max) is a
        # corner that no kink gives
        ((10, 2, 6, 10, 6), [(5, 0), (Fraction(14, 3), Fraction(2, 3)), (2, 2), (0, 2), (0, 0)]),
        # the slack R1 and R1 + 2*R2 caps cross at R2 = 1/2, on the edge from
        # (3, 0) to (2, 2), where 12*R1 = 33; rounded to sixths it leaves the edge
        ((5, 7, 5, 6, 6), [(3, 0), (2, 2), (0, 3), (0, 0)]),
    ],
)
def test_corners_at_the_end_and_off_the_sixths_grid(caps, corners):
    assert region_from_caps(*caps).vertices == tuple(RatePoint(*v) for v in corners)
    assert_corners_match_the_pairwise_scan(BoundSet(caps))


def _tight_somewhere(constraint, poly):
    return any(
        constraint.r1_coeff * v.r1 + constraint.r2_coeff * v.r2 == constraint.rhs
        for v in poly.vertices
    )


@settings(max_examples=300, deadline=None)
@given(caps_strategy, caps_strategy, st.integers(0, 4), st.integers(1, 20))
def test_region_equality_is_mutual_inclusion(caps, other_caps, which, amount):
    poly = region_from_caps(*caps)
    bumped = list(caps)
    bumped[which] += amount
    others = [region_from_caps(*other_caps), region_from_caps(*bumped)]
    slack = [k for k, c in enumerate(poly.bounds.constraints[:5]) if not _tight_somewhere(c, poly)]
    if slack:
        # raising a cap that is tight at no vertex changes the bounds, not the region
        loosened = list(caps)
        loosened[slack[which % len(slack)]] += amount
        same = region_from_caps(*loosened)
        assert same.bounds != poly.bounds and same.equals_region(poly)
        assert same != poly  # == compares the bounds as well as the region
        others.append(same)
    for other in others:
        assert poly.equals_region(other) == (subset_of(poly, other) and subset_of(other, poly))
        assert other.equals_region(poly) == poly.equals_region(other)
        # the metrics compare regions by their support values in the five directions
        same_support = _support(poly.bounds.caps) == _support(other.bounds.caps)
        assert same_support == poly.equals_region(other)


def test_grid_oracle_agreement_on_random_cap_sets():
    rng = random.Random(1105)
    for _ in range(60):
        caps = tuple(rng.randint(0, 50) for _ in range(5))
        poly = region_from_caps(*caps)
        s1, s2 = scaled_grid(caps[0], caps[1])
        by_constraints = constraint_mask(raw_constraints(poly.bounds), s1, s2)
        by_vertices = polygon_mask(poly.vertices, s1, s2)
        assert (by_constraints == by_vertices).all(), caps


@settings(max_examples=150, deadline=None)
@given(caps_strategy, st.integers(0, 150), st.integers(0, 150), st.integers(0, 150))
def test_slice_max_is_concave_along_the_axis(caps, a, b, c):
    poly = region_from_caps(*caps)
    top = poly.max_linear(0, 1)
    if top == 0:
        return
    v1, v2, v3 = sorted(Fraction(x * top, 150) for x in (a, b, c))
    s1, s2, s3 = (poly.slice_max(2, v) for v in (v1, v2, v3))
    if v1 == v3:
        return
    # slice_max(v2) must sit on or above the chord through v1 and v3
    assert s2 * (v3 - v1) >= s1 * (v3 - v2) + s3 * (v2 - v1)


# 7 and 35 do not divide 12: such values fall between the twelfths that
# vertex coordinates and their slice caps live on
off_grid = st.builds(Fraction, st.integers(0, 600), st.sampled_from([1, 5, 7, 12, 35]))


@settings(max_examples=300, deadline=None)
@given(caps_strategy, off_grid, st.integers(-3, 3), st.integers(-3, 3))
def test_slice_and_linear_maxima_at_off_grid_values(caps, value, c1, c2):
    poly = region_from_caps(*caps)
    raw = raw_constraints(poly.bounds)
    for axis in (1, 2):
        got = poly.slice_max(axis, value)
        assert got == slice_cap(raw, axis, value) == vertex_slice(poly.vertices, axis, value)
        assert got is None or isinstance(got, Fraction)
    if (c1, c2) != (0, 0):
        got = poly.max_linear(c1, c2)
        assert got == max(c1 * v.r1 + c2 * v.r2 for v in poly.vertices)
        assert isinstance(got, Fraction)
