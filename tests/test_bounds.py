import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ldic import ChannelParams, RatePolytope, build_bounds, capacity_region, derive_variant
from ldic.bounds import (
    Bound, BoundSet, Constraint, _link_terms, compose_bounds, evaluate_bound, link_profile,
)
from ldic.params import MAX_EXPONENT

from helpers import bresler_tse_caps, suh_tse_caps

exponents = st.integers(min_value=0, max_value=30)


def params_strategy(limit=30):
    bounded = st.integers(min_value=0, max_value=limit)
    return st.builds(ChannelParams, bounded, bounded, bounded, bounded, bounded, bounded)


@pytest.mark.parametrize(
    "params,bound,expected",
    [
        (ChannelParams(20, 15, 12, 13, 15, 14), Bound.SUM_INTERFERENCE, 22),
        (ChannelParams(20, 15, 12, 13, 15, 14), Bound.SUM_FEEDBACK, 29),
        (ChannelParams(20, 15, 12, 13, 0, 0), Bound.R1_PARTNER_FEEDBACK, 20),
        (ChannelParams(7, 8, 15, 13, 11, 9), Bound.R1_PARTNER_FEEDBACK, 9),
        (ChannelParams(10, 10, 3, 8, 9, 4), Bound.WEIGHTED_2R1_R2, 21),
    ],
)
def test_bound_evaluations(params, bound, expected):
    assert evaluate_bound(params, bound) == expected


def test_exactly_eight_bounds():
    assert len(Bound) == 8
    assert len({b.value for b in Bound}) == 8


@pytest.mark.parametrize(
    "params,expected",
    [
        (ChannelParams(10, 10, 3, 8, 0, 0), (10, 10, 11, 20, 20)),
        (ChannelParams(10, 10, 3, 8, 9, 4), (10, 10, 12, 21, 21)),
        (ChannelParams(0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0)),
    ],
)
def test_build_bounds_caps(params, expected):
    assert build_bounds(params).caps == expected


def test_individual_caps_collapse_without_feedback_exhaustively():
    # every forward/interference combination in [0,25]^4 at zero feedback
    for f1, f2, i12, i21 in itertools.product(range(26), repeat=4):
        p = ChannelParams(f1, f2, i12, i21)
        a1 = min(
            evaluate_bound(p, Bound.R1_INTERFERENCE),
            evaluate_bound(p, Bound.R1_PARTNER_FEEDBACK),
        )
        a2 = min(
            evaluate_bound(p, Bound.R2_INTERFERENCE),
            evaluate_bound(p, Bound.R2_PARTNER_FEEDBACK),
        )
        assert (a1, a2) == (f1, f2), (f1, f2, i12, i21)


@settings(max_examples=150, deadline=None)
@given(params_strategy(), st.integers(0, 10), st.integers(0, 10))
def test_bounds_monotone_in_feedback(params, extra1, extra2):
    import dataclasses

    richer = dataclasses.replace(params, fb11=params.fb11 + extra1, fb22=params.fb22 + extra2)
    for bound in Bound:
        assert evaluate_bound(params, bound) <= evaluate_bound(richer, bound)


@settings(max_examples=150, deadline=None)
@given(params_strategy(), st.integers(0, 15), st.integers(0, 15))
def test_bounds_saturate(params, extra1, extra2):
    import dataclasses

    sat = derive_variant(params, "perfect_feedback")
    beyond = dataclasses.replace(sat, fb11=sat.fb11 + extra1, fb22=sat.fb22 + extra2)
    for bound in Bound:
        assert evaluate_bound(sat, bound) == evaluate_bound(beyond, bound)


_SWAP = {
    Bound.R1_INTERFERENCE: Bound.R2_INTERFERENCE,
    Bound.R2_INTERFERENCE: Bound.R1_INTERFERENCE,
    Bound.R1_PARTNER_FEEDBACK: Bound.R2_PARTNER_FEEDBACK,
    Bound.R2_PARTNER_FEEDBACK: Bound.R1_PARTNER_FEEDBACK,
    Bound.SUM_INTERFERENCE: Bound.SUM_INTERFERENCE,
    Bound.SUM_FEEDBACK: Bound.SUM_FEEDBACK,
    Bound.WEIGHTED_2R1_R2: Bound.WEIGHTED_2R2_R1,
    Bound.WEIGHTED_2R2_R1: Bound.WEIGHTED_2R1_R2,
}


@settings(max_examples=150, deadline=None)
@given(params_strategy())
def test_bounds_symmetric_under_user_swap(params):
    swapped = params.swapped()
    for bound in Bound:
        assert evaluate_bound(params, bound) == evaluate_bound(swapped, _SWAP[bound])


def test_constraint_rejects_negative_rhs():
    with pytest.raises(ValueError):
        Constraint(1, 0, -1)


def test_constraint_holds_is_boundary_inclusive():
    c = Constraint(1, 1, 5)
    assert c.holds(2, 3)
    assert not c.holds(3, 3)


def test_bound_set_holds_five_non_negative_caps():
    for caps in ((1, 2, 3, 4), (1, 2, 3, 4, 5, 6), (1, 2, -3, 4, 5)):
        with pytest.raises(ValueError):
            BoundSet(caps)
    with pytest.raises(ValueError):
        BoundSet((1, 2, 3, 4, 5), (None,) * 4)
    good = BoundSet((1, 2, 3, 4, 5))
    assert good.sources == (None,) * 5
    assert [(c.r1_coeff, c.r2_coeff, c.rhs, c.source) for c in good.constraints] == [
        (1, 0, 1, None), (0, 1, 2, None), (1, 1, 3, None), (2, 1, 4, None), (1, 2, 5, None),
        (-1, 0, 0, None), (0, -1, 0, None),
    ]


def test_provenance_reports_binding_bound():
    bs = build_bounds(ChannelParams(10, 10, 3, 8, 0, 0))
    by_form = {(c.r1_coeff, c.r2_coeff): c.source for c in bs.constraints}
    # individual caps tie between the two evaluations; the plain one is reported
    assert by_form[(1, 0)] is Bound.R1_INTERFERENCE
    assert by_form[(0, 1)] is Bound.R2_INTERFERENCE
    assert by_form[(1, 1)] is Bound.SUM_FEEDBACK  # 11 beats 12
    assert by_form[(2, 1)] is Bound.WEIGHTED_2R1_R2
    assert by_form[(-1, 0)] is None


def test_provenance_switches_when_the_other_evaluation_binds():
    bs = build_bounds(ChannelParams(10, 10, 3, 8, 9, 4))
    by_form = {(c.r1_coeff, c.r2_coeff): c.source for c in bs.constraints}
    assert by_form[(1, 1)] is Bound.SUM_INTERFERENCE  # 12 beats 13 once feedback helps


def test_partner_feedback_can_cap_below_direct_link():
    # strong interference plus a weak partner loop throttles user 2
    bs = build_bounds(ChannelParams(7, 8, 15, 13, 11, 9))
    by_form = {(c.r1_coeff, c.r2_coeff): (c.rhs, c.source) for c in bs.constraints}
    assert by_form[(1, 0)] == (9, Bound.R1_PARTNER_FEEDBACK)
    assert by_form[(0, 1)] == (11, Bound.R2_PARTNER_FEEDBACK)


@settings(max_examples=200, deadline=None)
@given(params_strategy())
def test_every_evaluation_is_non_negative(params):
    # intermediate terms may dip below zero, but each finished bound cannot;
    # BoundSet refuses a negative cap, so build_bounds relies on this
    for bound in Bound:
        assert evaluate_bound(params, bound) >= 0


def test_feedback_credit_saturates_the_sum_bound():
    # pushing one feedback link past its saturation level leaves every
    # evaluation frozen; scanning levels confirms where growth stops
    import dataclasses

    base = ChannelParams(10, 10, 3, 8, 0, 0)
    values = [
        evaluate_bound(dataclasses.replace(base, fb11=level), Bound.SUM_FEEDBACK)
        for level in range(0, 16)
    ]
    assert values == sorted(values)
    saturation = base.feedback_saturation(1)
    assert len(set(values[saturation:])) == 1


_CANDIDATES = (
    (Bound.R1_INTERFERENCE, Bound.R1_PARTNER_FEEDBACK),
    (Bound.R2_INTERFERENCE, Bound.R2_PARTNER_FEEDBACK),
    (Bound.SUM_INTERFERENCE, Bound.SUM_FEEDBACK),
    (Bound.WEIGHTED_2R1_R2,),
    (Bound.WEIGHTED_2R2_R1,),
)


@st.composite
def channels_and_levels(draw, exponent):
    """A channel with arbitrary feedback fields, and one level per link up to saturation."""
    params = ChannelParams(*(draw(exponent) for _ in range(6)))
    level1 = draw(st.integers(0, params.feedback_saturation(1)))
    level2 = draw(st.integers(0, params.feedback_saturation(2)))
    return params, level1, level2


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    channels_and_levels(st.integers(0, 40)),
    channels_and_levels(st.one_of(st.integers(0, 40),
                                  st.integers(MAX_EXPONENT - 40, MAX_EXPONENT))),
))
def test_bound_set_composes_from_each_links_terms(case):
    # the identity sweep rests on: link 1's terms at fb11 and link 2's at
    # fb22, whatever feedback levels the channel itself carries, give
    # build_bounds at (fb11, fb22) right-hand side for right-hand side and
    # source for source
    params, level1, level2 = case
    cell = dataclasses.replace(params, fb11=level1, fb22=level2)
    expected = build_bounds(cell)

    (r2_cap, r2_src), weighted_2r2_r1, credit1 = _link_terms(params, 1, level1)
    (r1_cap, r1_src), weighted_2r1_r2, credit2 = _link_terms(params, 2, level2)
    no_feedback = dataclasses.replace(params, fb11=0, fb22=0)
    sum_interference = evaluate_bound(no_feedback, Bound.SUM_INTERFERENCE)
    sum_feedback = evaluate_bound(no_feedback, Bound.SUM_FEEDBACK) + credit1 + credit2
    sum_pair = (sum_feedback, Bound.SUM_FEEDBACK) if sum_feedback < sum_interference else (
        sum_interference, Bound.SUM_INTERFERENCE)
    composed = (
        (r1_cap, r1_src),
        (r2_cap, r2_src),
        sum_pair,
        (weighted_2r1_r2, Bound.WEIGHTED_2R1_R2),
        (weighted_2r2_r1, Bound.WEIGHTED_2R2_R1),
    )
    assert tuple((c.rhs, c.source) for c in expected.constraints[:5]) == composed

    # each cap is its first smallest elementary evaluation at the cell
    for constraint, candidates in zip(expected.constraints, _CANDIDATES):
        values = [evaluate_bound(cell, bound) for bound in candidates]
        assert constraint.rhs == min(values)
        assert constraint.source == candidates[values.index(min(values))]

    terms1, terms2 = _link_terms(params, 1, level1), _link_terms(params, 2, level2)
    assert compose_bounds(params, terms1, terms2) == expected

    if max(params.feedback_saturation(1), params.feedback_saturation(2)) <= 40:
        for link in (1, 2):
            distinct, index = link_profile(params, link)
            levels = range(params.feedback_saturation(link) + 1)
            assert [distinct[i] for i in index] == [_link_terms(params, link, k) for k in levels]
            # each listed once, in order of the lowest level that gives it
            assert len(set(distinct)) == len(distinct)
            assert list(dict.fromkeys(index)) == list(range(len(distinct)))


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.integers(0, 40)] * 4))
def test_distinct_link_terms_pair_one_to_one_with_distinct_caps(exponents):
    # the 2*Ri + R_link cap fixes the link's credit and a cap's value fixes
    # its source, so no two pairs of distinct link terms give equal caps
    params = ChannelParams(*exponents)
    terms1, _ = link_profile(params, 1)
    terms2, _ = link_profile(params, 2)
    distinct = {
        build_bounds(dataclasses.replace(params, fb11=fb11, fb22=fb22)).caps
        for fb11 in range(params.feedback_saturation(1) + 1)
        for fb22 in range(params.feedback_saturation(2) + 1)
    }
    assert len(terms1) * len(terms2) == len(distinct)


def test_endpoint_regions_match_the_published_closed_forms():
    # Bresler-Tse without feedback, Suh-Tse with perfect feedback: both
    # oracles are written from the papers, not from this module's formulas
    for exponents in itertools.product(range(9), repeat=4):
        if not any(exponents):
            continue
        params = ChannelParams(*exponents)
        for oracle, variant in ((bresler_tse_caps, "no_feedback"),
                                (suh_tse_caps, "perfect_feedback")):
            expected = RatePolytope.from_bounds(BoundSet(oracle(params)))
            region = capacity_region(derive_variant(params, variant))
            assert region.equals_region(expected), (exponents, variant)


def test_feedback_of_only_the_own_signal_leaves_the_region_unchanged():
    # the top (n11 - n12)+ levels of receiver 1's output carry Tx1's own
    # signal alone, so feeding back at most that many teaches Tx1 nothing;
    # unlike the endpoint forms, this tells n12 from n21
    for n11, n22, n12, n21 in itertools.product(range(7), repeat=4):
        params = ChannelParams(n11, n22, n12, n21)
        for link, own_only, field, other in ((1, max(n11 - n12, 0), "fb11", "fb22"),
                                             (2, max(n22 - n21, 0), "fb22", "fb11")):
            for other_level in range(params.feedback_saturation(3 - link) + 1):
                at_zero = dataclasses.replace(params, **{other: other_level})
                region = capacity_region(at_zero)
                for level in range(1, own_only + 1):
                    moved = capacity_region(dataclasses.replace(at_zero, **{field: level}))
                    assert moved.equals_region(region), (params, field, level, other_level)
