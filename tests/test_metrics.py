import collections
import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ldic.bounds
import ldic.metrics
import ldic.polytope
from ldic import (
    ChannelParams,
    RatePolytope,
    build_bounds,
    capacity_region,
    compute_metrics,
    derive_variant,
    feedback_threshold,
    feedback_useless,
    sweep,
)
from ldic.bounds import BoundSet, link_profile
from ldic.metrics import MetricsResult, ThresholdReport, delta, sigma
from ldic.params import MAX_EXPONENT

from helpers import (
    delta_grid_oracle, linear_threshold, random_params, subset_of, vertex_delta,
)

FIXTURES = {
    "strong_forward": ChannelParams(20, 15, 12, 13, 15, 14),
    "mild_cross": ChannelParams(10, 10, 3, 8, 9, 4),
    "lopsided": ChannelParams(10, 20, 6, 12, 10, 11),
    "cross_dominant": ChannelParams(7, 8, 15, 13, 11, 9),
}


@pytest.mark.parametrize(
    "params,user,expected",
    [
        (FIXTURES["strong_forward"], 1, Fraction(2)),
        (FIXTURES["mild_cross"], 2, Fraction(1)),
        (FIXTURES["cross_dominant"], 2, Fraction(3)),
        (FIXTURES["lopsided"], 1, Fraction(3, 2)),
    ],
)
def test_individual_improvements(params, user, expected):
    assert delta(params, user) == expected


def test_identical_regions_mean_zero_improvement():
    p = ChannelParams(6, 6, 2, 2, 0, 0)
    assert delta(p, 1) == 0 and delta(p, 2) == 0 and sigma(p) == 0


@pytest.mark.parametrize(
    "params,expected",
    [
        (FIXTURES["mild_cross"], Fraction(1)),
        (FIXTURES["strong_forward"], Fraction(0)),
        (FIXTURES["cross_dominant"], Fraction(0)),
    ],
)
def test_sum_improvements(params, expected):
    assert sigma(params) == expected


def test_compute_metrics_bundles_all_three():
    result = compute_metrics(FIXTURES["mild_cross"])
    assert result == MetricsResult(Fraction(1), Fraction(1), Fraction(1))


def test_metrics_result_rejects_negatives():
    with pytest.raises(ValueError):
        MetricsResult(Fraction(-1), Fraction(0), Fraction(0))


def test_delta_rejects_bad_user():
    with pytest.raises(ValueError):
        delta(FIXTURES["mild_cross"], 0)


def test_lopsided_fixture_against_the_grid_oracle():
    # the one individual improvement whose expected value is settled by
    # the brute-force oracle rather than a frozen constant
    params = FIXTURES["lopsided"]
    region = capacity_region(params)
    base = capacity_region(derive_variant(params, "no_feedback"))
    assert delta(params, 2) == delta_grid_oracle(region, base, 2)
    assert delta(params, 2) == 3


@pytest.mark.parametrize(
    "params,link,expected_threshold",
    [
        (ChannelParams(20, 15, 12, 13), 1, 13),
        (ChannelParams(20, 15, 12, 13), 2, 12),
        (ChannelParams(10, 10, 3, 8), 1, 8),
        (ChannelParams(10, 10, 3, 8), 2, 3),
        (ChannelParams(10, 20, 6, 12), 1, None),
        (ChannelParams(10, 20, 6, 12), 2, 8),
        (ChannelParams(7, 8, 15, 13), 1, 8),
        (ChannelParams(7, 8, 15, 13), 2, 7),
    ],
)
def test_threshold_fixtures(params, link, expected_threshold):
    report = feedback_threshold(params, link)
    assert report.link == link
    assert report.threshold == expected_threshold
    assert report.saturation == params.feedback_saturation(link)
    if report.threshold is not None:
        assert report.threshold < report.saturation


def test_threshold_ignores_the_incoming_feedback_values():
    with_fb = feedback_threshold(ChannelParams(10, 10, 3, 8, 9, 4), 2)
    without = feedback_threshold(ChannelParams(10, 10, 3, 8), 2)
    assert with_fb == without


def test_threshold_on_a_degenerate_link():
    report = feedback_threshold(ChannelParams(0, 0, 0, 0), 1)
    assert report.threshold is None and report.saturation == 0


@settings(max_examples=150, deadline=None)
@given(st.tuples(*[st.integers(0, 20)] * 4),
       st.integers(0, MAX_EXPONENT), st.integers(0, MAX_EXPONENT))
def test_threshold_bisection_matches_the_linear_scan(exponents, fb11, fb22):
    params = ChannelParams(*exponents, fb11, fb22)
    for link in (1, 2):
        assert feedback_threshold(params, link).threshold == linear_threshold(params, link)


@settings(max_examples=80, deadline=None)
@given(st.tuples(*[st.integers(0, 20)] * 4),
       st.one_of(st.integers(0, 21), st.integers(0, MAX_EXPONENT)))
def test_regions_are_nested_in_each_feedback_level(exponents, other_level):
    # the premise that makes bisection exact: raising one link never shrinks the region
    base = ChannelParams(*exponents)
    for link, field, other in ((1, "fb11", "fb22"), (2, "fb22", "fb11")):
        regions = [
            capacity_region(dataclasses.replace(base, **{field: level, other: other_level}))
            for level in range(base.feedback_saturation(link) + 2)
        ]
        for lower, upper in zip(regions, regions[1:]):
            assert subset_of(lower, upper)


@pytest.mark.parametrize(
    "params",
    [
        ChannelParams(10_000, 9_000, 10_000, 9_500, 0, 7_000),
        ChannelParams(9_370, 9_324, 1_705, 3_459),
        ChannelParams(MAX_EXPONENT, MAX_EXPONENT, MAX_EXPONENT, MAX_EXPONENT),
    ],
)
def test_threshold_search_is_logarithmic_at_the_exponent_cap(monkeypatch, params):
    builds = []

    def counting_bounds(p):
        builds.append(p)
        return build_bounds(p)

    monkeypatch.setattr(ldic.metrics, "build_bounds", counting_bounds)
    base_params = derive_variant(params, "no_feedback")
    base = capacity_region(base_params)
    for link, field in ((1, "fb11"), (2, "fb22")):
        builds.clear()
        report = feedback_threshold(params, link)
        # bit_length(S) == ceil(log2(S + 1)), exactly; the +1 is the base bound set
        assert len(builds) <= report.saturation.bit_length() + 1

        # nested regions make the first moving level a certificate for the threshold
        def at(level):
            return capacity_region(dataclasses.replace(base_params, **{field: level}))

        if report.threshold is None:
            assert at(report.saturation).equals_region(base)
        else:
            assert at(report.threshold).equals_region(base)
            assert not at(report.threshold + 1).equals_region(base)


def test_threshold_report_validation():
    with pytest.raises(ValueError):
        ThresholdReport(link=3, threshold=None, saturation=1)
    with pytest.raises(ValueError):
        ThresholdReport(link=1, threshold=5, saturation=5)


@pytest.mark.parametrize(
    "params,expected",
    [
        (ChannelParams(10, 9, 2, 15), True),
        (ChannelParams(10, 10, 3, 8), False),
        (ChannelParams(0, 0, 0, 0), True),
    ],
)
def test_feedback_useless(params, expected):
    assert feedback_useless(params) is expected


def test_sweep_grid_shape_and_edges():
    params = ChannelParams(6, 5, 3, 4)
    surface = sweep(params)
    sat1, sat2 = params.feedback_saturation(1), params.feedback_saturation(2)
    assert set(surface.cells) == {
        (i, j) for i in range(sat1 + 1) for j in range(sat2 + 1)
    }
    zero = surface.cells[(0, 0)]
    assert (zero.delta1, zero.delta2, zero.sigma) == (0, 0, 0)


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[st.integers(0, 8)] * 4))
def test_cells_are_a_read_only_view_of_the_dense_grid(exponents):
    surface = sweep(ChannelParams(*exponents))
    dense = {(fb11, fb22): surface.results[i][j]
             for fb11, i in enumerate(surface.index1) for fb22, j in enumerate(surface.index2)}
    cells = surface.cells
    assert list(cells.items()) == list(dense.items())  # fb11-major, fb22-minor
    assert len(cells) == len(dense) and cells == dense
    s1, s2 = len(surface.index1), len(surface.index2)
    for key in [(-1, 0), (0, -1), (s1, 0), (0, s2), (0,), (0, 0, 0), 0, "ab", (0.5, 0)]:
        assert key not in cells
        with pytest.raises(KeyError):
            cells[key]
    with pytest.raises(TypeError):
        cells[(0, 0)] = dense[(0, 0)]


def test_sweep_reproduces_the_pointwise_metrics():
    params = ChannelParams(6, 5, 3, 4)
    surface = sweep(params)
    probe = dataclasses.replace(params, fb11=4, fb22=3)
    assert surface.cells[(4, 3)] == compute_metrics(probe)


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.tuples(*[st.integers(0, 8)] * 4), st.tuples(*[st.integers(0, 30)] * 4)))
def test_every_sweep_cell_matches_compute_metrics(exponents):
    params = ChannelParams(*exponents)
    for (fb11, fb22), cell in sweep(params).cells.items():
        assert cell == compute_metrics(dataclasses.replace(params, fb11=fb11, fb22=fb22))


# The next three compare whole commands with each other and reuse no formula:
# a cell with no gain for either user is a region equal to its base, because
# the regions are nested and down-closed.
def unchanged(cell):
    return cell.delta1 == cell.delta2 == 0


channel_25 = st.tuples(*[st.integers(0, 25)] * 6)


@settings(max_examples=100, deadline=None)
@given(channel_25)
def test_thresholds_are_the_last_unchanged_sweep_cells(fields):
    params = ChannelParams(*fields)
    cells = sweep(params).cells
    for link, cell_at in ((1, lambda level: (level, 0)), (2, lambda level: (0, level))):
        saturation = params.feedback_saturation(link)
        last = max(level for level in range(saturation + 1) if unchanged(cells[cell_at(level)]))
        expected = None if last == saturation else last
        assert feedback_threshold(params, link).threshold == expected


@settings(max_examples=100, deadline=None)
@given(channel_25)
def test_feedback_is_useless_when_the_far_sweep_cell_is_unchanged(fields):
    params = ChannelParams(*fields)
    far = (params.feedback_saturation(1), params.feedback_saturation(2))
    assert feedback_useless(params) == unchanged(sweep(params).cells[far])


@settings(max_examples=100, deadline=None)
@given(channel_25)
def test_swapping_the_pairs_transposes_the_sweep(fields):
    params = ChannelParams(*fields)
    swapped = sweep(params.swapped()).cells
    cells = sweep(params).cells
    assert len(swapped) == len(cells)
    for (fb11, fb22), cell in cells.items():
        assert swapped[(fb22, fb11)] == MetricsResult(cell.delta2, cell.delta1, cell.sigma)


def count_sweep_builds(monkeypatch):
    """Lists that fill with every bound set composed and every region built from now on."""
    composed, regions = [], []
    compose_bounds = ldic.bounds.compose_bounds
    from_bounds = RatePolytope.from_bounds.__func__

    def counting_compose(*args):
        composed.append(args)
        return compose_bounds(*args)

    def counting_from_bounds(cls, bounds):
        regions.append(bounds)
        return from_bounds(cls, bounds)

    # build_bounds reads compose_bounds from ldic.bounds, sweep from ldic.metrics
    monkeypatch.setattr(ldic.bounds, "compose_bounds", counting_compose)
    monkeypatch.setattr(ldic.metrics, "compose_bounds", counting_compose)
    monkeypatch.setattr(RatePolytope, "from_bounds", classmethod(counting_from_bounds))
    return composed, regions


@pytest.mark.parametrize(
    "params",
    [ChannelParams(6, 5, 3, 4), ChannelParams(20, 15, 12, 13), ChannelParams(7, 8, 15, 13)],
)
def test_sweep_builds_one_region_per_distinct_cap_tuple(monkeypatch, params):
    composed, regions = count_sweep_builds(monkeypatch)
    surface = sweep(params)
    builds = len(composed)
    assert regions == []
    distinct = {
        build_bounds(dataclasses.replace(params, fb11=fb11, fb22=fb22)).caps
        for fb11, fb22 in surface.cells
    }
    assert len(distinct) < len(surface.cells)
    # the +1 is the no-feedback base bound set
    assert builds <= len(distinct) + 1


@pytest.mark.parametrize(
    "params",
    [ChannelParams(6, 5, 3, 4), ChannelParams(7, 8, 15, 13), ChannelParams(150, 147, 75, 151)],
)
def test_sweep_builds_one_region_per_pair_of_distinct_link_terms(monkeypatch, params):
    composed, regions = count_sweep_builds(monkeypatch)
    sweep(params)
    assert regions == []
    terms1, _ = link_profile(params, 1)
    terms2, _ = link_profile(params, 2)
    # the +1 is the no-feedback base bound set
    assert len(composed) == len(terms1) * len(terms2) + 1


@pytest.mark.parametrize(
    "params",
    [ChannelParams(6, 5, 3, 4), ChannelParams(20, 15, 12, 13), ChannelParams(60, 58, 30, 61)],
)
def test_sweep_evaluates_each_link_once_per_level(monkeypatch, params):
    counts = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ldic.bounds, "_link_terms", counting("link_terms", ldic.bounds._link_terms))
    monkeypatch.setattr(ldic.bounds, "build_bounds", counting("bound_sets", ldic.bounds.build_bounds))
    monkeypatch.setattr(ChannelParams, "__post_init__", counting("params", ChannelParams.__post_init__))
    monkeypatch.setattr(ldic.polytope, "Fraction", counting("fractions", Fraction))
    surface = sweep(params)

    s1, s2 = params.feedback_saturation(1), params.feedback_saturation(2)
    assert len(surface.cells) == (s1 + 1) * (s2 + 1)
    # per level, not per cell: no cell builds a bound set or a ChannelParams
    # (dataclasses.replace makes one), and no region of the sweep makes a
    # vertex Fraction
    budget = 2 * (s1 + s2 + 2)
    assert counts["link_terms"] <= budget
    assert counts["bound_sets"] + counts["params"] <= budget
    assert counts["fractions"] == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5).flatmap(lambda k: st.tuples(
    st.just(k),
    st.tuples(*[st.one_of(st.integers(0, 12), st.integers(0, MAX_EXPONENT // k))] * 6),
)))
def test_scaling_every_exponent_scales_region_and_metrics(case):
    # every bound is a max, min or clip of linear terms in the exponents, so
    # the region and the metrics are positively homogeneous of degree 1
    k, exponents = case
    params = ChannelParams(*exponents)
    scaled = ChannelParams(*(k * n for n in exponents))
    assert capacity_region(scaled).scaled == tuple(
        (k * x, k * y) for x, y in capacity_region(params).scaled
    )
    result, scaled_result = compute_metrics(params), compute_metrics(scaled)
    assert scaled_result == MetricsResult(k * result.delta1, k * result.delta2, k * result.sigma)


def test_sweep_is_monotone_along_both_axes():
    surface = sweep(ChannelParams(6, 5, 3, 4))
    for (i, j), cell in surface.cells.items():
        for neighbor in ((i + 1, j), (i, j + 1)):
            if neighbor in surface.cells:
                bigger = surface.cells[neighbor]
                assert bigger.delta1 >= cell.delta1
                assert bigger.delta2 >= cell.delta2
                assert bigger.sigma >= cell.sigma


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12),
       st.integers(0, 12), st.integers(0, 12), st.integers(0, 12))
def test_metrics_are_never_negative(f1, f2, i12, i21, b1, b2):
    result = compute_metrics(ChannelParams(f1, f2, i12, i21, b1, b2))
    assert result.delta1 >= 0 and result.delta2 >= 0 and result.sigma >= 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12),
       st.integers(0, 12), st.integers(0, 12), st.integers(0, 12))
def test_perfect_feedback_region_dominates(f1, f2, i12, i21, b1, b2):
    params = ChannelParams(f1, f2, i12, i21, b1, b2)
    noisy = capacity_region(params)
    perfect = capacity_region(derive_variant(params, "perfect_feedback"))
    assert subset_of(noisy, perfect)


def largest_sum(poly):
    return max(v.r1 + v.r2 for v in poly.vertices)


@settings(max_examples=80, deadline=None)
@given(st.tuples(*[st.integers(0, 12)] * 4), st.integers(0, 14), st.integers(0, 14))
def test_metrics_match_the_grid_and_vertex_oracles(exponents, fb11, fb22):
    params = ChannelParams(*exponents, fb11, fb22)
    region = capacity_region(params)
    base = capacity_region(derive_variant(params, "no_feedback"))
    result = compute_metrics(params)
    assert result.delta1 == delta_grid_oracle(region, base, 1)
    assert result.delta2 == delta_grid_oracle(region, base, 2)
    assert result.sigma == largest_sum(region) - largest_sum(base)


# small exponents make caps tie and constraints turn redundant; the others
# reach the exponent cap, with n12 and n21 drawn independently
wide_exponent = st.one_of(st.integers(0, 12), st.integers(0, MAX_EXPONENT))


def channel_caps(exponents):
    params = ChannelParams(*exponents)
    return build_bounds(params).caps, build_bounds(derive_variant(params, "no_feedback")).caps


def raised_caps(pair):
    extra, base = pair
    return tuple(a + b for a, b in zip(extra, base)), base


five_caps = st.tuples(*[st.integers(0, 40)] * 5)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.tuples(*[wide_exponent] * 6).map(channel_caps),
    # a region over any smaller caps: it reaches dual terms and kinks that
    # no channel's caps make binding
    st.tuples(five_caps, five_caps).map(raised_caps),
))
def test_cap_metrics_match_the_vertex_path(pair):
    # the metrics read the five caps alone; the oracle reads the two
    # regions' vertex lists alone
    caps, base_caps = pair
    region = RatePolytope.from_bounds(BoundSet(caps))
    base = RatePolytope.from_bounds(BoundSet(base_caps))
    result = ldic.metrics._cell(caps, base_caps)
    assert result.delta1 == vertex_delta(region, base, 1)
    assert result.delta2 == vertex_delta(region, base, 2)
    assert result.sigma == largest_sum(region) - largest_sum(base)


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[wide_exponent] * 4), st.integers(0, MAX_EXPONENT), st.integers(0, MAX_EXPONENT))
def test_support_tuples_decide_region_equality(exponents, random1, random2):
    n11, n22, n12, n21 = exponents
    params = ChannelParams(*exponents)
    s1, s2 = params.feedback_saturation(1), params.feedback_saturation(2)
    # levels up to (nii - nij)+ and levels from saturation up leave the
    # region as it is, so most draws hold both equal and unequal pairs
    levels1 = {0, max(n11 - n12, 0), random1 % (s1 + 1), s1, min(s1 + 1, MAX_EXPONENT)}
    levels2 = {0, max(n22 - n21, 0), random2 % (s2 + 1), s2, min(s2 + 1, MAX_EXPONENT)}
    bound_sets = [
        build_bounds(dataclasses.replace(params, fb11=a, fb22=b))
        for a in sorted(levels1) for b in sorted(levels2)
    ]
    equal = unequal = 0
    for x, y in itertools.combinations(bound_sets, 2):
        same = RatePolytope.from_bounds(x).equals_region(RatePolytope.from_bounds(y))
        assert (ldic.polytope._support(x.caps) == ldic.polytope._support(y.caps)) == same
        equal += same
        unequal += not same
    assert equal > 0 or min(s1, s2) == MAX_EXPONENT
    assert (unequal > 0) == (not feedback_useless(params))


def test_sum_maximum_is_capped_by_the_sum_bound():
    rng = random.Random(7312)
    for _ in range(80):
        params = random_params(rng, 15)
        region = capacity_region(params)
        base = capacity_region(derive_variant(params, "no_feedback"))
        assert region.max_linear(1, 1) <= region.bounds.caps[2]
        assert base.max_linear(1, 1) <= base.bounds.caps[2]
        assert sigma(params) == region.max_linear(1, 1) - base.max_linear(1, 1)


def test_sum_improvement_can_exceed_the_sum_bound_gap():
    # the sum caps can stay put while feedback relaxes an individual cap:
    # here the partner loop lifts user 1 from 1 to 3 with r2 pinned at 0
    params = ChannelParams(1, 0, 3, 15, 0, 9)
    region = capacity_region(params)
    base = capacity_region(derive_variant(params, "no_feedback"))
    assert region.bounds.caps[2] == base.bounds.caps[2] == 3
    assert sigma(params) == 2
