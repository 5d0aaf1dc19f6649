"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Criteria 1-6 freeze published operating points of four fixture channels
plus a channel where feedback buys nothing. Criteria 7-10 are randomized
property checks at the stated sample counts, driven by fixed seeds so every
run sees the same draws. The conftest hook prints a PASS/FAIL line per
criterion after the run.
"""

import dataclasses
import random
from fractions import Fraction

from ldic import (
    ChannelParams,
    build_bounds,
    capacity_region,
    compute_metrics,
    derive_config,
    derive_variant,
    draw_messages,
    feedback_threshold,
    feedback_useless,
    run_scheme,
    run_session,
    sweep,
)
from ldic.metrics import delta
from ldic.sim import POINT_TO_POINT

from helpers import (
    constraint_mask,
    delta_grid_oracle,
    polygon_mask,
    raw_constraints,
    scaled_grid,
    subset_of,
)


def test_criterion_01_metrics_of_the_20_15_12_13_channel():
    result = compute_metrics(ChannelParams(20, 15, 12, 13, 15, 14))
    assert result.delta1 == 2
    assert result.delta2 == 2
    assert result.sigma == 0


def test_criterion_02_metrics_of_the_10_10_3_8_channel():
    result = compute_metrics(ChannelParams(10, 10, 3, 8, 9, 4))
    assert result.delta1 == 1
    assert result.delta2 == 1
    assert result.sigma == 1


def test_criterion_03_metrics_of_the_7_8_15_13_channel():
    result = compute_metrics(ChannelParams(7, 8, 15, 13, 11, 9))
    assert result.delta1 == 2
    assert result.delta2 == 3
    assert result.sigma == 0


def test_criterion_04_metrics_of_the_10_20_6_12_channel_with_oracle_adjudication():
    params = ChannelParams(10, 20, 6, 12, 10, 11)
    result = compute_metrics(params)
    assert result.delta1 == Fraction(3, 2)
    assert result.sigma == 0
    # the user-2 value is settled by the brute-force slice oracle
    region = capacity_region(params)
    base = capacity_region(derive_variant(params, "no_feedback"))
    assert result.delta2 == delta_grid_oracle(region, base, 2)


def test_criterion_05_per_link_feedback_thresholds():
    expected = {
        (20, 15, 12, 13): (13, 12),
        (10, 10, 3, 8): (8, 3),
        (10, 20, 6, 12): (None, 8),
        (7, 8, 15, 13): (8, 7),
    }
    for forward, thresholds in expected.items():
        params = ChannelParams(*forward)
        assert (
            feedback_threshold(params, 1).threshold,
            feedback_threshold(params, 2).threshold,
        ) == thresholds, forward


def test_criterion_06_feedback_useless_channel():
    params = ChannelParams(10, 9, 2, 15)
    assert feedback_useless(params) is True
    surface = sweep(params)
    assert len(surface.cells) == (10 + 1) * (15 + 1)
    for cell in surface.cells.values():
        assert (cell.delta1, cell.delta2, cell.sigma) == (0, 0, 0)


def test_criterion_07_reduction_properties_on_random_channels():
    rng = random.Random(40901)
    for _ in range(200):
        params = ChannelParams(*(rng.randint(0, 25) for _ in range(6)))

        # (a) without feedback, each individual cap collapses to the direct link
        bare = derive_variant(params, "no_feedback")
        bare_bounds = build_bounds(bare)
        assert bare_bounds.caps[0] == params.fwd11
        assert bare_bounds.caps[1] == params.fwd22

        # (b) perfect feedback contains every noisy-feedback region
        noisy = capacity_region(params)
        perfect = capacity_region(derive_variant(params, "perfect_feedback"))
        assert subset_of(noisy, perfect)

        # (c) feedback above saturation changes nothing
        saturated = derive_variant(params, "perfect_feedback")
        beyond = dataclasses.replace(
            saturated,
            fb11=saturated.fb11 + rng.randint(1, 5),
            fb22=saturated.fb22 + rng.randint(1, 5),
        )
        assert capacity_region(beyond).equals_region(capacity_region(saturated))
        assert build_bounds(beyond).caps == build_bounds(saturated).caps

        # (d) relabeling the users mirrors the region across r1 = r2
        mirrored = capacity_region(params.swapped())
        assert {(v.r1, v.r2) for v in mirrored.vertices} == {
            (v.r2, v.r1) for v in noisy.vertices
        }


def test_criterion_08_polytope_engine_against_the_dense_grid():
    rng = random.Random(52801)
    for _ in range(500):
        params = ChannelParams(*(rng.randint(0, 20) for _ in range(6)))
        poly = capacity_region(params)
        for v in poly.vertices:
            assert v.r1.denominator in (1, 2, 3)
            assert v.r2.denominator in (1, 2, 3)
        caps = poly.bounds.caps
        s1, s2 = scaled_grid(caps[0], caps[1])
        by_constraints = constraint_mask(raw_constraints(poly.bounds), s1, s2)
        by_vertices = polygon_mask(poly.vertices, s1, s2)
        assert (by_constraints == by_vertices).all(), params


def test_criterion_09_breakpoint_deltas_match_the_grid_oracle():
    fixtures = (
        ChannelParams(20, 15, 12, 13, 15, 14),
        ChannelParams(10, 10, 3, 8, 9, 4),
        ChannelParams(7, 8, 15, 13, 11, 9),
        ChannelParams(10, 20, 6, 12, 10, 11),
    )
    for params in fixtures:
        region = capacity_region(params)
        base = capacity_region(derive_variant(params, "no_feedback"))
        for user in (1, 2):
            assert delta(params, user) == delta_grid_oracle(region, base, user), (
                params, user,
            )


def test_criterion_10_simulator_properties():
    rng = random.Random(61501)

    def one_use(cfg, x1, x2):
        """(y1, y2) of one channel use, from a one-use session with constant encoders."""
        silent = lambda outputs: ""
        encoders = (lambda message, feedback: x1, lambda message, feedback: x2)
        step = run_session(cfg, encoders, (silent, silent), ("", "")).trace[0]
        return step.y1, step.y2

    # GF(2) linearity on 1000 random vectors
    for _ in range(1000):
        q = rng.randint(1, 24)
        # one randrange(2) per level, level 0 first
        v = int("".join(str(rng.randrange(2)) for _ in range(q)), 2)
        w = int("".join(str(rng.randrange(2)) for _ in range(q)), 2)

        params = ChannelParams(
            fwd11=q,
            fwd22=rng.randint(0, q),
            inr12=rng.randint(0, q),
            inr21=rng.randint(0, q),
        )
        cfg = derive_config(params, block_length=1)
        mixed = one_use(cfg, v ^ w, v)
        split1 = one_use(cfg, v, v)
        split2 = one_use(cfg, w, 0)
        assert mixed[0] == split1[0] ^ split2[0]
        assert mixed[1] == split1[1] ^ split2[1]

    # clean point-to-point pipes hit zero error at the direct-link rate
    for fwd11 in range(1, 17):
        fwd22 = rng.randint(0, 16)
        params = ChannelParams(fwd11, fwd22, 0, 0)
        cfg = derive_config(params, delay=1, block_length=4)
        lengths = POINT_TO_POINT.message_lengths(cfg)
        assert lengths == (4 * fwd11, 4 * fwd22)
        result = run_scheme(cfg, POINT_TO_POINT, draw_messages(lengths, seed=fwd11))
        assert result.p1 == 0 and result.p2 == 0
        assert result.estimates == result.messages

    # identical seeds give bit-identical sessions
    params = ChannelParams(6, 5, 4, 3, 5, 4)
    cfg = derive_config(params, delay=1, block_length=5)
    lengths = POINT_TO_POINT.message_lengths(cfg)
    one = run_scheme(cfg, POINT_TO_POINT, draw_messages(lengths, seed=99))
    two = run_scheme(cfg, POINT_TO_POINT, draw_messages(lengths, seed=99))
    assert one == two
