import random

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from ldic import (
    ChannelParams,
    derive_config,
    draw_messages,
    run_scheme,
    run_session,
)
from ldic.sim import (
    ECHO,
    POINT_TO_POINT,
    SCHEMES,
    SimConfig,
    down_shift,
    feedback_signal,
    forward_outputs,
    xor_vectors,
    zero_vector,
)


def test_derive_config_examples():
    assert derive_config(ChannelParams(20, 15, 12, 13), 1, 8).q == 20
    assert derive_config(ChannelParams(10, 10, 3, 8), 1, 4).q == 10


def test_derive_config_rejects_empty_signal_space():
    with pytest.raises(ValueError):
        derive_config(ChannelParams(0, 0, 0, 0), 1, 4)


def test_config_validation():
    p = ChannelParams(4, 3, 2, 1)
    with pytest.raises(ValueError):
        SimConfig(params=p, delay=0, block_length=1)
    with pytest.raises(ValueError):
        SimConfig(params=p, delay=1, block_length=0)


def test_down_shift_examples():
    assert down_shift((1, 0, 0, 0), 2) == (0, 0, 1, 0)
    assert down_shift((1, 0, 1, 1), 0) == (1, 0, 1, 1)
    assert down_shift((1, 1, 1, 1), 4) == (0, 0, 0, 0)
    assert down_shift((1, 1), 9) == (0, 0)
    with pytest.raises(ValueError):
        down_shift((1, 0), -1)


def test_forward_outputs_unit_vectors():
    cfg = derive_config(ChannelParams(4, 4, 2, 2), block_length=1)
    y1, y2 = forward_outputs((1, 0, 0, 0), (1, 0, 0, 0), cfg)
    assert y1 == (1, 0, 1, 0)
    assert y2 == (1, 0, 1, 0)


def test_forward_outputs_without_interference():
    cfg = derive_config(ChannelParams(4, 4, 0, 0), block_length=1)
    x1 = (1, 0, 1, 1)
    y1, y2 = forward_outputs(x1, (0, 1, 1, 0), cfg)
    assert y1 == x1  # direct link spans the whole vector, cross link is dark
    assert y2 == (0, 1, 1, 0)


def test_forward_outputs_on_zero_inputs():
    cfg = derive_config(ChannelParams(3, 2, 1, 2), block_length=1)
    y1, y2 = forward_outputs(zero_vector(3), zero_vector(3), cfg)
    assert y1 == zero_vector(3) and y2 == zero_vector(3)


def test_forward_outputs_validates_inputs():
    cfg = derive_config(ChannelParams(3, 2, 1, 2), block_length=1)
    with pytest.raises(ValueError):
        forward_outputs((1, 0), (0, 0, 0), cfg)
    with pytest.raises(ValueError):
        forward_outputs((1, 0, 2), (0, 0, 0), cfg)


def test_feedback_signal_shifts_by_the_link_deficit():
    cfg = derive_config(ChannelParams(4, 4, 0, 0, 2, 0), block_length=1)
    assert feedback_signal((1, 1, 0, 0), 1, cfg) == (0, 0, 1, 1)
    assert feedback_signal((1, 1, 0, 0), 2, cfg) == (0, 0, 0, 0)
    with pytest.raises(ValueError):
        feedback_signal((1, 1, 0, 0), 3, cfg)


def test_feedback_signal_passes_through_at_saturation():
    cfg = derive_config(ChannelParams(4, 4, 0, 0, 9, 0), block_length=1)
    assert feedback_signal((0, 1, 1, 0), 1, cfg) == (0, 1, 1, 0)


def test_point_to_point_round_trip():
    cfg = derive_config(ChannelParams(4, 3, 0, 0), delay=1, block_length=3)
    messages = draw_messages(POINT_TO_POINT.message_lengths(cfg), seed=7)
    result = run_scheme(cfg, POINT_TO_POINT, messages)
    assert result.p1 == 0 and result.p2 == 0
    assert result.estimates == result.messages
    assert result.message_lengths == (12, 9)
    assert len(result.trace) == 3


def test_zero_messages_stay_zero_through_the_echo_loop():
    cfg = derive_config(ChannelParams(4, 4, 2, 2, 4, 4), delay=1, block_length=5)
    lengths = ECHO.message_lengths(cfg)
    result = run_scheme(cfg, ECHO, (zero_vector(lengths[0]), zero_vector(lengths[1])))
    assert result.p1 == 0 and result.p2 == 0
    for step in result.trace:
        assert step.y1 == zero_vector(4) and step.fb2 == zero_vector(4)


def test_complement_decoder_scores_total_error():
    cfg = derive_config(ChannelParams(3, 3, 0, 0), delay=1, block_length=1)
    encoders = POINT_TO_POINT.encoders(cfg)
    flip = lambda outputs: tuple(1 - b for y in outputs for b in y[cfg.q - 3:])
    message = (1, 0, 1)
    result = run_session(cfg, encoders, (flip, flip), (message, message))
    assert result.p1 == 1 and result.p2 == 1


def test_error_rate_counts_the_mismatch_fraction():
    cfg = derive_config(ChannelParams(4, 4, 0, 0), delay=1, block_length=1)
    encoders = POINT_TO_POINT.encoders(cfg)

    def stuck_low_bit(outputs):
        y = outputs[0]
        return y[:3] + (1 - y[3],)

    identity = lambda outputs: outputs[0]
    result = run_session(cfg, encoders, (stuck_low_bit, identity), ((1, 1, 0, 0),) * 2)
    assert result.p1 == Fraction(1, 4)
    assert result.p2 == 0


def test_empty_message_has_zero_error_rate():
    cfg = derive_config(ChannelParams(4, 0, 0, 0), delay=1, block_length=2)
    messages = draw_messages(POINT_TO_POINT.message_lengths(cfg), seed=0)
    assert messages[1] == ()
    result = run_scheme(cfg, POINT_TO_POINT, messages)
    assert result.p2 == 0


def test_run_session_rejects_malformed_encoders_and_decoders():
    cfg = derive_config(ChannelParams(2, 2, 0, 0), delay=1, block_length=1)
    good_enc = lambda message, feedback: (message[0], message[1])
    bad_encs = (
        lambda message, feedback: (1,),
        lambda message, feedback: (1.0, 0.0),
        lambda message, feedback: (True, False),
    )
    good_dec = lambda outputs: outputs[0]
    bad_decs = (
        lambda outputs: (0,),
        lambda outputs: (True, False),
        lambda outputs: (2, 0),
        lambda outputs: (1.0, 0.0),
    )
    msg = ((1, 0), (0, 1))
    for bad_enc in bad_encs:
        with pytest.raises(ValueError):
            run_session(cfg, (bad_enc, good_enc), (good_dec, good_dec), msg)
    for bad_dec in bad_decs:
        with pytest.raises(ValueError):
            run_session(cfg, (good_enc, good_enc), (bad_dec, good_dec), msg)
    with pytest.raises(ValueError):
        run_session(cfg, (good_enc, good_enc), (good_dec, good_dec), ((1, 2), (0, 1)))


def test_feedback_arrives_after_the_configured_delay():
    params = ChannelParams(3, 3, 1, 1, 3, 3)
    cfg = derive_config(params, delay=2, block_length=5)
    lengths = POINT_TO_POINT.message_lengths(cfg)
    result = run_scheme(cfg, POINT_TO_POINT, draw_messages(lengths, seed=11))
    for n, step in enumerate(result.trace, start=1):
        if n <= cfg.delay:
            assert step.fb1 == zero_vector(cfg.q)
        else:
            expected = feedback_signal(result.trace[n - cfg.delay - 1].y1, 1, cfg)
            assert step.fb1 == expected


def test_encoder_sees_exactly_the_feedback_delivered_before_each_use():
    cfg = derive_config(ChannelParams(3, 3, 2, 1, 3, 2), delay=2, block_length=6)
    snapshots = []

    def recording_encoder(message, feedback):
        snapshots.append(tuple(feedback))
        return (1, 0, 1) if len(feedback) % 2 else (0, 1, 1)

    partner = lambda message, feedback: (1, 1, 0)
    decoder = lambda outputs: ()
    result = run_session(cfg, (recording_encoder, partner), (decoder, decoder), ((), ()))
    assert any(step.fb1 != zero_vector(cfg.q) for step in result.trace)
    assert len(snapshots) == cfg.block_length
    for n, snapshot in enumerate(snapshots, start=1):
        assert snapshot == tuple(step.fb1 for step in result.trace[: n - 1])


def test_altering_late_inputs_cannot_reach_earlier_feedback():
    params = ChannelParams(3, 3, 2, 1, 3, 2)
    cfg = derive_config(params, delay=2, block_length=6)
    change_at = 3  # 1-based channel use where user 1's input diverges

    def scripted_encoder(script):
        return lambda message, feedback: script[len(feedback)]

    base_script = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1)]
    altered_script = list(base_script)
    altered_script[change_at - 1] = (1, 1, 1)
    partner = lambda message, feedback: (1, 0, 1)
    decoder = lambda outputs: ()

    runs = []
    for script in (base_script, altered_script):
        runs.append(
            run_session(
                cfg,
                (scripted_encoder(script), partner),
                (decoder, decoder),
                ((), ()),
            )
        )
    before, after = runs
    # feedback delivered strictly before use change_at + delay is untouched
    for n in range(1, change_at + cfg.delay):
        assert before.trace[n - 1].fb1 == after.trace[n - 1].fb1
        assert before.trace[n - 1].fb2 == after.trace[n - 1].fb2
    # and the change does surface once the loop comes around
    divergence = change_at + cfg.delay
    assert before.trace[divergence - 1].fb1 != after.trace[divergence - 1].fb1


def test_sessions_are_deterministic():
    cfg = derive_config(ChannelParams(5, 4, 3, 2, 4, 3), delay=1, block_length=6)
    lengths = ECHO.message_lengths(cfg)
    first = run_scheme(cfg, ECHO, draw_messages(lengths, seed=42))
    second = run_scheme(cfg, ECHO, draw_messages(lengths, seed=42))
    assert first == second


def test_draw_messages_is_seed_stable():
    assert draw_messages((5, 3), seed=9) == draw_messages((5, 3), seed=9)
    assert draw_messages((5, 3), seed=9) != draw_messages((5, 3), seed=10)


def test_scheme_registry():
    assert set(SCHEMES) == {"point-to-point", "echo"}
    assert SCHEMES["point-to-point"] is POINT_TO_POINT


bit_vectors = st.integers(1, 24).flatmap(
    lambda q: st.tuples(
        st.lists(st.integers(0, 1), min_size=q, max_size=q),
        st.lists(st.integers(0, 1), min_size=q, max_size=q),
        st.integers(0, 30),
        st.integers(0, 30),
    )
)


@settings(max_examples=200, deadline=None)
@given(bit_vectors)
def test_shift_composition(data):
    v, _, a, b = data
    v = tuple(v)
    assert down_shift(down_shift(v, a), b) == down_shift(v, a + b)


@settings(max_examples=200, deadline=None)
@given(bit_vectors)
def test_channel_is_linear_over_gf2(data):
    v, w, a, b = data
    q = len(v)
    rng = random.Random(a * 31 + b)
    params = ChannelParams(
        fwd11=q,
        fwd22=rng.randint(0, q),
        inr12=rng.randint(0, q),
        inr21=rng.randint(0, q),
    )
    cfg = derive_config(params, block_length=1)
    v, w = tuple(v), tuple(w)
    mixed = forward_outputs(xor_vectors(v, w), v, cfg)
    left = forward_outputs(v, v, cfg)
    right = forward_outputs(w, zero_vector(q), cfg)
    assert mixed[0] == xor_vectors(left[0], right[0])
    assert mixed[1] == xor_vectors(left[1], right[1])