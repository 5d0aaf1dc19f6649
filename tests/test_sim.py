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
    _DRAW_WORDS,
    ECHO,
    POINT_TO_POINT,
    SCHEMES,
    SimConfig,
)

from helpers import reference_draw, reference_scheme, reference_session


def bits_of(v, q):
    """An int vector as its q-bit tuple, level 0 (the most significant bit) first."""
    return tuple(int(ch) for ch in format(v, f"0{q}b"))


def as_text(messages):
    """Bit tuples as the simulator's 0/1 text, first bit first."""
    return tuple("".join(map(str, bits)) for bits in messages)


def constant_session(params, x1, x2, block_length=1):
    """The trace of a delay-1 session whose encoders send x1 and x2 at every use."""
    cfg = derive_config(params, delay=1, block_length=block_length)
    silent = lambda outputs: ""
    encoders = (lambda message, feedback: x1, lambda message, feedback: x2)
    return run_session(cfg, encoders, (silent, silent), ("", "")).trace


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


def test_forward_outputs_unit_vectors():
    step, = constant_session(ChannelParams(4, 4, 2, 2), 0b1000, 0b1000)
    assert step.y1 == 0b1010
    assert step.y2 == 0b1010


def test_forward_outputs_without_interference():
    x1 = 0b1011
    step, = constant_session(ChannelParams(4, 4, 0, 0), x1, 0b0110)
    assert step.y1 == x1  # direct link spans the whole vector, cross link is dark
    assert step.y2 == 0b0110


def test_forward_outputs_on_zero_inputs():
    step, = constant_session(ChannelParams(3, 2, 1, 2), 0, 0)
    assert step.y1 == 0 and step.y2 == 0


def test_forward_outputs_validates_inputs():
    params = ChannelParams(3, 2, 1, 2)
    for bad in (1 << 3, -1, (1, 0, 1), True, 1.0):
        with pytest.raises(ValueError):
            constant_session(params, bad, 0)
        with pytest.raises(ValueError):
            constant_session(params, 0, bad)


def test_feedback_signal_shifts_by_the_link_deficit():
    # y1 = y2 = 0b1100; feedback link 1 keeps its top 2 levels, link 2 none
    _, step = constant_session(ChannelParams(4, 4, 0, 0, 2, 0), 0b1100, 0b1100, block_length=2)
    assert step.fb1 == 0b0011
    assert step.fb2 == 0


def test_feedback_signal_passes_through_at_saturation():
    _, step = constant_session(ChannelParams(4, 4, 0, 0, 9, 0), 0b0110, 0, block_length=2)
    assert step.fb1 == 0b0110


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
    result = run_scheme(cfg, ECHO, ("0" * lengths[0], "0" * lengths[1]))
    assert result.p1 == 0 and result.p2 == 0
    for step in result.trace:
        assert step.y1 == 0 and step.fb2 == 0


def test_complement_decoder_scores_total_error():
    cfg = derive_config(ChannelParams(3, 3, 0, 0), delay=1, block_length=1)
    encoders = POINT_TO_POINT.encoders(cfg)
    flip = lambda outputs: "".join(format(y ^ 0b111, "03b") for y in outputs)
    message = "101"
    result = run_session(cfg, encoders, (flip, flip), (message, message))
    assert result.p1 == 1 and result.p2 == 1


def test_error_rate_counts_the_mismatch_fraction():
    cfg = derive_config(ChannelParams(4, 4, 0, 0), delay=1, block_length=1)
    encoders = POINT_TO_POINT.encoders(cfg)

    def stuck_low_bit(outputs):
        y = format(outputs[0], "04b")
        return y[:3] + "10"[int(y[3])]

    identity = lambda outputs: format(outputs[0], "04b")
    result = run_session(cfg, encoders, (stuck_low_bit, identity), ("1100",) * 2)
    assert result.p1 == Fraction(1, 4)
    assert result.p2 == 0


def test_empty_message_has_zero_error_rate():
    cfg = derive_config(ChannelParams(4, 0, 0, 0), delay=1, block_length=2)
    messages = draw_messages(POINT_TO_POINT.message_lengths(cfg), seed=0)
    assert messages[1] == ""
    result = run_scheme(cfg, POINT_TO_POINT, messages)
    assert result.p2 == 0


def test_run_session_rejects_malformed_encoders_and_decoders():
    cfg = derive_config(ChannelParams(2, 2, 0, 0), delay=1, block_length=1)
    good_enc = lambda message, feedback: int(message, 2)
    bad_encs = tuple(
        lambda message, feedback, bad=bad: bad
        for bad in ((1,), (1.0, 0.0), (True, False), (1, 0), True, 1.0, -1, 1 << cfg.q)
    )
    good_dec = lambda outputs: format(outputs[0], "02b")
    # int(text, 2) takes spaces and underscores, so "1 ", "1_01" and " 101"
    # below are refused by the digit check alone
    bad_decs = tuple(
        lambda outputs, bad=bad: bad
        for bad in (
            (0,), (True, False), (2, 0), (1.0, 0.0), (1, 0), b"10", "2", "21", "1 ", "1", "100",
        )
    )
    msg = ("10", "01")
    for bad_enc in bad_encs:
        with pytest.raises(ValueError):
            run_session(cfg, (bad_enc, good_enc), (good_dec, good_dec), msg)
    for bad_dec in bad_decs:
        with pytest.raises(ValueError):
            run_session(cfg, (good_enc, good_enc), (bad_dec, good_dec), msg)
    # an encoder and a decoder that accept anything, so only the message check can refuse
    quiet_enc = lambda message, feedback: 0
    for bad_msg in ((1, 2), (1, 0), [1, 0], b"10", "0120", "1_01", " 101"):
        zeros = lambda outputs, n=len(bad_msg): "0" * n
        with pytest.raises(ValueError):
            run_session(cfg, (quiet_enc, good_enc), (zeros, good_dec), (bad_msg, "01"))


def test_feedback_arrives_after_the_configured_delay():
    params = ChannelParams(3, 3, 1, 1, 2, 1)  # unequal feedback links, both below q
    cfg = derive_config(params, delay=2, block_length=8)
    lengths, encoders, decoders = reference_scheme("point-to-point", params, cfg.block_length)
    messages = reference_draw(lengths, seed=11)
    result = run_scheme(cfg, POINT_TO_POINT, as_text(messages))
    trace = reference_session(params, cfg.delay, cfg.block_length, encoders, decoders, messages)[0]
    for n, (step, expected) in enumerate(zip(result.trace, trace), start=1):
        assert (bits_of(step.fb1, cfg.q), bits_of(step.fb2, cfg.q)) == expected[4:]
        if n <= cfg.delay:
            assert step.fb1 == step.fb2 == 0
    assert any(step.fb1 for step in result.trace) and any(step.fb2 for step in result.trace)


def test_encoder_sees_exactly_the_feedback_delivered_before_each_use():
    cfg = derive_config(ChannelParams(3, 3, 2, 1, 3, 2), delay=2, block_length=6)
    snapshots = []

    def recording_encoder(message, feedback):
        snapshots.append(tuple(feedback))
        return 0b101 if len(feedback) % 2 else 0b011

    partner = lambda message, feedback: 0b110
    decoder = lambda outputs: ""
    result = run_session(cfg, (recording_encoder, partner), (decoder, decoder), ("", ""))
    assert any(step.fb1 != 0 for step in result.trace)
    assert len(snapshots) == cfg.block_length
    for n, snapshot in enumerate(snapshots, start=1):
        assert snapshot == tuple(step.fb1 for step in result.trace[: n - 1])


def test_altering_late_inputs_cannot_reach_earlier_feedback():
    params = ChannelParams(3, 3, 2, 1, 3, 2)
    cfg = derive_config(params, delay=2, block_length=6)
    change_at = 3  # 1-based channel use where user 1's input diverges

    def scripted_encoder(script):
        return lambda message, feedback: script[len(feedback)]

    base_script = [0b100, 0b010, 0b001, 0b110, 0b011, 0b101]
    altered_script = list(base_script)
    altered_script[change_at - 1] = 0b111
    partner = lambda message, feedback: 0b101
    decoder = lambda outputs: ""

    runs = []
    for script in (base_script, altered_script):
        runs.append(
            run_session(
                cfg,
                (scripted_encoder(script), partner),
                (decoder, decoder),
                ("", ""),
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


def test_draw_messages_matches_one_randrange_per_bit():
    for lengths in ((), (0,), (0, 0), (1,), (0, 1), (1, 0), (1, 1)):
        for seed in (0, 1, -3, 2**40, "seed"):
            assert draw_messages(lengths, seed) == as_text(reference_draw(lengths, seed))
    # a batch of _DRAW_WORDS words yields about half as many bits
    for lengths in ((3 * _DRAW_WORDS, 0), (0, 3 * _DRAW_WORDS), (2 * _DRAW_WORDS, _DRAW_WORDS + 7)):
        for seed in (5, 6, 7):
            assert draw_messages(lengths, seed) == as_text(reference_draw(lengths, seed))
    rng = random.Random(20261018)
    for seed in range(250):
        lengths = (rng.randint(0, 40), rng.randint(0, 40))
        if seed % 10 == 0:
            lengths = (rng.randint(0, 2 * _DRAW_WORDS), rng.randint(0, 2 * _DRAW_WORDS))
        expected = as_text(reference_draw(lengths, seed))
        assert draw_messages(lengths, seed) == expected, (lengths, seed)


def test_scheme_registry():
    assert set(SCHEMES) == {"point-to-point", "echo"}
    assert SCHEMES["point-to-point"] is POINT_TO_POINT


bit_vectors = st.integers(1, 24).flatmap(
    lambda q: st.tuples(
        st.just(q),
        st.integers(0, (1 << q) - 1),
        st.integers(0, (1 << q) - 1),
        st.integers(0, 30),
        st.integers(0, 30),
    )
)


@settings(max_examples=200, deadline=None)
@given(bit_vectors)
def test_channel_is_linear_over_gf2(data):
    q, v, w, a, b = data
    rng = random.Random(a * 31 + b)
    params = ChannelParams(
        fwd11=q,
        fwd22=rng.randint(0, q),
        inr12=rng.randint(0, q),
        inr21=rng.randint(0, q),
    )
    mixed, = constant_session(params, v ^ w, v)
    left, = constant_session(params, v, v)
    right, = constant_session(params, w, 0)
    assert mixed.y1 == left.y1 ^ right.y1
    assert mixed.y2 == left.y2 ^ right.y2

@st.composite
def oracle_sessions(draw):
    q = draw(st.integers(1, 12))
    exponents = draw(st.lists(st.integers(0, q), min_size=4, max_size=4))
    exponents[draw(st.integers(0, 3))] = q
    feedback = draw(st.lists(st.integers(0, q + 2), min_size=2, max_size=2))
    params = ChannelParams(*exponents, *feedback)
    delay = draw(st.integers(1, 3))
    block_length = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(sorted(SCHEMES) + ["scripted"]))
    vectors = st.lists(st.integers(0, (1 << q) - 1), min_size=block_length, max_size=block_length)
    scripts = (draw(vectors), draw(vectors))
    widths = (draw(st.integers(0, q)), draw(st.integers(0, q)))
    seed = draw(st.integers(0, 2**32))
    return params, delay, block_length, kind, scripts, widths, seed


@settings(max_examples=300, deadline=None)
@given(oracle_sessions())
def test_sessions_match_the_tuple_oracle(case):
    params, delay, block_length, kind, scripts, widths, seed = case
    cfg = derive_config(params, delay=delay, block_length=block_length)
    q = cfg.q
    if kind == "scripted":
        # each input is a scripted vector XOR the latest feedback, so the
        # feedback path reaches the outputs; each decoder reads the top
        # `width` levels of its last output
        def encoder(script):
            return lambda message, feedback: script[len(feedback)] ^ (feedback[-1] if feedback else 0)

        def reference_encoder(script):
            def encode(message, feedback):
                x = bits_of(script[len(feedback)], q)
                return tuple(a ^ b for a, b in zip(x, feedback[-1])) if feedback else x
            return encode

        encoders = tuple(map(encoder, scripts))
        decoders = tuple(lambda outputs, w=w: format(outputs[-1], f"0{q}b")[:w] for w in widths)
        reference_encoders = tuple(map(reference_encoder, scripts))
        reference_decoders = tuple(lambda outputs, w=w: outputs[-1][:w] for w in widths)
        messages = reference_draw(widths, seed)
        result = run_session(cfg, encoders, decoders, as_text(messages))
    else:
        lengths, reference_encoders, reference_decoders = reference_scheme(kind, params, block_length)
        assert SCHEMES[kind].message_lengths(cfg) == lengths
        messages = reference_draw(lengths, seed)
        result = run_scheme(cfg, SCHEMES[kind], as_text(messages))
    trace, estimates, p1, p2 = reference_session(
        params, delay, block_length, reference_encoders, reference_decoders, messages
    )
    assert [tuple(bits_of(v, q) for v in step) for step in result.trace] == trace
    assert result.messages == as_text(messages)
    assert result.estimates == as_text(estimates)
    assert (result.p1, result.p2) == (p1, p2)
