"""Bit-level simulation of the linear deterministic channel with delayed feedback.

Signals are q-dimensional binary vectors, index 0 being the most significant
level. A link with exponent k delivers the top k levels of its input into
the bottom k levels of the receiver, which is a down-shift by q-k; cross
signals superpose over GF(2). Each receiver's output travels back to its own
transmitter through a feedback link with its own exponent, arriving a fixed
number of channel uses later.

Encoders and decoders are caller-supplied. The session loop enforces only
the causality contract: the encoder for channel use n sees the message and
the feedback vectors delivered at uses 1..n-1, nothing else.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, NamedTuple

from .params import ChannelParams

Bits = tuple


def zero_vector(q: int) -> Bits:
    return (0,) * q


def _is_bits(v) -> bool:
    """True when every entry is the int 0 or 1; bools and floats are refused."""
    for bit in v:
        if type(bit) is not int or bit not in (0, 1):
            return False
    return True


def _check_vector(v, q: int, what: str) -> Bits:
    v = tuple(v)
    if len(v) != q:
        raise ValueError(f"{what} has dimension {len(v)}, expected {q}")
    if not _is_bits(v):
        raise ValueError(f"{what} contains non-binary entries")
    return v


def down_shift(v: Bits, k: int) -> Bits:
    """Move every bit k levels toward the least significant end, zero-filling the top."""
    if k < 0:
        raise ValueError(f"shift must be non-negative, got {k}")
    if k == 0:
        return tuple(v)
    if k >= len(v):
        return zero_vector(len(v))
    return (0,) * k + tuple(v[: len(v) - k])


def xor_vectors(a: Bits, b: Bits) -> Bits:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return tuple(x ^ y for x, y in zip(a, b))


@dataclass(frozen=True)
class SimConfig:
    params: ChannelParams
    delay: int
    block_length: int

    @cached_property
    def q(self) -> int:
        """Signal dimension: the largest forward exponent."""
        p = self.params
        return max(p.fwd11, p.fwd22, p.inr12, p.inr21)

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("all-zero forward exponents leave no signal space")
        if self.delay < 1:
            raise ValueError(f"feedback delay must be at least 1, got {self.delay}")
        if self.block_length < 1:
            raise ValueError(f"block length must be at least 1, got {self.block_length}")


def derive_config(params: ChannelParams, delay: int = 1, block_length: int = 1) -> SimConfig:
    return SimConfig(params=params, delay=delay, block_length=block_length)


def forward_outputs(x1: Bits, x2: Bits, cfg: SimConfig):
    """Receiver outputs for one channel use: own signal XOR cross signal, each attenuated."""
    q, p = cfg.q, cfg.params
    x1 = _check_vector(x1, q, "x1")
    x2 = _check_vector(x2, q, "x2")
    y1 = xor_vectors(down_shift(x1, q - p.fwd11), down_shift(x2, q - p.inr12))
    y2 = xor_vectors(down_shift(x2, q - p.fwd22), down_shift(x1, q - p.inr21))
    return y1, y2


def feedback_signal(y_past: Bits, link: int, cfg: SimConfig) -> Bits:
    """What a transmitter's feedback link delivers from its receiver's old output."""
    if link == 1:
        fb = cfg.params.fb11
    elif link == 2:
        fb = cfg.params.fb22
    else:
        raise ValueError(f"link must be 1 or 2, got {link!r}")
    y_past = _check_vector(y_past, cfg.q, "y_past")
    return down_shift(y_past, max(cfg.q - fb, 0))


class TraceStep(NamedTuple):
    x1: Bits
    x2: Bits
    y1: Bits
    y2: Bits
    fb1: Bits
    fb2: Bits


@dataclass(frozen=True)
class SessionResult:
    messages: tuple
    estimates: tuple
    p1: Fraction
    p2: Fraction
    trace: tuple

    @property
    def message_lengths(self):
        return (len(self.messages[0]), len(self.messages[1]))


def _bit_error_rate(sent: Bits, estimated: Bits) -> Fraction:
    if not sent:
        return Fraction(0)
    return Fraction(sum(1 for a, b in zip(sent, estimated) if a != b), len(sent))


def run_session(cfg: SimConfig, encoders, decoders, messages) -> SessionResult:
    """Run one block of channel uses and decode.

    encoders: pair of callables (message_bits, feedback_history) -> input vector,
    called once per channel use with the feedback vectors delivered so far.
    The history is the simulator's own list, which grows after the call:
    read it during the call, and copy it to keep it.
    decoders: pair of callables (output_history) -> estimate bits.
    messages: pair of bit tuples.
    """
    msg1 = tuple(messages[0])
    msg2 = tuple(messages[1])
    for m, who in ((msg1, "message 1"), (msg2, "message 2")):
        if not _is_bits(m):
            raise ValueError(f"{who} contains non-binary entries")
    enc1, enc2 = encoders
    dec1, dec2 = decoders

    y1_hist, y2_hist = [], []
    fb1_hist, fb2_hist = [], []
    trace = []
    for n in range(1, cfg.block_length + 1):
        x1 = _check_vector(enc1(msg1, fb1_hist), cfg.q, f"encoder 1 output at use {n}")
        x2 = _check_vector(enc2(msg2, fb2_hist), cfg.q, f"encoder 2 output at use {n}")
        y1, y2 = forward_outputs(x1, x2, cfg)
        y1_hist.append(y1)
        y2_hist.append(y2)
        # feedback delivered at use n reflects the output d uses earlier
        if n > cfg.delay:
            fb1 = feedback_signal(y1_hist[n - cfg.delay - 1], 1, cfg)
            fb2 = feedback_signal(y2_hist[n - cfg.delay - 1], 2, cfg)
        else:
            fb1 = fb2 = zero_vector(cfg.q)
        fb1_hist.append(fb1)
        fb2_hist.append(fb2)
        trace.append(TraceStep(x1, x2, y1, y2, fb1, fb2))

    est1 = tuple(dec1(tuple(y1_hist)))
    est2 = tuple(dec2(tuple(y2_hist)))
    for est, msg, who in ((est1, msg1, "decoder 1"), (est2, msg2, "decoder 2")):
        if len(est) != len(msg):
            raise ValueError(f"{who} returned {len(est)} bits for a {len(msg)}-bit message")
        if not _is_bits(est):
            raise ValueError(f"{who} returned non-binary entries")

    return SessionResult(
        messages=(msg1, msg2),
        estimates=(est1, est2),
        p1=_bit_error_rate(msg1, est1),
        p2=_bit_error_rate(msg2, est2),
        trace=tuple(trace),
    )


@dataclass(frozen=True)
class Scheme:
    """A named encoder/decoder strategy parameterized by the session config."""

    name: str
    message_lengths: Callable
    encoders: Callable
    decoders: Callable


def _top_level_vector(bits: Bits, q: int) -> Bits:
    return tuple(bits) + zero_vector(q - len(bits))


def _fresh_bits_encoder(rate: int, q: int):
    def encode(message, feedback):
        n = len(feedback)  # zero-based use index
        return _top_level_vector(message[n * rate:(n + 1) * rate], q)

    return encode


def _landing_window_decoder(rate: int, q: int):
    # a top-level burst of `rate` bits arrives in the bottom `rate` positions
    def decode(outputs):
        estimate = []
        for y in outputs:
            if rate:
                estimate.extend(y[q - rate:])
        return tuple(estimate)

    return decode


def _point_to_point(cfg: SimConfig) -> tuple:
    return (
        cfg.params.fwd11 * cfg.block_length,
        cfg.params.fwd22 * cfg.block_length,
    )


POINT_TO_POINT = Scheme(
    name="point-to-point",
    message_lengths=_point_to_point,
    encoders=lambda cfg: (
        _fresh_bits_encoder(cfg.params.fwd11, cfg.q),
        _fresh_bits_encoder(cfg.params.fwd22, cfg.q),
    ),
    decoders=lambda cfg: (
        _landing_window_decoder(cfg.params.fwd11, cfg.q),
        _landing_window_decoder(cfg.params.fwd22, cfg.q),
    ),
)


def _echo_encoder(rate: int, q: int):
    # burst once, then keep replaying whatever the feedback link returns
    def encode(message, feedback):
        if not feedback:
            return _top_level_vector(message[:rate], q)
        return feedback[-1]

    return encode


def _first_use_decoder(rate: int, q: int):
    def decode(outputs):
        return tuple(outputs[0][q - rate:]) if rate else ()

    return decode


ECHO = Scheme(
    name="echo",
    message_lengths=lambda cfg: (cfg.params.fwd11, cfg.params.fwd22),
    encoders=lambda cfg: (
        _echo_encoder(cfg.params.fwd11, cfg.q),
        _echo_encoder(cfg.params.fwd22, cfg.q),
    ),
    decoders=lambda cfg: (
        _first_use_decoder(cfg.params.fwd11, cfg.q),
        _first_use_decoder(cfg.params.fwd22, cfg.q),
    ),
)

SCHEMES = {scheme.name: scheme for scheme in (POINT_TO_POINT, ECHO)}


def draw_messages(lengths, seed) -> tuple:
    """Deterministic random message bits; the seed drives nothing else."""
    rng = random.Random(seed)
    return tuple(tuple(rng.randrange(2) for _ in range(m)) for m in lengths)


def run_scheme(cfg: SimConfig, scheme: Scheme, messages) -> SessionResult:
    return run_session(cfg, scheme.encoders(cfg), scheme.decoders(cfg), messages)
