"""Bit-level simulation of the linear deterministic channel with delayed feedback.

A signal is a q-level binary vector held as a Python ``int`` in
``[0, 2**q)``: level 0, the most significant, is bit q-1. A link with
exponent k delivers the top k levels of its input into the bottom k levels
of the receiver, which is a down-shift by q-k (``>>``); cross signals
superpose over GF(2) (``^``). Each receiver's output travels back to its own
transmitter through a feedback link with its own exponent, arriving a fixed
number of channel uses later.

Encoders and decoders are caller-supplied. Encoders return int vectors and
see int feedback; decoders see the int outputs. A message and an estimate
are each a ``str`` of the digits 0 and 1, first bit first. The session loop
enforces only the causality contract: the encoder for channel use n sees the
message and the feedback vectors delivered at uses 1..n-1, nothing else.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, NamedTuple

from .params import ChannelParams


def _is_bits(v) -> bool:
    """True when v is a str of the digits 0 and 1; any other type is refused."""
    return type(v) is str and not v.strip("01")


def _check_vector(v, q: int, what: str) -> int:
    if not (type(v) is int and 0 <= v < 1 << q):
        raise ValueError(f"{what} is not a {q}-bit vector (an int in [0, 2**{q})): {v!r}")
    return v


def down_shift(v: int, k: int) -> int:
    """Move every bit k levels toward the least significant end, zero-filling the top."""
    if k < 0:
        raise ValueError(f"shift must be non-negative, got {k}")
    return v >> k


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


def _shifts(cfg: SimConfig) -> tuple:
    """Down-shifts of every link: into receiver 1 (direct, cross), into
    receiver 2 (direct, cross), and the feedback links 1 and 2."""
    q, p = cfg.q, cfg.params
    return (q - p.fwd11, q - p.inr12, q - p.fwd22, q - p.inr21,
            max(q - p.fb11, 0), max(q - p.fb22, 0))


def forward_outputs(x1: int, x2: int, cfg: SimConfig):
    """Receiver outputs for one channel use: own signal XOR cross signal, each attenuated."""
    x1 = _check_vector(x1, cfg.q, "x1")
    x2 = _check_vector(x2, cfg.q, "x2")
    s11, s12, s22, s21, _, _ = _shifts(cfg)
    return (x1 >> s11) ^ (x2 >> s12), (x2 >> s22) ^ (x1 >> s21)


def feedback_signal(y_past: int, link: int, cfg: SimConfig) -> int:
    """What a transmitter's feedback link delivers from its receiver's old output."""
    if link not in (1, 2):
        raise ValueError(f"link must be 1 or 2, got {link!r}")
    f1, f2 = _shifts(cfg)[4:]
    return _check_vector(y_past, cfg.q, "y_past") >> (f1 if link == 1 else f2)


class TraceStep(NamedTuple):
    x1: int
    x2: int
    y1: int
    y2: int
    fb1: int
    fb2: int


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


def _bit_error_rate(sent: str, estimated: str) -> Fraction:
    if not sent:
        return Fraction(0)
    return Fraction((int(sent, 2) ^ int(estimated, 2)).bit_count(), len(sent))


def run_session(cfg: SimConfig, encoders, decoders, messages) -> SessionResult:
    """Run one block of channel uses and decode.

    encoders: pair of callables (message_bits, feedback_history) -> input
    vector (an int in [0, 2**q)), called once per channel use with the int
    feedback vectors delivered so far. The history is the simulator's own
    list, which grows after the call: read it during the call, and copy it
    to keep it.
    decoders: pair of callables (output_history) -> estimate, where the
    history is a tuple of int output vectors and the estimate a str of the
    digits 0 and 1 as long as the message.
    messages: pair of str of the digits 0 and 1, first bit first.
    """
    msg1, msg2 = messages
    for m, who in ((msg1, "message 1"), (msg2, "message 2")):
        if not _is_bits(m):
            raise ValueError(f"{who} is not a str of 0/1 digits")
    enc1, enc2 = encoders
    dec1, dec2 = decoders

    q, delay = cfg.q, cfg.delay
    s11, s12, s22, s21, f1, f2 = _shifts(cfg)
    top = 1 << q
    y1_hist, y2_hist = [], []
    fb1_hist, fb2_hist = [], []
    trace = []
    for n in range(1, cfg.block_length + 1):
        x1 = enc1(msg1, fb1_hist)
        if not (type(x1) is int and 0 <= x1 < top):
            _check_vector(x1, q, f"encoder 1 output at use {n}")
        x2 = enc2(msg2, fb2_hist)
        if not (type(x2) is int and 0 <= x2 < top):
            _check_vector(x2, q, f"encoder 2 output at use {n}")
        y1 = (x1 >> s11) ^ (x2 >> s12)
        y2 = (x2 >> s22) ^ (x1 >> s21)
        y1_hist.append(y1)
        y2_hist.append(y2)
        # feedback delivered at use n reflects the output d uses earlier
        if n > delay:
            fb1 = y1_hist[n - delay - 1] >> f1
            fb2 = y2_hist[n - delay - 1] >> f2
        else:
            fb1 = fb2 = 0
        fb1_hist.append(fb1)
        fb2_hist.append(fb2)
        trace.append(TraceStep(x1, x2, y1, y2, fb1, fb2))

    est1 = dec1(tuple(y1_hist))
    est2 = dec2(tuple(y2_hist))
    for est, msg, who in ((est1, msg1, "decoder 1"), (est2, msg2, "decoder 2")):
        if not _is_bits(est):
            raise ValueError(f"{who} did not return a str of 0/1 digits")
        if len(est) != len(msg):
            raise ValueError(f"{who} returned {len(est)} bits for a {len(msg)}-bit message")

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


def _top_level_vector(bits: str, q: int) -> int:
    """The vector carrying `bits` on its top levels, the first bit on level 0."""
    return int("0" + bits, 2) << (q - len(bits))


def _landing_window_decoder(rate: int):
    """Decoder reading the bottom `rate` levels of every output, where a
    top-level burst of `rate` bits lands."""
    mask, spec = (1 << rate) - 1, f"0{rate}b"

    def decode(outputs) -> str:
        if not rate:
            return ""
        return "".join([format(y & mask, spec) for y in outputs])

    return decode


def _fresh_bits_encoder(rate: int, q: int):
    def encode(message, feedback):
        n = len(feedback)  # zero-based use index
        return _top_level_vector(message[n * rate:(n + 1) * rate], q)

    return encode


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
        _landing_window_decoder(cfg.params.fwd11),
        _landing_window_decoder(cfg.params.fwd22),
    ),
)


def _echo_encoder(rate: int, q: int):
    # burst once, then keep replaying whatever the feedback link returns
    def encode(message, feedback):
        if not feedback:
            return _top_level_vector(message[:rate], q)
        return feedback[-1]

    return encode


def _first_use_decoder(rate: int):
    decode = _landing_window_decoder(rate)
    return lambda outputs: decode(outputs[:1])


ECHO = Scheme(
    name="echo",
    message_lengths=lambda cfg: (cfg.params.fwd11, cfg.params.fwd22),
    encoders=lambda cfg: (
        _echo_encoder(cfg.params.fwd11, cfg.q),
        _echo_encoder(cfg.params.fwd22, cfg.q),
    ),
    decoders=lambda cfg: (
        _first_use_decoder(cfg.params.fwd11),
        _first_use_decoder(cfg.params.fwd22),
    ),
)

SCHEMES = {scheme.name: scheme for scheme in (POINT_TO_POINT, ECHO)}

# Mersenne Twister words per draw_messages batch (16 KiB, about 2 048 bits).
_DRAW_WORDS = 4096
# Top byte of an MT word -> bit 30 as the digit 0/1; the bytes with bit 31 set are deleted.
_BIT30 = bytes(b"01"[b >> 6 & 1] for b in range(256))
_BIT31_SET = bytes(range(128, 256))


def draw_messages(lengths, seed) -> tuple:
    """Deterministic random messages, each a str of the digits 0 and 1; the
    seed drives nothing else.

    The bits are those of `rng.randrange(2)` called once per bit, message
    after message, on `random.Random(seed)`, drawn in batches. Each such
    call takes one 32-bit Mersenne Twister word, keeps its top two bits and
    retries on 2 or 3, so each bit is bit 30 of the next word whose bit 31
    is 0. `getrandbits(32 * w)` yields w words, the first one least
    significant, so in its little-endian bytes every fourth byte from byte 3
    is a word's top byte, in draw order; `translate` maps each to the digit
    of bit 30 and deletes those with bit 31 set. Batches run until all the
    bits exist; the generator is local, so the words drawn past the last bit
    are never seen.
    """
    lengths = tuple(lengths)
    rng = random.Random(seed)
    need = sum(lengths)
    batches, have = [], 0
    while have < need:
        words = rng.getrandbits(32 * _DRAW_WORDS).to_bytes(4 * _DRAW_WORDS, "little")
        batch = words[3::4].translate(_BIT30, _BIT31_SET)
        batches.append(batch)
        have += len(batch)
    bits = b"".join(batches).decode("ascii")
    messages, start = [], 0
    for m in lengths:
        messages.append(bits[start:start + m])
        start += m
    return tuple(messages)


def run_scheme(cfg: SimConfig, scheme: Scheme, messages) -> SessionResult:
    return run_session(cfg, scheme.encoders(cfg), scheme.decoders(cfg), messages)
