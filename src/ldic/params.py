"""Channel parameters for the two-user linear deterministic interference channel.

Every link is described by a non-negative integer: the number of bit levels
that survive it. ``fwd11``/``fwd22`` count the levels of each direct link,
``inr12``/``inr21`` the levels of the cross links (first index = receiver,
second = transmitter), and ``fb11``/``fb22`` the levels of each receiver's
feedback link back to its own transmitter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

# Cap on every level count. Keeps all derived bound arithmetic far inside
# native integer ranges for any downstream consumer or file format.
MAX_EXPONENT = 10_000

_FIELDS = ("fwd11", "fwd22", "inr12", "inr21", "fb11", "fb22")

VARIANT_KINDS = ("no_feedback", "perfect_feedback")


@dataclass(frozen=True)
class ChannelParams:
    """The six integer level counts defining one channel instance."""

    fwd11: int
    fwd22: int
    inr12: int
    inr21: int
    fb11: int = 0
    fb22: int = 0

    def __post_init__(self):
        for name in _FIELDS:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
            if value > MAX_EXPONENT:
                raise ValueError(f"{name}={value} exceeds the supported cap {MAX_EXPONENT}")

    def swapped(self) -> "ChannelParams":
        """Relabel the two transmitter-receiver pairs."""
        return ChannelParams(
            fwd11=self.fwd22,
            fwd22=self.fwd11,
            inr12=self.inr21,
            inr21=self.inr12,
            fb11=self.fb22,
            fb22=self.fb11,
        )

    def feedback_saturation(self, link: int) -> int:
        """Largest useful feedback level for one link.

        A receiver's output never occupies more than max(direct, incoming
        cross) levels, so feedback quality beyond that returns nothing new.
        """
        if link == 1:
            return max(self.fwd11, self.inr12)
        if link == 2:
            return max(self.fwd22, self.inr21)
        raise ValueError(f"link must be 1 or 2, got {link!r}")


def derive_variant(params: ChannelParams, kind: str) -> ChannelParams:
    """Return a copy of ``params`` with the feedback links adjusted.

    ``no_feedback`` zeroes both feedback levels; ``perfect_feedback`` raises
    both to their saturation values.
    """
    sat1 = params.feedback_saturation(1)
    sat2 = params.feedback_saturation(2)
    if kind == "no_feedback":
        return replace(params, fb11=0, fb22=0)
    if kind == "perfect_feedback":
        return replace(params, fb11=sat1, fb22=sat2)
    raise ValueError(f"unknown variant kind {kind!r}; expected one of {VARIANT_KINDS}")


@dataclass(frozen=True)
class GaussianParams:
    """Linear-scale power ratios of the additive-noise channel being modeled.

    All six ratios must be >= 1 so the derived level counts are non-negative.
    Values may be int, float, or Fraction; conversion to level counts is exact.
    """

    snr_fwd1: float
    snr_fwd2: float
    inr_12: float
    inr_21: float
    snr_fb1: float
    snr_fb2: float

    def __post_init__(self):
        for name in ("snr_fwd1", "snr_fwd2", "inr_12", "inr_21", "snr_fb1", "snr_fb2"):
            value = getattr(self, name)
            try:
                exact = Fraction(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{name} must be a finite number, got {value!r}") from exc
            if exact < 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")


def _floor_half_log2(ratio) -> int:
    """Exact floor of half the base-2 logarithm of a ratio >= 1.

    Works on the integer numerator/denominator pair, so float inputs are
    resolved through their exact binary value rather than through log().
    """
    num, den = Fraction(ratio).as_integer_ratio()
    log2_floor = num.bit_length() - den.bit_length()
    if (den << log2_floor) > num:
        log2_floor -= 1
    return log2_floor // 2


def gaussian_to_ld(gaussian: GaussianParams) -> ChannelParams:
    """Map power ratios to the deterministic model's level counts."""
    return ChannelParams(
        fwd11=_floor_half_log2(gaussian.snr_fwd1),
        fwd22=_floor_half_log2(gaussian.snr_fwd2),
        inr12=_floor_half_log2(gaussian.inr_12),
        inr21=_floor_half_log2(gaussian.inr_21),
        fb11=_floor_half_log2(gaussian.snr_fb1),
        fb22=_floor_half_log2(gaussian.snr_fb2),
    )
