"""Channel parameters for the two-user linear deterministic interference channel.

Every link is described by a non-negative integer: the number of bit levels
that survive it. ``fwd11``/``fwd22`` count the levels of each direct link,
``inr12``/``inr21`` the levels of the cross links (first index = receiver,
second = transmitter), and ``fb11``/``fb22`` the levels of each receiver's
feedback link back to its own transmitter.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

# Cap on every level count. Keeps all derived bound arithmetic far inside
# native integer ranges for any downstream consumer or file format.
MAX_EXPONENT = 10_000

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
        for field in fields(self):
            name, value = field.name, getattr(self, field.name)
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
