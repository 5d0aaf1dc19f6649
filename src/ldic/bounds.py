"""Rate constraints of the capacity region and their assembly into a bound set.

The capacity region of the two-user channel with noisy output feedback is cut
out by five linear inequalities on the rate pair (R1, R2): one cap per
individual rate, one on the sum, and one per weighted combination 2*Ri + Rj.
Each cap is the minimum over one or two elementary bound evaluations; those
eight evaluations are enumerated by :class:`Bound` so a cap can always be
traced back to the evaluation that produced it.

The bound set separates by feedback link. Feedback link 1 at level fb11
enters only the R2 cap, the R1+2*R2 cap and link 1's sum credit; link 2 at
level fb22 mirrors it with the R1 cap, the 2*R1+R2 cap and link 2's credit.
Every other term reads the forward links alone, and the sum cap is

    min(SUM_INTERFERENCE, base + credit1(fb11) + credit2(fb22)).

So the bound set at (fb11, fb22) = (a, b) is composed, by ``compose_bounds``
alone, from link 1's terms at level a and link 2's at level b;
``build_bounds`` composes one channel this way. ``link_profile`` lists a
link's distinct terms over every level up to saturation, so a sweep
evaluates O(S1 + S2) link terms and composes one bound set per pair of
distinct terms. Distinct pairs have distinct caps: the 2*Ri + R_link cap is
a constant plus the link's credit, so it fixes the credit, and a cap's value
fixes its source, because the interference evaluation wins ties.

All arithmetic is exact signed-integer. Intermediate expressions may go
negative before their clip; ``_pos`` applies the clip exactly where each
formula places it.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Optional

from .params import ChannelParams


def _pos(x: int) -> int:
    return x if x > 0 else 0


class Bound(enum.Enum):
    """The eight elementary bound evaluations.

    ``*_INTERFERENCE`` bounds depend on the forward links only.
    ``Ri_PARTNER_FEEDBACK`` caps user i through the other pair's feedback
    path (its signal can reach its receiver via the partner's loop).
    ``SUM_FEEDBACK`` adds one clipped feedback credit per link to a
    decode-own-signal baseline, and each ``WEIGHTED_*`` bound adds the
    lighter user's credit to its own baseline.
    """

    R1_INTERFERENCE = "r1_interference"
    R2_INTERFERENCE = "r2_interference"
    R1_PARTNER_FEEDBACK = "r1_partner_feedback"
    R2_PARTNER_FEEDBACK = "r2_partner_feedback"
    SUM_INTERFERENCE = "sum_interference"
    SUM_FEEDBACK = "sum_feedback"
    WEIGHTED_2R1_R2 = "weighted_2r1_r2"
    WEIGHTED_2R2_R1 = "weighted_2r2_r1"


def _user_view(p: ChannelParams, user: int):
    """(fwd, inr_in, inr_out) for one user.

    ``inr_in`` is the cross level arriving at this user's receiver;
    ``inr_out`` is the level at which this user lands on the other receiver.
    """
    if user == 1:
        return p.fwd11, p.inr12, p.inr21
    if user == 2:
        return p.fwd22, p.inr21, p.inr12
    raise ValueError(f"user must be 1 or 2, got {user!r}")


def _individual_interference(p: ChannelParams, user: int) -> int:
    """Cap on one rate from what either receiver can resolve of the signal."""
    fwd, inr_in, inr_out = _user_view(p, user)
    return min(max(fwd, inr_out), max(fwd, inr_in))


def _individual_partner_feedback(p: ChannelParams, user: int, level: int) -> int:
    """Cap on one rate through the partner pair's feedback loop at ``level``.

    The partner's feedback link relays this user's signal back around; its
    value is discounted by the levels the partner's own signal occupies on
    top of the cross signal. The discounted term may be negative; the outer
    max with the direct link absorbs it.
    """
    fwd_i, _, inr_out_i = _user_view(p, user)
    fwd_j, _, _ = _user_view(p, 3 - user)
    relayed = level - _pos(fwd_j - inr_out_i)
    return min(max(fwd_i, inr_out_i), max(fwd_i, relayed))


def _sum_interference(p: ChannelParams) -> int:
    """Sum cap from letting one receiver decode both signals."""
    via_rx1 = max(p.fwd11, p.inr12) + _pos(p.fwd22 - p.inr12)
    via_rx2 = max(p.fwd22, p.inr21) + _pos(p.fwd11 - p.inr21)
    return min(via_rx1, via_rx2)


def _feedback_credit(p: ChannelParams, link: int, level: int) -> int:
    """Clipped sum-rate credit contributed by one feedback link at ``level``.

    The link returns at most min(level, max(fwd, inr_in)) output levels; only
    the part below the transmitter's own private levels carries anything it
    did not already know, and levels the other receiver observes anyway are
    deducted. Negative credit is clipped to zero.
    """
    fwd, inr_in, inr_out = _user_view(p, link)
    returned = _pos(min(level, max(fwd, inr_in)) - _pos(fwd - inr_in))
    overheard = min(fwd, inr_out) - min(_pos(fwd - inr_in), inr_out)
    return _pos(returned - _pos(inr_in - fwd) - overheard)


def _sum_base(p: ChannelParams) -> int:
    """The forward-only part of the sum cap: private-level decoding at both receivers."""
    return max(_pos(p.fwd11 - p.inr12), p.inr21) + max(_pos(p.fwd22 - p.inr21), p.inr12)


def _weighted(p: ChannelParams, heavy: int, level: int) -> int:
    """Cap on 2*R_heavy + R_other, with the lighter user's credit at ``level``."""
    fwd_i, inr_in_i, _ = _user_view(p, heavy)
    fwd_j, inr_in_j, _ = _user_view(p, 3 - heavy)
    base = (
        max(fwd_j, inr_in_j)
        + max(fwd_i, inr_in_i)
        + _pos(fwd_i - inr_in_j)
        - min(_pos(fwd_j - inr_in_j), inr_in_i)
    )
    return base + _feedback_credit(p, 3 - heavy, level)


def evaluate_bound(params: ChannelParams, bound: Bound) -> int:
    """Exact right-hand side of one elementary bound evaluation."""
    if bound is Bound.R1_INTERFERENCE:
        return _individual_interference(params, 1)
    if bound is Bound.R2_INTERFERENCE:
        return _individual_interference(params, 2)
    if bound is Bound.R1_PARTNER_FEEDBACK:
        return _individual_partner_feedback(params, 1, params.fb22)
    if bound is Bound.R2_PARTNER_FEEDBACK:
        return _individual_partner_feedback(params, 2, params.fb11)
    if bound is Bound.SUM_INTERFERENCE:
        return _sum_interference(params)
    if bound is Bound.SUM_FEEDBACK:
        return (
            _sum_base(params)
            + _feedback_credit(params, 1, params.fb11)
            + _feedback_credit(params, 2, params.fb22)
        )
    if bound is Bound.WEIGHTED_2R1_R2:
        return _weighted(params, 1, params.fb22)
    if bound is Bound.WEIGHTED_2R2_R1:
        return _weighted(params, 2, params.fb11)
    raise ValueError(f"unknown bound {bound!r}")


@dataclass(frozen=True)
class Constraint:
    """One half-plane r1_coeff*R1 + r2_coeff*R2 <= rhs.

    ``source`` names the elementary evaluation whose value became the
    right-hand side; it is None for the two non-negativity constraints
    (recognizable by their -1 coefficient).
    """

    r1_coeff: int
    r2_coeff: int
    rhs: int
    source: Optional[Bound] = None

    def __post_init__(self):
        if self.rhs < 0:
            raise ValueError(f"constraint right-hand side must be non-negative, got {self.rhs}")

    def holds(self, r1, r2) -> bool:
        return self.r1_coeff * r1 + self.r2_coeff * r2 <= self.rhs


# Coefficient pairs of the five canonical upper bounds, in fixed order.
CANONICAL_FORMS = ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2))

NONNEGATIVITY = (Constraint(-1, 0, 0), Constraint(0, -1, 0))


@dataclass(frozen=True)
class BoundSet:
    """The region's five canonical caps and the evaluation behind each.

    ``caps`` holds the right-hand sides of the ``CANONICAL_FORMS`` upper
    bounds, in that order; ``sources`` names the :class:`Bound` that set each
    one, or None where no evaluation is known. ``constraints`` spells the set
    out as seven ``Constraint`` rows, the five caps then ``NONNEGATIVITY``.
    """

    caps: tuple
    sources: tuple = (None,) * 5

    def __post_init__(self):
        if len(self.caps) != 5 or len(self.sources) != 5 or min(self.caps) < 0:
            raise ValueError("a bound set needs five non-negative caps and five sources, "
                             f"got {self.caps} and {self.sources}")

    @functools.cached_property
    def constraints(self) -> tuple:
        """The five caps as ``Constraint`` rows, then the two non-negativity rows."""
        return tuple(Constraint(a, b, rhs, source) for (a, b), rhs, source
                     in zip(CANONICAL_FORMS, self.caps, self.sources)) + NONNEGATIVITY


_INDIVIDUAL = {
    1: (Bound.R1_INTERFERENCE, Bound.R1_PARTNER_FEEDBACK),
    2: (Bound.R2_INTERFERENCE, Bound.R2_PARTNER_FEEDBACK),
}


def _min_with_source(first: tuple, second: tuple) -> tuple:
    """The smaller of two (value, source) pairs; the first wins a tie."""
    return second if second[0] < first[0] else first


def _link_terms(p: ChannelParams, link: int, level: int) -> tuple:
    """Every term of the bound set that feedback link ``link`` at ``level`` enters.

    For the other user i these are the Ri cap as (value, source), the
    2*Ri + R_link cap, and the link's own sum credit. Only ``level`` is read
    of the feedback: ``p.fb11`` and ``p.fb22`` are ignored.
    """
    other = 3 - link
    interference, partner_feedback = _INDIVIDUAL[other]
    cap = _min_with_source(
        (_individual_interference(p, other), interference),
        (_individual_partner_feedback(p, other, level), partner_feedback),
    )
    return cap, _weighted(p, other, level), _feedback_credit(p, link, level)


def link_profile(params: ChannelParams, link: int) -> tuple:
    """One feedback link's distinct terms over every level up to its saturation.

    Returns (terms, index): ``terms`` lists the distinct ``_link_terms``
    values in order of the lowest level that gives each, and
    ``index[level]`` is the position of that level's terms in ``terms``.
    The feedback levels of ``params`` are ignored.
    """
    values = [_link_terms(params, link, level)
              for level in range(params.feedback_saturation(link) + 1)]
    position = {value: i for i, value in enumerate(dict.fromkeys(values))}
    return list(position), [position[value] for value in values]


def compose_bounds(params: ChannelParams, terms1: tuple, terms2: tuple) -> BoundSet:
    """The region's bound set from each link's ``_link_terms``.

    Each canonical cap is the minimum over its contributing evaluations:
    ``terms1`` are link 1's terms, ``terms2`` link 2's, and the sum cap also
    reads the forward-only sum terms of ``params``. Redundant caps are kept
    (pruning is the polytope engine's concern, not this one's).
    """
    (r2_cap, r2_src), weighted_2r2_r1, credit1 = terms1
    (r1_cap, r1_src), weighted_2r1_r2, credit2 = terms2
    sum_cap, sum_src = _min_with_source(
        (_sum_interference(params), Bound.SUM_INTERFERENCE),
        (_sum_base(params) + credit1 + credit2, Bound.SUM_FEEDBACK),
    )
    return BoundSet(
        (r1_cap, r2_cap, sum_cap, weighted_2r1_r2, weighted_2r2_r1),
        (r1_src, r2_src, sum_src, Bound.WEIGHTED_2R1_R2, Bound.WEIGHTED_2R2_R1),
    )


def build_bounds(params: ChannelParams) -> BoundSet:
    """Compose both links' terms into the region's bound set.

    Each link's terms are read at the channel's own feedback level.
    """
    return compose_bounds(
        params,
        _link_terms(params, 1, params.fb11),
        _link_terms(params, 2, params.fb22),
    )


def capacity_region(params: ChannelParams):
    """The capacity region as an exact polytope, its corners read off the cap slice."""
    from .polytope import RatePolytope

    return RatePolytope.from_bounds(build_bounds(params))
