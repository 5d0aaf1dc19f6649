"""Feedback-benefit metrics over capacity regions.

Everything here compares the region at some feedback setting against the
region of the same forward channel with feedback removed. The individual
improvements are maxima of a difference of two concave piecewise-linear
slice functions, so they are computed exactly by evaluating at the
breakpoints (the vertex coordinates of either region); the sum improvement
is a difference of two linear maximizations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .bounds import capacity_region
from .params import ChannelParams, derive_variant
from .polytope import RatePolytope


@dataclass(frozen=True)
class MetricsResult:
    delta1: Fraction
    delta2: Fraction
    sigma: Fraction

    def __post_init__(self):
        for name in ("delta1", "delta2", "sigma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")


@dataclass(frozen=True)
class ThresholdReport:
    """Largest feedback level on one link that leaves the region unchanged.

    threshold None means the region never changes on this link (the other
    link held at zero), all the way to saturation.
    """

    link: int
    threshold: Optional[int]
    saturation: int

    def __post_init__(self):
        if self.link not in (1, 2):
            raise ValueError(f"link must be 1 or 2, got {self.link!r}")
        if self.saturation < 0:
            raise ValueError(f"saturation must be non-negative, got {self.saturation}")
        if self.threshold is not None and not 0 <= self.threshold < self.saturation:
            raise ValueError(
                f"threshold {self.threshold} outside [0, {self.saturation})"
            )


@dataclass(frozen=True)
class MetricSurface:
    """Metrics for every integer feedback pair up to the saturation grid."""

    base: ChannelParams
    cells: dict


def _delta_between(region: RatePolytope, base: RatePolytope, user: int) -> Fraction:
    """Largest slice gain for one user over the shared other-rate domain.

    Both slice functions are concave piecewise-linear in the fixed
    coordinate, so their difference peaks at a vertex coordinate of one of
    the polytopes; the domain is capped by the smaller region's reach.
    """
    axis = 3 - user  # coordinate held fixed
    weights = (1, 0) if axis == 1 else (0, 1)
    cap = min(region.max_linear(*weights), base.max_linear(*weights))
    breakpoints = {Fraction(0), cap}
    for v in region.vertices + base.vertices:
        fixed = v.r1 if axis == 1 else v.r2
        if 0 <= fixed <= cap:
            breakpoints.add(fixed)
    best = Fraction(0)
    for value in breakpoints:
        gain = region.slice_max(axis, value) - base.slice_max(axis, value)
        if gain > best:
            best = gain
    return best


def _base(params: ChannelParams):
    """The no-feedback variant of a channel and its region."""
    base_params = derive_variant(params, "no_feedback")
    return base_params, capacity_region(base_params)


def _cell(region: RatePolytope, base: RatePolytope, base_sum: Fraction) -> MetricsResult:
    """Metrics of a region over its no-feedback base, whose largest sum rate is base_sum."""
    return MetricsResult(
        delta1=_delta_between(region, base, 1),
        delta2=_delta_between(region, base, 2),
        sigma=region.max_linear(1, 1) - base_sum,
    )


def delta(params: ChannelParams, user: int) -> Fraction:
    """Maximum individual-rate improvement feedback buys user 1 or 2."""
    if user not in (1, 2):
        raise ValueError(f"user must be 1 or 2, got {user!r}")
    result = compute_metrics(params)
    return result.delta1 if user == 1 else result.delta2


def sigma(params: ChannelParams) -> Fraction:
    """Maximum sum-rate improvement feedback buys."""
    return compute_metrics(params).sigma


def compute_metrics(params: ChannelParams) -> MetricsResult:
    """Individual and sum-rate improvements of a channel over its no-feedback base."""
    _, base = _base(params)
    return _cell(capacity_region(params), base, base.max_linear(1, 1))


def feedback_threshold(params: ChannelParams, link: int) -> ThresholdReport:
    """Largest level on one feedback link, the other at zero, that leaves the region unchanged.

    Every canonical cap is non-decreasing in each feedback level (the
    ``_feedback_credit`` and ``relayed`` terms in ``bounds``), so the regions
    are nested: once a level enlarges the region, every higher level does.
    "Region equals the no-feedback base" therefore holds up to the threshold
    and fails above it, and bisecting [0, saturation] finds the threshold
    exactly in about log2(saturation + 1) region builds. If no level up to
    saturation moves the region, feedback on this link alone is worthless.
    """
    saturation = params.feedback_saturation(link)
    base_params, base = _base(params)
    field = "fb11" if link == 1 else "fb22"
    # Invariant: the region at level `unchanged` equals the base, and every
    # level from `moved` up differs (saturation + 1 stands for "none does").
    unchanged, moved = 0, saturation + 1
    while moved - unchanged > 1:
        level = (unchanged + moved) // 2
        if capacity_region(replace(base_params, **{field: level})).equals_region(base):
            unchanged = level
        else:
            moved = level
    threshold = None if unchanged == saturation else unchanged
    return ThresholdReport(link=link, threshold=threshold, saturation=saturation)


def feedback_useless(params: ChannelParams) -> bool:
    """True when even perfect feedback on both links leaves the region unchanged."""
    _, base = _base(params)
    full = capacity_region(derive_variant(params, "perfect_feedback"))
    return full.equals_region(base)


def sweep(params: ChannelParams) -> MetricSurface:
    """Metrics at every integer feedback pair on the saturation grid.

    Values beyond saturation repeat the edge of the grid, so the grid stops
    there.
    """
    base_params, base = _base(params)
    base_sum = base.max_linear(1, 1)
    cells = {
        (fb11, fb22): _cell(capacity_region(replace(base_params, fb11=fb11, fb22=fb22)),
                            base, base_sum)
        for fb11 in range(params.feedback_saturation(1) + 1)
        for fb22 in range(params.feedback_saturation(2) + 1)
    }
    return MetricSurface(base=base_params, cells=cells)
