"""Feedback-benefit metrics over capacity regions, read from their five caps.

Everything here compares the region at some feedback setting against the
region of the same forward channel with feedback removed. A region is
{r >= 0 : r1 <= c1, r2 <= c2, r1 + r2 <= c3, 2*r1 + r2 <= c4, r1 + 2*r2 <= c5}
for its caps c (``BoundSet.caps``), and each value used here is a
linear-programming dual minimum over those five caps; no vertex is
enumerated. A user-1 slice is a minimum of four affine terms in R2, so the
largest slice gain peaks at 0, at the end of the shared domain or where two
terms of either slice cross; user 2 is user 1 on the mirrored caps. Two
regions are equal exactly when their maxima of the five canonical forms are.
All of it runs in integers (R2 times 6, slice values times 12); a Fraction
is made only when a MetricsResult is built.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .bounds import build_bounds, compose_bounds, link_profile
from .params import ChannelParams, derive_variant


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
    """Metrics for every integer feedback pair up to the saturation grid.

    ``cells`` maps (fb11, fb22) to its MetricsResult, in fb11-major,
    fb22-minor order, both ascending; cells with the same caps share one
    MetricsResult.
    """

    cells: dict


def _sum_max(c: tuple) -> int:
    """6 * the largest R1 + R2 over the region with caps c."""
    c1, c2, c3, c4, c5 = c
    return min(6 * c3, 6 * (c1 + c2), 6 * c4, 6 * c5,
               3 * (c1 + c5), 3 * (c2 + c4), 2 * (c4 + c5))


def _weighted_max(c: tuple) -> int:
    """2 * the largest 2*R1 + R2 over the region with caps c."""
    c1, c2, c3, c4, c5 = c
    return min(2 * c4, 4 * c1 + 2 * c2, 2 * c1 + 2 * c3, 4 * c3, 4 * c5, 3 * c1 + c5)


def _slice(c: tuple, x: int) -> int:
    """12 * the largest R1 at R2 = x/6, for x from 0 to 6 * the largest R2."""
    c1, _, c3, c4, c5 = c
    return min(12 * c1, 12 * c3 - 2 * x, 6 * c4 - x, 12 * c5 - 4 * x)


def _mirror(c: tuple) -> tuple:
    c1, c2, c3, c4, c5 = c
    return (c2, c1, c3, c5, c4)


def _support(c: tuple) -> tuple:
    """The largest R1, R2, R1 + R2, 2*R1 + R2 and R1 + 2*R2, each scaled to an int."""
    m = _mirror(c)
    return (_slice(c, 0), _slice(m, 0), _sum_max(c), _weighted_max(c), _weighted_max(m))


def _delta(c: tuple, b: tuple) -> int:
    """12 * the largest gain in R1 of caps c over caps b at a common R2."""
    end = min(min(6 * c2, 6 * c3, 6 * c4, 3 * c5) for _, c2, c3, c4, c5 in (c, b))
    points = {0, end}
    for c1, _, c3, c4, c5 in (c, b):
        kinks = (6 * (c3 - c1), 6 * (c4 - 2 * c1), 3 * (c5 - c1),
                 6 * (2 * c3 - c4), 6 * (c5 - c3), 2 * (2 * c5 - c4))
        points.update(x for x in kinks if 0 < x < end)
    return max(_slice(c, x) - _slice(b, x) for x in points)


def _base(params: ChannelParams):
    """The no-feedback variant of a channel and its caps."""
    base_params = derive_variant(params, "no_feedback")
    return base_params, build_bounds(base_params).caps


def _cell(caps: tuple, base: tuple) -> MetricsResult:
    """Metrics of a region over its no-feedback base, both given by their caps."""
    return MetricsResult(
        delta1=Fraction(_delta(caps, base), 12),
        delta2=Fraction(_delta(_mirror(caps), _mirror(base)), 12),
        sigma=Fraction(_sum_max(caps) - _sum_max(base), 6),
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
    return _cell(build_bounds(params).caps, base)


def feedback_threshold(params: ChannelParams, link: int) -> ThresholdReport:
    """Largest level on one feedback link, the other at zero, that leaves the region unchanged.

    Every canonical cap is non-decreasing in each feedback level (the
    ``_feedback_credit`` and ``relayed`` terms in ``bounds``), so the regions
    are nested: once a level enlarges the region, every higher level does.
    "Region equals the no-feedback base" therefore holds up to the threshold
    and fails above it, and bisecting [0, saturation] finds the threshold
    exactly in about log2(saturation + 1) bound sets. If no level up to
    saturation moves the region, feedback on this link alone is worthless.
    """
    return _threshold(*_base(params), link)


def _threshold(base_params: ChannelParams, base: tuple, link: int) -> ThresholdReport:
    saturation = base_params.feedback_saturation(link)
    field = "fb11" if link == 1 else "fb22"
    target = _support(base)
    # Invariant: the region at level `unchanged` equals the base, and every
    # level from `moved` up differs (saturation + 1 stands for "none does").
    unchanged, moved = 0, saturation + 1
    while moved - unchanged > 1:
        level = (unchanged + moved) // 2
        if _support(build_bounds(replace(base_params, **{field: level})).caps) == target:
            unchanged = level
        else:
            moved = level
    threshold = None if unchanged == saturation else unchanged
    return ThresholdReport(link=link, threshold=threshold, saturation=saturation)


def feedback_useless(params: ChannelParams) -> bool:
    """True when even perfect feedback on both links leaves the region unchanged."""
    return _useless(*_base(params))


def _useless(base_params: ChannelParams, base: tuple) -> bool:
    full = build_bounds(derive_variant(base_params, "perfect_feedback")).caps
    return _support(full) == _support(base)


def metrics_report(params: ChannelParams) -> tuple:
    """Everything ``ldic metrics`` prints: (compute_metrics, both threshold reports, useless).

    Equal to calling ``compute_metrics``, ``feedback_threshold`` for links 1
    and 2 and ``feedback_useless``, but the four share one no-feedback base
    bound set instead of building it four times.
    """
    base_params, base = _base(params)
    thresholds = (_threshold(base_params, base, 1), _threshold(base_params, base, 2))
    return _cell(build_bounds(params).caps, base), thresholds, _useless(base_params, base)


def sweep(params: ChannelParams) -> MetricSurface:
    """Metrics at every integer feedback pair on the saturation grid.

    Values beyond saturation repeat the edge of the grid, so the grid stops
    there. Each link's terms depend on its own feedback level alone (see
    ``bounds``), so each link is evaluated once per level, O(S1 + S2) link
    evaluations, and one cap tuple is measured per pair of distinct link
    terms. A cell is then two index lookups into that table. Cells run
    fb11-major, fb22-minor, both ascending.
    """
    base_params, base = _base(params)
    terms1, index1 = link_profile(base_params, 1)
    terms2, index2 = link_profile(base_params, 2)
    table = [[_cell(compose_bounds(base_params, t1, t2).caps, base) for t2 in terms2]
             for t1 in terms1]
    cells = {}
    for fb11, i in enumerate(index1):
        row = table[i]
        for fb22, j in enumerate(index2):
            cells[(fb11, fb22)] = row[j]
    return MetricSurface(cells=cells)
