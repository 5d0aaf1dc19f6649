"""Feedback-benefit metrics over capacity regions, read from their five caps.

Everything here compares the region at some feedback setting against the
region of the same forward channel with feedback removed. Each value is a
closed form in the two regions' caps (``BoundSet.caps``), computed by the
slice and support functions of ``polytope``; no region is built. Two
regions are equal exactly when their support tuples are. All of it runs in
integers (R2 times 6, slice values times 12); a Fraction is made only when a
MetricsResult is built.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .bounds import build_bounds, compose_bounds, link_profile
from .params import ChannelParams, derive_variant
from .polytope import _delta, _mirror, _sum_max, _support


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

    ``results[i][j]`` is the MetricsResult of link 1's i-th and link 2's j-th
    distinct terms (``bounds.link_profile``), and ``index1[fb11]``,
    ``index2[fb22]`` are the positions of each level's terms, so the cell
    (fb11, fb22) is ``results[index1[fb11]][index2[fb22]]``: cells with the
    same pair of terms share one MetricsResult. ``cells`` is a read-only
    mapping from (fb11, fb22) to its MetricsResult over that table, iterated
    fb11-major and fb22-minor, both ascending; it stores no cell.
    """

    results: tuple
    index1: tuple
    index2: tuple

    @property
    def cells(self) -> Mapping:
        return _Cells(self)


class _Cells(Mapping):
    """The (fb11, fb22) -> MetricsResult view of a MetricSurface; a read is two index lookups."""

    def __init__(self, surface: MetricSurface):
        self._surface = surface

    def __getitem__(self, key):
        s = self._surface
        try:
            fb11, fb22 = key
            if fb11 >= 0 and fb22 >= 0:
                return s.results[s.index1[fb11]][s.index2[fb22]]
        except (TypeError, ValueError, IndexError):  # not a pair of ints, or past the grid
            pass
        raise KeyError(key)

    def __iter__(self):
        return itertools.product(range(len(self._surface.index1)),
                                 range(len(self._surface.index2)))

    def __len__(self):
        return len(self._surface.index1) * len(self._surface.index2)


def _base(params: ChannelParams) -> tuple:
    """The caps of a channel's no-feedback variant."""
    return build_bounds(derive_variant(params, "no_feedback")).caps


def _cell(caps: tuple, base: tuple) -> MetricsResult:
    """Metrics of a region over its no-feedback base, both given by their caps."""
    return MetricsResult(
        delta1=Fraction(_delta(caps, base), 12),
        delta2=Fraction(_delta(_mirror(caps), _mirror(base)), 12),
        sigma=Fraction(_sum_max(caps) - _sum_max(base), 6),
    )


# Not in ldic.__all__; kept because benchmarks/tracing.LAYER_API wraps delta and sigma.
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
    return _cell(build_bounds(params).caps, _base(params))


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
    saturation = params.feedback_saturation(link)
    field = "fb11" if link == 1 else "fb22"
    bare = derive_variant(params, "no_feedback")
    target = _support(build_bounds(bare).caps)
    # Invariant: the region at level `unchanged` equals the base, and every
    # level from `moved` up differs (saturation + 1 stands for "none does").
    unchanged, moved = 0, saturation + 1
    while moved - unchanged > 1:
        level = (unchanged + moved) // 2
        if _support(build_bounds(replace(bare, **{field: level})).caps) == target:
            unchanged = level
        else:
            moved = level
    threshold = None if unchanged == saturation else unchanged
    return ThresholdReport(link=link, threshold=threshold, saturation=saturation)


def feedback_useless(params: ChannelParams) -> bool:
    """True when even perfect feedback on both links leaves the region unchanged."""
    full = build_bounds(derive_variant(params, "perfect_feedback")).caps
    return _support(full) == _support(_base(params))


def sweep(params: ChannelParams) -> MetricSurface:
    """Metrics at every integer feedback pair on the saturation grid.

    Values beyond saturation repeat the edge of the grid, so the grid stops
    there. Each link's terms depend on its own feedback level alone (see
    ``bounds``), so each link is evaluated once per level, O(S1 + S2) link
    evaluations, and one cap tuple is measured per pair of distinct link
    terms. The surface holds that table and each link's level-to-terms
    index, so a cell is two index lookups.
    """
    base = _base(params)
    terms1, index1 = link_profile(params, 1)
    terms2, index2 = link_profile(params, 2)
    results = tuple(tuple(_cell(compose_bounds(params, t1, t2).caps, base) for t2 in terms2)
                    for t1 in terms1)
    return MetricSurface(results, tuple(index1), tuple(index2))
