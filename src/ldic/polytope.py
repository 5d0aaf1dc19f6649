"""Exact rational 2-D geometry of rate regions, all read from their five caps.

Every region is {r >= 0 : r1 <= c1, r2 <= c2, r1 + r2 <= c3, 2*r1 + r2 <= c4,
r1 + 2*r2 <= c5} for its caps c (``BoundSet.caps``), so it is down-closed and
its upper boundary is one concave slice: 12 * the largest R1 at R2 = x/6 is a
minimum of four affine terms in x (``_slice``), for x from 0 to 6 * the
largest R2 (``_reach``). The region's corners are therefore (R1max, 0), the
slice at the kinks where two terms cross (``_kinks``), (0, R2max) and the
origin, less the points that lie on a line through their neighbours; every
corner lies in (1/6)Z and a region stores them as the integer pairs
``scaled``. The metrics in ``metrics`` read the same functions and build no
region. Counter-clockwise order is a plain sort on (-r1, r2) with the origin
moved to the end; that order is fixed and the corners exact and distinct, so
two regions are equal exactly when their vertex tuples are, and exactly when
their maxima of the five canonical forms (``_support``) are.
"""

from __future__ import annotations

import collections
import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .bounds import BoundSet

# Every vertex coordinate is a multiple of 1/SCALE (see the module docstring).
SCALE = 6


def _slice(c: tuple, x):
    """12 * the largest R1 at R2 = x/6, for x from 0 to ``_reach(c)``; x may be a Fraction."""
    c1, _, c3, c4, c5 = c
    return min(12 * c1, 12 * c3 - 2 * x, 6 * c4 - x, 12 * c5 - 4 * x)


def _reach(c: tuple) -> int:
    """6 * the largest R2 over the region with caps c."""
    _, c2, c3, c4, c5 = c
    return min(6 * c2, 6 * c3, 6 * c4, 3 * c5)


def _kinks(c: tuple) -> tuple:
    """The x where two terms of ``_slice(c, x)`` cross, one per pair of terms."""
    c1, _, c3, c4, c5 = c
    return (6 * (c3 - c1), 6 * (c4 - 2 * c1), 3 * (c5 - c1),
            6 * (2 * c3 - c4), 6 * (c5 - c3), 2 * (2 * c5 - c4))


def _sum_max(c: tuple) -> int:
    """6 * the largest R1 + R2 over the region with caps c."""
    c1, c2, c3, c4, c5 = c
    return min(6 * c3, 6 * (c1 + c2), 6 * c4, 6 * c5,
               3 * (c1 + c5), 3 * (c2 + c4), 2 * (c4 + c5))


def _weighted_max(c: tuple) -> int:
    """2 * the largest 2*R1 + R2 over the region with caps c."""
    c1, c2, c3, c4, c5 = c
    return min(2 * c4, 4 * c1 + 2 * c2, 2 * c1 + 2 * c3, 4 * c3, 4 * c5, 3 * c1 + c5)


def _mirror(c: tuple) -> tuple:
    c1, c2, c3, c4, c5 = c
    return (c2, c1, c3, c5, c4)


def _support(c: tuple) -> tuple:
    """The largest R1, R2, R1 + R2, 2*R1 + R2 and R1 + 2*R2, each scaled to an int."""
    m = _mirror(c)
    return (_slice(c, 0), _slice(m, 0), _sum_max(c), _weighted_max(c), _weighted_max(m))


def _delta(c: tuple, b: tuple) -> int:
    """12 * the largest gain in R1 of caps c over caps b at a common R2.

    Both slices are piecewise affine, so their difference peaks at 0, at the
    end of the shared domain or at a kink of either.
    """
    end = min(_reach(c), _reach(b))
    points = {0, end}
    points.update(x for x in _kinks(c) + _kinks(b) if 0 < x < end)
    return max(_slice(c, x) - _slice(b, x) for x in points)


class RatePoint(collections.namedtuple("RatePoint", ["r1", "r2"])):
    """A non-negative rate pair with exact rational coordinates."""

    __slots__ = ()

    def __new__(cls, r1, r2):
        r1, r2 = Fraction(r1), Fraction(r2)
        if r1 < 0 or r2 < 0:
            raise ValueError(f"rate pair must be non-negative, got ({r1}, {r2})")
        return super().__new__(cls, r1, r2)


@dataclass(frozen=True)
class RatePolytope:
    """A rate region with its inequality description and its vertices.

    ``scaled`` holds the vertices as integer pairs (SCALE*r1, SCALE*r2),
    counter-clockwise starting from the one with maximal r1 (ties broken
    toward minimal r2). Degenerate regions are first-class: a single point
    has one vertex, a segment two. ``vertices`` is the same tuple as exact
    RatePoints, made on first read.
    """

    bounds: BoundSet
    scaled: tuple

    @classmethod
    def from_bounds(cls, bounds: BoundSet) -> "RatePolytope":
        c = bounds.caps
        reach = _reach(c)
        xs = sorted({0, reach, *(x for x in _kinks(c) if 0 < x < reach)})
        # (12*r1, 12*r2) along the upper boundary, from (R1max, 0) to (0, R2max)
        points = [(_slice(c, x), 2 * x) for x in xs]
        if points[-1][0] > 0:
            points.append((0, 2 * reach))
        # The collinearity test runs in twelfths: at the kink of a term that
        # binds nowhere, 12*r1 can be odd, and halving would round it off.
        corners = {points[0], points[-1], (0, 0)}
        corners.update(p for a, p, b in zip(points, points[1:], points[2:])
                       if (p[0] - a[0]) * (b[1] - p[1]) != (b[0] - p[0]) * (p[1] - a[1]))

        # This sort is counter-clockwise only because every canonical form has
        # non-negative coefficients: the region is down-closed, the origin a vertex.
        scaled = sorted(((x // 2, y // 2) for x, y in corners), key=lambda v: (-v[0], v[1]))
        if len(scaled) > 2:
            scaled.append(scaled.pop(scaled.index((0, 0))))
        return cls(bounds, tuple(scaled))

    @functools.cached_property
    def vertices(self) -> tuple:
        """The vertices as exact RatePoints, in the order of ``scaled``."""
        return tuple(RatePoint(Fraction(x, SCALE), Fraction(y, SCALE)) for x, y in self.scaled)

    def contains(self, point: RatePoint) -> bool:
        """Exact membership test, boundary inclusive."""
        return all(c.holds(point.r1, point.r2) for c in self.bounds.constraints)

    def subset_of(self, other: "RatePolytope") -> bool:
        """True iff this region lies inside the other (vertex check; both convex)."""
        return all(other.contains(v) for v in self.vertices)

    def equals_region(self, other: "RatePolytope") -> bool:
        """True iff the two regions contain the same points.

        The vertex tuple is canonical (exact, duplicate-free, fixed anchor and
        order), so equal regions have equal tuples; ``scaled`` is that tuple
        times SCALE, one-to-one with it.
        """
        return self.scaled == other.scaled

    def max_linear(self, c1: int, c2: int) -> Fraction:
        """Exact maximum of c1*r1 + c2*r2 over the region (attained at a vertex)."""
        if (c1, c2) == (0, 0):
            raise ValueError("objective must be a nonzero functional")
        return Fraction(max(c1 * x + c2 * y for x, y in self.scaled), SCALE)

    def slice_max(self, axis: int, value) -> Optional[Fraction]:
        """Maximal free coordinate on the slice with coordinate `axis` fixed.

        axis=2 fixes r2 = value and returns the largest feasible r1; axis=1
        the reverse. Returns None when the slice misses the region. Axis 1
        is axis 2 on the mirrored caps.
        """
        if axis not in (1, 2):
            raise ValueError(f"axis must be 1 or 2, got {axis!r}")
        value = Fraction(value)
        if value < 0:
            raise ValueError(f"fixed coordinate must be non-negative, got {value}")
        c = self.bounds.caps if axis == 2 else _mirror(self.bounds.caps)
        if 6 * value > _reach(c):
            return None
        return Fraction(_slice(c, 6 * value), 12)
