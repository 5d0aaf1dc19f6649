"""Exact rational 2-D polytope engine for rate regions.

Its only job is vertices: the corners ``ldic region`` prints and the public
geometry API reads. The metrics read a bound set's caps instead.

Regions are intersections of half-planes with small integer coefficients.
Vertices are enumerated by intersecting every pair of constraint lines and
keeping the feasible intersections; for constraint sets of the canonical
form this candidate set is exactly the vertex set, so no floating point or
tolerance enters anywhere. With at most seven constraints the cubic cost of
the pairwise scan is irrelevant.

The scan runs in plain integers. Two lines cross at (n1/det, n2/det) with
integer numerators; negating all three when det < 0 makes det positive, and
multiplying a constraint a*r1 + b*r2 <= rhs by a positive det keeps its
direction, so a crossing is feasible exactly when a*n1 + b*n2 <= rhs*det
holds for every constraint.

Every constraint has one of the canonical coefficient pairs (1, 0), (0, 1),
(1, 1), (2, 1), (1, 2), (-1, 0), (0, -1), so a crossing's det is 1, 2 or 3
up to sign, and every vertex lies in (1/6)Z. A feasible crossing is
therefore kept as the integer pair (6*n1/det, 6*n2/det), which is exact and
a unique key for the point. The scaled pairs are what a region stores, as
``scaled``; the Fraction vertices are derived from them on first read.

The canonical upper bounds all have non-negative coefficients, so a region
is down-closed: its corners are (R1max, 0), the upper boundary with r1
falling and r2 rising, (0, R2max) and the origin. Counter-clockwise order is
therefore a plain sort on (-r1, r2) with the origin moved to the end. That
order is fixed and the corners are exact and distinct, so two regions are
equal exactly when their vertex tuples are.
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
    """A rate region with its inequality description and enumerated vertices.

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
        rows = [(c.r1_coeff, c.r2_coeff, c.rhs) for c in bounds.constraints]
        corners = set()
        for i, (a1, a2, a_rhs) in enumerate(rows):
            for b1, b2, b_rhs in rows[i + 1:]:
                det = a1 * b2 - a2 * b1
                if det == 0:
                    continue
                n1 = a_rhs * b2 - b_rhs * a2
                n2 = a1 * b_rhs - b1 * a_rhs
                if det < 0:
                    det, n1, n2 = -det, -n1, -n2
                if all(c1 * n1 + c2 * n2 <= rhs * det for c1, c2, rhs in rows):
                    # det is 1, 2 or 3, a divisor of SCALE: the division is exact
                    corners.add((n1 * SCALE // det, n2 * SCALE // det))

        # This sort is counter-clockwise only because every canonical form has
        # non-negative coefficients: the region is down-closed, the origin a vertex.
        scaled = sorted(corners, key=lambda v: (-v[0], v[1]))
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
        the reverse. Returns None when the slice misses the region. Each
        constraint caps the free coordinate; times 2*den that cap is an int.
        """
        if axis not in (1, 2):
            raise ValueError(f"axis must be 1 or 2, got {axis!r}")
        value = Fraction(value)
        if value < 0:
            raise ValueError(f"fixed coordinate must be non-negative, got {value}")
        num, den = value.numerator, value.denominator

        best = None
        for c in self.bounds.constraints:
            if axis == 2:
                free_coeff, fixed_coeff = c.r1_coeff, c.r2_coeff
            else:
                free_coeff, fixed_coeff = c.r2_coeff, c.r1_coeff
            residual = c.rhs * den - fixed_coeff * num  # den times (rhs - fixed_coeff*value)
            if free_coeff > 0:
                cap = 2 * residual // free_coeff  # exact: free_coeff is 1 or 2
                if best is None or cap < best:
                    best = cap
            elif free_coeff == 0 and residual < 0:
                return None
            # free_coeff < 0 is the non-negativity floor, folded into best < 0 below
        if best is None or best < 0:
            return None
        return Fraction(best, 2 * den)
