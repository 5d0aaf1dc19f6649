"""Shared brute-force oracles for the test suite.

Everything here recomputes results through a different route than the
library: slice caps straight from raw coefficient triples or from edge
crossings of the vertex list, membership by vectorized integer-grid
evaluation or by exact evaluation of the raw inequalities, and polygon
membership from the vertex list alone. The threshold and vertex oracles
take the direct route: a linear scan over feedback levels, and a pairwise
line scan in Fraction arithmetic. Grids use step 1/6 (or 1/12), so scaling
coordinates by 6 (or 12) turns every test into exact int64 arithmetic. The
endpoint oracles give the regions at zero and at perfect feedback from
published closed forms, without the formulas of `ldic.bounds`. The
simulator oracle keeps every signal as a tuple of bits, level 0 first, and
moves it bit by bit; the message oracle draws one `randrange(2)` per bit.
Neither imports `ldic.sim`. The CSV oracle writes rows through
`csv.DictWriter`.
"""

import csv
import io
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np

from ldic import ChannelParams, capacity_region, derive_variant

GRID_SCALE = 6  # step 1/6


def raw_constraints(bound_set):
    return tuple((c.r1_coeff, c.r2_coeff, c.rhs) for c in bound_set.constraints)


def contains(region, point):
    """Exact membership of a rate pair, boundary inclusive, straight from the inequalities."""
    return all(a * point.r1 + b * point.r2 <= rhs for a, b, rhs in raw_constraints(region.bounds))


def subset_of(inner, outer):
    """True iff one region lies inside the other: both are convex, so check inner's vertices."""
    return all(contains(outer, v) for v in inner.vertices)


def slice_cap(raw, axis, value):
    """Largest free coordinate on the slice, straight from the inequalities."""
    value = Fraction(value)
    best = None
    for a, b, rhs in raw:
        coeff, residual = (a, rhs - b * value) if axis == 2 else (b, rhs - a * value)
        if coeff > 0:
            cap = Fraction(residual, coeff)
            best = cap if best is None or cap < best else best
        elif coeff == 0 and residual < 0:
            return None
    if best is None or best < 0:
        return None
    return best


def vertex_slice(vertices, axis, value):
    """Largest free coordinate on the slice, from the vertex list alone.

    The slice of a convex polygon is a segment whose ends lie on its edges,
    so the answer is the largest edge crossing at the fixed value; a single
    vertex is its own (zero-length) edge. None when no edge reaches it.
    """
    fixed, free = (0, 1) if axis == 1 else (1, 0)
    pts = [(v.r1, v.r2) for v in vertices]
    best = None
    for p, q in zip(pts, pts[1:] + pts[:1]):
        lo, hi = sorted((p[fixed], q[fixed]))
        if not lo <= value <= hi:
            continue
        if p[fixed] == q[fixed]:
            crossing = max(p[free], q[free])
        else:
            crossing = p[free] + (q[free] - p[free]) * (value - p[fixed]) / (q[fixed] - p[fixed])
        best = crossing if best is None or crossing > best else best
    return best


def vertex_delta(region, base, user):
    """Largest slice gain for one user, each slice read off a vertex list.

    Both slice functions are concave piecewise-linear in the fixed
    coordinate, so their difference peaks at a vertex coordinate of either
    region, at 0 or at the smaller region's reach.
    """
    axis = 3 - user
    pick = (lambda v: v.r2) if axis == 2 else (lambda v: v.r1)
    end = min(max(map(pick, region.vertices)), max(map(pick, base.vertices)))
    samples = {Fraction(0), end}
    samples.update(x for x in map(pick, region.vertices + base.vertices) if x <= end)
    return max(
        vertex_slice(region.vertices, axis, x) - vertex_slice(base.vertices, axis, x)
        for x in samples
    )


def _pos(x):
    return max(x, 0)


def bresler_tse_caps(params):
    """The five caps of the no-feedback region, from Bresler and Tse's deterministic IC.

    G. Bresler and D. Tse, "The two-user Gaussian interference channel: a
    deterministic view", Eur. Trans. Telecomm., 2008. Feedback levels of
    ``params`` are ignored.
    """
    n11, n22, a, b = params.fwd11, params.fwd22, params.inr12, params.inr21
    sum_cap = min(
        max(n11, a) + _pos(n22 - a),
        max(n22, b) + _pos(n11 - b),
        max(_pos(n11 - b), a) + max(_pos(n22 - a), b),
    )
    return (
        n11,
        n22,
        sum_cap,
        max(n11, a) + _pos(n11 - b) + max(_pos(n22 - a), b),
        max(n22, b) + _pos(n22 - a) + max(_pos(n11 - b), a),
    )


def suh_tse_caps(params):
    """The five caps of the perfect-feedback region, from Suh and Tse.

    C. Suh and D. Tse, "Feedback capacity of the Gaussian interference
    channel to within 2 bits", IEEE Trans. IT, 2011. The region has no
    weighted bounds, so its weighted caps are the ones the individual caps
    imply. Feedback levels of ``params`` are ignored.
    """
    n11, n22, a, b = params.fwd11, params.fwd22, params.inr12, params.inr21
    r1 = min(max(n11, b), max(n11, a))
    r2 = min(max(n22, a), max(n22, b))
    sum_cap = min(max(n22, a) + _pos(n11 - a), max(n11, b) + _pos(n22 - b))
    return r1, r2, sum_cap, 2 * r1 + r2, r1 + 2 * r2


def scaled_grid(r1_cap, r2_cap):
    s1 = np.arange(0, GRID_SCALE * r1_cap + 1, dtype=np.int64)
    s2 = np.arange(0, GRID_SCALE * r2_cap + 1, dtype=np.int64)
    return s1[:, None], s2[None, :]


def constraint_mask(raw, s1, s2):
    """Feasibility of every grid point by direct inequality evaluation."""
    mask = np.ones((s1.shape[0], s2.shape[1]), dtype=bool)
    for a, b, rhs in raw:
        mask &= a * s1 + b * s2 <= GRID_SCALE * rhs
    return mask


def _scaled_vertices(vertices):
    pts = []
    for v in vertices:
        x, y = GRID_SCALE * v.r1, GRID_SCALE * v.r2
        assert x.denominator == 1 and y.denominator == 1, "vertex off the 1/6 grid"
        pts.append((int(x), int(y)))
    return pts


def polygon_mask(vertices, s1, s2):
    """Membership of every grid point using only the vertex list.

    The vertices arrive in counter-clockwise order, so a point is inside
    iff it sits on the left of (or on) every directed edge. Degenerate
    regions reduce to point equality or an on-segment test.
    """
    pts = _scaled_vertices(vertices)
    if len(pts) == 1:
        (x, y), = pts
        return (s1 == x) & (s2 == y)
    if len(pts) == 2:
        (px, py), (qx, qy) = pts
        cross = (qx - px) * (s2 - py) - (qy - py) * (s1 - px)
        dot = (s1 - px) * (qx - px) + (s2 - py) * (qy - py)
        length_sq = (qx - px) ** 2 + (qy - py) ** 2
        return (cross == 0) & (dot >= 0) & (dot <= length_sq)
    mask = np.ones((s1.shape[0], s2.shape[1]), dtype=bool)
    for (px, py), (qx, qy) in zip(pts, pts[1:] + pts[:1]):
        mask &= (qx - px) * (s2 - py) - (qy - py) * (s1 - px) >= 0
    return mask


def delta_grid_oracle(region, base, user, step=Fraction(1, 12)):
    """Brute-force slice-difference maximum over a dense grid plus breakpoints."""
    axis = 3 - user
    pick = (lambda v: v.r2) if axis == 2 else (lambda v: v.r1)
    cap = min(max(map(pick, region.vertices)), max(map(pick, base.vertices)))
    samples = {Fraction(0), cap}
    ticks = int(cap / step)
    samples.update(k * step for k in range(ticks + 1))
    for v in region.vertices + base.vertices:
        if 0 <= pick(v) <= cap:
            samples.add(pick(v))
    raw_region = raw_constraints(region.bounds)
    raw_base = raw_constraints(base.bounds)
    best = Fraction(0)
    for value in samples:
        gain = slice_cap(raw_region, axis, value) - slice_cap(raw_base, axis, value)
        if gain > best:
            best = gain
    return best


def random_params(rng, limit, feedback=True):
    return ChannelParams(
        fwd11=rng.randint(0, limit),
        fwd22=rng.randint(0, limit),
        inr12=rng.randint(0, limit),
        inr21=rng.randint(0, limit),
        fb11=rng.randint(0, limit) if feedback else 0,
        fb22=rng.randint(0, limit) if feedback else 0,
    )


def linear_threshold(params, link):
    """Feedback threshold by scanning every level of one link upward (other link at zero).

    None when no level up to the link's saturation moves the region.
    """
    base_params = derive_variant(params, "no_feedback")
    base = capacity_region(base_params)
    field = "fb11" if link == 1 else "fb22"
    for level in range(1, params.feedback_saturation(link) + 1):
        if not capacity_region(replace(base_params, **{field: level})).equals_region(base):
            return level - 1
    return None


def pairwise_vertices(raw):
    """Vertex tuple of a canonical region from raw (a, b, rhs) triples, in Fractions.

    Every pair of non-parallel lines is crossed, each crossing is kept if it
    satisfies every inequality, and the corners are put in the library's
    counter-clockwise order: descending r1, ascending r2, origin last.
    """
    corners = set()
    for i, (a1, a2, a_rhs) in enumerate(raw):
        for b1, b2, b_rhs in raw[i + 1:]:
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            r1 = Fraction(a_rhs * b2 - b_rhs * a2, det)
            r2 = Fraction(a1 * b_rhs - b1 * a_rhs, det)
            if all(a * r1 + b * r2 <= rhs for a, b, rhs in raw):
                corners.add((r1, r2))
    ordered = sorted(corners, key=lambda v: (-v[0], v[1]))
    if len(ordered) > 2:
        ordered.remove((0, 0))
        ordered.append((Fraction(0), Fraction(0)))
    return tuple(ordered)


def reference_draw(lengths, seed):
    """Message bits drawn one randrange(2) call per bit."""
    rng = random.Random(seed)
    return tuple(tuple(rng.randrange(2) for _ in range(m)) for m in lengths)


def _shift(v, k):
    """Down-shift of a bit tuple by k levels, zero-filling the top."""
    q = len(v)
    return (0,) * min(k, q) + v[: max(q - k, 0)]


def _xor(a, b):
    return tuple(x ^ y for x, y in zip(a, b))


def reference_session(params, delay, block_length, encoders, decoders, messages):
    """One session of the LD channel on bit tuples.

    encoders: (message, feedback_tuples) -> q-bit tuple; decoders:
    (output_tuples) -> estimate tuple. Returns (trace, estimates, p1, p2),
    with trace a list of (x1, x2, y1, y2, fb1, fb2) bit tuples.
    """
    q = max(params.fwd11, params.fwd22, params.inr12, params.inr21)
    zero = (0,) * q
    outputs = ([], [])
    feedback = ([], [])
    trace = []
    for n in range(block_length):
        x1 = tuple(encoders[0](messages[0], tuple(feedback[0])))
        x2 = tuple(encoders[1](messages[1], tuple(feedback[1])))
        assert len(x1) == len(x2) == q
        y1 = _xor(_shift(x1, q - params.fwd11), _shift(x2, q - params.inr12))
        y2 = _xor(_shift(x2, q - params.fwd22), _shift(x1, q - params.inr21))
        outputs[0].append(y1)
        outputs[1].append(y2)
        if n >= delay:
            fb1 = _shift(outputs[0][n - delay], max(q - params.fb11, 0))
            fb2 = _shift(outputs[1][n - delay], max(q - params.fb22, 0))
        else:
            fb1 = fb2 = zero
        feedback[0].append(fb1)
        feedback[1].append(fb2)
        trace.append((x1, x2, y1, y2, fb1, fb2))
    estimates = tuple(tuple(decode(tuple(ys))) for decode, ys in zip(decoders, outputs))
    rates = tuple(
        Fraction(sum(a != b for a, b in zip(sent, est)), len(sent)) if sent else Fraction(0)
        for sent, est in zip(messages, estimates)
    )
    return trace, estimates, rates[0], rates[1]


def reference_scheme(name, params, block_length):
    """Message lengths, encoders and decoders of a bundled scheme, on bit tuples."""
    q = max(params.fwd11, params.fwd22, params.inr12, params.inr21)
    rates = (params.fwd11, params.fwd22)

    def top(bits):
        return tuple(bits) + (0,) * (q - len(bits))

    def window(y, rate):
        return y[q - rate:] if rate else ()

    if name == "point-to-point":
        lengths = tuple(rate * block_length for rate in rates)

        def encoder(rate):
            return lambda message, feedback: top(
                message[len(feedback) * rate:(len(feedback) + 1) * rate]
            )

        def decoder(rate):
            return lambda outputs: tuple(b for y in outputs for b in window(y, rate))
    elif name == "echo":
        lengths = rates

        def encoder(rate):
            return lambda message, feedback: feedback[-1] if feedback else top(message[:rate])

        def decoder(rate):
            return lambda outputs: tuple(window(outputs[0], rate))
    else:
        raise ValueError(name)
    return lengths, tuple(map(encoder, rates)), tuple(map(decoder, rates))


def reference_csv(columns, rows):
    """CSV text of rows through csv.DictWriter, a column a row lacks left empty."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, columns, restval="", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()
