"""Machine-readable document builders and their inverse parsers.

Every row type is declared once, as a table of (field, kind) pairs: a
channel's params, a region's bound and vertex rows, the metrics and their
per-link thresholds, a surface cell, a session header and a trace step. A
kind is the tuple of Python types its JSON value may have (``_INT``,
``_OPT_INT``, ``_STR``, ``_OPT_STR``, ``_BOOL``, ``_LIST``), or
``_RATIONAL``. The one row writer ``_row``, the CSV headers and the one
strict row reader ``_read_row`` all read these tables, and no other code
here names a field.

A rational is written twice: an exact lowest-terms "numerator/denominator"
string in ``name``, and a 6-decimal approximation in ``name_decimal`` for
spreadsheet convenience. The reader accepts exactly those two texts, so
"10/2", "5", "+5/1" or a decimal that rounds another value are refused.
Messages and estimates are already 0/1 text and are embedded as they are;
the simulator's int vectors (trace fields) become q-digit 0/1 strings, the
most significant level first. Golden files therefore never contain binary
floating point.

CSV rows are the JSON rows, flattened: each CSV writer takes the same row
dicts its JSON document embeds, and leaves the columns a row lacks empty.

Each ``parse_*_document`` inverts its builder: ``metrics_document`` and
``session_document`` rebuild a document from the parsed tuple, and
``region_document`` and ``surface_document`` from the polytope
(``RatePolytope.from_bounds``) or surface (``sweep``) that the parsed bound
set or params determine.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
from dataclasses import fields
from fractions import Fraction

from .bounds import CANONICAL_FORMS, NONNEGATIVITY, Bound, BoundSet
from .metrics import MetricSurface, MetricsResult, ThresholdReport
from .params import ChannelParams
from .polytope import RatePoint, RatePolytope
from .sim import SessionResult, SimConfig, TraceStep, _bit_error_rate, _is_bits

SCHEMA_VERSION = "1"

_INT, _OPT_INT, _STR, _OPT_STR = (int,), (int, type(None)), (str,), (str, type(None))
_BOOL, _LIST, _RATIONAL = (bool,), (list,), (Fraction,)

_PARAMS = tuple((field.name, _INT) for field in fields(ChannelParams))
_REGION = (("bounds", _LIST), ("vertices", _LIST))
_BOUND = (("r1_coeff", _INT), ("r2_coeff", _INT), ("rhs", _INT), ("source", _OPT_STR))
_VERTEX = (("r1", _RATIONAL), ("r2", _RATIONAL))
_METRICS = (("delta1", _RATIONAL), ("delta2", _RATIONAL), ("sigma", _RATIONAL))
_METRICS_PAYLOAD = _METRICS + (("thresholds", _LIST), ("feedback_useless", _BOOL))
_THRESHOLD = (("link", _INT), ("threshold", _OPT_INT), ("saturation", _INT))
_SURFACE = (("cells", _LIST),)
_CELL = (("fb11", _INT), ("fb22", _INT)) + _METRICS
_SESSION = (
    ("scheme", _STR), ("delay", _INT), ("block_length", _INT), ("q", _INT), ("seed", _INT),
    ("message_lengths", _LIST), ("rate1", _RATIONAL), ("rate2", _RATIONAL),
    ("p1", _RATIONAL), ("p2", _RATIONAL), ("messages", _LIST), ("estimates", _LIST),
)
_TRACE = (("trace", _LIST),)  # optional, after the session row
_STEP = tuple((name, _STR) for name in ("x1", "x2", "y1", "y2", "fb1", "fb2"))


def format_rational(value) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def format_decimal(value) -> str:
    value = value if isinstance(value, (int, Fraction)) else Fraction(value)
    scaled, rest = divmod(value.numerator * 10**6, value.denominator)
    if 2 * rest > value.denominator or (2 * rest == value.denominator and scaled % 2):
        scaled += 1  # round half to even, as round() does
    sign = "-" if scaled < 0 else ""
    return f"{sign}{abs(scaled) // 10**6}.{abs(scaled) % 10**6:06d}"


@functools.cache
def _columns(table) -> tuple:
    """The keys of a table's rows, in order: a rational adds ``name_decimal``."""
    return tuple(key for name, kind in table
                 for key in ((name, f"{name}_decimal") if kind is _RATIONAL else (name,)))


def _row(table, values) -> dict:
    """The row of table holding values, given in table order."""
    row = {}
    for (name, kind), value in zip(table, values):
        if kind is _RATIONAL:
            row[name], row[f"{name}_decimal"] = format_rational(value), format_decimal(value)
        else:
            row[name] = value
    return row


def _values(table, obj) -> list:
    """The attributes of obj named as the table's fields, in table order."""
    return [getattr(obj, name) for name, _ in table]


def _read_row(table, row) -> list:
    """The values, in table order, that ``_row(table, values)`` wrote into row.

    Raises ValueError unless row holds exactly the table's keys, each value
    exactly its kind's JSON type (so a bool is not an int), and each rational
    exactly the two texts ``_row`` writes for it.
    """
    if type(row) is not dict or set(row) != set(_columns(table)):
        raise ValueError(f"a row is not an object with the keys {list(_columns(table))}")
    values = []
    for name, kind in table:
        value, types = row[name], _STR if kind is _RATIONAL else kind
        if type(value) not in types:
            raise ValueError(f"{name} is {value!r}, not a {'/'.join(t.__name__ for t in types)}")
        if kind is _RATIONAL:
            text, value = (value, row[f"{name}_decimal"]), Fraction(value)
            if text != (format_rational(value), format_decimal(value)):
                raise ValueError(f"{name}, {name}_decimal {text} are not the texts of one rational")
        values.append(value)
    return values


def _document(params: ChannelParams, key: str, payload) -> dict:
    return {"schema_version": SCHEMA_VERSION, "params": _row(_PARAMS, _values(_PARAMS, params)),
            key: payload}


def _parse(document, key: str, read):
    """read(params, payload) of a document given as a dict or JSON text.

    Raises ValueError for a document that is not a JSON object, another
    schema version, a missing ``params`` or ``key`` entry, params other than
    the six exponents, or anything ``read`` refuses.
    """
    if isinstance(document, str):
        document = json.loads(document)
    if not isinstance(document, dict):
        raise ValueError(f"document is a {type(document).__name__}, not an object")
    if document.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {document.get('schema_version')!r}")
    try:
        return read(ChannelParams(*_read_row(_PARAMS, document["params"])), document[key])
    except (KeyError, TypeError, ZeroDivisionError) as exc:  # missing, wrong type, "p/0"
        raise ValueError(f"malformed {key} document: {exc!r}") from exc


def _region_rows(poly: RatePolytope):
    bounds = [_row(_BOUND, (c.r1_coeff, c.r2_coeff, c.rhs, getattr(c.source, "value", None)))
              for c in poly.bounds.constraints]
    return bounds, [_row(_VERTEX, v) for v in poly.vertices]


def region_document(params: ChannelParams, poly: RatePolytope) -> dict:
    return _document(params, "region", _row(_REGION, _region_rows(poly)))


def _read_region(params: ChannelParams, region) -> tuple:
    bounds, vertices = _read_row(_REGION, region)
    rows = [_read_row(_BOUND, row) for row in bounds]
    # the five caps in CANONICAL_FORMS order, then exactly the two non-negativity rows
    if (tuple((a, b) for a, b, _, _ in rows[:5]) != CANONICAL_FORMS
            or rows[5:] != [_values(_BOUND, c) for c in NONNEGATIVITY]):
        raise ValueError("bound rows are not the five caps in order, then non-negativity")
    bound_set = BoundSet(tuple(row[2] for row in rows[:5]),
                         tuple(None if row[3] is None else Bound(row[3]) for row in rows[:5]))
    return params, bound_set, tuple(RatePoint(*_read_row(_VERTEX, row)) for row in vertices)


def parse_region_document(document):
    """Exact inverse of region_document; accepts a dict or JSON text.

    Returns (params, bound set, vertices). The bound rows must be the five
    canonical forms in order, then the two non-negativity rows, all with
    integer coefficients and rhs; anything else, like any other malformed
    document, raises ValueError.
    """
    return _parse(document, "region", _read_region)


REGION_CSV_COLUMNS = ("kind",) + _columns(_BOUND + _VERTEX)


def _csv(columns, rows) -> str:
    """The rows under a header of columns; a column a row lacks, or a None, is empty.

    No field is quoted, so one holding a comma, a quote or a line break raises
    ValueError instead.
    """
    buffer = io.StringIO()
    buffer.write(",".join(columns) + "\n")
    for row in rows:
        buffer.write(",".join(["" if (v := row.get(c)) is None else str(v) for c in columns])
                     + "\n")
    text = buffer.getvalue()
    lines = len(rows) + 1
    if ('"' in text or "\r" in text or text.count("\n") != lines
            or text.count(",") != lines * (len(columns) - 1)):
        raise ValueError("a CSV field holds a comma, a quote or a line break")
    return text


def region_csv(poly: RatePolytope) -> str:
    bounds, vertices = _region_rows(poly)
    kind = REGION_CSV_COLUMNS[0]
    rows = [{kind: "bound", **b} for b in bounds] + [{kind: "vertex", **v} for v in vertices]
    return _csv(REGION_CSV_COLUMNS, rows)


def metrics_document(params: ChannelParams, result: MetricsResult, thresholds, useless: bool) -> dict:
    rows = [_row(_THRESHOLD, _values(_THRESHOLD, t)) for t in thresholds]
    values = (*_values(_METRICS, result), rows, useless)
    return _document(params, "metrics", _row(_METRICS_PAYLOAD, values))


def _read_metrics(params: ChannelParams, payload) -> tuple:
    *values, rows, useless = _read_row(_METRICS_PAYLOAD, payload)
    thresholds = tuple(ThresholdReport(*_read_row(_THRESHOLD, row)) for row in rows)
    expected = [(1, params.feedback_saturation(1)), (2, params.feedback_saturation(2))]
    if [(t.link, t.saturation) for t in thresholds] != expected:
        raise ValueError(f"thresholds are not links 1 and 2 at saturations {expected}")
    return params, MetricsResult(*values), thresholds, useless


def parse_metrics_document(document):
    """Exact inverse of metrics_document; accepts a dict or JSON text.

    Returns (params, MetricsResult, thresholds, useless). The thresholds must
    be links 1 and 2, in that order, each at its saturation in the params;
    anything else, like any other malformed document, raises ValueError.
    """
    return _parse(document, "metrics", _read_metrics)


def _surface_rows(surface: MetricSurface):
    # format each entry of the term-pair table once; rows run fb11-major, fb22-minor
    table = [[_row(_METRICS, _values(_METRICS, r)) for r in row] for row in surface.results]
    (k1, _), (k2, _) = _CELL[:2]
    return [{k1: fb11, k2: fb22, **table[i][j]}
            for fb11, i in enumerate(surface.index1) for fb22, j in enumerate(surface.index2)]


def surface_document(params: ChannelParams, surface: MetricSurface) -> dict:
    return _document(params, "surface", _row(_SURFACE, (_surface_rows(surface),)))


def _read_surface(params: ChannelParams, surface) -> tuple:
    rows, = _read_row(_SURFACE, surface)
    n1, n2 = params.feedback_saturation(1) + 1, params.feedback_saturation(2) + 1
    # the count is checked first, so a short document never builds a large grid
    if len(rows) == n1 * n2:
        cells = {(fb11, fb22): MetricsResult(*values)
                 for fb11, fb22, *values in (_read_row(_CELL, row) for row in rows)}
        if list(cells) == list(itertools.product(range(n1), range(n2))):
            return params, cells
    raise ValueError("surface cells are not the feedback grid, each pair once, fb11-major")


def parse_surface_document(document):
    """Exact inverse of surface_document; accepts a dict or JSON text.

    Returns (params, cells) with cells mapping (fb11, fb22) to MetricsResult.
    The cells must be the (S1+1) x (S2+1) saturation grid of the params, each
    pair once, fb11-major and fb22-minor; a document whose cells are not, like
    any other malformed document, raises ValueError.
    """
    return _parse(document, "surface", _read_surface)


SWEEP_CSV_COLUMNS = _columns(_CELL)


def sweep_csv(surface: MetricSurface) -> str:
    return _csv(SWEEP_CSV_COLUMNS, _surface_rows(surface))


def session_document(
    cfg: SimConfig,
    scheme_name: str,
    seed,
    result: SessionResult,
    include_trace: bool = False,
) -> dict:
    m1, m2 = result.message_lengths
    values = (
        scheme_name, cfg.delay, cfg.block_length, cfg.q, seed, [m1, m2],
        Fraction(m1, cfg.block_length), Fraction(m2, cfg.block_length), result.p1, result.p2,
        list(result.messages), list(result.estimates),
    )
    if include_trace:  # the trace entry closes the session row; without it, zip leaves it out
        spec, (k1, k2, k3, k4, k5, k6) = f"0{cfg.q}b", _columns(_STEP)
        values += ([{k1: format(x1, spec), k2: format(x2, spec), k3: format(y1, spec),
                     k4: format(y2, spec), k5: format(f1, spec), k6: format(f2, spec)}
                    for x1, x2, y1, y2, f1, f2 in result.trace],)  # dict(zip(...)) is ~40% slower
    return _document(cfg.params, "session", _row(_SESSION + _TRACE, values))


def _read_session(params: ChannelParams, payload) -> tuple:
    table = _SESSION + _TRACE if "trace" in payload else _SESSION
    (scheme, delay, block_length, q, seed, lengths, rate1, rate2, p1, p2, messages, estimates,
     *steps) = _read_row(table, payload)
    cfg = SimConfig(params, delay, block_length)
    (m1, m2), (e1, e2) = messages, estimates
    stated = (q, [(type(n), n) for n in lengths], [len(e1), len(e2)], rate1, rate2, p1, p2)
    derived = (cfg.q, [(int, len(m1)), (int, len(m2))], [len(m1), len(m2)],
               Fraction(len(m1), block_length), Fraction(len(m2), block_length),
               _bit_error_rate(m1, e1), _bit_error_rate(m2, e2))
    if not all(map(_is_bits, (m1, m2, e1, e2))) or stated != derived:
        raise ValueError("session fields disagree with the params, messages or estimates")
    trace = [_read_row(_STEP, row) for rows in steps for row in rows]
    if len(trace) not in (0, block_length) or not all(
            len(v) == q and _is_bits(v) for step in trace for v in step):
        raise ValueError(f"the trace is not {block_length} rows of {q}-digit 0/1 strings")
    trace = tuple(TraceStep(*(int(v, 2) for v in step)) for step in trace)
    return cfg, scheme, seed, SessionResult((m1, m2), (e1, e2), p1, p2, trace)


def parse_session_document(document):
    """Exact inverse of session_document; accepts a dict or JSON text.

    Returns (SimConfig, scheme name, seed, SessionResult), the result's trace
    empty when the document has none. q must be the params' signal
    dimension, each message length and rate those of its message, p1 and p2
    the error rates of the estimates, and the trace either absent, empty or
    block_length rows of q-digit 0/1 strings; anything else, like any other
    malformed document, raises ValueError. Channel uses are not recomputed.
    """
    return _parse(document, "session", _read_session)
