"""Machine-readable document builders and their inverse parsers.

Every rational value is serialized twice: an exact lowest-terms
"numerator/denominator" string, and a 6-decimal approximation in a parallel
``*_decimal`` field for spreadsheet convenience; the parsers require the
two to agree. Messages and estimates are
already 0/1 text and are embedded as they are; the simulator's int vectors
(trace fields) become q-digit 0/1 strings, the most significant level first.
Golden files therefore never contain binary floating point.

CSV rows are the JSON rows, flattened: each CSV writer takes the same row
dicts its JSON document embeds, and leaves the columns a row lacks empty.
"""

from __future__ import annotations

import io
import itertools
import json
from dataclasses import fields
from fractions import Fraction

from .bounds import CANONICAL_FORMS, Bound, BoundSet
from .metrics import MetricSurface, MetricsResult
from .params import ChannelParams
from .polytope import RatePoint, RatePolytope
from .sim import SessionResult, SimConfig

SCHEMA_VERSION = "1"


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


def _rational_fields(name: str, value) -> dict:
    return {name: format_rational(value), f"{name}_decimal": format_decimal(value)}


_PARAMS_FIELDS = tuple(field.name for field in fields(ChannelParams))


def params_payload(params: ChannelParams) -> dict:
    return {name: getattr(params, name) for name in _PARAMS_FIELDS}


def _document(params: ChannelParams, key: str, payload) -> dict:
    return {"schema_version": SCHEMA_VERSION, "params": params_payload(params), key: payload}


def _region_rows(poly: RatePolytope):
    bounds = [
        {
            "r1_coeff": c.r1_coeff,
            "r2_coeff": c.r2_coeff,
            "rhs": c.rhs,
            "source": c.source.value if c.source is not None else None,
        }
        for c in poly.bounds.constraints
    ]
    vertices = [
        {**_rational_fields("r1", v.r1), **_rational_fields("r2", v.r2)}
        for v in poly.vertices
    ]
    return bounds, vertices


def region_document(params: ChannelParams, poly: RatePolytope) -> dict:
    bounds, vertices = _region_rows(poly)
    return _document(params, "region", {"bounds": bounds, "vertices": vertices})


def _load(document, key: str) -> tuple:
    """(params, payload) of a document given as a dict or JSON text.

    Raises ValueError for a document that is not a JSON object, another
    schema version, a missing ``params`` or ``key`` entry, or params other
    than the six exponents.
    """
    if isinstance(document, str):
        document = json.loads(document)
    if not isinstance(document, dict):
        raise ValueError(f"document is a {type(document).__name__}, not an object")
    if document.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {document.get('schema_version')!r}")
    for name in ("params", key):
        if name not in document:
            raise ValueError(f"document has no {name!r} entry")
    exponents = document["params"]
    if not isinstance(exponents, dict) or set(exponents) != set(_PARAMS_FIELDS):
        raise ValueError(f"params {exponents!r} are not the fields {list(_PARAMS_FIELDS)}")
    return ChannelParams(**exponents), document[key]


def _entry(row: dict, name: str, kind: type):
    """row[name], which must be exactly a ``kind`` (so a bool is not an int)."""
    value = row[name]
    if type(value) is not kind:
        raise ValueError(f"{name} is {value!r}, not a {kind.__name__}")
    return value


def _rational(row: dict, name: str) -> Fraction:
    """The "p/q" text row[name] as a Fraction; row[name + "_decimal"] must be its decimal text."""
    value = Fraction(_entry(row, name, str))
    decimal = format_decimal(value)
    if row[f"{name}_decimal"] != decimal:
        raise ValueError(f"{name}_decimal is {row[f'{name}_decimal']!r}, not {decimal!r}")
    return value


# The forms of a region document's bound rows: the caps, then non-negativity.
_ROW_FORMS = CANONICAL_FORMS + ((-1, 0), (0, -1))


def _bound_set(rows: list) -> BoundSet:
    """The bound set a document's bound rows spell out; ValueError for any other rows."""
    for row in rows:
        for name in ("r1_coeff", "r2_coeff", "rhs"):
            _entry(row, name, int)
    forms = tuple((row["r1_coeff"], row["r2_coeff"]) for row in rows)
    if forms != _ROW_FORMS:
        raise ValueError(f"bound rows have forms {forms}, expected {_ROW_FORMS}")
    if any(row["rhs"] != 0 or row["source"] is not None for row in rows[5:]):
        raise ValueError("a non-negativity row has a non-zero rhs or a source")
    caps = rows[:5]
    return BoundSet(tuple(row["rhs"] for row in caps),
                    tuple(None if row["source"] is None else Bound(row["source"]) for row in caps))


def parse_region_document(document):
    """Exact inverse of region_document; accepts a dict or JSON text.

    Returns (params, bound set, vertices). The bound rows must be the five
    canonical forms in order, then the two non-negativity rows, all with
    integer coefficients and rhs; anything else, like any other malformed
    document, raises ValueError.
    """
    params, region = _load(document, "region")
    try:
        vertices = tuple(RatePoint(_rational(row, "r1"), _rational(row, "r2"))
                         for row in region["vertices"])
        bounds = _bound_set(region["bounds"])
    except (KeyError, TypeError, ZeroDivisionError) as exc:  # missing, wrong type, "p/0"
        raise ValueError(f"malformed region entry: {exc!r}") from exc
    return params, bounds, vertices


REGION_CSV_COLUMNS = (
    "kind", "r1_coeff", "r2_coeff", "rhs", "source", "r1", "r1_decimal", "r2", "r2_decimal",
)


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
    rows = [{"kind": "bound", **row} for row in bounds]
    rows += [{"kind": "vertex", **row} for row in vertices]
    return _csv(REGION_CSV_COLUMNS, rows)


def _metrics_fields(result: MetricsResult) -> dict:
    fields = {}
    fields.update(_rational_fields("delta1", result.delta1))
    fields.update(_rational_fields("delta2", result.delta2))
    fields.update(_rational_fields("sigma", result.sigma))
    return fields


def metrics_document(params: ChannelParams, result: MetricsResult, thresholds, useless: bool) -> dict:
    payload = _metrics_fields(result)
    payload["thresholds"] = [
        {"link": t.link, "threshold": t.threshold, "saturation": t.saturation}
        for t in thresholds
    ]
    payload["feedback_useless"] = useless
    return _document(params, "metrics", payload)


def _surface_rows(surface: MetricSurface):
    # format each entry of the term-pair table once; rows run fb11-major, fb22-minor
    table = [[_metrics_fields(result) for result in row] for row in surface.results]
    return [{"fb11": fb11, "fb22": fb22, **table[i][j]}
            for fb11, i in enumerate(surface.index1) for fb22, j in enumerate(surface.index2)]


def surface_document(params: ChannelParams, surface: MetricSurface) -> dict:
    return _document(params, "surface", {"cells": _surface_rows(surface)})


def parse_surface_document(document):
    """Exact inverse of surface_document; accepts a dict or JSON text.

    Returns (params, cells) with cells mapping (fb11, fb22) to MetricsResult.
    The cells must be the (S1+1) x (S2+1) saturation grid of the params, each
    pair once, fb11-major and fb22-minor; a document whose cells are not, like
    any other malformed document, raises ValueError.
    """
    params, surface = _load(document, "surface")
    try:
        rows = surface["cells"]
        cells = {
            (_entry(row, "fb11", int), _entry(row, "fb22", int)): MetricsResult(
                *(_rational(row, name) for name in ("delta1", "delta2", "sigma"))
            )
            for row in rows
        }
    except (KeyError, TypeError, ZeroDivisionError) as exc:  # missing, wrong type, "p/0"
        raise ValueError(f"malformed surface entry: {exc!r}") from exc
    n1, n2 = params.feedback_saturation(1) + 1, params.feedback_saturation(2) + 1
    # the count is checked first, so a short document never builds a large grid
    if len(rows) != n1 * n2 or list(cells) != list(itertools.product(range(n1), range(n2))):
        raise ValueError("surface cells are not the feedback grid, each pair once, fb11-major")
    return params, cells


SWEEP_CSV_COLUMNS = (
    "fb11", "fb22",
    "delta1", "delta1_decimal", "delta2", "delta2_decimal", "sigma", "sigma_decimal",
)


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
    payload = {
        "scheme": scheme_name,
        "delay": cfg.delay,
        "block_length": cfg.block_length,
        "q": cfg.q,
        "seed": seed,
        "message_lengths": [m1, m2],
        **_rational_fields("rate1", Fraction(m1, cfg.block_length)),
        **_rational_fields("rate2", Fraction(m2, cfg.block_length)),
        **_rational_fields("p1", result.p1),
        **_rational_fields("p2", result.p2),
        "messages": list(result.messages),
        "estimates": list(result.estimates),
    }
    if include_trace:
        spec = f"0{cfg.q}b"
        payload["trace"] = [
            {
                "x1": format(step.x1, spec),
                "x2": format(step.x2, spec),
                "y1": format(step.y1, spec),
                "y2": format(step.y2, spec),
                "fb1": format(step.fb1, spec),
                "fb2": format(step.fb2, spec),
            }
            for step in result.trace
        ]
    return _document(cfg.params, "session", payload)
