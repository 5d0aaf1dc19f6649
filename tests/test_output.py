import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import reference_csv
from ldic import (
    SCHEMES,
    ChannelParams,
    build_bounds,
    capacity_region,
    compute_metrics,
    derive_config,
    draw_messages,
    feedback_threshold,
    feedback_useless,
    run_scheme,
    sweep,
)
from ldic.params import MAX_EXPONENT
from ldic.polytope import RatePolytope
from ldic.output import (
    REGION_CSV_COLUMNS,
    SWEEP_CSV_COLUMNS,
    _csv,
    format_decimal,
    format_rational,
    metrics_document,
    parse_metrics_document,
    parse_region_document,
    parse_session_document,
    parse_surface_document,
    region_csv,
    region_document,
    session_document,
    surface_document,
    sweep_csv,
)


def test_rationals_are_always_slash_form():
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(7) == "7/1"
    assert format_rational(Fraction(4, 6)) == "2/3"
    assert format_rational(0) == "0/1"


def test_decimal_field_is_six_places():
    assert format_decimal(Fraction(3, 2)) == "1.500000"
    assert format_decimal(Fraction(1, 3)) == "0.333333"
    assert format_decimal(Fraction(2, 3)) == "0.666667"
    assert format_decimal(0) == "0.000000"
    assert format_decimal(Fraction(-3, 2)) == "-1.500000"


def _reference_decimal(value):
    scaled = round(Fraction(value) * 10**6)
    sign = "-" if scaled < 0 else ""
    return f"{sign}{abs(scaled) // 10**6}.{abs(scaled) % 10**6:06d}"


# k/(2*10**6) for odd k lies exactly halfway between two printed decimals.
_TIES = st.integers(-10**9, 10**9).map(lambda k: Fraction(2 * k + 1, 2 * 10**6))


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.fractions(), st.fractions(max_denominator=10**7), _TIES,
                 st.integers(), st.integers(-10, 10)))
def test_format_decimal_rounds_half_to_even_like_round(value):
    assert format_decimal(value) == _reference_decimal(value)


def test_format_decimal_ties_go_to_the_even_neighbour():
    assert format_decimal(Fraction(1, 2 * 10**6)) == "0.000000"
    assert format_decimal(Fraction(3, 2 * 10**6)) == "0.000002"
    assert format_decimal(Fraction(-1, 2 * 10**6)) == "0.000000"
    assert format_decimal(Fraction(-3, 2 * 10**6)) == "-0.000002"


def test_parse_rational_inverts_format():
    for value in (Fraction(3, 2), Fraction(0), Fraction(22, 7), Fraction(10)):
        assert Fraction(format_rational(value)) == value


def test_region_document_fields():
    params = ChannelParams(10, 9, 15, 9, 0, 0)
    doc = region_document(params, capacity_region(params))
    assert doc["schema_version"] == "1"
    assert set(doc["params"]) == {"fwd11", "fwd22", "inr12", "inr21", "fb11", "fb22"}
    for row in doc["region"]["bounds"]:
        assert set(row) == {"r1_coeff", "r2_coeff", "rhs", "source"}
    for row in doc["region"]["vertices"]:
        assert set(row) == {"r1", "r1_decimal", "r2", "r2_decimal"}


def test_parse_region_document_accepts_json_text():
    params = ChannelParams(5, 4, 3, 2, 1, 0)
    poly = capacity_region(params)
    text = json.dumps(region_document(params, poly))
    parsed_params, bounds, vertices = parse_region_document(text)
    assert parsed_params == params
    assert bounds == poly.bounds
    assert vertices == poly.vertices


def test_parse_region_document_rejects_unknown_schema():
    params = ChannelParams(1, 1, 0, 0)
    doc = region_document(params, capacity_region(params))
    doc["schema_version"] = "99"
    with pytest.raises(ValueError):
        parse_region_document(doc)


def _region_doc():
    params = ChannelParams(5, 4, 3, 2, 1, 0)
    return region_document(params, capacity_region(params))


def _with_rows(rows):
    doc = _region_doc()
    doc["region"]["bounds"] = rows
    return doc


def _with_rhs(index, rhs):
    doc = _region_doc()
    doc["region"]["bounds"][index]["rhs"] = rhs
    return doc


_ROWS = _region_doc()["region"]["bounds"]


@pytest.mark.parametrize("doc", [
    pytest.param(_with_rows([_ROWS[1], _ROWS[0]] + _ROWS[2:]), id="forms out of order"),
    pytest.param(_with_rows(_ROWS[:5] + _ROWS[6:]), id="six rows"),
    pytest.param(_with_rhs(2, -1), id="negative rhs"),
    pytest.param(_with_rhs(0, "5"), id="text rhs"),
    pytest.param(_with_rhs(0, 1.0), id="float rhs"),
    pytest.param(_with_rhs(0, True), id="bool rhs"),
    pytest.param(_with_rhs(5, 1), id="non-zero non-negativity rhs"),
])
def test_parse_region_document_refuses_malformed_bound_rows(doc):
    with pytest.raises(ValueError):
        parse_region_document(doc)


@settings(max_examples=150, deadline=None)
@given(st.tuples(*[st.one_of(st.integers(0, 12), st.integers(0, MAX_EXPONENT))] * 6),
       st.booleans())
def test_parse_region_document_inverts_region_document(exponents, as_text):
    # exponents reach the cap, with n12, n21 and both feedback levels drawn apart
    params = ChannelParams(*exponents)
    poly = capacity_region(params)
    document = region_document(params, poly)
    if as_text:
        document = json.dumps(document, indent=2)
    parsed_params, bounds, vertices = parse_region_document(document)
    assert parsed_params == params
    assert bounds == build_bounds(params)  # caps and sources
    assert vertices == poly.vertices
    assert region_document(parsed_params, RatePolytope.from_bounds(bounds)) == (
        region_document(params, poly))


def _surface_doc():
    params = ChannelParams(2, 1, 1, 0)
    return surface_document(params, sweep(params))


def _metrics_doc():
    params = ChannelParams(4, 3, 2, 1, 2, 1)
    thresholds = (feedback_threshold(params, 1), feedback_threshold(params, 2))
    return metrics_document(params, compute_metrics(params), thresholds, feedback_useless(params))


def _session_doc():
    # message lengths 12 and 9, rate1 "4/1", p1 "1/6", a three-row trace
    cfg = derive_config(ChannelParams(4, 3, 2, 1, 2, 1), delay=1, block_length=3)
    scheme = SCHEMES["point-to-point"]
    result = run_scheme(cfg, scheme, draw_messages(scheme.message_lengths(cfg), 5))
    return session_document(cfg, scheme.name, 5, result, include_trace=True)


def _flip_first_bit(messages):
    return [("1" if messages[0][0] == "0" else "0") + messages[0][1:], messages[1]]


_PAYLOADS = {
    "region": (parse_region_document, _region_doc),
    "surface": (parse_surface_document, _surface_doc),
    "metrics": (parse_metrics_document, _metrics_doc),
    "session": (parse_session_document, _session_doc),
}
_DAMAGES = ("extra params key", "missing params", "missing payload", "not an object",
            "row without a needed field", "row with an extra field")
# Per payload, (list, field) of a row that every row needs.
_NEEDED = {"region": ("bounds", "source"), "surface": ("cells", "sigma"),
           "metrics": ("thresholds", "threshold"), "session": ("trace", "fb2")}
# Per damage and payload, (list, field, value): the first row of the list, or
# the payload itself where the list is None, gets its field set to a value of
# the wrong JSON type, text that is not the builders' for its value, or a
# value that disagrees with the rest of the document. A callable value is
# applied to the field's old value.
_BAD_ENTRY = {
    "null rational": {"region": ("vertices", "r1", None), "surface": ("cells", "delta1", None),
                      "metrics": (None, "delta1", None), "session": (None, "rate1", None)},
    "number for a rational": {"region": ("vertices", "r2", 2.5),
                              "surface": ("cells", "delta1", 0.5),
                              "metrics": (None, "delta2", 0.5), "session": (None, "p1", 0.0)},
    "bool for a rational": {"region": ("vertices", "r1", True),
                            "surface": ("cells", "sigma", True),
                            "metrics": (None, "sigma", True), "session": (None, "rate2", False)},
    "zero denominator": {"region": ("vertices", "r1", "1/0"),
                         "surface": ("cells", "delta2", "1/0"),
                         "metrics": (None, "delta2", "1/0"), "session": (None, "p2", "1/0")},
    "text for an integer": {"region": ("bounds", "rhs", "0"), "surface": ("cells", "fb11", "0"),
                            "metrics": ("thresholds", "saturation", "4"),
                            "session": (None, "seed", "5")},
    "bool for an integer": {"region": ("bounds", "r1_coeff", True),
                            "surface": ("cells", "fb22", True),
                            "metrics": ("thresholds", "link", True),
                            "session": (None, "delay", True)},
    "decimal of another value": {"region": ("vertices", "r1_decimal", "9.999999"),
                                 "surface": ("cells", "delta1_decimal", "9.999999"),
                                 "metrics": (None, "delta1_decimal", "9.999999"),
                                 "session": (None, "rate1_decimal", "9.999999")},
    "decimal in other text": {"region": ("vertices", "r2_decimal", "0.0"),
                              "surface": ("cells", "sigma_decimal", "0.0"),
                              "metrics": (None, "sigma_decimal", "0.0"),
                              "session": (None, "p2_decimal", "0.222")},
    # rational text of the right value in a spelling the builders never write
    "not in lowest terms": {"region": ("vertices", "r1", "10/2"),
                            "surface": ("cells", "delta1", "0/2"),
                            "metrics": (None, "delta1", "0/3"), "session": (None, "rate1", "8/2")},
    "no slash": {"region": ("vertices", "r1", "5"), "surface": ("cells", "delta2", "0"),
                 "metrics": (None, "sigma", "0"), "session": (None, "rate1", "4")},
    "padded": {"region": ("vertices", "r1", " 5/1"), "surface": ("cells", "sigma", "0/1\n"),
               "metrics": (None, "delta2", " 0/1 "), "session": (None, "rate1", "4/1 ")},
    "decimal notation": {"region": ("vertices", "r1", "5.0"), "surface": ("cells", "delta1", "0e0"),
                         "metrics": (None, "delta1", "0.0"), "session": (None, "rate1", "4e0")},
    "signed": {"region": ("vertices", "r1", "+5/1"), "surface": ("cells", "delta1", "-0/1"),
               "metrics": (None, "sigma", "+0/1"), "session": (None, "rate1", "+4/1")},
    "a threshold at another saturation": {"metrics": ("thresholds", "saturation", 5)},
    "a q other than the params'": {"session": (None, "q", 5)},
    "message lengths other than the messages'": {"session": (None, "message_lengths", [12, 8])},
    "a p1 that disagrees with the messages": {"session": (None, "messages", _flip_first_bit)},
    "an estimate of another length": {"session": (None, "estimates", lambda e: [e[0] + "0", e[1]])},
    "a trace row of the wrong width": {"session": ("trace", "y1", lambda bits: bits + "0")},
    "a trace row that is not 0/1 text": {"session": ("trace", "x2", lambda bits: "2" + bits[1:])},
    "a short trace": {"session": (None, "trace", lambda rows: rows[:-1])},
}
# Per payload, the list whose entries must come in one fixed order, each once,
# and per damage, that list rebuilt from its entries.
_ORDERED = {"region": "bounds", "surface": "cells", "metrics": "thresholds",
            "session": "messages"}
_BAD_ORDER = {
    "part of the rows": lambda rows: rows[:-1],
    "a repeated row": lambda rows: rows + rows[:1],
    "rows out of order": lambda rows: [rows[1], rows[0], *rows[2:]],
}


def _malformed_cases():
    for damage in [*_DAMAGES, *_BAD_ENTRY, *_BAD_ORDER]:
        for key, (parse, make) in _PAYLOADS.items():
            if damage not in _BAD_ENTRY or key in _BAD_ENTRY[damage]:
                yield pytest.param(parse, make, key, damage,
                                   id=f"{damage}-{parse.__name__}-{make.__name__}-{key}")


@pytest.mark.parametrize("parse,make,key,damage", _malformed_cases())
def test_parsers_refuse_malformed_documents_with_value_error(parse, make, key, damage):
    doc = make()
    parse(doc)  # the undamaged document parses
    if damage == "extra params key":
        doc["params"]["fb33"] = 0
    elif damage == "missing params":
        del doc["params"]
    elif damage == "missing payload":
        del doc[key]
    elif damage == "not an object":
        doc = "[1]"
    elif damage == "row without a needed field":
        rows, field = _NEEDED[key]
        del doc[key][rows][0][field]
    elif damage == "row with an extra field":
        rows, _ = _NEEDED[key]
        doc[key][rows][0]["note"] = "extra"
    elif damage in _BAD_ORDER:
        rows = _ORDERED[key]
        doc[key][rows] = _BAD_ORDER[damage](doc[key][rows])
    else:
        rows, field, value = _BAD_ENTRY[damage][key]
        row = doc[key] if rows is None else doc[key][rows][0]
        row[field] = value(row[field]) if callable(value) else value
    with pytest.raises(ValueError):
        parse(doc)


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[st.integers(0, 8)] * 6), st.booleans())
def test_parse_surface_document_inverts_surface_document(exponents, as_text):
    params = ChannelParams(*exponents)
    surface = sweep(params)
    document = surface_document(params, surface)
    if as_text:
        document = json.dumps(document, indent=2)
    assert parse_surface_document(document) == (params, surface.cells)


@settings(max_examples=100, deadline=None)
@given(st.tuples(*[st.integers(0, 12)] * 6), st.booleans())
def test_parse_metrics_document_inverts_metrics_document(exponents, as_text):
    params = ChannelParams(*exponents)  # n12 and n21 drawn apart
    thresholds = (feedback_threshold(params, 1), feedback_threshold(params, 2))
    parts = (params, compute_metrics(params), thresholds, feedback_useless(params))
    document = metrics_document(*parts)
    parsed = parse_metrics_document(json.dumps(document, indent=2) if as_text else document)
    assert parsed == parts
    assert metrics_document(*parsed) == document


@settings(max_examples=150, deadline=None)
@given(st.tuples(*[st.integers(0, 12)] * 6).filter(lambda exponents: max(exponents[:4]) > 0),
       st.sampled_from(sorted(SCHEMES)), st.integers(1, 3), st.integers(1, 12),
       st.integers(-2**40, 2**40), st.booleans(), st.booleans())
def test_parse_session_document_inverts_session_document(
        exponents, name, delay, block_length, seed, trace, as_text):
    cfg = derive_config(ChannelParams(*exponents), delay=delay, block_length=block_length)
    scheme = SCHEMES[name]
    result = run_scheme(cfg, scheme, draw_messages(scheme.message_lengths(cfg), seed))
    document = session_document(cfg, name, seed, result, include_trace=trace)
    parsed = parse_session_document(json.dumps(document, indent=2) if as_text else document)
    assert parsed == (cfg, name, seed, result if trace else replace(result, trace=()))
    assert session_document(*parsed, include_trace="trace" in document["session"]) == document


def test_parse_session_document_accepts_an_empty_trace():
    document = _session_doc()
    document["session"]["trace"] = []
    cfg, name, seed, result = parse_session_document(document)
    assert result.trace == ()
    assert session_document(cfg, name, seed, result, include_trace=True) == document


def test_csv_headers_are_the_published_columns():
    # the headers are derived from the row tables, so pin them to their text
    assert REGION_CSV_COLUMNS == (
        "kind", "r1_coeff", "r2_coeff", "rhs", "source", "r1", "r1_decimal", "r2", "r2_decimal",
    )
    assert SWEEP_CSV_COLUMNS == (
        "fb11", "fb22",
        "delta1", "delta1_decimal", "delta2", "delta2_decimal", "sigma", "sigma_decimal",
    )


_PLAIN_TEXT = st.text(st.characters(exclude_characters=',"\r\n'), max_size=8)


# Two columns or more: csv quotes the lone empty field of a one-column row.
@settings(max_examples=200, deadline=None)
@given(st.lists(_PLAIN_TEXT, min_size=2, max_size=5, unique=True).flatmap(
    lambda columns: st.tuples(st.just(columns), st.lists(st.dictionaries(
        st.sampled_from(columns), st.none() | st.integers() | st.booleans() | _PLAIN_TEXT),
        max_size=5))))
def test_csv_matches_the_dict_writer_oracle(table):
    columns, rows = table
    assert _csv(columns, rows) == reference_csv(columns, rows)


@pytest.mark.parametrize("field", ["a,b", 'say "hi"', "a\rb", "a\nb", "\n"])
def test_csv_refuses_a_field_that_needs_quoting(field):
    with pytest.raises(ValueError):
        _csv(("x", "y"), [{"x": 1, "y": field}])


def _flat_region_rows(document):
    region = document["region"]
    return ([{"kind": "bound", **row} for row in region["bounds"]]
            + [{"kind": "vertex", **row} for row in region["vertices"]])


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.integers(0, 9)] * 6))
def test_csv_writers_match_the_dict_writer_oracle(exponents):
    params = ChannelParams(*exponents)
    poly = capacity_region(params)
    rows = _flat_region_rows(region_document(params, poly))
    assert region_csv(poly) == reference_csv(REGION_CSV_COLUMNS, rows)
    surface = sweep(params)
    cells = surface_document(params, surface)["surface"]["cells"]
    assert sweep_csv(surface) == reference_csv(SWEEP_CSV_COLUMNS, cells)


def test_sweep_csv_over_161_k_cells_matches_the_dict_writer_oracle():
    params = ChannelParams(400, 396, 200, 401)
    surface = sweep(params)
    cells = surface_document(params, surface)["surface"]["cells"]
    assert len(cells) == 161_202
    assert sweep_csv(surface) == reference_csv(SWEEP_CSV_COLUMNS, cells)
