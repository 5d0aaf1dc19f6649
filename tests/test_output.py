import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ldic import ChannelParams, build_bounds, capacity_region, sweep
from ldic.params import MAX_EXPONENT
from ldic.output import (
    format_decimal,
    format_rational,
    parse_region_document,
    parse_surface_document,
    region_document,
    surface_document,
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


def _surface_doc():
    params = ChannelParams(2, 1, 1, 0)
    return surface_document(params, sweep(params))


# Per payload, (list, field) of a row: one field every row needs, one rational.
_NEEDED = {"region": ("bounds", "source"), "surface": ("cells", "sigma")}
_RATIONAL = {"region": ("vertices", "r1"), "surface": ("cells", "delta1")}


@pytest.mark.parametrize("parse,make,key", [
    (parse_region_document, _region_doc, "region"),
    (parse_surface_document, _surface_doc, "surface"),
])
@pytest.mark.parametrize("damage", [
    "extra params key", "missing params", "missing payload",
    "not an object", "row without a needed field", "null rational",
])
def test_parsers_refuse_malformed_documents_with_value_error(parse, make, key, damage):
    doc = make()
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
    else:
        rows, field = _RATIONAL[key]
        doc[key][rows][0][field] = None
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
