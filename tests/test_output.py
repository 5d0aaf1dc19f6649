import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ldic import ChannelParams, capacity_region, sweep
from ldic.output import (
    format_decimal,
    format_rational,
    parse_rational,
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
        assert parse_rational(format_rational(value)) == value


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


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[st.integers(0, 8)] * 6), st.booleans())
def test_parse_surface_document_inverts_surface_document(exponents, as_text):
    params = ChannelParams(*exponents)
    surface = sweep(params)
    document = surface_document(params, surface)
    if as_text:
        document = json.dumps(document, indent=2)
    assert parse_surface_document(document) == (params, surface.cells)
