from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ldic import (
    ChannelParams,
    GaussianParams,
    derive_variant,
    gaussian_to_ld,
)
from ldic.params import MAX_EXPONENT

exponents = st.integers(min_value=0, max_value=40)


def test_fields_round_trip():
    p = ChannelParams(20, 15, 12, 13, 15, 14)
    assert (p.fwd11, p.fwd22, p.inr12, p.inr21, p.fb11, p.fb22) == (20, 15, 12, 13, 15, 14)


def test_feedback_defaults_to_zero():
    p = ChannelParams(5, 4, 3, 2)
    assert p.fb11 == 0 and p.fb22 == 0


@pytest.mark.parametrize("bad", [-1, 2.5, "3", True, MAX_EXPONENT + 1])
def test_rejects_invalid_exponents(bad):
    with pytest.raises(ValueError):
        ChannelParams(bad, 0, 0, 0)
    with pytest.raises(ValueError):
        ChannelParams(0, 0, 0, 0, 0, bad)


def test_swapped_relabels_pairs():
    p = ChannelParams(20, 15, 12, 13, 15, 14)
    s = p.swapped()
    assert s == ChannelParams(15, 20, 13, 12, 14, 15)


@given(exponents, exponents, exponents, exponents, exponents, exponents)
def test_swapped_is_an_involution(f1, f2, i12, i21, b1, b2):
    p = ChannelParams(f1, f2, i12, i21, b1, b2)
    assert p.swapped().swapped() == p


def test_feedback_saturation_per_link():
    p = ChannelParams(7, 8, 15, 13)
    assert p.feedback_saturation(1) == 15
    assert p.feedback_saturation(2) == 13
    with pytest.raises(ValueError):
        p.feedback_saturation(3)


def test_derive_variant_perfect_feedback():
    p = ChannelParams(20, 15, 12, 13, 15, 14)
    assert derive_variant(p, "perfect_feedback") == ChannelParams(20, 15, 12, 13, 20, 15)


def test_derive_variant_no_feedback():
    p = ChannelParams(20, 15, 12, 13, 15, 14)
    assert derive_variant(p, "no_feedback") == ChannelParams(20, 15, 12, 13, 0, 0)


def test_derive_variant_rejects_unknown_kind():
    with pytest.raises(ValueError):
        derive_variant(ChannelParams(1, 1, 0, 0), "half_feedback")


def test_gaussian_requires_ratios_of_at_least_one():
    with pytest.raises(ValueError):
        GaussianParams(1, 1, 1, 1, 1, 0.5)
    with pytest.raises(ValueError):
        GaussianParams("hello", 1, 1, 1, 1, 1)


def test_gaussian_unit_ratios_map_to_zero_exponents():
    g = GaussianParams(1, 1, 1, 1, 1, 1)
    assert gaussian_to_ld(g) == ChannelParams(0, 0, 0, 0, 0, 0)


@pytest.mark.parametrize("power,expected", [(40, 20), (41, 20), (42, 21), (1, 0), (0, 0)])
def test_gaussian_exponent_is_half_log_floor(power, expected):
    g = GaussianParams(2**power, 1, 1, 1, 1, 1)
    assert gaussian_to_ld(g).fwd11 == expected


def test_gaussian_field_mapping():
    g = GaussianParams(4**3, 4**5, 4**2, 4**7, 4**1, 4**6)
    assert gaussian_to_ld(g) == ChannelParams(3, 5, 2, 7, 1, 6)


@given(st.fractions(min_value=1, max_value=10**12))
def test_gaussian_exponent_brackets_the_ratio(ratio):
    g = GaussianParams(ratio, 1, 1, 1, 1, 1)
    e = gaussian_to_ld(g).fwd11
    assert Fraction(4) ** e <= ratio < Fraction(4) ** (e + 1)
