"""Tests for exact rational parsing and formatting."""

from __future__ import annotations

from decimal import ROUND_05UP, ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from govgame import ValidationError
from govgame.rationals import (
    _checked_exponent,
    approx,
    format_rational,
    json_object,
    parse_json,
    parse_rational,
)


def test_parse_fraction_string():
    assert parse_rational("7/20") == Fraction(7, 20)
    assert parse_rational("18/25") == Fraction(18, 25)
    assert parse_rational("-3/4") == Fraction(-3, 4)


def test_parse_decimal_string_is_exact():
    # "0.54" denotes 54/100, not the nearest binary float.
    assert parse_rational("0.54") == Fraction(27, 50)
    assert parse_rational("0.1") == Fraction(1, 10)


def test_parse_integer_forms():
    assert parse_rational(3) == Fraction(3)
    assert parse_rational("-3") == Fraction(-3)
    assert parse_rational("0") == Fraction(0)


def test_parse_passes_through_fraction():
    v = Fraction(13, 20)
    assert parse_rational(v) is v or parse_rational(v) == v


def test_parse_rejects_float():
    with pytest.raises(ValidationError, match="binary floats are inexact"):
        parse_rational(0.54)


def test_parse_rejects_bool():
    with pytest.raises(ValidationError):
        parse_rational(True)


def test_parse_zero_denominator():
    with pytest.raises(ValidationError, match="beta: denominator must be positive"):
        parse_rational("1/0", field="beta")


def test_parse_garbage():
    with pytest.raises(ValidationError, match="cannot parse"):
        parse_rational("one half")


def test_parse_error_names_field():
    with pytest.raises(ValidationError, match="gamma:"):
        parse_rational("x", field="gamma")


def _reference_parse(value: str, field: str) -> Fraction:
    """parse_rational's text path before plain "p/q" text was read in integers."""
    _checked_exponent(value, field)
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValidationError(f"{field}: denominator must be positive") from None
    except ValueError:
        raise ValidationError(f"{field}: cannot parse {value!r} as a rational") from None


def _outcome(parse, value: str) -> tuple:
    try:
        result = parse(value, "sv")
    except ValidationError as exc:
        return "error", str(exc)
    return "value", type(result), result


# Pieces of rational text: signs, spaces, underscores, decimals, exponents,
# zero denominators, non-ASCII digits (Arabic-Indic, superscript, fullwidth)
# and digit runs on both sides of the 4300-digit limit.
_PIECES = st.sampled_from(
    ["0", "1", "7", "00", "/", "/0", "+", "-", " ", "_", ".", "e", "E5", "\u0661", "\u00b2", "\uff11"]
)
_LONG_DIGITS = st.integers(4295, 4305).map(lambda size: "9" * size)
_PART = st.lists(_PIECES | _LONG_DIGITS, max_size=3).map("".join)
# Text shaped like "p/q", each side optionally signed or padded.
_SIDE = r"[ +-]?[0-9]{0,3}[_.eE\u0661\u00b2\uff11]?[0-9]{0,3}"
_SHAPED = st.from_regex(rf"\A{_SIDE}(/{_SIDE})?\Z")


@given(st.tuples(_PART, st.sampled_from(["", "/"]), _PART).map("".join) | _SHAPED)
@example("007")
@example("0/5")
@example("1/0")
@example("-1/2")
@example("+3")
@example(" 4/5 ")
@example("1_000/3")
@example("\u0661/2")
@example("\u00b2")
@example("\uff11/2")
@example("1/")
@example("/2")
@example("1/2/3")
@example("1/-2")
@example("1/ 2")
@example("9" * 4300)
@example("9" * 4301)
@example("1/" + "9" * 4301)
def test_parse_text_equals_the_fraction_reference(value):
    assert _outcome(parse_rational, value) == _outcome(_reference_parse, value)


def test_format_round_trip():
    for text in ("7/20", "1", "0", "-3/4", "13/20"):
        assert format_rational(parse_rational(text)) == text


def test_format_integer_has_no_denominator():
    assert format_rational(Fraction(4, 2)) == "2"


def test_approx_six_decimals():
    assert approx(Fraction(3, 5)) == "0.600000"
    assert approx(Fraction(7, 10)) == "0.700000"
    assert approx(Fraction(1, 3)) == "0.333333"
    # Through a float, which keeps 53 bits, these read 24812423681.090908 and
    # 0.000003 (the float lies just above the tie 0.0000025).
    assert approx(Fraction(272936660492, 11)) == "24812423681.090909"
    assert approx(Fraction(1, 400000)) == "0.000002"
    assert approx(Fraction(-1, 10**7)) == "-0.000000"


def _decimal_oracle(value: Fraction) -> str:
    """The value to six places, rounded half to even, in decimal arithmetic.

    The quotient keeps three digits beyond the sixth place. ROUND_05UP ends
    an inexact quotient in a digit other than 0 or 5, so it is never taken
    for a tie or an exact value, and the quantize rounds as the exact
    quotient would.
    """
    whole = len(str(abs(value.numerator) // value.denominator))
    with localcontext() as context:
        context.prec = whole + 9
        context.rounding = ROUND_05UP
        quotient = Decimal(value.numerator) / Decimal(value.denominator)
        return format(quotient.quantize(Decimal("0.000001"), rounding=ROUND_HALF_EVEN), "f")


_TIES = [
    Fraction(sign * (2 * k + 1), 2000000)
    for sign in (1, -1)
    for k in (0, 1, 2, 3, 7, 499999, 500000, 10**15)
]
_LARGE = [
    Fraction(10**e) + offset
    for e in range(9, 21)
    for offset in (Fraction(0), Fraction(1, 3), Fraction(-1, 7), Fraction(5, 2000000), Fraction(-7, 2000000))
]


@pytest.mark.parametrize(
    "value",
    [Fraction(272936660492, 11), Fraction(1, 400000), Fraction(-1, 10**7), Fraction(0), *_TIES, *_LARGE],
    ids=str,
)
def test_approx_rounds_the_exact_value_half_to_even(value):
    assert approx(value) == _decimal_oracle(value)


@given(st.fractions(max_denominator=4 * 10**12) | st.builds(Fraction, st.integers(), st.integers(1, 10**21)))
def test_approx_agrees_with_decimal_arithmetic(value):
    assert approx(value) == _decimal_oracle(value)


def test_approx_beyond_float_range_is_exact():
    assert approx(Fraction(10) ** 400) == f"{10**400}.000000"
    assert approx(-(Fraction(10) ** 400) - Fraction(1, 3)) == f"-{10**400}.333333"


def test_approx_too_long_to_print_raises_validation_error():
    assert approx(Fraction(10) ** 4299) == f"{10**4299}.000000"
    with pytest.raises(ValidationError, match="4300 digits"):
        approx(Fraction(10) ** 4300)


@pytest.mark.parametrize("text", ["1e4300", "-1E-4300", "2.5e+04300"])
def test_exponent_at_the_bound_is_parsed(text):
    assert parse_rational(text) == Fraction(text)
    assert parse_json(f"[{text}]") == [Fraction(text)]


@pytest.mark.parametrize("text", ["1e4301", "1E-4301", "1e" + "9" * 5000])
def test_exponent_beyond_the_bound_is_rejected(text):
    with pytest.raises(ValidationError, match="exceeds 4300"):
        parse_rational(text, "sv")
    with pytest.raises(ValidationError, match="JSON number: exponent .* exceeds 4300"):
        parse_json(f"[{text}]")


def test_format_rational_beyond_the_digit_limit():
    with pytest.raises(ValidationError, match="more than 4300 digits"):
        format_rational(Fraction(10**4300, 3))


_KEYS = st.sets(st.text(alphabet="abAB_\u00e9", max_size=3), max_size=6)
_COLLECTIONS = st.sampled_from([set, frozenset, tuple, list])


@given(_KEYS, _KEYS, _KEYS, _COLLECTIONS)
def test_json_object_names_the_first_unknown_then_missing_field(keys, allowed, required, kind):
    """The message names the first unknown field in sorted order, else the first missing one."""
    value = dict.fromkeys(keys, 0)
    unknown = sorted(set(value).difference(allowed))
    missing = sorted(set(required).difference(value))
    args = value, "thing", kind(allowed), kind(required)
    if not unknown and not missing:
        assert json_object(*args) is value
        return
    with pytest.raises(ValidationError) as caught:
        json_object(*args)
    if unknown:
        assert str(caught.value) == f"unknown field {unknown[0]!r} in thing"
    else:
        assert str(caught.value) == f"thing is missing {missing[0]!r}"
