"""Exact rational parsing and formatting, and JSON decoding and writing.

All numeric state in the package is held as `fractions.Fraction`, which
stores values in lowest terms with a positive denominator and supports
exact arithmetic. These helpers convert the external representations
("p/q" strings, decimal strings, JSON numbers) to and from that type
without ever rounding: a decimal literal is read as the rational it
denotes, not as the nearest binary float. The JSON the package reads
goes through `parse_json`, and each object in it through `json_object`.
The JSON it writes, laid out as json.dumps(..., indent=2) lays it out, fills
each fixed-key object's `_template` with `_fill`, which like `format_rational`
refuses a value too long to print, and writes each array with `_json_array`.
`reject_lone_surrogates` refuses text that UTF-8 cannot encode. Every
module raises this module's `ValidationError` on input it refuses.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Collection
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote


class ValidationError(ValueError):
    """An input violates a documented invariant; the message names the field or player."""


# Fraction expands "1e<exp>" into an integer of about exp digits, at a
# cost that grows with exp rather than with the length of the text. 4300
# is also the interpreter's default limit on the digits of an integer
# converted to text, so a value with a larger exponent could not be printed.
_MAX_EXPONENT = 4300


def _checked_exponent(text: str, field: str) -> str:
    """The text unchanged, unless its decimal exponent exceeds _MAX_EXPONENT."""
    _, marker, exponent = text.lower().partition("e")
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if marker and digits.isdecimal() and (len(digits) > 4 or int(digits) > _MAX_EXPONENT):
        raise ValidationError(f"{field}: exponent in {text!r} exceeds {_MAX_EXPONENT}")
    return text


def parse_rational(value: object, field: str = "value") -> Fraction:
    """Parse an int, Fraction, or string like "7/20", "0.54", "-3" exactly.

    Floats are rejected: they have already lost the decimal the user wrote,
    so callers must route text through here (or json parse_float) instead.
    Text is tested first: it is the common input, and the Fraction test
    goes through ABCMeta for any value that is not a Fraction.
    """
    if isinstance(value, str):
        # ASCII digits, optionally "/" and more ASCII digits, are read as two
        # ints, which skips Fraction(str)'s ABC check, regex and exponent
        # check. Signs, spaces, underscores, decimals and other digits take
        # the Fraction(str) path.
        num, slash, den = value.partition("/")
        plain = num.isascii() and num.isdigit() and (not slash or den.isascii() and den.isdigit())
        if not plain:
            _checked_exponent(value, field)
        try:
            if plain:
                return Fraction(int(num), int(den)) if slash else Fraction(int(num))
            return Fraction(value)
        except ZeroDivisionError:
            raise ValidationError(f"{field}: denominator must be positive") from None
        except ValueError:
            raise ValidationError(f"{field}: cannot parse {value!r} as a rational") from None
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValidationError(f"{field} must be a number or 'p/q' string, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ValidationError(
            f"{field} must be given as text or an integer; binary floats are inexact"
        )
    raise ValidationError(f"{field} must be a number or 'p/q' string, got {type(value).__name__}")


def _reject_constant(literal: str) -> None:
    raise ValidationError(f"not valid JSON: {literal} is not a JSON number")


def parse_json(text: str) -> object:
    """Decode JSON text, reading every decimal literal as an exact Fraction.

    Malformed text, NaN and Infinity literals, nesting too deep for the
    decoder, number literals longer than the interpreter's integer digit
    limit and decimal exponents beyond 4300 all raise ValidationError.
    """
    try:
        return json.loads(
            text,
            parse_float=lambda literal: Fraction(_checked_exponent(literal, "JSON number")),
            parse_constant=_reject_constant,
        )
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except ValidationError:
        raise
    except ValueError as exc:
        raise ValidationError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise ValidationError("not valid JSON: nesting is too deep") from None


def json_object(
    value: object, what: str, allowed: Collection[str], required: Collection[str] = ()
) -> dict:
    """The value, if it is a JSON object with only allowed and all required fields.

    Otherwise raise ValidationError naming `what` and, among several
    unknown or missing fields, the first in sorted order.
    """
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be an object")
    unknown = value.keys() - allowed
    if unknown:
        raise ValidationError(f"unknown field {min(unknown)!r} in {what}")
    missing = [key for key in required if key not in value]
    if missing:
        raise ValidationError(f"{what} is missing {min(missing)!r}")
    return value


def reject_lone_surrogates(text: str, field: str) -> None:
    """Raise ValidationError if the text holds a lone surrogate code point.

    JSON can spell a lone surrogate ("\\ud800"), but UTF-8 cannot encode
    one, so a label or name holding one could not be printed as text.
    """
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValidationError(
            f"{field} holds the lone surrogate U+{ord(text[exc.start]):04X}, "
            "which UTF-8 cannot encode"
        ) from None


def _json_array(items: list[str], newline: str) -> str:
    """A JSON array of items already written as JSON, as json.dumps(..., indent=2) lays it out."""
    if not items:
        return "[]"
    inner = newline + "  "
    return f"[{inner}{(',' + inner).join(items)}{newline}]"


_RAW = "<json>"
_TOO_LONG = "cannot print a value of more than %d digits"


def _template(skeleton: object, depth: int = 0) -> str:
    """The skeleton laid out at depth for _fill: "%s" is a quoted slot, _RAW a bare one."""
    text = json.dumps(skeleton, indent=2).replace(f'"{_RAW}"', "%s")
    return text.replace("\n", "\n" + "  " * depth)


def _fill(template: str, values: tuple) -> str:
    """template % values; a value too long to print raises ValidationError, as format_rational."""
    try:
        return template % values
    except ValueError:
        raise ValidationError(_TOO_LONG % sys.get_int_max_str_digits()) from None


def format_rational(value: Fraction) -> str:
    """Render exactly: "p/q", or just "p" when the denominator is 1.

    A numerator or denominator longer than the interpreter's limit on
    integer string conversion (4300 digits by default) raises
    ValidationError.
    """
    try:
        return str(value)
    except ValueError:
        raise ValidationError(_TOO_LONG % sys.get_int_max_str_digits()) from None


def approx(value: Fraction) -> str:
    """Table text: the value to six decimals, rounded half to even; too long raises as _fill."""
    whole, micros = divmod(abs(round(value * 1000000)), 1000000)
    return _fill("%s%d.%06d", ("-" if value < 0 else "", whole, micros))
