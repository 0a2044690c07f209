"""The report layer: rational text and its parse side (format_rational,
format_ratios, decimal_str, parse_rational) for ints, Fractions and Dyadics
on both sides of the hex cut; the input reader (read_json, rational) on
JSON number literals, constants and repeated keys; write_json against
json.dumps(indent=2); and the package source, in which no module but
kslab.report writes rational text or decodes JSON."""

import ast
import contextlib
import json
import math
import re
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kslab.exactnum import Dyadic
from kslab.report import (
    HEX_FROM, Number, coordinate, decimal_str, describe, fields, format_ratios, format_rational, parse_rational,
    rational, rationals, read_json, write_json,
)
from oracles import DECIMAL_RATIONAL, parse_rational_by_fraction, quoted

SRC = Path(__file__).resolve().parents[1] / "src" / "kslab"


@contextlib.contextmanager
def unlimited_int_digits():
    """CPython's int<->str digit limit lifted for the block."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class TestSerialization:
    def test_format(self):
        assert format_rational(Fraction(3, 16)) == "3/16"
        assert format_rational(Fraction(5)) == "5"
        assert format_rational(Fraction(-7, 2)) == "-7/2"
        # parts past the 4300 digits CPython converts to str by default are hex
        assert format_rational(Fraction(HEX_FROM - 1)) == "9" * 4300
        assert format_rational(Fraction(-1, HEX_FROM)) == "-1/" + hex(HEX_FROM)

    @given(st.fractions(min_value=-100, max_value=100))
    def test_roundtrip(self, q):
        assert parse_rational(format_rational(q)) == q

    @pytest.mark.parametrize(
        "q",
        [
            Fraction(HEX_FROM - 1),
            Fraction(-(HEX_FROM - 1), 3),
            Fraction(7, HEX_FROM - 1),
            Fraction(HEX_FROM),
            Fraction(-HEX_FROM - 1, 3),
            Fraction(-7, 2**15000),
            Fraction(3**9100, 2**15000),
        ],
    )
    def test_roundtrip_at_the_hex_threshold(self, q):
        text = format_rational(q)
        parts = text.lstrip("-").split("/")
        for part, v in zip(parts, (q.numerator, q.denominator)):
            assert part.startswith("0x") == (abs(v) >= HEX_FROM)
        assert parse_rational(text) == q

    @pytest.mark.parametrize("text", ["1/0", " -3/0 ", "0x1/0x0", "-0x5/0"])
    def test_zero_denominator_is_value_error(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    @pytest.mark.parametrize(
        "text", ["1/-2", "3 / 4", "0x1/-0x2", "0x5/+0x2", "0x3 / 0x4", "0x3/ 0x4", "0x3 /0x4", "0b1/0x2"]
    )
    def test_one_grammar_with_or_without_hex(self, text):
        # a sign only before the numerator and no space at the "/", whether
        # or not a part is hex; 0x1/-0x2 once read as -1/2
        with pytest.raises(ValueError):
            parse_rational(text)

    @pytest.mark.parametrize(
        "text, value",
        [("-0x1f/0x100", Fraction(-31, 256)), ("3/0x10", Fraction(3, 16)), ("0x10/3", Fraction(16, 3)),
         ("+0x5/2", Fraction(5, 2)), (" 0X1F ", Fraction(31)), ("-0x0", Fraction(0))],
    )
    def test_hex_and_mixed_parts(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize(
        "text, value",
        [("1e4300", Fraction(10**4300)), ("-2E-4300", Fraction(-2, 10**4300)), ("1.5e+04300", Fraction(15 * 10**4299)),
         ("3e0000000000004300", Fraction(3 * 10**4300)), ("7e-0", Fraction(7)), ("1.25", Fraction(5, 4))],
    )
    def test_exponent_up_to_the_digit_limit(self, text, value):
        assert parse_rational(text) == value

    # an exponent with "_" or non-ASCII digits is no exponent of the one
    # pattern, so it is malformed before its size is read
    MALFORMED = {"2.5e+4_301", "1e\u0664\u0663\u0660\u0661"}
    LONG = {"1e" + "9" * 5000: "'1e" + "9" * 18 + "..." + "9" * 20 + "' (5002 characters)",
            "1e" + "0" * 4300 + "1": "'1e" + "0" * 18 + "..." + "0" * 19 + "1' (4303 characters)"}

    @pytest.mark.parametrize(
        "text", ["1e4301", "-1E-4301", "2.5e+4_301", "1e999999999", "1e-999999999", "1e" + "9" * 5000,
                 "1e\u0664\u0663\u0660\u0661", "1e" + "0" * 4300 + "1"],
    )
    def test_exponent_past_the_digit_limit(self, text):
        # expanded in full, "1e999999999" would be a billion-digit integer.
        # An exponent text longer than the limit, zeros and all, is refused
        # unread, and the line quotes a text past 80 characters by its first
        # and last 20 characters and its length
        where = self.LONG.get(text, repr(text))
        line = f"malformed rational {where}" if text in self.MALFORMED else \
            f"exponent past 4300 in magnitude in {where}"
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^{re.escape(line)}$") as refused:
            parse_rational(text)
        assert time.perf_counter() - start < 0.1
        assert len(str(refused.value)) <= 120

    @pytest.mark.parametrize(
        "text", ["1_0/3", "1_0", "1.5_0", "1e1_0", "1.5e+0_4_300", "\u0663/4", "3/\u0664", "\u0663", "1e\u0663",
                 "1.\u0665", "\uff13", "1\u00b2"],
    )
    def test_decimal_text_in_ascii_digits_only(self, text):
        # the hex branch reads [0-9] only; decimal text is held to the same
        # digits, though Fraction would read "_" separators and any Unicode
        # decimal digit ("1_0/3" as 10/3, "\u0663/4" as 3/4)
        with pytest.raises(ValueError, match="malformed rational"):
            parse_rational(text)

    @given(
        st.tuples(
            st.sampled_from(["", " ", "\t", "\n", " \u2003"]), st.sampled_from(["", "+", "-", "--", "+-"]),
            st.text("0", max_size=3), st.text("0123456789", max_size=6),
            st.sampled_from(["", "/", "/0", "/00", "/7", "/03", "/-2", "/ 3", "/1_0", "/\u0663", ".", ".5", "e3",
                             "E-2", "e+04", ".25e-1", "e", "/3.5", "/2e1", "_1", "\u0663", "x"]),
            st.sampled_from(["", " ", "\n\t"]),
        ).map("".join)
        | st.text(" +-/.e0123456789_\u0663", max_size=10)
    )
    @example("1/0")
    @example("0/00")
    @example(" -000/0 ")
    @example("1.")
    @example(".5")
    @example("-.5e-3")
    @example("1e5")
    @example("0/1")
    @example("9" * 4300)
    @example("-" + "9" * 4301)
    @example("0" * 4300 + "1")
    @example("1/" + "7" * 4300)
    @example("1/" + "7" * 4301)
    @example("8" * 4301 + "/0")
    @example("5" * 4301 + ".5")
    @example("9" * 4300 + ".5")
    @example("1." + "3" * 4300)
    @example("1." + "3" * 4301)
    @example("2.5e+4_301")
    @example("1e9_999/")
    def test_decimal_text_read_once_as_by_fraction(self, text):
        # every value is built from the one pattern's groups, and every text
        # the parent reader accepted reads the value Fraction gave it.  The
        # errors are the parent's but for two rewordings: a decimal part past
        # 4300 digits is kslab's own line, where the parent raised CPython's
        # int limit, and an exponent the parent's pre-scan refused in text
        # its decimal pattern did not match is malformed.  Without that
        # limit, the parent reads each text kslab reads, to the same value.
        # Every line quotes a text past 80 characters by its two ends and
        # its length (quoted), where the parent quoted it whole.
        def outcome(parse):
            try:
                value = parse(text)
            except Exception as exc:
                return type(exc), str(exc).replace(repr(text), quoted(text))
            return type(value), value

        new, old = outcome(parse_rational), outcome(parse_rational_by_fraction)
        if old[0] is ValueError and old[1].startswith("Exceeds the limit (4300 digits)"):
            with unlimited_int_digits():
                old = outcome(parse_rational_by_fraction)
            longest = max(map(len, re.findall("[0-9]+", text)))
            part = (ValueError, f"decimal part past 4300 digits in {quoted(text)}; write it in 0x hex")
            assert new == (old if longest <= 4300 else part)
        elif old[0] is ValueError and old[1].startswith("exponent past") and new[1].startswith("malformed"):
            assert DECIMAL_RATIONAL.fullmatch(text.lower()) is None
            assert new == (ValueError, f"malformed rational {quoted(text)}")
        else:
            assert new == old

    def test_decimal_str(self):
        assert decimal_str(Fraction(1, 2)) == "0.5" + "0" * 29
        assert decimal_str(Fraction(-1, 3)) == "-0." + "3" * 30
        assert len(decimal_str(Fraction(1, 7)).split(".")[1]) == 30

    @pytest.mark.parametrize("q", [0.1, 1.0, float("nan"), Decimal("0.1"), "1/3", 1j])
    def test_inexact_values_rejected(self, q):
        # format_rational(0.1) once wrote 0.1's binary value, 3602879701896397/2**55
        for call in (format_rational, decimal_str):
            with pytest.raises(TypeError, match=type(q).__name__):
                call(q)

    @pytest.mark.parametrize(
        "v",
        [0, 7, -12, HEX_FROM - 1, -HEX_FROM, 3**9100, Fraction(-7, 2**15000), Fraction(3**9100, 5)],
        ids=["zero", "int", "negative", "below-hex", "hex", "big-int", "hex-denominator", "hex-numerator"],
    )
    def test_int_and_fraction_output_unchanged(self, v):
        # an int and the equal Fraction serialize alike, decimal or hex
        q = Fraction(v)
        assert format_rational(v) == format_rational(q)
        assert decimal_str(v) == decimal_str(q)
        num = hex(q.numerator) if abs(q.numerator) >= HEX_FROM else str(q.numerator)
        den = hex(q.denominator) if q.denominator >= HEX_FROM else str(q.denominator)
        assert format_rational(v) == (num if q.denominator == 1 else f"{num}/{den}")
        assert format_rational(-5) == "-5" and decimal_str(-5) == "-5." + "0" * 30

    def test_decimal_whole_part_past_str_digit_limit(self):
        # a whole part of 4300 digits or more has no decimal form that
        # parse_rational or float() reads, so the field is null (None) and
        # the exact sibling field, in format_rational's hex, carries the value
        assert decimal_str(3**9100) is None
        assert decimal_str(-Fraction(3**9100 * 8 + 5, 8)) is None
        assert decimal_str(Fraction(HEX_FROM * 3 + 1, 3)) is None
        assert decimal_str(HEX_FROM - 1) == "9" * 4300 + "." + "0" * 30
        below = decimal_str(-Fraction(HEX_FROM * 8 - 3, 8))
        assert below == "-" + "9" * 4300 + ".625" + "0" * 27
        assert parse_rational(below) == -Fraction(HEX_FROM * 8 - 3, 8)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("den", [3, 7, 12])
    def test_decimal_cut_reads_the_whole_part(self, den, sign):
        # a non-dyadic denominator, the whole part just below and at the cut
        rest = den - 1
        below = sign * Fraction((HEX_FROM - 1) * den + rest, den)
        digits = "9" * 4300 + "." + f"{rest * 10**30 // den:030d}"
        assert decimal_str(below) == ("-" if sign < 0 else "") + digits
        assert decimal_str(sign * Fraction(HEX_FROM * den + rest, den)) is None
        assert decimal_str(sign * Fraction(HEX_FROM * den, den)) is None


class TestDyadic:
    @pytest.mark.parametrize(
        "q",
        [
            Fraction(0),
            Fraction(-5),
            Fraction(3, 16),
            Fraction(-7, 24),
            Fraction(-7, 2**15000),
            Fraction(3**9100, 2**15000),
            Fraction(3**9100, 5 * 2**15000),
            Fraction(HEX_FROM * 2 - 1, 2),
            Fraction(-(HEX_FROM * 2 + 1), 2),
        ],
    )
    def test_serializes_as_the_equal_fraction(self, q):
        d = Dyadic(q.numerator, q.denominator)
        assert format_rational(d) == format_rational(q)
        assert decimal_str(d) == decimal_str(q)
        assert parse_rational(format_rational(d)) == d


class TestFormatRatio:
    @pytest.mark.parametrize(
        "num, den",
        [(0, 5), (6, 3), (-6, 3), (7, 1), (4, 6), (-9, 12), (HEX_FROM, 1), (3 * HEX_FROM, 3), (1, HEX_FROM + 1)],
        ids=["zero", "divides", "negative-divides", "integer", "reduces", "negative", "hex", "hex-divides", "hex-den"],
    )
    def test_matches_format_rational(self, num, den):
        # the text of num/den in lowest terms: a denominator that divides
        # num leaves the integer alone, as format_rational writes it
        assert format_ratios([num], den) == [format_rational(Fraction(num, den))]

    @given(st.integers(-(10**6), 10**6), st.integers(1, 10**3), st.integers(1, 50))
    def test_any_common_factor(self, num, den, g):
        assert format_ratios([num * g], den * g) == [format_rational(Fraction(num, den))]

    @pytest.mark.parametrize(
        "nums, den",
        [([2**260, 3**170, 5, -(2**7) * 3**99], 2**260 * 3**100),
         ([6 * 3**200, 7, 0, -1], 6 * 3**200),
         ([HEX_FROM * 3, -HEX_FROM, 9, 2], 6 * HEX_FROM),
         ([3**9100, -(3**9101) * 5, 7], 5 * 3**9101),
         ([], 7)],
        ids=["product-multiple-of-den", "zero-entry", "hex-numerators", "hex-den-shares-hex-factor", "empty"],
    )
    def test_lists_sharing_a_large_factor_with_den(self, nums, den):
        # each list's product is a multiple of den (h = den), so every
        # entry's own gcd with den is read off h
        prod = math.prod(nums)
        assert not nums or math.gcd(den, prod % den) == den
        assert format_ratios(nums, den) == [format_rational(Fraction(x, den)) for x in nums]

    def test_entries_do_not_share_each_others_factors(self):
        # h collects factors of den from every entry; each entry keeps only its own
        assert format_ratios([2, 3, 5], 30) == ["1/15", "1/10", "1/6"]
        assert format_ratios([4, 9], 6) == ["2/3", "3/2"]

    @given(
        st.lists(st.tuples(st.integers(-(10**40), 10**40), st.integers(0, 3), st.integers(1, 10**6)), max_size=8),
        st.integers(0, 120), st.integers(0, 60), st.integers(1, 10**30),
    )
    @example(pairs=[(1, 0, 1)], twos=4300 * 4, threes=0, rest=1)
    @example(pairs=[(3**9100, 0, 1), (-1, 0, 1)], twos=0, threes=9101, rest=1)
    def test_each_entry_as_format_rational(self, pairs, twos, threes, rest):
        # entries drawn to share factors with den: x times a divisor of den
        den = 2**twos * 3**threes * rest
        nums = [a * math.gcd(den, 6**e * c) for a, e, c in pairs]
        assert format_ratios(nums, den) == [format_rational(Fraction(x, den)) for x in nums]


# JSON number literals: integers, fractions and exponents of any length in
# the JSON grammar, -0, parts both sides of the 4300-digit limit, and the
# constants Python's json module reads though JSON has none
JSON_NUMBERS = st.one_of(
    st.from_regex(r"-?(0|[1-9][0-9]{0,30})(\.[0-9]{1,30})?([eE][+-]?[0-9]{1,4})?", fullmatch=True),
    st.sampled_from(["-0", "-0.0", "0.1", "1E400", "1e4300", "1e4301", "-2.5E-4301", "12345678901234567890.5",
                     "NaN", "Infinity", "-Infinity"]),
    st.integers(4295, 4305).map(lambda k: "7" * k),
    st.integers(4295, 4305).map(lambda k: "-0." + "3" * k),
)


class TestReadJson:
    @given(JSON_NUMBERS)
    @example("12345678901234567890.5")
    @example("1e400")
    @example("1e4301")
    @example("NaN")
    def test_numbers_read_from_their_text(self, text):
        # read_json keeps every number as its literal text, and rational reads
        # it as the value parse_rational gives that text, or the same
        # ValueError; a float never holds it, and a constant is refused
        got = read_json(f'{{"x": [{text}]}}')["x"][0]
        assert type(got) is Number and got.text == text
        try:
            want = parse_rational(text)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                rational(got, "x")
            return
        assert type(rational(got, "x")) is Fraction and rational(got, "x") == want

    def test_exact_where_a_float_is_not(self):
        assert rationals(read_json("[0.1, 12345678901234567890.5, 1e400, -0]"), "x") == [
            Fraction(1, 10), Fraction(24691357802469135781, 2), 10**400, 0]

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_constants_refused(self, constant):
        doc = read_json(f'{{"coeff": {constant}}}')
        with pytest.raises(ValueError, match=f"^malformed rational {re.escape(repr(constant))}$"):
            rational(doc["coeff"], "coeff")

    @pytest.mark.parametrize(
        "text, key",
        [('{"a": 1, "a": 1}', "a"), ('[{"b": {"c": 1, "d": 2, "c": 3}}]', "c"),
         ('{"x": 1, "y": 2, "y": 3, "x": 4}', "y")],
    )
    def test_repeated_key_refused(self, text, key):
        # at any depth, naming the first key given twice
        with pytest.raises(ValueError, match=f"^key {key!r} given twice$"):
            read_json(text)

    def test_documents_otherwise_as_json_reads_them(self):
        text = '{"a": [true, false, null, "1/3", {}], "b": {"c": []}}'
        assert read_json(text) == json.loads(text)
        assert type(read_json("7")) is Number and describe(read_json("7")) == "number"

    def test_rational(self):
        q = Fraction(-3, 7)
        assert rational(q, "x") is q and rational(10**5000, "x") == 10**5000 and rational(" 0x10 ", "x") == 16
        for v, name in ((True, "boolean"), (None, "null"), ([1], "array"), ({}, "object"), (0.5, "float 0.5"),
                        (Decimal(1), "Decimal"), (1j, "complex")):
            with pytest.raises(TypeError, match=f"^x requires int, Fraction or str values, got {re.escape(name)}$"):
                rational(v, "x")
        for text in ("1_0", "\u0663", "NaN", "inf"):
            with pytest.raises(ValueError, match="^malformed rational "):
                rational(text, "x")

    def test_describe_names_json_types(self):
        assert [describe(v) for v in (None, True, Fraction(1, 2), 3, [1], {"a": 1}, "x", 0.1)] == [
            "null", "boolean", "number", "number", "array", "object", "'x'", "float 0.1"]


def repdigit(d: int, k: int) -> int:
    """The k-digit integer ddd...d, built without a str of k digits."""
    return d * (10**k - 1) // 9


# a part at the 4300-digit limit and one digit past it, in each position of
# the grammar: (text with the part k digits long, its value)
DIGIT_PARTS = {
    "numerator": lambda k: ("-" + "7" * k + "/3", -Fraction(repdigit(7, k), 3)),
    "denominator": lambda k: ("2/" + "7" * k, Fraction(2, repdigit(7, k))),
    "whole part": lambda k: ("7" * k + ".5", repdigit(7, k) + Fraction(1, 2)),
    "fraction": lambda k: ("1." + "3" * k, 1 + Fraction(repdigit(3, k), 10**k)),
    "integer": lambda k: ("7" * k, Fraction(repdigit(7, k))),
}


class TestDecimalPartLimit:
    @pytest.mark.parametrize("where", DIGIT_PARTS)
    def test_part_at_the_limit_reads_exactly(self, where):
        text, value = DIGIT_PARTS[where](4300)
        assert parse_rational(text) == value and rational(read_json(f'["{text}"]')[0], "x") == value

    @pytest.mark.parametrize("where", DIGIT_PARTS)
    def test_part_past_the_limit_in_kslab_words(self, where):
        # not CPython's "Exceeds the limit ... sys.set_int_max_str_digits()"
        text, _ = DIGIT_PARTS[where](4301)
        with pytest.raises(ValueError, match=f"^decimal part past 4300 digits in {re.escape(quoted(text))}; "
                                             "write it in 0x hex$"):
            parse_rational(text)

    def test_json_integer_literal(self):
        assert rationals(read_json("[" + "7" * 4300 + "]"), "x") == [repdigit(7, 4300)]
        doc = read_json("[" + "7" * 4301 + "]")
        with pytest.raises(ValueError, match="^decimal part past 4300 digits in '7{20}\\.\\.\\.7{20}' "
                                             "\\(4301 characters\\); write it in 0x hex$"):
            rationals(doc, "x")

    def test_exponent_digits(self):
        # the exponent has its own limit: 4300 digits, and 4300 in magnitude
        assert parse_rational("1e" + "0" * 4299 + "1") == 10
        with pytest.raises(ValueError, match="^exponent past 4300 in magnitude in "):
            parse_rational("1e" + "0" * 4300 + "1")

    def test_the_same_value_in_hex(self):
        big = repdigit(7, 4301)
        assert parse_rational(hex(big)) == big and parse_rational(f"1/{hex(big)}") == Fraction(1, big)

    def test_coordinate_key(self):
        assert coordinate("0" * 4299 + "7") == 7 and coordinate(" +" + "0" * 4300) == 0
        with pytest.raises(ValueError, match="^decimal part past 4300 digits in '0{20}\\.\\.\\.0{19}7' "
                                             "\\(4301 characters\\)$"):
            coordinate("0" * 4300 + "7")


class TestFields:
    SPEC = {"name": (str, ""), "terms": (list, ...), "coeff": (object, 1)}

    def test_values_in_spec_order_with_defaults(self):
        assert fields({"terms": [], "name": "h"}, "combo", **self.SPEC) == ["h", [], 1]
        assert fields({"coeff": None, "terms": [1]}, "combo", **self.SPEC) == ["", [1], None]

    @pytest.mark.parametrize(
        "doc, line",
        [([], "combo must be an object, got array"),
         ("x", "combo must be an object, got 'x'"),
         ({"terms": [], "x": 1, "nmae": "h"}, "unknown combo key 'x'; a combo reads name, terms, coeff"),
         ({"nmae": "h", "terms": []}, "unknown combo key 'nmae'; a combo reads name, terms, coeff"),
         ({"name": "h"}, "combo has no 'terms' key"),
         ({"name": None, "terms": []}, "name must be a string, got null"),
         ({"terms": {}}, "terms must be a list, got object"),
         ({"terms": "[]"}, "terms must be a list, got '[]'")],
        ids=["array", "string", "unknown-key", "typo", "missing", "null-name", "object-terms", "string-terms"],
    )
    def test_every_refusal_names_what_is_wrong(self, doc, line):
        with pytest.raises(ValueError, match=f"^{re.escape(line)}$"):
            fields(doc, "combo", **self.SPEC)

    @given(st.text(), st.sampled_from([None, True, Fraction(1), "x", [], {}]))
    def test_any_key_not_in_spec_refused(self, key, value):
        doc = {"terms": [], key: value}
        if key in self.SPEC:
            fields(doc, "combo", **self.SPEC)
            return
        # a key past 80 characters is quoted by its ends and its length
        with pytest.raises(ValueError, match=f"^unknown combo key {re.escape(quoted(key))};"):
            fields(doc, "combo", **self.SPEC)

    def test_rationals(self):
        assert rationals(["1/2", 3, Fraction(1, 3)], "target") == [Fraction(1, 2), 3, Fraction(1, 3)]
        for v, name in ((None, "null"), ({}, "object"), (Fraction(1), "number"), ("12", "'12'")):
            with pytest.raises(TypeError, match=f"^target must be a list, got {re.escape(name)}$"):
                rationals(v, "target")


class TestOneWriter:
    TEXT = {"format_rational", "format_ratios", "decimal_str"}
    MOVED = TEXT | {"parse_rational", "HEX_FROM", "_int_text"}

    def test_only_report_writes_rational_text(self):
        calls = []
        for path in sorted(SRC.glob("*.py")):
            if path.name == "report.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    if name in self.TEXT:
                        calls.append(f"{path.name}:{node.lineno} {name}")
        assert calls == []

    def test_only_report_decodes_json(self):
        # one decoder for every input file: no other module imports json,
        # and no value is read through str() of what a decoder returned
        found = []
        for path in sorted(SRC.glob("*.py")):
            text = path.read_text(encoding="utf-8")
            if "parse_rational(str(" in text:
                found.append(f"{path.name} parse_rational(str(")
            if path.name != "report.py":
                for node in ast.walk(ast.parse(text)):
                    if isinstance(node, ast.Import) and "json" in [alias.name for alias in node.names]:
                        found.append(f"{path.name}:{node.lineno} import json")
        assert found == []

    def test_exactnum_keeps_numbers_only(self):
        tree = ast.parse((SRC / "exactnum.py").read_text(encoding="utf-8"))
        defined = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assigned = {t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets if isinstance(t, ast.Name)}
        assert (defined | assigned) & self.MOVED == set()

    def test_no_fraction_of_text(self):
        # every value is built from the one pattern's groups: no Fraction
        # call in the package reads a str literal, an f-string, a method's
        # result (text.strip()) or a parameter annotated str
        def text_like(arg, params):
            return (isinstance(arg, ast.Constant) and isinstance(arg.value, str) or isinstance(arg, ast.JoinedStr)
                    or isinstance(arg, ast.Call) and isinstance(arg.func, ast.Attribute)
                    or isinstance(arg, ast.Name) and arg.id in params)

        found = []
        for path in sorted(SRC.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            scopes = [(tree, set())] + [
                (f, {a.arg for a in f.args.args + f.args.kwonlyargs if getattr(a.annotation, "id", None) == "str"})
                for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
            for scope, params in scopes:
                for node in ast.walk(scope):
                    if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Fraction"
                            and any(text_like(arg, params) for arg in node.args)):
                        found.append(f"{path.name}:{node.lineno}")
        assert found == []

    def test_parse_rational_calls_fraction_on_ints_only(self, monkeypatch):
        import kslab.report

        def fraction(*args):
            assert all(type(arg) is int for arg in args), args
            return Fraction(*args)

        monkeypatch.setattr(kslab.report, "Fraction", fraction)
        texts = {"3/4": Fraction(3, 4), " -0x1F/0x10 ": Fraction(-31, 16), "1.25e-3": Fraction(1, 800), ".5": 0.5,
                 "-7": -7, "2e3": 2000, "+0x5/2": Fraction(5, 2), "0.1": Fraction(1, 10)}
        assert {text: parse_rational(text) for text in texts} == texts

    def test_only_report_checks_input_keys(self):
        # fields is the one key check of every input object: no other module
        # looks a str key up with .get, asks isinstance(..., dict) or takes a
        # set difference, and no function that reads input (calls read_json
        # or fields) tests a str key with in or subscripts one
        def reads_input(func):
            return any(isinstance(n, ast.Call) and getattr(n.func, "id", getattr(n.func, "attr", None))
                       in ("read_json", "fields") for n in ast.walk(func))

        def is_str(node):
            return isinstance(node, ast.Constant) and isinstance(node.value, str)

        found = []
        for path in sorted(SRC.glob("*.py")):
            if path.name == "report.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "get" and node.args[:1] \
                        and is_str(node.args[0]):
                    found.append(f"{path.name}:{node.lineno} .get")
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" \
                        and "dict" in ast.unparse(node.args[1]):
                    found.append(f"{path.name}:{node.lineno} isinstance dict")
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub) and isinstance(node.right, ast.Set):
                    found.append(f"{path.name}:{node.lineno} set difference")
            for func in ast.walk(tree):
                if isinstance(func, ast.FunctionDef) and reads_input(func):
                    for node in ast.walk(func):
                        if isinstance(node, ast.Compare) and is_str(node.left) \
                                and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
                            found.append(f"{path.name}:{node.lineno} in")
                        if isinstance(node, ast.Subscript) and is_str(node.slice):
                            found.append(f"{path.name}:{node.lineno} subscript")
        assert found == []

    def test_report_imports_only_exactnum_at_run_time(self):
        # a reader of reports (or of CLI input files) loads the parse side
        # without the library that computes the values
        tree = ast.parse((SRC / "report.py").read_text(encoding="utf-8"))
        modules = {node.module for node in tree.body if isinstance(node, ast.ImportFrom) and node.level}
        assert modules == {"exactnum"}


# JSON scalars of every kind a writer meets: strings with quotes,
# backslashes, control and non-ASCII characters (surrogates included),
# ints past 2^64 and up to 4294 digits, floats with NaN and the infinities
STRINGS = st.text(alphabet=st.sampled_from('a"\\/\x00\x07\n\t\x1f\x7f\u00e9\u2028\ud800\U0001f600 ')) | st.text()
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(0, 9000).map(lambda k: (-3) ** k), st.floats(), STRINGS,
)
KEYS = st.one_of(STRINGS, st.integers(), st.booleans(), st.none(), st.floats())


def documents(keys):
    """Nested dicts, lists and tuples over SCALARS, empty ones at every depth."""
    return st.recursive(
        SCALARS,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple), st.dictionaries(keys, inner, max_size=4)
        ),
        max_leaves=40,
    )


@pytest.fixture(scope="module")
def report_path(tmp_path_factory):
    return tmp_path_factory.mktemp("write_json") / "doc.json"


class TestWriteJson:
    @given(doc=documents(STRINGS))
    @example(doc={"a": [[], {}, [[{}], ()]], "b": {"c": [], "d": {"e": ()}}, "": None})
    @example(doc={"witness": {"A_bits": hex(3**9000)}, "rows": [{"sup": "1/2", "n": 10**40, "ok": True}]})
    @example(doc=[])
    @example(doc="top-level \"scalar\"")
    def test_equals_json_dumps_indent_2(self, report_path, doc):
        write_json(report_path, doc)
        assert report_path.read_text(encoding="utf-8") == json.dumps(doc, indent=2) + "\n"

    @given(doc=documents(KEYS))
    @example(doc={1: {2.5: [], None: {True: "x"}}, False: [1], float("nan"): {"-Infinity": 0}})
    def test_non_str_keys_written_as_json_dumps_writes_them(self, report_path, doc):
        # no report has one; an int, float, bool or None key becomes the
        # quoted JSON text of its value, flat or nested, as in json.dumps
        write_json(report_path, doc)
        assert report_path.read_text(encoding="utf-8") == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize(
        "doc", [{(1, 2): 1}, {"a": {(1, 2): [1]}}, [{"k": {b"x": {}}}]], ids=["flat", "nested", "in-list"]
    )
    def test_other_keys_raise_type_error(self, report_path, doc):
        with pytest.raises(TypeError, match="keys must be str, int, float, bool or None"):
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError, match="keys must be str, int, float, bool or None"):
            write_json(report_path, doc)

    @pytest.mark.parametrize("doc", [{"a": {1, 2}}, [[b"x"]], {"a": [Fraction(1, 2), []]}])
    def test_unencodable_values_raise_type_error(self, report_path, doc):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            write_json(report_path, doc)
