"""Report text: every document kslab writes, and the rational text in it.

The library computes the exact values and decides every verdict; the
writers here only turn those records into dicts in a fixed key order, and
write_json writes them.  Payloads are exact rational strings plus
fixed-width decimals, and no wall-clock time is recorded, so a report is
byte-stable across runs.  A rational is "p/q" in lowest terms, or "p"; a
part of 4300 digits or more (a 2^n denominator past about n = 14,300) is
0x hex.  parse_rational reads that text back; read_json reads every input
file, keeping each number's text, fields the keys of every input object and
rational every value a file or a constructor is given.

write_json writes json.dumps(doc, indent=2) plus a newline, byte for byte,
through CPython's C encoder, which json.dumps uses only without an
indent.  A scalar, an empty container, or one whose items are all scalars
is one call of a C encoder whose item separator carries the newline and
the indent of its depth (one encoder per depth, cached); only containers
that hold containers are walked in Python.
"""

from __future__ import annotations

import functools
import json
import math
import re
from fractions import Fraction
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING

from .exactnum import Cmp, Dyadic, Rational

if TYPE_CHECKING:
    from .basic_seq_diag import FiniteSection
    from .normal_subseq import ComboRow, SubseqCertificate, SubseqReport
    from .rect_sup import RectangleSupReport
    from .schauder import CoeffExpansion, DensityResult, TriangularBasis

GREEDY_RULE = "greedy: s_n = first stream element >= max(prev+1, n^4)"

DISCLAIMER = (
    "Summability is verified only on the supplied tensor-algebra elements. "
    "Density of the full summability set follows from density of the tensor "
    "algebra (Stone-Weierstrass) and is not a finitely checkable statement; "
    "this report makes no claim beyond the listed elements."
)

CAVEAT = (
    "Finite-section evidence only: projection norms are computed on the "
    "span of the listed functionals in the sup-over-family norm. No claim "
    "is made about any infinite sequence or its weak-star limit behavior."
)

DIGITS = 30  # fractional digits of every decimal field; reports depend on it byte for byte

# CPython's default int<->str conversion limit, in digits.  Integers of
# magnitude HEX_FROM or more have more digits than that; they serialize as
# 0x hex, which has no limit and converts in linear time.  A fixed
# constant, so the output never depends on interpreter settings.
STR_DIGITS = 4300
HEX_FROM = 10**STR_DIGITS


def _int_text(v: int) -> str:
    return hex(v) if abs(v) >= HEX_FROM else str(v)


def format_ratios(nums: list[int], den: int) -> list[str]:
    """[format_rational(Fraction(x, den)) for x in nums] for ints, den > 0,
    by one gcd the size of den per list: with P the product of nums and
    h = gcd(den, P mod den), gcd(x, den) = gcd(x, h) for each x in nums, as
    gcd(x, h) divides x and h, which divides den, and g = gcd(x, den)
    divides x, so P, and den, so P mod den, so h.  h is usually small, so
    few g occur, and each one's "/q" text is built once."""
    prod = 1
    for x in nums:
        prod = prod * x % den
    h = math.gcd(den, prod)
    gs = [math.gcd(x, h) for x in nums]
    tails = {g: ("" if g == den else f"/{_int_text(den // g)}") for g in set(gs)}
    return [_int_text(x // g) + tails[g] for x, g in zip(nums, gs)]


def format_rational(q: Rational | Dyadic) -> str:
    """Serialize in lowest terms: "p/q", or "p" when the denominator is 1.

    A numerator or denominator of magnitude >= HEX_FROM is written as 0x hex
    ("-0x.../0x..."); everything smaller is plain decimal.  q must be an
    int, a Fraction or a Dyadic, whose lowest terms an equal Fraction
    shares, so both write the same text; anything else, a float included,
    raises TypeError.
    """
    if not isinstance(q, (int, Fraction, Dyadic)):
        raise TypeError(f"format_rational requires an int, Fraction or Dyadic, got {type(q).__name__}")
    if q.denominator == 1:
        return _int_text(q.numerator)
    return f"{_int_text(q.numerator)}/{_int_text(q.denominator)}"


# The one grammar of a rational's text, matched lowercased: a sign, then "p"
# or "p/q", each part 0x hex or ASCII decimal, or else a decimal with a
# point or an exponent (Fraction would also read "_" and Unicode digits).
# Groups: sign, p, q, and the decimal's whole part, point digits, exponent.
_RATIONAL = re.compile(r"\s*([+-]?)(?:(0x[0-9a-f]+|[0-9]+)(?:/(0x[0-9a-f]+|[0-9]+))?"
                       r"|(?=\.?[0-9])([0-9]*)(?:\.([0-9]*))?(?:e([+-]?[0-9]+))?)\s*")


def _quote(text: object) -> str:
    """text in an error line: its repr, or for a str past 80 characters its
    first and last 20 around "..." and then its length, so a refused
    4301-digit part costs one short line, not four kilobytes."""
    if isinstance(text, str) and len(text) > 80:
        return f"{text[:20] + '...' + text[-20:]!r} ({len(text)} characters)"
    return repr(text)


def _part(digits: str, text: str, advice: str = "; write it in 0x hex") -> int:
    """One part of text: 0x hex, or decimal of at most STR_DIGITS digits,
    the most CPython converts by default (and fast); else ValueError."""
    if "x" in digits:
        return int(digits, 16)
    if len(digits) > STR_DIGITS:
        raise ValueError(f"decimal part past {STR_DIGITS} digits in {_quote(text)}{advice}")
    return int(digits)


def parse_rational(text: str) -> Fraction:
    """Inverse of format_rational: text's value, built from its _RATIONAL
    groups.  ValueError on malformed text, a zero denominator, a decimal part
    past STR_DIGITS digits, and an exponent past STR_DIGITS in magnitude or
    digits, which would expand in full ("1e999999999": a billion digits)."""
    if (match := _RATIONAL.fullmatch(text.lower())) is None:
        raise ValueError(f"malformed rational {_quote(text)}")
    sign, num, den, whole, point, exp = match.groups()
    if num is not None:
        num, den = _part(num, text), _part(den, text) if den else 1
        if not den:
            raise ValueError(f"zero denominator in {_quote(text)}")
    else:  # whole.point times 10^exp
        if exp and (len(exp.lstrip("+-")) > STR_DIGITS or abs(int(exp)) > STR_DIGITS):
            raise ValueError(f"exponent past {STR_DIGITS} in magnitude in {_quote(text)}")
        point, shift = point or "", int(exp or 0)
        num = _part(whole or "0", text) * 10 ** len(point) + _part(point or "0", text)
        num, den = num * 10 ** max(0, shift - len(point)), 10 ** max(0, len(point) - shift)
    return Fraction(-num if sign == "-" else num, den)


def coordinate(k: object) -> int:
    """A generator coordinate key: an int (not a bool), or text that is one
    decimal part "p" of the _RATIONAL grammar; else ValueError."""
    if type(k) is int:
        return k
    match = _RATIONAL.fullmatch(k) if isinstance(k, str) else None
    if not (match and match[2] and match[2].isdigit() and match[3] is None):
        raise ValueError(f"malformed coordinate {_quote(k)}")
    return _part(match[2], k, "") * (-1 if match[1] == "-" else 1)


def _object(pairs: list[tuple[str, object]]) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen: set[str] = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))  # the first key given twice
        raise ValueError(f"key {_quote(key)} given twice")
    return doc


class Number:
    """A JSON number literal (NaN and the infinities included) as the file
    wrote it; rational reads its value where the document is walked, so a
    refused literal is reported where it stands, as the same text quoted
    would be, and is never a float."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


# The one reader of every input file: each number is kept as its Number
# text; ValueError on malformed JSON and on a key repeated in one object.
read_json = json.JSONDecoder(parse_float=Number, parse_int=Number, parse_constant=Number,
                             object_pairs_hook=_object).decode


_JSON_TYPES = {type(None): "null", bool: "boolean", Fraction: "number", int: "number", Number: "number",
               list: "array", dict: "object"}


def describe(v: object) -> str:
    """v in an error line: a str by _quote, a float by its repr, any other
    value by the name of its JSON type (of its Python type outside JSON)."""
    if isinstance(v, str):
        return _quote(v)
    return f"float {v!r}" if isinstance(v, float) else _JSON_TYPES.get(type(v), type(v).__name__)


def rational(v: object, entry: str) -> Fraction:
    """v as a Fraction: a Fraction unchanged, an int exactly, a str or a
    Number through parse_rational of its text; anything else (a bool, a
    float) is a TypeError naming entry."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, str):
        return parse_rational(v)
    if isinstance(v, Number):
        return parse_rational(v.text)
    if type(v) is int:  # not a bool
        return Fraction(v)
    raise TypeError(f"{entry} requires int, Fraction or str values, got {describe(v)}")


def rationals(v: object, entry: str) -> list[Fraction]:
    """A list v as a list of rational values; anything else raises TypeError."""
    if not isinstance(v, list):
        raise TypeError(f"{entry} must be a list, got {describe(v)}")
    return [rational(x, entry) for x in v]


_A_TYPE = {str: "a string", list: "a list", dict: "an object"}


def fields(doc: object, what: str, **spec: tuple[type, object]) -> list:
    """The one key check of every input object: the values of doc's keys in
    the order of spec, key=(type, default), object for a value its reader
    checks, default ... for a required key.  ValueError when doc is no
    object, or a key is not in spec, missing, or of another type."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be an object, got {describe(doc)}")
    if unknown := [key for key in doc if key not in spec]:
        raise ValueError(f"unknown {what} key {_quote(unknown[0])}; a {what} reads {', '.join(spec)}")
    values = []
    for key, (kind, default) in spec.items():
        if (v := doc.get(key, default)) is ...:
            raise ValueError(f"{what} has no {key!r} key")
        if not isinstance(v, kind):
            raise ValueError(f"{key} must be {_A_TYPE[kind]}, got {describe(v)}")
        values.append(v)
    return values


def decimal_str(q: Rational | Dyadic) -> str | None:
    """Decimal expansion with exactly DIGITS fractional digits (truncated
    toward zero).  A whole part of magnitude >= HEX_FROM has no decimal
    form a reader's str<->int conversion accepts, so it gives None (JSON
    null); the report's exact sibling field carries the value.  The cut
    reads the integer whole part, so a 2^n denominator is never multiplied
    by HEX_FROM, and a Dyadic's power of two is divided out by a shift.  q
    must be an int, a Fraction or a Dyadic, as in format_rational."""
    if isinstance(q, Dyadic):
        scaled = abs(q.num) * 10**DIGITS // q.odd >> q.exp
    elif isinstance(q, (int, Fraction)):
        scaled = abs(q.numerator) * 10**DIGITS // q.denominator
    else:
        raise TypeError(f"decimal_str requires an int, Fraction or Dyadic, got {type(q).__name__}")
    return _decimal(scaled, "-" if q.numerator < 0 else "")


def _decimal(scaled: int, sign: str = "") -> str | None:
    """decimal_str's cut: sign and scaled / 10^DIGITS with DIGITS fractional
    digits, scaled >= 0 a magnitude times 10^DIGITS, truncated; None when
    the whole part is HEX_FROM or more."""
    whole, frac = divmod(scaled, 10**DIGITS)
    if whole >= HEX_FROM:
        return None
    return f"{sign}{whole}.{frac:0{DIGITS}d}"


_SCALARS = {str, int, float, bool, type(None)}
_INDENT = "  "


@functools.cache
def _flat_encoder(depth: int):
    """The C encoder of a scalar or a flat container whose items sit at depth."""
    return c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii, None,
                          ": ", ",\n" + _INDENT * depth, False, False, True)


def _key(k) -> str:
    """A dict key as json.dumps writes it: a str, or the JSON text of an
    int, float, bool or None, in quotes; any other key raises TypeError."""
    if not isinstance(k, str):
        if not isinstance(k, (int, float)) and k is not None:
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
        k = json.dumps(k)
    return encode_basestring_ascii(k)


def _encode(o, depth: int, out: list[str]) -> None:
    """Append the indent=2 text of o, nested depth levels deep, to out."""
    is_dict = isinstance(o, dict)
    items = o.values() if is_dict else o if isinstance(o, (list, tuple)) else ()
    pad, inner = "\n" + _INDENT * depth, "\n" + _INDENT * (depth + 1)
    if not items or set(map(type, items)) <= _SCALARS:
        text = "".join(_flat_encoder(depth + 1)(o, 0))
        out.append(f"{text[0]}{inner}{text[1:-1]}{pad}{text[-1]}" if items else text)
        return
    heads = [f"{_key(k)}: " for k in o] if is_dict else [""] * len(items)
    out.append("{" if is_dict else "[")
    for i, (head, v) in enumerate(zip(heads, items)):
        out.append(f"{',' if i else ''}{inner}{head}")
        _encode(v, depth + 1, out)
    out.append(pad + ("}" if is_dict else "]"))


def write_json(path: str, doc: dict) -> None:
    """Write json.dumps(doc, indent=2) and a newline, through _encode."""
    out: list[str] = []
    _encode(doc, 0, out)
    out.append("\n")
    Path(path).write_text("".join(out), encoding="utf-8")


def sup_texts(sup: Dyadic) -> tuple[str, str | None, str, str | None]:
    """The verify row's sup, sup_decimal, tensor_sup and tensor_sup_decimal
    of c_n, which rows 2j and 2j + 1 share.

    sup is the Dyadic c_n = num / 2^e, num odd, with e = 2j + 1 - s(j) >= 1
    for j = floor(n/2) and s the binary digit sum, since s(j) <= j.  So
    2 c_n = num / 2^(e-1): both exact fields share num's text, and both
    decimals num 10^DIGITS."""
    num, e = sup.num, sup.exp
    num_text, scaled = _int_text(num), num * 10**DIGITS
    return (f"{num_text}/{_int_text(1 << e)}", _decimal(scaled >> e),
            num_text if e == 1 else f"{num_text}/{_int_text(1 << e - 1)}", _decimal(scaled >> e - 1))


def verify_row(n, texts, lower_ok, upper_ok, bound2, brute_sup, brute_matches, bound3) -> dict:
    """One verify row from the values and verdicts that vary, in key order;
    texts is sup_texts of the row's c_n.  The other fields hold by
    construction and are written as the constants they are: each of the
    n 2^n atoms weighs 1/(n 2^n) in magnitude, and the tensor supremum
    2 c_n >= c_n >= 0; the tests check both on the atoms."""
    sup, sup_decimal, tensor_sup, tensor_sup_decimal = texts
    return {
        "n": n,
        "total_variation": "1",
        "tv_ok": True,
        "support_size": _int_text(n << n),
        "support_ok": True,
        "sup": sup,
        "sup_decimal": sup_decimal,
        "lower_ok": lower_ok.value,
        "upper_ok": upper_ok.value,
        "bound2": bound2,
        "brute_sup": None if brute_sup is None else format_rational(brute_sup),
        "brute_matches": brute_matches,
        "tensor_sup": tensor_sup,
        "tensor_sup_decimal": tensor_sup_decimal,
        "bound3": bound3,
        "tensor_ge_rect": True,
    }


def verify_report(n_max: int, brute_max: int, explicit_max: int, rows: list[dict], overall: str) -> dict:
    config = {"n_max": n_max, "brute_max": brute_max, "explicit_max": explicit_max}
    return {"config": config, "checks": rows, "overall": overall}


def sup_report(rect: RectangleSupReport, lower_ok: Cmp, upper_ok: Cmp, bound2: str) -> dict:
    """The supremum with its witness rule and its certified comparisons:
    bound2 last."""
    columns, max_minus = rect.witness
    return {"n": rect.n, "sup": format_rational(rect.sup), "sup_decimal": decimal_str(rect.sup),
            "witness": {"columns": columns, "max_minus": max_minus},
            "lower_ok": lower_ok.value, "upper_ok": upper_ok.value, "method": rect.method, "bound2": bound2}


def schauder_report(density: DensityResult, basis: TriangularBasis | None,
                    expansions: list[CoeffExpansion]) -> dict:
    """The density check, then the basis (None short of density, the one
    FAIL) and the expansions."""
    d = density
    return {
        "density": {"status": d.status, "m": d.m, "rank": d.rank, "failing": list(d.failing),
                    "pivot_generators": list(d.pivot_generators)},
        "basis": None if basis is None else basis_to_json(basis),
        "expansions": [expansion_to_json(exp) for exp in expansions],
        "overall": "FAIL" if basis is None else "PASS",
    }


def basis_to_json(basis: TriangularBasis) -> dict:
    vectors = []
    for vec in basis.vectors:
        coords = ["0"] * basis.horizon
        for (k, _), text in zip(vec.entries, format_ratios([x for _, x in vec.entries], vec.den)):
            coords[k - 1] = text
        weights = format_ratios([w for _, w in vec.combination], vec.weight_den)
        vectors.append({
            "coords": coords,
            "combination": {str(c): text for (c, _), text in zip(vec.combination, weights)},
            "support_size": len(vec.entries),
        })
    return {"horizon": basis.horizon, "vectors": vectors}


def expansion_to_json(exp: CoeffExpansion) -> dict:
    return {
        "coefficients": [format_rational(a) for a in exp.coefficients],
        "stabilization_log": list(exp.stabilization_log),
        "target": [format_rational(v) for v in exp.target],
        # expand logs each coordinate stable from N' = m on (schauder.expand)
        "grid_all_true": True,
    }


def combo_row(row: ComboRow) -> dict:
    return {
        "combo": row.combo,
        "norm_bound": format_rational(row.norm_bound),
        "partial_sums": [format_rational(p) for p in row.partial_sums],
        "partial_sums_decimal": [decimal_str(p) for p in row.partial_sums],
        "verdict": row.verdict,
    }


def subseq_report(result: SubseqReport) -> dict:
    return {
        "certificate": certificate_to_json(result.certificate),
        "rows": [combo_row(row) for row in result.rows],
        "verdict": result.verdict,
        "disclaimer": DISCLAIMER,
    }


def certificate_to_json(cert: SubseqCertificate) -> dict:
    return {
        "rule": GREEDY_RULE,
        "indices": list(cert.indices),
        "partial_sum_upper": format_rational(cert.partial_sum_upper),
        "tail_bound": format_rational(cert.tail_bound),
    }


def section_report(section: FiniteSection, k: Fraction, per_m: list[Fraction]) -> dict:
    """A section with its basis constant k and per-m projection norms."""
    return {
        "n_functionals": section.n_functionals,
        "n_tests": section.n_tests,
        "values": [[format_rational(v) for v in row] for row in section.rows],
        "basis_constant": decimal_str(k),
        "per_m_projection_norms": [decimal_str(v) for v in per_m],
        "basis_constant_exact": format_rational(k),
        "per_m_projection_norms_exact": [format_rational(v) for v in per_m],
        "caveat": CAVEAT,
    }
