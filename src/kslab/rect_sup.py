"""Exact supremum of |measure(A x B)| over rectangles, with certification.

By atomicity the supremum over arbitrary product sets equals the supremum
over A a set of rows and B a set of columns of the support grid, so
rectangles are bitsets.  Two routes compute it:

* a brute-force oracle enumerating every (A, B) pair (n <= 4), and
* a closed form.  For fixed B with |B| = b, linearity in the indicator of
  A plus the +/- mirror symmetry of the full sign cube make
  A* = {rows with positive partial sum over B} optimal, and the row sums
  over B realize each pattern of b independent signs exactly 2^(n-b)
  times, so the supremum at width b is E[S_b^+] / n for a walk S_b of b
  independent +/-1 steps.  E[S_b^+] = b * C(b-1, floor((b-1)/2)) / 2^b
  does not decrease in b and ties only at b = 2k-1, 2k, so the widest
  rectangles win:

      sup = C(n-1, floor((n-1)/2)) / 2^n,

  attained first at b = n for odd n and b = n-1 for even n.

The closed form is never trusted on derivation alone: the tests check it
against the brute-force oracle (n <= 4) and the per-width sums (n <= 300),
and it is certified against 1/(2 sqrt(pi n)) < sup < 2/sqrt(pi n) at
every n.

For explicit measures the witness A* is a bytes table over sign patterns
read as one base-2 integer, with no loop over the 2^n rows (sup_rect_fast).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactnum import PI, Cmp, Rational, cmp_sq_below, decimal_str, format_rational
from .ks_measure import KSMeasure

BRUTE_MAX_N = 4
# byte c -> c + 1; minus counts stay <= EXPLICIT_MAX_N, so none wraps
_INC = bytes(range(1, 256)) + b"\0"

PASS = "PASS"
FAIL = "FAIL"
UNDECIDED = "UNDECIDED"


@dataclass(frozen=True)
class Rectangle:
    """A x B as bitsets: bit s of row_bits selects row s, likewise columns."""

    row_bits: int
    col_bits: int


@dataclass(frozen=True)
class RectangleSupReport:
    n: int
    sup: Rational
    witness: Rectangle | None
    lower_ok: Cmp
    upper_ok: Cmp
    method: str  # "BruteForce" | "FastPath"


def rect_mass(m: KSMeasure, r: Rectangle) -> Rational:
    """scale * sum over selected atoms of sign(s, j); exact, sign retained."""
    if not (0 <= r.row_bits < (1 << m.rows)):
        raise ValueError(f"row bitset exceeds width 2^{m.rows}")
    if not (0 <= r.col_bits < (1 << m.n)):
        raise ValueError(f"column bitset exceeds width {m.n}")
    b = r.col_bits.bit_count()
    total = 0
    # walk the row bitset bytewise: mutating a 2^n-bit integer per row would
    # be quadratic in the number of rows
    data = r.row_bits.to_bytes((m.rows + 7) // 8, "little")
    for byte_idx, byte in enumerate(data):
        base = byte_idx * 8
        while byte:
            low = byte & -byte
            s = base + low.bit_length() - 1
            byte ^= low
            minus = (m.row_pattern(s) & r.col_bits).bit_count()
            total += b - 2 * minus
    return total * m.scale


def _certify_pair(sup: Rational, n: int) -> tuple[Cmp, Cmp]:
    lower_ok = cmp_sq_below(sup, 1, 2, PI, n)  # want CERT_GT vs 1/(2 sqrt(pi n))
    upper_ok = cmp_sq_below(sup, 2, 1, PI, n)  # want CERT_LT vs 2/sqrt(pi n)
    return lower_ok, upper_ok


def sup_rect_bruteforce(m: KSMeasure) -> RectangleSupReport:
    """Exhaustive maximum of |rect_mass| over all 2^(2^n) * 2^n rectangles.

    Ties broken by the lexicographically smallest (B, A) bit pattern, which
    is the natural iteration order.  Guarded at n <= 4.
    """
    n = m.n
    if n > BRUTE_MAX_N:
        raise ValueError(f"brute force limited to n <= {BRUTE_MAX_N}, got n={n}")
    rows = m.rows
    best = -1
    best_rect = Rectangle(0, 0)
    for col_bits in range(1 << n):
        b = col_bits.bit_count()
        sig = [b - 2 * (m.row_pattern(s) & col_bits).bit_count() for s in range(rows)]
        # subset sums over A: T[A] enumerates every row subset
        t = np.zeros(1 << rows, dtype=np.int64)
        for i in range(rows):
            size = 1 << i
            t[size : 2 * size] = t[:size] + sig[i]
        absT = np.abs(t)
        vmax = int(absT.max())
        if vmax > best:
            best = vmax
            best_rect = Rectangle(int(np.argmax(absT == vmax)), col_bits)
    sup = Fraction(best, n << n)
    lower_ok, upper_ok = _certify_pair(sup, n)
    return RectangleSupReport(
        n=n, sup=sup, witness=best_rect, lower_ok=lower_ok, upper_ok=upper_ok,
        method="BruteForce",
    )


def sup_rect_fast(m: KSMeasure) -> RectangleSupReport:
    """Closed-form supremum C(n-1, floor((n-1)/2)) / 2^n.

    Works at every index.  A witness (B = first b columns, A = rows with
    positive partial sum, i.e. fewer than b/2 minus signs there) is
    materialized only for explicit measures, for the smallest maximizing
    width b.  The minus counts of the 2^b patterns double b times (patterns
    with bit k set count one more), a threshold table maps them to ASCII
    '1'/'0', repeated 2^(n-b) times for the columns outside B; reindexed by
    row and reversed (row 0 last), the table parses as a base-2 integer.
    """
    n = m.n
    sup = m.central_mass

    witness: Rectangle | None = None
    if m.is_explicit():
        b = n if n % 2 else n - 1
        minus = b"\0"
        for _ in range(b):
            minus += minus.translate(_INC)
        below = (b + 1) // 2  # counts c with 2c < b
        member = minus.translate(b"1" * below + b"0" * (256 - below)) * (1 << (n - b))
        witness = Rectangle(int(m.by_row(member)[::-1], 2), (1 << b) - 1)

    lower_ok, upper_ok = _certify_pair(sup, n)
    return RectangleSupReport(
        n=n, sup=sup, witness=witness, lower_ok=lower_ok, upper_ok=upper_ok,
        method="FastPath",
    )


def bound2_verdict(lower_ok: Cmp, upper_ok: Cmp) -> str:
    """The bound2 verdict of a (lower_ok, upper_ok) pair of comparisons."""
    if lower_ok is Cmp.UNDECIDED or upper_ok is Cmp.UNDECIDED:
        return UNDECIDED
    if lower_ok is Cmp.CERT_GT and upper_ok is Cmp.CERT_LT:
        return PASS
    return FAIL


def certify_bound2(report: RectangleSupReport) -> str:
    """PASS iff 1/(2 sqrt(pi n)) < sup < 2/sqrt(pi n), both rationally
    certified; UNDECIDED signals an insufficient enclosure.  Re-derived from
    sup, not read from the report's recorded comparisons."""
    if report.sup < 0:
        raise ValueError("supremum must be nonnegative")
    return bound2_verdict(*_certify_pair(report.sup, report.n))


def report_to_json(report: RectangleSupReport) -> dict:
    witness = None
    if report.witness is not None:
        witness = {
            "A_bits": hex(report.witness.row_bits),
            "B_bits": hex(report.witness.col_bits),
        }
    return {
        "n": report.n,
        "sup": format_rational(report.sup),
        "sup_decimal": decimal_str(report.sup),
        "witness": witness,
        "lower_ok": report.lower_ok.value,
        "upper_ok": report.upper_ok.value,
        "method": report.method,
    }
