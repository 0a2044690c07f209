"""Exact supremum of |measure(A x B)| over rectangles, with certification.

By atomicity the supremum over arbitrary product sets equals the supremum
over A a set of rows and B a set of columns of the support grid, so
rectangles are bitsets.  Two routes compute it:

* a brute-force oracle enumerating every (A, B) pair (n <= 4): for each
  column set B the subset sums over all row sets A are one bytes table,
  doubled per row by translate, and searched for the largest |sum|, and
* a closed form.  For fixed B with |B| = b, linearity in the indicator of
  A plus the +/- mirror symmetry of the full sign cube make
  A* = {rows with positive partial sum over B} optimal, and the row sums
  over B realize each pattern of b independent signs exactly 2^(n-b)
  times, so the supremum at width b is E[S_b^+] / n for a walk S_b of b
  independent +/-1 steps.  E[S_b^+] = b * C(b-1, floor((b-1)/2)) / 2^b
  does not decrease in b and ties only at b = 2k-1, 2k, so the widest
  rectangles win:

      sup = C(n-1, floor((n-1)/2)) / 2^n = C(2j, j) / 2^(2j+1),  j = floor(n/2),

  attained first at b = n for odd n and b = n-1 for even n.

The closed form is never trusted on derivation alone: the tests check it
against the brute-force oracle (n <= 4) and the per-width sums (n <= 300),
and it is certified against 1/(2 sqrt(pi n)) < sup < 2/sqrt(pi n) at
every n.

For explicit measures the witness A* is built as a bitset over sign
patterns one byte (eight patterns) at a time, with no loop over the 2^n
rows (sup_rect_fast), and KSMeasure.by_row maps it to rows.
Both routes read the rows only through KSMeasure.row_pattern and by_row,
so the tests also run them on row-permuted and repeated-row tables, a test
oracle (tests/oracles.py); the package builds only the canonical measure.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple

from .exactnum import Cmp, Dyadic, cmp_sq_below
from .ks_measure import KSMeasure

BRUTE_MAX_N = 4
# _ADD[d] maps byte c to c + d mod 256, for the shifts the code reads: the
# brute force's row sums, |d| <= n <= BRUTE_MAX_N, and the witness's +1
_ADD = {
    d: bytes(range(d % 256, 256)) + bytes(range(d % 256))
    for d in range(-BRUTE_MAX_N, BRUTE_MAX_N + 1)
}
# byte of a zero subset sum; |sum| <= n * 2^n <= 64 for n <= BRUTE_MAX_N, so
# _OFF + sum lies in 0..128 and no byte wraps
_OFF = 64

PASS = "PASS"
FAIL = "FAIL"
UNDECIDED = "UNDECIDED"


class Rectangle(NamedTuple):
    """A x B as bitsets: bit s of row_bits selects row s, likewise columns."""

    row_bits: int
    col_bits: int


class RectangleSupReport(NamedTuple):
    n: int
    sup: Fraction | Dyadic  # Fraction from the brute force, Dyadic from the closed form
    witness: Rectangle | None
    method: str  # "BruteForce" | "FastPath"


def certify_run(sup: Fraction | Dyadic, first: int, last: int) -> list[tuple[Cmp, Cmp]]:
    """(lower_ok, upper_ok) at each n = first..last: sup against
    1/(2 sqrt(pi n)) and 2/sqrt(pi n).

    cmp_sq_below is CERT_LT iff r^2 n A < B, and otherwise CERT_GT iff
    r^2 n C > D, with A >= C > 0 from pi's enclosure; both sides grow with
    n.  So a CERT_GT at first holds at every larger n, and a CERT_LT at
    last at every smaller n: the lower comparison is made at first, the
    upper at last, and a verdict these two do not give by its own call.
    """
    lower = functools.partial(cmp_sq_below, sup, 1, 2)  # want CERT_GT vs 1/(2 sqrt(pi n))
    upper = functools.partial(cmp_sq_below, sup, 2, 1)  # want CERT_LT vs 2/sqrt(pi n)
    low, up = lower(first), upper(last)
    return [(low if low is Cmp.CERT_GT or n == first else lower(n),
             up if up is Cmp.CERT_LT or n == last else upper(n)) for n in range(first, last + 1)]


def certify_pair(sup: Fraction | Dyadic, n: int) -> tuple[Cmp, Cmp]:
    """(lower_ok, upper_ok) at n: certify_run's one-index case."""
    return certify_run(sup, n, n)[0]


def sup_rect_bruteforce(m: KSMeasure) -> RectangleSupReport:
    """Exhaustive maximum of |measure(A x B)| over all 2^(2^n) * 2^n rectangles.

    For each B, byte A of the table t is _OFF plus the signed count over
    A x B: appending t shifted by row i's signed count sets bit i of A.  The
    largest |sum| is the largest v with _OFF + v or _OFF - v in t.  Ties
    are broken by the lexicographically smallest (B, A) bit pattern, which
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
        t = bytes([_OFF])
        for d in sig:
            t += t.translate(_ADD[d])
        v = sum(map(abs, sig))
        while _OFF + v not in t and _OFF - v not in t:
            v -= 1
        if v > best:
            best = v
            hits = [i for i in (t.find(_OFF + v), t.find(_OFF - v)) if i >= 0]
            best_rect = Rectangle(min(hits), col_bits)
    return RectangleSupReport(n=n, sup=Fraction(best, n << n), witness=best_rect, method="BruteForce")


def sup_rect_fast(m: KSMeasure) -> RectangleSupReport:
    """Closed-form supremum c_n = C(2j, j) / 2^(2j+1), j = floor(n/2), the
    measure's Dyadic central_mass.

    Works at every index.  A witness (B = first b columns, A = rows with
    positive partial sum, i.e. fewer than b/2 minus signs there) is
    materialized only for explicit measures, for the smallest maximizing
    width b.  Patterns 8h..8h+7 share their bits from 3 up, so byte h of
    A's bitset over the 2^b patterns is the mask of the p < 8 with
    popcount(p) + c < b/2, c the minus count of h.  Those counts double
    b - 3 times (h with bit k set counts one more), one translate maps
    them to masks, and the bytes read as one little-endian integer; for
    even n the column outside B repeats it 2^b bits up.  At b = 1 the one
    byte h = 0 holds the mask of pattern 0 alone.  by_row maps the bitset
    over patterns to rows.
    """
    n = m.n
    witness: Rectangle | None = None
    if m.is_explicit():
        b = n if n % 2 else n - 1
        minus = b"\0"
        for _ in range(b - 3):
            minus += minus.translate(_ADD[1])  # counts stay <= b - 3, so none wraps
        below = (b + 1) // 2  # counts c with 2c < b
        masks = bytes(sum(1 << p for p in range(8) if p.bit_count() + c < below) for c in range(below))
        rows = int.from_bytes(minus.translate(masks + bytes(256 - below)), "little")
        if b < n:
            rows |= rows << (1 << b)
        witness = Rectangle(m.by_row(rows), (1 << b) - 1)
    return RectangleSupReport(n=n, sup=m.central_mass, witness=witness, method="FastPath")


def bound2_verdict(lower_ok: Cmp, upper_ok: Cmp) -> str:
    """The bound2 verdict of a (lower_ok, upper_ok) pair of comparisons."""
    if lower_ok is Cmp.UNDECIDED or upper_ok is Cmp.UNDECIDED:
        return UNDECIDED
    if lower_ok is Cmp.CERT_GT and upper_ok is Cmp.CERT_LT:
        return PASS
    return FAIL
