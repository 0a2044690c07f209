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

The witness names that maximizer at every n: B = the first b = (n - 1) | 1
columns and A = the rows with at most (b - 1)/2 minus signs on B
(RectangleSupReport.witness), and a report writes its two integers.  The
brute force reads the rows only through KSMeasure.row_pattern, so the tests
also run it on row-permuted and repeated-row tables, and materialize the
rule on them, in a test oracle (tests/oracles.py); the package builds only
the canonical measure.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple

from .exactnum import Cmp, Dyadic, cmp_sq_below
from .ks_measure import KSMeasure

BRUTE_MAX_N = 4
# _ADD[d] maps byte c to c + d mod 256, for the brute force's row sums,
# |d| <= n <= BRUTE_MAX_N
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


class RectangleSupReport(NamedTuple):
    n: int
    sup: Fraction | Dyadic  # Fraction from the brute force, Dyadic from the closed form
    method: str  # "BruteForce" | "FastPath"

    @property
    def witness(self) -> tuple[int, int]:
        """(b, k): B = the first b columns, A = the rows with at most k minus
        signs on B, under any bijection of the rows onto the sign cube.
        b = (n - 1) | 1 is the smallest maximizing width (n for odd n, n - 1
        for even n) and k = (b - 1)/2, so A is the rows with positive
        partial sum over B."""
        b = (self.n - 1) | 1
        return b, (b - 1) // 2


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
    largest |sum| is the largest v with _OFF + v or _OFF - v in t.  Guarded
    at n <= 4.
    """
    n = m.n
    if n > BRUTE_MAX_N:
        raise ValueError(f"brute force limited to n <= {BRUTE_MAX_N}, got n={n}")
    rows = m.rows
    best = 0
    for col_bits in range(1 << n):
        b = col_bits.bit_count()
        sig = [b - 2 * (m.row_pattern(s) & col_bits).bit_count() for s in range(rows)]
        t = bytes([_OFF])
        for d in sig:
            t += t.translate(_ADD[d])
        v = sum(map(abs, sig))
        while _OFF + v not in t and _OFF - v not in t:
            v -= 1
        best = max(best, v)
    return RectangleSupReport(n=n, sup=Fraction(best, n << n), method="BruteForce")


def sup_rect_fast(m: KSMeasure) -> RectangleSupReport:
    """Closed-form supremum c_n = C(2j, j) / 2^(2j+1), j = floor(n/2), the
    measure's Dyadic central_mass.  Works at every index."""
    return RectangleSupReport(n=m.n, sup=m.central_mass, method="FastPath")


def bound2_verdict(lower_ok: Cmp, upper_ok: Cmp) -> str:
    """The bound2 verdict of a (lower_ok, upper_ok) pair of comparisons."""
    if lower_ok is Cmp.UNDECIDED or upper_ok is Cmp.UNDECIDED:
        return UNDECIDED
    if lower_ok is Cmp.CERT_GT and upper_ok is Cmp.CERT_LT:
        return PASS
    return FAIL
