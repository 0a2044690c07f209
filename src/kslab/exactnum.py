"""Exact rational arithmetic and rigorous comparisons against c / sqrt(pi * n).

Every certified claim in this package reduces to a comparison between a
nonnegative rational and a constant of the form (c_num/c_den) / sqrt(pi * n).
Squaring both sides removes the square root, so exact integer arithmetic
against a fixed rational enclosure of pi decides it; no root of pi is taken.
cmp_sq_below decides every such comparison, subseq's bound (n = 1) too,
on a numerator's leading 64 bits unless the value lies within about 2^-60
of a threshold.  No floating point ever enters a certification path.

central_binomial gives C(m, floor(m/2)), the numerator of every c_n, from
the even central binomial E(j) = C(2j, j), j = ceil(m/2): E(j) itself for
even m and half of it for odd m, so m = 2j - 1 and m = 2j share one E(j).
E(j) is one Pascal step from E(j - 1) when j follows the previous call's
j, and otherwise its prime factorization on one shared sieve, multiplied
by a balanced product tree: Legendre's exponent for each prime up to
sqrt(2j), and above it whole slices of the sieve, the primes that enter
once by Kummer's carry count.
Dyadic holds c_n and every closed-form value built from it over a power of
two times a small odd part, so no value pays a gcd of its huge numerator
and denominator.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import math
import numbers
import operator
from fractions import Fraction

Rational = Fraction


class Cmp(enum.Enum):
    """Outcome of a one-sided certified comparison."""

    CERT_LT = "CERT_LT"
    CERT_GT = "CERT_GT"
    UNDECIDED = "UNDECIDED"


class PiEnclosure:
    """A rational interval lower < pi < upper, strict on both sides."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower: Rational, upper: Rational):
        if not (0 < lower < upper):
            raise ValueError("enclosure must satisfy 0 < lower < upper")
        if upper - lower > Fraction(1, 10**12):
            raise ValueError("enclosure wider than 1e-12")
        self.lower, self.upper = lower, upper


# 3.141592653589793 < pi = 3.14159265358979323846... < 3.141592653589794.
# Width 1e-15; the certified inequalities are never tight within 1e-2 at the
# scales this package computes, so a fixed enclosure suffices.
PI = PiEnclosure(
    lower=Fraction(3141592653589793, 10**15),
    upper=Fraction(3141592653589794, 10**15),
)


def _twos(x: int) -> int:
    """The exponent of 2 in x != 0: its count of trailing zero bits."""
    return (x & -x).bit_length() - 1


def _compare(op):
    """A Dyadic comparison method: op on the two operands over one
    denominator, or NotImplemented for an operand of another type."""

    def method(self: Dyadic, other) -> bool:
        a = self._align(other)
        return NotImplemented if a is None else op(a[0], a[1])

    return method


class Dyadic:
    """An exact rational num / (odd * 2^exp) in lowest terms: odd > 0 is
    odd, exp >= 0, num is odd when exp > 0, and gcd(num, odd) = 1.

    Every closed-form value is a + b c_n with c_n = C / 2^n, so its
    denominator is a power of two times a small odd part.  Reducing one
    takes a trailing-zero count and a gcd with the odd part alone, where a
    Fraction takes a gcd of the whole numerator and denominator, a million
    bits each at n = 10^6.  It is registered as a numbers.Rational whose
    numerator and denominator are the lowest terms, so Fraction(d)
    converts with no gcd; +, -, *, abs, == and the orderings mix it with
    int and Fraction operands.
    """

    __slots__ = ("num", "odd", "exp")

    def __init__(self, num: int, den: int = 1, exp: int = 0):
        """num / (den * 2^exp) for any int den != 0 and exp >= 0."""
        if den == 0:
            raise ZeroDivisionError("Dyadic with a zero denominator")
        if den < 0:
            num, den = -num, -den
        t = _twos(den)
        den, exp = den >> t, exp + t
        if num == 0:
            den, exp = 1, 0
        elif exp and not num & 1:
            t = min(_twos(num), exp)
            num, exp = num >> t, exp - t
        if den != 1:
            g = math.gcd(num, den)
            num, den = num // g, den // g
        self.num, self.odd, self.exp = num, den, exp

    numerator = property(lambda self: self.num)
    denominator = property(lambda self: self.odd << self.exp)

    def __repr__(self) -> str:
        return f"Dyadic({self.num}, {self.odd}, {self.exp})"

    def __hash__(self) -> int:
        return hash(Fraction(self))

    def __bool__(self) -> bool:
        return self.num != 0

    def __neg__(self) -> Dyadic:
        return Dyadic(-self.num, self.odd, self.exp)

    def __abs__(self) -> Dyadic:
        return self if self.num >= 0 else -self

    def _align(self, other) -> tuple[int, int, int, int] | None:
        """(x, y, odd, e) with self = x / (odd 2^e) and other = y / (odd 2^e),
        or None when other is not an int, Fraction or Dyadic."""
        if not isinstance(other, Dyadic):
            if not isinstance(other, (int, Fraction)):
                return None
            other = Dyadic(other.numerator, other.denominator)
        odd = self.odd if self.odd == other.odd else math.lcm(self.odd, other.odd)
        e = max(self.exp, other.exp)
        x = self.num * (odd // self.odd) << e - self.exp
        return x, other.num * (odd // other.odd) << e - other.exp, odd, e

    def __add__(self, other) -> Dyadic:
        a = self._align(other)
        return NotImplemented if a is None else Dyadic(a[0] + a[1], a[2], a[3])

    __radd__ = __add__

    def __sub__(self, other) -> Dyadic:
        a = self._align(other)
        return NotImplemented if a is None else Dyadic(a[0] - a[1], a[2], a[3])

    def __rsub__(self, other) -> Dyadic:
        a = self._align(other)
        return NotImplemented if a is None else Dyadic(a[1] - a[0], a[2], a[3])

    def __mul__(self, other) -> Dyadic:
        if isinstance(other, int):
            return Dyadic(self.num * other, self.odd, self.exp)
        if isinstance(other, Fraction):
            other = Dyadic(other.numerator, other.denominator)
        elif not isinstance(other, Dyadic):
            return NotImplemented
        return Dyadic(self.num * other.num, self.odd * other.odd, self.exp + other.exp)

    __rmul__ = __mul__
    __eq__, __lt__, __le__ = _compare(operator.eq), _compare(operator.lt), _compare(operator.le)
    __gt__, __ge__ = _compare(operator.gt), _compare(operator.ge)


numbers.Rational.register(Dyadic)


# (top, the primes up to top), shared by every central_binomial call of a
# run; a larger m regrows it to at least double, so a run sieves O(log m)
# times.  Each module-level cache is one tuple, read and replaced whole.
_sieve: tuple[int, list[int]] = (1, [])
# (j, C(2j, j)) of the last central_binomial call
_last = (0, 1)


def _primes_upto(m: int) -> list[int]:
    """The shared sieve's primes, every prime up to m among them."""
    global _sieve
    top, primes = _sieve
    if m > top:
        top = max(m, 2 * top)
        sieve = bytearray([1]) * (top + 1)
        sieve[:2] = b"\0\0"
        for p in range(2, math.isqrt(top) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(range(p * p, top + 1, p)))
        primes = list(itertools.compress(range(top + 1), sieve))
        _sieve = (top, primes)
    return primes


def _product(xs: list[int]) -> int:
    """Product by a balanced tree, so every multiplication pairs operands of
    similar size; each level multiplies neighbours in one map and carries
    an odd last entry up as it is."""
    while len(xs) > 2:
        xs = [*map(operator.mul, xs[::2], xs[1::2]), *xs[len(xs) & ~1 :]]
    return math.prod(xs)


def _factorized(e: int) -> int:
    """C(e, e/2) for even e >= 0 from its prime factorization.

    A prime p <= sqrt(e) enters with Legendre's exponent
    sum_i floor(e/p^i) - 2 floor(e/(2 p^i)).  A larger p has p^2 > e, so
    its exponent is floor(e/p) mod 2 (the carry count of Kummer's theorem
    in base p): the primes in (e/(q+1), e/q] for odd q, one slice of the
    sieve each, enter once and every other prime not at all.
    """
    primes, r, k = _primes_upto(e), math.isqrt(e), e // 2
    powers = []
    for p in primes[: bisect.bisect_right(primes, r)]:
        x, q = 0, p
        while q <= e:
            x += e // q - 2 * (k // q)
            q *= p
        if x:
            powers.append(p**x)
    q = 1
    while (hi := e // q) > r:
        lo = max(e // (q + 1), r)
        powers += primes[bisect.bisect_right(primes, lo) : bisect.bisect_right(primes, hi)]
        q += 2
    return _product(powers)


def central_binomial(m: int) -> int:
    """C(m, floor(m/2)) for m >= 0: E(j) = C(2j, j) with j = ceil(m/2)
    for even m, and E(j) / 2 = C(2j - 1, j - 1) for odd m.

    The call whose j follows the previous call's takes one Pascal step,
    E(j) = E(j-1) * (4j - 2) / j, an exact division; a call with the
    previous j reuses its E(j), and any other j is factorized
    (_factorized).
    """
    global _last
    if m < 0:
        raise ValueError(f"central_binomial requires m >= 0, got m={m}")
    j = (m + 1) // 2
    last_j, c = _last
    if j != last_j:
        c = c * (4 * j - 2) // j if j == last_j + 1 else _factorized(2 * j)
        _last = (j, c)
    return c >> 1 if m & 1 else c


def _cmp_exact(p: int, q2: int, ku: int, cu: int, kl: int, cl: int) -> Cmp:
    """cmp_sq_below's verdict from the whole square of p, for r^2 = p^2 / q2:
    CERT_LT iff p^2 ku < q2 cu, CERT_GT iff p^2 kl > q2 cl."""
    p2 = p * p
    if p2 * ku < q2 * cu:
        return Cmp.CERT_LT
    if p2 * kl > q2 * cl:
        return Cmp.CERT_GT
    return Cmp.UNDECIDED


def cmp_sq_below(r: Rational | Dyadic, c_num: int, c_den: int, n: int) -> Cmp:
    """Certified comparison of r >= 0 against (c_num/c_den) / sqrt(pi * n).

    Returns CERT_LT only when r^2 * PI.upper * n < (c_num/c_den)^2, which
    implies r < (c_num/c_den)/sqrt(pi*n); CERT_GT only when
    r^2 * PI.lower * n > (c_num/c_den)^2, which implies the reverse strict
    inequality; UNDECIDED when the enclosure is too coarse to decide.
    CERT_LT and CERT_GT are mutually exclusive by construction.
    Each side cross-multiplies integers, p^2 n c_den^2 a against
    c_num^2 q^2 d for r = p/q and pi's bound a/d, reducing no fraction;
    a Dyadic's q^2 is odd^2 shifted left by 2 exp bits, so no huge
    denominator is ever squared.  r must be an int, Fraction or Dyadic; a
    float, whose rounding would decide, raises TypeError.

    A numerator p past 64 bits is first bracketed by its leading bits, the
    floating-point filter of Shewchuk's adaptive predicates done in
    integers: with lo = p >> t, lo^2 <= p^2 / 4^t < (lo + 1)^2, and a side
    is decided when both ends of the bracket fall on one side of its
    threshold, the powers of two moved to one side as a shift.  Only a
    bracket that straddles a threshold, r within about 2^-60 of it
    relatively, squares p (_cmp_exact); c_n is decided on 64 bits at every n.
    """
    if not isinstance(r, (Dyadic, numbers.Rational)):
        raise TypeError(f"cmp_sq_below requires an int, Fraction or Dyadic r, got {type(r).__name__}")
    if n <= 0:
        raise ValueError(f"cmp_sq_below requires n >= 1, got n={n}")
    if r.numerator < 0:
        raise ValueError(f"cmp_sq_below requires r >= 0, got r={r}")
    if c_den == 0:
        raise ValueError("cmp_sq_below requires c_den != 0")
    if isinstance(r, Dyadic):
        p, q, e = r.num, r.odd, r.exp
    else:
        p, q, e = r.numerator, r.denominator, 0
    # r = p / (q 2^e): CERT_LT iff p^2 ku < q^2 4^e cu, CERT_GT iff p^2 kl > q^2 4^e cl
    k, c = n * c_den**2, c_num**2
    ku, cu = k * PI.upper.numerator, c * PI.upper.denominator
    kl, cl = k * PI.lower.numerator, c * PI.lower.denominator
    t = p.bit_length() - 64
    if t > 0:
        # over 4^t, p^2 lies in [lo^2, (lo+1)^2) and q^2 4^e is q^2 2^s; the
        # shift goes on whichever side keeps it nonnegative
        lo, s = p >> t, 2 * e - 2 * t
        lo2, hi2, q2 = lo * lo, (lo + 1) * (lo + 1), q * q
        if s >= 0:
            q2 <<= s
        else:
            lo2, hi2 = lo2 << -s, hi2 << -s
        if hi2 * ku <= q2 * cu:
            return Cmp.CERT_LT
        if lo2 * ku >= q2 * cu:
            if lo2 * kl > q2 * cl:
                return Cmp.CERT_GT
            if hi2 * kl <= q2 * cl:
                return Cmp.UNDECIDED
    return _cmp_exact(p, q * q << 2 * e, ku, cu, kl, cl)


def recip_sqrt_upper(s: int) -> Rational:
    """Certified rational upper bound on 1/sqrt(s), exact for perfect squares.

    With x0 = isqrt(s), the mean of 1/x0 and x0/s dominates their geometric
    mean 1/sqrt(s) (AM-GM), so (x0^2 + s) / (2*x0*s) >= 1/sqrt(s).
    """
    if s <= 0:
        raise ValueError(f"recip_sqrt_upper requires s >= 1, got {s}")
    x0 = math.isqrt(s)
    return Fraction(x0 * x0 + s, 2 * x0 * s)
