"""Exact arithmetic layer: the binomial oracle against a Pascal triangle,
the sqrt_enclosure oracle against squaring,
central binomials (Pascal step and prime factorization) against math.comb,
certified comparisons against a 50-digit decimal oracle and their
leading-bit filter against the exact squares (oracles.cmp_sq_below_exact),
the Dyadic type against Fraction arithmetic; and the package source, which
holds no float."""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kslab import exactnum
from kslab.exactnum import (
    PI,
    Cmp,
    Dyadic,
    PiEnclosure,
    central_binomial,
    cmp_sq_below,
    recip_sqrt_upper,
)
from kslab.ks_measure import build
from oracles import binomial, cmp_sq_below_exact, sqrt_enclosure


def pascal_row(n: int) -> list[int]:
    """Dynamic-programming Pascal triangle, independent of math.comb."""
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row


class TestBinomial:
    def test_empty_product(self):
        assert binomial(0, 0) == 1

    def test_row_four(self):
        assert binomial(4, 2) == 6

    def test_against_pascal_oracle(self):
        assert binomial(64, 32) == pascal_row(64)[32]

    def test_out_of_range_is_zero(self):
        assert binomial(5, -1) == 0
        assert binomial(5, 6) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    @given(st.integers(min_value=1, max_value=200), st.data())
    def test_pascal_identity(self, n, data):
        k = data.draw(st.integers(min_value=1, max_value=max(1, n - 1)))
        assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


class TestCentralBinomial:
    def test_ascending_takes_pascal_steps(self):
        for j in range(1001):
            assert central_binomial(j) == math.comb(2 * j, j), j

    def test_descending_and_shuffled_factorize(self):
        values = list(range(1001))
        shuffled = values * 2
        random.Random(1985).shuffle(shuffled)
        for j in values[::-1] + shuffled:
            assert central_binomial(j) == math.comb(2 * j, j), j

    @pytest.mark.parametrize("j", [1 << 16, (1 << 16) + 1, 49999, 50000, 50001, 10**5 + 1])
    def test_large(self, j):
        # each j is factorized, then reached from j - 1 by one Pascal step;
        # 49999 is prime, so that step divides by a prime
        expected = math.comb(2 * j, j)
        central_binomial(0)
        assert central_binomial(j) == expected
        central_binomial(j - 1)
        assert central_binomial(j) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="j >= 0"):
            central_binomial(-1)

    def test_factorized_against_math_comb(self):
        for j in range(2501):
            assert exactnum._factorized(j) == math.comb(2 * j, j), j

    def test_indices_2j_and_2j_plus_1_share_one_factorization(self, monkeypatch):
        # c_n for n = 10002 and 10003 is C(10002, 5001) / 2^10003: one
        # factorization of j = 5001, which the second index reuses
        calls = []
        factorize = exactnum._factorized

        def counting(j):
            calls.append(j)
            return factorize(j)

        central_binomial(0)
        monkeypatch.setattr(exactnum, "_factorized", counting)
        assert build(10002).central_mass == build(10003).central_mass == Fraction(math.comb(10002, 5001), 1 << 10003)
        assert calls == [5001]


class TestPiEnclosure:
    def test_true_pi_strictly_inside(self):
        mpmath.mp.dps = 60
        pi = mpmath.pi
        assert mpmath.mpf(PI.lower.numerator) / PI.lower.denominator < pi
        assert mpmath.mpf(PI.upper.numerator) / PI.upper.denominator > pi

    def test_width(self):
        assert PI.upper - PI.lower == Fraction(1, 10**15)

    def test_invalid_enclosures_rejected(self):
        with pytest.raises(ValueError):
            PiEnclosure(Fraction(4), Fraction(3))
        with pytest.raises(ValueError):
            PiEnclosure(Fraction(3), Fraction(4))  # too wide


class TestCmpSqBelow:
    def test_zero_below_positive_bound(self):
        assert cmp_sq_below(Fraction(0), 2, 1, 5) is Cmp.CERT_LT

    def test_large_above(self):
        assert cmp_sq_below(Fraction(10), 2, 1, 1) is Cmp.CERT_GT

    def test_half_below_two(self):
        # (1/4) * pi.upper < 4, checked against the enclosure
        assert cmp_sq_below(Fraction(1, 2), 2, 1, 1) is Cmp.CERT_LT

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            cmp_sq_below(Fraction(1), 1, 1, 0)

    def test_rejects_negative_r(self):
        with pytest.raises(ValueError):
            cmp_sq_below(Fraction(-1), 1, 1, 1)

    def test_undecided_when_enclosure_too_coarse(self):
        # construct r with r^2 inside [1/pi.upper, 1/pi.lower], so that
        # neither squared test can certify a direction at c = n = 1
        scale = 10**20
        lo_sq = Fraction(1) / PI.upper
        hi_sq = Fraction(1) / PI.lower
        t = (lo_sq.numerator * scale * scale) // lo_sq.denominator
        import math

        r = Fraction(math.isqrt(t) + 1, scale)
        assert lo_sq <= r * r <= hi_sq  # straddles the enclosure
        assert cmp_sq_below(r, 1, 1, 1) is Cmp.UNDECIDED

    def test_mutual_exclusion_sweep(self):
        for num in range(0, 40):
            for n in (1, 2, 7, 64):
                r = Fraction(num, 13)
                verdict = cmp_sq_below(r, 2, 3, n)
                c_sq = Fraction(2, 3) ** 2
                lt = r * r * PI.upper * n < c_sq
                gt = r * r * PI.lower * n > c_sq
                assert not (lt and gt)
                expected = Cmp.CERT_LT if lt else Cmp.CERT_GT if gt else Cmp.UNDECIDED
                assert verdict is expected, (num, n)

    def test_rejects_float(self):
        # a float r would let rounding decide a certified verdict
        with pytest.raises(TypeError):
            cmp_sq_below(0.5, 2, 1, 1)
        with pytest.raises(TypeError):
            cmp_sq_below(10.0, 2, 1, 1)

    def test_accepts_int(self):
        assert cmp_sq_below(10, 2, 1, 1) is Cmp.CERT_GT
        assert cmp_sq_below(0, 2, 1, 5) is Cmp.CERT_LT

    @settings(max_examples=200)
    @given(
        st.fractions(min_value=0, max_value=10),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=100),
    )
    def test_agrees_with_50_digit_decimal_oracle(self, r, c_num, c_den, n):
        verdict = cmp_sq_below(r, c_num, c_den, n)
        mpmath.mp.dps = 50
        r_mp = mpmath.mpf(r.numerator) / r.denominator
        target = (mpmath.mpf(c_num) / c_den) / mpmath.sqrt(mpmath.pi * n)
        if verdict is Cmp.CERT_LT:
            assert r_mp < target
        elif verdict is Cmp.CERT_GT:
            assert r_mp > target


# the constants certify_pair (1/2 and 2) and bound3 (8) compare against
CONSTANTS = [(1, 2), (2, 1), (8, 1)]


def count_exact(monkeypatch) -> list:
    """A list that gains an entry each time cmp_sq_below squares a numerator."""
    calls = []
    exact = exactnum._cmp_exact

    def counting(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(exactnum, "_cmp_exact", counting)
    return calls


class TestLeadingBitFilter:
    def test_central_masses_up_to_ten_thousand(self, monkeypatch):
        # c_n and 2 c_n at every n <= 10^4 and each constant: the exact
        # verdict, and the filter alone decides every numerator past 64 bits
        calls = count_exact(monkeypatch)
        small = 0
        for n in range(1, 10**4 + 1):
            c = build(n).central_mass
            for r in (c, 2 * c):
                for c_num, c_den in CONSTANTS:
                    assert cmp_sq_below(r, c_num, c_den, n) is cmp_sq_below_exact(r, c_num, c_den, n), (n, r)
                small += len(CONSTANTS) * (r.num.bit_length() <= 64)
        assert small and len(calls) == small

    @pytest.mark.parametrize("kind", [Dyadic, Fraction])
    def test_within_two_to_minus_sixty_of_each_threshold(self, monkeypatch, kind):
        # r^2 at a threshold is c^2 / (pi's bound n).  Numerators within 3
        # units of its root over a denominator of 100 to 400 bits leave the
        # 64-bit bracket straddling it, so each one is squared; others lie
        # at a relative distance of up to 2^-60 and are held to the same verdict
        rng = random.Random(f"leading-bits-{kind.__name__}")
        calls = count_exact(monkeypatch)
        for _ in range(60):
            c_num, c_den = rng.choice(CONSTANTS)
            n = rng.choice([1, 2, 7, 1000, rng.randint(1, 10**6)])
            t = Fraction(c_num, c_den) ** 2 / (rng.choice([PI.upper, PI.lower]) * n)
            bits = rng.randint(100, 400)
            den = 1 << bits if kind is Dyadic else rng.randrange(1 << bits, 1 << bits + 1) | 1
            root = math.isqrt(t.numerator * den * den // t.denominator)
            for p in range(root - 2, root + 4):
                before = len(calls)
                r = kind(p, den)
                assert r.numerator.bit_length() > 64
                assert cmp_sq_below(r, c_num, c_den, n) is cmp_sq_below_exact(r, c_num, c_den, n), (r, c_num, n)
                assert len(calls) == before + 1
            for _ in range(6):
                r = kind(root + (root * rng.randint(-(2**30), 2**30) >> 90), den)
                assert cmp_sq_below(r, c_num, c_den, n) is cmp_sq_below_exact(r, c_num, c_den, n), (r, c_num, n)


class TestSqrtHelpers:
    @given(st.fractions(min_value=0, max_value=10**6))
    def test_sqrt_enclosure_brackets(self, x):
        lo, hi = sqrt_enclosure(x)
        assert lo * lo <= x <= hi * hi
        assert hi - lo <= Fraction(1, 10**29)

    @given(st.integers(min_value=1, max_value=10**12))
    def test_recip_sqrt_upper_dominates(self, s):
        u = recip_sqrt_upper(s)
        assert u * u * s >= 1  # u >= 1/sqrt(s)

    def test_recip_sqrt_exact_at_perfect_squares(self):
        for root in (1, 2, 7, 100):
            u = recip_sqrt_upper(root * root)
            assert u == Fraction(1, root)

    def test_recip_sqrt_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            recip_sqrt_upper(0)


def fractions_over_dyadic_denominators():
    """Fractions whose denominator is a small odd part times a power of two."""
    den = st.builds(lambda odd, e: odd << e, st.integers(1, 45), st.integers(0, 70))
    return st.builds(Fraction, st.integers(-(2**90), 2**90), den)


class TestDyadic:
    @settings(max_examples=300)
    @given(st.integers(-(2**70), 2**70), st.integers(-60, 60).filter(bool), st.integers(0, 40))
    def test_lowest_terms(self, num, den, exp):
        d = Dyadic(num, den, exp)
        q = Fraction(num, den << exp)
        assert (d.numerator, d.denominator) == (q.numerator, q.denominator)
        assert d.odd % 2 == 1 and d.exp >= 0 and math.gcd(d.num, d.odd) == 1
        assert d.exp == 0 or d.num % 2 == 1
        assert Fraction(d) == q and d == q and q == d and hash(d) == hash(q)

    @settings(max_examples=300)
    @given(fractions_over_dyadic_denominators(), fractions_over_dyadic_denominators())
    def test_arithmetic_and_order_match_fraction(self, a, b):
        da, db = Dyadic(a.numerator, a.denominator), Dyadic(b.numerator, b.denominator)
        for x, y in ((da, db), (da, b), (a, db), (da, int(b)), (int(a), db)):
            fa, fb = Fraction(x), Fraction(y)
            for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v):
                got = op(x, y)
                assert isinstance(got, Dyadic) and got == op(fa, fb)
            assert (x < y, x <= y, x > y, x >= y, x == y, x != y) == (
                fa < fb, fa <= fb, fa > fb, fa >= fb, fa == fb, fa != fb
            )
        assert abs(da) == abs(a) and -da == -a and bool(da) == bool(a)

    def test_zero_and_foreign_operands(self):
        assert Dyadic(0, 12, 5) == 0 and (Dyadic(0).odd, Dyadic(0).exp) == (1, 0)
        with pytest.raises(ZeroDivisionError):
            Dyadic(1, 0)
        with pytest.raises(TypeError):
            Dyadic(1, 2) + 0.5
        assert Dyadic(1, 2) != "1/2"

    @settings(max_examples=200)
    @given(
        fractions_over_dyadic_denominators().map(abs),
        st.integers(1, 10**6),
        st.integers(1, 50),
        st.integers(1, 50),
    )
    def test_cmp_sq_below_as_the_equal_fraction(self, q, n, c_num, c_den):
        d = Dyadic(q.numerator, q.denominator)
        assert cmp_sq_below(d, c_num, c_den, n) is cmp_sq_below(q, c_num, c_den, n)


class TestPackageSource:
    def test_no_float_literal_call_or_clock(self):
        # every certified value is exact: no module of the package writes a
        # float literal, calls float() or round(), or reads the clock
        found = []
        for path in sorted((Path(__file__).resolve().parents[1] / "src" / "kslab").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                where = f"{path.name}:{getattr(node, 'lineno', 0)}"
                if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                    found.append(f"{where} literal {node.value!r}")
                elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("float", "round"):
                    found.append(f"{where} {node.func.id}()")
                elif isinstance(node, ast.Import) and any(a.name == "time" for a in node.names):
                    found.append(f"{where} import time")
                elif isinstance(node, ast.ImportFrom) and node.module == "time":
                    found.append(f"{where} from time import")
        assert found == []
