"""Rectangle suprema: brute-force and per-width oracle agreement, witness
validity, per-width monotonicity, and certified two-sided bounds."""

import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kslab import rect_sup
from kslab.exactnum import PI, Cmp, Dyadic, cmp_sq_below
from kslab.ks_measure import EXPLICIT_MAX_N, build
from kslab.rect_sup import Rectangle, bound2_verdict, certify_pair, certify_run, sup_rect_bruteforce, sup_rect_fast
from kslab.report import sup_report
from oracles import (
    CANONICAL,
    PermutedMeasure,
    RowPermutation,
    binomial,
    certify_bound2,
    measure,
    rect_mass,
    sqrt_enclosure,
    text_witness_rows,
)


def sup_json(report):
    """The sup report as the sup subcommand writes it: sup certified once
    by certify_pair, then written with its bound2 verdict."""
    lower_ok, upper_ok = certify_pair(report.sup, report.n)
    return sup_report(report, lower_ok, upper_ok, bound2_verdict(lower_ok, upper_ok))


@functools.cache
def positive_part_sum(b):
    """Sum over sign patterns in {-1,+1}^b of max(0, pattern sum).

    A pattern with k plus signs sums to 2k - b and occurs C(b, k) times.
    """
    return sum(binomial(b, k) * (2 * k - b) for k in range(b // 2 + 1, b + 1))


def per_width_values(n):
    """Oracle: supremum of |rect_mass| at each width |B| = b = 1..n.

    A* = rows with positive partial sum over B is optimal for fixed B, and
    each of the 2^b sign patterns over B occurs 2^(n-b) times, so the value
    is positive_part_sum(b) / (n 2^b).
    """
    return [Fraction(positive_part_sum(b), n << b) for b in range(1, n + 1)]


def per_row_witness(m):
    """Oracle: the witness by a loop over rows, setting bit s when row s has
    fewer than b/2 minus signs among the first b columns (b = n for odd n,
    n - 1 for even n)."""
    b = m.n if m.n % 2 else m.n - 1
    col_bits = (1 << b) - 1
    buf = bytearray((m.rows + 7) // 8)
    for s in range(m.rows):
        minus = (m.row_pattern(s) & col_bits).bit_count()
        if b - 2 * minus > 0:
            buf[s >> 3] |= 1 << (s & 7)
    return Rectangle(int.from_bytes(bytes(buf), "little"), col_bits)


class TestRectMass:
    def test_empty_rectangle(self):
        m = build(3)
        assert rect_mass(m, Rectangle(0, 0b101)) == 0
        assert rect_mass(m, Rectangle(0b1011, 0)) == 0

    def test_full_row_set_vanishes(self):
        # column balance makes mass zero whenever A is everything
        for n in (1, 2, 4):
            m = measure(n, RowPermutation(3))
            all_rows = (1 << m.rows) - 1
            for col_bits in range(1 << n):
                assert rect_mass(m, Rectangle(all_rows, col_bits)) == 0

    def test_single_atom(self):
        m = build(1)
        assert rect_mass(m, Rectangle(0b01, 0b1)) == Fraction(1, 2)
        assert rect_mass(m, Rectangle(0b10, 0b1)) == Fraction(-1, 2)

    def test_width_mismatch(self):
        m = build(2)
        with pytest.raises(ValueError):
            rect_mass(m, Rectangle(1 << 4, 0b1))
        with pytest.raises(ValueError):
            rect_mass(m, Rectangle(0b1, 0b100))


class TestBruteForce:
    def test_small_suprema_regenerated(self):
        assert sup_rect_bruteforce(build(1)).sup == Fraction(1, 2)
        assert sup_rect_bruteforce(build(2)).sup == Fraction(1, 4)

    def test_guard(self):
        with pytest.raises(ValueError):
            sup_rect_bruteforce(build(5))

    def test_witness_attains_supremum(self):
        for n in (1, 2, 3):
            report = sup_rect_bruteforce(build(n))
            assert abs(rect_mass(build(n), report.witness)) == report.sup

    def test_witness_lexicographic_tiebreak(self):
        # iterate (B, A) ascending: the stored witness must be the first
        # attaining pair, so no smaller (B, A) may attain the supremum
        rng = random.Random(12)
        measures = [
            measure(n, bijection)
            for n in (1, 2, 3)
            for bijection in (CANONICAL, RowPermutation(1), RowPermutation(2), RowPermutation(3))
        ]
        # row tables that repeat and miss patterns: positive and negative
        # maxima differ, so both table searches must work
        measures += [
            PermutedMeasure(n, tuple(rng.randrange(1 << n) for _ in range(1 << n)))
            for n in (1, 2, 3)
            for _ in range(4)
        ]
        for m in measures:
            report = sup_rect_bruteforce(m)
            w = report.witness
            assert abs(rect_mass(m, w)) == report.sup
            for col_bits in range(w.col_bits + 1):
                a_limit = w.row_bits if col_bits == w.col_bits else 1 << m.rows
                for row_bits in range(a_limit):
                    assert abs(rect_mass(m, Rectangle(row_bits, col_bits))) < report.sup

    def test_canonical_witnesses_pinned(self):
        pinned = {1: (0x1, 0x1), 2: (0x5, 0x1), 3: (0x17, 0x7), 4: (0x1717, 0x7)}
        for n, (a_bits, b_bits) in pinned.items():
            assert sup_rect_bruteforce(build(n)).witness == Rectangle(a_bits, b_bits), n

    def test_constant_tables_reach_the_offset_bound(self):
        # every row alike: |sum| reaches n * 2^n = 64 at A = all rows, B = all
        # columns, the most the byte table's offset allows, with either sign
        for pattern in (0x0, 0xF):
            m = PermutedMeasure(4, (pattern,) * 16)
            report = sup_rect_bruteforce(m)
            assert report.sup == 1 and report.witness == Rectangle(0xFFFF, 0xF)

    def test_permutation_leaves_supremum(self):
        for n in (1, 2, 3):
            base = sup_rect_bruteforce(build(n)).sup
            for seed in (1, 2, 3):
                assert sup_rect_bruteforce(measure(n, RowPermutation(seed))).sup == base


class TestFastPath:
    def test_matches_oracle_small_n(self):
        for n in (1, 2, 3, 4):
            for bijection in (CANONICAL, RowPermutation(5), RowPermutation(6)):
                m = measure(n, bijection)
                assert sup_rect_fast(m).sup == sup_rect_bruteforce(m).sup

    def test_fast_witness_attains_supremum(self):
        # every n where the witness is materializable, up to the guard
        for n in (1, 2, 5, 8, 12, 16, 20):
            m = measure(n, RowPermutation(4) if n <= 8 else CANONICAL)
            report = sup_rect_fast(m)
            assert abs(rect_mass(m, report.witness)) == report.sup

    def test_witness_matches_per_row_oracle(self):
        cases = [
            (n, bijection)
            for n in range(1, 17)
            for bijection in (CANONICAL, RowPermutation(7), RowPermutation(8))
        ]
        for n, bijection in cases + [(17, CANONICAL), (20, CANONICAL)]:
            m = measure(n, bijection)
            assert sup_rect_fast(m).witness == per_row_witness(m), (n, bijection)

    @pytest.mark.parametrize("n", range(1, EXPLICIT_MAX_N + 1))
    def test_packed_witness_matches_text_oracle(self, n):
        # the packed bitset against the base-2 parse of a '1'/'0' table by
        # row, on the canonical rows, a seeded shuffle and (to n = 16) a table
        # with repeats; n <= 2 (b = 1) and n = 3, 4 (b = 3) build one byte
        tables = [measure(n, CANONICAL), measure(n, RowPermutation(n))]
        if n <= 16:
            tables.append(PermutedMeasure(n, tuple(random.Random(-n).choices(range(1 << n), k=1 << n))))
        for m in tables:
            witness = sup_rect_fast(m).witness
            assert witness.row_bits == text_witness_rows(m), (n, m.row_pattern(0))
            assert witness.col_bits == (1 << (n if n % 2 else n - 1)) - 1

    @pytest.mark.parametrize("n", range(1, 17))
    def test_permuted_by_row_matches_per_row_loop(self, n):
        # the oracle's seam: bit s of by_row(bits) is bit row_pattern(s) of
        # bits, on a seeded shuffle and a table with repeats
        rng = random.Random(n)
        tables = [measure(n, RowPermutation(n + 1)),
                  PermutedMeasure(n, tuple(rng.choices(range(1 << n), k=1 << n)))]
        for m in tables:
            for bits in (0, (1 << m.rows) - 1, 1 << rng.randrange(m.rows), rng.getrandbits(m.rows)):
                data = bits.to_bytes((m.rows + 7) // 8, "little")
                buf = bytearray(len(data))
                for s in range(m.rows):
                    p = m.row_pattern(s)
                    buf[s >> 3] |= (data[p >> 3] >> (p & 7) & 1) << (s & 7)
                assert m.by_row(bits) == int.from_bytes(bytes(buf), "little"), (n, bits)

    def test_no_witness_above_explicit_scale(self):
        report = sup_rect_fast(build(24))
        assert report.witness is None
        assert report.sup > 0

    def test_per_width_values_nondecreasing(self):
        for n in (1, 2, 3, 8, 33):
            values = per_width_values(n)
            assert all(values[i] <= values[i + 1] for i in range(len(values) - 1))
            assert max(values) == values[-1] == sup_rect_fast(build(n)).sup

    def test_closed_form_matches_per_width_oracle(self):
        # the witness width is the smallest width attaining the maximum
        for n in range(1, 301):
            values = per_width_values(n)
            report = sup_rect_fast(build(n))
            assert report.sup == max(values)
            if n <= EXPLICIT_MAX_N:
                smallest_b = values.index(report.sup) + 1
                assert report.witness.col_bits == (1 << smallest_b) - 1

    def test_certified_at_n64(self):
        lower_ok, upper_ok = certify_pair(sup_rect_fast(build(64)).sup, 64)
        assert lower_ok is Cmp.CERT_GT  # vs 1/(2 sqrt(pi) * 8)
        assert upper_ok is Cmp.CERT_LT  # vs 2/(sqrt(pi) * 8)


class TestCertifyBound2:
    def test_pass_n1(self):
        report = sup_rect_fast(build(1))
        assert report.sup == Fraction(1, 2)
        assert certify_bound2(report) == "PASS"

    def test_pass_n2(self):
        report = sup_rect_fast(build(2))
        assert report.sup == Fraction(1, 4)
        assert certify_bound2(report) == "PASS"

    def test_fail_above_upper(self):
        fake = sup_rect_fast(build(1))._replace(sup=Fraction(2))
        assert certify_bound2(fake) == "FAIL"
        assert sup_json(fake)["bound2"] == "FAIL"

    def test_fail_below_lower(self):
        fake = sup_rect_fast(build(1))._replace(sup=Fraction(1, 100))
        assert certify_bound2(fake) == "FAIL"
        assert sup_json(fake)["bound2"] == "FAIL"


class TestCertifyPairAtTheConstants:
    """Values within about 1e-15 of c / sqrt(pi n), c = 1/2 and 2, on either
    side of the band that PI's enclosure leaves undecided: c / sqrt(pi n)
    lies between c / sqrt(PI.upper n) and c / sqrt(PI.lower n)."""

    @staticmethod
    def near(c, n):
        """(below, inside, above): below < c / sqrt(PI.upper n), inside in
        the band, above > c / sqrt(PI.lower n), each within 1e-30 of its edge."""
        below, inside = sqrt_enclosure(c * c / (PI.upper * n))
        _, above = sqrt_enclosure(c * c / (PI.lower * n))
        return below, inside, above

    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 10**6])
    def test_lower_constant_half(self, n):
        below, inside, above = self.near(Fraction(1, 2), n)
        assert certify_pair(above, n)[0] is Cmp.CERT_GT
        assert certify_pair(inside, n)[0] is Cmp.UNDECIDED
        assert certify_pair(below, n)[0] is Cmp.CERT_LT

    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 10**6])
    def test_upper_constant_two(self, n):
        below, inside, above = self.near(Fraction(2), n)
        assert certify_pair(below, n)[1] is Cmp.CERT_LT
        assert certify_pair(inside, n)[1] is Cmp.UNDECIDED
        assert certify_pair(above, n)[1] is Cmp.CERT_GT


@st.composite
def near_a_threshold(draw):
    """(r, first, last), last - first <= 3, r a Fraction or Dyadic within
    2^-40 of c / sqrt(pi n0), c = 1/2 or 2, for some n0 in first..last:
    r = p / (q 2^60), p off the threshold's numerator by k q, |k| <= 2^20.
    The examples of the test add r = 0."""
    first = draw(st.integers(min_value=1, max_value=10**6))
    last = first + draw(st.integers(min_value=0, max_value=3))
    n0 = draw(st.integers(min_value=first, max_value=last))
    c = draw(st.sampled_from([Fraction(1, 2), Fraction(2)]))
    q = draw(st.integers(min_value=1, max_value=1 << 20))
    den = q << 60
    # floor(den c / sqrt(pi n0)) on pi's midpoint, within about 1e-15 of it relatively
    pi = (PI.lower + PI.upper) / 2
    square = den * den * c * c / (pi * n0)
    p = math.isqrt(square.numerator // square.denominator) + draw(st.integers(-(1 << 20), 1 << 20)) * q
    kind = draw(st.sampled_from([Fraction, Dyadic]))
    return (Fraction(p, den) if kind is Fraction else Dyadic(p, q, 60)), first, last


class TestCertifyRun:
    """certify_run reads the lower verdict at first and the upper at last;
    near a threshold the other indices fall back to their own comparison,
    which c_n never needs."""

    @given(near_a_threshold())
    @example((Fraction(0), 1, 4))
    @example((Dyadic(0), 5, 5))
    @example((Fraction(1, 2), 1, 2))
    @settings(max_examples=300, deadline=None)
    def test_equals_certify_pair_at_each_index(self, case):
        r, first, last = case
        assert certify_run(r, first, last) == [certify_pair(r, n) for n in range(first, last + 1)]

    def test_c_n_takes_one_comparison_per_side(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return cmp_sq_below(*args)

        monkeypatch.setattr(rect_sup, "cmp_sq_below", counting)
        sup = build(1024).central_mass
        assert certify_run(sup, 1024, 1025) == [(Cmp.CERT_GT, Cmp.CERT_LT)] * 2
        assert calls == [(sup, 1, 2, 1024), (sup, 2, 1, 1025)]


class TestReportJson:
    def test_shape_and_values(self):
        doc = sup_json(sup_rect_fast(build(4)))
        assert doc["n"] == 4
        assert doc["sup"] == "3/16"
        assert doc["sup_decimal"].startswith("0.1875")
        assert doc["method"] == "FastPath"
        assert set(doc["witness"]) == {"A_bits", "B_bits"}
        assert doc["witness"]["B_bits"] == "0x7"
        assert doc["lower_ok"] == "CERT_GT"
        assert doc["upper_ok"] == "CERT_LT"
        assert list(doc)[-1] == "bound2" and doc["bound2"] == "PASS"  # certified once, written last

    def test_null_witness_serialized(self):
        doc = sup_json(sup_rect_fast(build(22)))
        assert doc["witness"] is None
