"""Measure construction and evaluation, checked against atom-level brute
force wherever a fast path exists."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kslab.exactnum import Dyadic
from kslab.cli import _verify_run
from kslab.ks_measure import EXPLICIT_MAX_N, KSMeasure, build
from kslab.report import HEX_FROM, decimal_str, format_rational, parse_rational
from oracles import (
    CANONICAL,
    MemoryGuardError,
    RowPermutation,
    atom_list,
    atom_mass_and_support,
    eval_symmetric,
    eval_tensor,
    measure,
    scale,
    sign,
)


def brute_eval_tensor(m: KSMeasure, f, g) -> Fraction:
    """Direct sum over every atom; the oracle for both evaluation paths."""
    total = Fraction(0)
    for s in range(m.rows):
        for j in range(m.n):
            total += Fraction(f[s]) * Fraction(g[j]) * sign(m, s, j)
    return scale(m) * total


def plus_count(m: KSMeasure, s: int) -> int:
    return sum(1 for j in range(m.n) if sign(m, s, j) == 1)


class TestBuild:
    def test_n1_canonical(self):
        m = build(1)
        assert (sign(m, 0, 0), sign(m, 1, 0)) == (1, -1)
        assert scale(m) == Fraction(1, 2)

    def test_n2_canonical_sign_matrix(self):
        m = build(2)
        rows = [tuple(sign(m, s, j) for j in range(2)) for s in range(4)]
        assert rows == [(1, 1), (-1, 1), (1, -1), (-1, -1)]
        assert scale(m) == Fraction(1, 8)

    def test_permutation_same_row_multiset(self):
        m = measure(3, RowPermutation(seed=7))
        canonical_rows = sorted(range(8))
        permuted_rows = sorted(m.row_pattern(s) for s in range(8))
        assert permuted_rows == canonical_rows
        assert scale(m) == Fraction(1, 24)

    def test_rows_enumerate_full_sign_cube(self):
        for bijection in (CANONICAL, RowPermutation(3), RowPermutation(11)):
            m = measure(4, bijection)
            patterns = {m.row_pattern(s) for s in range(16)}
            assert patterns == set(range(16))

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            build(0)

    def test_permutation_needs_explicit_scale(self):
        with pytest.raises(MemoryGuardError):
            measure(EXPLICIT_MAX_N + 1, RowPermutation(1))


class TestTotalVariationAndSupport:
    # a verify row writes the total variation and the support size as the
    # constants they are; the atoms of the measure agree with them

    def test_tv_n1(self):
        assert _verify_run(1, 1)[0]["total_variation"] == "1"
        assert atom_mass_and_support(build(1))[0] == 1

    def test_tv_n12(self):
        assert _verify_run(12, 12)[0]["total_variation"] == "1"
        assert atom_mass_and_support(build(12))[0] == 1

    def test_tv_n4096_implicit(self):
        # no atom table past EXPLICIT_MAX_N: the row's constant stands alone
        assert _verify_run(4096, 4096)[0]["total_variation"] == "1"
        with pytest.raises(MemoryGuardError):
            atom_mass_and_support(build(4096))

    def test_support_sizes(self):
        for n, size in ((1, 2), (3, 24), (10, 10240)):
            assert _verify_run(n, n)[0]["support_size"] == str(size)
            assert atom_mass_and_support(build(n))[1] == size

    def test_explicit_support_counts_atoms(self):
        m = measure(5, RowPermutation(2))
        assert atom_mass_and_support(m)[1] == int(_verify_run(5, 5)[0]["support_size"]) == 5 * 32


class TestCentralMass:
    # 2^e passes HEX_FROM at e = 14,285, where the denominator turns to hex
    @pytest.mark.parametrize(
        "ns", [range(1, 3001), range(14280, 14301), [15000]], ids=["1-3000", "hex-crossing", "15000"]
    )
    def test_against_math_comb(self, ns):
        for n in ns:
            c = build(n).central_mass
            q = Fraction(math.comb(n - 1, (n - 1) // 2), 1 << n)
            assert isinstance(c, Dyadic) and c == q, n
            # lowest terms from Kummer's valuation: an odd numerator over 2^e
            assert c.num % 2 == 1 and c.odd == 1 and q.denominator == 1 << c.exp, n
            assert format_rational(c) == format_rational(q), n
            assert format_rational(c).endswith(hex(1 << c.exp)) == (1 << c.exp >= HEX_FROM), n
            assert decimal_str(c) == decimal_str(q), n


class TestEvalTensor:
    def test_two_atom_sum(self):
        # (1/2) * (f(0)*g(0)*1 + f(1)*g(0)*(-1)) with f = (1,-1), g = (1)
        m = build(1)
        assert eval_tensor(m, [1, -1], [1]) == 1
        assert brute_eval_tensor(m, [1, -1], [1]) == 1

    def test_zero_function(self):
        m = build(3)
        assert eval_tensor(m, [0] * 8, [1, 2, 3]) == 0

    def test_column_balance_kills_constants(self):
        m = build(2)
        assert eval_tensor(m, [1] * 4, [1, 1]) == 0

    def test_matches_brute_on_random_tables(self):
        import random

        rng = random.Random(5)
        for n in (2, 3, 4):
            m = measure(n, RowPermutation(rng.randrange(100)))
            f = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(m.rows)]
            g = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
            assert eval_tensor(m, f, g) == brute_eval_tensor(m, f, g)

    def test_size_mismatch_rejected(self):
        m = build(2)
        with pytest.raises(ValueError):
            eval_tensor(m, [1, 1, 1], [1, 1])
        with pytest.raises(ValueError):
            eval_tensor(m, [1] * 4, [1])

    def test_implicit_mode_rejected(self):
        m = build(EXPLICIT_MAX_N + 1)
        with pytest.raises(ValueError):
            eval_tensor(m, [1] * 8, [1] * 3)


class TestEvalSymmetric:
    def test_constant_profile_telescopes_to_zero(self):
        for n in (1, 2, 7, 4096):
            m = build(n)
            assert eval_symmetric(m, [1] * (n + 1), Fraction(3)) == 0

    def test_linear_profile_matches_brute_n2(self):
        m = build(2)
        F = [Fraction(0), Fraction(1), Fraction(2)]
        f = [F[plus_count(m, s)] for s in range(4)]
        assert eval_symmetric(m, F, Fraction(2)) == brute_eval_tensor(m, f, [1, 1])

    def test_sign_profile_matches_brute_n10(self):
        m = build(10)
        F = [Fraction((2 * k > 10) - (2 * k < 10)) for k in range(11)]
        f = [F[plus_count(m, s)] for s in range(1024)]
        g = [Fraction(1)] + [Fraction(0)] * 9  # any g with column sum 1
        assert eval_symmetric(m, F, Fraction(1)) == brute_eval_tensor(m, f, g)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            eval_symmetric(build(3), [1, 2, 3], Fraction(1))

    @settings(max_examples=40)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**30),
        st.data(),
    )
    def test_oracle_equivalence_on_symmetric_tables(self, n, seed, data):
        m = measure(n, RowPermutation(seed))
        F = data.draw(
            st.lists(
                st.fractions(min_value=-3, max_value=3),
                min_size=n + 1,
                max_size=n + 1,
            )
        )
        g = data.draw(
            st.lists(st.fractions(min_value=-3, max_value=3), min_size=n, max_size=n)
        )
        f = [F[plus_count(m, s)] for s in range(m.rows)]
        gsum = sum(g, Fraction(0))
        assert eval_symmetric(m, F, gsum) == brute_eval_tensor(m, f, g)


class TestInvariants:
    def test_column_balance(self):
        for n in (1, 2, 5):
            for bijection in (CANONICAL, RowPermutation(9)):
                m = measure(n, bijection)
                for j in range(n):
                    assert sum(sign(m, s, j) for s in range(m.rows)) == 0

    def test_atom_indexing_guard(self):
        m = build(2)
        with pytest.raises(IndexError):
            sign(m, 4, 0)
        with pytest.raises(IndexError):
            sign(m, 0, 2)


class TestSignedMeasureView:
    def test_atomic_total_variation_and_support(self):
        atoms = atom_list(measure(4, RowPermutation(1)))
        assert sum(abs(w) for _, w in atoms) == 1
        assert len({k for k, w in atoms if w}) == len(atoms) == 4 * 16

    @pytest.mark.parametrize("bijection", [CANONICAL, RowPermutation(7), RowPermutation(8)])
    def test_atom_list_matches_mass_and_support_formulas(self, bijection):
        for n in range(1, 11):
            row = _verify_run(n, n)[0]
            atoms = atom_list(measure(n, bijection))
            assert sum(abs(w) for _, w in atoms) == parse_rational(row["total_variation"]) == 1
            assert len({k for k, w in atoms if w}) == len(atoms) == parse_rational(row["support_size"]) == n << n

    def test_implicit_rejected(self):
        with pytest.raises(MemoryGuardError):
            atom_list(build(30))
