"""Tensor suprema and decay: vertex enumeration against tiny brute force
and random probing, certified bounds, combination plumbing."""

import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from kslab.exactnum import PI
from kslab.ks_measure import EXPLICIT_MAX_N, build
from kslab.rect_sup import sup_rect_fast
from kslab.tensor_bounds import SymmetricTerm, TensorCombo, family_from_json
from oracles import (
    PermutedMeasure,
    RowPermutation,
    _certified_tensor_dominance,
    certify_bound3,
    combo_to_json,
    decay_profile,
    eval_symmetric,
    eval_tensor,
    measure,
    profile_table,
    random_tensor_probe,
    sign,
    standard_test_family,
    tensor_sup_exact,
)


PROFILE_NAMES = ("sign_centered", "linear_centered", "abs_centered", "majority", "constant_one")


def brute_sup_over_sign_tables(m) -> Fraction:
    """Enumerate every f in {-1,1}^rows and g in {-1,1}^cols directly.

    Only feasible at n <= 2; independent of the vertex-enumeration code.
    """
    best = Fraction(0)
    for f in itertools.product((1, -1), repeat=m.rows):
        for g in itertools.product((1, -1), repeat=m.n):
            best = max(best, abs(eval_tensor(m, f, g)))
    return best


def vertex_enumeration(m) -> Fraction:
    """Oracle: loop over the 2^n vertices g, the optimal f taking the sign
    of each row's inner sum n - 2 * popcount(pattern ^ g)."""
    n = m.n
    patterns = np.array([m.row_pattern(s) for s in range(m.rows)], dtype=np.int64)
    popcount = np.array([i.bit_count() for i in range(1 << n)], dtype=np.int64)
    best = 0
    for g_vertex in range(1 << n):
        sums = n - 2 * popcount[np.bitwise_xor(patterns, g_vertex)]
        best = max(best, int(np.abs(sums).sum()))
    return Fraction(best, n << n)


class TestTensorSupExact:
    def test_n1_four_case_brute(self):
        m = build(1)
        assert brute_sup_over_sign_tables(m) == 1
        assert tensor_sup_exact(m) == 1

    def test_n2_cross_checked(self):
        m = build(2)
        assert tensor_sup_exact(m) == Fraction(1, 2)
        assert brute_sup_over_sign_tables(m) == Fraction(1, 2)
        # dense random sampling of the cube stays below the vertex maximum
        assert random_tensor_probe(m, 20000, seed=3) <= 0.5

    def test_n3(self):
        assert tensor_sup_exact(build(3)) == Fraction(1, 2)

    def test_guard(self):
        with pytest.raises(ValueError):
            tensor_sup_exact(build(13))

    def test_invariant_under_row_permutation(self):
        for n in (2, 4, 6):
            base = tensor_sup_exact(build(n))
            for seed in (1, 5, 9):
                assert tensor_sup_exact(measure(n, RowPermutation(seed))) == base

    def test_matches_vertex_enumeration_oracle(self):
        for n in range(1, 11):
            for m in [build(n)] + [measure(n, RowPermutation(seed)) for seed in (1, 2, 3)]:
                assert tensor_sup_exact(m) == vertex_enumeration(m), (n, m)

    def test_matches_oracle_on_repeated_patterns(self):
        # a bijection makes every vertex value equal; row tables that repeat
        # and miss patterns make them differ, so the transforms must locate
        # the maximizing vertex
        rng = random.Random(11)
        for n in range(1, 11):
            for _ in range(3):
                patterns = tuple(rng.randrange(1 << n) for _ in range(1 << n))
                m = PermutedMeasure(n, patterns)
                assert tensor_sup_exact(m) == vertex_enumeration(m), (n, patterns)

    def test_dominates_rectangle_supremum(self):
        for n in range(1, 9):
            m = build(n)
            assert tensor_sup_exact(m) >= sup_rect_fast(m).sup


class TestCertifyBound3:
    def test_pass_n1(self):
        assert certify_bound3(1, Fraction(1)) == "PASS"

    def test_pass_n4_derived(self):
        sup = tensor_sup_exact(build(4))
        assert sup == Fraction(3, 8)
        assert certify_bound3(4, sup) == "PASS"

    def test_fail_above(self):
        assert certify_bound3(1, Fraction(5)) == "FAIL"

    def test_fail_when_below_rectangle_supremum(self):
        assert certify_bound3(1, Fraction(1, 10), rect_sup=Fraction(1, 2)) == "FAIL"

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            certify_bound3(1, Fraction(-1))


class TestRandomProbe:
    def test_bounded_by_exact_sup(self):
        for n in (1, 2, 3):
            m = build(n)
            sup = float(tensor_sup_exact(m))
            for seed in (1, 2, 3):
                assert random_tensor_probe(m, 2000, seed) <= sup

    def test_near_optimal_at_n1(self):
        value = random_tensor_probe(build(1), 10**4, seed=1)
        assert 0.9 <= value <= 1.0

    def test_deterministic_per_seed(self):
        m = build(3)
        assert random_tensor_probe(m, 500, 7) == random_tensor_probe(m, 500, 7)

    def test_trials_precondition(self):
        with pytest.raises(ValueError):
            random_tensor_probe(build(2), 0, seed=1)

    def test_needs_explicit(self):
        with pytest.raises(ValueError):
            random_tensor_probe(build(EXPLICIT_MAX_N + 1), 10, seed=1)


class TestCombos:
    def test_standard_family_norms(self):
        family = standard_test_family()
        assert len(family) == 5
        assert all(h.norm_bound == 1 for h in family)

    def test_profiles_have_unit_sup(self):
        for name in ("sign_centered", "linear_centered", "abs_centered", "majority"):
            for n in (1, 2, 9):
                table = profile_table(name, n)
                assert max(abs(v) for v in table) == 1

    def test_symmetric_value_matches_atom_brute(self):
        m = measure(6, RowPermutation(2))
        for h in standard_test_family():
            table_value = h.value_at(m)
            total = Fraction(0)
            for term in h.terms:
                table = profile_table(term.profile, 6)
                f = [
                    table[sum(1 for j in range(6) if sign(m, s, j) == 1)]
                    for s in range(64)
                ]
                g = [term.g_const] * 6
                total += term.coeff * eval_tensor(m, f, g)
            assert table_value == total

    def test_closed_forms_match_table_oracle(self):
        coeff, g_const = Fraction(-3, 7), Fraction(5, 2)
        for n in [*range(1, 301), 1000, 4096, 10000]:
            m = build(n)
            for name in PROFILE_NAMES:
                closed = SymmetricTerm(name, coeff, g_const).value_at(m)
                oracle = coeff * eval_symmetric(m, profile_table(name, n), g_const * n)
                assert closed == oracle, (name, n)

    def test_closed_forms_match_rectangle_and_tensor_suprema(self):
        for n in range(1, 11):
            for m in (build(n), measure(n, RowPermutation(n))):
                sup = sup_rect_fast(m).sup
                assert SymmetricTerm("majority").value_at(m) == sup
                assert SymmetricTerm("sign_centered").value_at(m) == 2 * sup == tensor_sup_exact(m)

    def test_norm_bound_dominates_grid_sup(self):
        m = build(4)
        for h in standard_test_family():
            tables = [(profile_table(t.profile, 4), t) for t in h.terms]
            grid_sup = max(
                abs(
                    sum(
                        (
                            t.coeff
                            * tab[sum(1 for j in range(4) if sign(m, s, j) == 1)]
                            * t.g_const
                            for tab, t in tables
                        ),
                        Fraction(0),
                    )
                )
                for s in range(16)
            )
            assert grid_sup <= h.norm_bound

    def test_norm_bound_sums_terms(self):
        combo = TensorCombo(
            terms=(
                SymmetricTerm("sign_centered", coeff=Fraction(1, 3)),
                SymmetricTerm("majority", coeff=Fraction(1, 4), g_const=Fraction(2)),
            )
        )
        assert combo.norm_bound == Fraction(1, 3) + Fraction(1, 2)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            SymmetricTerm("no_such_profile")

    def test_float_coefficients_rejected(self):
        # a float would enter at its binary value, not at 1/10; report.rational,
        # which reads both values, refuses it and names the value it reads
        for coeff, g_const, line in ((0.1, 1, "coeff requires int, Fraction or str values, got float 0.1"),
                                     (1, 0.5, "g_const requires int, Fraction or str values, got float 0.5")):
            with pytest.raises(TypeError, match=f"^{line}$"):
                SymmetricTerm("majority", coeff=coeff, g_const=g_const)
        assert SymmetricTerm("majority", coeff=1, g_const=Fraction(1, 10)).sup_norm() == Fraction(1, 10)

    @pytest.mark.parametrize("value", ["1_0", "\u0663"])
    def test_library_values_under_the_file_grammar(self, value):
        # Fraction() alone would read "1_0" as 10 and "\u0663" as 3
        for coeff, g_const in ((value, 1), (1, value)):
            with pytest.raises(ValueError, match="^malformed rational "):
                SymmetricTerm("majority", coeff, g_const)

    def test_booleans_refused(self):
        with pytest.raises(TypeError, match="^coeff requires int, Fraction or str values, got boolean$"):
            SymmetricTerm("majority", True)
        with pytest.raises(TypeError, match="^g_const requires int, Fraction or str values, got boolean$"):
            SymmetricTerm("majority", 1, False)

    def test_terms_compare_by_value(self):
        # "1/2", 3 and the Fractions they name are one term: equal, one hash
        text = SymmetricTerm("majority", coeff="1/2", g_const=3)
        exact = SymmetricTerm("majority", coeff=Fraction(1, 2), g_const=Fraction(3))
        assert text == exact and hash(text) == hash(exact)
        assert type(text.coeff) is Fraction and type(text.g_const) is Fraction
        assert len({text, exact, SymmetricTerm("majority", coeff="2/4", g_const="3")}) == 1

    def test_json_roundtrip(self):
        family = standard_test_family()
        family.append(
            TensorCombo(
                terms=(SymmetricTerm("linear_centered", Fraction(-2, 3), Fraction(5, 4)),),
                name="scaled_linear",
            )
        )
        doc = [combo_to_json(h) for h in family]
        back = family_from_json(json.loads(json.dumps(doc)))
        assert back == family
        m = build(4)
        for a, b in zip(family, back):
            assert a.value_at(m) == b.value_at(m)

    def test_family_parse_errors(self):
        with pytest.raises(ValueError):
            family_from_json({"not_combos": []})
        # a value table pinned to one index is no term: its keys are no term
        # keys, and with a term's keys only symmetric profiles parse
        explicit = {"type": "explicit", "n": 1, "f": ["1", "-1"], "g": ["1"]}
        with pytest.raises(ValueError, match=r"^combo 0: unknown term key 'n'; a term reads type, profile, coeff, "
                                             r"g_const$"):
            family_from_json([{"terms": [explicit]}])
        with pytest.raises(ValueError, match=r"^combo 0: unknown term type 'explicit'$"):
            family_from_json([{"terms": [{"type": "explicit", "profile": "majority"}]}])


class TestDecayProfile:
    def test_zero_combination(self):
        rows = decay_profile(TensorCombo(terms=(), name="zero"), [1, 2, 4])
        assert all(r.value == 0 and r.dominated for r in rows)

    def test_constant_tensor_vanishes_by_column_balance(self):
        h = TensorCombo(terms=(SymmetricTerm("constant_one"),), name="ones")
        rows = decay_profile(h, list(range(1, 9)))
        assert all(r.value == 0 for r in rows)

    def test_sign_profile_strictly_dominated(self):
        h = TensorCombo(terms=(SymmetricTerm("sign_centered"),), name="sgn")
        rows = decay_profile(h, [1, 4, 16, 64, 256])
        assert [r.value for r in rows[:2]] == [1, Fraction(3, 8)]
        coeff = Fraction(45136, 10000)  # decimal upper bound on 8/sqrt(pi)
        for r in rows:
            assert r.dominated
            assert r.value * r.value * r.n < coeff * coeff  # value < 4.5136/sqrt(n)
            assert r.bound_lower <= r.bound_upper

    def test_dominance_rejects_floats(self):
        # a float would let rounding decide a certified decay row
        with pytest.raises(TypeError):
            _certified_tensor_dominance(0.1, 1, 4)
        with pytest.raises(TypeError):
            _certified_tensor_dominance(Fraction(1, 10), 1.0, 4)

    def test_dominance_matches_fraction_products(self):
        rng = random.Random(31)
        for _ in range(500):
            value = Fraction(rng.randint(-60, 60), rng.randint(1, 40))
            bound = rng.choice([0, rng.randint(0, 5), Fraction(rng.randint(0, 30), rng.randint(1, 9))])
            n = rng.randint(1, 400)
            expected = value * value * PI.upper * n <= 64 * Fraction(bound) ** 2
            assert _certified_tensor_dominance(value, bound, n) is expected
        # at n = u d the two sides meet when value = 8/u (pi.upper = u/d)
        u, d = PI.upper.numerator, PI.upper.denominator
        assert _certified_tensor_dominance(Fraction(-8, u), 1, u * d)
        assert not _certified_tensor_dominance(Fraction(8 * u + 1, u * u), 1, u * d)
