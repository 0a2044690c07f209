"""Finite-section diagnostics: projection norms, basis constants, and the
section builder over measures."""

import ast
import copy
import json
import math
import random
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest

from kslab import basic_seq_diag
from kslab.basic_seq_diag import (
    DegenerateSectionError,
    FiniteSection,
    _primitive,
    _raise_floors,
    _VertexSimplex,
    basis_constant,
    section_report,
)
from kslab.ks_measure import build
from kslab.report import parse_rational
from kslab.schauder import GeneratorSet
from kslab.tensor_bounds import SymmetricTerm, TensorCombo
from oracles import (
    LP_TOL,
    apply_functional,
    build_triangular_basis,
    coefficient_functional,
    densify,
    diag_sections,
    eval_symmetric,
    profile_table,
    projection_norms_highs,
    random_section,
    section_of_ks,
    simplex_optima,
    standard_test_family,
)

TOL = 1e-9


def frac_rows(rows):
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


class TestBasisConstant:
    def test_identity_rows(self):
        section = FiniteSection(rows=frac_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        k, per_m = basis_constant(section)
        assert abs(k - 1.0) < TOL
        assert all(abs(v - 1.0) < TOL for v in per_m)
        assert k == 1 and per_m == [1, 1]

    def test_single_row_convention(self):
        section = FiniteSection(rows=frac_rows([[2, 3]]))
        assert basis_constant(section) == (1.0, [1.0])

    def test_near_dependent_rows_inflate(self):
        # rows (1,0) and (1,1/10): take c = (11,-10); the combination has
        # family values (1, -1) while its prefix is (11, 0), so ||P_1|| = 11
        section = FiniteSection(rows=frac_rows([[1, 0], [1, Fraction(1, 10)]]))
        k, per_m = basis_constant(section)
        assert k >= 10
        assert abs(k - 11.0) < 1e-6
        assert per_m == [k]
        assert k == 11

    def test_k_at_least_one(self):
        rng = random.Random(11)
        for _ in range(10):
            section = random_section(rng, rng.randint(2, 5), rng.randint(5, 8))
            k, _ = basis_constant(section)
            assert k >= 1.0 - TOL

    def test_row_rescaling_invariance(self):
        rng = random.Random(23)
        section = random_section(rng, 4, 7)
        _, per_m = basis_constant(section)
        rows = [list(r) for r in section.rows]
        rows[2] = [Fraction(7, 3) * v for v in rows[2]]  # positive rescale
        _, per_m_scaled = basis_constant(FiniteSection(rows=frac_rows(rows)))
        assert all(
            abs(a - b) <= TOL * max(1.0, abs(a)) for a, b in zip(per_m, per_m_scaled)
        )
        assert per_m_scaled == per_m

    def test_appending_row_never_decreases(self):
        rng = random.Random(37)
        for _ in range(5):
            f = rng.randint(6, 9)
            base = random_section(rng, 4, f)
            k_base, _ = basis_constant(base)
            extra = random_section(rng, 1, f).rows[0]
            extended = FiniteSection(rows=base.rows + (extra,))
            try:
                k_ext, _ = basis_constant(extended)
            except DegenerateSectionError:
                continue
            assert k_ext >= k_base - TOL

    def test_degenerate_zero_row(self):
        section = FiniteSection(rows=frac_rows([[1, 2], [0, 0]]))
        with pytest.raises(DegenerateSectionError):
            basis_constant(section)

    def test_degenerate_dependent_rows(self):
        section = FiniteSection(rows=frac_rows([[1, 2, 0], [2, 4, 0]]))
        with pytest.raises(DegenerateSectionError):
            basis_constant(section)

    def test_empty_section(self):
        with pytest.raises(DegenerateSectionError, match="no functionals"):
            section_report(FiniteSection(rows=()))

    @pytest.mark.parametrize("rows", [[[1, 0], [0, 1, 5]], [[1], [0, 1]]])
    def test_rows_of_unequal_length(self, rows):
        # the second case is independent under any zero padding; it must not
        # be reported as dependent because the width is read off row 0
        with pytest.raises(DegenerateSectionError, match="differ in length"):
            section_report(FiniteSection(rows=frac_rows(rows)))


class TestExactNorms:
    def test_agrees_with_highs_oracle(self):
        for section in diag_sections(20):
            _, per_m = basis_constant(section)
            reference = projection_norms_highs(section.rows)
            assert len(per_m) == len(reference) == 6
            for exact, approx in zip(per_m, reference):
                assert abs(float(exact) - approx) <= LP_TOL * max(1.0, approx)

    def test_leaving_constraint_stays_in_ratio_test(self):
        # ||P_5|| = 3.37508...; dropping the leaving column's opposite sign
        # from the ratio test steps outside K here and reports 3.4140...
        _, per_m = basis_constant(diag_sections(1)[0])
        assert per_m[4] == Fraction(2971886708516, 880536079197)

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [[1, 0], [1, Fraction(1, 10)]],
            # a zero column and a column parallel to another one
            [[1, 0, 2, -1, 3], [0, 0, 0, 2, 1], [Fraction(1, 2), 0, 1, 1, Fraction(-2, 3)]],
        ],
    )
    def test_optimality_certificates_small(self, rows):
        self.check_certificates(FiniteSection(rows=frac_rows(rows)))

    def test_optimality_certificates_diag(self):
        for section in diag_sections(3):
            self.check_certificates(section)

    @staticmethod
    def check_certificates(section):
        """At every (m, h) the vertex lies in K, its value is <c, p>, and the
        multipliers are >= 0 and reproduce p: an exact optimality proof."""
        n = section.n_functionals
        best = [Fraction(0)] * (n - 1)
        seen = []
        for m, h, lp, mu in simplex_optima(section.rows):
            cols = lp.cols
            seen.append((h, m))
            p = cols[h][:m] + [0] * (n - m)
            c = [Fraction(x, lp.det) for x in lp.point()]
            assert all(abs(sum(a_i * c_i for a_i, c_i in zip(a, c))) <= 1 for a in cols)
            lam = [Fraction(v, lp.det) for v in mu]
            assert all(v >= 0 for v in lam)
            for col, sign in lp.basis:
                assert sign * sum(a_i * c_i for a_i, c_i in zip(cols[col], c)) == 1
            combo = [
                sum(lam_r * sign * cols[col][i] for lam_r, (col, sign) in zip(lam, lp.basis))
                for i in range(n)
            ]
            assert combo == p
            value = Fraction(sum(mu), lp.det)
            assert value == sum(p_i * c_i for p_i, c_i in zip(p, c))
            best[m - 1] = max(best[m - 1], value)
        assert seen == [(h, m) for h in range(len(cols)) for m in range(1, n)]
        assert basis_constant(section) == (max(best), best)

    def test_primitive_rows(self):
        rng = random.Random(71)
        for _ in range(200):
            row = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(6)]
            if not any(row):
                continue
            ints = _primitive(row)
            assert all(type(v) is int for v in ints)
            assert math.gcd(*ints) == 1
            k = next(Fraction(a) / b for a, b in zip(ints, row) if b)
            assert k > 0 and [k * v for v in row] == ints

    def test_float_entries_rejected(self):
        section = FiniteSection(rows=((1.0, 0.5), (0.0, 1.0)))
        for call in (basis_constant, section_report):
            with pytest.raises(TypeError, match="float"):
                call(section)
        with pytest.raises(TypeError):
            basis_constant(FiniteSection(rows=((1, 0), (0, Fraction(1, 2)), (0.1, 1))))


def enumeration_maxima(section):
    """||P_m|| for 1 <= m < N from the full enumeration: no objective pruned."""
    best = [Fraction(0)] * (section.n_functionals - 1)
    for m, _, lp, mu in simplex_optima(section.rows):
        best[m - 1] = max(best[m - 1], Fraction(sum(mu), lp.det))
    return best


def rescaled_row(section, i, factor):
    rows = [list(r) for r in section.rows]
    rows[i] = [factor * v for v in rows[i]]
    return FiniteSection(rows=frac_rows(rows))


class TestPrunedObjectives:
    """basis_constant drops an objective once its dual bound sum(|mu|) / det
    cannot beat the best value of its m; the full enumeration is the oracle."""

    def test_matches_enumeration_diag(self):
        for section in diag_sections(20):
            best = enumeration_maxima(section)
            assert basis_constant(section) == (max(best), best)

    @pytest.mark.parametrize(
        "section",
        [
            FiniteSection(rows=frac_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])),
            # a zero column: its objectives vanish for every m
            FiniteSection(rows=frac_rows([[1, 0, 2, -1], [0, 0, 1, 3], [2, 0, -1, 1]])),
            # column 2 is -2 times column 0: their objectives tie for every m
            FiniteSection(rows=frac_rows([[1, 2, -2, 0], [0, 1, 0, 1], [3, -1, -6, 1]])),
            FiniteSection(rows=frac_rows([[1, 1, 0], [1, -1, Fraction(1, 2)]])),
            rescaled_row(diag_sections(1)[0], 3, Fraction(7, 3)),
        ],
        ids=["identity", "zero-column", "parallel-columns", "n2", "rescaled-row"],
    )
    def test_matches_enumeration_ties(self, section):
        best = enumeration_maxima(section)
        assert basis_constant(section) == (max(best), best)

    def test_matches_enumeration_small_integer_sections(self):
        # entries in {-1, 0, 1}: many tied objectives and degenerate vertices
        rng = random.Random(83)
        checked = 0
        while checked < 150:
            n, f = rng.randint(2, 4), rng.randint(2, 6)
            section = FiniteSection(rows=tuple(tuple(rng.randint(-1, 1) for _ in range(f)) for _ in range(n)))
            try:
                result = basis_constant(section)
            except DegenerateSectionError:
                continue
            best = enumeration_maxima(section)
            assert result == (max(best), best), section.rows
            checked += 1

    def test_pruned_objectives_cannot_raise_the_norm(self, monkeypatch):
        # solve every pruned objective to optimality on a copy of the simplex
        maximize = _VertexSimplex.maximize
        pruned = []

        def checked(lp, p, floor):
            before = copy.deepcopy(lp)
            mu = maximize(lp, p, floor)
            if mu is None:
                full = maximize(before, p, Fraction(0))
                assert Fraction(sum(full), before.det) <= floor
                pruned.append(floor)
            return mu

        sections = diag_sections(3)
        monkeypatch.setattr(_VertexSimplex, "maximize", checked)
        for section in sections:
            basis_constant(section)
        assert pruned and all(floor > 0 for floor in pruned)

    def test_fewer_pivots_than_enumeration(self, monkeypatch):
        # fails when the pruning is unwired and every objective runs to its optimum
        pivot = _VertexSimplex._pivot
        calls = [0]

        def counted(lp, r, sigma):
            calls[0] += 1
            pivot(lp, r, sigma)

        sections = diag_sections(6)
        monkeypatch.setattr(_VertexSimplex, "_pivot", counted)
        for section in sections:
            calls[0] = 0
            basis_constant(section)
            pruned = calls[0]
            calls[0] = 0
            enumeration_maxima(section)
            assert pruned < calls[0]


def optimum_floors(section):
    """basis_constant with floors raised only at optima: an objective's
    optimum raises its own m's floor, and no other vertex is read."""
    n = section.n_functionals
    lp = _VertexSimplex(section.rows)
    per_m = [Fraction(0)] * (n - 1)
    for a in lp.cols:
        for m in range(1, n):
            mu = lp.maximize(a[:m], per_m[m - 1])
            if mu is not None:
                per_m[m - 1] = max(per_m[m - 1], Fraction(sum(mu), lp.det))
    return per_m


class TestVertexFloors:
    """Each vertex the walk reaches raises the floor of every m to its best
    prefix value over the columns."""

    def test_fewer_pivots_than_floors_at_optima(self, monkeypatch):
        # fails when the vertex floors are unwired (the helper a no-op) and
        # when they only repeat what the optima give
        pivot = _VertexSimplex._pivot
        calls = [0]

        def counted(lp, r, sigma):
            calls[0] += 1
            pivot(lp, r, sigma)

        def pivots(solve, section):
            calls[0] = 0
            result = solve(section)
            return calls[0], result

        sections = diag_sections(6)
        monkeypatch.setattr(_VertexSimplex, "_pivot", counted)
        for section in sections:
            vertex, (k, per_m) = pivots(basis_constant, section)
            optima, best = pivots(optimum_floors, section)
            assert (k, per_m) == (max(best), best)
            with monkeypatch.context() as patch:
                patch.setattr("kslab.basic_seq_diag._raise_floors", lambda lp, per_m: None)
                unwired, _ = pivots(basis_constant, section)
            assert vertex < optima < unwired

    def test_every_floor_at_most_the_norm(self, monkeypatch):
        # a floor is a value some point of K attains, so it never passes ||P_m||
        updates = []

        def checked(lp, per_m):
            _raise_floors(lp, per_m)
            assert all(f <= b for f, b in zip(per_m, best)), (per_m, best)
            updates.append(list(per_m))

        sections = diag_sections(6) + [rescaled_row(diag_sections(1)[0], 3, Fraction(7, 3))]
        monkeypatch.setattr("kslab.basic_seq_diag._raise_floors", checked)
        for section in sections:
            best = enumeration_maxima(section)
            updates.clear()
            assert basis_constant(section) == (max(best), best)
            assert len(updates) > 1 and updates[-1] == best


def bland_only_maximize(lp, p, floor):
    """maximize with Bland's rule from the first pivot: the walk before
    Dantzig-first pivots, kept to count what the rule saves."""
    while True:
        mu = [sum(map(mul, p, col)) for col in lp.adj]
        neg = [r for r in range(len(mu)) if mu[r] < 0]
        if not neg:
            return mu
        if sum(map(abs, mu)) * floor.denominator <= floor.numerator * lp.det:
            return None
        lp._pivot(min(neg, key=lambda r: lp.basis[r][0]), -1)


def sign_section(seed, n, f):
    """A seeded n x f section of independent rows with entries +-1: many
    vertices where more than n constraints are tight."""
    rng = random.Random(seed)
    while True:
        section = FiniteSection(rows=tuple(tuple(rng.choice((-1, 1)) for _ in range(f)) for _ in range(n)))
        try:
            _VertexSimplex(section.rows)  # raises on dependent rows
        except DegenerateSectionError:
            continue
        return section


class TestPivotRule:
    """A walk pivots by Dantzig's rule while p . c strictly rises and by
    Bland's rule from the first pivot where it does not."""

    def test_fewer_pivots_than_bland_only(self, monkeypatch):
        # fails when every walk pivots by Bland's rule from its start
        pivot = _VertexSimplex._pivot
        calls = [0]

        def counted(lp, r, sigma):
            calls[0] += 1
            pivot(lp, r, sigma)

        def pivots(section):
            calls[0] = 0
            result = basis_constant(section)
            return calls[0], result

        sections = diag_sections(6)
        monkeypatch.setattr(_VertexSimplex, "_pivot", counted)
        for section in sections:
            dantzig, result = pivots(section)
            with monkeypatch.context() as patch:
                patch.setattr(_VertexSimplex, "maximize", bland_only_maximize)
                bland, bland_result = pivots(section)
            assert result == bland_result
            assert dantzig < bland

    def test_rule_and_fallback_against_enumeration(self, monkeypatch):
        # replays the rule from outside: before each walk pivot, the leaving
        # row is the most negative multiplier, or Bland's row once a pivot
        # of the same call has failed to raise p . c strictly
        maximize, pivot = _VertexSimplex.maximize, _VertexSimplex._pivot
        walk = {}

        def watched_maximize(lp, p, floor):
            walk.update(p=p, bland=False)
            return maximize(lp, p, floor)

        def watched_pivot(lp, r, sigma):
            if sigma == 1:  # a forced pivot toward the first vertex
                return pivot(lp, r, sigma)
            p = walk["p"]
            mu = [sum(map(mul, p, col)) for col in lp.adj]
            if walk["bland"]:
                assert r == min((i for i in range(len(mu)) if mu[i] < 0), key=lambda i: lp.basis[i][0])
                walk["fallback"] += 1
            else:
                assert mu[r] == min(mu) < 0
            before = Fraction(sum(map(mul, p, lp.point())), lp.det)
            pivot(lp, r, sigma)
            walk["bland"] = walk["bland"] or Fraction(sum(map(mul, p, lp.point())), lp.det) <= before

        sections = {
            "identity": FiniteSection(rows=frac_rows([[int(i == j) for j in range(12)] for i in range(7)])),
            "rescaled": rescaled_row(diag_sections(1)[0], 3, Fraction(7, 3)),
            "signs": sign_section(0, 8, 16),
        }
        monkeypatch.setattr(_VertexSimplex, "maximize", watched_maximize)
        monkeypatch.setattr(_VertexSimplex, "_pivot", watched_pivot)
        fallback = {}
        for name, section in sections.items():
            walk["fallback"] = 0
            result = basis_constant(section)
            fallback[name] = walk["fallback"]
            best = enumeration_maxima(section)
            assert result == (max(best), best), name
        assert fallback["signs"] > 0, fallback


def gram_det(rows):
    """det(R R^T) by cofactor expansion: nonzero iff the rows are independent."""
    gram = [[sum((a * b for a, b in zip(r, s)), Fraction(0)) for s in rows] for r in rows]

    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        return sum(
            (-1) ** j * mat[0][j] * det([row[:j] + row[j + 1 :] for row in mat[1:]])
            for j in range(len(mat))
            if mat[0][j]
        )

    return det(gram)


class TestSectionRank:
    def test_agrees_with_gram_determinant_oracle(self):
        rng = random.Random(59)
        verdicts = {True: 0, False: 0}
        for trial in range(300):
            n, f = rng.randint(1, 5), rng.randint(1, 7)
            rows = [
                [Fraction(rng.choice([0, 0, 1, -1, 2, -3]), rng.randint(1, 4)) for _ in range(f)]
                for _ in range(n)
            ]
            if n >= 3 and trial % 2:
                # plant a row that is a rational combination of two others
                i, j, k = rng.sample(range(n), 3)
                a, b = Fraction(rng.randint(-5, 5), rng.randint(1, 5)), Fraction(rng.randint(1, 5), 3)
                rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
            independent = gram_det(rows) != 0
            verdicts[independent] += 1
            try:
                basis_constant(FiniteSection(rows=frac_rows(rows)))
                accepted = True
            except DegenerateSectionError:
                accepted = False
            assert accepted == independent, rows
        assert min(verdicts.values()) >= 50, verdicts


DEPENDENT = r"^section rows are linearly dependent$"


class TestRankFromFirstVertex:
    """The rank is read off the forced pivots of the simplex's first vertex:
    a ray that meets no constraint lies in the rows' null space.  Every
    error and message is raised by both entry points."""

    @pytest.mark.parametrize(
        "rows, error, message",
        [
            ((), DegenerateSectionError, r"^section has no functionals$"),
            (((1, 0), (0, 1, 5)), DegenerateSectionError, r"^section rows differ in length: \[2, 3\]$"),
            (((1, 0), (0, Fraction(1, 2)), (0.1, 1)), TypeError,
             r"^functional 2 has a float entry; use int or Fraction$"),
            (((1, 2), (0, 0)), DegenerateSectionError, r"^functional 1 is zero on the test family$"),
            (((1, 2, 0), (0, 1, 3), (1, 2, 0)), DegenerateSectionError, DEPENDENT),
            (((1, -2, 3), (0, 1, 1), (Fraction(5, 2), -5, Fraction(15, 2))), DegenerateSectionError, DEPENDENT),
            (((1, 0), (0, 1), (1, 1)), DegenerateSectionError, DEPENDENT),
        ],
        ids=["empty", "unequal-length", "float", "zero-row", "repeated-row", "positive-multiple",
             "more-functionals-than-tests"],
    )
    def test_every_error_and_message(self, rows, error, message):
        section = FiniteSection(rows=rows)
        for call in (basis_constant, section_report):
            with pytest.raises(error, match=message):
                call(section)

    def test_sections_are_eliminated_once(self):
        # the simplex's first vertex is the one elimination of a section
        tree = ast.parse(Path(basic_seq_diag.__file__).read_text(encoding="utf-8"))
        named = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
        assert "EchelonStore" not in named
        assert not hasattr(basic_seq_diag, "EchelonStore")


class TestSectionOfKs:
    def test_constant_family_gives_zero_column(self):
        # column balance wipes the constant tensor, flagged downstream
        family = [TensorCombo(terms=(SymmetricTerm("constant_one"),), name="ones")]
        section = section_of_ks([1, 2], family)
        assert all(v == 0 for row in section.rows for v in row)
        with pytest.raises(DegenerateSectionError):
            basis_constant(section)

    def test_exact_table_against_symmetric_oracle(self):
        family = standard_test_family() + [
            TensorCombo(terms=(SymmetricTerm("linear_centered", coeff=Fraction(1, 2)),))
        ]
        section = section_of_ks([1, 2, 3], family)
        assert section.n_functionals == 3 and section.n_tests == 6
        for i, s in enumerate([1, 2, 3]):
            m = build(s)
            for j, h in enumerate(family):
                expected = sum(
                    (
                        term.coeff
                        * eval_symmetric(
                            m, profile_table(term.profile, s), term.g_const * s
                        )
                        for term in h.terms
                    ),
                    Fraction(0),
                )
                assert section.rows[i][j] == expected

    def test_empty_indices_rejected(self):
        with pytest.raises(ValueError):
            section_of_ks([], standard_test_family())

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            section_of_ks([1, 2], [])


class TestFunctionalSections:
    def test_triangular_functionals_have_constant_one(self):
        # rows b_n^*(b_m) form the identity, so K = 1 exactly
        gens = GeneratorSet([{1: 1, 2: 1}, {2: 1, 3: -2}, {3: 1, 4: 1}, {4: 2}])
        basis = build_triangular_basis(gens, 4, 5)
        rows = []
        for n in range(1, 5):
            weights = coefficient_functional(basis, n)
            rows.append(
                tuple(
                    apply_functional(weights, densify(basis)[m - 1].coords[: len(weights)])
                    for m in range(1, 5)
                )
            )
        k, per_m = basis_constant(FiniteSection(rows=tuple(rows)))
        assert abs(k - 1.0) < TOL


class TestSectionReport:
    def test_report_shape(self):
        section = FiniteSection(rows=frac_rows([[1, 0], [0, 1]]))
        doc = section_report(section)
        assert doc["n_functionals"] == 2
        assert doc["values"] == [["1", "0"], ["0", "1"]]
        assert "caveat" in doc
        assert float(doc["basis_constant"]) == pytest.approx(1.0, abs=1e-9)

    def test_exact_fields_and_byte_stability(self):
        section = random_section(random.Random(5), 4, 6)
        doc = section_report(section)
        k, per_m = basis_constant(section)
        assert parse_rational(doc["basis_constant_exact"]) == k
        assert [parse_rational(v) for v in doc["per_m_projection_norms_exact"]] == per_m
        assert float(doc["basis_constant"]) == pytest.approx(float(k), rel=1e-15)
        assert json.dumps(section_report(section)) == json.dumps(doc)

    def test_norm_past_str_digit_limit(self):
        # K has 14,618 bits, so its whole part has over 4300 decimal digits;
        # the decimal fields are null there and the exact fields carry K
        section = FiniteSection(rows=((1, 1), (1, 1 + Fraction(1, 10**4400))))
        doc = json.loads(json.dumps(section_report(section)))
        k, per_m = basis_constant(section)
        assert k.numerator.bit_length() - k.denominator.bit_length() > 14000
        assert parse_rational(doc["basis_constant_exact"]) == k
        assert doc["basis_constant"] is None
        assert doc["per_m_projection_norms"] == [None] and per_m == [k]
