"""Density checks, triangular basis construction, expansion recursion,
stabilization verdicts against the dense grid oracle, and coefficient
functionals, all exact; and the echelon store against its own recorded
combinations and against a Fraction-row reference store."""

import ast
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from kslab import schauder
from kslab.schauder import (
    DENSE_UP_TO,
    DensityError,
    EchelonStore,
    GeneratorSet,
    NOT_DENSE,
    TriangularBasis,
    density_check,
    expand,
)
from kslab.report import basis_to_json, expansion_to_json, rational
from oracles import (
    apply_functional,
    build_triangular_basis,
    coefficient_functional,
    coord,
    densify,
    fraction_basis,
    fraction_basis_to_json,
    reference_grid,
    undensify,
)


def unit_generators(count):
    return GeneratorSet([{k: 1} for k in range(1, count + 1)])


def det3(rows):
    """Cofactor-expansion determinant, the independent 3x3 rank oracle."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def exact_rank(rows):
    mat = [list(map(Fraction, r)) for r in rows]
    rank = 0
    for c in range(len(mat[0]) if mat else 0):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][c]:
                factor = mat[r][c] / mat[rank][c]
                for c2 in range(len(mat[0])):
                    mat[r][c2] -= factor * mat[rank][c2]
        rank += 1
    return rank


def random_dense_generators(rng, m=20, horizon=30, junk=5):
    """A shuffled family guaranteed dense up to m: a triangular core
    (coordinate k pivot plus a random tail above k) and junk vectors."""
    gens = []
    for k in range(1, m + 1):
        vec = {k: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))}
        for extra in rng.sample(range(k + 1, horizon + 1), k=rng.randint(0, 3)):
            vec[extra] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        gens.append(vec)
    for _ in range(junk):
        vec = {
            coord: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for coord in rng.sample(range(1, horizon + 1), k=rng.randint(1, 4))
        }
        gens.append({k: v for k, v in vec.items() if v})
    rng.shuffle(gens)
    return GeneratorSet(gens)


class TestDensityCheck:
    def test_unit_sequences_dense(self):
        result = density_check(unit_generators(10), 10)
        assert result.status == DENSE_UP_TO
        assert result.rank == 10

    def test_missing_first_coordinate(self):
        gens = GeneratorSet([{k: 1} for k in range(2, 12)])
        result = density_check(gens, 1)
        assert result.status == NOT_DENSE
        assert result.failing == (1,)

    def test_gap_below_the_rank(self):
        # pivots 1, 2, 4, 5 of 6: the least uncovered segment is {1, 2, 3}
        gens = GeneratorSet([{1: 1, 3: 2}, {2: 1}, {4: 1, 3: 0}, {5: 2, 6: 1}, {1: 1, 2: 1, 3: 2, 4: 1}, {5: 4, 6: 2}])
        result = density_check(gens, 6)
        assert (result.status, result.rank, result.failing) == (NOT_DENSE, 4, (1, 2, 3))

    def test_failing_segment_ends_at_the_first_gap(self):
        rng = random.Random(4111)
        short = 0
        for _ in range(200):
            m = rng.randint(1, 7)
            gens = GeneratorSet(
                {k: Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for k in rng.sample(range(1, m + 3), 2)}
                for _ in range(rng.randint(0, m + 1))
            )
            result = density_check(gens, m)
            gap = first_gap(result.echelon)
            assert (result.status == NOT_DENSE) == (gap is not None)
            assert result.rank == len(result.echelon.rows)
            assert result.failing == (tuple(range(1, gap + 1)) if gap else ())
            short += gap is not None and gap <= result.rank
        assert short >= 20, short

    def test_three_generator_example_with_det_oracle(self):
        vectors = [{1: 1, 2: 1}, {2: 1, 3: 1}, {3: 1}]
        result = density_check(GeneratorSet(vectors), 3)
        assert result.status == DENSE_UP_TO
        matrix = [[Fraction(v.get(c, 0)) for v in vectors] for c in (1, 2, 3)]
        assert det3(matrix) != 0  # elimination oracle agrees

    def test_dependent_generators_counted_by_rank(self):
        gens = GeneratorSet([{1: 1}, {1: 2}, {1: 3, 2: 1}])
        result = density_check(gens, 2)
        assert result.status == DENSE_UP_TO
        assert result.pivot_generators == (0, 2)

    def test_monotone_in_segment_length(self):
        rng = random.Random(77)
        gens = random_dense_generators(rng, m=12, horizon=20)
        assert density_check(gens, 12).status == DENSE_UP_TO
        for m in (1, 5, 12):
            fresh = random_dense_generators(random.Random(77), m=12, horizon=20)
            assert density_check(fresh, m).status == DENSE_UP_TO

    def test_random_subsets_inherit_surjectivity(self):
        # the documented reduction: a subprojection of a surjection is
        # surjective; check rank |F| on random subsets F of {1..m}
        rng = random.Random(123)
        gens = random_dense_generators(rng, m=10, horizon=16)
        vectors = list(gens)[:15]  # 10 core + 5 junk
        assert density_check(gens, 10).status == DENSE_UP_TO
        for _ in range(20):
            subset = rng.sample(range(1, 11), k=rng.randint(1, 10))
            rows = [[v.get(c, Fraction(0)) for v in vectors] for c in subset]
            assert exact_rank(rows) == len(subset)

    def test_bad_segment_rejected(self):
        with pytest.raises(ValueError):
            density_check(unit_generators(3), 0)


class TestBuildTriangularBasis:
    def test_unit_generators_give_unit_basis(self):
        basis = build_triangular_basis(unit_generators(8), 5, 8)
        for n in range(1, 6):
            expected = tuple(
                Fraction(1) if k == n else Fraction(0) for k in range(1, 9)
            )
            assert densify(basis)[n - 1].coords == expected

    def test_two_generator_worked_example(self):
        # b_1 = (e_1 + e_2) - e_2 = e_1 and b_2 = e_2, by a 2x2 exact solve
        gens = GeneratorSet([{1: 1, 2: 1}, {2: 1}])
        basis = build_triangular_basis(gens, 2, 4)
        assert densify(basis)[0].coords == (1, 0, 0, 0)
        assert densify(basis)[0].combination == ((0, Fraction(1)), (1, Fraction(-1)))
        assert densify(basis)[1].coords == (0, 1, 0, 0)

    def test_rank_deficiency_names_coordinate(self):
        gens = GeneratorSet([{1: 1, 2: 1}, {2: 1}])
        with pytest.raises(DensityError) as err:
            build_triangular_basis(gens, 3, 5)
        assert err.value.coordinate == 3

    def test_horizon_must_cover_length(self):
        with pytest.raises(ValueError):
            build_triangular_basis(unit_generators(4), 4, 3)

    def test_biorthogonality_on_random_sets(self):
        rng = random.Random(2024)
        for _ in range(3):
            gens = random_dense_generators(rng, m=8, horizon=12)
            basis = build_triangular_basis(gens, 8, 12)
            for n in range(1, 9):
                for k in range(1, 9):
                    assert coord(basis, n, k) == (1 if k == n else 0)

    def test_vectors_lie_in_generator_span(self):
        rng = random.Random(31)
        gens = random_dense_generators(rng, m=6, horizon=10)
        vectors = list(gens)[:11]  # 6 core + 5 junk
        basis = build_triangular_basis(gens, 6, 10)
        for vec in densify(basis):
            rebuilt = [Fraction(0)] * 10
            for c, w in vec.combination:
                for k, v in vectors[c].items():
                    rebuilt[k - 1] += w * v
            assert tuple(rebuilt) == vec.coords

    def test_deterministic(self):
        gens1 = random_dense_generators(random.Random(5), m=6, horizon=10)
        gens2 = random_dense_generators(random.Random(5), m=6, horizon=10)
        b1 = build_triangular_basis(gens1, 6, 10)
        b2 = build_triangular_basis(gens2, 6, 10)
        assert b1 == b2

    def test_stream_generators(self):
        # shifted pairs e_k + e_{k+1}/2, more of them than the basis uses
        gens = GeneratorSet([{k: 1, k + 1: Fraction(1, 2)} for k in range(1, 100)])
        basis = build_triangular_basis(gens, 4, 6)
        for n in range(1, 5):
            for k in range(1, 5):
                assert coord(basis, n, k) == (1 if k == n else 0)


class TestExpand:
    def _basis(self):
        gens = GeneratorSet([{1: 1, 2: 1}, {2: 1}])
        return build_triangular_basis(gens, 2, 4)

    def test_basis_vector_expands_to_unit(self):
        basis = build_triangular_basis(unit_generators(6), 4, 6)
        y = list(densify(basis)[2].coords)
        exp = expand(y, basis)
        assert exp.coefficients == (0, 0, 1, 0)

    def test_zero_target(self):
        exp = expand([0, 0, 0, 0], self._basis())
        assert exp.coefficients == (0, 0)

    def test_worked_recursion(self):
        # a_1 = 2, a_2 = 3 - 2 * pi_2(b_1) = 3 - 0
        exp = expand([Fraction(2), Fraction(3), 0, 0], self._basis())
        assert exp.coefficients == (2, 3)

    def test_horizon_mismatch(self):
        with pytest.raises(ValueError):
            expand([1, 2], self._basis())

    def test_general_recursion_against_direct_formula(self):
        # a handmade triangular basis with nonzero entries above the diagonal
        basis = TriangularBasis(
            vectors=(
                undensify((Fraction(1), Fraction(2), Fraction(5))),
                undensify((Fraction(0), Fraction(1), Fraction(-3))),
                undensify((Fraction(0), Fraction(0), Fraction(1))),
            ),
            horizon=3,
        )
        y = [Fraction(4), Fraction(1), Fraction(2)]
        exp = expand(y, basis)
        a1 = y[0]
        a2 = y[1] - a1 * coord(basis, 1, 2)
        a3 = y[2] - a1 * coord(basis, 1, 3) - a2 * coord(basis, 2, 3)
        assert exp.coefficients == (a1, a2, a3)
        assert all(reference_grid(exp.coefficients, basis, y).values())

    def test_triangular_dependence_of_coefficients(self):
        # perturbing y at coordinate m changes only a_n for n >= m
        basis = TriangularBasis(
            vectors=(
                undensify((Fraction(1), Fraction(1), Fraction(1), Fraction(0))),
                undensify((Fraction(0), Fraction(1), Fraction(4), Fraction(0))),
                undensify((Fraction(0), Fraction(0), Fraction(1), Fraction(2))),
            ),
            horizon=4,
        )
        y = [Fraction(3), Fraction(-1), Fraction(2), Fraction(0)]
        base = expand(y, basis).coefficients
        y2 = list(y)
        y2[1] += Fraction(5, 7)
        bumped = expand(y2, basis).coefficients
        assert bumped[0] == base[0]
        assert bumped[1] != base[1]


class TestStabilization:
    def test_all_true_for_unit_basis(self):
        basis = build_triangular_basis(unit_generators(8), 6, 8)
        y = [Fraction(i * i - 3, 2) for i in range(1, 9)]
        exp = expand(y, basis)
        assert all(reference_grid(exp.coefficients, basis, y).values())

    def test_sum_of_two_basis_vectors(self):
        gens = GeneratorSet([{1: 1, 2: 1}, {2: 1, 3: 2}, {3: 1}])
        basis = build_triangular_basis(gens, 3, 5)
        y = [a + b for a, b in zip(densify(basis)[0].coords, densify(basis)[1].coords)]
        exp = expand(y, basis)
        assert exp.coefficients == (1, 1, 0)
        assert all(reference_grid(exp.coefficients, basis, y).values())

    def test_random_rational_targets(self):
        rng = random.Random(909)
        gens = random_dense_generators(rng, m=10, horizon=20)
        basis = build_triangular_basis(gens, 10, 20)
        for _ in range(5):
            y = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(20)]
            exp = expand(y, basis)
            assert all(reference_grid(exp.coefficients, basis, y).values())

    def test_stabilization_log_consistent_with_grid(self):
        basis = TriangularBasis(
            vectors=(
                undensify((Fraction(1), Fraction(3))),
                undensify((Fraction(0), Fraction(1))),
            ),
            horizon=2,
        )
        y = [Fraction(1), Fraction(0)]
        exp = expand(y, basis)
        grid = reference_grid(exp.coefficients, basis, y)
        for m, logged in enumerate(exp.stabilization_log, start=1):
            assert logged <= max(m, 1)
            for np_ in range(m, len(basis) + 1):
                assert grid[(m, np_)] == (np_ >= logged)
        assert all(grid.values())


def reference_expansion(y, basis):
    """The dense expansion: every (m, N') pair adds a_N' pi_m(b_N') to the
    partial sum and compares it with y_m.  Returns the coefficients and the
    stabilization log, or None where a coordinate never stabilizes."""
    yf = [Fraction(v) for v in y[: basis.horizon]]
    N = len(basis)
    coeffs = []
    for n in range(1, N + 1):
        coeffs.append(yf[n - 1] - sum((coeffs[k - 1] * coord(basis, k, n) for k in range(1, n)), Fraction(0)))
    log = []
    for m in range(1, N + 1):
        partial, last_bad = Fraction(0), 0
        for np_ in range(1, N + 1):
            partial += coeffs[np_ - 1] * coord(basis, np_, m)
            if partial != yf[m - 1]:
                last_bad = np_
        log.append(None if last_bad >= N else last_bad + 1)
    return tuple(coeffs), tuple(log)


def handmade_coords(rng, N, horizon, triangular):
    """Dense b_1..b_N with pi_n(b_n) = 1 and entries in {-1, 0, 1, 2} after
    n (the paper's triangular profile), and also before n unless triangular."""
    return [
        [
            Fraction(1) if k == n
            else Fraction(rng.choice([-1, 0, 0, 1, 2])) if k > n or not triangular
            else Fraction(0)
            for k in range(1, horizon + 1)
        ]
        for n in range(1, N + 1)
    ]


def basis_of(coords, horizon):
    return TriangularBasis(vectors=tuple(undensify(c) for c in coords), horizon=horizon)


def random_handmade_basis(rng, N, horizon):
    return basis_of(handmade_coords(rng, N, horizon, triangular=True), horizon)


def with_entries(basis, entries):
    """The dense coordinates of basis with pi_k(b_n) = v for each (n, k) -> v of entries."""
    coords = [list(vec.coords) for vec in densify(basis)]
    for (n, k), v in entries.items():
        coords[n - 1][k - 1] = v
    return coords


def first_off_profile(coords):
    """The least n whose b_n has an entry before n, or None."""
    return next((n for n, c in enumerate(coords, start=1) if any(c[: n - 1])), None)


class TestTriangularContract:
    @pytest.mark.parametrize(
        "coords, bad",
        [
            ([(1, 0), (1, 1)], 2),  # an entry before the diagonal
            ([(1, 5, 0), (0, 1, 0), (0, -2, 1)], 3),
            ([(2, 1)], 1),  # pi_1(b_1) = 2
            ([(1, 0, 0), (0, Fraction(1, 2), 1)], 2),  # pi_2(b_2) = 1/2
            ([(1, 0), (0, -1)], 2),  # pi_2(b_2) = -1
            ([(1, 0, 0), (0, 0, 1)], 2),  # pi_2(b_2) = 0, first entry after it
            ([(1, 0), (0, 0)], 2),  # b_2 = 0
        ],
    )
    def test_rejected_at_construction(self, coords, bad):
        message = rf"^b_{bad} must vanish before coordinate {bad} and have pi_{bad}\(b_{bad}\) = 1$"
        with pytest.raises(ValueError, match=message):
            basis_of(coords, len(coords[0]))


class TestSparseExpansionAgainstDenseLoop:
    def test_handmade_bases_with_entries_off_the_unit_profile(self):
        rng = random.Random(7071)
        moved = rejected = 0
        for trial in range(400):
            N = rng.randint(1, 7)
            horizon = N + rng.randint(0, 2)
            basis = random_handmade_basis(rng, N, horizon)
            y = [Fraction(rng.choice([-2, -1, 0, 0, 1, 3]), rng.randint(1, 2)) for _ in range(horizon)]
            coeffs, log = reference_expansion(y, basis)
            exp = expand(y, basis)
            assert exp.coefficients == coeffs and exp.stabilization_log == log
            assert all(reference_grid(coeffs, basis, y).values())
            moved += sum(1 for m, logged in enumerate(log, start=1) if logged != 1 and m > 1)
            # entries before the diagonal: a triangular basis cannot hold them
            if trial % 2:
                off = handmade_coords(rng, N, horizon, triangular=False)
            else:
                # pi_1 terms a_n1 a_n2 and -a_n2 a_n1 would cancel, keeping the
                # coefficients while pi_1(S_N') leaves y_1 at n1 and returns at n2
                nonzero = [n for n, a in enumerate(coeffs, start=1) if a]
                if len(nonzero) < 2 or nonzero[-2] == 1:
                    continue
                n1, n2 = nonzero[-2:]
                off = with_entries(basis, {(n1, 1): coeffs[n2 - 1], (n2, 1): -coeffs[n1 - 1]})
            bad = first_off_profile(off)
            if bad is None:
                assert basis_of(off, horizon).row_index
                continue
            with pytest.raises(ValueError, match=f"^b_{bad} must vanish before coordinate {bad}"):
                basis_of(off, horizon)
            rejected += 1
        assert moved >= 400 and rejected >= 120, (moved, rejected)

    @pytest.mark.parametrize("kind", ["built", "handmade"])
    def test_larger_bases(self, kind):
        # a built basis at N = 20 (unit profile on 1..N, tails beyond N) and a
        # paper-triangular hand-made one at N = 30 (entries after the diagonal);
        # both are triangular, so every expansion stabilizes
        rng = random.Random(f"larger-{kind}")
        if kind == "built":
            basis = build_triangular_basis(random_dense_generators(rng, m=20, horizon=30), 20, 30)
        else:
            basis = random_handmade_basis(rng, 30, 32)
        for _ in range(4):
            y = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(basis.horizon)]
            coeffs, log = reference_expansion(y, basis)
            exp = expand(y, basis)
            assert exp.coefficients == coeffs and exp.stabilization_log == log
            assert all(reference_grid(coeffs, basis, y).values())
        if kind == "handmade":  # the recursion reads entries off the unit profile
            assert sum(map(len, basis.row_index)) > 2 * len(basis)

class TestRowIndex:
    @staticmethod
    def dense_nonzeros(basis):
        N = len(basis)
        return tuple(
            tuple((n, coord(basis, n, m)) for n in range(1, N + 1) if coord(basis, n, m)) for m in range(1, N + 1)
        )

    @pytest.mark.parametrize("triangular", [True, False])
    def test_handmade_bases(self, triangular):
        # with entries before the diagonal allowed, a draw is rejected unless
        # none came up
        rng = random.Random(f"index-{triangular}")
        rejected = 0
        for _ in range(50):
            N = rng.randint(1, 9)
            horizon = N + rng.randint(0, 3)
            coords = handmade_coords(rng, N, horizon, triangular=triangular)
            bad = first_off_profile(coords)
            if bad is not None:
                with pytest.raises(ValueError, match=f"^b_{bad} must vanish"):
                    basis_of(coords, horizon)
                rejected += 1
                continue
            basis = basis_of(coords, horizon)
            assert basis.row_index == self.dense_nonzeros(basis)
        assert rejected == 0 if triangular else rejected >= 40, rejected

    def test_built_basis(self):
        gens = random_dense_generators(random.Random(2020), m=20, horizon=30)
        basis = build_triangular_basis(gens, 20, 30)
        assert basis.row_index == self.dense_nonzeros(basis)
        assert basis.row_index == tuple(((m, 1),) for m in range(1, 21))  # the unit profile

    def test_expansions_read_only_the_index(self):
        rng = random.Random(606)
        basis = build_triangular_basis(random_dense_generators(rng, m=20, horizon=30), 20, 30)
        reads = 0

        class CountingCoords(tuple):
            """Counts indexed reads of a vector's entries; iteration is free."""

            def __getitem__(self, k):
                nonlocal reads
                reads += 1
                return super().__getitem__(k)

        vectors = tuple(v._replace(entries=CountingCoords(v.entries)) for v in basis.vectors)
        basis = TriangularBasis(vectors=vectors, horizon=basis.horizon)
        index = basis.row_index
        reads = 0  # the constructor reads each b_n's first entry, for its contract
        targets = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(30)] for _ in range(5)]
        expansions = [expand(y, basis) for y in targets]
        assert reads == 0 and basis.row_index is index
        for y, exp in zip(targets, expansions):  # checked after the count: the oracle reads coord
            assert all(reference_grid(exp.coefficients, basis, y).values())


class TestCoefficientFunctional:
    def test_first_functional_is_first_projection(self):
        basis = build_triangular_basis(unit_generators(4), 3, 4)
        assert coefficient_functional(basis, 1) == (1,)

    def test_unit_basis_gives_unit_weights(self):
        basis = build_triangular_basis(unit_generators(5), 5, 5)
        for n in range(1, 6):
            weights = coefficient_functional(basis, n)
            assert weights == tuple(
                Fraction(1) if k == n else Fraction(0) for k in range(1, n + 1)
            )

    def test_worked_two_generator_example(self):
        gens = GeneratorSet([{1: 1, 2: 1}, {2: 1}])
        basis = build_triangular_basis(gens, 2, 4)
        weights = coefficient_functional(basis, 2)
        assert apply_functional(weights, densify(basis)[0].coords) == 0
        assert apply_functional(weights, densify(basis)[1].coords) == 1

    def test_biorthogonality_on_nontrivial_triangular_basis(self):
        basis = TriangularBasis(
            vectors=(
                undensify((Fraction(1), Fraction(2), Fraction(-1))),
                undensify((Fraction(0), Fraction(1), Fraction(7))),
                undensify((Fraction(0), Fraction(0), Fraction(1))),
            ),
            horizon=3,
        )
        for n in range(1, 4):
            weights = coefficient_functional(basis, n)
            for m in range(1, 4):
                value = apply_functional(weights, densify(basis)[m - 1].coords[:n])
                assert value == (1 if m == n else 0)

    def test_index_out_of_range(self):
        basis = build_triangular_basis(unit_generators(3), 2, 3)
        with pytest.raises(ValueError):
            coefficient_functional(basis, 3)


class TestSerialization:
    def test_jsonl_ingest(self):
        text = '{"coords": {"1": "1", "2": "1/2"}}\n\n{"coords": {"2": "1"}}\n'
        gens = GeneratorSet.from_jsonl(text)
        assert list(gens) == [{1: Fraction(1), 2: Fraction(1, 2)}, {2: Fraction(1)}]

    def test_jsonl_rejects_garbage(self):
        with pytest.raises(ValueError, match="line 1"):
            GeneratorSet.from_jsonl("not json\n")
        with pytest.raises(ValueError, match="line 2"):
            GeneratorSet.from_jsonl('{"coords": {"1": "1"}}\n{"coords": {"0": "1"}}\n')

    def test_jsonl_rejects_repeated_coordinate(self):
        # "1", "01" and " 1" all parse to coordinate 1; the JSON reader refuses a repeated key
        for coords, message in (('{"1": "2", "01": "3", "2": "1"}', "coordinate 1 given twice"),
                                ('{"1": "2", " 1": "3"}', "coordinate 1 given twice"),
                                ('{"1": "2", "1": "3"}', "key '1' given twice")):
            with pytest.raises(ValueError, match=f"^generator line 2: {message}$"):
                GeneratorSet.from_jsonl('{"coords": {"1": "1"}}\n{"coords": %s}\n' % coords)

    @pytest.mark.parametrize("key", ["1_0", "\u0663", "x", "", "1.0", "0x1", "1 0", "\uff11"])
    def test_jsonl_coordinate_keys_in_ascii_digits_only(self, key):
        # int() alone would read "1_0" as 10 and "\u0663" as 3
        line = json.dumps({"coords": {key: "1", "2": "1"}})
        with pytest.raises(ValueError, match=f"^generator line 2: malformed coordinate {re.escape(repr(key))}$"):
            GeneratorSet.from_jsonl('{"coords": {"1": "1"}}\n' + line + "\n")

    def test_jsonl_coordinate_keys_keep_sign_space_and_zeros(self):
        gens = GeneratorSet.from_jsonl('{"coords": {" 1": "1", "+2": "2", "03": "3", "4\\n": "4"}}\n')
        assert list(gens) == [{1: 1, 2: 2, 3: 3, 4: 4}]
        with pytest.raises(ValueError, match="^generator line 1: coordinate 2 given twice$"):
            GeneratorSet.from_jsonl('{"coords": {"2": "1", "+2": "1"}}')
        for key in ("-1", " -0", "0"):
            with pytest.raises(ValueError, match="^generator line 1: coordinates are 1-based"):
                GeneratorSet.from_jsonl(json.dumps({"coords": {key: "1"}}))

    def test_jsonl_validates_each_generator_once(self, monkeypatch):
        calls = []
        validate = schauder._validate_sparse

        def counting(*args):
            calls.append(args)
            return validate(*args)

        monkeypatch.setattr(schauder, "_validate_sparse", counting)
        gens = GeneratorSet.from_jsonl('{"coords": {"1": "1", "3": "0"}}\n{"coords": {"2": "-1/2"}}\n\n')
        assert len(calls) == 2
        assert list(gens) == [{1: 1}, {2: Fraction(-1, 2)}]  # the zero at 3 is dropped

    def test_direct_construction_rejects_floats(self):
        # a float would enter at its binary value, not at 1/10
        with pytest.raises(TypeError, match="^GeneratorSet requires int, Fraction or str values, got float 0.1$"):
            GeneratorSet([{1: 0.1}])
        assert list(GeneratorSet([{1: 1, 2: Fraction(1, 10), 3: "1/10"}])) == [
            {1: 1, 2: Fraction(1, 10), 3: Fraction(1, 10)}
        ]

    def test_expand_rejects_float_targets(self):
        basis = build_triangular_basis(unit_generators(2), 2, 2)
        with pytest.raises(TypeError, match="^expand requires int, Fraction or str values, got float 0.1$"):
            expand([0.1, 1], basis)
        assert expand([Fraction(1, 10), "1/10"], basis).coefficients == (Fraction(1, 10), Fraction(1, 10))

    def test_fraction_values_pass_unwrapped(self):
        q = Fraction(-3, 7)
        assert rational(q, "expand") is q
        assert rational(2, "expand") == Fraction(2) and rational("1/3", "expand") == Fraction(1, 3)
        with pytest.raises(TypeError, match="float"):
            rational(0.5, "expand")

    @pytest.mark.parametrize("value", ["1_0", "\u0663", " 1e1_0"])
    def test_library_values_under_the_file_grammar(self, value):
        # int() and Fraction() alone would read "1_0" as 10 and "\u0663" as 3
        with pytest.raises(ValueError, match="^malformed rational "):
            GeneratorSet([{1: value}])
        with pytest.raises(ValueError, match="^malformed rational "):
            expand([value, "1"], build_triangular_basis(unit_generators(2), 2, 2))

    def test_booleans_refused(self):
        # a bool is an int to Python, but no rational a caller means
        basis = build_triangular_basis(unit_generators(2), 2, 2)
        with pytest.raises(TypeError, match="^GeneratorSet requires int, Fraction or str values, got boolean$"):
            GeneratorSet([{1: True}])
        with pytest.raises(TypeError, match="^expand requires int, Fraction or str values, got boolean$"):
            expand([1, False], basis)
        for key in (True, 1.0, 1.5):
            with pytest.raises(ValueError, match=f"^malformed coordinate {key!r}$"):
                GeneratorSet([{key: 1}])

    def test_direct_construction_validates(self):
        assert list(GeneratorSet([{1: 0, 2: "3/4"}])) == [{2: Fraction(3, 4)}]
        with pytest.raises(ValueError, match="1-based"):
            GeneratorSet([{1: 1}, {0: 1}])

    def test_basis_and_expansion_json(self):
        gens = GeneratorSet([{1: 1, 2: 1}, {2: 1}])
        basis = build_triangular_basis(gens, 2, 3)
        doc = basis_to_json(basis)
        assert doc["horizon"] == 3
        assert doc["vectors"][0]["coords"] == ["1", "0", "0"]
        assert doc["vectors"][0]["combination"] == {"0": "1", "1": "-1"}
        assert doc["vectors"][0]["support_size"] == 1
        exp = expand([Fraction(2), Fraction(3), 0], basis)
        exp_doc = expansion_to_json(exp)
        assert exp_doc["coefficients"] == ["2", "3"]
        assert exp_doc["stabilization_log"] == [1, 2]


def dominant_generators(rng, n, horizon, nnz=10, junk=5):
    """n generators with nnz nonzeros anywhere on the horizon, strictly
    column diagonally dominant on 1..n (so dense up to n), plus junk; the
    back-substitution fills in, so every unit combination is dense."""
    def value():
        return Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 3))

    gens = []
    for k in range(1, n + 1):
        vec = {c: value() for c in rng.sample([c for c in range(1, horizon + 1) if c != k], nnz - 1)}
        off = sum(abs(v) for c, v in vec.items() if c <= n)
        vec[k] = Fraction(rng.choice((-1, 1)) * (math.floor(off) + 1 + rng.randint(0, 3)))
        gens.append(vec)
    gens += [{c: value() for c in rng.sample(range(1, horizon + 1), rng.randint(1, 4))} for _ in range(junk)]
    rng.shuffle(gens)
    return GeneratorSet(gens)


class TestAgainstFractionBuild:
    """The integer basis against the Fraction build it replaced
    (oracles.fraction_basis): the same values and the same report text."""

    def check(self, G, N, horizon):
        density = density_check(G, N)
        basis = schauder.basis_from_density(density, horizon)
        reference = fraction_basis(density, G, horizon)
        assert densify(basis) == reference
        text = json.dumps(basis_to_json(basis), indent=2)
        assert text == json.dumps(fraction_basis_to_json(reference, horizon), indent=2)
        for vec in basis.vectors:  # joint lowest terms, positive denominators
            assert vec.den > 0 and math.gcd(vec.den, *(x for _, x in vec.entries)) == 1
            assert vec.weight_den > 0 and math.gcd(vec.weight_den, *(w for _, w in vec.combination)) == 1
            assert all(x for _, x in vec.entries) and [k for k, _ in vec.entries] == sorted(dict(vec.entries))
        return text

    def test_seeded_random_dense_generators(self):
        rng = random.Random(1789)
        rational = 0
        for _ in range(30):
            N = rng.randint(1, 12)
            horizon = N + rng.randint(3, 8)  # room for the tails and the junk
            text = self.check(random_dense_generators(rng, m=N, horizon=horizon), N, horizon)
            rational += "/" in text
        assert rational >= 20, rational

    def test_dense_60_by_90(self):
        text = self.check(dominant_generators(random.Random(6090), 60, 90), 60, 90)
        assert text.count("/") > 60 * 30  # rational tails past N and rational weights

    def test_corrupted_store_row_breaks_the_unit_profile(self):
        G = random_dense_generators(random.Random(515), m=8, horizon=12)
        density = density_check(G, 8)
        pivot, row, combo = density.echelon.rows[3]
        row[pivot] *= 2  # the row no longer equals its recorded combination
        with pytest.raises(AssertionError, match=r"unit coordinate profile violated at pi_\d+\(b_\d+\)"):
            schauder.basis_from_density(density, 12)
        with pytest.raises(AssertionError, match="unit coordinate profile violated"):
            fraction_basis(density, G, 12)


def reference_unit_profiles(gens, N):
    """The dense solver the triangular basis was built with before the echelon
    store: for each n <= N, the generator combination whose profile on 1..N
    is the n-th unit vector, by one forward elimination over the coordinate
    rows with first-nonzero pivoting, N unit right-hand sides and free
    variables fixed to zero.  Raises DensityError naming the coordinate of
    the first zero row."""
    g = len(gens)
    a = [[gens[c].get(i + 1, Fraction(0)) for c in range(g)] for i in range(N)]
    rhs = [[Fraction(1) if i == j else Fraction(0) for j in range(N)] for i in range(N)]
    pivot_cols = []
    for r in range(N):
        pivot = next((c for c in range(g) if a[r][c]), None)
        if pivot is None:
            raise DensityError(coordinate=r + 1)
        pivot_cols.append(pivot)
        for r2 in range(r + 1, N):
            if a[r2][pivot]:
                factor = a[r2][pivot] / a[r][pivot]
                for c in range(g):
                    if a[r][c]:
                        a[r2][c] -= factor * a[r][c]
                for j in range(N):
                    if rhs[r][j]:
                        rhs[r2][j] -= factor * rhs[r][j]
    solutions = []
    for j in range(N):
        x = [Fraction(0)] * g
        for r in range(N - 1, -1, -1):
            p = pivot_cols[r]
            acc = rhs[r][j]
            for r2 in range(r + 1, N):
                c2 = pivot_cols[r2]
                if a[r][c2] and x[c2]:
                    acc -= a[r][c2] * x[c2]
            x[p] = acc / a[r][p]
        solutions.append(x)
    return solutions


def reference_basis(gens, N, horizon):
    vectors = []
    for x in reference_unit_profiles(gens, N):
        coords = [Fraction(0)] * horizon
        combination = []
        for c, weight in enumerate(x):
            if weight:
                combination.append((c, weight))
                for k, v in gens[c].items():
                    if k <= horizon:
                        coords[k - 1] += weight * v
        vectors.append(undensify(coords, combination))
    return TriangularBasis(vectors=tuple(vectors), horizon=horizon)


def random_mixed_generators(rng, N, horizon):
    """Generators near density up to N: one vector per coordinate k <= N,
    nonzero at k and at up to two random coordinates on either side, plus
    exact duplicates, rational combinations of two generators and junk
    supported beyond N.  In about a third of the sets one or two coordinates
    are touched by no generator, so they are rank deficient."""
    def entry():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))

    gens = []
    for k in range(1, N + 1):
        vec = {k: entry()}
        others = [c for c in range(1, horizon + 1) if c != k]
        for c in rng.sample(others, k=min(len(others), rng.randint(0, 2))):
            vec[c] = entry()
        gens.append(vec)
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(["duplicate", "dependent", "junk"])
        if kind == "duplicate":
            gens.append(dict(rng.choice(gens)))
        elif kind == "dependent" and len(gens) >= 2:
            u, w = rng.sample(gens, 2)
            a, b = entry(), entry()
            gens.append({k: a * u.get(k, 0) + b * w.get(k, 0) for k in set(u) | set(w)})
        elif horizon > N:
            gens.append({c: entry() for c in rng.sample(range(N + 1, horizon + 1), k=1)})
    if rng.random() < 0.3:
        missing = rng.sample(range(1, N + 1), k=rng.randint(1, min(2, N)))
        gens = [{k: v for k, v in g.items() if k not in missing} for g in gens]
    rng.shuffle(gens)
    return [{k: v for k, v in g.items() if v} for g in gens]


class TestAgainstReferenceSolver:
    def test_random_finite_and_stream_sets(self):
        # free generators get weight zero, so solving on the whole list
        # equals solving on the prefix the density scan consumed
        rng = random.Random(4242)
        deficient = 0
        for _ in range(1000):
            N = rng.randint(1, 6)
            horizon = N + rng.randint(0, 3)
            vectors = random_mixed_generators(rng, N, horizon)
            G = GeneratorSet(vectors)
            try:
                expected = json.dumps(basis_to_json(reference_basis(vectors, N, horizon)))
            except DensityError as exc:
                deficient += 1
                with pytest.raises(DensityError) as err:
                    build_triangular_basis(G, N, horizon)
                assert err.value.coordinate == exc.coordinate
                continue
            assert json.dumps(basis_to_json(build_triangular_basis(G, N, horizon))) == expected
        assert deficient >= 200, deficient


def first_gap(store):
    """The least coordinate in 1..m that no row of an echelon store pivots on."""
    pivots = {pivot for pivot, _, _ in store.rows}
    return next((k for k in range(1, store.m + 1) if k not in pivots), None)


def fill_order(G, m):
    """The documented pivot order as a key: coordinates <= m that fewer
    generators touch first, ties to the smaller coordinate; untouched
    coordinates are not ranked."""
    touched = sorted({k for g in G for k in g if k <= m}, key=lambda k: (sum(k in g for g in G), k))
    return {k: i for i, k in enumerate(touched)}.__getitem__


def scanned(G, m, key=None):
    """An EchelonStore(m, key) fed the generators until its rank reaches m."""
    store = EchelonStore(m, key)
    for g in G:
        if len(store.rows) == m:
            break
        store.add(g)
    return store


def pivots_of(store):
    return [pivot for pivot, _, _ in store.rows]


class TestFillReducingOrder:
    """density_check's store pivots in the fill-reducing order, and its basis
    and NOT_DENSE gap equal those of the natural first-nonzero order."""

    def dense_sets(self):
        rng = random.Random(3636)
        for i in range(240):
            N = rng.randint(1, 12)
            horizon = N + rng.randint(3, 8)
            if i % 2:
                yield random_dense_generators(rng, m=N, horizon=horizon), N, horizon
            else:
                yield dominant_generators(rng, N, horizon, nnz=rng.randint(2, 5), junk=rng.randint(0, 3)), N, horizon
        yield dominant_generators(random.Random(6090), 60, 90), 60, 90

    def test_basis_equals_the_natural_order_basis(self):
        differ = 0
        for G, N, horizon in self.dense_sets():
            density = density_check(G, N)
            assert density.status == DENSE_UP_TO
            store, natural = density.echelon, scanned(G, N)
            assert pivots_of(store) == pivots_of(scanned(G, N, fill_order(G, N)))
            assert store.inputs == natural.inputs
            assert store.unit_combinations() == natural.unit_combinations()
            basis = schauder.basis_from_density(density, horizon)
            assert basis.vectors == schauder.basis_from_density(density._replace(echelon=natural), horizon).vectors
            differ += pivots_of(store) != pivots_of(natural)
        assert differ >= 50, differ

    def test_rows_vanish_before_their_pivot_in_the_order(self):
        for G, N, _ in self.dense_sets():
            store = density_check(G, N).echelon
            earlier = set()
            for pivot, row, _ in store.rows:
                assert min(row, key=store.key) == pivot
                assert not earlier & set(row)  # zero at every earlier pivot
                earlier.add(pivot)

    def test_not_dense_gap_is_the_natural_first_gap(self):
        rng = random.Random(9136)
        moved = 0
        for _ in range(400):
            N = rng.randint(2, 8)
            G = GeneratorSet(  # at most N generators, so most sets fall short
                {k: Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3)) for k in rng.sample(range(1, N + 3), 3)}
                for _ in range(rng.randint(1, N))
            )
            result = density_check(G, N)
            natural = scanned(G, N)
            assert result.rank == len(natural.rows)
            if result.status == DENSE_UP_TO:
                assert first_gap(natural) is None
                continue
            gap = first_gap(natural)
            assert result.failing == tuple(range(1, gap + 1))
            assert pivots_of(result.echelon) == pivots_of(natural)
            moved += first_gap(scanned(G, N, fill_order(G, N))) != gap
        assert moved >= 30, moved


class TestEchelonStore:
    def test_dependent_inputs_dropped(self):
        store = EchelonStore(3)
        inputs = [{1: 1, 2: 1}, {1: 2, 2: 2}, {2: 1, 3: 5, 9: 4}, {3: 1}]
        assert [store.add(v) for v in inputs] == [True, False, True, True]
        assert [pivot for pivot, _, _ in store.rows] == [1, 2, 3]
        assert store.inputs == inputs and first_gap(store) is None

    def test_rows_and_units_against_recorded_combinations(self):
        # each set in the natural order and in a random order of 1..m
        rng, order_rng = random.Random(8), random.Random(9)
        for _ in range(200):
            m = rng.randint(1, 6)
            inputs = [
                {c: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for c in rng.sample(range(1, m + 3), 2)}
                for _ in range(rng.randint(1, m + 2))
            ]
            ranks = order_rng.sample(range(m), m)
            stores = [EchelonStore(m), EchelonStore(m, dict(zip(range(1, m + 1), ranks)).__getitem__)]
            for store in stores:
                for v in inputs:
                    store.add(v)

            def profile(combo):
                out = [Fraction(0)] * m
                for i, w in combo.items():
                    for k, x in inputs[i].items():
                        if k <= m:
                            out[k - 1] += w * x
                return out

            for store in stores:
                for pivot, row, combo in store.rows:
                    assert profile(combo) == [row.get(k, 0) for k in range(1, m + 1)]
                    assert min(row, key=store.key) == pivot  # zero before the pivot in the store's order
            if first_gap(stores[0]) is not None:
                for store in stores:
                    with pytest.raises(ValueError):
                        store.unit_combinations()
                continue
            units = stores[0].unit_combinations()
            assert stores[1].unit_combinations() == units
            for n, (weights, den) in enumerate(units, start=1):
                assert profile({i: Fraction(w, den) for i, w in weights.items()}) == [int(k == n) for k in range(1, m + 1)]


def _fraction_sub_scaled(target, factor, source):
    """target -= factor * source on sparse vectors, dropping entries that cancel."""
    for k, x in source.items():
        nv = target.get(k, 0) - factor * x
        if nv:
            target[k] = nv
        else:
            target.pop(k, None)


class FractionEchelonStore:
    """Reference store: the same elimination order as EchelonStore on
    Fraction rows, one Fraction operation per entry update, each pivot row
    divided out during back-substitution."""

    def __init__(self, m):
        self.m = m
        self.inputs = []
        self.rows = []  # (pivot, vector, combination)

    def add(self, vec):
        v = {k: Fraction(x) for k, x in vec.items() if k <= self.m and x}
        combo = {len(self.inputs): Fraction(1)}
        self.inputs.append(vec)
        for pivot, row, row_combo in self.rows:
            coef = v.get(pivot)
            if coef:
                factor = coef / row[pivot]
                _fraction_sub_scaled(v, factor, row)
                _fraction_sub_scaled(combo, factor, row_combo)
        if not v:
            return False
        self.rows.append((min(v), v, combo))
        return True

    def unit_combinations(self):
        if len(self.rows) != self.m:
            raise ValueError(f"rank {len(self.rows)} is short of {self.m}")
        by_pivot = {pivot: (row, combo) for pivot, row, combo in self.rows}
        units = {}
        for n in range(self.m, 0, -1):
            row, combo = by_pivot[n]
            acc = dict(combo)
            for k, x in row.items():
                if k != n:
                    _fraction_sub_scaled(acc, x, units[k])
            units[n] = {i: w / row[n] for i, w in acc.items()}
        return [units[n] for n in range(1, self.m + 1)]


def random_store_inputs(rng, m):
    """Sparse rational inputs over coordinates 1..m+3 (some beyond m), with
    denominators up to 10^6, zero inputs, scaled duplicates and rational
    combinations of two earlier inputs."""
    def value():
        den = rng.choice([1, 2, 3, 7, rng.randint(1, 10**6)])
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**rng.randint(1, 6)), den)

    inputs = []
    for _ in range(rng.randint(0, 2 * m + 3)):
        kind = rng.random()
        if kind < 0.1:
            inputs.append(rng.choice([{}, {rng.randint(1, m + 3): 0}]))
        elif kind < 0.3 and inputs:
            u, w = rng.choice(inputs), rng.choice(inputs)
            a, b = value(), rng.choice([0, value()])
            inputs.append({k: a * u.get(k, 0) + b * w.get(k, 0) for k in set(u) | set(w)})
        else:
            coords = rng.sample(range(1, m + 4), k=rng.randint(1, min(m + 3, 4)))
            inputs.append({k: value() for k in coords})
    return inputs


class TestIntegerStoreAgainstFractionStore:
    def test_random_input_sets(self):
        rng = random.Random(20261018)
        full_rank = 0
        for _ in range(600):
            m = rng.randint(1, 8)
            inputs = random_store_inputs(rng, m)
            store, ref = EchelonStore(m), FractionEchelonStore(m)
            assert [store.add(v) for v in inputs] == [ref.add(v) for v in inputs]
            assert len(store.rows) == len(ref.rows) and store.inputs == ref.inputs == inputs
            assert first_gap(store) == first_gap(ref)
            for (pivot, row, combo), (ref_pivot, ref_row, ref_combo) in zip(store.rows, ref.rows):
                assert pivot == ref_pivot
                assert all(type(x) is int for x in (*row.values(), *combo.values()))
                assert math.gcd(*row.values(), *combo.values()) == 1  # primitive
                # the integer row is the reference row times one scalar
                scale = row[pivot] / ref_row[pivot]
                assert row == {k: scale * x for k, x in ref_row.items()}
                assert combo == {i: scale * w for i, w in ref_combo.items()}
            if first_gap(store) is not None:
                with pytest.raises(ValueError):
                    store.unit_combinations()
                continue
            full_rank += 1
            units, ref_units = store.unit_combinations(), ref.unit_combinations()
            assert len(units) == len(ref_units) == m
            for (weights, den), ref_weights in zip(units, ref_units):
                # int weights over one positive denominator, jointly in lowest terms
                assert all(type(x) is int for x in (den, *weights.values()))
                assert den > 0 and math.gcd(den, *weights.values()) == 1
                assert {i: Fraction(w, den) for i, w in weights.items()} == ref_weights
        assert full_rank >= 200, full_rank


def test_echelon_store_defined_and_named_only_in_schauder():
    # each exact elimination lives with its one caller: the store in
    # schauder, the vertex simplex in basic_seq_diag
    src = Path(schauder.__file__).parent
    named, defined = set(), set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and node.name == "EchelonStore":
                defined.add(path.name)
            elif isinstance(node, ast.Name) and node.id == "EchelonStore":
                named.add(path.name)
            elif isinstance(node, ast.Attribute) and node.attr == "EchelonStore":
                named.add(path.name)
            elif isinstance(node, ast.alias) and node.name == "EchelonStore":
                named.add(path.name)
    assert defined == {"schauder.py"}
    assert named <= {"schauder.py"}
