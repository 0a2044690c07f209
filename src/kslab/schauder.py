"""Density test for subspaces of the full sequence space and the triangular
basis construction, all in exact rational arithmetic.

A span of finitely supported generators is dense in the product topology
iff every finite-coordinate projection of it is surjective.  Surjectivity
onto an initial segment {1..m} implies it for every subset of {1..m}
(a coordinate subprojection of a surjection is surjective), so the check
feeds the generators, restricted to 1..m, into one exact row-echelon store
(EchelonStore, below) until its rank reaches m, pivoting first on the
coordinates that the fewest generators touch (a fill-reducing order:
Markowitz 1957, Tinney & Walker 1967).  A family that falls short names
the least segment {1..k} it does not cover, k the first gap of a rescan
in the natural order, so the report stays small at any m.

From a generator set dense up to N, that store holds one pivot row per
coordinate 1..N together with the generator combination it equals.
Back-substituting the rows, last stored first, gives combinations b_n with
the unit profile delta_{kn} on all of 1..N, so in particular the profile
(0, ..., 0, 1) on 1..n; b_n stays in integers up to its report text.  A
TriangularBasis holds only such families: it rejects a b_n with an entry
before n or with pi_n(b_n) != 1.  It expands any target sequence through
the recursion a_n = y_n - sum_{k<n} a_k * pi_n(b_k), whose partial sums
(of the nonzero terms only) stabilize coordinatewise: pi_m(S_N') = y_m
for N' >= m.  The recursion reads the basis's row index
(TriangularBasis.row_index: per coordinate m, the nonzero pi_m(b_n),
n <= m, ending with pi_m(b_m) = 1), built with the basis, so the work
per target follows the basis's nonzeros rather than all N^2 pairs.  Its
walk of row m reads every term a_n pi_m(b_n) that moves pi_m(S_N'), and
by the recursion's own definition they sum to y_m, so the same walk logs
the last n that moved the sum; the sum differs from y_m just before that
move and equals it from then on, so the verdict pi_m(S_N') = y_m for
every m <= N' <= N is read off the log as n <= m.  The recursion makes
each coefficient a_n a finite combination of the coordinates y_1..y_n,
which is the continuity witness of the coefficient functionals; the
tests unroll it (tests/oracles.py).

Elements of the sequence space are represented on explicit finite horizons;
coordinatewise convergence stabilizes after finitely many steps per
coordinate, so a horizon loses nothing testable.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .exactnum import Rational
from .report import coordinate, fields, rational, read_json

SparseVec = dict[int, Fraction]  # 1-based coordinate -> value, finite support

DENSE_UP_TO = "DENSE_UP_TO"
NOT_DENSE = "NOT_DENSE"


class DensityError(ValueError):
    """Rank deficiency while building a basis; names the failing coordinate."""

    def __init__(self, coordinate: int):
        self.coordinate = coordinate
        super().__init__(f"rank deficiency at coordinate {coordinate}")


def _validate_sparse(pairs: Iterable[tuple[object, object]]) -> SparseVec:
    """{coordinate(k): rational(v)} over (k, v) pairs without zeros; rejects k < 1 and a repeat."""
    out: SparseVec = {}
    for k, v in pairs:
        if (k := coordinate(k)) < 1:
            raise ValueError(f"coordinates are 1-based, got {k}")
        if k in out:
            raise ValueError(f"coordinate {k} given twice")
        out[k] = rational(v, "GeneratorSet")
    return {k: v for k, v in out.items() if v}


class GeneratorSet:
    """A finite indexed family of finitely supported rational sequences.

    Generators need not be independent: rank, not count, decides density.
    """

    def __init__(self, source: Iterable[Mapping[int, object]]):
        self._vectors = [_validate_sparse(raw.items()) for raw in source]

    @classmethod
    def from_jsonl(cls, text: str) -> "GeneratorSet":
        """One generator per line: {"coords": {"1": "3/2", ...}}; an error
        names its line, each validated as soon as it is read."""
        gens = cls(())
        for lineno, line in enumerate(text.splitlines(), 1):
            try:
                if line.strip():
                    coords = fields(read_json(line), "generator", coords=(dict, ...))[0]
                    gens._vectors.append(_validate_sparse(coords.items()))
            except (ValueError, TypeError) as exc:
                raise ValueError(f"generator line {lineno}: {exc}") from exc
        return gens

    def __iter__(self) -> Iterator[SparseVec]:
        return iter(self._vectors)


def _sub_scaled(target: dict[int, int], a: int, b: int, source: dict[int, int]) -> None:
    """target <- a * target - b * source in place on sparse int vectors, dropping zeros."""
    if a != 1:
        for k in target:
            target[k] *= a
    for k, x in source.items():
        nv = target.get(k, 0) - b * x
        if nv:
            target[k] = nv
        else:
            target.pop(k, None)


class EchelonStore:
    """Row-echelon form of sparse rational vectors restricted to coordinates
    1..m, built one input at a time.

    inputs lists the vectors added, in order; input i is inputs[i].  add()
    reduces an input against the stored rows in storage order and stores
    the remainder, pivoting on its first nonzero coordinate in the order of
    key (a sort key on the coordinates the inputs touch; None is 1, 2, ...);
    an input that reduces to zero depends on earlier ones and is dropped.
    So each row is zero at the pivots stored before it.  The stored rows
    come from the first independent inputs, and in the natural order their
    pivots are the coordinates k whose projection is independent of those
    on 1..k-1.  Each row also records the combination of inputs it equals
    (a dict from input number to weight), so the stored rows can be solved
    back into combinations of the original inputs.  Rows and combinations
    hold ints: inputs are scaled by the lcm of their denominators on 1..m,
    reduction cross-multiplies pivots, and rows are primitive (joint gcd 1).
    """

    def __init__(self, m: int, key: Callable[[int], int] | None = None):
        self.m, self.key = m, key
        self.inputs: list[SparseVec] = []
        self.rows: list[tuple[int, dict[int, int], dict[int, int]]] = []  # (pivot, vector, combination)

    def add(self, vec: SparseVec) -> bool:
        """Reduce one input (Fraction or int values) and store it; False when it depends on earlier inputs."""
        q = [(k, x) for k, x in vec.items() if k <= self.m and x]
        d = math.lcm(*(x.denominator for _, x in q))
        v = {k: x.numerator * (d // x.denominator) for k, x in q}
        combo = {len(self.inputs): d}
        self.inputs.append(vec)
        for pivot, row, row_combo in self.rows:
            coef = v.get(pivot)
            if coef:
                g = math.gcd(coef, row[pivot])
                a, b = row[pivot] // g, coef // g  # a * coef == b * row[pivot]
                _sub_scaled(v, a, b, row)
                _sub_scaled(combo, a, b, row_combo)
        if not v:
            return False
        g = math.gcd(*v.values(), *combo.values())
        v, combo = {k: x // g for k, x in v.items()}, {i: w // g for i, w in combo.items()}
        self.rows.append((min(v, key=self.key), v, combo))
        return True

    def unit_combinations(self) -> list[tuple[dict[int, int], int]]:
        """For full rank m: the input combinations whose profiles on 1..m are
        the unit vectors e_1..e_m, by back-substituting the pivot rows last
        stored first (a row is zero at the pivots stored before it, so it
        needs only the combinations of those stored after it).  On a fixed
        set of independent inputs these combinations are unique, in any
        pivot order.  Unit n is (U_n, s_n), int weights over
        s_n > 0, reduced jointly: U_n = L combo - sum_k row[k] (L/s_k) U_k,
        s_n = L row[n], L the lcm of the s_k row n touches."""
        if len(self.rows) != self.m:
            raise ValueError(f"rank {len(self.rows)} is short of {self.m}")
        units: dict[int, tuple[dict[int, int], int]] = {}
        for n, row, combo in reversed(self.rows):
            lcm = math.lcm(*(units[k][1] for k in row if k != n))
            acc = {i: lcm * w for i, w in combo.items()}
            for k, x in row.items():
                if k != n:
                    _sub_scaled(acc, 1, x * (lcm // units[k][1]), units[k][0])
            g = math.gcd(lcm * row[n], *acc.values()) * (-1 if row[n] < 0 else 1)
            units[n] = ({i: w // g for i, w in acc.items()}, lcm * row[n] // g)
        return [units[n] for n in range(1, self.m + 1)]


class DensityResult(NamedTuple):
    status: str  # DENSE_UP_TO | NOT_DENSE
    m: int
    rank: int
    pivot_generators: tuple[int, ...]  # generator indices witnessing the rank
    echelon: EchelonStore  # the scan's elimination; natural order when NOT_DENSE
    failing: tuple[int, ...] = ()  # NOT_DENSE: the least segment {1..k} not covered, k the first gap


def density_check(G: GeneratorSet, m: int) -> DensityResult:
    """Decide surjectivity of the projection onto coordinates 1..m.

    Feeds the generators in order into one EchelonStore over 1..m until its
    rank reaches m; a family that ends first is NOT_DENSE.  Pivots go first
    to the coordinates <= m that the fewest generators touch, ties to the
    smaller; rank and basis do not depend on the order, but the first gap
    does, so a NOT_DENSE scan is repeated in the natural order.
    """
    if m < 1:
        raise ValueError(f"segment length must be >= 1, got {m}")
    count = Counter(k for g in G for k in g if k <= m)
    order = {k: i for i, k in enumerate(sorted(count, key=lambda k: (count[k], k)))}
    for key in (order.__getitem__, None):
        store, pivots = EchelonStore(m, key), []
        for idx, g in enumerate(G):
            if len(store.rows) == m:
                break
            if store.add(g):
                pivots.append(idx)
        if len(store.rows) == m:
            return DensityResult(DENSE_UP_TO, m, m, tuple(pivots), store)
    rank = len(store.rows)
    gap = min(set(range(1, rank + 2)) - {pivot for pivot, _, _ in store.rows})
    return DensityResult(NOT_DENSE, m, rank, tuple(pivots), store, failing=tuple(range(1, gap + 1)))


class BasisVector(NamedTuple):
    """b_n on the horizon plus its witnessing generator combination, each as
    ints over a denominator > 0, jointly in lowest terms."""

    entries: tuple[tuple[int, int], ...]  # (k, x), pi_k(b_n) = x / den != 0, in order of k
    den: int
    combination: tuple[tuple[int, int], ...]  # (generator c, w), weight w / weight_den
    weight_den: int


class TriangularBasis:
    """b_1..b_N on a horizon, each zero before n with pi_n(b_n) = 1, else
    ValueError; bases compare by value.  row_index entry m - 1 lists the
    nonzero (n, pi_m(b_n)) over n = 1..m in order of n, for each m in 1..N."""

    __slots__ = ("vectors", "horizon", "row_index")

    def __init__(self, vectors: tuple[BasisVector, ...], horizon: int):
        self.vectors, self.horizon = vectors, horizon
        N = len(vectors)
        rows: list[list[tuple[int, Rational]]] = [[] for _ in range(N)]
        for n, vec in enumerate(vectors, start=1):
            if vec.entries[:1] != ((n, vec.den),):
                raise ValueError(f"b_{n} must vanish before coordinate {n} and have pi_{n}(b_{n}) = 1")
            for k, x in vec.entries:
                if k > N:
                    break
                rows[k - 1].append((n, Fraction(x, vec.den)))
        self.row_index = tuple(map(tuple, rows))

    def __eq__(self, other) -> bool:
        if type(other) is not TriangularBasis:
            return NotImplemented
        return (self.vectors, self.horizon) == (other.vectors, other.horizon)

    def __len__(self) -> int:
        return len(self.vectors)


def basis_from_density(density: DensityResult, horizon: int) -> TriangularBasis:
    """The triangular basis b_1..b_N, N = density.m, from the echelon store
    of the density check, without eliminating again: b_n is the store's
    n-th unit combination of the generators it reduced, evaluated on the
    horizon.  A NOT_DENSE check raises DensityError at its first gap.
    """
    N = density.m
    if horizon < N:
        raise ValueError(f"horizon {horizon} shorter than basis length {N}")
    if density.status != DENSE_UP_TO:
        raise DensityError(coordinate=density.failing[-1])
    store = density.echelon
    scaled = []  # generator c as (D_c, D_c * G_c on 1..H), D_c the lcm of its denominators
    for g in store.inputs:
        d = math.lcm(*(v.denominator for v in g.values()))
        scaled.append((d, [(k, v.numerator * (d // v.denominator)) for k, v in g.items() if k <= horizon]))

    vectors = []
    for n, (weights, s) in enumerate(store.unit_combinations(), start=1):
        combination = tuple(sorted(weights.items()))
        # b_n = (1 / s) sum_c w_c G_c = (1 / den) sum_c w_c (L / D_c) (D_c G_c), den = s L
        lcm = math.lcm(*(scaled[c][0] for c in weights))
        acc: dict[int, int] = {}
        for c, w in combination:
            d, vec = scaled[c]
            factor = w * (lcm // d)
            for k, x in vec:
                acc[k] = acc.get(k, 0) + factor * x
        den = s * lcm
        for k in range(1, N + 1):
            if acc.get(k, 0) != (den if k == n else 0):
                raise AssertionError(f"unit coordinate profile violated at pi_{k}(b_{n})")
        entries = [(k, x) for k, x in sorted(acc.items()) if x]
        g = math.gcd(den, *(x for _, x in entries))
        vectors.append(BasisVector(tuple((k, x // g) for k, x in entries), den // g, combination, s))
    return TriangularBasis(vectors=tuple(vectors), horizon=horizon)


class CoeffExpansion(NamedTuple):
    target: tuple[Rational, ...]  # y restricted to the basis horizon
    coefficients: tuple[Rational, ...]  # a_1..a_N
    stabilization_log: tuple[int, ...]  # per m: least N' with stable pi_m


def expand(y: Sequence, basis: TriangularBasis) -> CoeffExpansion:
    """Coefficients a_1 = y_1, a_n = y_n - sum_{k<n} a_k pi_n(b_k), exact,
    and the stabilization log, both off one walk of basis.row_index per n:
    log[n] is n when a_n != 0, else the last k < n with a_k pi_n(b_k) != 0,
    else 1, so log[n] <= n: pi_n(S_N') == y_n at every n <= N' <= N, and a
    report's grid_all_true is the constant true.  y needs at least the
    horizon's coordinates; entries past the horizon are not read.  An entry is an int, Fraction or str, read by
    report.rational; anything else, a float included, raises TypeError."""
    H = basis.horizon
    if len(y) < H:
        raise ValueError(f"target has {len(y)} coordinates, horizon needs {H}")
    yf = tuple(rational(v, "expand") for v in y[:H])
    coeffs: list[Fraction] = []
    log: list[int] = []
    nonzero: dict[int, Fraction] = {}  # n -> a_n for a_n != 0
    for n, row in enumerate(basis.row_index, start=1):
        a_n, last = yf[n - 1], 1  # last: the last N' whose term moved pi_n(S_N')
        for k, pik in row[:-1]:  # the row ends with (n, 1)
            if a_k := nonzero.get(k):
                a_n -= a_k * pik
                last = k
        coeffs.append(a_n)
        if a_n:
            nonzero[n] = a_n
            last = n
        log.append(last)  # before its last move S_N' was not y_n
    return CoeffExpansion(target=yf, coefficients=tuple(coeffs), stabilization_log=tuple(log))
