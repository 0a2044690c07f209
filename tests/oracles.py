"""Oracles kept out of the package: the tests hold the library to them.

PermutedMeasure is a sign-cube measure whose rows carry an arbitrary table
of sign patterns: a seeded shuffle of the canonical rows (RowPermutation,
under the MemoryGuardError guard at n <= EXPLICIT_MAX_N) or any table, with
repeats and gaps allowed.  It overrides KSMeasure.row_pattern and by_row,
the one seam through which the package reads rows, so the brute-force
rectangle supremum, the fast witness and every oracle below run the package
code on it; measure(n, bijection) builds it, or the package's canonical
measure for CANONICAL.  scale is the weight magnitude 1/(n 2^n) of an atom.

projection_norms_highs is the LP layer basic_seq_diag used before its
exact vertex simplex: one SciPy HiGHS linprog per (m, h).  simplex_optima
is the full enumeration the exact simplex ran before it pruned objectives
by their dual bound: every (m, h) solved to optimality.

binomial is C(n, k) by math.comb, the reference of the Pascal-triangle
tests and of the per-width sums; the package needs only the central
binomials, from exactnum.central_binomial.

text_witness_rows is the fast witness's row bitset as sup_rect_fast read
it before it packed bytes: an ASCII '1'/'0' table by row, reversed and
parsed as one base-2 integer.

rect_mass sums a rectangle's atoms one row at a time, certify_bound2
re-derives the bound2 verdict from a report's sup alone, and atom_list
materializes every atom of an explicit measure; atom_mass_and_support
walks the same atoms for the total variation and support size that a
verify row writes as constants.  sign reads one atom's sign.
eval_tensor applies an explicit measure to f (x) g given as full value
tables, the reference of every closed-form term value; the package holds
no such table.

tensor_sup_exact enumerates all 2^n vertices of the tensor supremum, which
the package reports as 2 c_n in closed form, and certify_bound3 certifies
8/sqrt(pi n) on a supremum by its own squared comparison.
random_tensor_probe samples the unit cube in floating point; it can never
exceed tensor_sup_exact.  profile_table and eval_symmetric evaluate a named
plus-count profile from its table, the oracle of the closed forms, and
decay_profile certifies |mu_n(h)| <= (8/sqrt(pi n)) * norm_bound row by row,
with the rational enclosure of that bound from sqrt_enclosure, an isqrt
bracket of a square root; the package squares every comparison instead and
encloses no square root.
random_section draws a seeded section of independent rational rows, and
diag_sections the 7 x 12 sections of the diag benchmark at seed 41.
section_of_ks tabulates a family on measure indices; the standard family's
values lie in span{c_n, 1/n}, so such sections of three or more indices are
dependent and the package builds none.  coefficient_functional unrolls the
expansion recursion of a triangular basis into coordinate weights, and
reference_grid tabulates an expansion's partial sums against the target at
every (m, N'), the dense oracle of the grid_all_true a report writes.
build_triangular_basis is the density check followed by basis_from_density,
as the schauder subcommand runs them, and coord reads pi_k(b_n) off a
basis.  The package keeps each b_n as integers over one denominator;
densify gives a basis as DenseBasisVector records (Fractions at every
coordinate of the horizon) and undensify makes a BasisVector from dense
coordinates.  fraction_basis is basis_from_density as it was built in
Fractions, one per coordinate past N, and fraction_basis_to_json writes it
with format_rational: the reference of the integer path's report text.
standard_test_family is five fixed unit-norm symmetric combinations, and
combo_to_json writes one in the family format the subseq subcommand
reads.  greedy_walk applies the summable-subsequence rule to any increasing
stream one element at a time, the oracle of normal_subseq.extract's closed
form on the arithmetic stream.

argparse_parser is the argparse parser kslab.cli used before it read argv
against its own option table, and argparse_parse runs it with the range
checks it ran after: the reference of kslab.cli.parse_args.

cmp_sq_below_exact is exactnum.cmp_sq_below as it decided before it
filtered on leading bits: both squared comparisons on the whole square of
the numerator, the reference of the filter.

quoted is how an error line quotes the text it refuses: whole up to 80
characters, else its first and last 20 characters around "..." and its
length.

parse_rational_by_fraction is report.parse_rational as it read text before
it built every value from one pattern's groups: an exponent pre-scan, a
decimal pattern and a hex pattern, then Fraction parsing the stripped
decimal text a second time, under CPython's own int digit limit.

NumPy and SciPy are test dependencies only; kslab itself needs neither.
"""

import argparse
import contextlib
import io
import math
import numbers
import operator
import random
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from scipy.optimize import linprog

from kslab.basic_seq_diag import DegenerateSectionError, FiniteSection, _VertexSimplex, basis_constant
from kslab.exactnum import PI, Cmp, Dyadic, Rational, cmp_sq_below
from kslab.ks_measure import EXPLICIT_MAX_N, KSMeasure, build
from kslab.rect_sup import BRUTE_MAX_N, Rectangle, RectangleSupReport, bound2_verdict
from kslab.report import STR_DIGITS, format_rational
from kslab.schauder import (
    BasisVector,
    DensityResult,
    GeneratorSet,
    TriangularBasis,
    basis_from_density,
    density_check,
)
from kslab.tensor_bounds import SymmetricTerm, TensorCombo

LP_TOL = 1e-7  # float tolerance when an exact value is compared with HiGHS


# ---------------------------------------------------------------------------
# Measures under other row bijections


@dataclass(frozen=True)
class Canonical:
    """Bijection sending row s to the pattern with bit j of s encoding -1."""


@dataclass(frozen=True)
class RowPermutation:
    """Canonical bijection composed with a seeded shuffle of row indices."""

    seed: int


CANONICAL = Canonical()


class MemoryGuardError(ValueError):
    """Explicit materialization requested above the memory guard."""


class PermutedMeasure(KSMeasure):
    """The measure with index n whose row s carries the sign pattern
    patterns[s]; any table of 2^n patterns, repeats allowed."""

    __slots__ = ("patterns",)

    def __init__(self, n: int, patterns: tuple[int, ...]):
        super().__init__(n)
        self.patterns = patterns  # row index -> sign pattern

    def row_pattern(self, s: int) -> int:
        return self.patterns[s]

    def by_row(self, table: bytes) -> bytes:
        return bytes(map(table.__getitem__, self.patterns))


def measure(n: int, bijection: Canonical | RowPermutation) -> KSMeasure:
    """The measure with index n under the given bijection: the package's
    canonical measure, or a seeded row permutation of it.  A permutation
    materializes a table of 2^n row indices, so only at explicit scale."""
    if isinstance(bijection, Canonical):
        return build(n)
    if n > EXPLICIT_MAX_N:
        raise MemoryGuardError(f"row permutations need a 2^n table; limited to n <= {EXPLICIT_MAX_N}")
    perm = list(range(1 << n))
    random.Random(bijection.seed).shuffle(perm)
    return PermutedMeasure(n, tuple(perm))


def scale(m: KSMeasure) -> Fraction:
    """The magnitude 1/(n 2^n) of every atom's weight."""
    return Fraction(1, m.n << m.n)


def projection_norm_highs(values: np.ndarray, m: int) -> float:
    """Operator norm of P_m on the span, sup-over-family norm on both sides.

    values: N x F float matrix.  For each family column h, maximize the
    prefix evaluation subject to the full evaluations lying in [-1, 1];
    the norm is the maximum over h (the +-h symmetry removes the sign).
    """
    n, f = values.shape
    a_full = values.T  # F x N: (a_full @ c)[h'] = full evaluation at h'
    a_ub = np.vstack([a_full, -a_full])
    b_ub = np.ones(2 * f)
    prefix = np.zeros((f, n))
    prefix[:, :m] = values[:m].T
    best = 0.0
    for h in range(f):
        res = linprog(
            -prefix[h],
            A_ub=a_ub,
            b_ub=b_ub,
            bounds=[(None, None)] * n,
            method="highs",
        )
        if not res.success:
            raise RuntimeError(f"projection-norm LP failed: {res.message}")
        best = max(best, -res.fun)
    return best


def projection_norms_highs(rows) -> list[float]:
    """||P_m|| for 1 <= m < N of a section given as rational rows."""
    values = np.array([[float(v) for v in row] for row in rows], dtype=np.float64)
    return [projection_norm_highs(values, m) for m in range(1, len(rows))]


def simplex_optima(rows):
    """(m, h, simplex, mu) at the optimum of max sum_{i<m} c_i a_h[i] for
    every 1 <= m < N, h outer and m inner, all from one simplex on the
    columns a_h of the primitive integer rows (simplex.cols).  Floor 0
    never prunes, so every mu is an optimality certificate."""
    n = len(rows)
    lp = _VertexSimplex(rows)
    for h, a in enumerate(lp.cols):
        for m in range(1, n):
            yield m, h, lp, lp.maximize(a[:m] + [0] * (n - m), Fraction(0))


def binomial(n: int, k: int) -> int:
    """C(n, k); zero outside 0 <= k <= n.  Requires n >= 0."""
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def text_witness_rows(m: KSMeasure) -> int:
    """Rows with fewer than b/2 minus signs among the first b columns (b = n
    for odd n, n - 1 for even n), as an ASCII table over sign patterns: the
    minus counts double b times, a threshold maps them to '1'/'0', the table
    repeats for the other columns, and by row, reversed (row 0 last), it
    parses as a base-2 integer."""
    n = m.n
    b = n if n % 2 else n - 1
    minus = b"\0"
    for _ in range(b):
        minus += minus.translate(bytes(range(1, 256)) + b"\0")
    below = (b + 1) // 2
    member = minus.translate(b"1" * below + b"0" * (256 - below)) * (1 << (n - b))
    return int(m.by_row(member)[::-1], 2)


def rect_mass(m: KSMeasure, r: Rectangle) -> Rational:
    """scale * sum over selected atoms of sign(s, j); exact, sign retained."""
    if not (0 <= r.row_bits < (1 << m.rows)):
        raise ValueError(f"row bitset exceeds width 2^{m.rows}")
    if not (0 <= r.col_bits < (1 << m.n)):
        raise ValueError(f"column bitset exceeds width {m.n}")
    b = r.col_bits.bit_count()
    total = 0
    # walk the row bitset bytewise: mutating a 2^n-bit integer per row would
    # be quadratic in the number of rows
    data = r.row_bits.to_bytes((m.rows + 7) // 8, "little")
    for byte_idx, byte in enumerate(data):
        base = byte_idx * 8
        while byte:
            low = byte & -byte
            s = base + low.bit_length() - 1
            byte ^= low
            minus = (m.row_pattern(s) & r.col_bits).bit_count()
            total += b - 2 * minus
    return total * scale(m)


def certify_bound2(report: RectangleSupReport) -> str:
    """PASS iff 1/(2 sqrt(pi n)) < sup < 2/sqrt(pi n), both rationally
    certified; UNDECIDED signals an insufficient enclosure.  Re-derived from
    sup alone, apart from certify_pair."""
    if report.sup < 0:
        raise ValueError("supremum must be nonnegative")
    lower_ok = cmp_sq_below(report.sup, 1, 2, report.n)
    upper_ok = cmp_sq_below(report.sup, 2, 1, report.n)
    return bound2_verdict(lower_ok, upper_ok)


def sign(m: KSMeasure, s: int, j: int) -> int:
    """Sign of the atom at row s, column j; always -1 or +1."""
    if not (0 <= s < m.rows and 0 <= j < m.n):
        raise IndexError(f"atom ({s}, {j}) outside the {m.rows}x{m.n} grid")
    return -1 if (m.row_pattern(s) >> j) & 1 else 1


def iter_atoms(m: KSMeasure) -> Iterator[tuple[tuple[int, int], Rational]]:
    """Every atom ((s, j), weight) of an explicit measure, row by row."""
    if not m.is_explicit():
        raise MemoryGuardError(f"atom list limited to n <= {EXPLICIT_MAX_N}, got n={m.n}")
    w = scale(m)
    neg = -w
    for s in range(m.rows):
        p = m.row_pattern(s)
        for j in range(m.n):
            yield (s, j), neg if (p >> j) & 1 else w


def atom_list(m: KSMeasure) -> list[tuple[tuple[int, int], Rational]]:
    """Every atom ((s, j), weight) of an explicit measure."""
    return list(iter_atoms(m))


def atom_mass_and_support(m: KSMeasure) -> tuple[Rational, int]:
    """(sum of |weight|, number of atoms of nonzero weight) over every atom
    of an explicit measure.  Weights are tallied by numerator and
    denominator, so the sum makes one Fraction per distinct weight, not one
    per atom: n = 16 has a million atoms."""
    tally = Counter((w.numerator, w.denominator) for _, w in iter_atoms(m))
    mass = sum((abs(Fraction(p, q)) * count for (p, q), count in tally.items()), Fraction(0))
    return mass, sum(count for (p, _), count in tally.items() if p)


def eval_tensor(m: KSMeasure, f: Sequence, g: Sequence) -> Rational:
    """Apply the measure to f (x) g: scale * sum_s sum_j sign(s,j) f(s) g(j).

    Requires an explicit measure (f is a table over all 2^n rows).
    Exact when the inputs are rational.
    """
    if not m.is_explicit():
        raise ValueError("eval_tensor needs an explicit measure (f is a full row table)")
    if len(f) != m.rows:
        raise ValueError(f"f has {len(f)} entries, expected {m.rows}")
    if len(g) != m.n:
        raise ValueError(f"g has {len(g)} entries, expected {m.n}")
    total = Fraction(0)
    for s in range(m.rows):
        fs = f[s]
        if not fs:
            continue
        p = m.row_pattern(s)
        row = Fraction(0)
        for j in range(m.n):
            gj = g[j]
            if not gj:
                continue
            row += -gj if (p >> j) & 1 else gj
        total += Fraction(fs) * row
    return scale(m) * total


def _sign_matrix(m: KSMeasure) -> np.ndarray:
    """Dense +-1 matrix of shape (2^n, n); explicit scale only."""
    patterns = np.array([m.row_pattern(s) for s in range(m.rows)], dtype=np.int64)
    bits = (patterns[:, None] >> np.arange(m.n)[None, :]) & 1
    return 1 - 2 * bits


def random_tensor_probe(m: KSMeasure, trials: int, seed: int) -> float:
    """Max |measure(f (x) g)| over seeded uniform samples from the cube.

    A sanity probe for tensor_sup_exact: the result can never exceed it.
    Deterministic per seed; explicit measures only.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not m.is_explicit():
        raise ValueError("random_tensor_probe needs an explicit measure")
    rng = np.random.default_rng(seed)
    signs = _sign_matrix(m).astype(np.float64)
    atom = float(scale(m))
    best = 0.0
    chunk = 1024
    done = 0
    while done < trials:
        k = min(chunk, trials - done)
        f = rng.uniform(-1.0, 1.0, size=(k, m.rows))
        g = rng.uniform(-1.0, 1.0, size=(k, m.n))
        vals = np.abs(np.einsum("ij,ij->i", f @ signs, g)) * atom
        best = max(best, float(vals.max()))
        done += k
    return best


# ---------------------------------------------------------------------------
# Tensor supremum by vertex enumeration

TENSOR_MAX_N = 12


def _fwht(v: list[int]) -> list[int]:
    """Unnormalized Walsh-Hadamard transform, entry y = sum_x (-1)^|x & y| v[x].

    Each pass sends entries 2i, 2i+1 to their sum at i and difference at
    i + len/2, rotating the index bits by one; log2(len) passes restore them.
    """
    for _ in range(len(v).bit_length() - 1):
        even, odd = v[0::2], v[1::2]
        v = [*map(operator.add, even, odd), *map(operator.sub, even, odd)]
    return v


def tensor_sup_exact(m: KSMeasure) -> Rational:
    """Max of |measure(f (x) g)| over sup-norm unit cubes, with f eliminated
    in closed form, over all 2^n vertices g.  Guarded at n <= 12.

    A row with pattern p has inner sum n - 2|p ^ g|, so the value at g is
    sum_p hits[p] * dist[p ^ g]: three Walsh-Hadamard transforms give this
    XOR convolution everywhere, and the inverse's 1/2^n is a shift.  Any
    row table works, so repeated or missing patterns are allowed.
    """
    n = m.n
    if n > TENSOR_MAX_N:
        raise ValueError(f"vertex enumeration limited to n <= {TENSOR_MAX_N}, got n={n}")
    hits = [0] * m.rows
    for s in range(m.rows):
        hits[m.row_pattern(s)] += 1
    dist = [abs(n - 2 * x.bit_count()) for x in range(m.rows)]
    values = _fwht([h * d for h, d in zip(_fwht(hits), _fwht(dist))])
    return Fraction(max(values) >> n, n << n)


def certify_bound3(n: int, sup: Rational, rect_sup: Rational | None = None) -> str:
    """PASS iff sup < 8/sqrt(pi n) is rationally certified.

    When the rectangle supremum is supplied, sup >= rect_sup is also
    required (indicator functions lie in the unit cube), as an exact
    consistency check between the two routes.
    """
    if sup < 0:
        raise ValueError("supremum must be nonnegative")
    if rect_sup is not None and sup < rect_sup:
        return "FAIL"
    verdict = cmp_sq_below(sup, 8, 1, n)
    if verdict is Cmp.CERT_LT:
        return "PASS"
    if verdict is Cmp.CERT_GT:
        return "FAIL"
    return "UNDECIDED"


# ---------------------------------------------------------------------------
# Symmetric profiles from their tables

# The table entry F(k) at index n of each named plus-count profile.
PROFILE_ENTRIES = {
    "sign_centered": lambda n, k: Fraction((2 * k > n) - (2 * k < n)),
    "linear_centered": lambda n, k: Fraction(2 * k - n, n),
    "abs_centered": lambda n, k: Fraction(abs(2 * k - n), n),
    "majority": lambda n, k: Fraction(1 if 2 * k > n else 0),
    "constant_one": lambda n, k: Fraction(1),
}


def profile_table(name: str, n: int) -> list[Fraction]:
    """The table F(0..n) of a named profile, the input of eval_symmetric."""
    entry = PROFILE_ENTRIES[name]
    return [entry(n, k) for k in range(n + 1)]


def eval_symmetric(m: KSMeasure, F: Sequence, gsum: Rational) -> Rational:
    """Tensor evaluation for f depending only on a row's count of +1 signs.

    Equals eval_tensor with f(s) = F(#plus signs in row s) and any g whose
    column sum is gsum: per column, rows with k plus signs split into
    C(n-1, k-1) rows signed +1 and C(n-1, k) rows signed -1, and Abel
    summation turns the signed sum into forward differences of F:

        value = scale * gsum * sum_{k<n} C(n-1, k) * (F(k+1) - F(k)).

    One walk along the binomial row over a common denominator of F, skipping
    zero differences: O(n^2) bit work, valid at every index (only
    bijectivity onto the sign cube matters).
    """
    n = m.n
    if len(F) != n + 1:
        raise ValueError(f"F has {len(F)} entries, expected {n + 1}")
    F = [Fraction(v) for v in F]
    den = math.lcm(*(v.denominator for v in F))
    ints = [v.numerator * (den // v.denominator) for v in F]
    total = 0
    c = 1  # C(n-1, k)
    for k in range(n):
        d = ints[k + 1] - ints[k]
        if d:
            total += c * d
        c = c * (n - 1 - k) // (k + 1)
    return scale(m) * Fraction(gsum) * Fraction(total, den)


# ---------------------------------------------------------------------------
# Decay rows

SQRT_DIGITS = 30  # sqrt_enclosure's width is about 10^-SQRT_DIGITS


def sqrt_enclosure(x: Rational) -> tuple[Rational, Rational]:
    """Rational (lo, hi) with lo <= sqrt(x) <= hi, width about 10^-SQRT_DIGITS.

    sqrt(p/q) = sqrt(p*q)/q, and isqrt gives floor(S*sqrt(p*q)) exactly.
    """
    if x < 0:
        raise ValueError("sqrt_enclosure requires x >= 0")
    if x == 0:
        return Fraction(0), Fraction(0)
    p, q = x.numerator, x.denominator
    scale = 10**SQRT_DIGITS
    t = math.isqrt(p * q * scale * scale)
    return Fraction(t, q * scale), Fraction(t + 1, q * scale)


@dataclass(frozen=True)
class DecayRow:
    n: int
    value: Rational  # exact |mu_n(h)|
    bound_lower: Rational
    bound_upper: Rational
    dominated: bool  # certified value <= (8/sqrt(pi n)) * norm_bound


def _certified_tensor_dominance(value: Rational, norm_bound: Rational, n: int) -> bool:
    """Exact check that |value| <= 8 * norm_bound / sqrt(pi * n).

    value^2 * pi.upper * n <= 64 * norm_bound^2 certifies it (strictly,
    unless value = 0), since pi < pi.upper; decided on integers.  A float
    operand, whose rounding would decide, raises TypeError.
    """
    if not (isinstance(value, numbers.Rational) and isinstance(norm_bound, numbers.Rational)):
        raise TypeError(f"tensor dominance requires ints or Fractions, got {value!r}, {norm_bound!r}")
    lhs = (value.numerator * norm_bound.denominator) ** 2 * n * PI.upper.numerator
    return lhs <= 64 * (norm_bound.numerator * value.denominator) ** 2 * PI.upper.denominator


def _tensor_bound_enclosure(norm_bound: Rational, n: int) -> tuple[Rational, Rational]:
    """Rational enclosure of (8/sqrt(pi n)) * norm_bound."""
    lo_s, _ = sqrt_enclosure(PI.lower * n)
    _, hi_s2 = sqrt_enclosure(PI.upper * n)
    nb = Fraction(norm_bound)
    return 8 * nb / hi_s2, 8 * nb / lo_s


def decay_profile(h: TensorCombo, n_list: Sequence[int]) -> list[DecayRow]:
    """Exact |mu_n(h)| with the certified dominating bound at each index;
    every term is defined at every index."""
    nb = h.norm_bound
    rows = []
    for n in n_list:
        value = abs(h.value_at(build(n)))
        lo, hi = _tensor_bound_enclosure(nb, n)
        ok = _certified_tensor_dominance(value, nb, n)
        rows.append(DecayRow(n=n, value=value, bound_lower=lo, bound_upper=hi, dominated=ok))
    return rows


# ---------------------------------------------------------------------------
# Sections over measures and coefficient functionals


def random_section(rng: random.Random, n: int, f: int) -> FiniteSection:
    """An n x f section of independent rows, entries p/q with |p| <= 9 and
    1 <= q <= 5 drawn from rng; a draw with dependent rows is drawn again."""
    while True:
        rows = tuple(
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(f))
            for _ in range(n)
        )
        section = FiniteSection(rows=rows)
        try:
            basis_constant(section)
        except DegenerateSectionError:
            continue
        return section


def diag_sections(count: int) -> list[FiniteSection]:
    """The first `count` 7 x 12 sections drawn from Random("diag-41"); the
    first is the first random section of the diag benchmark at seed 41."""
    rng = random.Random("diag-41")
    return [random_section(rng, 7, 12) for _ in range(count)]


def section_of_ks(indices: Sequence[int], test_family: Sequence[TensorCombo]) -> FiniteSection:
    """Rows are the exact evaluations of the indexed measures against the
    family; degeneracy (e.g. an all-zero row) surfaces via basis_constant."""
    if not indices:
        raise ValueError("at least one measure index is required")
    if not test_family:
        raise ValueError("the test family must be non-empty")
    rows = (tuple(h.value_at(m) for h in test_family) for m in map(build, indices))
    return FiniteSection(rows=tuple(rows))


def coefficient_functional(basis: TriangularBasis, n: int) -> tuple[Rational, ...]:
    """Weights (c_1..c_n) with b_n^*(y) = sum_k c_k pi_k(y).

    Unrolls b_n^* = pi_n - sum_{k<n} pi_n(b_k) b_k^*; the finiteness of the
    result is the continuity witness.
    """
    if not (1 <= n <= len(basis)):
        raise ValueError(f"functional index {n} out of range 1..{len(basis)}")
    funcs: list[list[Fraction]] = []
    for i in range(1, n + 1):
        w = [Fraction(0)] * i
        w[i - 1] = Fraction(1)
        for k in range(1, i):
            pik = coord(basis, k, i)
            if pik:
                for j in range(k):
                    w[j] -= pik * funcs[k - 1][j]
        funcs.append(w)
    return tuple(funcs[n - 1])


def apply_functional(weights: Sequence[Rational], y: Sequence) -> Rational:
    return sum((Fraction(w) * Fraction(y[i]) for i, w in enumerate(weights)), Fraction(0))


def reference_grid(coeffs: Sequence, basis: TriangularBasis, y: Sequence) -> dict[tuple[int, int], bool]:
    """(m, N') -> pi_m(S_N') == y_m over m <= N' <= N, N the basis length,
    every pair summed densely."""
    N = len(basis)
    grid = {}
    for m in range(1, N + 1):
        partial, target = Fraction(0), Fraction(y[m - 1])
        for np_ in range(1, N + 1):
            partial += coeffs[np_ - 1] * coord(basis, np_, m)
            if np_ >= m:
                grid[(m, np_)] = partial == target
    return grid


def coord(basis: TriangularBasis, n: int, k: int) -> Rational:
    """pi_k(b_n), both 1-based."""
    vec = basis.vectors[n - 1]
    return Fraction(dict(vec.entries).get(k, 0), vec.den)


class DenseBasisVector(NamedTuple):
    """b_n as a Fraction at every coordinate 1..H, and its (generator index,
    Fraction weight) pairs."""

    coords: tuple[Fraction, ...]
    combination: tuple[tuple[int, Fraction], ...]


def densify(basis: TriangularBasis) -> tuple[DenseBasisVector, ...]:
    """Every vector of basis on its whole horizon."""
    out = []
    for vec in basis.vectors:
        coords = [Fraction(0)] * basis.horizon
        for k, x in vec.entries:
            coords[k - 1] = Fraction(x, vec.den)
        combination = tuple((c, Fraction(w, vec.weight_den)) for c, w in vec.combination)
        out.append(DenseBasisVector(coords=tuple(coords), combination=combination))
    return tuple(out)


def undensify(coords: Sequence, combination: Sequence[tuple[int, Rational]] = ()) -> BasisVector:
    """The BasisVector with Rational coordinates 1..H and the given
    (generator index, weight) pairs, each over the lcm of its denominators
    (which puts it in joint lowest terms)."""
    qs = [Fraction(v) for v in coords]
    ws = [(c, Fraction(w)) for c, w in combination]
    den = math.lcm(*(q.denominator for q in qs))
    weight_den = math.lcm(*(w.denominator for _, w in ws))
    return BasisVector(
        entries=tuple((k, q.numerator * (den // q.denominator)) for k, q in enumerate(qs, start=1) if q),
        den=den,
        combination=tuple((c, w.numerator * (weight_den // w.denominator)) for c, w in ws),
        weight_den=weight_den,
    )


def fraction_basis(density: DensityResult, G: GeneratorSet, horizon: int) -> tuple[DenseBasisVector, ...]:
    """basis_from_density on a full-rank store in Fractions: each unit
    combination as Fraction weights, b_n summed densely on the horizon over
    the lcm of every weight's denominator times its generator's, one
    Fraction per coordinate past N.  A profile off the unit vector on 1..N
    raises AssertionError, as the package does."""
    N, store = density.m, density.echelon
    scaled = []  # generator c as (D_c, D_c * G_c on 1..H), D_c the lcm of its denominators
    for g in list(G)[: len(store.inputs)]:
        d = math.lcm(*(v.denominator for v in g.values()))
        scaled.append((d, [(k, v.numerator * (d // v.denominator)) for k, v in g.items() if k <= horizon]))
    vectors = []
    for n, (weights, s) in enumerate(store.unit_combinations(), start=1):
        combination = tuple(sorted((c, Fraction(w, s)) for c, w in weights.items()))
        den = math.lcm(*(w.denominator * scaled[c][0] for c, w in combination))
        acc = [0] * horizon
        for c, w in combination:
            factor = w.numerator * (den // (w.denominator * scaled[c][0]))
            for k, x in scaled[c][1]:
                acc[k - 1] += factor * x
        for k in range(1, N + 1):
            if acc[k - 1] != (den if k == n else 0):
                raise AssertionError(f"unit coordinate profile violated at pi_{k}(b_{n})")
        coords = [Fraction(int(k == n)) for k in range(1, N + 1)] + [Fraction(x, den) for x in acc[N:]]
        vectors.append(DenseBasisVector(coords=tuple(coords), combination=combination))
    return tuple(vectors)


def fraction_basis_to_json(vectors: Sequence[DenseBasisVector], horizon: int) -> dict:
    """The basis report of dense vectors, one format_rational per value."""
    return {
        "horizon": horizon,
        "vectors": [
            {
                "coords": [format_rational(v) for v in vec.coords],
                "combination": {str(c): format_rational(w) for c, w in vec.combination},
                "support_size": sum(1 for v in vec.coords if v),
            }
            for vec in vectors
        ],
    }


def build_triangular_basis(G: GeneratorSet, N: int, horizon: int) -> TriangularBasis:
    """Construct b_1..b_N on the given horizon with pi_k(b_n) = delta_{kn}
    for every k <= N (stronger than the triangular requirement k <= n):
    density_check up to N, then basis_from_density on its echelon store.
    Requires the generators to be dense up to N; rank deficiency raises a
    DensityError naming the first uncovered coordinate, and N < 1 or a
    horizon shorter than N raise ValueError.
    """
    return basis_from_density(density_check(G, N), horizon)


# ---------------------------------------------------------------------------
# The standard test family


def standard_test_family() -> list[TensorCombo]:
    """Five fixed symmetric combinations, each with norm_bound exactly 1."""
    mk = lambda name, *terms: TensorCombo(terms=terms, name=name)
    return [
        mk("sign_centered", SymmetricTerm("sign_centered")),
        mk("linear_centered", SymmetricTerm("linear_centered")),
        mk("abs_centered", SymmetricTerm("abs_centered")),
        mk("majority", SymmetricTerm("majority")),
        mk(
            "half_sign_half_majority",
            SymmetricTerm("sign_centered", coeff=Fraction(1, 2)),
            SymmetricTerm("majority", coeff=Fraction(1, 2)),
        ),
    ]


def combo_to_json(combo: TensorCombo) -> dict:
    """combo in the family format the subseq subcommand reads."""
    terms = [
        {
            "type": "symmetric",
            "profile": t.profile,
            "coeff": format_rational(t.coeff),
            "g_const": format_rational(t.g_const),
        }
        for t in combo.terms
    ]
    return {"name": combo.name, "terms": terms}


# ---------------------------------------------------------------------------
# The greedy subsequence rule, walked


def greedy_walk(stream: Iterable[int], length: int) -> tuple[int, ...]:
    """s_n = first unconsumed element of the strictly increasing stream that
    is >= max(s_{n-1} + 1, n^4), for n = 1..length."""
    it = iter(stream)
    picks: list[int] = []
    pick = 0
    for pos in range(1, length + 1):
        threshold = max(pick + 1, pos**4)
        pick = next(x for x in it if x >= threshold)
        picks.append(pick)
    return tuple(picks)


# ---------------------------------------------------------------------------
# The argparse front end


def argparse_parser() -> argparse.ArgumentParser:
    """The kslab parser as argparse built it; the subcommands set no func."""
    parser = argparse.ArgumentParser(
        prog="kslab",
        description="Exact construction and certification of sign-cube measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="full bound-verification sweep over n = 1..n_max")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("subseq", help="extract a summable subsequence and verify a family")
    p.add_argument("--n", type=int, required=True, help="certificate length")
    p.add_argument("--family", required=True, help="JSON file with tensor combinations")
    p.add_argument("--out", required=True)
    p.add_argument("--stream-start", type=int, default=1)
    p.add_argument("--stream-step", type=int, default=1)

    p = sub.add_parser("schauder", help="density check and triangular basis construction")
    p.add_argument("--generators", required=True, help="JSONL file, one generator per line")
    p.add_argument("--n", type=int, required=True, help="basis length")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--target", default=None, help="optional JSON file of expansion targets")
    p.add_argument("--out", required=True)

    p = sub.add_parser("sup", help="rectangle supremum report for a single index")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--brute", action="store_true")
    p.add_argument("--out", required=True)

    return parser


def argparse_parse(argv: list[str]) -> tuple[int, dict | None, str]:
    """(exit code, option values or None, stderr) of argv through
    argparse_parser and the range checks; a range check failed through the
    top-level parser.error, so its usage line is the top-level one."""
    parser, err = argparse_parser(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            args = parser.parse_args(argv)
            if args.command == "verify" and args.n_max < 1:
                parser.error("--n-max must be >= 1")
            if args.command != "verify" and args.n < 1:
                parser.error("--n must be >= 1")
            if args.command == "subseq" and args.stream_step < 1:
                parser.error("--stream-step must be >= 1")
            if args.command == "schauder" and args.horizon < args.n:
                parser.error("--horizon must be >= --n")
            if args.command == "sup" and args.brute and args.n > BRUTE_MAX_N:
                parser.error(f"--brute is limited to n <= {BRUTE_MAX_N}")
        except SystemExit as exc:
            return int(exc.code or 0), None, err.getvalue()
    return 0, vars(args), err.getvalue()


_PART = r"(?:0x[0-9a-f]+|[0-9]+)"
_HEX_RATIONAL = rf"\s*([+-]?{_PART})(?:/({_PART}))?\s*"
DECIMAL_RATIONAL = re.compile(r"\s*[+-]?(?=\.?[0-9])[0-9]*(?:/[0-9]+|(?:\.[0-9]*)?(?:e[+-]?[0-9]+)?)\s*")


def cmp_sq_below_exact(r: Rational | Dyadic, c_num: int, c_den: int, n: int) -> Cmp:
    if isinstance(r, Dyadic):
        p2, q2 = r.num * r.num, r.odd * r.odd << 2 * r.exp
    else:
        p2, q2 = r.numerator**2, r.denominator**2
    k, c = n * c_den**2, c_num**2
    if p2 * (k * PI.upper.numerator) < q2 * (c * PI.upper.denominator):
        return Cmp.CERT_LT
    if p2 * (k * PI.lower.numerator) > q2 * (c * PI.lower.denominator):
        return Cmp.CERT_GT
    return Cmp.UNDECIDED


def quoted(text: str) -> str:
    if len(text) <= 80:
        return repr(text)
    return repr(text[:20] + "..." + text[-20:]) + f" ({len(text)} characters)"


def parse_rational_by_fraction(text: str) -> Rational:
    """report.parse_rational with its decimal text read by Fraction(text)."""
    lowered = text.lower()
    try:
        if "0x" not in lowered:
            exp = re.search(r"e[+-]?(\d[\d_]*)", lowered) if "e" in lowered else None
            if exp and (len(digits := exp[1].replace("_", "")) > STR_DIGITS or int(digits) > STR_DIGITS):
                raise ValueError(f"exponent past {STR_DIGITS} in magnitude in {text!r}")
            if DECIMAL_RATIONAL.fullmatch(lowered) is None:
                raise ValueError(f"malformed rational {text!r}")
            return Fraction(text.strip())
        if (match := re.fullmatch(_HEX_RATIONAL, lowered)) is None:
            raise ValueError(f"malformed rational {text!r}")
        return Fraction(*(int(part, 16 if "x" in part else 10) for part in match.groups("1")))
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc
