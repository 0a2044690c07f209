"""Bilinear supremum of |measure(f (x) g)| over the unit sup-norm cubes,
certification of the 8/sqrt(pi n) tensor bound, and decay verification.

For fixed g the optimal f is the sign pattern of the per-row inner sums
(rows with zero inner sum contribute nothing; their f value is set to 0 by
convention).  The objective is then convex in g, so the maximum over the
cube is attained at a vertex g in {-1,+1}^n.  tensor_sup_exact evaluates
every vertex at once: the value at g is an XOR convolution of the row
patterns with |n - 2 popcount|, which three exact integer Walsh-Hadamard
transforms compute in O(n 2^n) with no per-vertex loop.  The convexity
derivation is never trusted alone: the tests hold it to a per-vertex loop,
to a float random probe of the cube (tests/oracles.py) and to the
inequality tensor_sup >= rectangle_sup (indicators lie in the cube).

Tensor combinations h = sum_i f_i (x) g_i come in two term forms: explicit
tables pinned to one measure index, and named symmetric profiles
F(plus-count) with constant g, which are defined at every index.  By Abel
summation mu_n(F (x) 1) = 2^-n * sum_k C(n-1, k) (F(k+1) - F(k)), so each
named profile has a closed form in c_n = C(n-1, floor((n-1)/2)) / 2^n, the
rectangle supremum: one binomial per index, shared by every term evaluated
on the same measure.  The tables and ks_measure.eval_symmetric remain as
the oracle the tests hold the closed forms to.  Decay rows certify
|mu_n(h)| <= (8/sqrt(pi n)) * norm_bound through exact squared comparisons
against the pi enclosure.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .exactnum import (
    PI,
    Rational,
    cmp_sq_below,
    Cmp,
    format_rational,
    parse_rational,
    sqrt_enclosure,
)
from .ks_measure import GridFunction, KSMeasure, build, eval_tensor

TENSOR_MAX_N = 12

PASS = "PASS"
FAIL = "FAIL"
UNDECIDED = "UNDECIDED"


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
    XOR convolution everywhere, and the inverse's 1/2^n is a shift.
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
        return FAIL
    verdict = cmp_sq_below(sup, 8, 1, PI, n)
    if verdict is Cmp.CERT_LT:
        return PASS
    if verdict is Cmp.CERT_GT:
        return FAIL
    return UNDECIDED


# ---------------------------------------------------------------------------
# Tensor combinations


@dataclass(frozen=True)
class _Profile:
    """A named plus-count profile: its table entry F(k) at index n, and its
    closed-form value mu_n(F (x) 1) read off the forward differences of F."""

    entry: Callable[[int, int], Fraction]
    value: Callable[[KSMeasure], Rational]


# Named plus-count profiles F(k), k = 0..n, all with sup norm 1 at every n.
# sign_centered steps by 2 across the middle (one step of 2 for odd n, two
# steps of 1 at C(n-1, n/2 - 1) = C(n-1, n/2) for even n), majority by 1;
# linear_centered steps by 2/n everywhere and the row sums to 2^(n-1);
# abs_centered and constant_one are symmetric under k <-> n-k, which
# negates every column's signed count, so they vanish.
_PROFILES: dict[str, _Profile] = {
    "sign_centered": _Profile(
        lambda n, k: Fraction((2 * k > n) - (2 * k < n)), lambda m: 2 * m.central_mass
    ),
    "linear_centered": _Profile(lambda n, k: Fraction(2 * k - n, n), lambda m: Fraction(1, m.n)),
    "abs_centered": _Profile(lambda n, k: Fraction(abs(2 * k - n), n), lambda m: Fraction(0)),
    "majority": _Profile(lambda n, k: Fraction(1 if 2 * k > n else 0), lambda m: m.central_mass),
    "constant_one": _Profile(lambda n, k: Fraction(1), lambda m: Fraction(0)),
}


def profile_table(name: str, n: int) -> list[Fraction]:
    """The table F(0..n) of a named profile; the oracle input for
    eval_symmetric, never built on the evaluation path."""
    entry = _PROFILES[name].entry
    return [entry(n, k) for k in range(n + 1)]


@dataclass(frozen=True)
class SymmetricTerm:
    """coeff * F_profile (x) g with g constant on the columns.

    Defined for every measure index; sup norm |coeff| * |g_const| since all
    named profiles have sup norm 1.  value_at is coeff * g_const times the
    profile's closed form, equal to coeff * eval_symmetric(m, table,
    g_const * n) without building the table.
    """

    profile: str
    coeff: Rational = Fraction(1)
    g_const: Rational = Fraction(1)

    def __post_init__(self) -> None:
        if self.profile not in _PROFILES:
            raise ValueError(f"unknown profile {self.profile!r}")

    def sup_norm(self) -> Rational:
        return abs(Fraction(self.coeff)) * abs(Fraction(self.g_const))

    def value_at(self, m: KSMeasure) -> Rational:
        return Fraction(self.coeff) * Fraction(self.g_const) * _PROFILES[self.profile].value(m)


@dataclass(frozen=True)
class ExplicitTerm:
    """A tensor factor pair pinned to a single measure index."""

    n: int
    grid: GridFunction

    def sup_norm(self) -> Rational:
        return self.grid.sup_norm()

    def value_at(self, m: KSMeasure) -> Rational:
        if m.n != self.n:
            raise ValueError(f"explicit term pinned to n={self.n} is not evaluable at n={m.n}")
        return eval_tensor(m, self.grid.f_values, self.grid.g_values)


@dataclass(frozen=True)
class TensorCombo:
    """h = sum of terms; norm_bound = sum of term sup norms >= ||h||_inf."""

    terms: tuple
    name: str = ""

    @property
    def norm_bound(self) -> Rational:
        return sum((t.sup_norm() for t in self.terms), Fraction(0))

    def value_at(self, m: KSMeasure) -> Rational:
        return sum((t.value_at(m) for t in self.terms), Fraction(0))


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
    terms = []
    for t in combo.terms:
        if isinstance(t, SymmetricTerm):
            terms.append(
                {
                    "type": "symmetric",
                    "profile": t.profile,
                    "coeff": format_rational(t.coeff),
                    "g_const": format_rational(t.g_const),
                }
            )
        else:
            terms.append(
                {
                    "type": "explicit",
                    "n": t.n,
                    "f": [format_rational(v) for v in t.grid.f_values],
                    "g": [format_rational(v) for v in t.grid.g_values],
                }
            )
    return {"name": combo.name, "terms": terms}


def combo_from_json(doc: dict) -> TensorCombo:
    if not isinstance(doc, dict) or not isinstance(doc.get("terms"), list):
        raise ValueError("combo document must be an object with a 'terms' list")
    terms = []
    for td in doc["terms"]:
        if not isinstance(td, dict):
            raise ValueError(f"term must be an object, got {td!r}")
        kind = td.get("type", "symmetric")
        if kind == "symmetric":
            terms.append(
                SymmetricTerm(
                    profile=td["profile"],
                    coeff=parse_rational(str(td.get("coeff", "1"))),
                    g_const=parse_rational(str(td.get("g_const", "1"))),
                )
            )
        elif kind == "explicit":
            f = tuple(parse_rational(str(v)) for v in td["f"])
            g = tuple(parse_rational(str(v)) for v in td["g"])
            n = int(td["n"])
            if len(f) != (1 << n) or len(g) != n:
                raise ValueError(f"explicit term tables do not match n={n}")
            terms.append(ExplicitTerm(n=n, grid=GridFunction(f, g)))
        else:
            raise ValueError(f"unknown term type {kind!r}")
    return TensorCombo(terms=tuple(terms), name=str(doc.get("name", "")))


def family_from_json(doc) -> list[TensorCombo]:
    if isinstance(doc, dict):
        doc = doc.get("combos", None)
    if not isinstance(doc, list):
        raise ValueError("family document must be a list or {'combos': [...]}")
    return [combo_from_json(item) for item in doc]


# ---------------------------------------------------------------------------
# Decay profiles


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


def decay_profile(h: TensorCombo, n_list: Sequence[int]) -> list[DecayRow]:
    """Exact |mu_n(h)| with the certified dominating bound at each index.

    Raises ValueError when an explicit term is pinned to another index
    (symmetric terms are defined everywhere).
    """
    nb = h.norm_bound
    rows = []
    for n in n_list:
        value = abs(h.value_at(build(n)))
        lo, hi = _tensor_bound_enclosure(nb, n)
        ok = _certified_tensor_dominance(value, nb, n)
        rows.append(DecayRow(n=n, value=value, bound_lower=lo, bound_upper=hi, dominated=ok))
    return rows


def _tensor_bound_enclosure(norm_bound: Rational, n: int) -> tuple[Rational, Rational]:
    """Rational enclosure of (8/sqrt(pi n)) * norm_bound."""
    lo_s, hi_s = sqrt_enclosure(PI.lower * n)
    _, hi_s2 = sqrt_enclosure(PI.upper * n)
    nb = Fraction(norm_bound)
    return 8 * nb / hi_s2, 8 * nb / lo_s
