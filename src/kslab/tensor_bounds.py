"""Tensor combinations h = sum_i f_i (x) g_i and their exact values at
every measure index, plus the closed form of the tensor supremum.

The supremum of |mu_n(f (x) g)| over the sup-norm unit cubes is 2 c_n,
with c_n = C(2j, j) / 2^(2j+1), j = floor(n/2), the rectangle supremum.
For fixed g the optimal f is the sign of each row's inner sum, and the
objective is then convex in g, so the maximum is attained at a vertex g
of {-1,+1}^n.
A row with sign pattern p has inner sum n - 2|p ^ g|, and the rows run
over the whole sign cube, so XOR by g permutes them: every vertex has the
value sum_x |n - 2|x|| / (n 2^n) = E|S_n| / n = 2 c_n, S_n a sum of n
independent random signs.  The verify sweep reports it at every index and
reads the 8/sqrt(pi n) bound on it off the certified c_n < 2/sqrt(pi n).
The tests hold the closed form to an enumeration of all 2^n vertices
(three integer Walsh-Hadamard transforms) and to a float random probe of
the cube (tests/oracles.py); the enumeration also runs on row-permuted
measures, a test oracle, since the package builds only the canonical one.

Every term is a named symmetric profile F(plus-count) with constant g,
defined at every index, as a test function on the whole space must be; a
value table pinned to one index is not a term.  By Abel summation mu_n(F (x) 1) = 2^-n * sum_k C(n-1, k)
(F(k+1) - F(k)), so each named profile has a closed form in c_n: one
central binomial per index (KSMeasure.central_mass), shared by every term
evaluated on the same measure.  Values are exactnum.Dyadic, as c_n and 1/n
are.  The profile tables and that walk along the binomial row are the
tests' oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .exactnum import Dyadic, Rational
from .report import describe, fields, rational
from .ks_measure import KSMeasure


# ---------------------------------------------------------------------------
# Tensor combinations


# Closed-form values mu_n(F (x) 1) of the named plus-count profiles F(k),
# k = 0..n, all with sup norm 1 at every n, read off the forward
# differences of F.  sign_centered, F(k) = sign(2k - n), steps by 2 across
# the middle (one step of 2 for odd n, two steps of 1 at C(n-1, n/2 - 1) =
# C(n-1, n/2) for even n) and majority, F(k) = [2k > n], by 1;
# linear_centered, F(k) = (2k - n)/n, steps by 2/n everywhere and the row
# sums to 2^(n-1); abs_centered, |2k - n|/n, and constant_one are symmetric
# under k <-> n-k, which negates every column's signed count, so they vanish.
_PROFILES: dict[str, Callable[[KSMeasure], Dyadic]] = {
    "sign_centered": lambda m: 2 * m.central_mass,
    "linear_centered": lambda m: Dyadic(1, m.n),
    "abs_centered": lambda m: Dyadic(0),
    "majority": lambda m: m.central_mass,
    "constant_one": lambda m: Dyadic(0),
}


class SymmetricTerm:
    """coeff * F_profile (x) g with g constant on the columns.

    Defined for every measure index; sup norm |coeff| * |g_const| since all
    named profiles have sup norm 1.  value_at is the profile's closed form
    times scale = coeff * g_const, a Dyadic formed once here; no table is
    built.  coeff and g_const are held as Fractions, so terms compare by
    value (scale is not read there); a float raises TypeError.
    """

    __slots__ = ("profile", "coeff", "g_const", "scale")

    def __init__(self, profile: str, coeff: Rational = Fraction(1), g_const: Rational = Fraction(1)):
        if not isinstance(profile, str) or profile not in _PROFILES:
            raise ValueError(f"unknown profile {describe(profile)}")
        self.profile, self.coeff, self.g_const = profile, rational(coeff, "coeff"), rational(g_const, "g_const")
        scale = self.coeff * self.g_const
        self.scale = Dyadic(scale.numerator, scale.denominator)

    def _key(self) -> tuple[str, Rational, Rational]:
        return self.profile, self.coeff, self.g_const

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if type(other) is SymmetricTerm else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"SymmetricTerm{self._key()!r}"

    def sup_norm(self) -> Rational:
        return abs(self.coeff) * abs(self.g_const)

    def value_at(self, m: KSMeasure) -> Dyadic:
        return _PROFILES[self.profile](m) * self.scale


class TensorCombo(NamedTuple):
    """h = sum of terms; norm_bound = sum of term sup norms >= ||h||_inf."""

    terms: tuple[SymmetricTerm, ...]
    name: str = ""

    @property
    def norm_bound(self) -> Rational:
        return sum((t.sup_norm() for t in self.terms), Fraction(0))

    def value_at(self, m: KSMeasure) -> Dyadic:
        return sum((t.value_at(m) for t in self.terms), Dyadic(0))


def combo_from_json(doc) -> TensorCombo:
    name, terms = fields(doc, "combo", name=(str, ""), terms=(list, ...))
    combo = []
    for td in terms:
        kind, profile, coeff, g_const = fields(
            td, "term", type=(object, "symmetric"), profile=(object, ...), coeff=(object, 1), g_const=(object, 1))
        if kind != "symmetric":
            raise ValueError(f"unknown term type {describe(kind)}")
        combo.append(SymmetricTerm(profile, coeff, g_const))
    return TensorCombo(terms=tuple(combo), name=name)


def family_from_json(doc) -> list[TensorCombo]:
    """The combinations of a family document; a parse error names the
    position of the combination it is in, counted from 0."""
    if not isinstance(doc, list):
        raise ValueError("family document must be a list of combos")
    family = []
    for i, item in enumerate(doc):
        try:
            family.append(combo_from_json(item))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"combo {i}: {exc}") from None
    return family
