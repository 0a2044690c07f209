"""Sign-cube measures: unit-mass signed measures on a 2^n-by-n product grid.

The measure with index n lives on K_n x L_n with |K_n| = 2^n rows and
|L_n| = n columns.  A bijection from rows onto the full sign cube {-1,+1}^n
assigns each atom (s, j) the weight sign(s, j) / (n * 2^n).  Every quantity
this package reports (total variation, rectangle masses, tensor
functionals) is a function of this finite atomic data, so the grid is all
that is ever modeled, and none depends on which bijection is used.

Rows are encoded as bit patterns: bit j of the pattern set means
sign(s, j) = -1.  The package builds the canonical bijection, which uses the
row index itself as the pattern.  row_pattern is the one place the
bijection is read; the tests override it with row permutations and
arbitrary row tables (tests/oracles.py).  The package materializes no row
table at any index, so only closed forms apply; EXPLICIT_MAX_N is the
largest index at which the tests materialize one, and in the package it
only fills the verify report's config.explicit_max and decides nothing.
"""

from __future__ import annotations

from .exactnum import Dyadic, central_binomial

EXPLICIT_MAX_N = 20


class KSMeasure:
    """Sign-cube measure with index n; all evaluations are pure."""

    __slots__ = ("n", "_central_mass")

    def __init__(self, n: int):
        self.n = n
        self._central_mass = None  # the Dyadic c_n, once central_mass computes it

    @property
    def rows(self) -> int:
        return 1 << self.n

    @property
    def central_mass(self) -> Dyadic:
        """c_n = C(2j, j) / 2^(2j+1), j = floor(n/2), computed once per measure.

        The rectangle supremum, half the tensor supremum, and by Abel
        summation the value of every named plus-count profile that jumps
        at the middle; it equals C(n-1, floor((n-1)/2)) / 2^n, and indices
        2j and 2j + 1 share it.  The binomial comes from
        exactnum.central_binomial: one Pascal step from the previous j when
        the measures are built in increasing order (a verify sweep),
        otherwise the prime factorization.  Its lowest terms need no gcd:
        by Kummer's theorem C(2j, j) holds 2 to the power v = s(j), the
        carries in j + j (s the binary digit sum), so
        c_n = (C >> v) / 2^(2j+1-v), an exact Dyadic with an odd numerator.
        """
        if self._central_mass is None:
            j = self.n // 2
            v = j.bit_count()
            self._central_mass = Dyadic(central_binomial(j) >> v, 1, 2 * j + 1 - v)
        return self._central_mass

    def row_pattern(self, s: int) -> int:
        """The sign pattern of row s: the row index itself."""
        return s


def build(n: int) -> KSMeasure:
    """Construct the measure with index n."""
    if n < 1:
        raise ValueError(f"measure index must be >= 1, got n={n}")
    return KSMeasure(n)

