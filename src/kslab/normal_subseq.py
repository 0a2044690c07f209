"""Subsequence extraction with machine-checkable summability certificates.

On the arithmetic index stream start, start + step, ... (step >= 1), the
greedy rule s_n = least stream element >= t_n = max(s_{n-1} + 1, n^4)
selects a subsequence with s_n >= n^4, hence 1/sqrt(s_n) <= 1/n^2 and the
tail beyond position N is at most sum_{n>N} 1/n^2 <= 1/N by integral
comparison.  The certificate records rational upper enclosures of each
1/sqrt(s_n) (exact at perfect squares), their sum P_N, and the tail bound,
so the total bound P_N + 1/N is a purely rational object.

Partial sums sum_{n<=M} |mu_{s_n}(h)| over a tensor combination h are then
uniformly dominated by (8/sqrt(pi)) * norm_bound * (P_N + tail).  They
never decrease, so a row certifies the last one, and every prefix with it,
by one squared comparison against the pi enclosure (cmp_sq_below, n = 1):
PASS iff last = 0 or last^2 * PI.upper < (8 norm_bound (P_N + tail))^2.
The report writes these exact inputs, not the bound.  The exponent 4 is
the smallest even power making 1/sqrt(n^p) summable with an elementary
tail certificate; the rule is one admissible selection, chosen here for
its closed-form tail, and reports label it as such.

The report builds the measure at each selected index once and evaluates
every combination on it.  Every term is a symmetric profile defined at
every index, so evaluation cannot fail; each takes its closed form in
c_n = C(n-1, floor((n-1)/2)) / 2^n (see tensor_bounds), which the measure
computes once, so a family costs one central binomial per index:
exactnum.central_binomial derives it at a selected index s from
C(2j, j), j = floor(s/2), which it factorizes, reaches by one Pascal step
when the previous selected index had j - 1, or reuses when it had j.
Values and prefix sums are exactnum.Dyadic: a denominator is a power of
two times a small odd part, and no sum takes a gcd of its huge numerator
and power of two.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple, Sequence

from .exactnum import Cmp, Dyadic, Rational, cmp_sq_below, recip_sqrt_upper
from .ks_measure import KSMeasure, build
from .tensor_bounds import TensorCombo


class SubseqCertificate(NamedTuple):
    """Strictly increasing indices with a certified bound on sum 1/sqrt(s_n)."""

    indices: tuple[int, ...]
    recip_upper: tuple[Rational, ...]  # certified upper bounds on 1/sqrt(s_n)
    partial_sum_upper: Rational  # P_N = sum of recip_upper
    tail_bound: Rational  # certified bound on the tail beyond position N

    @property
    def total_bound(self) -> Rational:
        return self.partial_sum_upper + self.tail_bound


def extract(start: int, step: int, length: int) -> SubseqCertificate:
    """The greedy rule's first `length` picks on start, start + step, ...

    s_n = start + step * max(0, ceil((t_n - start)/step)), one ceiling
    division per position, so the cost grows with neither |start| nor s_n.
    The tests hold it to the walk along the stream (oracles.greedy_walk)."""
    if length < 1:
        raise ValueError(f"certificate length must be >= 1, got {length}")
    if step < 1:
        raise ValueError(f"stream step must be >= 1, got {step}")
    indices: list[int] = []
    pick = 0
    for pos in range(1, length + 1):
        threshold = max(pick + 1, pos**4)
        pick = start + step * max(0, -((start - threshold) // step))
        indices.append(pick)
    recips = [recip_sqrt_upper(s) for s in indices]
    return SubseqCertificate(
        indices=tuple(indices),
        recip_upper=tuple(recips),
        partial_sum_upper=sum(recips, Fraction(0)),
        tail_bound=Fraction(1, length),
    )


class ComboRow(NamedTuple):
    """Exact prefix sums of |mu_{s_n}(h)| and the verdict on their bound."""

    combo: str
    norm_bound: Rational
    partial_sums: list[Dyadic]
    verdict: str  # PASS | FAIL


class SubseqReport(NamedTuple):
    certificate: SubseqCertificate
    rows: list[ComboRow]
    verdict: str  # PASS | FAIL | VACUOUS


def _combo_row(cert: SubseqCertificate, h: TensorCombo, name: str, measures: Sequence[KSMeasure]) -> ComboRow:
    """The exact prefix sums of |mu_{s_n}(h)| over the measures at the
    selected indices, and the verdict on their certified uniform bound.

    The prefix sums are Dyadics: each step shifts the running sum onto the
    larger power-of-two denominator and reduces by a trailing-zero count
    and a gcd with the small odd part, never a gcd of the whole sum."""
    partials = list(itertools.accumulate(abs(h.value_at(m)) for m in measures))
    last, nb = partials[-1], h.norm_bound
    bound = (8 * nb * cert.total_bound).as_integer_ratio()  # last < bound / sqrt(pi), or 0 <= 0
    certified = not last or cmp_sq_below(last, *bound, 1) is Cmp.CERT_LT
    return ComboRow(name, nb, partials, "PASS" if certified else "FAIL")


def strongly_normal_report(cert: SubseqCertificate, test_family: Sequence[TensorCombo]) -> SubseqReport:
    """Per-combination bounded-partial-sum verdicts over the certificate.

    Finite evidence only; the report carries an explicit disclaimer field.
    Each selected index's measure is built once and shared by every
    combination, so the central binomial behind the closed-form profile
    values is computed once per index.
    """
    measures = [build(s) for s in cert.indices]
    rows = [_combo_row(cert, h, h.name or f"combo_{i}", measures) for i, h in enumerate(test_family)]
    verdict = "PASS" if all(r.verdict == "PASS" for r in rows) else "FAIL"
    return SubseqReport(cert, rows, verdict if rows else "VACUOUS")
