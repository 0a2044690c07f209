"""Finite-section diagnostics for candidate basic sequences of functionals.

A section is the value table of N functionals against a finite test family
of functions; the norm model is the maximum absolute value over the family,
matching evaluation-against-functions semantics at finite scale.  The basis
constant of the section is max over m < N of the operator norm of the
partial-sum projection P_m (keep the first m coefficients) on the span.

Each projection norm is a polyhedral optimization

    max |sum_{i<=m} c_i v_i(h)|  over h in the family,
    subject to |sum_i c_i v_i(h')| <= 1 for every h',

over the coefficients c.  Every (m, h) shares the feasible set K, so one
integer-only vertex simplex per section walks K from optimum to optimum:
rows are scaled to primitive integer vectors (a positive row scaling leaves
every norm unchanged), no float enters, and each norm is an exact Fraction.
The walk's first vertex decides the rank: its N forced pivots out of the
origin all meet a constraint exactly when the rows are independent, so a
section is eliminated once.  A walk pivots by Dantzig's rule (the most
negative multiplier leaves) while each pivot strictly raises the objective,
and by Bland's rule from the first pivot that does not, so it never cycles.
Every vertex c the walk reaches lies in K, so its prefix values
|sum_{i<=m} a_h(i) c_i| over every column h are attained on K and raise the
floor of every m at once; an optimum is such a value at its own vertex.  The
constraints are two-sided, so at any basis p . c <= sum(|mu|) / det on K for
the simplex multipliers mu; an objective whose bound cannot beat its m's
floor is dropped, which leaves every maximum, so every norm, exact.
The weak-star limit property of an infinite sequence is not finitely
checkable; reports carry an explicit caveat and quantify the finite shadow
only.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import NamedTuple, Sequence

from . import report
from .exactnum import Rational


class DegenerateSectionError(ValueError):
    """A section is empty, its rows differ in length, a row is zero, or the
    rows are linearly dependent."""


class FiniteSection(NamedTuple):
    """Rows = functionals, columns = test functions; exact rational entries."""

    rows: tuple[tuple[Rational, ...], ...]

    @property
    def n_functionals(self) -> int:
        return len(self.rows)

    @property
    def n_tests(self) -> int:
        return len(self.rows[0]) if self.rows else 0


def _primitive(row: Sequence[Rational]) -> list[int]:
    """The positive multiple of a nonzero rational row that is an integer
    vector with joint gcd 1."""
    d = math.lcm(*(v.denominator for v in row))
    ints = [v.numerator * (d // v.denominator) for v in row]
    g = math.gcd(*ints)
    return [v // g for v in ints]


class _VertexSimplex:
    """Vertices of K = {c : |a . c| <= 1 for every column a of the primitive
    integer nonzero rows}, walked by a fraction-free simplex (cols holds the
    columns).

    A vertex is a basis of N (column h, sign s) pairs whose normals s a_h,
    the rows of M, are tight: c = M^-1 1.  M^-1 is adj / det, det > 0 and
    adj an integer matrix stored by columns.  Replacing row r by u is a
    Sherman-Morrison update, exact in integers: det' = (u^T adj)_r and
    adj' = (det' adj - adj[:, r] (u^T adj)) / det off column r, which keeps
    its values.  The first vertex comes from N forced pivots out of the
    origin: row r starts as e_r (c_r = 0, right side 0) and the ray that
    keeps the other rows fixed replaces it by the first constraint it meets.
    A ray that meets none is a direction d != 0 with a . d = 0 for every
    column, so the rows are dependent and DegenerateSectionError is raised;
    if all N pivots succeed, N columns are independent, and so are the rows.
    """

    def __init__(self, rows: Sequence[Sequence[Rational]]):
        n = len(rows)
        self.cols = [list(col) for col in zip(*map(_primitive, rows))]
        self.det = 1
        self.adj = [[int(i == j) for i in range(n)] for j in range(n)]  # adj[j] = column j
        self.basis: list[tuple[int, int] | None] = [None] * n  # (h, s) of each row
        for r in range(n):
            self._pivot(r, 1)

    def point(self) -> list[int]:
        """Numerators of the current point c over det."""
        live = [self.adj[r] for r, b in enumerate(self.basis) if b is not None]
        return [sum(xs) for xs in zip(*live)] if live else [0] * len(self.adj)

    def _pivot(self, r: int, sigma: int) -> None:
        """Move along sigma * adj[:, r], which keeps every other row's value,
        to the first constraint the ray meets (smallest h among ties) and
        make it row r.  Only columns with a_h . d = 0 are skipped: that
        drops the other basic rows and keeps row r's own column, with the
        opposite sign, in the ratio test."""
        adj, det = self.adj, self.det
        x, d = self.point(), adj[r]
        best = None  # (h, s, num, den): the step to this constraint is num / den
        for h, a in enumerate(self.cols):
            y = sigma * sum(map(mul, a, d))
            if y:
                s = 1 if y > 0 else -1
                num, den = det - s * sum(map(mul, a, x)), abs(y)
                if best is None or num * best[3] < best[2] * den:
                    best = (h, s, num, den)
        if best is None:
            raise DegenerateSectionError("section rows are linearly dependent")
        h, s, _, _ = best
        w = [s * sum(map(mul, self.cols[h], col)) for col in adj]
        new_det = w[r]
        for j, col in enumerate(adj):
            if j != r:
                adj[j] = [(new_det * v - w[j] * vr) // det for v, vr in zip(col, d)]
        if new_det < 0:
            new_det = -new_det
            self.adj = [[-v for v in col] for col in adj]
        self.det = new_det
        self.basis[r] = (h, s)

    def maximize(self, p: list[int], floor: Fraction) -> list[int] | None:
        """Pivot to a vertex that maximizes p . c over K (p may be shorter
        than c: the missing entries are 0) and return the multiplier
        numerators mu = adj^T p: p = sum_r (mu_r / det) s_r a_{h_r}
        with every mu_r >= 0, so the optimum is sum(mu) / det.  Return None
        instead once sum(|mu|) / det, a bound on K at any basis, is <= floor;
        at floor 0 that needs mu = 0, already optimal.

        The row with the most negative multiplier leaves (Dantzig's rule)
        while each pivot strictly raises p . c = sum(mu) / det, so no basis
        comes back.  From the first pivot that does not, the row with the
        smallest column among negative multipliers leaves (Bland's rule),
        which cannot cycle from any basis.  So every call ends."""
        bland, last = False, None
        while True:
            mu = [sum(map(mul, p, col)) for col in self.adj]
            neg = [r for r in range(len(mu)) if mu[r] < 0]
            if not neg:
                return mu
            if sum(map(abs, mu)) * floor.denominator <= floor.numerator * self.det:
                return None
            value = sum(mu), self.det
            bland = bland or last is not None and value[0] * last[1] <= last[0] * value[1]
            last = value
            self._pivot(min(neg, key=(lambda r: self.basis[r][0]) if bland else mu.__getitem__), -1)


def _raise_floors(lp: _VertexSimplex, per_m: list[Fraction]) -> None:
    """Raise per_m[m - 1] to max over columns h of |sum_{i<=m} a_h(i) c_i|
    at the simplex's vertex c, a point of K: each value is attained there,
    so it is at most ||P_m||."""
    x, det = lp.point()[: len(per_m)], lp.det
    best = [0] * len(per_m)
    for a in lp.cols:
        best = list(map(max, best, map(abs, accumulate(map(mul, a, x)))))
    for i, (b, floor) in enumerate(zip(best, per_m)):
        if b * floor.denominator > floor.numerator * det:
            per_m[i] = Fraction(b, det)


def basis_constant(section: FiniteSection) -> tuple[Fraction, list[Fraction]]:
    """K = max over 1 <= m < N of ||P_m||, plus the per-m norms, exactly.

    Objectives max p . c with p = a_h[:m] run h outer, m inner, on one
    simplex.  Each vertex it reaches (the first, then each one a maximize
    call moves to) raises every m's floor to the best prefix value of any
    column there: the vertex is a point of K, so that value is at most
    ||P_m||.  An objective is dropped once its dual bound is at most its
    m's floor, so its optimum cannot raise ||P_m||; an objective that is
    solved ends at its optimum's vertex, whose value the floor then holds.
    So each final floor is ||P_m|| exactly.  N = 1 reports K = 1 by
    convention (no proper partial sums).

    Raises DegenerateSectionError on an empty section, rows of unequal
    length, a zero row or, for N > 1, dependent rows (read off the
    simplex's first vertex), and TypeError on an entry that is not an int
    or Fraction (a float would be certified at its binary value).
    """
    if not section.rows:
        raise DegenerateSectionError("section has no functionals")
    widths = {len(row) for row in section.rows}
    if len(widths) > 1:
        raise DegenerateSectionError(f"section rows differ in length: {sorted(widths)}")
    for i, row in enumerate(section.rows):
        bad = next((v for v in row if not isinstance(v, numbers.Rational)), None)
        if bad is not None:
            raise TypeError(f"functional {i} has a {type(bad).__name__} entry; use int or Fraction")
        if all(v == 0 for v in row):
            raise DegenerateSectionError(f"functional {i} is zero on the test family")
    n = section.n_functionals
    if n == 1:
        return Fraction(1), [Fraction(1)]
    lp = _VertexSimplex(section.rows)  # raises on dependent rows
    per_m = [Fraction(0)] * (n - 1)
    _raise_floors(lp, per_m)
    for a in lp.cols:
        for m in range(1, n):
            basis = lp.basis[:]
            lp.maximize(a[:m], per_m[m - 1])
            if lp.basis != basis:
                _raise_floors(lp, per_m)
    return max(per_m), per_m


def section_report(section: FiniteSection) -> dict:
    return report.section_report(section, *basis_constant(section))
