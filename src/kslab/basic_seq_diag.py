"""Finite-section diagnostics for candidate basic sequences of functionals.

A section is the value table of N functionals against a finite test family
of functions; the norm model is the maximum absolute value over the family,
matching evaluation-against-functions semantics at finite scale.  The basis
constant of the section is max over m < N of the operator norm of the
partial-sum projection P_m (keep the first m coefficients) on the span.

Each projection norm is a polyhedral optimization

    max |sum_{i<=m} c_i v_i(h)|  over h in the family,
    subject to |sum_i c_i v_i(h')| <= 1 for every h',

solved as a family of linear programs in the coefficients c.  The weak-star
limit property of an infinite sequence is not finitely checkable; reports
carry an explicit caveat and quantify the finite shadow only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

from .exactnum import EchelonStore, Rational, format_rational
from .ks_measure import build
from .tensor_bounds import TensorCombo

CAVEAT = (
    "Finite-section evidence only: projection norms are computed on the "
    "span of the listed functionals in the sup-over-family norm. No claim "
    "is made about any infinite sequence or its weak-star limit behavior."
)


class DegenerateSectionError(ValueError):
    """A section is empty, its rows differ in length, a row is zero, or the
    rows are linearly dependent."""


@dataclass(frozen=True)
class FiniteSection:
    """Rows = functionals, columns = test functions; exact rational entries."""

    rows: tuple[tuple[Rational, ...], ...]
    norm_model: str = "SupOnFamily"

    @property
    def n_functionals(self) -> int:
        return len(self.rows)

    @property
    def n_tests(self) -> int:
        return len(self.rows[0]) if self.rows else 0


def check_section(section: FiniteSection) -> None:
    """Raise DegenerateSectionError on an empty section, rows of unequal
    length, a zero row or dependent rows."""
    if not section.rows:
        raise DegenerateSectionError("section has no functionals")
    widths = {len(row) for row in section.rows}
    if len(widths) > 1:
        raise DegenerateSectionError(f"section rows differ in length: {sorted(widths)}")
    for i, row in enumerate(section.rows):
        if all(v == 0 for v in row):
            raise DegenerateSectionError(f"functional {i} is zero on the test family")
    store = EchelonStore(section.n_tests)
    if not all(store.add(dict(enumerate(row, start=1))) for row in section.rows):
        raise DegenerateSectionError("section rows are linearly dependent")


def _projection_norm(values: np.ndarray, m: int) -> float:
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


def basis_constant(section: FiniteSection) -> tuple[float, list[float]]:
    """K = max over 1 <= m < N of ||P_m||, plus the per-m norms.

    N = 1 has no proper partial sums and reports K = 1 by convention.
    Norms are floating point (LP-based); all section data stays rational.
    """
    check_section(section)
    n = section.n_functionals
    if n == 1:
        return 1.0, [1.0]
    values = np.array([[float(v) for v in row] for row in section.rows], dtype=np.float64)
    per_m = [_projection_norm(values, m) for m in range(1, n)]
    return max(per_m), per_m


def section_of_ks(indices: Sequence[int], test_family: Sequence[TensorCombo]) -> FiniteSection:
    """Rows are the exact evaluations of the indexed measures against the
    family; degeneracy (e.g. an all-zero row) surfaces via check_section."""
    if not indices:
        raise ValueError("at least one measure index is required")
    if not test_family:
        raise ValueError("the test family must be non-empty")
    rows = (tuple(h.value_at(m) for h in test_family) for m in map(build, indices))
    return FiniteSection(rows=tuple(rows))


def section_report(section: FiniteSection) -> dict:
    k, per_m = basis_constant(section)
    return {
        "n_functionals": section.n_functionals,
        "n_tests": section.n_tests,
        "values": [[format_rational(v) for v in row] for row in section.rows],
        "basis_constant": f"{k:.30g}",
        "per_m_projection_norms": [f"{v:.30g}" for v in per_m],
        "caveat": CAVEAT,
    }
