"""Oracles for the projection norms of basic_seq_diag, kept out of the package.

projection_norms_highs is the LP layer basic_seq_diag used before its
exact vertex simplex: one SciPy HiGHS linprog per (m, h).  SciPy is a test
dependency only.  simplex_optima is the full enumeration the exact simplex
ran before it pruned objectives by their dual bound: every (m, h) solved to
optimality.
"""

from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from kslab.basic_seq_diag import _VertexSimplex

LP_TOL = 1e-7  # float tolerance when an exact value is compared with HiGHS


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
