"""Floating-point oracles for exact code paths, kept out of the package.

projection_norms_highs is the LP layer basic_seq_diag used before its
exact vertex simplex: one SciPy HiGHS linprog per (m, h).  SciPy is a test
dependency only.
"""

import numpy as np
from scipy.optimize import linprog

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
