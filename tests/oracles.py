"""Oracles kept out of the package: the tests hold the library to them.

projection_norms_highs is the LP layer basic_seq_diag used before its
exact vertex simplex: one SciPy HiGHS linprog per (m, h).  simplex_optima
is the full enumeration the exact simplex ran before it pruned objectives
by their dual bound: every (m, h) solved to optimality.

rect_mass sums a rectangle's atoms one row at a time, certify_bound2
re-derives the bound2 verdict from a report's sup alone, and atom_list
materializes every atom of an explicit measure for the total-variation and
support checks.  random_tensor_probe samples the unit cube in floating
point; it can never exceed tensor_sup_exact.

NumPy and SciPy are test dependencies only; kslab itself needs neither.
"""

from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from kslab.basic_seq_diag import _VertexSimplex
from kslab.exactnum import PI, Rational, cmp_sq_below
from kslab.ks_measure import EXPLICIT_MAX_N, KSMeasure, MemoryGuardError
from kslab.rect_sup import Rectangle, RectangleSupReport, bound2_verdict

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
    return total * m.scale


def certify_bound2(report: RectangleSupReport) -> str:
    """PASS iff 1/(2 sqrt(pi n)) < sup < 2/sqrt(pi n), both rationally
    certified; UNDECIDED signals an insufficient enclosure.  Re-derived from
    sup, not read from the report's recorded comparisons."""
    if report.sup < 0:
        raise ValueError("supremum must be nonnegative")
    lower_ok = cmp_sq_below(report.sup, 1, 2, PI, report.n)
    upper_ok = cmp_sq_below(report.sup, 2, 1, PI, report.n)
    return bound2_verdict(lower_ok, upper_ok)


def atom_list(m: KSMeasure) -> list[tuple[tuple[int, int], Rational]]:
    """Every atom ((s, j), weight) of an explicit measure."""
    if not m.is_explicit():
        raise MemoryGuardError(f"atom list limited to n <= {EXPLICIT_MAX_N}, got n={m.n}")
    atoms = []
    for s in range(m.rows):
        p = m.row_pattern(s)
        for j in range(m.n):
            atoms.append(((s, j), -m.scale if (p >> j) & 1 else m.scale))
    return atoms


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
    scale = float(m.scale)
    best = 0.0
    chunk = 1024
    done = 0
    while done < trials:
        k = min(chunk, trials - done)
        f = rng.uniform(-1.0, 1.0, size=(k, m.rows))
        g = rng.uniform(-1.0, 1.0, size=(k, m.n))
        vals = np.abs(np.einsum("ij,ij->i", f @ signs, g)) * scale
        best = max(best, float(vals.max()))
        done += k
    return best
