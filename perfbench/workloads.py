"""Seeded inputs and independent output checks for the four workloads.

This module never imports kslab.  Every reference value is recomputed here
from the mathematics (closed-form binomials, exact rationals), so a check
passes only when the program's output is right, whatever it encodes.

A workload is a list of operations.  Each operation is a dict with
``kind`` ("cli" runs ``kslab.cli.main(argv)``, "section" runs
``basic_seq_diag.section_report`` on a section file), the ``out`` file it
must write, and a ``check(doc) -> units`` callable that raises
``CheckFailed`` when the output is wrong.  ``units`` is the work the
operation completed, in the workload's unit.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

LP_TOL = 1e-7


class CheckFailed(Exception):
    """The output of an operation is missing, malformed or wrong."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def as_fraction(value) -> Fraction:
    """Exact value of a rational written "p/q" or "p", decimal or 0x-hex."""
    num, _, den = str(value).strip().partition("/")
    return Fraction(int(num, 0), int(den, 0) if den else 1)


def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return str(path)


# Certified enclosure of pi used by the reference checks (3.14159265358979323...).
PI_LO = Fraction(3141592653589793, 10**15)
PI_HI = Fraction(3141592653589794, 10**15)


def rect_sup(n: int) -> Fraction:
    """sup over rectangles of |mu_n(A x B)| = C(n-1, floor((n-1)/2)) / 2^n."""
    return Fraction(math.comb(n - 1, (n - 1) // 2), 1 << n)


def _bound2_holds(sup: Fraction, n: int) -> bool:
    """1/(2 sqrt(pi n)) < sup < 2/sqrt(pi n), decided by squaring."""
    sq = sup * sup * n
    return sq * PI_LO > Fraction(1, 4) and sq * PI_HI < 4


# ---------------------------------------------------------------------------
# sweep: certified rectangle and tensor sweep, then single-index sup reports

SWEEP_N_MAX = 1024
SWEEP_SUP_NS = (13, 14, 17, 20)


def _check_verify(doc) -> int:
    _require(doc.get("overall") == "PASS", "verify overall is not PASS")
    rows = doc["checks"]
    _require([r["n"] for r in rows] == list(range(1, SWEEP_N_MAX + 1)), "verify rows != 1..n_max")
    for r in rows:
        n = r["n"]
        sup = as_fraction(r["sup"])
        _require(sup == rect_sup(n), f"verify sup(n={n}) differs from C(n-1,(n-1)//2)/2^n")
        _require(as_fraction(r["total_variation"]) == 1, f"verify total variation(n={n}) != 1")
        _require(as_fraction(r["support_size"]) == n << n, f"verify support(n={n}) != n*2^n")
        _require((r["bound2"] == "PASS") == _bound2_holds(sup, n), f"verify bound2(n={n})")
        if n <= 4 or r.get("brute_sup") is not None:
            _require(as_fraction(r["brute_sup"]) == sup, f"verify brute_sup(n={n}) != sup")
        if n <= 12 or r.get("tensor_sup") is not None:
            _require(as_fraction(r["tensor_sup"]) == 2 * sup, f"verify tensor_sup(n={n}) != 2 sup")
    return len(rows)


def _check_sup(n: int):
    def check(doc) -> int:
        _require(doc["n"] == n, f"sup report for n={doc['n']}, expected {n}")
        sup = as_fraction(doc["sup"])
        _require(sup == rect_sup(n), f"sup(n={n}) differs from C(n-1,(n-1)//2)/2^n")
        _require(doc["bound2"] == "PASS" and _bound2_holds(sup, n), f"sup bound2(n={n})")
        return 1

    return check


def sweep_ops(seed: int, work: Path) -> list[dict]:
    """Fixed sizes: the seed does not change this workload's inputs."""
    ops = [_cli(["verify", "--n-max", str(SWEEP_N_MAX)], work / "verify.json", _check_verify)]
    ops.append(_cli(["sup", "--n", "4", "--brute"], work / "sup_4_brute.json", _check_sup(4)))
    for n in SWEEP_SUP_NS:
        ops.append(_cli(["sup", "--n", str(n)], work / f"sup_{n}.json", _check_sup(n)))
    return ops


def _cli(argv: list[str], out: Path, check) -> dict:
    return {"kind": "cli", "argv": argv + ["--out", str(out)], "out": str(out), "check": check}


# ---------------------------------------------------------------------------
# subseq: summable subsequence certificates on the five-combo standard family

SUBSEQ_LENGTHS = (8, 10)

# kslab.tensor_bounds.standard_test_family() in the documented family format.
STANDARD_FAMILY = [
    {"name": p, "terms": [{"type": "symmetric", "profile": p, "coeff": "1", "g_const": "1"}]}
    for p in ("sign_centered", "linear_centered", "abs_centered", "majority")
] + [
    {"name": "half_sign_half_majority", "terms": [
        {"type": "symmetric", "profile": "sign_centered", "coeff": "1/2", "g_const": "1"},
        {"type": "symmetric", "profile": "majority", "coeff": "1/2", "g_const": "1"},
    ]},
]


def _profile_value(profile: str, n: int) -> Fraction:
    """mu_n(F (x) 1) by Abel summation: (1/2^n) sum_k C(n-1,k) (F(k+1) - F(k)).

    The named profiles jump only at the middle or have constant steps, so
    each value is one binomial or a constant.
    """
    half = n // 2
    if profile in ("sign_centered", "majority"):
        if n % 2:  # one jump at k = (n-1)/2, of 2 (sign) or 1 (majority)
            jump = math.comb(n - 1, half) * (2 if profile == "sign_centered" else 1)
        elif profile == "sign_centered":  # jumps of 1 at n/2 - 1 and n/2
            jump = math.comb(n, half)
        else:  # majority: one jump of 1 at k = n/2
            jump = math.comb(n - 1, half)
        return Fraction(jump, 1 << n)
    if profile == "linear_centered":  # constant step 2/n
        return Fraction(1, n)
    if profile in ("abs_centered", "constant_one"):  # symmetric in k <-> n-k
        return Fraction(0)
    raise ValueError(f"no reference for profile {profile!r}")


def _combo_value(combo: dict, n: int) -> Fraction:
    return sum(
        (as_fraction(t["coeff"]) * as_fraction(t["g_const"]) * _profile_value(t["profile"], n)
         for t in combo["terms"]),
        Fraction(0),
    )


def greedy_indices(start: int, step: int, length: int) -> list[int]:
    """s_n = first stream element >= max(s_{n-1} + 1, n^4)."""
    picks: list[int] = []
    for pos in range(1, length + 1):
        threshold = max(picks[-1] + 1 if picks else 1, pos**4)
        k = max(0, -(-(threshold - start) // step))
        picks.append(start + k * step)
    return picks


def _check_subseq(indices: list[int]):
    def check(doc) -> int:
        _require(doc["verdict"] == "PASS", "subseq verdict is not PASS")
        _require(doc["certificate"]["indices"] == indices, "subseq indices differ from the greedy rule")
        partial_upper = as_fraction(doc["certificate"]["partial_sum_upper"])
        tail = as_fraction(doc["certificate"]["tail_bound"])
        _require(partial_upper >= 0 and tail >= 0, "subseq certificate has a negative bound")
        # sum of 1/sqrt(s_n) <= P_N, and the tail beyond N is at most sum_{n>N} 1/n^2
        _require(float(partial_upper) >= sum(s**-0.5 for s in indices) * (1 - 1e-12),
                 "subseq P_N below sum 1/sqrt(s_n)")
        n_len = len(indices)
        _require(float(tail) >= (math.pi**2 / 6 - sum(k**-2 for k in range(1, n_len + 1))) * (1 - 1e-9),
                 "subseq tail bound below the tail of sum 1/n^2")
        total = partial_upper + tail
        rows = doc["rows"]
        _require([r["combo"] for r in rows] == [c["name"] for c in STANDARD_FAMILY], "subseq combos")
        for combo, row in zip(STANDARD_FAMILY, rows):
            running = Fraction(0)
            for s, reported in zip(indices, row["partial_sums"], strict=True):
                running += abs(_combo_value(combo, s))
                _require(as_fraction(reported) == running,
                         f"subseq partial sum of {combo['name']} at index {s}")
            # running <= 8/sqrt(pi) * (P + tail) for a unit-norm combination
            _require(running * running * PI_HI <= 64 * total * total,
                     f"subseq bound for {combo['name']}")
        return n_len * len(rows)

    return check


def subseq_ops(seed: int, work: Path) -> list[dict]:
    rng = random.Random(f"subseq-{seed}")
    start, step = rng.randint(1, 15), rng.randint(1, 3)
    family = _write_json(work / "family.json", STANDARD_FAMILY)
    ops = []
    for length in SUBSEQ_LENGTHS:
        argv = ["subseq", "--n", str(length), "--family", family,
                "--stream-start", str(start), "--stream-step", str(step)]
        out = work / f"subseq_{length}.json"
        ops.append(_cli(argv, out, _check_subseq(greedy_indices(start, step, length))))
    return ops


# ---------------------------------------------------------------------------
# basis: density check, triangular basis and target expansions

DENSE_SETS = 2  # N=60, H=90, fill-in heavy: elimination dominates
DENSE_SHAPE = (60, 90, 5)  # basis length, horizon, targets
TRI_SETS = 8  # criterion-7 shape: expansion and stabilization dominate
TRI_SHAPE = (20, 30, 10)
JUNK = 5


def _nonzero(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 3))


def _junk(rng: random.Random, horizon: int) -> list[dict[int, Fraction]]:
    return [{c: _nonzero(rng) for c in rng.sample(range(1, horizon + 1), rng.randint(1, 4))}
            for _ in range(JUNK)]


def dense_generators(rng: random.Random, n: int, horizon: int, nnz: int = 10):
    """n generators with nnz nonzeros anywhere on the horizon, plus junk.

    On coordinates 1..n the generator matrix is strictly column diagonally
    dominant, hence nonsingular: the set is dense up to n by construction.
    """
    gens = []
    for k in range(1, n + 1):
        vec = {c: _nonzero(rng) for c in rng.sample([c for c in range(1, horizon + 1) if c != k], nnz - 1)}
        off = sum(abs(v) for c, v in vec.items() if c <= n)
        vec[k] = Fraction(rng.choice((-1, 1)) * (math.floor(off) + 1 + rng.randint(0, 3)))
        gens.append(vec)
    gens += _junk(rng, horizon)
    rng.shuffle(gens)
    return gens


def triangular_generators(rng: random.Random, n: int, horizon: int):
    """Generator k is nonzero at k and at up to three later coordinates."""
    gens = []
    for k in range(1, n + 1):
        vec = {k: _nonzero(rng)}
        for c in rng.sample(range(k + 1, horizon + 1), rng.randint(0, 3)):
            vec[c] = _nonzero(rng)
        gens.append(vec)
    gens += _junk(rng, horizon)
    rng.shuffle(gens)
    return gens


def _check_basis(gens, n: int, horizon: int, targets):
    def check(doc) -> int:
        _require(doc["density"]["status"] == "DENSE_UP_TO", "schauder density status")
        _require(doc["overall"] == "PASS", "schauder overall is not PASS")
        vectors = doc["basis"]["vectors"]
        _require(len(vectors) == n, f"schauder built {len(vectors)} vectors, expected {n}")
        coords = []
        for idx, vec in enumerate(vectors, start=1):
            # recompute b_n from the generators and the reported combination
            b = [Fraction(0)] * horizon
            for g, w in vec["combination"].items():
                for c, v in gens[int(g)].items():
                    b[c - 1] += as_fraction(w) * v
            _require([as_fraction(v) for v in vec["coords"]] == b, f"schauder b_{idx} != its combination")
            _require(all(b[k - 1] == int(k == idx) for k in range(1, idx + 1)),
                     f"schauder pi_k(b_{idx}) != delta for k <= {idx}")
            coords.append(b)
        _require(len(doc["expansions"]) == len(targets), "schauder expansion count")
        for y, exp in zip(targets, doc["expansions"]):
            _require(exp["grid_all_true"] is True, "schauder stabilization grid")
            _require([as_fraction(v) for v in exp["target"]] == y, "schauder target echo")
            a = [as_fraction(v) for v in exp["coefficients"]]
            _require(len(a) == n, "schauder coefficient count")
            for m in range(1, n + 1):  # pi_m(S_N') == y_m for every N' >= m
                partial = sum((a[j] * coords[j][m - 1] for j in range(m)), Fraction(0))
                for j in range(m, n):
                    _require(partial == y[m - 1], f"schauder pi_{m}(S_{j}) != y_{m}")
                    partial += a[j] * coords[j][m - 1]
                _require(partial == y[m - 1], f"schauder pi_{m}(S_{n}) != y_{m}")
        return n + len(targets)

    return check


def basis_ops(seed: int, work: Path) -> list[dict]:
    rng = random.Random(f"basis-{seed}")
    ops = []
    shapes = [("dense", DENSE_SHAPE, dense_generators)] * DENSE_SETS
    shapes += [("tri", TRI_SHAPE, triangular_generators)] * TRI_SETS
    for i, (kind, (n, horizon, n_targets), make) in enumerate(shapes):
        gens = make(rng, n, horizon)
        targets = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(horizon)]
                   for _ in range(n_targets)]
        gen_path = work / f"{kind}_{i}.jsonl"
        gen_path.write_text(
            "".join(json.dumps({"coords": {str(c): _fmt(v) for c, v in sorted(g.items())}}) + "\n"
                    for g in gens),
            encoding="utf-8",
        )
        tgt = _write_json(work / f"{kind}_{i}_targets.json", {"targets": [[_fmt(v) for v in y] for y in targets]})
        argv = ["schauder", "--generators", str(gen_path), "--n", str(n), "--horizon", str(horizon),
                "--target", tgt]
        ops.append(_cli(argv, work / f"{kind}_{i}_basis.json", _check_basis(gens, n, horizon, targets)))
    return ops


# ---------------------------------------------------------------------------
# diag: LP projection norms of finite sections

DIAG_SECTIONS = 6
DIAG_SHAPE = (7, 12)  # functionals x test functions, criterion-8 shape


def _rank(rows) -> int:
    mat = [list(r) for r in rows]
    rank = 0
    for c in range(len(mat[0])):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for r in range(rank + 1, len(mat)):
            f = mat[r][c] / mat[rank][c]
            mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def random_section(rng: random.Random, n: int, f: int):
    """Random rational n x f section with full row rank (no zero rows)."""
    while True:
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(f)] for _ in range(n)]
        if _rank(rows) == n:
            return rows


def _norms(doc, rows) -> list[float]:
    _require([[as_fraction(v) for v in r] for r in doc["values"]] == rows, "diag values echo")
    per_m = [float(v) for v in doc["per_m_projection_norms"]]
    _require(len(per_m) == len(rows) - 1, "diag per-m norm count")
    k = float(doc["basis_constant"])
    _require(abs(k - max(per_m)) <= LP_TOL * max(1.0, k), "diag K != max per-m norm")
    _require(k >= 1.0 - LP_TOL, "diag K < 1")
    return per_m


def _check_identity(rows):
    def check(doc) -> int:
        per_m = _norms(doc, rows)
        _require(all(abs(v - 1.0) <= LP_TOL for v in per_m), "diag identity section K != 1")
        return len(per_m)

    return check


def _check_rescaled(rows, base_out: str):
    """The base section's norms are read from its own report, which the
    base operation checked earlier in the same pass."""
    def check(doc) -> int:
        per_m = _norms(doc, rows)
        base = json.loads(Path(base_out).read_text(encoding="utf-8"))
        for a, b in zip((float(v) for v in base["per_m_projection_norms"]), per_m, strict=True):
            _require(abs(a - b) <= LP_TOL * max(1.0, abs(a)), "diag rescaling changed a norm")
        return len(per_m)

    return check


def diag_ops(seed: int, work: Path) -> list[dict]:
    rng = random.Random(f"diag-{seed}")
    n, f = DIAG_SHAPE
    ops = []

    def add(name: str, rows, check) -> str:
        src = _write_json(work / f"{name}_section.json", [[_fmt(v) for v in r] for r in rows])
        out = str(work / f"{name}_report.json")
        ops.append({"kind": "section", "section": src, "out": out, "check": check})
        return out

    identity = [[Fraction(int(i == j)) for j in range(f)] for i in range(n)]
    add("identity", identity, _check_identity(identity))
    for i in range(DIAG_SECTIONS):
        rows = random_section(rng, n, f)
        base_out = add(f"s{i}", rows, lambda doc, rows=rows: len(_norms(doc, rows)))
        scaled = [list(r) for r in rows]
        idx, scale = rng.randrange(n), Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled[idx] = [scale * v for v in scaled[idx]]
        add(f"s{i}_rescaled", scaled, _check_rescaled(scaled, base_out))
    return ops


WORKLOADS = {
    "sweep": sweep_ops,
    "subseq": subseq_ops,
    "basis": basis_ops,
    "diag": diag_ops,
}
