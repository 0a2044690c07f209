"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line printed per criterion (run with -s to see them inline).

Exact claims are asserted with rational equality or certified squared
comparisons; nothing here trusts a fast path without its oracle.
"""

import functools
import json
import random
import time
from fractions import Fraction

from kslab.basic_seq_diag import (
    DegenerateSectionError,
    FiniteSection,
    basis_constant,
)
from kslab.cli import _verify_run
from kslab.cli import main as cli_main
from kslab.exactnum import PI
from kslab.ks_measure import build
from kslab.normal_subseq import extract, strongly_normal_report
from kslab.rect_sup import certify_pair, sup_rect_bruteforce, sup_rect_fast
from kslab.report import parse_rational, subseq_report
from kslab.schauder import (
    DENSE_UP_TO,
    GeneratorSet,
    density_check,
    expand,
)
from oracles import (
    CANONICAL,
    RowPermutation,
    apply_functional,
    atom_mass_and_support,
    build_triangular_basis,
    certify_bound2,
    certify_bound3,
    coefficient_functional,
    coord,
    decay_profile,
    densify,
    measure,
    random_section,
    random_tensor_probe,
    reference_grid,
    standard_test_family,
    tensor_sup_exact,
)

LP_TOL = 1e-7  # float tolerance of criterion 8, kept beside its exact assertions


def criterion(num, desc, budget_s=None):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num}: FAIL - {desc}")
                raise
            elapsed = time.perf_counter() - start
            print(f"ACCEPTANCE {num}: PASS - {desc} [{elapsed:.2f}s]")
            if budget_s is not None:
                assert elapsed < budget_s, f"criterion {num}: {elapsed:.2f}s >= {budget_s}s"
        return wrapper
    return decorate


@criterion(1, "unit total variation and full support, explicit and implicit", budget_s=5.0)
def test_criterion_1_mass_and_support():
    # a verify row writes both facts as the constants they are; at explicit
    # scale the atoms agree with them
    for n in (*range(1, 17), 32, 256, 4096):
        row = _verify_run(n, n)[0]
        assert row["tv_ok"] is row["support_ok"] is True
        assert parse_rational(row["total_variation"]) == 1
        assert parse_rational(row["support_size"]) == n * (1 << n)
        if n <= 16:
            assert atom_mass_and_support(build(n)) == (1, n * (1 << n))


@criterion(2, "two-sided rectangle bound certified for every n = 1..512", budget_s=60.0)
def test_criterion_2_rectangle_bound_sweep():
    for n in range(1, 513):
        report = sup_rect_fast(build(n))
        verdict = certify_bound2(report)
        assert verdict == "PASS", f"n={n}: {verdict}"
        lower_ok, upper_ok = certify_pair(report.sup, n)
        assert lower_ok.value == "CERT_GT"
        assert upper_ok.value == "CERT_LT"


@criterion(3, "fast path equals brute-force oracle, canonical and 10 seeds", budget_s=120.0)
def test_criterion_3_oracle_equivalence():
    documented = {1: Fraction(1, 2), 2: Fraction(1, 4), 3: Fraction(1, 4), 4: Fraction(3, 16)}
    bijections = [CANONICAL] + [RowPermutation(seed) for seed in range(1, 11)]
    for n in (1, 2, 3, 4):
        for bijection in bijections:
            m = measure(n, bijection)
            brute = sup_rect_bruteforce(m)
            fast = sup_rect_fast(m)
            assert fast.sup == brute.sup
            # the documented values are re-derived by the oracle, not trusted
            assert brute.sup == documented[n]


@criterion(4, "tensor bound certified for n = 1..12 with vertices and probes", budget_s=600.0)
def test_criterion_4_tensor_bound(tmp_path):
    # verify reports the closed form 2 c_n; every vertex, canonical and
    # permuted, attains it, and the float probe stays below it
    out = tmp_path / "verify.json"
    assert cli_main(["verify", "--n-max", "12", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["checks"]
    for n, row in enumerate(rows, start=1):
        m = build(n)
        tsup = tensor_sup_exact(m)
        rect = sup_rect_fast(m).sup
        assert parse_rational(row["tensor_sup"]) == tsup == 2 * rect
        assert row["bound3"] == certify_bound3(n, tsup, rect_sup=rect) == "PASS"
        if n <= 10:
            for seed in (1, 2, 3):
                assert tensor_sup_exact(measure(n, RowPermutation(seed))) == tsup
        tsup_f = float(tsup)
        for seed in (1, 2, 3):
            assert random_tensor_probe(m, 10**4, seed) <= tsup_f


@criterion(5, "exact decay below 4.5136/sqrt(n) for five unit-norm combos")
def test_criterion_5_decay():
    family = standard_test_family()
    assert len(family) == 5
    coeff = Fraction(45136, 10000)
    n_list = (1, 4, 16, 64, 256, 1024)
    for h in family:
        assert h.norm_bound == 1
        rows = decay_profile(h, n_list)
        for row in rows:
            assert row.dominated  # certified against the pi enclosure
            assert row.value * row.value * row.n <= coeff * coeff  # <= 4.5136/sqrt(n)
        at_1024 = rows[-1]
        assert at_1024.n == 1024
        assert at_1024.value < Fraction(15, 100)


@criterion(6, "summability certificate with dominated prefix sums")
def test_criterion_6_certificate():
    cert = extract(1, 1, 8)
    assert cert.indices == (1, 16, 81, 256, 625, 1296, 2401, 4096)
    # P_8 + tail <= pi^2/6 + 1/8, certified against the enclosure lower end
    assert cert.partial_sum_upper + cert.tail_bound <= PI.lower**2 / 6 + Fraction(1, 8)
    report = subseq_report(strongly_normal_report(cert, standard_test_family()))
    for row in report["rows"]:
        assert row["verdict"] == "PASS"  # every prefix within (8/sqrt(pi)) * (P_8 + tail)
        sums = [parse_rational(p) for p in row["partial_sums"]]
        assert len(sums) == 8 and all(a <= b for a, b in zip(sums, sums[1:]))


def _random_dense_generators(rng, m, horizon, junk=5):
    gens = []
    for k in range(1, m + 1):
        vec = {k: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))}
        for extra in rng.sample(range(k + 1, horizon + 1), k=rng.randint(0, 3)):
            vec[extra] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        gens.append(vec)
    for _ in range(junk):
        vec = {
            coord: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for coord in rng.sample(range(1, horizon + 1), k=rng.randint(1, 4))
        }
        gens.append({k: v for k, v in vec.items() if v})
    rng.shuffle(gens)
    return GeneratorSet(gens)


@criterion(7, "50 random dense generator sets: exact basis, grids, functionals", budget_s=60.0)
def test_criterion_7_basis_suite():
    rng = random.Random(20250811)
    for _ in range(50):
        gens = _random_dense_generators(rng, m=20, horizon=30)
        assert density_check(gens, 20).status == DENSE_UP_TO
        basis = build_triangular_basis(gens, 20, 30)
        for n in range(1, 21):
            for k in range(1, n + 1):
                assert coord(basis, n, k) == (1 if k == n else 0)
        functionals = [coefficient_functional(basis, n) for n in range(1, 21)]
        for n, weights in enumerate(functionals, start=1):
            for m_idx in range(1, 21):
                value = apply_functional(weights, densify(basis)[m_idx - 1].coords[: len(weights)])
                assert value == (1 if m_idx == n else 0)
        for _ in range(10):
            y = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(30)]
            exp = expand(y, basis)
            assert all(reference_grid(exp.coefficients, basis, y).values())


@criterion(8, "diagnostics: identity K=1, rescaling invariance, monotone growth")
def test_criterion_8_diagnostics():
    for size in (2, 5, 8):
        rows = tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(size)) for i in range(size)
        )
        k, per_m = basis_constant(FiniteSection(rows=rows))
        assert abs(k - 1.0) <= LP_TOL
        assert all(abs(v - 1.0) <= LP_TOL for v in per_m)
        assert k == 1 and per_m == [1] * (size - 1)

    rng = random.Random(881)
    for trial in range(100):
        n = rng.randint(2, 7) if trial < 95 else 7
        f = rng.randint(n, 12) if trial < 95 else 12
        section = random_section(rng, n, f)
        k_base, per_m = basis_constant(section)
        assert k_base >= 1.0 - LP_TOL

        # positive row rescaling leaves every projection norm unchanged
        rows = [list(r) for r in section.rows]
        idx = rng.randrange(n)
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        rows[idx] = [scale * v for v in rows[idx]]
        _, per_m_scaled = basis_constant(FiniteSection(rows=tuple(tuple(r) for r in rows)))
        for a, b in zip(per_m, per_m_scaled):
            assert abs(a - b) <= LP_TOL * max(1.0, abs(a))
        assert per_m_scaled == per_m

        # appending a functional never decreases the constant
        extra = random_section(rng, 1, f).rows[0]
        extended = FiniteSection(rows=section.rows + (extra,))
        try:
            k_ext, _ = basis_constant(extended)
        except DegenerateSectionError:
            continue
        assert k_ext >= k_base - LP_TOL * max(1.0, k_base)


@criterion(9, "byte-identical verification reports across runs")
def test_criterion_9_determinism(tmp_path):
    outputs = []
    for run_idx in range(4):
        out = tmp_path / f"verify_{run_idx}.json"
        assert cli_main(["verify", "--n-max", "12", "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert all(blob == outputs[0] for blob in outputs[1:])
    doc = json.loads(outputs[0])
    assert doc["overall"] == "PASS"
