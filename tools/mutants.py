"""Mutation probe: does some test fail when a certified statement is loosened?

    python3 tools/mutants.py

Run from anywhere; the script finds the checkout it lives in.  It copies
``src`` and ``tests`` (and ``pyproject.toml``, for the pytest settings)
to a temporary directory, checks that ``kslab`` imports from that copy,
and checks that the unmutated copy passes Tier-1.  Then, for each mutant
of MUTANTS in turn, it replaces one snippet of one module of the copy,
runs that module's test file, and runs Tier-1 only when the file does not
kill the mutant.  A mutant is killed when pytest fails or times out.  Each
line of output names the outcome, the seconds taken and the mutant.  The
working tree is never written.

A mutant listed with a reason is a known equivalent: it cannot change any
result, and the reason says why.  The exit code is 1 when a mutant not
listed as equivalent survives, 2 when the probe cannot run (the copy does
not import, or fails unmutated), and 0 otherwise.
Stdlib only; bytecode writing is off, so a mutated file is always
recompiled.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900
TIER1 = ["--continue-on-collection-errors"]


class Mutant(NamedTuple):
    module: str  # src/kslab/<module>.py, tested by tests/test_<module>.py
    old: str  # occurs exactly once in the module
    new: str
    what: str
    equivalent: str | None = None  # why no result can change


MUTANTS = [
    # the certified comparison kernel
    Mutant("exactnum", "ku, cu = k * PI.upper.numerator, c * PI.upper.denominator",
           "ku, cu = k * PI.lower.numerator, c * PI.lower.denominator",
           "cmp_sq_below decides CERT_LT on PI.lower"),
    Mutant("exactnum", "kl, cl = k * PI.lower.numerator, c * PI.lower.denominator",
           "kl, cl = k * PI.upper.numerator, c * PI.upper.denominator",
           "cmp_sq_below decides CERT_GT on PI.upper"),
    Mutant("exactnum", "q * q << 2 * e", "q * q << e",
           "cmp_sq_below squares a Dyadic's power of two once"),
    # its leading-bit filter
    Mutant("exactnum", "lo, s = p >> t, 2 * e - 2 * t", "lo, s = p >> t, 2 * e - t",
           "the filter moves the numerator's power of two 2^t, not 4^t"),
    Mutant("exactnum", "(lo + 1) * (lo + 1)", "lo * lo",
           "the filter's bracket closes at lo^2, not (lo + 1)^2"),
    # the central binomial's factorization
    Mutant("exactnum", "        q += 2\n", "        q += 1\n",
           "_factorized takes the primes of even quotients e // p too"),
    Mutant("exactnum", "c * (4 * j - 2) // j", "c * (4 * j + 2) // j",
           "central_binomial's Pascal step multiplies by 4j + 2, not 4j - 2"),
    Mutant("exactnum", "Fraction(x0 * x0 + s, 2 * x0 * s)", "Fraction(x0 * x0 + s, 2 * x0 * s + 1)",
           "recip_sqrt_upper drops below 1/sqrt(s)"),
    # c_n's lowest terms
    Mutant("ks_measure", "2 * j + 1 - v", "2 * j - v",
           "central_mass divides C(2j, j) >> s(j) by 2^(2j - s(j)), not 2^(2j + 1 - s(j))"),
    # the report layer's text
    Mutant("report", "hex(v) if abs(v) >= HEX_FROM else str(v)", "hex(v) if abs(v) > HEX_FROM else str(v)",
           "an integer part of exactly HEX_FROM is written in decimal"),
    Mutant("report", "    if whole >= HEX_FROM:\n", "    if whole > HEX_FROM:\n",
           "decimal_str writes a whole part of exactly HEX_FROM"),
    Mutant("report", "scaled = abs(q.numerator) * 10**DIGITS // q.denominator",
           "scaled = (2 * abs(q.numerator) * 10**DIGITS + q.denominator) // (2 * q.denominator)",
           "decimal_str rounds a Fraction's last digit instead of truncating"),
    Mutant("report", "scaled = abs(q.num) * 10**DIGITS // q.odd >> q.exp",
           "scaled = (abs(q.num) * 10**DIGITS // q.odd + (1 << q.exp >> 1)) >> q.exp",
           "decimal_str rounds a Dyadic's last digit instead of truncating"),
    Mutant("report", "(\"\" if g == den else", "(\"\" if den == 1 else",
           "format_ratios writes p/1 when the denominator divides the numerator"),
    Mutant("report", "prod = prod * x % den", "prod = x % den",
           "format_ratios reads the shared factor off the last entry only"),
    Mutant("report", "_part(den, text) if den else 1", "1", "parse_rational drops the denominator of p/q text"),
    Mutant("report", "    if len(digits) > STR_DIGITS:\n", "    if len(digits) >= STR_DIGITS:\n",
           "a decimal part of exactly 4300 digits is refused"),
    # the input reader
    Mutant("report", "parse_float=Number", "parse_float=lambda s: Number(str(float(s)))",
           "read_json reads a JSON fraction or exponent through a float"),
    Mutant("report", "    if len(doc) < len(pairs):\n", "    if False:\n",
           "read_json keeps the last value of a repeated key"),
    Mutant("report", "    if unknown := [key for key in doc if key not in spec]:\n", "    if unknown := []:\n",
           "fields admits any key"),
    Mutant("report", "f\"{num_text}/{_int_text(1 << e - 1)}\"", "f\"{num_text}/{_int_text(1 << e)}\"",
           "the verify row's tensor_sup keeps c_n's denominator"),
    Mutant("report", "_decimal(scaled >> e - 1)", "_decimal(scaled >> e)",
           "the verify row's tensor_sup_decimal keeps c_n's shift"),
    Mutant("report", "num_text if e == 1 else", "num_text if e <= 2 else",
           "the verify row's tensor_sup drops a denominator of 2"),
    # the indent=2 writer
    Mutant("report", '_INDENT = "  "', '_INDENT = " "', "write_json indents one space per level"),
    Mutant("report", "set(map(type, items)) <= _SCALARS", "set(map(type, items)) <= _SCALARS | {dict}",
           "write_json sends a list of dicts to the flat C encoder"),
    # bound2 and bound3
    Mutant("rect_sup", "partial(cmp_sq_below, sup, 1, 2)", "partial(cmp_sq_below, sup, 1, 3)",
           "bound2's lower constant 1/2 -> 1/3"),
    Mutant("rect_sup", "partial(cmp_sq_below, sup, 2, 1)", "partial(cmp_sq_below, sup, 3, 1)",
           "bound2's upper constant 2 -> 3"),
    Mutant("rect_sup", "low if low is Cmp.CERT_GT or n == first else lower(n)", "low",
           "certify_run carries the lower verdict at first to larger n whatever it is"),
    Mutant("rect_sup", "up if up is Cmp.CERT_LT or n == last else upper(n)", "up",
           "certify_run carries the upper verdict at last to smaller n whatever it is"),
    Mutant("rect_sup", "b = (self.n - 1) | 1", "b = self.n | 1",
           "witness width n + 1 for even n, not the smallest maximizing n - 1"),
    Mutant("rect_sup", "return b, (b - 1) // 2", "return b, (b + 1) // 2",
           "the witness admits rows with (b + 1)/2 minus signs on B"),
    Mutant("cli", '"PASS" if upper_ok is Cmp.CERT_LT else', '"PASS" if upper_ok is not Cmp.CERT_GT else',
           "bound3 passes on an undecided upper bound"),
    # the verdicts that fail a run
    Mutant("cli", '    if row["bound2"] != "PASS":\n        return f"bound2(n={row[\'n\']})={row[\'bound2\']}"\n', "",
           "a verify row that fails bound2 alone passes the sweep"),
    Mutant("cli", '    if row["brute_matches"] is False:\n        return f"brute_vs_fast(n={row[\'n\']})"\n', "",
           "a brute-force supremum off the closed form passes the sweep"),
    Mutant("cli", 'return 0 if verdict == "PASS" else 1', "return 0", "sup exits 0 on a bound2 verdict short of PASS"),
    # the option table's parser
    Mutant("cli", "    if missing := [", "    if False and [", "the required-option check is skipped"),
    Mutant("cli", "    if len(found) > 1:\n", "    if False:\n", "an ambiguous prefix resolves to its first match"),
    Mutant("cli", "if j + 1 == len(argv) or kinds[j + 1] is not None:", "if j + 1 == len(argv):",
           "an option reads the next argument as its value even when it starts with -"),
    # the subsequence certificate
    Mutant("normal_subseq", "cmp_sq_below(last, *bound, 1)", "cmp_sq_below(last, *bound, Fraction(1, 2))",
           "_combo_row's verdict loosened by a factor 2 in the squares"),
    Mutant("normal_subseq", "(8 * nb * cert.total_bound)", "(9 * nb * cert.total_bound)",
           "_combo_row's factor 8 -> 9"),
    Mutant("normal_subseq", "certified = not last or cmp_sq_below", "certified = cmp_sq_below",
           "_combo_row's zero guard dropped"),
    Mutant("normal_subseq", "tail_bound=Fraction(1, length)", "tail_bound=Fraction(1, length + 1)",
           "tail_bound 1/N -> 1/(N+1)"),
    Mutant("normal_subseq", "threshold = max(pick + 1, pos**4)", "threshold = max(pick + 1, pos**3)",
           "extract's threshold n^4 -> n^3"),
    Mutant("normal_subseq", "return self.partial_sum_upper + self.tail_bound", "return self.partial_sum_upper",
           "total_bound drops tail_bound"),
    Mutant("normal_subseq", "partial_sum_upper=sum(recips, Fraction(0))",
           "partial_sum_upper=sum(recips[1:], Fraction(0))",
           "extract's partial_sum_upper drops the first position"),
    # the triangular basis
    Mutant("schauder", "if vec.entries[:1] != ((n, vec.den),):", "if vec.entries[:1] == ((n, vec.den),):",
           "TriangularBasis's triangularity check negated"),
    Mutant("schauder", "            nonzero[n] = a_n\n            last = n\n", "            nonzero[n] = a_n\n",
           "expand's last = n dropped"),
    Mutant("schauder", "                last = k\n", "",
           "expand's last = k dropped"),
    Mutant("schauder", "for k, v in g.items() if k <= horizon]", "for k, v in g.items()]",
           "basis_from_density's horizon filter dropped"),
    Mutant("schauder", "raise DensityError(coordinate=density.failing[-1])",
           "raise DensityError(coordinate=density.failing[-1] + 1)",
           "DensityError's coordinate off by one"),
    # the echelon store
    Mutant("schauder", "a, b = row[pivot] // g, coef // g", "b, a = row[pivot] // g, coef // g",
           "EchelonStore.add's cross-multiplication swaps a and b"),
    Mutant("schauder", "self.rows.append((min(v, key=self.key), v, combo))",
           "self.rows.append((max(v, key=self.key), v, combo))",
           "EchelonStore.add reads the pivot as the last nonzero coordinate in its order"),
    Mutant("schauder", "for n, row, combo in reversed(self.rows):", "for n, row, combo in self.rows:",
           "unit_combinations back-substitutes in insertion order"),
    Mutant("schauder", "for key in (order.__getitem__, None):", "for key in (order.__getitem__,):",
           "density_check reads the NOT_DENSE gap off the fill-ordered scan"),
    # the section simplex
    Mutant("basic_seq_diag", "if b * floor.denominator > floor.numerator * det:",
           "if b * floor.denominator >= floor.numerator * det:",
           "_raise_floors raises a floor to an equal value",
           equivalent="on equality the floor is replaced by an equal Fraction, so every value stays the same"),
    Mutant("basic_seq_diag",
           '        if best is None:\n            raise DegenerateSectionError("section rows are linearly dependent")\n',
           "", "the first vertex's dependent-rows raise dropped"),
    Mutant("basic_seq_diag", "bland, last = False, None", "bland, last = True, None",
           "maximize starts in Bland mode"),
]


def run_pytest(copy: Path, env: dict, args: list[str]) -> tuple[bool, float]:
    """(passed, seconds) of one pytest run in the copy; a timeout fails."""
    start = time.monotonic()
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args]
    try:
        proc = subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
        passed = proc.returncode == 0
    except subprocess.TimeoutExpired:
        passed = False
    return passed, time.monotonic() - start


def probe(m: Mutant, copy: Path, env: dict) -> tuple[bool, float]:
    """(survived, seconds) of one mutant; the module is restored after."""
    path = copy / "src" / "kslab" / f"{m.module}.py"
    text = path.read_text(encoding="utf-8")
    if text.count(m.old) != 1:
        raise SystemExit(f"mutant {m.what!r}: its snippet occurs {text.count(m.old)} times in {m.module}.py")
    path.write_text(text.replace(m.old, m.new), encoding="utf-8")
    try:
        survived, seconds = run_pytest(copy, env, [f"tests/test_{m.module}.py"])
        if survived:
            survived, more = run_pytest(copy, env, TIER1)
            seconds += more
    finally:
        path.write_text(text, encoding="utf-8")
    return survived, seconds


def main() -> int:
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="kslab-mutants-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        found = subprocess.run([sys.executable, "-c", "import kslab; print(kslab.__file__)"],
                               cwd=copy, env=env, capture_output=True, text=True).stdout.strip()
        if not found or Path(found).resolve() != (copy / "src" / "kslab" / "__init__.py").resolve():
            print(f"kslab imports from {found or 'nowhere'}, not from the copy in {copy}", file=sys.stderr)
            return 2
        passed, seconds = run_pytest(copy, env, TIER1)
        if not passed:
            print(f"the unmutated copy fails Tier-1 ({seconds:.1f} s); no mutant can be judged", file=sys.stderr)
            return 2
        print(f"unmutated Tier-1 passes ({seconds:.1f} s); {len(MUTANTS)} mutants")
        unexplained = 0
        for m in MUTANTS:
            survived, seconds = probe(m, copy, env)
            unexplained += survived and not m.equivalent
            outcome = "survived" if survived else "killed"
            note = f"  [equivalent: {m.equivalent}]" if m.equivalent else ""
            print(f"{outcome:8} {seconds:6.1f} s  {m.module}: {m.what}{note}", flush=True)
    print(f"{unexplained} survivor(s) not listed as equivalent, in {time.monotonic() - start:.0f} s")
    return 1 if unexplained else 0


if __name__ == "__main__":
    raise SystemExit(main())
