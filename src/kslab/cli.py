"""Command-line entry point: construction, verification, extraction, and
basis workflows, emitting machine-readable JSON reports.

Reports are byte-stable across runs: payloads are exact rational strings
plus fixed-width decimals, witness bitsets are 0x-hex integers, dict key
order is fixed, and no wall-clock time is recorded.

Exit codes: 0 = all certified checks pass; 1 = a mathematical check failed
or was undecided; 2 = usage or parse error, or an unwritable output file.
main is the one place that turns a failure into an exit code: an input
file that cannot be read or parsed exits 2 through _load, and every
family term is defined at every index, so evaluation never fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import normal_subseq, rect_sup, schauder, tensor_bounds
from .exactnum import Cmp, decimal_str, format_rational, parse_rational
from .ks_measure import EXPLICIT_MAX_N, build, support_size, total_variation
from .rect_sup import BRUTE_MAX_N, bound2_verdict, certify_pair, sup_rect_bruteforce, sup_rect_fast


def _write_json(path: str, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _load(path: str, what: str, parse):
    """parse() of the text of the file at path; a file that cannot be read
    or parsed prints one line and exits 2."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"cannot parse {what} file: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


# ---------------------------------------------------------------------------
# verify


def _verify_one(n: int) -> dict:
    m = build(n)
    tv = total_variation(m)
    supp = support_size(m)
    # the closed-form supremum c_n, certified; the row writes no witness
    sup = m.central_mass
    lower_ok, upper_ok = certify_pair(sup, n)
    # the tensor supremum is 2 c_n at every vertex (tensor_bounds), and the
    # certified c_n < 2/sqrt(pi n) gives 2 c_n < 8/sqrt(pi n), bound3
    tsup = 2 * sup
    # c_n = odd / 2^e with e >= 1, so 2 c_n keeps the odd numerator: its
    # digits, the costly part of either text, are written once
    sup_text = format_rational(sup)
    num_text = sup_text.partition("/")[0]
    tsup_text = num_text if tsup.denominator == 1 else f"{num_text}/{format_rational(tsup.denominator)}"
    row = {
        "n": n,
        "total_variation": format_rational(tv),
        "tv_ok": tv == 1,
        "support_size": format_rational(supp),
        "support_ok": supp == n * (1 << n),
        "sup": sup_text,
        "sup_decimal": decimal_str(sup),
        "lower_ok": lower_ok.value,
        "upper_ok": upper_ok.value,
        "bound2": bound2_verdict(lower_ok, upper_ok),
        "brute_sup": None,
        "brute_matches": None,
        "tensor_sup": tsup_text,
        "tensor_sup_decimal": decimal_str(tsup),
        "bound3": "PASS" if upper_ok is Cmp.CERT_LT else "UNDECIDED",
        "tensor_ge_rect": tsup >= sup,
    }
    if n <= BRUTE_MAX_N:
        brute = sup_rect_bruteforce(m)
        row["brute_sup"] = format_rational(brute.sup)
        row["brute_matches"] = brute.sup == sup
    return row


def _row_failure(row: dict) -> str | None:
    if not row["tv_ok"]:
        return f"total_variation(n={row['n']})"
    if not row["support_ok"]:
        return f"support_size(n={row['n']})"
    if row["bound2"] != "PASS":
        return f"bound2(n={row['n']})={row['bound2']}"
    if row["brute_matches"] is False:
        return f"brute_vs_fast(n={row['n']})"
    if row["bound3"] != "PASS":
        return f"bound3(n={row['n']})={row['bound3']}"
    if not row["tensor_ge_rect"]:
        return f"tensor_ge_rect(n={row['n']})"
    return None


def cmd_verify(args: argparse.Namespace) -> int:
    n_max = args.n_max
    rows = [_verify_one(n) for n in range(1, n_max + 1)]
    failure = next((f for f in map(_row_failure, rows) if f), None)
    doc = {
        "config": {
            "n_max": n_max,
            "brute_max": BRUTE_MAX_N,
            "explicit_max": EXPLICIT_MAX_N,
        },
        "checks": rows,
        "overall": "PASS" if failure is None else "FAIL",
    }
    _write_json(args.out, doc)
    if failure is not None:
        print(f"FAILED check: {failure}", file=sys.stderr)
        return 1
    print(f"verified n=1..{n_max}: overall PASS -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# subseq


def cmd_subseq(args: argparse.Namespace) -> int:
    family = _load(args.family, "family", lambda text: tensor_bounds.family_from_json(json.loads(text)))
    cert = normal_subseq.extract(args.stream_start, args.stream_step, args.n)
    report = normal_subseq.strongly_normal_report(cert, family)
    _write_json(args.out, report)
    verdict = report["verdict"]
    print(f"subsequence {list(cert.indices)}: verdict {verdict} -> {args.out}")
    return 0 if verdict in ("PASS", "VACUOUS") else 1


# ---------------------------------------------------------------------------
# schauder


def _parse_targets(text: str, horizon: int) -> list[list]:
    doc = json.loads(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("targets"), list):
        raise ValueError("target document must be an object with a 'targets' list")
    targets = []
    for entry in doc["targets"]:
        if not isinstance(entry, list):
            raise ValueError(f"target must be a list, got {entry!r}")
        vec = [parse_rational(str(v)) for v in entry]
        targets.append(vec + [0] * max(0, horizon - len(vec)))
    return targets


def cmd_schauder(args: argparse.Namespace) -> int:
    gens = _load(args.generators, "generators", schauder.GeneratorSet.from_jsonl)
    targets = (
        _load(args.target, "target", lambda text: _parse_targets(text, args.horizon))
        if args.target
        else []
    )
    density = schauder.density_check(gens, args.n)
    doc = {
        "density": {
            "status": density.status,
            "m": density.m,
            "rank": density.rank,
            "failing": list(density.failing),
            "pivot_generators": list(density.pivot_generators),
        },
        "basis": None,
        "expansions": [],
        "overall": "FAIL",
    }
    if density.status != schauder.DENSE_UP_TO:
        _write_json(args.out, doc)
        print(
            f"density check {density.status}: rank {density.rank} < {args.n}",
            file=sys.stderr,
        )
        return 1

    basis = schauder.basis_from_density(density, args.horizon)
    doc["basis"] = schauder.basis_to_json(basis)
    expansions = [schauder.expand(vec, basis) for vec in targets]
    doc["expansions"] = [schauder.expansion_to_json(exp) for exp in expansions]
    all_grids_true = all(exp.grid_all_true for exp in expansions)
    doc["overall"] = "PASS" if all_grids_true else "FAIL"
    _write_json(args.out, doc)
    if not all_grids_true:
        print("stabilization grid has false entries", file=sys.stderr)
        return 1
    print(f"basis of length {args.n} on horizon {args.horizon} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# sup


def cmd_sup(args: argparse.Namespace) -> int:
    m = build(args.n)
    doc = rect_sup.report_to_json(sup_rect_bruteforce(m) if args.brute else sup_rect_fast(m))
    verdict = doc["bound2"]
    _write_json(args.out, doc)
    print(f"sup(n={args.n}) = {doc['sup_decimal']} [{verdict}] -> {args.out}")
    return 0 if verdict == "PASS" else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kslab",
        description="Exact construction and certification of sign-cube measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="full bound-verification sweep over n = 1..n_max")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("subseq", help="extract a summable subsequence and verify a family")
    p.add_argument("--n", type=int, required=True, help="certificate length")
    p.add_argument("--family", required=True, help="JSON file with tensor combinations")
    p.add_argument("--out", required=True)
    p.add_argument("--stream-start", type=int, default=1)
    p.add_argument("--stream-step", type=int, default=1)
    p.set_defaults(func=cmd_subseq)

    p = sub.add_parser("schauder", help="density check and triangular basis construction")
    p.add_argument("--generators", required=True, help="JSONL file, one generator per line")
    p.add_argument("--n", type=int, required=True, help="basis length")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--target", default=None, help="optional JSON file of expansion targets")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_schauder)

    p = sub.add_parser("sup", help="rectangle supremum report for a single index")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--brute", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sup)

    return parser


def _validate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    if args.command == "verify" and args.n_max < 1:
        parser.error("--n-max must be >= 1")
    if args.command != "verify" and args.n < 1:
        parser.error("--n must be >= 1")
    if args.command == "subseq" and args.stream_step < 1:
        parser.error("--stream-step must be >= 1")
    if args.command == "schauder" and args.horizon < args.n:
        parser.error("--horizon must be >= --n")
    if args.command == "sup" and args.brute and args.n > BRUTE_MAX_N:
        parser.error(f"--brute is limited to n <= {BRUTE_MAX_N}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _validate(args, parser)
        return args.func(args)
    except SystemExit as exc:  # usage errors, and input files _load cannot parse
        return int(exc.code or 0)
    except OSError as exc:  # _load reports every read error, so this is a write
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
