"""Command-line entry point: construction, verification, extraction, and
basis workflows, emitting machine-readable JSON reports (kslab.report).

Exit codes: 0 = all certified checks pass; 1 = a mathematical check failed
or was undecided; 2 = usage or parse error, or an unwritable output file.
main is the one place that turns a failure into an exit code: an input
file that cannot be read or parsed exits 2 through _load, and every
family term is defined at every index, so evaluation never fails.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import normal_subseq, report, schauder, tensor_bounds
from .exactnum import Cmp
from .ks_measure import EXPLICIT_MAX_N, build, support_size, total_variation
from .rect_sup import BRUTE_MAX_N, bound2_verdict, certify_pair, sup_rect_bruteforce, sup_rect_fast


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
    tv, supp = total_variation(m), support_size(m)
    # the closed-form supremum c_n, certified; the row writes no witness
    sup = m.central_mass
    lower_ok, upper_ok = certify_pair(sup, n)
    brute = sup_rect_bruteforce(m).sup if n <= BRUTE_MAX_N else None
    # the tensor supremum is 2 c_n at every vertex (tensor_bounds), and the
    # certified c_n < 2/sqrt(pi n) gives 2 c_n < 8/sqrt(pi n), bound3
    tsup = 2 * sup
    return report.verify_row(
        n, tv, tv == 1, supp, supp == n * (1 << n), sup, lower_ok, upper_ok, bound2_verdict(lower_ok, upper_ok),
        brute, None if brute is None else brute == sup,
        tsup, "PASS" if upper_ok is Cmp.CERT_LT else "UNDECIDED", tsup >= sup,
    )


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
    overall = "PASS" if failure is None else "FAIL"
    report.write_json(args.out, report.verify_report(n_max, BRUTE_MAX_N, EXPLICIT_MAX_N, rows, overall))
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
    result = normal_subseq.strongly_normal_report(cert, family)
    report.write_json(args.out, report.subseq_report(result))
    print(f"subsequence {list(cert.indices)}: verdict {result.verdict} -> {args.out}")
    return 0 if result.verdict in ("PASS", "VACUOUS") else 1


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
        vec = [report.parse_rational(str(v)) for v in entry]
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
    if density.status != schauder.DENSE_UP_TO:
        report.write_json(args.out, report.schauder_report(density, None, [], "FAIL"))
        print(f"density check {density.status}: rank {density.rank} < {args.n}", file=sys.stderr)
        return 1

    basis = schauder.basis_from_density(density, args.horizon)
    expansions = [schauder.expand(vec, basis) for vec in targets]
    all_grids_true = all(exp.grid_all_true for exp in expansions)
    overall = "PASS" if all_grids_true else "FAIL"
    report.write_json(args.out, report.schauder_report(density, basis, expansions, overall))
    if not all_grids_true:
        print("stabilization grid has false entries", file=sys.stderr)
        return 1
    print(f"basis of length {args.n} on horizon {args.horizon} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# sup


def cmd_sup(args: argparse.Namespace) -> int:
    m = build(args.n)
    rect = sup_rect_bruteforce(m) if args.brute else sup_rect_fast(m)
    lower_ok, upper_ok = certify_pair(rect.sup, rect.n)
    verdict = bound2_verdict(lower_ok, upper_ok)
    doc = report.sup_report(rect, lower_ok, upper_ok, verdict)
    report.write_json(args.out, doc)
    print(f"sup(n={args.n}) = {doc['sup_decimal']} [{verdict}] -> {args.out}")
    return 0 if verdict == "PASS" else 1


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The kslab parser, built on the first call and shared by every main
    call of the process; parse_args keeps no state between calls."""
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
