"""Command-line entry point: construction, verification, extraction, and
basis workflows, emitting machine-readable JSON reports (kslab.report).

Exit codes: 0 = all certified checks pass; 1 = a mathematical check failed
or was undecided; 2 = usage or parse error, or an unwritable output file.
main is the one place that turns a failure into an exit code: an input
file that cannot be read or parsed exits 2 through _load, and every
family term is defined at every index, so evaluation never fails.

COMMANDS is the one place where subcommands and options are defined;
parse_args reads argv against it as the argparse parser it replaced did
(unique prefixes, "--flag=value", the last repeated value wins, usage
errors exit 2), without importing argparse, gettext or locale.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import NoReturn

from . import normal_subseq, report, schauder, tensor_bounds
from .exactnum import Cmp
from .ks_measure import EXPLICIT_MAX_N, build
from .rect_sup import BRUTE_MAX_N, bound2_verdict, certify_pair, certify_run, sup_rect_bruteforce, sup_rect_fast


def _load(path: str, what: str, parse):
    """parse() of the text of the file at path; a file that cannot be read
    or parsed, or is nested past the recursion limit, prints one line and
    exits 2."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        print(f"cannot parse {what} file: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


# ---------------------------------------------------------------------------
# verify


def _verify_run(first: int, last: int) -> list[dict]:
    """The rows n = first..last of one pair {2j, 2j + 1}, which share
    c_n = C(2j, j) / 2^(2j+1): one binomial, one set of texts, and one
    certified comparison per side (certify_run)."""
    # the closed-form supremum c_n, certified; the rows write no witness
    sup = build(first).central_mass
    texts = report.sup_texts(sup)
    rows = []
    for n, (lower_ok, upper_ok) in enumerate(certify_run(sup, first, last), start=first):
        brute = sup_rect_bruteforce(build(n)).sup if n <= BRUTE_MAX_N else None
        # the tensor supremum is 2 c_n at every vertex (tensor_bounds; the
        # row writes it from sup), and the certified c_n < 2/sqrt(pi n)
        # gives 2 c_n < 8/sqrt(pi n), bound3
        rows.append(report.verify_row(
            n, texts, lower_ok, upper_ok, bound2_verdict(lower_ok, upper_ok),
            brute, None if brute is None else brute == sup,
            "PASS" if upper_ok is Cmp.CERT_LT else "UNDECIDED",
        ))
    return rows


def _row_failure(row: dict) -> str | None:
    if row["bound2"] != "PASS":
        return f"bound2(n={row['n']})={row['bound2']}"
    if row["brute_matches"] is False:
        return f"brute_vs_fast(n={row['n']})"
    if row["bound3"] != "PASS":
        return f"bound3(n={row['n']})={row['bound3']}"
    return None


def cmd_verify(args: SimpleNamespace) -> int:
    n_max = args.n_max
    rows = [row for j in range(n_max // 2 + 1) for row in _verify_run(max(2 * j, 1), min(2 * j + 1, n_max))]
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


def cmd_subseq(args: SimpleNamespace) -> int:
    family = _load(args.family, "family", lambda text: tensor_bounds.family_from_json(report.read_json(text)))
    cert = normal_subseq.extract(args.stream_start, args.stream_step, args.n)
    result = normal_subseq.strongly_normal_report(cert, family)
    report.write_json(args.out, report.subseq_report(result))
    print(f"subsequence {list(cert.indices)}: verdict {result.verdict} -> {args.out}")
    return 0 if result.verdict in ("PASS", "VACUOUS") else 1


# ---------------------------------------------------------------------------
# schauder


def _parse_targets(text: str) -> list[list]:
    (entries,) = report.fields(report.read_json(text), "target document", targets=(list, ...))
    return [report.rationals(entry, "target") for entry in entries]


def cmd_schauder(args: SimpleNamespace) -> int:
    gens = _load(args.generators, "generators", schauder.GeneratorSet.from_jsonl)
    targets = _load(args.target, "target", _parse_targets) if args.target else []
    density = schauder.density_check(gens, args.n)
    if density.status != schauder.DENSE_UP_TO:
        report.write_json(args.out, report.schauder_report(density, None, []))
        print(f"density check {density.status}: rank {density.rank} < {args.n}", file=sys.stderr)
        return 1

    basis = schauder.basis_from_density(density, args.horizon)
    expansions = [schauder.expand(vec + [0] * (args.horizon - len(vec)), basis) for vec in targets]
    report.write_json(args.out, report.schauder_report(density, basis, expansions))
    print(f"basis of length {args.n} on horizon {args.horizon} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# sup


def cmd_sup(args: SimpleNamespace) -> int:
    m = build(args.n)
    rect = sup_rect_bruteforce(m) if args.brute else sup_rect_fast(m)
    lower_ok, upper_ok = certify_pair(rect.sup, rect.n)
    verdict = bound2_verdict(lower_ok, upper_ok)
    doc = report.sup_report(rect, lower_ok, upper_ok, verdict)
    report.write_json(args.out, doc)
    print(f"sup(n={args.n}) = {doc['sup_decimal']} [{verdict}] -> {args.out}")
    return 0 if verdict == "PASS" else 1


# ---------------------------------------------------------------------------


REQUIRED = object()  # the default of an option that must be given

# The one place where options are defined: per subcommand its help and its
# options, flag: (type, default or REQUIRED, help); a bool option is a flag
# that takes no value, and cmd_<name> runs subcommand <name>.
COMMANDS = {
    "verify": ("full bound-verification sweep over n = 1..n_max", {
        "--n-max": (int, REQUIRED, "last index of the sweep"),
        "--out": (str, REQUIRED, "report file")}),
    "subseq": ("extract a summable subsequence and verify a family", {
        "--n": (int, REQUIRED, "certificate length"),
        "--family": (str, REQUIRED, "JSON file with tensor combinations"),
        "--out": (str, REQUIRED, "report file"),
        "--stream-start": (int, 1, "first element of the arithmetic stream"),
        "--stream-step": (int, 1, "step of the arithmetic stream")}),
    "schauder": ("density check and triangular basis construction", {
        "--generators": (str, REQUIRED, "JSONL file, one generator per line"),
        "--n": (int, REQUIRED, "basis length"),
        "--horizon": (int, REQUIRED, "coordinates kept per basis vector"),
        "--target": (str, None, "optional JSON file of expansion targets"),
        "--out": (str, REQUIRED, "report file")}),
    "sup": ("rectangle supremum report for a single index", {
        "--n": (int, REQUIRED, "index of the measure"),
        "--brute": (bool, False, f"enumerate every rectangle (n <= {BRUTE_MAX_N})"),
        "--out": (str, REQUIRED, "report file")}),
}
_DESCRIPTION = "Exact construction and certification of sign-cube measures."
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse's, "$" included


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _word(flag: str, kind: type) -> str:
    return flag if kind is bool else f"{flag} {_dest(flag).upper()}"


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: kslab [-h] {%s} ..." % ",".join(COMMANDS)
    words = (_word(f, t) if d is REQUIRED else f"[{_word(f, t)}]" for f, (t, d, _) in COMMANDS[command][1].items())
    return " ".join((f"usage: kslab {command} [-h]", *words))


def _error(command: str | None, message: str) -> NoReturn:
    print(_usage(command), f"kslab{' ' + command if command else ''}: error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(2)


def _help(command: str | None, flag: str, text: str | None) -> NoReturn:
    """Print the help and exit 0; text glued to -h or --help is an error,
    but -hh is -h -h, as in argparse."""
    left = text.lstrip("h") if flag == "-h" and text is not None else text
    if left is not None and (left or not text):
        _error(command, f"argument -h/--help: ignored explicit argument {left!r}")
    if command is None:
        head, rows = _DESCRIPTION, [(name, about) for name, (about, _) in COMMANDS.items()]
    else:
        head, options = COMMANDS[command]
        rows = [(_word(f, t), f"{h} (default {d})" if type(d) is int else h) for f, (t, d, h) in options.items()]
    rows.insert(0, ("-h, --help", "show this help and exit"))
    width = 2 + max(len(row[0]) for row in rows)
    print(_usage(command), "", head, "", *(f"  {a:<{width}}{b}" for a, b in rows), sep="\n")
    raise SystemExit(0)


def _classify(arg: str, command: str | None) -> tuple[str | None, str | None] | None:
    """None when arg is a value, else (flag or None when unknown, the text
    after "=" or None); a unique prefix names its flag."""
    flags = ("-h", "--help", *(COMMANDS[command][1] if command else ()))
    if arg[:1] != "-" or arg == "-":
        return None
    name, eq, text = arg.partition("=")
    if arg in flags or (eq and name in flags):
        return (name, text if eq else None)
    if arg[1] == "-":
        found = [(flag, text if eq else None) for flag in flags if flag.startswith(name)]
    else:  # a single dash: -h with text glued on, or no flag
        found = [("-h", arg[2:])] if arg.startswith("-h") else []
    if len(found) > 1:
        _error(command, f"ambiguous option: {arg} could match {', '.join(flag for flag, _ in found)}")
    if found:
        return found[0]
    return None if _NEGATIVE_NUMBER.match(arg) or " " in arg else (None, None)


def _read(argv: list[str], command: str | None) -> tuple[dict, list[str], int]:
    """(option values, unrecognized arguments, index where reading stopped);
    before the subcommand, its name stops the reading.  Every argument is
    classified before any is read, so an ambiguous prefix is reported
    first; "--" is no value, and all after it are values."""
    options = COMMANDS[command][1] if command else {}
    values = {_dest(flag): default for flag, (_, default, _) in options.items()}
    cut = argv.index("--") if "--" in argv else len(argv)
    kinds = [_classify(arg, command) for arg in argv[:cut]] + [(None, None)] + [None] * len(argv)
    extras, j = [], 0
    while j < len(argv) and (command or kinds[j] and j != cut):
        flag, text = kinds[j] or (None, None)
        kind = options.get(flag, (None,))[0]
        if flag is None:
            extras.append(argv[j])
        elif kind is None:
            _help(command, flag, text)
        elif kind is bool and text is not None:
            _error(command, f"argument {flag}: ignored explicit argument {text!r}")
        elif kind is bool:
            values[_dest(flag)] = True
        else:
            if text is None:
                if j + 1 == len(argv) or kinds[j + 1] is not None:
                    _error(command, f"argument {flag}: expected one argument")
                j += 1
                text = argv[j]
            try:
                values[_dest(flag)] = kind(text)
            except ValueError:
                _error(command, f"argument {flag}: invalid {kind.__name__} value: {text!r}")
        j += 1
    return values, extras, j


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The options of argv, read against COMMANDS as argparse read them:
    "--flag value" or "--flag=value", the last of a repeated option wins,
    a value starts with "-" only as a negative number, and -h/--help
    prints help and exits 0.  A usage error prints the usage line and one
    "error:" line to stderr and exits 2."""
    _, extras, i = _read(argv, None)
    if argv[i:] in ([], ["--"]):
        _error(None, "the following arguments are required: command")
    if (command := argv[i]) not in COMMANDS:
        _error(None, f"argument command: invalid choice: {command!r} (choose from {', '.join(map(repr, COMMANDS))})")
    values, more, _ = _read(argv[i + 1 :], command)
    if missing := [flag for flag in COMMANDS[command][1] if values[_dest(flag)] is REQUIRED]:
        _error(command, f"the following arguments are required: {', '.join(missing)}")
    if extras + more:
        _error(None, f"unrecognized arguments: {' '.join(extras + more)}")
    return SimpleNamespace(command=command, **values)


def _validate(args: SimpleNamespace) -> None:
    """The range checks, each a usage error of the subcommand."""
    if args.command == "verify" and args.n_max < 1:
        _error(args.command, "--n-max must be >= 1")
    if args.command != "verify" and args.n < 1:
        _error(args.command, "--n must be >= 1")
    if args.command == "subseq" and args.stream_step < 1:
        _error(args.command, "--stream-step must be >= 1")
    if args.command == "schauder" and args.horizon < args.n:
        _error(args.command, "--horizon must be >= --n")
    if args.command == "sup" and args.brute and args.n > BRUTE_MAX_N:
        _error(args.command, f"--brute is limited to n <= {BRUTE_MAX_N}")


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        _validate(args)
        # looked up by name at call time, so a wrapper bound over cmd_<name> runs
        return globals()[f"cmd_{args.command}"](args)
    except SystemExit as exc:  # usage errors, help, and input files _load cannot parse
        return int(exc.code or 0)
    except OSError as exc:  # _load reports every read error, so this is a write
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
