"""CLI workflows: exit codes, report contents, and byte stability."""

import ast
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kslab import cli, exactnum, ks_measure, rect_sup
from kslab.basic_seq_diag import section_report
from kslab.cli import _verify_run, main
from kslab.exactnum import PI, Cmp, cmp_sq_below
from kslab.ks_measure import build
from kslab.rect_sup import Rectangle, sup_rect_bruteforce
from kslab.report import format_rational, parse_rational
from kslab.schauder import EchelonStore, GeneratorSet, density_check
from test_report import DIGIT_PARTS, JSON_NUMBERS, repdigit, row_texts_by_fraction
from oracles import (
    argparse_parse,
    certify_bound3,
    combo_to_json,
    diag_sections,
    eval_symmetric,
    greedy_walk,
    profile_table,
    quoted,
    rect_mass,
    standard_test_family,
    tensor_sup_exact,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def run(args):
    return main(args)


def write_family(path, combos):
    path.write_text(json.dumps([combo_to_json(h) for h in combos]), encoding="utf-8")


@pytest.fixture(scope="module")
def subseq_family(tmp_path_factory):
    """The standard family's file and a report path, shared by the examples
    of one property test."""
    tmp = tmp_path_factory.mktemp("subseq")
    write_family(tmp / "family.json", standard_test_family())
    return tmp / "family.json", tmp / "subseq.json"


def unit_generator_lines(count):
    return "\n".join('{"coords": {"%d": "1"}}' % k for k in range(1, count + 1)) + "\n"


class TestVerify:
    def test_n_max_4_report(self, tmp_path):
        out = tmp_path / "verify.json"
        assert run(["verify", "--n-max", "4", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["overall"] == "PASS"
        sups = [row["sup"] for row in doc["checks"]]
        # regenerate the expected values through the brute-force oracle
        oracle = [format_rational(sup_rect_bruteforce(build(n)).sup) for n in (1, 2, 3, 4)]
        assert sups == oracle == ["1/2", "1/4", "1/4", "3/16"]
        assert all(row["bound2"] == "PASS" for row in doc["checks"])
        assert all(row["brute_matches"] for row in doc["checks"])

    def test_row_encodes_past_str_digit_limit(self):
        # n * 2^n and the power-of-two denominators of sup and tensor_sup
        # exceed 4300 digits here, so all three are 0x hex
        row = _verify_run(15000, 15000)[0]
        assert parse_rational(row["support_size"]) == 15000 << 15000
        expected = row_texts_by_fraction(15000)
        assert {key: row[key] for key in expected} == expected
        assert row["sup"].partition("/")[2].startswith("0x")
        assert row["tensor_sup"].partition("/")[2].startswith("0x")
        assert row["bound2"] == "PASS"

    def test_zero_n_max_usage_error(self, tmp_path):
        assert run(["verify", "--n-max", "0", "--out", str(tmp_path / "x.json")]) == 2

    def test_missing_subcommand_usage_error(self):
        assert run([]) == 2

    def test_byte_stable_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["verify", "--n-max", "6", "--out", str(out1)]) == 0
        assert run(["verify", "--n-max", "6", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_each_supremum_certified_once(self, tmp_path, monkeypatch):
        # bound2 and bound3 read the comparisons the report already holds,
        # and rows 2j and 2j + 1 share c_n: two per distinct c_n, j = 0..32
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return cmp_sq_below(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("kslab.") and hasattr(module, "cmp_sq_below"):
                monkeypatch.setattr(module, "cmp_sq_below", counting)
        assert run(["verify", "--n-max", "64", "--out", str(tmp_path / "v.json")]) == 0
        assert len(calls) == 2 * (64 // 2 + 1)

    def test_sweep_factorizes_at_most_once(self, tmp_path, monkeypatch):
        # verify walks j = 0..32 in order, one central binomial C(2j, j) each:
        # every one but possibly the first is one Pascal step from the one
        # before
        factorized = []
        factorize = exactnum._factorized

        def counting(m):
            factorized.append(m)
            return factorize(m)

        monkeypatch.setattr(exactnum, "_factorized", counting)
        out = tmp_path / "v.json"
        assert run(["verify", "--n-max", "64", "--out", str(out)]) == 0
        assert len(factorized) <= 1
        rows = json.loads(out.read_text())["checks"]
        assert [parse_rational(r["sup"]) for r in rows] == [
            Fraction(math.comb(n - 1, (n - 1) // 2), 1 << n) for n in range(1, 65)
        ]

    def test_one_binomial_per_pair(self, tmp_path, monkeypatch):
        # rows 2j and 2j + 1 read one c_n, built at the pair's first index:
        # m = n - 1 = 0, 1, 3, ..., 2j - 1, one per j and in order, so each
        # is one Pascal step from the one before
        calls = []

        def counting(m):
            calls.append(m)
            return exactnum.central_binomial(m)

        monkeypatch.setattr(ks_measure, "central_binomial", counting)
        assert run(["verify", "--n-max", "65", "--out", str(tmp_path / "v.json")]) == 0
        assert calls == [0] + [2 * j - 1 for j in range(1, 33)]

    def test_run_verdicts_are_per_index_verdicts(self, tmp_path):
        # each row's lower_ok and upper_ok, read off its pair's one comparison
        # per side, are certify_pair's at that row's own n, on c_n built
        # from math.comb
        out = tmp_path / "verify.json"
        assert run(["verify", "--n-max", "4000", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["checks"]
        assert len(rows) == 4000
        for n, row in enumerate(rows, start=1):
            c = Fraction(math.comb(n - 1, (n - 1) // 2), 1 << n)
            assert (row["lower_ok"], row["upper_ok"]) == tuple(v.value for v in rect_sup.certify_pair(c, n)), n

    def test_tensor_columns_at_every_index(self, tmp_path):
        # the tensor supremum is 2 sup at every n; bound3 agrees with its own
        # certified comparison, and with vertex enumeration where that runs
        out = tmp_path / "verify.json"
        assert run(["verify", "--n-max", "40", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert "tensor_max" not in doc["config"]
        for n, row in enumerate(doc["checks"], start=1):
            sup = parse_rational(row["sup"])
            tsup = parse_rational(row["tensor_sup"])
            assert tsup == 2 * sup, n
            assert row["bound3"] == certify_bound3(n, 2 * sup, rect_sup=sup), n
            assert row["tensor_ge_rect"] is True
            if n <= 12:
                assert tsup == tensor_sup_exact(build(n)), n

    @staticmethod
    def inject(monkeypatch, at, lower_ok=None, upper_ok=None):
        """Replace the lower_ok or upper_ok certify_run gives at n = at, in
        verify's run and in sup's certify_pair."""
        certify = rect_sup.certify_run

        def injected(sup, first, last):
            return [((lower_ok or lo) if n == at else lo, (upper_ok or up) if n == at else up)
                    for n, (lo, up) in enumerate(certify(sup, first, last), start=first)]

        monkeypatch.setattr(cli, "certify_run", injected)
        monkeypatch.setattr(rect_sup, "certify_run", injected)

    @pytest.mark.parametrize("upper_ok", [Cmp.UNDECIDED, Cmp.CERT_GT])
    def test_bound3_needs_certified_upper_bound(self, monkeypatch, upper_ok):
        # bound3 rests on the certified c_n < 2/sqrt(pi n) alone; without it
        # 2 c_n < 8/sqrt(pi n) is not claimed, and the row fails, while row
        # 4, which shares c_n, keeps its certified bound
        self.inject(monkeypatch, 5, upper_ok=upper_ok)
        row4, row = _verify_run(4, 5)
        assert row["bound3"] == "UNDECIDED" and row["tensor_sup"] == "3/8"
        assert cli._row_failure(row) is not None
        assert row4["bound3"] == "PASS" and row4["tensor_sup"] == "3/8"
        assert cli._row_failure(row4) is None

    @pytest.mark.parametrize("lower_ok", [Cmp.UNDECIDED, Cmp.CERT_LT])
    def test_bound2_failure_alone_fails_the_sweep(self, tmp_path, capsys, monkeypatch, lower_ok):
        # only c_n > 1/(2 sqrt(pi n)) is lost, at n = 3: bound3 still passes,
        # so the sweep fails on bound2, and sup on the same verdict
        self.inject(monkeypatch, 3, lower_ok=lower_ok)
        out = tmp_path / "verify.json"
        assert run(["verify", "--n-max", "5", "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["overall"] == "FAIL"
        assert [row["bound3"] for row in doc["checks"]] == ["PASS"] * 5
        assert capsys.readouterr().err == f"FAILED check: bound2(n=3)={doc['checks'][2]['bound2']}\n"
        assert doc["checks"][2]["bound2"] != "PASS"
        assert run(["sup", "--n", "3", "--out", str(tmp_path / "sup.json")]) == 1
        assert json.loads((tmp_path / "sup.json").read_text())["bound2"] != "PASS"

    def test_brute_force_disagreement_fails_the_sweep(self, tmp_path, capsys, monkeypatch):
        # a brute-force supremum 1/2^n off the closed form at n = 3
        brute = cli.sup_rect_bruteforce

        def off(m):
            rect = brute(m)
            return rect._replace(sup=rect.sup + Fraction(1, 1 << m.n)) if m.n == 3 else rect

        monkeypatch.setattr(cli, "sup_rect_bruteforce", off)
        out = tmp_path / "verify.json"
        assert run(["verify", "--n-max", "4", "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["overall"] == "FAIL" and doc["checks"][2]["brute_matches"] is False
        assert capsys.readouterr().err == "FAILED check: brute_vs_fast(n=3)\n"


class TestSubseq:
    def test_full_stream_report(self, tmp_path):
        family = tmp_path / "family.json"
        write_family(family, standard_test_family()[:2])
        out = tmp_path / "subseq.json"
        code = run(["subseq", "--n", "4", "--family", str(family), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["certificate"]["indices"] == [1, 16, 81, 256]
        assert doc["verdict"] == "PASS"

    def test_length_11_writes_hex_rationals(self, tmp_path):
        # index 14641 gives prefix sums with 2^14641 denominators, past the
        # 4300-digit int->str limit; they must serialize, not fail
        family = tmp_path / "family.json"
        combos = standard_test_family()
        write_family(family, combos)
        out = tmp_path / "subseq.json"
        assert run(["subseq", "--n", "11", "--family", str(family), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        indices = doc["certificate"]["indices"]
        assert indices[-1] == 14641 and doc["verdict"] == "PASS"
        assert any("0x" in p for row in doc["rows"] for p in row["partial_sums"])
        for h, row in zip(combos, doc["rows"], strict=True):
            running = Fraction(0)
            for s, text in zip(indices, row["partial_sums"], strict=True):
                m = build(s)
                running += abs(
                    sum(
                        t.coeff * eval_symmetric(m, profile_table(t.profile, s), t.g_const * s)
                        for t in h.terms
                    )
                )
                assert parse_rational(text) == running

    def test_empty_family_vacuous(self, tmp_path):
        family = tmp_path / "family.json"
        family.write_text("[]", encoding="utf-8")
        out = tmp_path / "subseq.json"
        assert run(["subseq", "--n", "2", "--family", str(family), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["verdict"] == "VACUOUS"

    def test_malformed_family_parse_error(self, tmp_path):
        family = tmp_path / "family.json"
        family.write_text("{nope", encoding="utf-8")
        out = tmp_path / "subseq.json"
        assert run(["subseq", "--n", "2", "--family", str(family), "--out", str(out)]) == 2

    @pytest.mark.parametrize("n", ["1", "2"])
    def test_explicit_term_family_parse_error(self, tmp_path, capsys, n):
        # a value table pinned to one index is no test function on the whole
        # space, so it is refused on reading, whatever the certificate length:
        # its keys are no term keys, and with a term's keys its type is unknown
        family = tmp_path / "family.json"
        out = tmp_path / "subseq.json"
        for term, line in (
            ({"type": "explicit", "n": 1, "f": ["1", "-1"], "g": ["1"]},
             "combo 0: unknown term key 'n'; a term reads type, profile, coeff, g_const"),
            ({"type": "explicit", "profile": "majority"}, "combo 0: unknown term type 'explicit'"),
        ):
            family.write_text(json.dumps([{"name": "pinned", "terms": [term]}]), encoding="utf-8")
            assert run(["subseq", "--n", n, "--family", str(family), "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"cannot parse family file: {line}\n"
            assert not out.exists()

    def test_even_stream_option(self, tmp_path):
        family = tmp_path / "family.json"
        family.write_text("[]", encoding="utf-8")
        out = tmp_path / "subseq.json"
        code = run(
            [
                "subseq", "--n", "2", "--family", str(family), "--out", str(out),
                "--stream-start", "2", "--stream-step", "2",
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["certificate"]["indices"] == [2, 16]

    @pytest.mark.parametrize("step", ["0", "-1"])
    def test_nonpositive_stream_step_usage_error(self, tmp_path, step):
        family = tmp_path / "family.json"
        family.write_text("[]", encoding="utf-8")
        out = tmp_path / "subseq.json"
        code = run(
            ["subseq", "--n", "2", "--family", str(family), "--out", str(out), "--stream-step", step]
        )
        assert code == 2
        assert not out.exists()

    def test_zero_denominator_in_family_parse_error(self, tmp_path):
        family = tmp_path / "family.json"
        family.write_text(
            json.dumps([{"name": "bad", "terms": [{"profile": "sign_centered", "coeff": "1/0"}]}]),
            encoding="utf-8",
        )
        out = tmp_path / "subseq.json"
        assert run(["subseq", "--n", "2", "--family", str(family), "--out", str(out)]) == 2


    @pytest.mark.parametrize(
        "terms", [["sign_centered"], [["majority"]], "sign_centered", {"profile": "majority"}, None]
    )
    def test_non_object_terms_parse_error(self, tmp_path, capsys, terms):
        family = tmp_path / "family.json"
        family.write_text(json.dumps([{"name": "bad", "terms": terms}]), encoding="utf-8")
        out = tmp_path / "subseq.json"
        assert run(["subseq", "--n", "2", "--family", str(family), "--out", str(out)]) == 2
        assert "cannot parse family file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc",
        [
            [{"name": "h", "terms": [{"profile": "sign_centered", "coef": "1/2"}]}],
            [{"name": "h", "terms": [{"profile": "majority"}], "norm_bound": "1"}],
            {"combos": [{"name": "h", "terms": [{"profile": "majority"}]}]},
        ],
        ids=["term-key-typo", "combo-key", "combos-wrapper"],
    )
    def test_undocumented_family_shape_parse_error(self, tmp_path, capsys, doc):
        # a misspelt coeff must not default to 1 and certify another combination
        family = tmp_path / "family.json"
        family.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "subseq.json"
        assert run(["subseq", "--n", "2", "--family", str(family), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("cannot parse family file:") and "\n" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, line",
        [
            ([{"name": None, "terms": [{"profile": "majority"}]}], "combo 0: name must be a string, got null"),
            ([{"name": 7, "terms": [{"profile": "majority"}]}], "combo 0: name must be a string, got number"),
            (
                [{"name": "ok", "terms": [{"profile": "majority"}]}, {"name": "h", "terms": [{"coeff": "1"}]}],
                "combo 1: term has no 'profile' key",
            ),
            ([{"name": "h", "terms": [{"profile": ["majority"]}]}], "combo 0: unknown profile array"),
        ],
        ids=["null-name", "number-name", "no-profile", "list-profile"],
    )
    def test_family_parse_error_names_the_combo(self, tmp_path, capsys, doc, line):
        # a null name would become the row name "None"; a missing or list profile a bare
        # KeyError or TypeError line that names neither the key nor the combination
        family = tmp_path / "family.json"
        family.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "subseq.json"
        assert run(["subseq", "--n", "1", "--family", str(family), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"cannot parse family file: {line}\n" and "Traceback" not in err
        assert not out.exists()

    def test_far_negative_stream_start(self, tmp_path):
        # the first pick is 1 whatever the start: no walk up from -10^15
        family = tmp_path / "family.json"
        family.write_text("[]", encoding="utf-8")
        out = tmp_path / "subseq.json"
        argv = ["subseq", "--n", "1", "--family", str(family), "--out", str(out)]
        assert run(argv + ["--stream-start", "-1000000000000000"]) == 0
        assert json.loads(out.read_text())["certificate"]["indices"] == [1]

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 6), start=st.integers(-50, 5000), step=st.integers(-2, 40))
    def test_stream_options_against_the_walk(self, subseq_family, n, start, step):
        family, out = subseq_family
        out.unlink(missing_ok=True)
        argv = ["subseq", "--n", str(n), "--family", str(family), "--out", str(out)]
        argv += ["--stream-start", str(start), "--stream-step", str(step)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(argv)
        assert code in (0, 2) and "Traceback" not in err.getvalue()
        assert (code == 2) == (step < 1)
        if code == 0:
            indices = json.loads(out.read_text())["certificate"]["indices"]
            assert indices == list(greedy_walk(itertools.count(start, step), n))

    def test_numeric_rationals_read_as_their_text(self, tmp_path):
        reports = []
        for coeff in ("1/2", 0.5):
            family = tmp_path / "family.json"
            family.write_text(
                json.dumps([{"name": "h", "terms": [{"profile": "majority", "coeff": coeff, "g_const": 2}]}]),
                encoding="utf-8",
            )
            out = tmp_path / f"subseq_{len(reports)}.json"
            assert run(["subseq", "--n", "2", "--family", str(family), "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


class TestSchauder:
    def test_unit_generators(self, tmp_path):
        gens = tmp_path / "gens.jsonl"
        gens.write_text(unit_generator_lines(8), encoding="utf-8")
        out = tmp_path / "basis.json"
        code = run(
            ["schauder", "--generators", str(gens), "--n", "8", "--horizon", "10", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["overall"] == "PASS"
        for n, vec in enumerate(doc["basis"]["vectors"], start=1):
            expected = ["1" if k == n else "0" for k in range(1, 11)]
            assert vec["coords"] == expected

    def test_missing_first_coordinate(self, tmp_path):
        gens = tmp_path / "gens.jsonl"
        gens.write_text('{"coords": {"2": "1"}}\n', encoding="utf-8")
        out = tmp_path / "fail.json"
        code = run(
            ["schauder", "--generators", str(gens), "--n", "1", "--horizon", "2", "--out", str(out)]
        )
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["density"]["status"] == "NOT_DENSE"
        assert doc["density"]["failing"] == [1]

    def test_not_dense_report_names_least_uncovered_segment(self, tmp_path):
        # one generator covers coordinate 1 only: the report names {1, 2},
        # not all of 1..n, so its size does not grow with --n
        gens = tmp_path / "gens.jsonl"
        gens.write_text('{"coords": {"1": "1"}}\n', encoding="utf-8")
        out = tmp_path / "fail.json"
        code = run(
            ["schauder", "--generators", str(gens), "--n", "100000", "--horizon", "100000", "--out", str(out)]
        )
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["density"]["status"] == "NOT_DENSE"
        assert doc["density"]["failing"] == [1, 2]
        assert out.stat().st_size < 1024

    def test_target_expansion(self, tmp_path):
        gens = tmp_path / "gens.jsonl"
        gens.write_text(
            '{"coords": {"1": "1", "2": "1"}}\n{"coords": {"2": "1"}}\n{"coords": {"3": "1"}}\n',
            encoding="utf-8",
        )
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps({"targets": [["2", "3", "5"]]}), encoding="utf-8")
        out = tmp_path / "basis.json"
        code = run(
            [
                "schauder", "--generators", str(gens), "--n", "3", "--horizon", "4",
                "--target", str(targets), "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["expansions"][0]["coefficients"] == ["2", "3", "5"]
        assert doc["expansions"][0]["grid_all_true"] is True

    def test_target_entries_past_the_horizon_are_dropped(self, tmp_path):
        # documented behaviour: the report keeps the first --horizon entries
        # and says nothing of the rest
        gens = tmp_path / "gens.jsonl"
        gens.write_text(unit_generator_lines(2), encoding="utf-8")
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps({"targets": [["2", "3", "5", "7"]]}), encoding="utf-8")
        out = tmp_path / "basis.json"
        argv = ["schauder", "--generators", str(gens), "--n", "2", "--horizon", "2", "--target", str(targets)]
        assert run([*argv, "--out", str(out)]) == 0
        exp = json.loads(out.read_text())["expansions"][0]
        assert exp["target"] == ["2", "3"] and exp["coefficients"] == ["2", "3"]

    def test_parse_error(self, tmp_path):
        gens = tmp_path / "gens.jsonl"
        gens.write_text("oops\n", encoding="utf-8")
        out = tmp_path / "x.json"
        assert (
            run(["schauder", "--generators", str(gens), "--n", "1", "--horizon", "1", "--out", str(out)])
            == 2
        )

    @pytest.mark.parametrize("missing", ["generators", "target"])
    def test_missing_input_file_parse_error(self, tmp_path, capsys, missing):
        gens = tmp_path / "gens.jsonl"
        gens.write_text(unit_generator_lines(2), encoding="utf-8")
        files = {"generators": gens, "target": tmp_path / "targets.json"}
        files[missing] = tmp_path / "absent.json"
        out = tmp_path / "x.json"
        argv = [
            "schauder", "--generators", str(files["generators"]), "--target", str(files["target"]),
            "--n", "1", "--horizon", "2", "--out", str(out),
        ]
        assert run(argv) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"cannot parse {missing} file:") and "absent.json" in err
        assert "\n" not in err
        assert not out.exists()

    def test_zero_denominator_in_generators_parse_error(self, tmp_path):
        gens = tmp_path / "gens.jsonl"
        gens.write_text('{"coords": {"1": "1/0"}}\n', encoding="utf-8")
        out = tmp_path / "x.json"
        assert (
            run(["schauder", "--generators", str(gens), "--n", "1", "--horizon", "1", "--out", str(out)])
            == 2
        )

    @pytest.mark.parametrize("coords", ["[1, 2]", '"1"', "3", "null"])
    def test_non_object_coords_parse_error(self, tmp_path, capsys, coords):
        gens = tmp_path / "gens.jsonl"
        gens.write_text('{"coords": {"1": "1"}}\n{"coords": %s}\n' % coords, encoding="utf-8")
        out = tmp_path / "x.json"
        assert (
            run(["schauder", "--generators", str(gens), "--n", "1", "--horizon", "1", "--out", str(out)])
            == 2
        )
        assert "generator line 2:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "coords, message",
        [pytest.param(coords, message, id=coords) for coords, message in (
            ('{"1": "2", "01": "3", "2": "1"}', "coordinate 1 given twice"),
            ('{"1": "2", " 1": "3"}', "coordinate 1 given twice"),
            ('{"1": "2", "1": "3"}', "key '1' given twice"))],  # the JSON reader's refusal
    )
    def test_repeated_coordinate_parse_error(self, tmp_path, capsys, coords, message):
        # two keys that name coordinate 1 must not keep the last value silently
        gens = tmp_path / "gens.jsonl"
        gens.write_text('{"coords": {"2": "1"}}\n{"coords": %s}\n' % coords, encoding="utf-8")
        out = tmp_path / "x.json"
        assert (
            run(["schauder", "--generators", str(gens), "--n", "2", "--horizon", "2", "--out", str(out)])
            == 2
        )
        err = capsys.readouterr().err.strip()
        assert err == f"cannot parse generators file: generator line 2: {message}"
        assert not out.exists()

    def test_one_elimination_per_run(self, tmp_path, monkeypatch):
        # the basis comes from the density check's echelon store: one store,
        # each scanned generator reduced once
        stores, adds = [], []
        init, add = EchelonStore.__init__, EchelonStore.add

        def counting_init(self, m, key=None):
            stores.append(m)
            init(self, m, key)

        def counting_add(self, vec):
            adds.append(vec)
            return add(self, vec)

        monkeypatch.setattr(EchelonStore, "__init__", counting_init)
        monkeypatch.setattr(EchelonStore, "add", counting_add)
        gens = tmp_path / "gens.jsonl"
        gens.write_text(
            '{"coords": {"1": "1", "2": "1"}}\n{"coords": {"1": "2", "2": "2"}}\n'
            '{"coords": {"2": "1", "3": "5"}}\n{"coords": {"3": "1"}}\n{"coords": {"4": "1"}}\n',
            encoding="utf-8",
        )
        out = tmp_path / "basis.json"
        code = run(["schauder", "--generators", str(gens), "--n", "3", "--horizon", "4", "--out", str(out)])
        assert code == 0
        assert stores == [3] and len(adds) == 4
        vectors = json.loads(out.read_text())["basis"]["vectors"]
        assert [vec["coords"][:3] for vec in vectors] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]

    def test_zero_denominator_in_target_parse_error(self, tmp_path):
        gens = tmp_path / "gens.jsonl"
        gens.write_text(unit_generator_lines(2), encoding="utf-8")
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps({"targets": [["1", "1/0"]]}), encoding="utf-8")
        out = tmp_path / "x.json"
        code = run(
            [
                "schauder", "--generators", str(gens), "--n", "2", "--horizon", "2",
                "--target", str(targets), "--out", str(out),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"targets": ["23"]}, {"targets": [{"7": "1", "9": "2"}]}, {"targets": [5]}, {"targets": "23"}, "23",
            [["2", "3", "5"]],
        ],
        ids=["string-entry", "object-entry", "number-entry", "string-targets", "string-document", "bare-list"],
    )
    def test_non_list_target_parse_error(self, tmp_path, capsys, doc):
        # a string or an object is iterable, but it is not a target sequence;
        # and the file is the {"targets": [...]} object, never a bare list
        gens = tmp_path / "gens.jsonl"
        gens.write_text(unit_generator_lines(9), encoding="utf-8")
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "x.json"
        argv = [
            "schauder", "--generators", str(gens), "--n", "2", "--horizon", "9",
            "--target", str(targets), "--out", str(out),
        ]
        assert run(argv) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("cannot parse target file:") and "\n" not in err
        assert not out.exists()

    def test_horizon_validation(self, tmp_path):
        gens = tmp_path / "gens.jsonl"
        gens.write_text(unit_generator_lines(3), encoding="utf-8")
        out = tmp_path / "x.json"
        assert (
            run(["schauder", "--generators", str(gens), "--n", "3", "--horizon", "2", "--out", str(out)])
            == 2
        )


class TestSup:
    def test_fast_report(self, tmp_path):
        out = tmp_path / "sup.json"
        assert run(["sup", "--n", "6", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["bound2"] == "PASS"
        assert doc["method"] == "FastPath"

    def test_brute_matches_fast(self, tmp_path):
        fast = tmp_path / "fast.json"
        brute = tmp_path / "brute.json"
        run(["sup", "--n", "3", "--out", str(fast)])
        run(["sup", "--n", "3", "--brute", "--out", str(brute)])
        assert json.loads(fast.read_text())["sup"] == json.loads(brute.read_text())["sup"]
        assert json.loads(brute.read_text())["method"] == "BruteForce"

    def test_stdout_line_is_short_past_the_hex_cut(self, tmp_path, capsys):
        # the report carries the exact value; stdout shows only its decimal
        out = tmp_path / "sup.json"
        assert run(["sup", "--n", "100000", "--out", str(out)]) == 0
        line = capsys.readouterr().out
        assert len(line.encode()) < 200 < out.stat().st_size
        assert json.loads(out.read_text())["sup_decimal"] in line

    def test_brute_guard_is_usage_error(self, tmp_path):
        assert run(["sup", "--n", "5", "--brute", "--out", str(tmp_path / "x.json")]) == 2

    def test_witness_hex_round_trip_above_str_digit_limit(self, tmp_path):
        # A_bits has 2^14 bits, more than 4300 decimal digits
        out = tmp_path / "sup.json"
        assert run(["sup", "--n", "14", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        witness = doc["witness"]
        assert witness["A_bits"].startswith("0x") and witness["B_bits"].startswith("0x")
        rect = Rectangle(int(witness["A_bits"], 16), int(witness["B_bits"], 16))
        assert format_rational(abs(rect_mass(build(14), rect))) == doc["sup"]


class TestPinnedReportBytes:
    # sha256 of reports written before the stabilization grid and the
    # witness-building verify row were removed; any later edit that changes
    # a byte of them fails here.  verify --n-max 24 crosses the n <= 20
    # explicit-measure guard, and the schauder run is the console-script one.
    VERIFY_24 = "16acce1c408a8a2ed013236e2ebc33f93d4e9cc5567c7714df145b313d9446b1"
    # Written while the verify row still built 2 c_n and wrote it through
    # format_rational and decimal_str: verify --n-max 1024, the size the
    # sweep benchmark runs.
    VERIFY_1024 = "72faadb5d4f67a874a4b00aeffb5818fd0d44b61b355db186363cbec20471da5"
    # Written while each verify row still certified and wrote its own c_n:
    # --n-max 1, the lone row of j = 0, and --n-max 1025, whose last pair
    # {1024, 1025} is full (an even n-max ends on a lone row 2j).
    VERIFY_1 = "351e163d5190563e9da50262a51f437186d2750c604b30d87ea6ac5afbcd1bae"
    VERIFY_1025 = "397c4f00a7310486bc8a48563c7e7309dcab9300947cd408a2f110f7d6dde211"
    SCHAUDER_3 = "4da1a7f1b19a53d89bf34f676d508a03f143ba91fc29542c430d2ef7d8f35a6b"
    # Written while basis vectors were still Fractions: eight generators with
    # denominators 2 and 3 (one dependent, one unused), so the unit weights
    # and the tail coordinates past N = 6 are rationals with denominators up
    # to 56, on horizon N + 6.
    SCHAUDER_RATIONAL = "b7fca91541f9c10e092919c95877798ba9b12d469118538e27bc76e313238c0b"
    RATIONAL_GENERATORS = (
        '{"coords": {"1": "2/3", "2": "1/2", "7": "-1/3"}}\n'
        '{"coords": {"2": "3/2", "3": "-2/3", "8": "1/2"}}\n'
        '{"coords": {"1": "1/3", "3": "1/2", "9": "2/3"}}\n'
        '{"coords": {"4": "-3/2", "5": "1/3", "10": "5/2"}}\n'
        '{"coords": {"1": "1/2", "2": "1/3", "3": "2/3"}}\n'
        '{"coords": {"5": "2/3", "6": "-1/2", "11": "1/3"}}\n'
        '{"coords": {"4": "1/3", "6": "3/2", "12": "-2/3"}}\n'
        '{"coords": {"2": "-1/2", "6": "1/3", "9": "1/2"}}\n'
    )
    # Written while the echelon store still pivoted on each row's first
    # nonzero coordinate: twelve generators with denominators 2 and 3, N = 10
    # on horizon N + 4.  Generator 7 repeats generator 3 on 1..10 (dependent)
    # and generator 11 is never scanned; the fill-reducing order pivots five
    # of the ten stored rows on other coordinates than the natural order.
    SCHAUDER_PIVOT_ORDER = "3fca6a92861eda24f39734f10d8f30f42458c9fc4b23c30e0875d16eae499649"
    PIVOT_ORDER_GENERATORS = (
        '{"coords": {"1": "1/2", "7": "5/3", "13": "2/3"}}\n'
        '{"coords": {"2": "2/3", "7": "-2/3", "13": "-3/2"}}\n'
        '{"coords": {"3": "1/3", "4": "-1/2", "9": "2/3"}}\n'
        '{"coords": {"4": "1/3", "5": "2/3", "9": "1", "13": "-5/2"}}\n'
        '{"coords": {"5": "4/3", "12": "-1/2"}}\n'
        '{"coords": {"6": "3/2", "8": "-1/2", "9": "-2/3"}}\n'
        '{"coords": {"7": "-3/2", "10": "-1/3", "11": "5/3"}}\n'
        '{"coords": {"4": "1/3", "5": "2/3", "9": "1", "12": "-5/2"}}\n'
        '{"coords": {"8": "2/3", "9": "1/2", "14": "5/3"}}\n'
        '{"coords": {"2": "3/2", "9": "1"}}\n'
        '{"coords": {"10": "4/3", "11": "1/2", "13": "-5/2", "14": "-3/2"}}\n'
        '{"coords": {"1": "-2/3", "4": "1", "12": "-1/2"}}\n'
    )
    PIVOT_ORDER_TARGETS = (
        '{"targets": [["1/2", "-2/3", "3", "1/3", "0", "5/2", "1", "-1/2", "2", "-3/2", "1/3", "0", "4", "-1"]]}\n'
    )
    # Written before the echelon store moved into schauder: rational
    # generators with coordinates past N = 3 and past the horizon 5 (7, 9,
    # 11, 14), one of them dependent on 1..3, so the horizon cut and the
    # full-support denominators both shape b_n's tail and weights.
    SCHAUDER_PAST_HORIZON = "5e4132e5efd3d48223c7aeb75f74cd808fdc5b7a00ab294c9a9f523dd383d972"
    PAST_HORIZON_GENERATORS = (
        '{"coords": {"1": "1", "5": "2/3", "11": "3/4"}}\n'
        '{"coords": {"2": "1/2", "3": "1", "9": "-1/2"}}\n'
        '{"coords": {"1": "2", "5": "-1/5", "14": "-7/3"}}\n'
        '{"coords": {"1": "-1/3", "3": "2/5", "4": "1/6", "7": "5/6", "12": "1"}}\n'
    )
    # written while closed-form values were still Fractions: sup at the last
    # explicit index (with its witness) and past the hex cut.
    # Written while KSMeasure still took a bijection: the brute force at
    # n = 4, which reads row_pattern, and the odd-width witness at n = 13,
    # which reads by_row.  Keys are the sup arguments after --n.  Written
    # while the witness was still a bytes table per pattern: n = 1, 2
    # (width b = 1, a one-byte bitset) and n = 3 (b = 3, one minus count).
    SUP = {
        "1": "56e5a27b594eb44877d6b94facf7b96ad06ed93978c4afaebca80ab76ea28292",
        "2": "dfb49a95be426dd60865f66c8908108893e8b4b31c994ea6e760a78ee49d24a0",
        "3": "ae7dc7dd4194f107e2a4d42ae313a0b0c7588154fae06e2697f48e5e797e9562",
        "4 --brute": "365fbea61bc8487c7b1d414d09d54ac5bc2b779efd56abf14a5dd8db2faba9c0",
        "13": "e3af4a32c6f43dd3786de388a3ab8ac4e42d0334ae5e985ac61e410740c8a060",
        "20": "789b0803ac10640ff4fbad6994e8791e23d9367bee8860c36c353c95e5a418dc",
        "100000": "57046aff8f70810859e9cd3f256822e027fbc2c376adee535afa486fab77ee31",
    }
    # subseq on the console-script family (index 14,641, hex parts) and the
    # standard one.  Re-pinned when the rows' bound enclosure (bound_lower,
    # bound_upper, bound_upper_decimal) and unit_norm_indices left the
    # report: each is the sha256 of the earlier report with those keys
    # deleted and rewritten by json.dumps(doc, indent=2) + "\n", so every
    # other byte, the verdicts included, is as it was.
    SUBSEQ_11_SIGN = "9a00f09c8fd0494d7729e2320dcffc081eb8c3ecba6e0ef02c936e6bdfd4883d"
    SUBSEQ_10_STANDARD = "de4a630fa67c9bf546e5f980bdf2333af5c097aacafa15f1966af033a13842c6"
    # Written while extract still walked the stream one element at a time,
    # and re-pinned as above: an arithmetic stream whose picks need the
    # ceiling division (3, 17, 87, ..., 6562), and a start past every n^4
    # threshold.  Keys are the subseq arguments; both runs read the standard
    # family.
    SUBSEQ_STREAM = {
        "--n 9 --stream-start 3 --stream-step 7": "3c9514201b37b356b86fb42b16b43ed97e3077aed9e648d1eec82b5aeef4bc27",
        "--n 3 --stream-start 20000": "86d3636897f32c0763ae0a94cfab5935a589f3bfcf8a79ca73f4405d1c42387f",
    }

    # Written before the report writers moved into kslab.report: the first
    # 7 x 12 section of the diag benchmark at seed 41, written as the
    # benchmark writes it (json.dumps with indent 2 and a newline).
    SECTION_7X12 = "8ff6ac1c1fc7f0c3264a622c7df1d4814f6b6bd789f6f26ad0cbd79ab0540f76"

    @staticmethod
    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("n_max, pinned", [(1, VERIFY_1), (24, VERIFY_24), (1024, VERIFY_1024),
                                               (1025, VERIFY_1025)])
    def test_verify(self, tmp_path, n_max, pinned):
        out = tmp_path / "verify.json"
        assert run(["verify", "--n-max", str(n_max), "--out", str(out)]) == 0
        assert self.digest(out) == pinned

    def test_schauder_with_target(self, tmp_path):
        gens = tmp_path / "gens.jsonl"
        gens.write_text(
            '{"coords": {"1": "1", "2": "1"}}\n{"coords": {"2": "1"}}\n{"coords": {"3": "1"}}\n',
            encoding="utf-8",
        )
        targets = tmp_path / "targets.json"
        targets.write_text('{"targets": [["2", "3", "5"]]}\n', encoding="utf-8")
        out = tmp_path / "basis.json"
        argv = ["schauder", "--generators", str(gens), "--n", "3", "--horizon", "4", "--target", str(targets)]
        assert run(argv + ["--out", str(out)]) == 0
        assert self.digest(out) == self.SCHAUDER_3

    def test_schauder_rational(self, tmp_path):
        gens = tmp_path / "gens.jsonl"
        gens.write_text(self.RATIONAL_GENERATORS, encoding="utf-8")
        targets = tmp_path / "targets.json"
        targets.write_text(
            '{"targets": [["1/2", "-2/3", "3", "1/3", "0", "5/2", "1", "-1/2"], ["2", "1/3"]]}\n',
            encoding="utf-8",
        )
        out = tmp_path / "basis.json"
        argv = ["schauder", "--generators", str(gens), "--n", "6", "--horizon", "12", "--target", str(targets)]
        assert run(argv + ["--out", str(out)]) == 0
        assert self.digest(out) == self.SCHAUDER_RATIONAL

    def test_schauder_past_horizon(self, tmp_path):
        gens = tmp_path / "gens.jsonl"
        gens.write_text(self.PAST_HORIZON_GENERATORS, encoding="utf-8")
        targets = tmp_path / "targets.json"
        targets.write_text('{"targets": [["3/2", "-1", "2/7", "0", "4"]]}\n', encoding="utf-8")
        out = tmp_path / "basis.json"
        argv = ["schauder", "--generators", str(gens), "--n", "3", "--horizon", "5", "--target", str(targets)]
        assert run(argv + ["--out", str(out)]) == 0
        assert self.digest(out) == self.SCHAUDER_PAST_HORIZON

    def test_schauder_pivot_order(self, tmp_path):
        gens = tmp_path / "gens.jsonl"
        gens.write_text(self.PIVOT_ORDER_GENERATORS, encoding="utf-8")
        targets = tmp_path / "targets.json"
        targets.write_text(self.PIVOT_ORDER_TARGETS, encoding="utf-8")
        out = tmp_path / "basis.json"
        argv = ["schauder", "--generators", str(gens), "--n", "10", "--horizon", "14", "--target", str(targets)]
        assert run(argv + ["--out", str(out)]) == 0
        assert self.digest(out) == self.SCHAUDER_PIVOT_ORDER
        G = GeneratorSet.from_jsonl(self.PIVOT_ORDER_GENERATORS)
        natural = EchelonStore(10)
        for g in G:
            natural.add(g)
        assert [p for p, _, _ in density_check(G, 10).echelon.rows] != [p for p, _, _ in natural.rows]

    @pytest.mark.parametrize("args", list(SUP))
    def test_sup(self, tmp_path, args):
        out = tmp_path / "sup.json"
        assert run(["sup", "--n", *args.split(), "--out", str(out)]) == 0
        assert self.digest(out) == self.SUP[args]

    def test_subseq_console_family(self, tmp_path):
        family = tmp_path / "family.json"
        family.write_text(
            '[{"name": "sgn", "terms": [{"type": "symmetric", "profile": "sign_centered"}]}]\n',
            encoding="utf-8",
        )
        out = tmp_path / "subseq.json"
        assert run(["subseq", "--n", "11", "--family", str(family), "--out", str(out)]) == 0
        assert self.digest(out) == self.SUBSEQ_11_SIGN

    def test_subseq_standard_family(self, tmp_path):
        family = tmp_path / "family.json"
        write_family(family, standard_test_family())
        out = tmp_path / "subseq.json"
        assert run(["subseq", "--n", "10", "--family", str(family), "--out", str(out)]) == 0
        assert self.digest(out) == self.SUBSEQ_10_STANDARD

    @pytest.mark.parametrize("args", list(SUBSEQ_STREAM))
    def test_subseq_stream(self, tmp_path, args):
        family = tmp_path / "family.json"
        write_family(family, standard_test_family())
        out = tmp_path / "subseq.json"
        assert run(["subseq", *args.split(), "--family", str(family), "--out", str(out)]) == 0
        assert self.digest(out) == self.SUBSEQ_STREAM[args]

    def test_section_report(self):
        text = json.dumps(section_report(diag_sections(1)[0]), indent=2) + "\n"
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.SECTION_7X12


class TestOutputErrors:
    @pytest.mark.parametrize("argv", [["verify", "--n-max", "2"], ["sup", "--n", "3"]])
    def test_unwritable_out_usage_error(self, tmp_path, capsys, argv):
        missing = tmp_path / "no_such_dir" / "x.json"
        assert run(argv + ["--out", str(missing)]) == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and str(missing) in err

    @pytest.mark.parametrize("option", [["--csv", "verify.csv"], ["--timings"]], ids=["csv", "timings"])
    def test_removed_verify_option_usage_error(self, tmp_path, capsys, option):
        out = tmp_path / "verify.json"
        assert run(["verify", "--n-max", "2", "--out", str(out), *option]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and "Traceback" not in err
        assert not out.exists()


class TestExponentLimit:
    # each input file's rationals go through parse_rational, which refuses
    # an exponent past 4300 in magnitude before Fraction expands it
    @pytest.mark.parametrize("where", ["family", "generators", "target"])
    @pytest.mark.parametrize("text", ["1e999999999", "-1E-4301"])
    def test_huge_exponent_parse_error(self, tmp_path, capsys, where, text):
        family, gens, targets = tmp_path / "family.json", tmp_path / "gens.jsonl", tmp_path / "targets.json"
        value = {"family": "1", "generators": "1", "target": "1", where: text}
        family.write_text(json.dumps([{"name": "c", "terms": [{"profile": "majority", "coeff": value["family"]}]}]),
                          encoding="utf-8")
        gens.write_text('{"coords": {"1": "%s"}}\n{"coords": {"2": "1"}}\n' % value["generators"], encoding="utf-8")
        targets.write_text(json.dumps({"targets": [["2", value["target"]]]}), encoding="utf-8")
        out = tmp_path / "x.json"
        argv = (["subseq", "--n", "2", "--family", str(family)] if where == "family" else
                ["schauder", "--generators", str(gens), "--n", "2", "--horizon", "2", "--target", str(targets)])
        start = time.perf_counter()
        assert run(argv + ["--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"cannot parse {where} file:") and "exponent past 4300" in err
        assert "\n" not in err and "Traceback" not in err
        assert not out.exists()


def input_files_run(tmp_path, where, text):
    """argv without --out that reads the family, generators or target file
    written with text in place of one value, the others well formed."""
    family, gens, targets = tmp_path / "family.json", tmp_path / "gens.jsonl", tmp_path / "targets.json"
    family.write_text(json.dumps([{"name": "c", "terms": [{"profile": "majority", "coeff": "1"}]}]), encoding="utf-8")
    gens.write_text('{"coords": {"1": "1"}}\n{"coords": {"2": "1"}}\n', encoding="utf-8")
    targets.write_text(json.dumps({"targets": [["2", "1"]]}), encoding="utf-8")
    {"family": family, "generators": gens, "target": targets}[where].write_text(text, encoding="utf-8")
    if where == "family":
        return ["subseq", "--n", "2", "--family", str(family)]
    return ["schauder", "--generators", str(gens), "--n", "2", "--horizon", "2", "--target", str(targets)]


# The four input objects: (file, the object's name in an error line, the
# line's prefix, a well-formed document holding the object).  KEYS_READ
# lists the keys each reads in its error line's order; READ_TYPES the JSON
# types each key's reader reads.
INPUT_OBJECTS = {
    "combo": ("family", "combo", "combo 0: ", [{"name": "c", "terms": [{"profile": "majority"}]}]),
    "term": ("family", "term", "combo 0: ", [{"name": "c", "terms": [{"profile": "majority", "coeff": "1"}]}]),
    "generator line": ("generators", "generator", "generator line 1: ", {"coords": {"1": "1"}}),
    "target document": ("target", "target document", "", {"targets": [["2", "1"]]}),
}
KEYS_READ = {"combo": ["name", "terms"], "term": ["type", "profile", "coeff", "g_const"],
             "generator line": ["coords"], "target document": ["targets"]}
READ_TYPES = {"name": {"string"}, "terms": {"array"}, "type": {"string"}, "profile": {"string"},
              "coeff": {"number", "string"}, "g_const": {"number", "string"}, "coords": {"object"},
              "targets": {"array"}}
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), st.text(max_size=4), st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)


def json_type(v) -> str:
    if v is None or isinstance(v, bool):
        return "null" if v is None else "boolean"
    return {int: "number", str: "string", list: "array", dict: "object"}[type(v)]


class TestInputFileGrammar:
    @pytest.mark.parametrize("where", ["family", "generators", "target"])
    def test_deep_nesting_parse_error(self, tmp_path, capsys, where):
        # json.loads raises RecursionError past the interpreter's recursion
        # limit; it is a file that cannot be parsed, not a failed check
        out = tmp_path / "x.json"
        argv = input_files_run(tmp_path, where, "[" * 200_000 + "]" * 200_000)
        assert run(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot parse {where} file:") and err.count("\n") == 1
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("where", ["family", "generators", "target"])
    @pytest.mark.parametrize("value", ["1_0/3", "\u0663/4", "1e1_0", "2/\u0663"])
    def test_decimal_text_in_ascii_digits_only(self, tmp_path, capsys, where, value):
        docs = {
            "family": json.dumps([{"name": "c", "terms": [{"profile": "majority", "coeff": value}]}]),
            "generators": json.dumps({"coords": {"1": value}}) + '\n{"coords": {"2": "1"}}\n',
            "target": json.dumps({"targets": [["2", value]]}),
        }
        out = tmp_path / "x.json"
        assert run(input_files_run(tmp_path, where, docs[where]) + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot parse {where} file:") and "malformed rational" in err
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("where", ["family", "generators", "target"])
    @pytest.mark.parametrize("literal", ["NaN", "-Infinity", pytest.param("7" * 4301, id="4301 digits"), "1e4301"])
    def test_number_literal_refused_as_its_quoted_text(self, tmp_path, capsys, where, literal):
        # a JSON number is read where its value is read, so a refused literal
        # gives the same line, position included, as its text in quotes
        def docs(value):
            return {
                "family": '[{"name": "a", "terms": [{"profile": "majority"}]},'
                          ' {"name": "c", "terms": [{"profile": "majority", "coeff": %s}]}]' % value,
                "generators": '{"coords": {"1": "1"}}\n{"coords": {"2": %s}}\n' % value,
                "target": '{"targets": [["2"], ["1", %s]]}' % value,
            }[where]

        errs = []
        for value in (literal, f'"{literal}"'):
            out = tmp_path / "x.json"
            assert run(input_files_run(tmp_path, where, docs(value)) + ["--out", str(out)]) == 2
            errs.append(capsys.readouterr().err)
            assert not out.exists()
        prefix = {"family": "combo 1: ", "generators": "generator line 2: "}.get(where, "")
        assert errs[0] == errs[1] and errs[0].startswith(f"cannot parse {where} file: {prefix}")

    @pytest.mark.parametrize("key", ["1_0", "\u0663", "x"])
    def test_coordinate_keys_in_ascii_digits_only(self, tmp_path, capsys, key):
        out = tmp_path / "x.json"
        gens = json.dumps({"coords": {key: "1"}}) + '\n{"coords": {"2": "1"}}\n'
        assert run(input_files_run(tmp_path, "generators", gens) + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"cannot parse generators file: generator line 1: malformed coordinate {key!r}\n"
        assert not out.exists()


    @settings(max_examples=40, deadline=None)
    @given(text=JSON_NUMBERS)
    @example(text="12345678901234567890.5")
    @example(text="1e400")
    @example(text="-0")
    @example(text="NaN")
    @pytest.mark.parametrize("where", ["family", "generators", "target"])
    def test_json_numbers_read_from_their_text(self, tmp_path_factory, where, text):
        # a JSON number in any input file is the value parse_rational gives
        # its literal text, or the run exits 2 with one line and no report
        docs = {
            "family": '[{"name": "c", "terms": [{"profile": "majority", "coeff": %s}]}]' % text,
            "generators": '{"coords": {"1": %s}}\n{"coords": {"2": "1"}}\n' % text,
            "target": '{"targets": [[%s]]}' % text,
        }
        tmp = tmp_path_factory.mktemp("numbers")
        out = tmp / "x.json"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(input_files_run(tmp, where, docs[where]) + ["--out", str(out)])
        try:
            value = parse_rational(text)
        except ValueError:
            assert code == 2 and err.getvalue().startswith(f"cannot parse {where} file:"), (code, err.getvalue())
            assert err.getvalue().count("\n") == 1 and not out.exists()
            return
        doc = json.loads(out.read_text(encoding="utf-8"))
        if where == "family":
            assert code == 0 and doc["rows"][0]["norm_bound"] == format_rational(abs(value))
        elif where == "target":
            assert code == 0 and doc["expansions"][0]["target"] == [format_rational(value), "0"]
        elif value:  # b_1 is g_1 / value
            assert code == 0 and doc["basis"]["vectors"][0]["combination"] == {"0": format_rational(1 / value)}
        else:
            assert code == 1 and doc["density"]["status"] == "NOT_DENSE"

    @pytest.mark.parametrize(
        "where, text, line",
        [
            ("family", '[{"name": "c", "terms": [{"profile": "majority", "coeff": "1", "coeff": "2"}]}]',
             "key 'coeff' given twice"),
            ("target", '{"targets": [["1"]], "targets": [["2"]]}', "key 'targets' given twice"),
            ("generators", '{"coords": {"1": "1"}, "coords": {"2": "1"}}\n',
             "generator line 1: key 'coords' given twice"),
        ],
    )
    def test_repeated_key_parse_error(self, tmp_path, capsys, where, text, line):
        # json alone keeps the last value of a repeated key
        out = tmp_path / "x.json"
        assert run(input_files_run(tmp_path, where, text) + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"cannot parse {where} file: {line}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "where, text, line",
        [
            ("family", '[{"name": 1.5, "terms": []}]', "combo 0: name must be a string, got number"),
            ("family", '[{"terms": [{"profile": 3}]}]', "combo 0: unknown profile number"),
            ("family", '[{"terms": [{"type": 2, "profile": "majority"}]}]', "combo 0: unknown term type number"),
            ("family", '[{"terms": [[1]]}]', "combo 0: term must be an object, got array"),
            ("family", '[{"terms": [{"profile": "majority", "g_const": true}]}]',
             "combo 0: g_const requires int, Fraction or str values, got boolean"),
            ("target", '{"targets": [1]}', "target must be a list, got number"),
            ("target", '{"targets": [[null]]}', "target requires int, Fraction or str values, got null"),
            ("generators", "3\n", "generator line 1: generator must be an object, got number"),
            ("generators", '{"coords": [1]}\n', "generator line 1: coords must be an object, got array"),
            ("generators", '{"coords": {"1": {}}}\n',
             "generator line 1: GeneratorSet requires int, Fraction or str values, got object"),
        ],
    )
    def test_refusal_names_the_json_type(self, tmp_path, capsys, where, text, line):
        # a decoded number is a Fraction: no error line shows its repr, or a
        # TypeError text of the encoder or a subscript
        out = tmp_path / "x.json"
        assert run(input_files_run(tmp_path, where, text) + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"cannot parse {where} file: {line}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, text, argv, line",
        [("g.jsonl", '{"coords": {"1": "1"}, "weight": "2"}\n', ["--generators", "g.jsonl"],
          "cannot parse generators file: generator line 1: unknown generator key 'weight'; a generator reads coords"),
         ("t.json", '{"targets": [["5"]], "target": [["7"]]}', ["--target", "t.json"],
          "cannot parse target file: unknown target document key 'target'; a target document reads targets")],
        ids=["generator-line", "target-document"],
    )
    def test_unknown_key_refused(self, tmp_path, capsys, monkeypatch, name, text, argv, line):
        # a misspelt key beside coords or targets was dropped with exit 0
        monkeypatch.chdir(tmp_path)
        Path("g.jsonl").write_text('{"coords": {"1": "1"}}\n', encoding="utf-8")
        Path("t.json").write_text('{"targets": [["5"]]}', encoding="utf-8")
        Path(name).write_text(text, encoding="utf-8")
        argv = ["schauder", "--generators", "g.jsonl", "--n", "1", "--horizon", "1", "--target", "t.json", *argv]
        assert run(argv + ["--out", "o.json"]) == 2
        assert capsys.readouterr().err == line + "\n"
        assert not Path("o.json").exists()

    LONG = "p" * 4990 + "0123456789"  # a 5000-character profile name or key

    @pytest.mark.parametrize(
        "where, text, line",
        [("family", json.dumps([{"name": "c", "terms": [{"profile": LONG}]}]),
          f"combo 0: unknown profile {quoted(LONG)}"),
         ("generators", json.dumps({"coords": {"1": "1"}, LONG: "2"}) + "\n",
          f"generator line 1: unknown generator key {quoted(LONG)}; a generator reads coords"),
         ("target", '{"targets": [["1"]], "%s": 1, "%s": 2}' % (LONG, LONG), f"key {quoted(LONG)} given twice")],
        ids=["unknown-profile", "unknown-key", "repeated-key"],
    )
    def test_long_name_or_key_quoted_short(self, tmp_path, capsys, where, text, line):
        # the line quotes 20 characters at each end and gives the length,
        # not five kilobytes of the name
        out = tmp_path / "x.json"
        assert run(input_files_run(tmp_path, where, text) + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"cannot parse {where} file: {line}\n"
        assert len(err.encode()) < 200 and "(5000 characters)" in err and not out.exists()

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("kind", INPUT_OBJECTS)
    def test_every_input_object_refuses_an_unread_key_or_type(self, tmp_path_factory, kind, data):
        # an undocumented key, or a documented key holding a value of a JSON
        # type its reader does not read, in a combo, a term, a generator line
        # or the target document: exit 2, one line naming the key, no report
        where, what, prefix, base = INPUT_OBJECTS[kind]
        doc = json.loads(json.dumps(base))
        obj = doc[0]["terms"][0] if kind == "term" else doc[0] if kind == "combo" else doc
        if data.draw(st.booleans(), label="unknown key"):
            key = data.draw(st.text(max_size=6).filter(lambda k: k not in KEYS_READ[kind]), label="key")
            obj[key] = data.draw(JSON_VALUES, label="value")
            reads = ", ".join(KEYS_READ[kind])
            expected = f"cannot parse {where} file: {prefix}unknown {what} key {key!r}; a {what} reads {reads}\n"
        else:
            key = data.draw(st.sampled_from(KEYS_READ[kind]), label="key")
            obj[key] = data.draw(JSON_VALUES.filter(lambda v: json_type(v) not in READ_TYPES[key]), label="value")
            expected = None
        text = json.dumps(doc) + ("\n" if where == "generators" else "")
        tmp = tmp_path_factory.mktemp("keys")
        out = tmp / "x.json"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(input_files_run(tmp, where, text) + ["--out", str(out)])
        line = err.getvalue()
        assert code == 2 and line.count("\n") == 1 and not out.exists(), (code, line)
        assert line == expected if expected else line.startswith(f"cannot parse {where} file: {prefix}") and key in line

    @pytest.mark.parametrize("digits", [4300, 4301])
    @pytest.mark.parametrize(
        "where, position",
        [(where, position) for where in ("family", "generators", "target")
         for position in (*DIGIT_PARTS, "exponent digits", "JSON integer literal")]
        + [("generators", "coordinate key")],
    )
    def test_decimal_parts_at_and_past_the_limit(self, tmp_path, capsys, where, position, digits):
        # a part of 4300 digits reads exactly; one more is kslab's own line,
        # never CPython's int limit text, which points at a Python API
        if position == "coordinate key":
            key = "0" * (digits - 1) + "1"
            value, literal, text = Fraction(1), '"1"', key
        elif position == "exponent digits":
            text = "1e" + "0" * (digits - 1) + "1"
            value, literal, key = Fraction(10), f'"{text}"', "1"
        elif position == "JSON integer literal":
            text = "7" * digits
            value, literal, key = Fraction(repdigit(7, digits)), text, "1"
        else:
            text, value = DIGIT_PARTS[position](digits)
            literal, key = f'"{text}"', "1"
        docs = {
            "family": '[{"name": "c", "terms": [{"profile": "majority", "coeff": %s}]}]' % literal,
            "generators": '{"coords": {"%s": %s}}\n{"coords": {"2": "1"}}\n' % (key, literal),
            "target": '{"targets": [[%s]]}' % literal,
        }
        out = tmp_path / "x.json"
        code = run(input_files_run(tmp_path, where, docs[where]) + ["--out", str(out)])
        err = capsys.readouterr().err
        if digits == 4301:
            # a number literal is refused where its combo is read, as the same text quoted is
            prefix = {"family": "combo 0: ", "generators": "generator line 1: "}.get(where, "")
            # the line quotes the 4301-or-more-character text by its first and
            # last 20 characters and its length, not whole
            if position == "exponent digits":
                rest = f"exponent past 4300 in magnitude in {quoted(text)}"
            else:
                advice = "" if position == "coordinate key" else "; write it in 0x hex"
                rest = f"decimal part past 4300 digits in {quoted(text)}{advice}"
            assert code == 2 and err == f"cannot parse {where} file: {prefix}{rest}\n" and not out.exists()
            assert len(err) <= 200
            return
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert code == 0 and err == ""
        if where == "family":
            assert doc["rows"][0]["norm_bound"] == format_rational(abs(value))
        elif where == "target":
            assert doc["expansions"][0]["target"] == [format_rational(value), "0"]
        else:
            assert doc["basis"]["vectors"][0]["combination"] == {"0": format_rational(1 / value)}


class TestParserReuse:
    def test_main_three_times_in_one_process(self, tmp_path, capsys):
        # a usage error, a good run and the usage error again, against fresh
        # processes: the parser keeps nothing between calls
        bad = ["sup", "--n", "5", "--brute", "--out", str(tmp_path / "bad.json")]
        good = ["sup", "--n", "13", "--out", str(tmp_path / "inproc.json")]
        got = []
        for argv in (bad, good, bad):
            code = main(argv)
            captured = capsys.readouterr()
            got.append((code, captured.out, captured.err))
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        fresh = []
        for argv in (bad, [*good[:-1], str(tmp_path / "fresh.json")]):
            proc = subprocess.run([sys.executable, "-m", "kslab.cli", *argv], env=env, capture_output=True, text=True)
            fresh.append((proc.returncode, proc.stdout, proc.stderr))
        assert got[0] == got[2] == fresh[0]
        assert fresh[0][0] == 2 and fresh[0][1] == ""
        assert [line.startswith("usage:") for line in fresh[0][2].splitlines()] == [True, False]
        assert got[1][0] == fresh[1][0] == 0
        assert got[1][1].replace("inproc.json", "fresh.json") == fresh[1][1]
        assert (tmp_path / "inproc.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()
        assert not (tmp_path / "bad.json").exists()


# The argv vocabulary of the front-end property: every subcommand and flag,
# prefixes (--n names --n-max under verify; --st, --h and --stream are
# ambiguous somewhere), and values that look like options, negative numbers,
# hex, a non-ASCII digit, "-", "--" and text with a space.
CLI_COMMANDS = list(cli.COMMANDS)
CLI_FLAGS = sorted({flag for _, options in cli.COMMANDS.values() for flag in options}) + [
    "-h", "--help", "--st", "--h", "--stream"]
CLI_VALUES = ["5", "-1", "-.5", "-x", "0x3", "\u0663", "-", "--", "a b", "-h"]
# argparse reads "--out=--" as an empty list (it drops the "--"), with which
# the commands then failed; the table parser reads the text "--" there
# (TestFrontEnd.test_explicit_double_dash), so the property leaves it out
CLI_TOKENS = st.one_of(
    st.sampled_from(CLI_COMMANDS + CLI_FLAGS + CLI_VALUES),
    st.tuples(st.sampled_from(CLI_FLAGS), st.sampled_from([v for v in CLI_VALUES if v != "--"])).map("=".join),
)
# the range checks: argparse failed them through the top-level parser, the
# table parser through the subcommand's, with the same message
RANGE_ERRORS = {"--n-max must be >= 1", "--n must be >= 1", "--stream-step must be >= 1",
                "--horizon must be >= --n", "--brute is limited to n <= 4"}


@st.composite
def cli_argvs(draw):
    """A subcommand (or not), often with its required options, then up to
    six tokens of the vocabulary."""
    argv = []
    if draw(st.integers(0, 9)):
        command = draw(st.sampled_from(CLI_COMMANDS))
        argv.append(command)
        if draw(st.booleans()):
            for flag, (_, default, _) in cli.COMMANDS[command][1].items():
                if default is cli.REQUIRED:
                    argv += [flag, draw(st.sampled_from(["1", "2", "5"]))]
    return argv + draw(st.lists(CLI_TOKENS, max_size=6))


def parse_quietly(argv):
    """(exit code, option values or None, stderr) of argv through the table
    parser and the range checks."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            args = cli.parse_args(argv)
            cli._validate(args)
        except SystemExit as exc:
            return int(exc.code or 0), None, err.getvalue()
    return 0, vars(args), err.getvalue()


class TestFrontEnd:
    @settings(max_examples=400, deadline=None)
    @given(argv=cli_argvs())
    @example(argv=["verify", "--n", "3", "--out", "5"])
    @example(argv=["schauder", "--h"])
    @example(argv=["sup", "--n", "3", "--out", "--brute"])
    @example(argv=["subseq", "--st", "5", "--n", "1", "--family", "5", "--out", "5"])
    @example(argv=["sup", "--out", "-.5", "--n=-1"])
    @example(argv=["--", "sup"])
    def test_matches_the_argparse_parser(self, argv):
        # same exit code, the same values on success, and on exit 2 one
        # usage line and one error line, argparse's own where argparse
        # failed the parse (its usage line may wrap)
        code, values, err = parse_quietly(argv)
        want_code, want_values, want_err = argparse_parse(argv)
        assert code == want_code, (argv, err, want_err)
        assert values == want_values, argv
        if code != 2:
            assert err == want_err == "", argv
            return
        lines, want = err.splitlines(), want_err.splitlines()
        assert len(lines) == 2 and lines[0].startswith("usage: kslab") and ": error: " in lines[1], err
        message = want[-1].partition(": error: ")[2]
        if message in RANGE_ERRORS:
            assert lines == [cli._usage(argv[0]), f"kslab {argv[0]}: error: {message}"], argv
        else:
            assert lines == [" ".join(" ".join(want[:-1]).split()), want[-1]], argv

    def test_prefix_equals_and_last_value_wins(self):
        args = cli.parse_args(["verify", "--n", "3", "--ou=a", "--out", "b", "--n-max=7"])
        assert vars(args) == {"command": "verify", "n_max": 7, "out": "b"}

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["subseq", "--st", "3"], "kslab subseq: error: ambiguous option: --st could match --stream-start, --stream-step"),
            (["schauder", "--h=2"], "kslab schauder: error: ambiguous option: --h=2 could match --help, --horizon"),
            (["sup", "--n", "3"], "kslab sup: error: the following arguments are required: --out"),
            (["sup", "--n", "3", "--brute=1", "--out", "x"], "kslab sup: error: argument --brute: ignored explicit argument '1'"),
            (["sup", "--n", "x", "--out", "o"], "kslab sup: error: argument --n: invalid int value: 'x'"),
            (["sup", "--n", "3", "--out", "-x"], "kslab sup: error: argument --out: expected one argument"),
            (["sup", "--n", "0", "--out", "o"], "kslab sup: error: --n must be >= 1"),
            (["sup", "--n", "3", "--out", "o", "7"], "kslab: error: unrecognized arguments: 7"),
            (["size"], "kslab: error: argument command: invalid choice: 'size' "
                       "(choose from 'verify', 'subseq', 'schauder', 'sup')"),
        ],
    )
    def test_usage_errors(self, capsys, argv, line):
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[1:] == [line] and err[0] == cli._usage(argv[0] if line.startswith("kslab " + argv[0]) else None)

    def test_value_starting_with_a_dash_is_refused(self, tmp_path, monkeypatch, capsys):
        # "--brute" is the next option, not a file name; "-" and "-1" are values
        monkeypatch.chdir(tmp_path)
        assert main(["sup", "--n", "3", "--out", "--brute"]) == 2
        assert list(tmp_path.iterdir()) == []
        assert vars(cli.parse_args(["subseq", "--n", "1", "--family", "-", "--out", "-1"]))["out"] == "-1"

    def test_explicit_double_dash(self):
        assert cli.parse_args(["sup", "--n", "3", "--out=--"]).out == "--"

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["sup", "--he"], ["schauder", "-h", "--n", "x"]])
    def test_help_exits_0(self, capsys, argv):
        assert main(argv) == 0
        command = argv[0] if argv[0] in cli.COMMANDS else None
        out = capsys.readouterr().out
        assert out.startswith(cli._usage(command) + "\n")
        names = list(cli.COMMANDS[command][1] if command else cli.COMMANDS)
        assert all(f"  {name}" in out for name in names)


# nonzero rationals in every spelling a file may use (a JSON number reads as
# its text), values no parser accepts, and text that is never valid JSON
RATIONALS = st.sampled_from(["1", "-2/3", "0x10", " 3 ", "1.5", "1e3", "5/4", 0.5, -7])
BAD_VALUES = st.sampled_from(["1/0", "x", "", "1//2", None, True, [1], {}])
BAD_OPTIONS = st.sampled_from(["0", "-1", "x", "", "1.5", "0x3"])
JUNK = st.text(alphabet='[]":,0123456789/-.abcx \n', max_size=40).map(lambda s: "{" + s)


@st.composite
def schauder_runs(draw):
    """A dense family on 1..n+1 (generator k has a nonzero coordinate k,
    then random ones after it), shuffled, with at most one fault: generator
    1 missing (exit 1), or a malformed line, option or target file (exit 2)."""
    n = draw(st.integers(1, 4))
    horizon = n + draw(st.integers(0, 3))
    fault = draw(st.sampled_from(["none", "none", "none", "missing", "line", "n", "horizon", "target"]))
    lines = []
    for k in range(1, n + 2):
        coords = {str(k): draw(RATIONALS)}
        for extra in draw(st.lists(st.integers(k + 1, k + 6), max_size=3)):
            coords[str(extra)] = draw(RATIONALS)
        lines.append(json.dumps({"coords": coords}))
    if fault == "missing":
        lines.pop(0)
    lines = draw(st.permutations(lines))
    if fault == "line":
        bad = st.one_of(JUNK, BAD_VALUES.map(lambda v: json.dumps({"coords": {"1": v}})),
                        st.sampled_from(['{"coords": {"0": "1"}}', '{"coords": {"1": "1", "01": "2"}}', "[1]"]))
        lines.insert(draw(st.integers(0, len(lines))), draw(bad))
    options = {"n": str(n), "horizon": str(horizon)}
    if fault in options:
        options[fault] = draw(st.one_of(BAD_OPTIONS, st.just(str(n - 1))))
    argv = ["schauder", "--generators", "gens.jsonl", "--n", options["n"], "--horizon", options["horizon"]]
    files = {"gens.jsonl": "\n".join(lines) + "\n"}
    if fault == "target" or draw(st.booleans()):
        targets = st.lists(st.lists(RATIONALS, max_size=horizon + 2), max_size=3)
        bad = st.one_of(JUNK, st.lists(BAD_VALUES, min_size=1, max_size=2).map(lambda v: {"targets": [v]}),
                        st.sampled_from([{"targets": "1"}, [["1"]], {"targets": [1]}]))
        doc = draw(bad) if fault == "target" else {"targets": draw(targets)}
        files["targets.json"] = doc if isinstance(doc, str) else json.dumps(doc)
        argv += ["--target", "targets.json"]
    if fault == "n" and options["n"] == str(n - 1) != "0":
        fault = "none"  # a shorter basis of the same family
    return argv, files, {"none": 0, "missing": 1}.get(fault, 2)


PROFILES = ["sign_centered", "linear_centered", "abs_centered", "majority", "constant_one"]
# family coefficients: decimal, hex and mixed text, zero, JSON numbers; and
# values no parser accepts, a zero denominator and the signed or spaced
# hex forms included
COEFFS = st.sampled_from(["1", "-2/3", " 3 ", "1.5", "1e3", "0x10", "-0x3/0x4", "3/0x10", "0", 0.5, -7, 0, 2])
BAD_COEFFS = st.one_of(
    BAD_VALUES, st.sampled_from(["0x1/0x0", "0x1/-0x2", "0x5/+0x2", "0x3 / 0x4", "1/-2"])
)


@st.composite
def subseq_runs(draw):
    """A family of up to three combinations for subseq --n <= 4, with at
    most one fault: an unknown profile, a malformed coefficient, a name
    that is not a string, an unknown key, or the list wrapped in an object
    (exit 2).  Every well-formed family passes (exit 0): at n <= 4 each
    partial sum is at most 1.34 norm_bound, and the bound
    8 norm_bound (P + tail) / sqrt(pi) is at least 4.5 norm_bound."""
    fault = draw(st.sampled_from(["none", "none", "none", "profile", "coeff", "name", "key", "wrap"]))
    combos = []
    for _ in range(draw(st.integers(0, 3))):
        terms = []
        for _ in range(draw(st.integers(0, 3))):
            term = {"type": "symmetric"} if draw(st.booleans()) else {}
            term["profile"] = draw(st.sampled_from(PROFILES))
            for key in ("coeff", "g_const"):
                if draw(st.booleans()):
                    term[key] = draw(COEFFS)
            terms.append(term)
        combo = {"terms": terms}
        if draw(st.booleans()):
            combo["name"] = draw(st.text(max_size=4))
        combos.append(combo)
    if fault in ("profile", "coeff", "name", "key"):
        if not combos:
            combos.append({"terms": []})
        combo = draw(st.sampled_from(combos))
        if fault == "profile":
            combo["terms"].append({"profile": draw(st.sampled_from(["Majority", "sign", "", 3, None]))})
        elif fault == "coeff":
            key = draw(st.sampled_from(["coeff", "g_const"]))
            combo["terms"].append({"profile": "majority", key: draw(BAD_COEFFS)})
        elif fault == "name":
            combo["name"] = draw(st.sampled_from([None, 0, 1.5, ["sgn"]]))
        elif draw(st.booleans()):
            combo["terms"].append({"profile": "majority", "coef": "1/2"})
        else:
            combo["weight"] = "1"
    doc = {"family": combos} if fault == "wrap" else combos
    argv = ["subseq", "--n", str(draw(st.integers(1, 4))), "--family", "family.json"]
    return argv, {"family.json": json.dumps(doc)}, 0 if fault == "none" else 2


def rederived_verdicts(doc):
    """Each row's verdict from the report's own exact fields, in integers:
    PASS iff last = 0 or last^2 PI.upper < (8 nb (P + tail))^2; and the
    overall verdict they give."""
    cert = doc["certificate"]
    total = parse_rational(cert["partial_sum_upper"]) + parse_rational(cert["tail_bound"])
    rows = []
    for row in doc["rows"]:
        last = parse_rational(row["partial_sums"][-1])
        bound = 8 * parse_rational(row["norm_bound"]) * total
        lhs = last.numerator**2 * bound.denominator**2 * PI.upper.numerator
        rhs = bound.numerator**2 * last.denominator**2 * PI.upper.denominator
        rows.append("PASS" if last == 0 or lhs < rhs else "FAIL")
    overall = "VACUOUS" if not rows else "PASS" if set(rows) == {"PASS"} else "FAIL"
    return rows, overall


@st.composite
def cli_runs(draw):
    """(argv without --out, {file name: text}, expected exit code) for
    verify, sup or schauder."""
    command = draw(st.sampled_from(["verify", "sup", "schauder", "schauder"]))
    value = draw(st.one_of(st.integers(1, 9).map(str), BAD_OPTIONS))
    valid = value.isdigit() and int(value) >= 1
    if command == "verify":
        return ["verify", "--n-max", value], {}, 0 if valid else 2
    if command == "sup":
        brute = draw(st.booleans())
        return ["sup", "--n", value] + ["--brute"] * brute, {}, 0 if valid and (not brute or int(value) <= 4) else 2
    return draw(schauder_runs())


def run_quietly(run_spec, tmp):
    """Write the run's files into tmp and run it: (exit code, stderr, report path)."""
    argv, files, _ = run_spec
    for name, text in files.items():
        (tmp / name).write_text(text, encoding="utf-8")
    argv = [str(tmp / a) if a in files else a for a in argv]
    out = tmp / "report.json"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(argv + ["--out", str(out)])
    return code, err.getvalue(), out


def exact_texts(doc, key=None):
    """Every exact or decimal text of a report, with its key: each string but
    the verdict words and the witness bitsets."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from exact_texts(v, k)
    elif isinstance(doc, list):
        for v in doc:
            yield from exact_texts(v, key)
    elif isinstance(doc, str) and key not in {"lower_ok", "upper_ok", "bound2", "bound3", "method",
                                              "status", "overall", "A_bits", "B_bits"}:
        yield key, doc


class TestCliContract:
    @settings(max_examples=150, deadline=None)
    @given(run_spec=cli_runs())
    def test_exit_codes_and_reports(self, tmp_path_factory, run_spec):
        # every input ends in its exit code, 0, 1 or 2, with no traceback, and
        # an exit-0 report reads back through the report layer's parse side
        code, err, out = run_quietly(run_spec, tmp_path_factory.mktemp("contract"))
        assert code == run_spec[2] and "Traceback" not in err, (run_spec, err)
        if code == 2:
            assert not out.exists()
        if code == 0:
            for key, text in exact_texts(json.loads(out.read_text(encoding="utf-8"))):
                value = parse_rational(text)
                if not key.endswith("_decimal"):
                    assert format_rational(value) == text, (key, text)

    @settings(max_examples=100, deadline=None)
    @given(run_spec=subseq_runs())
    # a signed hex denominator once read as a negative coefficient
    @example(run_spec=(["subseq", "--n", "2", "--family", "family.json"],
                       {"family.json": '[{"terms": [{"profile": "majority", "coeff": "0x1/-0x2"}]}]'}, 2))
    def test_family_documents(self, tmp_path_factory, run_spec):
        # a family file ends in its exit code with no traceback, exit 2
        # writes no report, and every verdict of a report re-derives from
        # its exact fields alone: norm_bound, the last partial sum, and the
        # certificate's partial_sum_upper and tail_bound
        code, err, out = run_quietly(run_spec, tmp_path_factory.mktemp("family"))
        assert code == run_spec[2] and "Traceback" not in err, (run_spec, err)
        if code == 2:
            assert not out.exists()
            return
        doc = json.loads(out.read_text(encoding="utf-8"))
        rows, overall = rederived_verdicts(doc)
        assert [row["verdict"] for row in doc["rows"]] == rows
        assert doc["verdict"] == overall and (code == 0) == (overall != "FAIL")
        n = int(run_spec[0][2])
        assert len(rows) == len(json.loads(run_spec[1]["family.json"]))
        assert all(len(row["partial_sums"]) == n for row in doc["rows"])


class TestErrorBoundary:
    def test_only_main_maps_failures_to_exit_codes(self):
        # the subcommands neither catch nor return 2: _load and main decide
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        commands = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name.startswith("cmd_")]
        assert {f.name for f in commands} == {"cmd_verify", "cmd_subseq", "cmd_schauder", "cmd_sup"}
        for f in commands:
            nodes = list(ast.walk(f))
            assert not any(isinstance(node, ast.Try) for node in nodes), f.name
            returns = [node.value for node in nodes if isinstance(node, ast.Return)]
            assert not any(isinstance(v, ast.Constant) and v.value == 2 for v in returns), f.name


class TestImports:
    def test_cli_import_loads_no_scipy(self):
        # the package module re-exports nothing, so no subcommand pays for
        # the LP layer of basic_seq_diag; and kslab needs nothing beyond the
        # standard library, so importing the CLI loads no third-party module
        code = (
            "import sys; before = set(sys.modules); import kslab, kslab.cli; "
            "print(sorted(m for m in ('scipy', 'kslab.basic_seq_diag') if m in sys.modules)); "
            "print(sorted(m for m in set(sys.modules) - before if m.partition('.')[0] "
            "not in sys.stdlib_module_names and m.partition('.')[0] != 'kslab'))"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout.split("\n")[:2] == ["[]", "[]"]

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--n-max", "6"], ["sup", "--n", "4", "--brute"]],
        ids=["verify", "sup-brute"],
    )
    def test_runs_without_site_packages(self, tmp_path, argv):
        # python -S leaves site-packages off sys.path: the subcommands run on
        # the standard library alone and write what an in-process run writes
        inproc, isolated = tmp_path / "inproc.json", tmp_path / "isolated.json"
        assert run(argv + ["--out", str(inproc)]) == 0
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-S", "-m", "kslab.cli", *argv, "--out", str(isolated)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert isolated.read_bytes() == inproc.read_bytes()

    def test_import_loads_no_dataclasses_or_inspect(self):
        # records are NamedTuples and slotted classes, so a cold start pays
        # for neither dataclasses nor the inspect, ast and dis it loads;
        # -S keeps site hooks from preloading either
        code = (
            "import sys, kslab.cli, kslab.basic_seq_diag; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "[]"

    def test_cli_import_loads_no_argparse_gettext_or_locale(self):
        # kslab.cli reads argv against its own table: argparse loads gettext,
        # whose first message loads locale, about 2-3 ms of a cold start
        code = (
            "import sys; before = set(sys.modules); import kslab.cli; "
            "print(sorted({'argparse', 'gettext', 'locale'} & (set(sys.modules) - before)))"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "[]"

    def test_diag_import_loads_no_scipy_or_numpy(self):
        # projection norms come from the exact vertex simplex, with no float library
        code = (
            "import kslab.basic_seq_diag, sys; "
            "print(sorted(m for m in ('scipy', 'numpy') if m in sys.modules))"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "[]"
