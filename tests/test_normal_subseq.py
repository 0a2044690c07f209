"""Subsequence extraction rule, summability certificates, and the
bounded-partial-sum verification of tensor families."""

import itertools
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kslab import ks_measure
from kslab.exactnum import PI, central_binomial
from kslab.ks_measure import build
from kslab.normal_subseq import _combo_row, extract, strongly_normal_report
from kslab.report import (
    GREEDY_RULE,
    certificate_to_json,
    combo_row,
    format_rational,
    parse_rational,
    subseq_report,
)
from kslab.tensor_bounds import SymmetricTerm, TensorCombo
from oracles import eval_symmetric, greedy_walk, profile_table, sqrt_enclosure, standard_test_family


def partial_sum_check(cert, h):
    """The report row of h over the whole certificate, its exact fields read back."""
    row = subseq_report(strongly_normal_report(cert, [h]))["rows"][0]
    return SimpleNamespace(
        norm_bound=parse_rational(row["norm_bound"]),
        partial_sums=tuple(map(parse_rational, row["partial_sums"])),
        certified=row["verdict"] == "PASS",
    )


class TestExtract:
    def test_rule_on_full_stream(self):
        # by hand: s1 = 1; then max(2, 16) = 16; max(17, 81) = 81; max(82, 256)
        assert extract(1, 1, 4).indices == (1, 16, 81, 256)

    def test_rule_on_even_stream(self):
        # first even >= 1 is 2; first even >= max(3, 16) is 16
        assert extract(2, 2, 2).indices == (2, 16)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            extract(1, 1, 0)

    @pytest.mark.parametrize("step", [0, -1])
    def test_nonpositive_step_rejected(self, step):
        with pytest.raises(ValueError, match="step"):
            extract(1, step, 3)

    @pytest.mark.parametrize(
        "start, step, indices",
        [
            # 3 + 7k: least >= 16 is 17, >= 81 is 87, >= max(88, 256) is 262
            (3, 7, (3, 17, 87, 262, 626, 1298, 2404, 4098, 6562)),
            # past every threshold: k = 0 at the first position, then one step each
            (20000, 1, (20000, 20001, 20002)),
            (20000, 5, (20000, 20005, 20010)),
            # the walk would consume 10^15 + 1 elements before its first pick
            (-(10**15), 1, (1, 16)),
            (-(10**15) + 1, 3, (3, 18)),
        ],
        ids=["step-7", "late-start", "late-start-step-5", "far-negative", "far-negative-step-3"],
    )
    def test_closed_form_on_hand_picked_streams(self, start, step, indices):
        assert extract(start, step, len(indices)).indices == indices

    @settings(max_examples=200, deadline=None)
    @given(
        start=st.integers(-100, 10**5),
        step=st.integers(1, 100),
        length=st.integers(1, 10),
    )
    def test_closed_form_matches_the_walk(self, start, step, length):
        assert extract(start, step, length).indices == greedy_walk(itertools.count(start, step), length)

    def test_walk_on_a_non_arithmetic_stream(self):
        # the oracle's rule on the cubes: 1, then the first cube >= 16, 81, 256
        assert greedy_walk((k**3 for k in itertools.count(1)), 4) == (1, 27, 125, 343)

    def test_indices_dominate_fourth_powers(self):
        cert = extract(3, 7, 12)
        for pos, (s, u) in enumerate(zip(cert.indices, cert.recip_upper), 1):
            assert s >= pos**4
            assert u <= Fraction(1, pos * pos)

    def test_partial_sum_is_exact_on_perfect_squares(self):
        cert = extract(1, 1, 8)
        assert cert.partial_sum_upper == sum(Fraction(1, i * i) for i in range(1, 9))
        assert cert.tail_bound == Fraction(1, 8)

    def test_total_bound_nonincreasing_in_length(self):
        totals = [extract(1, 1, n).total_bound for n in range(1, 9)]
        assert all(a >= b for a, b in zip(totals, totals[1:]))


class TestPartialSums:
    def test_zero_combination(self):
        cert = extract(1, 1, 3)
        check = partial_sum_check(cert, TensorCombo(terms=(), name="zero"))
        assert check.partial_sums == (0, 0, 0)
        assert check.certified
        assert check.norm_bound == 0  # so the bound 8 nb (P + tail) / sqrt(pi) is 0

    def test_constant_profile_vanishes_with_positive_bound(self):
        cert = extract(1, 1, 3)
        h = TensorCombo(terms=(SymmetricTerm("constant_one"),), name="ones")
        check = partial_sum_check(cert, h)
        assert all(p == 0 for p in check.partial_sums)
        assert check.norm_bound > 0 and cert.total_bound > 0

    def test_partial_sums_nondecreasing_and_certified(self):
        cert = extract(1, 1, 4)
        for h in standard_test_family():
            check = partial_sum_check(cert, h)
            ps = check.partial_sums
            assert all(a <= b for a, b in zip(ps, ps[1:]))
            assert check.certified
            # ps[-1] < 8 nb (P + tail) / sqrt(pi), squared against PI.upper > pi
            assert ps[-1] ** 2 * PI.upper <= (8 * h.norm_bound * cert.total_bound) ** 2

    @pytest.mark.parametrize(
        "coeffs", [(1, -1), (Fraction(1, 4), Fraction(3, 2))], ids=["minus-majority", "quarter-three-halves"]
    )
    def test_mixed_sign_family_against_fraction_accumulation(self, coeffs):
        # 1/s - c_s changes sign along the indices; 1/4 and 3/2 give values
        # whose odd part and power of two both move
        h = TensorCombo(
            terms=(
                SymmetricTerm("linear_centered", coeff=Fraction(coeffs[0])),
                SymmetricTerm("majority", coeff=Fraction(coeffs[1])),
            ),
            name="mixed",
        )
        cert = extract(1, 1, 7)
        check = partial_sum_check(cert, h)
        running, values = Fraction(0), []
        for s, reported in zip(cert.indices, check.partial_sums, strict=True):
            m = build(s)
            value = sum(
                t.coeff * eval_symmetric(m, profile_table(t.profile, s), t.g_const * s) for t in h.terms
            )
            values.append(value)
            running += abs(value)
            assert reported == running, s
        if coeffs[1] < 0:
            assert min(values) < 0 < max(values)
        # every prefix, not only the last, against 8 nb (P + tail) / sqrt(pi)
        bound_sq = 64 * h.norm_bound**2 * cert.total_bound**2
        assert check.certified == all(p * p * PI.upper <= bound_sq for p in check.partial_sums)
        assert check.certified

    def test_uniform_bound_below_743_hundredths_of_ten(self):
        # with norm_bound 1 the bound tends to (8/sqrt(pi)) * pi^2/6 < 7.43;
        # 8 T / sqrt(pi) <= 7.43 follows from (8 T)^2 <= 7.43^2 PI.lower < 7.43^2 pi
        cert = extract(1, 1, 32)
        assert (8 * cert.total_bound) ** 2 <= Fraction(743, 100) ** 2 * PI.lower


class FixedValues:
    """A TensorCombo stand-in: its value at a "measure" s is values[s]."""

    def __init__(self, values, norm_bound):
        self.values, self.norm_bound = values, norm_bound

    def value_at(self, s):
        return self.values[s]


class TestCertifiedBoundsAtTheirEdges:
    @pytest.mark.parametrize("length", [1, 3, 6])
    @pytest.mark.parametrize("nb", [Fraction(1), Fraction(3, 7)])
    def test_combo_row_reads_fail_just_past_the_bound(self, length, nb):
        # the row certifies last <= 8 nb (P + tail) / sqrt(PI.upper), the
        # conservative side of 8 nb (P + tail) / sqrt(pi); last partial sums
        # within 1e-30 of that edge read PASS below it and FAIL above it
        cert = extract(1, 1, length)
        inside, outside = sqrt_enclosure(64 * nb * nb * cert.total_bound**2 / PI.upper)
        for last, verdict in ((inside, "PASS"), (outside, "FAIL")):
            values = {s: last / length for s in cert.indices[:-1]}
            values[cert.indices[-1]] = last - sum(values.values(), Fraction(0))
            row = combo_row(_combo_row(cert, FixedValues(values, nb), "edge", cert.indices))
            assert parse_rational(row["partial_sums"][-1]) == last
            assert row["verdict"] == verdict, (last, verdict)

    @pytest.mark.parametrize("length", [1, 2, 5, 30, 400])
    def test_tail_bound_covers_the_tail_of_inverse_squares(self, length):
        # s_n >= n^4 bounds the tail by sum_{n>N} 1/n^2 = pi^2/6 - sum_{n<=N} 1/n^2,
        # which is at least PI.lower^2/6 - ...; 1/N bounds it by integral comparison
        tail = extract(1, 1, length).tail_bound
        head = sum((Fraction(1, n * n) for n in range(1, length + 1)), Fraction(0))
        assert PI.lower**2 / 6 - head <= tail == Fraction(1, length)


class TestReport:
    def test_empty_family_vacuous(self):
        cert = extract(1, 1, 2)
        report = subseq_report(strongly_normal_report(cert, []))
        assert report["verdict"] == "VACUOUS"
        assert report["rows"] == []
        assert "disclaimer" in report

    def test_three_pass_rows(self):
        cert = extract(1, 1, 3)
        report = subseq_report(strongly_normal_report(cert, standard_test_family()[:3]))
        assert report["verdict"] == "PASS"
        assert [r["verdict"] for r in report["rows"]] == ["PASS"] * 3
        # rows re-derivable from the closed-form values at each index
        for row, h in zip(report["rows"], standard_test_family()[:3]):
            sums = itertools.accumulate(abs(h.value_at(build(s))) for s in cert.indices)
            assert row["partial_sums"] == [format_rational(p) for p in sums]

    def test_zero_norm_combo_passes_with_zero_bound(self):
        cert = extract(1, 1, 2)
        report = subseq_report(strongly_normal_report(cert, [TensorCombo(terms=(), name="null")]))
        assert report["verdict"] == "PASS"
        assert report["rows"][0]["norm_bound"] == "0"
        assert report["rows"][0]["verdict"] == "PASS"

    def test_one_binomial_per_index_for_the_standard_family(self, monkeypatch):
        calls = []

        def counted(j):
            calls.append(j)
            return central_binomial(j)

        monkeypatch.setattr(ks_measure, "central_binomial", counted)
        cert = extract(1, 1, 6)
        report = subseq_report(strongly_normal_report(cert, standard_test_family()))
        assert report["verdict"] == "PASS"
        assert sorted(calls) == [s // 2 for s in cert.indices]


class TestCertificateJson:
    def test_wire_format(self):
        cert = extract(1, 1, 4)
        doc = certificate_to_json(cert)
        assert doc["rule"] == GREEDY_RULE
        assert doc["indices"] == [1, 16, 81, 256]
        assert doc["partial_sum_upper"] == "205/144"
        assert doc["tail_bound"] == "1/4"
