"""Bounds, closed forms, and the verification drivers.  Every closed
form is pinned to its hand-frozen values and cross-checked against the
counting oracles; the drivers re-derive their claims from sweeps and
corpora built in this run."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourney import (
    BoundReport,
    balanced_sequence,
    binomial_sum_min,
    c4_formula,
    c5_formula,
    c5_max_bound,
    c5_of_rlt,
    c5_regular_max,
    canonical_form,
    expected_cycles,
    gen_named,
    gen_qr,
    gen_rlt,
    gen_transitive,
    is_regular,
    oracle_cycles,
    oracle_strong_subs,
    regular_identity,
    regular_identity_trace,
    s5_formula,
    s5_of_dr,
    s5_of_ndr,
    s5_of_rlt,
    tournament_from_code,
    trace_m,
    verify_binomial_sum_min,
    verify_c5_max,
    verify_regular9,
)
from tourney.errors import (
    BadResidueError,
    NotRegularError,
    TooLargeError,
    VerificationFailedError,
)
from tourney import extremal
from tourney.extremal import (_classes_of_codes, _extension_batch,
                              delta_tt3_copies_in_rlt, rlt5_copies_in_rlt)


class TestClosedForms:
    def test_s5_rlt_frozen_values(self):
        assert [s5_of_rlt(n) for n in (5, 7, 9, 11)] == [1, 21, 117, 407]

    def test_c5_rlt_frozen_values(self):
        assert [c5_of_rlt(n) for n in (5, 7, 9, 11)] == [2, 28, 144, 484]

    @pytest.mark.parametrize("n", [5, 7, 9, 11])
    def test_rlt_forms_match_formula_and_oracle(self, n):
        t = gen_rlt(n)
        assert s5_formula(t) == s5_of_rlt(n) == oracle_strong_subs(t, 5)
        assert c5_formula(t) == c5_of_rlt(n) == oracle_cycles(t, 5)

    def test_dr_form(self):
        assert s5_of_dr(7) == 21
        assert s5_formula(gen_qr(7)) == 21
        assert s5_of_dr(11) == 352
        assert s5_formula(gen_qr(11)) == 352

    def test_ndr_form(self):
        assert s5_of_ndr(5) == 1
        assert s5_of_ndr(9) == 108
        # RLT_5 is the nearly doubly regular tournament of order 5
        assert s5_formula(gen_rlt(5)) == s5_of_ndr(5)

    def test_copy_forms(self):
        assert rlt5_copies_in_rlt(7) == 7
        assert delta_tt3_copies_in_rlt(7) == 7

    def test_regular_max(self):
        assert c5_regular_max(5) == 2
        assert c5_regular_max(9) == 180
        assert c5_regular_max(13) == 1482
        with pytest.raises(BadResidueError):
            c5_regular_max(7)  # 3 mod 4 has no such closed form here

    def test_bound_values(self):
        assert c5_max_bound(7) == Fraction(42)
        assert c5_max_bound(5) == Fraction(9, 2)

    def test_bound_is_shifted_expectation(self):
        # the global bound equals the mean cycle count one order higher
        for n in range(5, 23, 2):
            assert c5_max_bound(n) == expected_cycles(n + 1, 5)

    def test_expected_cycles_values(self):
        assert expected_cycles(5, 5) == Fraction(120, 160)
        assert expected_cycles(4, 5) == 0


class TestRegularIdentity:
    def test_holds_on_named_families(self, corpus7, corpus9):
        subjects = [gen_named("delta"), gen_rlt(5)]
        subjects += [rep for _, rep in corpus7.classes]
        subjects += [rep for _, rep in corpus9.classes]
        subjects += [gen_qr(11), gen_rlt(11)]
        for t in subjects:
            lhs, rhs = regular_identity(t)
            assert lhs == rhs
            assert lhs == c5_formula(t) + 2 * c4_formula(t)
            tl, tr = regular_identity_trace(t)
            assert tl == tr
            assert tl == Fraction(trace_m(t, 5)) + Fraction(5, 2) * trace_m(t, 4)

    def test_frozen_right_sides(self):
        # n(n-1)(n+1)(n-3)(n+3)/160 at the odd orders in play
        assert regular_identity(gen_named("delta"))[1] == 0
        assert regular_identity(gen_rlt(5))[1] == 12
        assert regular_identity(gen_rlt(7))[1] == 84
        assert regular_identity(gen_rlt(9))[1] == 324
        assert regular_identity(gen_rlt(11))[1] == 924

    def test_rejects_irregular(self):
        with pytest.raises(NotRegularError):
            regular_identity(gen_transitive(5))


class TestOrder9CorpusExtremes:
    def test_s5_range_and_unique_max(self, corpus9):
        values = {cf.key: s5_formula(rep) for cf, rep in corpus9.classes}
        rlt_key = canonical_form(gen_rlt(9)).key
        assert max(values.values()) == 117
        at_max = [k for k, v in values.items() if v == 117]
        assert at_max == [rlt_key]

    def test_c5_is_minimized_by_rlt(self, corpus9):
        values = {cf.key: c5_formula(rep) for cf, rep in corpus9.classes}
        rlt_key = canonical_form(gen_rlt(9)).key
        assert min(values.values()) == 144
        assert values[rlt_key] == 144


class TestBalancedMinimization:
    def test_balanced_sequence(self):
        assert balanced_sequence(7) == (3,) * 7
        assert balanced_sequence(6) == (2, 2, 2, 3, 3, 3)

    @pytest.mark.parametrize("n,p,value", [
        (5, 2, 5), (6, 2, 12), (7, 2, 21), (7, 3, 7),
        (7, 4, 0), (9, 4, 9), (8, 3, 20),
    ])
    def test_enumerated_minimum(self, n, p, value):
        report = verify_binomial_sum_min(n, p)
        assert report.bound.observed == value
        assert binomial_sum_min(n, p) == value
        assert report.bound.tight
        assert report.within_uniqueness_range == (n >= 2 * p - 1)
        if report.within_uniqueness_range:
            assert report.unique_minimizer

    def test_outside_uniqueness_range(self):
        # n < 2p - 1: several sequences can reach the minimum
        report = verify_binomial_sum_min(5, 4)
        assert not report.within_uniqueness_range
        assert not report.unique_minimizer

    def test_enumeration_cap(self):
        with pytest.raises(TooLargeError):
            verify_binomial_sum_min(13, 2)


class TestSweepDrivers:
    def test_order5(self, sweep5):
        assert sweep5.total_codes == 1 << 10
        assert sweep5.regular_codes == 24
        assert sweep5.c5.observed == 3
        assert not sweep5.c5.tight  # bound 9/2 is not attained
        assert sweep5.s5.observed == 1
        assert len(sweep5.s5.witnesses) == 6

    def test_order5_witness_is_the_expanded_triangle(self, sweep5):
        key = canonical_form(gen_named("delta_o_delta_o")).hex()
        assert sweep5.c5.witnesses == (key,)

    def test_order7(self, sweep7):
        assert sweep7.total_codes == 1 << 21
        assert sweep7.regular_codes == 2640
        assert sweep7.c5.observed == 42
        assert sweep7.c5.tight
        assert sweep7.c5.witnesses == (canonical_form(gen_qr(7)).hex(),)
        assert sweep7.s5.observed == 21
        assert len(sweep7.s5.witnesses) == 3

    def test_order7_s5_witnesses_are_the_regular_classes(self, sweep7,
                                                         corpus7):
        assert sweep7.s5.witnesses == tuple(
            cf.hex() for cf, _ in corpus7.classes)

    def test_rejects_other_orders(self):
        with pytest.raises(TooLargeError):
            verify_c5_max(9)

    def test_witness_classes_need_a_relabeling_closed_set(self):
        # the 24 regular codes of order 5 are one class; dropping one
        # leaves that class short of its orbit mass
        codes = [c for c in range(1 << 10)
                 if is_regular(tournament_from_code(5, c))]
        assert _classes_of_codes(5, codes) == (
            canonical_form(gen_rlt(5)).hex(),)
        with pytest.raises(VerificationFailedError):
            _classes_of_codes(5, codes[1:])


class TestExtensionKernel:
    """The sweep's per-code counts against the counting oracles on the
    labeled tournament each code names."""

    @staticmethod
    def assert_matches_oracles(n, codes, c5, s5, regular):
        for code, c, s, r in zip(codes.ravel().tolist(), c5.ravel().tolist(),
                                 s5.ravel().tolist(), regular.ravel().tolist()):
            t = tournament_from_code(n, code)
            assert (c, s, r) == (oracle_cycles(t, 5),
                                 oracle_strong_subs(t, 5), is_regular(t)), code

    def test_every_order5_code(self):
        codes, c5, s5, regular = _extension_batch(5, np.arange(64))
        assert codes.tolist() == np.arange(1 << 10).reshape(64, 16).tolist()
        self.assert_matches_oracles(5, codes, c5, s5, regular)

    @given(st.integers(0, (1 << 21) - 1))
    @settings(max_examples=40, deadline=None)
    def test_order7_codes(self, code):
        # the sampled code's base, with all 64 out-sets of vertex 0
        codes, c5, s5, regular = _extension_batch(7, np.array([code >> 6]))
        assert codes[0, code & 63] == code
        self.assert_matches_oracles(7, codes, c5, s5, regular)

    def test_dropped_batch_raises(self, monkeypatch):
        kernel = extremal._extension_batch

        def drop_first(n, base):
            return kernel(n, base[:0] if base[0] == 0 else base)

        monkeypatch.setattr(extremal, "_extension_batch", drop_first)
        with pytest.raises(VerificationFailedError, match="visited 0 codes"):
            verify_c5_max(5)


class TestRegular9Driver:
    def test_reports(self, corpus9):
        reports = verify_regular9(corpus9)
        s5_min, c5_max = reports["s5_min"], reports["c5_max"]
        assert isinstance(s5_min, BoundReport)
        assert s5_min.observed == 108 and s5_min.tight
        assert len(s5_min.witnesses) == 5
        assert c5_max.observed == 180 and c5_max.tight
        assert len(c5_max.witnesses) == 2

    def test_minimizers_include_named_classes(self, corpus9):
        reports = verify_regular9(corpus9)
        witnesses = set(reports["s5_min"].witnesses)
        for name in ("delta_delta", "prop2_a", "prop2_b"):
            assert canonical_form(gen_named(name)).hex() in witnesses

    def test_fails_on_truncated_corpus(self, corpus9):
        from tourney.enumeration import EnumCorpus
        broken = EnumCorpus(corpus9.n, corpus9.constraint,
                            corpus9.labeled_count, corpus9.classes[:10])
        with pytest.raises(VerificationFailedError):
            verify_regular9(broken)
