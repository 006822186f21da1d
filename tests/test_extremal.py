"""Bounds, closed forms, and the verification drivers.  Every closed
form is pinned to its hand-frozen values and cross-checked against the
counting oracles; the drivers re-derive their claims from sweeps and
corpora built in this run."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from itertools import islice, permutations
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourney import (
    BoundReport,
    RotationalSymbol,
    automorphism_count,
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
    gen_qr_power,
    gen_random,
    gen_rlt,
    gen_rotational,
    gen_transitive,
    aat_positive,
    is_doubly_regular,
    is_nearly_doubly_regular,
    is_regular,
    oracle_cycles,
    oracle_strong_subs,
    regular_identity,
    regular_identity_trace,
    s5_formula,
    s5_of_dr,
    s5_of_ndr,
    s5_of_rlt,
    trace_m,
    validate,
    verify_binomial_sum_min,
    verify_c5_max,
    verify_regular9,
)
from tourney.classify import tournaments_with_scores
from tourney.core import CanonicalForm, Tournament
from tourney.errors import (
    InternalParityError,
    InvalidInput,
    TimeBudgetExceededError,
    VerificationFailedError,
)
from tourney import extremal
from tourney.counting import _arc_profiles, _cycles_by_trace, _row_bits
from tourney.enumeration import _classes, _extend, certified_classes
from tourney.extremal import (SweepExtremes, _bound_terms,
                              _check_sweep_claims, _exact_div,
                              _extension_batch, _extremes, _labeled_batches,
                              _regular_terms, _witness_classes,
                              delta_tt3_copies_in_rlt, rlt5_copies_in_rlt)
from oracle_reference import (code_rows, cut_form, every_code_block,
                              tournament_from_code, triangle_rule_blocks,
                              vertex_share)


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
        with pytest.raises(InvalidInput,
                           match=r"^need n = 1 \(mod 4\), got 7$"):
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

    def test_gaps_of_the_certificates(self):
        # the closed forms the certificates' sums are measured from, as
        # polynomials in n at every order each one admits up to 63
        for n in range(3, 64, 2):
            assert s5_of_rlt(n) == comb(n, 5) - n * comb((n - 1) // 2, 4)
        for n in range(5, 64, 4):
            low = Fraction((n + 1) * n * (n - 1) * (n - 3) * (17 * n - 59),
                           3840)
            assert c5_regular_max(n) == c5_max_bound(n) - Fraction(
                comb(n, 2), 4)
            assert s5_of_ndr(n) == low + Fraction(comb(n, 2) * (n - 7), 32)

    def test_inexact_division_is_a_bug(self):
        # a closed form whose numerator misses its denominator must raise
        # even under python -O, never floor
        assert _exact_div(8, 2) == 4
        with pytest.raises(InternalParityError):
            _exact_div(7, 2)


def seeded_rotational(n: int, seed: int):
    """A rotational tournament of odd order n whose symbol takes d or
    n - d for each d in 1..(n-1)/2 by a seeded coin."""
    rng = random.Random(seed)
    diffs = {d if rng.getrandbits(1) else n - d for d in range(1, n // 2 + 1)}
    return gen_rotational(RotationalSymbol(n, frozenset(diffs)))


_DOUBLY_REGULAR = {f"qr{p}": gen_qr(p) for p in (7, 11, 19, 23, 31, 43, 47, 59)}
_DOUBLY_REGULAR["qr_power_3_3"] = gen_qr_power(3, 3)


class TestFamiliesToTheBitmaskCap:
    """Each closed form on its family at every order up to 63, by the
    formula route and, for c5, the trace route."""

    @pytest.mark.parametrize("n", range(5, 64, 2))
    def test_rlt(self, n):
        t = gen_rlt(n)
        assert s5_formula(t) == s5_of_rlt(n)
        assert c5_formula(t) == _cycles_by_trace(t, 5) == c5_of_rlt(n)

    @pytest.mark.parametrize("t", _DOUBLY_REGULAR.values(),
                             ids=_DOUBLY_REGULAR.keys())
    def test_doubly_regular_attains_the_bound(self, t):
        assert is_doubly_regular(t)
        assert s5_formula(t) == s5_of_dr(t.n)
        assert c5_formula(t) == _cycles_by_trace(t, 5) == c5_max_bound(t.n)

    @pytest.mark.parametrize("n", range(3, 64, 2))
    def test_regular_identity_on_rotational(self, n):
        t = seeded_rotational(n, n)
        lhs, rhs = regular_identity(t)
        assert lhs == rhs == c5_formula(t) + 2 * c4_formula(t)
        tl, tr = regular_identity_trace(t)
        assert tl == tr == 5 * rhs
        assert tl == Fraction(trace_m(t, 5)) + Fraction(5, 2) * trace_m(t, 4)


def certified_bounds(t: Tournament) -> tuple[np.ndarray, np.ndarray]:
    """_bound_terms of t, once their identities and signs are asserted:
    no term below 0, the per-arc terms adding up to 8 (c5_max_bound -
    c5) and the per-vertex ones, with Q last, to s5_of_rlt - s5, and
    every per-arc term 0 exactly when t is doubly regular."""
    g, p = _bound_terms(t)
    assert (len(g), len(p)) == (comb(t.n, 2), t.n + 1)
    assert g.min() >= 0 and p.min() >= 0
    assert int(g.sum()) == 8 * (c5_max_bound(t.n) - c5_formula(t))
    assert int(p.sum()) == s5_of_rlt(t.n) - s5_formula(t)
    assert (not g.any()) == is_doubly_regular(t)
    return g, p


def certified_regular(t: Tournament) -> tuple[np.ndarray, np.ndarray]:
    """_regular_terms of a regular t, once their identities and signs
    are asserted, with every e 0 exactly when t is nearly doubly
    regular."""
    e, j = _regular_terms(t)
    assert len(e) == len(j) == comb(t.n, 2)
    assert e.min() >= 0 and j.min() >= 0
    assert int(e.sum()) == 4 * (c5_regular_max(t.n) - c5_formula(t))
    assert int(j.sum()) == s5_formula(t) - s5_of_ndr(t.n)
    assert (not e.any()) == is_nearly_doubly_regular(t)
    return e, j


def certified_above_rlt(t: Tournament) -> np.ndarray:
    """The per-vertex terms of c5 - c5_of_rlt(n) for a regular t, once
    their identity and signs are asserted: sum over r < h of r^2 less
    the sum of dpm_ij^2 over j in N+(i), with h = (n-1)/2.  The dpm_ij
    are the in-degrees of the order-h tournament on N+(i), which the
    transitive ones 0..h-1 majorize, and x^2 is convex, so no term is
    below 0; all are 0 exactly when every N+(i) is transitive."""
    n, h = t.n, (t.n - 1) // 2
    _, _, _, dpm, _ = _arc_profiles(t)
    # a regular t has h arcs out of each vertex, in row-major order
    terms = (h - 1) * h * (2 * h - 1) // 6 - (dpm * dpm).reshape(n, h).sum(1)
    assert terms.min() >= 0
    assert int(terms.sum()) == c5_formula(t) - c5_of_rlt(n)
    return terms


class TestCertificates:
    """The per-tournament certificates: _bound_terms on every class of
    orders 5 and 7, the regular classes of orders 9 and 11, the doubly
    regular families, and RLT_n and seeded random tournaments up to
    order 63; _regular_terms on the order-9 regular classes and on RLT_n
    and seeded regular rotational tournaments of every order 1 (mod 4)
    up to 61; and certified_above_rlt on the regular classes of orders
    7, 9 and 11, the doubly regular families and RLT_n up to order 63."""

    @pytest.mark.parametrize("n", [5, 7])
    def test_every_class(self, n):
        reps, _ = _classes(n, None)
        zero = [not certified_bounds(validate(n, rows))[1].any()
                for rows in reps.tolist()]
        # the s5 maximizers: the six strong classes, the three regular
        assert sum(zero) == {5: 6, 7: 3}[n]

    @pytest.mark.parametrize("corpus", ["corpus9", "corpus11"])
    def test_regular_classes(self, corpus, request):
        zero = [cf.hex() for cf, rep in request.getfixturevalue(
            corpus).classes if not certified_bounds(rep)[0].any()]
        assert zero == ([canonical_form(gen_qr(11)).hex()]
                        if corpus == "corpus11" else [])

    @pytest.mark.parametrize("t", _DOUBLY_REGULAR.values(),
                             ids=_DOUBLY_REGULAR.keys())
    def test_doubly_regular(self, t):
        certified_bounds(t)
        assert certified_above_rlt(t).min() > 0

    @pytest.mark.parametrize("n", range(5, 64, 2))
    def test_rlt_and_random(self, n):
        _, p = certified_bounds(gen_rlt(n))
        assert not p.any()
        assert not certified_above_rlt(gen_rlt(n)).any()
        if n >= 9:
            for seed in range(3):
                certified_bounds(gen_random(n, seed))

    def test_regular_terms_on_the_order9_classes(self, corpus9):
        # j vanishes on the five s5 minimizers, e on the two c5 maximizers
        zeros = [[cf.hex() for cf, rep in corpus9.classes
                  if not certified_regular(rep)[k].any()] for k in (1, 0)]
        assert zeros == [
            [cf.hex() for cf, rep in corpus9.classes if aat_positive(rep)],
            [cf.hex() for cf, rep in corpus9.classes
             if is_nearly_doubly_regular(rep)]]
        assert [len(z) for z in zeros] == [5, 2]

    @pytest.mark.parametrize("corpus", ["corpus7", "corpus9", "corpus11"])
    def test_c5_above_rlt_on_regular_classes(self, corpus, request):
        # c5 - c5_of_rlt(n) vanishes on RLT_n's class alone
        classes = request.getfixturevalue(corpus).classes
        zero = [cf.hex() for cf, rep in classes
                if not certified_above_rlt(rep).any()]
        assert zero == [canonical_form(gen_rlt(classes[0][1].n)).hex()]

    @pytest.mark.parametrize("n", range(5, 62, 4))
    def test_regular_terms_to_order61(self, n):
        for t in (gen_rlt(n), seeded_rotational(n, n),
                  seeded_rotational(n, n + 1)):
            certified_regular(t)


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
        with pytest.raises(InvalidInput, match="^the c5 \\+ 2 c4 identity "
                                               "needs a regular tournament$"):
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
        with pytest.raises(InvalidInput, match="^sequence sweeps are capped "
                                               "at n = 12, got 13$"):
            verify_binomial_sum_min(13, 2)

    def test_fails_on_a_wrong_closed_form(self, monkeypatch):
        monkeypatch.setattr(extremal, "binomial_sum_min", lambda n, p: 22)
        with pytest.raises(VerificationFailedError,
                           match="^enumerated minimum 21 differs from closed "
                                 "form 22 for n=7, p=2$"):
            verify_binomial_sum_min(7, 2)

    def test_fails_on_a_wrong_balanced_sequence(self, monkeypatch):
        # the closed form stays right, so only the minimizer check fails
        monkeypatch.setattr(extremal, "binomial_sum_min", lambda n, p: 21)
        monkeypatch.setattr(extremal, "balanced_sequence",
                            lambda n: (2, 3, 3, 3, 3, 3, 4))
        with pytest.raises(VerificationFailedError,
                           match=r"^minimizer set \[\(3, 3, 3, 3, 3, 3, 3\)\] "
                                 r"is not the balanced sequence alone for "
                                 r"n=7, p=2$"):
            verify_binomial_sum_min(7, 2)

    @pytest.mark.parametrize("n", [0, -1])
    def test_order_below_one(self, n):
        # an empty sweep is a bad order, not one past the cap
        with pytest.raises(InvalidInput, match=f"^need n >= 1, got {n}$"):
            verify_binomial_sum_min(n, 2)

    @pytest.mark.parametrize("call,message", [
        (lambda: c5_max_bound(4), "need odd n >= 5, got 4"),
        (lambda: s5_of_dr(9), r"need n = 3 \(mod 4\), got 9"),
        (lambda: s5_of_ndr(7), r"need n = 1 \(mod 4\), got 7"),
        (lambda: expected_cycles(5, 2),
         "need m >= 3 and n >= 0, got n=5, m=2"),
        (lambda: balanced_sequence(0), "need n >= 1, got 0"),
        (lambda: binomial_sum_min(5, 1), "need p >= 2, got 1"),
        (lambda: regular_identity_trace(gen_transitive(5)),
         "the trace identity needs a regular tournament"),
    ], ids=["c5_max_bound", "s5_of_dr", "s5_of_ndr", "expected_cycles",
            "balanced_sequence", "binomial_sum_min", "identity_trace"])
    def test_refusals(self, call, message):
        with pytest.raises(InvalidInput, match=f"^{message}$"):
            call()


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
        with pytest.raises(InvalidInput, match="^the exhaustive sweep runs "
                                               "at n in {5, 7}, got 9$"):
            verify_c5_max(9)

    def test_time_budget_stops_the_sweep(self):
        # the labeled sweep alone runs 4 slices at order 7
        with pytest.raises(TimeBudgetExceededError,
                           match="the sweep ran past its budget"):
            verify_c5_max(7, time_budget=0.001)

    @pytest.mark.parametrize("budget", [0.0, -1.0, float("nan"),
                                        float("inf")])
    def test_time_budget_must_be_positive_finite(self, budget):
        with pytest.raises(InvalidInput, match="time budget"):
            verify_c5_max(5, time_budget=budget)

    def test_witness_classes_need_a_relabeling_closed_set(self):
        # RLT_5 is the one regular class of order 5, and the class scan
        # reaches it by one extension of weight 5!/|Aut RLT_5| = 24; any
        # other weight leaves the certificate over or short of its orbit
        _, (_, s5_argmax) = _extremes(5, [_classes(4, None)], witnesses=True)
        regular = [(rows, w) for rows, w in members(s5_argmax)
                   if is_regular(validate(5, rows.tolist()))]
        assert [w for _, w in regular] == [24]
        (rows, _), = regular
        assert _witness_classes(5, [([rows], [24])], 24) == (
            canonical_form(gen_rlt(5)).hex(),)
        for weight in (1, 48):
            with pytest.raises(VerificationFailedError):
                _witness_classes(5, [([rows], weight)], weight)
        with pytest.raises(VerificationFailedError):
            _witness_classes(5, [([rows], [24])], 48)


def perturbed(terms: tuple[np.ndarray, ...], k: int, how: str
              ) -> tuple[np.ndarray, ...]:
    """Copies of a certificate's term arrays with array k changed: its
    first term one higher ("sum"), or its first term -1 and its second
    higher by as much as the first lost, so that the sum holds
    ("sign")."""
    terms = tuple(x.copy() for x in terms)
    x = terms[k]
    if how == "sum":
        x[0] += 1
    else:
        x[1] += x[0] + 1
        x[0] = -1
    return terms


class TestClaimRule:
    """_check_sweep_claims, the one rule verify_c5_max checks at every
    order (sweep5 and sweep7 pass it when they are built), fails with
    VerificationFailedError on a report that breaks it or on a witness
    whose certificate does."""

    @pytest.mark.parametrize("sweep", ["sweep5", "sweep7"])
    def test_flipped_c5_tightness(self, sweep, request):
        result = request.getfixturevalue(sweep)
        c5 = replace(result.c5, tight=not result.c5.tight)
        with pytest.raises(VerificationFailedError, match="doubly regular"):
            _check_sweep_claims(replace(result, c5=c5))

    @pytest.mark.parametrize("sweep", ["sweep5", "sweep7"])
    def test_regular_mass_off_the_score_count(self, sweep, request,
                                              monkeypatch):
        result = request.getfixturevalue(sweep)
        monkeypatch.setattr(extremal, "tournaments_with_scores",
                            lambda scores: tournaments_with_scores(scores) + 1)
        with pytest.raises(VerificationFailedError,
                           match=f"^sweep saw {result.regular_codes} regular "
                                 f"labeled tournaments, the score count says "
                                 f"{result.regular_codes + 1}$"):
            _check_sweep_claims(result)

    def test_tight_c5_without_the_doubly_regular_class(self, sweep7):
        c5 = replace(sweep7.c5, witnesses=())
        with pytest.raises(VerificationFailedError, match="doubly regular"):
            _check_sweep_claims(replace(sweep7, c5=c5))

    def test_s5_below_its_bound(self, sweep7):
        s5 = replace(sweep7.s5, tight=False)
        with pytest.raises(VerificationFailedError, match="^max s5 21 "):
            _check_sweep_claims(replace(sweep7, s5=s5))

    @pytest.mark.parametrize("sweep", ["sweep5", "sweep7"])
    def test_s5_witness_short_of_the_maximum(self, sweep, request):
        # the transitive class has no strong 5-subset at all
        result = request.getfixturevalue(sweep)
        key = canonical_form(gen_transitive(result.n)).hex()
        s5 = replace(result.s5, witnesses=result.s5.witnesses + (key,))
        with pytest.raises(VerificationFailedError,
                           match=f"^s5_max witness {key}: certificate terms "
                                 f"add up to {s5_of_rlt(result.n)},"):
            _check_sweep_claims(replace(result, s5=s5))

    @pytest.mark.parametrize("sweep", ["sweep5", "sweep7"])
    @pytest.mark.parametrize("k", [0, 1], ids=["g", "p"])
    @pytest.mark.parametrize("how", ["sum", "sign"])
    def test_perturbed_term(self, sweep, k, how, request, monkeypatch):
        result = request.getfixturevalue(sweep)
        bound_terms = extremal._bound_terms
        monkeypatch.setattr(extremal, "_bound_terms",
                            lambda t: perturbed(bound_terms(t), k, how))
        with pytest.raises(VerificationFailedError,
                           match="certificate terms add up to"):
            _check_sweep_claims(result)


def members(blocks) -> list:
    """(out-rows, weight) of every member of the blocks (out-rows,
    weights) that _extremes keeps, in order."""
    return [(rows, w) for block, weights in blocks
            for rows, w in zip(block, weights)]


def rep_of(n: int, key: str) -> Tournament:
    """The canonical representative decoded from a hex class key."""
    return Tournament(n, CanonicalForm(n, int(key, 16)).rows())


def orbit_mass(report: BoundReport) -> int:
    """Labeled tournaments in the report's witness classes: the sum of
    n!/|Aut| over their reps."""
    return sum(factorial(report.n) // automorphism_count(rep_of(report.n, k))
               for k in report.witnesses)


class TestTwoRoutes:
    """verify_c5_max reduces the extensions of the labeled tournaments
    of order n - 1 whose last four labels hold one of the four order-4
    reps, weighted by the rep's labelings (24, 8, 8 or 24, doubled where
    vertex 0 beats vertex 1 is required, from order 7 on), and the
    orbit-weighted extensions of every class rep of order n - 1, by one
    reducer, and raises unless the two summaries agree."""

    def test_routes_agree_at_order5(self, sweep5):
        labeled, _ = _extremes(5, _labeled_batches(5), witnesses=False)
        scan, (c5_argmax, s5_argmax) = _extremes(5, [_classes(4, None)],
                                                 witnesses=True)
        assert labeled == scan == (
            1 << 10, 24, 3, orbit_mass(sweep5.c5), 1, orbit_mass(sweep5.s5))
        assert (scan[3], scan[5]) == (40, 544)
        assert (len(members(c5_argmax)), len(members(s5_argmax))) == (3, 32)

    def test_routes_agree_at_order7(self, sweep7, corpus7):
        # sweep7 ran the labeled route and compared it with this scan
        scan, (c5_argmax, s5_argmax) = _extremes(7, [_classes(6, None)],
                                                 witnesses=True)
        assert scan == (sweep7.total_codes, sweep7.regular_codes,
                        sweep7.c5.observed, orbit_mass(sweep7.c5),
                        sweep7.s5.observed, orbit_mass(sweep7.s5))
        assert scan == (1 << 21, corpus7.labeled_count, 42, 240, 21, 2640)
        assert [w for _, w in members(c5_argmax)] == [240]
        assert len(members(s5_argmax)) == 5

    def test_scaled_orbit_disagrees(self, monkeypatch):
        classes = extremal._classes

        def double_first(h, deadline):
            reps, (orbit, *rest) = classes(h, deadline)
            return reps, [2 * orbit, *rest]

        monkeypatch.setattr(extremal, "_classes", double_first)
        with pytest.raises(VerificationFailedError, match="disagree"):
            verify_c5_max(5)

    def test_dropped_candidate_leaves_the_certificate_short(self,
                                                            monkeypatch):
        # RLT_5's class has one s5 argmax candidate; without it the
        # classes found hold 24 fewer labeled tournaments than the sweep
        # counted
        reduce = extremal._extremes

        def drop_regular(n, blocks, deadline, *, witnesses):
            summary, (c5_argmax, s5_argmax) = reduce(n, blocks, deadline,
                                                     witnesses=witnesses)
            kept = [([rows], [w]) for rows, w in members(s5_argmax)
                    if not is_regular(validate(n, rows.tolist()))]
            return summary, [c5_argmax, kept]

        monkeypatch.setattr(extremal, "_extremes", drop_regular)
        with pytest.raises(VerificationFailedError,
                           match="hold 520 labeled tournaments, the sweep "
                                 "counted 544"):
            verify_c5_max(5)

    @pytest.mark.parametrize("sweep", ["sweep5", "sweep7"])
    def test_witness_reps_attain_the_maxima(self, sweep, request):
        # a third route: the formulas on each witness rep decoded from
        # its key
        result = request.getfixturevalue(sweep)
        for report, formula in ((result.c5, c5_formula),
                                (result.s5, s5_formula)):
            for key in report.witnesses:
                assert formula(rep_of(result.n, key)) == report.observed, key


class TestOneBlockType:
    """_extremes takes certified_classes' blocks (out-rows, weight), the
    weight one int for the block or one per row, of any length, and
    slices them itself, so any partition of a member list reduces to
    the same summary and the same argmax members."""

    @pytest.mark.parametrize("n", [5, 7])
    def test_partitions_of_the_class_list_agree(self, n):
        reps, orbits = _classes(n - 1, None)
        partitions = {
            "whole": [(reps, np.array(orbits, dtype=np.int64))],
            "per rep": [(reps[k:k + 1], orbit)
                        for k, orbit in enumerate(orbits)],
            "by 7": [(reps[lo:lo + 7], orbits[lo:lo + 7])
                     for lo in range(0, len(reps), 7)],
        }
        results = {}
        for name, blocks in partitions.items():
            summary, argmax = _extremes(n, blocks, witnesses=True)
            results[name] = summary, [
                [(rows.tolist(), w) for rows, w in members(hits)]
                for hits in argmax]
        assert results["per rep"] == results["whole"] == results["by 7"]
        summary, (c5_hits, s5_hits) = results["whole"]
        assert summary[0] == 1 << comb(n, 2)
        assert sum(w for _, w in c5_hits) == summary[3]
        assert sum(w for _, w in s5_hits) == summary[5]

    @pytest.mark.parametrize("k", [4, 6])
    def test_certified_classes_takes_the_class_list(self, k):
        reps, orbits = _classes(k, None)
        total, found = certified_classes(k, [(reps, orbits)])
        assert total == 1 << comb(k, 2)
        assert [list(CanonicalForm(k, key).rows()) for key in sorted(found)] \
            == reps.tolist()
        assert [found[key] for key in sorted(found)] == orbits


class TestOrder9ClassScan:
    """The class scan alone at order 9: the orbit-weighted extensions of
    the 6,880 classes of order 8 stand for all 2^36 labeled tournaments
    of order 9, so their extremes are the maxima over every tournament
    of that order, irregular ones included, and verify_c5_max's claim
    rule holds on them."""

    def test_maxima_over_every_tournament(self, classes8, corpus9):
        summary, (c5_argmax, s5_argmax) = _extremes(9, [classes8],
                                                    witnesses=True)
        assert summary == (1 << 36, 3_230_080, 180, 161_280, 117, 40_320)
        assert summary[1] == corpus9.labeled_count \
            == tournaments_with_scores((4,) * 9)
        assert summary[2] < c5_max_bound(9) == 189
        assert summary[4] == s5_of_rlt(9)
        c5_witnesses = _witness_classes(9, c5_argmax, summary[3])
        s5_witnesses = _witness_classes(9, s5_argmax, summary[5])
        assert c5_witnesses == verify_regular9(corpus9)["c5_max"].witnesses
        assert s5_witnesses == (canonical_form(gen_rlt(9)).hex(),)
        # the claim rule verify_c5_max checks at orders 5 and 7, as it is
        _check_sweep_claims(SweepExtremes(
            9, summary[0], summary[1],
            BoundReport("c5_max", 9, c5_max_bound(9), 180, False,
                        c5_witnesses),
            BoundReport("s5_max", 9, Fraction(117), 117, True,
                        s5_witnesses)))


def relabel(t, p):
    """The out-rows of labeled tournament t relabeled by p, by row
    permutation: i -> j in t exactly when p[i] -> p[j] in the image."""
    image = [0] * len(t)
    for i, row in enumerate(t):
        for j in range(len(t)):
            if row >> j & 1:
                image[p[i]] |= 1 << p[j]
    return tuple(image)


def last_labels(rows, k):
    """The out-rows of the tournament on the last k labels."""
    return tuple(row >> (len(rows) - k) & (1 << k) - 1 for row in rows[-k:])


def rep_bases(m, reps):
    """Every labeled tournament of order m whose last k labels hold one
    of reps, a dict from the k out-rows of each rep to its weight,
    decoded from its code, as (rows, weight) in code order."""
    k = len(next(iter(reps)))
    return [(rows, reps[last_labels(rows, k)])
            for rows in map(tuple, code_rows(
                m, range(1 << comb(m, 2))).tolist())
            if last_labels(rows, k) in reps]


def reverse_last(x, m, k):
    """x with bits m - k .. m - 1 in reverse order."""
    for a in range(k // 2):
        lo, hi = m - k + a, m - 1 - a
        flip = (x >> lo ^ x >> hi) & 1
        x = x ^ (flip << lo | flip << hi)
    return x


def psi(rows, k):
    """The int64 out-rows (B, m) with every arc reversed and labels
    m - k .. m - 1 in reverse order: the converse's row i is its
    in-mask, and the reversal reorders those k rows and those k bits of
    each."""
    m = rows.shape[1]
    converse = ((1 << m) - 1 ^ 1 << np.arange(m)) ^ rows
    order = np.arange(m)
    order[m - k:] = order[m - k:][::-1]
    return reverse_last(converse[:, order], m, k)


class TestConverseHalving:
    """The older triangle rule, oracle_reference.triangle_rule_blocks,
    scores the labeled tournaments of order m = n - 1
    whose triangle on the last three labels is one of the two order-3
    reps and in which vertex 0 beats the triangle's middle label m - 2,
    with twice the rep's number of labelings as weight, 12 or 4.
    Permuting the three labels keeps the class and takes every labeled
    triangle to its rep; psi, which reverses every arc and swaps the
    triangle's two end labels, keeps each rep triangle and flips the arc
    from vertex 0 to the middle label, so each summary entry is the
    every-code sweep's.  Reversing every arc takes the extension of a
    base by out-set s to that of its converse by the complement of s,
    and the kernel keeps c5, s5 and regularity under it and under
    psi."""

    TRIANGLES = {(0b110, 0b100, 0): 6, (0b010, 0b100, 0b001): 2}

    @pytest.mark.parametrize("n,sample", [(5, None), (6, None), (7, 256)])
    def test_kernel_agrees_on_converse_extensions(self, n, sample):
        # every base of order n - 1 below order 6; at order 7 a seeded
        # sample of 256 of the 2^15 bases.  The converse of row i is
        # its in-mask, and column s ^ full is column s read backwards
        m = n - 1
        base = np.arange(1 << comb(m, 2))
        if sample:
            base = np.random.default_rng(n).choice(base, sample,
                                                   replace=False)
        rows = code_rows(m, base)
        scores = _extension_batch(n, rows)
        converse = _extension_batch(n, ((1 << m) - 1 ^ 1 << np.arange(m))
                                    ^ rows)
        if n % 2:
            assert scores[2].any()  # the regular flags are not all False
        for score, image in zip(scores, converse):
            assert (image[:, ::-1] == score).all()

    @pytest.mark.parametrize("n", [5, 7])
    def test_each_labeling_with_0_beating_the_middle_once_with_its_weight(
            self, n):
        # every labeled tournament of order n - 1, decoded from its code
        m = n - 1
        reps = {rows: 2 * weight
                for rows, weight in rep_bases(m, self.TRIANGLES)
                if rows[0] >> m - 2 & 1}
        seen, sizes = [], []
        for rows, weight in triangle_rule_blocks(n):
            assert rows.dtype == weight.dtype == np.int64
            assert rows.shape[1:] == (m,) and weight.shape == (len(rows),)
            seen += zip(map(tuple, rows.tolist()), weight.tolist())
            sizes.append(len(rows))
        # streamed in blocks of at most one slice: 16 of 256 at order 7
        assert sizes == {5: [8], 7: [256] * 16}[n]
        assert len(seen) == len(dict(seen)) == len(reps) == 1 << comb(m, 2) - 3
        assert dict(seen) == reps
        assert sum(w for _, w in seen) << m == 1 << comb(n, 2)

    @pytest.mark.parametrize("n", [5, 7])
    def test_each_labeling_with_a_rep_triangle_once_with_its_weight(self, n):
        # the older triangle rule without psi: every labeling with a rep
        # triangle, each once with weight 6 or 2, reduces to the sweep's
        # summary
        m = n - 1
        bases = rep_bases(m, self.TRIANGLES)
        assert len(bases) == 1 << comb(m, 2) - 2
        rows = np.array([rows for rows, _ in bases], dtype=np.int64)
        weight = np.array([w for _, w in bases], dtype=np.int64)
        triangles = _extremes(n, [(rows, weight)], witnesses=False)
        assert triangles == _extremes(n, _labeled_batches(n), witnesses=False)
        assert triangles[0][0] == 1 << comb(n, 2)

    @pytest.mark.parametrize("m", [4, 6])
    def test_psi_pairs_the_rep_triangle_bases(self, m):
        # every base of order m with a rep triangle; psi's image of the
        # extension by out-set s is psi(base) extended by the complement
        # of s with its end bits swapped
        rows = np.array([rows for rows, _ in rep_bases(m, self.TRIANGLES)],
                        dtype=np.int64)
        image = psi(rows, 3)
        assert (psi(image, 3) == rows).all()
        assert (image != rows).any(axis=1).all()
        assert set(map(tuple, image.tolist())) == set(map(tuple,
                                                          rows.tolist()))
        assert ((image[:, 0] ^ rows[:, 0]) >> m - 2 & 1).all()
        assert [last_labels(r, 3) for r in image.tolist()] \
            == [last_labels(r, 3) for r in rows.tolist()]
        n = m + 1
        outsets = reverse_last((1 << m) - 1 ^ np.arange(1 << m), m, 3)
        scores = _extension_batch(n, rows)
        assert scores[2].any()  # the regular flags are not all False
        for score, psi_score in zip(scores, _extension_batch(n, image)):
            assert (psi_score[:, outsets] == score).all()

    @pytest.mark.parametrize("n", [5, 7])
    def test_each_labeling_with_1_beating_0_once_with_weight_2(self, n):
        # the older halving rule, by a second symmetry: swapping labels 0
        # and 1 keeps the class and flips that arc, so the labelings in
        # which 1 beats 0, each once with weight 2, reduce to the
        # labeled sweep's summary
        m = n - 1
        rows = code_rows(m, range(1 << comb(m, 2)))
        half = rows[rows[:, 1] & 1 == 1]
        assert len(half) == len(set(map(tuple, half.tolist()))) \
            == 1 << comb(m, 2) - 1
        halved = _extremes(n, [(half, 2)], witnesses=False)
        assert halved == _extremes(n, _labeled_batches(n), witnesses=False)
        assert halved[0][0] == 1 << comb(n, 2)

    def test_triangle_weights_are_orbit_sizes(self):
        # the 6 relabelings of every labeled triangle
        triangles = set(map(tuple, code_rows(3, range(8)).tolist()))
        assert len(triangles) == 8
        onto = {rep: {t for t in triangles
                      if any(relabel(t, p) == rep
                             for p in permutations(range(3)))}
                for rep in self.TRIANGLES}
        assert {rep: len(ts) for rep, ts in onto.items()} == self.TRIANGLES
        assert set().union(*onto.values()) == triangles

    @pytest.mark.parametrize("n", [5, 7])
    def test_halved_sweep_equals_every_code(self, n):
        labeled, argmax = _extremes(n, _labeled_batches(n), witnesses=False)
        assert (labeled, argmax) == _extremes(n, [every_code_block(n)],
                                              witnesses=False)
        assert labeled[0] == 1 << comb(n, 2)
        assert argmax == [[], []]


class TestFourLabelRule:
    """The labeled sweep scores the labeled tournaments of order m = n - 1
    whose last four labels hold one of the four order-4 reps, with the
    rep's number of labelings as weight, 24, 8, 8 or 24.  From m = 6 on
    it keeps those in which vertex 0 beats vertex 1, with twice that
    weight.  Permuting the four labels keeps the class and takes every
    labeled order-4 tournament to its rep; psi, which reverses every arc
    and then the order of the four labels, maps the reps onto each other
    and flips the arc from vertex 0 to vertex 1, so each summary entry
    is the every-code sweep's and the triangle rule's."""

    # the transitive rep, a source over the 3-cycle, the 3-cycle over a
    # sink and the strong rep, each with its number of labelings
    REPS = {(0b1110, 0b1100, 0b1000, 0): 24,
            (0b1110, 0b0100, 0b1000, 0b0010): 8,
            (0b1010, 0b1100, 0b1001, 0): 8,
            (0b0110, 0b1100, 0b1000, 0b0001): 24}

    def test_rep_weights_are_orbit_sizes(self):
        # the 24 relabelings of every labeled order-4 tournament: the
        # four orbits have 64 members together, so they are disjoint
        labelings = set(map(tuple, code_rows(4, range(64)).tolist()))
        assert len(labelings) == 64
        onto = {rep: {t for t in labelings
                      if any(relabel(t, p) == rep
                             for p in permutations(range(4)))}
                for rep in self.REPS}
        assert {rep: len(ts) for rep, ts in onto.items()} == self.REPS
        assert sum(self.REPS.values()) == 64
        assert set().union(*onto.values()) == labelings

    @pytest.mark.parametrize("n", [5, 7])
    def test_each_labeling_with_a_rep_and_0_beating_1_once_with_its_weight(
            self, n):
        # every labeled tournament of order n - 1, decoded from its code;
        # at order 4 the reps alone, each with its weight
        m = n - 1
        halved = m >= 6
        reps = {rows: weight << halved
                for rows, weight in rep_bases(m, self.REPS)
                if not halved or rows[0] >> 1 & 1}
        seen, sizes = [], []
        for rows, weight in _labeled_batches(n):
            assert rows.dtype == weight.dtype == np.int64
            assert rows.shape[1:] == (m,) and weight.shape == (len(rows),)
            seen += zip(map(tuple, rows.tolist()), weight.tolist())
            sizes.append(len(rows))
        # streamed in blocks of at most one slice: 4 of 256 at order 7
        assert sizes == {5: [4], 7: [256] * 4}[n]
        assert len(seen) == len(dict(seen)) == len(reps) \
            == {5: 4, 7: 1 << comb(m, 2) - 5}[n]
        assert dict(seen) == reps
        assert sum(w for _, w in seen) << m == 1 << comb(n, 2)

    def test_psi_pairs_the_rep_bases(self):
        # every base of order 6 with a rep on its last four labels;
        # psi's image of the extension by out-set s is psi(base)
        # extended by the complement of s with its last four bits
        # reversed
        m, n = 6, 7
        rows = np.array([rows for rows, _ in rep_bases(m, self.REPS)],
                        dtype=np.int64)
        assert len(rows) == 4 << comb(m, 2) - 6
        image = psi(rows, 4)
        assert (psi(image, 4) == rows).all()
        assert (image != rows).any(axis=1).all()
        assert set(map(tuple, image.tolist())) == set(map(tuple,
                                                          rows.tolist()))
        assert ((image[:, 0] ^ rows[:, 0]) >> 1 & 1).all()
        # the transitive and the strong rep are their own images, the
        # two 3-cycle reps each other's
        transitive, source, sink, strong = self.REPS
        partner = {transitive: transitive, source: sink, sink: source,
                   strong: strong}
        assert [last_labels(r, 4) for r in image.tolist()] \
            == [partner[last_labels(r, 4)] for r in rows.tolist()]
        outsets = reverse_last((1 << m) - 1 ^ np.arange(1 << m), m, 4)
        scores = _extension_batch(n, rows)
        assert scores[2].any()  # the regular flags are not all False
        for score, psi_score in zip(scores, _extension_batch(n, image)):
            assert (psi_score[:, outsets] == score).all()

    @pytest.mark.parametrize("n", [5, 7])
    def test_sweep_equals_the_triangle_rule(self, n):
        labeled = _extremes(n, _labeled_batches(n), witnesses=False)
        assert labeled == _extremes(n, triangle_rule_blocks(n),
                                    witnesses=False)
        assert labeled[0][0] == 1 << comb(n, 2)


class TestExtensionKernel:
    """The kernel's counts, on bases decoded from edge codes, against
    the counting oracles on the labeled tournament each extension's code
    names."""

    @staticmethod
    def assert_matches_oracles(n, codes, c5, s5, regular):
        for code, c, s, r in zip(codes.ravel().tolist(), c5.ravel().tolist(),
                                 s5.ravel().tolist(), regular.ravel().tolist()):
            t = tournament_from_code(n, code)
            assert (c, s, r) == (oracle_cycles(t, 5),
                                 oracle_strong_subs(t, 5), is_regular(t)), code

    @staticmethod
    def extension_codes(n, base):
        """The code of base b's extension by out-set s, at row b, column
        s: vertex 0's pairs come first in the edge code."""
        return (base[:, None] << n - 1) + np.arange(1 << n - 1)

    def test_indivisible_5_walk_total_is_a_bug(self):
        # a looped 1x1 base has one closed 5-walk; no tournament can give
        # a total that 5 does not divide, so this is a parity fault
        with pytest.raises(InternalParityError,
                           match="^closed 5-walk total not 5-divisible$"):
            _extension_batch(2, np.array([[1]], dtype=np.int64))

    def test_every_order5_code(self):
        base = np.arange(64)
        c5, s5, regular = _extension_batch(5, code_rows(4, base))
        codes = self.extension_codes(5, base)
        assert codes.tolist() == np.arange(1 << 10).reshape(64, 16).tolist()
        self.assert_matches_oracles(5, codes, c5, s5, regular)

    @given(st.integers(0, (1 << 21) - 1))
    @settings(max_examples=40, deadline=None)
    def test_order7_codes(self, code):
        # the sampled code's base, with all 64 out-sets of vertex 0
        base = np.array([code >> 6])
        c5, s5, regular = _extension_batch(7, code_rows(6, base))
        codes = self.extension_codes(7, base)
        assert codes[0, code & 63] == code
        self.assert_matches_oracles(7, codes, c5, s5, regular)

    def test_every_extension_of_the_order6_classes(self):
        # the drawn order-7 codes above are almost never regular; these
        # 3,584 extensions include every regular class of order 7, built
        # from the reps' out-rows as the class scan builds its hits
        checked = regular_seen = 0
        reps, _ = _classes(6, None)
        c5, s5, regular = _extension_batch(7, reps)
        rows = _extend(reps[:, None, :], np.arange(64))
        for t_rows, c, s, r in zip(
                rows.reshape(-1, 7).tolist(), c5.ravel().tolist(),
                s5.ravel().tolist(), regular.ravel().tolist()):
            t = validate(7, t_rows)
            assert (c, s, r) == (c5_formula(t), s5_formula(t),
                                 is_regular(t)), t_rows
            checked += 1
            regular_seen += r
        # the five extensions that the module docstring counts as the
        # s5 maximizers: their orbits add up to the 2,640 regular labeled
        # tournaments
        assert (checked, regular_seen) == (56 * 64, 5)

    @pytest.mark.parametrize("n", [5, 7])
    def test_vertex_table(self, n):
        table = extremal._vertex_table(n)
        m = n - 1
        assert table.shape == (m, 1 << m, 1 << m)
        for i in range(m):
            for in_i in range(1 << m):
                if not (in_i >> i) & 1:
                    assert table[i, in_i].tolist() == [
                        vertex_share(n, i, in_i, s) for s in range(1 << m)
                    ], (i, in_i)

    @staticmethod
    def outsets(m):
        return (np.arange(1 << m)[:, None] >> np.arange(m)) & 1

    @pytest.mark.parametrize("m", range(1, 9))
    def test_cut_forms(self, m):
        # random entries with a non-zero diagonal, as A^3 has: the
        # weight vec(s u^T) is 0 there, so X_tt must not reach the form
        rng = np.random.default_rng(m)
        x = rng.integers(-50, 51, (3, m, m))
        x[:, range(m), range(m)] = rng.integers(1, 51, (3, m))
        assert extremal._cut_forms(x).tolist() == [
            [cut_form(xb.tolist(), sq.tolist()) for sq in self.outsets(m)]
            for xb in x]

    @pytest.mark.parametrize("n", [5, 7, 9, 11])
    def test_cut_forms_of_the_kernel_operands(self, n):
        # every order-5 base; at order 7 the 56 order-6 class reps and
        # 256 labeled bases spread over all 2^15; at orders 9 and 11
        # random bases
        m = n - 1
        if n == 5:
            rows = code_rows(m, range(64))
        elif n == 7:
            rows = np.concatenate([_classes(6, None)[0],
                                   code_rows(m, np.arange(256) * 127)])
        else:
            rows = code_rows(m, np.random.default_rng(n).integers(
                0, 1 << comb(m, 2), 64))
        a = _row_bits(rows, m)
        sq = a @ a
        s = self.outsets(m)
        u = 1 - s

        def dense(x, left, right):
            outer = (left[:, :, None] * right[:, None, :]).reshape(-1, m * m)
            return x.reshape(len(x), m * m) @ outer.T

        c2 = extremal._binomials(n)[0]
        cube, arcs = sq @ a, a * c2[sq]
        assert (np.diagonal(cube, axis1=1, axis2=2) != 0).any()
        assert (extremal._cut_forms(cube) == dense(cube, s, u)).all()
        assert (extremal._cut_forms(np.swapaxes(arcs, 1, 2))
                == dense(arcs, u, s)).all()

    def test_binomials(self):
        tables = extremal._binomials(7)
        assert extremal._binomials(7) is tables
        assert [t.tolist() for t in tables] == [
            [comb(v, r) for v in range(8)] for r in (2, 3, 4)]
        assert not any(t.flags.writeable for t in tables)

    def test_per_order_constants(self):
        # built once per order and shared by every batch, so read-only
        bit, outsets, s, size, weight = extremal._outsets(6)
        assert extremal._outsets(6) is extremal._outsets(6)
        assert bit.tolist() == list(range(6))
        assert outsets.tolist() == list(range(64))
        assert s.tolist() == self.outsets(6).tolist()
        assert size.tolist() == [bin(q).count("1") for q in range(64)]
        assert weight.dtype == np.float64 and weight.shape == (36, 64)
        assert weight.T.reshape(64, 6, 6).tolist() == [
            [[sq[i] * (1 - sq[j]) for j in range(6)] for i in range(6)]
            for sq in self.outsets(6).tolist()]
        assert not any(table.flags.writeable for table in
                       (bit, outsets, s, size, weight))

    def test_dropped_batch_raises(self, monkeypatch):
        # the last of the 4 order-7 blocks, rows and weights: 256 bases
        # with the strong rep, weight 48, of 64 extensions each, so the
        # sweep counts 2^21 - 786,432
        batches = extremal._labeled_batches
        monkeypatch.setattr(extremal, "_labeled_batches",
                            lambda n: islice(batches(n), 3))
        with pytest.raises(VerificationFailedError,
                           match=r"visited 1310720 labeled tournaments, "
                                 r"not 2\^21"):
            verify_c5_max(7)


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

    def test_fails_without_one_class(self, corpus9):
        from tourney.enumeration import EnumCorpus
        broken = EnumCorpus(corpus9.n, corpus9.labeled_count,
                            corpus9.classes[:4] + corpus9.classes[5:])
        with pytest.raises(VerificationFailedError,
                           match="^expected 15 classes at order 9, got 14$"):
            verify_regular9(broken)

    def test_fails_on_keys_shifted_to_the_next_rep(self, corpus9):
        # every key stays sorted and distinct, and each rep regular, but
        # the audit alone would report the witness keys of other classes
        from tourney.enumeration import EnumCorpus
        keys = [cf for cf, _ in corpus9.classes]
        reps = [rep for _, rep in corpus9.classes]
        shifted = EnumCorpus(corpus9.n, corpus9.labeled_count,
                             tuple(zip(keys, reps[1:] + reps[:1])))
        with pytest.raises(VerificationFailedError,
                           match="does not match its representative$"):
            verify_regular9(shifted)

    def test_refuses_another_order(self, corpus7):
        with pytest.raises(InvalidInput,
                           match="^need the order-9 regular corpus$"):
            verify_regular9(corpus7)

    @pytest.mark.parametrize("k", [0, 1], ids=["e", "j"])
    @pytest.mark.parametrize("how", ["sum", "sign"])
    def test_fails_on_a_perturbed_term(self, corpus9, monkeypatch, k, how):
        regular_terms = extremal._regular_terms
        monkeypatch.setattr(extremal, "_regular_terms",
                            lambda t: perturbed(regular_terms(t), k, how))
        with pytest.raises(VerificationFailedError,
                           match="certificate terms add up to"):
            verify_regular9(corpus9)

    def test_fails_when_no_class_meets_a_closed_form(self, corpus9,
                                                     monkeypatch):
        # a closed form one above the true max c5, 180, with terms that
        # still add up to its gap on every class but vanish on none
        regular_terms = extremal._regular_terms

        def raised(t):
            e, j = regular_terms(t)
            return np.append(e[:1] + 4, e[1:]), j

        monkeypatch.setattr(extremal, "c5_regular_max", lambda n: 181)
        monkeypatch.setattr(extremal, "_regular_terms", raised)
        with pytest.raises(VerificationFailedError,
                           match="^no class meets min s5 = 108 or max c5 = "
                                 "181$"):
            verify_regular9(corpus9)

    def test_fails_on_a_maximizer_not_nearly_doubly_regular(self, corpus9,
                                                            monkeypatch):
        monkeypatch.setattr(extremal, "is_nearly_doubly_regular",
                            lambda t: False)
        with pytest.raises(VerificationFailedError,
                           match="is not nearly doubly regular$"):
            verify_regular9(corpus9)

    def test_fails_on_truncated_corpus(self, corpus9):
        from tourney.enumeration import EnumCorpus
        broken = EnumCorpus(corpus9.n, corpus9.labeled_count,
                            corpus9.classes[:10])
        with pytest.raises(VerificationFailedError):
            verify_regular9(broken)
