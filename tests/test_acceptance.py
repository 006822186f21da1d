"""Acceptance gate: the eleven headline claims, one test each.

Every test re-derives its claim from scratch within its stated runtime
budget and prints a single PASS line (visible with -v via the test name,
or with -s via stdout).  Nothing here trusts a cached value from
another test beyond the session fixtures, whose build times are
asserted against the budgets too.
"""

from __future__ import annotations

import time
from math import comb

from tourney import (
    aat_positive,
    c4_formula,
    c5_formula,
    c5_of_rlt,
    c5_regular_max,
    canonical_form,
    compose,
    gen_named,
    gen_qr,
    gen_rlt,
    gen_transitive,
    induced,
    is_doubly_regular,
    is_isomorphic,
    is_locally_transitive,
    is_nearly_doubly_regular,
    is_rldr,
    is_rlndr,
    oracle_cycles,
    oracle_strong_subs,
    regular_identity,
    regular_identity_trace,
    s5_formula,
    s5_of_rlt,
    trace_m,
    verify_binomial_sum_min,
    verify_regular9,
)

from oracle_reference import count_copies, tournament_from_code


def _report(number: int, message: str, seconds: float | None = None) -> None:
    suffix = f"  ({seconds:.1f}s)" if seconds is not None else ""
    print(f"[criterion {number:2d}] PASS  {message}{suffix}")


def test_criterion_01_exhaustive_order5_oracle_equivalence():
    start = time.perf_counter()
    for code in range(1 << 10):
        t = tournament_from_code(5, code)
        c3 = oracle_cycles(t, 3)
        c4 = oracle_cycles(t, 4)
        c5 = oracle_cycles(t, 5)
        assert c5_formula(t) == c5
        assert c4_formula(t) == c4
        assert s5_formula(t) == oracle_strong_subs(t, 5)
        assert trace_m(t, 3) == 3 * c3
        assert trace_m(t, 4) == 4 * c4
        assert trace_m(t, 5) == 5 * c5
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, "all 1024 order-5 tournaments: formulas = oracles", elapsed)


def test_criterion_02_order7_c5_maximum(sweep7, timings):
    assert sweep7.total_codes == 1 << 21
    assert sweep7.c5.observed == 42 == (8 * 7 * 6 * 5 * 4) // 160
    assert sweep7.c5.tight
    assert sweep7.c5.witnesses == (canonical_form(gen_qr(7)).hex(),)
    assert timings["sweep7"] < 600.0
    _report(2, "exhaustive order 7: max c5 = 42, only at the "
               "quadratic-residue class", timings["sweep7"])


def test_criterion_03_order7_s5_maximum(sweep7, corpus7):
    assert sweep7.s5.observed == 21 == comb(7, 5)
    assert sweep7.s5.tight
    assert sweep7.s5.witnesses == tuple(cf.hex() for cf, _ in corpus7.classes)
    assert len(sweep7.s5.witnesses) == 3
    _report(3, "exhaustive order 7: max s5 = 21, exactly the 3 regular "
               "classes")


def test_criterion_04_regular_class_counts(corpus7, corpus9, sweep5, sweep7,
                                           timings):
    from tourney import enumerate_regular
    counts = {3: 1, 5: 1}
    for n, expect in counts.items():
        assert len(enumerate_regular(n).classes) == expect
    assert len(corpus7.classes) == 3
    assert len(corpus9.classes) == 15
    # labeled counts agree with the independent full sweeps
    assert enumerate_regular(5).labeled_count == sweep5.regular_codes == 24
    assert corpus7.labeled_count == sweep7.regular_codes == 2640
    assert timings["corpus9"] < 1800.0
    _report(4, "regular classes: 1, 1, 3, 15 at orders 3, 5, 7, 9",
            timings["corpus9"])


def test_criterion_05_order9_corpus_extremes(corpus9):
    start = time.perf_counter()
    reports = verify_regular9(corpus9)
    s5_min, c5_max = reports["s5_min"], reports["c5_max"]
    assert s5_min.observed == 108 and s5_min.tight
    assert len(s5_min.witnesses) == 5
    witnesses = set(s5_min.witnesses)
    aat = {cf.hex() for cf, rep in corpus9.classes if aat_positive(rep)}
    assert witnesses == aat
    ndr = {cf.hex() for cf, rep in corpus9.classes
           if is_nearly_doubly_regular(rep)}
    assert len(ndr) == 2 and ndr < witnesses
    for name in ("delta_delta", "prop2_a", "prop2_b"):
        assert canonical_form(gen_named(name)).hex() in witnesses
    assert c5_max.observed == 180 == c5_regular_max(9) and c5_max.tight
    assert set(c5_max.witnesses) == ndr
    _report(5, "order-9 regular corpus: min s5 = 108 at the 5 expected "
               "classes, max c5 = 180 at the 2 NDR classes",
            time.perf_counter() - start)


def test_criterion_06_regular_identity(corpus7, corpus9):
    subjects = [gen_named("delta"), gen_rlt(5)]
    subjects += [rep for _, rep in corpus7.classes]
    subjects += [rep for _, rep in corpus9.classes]
    subjects += [gen_qr(11), gen_rlt(11)]
    for t in subjects:
        lhs, rhs = regular_identity(t)
        assert lhs == rhs
        tl, tr = regular_identity_trace(t)
        assert tl == tr
    _report(6, f"c5 + 2 c4 identity (and its trace form) on "
               f"{len(subjects)} regular tournaments")


def test_criterion_07_rlt_closed_forms_and_copies():
    start = time.perf_counter()
    assert [s5_of_rlt(n) for n in (5, 7, 9, 11)] == [1, 21, 117, 407]
    assert [c5_of_rlt(n) for n in (5, 7, 9, 11)] == [2, 28, 144, 484]
    for n in (5, 7, 9, 11):
        t = gen_rlt(n)
        assert s5_formula(t) == s5_of_rlt(n)
        assert c5_formula(t) == c5_of_rlt(n)
    t11 = gen_rlt(11)
    assert oracle_strong_subs(t11, 5) == 407
    assert oracle_cycles(t11, 5) == 484
    rlt7 = gen_rlt(7)
    assert count_copies(rlt7, gen_rlt(5)) == 7
    assert count_copies(rlt7, gen_named("delta_o_tt3_o")) == 7
    patterns = [gen_rlt(5), gen_named("delta_o_tt3_o"),
                gen_named("delta_tt2_o_tt2")]
    for n in (5, 7, 9):
        t = gen_rlt(n)
        copies = [count_copies(t, p) for p in patterns]
        assert sum(copies) == s5_formula(t)
        assert 2 * copies[0] + copies[1] + copies[2] == c5_formula(t)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(7, "locally transitive closed forms 1/21/117/407 and "
               "2/28/144/484, oracle-confirmed at order 11", elapsed)


def test_criterion_08_small_composition_counts():
    one = gen_transitive(1)
    tt2 = gen_transitive(2)
    delta = gen_named("delta")
    assert c5_formula(compose(delta, [one, delta, one])) == 3
    assert c5_formula(gen_named("delta_tt2")) == 6
    rlt7 = gen_rlt(7)
    for v in rlt7.vertices():
        deleted = induced(rlt7, rlt7.full_mask() & ~(1 << v))
        assert c5_formula(deleted) == 8
    grown = compose(gen_rlt(5), [tt2, one, one, one, one])
    assert c5_formula(grown) == 8
    deleted = induced(rlt7, rlt7.full_mask() & ~1)
    assert is_isomorphic(grown, deleted)
    _report(8, "composition counts: 3, 6, and 8 five-cycles on the small "
               "expansions")


def test_criterion_09_balanced_binomial_minimization():
    start = time.perf_counter()
    expected = {(5, 2): 5, (6, 2): 12, (7, 2): 21, (7, 3): 7,
                (7, 4): 0, (9, 4): 9, (8, 3): 20}
    for (n, p), value in expected.items():
        report = verify_binomial_sum_min(n, p)
        assert report.bound.observed == value
        if n >= 2 * p - 1:
            assert report.unique_minimizer
            assert report.bound.witnesses == (
                ",".join(str(d) for d in report.balanced),)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(9, "balanced score sequences uniquely minimize the binomial "
               "sums on all 7 cases", elapsed)


def test_criterion_10_quadratic_residue_local_structure():
    start = time.perf_counter()
    assert is_rldr(gen_qr(7))
    assert is_rlndr(gen_qr(11))
    assert is_rlndr(gen_qr(19))
    assert not is_rldr(gen_qr(23))
    assert not is_rldr(gen_qr(31))
    assert not is_rldr(gen_qr(47))
    assert not is_rlndr(gen_qr(43))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(10, "quadratic-residue membership split at orders "
                "7/11/19 vs 23/31/43/47", elapsed)


def test_criterion_11_kz7_characterization(corpus7):
    kz7 = gen_named("kz7")
    assert not is_locally_transitive(kz7)
    assert not is_doubly_regular(kz7)
    # it is the only regular order-7 class with neither property
    leftovers = [rep for _, rep in corpus7.classes
                 if not is_locally_transitive(rep)
                 and not is_doubly_regular(rep)]
    assert len(leftovers) == 1
    assert is_isomorphic(leftovers[0], kz7)
    target = gen_named("delta_tt2")
    hits = [v for v in kz7.vertices()
            if is_isomorphic(induced(kz7, kz7.full_mask() & ~(1 << v)),
                             target)]
    assert hits
    _report(11, "the leftover regular order-7 class contains the "
                "expanded triangle as a one-vertex-deleted subtournament")
