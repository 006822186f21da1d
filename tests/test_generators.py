"""Constructors: transitive, rotational, quadratic-residue, named
fixtures, seeded random. Structural claims are checked directly; the
named order-9 fixtures carry the properties that make them useful."""

from __future__ import annotations

import hashlib

import pytest

from tourney import (
    EnumCorpus,
    RotationalSymbol,
    arc_intersections,
    c3_formula,
    canonical_form,
    compose,
    converse,
    expected_cycles,
    format_tour,
    gen_named,
    gen_qr,
    gen_qr_power,
    gen_random,
    gen_rlt,
    gen_rotational,
    gen_transitive,
    induced,
    is_doubly_regular,
    is_isomorphic,
    is_regular,
    is_strong,
    scores,
)
from tourney.errors import InvalidInput, VerificationFailedError
from tourney import generators


class TestOrderCheck:
    """Each generator that takes an order checks it as validate and
    parse_tour do, with the same InvalidInput message below 1 and above
    64."""

    @pytest.mark.parametrize("make", [
        gen_transitive,
        lambda n: gen_random(n, 1),
        lambda n: RotationalSymbol(n, frozenset(range(1, (n + 1) // 2))),
    ], ids=["transitive", "random", "rotational-symbol"])
    @pytest.mark.parametrize("n, message", [
        (0, "order must be >= 1, got 0"),
        (65, "order 65 exceeds the cap of 64"),
    ], ids=["below-1", "above-64"])
    def test_order_outside_1_to_64(self, make, n, message):
        with pytest.raises(InvalidInput, match=f"^{message}$"):
            make(n)


class TestTransitive:
    def test_structure(self):
        t = gen_transitive(5)
        for i in range(5):
            for j in range(5):
                if i != j:
                    assert t.has_arc(i, j) == (i < j)

    def test_no_cycles(self):
        assert c3_formula(gen_transitive(8)) == 0


class TestRotational:
    def test_symbol_validation(self):
        RotationalSymbol(7, frozenset({1, 2, 3}))
        with pytest.raises(InvalidInput, match="^rotational tournaments "
                                               "need odd order, got 6$"):
            RotationalSymbol(6, frozenset({1, 2}))
        with pytest.raises(InvalidInput, match="^exactly one of 3 and 4 "
                                               "must be in the symbol$"):
            RotationalSymbol(7, frozenset({1, 2}))  # misses {3,4}
        with pytest.raises(InvalidInput, match="^exactly one of 3 and 4 "
                                               "must be in the symbol$"):
            RotationalSymbol(7, frozenset({1, 2, 3, 4}))  # both 3 and -3
        with pytest.raises(InvalidInput,
                           match=r"^differences must lie in 1\.\.n-1$"):
            RotationalSymbol(7, frozenset({0, 1, 2}))

    def test_always_regular(self):
        for n, diffs in ((5, {1, 2}), (5, {1, 3}), (7, {1, 2, 3}),
                         (7, {1, 5, 3}), (9, {1, 2, 3, 4}), (9, {8, 2, 3, 4})):
            t = gen_rotational(RotationalSymbol(n, frozenset(diffs)))
            assert is_regular(t)

    def test_converse_negates_symbol(self):
        n = 9
        s = RotationalSymbol(n, frozenset({1, 2, 3, 4}))
        neg = RotationalSymbol(n, frozenset((n - d) % n for d in s.diffs))
        assert converse(gen_rotational(s)) == gen_rotational(neg)

    def test_rlt_is_consecutive_symbol(self):
        assert gen_rlt(7) == gen_rotational(RotationalSymbol(7, frozenset({1, 2, 3})))
        with pytest.raises(InvalidInput, match="^RLT needs odd order, got 6$"):
            gen_rlt(6)


class TestQuadraticResidue:
    def test_arc_rule(self):
        t = gen_qr(7)
        squares = {(x * x) % 7 for x in range(1, 7)}
        for i in range(7):
            for j in range(7):
                if i != j:
                    assert t.has_arc(i, j) == ((j - i) % 7 in squares)

    def test_doubly_regular_for_all_listed_primes(self):
        for p in (7, 11, 19, 23, 31, 43, 47):
            t = gen_qr(p)
            assert is_regular(t)
            assert is_doubly_regular(t)
            i, j = next(iter(t.arcs()))
            assert arc_intersections(t, i, j).dpp == (p - 3) // 4

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInput, match="^9 is not prime$"):
            gen_qr(9)
        with pytest.raises(InvalidInput, match=r"^need p = 3 \(mod 4\), "
                                               r"got 13 = 1 \(mod 4\)$"):
            gen_qr(13)  # 13 % 4 == 1: j - i and i - j both or neither square

    def test_prime_power_field(self):
        t = gen_qr_power(3, 3)
        assert t.n == 27
        assert is_doubly_regular(t)
        # prime case must agree with the direct construction
        assert gen_qr_power(7, 1) == gen_qr(7)

    def test_prime_power_text_is_pinned(self):
        # sha256 of the .tour text of the GF(27) tournament, so that
        # `gen qr --p 3 --power 3` keeps its bytes
        text = format_tour(gen_qr_power(3, 3))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "0c7c367d179ce2a26a9a62574960053473f59dd14ae9c096029a42afbbc1fa72")

    def test_gf27_modulus_is_a_cubic_with_no_root_in_f3(self):
        # a reducible cubic has a linear factor, hence a root
        f = generators._GF27_MODULUS
        assert len(f) == 4 and f[-1] == 1
        assert all(sum(c * x ** d for d, c in enumerate(f)) % 3
                   for x in range(3))

    def test_prime_power_rejects_even_degree(self):
        with pytest.raises(InvalidInput,
                           match="^need odd extension degree, got k=2$"):
            gen_qr_power(3, 2)  # 9 = 3^2 has -1 a square

    @pytest.mark.parametrize("p, message", [
        (67, "order 67 exceeds 64"),
        (5, r"need p = 3 \(mod 4\), got 5 = 1 \(mod 4\)"),
        (9, "9 is not prime"),
    ], ids=["above-cap", "residue-1", "not-prime"])
    def test_power_one_refuses_as_gen_qr(self, p, message):
        # GF(p^1) is Z_p, so degree 1 is QR_p with QR_p's refusals
        with pytest.raises(InvalidInput, match=f"^{message}$") as direct:
            gen_qr(p)
        with pytest.raises(InvalidInput, match=f"^{message}$") as via_power:
            gen_qr_power(p, 1)
        assert type(via_power.value) is type(direct.value)


class TestNamed:
    def test_delta(self):
        d = gen_named("delta")
        assert d.n == 3 and c3_formula(d) == 1

    def test_compositions_are_what_they_say(self):
        delta = gen_named("delta")
        tt2 = gen_transitive(2)
        one = gen_transitive(1)
        assert gen_named("delta_tt2") == compose(delta, [tt2, tt2, tt2])
        assert gen_named("delta_delta") == compose(delta, [delta] * 3)
        assert gen_named("delta_o_tt3_o") == compose(
            delta, [one, gen_transitive(3), one])
        assert gen_named("delta_tt2_o_tt2") == compose(
            delta, [tt2, one, tt2])
        assert gen_named("delta_o_delta_o") == compose(
            delta, [one, delta, one])
        assert gen_named("st4") == compose(delta, [tt2, one, one])
        assert gen_named("dr7") == gen_qr(7)

    def test_st4_is_the_strong_4_class(self):
        t = gen_named("st4")
        assert t.n == 4 and is_strong(t)

    def test_unknown_rejected(self):
        with pytest.raises(InvalidInput,
                           match="^unknown tournament name 'nope'; known: "):
            gen_named("nope")

    def test_kz7_is_the_leftover_regular_class(self):
        from tourney import is_locally_transitive
        t = gen_named("kz7")
        assert t.n == 7
        assert is_regular(t)
        assert not is_locally_transitive(t)
        assert not is_doubly_regular(t)

    def test_kz7_needs_exactly_one_leftover_class(self, corpus7,
                                                  monkeypatch):
        # a corpus with the leftover class twice gives two candidates;
        # the check must raise even under python -O
        kz7 = [c for c in corpus7.classes if c[1] == gen_named("kz7")]
        doubled = EnumCorpus(7, corpus7.labeled_count,
                             corpus7.classes + tuple(kz7))
        monkeypatch.setattr(generators, "enumerate_regular",
                            lambda n: doubled)
        generators._kz7.cache_clear()
        try:
            with pytest.raises(VerificationFailedError, match="got 2"):
                gen_named("kz7")
        finally:
            generators._kz7.cache_clear()

    @pytest.mark.parametrize("name", ["prop2_a", "prop2_b"])
    def test_order9_fixture_properties(self, name):
        from tourney import aat_positive
        t = gen_named(name)
        assert t.n == 9
        assert is_regular(t)
        assert aat_positive(t)
        # some out-set induces the strong 4-tournament, some other out-set
        # induces a vertex dominating a 3-cycle
        st4 = gen_named("st4")
        o_delta = compose(gen_transitive(2),
                          [gen_transitive(1), gen_named("delta")])
        hits_strong = [v for v in t.vertices()
                       if is_isomorphic(induced(t, t.out_mask(v)), st4)]
        hits_dominated = [v for v in t.vertices()
                          if is_isomorphic(induced(t, t.out_mask(v)), o_delta)]
        assert hits_strong and hits_dominated

    def test_fixtures_not_isomorphic_to_each_other(self):
        a, b = gen_named("prop2_a"), gen_named("prop2_b")
        assert not is_isomorphic(a, b)
        assert not is_isomorphic(a, gen_named("delta_delta"))


class TestRandom:
    def test_seed_determinism(self):
        assert gen_random(9, 123) == gen_random(9, 123)
        assert gen_random(9, 123) != gen_random(9, 124)

    def test_valid_output(self):
        for seed in range(10):
            t = gen_random(11, seed)
            assert t.n == 11  # validate() ran inside

    def test_mean_triangle_count(self):
        # E[c3] at order 7 is binom(7,3)/4 = 8.75; 400 samples stay close
        total = sum(c3_formula(gen_random(7, seed)) for seed in range(400))
        mean = total / 400
        expect = float(expected_cycles(7, 3))
        assert abs(mean - expect) / expect < 0.05

    def test_canonical_spread(self):
        # distinct seeds rarely collide as isomorphism classes at order 9
        keys = {canonical_form(gen_random(9, s)).key for s in range(30)}
        assert len(keys) >= 28


class TestScoresOfFixtures:
    def test_fixture_rows_are_regular(self):
        for name in ("prop2_a", "prop2_b"):
            outs, ins = scores(gen_named(name))
            assert outs == (4,) * 9 and ins == (4,) * 9
