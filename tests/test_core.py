"""Structural layer: validation, surgery, strong components, canonical
forms.  Canonicalization is checked against the unpruned permutation
minimum; everything else against hand-checked small cases."""

from __future__ import annotations

import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourney import (
    CanonicalForm,
    Tournament,
    automorphism_count,
    canonical_form,
    compose,
    converse,
    gen_named,
    gen_qr,
    gen_random,
    gen_rlt,
    gen_transitive,
    induced,
    is_isomorphic,
    is_strong,
    mask_of,
    strong_decomposition,
    validate,
    vertices_of,
)
from tourney.core import _minimal_relabelings
from tourney.errors import ArcError, InvalidInput, TourneyError

from oracle_reference import (
    _strong_within,
    canonical_form_bruteforce,
    key_for_permutation,
    tournament_from_code,
    validate_by_pairs,
)


def random_tournament(rng: random.Random, n: int) -> Tournament:
    return gen_random(n, rng.randrange(1 << 30))


def automorphisms_bruteforce(t: Tournament) -> int:
    """The relabelings whose key equals the minimum over all n!
    relabelings, which is canonical_form_bruteforce's key."""
    keys = [key_for_permutation(t, p)
            for p in itertools.permutations(range(t.n))]
    return keys.count(min(keys))


def relabel(t: Tournament, perm: list[int]) -> Tournament:
    rows = [0] * t.n
    for i in range(t.n):
        for j in range(t.n):
            if t.has_arc(i, j):
                rows[perm[i]] |= 1 << perm[j]
    return validate(t.n, rows)


class TestValidate:
    def test_accepts_delta(self):
        t = validate(3, [0b010, 0b100, 0b001])
        assert t.out_rows == (2, 4, 1)

    def test_row_count_mismatch(self):
        with pytest.raises(InvalidInput, match="^expected 3 rows, got 2$"):
            validate(3, [0b010, 0b100])

    def test_order_cap(self):
        with pytest.raises(InvalidInput,
                           match="^order 65 exceeds the cap of 64$"):
            validate(65, [0] * 65)

    def test_loop_rejected(self):
        with pytest.raises(ArcError,
                           match="^vertex 0 has an arc to itself$") as info:
            validate(2, [0b01, 0b01])
        assert info.value.cell == (0, 0)

    def test_missing_arc_rejected(self):
        with pytest.raises(ArcError,
                           match=r"^pair \(0, 1\) has no arc$") as info:
            validate(2, [0, 0])
        assert info.value.cell == (0, 1)

    def test_double_arc_rejected(self):
        with pytest.raises(ArcError,
                           match=r"^pair \(0, 1\) has both arcs$") as info:
            validate(2, [0b10, 0b01])
        assert info.value.cell == (0, 1)

    def test_single_vertex(self):
        assert validate(1, [0]).n == 1

    def test_order_zero_rejected(self):
        with pytest.raises(InvalidInput, match="^order must be >= 1, got 0$"):
            validate(0, [])

    def test_bool_order_rejected(self):
        with pytest.raises(InvalidInput,
                           match="^order must be an int, got 'True'$"):
            validate(True, [0])


def validate_outcome(check, n: int, rows: list[int]):
    """What check(n, rows) does: the Tournament it returns, or the type,
    message and cell of the error it raises."""
    try:
        return check(n, rows)
    except TourneyError as exc:
        return type(exc), str(exc), getattr(exc, "cell", None)


class TestValidateMatchesPairLoop:
    """validate checks pairs by columns; validate_by_pairs walks every
    pair i < j.  Both must accept the same rows and report the same first
    fault, with the same type, message and cell."""

    def same(self, n: int, rows: list[int]) -> None:
        assert validate_outcome(validate, n, rows) == \
            validate_outcome(validate_by_pairs, n, rows)

    @pytest.mark.parametrize("n", range(1, 65))
    def test_random_tournaments(self, n):
        rng = random.Random(n)
        for _ in range(3):
            rows = list(random_tournament(rng, n).out_rows)
            assert validate(n, rows) == validate_by_pairs(n, rows)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 17, 40, 63, 64])
    def test_one_fault(self, n):
        rng = random.Random(1000 + n)
        for _ in range(30):
            rows = list(random_tournament(rng, n).out_rows)
            i, j = rng.sample(range(n), 2)
            fault = rng.choice(["flip", "double", "clear", "reverse"])
            if fault == "flip":
                rows[i] ^= 1 << j
            elif fault == "double":
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            elif fault == "clear":
                rows[i] &= ~(1 << j)
                rows[j] &= ~(1 << i)
            else:  # still a tournament
                rows[i] ^= 1 << j
                rows[j] ^= 1 << i
            self.same(n, rows)

    @pytest.mark.parametrize("n", [3, 6, 11, 33, 64])
    def test_several_faults(self, n):
        rng = random.Random(2000 + n)
        for _ in range(30):
            rows = list(random_tournament(rng, n).out_rows)
            for _ in range(rng.randrange(2, 2 * n)):
                i, j = rng.sample(range(n), 2)
                rows[i] ^= 1 << j
            self.same(n, rows)

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_loops_and_stray_bits(self, n):
        rng = random.Random(3000 + n)
        for _ in range(20):
            rows = list(random_tournament(rng, n).out_rows)
            i = rng.randrange(n)
            kind = rng.randrange(4)
            if kind == 0:
                rows[i] |= 1 << i
            elif kind == 1:
                rows[i] |= 1 << (n + rng.randrange(3))
            elif kind == 2:
                rows[i] = -1 - rows[i]
            else:  # a loop after a missing pair, and a stray bit after both
                rows[i] |= 1 << i
                rows[rng.randrange(n)] |= 1 << n
            self.same(n, rows)


class TestMasks:
    def test_mask_round_trip(self):
        assert vertices_of(mask_of([0, 2, 5])) == [0, 2, 5]
        assert mask_of([]) == 0

    def test_negative_vertices_are_refused(self):
        # a negative mask has infinitely many set bits, and a negative
        # index is no shift count
        with pytest.raises(InvalidInput, match="^a vertex mask must be >= 0$"):
            vertices_of(-1)
        for call in (lambda: mask_of([-1]),
                     lambda: induced(gen_transitive(5), [-1])):
            with pytest.raises(InvalidInput,
                               match="^vertex indices must be >= 0$"):
                call()

    def test_degrees_sum(self):
        t = gen_random(8, 3)
        for v in t.vertices():
            assert t.out_degree(v) + t.in_degree(v) == 7
            assert t.out_mask(v) & t.in_mask(v) == 0
            assert t.out_mask(v) | t.in_mask(v) | (1 << v) == t.full_mask()

    def test_arc_list(self):
        t = gen_transitive(4)
        assert sorted(t.arcs()) == [(i, j) for i in range(4)
                                    for j in range(i + 1, 4)]


class TestSurgery:
    def test_induced_keeps_order(self):
        # vertices renumber by increasing original index
        t = gen_transitive(5)
        sub = induced(t, mask_of([1, 3, 4]))
        assert sub.n == 3
        assert sub.out_rows == gen_transitive(3).out_rows

    def test_converse_involution(self):
        rng = random.Random(11)
        for _ in range(20):
            t = random_tournament(rng, rng.randrange(1, 9))
            assert converse(converse(t)) == t

    def test_converse_flips_arcs(self):
        t = gen_random(6, 5)
        c = converse(t)
        for i in range(6):
            for j in range(6):
                if i != j:
                    assert t.has_arc(i, j) == c.has_arc(j, i)

    def test_compose_identity(self):
        # replacing every vertex by the single-vertex tournament is a no-op
        one = gen_transitive(1)
        t = gen_random(6, 9)
        assert compose(t, [one] * 6) == t

    def test_compose_block_arcs(self):
        delta = validate(3, [0b010, 0b100, 0b001])
        tt2 = gen_transitive(2)
        t = compose(delta, [tt2, tt2, tt2])
        assert t.n == 6
        # block {0,1} beats block {2,3}, which beats {4,5}, which beats {0,1}
        for i in (0, 1):
            for j in (2, 3):
                assert t.has_arc(i, j)
        for i in (4, 5):
            for j in (0, 1):
                assert t.has_arc(i, j)
        assert t.has_arc(0, 1) and t.has_arc(2, 3) and t.has_arc(4, 5)

    def test_compose_refusals(self):
        delta = validate(3, [0b010, 0b100, 0b001])
        with pytest.raises(InvalidInput,
                           match="^need 3 replacement tournaments, got 2$"):
            compose(delta, [gen_transitive(2)] * 2)
        with pytest.raises(InvalidInput,
                           match="^composed order 65 exceeds 64$"):
            compose(delta, [gen_transitive(22), gen_transitive(22),
                            gen_transitive(21)])

    def test_induced_vertex_outside_the_host(self):
        with pytest.raises(InvalidInput, match="^vertex set is not a subset "
                                               "of the host tournament$"):
            induced(gen_transitive(5), [0, 5])


class TestStrongDecomposition:
    def test_transitive_splits_fully(self):
        t = gen_transitive(5)
        d = strong_decomposition(t)
        assert [m.bit_count() for m in d.components] == [1] * 5
        # condensation order is the domination order
        assert [vertices_of(m)[0] for m in d.components] == [0, 1, 2, 3, 4]

    def test_strong_is_single_block(self):
        t = gen_rlt(7)
        d = strong_decomposition(t)
        assert len(d.components) == 1
        assert is_strong(t)

    def test_components_partition(self):
        rng = random.Random(23)
        for _ in range(30):
            t = random_tournament(rng, rng.randrange(1, 10))
            d = strong_decomposition(t)
            union = 0
            for m in d.components:
                assert union & m == 0
                union |= m
            assert union == t.full_mask()

    def test_recompose_reproduces(self):
        # blocks composed along the (transitive) condensation give T back
        rng = random.Random(29)
        for _ in range(30):
            t = random_tournament(rng, rng.randrange(1, 9))
            d = strong_decomposition(t)
            cond = gen_transitive(len(d.components))
            blocks = [induced(t, m) for m in d.components]
            rebuilt = compose(cond, blocks)
            # rebuilt vertex order follows component order; relabel back
            perm = [0] * t.n
            pos = 0
            for m in d.components:
                for v in vertices_of(m):
                    perm[pos] = v
                    pos += 1
            assert relabel(rebuilt, perm) == t

    def test_earlier_components_dominate(self):
        rng = random.Random(31)
        for _ in range(20):
            t = random_tournament(rng, rng.randrange(2, 9))
            d = strong_decomposition(t)
            for a in range(len(d.components)):
                for b in range(a + 1, len(d.components)):
                    for i in vertices_of(d.components[a]):
                        for j in vertices_of(d.components[b]):
                            assert t.has_arc(i, j)

    def test_matches_breadth_first_reference_on_every_subset(self):
        # the score cut against the two-closure reference that the
        # strong-subset oracle is checked by; each component must itself
        # be strong, so a decomposition that merges two adjacent
        # components fails here
        rng = random.Random(37)
        for n in range(1, 9):
            for _ in range(6):
                t = random_tournament(rng, n)
                for m in range(1, 1 << n):
                    sub = induced(t, m)
                    assert is_strong(sub) == _strong_within(t.out_rows, m)
                for comp in strong_decomposition(t).components:
                    assert _strong_within(t.out_rows, comp)


class TestCanonicalForm:
    def test_matches_bruteforce_small(self):
        rng = random.Random(7)
        for _ in range(80):
            n = rng.randrange(1, 8)
            t = random_tournament(rng, n)
            assert canonical_form(t) == canonical_form_bruteforce(t)

    def test_relabeling_invariant(self):
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randrange(2, 9)
            t = random_tournament(rng, n)
            key = canonical_form(t).key
            for _ in range(10):
                perm = list(range(n))
                rng.shuffle(perm)
                assert canonical_form(relabel(t, perm)).key == key

    def test_score_split_pairs_differ(self):
        # different score lists force different keys
        rng = random.Random(17)
        found = 0
        while found < 20:
            n = rng.randrange(3, 8)
            a, b = random_tournament(rng, n), random_tournament(rng, n)
            if sorted(a.out_rows[i].bit_count() for i in range(n)) == \
               sorted(b.out_rows[i].bit_count() for i in range(n)):
                continue
            assert canonical_form(a).key != canonical_form(b).key
            found += 1

    def test_order_cap(self):
        cap = "^canonicalization capped at order 16, got 17$"
        with pytest.raises(InvalidInput, match=cap):
            canonical_form(gen_random(17, 1))
        with pytest.raises(InvalidInput, match=cap):
            automorphism_count(gen_random(17, 1))

    def test_hex_and_rows_round_trip(self):
        t = gen_rlt(7)
        cf = canonical_form(t)
        assert validate(7, list(cf.rows())) is not None
        assert canonical_form(validate(7, list(cf.rows()))).key == cf.key
        assert int(cf.hex(), 16) == cf.key

    @pytest.mark.parametrize("n", range(1, 17))
    def test_rows_invert_the_identity_key(self, n):
        # the row-major key of t under the identity labeling decodes
        # back to t's rows, for seeded random t of every order to 16
        for seed in range(5):
            t = gen_random(n, seed)
            key = key_for_permutation(t, range(n))
            assert CanonicalForm(n, key).rows() == t.out_rows

    def test_keys_pinned_above_bruteforce_range(self):
        # sha256 of "n key |Aut|" lines, captured from the list-based
        # search that the bitmask search replaced; orders 8-16 lie beyond
        # the brute-force checks above
        ts = ([gen_random(n, seed) for n in range(8, 17) for seed in (1, 2)]
              + [gen_rlt(n) for n in range(9, 16, 2)]
              + [gen_transitive(n) for n in range(8, 17)]
              + [gen_qr(11), gen_named("delta_delta")])
        text = "".join(f"{t.n} {canonical_form(t).hex()} "
                       f"{automorphism_count(t)}\n" for t in ts)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "b33e7595ac5360f7b1fe58757edb59932646fddf7b663b96007bc08035334fd4")

    @given(st.integers(0, (1 << 10) - 1))
    @settings(max_examples=60, deadline=None)
    def test_code_canonical_matches_bruteforce(self, code: int):
        t = tournament_from_code(5, code)
        assert canonical_form(t) == canonical_form_bruteforce(t)


class TestSearchMemo:
    """_minimal_relabelings keeps its last search.  Every call must give
    what a search with an empty memo gives, whichever tournament the
    memo holds."""

    @pytest.mark.parametrize("n", [7, 11, 15])
    def test_alternating_and_equal_tournaments(self, n):
        t1, t2 = gen_rlt(n), gen_random(n, n)
        copy = Tournament(n, tuple(list(t1.out_rows)))
        twin = relabel(t1, [(2 * v + 1) % n for v in range(n)])
        assert copy == t1 and copy is not t1
        assert copy.out_rows is not t1.out_rows
        assert twin != t1

        def fresh(t):
            _minimal_relabelings.cache_clear()
            return canonical_form(t), automorphism_count(t)

        want = {t: fresh(t) for t in (t1, t2, twin)}
        assert want[t1] != want[t2]
        assert want[t1] == want[twin]
        for a, b in [(t1, t2), (t2, t1), (t1, copy), (copy, t1),
                     (twin, t1), (t2, twin)]:
            assert canonical_form(a) == want[a][0]
            assert automorphism_count(b) == want[b][1]
            assert automorphism_count(a) == want[a][1]
            assert canonical_form(b) == want[b][0]

    def test_equal_copy_reuses_the_search(self):
        t = gen_rlt(9)
        canonical_form(t)
        hits = _minimal_relabelings.cache_info().hits
        assert automorphism_count(
            Tournament(9, tuple(list(t.out_rows)))) == 9
        assert _minimal_relabelings.cache_info().hits == hits + 1


class TestIsomorphism:
    def test_self_iso(self):
        t = gen_random(7, 2)
        perm = [3, 0, 6, 1, 5, 2, 4]
        assert is_isomorphic(t, relabel(t, perm))

    def test_rlt5_self_converse(self):
        t = gen_rlt(5)
        assert is_isomorphic(t, converse(t))

    def test_distinct_orders(self):
        assert not is_isomorphic(gen_transitive(3), gen_transitive(4))

    def test_automorphism_counts(self):
        delta = validate(3, [0b010, 0b100, 0b001])
        assert automorphism_count(delta) == 3
        assert automorphism_count(gen_transitive(4)) == 1
        assert automorphism_count(gen_rlt(7)) == 7

    def test_orbit_stabilizer(self):
        # distinct labelings times |Aut| = n! for every small tournament
        rng = random.Random(41)
        for _ in range(10):
            n = rng.randrange(1, 7)
            t = random_tournament(rng, n)
            labelings = {relabel(t, list(p)).out_rows
                         for p in itertools.permutations(range(n))}
            assert len(labelings) * automorphism_count(t) == math.factorial(n)

    def test_automorphism_count_matches_bruteforce_order5(self):
        for code in range(1 << 10):
            t = tournament_from_code(5, code)
            assert automorphism_count(t) == automorphisms_bruteforce(t)

    @given(n=st.integers(6, 7), seed=st.integers(0, (1 << 30) - 1))
    @settings(max_examples=20, deadline=None)
    def test_automorphism_count_matches_bruteforce(self, n, seed):
        t = gen_random(n, seed)
        assert automorphism_count(t) == automorphisms_bruteforce(t)

    @pytest.mark.parametrize("t,aut", [(gen_qr(7), 21), (gen_rlt(7), 7)],
                             ids=["qr7", "rlt7"])
    def test_automorphism_count_vertex_transitive(self, t, aut):
        assert automorphism_count(t) == automorphisms_bruteforce(t) == aut

    def test_automorphism_count_is_odd(self, corpus9):
        # a tournament has no automorphism of order 2, so |Aut| is odd
        for _, rep in corpus9.classes:
            assert automorphism_count(rep) % 2 == 1
