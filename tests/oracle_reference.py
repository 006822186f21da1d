"""Reference routes for the array kernels of tourney: for the
brute-force oracles of tourney.counting, a depth-first walk over simple
paths and plain loops over itertools.combinations, one Python statement
per bit; for the class engine's bucket invariant
(enumeration._c3_profiles), the c3 profile of one tournament from its
bitmask rows; for the extremal sweep's vertex table
(extremal._vertex_table), one old vertex's share of s5 by a walk over
its neighbours; for the sweep's out-set terms (extremal._cut_forms), the
cut form of one matrix and one out-set by a double loop; for the
labeled sweep (extremal._labeled_batches), which grows the labelings
whose last four labels hold one of the four order-4 reps and in which
vertex 0 beats vertex 1, and scores them with weight 48, 16, 16 or 48,
every labeled tournament with weight 1, each decoded from its
upper-triangle edge code by a loop over the code's pairs, and the
older rule by the orbits of the triangle on the last three labels,
which grows the labelings in which vertex 0 beats the triangle's
middle label with weight 12 or 4; for the join's cross
matrices (enumeration._cross_matrices), a recursion that copies the
column sums at every choice and checks each one against the rows left;
for core.validate's column check, a loop over every pair i < j; for
canonical_form, the minimum over all n! relabelings; subtournament
copies by canonical key; and for the doubly regular family of
tourney.classify, the common out-neighbours of every arc by a pair loop
and the rotationally-local classes on an induced copy of each out-set.
They are slow and obviously correct, so the tests hold the library's
array kernels equal to them."""

from __future__ import annotations

from itertools import combinations, permutations
from math import comb
from typing import Iterable, Iterator, Sequence

from tourney import (CanonicalForm, Tournament, canonical_form, induced,
                     is_locally_regular, is_regular)
from tourney.core import _check_order
from tourney.counting import _c3_within, _check_oracle_order
from tourney.errors import ArcError, InvalidInput


def tournament_from_code(n: int, code: int) -> Tournament:
    """Labeled tournament of an upper-triangle edge code: bit k of the
    code orients the k-th pair i < j in lexicographic order, 1 meaning
    i -> j.  Row i's bits above i are the next n-1-i bits of the code,
    and each j > i left out of them beats i, so bit i of row j is set."""
    rows = [0] * n
    shift = 0
    for i in range(n):
        full = (1 << (n - 1 - i)) - 1
        upper = (code >> shift) & full
        rows[i] |= upper << (i + 1)
        beaten_by = full ^ upper
        while beaten_by:
            low = beaten_by & -beaten_by
            rows[i + low.bit_length()] |= 1 << i
            beaten_by ^= low
        shift += n - 1 - i
    return Tournament(n, tuple(rows))


def validate_by_pairs(n: int, rows: Sequence[int]) -> Tournament:
    """Reference for core.validate: the same row checks, then every pair
    i < j in row-major order, one bit of each row at a time."""
    _check_order(n)
    if len(rows) != n:
        raise InvalidInput(f"expected {n} rows, got {len(rows)}")
    full = (1 << n) - 1
    for i, row in enumerate(rows):
        if row < 0 or row & ~full:
            raise InvalidInput(f"row {i} has bits outside vertices 0..{n - 1}")
        if (row >> i) & 1:
            raise ArcError(f"vertex {i} has an arc to itself", (i, i))
    for i in range(n):
        for j in range(i + 1, n):
            forward = (rows[i] >> j) & 1
            backward = (rows[j] >> i) & 1
            if forward == backward:
                kind = "no arc" if forward == 0 else "both arcs"
                raise ArcError(f"pair ({i}, {j}) has {kind}", (i, j))
    return Tournament(n, tuple(rows))


def key_for_permutation(t: Tournament, perm: Sequence[int]) -> int:
    """Row-major adjacency key after relabeling: position a of perm names
    the original vertex placed at new index a."""
    n = t.n
    key = 0
    for a in range(n):
        row_old = t.out_rows[perm[a]]
        r = 0
        for b in range(n):
            r = (r << 1) | ((row_old >> perm[b]) & 1 if a != b else 0)
        key = (key << n) | r
    return key


def canonical_form_bruteforce(t: Tournament) -> CanonicalForm:
    """Reference canonicalization: minimum over all n! relabelings."""
    best = min(key_for_permutation(t, p)
               for p in permutations(range(t.n)))
    return CanonicalForm(t.n, best)


def count_copies(t: Tournament, pattern: Tournament) -> int:
    """Subtournaments isomorphic to a pattern, by canonical-key comparison
    of every induced subset of the pattern's order."""
    _check_oracle_order(t)
    m = pattern.n
    if m > t.n:
        return 0
    target = canonical_form(pattern).key
    return sum(canonical_form(induced(t, combo)).key == target
               for combo in combinations(range(t.n), m))


def cycles_by_dfs(t: Tournament, m: int) -> int:
    """Directed m-cycles by DFS.  Each cycle is counted exactly once: the
    walk starts at the cycle's smallest vertex and only visits larger
    ones, and a directed cycle has a single traversal direction."""
    if m < 3:
        raise InvalidInput(f"cycles need m >= 3, got {m}")
    n = t.n
    if m > n:
        return 0
    rows = t.out_rows
    count = 0
    for s in range(n):
        allowed = ((1 << n) - 1) & ~((1 << (s + 1)) - 1)
        start_bit = 1 << s

        def walk(v: int, visited: int, depth: int) -> None:
            nonlocal count
            if depth == m - 1:
                if rows[v] & start_bit:
                    count += 1
                return
            opts = rows[v] & allowed & ~visited
            while opts:
                low = opts & -opts
                opts ^= low
                w = low.bit_length() - 1
                walk(w, visited | low, depth + 1)

        walk(s, 0, 0)
    return count


def _strong_within(rows: Sequence[int], mask: int) -> bool:
    """Whether the subtournament on a vertex mask is strong: breadth-first
    forward and backward closures of its lowest vertex inside the mask."""
    low = mask & -mask
    v0 = low.bit_length() - 1
    # forward closure from v0 inside mask
    reach = low
    frontier = rows[v0] & mask
    while frontier:
        reach |= frontier
        nxt = 0
        f = frontier
        while f:
            b = f & -f
            nxt |= rows[b.bit_length() - 1]
            f ^= b
        frontier = nxt & mask & ~reach
    if reach != mask:
        return False
    # backward closure from v0 inside mask
    reach = low
    frontier = 0
    m = mask ^ low
    while m:
        b = m & -m
        if rows[b.bit_length() - 1] & low:
            frontier |= b
        m ^= b
    while frontier:
        reach |= frontier
        nxt = 0
        m = mask & ~reach
        while m:
            b = m & -m
            if rows[b.bit_length() - 1] & frontier:
                nxt |= b
            m ^= b
        frontier = nxt
    return reach == mask


def _masks(n: int, m: int):
    for combo in combinations(range(n), m):
        yield combo, sum(1 << v for v in combo)


def strong_subs_by_combinations(t: Tournament, m: int) -> int:
    """Strong m-subsets by exhausting subsets (m = 1 counts vertices)."""
    if m < 1:
        raise InvalidInput(f"subset order must be >= 1, got {m}")
    return sum(_strong_within(t.out_rows, mask) for _, mask in _masks(t.n, m))


def w_by_combinations(t: Tournament, m: int) -> int:
    """Sink-free source-free m-subsets by exhausting subsets."""
    if m < 3:
        raise InvalidInput(f"w oracle needs m >= 3, got {m}")
    return sum(all(0 < (t.out_rows[v] & mask).bit_count() < m - 1
                   for v in combo)
               for combo, mask in _masks(t.n, m))


def c3_profile(t: Tournament) -> tuple[tuple[int, int], ...]:
    """Isomorphism invariant: the sorted pairs, over the vertices v, of
    (3-cycles inside v's out-set, 3-cycles inside v's in-set)."""
    full = t.full_mask()
    return tuple(sorted(
        (_c3_within(t, row), _c3_within(t, full ^ row ^ (1 << v)))
        for v, row in enumerate(t.out_rows)))


def vertex_share(n: int, i: int, in_i: int, s: int) -> int:
    """Old vertex i's part of s5 in an order-n one-vertex extension,
    besides the arcs among old vertices 0..n-2: C(p, 3) - C(o, 4) -
    C(n - 1 - o, 4), where k -> i for each bit k of in_i, vertex 0 beats
    the old vertices in s, o is i's out-degree and p counts the 2-paths
    0 -> k -> i when 0 -> i, or i -> k -> 0 when i -> 0."""
    m = n - 1
    beats_i = [k for k in range(m) if (in_i >> k) & 1]
    beaten = [k for k in range(m) if k != i and k not in beats_i]
    if (s >> i) & 1:
        out = len(beaten)
        paths = sum(1 for k in beats_i if (s >> k) & 1)
    else:
        out = len(beaten) + 1
        paths = sum(1 for k in beaten if not (s >> k) & 1)
    return comb(paths, 3) - comb(out, 4) - comb(n - 1 - out, 4)


def cut_form(x: Sequence[Sequence[int]], s: Sequence[int]) -> int:
    """sum over i != j of x_ij s_i (1 - s_j) for a square matrix x and
    a 0/1 vector s: the weight of the entries from s to its complement."""
    m = len(s)
    return sum(x[i][j] * s[i] * (1 - s[j])
               for i in range(m) for j in range(m) if i != j)


def code_rows(n: int, codes: Iterable[int]):
    """The int64 out-rows, shape (len(codes), n), of the labeled
    tournaments of order n that the edge codes name, one
    tournament_from_code each."""
    import numpy as np

    return np.array([tournament_from_code(n, int(code)).out_rows
                     for code in codes], dtype=np.int64).reshape(-1, n)


def every_code_block(n: int) -> tuple:
    """The labeled sweep without its orbit and converse rules: every
    labeled base of order n - 1, decoded by code_rows from all
    2^C(n-1,2) edge codes in ascending order, as one block (int64
    out-rows, weight 1)."""
    return code_rows(n - 1, range(1 << comb(n - 1, 2))), 1


def triangle_rule_blocks(n: int) -> Iterator[tuple]:
    """The labeled sweep by the orbits of three labels instead of four:
    every labeled tournament of order n - 1 whose triangle on its last
    three labels is the transitive [0b110, 0b100, 0] or the 3-cycle
    [0b010, 0b100, 0b001], and in which vertex 0 beats the triangle's
    middle label n - 3, as blocks (int64 out-rows, int64 weights 12 or
    4) of at most _SWEEP_BATCH bases.  They grow from the two triangles
    by _extend, one new vertex 0 at a time with every out-set, which
    shifts the old labels up and keeps the triangle on the last three;
    the last step keeps only the out-sets holding the middle label, bit
    n - 4.

    An extension keeps its base's triangle on its own last three labels.
    Permuting those three labels maps the labeled tournaments of order n
    one to one and keeps c5, s5 and regularity.  Each of the 8 labeled
    triangles goes to its class's rep by some permutation, which carries
    the tournaments with that triangle onto those with the rep; the
    transitive class has 6 labelings and the 3-cycle 2.  Then let psi
    reverse every arc and swap the triangle's two end labels.  It keeps
    c5, s5 and regularity, maps each rep triangle onto itself, and
    reverses the arc between any two labels it fixes, among them vertex
    0 and the middle label.  So psi is an involution without a fixed
    point that pairs the bases in which vertex 0 beats the middle label
    one to one with those in which it does not, and maps the extensions
    of a base onto those of its image.  The rep's extensions where
    vertex 0 beats the middle label, with weight 12 or 4, stand for all
    2^C(n,2)."""
    import numpy as np

    from tourney.enumeration import _extend
    from tourney.extremal import _SWEEP_BATCH

    rows = np.array([[0b110, 0b100, 0], [0b010, 0b100, 0b001]],
                    dtype=np.int64)
    weight = np.array([12, 4], dtype=np.int64)
    for k in range(3, n - 2):
        rows = _extend(rows[:, None, :], np.arange(1 << k)).reshape(-1, k + 1)
        weight = np.repeat(weight, 1 << k)
    s = np.arange(1 << (n - 2))
    s = s[(s >> (n - 4) & 1).astype(bool)]
    step = _SWEEP_BATCH // len(s)
    for lo in range(0, len(rows), step):
        yield (_extend(rows[lo:lo + step, None, :], s).reshape(-1, n - 1),
               np.repeat(weight[lo:lo + step], len(s)))


def cross_matrices_by_recursion(row_sums: Sequence[int],
                                col_sums: Sequence[int]
                                ) -> Iterator[tuple[int, ...]]:
    """Every 0/1 matrix with the given margins, as row masks, row by row:
    each row tries every column set of its weight in combinations order
    and keeps it when every column sum left lies between 0 and the
    number of rows after it."""
    h = len(col_sums)

    def fill(a: int, cols: list[int]) -> Iterator[tuple[int, ...]]:
        if a == len(row_sums):
            yield ()
            return
        rows_after = len(row_sums) - a - 1
        for chosen in combinations(range(h), row_sums[a]):
            left = list(cols)
            for b in chosen:
                left[b] -= 1
            if all(0 <= c <= rows_after for c in left):
                mask = sum(1 << b for b in chosen)
                for rest in fill(a + 1, left):
                    yield (mask, *rest)

    yield from fill(0, list(col_sums))


def doubly_regular_by_pairs(t: Tournament) -> bool:
    """Regular with every arc's common-out-neighbour count (n-3)/4, by a
    loop over the arcs (forcing n = 3 mod 4).  Orders 0 and 1 count
    vacuously."""
    n = t.n
    if n <= 1:
        return True
    if n % 4 != 3 or not is_regular(t):
        return False
    want = (n - 3) // 4
    rows = t.out_rows
    for i in range(n):
        oi = rows[i]
        row = oi
        while row:
            low = row & -row
            row ^= low
            if (oi & rows[low.bit_length() - 1]).bit_count() != want:
                return False
    return True


def nearly_doubly_regular_by_out_sets(t: Tournament) -> bool:
    """Regular with n = 1 (mod 4) and every out-set near regular."""
    return t.n % 4 == 1 and is_regular(t) and is_locally_regular(t, "plus")


def rldr_by_induced(t: Tournament) -> bool:
    """Regular and every out-set, copied out by induced, doubly regular
    by the pair loop."""
    return is_regular(t) and all(
        doubly_regular_by_pairs(induced(t, t.out_mask(i)))
        for i in range(t.n))


def rlndr_by_induced(t: Tournament) -> bool:
    """Regular and every out-set, copied out by induced, nearly doubly
    regular."""
    return is_regular(t) and all(
        nearly_doubly_regular_by_out_sets(induced(t, t.out_mask(i)))
        for i in range(t.n))
