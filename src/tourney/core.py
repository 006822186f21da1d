"""Bitmask tournament core.

A tournament on n vertices is an orientation of the complete graph K_n:
exactly one arc between every pair of distinct vertices.  It is stored as n
out-neighbourhood bitmasks, one machine word per vertex: bit j of row i is
set iff the arc i -> j is present.  All operations treat Tournament as
immutable; anything that "changes" a tournament returns a new one.

Caps: order <= 64 (one word per row), canonicalization order <= 16.

The canonical form is the lexicographically minimal row-major adjacency
bit-string over all relabelings, computed by an ordered-partition search
that is exact (the pruning never discards a permutation that could still
attain the minimum).  Its cells are vertex masks like every other vertex
set here, each carrying the row bits its members share over the placed
positions, and the rows it has written so far are a prefix of the key,
held as one int.  A node finds its minimal next row once and cuts all
its children together: they share that row, so a leaf under one of
them never makes a sibling's prefix exceed the best key.  Once every
cell is a singleton the remaining rows are forced and are written and
compared as one leaf.  Two tournaments are isomorphic iff their
canonical keys are equal.

The same search gives |Aut|.  Every relabeling that attains the minimal
key is a leaf of it, so the leaves tied with the final minimum are
exactly the relabelings that give the canonical key.  Those form one
coset of the automorphism group, so their number is |Aut|.  The last
search is kept, so canonical_form followed by automorphism_count on one
tournament searches once.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache

from .errors import ArcError, InvalidInput

MAX_ORDER = 64
MAX_CANONICAL_ORDER = 16

VertexSet = int  # subset of vertices as a bitmask


def mask_of(vertices: Iterable[int]) -> VertexSet:
    """Bitmask of an iterable of vertex indices, each >= 0."""
    m = 0
    for v in vertices:
        if v < 0:
            raise InvalidInput("vertex indices must be >= 0")
        m |= 1 << v
    return m


def vertices_of(mask: VertexSet) -> list[int]:
    """Sorted vertex indices of a bitmask >= 0."""
    if mask < 0:
        raise InvalidInput("a vertex mask must be >= 0")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class Tournament:
    """Immutable tournament: order n plus one out-row bitmask per vertex."""

    n: int
    out_rows: tuple[int, ...]

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_arc(self, i: int, j: int) -> bool:
        return (self.out_rows[i] >> j) & 1 == 1

    def out_mask(self, i: int) -> VertexSet:
        return self.out_rows[i]

    def in_mask(self, i: int) -> VertexSet:
        return self.full_mask() & ~self.out_rows[i] & ~(1 << i)

    def out_degree(self, i: int) -> int:
        return self.out_rows[i].bit_count()

    def in_degree(self, i: int) -> int:
        return self.n - 1 - self.out_rows[i].bit_count()

    def vertices(self) -> range:
        return range(self.n)

    def arcs(self) -> Iterable[tuple[int, int]]:
        """All arcs (i, j) in row-major order."""
        for i in range(self.n):
            row = self.out_rows[i]
            while row:
                low = row & -row
                yield i, low.bit_length() - 1
                row ^= low


def _check_order(n: int) -> None:
    """Raise InvalidInput for n < 1 and for n > MAX_ORDER."""
    if n < 1:
        raise InvalidInput(f"order must be >= 1, got {n}")
    if n > MAX_ORDER:
        raise InvalidInput(f"order {n} exceeds the cap of {MAX_ORDER}")


def validate(n: int, rows: Sequence[int]) -> Tournament:
    """Check the tournament axioms and build a Tournament.

    Raises InvalidInput for an order outside 1..64, a wrong row count
    or stray bits outside the vertex range, and ArcError, with its cell,
    for a diagonal bit or a pair without exactly one arc.
    """
    _check_order(n)
    if len(rows) != n:
        raise InvalidInput(f"expected {n} rows, got {len(rows)}")
    full = (1 << n) - 1
    for i, row in enumerate(rows):
        if row < 0 or row & ~full:
            raise InvalidInput(f"row {i} has bits outside vertices 0..{n - 1}")
        if (row >> i) & 1:
            raise ArcError(f"vertex {i} has an arc to itself", (i, i))
    # bit j of row i sits at flat[i * n + j], so column i, the in-arcs
    # of vertex i, is flat[i::n]; pair (i, j) has exactly one arc when
    # bit j of row i and of column i differ.  The mismatches are
    # symmetric in i and j, so the lowest one in the first row that has
    # any lies above the diagonal: the first bad pair in row-major order.
    flat = "".join([format(row, f"0{n}b")[::-1] for row in rows])
    for i, row in enumerate(rows):
        bad = row ^ int(flat[i::n][::-1], 2) ^ full ^ (1 << i)
        if bad:
            j = (bad & -bad).bit_length() - 1
            kind = "no arc" if (row >> j) & 1 == 0 else "both arcs"
            raise ArcError(f"pair ({i}, {j}) has {kind}", (i, j))
    return Tournament(n, tuple(rows))


def _as_subset_mask(t: Tournament, subset: VertexSet | Iterable[int]) -> int:
    mask = subset if isinstance(subset, int) else mask_of(subset)
    if mask < 0 or mask & ~t.full_mask():
        raise InvalidInput("vertex set is not a subset of the host tournament")
    return mask


def induced(t: Tournament, subset: VertexSet | Iterable[int]) -> Tournament:
    """Subtournament induced on a vertex set, renumbered in increasing
    order of the original indices."""
    mask = _as_subset_mask(t, subset)
    verts = vertices_of(mask)
    index = {v: a for a, v in enumerate(verts)}
    rows = []
    for v in verts:
        row = t.out_rows[v] & mask
        r = 0
        while row:
            low = row & -row
            r |= 1 << index[low.bit_length() - 1]
            row ^= low
        rows.append(r)
    return Tournament(len(verts), tuple(rows))


def converse(t: Tournament) -> Tournament:
    """Reverse every arc."""
    return Tournament(t.n, tuple(t.in_mask(i) for i in range(t.n)))


def compose(t: Tournament, replacements: Sequence[Tournament]) -> Tournament:
    """Blow up each vertex of t into a tournament.

    Vertex i of the host becomes a block carrying replacements[i]; arcs
    inside a block come from the replacement, arcs between blocks all
    follow the host arc.  Blocks are laid out in host-vertex order.
    """
    if len(replacements) != t.n:
        raise InvalidInput(
            f"need {t.n} replacement tournaments, got {len(replacements)}")
    orders = [r.n for r in replacements]
    total = sum(orders)
    if total > MAX_ORDER:
        raise InvalidInput(f"composed order {total} exceeds {MAX_ORDER}")
    offsets = [0] * t.n
    for i in range(1, t.n):
        offsets[i] = offsets[i - 1] + orders[i - 1]
    block_mask = [((1 << orders[i]) - 1) << offsets[i] for i in range(t.n)]
    rows = []
    for i in range(t.n):
        rep = replacements[i]
        outside = 0
        host_row = t.out_rows[i]
        while host_row:
            low = host_row & -host_row
            outside |= block_mask[low.bit_length() - 1]
            host_row ^= low
        for v in range(rep.n):
            rows.append((rep.out_rows[v] << offsets[i]) | outside)
    return Tournament(total, tuple(rows))


# -- strong components -------------------------------------------------------

@dataclass(frozen=True)
class StrongDecomposition:
    """Strong components as vertex masks, earlier components dominating
    later ones (the condensation of a tournament is transitive)."""

    components: tuple[VertexSet, ...]


def strong_decomposition(t: Tournament) -> StrongDecomposition:
    """Partition into strong components in domination order, by Landau's
    score cut.  With the vertices sorted by score, highest first, the top
    k beat every other vertex exactly when their scores sum to
    C(k, 2) + k (n - k).  The components are the blocks between
    consecutive such k.  A vertex of an earlier component outscores every
    vertex of a later one, so equal scores never straddle a cut."""
    n = t.n
    comps: list[int] = []
    block = 0
    total = 0
    order = sorted(t.vertices(), key=t.out_degree, reverse=True)
    for k, v in enumerate(order, 1):
        block |= 1 << v
        total += t.out_degree(v)
        if total == k * (k - 1) // 2 + k * (n - k):
            comps.append(block)
            block = 0
    return StrongDecomposition(tuple(comps))


def is_strong(t: Tournament) -> bool:
    return len(strong_decomposition(t).components) == 1


# -- canonical form ----------------------------------------------------------

@dataclass(frozen=True)
class CanonicalForm:
    """Lexicographically minimal row-major adjacency bit-string, packed as
    an n*n-bit integer (bit (i, j) sits at weight 2**(n*n - 1 - (i*n + j)))."""

    n: int
    key: int

    def hex(self) -> str:
        width = (self.n * self.n + 3) // 4
        return format(self.key, f"0{width}x")

    def rows(self) -> tuple[int, ...]:
        """Decode the key back into out-row bitmasks (the canonical
        representative's adjacency).  Reversing the n*n-bit string puts
        entry (i, j) at bit i*n + j, so row i is the i-th n-bit chunk."""
        n = self.n
        rev = int(format(self.key, f"0{n * n}b")[::-1], 2)
        full = (1 << n) - 1
        return tuple(rev >> i * n & full for i in range(n))


@lru_cache(maxsize=1)
def _minimal_relabelings(t: Tournament) -> tuple[CanonicalForm, int]:
    """The canonical form of t and the number of relabelings that attain
    it, by one ordered-partition search.  The last result is kept, keyed
    by (n, out_rows), so automorphism_count right after canonical_form
    on an equal tournament reuses the search.

    Positions of the new labeling are filled left to right.  The unplaced
    vertices form an ordered list of cells, each a vertex mask; the vertex
    for the next position must come from the first cell.  For a candidate
    w the row it would write is forced except for the order inside later
    cells, where non-out-neighbours (0 bits) must precede out-neighbours
    (1 bits) in any minimal completion; that split refines the cells for
    the recursion.  Only candidates attaining the minimal row at their
    level can lead to the global minimum; one pass over the first cell
    finds that row and its candidates, in increasing vertex order.

    Carried heads.  Every placed vertex has split every cell, so the
    members of a cell agree on every column already placed.  Each cell
    carries those bits, its head: when w is placed, the members of a
    cell that beat w gain a 1 bit and the others a 0 bit.  A candidate's
    row is its cell's head, its own 0 on the diagonal, then its 1 bits
    packed at the end of each later cell.

    The rows written at the first a positions are the partial key, an
    int of a * n bits.  Before the first leaf best is 1 << n * n, whose
    leading rows exceed every partial key.

    One cut per node.  Every child of a node writes the minimal row
    next, so all children share the prefix key << n | rmin.  The node
    returns before building any child's cells when that prefix exceeds
    the leading a + 1 rows of the best key.  This cuts exactly the
    children that a check on entering each child would cut: a leaf found
    under one child carries the shared prefix, so if it becomes the new
    best, the next sibling's prefix equals best's and is not cut.

    Forced tail.  Once every cell is a singleton the rest of the
    labeling is the cell order, so the remaining rows are written
    directly and the whole key is compared as a leaf: equal to best is
    one more tie, smaller becomes the new best with one tie, larger is
    dropped.  No leaf is found in between, so a level-by-level descent
    would cut at the first larger row and reach the same leaf otherwise.

    Every relabeling that attains the minimal key survives the pruning:
    the search cuts only prefixes strictly larger than the best so far
    and rows above their level's minimum, and the vertices of one cell
    are interchangeable for every row already written.  So the leaves
    equal to the final minimum are exactly the relabelings that give the
    canonical key, and their count restarts at 1 whenever a strictly
    smaller leaf appears.  For the same reason the order in which the
    candidates are tried changes neither the key nor the count, only how
    early the pruning bites.
    """
    n = t.n
    if n > MAX_CANONICAL_ORDER:
        raise InvalidInput(
            f"canonicalization capped at order {MAX_CANONICAL_ORDER}, got {n}")
    rows = t.out_rows
    best = 1 << n * n
    ties = 0

    def dfs(cells: list[VertexSet], heads: list[int], key: int,
            a: int) -> None:
        nonlocal best, ties
        if len(cells) == n - a:
            for cell, head in zip(cells, heads):
                rw = rows[cell.bit_length() - 1]
                for other in cells:
                    head = head << 1 | (rw & other != 0)
                key = key << n | head
            if key < best:
                best = key
                ties = 1
            elif key == best:
                ties += 1
            return
        first, rest = cells[0], cells[1:]
        rmin = 0
        cands = []
        m = first
        while m:
            low = m & -m
            m ^= low
            rw = rows[low.bit_length() - 1]
            # w has no loop, so its 1 bits in first ^ low are rw & first
            r = (1 << (rw & first).bit_count()) - 1
            for cell in rest:
                r = r << cell.bit_count() | (1 << (rw & cell).bit_count()) - 1
            if not cands or r < rmin:
                rmin = r
                cands = [low]
            elif r == rmin:
                cands.append(low)
        key = key << n | heads[0] << n - a | rmin
        if key > best >> (n - a - 1) * n:
            return
        for low in cands:
            rw = rows[low.bit_length() - 1]
            sub_cells = []
            sub_heads = []
            for cell, head in zip([first ^ low] + rest, heads):
                head <<= 1
                if cell & ~rw:
                    sub_cells.append(cell & ~rw)
                    sub_heads.append(head | 1)
                if cell & rw:
                    sub_cells.append(cell & rw)
                    sub_heads.append(head)
            dfs(sub_cells, sub_heads, key, a + 1)

    dfs([(1 << n) - 1] if n else [], [0], 0, 0)
    return CanonicalForm(n, best), ties


def canonical_form(t: Tournament) -> CanonicalForm:
    """Exact canonical key: the lexicographically minimal row-major
    adjacency over all relabelings, by the ordered-partition search of
    _minimal_relabelings."""
    return _minimal_relabelings(t)[0]


def is_isomorphic(a: Tournament, b: Tournament) -> bool:
    """Exact isomorphism via canonical keys."""
    if a.n != b.n:
        return False
    return canonical_form(a).key == canonical_form(b).key


def automorphism_count(t: Tournament) -> int:
    """Order of the automorphism group: the number of relabelings that
    attain the canonical key.  Two relabelings give the same key iff they
    differ by an automorphism, so those relabelings form one coset of
    Aut(t), and the canonicalization search counts them as its leaves
    tied with the final minimum."""
    return _minimal_relabelings(t)[1]
