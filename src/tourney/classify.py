"""Structural classification predicates.

Degree-based classes:

  regular                n odd, every out-degree (n-1)/2
  near regular           n even, in-degree multiset {n/2 x n/2, (n/2-1) x n/2}
  doubly regular         regular, n = 3 (mod 4), and every arc (i, j) has
                         |N+(i) & N+(j)| = (n-3)/4
  nearly doubly regular  regular, n = 1 (mod 4), every out-set near regular

The last two are one rule on a vertex mask (_doubly_balanced): the
subtournament and every member's out-set inside it are balanced, that
is regular or near regular by parity, at order 3 or 1 (mod 4).  For an
arc i -> j the common-out-neighbour count is the score of j inside
N+(i), so the arc condition says that every out-set is regular.

Local classes look one level down: locally transitive means every out-set
(plus side), in-set (minus side), or both induce a 3-cycle-free
subtournament; locally regular asks the induced subtournament to be
regular or near regular according to its parity.  The rotationally-local
classes recurse exactly one level: rldr / rlndr ask every out-set to
induce a doubly regular / nearly doubly regular tournament, and apply
that same rule to each out-set's mask.

aat_positive asks every vertex pair for a common out-neighbour (all
off-diagonal entries of A A^T positive), and landau_feasible checks the
classic prefix-sum criterion for a non-decreasing score sequence.
tournaments_with_scores counts the labeled tournaments with a given
score vector; it is positive exactly when Landau's criterion holds, and
it gives the labeled regular totals without the enumeration's join.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from math import comb
from typing import Iterator, Sequence

from .core import Tournament, is_strong, vertices_of
from .counting import _c3_within
from .errors import InvalidInput

_SIDES = ("plus", "minus", "both")


def is_transitive(t: Tournament) -> bool:
    """No 3-cycles at all."""
    return _c3_within(t, t.full_mask()) == 0


def _balanced(t: Tournament, mask: int) -> bool:
    """The subtournament on a vertex mask is regular if its size k is
    odd, near regular if even: its sorted scores equal the balanced
    sequence, all (k-1)/2 for odd k, half k/2-1 and half k/2 for even k.
    The scores sum to C(k, 2), so that holds exactly when every score
    lies in [(k-1)//2, k//2]."""
    k = mask.bit_count()
    lo, hi = (k - 1) // 2, k // 2
    m = mask
    # inline, not vertices_of: a whole list would void the early return
    while m:
        low = m & -m
        m ^= low
        score = (t.out_rows[low.bit_length() - 1] & mask).bit_count()
        if not lo <= score <= hi:
            return False
    return True


def is_regular(t: Tournament) -> bool:
    return t.n % 2 == 1 and _balanced(t, t.full_mask())


def is_near_regular(t: Tournament) -> bool:
    return t.n % 2 == 0 and _balanced(t, t.full_mask())


def semi_degree(t: Tournament) -> int:
    """(n-1)/2 for a regular tournament."""
    if not is_regular(t):
        raise InvalidInput("semi-degree is defined for regular tournaments")
    return (t.n - 1) // 2


def _side_masks(t: Tournament, side: str) -> Iterator[int]:
    """The out-sets (plus), in-sets (minus), or both, of every vertex,
    made one at a time so that a caller's first failure stops the rest."""
    if side not in _SIDES:
        raise InvalidInput(f"side must be one of {_SIDES}, got {side!r}")
    if side != "minus":
        yield from t.out_rows
    if side != "plus":
        yield from (t.in_mask(i) for i in range(t.n))


def is_locally_transitive(t: Tournament, side: str = "both") -> bool:
    """Every out-set (plus), in-set (minus), or both induce 3-cycle-free
    subtournaments."""
    return all(_c3_within(t, mask) == 0 for mask in _side_masks(t, side))


def is_locally_regular(t: Tournament, side: str = "both") -> bool:
    """Every out-set (plus), in-set (minus), or both induce a regular or
    near-regular subtournament per the subset's parity."""
    return all(_balanced(t, mask) for mask in _side_masks(t, side))


def _doubly_balanced(t: Tournament, mask: int, residue: int) -> bool:
    """The rule behind the doubly regular family: the subtournament on a
    vertex mask has order k = residue (mod 4), is balanced, and every
    member's out-set inside it is balanced too.

    For an arc i -> j, |N+(i) & N+(j)| is the score of j inside N+(i).
    So in a regular tournament of order k = 3 (mod 4), "every arc has
    (k-3)/4 common out-neighbours" says that every out-set, of odd size
    (k-1)/2, induces a regular tournament: doubly regular is this rule
    with residue 3.  For k = 1 (mod 4) the out-sets have even size and
    balanced means near regular: nearly doubly regular is residue 1."""
    rows = t.out_rows
    return (mask.bit_count() % 4 == residue and _balanced(t, mask)
            and all(_balanced(t, rows[v] & mask) for v in vertices_of(mask)))


def is_doubly_regular(t: Tournament) -> bool:
    """Regular with every arc's common-out-neighbour count (n-3)/4
    (forcing n = 3 mod 4).  Orders 0 and 1 count vacuously."""
    return t.n <= 1 or _doubly_balanced(t, t.full_mask(), 3)


def is_nearly_doubly_regular(t: Tournament) -> bool:
    """Regular with n = 1 (mod 4) and every out-set, of even size
    (n-1)/2, inducing a near-regular subtournament.  Order 1 counts: its
    one out-set is empty."""
    return _doubly_balanced(t, t.full_mask(), 1)


def is_rldr(t: Tournament) -> bool:
    """Regular and every out-set induces a doubly regular tournament,
    tested on the out-set's mask; out-sets of order 0 and 1 count."""
    return is_regular(t) and all(
        r.bit_count() <= 1 or _doubly_balanced(t, r, 3) for r in t.out_rows)


def is_rlndr(t: Tournament) -> bool:
    """Regular and every out-set induces a nearly doubly regular
    tournament, tested on the out-set's mask."""
    return is_regular(t) and all(_doubly_balanced(t, r, 1)
                                 for r in t.out_rows)


def aat_positive(t: Tournament) -> bool:
    """Every pair of distinct vertices has a common out-neighbour."""
    rows = t.out_rows
    for i in range(t.n):
        for j in range(i + 1, t.n):
            if not rows[i] & rows[j]:
                return False
    return True


def landau_feasible(seq: Sequence[int]) -> bool:
    """Is a non-decreasing sequence the score list of some tournament?
    Prefix sums at least C(k, 2), total exactly C(n, 2)."""
    n = len(seq)
    prev = 0
    for v in seq:
        if v < prev or v < 0:
            raise InvalidInput(
                "scores must be non-negative and non-decreasing")
        prev = v
    total = 0
    for k, v in enumerate(seq, start=1):
        total += v
        if total < comb(k, 2):
            return False
    return total == comb(n, 2)


def tournaments_with_scores(scores: Sequence[int]) -> int:
    """Number of labeled tournaments on vertices 0..n-1 in which vertex i
    has out-degree scores[i]; 0 when no tournament has these scores.

    A memoized DP over the sorted remaining out-degrees, as the count
    does not depend on the order of the entries.  A vertex v of the
    smallest score d beats exactly d of the others.  Of the c others
    that still need x out-arcs, v beats some k, in C(c, k) ways; those
    still need x, and the c - k that beat v need x - 1 more among the
    rest.  Summing over the choices of k with total d, each choice
    leaves a tournament on the others with the reduced scores, counted
    by the same DP.  Every tournament of order m has C(m, 2) arcs, so a
    vector with another total counts 0 at once."""

    @cache
    def count(left: tuple[int, ...]) -> int:
        if sum(left) != comb(len(left), 2):
            return 0
        if not left:
            return 1
        owed, *rest = left
        # (scores the others still need, out-arcs v still owes, ways)
        states = [((), owed, 1)]
        for x, c in sorted(Counter(rest).items()):
            states = [(kept + (x,) * k + (x - 1,) * (c - k), due - k,
                       ways * comb(c, k))
                      for kept, due, ways in states
                      for k in range(min(c, due) + 1) if x or k == c]
        return sum(ways * count(tuple(sorted(kept)))
                   for kept, due, ways in states if not due)

    return count(tuple(sorted(scores)))


@dataclass(frozen=True)
class ClassificationReport:
    """All flags computed eagerly, in a fixed key order, plus the
    semi-degree when the tournament is regular."""

    n: int
    flags: dict[str, bool]
    semi_degree: int | None


def classification_report(t: Tournament) -> ClassificationReport:
    regular = is_regular(t)
    ltp = is_locally_transitive(t, "plus")
    ltm = is_locally_transitive(t, "minus")
    lrp = is_locally_regular(t, "plus")
    lrm = is_locally_regular(t, "minus")
    flags = {
        "strong": is_strong(t),
        "transitive": is_transitive(t),
        "regular": regular,
        "near_regular": is_near_regular(t),
        "doubly_regular": is_doubly_regular(t),
        "nearly_doubly_regular": is_nearly_doubly_regular(t),
        "locally_transitive_plus": ltp,
        "locally_transitive_minus": ltm,
        "locally_transitive": ltp and ltm,
        "locally_regular_plus": lrp,
        "locally_regular_minus": lrm,
        "locally_regular": lrp and lrm,
        "rldr": is_rldr(t),
        "rlndr": is_rlndr(t),
        "aat_positive": aat_positive(t),
    }
    return ClassificationReport(
        t.n, flags, (t.n - 1) // 2 if regular else None)
