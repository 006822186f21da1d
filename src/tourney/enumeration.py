"""Exhaustive generation of small tournaments.

Two engines, both certified by orbit mass (certified_classes below):

  _classes           grows every isomorphism class of order h from the
                     classes of order h - 1 plus one new vertex.
  enumerate_regular  joins two classes of half order through a 0/1
                     cross matrix into every regular tournament whose
                     vertex 0 beats exactly 1..h, then sorts them into
                     isomorphism classes.

Both hand their members to certified_classes as out-rows, the member
type of Tournament: bit j of row i is set when i -> j.

The extension.  A labeled tournament of order k is a labeled tournament
T' on the vertices 1..k-1 plus the out-set s of vertex 0 among them.
_classes takes each class rep R of order k-1 and each of the 2^(k-1)
out-sets s, and weights the candidate (R, s) by R's orbit (k-1)!/|Aut R|.
Its rows (_extend) are s << 1 for vertex 0 and R[i] << 1 | (1 - s_i)
for vertex i + 1, which beats vertex 0 exactly when bit i of s is clear;
the extremal class scan builds its maximizing extensions the same way.
The weight is exact: for each of the (k-1)!/|Aut R| labeled T'
isomorphic to R choose one relabeling of 1..k-1 that carries R onto T';
it carries (R, s) onto (T', its image of s), one to one over s.  So
every labeled tournament of order k is the image of exactly one
candidate under exactly one chosen relabeling, and is isomorphic to it.
The weights add up to 2^C(k,2), and the certificate holds unchanged.
This is isomorph-free generation by one-vertex extension (McKay 1998),
with the certificate in place of a canonical-parent test; the class
counts are OEIS A000568.

The join.  Let n = 2h + 1 and fix vertex 0's out-set to P = {1..h}; it
loses to Q = {h+1..2h}.  A regular tournament with that first row is
exactly a tournament on P, a tournament on Q and a 0/1 h x h cross matrix
M, where M[a][b] = 1 means that the a-th vertex of P beats the b-th of Q.
Every vertex has out-degree h exactly when the margins of M are fixed
(Gale 1957; Ryser 1957): row a sums to h - score of a on P, and column b
to 1 + score of b on Q.  So enumerate_regular takes one canonical
representative R of every class of order h <= 5 from _classes, and for
each ordered pair (R+, R-) lists every cross matrix with those margins,
row by row.  A completion's rows are composed from its pair's rows and
M.  On P and Q renumbered from 0, with P's mask p = (1 << h) - 1,

    a-th vertex of P   R+[a] | M[a] << h
    b-th vertex of Q   (p ^ col_b(M)) | R-[b] << h

where M[a] is row a of M as a mask over Q and col_b(M) column b as a
mask over P: the b-th vertex of Q beats the vertices of P that do not
beat it.  _extend then adds vertex 0 with out-set P, as in the
extension above.

The weight of a completion (R+, R-, M) is the number of labeled regular
tournaments of order n it stands for:

    (h!/|Aut R+|) * (h!/|Aut R-|) * C(n-1, h).

The weight is exact.  A regular tournament whose vertex 0 beats exactly
P is a labeled tournament T+ on P, a labeled T- on Q and a cross matrix.
By orbit-stabilizer, h!/|Aut R+| labeled tournaments on P are isomorphic
to R+; choose for each such T+ one relabeling of P that carries R+ onto
T+, and likewise on Q.  The chosen pair of relabelings carries the cross
matrices of (R+, R-) one to one onto those of (T+, T-), permuting rows
and columns.  So every first-row-fixed regular tournament is the image
of exactly one completion under exactly one chosen pair, and is
isomorphic to it: a completion stands for (h!/|Aut R+|) * (h!/|Aut R-|)
of them.  Relabelings of 1..n-1 put the regular tournaments with each of
the C(n-1, h) out-sets of vertex 0 in bijection, which gives the last
factor.

Classes come from one walk of the generator of (completion rows,
weight), through certified_classes:

  profile  takes the rows in batches, unpacks them into adjacency
           arrays by the one shared unpack (counting._row_bits), and
           computes each one's c3 profile, a cheap isomorphism
           invariant, in one numpy pass from A A^T and A^2
           (_c3_profiles): the sorted pairs, over the vertices v, of
           the 3-cycle counts inside v's out-set and in-set.  Each
           weight goes to its profile's bucket, which lists its
           members in walk order; the batch's rows are kept.
  certify  each bucket canonicalizes its completions in walk order, and
           only while it is short of its mass; only these become a
           Tournament.  Each new class adds its orbit n!/|Aut| to the
           bucket.

The certificate is exact.  A class lies in one bucket, because the
profile is an invariant, and by the weight argument above the classes of
a bucket add up to exactly its mass.  Every class has positive mass, so
a class the bucket never found leaves it short.  A bucket that goes over
its mass, or is still short after its last completion, raises
VerificationFailedError; no corpus is returned.  At order 9 the 16
half-order pairs give 157 completions and 16 canonicalizations; at order
11 the 144 pairs give 31,405 completions in 1,223 classes.
certified_classes certifies any relabeling-closed set of labeled
tournaments the same way, up to MAX_CANONICAL_ORDER = 16: _classes
passes the one-vertex extensions, and extremal the class scan's
maximizing extensions, weighted by orbit.  enumerate_regular's time
budget is checked inside certified_classes, once per batch of the walk
and after every canonicalization, so it bounds the certify phase as
well as the join.

Class representatives are decoded from the canonical key itself, so the
corpus does not depend on the order of the join.  A .corpus file stores
the header tallies plus one .tour block per class.
"""

from __future__ import annotations

import math
import os
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import combinations, islice
from math import comb
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .classify import is_regular
from .core import (MAX_CANONICAL_ORDER, CanonicalForm, Tournament,
                   _minimal_relabelings, validate)
from .counting import _row_bits
from .errors import (
    BadOrderError,
    CorpusMissingError,
    EvenOrderError,
    InvalidInput,
    OrderTooLargeError,
    ParseError,
    TimeBudgetExceededError,
    VerificationFailedError,
)
from .io import _decimal, format_tour, parse_tour, read_text

if TYPE_CHECKING:
    import numpy as np

ENUM_MAX_ORDER = 11

# Members per numpy pass of certified_classes' profile: 2,048 order-16
# adjacency matrices are 4 MiB of int64 per array.
_PROFILE_BATCH = 2048


# -- class engines -----------------------------------------------------------

def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise TimeBudgetExceededError("enumeration ran past its budget")


def _extend(reps: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The out-rows of rep R plus the out-set s of a new vertex 0, for
    int64 arrays reps (..., m) of order-m out-rows and s (...) of
    out-sets, broadcast against each other: row 0 is s << 1, and old
    row i becomes R[i] << 1 | (1 - s_i), as vertex i + 1 beats vertex 0
    exactly when bit i of s is clear."""
    import numpy as np

    old = reps << 1 | 1 - _row_bits(s, reps.shape[-1])
    first = np.broadcast_to((s << 1)[..., None], (*old.shape[:-1], 1))
    return np.concatenate([first, old], axis=-1)


def _classes(h: int, deadline: float | None
             ) -> list[tuple[Tournament, int]]:
    """(canonical representative, orbit h!/|Aut|) of every class of
    order h, in key order, grown from the one empty tournament by
    certifying each order's one-vertex extensions: rep R of order k-1
    plus every out-set s of vertex 0, weighted by R's orbit."""
    import numpy as np

    classes = [(Tournament(0, ()), 1)]
    for k in range(1, h + 1):
        s = np.arange(1 << (k - 1))
        members = ((rows, orbit) for rep, orbit in classes
                   for rows in _extend(np.array(rep.out_rows, dtype=np.int64),
                                       s))
        _, orbits = certified_classes(k, members, deadline)
        classes = [(Tournament(k, CanonicalForm(k, key).rows()), orbits[key])
                   for key in sorted(orbits)]
    return classes


def _cross_matrices(row_sums: list[int], col_sums: list[int]
                    ) -> Iterator[tuple[int, ...]]:
    """Every 0/1 matrix with the given row and column sums, as a tuple of
    row masks (bit b of row a is entry (a, b)), filled row by row; each
    row sum lies in 0..h and each column sum in 0..len(row_sums).

    Row a takes the masks of weight row_sums[a] in combinations order.
    With k rows left, including row a, a column whose remaining sum is k
    must take a 1 in every one of them (must), and a column whose
    remaining sum is 0 can take no more (forbid).  A row mask is kept
    when it covers must and misses forbid: exactly when every remaining
    column sum stays in 0..k - 1 for the rows after a.  So each walk
    ends with every column sum spent, and each matrix with these
    margins is met once."""
    h = len(col_sums)
    masks = {k: [sum(1 << b for b in chosen)
                 for chosen in combinations(range(h), k)]
             for k in set(row_sums)}
    path: list[int] = []

    def fill(a: int, cols: list[int]) -> Iterator[tuple[int, ...]]:
        if a == len(row_sums):
            yield tuple(path)
            return
        rows_left = len(row_sums) - a
        must = forbid = 0
        for b, c in enumerate(cols):
            if c == rows_left:
                must |= 1 << b
            elif not c:
                forbid |= 1 << b
        for mask in masks[row_sums[a]]:
            if mask & must == must and not mask & forbid:
                path.append(mask)
                yield from fill(a + 1, [c - (mask >> b & 1)
                                        for b, c in enumerate(cols)])
                path.pop()

    yield from fill(0, list(col_sums))


def _completions(n: int, classes: list[tuple[Tournament, int]]
                 ) -> Iterator[tuple[np.ndarray, int]]:
    """The out-rows of every regular tournament of order n whose vertex
    0 beats exactly 1..h, one per (R+, R-, cross matrix M) over the
    classes of order h, with the number of labeled regular tournaments
    it stands for.

    On P and Q, renumbered from 0, the a-th vertex of P has R+[a] on P
    and row a of M on Q, and the b-th vertex of Q has R-[b] on Q and
    beats the vertices of P that column b of M leaves out; _extend then
    adds vertex 0 with out-set P.  Each pair's matrices are composed in
    one numpy batch, in walk order."""
    import numpy as np

    h = (n - 1) // 2
    full = np.array((1 << h) - 1)
    shift = np.arange(h)[:, None]
    for plus, plus_count in classes:
        row_sums = [h - plus.out_degree(a) for a in range(h)]
        p_side = np.array(plus.out_rows, dtype=np.int64)
        for minus, minus_count in classes:
            col_sums = [1 + minus.out_degree(b) for b in range(h)]
            weight = plus_count * minus_count * comb(n - 1, h)
            q_side = np.array(minus.out_rows, dtype=np.int64) << h
            ms = list(_cross_matrices(row_sums, col_sums))
            m = np.array(ms, dtype=np.int64).reshape(len(ms), h)
            # column b of M as a mask over P: bit a is entry (a, b)
            cols = (_row_bits(m, h) << shift).sum(axis=1)
            pair = np.concatenate([p_side | m << h, full ^ cols | q_side],
                                  axis=1)
            for rows in _extend(pair, full):
                yield rows, weight


@cache
def _binomials(n: int) -> tuple[np.ndarray, ...]:
    """C(v, 2), C(v, 3) and C(v, 4) for 0 <= v <= n as read-only int64
    arrays, built once per order for the profile pass and the extremal
    kernel."""
    import numpy as np

    tables = tuple(np.array([comb(v, r) for v in range(n + 1)],
                            dtype=np.int64) for r in (2, 3, 4))
    for table in tables:
        table.flags.writeable = False
    return tables


def _c3_profiles(n: int, rows: Sequence[Sequence[int]]
                 ) -> list[tuple[int, ...]]:
    """The c3 profile of each order-n tournament whose n out-rows are
    a row of rows: the sorted pairs, over the vertices v, of (3-cycles
    inside v's out-set, 3-cycles inside v's in-set), each pair written as
    out * (C(n-1, 3) + 1) + in.  Both counts are at most C(n-1, 3), so
    the sorted values order the pairs as tuples do, one to one.

    A set of d vertices holds C(d, 3) triples, and each transitive one
    has exactly one vertex beating the other two.  Inside v's out-set,
    u beats (A A^T)[v, u] of the others; inside v's in-set, u beats
    (A^2)[u, v].  So

      out_v = C(d_v, 3) - sum over v -> u of C((A A^T)[v, u], 2)
      in_v  = C(n-1-d_v, 3) - sum over u -> v of C((A^2)[u, v], 2)."""
    import numpy as np

    a = _row_bits(rows, n)
    c2, c3, _ = _binomials(n)
    deg = a.sum(axis=2)
    out = c3[deg] - (a * c2[a @ np.swapaxes(a, 1, 2)]).sum(axis=2)
    inside = c3[n - 1 - deg] - (a * c2[a @ a]).sum(axis=1)
    pairs = out * (comb(n - 1, 3) + 1) + inside
    return [tuple(sorted(row)) for row in pairs.tolist()]


def certified_classes(n: int, members: Iterable[tuple[Sequence[int], int]],
                      deadline: float | None = None
                      ) -> tuple[int, dict[int, int]]:
    """Classes of a relabeling-closed set of labeled tournaments of order
    n <= MAX_CANONICAL_ORDER, under the orbit-mass certificate.  members
    yields (out-rows, number of labeled tournaments they stand for), the
    rows as n non-negative ints in a tuple, list or array.  Returns the
    labeled total and {canonical key: n!/|Aut|} over the classes.

    One pass takes the members in batches of _PROFILE_BATCH, profiles
    each batch by _c3_profiles, adds each weight to its profile's bucket
    and keeps the rows.  Then each bucket canonicalizes its members
    in walk order while it is short of its mass; a new class adds its
    orbit.  Only a member that is canonicalized becomes a Tournament.
    Raises OrderTooLargeError for n > MAX_CANONICAL_ORDER,
    VerificationFailedError if a bucket goes over its mass or is still
    short after its last member, and TimeBudgetExceededError once the
    monotonic clock passes deadline, checked once per batch of the walk
    and after every search."""
    import numpy as np

    if n > MAX_CANONICAL_ORDER:
        raise OrderTooLargeError(f"classes are certified up to order "
                                 f"{MAX_CANONICAL_ORDER}, got {n}")
    masses: Counter[tuple] = Counter()
    buckets: dict[tuple, array[int]] = {}  # member numbers, in walk order
    stored: list[np.ndarray] = []  # each batch's rows; uint16 holds n <= 16
    members = iter(members)
    while batch := list(islice(members, _PROFILE_BATCH)):
        _check_deadline(deadline)
        rows = np.array([r for r, _ in batch], dtype=np.uint16)
        first = len(stored) * _PROFILE_BATCH
        for k, ((_, weight), profile) in enumerate(
                zip(batch, _c3_profiles(n, rows)), first):
            masses[profile] += weight
            buckets.setdefault(profile, array("q")).append(k)
        stored.append(rows)
    factorial = math.factorial(n)
    orbits: dict[int, int] = {}
    for profile, bucket in buckets.items():
        short = masses[profile]
        for k in bucket:
            if not short:
                break
            rows = stored[k // _PROFILE_BATCH][k % _PROFILE_BATCH].tolist()
            cf, aut = _minimal_relabelings(Tournament(n, tuple(rows)))
            _check_deadline(deadline)
            if cf.key not in orbits:
                orbits[cf.key] = factorial // aut
                short -= orbits[cf.key]
                if short < 0:
                    raise VerificationFailedError(
                        f"classes with c3 profile {profile} exceed the "
                        f"bucket's labeled count by {-short}")
        if short:
            raise VerificationFailedError(
                f"classes with c3 profile {profile} are short of the "
                f"bucket's labeled count by {short}")
    return masses.total(), orbits


@dataclass(frozen=True)
class EnumCorpus:
    """Isomorphism classes of one enumeration run: (canonical form,
    canonical representative) pairs sorted by key, plus the labeled count."""

    n: int
    constraint: str
    labeled_count: int
    classes: tuple[tuple[CanonicalForm, Tournament], ...]


def _corpus_from_keys(n: int, labeled: int, keys: Iterable[int]
                      ) -> EnumCorpus:
    classes = []
    for key in sorted(keys):
        cf = CanonicalForm(n, key)
        classes.append((cf, validate(n, list(cf.rows()))))
    return EnumCorpus(n, "regular", labeled, tuple(classes))


def enumerate_regular(n: int, *, threads: int = 1,
                      time_budget: float | None = None) -> EnumCorpus:
    """All regular tournaments of odd order n <= ENUM_MAX_ORDER up to
    isomorphism, plus the labeled total.  threads caps the worker
    processes; the join runs in this process, so it starts none.
    threads must be at least 1, and time_budget None or a positive
    finite number of seconds; InvalidInput otherwise.  Raises
    VerificationFailedError if the orbit-mass certificate fails."""
    if n % 2 == 0:
        raise EvenOrderError(f"regular tournaments have odd order, got {n}")
    if n < 1 or n > ENUM_MAX_ORDER:
        raise BadOrderError(
            f"order must be odd in 1..{ENUM_MAX_ORDER}, got {n}")
    if threads < 1:
        raise InvalidInput(f"worker count must be at least 1, got {threads}")
    if time_budget is not None and not 0 < time_budget < math.inf:
        raise InvalidInput(f"time budget must be a positive finite number of "
                           f"seconds, got {time_budget}")
    deadline = None if time_budget is None else time.monotonic() + time_budget
    labeled, orbits = certified_classes(
        n, _completions(n, _classes((n - 1) // 2, deadline)), deadline)
    return _corpus_from_keys(n, labeled, orbits)


# -- corpus files ------------------------------------------------------------

_MAGIC = "tourney-corpus 1"


def write_corpus(corpus: EnumCorpus, path: str | os.PathLike[str]) -> None:
    parts = [
        _MAGIC,
        f"n {corpus.n}",
        f"constraint {corpus.constraint}",
        f"labeled_count {corpus.labeled_count}",
        f"classes {len(corpus.classes)}",
        "",
    ]
    for cf, rep in corpus.classes:
        parts.append(f"class {cf.hex()}")
        parts.append(format_tour(rep).rstrip("\n"))
        parts.append("")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(parts))


def read_corpus(path: str | os.PathLike[str]) -> EnumCorpus:
    if not os.path.exists(path):
        raise CorpusMissingError(f"no corpus file at {path}")
    lines = read_text(path).split("\n")
    pos = 0

    def take(prefix: str) -> str:
        """The rest of the next line, which must start with prefix."""
        nonlocal pos
        if pos >= len(lines) or not lines[pos].startswith(prefix):
            raise ParseError(f"expected {prefix!r} line", line=pos + 1)
        pos += 1
        return lines[pos - 1][len(prefix):]

    def take_decimal(name: str) -> int:
        text = take(f"{name} ")
        return _decimal(text, name, line=pos, col=len(name) + 2)

    def take_key() -> int:
        """The class key on the next line, exactly as CanonicalForm.hex()
        writes it: (n*n + 3)//4 lowercase hex digits of a value below
        2^(n*n)."""
        text = take("class ")
        width = (n * n + 3) // 4
        bad = next((k for k, ch in enumerate(text)
                    if k >= width or ch not in "0123456789abcdef"),
                   None if len(text) == width else len(text))
        if bad is not None:
            raise ParseError(f"class key must be {width} lowercase hex "
                             f"digits", line=pos, col=len("class ") + 1 + bad)
        key = int(text, 16)
        if key >> n * n:
            raise ParseError(f"class key must be below 2^{n * n}",
                             line=pos, col=len("class ") + 1)
        return key

    if pos >= len(lines) or lines[pos] != _MAGIC:
        raise ParseError(f"expected header {_MAGIC!r}", line=1)
    pos += 1
    n = take_decimal("n")
    if n % 2 == 0 or n > ENUM_MAX_ORDER:
        raise ParseError(f"n must be odd and in 1..{ENUM_MAX_ORDER}, "
                         f"got {n}", line=pos)
    constraint = take("constraint ")
    if constraint != "regular":
        raise ParseError(f"constraint must be 'regular', got {constraint!r}",
                         line=pos)
    labeled = take_decimal("labeled_count")
    nclasses = take_decimal("classes")
    classes = []
    for _ in range(nclasses):
        while pos < len(lines) and lines[pos] == "":
            pos += 1
        key = take_key()
        start = pos
        pos += n + 1
        try:
            rep = parse_tour("\n".join(lines[start:pos]) + "\n")
        except ParseError as exc:
            # parse_tour numbers the block's lines from 1; the block
            # starts at file line start + 1
            raise ParseError(exc.reason, line=start + exc.line,
                             col=exc.col) from None
        classes.append((CanonicalForm(n, key), rep))
    while pos < len(lines) and lines[pos] == "":
        pos += 1
    if pos != len(lines):
        raise ParseError("trailing content after the last class",
                         line=pos + 1)
    return EnumCorpus(n, constraint, labeled, tuple(classes))


# class counts known independently of this enumerator, for every order
# read_corpus admits; 1223 at order 11 is McKay's (OEIS A096368)
KNOWN_REGULAR_CLASSES = {1: 1, 3: 1, 5: 1, 7: 3, 9: 15, 11: 1223}


def verify_corpus(corpus: EnumCorpus) -> None:
    """Re-check every corpus invariant without regenerating: canonical
    keys match their representatives, the representatives are regular,
    keys are sorted and distinct, the labeled count satisfies the
    orbit-counting identity sum(n!/|Aut|), and the class count matches
    the known table.  Raises BadOrderError for an order outside the
    table and VerificationFailedError on any mismatch."""
    known = KNOWN_REGULAR_CLASSES.get(corpus.n)
    if known is None:
        raise BadOrderError(
            f"no known regular class count at order {corpus.n}; the "
            f"admitted orders are {', '.join(map(str, KNOWN_REGULAR_CLASSES))}")
    seen: set[int] = set()
    orbit_sum = 0
    for cf, rep in corpus.classes:
        if rep.n != corpus.n or cf.n != corpus.n:
            raise VerificationFailedError("class order disagrees with header")
        if not is_regular(rep):
            raise VerificationFailedError(
                "a stored representative is not regular")
        rep_cf, aut = _minimal_relabelings(rep)
        if rep_cf.key != cf.key:
            raise VerificationFailedError(
                f"stored key {cf.hex()} does not match its representative")
        if cf.key in seen:
            raise VerificationFailedError(f"duplicate class key {cf.hex()}")
        seen.add(cf.key)
        orbit_sum += math.factorial(corpus.n) // aut
    keys = [cf.key for cf, _ in corpus.classes]
    if keys != sorted(keys):
        raise VerificationFailedError("classes are not sorted by key")
    if len(corpus.classes) != known:
        raise VerificationFailedError(
            f"expected {known} classes at order {corpus.n}, "
            f"got {len(corpus.classes)}")
    if orbit_sum != corpus.labeled_count:
        raise VerificationFailedError(
            f"labeled count {corpus.labeled_count} fails orbit counting "
            f"(sum n!/|Aut| = {orbit_sum})")

