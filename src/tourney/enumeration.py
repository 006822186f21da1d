"""Exhaustive generation of small tournaments.

Two engines, both certified by orbit mass (certified_classes below):

  _classes           grows every isomorphism class of order h from the
                     classes of order h - 1 plus one new vertex.
  enumerate_regular  joins two classes of half order through a 0/1
                     cross matrix into every regular tournament whose
                     vertex 0 beats exactly 1..h, then sorts them into
                     isomorphism classes.

Both hand their members to certified_classes in blocks of out-rows,
the member type of Tournament: bit j of row i is set when i -> j.

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
each ordered pair (R+, R-) lists every cross matrix with those margins
as one array of row masks, and composes the pair's completions from
them.  On P and Q renumbered from 0, with P's mask p = (1 << h) - 1,

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

Classes come from one walk of the pairs' blocks of (completion rows,
weight), through certified_classes:

  key      keeps every member's rows in one array by member number,
           unpacks it slice by slice into adjacency arrays by the one
           shared unpack (counting._row_bits), and computes each
           member's bucket key, a cheap isomorphism invariant, in one
           numpy pass from A A^T and A^2 (_bucket_keys): over the
           vertices v, the sorted pairs of a code of v's out-degree and
           the 3-cycle counts inside its out-set and in-set, and the
           sum of that code over v's out-neighbours, one round of
           vertex refinement as in McKay (1981).  Each weight goes to
           its key's bucket, which lists its members in walk order.
  certify  each bucket canonicalizes its completions in walk order, and
           only while it is short of its mass; only these become a
           Tournament.  Each new class adds its orbit n!/|Aut| to the
           bucket.

The certificate is exact.  A class lies in one bucket, because the key
is an invariant, and by the weight argument above the classes of a
bucket add up to exactly its mass.  Every class has positive mass, so
a class the bucket never found leaves it short.  A bucket that goes over
its mass, or is still short after its last completion, raises
VerificationFailedError; no corpus is returned.  A join pair left out
takes its classes and their mass with it, which no bucket can see, so
enumerate_regular also checks the labeled total against the score count
tournaments_with_scores, which does not use the join.  At order 9 the 16
half-order pairs give 157 completions and 15 canonicalizations, one per
class; at order 11 the 144 pairs give 31,405 completions in 1,223
classes and 1,230 canonicalizations.  Every bucket of the class engine
holds one class up to order 8, so _classes searches once per class.
certified_classes certifies any relabeling-closed set of labeled
tournaments the same way, up to MAX_CANONICAL_ORDER = 16: _classes
passes each order's one-vertex extensions as one block, and extremal
the class scan's maximizing extensions, weighted by orbit.
enumerate_regular's time budget is checked inside certified_classes,
once per block (each order's extensions, each pair's completions), once
per slice of the key pass and after every canonicalization, so it
bounds the certify phase as well as the join.

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
from itertools import combinations
from math import comb
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .classify import is_regular, tournaments_with_scores
from .core import (MAX_CANONICAL_ORDER, CanonicalForm, Tournament,
                   _minimal_relabelings, mask_of, validate)
from .counting import _row_bits, _table
from .errors import (InvalidInput, ParseError, TimeBudgetExceededError,
                     VerificationFailedError, _echo, _int_in_range)
from .io import _decimal, format_tour, parse_tour, read_text

if TYPE_CHECKING:
    import numpy as np

ENUM_MAX_ORDER = 11

# Members per numpy pass of certified_classes' bucket keys: 2,048
# order-16 adjacency matrices are 4 MiB of int64 per array.
_PROFILE_BATCH = 2048


# -- class engines -----------------------------------------------------------

def _deadline(time_budget: float | None) -> float | None:
    """The monotonic time time_budget seconds from now, or None for no
    budget; InvalidInput for a budget not positive and finite."""
    if time_budget is not None and not 0 < time_budget < math.inf:
        raise InvalidInput(f"time budget must be a positive finite number of "
                           f"seconds, got {time_budget}")
    return None if time_budget is None else time.monotonic() + time_budget


def _check_deadline(deadline: float | None,
                    what: str = "enumeration") -> None:
    """Raise TimeBudgetExceededError, naming what ran, past deadline."""
    if deadline is not None and time.monotonic() >= deadline:
        raise TimeBudgetExceededError(f"{what} ran past its budget")


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
             ) -> tuple[np.ndarray, list[int]]:
    """The canonical reps of every class of order h in key order, as
    int64 out-rows of shape (classes, h), and their orbits h!/|Aut|:
    order k certifies one block, each rep R of order k-1 in turn plus
    every out-set s of vertex 0, weighted by R's orbit."""
    import numpy as np

    reps, orbits = np.zeros((1, 0), dtype=np.int64), [1]
    for k in range(1, h + 1):
        s = np.arange(1 << (k - 1))
        block = (_extend(reps[:, None, :], s).reshape(-1, k),
                 np.repeat(orbits, len(s)))
        _, found = certified_classes(k, [block], deadline)
        keys = sorted(found)
        reps = np.array([CanonicalForm(k, key).rows() for key in keys],
                        dtype=np.int64)
        orbits = [found[key] for key in keys]
    return reps, orbits


@_table(maxsize=None)
def _weight_masks(h: int, weight: int) -> tuple[np.ndarray, np.ndarray]:
    """Masks of one weight over h bits, combinations order, and bits."""
    import numpy as np

    masks = np.array([mask_of(c) for c in combinations(range(h), weight)],
                     dtype=np.int64)
    return masks, _row_bits(masks, h)


def _cross_matrices(row_sums: Sequence[int], col_sums: Sequence[int]
                    ) -> np.ndarray:
    """Every 0/1 matrix with the given margins, as an int64 array of row
    masks of shape (matrices, len(row_sums)); bit b of row a is entry
    (a, b).  Every row but the last is expanded for all partial matrices
    at once: row a takes the masks of weight row_sums[a] in combinations
    order and keeps those that leave each column sum in 0..k, k the rows
    after a; children follow their parent in mask order, as in a
    depth-first walk.  The last row is forced to the columns that still
    need a 1, and kept when the others need none and their number is its
    sum, so unequal totals give no matrix; each matrix is met once."""
    import numpy as np

    h = len(col_sums)
    matrices, left = np.zeros((1, 0), np.int64), np.array([col_sums], np.int64)
    for a, weight in enumerate(row_sums[:-1]):
        masks, bits = _weight_masks(h, weight)
        rest = left[:, None, :] - bits
        partial, mask = np.nonzero(
            ((rest >= 0) & (rest < len(row_sums) - a)).all(axis=2))
        matrices = np.column_stack([matrices[partial], masks[mask]])
        left = rest[partial, mask]
    if len(row_sums):
        kept = (np.isin(left, (0, 1)).all(axis=1)
                & (left.sum(axis=1) == row_sums[-1]))
        last = (left[kept] << np.arange(h)).sum(axis=1)
        matrices = np.column_stack([matrices[kept], last])
    return matrices


def _completions(n: int, reps: np.ndarray, orbits: Sequence[int]
                 ) -> Iterator[tuple[np.ndarray, int]]:
    """One block per ordered pair (R+, R-) of the class reps of order h
    (int64 out-rows) with their orbits: the out-rows of the regular
    tournaments of order n whose vertex 0 beats exactly 1..h, one per
    cross matrix M in walk order, and the labeled count each stands for.
    The a-th vertex of P has R+[a] on P and row a of M on Q; the b-th
    vertex of Q has R-[b] on Q and beats the vertices of P that column b
    of M leaves out; _extend then adds vertex 0 with out-set P."""
    import numpy as np

    h = (n - 1) // 2
    full = np.array((1 << h) - 1)
    scale = comb(n - 1, h)
    degrees = _row_bits(reps, h).sum(axis=2)
    plus = list(zip(reps, (h - degrees).tolist(), orbits))
    minus = list(zip(reps << h, (1 + degrees).tolist(), orbits))
    for p_side, row_sums, plus_count in plus:
        for q_side, col_sums, minus_count in minus:
            m = _cross_matrices(row_sums, col_sums)
            # column b of M as a mask over P: bit a is entry (a, b)
            cols = (_row_bits(m, h) << np.arange(h)[:, None]).sum(axis=1)
            pair = np.hstack([p_side | m << h, full ^ cols | q_side])
            yield _extend(pair, full), plus_count * minus_count * scale


@_table(maxsize=None)
def _binomials(n: int) -> tuple[np.ndarray, ...]:
    """C(v, 2), C(v, 3) and C(v, 4) for 0 <= v <= n as int64 arrays,
    built once per order for the key pass and the extremal kernel."""
    import numpy as np

    return tuple(np.array([comb(v, r) for v in range(n + 1)],
                          dtype=np.int64) for r in (2, 3, 4))


def _bucket_keys(n: int, rows: Sequence[Sequence[int]]
                 ) -> list[tuple[int, ...]]:
    """The bucket key of each order-n tournament whose n out-rows are a
    row of rows, an isomorphism invariant.  Each vertex v has the code

      code_v = (d_v * B + out_v) * B + in_v,   B = C(n-1, 3) + 1,

    from its out-degree d_v and the 3-cycles out_v inside its out-set
    and in_v inside its in-set, and nb_v = (A code)_v, the sum of code_u
    over its out-neighbours u.  The key is the sorted values
    code_v * n^2 B^2 + nb_v.  A relabeling of T carries each vertex to
    one with the same code and the same nb, so the key is invariant.
    Any invariant keeps certified_classes exact, as a class lies in one
    bucket; a finer one leaves fewer searches that find a class its
    bucket already holds.

    d_v <= n - 1 and both counts are at most C(n-1, 3) < B, so
    code_v < n B^2, nb_v < n^2 B^2, and each value stands for its pair
    (code_v, nb_v) one to one, in tuple order.  Every value is below
    n^3 B^4, under 1.8 * 10^14 at n = 16, so int64 holds them.

    A set of d vertices holds C(d, 3) triples, and each transitive one
    has exactly one vertex beating the other two.  Inside v's out-set,
    u beats (A A^T)[v, u] of the others; inside v's in-set, u beats
    (A^2)[u, v].  So

      out_v = C(d_v, 3) - sum over v -> u of C((A A^T)[v, u], 2)
      in_v  = C(n-1-d_v, 3) - sum over u -> v of C((A^2)[u, v], 2)."""
    import numpy as np

    a = _row_bits(rows, n)
    c2, c3, _ = _binomials(n)
    base = comb(n - 1, 3) + 1
    deg = a.sum(axis=2)
    out = c3[deg] - (a * c2[a @ np.swapaxes(a, 1, 2)]).sum(axis=2)
    inside = c3[n - 1 - deg] - (a * c2[a @ a]).sum(axis=1)
    code = (deg * base + out) * base + inside
    keys = code * (n * base) ** 2 + (a @ code[..., None])[..., 0]
    # sorted, not np.sort: numpy's sort kernels would add their code
    # pages to the resident memory of a run that needs no other sort
    return [tuple(sorted(row)) for row in keys.tolist()]


def certified_classes(n: int, blocks: Iterable[tuple[Sequence[Sequence[int]],
                                                     int | Sequence[int]]],
                      deadline: float | None = None
                      ) -> tuple[int, dict[int, int]]:
    """Classes of a relabeling-closed set of labeled tournaments of order
    n <= MAX_CANONICAL_ORDER, under the orbit-mass certificate.  blocks
    yields (rows of shape (B, n), weight): B members' out-rows, and one
    int for all of them or B ints below 2^63, the labeled tournaments
    each stands for; t alone is ([t.out_rows], weight).  Returns the
    labeled total and {canonical key: n!/|Aut|} over the classes.

    One uint16 array keeps every member's rows by member number; one
    pass keys it in slices of _PROFILE_BATCH by _bucket_keys and adds
    each weight to its key's bucket, as exact ints.  Then each bucket
    canonicalizes its members in walk order while it is short of its
    mass; a new class adds its orbit, and only a member that is
    canonicalized becomes a Tournament.  Raises InvalidInput for
    n > MAX_CANONICAL_ORDER, VerificationFailedError if a bucket goes
    over its mass or is still short after its last member, and
    TimeBudgetExceededError once the monotonic clock passes deadline,
    checked once per block, once per slice and after every search."""
    import numpy as np

    if n > MAX_CANONICAL_ORDER:
        raise InvalidInput(f"classes are certified up to order "
                           f"{MAX_CANONICAL_ORDER}, got {n}")
    parts = [np.zeros((0, n), dtype=np.uint16)]  # uint16 holds n <= 16
    weights: list[int] = []
    for rows, weight in blocks:
        _check_deadline(deadline)
        parts.append(np.asarray(rows, dtype=np.uint16))
        weights += np.broadcast_to(weight, len(rows)).tolist()
    stored = np.concatenate(parts)
    masses: Counter[tuple] = Counter()
    buckets: dict[tuple, array[int]] = {}  # member numbers, in walk order
    for lo in range(0, len(stored), _PROFILE_BATCH):
        _check_deadline(deadline)
        keys = _bucket_keys(n, stored[lo:lo + _PROFILE_BATCH])
        for k, key in enumerate(keys, lo):
            masses[key] += weights[k]
            buckets.setdefault(key, array("q")).append(k)
    factorial = math.factorial(n)
    orbits: dict[int, int] = {}
    for key, bucket in buckets.items():
        short = masses[key]
        for k in bucket:
            if not short:
                break
            rows = tuple(stored[k].tolist())
            cf, aut = _minimal_relabelings(Tournament(n, rows))
            _check_deadline(deadline)
            if cf.key not in orbits:
                orbits[cf.key] = factorial // aut
                short -= orbits[cf.key]
                if short < 0:
                    raise VerificationFailedError(
                        f"classes with bucket key {key} exceed the "
                        f"bucket's labeled count by {-short}")
        if short:
            raise VerificationFailedError(
                f"classes with bucket key {key} are short of the "
                f"bucket's labeled count by {short}")
    return masses.total(), orbits


@dataclass(frozen=True)
class EnumCorpus:
    """Isomorphism classes of one enumeration run of regular
    tournaments: (canonical form, canonical representative) pairs sorted
    by key, plus the labeled count."""

    n: int
    labeled_count: int
    classes: tuple[tuple[CanonicalForm, Tournament], ...]


def _corpus_from_keys(n: int, labeled: int, keys: Iterable[int]
                      ) -> EnumCorpus:
    classes = []
    for key in sorted(keys):
        cf = CanonicalForm(n, key)
        classes.append((cf, validate(n, list(cf.rows()))))
    return EnumCorpus(n, labeled, tuple(classes))


def enumerate_regular(n: int, *, threads: int = 1,
                      time_budget: float | None = None) -> EnumCorpus:
    """All regular tournaments of odd order n <= ENUM_MAX_ORDER up to
    isomorphism, plus the labeled total.  threads caps the worker
    processes; the join runs in this process, so it starts none.
    threads must be at least 1, and time_budget None or a positive
    finite number of seconds; InvalidInput otherwise, as for an n that is
    not an int.  Raises VerificationFailedError if the orbit-mass
    certificate fails or the labeled total is not the score count
    tournaments_with_scores, which sees a join pair the walk missed, and
    TimeBudgetExceededError past the budget, checked once per block of
    members and after every search."""
    in_range = _int_in_range(n, "order", 1, ENUM_MAX_ORDER)
    if n % 2 == 0:
        raise InvalidInput(f"regular tournaments have odd order, got {n}")
    if not in_range:
        raise InvalidInput(
            f"order must be odd in 1..{ENUM_MAX_ORDER}, got {n}")
    if threads < 1:
        raise InvalidInput(f"worker count must be at least 1, got {threads}")
    deadline = _deadline(time_budget)
    labeled, orbits = certified_classes(
        n, _completions(n, *_classes((n - 1) // 2, deadline)), deadline)
    regular = tournaments_with_scores(((n - 1) // 2,) * n)
    if labeled != regular:
        raise VerificationFailedError(
            f"the join holds {labeled} labeled regular tournaments, the "
            f"score count says {regular}")
    return _corpus_from_keys(n, labeled, orbits)


# -- corpus files ------------------------------------------------------------

_MAGIC = "tourney-corpus 1"


def write_corpus(corpus: EnumCorpus, path: str | os.PathLike[str]) -> None:
    parts = [
        _MAGIC,
        f"n {corpus.n}",
        "constraint regular",
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
        raise ParseError(f"constraint must be 'regular', got "
                         f"{_echo(constraint)}", line=pos)
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
    return EnumCorpus(n, labeled, tuple(classes))


# class counts known independently of this enumerator, for every order
# read_corpus admits; 1223 at order 11 is McKay's (OEIS A096368)
KNOWN_REGULAR_CLASSES = {1: 1, 3: 1, 5: 1, 7: 3, 9: 15, 11: 1223}


def verify_corpus(corpus: EnumCorpus) -> None:
    """Re-check every corpus invariant without regenerating: canonical
    keys match their representatives, the representatives are regular,
    keys are sorted and distinct, the labeled count satisfies the
    orbit-counting identity sum(n!/|Aut|), and the class count matches
    the known table.  Raises InvalidInput for an order outside the
    table and VerificationFailedError on any mismatch."""
    known = KNOWN_REGULAR_CLASSES.get(corpus.n)
    if known is None:
        raise InvalidInput(
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

