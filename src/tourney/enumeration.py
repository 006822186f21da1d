"""Exhaustive generation of small tournaments.

Two drivers:

  sweep_all          folds a visitor over every labeled tournament of
                     order n <= 7, one per upper-triangle edge code
                     (bit k of the code orients the k-th pair i < j in
                     lexicographic order: 1 means i -> j).
  enumerate_regular  backtracks over arc orientations with out-degree
                     feasibility pruning through every labeled regular
                     tournament, then sorts them into isomorphism classes
                     under an orbit-mass certificate.

Symmetry breaking fixes vertex 0's out-set to {1..(n-1)/2}; every class
is still reached, and the labeled total is the fixed-row count times
C(n-1, (n-1)/2) because relabelings of 1..n-1 put the parts of the
partition by vertex 0's out-set in bijection.

The search splits itself into jobs at the first undecided row: vertex
1's row under the symmetry break, vertex 0's row without it.  The same
backtracker, stopped after that row's edges, lists its feasible
orientations (1/3/10/35/126 jobs at n = 3/5/7/9/11 with the break), and
each job backtracks the rest of the edges from one of them.  The job
list depends only on n and the symmetry break.

Classes come from two passes over the jobs:

  count    every job tallies its completions by c3 profile, a cheap
           isomorphism invariant: the sorted pairs, over the vertices v,
           of the 3-cycle counts inside v's out-set and in-set.  The jobs
           run in order in this process, or on a process pool when
           threads > 1; either way one loop adds up the tallies.
  certify  this process walks the jobs again, in order, and
           canonicalizes a completion only while its profile's bucket is
           short of mass.  Each new class adds its orbit n!/|Aut| to its
           bucket.  A bucket is certified when its mass equals its
           completion count times the scale (C(n-1, (n-1)/2) under the
           symmetry break, else 1), and the walk stops as soon as every
           bucket is certified.

The certificate is exact.  A class lies in one bucket, because the
profile is an invariant, and fixing vertex 0's out-set divides every
class's labeled count by the same scale, so the classes of a bucket add
up to exactly its mass.  Every class has positive mass, so a class the
walk never found leaves its bucket short.  A bucket that goes over its
mass, or is still short when the walk ends, raises
VerificationFailedError; no corpus is returned.  At order 9 the 46,144
completions fall into 13 buckets; the walk visits 2,902 of them and
canonicalizes 158.

Memory does not grow with the completions: the count pass keeps one
tally per bucket and the walk one key per class, and no completion is
stored.  OrbitMass certifies any relabeling-closed set of labeled
tournaments the same way with scale 1; extremal uses it for the
sweep's witness codes.

Class representatives are decoded from the canonical key itself, so the
corpus does not depend on edge order or job order.  A .corpus file
stores the header tallies plus one .tour block per class.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter
from collections.abc import Mapping
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import repeat
from math import comb
from typing import Callable, Iterator, TypeVar

from .core import (CanonicalForm, Tournament, automorphism_count,
                   canonical_form, validate)
from .counting import _c3_within
from .errors import (
    BadOrderError,
    CorpusMissingError,
    EvenOrderError,
    InvalidInput,
    ParseError,
    TimeBudgetExceededError,
    TooLargeError,
    VerificationFailedError,
)
from .io import _decimal, format_tour, parse_tour, read_text

SWEEP_MAX_ORDER = 7
ENUM_MAX_ORDER = 9
ENUM_LONG_MAX_ORDER = 11

A = TypeVar("A")


def _edges(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def tournament_from_code(n: int, code: int) -> Tournament:
    """Labeled tournament of an upper-triangle edge code."""
    rows = [0] * n
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            if (code >> k) & 1:
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
            k += 1
    return Tournament(n, tuple(rows))


def all_tournaments(n: int) -> Iterator[Tournament]:
    """Every labeled tournament of order n, in code order."""
    if n > SWEEP_MAX_ORDER:
        raise TooLargeError(
            f"full sweeps are capped at order {SWEEP_MAX_ORDER}, got {n}")
    if n < 1:
        raise BadOrderError(f"order must be >= 1, got {n}")
    for code in range(1 << (n * (n - 1) // 2)):
        yield tournament_from_code(n, code)


def sweep_all(n: int, visitor: Callable[[A, Tournament], A], init: A) -> A:
    """Pure fold of the visitor over every labeled tournament of order n."""
    acc = init
    for t in all_tournaments(n):
        acc = visitor(acc, t)
    return acc


# -- regular enumeration -----------------------------------------------------

def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise TimeBudgetExceededError("enumeration ran past its budget")


def _backtrack_regular(n: int, rows: list[int], out: list[int], rem: list[int],
                       edges: list[tuple[int, int]], start: int,
                       deadline: float | None,
                       emit: Callable[[tuple[int, ...]], None],
                       tick: list[int]) -> None:
    if start == len(edges):
        emit(tuple(rows))
        return
    tick[0] += 1
    if tick[0] % 4096 == 0:
        _check_deadline(deadline)
    half = (n - 1) // 2
    i, j = edges[start]
    rem[i] -= 1
    rem[j] -= 1
    if out[i] < half and out[j] + rem[j] >= half:
        rows[i] |= 1 << j
        out[i] += 1
        _backtrack_regular(n, rows, out, rem, edges, start + 1, deadline,
                           emit, tick)
        out[i] -= 1
        rows[i] &= ~(1 << j)
    if out[j] < half and out[i] + rem[i] >= half:
        rows[j] |= 1 << i
        out[j] += 1
        _backtrack_regular(n, rows, out, rem, edges, start + 1, deadline,
                           emit, tick)
        out[j] -= 1
        rows[j] &= ~(1 << i)
    rem[i] += 1
    rem[j] += 1


def _start_state(n: int, symmetry_break: bool
                 ) -> tuple[list[int], list[int], list[int], int]:
    """(rows, out, rem, first undecided edge index) after the optional
    fixed first row."""
    rows = [0] * n
    out = [0] * n
    rem = [n - 1] * n
    start = 0
    if symmetry_break and n > 1:
        half = (n - 1) // 2
        for j in range(1, n):
            if j <= half:
                rows[0] |= 1 << j
                out[0] += 1
            else:
                rows[j] |= 1
                out[j] += 1
            rem[0] -= 1
            rem[j] -= 1
        start = n - 1
    return rows, out, rem, start


def _first_row_jobs(n: int, symmetry_break: bool, deadline: float | None
                    ) -> tuple[list[tuple[tuple[int, ...], ...]], int]:
    """Every feasible orientation of the first undecided row, as
    (rows, out, rem) states, plus the index of the edge each job
    resumes at."""
    edges = _edges(n)
    rows, out, rem, start = _start_state(n, symmetry_break)
    row = 1 if start else 0  # the symmetry break has decided row 0
    stop = start + n - 1 - row
    jobs: list[tuple[tuple[int, ...], ...]] = []

    def emit(_: tuple[int, ...]) -> None:
        jobs.append((tuple(rows), tuple(out), tuple(rem)))

    _backtrack_regular(n, rows, out, rem, edges[:stop], start, deadline,
                       emit, [0])
    return jobs, stop


def c3_profile(t: Tournament) -> tuple[tuple[int, int], ...]:
    """Isomorphism invariant: the sorted pairs, over the vertices v, of
    (3-cycles inside v's out-set, 3-cycles inside v's in-set)."""
    full = t.full_mask()
    return tuple(sorted(
        (_c3_within(t, row), _c3_within(t, full ^ row ^ (1 << v)))
        for v, row in enumerate(t.out_rows)))


class OrbitMass:
    """Orbit-mass certificate for the classes of a set of labeled
    tournaments of order n, bucketed by c3 profile.

    counts[profile] is the number of members with that profile, and each
    member stands for `scale` labeled tournaments.  offer() canonicalizes
    a member only while its bucket is short; each new class adds
    n!/|Aut| to the bucket.  Once every bucket's mass equals its
    count * scale, `keys` holds every class of the set."""

    def __init__(self, n: int, counts: Mapping[tuple, int],
                 scale: int) -> None:
        self.keys: set[int] = set()
        self._orbit = math.factorial(n)
        self._short = {profile: count * scale
                       for profile, count in counts.items()}
        self._open = len(self._short)

    def offer(self, t: Tournament) -> bool:
        """Count t toward its bucket; True once every bucket is
        certified."""
        profile = c3_profile(t)
        short = self._short.get(profile)
        if short is None:
            raise VerificationFailedError(
                f"c3 profile {profile} was never counted")
        if short:
            key = canonical_form(t).key
            if key not in self.keys:
                self.keys.add(key)
                short -= self._orbit // automorphism_count(t)
                if short < 0:
                    raise VerificationFailedError(
                        f"classes with c3 profile {profile} exceed the "
                        f"bucket's labeled count by {-short}")
                self._short[profile] = short
                if not short:
                    self._open -= 1
        return not self._open

    def check(self) -> None:
        """Raise VerificationFailedError unless every bucket is
        certified."""
        if self._open:
            raise VerificationFailedError(
                f"{self._open} c3-profile buckets are short of their "
                f"labeled count by {sum(self._short.values())} in total")


class _Certified(Exception):
    """Ends the certify walk once every bucket holds its mass."""


def _walk(n: int, state: tuple[tuple[int, ...], ...], stop: int,
          deadline: float | None, emit: Callable[[tuple[int, ...]], None],
          tick: list[int]) -> None:
    """Backtrack the subtree below one job state."""
    _check_deadline(deadline)
    rows, out, rem = (list(part) for part in state)
    _backtrack_regular(n, rows, out, rem, _edges(n), stop, deadline, emit,
                       tick)


def _regular_job(n: int, state: tuple[tuple[int, ...], ...], stop: int,
                 deadline: float | None) -> Counter[tuple]:
    """The count pass of one job: its completions tallied by c3 profile."""
    counts: Counter[tuple] = Counter()

    def emit(snapshot: tuple[int, ...]) -> None:
        counts[c3_profile(Tournament(n, snapshot))] += 1

    _walk(n, state, stop, deadline, emit, [0])
    return counts


def _certify(n: int, jobs: list[tuple[tuple[int, ...], ...]], stop: int,
             deadline: float | None, mass: OrbitMass) -> None:
    """The certify pass: walk the jobs in order until every bucket holds
    its mass."""
    def emit(snapshot: tuple[int, ...]) -> None:
        if mass.offer(Tournament(n, snapshot)):
            raise _Certified

    tick = [0]
    try:
        for state in jobs:
            _walk(n, state, stop, deadline, emit, tick)
    except _Certified:
        return
    mass.check()


@dataclass(frozen=True)
class EnumCorpus:
    """Isomorphism classes of one enumeration run: (canonical form,
    canonical representative) pairs sorted by key, plus the labeled count."""

    n: int
    constraint: str
    labeled_count: int
    classes: tuple[tuple[CanonicalForm, Tournament], ...]


def _corpus_from_keys(n: int, labeled: int, keys: set[int]) -> EnumCorpus:
    classes = []
    for key in sorted(keys):
        cf = CanonicalForm(n, key)
        classes.append((cf, validate(n, list(cf.rows()))))
    return EnumCorpus(n, "regular", labeled, tuple(classes))


def enumerate_regular(n: int, *, threads: int = 1, symmetry_break: bool = True,
                      time_budget: float | None = None,
                      allow_long: bool = False) -> EnumCorpus:
    """All regular tournaments of odd order n up to isomorphism, plus the
    labeled total.  n <= 9 unless allow_long permits 11.  threads must
    be at least 1, and time_budget None or a positive finite number of
    seconds; InvalidInput otherwise.  Raises VerificationFailedError if
    the orbit-mass certificate fails."""
    if n % 2 == 0:
        raise EvenOrderError(f"regular tournaments have odd order, got {n}")
    cap = ENUM_LONG_MAX_ORDER if allow_long else ENUM_MAX_ORDER
    if n < 1 or n > cap:
        raise BadOrderError(f"order must be odd in 1..{cap}, got {n}")
    if threads < 1:
        raise InvalidInput(f"worker count must be at least 1, got {threads}")
    if time_budget is not None and not 0 < time_budget < math.inf:
        raise InvalidInput(f"time budget must be a positive finite number of "
                           f"seconds, got {time_budget}")
    deadline = None if time_budget is None else time.monotonic() + time_budget
    half = (n - 1) // 2
    scale = comb(n - 1, half) if symmetry_break and n > 1 else 1

    jobs, stop = _first_row_jobs(n, symmetry_break, deadline)
    # A fork pool starts all its workers at once, so never ask for more
    # than there are CPUs or jobs.
    workers = min(threads, os.cpu_count() or 1, len(jobs))
    counts: Counter[tuple] = Counter()
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1
          else nullcontext()) as pool:
        run = pool.map if pool else map
        for job_counts in run(_regular_job, repeat(n), jobs, repeat(stop),
                              repeat(deadline)):
            counts.update(job_counts)
    mass = OrbitMass(n, counts, scale)
    _certify(n, jobs, stop, deadline, mass)
    return _corpus_from_keys(n, counts.total() * scale, mass.keys)


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

    if pos >= len(lines) or lines[pos] != _MAGIC:
        raise ParseError(f"expected header {_MAGIC!r}", line=1)
    pos += 1
    n = take_decimal("n")
    if n % 2 == 0 or n > ENUM_LONG_MAX_ORDER:
        raise ParseError(f"n must be odd and in 1..{ENUM_LONG_MAX_ORDER}, "
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
        value = take("class ").strip()
        try:
            key = int(value, 16)
        except ValueError:
            raise ParseError(f"bad value {value!r} after 'class '",
                             line=pos) from None
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
    the known table.  Raises VerificationFailedError on any mismatch."""
    from .classify import is_regular

    seen: set[int] = set()
    for cf, rep in corpus.classes:
        if rep.n != corpus.n or cf.n != corpus.n:
            raise VerificationFailedError("class order disagrees with header")
        if not is_regular(rep):
            raise VerificationFailedError(
                "a stored representative is not regular")
        if canonical_form(rep).key != cf.key:
            raise VerificationFailedError(
                f"stored key {cf.hex()} does not match its representative")
        if cf.key in seen:
            raise VerificationFailedError(f"duplicate class key {cf.hex()}")
        seen.add(cf.key)
    keys = [cf.key for cf, _ in corpus.classes]
    if keys != sorted(keys):
        raise VerificationFailedError("classes are not sorted by key")
    known = KNOWN_REGULAR_CLASSES[corpus.n]
    if len(corpus.classes) != known:
        raise VerificationFailedError(
            f"expected {known} classes at order {corpus.n}, "
            f"got {len(corpus.classes)}")
    orbit_sum = sum(
        math.factorial(corpus.n) // automorphism_count(rep)
        for _, rep in corpus.classes)
    if orbit_sum != corpus.labeled_count:
        raise VerificationFailedError(
            f"labeled count {corpus.labeled_count} fails orbit counting "
            f"(sum n!/|Aut| = {orbit_sum})")


def load_or_enumerate(n: int, path: str | os.PathLike[str],
                      **kwargs) -> EnumCorpus:
    """Read and verify a cached corpus if the file exists, else enumerate
    and write it."""
    if os.path.exists(path):
        corpus = read_corpus(path)
        if corpus.n != n:
            raise CorpusMissingError(
                f"cached corpus at {path} is for a different run")
        verify_corpus(corpus)
        return corpus
    corpus = enumerate_regular(n, **kwargs)
    write_corpus(corpus, path)
    return corpus
