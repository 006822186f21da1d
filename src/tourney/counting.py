"""Cycle and strong-subtournament counting.

Two independent routes everywhere: closed formulas driven by degrees and
arc intersection profiles, and brute-force oracles that walk subsets or
paths.  Tests hold the routes equal; production callers get the formulas.

Quantities, for a tournament of order n:

  c_m   number of directed m-cycles (m in {3, 4, 5} has a formula)
  s_m   number of m-subsets inducing a strong subtournament
  w_m   number of m-subsets whose induced subtournament has neither a
        sink nor a source; w_m = s_m for m in {3, 4, 5}
  tr_m  trace of the m-th power of the adjacency matrix; tr_m = m * c_m
        for m in {3, 4, 5} and tr_1 = tr_2 = 0

Each route keeps its tables for the last tournament, built on its first
call and kept, keyed by (n, out_rows), for the next calls on an equal
tournament.
Every numpy table the package caches, one per tournament as here or
one per order, is built under _table, which marks its arrays read-only
before the cache shares them: no caller may write to a cached table.

  formula  _arc_profiles: the out-degrees and the four intersection
           counts of every arc, from one product A A^T, where A is the
           0/1 adjacency matrix; _histograms: the bincount histograms of
           the out-degrees, the in-degrees, dpp and dpm
  oracle   _union_tables: the OR of the out-rows (in-rows) over every
           vertex set; _cycle_counts and _strong_counts: c_k and s_k
           for every k up to a depth d, each from one pass, keyed by
           the tournament and d
  trace    _adjacency_powers: A and A^2

A formula report thus forms A A^T once, an oracle report walks the
paths once and runs the closure pass once, and a trace report forms A^2
once.  For an arc i -> j with out-degrees d, dpp = |N+(i) & N+(j)| =
(A A^T)[i, j], and the other three intersection counts of the arc
follow from the degrees:

  dpm = |N+(i) & N-(j)| = d_i - 1 - dpp
  dmp = |N-(i) & N+(j)| = d_j - dpp
  dmm = |N-(i) & N-(j)| = n - 1 - d_i - d_j + dpp

so that, with in_i = n - 1 - d_i and sums over vertices and arcs,

  c4  = C(n, 4) - sum C(in_i, 3) - sum C(d_i, 3) + sum_arcs C(dpp, 2)
  w_m = C(n, m) - sum C(d_i, m-1) - sum C(in_i, m-1) + sum_arcs C(dpm, m-2)

Every binomial sum is a Python-int sum over a histogram of its int64
arguments, so it is exact where an int64 sum would overflow (w_32 at
order 64).  The 5-cycle formula accumulates, over all arcs, a quartic
form in the four intersection counts, and the total plus six times
binomial(n, 5) is divisible by 8; _exact_div, which checks every exact
division of the package, raises InternalParityError when it is not.

The oracles, for orders up to ORACLE_MAX_ORDER, apply the definitions to
every candidate, as numpy passes over int64 vertex bitmasks.  The cycle
and the strong-subset oracle answer an m <= n from one pass to the depth
d = min(max(m, 5), n), which counts every order up to d at once, so c3,
c4 and c5 (s3, s4 and s5) share one pass:

  oracle_strong_subs  every vertex mask of size 1..d, a prefix of the
                      per-order table _masks_by_size of all 2^n masks
                      sorted by size; the forward and the backward
                      closure of its lowest vertex, d - 1 gather rounds
                      over a table of the OR of the out-rows (in-rows) of
                      every vertex set, must both cover the subset; the
                      strong masks, counted by size, give s_1..s_d
  oracle_w            every m-subset mask, a slice of the same table; no
                      member has 0 or m - 1 out-arcs inside it
  oracle_cycles       every simple path that starts at its smallest vertex
                      and steps to larger ones, grown one level at a time
                      to d vertices; after k - 1 steps a path whose end
                      has an arc back to its start closes a k-cycle,
                      counted once

They read only the out-rows and in-masks of the tournament, and share no
helper with the formulas (no degrees, no A A^T, no _arc_profiles) or
with trace_m (no matrix powers), so an agreement of two routes is a
check of each.  No route reads another route's table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, wraps
from math import comb
from typing import Callable, Sequence

from .core import Tournament
from .errors import InternalParityError, InvalidInput
from .io import _decimal, _echo, _int_in_range

ORACLE_MAX_ORDER = 12
TRACE_MAX_M = 1024


def scores(t: Tournament) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(out-degree list, in-degree list) in vertex order."""
    outs = tuple(r.bit_count() for r in t.out_rows)
    ins = tuple(t.n - 1 - o for o in outs)
    return outs, ins


@dataclass(frozen=True)
class ArcIntersection:
    """Intersection counts of the neighbourhoods of an arc (i, j):
    dpp = |N+(i) & N+(j)|, dmm = |N-(i) & N-(j)|,
    dpm = |N+(i) & N-(j)|, dmp = |N-(i) & N+(j)|.
    They always sum to n - 2."""

    dpp: int
    dmm: int
    dpm: int
    dmp: int


def arc_intersections(t: Tournament, i: int, j: int) -> ArcIntersection:
    if not (0 <= i < t.n and 0 <= j < t.n):
        raise InvalidInput(f"arc ends must lie in 0..{t.n - 1}")
    if not t.has_arc(i, j):
        raise InvalidInput(f"({i}, {j}) is not an arc")
    oi, oj = t.out_rows[i], t.out_rows[j]
    mi, mj = t.in_mask(i), t.in_mask(j)
    return ArcIntersection(
        dpp=(oi & oj).bit_count(),
        dmm=(mi & mj).bit_count(),
        dpm=(oi & mj).bit_count(),
        dmp=(mi & oj).bit_count(),
    )


def _c3_within(t: Tournament, mask: int) -> int:
    """3-cycles of the subtournament induced on a vertex mask."""
    rows = t.out_rows
    k = mask.bit_count()
    pairs = 0  # twice the sum of C(out-degree inside the mask, 2)
    m = mask
    while m:
        low = m & -m
        d = (rows[low.bit_length() - 1] & mask).bit_count()
        pairs += d * (d - 1)
        m ^= low
    return k * (k - 1) * (k - 2) // 6 - pairs // 2


def c3_formula(t: Tournament) -> int:
    """3-cycles: binomial(n, 3) minus one transitive triple per vertex pair
    in a common out-neighbourhood."""
    return _c3_within(t, t.full_mask())


def _row_bits(rows, n: int):
    """The 0/1 int64 array of shape (*rows.shape, n) whose last axis
    holds bits 0..n-1 of each out-row mask in rows, an array or nested
    sequence of non-negative ints: for the n out-rows of a tournament,
    its adjacency matrix, A[i, j] = 1 exactly when i -> j.  The rows are
    shifted as uint64, which holds bit 63 at order 64.  This is the
    package's one unpack of out-rows into arrays."""
    import numpy as np

    rows = np.asarray(rows, dtype=np.uint64)
    bits = rows[..., None] >> np.arange(n, dtype=np.uint64)
    bits &= np.uint64(1)
    return bits.view(np.int64)  # 0 and 1 read the same in both types


def _table(maxsize: int | None) -> Callable[[Callable], Callable]:
    """lru_cache(maxsize) for a builder of numpy tables, which returns
    one array or a tuple of arrays.  Each array is marked read-only
    before it is cached, since every later call with equal arguments
    shares it; this is the package's one place that sets the flag.  A
    cache hit returns the frozen result without running the builder or
    the freeze, and cache_info and cache_clear work as on any
    lru_cache.  Per-tournament tables use maxsize=1, per-order ones
    maxsize=None."""
    def decorate(build: Callable) -> Callable:
        @lru_cache(maxsize)
        @wraps(build)
        def frozen(*args):
            tables = build(*args)
            for x in tables if isinstance(tables, tuple) else (tables,):
                x.setflags(write=False)
            return tables
        return frozen
    return decorate


def _exact_div(num: int, den: int) -> int:
    """num // den, or InternalParityError when den does not divide num:
    the package's one check of a division that must be exact."""
    q, r = divmod(num, den)
    if r:
        raise InternalParityError(f"{num} not divisible by {den}")
    return q


def _binomial_sum(hist: Sequence[int], r: int) -> int:
    """sum of C(x, r) over values with histogram hist (hist[x] values
    equal x), as a Python int: sum over x of hist[x] * C(x, r), which no
    int64 sum can overflow."""
    return sum(h * comb(x, r) for x, h in enumerate(hist) if h)


@_table(maxsize=1)
def _arc_profiles(t: Tournament):
    """(d, dpp, dmm, dpm, dmp) as int64 arrays: the out-degrees,
    and the four intersection counts of each arc i -> j in row-major
    order, from dpp = (A A^T)[i, j] and the degree identities.  The
    product stays in int64: a float64 one would be exact and faster,
    but it would be the only BLAS call of a single-tournament script,
    and OpenBLAS's buffers cost more resident memory than its time is
    worth.  The last result is kept, keyed by (n, out_rows), for the
    next formula call on an equal tournament."""
    import numpy as np

    a = _row_bits(t.out_rows, t.n)
    d = a.sum(axis=1)
    i, j = np.nonzero(a)
    dpp = (a @ a.T)[i, j]
    return (d, dpp, t.n - 1 - d[i] - d[j] + dpp, d[i] - 1 - dpp,
            d[j] - dpp)


@lru_cache(maxsize=1)
def _histograms(t: Tournament) -> tuple[tuple[int, ...], ...]:
    """The histograms, as tuples of Python ints, of the out-degrees, the
    in-degrees n - 1 - d, and the dpp and dpm of every arc: everything
    the binomial sums of c4_formula and w_formula read.  The last result
    is kept, like _arc_profiles', for the next formula call."""
    import numpy as np

    d, dpp, _, dpm, _ = _arc_profiles(t)
    return tuple(tuple(np.bincount(x).tolist())
                 for x in (d, t.n - 1 - d, dpp, dpm))


def c4_formula(t: Tournament) -> int:
    """4-cycles: binomial(n, 4) - sum_i C(in_deg(i), 3) - sum_i c3(N+(i)).

    c3(N+(i)) is C(d_i, 3) less, for each arc i -> j, the C(dpp, 2)
    transitive triples in N+(i) whose source is j, so
    c4 = C(n, 4) - sum_i C(in_i, 3) - sum_i C(d_i, 3) + sum_arcs C(dpp, 2)
    with dpp = (A A^T)[i, j].
    """
    outs, ins, dpp, _ = _histograms(t)
    return (comb(t.n, 4) - _binomial_sum(ins, 3) - _binomial_sum(outs, 3)
            + _binomial_sum(dpp, 2))


def _c5_arc_terms(t: Tournament):
    """c5_formula's per-arc term 2 s1 s2 - s2 d1^2 - s1 d2^2, int64 in
    the arc order of _arc_profiles, with s1 = dpp + dmm, s2 = dpm + dmp,
    d1 = dpp - dmm and d2 = dpm - dmp.  As s1 + s2 = n - 2, a term is at
    most s1 s2 (s1 + s2 + 2) < 2^16 in size."""
    _, dpp, dmm, dpm, dmp = _arc_profiles(t)
    s1, s2, d1, d2 = dpp + dmm, dpm + dmp, dpp - dmm, dpm - dmp
    return 2 * s1 * s2 - s2 * d1 * d1 - s1 * d2 * d2


def c5_formula(t: Tournament) -> int:
    """5-cycles by the Komarov-Mackey per-arc formula: 8 c5 = 6 C(n, 5)
    plus the sum of _c5_arc_terms, which is exact in int64 as there are
    fewer than 2^11 arcs."""
    return _exact_div(6 * comb(t.n, 5) + int(_c5_arc_terms(t).sum()), 8)


def w_formula(t: Tournament, m: int) -> int:
    """m-subsets with neither sink nor source:
    C(n, m) - sum_i C(in_deg(i), m-1) - sum_i C(out_deg(i), m-1)
    + sum over arcs i -> j of C(dpm, m-2), where
    dpm = |N+(i) & N-(j)| = d_i - 1 - (A A^T)[i, j].
    Returns 0 for m > n."""
    if not _int_in_range(m, "m", 3):
        raise InvalidInput(f"w_m needs m >= 3, got {m}")
    n = t.n
    if m > n:
        return 0
    outs, ins, _, dpm = _histograms(t)
    return (comb(n, m) - _binomial_sum(outs, m - 1)
            - _binomial_sum(ins, m - 1) + _binomial_sum(dpm, m - 2))


def s_formula(t: Tournament, m: int) -> int:
    """Strong m-subsets by formula, valid for m in {3, 4, 5} where every
    sink-free and source-free subtournament of that order is strong."""
    if not _int_in_range(m, "m", 3, 5):
        raise InvalidInput(f"the strong-subset formula holds only for m in"
                           f" {{3, 4, 5}}, got {m}")
    return w_formula(t, m)


def s5_formula(t: Tournament) -> int:
    """Strong 5-subsets (the m = 5 case of the subset formula)."""
    return w_formula(t, 5)


@_table(maxsize=1)
def _adjacency_powers(t: Tournament):
    """(A, A^2) as int64 arrays.  The last result is kept, keyed by
    (n, out_rows), for the next trace call on an equal tournament."""
    a = _row_bits(t.out_rows, t.n)
    return a, a @ a


def trace_m(t: Tournament, m: int) -> int:
    """Trace of the m-th adjacency power: closed walks of length m.

    One split for every m: with p = m // 2 and q = m - p,
    tr(A^m) = sum over i, j of (A^p)[i, j] (A^q)[j, i], the entrywise
    product of A^p with the transpose of A^q, where A^q is A^p or
    A^(p+1).  Both come from the cached A and A^2: A^p is
    (A^2)^(p // 2), times A when p is odd, and A^(p+1) is A^p A, or A^2
    itself when p = 1.  So tr3 and tr4 need no product beyond A^2 and
    tr5 one, A^2 A, and no power is formed in full for the final step.

    Exact for 1 <= m <= TRACE_MAX_M.  numpy works in int64 when
    n**m < 2**62 and in Python ints (object dtype) otherwise.  Every
    entry of A^p and A^q is at most n**m, and every summand and every
    partial sum of the trace is a non-negative part of tr(A^m) <= n**m,
    so the int64 route cannot overflow.  The cap bounds the work:
    entries grow to about m log2(n) bits, and m = TRACE_MAX_M at n = 64
    takes seconds.
    """
    if not _int_in_range(m, "m", 1, TRACE_MAX_M):
        raise InvalidInput(f"trace needs 1 <= m <= {TRACE_MAX_M}, got {m}")
    import numpy as np

    a, a2 = _adjacency_powers(t)
    if t.n ** m >= 1 << 62:
        a, a2 = a.astype(object), a2.astype(object)
    p = m // 2
    if p == 0:  # tr(A): A has no loops
        return int(a.trace())
    if p == 1:
        ap = a
    else:
        ap = np.linalg.matrix_power(a2, p // 2)
        if p % 2:
            ap = ap @ a
    if m - p == p:
        aq = ap
    else:
        aq = a2 if p == 1 else ap @ a
    return int((ap * aq.T).sum())


# -- oracles -----------------------------------------------------------------

def _check_oracle_order(t: Tournament) -> None:
    if t.n > ORACLE_MAX_ORDER:
        raise InvalidInput(
            f"oracles are capped at order {ORACLE_MAX_ORDER}, got {t.n}")


@_table(maxsize=None)
def _subset_sizes():
    """sizes[S] = |S| for every vertex mask S below 2^ORACLE_MAX_ORDER,
    as an int64 table built one vertex at a time."""
    import numpy as np

    sizes = np.zeros(1 << ORACLE_MAX_ORDER, dtype=np.int64)
    for k in range(ORACLE_MAX_ORDER):
        sizes[1 << k:2 << k] = sizes[:1 << k] + 1
    return sizes


@_table(maxsize=None)
def _masks_by_size(n: int):
    """(masks, starts): every vertex mask of the vertices 0..n-1 as an
    int64 array sorted by size, in increasing order within a size, and
    the int64 offsets at which the sizes 0..n+1 start, so the m-subsets
    are masks[starts[m]:starts[m + 1]].  Callers keep n <=
    ORACLE_MAX_ORDER."""
    import numpy as np

    sizes = _subset_sizes()[:1 << n]
    masks = np.argsort(sizes, kind="stable").astype(np.int64)
    starts = np.searchsorted(sizes[masks], np.arange(n + 2))
    return masks, starts.astype(np.int64)


def _union_table(rows: Sequence[int]):
    """u[S] = the OR of rows[v] over the vertices v in S, for every vertex
    mask S, built in len(rows) slice steps."""
    import numpy as np

    u = np.zeros(1 << len(rows), dtype=np.int64)
    for k, row in enumerate(rows):
        u[1 << k:2 << k] = u[:1 << k] | row
    return u


@_table(maxsize=1)
def _union_tables(t: Tournament):
    """The _union_table of the out-rows and of the in-rows of t, as int64
    arrays.  The last result is kept, keyed by (n, out_rows), for the
    next oracle call on an equal tournament."""
    return (_union_table(t.out_rows),
            _union_table([t.in_mask(v) for v in range(t.n)]))


def _pass_depth(t: Tournament, m: int) -> int:
    """The depth of the one oracle pass that answers an m <= n.  Every
    m <= 5 shares the depth-5 pass (depth n below order 5), so a
    report's c3, c4 and c5 (s3, s4 and s5) cost one pass."""
    return min(max(m, 5), t.n)


@lru_cache(maxsize=1)
def _cycle_counts(t: Tournament, d: int) -> tuple[int, ...]:
    """c_k for k = 0..d as Python ints, from one walk of every simple
    path that starts at its smallest vertex and steps to larger ones,
    one level at a time for all paths at once: after k - 1 steps, each
    path whose end has an arc back to its start closes a k-cycle,
    counted once, as a directed cycle has a single traversal direction.
    The last result is kept, keyed by (t, d), for the next call."""
    import numpy as np

    n = t.n
    rows = np.array(t.out_rows, dtype=np.int64)
    start = end = np.arange(n, dtype=np.int64)
    bit = visited = 1 << start
    above = ((1 << n) - 1) & ~(2 * bit - 1)  # above[s]: the vertices > s
    closed = [0, 0]  # no cycle has 0 or 1 vertices
    for _ in range(d - 1):
        steps = rows[end] & above[start] & ~visited
        path, end = np.nonzero(steps[:, None] & bit)
        start = start[path]
        visited = visited[path] | bit[end]
        closed.append(int(np.count_nonzero(rows[end] & bit[start])))
    return tuple(closed)


@lru_cache(maxsize=1)
def _strong_counts(t: Tournament, d: int) -> tuple[int, ...]:
    """s_k for k = 0..d as Python ints, from one closure pass over every
    vertex mask of size 1..d.  A subset is strong when the forward and
    the backward closure of its lowest vertex inside it both cover it.
    Each closure takes d - 1 rounds of reach <- (reach | union[reach]) &
    subset, where union[S] is the OR of the out-rows (in-rows) over S:
    no vertex of a k-subset is more than k - 1 steps from another inside
    it, and a round changes nothing on a closed set.  The last result is
    kept, keyed by (t, d), for the next call."""
    import numpy as np

    masks, starts = _masks_by_size(t.n)
    subsets = masks[1:starts[d + 1]]
    strong = np.ones(len(subsets), dtype=bool)
    for union in _union_tables(t):
        reach = subsets & -subsets
        for _ in range(d - 1):
            reach = (reach | union[reach]) & subsets
        strong &= reach == subsets
    sizes = _subset_sizes()[subsets[strong]]
    return tuple(np.bincount(sizes, minlength=d + 1).tolist())


def oracle_cycles(t: Tournament, m: int) -> int:
    """Directed m-cycles by walking every simple path (_cycle_counts).
    One walk to the depth _pass_depth answers every m up to it."""
    _check_oracle_order(t)
    if not _int_in_range(m, "m", 3):
        raise InvalidInput(f"cycles need m >= 3, got {m}")
    if m > t.n:
        return 0
    return _cycle_counts(t, _pass_depth(t, m))[m]


def oracle_strong_subs(t: Tournament, m: int) -> int:
    """Strong m-subsets by exhausting subsets (m = 1 counts vertices),
    by the closures of _strong_counts.  One closure pass to the depth
    _pass_depth answers every m up to it."""
    _check_oracle_order(t)
    if not _int_in_range(m, "m", 1):
        raise InvalidInput(f"subset order must be >= 1, got {m}")
    if m > t.n:
        return 0
    return _strong_counts(t, _pass_depth(t, m))[m]


def oracle_w(t: Tournament, m: int) -> int:
    """Sink-free source-free m-subsets by exhausting subsets: no member
    has 0 or m - 1 out-arcs inside the subset."""
    _check_oracle_order(t)
    if not _int_in_range(m, "m", 3):
        raise InvalidInput(f"w oracle needs m >= 3, got {m}")
    n = t.n
    if m > n:
        return 0
    import numpy as np

    masks, starts = _masks_by_size(n)
    masks = masks[starts[m]:starts[m + 1], None]
    rows = np.array(t.out_rows, dtype=np.int64)
    inside = (masks & (1 << np.arange(n, dtype=np.int64))) != 0
    degree = _subset_sizes()[rows & masks]
    extreme = inside & ((degree == 0) | (degree == m - 1))
    return int(np.count_nonzero(~extreme.any(axis=1)))


# -- reports -----------------------------------------------------------------

@dataclass(frozen=True)
class CountEntry:
    name: str
    method: str
    value: int


@dataclass(frozen=True)
class CountReport:
    """Per-quantity values with the method that produced each, plus a flag
    that every quantity computed by more than one method agreed."""

    n: int
    quantities: tuple[CountEntry, ...]
    cross_checked: bool


# the quantities named without a free order; `tourney count` reports
# all six when none is asked for
_FIXED_QUANTITIES = ("c3", "c4", "c5", "s3", "s4", "s5")


def _cycles_by_trace(t: Tournament, m: int) -> int:
    """c_m = tr_m / m for m in {3, 4, 5}, where every closed m-walk is
    an m-cycle counted once per starting vertex."""
    return _exact_div(trace_m(t, m), m)


def _routes(name: str) -> list[tuple[str, Callable[[Tournament], int]]]:
    """The (method, route) pairs that compute one quantity, in report
    order: formula, oracle, trace.  A route finds its counting function
    among this module's globals when it runs, so a wrapper installed
    there sees every call."""
    if name in _FIXED_QUANTITIES:
        m = _decimal(name[1], name)
        if name[0] == "c":
            return [("formula",
                     lambda t: (c3_formula, c4_formula, c5_formula)[m - 3](t)),
                    ("oracle", lambda t: oracle_cycles(t, m)),
                    ("trace", lambda t: _cycles_by_trace(t, m))]
        return [("formula", lambda t: s_formula(t, m)),
                ("oracle", lambda t: oracle_strong_subs(t, m))]
    suffixed = re.fullmatch(r"(w|tr)([0-9]+)", name)
    if suffixed:
        m = _decimal(suffixed[2], f"the order of {suffixed[1]}")
        if suffixed[1] == "w":
            return [("formula", lambda t: w_formula(t, m)),
                    ("oracle", lambda t: oracle_w(t, m))]
        return [("trace", lambda t: trace_m(t, m))]
    raise InvalidInput(f"unknown quantity {_echo(name)}")


def count_report(t: Tournament, names: Sequence[str],
                 method: str = "all") -> CountReport:
    """Build a CountReport for the requested quantity names.

    Names: c3 c4 c5 s3 s4 s5, wM, trM.  Methods: formula, oracle, trace,
    or all (every method applicable to the quantity).  A quantity with a
    single route (trM) is reported under every method.  Oracle and trace
    requests honour the order caps of the underlying ops; all leaves the
    oracle out above ORACLE_MAX_ORDER.
    """
    if method not in ("formula", "oracle", "trace", "all"):
        raise InvalidInput(f"unknown method {method!r}")
    entries: list[CountEntry] = []
    agree = True
    for name in names:
        routes = _routes(name)
        if len(routes) > 1:
            if method == "all" and t.n > ORACLE_MAX_ORDER:
                routes = [r for r in routes if r[0] != "oracle"]
            routes = [r for r in routes if method in (r[0], "all")]
            if not routes:
                raise InvalidInput(
                    f"method {method!r} does not apply to {name}")
        values = [CountEntry(name, how, route(t)) for how, route in routes]
        agree = agree and len({e.value for e in values}) == 1
        entries += values
    return CountReport(t.n, tuple(entries), agree)
