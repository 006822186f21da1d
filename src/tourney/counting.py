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

The 5-cycle formula accumulates, over all arcs (i, j), a quartic form in
the four intersection counts of the pair, and the total plus six times
binomial(n, 5) is divisible by 8; that parity is asserted on every call.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable, Sequence

from .core import Tournament, canonical_form
from .errors import (
    BadMError,
    InternalParityError,
    NotAnArcError,
    TooLargeError,
)

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
    if not t.has_arc(i, j):
        raise NotAnArcError(f"({i}, {j}) is not an arc")
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


def c4_formula(t: Tournament) -> int:
    """4-cycles: binomial(n, 4) - sum_i C(in_deg(i), 3) - sum_i c3(N+(i))."""
    n = t.n
    total = comb(n, 4)
    for i in range(n):
        total -= comb(t.in_degree(i), 3)
        total -= _c3_within(t, t.out_rows[i])
    return total


def c5_formula(t: Tournament) -> int:
    """5-cycles from arc intersection profiles.

    8 * c5 = 6 * C(n, 5) + sum over arcs of
      -(dpm + dmp)(dpp - dmm)^2 - (dpp + dmm)(dpm - dmp)^2
      + 2 (dpp + dmm)(dpm + dmp).
    """
    n = t.n
    full = t.full_mask()
    rows = t.out_rows
    acc = 6 * comb(n, 5)
    for i in range(n):
        oi = rows[i]
        mi = full & ~oi & ~(1 << i)
        row = oi
        while row:
            low = row & -row
            j = low.bit_length() - 1
            row ^= low
            oj = rows[j]
            mj = full & ~oj & ~(1 << j)
            dpp = (oi & oj).bit_count()
            dmm = (mi & mj).bit_count()
            dpm = (oi & mj).bit_count()
            dmp = (mi & oj).bit_count()
            s1 = dpp + dmm
            s2 = dpm + dmp
            d1 = dpp - dmm
            d2 = dpm - dmp
            acc += -s2 * d1 * d1 - s1 * d2 * d2 + 2 * s1 * s2
    if acc % 8 != 0:
        raise InternalParityError(
            f"5-cycle accumulator {acc} not divisible by 8")
    return acc // 8


def w_formula(t: Tournament, m: int) -> int:
    """m-subsets with neither sink nor source:
    C(n, m) - sum_i C(in_deg(i), m-1) - sum_i C(out_deg(i), m-1)
    + sum over arcs (i, j) of C(|N+(i) & N-(j)|, m-2).
    Returns 0 for m > n."""
    if m < 3:
        raise BadMError(f"w_m needs m >= 3, got {m}")
    n = t.n
    if m > n:
        return 0
    full = t.full_mask()
    rows = t.out_rows
    total = comb(n, m)
    for i in range(n):
        deg = rows[i].bit_count()
        total -= comb(deg, m - 1) + comb(n - 1 - deg, m - 1)
    for i in range(n):
        oi = rows[i]
        row = oi
        while row:
            low = row & -row
            j = low.bit_length() - 1
            row ^= low
            mj = full & ~rows[j] & ~(1 << j)
            total += comb((oi & mj).bit_count(), m - 2)
    return total


def s_formula(t: Tournament, m: int) -> int:
    """Strong m-subsets by formula, valid for m in {3, 4, 5} where every
    sink-free and source-free subtournament of that order is strong."""
    if m not in (3, 4, 5):
        raise BadMError(f"the strong-subset formula holds only for m in"
                        f" {{3, 4, 5}}, got {m}")
    return w_formula(t, m)


def s5_formula(t: Tournament) -> int:
    """Strong 5-subsets (the m = 5 case of the subset formula)."""
    return w_formula(t, 5)


def trace_m(t: Tournament, m: int) -> int:
    """Trace of the m-th adjacency power: closed walks of length m.

    Exact for 1 <= m <= TRACE_MAX_M.  numpy squares and multiplies in
    int64 when n**m < 2**62, which bounds every entry of every power it
    forms and the trace, and in Python ints (object dtype) otherwise.
    The cap bounds the work: entries grow to about m log2(n) bits, and
    m = TRACE_MAX_M at n = 64 takes seconds.
    """
    if m < 1 or m > TRACE_MAX_M:
        raise BadMError(f"trace needs 1 <= m <= {TRACE_MAX_M}, got {m}")
    import numpy as np

    n = t.n
    a = np.array([[(row >> j) & 1 for j in range(n)] for row in t.out_rows],
                 dtype=np.int64 if n ** m < (1 << 62) else object)
    return int(np.trace(np.linalg.matrix_power(a, m)))


# -- oracles -----------------------------------------------------------------

def _check_oracle_order(t: Tournament) -> None:
    if t.n > ORACLE_MAX_ORDER:
        raise TooLargeError(
            f"oracles are capped at order {ORACLE_MAX_ORDER}, got {t.n}")


def oracle_cycles(t: Tournament, m: int) -> int:
    """Directed m-cycles by DFS.  Each cycle is counted exactly once: the
    walk starts at the cycle's smallest vertex and only visits larger
    ones, and a directed cycle has a single traversal direction."""
    _check_oracle_order(t)
    if m < 3:
        raise BadMError(f"cycles need m >= 3, got {m}")
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


def oracle_strong_subs(t: Tournament, m: int) -> int:
    """Strong m-subsets by exhausting subsets (m = 1 counts vertices)."""
    _check_oracle_order(t)
    if m < 1:
        raise BadMError(f"subset order must be >= 1, got {m}")
    n = t.n
    if m > n:
        return 0
    if m == 1:
        return n
    if m == 2:
        return 0
    rows = t.out_rows
    count = 0
    for combo in combinations(range(n), m):
        mask = 0
        for v in combo:
            mask |= 1 << v
        if _strong_within(rows, mask):
            count += 1
    return count


def oracle_w(t: Tournament, m: int) -> int:
    """Sink-free source-free m-subsets by exhausting subsets."""
    _check_oracle_order(t)
    if m < 3:
        raise BadMError(f"w oracle needs m >= 3, got {m}")
    n = t.n
    if m > n:
        return 0
    rows = t.out_rows
    count = 0
    for combo in combinations(range(n), m):
        mask = 0
        for v in combo:
            mask |= 1 << v
        ok = True
        for v in combo:
            d = (rows[v] & mask).bit_count()
            if d == 0 or d == m - 1:
                ok = False
                break
        if ok:
            count += 1
    return count


def count_copies(t: Tournament, pattern: Tournament) -> int:
    """Subtournaments isomorphic to a pattern, by canonical-key comparison
    of every induced subset of the pattern's order."""
    _check_oracle_order(t)
    m = pattern.n
    if m > t.n:
        return 0
    target = canonical_form(pattern).key
    from .core import induced  # local import keeps module top minimal

    count = 0
    for combo in combinations(range(t.n), m):
        sub = induced(t, combo)
        if canonical_form(sub).key == target:
            count += 1
    return count


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
    tr = trace_m(t, m)
    if tr % m != 0:
        raise InternalParityError(f"trace {tr} not divisible by {m}")
    return tr // m


def _routes(name: str) -> list[tuple[str, Callable[[Tournament], int]]]:
    """The (method, route) pairs that compute one quantity, in report
    order: formula, oracle, trace.  A route finds its counting function
    among this module's globals when it runs, so a wrapper installed
    there sees every call."""
    if name in _FIXED_QUANTITIES:
        m = int(name[1])
        if name[0] == "c":
            return [("formula",
                     lambda t: (c3_formula, c4_formula, c5_formula)[m - 3](t)),
                    ("oracle", lambda t: oracle_cycles(t, m)),
                    ("trace", lambda t: _cycles_by_trace(t, m))]
        return [("formula", lambda t: s_formula(t, m)),
                ("oracle", lambda t: oracle_strong_subs(t, m))]
    # ASCII digits only, the rule of io._decimal; str.isdigit also
    # takes "²" and "٣"
    suffixed = re.fullmatch(r"(w|tr)([0-9]+)", name)
    if suffixed:
        try:
            m = int(suffixed[2])
        except ValueError:  # longer than the interpreter's int-string limit
            raise BadMError(f"the order of {suffixed[1]} has too many digits "
                            f"({len(suffixed[2])})") from None
        if suffixed[1] == "w":
            return [("formula", lambda t: w_formula(t, m)),
                    ("oracle", lambda t: oracle_w(t, m))]
        return [("trace", lambda t: trace_m(t, m))]
    raise BadMError(f"unknown quantity {name!r}")


def count_report(t: Tournament, names: Sequence[str],
                 method: str = "all") -> CountReport:
    """Build a CountReport for the requested quantity names.

    Names: c3 c4 c5 s3 s4 s5, wM, trM.  Methods: formula, oracle, trace,
    or all (every method applicable to the quantity).  A quantity with a
    single route (trM) is reported under every method.  Oracle and trace
    requests honour the order caps of the underlying ops.
    """
    if method not in ("formula", "oracle", "trace", "all"):
        raise BadMError(f"unknown method {method!r}")
    entries: list[CountEntry] = []
    agree = True
    for name in names:
        routes = _routes(name)
        if len(routes) > 1:
            routes = [r for r in routes if method in (r[0], "all")]
            if not routes:
                raise BadMError(f"method {method!r} does not apply to {name}")
        values = [CountEntry(name, how, route(t)) for how, route in routes]
        agree = agree and len({e.value for e in values}) == 1
        entries += values
    return CountReport(t.n, tuple(entries), agree)
