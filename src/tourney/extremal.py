"""Extremal values: exact bounds, closed forms, and the exhaustive
verification drivers that check them.

All bound values are exact rationals (fractions.Fraction); observed
counts are integers.  The closed forms below are polynomial identities
for the flagship families:

  c5_max_bound(n)       (n+1) n (n-1)(n-2)(n-3) / 160, the global upper
                        bound for the 5-cycle count of any n-tournament,
                        n odd; equals the expected count at order n + 1
  c5_regular_max(n)     n (n-1)(n^3 - 4 n^2 + n - 14) / 160, the maximum
                        over regular tournaments when n = 1 (mod 4)
  s5_of_rlt, c5_of_rlt  strong-5-subset and 5-cycle counts of RLT_n
  s5_of_dr, s5_of_ndr   strong-5-subset counts of the doubly regular and
                        nearly doubly regular families
  regular_identity      c5 + 2 c4 = n (n-1)(n+1)(n-3)(n+3) / 160 for any
                        regular tournament, with an equivalent trace form
  binomial_sum_min      min of sum C(d_i, p) over non-decreasing
                        non-negative sequences with the tournament total
                        n (n-1)/2; attained at the balanced sequence

verify_c5_max finds the maxima of c5 and s5 over every tournament of
order 5 or 7 and pins down their maximizers up to isomorphism;
verify_regular9 verifies and audits the order-9 regular corpus.  Both
raise VerificationFailedError the moment a claimed fact fails.

verify_c5_max runs one reducer, _extremes, over two routes that add one
vertex to the tournaments of order n - 1, each as out-rows:

  labeled sweep  a weighted thirty-second of the labeled tournaments
                 of order n - 1 (a sixteenth at n = 5) from
                 _labeled_batches, whose docstring argues that their
                 extensions stand for all 2^C(n,2)
  class scan     the out-rows of every class rep R of order n - 1 from
                 the class engine (enumeration._classes), weighted by
                 R's orbit (n-1)!/|Aut R|; each extension stands for
                 that many labeled tournaments, one to one (the weight
                 argument in enumeration's docstring)

Both give (mass, regular mass, max c5, c5 witness mass, max s5, s5
witness mass), and the two must agree.  _extremes scores each route in
slices of at most _SWEEP_BATCH bases: at order 7 the scan's 56 reps, one
block, in one slice of 3,584 extensions and the sweep's 65,536 in 4,
which stand for the 2,097,152 labeled tournaments; at order 5 the sweep
scores 64 in one.  The scan's maximizing extensions, weighted
by orbit, then go to certified_classes in one block per slice,
and their classes must add up to the labeled witness mass: 1 and 5
extensions at order 7 for 240 and 2,640 labeled maximizers of c5 and
s5, 3 and 32 at order 5 for 40 and 544.  The sweep keeps no maximizers;
it only counts their mass.

Both routes score their extensions with one kernel, _extension_batch,
on blocks of out-rows, which it unpacks by the one shared unpack,
counting._row_bits.  Only the scan's argmax hits become the out-rows
of order n, by enumeration._extend.
With A the adjacency of vertices 1..n-1, s the 0/1 out-set of vertex 0
and u = 1 - s, the order-n tournament is T = [[0, s^T], [u, A]], and

  c5(T) = tr(A^5)/5 + s^T A^3 u   a closed 5-walk in a tournament never
                                  repeats a vertex, so each one through
                                  vertex 0 is a 5-cycle leaving along s
                                  and returning along u
  (T^2)_ij = A^2_ij + u_i s_j     for old i, j; (T^2)_0j = (s^T A)_j and
                                  (T^2)_i0 = (A u)_i
  out-degrees                     deg_A + u on the old vertices, |s| on 0

The strong-5-subset count s5 = C(n,5) - sum C(out,4) - sum C(in,4) +
sum over arcs i -> j of C((T^2)_ij, 3) then takes its arc term as

  sum A o C(A^2, 3) + u^T (A o C(A^2, 2)) s
    + sum_i u_i C((A u)_i, 3) + sum_j s_j C((s^T A)_j, 3)

by C(x + 1, 3) = C(x, 3) + C(x, 2), where o is the entrywise product.
The two out-set terms are cut forms s^T X u: X = A^3 for c5 and
X = (A o C(A^2, 2))^T for the arcs, as u^T Y s = s^T Y^T u.  _cut_forms
takes each over all 2^(n-1) out-sets as one product vec(X) . vec(s u^T)
in float64, the one place where a counted value passes through a float;
it reads the weights vec(s u^T) from _outsets(n - 1), which builds the
out-set tables once per order.
It is exact because every term and partial sum is a non-negative
integer below 2^53: the sum has (n-1)^2 terms of at most (n-1)^3 each,
so it stays below (n-1)^5 < 64^5 = 2^30 for any order the package
admits.
Besides C(n,5), vertex 0's degree terms and the arcs among old
vertices, s5 splits into one share per old vertex i,
C(p_i, 3) - C(out_i, 4) - C(n - 1 - out_i, 4) with p_i the 2-paths along
i's arc with vertex 0.  In A, vertex i has deg_i = n - 2 - |in_i|, where
in_i is its in-mask (bit k set when k -> i), so the share depends only
on i, in_i and s.  _vertex_table(n) lists it once per order, from
_outsets(n - 1)'s masks, bits and sizes, as
F[i, in_i, s], 6 * 64 * 64 int64 entries (192 KiB) at n = 7, and a
batch reads the shares of its extensions from the rows F[i, in_i]
instead of computing a degree and a path count for each one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .core import CanonicalForm, Tournament
from .counting import (_arc_profiles, _c5_arc_terms, _exact_div, _row_bits,
                       _table, c4_formula, c5_formula, s5_formula, trace_m)
from .classify import (is_doubly_regular, is_nearly_doubly_regular,
                       is_regular, tournaments_with_scores)
from .enumeration import (EnumCorpus, _binomials, _check_deadline, _classes,
                          _deadline, _extend, certified_classes,
                          verify_corpus)
from .errors import (InternalParityError, InvalidInput,
                     VerificationFailedError)

if TYPE_CHECKING:
    import numpy as np


def _require_odd(n: int, least: int) -> None:
    if n % 2 == 0 or n < least:
        raise InvalidInput(f"need odd n >= {least}, got {n}")


def c5_max_bound(n: int) -> Fraction:
    """Upper bound for the 5-cycle count of any tournament of odd order n:
    (n+1) n (n-1)(n-2)(n-3) / 160.  Attained exactly by the doubly regular
    tournaments (n = 3 mod 4); strict otherwise.

    It holds at every odd n by _bound_terms' certificate, terms >= 0
    that add up to 8 (bound - c5).  The tests check the sum and that the
    terms all vanish exactly on the doubly regular tournaments, on every
    class of orders 5 and 7, the regular classes of orders 9 and 11,
    QR_p, RLT_n and random tournaments up to order 63 (TestCertificates);
    verify_c5_max certifies its witnesses by it."""
    _require_odd(n, 5)
    return Fraction((n + 1) * n * (n - 1) * (n - 2) * (n - 3), 160)


def c5_regular_max(n: int) -> int:
    """Maximum 5-cycle count over regular tournaments of order
    n = 1 (mod 4): n (n-1)(n^3 - 4 n^2 + n - 14) / 160.

    It holds by _regular_terms' certificate, terms >= 0 that add up to
    4 (bound - c5) and vanish on the nearly doubly regular tournaments;
    verify_regular9 checks it at order 9, and TestCertificates on
    regular tournaments of every such order up to 61."""
    _require_odd(n, 5)
    if n % 4 != 1:
        raise InvalidInput(f"need n = 1 (mod 4), got {n}")
    return _exact_div(n * (n - 1) * (n ** 3 - 4 * n * n + n - 14), 160)


def s5_of_rlt(n: int) -> int:
    """(n+1) n (n-1)(n-3)(11 n - 47) / 1920, the strong-5-subset count of
    RLT_n, and the maximum over all tournaments of order n by
    _bound_terms' certificate, terms >= 0 that add up to s5_of_rlt(n) -
    s5; TestCertificates and verify_c5_max check it as for c5_max_bound."""
    _require_odd(n, 3)
    return _exact_div((n + 1) * n * (n - 1) * (n - 3) * (11 * n - 47), 1920)


def c5_of_rlt(n: int) -> int:
    """(n+1) n (n-1)(n-3)(3 n - 11) / 480, the 5-cycle count of RLT_n and
    the least over regular tournaments, by per-vertex terms >= 0 that
    TestCertificates::test_c5_above_rlt_on_regular_classes checks."""
    _require_odd(n, 3)
    return _exact_div((n + 1) * n * (n - 1) * (n - 3) * (3 * n - 11), 480)


def s5_of_dr(n: int) -> int:
    """n (n+1)(n-1)(n-3)(17 n - 59) / 3840, the strong-5-subset count of
    any doubly regular tournament (n = 3 mod 4): TestFamiliesToTheBitmaskCap
    checks it on QR_p and gen_qr_power(3, 3).  Nothing yet certifies it as
    the minimum over regular tournaments of such orders, which needs a
    certificate by the tangent of C(dpm, 3) at (n-3)/4, not built."""
    _require_odd(n, 3)
    if n % 4 != 3:
        raise InvalidInput(f"need n = 3 (mod 4), got {n}")
    return _exact_div(n * (n + 1) * (n - 1) * (n - 3) * (17 * n - 59), 3840)


def s5_of_ndr(n: int) -> int:
    """n (n-1)(17 n^3 - 93 n^2 + 127 n - 243) / 3840, the strong-5-subset
    count of any nearly doubly regular tournament (n = 1 mod 4), and the
    minimum over regular tournaments by _regular_terms' certificate j,
    which TestCertificates checks up to order 61 and verify_regular9 at 9."""
    _require_odd(n, 5)
    if n % 4 != 1:
        raise InvalidInput(f"need n = 1 (mod 4), got {n}")
    return _exact_div(
        n * (n - 1) * (17 * n ** 3 - 93 * n * n + 127 * n - 243), 3840)


def rlt5_copies_in_rlt(n: int) -> int:
    """(n+3)(n+1) n (n-1)(n-3) / 1920: subtournaments of RLT_n isomorphic
    to RLT_5."""
    _require_odd(n, 3)
    return _exact_div((n + 3) * (n + 1) * n * (n - 1) * (n - 3), 1920)


def delta_tt3_copies_in_rlt(n: int) -> int:
    """(n+1) n (n-1)(n-3)(n-5) / 384: subtournaments of RLT_n isomorphic
    to the 3-cycle with one vertex blown up into TT_3 (delta_o_tt3_o)."""
    _require_odd(n, 3)
    return _exact_div((n + 1) * n * (n - 1) * (n - 3) * (n - 5), 384)


def expected_cycles(n: int, m: int) -> Fraction:
    """Expected m-cycle count of a uniform random n-tournament:
    falling_factorial(n, m) / (m 2^m)."""
    if m < 3 or n < 0:
        raise InvalidInput(f"need m >= 3 and n >= 0, got n={n}, m={m}")
    ff = 1
    for k in range(m):
        ff *= n - k
    return Fraction(max(ff, 0), m * (1 << m))


def regular_identity(t: Tournament) -> tuple[int, int]:
    """(c5 + 2 c4, n (n-1)(n+1)(n-3)(n+3) / 160) for a regular
    tournament; the two are equal."""
    if not is_regular(t):
        raise InvalidInput("the c5 + 2 c4 identity needs a regular tournament")
    n = t.n
    lhs = c5_formula(t) + 2 * c4_formula(t)
    rhs = _exact_div(n * (n - 1) * (n + 1) * (n - 3) * (n + 3), 160)
    return lhs, rhs


def regular_identity_trace(t: Tournament) -> tuple[Fraction, Fraction]:
    """Trace form of the same identity:
    tr5 + (5/2) tr4 = n (n-1)(n+1)(n-3)(n+3) / 32."""
    if not is_regular(t):
        raise InvalidInput("the trace identity needs a regular tournament")
    n = t.n
    lhs = Fraction(trace_m(t, 5)) + Fraction(5, 2) * trace_m(t, 4)
    rhs = Fraction(n * (n - 1) * (n + 1) * (n - 3) * (n + 3), 32)
    return lhs, rhs


# -- per-tournament certificates ---------------------------------------------

def _bound_terms(t: Tournament) -> tuple[np.ndarray, np.ndarray]:
    """(g, p) for t of odd order n, int64 terms, each >= 0, that add up to
    8 (c5_max_bound(n) - c5) and s5_of_rlt(n) - s5.  g is c5_formula's
    per-arc term _c5_arc_terms subtracted from (n-2)(n-3)/2, at least
    (s1 - s2)(s1 - s2 - (-1)^s2)/2 as d1 = s1, d2 = s2 (mod 2) and
    s1 + s2 = n - 2 is odd.  p is C(d_i, 4) - sum over j in
    N+(i) of C(dpm_ij, 3) per vertex, as no 4-subset of N+(i) has two
    sinks, and last Q = sum C(in_i, 4) - n C((n-1)/2, 4), as C(x, 4) is
    convex and the in-degrees average (n-1)/2."""
    import numpy as np

    n = t.n
    d, _, _, dpm, _ = _arc_profiles(t)
    g = (n - 2) * (n - 3) // 2 - _c5_arc_terms(t)
    _, c3, c4 = _binomials(n)
    p = c4[d]  # a gather, so not the cached table
    np.subtract.at(p, np.repeat(np.arange(n), d), c3[dpm])
    q = int(c4[n - 1 - d].sum()) - n * comb((n - 1) // 2, 4)
    return g, np.append(p, q)


def _regular_terms(t: Tournament) -> tuple[np.ndarray, np.ndarray]:
    """(e, j) for a regular t of order n = 1 (mod 4), per-arc int64 terms,
    each >= 0, that add up to 4 (c5_regular_max(n) - c5) and
    s5 - s5_of_ndr(n): e = (2 dpp - (n-3)/2)^2 - 1, an odd number squared
    less 1, and j = C(dpm, 3) less its chord through lo = (n-5)/4 and
    lo + 1, as C(x, 3) is convex on the integers x >= 0."""
    n = t.n
    _, dpp, _, dpm, _ = _arc_profiles(t)
    _, c3, _ = _binomials(n)
    lo = (n - 5) // 4
    e = (2 * dpp - (n - 3) // 2) ** 2 - 1
    return e, c3[dpm] - comb(lo, 3) - (dpm - lo) * comb(lo, 2)


def _check_terms(terms: np.ndarray, gap: int | Fraction, what: str) -> None:
    """Raise VerificationFailedError unless terms are >= 0, summing to gap."""
    if terms.min() < 0 or int(terms.sum()) != gap:
        raise VerificationFailedError(
            f"{what}: certificate terms add up to {int(terms.sum())}, least "
            f"{terms.min()}, want {gap} with none below 0")


# -- reports -----------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """One bound against its observed extremum.  Witnesses are canonical
    keys (hex) of the classes attaining the observed value, or sequence
    strings for the score-sequence minimization."""

    bound_name: str
    n: int
    bound_value: Fraction
    observed: int
    tight: bool
    witnesses: tuple[str, ...]


@dataclass(frozen=True)
class MinimizationReport:
    """Result of the exhaustive score-sequence minimization."""

    bound: BoundReport
    p: int
    balanced: tuple[int, ...]
    unique_minimizer: bool
    within_uniqueness_range: bool


@dataclass(frozen=True)
class SweepExtremes:
    """Extremes of every tournament of order n, on which verify_c5_max's
    two routes, the labeled sweep and the class scan, agree;
    total_codes and regular_codes count labeled tournaments, all
    2^C(n,2) of them."""

    n: int
    total_codes: int
    regular_codes: int
    c5: BoundReport
    s5: BoundReport


# -- score-sequence minimization ---------------------------------------------

def balanced_sequence(n: int) -> tuple[int, ...]:
    """The non-decreasing degree sequence closest to uniform with total
    n (n-1)/2: all (n-1)/2 for odd n, half n/2-1 and half n/2 for even."""
    if n < 1:
        raise InvalidInput(f"need n >= 1, got {n}")
    if n % 2 == 1:
        return ((n - 1) // 2,) * n
    return (n // 2 - 1,) * (n // 2) + (n // 2,) * (n // 2)


def binomial_sum_min(n: int, p: int) -> int:
    """min sum C(d_i, p) over non-decreasing non-negative sequences with
    sum n (n-1)/2; the minimum sits at the balanced sequence."""
    if p < 2:
        raise InvalidInput(f"need p >= 2, got {p}")
    return sum(comb(d, p) for d in balanced_sequence(n))


def _sequences(slots: int, lo: int, rem: int) -> Iterator[tuple[int, ...]]:
    if slots == 1:
        if rem >= lo:
            yield (rem,)
        return
    v = lo
    while v * slots <= rem:
        for tail in _sequences(slots - 1, v, rem - v):
            yield (v,) + tail
        v += 1


def verify_binomial_sum_min(n: int, p: int) -> MinimizationReport:
    """Exhaustively minimize sum C(d_i, p) over the whole sequence class
    and compare with the closed form.  The balanced sequence is claimed
    to be the unique minimizer once n >= 2p - 1; below that range the
    report only carries the computed minimum."""
    if p < 2:
        raise InvalidInput(f"need p >= 2, got {p}")
    if n < 1:
        raise InvalidInput(f"need n >= 1, got {n}")
    if n > 12:
        raise InvalidInput(f"sequence sweeps are capped at n = 12, got {n}")
    total = n * (n - 1) // 2
    best = 0
    argmin: list[tuple[int, ...]] = []
    for seq in _sequences(n, 0, total):
        value = sum(comb(d, p) for d in seq)
        if not argmin or value < best:
            best = value
            argmin = [seq]
        elif value == best:
            argmin.append(seq)
    closed = binomial_sum_min(n, p)
    balanced = balanced_sequence(n)
    in_range = n >= 2 * p - 1
    report = BoundReport(
        bound_name="binomial_sum_min",
        n=n,
        bound_value=Fraction(closed),
        observed=best,
        tight=best == closed,
        witnesses=tuple(",".join(map(str, seq)) for seq in argmin),
    )
    if best != closed:
        raise VerificationFailedError(
            f"enumerated minimum {best} differs from closed form {closed} "
            f"for n={n}, p={p}")
    if in_range and argmin != [balanced]:
        raise VerificationFailedError(
            f"minimizer set {argmin} is not the balanced sequence alone "
            f"for n={n}, p={p}")
    return MinimizationReport(
        bound=report,
        p=p,
        balanced=balanced,
        unique_minimizer=argmin == [balanced],
        within_uniqueness_range=in_range,
    )


# -- exhaustive sweeps: labeled tournaments and class reps -------------------

@_table(maxsize=None)
def _outsets(m: int) -> tuple[np.ndarray, ...]:
    """(bit, outsets, s, size, weight) for the out-sets of a new vertex
    over m old ones: the vertex indices 0..m-1, the out-set masks
    0..2^m - 1 as int64, their 0/1 rows (bit k of s_q set when the new
    vertex beats old vertex k), their sizes |s_q|, and the float64
    matrix of shape (m m, 2^m) whose column q is vec(s_q u_q^T),
    u = 1 - s, the weight of _cut_forms."""
    import numpy as np

    bit = np.arange(m)
    outsets = np.arange(1 << m, dtype=np.int64)
    s = _row_bits(outsets, m)
    outer = (s[:, :, None] * (1 - s)[:, None, :]).reshape(len(s), m * m)
    return bit, outsets, s, s.sum(axis=1), outer.T.astype(np.float64)


def _cut_forms(x: np.ndarray) -> np.ndarray:
    """s_q^T X_b (1 - s_q) for every m x m matrix X_b of the int64 stack
    x and every out-set row s_q of _outsets(m), as an int64 array of
    shape (len(x), 2^m): the product vec(X_b) . vec(s_q u_q^T) of the
    (B, m m) matrix with _outsets' weight, taken in float64 so that
    numpy hands it to BLAS.  It is exact for the kernel's operands:
    their entries are non-negative integers, and each of the m^2 terms
    is at most m^3, so every partial sum is an integer below m^5, and
    m < 64 = MAX_ORDER keeps that below 2^30, far inside float64's
    2^53."""
    import numpy as np

    m = x.shape[1]
    *_, weight = _outsets(m)
    return (x.reshape(len(x), m * m).astype(np.float64)
            @ weight).astype(np.int64)


@_table(maxsize=None)
def _vertex_table(n: int) -> np.ndarray:
    """F[i, in_i, s] of shape (n-1, 2^(n-1), 2^(n-1)): old vertex i's
    part of s5 besides the arcs among old vertices, when its in-mask is
    in_i (bit k set when k -> i) and vertex 0's out-set is s.  That part
    is C(p, 3) - C(o, 4) - C(n - 1 - o, 4), with o = deg_i + u_i its
    out-degree and p the 2-paths along its arc with vertex 0:
    (s^T A)_i = |in_i & s| when 0 -> i, and
    (A u)_i = deg_i - |s| + |in_i & s| when i -> 0.  Entries whose in_i
    holds bit i name no tournament and are never read.  The masks, their
    bits and their sizes, for in_i and s alike, are _outsets(n - 1)'s."""
    m = n - 1
    _, masks, bits, size, _ = _outsets(m)  # bits[mask, i]
    u = 1 - bits.T[:, None, :]  # [i, 1, s]
    deg = (m - 1 - size)[:, None]  # [in_i, 1]
    paths = size[masks[:, None] & masks] + u * (deg - size)
    _, c3, c4 = _binomials(n)
    return c3[paths] - c4[deg + u] - c4[n - 1 - deg - u]


def _extension_batch(n: int, rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """(c5, s5, regular) of every order-n one-vertex extension of the
    order-(n-1) tournaments whose int64 out-rows are the rows of rows,
    shape (B, n-1): each result has shape (B, 2^(n-1)), with the
    extension of base b by out-set s in row b, column s.

    The base's vertices become 1..n-1 and bit k of s means 0 -> k+1, as
    in enumeration._extend.  With A the bases' adjacency matrices by
    counting._row_bits, u = 1 - s and old out-degrees deg_A + u, the
    counts follow from A^2 and A^3 once per base, by the identities in
    the module docstring, with the out-set terms from _cut_forms and
    each old vertex's share of s5 from _vertex_table, read at its
    in-mask, the vertices other than i that row i leaves out."""
    import numpy as np

    m = n - 1
    h = m // 2
    bit, outsets, _, size, _ = _outsets(m)
    a = _row_bits(rows, m)
    sq = a @ a
    cube = sq @ a
    tr5 = (cube * np.swapaxes(sq, 1, 2)).sum(axis=(1, 2))
    if (tr5 % 5).any():
        raise InternalParityError("closed 5-walk total not 5-divisible")
    c5 = (tr5 // 5)[:, None] + _cut_forms(cube)

    c2, c3, c4 = _binomials(n)
    inmask = (outsets[-1] ^ 1 << bit) & ~rows
    s5 = (comb(n, 5) - c4[size] - c4[n - 1 - size]
          + (a * c3[sq]).sum(axis=(1, 2))[:, None]
          # u^T Y s = s^T Y^T u for the arc term's Y = A o C(A^2, 2)
          + _cut_forms(np.swapaxes(a * c2[sq], 1, 2))
          + _vertex_table(n)[bit, inmask].sum(axis=1))
    # regular means deg_i + u_i = h for every old i and |s| = h, so the
    # one regular out-set of a base, if any, has s_i = deg_i - h + 1
    want = a.sum(axis=2) - (h - 1)
    regular = (((want == 0) | (want == 1)).all(axis=1)[:, None] & (size == h)
               & (outsets == (want << bit).sum(axis=1)[:, None]))
    return c5, s5, regular


def _labeled_batches(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every labeled tournament of order n - 1, n odd, whose last four
    labels hold one of the four order-4 reps, the transitive
    [0b1110, 0b1100, 0b1000, 0], a source over the 3-cycle
    [0b1110, 0b0100, 0b1000, 0b0010], the 3-cycle over a sink
    [0b1010, 0b1100, 0b1001, 0] and the strong [0b0110, 0b1100, 0b1000,
    0b0001], with weight 24, 8, 8 or 24, as blocks (int64 out-rows, int64
    weights) of at most _SWEEP_BATCH bases.  From n = 7 on only those in
    which vertex 0 beats vertex 1 are kept, with twice the weight.  They
    grow from the four reps by _extend, one new vertex 0 at a time with
    every out-set, which shifts the old labels up and keeps the rep on
    the last four; the last step keeps only the odd out-sets, those
    holding old vertex 0.  It runs one block at a time, so the sweep
    holds only the bases of order n - 2 and one block.

    An extension keeps its base's rep on its own last four labels.
    Permuting those four labels maps the labeled tournaments of order n
    one to one and keeps c5, s5 and regularity.  Each of the 64 labeled
    tournaments of order 4 goes to its class's rep by some permutation,
    which carries the tournaments holding it on their last four labels
    onto those holding the rep; the four classes have 24, 8, 8 and 24
    labelings.  So the reps' extensions, with these weights, stand for
    all 2^C(n,2); at n = 5 the bases are the four reps alone, and no
    label is left to halve by.  From n = 7 on, let psi reverse every arc
    and then the order of the four labels.  It keeps c5, s5 and
    regularity, maps the transitive and the strong rep each onto itself
    and the two 3-cycle reps onto each other, and is an involution, as
    its two steps are and commute.  It reverses the arc between any two
    labels it fixes, among them vertices 0 and 1, so it has no fixed
    point and pairs the bases in which vertex 0 beats vertex 1 one to
    one with those in which it does not; and it maps the extensions of a
    base onto those of its image.  So the reps' extensions in which
    vertex 0 beats vertex 1, with weight 48, 16, 16 or 48, stand for all
    2^C(n,2)."""
    import numpy as np

    rows = np.array([[0b1110, 0b1100, 0b1000, 0],
                     [0b1110, 0b0100, 0b1000, 0b0010],
                     [0b1010, 0b1100, 0b1001, 0],
                     [0b0110, 0b1100, 0b1000, 0b0001]], dtype=np.int64)
    weight = np.array([24, 8, 8, 24], dtype=np.int64)
    if n == 5:
        yield rows, weight
        return
    for k in range(4, n - 2):
        rows = _extend(rows[:, None, :], np.arange(1 << k)).reshape(-1, k + 1)
        weight = np.repeat(weight, 1 << k)
    s = np.arange(1, 1 << (n - 2), 2)
    step = _SWEEP_BATCH // len(s)
    for lo in range(0, len(rows), step):
        yield (_extend(rows[lo:lo + step, None, :], s).reshape(-1, n - 1),
               np.repeat(2 * weight[lo:lo + step], len(s)))


# Bases per slice of _extremes, one _extension_batch call each.  The
# largest arrays of one slice, the gathered vertex shares, hold
# 256 * (n-1) * 2^(n-1) int64 entries, 768 KiB at n = 7; each cut form
# holds 256 * 2^(n-1) entries, 128 KiB, and its float64 operand
# 256 * (n-1)^2 beside the per-order weight of (n-1)^2 * 2^(n-1), so the
# sweep's peak memory stays near that of importing numpy.
_SWEEP_BATCH = 256


def _extremes(n: int, blocks: Iterable[tuple[Sequence[Sequence[int]],
                                              int | Sequence[int]]],
              deadline: float | None = None, *, witnesses: bool
              ) -> tuple[tuple[int, ...], list[list[tuple[np.ndarray, list]]]]:
    """Extremes of the order-n one-vertex extensions of weighted
    order-(n-1) bases.  blocks yields certified_classes' blocks
    (out-rows, weight) of any length, the weight one int for the block
    or one int per row, carried by every extension of that row; each is
    scored in slices of at most _SWEEP_BATCH bases.  Returns the summary
    (mass, regular mass, max c5, c5 witness mass, max s5, s5 witness
    mass), each mass a weight total, and the argmax extensions of c5 and
    of s5 as blocks (out-rows, weights), one per slice that attains the
    maximum, built by enumeration._extend when witnesses is true and
    empty otherwise.  Raises TimeBudgetExceededError once the monotonic
    clock passes deadline, checked once per slice."""
    import numpy as np

    mass = regular = 0
    best = [-1, -1]
    hit_mass = [0, 0]
    argmax: list[list[tuple[np.ndarray, list[int]]]] = [[], []]
    for block, weights in blocks:
        block = np.asarray(block, dtype=np.int64)
        weights = np.broadcast_to(weights, len(block))
        for lo in range(0, len(block), _SWEEP_BATCH):
            _check_deadline(deadline, "the sweep")
            rows = block[lo:lo + _SWEEP_BATCH]
            c5, s5, is_reg = _extension_batch(n, rows)
            w = np.broadcast_to(weights[lo:lo + _SWEEP_BATCH, None], c5.shape)
            mass += int(w.sum())
            regular += int(w[is_reg].sum())
            for q, values in enumerate((c5, s5)):
                bmax = int(values.max(initial=-1))
                if bmax > best[q]:
                    best[q], hit_mass[q], argmax[q] = bmax, 0, []
                if bmax == best[q]:
                    hit = values == bmax
                    hit_weight = w[hit]
                    hit_mass[q] += int(hit_weight.sum())
                    if witnesses:
                        b, s = np.nonzero(hit)
                        argmax[q].append((_extend(rows[b], s),
                                          hit_weight.tolist()))
    return (mass, regular, best[0], hit_mass[0], best[1], hit_mass[1]), argmax


def _witness_classes(n: int, argmax: list[tuple[np.ndarray, list[int]]],
                     mass: int, deadline: float | None = None
                     ) -> tuple[str, ...]:
    """Classes of the class scan's argmax extensions, blocks (out-rows,
    orbit weights).  They stand for every labeled tournament attaining an
    isomorphism-invariant maximum, a relabeling-closed set, so
    certified_classes certifies them, and the orbits of the classes must
    add up to mass, the number of labeled maximizers; both raise
    VerificationFailedError otherwise."""
    total, orbits = certified_classes(n, argmax, deadline)
    if total != mass:
        raise VerificationFailedError(
            f"witness classes hold {total} labeled tournaments, the sweep "
            f"counted {mass} maximizers")
    return tuple(CanonicalForm(n, k).hex() for k in sorted(orbits))


def verify_c5_max(n: int, *, time_budget: float | None = None
                  ) -> SweepExtremes:
    """Find the maxima of c5 and s5 over every tournament of order n in
    {5, 7} by two routes that must agree, report them with their classes,
    and check them by one rule for every order: the regular mass is the
    score count tournaments_with_scores, c5 has witnesses, all doubly
    regular if it meets its bound and none if not, s5 meets s5_of_rlt(n),
    and _bound_terms certifies each witness class.  TestSweepDrivers
    asserts the values and classes.

    time_budget is None or positive finite seconds (else InvalidInput)
    for the whole run; past it, a slice of either route, the class engine
    or certified_classes raises TimeBudgetExceededError."""
    if n not in (5, 7):
        raise InvalidInput(
            f"the exhaustive sweep runs at n in {{5, 7}}, got {n}")
    deadline = _deadline(time_budget)
    labeled, _ = _extremes(n, _labeled_batches(n), deadline,
                           witnesses=False)
    total, regular, best_c5, c5_mass, best_s5, s5_mass = labeled
    if total != 1 << comb(n, 2):
        raise VerificationFailedError(
            f"sweep visited {total} labeled tournaments, not "
            f"2^{comb(n, 2)}")
    scan, (c5_argmax, s5_argmax) = _extremes(
        n, [_classes(n - 1, deadline)], deadline, witnesses=True)
    if scan != labeled:
        raise VerificationFailedError(
            f"the labeled sweep {labeled} and the class scan {scan} disagree")
    result = SweepExtremes(n, total, regular, *(
        BoundReport(name, n, bound, best, best == bound,
                    _witness_classes(n, argmax, mass, deadline))
        for name, bound, best, argmax, mass in (
            ("c5_max", c5_max_bound(n), best_c5, c5_argmax, c5_mass),
            ("s5_max", Fraction(s5_of_rlt(n)), best_s5, s5_argmax,
             s5_mass))))
    _check_sweep_claims(result)
    return result


def _check_sweep_claims(result: SweepExtremes) -> None:
    n = result.n
    regular = tournaments_with_scores(((n - 1) // 2,) * n)
    if result.regular_codes != regular:
        raise VerificationFailedError(
            f"sweep saw {result.regular_codes} regular labeled tournaments, "
            f"the score count says {regular}")

    def rep(key: str) -> Tournament:
        return Tournament(n, CanonicalForm(n, int(key, 16)).rows())

    c5 = result.c5
    if {is_doubly_regular(rep(key)) for key in c5.witnesses} != {c5.tight}:
        raise VerificationFailedError(
            f"max c5 {c5.observed} of bound {c5.bound_value} is not met "
            f"on exactly the doubly regular classes")
    if not result.s5.tight:
        raise VerificationFailedError(
            f"max s5 {result.s5.observed} misses {result.s5.bound_value}")
    for k, (report, scale) in enumerate(((c5, 8), (result.s5, 1))):
        for key in report.witnesses:
            _check_terms(_bound_terms(rep(key))[k],
                         scale * (report.bound_value - report.observed),
                         f"{report.bound_name} witness {key}")


def verify_regular9(corpus: EnumCorpus) -> dict[str, BoundReport]:
    """Verify the order-9 regular corpus by verify_corpus, then audit it
    by _regular_terms, which certify that no class passes s5_of_ndr(9)
    or c5_regular_max(9); the classes whose terms vanish meet them, and
    some must, the c5 ones nearly doubly regular.  TestRegular9Driver
    and test_criterion_05 assert which they are."""
    n = corpus.n
    if n != 9:  # a usage error, whatever the corpus holds
        raise InvalidInput("need the order-9 regular corpus")
    verify_corpus(corpus)
    s5_min, c5_max = s5_of_ndr(n), c5_regular_max(n)
    s5_witnesses, c5_witnesses = [], []
    for cf, rep in corpus.classes:
        key = cf.hex()
        e, j = _regular_terms(rep)
        _check_terms(j, s5_formula(rep) - s5_min, f"s5 of class {key}")
        _check_terms(e, 4 * (c5_max - c5_formula(rep)), f"c5 of class {key}")
        if not j.any():
            s5_witnesses.append(key)
        if not e.any():
            if not is_nearly_doubly_regular(rep):
                raise VerificationFailedError(
                    f"c5 maximizer {key} is not nearly doubly regular")
            c5_witnesses.append(key)
    # a class meets a closed form exactly where its checked terms vanish
    if not s5_witnesses or not c5_witnesses:
        raise VerificationFailedError(
            f"no class meets min s5 = {s5_min} or max c5 = {c5_max}")
    return {
        "s5_min": BoundReport("s5_min_regular", n, Fraction(s5_min),
                              s5_min, True, tuple(s5_witnesses)),
        "c5_max": BoundReport("c5_max_regular", n, Fraction(c5_max),
                              c5_max, True, tuple(c5_witnesses)),
    }
