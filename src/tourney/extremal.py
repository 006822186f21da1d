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

verify_c5_max sweeps every labeled tournament of order 5 or 7 and pins
down the maximizers of c5 and s5 up to isomorphism; verify_regular9
audits the enumerated order-9 regular corpus.  Both raise
VerificationFailedError the moment a claimed fact fails.

The sweep adds one vertex to every labeled tournament of order n - 1.
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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING, Iterator

from .core import CanonicalForm, Tournament, canonical_form
from .counting import c4_formula, c5_formula, s5_formula, trace_m
from .classify import is_nearly_doubly_regular, is_regular, aat_positive
from .enumeration import (EnumCorpus, _edges, certified_classes,
                          enumerate_regular, tournament_from_code)
from .errors import (
    BadOrderError,
    BadResidueError,
    CorpusMissingError,
    NotRegularError,
    TooLargeError,
    VerificationFailedError,
)
from .generators import gen_named, gen_qr

if TYPE_CHECKING:
    import numpy as np


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    assert r == 0, f"{num} not divisible by {den}"
    return q


def _require_odd(n: int, least: int) -> None:
    if n % 2 == 0 or n < least:
        raise BadOrderError(f"need odd n >= {least}, got {n}")


def c5_max_bound(n: int) -> Fraction:
    """Upper bound for the 5-cycle count of any tournament of odd order n:
    (n+1) n (n-1)(n-2)(n-3) / 160.  Attained exactly by the doubly regular
    tournaments (n = 3 mod 4); strict otherwise."""
    _require_odd(n, 5)
    return Fraction((n + 1) * n * (n - 1) * (n - 2) * (n - 3), 160)


def c5_regular_max(n: int) -> int:
    """Maximum 5-cycle count over regular tournaments of order
    n = 1 (mod 4): n (n-1)(n^3 - 4 n^2 + n - 14) / 160."""
    _require_odd(n, 5)
    if n % 4 != 1:
        raise BadResidueError(f"need n = 1 (mod 4), got {n}")
    return _exact_div(n * (n - 1) * (n ** 3 - 4 * n * n + n - 14), 160)


def s5_of_rlt(n: int) -> int:
    """(n+1) n (n-1)(n-3)(11 n - 47) / 1920, the strong-5-subset count of
    RLT_n.  That it is the maximum over all tournaments of order n is
    checked exhaustively by verify_c5_max at n = 5 and 7 only; above
    order 7 nothing checks it."""
    _require_odd(n, 3)
    return _exact_div((n + 1) * n * (n - 1) * (n - 3) * (11 * n - 47), 1920)


def c5_of_rlt(n: int) -> int:
    """(n+1) n (n-1)(n-3)(3 n - 11) / 480, the 5-cycle count of RLT_n."""
    _require_odd(n, 3)
    return _exact_div((n + 1) * n * (n - 1) * (n - 3) * (3 * n - 11), 480)


def s5_of_dr(n: int) -> int:
    """n (n+1)(n-1)(n-3)(17 n - 59) / 3840, the strong-5-subset count of
    any doubly regular tournament (n = 3 mod 4)."""
    _require_odd(n, 3)
    if n % 4 != 3:
        raise BadResidueError(f"need n = 3 (mod 4), got {n}")
    return _exact_div(n * (n + 1) * (n - 1) * (n - 3) * (17 * n - 59), 3840)


def s5_of_ndr(n: int) -> int:
    """n (n-1)(17 n^3 - 93 n^2 + 127 n - 243) / 3840, the strong-5-subset
    count of any nearly doubly regular tournament (n = 1 mod 4)."""
    _require_odd(n, 5)
    if n % 4 != 1:
        raise BadResidueError(f"need n = 1 (mod 4), got {n}")
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
        raise BadOrderError(f"need m >= 3 and n >= 0, got n={n}, m={m}")
    ff = 1
    for k in range(m):
        ff *= n - k
    return Fraction(max(ff, 0), m * (1 << m))


def regular_identity(t: Tournament) -> tuple[int, int]:
    """(c5 + 2 c4, n (n-1)(n+1)(n-3)(n+3) / 160) for a regular
    tournament; the two are equal."""
    if not is_regular(t):
        raise NotRegularError("the c5 + 2 c4 identity needs a regular tournament")
    n = t.n
    lhs = c5_formula(t) + 2 * c4_formula(t)
    rhs = _exact_div(n * (n - 1) * (n + 1) * (n - 3) * (n + 3), 160)
    return lhs, rhs


def regular_identity_trace(t: Tournament) -> tuple[Fraction, Fraction]:
    """Trace form of the same identity:
    tr5 + (5/2) tr4 = n (n-1)(n+1)(n-3)(n+3) / 32."""
    if not is_regular(t):
        raise NotRegularError("the trace identity needs a regular tournament")
    n = t.n
    lhs = Fraction(trace_m(t, 5)) + Fraction(5, 2) * trace_m(t, 4)
    rhs = Fraction(n * (n - 1) * (n + 1) * (n - 3) * (n + 3), 32)
    return lhs, rhs


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
    """Extremes of one exhaustive labeled sweep."""

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
        raise BadOrderError(f"need n >= 1, got {n}")
    if n % 2 == 1:
        return ((n - 1) // 2,) * n
    return (n // 2 - 1,) * (n // 2) + (n // 2,) * (n // 2)


def binomial_sum_min(n: int, p: int) -> int:
    """min sum C(d_i, p) over non-decreasing non-negative sequences with
    sum n (n-1)/2; the minimum sits at the balanced sequence."""
    if p < 2:
        raise BadOrderError(f"need p >= 2, got {p}")
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
        raise BadOrderError(f"need p >= 2, got {p}")
    if n < 1 or n > 12:
        raise TooLargeError(f"sequence sweeps are capped at n = 12, got {n}")
    total = n * (n - 1) // 2
    best: int | None = None
    argmin: list[tuple[int, ...]] = []
    for seq in _sequences(n, 0, total):
        value = sum(comb(d, p) for d in seq)
        if best is None or value < best:
            best = value
            argmin = [seq]
        elif value == best:
            argmin.append(seq)
    assert best is not None
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


# -- exhaustive labeled sweeps -----------------------------------------------

# Base codes per numpy batch.  The per-code arrays of one batch hold
# 256 * 2^(n-1) * (n-1) int64 entries, under 1 MiB at n = 7, so the
# sweep's peak memory stays near that of importing numpy.
_SWEEP_BATCH = 256


def _bilinear(x: np.ndarray, left: np.ndarray,
              right: np.ndarray) -> np.ndarray:
    """left_q^T X_b right_q for every matrix X_b of the stack x and every
    row q of left and right, as the (len(x), len(left)) product of
    vec(X_b) with vec(left_q right_q^T)."""
    m = x.shape[1]
    outer = (left[:, :, None] * right[:, None, :]).reshape(-1, m * m)
    return x.reshape(len(x), m * m) @ outer.T


def _extension_batch(
        n: int, base: np.ndarray) -> tuple[np.ndarray, ...]:
    """(codes, c5, s5, regular) of every order-n code s + (a << (n-1))
    with a in the int64 array ``base`` and 0 <= s < 2^(n-1); each result
    has shape (len(base), 2^(n-1)) with the code of row a, column s.

    _edges(n) lists vertex 0's arcs first, so a is the order-(n-1) code
    A of vertices 1..n-1 and bit k of s means 0 -> k+1.  With u = 1 - s
    and old out-degrees deg_A + u, the counts follow from A^2 and A^3
    once per base code, by the identities in the module docstring."""
    import numpy as np

    m = n - 1
    h = m // 2
    edges = _edges(m)
    bits = (base[:, None] >> np.arange(len(edges))) & 1
    a = np.zeros((len(base), m, m), dtype=np.int64)
    for k, (i, j) in enumerate(edges):
        a[:, i, j] = bits[:, k]
        a[:, j, i] = 1 - bits[:, k]
    outsets = np.arange(1 << m, dtype=np.int64)
    s = (outsets[:, None] >> np.arange(m)) & 1
    u = 1 - s
    size = s.sum(axis=1)
    sq = a @ a
    cube = sq @ a
    tr5 = (cube * np.swapaxes(sq, 1, 2)).sum(axis=(1, 2))
    if (tr5 % 5).any():
        raise VerificationFailedError("closed 5-walk total not 5-divisible")
    c5 = (tr5 // 5)[:, None] + _bilinear(cube, s, u)

    c2, c3, c4 = (np.array([comb(v, r) for v in range(n + 1)], dtype=np.int64)
                  for r in (2, 3, 4))
    # [b, i, s]: out-degree of old vertex i, and the 2-paths along its
    # arc with the new vertex: (A u)_i when i -> 0, (s^T A)_i when 0 -> i,
    # where (A u)_i = deg_i - |s| + (s^T A)_i
    deg = a.sum(axis=2)[:, :, None]
    out = deg + u.T
    paths = ((np.swapaxes(a, 1, 2).reshape(-1, m) @ s.T).reshape(out.shape)
             + u.T * (deg - size))
    # share[o, p] = C(p, 3) - C(o, 4) - C(n - 1 - o, 4): an old vertex's
    # part of s5 besides the arcs among old vertices
    share = c3[None, :] - c4[:n, None] - c4[n - 1::-1, None]
    s5 = (comb(n, 5) - c4[size] - c4[n - 1 - size]
          + (a * c3[sq]).sum(axis=(1, 2))[:, None]
          + _bilinear(a * c2[sq], u, s)
          + share[out, paths].sum(axis=1))
    regular = (out == h).all(axis=1) & (size == h)
    codes = (base[:, None] << m) + outsets
    return codes, c5, s5, regular


def _sweep_stats(n: int) -> tuple[int, int, int, int, list[int], list[int]]:
    """One pass over every labeled tournament of order n, as an order-(n-1)
    base code a plus the out-set s of vertex 0, in ascending code order
    s + (a << (n-1)).  Returns (codes visited, regular code count, max c5,
    max s5, c5 witness codes, s5 witness codes).

    Per batch of base codes, _extension_batch computes A^2 and A^3 once
    and adds the new vertex by the extension identities:
    c5 = tr(A^5)/5 + s^T A^3 u, the s5 arc terms of T^2 = A^2 + u s^T,
    and out-degrees deg_A + u and |s|."""
    import numpy as np

    bases = 1 << comb(n - 1, 2)
    visited = regular = 0
    best = [-1, -1]
    witnesses: list[list[int]] = [[], []]
    for lo in range(0, bases, _SWEEP_BATCH):
        codes, c5, s5, is_reg = _extension_batch(
            n, np.arange(lo, min(lo + _SWEEP_BATCH, bases), dtype=np.int64))
        visited += codes.size
        regular += int(is_reg.sum())
        for q, values in enumerate((c5, s5)):
            bmax = int(values.max(initial=-1))
            if bmax > best[q]:
                best[q] = bmax
                witnesses[q] = []
            if bmax == best[q]:
                witnesses[q].extend(int(c) for c in codes[values == bmax])
    return visited, regular, *best, *witnesses


def _classes_of_codes(n: int, codes: list[int]) -> tuple[str, ...]:
    """Classes among the witness codes of a full sweep.  The codes are
    every labeled tournament attaining an isomorphism-invariant maximum,
    so they are closed under relabeling and their orbit masses add up to
    len(codes); certified_classes raises VerificationFailedError
    otherwise."""
    _, orbits = certified_classes(
        n, ((tournament_from_code(n, c), 1) for c in codes))
    return tuple(CanonicalForm(n, k).hex() for k in sorted(orbits))


def verify_c5_max(n: int) -> SweepExtremes:
    """Sweep every labeled tournament of order n in {5, 7}; report the
    maxima of c5 and s5 with their classes, and check the claims:

      n = 7: max c5 = 42, attained exactly by the quadratic-residue
             tournament; max s5 = 21 = C(7, 5), attained exactly by the
             three regular classes; the regular labeled total matches the
             enumerator.
      n = 5: max c5 = 3 (the rational bound 9/2 is not attained), with
             the middle-blowup of the 3-cycle among the maximizers;
             max s5 = 1, attained exactly by the six strong classes.
    """
    if n not in (5, 7):
        raise TooLargeError(f"the exhaustive sweep runs at n in {{5, 7}}, got {n}")
    total, regular, best_c5, best_s5, c5_codes, s5_codes = _sweep_stats(n)
    if total != 1 << comb(n, 2):
        raise VerificationFailedError(
            f"sweep visited {total} codes, not 2^{comb(n, 2)}")
    c5_witnesses = _classes_of_codes(n, c5_codes)
    s5_witnesses = _classes_of_codes(n, s5_codes)
    bound = c5_max_bound(n)
    c5_report = BoundReport(
        bound_name="c5_max",
        n=n,
        bound_value=bound,
        observed=best_c5,
        tight=Fraction(best_c5) == bound,
        witnesses=c5_witnesses,
    )
    s5_report = BoundReport(
        bound_name="s5_max",
        n=n,
        bound_value=Fraction(s5_of_rlt(n)),
        observed=best_s5,
        tight=best_s5 == s5_of_rlt(n),
        witnesses=s5_witnesses,
    )
    result = SweepExtremes(n, total, regular, c5_report, s5_report)
    _check_sweep_claims(result)
    return result


def _check_sweep_claims(result: SweepExtremes) -> None:
    n = result.n
    corpus = enumerate_regular(n)
    if result.regular_codes != corpus.labeled_count:
        raise VerificationFailedError(
            f"sweep saw {result.regular_codes} regular codes, enumerator "
            f"says {corpus.labeled_count}")
    if n == 7:
        if not result.c5.tight:
            raise VerificationFailedError(
                f"max c5 {result.c5.observed} misses the bound "
                f"{result.c5.bound_value}")
        qr_key = canonical_form(gen_qr(7)).hex()
        if result.c5.witnesses != (qr_key,):
            raise VerificationFailedError(
                "c5 maximizers are not exactly the quadratic-residue class")
        regular_keys = tuple(cf.hex() for cf, _ in corpus.classes)
        if not result.s5.tight or result.s5.witnesses != regular_keys:
            raise VerificationFailedError(
                "s5 maximizers are not exactly the three regular classes")
    else:
        if result.c5.observed != 3 or result.c5.tight:
            raise VerificationFailedError(
                f"max c5 at order 5 should be 3 < 9/2, got "
                f"{result.c5.observed}")
        mid_key = canonical_form(gen_named("delta_o_delta_o")).hex()
        if mid_key not in result.c5.witnesses:
            raise VerificationFailedError(
                "the middle-blowup 3-cycle is missing from the c5 maximizers")
        if result.s5.observed != 1 or len(result.s5.witnesses) != 6:
            raise VerificationFailedError(
                "s5 maximizers at order 5 are not exactly the six strong "
                "classes")


def verify_regular9(corpus: EnumCorpus) -> dict[str, BoundReport]:
    """Audit the order-9 regular corpus:

      min s5 = 108 over the 15 classes, attained by exactly five, and the
      minimizers are exactly the classes whose A A^T is positive
      off-diagonal; two of the five are nearly doubly regular, one is the
      triple blowup of the 3-cycle, and the other two match the embedded
      fixture matrices.  max c5 = 180, attained exactly by the two nearly
      doubly regular classes.
    """
    if corpus.n != 9 or corpus.constraint != "regular":
        raise CorpusMissingError("need the order-9 regular corpus")
    if len(corpus.classes) != 15:
        raise VerificationFailedError(
            f"expected 15 order-9 regular classes, got {len(corpus.classes)}")
    stats = [(cf.hex(), s5_formula(rep), c5_formula(rep), rep)
             for cf, rep in corpus.classes]
    min_s5 = min(s for _, s, _, _ in stats)
    max_c5 = max(c for _, _, c, _ in stats)
    s5_witnesses = tuple(k for k, s, _, _ in stats if s == min_s5)
    c5_witnesses = tuple(k for k, _, c, _ in stats if c == max_c5)
    aat_keys = tuple(k for k, _, _, rep in stats if aat_positive(rep))
    ndr_keys = tuple(k for k, _, _, rep in stats
                     if is_nearly_doubly_regular(rep))
    if min_s5 != s5_of_ndr(9):
        raise VerificationFailedError(
            f"min s5 is {min_s5}, closed form says {s5_of_ndr(9)}")
    if len(s5_witnesses) != 5:
        raise VerificationFailedError(
            f"expected 5 minimizing classes, got {len(s5_witnesses)}")
    if s5_witnesses != aat_keys:
        raise VerificationFailedError(
            "s5 minimizers differ from the positive-A A^T classes")
    if len(ndr_keys) != 2 or not set(ndr_keys) <= set(s5_witnesses):
        raise VerificationFailedError(
            "expected exactly two nearly doubly regular minimizers")
    named = {canonical_form(gen_named(name)).hex(): name
             for name in ("delta_delta", "prop2_a", "prop2_b")}
    if not set(named) <= set(s5_witnesses):
        raise VerificationFailedError(
            "the blowup and fixture classes are not all minimizers")
    if set(s5_witnesses) != set(named) | set(ndr_keys):
        raise VerificationFailedError(
            "the five minimizers are not the expected five classes")
    if max_c5 != c5_regular_max(9):
        raise VerificationFailedError(
            f"max c5 is {max_c5}, closed form says {c5_regular_max(9)}")
    if c5_witnesses != ndr_keys:
        raise VerificationFailedError(
            "c5 maximizers are not exactly the nearly doubly regular classes")
    return {
        "s5_min": BoundReport("s5_min_regular", 9, Fraction(s5_of_ndr(9)),
                              min_s5, True, s5_witnesses),
        "c5_max": BoundReport("c5_max_regular", 9,
                              Fraction(c5_regular_max(9)), max_c5, True,
                              c5_witnesses),
    }
