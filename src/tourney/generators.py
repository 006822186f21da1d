"""Constructors for the tournament families the rest of the package
studies.

Families:

  TT_n      transitive tournament, vertex 0 the source
  R(n, S)   rotational tournament: i -> i + d (mod n) for d in the symbol S
  RLT_n     the rotational locally transitive tournament, S = {1..(n-1)/2}
  QR_q      quadratic-residue tournament for a prime (or odd prime power)
            q = 3 (mod 4): i -> j iff j - i is a nonzero square
  named     small flagship tournaments assembled from compositions, two
            embedded order-9 matrices, and the regular order-7 class that
            is neither locally transitive nor doubly regular (found by
            filtering the enumerated corpus, never hard-coded)
  random    seed-deterministic uniform orientation of K_n
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .classify import is_doubly_regular, is_locally_transitive
from .core import MAX_ORDER, Tournament, _check_order, compose, validate
from .enumeration import enumerate_regular
from .errors import InvalidInput, VerificationFailedError
from .io import _echo, parse_tour


def gen_transitive(n: int) -> Tournament:
    """TT_n: i -> j iff i < j, so vertex 0 beats everyone."""
    _check_order(n)
    full = (1 << n) - 1
    return validate(n, [full & ~((1 << (i + 1)) - 1) for i in range(n)])


@dataclass(frozen=True)
class RotationalSymbol:
    """Difference set for a rotational tournament: n odd, and for every
    d in 1..n-1 exactly one of d, n-d belongs to the set."""

    n: int
    diffs: frozenset[int]

    def __post_init__(self) -> None:
        n = self.n
        _check_order(n)
        if n % 2 == 0:
            raise InvalidInput(
                f"rotational tournaments need odd order, got {n}")
        diffs = frozenset(self.diffs)
        object.__setattr__(self, "diffs", diffs)
        if any(d < 1 or d > n - 1 for d in diffs):
            raise InvalidInput("differences must lie in 1..n-1")
        for d in range(1, n):
            if (d in diffs) == ((n - d) in diffs):
                raise InvalidInput(
                    f"exactly one of {d} and {n - d} must be in the symbol")


def gen_rotational(symbol: RotationalSymbol) -> Tournament:
    """Rotational tournament of the symbol: i -> (i + d) mod n."""
    n = symbol.n
    rows = []
    for i in range(n):
        r = 0
        for d in symbol.diffs:
            r |= 1 << ((i + d) % n)
        rows.append(r)
    return validate(n, rows)


def gen_rlt(n: int) -> Tournament:
    """RLT_n, the rotational tournament with symbol {1..(n-1)/2}.  Every
    out-set induces a transitive tournament."""
    if n % 2 == 0:
        raise InvalidInput(f"RLT needs odd order, got {n}")
    return gen_rotational(RotationalSymbol(n, frozenset(range(1, (n + 1) // 2))))


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def gen_qr(p: int) -> Tournament:
    """QR_p for a prime p = 3 (mod 4): i -> j iff j - i is a nonzero
    quadratic residue mod p.  The order cap comes before the primality
    test, whose trial division would run for ages on a large p."""
    if p > MAX_ORDER:
        raise InvalidInput(f"order {p} exceeds {MAX_ORDER}")
    if not _is_prime(p):
        raise InvalidInput(f"{p} is not prime")
    if p % 4 != 3:
        raise InvalidInput(f"need p = 3 (mod 4), got {p} = {p % 4} (mod 4)")
    squares = frozenset((x * x) % p for x in range(1, p))
    return gen_rotational(RotationalSymbol(p, squares))


# -- quadratic residues over a prime-power field -----------------------------

# The modulus of GF(27), x^3 + 2x + 1, low-degree-first.  With p = 3
# (mod 4), odd k > 1 and p^k <= MAX_ORDER, (p, k) = (3, 3) is the one
# extension field gen_qr_power reaches.  The modulus is irreducible
# because it is a cubic with no root in F_3, so it has no linear factor.
_GF27_MODULUS = (1, 2, 0, 1)


def gen_qr_power(p: int, k: int) -> Tournament:
    """Quadratic-residue tournament over GF(p^k), p prime = 3 (mod 4) and
    k odd, so that -1 is a non-square and the orientation is total.
    Vertices are field elements indexed by base-p digit strings;
    i -> j iff elem(j) - elem(i) is a nonzero square.  The order cap
    comes first, and bounds k before p ** k is computed: p^k >= 2^k,
    which exceeds MAX_ORDER from k = 7 on.  k = 1 is gen_qr(p), its
    refusals included."""
    if k == 1:
        return gen_qr(p)
    if p > 1 and (k > MAX_ORDER.bit_length() or p ** k > MAX_ORDER):
        raise InvalidInput(f"order {p}^{k} exceeds {MAX_ORDER}")
    if not _is_prime(p):
        raise InvalidInput(f"{p} is not prime")
    if p % 4 != 3:
        raise InvalidInput(f"need p = 3 (mod 4), got {p}")
    if k < 1 or k % 2 == 0:
        raise InvalidInput(f"need odd extension degree, got k={k}")
    # (p, k) = (3, 3) is the one case left.  x is neither 0 nor +-1, so
    # its order in GF(27)* is 13 or 26, and x^2 generates the 13 nonzero
    # squares either way; e x shifts e up and folds x^3 = -(f0 + f1 x +
    # f2 x^2) back in.
    squares = []
    e = (1, 0, 0)
    for _ in range(13):
        squares.append(e)
        for _ in range(2):
            e = tuple((c - e[2] * f) % 3
                      for c, f in zip((0,) + e[:2], _GF27_MODULUS))
    rows = []
    for i in range(27):
        r = 0
        for sq in squares:
            r |= 1 << sum((i // 3 ** d + c) % 3 * 3 ** d
                          for d, c in enumerate(sq))
        rows.append(r)
    return validate(27, rows)


# -- named flagship tournaments ----------------------------------------------

_SINGLE = Tournament(1, (0,))

# Two regular order-9 matrices used as bit-exact fixtures; each is one of
# the order-9 classes minimizing the strong-5-subset count.
_NINE_A = """9
011110000
001111000
000101011
000010111
001000111
100110100
111000010
110001001
110001100
"""

_NINE_B = """9
011110000
001010110
000110101
010001011
000101011
111000001
100111000
101001100
110000110
"""


def _delta() -> Tournament:
    return gen_rlt(3)


@lru_cache(maxsize=None)
def _kz7() -> Tournament:
    """The regular order-7 class that is neither locally transitive nor
    doubly regular, filtered out of the enumerated corpus."""
    corpus = enumerate_regular(7)
    picks = [rep for _, rep in corpus.classes
             if not is_locally_transitive(rep) and not is_doubly_regular(rep)]
    if len(picks) != 1:
        raise VerificationFailedError(
            f"expected exactly one such order-7 class, got {len(picks)}")
    return picks[0]


def gen_named(name: str) -> Tournament:
    """Flagship tournaments by name.

    delta             the 3-cycle
    st4               the strong order-4 tournament, delta with one vertex
                      blown up into TT_2
    delta_tt2         delta with every vertex blown up into TT_2 (order 6)
    delta_delta       delta with every vertex blown up into delta (order 9)
    delta_o_tt3_o     delta with the middle vertex blown up into TT_3
    delta_tt2_o_tt2   delta with two vertices blown up into TT_2
    delta_o_delta_o   delta with the middle vertex blown up into delta
    dr7               the doubly regular order-7 tournament (= QR_7)
    kz7               the remaining regular order-7 class (neither locally
                      transitive nor doubly regular)
    prop2_a, prop2_b  the two embedded order-9 fixture matrices
    """
    delta = _delta()
    tt2 = gen_transitive(2)
    tt3 = gen_transitive(3)
    o = _SINGLE
    table = {
        "delta": lambda: delta,
        "st4": lambda: compose(delta, [tt2, o, o]),
        "delta_tt2": lambda: compose(delta, [tt2, tt2, tt2]),
        "delta_delta": lambda: compose(delta, [delta, delta, delta]),
        "delta_o_tt3_o": lambda: compose(delta, [o, tt3, o]),
        "delta_tt2_o_tt2": lambda: compose(delta, [tt2, o, tt2]),
        "delta_o_delta_o": lambda: compose(delta, [o, delta, o]),
        "dr7": lambda: gen_qr(7),
        "kz7": _kz7,
        "prop2_a": lambda: parse_tour(_NINE_A),
        "prop2_b": lambda: parse_tour(_NINE_B),
    }
    if name not in table:
        raise InvalidInput(
            f"unknown tournament name {_echo(name)}; known: {sorted(table)}")
    return table[name]()


def gen_random(n: int, seed: int) -> Tournament:
    """Uniform random orientation of K_n, deterministic in the seed."""
    _check_order(n)
    rng = random.Random(seed)
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.getrandbits(1):
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
    return validate(n, rows)
