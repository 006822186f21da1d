"""Enumerate regular tournaments and audit the result.

Runs the regular join (two half-order classes through a cross matrix)
at orders 3, 5, 7, checks the labeled counts against the orbit-counting
identity, and round-trips a corpus file through write, read, and verify.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

from tourney import (
    automorphism_count,
    enumerate_regular,
    read_corpus,
    s5_formula,
    verify_corpus,
    write_corpus,
)


def main() -> None:
    print("== regular tournaments by order ==")
    for n in (3, 5, 7):
        corpus = enumerate_regular(n)
        print(f"n={n}: {len(corpus.classes)} classes, "
              f"{corpus.labeled_count} labeled")
        for cf, rep in corpus.classes:
            aut = automorphism_count(rep)
            print(f"  key {cf.hex()}  |Aut| {aut:2d}  "
                  f"orbit {math.factorial(n) // aut:5d}  s5 {s5_formula(rep)}")

    print()
    print("== corpus files ==")
    corpus = enumerate_regular(7)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "r7.corpus"
        write_corpus(corpus, path)
        print("wrote", path.name, f"({path.stat().st_size} bytes)")
        again = read_corpus(path)
        verify_corpus(again)
        print("read back and verified: keys match, constraint holds,")
        print("orbit counting confirms the labeled count of",
              again.labeled_count)
    print()
    print("(order 11 takes a few seconds; try: tourney enumerate "
          "--n 11 --out r11.corpus)")


if __name__ == "__main__":
    main()
