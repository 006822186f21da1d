"""The benchmark's workloads: what one iteration runs and how it is checked.

Every workload is a closed loop with one caller.  An iteration is a fixed
list of operations; each operation is one call a user of tourney would
make (a CLI command, or the processing of one .tour text), and it ends in
a verified result:

  enum-regular9  the CLI commands ``enumerate --n 9 --out F``,
                 ``verify prop2 --corpus F`` and ``enumerate --verify F``.
                 Takes no seed.
  sweep7         the CLI command ``verify thm1 --n 7``.  Takes no seed.
  query-mix      one pass over a list of .tour texts built from the seed
                 during set-up: random tournaments of order 5..12 and
                 13..63, plus the vertex-transitive RLT_n and QR_p.  Each
                 item is parsed, counted, classified, and for n <= 16
                 canonicalized and its automorphisms counted.

Each operation reports a record (exit code and byte-exact stdout, file
digests, or an output digest).  A record is compared with the reference
captured from the seed commit (``reference.json``); query-mix records are
stored for DEFAULT_SEED only, and every seed also checks invariants that
hold for any input (the formula, oracle and trace routes agree, and the
vertex-transitive items are regular with n dividing |Aut|).

This module imports tourney, so it is loaded only in a worker process
whose sys.path points at the checkout's ``src``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from tourney import classify, cli, core, counting, generators
from tourney import io as tour_io

WORKLOADS = ("enum-regular9", "sweep7", "query-mix")
DEFAULT_SEED = 1

_QUANTITIES = ("c3", "c4", "c5", "s3", "s4", "s5")
_CYCLES = ("c3", "c4", "c5")
_QR_PRIMES = (7, 11, 19, 23, 31, 43, 47, 59)


@dataclass(frozen=True)
class Scale:
    """Problem sizes.  ``full`` is what the benchmark measures; ``tiny``
    runs every code path in a fraction of a second for the self-test."""

    enum_n: int
    sweep_n: int
    small_orders: tuple[int, ...]   # random items, orders <= 12
    small_per_order: int
    large_orders: tuple[int, ...]   # random items, orders 13..63
    large_per_order: int
    symmetric: tuple[tuple[str, int], ...]  # ("rlt", n) and ("qr", p)


SCALES = {
    "full": Scale(
        enum_n=9,
        sweep_n=7,
        small_orders=tuple(range(5, 13)),
        small_per_order=100,
        large_orders=tuple(range(13, 64)),
        large_per_order=8,
        symmetric=(tuple(("rlt", n) for n in range(5, 64, 2))
                   + tuple(("qr", p) for p in _QR_PRIMES)),
    ),
    "tiny": Scale(
        enum_n=7,
        sweep_n=5,
        small_orders=tuple(range(5, 13)),
        small_per_order=2,
        large_orders=(13, 16, 24, 40, 63),
        large_per_order=1,
        symmetric=(("rlt", 5), ("rlt", 9), ("rlt", 15), ("rlt", 21),
                   ("qr", 7), ("qr", 11), ("qr", 19)),
    ),
}


@dataclass(frozen=True)
class Op:
    """One operation: ``run`` is the call into tourney (the timed part),
    ``record`` turns its output into what the reference stores, and
    ``invariant`` returns an error message for an output that is wrong
    for any seed, or None."""

    key: str
    run: Callable[[], Any]
    record: Callable[[Any], dict]
    invariant: Callable[[Any], str | None] | None = None


def _cli_op(argv: list[str], key: str, corpus: Path | None = None) -> Op:
    """A CLI command run in-process through tourney.cli.main with stdout
    captured.  ``corpus`` names a file the command writes, whose digest
    joins the record."""

    def run() -> tuple[int, str]:
        buf = stdio.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def record(out: tuple[int, str]) -> dict:
        code, stdout = out
        rec = {"exit": code, "stdout": stdout}
        if corpus is not None:
            rec["corpus_sha256"] = (
                hashlib.sha256(corpus.read_bytes()).hexdigest()
                if corpus.exists() else None)
        return rec

    return Op(key, run, record)


def enum_ops(scale: Scale, workdir: Path) -> list[Op]:
    n = scale.enum_n
    corpus = workdir / f"r{n}.corpus"
    f = str(corpus)
    ops = [_cli_op(["enumerate", "--n", str(n), "--out", f],
                   f"enumerate --n {n} --out F", corpus)]
    if n == 9:  # prop2 audits the order-9 corpus only
        ops.append(_cli_op(["verify", "prop2", "--corpus", f],
                           "verify prop2 --corpus F"))
    ops.append(_cli_op(["enumerate", "--verify", f], "enumerate --verify F"))
    return ops


def sweep_ops(scale: Scale) -> list[Op]:
    n = str(scale.sweep_n)
    return [_cli_op(["verify", "thm1", "--n", n], f"verify thm1 --n {n}")]


# -- query-mix ---------------------------------------------------------------

def query_items(scale: Scale, seed: int) -> list[tuple[str, str]]:
    """(kind, .tour text) pairs in a seed-dependent order.  The number of
    items of each order and kind is fixed, so a pass costs about the same
    on every seed; the seed picks the random tournaments and the order."""
    rng = random.Random(seed)
    specs: list[tuple[str, int]] = []
    for n in scale.small_orders:
        specs += [("random", n)] * scale.small_per_order
    for n in scale.large_orders:
        specs += [("random", n)] * scale.large_per_order
    specs += scale.symmetric
    rng.shuffle(specs)
    items = []
    for kind, n in specs:
        if kind == "random":
            t = generators.gen_random(n, rng.getrandbits(64))
        elif kind == "rlt":
            t = generators.gen_rlt(n)
        else:
            t = generators.gen_qr(n)
        items.append((kind, tour_io.format_tour(t)))
    return items


def _process_item(text: str) -> dict:
    """Everything a script would ask of one tournament."""
    t = tour_io.parse_tour(text)
    if t.n <= counting.ORACLE_MAX_ORDER:
        report = counting.count_report(t, _QUANTITIES, "all")
        entries = list(report.quantities)
        agree = report.cross_checked
    else:
        formula = counting.count_report(t, _QUANTITIES, "formula")
        trace = counting.count_report(t, _CYCLES, "trace")
        entries = list(formula.quantities) + list(trace.quantities)
        by_formula = {e.name: e.value for e in formula.quantities}
        agree = all(by_formula[e.name] == e.value for e in trace.quantities)
    cls = classify.classification_report(t)
    out = {
        "n": t.n,
        "counts": [[e.name, e.method, e.value] for e in entries],
        "cross_checked": agree,
        "flags": cls.flags,
        "semi_degree": cls.semi_degree,
    }
    if t.n <= core.MAX_CANONICAL_ORDER:
        out["canonical"] = core.canonical_form(t).hex()
        out["automorphisms"] = core.automorphism_count(t)
    return out


def _item_invariant(kind: str) -> Callable[[dict], str | None]:
    def check(out: dict) -> str | None:
        if not out["cross_checked"]:
            return "counting routes disagree"
        if kind != "random":
            if not out["flags"]["regular"]:
                return f"{kind} item is not regular"
            if kind == "qr" and not out["flags"]["doubly_regular"]:
                return "QR item is not doubly regular"
            if "automorphisms" in out and out["automorphisms"] % out["n"]:
                return "vertex-transitive item with n not dividing |Aut|"
        return None
    return check


def _item_record(out: dict) -> dict:
    text = json.dumps(out, sort_keys=True, separators=(",", ":"))
    return {"sha256": hashlib.sha256(text.encode()).hexdigest()[:16]}


def query_ops(items: list[tuple[str, str]]) -> list[Op]:
    return [Op(f"item {k}", (lambda text=text: _process_item(text)),
               _item_record, _item_invariant(kind))
            for k, (kind, text) in enumerate(items)]


# -- set-up ------------------------------------------------------------------

def build_ops(workload: str, scale: Scale, seed: int,
              workdir: Path) -> list[Op]:
    """The operations of one iteration.  This is the workload's input
    generation and is part of its set-up time."""
    if workload == "enum-regular9":
        os.makedirs(workdir, exist_ok=True)
        return enum_ops(scale, workdir)
    if workload == "sweep7":
        return sweep_ops(scale)
    if workload == "query-mix":
        return query_ops(query_items(scale, seed))
    raise ValueError(f"unknown workload {workload!r}")


def references_for(refs: dict, scale_name: str, workload: str,
                   seed: int) -> dict | None:
    """Stored records for this run, or None when the workload's records
    depend on the seed and this seed has none."""
    entry = refs[scale_name][workload]
    if entry["seed"] is not None and entry["seed"] != seed:
        return None
    return entry["ops"]


def check(op: Op, out: Any, expected: dict | None) -> tuple[dict, str | None]:
    """(record, error message or None) for one operation's output."""
    rec = op.record(out)
    if op.invariant is not None:
        problem = op.invariant(out)
        if problem:
            return rec, f"{op.key}: {problem}"
    if expected is not None:
        want = expected.get(op.key)
        if want is None:
            return rec, f"{op.key}: no stored reference"
        diff = sorted(k for k in set(want) | set(rec)
                      if want.get(k) != rec.get(k))
        if diff:
            return rec, f"{op.key}: differs from the reference in {diff}"
    return rec, None
