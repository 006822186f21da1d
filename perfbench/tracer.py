"""Spans recorded around calls into tourney's layer boundaries.

Nothing inside tourney is instrumented.  ``Tracer.install`` replaces each
boundary function listed in BOUNDARIES with a timing wrapper wherever a
tourney module holds it: as a module global (``from .core import
canonical_form`` makes a second binding in every importing module) or as
a value in a module-level table (counting's formula dispatch table).
Functions that are not boundaries run inside their caller's span, so a
layer's self time includes its own helpers.

A span is (name, start, end, parent index, request id, count).  The
request id groups the spans of one operation (SETUP before the first
one); ``count`` is a size taken from the return value of the few
functions listed in RESULT_COUNTS.  Spans stay in memory and are written
out once, after the measured run.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from pathlib import Path
from typing import Any, Callable

SETUP = -1

BOUNDARIES = {
    "cli": ("main",),
    "core": ("canonical_form", "automorphism_count"),
    "enumeration": ("enumerate_regular", "write_corpus", "read_corpus",
                    "verify_corpus"),
    "extremal": ("verify_c5_max", "verify_regular9"),
    "counting": ("c3_formula", "c4_formula", "c5_formula", "w_formula",
                 "s_formula", "s5_formula", "oracle_cycles",
                 "oracle_strong_subs", "oracle_w", "trace_m"),
    "classify": ("classification_report",),
    "io": ("parse_tour",),
    "generators": ("gen_transitive", "gen_rotational", "gen_rlt", "gen_qr",
                   "gen_qr_power", "gen_named", "gen_random"),
}

RESULT_COUNTS: dict[str, Callable[[Any], int]] = {
    # classes found by one enumeration
    "enumeration.enumerate_regular": lambda corpus: len(corpus.classes),
    # classes found among the sweep's c5 and s5 witness codes
    "extremal.verify_c5_max":
        lambda r: len(r.c5.witnesses) + len(r.s5.witnesses),
}

# per-layer metric groups that span several boundary functions
_GROUPS = {
    "counting.formula": {f"counting.{f}" for f in (
        "c3_formula", "c4_formula", "c5_formula", "w_formula", "s_formula",
        "s5_formula")},
    "counting.oracle": {f"counting.{f}" for f in (
        "oracle_cycles", "oracle_strong_subs", "oracle_w")},
    "counting.trace": {"counting.trace_m"},
    "generators": {f"generators.{f}" for f in BOUNDARIES["generators"]},
}

_TOURNEY_MODULES = ("tourney", "tourney.cli", "tourney.core",
                    "tourney.enumeration", "tourney.extremal",
                    "tourney.counting", "tourney.classify", "tourney.io",
                    "tourney.generators")


class Tracer:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.request = SETUP
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        counter = RESULT_COUNTS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            request = tracer.request
            stack.append(index)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                count = counter(result) if counter and result is not None \
                    else None
                spans[index] = (name, start, end, parent, request, count)

        return traced

    def install(self) -> None:
        """Wrap every boundary function in every tourney namespace that
        holds it.  Call once, before any traced work."""
        wrappers: dict[int, tuple[Callable, Callable]] = {}
        for layer, names in BOUNDARIES.items():
            module = importlib.import_module(f"tourney.{layer}")
            for fname in names:
                fn = getattr(module, fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))

        def swap(value: Any) -> Any:
            hit = wrappers.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        for modname in _TOURNEY_MODULES:
            module = importlib.import_module(modname)
            for attr, value in list(vars(module).items()):
                if attr.startswith("__"):
                    continue
                wrapped = swap(value)
                if wrapped is not None:
                    setattr(module, attr, wrapped)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        wrapped = swap(item)
                        if wrapped is not None:
                            value[key] = wrapped

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                name, start, end, parent, request, count = span
                fh.write(json.dumps({
                    "workload": self.workload, "request": request,
                    "name": name, "start": start, "end": end,
                    "parent": parent, "count": count}) + "\n")


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile by the nearest-rank rule (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans: list[tuple], iterations: int,
                  sweep_codes: int) -> dict[str, float]:
    """Per-layer metrics from one traced run.  Each value is the set-up
    share (spans of request SETUP) plus the average over ``iterations``
    of the rest, so it compares with one iteration's wall time.  A layer
    the workload does not call reports 0.  ``sweep_codes`` is the number
    of labeled tournaments one verify_c5_max call sweeps."""
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    names = [s[0] for s in spans]

    def group_of(name: str) -> str:
        for group, members in _GROUPS.items():
            if name in members:
                return group
        return name

    # [set-up total, run total] per key, combined by per_iter
    self_s: dict[str, list[float]] = {}
    calls: dict[str, list[int]] = {}
    for k, span in enumerate(spans):
        name, start, end, parent, request = span[:5]
        group = group_of(name)
        part = 0 if request == SETUP else 1
        self_s.setdefault(group, [0.0, 0.0])[part] += end - start - child[k]
        if parent < 0 or group_of(names[parent]) != group:
            calls.setdefault(group, [0, 0])[part] += 1

    def per_iter(pair: list[float] | None) -> float:
        return pair[0] + pair[1] / iterations if pair else 0.0

    def run_total(values) -> list[float]:
        return [0.0, sum(values)]

    def under(child_name: str, parent_name: str) -> list[tuple]:
        return [s for s in spans
                if s[0] == child_name and s[3] >= 0
                and names[s[3]] == parent_name]

    def counted(name: str) -> list[float]:
        return run_total(s[5] or 0 for s in spans if s[0] == name)

    canon_us = [(s[2] - s[1]) * 1e6 for s in spans
                if s[0] == "core.canonical_form" and s[4] != SETUP]
    completions = per_iter(run_total(
        [len(under("core.canonical_form", "enumeration.enumerate_regular"))]))
    enum_classes = per_iter(counted("enumeration.enumerate_regular"))
    witness_canon = per_iter(run_total(
        [len(under("core.canonical_form", "extremal.verify_c5_max"))]))
    witness_classes = per_iter(counted("extremal.verify_c5_max"))
    sweep_self = per_iter(self_s.get("extremal.verify_c5_max"))
    sweeps = per_iter(calls.get("extremal.verify_c5_max"))
    corpus_io = per_iter(run_total(
        s[2] - s[1] for s in spans
        if s[0] in ("enumeration.write_corpus", "enumeration.read_corpus")))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def layer(group: str, kind: str) -> float:
        table = self_s if kind == "self_s" else calls
        return per_iter(table.get(group))

    return {
        "core.canonical_form.calls": layer("core.canonical_form", "calls"),
        "core.canonical_form.self_s": layer("core.canonical_form", "self_s"),
        "core.canonical_form.p50_us": nearest_rank(canon_us, 0.50),
        "core.canonical_form.p99_us": nearest_rank(canon_us, 0.99),
        "core.automorphism_count.calls":
            layer("core.automorphism_count", "calls"),
        "core.automorphism_count.self_s":
            layer("core.automorphism_count", "self_s"),
        "enumeration.enumerate_regular.self_s":
            layer("enumeration.enumerate_regular", "self_s"),
        "enumeration.completions": completions,
        "enumeration.classes_per_canon": ratio(enum_classes, completions),
        "enumeration.corpus_io_s": corpus_io,
        "enumeration.verify_corpus.self_s":
            layer("enumeration.verify_corpus", "self_s"),
        "extremal.verify_c5_max.self_s": sweep_self,
        "extremal.sweep_codes_per_s": ratio(sweeps * sweep_codes, sweep_self),
        "extremal.witness_classes_per_canon":
            ratio(witness_classes, witness_canon),
        "extremal.verify_regular9.self_s":
            layer("extremal.verify_regular9", "self_s"),
        "counting.formula.self_s": layer("counting.formula", "self_s"),
        "counting.formula.calls": layer("counting.formula", "calls"),
        "counting.oracle.self_s": layer("counting.oracle", "self_s"),
        "counting.oracle.calls": layer("counting.oracle", "calls"),
        "counting.trace.self_s": layer("counting.trace", "self_s"),
        "counting.trace.calls": layer("counting.trace", "calls"),
        "classify.classification_report.self_s":
            layer("classify.classification_report", "self_s"),
        "io.parse_tour.self_s": layer("io.parse_tour", "self_s"),
        "cli.main.self_s": layer("cli.main", "self_s"),
        "generators.self_s": layer("generators", "self_s"),
    }
