"""The public API: every name in tourney.__all__ resolves on the package,
so `from tourney import *` works, and removed names stay removed.  The
library checks its claims with raises, not asserts, which `python -O`
strips.  Every cached numpy table is shared by later callers, so one
decorator, counting._table, marks them all read-only, and one helper,
counting._exact_div, checks every exact scalar division.  tourney.errors
holds seven classes, and every raise in the library names one of them
or argparse.ArgumentTypeError."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import tourney


def test_every_exported_name_resolves():
    assert [name for name in tourney.__all__
            if not hasattr(tourney, name)] == []


@pytest.mark.parametrize("name",
                         ["all_tournaments", "sweep_all", "SWEEP_MAX_ORDER",
                          "canonical_form_bruteforce", "key_for_permutation",
                          "count_copies", "tournament_from_code"])
def test_labeled_walkers_are_gone(name):
    # the test-only reference routes live in tests/oracle_reference.py
    assert name not in tourney.__all__
    assert not hasattr(tourney, name)
    assert not any(hasattr(module, name) for module in (
        tourney.core, tourney.counting, tourney.enumeration,
        tourney.extremal))


def test_library_has_no_assert():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(tourney.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def _top_level_nodes():
    """(module stem, top-level statement) over the package's modules."""
    for path in sorted(Path(tourney.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            yield path.stem, top


def test_only_table_sets_the_write_flag():
    # counting._table freezes every cached table; no builder does it by
    # hand
    found = [f"{stem}.{getattr(top, 'name', top.lineno)}"
             for stem, top in _top_level_nodes()
             for node in ast.walk(top)
             if isinstance(node, ast.Attribute)
             and (node.attr == "setflags"
                  or node.attr == "writeable"
                  and isinstance(node.value, ast.Attribute)
                  and node.value.attr == "flags")]
    assert found == ["counting._table"]


def test_one_helper_raises_the_parity_error():
    # counting._exact_div checks every scalar division that must be
    # exact; the sweep checks its arrays of closed 5-walk totals itself
    found = [f"{stem}.{getattr(top, 'name', top.lineno)}"
             for stem, top in _top_level_nodes()
             for node in ast.walk(top)
             if isinstance(node, ast.Raise)
             and ast.unparse(getattr(node.exc, "func", node.exc))
             == "InternalParityError"]
    assert found == ["counting._exact_div", "extremal._extension_batch"]


ERROR_CLASSES = {"TourneyError", "InvalidInput", "ParseError", "ArcError",
                 "InternalParityError", "VerificationFailedError",
                 "TimeBudgetExceededError"}


def test_errors_defines_seven_classes():
    tree = ast.parse(Path(tourney.errors.__file__).read_text())
    assert {node.name for node in tree.body
            if isinstance(node, ast.ClassDef)} == ERROR_CLASSES
    assert {name for name, value in vars(tourney.errors).items()
            if isinstance(value, type)} == ERROR_CLASSES


def test_every_raise_names_an_error_class():
    # the message says what went wrong; the class only picks the exit code
    found = [f"{stem}:{node.lineno} {ast.unparse(node.exc)}"
             for stem, top in _top_level_nodes()
             for node in ast.walk(top)
             if isinstance(node, ast.Raise)
             and ast.unparse(getattr(node.exc, "func", node.exc))
             not in ERROR_CLASSES | {"argparse.ArgumentTypeError"}]
    assert found == []


@pytest.mark.parametrize("name", [
    "_CellError", "LoopArcError", "MissingOrDoubleArcError",
    "SizeMismatchError", "OutOfRangeError", "ArityMismatchError",
    "OrderTooLargeError", "EvenOrderError", "BadSymbolError",
    "NotPrimeError", "UnknownNameError", "NotAnArcError", "BadMError",
    "TooLargeError", "NotSortedError", "BadOrderError", "BadResidueError",
    "NotRegularError", "CorpusMissingError"])
def test_folded_error_classes_are_gone(name):
    assert not hasattr(tourney.errors, name)


RLT7 = tourney.gen_rlt(7)

# every builder under counting._table, with arguments to build it
TABLES = {
    "counting._arc_profiles": (RLT7,),
    "counting._adjacency_powers": (RLT7,),
    "counting._union_tables": (RLT7,),
    "counting._subset_sizes": (),
    "counting._masks_by_size": (5,),
    "enumeration._weight_masks": (4, 2),
    "enumeration._binomials": (7,),
    "extremal._outsets": (4,),
    "extremal._vertex_table": (5,),
}


def test_every_table_builder_is_listed():
    assert {f"{stem}.{top.name}" for stem, top in _top_level_nodes()
            if isinstance(top, ast.FunctionDef)
            and any(isinstance(d, ast.Call) and getattr(d.func, "id", None)
                    == "_table" for d in top.decorator_list)} == set(TABLES)


@pytest.mark.parametrize("name", TABLES)
def test_cached_tables_are_shared_and_read_only(name):
    module, attr = name.split(".")
    build = getattr(getattr(tourney, module), attr)
    tables = build(*TABLES[name])
    hits = build.cache_info().hits
    assert build(*TABLES[name]) is tables
    assert build.cache_info().hits == hits + 1
    for x in tables if isinstance(tables, tuple) else (tables,):
        with pytest.raises(ValueError, match="read-only"):
            x[...] = x  # leaves the shared table intact if it is writable
