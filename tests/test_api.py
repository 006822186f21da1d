"""The public API: every name in tourney.__all__ resolves on the package,
so `from tourney import *` works, and removed names stay removed.  The
library checks its claims with raises, not asserts, which `python -O`
strips.  Every cached numpy table is shared by later callers, so one
decorator, counting._table, marks them all read-only, and one helper,
counting._exact_div, checks every exact scalar division.  Vertex sets
are walked by core.vertices_of but for three hot loops, and an integer
argument of another type is refused.  tourney.errors holds seven
classes, and every raise in the library names one of them or
argparse.ArgumentTypeError."""

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


def _functions():
    """(module.function or module.Class.method, node) over the package's
    top-level functions and methods."""
    for stem, top in _top_level_nodes():
        if isinstance(top, ast.FunctionDef):
            yield f"{stem}.{top.name}", top
        elif isinstance(top, ast.ClassDef):
            yield from ((f"{stem}.{top.name}.{item.name}", item)
                        for item in top.body
                        if isinstance(item, ast.FunctionDef))


def _takes_lowest_bit(node: ast.AST) -> bool:
    """Whether node is x & -x for one name x."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
            and isinstance(node.right, ast.UnaryOp)
            and isinstance(node.right.op, ast.USub)
            and isinstance(node.left, ast.Name)
            and ast.unparse(node.right.operand) == node.left.id)


def test_only_four_walks_take_the_lowest_bit_by_hand():
    # core.mask_of builds a vertex set and core.vertices_of walks one;
    # the three hot walks that stay inline say why in a comment
    found = [name for name, func in _functions()
             if any(isinstance(node, ast.While)
                    and any(map(_takes_lowest_bit, ast.walk(node)))
                    for node in ast.walk(func))]
    assert sorted(found) == ["classify._balanced", "core._minimal_relabelings",
                             "core.vertices_of", "counting._c3_within"]


_NOT_INTS = [
    # closed forms that returned a float for a float order
    (tourney.s5_of_rlt, (9.0,)), (tourney.c5_of_rlt, (9.0,)),
    (tourney.s5_of_ndr, (9.0,)), (tourney.rlt5_copies_in_rlt, (9.0,)),
    # entries that raised a bare TypeError
    (tourney.c5_max_bound, (7.0,)), (tourney.expected_cycles, (5.0, 5)),
    (tourney.expected_cycles, (5, 5.0)), (tourney.verify_c5_max, (7.0,)),
    (tourney.gen_qr, ("7",)), (tourney.gen_qr, (7.0,)),
    (tourney.enumerate_regular, (7.0,)),
    (tourney.enumerate_regular, (True,)),
    # a power taken as 1, and a float prime taken as 3
    (tourney.gen_qr_power, (3, True)), (tourney.gen_qr_power, (3.0, 3)),
]


@pytest.mark.parametrize("f, args", _NOT_INTS, ids=[
    f"{f.__name__}({', '.join(map(repr, args))})" for f, args in _NOT_INTS])
def test_integer_arguments_refuse_other_types(f, args):
    with pytest.raises(tourney.InvalidInput, match=" must be an int, got "):
        f(*args)


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
