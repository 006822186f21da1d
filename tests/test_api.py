"""The public API: every name in tourney.__all__ resolves on the package,
so `from tourney import *` works, and removed names stay removed.  The
library checks its claims with raises, not asserts, which `python -O`
strips."""

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
