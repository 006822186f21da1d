"""The public API: every name in tourney.__all__ resolves on the package,
so `from tourney import *` works, and removed names stay removed."""

from __future__ import annotations

import pytest

import tourney


def test_every_exported_name_resolves():
    assert [name for name in tourney.__all__
            if not hasattr(tourney, name)] == []


@pytest.mark.parametrize("name",
                         ["all_tournaments", "sweep_all", "SWEEP_MAX_ORDER"])
def test_labeled_walkers_are_gone(name):
    assert name not in tourney.__all__
    assert not hasattr(tourney, name)
    assert not hasattr(tourney.enumeration, name)
