"""Shared fixtures.

The expensive artifacts (the order-8 classes, regular corpora, the
exhaustive sweeps) are session-scoped so the acceptance tests and the
unit tests share one computation each.  Build times land in the
`timings` dict so the acceptance suite can assert its runtime budgets
regardless of which test happened to build a fixture first.

numpy reads OPENBLAS_NUM_THREADS when it is first imported, which is
here: neither pytest nor hypothesis imports it.  The tests run with one
BLAS thread, as cli.main does, unless the variable is set already.
"""

from __future__ import annotations

import os
import time

import pytest

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy as np

from tourney import enumeration, extremal


@pytest.fixture(scope="session")
def timings() -> dict[str, float]:
    return {}


@pytest.fixture(scope="session")
def classes8(timings) -> tuple[np.ndarray, list[int]]:
    """The canonical reps of the 6,880 classes of order 8 as an int64
    array of out-rows, and their orbits 8!/|Aut|."""
    start = time.perf_counter()
    classes = enumeration._classes(8, None)
    timings["classes8"] = time.perf_counter() - start
    return classes


@pytest.fixture(scope="session")
def corpus7(timings) -> enumeration.EnumCorpus:
    start = time.perf_counter()
    corpus = enumeration.enumerate_regular(7)
    timings["corpus7"] = time.perf_counter() - start
    return corpus


@pytest.fixture(scope="session")
def corpus9(timings) -> enumeration.EnumCorpus:
    start = time.perf_counter()
    corpus = enumeration.enumerate_regular(9)
    timings["corpus9"] = time.perf_counter() - start
    return corpus


@pytest.fixture(scope="session")
def corpus11(timings) -> enumeration.EnumCorpus:
    start = time.perf_counter()
    corpus = enumeration.enumerate_regular(11)
    timings["corpus11"] = time.perf_counter() - start
    return corpus


@pytest.fixture(scope="session")
def sweep5(timings) -> extremal.SweepExtremes:
    start = time.perf_counter()
    result = extremal.verify_c5_max(5)
    timings["sweep5"] = time.perf_counter() - start
    return result


@pytest.fixture(scope="session")
def sweep7(timings) -> extremal.SweepExtremes:
    start = time.perf_counter()
    result = extremal.verify_c5_max(7)
    timings["sweep7"] = time.perf_counter() - start
    return result
