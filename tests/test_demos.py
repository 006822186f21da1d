"""The demos' stdout, byte for byte.  Each demo runs in-process as
__main__ and its output is compared with a pinned sha256."""

from __future__ import annotations

import hashlib
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

DIGESTS = {
    "01_build_and_inspect.py":
        "791db182237da199bb07e84d4519fc9f154c16d2e4592574360d87b45192c6da",
    "02_counting_cross_checks.py":
        "475155e3440f34bd97c8a55ecbaefdefe51ab4c7f4dfc643e611b492e8671b97",
    "03_classification_atlas.py":
        "1708910b2d673c1dd367063b70f4e92efa1f38c2798ee0a23b0f63ce420234db",
    "04_extremal_bounds.py":
        "557133bbcd0cb4b260506396c163508f258ea97b95227e88cfbdf712cfbf9608",
    "05_enumeration.py":
        "c1652ab8713f76f069241747872350610239c1ec863726f945aaddd2da4ad98c",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name,digest", DIGESTS.items(), ids=DIGESTS.keys())
def test_demo_stdout(capsys, name, digest):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
