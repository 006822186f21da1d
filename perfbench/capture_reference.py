"""Write reference.json: the records every benchmark operation must match.

    python3 perfbench/capture_reference.py

Runs one iteration of every workload at every scale against the
checkout's ``src`` and stores each operation's record (exit code and
byte-exact stdout of each CLI command, the .corpus digest, and a digest
of each query-mix item's output for the default seed).  The stored file
was captured from the code the benchmark was written against; re-run
this only when a change is meant to alter those outputs, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402  (needs the src path above)


def capture() -> dict:
    refs: dict = {}
    workdir = BENCH / "out" / "work-capture"
    try:
        for scale_name, scale in workloads.SCALES.items():
            refs[scale_name] = {}
            for name in workloads.WORKLOADS:
                seeded = name == "query-mix"
                ops = workloads.build_ops(name, scale,
                                          workloads.DEFAULT_SEED, workdir)
                records = {}
                for op in ops:
                    rec, error = workloads.check(op, op.run(), None)
                    if error is not None or rec.get("exit", 0) != 0:
                        raise SystemExit(f"{scale_name} {name}: {error or rec}")
                    records[op.key] = rec
                refs[scale_name][name] = {
                    "seed": workloads.DEFAULT_SEED if seeded else None,
                    "ops": records}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return refs


if __name__ == "__main__":
    (BENCH / "reference.json").write_text(
        json.dumps(capture(), indent=1, sort_keys=True) + "\n")
