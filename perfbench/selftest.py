"""Fast self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at the tiny scale (enumeration at order 7, the sweep
at order 5, a few dozen query-mix items) with tracing off and on, and
checks that:

  - each run exits 0 and its last stdout line is the result object with
    exactly the keys correct, attempted, failed and metrics;
  - every metric BENCHMARK.json names is emitted, with its unit, and no
    other;
  - the traced enumeration canonicalizes once per completion;
  - a corrupted stored reference makes the run fail with a non-zero exit;
  - without the tourney sources the command exits non-zero and prints no
    result.

It finishes in well under a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(root: Path, workload: str, seed: int, trace: int
         ) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.3",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def _copy_tree(dest: Path, with_src: bool) -> None:
    dest.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems: list[str] = []
    for w in spec["workloads"]:
        for trace, seed in ((0, 1), (1, 7)):
            code, result = _run(ROOT, w["name"], seed, trace)
            label = f"{w['name']} trace={trace} seed={seed}"
            if code != 0 or result is None:
                problems.append(f"{label}: exit {code}, result {result}")
                continue
            if set(result) != RESULT_KEYS or not result["correct"] \
                    or result["attempted"] < 1 or result["failed"]:
                problems.append(f"{label}: bad result {result}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != declared[trace]:
                problems.append(f"{label}: metrics {units} != {declared[trace]}")
            if trace and w["name"] == "enum-regular9":
                refs = json.loads((BENCH / "reference.json").read_text())
                out = refs["tiny"]["enum-regular9"]["ops"][
                    "enumerate --n 7 --out F"]["stdout"]
                want = json.loads(out)["labeled_count"] // math.comb(6, 3)
                got = result["metrics"]["enumeration.completions"]["value"]
                if got != want:
                    problems.append(f"{label}: {got} completions, want {want}")
            print(f"ok {label}: {result['attempted']} operations")

    scratch = BENCH / "out" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        corrupt = scratch / "corrupt"
        _copy_tree(corrupt, with_src=True)
        ref_path = corrupt / "perfbench" / "reference.json"
        refs = json.loads(ref_path.read_text())
        op = refs["tiny"]["sweep7"]["ops"]["verify thm1 --n 5"]
        op["stdout"] = op["stdout"].replace('"observed": 3', '"observed": 4')
        ref_path.write_text(json.dumps(refs))
        code, result = _run(corrupt, "sweep7", 1, 0)
        if code == 0 or result is None or result["correct"] \
                or result["failed"] < 1:
            problems.append(f"corrupted reference: exit {code}, {result}")
        else:
            print("ok corrupted reference fails the run")

        bare = scratch / "bare"
        _copy_tree(bare, with_src=False)
        code, result = _run(bare, "sweep7", 1, 0)
        if code == 0 or result is not None:
            problems.append(f"no sources: exit {code}, result {result}")
        else:
            print("ok missing sources exit non-zero without a result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
