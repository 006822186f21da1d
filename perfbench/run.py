"""tourney's benchmark: one workload per invocation, checked and timed.

    python3 perfbench/run.py --workload {enum-regular9,sweep7,query-mix}
                             --seed N --seconds T --trace {0,1}

Run from anywhere; the checkout root is the parent of this directory and
tourney is imported from its ``src``.  The workload runs in fresh worker
processes started one at a time (worker.py); none starts another process
except the traced run's two-worker enumeration pool.

--trace 0 prints the end-to-end metrics:
  wall_s        one iteration, from the first call into tourney to a
                verified result (median over the run's iterations)
  cpu_s         user + system CPU of the same interval (median)
  setup_s       process start, import of tourney and numpy, and input
                generation (median over SETUP_SAMPLES fresh processes)
  peak_rss_mib  peak resident memory of the measuring process, less the
                speed probe's buffers
  item_p50_ms,  latency of one item, nearest rank over the run's items;
  item_p99_ms   an item is one query-mix tournament, or one iteration of
                enum-regular9 or sweep7
Every time is in reference seconds: the raw time, less the speed probe's
own, multiplied by the host's mean speed over it (speed.py).  This takes
out the drift of a shared host.  The raw times go to the record.
--trace 1 prints the per-layer metrics (tracer.py) of a traced run, and
the tracing overhead against an untraced run made just before it.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  A failed operation (a raise, a non-zero exit, or a mismatch
with reference.json) makes ``correct`` false and the exit code 1.  The
full record, with machine facts, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import nearest_rank

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("enum-regular9", "sweep7", "query-mix")
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
    "item_p50_ms": "ms", "item_p99_ms": "ms",
}
LAYER_UNITS = {
    "calls": "count", "self_s": "s", "p50_us": "us", "p99_us": "us",
    "completions": "count", "classes_per_canon": "ratio",
    "corpus_io_s": "s", "pool2_wall_s": "s", "pool2_cpu_s": "s",
    "sweep_codes_per_s": "1/s", "witness_classes_per_canon": "ratio",
    "overhead_frac": "ratio",
}


def _layer_unit(name: str) -> str:
    return LAYER_UNITS[name.rsplit(".", 1)[1]]


class WorkerFailed(RuntimeError):
    pass


class Runner:
    """Starts worker processes one at a time within the run's deadline."""

    def __init__(self, args: argparse.Namespace, out_dir: Path) -> None:
        self.args = args
        self.out_dir = out_dir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.count = 0

    def spawn(self, mode: str) -> dict:
        a = self.args
        self.count += 1
        stem = f"{a.workload}-s{a.seed}-t{a.trace}-{os.getpid()}-{self.count}"
        result_path = self.out_dir / f"{stem}.json"
        cmd = [sys.executable, str(BENCH / "worker.py"), str(ROOT),
               str(result_path), "--workload", a.workload,
               "--seed", str(a.seed), "--seconds", str(a.seconds),
               "--scale", a.scale, "--mode", mode]
        env = dict(os.environ, TOURNEY_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1")
        env.pop("PYTHONPATH", None)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise WorkerFailed(f"no time left for the {mode} worker")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=remaining,
                                  stdout=sys.stderr, stdin=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"{mode} worker ran past the run's time limit")
        if proc.returncode != 0 or not result_path.exists():
            raise WorkerFailed(f"{mode} worker exited with {proc.returncode}")
        result = json.loads(result_path.read_text())
        result_path.unlink()
        result["setup_s"] = result["t_ready"] - spawned
        return result


def end_to_end(runner: Runner) -> tuple[dict, list[dict]]:
    """Times are in reference seconds; the raw ones go to the record."""
    probes = [runner.spawn("setup") for _ in range(SETUP_SAMPLES - 1)]
    main = runner.spawn("run")
    speeds = main["speeds"]
    walls = [w * v for w, v in zip(main["walls"], speeds)]
    cpus = [c * v for c, v in zip(main["cpus"], speeds)]
    # A query-mix item is one tournament.  On the CLI workloads an item is
    # a whole iteration: their few commands differ too much in kind (21 s
    # against 20 ms) for a percentile over them to be steady.
    if runner.args.workload == "query-mix":
        lat = [ms * v for items, vs in zip(main["latencies_ms"],
                                            main["item_speeds"])
               for ms, v in zip(items, vs)]
    else:
        lat = [wall * 1e3 for wall in walls]
    workers = probes + [main]
    raw_setups = [w["setup_s"] for w in workers]
    setups = [w["setup_s"] * w["setup_speed"] for w in workers]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": main["peak_rss_mib"],
        "item_p50_ms": nearest_rank(lat, 0.50),
        "item_p99_ms": nearest_rank(lat, 0.99),
    }
    samples = {"items": len(lat),
               "beyond_p99": sum(1 for v in lat
                                 if v > metrics["item_p99_ms"]),
               "speeds": speeds, "raw_walls": main["walls"],
               "raw_cpus": main["cpus"], "raw_setups": raw_setups,
               "setup_speeds": [w["setup_speed"] for w in workers]}
    return {"metrics": metrics, "samples": samples}, [main]


def per_layer(runner: Runner) -> tuple[dict, list[dict]]:
    plain = runner.spawn("run")
    traced = runner.spawn("trace")
    layers = dict(traced["layers"])
    workers = [plain, traced]
    pool = {"pool2_wall_s": 0.0, "pool2_cpu_s": 0.0}
    if runner.args.workload == "enum-regular9":
        pool = runner.spawn("pool2")
        workers.append(pool)
    layers["enumeration.pool2_wall_s"] = pool["pool2_wall_s"]
    layers["enumeration.pool2_cpu_s"] = pool["pool2_cpu_s"]
    layers["trace.overhead_frac"] = (statistics.median(traced["walls"])
                                     / statistics.median(plain["walls"]) - 1)
    samples = {"untraced_walls": plain["walls"], "traced_walls": traced["walls"]}
    return ({"metrics": layers, "samples": samples, "spans": traced["spans"]},
            workers)


def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count(),
             "affinity": len(os.sched_getaffinity(0)),
             "python": sys.version.split()[0]}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            facts[f"l{level}"] = size
    facts["commit"] = _git_commit()
    return facts


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="run.py", description=__doc__.split(
        "\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", choices=["full", "tiny"], default="full",
                   help="tiny: the self-test's small sizes")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "tourney" / "__init__.py").is_file():
        print(f"error: no tourney sources at {ROOT / 'src' / 'tourney'}",
              file=sys.stderr)
        return 2
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    load_before = os.getloadavg()
    runner = Runner(args, out_dir)
    try:
        if args.trace:
            summary, workers = per_layer(runner)
            units = {name: _layer_unit(name) for name in summary["metrics"]}
        else:
            summary, workers = end_to_end(runner)
            units = END_TO_END_UNITS
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    failures = [f for w in workers for f in w["failures"]]
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
        "machine": dict(machine_facts(), numpy=workers[0]["numpy"],
                        load_before=load_before,
                        load_after=os.getloadavg()),
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "failures": failures,
        **summary,
    }
    (out_dir / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
     ).write_text(json.dumps(record, indent=2))
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={failed} "
          f"fail_ratio={record['fail_ratio']:g}")
    for name, value in summary["metrics"].items():
        print(f"  {name} = {value!r} {units[name]}")
    if "samples" in summary:
        print(f"  samples: {summary['samples']}")
    m = record["machine"]
    print(f"  machine: {m['nproc']} cpus, {m.get('cpu_model')}, "
          f"L2 {m.get('l2')}, L3 {m.get('l3')}, "
          f"python {m['python']}, numpy {m['numpy']}, commit {m['commit']}, "
          f"load {m['load_before'][0]:.2f} -> {m['load_after'][0]:.2f}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in summary["metrics"].items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
