"""One workload in a fresh process; started by run.py, one at a time.

Usage: worker.py ROOT RESULT_JSON --workload W --seed S --seconds T
                 --scale {full,tiny} --mode {setup,run,trace,pool2}

  setup  import tourney and numpy, build the inputs, record the ready
         time and the host's mean speed until then, exit (run.py times
         set-up from several of these)
  run    set up, then run iterations with tracing off until T seconds
         have passed; every operation is timed and checked, and a speed
         probe (speed.py) samples the host's speed meanwhile; the peak
         memory leaves out the probe's buffers
  trace  the same with spans recorded (tracer.py); also writes the spans
         to out/spans-WORKLOAD-sSEED.jsonl and derives the per-layer
         metrics
  pool2  set up, then time enumerate_regular with two worker processes
         once and check its classes against the stored reference

The ready time is time.monotonic(), the system-wide CLOCK_MONOTONIC on
Linux, so run.py can subtract its own spawn time from it; the speed
probe's time until then is taken off it.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import sys
import time
from pathlib import Path

import speed

# seconds of speed samples either side of an item that normalize it
ITEM_WINDOW_S = 0.5


def _parse(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="worker.py")
    p.add_argument("root", type=Path)
    p.add_argument("result", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--scale", required=True)
    p.add_argument("--mode", required=True,
                   choices=["setup", "run", "trace", "pool2"])
    return p.parse_args(argv)


def _import_tourney(root: Path) -> None:
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import tourney
    if not Path(tourney.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"tourney imported from {tourney.__file__}, "
                         f"not from {src}")


def _measure(ops, expected, seconds: float, tracer, probe) -> dict:
    """Iterations until ``seconds`` have passed (at least one).  Every
    timing leaves out the speed probe's own time (speed.py)."""
    import workloads
    walls, cpus, latencies_ms = [], [], []
    spans: list[tuple[float, float]] = []
    item_spans: list[list[tuple[float, float]]] = []
    attempted = failed = 0
    failures: list[str] = []
    request = 0
    start = time.perf_counter()
    while True:
        lat: list[float] = []
        items: list[tuple[float, float]] = []
        pw0, pc0 = probe.wall, probe.cpu
        w0 = time.perf_counter()
        c0 = time.process_time()
        for op in ops:
            if tracer is not None:
                tracer.request = request
            request += 1
            p0 = probe.wall
            t0 = time.perf_counter()
            try:
                out = op.run()
                error = None
            except Exception as exc:  # an operation that raises has failed
                out, error = None, f"{op.key}: {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            lat.append((t1 - t0 - (probe.wall - p0)) * 1e3)
            items.append((t0, t1))
            if error is None:
                _, error = workloads.check(op, out, expected)
            attempted += 1
            if error is not None:
                failed += 1
                if len(failures) < 20:
                    failures.append(error)
        w1 = time.perf_counter()
        walls.append(w1 - w0 - (probe.wall - pw0))
        cpus.append(time.process_time() - c0 - (probe.cpu - pc0))
        latencies_ms.append(lat)
        spans.append((w0, w1))
        item_spans.append(items)
        if w1 - start >= seconds:
            break
    return {"walls": walls, "cpus": cpus, "latencies_ms": latencies_ms,
            "iteration_spans": spans, "item_spans": item_spans,
            "attempted": attempted, "failed": failed, "failures": failures}


def _speeds(measured: dict, probe, normalized: bool) -> dict:
    """The host's mean speed over each iteration, and around each item
    (ITEM_WINDOW_S either side); none when not normalized."""
    spans = measured.pop("iteration_spans")
    item_spans = measured.pop("item_spans")
    if not normalized:
        return {}
    w = ITEM_WINDOW_S
    return {"speeds": [probe.mean_between(a, b) for a, b in spans],
            "item_speeds": [[probe.mean_between(a - w, b + w)
                             for a, b in items] for items in item_spans]}


def _pool2(scale, expected: dict) -> dict:
    """enumerate_regular(n, threads=2): wall, and CPU of this process
    plus its (reaped) pool workers."""
    from tourney import enumeration
    key = f"enumerate --n {scale.enum_n} --out F"
    want = json.loads(expected[key]["stdout"])
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    c0 = time.process_time()
    w0 = time.perf_counter()
    error = None
    try:
        corpus = enumeration.enumerate_regular(scale.enum_n, threads=2)
        got = [corpus.labeled_count, [cf.hex() for cf, _ in corpus.classes]]
        if got != [want["labeled_count"], want["keys"]]:
            error = "enumerate_regular(threads=2) differs from the reference"
    except Exception as exc:
        error = f"enumerate_regular(threads=2): {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - w0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (time.process_time() - c0
           + after.ru_utime - before.ru_utime
           + after.ru_stime - before.ru_stime)
    return {"pool2_wall_s": wall, "pool2_cpu_s": cpu, "attempted": 1,
            "failed": int(error is not None),
            "failures": [error] if error else []}


def main(argv: list[str]) -> int:
    # Set-up is normalized by the host's speed from here on (speed.py).
    setup_probe = speed.SpeedProbe(speed.INTERP)
    setup_probe.start()
    args = _parse(argv)
    _import_tourney(args.root)
    import numpy  # set-up includes the numpy import
    import tracer as tracing
    import workloads

    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer(args.workload)
        tracer.install()
    scale = workloads.SCALES[args.scale]
    bench = Path(__file__).resolve().parent
    workdir = bench / "out" / f"work-{args.result.stem}"
    refs = json.loads((bench / "reference.json").read_text())
    probe = setup_probe
    try:
        ops = workloads.build_ops(args.workload, scale, args.seed, workdir)
        result = {"t_ready": time.monotonic() - setup_probe.wall,
                  "setup_speed": setup_probe.mean_between(
                      0.0, time.perf_counter()),
                  "python": sys.version.split()[0],
                  "numpy": numpy.__version__}
        setup_probe.stop()
        if args.mode == "pool2":
            result.update(_pool2(scale, refs[args.scale]["enum-regular9"]
                                 ["ops"]))
        elif args.mode != "setup":
            expected = workloads.references_for(refs, args.scale,
                                                args.workload, args.seed)
            normalized = args.mode == "run"
            if normalized:
                probe = speed.SpeedProbe(speed.run_kernel(args.workload))
                probe.start()
            measured = _measure(ops, expected, args.seconds, tracer, probe)
            probe.stop()
            result.update(_speeds(measured, probe, normalized))
            result.update(measured)
        result["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
            - probe.kernel.nbytes) / 2**20
    finally:
        probe.stop()
        setup_probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        spans_path = bench / "out" / f"spans-{args.workload}-s{args.seed}.jsonl"
        tracer.write(spans_path)
        result["spans"] = str(spans_path)
        codes = 1 << math.comb(scale.sweep_n, 2)
        result["layers"] = tracing.layer_metrics(
            tracer.spans, len(result["walls"]), codes)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
