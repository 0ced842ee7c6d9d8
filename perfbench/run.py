"""Run one workload of the isinglab benchmark and print its metrics.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 25 --trace 0

The program is imported from `src/` of the checkout this file sits in.
With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
wraps every layer's public functions (tracing.py) and reports the per-layer
metrics instead, and writes its spans to perfbench/out/.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

Rounds of the workload's operations repeat until the next round would end
more than half a round past --seconds; every run completes at least one
round, and always whole rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread: a workload is one process and one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3   # set-ups per run: one here, two in fresh processes


def setup(name: str, seed: int, small: bool = False):
    """Import isinglab, make the workload's inputs from the seed and fill
    the per-process caches; returns (workload, seconds taken)."""
    t0 = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import isinglab
    if not Path(isinglab.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"isinglab imported from {isinglab.__file__}, "
                          f"not from {SRC}")
    import workloads
    wl = workloads.setup(name, seed, small)
    return wl, time.perf_counter() - t0


def _setup_in_fresh_process(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_rounds(wl, seconds: float, tracer=None, known_failures=(),
               midway=None):
    """Whole rounds of the workload's operations; returns the tallies.

    midway, if given, runs once between two rounds after a third of
    `seconds` has passed; its time does not count against `seconds`."""
    latencies: list[float] = []
    by_label: dict[str, list[float]] = {}
    round_walls: list[float] = []
    failed_labels: list[str] = []
    attempted = 0
    reported = set()
    start = time.perf_counter()
    paused = 0.0
    while True:
        wall = 0.0
        for op in wl.ops:
            sid = tracer.open("bench.op:" + op.label, "bench.op") \
                if tracer else None
            t0 = time.perf_counter()
            try:
                result = op.call()
                error = None
            except Exception:   # the program failed this operation
                error = traceback.format_exc()
            dt = time.perf_counter() - t0
            if tracer:
                tracer.close(sid)
                tracer.flush_factors()
            if error is None:
                try:
                    ok = bool(op.check(result))
                except Exception:   # an answer the check cannot read
                    ok, error = False, traceback.format_exc()
            else:
                ok = False
            attempted += 1
            latencies.append(dt)
            by_label.setdefault(op.label, []).append(dt)
            wall += dt
            if not ok:
                failed_labels.append(op.label)
                if op.label not in reported:
                    reported.add(op.label)
                    print(f"operation {op.label} failed"
                          + (f":\n{error}" if error else " its check"),
                          file=sys.stderr)
        round_walls.append(wall)
        elapsed = time.perf_counter() - start - paused
        if elapsed + 0.5 * wall > seconds:
            break
        if midway is not None and elapsed >= seconds / 3:
            t0 = time.perf_counter()
            midway()
            midway = None
            paused += time.perf_counter() - t0
    correct = set(failed_labels) <= set(known_failures)
    per_label = {lab: statistics.median(v) for lab, v in by_label.items()}
    return {"attempted": attempted, "failed": len(failed_labels),
            "failed_labels": sorted(set(failed_labels)), "correct": correct,
            "latencies": latencies, "round_walls": round_walls,
            "op_medians": per_label}


def end_to_end(tally, setup_samples) -> dict:
    lat = tally["latencies"]
    p99 = statistics.quantiles(lat, n=100, method="inclusive")[98] \
        if len(lat) > 1 else lat[0]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(tally["round_walls"]), "s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_p99_s": (p99, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "isinglab" / "__init__.py").is_file():
        print(f"isinglab sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        wl, first = setup(args.workload, args.seed)
    except (ImportError, ValueError) as ex:
        print(f"set-up failed: {ex}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(first))
        return 0
    import workloads
    OUT.mkdir(exist_ok=True)
    # Set-up is sampled before, during and after the rounds, so that the
    # median does not rest on one moment of a machine whose speed drifts.
    samples = [first]

    def probe():
        samples.append(_setup_in_fresh_process(args.workload, args.seed))
    wl.prepare()
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        tally = run_rounds(wl, args.seconds, tracer,
                           workloads.KNOWN_FAILURES.get(args.workload, ()),
                           midway=None if args.trace else probe)
    finally:
        if tracer:
            tracer.uninstall()
    while not args.trace and len(samples) < SETUP_SAMPLES:
        probe()
    rounds = len(tally["round_walls"])
    if tracer:
        metrics = tracer.per_layer(rounds)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl", {
            "workload": args.workload, "seed": args.seed, "rounds": rounds,
            "round_wall_s": statistics.median(tally["round_walls"])})
    else:
        metrics = end_to_end(tally, samples)
    result = {"correct": tally["correct"], "attempted": tally["attempted"],
              "failed": tally["failed"], "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, rounds=rounds, setup_samples=samples,
                  failed_labels=tally["failed_labels"],
                  round_walls=tally["round_walls"],
                  op_medians=tally["op_medians"])
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
