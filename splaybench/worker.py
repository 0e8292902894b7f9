"""Run one workload in this (fresh) process and print its raw measurements.

Started by run.py, one process per workload run:

    python3 splaybench/worker.py --workload corpus --seed 1 --seconds 20 \
        --trace 0 --work <dir> [--size tiny] [--setup-only]

Set-up builds the workload's inputs from the seed.  Then passes repeat
while the next one is expected to end within --seconds (at least one
pass).  Each operation is timed on its own; its output check runs after
the timing stops, with tracing off.  Right after each operation, still
outside its timing, the worker times a fixed reference loop (about one
sample per 0.05 s of operation time, at least one), so that run.py can
tell how fast the host ran during each operation.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

#: Rounds of one reference sample, 4 to 8 ms on a 2-vCPU cloud VM.
REFERENCE_ROUNDS = 300
#: Operation time covered by one reference sample.
REFERENCE_EVERY_S = 0.05
#: Reference samples taken after a set-up-only run.
SETUP_REFERENCE_SAMPLES = 10
_REFERENCE_INPUT = np.random.default_rng(0).random(150)


def reference_sample() -> float:
    """Time a fixed loop of small numpy calls: the host's speed, not the program's.

    The mix (small-array numpy calls driven from Python) is that of the
    program's hot paths, so host slowdowns hit both alike.  The loop makes
    almost no garbage-collected objects, so what the program leaves on the
    heap hardly changes its time.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(REFERENCE_ROUNDS):
        y = np.sort(_REFERENCE_INPUT + i)
        acc += float(np.diff(y).max()) + float(np.abs(y - y.mean()).sum())
    return time.perf_counter() - start


def run_pass(workload, tracer) -> dict:
    latencies: list[float] = []
    reference: list[float] = []
    failures: list[str] = []
    jumps = 0
    workload.begin_pass()
    for label, call, check in workload.operations():
        if tracer is not None:
            tracer.enabled = True
        start = time.perf_counter()
        try:
            result = call()
            error = None
        except Exception as exc:  # a failing operation is counted, not fatal
            error = exc
        latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.enabled = False
        samples = [reference_sample()
                   for _ in range(max(1, round(latencies[-1] / REFERENCE_EVERY_S)))]
        reference.append(statistics.fmean(samples))
        if error is not None:
            failures.append(f"{label}: {type(error).__name__}: {error}")
            continue
        try:
            outcome = check(result)
        except Exception as exc:  # a check that cannot read the output fails it
            outcome = workloads.Check(False, 0, f"check raised {type(exc).__name__}: {exc}")
        del result
        jumps += outcome.jumps
        if not outcome.ok:
            failures.append(f"{label}: {outcome.detail}")
    record = {
        "wall_s": sum(latencies),
        "latencies_s": latencies,
        "reference_s": reference,
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures[:5],
        "jumps": jumps,
        "digest": workload.digest.hexdigest(),
    }
    if tracer is not None:
        spans, counters = tracer.drain()
        record["layers"] = tracing.layer_times(spans)
        record["counters"] = vars(counters)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed, Path(args.work), args.size)
    if args.setup_only:
        # the host's speed right after set-up, to scale the set-up time
        print(json.dumps({"reference_s": [reference_sample()
                                          for _ in range(SETUP_REFERENCE_SAMPLES)]}))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    passes, durations = [], []
    start = time.perf_counter()
    try:
        # stop before a pass that would end past --seconds (one pass at least);
        # a pass lasts longer than its wall_s, by its checks and reference samples
        while True:
            begun = time.perf_counter()
            passes.append(run_pass(workload, tracer))
            durations.append(time.perf_counter() - begun)
            if time.perf_counter() - start + statistics.median(durations) > args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    print(json.dumps({
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
