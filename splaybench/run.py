"""splaysim benchmark: one seeded workload per call, metrics by name and unit.

    python3 splaybench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; the program is
imported from ``src/``.  With ``--trace 0`` the end-to-end metrics of
BENCHMARK.json are measured; with ``--trace 1`` the per-layer ones, from an
untraced and a traced process that share the time.  End-to-end times are
scaled to a reference host speed (see ``host_scale``).  Each workload runs in a
fresh worker process with BLAS/OpenMP threads capped at one.  Human-readable
lines come first; the last line is the JSON result.  A full record (all
metrics, output digest, provenance) is written to
``.splaybench/results/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
STATE = ROOT / ".splaybench"

WORKLOADS = ("corpus", "perturbed_cli", "large_n")
#: Time of one worker reference sample on the reference host.  Times are
#: reported as they would read on a host that runs the sample this fast;
#: changing this constant rescales every reported time.
REFERENCE_SAMPLE_S = 0.006
SETUP_SAMPLES = 11
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run the worker to completion; return its JSON line and wall time."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], env=worker_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} ran past the time budget") from None
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def quantile(values, q: float) -> float:
    """The q-quantile (q a fraction, to whole percent), inclusive interpolation."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def host_scale(reference_s) -> float:
    """Factor that brings a time to the reference host's speed.

    The host's speed drifts by 1.5x and more over seconds to minutes.  The
    reference samples a worker takes right after an operation (or after
    set-up) measure that speed; their mean time, against
    REFERENCE_SAMPLE_S, scales the time they were taken with.
    """
    return REFERENCE_SAMPLE_S / statistics.fmean(reference_s)


def scaled_latencies(pass_record: dict) -> list[float]:
    """The pass's operation times, each scaled by the samples taken after it."""
    return [t * host_scale([r])
            for t, r in zip(pass_record["latencies_s"], pass_record["reference_s"])]


def end_to_end(opts, deadline, work) -> tuple[dict, dict]:
    base = ["--workload", opts.workload, "--seed", str(opts.seed), "--size", opts.size]
    setups, raw_setups = [], []
    for k in range(SETUP_SAMPLES):
        done, wall = spawn(base + ["--seconds", "0", "--trace", "0", "--setup-only",
                                   "--work", str(work / f"setup_{k}")], deadline)
        raw = wall - sum(done["reference_s"])
        raw_setups.append(raw)
        setups.append(raw * host_scale(done["reference_s"]))
    run, _ = spawn(base + ["--seconds", str(opts.seconds), "--trace", "0",
                           "--work", str(work / "run")], deadline)
    passes = run["passes"]
    scaled = [scaled_latencies(p) for p in passes]
    # every pass runs the same items, so each item is first reduced to its
    # median over the passes; the percentiles are taken over the items
    items = [statistics.median(lat) for lat in zip(*scaled)]
    metrics = {
        "wall_s": statistics.median(sum(lat) for lat in scaled),
        "item_p50_ms": 1000.0 * quantile(items, 0.50),
        "item_p90_ms": 1000.0 * quantile(items, 0.90),
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    info = {"passes": len(passes), "items": len(items), "setup_samples": setups,
            "raw_setup_s": statistics.median(raw_setups),
            "raw_wall_s": statistics.median(p["wall_s"] for p in passes),
            "pass_wall_s": [p["wall_s"] for p in passes],
            "pass_scaled_wall_s": [sum(lat) for lat in scaled]}
    return metrics, summarize(run, info)


def per_layer(opts, deadline, work) -> tuple[dict, dict]:
    base = ["--workload", opts.workload, "--seed", str(opts.seed), "--size", opts.size,
            "--seconds", str(opts.seconds / 2.0)]
    plain, _ = spawn(base + ["--trace", "0", "--work", str(work / "plain")], deadline)
    traced, _ = spawn(base + ["--trace", "1", "--work", str(work / "traced")], deadline)
    tp = traced["passes"]
    first = tp[0]
    counters = first["counters"]
    metrics = {}
    for name in LAYER_NAMES:
        per_pass = [p["layers"].get(name, (0, 0.0, 0.0)) for p in tp]
        metrics[f"{name}.calls"] = per_pass[0][0]
        metrics[f"{name}.total_s"] = statistics.median(x[1] for x in per_pass)
        metrics[f"{name}.self_s"] = statistics.median(x[2] for x in per_pass)
    jumps, samples = counters["jumps"], counters["samples"]
    validated = counters["validated_ns"]
    as_phases = first["layers"].get("circle.as_phases", (0, 0.0, 0.0))[0]
    write_s = sum(p["layers"].get(f"sim.write_{kind}_csv", (0, 0.0, 0.0))[1]
                  for p in tp for kind in ("trajectory", "events"))
    read_s = sum(p["layers"].get("sim.read_trajectory_csv", (0, 0.0, 0.0))[1] for p in tp)
    written = sum(p["counters"]["csv_bytes_written"] for p in tp)
    read = sum(p["counters"]["csv_bytes_read"] for p in tp)
    metrics.update({
        "sim.jumps": jumps,
        "sim.samples": samples,
        "sim.samples_per_jump": samples / jumps if jumps else 0.0,
        "prc.validations_per_distinct_n":
            len(validated) / len(set(validated)) if validated else 0.0,
        "circle.as_phases.calls_per_jump": as_phases / jumps if jumps else 0.0,
        "sim.csv_bytes_written": counters["csv_bytes_written"],
        "sim.csv_write_mb_per_s": written / write_s / 1e6 if write_s else 0.0,
        "sim.csv_read_mb_per_s": read / read_s / 1e6 if read_s else 0.0,
        "trace.overhead_s": (
            statistics.median(sum(scaled_latencies(p)) for p in tp)
            - statistics.median(sum(scaled_latencies(p)) for p in plain["passes"])),
    })
    info = {"untraced_passes": len(plain["passes"]), "traced_passes": len(tp)}
    return metrics, summarize({"passes": plain["passes"] + tp, "numpy": traced["numpy"]}, info)


def summarize(run: dict, info: dict) -> dict:
    passes = run["passes"]
    info.update({
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "failures": [f for p in passes for f in p["failures"]][:10],
        "digest_sha256": passes[0]["digest"],
        "digest_jumps": passes[0]["jumps"],
        "digest_repeats_every_pass": len({(p["digest"], p["jumps"]) for p in passes}) == 1,
        "numpy": run["numpy"],
    })
    return info


def provenance(opts, numpy_version: str) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "splaysim").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "workload": opts.workload,
        "seed": opts.seed,
        "seconds": opts.seconds,
        "size": opts.size,
        "worker_thread_env": {var: worker_env()[var] for var in THREAD_VARS},
    }


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the benchmark's own tests")
    opts = parser.parse_args(argv)
    if not opts.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "splaysim" / "__init__.py").is_file():
        print(f"splaybench: no splaysim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    units = load_spec()["per_layer" if opts.trace else "end_to_end"]
    work = STATE / "work" / f"{opts.workload}-{opts.seed}-{opts.trace}-{os.getpid()}"
    try:
        measure = per_layer if opts.trace else end_to_end
        metrics, info = measure(opts, deadline, work)
    except BenchError as exc:
        print(f"splaybench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    mismatch = set(units) ^ set(metrics)
    if mismatch:
        print(f"splaybench: metrics and BENCHMARK.json disagree on {sorted(mismatch)}",
              file=sys.stderr)
        return 1
    result = {
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"result": result, "details": info, "provenance": provenance(opts, info["numpy"])}
    out = STATE / "results" / f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {opts.workload}  seed {opts.seed}  trace {opts.trace}  size {opts.size}")
    for name, unit in units.items():
        print(f"  {name:<44} {metrics[name]:>14.6g} {unit}")
    rate = info["failed"] / info["attempted"]
    print(f"  {'fail_rate':<44} {rate:>14.6g} ratio "
          f"({info['failed']} failed of {info['attempted']} attempted)")
    for failure in info["failures"]:
        print(f"  failure: {failure}")
    for name in ("wall_s", "setup_s"):
        if f"raw_{name}" in info:
            print(f"  {name + ' unscaled (host speed as measured)':<44} "
                  f"{info[f'raw_{name}']:>14.6g} s")
    print(f"  digest sha256 {info['digest_sha256']} over {info['digest_jumps']} jumps")
    print(f"  record {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
