"""Benchmark of the ellmult CLI: one workload, one seed, one run.

    python3 bench/run.py --workload {table,multiples,sequences,periods} \
        --seed N --seconds S --trace {0,1}
    python3 bench/run.py --smoke

With --trace 0 the run prints every end-to-end metric; with --trace 1 it
prints every per-layer metric from a separately traced pass.  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics; the line before it, starting with "record ", holds the run record
(machine, versions, seed, source digest, per-kind counts, correctness digest).
See bench/NOTES.md for the workloads, layers and metrics.

The ops run in a worker process (bench/worker.py) started in a fresh
interpreter.  setup_s is the median over PROBES extra workers that stop after
set-up and the worker that goes on to run the ops.  Timing metrics are scaled
to a nominal machine speed gauged by a reference loop (see metrics.py); the
run record keeps the raw values and the scale factors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

import metrics
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
PROBES = 2
# a run, probes included, is cut off after this long; the contract allows 180 s
DEADLINE_S = 170
SMOKE_OPS = 3


class BenchError(RuntimeError):
    pass


def spawn(args: List[str], deadline: float) -> dict:
    """Start a worker, wait for it until `deadline` (monotonic), and return the JSON object it printed last."""
    now = time.monotonic()
    timeout = deadline - now
    if timeout <= 0:
        raise BenchError(f"no time left within {DEADLINE_S} s to start a worker")
    command = [sys.executable, str(WORKER), *args, "--spawned-at", repr(now)]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"worker still running after {timeout:.0f} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {done.returncode}")
    return json.loads(lines[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest() -> str:
    """sha256 over the package sources, standing in for a commit where there is no git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def run_record(args: argparse.Namespace, worker: dict, setups: List[dict]) -> dict:
    import mpmath
    import numpy

    attempted, failed = worker["attempted"], worker["failed"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "commit": commit(),
        "source_digest": source_digest(),
        "by_kind": worker["by_kind"],
        "error_rate": failed / attempted,
        "failures": worker["reasons"],
        "digest": worker["digest"],
        "digest_ops": worker["digest_ops"],
        "setup_samples_raw_s": [probe["setup_s"] for probe in setups],
        "setup_speed_factors": [probe["setup_speed"] for probe in setups],
        "block": worker["block"],
        "rounds": worker["rounds"],
        "speed_factor": worker["speed"],
        "peak_rss_mib": worker["peak_rss_mib"],
    }
    if "latency" in worker:
        record["latency_raw"] = worker["latency"]
    for key in ("wrapped_functions", "spans", "spans_file", "split"):
        if key in worker:
            record[key] = worker[key]
    return record


def run(args: argparse.Namespace, probes: int = PROBES, smoke: bool = False) -> dict:
    """One run: probes, then the measuring worker; prints the lines and returns the result."""
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if smoke:
        base += ["--max-ops", str(SMOKE_OPS), "--min-rounds", "1"]
    setups = [] if args.trace else [spawn(base + ["--setup-only"], deadline) for _ in range(probes)]
    worker = spawn(base + ["--trace", str(args.trace)], deadline)
    setups.append(worker)

    if args.trace:
        values = worker["layers"]
        wanted = metrics.PER_LAYER
    else:
        latency, speed = worker["latency"], worker["speed"]
        values = {
            "setup_s": statistics.median(probe["setup_s"] * probe["setup_speed"] for probe in setups),
            "ops_per_s": latency["ops_per_s"] / speed,
            "op_p50_s": latency["op_p50_s"] * speed,
            "op_tail_s": latency["op_tail_s"] * speed,
            "peak_rss_mib": worker["peak_rss_mib"],
        }
        wanted = metrics.END_TO_END
    result = {
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted},
    }
    record = run_record(args, worker, setups)
    for name, unit in wanted:
        note = ""
        if name == "op_tail_s":
            note = f"  (p{latency['tail_percentile']:.1f} of {latency['ops']} ops)"
        print(f"{name:48s} {values[name]:.6g} {unit}{note}")
    if not args.trace:
        print(f"{'speed factor':48s} {speed:.4g}  (raw times times this; see metrics.py)")
    print(f"{'error_rate':48s} {record['error_rate']:.6g} ratio  ({worker['failed']} of {worker['attempted']} ops)")
    if args.trace:
        overhead = values["trace.untraced_ops_per_s"] / values["trace.ops_per_s"] - 1
        print(f"{'tracing overhead':48s} {100 * overhead:.1f} %  (untraced against traced ops_per_s)")
        for name, share in worker["split"]:
            print(f"{'share of op time: ' + name:48s} {100 * share:.1f} %")
    print(f"{'digest':48s} {worker['digest'][:16]}  (the block's {worker['digest_ops']} ops)")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return result


def smoke() -> int:
    """A few ops of every workload, untraced then traced; every metric must appear with its unit."""
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=1, seconds=1.0, trace=trace)
            result = run(args, probes=0, smoke=True)
            expected = dict(metrics.PER_LAYER if trace else metrics.END_TO_END)
            got = {key: entry["unit"] for key, entry in result["metrics"].items()}
            if got != expected:
                problems.append(f"{name} trace={trace}: metrics {got} != {expected}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{name} trace={trace}: {result['failed']} of {result['attempted']} ops failed")
    for problem in problems:
        print("SMOKE FAILURE: " + problem, file=sys.stderr)
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the benchmark's own smoke check")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ellmult" / "__init__.py").is_file():
        print(f"bench: no ellmult sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None or args.seed is None or args.seconds is None:
            parser.error("--workload, --seed and --seconds are required")
        run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
