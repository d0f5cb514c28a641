"""One benchmark process: import ellmult from the checkout, warm up, run a workload.

run.py starts this script in a fresh interpreter and reads the single JSON
line it prints last.  Every op calls `ellmult.cli.main(argv)` in this process
with stdout and stderr captured in memory, one op at a time (a closed loop
with one client and no threads).  Ops are timed around that call only; the
output checks run outside the timed region.

A run times the seed's block of ops in rounds: the whole block, in order,
once per round.  An untraced run goes on until --seconds have passed, with at
least MIN_ROUNDS rounds, and reports each op's median latency over them.  A
traced run times one untraced round and then one traced round of the block,
so its counts depend on the seed alone.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import resource
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import metrics
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"
MIN_ROUNDS = 3

Call = Callable[[Sequence[str]], Tuple[int, str]]
Check = Callable[[workloads.Op, int, str], workloads.Verdict]


def import_cli():
    """ellmult.cli from this checkout's src/, never from an installed copy."""
    if not (SRC / "ellmult" / "__init__.py").is_file():
        raise SystemExit(f"no ellmult package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ellmult
    import ellmult.cli

    if Path(ellmult.__file__).resolve().parent != (SRC / "ellmult").resolve():
        raise SystemExit(f"imported ellmult from {ellmult.__file__}, not from {SRC}")
    return ellmult.cli


def invoke(cli, argv: Sequence[str]) -> Tuple[int, str]:
    """Run the CLI in-process; returns its exit code and captured stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))  # looked up per call, so tracing wrappers apply
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def execute(op: workloads.Op, call: Call) -> Tuple[float, Any]:
    """Time one op; returns its latency and (exit code, stdout), or the exception it raised."""
    t0 = time.perf_counter()
    try:
        outcome = call(op.argv)
    except Exception as exc:  # a raising op is a failed op; the run goes on
        outcome = exc
    return time.perf_counter() - t0, outcome


def verdict(op: workloads.Op, outcome: Any, check: Check) -> workloads.Verdict:
    """The output checks' verdict; an op that raised, or whose output makes a check raise, fails."""
    if isinstance(outcome, Exception):
        return workloads.fail(f"raised {type(outcome).__name__}: {outcome}")
    try:
        with workloads.unlimited_int_digits():
            return check(op, *outcome)
    except Exception as exc:
        return workloads.fail(f"check raised {type(exc).__name__}: {exc}")


@dataclass
class Tally:
    """Per-round latencies, per-kind counts, failure reasons and the digest of ops run."""

    rounds: List[List[float]] = field(default_factory=list)
    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    reasons: List[str] = field(default_factory=list)
    digest: Any = field(default_factory=hashlib.sha256)
    digest_ops: int = 0
    reference: List[float] = field(default_factory=list)  # reference-loop times between ops

    def add(self, op: workloads.Op, result: workloads.Verdict, digested: bool) -> None:
        self.attempted[op.kind] += 1
        if not result.ok:
            self.failed[op.kind] += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{' '.join(op.argv)}: {result.reason}")
        if digested:
            self.digest.update(f"{op.kind}|{result.ok}|{result.digest}\n".encode())
            self.digest_ops += 1


def run_round(ops: Sequence[workloads.Op], call: Call, check: Check, tally: Tally, tracer: Optional[Tracer] = None) -> None:
    """Run every op of the block once, in order; the first round also feeds the digest.

    An op fails when it raises, exits non-zero, or fails a check; it still
    counts as attempted and its latency is kept.
    """
    latencies = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        latency, outcome = execute(op, call)
        latencies.append(latency)
        tally.add(op, verdict(op, outcome, check), not tally.rounds)
        tally.reference.extend(metrics.reference_s() for _ in range(1 + int(latency / metrics.REFERENCE_EVERY_S)))
    tally.rounds.append(latencies)


def run_rounds(ops: Sequence[workloads.Op], call: Call, check: Check, seconds: float, min_rounds: int) -> Tally:
    """At least min_rounds rounds; then more while another round still ends within `seconds`."""
    tally = Tally()
    start = time.perf_counter()
    while True:
        rounds = len(tally.rounds)
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed + elapsed / rounds > seconds:
            return tally
        run_round(ops, call, check, tally)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def layer_values(tracer: Tracer) -> Dict[str, float]:
    table = {"calls": tracer.calls, "busy_s": tracer.busy, "self_s": tracer.self_time}
    return {f"{function}.{kind}": table[kind].get(function, 0) for function, kind in metrics.LAYERS}


def split(tracer: Tracer, busy: float, top: int = 6) -> List[Tuple[str, float]]:
    """Functions with the largest busy time, as shares of the traced ops' latency."""
    ranked = sorted(tracer.busy.items(), key=lambda item: -item[1])
    return [(name, round(value / busy, 4)) for name, value in ranked if name != "cli.main"][:top]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() when the parent started us")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--max-ops", type=int, help="cut the block to this many ops")
    parser.add_argument("--min-rounds", type=int, default=MIN_ROUNDS)
    args = parser.parse_args(argv)

    # The benchmark's own preparation (golden table, closed-form periods) is
    # left out of setup_s, which is the program's import and warm-up ops.
    prepared = time.monotonic()
    workload = workloads.build(args.workload)
    warmup_ops = workload.warmup()
    preparation = time.monotonic() - prepared
    call = functools.partial(invoke, import_cli())
    warmup = [(op, execute(op, call)[1]) for op in warmup_ops]
    result: Dict[str, Any] = {"setup_s": time.monotonic() - args.spawned_at - preparation}
    warm = Tally()  # warm-up ops are checked, after setup_s is taken, and counted too
    for op, outcome in warmup:
        warm.add(op, verdict(op, outcome, workload.check), False)
    result["setup_speed"] = metrics.speed_factor([metrics.reference_s() for _ in range(metrics.SETUP_PASSES)])
    if args.setup_only:
        print(json.dumps(result))
        return 0

    ops = workload.ops(args.seed)[: args.max_ops]
    if isinstance(workload, workloads.MultiplesWorkload):
        import ellmult.curves

        workload.cross_check(ellmult.curves)

    if args.trace:
        plain = run_rounds(ops, call, workload.check, 0.0, 1)
        traced = Tally()
        tracer = Tracer()
        result["wrapped_functions"] = tracer.install()
        try:
            run_round(ops, call, workload.check, traced, tracer)
        finally:
            tracer.uninstall()
        spans_file = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(spans_file)
        summary = metrics.latency_summary(traced.rounds[0])
        layers = layer_values(tracer)
        layers.update(
            {
                "trace.busy_s": summary["busy_s"],
                "trace.ops_per_s": summary["ops_per_s"],
                "trace.untraced_ops_per_s": metrics.latency_summary(plain.rounds[0])["ops_per_s"],
            }
        )
        result.update(
            layers=layers,
            split=split(tracer, summary["busy_s"]),
            spans=sum(1 for span in tracer.spans if span is not None),
            spans_file=str(spans_file.relative_to(ROOT)),
        )
        tallies = (plain, traced)
    else:
        tally = run_rounds(ops, call, workload.check, args.seconds, args.min_rounds)
        result["latency"] = metrics.latency_summary(metrics.per_op_medians(tally.rounds))
        tallies = (tally,)

    counted = (warm, *tallies)
    kinds = sorted(set().union(*(t.attempted for t in counted)))
    result.update(
        block=len(ops),
        rounds=sum(len(t.rounds) for t in tallies),
        speed=metrics.speed_factor([s for t in tallies for s in t.reference]),
        attempted=sum(sum(t.attempted.values()) for t in counted),
        failed=sum(sum(t.failed.values()) for t in counted),
        by_kind={k: [sum(t.attempted[k] for t in counted), sum(t.failed[k] for t in counted)] for k in kinds},
        reasons=[r for t in counted for r in t.reasons][:5],
        digest=tallies[0].digest.hexdigest(),
        digest_ops=tallies[0].digest_ops,
        peak_rss_mib=peak_rss_mib(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
