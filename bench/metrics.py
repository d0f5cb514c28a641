"""Metric names and units, the latency summaries every run reports, and the speed reference."""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Sequence, Tuple

# measured with tracing off
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mib", "MiB"),
)

# (function as <module>.<name>, kind); kind is calls, busy_s or self_s
LAYERS: Tuple[Tuple[str, str], ...] = (
    ("curves.add", "calls"),
    ("curves.add", "busy_s"),
    ("curves.multiply", "busy_s"),
    ("divpoly.ward_terms", "calls"),
    ("divpoly.ward_terms", "self_s"),
    ("divpoly.denominator_sequence", "busy_s"),
    ("heights.torsion_order", "calls"),
    ("heights.torsion_order", "busy_s"),
    ("heights.canonical_height", "calls"),
    ("heights.canonical_height", "self_s"),
    ("localdata.global_M", "busy_s"),
    ("analytic.period_data", "calls"),
    ("analytic.period_data", "self_s"),
    ("analytic.real_period", "calls"),
    ("analytic.real_period", "busy_s"),
    ("analytic.real_period_quadrature", "calls"),
    ("analytic.real_period_quadrature", "busy_s"),
    ("analytic.elliptic_log", "busy_s"),
    ("congruent.search_integral_points", "busy_s"),
    ("congruent.reproduce_table", "self_s"),
    ("congruent.resolve_N_threshold", "busy_s"),
    ("factorization.factor_int", "calls"),
    ("factorization.factor_int", "busy_s"),
    ("cli.main", "self_s"),
)

# the traced run's own figures: the traced round's summed latency, and its
# throughput against an untraced round of the same block (the overhead)
TRACE: Tuple[Tuple[str, str], ...] = (
    ("trace.busy_s", "s"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
)

PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    (f"{function}.{kind}", "count" if kind == "calls" else "s") for function, kind in LAYERS
) + TRACE

# ops beyond the reported tail latency
TAIL_BEYOND = 10


def per_op_medians(rounds: Sequence[Sequence[float]]) -> List[float]:
    """Each op's median latency over the rounds; rounds list the same block's ops in order."""
    return [statistics.median(times) for times in zip(*rounds)]


def latency_summary(latencies: Sequence[float]) -> Dict[str, float]:
    """Count, throughput, median and tail of op latencies.

    The tail is the highest percentile with at least TAIL_BEYOND samples
    beyond it; with too few samples it falls back to the maximum, and the
    percentile used is returned beside the value.
    """
    ordered: List[float] = sorted(latencies)
    n = len(ordered)
    busy = sum(ordered)
    if n > TAIL_BEYOND:
        tail, percentile = ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail, percentile = ordered[-1], 100.0
    return {
        "ops": n,
        "busy_s": busy,
        "ops_per_s": n / busy,
        "op_p50_s": statistics.median(ordered),
        "op_tail_s": tail,
        "tail_percentile": percentile,
    }


# On a shared host the same op runs 20% or more slower or faster from one
# minute to the next.  A fixed pure-Python loop, timed between ops and outside
# them, gauges how fast the machine ran: the speed factor is
# REFERENCE_NOMINAL_S over the loop's median time (above 1 on a faster
# machine), and a raw time times it is the time at nominal speed.  setup_s is
# scaled by a factor taken right after set-up, op timings by one from the loop
# passes between ops.  Ten-seed runs of every workload had narrower spreads
# scaled than raw (see NOTES.md); the run record keeps raw values and factors.
REFERENCE_ITERATIONS = 50_000
REFERENCE_NOMINAL_S = 0.005
REFERENCE_EVERY_S = 0.25  # one pass after each op, one more per this much op time
SETUP_PASSES = 20


def reference_s() -> float:
    """Time of one pass of the reference loop."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def speed_factor(samples: Sequence[float]) -> float:
    """Nominal over median reference time; a raw time times this is the time at nominal speed."""
    return REFERENCE_NOMINAL_S / statistics.median(samples)
