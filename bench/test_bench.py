"""Tests of the benchmark itself: output checks, input generation, tracing, smoke mode, layout.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    return worker.import_cli()


def edit_json(change):
    def corrupt(out):
        with workloads.unlimited_int_digits():
            doc = json.loads(out)
            change(doc)
            return json.dumps(doc)

    return corrupt


def _sequence_row(doc):
    doc["rows"][5]["D"] += 1


def _periods_omega(doc):
    # a change in the 25th digit is far above the 2^-(b-20) tolerance at 128 bits
    text = doc["omega_str"]
    doc["omega_str"] = text[:25] + ("1" if text[25] != "1" else "2") + text[26:]


# (workload, op builder, corruption of a correct stdout)
CORRUPTIONS = [
    ("table", lambda w: w.table_op(7), lambda out: out.replace("0.949741086265", "0.949741086266", 1)),
    ("table", lambda w: w.threshold_op(), edit_json(lambda d: d["bound"]["inputs"].update(branch2=55))),
    (
        "multiples",
        lambda w: w.op_for(w.golden[0], 2),
        edit_json(lambda d: d["heights"]["canonical"].update(value=d["heights"]["canonical"]["value"] + 1e-3)),
    ),
    ("multiples", lambda w: w.op_for(w.golden[0], 2), edit_json(lambda d: d["heights"].update(torsion_order=2))),
    ("multiples", lambda w: w.op_for(w.golden[0], 2), edit_json(lambda d: d["reports"][0].update(holds=False))),
    # wrong types make a check raise; the op fails and the run goes on
    ("multiples", lambda w: w.op_for(w.golden[0], 2), edit_json(lambda d: d["heights"]["canonical"].update(value=None))),
    ("multiples", lambda w: w.op_for(w.golden[0], 2), edit_json(lambda d: d["heights"]["canonical"].update(tolerance=0))),
    ("sequences", lambda w: w.eds_op(w.golden[0], 20), edit_json(_sequence_row)),
    ("periods", lambda w: w.periods_op(-25, 0, 128, 5), edit_json(_periods_omega)),
    ("periods", lambda w: w.periods_op(1, 1, 128, None), edit_json(lambda d: d.update(route_delta=1.0))),
    ("periods", lambda w: w.periods_op(1, 1, 128, None), edit_json(lambda d: d.update(route_delta=None))),
]


@pytest.mark.parametrize("name,make_op,corrupt", CORRUPTIONS)
def test_corrupted_output_is_counted_as_failed(cli, name, make_op, corrupt):
    workload = workloads.build(name)
    op = make_op(workload)
    rc, out = worker.invoke(cli, op.argv)
    real = worker.run_rounds([op], lambda argv: (rc, out), workload.check, 0.0, 1)
    assert sum(real.failed.values()) == 0, real.reasons
    bad = corrupt(out)
    assert bad != out
    tally = worker.run_rounds([op], lambda argv: (rc, bad), workload.check, 0.0, 1)
    assert tally.failed[op.kind] == 1 and tally.attempted[op.kind] == 1


def test_raising_and_nonzero_ops_are_counted_as_failed():
    workload = workloads.build("table")
    op = workload.table_op(5)

    def raising(argv):
        raise RuntimeError("boom")

    assert worker.run_rounds([op], raising, workload.check, 0.0, 1).failed[op.kind] == 1
    assert worker.run_rounds([op], lambda argv: (3, op.expect), workload.check, 0.0, 1).failed[op.kind] == 1


def test_rounds_repeat_the_block_and_feed_the_digest_once():
    workload = workloads.build("table")
    ops = workload.ops(3)
    tally = worker.run_rounds(ops, lambda argv: (0, ""), lambda op, rc, out: workloads.Verdict(True, "", "x"), 0.0, 3)
    assert len(tally.rounds) == 3 and all(len(latencies) == len(ops) for latencies in tally.rounds)
    assert sum(tally.attempted.values()) == 3 * len(ops) and tally.digest_ops == len(ops)
    assert metrics.per_op_medians([[1.0, 5.0], [3.0, 4.0], [2.0, 9.0]]) == [2.0, 5.0]


def test_negative_fraction_is_passed_with_equals(cli):
    workload = workloads.build("multiples")
    ops = (op for seed in range(100) for op in workload.ops(seed))
    op = next(op for op in ops if any(a.startswith("--y=-") and "/" in a for a in op.argv))
    rc, out = worker.invoke(cli, op.argv)
    assert rc == 0 and workload.check(op, rc, out).ok


def test_chord_tangent_multiples_agree_with_curves_multiply():
    import ellmult.curves

    workload = workloads.build("multiples")
    for P, n in workload.pool:
        workload.op_for(P, n)
    assert workload.cross_check(ellmult.curves) == len(workload.pool) == 199


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_op_list_is_fixed_by_the_seed(name):
    workload = workloads.build(name)
    first = workload.ops(5)
    assert first == workload.ops(5)
    assert first != workload.ops(6)
    assert first[: len(workload.first())] == workload.first()
    # values ride with their flag (--y=-3/4): argparse reads a bare -3/4 as a flag
    assert not any(arg in ("--A", "--B", "--x", "--y") for op in first for arg in op.argv)


def test_periods_mix_follows_its_shares():
    workload = workloads.build("periods")
    for seed in range(20):
        ops = [op for j, op in enumerate(workload.ops(seed)) if j >= len(workload.first()) and j % 3 != 2]
        for bits, share in workload.PRECISIONS:
            count = sum(op.expect[0] == bits for op in ops)
            assert abs(count - len(ops) * share) <= 2  # every block is an even sample of the mix


def test_latency_summary_tail():
    summary = metrics.latency_summary([float(i) for i in range(1, 101)])
    assert summary["op_tail_s"] == 90.0 and summary["tail_percentile"] == 90.0
    assert summary["op_p50_s"] == 50.5
    few = metrics.latency_summary([1.0, 2.0, 3.0])
    assert few["op_tail_s"] == 3.0 and few["tail_percentile"] == 100.0


def test_speed_factor_is_nominal_over_median():
    slow = [2 * metrics.REFERENCE_NOMINAL_S] * 3 + [100.0]  # one outlier does not move the median
    assert metrics.speed_factor(slow) == 0.5
    assert 0 < metrics.reference_s() < 1


def test_tracer_wraps_every_alias_and_restores(cli):
    import ellmult.curves
    import ellmult.divpoly
    import ellmult.heights
    import ellmult.localdata

    original = ellmult.curves.add
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = ellmult.curves.add
        assert wrapped is not original
        for module in (ellmult.heights, ellmult.divpoly, ellmult.localdata):
            assert module.add is wrapped
        assert ellmult.cli.cmd_eds.__module__ == "ellmult.cli" and not hasattr(ellmult.cli.cmd_eds, "__wrapped__")
        tracer.op_id = 0
        rc, _ = worker.invoke(cli, ("eds", "--A=-25", "--B=0", "--x=-4", "--y=6", "--n-max", "10"))
    finally:
        tracer.uninstall()
    assert rc == 0 and ellmult.curves.add is original and ellmult.heights.add is original
    spans = [span for span in tracer.spans if span is not None]
    names = {span[3] for span in spans}
    assert {"cli.main", "divpoly.ward_terms", "divpoly.denominator_sequence", "curves.add"} <= names
    assert not any(name.split(".")[-1].startswith("_") for name in names)
    by_id = {span[1]: span for span in spans}
    for op_id, span_id, parent, name, start, end in spans:
        if parent >= 0:
            assert by_id[parent][4] <= start <= end <= by_id[parent][5]
    assert tracer.calls["divpoly.denominator_sequence"] == 1
    assert tracer.self_time["cli.main"] <= tracer.busy["cli.main"]


def test_traced_counts_repeat_for_the_same_block(cli):
    workload = workloads.build("multiples")
    ops = [workload.op_for(workload.golden[0], 1), workload.op_for(workload.golden[1], 2)]
    call = lambda argv: worker.invoke(cli, argv)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            worker.run_round(ops, call, workload.check, worker.Tally(), tracer)
        finally:
            tracer.uninstall()
        counts.append(dict(tracer.calls))
    assert counts[0] == counts[1] and counts[0]["heights.torsion_order"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)


def test_smoke_mode():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr
    for name, unit in metrics.END_TO_END + metrics.PER_LAYER:
        assert f"{name} " in done.stdout and f" {unit}" in done.stdout
    assert "error_rate" in done.stdout


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "table", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
