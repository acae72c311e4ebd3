"""Quick test of the benchmark itself: every workload at its tiny size, with
every known answer asserted, and BENCHMARK.json against what run.py
prints.

    python3 -m pytest perfbench/test_quick.py
"""
import json
import os
import time

import pytest

import run
import workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_verdicts(name, tmp_path):
    files, script = workloads.WORKLOADS[name](seed=3, tiny=True)
    for fname, obj in files.items():
        (tmp_path / fname).write_text(json.dumps(obj))
    env = dict(os.environ, PYTHONPATH=run.SRC)
    runner = run.Runner(str(tmp_path), env, time.monotonic() + 120)
    script(runner)
    assert runner.attempted > 0
    assert runner.failed == 0
    wall, build, query = run.pass_times([runner.timings])
    assert build > 0 and query > 0 and wall == build + query


def test_tracer_reports_every_layer(tmp_path):
    files, script = workloads.WORKLOADS["fan-charts"](seed=3, tiny=True)
    for fname, obj in files.items():
        (tmp_path / fname).write_text(json.dumps(obj))
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    env = dict(os.environ, PYTHONPATH=run.SRC)
    runner = run.Runner(str(tmp_path), env, time.monotonic() + 120, str(trace_dir))
    script(runner)
    assert runner.failed == 0
    agg = run.aggregate(runner.traces)
    assert agg["exactmath.fm.calls"] > 0 and agg["toricfan.comm_monoid.calls"] > 0
    assert agg["cli.busy_s"] > agg["cli.self_s"] > 0
    assert all(span[2] >= span[1] for t in runner.traces for span in t["spans"])


def test_known_answers_catch_a_wrong_verdict(tmp_path):
    (tmp_path / "p2.fan").write_text(json.dumps(workloads.P2))
    (tmp_path / "o2.div").write_text(json.dumps({"coefficients": {"2": 2}}))
    env = dict(os.environ, PYTHONPATH=run.SRC)
    runner = run.Runner(str(tmp_path), env, time.monotonic() + 60)
    wrong = workloads.points_are(workloads.P2, [0, 0, 3], 2, 3)
    runner.cmd(["section", "list", "p2.fan", "--divisor", "o2.div"],
               workloads.status(test=wrong))
    runner.cmd(["section", "list", "p2.fan", "--divisor", "o2.div"], workloads.status(), code=1)
    assert runner.failed == 2


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
