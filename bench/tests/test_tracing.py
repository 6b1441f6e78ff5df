"""Tests of the benchmark's own code: span analysis and patch hygiene.

Run from the repository root with `python3 -m pytest bench/tests`.
"""

import inspect
import json
import sys

import pytest

import child
import tracing


def test_self_time_subtracts_covered_child_time():
    spans = [
        (0.0, 10.0, -1),   # root
        (1.0, 4.0, 0),     # a
        (2.0, 3.0, 1),     # a's child
        (5.0, 7.0, 0),     # b
        (6.0, 8.0, 0),     # c, overlapping b: [5, 8] is covered once
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.0, 2.0])


def test_self_time_clips_children_to_the_parent_interval():
    spans = [(0.0, 2.0, -1), (1.5, 3.0, 0)]
    assert tracing.self_times(spans) == pytest.approx([1.5, 1.5])


def test_span_totals_sum_per_name_and_layer():
    trace = {"names": ["cli.main", "tensor.add", "tensor.mul"],
             "spans": [[0, 0.0, 10.0, -1], [1, 1.0, 2.0, 0], [2, 2.0, 4.0, 0],
                       [1, 5.0, 6.0, 0]]}
    totals = tracing.SpanTotals()
    totals.add(trace)
    assert totals.total["tensor.add"] == pytest.approx(2.0)
    assert totals.calls["tensor.add"] == 2
    assert totals.layer_self("tensor") == pytest.approx(4.0)
    assert totals.layer_self("cli") == pytest.approx(6.0)
    assert totals.spans == 4


def confmix_state():
    """Every attribute of every confmix module and of its classes."""
    state = {}
    for name, mod in sorted(sys.modules.items()):
        if name != "confmix" and not name.startswith("confmix."):
            continue
        for attr, value in vars(mod).items():
            state[(name, attr)] = value
            if inspect.isclass(value) and value.__module__.startswith("confmix"):
                for cattr, cvalue in vars(value).items():
                    state[(name, attr, cattr)] = cvalue
    return state


def assert_unpatched(before):
    after = confmix_state()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def gen(out):
    return ["gen", "--kind", "specialization", "--n-per-group", "20",
            "--seed", "3", "--out", str(out)]


def test_untraced_run_leaves_every_confmix_function_unpatched(tmp_path):
    import confmix.cli  # noqa: F401  (load every module before the snapshot)
    before = confmix_state()
    result = child.run(gen(tmp_path))
    assert result["code"] == 0
    assert_unpatched(before)


def test_traced_run_records_spans_and_restores_every_attribute(tmp_path):
    import confmix.cli  # noqa: F401
    before = confmix_state()
    trace_path = tmp_path / "gen.trace.json"
    assert child.run(gen(tmp_path), str(trace_path), "gen")["code"] == 0
    assert_unpatched(before)
    trace = json.loads(trace_path.read_text())
    assert trace["run"] == "gen"
    names = [trace["names"][s[0]] for s in trace["spans"]]
    assert names[0] == "cli.main"
    assert "graphs.generate_specialization_graph" in names
    assert "graphs.save_graph" in names


def test_traced_infer_counts_gcn_multiply_accumulates(tmp_path):
    graph = tmp_path / "specialization.json"
    assert child.run(gen(tmp_path))["code"] == 0
    run_dir = tmp_path / "run"
    assert child.run(["train", "--data", str(graph), "--seed", "1", "--rounds", "1",
                      "--max-epochs", "3", "--pretrain-epochs", "0",
                      "--out", str(run_dir)])["code"] == 0
    trace_path = tmp_path / "infer.trace.json"
    assert child.run(["infer", "--data", str(graph), "--weak", str(run_dir / "weak.json"),
                      "--strong", str(run_dir / "strong.json"), "--seed", "1",
                      "--out", str(run_dir)], str(trace_path), "infer")["code"] == 0
    counters = json.loads(trace_path.read_text())["counters"]
    n, f, hidden, classes = 40, 8, 32, 2
    # two layers: aggregate (n x n by n x width), then transform
    expected = n * n * f + n * f * hidden + n * n * hidden + n * hidden * classes
    assert counters["gcn_forwards"] == 1
    assert counters["gcn_macs"] == expected
    assert counters["aggregation_dense_macs"] == n * n * (f + hidden)
    assert counters["aggregation_columns"] == f + hidden
    assert counters["gated_nodes"] == n


def test_benchmark_json_lists_every_reported_metric():
    import run
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    assert listed == run.END_TO_END
    empty = {kind: [] for kind in ("train", "infer", "cost", "verify")}
    reported = {name: unit for name, (_, unit)
                in tracing.layer_metrics(empty, 40, 100, 3).items()}
    reported.update({"graphs.generate_s": "s", "trace.overhead_s": "s",
                     "trace.overhead_share": "ratio"})
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == reported
