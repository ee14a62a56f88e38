"""Tests of the benchmark itself, on workloads shrunk to a few sentences.

Run from the root of a checkout: python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import copytag.tagging
import harness
import run as bench_run
import tracing
from workloads import WORKLOADS

BENCH = Path(bench_run.__file__).resolve().parent
ROOT = BENCH.parent

TINY = {
    "ner-k100": dict(db_size=40, train_size=20, dev_size=4, neighbors=5,
                     train_neighbors=3, chunk_size=4, sweep_size=2),
    "suffix-l40-dp": dict(sent_len=8, db_size=30, train_size=10, dev_size=3,
                          neighbors=4, train_neighbors=3, chunk_size=3,
                          sweep_size=2)
}


def tiny(name):
    return replace(WORKLOADS[name], **TINY[name])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_prints_every_metric_with_its_unit(name, trace, capsys):
    result, _ = harness.run(tiny(name), seed=5, seconds=0.1, trace=trace)
    bench_run.print_result(result)
    lines = capsys.readouterr().out.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    specs = harness.PER_LAYER if trace else [(n, u) for n, u, _ in harness.END_TO_END]
    assert list(last["metrics"]) == [n for n, _ in specs]
    for metric, unit in specs:
        assert last["metrics"][metric]["unit"] == unit
        assert any(
            line.startswith(f"{name} {metric} ") and line.endswith(f" {unit}")
            for line in lines
        ), metric
    if not trace:
        assert all(entry["value"] > 0 for entry in last["metrics"].values())
    else:
        assert last["metrics"]["trace.coverage_min"]["value"] >= harness.COVERAGE_FLOOR


def _relabel_one(monkeypatch, target):
    """Within the query passes, make the second `target`-decode tagging come
    back with one token relabeled, as a decoder defect would: labels, names
    and decode result agree with each other."""
    original_tag = copytag.tagging.Tagger.tag
    original_pass = harness.Run.query_pass
    calls = []
    in_pass = []

    def query_pass(self, *args, **kwargs):
        in_pass.append(True)
        try:
            return original_pass(self, *args, **kwargs)
        finally:
            in_pass.pop()

    def tag(self, sentence, decode="marginal", **kwargs):
        tagged = original_tag(self, sentence, decode=decode, **kwargs)
        if decode != target or not in_pass:
            return tagged
        calls.append(sentence)
        if len(calls) != 2:
            return tagged
        types = self.db.vocab.types
        ids = list(tagged.label_ids)
        ids[0] = (ids[0] + 1) % len(types)
        result = tagged.decode
        if result is not None:
            result = replace(result, labels=tuple(ids))
        return replace(tagged, label_ids=tuple(ids),
                       label_names=tuple(types[i] for i in ids), decode=result)

    monkeypatch.setattr(harness.Run, "query_pass", query_pass)
    monkeypatch.setattr(copytag.tagging.Tagger, "tag", tag)


@pytest.mark.parametrize("decode", ["marginal", "dp"])
def test_a_relabeled_token_fails_the_checks(decode, monkeypatch):
    clean, _ = harness.run(tiny("ner-k100"), seed=5, seconds=0.1, trace=False)
    assert clean["fail_ratio"] == 0
    _relabel_one(monkeypatch, decode)
    result, _ = harness.run(tiny("ner-k100"), seed=5, seconds=0.1, trace=False)
    assert not result["correct"]
    assert result["failed"] >= 1 and result["fail_ratio"] > 0
    assert any(p.startswith(f"tag_{decode}:") for p in result["problems"])


def test_same_seed_gives_same_inputs_and_outputs():
    first, _ = harness.run(tiny("ner-k100"), seed=9, seconds=0.1, trace=False)
    again, _ = harness.run(tiny("ner-k100"), seed=9, seconds=0.1, trace=False)
    other, _ = harness.run(tiny("ner-k100"), seed=10, seconds=0.1, trace=False)
    assert first["digests"] == again["digests"]
    assert first["digests"]["db"] != other["digests"]["db"]
    for key in ("checkpoint", "predictions_marginal", "predictions_dp", "explain",
                "sweep_csv"):
        assert key in first["digests"]


def test_tracing_leaves_outputs_alone_and_restores_the_program():
    plain, _ = harness.run(tiny("suffix-l40-dp"), seed=3, seconds=0.1, trace=False)
    traced, tracer = harness.run(tiny("suffix-l40-dp"), seed=3, seconds=0.1, trace=True)
    shared = plain["digests"].keys() & traced["digests"].keys()
    assert {"checkpoint", "predictions_marginal", "predictions_dp", "explain"} <= shared
    for key in shared:
        assert traced["digests"][key] == plain["digests"][key], key
    assert not hasattr(copytag.tagging.Tagger.tag, "__wrapped__")
    assert not hasattr(copytag.tagging.assemble_neighbor_set, "__wrapped__")
    assert tracer.spans and all(end >= start for _, start, end, _ in tracer.spans)


def test_self_times_subtract_direct_children_only():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1]]
    assert tracing.self_times(spans) == [7.0, 2.0, 1.0]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        harness.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(harness.PER_LAYER)
    assert spec["paths"] == [BENCH.name]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    child = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "ner-k100",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
