"""Tests of the benchmark itself: tiny ladders, and that every check bites.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import client  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Doc, Op, Workload  # noqa: E402

import gradedlie.cli  # noqa: E402
from gradedlie import documents  # noqa: E402

TINY = 0.1


def tiny_run(name, tmp_path, seed=7):
    workload = workloads.build(name, seed, TINY)
    c = client.Client(workload, tmp_path)
    c.loop(0, count=len(workload.ops))
    return workload, c


@pytest.mark.parametrize("name", ["transfer", "witness", "wide"])
def test_tiny_ladder_passes_every_check(name, tmp_path):
    workload, c = tiny_run(name, tmp_path)
    assert c.attempted == len(workload.ops)
    assert c.broken == []
    assert c.failed == 0
    if name == "transfer":
        assert client.oracle_mismatches(workload, c.outputs) == []


def test_tiny_documents_ladder_passes_and_probes_invalid_edits(tmp_path):
    workload, c = tiny_run("documents", tmp_path)
    assert c.attempted == len(workload.ops)
    assert c.broken == []
    assert c.failed == 0
    assert workload.probe
    for op in workload.probe:
        assert workload.docs[op.doc].invalid and op.command != "validate"
    for op in workload.ops:
        assert op.command == "validate" or not workload.docs[op.doc].invalid
    probed, _ = c.probe()
    assert probed == len(workload.probe)
    assert {doc.name for doc in workload.docs} >= {
        name for name, _ in documents.bundled_documents()}


def test_inputs_repeat_for_a_seed_and_parse():
    a = workloads.build("witness", 3, TINY)
    b = workloads.build("witness", 3, TINY)
    assert a.inputs_digest() == b.inputs_digest()
    assert a.inputs_digest() != workloads.build("witness", 4, TINY).inputs_digest()
    for doc in a.docs:
        documents.parse_document(doc.text)


def test_symplectic_labels_are_renamed():
    assert workloads.document_labels(["g1", "v1", "g1^"]) == ["g1", "v1", "g1_"]
    with pytest.raises(ValueError):
        workloads.document_labels(["g^", "g_"])


def test_pinned_digests_catch_a_corrupted_digest(tmp_path, monkeypatch):
    pins = tmp_path / "pins.json"
    (tmp_path / "docs").mkdir()
    workload, c = tiny_run("transfer", tmp_path / "docs")
    good = {"inputs": workload.inputs_digest(),
            "results": client.leading_digest(c.sequence)}
    monkeypatch.setattr(client, "PINS", pins)
    pins.write_text(json.dumps({"transfer": {"7": good}}))
    assert client.pinned_problems(workload, 7, c.sequence) == []
    assert client.pinned_problems(workload, 8, c.sequence) == []
    for field in good:
        corrupted = dict(good, **{field: "0" * 64})
        pins.write_text(json.dumps({"transfer": {"7": corrupted}}))
        assert len(client.pinned_problems(workload, 7, c.sequence)) == 1


def test_a_changed_result_between_passes_breaks_the_run(tmp_path):
    workload, c = tiny_run("transfer", tmp_path)
    op = workload.ops[0]
    outcome = client.call_main(op.argv(c.paths[op.doc]))
    report = json.loads(outcome.stdout)
    entry = next(f for f in report["findings"]
                 if f["kind"] == "transfer-bracket")
    entry["value"] = entry["value"] + " + x1"
    outcome.stdout = json.dumps(report)
    c.check(op, outcome)
    assert any("digest changed" in b for b in c.broken)


def test_a_failed_oracle_comparison_is_reported(tmp_path):
    workload, c = tiny_run("transfer", tmp_path)
    for report in c.outputs.values():
        for f in report["findings"]:
            if f["kind"] == "transfer-bracket" and f["arity"] == 3:
                f["value"] = "0"
    problems = client.oracle_mismatches(workload, c.outputs)
    assert problems and "oracle disagrees" in problems[0]


def test_violation_notes_and_statuses_fail_an_op():
    workload = Workload("transfer", [Doc("t", "")], [], [])
    op = Op(0, "transfer", 4)
    note = {"kind": "note", "text": "re-verified: strong homotopy axioms and "
            "morphism relations to arity 4: 2 violations"}

    def outcome(status, findings):
        return workloads.Outcome(0, json.dumps(
            {"command": "transfer", "status": status, "findings": findings,
             "seconds": 0}), "")
    assert workloads.op_failures(workload, op, outcome("PASS", [])) == []
    assert workloads.op_failures(workload, op, outcome("FAIL", []))
    assert workloads.op_failures(workload, op, outcome("PASS", [note]))
    raised = workloads.Outcome(None, "", "", "AssertionError: x")
    assert workloads.op_failures(workload, op, raised)


def test_the_known_bad_document_is_caught(tmp_path):
    text = dict(documents.bundled_documents())["nocontraction"]
    bad = text.replace("  [b, x] = y\n", "  [b, x] = y\n  [a, b] = b\n")
    assert bad != text
    invalid, _ = workloads.classify(bad)
    assert invalid
    ops = [Op(0, c) for c in workloads.DOCUMENT_COMMANDS]
    # probed: counted by subcommand, not fatal
    workload = Workload("documents", [Doc("bad", bad, invalid, True)],
                        ops[:1], [], ops[1:])
    c = client.Client(workload, tmp_path)
    c.loop(0, count=1)
    assert c.broken == [] and c.failed == 0
    probed, failures = c.probe()
    assert probed == 4
    assert set(failures) >= {"transfer", "massey"}
    # timed: a failed op breaks the run
    workload = Workload("documents", [Doc("bad", bad, invalid, True)],
                        ops, [])
    c = client.Client(workload, tmp_path)
    c.loop(0, count=len(ops))
    assert c.failed > 0
    assert {b.split(":")[0] for b in c.broken} >= {"bad transfer",
                                                    "bad massey"}


def test_tracer_reports_every_layer_and_restores(tmp_path):
    original = gradedlie.cli.check_morphism
    workload = workloads.build("witness", 7, TINY)
    c = client.Client(workload, tmp_path)
    tracer = tracing.Tracer().install()
    try:
        assert gradedlie.cli.check_morphism is not original
        for i, op in enumerate(workload.ops[:4]):
            tracer.op = i
            c.run(op)
    finally:
        tracer.restore()
    assert gradedlie.cli.check_morphism is original
    metrics = tracer.metrics(4)
    assert list(metrics) == tracing.metric_names()
    assert metrics["cli.main.calls"] == 4
    assert metrics["linfty.homotopy_transfer.calls"] >= 4
    assert metrics["core.MultilinearMap.evaluate.calls"] > 0
    assert all(span[3] is not None for _, span in tracer.spans
               if span[0] != "cli.main")


def test_self_time_subtracts_the_union_of_children():
    tracer = tracing.Tracer()
    # a detect_nonformality span whose two massey_triple children ran in
    # overlapping worker threads: together they cover 1..6 of 0..10
    tracer.spans = [
        (0, ["formality.detect_nonformality", 0.0, 10.0, None, 0, False]),
        (1, ["formality.massey_triple", 1.0, 4.0, 0, 0, False]),
        (2, ["formality.massey_triple", 2.0, 6.0, 0, 0, True]),
    ]
    metrics = tracer.metrics(1)
    assert metrics["formality.detect_nonformality.self_s"] == 5.0
    assert metrics["formality.massey_triple.self_s"] == 7.0
    assert metrics["formality.massey_triple.raised"] == 1
    assert metrics["formality.massey_triple.per_detect"] == 2.0


def test_union_length_merges_overlaps():
    assert tracing.union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == 4


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "verdict_s.p50", "verdict_s.p90",
        "peak_rss_mb"}
    assert [m["name"] for m in spec["per_layer"]] == \
        tracing.metric_names() + list(run.TRACE_METRICS)


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert run.percentile(samples, 50) == 50
    assert run.percentile(samples, 90) == 90


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "transfer", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
