"""Tests of the benchmark itself: seeded inputs, verdict checks, deadlines,
the traced run and the metric names it promises in BENCHMARK.json.

Run from the repository root:

    python3 -m pytest -q coxbench
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import run

run.import_coxmap()

import docgen  # noqa: E402
import pipeline  # noqa: E402
from coxmap import _kernel_py, coxring  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def quick(monkeypatch):
    """One round of documents per run, one set-up."""
    monkeypatch.setattr(run, "MIN_SAMPLES", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setitem(run.TRACE_CYCLES, "pullback-ideal", 1)
    monkeypatch.setattr(run, "TRACE_PASSES", 1)


def result_lines(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def _bytes(workload, seed):
    docs = [docgen.document(workload, seed, "timed", i) for i in range(docgen.CYCLES[workload])]
    return json.dumps(docs, sort_keys=True).encode()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_identical_documents(workload):
    assert _bytes(workload, 7) == _bytes(workload, 7)
    assert _bytes(workload, 7) != _bytes(workload, 8)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_first_round_of_documents_is_answered_correctly(workload):
    op, check = pipeline.OPERATIONS[workload]
    for i in range(docgen.CYCLES[workload]):
        doc, answer = docgen.document(workload, 3, "timed", i)
        assert check(op(doc), answer) is None, (i, answer)


def test_corrupted_answer_makes_the_run_exit_nonzero(quick, monkeypatch, capsys):
    real = docgen.document

    def corrupted(workload, seed, stream, index):
        doc, answer = real(workload, seed, stream, index)
        if stream == "timed" and index == 0:
            answer = dict(answer, regular=not answer["regular"])
        return doc, answer

    monkeypatch.setattr(docgen, "document", corrupted)
    code = run.main(["--workload", "enumeration-blowup", "--seed", "1", "--seconds", "0.01"])
    info, result = result_lines(capsys)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 1
    assert "regularity verdict" in info["errors"][0]


def test_slow_operation_counts_as_deadline_miss(quick, monkeypatch, capsys):
    op, check = pipeline.OPERATIONS["enumeration-blowup"]
    real = docgen.document

    def marked(workload, seed, stream, index):
        doc, answer = real(workload, seed, stream, index)
        if stream == "timed" and index == 2:
            doc = dict(doc, slow=True)
        return doc, answer

    def slow_op(doc):
        if doc.get("slow"):
            time.sleep(2.0)
        return op(doc)

    monkeypatch.setattr(docgen, "document", marked)
    monkeypatch.setitem(pipeline.OPERATIONS, "enumeration-blowup", (slow_op, check))
    monkeypatch.setattr(run, "DEADLINE_S", 1.0)
    code = run.main(["--workload", "enumeration-blowup", "--seed", "1", "--seconds", "0.01"])
    info, result = result_lines(capsys)
    assert code == 0 and result["correct"] is True
    assert result["failed"] == 1 and info["deadline_misses"] == 1
    assert info["timed_failed_ratio"] == pytest.approx(1 / docgen.CYCLES["enumeration-blowup"])
    assert 1000.0 <= info["raw"]["latency_p90_ms"] < 2000.0  # cut at the deadline


def test_untraced_run_reports_every_end_to_end_metric(quick, capsys):
    code = run.main(["--workload", "radical-oracle", "--seed", "2", "--seconds", "0.01"])
    info, result = result_lines(capsys)
    assert code == 0 and result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert info["kernel_backend"] in ("python", "compiled")
    assert info["seed"] == 2 and info["samples"]["latency_p90_ms"] >= 1


def test_traced_run_reports_every_layer_metric(quick, capsys):
    code = run.main(["--workload", "pullback-ideal", "--seed", "2", "--seconds", "0.01", "--trace", "1"])
    info, result = result_lines(capsys)
    assert code == 0 and result["correct"] is True
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    # the pullback pipeline never touches star fans or completion
    assert metrics["fan.StarFan.support_contains.calls"] == 0
    assert metrics["descriptions.divisor_status.calls"] == 0
    assert metrics["kernel.poly_mul.calls"] > 0
    assert metrics["kernel.poly_mul.term_products"] >= metrics["kernel.poly_mul.calls"]
    assert "no layer waits" in info["waiting"]
    # the tracer puts every original function back
    assert coxring.poly_mul is _kernel_py.poly_mul


def test_benchmark_fails_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.ROOT / "coxbench", tmp_path / "coxbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "coxbench/run.py", "--workload", "complete-ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
