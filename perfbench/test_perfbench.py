"""Smoke test of the benchmark itself at a tiny horizon."""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

HORIZON = 30
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--horizon", str(HORIZON)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {k: v["unit"] for k, v in result["metrics"].items()}
    for metric in BENCHMARK["end_to_end"]:
        assert any(line.split()[:2] == ["metric", metric["name"]] and line.split()[3] == metric["unit"]
                   for line in lines), metric
    if trace:
        assert result["metrics"]["cli.main.calls"]["value"] == 1
        assert not (ROOT / run.WORK_DIR).exists()


def _corrupt_csv(out: Path) -> None:
    records = out / "records.csv"
    lines = records.read_text().splitlines(keepends=True)
    records.write_text("".join(lines[:-1]))


def test_corrupted_artifact_counts_as_failure(tmp_path):
    result = run.measure(ROOT, tmp_path, "paper-a-csv", 5, 0, False, HORIZON, tamper=_corrupt_csv)
    assert result["attempted"] == 1 and len(result["failures"]) == 1
    assert "rows" in result["failures"][0]
    assert run.end_to_end_metrics(result)["success_rate"] == 0


def test_sample_that_differs_from_the_first_counts_as_failure(tmp_path):
    calls = []

    def flip_a_digit_in_the_second_sample(out: Path) -> None:
        calls.append(out)
        if len(calls) == 2:
            summary = out / "summary.json"
            summary.write_text(summary.read_text().replace("1", "2", 1))

    result = run.measure(ROOT, tmp_path, "paper-b-json", 5, 0, True, HORIZON, tamper=flip_a_digit_in_the_second_sample)
    assert result["attempted"] == 2 and len(result["failures"]) == 1
    assert "differ" in result["failures"][0]


def test_golden_digest_mismatch_counts_as_failure(tmp_path, monkeypatch):
    short = replace(run.WORKLOADS["paper-a-csv"], rounds=HORIZON)
    short = replace(short, cli_args=(*short.cli_args, "--horizon", str(HORIZON)))
    monkeypatch.setitem(run.WORKLOADS, "paper-a-csv", short)
    pinned = tmp_path / "goldens.json"
    pinned.write_text(json.dumps({"paper-a-csv": {"seed": 5, "digests": {"records.csv": "0" * 64}}}))
    monkeypatch.setattr(run, "GOLDENS", pinned)
    result = run.measure(ROOT, tmp_path, "paper-a-csv", 5, 0, False)
    assert result["check"] == "golden" and result["attempted"] == 1
    assert "golden digest mismatch" in result["failures"][0]


def test_removed_function_is_reported_absent(monkeypatch):
    import child

    monkeypatch.setattr(child, "TRACED", (("gone.function", "aimdmarket.gone", "function"),))
    recorder = child.SpanRecorder(["gone.function"])
    assert child.install_tracing(recorder) == ["gone.function"]
    assert len(recorder.name_id) == 0
