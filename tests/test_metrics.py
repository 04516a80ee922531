import json
import os

import numpy as np
import pytest

from aimdmarket import metrics
from aimdmarket.agent import Role
from aimdmarket.market import run
from aimdmarket.metrics import (
    CSV_HEADER,
    _reprs,
    _unique_reprs,
    confidence_band,
    detect_convergence,
    export_band_series,
    export_run,
    load_records,
    mean_abs_derivative,
    mean_derivative_series,
    summarize,
)
from aimdmarket.scenario import MarketConfig, ScenarioMode, atomic_writer, generate_scenario, write_json


def small_run(horizon=20, seed=5, suppliers=1, consumers=1, initial=10.0):
    config = MarketConfig.build(suppliers, consumers, horizon=horizon, seed=seed, initial_quantity=initial)
    scenario = generate_scenario(config, ScenarioMode.BOTH_CONCAVE, 100.0, 2)
    return config, scenario, run(config, scenario)


# --- detect_convergence -----------------------------------------------------


def test_detect_constant_series():
    assert detect_convergence([50.0] * 10, 50.0, 0.05, 3) == 0


def test_detect_stepping_series():
    series = [100.0, 90.0, 80.0, 70.0, 60.0, 52.0, 50.5, 50.2, 50.1, 50.0]
    found = detect_convergence(series, 50.0, 0.05, 3)
    # brute-force scan oracle
    band = 0.05 * 50.0
    expected = next(
        i for i in range(len(series) - 2)
        if all(abs(v - 50.0) <= band for v in series[i : i + 3])
    )
    assert found == expected == 5


def test_detect_oscillating_never_converges():
    series = [50.0 * (1.2 if i % 2 else 0.8) for i in range(50)]
    assert detect_convergence(series, 50.0, 0.05, 4) is None


def test_detect_requires_full_window():
    series = [0.0] * 8 + [50.0, 50.0]
    assert detect_convergence(series, 50.0, 0.05, 3) is None


def test_detect_monotone_in_tolerance():
    rng = np.random.default_rng(31)
    for _ in range(100):
        series = list(rng.uniform(0.0, 100.0, size=40))
        target = float(rng.uniform(10.0, 90.0))
        loose = detect_convergence(series, target, 0.5, 4)
        tight = detect_convergence(series, target, 0.1, 4)
        if tight is not None:
            assert loose is not None and loose <= tight


def test_detect_parameter_validation():
    with pytest.raises(ValueError):
        detect_convergence([1.0], 1.0, 0.0, 1)
    with pytest.raises(ValueError):
        detect_convergence([1.0], 1.0, 0.1, 0)


# --- confidence_band ---------------------------------------------------------


def test_band_identical_replicates_zero_width():
    series = [[3.0, 2.0, 1.0]] * 5
    band = confidence_band(series)
    assert band.lower == band.mean == band.upper == (3.0, 2.0, 1.0)
    assert band.replicate_count == 5


def test_band_two_replicates_hand_computed():
    band = confidence_band([[0.0] * 4, [2.0] * 4])
    # sample sd sqrt(2), half-width 1.96 * sqrt(2) / sqrt(2)
    for i in range(4):
        assert band.mean[i] == pytest.approx(1.0)
        assert band.upper[i] - band.mean[i] == pytest.approx(1.96, rel=1e-3)
        assert band.mean[i] - band.lower[i] == pytest.approx(1.96, rel=1e-3)


def test_band_rejects_single_replicate():
    with pytest.raises(ValueError):
        confidence_band([[1.0, 2.0]])


def test_band_rejects_ragged_input():
    with pytest.raises(ValueError):
        confidence_band([[1.0, 2.0], [1.0]])


def test_band_ordering_invariant():
    rng = np.random.default_rng(8)
    series = [list(rng.normal(size=30)) for _ in range(12)]
    band = confidence_band(series)
    for lo, mid, hi in zip(band.lower, band.mean, band.upper):
        assert lo <= mid <= hi


# --- export -------------------------------------------------------------------


def test_csv_shape_and_header(tmp_path):
    _, _, result = small_run(horizon=1, suppliers=1, consumers=1)
    path = export_run(result.trajectory, "csv", tmp_path / "r.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3  # header + one row per agent for the single round


def test_csv_export_byte_identical(tmp_path):
    _, _, result = small_run(horizon=40)
    a = export_run(result.trajectory, "csv", tmp_path / "a.csv").read_bytes()
    b = export_run(result.trajectory, "csv", tmp_path / "b.csv").read_bytes()
    assert a == b


def test_json_round_trip(tmp_path):
    _, _, result = small_run(horizon=25)
    path = export_run(result.trajectory, "json", tmp_path / "r.json")
    assert load_records(path) == result.records


def test_json_export_byte_identical(tmp_path):
    _, _, result = small_run(horizon=25)
    a = export_run(result.trajectory, "json", tmp_path / "a.json").read_bytes()
    b = export_run(result.trajectory, "json", tmp_path / "b.json").read_bytes()
    assert a == b


def test_export_unknown_format(tmp_path):
    _, _, result = small_run(horizon=1)
    with pytest.raises(ValueError):
        export_run(result.trajectory, "parquet", tmp_path / "r.x")


def test_export_write_failure_carries_path(tmp_path):
    _, _, result = small_run(horizon=1)
    missing = tmp_path / "no" / "such" / "dir" / "r.csv"
    with pytest.raises(OSError, match="r.csv"):
        export_run(result.trajectory, "csv", missing)


def test_export_formatting_keeps_signed_zero():
    values = np.array([[0.0, -0.0, 1.5], [-0.0, 0.1 + 0.2, 0.0]])
    assert _reprs(values) == _unique_reprs(values) == [repr(v) for v in values.ravel().tolist()]


def test_failed_writes_leave_no_partial_file(tmp_path):
    _, _, result = small_run(horizon=3)
    band = confidence_band([[0.0, 1.0], [2.0, 3.0]])
    missing = tmp_path / "no" / "such" / "dir"
    for fmt in ("csv", "json"):
        with pytest.raises(OSError):
            export_run(result.trajectory, fmt, missing / f"r.{fmt}")
        with pytest.raises(OSError):
            export_band_series(band, fmt, missing / f"band.{fmt}")
    assert not (tmp_path / "no").exists()

    earlier = tmp_path / "summary.json"
    earlier.write_text("earlier\n")
    with pytest.raises(ValueError):  # strict JSON: no NaN or Infinity tokens
        write_json(earlier, {"value": float("inf")})
    with pytest.raises(RuntimeError):
        with atomic_writer(earlier) as fh:
            fh.write("partial")
            raise RuntimeError("interrupted")
    assert earlier.read_text() == "earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]


@pytest.mark.parametrize("failing", ["worker", "first share"])
def test_failed_export_share_leaves_no_file_or_process(failing, tmp_path, monkeypatch):
    # 4 chunks over 3 CPUs: this process writes the first share, two forked
    # workers the others; the patched writer is inherited by the forks.
    _, _, result = small_run(horizon=769)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    write_rounds = metrics._write_rounds

    def write_or_fail(fh, trajectory, fmt, starts):
        if (starts[0] == 1) == (failing == "first share"):
            raise RuntimeError("share failed")
        write_rounds(fh, trajectory, fmt, starts)

    monkeypatch.setattr(metrics, "_write_rounds", write_or_fail)
    for fmt in ("csv", "json"):
        expected = (RuntimeError, "share failed") if failing == "first share" else (OSError, f"r.{fmt}.*status 1")
        with pytest.raises(expected[0], match=expected[1]):
            export_run(result.trajectory, fmt, tmp_path / f"r.{fmt}")
        assert list(tmp_path.iterdir()) == []  # no artifact, temp file or .part file
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)


def test_one_writer_where_fork_is_missing(tmp_path, monkeypatch):
    _, _, result = small_run(horizon=769)
    expected = export_run(result.trajectory, "csv", tmp_path / "forked.csv").read_bytes()
    monkeypatch.delattr(os, "fork", raising=False)
    assert metrics._usable_cpus() == 1
    assert export_run(result.trajectory, "csv", tmp_path / "r.csv").read_bytes() == expected


def test_band_export_csv_and_json(tmp_path):
    band = confidence_band([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    csv_path = export_band_series(band, "csv", tmp_path / "band.csv")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "round,mean,lower,upper,replicate_count"
    assert len(lines) == 3
    json_path = export_band_series(band, "json", tmp_path / "band.json")
    payload = json.loads(json_path.read_text())
    assert payload["replicate_count"] == 3
    assert payload["mean"] == [2.0, 3.0]


# --- series helpers ------------------------------------------------------------


def test_mean_derivative_series_matches_manual():
    _, _, result = small_run(horizon=10, suppliers=2, consumers=3)
    series = mean_derivative_series(result.records, Role.SUPPLIER)
    assert len(series) == 10
    manual = [
        sum(e.utility_derivative for e in r.per_agent if e.role is Role.SUPPLIER) / 2
        for r in result.records
    ]
    assert series == manual


def test_mean_abs_derivative_matches_manual():
    _, _, result = small_run(horizon=5, suppliers=2, consumers=2)
    record = result.records[-1]
    manual = sum(abs(e.utility_derivative) for e in record.per_agent) / 4
    assert mean_abs_derivative(record) == pytest.approx(manual)


# --- summarize -------------------------------------------------------------------


def test_summarize_single_round_equals_that_round():
    _, scenario, result = small_run(horizon=1)
    s = result.summary
    record = result.records[0]
    assert s.final_round == 1
    assert s.window == 1
    assert s.trailing_mean_supply == record.total_supply
    assert s.trailing_mean_consumption == record.total_consumption
    assert s.final_sum_of_utilities == record.sum_of_utilities


def test_summarize_window_rule():
    _, scenario, result = small_run(horizon=250)
    assert result.summary.window == 100  # max(100, 10% of 250)
    config = MarketConfig.build(1, 1, horizon=3000, seed=5, initial_quantity=10.0)
    scenario = generate_scenario(config, ScenarioMode.BOTH_CONCAVE, 100.0, 2)
    result = run(config, scenario)
    assert result.summary.window == 300


def test_summarize_totals_match_tail():
    _, _, result = small_run(horizon=30)
    s = result.summary
    tail = result.records[-s.window :]
    assert s.trailing_mean_supply == pytest.approx(sum(r.total_supply for r in tail) / s.window)


def test_summarize_per_agent_distances():
    config = MarketConfig.build(2, 2, gamma=0.0, horizon=400, seed=9, initial_quantity=0.0)
    scenario = generate_scenario(config, ScenarioMode.BOTH_CONCAVE, 150.0, 7)
    result = run(config, scenario)
    for agent in result.summary.agents:
        assert agent.optimum is not None
        assert agent.distance_to_optimum == pytest.approx(
            abs(agent.final_running_average - agent.optimum)
        )
        # gamma=0: averages settle within alpha of the optimum
        assert agent.distance_to_optimum <= 5.0 + 1.0


def test_summarize_sqrt_suppliers_have_no_optimum():
    config = MarketConfig.build(1, 1, horizon=10, seed=3, initial_quantity=10.0)
    scenario = generate_scenario(config, ScenarioMode.MONOTONE_SUPPLIERS, 100.0, 2)
    result = run(config, scenario)
    supplier = next(a for a in result.summary.agents if a.role is Role.SUPPLIER)
    assert supplier.optimum is None
    assert supplier.distance_to_optimum is None


def test_summarize_requires_records():
    _, scenario, _ = small_run(horizon=1)
    with pytest.raises(ValueError):
        summarize([], scenario)
