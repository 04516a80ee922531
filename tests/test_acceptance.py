"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  The reference experiments use the documented seeds, so every
number here is reproducible.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from aimdmarket.agent import Role
from aimdmarket.cli import main
from aimdmarket.market import replicate_series, run
from aimdmarket.metrics import band_text, confidence_band
from aimdmarket.scenario import (
    MarketConfig,
    ScenarioMode,
    generate_scenario,
    reference_configs,
    save_config_file,
)
from aimdmarket.utility import UtilitySpec
from scalar_oracle import (check_derivative, derivative, mean_derivative_series, records_from, run_columns,
                           update_running_average)

TARGET = 900.0


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


@pytest.fixture(scope="module")
def paper_a():
    config, scenario = reference_configs()["paper-a"]
    start = time.perf_counter()
    result = run(config, scenario)
    elapsed = time.perf_counter() - start
    return config, scenario, result, elapsed


@pytest.fixture(scope="module")
def paper_b():
    config, scenario = reference_configs()["paper-b"]
    return config, scenario, run(config, scenario)


def test_criterion_1_experiment_a_totals(paper_a):
    config, _, result, elapsed = paper_a
    supply = result.trajectory.total_supply[-500:].mean()
    consumption = result.trajectory.total_consumption[-500:].mean()
    assert abs(supply - TARGET) <= 0.05 * TARGET
    assert abs(consumption - TARGET) <= 0.05 * TARGET
    assert abs(supply - consumption) <= 0.05 * TARGET
    assert elapsed < 10.0
    report(1, f"trailing supply {supply:.1f}, consumption {consumption:.1f}, runtime {elapsed:.2f}s")


def test_criterion_2_per_agent_optimality(paper_a):
    _, _, result, _ = paper_a
    worst = max(
        a["distance_to_optimum"] / a["optimum"] for a in result.summary["agents"]
    )
    assert worst <= 0.10
    report(2, f"worst relative distance to optimum {worst:.4f} over 27 agents")


def test_criterion_3_derivative_convergence(paper_a):
    _, _, result, _ = paper_a
    # row t of a trajectory is round t
    at_round_10 = np.abs(result.trajectory.derivative[10]).mean()
    at_horizon = np.abs(result.trajectory.derivative[-1]).mean()
    assert at_horizon <= 0.10 * at_round_10
    report(3, f"mean |derivative| {at_round_10:.3f} at round 10 -> {at_horizon:.4f} at horizon")


def test_criterion_4_utility_sum_convergence(paper_a):
    _, scenario, result, _ = paper_a
    peak = sum(1.5 * u.curvature for u in scenario.supplier_utilities + scenario.consumer_utilities)
    assert peak == pytest.approx(TARGET, rel=1e-9)  # the coupled value constraint
    final = result.summary["final_sum_of_utilities"]
    assert abs(final - TARGET) <= 0.05 * TARGET
    report(4, f"final sum of utilities {final:.1f} vs coupled peak {peak:.1f}")


def test_criterion_5_experiment_b(paper_b):
    _, scenario, result = paper_b
    supply = result.trajectory.total_supply[-500:].mean()
    consumption = result.trajectory.total_consumption[-500:].mean()
    assert abs(supply - TARGET) <= 0.07 * TARGET
    assert abs(consumption - TARGET) <= 0.07 * TARGET
    consumer_sum = result.summary["final_consumer_utility_sum"]
    consumer_peak = sum(1.5 * u.curvature for u in scenario.consumer_utilities)
    assert consumer_peak == pytest.approx(TARGET, rel=1e-9)
    assert abs(consumer_sum - TARGET) <= 0.05 * TARGET
    report(
        5,
        f"trailing supply {supply:.1f}, consumption {consumption:.1f}, "
        f"consumer utility sum {consumer_sum:.1f} (supplier sum unconstrained)",
    )


def test_criterion_6_gamma_zero_oracle():
    config = MarketConfig(4, 6, gamma=0.0, horizon=200, seed=77, initial_quantity=0.0)
    scenario = generate_scenario(config, ScenarioMode.BOTH_CONCAVE, 400.0, 55)
    trajectory = run(config, scenario).trajectory
    alpha = 5.0
    optima = [u.optimum for u in scenario.supplier_utilities + scenario.consumer_utilities]

    for agent_id, quantity, z_star in zip(trajectory.population.agent_ids, trajectory.quantity.T, optima):
        bound = max(math.ceil(abs(quantity[0] - z_star) / alpha), 1)
        inside = np.abs(quantity[1:] - z_star) <= alpha  # rounds 1..horizon
        assert inside.any(), f"{agent_id} never entered the band"
        entered = int(inside.argmax()) + 1
        assert inside[entered - 1 :].all(), f"{agent_id} left the band after round {entered}"
        assert entered <= bound
    report(6, f"all {len(optima)} agents entered [z*-a, z*+a] on time and never left (exact)")


def test_criterion_7_probability_validity_fuzz():
    rng = np.random.default_rng(2024)
    steps = 0
    checked_lambdas = 0
    while steps < 100_000:
        s = int(rng.integers(1, 6))
        c = int(rng.integers(1, 6))
        config = MarketConfig(
            s,
            c,
            alpha_s=float(rng.uniform(0.5, 10.0)),
            beta_s=float(rng.uniform(0.05, 0.95)),
            alpha_c=float(rng.uniform(0.5, 10.0)),
            beta_c=float(rng.uniform(0.05, 0.95)),
            gamma=float(rng.uniform(0.0, 50.0)),
            horizon=int(rng.integers(30, 80)),
            seed=int(rng.integers(0, 2**32)),
            initial_quantity=float(rng.uniform(0.0, 120.0)),
        )
        mode = ScenarioMode.BOTH_CONCAVE if rng.random() < 0.5 else ScenarioMode.MONOTONE_SUPPLIERS
        scenario = generate_scenario(
            config, mode, float(rng.uniform(50.0, 2000.0)), int(rng.integers(0, 10_000))
        )
        columns = run_columns(run(config, scenario).trajectory)
        lam, quantity = columns["backoff_probability"][1:], columns["quantity"][1:]  # rounds 1..horizon
        assert ((0.0 <= lam) & (lam <= 1.0)).all()
        assert (quantity >= 0.0).all()
        checked_lambdas += lam.size
        steps += config.horizon * (s + c)
    assert steps >= 100_000
    report(7, f"{checked_lambdas} agent-steps fuzzed, zero lambda/quantity violations")


def test_criterion_8_numerical_checks():
    rng = np.random.default_rng(314)
    specs = [
        UtilitySpec.quadratic(float(rng.uniform(1.0, 150.0)), float(rng.uniform(1.0, 50.0)))
        for _ in range(10)
    ] + [UtilitySpec.sqrt_monotone(float(rng.uniform(0.5, 1000.0))) for _ in range(10)]
    points = 0
    for u in specs:
        for z in rng.uniform(0.5, 200.0, size=40):
            z = float(z)
            d = derivative(u, z)
            disc = check_derivative(u, z, 1e-4)
            assert disc <= max(1e-6 * abs(d), 1e-9)
            points += 1

    values = rng.uniform(0.0, 500.0, size=100_000)
    avg, n = 0.0, 0
    for q in values:
        avg = update_running_average(avg, n, float(q))
        n += 1
    brute = float(np.mean(values))
    rel = abs(avg - brute) / abs(brute)
    assert rel <= 1e-9
    report(8, f"{points} derivative grid points <= 1e-6 rel; running mean rel err {rel:.1e}")


def test_criterion_9_cli_determinism(tmp_path):
    config = MarketConfig(3, 4, horizon=120, seed=21, initial_quantity=10.0)
    scenario = generate_scenario(config, ScenarioMode.BOTH_CONCAVE, 350.0, 12)
    cfg_path = save_config_file(tmp_path / "cfg.json", config, scenario)

    for fmt in ("csv", "json"):
        out1, out2 = tmp_path / f"{fmt}1", tmp_path / f"{fmt}2"
        for out in (out1, out2):
            assert main(["run", "--config", str(cfg_path), "--format", fmt, "--out", str(out)]) == 0
        name = f"records.{fmt}"
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    rep1, rep2 = tmp_path / "rep1", tmp_path / "rep2"
    for out in (rep1, rep2):
        assert main(["replicate", "--config", str(cfg_path), "--replicates", "4",
                     "--format", "json", "--out", str(out)]) == 0
    band_name = "band_supplier_derivative.json"
    assert (rep1 / band_name).read_bytes() == (rep2 / band_name).read_bytes()

    # replicate ordering cannot matter: rebuild the band running the
    # replicates in reverse order and compare bytes
    series_by_index = [None] * 4
    for k in reversed(range(4)):
        result = run(replace(config, seed=config.seed + k), scenario)
        series_by_index[k] = mean_derivative_series(records_from(result.trajectory)[1:], Role.SUPPLIER)
    assert b"".join(band_text(confidence_band(series_by_index), "json")) == (rep1 / band_name).read_bytes()
    report(9, "CSV/JSON artifacts byte-identical across reruns and replicate orderings")


def test_criterion_10_confidence_bands():
    config, scenario = reference_configs()["paper-a"]
    config = replace(config, horizon=2000)
    series, _ = replicate_series(config, scenario, 20)
    band = confidence_band(series)
    assert band.replicate_count == 20
    for lo, mid, hi in zip(band.lower, band.mean, band.upper):
        assert lo <= mid <= hi
    width_at_10 = band.upper[9] - band.lower[9]
    width_at_horizon = band.upper[-1] - band.lower[-1]
    assert width_at_horizon < width_at_10
    report(
        10,
        f"R=20 band width {width_at_10:.4f} at round 10 -> {width_at_horizon:.4f} at horizon",
    )
