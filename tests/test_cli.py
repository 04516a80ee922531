import csv
import json
import warnings

import pytest

from aimdmarket.cli import main
from aimdmarket.scenario import (
    MarketConfig,
    ScenarioMode,
    ScenarioSpec,
    generate_scenario,
    reference_configs,
    save_config_file,
)
from aimdmarket.utility import UtilitySpec


@pytest.fixture
def config_file(tmp_path):
    config = MarketConfig.build(2, 3, horizon=80, seed=11, initial_quantity=10.0)
    scenario = generate_scenario(config, ScenarioMode.BOTH_CONCAVE, 300.0, 4)
    return save_config_file(tmp_path / "market.json", config, scenario)


def test_run_writes_artifacts(tmp_path, config_file):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
    assert (out / "records.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "run_config.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final_round"] == 80


def test_run_json_format(tmp_path, config_file):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_file), "--format", "json", "--out", str(out)]) == 0
    records = json.loads((out / "records.json").read_text())
    assert len(records) == 80


def test_run_byte_identical_repeats(tmp_path, config_file):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
    for name in ("records.csv", "summary.json", "run_config.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_requires_source(tmp_path):
    code = main(["run", "--out", str(tmp_path / "o")])
    assert code != 0


def test_run_reference_with_overrides(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["run", "--reference", "paper-a", "--horizon", "30", "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    config = json.loads((out / "run_config.json").read_text())["config"]
    assert config["horizon"] == 30
    assert config["seed"] == 5
    # non-overridden reference values survive
    assert config["num_consumers"] == 18


def test_override_applied_before_validation(tmp_path, config_file, capsys):
    out = tmp_path / "out"
    code = main(["run", "--config", str(config_file), "--beta-s", "1.5", "--out", str(out)])
    assert code != 0
    err = capsys.readouterr().err
    assert "error" in json.loads(err.splitlines()[-1])


def test_validate_ok(config_file, capsys):
    assert main(["validate", "--config", str(config_file)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_broken_config(tmp_path, capsys):
    config = MarketConfig.build(2, 2, horizon=10, seed=1)
    scenario = generate_scenario(MarketConfig.build(3, 2, horizon=10, seed=1), ScenarioMode.BOTH_CONCAVE, 100.0, 1)
    path = save_config_file(tmp_path / "broken.json", config, scenario)
    assert main(["validate", "--config", str(path)]) != 0
    out = capsys.readouterr().out
    assert "violation:" in out


def test_validate_unreadable_file(tmp_path, capsys):
    path = tmp_path / "nope.json"
    path.write_text("{")
    assert main(["validate", "--config", str(path)]) != 0


def test_replicate_band(tmp_path, config_file):
    out = tmp_path / "rep"
    code = main(
        ["replicate", "--config", str(config_file), "--replicates", "3", "--out", str(out)]
    )
    assert code == 0
    lines = (out / "band_supplier_derivative.csv").read_text().splitlines()
    assert lines[0] == "round,mean,lower,upper,replicate_count"
    assert len(lines) == 81
    for line in lines[1:]:
        _, mean, lower, upper, count = line.split(",")
        assert float(lower) <= float(mean) <= float(upper)
        assert count == "3"
    meta = json.loads((out / "replicate_meta.json").read_text())
    assert meta["seeds"] == [11, 12, 13]
    summaries = json.loads((out / "replicate_summaries.json").read_text())
    assert len(summaries) == 3


def test_replicate_byte_identical(tmp_path, config_file):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert main(["replicate", "--config", str(config_file), "--replicates", "3",
                     "--format", "json", "--out", str(out)]) == 0
    assert (out1 / "band_supplier_derivative.json").read_bytes() == (
        out2 / "band_supplier_derivative.json"
    ).read_bytes()


def test_replicate_rejects_single(tmp_path, config_file):
    assert main(["replicate", "--config", str(config_file), "--replicates", "1",
                 "--out", str(tmp_path / "r")]) != 0


def test_paper_commands_run_small(tmp_path):
    for name in ("paper-a", "paper-b"):
        out = tmp_path / name
        assert main([name, "--horizon", "20", "--out", str(out)]) == 0
        cfg = json.loads((out / "run_config.json").read_text())
        assert cfg["config"]["gamma"] == 2.0


def test_flip_signal_semantics_flag(tmp_path, config_file):
    normal, flipped = tmp_path / "n", tmp_path / "f"
    assert main(["run", "--config", str(config_file), "--out", str(normal)]) == 0
    assert main(["run", "--config", str(config_file), "--flip-signal-semantics",
                 "--out", str(flipped)]) == 0
    assert (normal / "records.csv").read_bytes() != (flipped / "records.csv").read_bytes()


def test_lambda_keeps_signed_zero(tmp_path):
    # Round 0 leaves every agent at 5; consumption (10) exceeds supply (5),
    # so round 1 signals the consumers, whose average 5.0 is exactly their
    # optimum: raw lambda = 2 * (-0.0) / 5 = -0.0, and the clamp keeps it.
    config = MarketConfig.build(1, 2, horizon=3, seed=1, initial_quantity=0.0)
    scenario = ScenarioSpec(
        supplier_utilities=(UtilitySpec.quadratic(10.0, 20.0),),
        consumer_utilities=(UtilitySpec.quadratic(5.0, 20.0), UtilitySpec.quadratic(5.0, 20.0)),
        target_sum=10.0,
        mode=ScenarioMode.BOTH_CONCAVE,
    )
    path = save_config_file(tmp_path / "zero.json", config, scenario)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    with (tmp_path / "out" / "records.csv").open(newline="") as fh:
        rows = [row for row in csv.DictReader(fh) if row["round"] == "1" and row["role"] == "consumer"]
    assert [(row["c_signal"], row["lambda"]) for row in rows] == [("1", "-0.0"), ("1", "-0.0")]


BAD_FIELDS = [
    (("config", "supplier_params", "alpha"), float("nan")),
    (("config", "consumer_params", "alpha"), float("inf")),
    (("config", "gamma"), float("nan")),
    (("config", "initial_quantity"), float("nan")),
    (("scenario", "target_sum"), float("nan")),
    (("scenario", "consumer_utilities", 0, "optimum"), float("nan")),
    (("scenario", "supplier_utilities", 1, "curvature"), float("inf")),
    (("config", "horizon"), 10.5),
    (("config", "seed"), True),
    (("config", "num_suppliers"), "2"),
    (("config", "num_consumers"), 3.0),
]


def _field_id(value):
    return ".".join(map(str, value)) if isinstance(value, tuple) else repr(value)


@pytest.mark.parametrize("path,value", BAD_FIELDS, ids=_field_id)
def test_non_finite_or_non_integer_input_is_rejected(tmp_path, config_file, capsys, path, value):
    payload = json.loads(config_file.read_text())
    *parents, leaf = path
    target = payload
    for key in parents:
        target = target[key]
    target[leaf] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))

    assert main(["validate", "--config", str(bad)]) == 1
    assert "violation:" in capsys.readouterr().out

    out = tmp_path / "out"
    assert main(["run", "--config", str(bad), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "error" in json.loads(captured.err.splitlines()[-1])
    assert not (out / "summary.json").exists()


# (reference, field path, value): a supplier curvature so small that u and
# u' overflow to infinity; an additive step so large that (z - z*) ** 2
# overflows; and a sqrt supplier's step that keeps every round finite but
# overflows the summary's trailing-window sum of totals.
OVERFLOWING_FIELDS = [
    ("paper-a", ("scenario", "supplier_utilities", 0, "curvature"), 1e-320),
    ("paper-a", ("config", "supplier_params", "alpha"), 1e200),
    ("paper-b", ("config", "supplier_params", "alpha"), 1e305),
]
# the summary field each of them leaves non-finite or out of range
OVERFLOWING_SUMMARY_FIELD = {1e-320: "final_sum_of_utilities", 1e200: "final_sum_of_utilities",
                             1e305: "trailing_mean_supply"}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("reference,path,value", OVERFLOWING_FIELDS, ids=_field_id)
def test_non_finite_run_fails_without_artifacts(tmp_path, capsys, reference, path, value, fmt):
    saved = save_config_file(tmp_path / f"{reference}.json", *reference_configs()[reference])
    payload = json.loads(saved.read_text())
    payload["config"]["horizon"] = 20
    *parents, leaf = path
    target = payload
    for key in parents:
        target = target[key]
    target[leaf] = value
    config = tmp_path / "overflow.json"
    config.write_text(json.dumps(payload))

    assert main(["validate", "--config", str(config)]) == 0  # every input is finite
    assert "ok" in capsys.readouterr().out

    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no numpy overflow notice either
        assert main(["run", "--config", str(config), "--format", fmt, "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    message = json.loads(line)["error"]
    assert message.startswith("the run overflowed") and f": {OVERFLOWING_SUMMARY_FIELD[value]} is " in message
    assert not out.exists() or not any(out.iterdir())  # no artifact, no temp file


def test_run_refuses_a_role_gamma_that_validate_refuses(tmp_path, config_file, capsys):
    payload = json.loads(config_file.read_text())
    payload["config"]["supplier_params"]["gamma"] = 3.0  # the top-level gamma stays 2.0
    config = tmp_path / "gammas.json"
    config.write_text(json.dumps(payload))

    assert main(["validate", "--config", str(config)]) == 1
    assert "disagrees" in capsys.readouterr().out
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    assert "disagrees" in json.loads(capsys.readouterr().err)["error"]
    assert not out.exists()
    # --gamma sets all three, so the same file runs with it
    assert main(["run", "--config", str(config), "--gamma", "3.0", "--out", str(out)]) == 0
    assert json.loads((out / "run_config.json").read_text())["config"]["consumer_params"]["gamma"] == 3.0
