import hashlib
import json
from dataclasses import replace

import pytest

from aimdmarket.cli import main
from aimdmarket.scenario import (
    MarketConfig,
    ScenarioMode,
    ScenarioSpec,
    config_text,
    generate_scenario,
    load_config_file,
    reference_configs,
    validate_config,
    validate_scenario,
)
from aimdmarket.utility import UtilityKind, UtilitySpec


def paper_geometry(seed=42):
    return MarketConfig(9, 18, horizon=100, seed=seed)


def test_sum_constraints_hold():
    config = paper_geometry()
    spec = generate_scenario(config, ScenarioMode.BOTH_CONCAVE, 900.0, 17)
    sup = sum(u.optimum for u in spec.supplier_utilities)
    con = sum(u.optimum for u in spec.consumer_utilities)
    assert sup == pytest.approx(900.0, rel=1e-6)
    assert con == pytest.approx(900.0, rel=1e-6)


def test_single_agent_gets_full_target():
    config = MarketConfig(1, 1, horizon=10, seed=1)
    spec = generate_scenario(config, ScenarioMode.BOTH_CONCAVE, 900.0, 5)
    assert spec.supplier_utilities[0].optimum == pytest.approx(900.0)
    assert spec.consumer_utilities[0].optimum == pytest.approx(900.0)


def test_generation_reproducible():
    config = paper_geometry()
    a = generate_scenario(config, ScenarioMode.BOTH_CONCAVE, 900.0, 99)
    b = generate_scenario(config, ScenarioMode.BOTH_CONCAVE, 900.0, 99)
    assert a == b


def test_different_seeds_differ():
    config = paper_geometry()
    a = generate_scenario(config, ScenarioMode.BOTH_CONCAVE, 900.0, 1)
    b = generate_scenario(config, ScenarioMode.BOTH_CONCAVE, 900.0, 2)
    assert a != b


def test_sum_constraint_over_many_seeds():
    config = paper_geometry()
    for seed in range(1000):
        spec = generate_scenario(config, ScenarioMode.BOTH_CONCAVE, 900.0, seed)
        sup = sum(u.optimum for u in spec.supplier_utilities)
        con = sum(u.optimum for u in spec.consumer_utilities)
        assert abs(sup - 900.0) <= 1e-6 * 900.0
        assert abs(con - 900.0) <= 1e-6 * 900.0


def test_all_parameters_strictly_positive():
    config = paper_geometry()
    for seed in range(50):
        both = generate_scenario(config, ScenarioMode.BOTH_CONCAVE, 900.0, seed)
        mono = generate_scenario(config, ScenarioMode.MONOTONE_SUPPLIERS, 900.0, seed)
        for u in both.supplier_utilities + both.consumer_utilities + mono.consumer_utilities:
            assert u.optimum > 0
            assert u.curvature > 0
        for u in mono.supplier_utilities:
            assert u.scale > 0


def test_monotone_mode_supplier_kinds():
    config = paper_geometry()
    spec = generate_scenario(config, ScenarioMode.MONOTONE_SUPPLIERS, 900.0, 4)
    assert all(u.kind is UtilityKind.SQRT_MONOTONE for u in spec.supplier_utilities)
    assert all(u.kind is UtilityKind.QUADRATIC for u in spec.consumer_utilities)


def test_utility_sum_coupling_both_concave():
    config = paper_geometry()
    spec = generate_scenario(config, ScenarioMode.BOTH_CONCAVE, 900.0, 6)
    peak_total = sum(1.5 * u.curvature for u in spec.supplier_utilities + spec.consumer_utilities)
    assert peak_total == pytest.approx(900.0, rel=1e-9)


def test_utility_sum_coupling_monotone_consumer_side():
    config = paper_geometry()
    spec = generate_scenario(config, ScenarioMode.MONOTONE_SUPPLIERS, 900.0, 6)
    peak_consumers = sum(1.5 * u.curvature for u in spec.consumer_utilities)
    assert peak_consumers == pytest.approx(900.0, rel=1e-9)


# sha256 over json.dumps(spec.to_dict()) of every scenario in test_sampler_output_is_pinned, in its loop order
SAMPLER_DIGEST = "92af3ba3d7bbd1be878c5037ba3cacb3b70e31a019667c46a1de1a1381121521"


def test_sampler_output_is_pinned():
    # every draw, its order and the coupling arithmetic, bit for bit, for both modes
    digest = hashlib.sha256()
    for mode in ScenarioMode:
        for target in (900.0, 1e-3):
            for seed in range(50):
                for sides in ((1, 1), (3, 5), (9, 18), (7, 2)):
                    spec = generate_scenario(MarketConfig(*sides), mode, target, seed)
                    digest.update(json.dumps(spec.to_dict()).encode())
    assert digest.hexdigest() == SAMPLER_DIGEST


def test_generate_rejects_bad_target(tmp_path, capsys):
    # the sampler draws for any target; validation refuses a nonpositive one, and so does run
    config = paper_geometry()
    for target in (0.0, -1.0):
        spec = generate_scenario(config, ScenarioMode.BOTH_CONCAVE, target, 1)
        assert f"target_sum must be positive, got {target}" in validate_scenario(spec, config)
        saved = tmp_path / "bad-target.json"
        saved.write_bytes(config_text(config, spec))
        out = tmp_path / "out"
        assert main(["run", "--config", str(saved), "--out", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert f"target_sum must be positive, got {target}" in json.loads(line)["error"]
        assert not out.exists()


# --- validation -----------------------------------------------------------


def test_validate_well_formed():
    config = paper_geometry()
    spec = generate_scenario(config, ScenarioMode.BOTH_CONCAVE, 900.0, 13)
    assert validate_scenario(spec, config) == []
    assert validate_config(config) == []


def test_validate_detects_sum_violation():
    config = MarketConfig(1, 2, horizon=10, seed=1)
    spec = ScenarioSpec(
        supplier_utilities=(UtilitySpec.quadratic(900.0, 10.0),),
        consumer_utilities=(UtilitySpec.quadratic(500.0, 10.0), UtilitySpec.quadratic(350.0, 10.0)),
        target_sum=900.0,
        mode=ScenarioMode.BOTH_CONCAVE,
    )
    violations = validate_scenario(spec, config)
    assert len(violations) == 1
    assert "consumer optima sum" in violations[0]


def test_validate_sums_an_empty_side_to_zero():
    # no consumers: their optima add to 0.0, which differs from any positive target
    config = MarketConfig(1, 0, horizon=10, seed=1)
    spec = ScenarioSpec((UtilitySpec.quadratic(900.0, 10.0),), (), 900.0, ScenarioMode.BOTH_CONCAVE)
    assert validate_scenario(spec, config) == ["consumer optima sum 0.0 differs from target 900.0"]


def test_validate_detects_length_violation():
    config = MarketConfig(9, 18, horizon=10, seed=1)
    spec = generate_scenario(MarketConfig(8, 18, horizon=10, seed=1), ScenarioMode.BOTH_CONCAVE, 900.0, 2)
    violations = validate_scenario(spec, config)
    assert any("supplier utilities" in v for v in violations)


def test_validate_monotone_mode_requires_sqrt():
    config = MarketConfig(1, 1, horizon=10, seed=1)
    spec = ScenarioSpec(
        supplier_utilities=(UtilitySpec.quadratic(900.0, 10.0),),
        consumer_utilities=(UtilitySpec.quadratic(900.0, 10.0),),
        target_sum=900.0,
        mode=ScenarioMode.MONOTONE_SUPPLIERS,
    )
    assert any("sqrt" in v for v in validate_scenario(spec, config))


def test_validate_config_catches_bad_fields():
    bad = MarketConfig(0, 1, gamma=2.0, horizon=-1, seed=-2, initial_quantity=-3.0)
    violations = validate_config(bad)
    assert len(violations) == 4


def test_validate_config_gamma_mismatch(tmp_path):
    # a config holds one gamma, so only a file can state two: loading refuses it
    config, scenario = reference_configs()["paper-a"]
    payload = json.loads(config_text(config, scenario))
    payload["config"]["gamma"] = 3.0
    inconsistent = tmp_path / "inconsistent.json"
    inconsistent.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="disagrees"):
        load_config_file(inconsistent)


# --- reference configs ------------------------------------------------------


def test_reference_configs_paper_values():
    refs = reference_configs()
    config_a, scenario_a = refs["paper-a"]
    assert config_a.gamma == 2.0
    assert config_a.num_suppliers == 9
    assert config_a.num_consumers == 18
    assert config_a.alpha_s == 5.0
    assert config_a.beta_s == 0.75
    assert config_a.horizon == 5000
    assert scenario_a.target_sum == 900.0
    assert scenario_a.mode is ScenarioMode.BOTH_CONCAVE

    config_b, scenario_b = refs["paper-b"]
    assert all(u.kind is UtilityKind.SQRT_MONOTONE for u in scenario_b.supplier_utilities)
    assert config_b.beta_c == 0.75


def test_reference_configs_validate_cleanly():
    for config, scenario in reference_configs().values():
        assert validate_config(config) == []
        assert validate_scenario(scenario, config) == []


def test_reference_configs_reproducible():
    a = reference_configs()
    b = reference_configs()
    assert a == b


# --- config files -----------------------------------------------------------


def test_config_file_round_trip(tmp_path):
    config, scenario = reference_configs()["paper-a"]
    path = tmp_path / "paper-a.json"
    path.write_bytes(config_text(config, scenario))
    loaded_config, loaded_scenario = load_config_file(path)
    assert loaded_config == config
    assert loaded_scenario == scenario
    # the role dicts' gamma keys are optional
    payload = json.loads(path.read_text())
    for side in ("supplier_params", "consumer_params"):
        del payload["config"][side]["gamma"]
    without = tmp_path / "without-role-gamma.json"
    without.write_text(json.dumps(payload))
    assert load_config_file(without) == (config, scenario)
    flipped = replace(config, flip_signal_semantics=True)
    path.write_bytes(config_text(flipped, scenario))
    assert load_config_file(path) == (flipped, scenario)


def test_config_file_is_json_with_mirrored_field_names():
    config, scenario = reference_configs()["paper-b"]
    payload = json.loads(config_text(config, scenario))
    assert set(payload) == {"config", "scenario"}
    assert payload["config"]["num_suppliers"] == 9
    assert payload["config"]["supplier_params"]["beta"] == 0.75
    assert payload["scenario"]["mode"] == "monotone_suppliers"
    assert "scale" in payload["scenario"]["supplier_utilities"][0]


def test_load_rejects_malformed_file(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_config_file(bad)
    bad.write_text(json.dumps({"config": {}}))
    with pytest.raises(ValueError, match="malformed"):
        load_config_file(bad)


def test_with_overrides(tmp_path):
    # each of the CLI's override flags replaces its field, read back from run_config.json
    config, _ = reference_configs()["paper-a"]
    every = {"seed": 1, "horizon": 10, "gamma": 0.5, "alpha_s": 2.0, "beta_s": 0.5, "alpha_c": 3.0, "beta_c": 0.25,
             "flip_signal_semantics": True}
    for given in (every, {"horizon": 10, "beta_c": 0.5}):
        out = tmp_path / f"out{len(given)}"
        flags = [item for name, value in given.items()
                 for item in (f"--{name.replace('_', '-')}", str(value))[:1 if value is True else 2]]
        assert main(["run", "--reference", "paper-a", *flags, "--out", str(out)]) == 0
        written, _ = load_config_file(out / "run_config.json")
        assert written == replace(config, **given)  # untouched values survive
    written = json.loads((tmp_path / "out8" / "run_config.json").read_text())["config"]
    assert written["supplier_params"] == {"alpha": 2.0, "beta": 0.5, "gamma": 0.5}
    assert written["consumer_params"] == {"alpha": 3.0, "beta": 0.25, "gamma": 0.5}
    assert [written[name] for name in ("seed", "horizon", "gamma", "num_consumers")] == [1, 10, 0.5, 18]

