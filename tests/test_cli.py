import csv
import json
import os
import re
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from aimdmarket import cli, metrics
from aimdmarket.cli import main
from aimdmarket.scenario import (
    REFERENCE_NAMES,
    MarketConfig,
    ScenarioMode,
    ScenarioSpec,
    generate_scenario,
    reference_configs,
    save_config_file,
)
from aimdmarket.utility import UtilitySpec
from export_schedule import streamed_export


@pytest.fixture
def config_file(tmp_path):
    config = MarketConfig(2, 3, horizon=80, seed=11, initial_quantity=10.0)
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


@pytest.mark.parametrize("command", [["run"], ["replicate", "--replicates", "2"]], ids=["run", "replicate"])
def test_config_and_reference_together_are_refused(tmp_path, config_file, capsys, command):
    out = tmp_path / "out"
    args = [*command, "--config", str(config_file), "--reference", "paper-a", "--horizon", "5", "--out", str(out)]
    assert main(args) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": "give --config or --reference, not both"}
    assert not out.exists()


# each override flag, a value that neither config_file nor the defaults hold, and the run_config.json
# "config" keys that it sets: gamma is written once for the market and once in each side's params
OVERRIDES = {
    "--seed": (["5"], {("seed",): 5}),
    "--horizon": (["30"], {("horizon",): 30}),
    "--gamma": (["1.5"], {("gamma",): 1.5, ("supplier_params", "gamma"): 1.5, ("consumer_params", "gamma"): 1.5}),
    "--alpha-s": (["4.5"], {("supplier_params", "alpha"): 4.5}),
    "--beta-s": (["0.5"], {("supplier_params", "beta"): 0.5}),
    "--alpha-c": (["3.5"], {("consumer_params", "alpha"): 3.5}),
    "--beta-c": (["0.25"], {("consumer_params", "beta"): 0.25}),
    "--flip-signal-semantics": ([], {("flip_signal_semantics",): True}),
}


@pytest.mark.parametrize("flag", OVERRIDES)
def test_every_override_flag_reaches_run_config(tmp_path, config_file, flag):
    # the written config is the file's with exactly the flag's keys changed, to values of the field's type
    values, changes = OVERRIDES[flag]
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_file), flag, *values, "--out", str(out)]) == 0
    expected = json.loads(config_file.read_text())["config"]
    for (*parents, key), value in changes.items():
        target = expected
        for parent in parents:
            target = target[parent]
        assert target.get(key) != value
        target[key] = value
    written = json.loads((out / "run_config.json").read_text())["config"]
    assert repr(written) == repr(expected)


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
    config = MarketConfig(2, 2, horizon=10, seed=1)
    scenario = generate_scenario(MarketConfig(3, 2, horizon=10, seed=1), ScenarioMode.BOTH_CONCAVE, 100.0, 1)
    path = save_config_file(tmp_path / "broken.json", config, scenario)
    assert main(["validate", "--config", str(path)]) != 0
    out = capsys.readouterr().out
    assert "violation:" in out


def test_validate_unreadable_file(tmp_path, capsys):
    path = tmp_path / "nope.json"
    path.write_text("{")
    assert main(["validate", "--config", str(path)]) != 0


def test_a_file_that_is_not_utf_8_is_refused_as_not_json(tmp_path, capsys):
    path = tmp_path / "utf-16.json"
    path.write_bytes(b"\xff\xfe\x00{}")
    assert main(["validate", "--config", str(path)]) == 1
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith(f"violation: {path}: not valid JSON: ")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"].startswith(f"{path}: not valid JSON: ")
    assert not out.exists()


def _nested_at(payload, keys, depth: int) -> str:
    """``payload`` as JSON text with the value at ``keys`` an array nested ``depth`` deep; with no keys,
    that array is the whole document."""
    deep = "[" * depth + "]" * depth
    if not keys:
        return deep
    *parents, leaf = keys
    target = payload
    for key in parents:
        target = target[key]
    target[leaf] = "deep"
    return json.dumps(payload).replace('"deep"', deep)


def test_a_config_file_nested_too_deeply_is_one_refusal_without_a_traceback(tmp_path, config_file):
    # json.loads or the walk of the file recurses past the interpreter's limit on the two deepest on every
    # interpreter, and on the other two before 3.12; from 3.12 the walk takes one frame a level rather than
    # two, so those two may be read and then refused by their field, as any non-integer is
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH", "")])}
    paper_a = save_config_file(tmp_path / "paper-a.json", *reference_configs()["paper-a"])
    files = {"suppliers.json": _nested_at(json.loads(config_file.read_text()), ("config", "num_suppliers"), 985),
             "top.json": _nested_at(None, (), 100_000),
             "horizon.json": _nested_at(json.loads(paper_a.read_text()), ("config", "horizon"), 900),
             "suppliers-1200.json": _nested_at(json.loads(config_file.read_text()), ("config", "num_suppliers"), 1200)}
    lines = {}
    for name, text in files.items():
        path, out = tmp_path / name, tmp_path / "out"
        path.write_text(text)
        validate, run = (subprocess.run([sys.executable, "-m", "aimdmarket.cli", *command, "--config", str(path)],
                                        env=env, capture_output=True, timeout=60)
                         for command in (["validate"], ["run", "--out", str(out)]))
        assert (validate.returncode, validate.stderr) == (1, b""), name
        lines[name] = validate.stdout.decode().splitlines()
        assert lines[name] and all(line.startswith("violation: ") for line in lines[name]), name
        assert (run.returncode, run.stdout) == (1, b""), name
        (line,) = run.stderr.decode().splitlines()  # one JSON error, no traceback
        assert set(json.loads(line)) == {"error"}
        assert not out.exists()
    two_frames_a_level = sys.version_info < (3, 12)
    for name in ["top.json", "suppliers-1200.json"] + two_frames_a_level * ["suppliers.json", "horizon.json"]:
        assert lines[name] == [f"violation: {tmp_path / name}: malformed config file: nested too deeply"]


def test_validate_reads_utf_8_and_writes_its_lines_under_an_ascii_locale(tmp_path, config_file):
    # a C locale without UTF-8 mode: the locale's encoding is ASCII, for reading files and for stdout
    env = {**os.environ, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C",
           "PYTHONPATH": os.pathsep.join([str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    payload = json.loads(config_file.read_text())
    noted = tmp_path / "noted.json"
    noted.write_text(json.dumps({**payload, "note": "café"}, ensure_ascii=False), encoding="utf-8")
    latin = tmp_path / "latin-1.json"
    latin.write_bytes(noted.read_text(encoding="utf-8").encode("latin-1"))
    payload["scenario"]["mode"] = "café"
    mode = tmp_path / "mode.json"
    mode.write_text(json.dumps(payload))  # ASCII, the mode written as \u00e9

    def validate(path):
        done = subprocess.run([sys.executable, "-m", "aimdmarket.cli", "validate", "--config", str(path)], env=env,
                              capture_output=True, timeout=60)
        return done.returncode, done.stdout.decode("ascii"), done.stderr

    assert validate(noted) == (0, "ok\n", b"")
    code, out, err = validate(latin)
    assert (code, err) == (1, b"") and out.startswith(f"violation: {latin}: not valid JSON: 'utf-8' codec")
    code, out, err = validate(mode)
    assert (code, err) == (1, b"")
    assert out == f"violation: {mode}: malformed config file: mode: 'caf\\xe9' is not a valid ScenarioMode\n"


def test_no_command_opens_a_file_in_the_locale_encoding(tmp_path, config_file):
    # every text file is opened with an explicit encoding: the warning Python gives otherwise fails the command
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH", "")])}
    commands = [["run", "--config", str(config_file), "--out", str(tmp_path / "run")],
                ["replicate", "--config", str(config_file), "--replicates", "2", "--out", str(tmp_path / "rep")],
                ["validate", "--config", str(tmp_path / "run" / "run_config.json")]]
    for command in commands:
        done = subprocess.run([sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                               "-m", "aimdmarket.cli", *command], env=env, capture_output=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, b""), command
    assert (tmp_path / "run" / "run_config.json").read_bytes() == config_file.read_bytes()


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
    # a flipped run_config.json records the flip, and an unflipped one keeps its bytes (no key)
    assert "flip_signal_semantics" not in json.loads((normal / "run_config.json").read_text())["config"]
    assert json.loads((flipped / "run_config.json").read_text())["config"]["flip_signal_semantics"] is True


@pytest.mark.parametrize("first,replay", [
    (["paper-a", "--flip-signal-semantics", "--horizon", "300", "--format", "json"], ["run", "--format", "json"]),
    (["replicate", "--reference", "paper-a", "--flip-signal-semantics", "--replicates", "3", "--horizon", "300"],
     ["replicate", "--replicates", "3"]),
], ids=["run", "replicate"])
def test_a_flipped_run_replays_from_its_run_config(tmp_path, first, replay):
    # run_config.json records the flip, so running it again writes the same bytes, itself included
    original, replayed = tmp_path / "original", tmp_path / "replayed"
    assert main([*first, "--out", str(original)]) == 0
    assert main([*replay, "--config", str(original / "run_config.json"), "--out", str(replayed)]) == 0
    names = sorted(path.name for path in original.iterdir())
    assert names == sorted(path.name for path in replayed.iterdir())
    for name in names:
        assert (original / name).read_bytes() == (replayed / name).read_bytes(), name


def test_lambda_keeps_signed_zero(tmp_path):
    # Round 0 leaves every agent at 5; consumption (10) exceeds supply (5),
    # so round 1 signals the consumers, whose average 5.0 is exactly their
    # optimum: raw lambda = 2 * (-0.0) / 5 = -0.0, and the clamp keeps it.
    config = MarketConfig(1, 2, horizon=3, seed=1, initial_quantity=0.0)
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
    (("config", "supplier_params", "alpha"), -1.0),
    (("config", "consumer_params", "beta"), 1.0),
    (("config", "supplier_params", "alpha"), "5"),
    (("scenario", "consumer_utilities", 0, "curvature"), -1.0),
    (("scenario", "consumer_utilities", 0, "optimum"), "5"),
    (("config", "supplier_params", "gamma"), 3.0),  # the top-level gamma stays 2.0
    (("scenario", "target_sum"), "5"),
    (("config", "flip_signal_semantics"), 1),
    (("config", "flip_signal_semantics"), "true"),
    (("config", "flip_signal_semantics"), None),
]
# the only violation some bad fields give, naming the field (and a utility's agent)
FIELD_VIOLATIONS = {
    ("curvature", -1.0): "consumer[0]: curvature must be positive, got -1.0",
    ("optimum", "5"): "consumer[0]: optimum must be a finite number, got '5'",
    ("flip_signal_semantics", 1): "flip_signal_semantics must be true or false, got 1",
    ("flip_signal_semantics", "true"): "flip_signal_semantics must be true or false, got 'true'",
    ("flip_signal_semantics", None): "flip_signal_semantics must be true or false, got None",
}


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
    captured = capsys.readouterr()
    assert captured.out.startswith("violation:") and captured.err == ""
    expected = FIELD_VIOLATIONS.get((leaf, value))
    assert expected is None or captured.out == f"violation: {expected}\n"

    out = tmp_path / "out"
    assert main(["run", "--config", str(bad), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    (line,) = captured.err.splitlines()
    assert (expected or "") in json.loads(line)["error"]
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("path,where", [
    (("scenario", "consumer_utilities", 0, "kind"), "scenario.consumer_utilities[0]"),
    (("config", "horizon"), "config"),
    (("config", "supplier_params", "beta"), "config.supplier_params"),
    (("scenario",), "the top-level object"),
], ids=_field_id)
def test_validate_names_a_missing_key_and_where_it_belongs(tmp_path, config_file, capsys, path, where):
    payload = json.loads(config_file.read_text())
    *parents, leaf = path
    target = payload
    for key in parents:
        target = target[key]
    del target[leaf]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))

    assert main(["validate", "--config", str(bad)]) == 1
    assert capsys.readouterr().out == (
        f"violation: {bad}: malformed config file: missing key {leaf!r} in {where}\n"
    )
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
    assert f"missing key {leaf!r} in {where}" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("path,value,message", [
    (("config",), "x", "config must be an object, got 'x'"),
    (("config", "supplier_params"), 0, "config.supplier_params must be an object, got 0"),
    (("scenario", "consumer_utilities"), -1, "scenario.consumer_utilities must be an array, got -1"),
    (("scenario", "supplier_utilities"), {}, "scenario.supplier_utilities must be an array, got {}"),
    (("scenario", "supplier_utilities"), "", "scenario.supplier_utilities must be an array, got ''"),
    (("scenario", "supplier_utilities", 1), "x", "scenario.supplier_utilities[1] must be an object, got 'x'"),
    (("scenario", "mode"), "x", "mode: 'x' is not a valid ScenarioMode"),
], ids=_field_id)
def test_validate_names_the_place_of_a_wrongly_typed_field(tmp_path, config_file, capsys, path, value, message):
    payload = json.loads(config_file.read_text())
    *parents, leaf = path
    target = payload
    for key in parents:
        target = target[key]
    target[leaf] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))

    assert main(["validate", "--config", str(bad)]) == 1
    assert capsys.readouterr().out == f"violation: {bad}: malformed config file: {message}\n"
    out = tmp_path / "out"
    assert main(["run", "--config", str(bad), "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": f"{bad}: malformed config file: {message}"}
    assert not out.exists()


def test_a_wrongly_typed_object_is_named_in_read_order_whatever_the_file_order(tmp_path, config_file, capsys):
    # "scenario" is written before "config", and each holds a container of the wrong type: the one named is
    # config's, which is read first
    payload = json.loads(config_file.read_text())
    payload["config"]["supplier_params"] = 0
    payload["scenario"]["supplier_utilities"] = {}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": payload["scenario"], "config": payload["config"]}))
    message = f"{bad}: malformed config file: config.supplier_params must be an object, got 0"

    assert main(["validate", "--config", str(bad)]) == 1
    assert capsys.readouterr().out == f"violation: {message}\n"
    out = tmp_path / "out"
    assert main(["run", "--config", str(bad), "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": message}
    assert not out.exists()


@pytest.mark.parametrize("reference,unbounded,violation", [
    ("paper-a", lambda s: replace(s, consumer_utilities=(UtilitySpec.sqrt_monotone(1.0), *s.consumer_utilities[1:])),
     "consumer utilities must all have finite optima"),
    ("paper-b", lambda s: replace(s, mode=ScenarioMode.BOTH_CONCAVE),
     "both_concave mode requires finite supplier optima"),
], ids=["a sqrt consumer", "both_concave with sqrt suppliers"])
def test_a_side_whose_optima_must_add_up_refuses_a_sqrt_utility(tmp_path, capsys, reference, unbounded, violation):
    config, scenario = reference_configs()[reference]
    path = save_config_file(tmp_path / "unbounded.json", config, unbounded(scenario))

    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().out == f"violation: {violation}\n"
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": f"invalid run inputs: {violation}"}
    assert not out.exists()


def test_validate_reports_every_config_violation(tmp_path, config_file, capsys):
    # a field that fails the finiteness check does not hide another field's range
    payload = json.loads(config_file.read_text())
    payload["config"]["supplier_params"]["alpha"] = float("nan")
    payload["config"]["consumer_params"]["beta"] = 1.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))

    assert main(["validate", "--config", str(bad)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "violation: supplier_params.alpha must be a finite number, got nan",
        "violation: consumer_params.beta must lie in (0, 1), got 1.0",
    ]


def test_validate_reports_a_utility_and_a_config_violation_in_one_pass(tmp_path, config_file, capsys):
    # a bad utility field does not end the pass before the config's fields are checked
    payload = json.loads(config_file.read_text())
    payload["config"]["supplier_params"]["alpha"] = float("nan")
    payload["scenario"]["consumer_utilities"][0]["curvature"] = -1.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))

    assert main(["validate", "--config", str(bad)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "violation: supplier_params.alpha must be a finite number, got nan",
        "violation: consumer[0]: curvature must be positive, got -1.0",
    ]
    out = tmp_path / "out"
    assert main(["run", "--config", str(bad), "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    message = json.loads(line)["error"]
    assert "supplier_params.alpha must be a finite number" in message
    assert "consumer[0]: curvature must be positive" in message
    assert not out.exists()


def test_run_names_a_non_finite_agent_summary_field(tmp_path, config_file, capsys, monkeypatch):
    # strict_json names a field inside the summary's array of agents
    run = cli.run

    def run_with_one_infinite_derivative(*args, **options):
        result = run(*args, **options)
        result.summary["agents"][2]["final_derivative"] = float("inf")
        return result

    monkeypatch.setattr(cli, "run", run_with_one_infinite_derivative)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_file), "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "the run overflowed or went non-finite: agents[2].final_derivative is inf"
    assert not out.exists()


def test_a_summary_refused_while_a_worker_formats_leaves_no_out_directory(tmp_path, config_file, capsys,
                                                                         monkeypatch):
    # the worker formats its first chunk until it is killed; the summary is refused meanwhile
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    here, chunk_rows, run, formatting = os.getpid(), metrics._chunk_rows, cli.run, os.pipe()

    def slow_in_a_worker(*args):
        if os.getpid() != here:
            os.write(formatting[1], b".")
            time.sleep(60)
        return chunk_rows(*args)

    def run_with_an_infinite_summary(*args, **options):
        result = run(*args, **options)
        os.read(formatting[0], 1)  # the worker is formatting
        result.summary["trailing_mean_supply"] = float("inf")
        return result

    monkeypatch.setattr(metrics, "_chunk_rows", slow_in_a_worker)
    monkeypatch.setattr(cli, "run", run_with_an_infinite_summary)
    out = tmp_path / "out"
    started = time.monotonic()
    assert main(["run", "--config", str(config_file), "--horizon", "600", "--out", str(out)]) == 1
    assert time.monotonic() - started < 30  # the worker was killed, not waited for
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "the run overflowed or went non-finite: trailing_mean_supply is inf"
    assert not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    for fd in formatting:
        os.close(fd)


@pytest.mark.parametrize("command,fmt,horizon", [("paper-b", "json", 769), ("paper-a", "csv", 1000)])
def test_streamed_records_equal_an_export_of_the_finished_run(tmp_path, monkeypatch, command, fmt, horizon):
    # the CLI formats the records while it simulates, with a worker; with one CPU this process formats
    # them all, after the run
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert main([command, "--format", fmt, "--horizon", str(horizon), "--out", str(tmp_path / "cli")]) == 0
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    config, scenario = reference_configs()[command]
    expected = streamed_export(replace(config, horizon=horizon), scenario, fmt, tmp_path / f"records.{fmt}")
    assert (tmp_path / "cli" / f"records.{fmt}").read_bytes() == expected.read_bytes()


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


@pytest.mark.parametrize(
    "command,fmt",
    [("run", "csv"), ("run", "json"), ("replicate", "csv"), ("replicate", "json")],
    ids=["csv", "json", "replicate-csv", "replicate-json"],
)
@pytest.mark.parametrize("reference,path,value", OVERFLOWING_FIELDS, ids=_field_id)
def test_non_finite_run_fails_without_artifacts(tmp_path, capsys, reference, path, value, command, fmt):
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
    replicates = ["--replicates", "3"] if command == "replicate" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no numpy overflow notice either
        assert main([command, "--config", str(config), "--format", fmt, *replicates, "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    message = json.loads(line)["error"]
    # replicate names the field within its list of summaries, as "[k].<field>"
    where = ": " if command == "run" else r": (\[\d+\]\.)?"
    assert message.startswith("the run overflowed")
    assert re.search(where + f"{OVERFLOWING_SUMMARY_FIELD[value]} is ", message)
    assert not out.exists() or not any(out.iterdir())  # no artifact, no temp file


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_replicate_refuses_a_band_that_overflows(tmp_path, capsys, fmt):
    # a sqrt supplier of scale 1e308 whose average starts near 0: u' overflows
    # in the opening rounds, and the band with it, while every summary is finite
    saved = save_config_file(tmp_path / "paper-b.json", *reference_configs()["paper-b"])
    payload = json.loads(saved.read_text())
    payload["config"].update(horizon=20, initial_quantity=0.0)
    payload["config"]["supplier_params"]["alpha"] = 0.01
    payload["scenario"]["supplier_utilities"][0]["scale"] = 1e308
    config = tmp_path / "overflow.json"
    config.write_text(json.dumps(payload))

    out = tmp_path / "out"
    assert main(["replicate", "--config", str(config), "--replicates", "3", "--format", fmt, "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "the run overflowed or went non-finite: band column mean"
    assert not out.exists()  # the band is built before --out is made


@pytest.mark.parametrize("fmt,expected", [
    ("csv", b"round,mean,lower,upper,replicate_count\n"),
    ("json", b'{"replicate_count":2,"rounds":[],"mean":[],"lower":[],"upper":[]}\n'),
])
def test_replicate_writes_an_empty_band_at_horizon_zero(tmp_path, fmt, expected):
    out = tmp_path / "out"
    assert main(["replicate", "--reference", "paper-a", "--replicates", "2", "--horizon", "0", "--format", fmt,
                 "--out", str(out)]) == 0
    assert (out / f"band_supplier_derivative.{fmt}").read_bytes() == expected


@pytest.mark.parametrize("command,artifact", [("replicate", "band_supplier_derivative.csv"),
                                              ("replicate", "run_config.json"), ("run", "summary.json")])
def test_a_failed_write_names_its_artifact_not_its_temporary_file(tmp_path, config_file, capsys, command, artifact):
    # a directory where the artifact belongs: moving the written file onto it fails
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    replicates = ["--replicates", "2"] if command == "replicate" else []
    assert main([command, "--config", str(config_file), *replicates, "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"].startswith(f"cannot write {out / artifact}: ")
    assert not [path for path in out.iterdir() if path.name.endswith(".tmp")]


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
    # a file that states two values of gamma is refused even with --gamma
    assert main(["run", "--config", str(config), "--gamma", "3.0", "--out", str(out)]) == 1
    capsys.readouterr()
    # --gamma sets the one gamma, which run_config.json writes in all three places
    assert main(["run", "--config", str(config_file), "--gamma", "3.0", "--out", str(out)]) == 0
    written = json.loads((out / "run_config.json").read_text())["config"]
    assert [written["gamma"], written["supplier_params"]["gamma"], written["consumer_params"]["gamma"]] == [3.0] * 3


def test_validate_reports_a_contradicting_role_gamma_with_the_config_violations(tmp_path, config_file, capsys):
    # the disagreement does not end the pass before validate_config checks the top-level gamma
    payload = json.loads(config_file.read_text())
    payload["config"]["gamma"] = -1.0  # both role keys still say 2.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))

    assert main(["validate", "--config", str(bad)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "violation: supplier_params.gamma 2.0 disagrees with config gamma -1.0",
        "violation: consumer_params.gamma 2.0 disagrees with config gamma -1.0",
        "violation: gamma must be nonnegative, got -1.0",
    ]
    out = tmp_path / "out"
    assert main(["run", "--config", str(bad), "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert "disagrees" in json.loads(line)["error"]
    assert not out.exists()


def test_reference_choices_sample_no_scenario(monkeypatch):
    # argparse's --reference choices come from the names alone; only a run samples the references
    assert tuple(reference_configs()) == REFERENCE_NAMES
    monkeypatch.setattr(cli, "reference_configs", lambda: pytest.fail("sampled the reference scenarios"))
    parser = cli.build_parser()
    assert parser.parse_args(["run", "--reference", "paper-b", "--out", "x"]).reference == "paper-b"
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--reference", "paper-c", "--out", "x"])


@pytest.mark.parametrize("path,name", [
    (("config", "supplier_params", "alpha"), "supplier_params.alpha"),
    (("scenario", "consumer_utilities", 0, "optimum"), "consumer[0]: optimum"),
], ids=["config", "utility"])
def test_an_int_too_large_for_a_float_is_a_violation(tmp_path, config_file, capsys, path, name):
    payload = json.loads(config_file.read_text())
    *parents, leaf = path
    target = payload
    for key in parents:
        target = target[key]
    target[leaf] = 10**400  # written as a JSON integer
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))

    assert main(["validate", "--config", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [f"violation: {name} must be a finite number, got {10**400!r}"]
    assert captured.err == ""
    out = tmp_path / "out"
    assert main(["run", "--config", str(bad), "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert f"{name} must be a finite number" in json.loads(line)["error"]
    assert not out.exists()


def test_a_run_too_large_to_allocate_fails_without_artifacts(tmp_path, capsys):
    # numpy refuses the (10**15 + 1) x 27 float columns (192 PiB) at once, touching no memory
    out = tmp_path / "out"
    assert main(["paper-a", "--horizon", str(10**15), "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert "Unable to allocate" in json.loads(line)["error"]
    assert not out.exists()
