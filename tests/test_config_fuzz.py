"""Config files with one field changed, through ``validate`` and ``run``.

Each example edits one field of a saved paper-a config: a wrong type, a JSON
NaN or infinity, a negative or zero value, ``10**400``, a missing key, an
unknown ``kind``, a field of the other utility kind, or the field's own content
as another JSON type (an object, an array or a scalar swapped for another).
``validate`` must end with ``ok`` or ``violation:`` lines or one JSON error,
and ``run`` with its artifacts or one JSON error: never a traceback, never an
artifact of a refused run, never a worker left behind, and never a refusal that
names no field's place.  Kept apart from ``test_cli`` so that an environment
without Hypothesis still collects the other CLI tests.
"""

import io
import json
import math
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from aimdmarket import market, metrics
from aimdmarket.cli import main
from aimdmarket.scenario import config_text, reference_configs
from test_cli import OVERFLOWING_FIELDS

MISSING = object()  # the edit that deletes the field
# the edits that swap the field for its own content as another JSON type (``_swapped``)
AS_ARRAY, AS_OBJECT, AS_SCALAR = "as array", "as object", "as scalar"


def _payload(reference: str) -> dict:
    return json.loads(config_text(*reference_configs()[reference]))


def _paths(node, path=()):
    """The path of every field below ``node``, objects and arrays too."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, item in items:
        yield path + (key,)
        yield from _paths(item, path + (key,))


_PAPER_A = _payload("paper-a")
# every field of paper-a but the utilities after each side's first, and the first ones' "scale", which only
# a sqrt utility has
_FIELDS = [path for path in _paths(_PAPER_A) if len(path) < 3 or path[2] == 0] + [
    ("scenario", "supplier_utilities", 0, "scale"), ("scenario", "consumer_utilities", 0, "scale")]
_VALUES = ["x", None, [], {}, True, math.nan, math.inf, -math.inf, -1, -1.0, 0, 0.0, 10**400, "cubic", "sqrt_monotone",
           MISSING, AS_ARRAY, AS_OBJECT, AS_SCALAR]


def _keys(node) -> set:
    return {key for path in _paths(node) for key in path if isinstance(key, str)}


# a refusal names a place: a key of the config file or of the summary, a records column, an agent as
# validation writes it (supplier[3]), or one side's utilities or optima
_config, _scenario = reference_configs()["paper-a"]
_SUMMARY = market.run(replace(_config, horizon=0), _scenario).summary
_PLACE = re.compile(r"\b(%s)\b|\b(supplier|consumer)(\[\d+\]| utilities| optima)"
                    % "|".join(sorted(_keys(_PAPER_A) | _keys(_SUMMARY) | set(metrics.CHECKED_COLUMNS))))


def _swapped(value, to: str):
    """``value``'s content as another JSON type: as an array, an object's values or ``[value]``; as an object,
    an array's items by index or ``{"value": value}``; as a scalar, a container's length or a scalar's JSON text."""
    if to == AS_ARRAY:
        return list(value.values()) if isinstance(value, dict) else [value]
    if to == AS_OBJECT:
        return {str(i): item for i, item in enumerate(value)} if isinstance(value, list) else {"value": value}
    return len(value) if isinstance(value, (dict, list)) else json.dumps(value)


def _edited(reference: str, path: tuple, value) -> str:
    payload = json.loads(json.dumps(_PAPER_A if reference == "paper-a" else _payload(reference)))
    *parents, leaf = path
    parent = payload
    for key in parents:
        parent = parent[key]
    if value in (AS_ARRAY, AS_OBJECT, AS_SCALAR):  # an absent "scale" is swapped as null
        parent[leaf] = _swapped(parent[leaf] if isinstance(parent, list) else parent.get(leaf), value)
    elif value is not MISSING:
        parent[leaf] = value
    elif isinstance(parent, list) or leaf in parent:  # an absent "scale" stays absent
        del parent[leaf]
    return json.dumps(payload)


def _cli(*argv) -> tuple[int, list[str], list[str]]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue().splitlines(), err.getvalue().splitlines()


def _one_error(stdout: list[str], stderr: list[str]) -> bool:
    return not stdout and len(stderr) == 1 and isinstance(json.loads(stderr[0])["error"], str)


def _names_a_place(refusal: list[str], config: Path) -> bool:
    # neither the config file's path nor the words "malformed config file" name a place within it
    text = "\n".join(refusal).replace(str(config), "").replace("malformed config file", "")
    return bool(_PLACE.search(text))


def _strict(text: str):
    return json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} in an artifact"))


@settings(derandomize=True, max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.just("paper-a"), st.sampled_from(_FIELDS), st.sampled_from(_VALUES))
@example(*OVERFLOWING_FIELDS[0])  # refused after the export's fork, as are the next two
@example(*OVERFLOWING_FIELDS[1])
@example(*OVERFLOWING_FIELDS[2])
@example("paper-a", ("scenario", "consumer_utilities", 3, "kind"), "cubic")
@example("paper-a", ("scenario", "supplier_utilities", 0, "scale"), 1.0)
@example("paper-a", ("config",), "x")  # a wrongly typed object or array, named by its place
@example("paper-a", ("config", "supplier_params"), 0)
@example("paper-a", ("scenario", "consumer_utilities"), -1)
@example("paper-a", ("scenario", "supplier_utilities"), AS_OBJECT)
@example("paper-a", ("scenario", "mode"), AS_ARRAY)
def test_one_edited_field_ends_cleanly(monkeypatch, reference, path, value):
    # three export chunks of 8 rounds and two usable CPUs: every run that reaches the export forks a worker
    monkeypatch.setattr(metrics, "EXPORT_CHUNK", 8)
    monkeypatch.setattr(market, "EXPORT_CHUNK", 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with tempfile.TemporaryDirectory() as scratch:
        config, out = Path(scratch) / "edited.json", Path(scratch) / "out"
        config.write_text(_edited(reference, path, value))

        code, stdout, stderr = _cli("validate", "--config", str(config))
        if code == 0:
            assert (stdout, stderr) == (["ok"], [])
        else:
            assert code == 1
            assert _one_error(stdout, stderr) or (stdout and not stderr and all(
                line.startswith("violation: ") for line in stdout))
            assert _names_a_place(stdout + stderr, config)

        code, stdout, stderr = _cli("run", "--config", str(config), "--horizon", "20", "--out", str(out))
        if code == 0:
            assert not stderr
            assert _strict((out / "summary.json").read_text())["final_round"] == 20
            _strict((out / "run_config.json").read_text())
        else:
            assert code == 1 and _one_error(stdout, stderr)
            assert _names_a_place(stderr, config)
            assert not out.exists() or not any(out.iterdir())
    with pytest.raises(ChildProcessError):  # every export worker was reaped
        os.waitpid(-1, os.WNOHANG)
