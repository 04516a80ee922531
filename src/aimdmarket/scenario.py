"""Experiment configuration: run parameters and sampled agent populations.

A scenario draws each agent's private utility at random while keeping the
side totals deterministic: optimum quantities are normalized positive
random weights scaled to a target sum, so supply-side and demand-side
optima add up to the same constant by construction.
"""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import contextmanager
import dataclasses
from dataclasses import KW_ONLY, dataclass
from enum import Enum
from pathlib import Path
from typing import Optional

import numpy as np

from .utility import UtilityKind, UtilitySpec, ordered_sum

DEFAULT_WEIGHT_RANGE = (0.5, 1.5)
# Curvatures must keep the raw back-off probability below 1 once an agent's
# average reaches the operating range, or the agent locks into certain
# back-off and its average can never climb to the optimum (needs roughly
# curvature > optimum/5 at the default constants).  The utility-sum
# coupling rescales curvatures to a fixed mean, so what matters here is a
# tight relative spread keeping the post-coupling minimum high.
DEFAULT_CURVATURE_RANGE = (20.0, 30.0)
# Sqrt suppliers are restrained only by back-off.  Small scales cannot stop
# additive growth (supply runs away); very large ones make every signaled
# round a certain synchronized cut, whose deep sawtooth drags the supply
# average ~12% under the balance point.  This range keeps back-off strong
# at the per-agent balance scale while leaving cuts partially
# desynchronized, so the aggregate hovers near the consumer-side target.
DEFAULT_SCALE_RANGE = (650.0, 1050.0)

SUM_REL_TOL = 1e-6


class ScenarioMode(str, Enum):
    BOTH_CONCAVE = "both_concave"
    MONOTONE_SUPPLIERS = "monotone_suppliers"


@dataclass(frozen=True)
class MarketConfig:
    """All run parameters for one market simulation; ``validate_config`` checks them.

    Each side has its AIMD constants, the additive step ``alpha_*`` and the
    back-off factor ``beta_*`` (``_s`` suppliers, ``_c`` consumers); ``gamma``
    is the market's one network constant.  A config file nests each side's
    pair as ``supplier_params``/``consumer_params`` (``to_dict``).
    ``flip_signal_semantics`` signals the side in deficit instead of the side
    in excess, for comparison studies.
    """

    num_suppliers: int
    num_consumers: int
    _: KW_ONLY
    alpha_s: float = 5.0
    beta_s: float = 0.75
    alpha_c: float = 5.0
    beta_c: float = 0.75
    gamma: float = 2.0
    horizon: int = 5000
    seed: int = 0
    initial_quantity: float = 0.0
    flip_signal_semantics: bool = False

    def to_dict(self) -> dict:
        # each role dict repeats gamma, as config files always have; the flip is written only when set,
        # so an unflipped config file keeps its bytes
        record = {
            "num_suppliers": self.num_suppliers,
            "num_consumers": self.num_consumers,
            "supplier_params": {"alpha": self.alpha_s, "beta": self.beta_s, "gamma": self.gamma},
            "consumer_params": {"alpha": self.alpha_c, "beta": self.beta_c, "gamma": self.gamma},
            "gamma": self.gamma,
            "horizon": self.horizon,
            "seed": self.seed,
            "initial_quantity": self.initial_quantity,
        }
        if self.flip_signal_semantics:
            record["flip_signal_semantics"] = self.flip_signal_semantics
        return record

    @classmethod
    def from_dict(cls, record: dict, violations: Optional[list[str]] = None) -> "MarketConfig":
        """Inverse of ``to_dict``.  A role's ``gamma`` key is optional; one that contradicts a finite
        top-level ``gamma`` raises ValueError or, given a ``violations`` list, is appended to it."""
        gamma = record["gamma"]
        params, disagreements = {}, [] if violations is None else violations
        for side in ("supplier", "consumer"):
            role = record[f"{side}_params"]
            params[f"alpha_{side[0]}"], params[f"beta_{side[0]}"] = role["alpha"], role["beta"]
            if not _not_finite(gamma) and role.get("gamma", gamma) != gamma:
                disagreements.append(f"{side}_params.gamma {role['gamma']!r} disagrees with config gamma {gamma!r}")
        if disagreements and violations is None:
            raise ValueError("; ".join(disagreements))
        return cls(
            record["num_suppliers"],
            record["num_consumers"],
            **params,
            gamma=gamma,
            horizon=record["horizon"],
            seed=record["seed"],
            initial_quantity=record.get("initial_quantity", 0.0),
            flip_signal_semantics=record.get("flip_signal_semantics", False),
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """The sampled agent populations plus the constrained side total."""

    supplier_utilities: tuple[UtilitySpec, ...]
    consumer_utilities: tuple[UtilitySpec, ...]
    target_sum: float
    mode: ScenarioMode

    def to_dict(self) -> dict:
        return {
            "mode": self.mode.value,
            "target_sum": self.target_sum,
            "supplier_utilities": [u.to_dict() for u in self.supplier_utilities],
            "consumer_utilities": [u.to_dict() for u in self.consumer_utilities],
        }

    @classmethod
    def from_dict(cls, record: dict) -> "ScenarioSpec":
        """Inverse of ``to_dict``.  A utility of unknown ``kind`` raises
        ValueError naming its agent, as ``supplier[i]: ...``, and an unknown
        ``mode`` as ``mode: ...``; ``validate_scenario`` checks the other fields."""
        utilities = {}
        for side in ("supplier", "consumer"):
            specs = []
            for i, item in enumerate(record[f"{side}_utilities"]):
                try:
                    specs.append(UtilitySpec.from_dict(item))
                except ValueError as exc:
                    raise ValueError(f"{side}[{i}]: {exc}") from None
            utilities[f"{side}_utilities"] = tuple(specs)
        try:
            mode = ScenarioMode(record["mode"])
        except ValueError as exc:
            raise ValueError(f"mode: {exc}") from None
        return cls(**utilities, target_sum=record["target_sum"], mode=mode)


def _sample_side(rng: np.random.Generator, kind: UtilityKind, count: int, target_sum: float) -> tuple[UtilitySpec, ...]:
    """One side's utilities, drawn in order: a quadratic side's optima, then its curvatures; a sqrt side's scales."""
    if kind is UtilityKind.SQRT_MONOTONE:
        return tuple(UtilitySpec.sqrt_monotone(float(l)) for l in rng.uniform(*DEFAULT_SCALE_RANGE, size=count))
    # weights from an interval of positive numbers, normalized to the target: no optimum is 0
    weights = rng.uniform(*DEFAULT_WEIGHT_RANGE, size=count)
    optima = (target_sum * weights / weights.sum()).tolist()
    curvatures = rng.uniform(*DEFAULT_CURVATURE_RANGE, size=count)
    return tuple(UtilitySpec.quadratic(z, float(h)) for z, h in zip(optima, curvatures))


def generate_scenario(config: MarketConfig, mode: ScenarioMode, target_sum: float, sampler_seed: int) -> ScenarioSpec:
    """Sample agent utilities satisfying the scenario sum constraints.

    Draw order is fixed (supplier parameters, then consumer optima, then
    consumer curvatures), so equal seeds give identical scenarios.  Every
    quadratic agent's curvature, on either side, is then rescaled so that
    their maximum utilities add to ``target_sum`` (sqrt suppliers have no
    maximum).  ``validate_scenario`` checks ``target_sum``.
    """
    rng = np.random.default_rng(sampler_seed)
    kinds = (UtilityKind.QUADRATIC if mode is ScenarioMode.BOTH_CONCAVE else UtilityKind.SQRT_MONOTONE,
             UtilityKind.QUADRATIC)
    sides = [_sample_side(rng, kind, count, target_sum)
             for kind, count in zip(kinds, (config.num_suppliers, config.num_consumers))]
    quadratic = [i for i, kind in enumerate(kinds) if kind is UtilityKind.QUADRATIC]
    # summed per side, then over the sides: the order the pinned scenarios were sampled in
    factor = target_sum / (1.5 * ordered_sum([ordered_sum([u.curvature for u in sides[i]]) for i in quadratic]))
    for i in quadratic:
        sides[i] = tuple(dataclasses.replace(u, curvature=u.curvature * factor) for u in sides[i])
    return ScenarioSpec(*sides, float(target_sum), mode)


def _not_finite(value) -> bool:
    """True unless ``value`` is an int or float in the finite float range (a bool is not a number)."""
    return isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max


def _field_violations(fields) -> list[str]:
    """One violation per field of (name, value, integer?, range rule, the rule
    as text) that fails its type and finiteness check or, if it passes, its range."""
    violations = []
    for name, value, integer, in_range, rule in fields:
        if integer and (isinstance(value, bool) or not isinstance(value, int)):
            violations.append(f"{name} must be an integer, got {value!r}")
        elif not integer and _not_finite(value):
            violations.append(f"{name} must be a finite number, got {value!r}")
        elif not in_range(value):
            violations.append(f"{name} {rule}, got {value}")
    return violations


def validate_config(config: MarketConfig) -> list[str]:
    """Collect config violations (empty list when valid), named as in a config file."""
    violations = _field_violations([
        ("num_suppliers", config.num_suppliers, True, lambda v: v >= 1, "must be >= 1"),
        ("num_consumers", config.num_consumers, True, lambda v: v >= 1, "must be >= 1"),
        ("horizon", config.horizon, True, lambda v: v >= 0, "must be nonnegative"),
        ("seed", config.seed, True, lambda v: v >= 0, "must be nonnegative"),
        ("initial_quantity", config.initial_quantity, False, lambda v: v >= 0, "must be nonnegative"),
        ("gamma", config.gamma, False, lambda v: v >= 0, "must be nonnegative"),
        ("supplier_params.alpha", config.alpha_s, False, lambda v: v > 0, "must be positive"),
        ("supplier_params.beta", config.beta_s, False, lambda v: 0 < v < 1, "must lie in (0, 1)"),
        ("consumer_params.alpha", config.alpha_c, False, lambda v: v > 0, "must be positive"),
        ("consumer_params.beta", config.beta_c, False, lambda v: 0 < v < 1, "must lie in (0, 1)"),
    ])
    if not isinstance(config.flip_signal_semantics, bool):
        violations.append(f"flip_signal_semantics must be true or false, got {config.flip_signal_semantics!r}")
    return violations


# each utility field: (the kind that uses it, range rule, the rule as text)
_UTILITY_FIELDS = {
    "optimum": (UtilityKind.QUADRATIC, lambda v: v >= 0, "must be nonnegative"),
    "curvature": (UtilityKind.QUADRATIC, lambda v: v > 0, "must be positive"),
    "scale": (UtilityKind.SQRT_MONOTONE, lambda v: v > 0, "must be positive"),
}


def validate_scenario(spec: ScenarioSpec, config: MarketConfig) -> list[str]:
    """Collect scenario violations against its invariants and the config.
    Each utility field must be unset unless its kind uses it; a used one is
    checked as ``validate_config`` checks a field."""
    counts, misplaced = [], []
    fields = [("target_sum", spec.target_sum, False, lambda v: v > 0, "must be positive")]
    for side, utilities, expected in (("supplier", spec.supplier_utilities, config.num_suppliers),
                                      ("consumer", spec.consumer_utilities, config.num_consumers)):
        if len(utilities) != expected:
            counts.append(f"expected {expected} {side} utilities, got {len(utilities)}")
        for i, u in enumerate(utilities):
            for name, (kind, in_range, rule) in _UTILITY_FIELDS.items():
                if u.kind is kind:
                    fields.append((f"{side}[{i}]: {name}", getattr(u, name), False, in_range, rule))
                elif getattr(u, name) is not None:
                    misplaced.append(f"{side}[{i}]: {name} is not a {u.kind.value} parameter")
    violations = counts + misplaced + _field_violations(fields)  # the order the messages have always come in
    if violations:  # the sums below assume a valid target and valid utilities
        return violations

    # each side whose optima must add to the target, with its message for an agent that has no optimum
    balanced = [("consumer", spec.consumer_utilities, "consumer utilities must all have finite optima")]
    if spec.mode is ScenarioMode.BOTH_CONCAVE:
        balanced.append(("supplier", spec.supplier_utilities, "both_concave mode requires finite supplier optima"))
    for side, utilities, unbounded in balanced:
        optima = [u.optimum for u in utilities]
        if None in optima:
            violations.append(unbounded)
        elif abs((total := ordered_sum(optima)) - spec.target_sum) > SUM_REL_TOL * spec.target_sum:
            violations.append(f"{side} optima sum {total} differs from target {spec.target_sum}")
    if spec.mode is ScenarioMode.MONOTONE_SUPPLIERS:
        violations += [f"supplier[{i}]: monotone_suppliers mode requires sqrt utilities"
                       for i, u in enumerate(spec.supplier_utilities) if u.kind is not UtilityKind.SQRT_MONOTONE]
    return violations


# Reference experiments: 9 suppliers vs 18 consumers, alpha=5, beta=0.75,
# gamma=2.0, side target 900, horizon 5000.  Seeds are fixed so the runs
# are reproducible; the scenario sampler seed is independent of the run
# seed so replicates can vary the run while holding the population fixed.
# Initial quantities: experiment A starts at 10 (small enough that the
# opening rounds carry real back-off randomness, large enough that every
# agent's average escapes the certain-back-off zone); experiment B starts
# at 25 because its sqrt suppliers already keep the opening rounds noisy
# while its consumers need the extra headroom.
PAPER_TARGET_SUM = 900.0
# name: (mode, run seed, sampler seed, initial quantity)
REFERENCE_EXPERIMENTS = {
    "paper-a": (ScenarioMode.BOTH_CONCAVE, 42, 9001, 10.0),
    "paper-b": (ScenarioMode.MONOTONE_SUPPLIERS, 43, 9002, 25.0),
}
REFERENCE_NAMES = tuple(REFERENCE_EXPERIMENTS)  # the keys of reference_configs(), known without sampling


def reference_configs() -> dict[str, tuple[MarketConfig, ScenarioSpec]]:
    """The named reference experiments with documented seeds."""
    references = {}
    for name, (mode, run_seed, sampler_seed, initial_quantity) in REFERENCE_EXPERIMENTS.items():
        config = MarketConfig(9, 18, horizon=5000, seed=run_seed, initial_quantity=initial_quantity)
        scenario = generate_scenario(config, mode, PAPER_TARGET_SUM, sampler_seed)
        references[name] = config, scenario
    return references


@contextmanager
def atomic_writer(path: Path):
    """A binary file, written bytes only, that replaces ``path`` only once the block completes.

    It is written beside ``path`` and moved onto it with ``os.replace``, so a write that fails leaves no
    partial file and any earlier file intact, and its OSError is ``cannot write <path>: <error>``.
    """
    temp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with temp.open("xb") as fh:
            yield fh
        os.replace(temp, path)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    finally:
        temp.unlink(missing_ok=True)


def strict_json(payload) -> bytes:
    """``payload`` as the bytes of indented strict JSON: a NaN or an infinity, which only a run that
    overflowed can put there, is refused with a ValueError that names its field."""
    try:
        return json.dumps(payload, indent=2, allow_nan=False).encode() + b"\n"
    except ValueError:
        raise ValueError(f"the run overflowed or went non-finite: {_non_finite_field(payload)}") from None


def _non_finite_field(value, path: str = "") -> Optional[str]:
    """``<path> is <value>`` for the first NaN or infinity in a ``strict_json`` payload."""
    if isinstance(value, float) and not math.isfinite(value):
        return f"{path} is {value!r}"
    if isinstance(value, dict):
        items = ((f"{path}.{key}" if path else key, item) for key, item in value.items())
    elif isinstance(value, list):
        items = ((f"{path}[{i}]", item) for i, item in enumerate(value))
    else:
        return None
    return next(filter(None, (_non_finite_field(item, where) for where, item in items)), None)


def save_config_file(path, config: MarketConfig, scenario: ScenarioSpec) -> Path:
    """Write config + scenario as one ``strict_json`` document, atomically; round-trips losslessly."""
    path = Path(path)
    with atomic_writer(path) as fh:
        fh.write(strict_json({"config": config.to_dict(), "scenario": scenario.to_dict()}))
    return path


class _Object(dict):
    """A JSON object of a config file that names its place when a key is missing."""

    def __missing__(self, key):
        raise KeyError(f"missing key {key!r} in {self.where}")


# the objects ({...}) and arrays ([item]) of a config file, in the order that the from_dict methods read them
_CONTAINERS = {"config": {"supplier_params": {}, "consumer_params": {}},
               "scenario": {"supplier_utilities": [{}], "consumer_utilities": [{}]}}


def _located(value, path: str, shape=None):
    """``value`` with every object an _Object that knows its path.  A value that ``shape`` has as an object
    ({...}) or an array ([item]) and that is not one is refused by its place, as from_dict may read it as one
    or as empty; ``shape``'s keys are walked first, in its order, so the place refused is the same whatever
    the file's key order.  It descends into every value: one too deep for a later message's repr fails here."""
    if shape is not None and not isinstance(value, type(shape)):
        expected = "an object" if isinstance(shape, dict) else "an array"
        raise ValueError(f"{path or 'the top level'} must be {expected}, got {value!r}")
    if isinstance(value, dict):  # shape's keys are located first; the _Object keeps the file's key order
        shape, located = shape or {}, _Object.fromkeys(value)
        for key in [*(key for key in shape if key in value), *(key for key in value if key not in shape)]:
            located[key] = _located(value[key], f"{path}.{key}" if path else key, shape.get(key))
        located.where = path or "the top-level object"
        return located
    if isinstance(value, list):
        return [_located(item, f"{path}[{i}]", shape and shape[0]) for i, item in enumerate(value)]
    return value


def load_config_file(path, violations: Optional[list[str]] = None) -> tuple[MarketConfig, ScenarioSpec]:
    """A config file's config and scenario; ``violations`` is as in ``MarketConfig.from_dict``."""
    path = Path(path)
    try:
        payload = _located(json.loads(path.read_text(encoding="utf-8")), "", _CONTAINERS)
        config = MarketConfig.from_dict(payload["config"], violations)
        scenario = ScenarioSpec.from_dict(payload["scenario"])
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError:  # from json.loads or the walk
        raise ValueError(f"{path}: malformed config file: nested too deeply") from None
    except KeyError as exc:  # from an _Object, naming the key and where it belongs
        raise ValueError(f"{path}: malformed config file: {exc.args[0]}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: malformed config file: {exc}") from exc
    return config, scenario
