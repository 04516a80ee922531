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
from contextlib import contextmanager
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Optional

import numpy as np

from .agent import RoleParams
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
    """All run parameters for one market simulation."""

    num_suppliers: int
    num_consumers: int
    supplier_params: RoleParams
    consumer_params: RoleParams
    gamma: float
    horizon: int
    seed: int
    initial_quantity: float = 0.0

    @classmethod
    def build(
        cls,
        num_suppliers: int,
        num_consumers: int,
        *,
        alpha_s: float = 5.0,
        beta_s: float = 0.75,
        alpha_c: float = 5.0,
        beta_c: float = 0.75,
        gamma: float = 2.0,
        horizon: int = 5000,
        seed: int = 0,
        initial_quantity: float = 0.0,
    ) -> "MarketConfig":
        """Construct a config with both role parameter sets sharing ``gamma``."""
        return cls(
            num_suppliers=num_suppliers,
            num_consumers=num_consumers,
            supplier_params=RoleParams(alpha_s, beta_s, gamma),
            consumer_params=RoleParams(alpha_c, beta_c, gamma),
            gamma=gamma,
            horizon=horizon,
            seed=seed,
            initial_quantity=initial_quantity,
        )

    def with_overrides(
        self,
        *,
        seed: Optional[int] = None,
        horizon: Optional[int] = None,
        gamma: Optional[float] = None,
        alpha_s: Optional[float] = None,
        beta_s: Optional[float] = None,
        alpha_c: Optional[float] = None,
        beta_c: Optional[float] = None,
    ) -> "MarketConfig":
        """Copy of this config with the given parameters replaced; ``gamma``
        replaces both roles' network constant too."""
        sup = RoleParams(
            self.supplier_params.alpha if alpha_s is None else alpha_s,
            self.supplier_params.beta if beta_s is None else beta_s,
            self.supplier_params.gamma if gamma is None else gamma,
        )
        con = RoleParams(
            self.consumer_params.alpha if alpha_c is None else alpha_c,
            self.consumer_params.beta if beta_c is None else beta_c,
            self.consumer_params.gamma if gamma is None else gamma,
        )
        return replace(
            self,
            seed=self.seed if seed is None else seed,
            horizon=self.horizon if horizon is None else horizon,
            gamma=self.gamma if gamma is None else gamma,
            supplier_params=sup,
            consumer_params=con,
        )

    def to_dict(self) -> dict:
        return {
            "num_suppliers": self.num_suppliers,
            "num_consumers": self.num_consumers,
            "supplier_params": {
                "alpha": self.supplier_params.alpha,
                "beta": self.supplier_params.beta,
                "gamma": self.supplier_params.gamma,
            },
            "consumer_params": {
                "alpha": self.consumer_params.alpha,
                "beta": self.consumer_params.beta,
                "gamma": self.consumer_params.gamma,
            },
            "gamma": self.gamma,
            "horizon": self.horizon,
            "seed": self.seed,
            "initial_quantity": self.initial_quantity,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "MarketConfig":
        gamma = record["gamma"]
        sup = record["supplier_params"]
        con = record["consumer_params"]
        return cls(
            num_suppliers=record["num_suppliers"],
            num_consumers=record["num_consumers"],
            supplier_params=RoleParams(sup["alpha"], sup["beta"], sup.get("gamma", gamma)),
            consumer_params=RoleParams(con["alpha"], con["beta"], con.get("gamma", gamma)),
            gamma=gamma,
            horizon=record["horizon"],
            seed=record["seed"],
            initial_quantity=record.get("initial_quantity", 0.0),
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
        return cls(
            supplier_utilities=tuple(UtilitySpec.from_dict(r) for r in record["supplier_utilities"]),
            consumer_utilities=tuple(UtilitySpec.from_dict(r) for r in record["consumer_utilities"]),
            target_sum=record["target_sum"],
            mode=ScenarioMode(record["mode"]),
        )


def _normalized_optima(rng: np.random.Generator, count: int, target_sum: float, weight_range) -> list[float]:
    # Open interval keeps every weight strictly positive, so no degenerate
    # zero optima and the normalized sum hits the target exactly.
    weights = rng.uniform(*weight_range, size=count)
    total = float(weights.sum())
    return [float(target_sum * w / total) for w in weights]


def generate_scenario(
    config: MarketConfig,
    mode: ScenarioMode,
    target_sum: float,
    sampler_seed: int,
    *,
    weight_range=DEFAULT_WEIGHT_RANGE,
    curvature_range=DEFAULT_CURVATURE_RANGE,
    scale_range=DEFAULT_SCALE_RANGE,
    couple_utility_sum: bool = False,
) -> ScenarioSpec:
    """Sample agent utilities satisfying the scenario sum constraints.

    Draw order is fixed (supplier parameters, then consumer optima, then
    consumer curvatures), so equal seeds give identical scenarios.

    With ``couple_utility_sum`` the quadratic curvatures are rescaled so
    the attainable maximum-utility sum equals ``target_sum`` as well:
    over all agents in ``BOTH_CONCAVE`` mode, over the consumer side in
    ``MONOTONE_SUPPLIERS`` mode (the suppliers then have no maximum).
    """
    if target_sum <= 0:
        raise ValueError("target_sum must be positive")
    rng = np.random.default_rng(sampler_seed)

    if mode is ScenarioMode.BOTH_CONCAVE:
        supplier_optima = _normalized_optima(rng, config.num_suppliers, target_sum, weight_range)
        supplier_curvatures = [float(v) for v in rng.uniform(*curvature_range, size=config.num_suppliers)]
    else:
        supplier_scales = [float(v) for v in rng.uniform(*scale_range, size=config.num_suppliers)]

    consumer_optima = _normalized_optima(rng, config.num_consumers, target_sum, weight_range)
    consumer_curvatures = [float(v) for v in rng.uniform(*curvature_range, size=config.num_consumers)]

    if couple_utility_sum:
        if mode is ScenarioMode.BOTH_CONCAVE:
            current = 1.5 * (ordered_sum(supplier_curvatures) + ordered_sum(consumer_curvatures))
            factor = target_sum / current
            supplier_curvatures = [h * factor for h in supplier_curvatures]
        else:
            current = 1.5 * ordered_sum(consumer_curvatures)
            factor = target_sum / current
        consumer_curvatures = [h * factor for h in consumer_curvatures]

    if mode is ScenarioMode.BOTH_CONCAVE:
        suppliers = tuple(
            UtilitySpec.quadratic(z, h) for z, h in zip(supplier_optima, supplier_curvatures)
        )
    else:
        suppliers = tuple(UtilitySpec.sqrt_monotone(l) for l in supplier_scales)

    consumers = tuple(
        UtilitySpec.quadratic(z, h) for z, h in zip(consumer_optima, consumer_curvatures)
    )
    return ScenarioSpec(suppliers, consumers, float(target_sum), mode)


def _not_finite(value) -> bool:
    return isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value)


def validate_config(config: MarketConfig) -> list[str]:
    """Collect config violations (empty list when valid)."""
    violations = []
    for name in ("num_suppliers", "num_consumers", "horizon", "seed"):
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, int):
            violations.append(f"{name} must be an integer, got {value!r}")
    numbers = {"initial_quantity": config.initial_quantity, "gamma": config.gamma}
    for side, params in (("supplier", config.supplier_params), ("consumer", config.consumer_params)):
        numbers.update({f"{side}_params.{field}": getattr(params, field) for field in ("alpha", "beta", "gamma")})
    for name, value in numbers.items():
        if _not_finite(value):
            violations.append(f"{name} must be a finite number, got {value!r}")
    if violations:  # the range checks below assume finite numbers
        return violations
    if config.num_suppliers < 1:
        violations.append(f"num_suppliers must be >= 1, got {config.num_suppliers}")
    if config.num_consumers < 1:
        violations.append(f"num_consumers must be >= 1, got {config.num_consumers}")
    if config.horizon < 0:
        violations.append(f"horizon must be nonnegative, got {config.horizon}")
    if config.seed < 0:
        violations.append(f"seed must be nonnegative, got {config.seed}")
    if config.initial_quantity < 0:
        violations.append(f"initial_quantity must be nonnegative, got {config.initial_quantity}")
    if config.gamma < 0:
        violations.append(f"gamma must be nonnegative, got {config.gamma}")
    for side, params in (("supplier", config.supplier_params), ("consumer", config.consumer_params)):
        if params.gamma != config.gamma:
            violations.append(f"{side}_params.gamma {params.gamma} disagrees with config gamma {config.gamma}")
    return violations


def validate_scenario(spec: ScenarioSpec, config: MarketConfig) -> list[str]:
    """Collect scenario violations against its invariants and the config."""
    violations = []
    if len(spec.supplier_utilities) != config.num_suppliers:
        violations.append(
            f"expected {config.num_suppliers} supplier utilities, got {len(spec.supplier_utilities)}"
        )
    if len(spec.consumer_utilities) != config.num_consumers:
        violations.append(
            f"expected {config.num_consumers} consumer utilities, got {len(spec.consumer_utilities)}"
        )
    if _not_finite(spec.target_sum):
        violations.append(f"target_sum must be a finite number, got {spec.target_sum!r}")
    elif spec.target_sum <= 0:
        violations.append(f"target_sum must be positive, got {spec.target_sum}")

    for label, u in [(f"supplier[{i}]", u) for i, u in enumerate(spec.supplier_utilities)] + [
        (f"consumer[{j}]", u) for j, u in enumerate(spec.consumer_utilities)
    ]:
        for field in ("optimum", "curvature", "scale"):
            value = getattr(u, field)
            if value is not None and _not_finite(value):
                violations.append(f"{label}: {field} must be a finite number, got {value!r}")

    def optima_sum(utilities) -> Optional[float]:
        total = 0.0
        for u in utilities:
            if u.argmax() is None:
                return None
            total += u.argmax()
        return total

    consumer_sum = optima_sum(spec.consumer_utilities)
    if consumer_sum is None:
        violations.append("consumer utilities must all have finite optima")
    elif abs(consumer_sum - spec.target_sum) > SUM_REL_TOL * spec.target_sum:
        violations.append(
            f"consumer optima sum {consumer_sum} differs from target {spec.target_sum}"
        )

    if spec.mode is ScenarioMode.BOTH_CONCAVE:
        supplier_sum = optima_sum(spec.supplier_utilities)
        if supplier_sum is None:
            violations.append("both_concave mode requires finite supplier optima")
        elif abs(supplier_sum - spec.target_sum) > SUM_REL_TOL * spec.target_sum:
            violations.append(
                f"supplier optima sum {supplier_sum} differs from target {spec.target_sum}"
            )
    else:
        for i, u in enumerate(spec.supplier_utilities):
            if u.kind is not UtilityKind.SQRT_MONOTONE:
                violations.append(f"supplier[{i}]: monotone_suppliers mode requires sqrt utilities")
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
PAPER_A_RUN_SEED = 42
PAPER_A_SCENARIO_SEED = 9001
PAPER_A_INITIAL_QUANTITY = 10.0
PAPER_B_RUN_SEED = 43
PAPER_B_SCENARIO_SEED = 9002
PAPER_B_INITIAL_QUANTITY = 25.0
PAPER_TARGET_SUM = 900.0


def reference_configs() -> dict[str, tuple[MarketConfig, ScenarioSpec]]:
    """The two named reference experiments with documented seeds."""
    config_a = MarketConfig.build(
        9, 18, horizon=5000, seed=PAPER_A_RUN_SEED, initial_quantity=PAPER_A_INITIAL_QUANTITY
    )
    scenario_a = generate_scenario(
        config_a,
        ScenarioMode.BOTH_CONCAVE,
        PAPER_TARGET_SUM,
        PAPER_A_SCENARIO_SEED,
        couple_utility_sum=True,
    )
    config_b = MarketConfig.build(
        9, 18, horizon=5000, seed=PAPER_B_RUN_SEED, initial_quantity=PAPER_B_INITIAL_QUANTITY
    )
    scenario_b = generate_scenario(
        config_b,
        ScenarioMode.MONOTONE_SUPPLIERS,
        PAPER_TARGET_SUM,
        PAPER_B_SCENARIO_SEED,
        couple_utility_sum=True,
    )
    return {"paper-a": (config_a, scenario_a), "paper-b": (config_b, scenario_b)}


@contextmanager
def atomic_writer(path: Path):
    """A text file that replaces ``path`` only once the block completes.

    It is written beside ``path`` and moved onto it with ``os.replace``,
    so a write that fails leaves no partial file and any earlier file
    intact.
    """
    temp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with temp.open("x", newline="") as fh:
            yield fh
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


def strict_json(payload) -> str:
    """``payload`` as indented strict JSON: a NaN or an infinity, which only
    a run that overflowed can put there, is refused with a ValueError that
    names its field."""
    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise ValueError(f"the run overflowed or went non-finite: {_non_finite_field(payload)}") from None


def _non_finite_field(value, path: str = "") -> Optional[str]:
    """``<path> is <value>`` for the first NaN or infinity in a JSON payload."""
    if isinstance(value, float) and not math.isfinite(value):
        return f"{path} is {value!r}"
    if isinstance(value, dict):
        items = ((f"{path}.{key}" if path else key, item) for key, item in value.items())
    elif isinstance(value, list):
        items = ((f"{path}[{i}]", item) for i, item in enumerate(value))
    else:
        return None
    return next(filter(None, (_non_finite_field(item, where) for where, item in items)), None)


def write_json(path, payload) -> Path:
    """Write ``payload`` as ``strict_json``, atomically."""
    path = Path(path)
    with atomic_writer(path) as fh:
        fh.write(strict_json(payload))
    return path


def save_config_file(path, config: MarketConfig, scenario: ScenarioSpec) -> Path:
    """Write config + scenario as one JSON document; round-trips losslessly."""
    return write_json(path, {"config": config.to_dict(), "scenario": scenario.to_dict()})


def load_config_file(path) -> tuple[MarketConfig, ScenarioSpec]:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    try:
        config = MarketConfig.from_dict(payload["config"])
        scenario = ScenarioSpec.from_dict(payload["scenario"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed config file: {exc}") from exc
    return config, scenario
