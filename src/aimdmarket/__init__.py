"""Discrete-time simulator of a market where supplier and consumer agents
balance total supply and demand from one-bit capacity signals alone, each
agent following an additive-increase/multiplicative-decrease rule with a
probabilistic back-off tied to its private marginal utility."""

from .agent import Branch, Role
from .market import RunResult, replicate_series, run
from .metrics import BandSeries, RunSummary, confidence_band, detect_convergence, export_band_series, export_run
from .scenario import (
    MarketConfig,
    ScenarioMode,
    ScenarioSpec,
    generate_scenario,
    load_config_file,
    reference_configs,
    save_config_file,
    validate_config,
    validate_scenario,
)
from .utility import UnboundedDerivativeError, UtilityKind, UtilitySpec

__version__ = "0.1.0"

__all__ = [
    "BandSeries",
    "Branch",
    "MarketConfig",
    "Role",
    "RunResult",
    "RunSummary",
    "ScenarioMode",
    "ScenarioSpec",
    "UnboundedDerivativeError",
    "UtilityKind",
    "UtilitySpec",
    "confidence_band",
    "detect_convergence",
    "export_band_series",
    "export_run",
    "generate_scenario",
    "load_config_file",
    "reference_configs",
    "replicate_series",
    "run",
    "save_config_file",
    "validate_config",
    "validate_scenario",
]
