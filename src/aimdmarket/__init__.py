"""Discrete-time simulator of a market where supplier and consumer agents
balance total supply and demand from one-bit capacity signals alone, each
agent following an additive-increase/multiplicative-decrease rule with a
probabilistic back-off tied to its private marginal utility."""

from .agent import AgentStepTrace, Branch, Role, RoleParams, update_running_average
from .market import CapacitySignals, RunResult, compute_signals, replicate_series, run
from .metrics import (
    AgentRoundEntry,
    BandSeries,
    RoundRecord,
    RunSummary,
    confidence_band,
    detect_convergence,
    export_band_series,
    export_run,
    load_records,
    mean_abs_derivative,
    mean_derivative_series,
    summarize,
)
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
from .utility import UnboundedDerivativeError, UtilityKind, UtilitySpec, check_derivative

__version__ = "0.1.0"

__all__ = [
    "AgentRoundEntry",
    "AgentStepTrace",
    "BandSeries",
    "Branch",
    "CapacitySignals",
    "MarketConfig",
    "Role",
    "RoleParams",
    "RoundRecord",
    "RunResult",
    "RunSummary",
    "ScenarioMode",
    "ScenarioSpec",
    "UnboundedDerivativeError",
    "UtilityKind",
    "UtilitySpec",
    "check_derivative",
    "compute_signals",
    "confidence_band",
    "detect_convergence",
    "export_band_series",
    "export_run",
    "generate_scenario",
    "load_config_file",
    "load_records",
    "mean_abs_derivative",
    "mean_derivative_series",
    "reference_configs",
    "replicate_series",
    "run",
    "save_config_file",
    "summarize",
    "update_running_average",
    "validate_config",
    "validate_scenario",
]
