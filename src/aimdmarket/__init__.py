"""Discrete-time simulator of a market where supplier and consumer agents
balance total supply and demand from one-bit capacity signals alone, each
agent following an additive-increase/multiplicative-decrease rule with a
probabilistic back-off tied to its private marginal utility."""

from .market import RunResult, run
from .scenario import MarketConfig

__version__ = "0.1.0"

__all__ = ["MarketConfig", "RunResult", "run"]
