"""Scalar reference implementation of the market, one agent object at a time.

This is the per-agent object path the package ran before its array
kernel: frozen ``AgentState`` snapshots advanced by ``step``, and a
``MarketState`` advanced by ``advance_round`` with scalar signals.  The
tests keep it as the oracle that ``aimdmarket.market.simulate`` must
reproduce exactly, record for record, and ``export_records``, the
record-by-record writer the package used before it wrote exports from
columns, as the oracle whose bytes ``metrics.RecordsExport`` must match,
whether it formats a run's chunks while the run is simulated or after.

The per-round record objects (``RoundRecord`` and its parts) live only
here.  ``run_columns`` gives every recorded column of a package
``metrics.Trajectory``, the derived ones by ``metrics.derived_columns``
over the whole run, and ``records_from`` views them as the same records,
so a mismatch can be named by its round; ``summarize`` and
``mean_derivative_series`` are the record-by-record reductions that
``market.run`` and ``market.replicate_series`` must reproduce, and
``detect_convergence`` is the scalar form of the "stays within a band"
rule over such a series.  The oracle's signal rule is its own, written out
apart from the kernel's, and so are its utility forms: ``evaluate`` and
``derivative`` are the scalar formulas that ``utility.UtilityColumns``
evaluates on arrays, and ``check_derivative`` checks the one against a
central difference of the other.
Its float totals use its own ``ordered_sum``, a scalar left-to-right
reduction, the reference for ``utility.ordered_sum``'s array form, so the
oracle adds in the package's order on every Python version.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import operator
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from aimdmarket.agent import BRANCHES, EPS_AVG, Branch, Role
from aimdmarket.metrics import CSV_HEADER, FLOAT_COLUMNS, Trajectory, derived_columns, trailing_window
from aimdmarket.scenario import MarketConfig, ScenarioSpec
from aimdmarket.utility import UtilityKind, UtilitySpec


def ordered_sum(values) -> float:
    """Add floats (or ints) left to right from 0.0.  ``sum`` would not do: from Python 3.12 it
    compensates float sums."""
    return functools.reduce(operator.add, values, 0.0)


class UnboundedDerivativeError(ArithmeticError):
    """The derivative diverges at the requested point (sqrt family at z=0).

    Raised instead of returning a sentinel so that callers decide how to
    clamp.  The array kernel never meets it: a sqrt agent's running
    average stays positive.
    """


def evaluate(u: UtilitySpec, z: float) -> float:
    """Utility value at quantity ``z >= 0``."""
    if z < 0:
        raise ValueError(f"quantity must be nonnegative, got {z}")
    if u.kind is UtilityKind.QUADRATIC:
        return -((z - u.optimum) ** 2) / u.curvature + 1.5 * u.curvature
    return u.scale * math.sqrt(z)


def derivative(u: UtilitySpec, z: float) -> float:
    """Marginal utility at ``z``.

    The sqrt family has an unbounded derivative at z=0; that point
    raises :class:`UnboundedDerivativeError`.
    """
    if z < 0:
        raise ValueError(f"quantity must be nonnegative, got {z}")
    if u.kind is UtilityKind.QUADRATIC:
        return -2.0 * (z - u.optimum) / u.curvature
    if z == 0:
        raise UnboundedDerivativeError("sqrt utility has infinite slope at 0")
    return u.scale / (2.0 * math.sqrt(z))


@dataclass(frozen=True)
class AgentStepTrace:
    """What one step did: the back-off probability used (0 when the agent
    received no signal), the realized Bernoulli bit, and the branch taken."""

    backoff_probability: float
    bernoulli: int
    branch: Branch


@dataclass(frozen=True)
class AgentRoundEntry:
    agent_id: str
    role: Role
    quantity: float
    running_average: float
    utility_value: float
    utility_derivative: float
    trace: AgentStepTrace


@dataclass(frozen=True)
class CapacitySignals:
    """The two one-bit broadcasts; never both set in the same round."""

    supplier_signal: int
    consumer_signal: int


@dataclass(frozen=True)
class RoundRecord:
    round: int
    per_agent: tuple[AgentRoundEntry, ...]
    total_supply: float
    total_consumption: float
    signals: CapacitySignals
    sum_of_utilities: float


def run_columns(trajectory: Trajectory) -> dict[str, np.ndarray]:
    """Every recorded column of a package run by name, row t holding round t: the trajectory's
    per-round fields and ``metrics.derived_columns`` of rounds 0..horizon."""
    stored = {field.name: getattr(trajectory, field.name) for field in fields(trajectory)
              if field.name not in ("population", "initial_quantity")}
    return {**stored, **derived_columns(trajectory, slice(0, len(trajectory.total_supply)))}


def records_from(trajectory: Trajectory) -> list[RoundRecord]:
    """Rounds 0..horizon of a package run as records: row t is round t."""
    p, columns = trajectory.population, run_columns(trajectory)
    records = []
    for t in range(len(trajectory.total_supply)):
        entries = tuple(
            AgentRoundEntry(agent_id, role, q, avg, value, derivative, AgentStepTrace(lam, bit, BRANCHES[code]))
            for agent_id, role, q, avg, value, derivative, lam, bit, code in zip(
                p.agent_ids,
                p.roles,
                *(columns[name][t].tolist() for name in FLOAT_COLUMNS),
                trajectory.bernoulli[t].astype(int).tolist(),
                columns["branch"][t].tolist(),
            )
        )
        signals = CapacitySignals(int(trajectory.supplier_signal[t]), int(trajectory.consumer_signal[t]))
        records.append(RoundRecord(t, entries, float(trajectory.total_supply[t]),
                                   float(trajectory.total_consumption[t]), signals,
                                   float(columns["sum_of_utilities"][t])))
    return records


def compute_signals(total_supply: float, total_consumption: float, flip_semantics: bool = False) -> CapacitySignals:
    """Signal the side that was in excess last round; neither on a tie.

    ``flip_semantics`` selects the inverted variant (supplier signal on
    excess consumption and vice versa) for comparison studies.
    """
    if total_supply < 0 or total_consumption < 0:
        raise ValueError("totals must be nonnegative")
    excess_supply = 1 if total_supply > total_consumption else 0
    excess_consumption = 1 if total_consumption > total_supply else 0
    if flip_semantics:
        return CapacitySignals(excess_consumption, excess_supply)
    return CapacitySignals(excess_supply, excess_consumption)


def summarize(records: Sequence[RoundRecord], scenario: ScenarioSpec) -> dict:
    """Trailing-window totals plus per-agent closing state, from the records alone, as the JSON object
    that ``summary.json`` holds.  The utility sums add the final record's values, which ``evaluate``
    computed."""
    if not records:
        raise ValueError("summarize needs at least one round")
    window = trailing_window(len(records))
    tail = records[-window:]
    final = records[-1]
    optima = [u.optimum for u in scenario.supplier_utilities + scenario.consumer_utilities]
    agents = [
        {"agent_id": e.agent_id, "role": e.role.value, "final_running_average": e.running_average,
         "optimum": optimum, "distance_to_optimum": None if optimum is None else abs(e.running_average - optimum),
         "final_derivative": e.utility_derivative}
        for e, optimum in zip(final.per_agent, optima)
    ]
    values = [e.utility_value for e in final.per_agent]
    s = len(scenario.supplier_utilities)
    return dict(
        final_round=final.round,
        window=window,
        trailing_mean_supply=ordered_sum(r.total_supply for r in tail) / window,
        trailing_mean_consumption=ordered_sum(r.total_consumption for r in tail) / window,
        final_sum_of_utilities=ordered_sum(values),
        final_supplier_utility_sum=ordered_sum(values[:s]),
        final_consumer_utility_sum=ordered_sum(values[s:]),
        final_mean_abs_derivative=ordered_sum(abs(e.utility_derivative) for e in final.per_agent) / len(values),
        agents=agents,
    )


def mean_derivative_series(records: Sequence[RoundRecord], role: Role) -> list[float]:
    """Per-round mean utility derivative (at the running average) over one role."""
    out = []
    for record in records:
        values = [e.utility_derivative for e in record.per_agent if e.role is role]
        out.append(ordered_sum(values) / len(values))
    return out


def detect_convergence(series: Sequence[float], target: float, rel_tol: float, window: int) -> Optional[int]:
    """Earliest index from which the series stays within rel_tol of target
    for a full window, or None if it never does.  The index is positional:
    callers map it back to round numbers."""
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    if window < 1:
        raise ValueError("window must be >= 1")
    band = rel_tol * max(target, 1e-9)
    consecutive = 0
    for i, value in enumerate(series):
        consecutive = consecutive + 1 if abs(value - target) <= band else 0
        if consecutive >= window:
            return i - window + 1
    return None


def check_derivative(u: UtilitySpec, z: float, h: float) -> float:
    """Absolute gap between the analytic derivative and a central difference:
    |u'(z) - (u(z+h) - u(z-h)) / (2h)|.  Requires z - h >= 0 and h > 0."""
    if h <= 0:
        raise ValueError("step h must be positive")
    if z - h < 0:
        raise ValueError("z - h must stay in the domain")
    finite_diff = (evaluate(u, z + h) - evaluate(u, z - h)) / (2.0 * h)
    return abs(derivative(u, z) - finite_diff)


@dataclass(frozen=True)
class RoleParams:
    """One side's constants as the one-agent formula reads them: the
    additive step, the back-off factor and the network constant."""

    alpha: float
    beta: float
    gamma: float


def role_params(config: MarketConfig) -> tuple[RoleParams, RoleParams]:
    """The (supplier, consumer) constants of ``config``, each with its Gamma."""
    return (
        RoleParams(config.alpha_s, config.beta_s, config.gamma),
        RoleParams(config.alpha_c, config.beta_c, config.gamma),
    )


@dataclass(frozen=True)
class AgentState:
    """Snapshot of one agent after round ``rounds_elapsed``.

    ``running_average`` is the arithmetic mean of the agent's quantities
    over rounds 0..rounds_elapsed (rounds_elapsed + 1 samples).
    """

    agent_id: str
    role: Role
    quantity: float
    running_average: float
    rounds_elapsed: int
    utility: UtilitySpec


def update_running_average(prev_average, prev_rounds: int, new_quantity):
    """Extend a running mean of ``prev_rounds`` samples by one sample (floats or arrays)."""
    return (prev_average * prev_rounds + new_quantity) / (prev_rounds + 1)


def compute_backoff_probability(state: AgentState, params: RoleParams) -> float:
    """Back-off probability lambda = Gamma * u'(avg) / avg, clamped to [0, 1].

    Negative raw values (past the optimum) map to 0; an unbounded
    derivative maps to 1; a near-zero average maps to 0.
    """
    avg = state.running_average
    if avg < EPS_AVG:
        return 0.0
    try:
        marginal = derivative(state.utility, avg)
    except UnboundedDerivativeError:
        return 1.0
    raw = params.gamma * marginal / avg
    return min(max(raw, 0.0), 1.0)


def _move(quantity: float, utility: UtilitySpec, params: RoleParams) -> tuple[float, Branch]:
    # Additive branch of the update: the optimum comparison uses the
    # current quantity, not the running average.
    optimum = utility.optimum
    if optimum is None or quantity <= optimum:
        return quantity + params.alpha, Branch.ADDITIVE_INCREASE
    return max(0.0, quantity - params.alpha), Branch.ADDITIVE_DECREASE


def initial_state(
    agent_id: str,
    role: Role,
    utility: UtilitySpec,
    initial_quantity: float,
    params: RoleParams,
) -> tuple[AgentState, AgentStepTrace]:
    """Round-0 state: the update body runs once with no signal (b = 0).

    With the default initial quantity of 0 this is a single forced
    additive increase, so every agent starts round 1 with a positive
    quantity and running average.
    """
    if initial_quantity < 0:
        raise ValueError("initial quantity must be nonnegative")
    quantity, branch = _move(initial_quantity, utility, params)
    state = AgentState(
        agent_id=agent_id,
        role=role,
        quantity=quantity,
        running_average=quantity,
        rounds_elapsed=0,
        utility=utility,
    )
    return state, AgentStepTrace(0.0, 0, branch)


def step(
    state: AgentState,
    signal: int,
    params: RoleParams,
    draw: float,
) -> tuple[AgentState, AgentStepTrace]:
    """Advance one agent by one round.

    ``draw`` is a uniform variate in [0, 1) deciding the Bernoulli trial;
    the step is a pure function of its inputs, so identical inputs give
    identical outputs regardless of scheduling.
    """
    lam = 0.0
    bernoulli = 0
    if signal:
        lam = compute_backoff_probability(state, params)
        if draw < lam:
            bernoulli = 1

    if bernoulli:
        quantity = state.quantity * params.beta
        branch = Branch.MULTIPLICATIVE_DECREASE
    else:
        quantity, branch = _move(state.quantity, state.utility, params)

    samples = state.rounds_elapsed + 1
    new_state = AgentState(
        agent_id=state.agent_id,
        role=state.role,
        quantity=quantity,
        running_average=update_running_average(state.running_average, samples, quantity),
        rounds_elapsed=state.rounds_elapsed + 1,
        utility=state.utility,
    )
    return new_state, AgentStepTrace(lam, bernoulli, branch)


@dataclass(frozen=True)
class MarketState:
    suppliers: tuple[AgentState, ...]
    consumers: tuple[AgentState, ...]
    round: int
    last_total_supply: float
    last_total_consumption: float


def _round_record(
    round_index: int,
    suppliers: tuple[AgentState, ...],
    consumers: tuple[AgentState, ...],
    traces: list,
    signals: CapacitySignals,
    total_supply: float,
    total_consumption: float,
) -> RoundRecord:
    entries = []
    sum_of_utilities = 0.0
    for state, trace in zip(list(suppliers) + list(consumers), traces):
        value = evaluate(state.utility, state.running_average)
        marginal = derivative(state.utility, state.running_average)
        sum_of_utilities += value
        entries.append(
            AgentRoundEntry(
                agent_id=state.agent_id,
                role=state.role,
                quantity=state.quantity,
                running_average=state.running_average,
                utility_value=value,
                utility_derivative=marginal,
                trace=trace,
            )
        )
    return RoundRecord(
        round=round_index,
        per_agent=tuple(entries),
        total_supply=total_supply,
        total_consumption=total_consumption,
        signals=signals,
        sum_of_utilities=sum_of_utilities,
    )


def initialize_market(config: MarketConfig, scenario: ScenarioSpec) -> tuple[MarketState, RoundRecord]:
    """Round 0: agents take one signal-free step from the configured
    initial quantity; no signals exist yet."""
    supplier_params, consumer_params = role_params(config)
    suppliers, supplier_traces = [], []
    for i, utility in enumerate(scenario.supplier_utilities):
        state, trace = initial_state(
            f"s{i}", Role.SUPPLIER, utility, config.initial_quantity, supplier_params
        )
        suppliers.append(state)
        supplier_traces.append(trace)
    consumers, consumer_traces = [], []
    for j, utility in enumerate(scenario.consumer_utilities):
        state, trace = initial_state(
            f"c{j}", Role.CONSUMER, utility, config.initial_quantity, consumer_params
        )
        consumers.append(state)
        consumer_traces.append(trace)

    total_supply = ordered_sum(a.quantity for a in suppliers)
    total_consumption = ordered_sum(a.quantity for a in consumers)
    state = MarketState(
        suppliers=tuple(suppliers),
        consumers=tuple(consumers),
        round=0,
        last_total_supply=total_supply,
        last_total_consumption=total_consumption,
    )
    record = _round_record(
        0,
        state.suppliers,
        state.consumers,
        supplier_traces + consumer_traces,
        CapacitySignals(0, 0),
        total_supply,
        total_consumption,
    )
    return state, record


def advance_round(
    state: MarketState,
    supplier_params: RoleParams,
    consumer_params: RoleParams,
    supplier_draws,
    consumer_draws,
    flip_semantics: bool = False,
) -> tuple[MarketState, RoundRecord]:
    """One transition of the market chain.

    Signals are computed from last round's totals, every agent steps with
    its side's signal and its own uniform draw, and the new totals are
    recorded.  Deterministic given (state, params, draws).
    """
    signals = compute_signals(state.last_total_supply, state.last_total_consumption, flip_semantics)

    suppliers, traces = [], []
    for agent, draw in zip(state.suppliers, supplier_draws):
        new_agent, trace = step(agent, signals.supplier_signal, supplier_params, draw)
        suppliers.append(new_agent)
        traces.append(trace)
    consumers = []
    for agent, draw in zip(state.consumers, consumer_draws):
        new_agent, trace = step(agent, signals.consumer_signal, consumer_params, draw)
        consumers.append(new_agent)
        traces.append(trace)

    total_supply = ordered_sum(a.quantity for a in suppliers)
    total_consumption = ordered_sum(a.quantity for a in consumers)
    new_state = MarketState(
        suppliers=tuple(suppliers),
        consumers=tuple(consumers),
        round=state.round + 1,
        last_total_supply=total_supply,
        last_total_consumption=total_consumption,
    )
    record = _round_record(
        new_state.round, new_state.suppliers, new_state.consumers, traces, signals, total_supply, total_consumption
    )
    return new_state, record


def run_records(config: MarketConfig, scenario: ScenarioSpec) -> tuple[RoundRecord, list[RoundRecord]]:
    """The round-0 record and the records of rounds 1..horizon, drawing
    one uniform per agent per round from numpy's stream keyed on (seed,
    role, index), built here from numpy's own ``SeedSequence``, so that every
    comparison with the package also checks how the package seeds its streams."""
    state, initial_record = initialize_market(config, scenario)
    supplier_rngs, consumer_rngs = (
        [np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(role, i))) for i in range(count)]
        for role, count in enumerate((config.num_suppliers, config.num_consumers))
    )
    supplier_params, consumer_params = role_params(config)
    records = []
    for _ in range(config.horizon):
        supplier_draws = [rng.random() for rng in supplier_rngs]
        consumer_draws = [rng.random() for rng in consumer_rngs]
        state, record = advance_round(
            state,
            supplier_params,
            consumer_params,
            supplier_draws,
            consumer_draws,
            config.flip_signal_semantics,
        )
        records.append(record)
    return initial_record, records


# A value in every layout that repr uses: both sides of the fixed-notation bounds (1e-05 and
# 0.0001, 1e+16 and 9999999999999998.0), exponents of two and three digits, one-digit
# mantissas, subnormals, the smallest normal, signed zeros and 17 significant digits.
REPR_LAYOUTS = (1e-05, 0.0001, 1e+16, 9999999999999998.0, 1e+22, 1.5e+300, 1e-300, 5e-324, 2.2250738585072014e-308,
                -0.0, 0.0, -1.2345678901234567, -1234567890123456.8, -0.00012345678901234567, 0.1 + 0.2, 1.5)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _record_to_dict(record: RoundRecord) -> dict:
    return {
        "round": record.round,
        "per_agent": [
            {
                "agent_id": e.agent_id,
                "role": e.role.value,
                "quantity": e.quantity,
                "running_average": e.running_average,
                "utility_value": e.utility_value,
                "utility_derivative": e.utility_derivative,
                "trace": {
                    "backoff_probability": e.trace.backoff_probability,
                    "bernoulli": e.trace.bernoulli,
                    "branch": e.trace.branch.value,
                },
            }
            for e in record.per_agent
        ],
        "total_supply": record.total_supply,
        "total_consumption": record.total_consumption,
        "signals": {
            "supplier_signal": record.signals.supplier_signal,
            "consumer_signal": record.signals.consumer_signal,
        },
        "sum_of_utilities": record.sum_of_utilities,
    }


def export_records(records: Sequence[RoundRecord], fmt: str, destination) -> Path:
    """Write records as CSV (one row per agent per round, through
    ``csv.writer``) or JSON (``json.dump`` of each record's fields)."""
    destination = Path(destination)
    if fmt == "csv":
        with destination.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_HEADER.split(","))
            for record in records:
                for e in record.per_agent:
                    writer.writerow(
                        [
                            record.round,
                            e.agent_id,
                            e.role.value,
                            _fmt(e.quantity),
                            _fmt(e.running_average),
                            _fmt(e.utility_value),
                            _fmt(e.utility_derivative),
                            _fmt(e.trace.backoff_probability),
                            e.trace.bernoulli,
                            e.trace.branch.value,
                            _fmt(record.total_supply),
                            _fmt(record.total_consumption),
                            record.signals.supplier_signal,
                            record.signals.consumer_signal,
                            _fmt(record.sum_of_utilities),
                        ]
                    )
    elif fmt == "json":
        with destination.open("w", newline="\n") as fh:
            json.dump([_record_to_dict(r) for r in records], fh, separators=(",", ":"))
            fh.write("\n")
    else:
        raise ValueError(f"unknown export format: {fmt}")
    return destination
