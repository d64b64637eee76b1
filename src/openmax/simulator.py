"""Declarative scenario runs over open networks.

A scenario bundles a topology, an optional membership-churn schedule, the
protocol selection, and either a table of reference inputs (consensus runs)
or a size-estimation setup.  Loading resolves every random choice up front,
so a (config, seed) pair fully determines each trace byte.  A config whose
per-tick, per-agent tables would pass ``MAX_CELLS`` cells is rejected before
its topology is grown.

Randomness is split into named streams derived from the root seed, so that
changing one randomized aspect leaves the others untouched:

====================  =========================================
stream                derivation
====================  =========================================
topology growth       ``SeedSequence((seed, 0))``
churn subsets         ``SeedSequence((seed, 1))``
size-estimation draws ``SeedSequence((seed, 2))``, one block a window's arrivals, in window order
random-walk signals   ``SeedSequence((seed, 3))``
worst-case trials     integer derived from ``SeedSequence((seed, 4))``
====================  =========================================

Tick convention: inputs are sampled at tick ``k``, the step produces the
states for ``k + 1``, and the error at ``k`` is measured against the input
extremum at ``k``.  A membership change scheduled at tick ``c`` means the new
active set is in effect from tick ``c`` on, so windows are the half-open spans
between change ticks.  Within one batch of churn events the change counts as
a single network change for dwell-time accounting.
"""

from __future__ import annotations

import json
import math
import re
from contextlib import ExitStack, suppress
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from importlib import resources
from numbers import Real
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
import yaml

from .bounds import AssumptionViolation, audit_window, window_bounds
from .graph import (
    Layout,
    NetworkSnapshot,
    barabasi_albert,
    diameter,
    is_connected,
    line_graph,
    snapshot_from_text,
    snapshot_to_text,
)
from .protocols import ProtocolParams, admc_kernel, edmc_kernel, edmc_window
from .signals import (
    ClampedRandomWalk,
    Constant,
    PiecewiseLinear,
    SignalSpec,
    Sinusoid,
    certify_slope,
    signal_table,
)
from .size_estimation import (
    _open_uniform,
    dse_worst_case_monte_carlo,
    expected_estimate_admc,
    mle_estimate,
)

__all__ = [
    "ScenarioError",
    "RunExecutionError",
    "ConnectivityLost",
    "DseConfig",
    "TraceOptions",
    "Window",
    "Scenario",
    "Trace",
    "RunResult",
    "make_scenario",
    "scenario_from_mapping",
    "parse_config",
    "load_scenario",
    "load_scenario_file",
    "list_presets",
    "preset_text",
    "load_preset",
    "run",
    "run_size_estimation",
    "write_outputs",
]


# The most cells a run's per-tick, per-agent tables may hold: (horizon + 1) x
# nodes x p, with p = 1 for consensus.  A float64 table this size is 1 GiB.
MAX_CELLS = 2**27

# The most cells of one cascade level's series that a moving exact window
# folds at once, as rows x steps: a block of 2**17 // rows steps, whose
# inputs and series arrays span every slot.
BLOCK_CELLS = 2**17


class ScenarioError(ValueError):
    """The scenario description is malformed or internally inconsistent."""


class RunExecutionError(RuntimeError):
    """A run had to abort; the message carries the tick context."""


class ConnectivityLost(RunExecutionError):
    """A window's graph is disconnected, so extrema cannot propagate."""


@dataclass(frozen=True)
class DseConfig:
    """Size-estimation setup: coordinates per agent and worst-case trial count."""

    p: int
    mc_trials: int = 2000

    def __post_init__(self) -> None:
        if int(self.p) != self.p or self.p < 2:
            raise ScenarioError(f"the coordinate count p must be an integer >= 2, got {self.p}")
        if int(self.mc_trials) != self.mc_trials or self.mc_trials < 2:
            raise ScenarioError(
                f"mc_trials must be an integer >= 2 (a confidence interval needs two "
                f"trials), got {self.mc_trials}"
            )
        object.__setattr__(self, "p", int(self.p))
        object.__setattr__(self, "mc_trials", int(self.mc_trials))
        if self.mc_trials * self.p > MAX_CELLS:  # the Monte Carlo draws a (trials, p) block
            raise ScenarioError(
                f"mc_trials x p = {self.mc_trials} x {self.p} cells exceed the limit of "
                f"{MAX_CELLS}; lower dse.mc_trials or dse.p"
            )


@dataclass(frozen=True)
class TraceOptions:
    """Which artifacts a run writes: the per-agent trace CSV and the plot data."""

    csv: bool = True
    plotdata: bool = True


@dataclass(frozen=True, eq=False)
class Window:
    """Span of ticks with a fixed active set; ``end`` is inclusive.

    ``keep`` masks the active slots, the agents' positions in the
    reference's ``ids``, and ``slots`` lists them in ascending order;
    ``arrivals`` lists, in ascending order, the slots active here but not in
    the window before (every slot of the first window), which the run loads
    afresh at ``start``.  All three are read-only.  ``layout`` is the
    reference's degree layout under ``keep``, and ``diameter`` its diameter,
    from load's one search of it; the window's bounds read it.
    :attr:`graph` builds the window's snapshot, ``reference.subgraph(keep)``,
    only on request.
    """

    start: int
    end: int
    diameter: int
    keep: np.ndarray = field(repr=False)
    slots: np.ndarray = field(repr=False)
    arrivals: np.ndarray = field(repr=False)
    layout: Layout = field(repr=False)
    reference: NetworkSnapshot = field(repr=False)

    @cached_property
    def graph(self) -> NetworkSnapshot:
        return self.reference.subgraph(self.keep)


@dataclass(frozen=True, eq=False)
class Scenario:
    """Fully resolved run description; every random choice is already made.

    A consensus run's ``inputs`` is its ``(horizon + 1, slots)`` float64 signal
    table: cell ``[k, s]`` is the reference value at tick ``k`` of agent
    ``reference.ids[s]``, active or not; it is the run's only copy of them.
    ``initial_states``, when given, is the read-only ``(slots,)`` float64
    array of the agents' states at tick 0.
    """

    name: str
    kind: str
    params: ProtocolParams
    reference: NetworkSnapshot
    horizon: int
    dwell: int
    seed: int
    slope_bound: float
    windows: tuple[Window, ...]
    inputs: np.ndarray | None = None
    dse: DseConfig | None = None
    initial_states: np.ndarray | None = None
    trace: TraceOptions = field(default=TraceOptions())


@dataclass(frozen=True, eq=False)
class Trace:
    """Tick-indexed record of a run of either kind.

    ``outputs`` is a float64 array of shape ``(horizon + 1, slots)``: cell
    ``[k, s]`` holds what agent ``scenario.reference.ids[s]`` exposes at tick
    ``k``, NaN while it is inactive: its state for consensus, its size
    estimate for size estimation.  ``targets[k]`` is the input extremum over
    the active set, or the estimate an agent holding the exact per-coordinate
    maxima would produce.  ``errors[k]`` is the worst max-side deviation of a
    state from the input extremum, over agents and, for size estimation,
    coordinates; ``n_active[k]`` is the active count.
    """

    errors: np.ndarray
    targets: np.ndarray
    n_active: np.ndarray
    outputs: np.ndarray


@dataclass(frozen=True, eq=False)
class RunResult:
    scenario: Scenario
    trace: Trace
    summary: dict


# ---------------------------------------------------------------------------
# scenario assembly


def _as_int(value: object, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _agent_id(key: object, what: str) -> int:
    """An agent id given as a mapping key: an integer, or its decimal string."""
    if isinstance(key, str) and re.fullmatch(r"0|-?[1-9][0-9]*", key):
        return int(key)
    if isinstance(key, bool) or not isinstance(key, int):
        raise ScenarioError(f"{what} keys must be agent ids, got {key!r}")
    return key


def _as_float(value: object, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
        raise ScenarioError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def make_scenario(
    *,
    name: str,
    kind: str,
    params: ProtocolParams,
    reference: NetworkSnapshot,
    horizon: int,
    seed: int,
    changes: Sequence[tuple[int, np.ndarray]] = (),
    dwell: int | None = None,
    signals: Sequence[SignalSpec] | None = None,
    dse: DseConfig | None = None,
    initial_states: Sequence[float] | None = None,
    trace: TraceOptions = TraceOptions(),
    declared_slope: float | None = None,
) -> Scenario:
    """Validate and assemble a scenario from already-built parts.

    ``changes`` lists ``(tick, keep)`` pairs, ``keep`` a boolean mask over
    ``reference.ids`` of the agents active from ``tick`` on; each window's
    graph is the reference topology induced on its mask, so reactivated nodes
    get back their reference edges to active neighbors, and one search of its
    layout gives its diameter, infinite when it is disconnected.  ``signals``
    and ``initial_states`` give one entry per slot, in ``reference.ids`` order.
    All dwell-spacing, connectivity, coverage, spread and budget checks happen here,
    so config loading and programmatic construction share one gatekeeper;
    broken tuning loads, as a reason of :func:`bounds.window_bounds`.
    """
    if kind not in ("consensus", "size_estimation"):
        raise ScenarioError(f"kind must be 'consensus' or 'size_estimation', got {kind!r}")
    horizon = _as_int(horizon, "horizon")
    if horizon < 1:
        raise ScenarioError(f"horizon must be at least 1 tick, got {horizon}")
    if params.variant == "exact" and params.delta > horizon:  # bounds the cascade's cells
        raise ScenarioError(f"cascade depth {params.delta} exceeds the horizon {horizon}")
    seed = _as_int(seed, "seed")
    if seed < 0:
        raise ScenarioError("seed must be a nonnegative integer")

    nodes = reference.ids.tolist()
    ticks = [_as_int(t, "change tick") for t, _ in changes]
    if any(b <= a for a, b in zip(ticks, ticks[1:])):
        raise ScenarioError("change ticks must be strictly increasing")
    if ticks and (ticks[0] < 1 or ticks[-1] > horizon):
        raise ScenarioError("change ticks must lie in [1, horizon]")

    if dwell is None:
        spans = [b - a for a, b in zip([0] + ticks, ticks)]
        dwell = min(spans) if spans else horizon
    dwell = _as_int(dwell, "dwell")
    if not 1 <= dwell <= horizon:
        raise ScenarioError(f"dwell must lie in [1, horizon = {horizon}] ticks, got {dwell}")
    prev = 0
    for t in ticks:
        if t - prev < dwell:
            raise AssumptionViolation(
                f"changes at ticks {prev} and {t} are {t - prev} apart, closer than "
                f"the dwell time {dwell}"
            )
        prev = t

    keeps = [np.ones(reference.n, dtype=bool)]
    for tick, mask in changes:
        keep = np.array(mask)
        if keep.dtype != bool or keep.shape != (reference.n,):
            raise ScenarioError(f"change at tick {tick} is not a boolean mask over reference.ids")
        if not keep.any():
            raise ScenarioError(f"change at tick {tick} would empty the network")
        if np.array_equal(keep, keeps[-1]):
            raise ScenarioError(f"change at tick {tick} does not modify the network")
        keeps.append(keep)

    starts = [0] + ticks
    ends = [t - 1 for t in starts[1:]] + [horizon]
    windows = []
    for start, end, before, keep in zip(starts, ends, [~keeps[0]] + keeps, keeps):
        slots, arrivals = np.flatnonzero(keep), np.flatnonzero(keep & ~before)
        keep.flags.writeable = slots.flags.writeable = arrivals.flags.writeable = False
        layout = reference.layout(keep)
        d = diameter(layout)
        if d == math.inf:
            raise ConnectivityLost(
                f"the snapshot in effect from tick {start} is disconnected; "
                "extrema cannot reach every agent"
            )
        windows.append(Window(start, end, int(d), keep, slots, arrivals, layout, reference))

    if kind == "consensus":
        if signals is None:
            raise ScenarioError("a consensus scenario needs its signals")
        if dse is not None:
            raise ScenarioError("size-estimation settings do not apply to a consensus run")
        if len(signals) != reference.n:
            raise ScenarioError(f"{len(signals)} signals for {reference.n} agents; give one a slot")
        rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            inputs = signal_table(signals, horizon, rng)
        bad = ~np.isfinite(inputs)
        if bad.any():
            k, s = np.argwhere(bad)[0]
            raise ScenarioError(
                f"signals: agent {nodes[s]} has input {inputs[k, s]} at tick {k}; "
                "inputs must stay finite"
            )
        if declared_slope is None:
            declared_slope = max(spec.slope_bound for spec in signals)
        slope_bound = float(declared_slope)
        if not math.isfinite(slope_bound):
            raise ScenarioError(f"signals: the input slope bound {slope_bound} is not finite")
        certify_slope(inputs, nodes, slope_bound)
    else:
        inputs = None
        if dse is None:
            raise ScenarioError("a size-estimation scenario needs its settings (p, trials)")
        if signals is not None:
            raise ScenarioError("size estimation generates its own inputs; drop the signals")
        if initial_states is not None:
            raise ScenarioError("size estimation draws its own initial states")
        if declared_slope is not None:
            raise ScenarioError("size estimation has no input slope to declare")
        if params.mode != "max":
            raise ScenarioError("size estimation needs max consensus; use mode 'max'")
        slope_bound = 0.0  # inputs are piecewise constant between changes

    states: np.ndarray | None = None
    if initial_states is not None:
        states = np.array(initial_states, dtype=float)
        if states.shape != (reference.n,) or not np.isfinite(states).all():
            raise ScenarioError(f"initial states must be {reference.n} finite numbers, one a slot")
        states.flags.writeable = False
    if inputs is not None:  # a state never leaves [lo, hi], which bounds every error and gap
        lo, hi = float(inputs.min()), float(inputs.max())
        for key, values in (("signals", None), ("initial_states", states)):
            if values is not None:
                lo, hi = min(lo, float(values.min())), max(hi, float(values.max()))
            if not math.isfinite(hi - lo):
                raise ScenarioError(f"{key}: the values span [{lo}, {hi}], wider than a float holds")

    return Scenario(
        name=str(name),
        kind=kind,
        params=params,
        reference=reference,
        horizon=horizon,
        dwell=dwell,
        seed=seed,
        slope_bound=float(slope_bound),
        windows=tuple(windows),
        inputs=inputs,
        dse=dse,
        initial_states=states,
        trace=trace,
    )


# ---------------------------------------------------------------------------
# config loading


class _Keys:
    """One config mapping at its dotted ``path``, read key by key.

    A getter pops a key and checks its value.  A missing key is an error
    unless the getter has a default other than ``MISSING``, which comes back
    unchecked (an explicit null reads as a default of ``None``).  :meth:`done`
    rejects the keys that nothing read.  Every error names the bad key's path,
    such as ``topology.n``.
    """

    def __init__(self, raw: object, path: str) -> None:
        if not isinstance(raw, Mapping):
            raise ScenarioError(f"{path or 'the scenario config'} must be a mapping, got {raw!r}")
        self.data, self.path = dict(raw), path

    def at(self, key: object) -> str:
        return f"{self.path}.{key}" if self.path else str(key)

    def pop(self, key: object, default: object = MISSING) -> object:
        if key not in self.data and default is MISSING:
            raise ScenarioError(f"{self.at(key)} is missing")
        return self.data.pop(key, default)

    def integer(self, key: object, default: object = MISSING, least: int | None = None):
        return self._number(_as_int, key, default, least)

    def real(self, key: object, default: object = MISSING, least: float | None = None):
        return self._number(_as_float, key, default, least)

    def _number(self, check, key, default, least):
        value = self.pop(key, default)
        if value is default:
            return value
        value = check(value, self.at(key))
        if least is not None and value < least:
            raise ScenarioError(f"{self.at(key)} must be at least {least}, got {value}")
        return value

    def flag(self, key: object, default: bool) -> bool:
        value = self.pop(key, default)
        if not isinstance(value, bool):
            raise ScenarioError(f"{self.at(key)} must be true or false, got {value!r}")
        return value

    def mapping(self, key: object, default: object = MISSING) -> _Keys | None:
        value = self.pop(key, default)
        return None if value is None and default is None else _Keys(value, self.at(key))

    def items(self, key: object, default: object = MISSING) -> list[tuple[str, object]]:
        """The entries of the list at ``key``, each with its path."""
        value = self.pop(key, default)
        if not isinstance(value, (list, tuple)):
            raise ScenarioError(f"{self.at(key)} must be a list, got {value!r}")
        return [(f"{self.at(key)}.{i}", v) for i, v in enumerate(value)]

    def by_slot(self, read, nodes: Sequence[int], lack: str, default: object = None) -> list:
        """``read(key)`` for every key, in the slot order of the ``nodes`` the
        keys name, each once.  A node no key names takes ``default``; without
        one, the error says its agents ``lack``."""
        given = {}
        for key in list(self.data):
            i = _agent_id(key, self.path)
            if i in given:
                raise ScenarioError(f"{self.at(key)}: agent {i} is given twice")
            given[i] = read(key)
        unknown = sorted(given.keys() - set(nodes))
        if unknown:
            raise ScenarioError(f"{self.path} names agents {unknown} that are not in the topology")
        missing = [i for i in nodes if i not in given]
        if missing and default is None:
            raise ScenarioError(f"{self.path}: agents {missing} {lack}")
        return [given.get(i, default) for i in nodes]

    def make(self, build, *args):
        """``build(*args)``, with a ``ValueError`` it raises put at this path."""
        try:
            return build(*args)
        except ValueError as exc:
            raise ScenarioError(f"{self.path}: {exc}") from None

    def done(self) -> None:
        if self.data:
            raise ScenarioError(f"unknown keys: {', '.join(map(self.at, self.data))}")


# Draws per change tick of a pool membership that changes the network and keeps it connected.
MAX_REDRAWS = 100


def _build_topology(topo: _Keys, seed: int, horizon: int, p: int | None) -> NetworkSnapshot:
    """Grow the reference topology once its size is known to fit ``MAX_CELLS``."""

    def fits(nodes: int, keys: str) -> None:
        if (horizon + 1) * nodes * (p or 1) > MAX_CELLS:
            raise ScenarioError(
                f"(horizon + 1) x nodes x p = {horizon + 1} x {nodes} x {p or 1} cells exceed the "
                f"limit of {MAX_CELLS}; lower horizon, {keys}{'' if p is None else ' or dse.p'}"
            )

    kind = topo.pop("kind")
    if kind == "line":
        n = topo.integer("n", least=1)
        fits(n, "topology.n")
        g = line_graph(n)
    elif kind == "barabasi_albert":
        seed_line = topo.integer("seed_line", 5, least=1)
        target_n = topo.integer("target_n", least=1)
        m = topo.integer("edges_per_new_node", 2, least=1)
        fits(max(seed_line, target_n), "topology.target_n, topology.seed_line")
        if target_n < seed_line:
            raise ScenarioError(
                f"topology.target_n ({target_n}) must be at least topology.seed_line ({seed_line})"
            )
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
        g = barabasi_albert(line_graph(seed_line), target_n, m, rng)
    elif kind == "explicit":
        text = topo.pop("text")
        if not isinstance(text, str):
            raise ScenarioError(f"topology.text must be an edge-list block, got {text!r}")
        g = topo.make(snapshot_from_text, text)
        fits(g.n, "topology.text")
    else:
        raise ScenarioError(f"topology.kind: unknown topology kind {kind!r}")
    topo.done()
    return g


# The signal kinds whose fields are all reals: each is read from the key of its name.
_REAL_SIGNALS = dict(constant=Constant, sinusoid=Sinusoid, random_walk_clamped=ClampedRandomWalk)


def _read_signal(spec: _Keys) -> SignalSpec:
    """The signal one mapping describes, such as ``signals.agents.3``."""
    kind = spec.pop("kind")
    if kind == "piecewise_linear":
        points = []
        for at, pair in spec.items("points"):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ScenarioError(f"{at} must be a [tick, value] pair, got {pair!r}")
            tick = pair[0]
            if isinstance(tick, bool) or not isinstance(tick, int):
                raise ScenarioError(f"{at}.0 must be an integer, as breakpoint ticks are: {tick!r}")
            points.append((tick, _as_float(pair[1], f"{at}.1")))
        signal = spec.make(PiecewiseLinear, tuple(points))
    elif isinstance(kind, str) and kind in _REAL_SIGNALS:
        build = _REAL_SIGNALS[kind]
        signal = spec.make(build, *(spec.real(f.name, f.default) for f in fields(build)))
    else:
        raise ScenarioError(f"{spec.at('kind')}: unknown signal kind {kind!r}")
    spec.done()
    return signal


def _read_signals(sig: _Keys, nodes: Sequence[int]) -> tuple[tuple[SignalSpec, ...], float | None]:
    """The signal of every node in slot order, and the declared slope bound if there is one."""
    declared = sig.real("slope_bound", None, least=0.0)
    default = sig.mapping("default", None)
    default = None if default is None else _read_signal(default)
    agents = sig.mapping("agents", {})
    sig.done()
    lack = f"have no signal and {sig.at('default')} is missing"
    specs = agents.by_slot(lambda key: _read_signal(agents.mapping(key)), nodes, lack, default)
    return tuple(specs), declared


def _realize_pool_churn(
    churn: _Keys, reference: NetworkSnapshot, seed: int, horizon: int
) -> list[tuple[int, np.ndarray]]:
    pool_size = churn.integer("pool_size", 25)
    every = churn.integer("every", least=1)
    prob = churn.real("activation_probability", 0.5)
    churn.done()
    if not 1 <= pool_size < reference.n:
        raise ScenarioError(
            f"{churn.at('pool_size')} must lie in [1, {reference.n - 1}] so a core always "
            f"remains, got {pool_size}"
        )
    if not 0.0 < prob < 1.0:
        raise ScenarioError(
            f"{churn.at('activation_probability')} must lie strictly inside (0, 1), got {prob}"
        )

    pool = np.arange(reference.n - pool_size, reference.n)  # the highest ids: the newest grown
    core = np.ones(reference.n, dtype=bool)
    core[pool] = False
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    changes: list[tuple[int, np.ndarray]] = []
    current = np.ones(reference.n, dtype=bool)
    for tick in range(every, horizon, every):
        for attempt in range(MAX_REDRAWS):
            target = core.copy()
            target[pool[rng.random(pool_size) < prob]] = True
            if np.array_equal(target, current):
                continue
            if is_connected(reference.layout(target)):
                break
        else:
            raise ScenarioError(
                f"{churn.at('pool_size')}: no connected membership change at tick {tick} in "
                f"{MAX_REDRAWS} draws of a pool of {pool_size}, each agent active with "
                f"probability {prob}; a random membership of a pool that large is rarely "
                "connected"
            )
        changes.append((tick, target))
        current = target
    return changes


def _realize_explicit_churn(
    churn: _Keys, reference: NetworkSnapshot, horizon: int
) -> list[tuple[int, np.ndarray]]:
    events = churn.items("events")
    churn.done()
    slot = {v: s for s, v in enumerate(reference.ids.tolist())}
    changes: list[tuple[int, np.ndarray]] = []
    current = np.ones(reference.n, dtype=bool)
    for at, raw in events:
        event = _Keys(raw, at)
        tick = event.integer("tick")
        first = changes[-1][0] + 1 if changes else 1
        if not first <= tick <= horizon:
            raise ScenarioError(
                f"{event.at('tick')} must lie in [{first}, horizon = {horizon}], got {tick}; "
                "event ticks start at 1 and strictly increase"
            )
        keep = current.copy()
        # each node is checked against the network before the event, so a
        # node in both lists fails one of the two checks
        for key, active, state in (("deactivate", False, "inactive"), ("activate", True, "active")):
            for where, v in event.items(key, []):
                s = slot.get(_as_int(v, where))
                if s is None:
                    raise ScenarioError(f"{where}: node {v} is not part of the reference topology")
                if current[s] == active:
                    raise ScenarioError(f"{where} {key}s already-{state} node {v}")
                keep[s] = active
        event.done()
        if not keep.any():
            raise ScenarioError(f"{at} would empty the network")
        if np.array_equal(keep, current):
            raise ScenarioError(f"{at} does not modify the network")
        changes.append((tick, keep))
        current = keep
    return changes


def scenario_from_mapping(
    data: Mapping, *, seed: int | None = None, name: str | None = None
) -> Scenario:
    """Assemble a scenario from a parsed config mapping.

    ``seed`` overrides the config's root seed, re-realizing every random
    choice (topology growth, churn subsets, signal tables) under the new one.
    """
    keys = _Keys(data, "")
    cfg_name = keys.pop("name", None)
    scenario_name = str(cfg_name if cfg_name is not None else (name or "scenario"))
    kind = keys.pop("kind")
    if kind not in ("consensus", "size_estimation"):
        raise ScenarioError(f"kind must be 'consensus' or 'size_estimation', got {kind!r}")
    cfg_seed = keys.integer("seed", None if seed is not None else MISSING, least=0)
    root_seed = cfg_seed if seed is None else seed
    horizon = keys.integer("horizon", least=1)
    dwell = keys.integer("dwell", None)

    proto = keys.mapping("protocol")
    params = proto.make(
        ProtocolParams,
        proto.pop("mode", "max"),
        proto.pop("variant"),
        proto.real("alpha", None),
        proto.integer("delta", None),
        proto.flag("read_departing", True),
    )
    proto.done()

    dse: DseConfig | None = None
    if kind == "size_estimation":
        section = keys.mapping("dse")
        dse = section.make(DseConfig, section.integer("p"), section.integer("mc_trials", 2000))
        section.done()

    topology = keys.mapping("topology")
    reference = _build_topology(topology, root_seed, horizon, dse.p if dse else None)

    churn = keys.mapping("churn", None)
    changes: list[tuple[int, np.ndarray]] = []
    if churn is not None:
        churn_kind = churn.pop("kind")
        if churn_kind == "pool_random":
            changes = _realize_pool_churn(churn, reference, root_seed, horizon)
        elif churn_kind == "explicit":
            changes = _realize_explicit_churn(churn, reference, horizon)
        else:
            raise ScenarioError(f"churn.kind: unknown churn kind {churn_kind!r}")

    signals = declared_slope = None
    nodes = reference.ids.tolist()
    if kind == "consensus":
        signals, declared_slope = _read_signals(keys.mapping("signals"), nodes)

    initial_states: list[float] | None = None
    if isinstance(keys.data.get("initial_states"), (list, tuple)):
        values = keys.items("initial_states")
        if len(values) != len(nodes):
            raise ScenarioError(
                f"initial_states lists {len(values)} values for {len(nodes)} starting agents"
            )
        initial_states = [_as_float(v, at) for at, v in values]
    elif (states := keys.mapping("initial_states", None)) is not None:
        initial_states = states.by_slot(states.real, nodes, "have no initial state")

    shown = keys.mapping("trace", {})
    trace = TraceOptions(csv=shown.flag("csv", True), plotdata=shown.flag("plotdata", True))
    shown.done()
    keys.done()

    return make_scenario(
        name=scenario_name,
        kind=kind,
        params=params,
        reference=reference,
        horizon=horizon,
        seed=root_seed,
        changes=changes,
        dwell=dwell,
        signals=signals,
        dse=dse,
        initial_states=initial_states,
        trace=trace,
        declared_slope=declared_slope,
    )


def parse_config(text: str) -> dict:
    """The top-level mapping of a scenario config's text form."""
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"could not parse the scenario config: {exc}") from exc
    return _Keys(data, "").data


def load_scenario(text: str, *, seed: int | None = None, name: str | None = None) -> Scenario:
    """Parse and validate a scenario config from its text form."""
    return scenario_from_mapping(parse_config(text), seed=seed, name=name)


def load_scenario_file(path: str | Path, *, seed: int | None = None) -> Scenario:
    path = Path(path)
    return load_scenario(path.read_text(), seed=seed, name=path.stem)


def list_presets() -> tuple[str, ...]:
    """Names of the scenario configs shipped with the package."""
    root = resources.files("openmax") / "presets"
    return tuple(sorted(p.name[: -len(".yaml")] for p in root.iterdir() if p.name.endswith(".yaml")))


def preset_text(name: str) -> str:
    """The config text of the shipped preset ``name``."""
    ref = resources.files("openmax") / "presets" / f"{name}.yaml"
    if not ref.is_file():
        raise ScenarioError(
            f"scenario {name!r} is neither a config file nor a preset "
            f"(presets: {', '.join(list_presets())})"
        )
    return ref.read_text()


def load_preset(name: str, *, seed: int | None = None) -> Scenario:
    return load_scenario(preset_text(name), seed=seed, name=name)


# ---------------------------------------------------------------------------
# execution


class _ConsensusObserver:
    """Inputs and read-out of a consensus run.

    In min mode the kernel sees negated inputs; :meth:`read` negates
    outputs and targets back.
    """

    def __init__(self, scenario: Scenario) -> None:
        self.table = scenario.inputs
        self.sign = 1.0 if scenario.params.mode == "max" else -1.0
        self.U = np.zeros(scenario.reference.n)

    def inputs(self, k: int, w: Window) -> tuple[np.ndarray, float]:
        self.U[w.slots] = u = self.sign * self.table[k, w.slots]
        return self.U, float(u[np.argmax(u)])  # the first maximum, as max() picks it

    def held(self, w: Window) -> bool:
        """Whether ``w``'s inputs keep the same bits at every tick of it."""
        block = self.table[w.start : w.end + 1, w.slots].view(np.int64)
        return bool((block == block[0]).all())

    def block(self, first: int, stop: int) -> np.ndarray:
        """The inputs of ticks ``first..stop - 1``, one slot array a tick."""
        return self.sign * self.table[first:stop]

    def read(self, values: np.ndarray | float) -> np.ndarray | float:
        return self.sign * values


class _SizeObserver:
    """Inputs and read-out of a size-estimation run.

    An agent's inputs are its ``p`` uniform draws, held while it stays and
    drawn afresh on every (re)arrival; the target is their coordinatewise max.
    :meth:`read` turns a vector, or a stack of them, into size estimates.
    Every window's draws come from one schedule, :func:`_draw_arrivals`,
    made up front; a window's block is loaded into its ``arrivals`` at its
    first tick and then let go.
    """

    def __init__(self, scenario: Scenario) -> None:
        p = scenario.dse.p
        rng = np.random.default_rng(np.random.SeedSequence((scenario.seed, 2)))
        self.blocks = _draw_arrivals(scenario.windows, p, rng)
        self.U = np.zeros((scenario.reference.n, p))

    def inputs(self, k: int, w: Window) -> tuple[np.ndarray, np.ndarray]:
        if k == w.start:
            self.U[w.arrivals] = self.blocks.pop(k)
            self.maxima = self.U[w.slots].max(axis=0)
        return self.U, self.maxima

    def held(self, w: Window) -> bool:
        return True  # draws change only on arrival, at a window's first tick

    def read(self, values: np.ndarray) -> np.ndarray | float:
        return mle_estimate(values)


def _draw_arrivals(
    windows: Sequence[Window], p: int, rng: np.random.Generator
) -> dict[int, np.ndarray]:
    """The size-estimation draws of a run, keyed by window start: each window's
    ``(len(w.arrivals), p)`` block of uniforms on (0, 1), drawn from ``rng`` in
    window order.  Row ``i`` of a block is ``w.arrivals[i]``'s draws; an exact
    zero is redrawn after its block."""
    return {w.start: _open_uniform(rng, (len(w.arrivals), p)) for w in windows}


def _simulate(scenario: Scenario, observer) -> tuple[Trace, list[tuple]]:
    """The tick loop of both run kinds, on the max side of the mirror.

    Row ``s`` of the state and input arrays is slot ``s``, the ``s``-th
    reference node.  ``observer.inputs(k, w)`` fills tick ``k``'s inputs
    at window ``w``'s active slots ``act`` and returns them with their
    extremum, the target; ``observer.read`` turns the target and tick
    ``k``'s outputs at those slots into the trace's ``targets[k]`` and
    ``outputs[k, act]``.  At its first tick a window loads its arrivals'
    states: their inputs, or the initial states when the first window has
    them.  Returns the run's :class:`Trace`, and each window with its bounds
    report, from its first tick's gap of outputs over target, and audit dict.

    A window whose inputs are held (``observer.held(w)``) over its fixed
    graph reaches a fixed point.  Cascade level ``l`` holds its ``l``-fold
    neighbourhood max one step after level ``l - 1`` does: the ``settled``
    bottom levels (1 if level 0 has the held inputs' bits, else 0) grow by
    one a step, which folds only from level ``settled - 1`` up, until all
    ``delta + 1`` have settled at tick ``still``.  An approximate state is
    fixed once a step changes no bit.  The window's loop stops at that tick
    and fills the window's remaining ticks from it in one copy of its row of
    each trace table; the step out of the window then runs, with the full
    fold.

    An exact window whose inputs move steps through :func:`edmc_window`
    instead, a block of at most ``BLOCK_CELLS // len(w.slots)`` steps at a
    time on the inputs ``observer.block(first, stop)`` gives; its ticks read
    their outputs from the block's top-level series.  Held windows, the step
    out of a window and the approximate recurrence step one tick at a time.
    """
    params = scenario.params
    exact = params.variant == "exact"
    kernel = edmc_kernel if exact else (  # a decaying state has no levels to skip
        lambda X, U, layout, start=0: admc_kernel(X, U, layout, params.alpha))
    windows, init = scenario.windows, scenario.initial_states
    levels = (params.delta + 1,) if exact else ()
    X = np.zeros((scenario.reference.n, *levels, *observer.U.shape[1:]))

    errors, targets = np.empty(scenario.horizon + 1), np.empty(scenario.horizon + 1)
    outputs = np.full((scenario.horizon + 1, scenario.reference.n), np.nan)
    audited: list[tuple] = []
    for i, w in enumerate(windows):
        act, new, last = w.slots, w.arrivals, w.layout
        U, target = observer.inputs(w.start, w)
        prior = U[new] if i or init is None else observer.sign * init[new]
        X[new] = prior[:, None] if exact else prior  # a cascade holds the prior on every level
        if exact:
            X[new, 0] = U[new]  # but its input on level 0
        nxt = windows[i + 1] if i + 1 < len(windows) else None
        if nxt is not None and not params.read_departing:  # the stayers only
            last = scenario.reference.layout(w.keep & nxt.keep)
        held, settled, still = observer.held(w), 0, w.end
        if exact and held:
            settled = int(np.array_equal(X[act, 0].view(np.int64), U[act].view(np.int64)))
            still = min(w.start + params.delta + 1 - settled, w.end)
        moving, span = exact and not held, max(1, BLOCK_CELLS // len(act))
        for k in range(w.start, w.end + 1):
            if moving and k < w.end and (k - w.start) % span == 0:
                first = k
                series = edmc_window(X, observer.block(k, min(k + span, w.end)), w.layout)[:, act]
            outs = series[k - first] if moving else X[act, -1] if exact else X[act]
            if not np.isfinite(outs).all():
                raise RunExecutionError(
                    f"non-finite state encountered at tick {k}; aborting the run"
                )
            if k == w.start:
                gap = float(np.max(outs - target))
                report = window_bounds(params, scenario.slope_bound, w.diameter, scenario.dwell, gap)
            targets[k], outputs[k, act] = observer.read(target), observer.read(outs)
            errors[k] = np.abs(outs - target).max()
            if k == still:
                break
            before = X.copy() if held and not exact else None
            if not moving:  # else its block has stepped already
                kernel(X, U, w.layout, max(settled - 1, 0))
            settled += held  # stays 0, a full fold, while the inputs move
            U, target = observer.inputs(k + 1, w)
            if before is not None and np.array_equal(before.view(np.int64), X.view(np.int64)):
                break
        for table in (errors, targets, outputs):
            table[k + 1 : w.end + 1] = table[k]
        audited.append((w, report, audit_window(errors[w.start : w.end + 1], report)))
        if nxt is not None:
            kernel(X, U, last)

    counts = np.repeat([len(w.slots) for w in windows], [w.end - w.start + 1 for w in windows])
    return Trace(errors, targets, counts, outputs), audited


def _summary_head(scenario: Scenario) -> dict:
    params = scenario.params
    return {
        "scenario": scenario.name,
        "kind": scenario.kind,
        "seed": scenario.seed,
        "protocol": {
            "mode": params.mode,
            "variant": params.variant,
            "alpha": params.alpha,
            "delta": params.delta,
            "read_departing": params.read_departing,
        },
        "horizon": scenario.horizon,
        "dwell": scenario.dwell,
    }


def run(scenario: Scenario) -> RunResult:
    """Execute a consensus scenario tick by tick and summarize each window."""
    if scenario.kind != "consensus":
        raise ScenarioError("run() expects a consensus scenario; use run_size_estimation()")
    trace, windows = _simulate(scenario, _ConsensusObserver(scenario))
    rows = [
        {
            "start": w.start,
            "end": w.end,
            "n_active": len(w.slots),
            "diameter": w.diameter,
            "bounds": report.to_dict(),
            "empirical": empirical,
        }
        for w, report, empirical in windows
    ]
    summary = {
        **_summary_head(scenario),
        "slope_bound": scenario.slope_bound,
        "max_error": float(np.max(trace.errors)),
        "windows": rows,
    }
    return RunResult(scenario, trace, summary)


def run_size_estimation(scenario: Scenario) -> RunResult:
    """Execute a size-estimation scenario: consensus over per-agent maxima vectors."""
    if scenario.kind != "size_estimation":
        raise ScenarioError("run_size_estimation() expects a size-estimation scenario")
    trace, windows = _simulate(scenario, _SizeObserver(scenario))
    p = scenario.dse.p
    rows = []
    for w, report, empirical in windows:
        eps = report.steady_bound
        n_true = len(w.slots)
        expected = expected_estimate_admc(n_true, p, eps)
        values = trace.outputs[w.end, w.slots].tolist()
        spread = float(max(values) - min(values))
        rows.append(
            {
                "start": w.start,
                "end": w.end,
                "n_true": n_true,
                "diameter": w.diameter,
                "epsilon": eps,
                "expected_closed_form": expected,
                "bounds": report.to_dict(),
                "empirical": empirical,
                "steady": {
                    "mean_estimate": float(np.mean(values)),
                    "min_estimate": float(min(values)),
                    "max_estimate": float(max(values)),
                    "spread": spread,
                    "target_estimate": float(trace.targets[w.end]),
                    "agree_exactly": spread <= 1e-12,
                },
            }
        )
    last = scenario.windows[-1]
    mc_seed = int(np.random.SeedSequence((scenario.seed, 4)).generate_state(1, np.uint64)[0])
    mc = dse_worst_case_monte_carlo(
        len(last.slots), p, eps, scenario.dse.mc_trials, mc_seed
    )
    summary = {
        **_summary_head(scenario),
        "p": p,
        "epsilon": eps,
        "expected_closed_form": expected,
        "monte_carlo_mean": mc.mean,
        "ci99": mc.ci99,
        "std_error": mc.std_error,
        "mc_trials": mc.trials,
        "windows": rows,
    }
    return RunResult(scenario, trace, summary)


# ---------------------------------------------------------------------------
# artifact writing


def _format_floats(values: np.ndarray) -> np.ndarray:
    """``repr`` of each float64 in ``values``, as an object array of strings.

    Each distinct bit pattern is formatted once, so agents that agree cost one
    ``repr`` between them and ``-0.0`` stays apart from ``0.0``.
    """
    keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return np.array([repr(v) for v in keys.view(np.float64).tolist()], dtype=object)[inverse]


def _format_or_reuse(values: np.ndarray, last: tuple | None) -> tuple:
    """``values``'s bits with their ``repr`` strings as an object array, or
    ``last`` when it holds the same bits."""
    bits = values.view(np.int64)
    if last is not None and np.array_equal(bits, last[0]):
        return last
    return bits, _format_floats(values)


def _write_tables(
    scenario: Scenario, trace: Trace, trace_path: Path | None, plot_path: Path | None
) -> None:
    """Write ``trace.csv`` and the plot CSV in one pass over windows and ticks.

    The trace has a line per active agent and tick; the plot CSV has a line
    per tick and a column per reference node, empty while it is inactive.
    Each tick's values are formatted once (the plotted column alone without
    a trace).  A window's trace is one token list, ``width`` tokens an agent:
    a tick whose values changed slice-assigns its new strings and joins it;
    one whose values repeat rejoins the previous tick's lines, split once.
    Floats print as ``repr``; no field is quoted.
    """
    nodes = scenario.reference.ids.tolist()
    ticks = range(scenario.horizon + 1)
    counts, targets = trace.n_active.tolist(), trace.targets.tolist()
    columns = (trace.outputs,)
    if scenario.kind == "consensus":
        columns += (scenario.inputs,) if trace_path else ()
        trace_head = ["tick", "agent", "x", "u", "e", "n_active"]
        plot_head = ["tick", "target", *(f"x_{i}" for i in nodes)]
        errors = trace.errors.tolist()
        ends = [f",{errors[k]!r},{counts[k]}\n" for k in ticks]
        leads = [f"{k},{targets[k]!r}," for k in ticks]
    else:
        trace_head = ["tick", "agent", "n_hat"]
        plot_head = ["tick", "n_true", "target_estimate", *(f"nhat_{i}" for i in nodes)]
        ends = ["\n"] * len(ticks)
        leads = [f"{k},{counts[k]},{targets[k]!r}," for k in ticks]
    width = 2 * len(columns) + 2

    cells = np.empty(len(nodes), dtype=object)
    with ExitStack() as stack:
        tf = pf = None
        if trace_path is not None:
            tf = stack.enter_context(trace_path.open("w", newline=""))
            tf.write(",".join(trace_head) + "\n")
        if plot_path is not None:
            pf = stack.enter_context(plot_path.open("w", newline=""))
            pf.write(",".join(plot_head) + "\n")
        for w in scenario.windows:
            act, m = w.slots, len(w.slots)
            cells[:] = ""
            shown = [None] * len(columns)  # per column: the last tick's bits and strings
            tokens = [","] * (width * m)
            tokens[1::width] = [f"{nodes[s]}," for s in act.tolist()]
            for k in range(w.start, w.end + 1):
                old = shown
                shown = [_format_or_reuse(c[k, act], s) for c, s in zip(columns, old)]
                if tf is not None:
                    if fresh := [j for j, (s, o) in enumerate(zip(shown, old)) if s is not o]:
                        for j in fresh:
                            tokens[2 * j + 2 :: width] = shown[j][1].tolist()
                        tokens[::width], tokens[width - 1 :: width] = [f"{k},"] * m, [ends[k]] * m
                        text, body = "".join(tokens), None
                    else:  # "\n" occurs only at line ends, so the split is exact
                        lead, end = f"{k - 1},", ends[k - 1]
                        body = body or text[len(lead) : -len(end)].split(end + lead)
                        text = f"{k}," + (ends[k] + f"{k},").join(body) + ends[k]
                    tf.write(text)
                if pf is not None:
                    if shown[0] is not old[0]:
                        cells[act] = shown[0][1]
                        row = ",".join(cells.tolist()) + "\n"
                    pf.write(leads[k] + row)


def write_outputs(result: RunResult, out_dir: str | Path) -> dict[str, Path]:
    """Write the trace CSV, summary JSON, and plot data for one finished run.

    First deletes an earlier run's trace, plot table and window graphs in
    ``out_dir`` that this run does not rewrite, and no other file."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scenario = result.scenario
    plot_dir = out / "plotdata"
    paths: dict[str, Path] = {"summary": out / "summary.json"}
    plot_path, graphs = None, {}
    if scenario.trace.csv:
        paths["trace"] = out / "trace.csv"
    if scenario.trace.plotdata:
        paths["plotdata"] = plot_dir
        plot_name = "state_trajectories" if scenario.kind == "consensus" else "size_estimates"
        plot_path = plot_dir / f"{plot_name}.csv"
        graphs = {plot_dir / f"graph_window_{w.start}.txt": w for w in scenario.windows}
    own = re.compile(r"state_trajectories\.csv|size_estimates\.csv|graph_window_\d+\.txt")
    for stale in {out / "trace.csv", *(f for f in plot_dir.glob("*") if own.fullmatch(f.name))}:
        if stale not in (paths.get("trace"), plot_path, *graphs):
            stale.unlink(missing_ok=True)
    with paths["summary"].open("w") as fh:
        json.dump(result.summary, fh, indent=2)
        fh.write("\n")
    if plot_path is None:
        with suppress(OSError):  # only an empty plotdata/ goes
            plot_dir.rmdir()
    else:
        plot_dir.mkdir(exist_ok=True)
        for path, w in graphs.items():
            path.write_text(snapshot_to_text(w.graph))
    if scenario.trace.csv or scenario.trace.plotdata:
        _write_tables(scenario, result.trace, paths.get("trace"), plot_path)
    return paths
