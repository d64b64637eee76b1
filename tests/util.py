"""Shared helpers for the test suite: small random graphs, churn scripts, and
the scalar reference implementations that the vectorized code is checked
against (graphs as Python sets, per-agent kernels, signal values and random
walks, slope certification, window audits, brute-force Monte Carlo, the
artifact writer)."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

from openmax.bounds import BoundsReport
from openmax.graph import NetworkSnapshot, snapshot_from_text
from openmax.protocols import ProtocolParams
from openmax.signals import (
    ClampedRandomWalk,
    Constant,
    PiecewiseLinear,
    SignalSpec,
    Sinusoid,
    SlopeCertificationError,
)
import openmax.simulator as simulator
from openmax.simulator import RunResult, Scenario, make_scenario
from openmax.size_estimation import _open_uniform

# One agent's state: a float or a coordinate vector, or a (delta + 1, ...) cascade.
State = Union[float, np.ndarray]

LINE4_TEXT = """
nodes: 1 2 3 4
1 2
2 3
3 4
"""


def as_masks(
    reference: NetworkSnapshot, changes: Iterable[tuple[int, Iterable[int]]]
) -> list[tuple[int, np.ndarray]]:
    """``(tick, active node ids)`` pairs as the ``(tick, keep)`` masks over
    ``reference.ids`` that :func:`make_scenario` takes."""
    out = []
    for tick, active in changes:
        active = sorted(active)
        assert set(active) <= node_set(reference), active
        out.append((tick, np.isin(reference.ids, active)))
    return out


def line4_churn_scenario(**overrides) -> Scenario:
    """Line on 1..4; node 4 leaves at tick 10 and returns at tick 20.

    ``changes`` are given as ``(tick, active node ids)`` pairs."""
    base = dict(
        name="mini",
        kind="consensus",
        params=ProtocolParams(mode="max", variant="approximate", alpha=0.1),
        reference=snapshot_from_text(LINE4_TEXT),
        horizon=30,
        seed=5,
        changes=[(10, {1, 2, 3}), (20, {1, 2, 3, 4})],
        dwell=10,
        signals=(Constant(0.1), Constant(0.3), Constant(0.2), Constant(0.9)),
    )
    base.update(overrides)
    return make_scenario(**{**base, "changes": as_masks(base["reference"], base["changes"])})


def random_connected_graph(
    rng: np.random.Generator, n: int, extra_edge_prob: float = 0.3
) -> NetworkSnapshot:
    """Random connected graph on nodes 1..n: random tree plus extra edges."""
    edges: set[tuple[int, int]] = set()
    for i in range(2, n + 1):
        j = int(rng.integers(1, i))
        edges.add((j, i))
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if (u, v) not in edges and rng.random() < extra_edge_prob:
                edges.add((u, v))
    return NetworkSnapshot.from_edges(range(1, n + 1), sorted(edges))


def hub_graph() -> NetworkSnapshot:
    """Adjacent hubs 1 and 2, both joined to leaves 3..12, and a tail 12-13-14.

    The hubs tie at degree 11 and most leaves at degree 2, so the degree
    layout has eleven levels, most of them short."""
    edges = {(1, 2), (12, 13), (13, 14)} | {(h, v) for h in (1, 2) for v in range(3, 13)}
    return NetworkSnapshot.from_edges(range(1, 15), sorted(edges))


def node_set(g: NetworkSnapshot) -> frozenset[int]:
    return frozenset(g.ids.tolist())


def edge_set(g: NetworkSnapshot) -> frozenset[tuple[int, int]]:
    """Every edge once, as a ``(low, high)`` pair of node ids."""
    src, dst = g.arcs
    up = src < dst
    return frozenset(zip(g.ids[src[up]].tolist(), g.ids[dst[up]].tolist()))


def same_graph(a: NetworkSnapshot, b: NetworkSnapshot) -> bool:
    """Equal ids and equal arcs."""
    return all(np.array_equal(x, y) for x, y in zip((a.ids, *a.arcs), (b.ids, *b.arcs)))


def induced_subgraph(g: NetworkSnapshot, keep: Iterable[int]) -> NetworkSnapshot:
    """``g`` restricted to the node ids ``keep`` and the edges among them, by
    definition over Python sets."""
    kept = frozenset(int(n) for n in keep)
    missing = kept - node_set(g)
    if missing:
        raise ValueError(f"nodes {sorted(missing)} are not active in this snapshot")
    return NetworkSnapshot.from_edges(
        sorted(kept), sorted(e for e in edge_set(g) if e[0] in kept and e[1] in kept)
    )


def barabasi_albert_reference(
    seed_graph: NetworkSnapshot, target_n: int, edges_per_new_node: int, rng: np.random.Generator
) -> tuple[NetworkSnapshot, tuple[int, ...]]:
    """Preferential attachment grown over a Python set of edges: one
    ``rng.integers(len(pool))`` draw per attempt from a pool that lists both
    endpoints of the seed's sorted edges, then of each new edge."""
    assert is_connected_reference(seed_graph)
    order: list[int] = seed_graph.ids.tolist()
    edges: set[tuple[int, int]] = set(edge_set(seed_graph))
    pool: list[int] = [n for e in sorted(edges) for n in e]
    next_id = order[-1] + 1
    while len(order) < target_n:
        k = min(edges_per_new_node, len(order))
        targets: set[int] = set()
        if pool:
            while len(targets) < k:
                targets.add(pool[int(rng.integers(len(pool)))])
        else:
            targets.update(order[:k])  # degenerate one-node seed
        for t in sorted(targets):
            edges.add((t, next_id))
            pool.extend((t, next_id))
        order.append(next_id)
        next_id += 1
    return NetworkSnapshot.from_edges(order, sorted(edges)), tuple(order)


def adjacency(g: NetworkSnapshot) -> dict[int, tuple[int, ...]]:
    """Each node's sorted neighbours; a node is never its own neighbour."""
    adj: dict[int, list[int]] = {n: [] for n in g.ids.tolist()}
    for u, v in edge_set(g):
        adj[u].append(v)
        adj[v].append(u)
    return {n: tuple(sorted(adj[n])) for n in g.ids.tolist()}


def is_connected_reference(g: NetworkSnapshot) -> bool:
    """Connectivity by a depth-first walk over Python sets; False when empty."""
    if not g.n:
        return False
    adj = adjacency(g)
    stack = [int(g.ids[0])]
    seen = set(stack)
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.n


def layout_reference(g: NetworkSnapshot, kept: Iterable[int]) -> tuple[list[int], list[list[int]]]:
    """The degree layout of ``induced_subgraph(g, kept)`` by definition, over
    positions in ``g.ids``: the kept positions by descending degree,
    ties in ascending order, and per ``s`` the position of the ``s``-th
    smallest neighbour of each of them that has one."""
    h = induced_subgraph(g, kept)
    adj = adjacency(h)
    pos = {v: k for k, v in enumerate(g.ids.tolist())}
    order = sorted(h.ids.tolist(), key=lambda v: -len(adj[v]))
    depth = max(map(len, adj.values()), default=0)
    levels = [[pos[adj[v][s]] for v in order if len(adj[v]) > s] for s in range(depth)]
    return [pos[v] for v in order], levels


def floyd_warshall_diameter(g: NetworkSnapshot) -> float:
    """Independent diameter computation used as an oracle against BFS."""
    return float(floyd_warshall_distances(g).max())


def floyd_warshall_distances(g: NetworkSnapshot) -> np.ndarray:
    """Shortest-path lengths between positions in ``g.ids``, ``inf`` where
    no path joins them."""
    order = g.ids.tolist()
    idx = {n: i for i, n in enumerate(order)}
    size = len(order)
    dist = np.full((size, size), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v in edge_set(g):
        dist[idx[u], idx[v]] = 1.0
        dist[idx[v], idx[u]] = 1.0
    for k in range(size):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return dist


def admc_step_reference(
    g: NetworkSnapshot, x: Mapping[int, State], u: Mapping[int, object], alpha: float
) -> dict[int, State]:
    """Per-agent approximate max step, one Python loop over the agents."""
    adj = adjacency(g)
    new: dict[int, State] = {}
    for i in g.ids.tolist():
        xi = x[i]
        if isinstance(xi, float):
            best = xi
            for j in adj[i]:
                xj = x[j]
                if xj > best:
                    best = xj
            decayed = best - alpha
            ui = u[i]
            new[i] = ui if ui > decayed else decayed
        else:
            best = xi
            for j in adj[i]:
                best = np.maximum(best, x[j])
            new[i] = np.maximum(best - alpha, u[i])
    return new


def edmc_step_reference(
    g: NetworkSnapshot, x: Mapping[int, State], u: Mapping[int, object]
) -> dict[int, State]:
    """Per-agent exact max step: shift each cascade, load the input."""
    adj = adjacency(g)
    new: dict[int, State] = {}
    for i in g.ids.tolist():
        own = x[i]
        agg = own[:-1]
        for j in adj[i]:
            agg = np.maximum(agg, x[j][:-1])
        arr = np.empty_like(own)
        arr[0] = np.asarray(u[i], dtype=float)
        arr[1:] = agg
        new[i] = arr
    return new


def start_state(params: ProtocolParams, u: object) -> State:
    """The state of an agent that starts or joins with input ``u``: the input,
    on every level of a cascade."""
    return np.full((params.delta + 1, *np.shape(u)), u) if params.variant == "exact" else u


def open_step_reference(
    params: ProtocolParams,
    g_now: NetworkSnapshot,
    g_next: NetworkSnapshot,
    x: Mapping[int, State],
    u_now: Mapping[int, object],
    u_next: Mapping[int, object],
) -> dict[int, State]:
    """Per-agent step across a membership change, on the reference kernels.

    Agents that stay step on ``g_now`` and, unless ``params.read_departing`` is
    off, still read the last states of departing neighbours; arriving agents
    start from their next-tick input and read nobody this tick.
    """
    now, after = node_set(g_now), node_set(g_next)
    departing = now - after
    base = g_now
    if not params.read_departing and departing:
        base = induced_subgraph(g_now, now - departing)
    if params.variant == "approximate":
        stepped = admc_step_reference(base, x, u_now, params.alpha)
    else:
        stepped = edmc_step_reference(base, x, u_now)
    new = {i: stepped[i] for i in sorted(now & after)}
    new.update((i, start_state(params, u_next[i])) for i in sorted(after - now))
    return new


def reference_outputs(
    scenario: Scenario, inputs: Callable[[int, NetworkSnapshot], Mapping[int, object]]
) -> list[dict[int, object]]:
    """Per-tick max-side outputs of a scenario run on the reference kernels.

    ``inputs(k, g)`` gives the max-side inputs of ``g``'s agents at tick ``k``;
    agents start from their inputs and expose their state, or the top level of
    their cascade.
    """
    params = replace(scenario.params, mode="max")
    exact = params.variant == "exact"
    graphs = [w.graph for w in scenario.windows for _ in range(w.start, w.end + 1)]
    u = inputs(0, graphs[0])
    states = {i: start_state(params, u[i]) for i in graphs[0].ids.tolist()}
    outs = []
    for k, g in enumerate(graphs):
        outs.append({i: states[i][-1] if exact else states[i] for i in g.ids.tolist()})
        if k < scenario.horizon:
            u_next = inputs(k + 1, graphs[k + 1])
            states = open_step_reference(params, g, graphs[k + 1], states, u, u_next)
            u = u_next
    return outs


def dse_generate(p: int, rng: np.random.Generator) -> np.ndarray:
    """Draw the ``p`` uniform coordinates one agent contributes: the
    per-agent reference for a run's arrival blocks.

    Values are uniform on (0, 1): the generator draws from [0, 1) and exact
    zeros are rejected and redrawn.
    """
    if p < 2:
        raise ValueError(f"at least two coordinates are needed, got p={p}")
    return _open_uniform(rng, p)


def dse_inputs_reference(scenario: Scenario) -> Callable[[int, NetworkSnapshot], dict]:
    """A size-estimation run's per-agent inputs for :func:`reference_outputs`:
    one :func:`dse_generate` call per (re)arriving agent, in ascending node
    order, on the run's draw stream; stayers keep their draws."""
    draws = np.random.default_rng(np.random.SeedSequence((scenario.seed, 2)))
    held: dict = {"graph": None, "u": {}}

    def inputs(k: int, g: NetworkSnapshot) -> dict:
        if g is not held["graph"]:
            old = held["u"]
            held["u"] = {
                i: old[i] if i in old else dse_generate(scenario.dse.p, draws)
                for i in g.ids.tolist()
            }
            held["graph"] = g
        return held["u"]

    return inputs


def record_exact_kernel_calls(monkeypatch) -> list[tuple]:
    """Record the engine's exact-kernel calls from now on, through
    ``monkeypatch``: a step as (sorted rows, start level), a block of window
    steps as (sorted rows, "window", steps)."""
    calls: list[tuple] = []

    def recorded(X, U, layout, start=0, _kernel=simulator.edmc_kernel):
        calls.append((tuple(sorted(layout[0].tolist())), start))
        return _kernel(X, U, layout, start)

    def recorded_window(X, U, layout, _window=simulator.edmc_window):
        calls.append((tuple(sorted(layout[0].tolist())), "window", len(U)))
        return _window(X, U, layout)

    monkeypatch.setattr(simulator, "edmc_kernel", recorded)
    monkeypatch.setattr(simulator, "edmc_window", recorded_window)
    return calls


def exact_kernel_calls(scenario: Scenario) -> list[tuple]:
    """The exact-kernel calls a run of ``scenario`` makes, in the form
    :func:`record_exact_kernel_calls` records them, derived from the
    cascade's definition.

    In a window whose inputs keep their bits, level ``l`` reaches its fixed
    point one step after level ``l - 1``.  Level 0 holds it from the start
    when every stayer's input at the window's first tick has the bits of its
    input a tick earlier (arrivals load their input on every level; a
    size-estimation agent's draws hold while it stays).  Each step refolds
    from the topmost settled level up, and the window stops stepping once
    all ``delta + 1`` levels are settled.  A window whose inputs move takes
    its steps in blocks of ``simulator.BLOCK_CELLS // rows`` (at least one).
    The step out of each window folds every level."""
    delta, table, windows = scenario.params.delta, scenario.inputs, scenario.windows
    calls: list[tuple] = []
    for i, w in enumerate(windows):
        rows, steps = tuple(w.slots.tolist()), w.end - w.start
        if table is None:
            settled: int | None = 1
        else:
            bits = table.view(np.int64)
            block = bits[w.start : w.end + 1, w.slots]
            stay = w.keep & windows[i - 1].keep if i else w.keep
            settled = None
            if (block == block[0]).all():
                settled = int(i == 0 or np.array_equal(bits[w.start - 1, stay], bits[w.start, stay]))
        if settled is None:
            span = max(1, simulator.BLOCK_CELLS // len(rows))
            calls += [(rows, "window", min(span, steps - j)) for j in range(0, steps, span)]
        else:
            starts = [max(settled + j - 1, 0) for j in range(min(delta + 1 - settled, steps))]
            calls += [(rows, start) for start in starts]
        if i + 1 < len(windows):
            last = w.keep if scenario.params.read_departing else w.keep & windows[i + 1].keep
            calls.append((tuple(np.flatnonzero(last).tolist()), 0))
    return calls


def same_bits(got: Mapping[int, object], want: Mapping[int, object]) -> bool:
    """Same agents in the same order with bit-identical values, signs of zero included."""
    return list(got) == list(want) and all(
        np.asarray(got[i], dtype=float).tobytes() == np.asarray(want[i], dtype=float).tobytes()
        for i in want
    )


def trace_row(result: RunResult, table: np.ndarray, k: int) -> dict[int, float]:
    """Row ``k`` of a trace table as ``{agent: value}`` over the agents active at tick ``k``.

    Checks the layout on the way: column ``s`` is the ``s``-th reference node,
    and the columns of inactive agents hold NaN.
    """
    sc = result.scenario
    w = next(w for w in sc.windows if w.start <= k <= w.end)
    assert np.array_equal(sc.reference.ids[w.slots], w.graph.ids)
    assert np.isnan(np.delete(table[k], w.slots)).all()
    return dict(zip(w.graph.ids.tolist(), table[k, w.slots].tolist()))


def value_reference(spec: SignalSpec, k: int) -> float:
    """A constant, piecewise-linear or sinusoid signal at tick ``k``, in scalar Python."""
    if isinstance(spec, Constant):
        return float(spec.value)
    if isinstance(spec, PiecewiseLinear):
        pts = spec.points
        if k <= pts[0][0]:
            return pts[0][1]
        if k >= pts[-1][0]:
            return pts[-1][1]
        hi = bisect_right([t for t, _ in pts], k)
        k0, v0 = pts[hi - 1]
        k1, v1 = pts[hi]
        return v0 + (v1 - v0) * (k - k0) / (k1 - k0)
    if isinstance(spec, Sinusoid):
        return spec.offset + spec.amplitude * math.sin(2.0 * math.pi * (k + spec.phase) / spec.period)
    raise TypeError(f"no scalar value for {spec!r}")


def signal_inputs(
    scenario: Scenario, specs: Sequence[SignalSpec], sign: float = 1.0
) -> Callable[[int, NetworkSnapshot], dict[int, float]]:
    """Inputs for :func:`reference_outputs`: agent ``reference.ids[s]`` reads
    ``specs[s]`` at tick ``k`` through :func:`value_reference`, times ``sign``."""
    slot = {i: s for s, i in enumerate(scenario.reference.ids.tolist())}
    return lambda k, g: {i: sign * value_reference(specs[slot[i]], k) for i in g.ids.tolist()}


def walk_reference(walk: ClampedRandomWalk, rng: np.random.Generator, horizon: int) -> list[float]:
    """A clamped random walk over ``[0, horizon]``, clamped one value at a time
    with Python's ``max`` and ``min``; its steps are one draw of ``horizon`` uniforms."""
    lo, hi = walk.lo, walk.hi
    x = float(walk.start)
    if lo is not None:
        x = max(x, lo)
    if hi is not None:
        x = min(x, hi)
    vals = [x]
    for step in rng.uniform(-walk.step_bound, walk.step_bound, size=horizon).tolist():
        x = x + step
        if lo is not None:
            x = max(x, lo)
        if hi is not None:
            x = min(x, hi)
        vals.append(x)
    return vals


def table_reference(
    specs: Sequence[SignalSpec], horizon: int, rng: np.random.Generator
) -> np.ndarray:
    """The signal table built one column at a time: walks draw from ``rng`` in column order."""
    columns = []
    for spec in specs:
        if isinstance(spec, ClampedRandomWalk):
            columns.append(walk_reference(spec, rng, horizon))
        else:
            columns.append([value_reference(spec, k) for k in range(horizon + 1)])
    return np.array(columns).T


def negated_signals(specs: Sequence[SignalSpec]) -> tuple[SignalSpec, ...]:
    """The mirror of signals without random walks: every signal negated."""

    def negated(spec: SignalSpec) -> SignalSpec:
        if isinstance(spec, Constant):
            return Constant(-spec.value)
        if isinstance(spec, PiecewiseLinear):
            return PiecewiseLinear(tuple((k, -v) for k, v in spec.points))
        if isinstance(spec, Sinusoid):
            return Sinusoid(-spec.amplitude, spec.period, spec.phase, -spec.offset)
        raise TypeError(f"no negation for {spec!r}")

    return tuple(map(negated, specs))


def certify_slope_reference(columns: Mapping[int, Sequence[float]], bound: float) -> float:
    """Scalar slope certification: walk every agent's values tick by tick."""
    tol = 1e-9 * max(1.0, abs(bound)) + 1e-12
    worst = 0.0
    for agent, values in sorted(columns.items()):
        prev = values[0]
        for k in range(1, len(values)):
            cur = values[k]
            change = abs(cur - prev)
            if change > worst:
                worst = change
            if change > bound + tol:
                raise SlopeCertificationError(
                    f"agent {agent} moves by {change:.6g} from tick {k - 1} to {k}, "
                    f"above the declared per-tick slope bound {bound:.6g}"
                )
            prev = cur
    return worst


def write_tables_reference(result: RunResult, trace_path: Path, plot_path: Path) -> None:
    """``trace.csv`` and the plot CSV written one line at a time, each line
    formatted on its own: the per-line oracle of ``simulator._write_tables``."""
    sc, trace = result.scenario, result.trace
    nodes = sc.reference.ids.tolist()
    with trace_path.open("w", newline="") as tf, plot_path.open("w", newline="") as pf:
        if sc.kind == "consensus":
            tf.write("tick,agent,x,u,e,n_active\n")
            pf.write(",".join(["tick", "target", *(f"x_{i}" for i in nodes)]) + "\n")
        else:
            tf.write("tick,agent,n_hat\n")
            pf.write(",".join(["tick", "n_true", "target_estimate", *(f"nhat_{i}" for i in nodes)]) + "\n")
        for w in sc.windows:
            for k in range(w.start, w.end + 1):
                cells = [""] * len(nodes)
                n, target = int(trace.n_active[k]), repr(float(trace.targets[k]))
                for s in w.slots.tolist():
                    x = float(trace.outputs[k, s])
                    if sc.kind == "consensus":
                        u, e = float(sc.inputs[k, s]), float(trace.errors[k])
                        tf.write(f"{k},{nodes[s]},{x!r},{u!r},{e!r},{n}\n")
                    else:
                        tf.write(f"{k},{nodes[s]},{x!r}\n")
                    cells[s] = repr(x)
                lead = [str(k), target] if sc.kind == "consensus" else [str(k), str(n), target]
                pf.write(",".join(lead + cells) + "\n")


def audit_window_reference(errors: Sequence[float], report: BoundsReport) -> dict:
    """A window's audit record from scalar loops over its errors: the times read
    backward from the end, the decrease and containment counts forward."""
    band, band_tol, decrease_tol = report.tracking_bound, 1e-9, 1e-12
    last = len(errors) - 1
    conv: int | None = 0
    for k in range(last, -1, -1):
        if errors[k] > band + band_tol:
            conv = None if k == last else k + 1
            break
    transient = 0
    for k in range((last if conv is None else conv) - 1, -1, -1):
        if errors[k] <= band + band_tol:
            continue
        if not errors[k + 1] < errors[k] + decrease_tol:
            transient = k + 1
            break

    decrease = 0
    t_conv = report.convergence_time if report.convergence_time is not None else last + 1
    for k in range(report.transient_time, min(t_conv, last - 1) + 1):
        if errors[k] <= band + band_tol:
            continue
        if not errors[k + 1] < errors[k] + decrease_tol:
            decrease += 1

    containment = 0
    max_tail = None
    audited = report.convergence_time is not None and report.convergence_time <= last
    if audited:
        tail = [errors[k] for k in range(report.convergence_time, last + 1)]
        max_tail = float(max(tail))
        containment = sum(1 for e in tail if e > band + band_tol)
    return {
        "transient_time": transient,
        "convergence_time": conv,
        "converged": conv is not None,
        "max_error": float(max(errors)),
        "final_error": float(errors[-1]),
        "max_error_after_convergence": max_tail,
        "decrease_violations": decrease,
        "containment_violations": containment,
        "containment_audited": audited,
    }


def worst_case_estimates_reference(
    n: int, p: int, eps: float, trials: int, seed: int
) -> np.ndarray:
    """Brute-force worst-case estimates: per trial, the maxima of ``n * p`` uniforms."""
    estimates = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((seed, t)))
        u_max = rng.random((n, p)).max(axis=0)
        estimates[t] = -p / (np.log(u_max) - eps).sum()
    return estimates
