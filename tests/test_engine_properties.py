"""Property-based differential tests of the engine.

Hypothesis draws small scenarios: a connected reference graph, explicit churn
whose windows stay connected, variant, ``alpha`` or ``delta``, and
``read_departing``.  A consensus scenario also draws its mode and inputs that
mix constants, steps that hold and then move at a change tick or elsewhere,
and both zeros; a size-estimation scenario draws its seed and ``p``.  Every
output of ``run`` or ``run_size_estimation`` must match the per-agent
reference kernels bit for bit, and every exact kernel call must fold exactly
the cascade levels its definition leaves unsettled.  Runs on inputs of bounded
slope must meet the paper's bounds: no window whose assumptions hold may break
its decrease or containment audit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from openmax.graph import NetworkSnapshot
from openmax.protocols import ProtocolParams
from openmax.bounds import BAND_TOL
from openmax.signals import ClampedRandomWalk, Constant, PiecewiseLinear, Sinusoid
from openmax.simulator import DseConfig, make_scenario, run, run_size_estimation
from openmax.size_estimation import mle_estimate

from util import (
    adjacency,
    as_masks,
    dse_inputs_reference,
    exact_kernel_calls,
    floyd_warshall_distances,
    node_set,
    record_exact_kernel_calls,
    reference_outputs,
    signal_inputs,
    value_reference,
)

GRID = (-0.5, -0.25, -0.0, 0.0, 0.25, 0.5)


@st.composite
def graphs(draw, sizes: tuple[int, int] = (1, 10)) -> NetworkSnapshot:
    """A random tree on 1..n, ``n`` in ``sizes``, plus up to n extra edges."""
    n = draw(st.integers(*sizes))
    edges = {(draw(st.integers(1, i - 1)), i) for i in range(2, n + 1)}
    if n > 1:
        pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
        edges |= draw(st.sets(pairs, max_size=n))
    return NetworkSnapshot.from_edges(range(1, n + 1), sorted(edges))


@st.composite
def connected_subsets(draw, g: NetworkSnapshot) -> frozenset[int]:
    """A nonempty node set grown from a drawn root by adding the lowest-ranked
    neighbour of the set, so it induces a connected subgraph."""
    adj = adjacency(g)
    order = draw(st.permutations(g.ids.tolist()))
    rank = {v: r for r, v in enumerate(order)}
    chosen = {order[0]}
    for _ in range(draw(st.integers(1, g.n)) - 1):
        frontier = {v for u in chosen for v in adj[u]} - chosen
        chosen.add(min(frontier, key=rank.__getitem__))
    return frozenset(chosen)


@st.composite
def churn(draw, g: NetworkSnapshot, horizon: int, shortest: int, longest: int = 8) -> list:
    """Up to three changes ``shortest`` to ``longest`` ticks apart, as masks,
    each to a connected subset that differs from the set before it."""
    gaps = draw(st.lists(st.integers(shortest, longest), max_size=3))
    changes, active = [], node_set(g)
    for tick in itertools.takewhile(lambda t: t <= horizon, itertools.accumulate(gaps)):
        keep = draw(connected_subsets(g))
        if keep != active:
            changes.append((tick, keep))
            active = keep
    return as_masks(g, changes)


@st.composite
def scenarios(draw):
    """A consensus scenario and its signals, one a slot."""
    g = draw(graphs())
    mode = draw(st.sampled_from(["max", "min"]))
    exact = draw(st.booleans())
    delta = draw(st.integers(0, 4)) if exact else None
    alpha = None if exact else draw(st.sampled_from([0.25, 0.5, 0.75]))
    horizon = draw(st.integers(4, 24))
    changes = draw(churn(g, horizon, max(delta or 0, 1)))
    ticks = [t for t, _ in changes] or [horizon]

    def signal():
        kind = draw(st.sampled_from(["constant", "constant", "jump", "move"]))
        a = draw(st.sampled_from(GRID))
        if kind == "constant":
            return Constant(a)
        b = draw(st.sampled_from(GRID))
        shortest = 1 if exact else int(abs(b - a) / alpha) + 1  # a slope below alpha
        if kind == "jump":  # held until it reaches its new value at a change tick
            end, length = draw(st.sampled_from(ticks)), shortest
        else:
            end, length = draw(st.integers(1, horizon)), draw(st.integers(shortest, shortest + 4))
        return PiecewiseLinear(((end - length, a), (end, b)))

    signals = tuple(signal() for _ in range(g.n))
    params = ProtocolParams(
        mode, "exact" if exact else "approximate", alpha=alpha, delta=delta,
        read_departing=draw(st.booleans()),
    )
    sc = make_scenario(
        name="drawn", kind="consensus", params=params, reference=g, horizon=horizon,
        seed=0, changes=changes, signals=signals,
    )
    return sc, signals


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(scenarios())
def test_consensus_engine_matches_the_per_agent_oracle(drawn):
    sc, signals = drawn
    sign = 1.0 if sc.params.mode == "max" else -1.0
    with pytest.MonkeyPatch.context() as mp:
        calls = record_exact_kernel_calls(mp)
        res = run(sc)
    want = np.full_like(res.trace.outputs, np.nan)
    targets, errors = np.empty_like(res.trace.targets), np.empty_like(res.trace.errors)
    slot = {v: s for s, v in enumerate(sc.reference.ids.tolist())}
    extremum = max if sc.params.mode == "max" else min  # each picks the first of equals
    for k, row in enumerate(reference_outputs(sc, signal_inputs(sc, signals, sign))):
        for i, v in row.items():
            want[k, slot[i]] = sign * v
        targets[k] = extremum(value_reference(signals[slot[i]], k) for i in sorted(row, key=slot.get))
        errors[k] = max(abs(v - sign * targets[k]) for v in row.values())
    assert np.array_equal(res.trace.outputs.view(np.int64), want.view(np.int64))
    assert np.array_equal(res.trace.targets.view(np.int64), targets.view(np.int64))
    assert np.array_equal(res.trace.errors.view(np.int64), errors.view(np.int64))
    if sc.params.variant == "exact":
        assert calls == exact_kernel_calls(sc)


@st.composite
def size_scenarios(draw):
    """A size-estimation scenario with ``p`` of 2-4 and a drawn seed."""
    g = draw(graphs())
    exact = draw(st.booleans())
    delta = draw(st.integers(0, 4)) if exact else None
    alpha = None if exact else draw(st.sampled_from([0.25, 0.5, 0.75]))
    horizon = draw(st.integers(4, 24))
    params = ProtocolParams(
        "max", "exact" if exact else "approximate", alpha=alpha, delta=delta,
        read_departing=draw(st.booleans()),
    )
    return make_scenario(
        name="drawn", kind="size_estimation", params=params, reference=g, horizon=horizon,
        seed=draw(st.integers(0, 2**16)), changes=draw(churn(g, horizon, max(delta or 0, 1))),
        dse=DseConfig(p=draw(st.integers(2, 4)), mc_trials=2),
    )


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(size_scenarios())
def test_size_engine_matches_the_per_agent_oracle(sc):
    with pytest.MonkeyPatch.context() as mp:
        calls = record_exact_kernel_calls(mp)
        res = run_size_estimation(sc)
    want = np.full_like(res.trace.outputs, np.nan)
    targets, errors = np.empty_like(res.trace.targets), np.empty_like(res.trace.errors)
    slot = {v: s for s, v in enumerate(sc.reference.ids.tolist())}
    draws = dse_inputs_reference(sc)
    graphs = [w.graph for w in sc.windows for _ in range(w.start, w.end + 1)]
    for k, row in enumerate(reference_outputs(sc, dse_inputs_reference(sc))):
        for i, v in row.items():
            want[k, slot[i]] = mle_estimate(v)
        maxima = np.max(list(draws(k, graphs[k]).values()), axis=0)
        targets[k] = mle_estimate(maxima)
        errors[k] = max(np.abs(v - maxima).max() for v in row.values())
    assert np.array_equal(res.trace.outputs.view(np.int64), want.view(np.int64))
    assert np.array_equal(res.trace.targets.view(np.int64), targets.view(np.int64))
    assert np.array_equal(res.trace.errors.view(np.int64), errors.view(np.int64))
    if sc.params.variant == "exact":
        assert calls == exact_kernel_calls(sc)


@st.composite
def constant_exact_scenarios(draw):
    """An exact consensus scenario on 8-120 nodes with constant inputs, random
    initial states, and windows long enough to settle.

    The cascade depth is one below to two above the reference's diameter,
    and the input extremum sits alone at one end of a longest shortest path,
    so a depth short of the diameter leaves the other end off the target."""
    g = draw(graphs((8, 120)))
    dist = floyd_warshall_distances(g)
    delta = int(dist.max()) + draw(st.integers(-1, 2))
    horizon = draw(st.integers(2 * delta + 4, 60))
    mode = draw(st.sampled_from(["max", "min"]))
    inputs = [draw(st.sampled_from(GRID)) for _ in range(g.n)]
    inputs[int(dist.max(axis=1).argmax())] = 1.0 if mode == "max" else -1.0
    params = ProtocolParams(mode, "exact", delta=delta, read_departing=draw(st.booleans()))
    return make_scenario(
        name="drawn", kind="consensus", params=params, reference=g, horizon=horizon, seed=0,
        changes=draw(churn(g, horizon, delta + 2, delta + 12)),
        signals=tuple(map(Constant, inputs)),
        initial_states=[draw(st.floats(-2, 2)) for _ in range(g.n)],
    )


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(constant_exact_scenarios())
def test_exact_windows_are_exact_once_the_cascade_spans_the_diameter(sc):
    """The cascade's bound: a window whose depth covers its reported diameter
    has error exactly 0 from offset delta + 1 on, under constant inputs."""
    res = run(sc)
    for row in res.summary["windows"]:
        assert row["bounds"]["assumptions_ok"] == (sc.params.delta >= row["diameter"])
        if row["bounds"]["assumptions_ok"]:
            assert not res.trace.errors[row["start"] + sc.params.delta + 1 : row["end"] + 1].any()


@st.composite
def bounded_slope_scenarios(draw):
    """A consensus scenario whose inputs move by at most a drawn ``pi`` a
    tick, one signal a slot: piecewise linear, sinusoid, clamped walk, or a
    constant from the grid with both zeros.  At ``pi = 0`` every signal holds
    still.  An approximate run decays by more than ``pi``.  Agents start
    from their inputs: states drawn below them break the bounds, as
    :func:`test_states_that_start_below_the_inputs_meet_the_bounds` shows."""
    g = draw(graphs((1, 16)))
    mode = draw(st.sampled_from(["max", "min"]))
    exact = draw(st.booleans())
    delta = draw(st.integers(0, 5)) if exact else None
    horizon = draw(st.integers(8, 60))
    pi = draw(st.sampled_from([0.0, 0.01, 0.05]))

    def signal():
        kind = draw(st.sampled_from(["constant", "linear", "sinusoid", "walk"]))
        a = draw(st.sampled_from(GRID))
        rate = pi * draw(st.sampled_from([0.5, 1.0]))
        if kind == "constant":
            return Constant(a)
        if kind == "linear":
            first, length = draw(st.integers(0, horizon)), draw(st.integers(1, 20))
            rise = draw(st.sampled_from([-1.0, 1.0])) * rate * length
            return PiecewiseLinear(((first, a), (first + length, a + rise)))
        if kind == "sinusoid":
            period = draw(st.sampled_from([4.0, 9.5, 30.0]))
            return Sinusoid(rate * period / (2 * math.pi), period, draw(st.integers(0, 9)), a)
        lo = draw(st.sampled_from([None, -0.5, -0.0, 0.0]))
        return ClampedRandomWalk(rate, a, lo, draw(st.sampled_from([None, 0.0, 0.25, 0.5])))

    params = ProtocolParams(
        mode, "exact" if exact else "approximate", delta=delta,
        alpha=None if exact else pi + draw(st.sampled_from([0.01, 0.1, 0.5])),
        read_departing=draw(st.booleans()),
    )
    return make_scenario(
        name="drawn", kind="consensus", params=params, reference=g, horizon=horizon,
        seed=draw(st.integers(0, 2**16)), changes=draw(churn(g, horizon, max(delta or 0, 1), 20)),
        signals=tuple(signal() for _ in range(g.n)),
    )


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(bounded_slope_scenarios())
def test_windows_meet_the_bounds_on_inputs_of_bounded_slope(sc):
    """Every window whose assumptions hold decreases until its convergence
    time and stays inside its tracking band after it.  An approximate window
    whose inputs hold still and that reaches its convergence time ends
    within its steady band, ``alpha`` times the diameter."""
    res = run(sc)
    bits = sc.inputs.view(np.int64)
    for w, row in zip(sc.windows, res.summary["windows"]):
        bounds, audit = row["bounds"], row["empirical"]
        if bounds["assumptions_ok"]:
            assert audit["decrease_violations"] == audit["containment_violations"] == 0
        held = bits[w.start : w.end + 1, w.slots]
        if sc.params.variant == "approximate" and (held == held[0]).all():
            if audit["containment_audited"]:
                assert audit["final_error"] <= bounds["steady_bound"] + BAND_TOL


@pytest.mark.xfail(strict=True, reason="the approximate convergence time counts only the "
                   "overshoot of the initial states, not their undershoot")
def test_states_that_start_below_the_inputs_meet_the_bounds():
    """A line of 3 whose agents all start at -1 below inputs (1, 0, 0): the
    far end first hears of the maximum at tick 3, one past the reported
    convergence time ``d = 2``, so the error 1.0 at tick 2 leaves the band 0.2."""
    sc = make_scenario(
        name="undershoot", kind="consensus", params=ProtocolParams("max", "approximate", alpha=0.1),
        reference=NetworkSnapshot.from_edges([1, 2, 3], [(1, 2), (2, 3)]), horizon=10, seed=0,
        signals=(Constant(1.0), Constant(0.0), Constant(0.0)), initial_states=[-1.0] * 3,
    )
    (row,) = run(sc).summary["windows"]
    assert row["bounds"]["assumptions_ok"]
    assert row["empirical"]["containment_violations"] == 0
