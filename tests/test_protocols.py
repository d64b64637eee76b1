"""Protocol step semantics on slot arrays: hand values, oracles, the min mirror,
and the open-network rules of the engine that drives the kernels."""

from __future__ import annotations

import numpy as np
import pytest

from openmax.graph import NetworkSnapshot, diameter, line_graph
import openmax.simulator as simulator
from openmax.protocols import ProtocolParams, admc_kernel, edmc_kernel, edmc_window
from openmax.signals import Constant, PiecewiseLinear
from openmax.simulator import make_scenario, run

from util import (
    adjacency,
    admc_step_reference,
    as_masks,
    edge_set,
    edmc_step_reference,
    exact_kernel_calls,
    hub_graph,
    line4_churn_scenario,
    negated_signals,
    random_connected_graph,
    record_exact_kernel_calls,
    reference_outputs,
    same_bits,
    signal_inputs,
    trace_row,
)

MAX_APPROX = ProtocolParams("max", "approximate", alpha=0.1)


def exact_params(delta: int, mode: str = "max") -> ProtocolParams:
    return ProtocolParams(mode, "exact", delta=delta)


def admc(g: NetworkSnapshot, x, u, alpha: float) -> np.ndarray:
    """One approximate step of slot arrays; row ``k`` is ``g.ids[k]``."""
    X = np.array(x, dtype=float)
    admc_kernel(X, np.asarray(u, dtype=float), g.layout(), alpha)
    return X


def edmc(g: NetworkSnapshot, x, u) -> np.ndarray:
    """One exact step of slot arrays; row ``k`` is ``g.ids[k]``."""
    X = np.array(x, dtype=float)
    edmc_kernel(X, np.asarray(u, dtype=float), g.layout())
    return X


def closed_slots(g: NetworkSnapshot, k: int) -> list[int]:
    """Slot ``k`` and the slots of its neighbours."""
    nodes = g.ids.tolist()
    return [k, *(nodes.index(j) for j in adjacency(g)[nodes[k]])]


def run_constant(params, reference, levels, horizon, initial=None, changes=()):
    """A run with constant inputs ``levels``, from ``initial`` states if given,
    through ``changes`` given as ``(tick, active node ids)`` pairs; ``levels``
    and ``initial`` map agent ids to values, passed on in slot order."""
    return run(make_scenario(
        name="hand",
        kind="consensus",
        params=params,
        reference=reference,
        horizon=horizon,
        seed=0,
        changes=as_masks(reference, changes),
        signals=tuple(Constant(levels[i]) for i in reference.ids.tolist()),
        initial_states=None if initial is None else [initial[i] for i in reference.ids.tolist()],
    ))


def outputs_at(res, k: int) -> dict[int, float]:
    return trace_row(res, res.trace.outputs, k)


def cascade_oracle(adj, u_of, init, i, level, k, memo):
    """Definition-level recursion for the exact cascade, independent of the step code."""
    key = (i, level, k)
    if key in memo:
        return memo[key]
    if k == 0:
        v = init[i][level]
    elif level == 0:
        v = u_of(i, k - 1)
    else:
        v = cascade_oracle(adj, u_of, init, i, level - 1, k - 1, memo)
        for j in adj[i]:
            v = max(v, cascade_oracle(adj, u_of, init, j, level - 1, k - 1, memo))
    memo[key] = v
    return v


def test_params_validation():
    with pytest.raises(ValueError):
        ProtocolParams("sum", "approximate", alpha=0.1)
    with pytest.raises(ValueError):
        ProtocolParams("max", "gossip", alpha=0.1)
    with pytest.raises(ValueError):
        ProtocolParams("max", "approximate")  # missing alpha
    with pytest.raises(ValueError):
        ProtocolParams("max", "approximate", alpha=1.0)
    with pytest.raises(ValueError):
        ProtocolParams("max", "approximate", alpha=0.1, delta=3)
    with pytest.raises(ValueError):
        ProtocolParams("max", "exact")  # missing delta
    with pytest.raises(ValueError):
        ProtocolParams("max", "exact", delta=-1)
    with pytest.raises(ValueError):
        ProtocolParams("max", "exact", delta=3, alpha=0.1)
    with pytest.raises(ValueError, match="delta must be a nonnegative integer"):
        ProtocolParams("max", "exact", delta=5.0)
    with pytest.raises(ValueError, match="delta must be a nonnegative integer"):
        ProtocolParams("max", "exact", delta=True)
    assert type(ProtocolParams("max", "exact", delta=np.int64(3)).delta) is int


def test_init_resume_and_output():
    """An agent starts from its input or from a prescribed state.  A cascade
    holds its input on level 0 and the start value on every level above, and
    exposes its top level."""

    def outputs(params, u, initial=None):
        start = None if initial is None else {1: initial}
        res = run_constant(params, line_graph(1), {1: u}, 3, start)
        return res.trace.outputs[:, 0].tolist()

    assert outputs(MAX_APPROX, 0.5) == [0.5] * 4
    assert outputs(MAX_APPROX, 0.2, initial=0.9)[:2] == [0.9, pytest.approx(0.8)]
    assert outputs(exact_params(2), 0.7) == [0.7] * 4
    # the cascade [0.2, 1.6, 1.6] shifts the input up to its top in two ticks
    assert outputs(exact_params(2), 0.2, initial=1.6) == [1.6, 1.6, 0.2, 0.2]


def test_admc_isolated_agent_decays_toward_input():
    g = line_graph(1)
    assert admc(g, [1.0], [0.5], alpha=0.1)[0] == pytest.approx(0.9, abs=1e-15)
    # once the decayed value falls below the input, the input takes over
    assert admc(g, [0.55], [0.5], alpha=0.1)[0] == pytest.approx(0.5, abs=1e-15)


def test_admc_two_agents_share_the_max():
    out = admc(line_graph(2), [2.0, 0.0], [0.2, 0.2], alpha=0.03)
    assert out[0] == pytest.approx(1.97, abs=1e-15)
    assert out[1] == pytest.approx(1.97, abs=1e-15)


def test_edmc_single_agent_shifts_and_loads_input():
    out = edmc(line_graph(1), [[1.0, 2.0, 3.0]], [0.7])
    assert list(out[0]) == [0.7, 1.0, 2.0]


def test_edmc_cascade_matches_definition_oracle():
    rng = np.random.default_rng(314)
    for _ in range(6):
        n = int(rng.integers(2, 6))
        g = random_connected_graph(rng, n)
        delta = int(rng.integers(1, 5))
        table = rng.uniform(-1, 1, size=(n + 1, 12))
        u_of = lambda i, k: float(table[i, min(k, 11)])
        nodes, adj = g.ids.tolist(), adjacency(g)
        X = np.array([[u_of(i, 0)] * (delta + 1) for i in nodes])
        init = dict(zip(nodes, map(tuple, X)))
        memo: dict = {}
        for k in range(1, 10):
            X = edmc(g, X, [u_of(i, k - 1) for i in nodes])
            for s, i in enumerate(nodes):
                for level in range(delta + 1):
                    want = cascade_oracle(adj, u_of, init, i, level, k, memo)
                    assert X[s, level] == want


def test_exact_delay_identity_on_static_graphs():
    rng = np.random.default_rng(2718)
    for _ in range(8):
        n = int(rng.integers(2, 7))
        g = random_connected_graph(rng, n)
        delta = int(diameter(g.layout())) + int(rng.integers(0, 2))
        table = rng.uniform(-5, 5, size=(n + 1, 30))
        u_of = lambda i, k: float(table[i, min(k, 29)])
        nodes = g.ids.tolist()
        # resume from arbitrary values: the identity must hold regardless
        X = np.empty((n, delta + 1))
        for s, i in enumerate(nodes):
            X[s, 1:] = float(rng.uniform(-9, 9))
            X[s, 0] = u_of(i, 0)
        for k in range(1, 25):
            X = edmc(g, X, [u_of(i, k - 1) for i in nodes])
            if k >= delta + 1:
                want = max(u_of(j, k - delta - 1) for j in nodes)
                assert (X[:, -1] == want).all()


def test_min_steps_are_exact_mirrors():
    """Negating the max kernels' inputs and outputs gives the min protocols."""
    rng = np.random.default_rng(99)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        g = random_connected_graph(rng, n)
        alpha = float(rng.uniform(0.01, 0.5))
        x = rng.uniform(-3, 3, size=n)
        u = rng.uniform(-3, 3, size=n)
        hi = admc(g, -x, -u, alpha)
        for s in range(n):
            worst = min(x[closed_slots(g, s)])
            assert -hi[s] == min(worst + alpha, u[s])

        cx = np.stack([x, x + 1, x - 2], axis=1)
        hi_c = edmc(g, -cx, -u)
        for s in range(n):
            lows = cx[closed_slots(g, s), :-1].min(axis=0)
            assert np.array_equal(-hi_c[s], np.concatenate(([u[s]], lows)))


def test_open_step_without_change_equals_closed_step():
    g = line_graph(4)
    x = {i: float(i) for i in g.ids.tolist()}
    u = {i: 0.0 for i in g.ids.tolist()}
    got = outputs_at(run_constant(MAX_APPROX, g, u, 1, x), 1)
    assert list(got.values()) == admc(g, list(x.values()), list(u.values()), 0.1).tolist()


def test_open_step_leaf_departure_reads_last_state():
    res = run_constant(MAX_APPROX, line_graph(3), dict.fromkeys((1, 2, 3), 0.2), 1,
                       {1: 0.0, 2: 0.5, 3: 2.0}, [(1, {1, 2})])
    out = outputs_at(res, 1)
    assert set(out) == {1, 2}
    assert out[1] == pytest.approx(0.4, abs=1e-15)
    assert out[2] == pytest.approx(1.9, abs=1e-15)  # departing neighbor still read


def test_open_step_can_exclude_departing_reads():
    params = ProtocolParams("max", "approximate", alpha=0.1, read_departing=False)
    res = run_constant(params, line_graph(3), dict.fromkeys((1, 2, 3), 0.2), 1,
                       {1: 0.0, 2: 0.5, 3: 2.0}, [(1, {1, 2})])
    out = outputs_at(res, 1)
    assert out[2] == pytest.approx(0.4, abs=1e-15)  # node 3's state is ignored


def test_open_step_arrivals_start_from_their_input():
    # node 3 leaves at tick 1, while 1 and 2 step from 5.1 to 5.0, and returns at tick 2
    res = run_constant(MAX_APPROX, line_graph(3), {1: 0.2, 2: 0.2, 3: -0.7}, 2,
                       dict.fromkeys((1, 2, 3), 5.1), [(1, {1, 2}), (2, {1, 2, 3})])
    out = outputs_at(res, 2)
    assert out[3] == -0.7  # no neighborhood reads on the arrival tick
    assert out[1] == pytest.approx(4.9)


def test_open_step_full_replacement():
    reference = NetworkSnapshot.from_edges([1, 2, 5, 6], [(1, 2), (2, 5), (5, 6)])
    res = run_constant(MAX_APPROX, reference, {1: 0.0, 2: 0.0, 5: 0.3, 6: 0.4}, 2,
                       dict.fromkeys((1, 2, 5, 6), 9.0), [(1, {1, 2}), (2, {5, 6})])
    assert outputs_at(res, 2) == {5: 0.3, 6: 0.4}


def test_updates_are_synchronous():
    out = admc(line_graph(3), [5.0, 0.0, 0.0], [-10.0] * 3, alpha=0.5)
    assert out[0] == 4.5
    assert out[1] == 4.5
    assert out[2] == -0.5  # reads the old state of 2, not the new one


def test_anonymity_under_relabeling():
    """Relabelling the agents and moving their rows with them changes no state."""
    rng = np.random.default_rng(55)
    for _ in range(8):
        n = int(rng.integers(2, 8))
        g = random_connected_graph(rng, n)
        perm = {old: new for old, new in zip(g.ids.tolist(), rng.permutation(g.ids.tolist()))}
        h = NetworkSnapshot.from_edges(
            [perm[v] for v in g.ids.tolist()], [(perm[a], perm[b]) for a, b in edge_set(g)]
        )
        x = rng.uniform(-2, 2, size=n)
        u = rng.uniform(-2, 2, size=n)
        out_g = admc(g, x, u, 0.2)
        # node perm[i] of h keeps the row of node i of g
        row = {perm[i]: s for s, i in enumerate(g.ids.tolist())}
        out_h = x.copy()
        slots = np.array([row[v] for v in h.ids.tolist()])
        rows, levels = h.layout()
        admc_kernel(out_h, u, (slots[rows], [slots[nbr] for nbr in levels]), 0.2)
        assert np.array_equal(out_h, out_g)


def test_vector_states_run_coordinates_independently():
    rng = np.random.default_rng(123)
    g = random_connected_graph(rng, 5)
    p = 3
    u_vec = rng.uniform(0, 1, size=(g.n, p))

    vec_states = u_vec.copy()
    for _ in range(6):
        vec_states = admc(g, vec_states, u_vec, 0.1)
    for c in range(p):
        states = u_vec[:, c]
        for _ in range(6):
            states = admc(g, states, u_vec[:, c], 0.1)
        assert np.array_equal(vec_states[:, c], states)

    vec_states = np.repeat(u_vec[:, None, :], 3, axis=1)
    for _ in range(6):
        vec_states = edmc(g, vec_states, u_vec)
    for c in range(p):
        states = np.repeat(u_vec[:, c, None], 3, axis=1)
        for _ in range(6):
            states = edmc(g, states, u_vec[:, c])
        assert np.array_equal(vec_states[:, :, c], states)


def test_kernels_match_per_agent_reference_bit_for_bit():
    """Scalar and p=3 vector states on a grid of quarters that includes both
    zeros, so decayed values and inputs tie at +0.0/-0.0.  The last ten trials
    run on a hub graph, whose degree layout has many short levels."""
    rng = np.random.default_rng(8)
    grid = np.array([-0.5, -0.25, -0.0, 0.0, 0.25, 0.5])
    zeros = set()
    for trial in range(50):
        g = random_connected_graph(rng, int(rng.integers(1, 9))) if trial < 40 else hub_graph()
        shape = () if trial % 2 else (3,)
        nodes = g.ids.tolist()

        def per_agent(X):
            return dict(zip(nodes, X.tolist() if X.ndim == 1 else X))

        x = rng.choice(grid, size=(g.n, *shape))
        u = rng.choice(grid, size=(g.n, *shape))
        want = admc_step_reference(g, per_agent(x), per_agent(u), 0.25)
        assert same_bits(per_agent(admc(g, x, u, 0.25)), want)
        zeros.update(bool(np.signbit(v)) for w in want.values() for v in np.ravel(w) if v == 0)
        cascades = rng.choice(grid, size=(g.n, 3, *shape))
        want = edmc_step_reference(g, per_agent(cascades), per_agent(u))
        assert same_bits(per_agent(edmc(g, cascades, u)), want)
    assert zeros == {False, True}


def test_edmc_kernel_from_a_start_level_folds_only_the_levels_above_it():
    """Levels above ``start`` get the full step's bits, level 0 the inputs,
    and levels ``1..start`` keep theirs; on random graphs and a hub graph,
    scalar and p=3 cascades, over a grid with both zeros."""
    rng = np.random.default_rng(12)
    grid = np.array([-0.5, -0.25, -0.0, 0.0, 0.25, 0.5])
    for trial in range(30):
        g = random_connected_graph(rng, int(rng.integers(1, 9))) if trial < 24 else hub_graph()
        shape = () if trial % 2 else (3,)
        delta = int(rng.integers(1, 6))
        X = rng.choice(grid, size=(g.n, delta + 1, *shape))
        u = rng.choice(grid, size=(g.n, *shape))
        full = edmc(g, X, u).view(np.int64)
        for start in range(delta):
            part = X.copy()
            edmc_kernel(part, u, g.layout(), start)
            part = part.view(np.int64)
            assert np.array_equal(part[:, start + 1 :], full[:, start + 1 :])
            assert np.array_equal(part[:, 1 : start + 1], X[:, 1 : start + 1].view(np.int64))
            assert np.array_equal(part[:, 0], u.view(np.int64))


def test_edmc_window_equals_that_many_kernel_steps_bit_for_bit():
    """The top series at the layout's rows and the final cascades of a block
    equal those of ``len(U)`` :func:`edmc_kernel` steps, through int64 views;
    on random graphs and a hub graph, each whole, under a random mask and
    under a random mask without its highest slot, scalar and p=3 cascades of
    depth 0-5 from random starting levels, over a grid with both zeros, for
    every block length up to 8 steps."""
    rng = np.random.default_rng(13)
    grid = np.array([-0.5, -0.25, -0.0, 0.0, 0.25, 0.5])
    for trial in range(30):
        g = random_connected_graph(rng, int(rng.integers(1, 9))) if trial < 24 else hub_graph()
        shape = () if trial % 2 else (3,)
        masked = rng.random((2, g.n)) < 0.7
        masked[1, -1] = False
        for keep in (np.ones(g.n, dtype=bool), *masked):
            layout = g.layout(keep)
            rows = layout[0]
            X = rng.choice(grid, size=(g.n, int(rng.integers(1, 7)), *shape))
            U = rng.choice(grid, size=(8, g.n, *shape))
            for steps in range(1, len(U) + 1):
                stepped, tops = X.copy(), [X[:, -1]]  # by slot, as the series
                for u in U[:steps]:
                    edmc_kernel(stepped, u, layout)
                    tops.append(stepped[:, -1].copy())
                folded = X.copy()
                series = edmc_window(folded, U[:steps], layout)
                assert series.shape == (steps + 1, *X[:, -1].shape)
                want = np.array(tops)[:, rows]
                assert np.array_equal(series[:, rows].view(np.int64), want.view(np.int64))
                assert np.array_equal(folded.view(np.int64), stepped.view(np.int64))


# every agent moves every tick, across zero and through both signs of it
LINE4_MOVERS = (
    PiecewiseLinear(((0, -0.3), (30, 0.3))),
    PiecewiseLinear(((0, 0.6), (30, -0.6))),
    PiecewiseLinear(((0, -0.0), (12, 0.24), (30, 0.0))),
    PiecewiseLinear(((0, 0.9), (30, -0.9))),
)


@pytest.mark.parametrize("cells", [1, 8, 13])
@pytest.mark.parametrize("read_departing", [True, False])
@pytest.mark.parametrize("mode", ["max", "min"])
def test_moving_exact_windows_split_into_blocks_match_the_oracle(
    mode, read_departing, cells, monkeypatch
):
    """With a cell budget of a few steps per block, every window of the
    line-4 churn scenario folds in several blocks, and the outputs still
    match the per-agent oracle bit for bit."""
    monkeypatch.setattr(simulator, "BLOCK_CELLS", cells)
    signals = LINE4_MOVERS
    if mode == "min":
        signals = negated_signals(signals)
    params = ProtocolParams(mode, "exact", delta=3, read_departing=read_departing)
    sc = line4_churn_scenario(params=params, signals=signals)
    assert all(max(1, cells // len(w.slots)) < w.end - w.start for w in sc.windows)
    calls = record_exact_kernel_calls(monkeypatch)
    res = run(sc)
    assert calls == exact_kernel_calls(sc)
    sign = 1.0 if mode == "max" else -1.0
    want = reference_outputs(sc, signal_inputs(sc, signals, sign))
    for k in range(len(want)):
        got = trace_row(res, res.trace.outputs, k)
        assert same_bits(got, {i: sign * v for i, v in want[k].items()}), k
