"""Protocol step semantics: hand values, oracles, the min mirror, open-network rules."""

from __future__ import annotations

import numpy as np
import pytest

from openmax.graph import NetworkSnapshot, line_graph, neighbors
from openmax.protocols import (
    ProtocolParams,
    admc_step,
    edmc_step,
    init_agent,
    open_step,
    output,
    resume_agent,
    step,
)

from util import (
    admc_step_reference,
    edmc_step_reference,
    hub_graph,
    random_connected_graph,
    same_bits,
)

MAX_APPROX = ProtocolParams("max", "approximate", alpha=0.1)


def exact_params(delta: int, mode: str = "max") -> ProtocolParams:
    return ProtocolParams(mode, "exact", delta=delta)


def cascade_oracle(g, u_of, init, i, level, k, memo):
    """Definition-level recursion for the exact cascade, independent of the step code."""
    key = (i, level, k)
    if key in memo:
        return memo[key]
    if k == 0:
        v = init[i][level]
    elif level == 0:
        v = u_of(i, k - 1)
    else:
        v = cascade_oracle(g, u_of, init, i, level - 1, k - 1, memo)
        for j in neighbors(g, i):
            v = max(v, cascade_oracle(g, u_of, init, j, level - 1, k - 1, memo))
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


def test_init_resume_and_output():
    assert init_agent(MAX_APPROX, 0.5) == 0.5
    assert isinstance(init_agent(MAX_APPROX, 0.5), float)
    cas = init_agent(exact_params(2), 0.7)
    assert cas.shape == (3,)
    assert np.all(cas == 0.7)
    resumed = resume_agent(exact_params(2), 1.6, 0.2)
    assert list(resumed) == [0.2, 1.6, 1.6]
    assert output(exact_params(2), resumed) == 1.6
    assert output(MAX_APPROX, 0.9) == 0.9
    vec = init_agent(exact_params(1), np.array([0.1, 0.4]))
    assert vec.shape == (2, 2)


def test_admc_isolated_agent_decays_toward_input():
    g = line_graph(1)
    out = admc_step(g, {1: 1.0}, {1: 0.5}, alpha=0.1)
    assert out[1] == pytest.approx(0.9, abs=1e-15)
    # once the decayed value falls below the input, the input takes over
    out = admc_step(g, {1: 0.55}, {1: 0.5}, alpha=0.1)
    assert out[1] == pytest.approx(0.5, abs=1e-15)


def test_admc_two_agents_share_the_max():
    g = line_graph(2)
    out = admc_step(g, {1: 2.0, 2: 0.0}, {1: 0.2, 2: 0.2}, alpha=0.03)
    assert out[1] == pytest.approx(1.97, abs=1e-15)
    assert out[2] == pytest.approx(1.97, abs=1e-15)


def test_admc_missing_state_errors():
    g = line_graph(2)
    with pytest.raises(KeyError):
        admc_step(g, {1: 0.0}, {1: 0.0, 2: 0.0}, alpha=0.1)
    with pytest.raises(KeyError):
        admc_step(g, {1: 0.0, 2: 0.0}, {2: 0.0}, alpha=0.1)
    with pytest.raises(ValueError):
        admc_step(g, {1: 0.0, 2: 0.0}, {1: 0.0, 2: 0.0}, alpha=1.5)


def test_edmc_single_agent_shifts_and_loads_input():
    g = line_graph(1)
    state = {1: np.array([1.0, 2.0, 3.0])}
    out = edmc_step(g, state, {1: 0.7})
    assert list(out[1]) == [0.7, 1.0, 2.0]


def test_edmc_cascade_matches_definition_oracle():
    rng = np.random.default_rng(314)
    for _ in range(6):
        n = int(rng.integers(2, 6))
        g = random_connected_graph(rng, n)
        delta = int(rng.integers(1, 5))
        params = exact_params(delta)
        table = rng.uniform(-1, 1, size=(n + 1, 12))
        u_of = lambda i, k: float(table[i, min(k, 11)])
        states = {i: init_agent(params, u_of(i, 0)) for i in g.sorted_nodes}
        init = {i: tuple(states[i]) for i in g.sorted_nodes}
        memo: dict = {}
        for k in range(1, 10):
            states = edmc_step(g, states, {i: u_of(i, k - 1) for i in g.sorted_nodes})
            for i in g.sorted_nodes:
                for level in range(delta + 1):
                    want = cascade_oracle(g, u_of, init, i, level, k, memo)
                    assert states[i][level] == want


def test_exact_delay_identity_on_static_graphs():
    rng = np.random.default_rng(2718)
    from openmax.graph import diameter

    for _ in range(8):
        n = int(rng.integers(2, 7))
        g = random_connected_graph(rng, n)
        delta = int(diameter(g)) + int(rng.integers(0, 2))
        params = exact_params(delta)
        table = rng.uniform(-5, 5, size=(n + 1, 30))
        u_of = lambda i, k: float(table[i, min(k, 29)])
        # resume from arbitrary values: the identity must hold regardless
        states = {
            i: resume_agent(params, float(rng.uniform(-9, 9)), u_of(i, 0))
            for i in g.sorted_nodes
        }
        for k in range(1, 25):
            states = edmc_step(g, states, {i: u_of(i, k - 1) for i in g.sorted_nodes})
            if k >= delta + 1:
                want = max(u_of(j, k - delta - 1) for j in g.sorted_nodes)
                for i in g.sorted_nodes:
                    assert output(params, states[i]) == want


def test_min_steps_are_exact_mirrors():
    """Negating the max kernels' inputs and outputs gives the min protocols."""
    rng = np.random.default_rng(99)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        g = random_connected_graph(rng, n)
        alpha = float(rng.uniform(0.01, 0.5))
        x = {i: float(rng.uniform(-3, 3)) for i in g.sorted_nodes}
        u = {i: float(rng.uniform(-3, 3)) for i in g.sorted_nodes}
        neg_x = {i: -v for i, v in x.items()}
        neg_u = {i: -v for i, v in u.items()}
        hi = admc_step(g, neg_x, neg_u, alpha)
        for i in g.sorted_nodes:
            worst = min([x[i]] + [x[j] for j in neighbors(g, i)])
            assert -hi[i] == min(worst + alpha, u[i])

        cx = {i: np.array([x[i], x[i] + 1, x[i] - 2]) for i in g.sorted_nodes}
        hi_c = edmc_step(g, {i: -cx[i] for i in g.sorted_nodes}, neg_u)
        for i in g.sorted_nodes:
            lows = np.min([cx[j][:-1] for j in (i, *neighbors(g, i))], axis=0)
            assert np.array_equal(-hi_c[i], np.concatenate(([u[i]], lows)))


def test_step_dispatch_matches_direct_calls():
    g = line_graph(3)
    x = {1: 0.0, 2: 1.0, 3: -1.0}
    u = {1: 0.1, 2: 0.1, 3: 0.1}
    assert step(MAX_APPROX, g, x, u) == admc_step(g, x, u, 0.1)
    cx = {i: init_agent(exact_params(2), v) for i, v in x.items()}
    got = step(exact_params(2), g, cx, u)
    want = edmc_step(g, cx, u)
    assert all(np.array_equal(got[i], want[i]) for i in g.sorted_nodes)
    # min mode runs through the simulator's negation mirror, never the kernels
    with pytest.raises(ValueError):
        step(ProtocolParams("min", "approximate", alpha=0.1), g, x, u)
    with pytest.raises(ValueError):
        step(exact_params(2, mode="min"), g, cx, u)


def test_open_step_without_change_equals_closed_step():
    g = line_graph(4)
    x = {i: float(i) for i in g.sorted_nodes}
    u = {i: 0.0 for i in g.sorted_nodes}
    assert open_step(MAX_APPROX, g, g, x, u, u) == step(MAX_APPROX, g, x, u)


def test_open_step_leaf_departure_reads_last_state():
    g_now = line_graph(3)
    g_next = line_graph(2)
    x = {1: 0.0, 2: 0.5, 3: 2.0}
    u = {i: 0.2 for i in (1, 2, 3)}
    out = open_step(MAX_APPROX, g_now, g_next, x, u, u)
    assert set(out) == {1, 2}
    assert out[1] == pytest.approx(0.4, abs=1e-15)
    assert out[2] == pytest.approx(1.9, abs=1e-15)  # departing neighbor still read


def test_open_step_can_exclude_departing_reads():
    params = ProtocolParams("max", "approximate", alpha=0.1, read_departing=False)
    g_now = line_graph(3)
    g_next = line_graph(2)
    x = {1: 0.0, 2: 0.5, 3: 2.0}
    u = {i: 0.2 for i in (1, 2, 3)}
    out = open_step(params, g_now, g_next, x, u, u)
    assert out[2] == pytest.approx(0.4, abs=1e-15)  # node 3's state is ignored


def test_open_step_arrivals_start_from_their_input():
    g_now = line_graph(2)
    g_next = line_graph(3)
    x = {1: 5.0, 2: 5.0}
    u_now = {1: 0.2, 2: 0.2}
    u_next = {1: 0.2, 2: 0.2, 3: -0.7}
    out = open_step(MAX_APPROX, g_now, g_next, x, u_now, u_next)
    assert out[3] == -0.7  # no neighborhood reads on the arrival tick
    assert out[1] == pytest.approx(4.9)
    with pytest.raises(KeyError):
        open_step(MAX_APPROX, g_now, g_next, x, u_now, {1: 0.2, 2: 0.2})


def test_open_step_full_replacement():
    g_now = line_graph(2)
    g_next = NetworkSnapshot(frozenset({5, 6}), frozenset({(5, 6)}))
    x = {1: 9.0, 2: 9.0}
    out = open_step(MAX_APPROX, g_now, g_next, x, {1: 0.0, 2: 0.0}, {5: 0.3, 6: 0.4})
    assert out == {5: 0.3, 6: 0.4}


def test_updates_are_synchronous():
    g = line_graph(3)
    x = {1: 5.0, 2: 0.0, 3: 0.0}
    u = {i: -10.0 for i in (1, 2, 3)}
    out = admc_step(g, x, u, alpha=0.5)
    assert out[1] == 4.5
    assert out[2] == 4.5
    assert out[3] == -0.5  # reads the old state of 2, not the new one


def test_anonymity_under_relabeling():
    rng = np.random.default_rng(55)
    for _ in range(8):
        n = int(rng.integers(2, 8))
        g = random_connected_graph(rng, n)
        perm = {old: new for old, new in zip(g.sorted_nodes, rng.permutation(g.sorted_nodes))}
        h = NetworkSnapshot(
            frozenset(perm[v] for v in g.nodes),
            frozenset((perm[a], perm[b]) for a, b in g.edges),
        )
        x = {i: float(rng.uniform(-2, 2)) for i in g.sorted_nodes}
        u = {i: float(rng.uniform(-2, 2)) for i in g.sorted_nodes}
        out_g = admc_step(g, x, u, 0.2)
        out_h = admc_step(
            h,
            {perm[i]: x[i] for i in x},
            {perm[i]: u[i] for i in u},
            0.2,
        )
        assert all(out_h[perm[i]] == out_g[i] for i in g.sorted_nodes)


def test_vector_states_run_coordinates_independently():
    rng = np.random.default_rng(123)
    g = random_connected_graph(rng, 5)
    p = 3
    u_vec = {i: rng.uniform(0, 1, size=p) for i in g.sorted_nodes}

    params = MAX_APPROX
    vec_states = {i: init_agent(params, u_vec[i]) for i in g.sorted_nodes}
    for _ in range(6):
        vec_states = admc_step(g, vec_states, u_vec, 0.1)
    for c in range(p):
        scalar = {i: float(u_vec[i][c]) for i in g.sorted_nodes}
        states = dict(scalar)
        for _ in range(6):
            states = admc_step(g, states, scalar, 0.1)
        for i in g.sorted_nodes:
            assert vec_states[i][c] == states[i]

    exact = exact_params(2)
    vec_states = {i: init_agent(exact, u_vec[i]) for i in g.sorted_nodes}
    for _ in range(6):
        vec_states = edmc_step(g, vec_states, u_vec)
    for c in range(p):
        scalar = {i: float(u_vec[i][c]) for i in g.sorted_nodes}
        states = {i: init_agent(exact, scalar[i]) for i in g.sorted_nodes}
        for _ in range(6):
            states = edmc_step(g, states, scalar)
        for i in g.sorted_nodes:
            assert np.array_equal(vec_states[i][:, c], states[i])


def test_cascade_shape_mismatch_errors():
    g = line_graph(2)
    x = {1: np.zeros(3), 2: np.zeros(4)}
    with pytest.raises(ValueError):
        edmc_step(g, x, {1: 0.0, 2: 0.0})
    with pytest.raises(TypeError):
        edmc_step(g, {1: 0.0, 2: 0.0}, {1: 0.0, 2: 0.0})


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

        def draw(*lead):
            v = rng.choice(grid, size=(*lead, *shape))
            return float(v) if v.ndim == 0 else v

        x = {i: draw() for i in g.sorted_nodes}
        u = {i: draw() for i in g.sorted_nodes}
        want = admc_step_reference(g, x, u, 0.25)
        assert same_bits(admc_step(g, x, u, 0.25), want)
        zeros.update(bool(np.signbit(v)) for w in want.values() for v in np.ravel(w) if v == 0)
        cascades = {i: draw(3) for i in g.sorted_nodes}
        assert same_bits(edmc_step(g, cascades, u), edmc_step_reference(g, cascades, u))
    assert zeros == {False, True}
