"""Snapshot values, BFS metrics, generators, and text serialization."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openmax.graph import (
    NetworkSnapshot,
    barabasi_albert,
    diameter,
    induced_subgraph,
    is_connected,
    line_graph,
    snapshot_from_text,
    snapshot_to_text,
)

from util import (
    adjacency,
    floyd_warshall_diameter,
    hub_graph,
    is_connected_reference,
    layout_reference,
    random_connected_graph,
)


def test_edges_are_normalized_and_value_equal():
    a = NetworkSnapshot(frozenset({1, 2, 3}), frozenset({(2, 1), (3, 2)}))
    b = NetworkSnapshot(frozenset({3, 2, 1}), frozenset({(1, 2), (2, 3)}))
    assert a == b
    assert hash(a) == hash(b)
    assert a.edges == frozenset({(1, 2), (2, 3)})


def test_snapshot_rejects_self_loops_and_dangling_edges():
    with pytest.raises(ValueError):
        NetworkSnapshot(frozenset({1, 2}), frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        NetworkSnapshot(frozenset({1, 2}), frozenset({(1, 3)}))


def test_neighbors_sorted_and_exclude_self():
    g = line_graph(3)
    rows, levels = g.layout()
    assert rows.tolist() == [1, 0, 2]  # node 2 first, then the leaves in order
    assert [nbr.tolist() for nbr in levels] == [[0, 1, 1], [2]]
    assert adjacency(g) == {1: (2,), 2: (1, 3), 3: (2,)}


def test_connectivity():
    assert is_connected(line_graph(1).layout())
    assert is_connected(line_graph(4).layout())
    split = NetworkSnapshot(frozenset({1, 2, 3, 4}), frozenset({(1, 2), (3, 4)}))
    assert not is_connected(split.layout())
    assert not is_connected(line_graph(4).layout(np.zeros(4, dtype=bool)))
    assert not is_connected(line_graph(4).layout(np.array([True, False, True, True])))
    with pytest.raises(ValueError):
        diameter(line_graph(4).layout(np.zeros(4, dtype=bool)))


def test_diameter_examples():
    assert diameter(line_graph(6).layout()) == 5
    star = NetworkSnapshot(frozenset({1, 2, 3, 4}), frozenset({(1, 2), (1, 3), (1, 4)}))
    assert diameter(star.layout()) == 2
    assert diameter(line_graph(1).layout()) == 0
    split = NetworkSnapshot(frozenset({1, 2}), frozenset())
    assert diameter(split.layout()) == math.inf


def test_diameter_matches_floyd_warshall_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        g = random_connected_graph(rng, int(rng.integers(2, 10)))
        assert diameter(g.layout()) == floyd_warshall_diameter(g)
    # sizes around the 64-bit word boundaries of the bit-parallel search
    for n in (63, 64, 65, 129):
        for prob in (0.0, 2.0 / n, 0.3):
            g = random_connected_graph(rng, n, extra_edge_prob=prob)
            assert diameter(g.layout()) == floyd_warshall_diameter(g)
    g = random_connected_graph(rng, 64, extra_edge_prob=2.0 / 64)
    isolated = NetworkSnapshot(g.nodes | {65}, g.edges)
    h = random_connected_graph(rng, 65, extra_edge_prob=2.0 / 65)
    two = NetworkSnapshot(
        g.nodes | {v + 64 for v in h.nodes},
        g.edges | {(a + 64, b + 64) for a, b in h.edges},
    )
    single = NetworkSnapshot(frozenset({7}), frozenset())
    for g, want in ((isolated, math.inf), (two, math.inf), (single, 0), (hub_graph(), 4)):
        assert diameter(g.layout()) == want == floyd_warshall_diameter(g)


def test_degree_layout_rebuilds_adjacency_in_order():
    rng = np.random.default_rng(17)
    graphs = [NetworkSnapshot(frozenset({7}), frozenset()), hub_graph()]
    for _ in range(30):
        g = random_connected_graph(rng, int(rng.integers(2, 16)))
        extra = int(rng.integers(0, 3))  # isolated nodes
        graphs.append(NetworkSnapshot(g.nodes | set(range(20, 20 + extra)), g.edges))
    hub = graphs[1]
    graphs.append(NetworkSnapshot(hub.nodes | {30, 31}, hub.edges))
    for g in graphs:
        order, levels = g.layout()
        nodes, adj = g.sorted_nodes, adjacency(g)
        degree = [len(adj[v]) for v in nodes]
        assert list(order) == sorted(range(g.n), key=lambda k: -degree[k])
        rebuilt = {v: [] for v in nodes}
        for nbr in levels:
            for k, j in zip(order, nbr):  # each level is a prefix of order
                rebuilt[nodes[k]].append(nodes[j])
        assert {v: tuple(r) for v, r in rebuilt.items()} == adj
        assert not any(a.flags.writeable for a in (order, *levels))


def test_line_graph_shape():
    g = line_graph(6)
    assert g.n == 6
    assert len(g.edges) == 5
    single = line_graph(1)
    assert single.nodes == frozenset({1})
    assert not single.edges


def test_barabasi_albert_grows_connected_graph():
    rng = np.random.default_rng(7)
    g, order = barabasi_albert(line_graph(5), 100, 2, rng)
    assert g.n == 100
    assert is_connected(g.layout())
    assert order[:5] == (1, 2, 3, 4, 5)
    assert len(order) == 100
    assert list(order) == sorted(order)  # generated ids are assigned in order
    # every generated node attaches to 2 distinct earlier nodes
    for node in order[5:]:
        below = [e for e in g.edges if max(e) == node]
        assert len(below) == 2


def test_barabasi_albert_deterministic_given_seed():
    a, _ = barabasi_albert(line_graph(5), 40, 2, np.random.default_rng(11))
    b, _ = barabasi_albert(line_graph(5), 40, 2, np.random.default_rng(11))
    assert a == b


def test_barabasi_albert_attachment_is_degree_proportional():
    # path 1-2-3 has degrees (1, 2, 1): one new node with one edge picks the
    # middle node with probability 1/2
    trials = 4000
    rng = np.random.default_rng(99)
    hits = 0
    for _ in range(trials):
        g, _ = barabasi_albert(line_graph(3), 4, 1, rng)
        if (2, 4) in g.edges:
            hits += 1
    freq = hits / trials
    sigma = math.sqrt(0.25 / trials)
    assert abs(freq - 0.5) < 3 * sigma


def test_churn_memory_round_trip():
    # a node that leaves and returns gets back every reference edge it had
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(3, 9)))
        node = int(rng.choice(g.sorted_nodes))
        reduced = induced_subgraph(g, g.nodes - {node})
        assert node not in reduced.nodes
        assert all(node not in e for e in reduced.edges)
        restored = induced_subgraph(g, reduced.nodes | {node})
        assert restored == g


def test_churn_memory_restores_only_active_endpoints():
    g = NetworkSnapshot(frozenset({1, 2, 3}), frozenset({(1, 2), (2, 3)}))
    g1 = induced_subgraph(g, {1, 3})  # 2 leaves: 1-2 and 2-3 go off
    assert g1.edges == frozenset()
    g2 = induced_subgraph(g, {1})  # 3 leaves too
    g3 = induced_subgraph(g, g2.nodes | {2})  # 2 returns
    assert g3.nodes == frozenset({1, 2})
    assert g3.edges == frozenset({(1, 2)})  # 2-3 stays off while 3 is inactive
    with pytest.raises(ValueError):
        induced_subgraph(g2, {1, 2})  # a node outside the snapshot has no edges to restore


def test_snapshot_text_round_trip_keeps_isolated_nodes():
    g = NetworkSnapshot(frozenset({1, 2, 3, 7}), frozenset({(1, 2), (2, 3)}))
    text = snapshot_to_text(g)
    assert text.splitlines()[0] == "nodes: 1 2 3 7"
    assert snapshot_from_text(text) == g


def test_snapshot_text_parse_errors():
    with pytest.raises(ValueError):
        snapshot_from_text("1 2\n")  # no nodes: header
    with pytest.raises(ValueError):
        snapshot_from_text("nodes: 1 2\n1 2 3\n")


@st.composite
def masked_graphs(draw) -> tuple[NetworkSnapshot, np.ndarray]:
    """A graph on at most 12 nodes, connected or not, and a position mask over it.

    A random connected graph loses a drawn subset of its edges and of its
    nodes (at least one node stays), so node ids have gaps and positions
    differ from ids."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_connected_graph(rng, n, extra_edge_prob=draw(st.sampled_from([0.0, 0.25, 0.6])))
    edges = sorted(g.edges)
    cut = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    gone = draw(st.sets(st.sampled_from(g.sorted_nodes), max_size=n - 1))
    g = induced_subgraph(
        NetworkSnapshot(g.nodes, [e for e, c in zip(edges, cut) if not c]), g.nodes - gone
    )
    keep = np.array(draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n)), dtype=bool)
    return g, keep


@settings(max_examples=250, derandomize=True, deadline=None)
@given(masked_graphs())
def test_masked_layout_equals_the_induced_subgraph(case):
    """Layout, connectivity, diameter and text of ``g`` under a mask are those
    of the induced subgraph, computed by definition."""
    g, keep = case
    kept = [v for v, k in zip(g.sorted_nodes, keep) if k]
    h = induced_subgraph(g, kept)
    for mask, nodes in ((keep, kept), (None, g.sorted_nodes)):
        rows, levels = g.layout(mask)
        assert (rows.tolist(), [nbr.tolist() for nbr in levels]) == layout_reference(g, nodes)
    layout = g.layout(keep)
    assert is_connected(layout) == is_connected_reference(h)
    if kept:
        assert diameter(layout) == floyd_warshall_diameter(h)
    else:
        with pytest.raises(ValueError):
            diameter(layout)
    text = f"nodes: {' '.join(map(str, kept))}\n" + "".join(f"{u} {v}\n" for u, v in sorted(h.edges))
    assert snapshot_to_text(g, keep) == snapshot_to_text(h) == text
