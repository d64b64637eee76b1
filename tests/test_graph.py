"""Snapshot values, BFS metrics, generators, and text serialization."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from openmax.graph import (
    NetworkSnapshot,
    barabasi_albert,
    diameter,
    is_connected,
    line_graph,
    snapshot_from_text,
    snapshot_to_text,
)

from util import (
    adjacency,
    barabasi_albert_reference,
    edge_set,
    floyd_warshall_diameter,
    hub_graph,
    induced_subgraph,
    is_connected_reference,
    layout_reference,
    node_set,
    random_connected_graph,
    same_graph,
)


def test_edges_are_normalized_and_value_equal():
    a = NetworkSnapshot.from_edges([1, 2, 3], [(2, 1), (3, 2)])
    b = NetworkSnapshot.from_edges([3, 2, 1, 2], [(1, 2), (2, 3), (3, 2)])  # repeats merge
    assert same_graph(a, b)
    assert edge_set(a) == {(1, 2), (2, 3)}
    assert a.ids.dtype == np.int64 and a.ids.tolist() == [1, 2, 3]
    assert [half.tolist() for half in a.arcs] == [[0, 1, 1, 2], [1, 0, 2, 1]]
    assert not any(x.flags.writeable for x in (a.ids, *a.arcs))
    empty = NetworkSnapshot.from_edges([], [])
    assert empty.n == 0 and not edge_set(empty)


def test_snapshot_rejects_self_loops_and_dangling_edges():
    with pytest.raises(ValueError, match="self loop on node 1"):
        NetworkSnapshot.from_edges([1, 2], [(1, 1)])
    with pytest.raises(ValueError, match=r"edge \(1, 3\) references a node outside"):
        NetworkSnapshot.from_edges([1, 2], [(3, 1)])
    with pytest.raises(ValueError, match="outside"):
        NetworkSnapshot.from_edges([], [(1, 2)])
    with pytest.raises(ValueError, match="64 bits"):
        NetworkSnapshot.from_edges([1, 2**70], [])


def test_snapshot_rejects_non_integer_ids_and_endpoints():
    with pytest.raises(ValueError, match="node ids must be integers, got 1.5"):
        NetworkSnapshot.from_edges([1.5, 2], [])
    with pytest.raises(ValueError, match="edge endpoints must be integers, got 1.7"):
        NetworkSnapshot.from_edges([1, 2], [(1.7, 2)])
    with pytest.raises(ValueError, match="edge endpoints must be integers"):
        NetworkSnapshot.from_edges([1, 2], np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError, match="edge endpoints must fit in 64 bits"):
        NetworkSnapshot.from_edges([1, 2], [(1, 2**64)])


def test_neighbors_sorted_and_exclude_self():
    g = line_graph(3)
    rows, levels = g.layout()
    assert rows.tolist() == [1, 0, 2]  # node 2 first, then the leaves in order
    assert [nbr.tolist() for nbr in levels] == [[0, 1, 1], [2]]
    assert adjacency(g) == {1: (2,), 2: (1, 3), 3: (2,)}


def test_connectivity():
    assert is_connected(line_graph(1).layout())
    assert is_connected(line_graph(4).layout())
    split = NetworkSnapshot.from_edges([1, 2, 3, 4], [(1, 2), (3, 4)])
    assert not is_connected(split.layout())
    assert not is_connected(line_graph(4).layout(np.zeros(4, dtype=bool)))
    assert not is_connected(line_graph(4).layout(np.array([True, False, True, True])))
    with pytest.raises(ValueError):
        diameter(line_graph(4).layout(np.zeros(4, dtype=bool)))


def test_diameter_examples():
    assert diameter(line_graph(6).layout()) == 5
    star = NetworkSnapshot.from_edges([1, 2, 3, 4], [(1, 2), (1, 3), (1, 4)])
    assert diameter(star.layout()) == 2
    assert diameter(line_graph(1).layout()) == 0
    split = NetworkSnapshot.from_edges([1, 2], [])
    assert diameter(split.layout()) == math.inf
    cycle = NetworkSnapshot.from_edges(range(70), [(v, (v + 1) % 70) for v in range(70)])
    assert diameter(cycle.layout()) == 35  # every level has 64 rows or more


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
    isolated = NetworkSnapshot.from_edges([*g.ids.tolist(), 65], sorted(edge_set(g)))
    h = random_connected_graph(rng, 65, extra_edge_prob=2.0 / 65)
    two = NetworkSnapshot.from_edges(
        [*g.ids.tolist(), *(v + 64 for v in h.ids.tolist())],
        sorted(edge_set(g) | {(a + 64, b + 64) for a, b in edge_set(h)}),
    )
    single = NetworkSnapshot.from_edges([7], [])
    for g, want in ((isolated, math.inf), (two, math.inf), (single, 0), (hub_graph(), 4)):
        assert diameter(g.layout()) == want == floyd_warshall_diameter(g)


def test_degree_layout_rebuilds_adjacency_in_order():
    rng = np.random.default_rng(17)
    graphs = [NetworkSnapshot.from_edges([7], []), hub_graph()]
    for _ in range(30):
        g = random_connected_graph(rng, int(rng.integers(2, 16)))
        extra = int(rng.integers(0, 3))  # isolated nodes
        graphs.append(NetworkSnapshot.from_edges([*g.ids.tolist(), *range(20, 20 + extra)], sorted(edge_set(g))))
    hub = graphs[1]
    graphs.append(NetworkSnapshot.from_edges([*hub.ids.tolist(), 30, 31], sorted(edge_set(hub))))
    for g in graphs:
        order, levels = g.layout()
        nodes, adj = g.ids.tolist(), adjacency(g)
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
    assert edge_set(g) == {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)}
    single = line_graph(1)
    assert single.ids.tolist() == [1]
    assert not edge_set(single)


def test_barabasi_albert_grows_connected_graph():
    rng = np.random.default_rng(7)
    g = barabasi_albert(line_graph(5), 100, 2, rng)
    assert g.n == 100
    assert is_connected(g.layout())
    # generated ids ascend in insertion order, so the last positions are the newest nodes
    assert g.ids.tolist() == list(range(1, 101))
    # every generated node attaches to 2 distinct earlier nodes
    for node in range(6, 101):
        below = [e for e in edge_set(g) if max(e) == node]
        assert len(below) == 2


def test_barabasi_albert_deterministic_given_seed():
    a = barabasi_albert(line_graph(5), 40, 2, np.random.default_rng(11))
    b = barabasi_albert(line_graph(5), 40, 2, np.random.default_rng(11))
    assert same_graph(a, b)


def test_barabasi_albert_attachment_is_degree_proportional():
    # path 1-2-3 has degrees (1, 2, 1): one new node with one edge picks the
    # middle node with probability 1/2
    trials = 4000
    rng = np.random.default_rng(99)
    hits = 0
    for _ in range(trials):
        g = barabasi_albert(line_graph(3), 4, 1, rng)
        if (2, 4) in edge_set(g):
            hits += 1
    freq = hits / trials
    sigma = math.sqrt(0.25 / trials)
    assert abs(freq - 0.5) < 3 * sigma


def test_churn_memory_round_trip():
    # a node that leaves and returns gets back every reference edge it had
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(3, 9)))
        node = int(rng.choice(g.ids.tolist()))
        keep = g.ids != node
        reduced = g.subgraph(keep)
        assert node not in node_set(reduced)
        assert all(node not in e for e in edge_set(reduced))
        assert same_graph(reduced, induced_subgraph(g, node_set(g) - {node}))
        restored = g.subgraph(keep | (g.ids == node))
        assert same_graph(restored, g)


def test_churn_memory_restores_only_active_endpoints():
    g = NetworkSnapshot.from_edges([1, 2, 3], [(1, 2), (2, 3)])
    g1 = g.subgraph(np.array([True, False, True]))  # 2 leaves: 1-2 and 2-3 go off
    assert edge_set(g1) == set()
    g3 = g.subgraph(np.array([True, True, False]))  # 3 leaves too, and 2 returns
    assert node_set(g3) == {1, 2}
    assert edge_set(g3) == {(1, 2)}  # 2-3 stays off while 3 is inactive
    assert [half.tolist() for half in g3.arcs] == [[0, 1], [1, 0]]  # positions among the kept
    assert same_graph(g1.subgraph(np.array([True, False])), g.subgraph(np.array([True, False, False])))


def test_snapshot_text_round_trip_keeps_isolated_nodes():
    g = NetworkSnapshot.from_edges([1, 2, 3, 7], [(1, 2), (2, 3)])
    text = snapshot_to_text(g)
    assert text.splitlines()[0] == "nodes: 1 2 3 7"
    assert same_graph(snapshot_from_text(text), g)
    assert same_graph(snapshot_from_text(text + "2 1\n"), g)  # a repeated edge merges


def test_snapshot_text_parse_errors():
    with pytest.raises(ValueError):
        snapshot_from_text("1 2\n")  # no nodes: header
    with pytest.raises(ValueError):
        snapshot_from_text("nodes: 1 2\n1 2 3\n")
    with pytest.raises(ValueError, match="self loop"):
        snapshot_from_text("nodes: 1 2\n2 2\n")
    with pytest.raises(ValueError, match="outside"):
        snapshot_from_text("nodes: 1 2\n1 3\n")


def spaced(g: NetworkSnapshot) -> NetworkSnapshot:
    """``g`` with node ``v`` renamed ``3 v + 4``, so ids have gaps."""
    return NetworkSnapshot.from_edges(
        [3 * v + 4 for v in g.ids.tolist()], [(3 * a + 4, 3 * b + 4) for a, b in edge_set(g)]
    )


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    seed_graph=st.one_of(
        st.integers(1, 6).map(line_graph),
        st.builds(
            lambda n, s: spaced(random_connected_graph(np.random.default_rng(s), n, 0.4)),
            st.integers(2, 7),
            st.integers(0, 2**32 - 1),
        ),
    ),
    grown=st.integers(0, 40),
    edges_per_new_node=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_barabasi_albert_matches_the_set_based_reference(seed_graph, grown, edges_per_new_node, seed):
    """Same draws and same graph as growth over a Python edge set, whose
    insertion order is the grown graph's ascending ids."""
    target_n = seed_graph.n + grown
    rng = np.random.default_rng(seed)
    got = barabasi_albert(seed_graph, target_n, edges_per_new_node, rng)
    ref_rng = np.random.default_rng(seed)
    want, want_order = barabasi_albert_reference(seed_graph, target_n, edges_per_new_node, ref_rng)
    assert np.array_equal(got.ids, want.ids)
    assert all(np.array_equal(a, b) for a, b in zip(got.arcs, want.arcs))
    assert tuple(got.ids.tolist()) == want_order
    assert rng.bit_generator.state == ref_rng.bit_generator.state  # the same draws


@st.composite
def masked_graphs(draw) -> tuple[NetworkSnapshot, np.ndarray]:
    """A graph on at most 12 nodes, connected or not, and a position mask over it.

    A random connected graph loses a drawn subset of its edges and of its
    nodes (at least one node stays), so node ids have gaps and positions
    differ from ids."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_connected_graph(rng, n, extra_edge_prob=draw(st.sampled_from([0.0, 0.25, 0.6])))
    edges = sorted(edge_set(g))
    cut = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    gone = draw(st.sets(st.sampled_from(g.ids.tolist()), max_size=n - 1))
    g = induced_subgraph(
        NetworkSnapshot.from_edges(g.ids.tolist(), [e for e, c in zip(edges, cut) if not c]),
        node_set(g) - gone,
    )
    keep = np.array(draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n)), dtype=bool)
    return g, keep


@settings(max_examples=250, derandomize=True, deadline=None)
@given(masked_graphs())
def test_masked_layout_equals_the_induced_subgraph(case):
    """Layout, connectivity, diameter, subgraph and text of ``g`` under a mask
    are those of the induced subgraph, computed by definition."""
    g, keep = case
    kept = [v for v, k in zip(g.ids.tolist(), keep) if k]
    h = induced_subgraph(g, kept)
    for mask, nodes in ((keep, kept), (None, g.ids.tolist())):
        rows, levels = g.layout(mask)
        assert (rows.tolist(), [nbr.tolist() for nbr in levels]) == layout_reference(g, nodes)
    layout = g.layout(keep)
    assert is_connected(layout) == is_connected_reference(h)
    if kept:
        assert diameter(layout) == floyd_warshall_diameter(h)
    else:
        with pytest.raises(ValueError):
            diameter(layout)
    sub = g.subgraph(keep)
    assert same_graph(sub, h)
    assert not any(x.flags.writeable for x in (sub.ids, *sub.arcs))
    text = f"nodes: {' '.join(map(str, kept))}\n" + "".join(f"{u} {v}\n" for u, v in sorted(edge_set(h)))
    assert snapshot_to_text(sub) == snapshot_to_text(h) == text


@st.composite
def wide_graphs(draw) -> tuple[NetworkSnapshot, np.ndarray]:
    """A graph and a position mask over it that keeps 64 or more rows with a
    neighbour, so the layout mixes levels of 64 rows or more with shorter ones.

    Either a Barabasi-Albert graph of 150-300 nodes under a random mask,
    connected or not, or a lollipop: a clique of 65-80 nodes with a path of
    1-40 nodes hanging off one clique node, all kept.  The path's far end
    is farthest from the hub, so the diameter search walks fringe after
    fringe back along the path."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(150, 300))
        g = barabasi_albert(line_graph(draw(st.integers(1, 5))), n, draw(st.integers(1, 3)), rng)
        return g, rng.random(n) < draw(st.sampled_from([0.9, 0.97, 1.0]))
    g = lollipop(draw(st.integers(65, 80)), draw(st.integers(1, 40)))
    return g, np.ones(g.n, dtype=bool)


def lollipop(clique: int, path: int) -> NetworkSnapshot:
    """A clique on nodes 1..clique with a path of ``path`` more nodes hanging off its last."""
    edges = [(u, v) for u in range(1, clique + 1) for v in range(u + 1, clique + 1)]
    edges += [(v, v + 1) for v in range(clique, clique + path)]
    return NetworkSnapshot.from_edges(range(1, clique + path + 1), edges)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(wide_graphs())
@example((lollipop(70, 30), np.arange(100) < 88))  # the path's far end, the top slots, inactive
def test_wide_layout_diameter_and_connectivity_match_the_oracles(case):
    """The searches over a layout whose short levels fold as one padded
    gather agree with Floyd-Warshall and a depth-first walk, also when the
    mask drops the highest slots."""
    g, keep = case
    h = induced_subgraph(g, g.ids[keep].tolist())
    layout = g.layout(keep)
    assert len(layout[1][0]) >= 64 > len(layout[1][-1])
    assert is_connected(layout) == is_connected_reference(h)
    assert diameter(layout) == floyd_warshall_diameter(h)
