"""Shared helpers for the test suite: small random graphs and churn scripts."""

from __future__ import annotations

import numpy as np

from openmax.graph import NetworkSnapshot, snapshot_from_text
from openmax.protocols import ProtocolParams
from openmax.signals import Constant, SignalBank
from openmax.simulator import Scenario, make_scenario

LINE4_TEXT = """
nodes: 1 2 3 4
1 2
2 3
3 4
"""


def line4_churn_scenario(**overrides) -> Scenario:
    """Line on 1..4; node 4 leaves at tick 10 and returns at tick 20."""
    base = dict(
        name="mini",
        kind="consensus",
        params=ProtocolParams(mode="max", variant="approximate", alpha=0.1),
        reference=snapshot_from_text(LINE4_TEXT),
        horizon=30,
        seed=5,
        changes=[(10, {1, 2, 3}), (20, {1, 2, 3, 4})],
        dwell=10,
        bank=SignalBank({1: Constant(0.1), 2: Constant(0.3), 3: Constant(0.2), 4: Constant(0.9)}),
    )
    base.update(overrides)
    return make_scenario(**base)


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
    return NetworkSnapshot(frozenset(range(1, n + 1)), frozenset(edges))


def floyd_warshall_diameter(g: NetworkSnapshot) -> float:
    """Independent diameter computation used as an oracle against BFS."""
    order = g.sorted_nodes
    idx = {n: i for i, n in enumerate(order)}
    size = len(order)
    dist = np.full((size, size), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v in g.edges:
        dist[idx[u], idx[v]] = 1.0
        dist[idx[v], idx[u]] = 1.0
    for k in range(size):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return float(dist.max())
