"""Immutable network snapshots, BFS metrics, and graph generators.

A snapshot is a value: a frozen node set plus a frozen set of normalized
undirected edges.  Membership changes never mutate a snapshot: the network in
effect after a change is :func:`induced_subgraph` of the reference topology on
the active set, so a reactivated node gets back exactly its reference edges to
currently active endpoints.

:attr:`NetworkSnapshot.by_degree` is the adjacency's one array form.  Over it,
:func:`closed_reduce` folds the kernels' neighbourhood max and each BFS level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

__all__ = [
    "NetworkSnapshot",
    "closed_reduce",
    "is_connected",
    "diameter",
    "line_graph",
    "barabasi_albert",
    "induced_subgraph",
    "snapshot_to_text",
    "snapshot_from_text",
]


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    u, v = int(u), int(v)
    if u == v:
        raise ValueError(f"self loop on node {u} is not allowed")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class NetworkSnapshot:
    """Undirected graph value with hashable, order-free equality.

    Edges are stored as ``(low, high)`` pairs; any iterable of pairs passed to
    the constructor is normalized.  Isolated nodes are legal members.
    """

    nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", frozenset(int(n) for n in self.nodes))
        object.__setattr__(
            self, "edges", frozenset(_normalize_edge(u, v) for u, v in self.edges)
        )
        for u, v in self.edges:
            if u not in self.nodes or v not in self.nodes:
                raise ValueError(f"edge ({u}, {v}) references a node outside the snapshot")

    @cached_property
    def sorted_nodes(self) -> tuple[int, ...]:
        return tuple(sorted(self.nodes))

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """Each node's sorted neighbours; a node is never its own neighbour."""
        adj: dict[int, list[int]] = {n: [] for n in self.sorted_nodes}
        for u, v in sorted(self.edges):
            adj[u].append(v)
            adj[v].append(u)
        return {n: tuple(sorted(adj[n])) for n in self.sorted_nodes}

    @cached_property
    def by_degree(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """:attr:`adjacency` over positions in ``sorted_nodes``: the positions by
        descending degree (stable), and per ``s`` the ``s``-th neighbour of each
        of them that has one."""
        pos = {v: k for k, v in enumerate(self.sorted_nodes)}
        rows = self.adjacency.values()
        indices = np.array([pos[v] for r in rows for v in r], dtype=np.intp)
        degree = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
        order = np.argsort(-degree, kind="stable")
        first = (np.cumsum(degree) - degree)[order]
        levels = tuple(
            indices[first[: np.count_nonzero(degree > s)] + s] for s in range(degree.max(initial=0))
        )
        for shared in (order, *levels):  # every caller sees the same cached arrays
            shared.flags.writeable = False
        return order, levels

    @property
    def n(self) -> int:
        return len(self.nodes)


def is_connected(g: NetworkSnapshot) -> bool:
    if not g.nodes:
        return False
    stack = [g.sorted_nodes[0]]
    seen = set(stack)
    while stack:
        for v in g.adjacency[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.n


def closed_reduce(ufunc: np.ufunc, A: np.ndarray, rows: np.ndarray, levels: Iterable) -> np.ndarray:
    """Fold ``ufunc`` over closed neighbourhoods of a :attr:`~NetworkSnapshot.by_degree`
    layout mapped to rows of ``A``: result row ``j`` folds ``A[rows[j]]`` first,
    then its neighbours' rows in adjacency order."""
    out = A[rows]
    for nbr in levels:
        part = out[: len(nbr)]
        ufunc(part, A[nbr], out=part)
    return out


def diameter(g: NetworkSnapshot) -> float:
    """Longest shortest-path length; 0 for one node, ``math.inf`` if disconnected.

    Runs every BFS at once: bit ``j`` of row ``v`` says the search from node
    ``j`` has reached ``v``, and each level ORs the closed neighbourhood's
    frontier rows; the own row's bits are already seen.
    """
    if not g.nodes:
        raise ValueError("diameter of an empty snapshot is undefined")
    if not is_connected(g):
        return math.inf
    if g.n == 1:
        return 0
    order, levels = g.by_degree
    k = np.arange(g.n)
    seen = np.zeros((g.n, -(-g.n // 64)), dtype=np.uint64)
    seen[k, k // 64] = np.uint64(1) << (k % 64).astype(np.uint64)
    frontier, depth = seen.copy(), -1
    while frontier.any():
        frontier[order] = closed_reduce(np.bitwise_or, frontier, order, levels)
        frontier &= ~seen
        seen |= frontier
        depth += 1
    return depth


def line_graph(n: int) -> NetworkSnapshot:
    """Path on nodes 1..n, so the diameter is n - 1."""
    if n < 1:
        raise ValueError("a line graph needs at least one node")
    nodes = range(1, n + 1)
    edges = [(i, i + 1) for i in range(1, n)]
    return NetworkSnapshot(frozenset(nodes), frozenset(edges))


def barabasi_albert(
    seed_graph: NetworkSnapshot,
    target_n: int,
    edges_per_new_node: int,
    rng: np.random.Generator,
) -> tuple[NetworkSnapshot, tuple[int, ...]]:
    """Grow a scale-free graph by degree-proportional preferential attachment.

    Parameters
    ----------
    seed_graph : NetworkSnapshot
        Connected starting graph.  New nodes get ids above its largest id.
    target_n : int
        Total number of nodes in the grown graph.
    edges_per_new_node : int
        Distinct attachment targets per inserted node (capped by the current
        size).  Targets are drawn proportionally to current degree, without
        replacement within one insertion.
    rng : numpy.random.Generator
        Source of attachment randomness.

    Returns
    -------
    (NetworkSnapshot, tuple[int, ...])
        The grown graph and the node insertion order (seed nodes first, in id
        order, then generated nodes in creation order).  The trailing entries
        of the order are what membership churn rules such as "the last m
        nodes added" refer to.
    """
    if not is_connected(seed_graph):
        raise ValueError("seed graph must be connected")
    if target_n < seed_graph.n:
        raise ValueError("target size is smaller than the seed graph")
    if edges_per_new_node < 1:
        raise ValueError("each new node must attach with at least one edge")

    order: list[int] = list(seed_graph.sorted_nodes)
    edges: set[tuple[int, int]] = set(seed_graph.edges)
    # Degree-proportional sampling pool: every edge contributes both endpoints.
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
            edges.add(_normalize_edge(t, next_id))
            pool.extend((t, next_id))
        order.append(next_id)
        next_id += 1

    snapshot = NetworkSnapshot(frozenset(order), frozenset(edges))
    return snapshot, tuple(order)


def induced_subgraph(g: NetworkSnapshot, keep: Iterable[int]) -> NetworkSnapshot:
    """Snapshot restricted to ``keep`` and the edges among those nodes."""
    kept = frozenset(int(n) for n in keep)
    missing = kept - g.nodes
    if missing:
        raise ValueError(f"nodes {sorted(missing)} are not active in this snapshot")
    return NetworkSnapshot(
        kept, frozenset(e for e in g.edges if e[0] in kept and e[1] in kept)
    )


def snapshot_to_text(g: NetworkSnapshot) -> str:
    """Serialize to an edge-list block: a ``nodes:`` header then one edge per line."""
    lines = ["nodes: " + " ".join(str(n) for n in g.sorted_nodes)]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def snapshot_from_text(text: str) -> NetworkSnapshot:
    """Parse the :func:`snapshot_to_text` format; isolated nodes survive the trip."""
    nodes: frozenset[int] | None = None
    edges: list[tuple[int, int]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("nodes:"):
            if nodes is not None:
                raise ValueError("duplicate nodes: header")
            nodes = frozenset(int(tok) for tok in line[len("nodes:"):].split())
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line {line!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if nodes is None:
        raise ValueError("missing nodes: header")
    return NetworkSnapshot(nodes, frozenset(edges))
