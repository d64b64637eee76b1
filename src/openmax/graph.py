"""Immutable network snapshots, BFS metrics, and graph generators.

A snapshot is a value: a frozen node set plus a frozen set of normalized
undirected edges; position ``s`` is its ``s``-th smallest node.  A membership
change never mutates a snapshot: the network after it is the reference
topology induced on a boolean mask of active positions, so a returning node
gets back exactly its reference edges to active endpoints.  That subgraph's
:meth:`~NetworkSnapshot.layout` is the adjacency's one array form; over it,
:func:`closed_reduce` folds the kernels' neighbourhood max and each level of
the one BFS behind :func:`is_connected` and :func:`diameter`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

__all__ = [
    "Layout",
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


Layout = tuple[np.ndarray, tuple[np.ndarray, ...]]


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
    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """Both directions of every edge as ``(src, dst)`` positions in
        ``sorted_nodes``, sorted by ``(src, dst)``: each position's neighbours
        are one ascending run of ``dst``."""
        ends = np.searchsorted(self.sorted_nodes, list(self.edges)).reshape(-1, 2)
        src, dst = np.concatenate((ends, ends[:, ::-1])).T
        order = np.lexsort((dst, src))
        return src[order], dst[order]

    def layout(self, keep: np.ndarray | None = None) -> Layout:
        """Degree layout of the subgraph induced on the boolean position mask
        ``keep`` (every node by default), over positions in ``sorted_nodes``:
        the kept positions by descending degree (stable), and per ``s`` the
        ``s``-th smallest neighbour of each of them that has one."""
        keep = np.ones(self.n, dtype=bool) if keep is None else keep
        src, dst = self.arcs
        inside = keep[src] & keep[dst]
        src, dst, kept = src[inside], dst[inside], np.flatnonzero(keep)
        degree = np.bincount(src, minlength=self.n)
        rows = kept[np.argsort(-degree[kept], kind="stable")]
        first, degree = (np.cumsum(degree) - degree)[rows], degree[rows]
        levels = tuple(
            dst[first[: np.count_nonzero(degree > s)] + s] for s in range(degree.max(initial=0))
        )
        for shared in (rows, *levels):  # a window's kernel and searches share them
            shared.flags.writeable = False
        return rows, levels

    @property
    def n(self) -> int:
        return len(self.nodes)


def closed_reduce(ufunc: np.ufunc, A: np.ndarray, rows: np.ndarray, levels: Iterable) -> np.ndarray:
    """Fold ``ufunc`` over closed neighbourhoods of a :meth:`~NetworkSnapshot.layout`
    mapped to rows of ``A``: result row ``j`` folds ``A[rows[j]]`` first,
    then its neighbours' rows in ascending order."""
    out = A[rows]
    for nbr in levels:
        part = out[: len(nbr)]
        ufunc(part, A[nbr], out=part)
    return out


def _search(layout: Layout, sources: int) -> tuple[bool, int]:
    """Breadth-first searches from the first ``sources`` rows of ``layout`` at
    once: bit ``j`` of row ``v`` (ranks in row order) says the search from ``j``
    has reached ``v``.  Returns whether the first search reached every row, and
    the search depth."""
    rows, levels = layout
    m = len(rows)
    rank = np.empty(rows.max() + 1, dtype=np.intp)
    rank[rows] = ranks = np.arange(m)
    levels = [rank[nbr] for nbr in levels]
    k = np.arange(sources)
    seen = np.zeros((m, -(-sources // 64)), dtype=np.uint64)
    seen[k, k // 64] = np.uint64(1) << (k % 64).astype(np.uint64)
    frontier, depth = seen.copy(), -1
    while frontier.any():
        frontier = closed_reduce(np.bitwise_or, frontier, ranks, levels)
        frontier &= ~seen
        seen |= frontier
        depth += 1
    return bool((seen[:, 0] & np.uint64(1)).all()), depth


def is_connected(layout: Layout) -> bool:
    """Whether a :meth:`~NetworkSnapshot.layout` is one nonempty component."""
    return len(layout[0]) > 0 and _search(layout, 1)[0]


def diameter(layout: Layout) -> float:
    """Longest shortest-path length of a :meth:`~NetworkSnapshot.layout`; 0 for
    one node, ``math.inf`` if a search leaves some row unreached."""
    m = len(layout[0])
    if not m:
        raise ValueError("diameter of an empty snapshot is undefined")
    connected, depth = _search(layout, m)
    return depth if connected else math.inf


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
    if not is_connected(seed_graph.layout()):
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


def snapshot_to_text(g: NetworkSnapshot, keep: np.ndarray | None = None) -> str:
    """Serialize to an edge-list block: a ``nodes:`` header then one edge per
    line; under a boolean position mask ``keep``, of the induced subgraph."""
    keep = np.ones(g.n, dtype=bool) if keep is None else keep
    src, dst = g.arcs
    edge = (src < dst) & keep[src] & keep[dst]
    nodes = np.asarray(g.sorted_nodes)
    lines = ["nodes: " + " ".join(map(str, nodes[keep].tolist()))]
    lines.extend(map("{} {}".format, nodes[src[edge]].tolist(), nodes[dst[edge]].tolist()))
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
