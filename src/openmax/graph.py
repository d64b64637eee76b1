"""Immutable network snapshots, BFS metrics, and graph generators.

A snapshot is its node ids, a sorted int64 array, and its ``arcs``: both
directions of every undirected edge as positions in ``ids``, so position ``s``
is the ``s``-th smallest node.  A membership change never mutates a snapshot:
the network after it is the reference topology induced on a boolean mask of
active positions, so a returning node gets back exactly its reference edges
to active endpoints.  That subgraph's :meth:`~NetworkSnapshot.layout` is the
adjacency's one array form.  Over it, :func:`closed_reduce` folds the
kernels' neighbourhood max, and one bit-parallel BFS over the same slot
positions from a set of source rows, which ORs the layout's levels of fewer
than 64 rows in one padded gather, is behind :func:`is_connected` (one source) and :func:`diameter`.
The diameter is the fringe bound of Crescenzi, Grossi, Habib, Lanzi and
Marino ("On computing the diameter of real-world undirected graphs", 2013):
a search from the highest-degree row, then one from each of its outer
distance fringes until the bound closes.  :meth:`~NetworkSnapshot.subgraph`
builds the subgraph as a snapshot of its own, for its text form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Layout",
    "NetworkSnapshot",
    "closed_reduce",
    "is_connected",
    "diameter",
    "line_graph",
    "barabasi_albert",
    "snapshot_to_text",
    "snapshot_from_text",
]


Layout = tuple[np.ndarray, tuple[np.ndarray, ...]]


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _unique(a: np.ndarray) -> np.ndarray:
    """``np.unique(a)`` by a sort and a mask, which numpy 2.4 runs about 20
    times faster on the 12,000 arc keys of a 3,000-node graph."""
    a = np.sort(a)
    first = np.ones(len(a), dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return a[first]


def _int64(values: object, what: str) -> np.ndarray:
    """``values`` as an int64 array; a value that is not an integer, or does
    not fit in 64 bits, raises ``ValueError``."""
    a = np.asarray(values)
    if a.dtype.kind not in "iub":
        bad = [v for v in a.flat if not isinstance(v, int)]
        if bad:
            raise ValueError(f"{what} must be integers, got {bad[0]}")
    try:
        ints = a.astype(np.int64)
    except OverflowError:
        ints = None
    if ints is None or not np.array_equal(ints, a):
        raise ValueError(f"{what} must fit in 64 bits")
    return ints


@dataclass(frozen=True, eq=False)
class NetworkSnapshot:
    """Undirected graph on the sorted int64 node ``ids``; isolated nodes are
    legal members.

    ``arcs`` holds both directions of every edge as ``(src, dst)`` positions
    in ``ids``, sorted by ``(src, dst)``: each position's neighbours are one
    ascending run of ``dst``.  All three arrays are read-only.
    """

    ids: np.ndarray
    arcs: tuple[np.ndarray, np.ndarray]

    @classmethod
    def from_edges(cls, nodes: Iterable[int], edges: Sequence) -> NetworkSnapshot:
        """The graph on ``nodes`` whose edges are the node-id pairs of
        ``edges``, a sequence or ``(m, 2)`` array; a repeated node or edge, in
        either direction, counts once.  A non-integer id or endpoint, a self
        loop or an edge to a node outside ``nodes`` raises ``ValueError``."""
        ids = _unique(_int64(list(nodes), "node ids"))
        ends = _int64(edges, "edge endpoints").reshape(len(edges), 2)
        loop = ends[:, 0] == ends[:, 1]
        if loop.any():
            raise ValueError(f"self loop on node {ends[loop][0, 0]} is not allowed")
        outside = ~np.isin(ends, ids).all(axis=1)
        if outside.any():
            u, v = sorted(ends[outside][0].tolist())
            raise ValueError(f"edge ({u}, {v}) references a node outside the snapshot")
        ends, n = np.searchsorted(ids, ends), len(ids)
        arcs = _unique(np.concatenate((ends[:, 0] * n + ends[:, 1], ends[:, 1] * n + ends[:, 0])))
        ids, src, dst = _read_only(ids, *np.divmod(arcs, n))
        return cls(ids, (src, dst))

    def subgraph(self, keep: np.ndarray) -> NetworkSnapshot:
        """The subgraph induced on the boolean position mask ``keep``."""
        src, dst = self.arcs
        inside = keep[src] & keep[dst]
        moved = np.cumsum(keep) - 1  # a kept position's position among the kept
        ids, src, dst = _read_only(self.ids[keep], moved[src[inside]], moved[dst[inside]])
        return NetworkSnapshot(ids, (src, dst))

    def layout(self, keep: np.ndarray | None = None) -> Layout:
        """Degree layout of the subgraph induced on the boolean position mask
        ``keep`` (every node by default), over positions in ``ids``: the kept
        positions by descending degree (stable), and per ``s`` the ``s``-th
        smallest neighbour of each of them that has one."""
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
        _read_only(rows, *levels)  # a window's kernel and searches share them
        return rows, levels

    @property
    def n(self) -> int:
        return len(self.ids)


def closed_reduce(ufunc: np.ufunc, A: np.ndarray, rows: np.ndarray, levels: Iterable) -> np.ndarray:
    """Fold ``ufunc`` over closed neighbourhoods of a :meth:`~NetworkSnapshot.layout`
    mapped to rows of ``A``: result row ``j`` folds ``A[rows[j]]`` first,
    then its neighbours' rows in ascending order."""
    out = A[rows]
    for nbr in levels:
        part = out[: len(nbr)]
        ufunc(part, A[nbr], out=part)
    return out


def _search(layout: Layout, sources: np.ndarray) -> tuple[np.ndarray, int]:
    """Breadth-first searches from the slots ``sources`` of layout rows at
    once: bit ``j`` of slot ``v`` says the search from ``sources[j]`` has
    reached ``v``.  Returns the first search's distance to every row (-1 where
    unreached), in row order, and the search depth, the largest eccentricity
    among the sources.

    Each level ORs a row's neighbours into its frontier: a
    :func:`closed_reduce` over the layout levels that have 64 rows or more,
    then one padded gather for the shorter tail, whose row ``j`` is padded
    with ``rows[j]`` itself.  A bitwise OR is exact in any order.
    """
    rows, levels = layout
    wide = sum(len(nbr) >= 64 for nbr in levels)
    tail = np.empty((0, 0), dtype=np.intp)
    if wide < len(levels):
        lengths = np.array([len(nbr) for nbr in levels[wide:]])
        tail = np.repeat(rows[: lengths[0]], len(lengths)).reshape(-1, len(lengths))
        tail.T[np.arange(lengths[0]) < lengths[:, None]] = np.concatenate(levels[wide:])
    k = np.arange(len(sources))
    frontier = np.zeros((rows.max() + 1, -(-len(sources) // 64)), dtype=np.uint64)
    frontier[sources, k // 64] = np.uint64(1) << (k % 64).astype(np.uint64)
    seen, dist, depth = frontier[rows], np.full(len(rows), -1), 0  # in row order
    dist[rows == sources[0]] = 0
    while True:
        reached = closed_reduce(np.bitwise_or, frontier, rows, levels[:wide])
        reached[: len(tail)] |= np.bitwise_or.reduce(frontier[tail], axis=1)
        reached &= ~seen
        if not reached.any():
            return dist, depth
        seen |= reached
        frontier[rows] = reached
        depth += 1
        dist[(reached[:, 0] & np.uint64(1)) != 0] = depth


def is_connected(layout: Layout) -> bool:
    """Whether a :meth:`~NetworkSnapshot.layout` is one nonempty component."""
    return len(layout[0]) > 0 and bool((_search(layout, layout[0][:1])[0] >= 0).all())


def diameter(layout: Layout) -> float:
    """Longest shortest-path length of a :meth:`~NetworkSnapshot.layout`; 0 for
    one node, ``math.inf`` if some row is unreached.

    The fringe bound of Crescenzi, Grossi, Habib, Lanzi and Marino (2013).
    One search from row 0, the highest-degree row, gives every row's
    distance to it.  Two rows within ``i`` of row 0 are at most ``2 i``
    apart, so once ``bound``, the largest eccentricity among row 0 and the
    rows farther than ``i`` from it, reaches ``2 i``, it is the diameter.
    Each step searches from the whole fringe at distance ``i`` at once.
    """
    rows = layout[0]
    if not len(rows):
        raise ValueError("diameter of an empty snapshot is undefined")
    dist, bound = _search(layout, rows[:1])
    if (dist < 0).any():
        return math.inf
    i = bound
    while bound < 2 * i:
        bound = max(bound, _search(layout, rows[dist == i])[1])
        i -= 1
    return bound


def line_graph(n: int) -> NetworkSnapshot:
    """Path on nodes 1..n, so the diameter is n - 1."""
    if n < 1:
        raise ValueError("a line graph needs at least one node")
    ends = np.arange(1, n)
    return NetworkSnapshot.from_edges(range(1, n + 1), np.column_stack((ends, ends + 1)))


def barabasi_albert(
    seed_graph: NetworkSnapshot,
    target_n: int,
    edges_per_new_node: int,
    rng: np.random.Generator,
) -> NetworkSnapshot:
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
    NetworkSnapshot
        The grown graph.  Generated nodes get ascending ids in creation
        order, so its last positions hold the last nodes added, which is
        what membership churn rules such as "the last m nodes added" refer
        to.
    """
    if not is_connected(seed_graph.layout()):
        raise ValueError("seed graph must be connected")
    if target_n < seed_graph.n:
        raise ValueError("target size is smaller than the seed graph")
    if edges_per_new_node < 1:
        raise ValueError("each new node must attach with at least one edge")

    order: list[int] = seed_graph.ids.tolist()
    src, dst = seed_graph.arcs
    up = src < dst
    # Degree-proportional sampling pool: every edge contributes both endpoints,
    # so its pairs are the edges, the seed's in sorted order, then the grown ones.
    pool: list[int] = seed_graph.ids[np.column_stack((src[up], dst[up]))].ravel().tolist()
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
            pool += (t, next_id)
        order.append(next_id)
        next_id += 1

    return NetworkSnapshot.from_edges(order, np.reshape(pool, (-1, 2)))


def snapshot_to_text(g: NetworkSnapshot) -> str:
    """Serialize to an edge-list block: a ``nodes:`` header then one edge per line."""
    src, dst = g.arcs
    up = src < dst
    lines = ["nodes: " + " ".join(map(str, g.ids.tolist()))]
    lines.extend(map("{} {}".format, g.ids[src[up]].tolist(), g.ids[dst[up]].tolist()))
    return "\n".join(lines) + "\n"


def snapshot_from_text(text: str) -> NetworkSnapshot:
    """Parse the :func:`snapshot_to_text` format; isolated nodes survive the trip."""
    nodes: list[int] | None = None
    edges: list[tuple[int, int]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("nodes:"):
            if nodes is not None:
                raise ValueError("duplicate nodes: header")
            nodes = [int(tok) for tok in line[len("nodes:"):].split()]
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line {line!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if nodes is None:
        raise ValueError("missing nodes: header")
    return NetworkSnapshot.from_edges(nodes, edges)
