"""Synchronous max-consensus updates over open networks.

Two protocol variants:

* approximate: every agent keeps one scalar per input coordinate and applies
  ``new = max(neighborhood max - alpha, own input)``.  The decay ``alpha``
  lets stale values fade after the extremum holder leaves, at the price of a
  steady-state offset.
* exact: every agent keeps a cascade of ``delta + 1`` levels.  Level 0 loads
  the agent's current input and level ``l`` takes the neighborhood maximum
  of level ``l - 1``, so the top level reproduces the maximum of the inputs
  ``delta + 1`` ticks ago exactly whenever ``delta`` is at least the graph
  diameter.

The kernels compute only the max.  Min mode is the exact mirror
``min(x) = -max(-x)``: the simulator negates inputs and initial states on the
way in and outputs on the way out, so :func:`step` refuses ``mode="min"``.
Negation is exact and ties break the same way on both sides; the one visible
trace is the sign of zero, as an approximate min-mode state that decays to
exactly zero comes back as ``-0.0``.

All updates are synchronous: a tick's new states are computed entirely from
the previous tick's states.  An agent's state is a ``float`` for the
approximate variant and an array of shape ``(delta + 1,)`` for the exact one;
any coordinate axis appended to those shapes is carried through elementwise,
which is how many independent consensus instances share one network.

The kernels update dense state arrays in place, one row per agent slot, with
the max-plus neighborhood product ``A(x)X``, a :func:`graph.closed_reduce`
over the snapshot's degree layout in slot rows (:class:`Neighborhoods`):
:func:`admc_kernel` computes ``max(A(x)X - alpha, U)`` and :func:`edmc_kernel`
``X[:, 1:] <- A(x)X[:, :-1]``.  The per-agent functions are dict adapters.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real
from typing import Mapping, Union

import numpy as np

from .graph import NetworkSnapshot, closed_reduce, induced_subgraph, partition_nodes

__all__ = [
    "ProtocolParams",
    "State",
    "Neighborhoods",
    "admc_kernel",
    "edmc_kernel",
    "init_agent",
    "resume_agent",
    "output",
    "admc_step",
    "edmc_step",
    "step",
    "open_step",
]

State = Union[float, np.ndarray]


def _is_whole(value: object) -> bool:
    """True for an integer or an integral float; False for bools and non-numbers."""
    if isinstance(value, bool):
        return False
    if isinstance(value, Integral):
        return True
    return isinstance(value, Real) and float(value).is_integer()


@dataclass(frozen=True)
class ProtocolParams:
    """Validated protocol selection: mode, variant, and tuning constants."""

    mode: str
    variant: str
    alpha: float | None = None
    delta: int | None = None
    read_departing: bool = True

    def __post_init__(self) -> None:
        if self.mode not in ("max", "min"):
            raise ValueError(f"mode must be 'max' or 'min', got {self.mode!r}")
        if self.variant not in ("approximate", "exact"):
            raise ValueError(
                f"variant must be 'approximate' or 'exact', got {self.variant!r}"
            )
        if self.variant == "approximate":
            if self.alpha is None:
                raise ValueError("the approximate variant needs a decay alpha")
            if isinstance(self.alpha, bool) or not isinstance(self.alpha, Real):
                raise ValueError(f"alpha must be a number, got {self.alpha!r}")
            if not 0.0 < self.alpha < 1.0:
                raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
            object.__setattr__(self, "alpha", float(self.alpha))
            if self.delta is not None:
                raise ValueError("delta applies only to the exact variant")
        else:
            if self.delta is None:
                raise ValueError("the exact variant needs a cascade depth delta")
            if not _is_whole(self.delta) or self.delta < 0:
                raise ValueError(f"delta must be a nonnegative integer, got {self.delta!r}")
            object.__setattr__(self, "delta", int(self.delta))
            if self.alpha is not None:
                raise ValueError("alpha applies only to the approximate variant")


def _check_cover(g: NetworkSnapshot, x: Mapping[int, State], u: Mapping[int, object]) -> None:
    for i in g.sorted_nodes:
        if i not in x:
            raise KeyError(f"missing state for agent {i}")
        if i not in u:
            raise KeyError(f"missing input for agent {i}")


def _check_cascades(g: NetworkSnapshot, x: Mapping[int, State]) -> None:
    shape = None
    for i in g.sorted_nodes:
        arr = x[i]
        if not isinstance(arr, np.ndarray) or arr.ndim < 1:
            raise TypeError(f"agent {i} state is not a cascade array")
        if shape is None:
            shape = arr.shape
        elif arr.shape != shape:
            raise ValueError(
                f"cascade shape mismatch: agent {i} has {arr.shape}, expected {shape}"
            )


def init_agent(params: ProtocolParams, u_now: object) -> State:
    """State of an agent that joins (or starts) with input ``u_now``."""
    return resume_agent(params, u_now, u_now)


def resume_agent(params: ProtocolParams, x_prior: object, u_now: object) -> State:
    """State of an agent resuming from a prescribed output value.

    Used when a run starts mid-stream from given state values rather than
    from the inputs.  For the exact variant, level 0 always holds the current
    input; the remaining levels carry the prescribed value.
    """
    if params.variant == "approximate":
        arr = np.asarray(x_prior, dtype=float)
        return float(arr) if arr.ndim == 0 else arr.copy()
    x_arr = np.asarray(x_prior, dtype=float)
    state = np.broadcast_to(x_arr, (params.delta + 1, *x_arr.shape)).copy()
    state[0] = np.asarray(u_now, dtype=float)
    return state


def output(params: ProtocolParams, state: State) -> object:
    """The value an agent exposes: its scalar state, or the cascade's top level."""
    if params.variant == "approximate":
        return state
    top = state[-1]
    return float(top) if np.ndim(top) == 0 else top


class Neighborhoods:
    """A snapshot's :attr:`~openmax.graph.NetworkSnapshot.by_degree` layout in
    state-array rows; ``slots[k]`` is the row of ``g.sorted_nodes[k]``."""

    def __init__(self, g: NetworkSnapshot, slots: np.ndarray) -> None:
        slots = np.asarray(slots, dtype=np.intp)
        order, levels = g.by_degree
        self.rows = slots[order]
        self.levels = [slots[nbr] for nbr in levels]


def admc_kernel(X: np.ndarray, U: np.ndarray, hood: Neighborhoods, alpha: float) -> None:
    """Approximate max step of ``hood``'s rows, in place: ``max(A(x)X - alpha, U)``."""
    rows = hood.rows
    decayed = closed_reduce(np.maximum, X, rows, hood.levels) - alpha
    # np.maximum(a, b) returns b on a tie, which decides a +0.0/-0.0 tie.  As in
    # the per-agent definition, a scalar state then keeps the decayed value and
    # a vector state takes the input.  The neighborhood max needs no such care:
    # subtracting alpha erases the sign of a zero.
    X[rows] = np.maximum(U[rows], decayed) if X.ndim == 1 else np.maximum(decayed, U[rows])


def edmc_kernel(X: np.ndarray, U: np.ndarray, hood: Neighborhoods) -> None:
    """Exact max step of ``hood``'s rows, in place: shift the cascades up one
    level through the neighborhood max, then load the inputs at level 0."""
    rows = hood.rows
    X[rows, 1:] = closed_reduce(np.maximum, X[:, :-1], rows, hood.levels)
    X[rows, 0] = U[rows]


def _on_slots(kernel, g: NetworkSnapshot, x: Mapping[int, State], u: Mapping[int, object], *args):
    """Run an array kernel on dict states; slot ``k`` is ``g.sorted_nodes[k]``."""
    nodes = g.sorted_nodes
    X = np.array([x[i] for i in nodes], dtype=float)
    U = np.array([u[i] for i in nodes], dtype=float)
    kernel(X, U, Neighborhoods(g, np.arange(len(nodes))), *args)
    return dict(zip(nodes, X.tolist() if X.ndim == 1 else X))


def admc_step(
    g: NetworkSnapshot,
    x: Mapping[int, State],
    u: Mapping[int, object],
    alpha: float,
) -> dict[int, State]:
    """One synchronous approximate max step on a fixed snapshot."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    _check_cover(g, x, u)
    return _on_slots(admc_kernel, g, x, u, alpha)


def edmc_step(
    g: NetworkSnapshot,
    x: Mapping[int, State],
    u: Mapping[int, object],
) -> dict[int, State]:
    """One synchronous exact max step: shift the cascade, load the input."""
    _check_cover(g, x, u)
    _check_cascades(g, x)
    return _on_slots(edmc_kernel, g, x, u)


def step(
    params: ProtocolParams,
    g: NetworkSnapshot,
    x: Mapping[int, State],
    u: Mapping[int, object],
) -> dict[int, State]:
    """One closed-network max step of the selected variant.

    Min mode runs through the negation mirror, so ``params.mode`` must be
    ``"max"`` here.
    """
    if params.mode != "max":
        raise ValueError("the kernels compute the max; run min mode through its negation")
    if params.variant == "approximate":
        return admc_step(g, x, u, params.alpha)
    return edmc_step(g, x, u)


def open_step(
    params: ProtocolParams,
    g_now: NetworkSnapshot,
    g_next: NetworkSnapshot,
    x: Mapping[int, State],
    u_now: Mapping[int, object],
    u_next: Mapping[int, object],
) -> dict[int, State]:
    """One step across a possible membership change.

    Remaining agents update on the current snapshot; by default they still
    read the last states of departing neighbors (set ``read_departing=False``
    on the params to exclude them).  Arriving agents start from their own
    next-tick input and read nobody this tick.
    """
    part = partition_nodes(g_now.nodes, g_next.nodes)
    base_graph = g_now
    if not params.read_departing and part.departing:
        base_graph = induced_subgraph(g_now, g_now.nodes - part.departing)
    base = step(params, base_graph, x, u_now)
    new: dict[int, State] = {}
    for i in sorted(part.remaining):
        new[i] = base[i]
    for i in sorted(part.arriving):
        if i not in u_next:
            raise KeyError(f"missing input for arriving agent {i}")
        new[i] = init_agent(params, u_next[i])
    return new
