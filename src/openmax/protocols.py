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
way in and outputs on the way out.  Negation is exact and ties break the same
way on both sides; the one visible trace is the sign of zero, as an
approximate min-mode state that decays to exactly zero comes back as ``-0.0``.

All updates are synchronous: a tick's new states are computed entirely from
the previous tick's states.  States live in dense arrays, one row per agent
slot: ``X`` has shape ``(slots,)`` for the approximate variant and ``(slots,
delta + 1)`` for the exact one, and ``U`` holds the inputs in the same rows;
any coordinate axis appended to those shapes is carried through elementwise,
which is how many independent consensus instances share one network.

The kernels update ``X`` in place with the max-plus neighborhood product
``A(x)X``, a :func:`graph.closed_reduce` over a window's degree layout: the
reference topology's layout under the window's slot mask, whose positions are
state-array rows.  :func:`admc_kernel` computes ``max(A(x)X - alpha, U)`` and
:func:`edmc_kernel` ``X[:, 1:] <- A(x)X[:, :-1]``.
An agent exposes its state, or its cascade's top level ``X[:, -1]``.

On a fixed graph the exact step is a shift through time as well: level ``l``
after step ``t + 1`` is the fold of level ``l - 1`` after step ``t``, so a
level's whole series over a block of steps is one fold of the series below
it.  :func:`edmc_window` steps a block that way, level by level, with the
same per-row fold order and bits as that many :func:`edmc_kernel` steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .graph import Layout, closed_reduce

__all__ = ["ProtocolParams", "admc_kernel", "edmc_kernel", "edmc_window"]


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
            delta = self.delta
            if isinstance(delta, bool) or not isinstance(delta, Integral) or delta < 0:
                raise ValueError(f"delta must be a nonnegative integer, got {delta!r}")
            object.__setattr__(self, "delta", int(delta))
            if self.alpha is not None:
                raise ValueError("alpha applies only to the approximate variant")


def admc_kernel(X: np.ndarray, U: np.ndarray, layout: Layout, alpha: float) -> None:
    """Approximate max step of ``layout``'s rows, in place: ``max(A(x)X - alpha, U)``."""
    rows, levels = layout
    decayed = closed_reduce(np.maximum, X, rows, levels) - alpha
    # np.maximum(a, b) returns b on a tie, which decides a +0.0/-0.0 tie: a
    # scalar state keeps the decayed value and a vector state takes the input,
    # as the per-agent references in tests/util.py do.  The neighborhood max
    # needs no such care: subtracting alpha erases the sign of a zero.
    X[rows] = np.maximum(U[rows], decayed) if X.ndim == 1 else np.maximum(decayed, U[rows])


def edmc_kernel(X: np.ndarray, U: np.ndarray, layout: Layout, start: int = 0) -> None:
    """Exact max step of ``layout``'s rows, in place: shift the cascades up one
    level through the neighborhood max, then load the inputs at level 0.
    Only levels ``start..delta-1`` are folded, into ``start+1..delta``: the
    full step when levels ``0..start`` already hold ``A(x)^l U``."""
    rows, levels = layout
    X[rows, start + 1 :] = closed_reduce(np.maximum, X[:, start:-1], rows, levels)
    X[rows, 0] = U[rows]


def edmc_window(X: np.ndarray, U: np.ndarray, layout: Layout) -> np.ndarray:
    """``len(U)`` exact max steps of ``layout``'s rows, in place, step ``t``
    loading ``U[t]``: each level's series over the block is one fold of the
    series below it, its column 0 the level's starting state.  Returns the
    top level's series by slot, ``[t, s]`` holding ``X[s, -1]`` after ``t``
    steps; entries at slots outside the layout are unspecified."""
    rows, levels = layout
    series = np.empty((len(X), len(U) + 1, *X.shape[2:]))
    series[rows, 0] = X[rows, 0]
    series[rows, 1:] = U[:, rows].swapaxes(0, 1)
    X[rows, 0] = series[rows, -1]
    for level in range(1, X.shape[1]):
        below, series = series[:, :-1], np.empty_like(series)
        series[rows, 0] = X[rows, level]
        series[rows, 1:] = closed_reduce(np.maximum, below, rows, levels)
        X[rows, level] = series[rows, -1]
    return series.swapaxes(0, 1)
