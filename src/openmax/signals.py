"""Per-agent reference signals with certified per-tick slope bounds.

Every signal kind is a frozen parameter record that declares an upper bound
on ``|u(k+1) - u(k)|``; the largest over all agents is the global bound used
by the tracking-error formulas.  A run's inputs are realized once, by
:func:`signal_table`, as a ``(horizon + 1, slots)`` float64 table with one
column per signal, in slot order; :func:`certify_slope` verifies the declared
bound against that table.  Random walks draw their steps from the generator
passed to :func:`signal_table`, so the table is fixed once the seed is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
from typing import Protocol, Sequence

import numpy as np

__all__ = [
    "SignalSpec",
    "Constant",
    "PiecewiseLinear",
    "Sinusoid",
    "ClampedRandomWalk",
    "SlopeCertificationError",
    "signal_table",
    "certify_slope",
]

# Breakpoint ticks are interpolated in int64 arithmetic, so their differences
# must fit in it.
_MAX_TICK = 2**61
_SLOPE_BLOCK_CELLS = 2**18  # certify_slope holds about this many cells of changes at once


class SlopeCertificationError(ValueError):
    """Raised when realized per-tick changes exceed the declared bound."""


class SignalSpec(Protocol):
    """A signal's parameters plus its declared per-tick slope bound."""

    @property
    def slope_bound(self) -> float: ...


@dataclass(frozen=True)
class Constant:
    value: float

    @property
    def slope_bound(self) -> float:
        return 0.0

    def values(self, horizon: int) -> np.ndarray:
        return np.full(horizon + 1, float(self.value))


@dataclass(frozen=True)
class PiecewiseLinear:
    """Linear interpolation through ``(tick, value)`` points, held flat outside.

    Consecutive integer ticks with different values express a jump; the slope
    bound accounts for it like any other segment.
    """

    points: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        ticks = [k for k, _ in self.points]
        if any(isinstance(k, bool) or not isinstance(k, Integral) for k in ticks):
            raise ValueError(f"breakpoint ticks must be integers, got {ticks}")
        pts = tuple((int(k), float(v)) for k, v in self.points)
        if not pts:
            raise ValueError("piecewise linear signal needs at least one point")
        ticks = [k for k, _ in pts]
        if any(b <= a for a, b in zip(ticks, ticks[1:])):
            raise ValueError("breakpoint ticks must be strictly increasing")
        if not all(-_MAX_TICK <= k <= _MAX_TICK for k in ticks):
            raise ValueError(f"breakpoint ticks must lie within +-2**61, got {ticks}")
        object.__setattr__(self, "points", pts)

    @cached_property
    def slope_bound(self) -> float:
        segs = zip(self.points, self.points[1:])
        return max((abs(v1 - v0) / (k1 - k0) for (k0, v0), (k1, v1) in segs), default=0.0)

    def values(self, horizon: int) -> np.ndarray:
        ticks = np.array([k for k, _ in self.points], dtype=np.int64)
        vals = np.array([v for _, v in self.points])
        k = np.arange(horizon + 1, dtype=np.int64)
        out = np.where(k <= ticks[0], vals[0], vals[-1])
        inside = (k > ticks[0]) & (k < ticks[-1])
        k = k[inside]
        hi = np.searchsorted(ticks, k, side="right")
        k0, v0, k1, v1 = ticks[hi - 1], vals[hi - 1], ticks[hi], vals[hi]
        out[inside] = v0 + (v1 - v0) * (k - k0) / (k1 - k0)
        return out


@dataclass(frozen=True)
class Sinusoid:
    amplitude: float
    period: float
    phase: float = 0.0
    offset: float = 0.0

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("period must be positive")

    @property
    def slope_bound(self) -> float:
        # |u(k+1) - u(k)| = 2|A| sin(pi/T) <= 2 pi |A| / T
        return 2.0 * math.pi * abs(self.amplitude) / self.period

    def values(self, horizon: int) -> np.ndarray:
        k = np.arange(horizon + 1)
        return self.offset + self.amplitude * np.sin(2.0 * math.pi * (k + self.phase) / self.period)


@dataclass(frozen=True)
class ClampedRandomWalk:
    """Random walk with steps uniform in ``[-step_bound, step_bound]``, clamped
    to ``[lo, hi]`` after every step (a missing bound does not clamp).

    Its values are drawn by :func:`signal_table`.
    """

    step_bound: float
    start: float = 0.0
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self) -> None:
        if not 0 <= 2 * self.step_bound < math.inf:  # steps are drawn from [-b, b]
            raise ValueError(f"step bound {self.step_bound} must be nonnegative, twice it finite")
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueError(f"lower clamp {self.lo} is above the upper clamp {self.hi}")

    @property
    def slope_bound(self) -> float:
        return self.step_bound


def signal_table(
    specs: Sequence[SignalSpec], horizon: int, rng: np.random.Generator
) -> np.ndarray:
    """The inputs over ticks ``[0, horizon]``: column ``s`` holds the values
    of ``specs[s]``, a float64 array of shape ``(horizon + 1, len(specs))``.

    All walks' steps come from one ``(walks, horizon)`` draw of ``rng``, one
    row per walk in column order.  Each clamp keeps Python's ``max``/``min``
    tie rule, so a walk starting at ``-0.0`` with ``lo=0.0`` stays at ``-0.0``.
    """
    table = np.empty((horizon + 1, len(specs)))
    walks = []
    for s, spec in enumerate(specs):
        if isinstance(spec, ClampedRandomWalk):
            walks.append(s)
        else:
            table[:, s] = spec.values(horizon)
    if not walks:
        return table

    params = [specs[s] for s in walks]
    walks = np.array(walks, dtype=np.intp)
    b = np.array([w.step_bound for w in params])[:, None]
    lo = np.array([-math.inf if w.lo is None else w.lo for w in params])
    hi = np.array([math.inf if w.hi is None else w.hi for w in params])
    steps = rng.uniform(-b, b, size=(len(walks), horizon)).T
    x = np.array([w.start for w in params])
    for k in range(horizon + 1):
        if k:
            x = x + steps[k - 1]
        x = np.where(lo > x, lo, x)
        table[k, walks] = x = np.where(hi < x, hi, x)
    return table


def certify_slope(table: np.ndarray, agents: Sequence[int], bound: float) -> float:
    """Check every per-tick change of an input table and return the largest.

    Column ``s`` of ``table`` holds the values of ``agents[s]``, which are
    sorted.  Raises :class:`SlopeCertificationError` if any change exceeds
    ``bound`` beyond float tolerance, or is NaN; the message names the first
    such agent and its tick.
    """
    tol = 1e-9 * max(1.0, abs(bound)) + 1e-12
    step = max(1, _SLOPE_BLOCK_CELLS // max(1, table.shape[1]))
    largest, failed = 0.0, np.zeros(table.shape[1], dtype=bool)
    with np.errstate(over="ignore"):  # a change past the float range reads as inf
        for first in range(0, len(table) - 1, step):
            change = np.abs(np.diff(table[first : first + step + 1], axis=0))
            failed |= ~(change <= bound + tol).all(axis=0)
            largest = max(largest, float(change.max(initial=0.0)))
        if failed.any():  # the first failing agent, at its first failing tick
            s = int(np.argmax(failed))
            change = np.abs(np.diff(table[:, s]))
            k = int(np.argmax(~(change <= bound + tol))) + 1
            raise SlopeCertificationError(
                f"agent {agents[s]} moves by {change[k - 1]:.6g} from tick {k - 1} to {k}, "
                f"above the declared per-tick slope bound {bound:.6g}"
            )
    return largest
