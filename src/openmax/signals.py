"""Per-agent reference signals with certified per-tick slope bounds.

Every signal kind declares an upper bound on ``|u(k+1) - u(k)|``.  The bank
of all agents' signals carries the global bound used by the tracking-error
formulas, and :func:`certify_slope` verifies the declaration against the
realized values over a horizon.  Signal evaluation is pure: random-walk
signals are expanded to a fixed table when they are built, never at sampling
time.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "SignalSpec",
    "Constant",
    "PiecewiseLinear",
    "Sinusoid",
    "ClampedRandomWalk",
    "SignalBank",
    "SlopeCertificationError",
    "sample",
    "certify_slope",
    "build_spec",
]


class SlopeCertificationError(ValueError):
    """Raised when realized per-tick changes exceed the declared bound."""


@runtime_checkable
class SignalSpec(Protocol):
    """A pure function of the tick plus a declared per-tick slope bound."""

    @property
    def slope_bound(self) -> float: ...

    def value(self, k: int) -> float: ...

    def negated(self) -> "SignalSpec": ...


@dataclass(frozen=True)
class Constant:
    level: float

    @property
    def slope_bound(self) -> float:
        return 0.0

    def value(self, k: int) -> float:
        return float(self.level)

    def negated(self) -> "Constant":
        return Constant(-self.level)


@dataclass(frozen=True)
class PiecewiseLinear:
    """Linear interpolation through ``(tick, value)`` points, held flat outside.

    Consecutive integer ticks with different values express a jump; the slope
    bound accounts for it like any other segment.
    """

    points: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        pts = tuple((int(k), float(v)) for k, v in self.points)
        if not pts:
            raise ValueError("piecewise linear signal needs at least one point")
        ticks = [k for k, _ in pts]
        if any(b <= a for a, b in zip(ticks, ticks[1:])):
            raise ValueError("breakpoint ticks must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @cached_property
    def slope_bound(self) -> float:
        segs = zip(self.points, self.points[1:])
        return max((abs(v1 - v0) / (k1 - k0) for (k0, v0), (k1, v1) in segs), default=0.0)

    @cached_property
    def _ticks(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.points)

    def value(self, k: int) -> float:
        pts = self.points
        if k <= pts[0][0]:
            return pts[0][1]
        if k >= pts[-1][0]:
            return pts[-1][1]
        hi = bisect_right(self._ticks, k)
        k0, v0 = pts[hi - 1]
        k1, v1 = pts[hi]
        return v0 + (v1 - v0) * (k - k0) / (k1 - k0)

    def negated(self) -> "PiecewiseLinear":
        return PiecewiseLinear(tuple((k, -v) for k, v in self.points))


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

    def value(self, k: int) -> float:
        return self.offset + self.amplitude * math.sin(2.0 * math.pi * (k + self.phase) / self.period)

    def negated(self) -> "Sinusoid":
        return Sinusoid(-self.amplitude, self.period, self.phase, -self.offset)


@dataclass(frozen=True)
class ClampedRandomWalk:
    """Pre-expanded random walk with bounded steps, held at its last value.

    Build with :meth:`generate`; the stored table makes evaluation pure and
    runs independent of sampling order.
    """

    table: tuple[float, ...]
    step_bound: float

    def __post_init__(self) -> None:
        if not self.table:
            raise ValueError("random walk table must not be empty")
        if self.step_bound < 0:
            raise ValueError("step bound must be nonnegative")

    @classmethod
    def generate(
        cls,
        rng: np.random.Generator,
        horizon: int,
        step_bound: float,
        start: float = 0.0,
        lo: float | None = None,
        hi: float | None = None,
    ) -> "ClampedRandomWalk":
        x = float(start)
        if lo is not None:
            x = max(x, lo)
        if hi is not None:
            x = min(x, hi)
        vals = [x]
        # one sized draw yields the same stream as ``horizon`` scalar draws
        for step in rng.uniform(-step_bound, step_bound, size=horizon).tolist():
            x = x + step
            if lo is not None:
                x = max(x, lo)
            if hi is not None:
                x = min(x, hi)
            vals.append(x)
        return cls(tuple(vals), float(step_bound))

    @property
    def slope_bound(self) -> float:
        return self.step_bound

    def value(self, k: int) -> float:
        if k < 0:
            return self.table[0]
        return self.table[min(k, len(self.table) - 1)]

    def negated(self) -> "ClampedRandomWalk":
        return ClampedRandomWalk(tuple(-v for v in self.table), self.step_bound)


@dataclass(frozen=True, eq=False)
class SignalBank:
    """Mapping from agent id to its signal; the global slope bound is the max."""

    specs: Mapping[int, SignalSpec]

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", dict(self.specs))
        if not self.specs:
            raise ValueError("signal bank must not be empty")

    @cached_property
    def slope_bound(self) -> float:
        return max(spec.slope_bound for spec in self.specs.values())

    def negated(self) -> "SignalBank":
        return SignalBank({i: spec.negated() for i, spec in self.specs.items()})


def sample(bank: SignalBank, agent: int, k: int) -> float:
    try:
        spec = bank.specs[agent]
    except KeyError:
        raise KeyError(f"agent {agent} has no signal in the bank") from None
    return spec.value(k)


def _values(spec: SignalSpec, horizon: int) -> np.ndarray:
    """One agent's values over ``[0, horizon]`` as a float64 array."""
    if isinstance(spec, ClampedRandomWalk):
        table = np.asarray(spec.table[: horizon + 1], dtype=float)
        return np.pad(table, (0, horizon + 1 - table.size), mode="edge")
    return np.fromiter(map(spec.value, range(horizon + 1)), dtype=float, count=horizon + 1)


def certify_slope(
    bank: SignalBank, horizon: int, declared_bound: float | None = None
) -> float:
    """Scan all agents over ``[0, horizon]`` and return the observed max change.

    Raises :class:`SlopeCertificationError` if any per-tick change exceeds the
    declared bound (the bank's own bound by default) beyond float tolerance,
    or is NaN; the message names the first such agent and tick.
    """
    bound = bank.slope_bound if declared_bound is None else float(declared_bound)
    tol = 1e-9 * max(1.0, abs(bound)) + 1e-12
    worst = 0.0
    for agent, spec in sorted(bank.specs.items()):
        change = np.abs(np.diff(_values(spec, horizon)))
        bad = np.flatnonzero(~(change <= bound + tol))
        if bad.size:
            k = int(bad[0]) + 1
            raise SlopeCertificationError(
                f"agent {agent} moves by {change[k - 1]:.6g} from tick {k - 1} to {k}, "
                f"above the declared per-tick slope bound {bound:.6g}"
            )
        worst = max(worst, float(change.max(initial=0.0)))
    return worst


def build_spec(
    kind: str,
    params: Mapping[str, object],
    *,
    rng: np.random.Generator | None = None,
    horizon: int | None = None,
) -> SignalSpec:
    """Construct a signal from a config mapping; used by scenario loading.

    Missing, malformed or non-finite parameters raise ``ValueError``.
    """
    opts = dict(params)

    def num(key: str, *default: float) -> float:
        value = float(opts.pop(key, *default))
        if not math.isfinite(value):
            raise ValueError(f"signal kind {kind!r} needs a finite {key!r}, got {value}")
        return value

    def done(spec: SignalSpec) -> SignalSpec:
        if opts:
            raise ValueError(f"unknown parameters for signal kind {kind!r}: {sorted(opts)}")
        return spec

    try:
        if kind == "constant":
            return done(Constant(num("value")))
        if kind == "piecewise_linear":
            points = tuple((int(k), float(v)) for k, v in opts.pop("points"))
            if not all(math.isfinite(v) for _, v in points):
                raise ValueError(f"the points of signal kind {kind!r} must be finite")
            return done(PiecewiseLinear(points))
        if kind == "sinusoid":
            return done(Sinusoid(
                amplitude=num("amplitude"),
                period=num("period"),
                phase=num("phase", 0.0),
                offset=num("offset", 0.0),
            ))
        if kind == "random_walk_clamped":
            if rng is None or horizon is None:
                raise ValueError("random walk signals need an rng and a horizon at build time")
            return done(ClampedRandomWalk.generate(
                rng,
                horizon,
                step_bound=num("step_bound"),
                start=num("start", 0.0),
                lo=(None if "lo" not in opts else num("lo")),
                hi=(None if "hi" not in opts else num("hi")),
            ))
    except KeyError as exc:
        raise ValueError(f"signal kind {kind!r} needs the parameter {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(f"malformed parameters for signal kind {kind!r}: {exc}") from None
    raise ValueError(f"unknown signal kind {kind!r}")
