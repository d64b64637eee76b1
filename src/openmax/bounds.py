"""Worst-case tracking bounds and empirical convergence detection.

For the approximate variant on a window that starts at a membership change
and stays unchanged for the dwell time, with decay ``alpha`` larger than the
global input slope bound ``pi`` and diameter ``d``:

* transient time ``d`` (the error starts shrinking at the latest then),
* convergence time ``max(d, ceil(gap / (alpha - pi)))`` where ``gap`` is the
  worst initial overshoot ``max_i x_i(k0) - max_i u_i(k0)`` floored at zero,
* tracking band ``(d + 1) * pi + alpha * d``, shrinking to ``alpha * d`` for
  constant inputs.

For the exact variant with cascade depth ``delta >= d`` both times equal
``delta`` and the band is ``(delta + 1) * pi``, zero for constant inputs.

Min-mode runs are bounded through the negation mirror: the simulator passes
the negated states and input minimum, so only the max formulas exist here.

:func:`detect_times` recovers both times from a realized error trace, and
:func:`audit_window` counts violations of the decrease/containment behavior
the formulas promise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "AssumptionViolation",
    "BoundsReport",
    "DetectedTimes",
    "WindowAudit",
    "admc_bounds",
    "edmc_bounds",
    "detect_times",
    "audit_window",
]


class AssumptionViolation(ValueError):
    """A tuning or scheduling requirement of the tracking guarantees is broken."""


@dataclass(frozen=True)
class BoundsReport:
    """Worst-case times and error bands for one change window."""

    transient_time: int
    convergence_time: int | None
    tracking_bound: float
    steady_bound: float
    assumptions_ok: bool
    reasons: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.convergence_time is not None and self.transient_time > self.convergence_time:
            raise ValueError("transient time cannot exceed convergence time")
        if self.steady_bound < 0 or self.tracking_bound < self.steady_bound:
            raise ValueError("bands must satisfy 0 <= steady <= tracking")

    def to_dict(self) -> dict:
        return {
            "transient_time": self.transient_time,
            "convergence_time": self.convergence_time,
            "tracking_bound": self.tracking_bound,
            "steady_bound": self.steady_bound,
            "assumptions_ok": self.assumptions_ok,
            "reasons": list(self.reasons),
        }


def _ceil_ratio(gap: float, denom: float) -> int:
    # float-noise guard: 1.8/0.01 evaluates a hair above 180
    if gap <= 0.0:
        return 0
    return int(math.ceil(gap / denom - 1e-9))


def _overshoot(x_at_change: Iterable[object], target: float | np.ndarray) -> float:
    states = x_at_change if isinstance(x_at_change, np.ndarray) else list(x_at_change)
    if not len(states):
        raise ValueError("x_at_change must contain at least one agent state")
    excess = np.asarray(states, dtype=float) - target
    if not np.isfinite(excess).all():
        raise ValueError("the initial gap must be finite: states and target must be finite numbers")
    return float(excess.max())


def _check_inputs(slope_bound: float, **spans: int | None) -> None:
    """Reject a slope bound that is not finite and nonnegative, or a negative span."""
    if not math.isfinite(slope_bound) or slope_bound < 0:
        raise ValueError(f"slope bound must be a finite nonnegative number, got {slope_bound}")
    for what, value in spans.items():
        if value is not None and value < 0:
            raise ValueError(f"{what} must be nonnegative, got {value}")


def admc_bounds(
    diameter: int,
    alpha: float,
    slope_bound: float,
    x_at_change: Iterable[object],
    u_max_at_change: float | np.ndarray,
    dwell: int | None = None,
) -> BoundsReport:
    """Bounds for the approximate max protocol on one change window.

    ``x_at_change`` holds the states right at the change; together with the
    running maximum of the inputs it sets the initial overshoot that the
    decay has to burn off.  Pass ``slope_bound=0`` for constant inputs.
    States and target may be per-coordinate arrays; the worst coordinate
    counts.
    """
    _check_inputs(slope_bound, diameter=diameter, dwell=dwell)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")

    reasons: list[str] = []
    if alpha <= slope_bound:
        reasons.append(
            f"decay alpha ({alpha:.6g}) must exceed the input slope bound "
            f"({slope_bound:.6g}) for the error to shrink"
        )
    if dwell is not None and dwell < diameter:
        reasons.append(
            f"dwell time ({dwell}) is shorter than the diameter ({diameter}); "
            "information cannot cross the network between changes"
        )

    gap = max(_overshoot(x_at_change, u_max_at_change), 0.0)
    convergence: int | None = None
    if alpha > slope_bound:
        convergence = max(diameter, _ceil_ratio(gap, alpha - slope_bound))
    return BoundsReport(
        transient_time=diameter,
        convergence_time=convergence,
        tracking_bound=(diameter + 1) * slope_bound + alpha * diameter,
        steady_bound=alpha * diameter,
        assumptions_ok=not reasons,
        reasons=tuple(reasons),
    )


def edmc_bounds(
    delta: int,
    slope_bound: float,
    diameter: int | None = None,
    dwell: int | None = None,
) -> BoundsReport:
    """Bounds for the exact cascade variant."""
    _check_inputs(slope_bound, delta=delta, diameter=diameter, dwell=dwell)
    reasons: list[str] = []
    if diameter is not None and delta < diameter:
        reasons.append(
            f"cascade depth ({delta}) is below the diameter ({diameter}); "
            "the top level cannot have heard from every agent"
        )
    if dwell is not None and dwell < delta:
        reasons.append(
            f"dwell time ({dwell}) is shorter than the cascade depth ({delta})"
        )
    return BoundsReport(
        transient_time=delta,
        convergence_time=delta,
        tracking_bound=(delta + 1) * slope_bound,
        steady_bound=0.0,
        assumptions_ok=not reasons,
        reasons=tuple(reasons),
    )


@dataclass(frozen=True)
class DetectedTimes:
    """Empirical transient/convergence offsets measured from a change tick."""

    transient_time: int
    convergence_time: int | None
    converged: bool


def detect_times(
    errors: Sequence[float],
    band: float,
    *,
    band_tol: float = 1e-9,
    decrease_tol: float = 1e-12,
) -> DetectedTimes:
    """Read both times off a window's error trace.

    ``errors[c]`` is the tracking error ``c`` ticks after the change.  The
    convergence offset is the first from which the error stays inside the
    band through the end of the window; the transient offset is the first
    from which the error strictly decreases until it enters the band.
    Non-decreasing steps inside the band are not violations.
    """
    if band < 0:
        raise ValueError("band must be nonnegative")
    if not len(errors):
        raise ValueError("empty error window")
    last = len(errors) - 1

    conv: int | None = 0
    for k in range(last, -1, -1):
        if errors[k] > band + band_tol:
            conv = None if k == last else k + 1
            break
    converged = conv is not None

    end = conv if converged else last
    transient = 0
    for k in range(end - 1, -1, -1):
        if errors[k] <= band + band_tol:
            continue
        if not errors[k + 1] < errors[k] + decrease_tol:
            transient = k + 1
            break
    return DetectedTimes(transient, conv, converged)


@dataclass(frozen=True)
class WindowAudit:
    """Violation counts of the promised decrease/containment behavior."""

    detected: DetectedTimes
    decrease_violations: int
    containment_violations: int
    max_error_after_convergence: float | None
    audited_containment: bool


def audit_window(
    errors: Sequence[float],
    report: BoundsReport,
    *,
    band_tol: float = 1e-9,
    decrease_tol: float = 1e-12,
) -> WindowAudit:
    """Check one window's realized errors against its bounds report.

    Decrease is required from the transient offset up to the convergence
    offset whenever the error sits above the band.  Containment is required
    from the convergence offset to the end of the window, but only when the
    window is long enough to reach it.
    """
    band = report.tracking_bound
    last = len(errors) - 1
    detected = detect_times(errors, band, band_tol=band_tol, decrease_tol=decrease_tol)

    decrease_violations = 0
    t_start = report.transient_time
    t_conv = report.convergence_time if report.convergence_time is not None else last + 1
    for k in range(t_start, min(t_conv, last - 1) + 1):
        if errors[k] <= band + band_tol:
            continue
        if not errors[k + 1] < errors[k] + decrease_tol:
            decrease_violations += 1

    containment_violations = 0
    max_tail: float | None = None
    audited = report.convergence_time is not None and report.convergence_time <= last
    if audited:
        tail = [errors[k] for k in range(report.convergence_time, last + 1)]
        max_tail = max(tail)
        containment_violations = sum(1 for e in tail if e > band + band_tol)
    return WindowAudit(
        detected=detected,
        decrease_violations=decrease_violations,
        containment_violations=containment_violations,
        max_error_after_convergence=max_tail,
        audited_containment=audited,
    )
