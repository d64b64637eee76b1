"""Worst-case tracking bounds and the audit of measured errors against them.

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

Min-mode runs are bounded through the negation mirror (the simulator passes
the gap of the negated values), so only the max formulas exist here.

:func:`window_bounds` is the one entry to these formulas.  A broken tuning
condition is a reason in the report, never an exception; ``ProtocolParams``
has already checked ``alpha`` and ``delta``.

:func:`audit_window` reads one window's realized errors against these
formulas and returns one record: the measured times, the maxima, and the
counts of decrease and containment violations.  Two constants set its
tolerances: ``BAND_TOL`` widens the band, and ``DECREASE_TOL`` is how far an
error may rise and still count as decreasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .protocols import ProtocolParams

__all__ = ["AssumptionViolation", "BoundsReport", "window_bounds", "audit_window"]

# An error at most this far above the tracking band still counts as inside it.
BAND_TOL = 1e-9
# A step up by less than this still counts as a decrease.
DECREASE_TOL = 1e-12


class AssumptionViolation(ValueError):
    """Changes closer than the dwell time: the bounds' windows do not exist."""


@dataclass(frozen=True)
class BoundsReport:
    """Worst-case times and error bands for one change window."""

    transient_time: int
    convergence_time: int | None
    tracking_bound: float
    steady_bound: float
    reasons: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.convergence_time is not None and self.transient_time > self.convergence_time:
            raise ValueError("transient time cannot exceed convergence time")
        if self.steady_bound < 0 or self.tracking_bound < self.steady_bound:
            raise ValueError("bands must satisfy 0 <= steady <= tracking")

    @property
    def assumptions_ok(self) -> bool:
        """Whether every tuning condition holds: no reason was recorded."""
        return not self.reasons

    def to_dict(self) -> dict:
        return {
            "transient_time": self.transient_time,
            "convergence_time": self.convergence_time,
            "tracking_bound": self.tracking_bound,
            "steady_bound": self.steady_bound,
            "assumptions_ok": self.assumptions_ok,
            "reasons": list(self.reasons),
        }


def window_bounds(
    params: ProtocolParams, slope_bound: float,
    diameter: int | None, dwell: int | None, gap: float = 0.0,
) -> BoundsReport:
    """Bounds of one window under ``params``, by the formulas above.

    ``gap`` is the approximate variant's initial overshoot: the largest
    state at the window's first tick minus the input maximum, over agents
    and coordinates; a negative gap counts as zero.  The exact variant
    ignores it, and checks its depth against ``diameter`` only when one is
    given.  Pass ``slope_bound=0`` for constant inputs.
    """
    if not math.isfinite(slope_bound) or slope_bound < 0:
        raise ValueError(f"slope bound must be a finite nonnegative number, got {slope_bound}")
    for what, value in (("diameter", diameter), ("dwell", dwell)):
        if value is not None and value < 0:
            raise ValueError(f"{what} must be nonnegative, got {value}")

    reasons: list[str] = []
    if params.variant == "exact":
        delta = params.delta
        if diameter is not None and delta < diameter:
            reasons.append(
                f"cascade depth ({delta}) is below the diameter ({diameter}); "
                "the top level cannot have heard from every agent"
            )
        if dwell is not None and dwell < delta:
            reasons.append(
                f"dwell time ({dwell}) is shorter than the cascade depth ({delta})"
            )
        transient = convergence = delta
        tracking, steady = (delta + 1) * slope_bound, 0.0
    else:
        alpha = params.alpha
        if diameter is None:
            raise ValueError("the approximate variant's bounds need the diameter")
        if not math.isfinite(gap):
            raise ValueError(f"the initial gap must be a finite number, got {gap}")
        convergence = None
        if alpha > slope_bound:
            margin = alpha - slope_bound
            ticks = max(gap, 0.0) / margin
            if not math.isfinite(ticks):
                raise ValueError(
                    f"the initial gap ({gap:.6g}) over the margin alpha - slope bound "
                    f"({margin:.6g}) overflows the convergence time"
                )
            # float-noise guard: 1.8/0.01 evaluates a hair above 180
            convergence = max(diameter, math.ceil(ticks - 1e-9))
        else:
            reasons.append(
                f"decay alpha ({alpha:.6g}) must exceed the input slope bound "
                f"({slope_bound:.6g}) for the error to shrink"
            )
        if dwell is not None and dwell < diameter:
            reasons.append(
                f"dwell time ({dwell}) is shorter than the diameter ({diameter}); "
                "information cannot cross the network between changes"
            )
        transient = diameter
        tracking, steady = (diameter + 1) * slope_bound + alpha * diameter, alpha * diameter
    return BoundsReport(transient, convergence, tracking, steady, tuple(reasons))


def audit_window(errors: Sequence[float], report: BoundsReport) -> dict:
    """One window's realized errors read against its bounds report.

    ``errors[c]`` is the tracking error ``c`` ticks after the change.  An
    error is above the band when it exceeds ``tracking_bound`` by more than
    ``BAND_TOL``; a step is stuck when it starts above the band and the next
    error is not below the current one plus ``DECREASE_TOL``.

    The measured convergence offset is the first from which the error stays
    inside the band through the end of the window (``None`` if the last
    error is above it); the measured transient offset is one past the last
    stuck step before it.  Decrease is required from the report's transient
    offset up to its convergence offset; containment from its convergence
    offset to the end of the window, but only when the window reaches it.
    Maxima are the first maximal error, as ``max`` picks it.
    """
    e = np.asarray(errors, dtype=float)
    last = len(e) - 1
    above = e > report.tracking_bound + BAND_TOL
    stuck = above[:-1] & ~(e[1:] < e[:-1] + DECREASE_TOL)
    outside = np.flatnonzero(above)
    conv = 0 if not len(outside) else None if outside[-1] == last else int(outside[-1]) + 1
    rises = np.flatnonzero(stuck[:conv])
    t_conv = report.convergence_time
    stop = None if t_conv is None else t_conv + 1
    audited = t_conv is not None and t_conv <= last
    tail = e[t_conv:] if audited else None
    return {
        "transient_time": int(rises[-1]) + 1 if len(rises) else 0,
        "convergence_time": conv,
        "converged": conv is not None,
        "max_error": float(e[np.argmax(e)]),
        "final_error": float(e[-1]),
        "max_error_after_convergence": float(tail[np.argmax(tail)]) if audited else None,
        "decrease_violations": int(stuck[report.transient_time : stop].sum()),
        "containment_violations": int(above[t_conv:].sum()) if audited else 0,
        "containment_audited": audited,
    }
