"""Closed-form bound values, validation, and the window audit."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from openmax.bounds import (
    BAND_TOL,
    DECREASE_TOL,
    BoundsReport,
    audit_window,
    window_bounds,
)
from openmax.protocols import ProtocolParams

from util import audit_window_reference

LINE6_X0 = [0.0, 0.4, 0.8, 1.2, 1.6, 2.0]


def approx(alpha: float) -> ProtocolParams:
    return ProtocolParams("max", "approximate", alpha=alpha)


def exact(delta: int) -> ProtocolParams:
    return ProtocolParams("max", "exact", delta=delta)


def test_admc_bounds_line_topology_numbers():
    rep = window_bounds(approx(0.03), 0.02, 5, 250, max(LINE6_X0) - 0.2)
    assert rep.transient_time == 5
    assert rep.convergence_time == 180  # ceil(1.8 / 0.01), not 181 from float noise
    assert rep.tracking_bound == pytest.approx(0.27, abs=1e-9)
    assert rep.steady_bound == pytest.approx(0.15, abs=1e-9)
    assert rep.assumptions_ok
    assert rep.reasons == ()


def test_admc_bounds_constant_inputs():
    rep = window_bounds(approx(0.03), 0.0, 5, None, max(LINE6_X0) - 0.2)
    assert rep.tracking_bound == pytest.approx(0.15, abs=1e-9)
    assert rep.steady_bound == pytest.approx(0.15, abs=1e-9)
    assert rep.convergence_time == 60  # ceil(1.8 / 0.03)


def test_admc_bounds_zero_gap_gives_diameter():
    rep = window_bounds(approx(0.1), 0.01, 4, None, max([0.0, 0.1, 0.2]) - 0.5)
    assert rep.convergence_time == 4
    rep = window_bounds(approx(0.1), 0.01, 4, None, 0.0)
    assert rep.convergence_time == 4


def test_admc_bounds_flags_alpha_below_slope():
    rep = window_bounds(approx(0.02), 0.05, 3, None)
    assert not rep.assumptions_ok
    assert rep.convergence_time is None
    assert any("alpha" in r for r in rep.reasons)


def test_admc_bounds_flags_short_dwell():
    rep = window_bounds(approx(0.1), 0.0, 6, 4)
    assert not rep.assumptions_ok
    assert any("dwell" in r for r in rep.reasons)


def test_admc_bounds_input_validation():
    with pytest.raises(ValueError):
        window_bounds(approx(0.1), 0.0, -1, None)
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):  # the params own alpha
        approx(0.0)
    with pytest.raises(ValueError):
        window_bounds(approx(0.1), -0.1, 2, None)
    # the approximate band and times are in diameters; the exact ones need none
    with pytest.raises(ValueError, match="diameter"):
        window_bounds(approx(0.1), 0.0, None, 4)
    assert window_bounds(exact(3), 0.0, None, 4).assumptions_ok


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bounds_reject_non_finite_slope_and_gap(bad):
    with pytest.raises(ValueError, match="slope bound"):
        window_bounds(approx(0.5), bad, 3, None)
    with pytest.raises(ValueError, match="slope bound"):
        window_bounds(exact(3), bad, 3, None)
    # an overshoot of nan once compared below the zero floor and read as no gap;
    # a non-finite state or target makes a non-finite gap
    with pytest.raises(ValueError, match="initial gap"):
        window_bounds(approx(0.5), 0.0, 3, None, bad)
    with pytest.raises(ValueError, match="initial gap"):
        window_bounds(approx(0.5), 0.0, 3, None, max([0.1, 0.2]) - bad)


def test_bounds_reject_a_convergence_time_past_the_float_range():
    # 1e308 / (0.5 - 0.49999) overflows; it once reached int() as inf
    with pytest.raises(ValueError, match=r"initial gap \(1e\+308\) over the margin alpha - slope"):
        window_bounds(approx(0.5), 0.49999, 3, None, 1e308)
    # a huge finite tick count is still a time
    assert window_bounds(approx(0.5), 0.0, 3, None, 1e300).convergence_time == math.ceil(2e300)


def test_bounds_reject_negative_diameter_and_dwell():
    with pytest.raises(ValueError, match="diameter"):
        window_bounds(exact(3), 0.0, -5, None)
    with pytest.raises(ValueError, match="dwell"):
        window_bounds(exact(3), 0.0, 3, -1)
    with pytest.raises(ValueError, match="dwell"):
        window_bounds(approx(0.5), 0.0, 3, -4)
    # zero is a legal span: a one-node window, a change every tick
    assert window_bounds(exact(3), 0.0, 0, 3).assumptions_ok
    assert not window_bounds(approx(0.5), 0.0, 3, 0).assumptions_ok


def test_admc_bounds_mirrored_min_gap():
    # min mode is bounded on negated values: the lowest state 0.9 sits 0.7
    # below the input minimum 1.6, which is a 0.7 overshoot on the max side
    rep = window_bounds(approx(0.1), 0.03, 2, None, max([-2.0, -0.9, -1.2]) - -1.6)
    assert rep.convergence_time == max(2, -(-0.7 // 0.07))
    # states already above the input minimum: only the diameter matters
    rep = window_bounds(approx(0.1), 0.0, 3, None, max([-2.0, -1.9]) - -1.6)
    assert rep.convergence_time == 3


def test_edmc_bounds_values():
    rep = window_bounds(exact(5), 0.02, 5, 250)
    assert rep.transient_time == 5
    assert rep.convergence_time == 5
    assert rep.tracking_bound == pytest.approx(0.12, abs=1e-9)
    assert rep.steady_bound == 0.0
    assert rep.assumptions_ok
    assert window_bounds(exact(5), 0.0, None, None).tracking_bound == 0.0
    assert window_bounds(exact(1), 1.0, None, None).tracking_bound == 2.0


def test_edmc_bounds_conditions():
    rep = window_bounds(exact(3), 0.0, 5, None)
    assert not rep.assumptions_ok
    assert any("cascade depth" in r for r in rep.reasons)
    rep = window_bounds(exact(7), 0.0, None, 3)
    assert not rep.assumptions_ok


def expected_bounds(params: ProtocolParams, pi: float, d: int | None, dwell: int | None, gap: float):
    """The module docstring's formulas and reasons, written out once more;
    ``None`` when the convergence time passes the float range."""
    reasons = []
    if params.variant == "exact":
        delta = params.delta
        if d is not None and delta < d:
            reasons.append(
                f"cascade depth ({delta}) is below the diameter ({d}); the top level "
                "cannot have heard from every agent"
            )
        if dwell is not None and dwell < delta:
            reasons.append(f"dwell time ({dwell}) is shorter than the cascade depth ({delta})")
        return delta, delta, (delta + 1) * pi, 0.0, tuple(reasons)
    alpha = params.alpha
    conv = None
    if alpha > pi:
        ticks = max(gap, 0.0) / (alpha - pi)
        if not math.isfinite(ticks):
            return None
        conv = max(d, math.ceil(ticks - 1e-9))  # less float noise
    else:
        reasons.append(
            f"decay alpha ({alpha:.6g}) must exceed the input slope bound ({pi:.6g}) "
            "for the error to shrink"
        )
    if dwell is not None and dwell < d:
        reasons.append(
            f"dwell time ({dwell}) is shorter than the diameter ({d}); information "
            "cannot cross the network between changes"
        )
    return d, conv, (d + 1) * pi + alpha * d, alpha * d, tuple(reasons)


@st.composite
def bound_inputs(draw):
    """A protocol of either variant with a slope bound, diameter, dwell and gap;
    the slope bound is sometimes the decay itself, and an exact window's gap
    may be any float, NaN and infinities included."""
    spans = st.integers(0, 60)
    dwell = draw(st.none() | spans)
    if draw(st.booleans()):
        params = exact(draw(spans))
        d = draw(st.none() | spans)
        gap = draw(st.floats() | st.sampled_from([math.nan, math.inf, -math.inf]))
        pi = draw(st.floats(0.0, 5.0))
    else:
        params = approx(draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
        d = draw(spans)
        gap = draw(st.floats(-10.0, 10.0))
        pi = draw(st.sampled_from([0.0, params.alpha]) | st.floats(0.0, 2.0))
    return params, pi, d, dwell, gap


@settings(max_examples=400, derandomize=True, deadline=None)
@given(bound_inputs())
def test_window_bounds_dispatches_on_the_variant(case):
    """One entry for both variants: the report's fields are the formulas, each
    reason appears exactly when its condition holds, and the exact variant
    ignores the gap."""
    params, pi, d, dwell, gap = case
    want = expected_bounds(params, pi, d, dwell, gap)
    if want is None:
        with pytest.raises(ValueError, match="initial gap .* over the margin"):
            window_bounds(params, pi, d, dwell, gap)
        return
    rep = window_bounds(params, pi, d, dwell, gap)
    got = (rep.transient_time, rep.convergence_time, rep.tracking_bound, rep.steady_bound, rep.reasons)
    assert got == want
    assert rep.assumptions_ok == (not rep.reasons)
    assert rep.to_dict()["assumptions_ok"] is rep.assumptions_ok
    if params.variant == "exact":
        assert rep == window_bounds(params, pi, d, dwell)


def test_bounds_report_validation_and_dict():
    with pytest.raises(ValueError):
        BoundsReport(5, 3, 1.0, 0.5)
    with pytest.raises(ValueError):
        BoundsReport(1, 2, 0.2, 0.5)
    with pytest.raises(ValueError):  # a negative band
        BoundsReport(1, 2, -0.1, -0.2)
    rep = BoundsReport(1, 2, 0.5, 0.2)
    d = rep.to_dict()
    assert list(d) == [
        "transient_time",
        "convergence_time",
        "tracking_bound",
        "steady_bound",
        "assumptions_ok",
        "reasons",
    ]
    # the flag is read off the reasons, never stored beside them
    assert "assumptions_ok" not in {f.name for f in dataclasses.fields(BoundsReport)}
    assert d["assumptions_ok"] is True
    assert BoundsReport(1, 2, 0.5, 0.2, ("dwell",)).to_dict()["assumptions_ok"] is False


def test_audit_window_zero_error_trace():
    audit = audit_window([0.0, 0.0, 0.0, 0.0], BoundsReport(0, 0, 0.3, 0.0))
    assert audit["transient_time"] == 0
    assert audit["convergence_time"] == 0
    assert audit["converged"]
    with pytest.raises(ValueError):  # a window has at least one tick
        audit_window([], BoundsReport(0, 0, 0.3, 0.0))


def test_audit_window_synthetic_round_trip():
    errors = [2.0, 2.4, 1.5, 1.0, 0.6, 0.4, 0.45, 0.2, 0.3]
    audit = audit_window(errors, BoundsReport(0, 0, 0.5, 0.0))
    assert audit["converged"]
    assert audit["convergence_time"] == 5
    assert audit["transient_time"] == 1  # the initial rise pushes the start to 1
    # the 0.4 -> 0.45 wiggle inside the band is not a violation
    assert (audit["max_error"], audit["final_error"]) == (2.4, 0.3)


def test_audit_window_not_converged():
    audit = audit_window([1.0, 0.9, 0.8], BoundsReport(0, 0, 0.1, 0.0))
    assert not audit["converged"]
    assert audit["convergence_time"] is None
    assert audit["transient_time"] == 0
    assert not audit_window([0.05, 0.02, 0.2], BoundsReport(0, 0, 0.1, 0.0))["converged"]


def test_audit_window_counts_violations():
    rep = BoundsReport(1, 3, 0.5, 0.1)
    clean = [2.0, 1.4, 0.9, 0.3, 0.4, 0.2]
    audit = audit_window(clean, rep)
    assert audit["decrease_violations"] == 0
    assert audit["containment_violations"] == 0
    assert audit["containment_audited"]
    assert audit["max_error_after_convergence"] == pytest.approx(0.4)

    rising = [2.0, 1.4, 1.6, 0.3, 0.4, 0.2]  # rise above the band inside [1, 3]
    audit = audit_window(rising, rep)
    assert audit["decrease_violations"] == 1

    escaping = [2.0, 1.4, 0.9, 0.3, 0.7, 0.2]  # pops above the band after T^c
    audit = audit_window(escaping, rep)
    assert audit["containment_violations"] == 1


def test_audit_window_skips_containment_when_window_too_short():
    rep = BoundsReport(1, 10, 0.5, 0.1)
    audit = audit_window([2.0, 1.5, 1.0], rep)
    assert not audit["containment_audited"]
    assert audit["containment_violations"] == 0
    assert audit["max_error_after_convergence"] is None


@st.composite
def audited_windows(draw) -> tuple[np.ndarray, BoundsReport]:
    """An error trace that sits on the audit's edges, and a report to read it by.

    Each error is 0.0 or -0.0, the band widened by exactly ``BAND_TOL`` or a
    hair to either side of it, a value well inside or above the band, a
    repeat of the previous error, or the previous error raised by a fraction
    of ``DECREASE_TOL`` up to the whole of it.  The report's offsets may be
    ``None`` or lie beyond the window."""
    band = draw(st.sampled_from([0.0, 1e-9, 0.1, 0.5]))
    edge = band + BAND_TOL
    errors = [draw(st.sampled_from([0.0, -0.0, edge]))]
    for _ in range(draw(st.integers(0, 24))):
        prev = errors[-1]
        errors.append(
            draw(
                st.sampled_from(
                    [
                        0.0,
                        -0.0,
                        edge,
                        np.nextafter(edge, -math.inf),
                        np.nextafter(edge, math.inf),
                        band + 1e-9,
                        band - 1e-9,
                        prev,
                        prev + DECREASE_TOL,
                        prev + DECREASE_TOL / 2,
                    ]
                )
                | st.floats(0.0, 2 * band + 1.0)
            )
        )
    beyond = len(errors) + 3
    transient = draw(st.integers(0, beyond))
    convergence = draw(st.none() | st.integers(transient, beyond + 1))
    steady = draw(st.sampled_from([0.0, band]))
    return np.array(errors, dtype=float), BoundsReport(transient, convergence, band, steady)


@settings(max_examples=250, derandomize=True, deadline=None)
@given(audited_windows())
def test_audit_window_matches_the_loop_reference(window):
    """The one-pass audit returns the loop audit's record, value and type alike."""
    errors, report = window
    assert repr(audit_window(errors, report)) == repr(audit_window_reference(errors, report))
