"""Closed-form bound values, validation, and the window audit."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from openmax.bounds import (
    BAND_TOL,
    DECREASE_TOL,
    BoundsReport,
    admc_bounds,
    audit_window,
    edmc_bounds,
    window_bounds,
)
from openmax.protocols import ProtocolParams

from util import audit_window_reference

LINE6_X0 = [0.0, 0.4, 0.8, 1.2, 1.6, 2.0]


def test_admc_bounds_line_topology_numbers():
    rep = admc_bounds(5, 0.03, 0.02, max(LINE6_X0) - 0.2, dwell=250)
    assert rep.transient_time == 5
    assert rep.convergence_time == 180  # ceil(1.8 / 0.01), not 181 from float noise
    assert rep.tracking_bound == pytest.approx(0.27, abs=1e-9)
    assert rep.steady_bound == pytest.approx(0.15, abs=1e-9)
    assert rep.assumptions_ok
    assert rep.reasons == ()


def test_admc_bounds_constant_inputs():
    rep = admc_bounds(5, 0.03, 0.0, max(LINE6_X0) - 0.2)
    assert rep.tracking_bound == pytest.approx(0.15, abs=1e-9)
    assert rep.steady_bound == pytest.approx(0.15, abs=1e-9)
    assert rep.convergence_time == 60  # ceil(1.8 / 0.03)


def test_admc_bounds_zero_gap_gives_diameter():
    rep = admc_bounds(4, 0.1, 0.01, max([0.0, 0.1, 0.2]) - 0.5)
    assert rep.convergence_time == 4
    rep = admc_bounds(4, 0.1, 0.01, 0.0)
    assert rep.convergence_time == 4


def test_admc_bounds_flags_alpha_below_slope():
    rep = admc_bounds(3, 0.02, 0.05, 0.0)
    assert not rep.assumptions_ok
    assert rep.convergence_time is None
    assert any("alpha" in r for r in rep.reasons)


def test_admc_bounds_flags_short_dwell():
    rep = admc_bounds(6, 0.1, 0.0, 0.0, dwell=4)
    assert not rep.assumptions_ok
    assert any("dwell" in r for r in rep.reasons)


def test_admc_bounds_input_validation():
    with pytest.raises(ValueError):
        admc_bounds(-1, 0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        admc_bounds(2, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        admc_bounds(2, 0.1, -0.1, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bounds_reject_non_finite_slope_and_gap(bad):
    with pytest.raises(ValueError, match="slope bound"):
        admc_bounds(3, 0.5, bad, 0.0)
    with pytest.raises(ValueError, match="slope bound"):
        edmc_bounds(3, bad, diameter=3)
    # an overshoot of nan once compared below the zero floor and read as no gap;
    # a non-finite state or target makes a non-finite gap
    with pytest.raises(ValueError, match="initial gap"):
        admc_bounds(3, 0.5, 0.0, bad)
    with pytest.raises(ValueError, match="initial gap"):
        admc_bounds(3, 0.5, 0.0, max([0.1, 0.2]) - bad)


def test_bounds_reject_negative_diameter_and_dwell():
    with pytest.raises(ValueError, match="diameter"):
        edmc_bounds(3, 0.0, diameter=-5)
    with pytest.raises(ValueError, match="dwell"):
        edmc_bounds(3, 0.0, diameter=3, dwell=-1)
    with pytest.raises(ValueError, match="dwell"):
        admc_bounds(3, 0.5, 0.0, 0.0, dwell=-4)
    # zero is a legal span: a one-node window, a change every tick
    assert edmc_bounds(3, 0.0, diameter=0, dwell=3).assumptions_ok
    assert not admc_bounds(3, 0.5, 0.0, 0.0, dwell=0).assumptions_ok


def test_admc_bounds_mirrored_min_gap():
    # min mode is bounded on negated values: the lowest state 0.9 sits 0.7
    # below the input minimum 1.6, which is a 0.7 overshoot on the max side
    rep = admc_bounds(2, 0.1, 0.03, max([-2.0, -0.9, -1.2]) - -1.6)
    assert rep.convergence_time == max(2, -(-0.7 // 0.07))
    # states already above the input minimum: only the diameter matters
    rep = admc_bounds(3, 0.1, 0.0, max([-2.0, -1.9]) - -1.6)
    assert rep.convergence_time == 3


def test_edmc_bounds_values():
    rep = edmc_bounds(5, 0.02, diameter=5, dwell=250)
    assert rep.transient_time == 5
    assert rep.convergence_time == 5
    assert rep.tracking_bound == pytest.approx(0.12, abs=1e-9)
    assert rep.steady_bound == 0.0
    assert rep.assumptions_ok
    assert edmc_bounds(5, 0.0).tracking_bound == 0.0
    assert edmc_bounds(1, 1.0).tracking_bound == 2.0


def test_edmc_bounds_conditions():
    rep = edmc_bounds(3, 0.0, diameter=5)
    assert not rep.assumptions_ok
    assert any("cascade depth" in r for r in rep.reasons)
    rep = edmc_bounds(7, 0.0, dwell=3)
    assert not rep.assumptions_ok


def test_window_bounds_dispatches_on_the_variant():
    """One dispatch for every caller; the exact variant ignores the gap."""
    approx = ProtocolParams("min", "approximate", alpha=0.03)
    assert window_bounds(approx, 0.02, 5, 250, 1.8) == admc_bounds(5, 0.03, 0.02, 1.8, dwell=250)
    assert window_bounds(approx, 0.02, 5, None) == admc_bounds(5, 0.03, 0.02, 0.0)
    exact = ProtocolParams("max", "exact", delta=3)
    want = edmc_bounds(3, 0.02, diameter=5, dwell=2)
    assert window_bounds(exact, 0.02, 5, 2, 1.8) == want
    assert want.reasons == (
        "cascade depth (3) is below the diameter (5); the top level cannot have heard "
        "from every agent",
        "dwell time (2) is shorter than the cascade depth (3)",
    )


def test_bounds_report_validation_and_dict():
    with pytest.raises(ValueError):
        BoundsReport(5, 3, 1.0, 0.5, True)
    with pytest.raises(ValueError):
        BoundsReport(1, 2, 0.2, 0.5, True)
    with pytest.raises(ValueError):  # a negative band
        BoundsReport(1, 2, -0.1, -0.2, True)
    rep = BoundsReport(1, 2, 0.5, 0.2, True)
    d = rep.to_dict()
    assert set(d) == {
        "transient_time",
        "convergence_time",
        "tracking_bound",
        "steady_bound",
        "assumptions_ok",
        "reasons",
    }


def test_audit_window_zero_error_trace():
    audit = audit_window([0.0, 0.0, 0.0, 0.0], BoundsReport(0, 0, 0.3, 0.0, True))
    assert audit["transient_time"] == 0
    assert audit["convergence_time"] == 0
    assert audit["converged"]
    with pytest.raises(ValueError):  # a window has at least one tick
        audit_window([], BoundsReport(0, 0, 0.3, 0.0, True))


def test_audit_window_synthetic_round_trip():
    errors = [2.0, 2.4, 1.5, 1.0, 0.6, 0.4, 0.45, 0.2, 0.3]
    audit = audit_window(errors, BoundsReport(0, 0, 0.5, 0.0, True))
    assert audit["converged"]
    assert audit["convergence_time"] == 5
    assert audit["transient_time"] == 1  # the initial rise pushes the start to 1
    # the 0.4 -> 0.45 wiggle inside the band is not a violation
    assert (audit["max_error"], audit["final_error"]) == (2.4, 0.3)


def test_audit_window_not_converged():
    audit = audit_window([1.0, 0.9, 0.8], BoundsReport(0, 0, 0.1, 0.0, True))
    assert not audit["converged"]
    assert audit["convergence_time"] is None
    assert audit["transient_time"] == 0
    assert not audit_window([0.05, 0.02, 0.2], BoundsReport(0, 0, 0.1, 0.0, True))["converged"]


def test_audit_window_counts_violations():
    rep = BoundsReport(1, 3, 0.5, 0.1, True)
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
    rep = BoundsReport(1, 10, 0.5, 0.1, True)
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
    return np.array(errors, dtype=float), BoundsReport(transient, convergence, band, steady, True)


@settings(max_examples=250, derandomize=True, deadline=None)
@given(audited_windows())
def test_audit_window_matches_the_loop_reference(window):
    """The one-pass audit returns the loop audit's record, value and type alike."""
    errors, report = window
    assert repr(audit_window(errors, report)) == repr(audit_window_reference(errors, report))
