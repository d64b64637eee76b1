"""Closed-form bound values, validation, and empirical time detection."""

from __future__ import annotations

import math

import pytest

from openmax.bounds import (
    BoundsReport,
    admc_bounds,
    audit_window,
    detect_times,
    edmc_bounds,
)

LINE6_X0 = [0.0, 0.4, 0.8, 1.2, 1.6, 2.0]


def test_admc_bounds_line_topology_numbers():
    rep = admc_bounds(5, 0.03, 0.02, LINE6_X0, 0.2, dwell=250)
    assert rep.transient_time == 5
    assert rep.convergence_time == 180  # ceil(1.8 / 0.01), not 181 from float noise
    assert rep.tracking_bound == pytest.approx(0.27, abs=1e-9)
    assert rep.steady_bound == pytest.approx(0.15, abs=1e-9)
    assert rep.assumptions_ok
    assert rep.reasons == ()


def test_admc_bounds_constant_inputs():
    rep = admc_bounds(5, 0.03, 0.0, LINE6_X0, 0.2)
    assert rep.tracking_bound == pytest.approx(0.15, abs=1e-9)
    assert rep.steady_bound == pytest.approx(0.15, abs=1e-9)
    assert rep.convergence_time == 60  # ceil(1.8 / 0.03)


def test_admc_bounds_zero_gap_gives_diameter():
    rep = admc_bounds(4, 0.1, 0.01, [0.0, 0.1, 0.2], 0.5)
    assert rep.convergence_time == 4
    rep = admc_bounds(4, 0.1, 0.01, [0.5], 0.5)
    assert rep.convergence_time == 4


def test_admc_bounds_flags_alpha_below_slope():
    rep = admc_bounds(3, 0.02, 0.05, [0.0], 0.0)
    assert not rep.assumptions_ok
    assert rep.convergence_time is None
    assert any("alpha" in r for r in rep.reasons)


def test_admc_bounds_flags_short_dwell():
    rep = admc_bounds(6, 0.1, 0.0, [0.0], 0.0, dwell=4)
    assert not rep.assumptions_ok
    assert any("dwell" in r for r in rep.reasons)


def test_admc_bounds_input_validation():
    with pytest.raises(ValueError):
        admc_bounds(-1, 0.1, 0.0, [0.0], 0.0)
    with pytest.raises(ValueError):
        admc_bounds(2, 0.0, 0.0, [0.0], 0.0)
    with pytest.raises(ValueError):
        admc_bounds(2, 0.1, -0.1, [0.0], 0.0)
    with pytest.raises(ValueError):
        admc_bounds(2, 0.1, 0.0, [], 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bounds_reject_non_finite_slope_and_gap(bad):
    with pytest.raises(ValueError, match="slope bound"):
        admc_bounds(3, 0.5, bad, [0.0], 0.0)
    with pytest.raises(ValueError, match="slope bound"):
        edmc_bounds(3, bad, diameter=3)
    # an overshoot of nan once compared below the zero floor and read as no gap
    with pytest.raises(ValueError, match="initial gap"):
        admc_bounds(3, 0.5, 0.0, [0.1, bad, 0.2], 0.0)
    with pytest.raises(ValueError, match="initial gap"):
        admc_bounds(3, 0.5, 0.0, [0.1, 0.2], bad)


def test_bounds_reject_negative_diameter_and_dwell():
    with pytest.raises(ValueError, match="diameter"):
        edmc_bounds(3, 0.0, diameter=-5)
    with pytest.raises(ValueError, match="dwell"):
        edmc_bounds(3, 0.0, diameter=3, dwell=-1)
    with pytest.raises(ValueError, match="dwell"):
        admc_bounds(3, 0.5, 0.0, [0.0], 0.0, dwell=-4)
    # zero is a legal span: a one-node window, a change every tick
    assert edmc_bounds(3, 0.0, diameter=0, dwell=3).assumptions_ok
    assert not admc_bounds(3, 0.5, 0.0, [0.0], 0.0, dwell=0).assumptions_ok


def test_admc_bounds_mirrored_min_gap():
    # min mode is bounded on negated values: the lowest state 0.9 sits 0.7
    # below the input minimum 1.6, which is a 0.7 overshoot on the max side
    rep = admc_bounds(2, 0.1, 0.03, [-2.0, -0.9, -1.2], -1.6)
    assert rep.convergence_time == max(2, -(-0.7 // 0.07))
    # states already above the input minimum: only the diameter matters
    rep = admc_bounds(3, 0.1, 0.0, [-2.0, -1.9], -1.6)
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


def test_bounds_report_validation_and_dict():
    with pytest.raises(ValueError):
        BoundsReport(5, 3, 1.0, 0.5, True)
    with pytest.raises(ValueError):
        BoundsReport(1, 2, 0.2, 0.5, True)
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


def test_detect_times_zero_error_trace():
    out = detect_times([0.0, 0.0, 0.0, 0.0], 0.3)
    assert out.transient_time == 0
    assert out.convergence_time == 0
    assert out.converged


def test_detect_times_synthetic_round_trip():
    errors = [2.0, 2.4, 1.5, 1.0, 0.6, 0.4, 0.45, 0.2, 0.3]
    out = detect_times(errors, 0.5)
    assert out.converged
    assert out.convergence_time == 5
    assert out.transient_time == 1  # the initial rise pushes the start to 1
    # the 0.4 -> 0.45 wiggle inside the band is not a violation


def test_detect_times_not_converged():
    out = detect_times([1.0, 0.9, 0.8], 0.1)
    assert not out.converged
    assert out.convergence_time is None
    assert out.transient_time == 0
    out = detect_times([0.05, 0.02, 0.2], 0.1)
    assert not out.converged


def test_detect_times_validation():
    with pytest.raises(ValueError):
        detect_times([], 0.1)
    with pytest.raises(ValueError):
        detect_times([0.1], -1.0)


def test_audit_window_counts_violations():
    rep = BoundsReport(1, 3, 0.5, 0.1, True)
    clean = [2.0, 1.4, 0.9, 0.3, 0.4, 0.2]
    audit = audit_window(clean, rep)
    assert audit.decrease_violations == 0
    assert audit.containment_violations == 0
    assert audit.audited_containment
    assert audit.max_error_after_convergence == pytest.approx(0.4)

    rising = [2.0, 1.4, 1.6, 0.3, 0.4, 0.2]  # rise above the band inside [1, 3]
    audit = audit_window(rising, rep)
    assert audit.decrease_violations == 1

    escaping = [2.0, 1.4, 0.9, 0.3, 0.7, 0.2]  # pops above the band after T^c
    audit = audit_window(escaping, rep)
    assert audit.containment_violations == 1


def test_audit_window_skips_containment_when_window_too_short():
    rep = BoundsReport(1, 10, 0.5, 0.1, True)
    audit = audit_window([2.0, 1.5, 1.0], rep)
    assert not audit.audited_containment
    assert audit.containment_violations == 0
    assert audit.max_error_after_convergence is None
