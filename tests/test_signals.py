"""Signal evaluation, slope certification, and the negated-bank mirror."""

from __future__ import annotations

import math

import numpy as np
import pytest

from openmax.signals import (
    ClampedRandomWalk,
    Constant,
    PiecewiseLinear,
    SignalBank,
    Sinusoid,
    SlopeCertificationError,
    build_spec,
    certify_slope,
    sample,
)

from util import certify_slope_reference

# Reference profile used by the line-topology presets: ramps with |step| 0.02,
# held flat after the last breakpoint.
RAMP_POINTS = ((0, 0.2), (60, 0.2), (80, -0.2), (100, -0.2), (140, 0.6))

# Literal step reading of the same schedule: jumps at the window edges.  Its
# realized per-tick change (0.04 at tick 100) is larger than the ramps'.
STEP_POINTS = ((0, 0.2), (59, 0.2), (60, 0.18), (99, 0.18), (100, 0.22))


def ramp_profile() -> PiecewiseLinear:
    return PiecewiseLinear(RAMP_POINTS)


def line6_bank() -> SignalBank:
    specs = {i: Constant(0.2) for i in range(1, 6)}
    specs[6] = ramp_profile()
    return SignalBank(specs)


def test_constant():
    c = Constant(0.2)
    assert c.value(0) == 0.2
    assert c.value(10_000) == 0.2
    assert c.slope_bound == 0.0


def test_piecewise_linear_values():
    p = ramp_profile()
    assert p.value(0) == 0.2
    assert p.value(45) == 0.2
    assert p.value(70) == pytest.approx(0.0, abs=1e-15)
    assert p.value(90) == -0.2
    assert p.value(120) == pytest.approx(0.2, abs=1e-12)
    assert p.value(140) == 0.6
    assert p.value(500) == 0.6  # held after the last breakpoint
    assert p.value(-3) == 0.2
    assert p.slope_bound == pytest.approx(0.02, rel=1e-12)


def test_piecewise_linear_validation():
    with pytest.raises(ValueError):
        PiecewiseLinear(())
    with pytest.raises(ValueError):
        PiecewiseLinear(((0, 1.0), (0, 2.0)))


def test_step_reading_has_larger_slope():
    step = PiecewiseLinear(STEP_POINTS)
    assert step.value(70) == 0.18
    assert step.value(110) == 0.22
    assert step.slope_bound == pytest.approx(0.04, rel=1e-12)
    assert step.slope_bound > ramp_profile().slope_bound


def test_sinusoid_bound_holds():
    s = Sinusoid(amplitude=0.5, period=40.0, offset=1.0)
    declared = s.slope_bound
    assert declared == pytest.approx(2 * math.pi * 0.5 / 40.0)
    observed = max(abs(s.value(k + 1) - s.value(k)) for k in range(200))
    assert observed <= declared


def test_random_walk_is_pure_and_bounded():
    rng = np.random.default_rng(42)
    w = ClampedRandomWalk.generate(rng, 100, step_bound=0.05, start=0.3, lo=0.0, hi=1.0)
    assert len(w.table) == 101
    for k in range(100):
        assert abs(w.value(k + 1) - w.value(k)) <= 0.05 + 1e-15
        assert 0.0 <= w.value(k) <= 1.0
    assert w.value(100) == w.value(10_000)  # held after the table ends
    assert w.value(17) == w.value(17)
    again = ClampedRandomWalk.generate(np.random.default_rng(42), 100, 0.05, 0.3, 0.0, 1.0)
    assert again.table == w.table


def _scalar_draw_walk(rng, horizon, step_bound, start, lo=None, hi=None):
    """The walk drawn one step at a time, the reference for the sized draw."""
    x = start if lo is None else max(start, lo)
    x = x if hi is None else min(x, hi)
    vals = [x]
    for _ in range(horizon):
        x = x + float(rng.uniform(-step_bound, step_bound))
        x = x if lo is None else max(x, lo)
        x = x if hi is None else min(x, hi)
        vals.append(x)
    return tuple(vals)


@pytest.mark.parametrize("lo, hi", [(None, None), (-0.1, 0.1), (0.0, None), (None, 0.0)])
def test_random_walk_equals_scalar_draws(lo, hi):
    got_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
    w = ClampedRandomWalk.generate(got_rng, 1000, 0.05, 0.02, lo, hi)
    want = _scalar_draw_walk(want_rng, 1000, 0.05, 0.02, lo, hi)
    assert np.array(w.table).tobytes() == np.array(want).tobytes()
    assert [type(v) for v in w.table] == [float] * 1001
    assert all(bound in w.table for bound in (lo, hi) if bound is not None)  # clamps hit
    # the stream continues where the scalar draws left it
    assert got_rng.uniform() == want_rng.uniform()


def test_bank_slope_bound_is_max_over_agents():
    bank = line6_bank()
    assert bank.slope_bound == pytest.approx(0.02, rel=1e-12)


def test_certify_slope_accepts_conforming_bank():
    bank = line6_bank()
    observed = certify_slope(bank, 300)
    assert observed <= 0.02 * (1 + 1e-9)
    assert observed == pytest.approx(0.02, rel=1e-9)


def test_certify_slope_rejects_step_reading_at_ramp_bound():
    specs = {i: Constant(0.2) for i in range(1, 6)}
    specs[6] = PiecewiseLinear(STEP_POINTS)
    bank = SignalBank(specs)
    # against its own (computed) bound the step bank certifies fine
    assert certify_slope(bank, 300) == pytest.approx(0.04, rel=1e-12)
    with pytest.raises(SlopeCertificationError):
        certify_slope(bank, 300, declared_bound=0.02)


def _banks_of_every_kind() -> dict[str, SignalBank]:
    rng = np.random.default_rng(11)
    walks = {
        i: ClampedRandomWalk.generate(rng, 300, 0.02, start=0.5 * i - 1.0, lo=-1.0, hi=1.0)
        for i in range(1, 6)
    }
    walks[6] = ClampedRandomWalk.generate(rng, 120, 0.03)  # shorter: held at its last value
    return {
        "constant": SignalBank({i: Constant(0.1 * i) for i in range(1, 4)}),
        "piecewise_linear": SignalBank(
            {1: ramp_profile(), 2: PiecewiseLinear(STEP_POINTS), 3: PiecewiseLinear(((5, 1.0),))}
        ),
        "sinusoid": SignalBank(
            {1: Sinusoid(0.3, 37.0), 2: Sinusoid(-1.2, 250.0, phase=0.4, offset=2.0)}
        ),
        "random_walk": SignalBank(walks),
    }


@pytest.mark.parametrize("kind", ["constant", "piecewise_linear", "sinusoid", "random_walk"])
def test_certify_slope_equals_scalar_reference(kind):
    bank = _banks_of_every_kind()[kind]
    for horizon in (0, 1, 300):
        got = certify_slope(bank, horizon)
        assert got.hex() == certify_slope_reference(bank, horizon).hex()
    assert kind == "constant" or got > 0.0


def test_certify_slope_names_first_failing_agent_like_reference():
    banks = _banks_of_every_kind()
    # inserted out of order: agents 4 and 7 both fail, 4 first in sorted order
    bank = SignalBank(
        {
            7: PiecewiseLinear(STEP_POINTS),
            4: banks["random_walk"].specs[2],
            1: Constant(0.0),
        }
    )
    messages = []
    for certify in (certify_slope, certify_slope_reference):
        with pytest.raises(SlopeCertificationError) as info:
            certify(bank, 300, declared_bound=0.015)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("agent 4 moves by")


def test_certify_slope_rejects_nan():
    walk = ClampedRandomWalk((0.0, 0.01, math.nan, 0.0), 0.02)
    with pytest.raises(SlopeCertificationError, match="from tick 1 to 2"):
        certify_slope(SignalBank({1: Constant(0.0), 2: walk}), 10)


def test_sample_and_errors():
    bank = line6_bank()
    assert sample(bank, 1, 77) == 0.2
    assert sample(bank, 6, 70) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(KeyError):
        sample(bank, 42, 0)


def test_negated_bank_duality():
    bank = line6_bank()
    flipped = bank.negated()
    for k in (0, 33, 70, 140, 260):
        values = [sample(bank, i, k) for i in range(1, 7)]
        mirrored = [sample(flipped, i, k) for i in range(1, 7)]
        assert mirrored == [-v for v in values]
        assert min(values) == -max(mirrored)
        assert max(values) == -min(mirrored)


def test_build_spec_round_trip():
    spec = build_spec("piecewise_linear", {"points": [[0, 0.2], [60, 0.2], [80, -0.2]]})
    assert isinstance(spec, PiecewiseLinear)
    assert spec.value(70) == pytest.approx(0.0, abs=1e-15)
    walk = build_spec(
        "random_walk_clamped",
        {"step_bound": 0.01, "start": 0.5, "lo": 0.0, "hi": 1.0},
        rng=np.random.default_rng(3),
        horizon=50,
    )
    assert isinstance(walk, ClampedRandomWalk)
    with pytest.raises(ValueError):
        build_spec("white_noise", {})
    with pytest.raises(ValueError):
        build_spec("constant", {"value": 1.0, "bogus": 2})
    with pytest.raises(ValueError):
        build_spec("random_walk_clamped", {"step_bound": 0.1})
