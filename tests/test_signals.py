"""Signal tables, slope certification, and the negated-signal mirror."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

import openmax.signals as signals
from openmax.signals import (
    ClampedRandomWalk,
    Constant,
    PiecewiseLinear,
    SignalSpec,
    Sinusoid,
    SlopeCertificationError,
    certify_slope,
    signal_table,
)
from openmax.graph import line_graph
from openmax.protocols import ProtocolParams
from openmax.simulator import ScenarioError, load_scenario, make_scenario

from util import certify_slope_reference, negated_signals, table_reference

# Reference profile used by the line-topology presets: ramps with |step| 0.02,
# held flat after the last breakpoint.
RAMP_POINTS = ((0, 0.2), (60, 0.2), (80, -0.2), (100, -0.2), (140, 0.6))

# Literal step reading of the same schedule: jumps at the window edges.  Its
# realized per-tick change (0.04 at tick 100) is larger than the ramps'.
STEP_POINTS = ((0, 0.2), (59, 0.2), (60, 0.18), (99, 0.18), (100, 0.22))


def ramp_profile() -> PiecewiseLinear:
    return PiecewiseLinear(RAMP_POINTS)


def line6_signals() -> tuple[SignalSpec, ...]:
    return (*[Constant(0.2)] * 5, ramp_profile())


def slope_bound(specs: tuple[SignalSpec, ...]) -> float:
    return max(spec.slope_bound for spec in specs)


def table(specs: tuple[SignalSpec, ...], horizon: int, seed: int = 0) -> np.ndarray:
    return signal_table(specs, horizon, np.random.default_rng(seed))


def certify(specs, horizon: int, bound: float | None = None, agents=None) -> float:
    """Certify ``specs``'s table, column ``s`` named ``agents[s]`` (by default ``s + 1``)."""
    agents = range(1, len(specs) + 1) if agents is None else agents
    bound = slope_bound(specs) if bound is None else bound
    return certify_slope(table(specs, horizon), list(agents), bound)


def certify_reference(specs, horizon: int, bound: float | None = None, agents=None) -> float:
    agents = range(1, len(specs) + 1) if agents is None else agents
    want = table_reference(specs, horizon, np.random.default_rng(0))
    bound = slope_bound(specs) if bound is None else bound
    return certify_slope_reference(dict(zip(agents, want.T.tolist())), bound)


def test_constant():
    c = Constant(0.2)
    assert c.values(10_000).tolist() == [0.2] * 10_001
    assert c.slope_bound == 0.0


def test_piecewise_linear_values():
    p = ramp_profile().values(500)
    assert p.shape == (501,)
    assert p[0] == 0.2
    assert p[45] == 0.2
    assert p[70] == pytest.approx(0.0, abs=1e-15)
    assert p[90] == -0.2
    assert p[120] == pytest.approx(0.2, abs=1e-12)
    assert p[140] == 0.6
    assert p[500] == 0.6  # held after the last breakpoint
    assert PiecewiseLinear(((5, 1.0), (9, 2.0))).values(3).tolist() == [1.0] * 4  # held before
    assert ramp_profile().slope_bound == pytest.approx(0.02, rel=1e-12)


def test_piecewise_linear_validation():
    with pytest.raises(ValueError):
        PiecewiseLinear(())
    with pytest.raises(ValueError):
        PiecewiseLinear(((0, 1.0), (0, 2.0)))
    with pytest.raises(ValueError, match="2\\*\\*61"):
        PiecewiseLinear(((0, 1.0), (10**30, 2.0)))
    for tick in (1.7, 1.0, True):
        with pytest.raises(ValueError, match="must be integers"):
            PiecewiseLinear(((tick, 0.2), (3, 0.3)))
    assert PiecewiseLinear(((np.int64(1), 0.2), (3, 0.3))).points == ((1, 0.2), (3, 0.3))


def test_step_reading_has_larger_slope():
    step = PiecewiseLinear(STEP_POINTS)
    assert step.values(110)[70] == 0.18
    assert step.values(110)[110] == 0.22
    assert step.slope_bound == pytest.approx(0.04, rel=1e-12)
    assert step.slope_bound > ramp_profile().slope_bound


def test_sinusoid_bound_holds():
    s = Sinusoid(amplitude=0.5, period=40.0, offset=1.0)
    declared = s.slope_bound
    assert declared == pytest.approx(2 * math.pi * 0.5 / 40.0)
    assert np.abs(np.diff(s.values(200))).max() <= declared


def test_random_walk_is_pure_and_bounded():
    specs = (ClampedRandomWalk(step_bound=0.05, start=0.3, lo=0.0, hi=1.0),)
    w = table(specs, 100, seed=42)[:, 0]
    assert w.shape == (101,)
    assert np.all(np.abs(np.diff(w)) <= 0.05 + 1e-15)
    assert np.all((0.0 <= w) & (w <= 1.0))
    assert np.array_equal(table(specs, 100, seed=42)[:, 0], w)


def test_random_walk_rejects_crossed_clamps():
    with pytest.raises(ValueError, match="lower clamp 1.0 is above the upper clamp -1.0"):
        ClampedRandomWalk(0.01, lo=1.0, hi=-1.0)
    assert ClampedRandomWalk(0.01, lo=0.5, hi=0.5).lo == 0.5  # a pinned walk is allowed


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
    return vals


@pytest.mark.parametrize("lo, hi", [(None, None), (-0.1, 0.1), (0.0, None), (None, 0.0)])
def test_random_walk_equals_scalar_draws(lo, hi):
    got_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
    got = signal_table((ClampedRandomWalk(0.05, 0.02, lo, hi),), 1000, got_rng)[:, 0]
    want = np.array(_scalar_draw_walk(want_rng, 1000, 0.05, 0.02, lo, hi))
    assert got.tobytes() == want.tobytes()
    assert all(bound in got for bound in (lo, hi) if bound is not None)  # clamps hit
    # the stream continues where the scalar draws left it
    assert got_rng.uniform() == want_rng.uniform()


def _signals_of_every_kind() -> dict[str, tuple[SignalSpec, ...]]:
    walk_settings = [
        dict(step_bound=0.02, start=0.4, lo=-1.0, hi=1.0),
        dict(step_bound=0.05, start=-0.3, lo=-0.35),
        dict(step_bound=0.01, start=0.2, hi=0.21),
        dict(step_bound=0.03),
        dict(step_bound=0.04, start=-0.0, lo=0.0),  # Python's max keeps -0.0 here
        dict(step_bound=0.0, start=-0.0, lo=0.0, hi=0.0),
    ]
    walks = tuple(ClampedRandomWalk(**kw) for kw in walk_settings)
    return {
        "constant": tuple(Constant(0.1 * i) for i in range(1, 4)),
        "piecewise_linear": (
            ramp_profile(), PiecewiseLinear(STEP_POINTS), PiecewiseLinear(((5, 1.0),))
        ),
        "sinusoid": (Sinusoid(0.3, 37.0), Sinusoid(-1.2, 250.0, phase=0.4, offset=2.0)),
        "random_walk": walks,
        # walks between other kinds
        "mixed": (
            Constant(-0.0),
            Sinusoid(0.3, 37.0),
            walks[3],
            walks[4],
            ramp_profile(),
            walks[1],
            PiecewiseLinear(STEP_POINTS),
            ClampedRandomWalk(0.02, start=0.5, lo=0.0, hi=1.0),
        ),
    }


KINDS = ["constant", "piecewise_linear", "sinusoid", "random_walk", "mixed"]


@pytest.mark.parametrize("horizon", [1, 300])
@pytest.mark.parametrize("kind", KINDS)
def test_table_equals_scalar_reference(kind, horizon):
    specs = _signals_of_every_kind()[kind]
    got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
    got = signal_table(specs, horizon, got_rng)
    want = table_reference(specs, horizon, want_rng)
    assert got.shape == want.shape == (horizon + 1, len(specs))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert got_rng.uniform() == want_rng.uniform()


def test_table_keeps_the_clamp_tie_rule():
    got = table(_signals_of_every_kind()["random_walk"], 300)
    assert got[0, 4] == got[0, 5] == 0.0
    assert np.signbit(got[0, [4, 5]]).all()  # np.maximum(-0.0, 0.0) would give 0.0


@pytest.mark.parametrize("horizon", [1, 300])
def test_sinusoid_table_equals_math_sin(horizon):
    rng = np.random.default_rng(5)
    for _ in range(50):
        s = Sinusoid(
            float(rng.uniform(-3.0, 3.0)),
            float(rng.uniform(2.0, 500.0)),
            phase=float(rng.uniform(-50.0, 50.0)),
            offset=float(rng.uniform(-1.0, 1.0)),
        )
        want = table_reference((s,), horizon, rng)[:, 0]
        assert s.values(horizon).tobytes() == want.tobytes()


def test_piecewise_linear_table_equals_scalar_interpolation():
    rng = np.random.default_rng(6)
    for _ in range(200):
        ticks = np.sort(rng.choice(np.arange(-40, 400), size=int(rng.integers(1, 8)), replace=False))
        points = tuple((int(k), float(v)) for k, v in zip(ticks, rng.uniform(-2.0, 2.0, ticks.size)))
        spec = PiecewiseLinear(points)
        want = table_reference((spec,), 300, rng)[:, 0]
        assert spec.values(300).tobytes() == want.tobytes()


def test_bank_slope_bound_is_max_over_agents():
    """A scenario's slope bound is the largest of its signals' bounds."""
    sc = make_scenario(
        name="line6", kind="consensus", params=ProtocolParams("max", "exact", delta=6),
        reference=line_graph(6), horizon=300, seed=0, signals=line6_signals(),
    )
    assert sc.slope_bound == pytest.approx(0.02, rel=1e-12)


def test_certify_slope_accepts_conforming_bank():
    observed = certify(line6_signals(), 300)
    assert observed <= 0.02 * (1 + 1e-9)
    assert observed == pytest.approx(0.02, rel=1e-9)


def test_certify_slope_rejects_step_reading_at_ramp_bound():
    specs = (*[Constant(0.2)] * 5, PiecewiseLinear(STEP_POINTS))
    # against their own (computed) bound the step signals certify fine
    assert certify(specs, 300) == pytest.approx(0.04, rel=1e-12)
    with pytest.raises(SlopeCertificationError):
        certify(specs, 300, bound=0.02)


@pytest.mark.parametrize("kind", KINDS)
def test_certify_slope_equals_scalar_reference(kind):
    specs = _signals_of_every_kind()[kind]
    for horizon in (0, 1, 300):
        got = certify(specs, horizon)
        assert got.hex() == certify_reference(specs, horizon).hex()
    assert kind == "constant" or got > 0.0


def test_certify_slope_names_first_failing_agent_like_reference():
    # agents 4 and 7 both fail, 4 first in slot order
    specs = (Constant(0.0), ClampedRandomWalk(0.02, start=0.4, lo=-1.0, hi=1.0),
             PiecewiseLinear(STEP_POINTS))
    messages = []
    for check in (certify, certify_reference):
        with pytest.raises(SlopeCertificationError) as info:
            check(specs, 300, bound=0.015, agents=(1, 4, 7))
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("agent 4 moves by")


@pytest.mark.parametrize("cells", [1, 3, 7, 64])
def test_certify_slope_in_row_blocks_equals_one_block(cells, monkeypatch):
    """Blocks of any height return the one-block bits, and a failure names the
    first bad agent of the whole table, not of the first block that fails."""
    specs = _signals_of_every_kind()["random_walk"] + (PiecewiseLinear(STEP_POINTS),)
    whole = table(specs, 300)
    want = certify_slope(whole, list(range(len(specs))), 0.05)
    jumps = np.zeros((12, 3))
    jumps[9, 0] = jumps[2, 2] = 1.0  # agent 1 jumps at tick 9, agent 3 at tick 2
    with pytest.raises(SlopeCertificationError) as one_block:
        certify_slope(jumps, [1, 2, 3], 0.5)
    monkeypatch.setattr(signals, "_SLOPE_BLOCK_CELLS", cells)
    got = certify_slope(whole, list(range(len(specs))), 0.05)
    assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)
    with pytest.raises(SlopeCertificationError) as blocks:
        certify_slope(jumps, [1, 2, 3], 0.5)
    assert str(blocks.value) == str(one_block.value)
    assert str(blocks.value).startswith("agent 1 moves by 1 from tick 8 to 9")


def test_certify_slope_rejects_nan():
    nan_walk = np.array([[0.0, 0.0], [0.0, 0.01], [0.0, math.nan], [0.0, 0.0]])
    with pytest.raises(SlopeCertificationError, match="agent 2 moves by nan from tick 1 to 2"):
        certify_slope(nan_walk, [1, 2], 0.02)


def test_negated_bank_duality():
    every = _signals_of_every_kind()
    for kind in ("constant", "piecewise_linear", "sinusoid"):
        specs = every[kind]
        assert np.array_equal(table(negated_signals(specs), 300), -table(specs, 300))
        assert slope_bound(negated_signals(specs)) == slope_bound(specs)
    with pytest.raises(TypeError):
        negated_signals(every["random_walk"])


SIGNAL_CONFIG = """
kind: consensus
seed: 6
horizon: 90
protocol: {mode: max, variant: exact, delta: 3}
topology: {kind: line, n: 3}
signals:
  default: {kind: random_walk_clamped, step_bound: 0.1}
  agents:
    1: {kind: piecewise_linear, points: [[0, 0.2], [60, 0.2], [80, -0.2]]}
    2: {kind: random_walk_clamped, step_bound: 0.01, start: 0.5, lo: 0.0, hi: 1.0}
"""


def test_signal_configs_load_into_their_specs():
    loaded = load_scenario(SIGNAL_CONFIG)
    specs = (
        PiecewiseLinear(((0, 0.2), (60, 0.2), (80, -0.2))),
        ClampedRandomWalk(step_bound=0.01, start=0.5, lo=0.0, hi=1.0),
        ClampedRandomWalk(0.1),  # the defaults: start at 0, no clamps
    )
    built = make_scenario(
        name="built",
        kind="consensus",
        params=loaded.params,
        reference=loaded.reference,
        horizon=90,
        seed=6,
        signals=specs,
    )
    assert np.array_equal(loaded.inputs.view(np.int64), built.inputs.view(np.int64))
    assert loaded.slope_bound == built.slope_bound == 0.1
    for old, new, path in [
        ("kind: random_walk_clamped, step_bound: 0.1", "kind: white_noise", "signals.default.kind"),
        ("start: 0.5,", "start: 0.5, bogus: 2,", "signals.agents.2.bogus"),
        ("step_bound: 0.01,", "", "signals.agents.2.step_bound"),
        ("lo: 0.0, hi: 1.0", "lo: 1.0, hi: 0.0", "signals.agents.2: lower clamp 1.0 is above"),
        ("step_bound: 0.1}", "step_bound: 0.1, lo: 1.0, hi: -1.0}",
         "signals.default: lower clamp 1.0 is above"),
    ]:
        with pytest.raises(ScenarioError, match=re.escape(path)):
            load_scenario(SIGNAL_CONFIG.replace(old, new))
