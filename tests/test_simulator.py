"""Scenario loading, churn realization, tick loop, summaries, artifacts."""

from __future__ import annotations

import functools
import itertools
import json
import math
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import openmax.simulator as simulator
from openmax.bounds import AssumptionViolation
from openmax.cli import main
from openmax.graph import NetworkSnapshot, line_graph, snapshot_from_text
from openmax.protocols import ProtocolParams, admc_kernel
from openmax.signals import (
    Constant,
    PiecewiseLinear,
    Sinusoid,
    SlopeCertificationError,
)
from openmax.size_estimation import _open_uniform, mle_estimate
from openmax.simulator import (
    ConnectivityLost,
    DseConfig,
    RunExecutionError,
    RunResult,
    Scenario,
    ScenarioError,
    TraceOptions,
    list_presets,
    load_preset,
    load_scenario,
    load_scenario_file,
    make_scenario,
    run,
    run_size_estimation,
    scenario_from_mapping,
    write_outputs,
    _format_floats,
)

from util import (
    as_masks,
    dse_generate,
    dse_inputs_reference,
    edge_set,
    exact_kernel_calls,
    floyd_warshall_diameter,
    induced_subgraph,
    is_connected_reference,
    layout_reference,
    line4_churn_scenario,
    node_set,
    random_connected_graph,
    record_exact_kernel_calls,
    reference_outputs,
    negated_signals,
    same_bits,
    same_graph,
    signal_inputs,
    trace_row,
    write_tables_reference,
)


def test_presets_ship_with_the_package():
    assert list_presets() == (
        "ba100_dse_admc",
        "ba100_dse_edmc",
        "line6_admc",
        "line6_edmc",
    )
    with pytest.raises(ScenarioError):
        load_preset("no_such_preset")


def test_load_preset_line6_admc_fields():
    sc = load_preset("line6_admc")
    assert sc.kind == "consensus"
    assert sc.params == ProtocolParams(mode="max", variant="approximate", alpha=0.03)
    assert same_graph(sc.reference, line_graph(6))
    assert sc.horizon == 250
    assert sc.dwell == 250
    assert sc.slope_bound == 0.02
    assert len(sc.windows) == 1
    assert sc.initial_states.tolist() == [0.0, 0.4, 0.8, 1.2, 1.6, 2.0]  # in slot order
    assert sc.initial_states.dtype == np.float64 and not sc.initial_states.flags.writeable
    assert sc.inputs.shape == (251, 6)
    assert sc.inputs[70, 5] == pytest.approx(0.0, abs=1e-15)


def test_line6_admc_run_reproduces_bounds():
    res = run(load_preset("line6_admc"))
    w = res.summary["windows"][0]
    assert w["bounds"]["transient_time"] == 5
    assert w["bounds"]["convergence_time"] == 180
    assert w["bounds"]["tracking_bound"] == pytest.approx(0.27, abs=1e-9)
    assert w["bounds"]["steady_bound"] == pytest.approx(0.15, abs=1e-9)
    assert w["bounds"]["assumptions_ok"]
    emp = w["empirical"]
    assert emp["converged"]
    assert emp["decrease_violations"] == 0
    assert emp["containment_violations"] == 0
    assert emp["max_error_after_convergence"] <= 0.27 + 1e-9
    # the inputs are constant from tick 140 on, so the tail obeys the
    # steady-state band
    assert np.all(res.trace.errors[-20:] <= 0.15 + 1e-9)


def test_line6_edmc_run_times_and_delay_identity():
    res = run(load_preset("line6_edmc"))
    w = res.summary["windows"][0]
    assert w["bounds"]["convergence_time"] == 5
    assert w["bounds"]["tracking_bound"] == pytest.approx(0.12, abs=1e-9)
    assert w["bounds"]["steady_bound"] == 0.0
    assert w["empirical"]["convergence_time"] <= 5
    # the top level reproduces the input maximum delayed by depth + 1
    for k in range(6, 251):
        expected = res.trace.targets[k - 6]
        for agent, value in trace_row(res, res.trace.outputs, k).items():
            assert value == pytest.approx(expected, abs=1e-12)


def test_run_matches_inline_loop():
    sc = load_preset("line6_admc")
    res = run(sc)
    g = sc.reference
    hood = g.layout()
    X = sc.initial_states.copy()
    for k in range(40):
        outs = dict(zip(g.ids.tolist(), X.tolist()))
        assert outs == trace_row(res, res.trace.outputs, k)
        target = max(sc.inputs[k].tolist())
        assert res.trace.targets[k] == target
        assert res.trace.errors[k] == max(abs(v - target) for v in outs.values())
        admc_kernel(X, sc.inputs[k], hood, sc.params.alpha)


def test_run_is_deterministic(tmp_path):
    first = run(load_preset("line6_admc"))
    second = run(load_preset("line6_admc"))
    assert np.array_equal(first.trace.errors, second.trace.errors)
    assert json.dumps(first.summary) == json.dumps(second.summary)
    a = write_outputs(first, tmp_path / "a")
    b = write_outputs(second, tmp_path / "b")
    assert a["trace"].read_bytes() == b["trace"].read_bytes()
    assert a["summary"].read_bytes() == b["summary"].read_bytes()


def test_explicit_churn_windows_and_arrival_reset():
    sc = line4_churn_scenario()
    assert [(w.start, w.end, w.graph.n) for w in sc.windows] == [
        (0, 9, 4),
        (10, 19, 3),
        (20, 30, 4),
    ]
    assert node_set(sc.windows[1].graph) == {1, 2, 3}
    res = run(sc)
    assert list(res.trace.n_active[[0, 10, 20]]) == [4, 3, 4]
    # while the strongest input's holder is away, the target drops
    assert res.trace.targets[5] == 0.9
    assert res.trace.targets[15] == 0.3
    # the returning agent restarts from its own current input
    assert trace_row(res, res.trace.outputs, 20)[4] == sc.inputs[20, 3] == 0.9  # agent 4, slot 3
    # and its edge to agent 3 is restored, so agent 1 re-converges
    tail = res.trace.errors[res.summary["windows"][2]["bounds"]["convergence_time"] + 20 :]
    assert np.all(tail <= res.summary["windows"][2]["bounds"]["tracking_bound"] + 1e-9)


CHURNED_LINE4 = """
kind: consensus
seed: 1
horizon: 30
protocol: {mode: max, variant: approximate, alpha: 0.2}
topology: {kind: line, n: 4}
signals: {default: {kind: constant, value: 0.5}}
churn: {kind: explicit, events: [{tick: 10, deactivate: [4]}, {tick: 20, activate: [4]}]}
"""


def test_load_searches_each_window_once_and_nothing_else_searches(monkeypatch, tmp_path):
    """Load finds every window's diameter by one search of its layout, which
    also checks it connected; the runs and ``validate`` search nothing."""
    calls = {"diameter": 0, "is_connected": 0}
    for name in calls:
        def counted(layout, _name=name, _search=getattr(simulator, name)):
            calls[_name] += 1
            return _search(layout)
        monkeypatch.setattr(simulator, name, counted)

    sc = load_scenario(CHURNED_LINE4)
    assert len(sc.windows) == 3 and calls == {"diameter": 3, "is_connected": 0}
    run(sc)
    assert calls == {"diameter": 3, "is_connected": 0}
    config = tmp_path / "churned.yaml"
    config.write_text(CHURNED_LINE4)
    assert main(["validate", "--scenario", str(config)]) == 0
    assert calls == {"diameter": 6, "is_connected": 0}  # validate's own load, and no more

    dse = load_preset("ba100_dse_edmc")  # pool churn tests each draw's connectivity
    assert calls["diameter"] == 6 + len(dse.windows)
    calls.update(diameter=0, is_connected=0)
    res = run_size_estimation(dse)
    assert calls == {"diameter": 0, "is_connected": 0}

    line4 = line4_churn_scenario()
    for sc, summary in ((dse, res.summary), (line4, run(line4).summary)):
        assert [w.diameter for w in sc.windows] == [
            floyd_warshall_diameter(w.graph) for w in sc.windows
        ] == [row["diameter"] for row in summary["windows"]]
    assert [w.diameter for w in sc.windows] == [3, 2, 3]


def test_min_mode_mirrors_negated_max():
    signals = (PiecewiseLinear(((0, 0.5), (10, -0.3), (20, 0.1))), Constant(-0.2), Constant(0.4))
    common = dict(
        kind="consensus",
        reference=line_graph(3),
        horizon=25,
        seed=1,
        changes=as_masks(line_graph(3), [(12, {1, 2}), (24, {1, 2, 3})]),
        dwell=12,
    )
    low = run(
        make_scenario(
            name="low",
            params=ProtocolParams(mode="min", variant="approximate", alpha=0.2),
            signals=signals,
            **common,
        )
    )
    high = run(
        make_scenario(
            name="high",
            params=ProtocolParams(mode="max", variant="approximate", alpha=0.2),
            signals=negated_signals(signals),
            **common,
        )
    )
    assert np.array_equal(low.trace.errors, high.trace.errors)
    assert np.array_equal(low.trace.targets, -high.trace.targets)
    for k in range(26):
        mirror = trace_row(high, high.trace.outputs, k)
        for i, v in trace_row(low, low.trace.outputs, k).items():
            assert v == -mirror[i]


def test_ba_preset_churn_touches_only_the_pool():
    sc = load_preset("ba100_dse_admc")
    ids = sc.reference.ids.tolist()  # ascending, so in insertion order
    core = frozenset(ids[:-25])
    assert len(sc.windows) == 5
    assert [w.start for w in sc.windows] == [0, 120, 240, 360, 480]
    for w in sc.windows:
        assert core <= node_set(w.graph)
    for before, after in zip(sc.windows, sc.windows[1:]):
        assert node_set(before.graph) ^ node_set(after.graph) <= set(ids[-25:])


def test_window_arrivals_are_the_slots_the_window_before_lacks():
    returning = load_scenario(
        "kind: consensus\nseed: 2\nhorizon: 30\n"
        "protocol: {mode: max, variant: approximate, alpha: 0.2}\n"
        "topology: {kind: line, n: 4}\nsignals: {default: {kind: constant, value: 0.5}}\n"
        "churn: {kind: explicit, events: [{tick: 10, deactivate: [4]}, {tick: 20, activate: [4]}]}\n"
    )
    assert [w.arrivals.tolist() for w in returning.windows] == [[0, 1, 2, 3], [], [3]]
    for sc in (returning, load_preset("ba100_dse_edmc")):
        first = sc.windows[0]
        assert not any(w.arrivals.flags.writeable for w in sc.windows)
        assert first.arrivals.tobytes() == first.slots.tobytes()
        for before, w in zip(sc.windows, sc.windows[1:]):
            assert w.arrivals.tobytes() == np.setdiff1d(w.slots, before.slots).tobytes()


def test_windows_are_induced_subgraphs_of_the_reference():
    # 4 hangs off both 2 and 3; it leaves, 3 leaves, 4 returns, 3 returns
    reference = NetworkSnapshot.from_edges([1, 2, 3, 4], [(1, 2), (2, 3), (2, 4), (3, 4)])
    sc = line4_churn_scenario(
        reference=reference,
        horizon=40,
        changes=[(10, {1, 2, 3}), (20, {1, 2, 4}), (30, {1, 2, 3, 4})],
    )
    assert [edge_set(w.graph) for w in sc.windows] == [
        edge_set(reference),
        frozenset({(1, 2), (2, 3)}),
        frozenset({(1, 2), (2, 4)}),  # 3-4 stays off while 3 is inactive
        edge_set(reference),  # every reference edge is back
    ]
    ba = load_preset("ba100_dse_admc")
    for sc in (sc, ba):
        for w in sc.windows:
            rows, levels = w.layout
            kept = sc.reference.ids[w.slots].tolist()
            assert (rows.tolist(), [nbr.tolist() for nbr in levels]) == layout_reference(
                sc.reference, kept
            )


def test_seed_override_re_realizes_randomness():
    default = load_preset("ba100_dse_admc")
    same = load_preset("ba100_dse_admc")
    other = load_preset("ba100_dse_admc", seed=123456)
    assert len(default.windows) == len(same.windows)
    assert all(same_graph(a.graph, b.graph) for a, b in zip(default.windows, same.windows))
    assert other.seed == 123456
    assert (
        not same_graph(default.reference, other.reference)
        or [node_set(w.graph) for w in default.windows] != [node_set(w.graph) for w in other.windows]
    )


def test_make_scenario_rejects_bad_shapes():
    good = line4_churn_scenario()
    assert good.dwell == 10
    with pytest.raises(ScenarioError):
        line4_churn_scenario(kind="average")
    with pytest.raises(ScenarioError):
        line4_churn_scenario(horizon=0)
    with pytest.raises(ScenarioError):
        line4_churn_scenario(changes=[(10, {1, 2, 3}), (20, {1, 2, 3})])  # no-op change
    with pytest.raises(ScenarioError):
        line4_churn_scenario(changes=[(10, set())])
    with pytest.raises(ScenarioError):
        line4_churn_scenario(changes=[(40, {1, 2, 3})])  # beyond the horizon
    with pytest.raises(ScenarioError):
        line4_churn_scenario(signals=None)
    for count in (3, 5):  # one signal a slot, no more and no fewer
        with pytest.raises(ScenarioError, match=f"{count} signals for 4 agents"):
            line4_churn_scenario(signals=(Constant(0.1),) * count)
    with pytest.raises(ScenarioError):
        line4_churn_scenario(dse=DseConfig(p=4))
    with pytest.raises(ScenarioError):
        line4_churn_scenario(initial_states=[0.0])  # incomplete cover
    with pytest.raises(ScenarioError):
        line4_churn_scenario(initial_states=[[0.0, 0.1, 0.2, 0.3]])  # not one number a slot
    with pytest.raises(ScenarioError):
        line4_churn_scenario(initial_states=[0.0, 0.1, 0.2, math.inf])


def test_make_scenario_takes_changes_as_boolean_masks():
    parts = dict(
        name="masks", kind="consensus", params=ProtocolParams("max", "approximate", alpha=0.1),
        reference=line_graph(3), horizon=20, seed=0, dwell=10,
        signals=tuple(Constant(0.1 * i) for i in (1, 2, 3)),
    )
    for bad in (np.array([1, 1, 0]), np.array([True, True]), np.ones((3, 1), dtype=bool)):
        with pytest.raises(ScenarioError, match="at tick 10 is not a boolean mask"):
            make_scenario(**parts, changes=[(10, bad)])
    mask = np.array([True, True, False])
    sc = make_scenario(**parts, changes=[(10, mask)])
    assert sc.windows[1].slots.tolist() == [0, 1]
    assert sc.windows[1].graph.n == 2
    assert not any(a.flags.writeable for w in sc.windows for a in (w.keep, w.slots))
    assert mask.flags.writeable  # the window holds its own copy


def test_make_scenario_enforces_assumptions():
    """Changes closer than the dwell and a lost connection fail the load;
    broken tuning loads, runs, and is each window's reason."""
    with pytest.raises(AssumptionViolation):
        line4_churn_scenario(dwell=15)  # changes 10 ticks apart
    slow = line4_churn_scenario(
        params=ProtocolParams(mode="max", variant="approximate", alpha=0.01),
        signals=(PiecewiseLinear(((0, 0.0), (10, 0.5))),) * 4,
    )
    reason = "decay alpha (0.01) must exceed the input slope bound (0.05) for the error to shrink"
    assert [w["bounds"]["reasons"] for w in run(slow).summary["windows"]] == [[reason]] * 3
    deep = line4_churn_scenario(
        params=ProtocolParams(mode="max", variant="exact", delta=11), dwell=10
    )
    reason = "dwell time (10) is shorter than the cascade depth (11)"
    assert [w["bounds"]["reasons"] for w in run(deep).summary["windows"]] == [[reason]] * 3
    with pytest.raises(ScenarioError, match="cascade depth 31 exceeds the horizon 30"):
        line4_churn_scenario(params=ProtocolParams(mode="max", variant="exact", delta=31))
    # middle node removal disconnects the line
    with pytest.raises(ConnectivityLost):
        line4_churn_scenario(changes=[(10, {1, 2, 4})])


def test_load_scenario_yaml_errors():
    good = """
name: tiny
kind: consensus
seed: 3
horizon: 20
protocol: {mode: max, variant: approximate, alpha: 0.1}
topology: {kind: line, n: 3}
signals:
  default: {kind: constant, value: 0.5}
"""
    sc = load_scenario(good)
    assert sc.name == "tiny"
    assert sc.slope_bound == 0.0
    with pytest.raises(ScenarioError, match="decay alpha"):
        load_scenario(good.replace("alpha: 0.1", ""))
    with pytest.raises(ScenarioError, match="kind"):
        load_scenario(good.replace("kind: consensus", "kind: magic"))
    with pytest.raises(ScenarioError, match="unknown keys"):
        load_scenario(good + "\nbogus: 1\n")
    with pytest.raises(ScenarioError, match="seed"):
        load_scenario(good.replace("seed: 3", ""))
    with pytest.raises(ScenarioError, match="no signal"):
        load_scenario(
            good.replace(
                "  default: {kind: constant, value: 0.5}",
                "  agents:\n    1: {kind: constant, value: 0.5}",
            )
        )
    with pytest.raises(ScenarioError):
        load_scenario("just: [unbalanced")
    with pytest.raises(ScenarioError, match="initial_states"):
        load_scenario(good + "\ninitial_states: [1.0, 2.0]\n")
    # a mapping is put in slot order, so it names each agent of the topology once
    with pytest.raises(ScenarioError, match=r"initial_states: agents \[3\] have no initial state"):
        load_scenario(good + "\ninitial_states: {2: 1.0, 1: 2.0}\n")
    with pytest.raises(ScenarioError, match=r"initial_states names agents \[0\] that are not"):
        load_scenario(good + "\ninitial_states: {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}\n")
    mapped = load_scenario(good + "\ninitial_states: {3: 1.0, 1: 2.0, 2: 3.0}\n")
    assert mapped.initial_states.tolist() == [2.0, 3.0, 1.0]
    with pytest.raises(ScenarioError, match="dse"):
        load_scenario(good + "\ndse: {p: 4}\n")


def test_load_scenario_explicit_topology_and_churn():
    text = """
kind: consensus
seed: 11
horizon: 30
dwell: 10
protocol: {mode: max, variant: approximate, alpha: 0.1}
topology:
  kind: explicit
  text: |
    nodes: 1 2 3 4
    1 2
    2 3
    3 4
signals:
  default: {kind: constant, value: 0.2}
  agents:
    4: {kind: constant, value: 0.9}
churn:
  kind: explicit
  events:
    - {tick: 10, deactivate: [4]}
    - {tick: 20, activate: [4]}
"""
    sc = load_scenario(text, name="from_text")
    assert sc.name == "from_text"
    assert [w.graph.n for w in sc.windows] == [4, 3, 4]
    assert same_graph(sc.windows[2].graph, sc.reference)
    with pytest.raises(ScenarioError, match=r"events\.1\.deactivate\.0 deactivates already-inactive"):
        load_scenario(text.replace("{tick: 20, activate: [4]}", "{tick: 20, deactivate: [4]}"))
    with pytest.raises(ScenarioError, match=r"events\.0\.activate\.0 activates already-active node 3"):
        load_scenario(text.replace("deactivate: [4]", "activate: [3]"))
    with pytest.raises(ScenarioError, match=r"churn\.events\.0\.deactivate\.0: node 9 is not part"):
        load_scenario(text.replace("deactivate: [4]", "deactivate: [9]"))
    with pytest.raises(AssumptionViolation):
        load_scenario(text.replace("tick: 20", "tick: 15"))
    with pytest.raises(ConnectivityLost):
        load_scenario(
            text.replace("deactivate: [4]", "deactivate: [2]").replace(
                "activate: [4]", "activate: [2]"
            )
        )


def test_load_scenario_file_uses_stem_as_name(tmp_path):
    path = tmp_path / "my_case.yaml"
    path.write_text(
        """
kind: consensus
seed: 9
horizon: 10
protocol: {mode: max, variant: exact, delta: 2}
topology: {kind: line, n: 3}
signals:
  default: {kind: constant, value: 1.0}
"""
    )
    sc = load_scenario_file(path)
    assert sc.name == "my_case"
    assert sc.params.delta == 2


def dse_line5_scenario(variant: str) -> Scenario:
    params = (
        ProtocolParams(mode="max", variant="exact", delta=4)
        if variant == "exact"
        else ProtocolParams(mode="max", variant="approximate", alpha=0.05)
    )
    return make_scenario(
        name=f"dse_{variant}",
        kind="size_estimation",
        params=params,
        reference=line_graph(5),
        horizon=24,
        seed=31,
        changes=as_masks(line_graph(5), [(8, {1, 2, 3, 4}), (16, {1, 2, 3, 4, 5})]),
        dwell=8,
        dse=DseConfig(p=6, mc_trials=50),
    )


@pytest.mark.parametrize("slope", [0.0, 0.1])
def test_size_estimation_rejects_a_declared_slope(slope):
    """Size-estimation inputs hold still between changes, so a declared slope
    bound has nothing to bound: it fails rather than being dropped."""
    with pytest.raises(ScenarioError, match="no input slope"):
        make_scenario(
            name="dse", kind="size_estimation", params=ProtocolParams("max", "exact", delta=4),
            reference=line_graph(5), horizon=24, seed=31, dse=DseConfig(p=6),
            declared_slope=slope,
        )


def test_dse_exact_agreement_and_regeneration():
    res = run_size_estimation(dse_line5_scenario("exact"))
    for w in res.summary["windows"]:
        assert w["empirical"]["converged"]
        assert w["steady"]["agree_exactly"]
        assert w["steady"]["mean_estimate"] == pytest.approx(w["steady"]["target_estimate"])
        assert w["bounds"]["steady_bound"] == 0.0
        assert w["expected_closed_form"] == pytest.approx(5 * 6 / 5 * w["n_true"] / 5, rel=0.5)
    # the returning agent drew a fresh vector, so its first estimate after
    # the rejoin differs from its original one
    rejoined = trace_row(res, res.trace.outputs, 16)[5]
    assert rejoined != trace_row(res, res.trace.outputs, 0)[5]
    assert rejoined == pytest.approx(res.summary["windows"][2]["steady"]["target_estimate"], rel=10)
    # summary carries the comparison keys
    for key in ("expected_closed_form", "monte_carlo_mean", "ci99"):
        assert key in res.summary


def test_dse_approximate_underestimates_at_steady():
    res = run_size_estimation(dse_line5_scenario("approximate"))
    for w in res.summary["windows"]:
        assert w["empirical"]["converged"]
        ests = trace_row(res, res.trace.outputs, w["end"])
        assert max(ests.values()) <= w["steady"]["target_estimate"] + 1e-12
        assert w["epsilon"] == pytest.approx(0.05 * w["diameter"])


def test_dse_run_is_deterministic():
    a = run_size_estimation(dse_line5_scenario("exact"))
    b = run_size_estimation(dse_line5_scenario("exact"))
    assert np.array_equal(a.trace.targets, b.trace.targets)
    for k in range(a.scenario.horizon + 1):
        assert trace_row(a, a.trace.outputs, k) == trace_row(b, b.trace.outputs, k)
    assert json.dumps(a.summary) == json.dumps(b.summary)


def test_run_rejects_kind_mismatch():
    with pytest.raises(ScenarioError):
        run(dse_line5_scenario("exact"))
    with pytest.raises(ScenarioError):
        run_size_estimation(load_preset("line6_admc"))


def test_non_finite_states_abort_with_tick_context():
    parts = dict(
        name="nan_case",
        kind="consensus",
        params=ProtocolParams(mode="max", variant="approximate", alpha=0.1),
        reference=line_graph(2),
        horizon=5,
        seed=0,
    )
    # a NaN input is rejected when the scenario is built...
    with pytest.raises(ScenarioError, match="agent 1 has input nan at tick 0"):
        make_scenario(**parts, signals=(Constant(float("nan")), Constant(0.2)))
    # ...and the run-time finite check still stops a table that got past it
    sc = make_scenario(**parts, signals=(Constant(0.1), Constant(0.2)))
    nan_table = sc.inputs.copy()
    nan_table[:, 0] = np.nan
    with pytest.raises(RunExecutionError, match="tick 0"):
        run(replace(sc, inputs=nan_table))


def test_make_scenario_rejects_signals_past_the_float_range():
    parts = dict(
        name="overflow",
        kind="consensus",
        params=ProtocolParams(mode="max", variant="exact", delta=3),
        reference=line_graph(3),
        horizon=40,
        seed=1,
    )

    def everyone(spec):
        return (spec,) * 3

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning on the way
        with pytest.raises(ScenarioError, match="slope bound inf is not finite"):
            make_scenario(**parts, signals=everyone(Sinusoid(1.0e308, 0.5)))
        # 1e308 + 1e308 * sin(pi / 2) at tick 1
        with pytest.raises(ScenarioError, match="agent 1 has input inf at tick 1"):
            make_scenario(**parts, signals=everyone(Sinusoid(1.0e308, 4.0, offset=1.0e308)))
        # finite values whose change is past the float range break any finite bound
        jump = everyone(PiecewiseLinear(((0, -1.0e308), (1, 1.0e308))))
        with pytest.raises(SlopeCertificationError, match="agent 1 moves by inf"):
            make_scenario(**parts, signals=jump, declared_slope=1.0)


def test_write_outputs_layout_and_formats(tmp_path):
    sc = line4_churn_scenario()
    res = run(sc)
    paths = write_outputs(res, tmp_path)
    lines = paths["trace"].read_text().splitlines()
    assert lines[0] == "tick,agent,x,u,e,n_active"
    assert len(lines) == 1 + int(res.trace.n_active.sum())
    summary = json.loads(paths["summary"].read_text())
    assert summary["scenario"] == "mini"
    assert len(summary["windows"]) == 3
    plot = (paths["plotdata"] / "state_trajectories.csv").read_text().splitlines()
    assert plot[0] == "tick,target,x_1,x_2,x_3,x_4"
    # agent 4 is away during the middle window, so its column is blank there
    assert plot[1 + 15].split(",")[-1] == ""
    for w in sc.windows:
        g = snapshot_from_text((paths["plotdata"] / f"graph_window_{w.start}.txt").read_text())
        assert same_graph(g, w.graph)


def test_write_outputs_respects_trace_options(tmp_path):
    sc = line4_churn_scenario(trace=TraceOptions(csv=False, plotdata=False))
    paths = write_outputs(run(sc), tmp_path)
    assert set(paths) == {"summary"}
    assert not (tmp_path / "trace.csv").exists()
    assert not (tmp_path / "plotdata").exists()


def test_write_outputs_leaves_no_artifact_of_an_earlier_run(tmp_path):
    """A run written over another run's directory deletes the artifacts of
    that run it does not rewrite (graphs of other window starts, a trace or
    plot data switched off, the other kind's plot table) and nothing else."""
    def files():
        return sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())

    write_outputs(run_size_estimation(dse_line5_scenario("approximate")), tmp_path)
    write_outputs(run(line4_churn_scenario()), tmp_path)  # windows from ticks 0, 10 and 20
    assert "plotdata/size_estimates.csv" not in files()
    (tmp_path / "notes.txt").write_text("kept")
    (tmp_path / "plotdata" / "graph_window_notes.txt").write_text("kept")
    moved = line4_churn_scenario(changes=[(15, {1, 2, 3})], dwell=15)  # windows from 0 and 15
    write_outputs(run(moved), tmp_path)
    graphs = ["plotdata/graph_window_0.txt", "plotdata/graph_window_15.txt"]
    kept = ["notes.txt", "plotdata/graph_window_notes.txt"]
    table = "plotdata/state_trajectories.csv"
    assert files() == sorted(["summary.json", "trace.csv", table, *graphs, *kept])
    hidden = replace(moved, trace=TraceOptions(csv=False, plotdata=False))
    write_outputs(run(hidden), tmp_path)
    assert files() == sorted(["summary.json", *kept])
    (tmp_path / kept[1]).unlink()
    write_outputs(run(hidden), tmp_path)
    assert files() == ["notes.txt", "summary.json"]
    assert not (tmp_path / "plotdata").exists()  # an emptied plotdata/ goes too


def test_format_floats_equals_repr():
    tiny = 5e-324  # the smallest subnormal
    values = [0.0, -0.0, 0.1, 0.1, -0.0, 1e-5, -1e-5, 1e16, 1e-5, tiny, -tiny, 2.5e-310, 0.0, 1 / 3]
    got = _format_floats(np.array(values))
    assert got.tolist() == [repr(v) for v in values]


def test_repeated_ticks_reuse_strings_only_for_equal_bits(tmp_path):
    """Rows that repeat, and rows that differ from the tick before only in
    the sign of a zero, print as each cell's own ``repr``."""
    res = run(line4_churn_scenario())
    rng = np.random.default_rng(9)
    rows = np.array([[0.0, 0.1, -0.0, 0.2], [-0.0, 0.1, 0.0, 0.2], [0.3, 0.1, 0.0, 1 / 3]])
    tables = []
    for _ in range(2):
        table = rows[rng.integers(0, 3, size=res.scenario.horizon + 1)]
        table[np.isnan(res.trace.outputs)] = np.nan
        tables.append(table)
    trace = replace(res.trace, outputs=tables[0])
    scenario = replace(res.scenario, inputs=tables[1])
    paths = write_outputs(RunResult(scenario, trace, res.summary), tmp_path)
    lines = paths["trace"].read_text().splitlines()[1:]
    want = []
    for k in range(res.scenario.horizon + 1):
        xs, us = (trace_row(res, table, k) for table in tables)
        want += [f"{k},{i},{xs[i]!r},{us[i]!r}" for i in xs]
    assert [line.rsplit(",", 2)[0] for line in lines] == want
    plot = (paths["plotdata"] / "state_trajectories.csv").read_text().splitlines()[1:]
    for k, line in enumerate(plot):
        assert line.split(",")[2:] == ["" if math.isnan(v) else repr(v) for v in tables[0][k].tolist()]


@pytest.mark.parametrize("kind", ["consensus", "size_estimation"])
def test_trace_and_plot_written_alone_match_a_full_write(kind, tmp_path):
    if kind == "consensus":
        res = run(line4_churn_scenario(params=ProtocolParams(mode="min", variant="exact", delta=3)))
    else:
        res = run_size_estimation(dse_line5_scenario("approximate"))

    def write(name, **flags):
        alone = RunResult(replace(res.scenario, trace=TraceOptions(**flags)), res.trace, res.summary)
        return write_outputs(alone, tmp_path / name)

    full = write("full")
    trace_only = write("trace", plotdata=False)
    plot_only = write("plot", csv=False)
    assert set(trace_only) == {"summary", "trace"}
    assert set(plot_only) == {"summary", "plotdata"}
    assert trace_only["trace"].read_bytes() == full["trace"].read_bytes()
    files = sorted(f.name for f in full["plotdata"].iterdir())
    assert sorted(f.name for f in plot_only["plotdata"].iterdir()) == files
    for name in files:
        assert (plot_only["plotdata"] / name).read_bytes() == (full["plotdata"] / name).read_bytes()


@functools.cache
def _written_run(kind: str) -> RunResult:
    """A churned run of each kind whose tables the writer property redraws."""
    if kind == "consensus":
        return run(line4_churn_scenario(params=ProtocolParams(mode="min", variant="exact", delta=3)))
    return run_size_estimation(dse_line5_scenario("approximate"))


# both zeros, so rows can differ from the tick before only in a zero's sign
WRITTEN = st.sampled_from([0.0, -0.0, 0.1, -0.1, 1 / 3, 1e16, 5e-324, -2.5])


@st.composite
def written_runs(draw):
    """A run whose every table is redrawn from few rows held for runs of ticks:
    repeated rows, rows that differ only in a zero's sign, and (consensus)
    ticks whose values repeat while their error moves.  Inactive cells hold NaN."""
    res = _written_run(draw(st.sampled_from(["consensus", "size_estimation"])))
    ticks, slots = res.scenario.horizon + 1, res.scenario.reference.n
    active = np.zeros((ticks, slots), dtype=bool)
    for w in res.scenario.windows:
        active[w.start : w.end + 1, w.slots] = True

    def table():
        rows = draw(st.lists(st.lists(WRITTEN, min_size=slots, max_size=slots), min_size=1, max_size=3))
        rows.append([-v if v == 0 else v for v in rows[0]])
        held = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), st.integers(1, 8)), min_size=1))
        order = [i for i, run_length in held for _ in range(run_length)]
        out = np.array(rows)[(order * ticks)[:ticks]]
        out[~active] = np.nan
        return out

    if res.scenario.kind == "consensus":
        errors = np.array(draw(st.lists(WRITTEN, min_size=ticks, max_size=ticks)))
        trace = replace(res.trace, outputs=table(), errors=errors)
        scenario = replace(res.scenario, inputs=table())
    else:
        trace, scenario = replace(res.trace, outputs=table()), res.scenario
    flags = dict(csv=draw(st.booleans()), plotdata=draw(st.booleans()))
    return RunResult(replace(scenario, trace=TraceOptions(**flags)), trace, res.summary)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(written_runs())
def test_writer_matches_the_per_line_oracle(res):
    """``trace.csv`` and the plot CSV are the per-line oracle's bytes, for
    every combination of the two trace options."""
    with tempfile.TemporaryDirectory() as tmp:
        out, want = Path(tmp, "out"), Path(tmp, "want")
        want.mkdir()
        write_tables_reference(res, want / "trace.csv", want / "plot.csv")
        paths = write_outputs(res, out)
        assert ("trace" in paths) == res.scenario.trace.csv
        assert ("plotdata" in paths) == res.scenario.trace.plotdata
        if res.scenario.trace.csv:
            assert paths["trace"].read_bytes() == (want / "trace.csv").read_bytes()
        if res.scenario.trace.plotdata:
            name = "state_trajectories" if res.scenario.kind == "consensus" else "size_estimates"
            assert (paths["plotdata"] / f"{name}.csv").read_bytes() == (want / "plot.csv").read_bytes()


def test_dse_outputs_layout(tmp_path):
    res = run_size_estimation(dse_line5_scenario("exact"))
    paths = write_outputs(res, tmp_path)
    lines = paths["trace"].read_text().splitlines()
    assert lines[0] == "tick,agent,n_hat"
    plot = (paths["plotdata"] / "size_estimates.csv").read_text().splitlines()
    assert plot[0] == "tick,n_true,target_estimate,nhat_1,nhat_2,nhat_3,nhat_4,nhat_5"
    assert plot[1 + 10].split(",")[1] == "4"  # the staircase dips with the departure


def _churned_scenario(rng, variant, mode, read_departing, **kw):
    """Random connected reference graph on 6 to 11 nodes whose agents leave
    and rejoin at ticks 8, 16 and 24; every window stays connected.  Given
    ``signals`` for 11 slots, the graph's slots take the first of them."""
    ref = random_connected_graph(rng, int(rng.integers(6, 12)), extra_edge_prob=0.25)
    if "signals" in kw:
        kw["signals"] = kw["signals"][: ref.n]
    changes, active = [], node_set(ref)
    for tick in (8, 16, 24):
        while True:
            keep = frozenset(v for v in ref.ids.tolist() if rng.random() < 0.7)
            if keep and keep != active and is_connected_reference(induced_subgraph(ref, keep)):
                break
        changes.append((tick, keep))
        active = keep
    exact = variant == "exact"
    params = ProtocolParams(
        mode,
        variant,
        alpha=None if exact else 0.25,
        delta=3 if exact else None,
        read_departing=read_departing,
    )
    return make_scenario(
        name="oracle", params=params, reference=ref, horizon=32, seed=int(rng.integers(1000)),
        changes=as_masks(ref, changes), **kw,
    )


@pytest.mark.parametrize("read_departing", [True, False])
@pytest.mark.parametrize("variant", ["approximate", "exact"])
@pytest.mark.parametrize("mode", ["max", "min"])
def test_consensus_engine_matches_per_agent_oracle(mode, variant, read_departing):
    """Scalar states under churn; inputs on a grid of quarters with both zeros,
    so +0.0/-0.0 ties happen, and every output matches bit for bit."""
    rng = np.random.default_rng([mode == "min", variant == "exact", read_departing])
    sign = 1.0 if mode == "max" else -1.0
    grid = [-0.5, -0.25, -0.0, 0.0, 0.25, 0.5]
    zeros = set()
    for _ in range(6):
        def signal():
            a, b = (float(v) for v in rng.choice(grid, size=2))
            return Constant(a) if rng.random() < 0.5 else PiecewiseLinear(((4, a), (12, b)))

        signals = tuple(signal() for _ in range(11))
        sc = _churned_scenario(rng, variant, mode, read_departing, kind="consensus", signals=signals)
        want = reference_outputs(sc, signal_inputs(sc, signals, sign))
        res = run(sc)
        assert len(res.trace.outputs) == len(want)
        for k in range(len(want)):
            got = trace_row(res, res.trace.outputs, k)
            assert same_bits(got, {i: sign * v for i, v in want[k].items()}), k
            zeros.update(bool(np.signbit(v)) for v in got.values() if v == 0)
    assert zeros == {False, True}


@pytest.mark.parametrize("read_departing", [True, False])
@pytest.mark.parametrize("variant", ["approximate", "exact"])
def test_size_engine_matches_per_agent_oracle(variant, read_departing):
    """p=3 vector states under churn: every agent's estimate, every tick."""
    rng = np.random.default_rng([20, variant == "exact", read_departing])
    for _ in range(4):
        sc = _churned_scenario(
            rng, variant, "max", read_departing, kind="size_estimation",
            dse=DseConfig(p=3, mc_trials=2),
        )
        want = reference_outputs(sc, dse_inputs_reference(sc))
        res = run_size_estimation(sc)
        for k in range(len(want)):
            got = trace_row(res, res.trace.outputs, k)
            assert same_bits(got, {i: mle_estimate(v) for i, v in want[k].items()}), k


class _ZeroInFirstBlock:
    """A generator whose first ``(m, p)`` block reads 0.0 in its last row;
    every other draw comes from ``default_rng(seed)`` unchanged."""

    def __init__(self, seed: int) -> None:
        self.inner = np.random.default_rng(seed)
        self.bit_generator = self.inner.bit_generator
        self.blocks = 0

    def random(self, size=None):
        vals = self.inner.random(size)
        if isinstance(size, tuple):
            if self.blocks == 0:
                vals[-1, 0] = 0.0
            self.blocks += 1
        return vals


def _scheduled_draws(sc: Scenario, rng) -> np.ndarray:
    """The draw schedule's arrival blocks for ``sc``'s windows from ``rng``,
    checked to be one block a window, stacked in window order."""
    blocks = simulator._draw_arrivals(sc.windows, sc.dse.p, rng)
    assert list(blocks) == [w.start for w in sc.windows]
    assert [b.shape for b in blocks.values()] == [(len(w.arrivals), sc.dse.p) for w in sc.windows]
    return np.concatenate(list(blocks.values()))


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_arrivals_draw_the_per_agent_stream_in_one_block(seed):
    """The schedule's blocks, in window order and ascending slot order, read
    what one ``dse_generate`` call per arrival reads, and leave the generator
    where those calls would; a size observer holds the blocks its seed's
    stream gives."""
    sc = replace(load_preset("ba100_dse_edmc"), seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
    got = _scheduled_draws(sc, rng)
    want = np.random.default_rng(np.random.SeedSequence((seed, 2)))
    per_agent = np.array([dse_generate(got.shape[1], want) for _ in range(len(got))])
    assert got.tobytes() == per_agent.tobytes()
    assert rng.random() == want.random()
    held = simulator._SizeObserver(sc).blocks.values()
    assert np.concatenate(list(held)).tobytes() == got.tobytes()


def test_an_exact_zero_in_a_block_is_redrawn_after_the_block():
    """An arrival block holding an exact zero keeps its other draws; the zero
    is redrawn after the block, so no arrival's input is 0.0."""
    sc = load_preset("ba100_dse_edmc")
    rng = _ZeroInFirstBlock(5)
    got = _scheduled_draws(sc, rng)
    want = _ZeroInFirstBlock(5)
    blocks = [_open_uniform(want, (len(w.arrivals), sc.dse.p)) for w in sc.windows]
    assert rng.blocks == len(sc.windows) and (got != 0.0).all()
    assert got.tobytes() == np.concatenate(blocks).tobytes()
    assert rng.random() == want.random()


def _kernel_calls(monkeypatch) -> list[tuple[int, ...]]:
    """Count the engine's kernel calls: each records the rows it steps."""
    calls: list[tuple[int, ...]] = []
    for name in ("admc_kernel", "edmc_kernel"):
        def counted(X, U, layout, *args, _kernel=getattr(simulator, name), **kw):
            calls.append(tuple(sorted(layout[0].tolist())))
            return _kernel(X, U, layout, *args, **kw)

        monkeypatch.setattr(simulator, name, counted)
    return calls


@pytest.mark.parametrize(
    "make",
    [
        lambda: load_preset("ba100_dse_edmc"),
        lambda: line4_churn_scenario(params=ProtocolParams("max", "exact", delta=3)),
    ],
    ids=["ba100_dse_edmc", "line4-churn-exact"],
)
def test_held_exact_windows_stop_stepping_after_delta_plus_one(make, monkeypatch):
    """Held inputs settle a cascade in at most delta + 1 steps; only the step
    out of each window runs after that."""
    sc = make()
    calls = _kernel_calls(monkeypatch)
    (run_size_estimation if sc.kind == "size_estimation" else run)(sc)
    # consecutive windows differ in their active set, so a run of calls on
    # the same rows is one window's
    per_window = [len(list(group)) for _, group in itertools.groupby(calls)]
    assert len(per_window) == len(sc.windows)
    assert max(per_window) <= sc.params.delta + 2
    assert len(calls) < sc.horizon


LINE4_LEVELS = (Constant(0.1), Constant(0.3), Constant(0.2), Constant(0.9))  # agents 1..4
# agent 1 jumps to the new extremum, then holds
JUMP_AT_CHANGE = (PiecewiseLinear(((9, 0.1), (10, 0.5))), *LINE4_LEVELS[1:])


@pytest.mark.parametrize(
    "make, starts",
    [
        (lambda: load_preset("ba100_dse_edmc"), None),
        (
            lambda: line4_churn_scenario(
                params=ProtocolParams("max", "exact", delta=3),
                signals=JUMP_AT_CHANGE,
            ),
            # window [10, 19]'s stayers carry tick 9's inputs on level 0
            [[0, 1, 2, 0], [0, 0, 1, 2, 0], [0, 1, 2]],
        ),
    ],
    ids=["ba100_dse_edmc", "line4-jump-at-change"],
)
def test_held_exact_windows_fold_only_their_unsettled_levels(make, starts, monkeypatch):
    """A held window's steps fold from levels 0, 1, ..., delta - 1 when its
    level 0 already holds the held inputs, and from 0, 0, 1, ... otherwise;
    the step out of a window folds every level."""
    sc = make()
    calls = record_exact_kernel_calls(monkeypatch)
    (run_size_estimation if sc.kind == "size_estimation" else run)(sc)
    assert calls == exact_kernel_calls(sc)
    per_window = [[s for _, s in group] for _, group in itertools.groupby(calls, lambda c: c[0])]
    if starts is None:  # fresh draws land on every level, and stayers' draws hold
        delta = sc.params.delta
        starts = [list(range(delta)) + [0]] * (len(sc.windows) - 1) + [list(range(delta))]
    assert per_window == starts


def test_held_exact_windows_fold_348_levels_on_the_ba3000_size_benchmark(monkeypatch):
    """The sizeest-exact-ba3000 benchmark config at its default seed (with a
    token Monte Carlo): four held windows of delta = 12 each fold
    12 + 11 + ... + 1 = 78 levels in 12 steps, and the three steps out of
    them 12 each; refolding every level every step took 55 calls and 660."""
    sc = scenario_from_mapping({
        "kind": "size_estimation", "seed": 7, "horizon": 240, "dwell": 60,
        "protocol": {"mode": "max", "variant": "exact", "delta": 12},
        "topology": {
            "kind": "barabasi_albert", "seed_line": 5, "target_n": 3000, "edges_per_new_node": 2,
        },
        "churn": {
            "kind": "pool_random", "pool_size": 750, "every": 60, "activation_probability": 0.5,
        },
        "dse": {"p": 20, "mc_trials": 2},
    })
    calls = record_exact_kernel_calls(monkeypatch)
    run_size_estimation(sc)
    assert calls == exact_kernel_calls(sc)
    assert len(calls) == 51
    assert sum(sc.params.delta - start for _, start in calls) == 348


@pytest.mark.parametrize(
    "make",
    [
        lambda: load_preset("ba100_dse_admc"),
        lambda: line4_churn_scenario(),
    ],
    ids=["ba100_dse_admc", "line4-churn-approximate"],
)
def test_held_approximate_windows_stop_at_the_first_idle_step(make, monkeypatch):
    sc = make()
    calls = _kernel_calls(monkeypatch)
    (run_size_estimation if sc.kind == "size_estimation" else run)(sc)
    assert len(calls) < sc.horizon


@pytest.mark.parametrize("name", ["line6_admc", "line6_edmc"])
def test_moving_inputs_step_every_tick(name, monkeypatch):
    """The approximate kernel steps every tick; the exact cascade's window
    steps, taken in blocks, and its steps out of windows cover every tick."""
    sc = load_preset(name)
    if sc.params.variant == "approximate":
        calls = _kernel_calls(monkeypatch)
        run(sc)
        assert len(calls) == sc.horizon
        return
    calls = record_exact_kernel_calls(monkeypatch)
    run(sc)
    blocks = [c[2] for c in calls if c[1] == "window"]
    exits = [c for c in calls if c[1] != "window"]
    assert blocks and len(exits) == len(sc.windows) - 1
    assert sum(blocks) + len(exits) == sc.horizon


@pytest.mark.parametrize(
    "signals, moved",
    [
        (JUMP_AT_CHANGE, None),
        ((*LINE4_LEVELS[:3], PiecewiseLinear(((24, 0.9), (26, 1.1)))), (24, 30)),
        (
            (Constant(-0.1), Constant(-0.3), Constant(-0.2),
             PiecewiseLinear(((24, -0.0), (26, 0.0)))),
            (24, 30),
        ),
    ],
    ids=["jump-at-change", "late-rise", "late-zero-sign"],
)
@pytest.mark.parametrize("variant", ["approximate", "exact"])
@pytest.mark.parametrize("mode", ["max", "min"])
def test_inputs_that_move_around_settled_windows_match_the_oracle(mode, variant, signals, moved):
    """Bit for bit with the per-agent oracle on the line-4 churn scenario when
    inputs move next to a window that settles.

    jump-at-change: agent 1's input jumps to the new extremum at the change
    at tick 10 and then holds, so the window [10, 19] is held, but its
    stayers' cascades carry tick 9's inputs on level 0 and take all
    ``delta + 1`` steps to settle.  late-*: agent 4's input holds long enough
    for the window [20, 30] to settle and then moves, so that window is not
    held and must keep stepping; the zero-sign input only changes the sign
    of a zero, which compares equal as a float but not as bits."""
    if mode == "min":
        signals = negated_signals(signals)  # so the movers hold the extremum on both sides
    exact = variant == "exact"
    params = ProtocolParams(mode, variant, alpha=None if exact else 0.5, delta=3 if exact else None)
    sc = line4_churn_scenario(params=params, signals=signals)
    sign = 1.0 if mode == "max" else -1.0
    want = reference_outputs(sc, signal_inputs(sc, signals, sign))
    res = run(sc)
    for k in range(len(want)):
        got = trace_row(res, res.trace.outputs, k)
        assert same_bits(got, {i: sign * v for i, v in want[k].items()}), k
    if moved is not None:  # the late move reaches the outputs within the horizon
        a, b = (trace_row(res, res.trace.outputs, k) for k in moved)
        assert not same_bits(a, b)
