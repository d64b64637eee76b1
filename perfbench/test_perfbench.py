"""Tests of the benchmark itself, on tiny scenarios.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest

from checks import summary_problems
from run import ROOT, TRACED, load_program, measure
from spans import Tracer
from workloads import WORKLOADS

sim = load_program(ROOT)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str, **changes):
    w = WORKLOADS[name]
    small = {"target_n": 40, "horizon": 60, "every": 20, "digests": None}
    if w.kind == "size_estimation":
        small["inputs"] = {"p": 20, "mc_trials": 50}
    return replace(w, **{**small, **changes})


def bindings() -> dict:
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name.startswith("openmax") and mod is not None
        for attr, value in vars(mod).items()
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(name, trace, tmp_path, capsys):
    result = measure(sim, tiny(name), 1, 0.0, trace, tmp_path / "out")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    printed = capsys.readouterr().out
    for m in declared:
        assert f"# {m['name']} = " in printed
        assert any(
            line.startswith(f"# {m['name']} = ") and line.endswith(f" {m['unit']}")
            for line in printed.splitlines()
        )
    assert not (tmp_path / "out").exists()
    if trace:
        assert result["metrics"]["trace.overhead_s"]["value"] > 0


def test_corrupted_digest_is_a_failure(tmp_path):
    w = tiny("track-exact-min-ba500", digests=("0" * 64, "0" * 64))
    result = measure(sim, w, w.default_seed, 0.0, False, tmp_path / "out")
    assert not result["correct"] and result["failed"] >= 1
    # digests are compared only at the workload's default seed
    result = measure(sim, w, w.default_seed + 1, 0.0, False, tmp_path / "out")
    assert result["correct"] and result["failed"] == 0


def test_injected_violation_is_a_failure(tmp_path):
    def violating(scenario):
        result = sim.run_size_estimation(scenario)
        result.summary["windows"][-1]["empirical"]["containment_violations"] = 1
        return result

    shim = SimpleNamespace(
        load_scenario=sim.load_scenario,
        run=sim.run,
        run_size_estimation=violating,
        write_outputs=sim.write_outputs,
    )
    result = measure(shim, tiny("sizeest-approx-ba3000"), 1, 0.0, False, tmp_path / "out")
    assert not result["correct"] and result["failed"] >= 1


def test_raising_run_is_a_failure(tmp_path):
    def broken(scenario):
        raise RuntimeError("injected")

    shim = SimpleNamespace(load_scenario=sim.load_scenario, run=broken, write_outputs=sim.write_outputs)
    result = measure(shim, tiny("track-exact-min-ba500"), 1, 0.0, False, tmp_path / "out")
    assert not result["correct"] and result["failed"] == result["attempted"] == 1


def test_summary_problems():
    window = {
        "start": 0,
        "end": 9,
        "empirical": {"decrease_violations": 0, "containment_violations": 0},
        "steady": {"agree_exactly": True},
    }
    clean = {"max_error": 0.5, "windows": [window]}
    assert summary_problems(clean, require_agreement=True) == []
    assert summary_problems({**clean, "max_error": float("nan")}, False)
    bad = {**window, "empirical": {"decrease_violations": 2, "containment_violations": 0}}
    assert summary_problems({**clean, "windows": [bad]}, False)
    split = {**window, "steady": {"agree_exactly": False}}
    assert summary_problems({**clean, "windows": [split]}, True)
    assert summary_problems({**clean, "windows": [split]}, False) == []


def test_tracing_leaves_modules_unchanged(tmp_path):
    before = bindings()
    result = measure(sim, tiny("sizeest-exact-ba3000"), 1, 0.0, True, tmp_path / "out")
    assert result["correct"]
    after = bindings()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())


def test_spans_nest_and_add_up(tmp_path):
    w = tiny("track-exact-min-ba500")
    tracer = Tracer(TRACED + ("graph.no_such_function", "no_such_module.f"))
    with tracer:
        scenario = sim.load_scenario(json.dumps(w.mapping(1)))
        sim.write_outputs(sim.run(scenario), tmp_path)
    stats = tracer.stats
    for missing in ("graph.no_such_function", "no_such_module.f"):
        assert not stats[missing].present and stats[missing].calls == 0
    assert stats["signals.sample"].calls > 0 and stats["protocols.open_step"].calls == w.horizon
    for root in ("simulator.load_scenario", "simulator.run", "simulator.write_outputs"):
        st = stats[root]
        assert st.calls == 1
        assert st.s == pytest.approx(st.self_s + tracer.children_s(root), abs=1e-9)
