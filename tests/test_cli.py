"""Exit codes, printed reports, and artifact layout of the command line."""

from __future__ import annotations

import contextlib
import copy
import csv
import functools
import io
import json
import math
import operator
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from openmax.cli import main
from openmax.simulator import list_presets, preset_text

MINI_CONSENSUS = """
kind: consensus
seed: 4
horizon: 20
protocol: {mode: max, variant: approximate, alpha: 0.2}
topology: {kind: line, n: 3}
signals:
  default: {kind: constant, value: 0.1}
  agents:
    3: {kind: constant, value: 0.8}
"""

MINI_DSE = """
kind: size_estimation
seed: 8
horizon: 12
protocol: {mode: max, variant: exact, delta: 3}
topology: {kind: line, n: 4}
dse: {p: 4, mc_trials: 120}
"""


POOL_CHURN = "churn: {kind: pool_random, every: 5, pool_size: 1, activation_probability: %s}"
# only a prefix of the line stays connected, so the first change exhausts its redraws
POOL_EXHAUSTED = """
kind: size_estimation
seed: 1
horizon: 20
protocol: {mode: max, variant: exact, delta: 30}
topology: {kind: line, n: 30}
dse: {p: 4}
churn: {kind: pool_random, pool_size: 29, every: 10, activation_probability: 0.5}
"""
EXPLICIT_CHURN = "churn: {kind: explicit, events: [{tick: 5, deactivate: %s}]}"


@pytest.fixture
def consensus_file(tmp_path):
    path = tmp_path / "mini.yaml"
    path.write_text(MINI_CONSENSUS)
    return path


@pytest.fixture
def dse_file(tmp_path):
    path = tmp_path / "mini_dse.yaml"
    path.write_text(MINI_DSE)
    return path


def stdout_report(capsys) -> dict:
    out = capsys.readouterr().out
    report = {}
    for line in out.splitlines():
        if ": " in line:
            key, _, value = line.partition(": ")
            report[key] = value
    return report


def test_bounds_approximate(capsys):
    code = main(
        "bounds --variant approximate --diameter 5 --alpha 0.03 "
        "--slope 0.02 --gap 1.8".split()
    )
    assert code == 0
    report = stdout_report(capsys)
    assert report["transient_time"] == "5"
    assert report["convergence_time"] == "180"
    assert float(report["tracking_bound"]) == pytest.approx(0.27)
    assert float(report["steady_bound"]) == pytest.approx(0.15)
    assert report["assumptions_ok"] == "True"


def test_bounds_exact(capsys):
    code = main("bounds --variant exact --delta 5 --slope 0.02".split())
    assert code == 0
    report = stdout_report(capsys)
    assert report["transient_time"] == "5"
    assert report["convergence_time"] == "5"
    assert float(report["tracking_bound"]) == pytest.approx(0.12)
    assert float(report["steady_bound"]) == 0.0


def test_bounds_violation_exits_2(capsys):
    code = main(
        "bounds --variant approximate --diameter 5 --alpha 0.01 --slope 0.02".split()
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "violated:" in captured.err
    assert "assumptions_ok: False" in captured.out


@pytest.mark.parametrize(
    "argv, what",
    [
        ("bounds --variant approximate --alpha 0.5 --slope nan --diameter 3", "slope bound"),
        ("bounds --variant exact --delta 3 --slope inf --diameter 3", "slope bound"),
        ("bounds --variant approximate --alpha 0.5 --slope 0.1 --diameter 3 --gap nan", "initial gap"),
    ],
    ids=["approximate-slope-nan", "exact-slope-inf", "gap-nan"],
)
def test_bounds_non_finite_numbers_exit_1(argv, what, capsys):
    assert main(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and what in captured.err
    assert "Traceback" not in captured.err
    assert "tracking_bound" not in captured.out


@pytest.mark.parametrize(
    "argv, what",
    [
        ("bounds --variant exact --delta 3 --slope 0 --diameter -5", "diameter"),
        ("bounds --variant approximate --alpha 0.5 --slope 0 --diameter 3 --dwell -4", "dwell"),
    ],
    ids=["exact-diameter", "approximate-dwell"],
)
def test_bounds_negative_spans_exit_1(argv, what, capsys):
    assert main(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and what in captured.err
    assert "assumptions_ok" not in captured.out


def test_bounds_missing_flags_exit_1(capsys):
    assert main("bounds --variant approximate --slope 0.02".split()) == 1
    assert main("bounds --variant exact --slope 0.02".split()) == 1
    err = capsys.readouterr().err
    assert "--alpha" in err and "--delta" in err


@pytest.mark.parametrize(
    "argv, what",
    [
        ("bounds --variant exact --delta 3 --slope 0 --alpha 0.5", "alpha applies only"),
        ("bounds --variant exact --delta 3 --slope 0 --gap 7", "--gap applies only"),
        ("bounds --variant exact --delta 3 --slope 0 --alpha 0.5 --gap 7", "applies only"),
        ("bounds --variant approximate --diameter 3 --alpha 0.5 --slope 0 --delta 9", "delta applies only"),
    ],
    ids=["exact-alpha", "exact-gap", "exact-alpha-gap", "approximate-delta"],
)
def test_bounds_rejects_the_other_variants_flags(argv, what, capsys):
    assert main(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and what in captured.err
    assert "assumptions_ok" not in captured.out


def test_bounds_prints_the_variant_and_rejects_a_mode(capsys):
    assert main("bounds --variant exact --delta 5 --slope 0.02".split()) == 0
    assert capsys.readouterr().out.splitlines()[0] == "protocol: exact"
    assert main("bounds --variant exact --delta 5 --slope 0.02 --mode min".split()) == 1
    assert "--mode" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        "run",
        "validate --scenario line6_edmc --bogus",
        "sweep --scenario line6_admc --grid alpha=0.1 --workers two",
        "frobnicate",
        "",
    ],
    ids=["missing-scenario", "unknown-flag", "non-integer-workers", "unknown-command", "no-command"],
)
def test_usage_errors_exit_1(argv, capsys):
    """A usage error is a config error, so it never exits 2, the code of a
    broken tracking assumption."""
    assert main(argv.split()) == 1
    assert "usage:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    for argv in (["--help"], ["run", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    assert "--scenario" in capsys.readouterr().out


def test_run_writes_artifacts(consensus_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(consensus_file), "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert f"wrote {out / 'summary.json'}" in stdout
    assert "max_error:" in stdout
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"] == "mini"
    assert summary["seed"] == 4
    assert (out / "trace.csv").is_file()
    assert (out / "plotdata" / "state_trajectories.csv").is_file()


CHURNED_LINE6 = """
kind: consensus
seed: 1
horizon: 60
protocol: {mode: max, variant: approximate, alpha: 0.2}
topology: {kind: line, n: 6}
signals:
  default: {kind: constant, value: 0.1}
  agents:
    6: {kind: constant, value: 0.9}
churn: {kind: explicit, events: [{tick: 30, deactivate: [1, 2, 3]}]}
"""


def test_run_prints_the_bounds_of_the_window_that_reaches_max_error(tmp_path, capsys):
    """Window 0 (bound 1.0) reaches the run's max error 0.8; the shorter
    window after the churn has bound 0.4 and must not be printed with it."""
    path = tmp_path / "churned.yaml"
    path.write_text(CHURNED_LINE6)
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
    report = stdout_report(capsys)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    first, second = summary["windows"]
    assert float(report["max_error"]) == first["empirical"]["max_error"] == 0.8
    assert second["bounds"]["tracking_bound"] == pytest.approx(0.4)
    assert report["worst_window"] == "ticks 0-29"
    assert float(report["tracking_bound"]) == first["bounds"]["tracking_bound"] == 1.0
    assert float(report["steady_bound"]) == first["bounds"]["steady_bound"]


def test_run_seed_override_recorded(consensus_file, tmp_path, capsys):
    out = tmp_path / "seeded"
    assert main(["run", "--scenario", str(consensus_file), "--out", str(out), "--seed", "77"]) == 0
    assert json.loads((out / "summary.json").read_text())["seed"] == 77


def test_run_uses_env_output_dir(consensus_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OPENMAX_OUT", str(tmp_path / "envout"))
    assert main(["run", "--scenario", str(consensus_file)]) == 0
    assert (tmp_path / "envout" / "mini" / "summary.json").is_file()


def test_run_rejects_size_estimation_scenario(dse_file, tmp_path, capsys):
    code = main(["run", "--scenario", str(dse_file), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "size-est" in capsys.readouterr().err


def test_size_est_with_trials_override(dse_file, tmp_path, capsys):
    out = tmp_path / "dse"
    code = main(
        ["size-est", "--scenario", str(dse_file), "--out", str(out), "--trials", "60"]
    )
    assert code == 0
    report = stdout_report(capsys)
    assert float(report["expected_closed_form"]) == pytest.approx(4 * 4 / 3)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mc_trials"] == 60
    assert (out / "plotdata" / "size_estimates.csv").is_file()


def test_size_est_rejects_consensus_scenario(consensus_file, tmp_path, capsys):
    code = main(["size-est", "--scenario", str(consensus_file), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "'run'" in capsys.readouterr().err


SHALLOW_CONSENSUS = MINI_CONSENSUS.replace("variant: approximate, alpha: 0.2", "variant: exact, delta: 1")
# a sinusoid whose slope bound, 2 pi / 10, passes the decay alpha of 0.2
FAST_CONSENSUS = MINI_CONSENSUS.replace(
    "3: {kind: constant, value: 0.8}", "3: {kind: sinusoid, amplitude: 1.0, period: 10}"
)
SHALLOW = "cascade depth (1) is below the diameter"
SLOW = "decay alpha (0.2) must exceed the input slope bound (0.628319)"
SHORT = "dwell time (2) is shorter than the cascade depth (3)"


@pytest.mark.parametrize(
    "command, config, expected",
    [
        ("run", SHALLOW_CONSENSUS, SHALLOW),
        ("size-est", MINI_DSE.replace("delta: 3", "delta: 1"), SHALLOW),
        ("validate", SHALLOW_CONSENSUS, SHALLOW),
        ("run", FAST_CONSENSUS, SLOW),
        ("validate", FAST_CONSENSUS, SLOW),
        ("size-est", MINI_DSE + "dwell: 2\n", SHORT),
        ("validate", MINI_DSE + "dwell: 2\n", SHORT),
    ],
    ids=["run", "size-est", "validate", "run-slow-decay", "validate-slow-decay",
         "size-est-short-dwell", "validate-short-dwell"],
)
def test_realized_assumption_violation_exits_2_after_writing(
    command, config, expected, tmp_path, capsys
):
    """A cascade shallower than the realized diameter, a decay not above the
    slope bound and a dwell shorter than the cascade are reported on stderr,
    after the artifacts are written; ``validate`` prints the same line and
    exit code as ``run`` or ``size-est`` without running."""
    path = tmp_path / "shallow.yaml"
    path.write_text(config)
    out = tmp_path / "out"
    validated = None
    if command == "validate":
        assert main(["validate", "--scenario", str(path)]) == 2
        validated = capsys.readouterr().err
        assert not out.exists()
        command = "run" if "consensus" in config else "size-est"
    assert main([command, "--scenario", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"wrote {out / 'summary.json'}" in captured.out
    summary = json.loads((out / "summary.json").read_text())
    (window,) = summary["windows"]
    assert window["bounds"]["assumptions_ok"] is False
    (reason,) = window["bounds"]["reasons"]
    end = summary["horizon"]
    assert captured.err.splitlines() == [f"violated: {reason} (ticks 0-{end})"]
    assert reason.startswith(expected)
    assert validated in (None, captured.err)


def test_validate_preset_and_seed_auto(capsys):
    assert main(["validate", "--scenario", "line6_edmc"]) == 0
    first = capsys.readouterr().out
    assert "is valid" in first and "agents=6" in first
    assert main(["validate", "--scenario", "line6_edmc", "--seed", "auto"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("seed: ")
    int(lines[0].removeprefix("seed: "))


def test_bad_seed_exits_1(capsys):
    assert main(["validate", "--scenario", "line6_edmc", "--seed", "soon"]) == 1
    assert main(["validate", "--scenario", "line6_edmc", "--seed", "-4"]) == 1


def test_missing_scenario_exits_1(capsys):
    code = main(["validate", "--scenario", "does_not_exist"])
    assert code == 1
    err = capsys.readouterr().err
    assert "does_not_exist" in err
    assert "line6_admc" in err  # the message lists the available presets


@pytest.mark.parametrize(
    "command, old, new, section",
    [
        ("validate", "topology: {kind: line, n: 3}", "topology: {kind: line}", "topology"),
        ("validate", "default: {kind: constant, value: 0.1}", "default: {kind: constant}", "signal"),
        (
            "validate",
            "default: {kind: constant, value: 0.1}",
            "default: {kind: piecewise_linear, points: [1, 2]}",
            "signal",
        ),
        ("validate", "alpha: 0.2}", 'alpha: 0.2, read_departing: "false"}', "protocol"),
        ("validate", "topology:", 'trace: {csv: "false"}\ntopology:', "trace"),
        ("validate", "alpha: 0.2}", "alpha: '0.5'}", "alpha"),
        ("validate", "variant: approximate, alpha: 0.2}", "variant: exact, delta: true}", "delta"),
        ("validate", "mc_trials: 120", "mc_trials: 1", "mc_trials"),
        ("size-est", "mc_trials: 120", "mc_trials: 1", "mc_trials"),
        ("size-est --trials 1", "", "", "mc_trials"),
        ("sweep --grid p=3,5 --trials 1", "", "", "mc_trials"),
        ("validate", "signals:\n", "signals:\n  slope_bound: []\n", "slope_bound"),
        ("validate", "signals:\n", "signals:\n  slope_bound: {}\n", "slope_bound"),
        ("validate", "topology:", f"{POOL_CHURN % 'null'}\ntopology:", "activation_probability"),
        ("validate", "topology:", f"{POOL_CHURN % '[]'}\ntopology:", "activation_probability"),
        ("validate", "topology:", f"{POOL_CHURN % '{}'}\ntopology:", "activation_probability"),
        ("validate", "topology:", "initial_states: [[1], 0.2, 0.3]\ntopology:", "initial_states"),
        (
            "validate",
            "topology:",
            "initial_states: {1.7: 0.3, 2: 0.1, 3: 0.2}\ntopology:",
            "initial_states keys must be agent ids, got 1.7",
        ),
        (
            "validate",
            "topology:",
            "initial_states: {true: 0.3, 2: 0.1, 3: 0.2}\ntopology:",
            "initial_states keys must be agent ids, got True",
        ),
        (
            "validate",
            "topology:",
            "initial_states: {a: 0.3, 2: 0.1, 3: 0.2}\ntopology:",
            "initial_states keys must be agent ids, got 'a'",
        ),
        ("validate", "topology:", f"{EXPLICIT_CHURN % '[[3]]'}\ntopology:", "deactivate"),
        ("validate", "topology:", f"{EXPLICIT_CHURN % '3'}\ntopology:", "deactivate"),
        ("sweep --grid alpha=0.1 --trials 5", "", "", "--trials"),
        ("validate", "horizon: 20", "horizon: 20\ndwell: 21", "dwell"),
        (
            "validate",
            "3: {kind: constant, value: 0.8}",
            "3: {kind: piecewise_linear, points: [[1.7, 0.2], [3, 0.3]]}",
            "breakpoint ticks",
        ),
        (
            "validate",
            "3: {kind: constant, value: 0.8}",
            "3: {kind: piecewise_linear, points: [[true, 0.2], [3, 0.3]]}",
            "breakpoint ticks",
        ),
        (  # a grown topology draws from the seed before any other check reads it
            "validate",
            "seed: 4\nhorizon: 20\nprotocol: {mode: max, variant: approximate, alpha: 0.2}\n"
            "topology: {kind: line, n: 3}",
            "seed: -1\nhorizon: 20\nprotocol: {mode: max, variant: approximate, alpha: 0.2}\n"
            "topology: {kind: barabasi_albert, target_n: 12}",
            "seed",
        ),
        ("validate", "n: 3}", "n: 0}", "topology.n"),
        ("validate", "{kind: line, n: 3}", "{kind: barabasi_albert, target_n: 12, seed_line: 0}",
         "topology.seed_line"),
        ("validate", "{kind: line, n: 3}", "{kind: barabasi_albert, target_n: 0}", "topology.target_n"),
        ("validate", "{kind: line, n: 3}", "{kind: barabasi_albert, target_n: 12, edges_per_new_node: 0}",
         "topology.edges_per_new_node"),
        ("validate", "n: 3}", 'n: "x"}', "topology.n"),
        ("validate", "p: 4", 'p: "x"', "dse.p"),
        ("validate", "n: 3}", "n: 3, size: 4}", "topology.size"),
        ("validate", "topology:", "churn: {kind: explicit, events: [{tick: 5.5}]}\ntopology:",
         "churn.events.0.tick"),
        ("validate", "topology:", "churn: {kind: explicit, events: [{tick: 5, activate: [9]}]}\ntopology:",
         "churn.events.0.activate.0: node 9 is not part of the reference topology"),
        ("validate", "topology:",
         "churn: {kind: explicit, events: [{tick: 5, deactivate: [1, 2, 3]}]}\ntopology:",
         "churn.events.0 would empty the network"),
        ("validate", "topology:", "churn: {kind: explicit, events: [{tick: 5}]}\ntopology:",
         "churn.events.0 does not modify the network"),
        ("validate", "topology:",
         "churn: {kind: explicit, events: [{tick: 0, deactivate: [3]}]}\ntopology:",
         "churn.events.0.tick must lie in [1, horizon = 20], got 0;"),
        ("validate", "topology:",
         "churn: {kind: explicit, events: [{tick: 21, deactivate: [3]}]}\ntopology:",
         "churn.events.0.tick must lie in [1, horizon = 20], got 21;"),
        ("validate", "topology:",
         "churn: {kind: explicit, events: [{tick: 12, deactivate: [3]}, {tick: 6, activate: [3]}]}"
         "\ntopology:",
         "churn.events.1.tick must lie in [13, horizon = 20], got 6;"),
        ("validate", "value: 0.1}", 'value: "0.1"}', "signals.default.value"),
        (
            "validate",
            "3: {kind: constant, value: 0.8}",
            "3: {kind: sinusoid, amplitude: true, period: 10}",
            "signals.agents.3.amplitude",
        ),
        (
            "validate",
            "3: {kind: constant, value: 0.8}",
            "3: {kind: sinusoid, amplitude: 0.01, period: '50'}",
            "signals.agents.3.period",
        ),
        ("validate", "signals:\n", "signals:\n  slope_bound: -0.5\n", "signals.slope_bound"),
        ("validate", "  agents:\n", "  agents:\n    9: {kind: constant, value: 0.8}\n",
         "signals.agents names agents [9] that are not in the topology"),
        ("validate", "  agents:\n", "  agents:\n    '3': {kind: constant, value: 0.8}\n",
         "signals.agents.3: agent 3 is given twice"),
        ("validate", "topology:", "initial_states: {1: 0.1, '1': 0.9, 2: 0.2, 3: 0.3}\ntopology:",
         "initial_states.1: agent 1 is given twice"),
        ("validate", "topology:", "initial_states: {1: 0.0, 2: 0.1}\ntopology:",
         "initial_states: agents [3] have no initial state"),
        ("validate", "topology:", "initial_states: {1: 0.0, 2: 0.1, 3: 0.2, 9: 0.3}\ntopology:",
         "initial_states names agents [9] that are not in the topology"),
        ("validate", "{kind: constant, value: 0.1}",
         "{kind: random_walk_clamped, step_bound: 0.01, lo: 1.0, hi: -1.0}",
         "signals.default: lower clamp 1.0 is above the upper clamp -1.0"),
        ("validate", "3: {kind: constant, value: 0.8}",
         "3: {kind: random_walk_clamped, step_bound: 0.01, lo: 1.0, hi: -1.0}",
         "signals.agents.3: lower clamp 1.0 is above the upper clamp -1.0"),
        ("sweep --grid alpha=0.1,0.2", "kind: consensus", "kind: [", "could not parse"),
        ("sweep --grid alpha=0.1,0.2", MINI_CONSENSUS, "- kind: consensus\n", "must be a mapping"),
        ("validate", MINI_CONSENSUS, POOL_EXHAUSTED,
         "churn.pool_size: no connected membership change at tick 10 in 100 draws of a pool of 29"),
    ],
    ids=["line-without-n", "constant-without-value", "points-not-pairs",
         "read-departing-string", "trace-flag-string", "alpha-string", "delta-bool",
         "validate-one-trial", "size-est-one-trial", "size-est-trials-flag", "sweep-trials-flag",
         "slope-bound-list", "slope-bound-mapping", "activation-probability-null",
         "activation-probability-list", "activation-probability-mapping",
         "initial-state-list", "initial-state-key-float", "initial-state-key-bool",
         "initial-state-key-word", "deactivate-nested-list", "deactivate-scalar",
         "sweep-trials-on-consensus", "dwell-above-horizon", "breakpoint-tick-float",
         "breakpoint-tick-bool", "seed-negative", "line-n-zero", "seed-line-zero",
         "target-n-zero", "edges-per-new-node-zero", "line-n-string", "dse-p-string",
         "unknown-topology-key", "event-tick-float", "event-node-unknown", "event-empties-network",
         "event-changes-nothing", "event-tick-zero", "event-tick-past-horizon",
         "event-ticks-out-of-order", "signal-value-string", "amplitude-bool",
         "period-string", "slope-bound-negative", "signal-agent-unknown", "signal-agent-twice",
         "initial-state-twice", "initial-state-missing", "initial-state-unknown",
         "walk-clamps-crossed-default", "walk-clamps-crossed-agent", "sweep-unparseable",
         "sweep-list", "pool-churn-exhausted"],
)
def test_malformed_config_exits_1_without_traceback(command, old, new, section, tmp_path, capsys):
    base = MINI_DSE if section in ("mc_trials", "dse.p") else MINI_CONSENSUS
    bad = tmp_path / "bad.yaml"
    bad.write_text(base.replace(old, new))
    argv = [*command.split(), "--scenario", str(bad)]
    if command != "validate":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert section in err
    assert not (tmp_path / "out").exists()  # failed at load, before any run


BA_CONSENSUS = MINI_CONSENSUS.replace("{kind: line, n: 3}", "{kind: barabasi_albert, target_n: 12}")


@pytest.mark.parametrize(
    "command, base, old, new, keys",
    [
        ("validate", MINI_CONSENSUS, "horizon: 20", "horizon: 1000000000", "horizon"),
        ("validate", MINI_CONSENSUS, "n: 3}", "n: 1000000000}", "topology.n"),
        ("validate", BA_CONSENSUS, "target_n: 12", "target_n: 1000000000", "topology.target_n"),
        ("validate", BA_CONSENSUS, "target_n: 12", "target_n: 12, seed_line: 1000000000",
         "topology.seed_line"),
        ("validate", MINI_DSE, "p: 4", "p: 1000000000", "dse.p"),
        ("validate", MINI_DSE, "mc_trials: 120", "mc_trials: 1000000000", "dse.mc_trials"),
        ("size-est --trials 1000000000", MINI_DSE, "", "", "dse.mc_trials"),
    ],
    ids=["horizon", "line-n", "target-n", "seed-line", "dse-p", "mc-trials", "trials-flag"],
)
def test_oversized_run_exits_1_before_allocating(command, base, old, new, keys, tmp_path, capsys):
    bad = tmp_path / "big.yaml"
    bad.write_text(base.replace(old, new))
    argv = [*command.split(), "--scenario", str(bad)]
    if command != "validate":
        argv += ["--out", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        assert main(argv) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**24  # rejected before any table, graph or churn schedule was built
    err = capsys.readouterr().err
    assert err.startswith("error:") and "exceed the limit" in err
    assert "Traceback" not in err
    assert keys in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "old, new, section",
    [
        ("value: 0.1}", "value: .nan}", "signals.default.value"),
        ("value: 0.8}", "value: .inf}", "signals.agents.3.value"),
        (
            "3: {kind: constant, value: 0.8}",
            "3: {kind: piecewise_linear, points: [[0, 0.1], [5, .nan]]}",
            "signals.agents.3.points",
        ),
        (
            "3: {kind: constant, value: 0.8}",
            "3: {kind: sinusoid, amplitude: .nan, period: 10}",
            "signals.agents.3.amplitude",
        ),
        ("signals:\n", "signals:\n  slope_bound: .nan\n", "slope_bound"),
        # finite numbers whose slope bound, values or step range pass the float range
        (
            "3: {kind: constant, value: 0.8}",
            "3: {kind: sinusoid, amplitude: 1.0e+308, period: 0.5, offset: 1.0e+308}",
            "signals: the input slope bound inf is not finite",
        ),
        (
            "3: {kind: constant, value: 0.8}",
            "3: {kind: sinusoid, amplitude: 1.0e+308, period: 4, offset: 1.0e+308}",
            "signals: agent 3 has input inf at tick 1",
        ),
        (
            "3: {kind: constant, value: 0.8}",
            "3: {kind: random_walk_clamped, step_bound: 1.0e+308}",
            "signals.agents.3: step bound",
        ),
    ],
    ids=["nan-default", "inf-agent", "nan-point", "nan-amplitude", "nan-slope-bound",
         "overflow-slope-bound", "overflow-input", "overflow-step-range"],
)
def test_non_finite_signal_numbers_exit_1(old, new, section, tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(MINI_CONSENSUS.replace(old, new))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # nothing overflows on the way
        assert main(["validate", "--scenario", str(bad)]) == 1
        assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert section in err and "finite" in err
    assert not (tmp_path / "out").exists()


SPREAD = """
kind: consensus
seed: 1
horizon: 10
protocol: {mode: min, variant: exact, delta: 1}
topology: {kind: line, n: 2}
signals: {default: {kind: constant, value: -1.0e+308}, agents: {2: {kind: constant, value: 1.0e+308}}}
"""
STATES_SPREAD = SPREAD.replace("value: 1.0e+308", "value: -1.0e+308") + "initial_states: [1.7e+308, 0.0]\n"


@pytest.mark.parametrize(
    "protocol", ["variant: exact, delta: 1", "variant: approximate, alpha: 0.5"],
    ids=["exact", "approximate"],
)
@pytest.mark.parametrize(
    "config, section", [(SPREAD, "signals"), (STATES_SPREAD, "initial_states")],
    ids=["signals", "initial-states"],
)
def test_values_whose_spread_overflows_exit_1(config, section, protocol, tmp_path, capsys):
    # each value is finite, but their spread is not: every error and gap of the
    # run would be, and the summary once held Infinity with exit 0
    bad = tmp_path / "spread.yaml"
    bad.write_text(config.replace("variant: exact, delta: 1", protocol))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # nothing overflows on the way
        assert main(["validate", "--scenario", str(bad)]) == 1
        assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 2 and "Traceback" not in err
    assert err.startswith(f"error: {section}: the values span [") and "float" in err
    assert not (tmp_path / "out").exists()
    # a spread just inside the float range loads
    bad.write_text(bad.read_text().replace("1.0e+308", "0.8e+308").replace("1.7e+308", "0.8e+308"))
    assert main(["validate", "--scenario", str(bad)]) == 0


OVERFLOWING_GAP = """
kind: consensus
seed: 1
horizon: 10
protocol: {mode: max, variant: approximate, alpha: 0.5}
topology: {kind: line, n: 2}
signals: {slope_bound: 0.49999, default: {kind: constant, value: 0.0}}
initial_states: [1.0e+308, 0.0]
"""


def test_a_convergence_time_past_the_float_range_exits_1(tmp_path, capsys):
    # 1e308 / (0.5 - 0.49999) ticks once reached int() as inf: a traceback
    argv = "bounds --variant approximate --diameter 3 --alpha 0.5 --slope 0.49999 --gap 1e308"
    assert main(argv.split()) == 1
    captured = capsys.readouterr()
    assert "tracking_bound" not in captured.out
    assert captured.err.startswith("error: the initial gap (1e+308) over the margin")
    bad = tmp_path / "gap.yaml"
    bad.write_text(OVERFLOWING_GAP)
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the initial gap (1e+308) over the margin")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_size_est_rejects_min_mode(tmp_path, capsys):
    # the estimator reads the coordinatewise maxima, so it needs max consensus
    low = tmp_path / "low.yaml"
    low.write_text(MINI_DSE.replace("mode: max", "mode: min"))
    assert main(["size-est", "--scenario", str(low), "--out", str(tmp_path / "out")]) == 1
    assert "max consensus" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_validate_invalid_config_exits_2(tmp_path, capsys):
    # constant inputs have zero slope, so a tiny alpha still validates
    slow = tmp_path / "slow.yaml"
    slow.write_text(MINI_CONSENSUS.replace("alpha: 0.2", "alpha: 0.0005"))
    assert main(["validate", "--scenario", str(slow)]) == 0
    capsys.readouterr()
    # a sinusoid pushes the slope bound past alpha
    fast = tmp_path / "fast.yaml"
    fast.write_text(FAST_CONSENSUS)
    assert main(["validate", "--scenario", str(fast)]) == 2
    assert "alpha" in capsys.readouterr().err


def test_sweep_alpha_grid_monotone(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            "--scenario",
            "line6_admc",
            "--grid",
            "alpha=0.01,0.03,0.06,0.12",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    with (out / "sweep.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["value"] for r in rows] == ["0.01", "0.03", "0.06", "0.12"]
    # alpha below the slope bound runs, and its row says which assumption broke
    slow = rows[0]
    assert slow["status"].startswith(
        "violated: decay alpha (0.01) must exceed the input slope bound (0.02)"
    )
    assert slow["epsilon_theory"] and slow["convergence_empirical"]
    assert not slow["convergence_theory"]  # the bound gives no convergence time
    ok = rows[1:]
    assert all(r["status"] == "ok" for r in ok)
    eps = [float(r["epsilon_theory"]) for r in ok]
    conv = [int(r["convergence_theory"]) for r in ok]
    assert eps == sorted(eps) and eps[0] < eps[-1]
    assert conv == sorted(conv, reverse=True) and conv[0] > conv[-1]
    for row in ok:
        assert float(row["epsilon_empirical"]) <= float(row["epsilon_theory"]) + 1e-9
        assert int(row["convergence_empirical"]) <= int(row["convergence_theory"])


def test_sweep_row_reports_a_violated_assumption(tmp_path, capsys):
    """A cascade shallower than the line's diameter of 5 runs, but its row says why
    its error exceeds the theory."""
    out = tmp_path / "sweep"
    args = ["sweep", "--scenario", "line6_edmc", "--grid", "delta=2,6", "--out", str(out)]
    assert main(args) == 0
    with (out / "sweep.csv").open() as fh:
        shallow, deep = csv.DictReader(fh)
    assert shallow["status"].startswith("violated: cascade depth (2) is below the diameter (5)")
    assert float(shallow["epsilon_empirical"]) > float(shallow["epsilon_theory"])
    assert deep["status"] == "ok"


def test_sweep_workers_match_serial(tmp_path, capsys):
    args = ["sweep", "--scenario", "line6_admc", "--grid", "alpha=0.03,0.12"]
    assert main(args + ["--out", str(tmp_path / "serial")]) == 0
    assert main(args + ["--out", str(tmp_path / "par"), "--workers", "2"]) == 0
    serial = (tmp_path / "serial" / "sweep.csv").read_text()
    parallel = (tmp_path / "par" / "sweep.csv").read_text()
    assert serial == parallel


def test_sweep_pool_has_no_more_workers_than_grid_points(tmp_path, monkeypatch, capsys):
    """A fork pool starts all its workers at once, so ``--workers`` is capped
    at the grid's size; a fake pool records the size without starting one."""
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr("openmax.cli.ProcessPoolExecutor", Pool)
    args = ["sweep", "--scenario", "line6_admc", "--workers", "64", "--out", str(tmp_path)]
    assert main(args + ["--grid", "alpha=0.03,0.12"]) == 0
    assert main(args + ["--grid", "alpha=0.03"]) == 0  # one point runs in this process
    assert sizes == [2]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_rejects_fewer_than_one_worker(workers, tmp_path, capsys):
    args = ["sweep", "--scenario", "line6_admc", "--grid", "alpha=0.03", "--out", str(tmp_path)]
    assert main(args + ["--workers", workers]) == 1
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_bad_grid_exits_1(capsys):
    assert main(["sweep", "--scenario", "line6_admc", "--grid", "gamma=1"]) == 1
    assert main(["sweep", "--scenario", "line6_admc", "--grid", "alpha"]) == 1
    assert "--grid" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["delta=5.7", "delta=4,5.5", "p=2.5"])
def test_sweep_rejects_fractional_integer_grid(grid, tmp_path, capsys):
    assert main(["sweep", "--scenario", "line6_edmc", "--grid", grid, "--out", str(tmp_path)]) == 1
    assert "integer" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


FUZZ_BASES = [
    *(yaml.safe_load(preset_text(name)) for name in list_presets()),
    yaml.safe_load(MINI_CONSENSUS),
    yaml.safe_load(MINI_CONSENSUS + EXPLICIT_CHURN % "[3]"),
    yaml.safe_load(MINI_DSE),
]


def _leaves(node, path=()):
    """The path of every scalar in a parsed config, as a tuple of keys and indices."""
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _leaves(value, (*path, key))
    else:
        yield path


@st.composite
def mutated_configs(draw):
    """A base config with one of its leaves replaced, the leaf's path and both values."""
    config = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    path = draw(st.sampled_from(list(_leaves(config))))
    small = st.one_of(
        st.text(max_size=3),
        st.booleans(),
        st.integers(-2, 3),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    new = draw(st.one_of(
        small,
        st.lists(small, max_size=2),
        st.dictionaries(st.text(max_size=2), small, max_size=2),
    ))
    *parents, last = path
    holder = functools.reduce(operator.getitem, parents, config)
    old, holder[last] = holder[last], new
    return config, ".".join(map(str, path)), old, new


@settings(max_examples=100, derandomize=True, deadline=None)
@given(case=mutated_configs())
def test_mutated_configs_fail_at_load_with_the_leaf_path(case):
    """Every mutated config loads, or fails with an ``error:`` line and exit 1
    or 2, or exits 2 with the ``violated:`` lines of its windows; a wrongly
    typed number names its leaf's dotted path and exits 1."""
    config, path, old, new = case
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "fuzz.yaml"
        scenario.write_text(yaml.safe_dump(config))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", "--scenario", str(scenario)])
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:  # a window that breaks an assumption the load cannot check exits 2 as run does
        assert err.startswith("error:") or code == 2 and err.startswith("violated:")
    number = isinstance(old, (int, float)) and not isinstance(old, bool)
    if number and (isinstance(new, bool) or not isinstance(new, int)):
        assert code == 1 and path in err, err


EDGE = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 0.25, -1.0])


@st.composite
def signal_configs(draw) -> dict:
    """A signal of any kind, its numbers drawn from the edge values; walks,
    the kind with clamps to check, come twice as often as each other kind."""
    kinds = ["constant", "piecewise_linear", "sinusoid", *["random_walk_clamped"] * 2]
    kind = draw(st.sampled_from(kinds))
    if kind == "constant":
        return {"kind": kind, "value": draw(EDGE)}
    if kind == "piecewise_linear":
        ticks = sorted(draw(st.sets(st.integers(-3, 30), min_size=1, max_size=3)))
        return {"kind": kind, "points": [[k, draw(EDGE)] for k in ticks]}
    if kind == "sinusoid":
        period = draw(st.sampled_from([1e-300, 4.0, 50.0, 50.0, 1e300]))
        return {"kind": kind, "amplitude": draw(EDGE), "period": period,
                "phase": draw(EDGE), "offset": draw(EDGE)}
    step_bound = draw(st.sampled_from([0.0, 1e-300, 0.01, 0.01, 0.2, 1e300]))
    walk = {"kind": kind, "step_bound": step_bound}
    clamps = [draw(EDGE), draw(EDGE)]
    if draw(st.sampled_from([True, True, True, False])):  # a quarter of the pairs may cross
        clamps.sort()
    keys = draw(st.sampled_from([("lo", "hi"), ("start", "lo", "hi"), ("start", "hi"), ("lo",), ()]))
    values = zip(("lo", "hi", "start"), [*clamps, draw(EDGE)])
    walk.update((key, value) for key, value in values if key in keys)
    return walk


@st.composite
def whole_configs(draw) -> tuple[dict, list[int]]:
    """A config over every topology, churn, signal and protocol kind, and its node ids."""
    kind = draw(st.sampled_from(["consensus", "size_estimation"]))
    horizon = draw(st.integers(1, 30))
    variant = draw(st.sampled_from(["approximate", "exact"]))
    mode = draw(st.sampled_from(["max", "min"])) if kind == "consensus" else "max"
    protocol = {"mode": mode, "variant": variant, "read_departing": draw(st.booleans())}
    if variant == "approximate":
        protocol["alpha"] = draw(st.sampled_from([1e-300, 0.05, 0.3, 0.99]))
    else:
        protocol["delta"] = draw(st.integers(0, 6))
    config = {"kind": kind, "seed": draw(st.integers(0, 99)), "horizon": horizon,
              "protocol": protocol}
    topology = draw(st.sampled_from(["line", "barabasi_albert", "explicit"]))
    if topology == "line":
        nodes = list(range(1, draw(st.integers(1, 8)) + 1))
        config["topology"] = {"kind": "line", "n": len(nodes)}
    elif topology == "barabasi_albert":
        seed_line, grown = draw(st.integers(1, 4)), draw(st.integers(0, 12))
        nodes = list(range(1, seed_line + grown + 1))
        config["topology"] = {"kind": topology, "seed_line": seed_line, "target_n": len(nodes),
                              "edges_per_new_node": draw(st.integers(1, 3))}
    else:  # a random tree on gapped ids, with some of its edges cut
        nodes = sorted(draw(st.sets(st.integers(-5, 40), min_size=1, max_size=8)))
        edges = [(nodes[draw(st.integers(0, i - 1))], v) for i, v in enumerate(nodes) if i]
        edges = [e for e in edges if draw(st.integers(0, 9))]
        config["topology"] = {"kind": topology, "text": "".join(
            [f"nodes: {' '.join(map(str, nodes))}\n", *(f"{u} {v}\n" for u, v in edges)])}
    churn = draw(st.sampled_from([None, "pool_random", "explicit"]))
    if churn == "pool_random":
        pool_size = draw(st.integers(1, max(1, len(nodes) - 1)))
        config["churn"] = {"kind": churn, "pool_size": pool_size,
                           "every": draw(st.integers(1, horizon)),
                           "activation_probability": draw(st.sampled_from([0.3, 0.5, 0.9]))}
    elif churn == "explicit":
        ticks = sorted(draw(st.sets(st.integers(1, horizon), min_size=1, max_size=2)))
        events, active = [], set(nodes)
        for tick in ticks:
            flip = draw(st.sets(st.sampled_from(nodes), min_size=1, max_size=2))
            event = {"tick": tick, "deactivate": sorted(flip & active),
                     "activate": sorted(flip - active)}
            events.append({k: v for k, v in event.items() if v != []})
            active ^= flip
        config["churn"] = {"kind": churn, "events": events}
    if draw(st.integers(0, 3)) == 0:
        config["dwell"] = draw(st.integers(1, horizon))
    if kind == "consensus":
        signals = {"default": draw(signal_configs())}
        for v in draw(st.sets(st.sampled_from(nodes), max_size=2)):
            signals.setdefault("agents", {})[v] = draw(signal_configs())
        if draw(st.integers(0, 3)) == 0:
            signals["slope_bound"] = draw(st.sampled_from([0.0, 0.04, 1e300]))
        config["signals"] = signals
        if draw(st.integers(0, 3)) == 0:
            config["initial_states"] = [draw(EDGE) for _ in nodes]
    else:
        config["dse"] = {"p": draw(st.integers(2, 4)), "mc_trials": draw(st.integers(2, 40))}
    return config, nodes


@settings(max_examples=90, derandomize=True, deadline=None, database=None)
@given(case=whole_configs())
def test_validate_exits_as_the_run_does(case):
    """``validate`` and then ``run`` or ``size-est`` on a whole config exit
    with the same code, warning-free and without a traceback.  A run that
    gets past its load writes ``summary.json``, on exit 2 as on exit 0, and
    every clamped walk's inputs in ``trace.csv`` stay within its clamps."""
    config, nodes = case
    command = "run" if config["kind"] == "consensus" else "size-est"
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        path, out = Path(tmp) / "drawn.yaml", Path(tmp) / "out"
        path.write_text(yaml.safe_dump(config))
        codes, errs = [], []
        for argv in (["validate"], [command, "--out", str(out)]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                codes.append(main([*argv, "--scenario", str(path)]))
            errs.append(err.getvalue())
        assert codes[0] == codes[1], errs
        assert not any("Traceback" in err for err in errs)
        ran = codes[1] == 0 or errs[1].startswith("violated:")
        assert (out / "summary.json").is_file() == ran, errs
        if not ran or command != "run":
            return
        with (out / "trace.csv").open() as fh:
            rows = list(csv.DictReader(fh))
    signals = config["signals"]
    for v in nodes:
        spec = signals.get("agents", {}).get(v, signals["default"])
        if spec["kind"] == "random_walk_clamped":
            inputs = [float(r["u"]) for r in rows if r["agent"] == str(v)]
            assert all(spec.get("lo", -math.inf) <= u <= spec.get("hi", math.inf) for u in inputs)


def test_importing_the_cli_leaves_scipy_unloaded():
    """scipy is a test dependency only: no command imports it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = "import sys, openmax.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
