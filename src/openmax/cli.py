"""Command-line front end: run scenarios, print bounds, sweep parameters.

Subcommands
-----------
run        simulate a consensus scenario and write trace/summary/plot data
size-est   simulate a size-estimation scenario and write its artifacts
bounds     print the worst-case times and error bands for a parameter set
sweep      run a scenario once per grid value and tabulate the trade-off
validate   load a scenario config and check its windows without running it

Scenarios are named by path or by preset name.  Exit codes: 0 on success,
1 on usage, I/O or config errors, 2 when a tracking assumption is broken:
at load (dwell spacing, connectivity, slope bound) or as a window's bounds
reason (decay, dwell or cascade depth), printed after ``run`` or ``size-est``
writes, and by ``validate`` alike.
All randomness comes from the scenario seed; ``--seed auto`` draws a fresh
root seed once, prints it, and records it in the summary for replay.  The
``OPENMAX_OUT`` environment variable sets the default output directory.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .bounds import AssumptionViolation, window_bounds
from .protocols import ProtocolParams
from .signals import SlopeCertificationError
from .simulator import (
    ConnectivityLost,
    DseConfig,
    RunExecutionError,
    Scenario,
    ScenarioError,
    load_scenario,
    parse_config,
    preset_text,
    run,
    run_size_estimation,
    scenario_from_mapping,
    write_outputs,
)

__all__ = ["main"]

_SWEEP_FIELDS = [
    "parameter",
    "value",
    "epsilon_theory",
    "epsilon_empirical",
    "convergence_theory",
    "convergence_empirical",
    "status",
]


def _scenario_text(spec: str) -> tuple[str, str]:
    """Resolve a --scenario argument to (config text, scenario name)."""
    path = Path(spec)
    if path.is_file():
        return path.read_text(), path.stem
    return preset_text(spec), spec


def _parse_seed(arg: str | None) -> int | None:
    if arg is None:
        return None
    if arg == "auto":
        seed = int(np.random.SeedSequence().entropy) & (2**64 - 1)
        print(f"seed: {seed}")
        return seed
    try:
        seed = int(arg)
    except ValueError:
        raise ScenarioError(f"--seed must be an unsigned integer or 'auto', got {arg!r}")
    if seed < 0:
        raise ScenarioError("--seed must be nonnegative")
    return seed


def _out_dir(args: argparse.Namespace, name: str) -> Path:
    if args.out is not None:
        return Path(args.out)
    base = os.environ.get("OPENMAX_OUT", "openmax-out")
    return Path(base) / name


def _violations(scenario: Scenario, reasons: Iterable[Sequence[str]]) -> int:
    """Print each window's broken assumptions on stderr; 2 if any, else 0."""
    broken = [(r, w) for w, rs in zip(scenario.windows, reasons) for r in rs]
    for r, w in broken:
        print(f"violated: {r} (ticks {w.start}-{w.end})", file=sys.stderr)
    return 2 if broken else 0


def _cmd_run(args: argparse.Namespace) -> int:
    text, name = _scenario_text(args.scenario)
    scenario = load_scenario(text, seed=_parse_seed(args.seed), name=name)
    if scenario.kind != "consensus":
        raise ScenarioError(
            f"scenario {scenario.name!r} is a size-estimation scenario; use 'size-est'"
        )
    result = run(scenario)
    paths = write_outputs(result, _out_dir(args, scenario.name))
    peak = result.summary["max_error"]
    worst = next(w for w in result.summary["windows"] if w["empirical"]["max_error"] == peak)
    print(f"wrote {paths['summary']}")
    print(f"max_error: {peak}")
    print(f"worst_window: ticks {worst['start']}-{worst['end']}")
    print(f"tracking_bound: {worst['bounds']['tracking_bound']}")
    print(f"steady_bound: {worst['bounds']['steady_bound']}")
    return _violations(scenario, (w["bounds"]["reasons"] for w in result.summary["windows"]))


def _cmd_size_est(args: argparse.Namespace) -> int:
    text, name = _scenario_text(args.scenario)
    scenario = load_scenario(text, seed=_parse_seed(args.seed), name=name)
    if scenario.kind != "size_estimation":
        raise ScenarioError(
            f"scenario {scenario.name!r} is a consensus scenario; use 'run'"
        )
    if args.trials is not None:
        scenario = replace(scenario, dse=DseConfig(scenario.dse.p, args.trials))
    result = run_size_estimation(scenario)
    paths = write_outputs(result, _out_dir(args, scenario.name))
    print(f"wrote {paths['summary']}")
    print(f"expected_closed_form: {result.summary['expected_closed_form']}")
    print(f"monte_carlo_mean: {result.summary['monte_carlo_mean']}")
    print(f"ci99: {result.summary['ci99']}")
    return _violations(scenario, (w["bounds"]["reasons"] for w in result.summary["windows"]))


def _cmd_bounds(args: argparse.Namespace) -> int:
    if args.variant == "approximate" and (args.diameter is None or args.alpha is None):
        raise ScenarioError("the approximate variant needs --diameter and --alpha")
    if args.variant == "exact" and args.delta is None:
        raise ScenarioError("the exact variant needs --delta")
    if args.variant == "exact" and args.gap is not None:
        raise ScenarioError("--gap applies only to the approximate variant")
    params = ProtocolParams("max", args.variant, args.alpha, args.delta)
    report = window_bounds(params, args.slope, args.diameter, args.dwell, args.gap or 0.0)
    shown = (f"{key}: {value}" for key, value in report.to_dict().items() if key != "reasons")
    print(f"protocol: {args.variant}", *shown, sep="\n")
    conditions = {
        "approximate": "decay alpha > slope bound and dwell >= diameter",
        "exact": "dwell >= cascade depth >= diameter",
    }
    print(f"conditions: {conditions[args.variant]}")
    for reason in report.reasons:
        print(f"violated: {reason}", file=sys.stderr)
    return 0 if report.assumptions_ok else 2


def _cmd_validate(args: argparse.Namespace) -> int:
    text, name = _scenario_text(args.scenario)
    scenario = load_scenario(text, seed=_parse_seed(args.seed), name=name)
    print(
        f"scenario {scenario.name!r} is valid: kind={scenario.kind}, "
        f"agents={scenario.reference.n}, windows={len(scenario.windows)}, "
        f"horizon={scenario.horizon}, dwell={scenario.dwell}"
    )
    reasons = (
        window_bounds(scenario.params, scenario.slope_bound, w.diameter, scenario.dwell).reasons
        for w in scenario.windows
    )
    return _violations(scenario, reasons)


def _parse_grid(arg: str) -> tuple[str, list[float]]:
    if "=" not in arg:
        raise ScenarioError("--grid expects name=v1,v2,... (e.g. alpha=0.03,0.06)")
    name, _, raw = arg.partition("=")
    name = name.strip()
    if name not in ("alpha", "delta", "p"):
        raise ScenarioError(f"--grid parameter must be alpha, delta, or p, got {name!r}")
    try:
        values = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ScenarioError(f"could not parse grid values from {raw!r}")
    if not values:
        raise ScenarioError("the grid needs at least one value")
    if name in ("delta", "p") and not all(v.is_integer() for v in values):
        raise ScenarioError(f"--grid {name} takes integer values, got {raw!r}")
    return name, values


def _sweep_point(job: tuple) -> dict:
    """Run one grid point; always returns a row, never raises."""
    config, name, param, value, seed, trials = job
    row = {k: "" for k in _SWEEP_FIELDS}
    row["parameter"] = param
    row["value"] = value
    try:
        data = copy.deepcopy(config)
        if param == "alpha":
            data.setdefault("protocol", {})["alpha"] = value
        elif param == "delta":
            data.setdefault("protocol", {})["delta"] = int(value)
        else:
            data.setdefault("dse", {})["p"] = int(value)
        if trials is not None and "dse" in data:
            data["dse"]["mc_trials"] = trials
        scenario = scenario_from_mapping(data, seed=seed, name=f"{name}[{param}={value}]")
        result = (
            run(scenario) if scenario.kind == "consensus" else run_size_estimation(scenario)
        )
        windows = result.summary["windows"]
        row["epsilon_theory"] = max(w["bounds"]["tracking_bound"] for w in windows)
        tconv = [w["bounds"]["convergence_time"] for w in windows]
        if all(t is not None for t in tconv):
            row["convergence_theory"] = max(tconv)
        emp_eps = [
            w["empirical"]["max_error_after_convergence"]
            for w in windows
            if w["empirical"]["max_error_after_convergence"] is not None
        ]
        if emp_eps:
            row["epsilon_empirical"] = max(emp_eps)
        emp_conv = [
            w["empirical"]["convergence_time"]
            for w in windows
            if w["empirical"]["convergence_time"] is not None
        ]
        if emp_conv:
            row["convergence_empirical"] = max(emp_conv)
        reasons = (f"violated: {r}" for w in windows for r in w["bounds"]["reasons"])
        row["status"] = next(reasons, "ok")
    except Exception as exc:  # a failed point marks its row; the sweep continues
        row["status"] = f"error: {exc}"
    return row


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ScenarioError(f"--workers must be at least 1, got {args.workers}")
    text, name = _scenario_text(args.scenario)
    config = parse_config(text)
    seed = _parse_seed(args.seed)
    param, values = _parse_grid(args.grid)
    if args.trials is not None:
        DseConfig(p=2, mc_trials=args.trials)  # reject a bad count before any point runs
        if config.get("kind") == "consensus":
            raise ScenarioError(
                f"scenario {name!r} is a consensus scenario; --trials applies to size estimation"
            )
    jobs = [(config, name, param, value, seed, args.trials) for value in values]
    workers = min(args.workers, len(jobs))  # a pool forks all its workers at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, jobs))
    else:
        rows = [_sweep_point(job) for job in jobs]

    out_dir = _out_dir(args, name)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = out_dir / "sweep.csv"
    with table.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_SWEEP_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {table}")
    for row in rows:
        print(json.dumps(row))
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="openmax",
        description="Extremum tracking and size estimation over open networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", required=True, help="config path or preset name")
        p.add_argument("--seed", default=None, help="root seed override (u64 or 'auto')")

    p_run = sub.add_parser("run", help="simulate a consensus scenario")
    add_scenario_flags(p_run)
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(handler=_cmd_run)

    p_se = sub.add_parser("size-est", help="simulate a size-estimation scenario")
    add_scenario_flags(p_se)
    p_se.add_argument("--out", default=None, help="output directory")
    p_se.add_argument("--trials", type=int, default=None, help="worst-case trial count")
    p_se.set_defaults(handler=_cmd_size_est)

    p_b = sub.add_parser("bounds", help="print worst-case times and error bands")
    p_b.add_argument("--variant", choices=["approximate", "exact"], required=True)
    p_b.add_argument("--diameter", type=int, default=None)
    p_b.add_argument("--delta", type=int, default=None, help="cascade depth")
    p_b.add_argument("--alpha", type=float, default=None, help="decay per tick")
    p_b.add_argument("--slope", type=float, required=True, help="input slope bound")
    p_b.add_argument("--gap", type=float, default=None, help="initial overshoot above the target")
    p_b.add_argument("--dwell", type=int, default=None)
    p_b.set_defaults(handler=_cmd_bounds)

    p_sw = sub.add_parser("sweep", help="run a grid of parameter values")
    add_scenario_flags(p_sw)
    p_sw.add_argument("--out", default=None, help="output directory")
    p_sw.add_argument("--grid", required=True, help="name=v1,v2,... over alpha, delta, or p")
    p_sw.add_argument("--trials", type=int, default=None, help="worst-case trial count")
    p_sw.add_argument("--workers", type=int, default=1, help="parallel runs, at most one a point")
    p_sw.set_defaults(handler=_cmd_sweep)

    p_v = sub.add_parser("validate", help="check a scenario config without running it")
    add_scenario_flags(p_v)
    p_v.set_defaults(handler=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage errors exit 2, which means a violation here
        if exc.code != 2:
            raise
        return 1
    try:
        return args.handler(args)
    except (AssumptionViolation, SlopeCertificationError, ConnectivityLost) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ScenarioError, RunExecutionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
