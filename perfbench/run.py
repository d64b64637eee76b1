"""Scenario-run benchmark for openmax.

Run from the repository root:

    python3 perfbench/run.py --workload sizeest-approx-ba3000 --seed 7 --seconds 20 --trace 0

Each run of a scenario is what one ``openmax run`` / ``openmax size-est`` call
does: ``load_scenario`` (set-up), ``run`` or ``run_size_estimation``
(simulate), then ``write_outputs`` (write).  The benchmark builds the scenario
config from the workload and ``--seed``, times each phase, and checks every
run's written outputs.  It repeats whole runs for ``--seconds`` and reports
medians; it starts no run that would end past ``--seconds``.  With
``--trace 1`` it makes one untraced run as a warm-up and then one run with
per-function spans, and reports the per-layer numbers.

Human-readable lines go first; the last line of standard output is the
result as one JSON object.  Everything runs in this one process, without
threads or pools; BLAS/OpenMP thread counts are pinned to 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import yaml

from checks import output_problems
from spans import Tracer, call_overhead_s
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parents[1]
OUT_ROOT = Path(__file__).resolve().parent / "_out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)

# Set-up and write are repeated alone until each has this many samples.
MIN_PHASE_SAMPLES = 3

TRACED = (
    "simulator.load_scenario",
    "simulator.run",
    "simulator.run_size_estimation",
    "simulator.write_outputs",
    "graph.barabasi_albert",
    "graph.apply_churn",
    "graph.is_connected",
    "graph.induced_subgraph",
    "graph.diameter",
    "signals.build_spec",
    "signals.certify_slope",
    "signals.sample",
    "protocols.open_step",
    "protocols.output",
    "size_estimation.dse_generate",
    "size_estimation.mle_estimate",
    "size_estimation.dse_worst_case_monte_carlo",
    "bounds.admc_bounds",
    "bounds.admc_min_bounds",
    "bounds.edmc_bounds",
    "bounds.audit_window",
)
BOUNDS = ("bounds.admc_bounds", "bounds.admc_min_bounds", "bounds.edmc_bounds", "bounds.audit_window")
OBSERVE = ("signals.sample", "size_estimation.mle_estimate", "size_estimation.dse_generate")
REPORT = ("graph.diameter", "size_estimation.dse_worst_case_monte_carlo") + BOUNDS
GRAPH_SETUP = (
    "graph.barabasi_albert",
    "graph.apply_churn",
    "graph.is_connected",
    "graph.induced_subgraph",
)


def load_program(root: Path):
    """Import ``openmax.simulator`` from the checkout's ``src`` tree, nowhere else."""
    src = (root / "src").resolve()
    if not (src / "openmax" / "__init__.py").is_file():
        raise ImportError(f"no openmax package under {src}")
    sys.path.insert(0, str(src))
    import openmax.simulator as sim

    if Path(sim.__file__).resolve().parents[1] != src:
        raise ImportError(f"openmax was imported from {sim.__file__}, not from {src}")
    return sim


@dataclass
class Sample:
    setup_s: float
    simulate_s: float
    write_s: float
    agent_ticks: int
    windows: tuple[tuple[int, int, int], ...]
    write_bytes: int
    write_files: int

    @property
    def total_s(self) -> float:
        return self.setup_s + self.simulate_s + self.write_s


def scenario_text(workload: Workload, seed: int) -> str:
    return yaml.safe_dump(workload.mapping(seed), sort_keys=False)


def run_scenario(sim, workload: Workload, seed: int, out_dir: Path):
    """One full scenario run, timed by phase: (sample, problems, run result)."""
    text = scenario_text(workload, seed)
    try:
        t0 = perf_counter()
        scenario = sim.load_scenario(text)
        t1 = perf_counter()
        simulate = sim.run if scenario.kind == "consensus" else sim.run_size_estimation
        result = simulate(scenario)
        t2 = perf_counter()
        sim.write_outputs(result, out_dir)
        t3 = perf_counter()
        problems = output_problems(out_dir, workload.require_agreement, workload.digests_at(seed))
    except Exception:
        return None, [traceback.format_exc()], None
    windows = tuple(
        (w["start"], w["end"], w.get("n_active", w.get("n_true"))) for w in result.summary["windows"]
    )
    files = [p for p in out_dir.rglob("*") if p.is_file()]
    sample = Sample(
        setup_s=t1 - t0,
        simulate_s=t2 - t1,
        write_s=t3 - t2,
        agent_ticks=sum(n * (end - start + 1) for start, end, n in windows),
        windows=windows,
        write_bytes=sum(p.stat().st_size for p in files),
        write_files=len(files),
    )
    return sample, problems, result


def time_setup(sim, workload: Workload, seed: int, expected: tuple) -> tuple[float | None, list[str]]:
    """Set the scenario up alone; its windows must match a full run's."""
    text = scenario_text(workload, seed)
    try:
        t0 = perf_counter()
        scenario = sim.load_scenario(text)
        dt = perf_counter() - t0
        windows = tuple((w.start, w.end, w.graph.n) for w in scenario.windows)
    except Exception:
        return None, [traceback.format_exc()]
    if windows != expected:
        return dt, [f"set-up realized windows {windows}, a full run realized {expected}"]
    return dt, []


def time_write(
    sim, workload: Workload, seed: int, result, out_dir: Path
) -> tuple[float | None, list[str]]:
    """Write a finished run's artifacts again, into a fresh directory, and check them."""
    try:
        t0 = perf_counter()
        sim.write_outputs(result, out_dir)
        dt = perf_counter() - t0
        return dt, output_problems(out_dir, workload.require_agreement, workload.digests_at(seed))
    except Exception:
        return None, [traceback.format_exc()]


class Attempts:
    """Counts attempts and failures, reporting each failure on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"run {self.attempted} failed:", *problems, sep="\n  ", file=sys.stderr)


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


def layer_metrics(
    tracer: Tracer, traced: Sample, call_overhead: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as ``name: (value, unit)``.

    ``call_overhead`` is the seconds one traced call adds; times the run's
    traced calls, it estimates what tracing cost this run.
    """
    stats = tracer.stats

    def outer_s(group: tuple[str, ...]) -> float:
        """Time of calls into ``group`` made from outside it (no double counting)."""
        return sum(
            s
            for (parent, child), s in tracer.child_s.items()
            if child in group and parent not in group
        )

    load = "simulator.load_scenario"
    graph_in_setup = sum(tracer.child_s.get((load, g), 0.0) for g in GRAPH_SETUP)
    changes = len(traced.windows) - 1
    redraws = stats["graph.induced_subgraph"].calls  # one per tested churn draw
    m: dict[str, tuple[float, str]] = {
        "trace.setup_s": (traced.setup_s, "s"),
        "trace.simulate_s": (traced.simulate_s, "s"),
        "trace.write_s": (traced.write_s, "s"),
        "trace.total_s": (traced.total_s, "s"),
        "trace.overhead_s": (call_overhead * sum(st.calls for st in stats.values()), "s"),
        "simulator.load_scenario.s": (stats[load].s, "s"),
        "simulator.load_scenario.self_s": (stats[load].self_s, "s"),
        "setup.nongraph_s": (stats[load].s - graph_in_setup, "s"),
        "graph.barabasi_albert.s": (stats["graph.barabasi_albert"].s, "s"),
        "churn.useful_per_attempt": (changes / redraws if redraws else 0.0, "ratio"),
    }
    for name in ("graph.apply_churn", "graph.is_connected", "graph.induced_subgraph",
                 "protocols.open_step", "protocols.output", "graph.diameter"):
        m[f"{name}.calls"] = (stats[name].calls, "count")
        m[f"{name}.s"] = (stats[name].s, "s")
    m["observe.calls"] = (sum(stats[name].calls for name in OBSERVE), "count")
    m["observe.s"] = (outer_s(OBSERVE), "s")
    m["simulate.self_s"] = (
        stats["simulator.run"].self_s + stats["simulator.run_size_estimation"].self_s, "s"
    )
    m["bounds.s"] = (outer_s(BOUNDS), "s")
    m["report.s"] = (outer_s(REPORT), "s")
    m["simulator.write_outputs.s"] = (stats["simulator.write_outputs"].s, "s")
    m["write.bytes"] = (traced.write_bytes, "bytes")
    m["write.files"] = (traced.write_files, "count")
    return m


def print_span_table(tracer: Tracer) -> None:
    print("# traced functions: calls, inclusive s, self s")
    for name, st in tracer.stats.items():
        if not st.present:
            print(f"#   {name:45s} absent")
        else:
            print(f"#   {name:45s} {st.calls:9d} {st.s:10.4f} {st.self_s:10.4f}")
    for root in ("simulator.load_scenario", "simulator.run", "simulator.run_size_estimation",
                 "simulator.write_outputs"):
        st = tracer.stats[root]
        if st.calls:
            print(f"#   {root}: {st.s:.4f} s = self {st.self_s:.4f} + traced callees "
                  f"{tracer.children_s(root):.4f}")


def measure(sim, workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Run the workload and return the result object (``correct`` ... ``metrics``)."""
    attempts = Attempts()
    runs: list[Sample] = []
    peak_rss_mb = None
    start = perf_counter()
    try:
        while True:
            t0 = perf_counter()
            sample, problems, result = run_scenario(sim, workload, seed, _fresh_dir(out_dir))
            if peak_rss_mb is None:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            attempts.record(problems)
            if sample is not None:
                runs.append(sample)
            now = perf_counter()
            # Start no run that would end past the budget, as judged by the
            # last one; a traced measurement makes one untraced run only.
            if trace or now - start + (now - t0) > seconds:
                break
            del result  # a live trace would slow the collector in the next run
            gc.collect()

        setups = [r.setup_s for r in runs]
        writes = [r.write_s for r in runs]
        if result is not None and not trace:
            for _ in range(MIN_PHASE_SAMPLES - len(writes)):
                dt, problems = time_write(sim, workload, seed, result, _fresh_dir(out_dir))
                attempts.record(problems)
                if dt is not None:
                    writes.append(dt)
        del result
        gc.collect()
        if runs and not trace:
            for _ in range(MIN_PHASE_SAMPLES - len(setups)):
                dt, problems = time_setup(sim, workload, seed, runs[0].windows)
                attempts.record(problems)
                if dt is not None:
                    setups.append(dt)
                gc.collect()

        metrics: dict[str, tuple[float, str]] = {}
        if trace:
            tracer = Tracer(TRACED)
            with tracer:
                traced, problems, _ = run_scenario(sim, workload, seed, _fresh_dir(out_dir))
            attempts.record(problems)
            if traced is not None:
                print_span_table(tracer)
                metrics = layer_metrics(tracer, traced, call_overhead_s())
        elif runs:
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "simulate_s": (statistics.median(r.simulate_s for r in runs), "s"),
                "write_s": (statistics.median(writes), "s"),
                "total_s": (statistics.median(r.total_s for r in runs), "s"),
                "agent_ticks_per_s": (statistics.median(r.agent_ticks / r.total_s for r in runs), "1/s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
            print(f"# samples: {len(runs)} full runs, {len(setups)} set-ups, {len(writes)} writes; "
                  f"{runs[0].agent_ticks} agent-ticks per run")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    print(f"# failed_share = {attempts.failed / max(attempts.attempted, 1):.4f} "
          f"({attempts.failed} of {attempts.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    return {
        "correct": attempts.failed == 0 and bool(metrics),
        "attempted": attempts.attempted,
        "failed": attempts.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(root),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="scenario seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=40.0, help="how long to repeat runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        sim = load_program(ROOT)
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    print("# env " + json.dumps(environment(ROOT), sort_keys=True))
    print(f"# workload {workload.name}, seed {seed}, seconds {args.seconds:g}, trace {args.trace}")
    out_dir = OUT_ROOT / f"{workload.name}-{os.getpid()}"
    result = measure(sim, workload, seed, args.seconds, bool(args.trace), out_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
