"""Correctness checks applied to every benchmark run's written outputs."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# The Monte Carlo reference is left out of the summary digest: its random
# stream may change on purpose, and the acceptance gates guard its result.
MONTE_CARLO_FIELDS = ("monte_carlo_mean", "ci99", "std_error", "floored_coordinates")


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def summary_digest(summary: dict) -> str:
    """sha256 of the summary as ``write_outputs`` formats it, minus Monte Carlo fields."""
    kept = {k: v for k, v in summary.items() if k not in MONTE_CARLO_FIELDS}
    return hashlib.sha256((json.dumps(kept, indent=2) + "\n").encode()).hexdigest()


def _non_finite(value: object, where: str) -> list[str]:
    if isinstance(value, float) and not math.isfinite(value):
        return [f"{where} is {value}"]
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _non_finite(v, f"{where}.{k}")]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _non_finite(v, f"{where}[{i}]")]
    return []


def summary_problems(summary: dict, require_agreement: bool) -> list[str]:
    """Bound violations, non-finite numbers and estimate disagreement in a summary."""
    problems = _non_finite(summary, "summary")
    for w in summary["windows"]:
        where = f"window [{w['start']}, {w['end']}]"
        emp = w["empirical"]
        for key in ("decrease_violations", "containment_violations"):
            if emp[key]:
                problems.append(f"{where}: {key} = {emp[key]}")
        if require_agreement and not w["steady"]["agree_exactly"]:
            problems.append(f"{where}: steady estimates disagree")
    return problems


def output_problems(
    out_dir: Path, require_agreement: bool, digests: tuple[str, str] | None
) -> list[str]:
    """Check the artifacts one ``write_outputs`` call left in ``out_dir``.

    ``digests`` is the expected (summary, trace.csv) pair, or None to skip
    the byte-for-byte comparison.
    """
    summary = json.loads((out_dir / "summary.json").read_text())
    problems = summary_problems(summary, require_agreement)
    if digests is not None:
        got = (summary_digest(summary), file_digest(out_dir / "trace.csv"))
        for what, want, have in zip(("summary.json", "trace.csv"), digests, got):
            if want != have:
                problems.append(f"{what} digest {have} differs from the recorded {want}")
    return problems
