"""Byte-for-byte output gate: refactors must leave every artifact unchanged.

Each scenario is run, written with ``write_outputs``, and every file is
hashed.  ``summary.json`` is hashed without its Monte Carlo fields, whose
random stream may change on purpose (gate 07 guards that result).  The
digests below were recorded before the simulator was collapsed onto one
engine; a mismatch means a change altered the bytes a run writes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from openmax.protocols import ProtocolParams
from openmax.simulator import load_preset, run, run_size_estimation, write_outputs

from util import line4_churn_scenario

MONTE_CARLO_FIELDS = ("monte_carlo_mean", "ci99", "std_error")

SCENARIOS = {
    "line6_admc": lambda: load_preset("line6_admc"),
    "line6_edmc": lambda: load_preset("line6_edmc"),
    "ba100_dse_admc": lambda: load_preset("ba100_dse_admc"),
    "ba100_dse_edmc": lambda: load_preset("ba100_dse_edmc"),
    "line4_max_approx": lambda: line4_churn_scenario(),
    "line4_min_approx": lambda: line4_churn_scenario(
        params=ProtocolParams(mode="min", variant="approximate", alpha=0.1)
    ),
    "line4_min_exact": lambda: line4_churn_scenario(
        params=ProtocolParams(mode="min", variant="exact", delta=3)
    ),
    "line4_max_approx_no_departing_read": lambda: line4_churn_scenario(
        params=ProtocolParams(
            mode="max", variant="approximate", alpha=0.1, read_departing=False
        )
    ),
}

GOLDEN: dict[str, dict[str, str]] = {
    "ba100_dse_admc": {
        "summary.json": "df4fbb6d172235424b9a340edbbe233a1c13d63063c5d3901b6f55629a79a438",
        "plotdata/graph_window_0.txt": "0ea1b8ca357b9f84058753f3f2d107aa27d0b87532e43e8d507875bedfd93836",
        "plotdata/graph_window_120.txt": "03b3689939a0a001413a523e8511c61a16f4eed69f154ba65cef785b537ffce9",
        "plotdata/graph_window_240.txt": "4fbb5d5be8cd06cb5827dc63a1a464b5a00057bf4df96634b97ea6ba461859c4",
        "plotdata/graph_window_360.txt": "50bb754a008f143353d8e0093cf4e7f88869ca784acc09da7c9a3d51220bcf64",
        "plotdata/graph_window_480.txt": "2c85bf414202c6c8286cd848773b9cb042d1e12d49415ad02e2ee66c1953e4e6",
        "plotdata/size_estimates.csv": "2928e73afdadc4e420997b100fdfd9ddd28926924e278f3cf83f5c87c8150375",
        "trace.csv": "72cb5f6226b5b332ed482a85880554eb29051879780cb1ae597aadeed6fa818a",
    },
    "ba100_dse_edmc": {
        "summary.json": "59e30e3b6df6bf1c3c81e2f24b456110eb4ec7eb6cd64d42ff2f6bddc79c8e47",
        "plotdata/graph_window_0.txt": "0ea1b8ca357b9f84058753f3f2d107aa27d0b87532e43e8d507875bedfd93836",
        "plotdata/graph_window_120.txt": "03b3689939a0a001413a523e8511c61a16f4eed69f154ba65cef785b537ffce9",
        "plotdata/graph_window_240.txt": "4fbb5d5be8cd06cb5827dc63a1a464b5a00057bf4df96634b97ea6ba461859c4",
        "plotdata/graph_window_360.txt": "50bb754a008f143353d8e0093cf4e7f88869ca784acc09da7c9a3d51220bcf64",
        "plotdata/graph_window_480.txt": "2c85bf414202c6c8286cd848773b9cb042d1e12d49415ad02e2ee66c1953e4e6",
        "plotdata/size_estimates.csv": "4a08f543c2d38cbc244d85e83bb85a8cd21a4909e2aa66a8f14fd5bf5912f983",
        "trace.csv": "d9fb62da6439e7cbd7f1986acea00cddd102c43757a98e12a2e01226d6a996e3",
    },
    "line4_max_approx": {
        "summary.json": "ae29c6038d2ee4c433b8e5280500ce94d8d655732d65ee8c1a44603872069850",
        "plotdata/graph_window_0.txt": "d3d10d6c3616be4c41c8147eb32094607d08fd5d0cd6e4c73abb62949468b883",
        "plotdata/graph_window_10.txt": "3e5d4e33a8263f202c12561f5893f752de0ff5378abf761e597c1b7b6cee3f79",
        "plotdata/graph_window_20.txt": "d3d10d6c3616be4c41c8147eb32094607d08fd5d0cd6e4c73abb62949468b883",
        "plotdata/state_trajectories.csv": "44988d732408e0456162131a475ab3fa953e7d1e0e8f77e3c1ad47b9ab79fee5",
        "trace.csv": "d50092649a5143e4c61d9f739260d383f85ebddcb1943067d38c4265baf57b2a",
    },
    "line4_max_approx_no_departing_read": {
        "summary.json": "4f7487d723b31221918779b135f5dfd8f6080c49cb974b626c281356f4340e81",
        "plotdata/graph_window_0.txt": "d3d10d6c3616be4c41c8147eb32094607d08fd5d0cd6e4c73abb62949468b883",
        "plotdata/graph_window_10.txt": "3e5d4e33a8263f202c12561f5893f752de0ff5378abf761e597c1b7b6cee3f79",
        "plotdata/graph_window_20.txt": "d3d10d6c3616be4c41c8147eb32094607d08fd5d0cd6e4c73abb62949468b883",
        "plotdata/state_trajectories.csv": "dc836868ea0dd177fbb9422cecea4ce8bef91ea6d8bd6ecb21657ff842132c84",
        "trace.csv": "d1da34d87f8b2a0637545695c5a0fa4cdd0eac67ae4908787eaeeb044b66528d",
    },
    "line4_min_approx": {
        "summary.json": "16f974b56de72b3738313c465411e17b29ee60272d332c6e8db85ae14acc88ff",
        "plotdata/graph_window_0.txt": "d3d10d6c3616be4c41c8147eb32094607d08fd5d0cd6e4c73abb62949468b883",
        "plotdata/graph_window_10.txt": "3e5d4e33a8263f202c12561f5893f752de0ff5378abf761e597c1b7b6cee3f79",
        "plotdata/graph_window_20.txt": "d3d10d6c3616be4c41c8147eb32094607d08fd5d0cd6e4c73abb62949468b883",
        "plotdata/state_trajectories.csv": "ccbf59b0ff9883087c2c476470838a6f3702197e806d984d2970fe7d721b7ed5",
        "trace.csv": "f4f8d97677da54198dff56fbe17234e81fa5cb523f695c3998587d4d62b7fdc7",
    },
    "line4_min_exact": {
        "summary.json": "62a940cd50137a019e3ba92a0b27cba691a115dae74cbafc6a0c9dcd0876b1a1",
        "plotdata/graph_window_0.txt": "d3d10d6c3616be4c41c8147eb32094607d08fd5d0cd6e4c73abb62949468b883",
        "plotdata/graph_window_10.txt": "3e5d4e33a8263f202c12561f5893f752de0ff5378abf761e597c1b7b6cee3f79",
        "plotdata/graph_window_20.txt": "d3d10d6c3616be4c41c8147eb32094607d08fd5d0cd6e4c73abb62949468b883",
        "plotdata/state_trajectories.csv": "8a0e871a6e0e487303e53b93d552fa3c7d833817cb3a5ed4b4c64be2ca3385ed",
        "trace.csv": "caa8d2f10ce3ee74b798b3b37ed28696571bd57fbb3ecbec28fb461973faa5a7",
    },
    "line6_admc": {
        "summary.json": "e6d604551ed951df5e6b2c6263225495d866dda47d90914e133a123cf693b5e5",
        "plotdata/graph_window_0.txt": "65f9997306d2866ba07f44164ec16a032f1cea712336908bc3972471ce555d48",
        "plotdata/state_trajectories.csv": "25d74efe61622aca2e415ba3ee1ac2547c89b12afa778e0704a16bc4a0bd4501",
        "trace.csv": "f0bff962cf6ed50593e2956457370e2dd378ec817bb36b4ccc45ece29da0a33d",
    },
    "line6_edmc": {
        "summary.json": "1c23f0dbd7275a80ca4d322888d2f6ba4d7e6caf9853c2ac727fb260a0585728",
        "plotdata/graph_window_0.txt": "65f9997306d2866ba07f44164ec16a032f1cea712336908bc3972471ce555d48",
        "plotdata/state_trajectories.csv": "ce331a8764f0248b9327c9a5943756582cc9a62a567d8b5146e690002eca3df6",
        "trace.csv": "0b0bb4e7bc4af57218a38cfb7860c9c4e184c52294837b77f5f5a03ff09d205c",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(out: Path) -> dict[str, str]:
    """Digest of every file one ``write_outputs`` call left under ``out``."""
    summary = json.loads((out / "summary.json").read_text())
    kept = {k: v for k, v in summary.items() if k not in MONTE_CARLO_FIELDS}
    digests = {"summary.json": _sha256((json.dumps(kept, indent=2) + "\n").encode())}
    for path in sorted(out.rglob("*")):
        rel = path.relative_to(out).as_posix()
        if path.is_file() and rel != "summary.json":
            digests[rel] = _sha256(path.read_bytes())
    return digests


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_outputs_match_recorded_digests(name, tmp_path):
    scenario = SCENARIOS[name]()
    simulate = run if scenario.kind == "consensus" else run_size_estimation
    write_outputs(simulate(scenario), tmp_path)
    assert output_digests(tmp_path) == GOLDEN[name]
