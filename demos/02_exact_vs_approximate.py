"""Compare the approximate and exact protocols on the same moving-input run.

The approximate protocol keeps one scalar per agent and trades a persistent
bias (alpha times the diameter) for O(1) memory.  The exact protocol keeps a
cascade of diameter+1 levels and reproduces the input maximum exactly, just
delayed by depth+1 ticks, so its error vanishes whenever the inputs hold
still for long enough.

Run:  python3 demos/02_exact_vs_approximate.py
"""

from __future__ import annotations

import numpy as np

from openmax.simulator import load_preset, run


def main() -> None:
    rows = []
    traces = {}
    for preset in ("line6_admc", "line6_edmc"):
        result = run(load_preset(preset))
        window = result.summary["windows"][0]
        label = "approximate" if preset.endswith("admc") else "exact"
        traces[label] = result.trace
        rows.append(
            (
                label,
                window["bounds"]["convergence_time"],
                window["empirical"]["convergence_time"],
                window["bounds"]["tracking_bound"],
                window["empirical"]["max_error_after_convergence"],
                window["bounds"]["steady_bound"],
                float(np.max(result.trace.errors[-20:])),
            )
        )

    header = f"{'protocol':12s} {'Tc theory':>9s} {'Tc meas':>8s} {'band':>6s} " \
             f"{'err>Tc':>8s} {'steady':>6s} {'tail err':>8s}"
    print(header)
    print("-" * len(header))
    for label, tc_t, tc_e, band, max_err, steady, tail in rows:
        print(f"{label:12s} {tc_t:9d} {tc_e:8d} {band:6.2f} {max_err:8.4f} "
              f"{steady:6.2f} {tail:8.1e}")
    print()

    exact = traces["exact"]
    print("exact-delay identity: every agent's output at tick k equals the")
    print("network-wide input maximum from tick k-6 (depth 5 + 1):")
    for k in (50, 100, 130, 200):
        row = exact.outputs[k]  # one column per agent, NaN while inactive
        outs = set(round(v, 12) for v in row[~np.isnan(row)].tolist())
        print(f"  k={k:3d}  outputs={sorted(outs)}  target(k-6)={exact.targets[k - 6]:.4f}")


if __name__ == "__main__":
    main()
