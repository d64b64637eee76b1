"""End-to-end gates, one test per guaranteed behavior.

Each gate re-derives its expectation from an independent route (closed
forms, quadrature, exhaustive enumeration, or a mirror construction) and
prints a single PASS line; a pytest failure is the FAIL line.  The whole
module is budgeted to finish in well under five minutes.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy import integrate, stats
from util import (
    as_masks,
    induced_subgraph,
    is_connected_reference,
    negated_signals,
    node_set,
    random_connected_graph,
    trace_row,
)

from openmax.graph import NetworkSnapshot, barabasi_albert, diameter, line_graph
from openmax.protocols import ProtocolParams, edmc_kernel
from openmax.signals import Constant, PiecewiseLinear, SignalSpec, Sinusoid
from openmax.simulator import load_preset, make_scenario, run, run_size_estimation
from openmax.size_estimation import (
    dse_worst_case_monte_carlo,
    exp_scaled_expn,
    expected_estimate_admc,
    expected_estimate_edmc,
    mle_estimate,
)

Z99 = 2.5758293035489004


def _passed(gate: str) -> None:
    print(f"PASS {gate}")


@pytest.fixture(scope="module")
def line_admc():
    return run(load_preset("line6_admc"))


@pytest.fixture(scope="module")
def line_edmc():
    return run(load_preset("line6_edmc"))


# ----------------------------------------------------------------- helpers


def _random_signals(rng: np.random.Generator, n: int, max_slope: float) -> tuple[SignalSpec, ...]:
    """``n`` signals, one a slot, whose per-tick change never exceeds ``max_slope``."""
    specs = []
    for _ in range(n):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            specs.append(Constant(float(rng.uniform(-1.0, 1.0))))
        elif kind == 1:
            period = float(rng.uniform(45.0, 150.0))
            amp = float(rng.uniform(0.05, max_slope * period / (2.0 * math.pi)))
            specs.append(Sinusoid(
                amp,
                period,
                phase=float(rng.uniform(0.0, period)),
                offset=float(rng.uniform(-0.5, 0.5)),
            ))
        else:
            ticks = sorted({0, int(rng.integers(15, 40)), int(rng.integers(45, 75)), 90})
            vals = [float(rng.uniform(-0.5, 0.5))]
            for a, b in zip(ticks, ticks[1:]):
                drift = float(rng.uniform(-1.0, 1.0)) * max_slope * (b - a) * 0.9
                vals.append(float(np.clip(vals[-1] + drift, -1.0, 1.0)))
            specs.append(PiecewiseLinear(tuple(zip(ticks, vals))))
    return tuple(specs)


def _slope_bound(specs: tuple[SignalSpec, ...]) -> float:
    return max(spec.slope_bound for spec in specs)


def _connected_subset(rng: np.random.Generator, g: NetworkSnapshot) -> frozenset[int]:
    for _ in range(60):
        keep = frozenset(i for i in g.ids.tolist() if rng.random() < 0.75)
        if len(keep) >= 2 and is_connected_reference(induced_subgraph(g, keep)):
            return keep
    return node_set(g)


def _churn_changes(rng: np.random.Generator, g: NetworkSnapshot, ticks) -> list:
    changes, current = [], node_set(g)
    for t in ticks:
        for _ in range(80):
            cand = _connected_subset(rng, g)
            if cand != current:
                changes.append((t, set(cand)))
                current = cand
                break
    return as_masks(g, changes)


def _connected_graphs(n: int):
    nodes = tuple(range(1, n + 1))
    slots = list(itertools.combinations(nodes, 2))
    for mask in range(1 << len(slots)):
        edges = [slots[j] for j in range(len(slots)) if mask >> j & 1]
        g = NetworkSnapshot.from_edges(nodes, edges)
        if is_connected_reference(g):
            yield g


# ------------------------------------------------------------------- gates


def test_01_approximate_line_tracking(line_admc):
    """Six-agent line, decay 0.03, slope 0.02: bands 0.27 / 0.15 hold."""
    w = line_admc.summary["windows"][0]
    assert w["bounds"]["assumptions_ok"]
    assert w["bounds"]["tracking_bound"] == pytest.approx(0.27, abs=1e-9)
    assert w["bounds"]["steady_bound"] == pytest.approx(0.15, abs=1e-9)
    errors = line_admc.trace.errors
    tc = w["bounds"]["convergence_time"]
    assert np.all(errors[tc:] <= 0.27 + 1e-9)
    # inputs are constant from tick 140 on; the tail settles into the
    # steady band within a few decay steps
    assert np.all(errors[150:] <= 0.15 + 1e-9)
    _passed(
        "gate 01: approximate tracking keeps e<=0.27 after convergence "
        "and e<=0.15 on the constant tail"
    )


def test_02_exact_line_tracking(line_edmc):
    """Same scenario, cascade depth 5: band 0.12, zero steady error, delay identity."""
    w = line_edmc.summary["windows"][0]
    assert w["bounds"]["tracking_bound"] == pytest.approx(0.12, abs=1e-9)
    assert w["bounds"]["steady_bound"] == 0.0
    assert w["empirical"]["convergence_time"] <= 5
    errors = line_edmc.trace.errors
    assert np.all(errors[5:] <= 0.12 + 1e-9)
    # the target is constant on [0, 120] and from 140 on; there the error
    # vanishes once the cascade has flushed
    assert np.all(errors[5:121] <= 1e-12)
    assert np.all(errors[146:] <= 1e-12)
    # every agent's top level equals the input maximum delayed by depth+1
    targets = line_edmc.trace.targets
    for k in range(5, 251):
        expected = targets[max(k - 6, 0)]
        for value in trace_row(line_edmc, line_edmc.trace.outputs, k).values():
            assert abs(value - expected) <= 1e-12
    _passed("gate 02: exact cascade tracks with band 0.12 and the depth+1 delay identity")


def test_03_min_max_duality():
    """200 random churn scenarios: the min protocols mirror the max ones exactly."""
    rng = np.random.default_rng(20260825)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 13))
        g = random_connected_graph(rng, n)
        signals = _random_signals(rng, g.n, 0.05)
        changes = _churn_changes(rng, g, (8, 16))
        for variant in ("approximate", "exact"):
            if variant == "approximate":
                alpha = _slope_bound(signals) + float(rng.uniform(0.05, 0.25))
                p_min = ProtocolParams(mode="min", variant=variant, alpha=alpha)
                p_max = ProtocolParams(mode="max", variant=variant, alpha=alpha)
            else:
                depth = int(rng.integers(1, 5))
                p_min = ProtocolParams(mode="min", variant=variant, delta=depth)
                p_max = ProtocolParams(mode="max", variant=variant, delta=depth)
            kw = dict(
                kind="consensus", reference=g, horizon=24, seed=0, changes=changes, dwell=8
            )
            low = run(make_scenario(name="low", params=p_min, signals=signals, **kw))
            mirror = negated_signals(signals)
            high = run(make_scenario(name="high", params=p_max, signals=mirror, **kw))
            worst = max(worst, float(np.max(np.abs(low.trace.errors - high.trace.errors))))
            for k in range(25):
                mirror = trace_row(high, high.trace.outputs, k)
                for i, v in trace_row(low, low.trace.outputs, k).items():
                    worst = max(worst, abs(v + mirror[i]))
    assert worst <= 1e-12
    _passed("gate 03: min consensus equals the negated max run on 200 random scenarios")


def test_04_churn_window_audit():
    """100 random churn scenarios: strict decrease then containment, zero violations."""
    rng = np.random.default_rng(41)
    windows = 0
    for s in range(100):
        n = int(rng.integers(4, 11))
        g = random_connected_graph(rng, n)
        signals = _random_signals(rng, g.n, 0.05)
        alpha = _slope_bound(signals) + float(rng.uniform(0.15, 0.3))
        sc = make_scenario(
            name=f"audit{s}",
            kind="consensus",
            params=ProtocolParams(
                mode="max" if s % 2 == 0 else "min", variant="approximate", alpha=alpha
            ),
            reference=g,
            horizon=90,
            seed=0,
            changes=_churn_changes(rng, g, (30, 60)),
            dwell=30,
            signals=signals,
        )
        for w in run(sc).summary["windows"]:
            windows += 1
            assert w["bounds"]["assumptions_ok"]
            assert w["empirical"]["containment_audited"]
            assert w["empirical"]["decrease_violations"] == 0
            assert w["empirical"]["containment_violations"] == 0
    assert windows >= 250  # nearly every scenario realizes both changes
    _passed(f"gate 04: zero decrease/containment violations across {windows} windows")


def test_05_exact_cascade_exhaustive():
    """All 772 connected graphs on up to 5 nodes x 20 input sequences."""
    expected_counts = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728}
    rng = np.random.default_rng(5)
    checked = 0
    for n, want in expected_counts.items():
        count = 0
        for g in _connected_graphs(n):
            count += 1
            hood = g.layout()
            depth = diameter(hood)
            horizon = depth + 9
            for _ in range(20):
                seq = rng.uniform(-1.0, 1.0, (horizon + 1, n))  # row k: tick k's inputs
                X = np.repeat(seq[0][:, None], depth + 1, axis=1)  # cascades start full
                for k in range(horizon + 1):
                    if k >= depth:
                        want_out = seq[max(k - depth - 1, 0)].max()
                        assert np.abs(X[:, -1] - want_out).max() <= 1e-12
                        checked += 1
                    if k < horizon:
                        edmc_kernel(X, seq[k], hood)
        assert count == want
    _passed(f"gate 05: cascade equals the delayed maximum at {checked} graph/tick points")


def test_06_size_estimation_unbiasedness():
    """Static 100-node networks, 50 draws each, 200 seeds: mean matches np/(p-1)."""
    estimates = []
    for s in range(200):
        rng = np.random.default_rng(np.random.SeedSequence((9000, s)))
        g = barabasi_albert(line_graph(5), 100, 2, rng)
        hood = g.layout()
        depth = diameter(hood)
        U = rng.uniform(0.0, 1.0, (g.n, 50))  # row s: the draws of g.ids[s]
        X = np.repeat(U[:, None], depth + 1, axis=1)
        for _ in range(depth + 2):
            edmc_kernel(X, U, hood)
        per_agent = mle_estimate(X[:, -1])
        assert max(per_agent) - min(per_agent) == 0.0  # exact backend: full agreement
        estimates.append(per_agent[0])
    arr = np.asarray(estimates)
    target = expected_estimate_edmc(100, 50)
    assert target == 5000.0 / 49.0
    half_width = Z99 * arr.std(ddof=1) / math.sqrt(arr.size)
    assert abs(arr.mean() - target) <= half_width
    _passed(
        f"gate 06: ensemble mean {arr.mean():.3f} within {half_width:.3f} of {target:.3f}"
    )


def test_07_worst_case_closed_form():
    """Closed form vs quadrature (1e-8 rel) and vs 1e5-trial Monte Carlo."""
    for (n, p, eps), seed in zip(
        [(6, 10, 0.15), (100, 50, 0.03), (100, 20, 0.1)], (424242, 424243, 424244)
    ):
        closed = expected_estimate_admc(n, p, eps)
        pdf = stats.gamma(a=p, scale=1.0 / (n * p)).pdf
        oracle, quad_err = integrate.quad(
            lambda t: pdf(t) / (t + eps), 0, np.inf, epsabs=1e-13, epsrel=1e-12
        )
        assert quad_err < 1e-9
        assert closed == pytest.approx(oracle, rel=1e-8)
        mc = dse_worst_case_monte_carlo(n, p, eps, 100_000, seed)
        assert abs(mc.mean - closed) <= mc.ci99
    # continuity at zero degradation: both backends expect the same value
    for n, p in [(6, 10), (100, 50), (100, 20)]:
        assert expected_estimate_admc(n, p, 0.0) == expected_estimate_edmc(n, p)
    _passed("gate 07: worst-case closed form matches quadrature and Monte Carlo")


def test_08_incomplete_gamma_identities():
    """The incomplete gamma recurrence across the negative-order range, in the
    scaled exponential integral the closed form evaluates: with
    ``Gamma(1 - n, x) = x^(1 - n) E_n(x)``, orders -10..0 are ``n = 1..11``,
    and ``Gamma(a + 1, x) = a Gamma(a, x) + x^a e^-x`` reads
    ``e^x E_(n+1)(x) = (1 - x e^x E_n(x)) / n``."""
    for n in range(1, 12):
        for x in (0.1, 1.0, 10.0, 100.0):
            lhs = exp_scaled_expn(n + 1, x)
            rhs = (1.0 - x * exp_scaled_expn(n, x)) / n
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))
    _passed("gate 08: incomplete gamma recurrence at orders -10..0 (1e-10)")


def test_09_scale_free_churn_properties():
    """Both size-estimation presets: per-window re-convergence and orderings."""
    for preset in ("ba100_dse_edmc", "ba100_dse_admc"):
        res = run_size_estimation(load_preset(preset))
        exact = preset.endswith("edmc")
        assert len(res.summary["windows"]) == 5
        for w in res.summary["windows"]:
            assert w["bounds"]["assumptions_ok"]
            assert w["empirical"]["converged"]
            if exact:
                assert w["steady"]["agree_exactly"]
                assert w["steady"]["spread"] <= 1e-12
                assert w["steady"]["mean_estimate"] == pytest.approx(
                    w["steady"]["target_estimate"], rel=1e-12
                )
            else:
                # the decayed maxima can only understate the true maxima
                assert w["steady"]["max_estimate"] <= w["steady"]["target_estimate"] + 1e-12
    _passed("gate 09: churned scale-free runs re-converge with the expected orderings")


def test_10_convergence_within_theory(line_admc):
    """Measured convergence never exceeds the worst-case window formula."""
    w = line_admc.summary["windows"][0]
    t_theory = w["bounds"]["convergence_time"]
    t_emp = w["empirical"]["convergence_time"]
    assert t_theory == 180
    assert t_emp is not None and t_emp <= t_theory
    _passed(f"gate 10: empirical convergence {t_emp} <= theoretical {t_theory}")
