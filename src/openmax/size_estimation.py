"""Anonymous network-size estimation from extremum-consensus states.

Each agent draws ``p`` uniform values in (0, 1) and the network runs ``p``
max-consensus instances over them.  Once every agent holds the coordinatewise
maxima ``u_max[j]``, the maximum-likelihood size estimate is

    n_hat = -p / sum_j ln(x[j])

Exact consensus reproduces the true maxima, giving expected estimate
``n p / (p - 1)``.  The approximate variant underestimates each maximum; with
every coordinate degraded by ``eps`` in log space (the worst case the decay
permits at steady state), the expected estimate becomes

    n p * e^(eps n p) * E_p(eps n p)

where ``E_p`` is the generalized exponential integral.  That product is
evaluated jointly in scaled form: the naked factors overflow once
``eps * n * p`` passes roughly 700, while the scaled form stays finite for
any workable input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "mle_estimate",
    "exp_scaled_expn",
    "expected_estimate_edmc",
    "expected_estimate_admc",
    "MonteCarloResult",
    "dse_worst_case_monte_carlo",
]

_EULER = 0.5772156649015328606
_Z99 = 2.5758293035489004  # two-sided 99% normal quantile


def _open_uniform(rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
    """Uniforms on (0, 1): draw from [0, 1), then redraw exact zeros in draw order."""
    vals = rng.random(size)
    while True:
        zeros = vals == 0.0
        if not zeros.any():
            return vals
        vals[zeros] = rng.random(int(zeros.sum()))


def mle_estimate(x: object) -> float | np.ndarray:
    """Maximum-likelihood size estimate from one agent's consensus vector, or
    one estimate per row of a 2-D stack of such vectors."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1] < 2:
        raise ValueError("estimate needs a vector of at least two coordinates")
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("all coordinates must lie strictly inside (0, 1)")
    est = -arr.shape[-1] / np.log(arr).sum(-1)
    return float(est) if arr.ndim == 1 else est


def exp_scaled_expn(order: int, x: float) -> float:
    """``e^x * E_order(x)`` for integer ``order >= 1`` and ``x > 0``.

    Continued fraction for ``x >= 1`` (which yields the scaled value
    directly, so there is no overflow for large ``x``), power series below.
    """
    n = int(order)
    if n < 1:
        raise ValueError("order must be a positive integer")
    if not x > 0.0:
        raise ValueError("x must be positive")

    if x >= 1.0:
        # modified Lentz on E_n(x) = e^-x / (x+n - 1*n/(x+n+2 - 2(n+1)/(...)))
        tiny = 1e-300
        b = x + n
        c = 1.0 / tiny
        d = 1.0 / b
        h = d
        for i in range(1, 1000):
            a = -i * (n - 1 + i)
            b += 2.0
            d = 1.0 / (a * d + b)
            c = b + a / c
            delta = c * d
            h *= delta
            if abs(delta - 1.0) < 1e-15:
                return h
        raise RuntimeError(f"continued fraction failed to converge for E_{n}({x})")

    # series: E_n(x) = [(-x)^(n-1)/(n-1)!] (psi(n) - ln x) - sum_{m != n-1} (-x)^m / ((m-n+1) m!)
    nm1 = n - 1
    ans = (1.0 / nm1) if nm1 != 0 else (-math.log(x) - _EULER)
    fact = 1.0
    for m in range(1, 1000):
        fact *= -x / m
        if m != nm1:
            term = -fact / (m - nm1)
        else:
            psi = -_EULER + sum(1.0 / k for k in range(1, nm1 + 1))
            term = fact * (psi - math.log(x))
        ans += term
        if abs(term) < abs(ans) * 1e-17:
            return ans * math.exp(x)
    raise RuntimeError(f"series failed to converge for E_{n}({x})")


def expected_estimate_edmc(n: int, p: int) -> float:
    """Expected estimate under exact consensus: ``n p / (p - 1)``."""
    if n < 1:
        raise ValueError("network size must be a positive integer")
    if p < 2:
        raise ValueError("at least two coordinates are needed for a finite mean")
    return n * p / (p - 1)


def expected_estimate_admc(n: int, p: int, eps: float) -> float:
    """Expected worst-case estimate when every maximum is degraded by ``eps``.

    ``eps`` is the steady-state underestimation the approximate protocol
    allows (decay times diameter).  Algebraically this is
    ``eps^(p-1) e^(eps n p) (n p)^p Gamma(1 - p, eps n p)``; substituting the
    exponential-integral form of the incomplete gamma cancels every
    overflow-prone factor and leaves ``n p`` times the scaled integral.
    For ``eps = 0`` it reduces exactly to the exact-consensus value.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    exact = expected_estimate_edmc(n, p)  # checks n and p
    return exact if eps == 0.0 else n * p * exp_scaled_expn(p, eps * n * p)


@dataclass(frozen=True)
class MonteCarloResult:
    """Aggregate of independent worst-case estimation trials."""

    mean: float
    std_error: float
    ci99: float
    trials: int
    estimates: np.ndarray


def dse_worst_case_monte_carlo(
    n: int, p: int, eps: float, trials: int, seed: int
) -> MonteCarloResult:
    """Monte Carlo of the size estimate on worst-case degraded maxima.

    Per trial, take the ``p`` coordinatewise maxima over ``n`` agents'
    uniforms, degrade every maximum by ``eps`` in log space (multiply by
    ``e^-eps``, the model behind :func:`expected_estimate_admc`, so the means
    agree), and apply the estimator.  The maximum of ``n`` uniforms is
    Beta(n, 1), so each maximum is sampled directly as ``V^(1/n)`` with ``V``
    uniform on (0, 1), in log space as ``log(V) / n``: a call costs
    O(trials * p), not O(trials * n * p), and every log is strictly negative,
    so every estimate is finite and positive.

    One generator, ``default_rng(seed)``, draws the whole ``(trials, p)``
    block of ``V`` row by row, so a run's trials are a prefix of any longer
    run's with the same seed (barring a redrawn exact zero, which has
    probability 2^-53 per draw).
    """
    if trials < 2:
        raise ValueError("need at least two trials for a confidence interval")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if n < 1 or p < 2:
        raise ValueError("need n >= 1 agents and p >= 2 coordinates")

    logs = np.log(_open_uniform(np.random.default_rng(seed), (trials, p))) / n - eps
    estimates = -p / logs.sum(axis=1)
    mean = float(estimates.mean())
    std_error = float(estimates.std(ddof=1) / math.sqrt(trials))
    return MonteCarloResult(
        mean=mean,
        std_error=std_error,
        ci99=_Z99 * std_error,
        trials=trials,
        estimates=estimates,
    )
