"""Seeded Monte Carlo cross-checks for the suspension functionals.

Randomness comes from numpy's counter-based Philox generator.  Samples are
drawn in fixed-size chunks and chunk ``k`` is seeded with
``SeedSequence((seed, k))``, so estimates are bit-identical across runs and
platforms and independent of any parallel execution of the chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "McConfig",
    "GateResult",
    "mc_pair_integral_poisson",
    "mc_gaussian_orthant",
    "three_sigma_gate",
]

_CHUNK = 1 << 19


@dataclass(frozen=True)
class McConfig:
    seed: int = 1
    samples: int = 1_000_000

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, chunk))))


def _chunks(samples: int):
    k = 0
    done = 0
    while done < samples:
        n = min(_CHUNK, samples - done)
        yield k, n
        k += 1
        done += n


def _poisson_cdf(lam: float) -> np.ndarray:
    """Cumulative Poisson probabilities up to negligible tail mass."""
    probs = [math.exp(-lam)]
    k = 0
    total = probs[0]
    while total < 1.0 - 1e-15 and k < 400:
        k += 1
        probs.append(probs[-1] * lam / k)
        total += probs[-1]
    return np.cumsum(np.array(probs))


def _binomial_se(p_hat: float, n: int) -> float:
    return math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n)


def mc_pair_integral_poisson(
    lam_overlap: float, a: float, m: int, cfg: McConfig
) -> tuple[float, float]:
    """Estimate P(m points in each image set) by sampling region counts.

    Draws independent Poisson counts for the common region and the two
    difference regions (inversion sampling), and counts samples where both
    sums hit ``m`` exactly.  Returns (estimate, binomial standard error).
    """
    lam = float(lam_overlap)
    if not 0.0 <= lam <= a:
        raise ValueError(f"overlap {lam} outside [0, {a}]")
    cdf_common = _poisson_cdf(lam)
    cdf_diff = _poisson_cdf(a - lam)
    hits = 0
    for k, n in _chunks(cfg.samples):
        rng = _chunk_rng(cfg.seed, k)
        u = rng.random((3, n))
        k_common = np.searchsorted(cdf_common, u[0], side="right")
        k_one = np.searchsorted(cdf_diff, u[1], side="right")
        k_two = np.searchsorted(cdf_diff, u[2], side="right")
        hits += int(np.count_nonzero((k_common + k_one == m) & (k_common + k_two == m)))
    p_hat = hits / cfg.samples
    return p_hat, _binomial_se(p_hat, cfg.samples)


@dataclass(frozen=True)
class GateResult:
    exact: float
    estimate: float
    std_error: float
    retried: bool
    passed: bool


def three_sigma_gate(exact: float, runner, cfg: McConfig) -> GateResult:
    """Accept when the estimate is within 3 standard errors of ``exact``.

    On failure the check is retried once with seed+1; a second miss fails
    the gate.  ``runner`` maps a config to (estimate, std_error).
    """
    est, se = runner(cfg)
    if abs(est - exact) <= 3.0 * se:
        return GateResult(exact, est, se, retried=False, passed=True)
    retry = McConfig(seed=cfg.seed + 1, samples=cfg.samples)
    est, se = runner(retry)
    return GateResult(exact, est, se, retried=True, passed=abs(est - exact) <= 3.0 * se)


def mc_gaussian_orthant(rho: float, cfg: McConfig) -> tuple[float, float]:
    """Estimate P(X > 0, Z > 0) for standard normals with correlation rho."""
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation {rho} outside [-1, 1]")
    tail = math.sqrt(1.0 - rho * rho)
    hits = 0
    for k, n in _chunks(cfg.samples):
        rng = _chunk_rng(cfg.seed, k)
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        z = rho * x + tail * y
        hits += int(np.count_nonzero((x > 0.0) & (z > 0.0)))
    p_hat = hits / cfg.samples
    return p_hat, _binomial_se(p_hat, cfg.samples)
