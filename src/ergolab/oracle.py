"""Seeded Monte Carlo cross-checks for the suspension functionals.

Randomness comes from numpy's PCG64DXSM generator.  Each row of draws is its
own stream, row ``r`` seeded with ``SeedSequence((seed, r))``: rows 0-2 hold
the Poisson estimator's three uniforms per sample, rows 0-1 the Gaussian
estimator's ``x`` and ``y``.  Rows are separate streams read from their
start and never jumped, so no counter-based generator is needed; numpy
recommends PCG64DXSM where many independent streams are spawned.  The
streams are read in blocks of ``_BLOCK`` samples.  A stream drawn in blocks
gives exactly its whole draw, so estimates are bit-identical across runs,
platforms and block sizes, and an estimator holds one block of each row.

Each estimator makes one pass per gate family: it takes a sequence of
parameters (overlap masses, correlations), draws its rows once and tests
them against every parameter, so a batch gives bit for bit the estimates of
its parameters run one at a time.  Poisson counts are not inverted one by
one: the sampler counts the uniforms that fall in each count's bucket
between consecutive CDF values, which hits exactly the samples that
inversion by ``searchsorted`` would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "McConfig",
    "GateResult",
    "mc_pair_integral_poisson",
    "mc_gaussian_orthant",
    "three_sigma_gate",
]

_BLOCK = 1 << 15


@dataclass(frozen=True)
class McConfig:
    seed: int = 1
    samples: int = 1_000_000

    def __post_init__(self) -> None:
        # bool is an int subclass; a float seed or count fails later in numpy
        if type(self.seed) is not int or type(self.samples) is not int:
            raise ValueError(
                f"seed and samples must be ints, got {self.seed!r} and {self.samples!r}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")


def _streams(seed: int, count: int) -> list[np.random.Generator]:
    """Rows ``0..count-1`` of draws: PCG64DXSM streams seeded with
    ``SeedSequence((seed, r))``, each read from its start and never jumped."""
    return [
        np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence((seed, r))))
        for r in range(count)
    ]


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


def _estimate(hits: int, n: int) -> tuple[float, float]:
    """The hit fraction and its binomial standard error."""
    p_hat = hits / n
    return p_hat, math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n)


def _buckets(cdf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds of each count's bucket: count ``k`` is drawn for ``u`` in
    ``[lo[k], hi[k])``, with -inf and +inf at the ends.

    These are exactly the ``u`` with ``searchsorted(cdf, u, side="right") ==
    k``, so counting bucket hits gives what inversion sampling would.
    """
    return np.concatenate(([-np.inf], cdf)), np.concatenate((cdf, [np.inf]))


def mc_pair_integral_poisson(
    lam_overlaps: Sequence[float], m: int, cfg: McConfig
) -> list[tuple[float, float]]:
    """Estimate P(m points in each image set) for each overlap mass.

    Draws one uniform each for the common region and the two difference
    regions, whose Poisson counts are the CDF buckets they fall in, and
    counts samples where both sums hit ``m`` exactly: the common count ``c``
    and both difference counts ``m - c``.  One draw of the three row streams
    serves every overlap in ``lam_overlaps``.  Returns (estimate, binomial
    standard error) per overlap, in order.
    """
    lams = [float(lam) for lam in lam_overlaps]
    for lam in lams:
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"overlap {lam} outside [0, 1]")
    # per overlap, the (common, difference) bucket bounds of every split
    # c + (m - c) = m whose two buckets both exist and start below 1.0: a
    # bucket starting at 1.0 (a count >= 1 of a rate-0 region) holds no
    # uniform of [0, 1)
    splits = []
    for lam in lams:
        lo0, hi0 = _buckets(_poisson_cdf(lam))
        lo1, hi1 = _buckets(_poisson_cdf(1.0 - lam))
        cs = range(max(0, m - len(lo1) + 1), min(m, len(lo0) - 1) + 1)
        splits.append([
            (lo0[c], hi0[c], lo1[m - c], hi1[m - c])
            for c in cs if lo0[c] < 1.0 and lo1[m - c] < 1.0
        ])
    hits = [0] * len(lams)
    rows = _streams(cfg.seed, 3)
    for start in range(0, cfg.samples, _BLOCK):
        s = min(_BLOCK, cfg.samples - start)
        u0, u1, u2 = (rng.random(s) for rng in rows)
        # both difference counts fall in one bucket iff their min and max do
        lo_u, hi_u = np.minimum(u1, u2), np.maximum(u1, u2)
        for i, split in enumerate(splits):
            for lo0, hi0, lo1, hi1 in split:
                hits[i] += int(np.count_nonzero(
                    (u0 >= lo0) & (u0 < hi0) & (lo_u >= lo1) & (hi_u < hi1)
                ))
    return [_estimate(h, cfg.samples) for h in hits]


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
    the gate.  ``runner`` maps a config to (estimate, std_error).  A run with
    no hits or only hits has std_error 0, so it is tested against the
    standard error at the exact value, ``sqrt(exact*(1-exact)/samples)``:
    no hit passes when at most 9 are expected.
    """
    est, se = runner(cfg)
    if _within_3_sigma(exact, est, se, cfg.samples):
        return GateResult(exact, est, se, retried=False, passed=True)
    retry = McConfig(seed=cfg.seed + 1, samples=cfg.samples)
    est, se = runner(retry)
    passed = _within_3_sigma(exact, est, se, retry.samples)
    return GateResult(exact, est, se, retried=True, passed=passed)


def _within_3_sigma(exact: float, est: float, se: float, samples: int) -> bool:
    if se == 0.0:
        se = math.sqrt(exact * (1.0 - exact) / samples)
    return abs(est - exact) <= 3.0 * se


def mc_gaussian_orthant(
    rhos: Sequence[float], cfg: McConfig
) -> list[tuple[float, float]]:
    """Estimate P(X > 0, Z > 0) for standard normals with correlation rho.

    ``Z = rho*X + sqrt(1 - rho^2)*Y`` with ``X`` and ``Y`` from two row
    streams.  One draw of them serves every correlation in ``rhos``.
    Returns (estimate, binomial standard error) per correlation, in order.
    """
    rhos = [float(rho) for rho in rhos]
    for rho in rhos:
        if not -1.0 <= rho <= 1.0:
            raise ValueError(f"correlation {rho} outside [-1, 1]")
    tails = [math.sqrt(1.0 - rho * rho) for rho in rhos]
    hits = [0] * len(rhos)
    xs, ys = _streams(cfg.seed, 2)
    for start in range(0, cfg.samples, _BLOCK):
        s = min(_BLOCK, cfg.samples - start)
        x, y = xs.standard_normal(s), ys.standard_normal(s)
        x_pos = x > 0.0
        for i, (rho, tail) in enumerate(zip(rhos, tails)):
            z = rho * x + tail * y
            hits[i] += int(np.count_nonzero(x_pos & (z > 0.0)))
    return [_estimate(h, cfg.samples) for h in hits]
