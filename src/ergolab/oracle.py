"""Seeded Monte Carlo cross-checks for the suspension functionals.

Randomness comes from numpy's counter-based Philox generator.  Samples are
drawn in fixed-size chunks and chunk ``k`` is seeded with
``SeedSequence((seed, k))``, so estimates are bit-identical across runs and
platforms and independent of any parallel execution of the chunks.  Each
chunk is drawn and tested in blocks of ``_BLOCK`` samples taken from the
chunk's own stream, so the estimates are those of whole-chunk draws while
an estimator holds at most one chunk of Gaussian ``x`` plus one block.

Each estimator makes one pass per gate family: it takes a sequence of
parameters (overlap masses, correlations), draws each chunk once and tests
it against every parameter, so a batch gives bit for bit the estimates of
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

_CHUNK = 1 << 19
_BLOCK = 1 << 15


@dataclass(frozen=True)
class McConfig:
    seed: int = 1
    samples: int = 1_000_000

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, chunk))))


def _row_rng(seed: int, chunk: int, start: int) -> np.random.Generator:
    """Chunk ``chunk``'s stream from draw ``start`` on: each Philox counter
    step yields 4 draws, so ``advance`` jumps ``start // 4`` steps and the
    remaining draws are discarded."""
    rng = _chunk_rng(seed, chunk)
    rng.bit_generator.advance(start // 4)
    rng.bit_generator.random_raw(start % 4)
    return rng


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
    lam_overlaps: Sequence[float], a: float, m: int, cfg: McConfig
) -> list[tuple[float, float]]:
    """Estimate P(m points in each image set) for each overlap mass.

    Draws one uniform each for the common region and the two difference
    regions, whose Poisson counts are the CDF buckets they fall in, and
    counts samples where both sums hit ``m`` exactly: the common count ``c``
    and both difference counts ``m - c``.  One draw of the chunk stream
    serves every overlap in ``lam_overlaps``.  Returns (estimate, binomial
    standard error) per overlap, in order.
    """
    lams = [float(lam) for lam in lam_overlaps]
    for lam in lams:
        if not 0.0 <= lam <= a:
            raise ValueError(f"overlap {lam} outside [0, {a}]")
    # per overlap, the (common, difference) bucket bounds of every split
    # c + (m - c) = m whose two buckets both exist
    splits = []
    for lam in lams:
        lo0, hi0 = _buckets(_poisson_cdf(lam))
        lo1, hi1 = _buckets(_poisson_cdf(a - lam))
        cs = range(max(0, m - len(lo1) + 1), min(m, len(lo0) - 1) + 1)
        splits.append([(lo0[c], hi0[c], lo1[m - c], hi1[m - c]) for c in cs])
    hits = [0] * len(lams)
    for k, n in _chunks(cfg.samples):
        # the uniforms of sample i are draws i, n+i and 2n+i of the chunk
        # stream, as in random((3, n)): one generator per row, in lockstep
        rows = [_row_rng(cfg.seed, k, r * n) for r in range(3)]
        for start in range(0, n, _BLOCK):
            s = min(_BLOCK, n - start)
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

    One draw of the chunk stream serves every correlation in ``rhos``.
    Returns (estimate, binomial standard error) per correlation, in order.
    """
    rhos = [float(rho) for rho in rhos]
    for rho in rhos:
        if not -1.0 <= rho <= 1.0:
            raise ValueError(f"correlation {rho} outside [-1, 1]")
    tails = [math.sqrt(1.0 - rho * rho) for rho in rhos]
    hits = [0] * len(rhos)
    # y follows the chunk's n normals of x in its stream, so x is drawn whole
    # into one buffer and y block by block after it
    buf = np.empty(min(_CHUNK, cfg.samples))
    for k, n in _chunks(cfg.samples):
        rng = _chunk_rng(cfg.seed, k)
        x_all = rng.standard_normal(out=buf[:n])
        for start in range(0, n, _BLOCK):
            y = rng.standard_normal(min(_BLOCK, n - start))
            x = x_all[start : start + len(y)]
            x_pos = x > 0.0
            for i, (rho, tail) in enumerate(zip(rhos, tails)):
                z = rho * x + tail * y
                hits[i] += int(np.count_nonzero(x_pos & (z > 0.0)))
    return [_estimate(h, cfg.samples) for h in hits]
