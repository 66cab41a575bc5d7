"""Seeded Monte Carlo estimators and the 3-sigma gate."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import (
    McConfig,
    SuspensionModel,
    mc_gaussian_orthant,
    mc_pair_integral_poisson,
    pair_integrand,
    three_sigma_gate,
)
from ergolab import oracle
from ergolab.oracle import _BLOCK, _poisson_cdf, _streams

import _reference as ref

CFG = McConfig(seed=20240801, samples=200_000)


def test_fixed_seed_is_bit_identical():
    a = mc_pair_integral_poisson((0.4,), 1, CFG)[0]
    b = mc_pair_integral_poisson((0.4,), 1, CFG)[0]
    assert a == b
    c = mc_gaussian_orthant((0.3,), CFG)[0]
    d = mc_gaussian_orthant((0.3,), CFG)[0]
    assert c == d


def test_seed_changes_the_stream():
    nxt = McConfig(seed=CFG.seed + 1, samples=CFG.samples)
    assert mc_pair_integral_poisson((0.4,), 1, CFG) != mc_pair_integral_poisson((0.4,), 1, nxt)
    assert mc_gaussian_orthant((0.3,), CFG) != mc_gaussian_orthant((0.3,), nxt)


def test_poisson_estimates_match_exact_formula():
    model = SuspensionModel("poisson", 1)
    for lam in (1.0, 0.0, 0.4):
        exact = pair_integrand(model, lam)
        est, se = mc_pair_integral_poisson((lam,), 1, CFG)[0]
        assert se > 0
        assert abs(est - exact) <= 3 * se


def test_gaussian_estimates_match_orthant_formula():
    model = SuspensionModel("gaussian")
    for rho in (0.0, 0.5, 1.0):
        exact = pair_integrand(model, rho)
        est, se = mc_gaussian_orthant((rho,), CFG)[0]
        assert abs(est - exact) <= 3 * se


def test_poisson_estimates_on_randomized_parameters():
    import random

    rng = random.Random(31337)
    cfg = McConfig(seed=777, samples=100_000)
    for _ in range(5):
        m = rng.randrange(1, 5)
        lam = rng.uniform(0.0, 1.0)
        exact = pair_integrand(SuspensionModel("poisson", m), lam)
        est, se = mc_pair_integral_poisson((lam,), m, cfg)[0]
        assert abs(est - exact) <= 3 * se, (m, lam)


def test_estimators_span_block_boundaries_deterministically():
    big = McConfig(seed=3, samples=16 * _BLOCK + 1234)
    a = mc_gaussian_orthant((0.0,), big)[0]
    b = mc_gaussian_orthant((0.0,), big)[0]
    assert a == b
    assert abs(a[0] - 0.25) <= 3 * a[1]


def test_input_validation():
    with pytest.raises(ValueError):
        McConfig(seed=1, samples=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        McConfig(seed=-1)
    with pytest.raises(ValueError):
        mc_pair_integral_poisson((2.0,), 1, CFG)[0]
    with pytest.raises(ValueError):
        mc_gaussian_orthant((1.5,), CFG)[0]


def test_three_sigma_gate_passes_without_retry():
    res = three_sigma_gate(0.25, lambda c: mc_gaussian_orthant((0.0,), c)[0], CFG)
    assert res.passed and not res.retried


def test_three_sigma_gate_retries_once_with_next_seed():
    calls = []

    def flaky(cfg):
        calls.append(cfg.seed)
        if len(calls) == 1:
            return 0.9, 0.001  # far off: forces the retry
        return 0.2501, 0.001

    res = three_sigma_gate(0.25, flaky, CFG)
    assert res.retried and res.passed
    assert calls == [CFG.seed, CFG.seed + 1]


def test_three_sigma_gate_fails_after_two_misses():
    res = three_sigma_gate(0.25, lambda c: (0.9, 0.001), CFG)
    assert res.retried and not res.passed


def test_three_sigma_gate_tests_a_run_without_hits_at_the_exact_error():
    # Poisson m=6 on disjoint images: c**2 = 2.6e-7, so 1M samples expect
    # 0.26 hits; no hit gives std_error 0, which no estimate but the exact
    # value could pass
    cfg = McConfig(seed=1, samples=1_000_000)
    res = three_sigma_gate(2.6e-7, lambda c: (0.0, 0.0), cfg)
    assert res.passed and not res.retried
    assert (res.estimate, res.std_error) == (0.0, 0.0)
    # at most 9 hits expected passes, 10 or more fails
    assert three_sigma_gate(8.9e-6, lambda c: (0.0, 0.0), cfg).passed
    assert not three_sigma_gate(1e-5, lambda c: (0.0, 0.0), cfg).passed
    # only hits
    assert three_sigma_gate(1 - 2.6e-7, lambda c: (1.0, 0.0), cfg).passed
    assert not three_sigma_gate(1 - 1e-5, lambda c: (1.0, 0.0), cfg).passed


@settings(deadline=None, derandomize=True, database=None, max_examples=60)
@given(
    frac=st.floats(0.0, 1.0),
    m=st.one_of(st.integers(0, 6), st.none()),
    seed=st.integers(0, 2**32 - 1),
    samples=st.integers(1, 4000),
)
def test_bucket_counting_equals_inversion_sampling(frac, m, seed, samples):
    if m is None:  # more points than the CDF has entries
        m = len(_poisson_cdf(1.0)) + 1
    lams = (0.0, 1.0, frac)
    cfg = McConfig(seed=seed, samples=samples)
    got = mc_pair_integral_poisson(lams, m, cfg)
    assert got == [ref.poisson_pair_estimate(lam, m, cfg) for lam in lams]


def test_bucket_counting_equals_inversion_sampling_across_blocks():
    cfg = McConfig(seed=5, samples=16 * _BLOCK + 1234)
    lams = (1.0, 0.0, 0.6)
    for m in (0, 2):
        got = mc_pair_integral_poisson(lams, m, cfg)
        assert got == [ref.poisson_pair_estimate(lam, m, cfg) for lam in lams]


def test_batches_equal_single_parameter_runs():
    cfg = McConfig(seed=9, samples=16 * _BLOCK + 77)
    lams = (1.0, 0.0, 0.4, 0.4)
    assert mc_pair_integral_poisson(lams, 2, cfg) == [
        mc_pair_integral_poisson((lam,), 2, cfg)[0] for lam in lams
    ]
    rhos = (0.0, 0.5, 1.0, -1.0, -0.3)
    assert mc_gaussian_orthant(rhos, cfg) == [
        mc_gaussian_orthant((rho,), cfg)[0] for rho in rhos
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 1001, 1002, 1003, 1004])
@pytest.mark.parametrize("seed, r", [(1, 0), (3001, 2)])
def test_a_row_stream_drawn_in_blocks_equals_its_whole_draw(seed, r, n):
    """The estimators rest on this: row ``r``'s stream, drawn in blocks of
    mixed sizes that are not multiples of 4, gives its whole draw, for
    uniforms and normals."""
    # blocks of 1, 3, 5, 7 and 1001 draws, the last one cut at n
    bounds = [0] + [b for b in (1, 4, 9, 16, 1017) if b < n] + [n]
    for draw in (np.random.Generator.random, np.random.Generator.standard_normal):
        whole = draw(_streams(seed, r + 1)[r], n)
        rng = _streams(seed, r + 1)[r]
        blocks = [draw(rng, e - s) for s, e in zip(bounds[:-1], bounds[1:])]
        assert np.array_equal(np.concatenate(blocks), whole)


@pytest.mark.parametrize(
    "seed, block, samples",
    [
        # one partial block; samples % 4 from 1 to 3 and 0
        (524288, 7, 1), (524288, 7, 6), (524288, 7, 7), (524288, 7, 15),
        (524288, 7, 200),
        # whole blocks and a partial last block, samples % 4 from 0 to 3
        (35, 7, 140), (35, 7, 141), (35, 7, 142), (35, 7, 143),
        # a block that does not divide the samples
        (524288, 1001, 526290), (524288, 1001, 526291),
        # one sample per block, and the default block
        (41, 1, 13), (41, _BLOCK, 3 * _BLOCK + 5),
    ],
)
def test_blocks_equal_whole_chunk_draws(monkeypatch, seed, block, samples):
    """Both estimators give bit for bit the estimates of their references,
    which draw each row stream whole, as one chunk of ``samples`` draws,
    across block boundaries and for several seeds."""
    monkeypatch.setattr(oracle, "_BLOCK", block)
    cfg = McConfig(seed=seed, samples=samples)
    lams = (1.0, 0.0, 0.5)
    for m in (0, 1, 3):
        got = mc_pair_integral_poisson(lams, m, cfg)
        assert got == [ref.poisson_pair_estimate(lam, m, cfg) for lam in lams]
    rhos = (0.0, 0.5, 1.0, -0.7)
    got = mc_gaussian_orthant(rhos, cfg)
    assert got == [ref.gaussian_orthant_estimate(rho, cfg) for rho in rhos]


def _peak_bytes(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_poisson_estimator_memory_is_one_block():
    """1M samples peak near one block of each of the three rows of uniforms,
    not the rows drawn whole (22.9 MiB of uniforms alone)."""
    cfg = McConfig(seed=1, samples=1_000_000)
    peak = _peak_bytes(lambda: mc_pair_integral_poisson((1.0, 0.0, 0.4), 1, cfg))
    assert peak < 3 * 2**20


def test_gaussian_estimator_memory_is_one_block():
    """1M samples peak near one block of ``x`` and of ``y`` and their
    temporaries, not the rows drawn whole (15.3 MiB of normals alone)."""
    cfg = McConfig(seed=1, samples=1_000_000)
    peak = _peak_bytes(lambda: mc_gaussian_orthant((0.0, 0.5, 1.0), cfg))
    assert peak < 3 * 2**20
