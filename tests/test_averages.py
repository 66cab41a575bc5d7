"""Event sweep, running averages, milestones, and the divergence report."""

import hashlib
import math
import random
import re
import tracemalloc
import types
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ergolab import (
    BudgetExceeded,
    CocycleContext,
    ConstructionParams,
    FloorSet,
    LeveledSet,
    SuspensionModel,
    average_series,
    base_leveled_set,
    build_stage_table,
    cocycle_context,
    context_for,
    cylinder_constant,
    default_checkpoints,
    divergence_report,
    event_sweep,
    flip_orbit,
    milestone_sequence,
    overlap_measure,
    pair_integrand,
)
from ergolab.averages import (
    _CHECKPOINT_BUDGET,
    _checkpoint_bound,
    _neumaier_cumsum,
)
from ergolab import averages
from ergolab.extension import SegmentEscapesTower

import _reference as ref

MODEL = SuspensionModel("poisson", 1)


@pytest.fixture(scope="module")
def table():
    return build_stage_table(ConstructionParams(j_max=9))


@pytest.fixture(scope="module")
def profile6(table):
    """Profile at context stage 6, good for step counts up to 23040."""
    ctx = cocycle_context(table, 6)
    return event_sweep(base_leveled_set(table, 6), ctx, 23040)


def test_milestone_sequence_values(table):
    miles = milestone_sequence(table, 3)
    assert [(m.index, m.n) for m in miles] == [
        (4, 4), (5, 8), (6, 24), (7, 48),
        (8, 288), (9, 1152), (10, 5760), (11, 23040),
        (12, 172800), (13, 1036800), (14, 7257600), (15, 43545600),
    ]
    for prev, cur in zip(miles, miles[1:]):
        assert cur.n >= 2 * prev.n


def test_milestone_sequence_skips_stages_without_markers(table):
    t = build_stage_table(ConstructionParams(j_max=9, marker_stages=frozenset({4})))
    miles = milestone_sequence(t, 3)
    assert {m.j for m in miles} == {2}


def test_milestone_ratio_guard():
    @dataclass(frozen=True)
    class SparseSpacers(ConstructionParams):
        def spacer_count(self, j, column, h_j):
            return j * h_j if self.carries_markers(j) else 0

    t = build_stage_table(
        SparseSpacers(j_max=6, marker_stages=frozenset({2, 4}))
    )
    with pytest.raises(ValueError, match="ratio below 2"):
        milestone_sequence(t, 2)


def test_sweep_without_markers_is_constant_one():
    t = build_stage_table(ConstructionParams(j_max=5, marker_stages=frozenset()))
    ctx = context_for(t, 100)
    prof = event_sweep(base_leveled_set(t, ctx.stage), ctx, 100)
    assert prof.edges == (0,)
    assert prof.counts == (prof.total,)
    assert prof.overlap_at(1) == 1 and prof.overlap_at(100) == 1
    series = average_series(MODEL, prof, checkpoints=[1, 10, 100])
    c = cylinder_constant(MODEL)
    for a_n in series.a_n.tolist():
        assert abs(a_n - c) < 1e-15


def test_sweep_matches_direct_overlap_on_random_step_counts(table, profile6):
    ctx = cocycle_context(table, 6)
    a = base_leveled_set(table, 6)
    rng = random.Random(404)
    for _ in range(1000):
        n = rng.randrange(1, 5001)
        assert profile6.overlap_at(n) == overlap_measure(n, a, ctx)


def test_sweep_plateaus_on_the_j2_windows(table, profile6):
    for n in (289, 500, 946):
        assert profile6.overlap_at(n) == 0
    assert profile6.overlap_at(947) == Fraction(1, 12)
    assert profile6.overlap_at(1151) == Fraction(11, 12)
    for n in (5761, 10000, 23039):
        assert profile6.overlap_at(n) == 1


def _merge_equal_counts(profile):
    edges, counts = [profile.edges[0]], [profile.counts[0]]
    for e, c in zip(profile.edges[1:], profile.counts[1:]):
        if c != counts[-1]:
            edges.append(e)
            counts.append(c)
    return edges, counts


def test_zero_change_edges_depend_only_on_chunking(monkeypatch):
    """Flips cancelling across fragment chunks leave edges that change nothing."""
    import ergolab.extension as ext

    t = build_stage_table(ConstructionParams(preset="staircase-mixing", j_max=7))
    n_max = 100_000
    ctx = context_for(t, n_max)
    a = base_leveled_set(t, ctx.stage)
    profiles = {}
    for chunk in (1, 2048):
        monkeypatch.setattr(ext, "_FRAGMENT_CHUNK", chunk)
        profiles[chunk] = event_sweep(a, ctx, n_max)
    fine, coarse = profiles[1], profiles[2048]
    assert len(fine.edges) > len(coarse.edges)
    assert _merge_equal_counts(fine) == _merge_equal_counts(coarse)
    for n in range(1, n_max + 1):
        assert fine.count_at(n) == coarse.count_at(n)


def test_cross_chunk_edges_are_pinned():
    """Five chunks of 2048 fragments: pins the edges whose chunk nets cancel."""
    t = build_stage_table(ConstructionParams(preset="staircase-mixing", j_max=9))
    n_max = 2_000_000
    ctx = context_for(t, n_max)
    a = base_leveled_set(t, ctx.stage)
    assert (ctx.stage, len(a.level0), len(a.level1)) == (8, 10_080, 0)
    p = event_sweep(a, ctx, n_max)
    assert len(p.edges) == len(p.counts) == 8_251
    assert len(_merge_equal_counts(p)[0]) == 8_029
    columns = (tuple(p.edges.tolist()), tuple(p.counts.tolist()))
    digest = hashlib.sha256(repr(columns).encode()).hexdigest()
    assert digest == "7b93f6be97c97c1234ae25eee922e52412415d0031850104ad6646c1ef58a075"


def test_sweep_guards_the_int64_key_range():
    """The flip times are int64 keys, and their differences and partial sums
    reach ``2*h``, so a stage of height ``2**62`` or more is refused before the
    base set is refined."""
    t = build_stage_table(ConstructionParams(j_max=14))
    h = t.height(13)
    assert 2**62 < h < 2**63
    ctx = CocycleContext(t, 13, np.zeros(0, dtype=np.int64))
    with pytest.raises(BudgetExceeded, match=f"2\\*h = {2 * h} >= 2\\*\\*63"):
        event_sweep(base_leveled_set(t, 1), ctx, 1)


def test_sweep_takes_only_the_base_set(table):
    ctx = cocycle_context(table, 6)
    base = base_leveled_set(table, 6)
    assert event_sweep(base_leveled_set(table, 2), ctx, 100).counts.tolist() == (
        event_sweep(base, ctx, 100).counts.tolist()
    )
    part = LeveledSet(FloorSet(6, base.level0.indices[1:]), FloorSet(6, ()))
    split = LeveledSet(FloorSet(6, base.level0.indices[:5]), FloorSet(6, base.level0.indices[5:]))
    on_level_1 = LeveledSet(FloorSet(6, ()), base.level0)
    for a in (part, split, on_level_1, flip_orbit(base, 3, ctx)):
        with pytest.raises(ValueError, match="takes the base set"):
            event_sweep(a, ctx, 100)


def test_pair_budget_bounds_the_largest_chunk(table, monkeypatch):
    """Each chunk's ``(d, b)`` event pairs are counted before any is built.  From
    a budget of 0 up, each refusal names a later chunk and its count, and at a
    budget of exactly the largest count the sweep runs and gives the profile."""
    import ergolab.extension as ext

    n_max = 23040
    ctx = cocycle_context(table, 6)
    a = base_leveled_set(table, 6)
    monkeypatch.setattr(ext, "_FRAGMENT_CHUNK", 100)
    want = event_sweep(a, ctx, n_max)
    refused, budget = [], 0
    while True:
        monkeypatch.setattr(ext, "_EVENT_BUDGET", budget)
        try:
            got = event_sweep(a, ctx, n_max)
            break
        except BudgetExceeded as exc:
            chunk, events = re.fullmatch(
                rf"series fragment chunk (\d) of 3 needs (\d+) \(d, b\) events,"
                rf" over the budget of {budget}",
                str(exc),
            ).groups()
            refused.append((int(chunk), int(events)))
            budget = int(events)
    assert [c for c, _ in refused] == sorted({c for c, _ in refused}) and refused[0][0] == 0
    assert all(e0 < e1 for (_, e0), (_, e1) in zip(refused, refused[1:]))
    monkeypatch.setattr(ext, "_EVENT_BUDGET", budget - 1)
    with pytest.raises(BudgetExceeded, match=f"needs {budget} "):
        event_sweep(a, ctx, n_max)
    assert np.array_equal(got.edges, want.edges) and np.array_equal(got.counts, want.counts)


@pytest.mark.parametrize(
    "preset, n_max, events",
    [("basic", 43_545_600, 17_072), ("staircase-mixing", 77_115_780, 43_406)],
)
def test_first_chunk_events_are_pinned(preset, n_max, events, monkeypatch):
    """The work of the first chunk of ``series {}`` and of the staircase
    preset's run, read from the refusal at an event budget of 0: its blocks'
    differences are summed per marker stage before they meet the base floors,
    so it builds 17,072 and 43,406 (d, b) events, not the 45,090 and 105,330
    of pairing each block with its base floors."""
    import ergolab.extension as ext

    t = build_stage_table(ConstructionParams(preset, j_max=9))
    assert milestone_sequence(t, 3)[-1].n == n_max
    ctx = context_for(t, n_max)
    monkeypatch.setattr(ext, "_EVENT_BUDGET", 0)
    with pytest.raises(BudgetExceeded) as exc:
        event_sweep(base_leveled_set(t, ctx.stage), ctx, n_max)
    assert str(exc.value) == (
        f"series fragment chunk 0 of 5 needs {events} (d, b) events, over the budget of 0"
    )


def test_sweep_memory_stays_bounded():
    """The default run's 32,001 plateaus and the staircase run's 68,049 come
    from 84,404 and 216,074 (d, b) events.  Merged chunk by chunk, their
    traced peaks stay under the 7.1 and 11.2 MB of the flip sweep they
    replaced, which sorted 8,557,920 flips in bounded time windows."""
    for preset, plateaus, flip_sweep_peak in (
        ("basic", 32_001, 7_100_000),
        ("staircase-mixing", 68_049, 11_200_000),
    ):
        t = build_stage_table(ConstructionParams(preset, j_max=9))
        n_max = 43_545_600
        ctx = context_for(t, n_max)
        a = base_leveled_set(t, ctx.stage)
        tracemalloc.start()
        try:
            profile = event_sweep(a, ctx, n_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(profile.counts) == plateaus
        assert peak <= flip_sweep_peak, (preset, peak)


def test_block_sums_guard_their_partial_sums(table, monkeypatch):
    """A block's pruned sum of differences forms its candidates only within
    ``_PARTIAL_BUDGET``, named with the chunk."""
    import ergolab.extension as ext

    ctx = cocycle_context(table, 6)
    monkeypatch.setattr(ext, "_PARTIAL_BUDGET", 4)
    with pytest.raises(
        BudgetExceeded,
        match=r"^series fragment chunk 0 of 1: a pruned sum would form \d+ partial sums"
        r" at one stage, over the budget of 4$",
    ):
        event_sweep(base_leveled_set(table, 6), ctx, 23040)


def test_sweep_rejects_escaping_fragments(table):
    ctx = cocycle_context(table, 4)
    with pytest.raises(SegmentEscapesTower):
        event_sweep(base_leveled_set(table, 4), ctx, table.height(4))
    for n_max in (0, -1):
        with pytest.raises(ValueError, match=f"^n_max must be >= 1, got {n_max}$"):
            event_sweep(base_leveled_set(table, 4), ctx, n_max)


def test_profile_count_at_domain(profile6):
    with pytest.raises(ValueError):
        profile6.count_at(0)
    with pytest.raises(ValueError):
        profile6.count_at(profile6.n_max + 1)


def test_default_checkpoints_match_the_max_loop():
    """The grid equals the ``n = max(n + 1, int(n * ratio))`` loop."""
    for ratio in (1.00005, 1.05, 1.5, 2.0, 10.0):
        for n_max in (1, 2, 3, 10, 999, 23_040, 43_545_600):
            assert default_checkpoints(n_max, ratio).tolist() == ref.checkpoints(n_max, ratio)


@settings(deadline=None, derandomize=True, database=None, max_examples=100)
@given(n_max=st.integers(1, 2**62 - 1), exponent=st.floats(-8, 3))
@example(n_max=1, exponent=0.0)
@example(n_max=2, exponent=-7.0)
@example(n_max=1000, exponent=-7.0)
@example(n_max=999_999, exponent=-7.0)
@example(n_max=2**62 - 1, exponent=0.0)
@example(n_max=2**62 - 1, exponent=300.0)
@example(n_max=2**62 - 1, exponent=-0.3)
@example(n_max=2**62 - 3, exponent=-4.0)
@example(n_max=77_115_780, exponent=math.log10(0.00005))
@example(n_max=43_545_600, exponent=math.log10(0.05))
def test_default_checkpoints_equal_the_scalar_loop(n_max, exponent):
    """The grid built from checked arithmetic runs equals the scalar loop of
    ``tests/_reference.py`` on any ``(n_max, ratio)`` under the checkpoint
    budget: ratios from ``1 + 1e-8`` up (2.0 and 1e300 among them),
    ``n_max`` up to ``2**62 - 1``, the ``series-dense`` and default grids.
    The suite turns warnings into errors, so a cast that overflows fails."""
    ratio = 1 + 10**exponent
    # the oracle steps once per checkpoint, so the grids stay under 2**20
    assume(_checkpoint_bound(n_max, ratio) <= 1 << 20)
    assert default_checkpoints(n_max, ratio).tolist() == ref.checkpoints(n_max, ratio)


@pytest.mark.parametrize("extra", [1, 3])
def test_default_checkpoints_repair_runs_guessed_too_long(monkeypatch, extra):
    """With every run's length guessed ``extra`` terms too long, each grid is
    kept up to its first wrong step and the runs start again from the rule's
    next value, so the grid still equals the scalar loop."""
    shim = types.SimpleNamespace(**vars(math))
    shim.ceil = lambda x: math.ceil(x) + extra
    monkeypatch.setattr(averages, "math", shim)
    rng = random.Random(extra)
    for _ in range(150):
        n_max, ratio = rng.randint(1, 10**6), 1 + 10 ** rng.uniform(-2, 0)
        assert default_checkpoints(n_max, ratio).tolist() == ref.checkpoints(n_max, ratio)


def test_default_checkpoints_refuse_n_max_from_2_to_the_62():
    assert default_checkpoints(2**62 - 1, 2.0)[-2:].tolist() == [2**61, 2**62 - 1]
    for n_max in (2**62, 2**63, 2**70):
        with pytest.raises(BudgetExceeded, match=f"up to N={n_max} pass 2\\*\\*62"):
            default_checkpoints(n_max, 2.0)


@settings(deadline=None, derandomize=True, database=None, max_examples=60)
@given(
    grid=st.one_of(
        st.tuples(st.integers(1, 10**9), st.floats(-4, 1)),
        st.tuples(st.integers(1, 2000), st.floats(-12, 1)),
    )
)
@example(grid=(43_545_600, -4.0))
@example(grid=(10**9, -1.0))
def test_checkpoint_bound_covers_the_grid(grid):
    """The preflight bound, from ``n_max`` and the ratio alone, is at least the
    length of the grid it admits."""
    n_max, exponent = grid
    ratio = 1 + 10**exponent
    assert _checkpoint_bound(n_max, ratio) >= len(default_checkpoints(n_max, ratio))


@pytest.mark.parametrize("ratio", [1.0, 0.5, float("inf"), float("nan")])
def test_default_checkpoints_refuse_a_ratio_not_finite_and_above_one(ratio):
    message = f"^checkpoint_ratio must be a finite number > 1, got {ratio}$"
    with pytest.raises(ValueError, match=message):
        default_checkpoints(100, ratio)


def test_default_checkpoints_shape():
    cps = default_checkpoints(100_000, 1.05)
    assert cps[0] == 1 and cps[-1] == 100_000
    assert all(b > a for a, b in zip(cps, cps[1:]))
    assert len(cps) < 400
    with pytest.raises(ValueError):
        default_checkpoints(100, ratio=1.0)
    for n_max in (0, -1):
        with pytest.raises(ValueError, match=f"^n_max must be >= 1, got {n_max}$"):
            default_checkpoints(n_max, 1.05)
    # the series-dense grid passes the preflight; a ratio this near 1 does not
    dense = (77_115_780, 1.00005)
    assert len(default_checkpoints(*dense)) < _checkpoint_bound(*dense) < _CHECKPOINT_BUDGET
    with pytest.raises(BudgetExceeded, match="up to 43545600 checkpoints"):
        default_checkpoints(43_545_600, 1.0000000001)


def test_series_against_naive_running_mean(table, profile6):
    """Plateau accumulation must reproduce the one-term-at-a-time mean."""
    ctx = cocycle_context(table, 6)
    a = base_leveled_set(table, 6)
    n_top = 1500
    series = average_series(MODEL, profile6, checkpoints=range(1, n_top + 1))
    g = [pair_integrand(MODEL, overlap_measure(n, a, ctx)) for n in range(1, n_top + 1)]
    assert series.n.tolist() == list(range(1, n_top + 1))
    exact = Fraction(0)
    for n, k, a_n in zip(series.n.tolist(), series.level.tolist(), series.a_n.tolist()):
        # within 1 ulp of the correctly rounded exact mean of the float integrands
        exact += Fraction(g[n - 1])
        mean = float(exact / n)
        assert abs(a_n - mean) <= math.ulp(mean)
        overlap, integrand = series.levels[k]
        assert overlap == profile6.overlap_at(n)
        assert integrand == g[n - 1]
    # unsorted and repeated checkpoints and the milestones merge into one grid
    again = average_series(
        MODEL, profile6, [*range(n_top, 0, -1), 1, 1500, 7], milestone_sequence(table, 1)
    )
    for column in ("n", "level", "a_n"):
        assert np.array_equal(getattr(again, column), getattr(series, column))
    assert [n for n, m in zip(again.n, again.is_milestone) if m] == [4, 8, 24, 48]


@pytest.mark.parametrize("model", [MODEL, SuspensionModel("gaussian")])
def test_series_default_within_one_ulp_of_the_exact_mean(table, model):
    """Every ``a_n`` of ``series {}`` (337 checkpoints to N = 43,545,600 over
    32,001 plateaus) lies within 1 ulp of the correctly rounded exact mean of
    its float integrands, summed as ``Fraction``s over the plateaus."""
    miles = milestone_sequence(table, 3)
    n_max = miles[-1].n
    ctx = context_for(table, n_max)
    profile = event_sweep(base_leveled_set(table, ctx.stage), ctx, n_max)
    series = average_series(model, profile, default_checkpoints(n_max, 1.05), miles)
    means = ref.exact_running_means(
        profile, lambda x: pair_integrand(model, x), series.n.tolist()
    )
    assert len(means) == 337
    for a_n, exact in zip(series.a_n.tolist(), means):
        mean = float(exact)
        assert abs(a_n - mean) <= math.ulp(mean)


def test_overlap_floats_equal_the_floats_of_their_fractions(table):
    """``average_series`` passes ``pair_integrand`` the overlap ``c * w`` as
    ``(c * w.numerator) / w.denominator``: int true division rounds
    correctly, so it is ``float(c * w)``, on every count of ``series {}``
    (0 to the 10,080 fragments of its context stage) and on random widths."""
    n_max = milestone_sequence(table, 3)[-1].n
    w = table.width(context_for(table, n_max).stage)
    assert w == Fraction(1, 10_080)
    for c in range(w.denominator + 1):
        assert (c * w.numerator) / w.denominator == float(c * w)
    rng = random.Random(11)
    for _ in range(20_000):
        w = Fraction(rng.randrange(1, 2 ** rng.randrange(1, 90)),
                     rng.randrange(1, 2 ** rng.randrange(1, 90)))
        c = rng.randrange(2 ** rng.randrange(1, 70))
        assert (c * w.numerator) / w.denominator == float(c * w)


def test_neumaier_cumsum_matches_scalar_loop_bit_for_bit():
    """The vectorised compensated sums equal the scalar accumulator exactly,
    in one piece and in pieces that chain the carry ``(s, comp)``."""
    rng = random.Random(7)
    x = [rng.choice((1.0, -1.0)) * rng.random() * 10.0 ** rng.randint(-12, 12)
         for _ in range(5000)]
    s = comp = 0.0
    want = []
    for v in x:
        t = s + v
        comp += (s - t) + v if abs(s) >= abs(v) else (v - t) + s
        s = t
        want.append(s + comp)
    got, s, comp = _neumaier_cumsum(np.asarray(x), 0.0, 0.0)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
    got, s, comp = [], 0.0, 0.0
    for i in range(0, len(x), 97):
        sums, s, comp = _neumaier_cumsum(np.asarray(x[i : i + 97]), s, comp)
        got += sums.tolist()
    assert [v.hex() for v in got] == [v.hex() for v in want]


@pytest.mark.parametrize("block", [1, 2, 97])
def test_series_blocks_carry_the_sum_bit_for_bit(table, profile6, block, monkeypatch):
    """Blocks of any size give the series of the default block, bit for bit,
    and the scalar compensated sum of ``_reference``: on every step to 2,000
    and on the plateau ends with one step past every third, each with the
    j <= 2 milestones, so checkpoints and block ends fall on edges."""
    miles = milestone_sequence(table, 2)
    edges = profile6.edges.tolist()[1:]
    edge_set = set(edges)
    for checkpoints in (range(1, 2001), sorted({*edges, *(e + 1 for e in edges[::3])})):
        want = average_series(MODEL, profile6, checkpoints, miles)
        assert len(want) <= averages._SUM_BLOCK
        ends = want.n[block - 1 :: block].tolist()
        assert edge_set & set(ends) and edge_set & set(want.n.tolist())
        with monkeypatch.context() as m:
            m.setattr(averages, "_SUM_BLOCK", block)
            got = average_series(MODEL, profile6, checkpoints, miles)
        for column in ("n", "level", "is_milestone"):
            assert np.array_equal(getattr(got, column), getattr(want, column)), column
        assert got.levels == want.levels
        scalar = ref.compensated_running_means(
            profile6, lambda x: pair_integrand(MODEL, x), want.n.tolist()
        )
        hexes = [v.hex() for v in want.a_n.tolist()]
        assert [v.hex() for v in got.a_n.tolist()] == hexes
        assert [v.hex() for v in scalar] == hexes


def test_series_memory_is_one_block_past_its_columns():
    """The call's traced peak is its output columns plus at most 3 MiB: on
    series-dense's grid (196,695 rows, 4.7 MiB of columns) and on the basic
    preset at ratio 1.00001 (765,251 rows, 18.3 MiB), where sorting and
    summing every stop in one pass peaked at 11.2 and 38.5 MiB."""
    for preset, model, ratio, rows in (
        ("staircase-mixing", SuspensionModel("gaussian"), 1.00005, 196_695),
        ("basic", MODEL, 1.00001, 765_251),
    ):
        t = build_stage_table(ConstructionParams(preset, j_max=9))
        miles = milestone_sequence(t, 3)
        n_max = miles[-1].n
        ctx = context_for(t, n_max)
        profile = event_sweep(base_leveled_set(t, ctx.stage), ctx, n_max)
        checkpoints = default_checkpoints(n_max, ratio)
        tracemalloc.start()
        try:
            series = average_series(model, profile, checkpoints, miles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(series) == rows
        columns = sum(c.nbytes for c in (series.n, series.level, series.a_n, series.is_milestone))
        assert peak <= columns + 3 * 2**20, (preset, peak, columns)


def test_series_points_stay_between_c_squared_and_c(table, profile6):
    miles = milestone_sequence(table, 2)
    series = average_series(MODEL, profile6, default_checkpoints(23040, 1.05), miles)
    c = cylinder_constant(MODEL)
    lo, hi = c * c - 1e-12, c + 1e-12
    for k, a_n in zip(series.level.tolist(), series.a_n.tolist()):
        assert lo <= series.levels[k][1] <= hi
        assert lo <= a_n <= hi
    flagged = set(series.n[series.is_milestone].tolist())
    assert flagged == {m.n for m in miles}


def test_series_validates_checkpoint_range(profile6):
    with pytest.raises(ValueError):
        average_series(MODEL, profile6, checkpoints=[0])
    with pytest.raises(ValueError):
        average_series(MODEL, profile6, checkpoints=[profile6.n_max + 1])
    # no checkpoints, or one that int64 cannot hold
    for checkpoints in ([], np.zeros(0, dtype=np.int64), [1, 2**63]):
        with pytest.raises(ValueError, match=r"^checkpoints must be a non-empty subset of \[1, "):
            average_series(MODEL, profile6, checkpoints=checkpoints)


def test_divergence_report_j_top_2(table, profile6):
    miles = milestone_sequence(table, 2)
    series = average_series(MODEL, profile6, default_checkpoints(23040, 1.05), miles)
    report = divergence_report(series, miles, MODEL)
    assert not report.insufficient_stages
    a = {m.index: v for m, v in report.milestone_points}
    # regression anchors, cross-checked against an independent implementation
    assert abs(a[9] - 0.164539644787) <= 1e-9
    assert abs(a[11] - 0.334250894728) <= 1e-9
    assert all(b.passed for b in report.bound_checks)
    kinds = {(b.j, b.kind) for b in report.bound_checks}
    assert kinds == {
        (1, "disjoint_end"), (1, "coincide_end"),
        (2, "disjoint_end"), (2, "coincide_end"),
    }
    assert abs(report.gap - (a[11] - a[9])) <= 1e-15


def test_divergence_report_flags_single_stage(table):
    t = build_stage_table(ConstructionParams(j_max=5, marker_stages=frozenset({2})))
    miles = milestone_sequence(t, 1)
    ctx = context_for(t, miles[-1].n)
    prof = event_sweep(base_leveled_set(t, ctx.stage), ctx, miles[-1].n)
    series = average_series(MODEL, prof, default_checkpoints(miles[-1].n, 1.05), miles)
    report = divergence_report(series, miles, MODEL)
    assert report.insufficient_stages


def test_divergence_report_requires_milestone_coverage(table, profile6):
    miles = milestone_sequence(table, 2)
    series = average_series(MODEL, profile6, checkpoints=[1, 2, 3])
    with pytest.raises(ValueError, match="does not cover"):
        divergence_report(series, miles, MODEL)


def test_divergence_bounds_scale_their_slack_with_c(table, profile6):
    """At m=15, c = P(15; 1) is about 3e-13, far below an absolute 1e-9: a
    disjointness average raised past its bound by 1e-6*c must fail."""
    model = SuspensionModel("poisson", 15)
    c = cylinder_constant(model)
    miles = milestone_sequence(table, 2)
    series = average_series(model, profile6, default_checkpoints(23040, 1.05), miles)
    report = divergence_report(series, miles, model)
    assert all(b.passed for b in report.bound_checks)
    (end,) = [b for b in report.bound_checks if (b.j, b.kind) == (1, "disjoint_end")]
    a_n = series.a_n.copy()
    a_n[np.searchsorted(series.n, end.n)] = end.bound + 1e-6 * c
    raised = divergence_report(replace(series, a_n=a_n), miles, model)
    assert {(b.j, b.kind) for b in raised.bound_checks if not b.passed} == {
        (1, "disjoint_end")
    }


def test_divergence_bounds_hold_with_two_percent_of_c_to_spare(table):
    """Measured on the default construction: at m = 0..30 and 170 every
    bound holds by at least 2% of c, so the 1e-9*c slack decides none."""
    miles = milestone_sequence(table, 3)
    n_max = miles[-1].n
    ctx = context_for(table, n_max)
    profile = event_sweep(base_leveled_set(table, ctx.stage), ctx, n_max)
    for m in [*range(31), 170]:
        model = SuspensionModel("poisson", m)
        c = cylinder_constant(model)
        series = average_series(model, profile, [n_max], miles)
        checks = divergence_report(series, miles, model).bound_checks
        assert len(checks) == 6
        for b in checks:
            margin = b.bound - b.a_n if b.kind == "disjoint_end" else b.a_n - b.bound
            assert margin >= 0.02 * c, (m, b)


def test_report_json_uses_decimal_strings(table, profile6):
    miles = milestone_sequence(table, 2)
    series = average_series(MODEL, profile6, default_checkpoints(23040, 1.05), miles)
    obj = divergence_report(series, miles, MODEL).to_json_obj()
    assert obj["milestones"][-1]["n"] == "23040"
    assert isinstance(obj["bound_checks"][0]["n"], str)
    assert set(obj) >= {"c", "c_squared", "gap", "empirical_min", "empirical_max"}
