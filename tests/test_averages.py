"""Event sweep, running averages, milestones, and the divergence report."""

import hashlib
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import pytest

from ergolab import (
    ConstructionParams,
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
    milestone_sequence,
    overlap_measure,
    pair_integrand,
)
from ergolab.averages import PairBudgetExceeded
from ergolab.extension import SegmentEscapesTower
from ergolab.tower import StageOverflow

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
    for p in series:
        assert abs(p.a_n - c) < 1e-15


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
    import ergolab.averages as av

    t = build_stage_table(ConstructionParams(preset="staircase-mixing", j_max=7))
    n_max = 100_000
    ctx = context_for(t, n_max)
    a = base_leveled_set(t, ctx.stage)
    profiles = {}
    for chunk in (1, 2048):
        monkeypatch.setattr(av, "_FRAGMENT_CHUNK", chunk)
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
    digest = hashlib.sha256(repr((p.edges, p.counts)).encode()).hexdigest()
    assert digest == "7b93f6be97c97c1234ae25eee922e52412415d0031850104ad6646c1ef58a075"


def test_sweep_guards_the_int64_key_range(table):
    """Flip keys 2*t + 1 need n_max <= 2**62; the guard fires before any work."""
    ctx = cocycle_context(table, 4)
    a = base_leveled_set(table, 4)
    with pytest.raises(StageOverflow, match=str(2**62 + 1)):
        event_sweep(a, ctx, 2**62 + 1)
    # 2**62 passes the guard and fails only because it escapes stage 4
    with pytest.raises(SegmentEscapesTower):
        event_sweep(a, ctx, 2**62)


def test_pair_budget_bounds_the_largest_chunk(table, monkeypatch):
    import ergolab.averages as av

    n_max = 23040
    ctx = cocycle_context(table, 6)
    a = base_leveled_set(table, 6)
    e = ctx.e_indices
    pairs = [bisect_left(e, f + n_max) - bisect_left(e, f) for f in a.level0.indices]
    monkeypatch.setattr(av, "_FRAGMENT_CHUNK", 100)
    largest = max(sum(pairs[k : k + 100]) for k in range(0, len(pairs), 100))
    monkeypatch.setattr(av, "_CHUNK_PAIR_BUDGET", largest)
    event_sweep(a, ctx, n_max)
    monkeypatch.setattr(av, "_CHUNK_PAIR_BUDGET", largest - 1)
    with pytest.raises(PairBudgetExceeded) as exc:
        event_sweep(a, ctx, n_max)
    assert f"needs {sum(pairs)} flip pairs" in str(exc.value)
    assert f"holds {largest}," in str(exc.value)


def test_sweep_rejects_escaping_fragments(table):
    ctx = cocycle_context(table, 4)
    with pytest.raises(SegmentEscapesTower):
        event_sweep(base_leveled_set(table, 4), ctx, table.height(4))


def test_profile_count_at_domain(profile6):
    with pytest.raises(ValueError):
        profile6.count_at(0)
    with pytest.raises(ValueError):
        profile6.count_at(profile6.n_max + 1)


def test_default_checkpoints_shape():
    cps = default_checkpoints(100_000)
    assert cps[0] == 1 and cps[-1] == 100_000
    assert all(b > a for a, b in zip(cps, cps[1:]))
    assert len(cps) < 400
    with pytest.raises(ValueError):
        default_checkpoints(100, ratio=1.0)


def test_series_against_naive_running_mean(table, profile6):
    """Plateau accumulation must reproduce the one-term-at-a-time mean."""
    ctx = cocycle_context(table, 6)
    a = base_leveled_set(table, 6)
    n_top = 1500
    series = average_series(MODEL, profile6, checkpoints=range(1, n_top + 1))
    g = [pair_integrand(MODEL, overlap_measure(n, a, ctx)) for n in range(1, n_top + 1)]
    for p in series:
        naive = math.fsum(g[: p.n]) / p.n
        assert abs(p.a_n - naive) <= 1e-10


def test_series_points_stay_between_c_squared_and_c(table, profile6):
    miles = milestone_sequence(table, 2)
    series = average_series(MODEL, profile6, default_checkpoints(23040), miles)
    c = cylinder_constant(MODEL)
    lo, hi = c * c - 1e-12, c + 1e-12
    for p in series:
        assert lo <= p.integrand <= hi
        assert lo <= p.a_n <= hi
    flagged = {p.n for p in series if p.is_milestone}
    assert flagged == {m.n for m in miles}


def test_series_validates_checkpoint_range(profile6):
    with pytest.raises(ValueError):
        average_series(MODEL, profile6, checkpoints=[0])
    with pytest.raises(ValueError):
        average_series(MODEL, profile6, checkpoints=[profile6.n_max + 1])


def test_divergence_report_j_top_2(table, profile6):
    miles = milestone_sequence(table, 2)
    series = average_series(MODEL, profile6, default_checkpoints(23040), miles)
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
    series = average_series(MODEL, prof, default_checkpoints(miles[-1].n), miles)
    report = divergence_report(series, miles, MODEL)
    assert report.insufficient_stages


def test_divergence_report_requires_milestone_coverage(table, profile6):
    miles = milestone_sequence(table, 2)
    series = average_series(MODEL, profile6, checkpoints=[1, 2, 3])
    with pytest.raises(ValueError, match="does not cover"):
        divergence_report(series, miles, MODEL)


def test_report_json_uses_decimal_strings(table, profile6):
    miles = milestone_sequence(table, 2)
    series = average_series(MODEL, profile6, default_checkpoints(23040), miles)
    obj = divergence_report(series, miles, MODEL).to_json_obj()
    assert obj["milestones"][-1]["n"] == "23040"
    assert isinstance(obj["bound_checks"][0]["n"], str)
    assert set(obj) >= {"c", "c_squared", "gap", "empirical_min", "empirical_max"}
