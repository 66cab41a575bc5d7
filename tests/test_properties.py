"""Property tests: the numpy engines against the single-step reference on
random small constructions of both presets."""

import dataclasses
from bisect import bisect_left
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from ergolab import (
    ConstructionParams,
    FloorSet,
    LeveledSet,
    SegmentEscapesTower,
    StageOverflow,
    base_leveled_set,
    build_stage_table,
    claim_windows,
    cocycle_context,
    context_for,
    event_sweep,
    flip_orbit,
    level_swap,
    overlap_measure,
    straight_orbit,
    verify_conjugacy,
    verify_windows,
)
import ergolab.extension as ext
from ergolab.extension import _flip_plateaus, _sample_grid

import _reference as ref

SETTINGS = settings(deadline=None, derandomize=True, database=None)


def _reference_schedule(preset, marker_stages):
    """(cut, spacer) of the construction, written out independently."""

    def spacer(j, i, h_j):
        stair = preset == "staircase-mixing" and j not in marker_stages
        return j * h_j + (i if stair else 0)

    return ref.basic_cut, spacer


def _listed(check, bad, points):
    """The violations ``check`` should list out of all of them, ``bad``, when
    a window lists up to ``points`` in full and else those on the sample grid."""
    lo, hi = check.lo, check.hi
    if len(bad) <= points:
        assert (check.mode, check.checked_count) == ("exhaustive", hi - lo - 1)
        return bad
    grid, bad = _sample_grid(lo, hi, points), set(bad)
    assert (check.mode, check.checked_count) == ("sampled", len(grid))
    return [n for n in grid if n in bad]


def _counts_from(ctx, fragments, n):
    """The flip sweep's parity-0 count at each step ``1 .. n``."""
    edges, counts = _flip_plateaus(ctx, np.asarray(sorted(fragments), dtype=np.int64), n)
    assert edges[0] == 0
    return np.repeat(counts, np.diff(np.append(edges, n))).tolist()


@settings(SETTINGS, max_examples=40)
@given(
    preset=st.sampled_from(["basic", "staircase-mixing"]),
    marker_stages=st.sets(st.sampled_from([2, 4])),
    j_max=st.integers(3, 6),
    n_max=st.integers(1, 600),
)
def test_context_and_profile_match_reference(preset, marker_stages, j_max, n_max):
    table = build_stage_table(
        ConstructionParams(preset, j_max, frozenset(marker_stages))
    )
    try:
        ctx = context_for(table, n_max)
    except StageOverflow:
        reject()
    cut, spacer = _reference_schedule(preset, marker_stages)
    h = ref.heights(ctx.stage, cut, spacer)
    markers = ref.marker_indices(ctx.stage, sorted(marker_stages), cut, spacer, h)
    assert list(ctx.e_indices) == markers
    # the swap zones are the floors with an odd number of markers below them
    marker_set, parity, below = set(markers), 0, []
    for f in range(h[ctx.stage]):
        below.append(parity)
        parity ^= f in marker_set
    assert ctx.in_zone(range(h[ctx.stage])).astype(int).tolist() == below
    assert verify_conjugacy(table, ctx.stage).passed

    base = base_leveled_set(table, ctx.stage)
    profile = event_sweep(base, ctx, n_max)
    fragments = ref.base_indices(ctx.stage, cut, spacer, h)
    assert not ctx.in_zone(fragments).any()
    expected = ref.overlaps(fragments, set(markers), n_max)
    for n in range(1, n_max + 1):
        assert profile.overlap_at(n) == expected[n]
    for n in range(n_max + 1):
        assert overlap_measure(n, base, ctx) == expected[n]
    # the flip sweep of an orbit set on both levels, some of its fragments on
    # marker floors, which flip at step 0
    k = n_max // 2
    moved = flip_orbit(base, k, ctx)
    expected = ref.overlaps([f + k for f in fragments], set(markers), n_max - k)
    for n in range(n_max - k + 1):
        assert overlap_measure(n, moved, ctx) == expected[n]
    counts = _counts_from(ctx, moved.level0.indices + moved.level1.indices, n_max - k)
    assert [Fraction(c, len(fragments)) for c in counts] == expected[1:]


def _leveled(stage, floors, levels):
    """The LeveledSet of ``floors`` with the given level bits."""
    return LeveledSet(*(
        FloorSet.of(stage, [f for f, z in zip(floors, levels) if z == want]) for want in (0, 1)
    ))


@settings(SETTINGS, max_examples=60)
@given(
    preset=st.sampled_from(["basic", "staircase-mixing"]),
    marker_stages=st.sets(st.sampled_from([2, 4])),
    j_max=st.integers(4, 6),
    data=st.data(),
)
def test_lifts_match_reference(preset, marker_stages, j_max, data):
    """``straight_orbit``, ``flip_orbit``, ``overlap_measure`` and ``level_swap``
    on a set whose two levels hold floors of two different stages, both
    refined to the context stage, against stepping one floor at a time."""
    table = build_stage_table(ConstructionParams(preset, j_max, frozenset(marker_stages)))
    cut, spacer = _reference_schedule(preset, marker_stages)
    h = ref.heights(j_max, cut, spacer)
    stages = data.draw(st.lists(st.integers(1, j_max), min_size=2, max_size=2, unique=True))
    a = LeveledSet(*(
        FloorSet.of(s, data.draw(st.sets(st.integers(0, h[s] - 1), min_size=1, max_size=3)))
        for s in stages
    ))

    def reference(stage):
        """Fragments of both levels at ``stage``, their level bits, the markers."""
        l0, l1 = (
            ref.expand(fs.indices, fs.stage, stage, cut, spacer, h) for fs in (a.level0, a.level1)
        )
        markers = ref.marker_indices(stage, sorted(marker_stages), cut, spacer, h)
        return l0 + l1, [0] * len(l0) + [1] * len(l1), markers

    ctx = cocycle_context(table, j_max)
    fragments, levels, markers = reference(j_max)
    room = h[j_max] - 1 - max(fragments)
    parity = ref.step_levels(fragments, set(markers), min(room, 300))
    disjoint = len(set(fragments)) == len(fragments)
    for n in data.draw(st.lists(st.integers(0, len(parity) - 1), min_size=1, max_size=6)):
        moved = [f + n for f in fragments]
        assert straight_orbit(a, n, ctx) == _leveled(j_max, moved, levels)
        flipped = [z ^ p for z, p in zip(levels, parity[n])]
        assert flip_orbit(a, n, ctx) == _leveled(j_max, moved, flipped)
        if disjoint:
            assert overlap_measure(n, a, ctx) == parity[n].count(0) * table.width(j_max)
        else:
            with pytest.raises(ValueError, match="level-disjoint"):
                overlap_measure(n, a, ctx)
    for lift in (straight_orbit, flip_orbit):
        with pytest.raises(SegmentEscapesTower):
            lift(a, room + 1, ctx)
        with pytest.raises(ValueError, match=">= 0"):
            lift(a, -1, ctx)
    # the swap flips the level of the floors with an odd number of markers below
    stage = max(stages)
    fragments, levels, markers = reference(stage)
    swapped = [z ^ (bisect_left(markers, f) & 1) for f, z in zip(fragments, levels)]
    assert level_swap(table, a) == _leveled(stage, fragments, swapped)


@settings(SETTINGS, max_examples=10)
@given(
    preset=st.sampled_from(["basic", "staircase-mixing"]),
    j_max=st.integers(5, 6),
)
def test_j1_window_violations_match_reference(preset, j_max):
    table = build_stage_table(ConstructionParams(preset, j_max))
    marker_stages = [q for q in range(2, j_max) if q % 2 == 0]
    cut, spacer = _reference_schedule(preset, marker_stages)
    h = ref.heights(j_max, cut, spacer)
    windows = ((h[2], 2 * h[2], 0), (h[3], 2 * h[3], 1))
    overlap = ref.overlaps(
        ref.base_indices(j_max, cut, spacer, h),
        set(ref.marker_indices(j_max, marker_stages, cut, spacer, h)),
        windows[-1][1] - 1,
    )

    # room for every violation, then for none: the listing in full and on the grid
    for points in (ext._GRID_POINTS, 0):
        with patch.object(ext, "_GRID_POINTS", points):
            report = verify_windows(table, 1)
        for check, (lo, hi, want) in zip(report.checks, windows):
            assert (check.lo, check.hi) == (lo, hi)
            bad = _listed(check, [n for n in range(lo + 1, hi) if overlap[n] != want], points)
            assert list(check.violations) == bad
            assert [Fraction(v) for v in check.violation_values] == [
                overlap[n] for n in bad
            ]


@settings(SETTINGS, max_examples=40)
@given(
    preset=st.sampled_from(["basic", "staircase-mixing"]),
    marker_stages=st.sets(st.sampled_from([2, 4])),
    j_max=st.integers(5, 7),
    grid_points=st.integers(0, 60),
)
def test_window_kernel_matches_event_sweep(preset, marker_stages, j_max, grid_points):
    """The window reports at the default ``_GRID_POINTS`` and at a drawn one
    against the flip-event profile at every step count: the window path
    starts the flip sweep at step ``lo`` from each fragment's parity there,
    the profile starts it at step 0."""
    table = build_stage_table(
        ConstructionParams(preset, j_max, frozenset(marker_stages))
    )
    for q in table.params.effective_marker_stages():
        j = q // 2
        windows = claim_windows(table, j)
        n_max = windows[1][1] - 1
        try:
            ctx = context_for(table, n_max)
        except StageOverflow:
            with pytest.raises(StageOverflow):
                verify_windows(table, j)
            continue
        profile = event_sweep(base_leveled_set(table, ctx.stage), ctx, n_max)
        # count_at(n) for n = 1..n_max
        count = np.repeat(profile.counts, np.diff(np.append(profile.edges, n_max))).tolist()
        for points in (ext._GRID_POINTS, grid_points):
            with patch.object(ext, "_GRID_POINTS", points):
                report = verify_windows(table, j)
            for check, (lo, hi), want in zip(report.checks, windows, (0, profile.total)):
                assert (check.lo, check.hi) == (lo, hi)
                bad = [n for n in range(lo + 1, hi) if count[n - 1] != want]
                bad = _listed(check, bad, points)
                assert list(check.violations) == bad
                assert [Fraction(v) for v in check.violation_values] == [
                    count[n - 1] * profile.width for n in bad
                ]


@settings(SETTINGS, max_examples=30)
@given(
    preset=st.sampled_from(["basic", "staircase-mixing"]),
    marker_stages=st.sets(st.sampled_from([2, 4]), min_size=1),
    j_max=st.integers(6, 7),
    data=st.data(),
)
def test_window_events_match_event_sweep_on_a_moved_column(preset, marker_stages, j_max, data):
    """One column of a marker stage ``q`` moved by fewer than ``h_q`` floors
    either way keeps columns, base floors and zones disjoint, but may bring
    one column's zones within a window's reach of another's base floors.  The
    window reports, certified or expanded from their survivors' events, are
    then the flip-event profile's of the moved table at every step."""
    table = build_stage_table(ConstructionParams(preset, j_max, frozenset(marker_stages)))
    q = data.draw(st.sampled_from(table.params.effective_marker_stages()), label="q")
    column = data.draw(st.integers(1, table.cut_count(q) - 1), label="column")
    h_q = table.height(q)
    # the moves near h_q either way bring zones closest to other columns
    by = data.draw(st.integers(1 - h_q, h_q - 1) | st.sampled_from([1 - h_q, h_q - 1]), label="by")
    offsets = [list(o) for o in table.offsets]
    offsets[q - 1][column] += by
    table = dataclasses.replace(table, offsets=tuple(map(tuple, offsets)))
    for p in table.params.effective_marker_stages():
        windows = claim_windows(table, p // 2)
        n_max = windows[1][1] - 1
        try:
            ctx = context_for(table, n_max)
        except StageOverflow:
            continue
        profile = event_sweep(base_leveled_set(table, ctx.stage), ctx, n_max)
        count = np.repeat(profile.counts, np.diff(np.append(profile.edges, n_max))).tolist()
        report = verify_windows(table, p // 2)
        for check, (lo, hi), want in zip(report.checks, windows, (0, profile.total)):
            bad = [n for n in range(lo + 1, hi) if count[n - 1] != want]
            bad = _listed(check, bad, ext._GRID_POINTS)
            assert list(check.violations) == bad
            assert [Fraction(v) for v in check.violation_values] == [
                count[n - 1] * profile.width for n in bad
            ]


@pytest.mark.parametrize("preset", ["basic", "staircase-mixing"])
@pytest.mark.parametrize("marker_stages", [None, (2,), (4,), (2, 6)])
def test_flip_sweep_time_windows_change_nothing(preset, marker_stages, monkeypatch):
    """Time windows only bound memory: forced down to 1, 7 or 64 flips each,
    the sweep to the end of each claim window gives the one-window edges and
    counts, and on the short windows the reference."""
    import ergolab.extension as ext

    ms = None if marker_stages is None else frozenset(marker_stages)
    table = build_stage_table(ConstructionParams(preset, 7, ms))
    stages = table.params.effective_marker_stages()
    cut, spacer = _reference_schedule(preset, stages)
    sweeps = []
    for q in stages:
        for _, hi in claim_windows(table, q // 2):
            try:
                ctx = context_for(table, hi - 1)
            except StageOverflow:
                continue
            sweeps.append((ctx, hi - 1))
    assert sweeps
    frags = {}
    for ctx, _ in sweeps:
        h = ref.heights(ctx.stage, cut, spacer)
        frags[ctx.stage] = ref.base_indices(ctx.stage, cut, spacer, h)
    calls = []
    nets = ext._chunk_flip_nets
    monkeypatch.setattr(ext, "_chunk_flip_nets", lambda *a: calls.append(1) or nets(*a))
    monkeypatch.setattr(ext, "_WINDOW_PAIRS", ext._CHUNK_PAIR_BUDGET)
    whole = [_flip_plateaus(ctx, np.asarray(frags[ctx.stage]), n) for ctx, n in sweeps]
    window_calls = {None: len(calls)}
    for pairs in (1, 7, 64):
        monkeypatch.setattr(ext, "_WINDOW_PAIRS", pairs)
        del calls[:]
        for (ctx, n), (edges, counts) in zip(sweeps, whole):
            e, c = _flip_plateaus(ctx, np.asarray(frags[ctx.stage]), n)
            assert np.array_equal(e, edges) and e.dtype == edges.dtype
            assert np.array_equal(c, counts) and c.dtype == counts.dtype
        window_calls[pairs] = len(calls)
    assert window_calls[1] > window_calls[None]  # the sweeps did split
    for ctx, n in sweeps:
        if n * len(frags[ctx.stage]) <= 200_000:
            h = ref.heights(ctx.stage, cut, spacer)
            markers = set(ref.marker_indices(ctx.stage, sorted(stages), cut, spacer, h))
            expected = ref.overlaps(frags[ctx.stage], markers, n)
            counts = _counts_from(ctx, frags[ctx.stage], n)
            assert [Fraction(k, len(frags[ctx.stage])) for k in counts] == expected[1:]
