"""Property tests: the numpy engines against the single-step reference on
random small constructions of both presets."""

import collections
import dataclasses
import math
import random
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
    SuspensionModel,
    average_series,
    base_leveled_set,
    build_stage_table,
    claim_windows,
    cocycle_context,
    context_for,
    default_checkpoints,
    event_sweep,
    flip_orbit,
    level_swap,
    marker_floorset,
    overlap_measure,
    pair_integrand,
    refine,
    straight_orbit,
    verify_conjugacy,
    verify_windows,
)
import ergolab.extension as ext
import ergolab.tower as tower
from ergolab.extension import _sample_grid

import _reference as ref

SETTINGS = settings(deadline=None, derandomize=True, database=None)


def _reference_schedule(preset, marker_stages):
    """(cut, spacer) of the construction, written out independently."""

    def spacer(j, i, h_j):
        stair = preset == "staircase-mixing" and j not in marker_stages
        return j * h_j + (i if stair else 0)

    return ref.basic_cut, spacer


@st.composite
def _schedules(draw, j_max):
    """``(table, cut, spacer)``: a table of either preset or of a random
    schedule (:func:`_reference.random_tables`), with markers on a drawn
    subset of stages 2 and 4, and the reference's ``cut`` and ``spacer`` of
    its schedule: written out for a preset, read from a random table's
    spacer counts."""
    j_max, marker_stages = draw(j_max), draw(st.sets(st.sampled_from([2, 4])))
    preset = draw(st.sampled_from(["basic", "staircase-mixing", "random"]))
    if preset != "random":
        table = build_stage_table(ConstructionParams(preset, j_max, frozenset(marker_stages)))
        return (table, *_reference_schedule(preset, marker_stages))
    table = draw(ref.random_tables(st.just(j_max), st.just(marker_stages)))

    def spacer(j, i, h_j):
        return table.spacer_counts(j)[i - 1]

    return table, lambda j: len(table.spacer_counts(j)), spacer


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


@settings(SETTINGS, max_examples=60)
@given(schedule=_schedules(st.integers(3, 6)), n_max=st.integers(1, 600))
def test_context_and_profile_match_reference(schedule, n_max):
    table, cut, spacer = schedule
    marker_stages = table.params.marker_stages
    try:
        ctx = context_for(table, n_max)
    except StageOverflow:
        reject()
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
    # an orbit set on both levels, some of its fragments on marker floors
    k = n_max // 2
    moved = flip_orbit(base, k, ctx)
    expected = ref.overlaps([f + k for f in fragments], set(markers), n_max - k)
    for n in range(n_max - k + 1):
        assert overlap_measure(n, moved, ctx) == expected[n]


def _leveled(stage, floors, levels):
    """The LeveledSet of ``floors`` with the given level bits."""
    return LeveledSet(*(
        FloorSet.of(stage, [f for f, z in zip(floors, levels) if z == want]) for want in (0, 1)
    ))


@settings(SETTINGS, max_examples=90)
@given(schedule=_schedules(st.integers(4, 6)), data=st.data())
def test_lifts_match_reference(schedule, data):
    """``straight_orbit``, ``flip_orbit``, ``overlap_measure`` and ``level_swap``
    on a set whose two levels hold floors of two different stages, both
    refined to the context stage, against stepping one floor at a time, on
    both presets and on random schedules."""
    table, cut, spacer = schedule
    j_max, marker_stages = table.j_max, table.params.marker_stages
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


def _parity0_counts(base, markers, steps):
    """For each of ``steps``, the base floors ``f`` with an even number of
    markers in ``[f, f + n)``, counted one step at a time in blocks of 256."""
    base, markers = np.asarray(base), np.asarray(markers)
    below = np.searchsorted(markers, base)
    counts = [np.zeros(0, dtype=np.int64)]
    for k in range(0, len(steps), 256):
        n = np.asarray(steps[k : k + 256])[:, None]
        crossed = np.searchsorted(markers, base + n) - below
        counts.append(np.count_nonzero(crossed % 2 == 0, axis=1))
    return np.concatenate(counts).tolist()


@settings(SETTINGS, max_examples=60)
@given(
    table=ref.random_tables(st.integers(4, 7), st.sets(st.sampled_from([2, 4]), min_size=1))
)
def test_window_reports_match_a_brute_force_count_on_random_tables(table):
    """Every window of at most ``_GRID_POINTS`` steps that ``verify_windows``
    reports on a random schedule, against the parity-0 count of the
    reference's base floors and markers at the report's stage, step by step
    (:func:`_parity0_counts`); a window whose context stage is not
    materialised is skipped.  Where a disjointness window's only survivor is
    ``(q, 0)``, its violations are exactly the leak ``(q*h_q - M_q, q*h_q)``
    inside it, ``M_q`` the top base floor at stage ``q``."""
    offsets = {j: list(table.column_offsets(j)) for j in range(1, table.j_max)}
    h = dict(enumerate(table.heights, 1))
    marker_stages = table.params.effective_marker_stages()
    for q in marker_stages:
        try:
            report = verify_windows(table, q // 2)
        except StageOverflow:
            continue
        base, markers = ref.floors_from_offsets(report.stage, marker_stages, offsets, h)
        for check, want in zip(report.checks, (0, len(base))):
            steps = range(check.lo + 1, check.hi)
            if len(steps) > ext._GRID_POINTS:
                continue
            count = dict(zip(steps, _parity0_counts(base, markers, steps)))
            bad = [n for n in steps if count[n] != want]
            assert (check.mode, check.checked_count) == ("exhaustive", len(steps))
            assert list(check.violations) == bad
            assert [Fraction(v) for v in check.violation_values] == [
                Fraction(count[n], len(base)) for n in bad
            ]
            terms = ext._survivors(table, report.stage, check.lo, check.hi, "")
            if check.kind == "disjoint" and [t[:2] for t in terms] == [(q, 0)]:
                m_q = ref.floors_from_offsets(q, [], offsets, h)[0][-1]
                assert bad == list(range(max(check.lo, q * h[q] - m_q) + 1, check.hi))


@settings(SETTINGS, max_examples=60)
@given(table=ref.random_tables(), data=st.data())
def test_refine_matches_the_reference_expansion_on_random_tables(table, data):
    """``refine``, one call to the floor-sum kernel, against the reference's
    product expansion of the offsets that the schedule's spacer counts give,
    between two drawn stages of a random schedule."""
    lo = data.draw(st.integers(1, table.j_max), label="lo")
    hi = data.draw(st.integers(lo, table.j_max), label="hi")
    floors = data.draw(st.sets(st.integers(0, table.height(lo) - 1), max_size=8), label="floors")
    h = dict(enumerate(table.heights, 1))

    def cut(j):
        return len(table.spacer_counts(j))

    def spacer(j, i, h_j):
        return table.spacer_counts(j)[i - 1]

    fs = FloorSet.of(lo, floors)
    assert list(refine(table, fs, hi).indices) == ref.expand(fs.indices, lo, hi, cut, spacer, h)


def _check_chunked_flips(table, offsets, h, marker_stages, stage, n, chunk):
    """``event_sweep`` of the base set at ``stage`` against its flips counted
    one fragment and one marker at a time on the reference's floors from
    ``offsets``, with the chunk rule of ``_FRAGMENT_CHUNK``; returns the
    reference's edges and counts."""
    base, markers = ref.floors_from_offsets(stage, sorted(marker_stages), offsets, h)
    with patch.object(ext, "_FRAGMENT_CHUNK", chunk):
        profile = event_sweep(base_leveled_set(table, stage), cocycle_context(table, stage), n)
    edges, counts = ref.chunked_flip_profile(base, markers, n, chunk)
    assert profile.edges.tolist() == edges
    assert profile.counts.tolist() == counts
    return edges, counts


@settings(SETTINGS, max_examples=60)
@given(
    preset=st.sampled_from(["basic", "staircase-mixing"]),
    marker_stages=st.sets(st.sampled_from([2, 4, 6])),
    j_max=st.integers(3, 7),
    chunk=st.sampled_from([1, 2, 3, 64, 2048]),
    data=st.data(),
)
def test_event_sweep_matches_flips_counted_chunk_by_chunk(
    preset, marker_stages, j_max, chunk, data
):
    """The profile of the base set at a drawn stage against the reference's
    flips (:func:`_check_chunked_flips`), on the built table or on one with a
    marker-stage column moved by fewer than ``h_q`` floors either way, as in
    ``test_window_events_match_event_sweep_on_a_moved_column``."""
    table = build_stage_table(ConstructionParams(preset, j_max, frozenset(marker_stages)))
    cut, spacer = _reference_schedule(preset, marker_stages)
    h = ref.heights(j_max, cut, spacer)
    offsets = {j: ref.offsets(j, cut, spacer, h) for j in range(1, j_max)}
    movable = [q for q in sorted(marker_stages) if q < j_max]
    if movable and data.draw(st.booleans(), label="move"):
        q = data.draw(st.sampled_from(movable), label="q")
        column = data.draw(st.integers(1, cut(q) - 1), label="column")
        by = data.draw(
            st.integers(1 - h[q], h[q] - 1) | st.sampled_from([1 - h[q], h[q] - 1]), label="by"
        )
        offsets[q][column] += by
        table = dataclasses.replace(table, offsets=tuple(tuple(offsets[j]) for j in offsets))
    stage = data.draw(st.integers(2, j_max), label="stage")
    base, markers = ref.floors_from_offsets(stage, sorted(marker_stages), offsets, h)
    room = min(h[stage] - 1 - base[-1], 30_000)
    # a step count whose last step holds a flip of the top or bottom floor
    last_flips = sorted(
        {e - f + 1 for e in markers for f in (base[0], base[-1])} & set(range(1, room + 1))
    )
    n = data.draw(st.integers(1, room) | st.sampled_from(last_flips or [room]), label="n")
    _check_chunked_flips(table, offsets, h, marker_stages, stage, n, chunk)


@settings(SETTINGS, max_examples=60)
@given(table=ref.random_tables(), chunk=st.sampled_from([1, 2, 3, 5, 64]), data=st.data())
def test_event_sweep_matches_flips_counted_chunk_by_chunk_on_random_tables(table, chunk, data):
    """The profile against the reference's flips (:func:`_check_chunked_flips`)
    on random schedules, whose stages cut into 2 to 4 columns: whether a
    block holds all of a marker stage's base floors follows every stage's
    radix, and chunks of 1, 2, 3, 5 and 64 fragments cut blocks at their
    edges."""
    offsets = {j: list(table.column_offsets(j)) for j in range(1, table.j_max)}
    h = {j: table.height(j) for j in range(1, table.j_max + 1)}
    marker_stages = table.params.effective_marker_stages()
    stage = data.draw(st.integers(2, table.j_max), label="stage")
    base, markers = ref.floors_from_offsets(stage, sorted(marker_stages), offsets, h)
    room = min(h[stage] - 1 - base[-1], 30_000)
    if room < 1:
        reject()
    last_flips = sorted(
        {e - f + 1 for e in markers for f in (base[0], base[-1])} & set(range(1, room + 1))
    )
    n = data.draw(st.integers(1, room) | st.sampled_from(last_flips or [room]), label="n")
    _check_chunked_flips(table, offsets, h, marker_stages, stage, n, chunk)


@settings(SETTINGS, max_examples=50)
@given(
    table=ref.random_tables(),
    model=st.sampled_from(
        [SuspensionModel("poisson", 1), SuspensionModel("poisson", 3), SuspensionModel("gaussian")]
    ),
    data=st.data(),
)
def test_series_within_one_ulp_of_the_exact_mean_on_random_tables(table, model, data):
    """On random schedules, every ``a_n`` lies within 1 ulp of the correctly
    rounded exact mean of its float integrands (see
    :func:`_reference.exact_running_means`), at every step up to 300 and on
    the geometric grid past it."""
    stage = data.draw(st.integers(2, table.j_max), label="stage")
    a = base_leveled_set(table, stage)
    room = table.height(stage) - 1 - int(a.level0.floors[-1])
    if room < 1:
        reject()
    n_max = data.draw(st.integers(1, min(room, 1 << 22)), label="n_max")
    profile = event_sweep(a, cocycle_context(table, stage), n_max)
    checkpoints = [*range(1, min(n_max, 300) + 1), *default_checkpoints(n_max, 1.05).tolist()]
    series = average_series(model, profile, checkpoints)
    means = ref.exact_running_means(
        profile, lambda x: pair_integrand(model, x), series.n.tolist()
    )
    for a_n, exact in zip(series.a_n.tolist(), means):
        mean = float(exact)
        assert abs(a_n - mean) <= math.ulp(mean)


def test_event_sweep_drops_the_times_whose_nets_cancel_within_a_chunk():
    """On the staircase preset at stage 7, whose 1,440 base floors make one
    chunk, some flip times have net zero within the chunk, so they are no
    edges, while chunks of one fragment keep every flip time."""
    marker_stages = {2}
    table = build_stage_table(ConstructionParams("staircase-mixing", 7, frozenset(marker_stages)))
    cut, spacer = _reference_schedule("staircase-mixing", marker_stages)
    h = ref.heights(7, cut, spacer)
    offsets = {j: ref.offsets(j, cut, spacer, h) for j in range(1, 7)}
    whole = _check_chunked_flips(table, offsets, h, marker_stages, 7, 300_000, 2048)
    single = _check_chunked_flips(table, offsets, h, marker_stages, 7, 300_000, 1)
    assert set(whole[0]) < set(single[0])


def _aimed_move(table, rng):
    """``table`` with one column of a marker stage ``q`` moved to any offset
    where its markers still fit below ``h_{q+1}``, and ``q``: mostly to
    another column's offset plus ``f - g``, ``f`` a floor of stage ``q`` that
    carries a marker or a marker of ``q`` and ``g`` one of either kind, so
    that marker floors meet, within one marker stage or across two, or
    columns coincide."""
    qs = table.params.effective_marker_stages()
    if not qs:
        return table, 0
    q = rng.choice(qs)
    h = dict(enumerate(table.heights, 1))
    offsets = {j: list(o) for j, o in enumerate(table.offsets, 1)}
    column, other = rng.sample(range(len(offsets[q])), 2)
    own = [h[q], q * h[q]]
    floors = ref.floors_from_offsets(q, qs, offsets, h)[1] + own
    room = h[q + 1] - 1 - q * h[q]
    moved = rng.randint(0, room)
    for _ in range(10 * (rng.random() < 0.8)):
        aimed = offsets[q][other] + rng.choice(floors) - rng.choice(rng.choice([own, floors]))
        if 0 <= aimed <= room:
            moved = aimed
            break
    offsets[q][column] = moved
    return dataclasses.replace(table, offsets=tuple(tuple(o) for o in offsets.values())), q


def _conjugacy_against_reference(table, rng):
    """``verify_conjugacy`` on ``table`` with an aimed move (:func:`_aimed_move`)
    at a drawn stage, mostly one above the moved column's, and half the time
    a zone edge of one marker stage shifted, against the materialised
    reference under the same mutation.  Returns which kinds of shared marker
    floors the case held, from the reference's refined markers: within one
    marker stage, across two."""
    table, q = _aimed_move(table, rng)
    stage = rng.randint(q + 1 if rng.random() < 0.75 else 1, table.j_max)
    qs = [q for q in table.params.effective_marker_stages() if q < stage]
    real = ext._local_zones
    broken, zones = real, {}
    if qs and rng.random() < 0.5:
        q0, edge, by = rng.choice(qs), rng.randrange(2), rng.choice([-2, -1, 1, 2])
        column = rng.randrange(table.cut_count(q0))

        def broken(tbl, q):
            zones = real(tbl, q)
            if q == q0:
                zones[edge][column] += by
            return zones

        zones = {q0: broken(table, q0)}
    with patch.object(ext, "_local_zones", broken):
        report = verify_conjugacy(table, stage)
    assert report.mismatched_floors == ref.conjugacy_mismatches(table, stage, zones)
    assert report.floors_checked == table.height(stage) - 1
    # the kernel lifts the markers past a moved column, where refine refuses
    # the repeated floors
    counts = [
        collections.Counter(
            tower._offset_sums(table, marker_floorset(table, q // 2).floors, q + 1, stage).tolist()
        )
        for q in qs
    ]
    within = any(c > 1 for count in counts for c in count.values())
    across = any(a.keys() & b.keys() for i, a in enumerate(counts) for b in counts[i + 1 :])
    return within, across


@settings(SETTINGS, max_examples=200)
@given(table=ref.random_tables(), rng=st.randoms(use_true_random=False))
def test_conjugacy_certificate_matches_the_reference_on_random_tables(table, rng):
    """The certificate names the mismatches of the materialised reference on
    random schedules with a marker-stage column moved, overlapping or
    meeting its neighbours (:func:`_conjugacy_against_reference`)."""
    _conjugacy_against_reference(table, rng)


def test_conjugacy_cases_share_marker_floors_within_and_across_stages():
    """The random cases of the property test include marker floors shared
    within one marker stage (the within-label term) and across two: 400
    seeded cases, each kind met at least five times."""
    kinds = collections.Counter()
    for seed in range(400):
        rng = random.Random(seed)
        table = ref.random_table(rng, rng.randint(3, 6), rng.sample([2, 4], rng.randint(1, 2)))
        within, across = _conjugacy_against_reference(table, rng)
        kinds.update({"within": within, "across": across})
    assert kinds["within"] >= 5 and kinds["across"] >= 5, kinds
