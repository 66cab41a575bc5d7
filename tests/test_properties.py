"""Property tests: the numpy engines against the single-step reference on
random small constructions of both presets."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from ergolab import (
    ConstructionParams,
    StageOverflow,
    base_leveled_set,
    build_stage_table,
    claim_windows,
    context_for,
    event_sweep,
    flip_orbit,
    overlap_measure,
    verify_conjugacy,
    verify_windows,
)
from ergolab.extension import sample_grid

import _reference as ref

SETTINGS = settings(deadline=None, derandomize=True, database=None)


def _reference_schedule(preset, marker_stages):
    """(cut, spacer) of the construction, written out independently."""

    def spacer(j, i, h_j):
        stair = preset == "staircase-mixing" and j not in marker_stages
        return j * h_j + (i if stair else 0)

    return ref.basic_cut, spacer


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
    # an orbit set on both levels, some of its fragments on marker floors
    k = n_max // 2
    moved = flip_orbit(base, k, ctx)
    expected = ref.overlaps([f + k for f in fragments], set(markers), n_max - k)
    for n in range(n_max - k + 1):
        assert overlap_measure(n, moved, ctx) == expected[n]


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

    for report, steps in (
        (verify_windows(table, 1), lambda lo, hi: range(lo + 1, hi)),
        (
            verify_windows(table, 1, mode="sampled", grid_points=7),
            lambda lo, hi: sample_grid(lo, hi, 7),
        ),
    ):
        for check, (lo, hi, want) in zip(report.checks, windows):
            assert (check.lo, check.hi) == (lo, hi)
            bad = [n for n in steps(lo, hi) if overlap[n] != want]
            assert list(check.violations) == bad
            assert [Fraction(v) for v in check.violation_values] == [
                overlap[n] for n in bad
            ]


@settings(SETTINGS, max_examples=40)
@given(
    preset=st.sampled_from(["basic", "staircase-mixing"]),
    marker_stages=st.sets(st.sampled_from([2, 4])),
    j_max=st.integers(5, 7),
    grid_points=st.integers(1, 60),
)
def test_window_kernel_matches_event_sweep(preset, marker_stages, j_max, grid_points):
    """Both window modes against the flip-event profile at every step count."""
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
        count = np.repeat(profile.counts, np.diff(profile.edges + (n_max,))).tolist()
        exhaustive = verify_windows(table, j)
        sampled = verify_windows(table, j, mode="sampled", grid_points=grid_points)
        for full, part, (lo, hi), want in zip(
            exhaustive.checks, sampled.checks, windows, (0, profile.total)
        ):
            assert (full.lo, full.hi) == (lo, hi)
            bad = [n for n in range(lo + 1, hi) if count[n - 1] != want]
            assert list(full.violations) == bad
            assert [Fraction(v) for v in full.violation_values] == [
                count[n - 1] * profile.width for n in bad
            ]
            grid = set(sample_grid(lo, hi, grid_points))
            assert part.checked_count == len(grid)
            assert [
                (n, v) for n, v in zip(full.violations, full.violation_values) if n in grid
            ] == list(zip(part.violations, part.violation_values))
