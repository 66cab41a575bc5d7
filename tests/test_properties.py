"""Property tests: the numpy engines against the single-step reference on
random small constructions of both presets."""

from fractions import Fraction

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from ergolab import (
    ConstructionParams,
    StageOverflow,
    base_leveled_set,
    build_stage_table,
    context_for,
    event_sweep,
    verify_windows,
)

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

    profile = event_sweep(base_leveled_set(table, ctx.stage), ctx, n_max)
    fragments = ref.base_indices(ctx.stage, cut, spacer, h)
    expected = ref.overlaps(fragments, set(markers), n_max)
    for n in range(1, n_max + 1):
        assert profile.overlap_at(n) == expected[n]


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

    report = verify_windows(table, 1)
    for check, (lo, hi, want) in zip(report.checks, windows):
        assert (check.lo, check.hi) == (lo, hi)
        bad = [n for n in range(lo + 1, hi) if overlap[n] != want]
        assert list(check.violations) == bad
        assert [Fraction(v) for v in check.violation_values] == [overlap[n] for n in bad]
