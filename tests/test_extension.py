"""Two-level lifts, overlaps, window checks, and conjugacy."""

import collections
import dataclasses
import math
import random
import time
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest

from ergolab import (
    BudgetExceeded,
    ConstructionParams,
    FloorSet,
    InvalidConstruction,
    LeveledSet,
    SegmentEscapesTower,
    StageOverflow,
    base_floorset,
    base_leveled_set,
    build_stage_table,
    claim_windows,
    cocycle_context,
    context_for,
    event_sweep,
    flip_orbit,
    level_swap,
    marker_floorset,
    overlap_measure,
    straight_orbit,
    verify_conjugacy,
    verify_windows,
)
import ergolab.extension as ext
import ergolab.tower as tower
from ergolab.extension import _sample_grid

import _reference as ref


@pytest.fixture(scope="module")
def table():
    return build_stage_table(ConstructionParams(j_max=9))


@pytest.fixture(scope="module")
def ctx5(table):
    return cocycle_context(table, 5)


def test_context_merges_markers_of_materialized_stages(table, ctx5):
    # stage-2 markers refined to 5, plus stage-4 markers
    assert len(ctx5.e_indices) == 4 * 3 * 4 + 8
    assert ctx5.e_indices == tuple(ref.marker_indices(5, [2, 4]))


def test_context_for_picks_minimal_stage(table):
    assert context_for(table, 48).stage == 4
    assert context_for(table, 5000).stage == 6
    assert context_for(table, 6 * table.height(7)).stage == 8


def test_cocycle_context_guards_the_int64_range():
    t = build_stage_table(ConstructionParams(j_max=14))
    assert t.height(14) > 10**21
    with pytest.raises(BudgetExceeded, match=str(t.height(14))):
        cocycle_context(t, 14)
    # stage 13 lies between 2**62 and 2**63 and passes the int64 guard; the
    # floor budget stops it before its billion-floor context is allocated
    assert 2**62 < t.height(13) == 5_965_505_852_866_560_000 < 2**63
    with pytest.raises(
        BudgetExceeded,
        match="stage 13 holds 1125846504 marker floors and 958003200 base floors,"
        " over the budget of 16777216 floors",
    ):
        cocycle_context(t, 13)


def _point(stage, f):
    return LeveledSet(FloorSet(stage, (f,)), FloorSet(stage, ()))


def test_cocycle_parity_examples(table):
    """The level of a point after ``n`` flip steps is the parity of the
    markers it met."""
    ctx3 = cocycle_context(table, 3)
    assert ctx3.e_indices == (4, 8, 16, 20)
    assert flip_orbit(_point(3, 0), 0, ctx3) == _point(3, 0)
    assert flip_orbit(_point(3, 0), 5, ctx3) == LeveledSet(FloorSet(3, ()), FloorSet(3, (5,)))
    assert flip_orbit(_point(3, 0), 9, ctx3) == _point(3, 9)


def test_cocycle_parity_segment_escape(table):
    ctx3 = cocycle_context(table, 3)
    with pytest.raises(SegmentEscapesTower):
        flip_orbit(_point(3, 0), table.height(3), ctx3)
    assert flip_orbit(_point(3, 0), table.height(3) - 1, ctx3).level0.indices == (23,)
    with pytest.raises(ValueError, match=">= 0"):
        flip_orbit(_point(3, 5), -1, ctx3)


def test_cocycle_parity_xor_composition(ctx5, table):
    """``m`` flip steps then ``n`` are ``m + n`` steps, on sets on both levels."""
    rng = random.Random(5)
    h = table.height(5)
    for _ in range(200):
        f0, f1 = rng.sample(range(h // 2), 2)
        a = LeveledSet(FloorSet(5, (f0,)), FloorSet(5, (f1,)))
        m = rng.randrange(0, h // 4)
        n = rng.randrange(0, h - max(f0, f1) - m)
        assert flip_orbit(flip_orbit(a, m, ctx5), n, ctx5) == flip_orbit(a, m + n, ctx5)


def test_flip_orbit_matches_single_step_simulation(table, ctx5):
    """Dual route: binary-search parities vs stepping one floor at a time."""
    a = base_leveled_set(table, 5)
    frags = a.level0.indices
    marker_set = set(ctx5.e_indices)
    levels = ref.step_levels(frags, marker_set, 100)
    for n in range(101):
        lifted = flip_orbit(a, n, ctx5)
        expect0 = tuple(f + n for f, z in zip(frags, levels[n]) if z == 0)
        expect1 = tuple(f + n for f, z in zip(frags, levels[n]) if z == 1)
        assert lifted.level0.indices == expect0
        assert lifted.level1.indices == expect1


def test_orbits_project_identically_and_keep_measure(table, ctx5):
    a = base_leveled_set(table, 5)
    for n in (0, 1, 7, 50, 500):
        fl = flip_orbit(a, n, ctx5)
        st = straight_orbit(a, n, ctx5)
        assert sorted(fl.level0.indices + fl.level1.indices) == sorted(
            st.level0.indices + st.level1.indices
        )
        for lifted in (fl, st):
            levels = (lifted.level0, lifted.level1)
            assert sum(len(fs) * table.width(fs.stage) for fs in levels) == 1
    assert flip_orbit(a, 0, ctx5) == a
    assert straight_orbit(a, 0, ctx5) == a


def test_overlap_values_match_reference_simulation(table, ctx5):
    a = base_leveled_set(table, 5)
    expected = ref.overlaps(a.level0.indices, set(ctx5.e_indices), 300)
    for n in range(301):
        assert overlap_measure(n, a, ctx5) == expected[n]


def test_overlap_examples(table):
    ctx = cocycle_context(table, 6)
    a = base_leveled_set(table, 6)
    assert overlap_measure(0, a, ctx) == 1
    assert overlap_measure(5, a, ctx) == 0
    assert overlap_measure(7, a, ctx) == Fraction(1, 2)
    # disjointness claim for j=2 holds up to 1152 - 206 = 946 and then leaks
    assert overlap_measure(946, a, ctx) == 0
    assert overlap_measure(947, a, ctx) == Fraction(1, 12)
    assert overlap_measure(1151, a, ctx) == Fraction(11, 12)
    # coincidence window for j=2 is exact
    for n in (5761, 12345, 23039):
        assert overlap_measure(n, a, ctx) == 1
    # the top fragment may end on the stage's last floor, not beyond it
    top = a.level0.indices[-1]
    assert 0 <= overlap_measure(ctx.height() - 1 - top, a, ctx) <= 1
    with pytest.raises(SegmentEscapesTower):
        overlap_measure(ctx.height() - top, a, ctx)
    with pytest.raises(ValueError, match=">= 0"):
        overlap_measure(-1, a, ctx)


def test_overlap_denominator_divides_cut_product(table, ctx5):
    a = base_leveled_set(table, 5)
    prod = 1
    for j in range(1, 5):
        prod *= table.cut_count(j)
    rng = random.Random(17)
    for _ in range(50):
        ov = overlap_measure(rng.randrange(0, 1000), a, ctx5)
        assert 0 <= ov <= 1
        assert prod % ov.denominator == 0


def test_overlap_requires_level_disjoint_floors(table, ctx5):
    fs = base_floorset(table, 5)
    with pytest.raises(ValueError, match="level-disjoint"):
        overlap_measure(1, LeveledSet(fs, fs), ctx5)


def test_swap_zone_sits_strictly_between_markers(table):
    # stage-2 zones at in-column offsets [h_2+1, 2*h_2] = [5..8] of each column
    ctx3 = cocycle_context(table, 3)
    assert ctx3.zone_edges.tolist() == [4, 8, 16, 20]
    zone3 = [p for p in range(table.height(3)) if ctx3.in_zone(p)]
    assert zone3 == [5, 6, 7, 8, 17, 18, 19, 20]


def test_level_swap_is_an_involution(table, ctx5):
    a = base_leveled_set(table, 5)
    for n in (0, 3, 29, 444):
        ls = flip_orbit(a, n, ctx5)
        assert level_swap(table, level_swap(table, ls)) == ls


def test_claim_windows_values(table):
    assert claim_windows(table, 1) == ((4, 8), (24, 48))
    assert claim_windows(table, 2) == ((288, 1152), (5760, 23040))
    assert claim_windows(table, 3) == ((172800, 1036800), (7257600, 43545600))
    only4 = build_stage_table(ConstructionParams(j_max=9, marker_stages=frozenset({4})))
    with pytest.raises(InvalidConstruction, match="^stage 2 carries no markers; no windows"):
        claim_windows(only4, 1)
    with pytest.raises(StageOverflow, match="^windows for j=5 need stage 11 materialized$"):
        claim_windows(table, 5)


def test_verify_windows_j1_diagnostic(table):
    report = verify_windows(table, 1)
    assert not report.asserted
    disjoint, coincide = report.checks
    assert disjoint.violations == (7,)
    assert disjoint.violation_values == ("1/2",)
    assert coincide.passed and coincide.checked_count == 23


def test_verify_windows_j2_exhaustive(table):
    """Exact outcome: the coincidence window holds everywhere, the
    disjointness window holds only up to 2j*h_{2j} minus the top base
    fragment offset (946), then overlap climbs to 11/12."""
    report = verify_windows(table, 2)
    assert report.asserted
    disjoint, coincide = report.checks
    assert coincide.passed
    assert coincide.checked_count == 23040 - 5760 - 1
    assert disjoint.checked_count == 1152 - 288 - 1
    assert disjoint.violations == tuple(range(947, 1152))
    assert disjoint.violation_values[0] == "1/12"
    assert disjoint.violation_values[-1] == "11/12"


def test_verify_windows_lists_up_to_grid_points_violations(table, monkeypatch):
    """The j=2 disjointness window violates on its 205 steps 947..1151: with
    room for 205 they are all listed, with room for 204 only those on the
    204-point grid.  The clean coincidence window lists all its steps."""
    full = verify_windows(table, 2).checks
    monkeypatch.setattr(ext, "_GRID_POINTS", 205)
    disjoint, coincide = verify_windows(table, 2).checks
    assert disjoint.mode == coincide.mode == "exhaustive"
    assert disjoint.violations == tuple(range(947, 1152))
    assert (disjoint, coincide) == full

    monkeypatch.setattr(ext, "_GRID_POINTS", 204)
    disjoint, coincide = verify_windows(table, 2).checks
    assert disjoint.mode == "sampled" and coincide.mode == "exhaustive"
    grid = _sample_grid(288, 1152, 204)
    assert disjoint.checked_count == len(grid)
    assert disjoint.violations == tuple(i for i in grid if i >= 947)
    want = dict(zip(full[0].violations, full[0].violation_values))
    assert disjoint.violation_values == tuple(want[i] for i in disjoint.violations)
    assert coincide == full[1]


def test_verify_windows_sampled_grid_hits_endpoints():
    assert _sample_grid(4, 8, 10).tolist() == [5, 6, 7]  # tiny window: every interior point
    grid = _sample_grid(24, 48, 10).tolist()
    assert grid[:2] == [25, 26] and grid[-2:] == [46, 47]
    assert _sample_grid(4, 6, 10).tolist() == [5]
    # past 2**63 the grid holds Python ints, still exact
    lo = 2**64
    grid = _sample_grid(lo, lo + 10**6, 5)
    assert grid.dtype == object
    assert [i - lo for i in grid.tolist()] == [1, 2, 250_000, 500_000, 749_999, 999_998, 999_999]


def test_window_report_json_schema(table):
    obj = verify_windows(table, 1).to_json_obj()
    assert [rec["kind"] for rec in obj] == ["disjoint", "coincide"]
    rec = obj[0]
    assert rec["j"] == 1 and rec["window"] == ["4", "8"]
    assert rec["violations"] == ["7"] and rec["checked_count"] == 3


def test_verify_conjugacy_small(table):
    for stage in range(1, 9):
        report = verify_conjugacy(table, stage)
        assert report.passed and report.mismatched_floors == ()
        assert report.floors_checked == table.height(stage) - 1
    assert verify_conjugacy(table, 8).to_json_obj() == {
        "stage": 8,
        "floors_checked": "406425599",
        "mismatch_count": 0,
        "mismatched_floors": [],
    }


def test_conjugacy_detects_a_broken_swap_zone(table, monkeypatch):
    """One stage-2 zone a floor short at its top, or starting a floor late,
    at stage 3 breaks the one-step identity at the two floors around the
    moved edge in each of the zone's 60 lifts to stage 6: the floors the
    materialised reference names under the same mutation."""
    real = ext._local_zones
    k = 1  # the second stage-2 column
    first, last = real(table, 2)
    lifts = tower._offset_sums(table, (0,), 3, 6).tolist()
    for edge, by, around in (
        (1, -1, (last[k] - 1, last[k])),  # one floor short at the top
        (0, 1, (first[k] - 1, first[k])),  # one floor late
    ):

        def broken(tbl, q, edge=edge, by=by):
            zones = real(tbl, q)
            if q == 2:
                zones[edge][k] += by
            return zones

        monkeypatch.setattr(ext, "_local_zones", broken)
        report = verify_conjugacy(table, 6)
        assert report.mismatched_floors == tuple(sorted(f + p for f in around for p in lifts))
        assert report.mismatched_floors == ref.conjugacy_mismatches(table, 6, {2: broken(table, 2)})
        assert report.to_json_obj()["mismatch_count"] == 120
    monkeypatch.setattr(ext, "_local_zones", real)
    assert verify_conjugacy(table, 6).passed


def test_conjugacy_counts_a_floor_two_marker_stages_share_once():
    """With the second stage-4 column moved to offset ``20 - h_4``, its first
    marker lands on the stage-2 marker at floor 20 of stage 5.  There
    ``marker(f) = 1`` while ``zone(f) XOR zone(f+1) = 0``, so the check fails
    at floor 20, and a scan of every floor step of stage 5 fails there alone."""
    table = build_stage_table(ConstructionParams(j_max=5))
    offsets = list(table.offsets)
    offsets[3] = (offsets[3][0], 20 - table.height(4), *offsets[3][2:])
    moved = dataclasses.replace(table, offsets=tuple(offsets))

    edges = np.sort(ext._zone_edges(moved, 5))
    floors = np.arange(moved.height(5))
    zone = np.searchsorted(edges, floors) % 2  # an odd number of edges lie below
    markers = set()
    for half in (1, 2):  # marker stages 2 and 4, lifted past the moved column
        at_q1 = marker_floorset(moved, half).floors
        markers.update(tower._offset_sums(moved, at_q1, 2 * half + 1, 5).tolist())
    f = floors[:-1]
    scan = f[(zone[f] != zone[f + 1]) != np.isin(f, sorted(markers))]
    assert scan.tolist() == [20]
    assert verify_conjugacy(moved, 5).mismatched_floors == (20,)


def test_conjugacy_on_a_column_stacked_on_its_neighbour():
    """Column 1 of stage 4 moved onto column 0: the 12 stage-2 marker floors
    of that column at stage 5 are each shared by two marker instances, and
    two edges meet on each of its markers, which count once.  Those 14
    floors are the reference's mismatches.  The certificate fails, so the
    check lifts every marker stage's 2*r_q zone edges and its distinct
    markers to stage 5: (4 + 4) * 12 for stage 2 and 8 + 6 for stage 4,
    110 floors, so a budget of 110 floors runs and one of 109 refuses."""
    table = build_stage_table(ConstructionParams(j_max=5))
    offsets = list(table.offsets)
    offsets[3] = (0, 0, *offsets[3][2:])
    stacked = dataclasses.replace(table, offsets=tuple(offsets))
    report = verify_conjugacy(stacked, 5)
    assert report.mismatched_floors == ref.conjugacy_mismatches(stacked, 5)
    h_4 = table.height(4)
    assert report.mismatched_floors[-2:] == (h_4, 4 * h_4)
    assert len(report.mismatched_floors) == 14
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ext, "_EVENT_BUDGET", 110)
        assert verify_conjugacy(stacked, 5) == report
        mp.setattr(ext, "_EVENT_BUDGET", 109)
        with pytest.raises(
            BudgetExceeded,
            match="^conjugacy at stage 5 is not certified: its zone edges and markers lift to"
            " 110 floors, over the budget of 109$",
        ):
            verify_conjugacy(stacked, 5)


@pytest.mark.parametrize("preset", ["basic", "staircase-mixing"])
def test_conjugacy_certificate_expands_nothing_on_built_tables(preset, monkeypatch):
    """On a built table no marker floor is shared and every stage's edges
    are its markers, so the certificate alone passes every stage below
    ``j_max`` 17 and 43, past int64, in under 0.2 s each, with the
    floor-sum kernel and the pruned search refused: it reads the column
    layout."""

    def refuse(*args):
        raise AssertionError("the certificate expanded floors or searched")

    monkeypatch.setattr(ext, "_offset_sums", refuse)
    monkeypatch.setattr(ext, "_pruned_sums", refuse)
    for j_max in (17, 43):
        table = build_stage_table(ConstructionParams(preset, j_max))
        for stage in range(1, j_max):
            t0 = time.perf_counter()
            report = verify_conjugacy(table, stage)
            assert time.perf_counter() - t0 < 0.2
            assert report.passed and report.floors_checked == table.height(stage) - 1
    assert table.height(16) >= 2**63


@pytest.mark.parametrize(
    "case",
    ["overlapping columns", "column past the top", "marker inside a column", "two equal markers"],
)
def test_conjugacy_falls_back_when_the_layout_breaks(case, monkeypatch):
    """One column moved in ``j_max=6`` (``h_2 = 4``, ``h_4 = 288``; the
    stage-2 markers lie on floors 4, 8, 16 and 20 of stage 3) breaks one
    condition of the certificate at stage 6: stage-3 columns that overlap,
    a stage-3 column that ends past ``h_4``, a stage-4 marker inside a
    stage-4 column, or two stage-4 markers on one floor (one marker there
    against two zone edges, so the edges and markers disagree mod 2).  Each
    move puts two marker instances on one floor, so the identity fails
    there; the check falls back to lifting the floors and names the
    reference's mismatches."""
    table = build_stage_table(ConstructionParams(j_max=6))
    h = table.height(4)
    j, column, offset = {
        # column 1 from floor 4, so its stage-2 marker 4 lands on marker 8
        "overlapping columns": (3, 1, 4),
        # the top stage-2 marker of the last column on floor h_4
        "column past the top": (3, 2, h - 20),
        # column 1 under column 0's marker 4*h_4, on the stage-2 marker 4
        "marker inside a column": (4, 1, 4 * h - 4),
        # column 1's first marker on column 0's second
        "two equal markers": (4, 1, 3 * h),
    }[case]
    offsets = [list(o) for o in table.offsets]
    offsets[j - 1][column] = offset
    moved = dataclasses.replace(table, offsets=tuple(map(tuple, offsets)))
    lifted = []

    def lift(*args):
        lifted.append(args)
        return tower._offset_sums(*args)

    monkeypatch.setattr(ext, "_offset_sums", lift)
    assert verify_conjugacy(table, 6).passed and not lifted
    report = verify_conjugacy(moved, 6)
    assert lifted and report.mismatched_floors
    assert report.mismatched_floors == ref.conjugacy_mismatches(moved, 6)


def test_a_window_without_survivors_is_decided_by_its_kind(table, monkeypatch):
    """No survivor means no fragment ever enters a zone: the j=1
    disjointness window (4, 8) then violates on every step at overlap 1,
    and its coincidence window on none."""
    monkeypatch.setattr(ext, "_survivors", lambda *args: [])
    disjoint, coincide = verify_windows(table, 1).checks
    assert (disjoint.lo, disjoint.hi) == (4, 8)
    assert disjoint.violations == (5, 6, 7)
    assert disjoint.violation_values == ("1/1",) * 3
    assert coincide.passed and coincide.checked_count == 23


def _leak(q: int, d_hi: int):
    """Overlap of the unit base after ``i`` steps of the stage-``q`` disjointness
    window ``(h_q, d_hi)``: the mass of base fragments at floors ``u`` with
    ``u + i > d_hi``, from the reference base floors at stage ``q``."""
    base = ref.base_indices(q)
    return lambda i: Fraction(len(base) - bisect_right(base, d_hi - i), len(base))


def _leak_violations(steps, overlap):
    """``(step, overlap)`` at each of ``steps`` where the leak overlap is not 0."""
    return [(i, overlap(i)) for i in steps if overlap(i)]


def _reported(check):
    return list(zip(check.violations, map(Fraction, check.violation_values)))


def test_verify_windows_j3_exhaustive(table, monkeypatch):
    """Every step of both j=3 windows, 36M in the coincidence window alone,
    checked from plateaus: the disjointness window leaks on exactly the
    142,765 steps of ``(894034, 1036800)``, all listed with room for them."""
    monkeypatch.setattr(ext, "_GRID_POINTS", 142_765)
    t0 = time.perf_counter()
    report = verify_windows(table, 3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, f"j=3 exhaustive took {elapsed:.2f}s"
    disjoint, coincide = report.checks
    assert disjoint.mode == coincide.mode == "exhaustive"
    assert disjoint.checked_count == 1036800 - 172800 - 1
    assert coincide.checked_count == 43545600 - 7257600 - 1 == 36287999
    assert coincide.passed

    overlap = _leak(6, disjoint.hi)
    assert disjoint.violations == tuple(range(894035, 1036800))
    assert len(disjoint.violations) == 142765
    assert _reported(disjoint) == _leak_violations(disjoint.violations, overlap)
    assert overlap(894034) == 0

    # at the default 10,000 the leak is listed on the grid, the clean window in full
    monkeypatch.undo()
    part, coincide_default = verify_windows(table, 3).checks
    assert part.mode == "sampled" and coincide_default == coincide
    grid = set(_sample_grid(disjoint.lo, disjoint.hi, 10_000))
    assert part.checked_count == len(grid) == 10_002
    kept = [(i, v) for i, v in zip(disjoint.violations, disjoint.violation_values) if i in grid]
    assert list(zip(part.violations, part.violation_values)) == kept


def test_verify_windows_j4_sampled_leak():
    """At ``j_max=11`` the j=4 disjointness window leaks on exactly
    ``(q*h_q - M_q, q*h_q)`` = ``(2896849234, 3251404800)`` for ``q = 8``."""
    table = build_stage_table(ConstructionParams(j_max=11))
    report = verify_windows(table, 4)
    disjoint, coincide = report.checks
    assert report.stage == 10
    assert (disjoint.lo, disjoint.hi) == (table.height(8), 3251404800)
    assert disjoint.mode == "sampled" and disjoint.checked_count == 10_002
    assert coincide.passed and coincide.mode == "exhaustive"
    assert coincide.checked_count == coincide.hi - coincide.lo - 1

    overlap = _leak(8, disjoint.hi)
    assert overlap(2896849234) == 0 and overlap(2896849235) > 0
    grid = _sample_grid(disjoint.lo, disjoint.hi, 10_000)
    assert _reported(disjoint) == _leak_violations(grid, overlap)
    assert len(disjoint.violations) == 1248
    assert all(2896849234 < i < 3251404800 for i in disjoint.violations)


def _floors_above(table, q, x):
    """``#{b in B_q : b > x}`` for the base floors ``B_q`` at stage ``q``, in
    Python ints: per stage from ``q-1`` down, the columns wholly above ``x``
    count in full and only the column holding ``x`` is split further."""
    above = 0
    for j in range(q - 1, 0, -1):
        size = math.prod(table.cut_count(i) for i in range(1, j))
        offsets = table.column_offsets(j)
        k = bisect_right(offsets, x) - 1
        above += (len(offsets) - 1 - k) * size
        if k < 0:
            return above
        x -= offsets[k]
    return above + (x < 0)


@pytest.mark.parametrize("preset", ["basic", "staircase-mixing"])
def test_verify_windows_j5_to_j7_are_certified_past_the_context(preset):
    """At ``j_max=17`` the windows of j=5, 6 and 7 need context stages 12, 14
    and 16: past the context budget, and from j=6 past int64.  Each window is
    certified, the disjointness window leaks on exactly the grid steps of
    ``(q*h_q - M_q, q*h_q)`` with overlap ``#{b in B_q : b > q*h_q - i} / |B_q|``,
    and each report takes under 0.1 s."""
    table = build_stage_table(ConstructionParams(preset, 17))
    for j in (5, 6, 7):
        q = 2 * j
        t0 = time.perf_counter()
        report = verify_windows(table, j)
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.1, f"j={j} took {elapsed:.3f}s"
        assert report.stage == q + 2
        disjoint, coincide = report.checks
        assert ext._survivors(table, q + 2, coincide.lo, coincide.hi, "") == []
        assert coincide.passed and coincide.mode == "exhaustive"
        assert coincide.checked_count == coincide.hi - coincide.lo - 1
        [(p, d, _)] = ext._survivors(table, q + 2, disjoint.lo, disjoint.hi, "")
        assert (p, d) == (q, 0)

        top = q * table.height(q)
        m_q = sum(table.column_offsets(k)[-1] for k in range(1, q))
        grid = _sample_grid(disjoint.lo, disjoint.hi, 10_000).tolist()
        assert disjoint.hi == top and disjoint.mode == "sampled" and disjoint.checked_count == 10_002
        assert list(disjoint.violations) == [i for i in grid if i > top - m_q]
        size = math.prod(table.cut_count(i) for i in range(1, q))
        assert [Fraction(v) for v in disjoint.violation_values] == [
            Fraction(_floors_above(table, q, top - i), size) for i in disjoint.violations
        ]
    assert report.stage == 16 and table.height(16) >= 2**63


def test_windows_and_conjugacy_scan_to_j_12():
    """On ``j_max=27``, for every j up to 12: the disjointness window's only
    survivor is ``d = 0`` at ``q = 2j``, once for each of the ``|P_q|``
    column-offset sums, and every listed violation lies inside the leak
    ``(q*h_q - M_q, q*h_q)``; the coincidence window passes; and conjugacy
    passes at the top window's stage.  From j=10 on the base count at the
    window's stage, ``2*(2j+1)!``, passes ``2**63``."""
    table = build_stage_table(ConstructionParams(j_max=27))
    for j in range(1, 13):
        q = 2 * j
        report = verify_windows(table, j)
        disjoint, coincide = report.checks
        p_q = math.prod(table.cut_count(i) for i in range(q, report.stage))
        survivors = ext._survivors(table, report.stage, disjoint.lo, disjoint.hi, "")
        assert survivors == [(q, 0, p_q)]
        top, m_q = q * table.height(q), tower._top_base_floor(table, q)
        assert disjoint.violations and all(top - m_q < i < top for i in disjoint.violations)
        assert coincide.passed
    assert math.prod(map(table.cut_count, range(1, report.stage))) >= 2**63
    assert verify_conjugacy(table, report.stage).passed


def test_verify_windows_reads_only_the_table(table, monkeypatch):
    """The window check builds no context, no base floors and no series
    profile: with each of them refused, the j=3 report is unchanged."""
    want = verify_windows(table, 3)

    def refuse(*args):
        raise AssertionError("verify_windows left the stage table")

    for name in ("cocycle_context", "context_for", "base_leveled_set", "refine", "_chunk_plateaus"):
        monkeypatch.setattr(ext, name, refuse)
    assert verify_windows(table, 3) == want


def test_blocks_tile_a_range_with_aligned_products():
    """Every range of base indices splits into consecutive blocks, at most two
    per stage, each ``count`` values of one digit from an aligned start with
    every lower digit free: the indices whose higher digits are ``start``'s."""
    radix = [2, 2, 3, 4, 5, 6]
    size = {1: 1}
    for j, r in enumerate(radix, 1):
        size[j + 1] = size[j] * r
    rng = random.Random(11)
    for _ in range(300):
        c0 = rng.randrange(size[7])
        c1 = rng.randrange(c0 + 1, size[7] + 1)
        blocks = list(ext._blocks(size, c0, c1))
        at = c0
        for start, level, count in blocks:
            assert start == at and start % size[level] == 0
            assert 1 <= count <= radix[level - 1] - start // size[level] % radix[level - 1]
            at += count * size[level]
        assert at == c1
        levels = [level for _, level, _ in blocks]
        assert all(levels.count(j) <= 2 for j in set(levels))


def test_merge_events_sums_weights_of_python_ints_past_int64():
    """One merge serves the int64 flips of ``series`` and the Python-int
    window events of ``verify`` past int64."""
    big = 2**70
    times = np.array([big + 3, 5, big, big + 3, 5, -big], dtype=object)
    weights = np.array([1, 2, 3, 4, -2, 6], dtype=np.int64)
    t, w = ext._merge_events(times, weights)
    assert t.tolist() == [-big, 5, big, big + 3] and w.tolist() == [6, 0, 3, 5]
    t, w = ext._merge_events(np.array([7, 1, 7], dtype=np.int64), np.array([1, 1, 1]))
    assert t.tolist() == [1, 7] and w.tolist() == [1, 2]
    empty = np.zeros(0, dtype=np.int64)
    assert [a.tolist() for a in ext._merge_events(empty, empty)] == [[], []]


def test_verify_windows_detects_a_broken_swap_zone(table):
    """Column 1 of marker stage 4 moved down by ``h_4 - 1`` floors, to one
    floor above column 0's top marker.  Columns, base floors and zones stay
    disjoint, but the base floors of column 0 now reach the stage-2 zones of
    column 1 inside the j=2 disjointness window: it has survivors besides
    ``d = 0`` at ``q = 4``, so it is not certified, and its report, expanded
    from their events, is the flip-event profile's of the moved table at every
    step.  A move by one floor changes nothing: the column carries its zones
    along, and the ``h_4 - 1`` spacers above its top marker absorb the move."""
    h_4 = table.height(4)

    def moved(by):
        offsets = [list(o) for o in table.offsets]
        offsets[3][1] += by
        return dataclasses.replace(table, offsets=tuple(map(tuple, offsets)))

    clean = verify_windows(table, 2)
    assert verify_windows(moved(1), 2) == verify_windows(moved(-1), 2) == clean
    broken = moved(1 - h_4)
    (lo, hi), (c_lo, c_hi) = claim_windows(broken, 2)
    assert [t[:2] for t in ext._survivors(table, 6, lo, hi, "")] == [(4, 0)]
    terms = ext._survivors(broken, 6, lo, hi, "")
    assert len(terms) == 8 and {t[0] for t in terms[:-1]} == {2} and terms[-1][:2] == (4, 0)
    assert ext._survivors(broken, 6, c_lo, c_hi, "") == []

    report = verify_windows(broken, 2)
    assert report.checks[0] != clean.checks[0] and report.checks[1] == clean.checks[1]
    ctx = context_for(broken, c_hi - 1)
    profile = event_sweep(base_leveled_set(broken, ctx.stage), ctx, c_hi - 1)
    count = np.repeat(profile.counts, np.diff(np.append(profile.edges, c_hi - 1)))
    for check, want in zip(report.checks, (0, profile.total)):
        bad = [n for n in range(check.lo + 1, check.hi) if count[n - 1] != want]
        assert check.mode == "exhaustive" and list(check.violations) == bad
        assert [Fraction(v) for v in check.violation_values] == [
            count[n - 1] * profile.width for n in bad
        ]


def test_sums_of_no_digits_are_the_sum_zero_only_in_range():
    """A sum of one value from each of no digit sets is 0: both pruned
    searches return it when ``[lo, hi]`` holds 0 and nothing otherwise."""
    for lo, hi, want in ((-3, 4, {0: 1}), (0, 0, {0: 1}), (5, 5, {}), (-4, -1, {})):
        assert ext._pruned_sums([], lo, hi, "") == want
        sums, mults = ext._sumset([], lo, hi, "")
        assert dict(zip(sums.tolist(), mults.tolist())) == want


def test_numpy_sumset_matches_the_dict_search():
    """:func:`_sumset` gives :func:`_pruned_sums`' sums and multiplicities on
    random digit sets and ranges, also when it starts from given sums."""
    rng = random.Random(5)
    for _ in range(200):
        digits = [
            collections.Counter(rng.randint(-9, 9) for _ in range(rng.randint(1, 5)))
            for _ in range(rng.randint(0, 4))
        ]
        lo = rng.randint(-20, 20)
        hi = lo + rng.randint(-2, 25)
        arrays = [
            (np.array(sorted(c), dtype=np.int64), np.array([c[v] for v in sorted(c)]))
            for c in digits
        ]
        want = ext._pruned_sums(digits, lo, hi, "")
        sums, mults = ext._sumset(arrays, lo, hi, "")
        assert dict(zip(sums.tolist(), mults.tolist())) == want
        if arrays:
            head = ext._sumset(arrays[:1], -100, 100, "")
            sums, mults = ext._sumset(arrays[1:], lo, hi, "", head)
            assert dict(zip(sums.tolist(), mults.tolist())) == want


def test_stage_sums_add_up_each_blocks_own_sums():
    """:func:`_stage_sums` gives for each marker stage ``q``, with
    multiplicities, the sums of every block's own search at or above level
    ``q`` (:func:`_pruned_sums` over its top digits, then the full
    differences of each stage down to ``q``), on random digits and on ranges
    narrow enough that the searches drop partial sums."""

    def array(c):
        return np.array(sorted(c), dtype=np.int64), np.array([c[v] for v in sorted(c)])

    rng = random.Random(7)
    for _ in range(300):
        stage = rng.randint(3, 7)
        full = {}
        for j in range(1, stage):
            o = [0, *rng.sample(range(1, 9), rng.randint(1, 3))]
            full[j] = collections.Counter(a - b for a in o for b in o)
        bounds = {}
        for q in rng.sample(range(2, stage), rng.randint(1, stage - 2)):
            lo = rng.randint(-25, 25)
            bounds[q] = (lo, lo + rng.randint(0, 8))
        blocks = []
        for _ in range(rng.randint(0, 5)):
            level = rng.randint(1, stage - 1)
            top = [
                collections.Counter(rng.randint(-6, 6) for _ in range(rng.randint(1, 3)))
                for _ in range(stage - level)
            ]
            blocks.append((level, top))
        got = ext._stage_sums(
            [(level, [array(c) for c in top]) for level, top in blocks],
            {j: array(c) for j, c in full.items()},
            bounds,
            "",
        )
        assert sorted(got) == sorted(bounds)
        for q, (lo, hi) in bounds.items():
            want = collections.Counter()
            for level, top in blocks:
                if level >= q:
                    tail = [full[j] for j in range(level - 1, q - 1, -1)]
                    want.update(ext._pruned_sums(top + tail, lo, hi, ""))
            sums, mults = got[q]
            assert dict(zip(sums.tolist(), mults.tolist())) == dict(want), q
