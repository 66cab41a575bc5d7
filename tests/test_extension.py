"""Two-level lifts, overlaps, window checks, and conjugacy."""

import random
import time
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest

from ergolab import (
    ConstructionParams,
    FloorSet,
    LeveledSet,
    SegmentEscapesTower,
    StageOverflow,
    base_floorset,
    base_leveled_set,
    build_stage_table,
    claim_windows,
    cocycle_context,
    cocycle_parity,
    context_for,
    flip_orbit,
    level_swap,
    measure,
    overlap_measure,
    straight_orbit,
    verify_conjugacy,
    verify_windows,
)
from ergolab.extension import sample_grid

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


def test_cocycle_context_guards_the_int64_range(monkeypatch):
    import ergolab.extension as ext

    t = build_stage_table(ConstructionParams(j_max=14))
    assert t.height(14) > 10**21
    with pytest.raises(StageOverflow, match=str(t.height(14))):
        cocycle_context(t, 14)
    # stage 13 lies between 2**62 and 2**63 and must pass the guard; stop at
    # the first refinement instead of building its billion-fragment context
    assert 2**62 < t.height(13) == 5_965_505_852_866_560_000 < 2**63

    class Refined(Exception):
        pass

    def stop(*args):
        raise Refined

    monkeypatch.setattr(ext, "refine", stop)
    with pytest.raises(Refined):
        cocycle_context(t, 13)


def test_cocycle_parity_examples(table):
    ctx3 = cocycle_context(table, 3)
    assert ctx3.e_indices == (4, 8, 16, 20)
    assert cocycle_parity(0, 0, ctx3) == 0
    assert cocycle_parity(0, 5, ctx3) == 1
    assert cocycle_parity(0, 9, ctx3) == 0


def test_cocycle_parity_segment_escape(table):
    ctx3 = cocycle_context(table, 3)
    with pytest.raises(SegmentEscapesTower):
        cocycle_parity(0, table.height(3), ctx3)


def test_cocycle_parity_xor_composition(ctx5, table):
    rng = random.Random(5)
    h = table.height(5)
    for _ in range(200):
        f = rng.randrange(0, h // 2)
        a = rng.randrange(0, h // 4)
        b = rng.randrange(0, h - f - a)
        assert cocycle_parity(f, a + b, ctx5) == (
            cocycle_parity(f, a, ctx5) ^ cocycle_parity(f + a, b, ctx5)
        )


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
        assert fl.total_measure(table) == 1
        assert st.total_measure(table) == 1
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
    assert list(zip(ctx3.zone_starts.tolist(), ctx3.zone_ends.tolist())) == [(5, 8), (17, 20)]
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


def test_verify_windows_sampled_grid_hits_endpoints(table):
    report = verify_windows(table, 1, mode="sampled", grid_points=10)
    disjoint, coincide = report.checks
    assert disjoint.checked_count == 3  # tiny window: every interior point
    assert 25 in _grid_of(coincide) and 47 in _grid_of(coincide)


def _grid_of(check):
    from ergolab.extension import sample_grid

    return sample_grid(check.lo, check.hi, 10)


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
    """One zone a floor short at its top, or starting a floor late, breaks
    the one-step identity at exactly the two floors around the moved edge."""
    import ergolab.extension as ext

    real = ext._swap_zones
    k = 7  # a stage-2 zone inside the stage-6 tower
    starts, ends = real(table, 6)
    for edge, moved, expected in (
        (1, ends[k] - 1, (ends[k] - 1, ends[k])),  # one floor short at the top
        (0, starts[k] + 1, (starts[k] - 1, starts[k])),  # one floor late
    ):

        def broken(tbl, stage, edge=edge, moved=moved):
            zones = [a.copy() for a in real(tbl, stage)]
            zones[edge][k] = moved
            return tuple(zones)

        monkeypatch.setattr(ext, "_swap_zones", broken)
        report = verify_conjugacy(table, 6)
        assert report.mismatched_floors == expected
        assert report.to_json_obj()["mismatch_count"] == 2
    monkeypatch.setattr(ext, "_swap_zones", real)
    assert verify_conjugacy(table, 6).passed


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


def test_verify_windows_j3_exhaustive(table):
    """Every step of both j=3 windows, 36M in the coincidence window alone,
    checked from plateaus: the disjointness window leaks on exactly the
    142,765 steps of ``(894034, 1036800)``."""
    t0 = time.perf_counter()
    report = verify_windows(table, 3, mode="exhaustive")
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, f"j=3 exhaustive took {elapsed:.2f}s"
    disjoint, coincide = report.checks
    assert disjoint.checked_count == 1036800 - 172800 - 1
    assert coincide.checked_count == 43545600 - 7257600 - 1 == 36287999
    assert coincide.passed

    overlap = _leak(6, disjoint.hi)
    assert disjoint.violations == tuple(range(894035, 1036800))
    assert len(disjoint.violations) == 142765
    assert _reported(disjoint) == _leak_violations(disjoint.violations, overlap)
    assert overlap(894034) == 0

    sampled = verify_windows(table, 3, mode="sampled", grid_points=10_000)
    for full, part in zip(report.checks, sampled.checks):
        grid = set(sample_grid(full.lo, full.hi, 10_000))
        kept = [(i, v) for i, v in zip(full.violations, full.violation_values) if i in grid]
        assert list(zip(part.violations, part.violation_values)) == kept


def test_verify_windows_j4_sampled_leak():
    """At ``j_max=11`` the j=4 disjointness window leaks on exactly
    ``(q*h_q - M_q, q*h_q)`` = ``(2896849234, 3251404800)`` for ``q = 8``."""
    table = build_stage_table(ConstructionParams(j_max=11))
    report = verify_windows(table, 4, mode="sampled")
    disjoint, coincide = report.checks
    assert report.stage == 10
    assert (disjoint.lo, disjoint.hi) == (table.height(8), 3251404800)
    assert coincide.passed and coincide.checked_count == 10_002

    overlap = _leak(8, disjoint.hi)
    assert overlap(2896849234) == 0 and overlap(2896849235) > 0
    grid = sample_grid(disjoint.lo, disjoint.hi, 10_000)
    assert _reported(disjoint) == _leak_violations(grid, overlap)
    assert len(disjoint.violations) == 1248
    assert all(2896849234 < i < 3251404800 for i in disjoint.violations)


def test_verify_windows_detects_a_broken_swap_zone(table, monkeypatch):
    """A stage-4 zone one floor short at its top, or starting one floor late,
    drops one floor ``p`` from the zones.  The j=2 disjointness count then
    rises by one base fragment at exactly the steps ``p - f`` that land a
    base floor ``f`` on ``p``, and the coincidence window does not move."""
    import ergolab.extension as ext

    real = ext._swap_zones
    h_4 = table.height(4)
    starts, ends = real(table, 6)
    k = int(np.flatnonzero(starts == h_4 + 1)[0])  # above the stage-4 column at 0
    assert ends[k] == 4 * h_4
    base = ref.base_indices(6)
    clean = verify_windows(table, 2)
    for edge, moved, dropped in (
        (1, ends[k] - 1, ends[k]),  # one floor short at the top
        (0, starts[k] + 1, starts[k]),  # one floor late
    ):

        def broken(tbl, stage, edge=edge, moved=moved):
            zones = [a.copy() for a in real(tbl, stage)]
            zones[edge][k] = moved
            return tuple(zones)

        monkeypatch.setattr(ext, "_swap_zones", broken)
        report = verify_windows(table, 2)
        assert report.checks[1] == clean.checks[1]
        before, after = (
            {i: Fraction(v) for i, v in zip(c.violations, c.violation_values)}
            for c in (clean.checks[0], report.checks[0])
        )
        lo, hi = clean.checks[0].lo, clean.checks[0].hi
        predicted = sorted(dropped - f for f in base if lo < dropped - f < hi)
        assert predicted
        changed = [i for i in sorted(before.keys() | after.keys()) if before.get(i) != after.get(i)]
        assert changed == predicted
        width = Fraction(1, len(base))
        assert all(after[i] == before.get(i, 0) + width for i in predicted)
    assert predicted == [h_4 + 1]  # only the fragment at the zone's own column base
    monkeypatch.setattr(ext, "_swap_zones", real)
    assert verify_windows(table, 2) == clean
