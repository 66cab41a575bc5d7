"""Two-level lifts, overlaps, window checks, and conjugacy."""

import random
from fractions import Fraction

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
from ergolab.extension import classify_floor, in_swap_zone

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


def test_classify_floor_and_marker_membership(table):
    base = set(base_floorset(table, 5).indices)
    for p in range(table.height(5)):
        birth, rel = classify_floor(table, 5, p)
        assert (birth == 1) == (p in base)
    for p in cocycle_context(table, 5).e_indices:
        birth, rel = classify_floor(table, 5, p)
        q = birth - 1
        assert rel in (table.height(q), q * table.height(q))


def test_swap_zone_sits_strictly_between_markers(table):
    # stage-2 zone floors at in-column offsets [h_2+1, 2*h_2] = [5..8]
    zone3 = [p for p in range(table.height(3)) if in_swap_zone(table, 3, p)]
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
    report = verify_conjugacy(table, 100)
    assert report.passed
    assert report.mismatched_n == ()


def test_conjugacy_detects_a_broken_swap_zone(table, monkeypatch):
    """If the swap zone misses its top floor the conjugation must fail."""
    import ergolab.extension as ext

    real = ext.in_swap_zone

    def broken(tbl, stage, f):
        birth, rel = ext.classify_floor(tbl, stage, f)
        q = birth - 1
        if q >= 2 and tbl.params.carries_markers(q) and q + 1 <= stage:
            return tbl.height(q) + 1 <= rel <= q * tbl.height(q) - 1
        return False

    monkeypatch.setattr(ext, "in_swap_zone", broken)
    assert not verify_conjugacy(table, 30).passed
    monkeypatch.setattr(ext, "in_swap_zone", real)
    assert verify_conjugacy(table, 30).passed
