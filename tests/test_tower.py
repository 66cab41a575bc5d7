"""Stage table and floor-set algebra."""

import dataclasses
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from ergolab import (
    BudgetExceeded,
    ConstructionParams,
    FloorSet,
    InvalidConstruction,
    MarkerOutsideSpacers,
    McConfig,
    StageOverflow,
    SuspensionModel,
    base_floorset,
    build_stage_table,
    marker_floorset,
    refine,
)

import ergolab.tower as tower
import _reference as ref


@pytest.fixture(scope="module")
def table():
    return build_stage_table(ConstructionParams(j_max=9))


def test_basic_heights_match_hand_computation(table):
    assert [table.height(j) for j in range(1, 8)] == [
        1, 4, 24, 288, 5760, 172800, 7257600,
    ]


def test_heights_match_independent_recurrence(table):
    h = ref.heights(9, ref.basic_cut, ref.basic_spacer)
    for j in range(1, 10):
        assert table.height(j) == h[j]


def test_staircase_heights_match_independent_recurrence():
    t = build_stage_table(ConstructionParams(preset="staircase-mixing", j_max=8))
    marker = t.params.carries_markers

    def spacer(j, i, h_j):
        return j * h_j + (0 if marker(j) else i)

    h = ref.heights(8, ref.basic_cut, spacer)
    for j in range(1, 9):
        assert t.height(j) == h[j]


def test_staircase_preset_adds_the_column_term_off_marker_stages():
    basic = build_stage_table(ConstructionParams(j_max=6))
    stair = build_stage_table(ConstructionParams(preset="staircase-mixing", j_max=6))
    for j in range(1, 6):
        assert basic.cut_count(j) == stair.cut_count(j)
        assert set(basic.spacer_counts(j)) == {j * basic.height(j)}  # uniform
        h_j = stair.height(j)
        if stair.params.carries_markers(j):
            assert set(stair.spacer_counts(j)) == {j * h_j}  # markers untouched
        else:
            assert list(stair.spacer_counts(j)) == [
                j * h_j + i for i in range(1, stair.cut_count(j) + 1)
            ]


def test_zero_spacers_height_is_pure_product():
    @dataclass(frozen=True)
    class NoSpacers(ConstructionParams):
        def spacer_count(self, j, column, h_j):
            return 0

    t = build_stage_table(NoSpacers(j_max=5, marker_stages=frozenset()))
    for j in range(1, 5):
        assert t.height(j + 1) == t.cut_count(j) * t.height(j)


def test_offset_telescoping(table):
    for j in range(1, table.j_max):
        offs = table.column_offsets(j)
        spc = table.spacer_counts(j)
        assert offs[0] == 0
        for i in range(len(offs) - 1):
            assert offs[i + 1] == offs[i] + table.height(j) + spc[i]
        assert offs[-1] + table.height(j) + spc[-1] == table.height(j + 1)


@pytest.mark.parametrize("preset", ["basic", "staircase-mixing"])
def test_offsets_and_heights_in_closed_form_to_stage_123(preset):
    """The closed forms the lemma for every j rests on, at every stage to 123.

    With uniform spacers ``j*h_j`` (basic, and staircase marker stages)
    ``O_j = {i*(j+1)*h_j : i < r_j}`` and ``h_{j+1} = r_j*(j+1)*h_j``, so
    ``(r_j - 1)*(j+1)*h_j = h_{j+1} - (j+1)*h_j``.  Staircase stages without
    markers shift column ``i`` (0-based) up by ``i*(i+1)/2``.
    """
    t = build_stage_table(ConstructionParams(preset=preset, j_max=124))
    for j in range(1, 124):
        h, r = t.height(j), t.cut_count(j)
        step = (j + 1) * h
        if preset == "basic" or t.params.carries_markers(j):
            assert t.column_offsets(j) == tuple(i * step for i in range(r))
            assert t.height(j + 1) == r * step
            assert (r - 1) * step == t.height(j + 1) - step
        else:
            assert t.column_offsets(j) == tuple(
                i * step + i * (i + 1) // 2 for i in range(r)
            )
            assert t.height(j + 1) == r * step + r * (r + 1) // 2


def test_construction_params_refuse_bad_schedules():
    for kwargs, message in (
        ({"preset": "spiral"}, "unknown preset 'spiral'"),
        ({"j_max": 0}, "j_max must be >= 1, got 0"),
        ({"j_max": -3}, "j_max must be >= 1, got -3"),
        ({"marker_stages": frozenset({2, 3})}, r"marker stages must be even and >= 2, got \[3\]"),
        ({"marker_stages": frozenset({0, 4})}, r"marker stages must be even and >= 2, got \[0\]"),
    ):
        with pytest.raises(InvalidConstruction, match=f"^{message}$"):
            ConstructionParams(**kwargs)


@pytest.mark.parametrize(
    "config, kwargs, message",
    [
        (McConfig, {"seed": 1.5}, "seed and samples must be ints, got 1.5 and 1000000"),
        (McConfig, {"samples": 10.5}, "seed and samples must be ints, got 1 and 10.5"),
        (McConfig, {"seed": True}, "seed and samples must be ints, got True and 1000000"),
        (SuspensionModel, {"m": 1.5}, "cylinder count m must be an int, got 1.5"),
        (SuspensionModel, {"m": True}, "cylinder count m must be an int, got True"),
        (ConstructionParams, {"j_max": 9.5}, "j_max must be an int, got 9.5"),
        (ConstructionParams, {"j_max": True}, "j_max must be an int, got True"),
        (
            ConstructionParams,
            {"marker_stages": frozenset({4.0})},
            r"marker stages must be ints, got \[4\.0\]",
        ),
        (
            ConstructionParams,
            {"marker_stages": [True]},
            r"marker stages must be ints, got \[True\]",
        ),
        (
            ConstructionParams,
            {"marker_stages": [2, 2.0]},
            r"marker stages must be ints, got \[2\.0\]",
        ),
    ],
    ids=[
        "seed-float", "samples-float", "seed-bool", "m-float", "m-bool", "j_max-float",
        "j_max-bool", "marker-float", "marker-bool", "marker-float-equal-to-an-int",
    ],
)
def test_library_configs_refuse_counts_that_are_not_ints(config, kwargs, message):
    """A float or a bool count or stage is refused where it is given, not
    later inside numpy or ``range``; the CLI's config has no other check of
    it.  ``InvalidConstruction`` is a ``ValueError``."""
    with pytest.raises(ValueError, match=f"^{message}$") as raised:
        config(**kwargs)
    assert isinstance(raised.value, InvalidConstruction) == (config is ConstructionParams)


def test_cut_count_below_two_rejected():
    @dataclass(frozen=True)
    class OneCut(ConstructionParams):
        def cut_count(self, j):
            return 1 if j == 2 else max(j, 2)

    with pytest.raises(InvalidConstruction, match="stage 2"):
        build_stage_table(OneCut(j_max=4))


def test_marker_stage_with_short_spacers_rejected():
    @dataclass(frozen=True)
    class ShortSpacers(ConstructionParams):
        def spacer_count(self, j, column, h_j):
            return 1  # far below the j*h_j needed on marker stages

    @dataclass(frozen=True)
    class NegativeSpacers(ConstructionParams):
        def spacer_count(self, j, column, h_j):
            return -1 if j == 1 else j * h_j

    with pytest.raises(MarkerOutsideSpacers, match="marker stage 2"):
        build_stage_table(ShortSpacers(j_max=4))
    negative = r"^stage 1: negative spacer count in \(-1, -1\)$"
    with pytest.raises(InvalidConstruction, match=negative):
        build_stage_table(NegativeSpacers(j_max=3))


def test_stage_table_budget_admits_j_max_64_and_fails_fast_past_it(monkeypatch):
    for preset in tower.PRESETS:
        assert build_stage_table(ConstructionParams(preset, 64)).j_max == 64
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=r"j_max 1000000: .* at stage 583, an estimated"):
        build_stage_table(ConstructionParams(j_max=10**6))
    assert time.perf_counter() - t0 < 1.0
    # the estimate is within a factor 2 of the bytes the ints and tuple slots take
    t = build_stage_table(ConstructionParams(j_max=120))
    real = sum(sys.getsizeof(x) + 8 for rows in (t.offsets, t.spacers) for row in rows for x in row)
    monkeypatch.setattr(tower, "_TABLE_BUDGET", real * 2)
    assert build_stage_table(ConstructionParams(j_max=120)) == t
    monkeypatch.setattr(tower, "_TABLE_BUDGET", real // 2)
    with pytest.raises(BudgetExceeded, match="j_max 120"):
        build_stage_table(ConstructionParams(j_max=120))


def test_mass_conservation_of_the_base(table):
    for j in range(1, table.j_max + 1):
        fs = base_floorset(table, j)
        assert len(fs) * table.width(fs.stage) == 1


def test_refine_identity_and_example(table):
    fs = FloorSet(1, (0,))
    assert refine(table, fs, 1) == fs
    assert refine(table, fs, 2).indices == (0, 2)


def test_refine_preserves_measure_and_multiplies_cardinality(table):
    rng = random.Random(7)
    for _ in range(25):
        stage = rng.randrange(1, 5)
        h = table.height(stage)
        fs = FloorSet.of(stage, rng.sample(range(h), min(h, rng.randrange(1, 5))))
        to = rng.randrange(stage, 7)
        out = refine(table, fs, to)
        assert len(out) * table.width(out.stage) == len(fs) * table.width(fs.stage)
        mult = 1
        for j in range(stage, to):
            mult *= table.cut_count(j)
        assert len(out) == len(fs) * mult
        assert list(out.indices) == sorted(set(out.indices))


def test_refine_stays_exact_past_int64():
    """The floor-sum kernel adds in int64 while the target stage's height is
    below ``2**63`` and in Python ints past it, so stage-15 floors refined
    to stage 16, and stage-12 floors to stage 13 and across the bound to 14,
    equal the Python-int sums of the column offsets."""
    table = build_stage_table(ConstructionParams(j_max=17))
    assert table.height(13) < 2**63 <= table.height(14)
    for lo, hi in ((15, 16), (12, 13), (12, 14)):
        h = table.height(lo)
        floors = (0, 1, h // 3, h - 1)
        want = list(floors)
        for j in range(lo, hi):
            want = [o + f for o in table.column_offsets(j) for f in want]
        assert refine(table, FloorSet(lo, floors), hi).indices == tuple(want)
    assert max(want) >= 2**63
    assert tower._offset_sums(table, (0,), 12, 13).dtype == np.int64
    assert tower._offset_sums(table, (0,), 12, 14).dtype == object


def test_floor_sum_kernel_refuses_output_past_the_table_budget(monkeypatch):
    """The kernel counts its output from the column counts before it builds a
    floor, and refuses more than ``_TABLE_BUDGET`` bytes at 8 per floor: the
    stage-13 base of ``j_max=17`` (958,003,200 floors, 7.7 GB) and the
    stage-12 base (79,833,600) raise at once.  At the bound it builds."""
    big = build_stage_table(ConstructionParams(j_max=17))
    t0 = time.perf_counter()
    for stage, count in ((13, 958_003_200), (12, 79_833_600)):
        with pytest.raises(
            BudgetExceeded,
            match=f"1 stage-1 floors to stage {stage} gives {count} floors, over the budget of",
        ):
            base_floorset(big, stage)
    assert time.perf_counter() - t0 < 1.0
    table = build_stage_table(ConstructionParams(j_max=9))
    count = len(base_floorset(table, 5))
    assert count == 2 * 2 * 3 * 4
    monkeypatch.setattr(tower, "_TABLE_BUDGET", 8 * count)
    assert len(refine(table, FloorSet(1, (0,)), 5)) == count
    monkeypatch.setattr(tower, "_TABLE_BUDGET", 8 * count - 1)
    with pytest.raises(BudgetExceeded, match=f"gives {count} floors"):
        refine(table, FloorSet(1, (0,)), 5)


def test_floor_set_holds_the_kernels_array_past_int64():
    """Stage-15 floors refined to stage 16 of ``j_max=17``, past ``2**63``:
    the ``FloorSet`` holds the kernel's object array, read-only, equal to the
    Python-int sums, and a tuple with a floor past ``2**63`` gives an object
    array too; below the bound the floors are int64."""
    table = build_stage_table(ConstructionParams(j_max=17))
    h = table.height(15)
    floors = (0, h // 2, h - 1)
    fs = FloorSet(15, floors)
    assert fs.floors.dtype == object and FloorSet(15, (0, 1)).floors.dtype == np.int64
    out = refine(table, fs, 16)
    assert out.floors.dtype == object and not out.floors.flags.writeable
    assert out.indices == tuple(o + f for o in table.column_offsets(15) for f in floors)
    assert refine(table, FloorSet(12, (0, 1)), 13).floors.dtype == np.int64


def test_floor_set_refuses_unsorted_or_repeated_floors():
    for floors in ((3, 1), (1, 1)):
        with pytest.raises(ValueError, match="^stage-2 floors are not sorted and distinct$"):
            FloorSet(2, floors)
    assert FloorSet.of(2, (3, 1, 1)) == FloorSet(2, (1, 3))
    # equal sets hash alike, whether built from a tuple or from an array
    assert hash(FloorSet.of(2, (3, 1, 1))) == hash(FloorSet(2, np.array([1, 3])))
    assert len({FloorSet(2, (1, 3)), FloorSet.of(2, (3, 1)), FloorSet(3, (1, 3))}) == 2


def test_refine_refuses_a_lower_stage_or_floors_outside_the_stage(table):
    with pytest.raises(ValueError, match="^cannot refine stage 3 down to 2$"):
        refine(table, base_floorset(table, 3), 2)
    h = table.height(3)
    for lo, hi in ((-1, 0), (0, h)):
        with pytest.raises(ValueError, match=rf"^stage-3 floors {lo}\.\.{hi} not in \[0, {h}\)$"):
            refine(table, FloorSet(3, (lo, hi)), 4)


def test_refine_refuses_a_table_whose_columns_overlap(table):
    """With the second stage-2 column moved to offset 1, inside the first,
    the base at stage 2, floors 0 and 2, lifts to 0, 2, 1, 3: unsorted, so
    ``refine`` raises where the kernel returns them."""
    offsets = list(table.offsets)
    offsets[1] = (0, 1)
    moved = dataclasses.replace(table, offsets=tuple(offsets))
    assert tower._offset_sums(moved, (0, 2), 2, 3).tolist() == [0, 2, 1, 3]
    with pytest.raises(ValueError, match="not sorted and distinct"):
        refine(moved, base_floorset(moved, 2), 3)


def test_base_floorset_examples(table):
    assert base_floorset(table, 1).indices == (0,)
    assert base_floorset(table, 2).indices == (0, 2)
    assert len(base_floorset(table, 3)) * table.width(3) == 1
    # X1 at stage 3 is 4 floors of width 1/4
    fs = base_floorset(table, 3)
    assert len(fs) == 4 and table.width(3) == Fraction(1, 4)


def test_marker_floorset_example_and_measure(table):
    mk = marker_floorset(table, 1)
    assert mk == FloorSet(3, (4, 8, 16, 20))
    # each of the two marker copies has one floor per column: measure w_2
    assert len(mk) * table.width(mk.stage) == 2 * table.width(2)


def test_markers_of_distinct_stages_are_disjoint(table):
    m1, m2, m3 = (
        set(refine(table, marker_floorset(table, k), 7).indices) for k in (1, 2, 3)
    )
    assert not m1 & m2 and not m1 & m3 and not m2 & m3


def test_marker_floorset_requires_materialized_stage():
    t = build_stage_table(ConstructionParams(j_max=4))
    assert marker_floorset(t, 1).stage == 3
    with pytest.raises(StageOverflow):
        marker_floorset(t, 2)  # needs stage 5
    with pytest.raises(InvalidConstruction):
        marker_floorset(build_stage_table(
            ConstructionParams(j_max=6, marker_stages=frozenset({4}))), 1)
    # the last stage has no columns above it yet
    for method in (t.column_offsets, t.spacer_counts):
        with pytest.raises(StageOverflow, match="^stage 4 is the last materialized stage"):
            method(4)
        for stage in (0, 5):
            with pytest.raises(StageOverflow, match=f"^stage {stage} outside materialized range"):
                method(stage)


def test_effective_marker_stages(table):
    assert table.params.effective_marker_stages() == (2, 4, 6, 8)
    only4 = ConstructionParams(j_max=9, marker_stages=frozenset({4}))
    assert only4.effective_marker_stages() == (4,)


def test_json_dump_serializes_integers_as_strings(table):
    dump = table.to_json_obj()
    assert dump[0] == {"j": 1, "h": "1", "w_num": "1", "w_den": "1", "offsets": ["0", "2"]}
    assert dump[6]["h"] == "7257600"
    assert all(isinstance(rec["h"], str) for rec in dump)
    assert dump[-1]["offsets"] == []  # top stage has no offsets yet


def test_widths_are_exact_rationals(table):
    w = Fraction(1)
    for j in range(1, table.j_max):
        assert table.width(j) == w
        w /= table.cut_count(j)
