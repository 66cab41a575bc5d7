"""Exact stage metadata and floor-set algebra for the rank-one tower construction.

The construction starts from a single unit-width interval (stage 1, one floor).
At stage j the current tower of ``h_j`` floors is cut into ``r_j`` equal-width
columns, ``s_j(i)`` spacer floors are stacked on top of column ``i``, and the
columns are restacked left to right into the stage-(j+1) tower of height

    h_{j+1} = r_j * h_j + sum_i s_j(i).

Everything here is exact: floor indices and heights are arbitrary-precision
integers, floor widths and measures are ``fractions.Fraction``.  A measurable
set is always a union of *full* floors of some stage (``FloorSet``); the step
map acts on floor indices as +1 inside a tower.  Refinement adds one column
offset per stage, and one kernel does it for every caller
(:func:`_offset_sums`): int64 while the target stage's height is below
``2**63``, Python ints in an object array past it, so it stays exact.
A ``FloorSet`` holds the kernel's array and refuses unsorted or repeated floors.

Marker floors: on designated even stages ``q`` the construction places two
marker floors above every column, at spacer offsets ``h_q`` and ``q*h_q``.
These drive the two-level extension in :mod:`ergolab.extension`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

__all__ = [
    "ConstructionParams",
    "StageTable",
    "FloorSet",
    "BudgetExceeded",
    "InvalidConstruction",
    "MarkerOutsideSpacers",
    "StageOverflow",
    "build_stage_table",
    "refine",
    "base_floorset",
    "marker_floorset",
]

PRESETS = ("basic", "staircase-mixing")

# most bytes the offsets and spacer counts of a stage table may take, about
# j_max**3 * log2(j_max) bits in all: 0.4 MB at j_max 64, 83 MB at 400
_TABLE_BUDGET = 1 << 28


class BudgetExceeded(ValueError):
    """A request is too large to compute: a size budget or the int64 range
    would be passed.  Raised before the work, naming the number."""


class InvalidConstruction(ValueError):
    """A stage violates the construction's parameter constraints."""


class MarkerOutsideSpacers(InvalidConstruction):
    """A marker floor would land outside the spacer region of its column."""


class StageOverflow(ValueError):
    """An operation needs a stage that is not materialized."""


@dataclass(frozen=True)
class ConstructionParams:
    """Cut/spacer schedule, marker stages, and the stage horizon.

    ``preset='basic'`` uses ``r_j = max(j, 2)`` cuts and ``s_j(i) = j*h_j``
    spacers on every column.  ``preset='staircase-mixing'`` adds a staircase
    term, ``s_j(i) = j*h_j + i``, on the stages that carry no markers, and
    keeps the uniform ``j*h_j`` on marker stages so the marker mechanism is
    unchanged.

    ``marker_stages=None`` means every even stage ``q`` with ``q+1 <= j_max``
    carries markers; an explicit collection of stages, kept as a frozenset,
    restricts to those stages.
    """

    preset: str = "basic"
    j_max: int = 9
    marker_stages: frozenset[int] | None = None

    def __post_init__(self) -> None:
        if self.preset not in PRESETS:
            raise InvalidConstruction(f"unknown preset {self.preset!r}")
        if type(self.j_max) is not int:  # bool is an int subclass
            raise InvalidConstruction(f"j_max must be an int, got {self.j_max!r}")
        if self.j_max < 1:
            raise InvalidConstruction(f"j_max must be >= 1, got {self.j_max}")
        if self.marker_stages is not None:
            # the types are checked before the set is formed: a set keeps one
            # of 2 and 2.0, and refuses an unhashable stage
            stages = tuple(self.marker_stages)
            wrong = [q for q in stages if type(q) is not int]
            if wrong:
                raise InvalidConstruction(f"marker stages must be ints, got {wrong!r}")
            bad = [q for q in stages if q < 2 or q % 2 != 0]
            if bad:
                raise InvalidConstruction(
                    f"marker stages must be even and >= 2, got {sorted(set(bad))}"
                )
            object.__setattr__(self, "marker_stages", frozenset(stages))

    def cut_count(self, j: int) -> int:
        # r_j = j is degenerate at j=1; the basic override max(j, 2) keeps
        # every materialized stage a genuine cut.
        return max(j, 2)

    def spacer_count(self, j: int, column: int, h_j: int) -> int:
        """Spacers above 1-based ``column`` of stage ``j`` with height ``h_j``."""
        base = j * h_j
        if self.preset == "staircase-mixing" and not self.carries_markers(j):
            return base + column
        return base

    def carries_markers(self, stage: int) -> bool:
        if stage % 2 != 0 or stage < 2:
            return False
        if self.marker_stages is not None and stage not in self.marker_stages:
            return False
        return True

    def effective_marker_stages(self) -> tuple[int, ...]:
        """Marker stages whose marker floors exist within ``j_max`` stages."""
        return tuple(
            q for q in range(2, self.j_max) if q + 1 <= self.j_max and self.carries_markers(q)
        )


@dataclass(frozen=True)
class StageTable:
    """Materialized per-stage data: heights, widths, spacers and column offsets.

    ``heights[j-1]`` is ``h_j``.  ``offsets[j-1][i-1]`` is the bottom index of
    column ``i`` of stage ``j`` inside the stage-(j+1) tower, defined for
    ``j < j_max``.  ``widths[j-1]`` is the exact floor width ``w_j``.
    """

    params: ConstructionParams
    heights: tuple[int, ...]
    widths: tuple[Fraction, ...]
    spacers: tuple[tuple[int, ...], ...]
    offsets: tuple[tuple[int, ...], ...]

    @property
    def j_max(self) -> int:
        return len(self.heights)

    def height(self, j: int) -> int:
        self._check_stage(j)
        return self.heights[j - 1]

    def width(self, j: int) -> Fraction:
        self._check_stage(j)
        return self.widths[j - 1]

    def cut_count(self, j: int) -> int:
        return len(self.column_offsets(j))

    def column_offsets(self, j: int) -> tuple[int, ...]:
        self._check_stage(j)
        if j >= self.j_max:
            raise StageOverflow(f"stage {j} is the last materialized stage; no offsets")
        return self.offsets[j - 1]

    def spacer_counts(self, j: int) -> tuple[int, ...]:
        self._check_stage(j)
        if j >= self.j_max:
            raise StageOverflow(f"stage {j} is the last materialized stage; no spacers")
        return self.spacers[j - 1]

    def _check_stage(self, j: int) -> None:
        if not 1 <= j <= self.j_max:
            raise StageOverflow(f"stage {j} outside materialized range [1, {self.j_max}]")

    def to_json_obj(self) -> list[dict]:
        """Dump as a list of per-stage records, integers as decimal strings."""
        out = []
        for j in range(1, self.j_max + 1):
            w = self.width(j)
            rec = {
                "j": j,
                "h": str(self.height(j)),
                "w_num": str(w.numerator),
                "w_den": str(w.denominator),
                "offsets": [str(o) for o in (self.offsets[j - 1] if j < self.j_max else ())],
            }
            out.append(rec)
        return out


def build_stage_table(params: ConstructionParams) -> StageTable:
    """Materialize heights, widths, spacer counts and column offsets.

    Rejects any stage with fewer than two cuts and any marker stage whose
    spacer counts are too small for both markers to land on spacer floors
    (``s_q(i) >= q*h_q`` is required on marker stages ``q``).  First, a
    ``j_max`` whose table would pass ``_TABLE_BUDGET`` raises
    :class:`BudgetExceeded` from a float estimate: stage ``j`` adds ``2*r_j``
    integers of about ``log2 h_{j+1}`` bits, and both presets give
    ``h_{j+1} >= r_j*(j+1)*h_j``.
    """
    bits = size = 0.0
    for j in range(1, params.j_max):
        r_j = params.cut_count(j)
        if r_j < 2:
            raise InvalidConstruction(f"stage {j}: cut count {r_j} < 2")
        bits += math.log2(r_j * (j + 1))
        # a Python int takes about 28 bytes plus 4 per 30 bits, its tuple slot 8
        size += 2 * r_j * (bits / 7.5 + 36)
        if size > _TABLE_BUDGET:
            raise BudgetExceeded(
                f"j_max {params.j_max}: the stage table passes the budget of"
                f" {_TABLE_BUDGET} bytes at stage {j}, an estimated {size:.3g} bytes"
            )
    heights = [1]
    widths = [Fraction(1)]
    spacers: list[tuple[int, ...]] = []
    offsets: list[tuple[int, ...]] = []
    for j in range(1, params.j_max):
        h_j = heights[-1]
        r_j = params.cut_count(j)
        s_j = tuple(params.spacer_count(j, i, h_j) for i in range(1, r_j + 1))
        if any(s < 0 for s in s_j):
            raise InvalidConstruction(f"stage {j}: negative spacer count in {s_j}")
        if params.carries_markers(j):
            short = [i + 1 for i, s in enumerate(s_j) if s < j * h_j]
            if short:
                raise MarkerOutsideSpacers(
                    f"marker stage {j}: columns {short} have fewer than {j}*h_{j}"
                    f" = {j * h_j} spacers; the top marker would leave the spacer region"
                )
        o_j = [0]
        for i in range(1, r_j):
            o_j.append(o_j[-1] + h_j + s_j[i - 1])
        h_next = r_j * h_j + sum(s_j)
        assert o_j[-1] + h_j + s_j[-1] == h_next  # offset telescoping
        heights.append(h_next)
        widths.append(widths[-1] / r_j)
        spacers.append(s_j)
        offsets.append(tuple(o_j))

    return StageTable(
        params=params,
        heights=tuple(heights),
        widths=tuple(widths),
        spacers=tuple(spacers),
        offsets=tuple(offsets),
    )


@dataclass(frozen=True, eq=False)
class FloorSet:
    """Full floors of one stage as a read-only array, sorted and distinct (else
    ``ValueError``): int64, or object once a floor reaches ``2**63``; an array,
    as :func:`refine` passes the kernel's, is kept.  ``indices`` is a tuple
    view, and equality and hash go by ``(stage, indices)``."""

    stage: int
    floors: np.ndarray

    def __post_init__(self) -> None:
        f = self.floors
        if not isinstance(f, np.ndarray):
            f = np.array(f, dtype=object if max(f, default=0) >= 2**63 else np.int64)
        if f.ndim != 1 or (f[1:] <= f[:-1]).any():
            raise ValueError(f"stage-{self.stage} floors are not sorted and distinct")
        f.flags.writeable = False
        object.__setattr__(self, "floors", f)

    @staticmethod
    def of(stage: int, indices: Iterable[int]) -> FloorSet:
        return FloorSet(stage, sorted(set(indices)))

    @functools.cached_property
    def indices(self) -> tuple[int, ...]:
        return tuple(self.floors.tolist())

    def __eq__(self, other: object) -> bool:
        same = isinstance(other, FloorSet) and self.stage == other.stage
        return same and self.indices == other.indices

    def __hash__(self) -> int:
        return hash((self.stage, self.indices))

    def __len__(self) -> int:
        return len(self.floors)


def _offset_sums(table: StageTable, floors, lo: int, hi: int) -> np.ndarray:
    """Each of ``floors`` plus one column offset of each stage ``lo ..
    hi-1``, top stage most significant: the stage-``lo`` floors ``floors``
    refined to stage ``hi``, and for ``floors = (0,)``, ``lo = 1`` the base
    floors there.  int64 while ``h_hi < 2**63``, so no floor of stage ``hi``
    overflows, and Python ints (object dtype) past it.  Output of more than
    ``_TABLE_BUDGET`` bytes at 8 per floor raises :class:`BudgetExceeded`,
    counted from the column counts before any floor is built."""
    count = len(floors) * math.prod(len(table.column_offsets(j)) for j in range(lo, hi))
    if 8 * count > _TABLE_BUDGET:
        raise BudgetExceeded(
            f"refining {len(floors)} stage-{lo} floors to stage {hi} gives {count} floors,"
            f" over the budget of {_TABLE_BUDGET // 8}"
        )
    dtype = np.int64 if table.height(hi) < 2**63 else object
    sums = np.array(floors, dtype=dtype)
    for j in range(lo, hi):
        sums = (np.array(table.column_offsets(j), dtype=dtype)[:, None] + sums).ravel()
    return sums


def _top_base_floor(table: StageTable, stage: int) -> int:
    """The largest base floor at ``stage``: the sum of the last column offsets below it."""
    return sum(table.column_offsets(j)[-1] for j in range(1, stage))


def refine(table: StageTable, fs: FloorSet, to_stage: int) -> FloorSet:
    """Re-express ``fs`` as floors of ``to_stage`` >= ``fs.stage``.

    Each stage-j floor ``f`` splits into the floors ``o_j(i) + f`` over all
    columns ``i``; measure is preserved exactly.  Column blocks are disjoint
    and ascending, so the floors stay sorted; the ``FloorSet`` refuses overlapping ones.
    """
    if to_stage < fs.stage:
        raise ValueError(f"cannot refine stage {fs.stage} down to {to_stage}")
    h = table.height(fs.stage)
    if len(fs) and (fs.floors[0] < 0 or fs.floors[-1] >= h):
        raise ValueError(f"stage-{fs.stage} floors {fs.floors[0]}..{fs.floors[-1]} not in [0, {h})")
    return FloorSet(to_stage, _offset_sums(table, fs.floors, fs.stage, to_stage))


def base_floorset(table: StageTable, stage: int) -> FloorSet:
    """The unit-measure base (the whole stage-1 tower) as stage-``stage`` floors."""
    return refine(table, FloorSet(1, (0,)), stage)


def marker_floorset(table: StageTable, half_index: int) -> FloorSet:
    """Both marker floors of marker stage ``q = 2*half_index``, at stage ``q+1``.

    Above the stage-``q`` column at offset ``o`` they are ``o + h_q`` and
    ``o + q*h_q``; both land on spacer floors of the column, since
    :func:`build_stage_table` gives every marker stage ``s_q(i) >= q*h_q``.
    """
    q = 2 * half_index
    if not table.params.carries_markers(q):
        raise InvalidConstruction(f"stage {q} carries no markers")
    if q + 1 > table.j_max:
        raise StageOverflow(f"marker stage {q} needs stage {q + 1} materialized")
    h_q = table.height(q)
    cols = table.column_offsets(q)
    return FloorSet.of(q + 1, [o + h_q for o in cols] + [o + q * h_q for o in cols])
