"""Two-level extension of the tower map: orbits, overlaps, and window checks.

The phase space gains a level bit.  The *straight* lift moves a point one
floor up and keeps its level; the *flip* lift additionally toggles the level
whenever the point currently sits on a marker floor.  For a floor ``f`` and
``n`` steps the accumulated toggle is the parity of the number of marker
floors in ``[f, f+n)``, so orbit levels reduce to two binary searches per
fragment (:func:`cocycle_parity`).

The headline claims verified here, for the unit base set ``A`` at level 0:

* disjointness window ``(h_q, q*h_q)`` for a marker stage ``q``: the two
  lifted images of ``A`` should sit on different levels (overlap 0).  The
  unit base meets this on ``(h_q, q*h_q - M_q]``, where ``M_q`` is its top
  stage-``q`` floor: a fragment at floor ``u`` meets its column's second
  marker after ``q*h_q - u`` steps, so after ``i`` steps in the leak
  ``(q*h_q - M_q, q*h_q)`` the images coincide on ``{u : u + i > q*h_q}``;
* coincidence window ``(h_{q+1}, q*h_{q+1})``: the images should coincide
  (overlap 1);
* conjugacy: swapping levels on the zone between each column's two markers
  conjugates the straight lift into the flip lift.

:func:`verify_windows` checks the window claims exactly and reports every
violating step count; violations are data, not errors.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .tower import (
    FloorSet,
    InvalidConstruction,
    StageOverflow,
    StageTable,
    _max_index_at,
    base_floorset,
    marker_floorset,
    measure,
    refine,
)

__all__ = [
    "SegmentEscapesTower",
    "CocycleContext",
    "LeveledSet",
    "cocycle_context",
    "context_for",
    "base_leveled_set",
    "cocycle_parity",
    "straight_orbit",
    "flip_orbit",
    "overlap_measure",
    "classify_floor",
    "in_swap_zone",
    "level_swap",
    "claim_windows",
    "sample_grid",
    "verify_windows",
    "verify_conjugacy",
    "WindowCheck",
    "WindowReport",
    "ConjugacyReport",
]

class SegmentEscapesTower(ValueError):
    """An orbit segment leaves the context stage; rebuild at a higher stage."""


@dataclass(frozen=True)
class CocycleContext:
    """Marker floor indices of all materialized marker stages, at one stage."""

    table: StageTable
    stage: int
    e_indices: tuple[int, ...]

    def height(self) -> int:
        return self.table.height(self.stage)


def cocycle_context(table: StageTable, stage: int) -> CocycleContext:
    """Sorted marker floors at ``stage``, whose height must fit in int64.

    Orbit segments never leave the stage, so the height bound also bounds
    every floor index and step count the numpy kernels see.
    """
    h = table.height(stage)
    if h >= 2**63:
        raise StageOverflow(f"stage {stage} height {h} >= 2**63 does not fit in int64")
    merged: list[int] = []
    for q in table.params.effective_marker_stages():
        if q + 1 > stage:
            continue
        fs = refine(table, marker_floorset(table, q // 2), stage)
        merged.extend(fs.indices)
    return CocycleContext(table, stage, tuple(sorted(merged)))


def context_for(table: StageTable, n_max: int) -> CocycleContext:
    """Context at the smallest stage where every base fragment can take ``n_max`` steps."""
    unit = FloorSet(1, (0,))
    for stage in range(1, table.j_max + 1):
        if _max_index_at(table, unit, stage) + n_max < table.height(stage):
            return cocycle_context(table, stage)
    raise StageOverflow(
        f"no materialized stage admits {n_max} steps from the base;"
        f" rebuild with j_max > {table.j_max}"
    )


@dataclass(frozen=True)
class LeveledSet:
    """A subset of tower x level-bit space: one FloorSet per level."""

    level0: FloorSet
    level1: FloorSet

    def total_measure(self, table: StageTable) -> Fraction:
        return measure(table, self.level0) + measure(table, self.level1)


def base_leveled_set(table: StageTable, stage: int) -> LeveledSet:
    return LeveledSet(base_floorset(table, stage), FloorSet(stage, ()))


def cocycle_parity(f: int, n: int, ctx: CocycleContext) -> int:
    """Parity of the number of marker floors met in ``n`` steps from floor ``f``."""
    if n < 0:
        raise ValueError(f"step count must be >= 0, got {n}")
    h = ctx.height()
    if not 0 <= f < h:
        raise ValueError(f"floor {f} outside stage {ctx.stage} range [0, {h})")
    if f + n >= h:
        raise SegmentEscapesTower(
            f"segment [{f}, {f + n}] escapes stage {ctx.stage} (height {h})"
        )
    e = ctx.e_indices
    return (bisect_left(e, f + n) - bisect_left(e, f)) & 1


def _fragments(table: StageTable, a: LeveledSet, stage: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return (
        refine(table, a.level0, stage).indices,
        refine(table, a.level1, stage).indices,
    )


def straight_orbit(a: LeveledSet, n: int, ctx: CocycleContext) -> LeveledSet:
    """n-fold straight lift: every fragment moves up n floors, levels unchanged."""
    l0, l1 = _fragments(ctx.table, a, ctx.stage)
    h = ctx.height()
    for frs in (l0, l1):
        if frs and frs[-1] + n >= h:
            raise SegmentEscapesTower(
                f"fragment {frs[-1]} cannot take {n} steps inside stage {ctx.stage}"
            )
    return LeveledSet(
        FloorSet(ctx.stage, tuple(f + n for f in l0)),
        FloorSet(ctx.stage, tuple(f + n for f in l1)),
    )


def flip_orbit(a: LeveledSet, n: int, ctx: CocycleContext) -> LeveledSet:
    """n-fold flip lift: fragment f lands on level z XOR cocycle_parity(f, n)."""
    l0, l1 = _fragments(ctx.table, a, ctx.stage)
    new0: list[int] = []
    new1: list[int] = []
    for z, frs in ((0, l0), (1, l1)):
        for f in frs:
            if z ^ cocycle_parity(f, n, ctx):
                new1.append(f + n)
            else:
                new0.append(f + n)
    return LeveledSet(FloorSet.of(ctx.stage, new0), FloorSet.of(ctx.stage, new1))


def overlap_measure(n: int, a: LeveledSet, ctx: CocycleContext) -> Fraction:
    """Exact measure of (straight-lift image) intersect (flip-lift image) after n steps.

    Both lifts move fragments to the same x-floors, so the intersection is
    the mass of fragments whose cocycle parity is 0.  Requires the two
    levels of ``a`` to occupy disjoint x-floors (orbit sets of the base do).
    """
    if n < 0:
        raise ValueError(f"step count must be >= 0, got {n}")
    l0, l1 = _fragments(ctx.table, a, ctx.stage)
    if l0 and l1 and set(l0) & set(l1):
        raise ValueError("overlap_measure needs level-disjoint x-floors")
    fragments = l0 + l1
    if fragments and max(fragments) + n >= ctx.height():
        raise SegmentEscapesTower(
            f"fragment {max(fragments)} cannot take {n} steps inside stage {ctx.stage}"
        )
    count0 = _parity_zero_counts(fragments, ctx.e_indices, [n])[0]
    return count0 * ctx.table.width(ctx.stage)


# ---------------------------------------------------------------------------
# floor classification: birth stage and spacer offset


def classify_floor(table: StageTable, stage: int, f: int) -> tuple[int, int]:
    """Trace floor ``f`` of ``stage`` to its origin.

    Returns ``(birth_stage, offset)``: ``(1, p)`` for base-space floors, or
    ``(l+1, rel)`` for a spacer floor added above a stage-``l`` column at
    in-column offset ``rel`` (``h_l <= rel < h_l + s_l(column)``).
    """
    for l in range(stage - 1, 0, -1):
        cols = table.column_offsets(l)
        c = bisect_right(cols, f) - 1
        rel = f - cols[c]
        if rel < table.height(l):
            f = rel
            continue
        return l + 1, rel
    return 1, f


def in_swap_zone(table: StageTable, stage: int, f: int) -> bool:
    """Whether floor ``f`` lies strictly between a column's two markers.

    The swap zone of marker stage ``q`` is the run of spacer floors at
    in-column offsets ``h_q + 1 .. q*h_q`` above every column; flipping
    levels there conjugates the straight lift into the flip lift.
    """
    birth, rel = classify_floor(table, stage, f)
    q = birth - 1
    if q >= 2 and table.params.carries_markers(q) and q + 1 <= stage:
        return table.height(q) + 1 <= rel <= q * table.height(q)
    return False


def level_swap(table: StageTable, a: LeveledSet) -> LeveledSet:
    """The involution that flips the level of every swap-zone floor."""
    stage = max(a.level0.stage, a.level1.stage)
    l0 = refine(table, a.level0, stage).indices
    l1 = refine(table, a.level1, stage).indices
    new0: list[int] = []
    new1: list[int] = []
    for f in l0:
        (new1 if in_swap_zone(table, stage, f) else new0).append(f)
    for f in l1:
        (new0 if in_swap_zone(table, stage, f) else new1).append(f)
    return LeveledSet(FloorSet.of(stage, new0), FloorSet.of(stage, new1))


# ---------------------------------------------------------------------------
# window verification


@dataclass(frozen=True)
class WindowCheck:
    """Outcome of checking one claimed window at a set of step counts."""

    kind: str  # "disjoint" or "coincide"
    lo: int
    hi: int
    mode: str
    checked_count: int
    violations: tuple[int, ...]
    violation_values: tuple[str, ...]  # overlap at each violating i, as "num/den"

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class WindowReport:
    j: int
    stage: int
    asserted: bool  # j=1 runs as a diagnostic only
    checks: tuple[WindowCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_obj(self) -> list[dict]:
        return [
            {
                "j": self.j,
                "window": [str(c.lo), str(c.hi)],
                "kind": c.kind,
                "mode": c.mode,
                "asserted": self.asserted,
                "violations": [str(i) for i in c.violations],
                "violation_values": list(c.violation_values),
                "checked_count": c.checked_count,
            }
            for c in self.checks
        ]


def claim_windows(table: StageTable, j: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(disjointness, coincidence) windows for marker stage ``q = 2j``, as open intervals."""
    q = 2 * j
    if not table.params.carries_markers(q):
        raise InvalidConstruction(f"stage {q} carries no markers; no windows for j={j}")
    if q + 1 > table.j_max:
        raise StageOverflow(f"windows for j={j} need stage {q + 1} materialized")
    h_q = table.height(q)
    h_q1 = table.height(q + 1)
    return (h_q, q * h_q), (h_q1, q * h_q1)


def sample_grid(lo: int, hi: int, points: int) -> list[int]:
    """The step counts ``verify_windows(mode="sampled", grid_points=points)``
    checks in the open window ``(lo, hi)``: ``points`` evenly spaced steps
    from ``lo+1`` to ``hi-1`` plus ``lo+2`` and ``hi-2``, sorted and without
    duplicates; a window with at most one interior step gives all of them.
    """
    if hi - lo <= 2:
        return list(range(lo + 1, hi))
    span = hi - lo - 2
    grid = {lo + 1, lo + 2, hi - 2, hi - 1}
    for k in range(points):
        grid.add(lo + 1 + span * k // max(points - 1, 1))
    return sorted(grid)


def _parity_zero_counts(
    fragments: tuple[int, ...], e_indices: tuple[int, ...], i_values: list[int]
) -> list[int]:
    """Number of parity-0 fragments at each step count, exact integer counts."""
    e = np.asarray(e_indices, dtype=np.int64)
    frag = np.asarray(fragments, dtype=np.int64)
    lo = np.searchsorted(e, frag, side="left")
    out = []
    for i in i_values:
        hi = np.searchsorted(e, frag + i, side="left")
        out.append(int(((hi - lo) % 2 == 0).sum()))
    return out


def verify_windows(
    table: StageTable,
    j: int,
    mode: str = "exhaustive",
    grid_points: int = 10_000,
) -> WindowReport:
    """Check the disjointness/coincidence claims for marker stage ``2j``.

    ``mode='exhaustive'`` checks every step count strictly inside both
    windows; ``mode='sampled'`` checks :func:`sample_grid` of each window
    with ``grid_points`` points.

    The outcome for j=1 is recorded but not asserted anywhere: the smallest
    stage is run as a diagnostic only.
    """
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    (d_lo, d_hi), (c_lo, c_hi) = claim_windows(table, j)
    ctx = context_for(table, c_hi - 1)
    fragments = base_leveled_set(table, ctx.stage).level0.indices
    total = len(fragments)

    checks = []
    for kind, lo, hi, want in (
        ("disjoint", d_lo, d_hi, 0),
        ("coincide", c_lo, c_hi, total),
    ):
        if mode == "exhaustive":
            i_values = list(range(lo + 1, hi))
        else:
            i_values = sample_grid(lo, hi, grid_points)
        counts = _parity_zero_counts(fragments, ctx.e_indices, i_values)
        bad = [(i, c) for i, c in zip(i_values, counts) if c != want]
        w = ctx.table.width(ctx.stage)
        checks.append(
            WindowCheck(
                kind=kind,
                lo=lo,
                hi=hi,
                mode=mode,
                checked_count=len(i_values),
                violations=tuple(i for i, _ in bad),
                violation_values=tuple(
                    f"{(c * w).numerator}/{(c * w).denominator}" for _, c in bad
                ),
            )
        )
    return WindowReport(j=j, stage=ctx.stage, asserted=(j >= 2), checks=tuple(checks))


# ---------------------------------------------------------------------------
# conjugacy of the two lifts


@dataclass(frozen=True)
class ConjugacyReport:
    n_max: int
    stage: int
    fragment_count: int
    mismatched_n: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return not self.mismatched_n

    def to_json_obj(self) -> dict:
        return {
            "n_max": self.n_max,
            "stage": self.stage,
            "fragment_count": self.fragment_count,
            "mismatch_count": len(self.mismatched_n),
            "mismatched_n": [str(n) for n in self.mismatched_n],
        }


def verify_conjugacy(table: StageTable, n_max: int) -> ConjugacyReport:
    """Check swap . straight^n . swap == flip^n on the base set for n <= n_max.

    Both sides are materialized as LeveledSets and compared exactly.
    """
    ctx = context_for(table, n_max)
    a = base_leveled_set(table, ctx.stage)
    swapped = level_swap(table, a)
    mism = []
    for n in range(n_max + 1):
        lhs = level_swap(table, straight_orbit(swapped, n, ctx))
        rhs = flip_orbit(a, n, ctx)
        if lhs != rhs:
            mism.append(n)
    return ConjugacyReport(
        n_max=n_max,
        stage=ctx.stage,
        fragment_count=len(a.level0),
        mismatched_n=tuple(mism),
    )
