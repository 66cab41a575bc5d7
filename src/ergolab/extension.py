"""Two-level extension of the tower map: orbits, overlaps, and window checks.

The phase space gains a level bit.  The *straight* lift moves a point one
floor up and keeps its level; the *flip* lift additionally toggles the level
whenever the point currently sits on a marker floor.  The toggle is a
coboundary.  The *swap zones* are the runs of spacer floors strictly between
a column's two markers, at in-column offsets ``h_q + 1 .. q*h_q`` of every
marker stage ``q``; a zone starts one floor above a marker and ends on the
next one.  So the parity of the marker floors in ``[f, f+n)`` is
``zone(f) XOR zone(f+n)`` (:func:`cocycle_parity`), and every orbit level and
overlap count is two zone lookups per fragment (:meth:`CocycleContext.in_zone`).

The headline claims verified here, for the unit base set ``A`` at level 0:

* disjointness window ``(h_q, q*h_q)`` for a marker stage ``q``: the two
  lifted images of ``A`` should sit on different levels (overlap 0).  The
  unit base meets this on ``(h_q, q*h_q - M_q]``, where ``M_q`` is its top
  stage-``q`` floor: a fragment at floor ``u`` meets its column's second
  marker after ``q*h_q - u`` steps, so after ``i`` steps in the leak
  ``(q*h_q - M_q, q*h_q)`` the images coincide on ``{u : u + i > q*h_q}``;
* coincidence window ``(h_{q+1}, q*h_{q+1})``: the images should coincide
  (overlap 1);
* conjugacy: swapping levels on the swap zones conjugates the straight lift
  into the flip lift.  The swap is an involution, so this is the one-step
  identity ``zone(f) XOR zone(f+1) = marker(f)`` on every floor, which
  :func:`verify_conjugacy` checks against the markers of
  :func:`~ergolab.tower.marker_floorset`.

:func:`verify_windows` checks the window claims exactly and reports every
violating step count; violations are data, not errors.  A base fragment's
parity changes only where its orbit crosses a zone boundary, so each window's
overlap count is a step function with one change per (fragment, boundary
crossed) pair.  Four ``searchsorted`` calls of the base floors ``B`` into the
zone starts and ends find those crossings, and a check costs
``O(|B| log |Z| + boundary events)``, not a pass over the base per step
count: the 36,287,999 steps of the j=3 coincidence window take milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """Marker floors and swap zones of all materialized marker stages, at one stage.

    ``zone_starts`` and ``zone_ends`` are the first and last floor of every
    swap zone, sorted.  They restate the markers, so they take no part in
    equality.
    """

    table: StageTable
    stage: int
    e_indices: tuple[int, ...]
    zone_starts: np.ndarray = field(compare=False, repr=False)
    zone_ends: np.ndarray = field(compare=False, repr=False)

    def height(self) -> int:
        return self.table.height(self.stage)

    def in_zone(self, floors) -> np.ndarray:
        """Whether each floor lies in a swap zone: the last zone starting at
        or below it must end at or above it."""
        f = np.asarray(floors, dtype=np.int64)
        if not self.zone_starts.size:
            return np.zeros(f.shape, dtype=bool)
        k = np.searchsorted(self.zone_starts, f, side="right") - 1
        return (k >= 0) & (f <= self.zone_ends[k])


def _swap_zones(table: StageTable, stage: int) -> tuple[np.ndarray, np.ndarray]:
    """First and last floor of every swap zone at ``stage``, sorted.

    Above the stage-``q`` column at offset ``o`` the zone is
    ``o + [h_q + 1, q*h_q]`` at stage ``q+1``; refinement adds the column
    offsets of each higher stage, so the zone starts are the sumset
    ``O_q + ... + O_{stage-1} + h_q + 1``.
    """
    starts = [np.zeros(0, dtype=np.int64)]
    ends = [np.zeros(0, dtype=np.int64)]
    for q in table.params.effective_marker_stages():
        if q + 1 > stage:
            continue
        h_q = table.height(q)
        s = np.asarray(table.column_offsets(q), dtype=np.int64) + (h_q + 1)
        for j in range(q + 1, stage):
            s = (np.asarray(table.column_offsets(j), dtype=np.int64)[:, None] + s).ravel()
        starts.append(s)
        ends.append(s + ((q - 1) * h_q - 1))
    s, e = np.concatenate(starts), np.concatenate(ends)
    order = np.argsort(s, kind="stable")
    return s[order], e[order]


def cocycle_context(table: StageTable, stage: int) -> CocycleContext:
    """Sorted marker floors and swap zones at ``stage``, whose height must fit in int64.

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
    return CocycleContext(table, stage, tuple(sorted(merged)), *_swap_zones(table, stage))


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
    return int(ctx.in_zone(f) != ctx.in_zone(f + n))


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
    frag = np.asarray(fragments, dtype=np.int64)
    count0 = int((ctx.in_zone(frag) == ctx.in_zone(frag + n)).sum())
    return count0 * ctx.table.width(ctx.stage)


def level_swap(table: StageTable, a: LeveledSet) -> LeveledSet:
    """The involution that flips the level of every swap-zone floor."""
    stage = max(a.level0.stage, a.level1.stage)
    ctx = cocycle_context(table, stage)
    l0, l1 = (np.asarray(frs, dtype=np.int64) for frs in _fragments(table, a, stage))
    z0, z1 = ctx.in_zone(l0), ctx.in_zone(l1)
    return LeveledSet(
        FloorSet.of(stage, np.concatenate((l0[~z0], l1[z1])).tolist()),
        FloorSet.of(stage, np.concatenate((l0[z0], l1[~z1])).tolist()),
    )


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


def _runs(first: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges ``first[k] .. first[k] + lengths[k] - 1``, concatenated."""
    return np.arange(lengths.sum()) + np.repeat(first - (np.cumsum(lengths) - lengths), lengths)


def _window_plateaus(
    ctx: CocycleContext, frag: np.ndarray, home: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Parity-0 counts of the fragments ``frag`` over the steps ``lo+1 .. hi-1``,
    as a step function: ``counts[k]`` holds from ``steps[k]`` up to the next.

    After ``i`` steps fragment ``f`` is at parity 0 iff ``zone(f+i) == home``.
    Along its segment ``[f+lo+1, f+hi-1]`` that changes only where ``f+i``
    crosses a zone boundary: at step ``s-f`` for a zone start ``s`` and at
    ``e+1-f`` for a zone end ``e``, with a sign set by ``home``.  Four
    ``searchsorted`` calls find those boundaries; the count is the one at
    ``lo+1`` plus the sorted, summed changes.
    """
    first, last = frag + (lo + 1), frag + (hi - 1)
    into_zone = np.where(home, 1, -1)  # count change where f+i enters a zone
    at, by = [], []
    for edges, side, shift, sign in (
        (ctx.zone_starts, "right", 0, into_zone),
        (ctx.zone_ends, "left", 1, -into_zone),
    ):
        # the edges whose change lands on a step in (lo+1, hi-1]
        a = np.searchsorted(edges, first, side=side)
        n = np.searchsorted(edges, last, side=side) - a
        at.append(edges[_runs(a, n)] + shift - np.repeat(frag, n))
        by.append(np.repeat(sign, n))
    at, by = np.concatenate(at), np.concatenate(by)
    order = np.argsort(at)
    steps = np.concatenate(([lo + 1], at[order]))
    counts = np.cumsum(np.concatenate(([0], by[order])))
    counts += int((ctx.in_zone(first) == home).sum())
    last_of_run = np.append(steps[1:] != steps[:-1], True)
    return steps[last_of_run], counts[last_of_run]


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

    Each window's parity-0 count is built once as a step function over its
    steps (:func:`_window_plateaus`), in ``O(|B| log |Z| + boundary events)``
    for base floors ``B`` and swap zones ``Z``: a base floor's count changes
    only where its orbit crosses a zone boundary.  Sampled mode reads the
    counts at the grid; exhaustive mode lists the steps of the plateaus whose
    count misses the window's target, so a clean window costs no per-step
    work.

    The outcome for j=1 is recorded but not asserted anywhere: the smallest
    stage is run as a diagnostic only.
    """
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    (d_lo, d_hi), (c_lo, c_hi) = claim_windows(table, j)
    ctx = context_for(table, c_hi - 1)
    frag = np.asarray(base_leveled_set(table, ctx.stage).level0.indices, dtype=np.int64)
    home = ctx.in_zone(frag)
    w = ctx.table.width(ctx.stage)

    checks = []
    for kind, lo, hi, want in (
        ("disjoint", d_lo, d_hi, 0),
        ("coincide", c_lo, c_hi, len(frag)),
    ):
        starts, counts = _window_plateaus(ctx, frag, home, lo, hi)
        if mode == "exhaustive":
            checked = hi - lo - 1
            bad = counts != want
            n = np.diff(np.append(starts, hi))[bad]
            steps, values = _runs(starts[bad], n), np.repeat(counts[bad], n)
        else:
            grid = np.asarray(sample_grid(lo, hi, grid_points), dtype=np.int64)
            checked = grid.size
            at = counts[np.searchsorted(starts, grid, side="right") - 1]
            steps, values = grid[at != want], at[at != want]
        text = {c: f"{(c * w).numerator}/{(c * w).denominator}" for c in set(values.tolist())}
        checks.append(
            WindowCheck(
                kind=kind,
                lo=lo,
                hi=hi,
                mode=mode,
                checked_count=checked,
                violations=tuple(steps.tolist()),
                violation_values=tuple(text[c] for c in values.tolist()),
            )
        )
    return WindowReport(j=j, stage=ctx.stage, asserted=(j >= 2), checks=tuple(checks))


# ---------------------------------------------------------------------------
# conjugacy of the two lifts


@dataclass(frozen=True)
class ConjugacyReport:
    stage: int
    floors_checked: int
    mismatched_floors: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return not self.mismatched_floors

    def to_json_obj(self) -> dict:
        return {
            "stage": self.stage,
            "floors_checked": str(self.floors_checked),
            "mismatch_count": len(self.mismatched_floors),
            "mismatched_floors": [str(f) for f in self.mismatched_floors],
        }


def _unpaired(a: np.ndarray) -> np.ndarray:
    """The values of the sorted array ``a`` that occur an odd number of times."""
    if not a.size:
        return a
    first = np.flatnonzero(np.concatenate(([True], a[1:] != a[:-1])))
    runs = np.diff(np.concatenate((first, [a.size])))
    return a[first[runs % 2 == 1]]


def verify_conjugacy(table: StageTable, stage: int) -> ConjugacyReport:
    """Check ``zone(f) XOR zone(f+1) == marker(f)`` on every floor of ``stage``.

    The level swap is an involution, so this one-step identity is
    swap . straight . swap == flip, and with it swap . straight^n . swap ==
    flip^n for every ``n``.  The zone indicator changes between ``f`` and
    ``f+1`` exactly when ``f`` is a zone start minus 1 or a zone end, except
    where two zones abut; the mismatches are the floors in exactly one of
    those boundaries and the markers of :func:`~ergolab.tower.marker_floorset`.
    """
    ctx = cocycle_context(table, stage)
    boundaries = _unpaired(np.sort(np.concatenate((ctx.zone_starts - 1, ctx.zone_ends))))
    markers = np.asarray(ctx.e_indices, dtype=np.int64)
    mism = _unpaired(np.sort(np.concatenate((boundaries, markers))))
    return ConjugacyReport(
        stage=stage,
        floors_checked=ctx.height() - 1,
        mismatched_floors=tuple(mism.tolist()),
    )
