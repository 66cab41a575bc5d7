"""Two-level extension of the tower map: orbits, overlaps, and window checks.

The phase space gains a level bit.  The *straight* lift moves a point one
floor up and keeps its level; the *flip* lift additionally toggles the level
whenever the point currently sits on a marker floor.  The toggle is a
coboundary.  The *swap zones* are the runs of spacer floors strictly between
a column's two markers, at in-column offsets ``h_q + 1 .. q*h_q`` of every
marker stage ``q``; a zone starts one floor above a marker and ends on the
next one.  So the parity of the marker floors in ``[f, f+n)`` is
``zone(f) XOR zone(f+n)``, and every orbit level and overlap count is two
zone lookups per fragment (:meth:`CocycleContext.in_zone`).

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

:func:`verify_windows` checks the window claims exactly, from the stage
table alone; violations are data, not errors.  No base floor lies in a zone,
so the fragments of parity 1 after ``n`` steps are those inside a zone: a
sum over the marker stages ``q`` and the differences ``d`` of two column
offset sums above stage ``q`` of ``C_q(q*h_q + d - n) - C_q(h_q + d - n)``,
where ``C_q`` counts the base floors of the stage-``q`` tower up to a floor.
A pruned search keeps only the ``d`` that a window's steps can use, and on
the paper's construction they certify every window, so the 36,287,999 steps
of the j=3 coincidence window cost no more than its survivor search.  Every
window is checked on all of its steps; a report's ``mode`` says how its
violations are listed: all of them when there are at most ``_GRID_POINTS``
(``"exhaustive"``), else those on a ``_GRID_POINTS``-point grid
(``"sampled"``).

The overlap profile of :func:`~ergolab.averages.event_sweep` comes from the
same sum, from step 0 (:func:`_chunk_plateaus`): each aligned block of base
floors gives its zone entries and exits from the column offsets, so the
cost follows the surviving ``(d, b)`` events, not the crossings of
fragments and zone edges.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .tower import (
    BudgetExceeded,
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
    "straight_orbit",
    "flip_orbit",
    "overlap_measure",
    "level_swap",
    "claim_windows",
    "verify_windows",
    "verify_conjugacy",
    "WindowCheck",
    "WindowReport",
    "ConjugacyReport",
]

class SegmentEscapesTower(ValueError):
    """An orbit segment leaves the context stage; rebuild at a higher stage."""


# most marker and base floors, counted together, that a context stage may hold
_CONTEXT_BUDGET = 1 << 24


@dataclass(frozen=True)
class CocycleContext:
    """Marker floors of all materialized marker stages, at one stage.

    ``zone_edges`` are the marker floors, sorted: the floors ``f`` with
    ``zone(f) != zone(f+1)``, one below every zone start and every zone end.
    They follow from the table and the stage, so they take no part in equality.
    """

    table: StageTable
    stage: int
    zone_edges: np.ndarray = field(compare=False, repr=False)

    @property
    def e_indices(self) -> tuple[int, ...]:
        return tuple(self.zone_edges.tolist())

    def height(self) -> int:
        return self.table.height(self.stage)

    def in_zone(self, floors) -> np.ndarray:
        """Whether each floor lies in a swap zone: an odd number of zone
        edges lie below it."""
        f = np.asarray(floors, dtype=np.int64)
        return np.searchsorted(self.zone_edges, f) % 2 == 1


def _swap_zones(table: StageTable, stage: int) -> tuple[np.ndarray, np.ndarray]:
    """First and last floor of every swap zone at ``stage``, in sumset order.

    Above the stage-``q`` column at offset ``o`` the zone is
    ``o + [h_q + 1, q*h_q]`` at stage ``q+1``; refinement adds the column
    offsets of each higher stage, so the zone starts are the sumset
    ``O_q + ... + O_{stage-1} + h_q + 1``.
    """
    starts = [np.zeros(0, dtype=np.int64)]
    ends = [np.zeros(0, dtype=np.int64)]
    for q in (q for q in table.params.effective_marker_stages() if q < stage):
        h_q = table.height(q)
        starts.append(_offset_sums(table, q, stage, h_q + 1))
        ends.append(starts[-1] + ((q - 1) * h_q - 1))
    return np.concatenate(starts), np.concatenate(ends)


def _offset_sums(table: StageTable, lo: int, hi: int, start: int = 0) -> np.ndarray:
    """``start`` plus one column offset of each stage ``lo .. hi-1``, as int64
    in the order of :func:`~ergolab.tower.refine`, top stage most
    significant: for ``lo = 1``, the base floors at stage ``hi``."""
    sums = np.array([start], dtype=np.int64)
    for j in range(lo, hi):
        sums = (np.asarray(table.column_offsets(j), dtype=np.int64)[:, None] + sums).ravel()
    return sums


def _unpaired(a: np.ndarray) -> np.ndarray:
    """The values of the sorted array ``a`` that occur an odd number of times."""
    if not a.size:
        return a
    first = np.flatnonzero(np.concatenate(([True], a[1:] != a[:-1])))
    runs = np.diff(np.concatenate((first, [a.size])))
    return a[first[runs % 2 == 1]]


def cocycle_context(table: StageTable, stage: int) -> CocycleContext:
    """Sorted marker floors at ``stage``, whose height must fit in int64.

    Orbit segments never leave the stage, so the height bound also bounds
    every floor index and step count the numpy kernels see.  Past int64, or
    past ``_CONTEXT_BUDGET`` marker and base floors counted from the cut
    counts, it raises :class:`~ergolab.tower.BudgetExceeded` before anything
    is built.  No two markers share a floor, so the zone edges are the
    marker floors.
    """
    h = table.height(stage)
    if h >= 2**63:
        raise BudgetExceeded(f"stage {stage} height {h} >= 2**63 does not fit in int64")
    markers, base = 0, 1
    for j in range(stage - 1, 0, -1):
        base *= table.cut_count(j)
        markers += 2 * base * table.params.carries_markers(j)
    if markers + base > _CONTEXT_BUDGET:
        raise BudgetExceeded(
            f"stage {stage} holds {markers} marker floors and {base} base floors,"
            f" over the budget of {_CONTEXT_BUDGET} floors"
        )
    starts, ends = _swap_zones(table, stage)
    return CocycleContext(table, stage, np.sort(np.concatenate((starts - 1, ends))))


def _context_stage(table: StageTable, n_max: int) -> int:
    """The smallest stage where every base fragment can take ``n_max`` steps."""
    unit = FloorSet(1, (0,))
    for stage in range(1, table.j_max + 1):
        if _max_index_at(table, unit, stage) + n_max < table.height(stage):
            return stage
    raise StageOverflow(
        f"no materialized stage admits {n_max} steps from the base;"
        f" rebuild with j_max > {table.j_max}"
    )


def context_for(table: StageTable, n_max: int) -> CocycleContext:
    """Context at the smallest stage where every base fragment can take ``n_max`` steps."""
    return cocycle_context(table, _context_stage(table, n_max))


@dataclass(frozen=True)
class LeveledSet:
    """A subset of tower x level-bit space: one FloorSet per level."""

    level0: FloorSet
    level1: FloorSet

    def total_measure(self, table: StageTable) -> Fraction:
        return measure(table, self.level0) + measure(table, self.level1)


def base_leveled_set(table: StageTable, stage: int) -> LeveledSet:
    return LeveledSet(base_floorset(table, stage), FloorSet(stage, ()))


def _lift(a: LeveledSet, n: int, ctx: CocycleContext) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fragments of ``a`` at the context stage as int64 floors, their
    level bits, and the parity ``zone(f) XOR zone(f+n)`` of the markers each
    meets in ``n`` steps.  Raises :class:`SegmentEscapesTower` when a
    fragment cannot take ``n`` steps inside the stage."""
    if n < 0:
        raise ValueError(f"step count must be >= 0, got {n}")
    l0, l1 = (refine(ctx.table, fs, ctx.stage).indices for fs in (a.level0, a.level1))
    floors = np.asarray(l0 + l1, dtype=np.int64)
    level = np.repeat(np.array([False, True]), (len(l0), len(l1)))
    if floors.size and int(floors.max()) + n >= ctx.height():
        raise SegmentEscapesTower(
            f"fragment {int(floors.max())} cannot take {n} steps inside stage {ctx.stage}"
        )
    return floors, level, ctx.in_zone(floors) != ctx.in_zone(floors + n)


def _leveled(stage: int, floors: np.ndarray, level: np.ndarray) -> LeveledSet:
    return LeveledSet(
        FloorSet.of(stage, floors[~level].tolist()), FloorSet.of(stage, floors[level].tolist())
    )


def straight_orbit(a: LeveledSet, n: int, ctx: CocycleContext) -> LeveledSet:
    """n-fold straight lift: every fragment moves up n floors, levels unchanged."""
    floors, level, _ = _lift(a, n, ctx)
    return _leveled(ctx.stage, floors + n, level)


def flip_orbit(a: LeveledSet, n: int, ctx: CocycleContext) -> LeveledSet:
    """n-fold flip lift: fragment f on level z lands on level z XOR zone(f) XOR zone(f+n)."""
    floors, level, parity = _lift(a, n, ctx)
    return _leveled(ctx.stage, floors + n, level ^ parity)


def overlap_measure(n: int, a: LeveledSet, ctx: CocycleContext) -> Fraction:
    """Exact measure of (straight-lift image) intersect (flip-lift image) after n steps.

    Both lifts move fragments to the same x-floors, so the intersection is
    the mass of fragments whose parity is 0.  Requires the two levels of
    ``a`` to occupy disjoint x-floors (orbit sets of the base do).
    """
    floors, _, parity = _lift(a, n, ctx)
    floors = np.sort(floors)
    if (floors[1:] == floors[:-1]).any():
        raise ValueError("overlap_measure needs level-disjoint x-floors")
    return int(np.count_nonzero(~parity)) * ctx.table.width(ctx.stage)


def level_swap(table: StageTable, a: LeveledSet) -> LeveledSet:
    """The involution that flips the level of every swap-zone floor."""
    ctx = cocycle_context(table, max(a.level0.stage, a.level1.stage))
    floors, level, _ = _lift(a, 0, ctx)
    return _leveled(ctx.stage, floors, level ^ ctx.in_zone(floors))


# ---------------------------------------------------------------------------
# window verification


@dataclass(frozen=True)
class WindowCheck:
    """Outcome of checking one claimed window on every step count."""

    kind: str  # "disjoint" or "coincide"
    lo: int
    hi: int
    mode: str  # "exhaustive" or "sampled": how the violations are listed
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


# most violating steps a window lists one by one; past it, the sample grid's size
_GRID_POINTS = 10_000
# most candidate partial sums one stage of a pruned sumset may form, and most
# (d, b) events an uncertified window or one fragment chunk of a series may
# expand: guards on work, checked before it is done so that a run past them
# fails fast
_PARTIAL_BUDGET = 1 << 20
_EVENT_BUDGET = 1 << 20


def _runs(first: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges ``first[k] .. first[k] + lengths[k] - 1``, concatenated."""
    runs = np.arange(lengths.sum())
    runs += np.repeat(first - (np.cumsum(lengths) - lengths), lengths)
    return runs


def _merge_events(times: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``times``, sorted, each with the sum of its ``weights``:
    one stable sort and one ``reduceat``, on int64 or object (Python-int)
    times alike."""
    if not times.size:
        return times, weights
    order = np.argsort(times, kind="stable")
    times = times[order]
    first = np.flatnonzero(np.concatenate(([True], times[1:] != times[:-1])))
    return times[first], np.add.reduceat(weights[order], first)


def _sample_grid(lo: int, hi: int, points: int) -> np.ndarray:
    """``points`` evenly spaced steps ``lo + 1 + span*k // (points-1)`` from
    ``lo+1`` to ``hi-1`` of the open window ``(lo, hi)``, plus ``lo+2`` and
    ``hi-2``, sorted and without duplicates; a window with at most one
    interior step gives all of them.  int64 while ``hi < 2**63``, else Python ints:
    ``span*k // d`` is split as ``(span // d)*k + (span % d)*k // d`` so that
    no product passes ``span``."""
    dtype = np.int64 if hi < 2**63 else object
    if hi - lo <= 2:
        return np.arange(lo + 1, hi, dtype=dtype)
    span, d = hi - lo - 2, max(points - 1, 1)
    k = np.arange(points).astype(dtype)
    grid = lo + 1 + span // d * k + span % d * k // d
    ends = np.array([lo + 1, lo + 2, hi - 2, hi - 1], dtype=dtype)
    grid = np.sort(np.concatenate((grid, ends)))
    return grid[np.concatenate(([True], grid[1:] != grid[:-1]))]


def _check_partials(count: int, what: str) -> None:
    if count > _PARTIAL_BUDGET:
        raise BudgetExceeded(
            f"{what}: a pruned sum would form {count} partial sums at one stage,"
            f" over the budget of {_PARTIAL_BUDGET}"
        )


def _pruned_sums(digits: list[dict[int, int]], lo: int, hi: int, what: str) -> dict[int, int]:
    """The sums of one value from each digit set that lie in ``[lo, hi]``,
    with their multiplicities: ``digits`` maps values to multiplicities, top
    stage first.  A partial sum is dropped as soon as the digits still to
    come cannot bring it into range.  Before a stage forms more than
    ``_PARTIAL_BUDGET`` candidate sums it raises
    :class:`~ergolab.tower.BudgetExceeded` naming ``what``."""
    rest_lo = [0, *itertools.accumulate(map(min, reversed(digits)))]
    rest_hi = [0, *itertools.accumulate(map(max, reversed(digits)))]
    sums = {0: 1}
    for k, digit in enumerate(digits):
        _check_partials(len(sums) * len(digit), what)
        keep_lo, keep_hi = lo - rest_hi[-k - 2], hi - rest_lo[-k - 2]
        nxt: dict[int, int] = {}
        for v, m in sums.items():
            for d, c in digit.items():
                if keep_lo <= v + d <= keep_hi:
                    nxt[v + d] = nxt.get(v + d, 0) + m * c
        sums = nxt
    return sums


def _survivors(table: StageTable, stage: int, lo: int, hi: int, what: str) -> list:
    """The terms ``(q, d, mult(d))`` of the violator sum that a step of the
    window ``(lo, hi)`` can use: for each marker stage ``q < stage``, the
    differences ``d = p - p'`` of ``P_q`` (one column offset per stage
    ``q .. stage-1``) that can carry a base floor ``b <= M_q`` into
    ``[h_q + 1, q*h_q]``, with the number of pairs ``(p, p')`` that give each."""
    unit = FloorSet(1, (0,))
    diffs = [
        collections.Counter(a - b for a in o for b in o)
        for o in map(table.column_offsets, range(stage - 1, 1, -1))
    ]
    terms = []
    for q in table.params.effective_marker_stages():
        if q < stage:
            h, m = table.height(q), _max_index_at(table, unit, q)
            sums = _pruned_sums(diffs[: stage - q], lo + 1 - q * h, hi - 2 - h + m, what)
            terms += [(q, d, c) for d, c in sorted(sums.items())]
    return terms


def _base_count(table: StageTable, q: int, x: np.ndarray) -> np.ndarray:
    """``C_q(x) = #{b in B_q : b <= x}`` for each ``x``, where ``B_q`` are the
    base floors at stage ``q``.  Column blocks are disjoint and ascending, so
    it is a digit descent: per stage from ``q-1`` down, find the column of
    ``x``, count the full columns below it and subtract its offset; one
    ``searchsorted`` per stage, and no ``B_q`` is built."""
    inside = x >= 0
    x = np.where(inside, x, 0)
    count = np.ones_like(x)
    size = math.prod(table.cut_count(i) for i in range(1, q))
    for j in range(q - 1, 0, -1):
        o = np.asarray(table.column_offsets(j), dtype=x.dtype)
        size //= len(o)
        col = np.searchsorted(o, x, side="right") - 1
        count += col * size
        x = x - o[col]
    return np.where(inside, count, 0)


def _violators(table: StageTable, terms, steps: np.ndarray):
    """Base fragments inside a swap zone after each of ``steps``: the sum over
    the survivors ``(q, d, mult)`` of ``mult * #{b in B_q : h_q < b + n - d <= q*h_q}``."""
    v = np.zeros_like(steps)
    for q, d, m in terms:
        h = table.height(q)
        v += m * (_base_count(table, q, q * h + d - steps) - _base_count(table, q, h + d - steps))
    return v


def _violating_runs(
    table: StageTable, terms, lo: int, hi: int, want: int, total: int, dtype, what: str
) -> tuple[np.ndarray, np.ndarray]:
    """First steps and lengths of the runs of ``(lo, hi)`` whose parity-0
    count is not ``want``, from the events of the survivors ``terms``: base
    floor ``b`` of ``B_q`` adds ``mult`` violators on the steps
    ``[h_q + 1 + d - b, q*h_q + d - b]``.  The events are counted with
    :func:`_base_count` first; past ``_EVENT_BUDGET`` it raises
    :class:`~ergolab.tower.BudgetExceeded`."""
    # the base floors first .. last of B_q are those whose steps meet (lo, hi)
    spans, events = [], 0
    for q, d, m in terms:
        h = table.height(q)
        first, last = h + d - hi + 2, q * h + d - lo - 1
        below = _base_count(table, q, np.array([last, first - 1], dtype=dtype))
        events += int(below[0] - below[1])
        spans.append((q, d, m, h, first, last))
    if events > _EVENT_BUDGET:
        raise BudgetExceeded(
            f"{what} is not certified: its {len(terms)} surviving differences"
            f" give {events} (d, b) events, over the budget of {_EVENT_BUDGET}"
        )
    times = [np.array([lo + 1, hi], dtype=dtype)]
    weights = [np.zeros(2, dtype=np.int64)]
    for q, d, m, h, first, last in spans:
        digits = [dict.fromkeys(table.column_offsets(i), 1) for i in range(q - 1, 0, -1)]
        b = np.array(sorted(_pruned_sums(digits, first, last, what)), dtype=dtype)
        times += [np.maximum(h + 1 + d - b, lo + 1), np.minimum(q * h + d - b, hi - 1) + 1]
        weights += [np.full(len(b), m, dtype=np.int64), np.full(len(b), -m, dtype=np.int64)]
    t, delta = _merge_events(np.concatenate(times), np.concatenate(weights))
    # run k covers the steps t[k] .. t[k+1] - 1; the last time is hi
    bad = (total - np.cumsum(delta))[:-1] != want
    return t[:-1][bad], np.diff(t)[bad]


def verify_windows(table: StageTable, j: int) -> WindowReport:
    """Check the disjointness/coincidence claims for marker stage ``2j`` on
    every step count strictly inside both windows, from the stage table alone.

    At the context stage ``s`` of the coincidence window, the base floors are
    ``B = B_q + P_q`` for each marker stage ``q < s`` (``B_q`` inside the
    stage-``q`` tower, ``P_q`` the column offsets of stages ``q .. s-1``), and
    no base floor lies in a swap zone.  So a fragment's parity after ``n``
    steps is whether it sits in a zone, and the fragments that do number
    ``sum_q sum_d mult(d) * (C_q(q*h_q + d - n) - C_q(h_q + d - n))`` over
    the differences ``d = p - p'`` of ``P_q``.  Only the ``d`` that some step
    of the window can use survive a pruned search (:func:`_pruned_sums`), and
    ``C_q`` is a vectorised digit descent (:func:`_base_count`).

    A window is *certified* when the survivors force its outcome: a
    disjointness window whose only survivor is ``d = 0`` at ``q = 2j``
    violates on exactly the leak ``(q*h_q - M_q, q*h_q)``, ``M_q`` the top
    base floor at stage ``q``; with no survivor no fragment enters a zone,
    so a coincidence window never violates and a disjointness window
    violates on every step, runs that :func:`_violating_runs` finds from no
    events.  Any other window is expanded from its survivors' events by the
    same function.  Up to ``_GRID_POINTS`` violating steps are all listed
    (mode ``"exhaustive"``, ``checked_count`` the window's steps), more only
    on ``_sample_grid(lo, hi, _GRID_POINTS)`` (mode ``"sampled"``,
    ``checked_count`` the grid's size); ``mode`` describes the listing, not
    the check.  A search or an expansion over its budget raises
    :class:`~ergolab.tower.BudgetExceeded`.

    The outcome for j=1 is recorded but not asserted anywhere: the smallest
    stage is run as a diagnostic only.
    """
    (d_lo, d_hi), (c_lo, c_hi) = claim_windows(table, j)
    stage = _context_stage(table, c_hi - 1)
    total = math.prod(table.cut_count(i) for i in range(1, stage))
    w = table.width(stage)
    q = 2 * j
    # every step, surviving difference and descent argument is at most 2*top
    # in magnitude
    marker_stages = (p for p in table.params.effective_marker_stages() if p < stage)
    top = c_hi + max(((p + 1) * table.height(p) for p in marker_stages), default=0)
    dtype = np.int64 if 2 * top < 2**63 else object

    checks = []
    for kind, lo, hi, want in (("disjoint", d_lo, d_hi, 0), ("coincide", c_lo, c_hi, total)):
        what = f"j={j} {kind} window ({lo}, {hi})"
        terms = _survivors(table, stage, lo, hi, what)
        if kind == "disjoint" and [t[:2] for t in terms] == [(q, 0)]:
            m_q = _max_index_at(table, FloorSet(1, (0,)), q)
            first = max(lo + 1, hi - m_q + 1)
            starts = np.array([first] if first < hi else [], dtype=dtype)
            lengths = hi - starts
        else:
            starts, lengths = _violating_runs(table, terms, lo, hi, want, total, dtype, what)

        if lengths.sum() <= _GRID_POINTS:
            mode, checked = "exhaustive", hi - lo - 1
            n = lengths.astype(np.int64)
            steps = np.repeat(starts, n) + _runs(np.zeros_like(n), n)
        else:
            grid = _sample_grid(lo, hi, _GRID_POINTS).astype(dtype)
            mode, checked = "sampled", grid.size
            run = np.searchsorted(starts, grid, side="right") - 1
            steps = grid[(run >= 0) & (grid < (starts + lengths)[run])]
        values = (total - _violators(table, terms, steps)).tolist()
        text = {c: f"{(v := c * w).numerator}/{v.denominator}" for c in set(values)}
        listed = tuple(text[c] for c in values)
        checks.append(WindowCheck(kind, lo, hi, mode, checked, tuple(steps.tolist()), listed))
    return WindowReport(j=j, stage=stage, asserted=(j >= 2), checks=tuple(checks))


# ---------------------------------------------------------------------------
# series: the violator sum per fragment chunk

_FRAGMENT_CHUNK = 2048


def _sumset(digits: list, lo: int, hi: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_pruned_sums` in numpy, on digits ``(values, mults)`` of sorted
    int64 arrays: the sorted sums in ``[lo, hi]`` and their multiplicities.

    Each engine keeps the routine that measured faster for it.  The block
    sums of ``series`` on the staircase preset form 242k partial sums, almost
    none pruned or merged, and Python dicts took 0.19 s of a 0.34 s profiled
    run.  ``verify`` must work past int64, and on its default run's 12 tiny
    searches numpy took 0.43 ms against 0.07 ms for dicts."""
    rest_lo = [0, *itertools.accumulate(int(v[0]) for v, _ in reversed(digits))]
    rest_hi = [0, *itertools.accumulate(int(v[-1]) for v, _ in reversed(digits))]
    sums, mults = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    for k, (values, counts) in enumerate(digits):
        _check_partials(sums.size * values.size, what)
        cand = (sums[:, None] + values).ravel()
        keep = (cand >= lo - rest_hi[-k - 2]) & (cand <= hi - rest_lo[-k - 2])
        sums, mults = _merge_events(cand[keep], (mults[:, None] * counts).ravel()[keep])
    return sums, mults


def _differences(o: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The differences ``x - y`` for ``x`` in ``o`` and ``y`` in ``a``, sorted,
    with the number of pairs that give each."""
    d = (o[:, None] - a).ravel()
    return _merge_events(d, np.ones(d.size, dtype=np.int64))


def _blocks(size: dict[int, int], c0: int, c1: int):
    """The aligned blocks that tile the base indices ``[c0, c1)``, in order,
    at most two per stage, ``size[j]`` floors at stage ``j``: ``(start,
    level, count)`` holds ``count`` values of the stage-``level`` digit from
    ``start``'s, all lower digits and ``start``'s higher ones."""
    while c0 < c1:
        level = max(j for j in range(1, max(size)) if c0 % size[j] == 0 and c0 + size[j] <= c1)
        radix = size[level + 1] // size[level]
        count = min((c1 - c0) // size[level], radix - c0 // size[level] % radix)
        yield c0, level, count
        c0 += count * size[level]


def _chunk_plateaus(
    table: StageTable, stage: int, base: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Parity-0 count of the base floors ``base`` (as :func:`_offset_sums`
    orders them) over the steps ``1 .. n``: ``counts[k]`` holds on
    ``(edges[k], edges[k+1]]`` (the last up to ``n``), and ``edges[0] == 0``.

    A fragment flips at ``t`` in ``[0, n)`` when ``f + t`` is a zone edge,
    changing the count from step ``t+1`` on.  The edges are the union over
    chunks of ``_FRAGMENT_CHUNK`` fragments of the times whose net within the
    chunk is nonzero, so an edge may change nothing where the nets of several
    chunks cancel (see :class:`~ergolab.averages.OverlapProfile`).

    The nets come from the violator sum.  A chunk is a few aligned blocks
    (:func:`_blocks`) of the mixed-radix base floors ``sum_j O_j[i_j]``, each
    a product of offsets ``A_j`` from each ``O_j``.  Per marker stage ``q``,
    a block's floor is ``b + p``, ``b`` in ``A_1 + ... + A_{q-1}`` (a slice
    of the base floors) and ``p`` in ``A_q + ... + A_{stage-1}``.  It enters
    the zone ``p' + [h_q + 1, q*h_q]`` at ``h_q + d - b`` and leaves it at
    ``q*h_q + d - b``, ``d = p' - p`` a sum of one difference from each
    ``O_j - A_j``, with multiplicities, pruned to a flip in ``[0, n)``
    (:func:`_sumset`).  A chunk's ``(d, b)`` events are counted before any
    is built; past ``_EVENT_BUDGET`` it raises
    :class:`~ergolab.tower.BudgetExceeded`.  Each block's events join the
    chunk's nets, zeros dropped, so the memory is one block's events plus
    the nets and the union.
    """
    offsets = [np.asarray(table.column_offsets(j), dtype=np.int64) for j in range(1, stage)]
    size = {j: math.prod(o.size for o in offsets[: j - 1]) for j in range(1, stage + 1)}
    full = [_differences(o, o) for o in offsets]
    heights = {q: table.height(q) for q in table.params.effective_marker_stages() if q < stage}
    chunks = -(-base.size // _FRAGMENT_CHUNK)
    edges, delta = np.zeros(1, dtype=np.int64), np.array([base.size], dtype=np.int64)
    for c0 in range(0, base.size, _FRAGMENT_CHUNK):
        what = f"series fragment chunk {c0 // _FRAGMENT_CHUNK} of {chunks}"
        blocks = []
        for start, level, count in _blocks(size, c0, min(c0 + _FRAGMENT_CHUNK, base.size)):
            digits = []  # O_j - A_j, top stage first
            for j in range(stage - 1, 0, -1):
                at = start // size[j] % offsets[j - 1].size
                a = offsets[j - 1][at : at + (count if j == level else 1)]
                digits.append(full[j - 1] if j < level else _differences(offsets[j - 1], a))
            terms = []
            for q, h in heights.items():
                # every O_j[0] is 0, so the first size[q] base floors are B_q
                b = base[start % size[q] :][: min(count * size[level], size[q])]
                d, m = _sumset(digits[: stage - q], int(b[0]) - q * h, int(b[-1]) - h + n - 1, what)
                terms.append((q, h, b, d, m))
            blocks.append(terms)
        events = sum(b.size * d.size for terms in blocks for _, _, b, d, _ in terms)
        if events > _EVENT_BUDGET:
            raise BudgetExceeded(
                f"{what} needs {events} (d, b) events, over the budget of {_EVENT_BUDGET}"
            )
        times, nets = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        for terms in blocks:
            parts = [(times, nets)]
            for q, h, b, d, m in terms:
                t, w = (d - b[:, None]).ravel(), np.tile(m, b.size)
                for lag, sign in ((h, -1), ((q - 1) * h, 1)):  # enter, then leave
                    t += lag
                    keep = (t >= 0) & (t < n)
                    parts.append((t[keep], sign * w[keep]))
            times, nets = map(np.concatenate, zip(*parts))
            del parts  # before the merge makes its copies
            times, nets = _merge_events(times, nets)
            times, nets = times[nets != 0], nets[nets != 0]
        edges, delta = _merge_events(np.concatenate((edges, times)), np.concatenate((delta, nets)))
    return edges, np.cumsum(delta)


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


def verify_conjugacy(table: StageTable, stage: int) -> ConjugacyReport:
    """Check ``zone(f) XOR zone(f+1) == marker(f)`` on every floor of ``stage``.

    The level swap is an involution, so this one-step identity is
    swap . straight . swap == flip, and with it swap . straight^n . swap ==
    flip^n for every ``n``.  The zone indicator changes between ``f`` and
    ``f+1`` exactly on the zone edges, so the mismatches are the floors in
    exactly one of the zone edges (numpy sumsets of :func:`_swap_zones`) and
    the distinct markers of :func:`~ergolab.tower.marker_floorset` refined in
    Python; a floor that two marker stages share is one marker, and a
    mismatch.
    """
    ctx = cocycle_context(table, stage)
    qs = [q for q in table.params.effective_marker_stages() if q < stage]
    fs = (refine(table, marker_floorset(table, q // 2), stage).indices for q in qs)
    # marker(f) is 0 or 1, so a floor that two marker stages share counts
    # once; a sort and a mask, as numpy 2.4's np.unique takes about 20x longer
    markers = np.sort(np.fromiter((f for m in fs for f in m), dtype=np.int64))
    markers = markers[np.diff(markers, prepend=markers[:1] - 1) != 0]
    mism = _unpaired(np.sort(np.concatenate((ctx.zone_edges, markers))))
    return ConjugacyReport(
        stage=stage,
        floors_checked=ctx.height() - 1,
        mismatched_floors=tuple(mism.tolist()),
    )
