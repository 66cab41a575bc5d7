"""Event-driven overlap profile and running pair-integral averages.

Per base fragment ``f``, the overlap's parity flips exactly at step counts
``e - f`` for zone edges ``e`` (where swap zones start and end) in ``[f, f + n_max)``.
Merging all flip events produces the overlap as a piecewise-constant
function of the step count with exact integer plateau values, so the
running average over tens of millions of steps costs O(events + checkpoints)
instead of O(N).

:func:`event_sweep` takes that step function from step 0 out of the
violator sum of :mod:`ergolab.extension`, one fragment chunk at a time:
each chunk's flips come from the column offsets of its aligned blocks, not
from one pair per fragment and zone edge.  A chunk with too many events
raises :class:`~ergolab.tower.BudgetExceeded` before any of them is built.

Running sums use Neumaier-compensated accumulation, vectorised as two
sequential ``np.cumsum``s; given a fixed profile the emitted series is
bit-identical across runs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .extension import CocycleContext, LeveledSet, SegmentEscapesTower, claim_windows
from .extension import _chunk_plateaus
from .suspension import SuspensionModel, cylinder_constant, pair_integrand
from .tower import BudgetExceeded, StageTable, _offset_sums, refine

__all__ = [
    "Milestone",
    "milestone_sequence",
    "OverlapProfile",
    "event_sweep",
    "Series",
    "check_checkpoint_ratio",
    "default_checkpoints",
    "average_series",
    "BoundCheck",
    "DivergenceReport",
    "divergence_report",
]

# most checkpoints a series may emit, each a CSV row and its three output
# columns (n, level, a_n) and a milestone flag
_CHECKPOINT_BUDGET = 1 << 22

# checkpoints per block of average_series: on series-dense's 196,695 the
# call's traced peak is 6.6 MiB, 12.5 MiB at 2**16 (11.2 in one pass) and
# 6.2 MiB at 2**12, for twice the loop turns
_SUM_BLOCK = 1 << 13

_MILESTONE_KINDS = ("disjoint_start", "disjoint_end", "coincide_start", "coincide_end")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Milestone:
    """One entry of the oscillation schedule: index 4j+k and its step count."""

    index: int
    n: int
    j: int
    kind: str


def milestone_sequence(table: StageTable, j_top: int) -> tuple[Milestone, ...]:
    """Milestones h_{2j}, 2j*h_{2j}, h_{2j+1}, 2j*h_{2j+1} for j = 1..j_top.

    Only j with markers on stage 2j (and stage 2j+1 materialized) are
    included.  The sequence must be strictly increasing with consecutive
    ratio >= 2; both are enforced here.
    """
    out: list[Milestone] = []
    for q in table.params.effective_marker_stages():
        j = q // 2
        if j > j_top:
            break
        (d_lo, d_hi), (c_lo, c_hi) = claim_windows(table, j)
        for k, (n, kind) in enumerate(zip((d_lo, d_hi, c_lo, c_hi), _MILESTONE_KINDS)):
            out.append(Milestone(index=4 * j + k, n=n, j=j, kind=kind))
    for prev, cur in zip(out, out[1:]):
        if cur.n < 2 * prev.n:
            raise ValueError(
                f"milestone ratio below 2: N_{prev.index}={prev.n}, N_{cur.index}={cur.n}"
            )
    return tuple(out)


@dataclass(frozen=True, eq=False)
class OverlapProfile:
    """Piecewise-constant overlap: ``counts[k]`` parity-0 fragments on
    ``(edges[k], edges[k+1]]`` (and past the last edge up to ``n_max``).
    ``edges`` and ``counts`` are read-only int64 arrays.

    The edges are the union over the fragment chunks of
    ``extension._chunk_plateaus`` of the flip times whose net change within
    the chunk is nonzero, so an edge may change nothing
    (``counts[k] == counts[k-1]``) where the nets of several chunks cancel,
    and those edges depend on ``extension._FRAGMENT_CHUNK`` alone: a chunk's
    nets are the same however its events are formed, so summing its blocks'
    differences per marker stage before they meet the base floors moves no
    edge.  ``report.json``'s ``plateau_count`` counts them (68,049 on the
    ``series-dense`` benchmark, 66,537 merged): merging the chunks into one
    changes that digest, which the benchmark must record first.
    """

    n_max: int
    total: int
    width: Fraction
    edges: np.ndarray  # strictly increasing, edges[0] == 0
    counts: np.ndarray

    def count_at(self, n: int) -> int:
        if not 1 <= n <= self.n_max:
            raise ValueError(f"step count {n} outside [1, {self.n_max}]")
        return int(self.counts[np.searchsorted(self.edges, n) - 1])

    def overlap_at(self, n: int) -> Fraction:
        return self.count_at(n) * self.width


def event_sweep(a: LeveledSet, ctx: CocycleContext, n_max: int) -> OverlapProfile:
    """Build the exact overlap profile of the two lifted images of ``a``,
    which must be the base set at the context stage, on level 0.

    The base floors must admit ``n_max`` steps inside the context stage.
    The engine's differences and partial sums reach twice the stage height,
    so a stage of height ``2**62`` or more, or a fragment chunk over the
    event budget, raises :class:`~ergolab.tower.BudgetExceeded`.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    table, stage = ctx.table, ctx.stage
    h = ctx.height()
    if 2 * h >= 2**63:
        raise BudgetExceeded(f"stage {stage}: differences reach 2*h = {2 * h} >= 2**63")
    fragments = refine(table, a.level0, stage).floors
    if len(a.level1) or not np.array_equal(fragments, _offset_sums(table, (0,), 1, stage)):
        raise ValueError("event_sweep takes the base set at the context stage, on level 0")
    if (top := int(fragments[-1])) + n_max >= h:
        raise SegmentEscapesTower(f"fragment {top} cannot take {n_max} steps inside stage {stage}")
    edges, counts = _chunk_plateaus(table, stage, fragments, n_max)
    return OverlapProfile(
        n_max=n_max,
        total=fragments.size,
        width=table.width(stage),
        edges=_read_only(edges),
        counts=_read_only(counts),
    )


@dataclass(frozen=True, eq=False)
class Series:
    """The running averages at every checkpoint, held column by column in
    read-only numpy arrays.

    ``levels`` are the distinct ``(overlap, integrand)`` pairs of the profile
    and ``level[i]`` is the one at checkpoint ``n[i]``: the 196,695
    checkpoints of the densest benchmark grid share 793 of them.
    """

    n: np.ndarray  # int64, strictly increasing
    level: np.ndarray
    a_n: np.ndarray  # float64
    is_milestone: np.ndarray  # bool
    levels: tuple[tuple[Fraction, float], ...]

    def __len__(self) -> int:
        return len(self.n)


def _checkpoint_bound(n_max: int, ratio: float) -> int:
    """An upper bound on ``len(default_checkpoints(n_max, ratio))``, sound where
    it is within the budget: below ``n0 = 2/(ratio - 1) + 2`` the grid steps by
    at least 1, and from ``n0`` on ``int(n * ratio) >= n * (1 + (ratio - 1)/2)``
    (the 2 covers the float rounding of ``n * ratio``)."""
    d = ratio - 1.0
    n0 = int(2 / d) + 2
    return min(n_max, n0 + math.ceil(math.log(max(n_max, n0) / n0) / math.log1p(d / 2)) + 2)


def check_checkpoint_ratio(ratio: float) -> None:
    """Refuse a checkpoint ratio that is not a finite number > 1."""
    # the upper bound also refuses inf and nan (json loads Infinity and NaN)
    # and an integer too large for a float, where math.isfinite would raise
    if not 1.0 < ratio <= sys.float_info.max:
        raise ValueError(f"checkpoint_ratio must be a finite number > 1, got {ratio}")


def default_checkpoints(n_max: int, ratio: float) -> np.ndarray:
    """Geometric grid of step counts from 1 to n_max inclusive, as a
    read-only int64 array: ``n`` steps to ``max(int(n * ratio), n + 1)``.
    Raises :class:`~ergolab.tower.BudgetExceeded` first if it may pass the
    budget, or if ``n_max >= 2**62``, past any stage the series engine admits.

    The step ``int(n * ratio) - n`` is about ``n * (ratio - 1)``, so it holds
    for long arithmetic runs: one run of 1s below ``2/(ratio - 1)``, and
    3,855 runs for the 196,692 checkpoints of ``(77_115_780, 1.00005)``.
    Each run takes its first step from the rule and guesses its length from
    where ``n * (ratio - 1)`` reaches the next integer, so the Python loop
    runs once per run; the runs become the grid by ``np.cumsum``, and one
    numpy pass checks every step against the rule.  The grid is kept up to
    the first wrong step, if any, and the runs start again from the rule's
    next value, so the guess sets the cost, never the grid.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    check_checkpoint_ratio(ratio)
    if n_max >= 2**62:
        raise BudgetExceeded(f"checkpoints up to N={n_max} pass 2**62")
    bound = _checkpoint_bound(n_max, ratio)
    if bound > _CHECKPOINT_BUDGET:
        raise BudgetExceeded(
            f"checkpoint ratio {ratio!r} up to N={n_max} gives up to {bound} checkpoints,"
            f" over the budget of {_CHECKPOINT_BUDGET}"
        )
    # the step int(n * ratio) - n grows where n * (ratio - 1) passes an
    # integer, but the rounded product n * ratio may pass it early, by up to
    # n * ratio * 2**-53, so the runs end where n * d passes it
    d = ratio - 1.0 + ratio * 2**-52
    parts, n = [], 1
    while n < n_max:
        # the runs from n, whose first "step" is n itself; a run's terms
        # stay below (s + 1) / d and below n_max (conditionals, not min and
        # max: this loop runs once per run)
        steps, lengths = [n], [1]
        while n < n_max:
            m = int(n * ratio)
            s = (m if m < n_max else n_max) - n if m > n else 1
            k = math.ceil(((s + 1) / d - n) / s)
            if k < 1:
                k = 1
            elif n + s * (k - 1) >= n_max:
                k = -((n - n_max) // s)
            steps.append(s)
            lengths.append(k)
            n += s * k
        grid = np.cumsum(np.repeat(np.array(steps, dtype=np.int64), lengths))[:-1]
        # the rule's next term, capped at n_max; a product past 2**62 > n_max
        # is capped there first, so the cast cannot overflow
        want = np.minimum(grid * ratio, 2.0**62).astype(np.int64)
        np.maximum(want, grid + 1, out=want)
        np.minimum(want, n_max, out=want)
        wrong = np.flatnonzero(want[:-1] != grid[1:])
        end = wrong[0] + 1 if wrong.size else grid.size
        parts.append(grid[:end])
        n = int(want[end - 1])
    parts.append(np.array([n_max], dtype=np.int64))
    return _read_only(np.concatenate(parts))


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """The distinct values of ``a``, sorted: one stable sort, which merges
    sorted runs such as the checkpoints and milestones in linear time."""
    a = np.sort(a, kind="stable")
    return a[np.concatenate(([True], a[1:] != a[:-1]))]


def _neumaier_cumsum(x: np.ndarray, s: float, comp: float) -> tuple[np.ndarray, float, float]:
    """Neumaier-compensated running sums of ``x``, each within ~1 ulp, from
    the carry ``(s, comp)`` of the terms before, and the carry after ``x``.

    The plain running sum ``s`` and the running sum of its rounding errors
    ``comp`` are both sequential ``np.cumsum``s, so every entry is bit for
    bit what the scalar loop ``t = s + x; comp += err; s = t`` would give,
    and terms summed in pieces that pass the carry on give the sums of the
    whole.
    """
    cur = np.cumsum(np.concatenate(([s], x)))
    prev, cur = cur[:-1], cur[1:]
    err = np.where(np.abs(prev) >= np.abs(x), (prev - cur) + x, (x - cur) + prev)
    comps = np.cumsum(np.concatenate(([comp], err)))[1:]
    return cur + comps, cur[-1], comps[-1]


def average_series(
    model: SuspensionModel,
    profile: OverlapProfile,
    checkpoints: Iterable[int],
    milestones: Sequence[Milestone] = (),
) -> Series:
    """Running averages of the pair integrand, emitted at every checkpoint.

    The running sum steps at every checkpoint and every plateau end, by the
    step's length times the plateau's integrand, so the cost is proportional
    to the number of plateaus plus checkpoints, all of it in numpy but the
    integrand, once per distinct count.  The sorted checkpoints (with the
    milestones) go ``_SUM_BLOCK`` at a time: a block's stops are its
    checkpoints and the plateau ends since the block before, and the
    compensated sum carries its state and the last stop into the next
    block, so the temporaries are those of a block and the sums are bit for
    bit those of one pass.
    """
    out_of_range = ValueError(
        f"checkpoints must be a non-empty subset of [1, {profile.n_max}]"
    )
    try:
        miles = np.array([m.n for m in milestones], dtype=np.int64)
        if not isinstance(checkpoints, np.ndarray):
            checkpoints = [*checkpoints]
        t = np.concatenate((np.asarray(checkpoints, dtype=np.int64), miles))
    except OverflowError as exc:  # beyond int64 is beyond n_max too
        raise out_of_range from exc
    if not t.size:
        raise out_of_range
    t = _sorted_unique(t)
    if t[0] < 1 or t[-1] > profile.n_max:
        raise out_of_range
    # the counts lie in [0, total], so a table indexed by count numbers the
    # distinct ones in order, as np.unique(return_inverse=True) would
    seen = np.zeros(profile.total + 1, dtype=bool)
    seen[profile.counts] = True
    count_of = (np.cumsum(seen) - 1)[profile.counts]
    # the overlap c * w as a float is (c * num) / den: int true division
    # rounds correctly, as float(c * w) does, without Fraction arithmetic
    w = profile.width
    num, den = w.numerator, w.denominator
    levels = tuple(
        (c * w, pair_integrand(model, (c * num) / den))
        for c in np.flatnonzero(seen).tolist()
    )
    g_of = np.array([g for _, g in levels], dtype=np.float64)
    edges = profile.edges
    level = np.empty(t.size, dtype=count_of.dtype)
    a_n = np.empty(t.size)
    s = comp = 0.0
    last = 0
    for i in range(0, t.size, _SUM_BLOCK):
        block = t[i : i + _SUM_BLOCK]
        end = block[-1]
        lo = np.searchsorted(edges, last, "right")
        ends = edges[lo : np.searchsorted(edges, end, "right")]
        stops = _sorted_unique(np.concatenate((block, ends)))
        # plateau k holds on (edges[k], edges[k+1]], so a stop's plateau is
        # the number of edges below it, less one, as in count_at: the lo
        # edges up to last and those of ends below it
        at = count_of[np.searchsorted(ends, stops) + (lo - 1)]
        # each stop adds its distance from the stop before times its integrand
        sums, s, comp = _neumaier_cumsum(g_of[at] * np.diff(stops, prepend=last), s, comp)
        hit = np.searchsorted(stops, block)
        level[i : i + _SUM_BLOCK] = at[hit]
        np.divide(sums[hit], block, out=a_n[i : i + _SUM_BLOCK])
        last = end
    return Series(
        n=_read_only(t),
        level=_read_only(level),
        a_n=_read_only(a_n),
        is_milestone=_read_only(np.isin(t, miles)),
        levels=levels,
    )


@dataclass(frozen=True)
class BoundCheck:
    j: int
    kind: str  # "disjoint_end" or "coincide_end"
    n: int
    a_n: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class DivergenceReport:
    c: float
    c_squared: float
    milestone_points: tuple[tuple[Milestone, float], ...]
    bound_checks: tuple[BoundCheck, ...]
    empirical_min: float
    empirical_max: float
    gap: float
    insufficient_stages: bool

    def to_json_obj(self) -> dict:
        return {
            "c": self.c,
            "c_squared": self.c_squared,
            "milestones": [
                {
                    "index": m.index,
                    "j": m.j,
                    "kind": m.kind,
                    "n": str(m.n),
                    "a_n": a,
                }
                for m, a in self.milestone_points
            ],
            "bound_checks": [
                {
                    "j": b.j,
                    "kind": b.kind,
                    "n": str(b.n),
                    "a_n": b.a_n,
                    "bound": b.bound,
                    "passed": b.passed,
                }
                for b in self.bound_checks
            ],
            "empirical_min": self.empirical_min,
            "empirical_max": self.empirical_max,
            "gap": self.gap,
            "insufficient_stages": self.insufficient_stages,
        }


def divergence_report(
    series: Series,
    milestones: Sequence[Milestone],
    model: SuspensionModel,
) -> DivergenceReport:
    """Milestone averages, the two-sided bounds per j, and the observed gap.

    At the end of each disjointness window the average should be near c^2
    (bound c^2 + c/(2j) from the short prefix), at the end of each
    coincidence window near c (bound c*(1 - 1/(2j))); each bound is checked
    with a slack of ``1e-9 * c`` for float rounding.  The slack is relative:
    an absolute one passes every bound whatever ``a_n`` is once ``c`` falls
    below it, as it does for Poisson ``m >= 12``.
    """
    want = np.array([m.n for m in milestones], dtype=np.int64)
    at = np.minimum(np.searchsorted(series.n, want), len(series) - 1)
    missing = want[series.n[at] != want]
    if missing.size:
        raise ValueError(f"series does not cover milestones {missing.tolist()}")
    c = cylinder_constant(model)
    c2 = c * c
    points = tuple(zip(milestones, series.a_n[at].tolist()))
    checks: list[BoundCheck] = []
    for m, a_n in points:
        if m.kind == "disjoint_end":
            bound = c2 + c / (2 * m.j)
            checks.append(
                BoundCheck(m.j, m.kind, m.n, a_n, bound, a_n <= bound + 1e-9 * c)
            )
        elif m.kind == "coincide_end":
            bound = c * (1.0 - 1.0 / (2 * m.j))
            checks.append(
                BoundCheck(m.j, m.kind, m.n, a_n, bound, a_n >= bound - 1e-9 * c)
            )
    values = [a for _, a in points]
    js = {m.j for m in milestones}
    insufficient = len(js) < 2
    return DivergenceReport(
        c=c,
        c_squared=c2,
        milestone_points=points,
        bound_checks=tuple(checks),
        empirical_min=min(values) if values else math.nan,
        empirical_max=max(values) if values else math.nan,
        gap=(max(values) - min(values)) if values else math.nan,
        insufficient_stages=insufficient,
    )
