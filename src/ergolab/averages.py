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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .extension import CocycleContext, LeveledSet, SegmentEscapesTower, claim_windows
from .extension import _chunk_plateaus, _offset_sums
from .suspension import SuspensionModel, cylinder_constant, pair_integrand
from .tower import BudgetExceeded, StageTable, refine

__all__ = [
    "Milestone",
    "milestone_sequence",
    "OverlapProfile",
    "event_sweep",
    "Series",
    "default_checkpoints",
    "average_series",
    "BoundCheck",
    "DivergenceReport",
    "divergence_report",
]

# most checkpoints a series may emit, each a CSV row and ~9 numpy temporaries
_CHECKPOINT_BUDGET = 1 << 22

# terms per block of the compensated running sum
_SUM_BLOCK = 1 << 16

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
    and those edges depend on ``extension._FRAGMENT_CHUNK``.
    ``report.json``'s ``plateau_count`` counts them (68,049 on the
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
    fragments = np.asarray(refine(table, a.level0, stage).indices, dtype=np.int64)
    if a.level1.indices or not np.array_equal(fragments, _offset_sums(table, 1, stage)):
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


def default_checkpoints(n_max: int, ratio: float = 1.05) -> np.ndarray:
    """Geometric grid of step counts from 1 to n_max inclusive, as a
    read-only int64 array: ``n`` steps to ``max(int(n * ratio), n + 1)``.
    Raises :class:`~ergolab.tower.BudgetExceeded` first if it may pass the budget."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if ratio <= 1.0:
        raise ValueError(f"checkpoint ratio must be > 1, got {ratio}")
    bound = _checkpoint_bound(n_max, ratio)
    if bound > _CHECKPOINT_BUDGET:
        raise BudgetExceeded(
            f"checkpoint ratio {ratio!r} up to N={n_max} gives up to {bound} checkpoints,"
            f" over the budget of {_CHECKPOINT_BUDGET}"
        )
    out, n = [], 1
    while n < n_max:
        out.append(n)
        n = m if (m := int(n * ratio)) > n else n + 1
    out.append(n_max)
    return _read_only(np.array(out, dtype=np.int64))


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """The distinct values of ``a``, sorted: one sort, no hashing."""
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))]


def _neumaier_cumsum(x: np.ndarray) -> np.ndarray:
    """Neumaier-compensated running sums of ``x``, each within ~1 ulp.

    The plain running sum ``s`` and the running sum of its rounding errors are
    both sequential ``np.cumsum``s from 0.0, so every entry is bit for bit
    what the scalar loop ``t = s + x; comp += err; s = t`` would give.  They
    run ``_SUM_BLOCK`` terms at a time, each block's sums starting from the
    last ones of the block before, so the temporaries are those of a block.
    """
    out = np.empty_like(x)
    s = comp = 0.0
    for i in range(0, x.size, _SUM_BLOCK):
        block = x[i : i + _SUM_BLOCK]
        cur = np.cumsum(np.concatenate(([s], block)))
        prev, cur = cur[:-1], cur[1:]
        err = np.where(
            np.abs(prev) >= np.abs(block), (prev - cur) + block, (block - cur) + prev
        )
        comps = np.cumsum(np.concatenate(([comp], err)))[1:]
        np.add(cur, comps, out=out[i : i + _SUM_BLOCK])
        s, comp = cur[-1], comps[-1]
    return out


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
    integrand (once per distinct count) and the emitted points.
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
    levels = tuple(
        (o, pair_integrand(model, o))
        for o in (c * profile.width for c in np.flatnonzero(seen).tolist())
    )
    g_of = np.array([g for _, g in levels], dtype=np.float64)
    edges = profile.edges
    stops = _sorted_unique(np.concatenate((t, edges[(edges > 0) & (edges < t[-1])])))
    # plateau k holds on (edges[k], edges[k+1]]
    at = count_of[np.searchsorted(edges, stops) - 1]
    sums = _neumaier_cumsum(np.diff(stops, prepend=0) * g_of[at])
    hit = np.searchsorted(stops, t)
    return Series(
        n=_read_only(t),
        level=_read_only(at[hit]),
        a_n=_read_only(sums[hit] / t),
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
