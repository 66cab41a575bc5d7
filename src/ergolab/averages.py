"""Event-driven overlap profile and running pair-integral averages.

Per base fragment ``f``, the overlap's parity flips exactly at step counts
``e - f`` for marker floors ``e`` in ``[f, f + n_max)``.  Merging all flip
events produces the overlap as a piecewise-constant function of the step
count with exact integer plateau values, so the running average over tens of
millions of steps costs O(events + checkpoints) instead of O(N).

:func:`event_sweep` takes the fragments ``_FRAGMENT_CHUNK`` at a time.  It
packs each flip of a chunk as the int64 key ``2*t + bit`` (``bit = 1`` when
the flip raises the parity-0 count), sorts the keys in place and reduces
each run of equal ``t`` to the chunk's net change there.  The chunks' nonzero
nets are merged with one ``np.unique`` and the profile is their cumulative
sum, all in numpy.  Before allocating any flip, one ``searchsorted`` pass
counts the flips of every chunk; a chunk over ``_CHUNK_PAIR_BUDGET`` raises
:class:`PairBudgetExceeded` instead of exhausting memory.

Running sums use Neumaier-compensated accumulation; given a fixed profile the
emitted series is bit-identical across runs.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .extension import CocycleContext, LeveledSet, SegmentEscapesTower
from .suspension import SuspensionModel, cylinder_constant, pair_integrand
from .tower import StageOverflow, StageTable, refine

__all__ = [
    "Milestone",
    "milestone_sequence",
    "OverlapProfile",
    "PairBudgetExceeded",
    "event_sweep",
    "SeriesPoint",
    "default_checkpoints",
    "average_series",
    "BoundCheck",
    "DivergenceReport",
    "divergence_report",
]

_FRAGMENT_CHUNK = 2048
# most flips one fragment chunk may hold; the sweep keeps about 24 bytes per
# flip of a chunk alive at once, so this caps it near 400 MB
_CHUNK_PAIR_BUDGET = 1 << 24
# largest n_max whose flip keys 2*t + 1 (t < n_max) fit in int64
_MAX_STEPS = 2**62

_MILESTONE_KINDS = ("disjoint_start", "disjoint_end", "coincide_start", "coincide_end")


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
        h_q = table.height(q)
        h_q1 = table.height(q + 1)
        ns = (h_q, q * h_q, h_q1, q * h_q1)
        for k, (n, kind) in enumerate(zip(ns, _MILESTONE_KINDS)):
            out.append(Milestone(index=4 * j + k, n=n, j=j, kind=kind))
    for prev, cur in zip(out, out[1:]):
        if cur.n < 2 * prev.n:
            raise ValueError(
                f"milestone ratio below 2: N_{prev.index}={prev.n}, N_{cur.index}={cur.n}"
            )
    return tuple(out)


class PairBudgetExceeded(ValueError):
    """An event sweep would hold more flips in one fragment chunk than the budget."""


@dataclass(frozen=True)
class OverlapProfile:
    """Piecewise-constant overlap: ``counts[k]`` parity-0 fragments on
    ``(edges[k], edges[k+1]]`` (and past the last edge up to ``n_max``).

    The edges are the union over the fragment chunks of :func:`event_sweep`
    of the flip times whose net change within the chunk is nonzero.  An edge
    may therefore change nothing (``counts[k] == counts[k-1]``) when the nets
    of several chunks cancel, so those edges depend on ``_FRAGMENT_CHUNK``.
    ``report.json``'s ``plateau_count`` counts them (68,049 on the
    ``series-dense`` benchmark, 66,537 merged): an engine that drops them
    changes that digest, which the benchmark must record first.
    """

    stage: int
    n_max: int
    total: int
    width: Fraction
    edges: tuple[int, ...]  # strictly increasing, edges[0] == 0
    counts: tuple[int, ...]

    def count_at(self, n: int) -> int:
        if not 1 <= n <= self.n_max:
            raise ValueError(f"step count {n} outside [1, {self.n_max}]")
        return self.counts[bisect_left(self.edges, n) - 1]

    def overlap_at(self, n: int) -> Fraction:
        return self.count_at(n) * self.width

    def plateaus(self) -> Iterator[tuple[int, int, int]]:
        """Yield (lo, hi, count): count holds for step counts in (lo, hi]."""
        for k, c in enumerate(self.counts):
            lo = self.edges[k]
            hi = self.edges[k + 1] if k + 1 < len(self.edges) else self.n_max
            hi = min(hi, self.n_max)
            if hi > lo:
                yield lo, hi, c


def _chunk_flip_nets(
    frags: np.ndarray, e: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted flip times of one fragment chunk with their nonzero net changes.

    Fragment ``f`` flips at ``e[k] - f`` for ``k`` in ``[lo, hi)``; its first
    flip takes parity 0 -> 1, so flip ``k - lo`` lowers the parity-0 count when
    even and raises it when odd.  Each flip is packed as ``2*t + bit`` with
    ``bit = 1`` for a raise, so one in-place sort groups equal times and puts
    the lowering flips of each time before its raising ones.
    """
    lengths = hi - lo
    total = int(lengths.sum())
    starts = np.zeros(len(frags), dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    within = np.arange(total, dtype=np.int64)
    within -= np.repeat(starts, lengths)
    keys = e[within + np.repeat(lo, lengths)]
    keys -= np.repeat(frags, lengths)
    keys <<= 1
    keys |= within & 1
    del within
    keys.sort()
    times = keys >> 1
    run = np.flatnonzero(times[1:] != times[:-1])
    run += 1
    run = np.concatenate(([0], run))
    keys &= 1
    net = 2 * np.add.reduceat(keys, run) - np.diff(run, append=total)
    keep = net != 0
    return times[run[keep]], net[keep]


def event_sweep(a: LeveledSet, ctx: CocycleContext, n_max: int) -> OverlapProfile:
    """Build the exact overlap profile of the two lifted images of ``a``.

    All fragments must admit ``n_max`` steps inside the context stage, and
    ``n_max <= 2**62`` so that every packed flip key fits in int64.  Raises
    :class:`PairBudgetExceeded` before any per-flip allocation when one
    fragment chunk would hold more than ``_CHUNK_PAIR_BUDGET`` flips.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if n_max > _MAX_STEPS:
        raise StageOverflow(
            f"n_max {n_max} > 2**62: flip keys 2*t + 1 would not fit in int64"
        )
    table = ctx.table
    fragments = (
        refine(table, a.level0, ctx.stage).indices
        + refine(table, a.level1, ctx.stage).indices
    )
    fragments = tuple(sorted(fragments))
    if not fragments:
        raise ValueError("event_sweep needs a non-empty set")
    h = ctx.height()
    if fragments[-1] + n_max >= h:
        raise SegmentEscapesTower(
            f"fragment {fragments[-1]} cannot take {n_max} steps inside stage {ctx.stage}"
        )
    frags = np.asarray(fragments, dtype=np.int64)
    e = np.asarray(ctx.e_indices, dtype=np.int64)
    lo = np.searchsorted(e, frags, side="left")
    hi = np.searchsorted(e, frags + n_max, side="left")
    chunk = _FRAGMENT_CHUNK
    bounds = range(0, len(frags), chunk)
    pairs = np.add.reduceat(hi - lo, bounds)
    if pairs.max() > _CHUNK_PAIR_BUDGET:
        raise PairBudgetExceeded(
            f"event sweep needs {int(pairs.sum())} flip pairs; the largest chunk"
            f" of {chunk} fragments holds {int(pairs.max())}, over the budget of"
            f" {_CHUNK_PAIR_BUDGET} pairs per chunk"
        )

    times = [np.zeros(0, dtype=np.int64)]
    nets = [np.zeros(0, dtype=np.int64)]
    for c0, n_pairs in zip(bounds, pairs.tolist()):
        if n_pairs:
            sl = slice(c0, c0 + chunk)
            t, d = _chunk_flip_nets(frags[sl], e, lo[sl], hi[sl])
            times.append(t)
            nets.append(d)
    # edges are the times with a nonzero net in some chunk, even where the
    # chunk nets cancel (see OverlapProfile)
    edges, inv = np.unique(np.concatenate(times), return_inverse=True)
    delta = np.zeros(len(edges), dtype=np.int64)
    np.add.at(delta, inv, np.concatenate(nets))
    total = len(fragments)
    # every flip time t satisfies 0 <= t < n_max; flips at t=0 apply to every
    # step count >= 1, so they fold into the first plateau
    if len(edges) and edges[0] == 0:
        delta[0] += total
    else:
        edges = np.concatenate(([0], edges))
        delta = np.concatenate(([total], delta))
    return OverlapProfile(
        stage=ctx.stage,
        n_max=n_max,
        total=total,
        width=table.width(ctx.stage),
        edges=tuple(edges.tolist()),
        counts=tuple(np.cumsum(delta).tolist()),
    )


@dataclass(frozen=True)
class SeriesPoint:
    n: int
    overlap: Fraction
    integrand: float
    a_n: float
    is_milestone: bool


def default_checkpoints(n_max: int, ratio: float = 1.05) -> tuple[int, ...]:
    """Geometric grid of step counts from 1 to n_max inclusive."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if ratio <= 1.0:
        raise ValueError(f"checkpoint ratio must be > 1, got {ratio}")
    out = []
    n = 1
    while n < n_max:
        out.append(n)
        n = max(n + 1, int(n * ratio))
    out.append(n_max)
    return tuple(out)


class _NeumaierSum:
    """Compensated accumulator: ~1 ulp error regardless of term count."""

    __slots__ = ("s", "comp")

    def __init__(self) -> None:
        self.s = 0.0
        self.comp = 0.0

    def add(self, x: float) -> None:
        t = self.s + x
        if abs(self.s) >= abs(x):
            self.comp += (self.s - t) + x
        else:
            self.comp += (x - t) + self.s
        self.s = t

    def value(self) -> float:
        return self.s + self.comp


def average_series(
    model: SuspensionModel,
    profile: OverlapProfile,
    checkpoints: Iterable[int] | None = None,
    milestones: Sequence[Milestone] = (),
) -> list[SeriesPoint]:
    """Running averages of the pair integrand, emitted at every checkpoint.

    Accumulates plateau-by-plateau (plateau length times integrand), so the
    cost is proportional to the number of plateaus plus checkpoints.
    """
    if checkpoints is None:
        checkpoints = default_checkpoints(profile.n_max)
    mile_ns = {m.n for m in milestones}
    targets = sorted(set(checkpoints) | mile_ns)
    if not targets:
        raise ValueError("no checkpoints requested")
    if targets[0] < 1 or targets[-1] > profile.n_max:
        raise ValueError(
            f"checkpoints must lie in [1, {profile.n_max}], got"
            f" [{targets[0]}, {targets[-1]}]"
        )
    g_by_count = {
        c: pair_integrand(model, c * profile.width) for c in set(profile.counts)
    }
    acc = _NeumaierSum()
    out: list[SeriesPoint] = []
    ti = 0
    for lo, hi, count in profile.plateaus():
        g = g_by_count[count]
        cursor = lo
        while ti < len(targets) and targets[ti] <= hi:
            n = targets[ti]
            if n > cursor:
                acc.add((n - cursor) * g)
                cursor = n
            out.append(
                SeriesPoint(
                    n=n,
                    overlap=count * profile.width,
                    integrand=g,
                    a_n=acc.value() / n,
                    is_milestone=n in mile_ns,
                )
            )
            ti += 1
        if hi > cursor:
            acc.add((hi - cursor) * g)
        if ti >= len(targets):
            break
    return out


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
    series: Sequence[SeriesPoint],
    milestones: Sequence[Milestone],
    model: SuspensionModel,
    bound_tol: float = 1e-9,
) -> DivergenceReport:
    """Milestone averages, the two-sided bounds per j, and the observed gap.

    At the end of each disjointness window the average should be near c^2
    (bound c^2 + c/(2j) from the short prefix), at the end of each
    coincidence window near c (bound c*(1 - 1/(2j))).
    """
    by_n = {p.n: p for p in series}
    missing = [m.n for m in milestones if m.n not in by_n]
    if missing:
        raise ValueError(f"series does not cover milestones {missing}")
    c = cylinder_constant(model)
    c2 = c * c
    points = tuple((m, by_n[m.n].a_n) for m in milestones)
    checks: list[BoundCheck] = []
    for m, a_n in points:
        if m.kind == "disjoint_end":
            bound = c2 + c / (2 * m.j)
            checks.append(
                BoundCheck(m.j, m.kind, m.n, a_n, bound, a_n <= bound + bound_tol)
            )
        elif m.kind == "coincide_end":
            bound = c * (1.0 - 1.0 / (2 * m.j))
            checks.append(
                BoundCheck(m.j, m.kind, m.n, a_n, bound, a_n >= bound - bound_tol)
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
