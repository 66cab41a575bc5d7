"""Independent brute-force reference for the tests.

Deliberately dumb and separate from the package: heights via a bare loop,
set refinement by direct product expansion, orbit levels by stepping one
floor at a time through an explicit marker membership set.  Expected values
frozen into the tests were produced (and cross-checked) with this module.
"""

from bisect import bisect_left
from collections import Counter
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st


def heights(j_max, cut, spacer):
    """h[1..j_max] from the recurrence, as a dict."""
    h = {1: 1}
    for j in range(1, j_max):
        r = cut(j)
        h[j + 1] = r * h[j] + sum(spacer(j, i, h[j]) for i in range(1, r + 1))
    return h


def basic_cut(j):
    return max(j, 2)


def basic_spacer(j, i, h_j):
    return j * h_j


def offsets(j, cut, spacer, h):
    r = cut(j)
    out = [0]
    for i in range(1, r):
        out.append(out[-1] + h[j] + spacer(j, i, h[j]))
    return out


def lift(idxs, from_stage, to_stage, offsets):
    """Refine floor indices by direct product expansion of explicit column
    offsets, sorted: ``offsets[j]`` lists those of stage ``j``."""
    cur = list(idxs)
    for j in range(from_stage, to_stage):
        cur = [o + f for o in offsets[j] for f in cur]
    return sorted(cur)


def expand(idxs, from_stage, to_stage, cut, spacer, h):
    """Refine floor indices by direct product expansion of the schedule's offsets."""
    stages = range(from_stage, to_stage)
    return lift(idxs, from_stage, to_stage, {j: offsets(j, cut, spacer, h) for j in stages})


def marker_indices(stage, marker_stages, cut=basic_cut, spacer=basic_spacer, h=None):
    """All marker floors at `stage`, built directly from column offsets."""
    if h is None:
        h = heights(stage, cut, spacer)
    out = []
    for q in marker_stages:
        if q + 1 > stage:
            continue
        offs = offsets(q, cut, spacer, h)
        at_q1 = [o + h[q] for o in offs] + [o + q * h[q] for o in offs]
        out.extend(expand(at_q1, q + 1, stage, cut, spacer, h))
    return sorted(out)


def random_table(rng, j_max, marker_stages):
    """A ``StageTable`` of a random schedule, from its own recurrence: stage
    ``j`` cuts into 2..4 columns, each with ``j*h_j`` to ``(j+3)*h_j``
    spacers on a marker stage and 0 to ``3*h_j`` elsewhere; ``rng`` is a
    ``random.Random``."""
    from ergolab.tower import ConstructionParams, StageTable

    params = ConstructionParams(j_max=j_max, marker_stages=frozenset(marker_stages))
    h, w, spacers, offsets = [1], [Fraction(1)], [], []
    for j in range(1, j_max):
        r = rng.randint(2, 4)
        least = j * h[-1] if params.carries_markers(j) else 0
        s = [rng.randint(least, least + 3 * h[-1]) for _ in range(r)]
        o = [0]
        for i in range(1, r):
            o.append(o[-1] + h[-1] + s[i - 1])
        h.append(r * h[-1] + sum(s))
        w.append(w[-1] / r)
        spacers.append(tuple(s))
        offsets.append(tuple(o))
    return StageTable(params, tuple(h), tuple(w), tuple(spacers), tuple(offsets))


def random_tables(j_max=st.integers(3, 6), marker_stages=st.sets(st.sampled_from([2, 4]))):
    """Hypothesis strategy for :func:`random_table`."""
    return st.builds(random_table, st.randoms(use_true_random=False), j_max, marker_stages)


def conjugacy_mismatches(table, stage, zones=None):
    """The floors ``f`` of ``stage`` where ``zone(f) XOR zone(f+1) !=
    marker(f)``, with the stage materialised by :func:`lift` from the
    table's column offsets and heights: every zone edge (one below a zone's
    first floor, one on its last) counts, a floor that several markers share
    counts once, and the mismatches are the floors counted an odd number of
    times.  ``zones`` maps a marker stage ``q`` to the first and last floors
    of its zones at stage ``q+1``, in place of the ones the offsets give."""
    offs, h = dict(enumerate(table.offsets, 1)), dict(enumerate(table.heights, 1))
    edges, markers = [], set()
    for q in table.params.effective_marker_stages():
        if q < stage:
            low, high = [o + h[q] for o in offs[q]], [o + q * h[q] for o in offs[q]]
            first, last = (zones or {}).get(q, ([f + 1 for f in low], high))
            edges += lift([f - 1 for f in first] + last, q + 1, stage, offs)
            markers.update(lift(low + high, q + 1, stage, offs))
    count = Counter(edges)
    count.update(markers)
    return tuple(sorted(f for f, c in count.items() if c % 2))


def base_indices(stage, cut=basic_cut, spacer=basic_spacer, h=None):
    if h is None:
        h = heights(stage, cut, spacer)
    return expand([0], 1, stage, cut, spacer, h)


def floors_from_offsets(stage, marker_stages, offsets, h):
    """Base and marker floors at `stage`, sorted, by direct product expansion
    of explicit column offsets: `offsets[j]` lists those of stage j."""

    markers = []
    for q in marker_stages:
        if q + 1 <= stage:
            at_q1 = [o + h[q] for o in offsets[q]] + [o + q * h[q] for o in offsets[q]]
            markers.extend(lift(at_q1, q + 1, stage, offsets))
    return lift([0], 1, stage, offsets), sorted(markers)


def chunked_flip_profile(fragments, markers, n, chunk):
    """The parity-0 count over steps 1..n as (edges, counts), counts[k] on
    (edges[k], edges[k+1]], with the chunk rule of the package's series
    engine: the fragments are taken `chunk` at a time in sorted order, each
    flips at every t in [0, n) where f + t is a marker (its k-th flip lowers
    the count for even k, raises it for odd k), and the edges are 0 plus the
    times whose net change within some chunk is nonzero."""
    fragments, markers = sorted(fragments), sorted(markers)
    nets = {0: len(fragments)}
    for c in range(0, len(fragments), chunk):
        chunk_nets = {}
        for f in fragments[c : c + chunk]:
            crossed = markers[bisect_left(markers, f) : bisect_left(markers, f + n)]
            for k, e in enumerate(crossed):
                chunk_nets[e - f] = chunk_nets.get(e - f, 0) + (1 if k % 2 else -1)
        for t, net in chunk_nets.items():
            if net:
                nets[t] = nets.get(t, 0) + net
    edges, counts = sorted(nets), []
    for t in edges:
        counts.append((counts[-1] if counts else 0) + nets[t])
    return edges, counts


def checkpoints(n_max, ratio):
    """The geometric checkpoint grid one step at a time: ``n`` steps to
    ``max(int(n * ratio), n + 1)`` from 1 while below ``n_max``, then
    ``n_max``."""
    out, n = [], 1
    while n < n_max:
        out.append(n)
        n = max(int(n * ratio), n + 1)
    out.append(n_max)
    return out


def step_levels(fragments, marker_set, n_max):
    """Single-step flip-lift simulation.

    Returns levels[n][k] = level of fragment k after n steps, n = 0..n_max.
    """
    state = [(f, 0) for f in fragments]
    out = [[z for _, z in state]]
    for _ in range(n_max):
        state = [(f + 1, z ^ (1 if f in marker_set else 0)) for f, z in state]
        out.append([z for _, z in state])
    return out


def overlaps(fragments, marker_set, n_max):
    """overlap[n] = fraction of fragments at level 0 after n steps."""
    levels = step_levels(fragments, marker_set, n_max)
    total = len(fragments)
    return [Fraction(sum(1 for z in row if z == 0), total) for row in levels]


def _row_draws(cfg, rows, draw):
    """Each row stream of ``oracle``'s estimators drawn whole: row ``r`` is
    the PCG64DXSM stream seeded with ``SeedSequence((cfg.seed, r))``."""
    return [
        draw(np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence((cfg.seed, r)))),
             cfg.samples)
        for r in range(rows)
    ]


def poisson_pair_estimate(lam, m, cfg):
    """P(m points in each image set) by inversion sampling, one overlap.

    The estimator the bucket counter of ``oracle.mc_pair_integral_poisson``
    replaced: ``searchsorted`` turns each of the three rows of uniforms,
    drawn whole, into a region count.  Returns (estimate, standard error).
    """
    import math

    from ergolab.oracle import _poisson_cdf

    cdf_common = _poisson_cdf(lam)
    cdf_diff = _poisson_cdf(1.0 - lam)
    u0, u1, u2 = _row_draws(cfg, 3, np.random.Generator.random)
    k_common = np.searchsorted(cdf_common, u0, side="right")
    k_one = np.searchsorted(cdf_diff, u1, side="right")
    k_two = np.searchsorted(cdf_diff, u2, side="right")
    hits = int(np.count_nonzero((k_common + k_one == m) & (k_common + k_two == m)))
    p_hat = hits / cfg.samples
    return p_hat, math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / cfg.samples)


def gaussian_orthant_estimate(rho, cfg):
    """P(X > 0, Z > 0) for standard normals with correlation rho, one
    correlation, each row drawn whole.

    The estimator ``oracle.mc_gaussian_orthant`` blocks: ``x`` is row 0,
    ``y`` row 1 and ``Z = rho*X + sqrt(1 - rho^2)*Y``.  Returns (estimate,
    standard error).
    """
    import math

    tail = math.sqrt(1.0 - rho * rho)
    x, y = _row_draws(cfg, 2, np.random.Generator.standard_normal)
    hits = int(np.count_nonzero((x > 0.0) & (rho * x + tail * y > 0.0)))
    p_hat = hits / cfg.samples
    return p_hat, math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / cfg.samples)


def _running_steps(profile, ns):
    """The steps of the running sum to the increasing step counts ``ns``:
    ``(length, k, n)`` for each run of ``length`` steps on plateau ``k``,
    which holds on ``(edges[k], edges[k+1]]``; ``n`` is the checkpoint the
    run ends on, or ``None`` where it ends on a plateau end."""
    ends = profile.edges.tolist()[1:] + [profile.n_max]
    k, at = 0, 0
    for n in ns:
        while ends[k] < n:
            yield ends[k] - at, k, None
            at = ends[k]
            k += 1
        yield n - at, k, n
        at = n


def exact_running_means(profile, integrand, ns):
    """The exact running means at the increasing step counts ``ns`` of the
    float integrands of ``profile``'s plateaus: plateau ``k`` holds
    ``integrand(float(counts[k] * width))``, and the steps are summed as
    ``Fraction``s, one plateau at a time."""
    counts = profile.counts.tolist()
    g = {}
    out, total = [], Fraction(0)
    for length, k, n in _running_steps(profile, ns):
        c = counts[k]
        if c not in g:
            g[c] = Fraction(integrand(float(c * profile.width)))
        total += length * g[c]
        if n is not None:
            out.append(total / n)
    return out


def compensated_running_means(profile, integrand, ns):
    """The running means at the increasing step counts ``ns`` as floats, one
    scalar Neumaier sum of the terms ``length * integrand`` over the same
    steps as :func:`exact_running_means`: what ``average_series`` gives,
    bit for bit."""
    counts = profile.counts.tolist()
    out, s, comp = [], 0.0, 0.0
    for length, k, n in _running_steps(profile, ns):
        x = length * integrand(float(counts[k] * profile.width))
        t = s + x
        comp += (s - t) + x if abs(s) >= abs(x) else (x - t) + s
        s = t
        if n is not None:
            out.append((s + comp) / n)
    return out


def series_csv(series):
    """The bytes of ``series.csv`` for an ``averages.Series``, one row at a
    time: integers by ``str``, floats by ``repr``, CRLF line ends."""
    lines = ["n,overlap_num,overlap_den,integrand,a_n,is_milestone"]
    for n, k, a_n, milestone in zip(
        series.n.tolist(),
        series.level.tolist(),
        series.a_n.tolist(),
        series.is_milestone.tolist(),
    ):
        overlap, integrand = series.levels[k]
        lines.append(
            f"{n},{overlap.numerator},{overlap.denominator},{integrand!r},"
            f"{a_n!r},{int(milestone)}"
        )
    return "".join(line + "\r\n" for line in lines).encode("ascii")
