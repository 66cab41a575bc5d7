"""Independent brute-force reference for the tests.

Deliberately dumb and separate from the package: heights via a bare loop,
set refinement by direct product expansion, orbit levels by stepping one
floor at a time through an explicit marker membership set.  Expected values
frozen into the tests were produced (and cross-checked) with this module.
"""

from fractions import Fraction


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


def expand(idxs, from_stage, to_stage, cut, spacer, h):
    """Refine floor indices by direct product expansion."""
    cur = list(idxs)
    for j in range(from_stage, to_stage):
        offs = offsets(j, cut, spacer, h)
        cur = [o + f for o in offs for f in cur]
    return sorted(cur)


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


def base_indices(stage, cut=basic_cut, spacer=basic_spacer, h=None):
    if h is None:
        h = heights(stage, cut, spacer)
    return expand([0], 1, stage, cut, spacer, h)


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


def poisson_pair_estimate(lam, a, m, cfg):
    """P(m points in each image set) by inversion sampling, one overlap.

    The estimator the bucket counter of ``oracle.mc_pair_integral_poisson``
    replaced: three ``searchsorted`` calls per chunk turn the same Philox
    uniforms into region counts.  Returns (estimate, standard error).
    """
    import math

    import numpy as np

    from ergolab.oracle import _chunk_rng, _chunks, _poisson_cdf

    cdf_common = _poisson_cdf(lam)
    cdf_diff = _poisson_cdf(a - lam)
    hits = 0
    for k, n in _chunks(cfg.samples):
        u = _chunk_rng(cfg.seed, k).random((3, n))
        k_common = np.searchsorted(cdf_common, u[0], side="right")
        k_one = np.searchsorted(cdf_diff, u[1], side="right")
        k_two = np.searchsorted(cdf_diff, u[2], side="right")
        hits += int(np.count_nonzero((k_common + k_one == m) & (k_common + k_two == m)))
    p_hat = hits / cfg.samples
    return p_hat, math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / cfg.samples)


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
