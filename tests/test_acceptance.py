"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Criteria 1 and 2 check the paper's windows for marker stage ``q = 2j``
(j=2 exhaustively, j=3 on the verifier's 10,002-point grid) exactly as the
unit base meets them.  The coincidence window ``(h_{q+1}, q*h_{q+1})`` must
have no violation.  The disjointness window ``(h_q, q*h_q)`` must be clean
on ``(h_q, q*h_q - M_q]`` and overlap at every checked step count of the
leak ``(q*h_q - M_q, q*h_q)``, where ``M_q`` is the top stage-``q`` base
floor: a base fragment at floor ``u`` meets its column's second marker after
``q*h_q - u`` steps, so after ``i`` steps the overlap is the base measure of
``{u : u + i > q*h_q}``.  ``M_q`` and the base floors come from the
independent reference ``_reference``; criterion 1 also runs its single-step
simulation over both j=2 windows, and criterion 2 probes both sides of the
j=3 leak start, which the grid does not hit.  ``verify`` still reports the
leak as violations of the paper's window and exits 1.
"""

import math
import time
from bisect import bisect_right
from fractions import Fraction

import pytest

from ergolab import (
    ConstructionParams,
    McConfig,
    SuspensionModel,
    average_series,
    base_leveled_set,
    build_stage_table,
    claim_windows,
    cocycle_context,
    context_for,
    cylinder_constant,
    default_checkpoints,
    divergence_report,
    event_sweep,
    mc_gaussian_orthant,
    mc_pair_integral_poisson,
    milestone_sequence,
    overlap_measure,
    pair_integrand,
    three_sigma_gate,
    verify_conjugacy,
    verify_windows,
)
from ergolab.cli import main
from ergolab.extension import sample_grid

import _reference as ref


def report(num: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def table():
    return build_stage_table(ConstructionParams(j_max=9))


@pytest.fixture(scope="module")
def full_series(table):
    """Default-configuration series up to N = 6*h_7 = 43545600."""
    milestones = milestone_sequence(table, 3)
    n_max = milestones[-1].n
    ctx = context_for(table, n_max)
    profile = event_sweep(base_leveled_set(table, ctx.stage), ctx, n_max)
    model = SuspensionModel("poisson", 1)
    series = average_series(model, profile, default_checkpoints(n_max), milestones)
    return divergence_report(series, milestones, model)


def base_leak(q: int, d_hi: int):
    """``(M_q, overlap)`` for the unit base in the disjointness window of stage ``q``.

    Built from the reference base floors at stage ``q``: a fragment at floor
    ``u`` meets its column's second marker (in-column offset ``q*h_q = d_hi``)
    after ``d_hi - u`` steps, so after ``i`` steps the two lifted images
    coincide on the base fragments with ``u + i > d_hi``.
    """
    base = ref.base_indices(q)

    def overlap(i: int) -> Fraction:
        return Fraction(len(base) - bisect_right(base, d_hi - i), len(base))

    return base[-1], overlap


def window_problems(check, steps, want) -> list[str]:
    """How ``check`` departs from the exact overlap ``want(i)`` at the checked ``steps``."""
    target = Fraction(0) if check.kind == "disjoint" else Fraction(1)
    expected = [(i, want(i)) for i in steps if want(i) != target]
    got = list(zip(check.violations, map(Fraction, check.violation_values)))
    problems = []
    if check.checked_count != len(steps):
        problems.append(f"{check.kind}: checked {check.checked_count}, expected {len(steps)}")
    if got != expected:
        wrong = sorted(set(got) ^ set(expected))
        problems.append(
            f"{check.kind}: {len(got)} violations, expected {len(expected)};"
            f" first difference at i={wrong[0][0]}"
        )
    return problems


def leak_detail(disjoint, m_q: int, overlap) -> str:
    lo, hi = disjoint.lo, disjoint.hi
    start = hi - m_q
    return (
        f"disjoint ({lo},{hi}): clean on ({lo},{start}],"
        f" leak ({start},{hi}) at {len(disjoint.violations)} checked step counts"
        f" (M_q={m_q}, overlap {overlap(start + 1)}..{overlap(hi - 1)})"
    )


def test_criterion_1_exact_windows_j2(table):
    t0 = time.perf_counter()
    assert claim_windows(table, 2) == ((288, 1152), (5760, 23040))
    rep = verify_windows(table, 2, mode="exhaustive")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s over the 60s budget"
    disjoint, coincide = rep.checks
    m_q, leak_overlap = base_leak(4, disjoint.hi)
    windows = (
        (disjoint, range(disjoint.lo + 1, disjoint.hi), leak_overlap),
        (coincide, range(coincide.lo + 1, coincide.hi), lambda i: Fraction(1)),
    )
    problems = [p for w in windows for p in window_problems(*w)]

    # the single-step oracle at stage 6, where all 240 base floors take 23039 steps
    oracle = ref.overlaps(
        ref.base_indices(6), set(ref.marker_indices(6, [2, 4])), coincide.hi - 1
    )
    problems += [
        f"oracle overlap {oracle[i]} != {want(i)} at i={i}"
        for _, rng, want in windows
        for i in rng
        if oracle[i] != want(i)
    ][:5]
    detail = (
        f"j=2 exhaustive in {elapsed:.1f}s; "
        + leak_detail(disjoint, m_q, leak_overlap)
        + f"; coincide ({coincide.lo},{coincide.hi}): {len(coincide.violations)} violations"
        f"; single-step oracle compared at {sum(len(rng) for _, rng, _ in windows)} step counts"
        + "".join(f"; {p}" for p in problems)
    )
    report(1, not problems, detail)


def test_criterion_2_sampled_windows_j3(table):
    t0 = time.perf_counter()
    assert claim_windows(table, 3) == ((172800, 1036800), (7257600, 43545600))
    rep = verify_windows(table, 3, mode="sampled", grid_points=10_000)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s over the 300s budget"
    disjoint, coincide = rep.checks
    m_q, leak_overlap = base_leak(6, disjoint.hi)
    problems = window_problems(
        disjoint, sample_grid(disjoint.lo, disjoint.hi, 10_000), leak_overlap
    ) + window_problems(
        coincide, sample_grid(coincide.lo, coincide.hi, 10_000), lambda i: Fraction(1)
    )

    # the grid need not hit the leak's first step: probe both sides of it
    ctx = context_for(table, disjoint.hi)
    a = base_leveled_set(table, ctx.stage)
    start = disjoint.hi - m_q
    problems += [
        f"overlap {overlap_measure(i, a, ctx)} != {leak_overlap(i)} at i={i}"
        for i in (start, start + 1)
        if overlap_measure(i, a, ctx) != leak_overlap(i)
    ]
    detail = (
        f"j=3 sampled in {elapsed:.1f}s; "
        + leak_detail(disjoint, m_q, leak_overlap)
        + f" of {disjoint.checked_count} grid points, boundary probed at"
        f" {start} and {start + 1}; coincide: {len(coincide.violations)}"
        f"/{coincide.checked_count} grid violations"
        + "".join(f"; {p}" for p in problems)
    )
    report(2, not problems, detail)


def test_criterion_3_divergence_gap(table, full_series):
    t0 = time.perf_counter()
    rep = full_series
    c, c2 = rep.c, rep.c_squared
    tol = 1e-9
    checks = {(b.j, b.kind): b for b in rep.bound_checks}
    ok = True
    parts = []
    for j in (2, 3):
        upper = checks[(j, "disjoint_end")]
        lower = checks[(j, "coincide_end")]
        ok &= upper.a_n <= upper.bound + tol
        ok &= lower.a_n >= lower.bound - tol
        parts.append(
            f"j={j}: a_{{N_{4 * j + 1}}}={upper.a_n:.9f}<= {upper.bound:.9f},"
            f" a_{{N_{4 * j + 3}}}={lower.a_n:.9f}>= {lower.bound:.9f}"
        )
    gap_threshold = (c - c2) * (1 - 0.5)
    ok &= rep.gap >= gap_threshold - tol
    elapsed = time.perf_counter() - t0
    parts.append(f"gap={rep.gap:.9f} >= {gap_threshold:.9f}")
    report(3, ok, "; ".join(parts) + f" (post-series checks {elapsed:.2f}s)")


def test_criterion_4_sweep_oracle_equivalence(table):
    n_top = 5000
    ctx = cocycle_context(table, 6)
    a = base_leveled_set(table, 6)
    profile = event_sweep(a, ctx, n_top)
    model = SuspensionModel("poisson", 1)
    mismatches = 0
    g = []
    for n in range(1, n_top + 1):
        direct = overlap_measure(n, a, ctx)
        if direct != profile.overlap_at(n):
            mismatches += 1
        g.append(pair_integrand(model, direct))
    series = average_series(model, profile, checkpoints=range(1, n_top + 1))
    worst = max(abs(p.a_n - math.fsum(g[: p.n]) / p.n) for p in series)
    ok = mismatches == 0 and worst <= 1e-10
    report(
        4,
        ok,
        f"overlap mismatches {mismatches}/{n_top};"
        f" max |sweep a_n - naive a_n| = {worst:.2e} (tol 1e-10)",
    )


def test_criterion_5_suspension_endpoints():
    tol = 1e-12
    worst = 0.0
    for m in (1, 2, 3):
        model = SuspensionModel("poisson", m, Fraction(1))
        c = cylinder_constant(model)
        worst = max(worst, abs(pair_integrand(model, Fraction(1)) - c))
        worst = max(worst, abs(pair_integrand(model, Fraction(0)) - c * c))
    gauss = SuspensionModel("gaussian")
    worst = max(worst, abs(pair_integrand(gauss, Fraction(1)) - 0.5))
    worst = max(worst, abs(pair_integrand(gauss, Fraction(0)) - 0.25))
    half = abs(pair_integrand(gauss, Fraction(1, 2)) - 1.0 / 3.0)
    worst = max(worst, half)
    report(
        5,
        worst <= tol,
        f"endpoint errors <= {worst:.2e} (tol 1e-12), gaussian rho=1/2 err {half:.2e}",
    )


def test_criterion_6_monte_carlo_gates():
    t0 = time.perf_counter()
    cfg = McConfig(seed=1, samples=1_000_000)
    model = SuspensionModel("poisson", 1)
    gates = []
    for lam in (1.0, 0.0, 0.4):
        exact = pair_integrand(model, lam)
        gates.append(
            three_sigma_gate(
                exact, lambda c, lam=lam: mc_pair_integral_poisson(lam, 1.0, 1, c), cfg
            )
        )
    gauss = SuspensionModel("gaussian")
    for rho in (0.0, 0.5, 1.0):
        exact = pair_integrand(gauss, rho)
        gates.append(
            three_sigma_gate(
                exact, lambda c, rho=rho: mc_gaussian_orthant(rho, c), cfg
            )
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s over the 60s budget"
    ok = all(g.passed for g in gates)
    retried = sum(1 for g in gates if g.retried)
    report(
        6,
        ok,
        f"{sum(g.passed for g in gates)}/6 gates within 3 standard errors"
        f" ({retried} retried) in {elapsed:.1f}s",
    )


def test_criterion_7_conjugacy(table):
    rep = verify_conjugacy(table, n_max=1000)
    report(
        7,
        rep.passed,
        f"level-swap conjugation checked for n<=1000 on {rep.fragment_count}"
        f" fragments: {len(rep.mismatched_n)} mismatches",
    )


def test_criterion_8_deterministic_series(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["--out", str(out), "series"])
        assert code == 0
        outs.append(out)
    same_csv = (outs[0] / "series.csv").read_bytes() == (outs[1] / "series.csv").read_bytes()
    same_json = (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    report(
        8,
        same_csv and same_json,
        f"two default-config series runs byte-identical:"
        f" csv={same_csv} json={same_json}",
    )
