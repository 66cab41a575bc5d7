"""Command-line runner: build/verify/series/mc-check over a JSON config.

Everything an invocation needs comes from one JSON config file plus ``--out``;
identical config and seed produce byte-identical artifacts.  Exit codes:
0 success, 1 a checked claim was violated, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import averages, extension, oracle, suspension, tower

__all__ = ["RunConfig", "ConfigError", "load_config", "main"]

log = logging.getLogger("ergolab")

_DEFAULTS = {
    "preset": "basic",
    "j_max": 9,
    "marker_stages": "all-even",
    "model": {"kind": "poisson", "m": 1},
    "j_top": 3,
    "checkpoint_ratio": 1.05,
    "seed": 1,
    "mc_samples": 1_000_000,
}


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass(frozen=True)
class RunConfig:
    preset: str
    j_max: int
    marker_stages: tuple[int, ...] | None  # None means every even stage
    model_kind: str
    model_m: int
    j_top: int
    checkpoint_ratio: float
    seed: int
    mc_samples: int

    def construction(self) -> tower.ConstructionParams:
        ms = None if self.marker_stages is None else frozenset(self.marker_stages)
        return tower.ConstructionParams(
            preset=self.preset, j_max=self.j_max, marker_stages=ms
        )

    def suspension_model(self) -> suspension.SuspensionModel:
        return suspension.SuspensionModel(
            kind=self.model_kind, m=self.model_m, a=Fraction(1)
        )

    def echo(self) -> dict:
        return {
            "preset": self.preset,
            "j_max": self.j_max,
            "marker_stages": (
                "all-even" if self.marker_stages is None else list(self.marker_stages)
            ),
            "model": {"kind": self.model_kind, "m": self.model_m},
            "j_top": self.j_top,
            "checkpoint_ratio": self.checkpoint_ratio,
            "seed": self.seed,
            "mc_samples": self.mc_samples,
        }


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def parse_config(raw: dict) -> RunConfig:
    _expect(isinstance(raw, dict), "config must be a JSON object")
    unknown = set(raw) - set(_DEFAULTS)
    _expect(not unknown, f"unknown config keys: {sorted(unknown)}")
    cfg = {**_DEFAULTS, **raw}

    _expect(cfg["preset"] in tower.PRESETS, f"preset must be one of {tower.PRESETS}")
    _expect(
        isinstance(cfg["j_max"], int) and cfg["j_max"] >= 1,
        "j_max must be a positive integer",
    )
    ms = cfg["marker_stages"]
    if ms == "all-even":
        marker_stages = None
    else:
        _expect(
            isinstance(ms, list) and all(isinstance(q, int) for q in ms),
            "marker_stages must be 'all-even' or a list of even integers",
        )
        _expect(
            all(q >= 2 and q % 2 == 0 for q in ms),
            "marker stages must be even and >= 2",
        )
        marker_stages = tuple(sorted(set(ms)))
    model = cfg["model"]
    _expect(
        isinstance(model, dict) and set(model) <= {"kind", "m"},
        "model must be an object with keys 'kind' and 'm'",
    )
    kind = model.get("kind", "poisson")
    m = model.get("m", 1)
    _expect(kind in ("poisson", "gaussian"), "model.kind must be poisson or gaussian")
    _expect(isinstance(m, int) and m >= 0, "model.m must be an integer >= 0")
    _expect(
        isinstance(cfg["j_top"], int) and cfg["j_top"] >= 1,
        "j_top must be a positive integer",
    )
    ratio = cfg["checkpoint_ratio"]
    _expect(
        isinstance(ratio, (int, float)) and ratio > 1.0,
        "checkpoint_ratio must be a number > 1",
    )
    _expect(isinstance(cfg["seed"], int), "seed must be an integer")
    _expect(
        isinstance(cfg["mc_samples"], int) and cfg["mc_samples"] >= 1,
        "mc_samples must be a positive integer",
    )
    return RunConfig(
        preset=cfg["preset"],
        j_max=cfg["j_max"],
        marker_stages=marker_stages,
        model_kind=kind,
        model_m=m,
        j_top=cfg["j_top"],
        checkpoint_ratio=float(ratio),
        seed=cfg["seed"],
        mc_samples=cfg["mc_samples"],
    )


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return parse_config({})
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(raw)


def _write_json(path: Path, obj: object) -> None:
    path.write_text(
        json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_build(cfg: RunConfig, out_dir: Path) -> int:
    table = tower.build_stage_table(cfg.construction())
    out = {
        "config": cfg.echo(),
        "stages": table.to_json_obj(),
        "marker_stages": list(table.params.effective_marker_stages()),
    }
    _write_json(out_dir / "stages.json", out)
    print(f"built {table.j_max} stages; h_{table.j_max} = {table.height(table.j_max)}")
    print(f"wrote {out_dir / 'stages.json'}")
    return 0


def cmd_verify(cfg: RunConfig, out_dir: Path, j_values: list[int] | None = None) -> int:
    table = tower.build_stage_table(cfg.construction())
    candidates = [
        q // 2 for q in table.params.effective_marker_stages() if q // 2 <= cfg.j_top
    ]
    if j_values is None:
        j_values = candidates
    bad = [j for j in j_values if j not in candidates]
    if bad:
        raise ConfigError(
            f"cannot verify j={bad}: needs markers on stage 2j and stage 2j+1"
            f" materialized (available: {candidates})"
        )
    failed = False
    for j in j_values:
        mode = "exhaustive" if j <= 2 else "sampled"
        log.info("verifying windows for j=%d (%s)", j, mode)
        report = extension.verify_windows(table, j, mode=mode)
        _write_json(out_dir / f"verify_j{j}.json", report.to_json_obj())
        for check in report.checks:
            status = "pass" if check.passed else f"{len(check.violations)} violations"
            tag = "" if report.asserted else " [diagnostic only]"
            print(
                f"j={j} {check.kind} window ({check.lo}, {check.hi})"
                f" {check.mode}: {status}{tag}"
            )
        if report.asserted and not report.passed:
            failed = True

    log.info("verifying conjugacy, n_max=1000")
    conj = extension.verify_conjugacy(table, n_max=1000)
    _write_json(out_dir / "conjugacy.json", conj.to_json_obj())
    print(
        f"conjugacy n<=1000: "
        f"{'pass' if conj.passed else f'{len(conj.mismatched_n)} mismatches'}"
    )
    if not conj.passed:
        failed = True
    return 1 if failed else 0


def cmd_series(cfg: RunConfig, out_dir: Path) -> int:
    table = tower.build_stage_table(cfg.construction())
    milestones = averages.milestone_sequence(table, cfg.j_top)
    if not milestones:
        raise ConfigError("no milestones: no marker stage is materialized")
    n_max = milestones[-1].n
    log.info("series up to N=%d", n_max)
    ctx = extension.context_for(table, n_max)
    a = extension.base_leveled_set(table, ctx.stage)
    log.info("context stage %d: %d fragments, %d markers",
             ctx.stage, len(a.level0), len(ctx.e_indices))
    profile = averages.event_sweep(a, ctx, n_max)
    log.info("profile has %d plateaus", len(profile.counts))
    model = cfg.suspension_model()
    checkpoints = averages.default_checkpoints(n_max, cfg.checkpoint_ratio)
    series = averages.average_series(model, profile, checkpoints, milestones)
    report = averages.divergence_report(series, milestones, model)

    csv_path = out_dir / "series.csv"
    with csv_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "overlap_num", "overlap_den", "integrand", "a_n", "is_milestone"])
        for p in series:
            writer.writerow(
                [
                    p.n,
                    p.overlap.numerator,
                    p.overlap.denominator,
                    repr(p.integrand),
                    repr(p.a_n),
                    int(p.is_milestone),
                ]
            )
    _write_json(
        out_dir / "report.json",
        {
            "config": cfg.echo(),
            "n_max": str(n_max),
            "context_stage": ctx.stage,
            "fragment_count": profile.total,
            "plateau_count": len(profile.counts),
            "divergence": report.to_json_obj(),
        },
    )
    print(f"series: {len(series)} checkpoints up to N={n_max}")
    for b in report.bound_checks:
        rel = "<=" if b.kind == "disjoint_end" else ">="
        print(
            f"j={b.j} {b.kind}: a_N={b.a_n:.9f} {rel} {b.bound:.9f}"
            f" {'pass' if b.passed else 'FAIL'}"
        )
    print(
        f"milestone averages: min={report.empirical_min:.9f}"
        f" max={report.empirical_max:.9f} gap={report.gap:.9f}"
    )
    print(f"wrote {csv_path} and {out_dir / 'report.json'}")
    return 0


def cmd_mc_check(cfg: RunConfig, out_dir: Path) -> int:
    model = cfg.suspension_model()
    a = float(model.a)
    mc = oracle.McConfig(seed=cfg.seed, samples=cfg.mc_samples)
    rows = []
    poisson_overlaps = [("coincident", a), ("independent", 0.0), ("generic", 0.4 * a)]
    gaussian_rhos = [("independent", 0.0), ("generic", 0.5), ("coincident", 1.0)]

    def gate(label: str, exact: float, runner) -> dict:
        res = oracle.three_sigma_gate(exact, runner, mc)
        return {
            "label": label,
            "exact": res.exact,
            "estimate": res.estimate,
            "std_error": res.std_error,
            "samples": cfg.mc_samples,
            "retried": res.retried,
            "passed": res.passed,
        }

    for name, lam in poisson_overlaps:
        exact = suspension.pair_integrand(
            suspension.SuspensionModel("poisson", model.m, model.a), lam
        )
        rows.append(
            gate(
                f"poisson m={model.m} {name} (lam={lam})",
                exact,
                lambda c, lam=lam: oracle.mc_pair_integral_poisson(lam, a, model.m, c),
            )
        )
    for name, rho in gaussian_rhos:
        exact = suspension.pair_integrand(
            suspension.SuspensionModel("gaussian"), Fraction(rho)
        )
        rows.append(
            gate(
                f"gaussian {name} (rho={rho})",
                exact,
                lambda c, rho=rho: oracle.mc_gaussian_orthant(rho, c),
            )
        )
    _write_json(out_dir / "mc_check.json", {"config": cfg.echo(), "rows": rows})
    failed = [r for r in rows if not r["passed"]]
    for r in rows:
        print(
            f"{r['label']}: estimate={r['estimate']:.6f} exact={r['exact']:.6f}"
            f" se={r['std_error']:.2e} samples={r['samples']}"
            f" {'pass' if r['passed'] else 'FAIL'}{' (retried)' if r['retried'] else ''}"
        )
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ergolab",
        description="Exact tower-extension simulator and divergence experiments",
    )
    parser.add_argument("--config", help="JSON config file (defaults apply if omitted)")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("build", help="materialize the stage table")
    p_verify = sub.add_parser("verify", help="check window and conjugacy claims")
    p_verify.add_argument(
        "--j", type=int, action="append", dest="j_values",
        help="window pair index to check (repeatable; default: all up to j_top)",
    )
    sub.add_parser("series", help="run the averages series and divergence report")
    sub.add_parser("mc-check", help="Monte Carlo gates for the suspension formulas")

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = load_config(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "build":
            return cmd_build(cfg, out_dir)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir, args.j_values)
        if args.command == "series":
            return cmd_series(cfg, out_dir)
        if args.command == "mc-check":
            return cmd_mc_check(cfg, out_dir)
        raise AssertionError(f"unhandled command {args.command}")
    except (
        ConfigError,
        tower.InvalidConstruction,
        tower.StageOverflow,
        averages.PairBudgetExceeded,
    ) as exc:
        # StageOverflow means the requested run needs a larger j_max;
        # PairBudgetExceeded that the event sweep would not fit in memory
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
