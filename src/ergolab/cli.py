"""Command-line runner: build/verify/series/mc-check over a JSON config.

Everything an invocation needs comes from one JSON config file plus ``--out``;
identical config and seed produce byte-identical artifacts.  Exit codes:
0 success, 1 a checked claim was violated, 2 configuration error.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

from . import _csv, averages, extension, oracle, suspension, tower

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

# largest m whose c**2, with c = P(m; 1) = 1/(e m!), is a normal float: at
# m = 98 it is subnormal (1.52e-309) and from m = 102 it is 0, which zeroes
# the lower bound and report.json's c_squared
_MAX_MODEL_M = 97


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


def _is_int(x: object) -> bool:
    # JSON true/false load as bool, which is an int subclass
    return isinstance(x, int) and not isinstance(x, bool)


def parse_config(raw: dict) -> RunConfig:
    _expect(isinstance(raw, dict), "config must be a JSON object")
    unknown = set(raw) - set(_DEFAULTS)
    _expect(not unknown, f"unknown config keys: {sorted(unknown)}")
    cfg = {**_DEFAULTS, **raw}

    _expect(cfg["preset"] in tower.PRESETS, f"preset must be one of {tower.PRESETS}")
    _expect(
        _is_int(cfg["j_max"]) and cfg["j_max"] >= 1,
        "j_max must be a positive integer",
    )
    ms = cfg["marker_stages"]
    if ms == "all-even":
        marker_stages = None
    else:
        _expect(
            isinstance(ms, list) and all(_is_int(q) for q in ms),
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
    _expect(
        _is_int(m) and 0 <= m <= _MAX_MODEL_M,
        f"model.m must be an integer in 0..{_MAX_MODEL_M}",
    )
    _expect(
        _is_int(cfg["j_top"]) and cfg["j_top"] >= 1,
        "j_top must be a positive integer",
    )
    ratio = cfg["checkpoint_ratio"]
    # the upper bound rejects inf and nan (json loads Infinity and NaN) and
    # an integer too large for a float, where math.isfinite would raise
    _expect(
        isinstance(ratio, (int, float)) and 1.0 < ratio <= sys.float_info.max,
        "checkpoint_ratio must be a finite number > 1",
    )
    _expect(_is_int(cfg["seed"]) and cfg["seed"] >= 0, "seed must be an integer >= 0")
    _expect(
        _is_int(cfg["mc_samples"]) and cfg["mc_samples"] >= 1,
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
    # ValueError covers bytes that are not UTF-8 and malformed JSON;
    # RecursionError, JSON nested deeper than the parser's stack
    except (OSError, ValueError, RecursionError) as exc:
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


def cmd_verify(cfg: RunConfig, out_dir: Path) -> int:
    table = tower.build_stage_table(cfg.construction())
    marker_stages = table.params.effective_marker_stages()
    reports = []
    for j in (q // 2 for q in marker_stages if q // 2 <= cfg.j_top):
        log.info("verifying windows for j=%d", j)
        reports.append(extension.verify_windows(table, j))
    # conjugacy runs at the last window's stage, which carries the markers of
    # every checked window; with no window checked, at the stage that
    # carries every marker stage
    stage = reports[-1].stage if reports else max(marker_stages, default=0) + 1
    log.info("verifying conjugacy at stage %d", stage)
    conj = extension.verify_conjugacy(table, stage)

    # every check has run, so a run stopped by a budget or a missing stage
    # writes and prints nothing
    for report in reports:
        _write_json(out_dir / f"verify_j{report.j}.json", report.to_json_obj())
        for check in report.checks:
            status = "pass" if check.passed else f"{len(check.violations)} violations"
            tag = "" if report.asserted else " [diagnostic only]"
            print(
                f"j={report.j} {check.kind} window ({check.lo}, {check.hi})"
                f" {check.mode}: {status}{tag}"
            )
    _write_json(out_dir / "conjugacy.json", conj.to_json_obj())
    print(
        f"conjugacy at stage {stage} ({conj.floors_checked} floor steps): "
        f"{'pass' if conj.passed else f'{len(conj.mismatched_floors)} mismatches'}"
    )
    failed = any(r.asserted and not r.passed for r in reports) or not conj.passed
    return 1 if failed else 0


def cmd_series(cfg: RunConfig, out_dir: Path) -> int:
    table = tower.build_stage_table(cfg.construction())
    milestones = averages.milestone_sequence(table, cfg.j_top)
    if not milestones:
        raise ConfigError(
            f"no milestones: j_top={cfg.j_top} needs a marker stage 2j <= {2 * cfg.j_top},"
            f" and the materialized marker stages are"
            f" {list(table.params.effective_marker_stages())}"
        )
    n_max = milestones[-1].n
    log.info("series up to N=%d", n_max)
    ctx = extension.context_for(table, n_max)
    a = extension.base_leveled_set(table, ctx.stage)
    log.info("context stage %d: %d fragments, %d markers",
             ctx.stage, len(a.level0), ctx.zone_edges.size)
    profile = averages.event_sweep(a, ctx, n_max)
    log.info("profile has %d plateaus", len(profile.counts))
    model = cfg.suspension_model()
    checkpoints = averages.default_checkpoints(n_max, cfg.checkpoint_ratio)
    series = averages.average_series(model, profile, checkpoints, milestones)
    report = averages.divergence_report(series, milestones, model)

    csv_path = out_dir / "series.csv"
    _csv.write_series(csv_path, series)
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
    poisson = suspension.SuspensionModel("poisson", model.m, model.a)
    gaussian = suspension.SuspensionModel("gaussian")
    lams = {"coincident": a, "independent": 0.0, "generic": 0.4 * a}
    rhos = {"independent": 0.0, "generic": 0.5, "coincident": 1.0}
    # per family, its (label, exact) gates and the batch runner that draws
    # the family's chunk stream once per seed for all of them
    families = [
        (
            [(f"poisson m={model.m} {k} (lam={v})", suspension.pair_integrand(poisson, v))
             for k, v in lams.items()],
            lambda c: oracle.mc_pair_integral_poisson(list(lams.values()), a, model.m, c),
        ),
        (
            [(f"gaussian {k} (rho={v})", suspension.pair_integrand(gaussian, v))
             for k, v in rhos.items()],
            lambda c: oracle.mc_gaussian_orthant(list(rhos.values()), c),
        ),
    ]
    rows = []
    for gates, runner in families:
        # every gate indexes into the cached batch, so a retry at seed+1
        # runs the family's runner once more, whichever gates missed
        batch = functools.cache(runner)
        for i, (label, exact) in enumerate(gates):
            res = oracle.three_sigma_gate(exact, lambda c, i=i: batch(c)[i], mc)
            rows.append({"label": label, "samples": cfg.mc_samples, **asdict(res)})
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
    sub.add_parser("verify", help="check window and conjugacy claims for j = 1..j_top")
    sub.add_parser("series", help="run the averages series and divergence report")
    sub.add_parser("mc-check", help="Monte Carlo gates for the suspension formulas")

    args = parser.parse_args(argv)
    # the commands are looked up per call, so a function patched into the
    # module is the one that runs
    commands = {
        "build": cmd_build,
        "verify": cmd_verify,
        "series": cmd_series,
        "mc-check": cmd_mc_check,
    }
    # this call's stderr handler and level, on the package logger only
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    level = log.level
    log.setLevel(logging.INFO if args.verbose else logging.WARNING)
    log.addHandler(handler)
    try:
        cfg = load_config(args.config)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot create output directory {out_dir}: {exc}"
            ) from exc
        return commands[args.command](cfg, out_dir)
    except (
        ConfigError, tower.InvalidConstruction, tower.StageOverflow, tower.BudgetExceeded
    ) as exc:
        # a bad config or schedule, a stage past j_max, or a request over a budget
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
