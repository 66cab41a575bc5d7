"""Command-line runner: build/verify/series/mc-check over a JSON config.

Everything an invocation needs comes from one JSON config file plus ``--out``;
identical config and seed produce byte-identical artifacts.  Exit codes:
0 success, 1 a checked claim was violated, 2 request refused: a bad config
or schedule, a stage past ``j_max``, or a request over a budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import _csv, averages, extension, oracle, suspension, tower

__all__ = ["RunConfig", "ConfigError", "load_config", "main"]

log = logging.getLogger("ergolab")

# the defaults of the CLI's own keys; the library objects default the others
_CLI_DEFAULTS = {"j_top": 3, "checkpoint_ratio": 1.05}
_KEYS = {*_CLI_DEFAULTS, "preset", "j_max", "marker_stages", "model", "seed", "mc_samples"}

# largest m whose c**2, with c = P(m; 1) = 1/(e m!), is a normal float: at
# m = 98 it is subnormal (1.52e-309) and from m = 102 it is 0, which zeroes
# the lower bound and report.json's c_squared
# (the CLI's own rule: SuspensionModel takes any m >= 0)
_MAX_MODEL_M = 97


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """The library objects a config builds, plus the CLI's own two keys."""

    params: tower.ConstructionParams
    model: suspension.SuspensionModel
    mc: oracle.McConfig
    j_top: int
    checkpoint_ratio: float

    def construction(self) -> tower.ConstructionParams:
        # the name perfbench/ calls
        return self.params

    def echo(self) -> dict:
        ms = self.params.marker_stages
        return {
            "preset": self.params.preset,
            "j_max": self.params.j_max,
            "marker_stages": "all-even" if ms is None else sorted(ms),
            "model": asdict(self.model),
            "j_top": self.j_top,
            "checkpoint_ratio": self.checkpoint_ratio,
            "seed": self.mc.seed,
            "mc_samples": self.mc.samples,
        }


def parse_config(raw: dict) -> RunConfig:
    """Check the JSON shape of ``raw``; the library objects it builds check
    the values."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = {**_CLI_DEFAULTS, **raw}

    ms = cfg.get("marker_stages", "all-even")
    if ms != "all-even" and not isinstance(ms, list):
        raise ConfigError(
            f"marker_stages must be 'all-even' or a list of even integers, got {ms!r}"
        )
    model = cfg.get("model", {})
    if not (isinstance(model, dict) and set(model) <= {"kind", "m"}):
        raise ConfigError(f"model must be an object with keys 'kind' and 'm', got {model!r}")
    j_top = cfg["j_top"]
    if type(j_top) is not int or j_top < 1:  # bool is an int subclass
        raise ConfigError(f"j_top must be a positive integer, got {j_top!r}")
    ratio = cfg["checkpoint_ratio"]
    if not isinstance(ratio, (int, float)):
        raise ConfigError(f"checkpoint_ratio must be a number, got {ratio!r}")
    try:
        # the keys given, so the objects' own defaults fill the others
        params = tower.ConstructionParams(
            **{k: cfg[k] for k in ("preset", "j_max") if k in cfg},
            marker_stages=None if ms == "all-even" else ms,
        )
        model = suspension.SuspensionModel(**model)
        averages.check_checkpoint_ratio(ratio)
        mc = oracle.McConfig(
            **{f: cfg[k] for k, f in (("seed", "seed"), ("mc_samples", "samples")) if k in cfg}
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if model.m > _MAX_MODEL_M:
        raise ConfigError(f"model.m must be at most {_MAX_MODEL_M}, got {model.m}")
    return RunConfig(
        params=params, model=model, mc=mc, j_top=j_top, checkpoint_ratio=float(ratio)
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


_quote = json.encoder.encode_basestring_ascii


def _dumps(obj: object, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, for JSON
    trees with string keys.  ``json.dumps`` runs its pure-Python encoder
    whenever ``indent`` is set; here a container joins its items' strings
    once, and strings go through the C escaper.  It writes ``verify {}``'s
    four artifacts (56 kB) in 0.40 ms against 1.19 ms; on series-dense's
    ``report.json`` ``json.dumps`` is faster (0.14 against 0.19 ms), so the
    per-step listings of the verify reports alone keep it."""
    if isinstance(obj, str):
        return _quote(obj)
    if not isinstance(obj, (dict, list, tuple)):
        return json.dumps(obj)
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = pad + "  "
    sep = "," + inner
    if isinstance(obj, dict):
        body = sep.join(_quote(k) + ": " + _dumps(v, inner) for k, v in sorted(obj.items()))
        return "{" + inner + body + pad + "}"
    try:  # a list of strings, most of the bytes of a verify report, in one pass
        body = sep.join(map(_quote, obj))
    except TypeError:
        body = sep.join(_dumps(v, inner) for v in obj)
    return "[" + inner + body + pad + "]"


def _write_json(path: Path, obj: object) -> None:
    path.write_text(_dumps(obj) + "\n", encoding="utf-8")


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
    import time

    # seconds per layer, logged under --verbose; nothing of it enters --out
    laps = [("", time.perf_counter())]

    def lap(layer: str) -> None:
        laps.append((layer, time.perf_counter()))

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
    lap("stage table")
    ctx = extension.context_for(table, n_max)
    a = extension.base_leveled_set(table, ctx.stage)
    log.info("context stage %d: %d fragments, %d markers",
             ctx.stage, len(a.level0), ctx.zone_edges.size)
    lap("context")
    profile = averages.event_sweep(a, ctx, n_max)
    log.info("profile has %d plateaus", len(profile.counts))
    lap("event_sweep")
    checkpoints = averages.default_checkpoints(n_max, cfg.checkpoint_ratio)
    lap("checkpoints")
    series = averages.average_series(cfg.model, profile, checkpoints, milestones)
    lap("average_series")
    report = averages.divergence_report(series, milestones, cfg.model)
    lap("divergence_report")

    csv_path = out_dir / "series.csv"
    _csv.write_series(csv_path, series)
    lap("series.csv")
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
    lap("report.json")
    if log.isEnabledFor(logging.INFO):
        import resource

        log.info("seconds per layer: %s", ", ".join(
            f"{layer} {t - t0:.4f}" for (_, t0), (layer, t) in zip(laps, laps[1:])
        ))
        log.info("peak RSS %.1f MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
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
    m = cfg.model.m
    poisson = suspension.SuspensionModel("poisson", m)
    gaussian = suspension.SuspensionModel("gaussian")
    lams = {"coincident": 1.0, "independent": 0.0, "generic": 0.4}
    rhos = {"independent": 0.0, "generic": 0.5, "coincident": 1.0}
    # per family, its (label, exact) gates and the batch runner that draws
    # the family's row streams once per seed for all of them
    families = [
        (
            [(f"poisson m={m} {k} (lam={v})", suspension.pair_integrand(poisson, v))
             for k, v in lams.items()],
            lambda c: oracle.mc_pair_integral_poisson(list(lams.values()), m, c),
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
            res = oracle.three_sigma_gate(exact, lambda c, i=i: batch(c)[i], cfg.mc)
            rows.append({"label": label, "samples": cfg.mc.samples, **asdict(res)})
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
