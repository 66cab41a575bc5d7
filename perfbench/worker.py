"""Runs one workload's CLI invocations in this fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --config FILE --seconds S \
        --trace 0|1 --scratch DIR [--spans FILE]

Invocations call ``ergolab.cli.main`` in-process with stdout captured.  The
first one warms caches and is not timed; later ones start until ``--seconds``
have passed.  Each gets a fresh ``--out`` directory under
``--scratch``, which is checked and deleted.  Every invocation must also
write the same artifacts as the first one.

With ``--trace 1`` untraced and traced invocations alternate, so the traced
artifacts are compared with untraced ones and the tracing overhead is
measured in the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
from ergolab import cli, tower  # noqa: E402

import checks  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402

# counter name -> unit; computed per traced invocation from captured calls
COUNTERS = {
    "extension.context_stage": "stage",
    "extension.fragments": "count",
    "extension.markers": "count",
    "averages.raw_event_pairs": "count",
    "averages.plateaus": "count",
    "averages.distinct_counts": "count",
    "averages.checkpoints": "count",
    "averages.plateau_yield": "ratio",
    "extension.checked_steps": "count",
    "extension.violations": "count",
    "oracle.samples": "count",
    "oracle.retries": "count",
    "oracle.samples_per_s": "1/s",
    "cli.bytes_written": "B",
}
# the one counter that is a rate, so it may differ between invocations
_RATES = ("oracle.samples_per_s",)
_MC_RUNNERS = ("oracle.mc_pair_integral_poisson", "oracle.mc_gaussian_orthant")
CAPTURED = (
    "extension.context_for",
    "extension.verify_windows",
    "averages.event_sweep",
    "averages.average_series",
    "oracle.three_sigma_gate",
) + _MC_RUNNERS


def counters(calls: list[tuple[str, tuple, object]], totals: dict, out_bytes: int) -> dict:
    """Counters of one traced invocation from the public objects its calls saw."""
    got = defaultdict(list)
    for name, args, result in calls:
        got[name].append((args, result))
    c = dict.fromkeys(COUNTERS, 0)
    contexts = [ctx for _, ctx in got["extension.context_for"]]
    if contexts:
        ctx = max(contexts, key=lambda x: x.stage)
        c["extension.context_stage"] = ctx.stage
        c["extension.fragments"] = len(tower.base_floorset(ctx.table, ctx.stage))
        c["extension.markers"] = len(ctx.e_indices)
    for (a, ctx, n_max), profile in got["averages.event_sweep"]:
        frags = np.asarray(
            tower.refine(ctx.table, a.level0, ctx.stage).indices
            + tower.refine(ctx.table, a.level1, ctx.stage).indices,
            dtype=np.int64,
        )
        e = np.asarray(ctx.e_indices, dtype=np.int64)
        pairs = np.searchsorted(e, frags + n_max) - np.searchsorted(e, frags)
        c["averages.raw_event_pairs"] += int(pairs.sum())
        c["averages.plateaus"] += len(profile.counts)
        c["averages.distinct_counts"] += len(set(profile.counts))
    if c["averages.raw_event_pairs"]:
        c["averages.plateau_yield"] = c["averages.plateaus"] / c["averages.raw_event_pairs"]
    c["averages.checkpoints"] = sum(len(s) for _, s in got["averages.average_series"])
    for _, report in got["extension.verify_windows"]:
        for check in report.checks:
            c["extension.checked_steps"] += check.checked_count
            c["extension.violations"] += len(check.violations)
    c["oracle.samples"] = sum(args[-1].samples for n in _MC_RUNNERS for args, _ in got[n])
    c["oracle.retries"] = sum(g.retried for _, g in got["oracle.three_sigma_gate"])
    mc_seconds = sum(totals[n][0] for n in _MC_RUNNERS)
    if mc_seconds:
        c["oracle.samples_per_s"] = c["oracle.samples"] / mc_seconds
    c["cli.bytes_written"] = out_bytes
    return c


class Run:
    def __init__(self, spec: dict, config_path: Path, scratch: Path) -> None:
        self.spec = spec
        self.config = json.loads(config_path.read_text(encoding="utf-8"))
        self.argv = ["--config", str(config_path)]
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digests: dict[str, str] | None = None

    def invoke(self, tracer: Tracer | None = None) -> tuple[float, int]:
        """One checked invocation; returns (seconds, bytes written)."""
        out = Path(tempfile.mkdtemp(prefix="out-", dir=self.scratch))
        argv = self.argv + ["--out", str(out), self.spec["command"]]
        inv = self.attempted
        self.attempted += 1
        gc.collect()
        rc = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    with tracer.invocation(inv):
                        rc = cli.main(argv)
        except Exception:  # an invocation that raises is a counted failure
            traceback.print_exc()
        seconds = time.perf_counter() - start
        problems = checks.check(self.spec, self.config, rc, out)
        got = checks.digests(out)
        if self.first_digests is None:
            self.first_digests = got
        elif got != self.first_digests:
            problems.append("artifacts differ from the first invocation's")
        out_bytes = sum(p.stat().st_size for p in out.iterdir())
        shutil.rmtree(out)
        if problems:
            self.failed += 1
            self.problems += [f"invocation {inv}: {p}" for p in problems]
        return seconds, out_bytes

    def result(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "problems": self.problems[:10]}


def measure(run: Run, seconds: float) -> dict:
    """Untraced timing: warm-up, then invocations until the budget is spent."""
    run.invoke()
    deadline = time.perf_counter() + seconds
    samples: list[float] = []
    while not samples or time.perf_counter() < deadline:
        samples.append(run.invoke()[0])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {**run.result(), "samples": samples, "peak_rss_mb": rss_mb}


def traced(run: Run, seconds: float, spans_path: Path) -> dict:
    """Alternating untraced/traced invocations; per-layer metrics and counters."""
    tracer = Tracer(capture=CAPTURED)
    run.invoke()
    deadline = time.perf_counter() + seconds
    plain: list[float] = []
    with_trace: list[float] = []
    per_inv_counters: dict[int, dict] = {}
    while not plain or time.perf_counter() < deadline:
        plain.append(run.invoke()[0])
        inv = run.attempted  # the id the next invoke() gives its spans
        secs, out_bytes = run.invoke(tracer)
        with_trace.append(secs)
        totals = tracer.layer_totals()[inv]
        calls = [(n, a, r) for i, n, a, r in tracer.captured if i == inv]
        per_inv_counters[inv] = counters(calls, totals, out_bytes)
        tracer.captured.clear()
    tracer.write_spans(spans_path)

    metrics: dict[str, dict] = {}
    all_totals = tracer.layer_totals()
    invs = sorted(per_inv_counters)
    for name in SPAN_NAMES:
        for k, (suffix, unit) in enumerate((("s", "s"), ("self_s", "s"), ("calls", "count"))):
            value = statistics.median(all_totals[i][name][k] for i in invs)
            metrics[f"{name}.{suffix}"] = {"value": value, "unit": unit}
    for name, unit in COUNTERS.items():
        values = [per_inv_counters[i][name] for i in invs]
        if name not in _RATES and len(set(values)) > 1:
            run.failed += 1
            run.problems.append(f"counter {name} changed between invocations: {values}")
        metrics[name] = {"value": statistics.median(values) if name in _RATES else values[0], "unit": unit}
    overhead = statistics.median(with_trace) - statistics.median(plain)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return {**run.result(), "untraced": plain, "traced": with_trace, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--config", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", required=True, type=Path)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()
    run = Run(checks.load_workloads()[args.workload], args.config, args.scratch)
    if args.trace:
        result = traced(run, args.seconds, args.spans)
    else:
        result = measure(run, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
