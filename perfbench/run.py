"""Benchmark of the ergolab CLI, end to end and per layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere; it builds and runs the checkout it sits in.  Workloads are
defined in ``workloads.json``; the seed feeds only ``mc-check``'s config seed.

``--trace 0`` prints the end-to-end metrics of one workload:

* ``wall_s``: median seconds of a warm in-process ``cli.main`` call, stdout
  captured, warm-up call excluded;
* ``wall_s_tail``: the sample with ten samples beyond it (its percentile is
  printed beside it); with fewer than 11 samples no sample has ten beyond
  it, and the largest sample is reported as p100;
* ``peak_rss_mb``: ``ru_maxrss`` of the fresh child that ran only this
  workload's calls;
* ``setup_s``: median over fresh processes of the time from spawn until
  ``import ergolab.cli``, ``load_config`` and ``build_stage_table`` are done;
* ``error_rate``: failed calls over calls attempted (wrong exit code, failed
  output check or exception); the JSON line carries it as
  ``failed``/``attempted``.

``--trace 1`` runs the same calls with spans around each layer's public
functions (see ``tracer.py``) and prints per-layer seconds, self seconds,
call counts, counters and the tracing overhead.  Spans are written to
``.perfbench/spans/``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Only one child process runs at a time.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import SPAN_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_STARTS = 9
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def workload_config(spec: dict, seed: int) -> dict:
    return {**spec["config"], "seed": seed} if spec.get("seeded") else spec["config"]


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest percentile with
    ten samples beyond it; the maximum when there are fewer than 11 samples."""
    xs = sorted(samples)
    n = len(xs)
    if n >= 11:
        return xs[n - 11], 100.0 * (n - 10) / n, 10
    return xs[-1], 100.0, 0


def setup_seconds(config_path: Path, env: dict) -> list[float]:
    times = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "ready.py"), str(config_path)],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.close()
            proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up probe failed (exit {proc.returncode})")
    return times


def run_worker(args: list[str], env: dict) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker took longer than {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench_workload(name: str, spec: dict, seed: int, seconds: int, trace: bool,
                   scratch: Path, env: dict) -> dict:
    """Runs one workload, prints its table and returns its result object."""
    config_path = scratch / f"{name}.json"
    config_path.write_text(json.dumps(workload_config(spec, seed)), encoding="utf-8")
    worker_args = [
        "--workload", name, "--config", str(config_path), "--seconds", str(seconds),
        "--scratch", str(scratch), "--trace", str(int(trace)),
    ]
    print(f"workload {name} (seed {seed}, {seconds} s, trace {int(trace)})")
    if trace:
        spans = WORK / "spans" / f"{name}-seed{seed}.jsonl"
        res = run_worker(worker_args + ["--spans", str(spans)], env)
        metrics = res["metrics"]
        print(f"  traced {len(res['traced'])} and untraced {len(res['untraced'])}"
              f" calls after one warm-up; spans in {spans.relative_to(ROOT)}")
        called = [s for s in SPAN_NAMES if metrics[f"{s}.calls"]["value"]]
        print(f"  {'span (per call of cli.main)':34s} {'s':>10s} {'self_s':>10s} {'calls':>8s}")
        for s in sorted(called, key=lambda s: -metrics[f"{s}.self_s"]["value"]):
            print(f"  {s:34s} {metrics[f'{s}.s']['value']:10.4f}"
                  f" {metrics[f'{s}.self_s']['value']:10.4f} {metrics[f'{s}.calls']['value']:8g}")
        for metric, m in metrics.items():
            if not metric.startswith(tuple(f"{s}." for s in SPAN_NAMES)):
                print(f"  {metric:34s} {m['value']:>21.6g} {m['unit']}")
    else:
        setup = setup_seconds(config_path, env)
        res = run_worker(worker_args, env)
        samples = res["samples"]
        tail_value, pct, beyond = tail(samples)
        metrics = {
            "wall_s": {"value": statistics.median(samples), "unit": "s"},
            "wall_s_tail": {"value": tail_value, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
        n = len(samples)
        print(f"  wall_s       {metrics['wall_s']['value']:.4f} s   median of {n} samples")
        print("  samples      " + " ".join(f"{x:.3f}" for x in samples))
        print(f"  wall_s_tail  {tail_value:.4f} s   p{pct:.1f} of {n} samples, {beyond} beyond it")
        print(f"  peak_rss_mb  {res['peak_rss_mb']:.1f} MB   ru_maxrss of the workload child")
        print(f"  setup_s      {metrics['setup_s']['value']:.4f} s   median of {len(setup)} fresh starts")
    print(f"  error_rate   {res['failed'] / res['attempted']:.4f}   "
          f"{res['failed']} of {res['attempted']} calls failed")
    for problem in res["problems"]:
        print(f"  FAILED {problem}")
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main() -> int:
    workloads = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))["workloads"]
    ap = argparse.ArgumentParser(description="ergolab CLI benchmark")
    ap.add_argument("--workload", required=True, choices=[*workloads, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (SRC / "ergolab" / "cli.py").is_file():
        print(f"error: no ergolab sources under {SRC}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(SRC / "ergolab", quiet=1):
        print("error: ergolab sources do not compile", file=sys.stderr)
        return 2

    scratch = WORK / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "TMPDIR": str(scratch)}
    names = list(workloads) if args.workload == "all" else [args.workload]
    try:
        results = {
            name: bench_workload(name, workloads[name], args.seed, args.seconds,
                                 bool(args.trace), scratch, env)
            for name in names
        }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if len(names) == 1:
        out = results[names[0]]
    else:  # one line for all workloads: metrics are prefixed with the workload
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
