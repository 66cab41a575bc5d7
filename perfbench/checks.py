"""Output checks for one CLI invocation; each failed check counts against error_rate.

* ``series``: ``series.csv`` and ``report.json`` match the sha256 digests
  recorded in ``workloads.json`` (the artifacts must stay bit for bit).
* ``verify``: no violation in any coincidence window or in conjugacy; every
  disjoint-window violation for ``j`` lies in the exact leak range
  ``(q*h_q - M_q, q*h_q)`` with ``q = 2j``; in exhaustive mode every step
  count of that range inside the window is reported.
* ``mc-check``: every gate passes.

Exit codes are checked for every workload.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ergolab import cli, extension, tower

WORKLOADS_FILE = Path(__file__).with_name("workloads.json")


def load_workloads() -> dict:
    return json.loads(WORKLOADS_FILE.read_text(encoding="utf-8"))["workloads"]


def digests(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


def read_verify_reports(out_dir: Path) -> dict[int, dict[str, tuple[str, frozenset[int]]]]:
    """``j -> window kind -> (mode, violating step counts)`` from ``verify_j*.json``.

    The only code that knows how violations are written down.
    """
    out: dict[int, dict[str, tuple[str, frozenset[int]]]] = {}
    for path in sorted(out_dir.glob("verify_j*.json")):
        for window in json.loads(path.read_text(encoding="utf-8")):
            out.setdefault(window["j"], {})[window["kind"]] = (
                window["mode"],
                frozenset(int(i) for i in window["violations"]),
            )
    return out


def leak_range(table: tower.StageTable, j: int) -> range:
    """Step counts in the open interval ``(q*h_q - M_q, q*h_q)``, ``q = 2j``.

    ``M_q`` is the largest stage-``q`` floor index of the base set: the sum of
    the last column offsets of stages ``1 .. q-1``.
    """
    q = 2 * j
    m_q = sum(table.column_offsets(k)[-1] for k in range(1, q))
    top = q * table.height(q)
    return range(top - m_q + 1, top)


def _check_series(spec: dict, cfg: cli.RunConfig, out_dir: Path) -> list[str]:
    got = digests(out_dir)
    return [
        f"{name}: sha256 {got.get(name)} differs from the recorded {want}"
        for name, want in spec["digests"].items()
        if got.get(name) != want
    ]


def _check_verify(spec: dict, cfg: cli.RunConfig, out_dir: Path) -> list[str]:
    table = tower.build_stage_table(cfg.construction())
    reports = read_verify_reports(out_dir)
    want_js = [
        j for j in range(1, cfg.j_top + 1)
        if table.params.carries_markers(2 * j) and 2 * j + 1 <= table.j_max
    ]
    problems = []
    if sorted(reports) != want_js:
        problems.append(f"verify reports for j={sorted(reports)}, expected {want_js}")
    for j in sorted(reports):
        _, coincide = reports[j]["coincide"]
        if coincide:
            problems.append(f"j={j}: {len(coincide)} violations in the coincidence window")
        mode, disjoint = reports[j]["disjoint"]
        leak = leak_range(table, j)
        outside = sorted(i for i in disjoint if i not in leak)
        if outside:
            problems.append(
                f"j={j}: disjoint-window violations outside the leak range"
                f" ({leak.start - 1}, {leak.stop}): {outside[:5]}"
            )
        (lo, hi), _ = extension.claim_windows(table, j)
        in_window = frozenset(range(max(leak.start, lo + 1), min(leak.stop, hi)))
        if mode == "exhaustive" and disjoint != in_window:
            problems.append(
                f"j={j}: exhaustive check reports {len(disjoint)} violations,"
                f" the leak range holds {len(in_window)}"
            )
    conj = json.loads((out_dir / "conjugacy.json").read_text(encoding="utf-8"))
    if conj["mismatch_count"]:
        problems.append(f"conjugacy: {conj['mismatch_count']} mismatches")
    return problems


def _check_mc_check(spec: dict, cfg: cli.RunConfig, out_dir: Path) -> list[str]:
    rows = json.loads((out_dir / "mc_check.json").read_text(encoding="utf-8"))["rows"]
    return [f"gate failed: {r['label']}" for r in rows if not r["passed"]]


_CHECKS = {"series": _check_series, "verify": _check_verify, "mc-check": _check_mc_check}


def check(spec: dict, config: dict, exit_code: int | None, out_dir: Path) -> list[str]:
    """Everything wrong with one invocation's exit code and artifacts."""
    problems = []
    if exit_code != spec["exit_code"]:
        problems.append(f"exit code {exit_code}, expected {spec['exit_code']}")
    try:
        problems += _CHECKS[spec["command"]](spec, cli.parse_config(config), out_dir)
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"unreadable artifacts: {exc!r}")
    return problems
