"""Self-tests of the benchmark's checker and tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from ergolab import averages, cli, extension, tower  # noqa: E402

import checks  # noqa: E402
import worker  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402

WORKLOADS = checks.load_workloads()


def _run_cli(tmp_path: Path, command: str, config: dict) -> tuple[int, Path]:
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["--config", str(cfg), "--out", str(out), command])
    return rc, out


def test_checker_rejects_one_corrupted_byte_in_series_csv(tmp_path):
    spec = WORKLOADS["series-default"]
    rc, out = _run_cli(tmp_path, "series", spec["config"])
    assert checks.check(spec, spec["config"], rc, out) == []

    path = out / "series.csv"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))
    problems = checks.check(spec, spec["config"], rc, out)
    assert len(problems) == 1 and problems[0].startswith("series.csv")


def test_checker_rejects_verify_violation_outside_leak_range(tmp_path):
    spec = WORKLOADS["verify-default"]
    config = {"j_top": 2}  # j=1,2: both exhaustive and fast
    rc, out = _run_cli(tmp_path, "verify", config)
    assert checks.check(spec, config, rc, out) == []
    table = tower.build_stage_table(cli.parse_config(config).construction())
    assert checks.leak_range(table, 2) == range(947, 1152)

    path = out / "verify_j2.json"
    windows = json.loads(path.read_text(encoding="utf-8"))
    disjoint = next(w for w in windows if w["kind"] == "disjoint")
    disjoint["violations"].insert(0, "946")  # one step below the leak range
    path.write_text(json.dumps(windows), encoding="utf-8")
    problems = checks.check(spec, config, rc, out)
    assert any("outside the leak range (946, 1152): [946]" in p for p in problems)


def test_tracer_leaves_module_attributes_as_found(tmp_path):
    modules = [m for n, m in sys.modules.items() if n == "ergolab" or n.startswith("ergolab.")]
    before = [dict(vars(m)) for m in modules]
    originals = (averages.refine, extension.refine, averages.pair_integrand)
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.invocation(0):
            # names imported by name are patched in the importing module too
            assert averages.refine is not originals[0]
            assert extension.refine is not originals[1]
            assert averages.pair_integrand is not originals[2]
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["--out", str(tmp_path), "build"]) == 0
            raise RuntimeError("leave the block by an exception")
    for m, seen in zip(modules, before):
        now = vars(m)
        assert now.keys() == seen.keys(), m.__name__
        assert all(now[k] is v for k, v in seen.items()), m.__name__
    names = {span[1] for span in tracer.spans}
    assert names == {"cli.load_config", "tower.build_stage_table"}


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    emitted = [f"{s}.{k}" for s in SPAN_NAMES for k in ("s", "self_s", "calls")]
    emitted += [*worker.COUNTERS, "trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == emitted
