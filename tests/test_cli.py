"""End-to-end CLI behavior: artifacts, exit codes, determinism."""

import csv
import json

import pytest

from ergolab import ConstructionParams, build_stage_table
from ergolab.cli import ConfigError, load_config, main, parse_config


def run(tmp_path, *args, config=None):
    tmp_path.mkdir(parents=True, exist_ok=True)
    argv = ["--out", str(tmp_path / "out")]
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        argv = ["--config", str(cfg_path)] + argv
    return main(argv + list(args)), tmp_path / "out"


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


SMALL = {"j_max": 7, "j_top": 2, "mc_samples": 50_000}


def test_parse_config_defaults():
    cfg = parse_config({})
    assert cfg.preset == "basic" and cfg.j_max == 9 and cfg.j_top == 3
    assert cfg.marker_stages is None
    assert cfg.model_kind == "poisson" and cfg.model_m == 1


def test_parse_config_rejects_bad_input():
    for raw in (
        {"preset": "nope"},
        {"j_max": 0},
        {"marker_stages": [3]},
        {"marker_stages": "some"},
        {"model": {"kind": "poisson", "m": -1}},
        {"model": {"kind": "poisson", "extra": 1}},
        {"checkpoint_ratio": 1.0},
        {"unknown_key": 1},
        {"mc_samples": 0},
    ):
        with pytest.raises(ConfigError):
            parse_config(raw)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.json"))


def test_build_writes_stage_table(tmp_path, capsys):
    code, out = run(tmp_path, "build", config={"j_max": 7})
    assert code == 0
    dump = read_json(out / "stages.json")
    assert [rec["h"] for rec in dump["stages"]] == [
        "1", "4", "24", "288", "5760", "172800", "7257600",
    ]
    assert dump["marker_stages"] == [2, 4, 6]
    assert dump["config"]["j_max"] == 7


def test_build_invalid_config_exits_2(tmp_path):
    code, _ = run(tmp_path, "build", config={"preset": "bogus"})
    assert code == 2


def test_verify_j1_is_diagnostic_only(tmp_path, capsys):
    code, out = run(tmp_path, "verify", "--j", "1", config=SMALL)
    assert code == 0  # the j=1 outcome is recorded, never asserted
    recs = read_json(out / "verify_j1.json")
    assert recs[0]["violations"] == ["7"]
    assert recs[0]["asserted"] is False
    assert "diagnostic" in capsys.readouterr().out


def test_verify_j2_reports_the_window_leak(tmp_path):
    code, out = run(tmp_path, "verify", "--j", "2", config=SMALL)
    # the top of the disjointness window genuinely overlaps: exit 1
    assert code == 1
    recs = read_json(out / "verify_j2.json")
    disjoint, coincide = recs
    assert disjoint["violations"][0] == "947"
    assert disjoint["violations"][-1] == "1151"
    assert coincide["violations"] == []
    conj = read_json(out / "conjugacy.json")
    assert conj["mismatch_count"] == 0


def test_verify_unknown_j_exits_2(tmp_path):
    code, _ = run(tmp_path, "verify", "--j", "5", config=SMALL)
    assert code == 2


def test_verify_with_insufficient_stages_exits_2(tmp_path):
    # j=2 windows reach 23039 steps, which no stage below 6 can absorb
    code, _ = run(tmp_path, "verify", "--j", "2", config={"j_max": 5, "j_top": 2})
    assert code == 2


def test_series_beyond_int64_exits_2_naming_the_height(tmp_path, capsys):
    code, _ = run(tmp_path, "series", config={"j_max": 14, "j_top": 6})
    assert code == 2
    h_14 = build_stage_table(ConstructionParams(j_max=14)).height(14)
    assert str(h_14) in capsys.readouterr().err


def test_series_over_the_pair_budget_exits_2_naming_the_counts(tmp_path, capsys):
    # 725,760 fragments x 852,912 markers at stage 10; the sweep would need
    # several GB, so it stops after counting the pairs
    code, _ = run(tmp_path, "series", config={"j_max": 11, "j_top": 4})
    assert code == 2
    err = capsys.readouterr().err
    assert "needs 34392314880 flip pairs" in err
    assert "holds 191626792," in err


def test_series_artifacts(tmp_path):
    code, out = run(tmp_path, "series", config=SMALL)
    assert code == 0
    with (out / "series.csv").open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["n"] == "1"
    assert rows[-1]["n"] == "23040"
    milestone_rows = [r for r in rows if r["is_milestone"] == "1"]
    assert {r["n"] for r in milestone_rows} >= {"4", "8", "24", "48", "288", "1152"}
    for r in rows:
        num, den = int(r["overlap_num"]), int(r["overlap_den"])
        assert 0 <= num <= den
        float(r["integrand"]), float(r["a_n"])  # parseable floats
    report = read_json(out / "report.json")
    assert report["n_max"] == "23040"
    assert all(b["passed"] for b in report["divergence"]["bound_checks"])


def test_series_runs_are_byte_identical(tmp_path):
    code1, out1 = run(tmp_path / "a", "series", config=SMALL)
    code2, out2 = run(tmp_path / "b", "series", config=SMALL)
    assert code1 == code2 == 0
    assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_mc_check_passes_and_is_deterministic(tmp_path):
    code1, out1 = run(tmp_path / "a", "mc-check", config=SMALL)
    assert code1 == 0
    rows = read_json(out1 / "mc_check.json")["rows"]
    assert len(rows) == 6
    assert all(r["passed"] for r in rows)
    assert all(r["samples"] == 50_000 for r in rows)
    code2, out2 = run(tmp_path / "b", "mc-check", config=SMALL)
    assert code2 == 0
    assert (out1 / "mc_check.json").read_bytes() == (out2 / "mc_check.json").read_bytes()


def test_series_with_single_marker_stage_flags_insufficiency(tmp_path):
    code, out = run(
        tmp_path, "series",
        config={"j_max": 5, "j_top": 1, "marker_stages": [2]},
    )
    assert code == 0  # degenerate setup is reported, not failed
    report = read_json(out / "report.json")
    assert report["divergence"]["insufficient_stages"] is True


def test_gaussian_model_series(tmp_path):
    code, out = run(
        tmp_path, "series", config={**SMALL, "model": {"kind": "gaussian"}}
    )
    assert code == 0
    report = read_json(out / "report.json")
    assert report["divergence"]["c"] == 0.5
    assert all(b["passed"] for b in report["divergence"]["bound_checks"])
