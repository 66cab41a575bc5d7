"""End-to-end CLI behavior: artifacts, exit codes, determinism."""

import csv
import dataclasses
import hashlib
import json
import logging
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ergolab
from ergolab import (
    BudgetExceeded,
    ConstructionParams,
    SuspensionModel,
    base_floorset,
    build_stage_table,
    claim_windows,
    verify_windows,
)
from ergolab import cli, extension, oracle
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
    assert cfg.params == ConstructionParams(preset="basic", j_max=9, marker_stages=None)
    assert cfg.model == SuspensionModel(kind="poisson", m=1)
    assert cfg.mc == oracle.McConfig(seed=1, samples=1_000_000)
    assert cfg.j_top == 3 and cfg.checkpoint_ratio == 1.05


def test_parse_config_takes_omitted_keys_from_the_library_defaults(monkeypatch):
    """An omitted key is left to the default of the object it builds: the
    CLI holds defaults for its own ``j_top`` and ``checkpoint_ratio`` only."""

    @dataclasses.dataclass(frozen=True)
    class Params(ConstructionParams):
        preset: str = "staircase-mixing"
        j_max: int = 7

    @dataclasses.dataclass(frozen=True)
    class Model(SuspensionModel):
        kind: str = "gaussian"
        m: int = 2

    @dataclasses.dataclass(frozen=True)
    class Mc(oracle.McConfig):
        seed: int = 5
        samples: int = 7

    monkeypatch.setattr(cli.tower, "ConstructionParams", Params)
    monkeypatch.setattr(cli.suspension, "SuspensionModel", Model)
    monkeypatch.setattr(cli.oracle, "McConfig", Mc)
    echo = parse_config({}).echo()
    assert echo == {
        "preset": "staircase-mixing",
        "j_max": 7,
        "marker_stages": "all-even",
        "model": {"kind": "gaussian", "m": 2},
        "j_top": 3,
        "checkpoint_ratio": 1.05,
        "seed": 5,
        "mc_samples": 7,
    }
    assert parse_config({"j_max": 8, "model": {"m": 0}, "seed": 2}).echo() == {
        **echo, "j_max": 8, "model": {"kind": "gaussian", "m": 0}, "seed": 2
    }


def test_echo_gives_the_normalised_config():
    """The echo that every JSON artifact carries: marker stages sorted and
    deduplicated, the ratio a float, the model's omitted ``m`` filled in."""
    echo = parse_config(
        {"marker_stages": [4, 2, 2], "checkpoint_ratio": 2, "model": {"kind": "gaussian"}}
    ).echo()
    assert echo["marker_stages"] == [2, 4]
    assert echo["checkpoint_ratio"] == 2.0 and type(echo["checkpoint_ratio"]) is float
    assert echo["model"] == {"kind": "gaussian", "m": 1}


def test_parse_config_rejects_bad_input():
    for raw in (
        {"preset": "nope"},
        {"j_max": 0},
        {"marker_stages": [3]},
        {"marker_stages": "some"},
        {"model": {"kind": "poisson", "m": -1}},
        {"model": {"kind": "poisson", "extra": 1}},
        {"checkpoint_ratio": 1.0},
        {"checkpoint_ratio": math.inf},
        {"checkpoint_ratio": math.nan},
        {"checkpoint_ratio": 10**400},
        {"unknown_key": 1},
        {"mc_samples": 0},
        # JSON true/false load as bool, an int subclass
        {"j_max": True},
        {"j_top": True},
        {"seed": False},
        {"seed": -1},
        {"mc_samples": True},
        {"model": {"kind": "poisson", "m": False}},
        # c**2 = P(98; 1)**2 is subnormal
        {"model": {"m": 98}},
        {"model": {"m": 171}},
        # the library objects refuse what is not an int, before any set is formed
        {"marker_stages": [2.0]},
        {"marker_stages": ["2"]},
        {"marker_stages": [[2]]},
        {"marker_stages": [True]},
        {"marker_stages": [2, 2.0]},
        {"model": {"kind": 5}},
        {"checkpoint_ratio": "1.05"},
    ):
        with pytest.raises(ConfigError):
            parse_config(raw)
    assert parse_config({"model": {"m": 97}}).model.m == 97


def test_unreadable_config_exits_2_with_one_error_line(tmp_path, capsys):
    for k, data in enumerate((
        b"\xff\xfe{}",  # not UTF-8
        b"[" * 100_000 + b"]" * 100_000,  # nested past the JSON parser's stack
    )):
        cfg_path = tmp_path / f"cfg{k}.json"
        cfg_path.write_bytes(data)
        out = tmp_path / f"out{k}"
        assert main(["--config", str(cfg_path), "--out", str(out), "build"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: cannot read config {cfg_path}: ")
        assert not out.exists()


def test_out_that_is_a_file_exits_2_naming_it(tmp_path, capsys):
    (tmp_path / "out").write_text("", encoding="utf-8")
    code, out = run(tmp_path, "build", config={"j_max": 3})
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: cannot create output directory")
    assert str(out) in err[0]


def test_series_with_infinite_checkpoint_ratio_exits_2(tmp_path, capsys):
    # json loads the bare token Infinity as a float
    code, out = run(
        tmp_path, "series",
        config={"checkpoint_ratio": math.inf, "j_max": 5, "j_top": 1},
    )
    assert code == 2
    assert "checkpoint_ratio" in capsys.readouterr().err
    assert not (out / "series.csv").exists()


def test_series_over_the_checkpoint_budget_exits_2_naming_the_bound(tmp_path, capsys):
    """A ratio this near 1 steps by one to N=43,545,600: the preflight stops
    the run before one checkpoint is built."""
    t0 = time.perf_counter()
    code, out = run(tmp_path, "series", config={"checkpoint_ratio": 1.0000000001})
    assert time.perf_counter() - t0 < 5.0
    assert code == 2
    err = capsys.readouterr().err
    assert "up to 43545600 checkpoints, over the budget of 4194304" in err
    assert not (out / "series.csv").exists()


def test_mc_check_with_a_negative_seed_exits_2(tmp_path, capsys):
    code, out = run(tmp_path, "mc-check", config={"seed": -1})
    assert code == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not (out / "mc_check.json").exists()


def test_build_with_a_huge_j_max_exits_2_within_a_second(tmp_path, capsys):
    t0 = time.perf_counter()
    code, out = run(tmp_path, "build", config={"j_max": 10**6})
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: j_max 1000000: the stage table")
    assert "at stage 583, an estimated" in err[0]
    assert not (out / "stages.json").exists()


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
    for k, config in enumerate(({"preset": "bogus"}, {"j_max": True, "seed": False})):
        code, out = run(tmp_path / str(k), "build", config=config)
        assert code == 2
        assert not (out / "stages.json").exists()


def test_verify_j1_is_diagnostic_only(tmp_path, capsys):
    code, out = run(tmp_path, "verify", config={**SMALL, "j_top": 1})
    assert code == 0  # the j=1 outcome is recorded, never asserted
    recs = read_json(out / "verify_j1.json")
    assert recs[0]["violations"] == ["7"]
    assert recs[0]["asserted"] is False
    assert "diagnostic" in capsys.readouterr().out


def test_verify_j2_reports_the_window_leak(tmp_path):
    code, out = run(tmp_path, "verify", config=SMALL)
    # the top of the j=2 disjointness window genuinely overlaps: exit 1
    assert code == 1
    recs = read_json(out / "verify_j2.json")
    disjoint, coincide = recs
    assert disjoint["violations"][0] == "947"
    assert disjoint["violations"][-1] == "1151"
    assert coincide["violations"] == []
    conj = read_json(out / "conjugacy.json")
    # the j=2 windows are checked at stage 6
    assert conj == {
        "stage": 6,
        "floors_checked": "172799",
        "mismatch_count": 0,
        "mismatched_floors": [],
    }


def test_verify_default_lists_the_clean_j3_coincidence_window_in_full(tmp_path):
    code, out = run(tmp_path, "verify", config={})
    assert code == 1  # the j=2 and j=3 disjointness windows leak
    disjoint, coincide = read_json(out / "verify_j3.json")
    assert (disjoint["mode"], disjoint["checked_count"]) == ("sampled", 10_002)
    assert len(disjoint["violations"]) == 1654
    assert (coincide["mode"], coincide["checked_count"]) == ("exhaustive", 36_287_999)
    assert coincide["violations"] == coincide["violation_values"] == []


def test_verify_without_a_window_checks_the_marker_stages(tmp_path):
    # j_top=1 leaves no window for marker stage 4, whose markers sit at
    # stage 5; with no markers at all the stage-1 tower has no floor step
    for k, (config, stage, floors) in enumerate((
        ({"j_max": 9, "j_top": 1, "marker_stages": [4]}, 5, "5759"),
        ({"j_max": 14, "marker_stages": []}, 1, "0"),
    )):
        code, out = run(tmp_path / str(k), "verify", config=config)
        assert code == 0
        assert not list(out.glob("verify_j*.json"))
        conj = read_json(out / "conjugacy.json")
        assert (conj["stage"], conj["floors_checked"], conj["mismatch_count"]) == (
            stage, floors, 0
        )


def test_verify_takes_its_windows_from_the_config_alone(tmp_path):
    # j = 1..j_top come from the config; there is no --j to pick a subset
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "verify", "--j", "2", config=SMALL)
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_verify_with_insufficient_stages_exits_2(tmp_path, capsys):
    # j=2 windows reach 23039 steps, which no stage below 6 can absorb; j=1
    # is checked first, but nothing is written or printed before j=2 fails
    code, out = run(tmp_path, "verify", config={"j_max": 5, "j_top": 2})
    assert code == 2
    assert capsys.readouterr().out == ""
    assert not list(out.glob("verify_j*.json"))


def test_series_beyond_int64_exits_2_naming_the_height(tmp_path, capsys):
    code, _ = run(tmp_path, "series", config={"j_max": 14, "j_top": 6})
    assert code == 2
    h_14 = build_stage_table(ConstructionParams(j_max=14)).height(14)
    assert str(h_14) in capsys.readouterr().err


def test_context_over_the_floor_budget_exits_2_naming_the_floors(tmp_path, capsys):
    """``series`` needs its context at stage 12: it stops on the floor count,
    before any floor is built, and leaves ``--out`` empty."""
    t0 = time.perf_counter()
    code, out = run(tmp_path, "series", config={"j_top": 5, "j_max": 13})
    assert time.perf_counter() - t0 < 5.0
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: stage 12 holds 93820540 marker floors and 79833600 base floors,"
        " over the budget of 16777216 floors"
    ]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("j_top", [5, 7])
def test_verify_past_the_context_reports_the_leak_and_passes_conjugacy(tmp_path, capsys, j_top):
    """``verify`` builds no context, so at ``j_top`` 5 and 7 (stages 12 and
    16, past the context budget and past int64) it checks every window and
    the conjugacy certificate: exit 1 on the leak of each asserted
    disjointness window, and no mismatch on the ``h_s - 1`` floor steps."""
    config = {"j_top": j_top, "j_max": 2 * j_top + 3}
    table = build_stage_table(ConstructionParams(j_max=config["j_max"]))
    t0 = time.perf_counter()
    code, out = run(tmp_path, "verify", config=config)
    assert time.perf_counter() - t0 < 5.0
    assert code == 1
    for j in range(1, j_top + 1):
        disjoint, coincide = read_json(out / f"verify_j{j}.json")
        q = 2 * j
        top = q * table.height(q)
        m_q = sum(table.column_offsets(i)[-1] for i in range(1, q))
        assert disjoint["violations"] and all(
            top - m_q < int(i) < top for i in disjoint["violations"]
        )
        assert coincide["violations"] == []
    stage = 2 * j_top + 2
    assert read_json(out / "conjugacy.json") == {
        "stage": stage,
        "floors_checked": str(table.height(stage) - 1),
        "mismatch_count": 0,
        "mismatched_floors": [],
    }
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"conjugacy at stage {stage} ({table.height(stage) - 1} floor steps): pass"
    )


def test_verify_past_int64_base_counts_reports_the_leak_without_a_traceback(tmp_path, capsys):
    """At ``j_top=10`` the j=10 windows count ``2*21!`` base floors, past
    ``2**63``, so their counts and weights are Python ints: ``verify``
    returns 1 on the leak, raises nothing, and writes ``verify_j10.json``."""
    code, out = run(tmp_path, "verify", config={"j_top": 10, "j_max": 23})
    assert code == 1
    disjoint, coincide = read_json(out / "verify_j10.json")
    assert disjoint["violations"] and coincide["violations"] == []
    assert capsys.readouterr().err == ""


def test_series_over_the_pair_budget_exits_2_naming_the_counts(tmp_path):
    """725,760 fragments at stage 10 in 355 chunks: the first chunk's
    surviving differences, summed per marker stage, and base floors make
    2,028,198 (d, b) events, so ``series`` stops on the event budget before
    building any of them, in a fresh interpreter under 140 MB."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"j_max": 11, "j_top": 4}), encoding="utf-8")
    # a small parent reads the peak of its one child, as in
    # test_verify_builds_no_context
    script = (
        "import resource, subprocess, sys\n"
        "proc = subprocess.run([sys.executable, '-m', 'ergolab', *sys.argv[1:]],"
        " capture_output=True, text=True)\n"
        "sys.stderr.write(proc.stderr)\n"
        "print(proc.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(ergolab.__file__).parents[1])}
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", script, "--config", str(cfg_path),
         "--out", str(tmp_path / "out"), "series"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert time.perf_counter() - t0 < 5.0
    code, peak_kb = map(int, proc.stdout.splitlines()[-1].split())
    assert code == 2
    assert proc.stderr.splitlines() == [
        "error: series fragment chunk 0 of 355 needs 2028198 (d, b) events,"
        " over the budget of 1048576"
    ]
    assert peak_kb < 140 * 1024, f"peak RSS {peak_kb / 1024:.1f} MB"
    assert not (tmp_path / "out").exists() or list((tmp_path / "out").iterdir()) == []


def test_verify_over_the_window_budgets_exits_2_naming_the_counts(tmp_path, capsys, monkeypatch):
    """An uncertified window expands its survivors' ``(d, b)`` events only
    within ``_EVENT_BUDGET``, and a survivor search forms partial sums only
    within ``_PARTIAL_BUDGET``.  Column 1 of stage 4 moved down by ``h_4 - 1``
    floors leaves the j=2 disjointness window uncertified: an event budget one
    below its events stops it.  A partial-sum budget of 4 stops j=1, whose
    search starts from the 5 differences of the 3 stage-3 columns."""
    import ergolab.extension as ext

    table = build_stage_table(ConstructionParams(j_max=SMALL["j_max"]))
    offsets = [list(o) for o in table.offsets]
    offsets[3][1] -= table.height(4) - 1
    broken = dataclasses.replace(table, offsets=tuple(map(tuple, offsets)))
    (lo, hi), _ = claim_windows(broken, 2)
    # base floor b of B_q puts fragments into a zone on the steps
    # [h_q + 1 + d - b, q*h_q + d - b] for each survivor (q, d)
    events = 0
    for q, d, _ in ext._survivors(broken, 6, lo, hi, ""):
        h = broken.height(q)
        steps = [(h + 1 + d - b, q * h + d - b) for b in base_floorset(broken, q).indices]
        events += sum(first < hi and last > lo for first, last in steps)
    assert events > 0
    monkeypatch.setattr(ext, "_EVENT_BUDGET", events - 1)
    with pytest.raises(BudgetExceeded) as exc:
        verify_windows(broken, 2)
    assert f"j=2 disjoint window ({lo}, {hi}) is not certified" in str(exc.value)
    assert f" {events} (d, b) events, over the budget of {events - 1}" in str(exc.value)

    # j=1 passes first, then j=2 stops the run
    monkeypatch.setattr(cli.tower, "build_stage_table", lambda params: broken)
    code, _ = run(tmp_path / "events", "verify", config=SMALL)
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {exc.value}"]
    monkeypatch.setattr(ext, "_EVENT_BUDGET", events)
    assert verify_windows(broken, 2).checks[0].violations

    monkeypatch.undo()
    monkeypatch.setattr(ext, "_PARTIAL_BUDGET", 4)
    code, out = run(tmp_path / "partial", "verify", config=SMALL)
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: j=1 disjoint window (4, 8): a pruned sum would form 5 partial sums"
        " at one stage, over the budget of 4"
    ]
    assert not list(out.glob("verify_j*.json"))


VERIFY_DEFAULT_DIGESTS = {
    "verify_j1.json": "61e8f9c680a443f2bb5fd0bda047ce456960eea382382081dac5fc26b557e633",
    "verify_j2.json": "a63fff018cb0010eb2ac2e68d3d5010d92bb3c776a7d8d7ffd56edd3ee93969d",
    "verify_j3.json": "9cf3937689c12f8f005380d06ad62a52a53fe6a9f8a7cd30bd686b30eac51bde",
    "conjugacy.json": "29ce5e7651b576a54e875647e8fc184dc10f7d7d6b5dcb3169e17d41cdaa933c",
}


DEFAULT_DIGESTS = {
    "series": {
        "report.json": "3f5ad1f274362281121535b7cb8f9b09866d393304f49826edd327872ec8fc7c",
        "series.csv": "b904427e1a8e98bfb31bc327bc04e5257266382adc148920a9e4500927136670",
    },
    "build": {
        "stages.json": "fd63e04e11f1bf937a9b1a096545470d6d0a96b0db181b86f197b9d429a1837c",
    },
}


@pytest.mark.parametrize("command", sorted(DEFAULT_DIGESTS))
def test_series_and_build_default_artifacts_are_pinned(tmp_path, command):
    """``series {}`` and ``build {}`` byte for byte, config echo included."""
    code, out = run(tmp_path, command, config={})
    assert code == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()} == (
        DEFAULT_DIGESTS[command]
    )


def test_verify_default_artifacts_are_pinned(tmp_path, capsys):
    """``verify {}`` byte for byte: the exit code, every file it writes and
    its stdout."""
    code, out = run(tmp_path, "verify", config={})
    assert code == 1
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()} == (
        VERIFY_DEFAULT_DIGESTS
    )
    stdout = capsys.readouterr().out.encode("utf-8")
    assert (
        hashlib.sha256(stdout).hexdigest()
        == "ecea3fe69a847b547814e6fe9d3aa4e1ead2f9fef36a1e3f2386b3c2535d3f0a"
    )


def test_verify_builds_no_context(tmp_path, monkeypatch):
    """``verify {}`` writes its pinned artifacts with the cocycle context
    refused, and ``verify {"j_top": 4, "j_max": 11}``, whose conjugacy check
    once built the 852,912 markers of stage 10 and peaked at 96 MB, runs in
    a fresh interpreter under 60 MB."""

    def refuse(*args):
        raise AssertionError("verify built a cocycle context")

    monkeypatch.setattr(extension, "cocycle_context", refuse)
    monkeypatch.setattr(extension, "context_for", refuse)
    code, out = run(tmp_path / "default", "verify", config={})
    assert code == 1
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()} == (
        VERIFY_DEFAULT_DIGESTS
    )

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"j_top": 4, "j_max": 11}), encoding="utf-8")
    # a small parent reads the peak of its one child: a process forked from
    # this one would start its peak at this one's size
    script = (
        "import resource, subprocess, sys\n"
        "code = subprocess.run([sys.executable, '-m', 'ergolab', *sys.argv[1:]]).returncode\n"
        "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(ergolab.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", script, "--config", str(cfg_path),
         "--out", str(tmp_path / "j4"), "verify"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    code, peak_kb = map(int, proc.stdout.splitlines()[-1].split())
    assert code == 1, proc.stderr
    assert peak_kb < 60 * 1024, f"peak RSS {peak_kb / 1024:.1f} MB"


def test_json_writer_matches_json_dumps_on_every_artifact(tmp_path, monkeypatch):
    """Every object a subcommand writes, and a conjugacy report with
    mismatches, come out as ``json.dumps(obj, indent=2, sort_keys=True)``
    plus a newline."""
    written = []
    real = cli._write_json

    def record(path, obj):
        written.append((path, obj))
        real(path, obj)

    monkeypatch.setattr(cli, "_write_json", record)
    for command, config in (
        ("build", SMALL), ("verify", {}), ("series", SMALL), ("mc-check", SMALL)
    ):
        run(tmp_path / command, command, config=config)
    assert sorted(path.name for path, _ in written) == [
        "conjugacy.json", "mc_check.json", "report.json", "stages.json",
        "verify_j1.json", "verify_j2.json", "verify_j3.json",
    ]
    for path, obj in written:
        assert path.read_text(encoding="utf-8") == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    report = extension.ConjugacyReport(6, 172799, (1459, 1460)).to_json_obj()
    assert cli._dumps(report) == json.dumps(report, indent=2, sort_keys=True)


_JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (
        st.lists(children, max_size=5) | st.dictionaries(st.text(), children, max_size=5)
    ),
    max_leaves=40,
)


@settings(deadline=None, derandomize=True, database=None, max_examples=300)
@given(_JSON_TREES)
def test_json_writer_matches_json_dumps_on_json_trees(obj):
    assert cli._dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


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


def test_series_dense_csv_is_pinned(tmp_path):
    """The 196,695 rows of the densest benchmark grid, byte for byte.  Its
    report.json is left unpinned: its plateau_count counts edges that change
    nothing, which an engine that merges them would drop."""
    code, out = run(
        tmp_path,
        "series",
        config={
            "preset": "staircase-mixing",
            "model": {"kind": "gaussian"},
            "checkpoint_ratio": 1.00005,
        },
    )
    assert code == 0
    assert (
        hashlib.sha256((out / "series.csv").read_bytes()).hexdigest()
        == "c32e3ed92f7f068676168fd2cf95acebf63886abfc77b10bde8bcc654dd56513"
    )


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


def test_mc_check_default_artifact_is_pinned(tmp_path):
    code, out = run(tmp_path, "mc-check", config={})
    assert code == 0
    digest = hashlib.sha256((out / "mc_check.json").read_bytes()).hexdigest()
    assert digest == "ee1eddd2634140b47c570b016ee921d9ed99d2ae0e0b8e94437c3066bd9f42df"


def test_mc_check_passes_a_gate_whose_event_is_too_rare_to_hit(tmp_path):
    """Poisson m=6: the independent gate's exact value, c**2 = 2.6e-7, is
    hit by none of 1M samples at either seed."""
    code, out = run(tmp_path, "mc-check", config={"model": {"m": 6}})
    assert code == 0
    rows = read_json(out / "mc_check.json")["rows"]
    assert rows[1]["label"] == "poisson m=6 independent (lam=0.0)"
    assert (rows[1]["estimate"], rows[1]["std_error"]) == (0.0, 0.0)
    assert rows[1]["passed"] and not rows[1]["retried"]


def test_mc_check_retries_one_batch_at_the_next_seed(tmp_path, monkeypatch):
    seed = 7
    poisson, gaussian = oracle.mc_pair_integral_poisson, oracle.mc_gaussian_orthant
    calls = {"poisson": [], "gaussian": []}

    def poisson_missing_gate_2(lams, m, cfg):
        calls["poisson"].append(cfg.seed)
        got = poisson(lams, m, cfg)
        if cfg.seed == seed:
            got[1] = (0.9, 1e-6)  # far from the exact value: forces the retry
        return got

    def counted_gaussian(rhos, cfg):
        calls["gaussian"].append(cfg.seed)
        return gaussian(rhos, cfg)

    monkeypatch.setattr(oracle, "mc_pair_integral_poisson", poisson_missing_gate_2)
    monkeypatch.setattr(oracle, "mc_gaussian_orthant", counted_gaussian)
    code, out = run(tmp_path, "mc-check", config={**SMALL, "seed": seed})
    assert code == 0
    assert calls == {"poisson": [seed, seed + 1], "gaussian": [seed]}
    rows = read_json(out / "mc_check.json")["rows"]
    assert [r["retried"] for r in rows] == [False, True, False, False, False, False]
    assert all(r["passed"] for r in rows)


def test_mc_check_retries_one_batch_when_two_gates_miss(tmp_path, monkeypatch):
    """Two Poisson gates miss at the seed: both retry from one more batch."""
    seed = 7
    poisson = oracle.mc_pair_integral_poisson
    calls = []

    def poisson_missing_gates_1_and_3(lams, m, cfg):
        calls.append(cfg.seed)
        got = poisson(lams, m, cfg)
        if cfg.seed == seed:
            got[0] = got[2] = (0.9, 1e-6)
        return got

    monkeypatch.setattr(oracle, "mc_pair_integral_poisson", poisson_missing_gates_1_and_3)
    code, out = run(tmp_path, "mc-check", config={**SMALL, "seed": seed})
    assert code == 0
    assert calls == [seed, seed + 1]
    rows = read_json(out / "mc_check.json")["rows"]
    assert [r["retried"] for r in rows] == [True, False, True, False, False, False]
    assert all(r["passed"] for r in rows)


def test_python_dash_m_runs_the_cli(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(ergolab.__file__).parents[1])}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "ergolab", "--config", str(cfg_path),
         "--out", str(tmp_path / "out"), "build"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "stages.json").is_file()


def test_series_with_single_marker_stage_flags_insufficiency(tmp_path):
    code, out = run(
        tmp_path, "series",
        config={"j_max": 5, "j_top": 1, "marker_stages": [2]},
    )
    assert code == 0  # degenerate setup is reported, not failed
    report = read_json(out / "report.json")
    assert report["divergence"]["insufficient_stages"] is True


def test_series_without_milestones_exits_2_naming_j_top(tmp_path, capsys):
    """Stage 8 carries markers, but j_top=3 admits marker stages up to 6."""
    code, out = run(tmp_path, "series", config={"marker_stages": [8], "j_max": 9})
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: no milestones: j_top=3 needs a marker stage 2j <= 6,"
        " and the materialized marker stages are [8]"
    ]
    assert list(out.iterdir()) == []


def test_verbose_logs_on_every_call_and_leaves_the_root_logger_alone(tmp_path, capsys):
    """A quiet call before or after does not silence ``--verbose``, which
    logs through a handler of its own call (verify exits 1 on the j=2 leak)."""
    root = logging.getLogger()
    handlers, level = list(root.handlers), root.level
    assert run(tmp_path / "build", "build", config=SMALL)[0] == 0
    assert capsys.readouterr().err == ""
    assert run(tmp_path / "verbose", "--verbose", "verify", config=SMALL)[0] == 1
    assert "INFO ergolab: verifying windows for j=1\n" in capsys.readouterr().err
    assert run(tmp_path / "quiet", "verify", config=SMALL)[0] == 1
    assert capsys.readouterr().err == ""
    assert root.handlers == handlers and root.level == level


def test_verbose_series_logs_seconds_per_layer_and_peak_rss(tmp_path, capsys):
    """``--verbose`` logs the seconds of each layer of ``series`` and the
    peak RSS to stderr; the artifacts are those of a quiet run."""
    assert run(tmp_path / "quiet", "series", config=SMALL)[0] == 0
    assert capsys.readouterr().err == ""
    code, out = run(tmp_path / "verbose", "--verbose", "series", config=SMALL)
    assert code == 0
    err = capsys.readouterr().err
    layers = re.search(r"^INFO ergolab: seconds per layer: (.*)$", err, re.M).group(1)
    assert [re.fullmatch(r"(.+) \d+\.\d{4}", x).group(1) for x in layers.split(", ")] == [
        "stage table", "context", "event_sweep", "checkpoints", "average_series",
        "divergence_report", "series.csv", "report.json",
    ]
    assert re.search(r"^INFO ergolab: peak RSS \d+\.\d MB$", err, re.M)
    assert sorted(p.name for p in out.iterdir()) == ["report.json", "series.csv"]
    for name in ("report.json", "series.csv"):
        assert (out / name).read_bytes() == (tmp_path / "quiet" / "out" / name).read_bytes()


def test_gaussian_model_series(tmp_path):
    code, out = run(
        tmp_path, "series", config={**SMALL, "model": {"kind": "gaussian"}}
    )
    assert code == 0
    report = read_json(out / "report.json")
    assert report["divergence"]["c"] == 0.5
    assert all(b["passed"] for b in report["divergence"]["bound_checks"])
