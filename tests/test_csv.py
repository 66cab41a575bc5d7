"""series.csv: the numpy writer against str, repr and a row-by-row writer."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import _csv, averages
from ergolab.cli import main

import _reference as ref


def written(values):
    """What the writer makes of each float, one line each."""
    fields = _csv._float_fields(np.asarray(values, dtype=np.float64))
    newline = np.full((len(values), 1), ord("\n"), dtype=np.uint8)
    rows = np.concatenate((*fields, newline), axis=1).ravel()
    return rows[rows != 0].tobytes()


def reprs(values):
    return "".join(f"{float(v)!r}\n" for v in values).encode("ascii")


def neighbours(v):
    return [np.nextafter(v, 0.0), v, np.nextafter(v, np.inf)]


# repr writes x in fixed notation for 1e-4 <= x < 1e16
EDGES = [
    x
    for v in [*(2.0**e for e in range(-14, 54)), *(10.0**k for k in range(-4, 17))]
    for x in neighbours(v)
    if 1e-4 <= x < 1e16
] + [0.5, 1.0, 9999999999999998.0, 0.36787944117144233]
# and in exponent notation below and above, as for 0 and subnormals
OUTSIDE = [9e-05, np.nextafter(1e-4, 0.0), 5e-324, 1e16, 1.7976931348623157e308,
           0.0, -0.0, -0.5, float("inf"), float("-inf"), float("nan")]


def test_edges_are_written_as_their_repr():
    assert (min(EDGES), max(EDGES)) == (1e-4, np.nextafter(1e16, 0.0))
    assert written(EDGES) == reprs(EDGES)


def test_values_outside_fixed_notation_are_written_as_their_repr():
    assert written(OUTSIDE) == reprs(OUTSIDE)
    # mixed in one block with values the kernel takes
    mixed = [v for pair in zip(OUTSIDE, EDGES) for v in pair]
    assert written(mixed) == reprs(mixed)


def test_random_bit_patterns_are_written_as_their_repr():
    """2**18 doubles drawn uniformly by bit pattern from [1e-4, 1e16)."""
    lo = int(np.float64(1e-4).view(np.int64))
    hi = int(np.float64(1e16).view(np.int64))
    rng = np.random.default_rng(20260101)
    for _ in range(4):
        x = rng.integers(lo, hi, size=1 << 16, dtype=np.int64).view(np.float64)
        assert written(x) == reprs(x.tolist())


@settings(deadline=None, derandomize=True, database=None, max_examples=150)
@given(st.lists(st.floats(1e-4, 1e16, exclude_max=True), min_size=1, max_size=20))
def test_fixed_notation_floats_are_written_as_their_repr(values):
    assert written(values) == reprs(values)


@settings(deadline=None, derandomize=True, database=None, max_examples=60)
@given(st.lists(st.floats(), min_size=1, max_size=20))
def test_every_float_is_written_as_its_repr(values):
    assert written(values) == reprs(values)


def test_integers_are_written_as_their_str():
    n = np.array(
        [1, 9, 10, 99, 100, 10**9 - 1, 10**9, 10**18 - 1, 10**18, 2**62, 2**63 - 1],
        dtype=np.int64,
    )
    field = _csv._integer_field(n)
    assert [bytes(row[row != 0]).decode() for row in field] == [str(v) for v in n.tolist()]
    assert field.shape[1] == 19  # as wide as the largest


def test_series_with_exponent_notation_averages_matches_a_row_by_row_writer(
    tmp_path, monkeypatch
):
    """Poisson m=6: c**2 = 2.6e-7, so the averages cross 1e-4 and the
    writer takes both routes, in blocks smaller than the series."""
    original, seen = averages.average_series, []

    def capture(*args):
        seen.append(original(*args))
        return seen[-1]

    monkeypatch.setattr(averages, "average_series", capture)
    monkeypatch.setattr(_csv, "_CSV_BLOCK_ROWS", 100)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"j_max": 7, "j_top": 2, "model": {"m": 6}}), encoding="utf-8")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "series"]) == 0
    (series,) = seen
    assert len(series) > 100
    assert (series.a_n < 1e-4).any() and (series.a_n >= 1e-4).any()
    assert (tmp_path / "out" / "series.csv").read_bytes() == ref.series_csv(series)


@pytest.mark.parametrize("rows", [0, 1])
def test_header_only_and_one_row(tmp_path, rows):
    series = averages.Series(
        n=np.array([7] * rows, dtype=np.int64),
        level=np.zeros(rows, dtype=np.int64),
        a_n=np.array([0.1] * rows),
        is_milestone=np.array([True] * rows),
        levels=((Fraction(1, 3), 0.25),),
    )
    path = tmp_path / "series.csv"
    _csv.write_series(path, series)
    assert path.read_bytes() == ref.series_csv(series)
