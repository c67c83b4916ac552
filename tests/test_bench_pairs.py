"""The verdict of scripts/bench_pairs.py on synthetic paired runs; no
benchmark run is started."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location(_PATH.stem, _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

PARENT = [60.0, 59.5, 60.5, 59.8, 60.2, 60.1, 59.9, 60.3, 59.7, 60.0]


def test_clear_win_is_a_gain_either_direction():
    faster = [p - 12.0 for p in PARENT]
    assert verdict(PARENT, faster, "lower", 0.24) == "gain"
    assert verdict(faster, PARENT, "higher", 0.24) == "gain"


def test_a_gain_needs_nine_pairs_in_ten():
    # eight wins of ten, however large, fall short
    change = [p - 12.0 for p in PARENT[:8]] + [p + 1.0 for p in PARENT[8:]]
    assert verdict(PARENT, change, "lower", 0.24) == "within bound"
    change[8] = PARENT[8] - 12.0
    assert verdict(PARENT, change, "lower", 0.24) == "gain"


def test_a_gain_must_clear_the_parents_quartile_spread():
    # every pair won, by less than the parent's interquartile range
    q1, _, q3 = bench_pairs.quartiles(PARENT)
    change = [p - 0.5 * (q3 - q1) for p in PARENT]
    assert verdict(PARENT, change, "lower", 0.24) == "within bound"


def test_worse_beyond_the_bound():
    slower = [p * 1.3 for p in PARENT]
    assert verdict(PARENT, slower, "lower", 0.24) == "worse"
    assert verdict(PARENT, [p * 1.2 for p in PARENT], "lower", 0.24) == "within bound"
    assert verdict(PARENT, [p * 0.7 for p in PARENT], "higher", 0.24) == "worse"


def test_ties_win_no_pair():
    assert verdict([1.0] * 10, [1.0] * 10, "higher", 0.1) == "within bound"


def test_wide_parent_spread_is_unresolved_unless_every_run_is_better():
    wide = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    assert verdict(wide, [1.5] * 10, "lower", 0.24) == "unresolved"
    assert verdict(wide, [3.0] * 10, "lower", 0.24) == "unresolved"
    # a change better than every parent run is resolved however wide the spread
    assert verdict(wide, [0.4] * 10, "lower", 0.24) == "gain"
    assert verdict(wide, [0.9] * 10, "lower", 0.24) == "within bound"


def test_rejects_unpaired_runs_and_unknown_directions():
    with pytest.raises(ValueError, match="same number"):
        verdict([1.0, 2.0], [1.0], "lower", 0.1)
    with pytest.raises(ValueError, match="same number"):
        verdict([], [], "lower", 0.1)
    with pytest.raises(ValueError, match="better must be"):
        verdict([1.0], [1.0], "smaller", 0.1)
