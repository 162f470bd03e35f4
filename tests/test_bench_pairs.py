"""The arithmetic of ``tools/bench_pairs.py`` on canned records; no benchmark
is run."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bp = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bp)


@pytest.mark.parametrize("values", ([3.0], [2.0, 1.0], [5.0, 1.0, 4.0, 2.0, 3.0], list(np.linspace(0.3, 7.1, 10))))
def test_quartiles_are_numpys_linear_percentiles(values):
    want = np.percentile(values, [25, 50, 75])
    assert np.allclose(bp.quartiles(values), want, rtol=1e-15, atol=0.0)


def test_wins_count_pairs_and_ties_count_for_neither_side():
    parent = [1.0, 1.0, 1.0, 1.0]
    change = [0.9, 1.0, 1.1, 0.8]
    row = bp.summarize(parent, change, "lower", 0.25)
    assert (row["wins"], row["losses"], row["pairs"]) == (2, 1, 4)
    # the direction of better flips wins and losses
    row = bp.summarize(parent, change, "higher", 0.25)
    assert (row["wins"], row["losses"]) == (1, 2)


def test_a_gain_needs_nine_of_ten_wins_and_a_gap_above_the_parents_iqr():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    change = [p - 0.05 for p in parent]
    row = bp.summarize(parent, change, "lower", 0.25)
    assert row["verdict"] == "better" and row["gap"] == pytest.approx(0.05)
    assert row["iqr"] == pytest.approx(0.015)
    # two losses of ten
    row = bp.summarize(parent, change[:8] + [1.2, 1.2], "lower", 0.25)
    assert row["wins"] == 8 and row["verdict"] == "same"
    # ten wins whose gap is inside the parent's spread
    row = bp.summarize(parent, [p - 0.001 for p in parent], "lower", 0.25)
    assert row["wins"] == 10 and row["gap"] < row["iqr"] and row["verdict"] == "same"


def test_the_bound_is_a_share_of_the_parents_median():
    parent = [10.0] * 10
    assert bp.summarize(parent, [12.4] * 10, "lower", 0.25)["verdict"] == "same"
    assert bp.summarize(parent, [12.6] * 10, "lower", 0.25)["verdict"] == "worse"
    assert bp.summarize(parent, [7.4] * 10, "higher", 0.25)["verdict"] == "worse"
    assert bp.summarize(parent, [12.6] * 10, "higher", 0.25)["verdict"] == "better"


def test_a_spread_beyond_the_bound_is_unresolved():
    parent = [10.0, 10.0, 14.0, 14.0]
    assert bp.summarize(parent, [10.0] * 4, "lower", 0.25)["verdict"] == "unresolved"
    assert bp.summarize([10.0] * 4, parent, "lower", 0.25)["verdict"] == "unresolved"


def test_collect_alternates_which_side_runs_first():
    calls = []

    def fake(checkout, workload, seed, seconds):
        calls.append((checkout, workload))
        return {"n": len(calls)}

    runs = bp.collect({"parent": "P", "change": "C"}, ("tall", "em"), 3, 1, 30.0, run=fake)
    assert calls == [
        ("P", "tall"), ("C", "tall"), ("P", "em"), ("C", "em"),
        ("C", "tall"), ("P", "tall"), ("C", "em"), ("P", "em"),
        ("P", "tall"), ("C", "tall"), ("P", "em"), ("C", "em"),
    ]
    assert [r["n"] for r in runs["tall"]["parent"]] == [1, 6, 9]
    assert [r["n"] for r in runs["tall"]["change"]] == [2, 5, 10]


def test_report_has_a_row_per_metric_and_sums_the_counts():
    def record(value, failed):
        return {"correct": failed == 0, "attempted": 5, "failed": failed, "metrics": {"fit_s": {"value": value}}}

    runs = {"wide": {"parent": [record(1.0, 0), record(1.1, 0)], "change": [record(0.9, 1), record(1.0, 0)]}}
    lines = bp.report(runs, [{"name": "fit_s", "better": "lower", "bound": 0.25}])
    assert len(lines) == 3
    assert lines[0].startswith("wide  fit_s") and "wins 2/2 losses 0" in lines[0]
    assert lines[1].split() == "wide parent attempted 10 failed 0 correct 2/2".split()
    assert lines[2].split() == "wide change attempted 10 failed 1 correct 1/2".split()


def test_unpaired_values_are_refused():
    with pytest.raises(ValueError):
        bp.summarize([1.0, 2.0], [1.0], "lower", 0.25)
