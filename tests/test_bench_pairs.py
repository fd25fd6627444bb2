"""tools/bench_pairs.py: the pair summary behind each BENCH_*.json gain claim."""

import argparse
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

LOWER = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "rate", "unit": "x", "better": "higher", "bound": 0.25}


def _pairs(parent, change, name="wall_s"):
    return [{"parent": {"metrics": {name: {"value": p}}},
             "change": {"metrics": {name: {"value": c}}}} for p, c in zip(parent, change)]


def test_ties_count_for_neither_side():
    rep = bench_pairs.summarise(_pairs([1.0] * 10, [1.0] * 10), LOWER)
    assert rep["change_wins"] == 0
    assert rep["pairs"] == 10
    assert rep["change_vs_parent"] == 0
    assert rep["within_bound"] and not rep["gain"]


def test_gain_needs_nine_wins_in_ten_and_a_gap_past_the_quartile_spread():
    parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
    faster = [p - 0.5 for p in parent]
    rep = bench_pairs.summarise(_pairs(parent, faster), LOWER)
    assert rep["change_wins"] == 10 and rep["gain"]
    # Nine wins still count; eight do not.
    nine = faster[:9] + [parent[9] + 0.1]
    assert bench_pairs.summarise(_pairs(parent, nine), LOWER)["change_wins"] == 9
    assert bench_pairs.summarise(_pairs(parent, nine), LOWER)["gain"]
    eight = faster[:8] + [p + 0.1 for p in parent[8:]]
    rep = bench_pairs.summarise(_pairs(parent, eight), LOWER)
    assert rep["change_wins"] == 8 and not rep["gain"]
    # Ten wins by a median gap (0.01 s) inside the parent's quartile spread
    # (about 0.055 s) are no gain.
    rep = bench_pairs.summarise(_pairs(parent, [p - 0.01 for p in parent]), LOWER)
    q = rep["parent"]
    assert rep["change_wins"] == 10 and 0.01 < q["q3"] - q["q1"] and not rep["gain"]


def test_higher_is_better_flips_the_sign():
    parent = [2.0] * 10
    rep = bench_pairs.summarise(_pairs(parent, [2.5] * 10, "rate"), HIGHER)
    assert rep["change_wins"] == 10 and rep["gain"] and rep["within_bound"]
    rep = bench_pairs.summarise(_pairs(parent, [1.5] * 10, "rate"), HIGHER)
    assert rep["change_wins"] == 0 and not rep["gain"]
    # 1.5 is 25 % of 2.0 worse: on the bound, still within it; lower is out.
    assert rep["within_bound"]
    assert not bench_pairs.summarise(_pairs(parent, [1.4] * 10, "rate"), HIGHER)["within_bound"]


def test_within_bound_is_relative_to_the_parent_median():
    parent = [1.0] * 4
    assert bench_pairs.summarise(_pairs(parent, [1.25] * 4), LOWER)["within_bound"]
    assert not bench_pairs.summarise(_pairs(parent, [1.26] * 4), LOWER)["within_bound"]
    assert bench_pairs.summarise(_pairs(parent, [0.5] * 4), LOWER)["within_bound"]


def test_missing_when_one_side_lacks_the_metric():
    pairs = _pairs([1.0, 1.0], [1.0, 1.0])
    del pairs[1]["change"]["metrics"]["wall_s"]
    assert bench_pairs.summarise(pairs, LOWER) == {"unit": "s", "better": "lower",
                                                   "missing": True}
    assert bench_pairs.summarise(_pairs([1.0], [1.0], "other"), LOWER)["missing"]


def test_missing_when_each_side_lacks_the_metric_in_another_pair():
    # Parent (1.0, -, 1.0) against change (-, 5.0, 0.9): both lists have two
    # values, but only the third pair has both sides, so no value of one
    # seed is paired with a value of another.
    pairs = _pairs([1.0, 1.0, 1.0], [1.0, 5.0, 0.9])
    del pairs[1]["parent"]["metrics"]["wall_s"], pairs[0]["change"]["metrics"]["wall_s"]
    assert bench_pairs.summarise(pairs, LOWER)["missing"]


def test_spread_of_one_value_is_that_value():
    assert bench_pairs.spread([0.6]) == {"median": 0.6, "q1": 0.6, "q3": 0.6}


def test_parse_counts_accepts_workload_counts():
    parser = argparse.ArgumentParser()
    got = bench_pairs.parse_counts(parser, "--pairs", ["reference=10", "keystream=4"],
                                   ["keystream", "reference"])
    assert got == {"reference": 10, "keystream": 4}


@pytest.mark.parametrize("item", ["reference", "reference=", "reference=0", "reference=-1",
                                  "reference=x", "nope=3", "=3"])
def test_parse_counts_rejects_malformed_items(capsys, item):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.parse_counts(argparse.ArgumentParser(), "--pairs", [item], ["reference"])
    assert exc.value.code == 2
    assert "expected WORKLOAD=N" in capsys.readouterr().err
