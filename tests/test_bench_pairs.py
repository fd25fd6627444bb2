"""tools/bench_pairs.py: the pair summary behind each BENCH_*.json gain claim."""

import argparse
import importlib.util
import json
import subprocess
import tempfile
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


def test_gain_must_also_exceed_the_control_gap():
    # A 0.2 MB drop in all 10 pairs with no spread is a gain on its own,
    # but not beside a control set whose two exports of one tree sit
    # 0.3 MB apart; a 0.1 MB control gap lets it stand.
    rss = dict(LOWER, name="peak_rss_mb", unit="MB")
    pairs = _pairs([42.7] * 10, [42.5] * 10, "peak_rss_mb")
    alone = bench_pairs.summarise(pairs, rss)
    assert alone["gain"] and "control_gap" not in alone
    for noise, gain in ((0.3, False), (0.1, True)):
        control = bench_pairs.summarise(_pairs([42.6] * 3, [42.6 + noise] * 3, "peak_rss_mb"),
                                        rss)
        rep = bench_pairs.summarise(pairs, rss, control)
        assert rep["control_gap"] == pytest.approx(noise) and rep["gain"] is gain
        assert {k: v for k, v in rep.items() if k not in ("control_gap", "gain")} == \
            {k: v for k, v in alone.items() if k != "gain"}
    # The control gap counts in either direction, and a control set that
    # lacks the metric cannot confirm a gain.
    control = bench_pairs.summarise(_pairs([42.9] * 3, [42.6] * 3, "peak_rss_mb"), rss)
    assert bench_pairs.summarise(pairs, rss, control)["gain"] is False
    rep = bench_pairs.summarise(pairs, rss, {"unit": "MB", "better": "lower", "missing": True})
    assert rep["control_gap"] is None and rep["gain"] is False


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


def test_gain_needs_ten_pairs():
    # 4 of 4 wins with no spread is what identical code reaches about one
    # time in 16; 9 of 9 is no gain either, 10 of 10 is.
    for n, gain in ((4, False), (9, False), (10, True)):
        rep = bench_pairs.summarise(_pairs([1.0] * n, [0.9] * n), LOWER)
        assert rep["change_wins"] == n and rep["gain"] is gain


def test_resolved_when_the_parent_spread_fits_the_bound_or_every_run_beats_it():
    # Parent quartiles 1.0 and 1.6 around a median of 1.3: a spread of 0.6
    # against a bound of 0.325 cannot tell an unchanged median from a
    # regression of the bound's size.
    parent = [1.0, 1.6] * 5
    rep = bench_pairs.summarise(_pairs(parent, parent), LOWER)
    assert rep["within_bound"] and not rep["resolved"]
    # Every change run below every parent run settles it; one that is not
    # leaves it unresolved.
    assert bench_pairs.summarise(_pairs(parent, [0.9] * 10), LOWER)["resolved"]
    assert not bench_pairs.summarise(_pairs(parent, [0.9] * 9 + [1.0]), LOWER)["resolved"]
    # A spread inside the bound resolves the metric, a regression included.
    rep = bench_pairs.summarise(_pairs([1.0, 1.1] * 5, [1.5] * 10), LOWER)
    assert rep["resolved"] and not rep["within_bound"]
    # Higher is better: every change run above every parent run.
    assert bench_pairs.summarise(_pairs(parent, [1.7] * 10, "rate"), HIGHER)["resolved"]
    assert not bench_pairs.summarise(_pairs(parent, [0.9] * 10, "rate"), HIGHER)["resolved"]


def _git(cwd, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=cwd,
                          check=True, capture_output=True).stdout


def test_main_runs_both_sides_from_exports_and_summarises_each_metric_once(
        tmp_path, monkeypatch):
    repo, scratch = tmp_path / "repo", tmp_path / "tmp"
    repo.mkdir()
    scratch.mkdir()
    bench = {"run_seconds": 1, "workloads": [{"name": "a"}, {"name": "b"}],
             "end_to_end": [LOWER, dict(LOWER, name="peak_rss_mb", unit="MB", bound=0.1)]}
    (repo / "BENCHMARK.json").write_text(json.dumps(bench))
    (repo / ".gitignore").write_text("ignored.txt\n")
    (repo / "tracked.txt").write_text("old")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "parent")
    (repo / "tracked.txt").write_text("new")
    (repo / "untracked.txt").write_text("fresh")
    (repo / "ignored.txt").write_text("left out")
    status, index = _git(repo, "status", "--porcelain"), (repo / ".git" / "index").read_bytes()

    seen = []

    def fake_run(side, workload, seed, seconds):
        seen.append((side, {f.name: f.read_text() for f in side.iterdir() if f.is_file()}))
        value = 0.9 if side.name == "change" else 1.0
        return {"correct": True, "metrics": {m["name"]: {"value": value}
                                             for m in bench["end_to_end"]}}

    calls = []
    summarise = bench_pairs.summarise

    def counted(pairs, metric, control=None):
        calls.append((tuple(p["seed"] for p in pairs), metric["name"]))
        return summarise(pairs, metric, control)

    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    monkeypatch.setattr(bench_pairs, "run", fake_run)
    monkeypatch.setattr(bench_pairs, "summarise", counted)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--out", str(out), "--pairs", "a=2", "b=1",
                             "--control", "a=1"]) == 0
    report = json.loads(out.read_text())

    # Every side ran in an export under the tool's temporary directory.
    assert {side.name for side, _ in seen} == {"parent", "change", "again"}
    for side, _ in seen:
        assert scratch in side.parents and repo not in side.parents and side != repo
    files = {side.name: got for side, got in seen}
    assert files["change"] == {"BENCHMARK.json": json.dumps(bench), ".gitignore": "ignored.txt\n",
                               "tracked.txt": "new", "untracked.txt": "fresh"}
    parent_files = dict(files["change"], **{"tracked.txt": "old"})
    del parent_files["untracked.txt"]
    assert files["parent"] == files["again"] == parent_files
    # The checkout and its index are as they were.
    assert _git(repo, "status", "--porcelain") == status
    assert (repo / ".git" / "index").read_bytes() == index
    assert report["change"]["head"] == _git(repo, "rev-parse", "HEAD").decode().strip()
    assert _git(repo, "ls-tree", "--name-only", report["change"]["tree"]).decode().split() == \
        [".gitignore", "BENCHMARK.json", "tracked.txt", "untracked.txt"]

    # One summarise call per (workload, metric) for the change pairs; the
    # control workload's stored metrics carry its gap.
    for name, entry in report["workloads"].items():
        seeds = tuple(p["seed"] for p in entry["pairs"])
        for m in bench["end_to_end"]:
            assert calls.count((seeds, m["name"])) == 1
            assert ("control_gap" in entry["metrics"][m["name"]]) is (name == "a")
    assert report["workloads"]["a"]["metrics"]["wall_s"]["control_gap"] == 0
    assert [p["seed"] for p in report["workloads"]["a"]["pairs"]] == [1000, 1001]
    assert [p["seed"] for p in report["control"]["a"]["pairs"]] == [1002]
    assert [p["seed"] for p in report["workloads"]["b"]["pairs"]] == [1003]
    assert list(report["control"]) == ["a"]
