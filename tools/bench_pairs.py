"""Alternated parent/change benchmark pairs, written to one BENCH_*.json.

    python3 tools/bench_pairs.py --out BENCH_21.json \
        --pairs zero-scan=4 stat-suite=6 keystream=10 reference=4 \
        --control zero-scan=3 stat-suite=3 keystream=5 reference=3

Run from the root of a source checkout.  The change is this checkout's
working tree; the parent is `--base` (default HEAD), exported with
`git archive` into a temporary directory that is removed afterwards.
For each workload the tool runs `perfbench/run.py --trace 0` for both
sides at the run length of BENCHMARK.json, one pair per fresh seed
(`--first-seed`, `--first-seed` + 1, ...), alternating which side runs
first.  It then runs each side once at seed 0 for one pass, where
perfbench checks every result against its committed digest.

`--control` adds a control set: the same alternated pairs with the
parent on both sides, from two separate exports, on the seeds after
the change's pairs.  Its summary reads as the change's does, with the
second export in the change's place, so its medians, wins and gain
flags show how far two runs of identical code move apart on this host.
A workload with a control set records, per metric, the distance between
the control set's two medians as `control_gap`.

The output holds the host (processor count, Python and numpy
versions), every run's JSON line, and per workload and end-to-end
metric each side's median and quartiles, the change's wins (ties count
for neither side), whether the change is within the benchmark's bound,
and whether it meets the gain rule: wins in at least nine tenths of the
pairs and a median better by more than the parent's quartile spread
and, where the workload has a control set, by more than `control_gap`.
Standard library only; the sides run under the interpreter that runs
this script.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path.cwd()
#: The two sides of a pair; in the control set both run the parent.
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The files of commit `rev` under `dest` (no git metadata)."""
    tar = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run(side: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run; its last JSON line plus the exit code."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=side, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}, "stderr": proc.stderr[-2000:]}
    result["returncode"] = proc.returncode
    result["correct"] = result["correct"] and proc.returncode == 0
    return result


def spread(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2]}


def summarise(pairs: list[dict], metric: dict, control: dict | None = None) -> dict:
    """The pair summary of one metric.  `control` is this metric's summary
    over the workload's control set, if it has one; a gain must then also
    beat the gap between that set's two medians."""
    name, lower = metric["name"], metric["better"] == "lower"
    # Values pair up only within a pair (one seed); a pair where either
    # side lacks the metric leaves it missing.
    both = [tuple(p[side]["metrics"][name]["value"] for side in SIDES) for p in pairs
            if all(name in p[side]["metrics"] for side in SIDES)]
    if not both or len(both) < len(pairs):
        return {"unit": metric["unit"], "better": metric["better"], "missing": True}
    sign = 1 if lower else -1
    wins = sum(sign * (c - p) < 0 for p, c in both)
    parent, change = map(spread, zip(*both))
    gap = sign * (parent["median"] - change["median"])
    bound = metric["bound"] * parent["median"]
    out = {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        "parent": parent, "change": change,
        "change_wins": wins, "pairs": len(pairs),
        "change_vs_parent": change["median"] / parent["median"] - 1 if parent["median"] else None,
        "within_bound": gap >= -bound,
        "gain": wins >= 0.9 * len(pairs) and gap > parent["q3"] - parent["q1"],
    }
    if control is not None:
        # A control set without the metric cannot show the gap is real.
        noise = (None if control.get("missing")
                 else abs(control["change"]["median"] - control["parent"]["median"]))
        out["control_gap"] = noise
        out["gain"] = out["gain"] and noise is not None and gap > noise
    return out


def log(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


def run_pairs(dirs: dict, name: str, n: int, seed: int, seconds: float) -> list[dict]:
    """`n` alternated pairs of `name` runs on seeds `seed`, `seed` + 1, ...;
    `dirs` maps each of SIDES to the tree it runs in."""
    pairs = []
    for i in range(n):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed + i, "first": order[0]}
        for side in order:
            pair[side] = run(dirs[side], name, seed + i, seconds)
            log(f"{name} seed {seed + i} {side}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in pair[side]["metrics"].items()))
        pairs.append(pair)
    return pairs


def parse_counts(parser, option: str, items: list[str], names: list[str]) -> dict:
    counts = {}
    for item in items:
        name, _, n = item.partition("=")
        if name not in names or not n.isdigit() or int(n) < 1:
            parser.error(f"{option} {item!r}: expected WORKLOAD=N, N >= 1, "
                         f"WORKLOAD one of {names}")
        counts[name] = int(n)
    return counts


def host_info() -> dict:
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "system": platform.platform(), "python": platform.python_version(),
            "numpy": numpy or None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="BENCH_*.json path to write")
    parser.add_argument("--base", default="HEAD", help="parent revision (default HEAD)")
    parser.add_argument("--pairs", nargs="+", default=None, metavar="WORKLOAD=N",
                        help="pairs per workload (default: 10 for every workload)")
    parser.add_argument("--control", nargs="+", default=[], metavar="WORKLOAD=N",
                        help="parent-vs-parent control pairs per workload (default: none)")
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    counts = dict.fromkeys(names, 10)
    if args.pairs is not None:
        counts = parse_counts(parser, "--pairs", args.pairs, names)
    control = parse_counts(parser, "--control", args.control, names)
    seconds = bench["run_seconds"]
    base_commit = git("rev-parse", args.base)

    report = {
        "command": " ".join([Path(sys.argv[0]).name] + (sys.argv[1:] if argv is None else argv)),
        "host": host_info(),
        "parent": {"rev": args.base, "commit": base_commit},
        "change": {"commit": git("rev-parse", "HEAD"),
                   "uncommitted_changes": bool(git("status", "--porcelain", "--untracked-files=no"))},
        "run_seconds": seconds,
        "workloads": {},
    }
    if control:
        report["control"] = {}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent, again = Path(tmp) / "parent", Path(tmp) / "again"
        sides = {"parent": parent, "change": ROOT}
        export(base_commit, parent)
        seed = args.first_seed
        for name, n in counts.items():
            pairs = run_pairs(sides, name, n, seed, seconds)
            seed += n
            seed0 = {side: run(sides[side], name, 0, 0)["correct"] for side in sides}
            report["workloads"][name] = {
                "pairs": pairs,
                "correct": {side: all(p[side]["correct"] for p in pairs) for side in sides},
                "seed0_digests_match": seed0,
                "metrics": {m["name"]: summarise(pairs, m) for m in bench["end_to_end"]},
            }
            log(f"{name}: " + json.dumps(report["workloads"][name]["metrics"]))
        if control:
            export(base_commit, again)
        for name, n in control.items():
            pairs = run_pairs({"parent": parent, "change": again}, name, n, seed, seconds)
            seed += n
            report["control"][name] = {
                "pairs": pairs,
                "metrics": {m["name"]: summarise(pairs, m) for m in bench["end_to_end"]},
            }
            log(f"{name} control: " + json.dumps(report["control"][name]["metrics"]))
            if name in report["workloads"]:   # its gain flags now weigh the control gap
                entry = report["workloads"][name]
                entry["metrics"] = {
                    m["name"]: summarise(entry["pairs"], m,
                                         report["control"][name]["metrics"][m["name"]])
                    for m in bench["end_to_end"]}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
