"""Alternated parent/change benchmark pairs, written to one BENCH_*.json.

    python3 tools/bench_pairs.py --out BENCH_21.json \
        --pairs zero-scan=4 stat-suite=6 keystream=10 reference=4 \
        --control zero-scan=3 stat-suite=3 keystream=5 reference=3

Run from the root of a source checkout.  Both sides run from trees that
`git archive` exports into a temporary directory, removed afterwards:
the parent is `--base` (default HEAD); the change is the checkout as it
stands, tracked edits and files .gitignore does not exclude included.
`git read-tree HEAD`, `git add -A` and `git write-tree` write its tree
through a scratch GIT_INDEX_FILE, so the checkout's own index and files
never change.  For each workload the tool runs `perfbench/run.py
--trace 0` for both sides at the run length of BENCHMARK.json, one pair
per fresh seed (`--first-seed`, `--first-seed` + 1, ...), alternating
which side runs first, then each side once at seed 0, where perfbench
checks every result against its committed digest.

`--control` adds a control set, run right after the workload's change
pairs: the same alternated pairs with the parent on both sides, from
two separate exports.  Its summary reads as the change's does, so its
medians, wins and gain flags show how far two runs of identical code
move apart on this host; the change's summary records, per metric, the
distance between the control set's two medians as `control_gap`.

The output holds the host (processor count, Python and numpy versions),
every run's JSON line, and per workload and end-to-end metric each
side's median and quartiles, the change's wins (ties count for neither
side) and three verdicts.  `within_bound`: the change's median is worse
than the parent's by no more than the benchmark's bound.  `resolved`:
the parent's quartile spread is within that bound, or every change run
beats every parent run; if not, the spread could hide a regression of
the bound's size, and the metric is unresolved, not unchanged.  `gain`:
at least 10 pairs, change wins in at least nine tenths of them, and a
median better by more than the parent's quartile spread and, where the
workload has a control set, by more than `control_gap`.  Standard
library only; the sides run under the interpreter that runs this script.
"""

from __future__ import annotations

import argparse
import io
import itertools
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
#: The fewest pairs a gain may rest on.  Below 10 the nine-tenths rule
#: asks for every pair, and identical code wins 4 of 4 one time in 16.
MIN_GAIN_PAIRS = 10


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def checkout_tree(index: Path) -> str:
    """The tree of the checkout as it stands, written through the index file `index`."""
    env = dict(os.environ, GIT_INDEX_FILE=str(index))
    git("read-tree", "HEAD", env=env)
    git("add", "-A", env=env)
    return git("write-tree", env=env)


def export(tree: str, dest: Path) -> None:
    """The files of commit or tree `tree` under `dest` (no git metadata)."""
    tar = subprocess.run(["git", "archive", tree], cwd=ROOT, check=True,
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
    iqr = parent["q3"] - parent["q1"]
    beats_all = max(sign * c for _, c in both) < min(sign * p for p, _ in both)
    out = {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        "parent": parent, "change": change,
        "change_wins": wins, "pairs": len(pairs),
        "change_vs_parent": change["median"] / parent["median"] - 1 if parent["median"] else None,
        "within_bound": gap >= -bound,
        # A parent spread past the bound hides a regression of the bound's
        # size, unless every change run beats every parent run.
        "resolved": iqr <= bound or beats_all,
        "gain": len(pairs) >= MIN_GAIN_PAIRS and wins >= 0.9 * len(pairs) and gap > iqr,
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


def run_pairs(dirs: dict, name: str, n: int, seeds, seconds: float) -> list[dict]:
    """`n` alternated pairs of `name` runs on the next `n` `seeds`, each side in `dirs[side]`."""
    pairs = []
    for i, seed in zip(range(n), seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run(dirs[side], name, seed, seconds)
            log(f"{name} seed {seed} {side}: " + ", ".join(
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
    counts = parse_counts(parser, "--pairs", args.pairs or [f"{n}=10" for n in names], names)
    control = parse_counts(parser, "--control", args.control, names)
    seconds = bench["run_seconds"]
    base_commit = git("rev-parse", args.base)
    end_to_end = bench["end_to_end"]

    report = {
        "command": " ".join([Path(sys.argv[0]).name] + (sys.argv[1:] if argv is None else argv)),
        "host": host_info(),
        "parent": {"rev": args.base, "commit": base_commit},
        "change": {"head": git("rev-parse", "HEAD")},
        "run_seconds": seconds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        dirs = {side: Path(tmp) / side for side in ("parent", "change", "again")}
        report["change"]["tree"] = checkout_tree(Path(tmp) / "index")
        export(base_commit, dirs["parent"])
        export(report["change"]["tree"], dirs["change"])
        if control:
            export(base_commit, dirs["again"])
        seeds = itertools.count(args.first_seed)
        for name in names:
            pairs = run_pairs(dirs, name, counts.get(name, 0), seeds, seconds)
            ctrl = {}
            if name in control:
                again = run_pairs(dict(dirs, change=dirs["again"]), name, control[name],
                                  seeds, seconds)
                ctrl = {m["name"]: summarise(again, m) for m in end_to_end}
                report.setdefault("control", {})[name] = {"pairs": again, "metrics": ctrl}
                log(f"{name} control: " + json.dumps(ctrl))
            if pairs:
                report["workloads"][name] = {
                    "pairs": pairs,
                    "correct": {side: all(p[side]["correct"] for p in pairs) for side in SIDES},
                    "seed0_digests_match": {side: run(dirs[side], name, 0, 0)["correct"]
                                            for side in SIDES},
                    "metrics": {m["name"]: summarise(pairs, m, ctrl.get(m["name"]))
                                for m in end_to_end},
                }
                log(f"{name}: " + json.dumps(report["workloads"][name]["metrics"]))
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
