"""Layered benchmark of the egc128 workbench.

    python3 perfbench/run.py --workload zero-scan --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout.  An untraced run (--trace 0)
times the workload's fixed work end to end; a traced run (--trace 1)
records spans around the layers and runs the layer probes.  Human-
readable lines come first; the last line of standard output is one JSON
object.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed
from locate import WORK, require_package

require_package()

from probes import Probes  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, spot_checks  # noqa: E402

DIGESTS = Path(__file__).with_name("digests.json")
#: Pass p of a run with seed s builds its inputs from seed s + p * stride,
#: so repeated passes never reuse keys or plaintexts.
PASS_SEED_STRIDE = 10_000
#: Fresh processes timed per untraced run for setup_s.
SETUP_SPAWNS = 5


def op_digest(fp) -> str:
    return hashlib.sha256(json.dumps(fp, sort_keys=True).encode()).hexdigest()


class Ledger:
    """Operations attempted and failed, feeding error_rate."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []

    def run(self, op, tracer=None, digest=None):
        """Time op.call() (under a span when tracing) and check its result."""
        t0 = perf_counter()
        if tracer is None:
            result = op.call()
        else:
            with tracer.patched(), tracer.span(op.name):
                result = op.call()
        seconds = perf_counter() - t0
        error, fp = op.check(result)
        if error is None and digest is not None and op_digest(fp) != digest:
            error = "result differs from the committed seed-0 digest"
        self.attempted += 1
        if error is not None:
            self.errors.append(f"{op.name}: {error}")
        return seconds, fp


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure_setup(workload: str, spawns: int, host: HostSpeed) -> list[float]:
    """Seconds from spawning a fresh process to its 'ready' line."""
    child = Path(__file__).with_name("setup_child.py")
    times = []
    for _ in range(spawns):
        host.sample()
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, str(child), workload],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            seconds = perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process exited {proc.returncode} before 'ready'")
        times.append(seconds)
    return times


def timed_passes(workload, seed, seconds, ledger, digests, host):
    """Repeat the workload's pass until `seconds` have elapsed (the first
    pass always completes).  Returns durations by op name, pass-0 names
    and fingerprints, and the number of complete passes."""
    durations = defaultdict(list)
    names = []
    prints = []
    start = perf_counter()
    passes = 0
    while True:
        for i, op in enumerate(workload.ops(seed + PASS_SEED_STRIDE * passes)):
            if passes and perf_counter() - start >= seconds:
                return durations, names, prints, passes
            host.maybe_sample()
            digest = digests[i] if passes == 0 and digests else None
            dt, fp = ledger.run(op, digest=digest)
            durations[op.name].append(dt)
            if passes == 0:
                names.append(op.name)
                prints.append(fp)
        passes += 1


def seed0_digests(workload, args):
    """The committed per-op digests when the run is at seed 0, else None."""
    if args.seed != 0 or args.record_digests:
        return None
    return json.loads(DIGESTS.read_text())[workload.name]


def untraced(workload, args, ledger, out):
    digests = seed0_digests(workload, args)
    host = HostSpeed()
    durations, names, prints, passes = timed_passes(workload, args.seed, args.seconds,
                                                    ledger, digests, host)
    if args.record_digests:
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        recorded[workload.name] = [op_digest(fp) for fp in prints]
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    for key, value in workload.recorded(prints).items():
        out(f"recorded (pass 0): {key} = {value}")

    # The pass's time, each op taken at the median of all ops of its name.
    wall = sum(statistics.median(durations[name]) for name in names)
    samples = [len(d) for d in durations.values()]
    setup = measure_setup(workload.name, SETUP_SPAWNS, host)
    q1, q3 = quartiles(setup)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    factor = host.factor()

    out(f"host speed factor = {factor:.4f}  (reference / measured probe time, "
        f"{len(host.samples)} samples; times below are at the reference host speed)")
    out(f"wall_s = {wall * factor:.4f} s  (measured {wall:.4f} s; {len(names)} ops in a pass, "
        f"each at the median of its name's {min(samples)}-{max(samples)} samples; "
        f"{passes} complete passes)")
    out(f"setup_s = {statistics.median(setup) * factor:.4f} s  (measured median "
        f"{statistics.median(setup):.4f} s of {len(setup)} fresh processes, "
        f"quartiles {q1:.4f}-{q3:.4f})")
    out(f"peak_rss_mb = {rss:.1f} MB")
    return {"setup_s": (statistics.median(setup) * factor, "s"), "wall_s": (wall * factor, "s"),
            "peak_rss_mb": (rss, "MB")}


def traced(workload, args, ledger, out, work_dir):
    """One untraced and one traced pass of the same inputs, then the probes."""
    tracer = Tracer()
    ops = workload.ops(args.seed)
    digests = seed0_digests(workload, args) or [None] * len(ops)
    plain = sum(ledger.run(op, digest=d)[0] for op, d in zip(ops, digests))
    spanned = sum(ledger.run(op, tracer, d)[0] for op, d in zip(ops, digests))
    block_evals = tracer.block_evals
    out(f"traced pass: {spanned:.4f} s, untraced pass: {plain:.4f} s, "
        f"{block_evals} block evaluations")
    out(f"  {'span':<52} {'calls':>7} {'total_s':>9} {'self_s':>9}")
    by_self = sorted(tracer.totals().items(), key=lambda kv: -kv[1][2])
    for name, (calls, total, own) in by_self:
        out(f"  {name:<52} {calls:>7} {total:9.4f} {own:9.4f}")

    probes = Probes(args.seed, tracer, work_dir, out)
    probes.run()
    ledger.attempted += probes.attempted
    ledger.errors += probes.failures
    tracer.dump(WORK / f"spans-{workload.name}-seed{args.seed}.json")

    metrics = dict(probes.metrics)
    metrics["trace.overhead_s"] = (spanned - plain, "s")
    metrics["count.block_evals"] = (block_evals, "count")
    for name, (value, unit) in metrics.items():
        out(f"{name} = {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite this workload's seed-0 digests from the current code")
    args = parser.parse_args(argv)
    if args.record_digests and (args.seed != 0 or args.trace):
        parser.error("--record-digests needs --seed 0 --trace 0")

    def out(line):
        print(line, flush=True)

    work_dir = WORK / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](work_dir)
        ledger = Ledger()
        for op in spot_checks(args.seed):
            ledger.run(op)
        if args.trace:
            metrics = traced(workload, args, ledger, out, work_dir)
        else:
            metrics = untraced(workload, args, ledger, out)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = len(ledger.errors)
    for error in ledger.errors:
        out(f"FAILED {error}")
    out(f"error_rate = {failed}/{ledger.attempted} = {failed / ledger.attempted:.4g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
