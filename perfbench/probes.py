"""Layer probes for the traced run: isolated public calls, timed alone.

Every traced run, whatever its workload, measures the same probes, at
the shapes the four workloads use; their names and the workloads they
should move are listed in README.md.  A probe reports the median of
several timed samples unless one call already takes long.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import tracemalloc
from time import perf_counter

import numpy as np

from egc128 import boolfun, trails
from egc128.bitslice import BitslicedCipher, pack_words, random_lanes, unpack_words
from egc128.cipher import EGC128, derive_round_keys, f_core
from egc128.graphs import spectral_report
from egc128.harness import (
    REDUCED_SCAN_PARAMS,
    RngConfig,
    avalanche_profile,
    bic_correlations,
    empirical_max_dp,
    reduced_zero_diff_scan,
    related_key_scan,
    sac_matrix,
    standard_zero_diff_combos,
    truncated_coverage_scan,
    zero_diff_scan_all,
)
from egc128.nist import MODES, generate_nist_bitstream
from egc128.params import Block, CipherParams
from egc128.vectors import verify_vectors
from locate import SRC
from workloads import BASE_GRAPH, fingerprint, lp_models, random_block, random_key, subspace_search

FULL = CipherParams.full()

#: Words per lane of the bitsliced grid, per branch width.  Width 64 at
#: 65,536 words is left out: one 20-round call takes over a second and
#: allocates about 300 MB, and w64x16384 already sits above L2.
GRID = {16: (16, 1024, 16384, 65536), 64: (16, 32, 128, 1024, 16384)}
#: Rounds of a grid encrypt: the zero-scan's middle round count at
#: width 16, the full cipher at width 64.
GRID_ROUNDS = {16: 3, 64: 20}

PACK_SAMPLES = 1 << 20
NIST_BITS = 128 << 16          # one 65,536-block batch, the keystream batch shape
#: Seconds beyond which one call is timed once rather than as a median.
LONG = 0.25


def sample(fn, samples: int = 3, min_time: float = 0.02) -> float:
    """Median seconds per call of fn(), batching calls shorter than
    min_time; a first call longer than LONG is taken as it is."""
    t0 = perf_counter()
    fn()
    first = perf_counter() - t0
    if first > LONG:
        return first
    calls = max(1, int(min_time / max(first, 1e-9)))
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - t0) / calls)
    return statistics.median(times)


def median_per_item(fn, items, samples: int = 5) -> float:
    """Median over `samples` passes of seconds per fn(item)."""
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        for item in items:
            fn(item)
        times.append((perf_counter() - t0) / len(items))
    return statistics.median(times)


class Probes:
    def __init__(self, seed: int, tracer, work_dir, out):
        self.seed = seed
        self.tracer = tracer
        self.work_dir = work_dir
        self.out = out                  # print function for the tables
        self.metrics: dict[str, tuple[float, str]] = {}
        self.failures: list[str] = []
        self.attempted = 0

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def run(self) -> None:
        self.import_time()
        self.scalar()
        self.bitsliced()
        self.packers()
        self.harness_self_times()
        self.nist_self_times()
        self.exact_layers()
        self.thread_scaling()

    # -- set-up ------------------------------------------------------------

    def import_time(self, spawns: int = 3) -> None:
        code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import egc128, egc128.harness, egc128.nist, egc128.trails, egc128.lpmodel, "
                "egc128.vectors, egc128.graphs, egc128.boolfun; print(time.perf_counter() - t)")
        times = []
        for _ in range(spawns):
            done = subprocess.run([sys.executable, "-c", code, str(SRC)],
                                  capture_output=True, text=True, timeout=60, check=True)
            times.append(float(done.stdout.strip()))
        self.put("import.egc128.s", statistics.median(times), "s")

    # -- scalar cipher -------------------------------------------------------

    def scalar(self, n: int = 1000) -> None:
        rnd = random.Random(self.seed)
        keys = [random_key(rnd) for _ in range(n)]
        pts = [random_block(rnd) for _ in range(n)]
        one_key = keys[0]
        cts = [EGC128.encrypt_block(k, p) for k, p in zip(keys, pts)]
        us = 1e6
        self.put("cipher.derive_round_keys.us",
                 us * median_per_item(lambda k: derive_round_keys(k, FULL), keys), "us")
        self.put("cipher.f_core.us",
                 us * median_per_item(lambda p: f_core(p.left, FULL), pts), "us")
        self.put("cipher.encrypt_block.fixed_key_us",
                 us * median_per_item(lambda p: EGC128.encrypt_block(one_key, p), pts), "us")
        self.put("cipher.encrypt_block.fresh_key_us",
                 us * median_per_item(lambda i: EGC128.encrypt_block(keys[i], pts[i]), range(n)), "us")
        self.put("cipher.decrypt_block.us",
                 us * median_per_item(lambda i: EGC128.decrypt_block(keys[i], cts[i]), range(n)), "us")

    # -- bitsliced engine ----------------------------------------------------

    def bitsliced(self) -> None:
        rng = np.random.default_rng(self.seed)
        rnd = random.Random(self.seed)
        self.out("bitsliced grid (M blocks/s for encrypt, ns per lane word for f_core):")
        self.out(f"  {'shape':>10} {'rounds':>6} {'fixed':>8} {'lanes_key':>9} {'f_core':>8}")
        for width, shapes in GRID.items():
            params = FULL if width == 64 else REDUCED_SCAN_PARAMS
            engine = BitslicedCipher(params)
            key = random_key(rnd, width)
            nr = GRID_ROUNDS[width]
            for words in shapes:
                L, R, KH, KL = (random_lanes(rng, width, words) for _ in range(4))
                mblocks = 64 * words / 1e6
                fixed = mblocks / sample(lambda: engine.encrypt(L, R, key, rounds=nr))
                lanes = mblocks / sample(lambda: engine.encrypt(L, R, (KH, KL), rounds=nr))
                fcore = 1e9 * sample(lambda: engine.f_core(R)) / (width * words)
                tag = f"w{width}x{words}"
                self.out(f"  {tag:>10} {nr:>6} {fixed:8.3f} {lanes:9.3f} {fcore:8.3f}")
                if tag in ("w64x1024", "w64x16384"):
                    self.put(f"bitslice.encrypt.fixed.{tag}.mblocks_per_s", fixed, "Mblocks/s")
                if tag in ("w64x32", "w64x128"):
                    self.put(f"bitslice.encrypt.lanes_key.{tag}.mblocks_per_s", lanes, "Mblocks/s")
                if tag in ("w16x65536", "w64x32", "w64x128", "w64x1024", "w64x16384"):
                    self.put(f"bitslice.f_core.{tag}.ns_per_word", fcore, "ns")
                if tag == "w64x16384":
                    # Floor on traffic: read L and R, write L' and R', per round.
                    gbytes = 4 * L.nbytes * nr / 1e9
                    self.put("bitslice.encrypt.fixed.w64x16384.computed_gbytes_per_s",
                             gbytes * fixed / mblocks, "GB/s")

        # The zero-scan's own shape: one encrypt at each of rounds 2, 3, 4.
        engine = BitslicedCipher(REDUCED_SCAN_PARAMS)
        key = random_key(rnd, 16)
        L, R = random_lanes(rng, 16, 65536), random_lanes(rng, 16, 65536)
        per_pass = sample(lambda: [engine.encrypt(L, R, key, rounds=r) for r in (2, 3, 4)])
        self.put("bitslice.encrypt.fixed.w16x65536.mblocks_per_s", 3 * 64 * 65536 / 1e6 / per_pass,
                 "Mblocks/s")
        self.put("bitslice.encrypt.fixed.w16x65536.computed_gbytes_per_s",
                 4 * L.nbytes * (2 + 3 + 4) / 1e9 / per_pass, "GB/s")

        # Peak traced allocation of one call over one lane array's bytes.
        L, R = random_lanes(rng, 64, 1024), random_lanes(rng, 64, 1024)
        tracemalloc.start()
        try:
            BitslicedCipher(FULL).encrypt(L, R, random_key(rnd))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.put("bitslice.encrypt.peak_alloc_x", peak / L.nbytes, "x")

    def packers(self) -> None:
        rng = np.random.default_rng(self.seed)
        values = np.frombuffer(rng.bytes(8 * PACK_SAMPLES), dtype=np.uint64)
        lanes = pack_words(values, 64)
        self.attempted += 1
        if not np.array_equal(unpack_words(lanes), values):
            self.failures.append("unpack_words(pack_words(v)) != v")
        ns = 1e9 / PACK_SAMPLES
        self.put("bitslice.pack_words.ns_per_sample", ns * sample(lambda: pack_words(values, 64)), "ns")
        self.put("bitslice.unpack_words.ns_per_sample", ns * sample(lambda: unpack_words(lanes)), "ns")
        self.put("bitslice.random_lanes.ns_per_sample",
                 ns * sample(lambda: random_lanes(rng, 16, PACK_SAMPLES // 64)), "ns")

    # -- harness and nist self time -----------------------------------------

    def _self_time(self, name: str, fn, samples: int = 3) -> float:
        """Median self seconds of fn() under a span, bitsliced children excluded."""
        values = []
        for _ in range(samples):
            first = len(self.tracer.spans)
            with self.tracer.patched(), self.tracer.span(name):
                fn()
            calls, total, own = self.tracer.totals(first)[name]
            values.append(own)
            if total > LONG:
                break
        return statistics.median(values)

    def harness_self_times(self) -> None:
        cfg = RngConfig(self.seed)
        delta, rounds = standard_zero_diff_combos()[1]
        calls = {
            "reduced_zero_diff_scan": lambda: reduced_zero_diff_scan(delta, rounds, 1 << 22, cfg),
            "sac_matrix": lambda: sac_matrix(2000, cfg, threads=1),
            "bic_correlations": lambda: bic_correlations(5000, cfg),
            "avalanche_profile": lambda: avalanche_profile(64, 20, cfg),
            "empirical_max_dp": lambda: empirical_max_dp(Block(0, 1), 6, 8000, cfg),
            "truncated_coverage_scan": lambda: truncated_coverage_scan(10000, (5, 10, 15, 18, 20), cfg),
            "related_key_scan": lambda: related_key_scan(5000, cfg),
            "invariant_subspace_search": lambda: subspace_search(cfg),
        }
        for fn_name, call in calls.items():
            name = f"harness.{fn_name}.self_s"
            self.put(name, self._self_time(name, call), "s")

    def nist_self_times(self) -> None:
        cfg = RngConfig(self.seed)
        key = random_key(random.Random(self.seed))
        written = 0
        for mode in MODES:
            for fmt in ("ascii", "binary"):
                path = self.work_dir / f"probe.{mode}.{fmt}"
                name = f"nist.generate.{mode}.{fmt}.self_ns_per_bit"
                seconds = self._self_time(
                    name, lambda: generate_nist_bitstream(mode, NIST_BITS, key, path, cfg, fmt))
                self.put(name, 1e9 * seconds / NIST_BITS, "ns")
                written += path.stat().st_size
                path.unlink()
        self.put("nist.bytes_written", written, "bytes")

    # -- exact (non-numpy) layers --------------------------------------------

    def exact_layers(self) -> None:
        timed = {
            "trails.single_layer_min_weight.w16.s": lambda: trails.single_layer_min_weight(16),
            "trails.single_layer_min_weight.w32.s": lambda: trails.single_layer_min_weight(32),
            "trails.bound_series.s": lambda: trails.bound_series("differential", 10, BASE_GRAPH),
            "boolfun.search_rule_candidates.s": boolfun.search_rule_candidates,
            "boolfun.degree_series.s": lambda: boolfun.degree_series(16, 4, (-1, 1, 4)),
            "graphs.spectral_report.s": lambda: spectral_report(BASE_GRAPH),
            "lpmodel.emit_lp_model.s": lambda: lp_models(self.work_dir),
            "vectors.verify_vectors.s": verify_vectors,
        }
        for name, call in timed.items():
            self.put(name, sample(call, min_time=0.0), "s")
        models = lp_models(self.work_dir)
        self.put("lpmodel.emit_lp_model.variables", sum(m.n_variables for m in models), "count")
        self.put("lpmodel.emit_lp_model.constraints", sum(m.n_constraints for m in models), "count")

    # -- thread pool ----------------------------------------------------------

    def thread_scaling(self) -> None:
        """threads=1 vs threads=2 at the zero-scan and a SAC shape; the
        reports must not depend on the thread count."""
        cfg = RngConfig(self.seed)
        shapes = {
            "zero_scan": lambda t: zero_diff_scan_all(1 << 22, cfg, threads=t),
            "sac8000": lambda t: sac_matrix(8000, cfg, threads=t),
        }
        for tag, call in shapes.items():
            seconds, prints = [], []
            for threads in (1, 2):
                t0 = perf_counter()
                result = call(threads)
                seconds.append(perf_counter() - t0)
                prints.append(fingerprint(result))
            self.attempted += 1
            if prints[0] != prints[1]:
                self.failures.append(f"{tag}: threads=2 report differs from threads=1")
            self.put(f"harness.run_units.speedup_2t.{tag}", seconds[0] / seconds[1], "x")
