"""The four benchmark workloads.

A workload is a fixed list of operations, one *pass*, built from a seed
through public egc128 entry points.  An operation is one harness or
nist call, one criterion computation, or one scalar batch.  Inputs are
generated while the pass is built, so an operation's timed call does
only the package's work; its check then returns an error (or None) and
a JSON-able fingerprint of the result, which the seed-0 digests in
`digests.json` pin bit for bit.

Every harness call passes threads=1.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, fields, is_dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

from egc128 import boolfun, trails
from egc128.bitslice import BitslicedCipher, pack_words, unpack_words
from egc128.cipher import EGC128, Cipher
from egc128.graphs import build_topology, spectral_report
from egc128.harness import (
    REDUCED_SCAN_PARAMS,
    RngConfig,
    avalanche_profile,
    bic_correlations,
    empirical_max_dp,
    invariant_subspace_search,
    reduced_zero_diff_scan,
    related_key_scan,
    sac_matrix,
    standard_zero_diff_combos,
    truncated_coverage_scan,
)
from egc128.lpmodel import emit_lp_model
from egc128.nist import generate_nist_bitstream
from egc128.params import RULE_A_TRUTH_TABLE, Block, CipherParams, MasterKey
from egc128.vectors import verify_vectors

Check = Callable[[Any], "tuple[str | None, Any]"]


@dataclass(frozen=True)
class Op:
    name: str                   # layer function called, plus a shape tag;
                                # ops of one name do the same amount of work
    call: Callable[[], Any]     # the timed work
    check: Check                # result -> (error or None, fingerprint)


def fingerprint(obj):
    """JSON-able, bit-exact image of a result (floats by repr, arrays by hash)."""
    if is_dataclass(obj):
        return {f.name: fingerprint(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        return [str(data.dtype), list(data.shape), hashlib.sha256(data.tobytes()).hexdigest()]
    if isinstance(obj, Path):
        return obj.name
    if isinstance(obj, (list, tuple)):
        return [fingerprint(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): fingerprint(v) for k, v in obj.items()}
    if isinstance(obj, (float, np.floating)):
        return repr(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _expect(condition: Callable[[Any], bool], message: str) -> Check:
    return lambda result: (None if condition(result) else message, fingerprint(result))


_no_check = _expect(lambda result: True, "")


def random_key(rnd: random.Random, width: int = 64) -> MasterKey:
    return MasterKey(rnd.getrandbits(width), rnd.getrandbits(width), width)


def random_block(rnd: random.Random, width: int = 64) -> Block:
    return Block(rnd.getrandbits(width), rnd.getrandbits(width), width)


class Workload:
    name = ""
    why = ""

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir

    def ops(self, seed: int) -> list[Op]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One small call through the workload's entry points."""
        raise NotImplementedError

    def recorded(self, prints: list) -> dict:
        """Results worth printing beside the checks (never failures),
        from the fingerprints of one pass."""
        return {}


# ---------------------------------------------------------------------------

class ZeroScan(Workload):
    name = "zero-scan"
    why = ("criterion 16 at 1/4 size: width-16 fixed-key engine at 65,536 words "
           "per lane, memory-bound, dominated by bitsliced F_core and random lanes")
    SAMPLES = 1 << 22

    def ops(self, seed):
        cfg = RngConfig(seed)
        # A fixed-key map is a permutation: distinct plaintexts never collide.
        check = _expect(lambda rep: rep.zero_output_hits == 0, "zero-output hit")
        return [Op(f"harness.reduced_zero_diff_scan.r{rounds}",
                   partial(reduced_zero_diff_scan, delta, rounds, self.SAMPLES, cfg),
                   check)
                for delta, rounds in standard_zero_diff_combos()]

    def warm_up(self):
        delta, rounds = standard_zero_diff_combos()[0]
        reduced_zero_diff_scan(delta, rounds, 1 << 12, RngConfig(0))

    def recorded(self, prints):
        # Criterion 16's single-bit clause fails by construction of the
        # cipher; the total is reported, never treated as a failure.
        return {"single_bit_output_hits": sum(p["single_bit_output_hits"] or 0 for p in prints)}


# ---------------------------------------------------------------------------

#: Criterion 17's seven (delta left, delta right, rounds) rows.
DP_ROWS = ((0, 1, 3), (0, 1, 6), (0, 1 << 63, 6), (1, 0, 6),
           (1 << 63, 0, 6), (0, 3, 6), (1, 1 << 63, 6))


class StatSuite(Workload):
    name = "stat-suite"
    why = ("criteria 11-13, 17, 18 at reference size for 8 master seeds: full-width "
           "per-sample-key engine at 32-157 words per lane, bound by Python dispatch")
    SEEDS_PER_PASS = 8

    def ops(self, seed):
        ops = []
        for s in range(seed, seed + self.SEEDS_PER_PASS):
            cfg = RngConfig(s)
            ops += [
                Op("harness.avalanche_profile", partial(avalanche_profile, 64, 20, cfg),
                   _expect(lambda rep: rep.mean_hd[0] == 1.0, "avalanche round-0 distance != 1")),
                Op("harness.sac_matrix", partial(sac_matrix, 2000, cfg, threads=1), _no_check),
                Op("harness.bic_correlations", partial(bic_correlations, 5000, cfg), _no_check),
            ]
            ops += [Op(f"harness.empirical_max_dp.r{rounds}",
                       partial(empirical_max_dp, Block(dl, dr), rounds, 8000, cfg), _no_check)
                    for dl, dr, rounds in DP_ROWS]
            ops.append(Op("harness.truncated_coverage_scan",
                          partial(truncated_coverage_scan, 10000, (5, 10, 15, 18, 20), cfg),
                          _expect(lambda rep: not any(rep.never_active_counts),
                                  "never-active bits in coverage scan")))
        return ops

    def warm_up(self):
        avalanche_profile(1, 20, RngConfig(0))


# ---------------------------------------------------------------------------

#: (mode, format) of the three keystreams; each is N_BITS long.
STREAMS = (("random_pt", "ascii"), ("counter", "binary"), ("nonce_counter", "binary"))


class Keystream(Workload):
    name = "keystream"
    why = ("criterion 19 plus counter streams, 10^8 bits each: full-width fixed-key "
           "engine fits in L2, time goes to output conversion and packing")
    N_BITS = 10 ** 8

    def ops(self, seed):
        key = random_key(random.Random(seed))
        cfg = RngConfig(seed)
        return [Op(f"nist.generate_nist_bitstream.{mode}.{fmt}",
                   partial(generate_nist_bitstream, mode, self.N_BITS, key,
                           self.work_dir / f"{mode}.{fmt}", cfg, fmt),
                   self._check)
                for mode, fmt in STREAMS]

    def _check(self, rep):
        """Size, alphabet and, for the random-plaintext stream, a 5-sigma
        ones count; the file is then deleted.

        The counter streams get no ones-count check: across keys their
        monobit sigma spreads two to three times wider than N(0, 1)
        (|sigma| up to 6.3 seen at 10^8 bits), a property of the cipher
        on counter inputs, which `recorded` prints instead."""
        path = Path(rep.path)
        size = path.stat().st_size
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            head = fh.read(4096)
            fh.seek(0)
            for block in iter(partial(fh.read, 1 << 22), b""):
                digest.update(block)
        path.unlink()
        n = rep.n_bits
        error = None
        if size != (n if rep.format == "ascii" else n // 8):
            error = f"{path.name}: {size} bytes written"
        elif rep.format == "ascii" and not set(head) <= {ord("0"), ord("1")}:
            error = f"{path.name}: symbols other than '0'/'1'"
        elif rep.mode == "random_pt" and abs(rep.ones_count - n / 2) >= 5 * (n / 4) ** 0.5:
            error = f"{path.name}: ones count {rep.ones_count} outside 5 sigma"
        return error, {"report": fingerprint(rep), "bytes": size, "sha256": digest.hexdigest()}

    def warm_up(self):
        path = self.work_dir / "warm_up.bin"
        generate_nist_bitstream("counter", 128 * 64, MasterKey(0, 0), path, RngConfig(0), "binary")
        path.unlink()

    def recorded(self, prints):
        return {"bytes_written": sum(p["bytes"] for p in prints),
                "monobit_sigma": {p["report"]["mode"]: round(float(p["report"]["monobit_sigma"]), 3)
                                  for p in prints}}


# ---------------------------------------------------------------------------

BASE_GRAPH = build_topology("baseline", 64)
POOR_GRAPH = build_topology("poor_expander", 64)


def chained_blocks(key: MasterKey, pt: Block, count: int) -> list[Block]:
    """`count` chained encryptions under one key (the `egc128 bench` pattern)."""
    out = []
    block = pt
    for _ in range(count):
        block = EGC128.encrypt_block(key, block)
        out.append(block)
    return out


def round_trips(pairs) -> list[tuple[Block, bool]]:
    """Encrypt and decrypt under a fresh key per pair (criterion 2's pattern)."""
    out = []
    for key, pt in pairs:
        ct = EGC128.encrypt_block(key, pt)
        out.append((ct, EGC128.decrypt_block(key, ct) == pt))
    return out


def rule_a_properties():
    """Criterion 3's tuple: weight, NL, DU, degree, max |Walsh|, ANF."""
    t = RULE_A_TRUTH_TABLE
    return (bin(t).count("1"), boolfun.nonlinearity(t),
            boolfun.differential_uniformity(t)[0],
            boolfun.algebraic_degree(boolfun.truth_table_bits(t)),
            int(abs(boolfun.walsh_spectrum(t)).max()), boolfun.anf_monomials(t))


def linear_bounds():
    return (trails.bound_series("linear", 6, BASE_GRAPH),
            trails.bound_series("linear", 4, POOR_GRAPH))


def subspace_search(cfg: RngConfig):
    """Criterion 15: the search plus its identity-map positive control."""
    return (invariant_subspace_search((2, 4, 6, 8, 10, 12), 300, cfg),
            invariant_subspace_search((2, 4), 5, cfg, map_fn=lambda a: a))


def lp_models(work_dir: Path):
    return [emit_lp_model("differential", r, BASE_GRAPH, work_dir / f"d{r}.lp")
            for r in (1, 2, 3)]


def _lp_check(models):
    error = None
    for m in models:
        if m.n_variables != 3 * m.n * m.rounds + 2 * m.n:
            error = f"round-{m.rounds} model has {m.n_variables} variables"
    digests = [hashlib.sha256(Path(m.path).read_bytes()).hexdigest() for m in models]
    return error, {"models": fingerprint(models), "sha256": digests}


class Reference(Workload):
    name = "reference"
    why = ("scalar cipher and exact analyses (criteria 1-10, 14, 15, 20): no numpy hot "
           "path; chained blocks reuse one key schedule, fresh-key round trips do not")
    CHAIN = 8192
    ROUND_TRIPS = 4096

    def ops(self, seed):
        rnd = random.Random(seed)
        chain_key, chain_pt = random_key(rnd), random_block(rnd)
        pairs = [(random_key(rnd), random_block(rnd)) for _ in range(self.ROUND_TRIPS)]
        links = rnd.sample(range(self.CHAIN), 16)
        cfg = RngConfig(seed)

        def chain_ok(blocks):
            prev = [chain_pt] + blocks
            return all(EGC128.decrypt_block(chain_key, blocks[i]) == prev[i] for i in links)

        def exact(expected, what):
            return _expect(lambda got: got == expected, f"{what} differs from the reference value")

        return [
            Op("cipher.encrypt_block.chained", partial(chained_blocks, chain_key, chain_pt, self.CHAIN),
               _expect(chain_ok, "chained block does not decrypt to its predecessor")),
            Op("cipher.round_trip.fresh_key", partial(round_trips, pairs),
               _expect(lambda out: all(ok for _, ok in out), "round trip failed")),
            Op("vectors.verify_vectors", verify_vectors,
               _expect(lambda res: len(res) == 10 and all(r.ok for r in res), "test vector mismatch")),
            Op("boolfun.rule_a_properties", rule_a_properties,
               exact((8, 4, 12, 3, 8, [0b0000, 0b0100, 0b0101, 0b0110, 0b1010, 0b1101]),
                     "Rule-A property tuple")),
            Op("boolfun.search_rule_candidates", boolfun.search_rule_candidates,
               _expect(lambda rep: rep.count_satisfying == 4158 and rep.rule_a_selected
                       and rep.du_min == 12, "candidate search result")),
            Op("trails.bound_series.differential",
               partial(trails.bound_series, "differential", 10, BASE_GRAPH),
               _expect(lambda s: s.min_active == (4, 13, 29, 53, 85, 125, 173, 229, 291, 355),
                       "differential bound series")),
            Op("trails.bound_series.linear", linear_bounds,
               _expect(lambda s: s[0].min_active == (0, 4, 13, 29, 53, 85)
                       and s[1].min_active == (0, 4, 11, 21), "linear bound series")),
            Op("trails.min_active", partial(trails.min_active, "differential", 10, BASE_GRAPH),
               _expect(lambda rep: rep.round_counts == (4, 9, 16, 24, 32, 40, 48, 56, 62, 64),
                       "per-round activation increments")),
            Op("trails.single_layer_min_weight.w16", partial(trails.single_layer_min_weight, 16),
               _expect(lambda rep: abs(rep.min_weight_bits - 3.415) < 1e-3, "w16 layer weight")),
            Op("trails.single_layer_min_weight.w32", partial(trails.single_layer_min_weight, 32),
               _expect(lambda rep: abs(rep.min_weight_bits - 3.415) < 1e-3
                       and rep.restricted_to_hamming == 4, "w32 layer weight")),
            Op("graphs.spectral_report", lambda: (spectral_report(BASE_GRAPH), spectral_report(POOR_GRAPH)),
               _expect(lambda r: abs(r[0].spectral_gap - 0.152) < 1e-3 and abs(r[1].spectral_gap - 0.048) < 1e-3
                       and r[0].diameter == 9 and r[1].diameter == 16, "spectral gaps or diameters")),
            Op("boolfun.degree_series", partial(boolfun.degree_series, 16, 4, (-1, 1, 4)),
               exact([3, 7, 13, 15], "width-16 degree series")),
            Op("harness.related_key_scan", partial(related_key_scan, 5000, cfg),
               _expect(lambda rep: rep.total_zero_count == 0, "zero round-key difference")),
            Op("harness.invariant_subspace_search", partial(subspace_search, cfg),
               _expect(lambda r: r[0].invariants_found == 0 and r[1].invariants_found == 10,
                       "invariant subspace search or its control")),
            Op("lpmodel.emit_lp_model", partial(lp_models, self.work_dir), _lp_check),
        ]

    def warm_up(self):
        EGC128.encrypt_block(MasterKey(0, 0), Block(0, 0))


WORKLOADS = {w.name: w for w in (ZeroScan, StatSuite, Keystream, Reference)}


# ---------------------------------------------------------------------------

def spot_checks(seed: int) -> list[Op]:
    """64 samples through the scalar Cipher and the BitslicedCipher, at
    widths 16 and 64, with one key per sample; the two routes must agree."""
    ops = []
    for params in (REDUCED_SCAN_PARAMS, CipherParams.full()):
        w = params.branch_width
        rnd = random.Random(seed * 1000 + w)
        keys = [random_key(rnd, w) for _ in range(64)]
        pts = [random_block(rnd, w) for _ in range(64)]
        ops.append(Op(f"spot_check.w{w}", partial(_both_routes, params, keys, pts),
                      _expect(lambda r: r[0] == r[1], "scalar and bitsliced routes disagree")))
    return ops


def _both_routes(params, keys, pts):
    w = params.branch_width
    scalar = Cipher(params)
    want = [scalar.encrypt_block(k, p) for k, p in zip(keys, pts)]

    def lanes(values):
        return pack_words(np.array(values, dtype=np.uint64), w)

    cl, cr = BitslicedCipher(params).encrypt(
        lanes([p.left for p in pts]), lanes([p.right for p in pts]),
        (lanes([k.high for k in keys]), lanes([k.low for k in keys])))
    got = [Block(int(l), int(r), w) for l, r in zip(unpack_words(cl), unpack_words(cr))]
    return [b.hex() for b in want], [b.hex() for b in got]
