"""Command-line entry point exposing every analysis as a subcommand.

Exit status: 0 on success, 1 on verification failure (e.g. a test
vector mismatch), 2 on usage errors.  Analysis subcommands write a JSON
report (plus CSV with ``--format csv``) under ``--out`` in a directory
named by the run's manifest hash and print ``report: <dir>`` after
their summary line; every subcommand honours ``--seed``.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import boolfun, graphs, harness, lpmodel, nist, trails, vectors
from .cipher import EGC128
from .params import Block, MasterKey
from .reporting import run_directory, write_report

USAGE_ERROR = 2


def _offsets(text: str) -> tuple[int, int, int]:
    parts = [int(p) for p in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated offsets")
    return tuple(parts)


def _attach_offsets(argv: list[str]) -> list[str]:
    """`argv` with ``--offsets -1,1,4`` joined into ``--offsets=-1,1,4``:
    argparse reads a separate word that starts with "-" as an option,
    unless it is one plain negative number."""
    out = []
    for word in argv:
        if out and out[-1] == "--offsets" and re.match(r"-\d", word):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


def _arg(*names, **options):
    return names, options


@dataclass(frozen=True)
class Command:
    """One subcommand.  `run(args)` returns (report parameters, results,
    summary line, exit code); parameters of None mean no report."""

    help: str
    args: tuple
    run: Callable[[argparse.Namespace], tuple]


def _cfg(args) -> harness.RngConfig:
    return harness.RngConfig(args.seed)


def _graph_params(args) -> dict:
    # Only the random variant reads a seed; the others record none.
    seed = args.graph_seed if args.variant == "random3regular" else None
    return {"variant": args.variant, "n": args.n, "graph_seed": seed}


def _graph(args) -> graphs.GraphTopology:
    return graphs.build_topology(args.variant, args.n, args.graph_seed)


def _encrypt(args):
    ct = EGC128.encrypt_block(MasterKey.from_hex(args.key), Block.from_hex(args.pt))
    return None, None, ct.hex(), 0


def _decrypt(args):
    pt = EGC128.decrypt_block(MasterKey.from_hex(args.key), Block.from_hex(args.ct))
    return None, None, pt.hex(), 0


def _vectors(args):
    results = vectors.verify_vectors(args.file)
    n_ok = sum(r.ok for r in results)
    return ({"file": args.file or "bundled"}, results, f"{n_ok}/{len(results)} passed",
            0 if n_ok == len(results) else 1)


def _rule_search(args):
    rep = boolfun.search_rule_candidates(args.max_anf_terms)
    return ({"max_anf_terms": args.max_anf_terms},
            {**rep.__dict__, "minimizers": [f"{t:04x}" for t in rep.minimizers]},
            f"candidates: {rep.count_satisfying} (unrestricted {rep.count_unrestricted}), "
            f"min DU {rep.du_min}, rule-A selected: {rep.rule_a_selected}", 0)


def _degree(args):
    rep = boolfun.degree_growth_report(args.width, args.rounds, args.offsets)
    return ({"width": args.width, "rounds": args.rounds, "offsets": rep.offsets}, rep,
            f"width {args.width} degrees: {list(rep.degrees)} "
            f"(reference match: {rep.matches_reference})", 0)


def _graph_report(args):
    g = _graph(args)
    rep = graphs.spectral_report(g)
    params = _graph_params(args)
    edges = sorted({(min(i, j), max(i, j))
                    for i, reads in enumerate(g.read_sets) for j in reads})
    run_dir = run_directory(args.command, params, args.seed, args.out)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "edges.txt").write_text("".join(f"{i} {j}\n" for i, j in edges))
    return (params, rep, f"{args.variant}: gap {rep.spectral_gap:.3f}, "
            f"diameter {rep.diameter}, mixing <= {rep.mixing_bound.natural:.1f}", 0)


def _bounds(args):
    g = _graph(args)
    series = trails.bound_series(args.mode, args.rounds, g.transposed() if args.transpose else g)
    return ({"mode": args.mode, "rounds": args.rounds, **_graph_params(args),
             "transpose": args.transpose}, series,
            f"{args.mode} min-active 1..{args.rounds}: {list(series.min_active)}", 0)


def _lp_emit(args):
    params = {"mode": args.mode, "rounds": args.rounds, **_graph_params(args)}
    if args.out_file:
        params["out_file"] = args.out_file
    path = (Path(args.out_file) if args.out_file
            else run_directory(args.command, params, args.seed, args.out)
            / f"{args.mode}_{args.rounds}r.lp")
    model = lpmodel.emit_lp_model(args.mode, args.rounds, _graph(args), path)
    return (params, model, f"wrote {model.path} ({model.n_variables} vars, "
            f"{model.n_constraints} constraints)", 0)


def _single_layer(args):
    rep = trails.single_layer_min_weight(
        args.width, args.offsets, exhaustive_limit=(1 << 62) if args.full else (1 << 20),
        max_hamming=args.max_hamming)
    return ({"width": args.width, "offsets": rep.offsets, "max_hamming": args.max_hamming,
             "full": args.full},
            rep, f"width {args.width}: min weight {rep.min_weight_bits:.3f} bits", 0)


def _avalanche(args):
    rep = harness.avalanche_profile(args.pairs, args.rounds, _cfg(args))
    return ({"pairs": args.pairs, "rounds": args.rounds}, rep,
            f"round-{args.rounds} mean HD: {rep.mean_hd[-1]:.2f} bits "
            f"({100 * rep.fraction[-1]:.1f}%)", 0)


def _sac(args):
    rep = harness.sac_matrix(args.samples, _cfg(args), args.threads)
    return ({"samples_per_bit": args.samples}, rep,
            f"mean flip probability {rep.mean:.4f}, "
            f"[0.45,0.55]: {100 * rep.fraction_tight:.1f}%, "
            f"[0.40,0.60]: {100 * rep.fraction_loose:.1f}%", 0)


def _bic(args):
    rep = harness.bic_correlations(args.samples, _cfg(args))
    return ({"samples": args.samples}, rep, f"max |r| = {rep.max_abs_correlation:.4f}, "
            f"mean |r| = {rep.mean_abs_correlation:.4f}", 0)


def _diff_empirical(args):
    rep = harness.empirical_max_dp(Block.from_hex(args.delta), args.rounds, args.samples,
                                   _cfg(args))
    return ({"delta": rep.delta, "rounds": args.rounds, "samples": args.samples}, rep,
            f"max DP {rep.max_probability:.2e} (weight {rep.weight_bits:.2f} bits)", 0)


def _related_key(args):
    rep = harness.related_key_scan(args.diffs, _cfg(args))
    return ({"diffs": args.diffs}, rep, f"mean HW {rep.overall_mean:.2f}/64, "
            f"zero differences: {rep.total_zero_count}", 0)


def _subspace(args):
    rep = harness.invariant_subspace_search(args.dims, args.trials, _cfg(args))
    return ({"dims": rep.dims, "trials": args.trials}, rep,
            f"{len(args.dims) * args.trials} trials, invariants found: {rep.invariants_found}",
            0)


def _zero_scan(args):
    if args.threads < 1:                      # one combination runs no worker pool
        raise ValueError(f"threads must be >= 1, got {args.threads}")
    if args.all:
        if args.delta is not None or args.rounds is not None or args.exhaustive:
            raise ValueError("zero-scan --all runs the standard combinations; "
                             "it takes no --delta, --rounds or --exhaustive")
        reps = harness.zero_diff_scan_all(args.samples, _cfg(args), args.threads)
        params = {"all": True, "samples": args.samples}
    else:
        if args.delta is None or args.rounds is None:
            raise ValueError("zero-scan needs --all or both --delta and --rounds")
        reps = [harness.reduced_zero_diff_scan(
            Block.from_hex(args.delta, 16), args.rounds, args.samples, _cfg(args),
            exhaustive=args.exhaustive)]
        params = {"delta": reps[0].delta, "rounds": args.rounds, "exhaustive": args.exhaustive}
        if not args.exhaustive:               # an exhaustive scan ignores --samples
            params["samples"] = args.samples
    zero = sum(r.zero_output_hits for r in reps)
    hw1 = sum(r.single_bit_output_hits or 0 for r in reps)
    return (params, reps, f"{len(reps)} combinations: {zero} zero-output hits, "
            f"{hw1} single-bit-output hits", 0)


def _coverage(args):
    # The scan reports a repeated checkpoint once per entry; a run asks for each once.
    if len(set(args.checkpoints)) < len(args.checkpoints):
        raise ValueError(f"checkpoints must not repeat a round, got {args.checkpoints}")
    rep = harness.truncated_coverage_scan(args.pairs, args.checkpoints, _cfg(args))
    return ({"pairs": args.pairs, "checkpoints": rep.checkpoints}, rep,
            f"never-active counts at {list(rep.checkpoints)}: "
            f"{list(rep.never_active_counts)}", 0)


def _nist_gen(args):
    key = MasterKey.from_hex(args.key)
    rep = nist.generate_nist_bitstream(args.mode, args.bits, key, args.out_file, _cfg(args),
                                       fmt="binary" if args.binary else "ascii")
    return ({"mode": args.mode, "bits": args.bits, "key": key.hex(), "format": rep.format,
             "out_file": args.out_file}, rep,
            f"wrote {rep.n_bits} bits to {rep.path}; "
            f"ones {rep.ones_count} ({rep.monobit_sigma:+.2f} sigma)", 0)


GRAPH_ARGS = (
    _arg("--variant", default="baseline", choices=graphs.VARIANTS + ("cycle",)),
    _arg("--n", type=int, default=64),
    _arg("--graph-seed", type=int, default=None),
)
THREAD_ARGS = (_arg("--threads", type=int, default=1, help="worker cap"),)
BOUND_ARGS = (_arg("--mode", choices=trails.MODES, required=True),
              _arg("--rounds", type=int, required=True)) + GRAPH_ARGS

COMMANDS = {
    "encrypt": Command("encrypt one block", (
        _arg("--key", required=True), _arg("--pt", required=True)), _encrypt),
    "decrypt": Command("decrypt one block", (
        _arg("--key", required=True), _arg("--ct", required=True)), _decrypt),
    "vectors": Command("verify test vectors", (
        _arg("--file", default=None, help="vector CSV (default: bundled)"),), _vectors),
    "rule-search": Command("exhaustive 4-input function search", (
        _arg("--max-anf-terms", type=int, default=7),), _rule_search),
    "degree": Command("algebraic degree of iterated F_core", (
        _arg("--width", type=int, default=16), _arg("--rounds", type=int, default=4),
        _arg("--offsets", type=_offsets, default=None)), _degree),
    "graph": Command("spectral graph report", GRAPH_ARGS, _graph_report),
    "bounds": Command("trail bounds", BOUND_ARGS + (
        _arg("--transpose", action="store_true"),), _bounds),
    "lp-emit": Command("emit LP model file", BOUND_ARGS + (
        _arg("--out-file", default=None, help="LP path (default: in run dir)"),), _lp_emit),
    "single-layer": Command("exact one-layer minimum differential weight", (
        _arg("--width", type=int, default=16), _arg("--offsets", type=_offsets, default=None),
        _arg("--max-hamming", type=int, default=4),
        _arg("--full", action="store_true", help="exhaustive scan even above the size limit"),
    ), _single_layer),
    "avalanche": Command("avalanche profile", (
        _arg("--pairs", type=int, default=64), _arg("--rounds", type=int, default=20)),
        _avalanche),
    "sac": Command("strict avalanche matrix", (
        _arg("--samples", type=int, default=2000),) + THREAD_ARGS, _sac),
    "bic": Command("bit independence", (_arg("--samples", type=int, default=5000),), _bic),
    "diff-empirical": Command("empirical max differential probability", (
        _arg("--delta", required=True, help="input difference (32 hex chars)"),
        _arg("--rounds", type=int, required=True), _arg("--samples", type=int, default=8000),
    ), _diff_empirical),
    "related-key": Command("round-key difference scan", (
        _arg("--diffs", type=int, default=5000),), _related_key),
    "subspace": Command("invariant affine subspace search", (
        _arg("--dims", type=_int_list, default=(2, 4, 6, 8, 10, 12)),
        _arg("--trials", type=int, default=300)), _subspace),
    "zero-scan": Command("reduced-cipher zero-differential scan", (
        _arg("--delta", default=None, help="8 hex chars (reduced block)"),
        _arg("--rounds", type=int, default=None, choices=(2, 3, 4)),
        _arg("--all", action="store_true", help="all 36 standard combos"),
        _arg("--samples", type=int, default=1 << 24), _arg("--exhaustive", action="store_true"),
    ) + THREAD_ARGS, _zero_scan),
    "coverage": Command("truncated coverage scan", (
        _arg("--pairs", type=int, default=10000),
        _arg("--checkpoints", type=_int_list, default=(5, 10, 15, 18, 20))), _coverage),
    "nist-gen": Command("generate a statistical-suite input bitstream", (
        _arg("--mode", choices=nist.MODES, default="random_pt"),
        _arg("--bits", type=int, required=True), _arg("--key", required=True),
        _arg("--out-file", required=True), _arg("--binary", action="store_true")), _nist_gen),
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="egc128", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master RNG seed")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default="reports", help="report output root")
    sub = top.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help)
        for names, options in command.args:
            p.add_argument(*names, **options)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(_attach_offsets(sys.argv[1:] if argv is None else argv))
    try:
        params, results, summary, status = COMMANDS[args.command].run(args)
        if params is not None:
            run = write_report(args.command, params, results, args.seed, args.out,
                               args.format)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(summary)
    if params is not None:
        print(f"report: {run}")
    return status


if __name__ == "__main__":
    sys.exit(main())
