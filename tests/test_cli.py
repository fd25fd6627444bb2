"""CLI: subcommand behaviour, exit codes, report schema."""

import hashlib
import json
from importlib import resources

import pytest

jsonschema = pytest.importorskip("jsonschema")

from egc128.cli import main

TV1_KEY = "00000000000000000000000000000000"
TV1_CT = "054e2db44cd3907d7c814c56070da703"


def _schema():
    path = resources.files("egc128") / "data" / "report_schema.json"
    return json.loads(path.read_text())


def _find_report(out_dir):
    reports = sorted(out_dir.rglob("report.json"))
    assert reports, f"no report under {out_dir}"
    return json.loads(reports[-1].read_text())


def test_encrypt_prints_vector(capsys):
    assert main(["encrypt", "--key", TV1_KEY, "--pt", TV1_KEY]) == 0
    assert capsys.readouterr().out.strip() == TV1_CT


def test_decrypt_inverts(capsys):
    assert main(["decrypt", "--key", TV1_KEY, "--ct", TV1_CT]) == 0
    assert capsys.readouterr().out.strip() == TV1_KEY


def test_malformed_hex_is_usage_error(capsys):
    assert main(["encrypt", "--key", "xyz", "--pt", TV1_KEY]) == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_vectors_pass(tmp_path, capsys):
    assert main(["vectors", "--out", str(tmp_path)]) == 0
    assert "10/10 passed" in capsys.readouterr().out


def test_vectors_detect_corruption(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("tv,%s,%s,%s\n" % (TV1_KEY, TV1_KEY, "0" * 32))
    assert main(["vectors", "--file", str(bad), "--out", str(tmp_path)]) == 1
    assert "0/1 passed" in capsys.readouterr().out


def test_bounds_report_and_schema(tmp_path, capsys):
    assert main(["bounds", "--mode", "differential", "--rounds", "3",
                 "--out", str(tmp_path)]) == 0
    report = _find_report(tmp_path)
    jsonschema.validate(report, _schema())
    assert report["results"]["min_active"] == [4, 13, 29]
    assert report["manifest"]["subcommand"] == "bounds"


def test_bounds_ten_rounds_contains_355(tmp_path, capsys):
    assert main(["bounds", "--mode", "differential", "--rounds", "10",
                 "--out", str(tmp_path)]) == 0
    report = _find_report(tmp_path)
    assert 355 in report["results"]["min_active"]


def test_graph_report_and_edges(tmp_path, capsys):
    assert main(["graph", "--variant", "baseline", "--out", str(tmp_path)]) == 0
    report = _find_report(tmp_path)
    jsonschema.validate(report, _schema())
    assert abs(report["results"]["spectral_gap"] - 0.152) < 1e-3
    edge_files = list(tmp_path.rglob("edges.txt"))
    assert edge_files
    lines = edge_files[0].read_text().strip().splitlines()
    assert len(lines) == 128        # 64 ring + 32 + 32 chord edges, collapsed


def test_degree_subcommand(tmp_path, capsys):
    assert main(["degree", "--width", "12", "--rounds", "3",
                 "--out", str(tmp_path)]) == 0
    report = _find_report(tmp_path)
    assert report["results"]["degrees"] == [3, 7, 10]


def test_rule_search_subcommand(tmp_path, capsys):
    assert main(["rule-search", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "4158" in out
    report = _find_report(tmp_path)
    assert report["results"]["count_satisfying"] == 4158
    assert "036f" in report["results"]["minimizers"]


def test_single_layer_subcommand(tmp_path, capsys):
    assert main(["single-layer", "--width", "16", "--out", str(tmp_path)]) == 0
    report = _find_report(tmp_path)
    assert abs(report["results"]["min_weight_bits"] - 3.415) < 1e-3


def test_single_layer_full_scans_every_difference(tmp_path, capsys):
    # Width 21 is above the default size limit, so only --full scans all
    # 2^21 - 1 differences; the Hamming-restricted default finds the same minimum.
    assert main(["single-layer", "--width", "21", "--full", "--out", str(tmp_path / "full")]) == 0
    full = _find_report(tmp_path / "full")["results"]
    assert full["restricted_to_hamming"] is None
    assert full["n_deltas_examined"] == (1 << 21) - 1
    assert main(["single-layer", "--width", "21", "--out", str(tmp_path / "default")]) == 0
    default = _find_report(tmp_path / "default")["results"]
    assert default["restricted_to_hamming"] == 4
    assert full["min_weight_bits"] == default["min_weight_bits"]


def test_lp_emit_subcommand(tmp_path):
    lp = tmp_path / "m.lp"
    assert main(["lp-emit", "--mode", "differential", "--rounds", "1",
                 "--out-file", str(lp), "--out", str(tmp_path)]) == 0
    assert lp.exists()
    assert "Minimize" in lp.read_text()


def test_avalanche_seed_reproducibility(tmp_path):
    assert main(["avalanche", "--pairs", "4", "--rounds", "8", "--seed", "5",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["avalanche", "--pairs", "4", "--rounds", "8", "--seed", "5",
                 "--out", str(tmp_path / "b")]) == 0
    ra = _find_report(tmp_path / "a")
    rb = _find_report(tmp_path / "b")
    for rep in (ra, rb):
        rep["manifest"].pop("timestamp")
        rep["manifest"].pop("outputs")
    assert ra == rb


def test_zero_scan_single_combo(tmp_path, capsys):
    assert main(["zero-scan", "--delta", "00000001", "--rounds", "3",
                 "--samples", str(1 << 14), "--out", str(tmp_path)]) == 0
    report = _find_report(tmp_path)
    assert report["results"][0]["zero_output_hits"] == 0


def test_zero_scan_requires_args(tmp_path):
    assert main(["zero-scan", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_zero_scan_rejects_nonpositive_samples(tmp_path, capsys, samples):
    assert main(["zero-scan", "--all", "--samples", samples,
                 "--out", str(tmp_path)]) == 2
    assert main(["zero-scan", "--delta", "00000001", "--rounds", "2",
                 "--samples", samples, "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.rglob("report.json"))
    assert "samples" in capsys.readouterr().err


def test_related_key_subcommand(tmp_path, capsys):
    assert main(["related-key", "--diffs", "200", "--out", str(tmp_path)]) == 0
    report = _find_report(tmp_path)
    assert report["results"]["total_zero_count"] == 0


def test_coverage_subcommand(tmp_path):
    assert main(["coverage", "--pairs", "500", "--checkpoints", "10,20",
                 "--out", str(tmp_path)]) == 0
    report = _find_report(tmp_path)
    assert report["results"]["never_active_counts"][-1] == 0


@pytest.mark.parametrize("checkpoints", ["25", "10,21", "-1"])
def test_coverage_rejects_checkpoints_outside_schedule(tmp_path, capsys, checkpoints):
    assert main(["coverage", "--pairs", "500", "--checkpoints", checkpoints,
                 "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.rglob("report.json"))
    assert "checkpoints" in capsys.readouterr().err


def test_subspace_rejects_zero_trials(tmp_path, capsys):
    assert main(["subspace", "--dims", "2,4", "--trials", "0",
                 "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.rglob("report.json"))
    assert "trials" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "-64"])
def test_diff_empirical_rejects_nonpositive_samples(tmp_path, capsys, samples):
    assert main(["diff-empirical", "--delta", "0" * 31 + "1", "--rounds", "3",
                 "--samples", samples, "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.rglob("report.json"))
    assert "samples must be >= 1" in capsys.readouterr().err


def test_subspace_subcommand(tmp_path):
    assert main(["subspace", "--dims", "2,4", "--trials", "10",
                 "--out", str(tmp_path)]) == 0
    report = _find_report(tmp_path)
    assert report["results"]["invariants_found"] == 0


def test_nist_gen_subcommand(tmp_path, capsys):
    target = tmp_path / "bits.txt"
    assert main(["nist-gen", "--mode", "counter", "--bits", "256",
                 "--key", TV1_KEY, "--out-file", str(target),
                 "--out", str(tmp_path)]) == 0
    assert len(target.read_text()) == 256


def test_bic_subcommand(tmp_path):
    assert main(["bic", "--samples", "1000", "--out", str(tmp_path)]) == 0
    report = _find_report(tmp_path)
    assert report["results"]["max_abs_correlation"] < 0.25


def test_sac_subcommand_csv(tmp_path):
    assert main(["sac", "--samples", "128", "--format", "csv",
                 "--out", str(tmp_path)]) == 0
    assert list(tmp_path.rglob("results.csv"))


def test_diff_empirical_subcommand(tmp_path):
    assert main(["diff-empirical", "--delta", "0" * 31 + "1", "--rounds", "3",
                 "--samples", "2000", "--out", str(tmp_path)]) == 0
    report = _find_report(tmp_path)
    assert report["results"]["weight_bits"] > 2.0


@pytest.mark.parametrize("argv", [
    ["single-layer", "--width", "0"],
    ["single-layer", "--width", "3"],
    ["single-layer", "--width", "8", "--offsets", "1,1,2"],
    ["single-layer", "--width", "32", "--max-hamming", "0"],
    ["bounds", "--mode", "differential", "--rounds", "0"],
    ["bounds", "--mode", "linear", "--rounds=-2"],
    ["zero-scan", "--all", "--exhaustive"],
    ["zero-scan", "--all", "--delta", "00000001"],
    ["zero-scan", "--all", "--rounds", "3"],
    # Paths the OS refuses: {tmp} is the test directory, {tmp}/plain a file in it.
    ["vectors", "--file", "{tmp}"],
    ["nist-gen", "--bits", "128", "--key", "0" * 32, "--out-file", "{tmp}"],
    ["lp-emit", "--mode", "differential", "--rounds", "1", "--n", "16", "--out-file", "{tmp}"],
    ["avalanche", "--pairs", "1", "--rounds", "1", "--out", "{tmp}/plain/x"],
])
def test_bad_input_exits_2_without_report(tmp_path, capsys, argv):
    (tmp_path / "plain").write_text("")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path)]
    assert main(argv) == 2
    assert not list(tmp_path.rglob("report.json"))
    assert capsys.readouterr().err.startswith("error: ")


# Every report-writing subcommand at a small size with seed 0: the run
# directory and the SHA-256 of report.json without its timestamp, its `outputs` list and the
# `path` results that point into the temporary directory.
GOLDEN_REPORTS = {
    "vectors": (["vectors"], "fc630d234b1e7fbe",
                "be39c087c69d22f84941dc02582344b4af47b2fac93b9fea470c9e7d82d82334"),
    "rule-search": (["rule-search"], "774f4ac51db23f9f",
                    "0cd914a26e29df88498bab31ede787ecfb897d51e70aebfeab3610b78854f047"),
    "degree": (["degree", "--width", "8", "--rounds", "3"], "72c4c7104fcadeee",
               "a79148906aeb4125cfe3f9568b804377bf63fbc3551db4ec1d4bd244ccbd3400"),
    "graph": (["graph", "--variant", "random3regular", "--n", "32", "--graph-seed", "3"],
              "ea9e05156596e282",
              "f31eda89fdc931981b1f15abb2c5e1d53e0a9b2c50108ab6df3aaa95bd1d794e"),
    "bounds": (["bounds", "--mode", "linear", "--rounds", "4", "--variant", "poor_expander",
                "--transpose"], "d9cf6cf276933b67",
               "8d704e17659287c700e2ef380ac5c8c245f15e13b52e500cd9d76e69dadaf83d"),
    "lp-emit": (["lp-emit", "--mode", "differential", "--rounds", "2", "--n", "16"],
                "668fb45a1268a50b",
                "5fe8f3c2ac04b8a6d9802158aec5c981a9e00377afda2431ec9d7fb4a77ec62e"),
    "single-layer": (["single-layer", "--width", "12", "--offsets=-1,1,5"], "acffdc59427b1642",
                     "5eab5425830e7e889a391167989581fd8be94b8a10384f53a04f287039384230"),
    "avalanche": (["avalanche", "--pairs", "4", "--rounds", "6"], "028791ae58bdd276",
                  "ce05b0b3eddbd87a00c230ee73e17ba1e67841c15de2ee1c4dae9198fbdcbdeb"),
    "sac": (["sac", "--samples", "128", "--format", "csv"], "b479ac3a8f58023e",
            "e59661c5a38dc958ca843cfd4bb9e6a6a496b0b1b2da0c7775963b9bbca5305f"),
    "bic": (["bic", "--samples", "1000"], "836fbc54e0676ac1",
            "623bb0e7b140646bb3ec2dfbdaac8166a708a351bb86f02ea4966a9ac856174f"),
    "diff-empirical": (["diff-empirical", "--delta", "0" * 31 + "1", "--rounds", "3",
                        "--samples", "512"], "5f84ec4579d18d7a",
                       "390227991cbbbac770f5a75d3c82e37ba3e5cc201b245683aa4d9bad5ce10c95"),
    "related-key": (["related-key", "--diffs", "200"], "2bb43f05c11652c9",
                    "44a72889a10622c6581997bb22bef2d397c1a42bd8f905b1ee28e429d7a3f22c"),
    "subspace": (["subspace", "--dims", "2,4", "--trials", "10"], "c3332ab7fe8afcd3",
                 "9ba1b4042c29911565d4d276f6ccd5e508ea00c51458fed21838eeae22db97a9"),
    "zero-scan": (["zero-scan", "--delta", "00000001", "--rounds", "3", "--samples", "16384"],
                  "649b65df7551238e",
                  "c6b44be1beb6060c21d60050eb80bc6b375b3937f54251cc55298c6cf693850e"),
    "zero-scan-all": (["zero-scan", "--all", "--samples", "4096", "--threads", "2"],
                      "a07323f043779534",
                      "a609bac2cb4c490b927346a78c75fff8900f0237aadf6d37468b9b561f756e90"),
    "coverage": (["coverage", "--pairs", "500", "--checkpoints", "5,10"], "1a72b65b1e2f573c",
                 "bd73da0e2c8dc612581e412e77a6d4b8d35556ac49fdfc2cdf3b89feb4fa2aec"),
    "nist-gen": (["nist-gen", "--mode", "nonce_counter", "--bits", "1024", "--key", TV1_KEY,
                  "--out-file", "{tmp}/bits.bin", "--binary"], "7b18dfdaed4c2967",
                 "ac78e6f3395f64a21ef9977d7b2d3f4457aae130de0445a2092a2af9735083a5"),
}


@pytest.mark.parametrize("name", GOLDEN_REPORTS)
def test_golden_report(tmp_path, capsys, name):
    argv, run_dir, digest = GOLDEN_REPORTS[name]
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert main(argv + ["--seed", "0", "--out", str(tmp_path / "out")]) == 0
    (path,) = (tmp_path / "out").rglob("report.json")
    assert path.parent.name == run_dir
    report = json.loads(path.read_text())
    del report["manifest"]["timestamp"], report["manifest"]["outputs"]
    if name in ("lp-emit", "nist-gen"):
        del report["results"]["path"]
    blob = json.dumps(report, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest
