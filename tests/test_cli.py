"""CLI: subcommand behaviour, exit codes, report schema."""

import csv
import hashlib
import json
from importlib import resources

import pytest

jsonschema = pytest.importorskip("jsonschema")

from egc128 import harness
from egc128.cli import main
from egc128.vectors import load_vectors

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


@pytest.mark.parametrize("command", ["avalanche", "bic", "graph", "vectors"])
def test_threads_is_only_accepted_where_it_is_used(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--threads", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv", [["degree", "--width", "12", "--rounds", "3"],
                                  ["single-layer", "--width", "12", "--max-hamming", "2"]])
def test_offsets_starting_with_minus_parse_in_both_forms(tmp_path, capsys, argv):
    reports = []
    for i, form in enumerate((["--offsets", "-1,1,5"], ["--offsets=-1,1,5"])):
        assert main(argv + form + ["--out", str(tmp_path / str(i))]) == 0
        reports.append(_find_report(tmp_path / str(i)))
    spaced, attached = reports
    assert spaced["manifest"]["parameters"]["offsets"] == [-1, 1, 5]
    assert spaced["manifest"]["parameters"] == attached["manifest"]["parameters"]
    assert spaced["results"] == attached["results"]


@pytest.mark.parametrize("offsets", [["-1,1"], ["-1,x,5"], ["-1,1,5,7"], ["--width", "5"], []])
def test_malformed_offsets_exit_2(tmp_path, capsys, offsets):
    with pytest.raises(SystemExit) as exc:
        main(["degree", "--out", str(tmp_path), "--offsets"] + offsets)
    assert exc.value.code == 2
    assert "--offsets" in capsys.readouterr().err
    assert not list(tmp_path.rglob("report.json"))


@pytest.mark.parametrize("command", ["degree", "single-layer"])
@pytest.mark.parametrize("width, offsets, g", [(16, "2,4,6", 2), (64, "-28,-12,18", 2),
                                               (12, "3,6,-3", 3)])
def test_disconnected_offsets_exit_2_naming_the_gcd(tmp_path, capsys, command, width,
                                                    offsets, g):
    # A common divisor of the offsets and the width splits the interaction
    # graph into g independent layers, which no one-layer report describes.
    assert main([command, "--width", str(width), f"--offsets={offsets}",
                 "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.rglob("report.json"))
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"gcd({offsets.replace(',', ', ')}, {width}) = {g}" in err


@pytest.mark.parametrize("budget", ["2", "0", "-1"])
def test_rule_search_empty_selection_names_budget(tmp_path, capsys, budget):
    # No balanced, nonlinearity-4, degree-3 function has at most 2 ANF terms.
    assert main(["rule-search", f"--max-anf-terms={budget}", "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.rglob("report.json"))
    assert f"at most {budget} ANF terms" in capsys.readouterr().err


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


@pytest.mark.parametrize("first, second", [
    (["bounds", "--mode", "differential", "--rounds", "2", "--variant", "random3regular",
      "--n", "16", "--graph-seed", "1"], ["--graph-seed", "2"]),
    (["lp-emit", "--mode", "linear", "--rounds", "1", "--variant", "random3regular",
      "--n", "16", "--graph-seed", "1"], ["--graph-seed", "2"]),
    (["single-layer", "--width", "10"], ["--full"]),
    (["nist-gen", "--bits", "128", "--key", TV1_KEY, "--out-file", "{tmp}/bits.txt"],
     ["--key", "0" * 31 + "1"]),
    (["nist-gen", "--bits", "128", "--key", TV1_KEY, "--out-file", "{tmp}/a.txt"],
     ["--out-file", "{tmp}/b.txt"]),
    (["lp-emit", "--mode", "linear", "--rounds", "1", "--n", "8", "--out-file", "{tmp}/a.lp"],
     ["--out-file", "{tmp}/b.lp"]),
], ids=["bounds", "lp-emit", "single-layer", "nist-gen", "nist-gen-out-file",
        "lp-emit-out-file"])
def test_runs_with_different_inputs_keep_separate_reports(tmp_path, capsys, first, second):
    first, second = ([a.replace("{tmp}", str(tmp_path)) for a in argv] for argv in (first, second))
    out = ["--out", str(tmp_path / "out")]
    assert main(first + out) == 0
    assert main(first + second + out) == 0
    assert len(list((tmp_path / "out").rglob("report.json"))) == 2


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


def test_exhaustive_zero_scan_leaves_samples_out_of_manifest(tmp_path, capsys, monkeypatch):
    # An exhaustive scan sweeps all 2^32 plaintexts whatever --samples
    # says, so two scans that differ only in --samples share one report
    # directory.  The scan is stubbed: a real one takes about 40 s.
    calls = []

    def scan(delta, rounds, samples, cfg, exhaustive=False):
        calls.append((delta.hex(), rounds, exhaustive))
        return harness.ZeroDiffReport(delta.hex(), rounds, 1 << 32, "exhaustive", 0, 3, "00010002")

    monkeypatch.setattr(harness, "reduced_zero_diff_scan", scan)
    for samples in ("64", "4096"):
        assert main(["zero-scan", "--delta", "00000001", "--rounds", "3", "--exhaustive",
                     "--samples", samples, "--out", str(tmp_path)]) == 0
    assert calls == [("00000001", 3, True)] * 2
    (path,) = tmp_path.rglob("report.json")
    assert json.loads(path.read_text())["manifest"]["parameters"] == {
        "delta": "00000001", "rounds": 3, "exhaustive": True}


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


@pytest.mark.parametrize("checkpoints", ["25", "10,21", "-1", "5,5"])
def test_coverage_rejects_checkpoints_outside_schedule(tmp_path, capsys, checkpoints):
    assert main(["coverage", "--pairs", "500", "--checkpoints", checkpoints,
                 "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.rglob("report.json"))
    assert "checkpoints" in capsys.readouterr().err


@pytest.mark.parametrize("argv, rounds", [
    (["avalanche", "--pairs", "2"], -1),
    (["avalanche", "--pairs", "2"], 21),
    (["diff-empirical", "--delta", "0" * 31 + "1", "--samples", "64"], 21),
])
def test_round_count_outside_schedule_names_value_and_range(tmp_path, capsys, argv, rounds):
    assert main(argv + [f"--rounds={rounds}", "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.rglob("report.json"))
    assert f"error: rounds {rounds} outside 0..20" in capsys.readouterr().err


def test_subspace_rejects_zero_trials(tmp_path, capsys):
    assert main(["subspace", "--dims", "2,4", "--trials", "0",
                 "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.rglob("report.json"))
    assert "trials" in capsys.readouterr().err


def test_subspace_rejects_repeated_dims(tmp_path, capsys):
    assert main(["subspace", "--dims", "2,2", "--trials", "5",
                 "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.rglob("report.json"))
    assert "repeat" in capsys.readouterr().err


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
    # Nothing to verify would print a vacuous "0/0 passed".
    ["vectors", "--file", "/dev/null"],
    ["vectors", "--file", "{tmp}/plain"],
    ["vectors", "--file", "{tmp}/comments.csv"],
    # A worker count below one.
    ["sac", "--samples", "128", "--threads", "0"],
    ["sac", "--samples", "128", "--threads=-2"],
    ["zero-scan", "--all", "--samples", "64", "--threads", "0"],
    ["zero-scan", "--delta", "00000001", "--rounds", "2", "--samples", "64", "--threads", "0"],
    # Hex that Python's int() would take: a digit separator, a sign.
    ["zero-scan", "--delta", "0000_001", "--rounds", "2", "--samples", "64"],
    ["encrypt", "--key", "+" + TV1_KEY[1:], "--pt", TV1_KEY],
    # Vector rows with 3 fields, 5 fields and a field that is not hex.
    ["vectors", "--file", "{tmp}/short.csv"],
    ["vectors", "--file", "{tmp}/long.csv"],
    ["vectors", "--file", "{tmp}/nonhex.csv"],
])
def test_bad_input_exits_2_without_report(tmp_path, capsys, argv):
    (tmp_path / "plain").write_text("")
    (tmp_path / "comments.csv").write_text("# name,key_hex,pt_hex,ct_hex\n\n")
    for name, row in BAD_VECTOR_ROWS.items():
        (tmp_path / name).write_text(row + "\n")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path)]
    assert main(argv) == 2
    assert not list(tmp_path.rglob("report.json"))
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if "--file" in argv:
        assert argv[argv.index("--file") + 1] in err


BAD_VECTOR_ROWS = {
    "short.csv": f"tv,{TV1_KEY},{TV1_KEY}",
    "long.csv": f"tv,{TV1_KEY},{TV1_KEY},{TV1_KEY},{TV1_KEY}",
    "nonhex.csv": f"tv,{TV1_KEY},{'zz' * 16},{TV1_KEY}",
}


@pytest.mark.parametrize("name", BAD_VECTOR_ROWS)
def test_bad_vector_row_names_file_and_line(tmp_path, name):
    path = tmp_path / name
    path.write_text(f"# comment\ntv0,{TV1_KEY},{TV1_KEY},{TV1_KEY}\n{BAD_VECTOR_ROWS[name]}\n")
    with pytest.raises(ValueError, match="fields|hex") as exc:
        load_vectors(path)
    assert str(exc.value).startswith(f"{path}, line 3: ")


# Every report-writing subcommand at a small size with seed 0, run from the
# temporary directory: the run directory and the SHA-256 of report.json
# without its timestamp, its `outputs` list and the lp-emit `path` result,
# which points into the run directory under the temporary one.
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
                "--transpose"], "d974acfb4c563f6e",
               "a5e9ef18ebfe3684802ef12193c1f4468a71f16556f497253eb10dc4af20de57"),
    "lp-emit": (["lp-emit", "--mode", "differential", "--rounds", "2", "--n", "16"],
                "7d52cc1bb699888a",
                "71d53a799d3a665f36be051a929f61f79f3d2188d2efb57764f50b67efbfc8ff"),
    "single-layer": (["single-layer", "--width", "12", "--offsets=-1,1,5"], "72514ba0342cf078",
                     "b61617481ea4448a3849f7bf8434fa05c28096ea851218f50808248e437fd6d8"),
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
                  "--out-file", "bits.bin", "--binary"], "f771c655a54d295f",
                 "b874d7d2758b82fa4e80c282db399e3aa19fae960553a0ed01d2be8bc6af90cf"),
}


def _reject_constant(token):
    # NaN, Infinity and -Infinity are not JSON (RFC 8259).
    raise ValueError(f"{token} is not JSON")


def _run_golden(tmp_path, monkeypatch, name, *extra):
    """Run the golden command `name` and check its report's directory and
    digest; returns the report and its run directory."""
    argv, run_dir, digest = GOLDEN_REPORTS[name]
    monkeypatch.chdir(tmp_path)                # nist-gen writes its relative --out-file here
    assert main(argv + [*extra, "--seed", "0", "--out", str(tmp_path / "out")]) == 0
    (path,) = (tmp_path / "out").rglob("report.json")
    assert path.parent.name == run_dir
    report, stable = (json.loads(path.read_text(), parse_constant=_reject_constant)
                      for _ in range(2))
    del stable["manifest"]["timestamp"], stable["manifest"]["outputs"]
    if name == "lp-emit":
        del stable["results"]["path"]
    blob = json.dumps(stable, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest
    return report, path.parent


@pytest.mark.parametrize("name", GOLDEN_REPORTS)
def test_golden_report(tmp_path, capsys, monkeypatch, name):
    _run_golden(tmp_path, monkeypatch, name)


@pytest.mark.parametrize("name, option, spelling", [
    ("diff-empirical", "--delta", "0x" + "0" * 31 + "1"),
    ("zero-scan", "--delta", "0X00000001"),
    ("nist-gen", "--key", "0x" + TV1_KEY),
])
def test_hex_spellings_share_one_run_directory(tmp_path, capsys, monkeypatch, name, option,
                                               spelling):
    # The manifest records the parsed value's canonical hex, so another
    # spelling of the golden input (the later option wins) lands in the
    # golden run directory with the golden report.
    _run_golden(tmp_path, monkeypatch, name, option, spelling)


@pytest.mark.parametrize("name, option, value", [
    ("subspace", "--dims", "4,2"),
    ("coverage", "--checkpoints", "10,5"),
    ("bounds", "--graph-seed", "5"),
    ("lp-emit", "--graph-seed", "5"),
])
def test_list_order_and_unread_seed_share_one_run_directory(tmp_path, capsys, monkeypatch,
                                                            name, option, value):
    # The manifest records a list input in the order the analysis reads it
    # (sorted), and a graph seed only for the random variant, so another
    # order, or a seed for a seedless variant, lands in the golden run
    # directory with the golden report.
    _run_golden(tmp_path, monkeypatch, name, option, value)


def test_graph_seed_of_seedless_variant_shares_one_run_directory(tmp_path, capsys):
    for seed in ([], ["--graph-seed", "5"]):
        assert main(["graph", "--n", "16", "--out", str(tmp_path), *seed]) == 0
    # The baseline variant ignores the seed, so both runs share one directory;
    # the golden graph report keeps the random variant's seed.
    assert len(list(tmp_path.rglob("report.json"))) == 1


@pytest.mark.parametrize("name", GOLDEN_REPORTS)
def test_csv_holds_every_result_field(tmp_path, capsys, monkeypatch, name):
    # A list of records is one row per record; any other result is one
    # key,value row per field.  Every value is written as JSON.
    report, run_dir = _run_golden(tmp_path, monkeypatch, name, "--format", "csv")
    results = report["results"]
    # The SAC matrix is one field of about 160 KB, over the csv module's
    # default limit of 128 KiB.
    limit = csv.field_size_limit(1 << 22)
    try:
        with open(run_dir / "results.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
    finally:
        csv.field_size_limit(limit)
    if isinstance(results, list):
        assert [dict(zip(header, map(json.loads, row))) for row in rows] == results
    else:
        assert header == ["key", "value"]
        assert {k: json.loads(v) for k, v in rows} == results
