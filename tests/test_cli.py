"""CLI: subcommand behaviour, exit codes, report schema."""

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


def test_bench_subcommand(tmp_path, capsys):
    assert main(["bench", "--blocks", "50", "--out", str(tmp_path)]) == 0
    report = _find_report(tmp_path)
    assert report["results"]["encrypt_blocks_per_sec"] > 0


def test_bench_directions_roughly_symmetric():
    from egc128.cli import _bench

    rep = _bench(500)
    ratio = rep["decrypt_blocks_per_sec"] / rep["encrypt_blocks_per_sec"]
    assert 0.5 < ratio < 2.0
