"""End-to-end runs of the console entry point through main(argv)."""

import csv

import numpy as np
import pytest

from catenc import encoders as enc_mod
from catenc.cli import main
from catenc.data import fit_preprocessor, impute, infer_schema, load_csv


@pytest.fixture
def city_csv(tmp_path):
    path = tmp_path / "cities.csv"
    path.write_text(
        "city,y\n"
        "paris,1.0\n"
        "rome,2.0\n"
        "paris,3.0\n"
        "kyoto,4.0\n"
        "rome,5.0\n"
    )
    return path


@pytest.fixture
def bench_config(tmp_path):
    rng = np.random.default_rng(0)
    rows = "".join(
        f"{['a', 'b', 'c'][int(rng.integers(0, 3))]},{float(rng.normal())!r}\n"
        for _ in range(40)
    )
    (tmp_path / "toy.csv").write_text("g,y\n" + rows)
    (tmp_path / "toy.schema").write_text("g = categorical\ny = numeric\ntarget = y\n")
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "[datasets]\ntoy = toy.csv toy.schema\n"
        "[encoders]\nonehot\nmean\n"
        "[models]\ntree\n"
        "[run]\nseeds = 0 1\nout = results\n"
    )
    return cfg


def test_no_command_prints_usage_and_exits_2(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_encode_writes_level_codes(tmp_path, city_csv, capsys):
    rc = main(
        [
            "encode",
            "--encoder", "onehot",
            "--input", str(city_csv),
            "--column", "city",
            "--target", "y",
            "--out", str(tmp_path / "enc"),
        ]
    )
    assert rc == 0
    out_path = tmp_path / "enc" / "city_onehot.csv"
    assert out_path.exists()
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["level", "c1", "c2", "c3"]
    assert [r[0] for r in rows[1:]] == ["paris", "rome", "kyoto"]
    assert "3 level codes" in capsys.readouterr().out


def test_encode_target_family_uses_target(tmp_path, city_csv):
    rc = main(
        [
            "encode",
            "--encoder", "mean",
            "--input", str(city_csv),
            "--column", "city",
            "--target", "y",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    with open(tmp_path / "city_mean.csv", newline="") as fh:
        got = {r["level"]: float(r["c1"]) for r in csv.DictReader(fh)}
    assert got == {"paris": 2.0, "rome": 3.5, "kyoto": 4.0}


def test_encode_fills_missing_cells_with_the_table_mode(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("city,y\na,1\n,2\nb,3\n")
    rc = main(
        ["encode", "--encoder", "count", "--input", str(path), "--column", "city", "--target", "y",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    with open(tmp_path / "city_count.csv", newline="") as fh:
        got = {r["level"]: float(r["c1"]) for r in csv.DictReader(fh)}
    table = load_csv(str(path), infer_schema(str(path), "y"), "y")
    filled = impute(fit_preprocessor(table), table).column("city")
    want = enc_mod.fit(enc_mod.EncoderSpec("count"), filled)
    assert got == dict(zip(want.levels, want.codes[:, 0].tolist())) == {"a": 2.0, "b": 1.0}


def test_encode_ignores_an_all_blank_other_column(tmp_path, capsys):
    path = tmp_path / "notes.csv"
    path.write_text("city,notes,y\na,,1\nb,,2\na,,3\n")
    rc = main(
        ["encode", "--encoder", "onehot", "--input", str(path), "--column", "city", "--target", "y",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    with open(tmp_path / "city_onehot.csv", newline="") as fh:
        assert [r["level"] for r in csv.DictReader(fh)] == ["a", "b"]
    assert "2 level codes" in capsys.readouterr().out


def test_encode_rejects_numeric_column(tmp_path, city_csv, capsys):
    rc = main(
        [
            "encode",
            "--encoder", "onehot",
            "--input", str(city_csv),
            "--column", "y",
            "--target", "y",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 1
    assert "numeric" in capsys.readouterr().err


def test_encode_missing_file_is_diagnostic_not_traceback(tmp_path, capsys):
    rc = main(
        [
            "encode",
            "--encoder", "onehot",
            "--input", str(tmp_path / "absent.csv"),
            "--column", "c",
            "--target", "y",
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_encode_empty_file_is_diagnostic_not_traceback(tmp_path, capsys):
    (tmp_path / "empty.csv").write_text("")
    rc = main(["encode", "--encoder", "onehot", "--input", str(tmp_path / "empty.csv"), "--column", "c",
               "--target", "y"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_writes_cells_and_summary(tmp_path, capsys):
    rc = main(
        [
            "sweep",
            "--problem", "regression",
            "--encoder", "onehot",
            "--model", "ridge",
            "--aspl", "5", "10",
            "--seeds", "2",
            "--test-size", "100",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    cells = tmp_path / "sweep_regression_onehot_ridge.csv"
    summary = tmp_path / "sweep_regression_onehot_ridge_summary.csv"
    assert cells.exists() and summary.exists()
    # 2 aspl x 2 seeds x (onehot + truth)
    assert len(cells.read_text().splitlines()) == 8 + 1


def test_sweep_model_mismatch_exits_1(tmp_path, capsys):
    rc = main(
        [
            "sweep",
            "--problem", "classification",
            "--encoder", "onehot",
            "--model", "ridge",
            "--aspl", "5",
            "--seeds", "1",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 1
    assert "regression-only" in capsys.readouterr().err


def test_verify_all_suites_pass(tmp_path, capsys):
    rc = main(["verify", "--suite", "all", "--trials", "10", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "checks passed" in out
    assert (tmp_path / "verify_report.csv").exists()
    # every printed row carries its deviation for auditability
    assert out.count("deviation=") >= 10 + 11 + 10


def test_verify_single_suite(capsys):
    rc = main(["verify", "--suite", "split-count"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "11/11 checks passed" in out


def test_bench_end_to_end(tmp_path, bench_config, capsys):
    rc = main(["bench", "--config", str(bench_config), "--no-timing"])
    assert rc == 0
    out_dir = tmp_path / "results"
    for name in ("records.csv", "rank_report.csv", "time_report.csv", "summary.txt"):
        assert (out_dir / name).exists()
    assert "scored 4 cells" in capsys.readouterr().out


def test_bench_out_override(tmp_path, bench_config):
    rc = main(["bench", "--config", str(bench_config), "--out", str(tmp_path / "elsewhere")])
    assert rc == 0
    assert (tmp_path / "elsewhere" / "records.csv").exists()


@pytest.mark.parametrize("models,scored,failed,want_rc", [("logistic", 0, 4, 1), ("tree\nlogistic", 4, 4, 0)])
def test_bench_exits_1_only_when_every_cell_failed(tmp_path, bench_config, capsys, models, scored, failed, want_rc):
    # logistic is classification-only, so it fails on every cell of the toy regression table
    cfg = tmp_path / "failing.cfg"
    cfg.write_text(bench_config.read_text().replace("[models]\ntree\n", f"[models]\n{models}\n"))
    assert main(["bench", "--config", str(cfg), "--no-timing"]) == want_rc
    assert f"scored {scored} cells, {failed} failed" in capsys.readouterr().out


def test_bench_bad_config_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[models]\nquantum\n")
    assert main(["bench", "--config", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_guide_direct_query(capsys):
    rc = main(["guide", "--model-family", "tree", "--min-aspl", "12"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "minhash" in out
    assert "why:" in out


def test_guide_measures_table(city_csv, capsys):
    rc = main(
        [
            "guide",
            "--model-family", "ati",
            "--input", str(city_csv),
            "--target", "y",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "measured minASPL = 1.67" in out
    assert "glmm" in out


def test_guide_other_family(capsys):
    rc = main(["guide", "--model-family", "other", "--min-aspl", "400"])
    assert rc == 0
    assert "no recommendation" in capsys.readouterr().out


def test_report_reaggregates(tmp_path, bench_config, capsys):
    main(["bench", "--config", str(bench_config), "--no-timing"])
    records = tmp_path / "results" / "records.csv"
    info = tmp_path / "results" / "dataset_info.csv"
    rc = main(
        [
            "report",
            "--records", str(records),
            "--dataset-info", str(info),
            "--out", str(tmp_path / "re"),
        ]
    )
    assert rc == 0
    assert (tmp_path / "re" / "rank_report.csv").exists()
    out = capsys.readouterr().out
    assert "encoder ranking" in out
    # toy dataset has 40 rows / 3 levels: insufficient bucket
    assert "insufficient" in out
