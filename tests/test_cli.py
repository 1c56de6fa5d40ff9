"""End-to-end runs of the console entry point through main(argv)."""

import csv
import os
import subprocess
import sys

import numpy as np
import pytest

from catenc import bench as bench_mod
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
    assert capsys.readouterr().err == "error: column 'y' is numeric, nothing to encode\n"


def test_encode_refuses_the_target_column(tmp_path, capsys):
    # a categorical target used to be encoded by its own level means, and written out
    (tmp_path / "t.csv").write_text("city,y\nparis,1\nrome,0\nparis,1\nkyoto,0\n")
    (tmp_path / "t.schema").write_text("city = categorical\ny = categorical\ntarget = y\n")
    out = tmp_path / "enc"
    rc = main(
        ["encode", "--encoder", "mean", "--input", str(tmp_path / "t.csv"), "--schema", str(tmp_path / "t.schema"),
         "--column", "y", "--out", str(out)]
    )
    assert rc == 1
    assert capsys.readouterr().err == "error: column 'y' is the target, nothing to encode\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["encode", "guide"])
def test_missing_target_without_schema_is_an_error_line(city_csv, capsys, command):
    # this used to raise SystemExit, whose message had no "error:" prefix
    args = ["--encoder", "onehot", "--column", "city"] if command == "encode" else ["--model-family", "tree"]
    assert main([command, "--input", str(city_csv), *args]) == 1
    assert capsys.readouterr().err == "error: need --target when --schema is omitted\n"


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


def test_encode_oversized_field_is_diagnostic_not_traceback(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text("c,y\na,1\n" + "b" * (csv.field_size_limit() + 1) + ",2\n")
    rc = main(["encode", "--encoder", "onehot", "--input", str(path), "--column", "c",
               "--target", "y"])
    assert rc == 1
    assert f"error: {path}:3: field larger than field limit" in capsys.readouterr().err


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
            "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: ridge is regression-only\n"
    assert not (tmp_path / "out").exists()


def test_sweep_repeated_aspl_exits_1(tmp_path, capsys):
    rc = main(["sweep", "--problem", "regression", "--encoder", "mean", "--model", "ridge",
               "--aspl", "5", "5", "--seeds", "2", "--out", str(tmp_path)])
    assert rc == 1
    assert "error: aspl_values must be distinct" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--problem", "classification", "--model", "forest", "--encoder", "mean",
          "--aspl", "5", "--seeds", "1", "--seed", "-1"], "base_seed must be non-negative, got -1"),
        (["verify", "--suite", "contiguity", "--seed", "-3"], "seed must be non-negative, got -3"),
        (["verify", "--suite", "onehot-equivalence", "--seed", "-3"], "seed must be non-negative, got -3"),
    ],
    ids=["sweep", "contiguity", "onehot-equivalence"],
)
def test_negative_seed_is_one_error_line_and_no_output(tmp_path, capsys, argv, message):
    out_dir = tmp_path / "out"
    assert main(argv + ["--out", str(out_dir)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"
    assert not out_dir.exists()


def test_verify_all_suites_pass(tmp_path, capsys):
    rc = main(["verify", "--suite", "all", "--trials", "10", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "checks passed" in out
    assert (tmp_path / "verify_report.csv").exists()
    # every printed row carries its deviation for auditability
    assert out.count("deviation=") >= 10 + 11 + 10


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_refuses_fewer_than_one_trial(capsys, trials):
    # no instance would run, and "0/0 checks passed" would read as a pass
    assert main(["verify", "--trials", trials]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: trials must be >= 1\n"


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


def test_a_command_loads_only_the_modules_it_runs(tmp_path, bench_config):
    # a sweep loads neither the grid runner nor the checks, and a one-worker bench
    # loads the grid runner but not its process pool: each is a cold-start cost
    script = (
        "import sys\n"
        "from catenc.cli import main\n"
        "lazy = ('catenc.bench', 'catenc.theory', 'concurrent.futures.process', 'multiprocessing')\n"
        "def loaded():\n"
        "    print('loaded:', *[m for m in lazy if m in sys.modules])\n"
        "loaded()\n"
        "assert main(['sweep', '--problem', 'classification', '--model', 'tree', '--encoder', 'mean',\n"
        "             '--aspl', '5', '--seeds', '1', '--test-size', '20', '--out', sys.argv[1]]) == 0\n"
        "loaded()\n"
        "assert main(['bench', '--config', sys.argv[2], '--workers', '1', '--no-timing']) == 0\n"
        "loaded()\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(bench_mod.__file__))}
    out = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "sweep"), str(bench_config)],
        capture_output=True, text=True, check=True, env=env,
    )
    lines = [line for line in out.stdout.splitlines() if line.startswith("loaded:")]
    assert lines == ["loaded:", "loaded:", "loaded: catenc.bench"]


@pytest.mark.parametrize("models,scored,failed,want_rc", [("logistic", 0, 4, 1), ("tree\nlogistic", 4, 4, 0)])
def test_bench_exits_1_only_when_every_cell_failed(tmp_path, bench_config, capsys, models, scored, failed, want_rc):
    # logistic is classification-only, so it fails on every cell of the toy regression table
    cfg = tmp_path / "failing.cfg"
    cfg.write_text(bench_config.read_text().replace("[models]\ntree\n", f"[models]\n{models}\n"))
    assert main(["bench", "--config", str(cfg), "--no-timing"]) == want_rc
    assert f"scored {scored} cells, {failed} failed" in capsys.readouterr().out


def test_bench_out_of_range_ridge_alphas_fail_their_cells(tmp_path, bench_config, capsys):
    # a negative penalty is refused, so its cells are failures, not scores
    cfg = tmp_path / "alphas.cfg"
    cfg.write_text(bench_config.read_text().replace("[models]\ntree\n", "[models]\ntree\nridge alphas=-50:-40\n"))
    assert main(["bench", "--config", str(cfg), "--no-timing"]) == 0
    assert "scored 4 cells, 4 failed" in capsys.readouterr().out
    with open(tmp_path / "results" / "failures.csv", newline="") as fh:
        failures = list(csv.DictReader(fh))
    assert [f["model"] for f in failures] == ["ridge"] * 4
    assert all("alphas must be finite and >= 0" in f["error"] for f in failures)


def test_bench_unloadable_dataset_is_one_error_line(tmp_path, bench_config, capsys):
    # the schema omits the target's kind: the run stops before any cell
    (tmp_path / "toy.schema").write_text("g = categorical\ntarget = y\n")
    assert main(["bench", "--config", str(bench_config), "--no-timing"]) == 1
    out, err = capsys.readouterr()
    assert "scored" not in out
    assert err.count("error:") == 1 and "toy.schema: target 'y' has no declared kind" in err
    assert not (tmp_path / "results" / "failures.csv").exists()


def test_bench_unloadable_dataset_leaves_no_output_directory(tmp_path, bench_config, capsys):
    (tmp_path / "toy.schema").write_text("g = categorical\ntarget = y\n")
    assert main(["bench", "--config", str(bench_config), "--no-timing"]) == 1
    assert "no declared kind" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


def test_bench_zero_workers_is_refused_before_anything_is_made(tmp_path, bench_config, capsys):
    out = tmp_path / "out"
    assert main(["bench", "--config", str(bench_config), "--workers", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: workers must be >= 1\n"
    assert not out.exists()


def test_bench_unwritable_out_is_refused_before_any_cell(tmp_path, bench_config, capsys, monkeypatch):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    monkeypatch.setattr(bench_mod, "fit_pipeline", lambda *a: pytest.fail("a cell ran"))
    assert main(["bench", "--config", str(bench_config), "--no-timing", "--out", str(taken)]) == 1
    out, err = capsys.readouterr()
    assert "scored" not in out
    assert err.count("error:") == 1 and str(taken) in err
    assert taken.read_text() == "a file, not a directory\n"


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


def test_report_without_a_value_column_exits_1(tmp_path, bench_config, capsys):
    main(["bench", "--config", str(bench_config), "--no-timing"])
    records = tmp_path / "results" / "records.csv"
    with open(records, newline="") as fh:
        rows = [row[:5] + row[6:] for row in csv.reader(fh)]
    with open(records, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    capsys.readouterr()
    assert main(["report", "--records", str(records), "--out", str(tmp_path / "re")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "records.csv: missing column(s) value" in err
    assert "Traceback" not in err


def test_report_without_a_minaspl_column_exits_1(tmp_path, bench_config, capsys):
    main(["bench", "--config", str(bench_config), "--no-timing"])
    info = tmp_path / "results" / "dataset_info.csv"
    info.write_text("dataset\ntoy\n")
    capsys.readouterr()
    rc = main(["report", "--records", str(tmp_path / "results" / "records.csv"),
               "--dataset-info", str(info), "--out", str(tmp_path / "re")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "dataset_info.csv: missing column(s) minaspl" in err


def test_bench_bad_seed_names_its_line(tmp_path, bench_config, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(bench_config.read_text().replace("seeds = 0 1", "seeds = 0 x"))
    assert main(["bench", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:9: bad seeds value '0 x'\n"



def test_bench_repeated_run_key_names_its_line(tmp_path, bench_config, capsys):
    # a second seeds line used to replace the first, so the grid ran fewer seeds than it listed
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(bench_config.read_text() + "seeds = 5\n")
    assert main(["bench", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:11: duplicate run key: seeds\n"
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_sweep_non_finite_sigma_is_one_error_line(tmp_path, capsys, sigma):
    # NaN used to run noise-free (the CSV equal to --sigma 0's) and inf to fail in the ridge CV
    out = tmp_path / "sweep"
    rc = main(["sweep", "--problem", "regression", "--encoder", "mean", "--model", "ridge",
               "--aspl", "5", "--seeds", "1", "--sigma", sigma, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: sigma must be nonnegative and finite, got {sigma}\n"
    assert not out.exists()


def test_guide_nan_min_aspl_exits_1(capsys):
    # NaN used to fall through every cutoff and recommend the "scarce" rule's encoders
    assert main(["guide", "--model-family", "ati", "--min-aspl", "nan"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: min_aspl must be nonnegative\n"
    assert "recommended" not in captured.out


def test_bench_nan_encoder_setting_names_its_line(tmp_path, bench_config, capsys):
    # it used to parse, and every sshrink cell then failed on NaN codes
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(bench_config.read_text().replace("mean\n", "sshrink s2=nan\n"))
    assert main(["bench", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:5: s2 must be positive\n"
    assert not (tmp_path / "results").exists()


def test_a_reader_that_closes_the_pipe_early_gets_no_error_line():
    # 1,500 verify lines are about 130 kB written in 8 kB chunks, more than a
    # pipe holds, so verify is still writing when the reader closes its end
    # after one line, and its next write finds the pipe broken
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(bench_mod.__file__))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "catenc.cli", "verify", "--suite", "onehot-equivalence", "--trials", "1500"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"ok   onehot-equivalence")
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    with proc.stderr:
        assert proc.stderr.read() == b""
