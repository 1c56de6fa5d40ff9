import concurrent.futures
import dataclasses
import math
import os
import re

import numpy as np
import pytest

from catenc import bench
from catenc import models as mod
from catenc.bench import (
    CellFailure,
    ConfigError,
    ExperimentGrid,
    DatasetSpec,
    ModelSpec,
    parse_grid_config,
    rank_encoders,
    read_dataset_info_csv,
    run_and_report,
    run_grid,
    time_report,
    write_dataset_info_csv,
    write_reports,
)
from catenc.data import SchemaError
from catenc.encoders import EncoderSpec
from catenc.metrics import MetricRecord


def write_dataset(tmp_path, name, task, n=60, seed=0):
    """A small CSV + schema pair: one 3-level categorical, one numeric, a target."""
    rng = np.random.default_rng(seed)
    levels = ["lo", "mid", "hi"]
    rows = []
    for _ in range(n):
        k = int(rng.integers(0, 3))
        x = float(rng.normal())
        if task == "regression":
            y = float(k + 0.5 * x + 0.1 * rng.normal())
        else:
            y = float(int(rng.uniform() < (0.2 + 0.3 * k)))
        rows.append((levels[k], x, y))
    csv_path = tmp_path / f"{name}.csv"
    csv_path.write_text(
        "grade,x,y\n" + "".join(f"{g},{x!r},{y!r}\n" for g, x, y in rows)
    )
    schema_path = tmp_path / f"{name}.schema"
    schema_path.write_text("grade = categorical\nx = numeric\ny = numeric\ntarget = y\n")
    return csv_path, schema_path


@pytest.fixture
def config_file(tmp_path):
    write_dataset(tmp_path, "reg", "regression", seed=1)
    write_dataset(tmp_path, "clf", "classification", seed=2)
    path = tmp_path / "grid.cfg"
    path.write_text(
        "# two toy datasets\n"
        "[datasets]\n"
        "reg = reg.csv reg.schema\n"
        "clf = clf.csv clf.schema\n"
        "[encoders]\n"
        "onehot\n"
        "minhash n_components=8 hash_seed=3\n"
        "similarity ngram_range=2:3\n"
        "[models]\n"
        "tree max_depth=4\n"
        "forest n_trees=10\n"
        "[run]\n"
        "seeds = 0 1\n"
        "ratio = 0.75\n"
        "out = results\n"
    )
    return path


class TestConfigParsing:
    def test_full_example(self, config_file, tmp_path):
        grid = parse_grid_config(str(config_file))
        assert [d.name for d in grid.datasets] == ["reg", "clf"]
        assert grid.datasets[0].csv_path == str(tmp_path / "reg.csv")
        assert grid.encoders[0] == EncoderSpec("onehot")
        assert grid.encoders[1].n_components == 8
        assert grid.encoders[1].hash_seed == 3
        assert grid.encoders[2].ngram_range == (2, 3)
        assert grid.models[0] == ModelSpec("tree", params=(("max_depth", 4),))
        assert grid.seeds == (0, 1)
        assert grid.split_ratio == 0.75
        assert grid.out_dir == str(tmp_path / "results")

    def test_boolean_overrides_reach_the_forest(self, tmp_path):
        p = tmp_path / "grid.cfg"
        p.write_text(
            "[datasets]\nd = d.csv d.schema\n[encoders]\nonehot\n[models]\n"
            "forest n_trees=4 bootstrap=False subsample_features=FALSE\n[run]\nseeds = 0\n"
        )
        model = parse_grid_config(str(p)).models[0]
        assert model.kwargs() == {"n_trees": 4, "bootstrap": False, "subsample_features": False}
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(40, 6)), rng.normal(size=40)
        got = mod.fit_model("forest", "regression", x, y, seed=3, **model.kwargs())
        want = mod.fit_forest(
            x, y, "regression", n_trees=4, seed=3, bootstrap=False, subsample_features=False
        )
        for g, w in zip(got.trees, want.trees, strict=True):
            for field in ("feature", "threshold", "left", "value", "n_samples", "roots"):
                np.testing.assert_array_equal(getattr(g, field), getattr(w, field))

    def test_unlimited_depth_tree_grid_scores_its_cells(self, tmp_path):
        write_dataset(tmp_path, "reg", "regression", seed=1)
        p = tmp_path / "grid.cfg"
        p.write_text(
            "[datasets]\nreg = reg.csv reg.schema\n[encoders]\nmean\n[models]\n"
            "tree max_depth=None\nforest max_depth=NONE n_trees=3\n[run]\nseeds = 0 1\n"
        )
        grid = parse_grid_config(str(p))
        assert grid.models[0] == ModelSpec("tree", params=(("max_depth", None),))
        records, failures, _ = run_grid(grid)
        assert failures == []
        assert len(records) == 2 * 2

    def test_mlp_line_scores_its_cells_on_both_tasks(self, tmp_path):
        write_dataset(tmp_path, "reg", "regression", seed=1)
        write_dataset(tmp_path, "clf", "classification", seed=2)
        p = tmp_path / "grid.cfg"
        p.write_text(
            "[datasets]\nreg = reg.csv reg.schema\nclf = clf.csv clf.schema\n[encoders]\nonehot\n"
            "[models]\nmlp hidden=4 epochs=2\n[run]\nseeds = 0\n"
        )
        grid = parse_grid_config(str(p))
        assert grid.models[0] == ModelSpec("mlp", params=(("epochs", 2), ("hidden", 4)))
        records, failures, _ = run_grid(grid)
        assert failures == []
        assert sorted((r.dataset, r.metric) for r in records) == [("clf", "f1"), ("reg", "rmse")]
        assert all(math.isfinite(r.value) for r in records)

    @pytest.mark.parametrize("line", ["tree maxdepth=3", "forest n_trees=5 seed=2", "ridge alpha=1.0"])
    def test_misspelled_model_option_rejected_at_parse_time(self, tmp_path, line):
        p = tmp_path / "bad.cfg"
        p.write_text(f"[datasets]\nd = d.csv d.schema\n[encoders]\nmean\n[models]\n{line}\n")
        key = line.split()[-1].partition("=")[0]
        with pytest.raises(ConfigError, match=rf"bad\.cfg:6: {line.split()[0]} takes no option '{key}'"):
            parse_grid_config(str(p))

    @pytest.mark.parametrize(
        "line, key, value",
        [
            ("forest n_trees=abc", "n_trees", "'abc'"),
            ("forest bootstrap=2", "bootstrap", "2"),
            ("tree max_depth=1.5", "max_depth", "1.5"),
            ("tree impurity=none", "impurity", "None"),
            ("logistic c=true", "c", "True"),
            ("ridge alphas=abc", "alphas", "'abc'"),
        ],
    )
    def test_ill_typed_model_option_rejected_at_parse_time(self, tmp_path, line, key, value):
        p = tmp_path / "bad.cfg"
        p.write_text(f"[datasets]\nd = d.csv d.schema\n[encoders]\nmean\n[models]\n{line}\n")
        with pytest.raises(ConfigError, match=rf"bad\.cfg:6: {line.split()[0]} option {key} must be .*, got {re.escape(value)}"):
            parse_grid_config(str(p))

    def test_well_typed_model_options_parse(self, tmp_path):
        p = tmp_path / "grid.cfg"
        p.write_text(
            "\ufeff[datasets]\nd = d.csv d.schema\n[encoders]\nmean\n[models]\n"
            "tree max_depth=None impurity=gini\nforest bootstrap=false n_trees=3\n"
            "logistic c=1\nridge alphas=1:10\nmlp batch_size=None lr=0.01\n[run]\nseeds = 0\n"
        )
        got = [m.kwargs() for m in parse_grid_config(str(p)).models]
        assert got == [
            {"max_depth": None, "impurity": "gini"},
            {"bootstrap": False, "n_trees": 3},
            {"c": 1},
            {"alphas": (1, 10)},
            {"batch_size": None, "lr": 0.01},
        ]

    @pytest.mark.parametrize(
        "line, key, value",
        [
            ("sshrink s1=abc", "s1", "'abc'"),
            ("minhash hash_seed=abc", "hash_seed", "'abc'"),
            ("minhash n_components=2.5", "n_components", "2.5"),
            ("basen base=2.5", "base", "2.5"),
            ("similarity ngram_range=2", "ngram_range", "2"),
            ("mestimate m=true", "m", "True"),
        ],
    )
    def test_ill_typed_encoder_option_rejected_at_parse_time(self, tmp_path, line, key, value):
        p = tmp_path / "bad.cfg"
        p.write_text(f"[datasets]\nd = d.csv d.schema\n[encoders]\n{line}\n[models]\ntree\n")
        with pytest.raises(ConfigError, match=rf"bad\.cfg:4: {line.split()[0]} option {key} must be .*, got {re.escape(value)}"):
            parse_grid_config(str(p))

    def test_misspelled_encoder_option_rejected_at_parse_time(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[datasets]\nd = d.csv d.schema\n[encoders]\nbasen bse=3\n[models]\ntree\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:4: basen takes no option 'bse'"):
            parse_grid_config(str(p))

    def test_well_typed_encoder_options_parse(self, tmp_path):
        p = tmp_path / "grid.cfg"
        p.write_text(
            "[datasets]\nd = d.csv d.schema\n[encoders]\nminhash n_components=8 hash_seed=3\n"
            "similarity ngram_range=2:3\nsshrink s1=20 s2=2.5\n[models]\ntree\n[run]\nseeds = 0\n"
        )
        assert parse_grid_config(str(p)).encoders == (
            EncoderSpec("minhash", n_components=8, hash_seed=3),
            EncoderSpec("similarity", ngram_range=(2, 3)),
            EncoderSpec("sshrink", s1=20, s2=2.5),
        )

    @pytest.mark.parametrize(
        "encoders, models, seeds, what",
        [
            ("onehot", "tree max_depth=1\ntree max_depth=8", "0", "model name: tree"),
            ("minhash n_components=8\nminhash n_components=16", "tree", "0", "encoder variant: minhash"),
            ("onehot", "tree", "0 1 0", "seed: 0"),
        ],
    )
    def test_repeated_label_rejected(self, tmp_path, encoders, models, seeds, what):
        # repeats would write cells under one label that the reports average together
        p = tmp_path / "bad.cfg"
        p.write_text(
            f"[datasets]\nd = d.csv d.schema\n[encoders]\n{encoders}\n[models]\n{models}\n[run]\nseeds = {seeds}\n"
        )
        with pytest.raises(ConfigError, match=f"duplicate {what}$"):
            parse_grid_config(str(p))

    @pytest.mark.parametrize(
        "datasets, encoders, models, seeds, where",
        [
            ("d = d.csv d.schema\nd = e.csv e.schema", "onehot", "tree", "0", "3: duplicate dataset name: d"),
            ("d = d.csv d.schema", "mean\nonehot\nmean", "tree", "0", "6: duplicate encoder variant: mean"),
            ("d = d.csv d.schema", "onehot", "tree\nridge\ntree", "0", "8: duplicate model name: tree"),
            ("d = d.csv d.schema", "onehot", "tree", "2 0 2", "8: duplicate seed: 2"),
        ],
    )
    def test_repeat_names_the_line_where_it_repeats(self, tmp_path, datasets, encoders, models, seeds, where):
        p = tmp_path / "bad.cfg"
        p.write_text(
            f"[datasets]\n{datasets}\n[encoders]\n{encoders}\n[models]\n{models}\n[run]\nseeds = {seeds}\n"
        )
        with pytest.raises(ConfigError, match=rf"bad\.cfg:{where}$"):
            parse_grid_config(str(p))

    @pytest.mark.parametrize(
        "run, where",
        [
            ("seeds = 0 1\nratio = 0.5\nseeds = 5", "10: duplicate run key: seeds"),
            ("ratio = 0.5\nratio = 0.9", "9: duplicate run key: ratio"),
            ("out = a\nseeds = 0\nout = b", "10: duplicate run key: out"),
        ],
    )
    def test_repeated_run_key_names_the_line_where_it_repeats(self, tmp_path, run, where):
        # the second value used to replace the first without a word
        p = tmp_path / "bad.cfg"
        p.write_text(f"[datasets]\nd = d.csv d.schema\n[encoders]\nonehot\n[models]\ntree\n[run]\n{run}\n")
        with pytest.raises(ConfigError, match=rf"bad\.cfg:{where}$"):
            parse_grid_config(str(p))

    @pytest.mark.parametrize("line", ["seeds = 0 x", "seeds = 1.5", "ratio = abc"])
    def test_bad_run_value_names_file_and_line(self, tmp_path, line):
        p = tmp_path / "bad.cfg"
        p.write_text(f"[datasets]\nd = d.csv d.schema\n[encoders]\nonehot\n[models]\ntree\n[run]\n{line}\n")
        key, _, value = (part.strip() for part in line.partition("="))
        with pytest.raises(ConfigError, match=rf"bad\.cfg:8: bad {key} value '{value}'"):
            parse_grid_config(str(p))

    @pytest.mark.parametrize(
        "text, where",
        [
            ("[encoders]\nmean foo\n", "2: expected key=value, got 'foo'"),
            ("[datasets]\nd d.csv d.schema\n", "2: expected 'name = csv schema'"),
            ("[datasets]\nd = d.csv\n", "2: expected two paths after '='"),
            ("[run]\nspeed = 3\n", "2: unknown run key 'speed'"),
            ("[encoders]\nsimilarity ngram_range=a:b\n", "2: similarity option ngram_range must be tuple[int, int], got 'a:b'"),
        ],
    )
    def test_malformed_line_names_file_and_line(self, tmp_path, text, where):
        p = tmp_path / "bad.cfg"
        p.write_text(text)
        with pytest.raises(ConfigError, match=rf"bad\.cfg:{re.escape(where)}$"):
            parse_grid_config(str(p))

    @pytest.mark.parametrize(
        "line, message",
        [
            ("seeds = 0 -1 -3", r"seeds must be non-negative, got -1, -3"),
            ("ratio = 2", r"split_ratio must be in \(0, 1\), got 2\.0"),
            ("ratio = 0", r"split_ratio must be in \(0, 1\), got 0\.0"),
        ],
    )
    def test_out_of_range_run_value_names_file_and_line(self, tmp_path, line, message):
        # a negative seed used to fail every cell at split time instead
        p = tmp_path / "bad.cfg"
        p.write_text(f"[datasets]\nd = d.csv d.schema\n[encoders]\nonehot\n[models]\ntree\n[run]\n{line}\n")
        with pytest.raises(ConfigError, match=rf"bad\.cfg:8: {message}$"):
            parse_grid_config(str(p))

    def test_negative_seed_rejected_by_the_grid(self):
        with pytest.raises(ConfigError, match="seeds must be non-negative, got -2$"):
            ExperimentGrid(
                datasets=(DatasetSpec("d", "a.csv", "a.schema"),),
                encoders=(EncoderSpec("onehot"),),
                models=(ModelSpec("tree"),),
                seeds=(0, -2),
            )

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[nonsense]\n")
        with pytest.raises(ConfigError, match="unknown section"):
            parse_grid_config(str(p))

    def test_unknown_model_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[models]\ncatboost\n")
        with pytest.raises(ConfigError, match="unknown model"):
            parse_grid_config(str(p))

    def test_unknown_encoder_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(
            "[datasets]\nd = d.csv d.schema\n[encoders]\nfrequency\n"
            "[models]\ntree\n[run]\nseeds = 0\n"
        )
        with pytest.raises(ConfigError):
            parse_grid_config(str(p))

    def test_content_before_section_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("onehot\n[encoders]\n")
        with pytest.raises(ConfigError, match="before any"):
            parse_grid_config(str(p))

    def test_empty_grid_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[run]\nseeds = 0\n")
        with pytest.raises(ConfigError):
            parse_grid_config(str(p))

    def test_duplicate_dataset_names_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            ExperimentGrid(
                datasets=(
                    DatasetSpec("d", "a.csv", "a.schema"),
                    DatasetSpec("d", "b.csv", "b.schema"),
                ),
                encoders=(EncoderSpec("onehot"),),
                models=(ModelSpec("tree"),),
                seeds=(0,),
            )


def small_grid(tmp_path, models, encoders=("onehot", "mean"), datasets=("reg", "clf")):
    specs = []
    for k, name in enumerate(datasets):
        task = "regression" if name == "reg" else "classification"
        csv_path, schema_path = write_dataset(tmp_path, name, task, seed=10 + k)
        specs.append(DatasetSpec(name, str(csv_path), str(schema_path)))
    return ExperimentGrid(
        datasets=tuple(specs),
        encoders=tuple(EncoderSpec(e) for e in encoders),
        models=tuple(ModelSpec(m) for m in models),
        seeds=(0, 1),
        split_ratio=0.8,
        out_dir=str(tmp_path / "out"),
    )


class TestRunGrid:
    def test_full_product_scored(self, tmp_path):
        grid = small_grid(tmp_path, models=("tree",))
        records, failures, sufficiency = run_grid(grid)
        assert len(records) == 2 * 2 * 1 * 2
        assert failures == []
        assert set(sufficiency) == {"reg", "clf"}
        # 60 rows, widest categorical has 3 levels
        assert sufficiency["reg"] == pytest.approx(20.0)

    def test_records_sorted_and_metrics_match_task(self, tmp_path):
        grid = small_grid(tmp_path, models=("tree", "forest"))
        records, _, _ = run_grid(grid)
        keys = [(r.dataset, r.encoder, r.model, r.seed) for r in records]
        assert keys == sorted(keys)
        for r in records:
            assert r.metric == ("rmse" if r.dataset == "reg" else "f1")

    def test_task_mismatch_lands_in_failures_not_exceptions(self, tmp_path):
        grid = small_grid(tmp_path, models=("ridge",))
        records, failures, _ = run_grid(grid)
        assert all(r.dataset == "reg" for r in records)
        assert all(f.dataset == "clf" for f in failures)
        assert len(records) == len(failures) == 2 * 2
        assert all("regression-only" in f.error for f in failures)

    def test_one_run_mixes_model_failures_and_records(self, tmp_path):
        grid = small_grid(tmp_path, models=("ridge", "tree"), datasets=("clf",))
        records, failures, _ = run_grid(grid)
        assert {r.model for r in records} == {"tree"}
        assert {f.model for f in failures} == {"ridge"}
        assert len(records) == len(failures) == 2 * 2

    def test_encoding_fitted_once_per_dataset_encoder_seed(self, tmp_path, monkeypatch):
        calls = []
        fit_pipeline = bench.fit_pipeline

        def counting_fit_pipeline(train, spec):
            calls.append(spec)
            return fit_pipeline(train, spec)

        monkeypatch.setattr(bench, "fit_pipeline", counting_fit_pipeline)
        grid = small_grid(tmp_path, models=("ridge", "tree", "logistic"))
        records, failures, _ = run_grid(grid)
        assert len(records) + len(failures) == 2 * 2 * 3 * 2
        assert len(calls) == 2 * 2 * 2

    def test_failure_before_model_loop_fails_every_model(self, tmp_path):
        csv_path = tmp_path / "blank.csv"
        csv_path.write_text("grade,x,y\n" + "".join(f",{k / 10!r},{k % 3}.0\n" for k in range(20)))
        schema_path = tmp_path / "blank.schema"
        schema_path.write_text("grade = categorical\nx = numeric\ny = numeric\ntarget = y\n")
        grid = ExperimentGrid(
            datasets=(DatasetSpec("blank", str(csv_path), str(schema_path)),),
            encoders=(EncoderSpec("onehot"),),
            models=(ModelSpec("ridge"), ModelSpec("tree"), ModelSpec("forest")),
            seeds=(0,),
        )
        records, failures, _ = run_grid(grid)
        assert records == []
        assert [f.model for f in failures] == ["forest", "ridge", "tree"]
        assert len({f.error for f in failures}) == 1
        assert "'grade' is entirely missing" in failures[0].error

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unloadable_dataset_is_refused_once_before_any_cell(self, tmp_path, monkeypatch, workers):
        grid = small_grid(tmp_path, models=("ridge", "tree"))
        (tmp_path / "clf.schema").write_text("grade = categorical\nx = numeric\ntarget = y\n")
        reads = []
        read_schema = bench.read_schema

        def counting_read_schema(path):
            reads.append(path)
            return read_schema(path)

        monkeypatch.setattr(bench, "read_schema", counting_read_schema)
        monkeypatch.setattr(bench, "fit_pipeline", lambda *a: pytest.fail("a cell ran"))
        with pytest.raises(SchemaError, match=r"clf\.schema: target 'y' has no declared kind"):
            run_grid(grid, workers=workers)
        assert reads.count(str(tmp_path / "clf.schema")) == 1

    def test_non_numeric_target_is_refused_before_out_dir(self, tmp_path, monkeypatch):
        # before, every cell failed with "could not convert string to float: 'no'"
        grid = small_grid(tmp_path, models=("tree",), datasets=("clf",))
        csv_path = tmp_path / "clf.csv"
        lines = csv_path.read_text().splitlines()
        yes_no = [line.rsplit(",", 1)[0] + ("," + ("yes" if line.endswith("1.0") else "no")) for line in lines[1:]]
        csv_path.write_text("\n".join([lines[0], *yes_no]) + "\n")
        (tmp_path / "clf.schema").write_text("grade = categorical\nx = numeric\ny = categorical\ntarget = y\n")
        monkeypatch.setattr(bench, "fit_pipeline", lambda *a: pytest.fail("a cell ran"))
        with pytest.raises(SchemaError, match=r"^target column 'y' must be numeric: "):
            run_grid(grid)
        assert not os.path.exists(grid.out_dir)

    def test_non_finite_target_is_refused_before_out_dir(self, tmp_path, monkeypatch):
        # before, every cell failed with "x and y must be finite"
        grid = small_grid(tmp_path, models=("tree",), datasets=("reg",))
        csv_path = tmp_path / "reg.csv"
        lines = csv_path.read_text().splitlines()
        levels = ("1.5", "2.5", "inf")
        relabeled = [line.rsplit(",", 1)[0] + "," + levels[i % 3] for i, line in enumerate(lines[1:])]
        csv_path.write_text("\n".join([lines[0], *relabeled]) + "\n")
        schema = (tmp_path / "reg.schema").read_text()
        (tmp_path / "reg.schema").write_text(schema.replace("y = numeric", "y = categorical"))
        monkeypatch.setattr(bench, "fit_pipeline", lambda *a: pytest.fail("a cell ran"))
        with pytest.raises(SchemaError, match=r"^target column 'y' has non-finite values, such as inf$"):
            run_grid(grid)
        assert not os.path.exists(grid.out_dir)

    def test_a_singular_ridge_alpha_does_not_fail_the_cell(self, tmp_path):
        # a one-level column encodes to a constant, so alpha 0 leaves x'x singular
        csv_path, schema_path = write_dataset(tmp_path, "reg", "regression")
        csv_path.write_text(re.sub(r"(?m)^(lo|mid|hi),", "k,", csv_path.read_text()))
        grid = ExperimentGrid(
            datasets=(DatasetSpec("reg", str(csv_path), str(schema_path)),),
            encoders=(EncoderSpec("mean"), EncoderSpec("onehot")),
            models=(ModelSpec("ridge", (("alphas", (0.0, 1.0)),)),),
            seeds=(0,),
        )
        records, failures, _ = run_grid(grid)
        assert failures == [] and len(records) == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_dataset_is_read_once_in_the_main_process(self, tmp_path, monkeypatch, workers):
        # a file, not a list, so a read in a forked worker would show up too
        log = tmp_path / "reads.log"
        load_csv = bench.load_csv

        def logging_load_csv(*args):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return load_csv(*args)

        monkeypatch.setattr(bench, "load_csv", logging_load_csv)
        grid = small_grid(tmp_path, models=("tree",))
        records, failures, _ = run_grid(grid, workers=workers)
        assert len(records) == 2 * 2 * 2 and failures == []
        assert log.read_text().split() == [str(os.getpid())] * 2

    def test_rewritten_dataset_is_reloaded(self, tmp_path):
        grid = small_grid(tmp_path, models=("tree",), datasets=("reg",))
        _, _, before = run_grid(grid)
        write_dataset(tmp_path, "reg", "regression", n=90, seed=10)
        _, _, after = run_grid(grid)
        # 3 levels: 60 rows, then 90
        assert before["reg"] == pytest.approx(20.0)
        assert after["reg"] == pytest.approx(30.0)

    def test_timed_grid_records_its_times(self, tmp_path):
        grid = small_grid(tmp_path, models=("tree", "forest"), datasets=("reg",))
        records, _, _ = run_grid(grid, record_timing=True)
        assert len(records) == 2 * 2 * 2
        assert all(r.encode_time > 0.0 and r.train_time > 0.0 for r in records)
        # both models of a (dataset, encoder, seed) unit share its one encoding and its time
        encode_times = {}
        for r in records:
            encode_times.setdefault((r.dataset, r.encoder, r.seed), set()).add(r.encode_time)
        assert len(encode_times) == 2 * 2 and all(len(t) == 1 for t in encode_times.values())

    def test_timing_mask_zeroes_time_columns(self, tmp_path):
        grid = small_grid(tmp_path, models=("tree",), datasets=("reg",))
        records, _, _ = run_grid(grid, record_timing=False)
        assert all(r.encode_time == 0.0 and r.train_time == 0.0 for r in records)

    def test_masked_runs_are_identical(self, tmp_path):
        grid = small_grid(tmp_path, models=("forest",), datasets=("clf",))
        a, _, _ = run_grid(grid, record_timing=False)
        b, _, _ = run_grid(grid, record_timing=False)
        assert a == b

    def test_parallel_matches_serial(self, tmp_path):
        grid = small_grid(tmp_path, models=("tree",), datasets=("reg",))
        serial, _, _ = run_grid(grid, workers=1, record_timing=False)
        parallel, _, _ = run_grid(grid, workers=2, record_timing=False)
        assert serial == parallel

    @pytest.mark.parametrize("seeds, pools", [((0, 1), [2]), ((0,), [])])
    def test_no_more_workers_than_units(self, tmp_path, monkeypatch, seeds, pools):
        # before, a pool of all the workers asked for was built, whose processes
        # a fork-started pool launches at its first submit
        built = []

        class RecordingPool:  # records its size and maps in-process: no process starts
            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        grid = small_grid(tmp_path, models=("tree",), encoders=("mean",), datasets=("reg",))
        grid = dataclasses.replace(grid, seeds=seeds)
        records, failures, _ = run_grid(grid, workers=8, record_timing=False)
        assert built == pools
        assert failures == [] and len(records) == len(seeds)
        assert records == run_grid(grid, record_timing=False)[0]


class TestRankEncoders:
    def rec(self, dataset, encoder, value, metric="rmse", model="tree", seed=0):
        return MetricRecord(
            dataset=dataset, encoder=encoder, model=model, seed=seed,
            metric=metric, value=value, encode_time=0.0, train_time=0.0,
        )

    def test_buckets_split_at_cutoff(self):
        records = [
            self.rec("big", "onehot", 1.0),
            self.rec("big", "mean", 2.0),
            self.rec("small", "onehot", 4.0),
            self.rec("small", "mean", 1.0),
        ]
        entries, _ = rank_encoders(records, {"big": 150.0, "small": 12.0})
        by_key = {(e.bucket, e.encoder): e for e in entries}
        assert by_key[("sufficient", "onehot")].mean_diff == 0.0
        assert by_key[("sufficient", "mean")].mean_diff == pytest.approx(1.0)
        assert by_key[("insufficient", "mean")].mean_diff == 0.0
        assert by_key[("insufficient", "onehot")].mean_diff == pytest.approx(3.0)

    def test_boundary_counts_as_sufficient(self):
        records = [self.rec("edge", "onehot", 1.0), self.rec("edge", "mean", 1.5)]
        entries, _ = rank_encoders(records, {"edge": 100.0})
        assert {e.bucket for e in entries} == {"sufficient"}

    def test_no_map_gives_single_bucket(self):
        records = [self.rec("d", "onehot", 1.0), self.rec("d", "mean", 2.0)]
        entries, _ = rank_encoders(records)
        assert {e.bucket for e in entries} == {"all"}

    def test_missing_dataset_goes_to_unknown(self):
        records = [self.rec("mystery", "onehot", 1.0), self.rec("mystery", "mean", 2.0)]
        entries, _ = rank_encoders(records, {})
        assert {e.bucket for e in entries} == {"unknown"}

    def test_sorted_ascending_within_group(self):
        records = [
            self.rec("d", "onehot", 1.0),
            self.rec("d", "mean", 3.0),
            self.rec("d", "ordinal", 2.0),
        ]
        entries, _ = rank_encoders(records)
        assert [e.encoder for e in entries] == ["onehot", "ordinal", "mean"]
        assert entries[0].mean_diff <= entries[1].mean_diff <= entries[2].mean_diff

    def test_zero_best_slice_names_its_unranked_encoders(self, tmp_path):
        # onehot's rmse 0 leaves mean's difference NaN; before, mean left the report without a note
        records = [self.rec("d", "onehot", 0.0), self.rec("d", "mean", 0.5)]
        entries, unranked = rank_encoders(records)
        assert [e.encoder for e in entries] == ["onehot"] and unranked == [("d", "tree", "mean")]
        summary = write_reports(records, [], None, str(tmp_path))
        ranking = summary.split("encoder ranking", 1)[1].split("timing", 1)[0]
        assert "  UNRANKED d/mean/tree: the slice's best mean is 0\n" in ranking
        assert (tmp_path / "summary.txt").read_text() == summary


class TestTimeReport:
    def rec(self, encoder, enc_t, train_t, seed=0):
        return MetricRecord(
            dataset="d", encoder=encoder, model="tree", seed=seed,
            metric="rmse", value=1.0, encode_time=enc_t, train_time=train_t,
        )

    def test_ordered_by_encoded_width(self):
        records = [
            self.rec("onehot", 0.2, 0.5),
            self.rec("mean", 0.1, 0.3),
            self.rec("minhash", 0.4, 0.4),
        ]
        entries = time_report(records)
        # widths at the reference cardinality: mean 1 < minhash 30 < onehot 100
        assert [e.encoder for e in entries] == ["mean", "minhash", "onehot"]

    def test_means_across_seeds(self):
        records = [self.rec("mean", 0.1, 0.3), self.rec("mean", 0.3, 0.5, seed=1)]
        entry = time_report(records)[0]
        assert entry.mean_encode_time == pytest.approx(0.2)
        assert entry.mean_train_time == pytest.approx(0.4)
        assert entry.mean_total_time == pytest.approx(0.6)


class TestReports:
    def test_run_and_report_writes_everything(self, tmp_path):
        grid = small_grid(tmp_path, models=("tree",), datasets=("reg",))
        records, failures = run_and_report(grid)
        out = tmp_path / "out"
        for name in (
            "records.csv",
            "rank_report.csv",
            "time_report.csv",
            "failures.csv",
            "dataset_info.csv",
            "summary.txt",
        ):
            assert (out / name).exists(), name
        assert failures == []
        summary = (out / "summary.txt").read_text()
        assert f"cells scored: {len(records)}" in summary

    def test_rerun_with_masked_timing_is_byte_identical(self, tmp_path):
        grid = small_grid(tmp_path, models=("tree",), datasets=("clf",))
        run_and_report(grid, record_timing=False)
        first = (tmp_path / "out" / "records.csv").read_bytes()
        run_and_report(grid, record_timing=False)
        second = (tmp_path / "out" / "records.csv").read_bytes()
        assert first == second

    def test_dataset_info_reader_names_file_and_line(self, tmp_path):
        path = tmp_path / "info.csv"
        path.write_text("dataset\na\n")
        with pytest.raises(ValueError, match=r"info\.csv: missing column\(s\) minaspl"):
            read_dataset_info_csv(str(path))
        for cell in ("abc", "nan", "0"):
            path.write_text(f"dataset,minaspl\na,12.5\nb,{cell}\n")
            with pytest.raises(ValueError, match=r"info\.csv:3: "):
                read_dataset_info_csv(str(path))

    def test_dataset_info_roundtrip(self, tmp_path):
        path = tmp_path / "info.csv"
        info = {"a": 12.5, "b": 1 / 3}
        write_dataset_info_csv(info, str(path))
        got = read_dataset_info_csv(str(path))
        assert got == info
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())  # as a spreadsheet saves it
        assert read_dataset_info_csv(str(path)) == info
