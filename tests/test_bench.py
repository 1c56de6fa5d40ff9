import math

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
)
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

    def test_rewritten_dataset_is_reloaded(self, tmp_path):
        grid = small_grid(tmp_path, models=("tree",), datasets=("reg",))
        _, _, before = run_grid(grid)
        write_dataset(tmp_path, "reg", "regression", n=90, seed=10)
        _, _, after = run_grid(grid)
        # 3 levels: 60 rows, then 90
        assert before["reg"] == pytest.approx(20.0)
        assert after["reg"] == pytest.approx(30.0)

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
        entries = rank_encoders(records, {"big": 150.0, "small": 12.0})
        by_key = {(e.bucket, e.encoder): e for e in entries}
        assert by_key[("sufficient", "onehot")].mean_diff == 0.0
        assert by_key[("sufficient", "mean")].mean_diff == pytest.approx(1.0)
        assert by_key[("insufficient", "mean")].mean_diff == 0.0
        assert by_key[("insufficient", "onehot")].mean_diff == pytest.approx(3.0)

    def test_boundary_counts_as_sufficient(self):
        records = [self.rec("edge", "onehot", 1.0), self.rec("edge", "mean", 1.5)]
        entries = rank_encoders(records, {"edge": 100.0})
        assert {e.bucket for e in entries} == {"sufficient"}

    def test_no_map_gives_single_bucket(self):
        records = [self.rec("d", "onehot", 1.0), self.rec("d", "mean", 2.0)]
        entries = rank_encoders(records)
        assert {e.bucket for e in entries} == {"all"}

    def test_missing_dataset_goes_to_unknown(self):
        records = [self.rec("mystery", "onehot", 1.0), self.rec("mystery", "mean", 2.0)]
        entries = rank_encoders(records, {})
        assert {e.bucket for e in entries} == {"unknown"}

    def test_sorted_ascending_within_group(self):
        records = [
            self.rec("d", "onehot", 1.0),
            self.rec("d", "mean", 3.0),
            self.rec("d", "ordinal", 2.0),
        ]
        entries = rank_encoders(records)
        assert [e.encoder for e in entries] == ["onehot", "ordinal", "mean"]
        assert entries[0].mean_diff <= entries[1].mean_diff <= entries[2].mean_diff


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

    def test_dataset_info_roundtrip(self, tmp_path):
        path = tmp_path / "info.csv"
        info = {"a": 12.5, "b": 1 / 3}
        write_dataset_info_csv(info, str(path))
        got = read_dataset_info_csv(str(path))
        assert got == info
