import numpy as np
import pytest

from catenc.data import (
    ColumnKind,
    DataTable,
    SchemaError,
    apply_pipeline,
    fit_pipeline,
    fit_preprocessor,
    impute,
    infer_schema,
    load_csv,
    read_schema,
    split_train_test,
)
from catenc.encoders import Categorical, EncoderSpec, FittedEncoder
from catenc.metrics import minaspl


@pytest.fixture
def season_csv(tmp_path):
    path = tmp_path / "seasons.csv"
    path.write_text(
        "season,temp,y\n"
        "spring,10.0,1.0\n"
        "summer,N.A,2.0\n"
        "autumn,8.5,3.0\n"
        "winter,,4.0\n"
        "spring,12.0,5.0\n"
    )
    schema = tmp_path / "seasons.schema"
    schema.write_text("season = categorical\ntemp = numeric\ny = numeric\ntarget = y\n")
    return str(path), str(schema)


def make_table(n=10, seed=0):
    rng = np.random.default_rng(seed)
    seasons = ["spring", "summer", "autumn", "winter"]
    col = [seasons[i] for i in rng.integers(0, 4, n)]
    y = rng.normal(size=n).tolist()
    return DataTable(
        schema=(("season", ColumnKind.CATEGORICAL), ("y", ColumnKind.NUMERIC)),
        columns={"season": col, "y": y},
        target="y",
    )


class TestLoadCsv:
    def test_roundtrip_kinds_and_missing(self, season_csv):
        csv_path, schema_path = season_csv
        kinds, target = read_schema(schema_path)
        table = load_csv(csv_path, kinds, target)
        assert table.row_count == 5
        assert table.kind("season") is ColumnKind.CATEGORICAL
        assert np.isnan(table.column("temp")[1])
        assert np.isnan(table.column("temp")[3])
        assert table.column("temp")[0] == 10.0
        assert table.target == "y"

    def test_header_only_gives_empty_table(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("a,y\n")
        table = load_csv(str(p), {"a": ColumnKind.CATEGORICAL, "y": ColumnKind.NUMERIC}, "y")
        assert table.row_count == 0

    def test_numeric_majority_unparsable_is_schema_error(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,y\nred,1\ngreen,2\nblue,3\n")
        with pytest.raises(SchemaError):
            load_csv(str(p), {"a": ColumnKind.NUMERIC, "y": ColumnKind.NUMERIC}, "y")

    def test_missing_declared_column_is_schema_error(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,y\nx,1\n")
        with pytest.raises(SchemaError):
            load_csv(
                str(p),
                {"a": ColumnKind.CATEGORICAL, "b": ColumnKind.NUMERIC, "y": ColumnKind.NUMERIC},
                "y",
            )

    def test_undeclared_file_columns_are_dropped(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,junk,y\nx,zzz,1\n")
        table = load_csv(str(p), {"a": ColumnKind.CATEGORICAL, "y": ColumnKind.NUMERIC}, "y")
        assert "junk" not in table.columns

    def test_infer_schema(self, season_csv):
        csv_path, _ = season_csv
        kinds = infer_schema(csv_path, "y")
        assert kinds["season"] is ColumnKind.CATEGORICAL
        assert kinds["temp"] is ColumnKind.NUMERIC


class TestSplit:
    def test_partition_preserves_rows(self):
        table = make_table(n=23)
        pair = split_train_test(table, 0.8, seed=3)
        assert pair.train.row_count + pair.test.row_count == 23
        combined = sorted(list(pair.train.rows()) + list(pair.test.rows()))
        assert combined == sorted(table.rows())

    def test_train_size_is_rounded_ratio(self):
        table = make_table(n=5)
        pair = split_train_test(table, 0.8, seed=0)
        assert pair.train.row_count == 4

    def test_same_seed_same_split(self):
        table = make_table(n=40)
        a = split_train_test(table, 0.7, seed=11)
        b = split_train_test(table, 0.7, seed=11)
        assert list(a.train.rows()) == list(b.train.rows())

    def test_different_seed_usually_differs(self):
        table = make_table(n=40)
        a = split_train_test(table, 0.7, seed=1)
        b = split_train_test(table, 0.7, seed=2)
        assert list(a.train.rows()) != list(b.train.rows())

    def test_both_sides_nonempty_even_at_extreme_ratio(self):
        table = make_table(n=2)
        pair = split_train_test(table, 0.99, seed=0)
        assert pair.train.row_count == 1
        assert pair.test.row_count == 1

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError):
            split_train_test(make_table(), 1.0, seed=0)


class TestPreprocessor:
    def test_numeric_mean_and_categorical_mode_fill(self):
        table = DataTable(
            schema=(("a", ColumnKind.CATEGORICAL), ("x", ColumnKind.NUMERIC), ("y", ColumnKind.NUMERIC)),
            columns={
                "a": ["u", "v", None, "u", "w"],
                "x": [1.0, None, 3.0, None, 8.0],
                "y": [0.0, 1.0, 0.0, 1.0, 0.0],
            },
            target="y",
        )
        fills = fit_preprocessor(table)
        assert fills["x"] == pytest.approx(4.0)
        assert fills["a"] == "u"
        filled = impute(fills, table)
        assert filled.column("a")[2] == "u"
        assert filled.column("x")[1] == pytest.approx(4.0)

    def test_fill_absent_from_test_levels_becomes_a_level(self):
        schema = (("a", ColumnKind.CATEGORICAL), ("y", ColumnKind.NUMERIC))
        train = DataTable(schema=schema, columns={"a": ["u", "u", "v"], "y": [0.0] * 3}, target="y")
        test = DataTable(schema=schema, columns={"a": ["v", None, "w"], "y": [0.0] * 3}, target="y")
        col = impute(fit_preprocessor(train), test).column("a")
        assert list(col) == ["v", "u", "w"]
        assert col.levels == ("v", "u", "w")

    def test_fill_already_present_adds_no_level(self):
        table = DataTable(
            schema=(("a", ColumnKind.CATEGORICAL), ("y", ColumnKind.NUMERIC)),
            columns={"a": [None, "v", "u", "u"], "y": [0.0] * 4},
            target="y",
        )
        filled = impute(fit_preprocessor(table), table)
        assert list(filled.column("a")) == ["u", "v", "u", "u"]
        assert filled.column("a").levels == ("u", "v")
        assert minaspl(filled) == minaspl(table) == 2.0

    def test_mode_tie_breaks_by_first_appearance(self):
        table = DataTable(
            schema=(("a", ColumnKind.CATEGORICAL), ("y", ColumnKind.NUMERIC)),
            columns={"a": ["v", "u", "u", "v"], "y": [0.0, 0.0, 0.0, 0.0]},
            target="y",
        )
        assert fit_preprocessor(table)["a"] == "v"

    def test_entirely_missing_column_named_in_error(self):
        table = DataTable(
            schema=(("a", ColumnKind.CATEGORICAL), ("y", ColumnKind.NUMERIC)),
            columns={"a": [None, None], "y": [0.0, 1.0]},
            target="y",
        )
        with pytest.raises(SchemaError, match="'a'"):
            fit_preprocessor(table)

    def test_pipeline_standardizes_train_columns(self):
        table = make_table(n=50, seed=1)
        pipeline, _ = fit_pipeline(table, EncoderSpec("onehot"))
        x = apply_pipeline(pipeline, table)
        assert x.shape == (50, 4)
        # population standardization: mean 0, std 1 per non-constant column
        np.testing.assert_allclose(x.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(x.std(axis=0), 1.0, atol=1e-12)

    def test_zero_spread_column_standardizes_to_zeros(self):
        table = DataTable(
            schema=(("a", ColumnKind.CATEGORICAL), ("x", ColumnKind.NUMERIC), ("y", ColumnKind.NUMERIC)),
            columns={"a": ["u", "v", "u"], "x": [7.0, 7.0, 7.0], "y": [1.0, 2.0, 3.0]},
            target="y",
        )
        pipeline, _ = fit_pipeline(table, EncoderSpec("ordinal"))
        x = apply_pipeline(pipeline, table)
        np.testing.assert_array_equal(x[:, 1], 0.0)

    def test_unseen_level_goes_through_policy_then_standardization(self):
        train = DataTable(
            schema=(("a", ColumnKind.CATEGORICAL), ("y", ColumnKind.NUMERIC)),
            columns={"a": ["u", "v", "u"], "y": [1.0, 2.0, 3.0]},
            target="y",
        )
        test = DataTable(
            schema=train.schema,
            columns={"a": ["w"], "y": [0.0]},
            target="y",
        )
        pipeline, _ = fit_pipeline(train, EncoderSpec("ordinal"))
        x = apply_pipeline(pipeline, test)
        # train codes are [1, 2, 1]: mean 4/3, population std sqrt(2)/3
        mean = 4.0 / 3.0
        std = np.sqrt(2.0) / 3.0
        np.testing.assert_allclose(x[0, 0], (0.0 - mean) / std, atol=1e-12)

    def test_no_leakage_from_test_rows(self):
        train = make_table(n=30, seed=5)
        test_a = make_table(n=10, seed=6)
        pipeline, _ = fit_pipeline(train, EncoderSpec("mean"))
        mean_before, std_before = pipeline.mean.copy(), pipeline.std.copy()
        apply_pipeline(pipeline, test_a)
        # mutate a test cell and re-apply: fitted statistics cannot move
        test_b = test_a.subset(range(test_a.row_count))
        test_b.columns["y"][0] = 99.0
        test_b.columns["season"] = Categorical.of(["winter", *list(test_b.columns["season"])[1:]])
        apply_pipeline(pipeline, test_b)
        assert np.array_equal(pipeline.mean, mean_before)
        assert np.array_equal(pipeline.std, std_before)
        assert pipeline.fills == fit_preprocessor(train)

    def test_schema_mismatch_rejected(self):
        train = make_table(n=10)
        other = DataTable(
            schema=(("other", ColumnKind.CATEGORICAL), ("y", ColumnKind.NUMERIC)),
            columns={"other": ["a"] * 10, "y": [0.0] * 10},
            target="y",
        )
        pipeline, _ = fit_pipeline(train, EncoderSpec("onehot"))
        with pytest.raises(SchemaError):
            apply_pipeline(pipeline, other)

    def test_matrix_width_is_encoded_plus_numeric(self, season_csv):
        csv_path, schema_path = season_csv
        kinds, target = read_schema(schema_path)
        table = load_csv(csv_path, kinds, target)
        pipeline, _ = fit_pipeline(table, EncoderSpec("onehot"))
        x = apply_pipeline(pipeline, table)
        # 4 one-hot columns for season + 1 numeric temp; target excluded
        assert x.shape == (5, 5)

    @pytest.mark.parametrize("variant", ["onehot", "mean", "basen", "truth"])
    def test_train_matrix_equals_applying_the_pipeline_to_train(self, variant):
        rng = np.random.default_rng(4)
        seasons = ["spring", "summer", "autumn", "winter"]
        table = DataTable(
            schema=(("season", ColumnKind.CATEGORICAL), ("x", ColumnKind.NUMERIC), ("y", ColumnKind.NUMERIC)),
            columns={
                "season": [None if k == 4 else seasons[k] for k in rng.integers(0, 5, 40)],
                "x": [None if v > 1.5 else v for v in rng.normal(size=40)],
                "y": rng.normal(size=40).tolist(),
            },
            target="y",
        )
        if variant == "truth":  # an already-fitted encoder, as the sweep's truth run passes
            spec = {
                "season": FittedEncoder(
                    variant="truth",
                    levels=tuple(seasons),
                    codes=np.array([[0.0], [1.0], [2.0], [3.0]]),
                    unseen_policy=np.array([1.5]),
                )
            }
        else:
            spec = EncoderSpec(variant)
        pipeline, x_train = fit_pipeline(table, spec)
        assert np.array_equal(x_train, apply_pipeline(pipeline, table))
        assert x_train.shape[1] == sum(width for _, width in pipeline.layout)

    def test_target_and_task_detection(self):
        t = make_table()
        assert t.task() == "regression"
        binary = DataTable(
            schema=(("a", ColumnKind.CATEGORICAL), ("y", ColumnKind.NUMERIC)),
            columns={"a": ["u", "v"], "y": [0.0, 1.0]},
            target="y",
        )
        assert binary.task() == "classification"
