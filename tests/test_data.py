import csv
import re

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
from catenc.encoders import Categorical, EncoderSpec
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
    return DataTable({"season": Categorical.of(col), "y": y}, "y")


class TestLoadCsv:
    def test_roundtrip_kinds_and_missing(self, season_csv):
        csv_path, schema_path = season_csv
        kinds, target = read_schema(schema_path)
        table = load_csv(csv_path, kinds, target)
        assert table.row_count == 5
        assert isinstance(table.column("season"), Categorical)
        assert np.isnan(table.column("temp")[1])
        assert np.isnan(table.column("temp")[3])
        assert table.column("temp")[0] == 10.0
        assert table.target == "y"

    def test_kinds_and_positions_survive_split_impute_and_fit(self, season_csv):
        csv_path, schema_path = season_csv
        kinds, target = read_schema(schema_path)
        table = load_csv(csv_path, kinds, target)
        want = (("season", ColumnKind.CATEGORICAL), ("temp", ColumnKind.NUMERIC), ("y", ColumnKind.NUMERIC))
        assert table.schema == want
        pair = split_train_test(table, 0.8, seed=0)
        pipeline, x_train = fit_pipeline(pair.train, EncoderSpec("onehot"))
        filled = impute(pipeline.fills, pair.test)
        assert pair.train.schema == pair.test.schema == filled.schema == pipeline.schema == want
        # the layout follows table order: the season block, then temp
        assert x_train.shape[1] == pipeline.encoders["season"].output_dim + 1
        temp = impute(pipeline.fills, pair.train).column("temp")
        np.testing.assert_allclose(x_train[:, -1], (temp - temp.mean()) / temp.std())

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

    @pytest.mark.parametrize(
        "header, repeated",
        [("a,a,y", "['a']"), ("a,y, a ", "['a']"), ("a,y,y", "['y']"), ("a,y,a,y", "['a', 'y']")],
    )
    def test_a_repeated_declared_column_is_schema_error(self, tmp_path, header, repeated):
        # the first copy used to be read and the others ignored without a word
        p = tmp_path / "dup.csv"
        p.write_text(header + "\n" + ",".join(["1"] * header.count(",")) + ",2\n")
        error = re.escape(f"dup.csv: declared columns repeated in the header: {repeated}")
        with pytest.raises(SchemaError, match=error):
            load_csv(str(p), {"a": ColumnKind.CATEGORICAL, "y": ColumnKind.NUMERIC}, "y")
        with pytest.raises(SchemaError, match=error):
            infer_schema(str(p), "y")  # declares every header column

    def test_a_repeated_undeclared_column_is_still_dropped(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,junk,junk,y\nx,zzz,www,1\n")
        table = load_csv(str(p), {"a": ColumnKind.CATEGORICAL, "y": ColumnKind.NUMERIC}, "y")
        assert list(table.columns) == ["a", "y"]

    def test_byte_order_mark_is_dropped(self, tmp_path):
        csv_path, schema_path = tmp_path / "bom.csv", tmp_path / "bom.schema"
        csv_path.write_text("\ufeffcity,y\nparis,1\nrome,2\n", encoding="utf-8")
        schema_path.write_text("\ufeffcity = categorical\ny = numeric\ntarget = y\n", encoding="utf-8")
        kinds, target = read_schema(str(schema_path))
        assert list(kinds) == ["city", "y"]
        assert list(infer_schema(str(csv_path), "y")) == ["city", "y"]
        table = load_csv(str(csv_path), kinds, target)
        assert list(table.column("city")) == ["paris", "rome"]

    def test_malformed_csv_is_schema_error_naming_file_and_line(self, tmp_path):
        p = tmp_path / "huge.csv"
        p.write_text("a,y\nx,1\nx,2\n" + "z" * (csv.field_size_limit() + 1) + ",3\n")
        with pytest.raises(SchemaError, match=rf"huge\.csv:4: field larger than field limit"):
            load_csv(str(p), {"a": ColumnKind.CATEGORICAL, "y": ColumnKind.NUMERIC}, "y")
        p.write_text("z" * (csv.field_size_limit() + 1) + ",y\n")
        with pytest.raises(SchemaError, match=rf"huge\.csv:1: field larger than field limit"):
            infer_schema(str(p), "y")

    def test_infer_schema(self, season_csv):
        csv_path, _ = season_csv
        kinds = infer_schema(csv_path, "y")
        assert kinds["season"] is ColumnKind.CATEGORICAL
        assert kinds["temp"] is ColumnKind.NUMERIC


class TestReadSchema:
    def test_blank_lines_and_comments_are_skipped(self, tmp_path):
        path = tmp_path / "t.schema"
        path.write_text("\n# kinds\na = categorical  # the level\n\n   \ny = numeric\ntarget = y\n")
        assert read_schema(str(path)) == ({"a": ColumnKind.CATEGORICAL, "y": ColumnKind.NUMERIC}, "y")

    @pytest.mark.parametrize(
        "text, error",
        [
            ("a = categorical\ny numeric\ntarget = y\n", ":2: expected 'name = value'"),
            ("a = categorical\ny = float\ntarget = y\n", ":2: kind must be numeric or categorical, got 'float'"),
            ("a = categorical\ny = numeric\n", ": no 'target =' line"),
            ("a = categorical\ntarget = y\n", ": target 'y' has no declared kind"),
            # keeping the last line would change a column's kind or the target silently
            ("a = numeric\ny = numeric\na = categorical\ntarget = y\n", ":3: duplicate schema key: a"),
            ("a = numeric\ny = numeric\ntarget = y\n\ntarget = a\n", ":5: duplicate schema key: target"),
        ],
        ids=["no-equals", "bad-kind", "no-target", "target-kind", "repeated-column", "repeated-target"],
    )
    def test_refusals_name_the_file_and_line(self, tmp_path, text, error):
        path = tmp_path / "t.schema"
        path.write_text(text)
        with pytest.raises(SchemaError) as info:
            read_schema(str(path))
        assert str(info.value) == f"{path}{error}"


class TestDataTableRefusals:
    @pytest.mark.parametrize(
        "columns, target, error",
        [
            ({"a": [1.0]}, "y", "target column 'y' not in table"),
            (
                {"a": Categorical.of(["u", "v", "u"]), "y": [1.0, 2.0]},
                "y",
                r"ragged columns: lengths \[2, 3\]",
            ),
        ],
        ids=["target", "ragged"],
    )
    def test_refusals(self, columns, target, error):
        with pytest.raises(SchemaError, match=error):
            DataTable(columns, target)

    def test_unwrapped_string_column_is_refused_by_name(self):
        # a categorical column is a Categorical; before, numpy's ValueError named no column
        with pytest.raises(SchemaError, match=r"^column 'a' is neither a Categorical nor numeric: .*'u'"):
            DataTable({"a": ["u", "v"], "y": [0.0, 1.0]}, "y")

    def test_schema_reads_each_kind_from_the_column_type(self):
        table = DataTable({"x": [1.0, None], "a": Categorical.of(["u", None]), "y": [0.0, 1.0]}, "y")
        assert table.schema == (
            ("x", ColumnKind.NUMERIC),
            ("a", ColumnKind.CATEGORICAL),
            ("y", ColumnKind.NUMERIC),
        )
        assert table.feature_names() == ["x", "a"] and table.categorical_names() == ["a"]
        assert table.column("x").dtype == np.float64 and np.isnan(table.column("x")[1])


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
            {
                "a": Categorical.of(["u", "v", None, "u", "w"]),
                "x": [1.0, None, 3.0, None, 8.0],
                "y": [0.0, 1.0, 0.0, 1.0, 0.0],
            },
            "y",
        )
        fills = fit_preprocessor(table)
        assert fills["x"] == pytest.approx(4.0)
        assert fills["a"] == "u"
        filled = impute(fills, table)
        assert filled.column("a")[2] == "u"
        assert filled.column("x")[1] == pytest.approx(4.0)

    def test_fill_absent_from_test_levels_becomes_a_level(self):
        train = DataTable({"a": Categorical.of(["u", "u", "v"]), "y": [0.0] * 3}, "y")
        test = DataTable({"a": Categorical.of(["v", None, "w"]), "y": [0.0] * 3}, "y")
        col = impute(fit_preprocessor(train), test).column("a")
        assert list(col) == ["v", "u", "w"]
        assert col.levels == ("v", "u", "w")

    def test_fill_already_present_adds_no_level(self):
        table = DataTable({"a": Categorical.of([None, "v", "u", "u"]), "y": [0.0] * 4}, "y")
        filled = impute(fit_preprocessor(table), table)
        assert list(filled.column("a")) == ["u", "v", "u", "u"]
        assert filled.column("a").levels == ("u", "v")
        assert minaspl(filled) == minaspl(table) == 2.0

    def test_mode_tie_breaks_by_first_appearance(self):
        table = DataTable({"a": Categorical.of(["v", "u", "u", "v"]), "y": [0.0, 0.0, 0.0, 0.0]}, "y")
        assert fit_preprocessor(table)["a"] == "v"

    def test_entirely_missing_column_named_in_error(self):
        table = DataTable({"a": Categorical.of([None, None]), "y": [0.0, 1.0]}, "y")
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
        table = DataTable({"a": Categorical.of(["u", "v", "u"]), "x": [7.0, 7.0, 7.0], "y": [1.0, 2.0, 3.0]}, "y")
        pipeline, _ = fit_pipeline(table, EncoderSpec("ordinal"))
        x = apply_pipeline(pipeline, table)
        np.testing.assert_array_equal(x[:, 1], 0.0)

    def test_unseen_level_goes_through_policy_then_standardization(self):
        train = DataTable({"a": Categorical.of(["u", "v", "u"]), "y": [1.0, 2.0, 3.0]}, "y")
        test = DataTable({"a": Categorical.of(["w"]), "y": [0.0]}, "y")
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
        other = DataTable({"other": Categorical.of(["a"] * 10), "y": [0.0] * 10}, "y")
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

    @pytest.mark.parametrize("variant", ["onehot", "mean", "basen"])
    def test_train_matrix_equals_applying_the_pipeline_to_train(self, variant):
        rng = np.random.default_rng(4)
        seasons = ["spring", "summer", "autumn", "winter"]
        table = DataTable(
            {
                "season": Categorical.of([None if k == 4 else seasons[k] for k in rng.integers(0, 5, 40)]),
                "x": [None if v > 1.5 else v for v in rng.normal(size=40)],
                "y": rng.normal(size=40).tolist(),
            },
            "y",
        )
        pipeline, x_train = fit_pipeline(table, EncoderSpec(variant))
        assert np.array_equal(x_train, apply_pipeline(pipeline, table))
        assert x_train.shape[1] == 1 + pipeline.encoders["season"].output_dim

    def test_target_and_task_detection(self):
        t = make_table()
        assert t.task() == "regression"
        binary = DataTable({"a": Categorical.of(["u", "v"]), "y": [0.0, 1.0]}, "y")
        assert binary.task() == "classification"

    @pytest.mark.parametrize(
        "kind, y, binary",
        [
            (ColumnKind.NUMERIC, [0.0, 1.0, 0.5], False),
            (ColumnKind.NUMERIC, [-0.0, 1.0], True),  # -0.0 == 0.0
            (ColumnKind.NUMERIC, [], True),  # no value that is not 0 or 1
            (ColumnKind.NUMERIC, [1.0, 1.0, 1.0], True),  # a single 0/1 class counts
            (ColumnKind.NUMERIC, [0.0, 0.0], True),
            (ColumnKind.NUMERIC, [0.0, 1e308], False),  # the non-finite cases are refused below
            (ColumnKind.CATEGORICAL, ["1", "0", "-0"], True),
            (ColumnKind.CATEGORICAL, ["0", "-1e308"], False),
        ],
    )
    def test_target_is_binary_edge_cases(self, kind, y, binary):
        table = DataTable({"y": Categorical.of(y) if kind is ColumnKind.CATEGORICAL else y}, "y")
        assert table.target_is_binary() is binary

    @pytest.mark.parametrize(
        "kind, y, bad",
        [
            (ColumnKind.NUMERIC, [0.0, np.inf], "inf"),
            (ColumnKind.NUMERIC, [-np.inf, 1.0], "-inf"),
            (ColumnKind.CATEGORICAL, ["0", "nan"], "nan"),  # a NaN level is no missing cell
            (ColumnKind.CATEGORICAL, ["1.5", "2.5", "inf", "1.5"], "inf"),
        ],
    )
    def test_non_finite_target_is_refused(self, kind, y, bad):
        # before, target_is_binary read False and every learner refused the cell later
        table = DataTable({"y": Categorical.of(y) if kind is ColumnKind.CATEGORICAL else y}, "y")
        for call in (table.target_values, table.target_is_binary):
            with pytest.raises(SchemaError, match=rf"^target column 'y' has non-finite values, such as {bad}$"):
                call()

    def test_missing_target_is_refused_by_task_detection(self):
        table = DataTable({"y": [0.0, np.nan]}, "y")
        with pytest.raises(SchemaError, match="missing values"):
            table.target_is_binary()

    def test_non_numeric_target_is_schema_error(self):
        # before, numpy's "could not convert string to float" never named the column
        table = DataTable({"y": Categorical.of(["yes", "no", "yes"])}, "y")
        with pytest.raises(SchemaError, match=r"^target column 'y' must be numeric: .*'yes'$"):
            table.target_values()
