import math
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catenc
from catenc.data import DataTable
from catenc.encoders import Categorical
from catenc.metrics import (
    MetricRecord,
    accuracy,
    aspl,
    f1_score,
    minaspl,
    mse,
    read_records_csv,
    relative_perf_diff,
    rmse,
    write_records_csv,
)


def brute_f1(y_true, y_pred):
    tp = sum(1 for t, p in zip(y_true, y_pred) if t == 1 and p == 1)
    fp = sum(1 for t, p in zip(y_true, y_pred) if t == 0 and p == 1)
    fn = sum(1 for t, p in zip(y_true, y_pred) if t == 1 and p == 0)
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


class TestScalarMetrics:
    def test_f1_hand_example(self):
        y_true = [1, 1, 0, 0, 1]
        y_pred = [1, 0, 1, 0, 1]
        # tp=2 fp=1 fn=1: precision=2/3 recall=2/3 -> f1=2/3
        assert f1_score(y_true, y_pred) == pytest.approx(2 / 3)

    def test_f1_zero_when_no_true_positives(self):
        assert f1_score([1, 1], [0, 0]) == 0.0
        assert f1_score([0, 0], [1, 1]) == 0.0
        assert f1_score([0, 0], [0, 0]) == 0.0

    def test_f1_rejects_nonbinary(self):
        with pytest.raises(ValueError, match=r"extras \[2\.0, 3\.0\]"):
            f1_score([0, 2], [3, 1])

    def test_label_checks_do_not_import_numpy_ma(self):
        # numpy.ma costs about 1 MiB of resident memory per process
        script = (
            "import sys, numpy as np, catenc\n"
            "from catenc import models, synth\n"
            "catenc.f1_score([0, 1, 1], [1, 1, 0])\n"
            "models.fit_logistic(np.array([[0.0], [1.0], [2.0]]), np.array([0.0, 1.0, 0.0]))\n"
            "cfg = synth.SynthConfig(problem='classification', aspl_values=(5,), seeds_per_aspl=1, test_size=20)\n"
            "synth.run_aspl_sweep(cfg, 'forest', catenc.EncoderSpec('mean'))\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(catenc.__file__))}
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env)
        assert out.stdout.strip() == "False"

    def test_mse_rmse(self):
        y = [1.0, 2.0, 3.0]
        p = [1.0, 4.0, 3.0]
        assert mse(y, p) == pytest.approx(4.0 / 3.0)
        assert rmse(y, p) == pytest.approx(math.sqrt(4.0 / 3.0))

    def test_accuracy(self):
        assert accuracy([1, 0, 1, 1], [1, 1, 1, 0]) == pytest.approx(0.5)

    @pytest.mark.parametrize("scorer", [f1_score, mse, rmse, accuracy])
    def test_scorers_refuse_unequal_lengths(self, scorer):
        with pytest.raises(ValueError, match="^length mismatch$"):
            scorer([0.0, 1.0, 1.0], [0.0, 1.0])

    def test_aspl(self):
        assert aspl(200, 4) == 50.0
        with pytest.raises(ValueError):
            aspl(10, 0)

    def test_minaspl_uses_largest_cardinality(self):
        table = DataTable(
            {
                "small": Categorical.of(["a", "b"] * 6),
                "big": Categorical.of(["a", "b", "c", "d", "e", "f"] * 2),
                "y": [0.0] * 12,
            },
            "y",
        )
        assert minaspl(table) == pytest.approx(2.0)

    def test_minaspl_does_not_count_missing_as_a_level(self):
        table = DataTable({"g": Categorical.of(["x", "y", None, None]), "y": [0.0] * 4}, "y")
        assert minaspl(table) == pytest.approx(2.0)

    def test_minaspl_rejects_a_column_with_no_present_cell(self):
        table = DataTable({"g": Categorical.of([None, None]), "y": [0.0, 1.0]}, "y")
        with pytest.raises(ValueError):
            minaspl(table)

    def test_minaspl_requires_a_categorical_column(self):
        table = DataTable({"x": [1.0, 2.0], "y": [0.0, 1.0]}, "y")
        with pytest.raises(ValueError):
            minaspl(table)


class TestRecords:
    def rec(self, **kw):
        base = dict(
            dataset="d1", encoder="onehot", model="ridge", seed=0,
            metric="rmse", value=1.0, encode_time=0.1, train_time=0.2,
        )
        base.update(kw)
        return MetricRecord(**base)

    def test_rejects_non_finite_value(self):
        with pytest.raises(ValueError):
            self.rec(value=float("nan"))
        with pytest.raises(ValueError):
            self.rec(value=float("inf"))

    def test_csv_roundtrip_is_exact(self, tmp_path):
        records = [
            self.rec(seed=s, value=v)
            for s, v in enumerate([0.1, 1 / 3, 2.0**-45, 123456.789])
        ]
        path = tmp_path / "records.csv"
        write_records_csv(str(path), MetricRecord, records)
        assert read_records_csv(str(path), MetricRecord) == records
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())  # as a spreadsheet saves it
        assert read_records_csv(str(path), MetricRecord) == records

    def test_read_skips_blank_lines_and_extra_columns(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(
            "note,dataset,encoder,model,seed,metric,value,encode_time,train_time\n"
            "x,d1,onehot,ridge,0,rmse,1.0,0.1,0.2\n\n"
        )
        assert read_records_csv(str(path), MetricRecord) == [self.rec()]

    def test_read_names_the_file_for_a_missing_column(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("dataset,encoder,model,seed,metric,encode_time,train_time\nd1,onehot,ridge,0,rmse,0,0\n")
        with pytest.raises(ValueError, match=r"records\.csv: missing column\(s\) value$"):
            read_records_csv(str(path), MetricRecord)
        path.write_text("")
        with pytest.raises(ValueError, match=r"records\.csv: missing column\(s\) dataset, encoder"):
            read_records_csv(str(path), MetricRecord)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("d1,onehot,ridge,x,rmse,1.0,0.1,0.2", "invalid literal for int"),
            ("d1,onehot,ridge,0.5,rmse,1.0,0.1,0.2", "invalid literal for int"),
            ("d1,onehot,ridge,0,rmse,abc,0.1,0.2", "could not convert"),
            ("d1,onehot,ridge,0,rmse,nan,0.1,0.2", "must be finite"),
            ("d1,onehot,ridge,0,rmse,-inf,0.1,0.2", "must be finite"),
            ("d1,onehot,ridge,0,rmse,1.0", "list index out of range"),
        ],
    )
    def test_read_names_file_and_line_for_a_bad_cell(self, tmp_path, row, message):
        path = tmp_path / "records.csv"
        good = "d1,onehot,ridge,0,rmse,1.0,0.1,0.2"
        path.write_bytes(
            ("\ufeff" + ",".join(MetricRecord.__dataclass_fields__) + f"\n{good}\n\n{row}\n").encode()
        )
        with pytest.raises(ValueError, match=rf"records\.csv:4: .*{message}"):
            read_records_csv(str(path), MetricRecord)

    def test_read_refuses_a_field_it_cannot_convert(self, tmp_path):
        @dataclass
        class Flagged:
            name: str
            ok: bool

        path = tmp_path / "flags.csv"
        write_records_csv(str(path), Flagged, [Flagged("a", False)])
        assert path.read_text() == "name,ok\na,False\n"
        with pytest.raises(TypeError, match="Flagged"):
            read_records_csv(str(path), Flagged)

    def test_csv_bytes_deterministic(self, tmp_path):
        records = [self.rec(seed=s) for s in range(3)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records_csv(str(a), MetricRecord, records)
        write_records_csv(str(b), MetricRecord, records)
        assert a.read_bytes() == b.read_bytes()


class TestRelativePerf:
    def recs(self, metric, by_encoder):
        out = []
        for encoder, values in by_encoder.items():
            for seed, v in enumerate(values):
                out.append(
                    MetricRecord(
                        dataset="d", encoder=encoder, model="m", seed=seed,
                        metric=metric, value=v, encode_time=0.0, train_time=0.0,
                    )
                )
        return out

    def test_lower_better_metric(self):
        diffs = relative_perf_diff(
            self.recs("rmse", {"onehot": [1.0, 1.2], "mean": [0.8, 1.0]})
        )
        # best mean 0.9 (mean); onehot mean 1.1 -> |1.1-0.9|/0.9
        assert diffs == {"onehot": pytest.approx(0.2 / 0.9), "mean": 0.0}

    def test_higher_better_metric(self):
        diffs = relative_perf_diff(
            self.recs("f1", {"onehot": [0.9], "mean": [0.6]})
        )
        assert diffs == {"onehot": 0.0, "mean": pytest.approx(0.3 / 0.9)}

    def test_zero_best_flagged_not_crashed(self):
        diffs = relative_perf_diff(
            self.recs("rmse", {"truth": [0.0], "mean": [0.5], "zero": [0.0, 0.0]})
        )
        assert list(diffs) == ["truth", "mean", "zero"]
        assert diffs["truth"] == diffs["zero"] == 0.0
        assert math.isnan(diffs["mean"])

    def test_mixed_slices_rejected(self):
        mixed = self.recs("rmse", {"a": [1.0]}) + self.recs("f1", {"a": [1.0]})
        with pytest.raises(ValueError):
            relative_perf_diff(mixed)


@given(
    n=st.integers(min_value=1, max_value=60),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_f1_matches_brute_force_and_stays_bounded(n, seed):
    rng = np.random.default_rng(seed)
    y_true = rng.integers(0, 2, n)
    y_pred = rng.integers(0, 2, n)
    got = f1_score(y_true, y_pred)
    assert got == pytest.approx(brute_f1(y_true, y_pred), abs=1e-12)
    assert 0.0 <= got <= 1.0
