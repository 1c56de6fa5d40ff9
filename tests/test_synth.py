import dataclasses

import numpy as np
import pytest

from catenc import models, synth
from catenc.data import ColumnKind, apply_pipeline, fit_pipeline
from catenc.encoders import EncoderSpec
from catenc.synth import (
    CLASSIFICATION_TRUTH,
    REGRESSION_TRUTH,
    SEASONS,
    SweepCell,
    SweepSummary,
    SynthConfig,
    generate_classification,
    generate_regression,
    run_aspl_sweep,
    summarize_sweep,
)
from catenc.metrics import accuracy, write_records_csv


class TestRegressionGenerator:
    def test_zero_noise_reproduces_truth_exactly(self):
        table = generate_regression(200, np.random.default_rng(0), sigma=0.0)
        y = table.target_values()
        for season, value in zip(table.column("season"), y):
            assert value == REGRESSION_TRUTH[season]

    def test_noise_centers_on_truth(self):
        table = generate_regression(40_000, np.random.default_rng(1), sigma=1.0)
        seasons = np.array(table.column("season"))
        y = table.target_values()
        for season, truth in REGRESSION_TRUTH.items():
            group = y[seasons == season]
            assert group.mean() == pytest.approx(truth, abs=3.0 / np.sqrt(group.size))

    def test_seasons_roughly_uniform(self):
        table = generate_regression(20_000, np.random.default_rng(2))
        seasons = list(table.column("season"))
        for s in SEASONS:
            assert seasons.count(s) / 20_000 == pytest.approx(0.25, abs=0.02)

    def test_deterministic_per_stream(self):
        a = generate_regression(50, np.random.default_rng(7))
        b = generate_regression(50, np.random.default_rng(7))
        assert list(a.column("season")) == list(b.column("season"))
        np.testing.assert_array_equal(a.target_values(), b.target_values())

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            generate_regression(0, np.random.default_rng(0))


class TestClassificationGenerator:
    def test_labels_binary_and_columns_present(self):
        table = generate_classification(500, np.random.default_rng(3))
        assert set(np.unique(table.target_values()).tolist()) == {0.0, 1.0}
        assert table.feature_names() == ["season", "phase"]
        assert table.task() == "classification"

    def test_zero_rows_refused(self):
        with pytest.raises(ValueError, match="need at least one row"):
            generate_classification(0, np.random.default_rng(0))

    def test_phase_range(self):
        table = generate_classification(5000, np.random.default_rng(4))
        phase = np.array(table.column("phase"))
        assert phase.min() >= -2.0
        assert phase.max() < 3.0

    def test_per_season_positive_rates(self):
        table = generate_classification(100_000, np.random.default_rng(5))
        seasons = np.array(table.column("season"))
        y = table.target_values()
        for season, truth in CLASSIFICATION_TRUTH.items():
            rate = y[seasons == season].mean()
            want = 0.6 if truth > 0 else 0.4
            assert rate == pytest.approx(want, abs=0.03)

    def test_class_prior_near_half(self):
        table = generate_classification(100_000, np.random.default_rng(6))
        assert 0.47 <= table.target_values().mean() <= 0.53

    def test_label_flips_with_phase_sign_structure(self):
        # phase 0.5 puts sin > 0, phase 1.5 puts sin < 0; check via planted rows
        table = generate_classification(2000, np.random.default_rng(8))
        seasons = np.array(table.column("season"))
        phase = np.array(table.column("phase"))
        y = table.target_values()
        in_first_hump = (phase > 0.05) & (phase < 0.95)
        spring_first = (seasons == "spring") & in_first_hump
        assert spring_first.any()
        np.testing.assert_array_equal(y[spring_first], 1.0)
        in_second = (phase > 1.05) & (phase < 1.95)
        spring_second = (seasons == "spring") & in_second
        np.testing.assert_array_equal(y[spring_second], 0.0)


class TestSweep:
    def small_config(self, problem):
        return SynthConfig(
            problem=problem, aspl_values=(5, 25), seeds_per_aspl=3, test_size=200
        )

    def test_row_count_and_pairing(self):
        cfg = self.small_config("regression")
        cells, summaries = run_aspl_sweep(cfg, "ridge", EncoderSpec("onehot"))
        # every (aspl, seed) yields the requested encoder plus its truth pair
        assert len(cells) == 2 * 3 * 2
        assert {c.encoder for c in cells} == {"onehot", "truth"}
        assert len(summaries) == 2 * 2
        assert all(c.metric == "mse" for c in cells)

    def test_oracle_swaps_season_for_its_true_effect_in_place(self):
        table = generate_classification(50, np.random.default_rng(2))
        oracle = synth._oracle(table, CLASSIFICATION_TRUTH)
        assert oracle.schema == (
            ("season", ColumnKind.NUMERIC),
            ("phase", ColumnKind.NUMERIC),
            ("label", ColumnKind.NUMERIC),
        )
        want = [CLASSIFICATION_TRUTH[season] for season in table.column("season")]
        assert oracle.column("season").tolist() == want
        assert oracle.column("phase") is table.column("phase")
        assert oracle.column("label") is table.column("label")

    # the truth cells the hand-built truth encoder scored before the truth run
    # became a pipeline run on the oracle table: same bits
    @pytest.mark.parametrize(
        "problem, model, encoder, want",
        [
            ("regression", "ridge", "onehot",
             ["0x1.a3e0ac228f972p-1", "0x1.aabf2f794e280p-1", "0x1.37d6798330346p+0", "0x1.b377838f87640p-1"]),
            ("classification", "tree", "mean",
             ["0x1.4000000000000p-1", "0x1.3333333333333p-1", "0x1.999999999999ap-2", "0x1.599999999999ap-1"]),
        ],
    )
    def test_truth_cells_keep_their_bits(self, problem, model, encoder, want):
        synth._truth_cells.cache_clear()
        cfg = SynthConfig(problem=problem, aspl_values=(5, 10), seeds_per_aspl=2, test_size=40)
        cells, _ = run_aspl_sweep(cfg, model, EncoderSpec(encoder))
        truth = [c for c in cells if c.encoder == "truth"]
        assert [(c.aspl, c.seed) for c in truth] == [(5, 0), (5, 1), (10, 0), (10, 1)]
        assert [float(c.value).hex() for c in truth] == want

    def test_sweep_deterministic(self):
        cfg = self.small_config("classification")
        a, _ = run_aspl_sweep(cfg, "tree", EncoderSpec("mean"))
        synth._truth_cells.cache_clear()  # so the second run computes its truth cells too
        b, _ = run_aspl_sweep(cfg, "tree", EncoderSpec("mean"))
        assert a == b

    def test_no_cells_summarize_to_no_rows(self):
        assert summarize_sweep([]) == []

    def test_repeated_aspl_values_rejected(self):
        # a repeated value would score each of its cells twice and count the copies
        # as independent seeds in the summary
        with pytest.raises(ValueError, match="distinct"):
            SynthConfig(aspl_values=(5, 10, 5))

    @pytest.mark.parametrize(
        "fields, error",
        [
            ({"problem": "ranking"}, "unknown problem 'ranking'"),
            ({"aspl_values": ()}, "aspl_values must be positive"),
            ({"aspl_values": (5, 0)}, "aspl_values must be positive"),
            ({"seeds_per_aspl": 0}, "seeds_per_aspl and test_size must be positive"),
            ({"test_size": 0}, "seeds_per_aspl and test_size must be positive"),
        ],
        ids=["problem", "no-aspl", "aspl-zero", "seeds", "test_size"],
    )
    def test_config_refusals(self, fields, error):
        with pytest.raises(ValueError, match=error):
            SynthConfig(**fields)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -1.0])
    def test_sigma_must_be_nonnegative_and_finite(self, sigma):
        # NaN used to run the sweep noise-free and inf to fail in the ridge CV
        msg = f"sigma must be nonnegative and finite, got {sigma}"
        with pytest.raises(ValueError, match=msg):
            SynthConfig(sigma=sigma)
        with pytest.raises(ValueError, match=msg):
            generate_regression(10, np.random.default_rng(0), sigma=sigma)

    @pytest.mark.parametrize("seed", [-1, -7])
    def test_negative_base_seed_is_refused_by_name(self, seed):
        # numpy's own refusal, "expected non-negative integer", names no option
        with pytest.raises(ValueError, match=f"^base_seed must be non-negative, got {seed}$"):
            SynthConfig(base_seed=seed)

    def test_truth_rows_have_zero_gap(self):
        cfg = self.small_config("regression")
        _, summaries = run_aspl_sweep(cfg, "ridge", EncoderSpec("ordinal"))
        for s in summaries:
            if s.encoder == "truth":
                assert s.gap_to_best == 0.0

    def test_gap_signs_orient_worse_as_positive(self):
        # ordinal codes order the seasons 1..4 while truth alternates +1/-1;
        # at tiny ASPL the mismatch guarantees a worse-than-truth accuracy
        cfg = SynthConfig(
            problem="classification", aspl_values=(5,), seeds_per_aspl=5, test_size=300
        )
        _, summaries = run_aspl_sweep(cfg, "forest", EncoderSpec("ordinal"))
        by_enc = {s.encoder: s for s in summaries}
        assert by_enc["ordinal"].gap_to_best >= 0.0
        assert by_enc["ordinal"].mean <= by_enc["truth"].mean

    def test_ci_brackets_mean(self):
        cfg = self.small_config("regression")
        _, summaries = run_aspl_sweep(cfg, "ridge", EncoderSpec("onehot"))
        for s in summaries:
            assert s.ci95_low <= s.mean <= s.ci95_high
            assert s.sd >= 0.0

    def test_regression_truth_mse_near_noise_floor(self):
        cfg = SynthConfig(
            problem="regression", aspl_values=(100,), seeds_per_aspl=5, test_size=500
        )
        _, summaries = run_aspl_sweep(cfg, "ridge", EncoderSpec("onehot"))
        truth = [s for s in summaries if s.encoder == "truth"][0]
        assert truth.mean == pytest.approx(1.0, abs=0.3)

    def test_model_task_mismatch_rejected(self, monkeypatch):
        # before any table is drawn or pipeline fit: the refusal used to come
        # from fit_models, after a table per seed was drawn and its pipelines fit
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep drew a table or fit a pipeline")

        monkeypatch.setattr(synth, "generate_classification", refuse)
        monkeypatch.setattr(synth, "fit_pipeline", refuse)
        with pytest.raises(ValueError, match="^ridge is regression-only$"):
            run_aspl_sweep(self.small_config("classification"), "ridge", EncoderSpec("onehot"))

    def test_csv_headers(self, tmp_path):
        cfg = self.small_config("regression")
        cells, summaries = run_aspl_sweep(cfg, "ridge", EncoderSpec("onehot"))
        cpath = tmp_path / "cells.csv"
        spath = tmp_path / "summary.csv"
        write_records_csv(str(cpath), SweepCell, cells)
        write_records_csv(str(spath), SweepSummary, summaries)
        assert cpath.read_text().splitlines()[0] == "problem,encoder,model,aspl,seed,metric,value"
        header = spath.read_text().splitlines()[0]
        for field in ("aspl", "mean", "sd", "ci95_low", "ci95_high", "gap_to_best"):
            assert field in header
        assert len(cpath.read_text().splitlines()) == len(cells) + 1
        # every numeric cell must be a plain float literal, not a numpy repr
        for text in (cpath.read_text(), spath.read_text()):
            assert "np.float" not in text
            for line in text.splitlines()[1:]:
                float(line.rsplit(",", 1)[1])

    def test_summaries_recomputable_from_cells(self):
        cfg = self.small_config("regression")
        cells, summaries = run_aspl_sweep(cfg, "ridge", EncoderSpec("basen"))
        assert summarize_sweep(cells) == summaries


def counting_fits(monkeypatch) -> list[str]:
    """Record the learner name of every model the sweep fits: one per job it
    hands models.fit_models."""
    calls: list[str] = []
    real = synth.mod.fit_models

    def counting(name, task, jobs, **kwargs):
        for model in real(name, task, jobs, **kwargs):
            calls.append(name)
            yield model

    monkeypatch.setattr(synth.mod, "fit_models", counting)
    return calls


class TestTruthMemo:
    CFG = SynthConfig(problem="regression", aspl_values=(5, 10), seeds_per_aspl=2, test_size=60)

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        synth._truth_cells.cache_clear()

    def test_second_encoder_sweep_skips_the_truth_fits(self, monkeypatch):
        cfg = dataclasses.replace(self.CFG, problem="classification")
        calls = counting_fits(monkeypatch)
        run_aspl_sweep(cfg, "forest", EncoderSpec("sshrink"))
        run_aspl_sweep(cfg, "forest", EncoderSpec("mean"))
        # without the memo: 2 sweeps x 4 (a, s) cells x (encoder + truth) = 16 fits
        assert calls == ["forest"] * 12

    @pytest.mark.parametrize(
        "field, value, model",
        [
            ("problem", "classification", "tree"),
            ("base_seed", 1, "tree"),
            ("test_size", 61, "tree"),
            ("sigma", 2.0, "tree"),
            (None, None, "forest"),
        ],
    )
    def test_each_key_field_refits_the_truth_cell(self, monkeypatch, field, value, model):
        run_aspl_sweep(self.CFG, "tree", EncoderSpec("mean"))
        cfg = dataclasses.replace(self.CFG, **({field: value} if field else {}))
        calls = counting_fits(monkeypatch)
        cells, _ = run_aspl_sweep(cfg, model, EncoderSpec("mean"))
        assert len(calls) == len(cells) == 8
        calls.clear()
        run_aspl_sweep(cfg, model, EncoderSpec("ordinal"))
        assert len(calls) == 4  # and a repeat of that key hits

    def test_shared_truth_cells_equal_a_cold_run_bit_for_bit(self):
        cfg = dataclasses.replace(self.CFG, problem="classification")
        run_aspl_sweep(cfg, "forest", EncoderSpec("sshrink"))
        warm, warm_summary = run_aspl_sweep(cfg, "forest", EncoderSpec("mean"))
        synth._truth_cells.cache_clear()
        cold, cold_summary = run_aspl_sweep(cfg, "forest", EncoderSpec("mean"))
        assert [(c, float(c.value).hex()) for c in warm] == [(c, float(c.value).hex()) for c in cold]
        assert warm_summary == cold_summary


class TestBatchedSweep:
    """run_aspl_sweep grows an ASPL value's forests of equal widths in shared
    batches; every cell is the one a fit of its own scores."""

    CFG = SynthConfig(problem="classification", aspl_values=(5, 20), seeds_per_aspl=3, test_size=200, base_seed=4)

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        synth._truth_cells.cache_clear()

    def per_cell(self, spec: EncoderSpec) -> list[tuple]:
        """Each cell from one fit_model call on its own pipeline's matrix."""
        cfg = self.CFG
        test = generate_classification(cfg.test_size, np.random.default_rng([cfg.base_seed, synth._TEST_STREAM_SALT]))
        truth_test = synth._oracle(test, CLASSIFICATION_TRUTH)
        out = []
        for a in cfg.aspl_values:
            for s in range(cfg.seeds_per_aspl):
                train = generate_classification(4 * a, np.random.default_rng([cfg.base_seed, a, s]))
                runs = {spec.variant: (train, test), "truth": (synth._oracle(train, CLASSIFICATION_TRUTH), truth_test)}
                for name, (run_train, run_test) in runs.items():
                    pipeline, x = fit_pipeline(run_train, spec)
                    model = models.fit_model("forest", "classification", x, train.target_values(), s)
                    pred = models.predict(model, apply_pipeline(pipeline, run_test))
                    out.append((name, a, s, "accuracy", float(accuracy(test.target_values(), pred)).hex()))
        return out

    # sshrink's one code column is as wide as the truth code, so an ASPL
    # value's six forests share a batch; the one-hot block is wider
    @pytest.mark.parametrize("variant, batches", [("sshrink", [600] * 2), ("onehot", [300] * 4)])
    def test_cells_equal_per_cell_fits(self, monkeypatch, variant, batches):
        grown, grow = [], models._grow_trees

        def spy(*args):
            grown.append(args[2].shape[0])
            return grow(*args)

        monkeypatch.setattr(models, "_grow_trees", spy)
        cells, _ = run_aspl_sweep(self.CFG, "forest", EncoderSpec(variant))
        monkeypatch.undo()
        assert grown == batches  # trees per batch
        got = [(c.encoder, c.aspl, c.seed, c.metric, float(c.value).hex()) for c in cells]
        assert got == self.per_cell(EncoderSpec(variant))
