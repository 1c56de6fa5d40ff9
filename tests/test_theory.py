import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catenc.theory as theory_mod
from catenc.encoders import ENCODER_VARIANTS, EncoderSpec, fit, transform
from catenc.theory import (
    build_equivalent_onehot_weights,
    best_split_exhaustive,
    encoded_contributions,
    enumerate_level_splits,
    mean_code_split,
    split_impurity,
    verify_contiguity,
    verify_onehot_equivalence,
    verify_split_counts,
)


def random_map(rng, h, l):
    return rng.uniform(-1, 1, size=(h, l))


class TestOnehotUniversality:
    @pytest.mark.parametrize("variant", ["basen", "helmert", "ordinal", "mean", "minhash"])
    def test_onehot_reproduces_contributions_exactly(self, variant):
        rng = np.random.default_rng(17)
        column = [f"v{i}" for i in rng.integers(0, 5, 200)]
        target = list(rng.normal(size=200))
        enc = fit(EncoderSpec(variant), column, target)
        mapped = random_map(rng, h=3, l=enc.output_dim)

        onehot = fit(EncoderSpec("onehot"), column)
        oh_map = build_equivalent_onehot_weights(mapped, enc)

        za = encoded_contributions(mapped, enc, column)
        zb = encoded_contributions(oh_map, onehot, column)
        np.testing.assert_allclose(za, zb, atol=1e-12)

    def test_width_mismatch_rejected(self):
        enc = fit(EncoderSpec("onehot"), ["a", "b", "c"])
        with pytest.raises(ValueError):
            build_equivalent_onehot_weights(np.ones((2, 5)), enc)


class TestSplitEnumeration:
    @pytest.mark.parametrize("c,count", [(2, 1), (3, 3), (4, 7), (5, 15), (10, 511)])
    def test_counts(self, c, count):
        splits = enumerate_level_splits(c)
        assert len(splits) == count
        assert len(splits) == (2**c - 2) // 2

    def test_all_sides_contain_level_zero_and_are_proper(self):
        for split in enumerate_level_splits(5):
            assert 0 in split.left
            assert 0 < len(split.left) < 5
        lefts = [s.left for s in enumerate_level_splits(5)]
        assert len(set(lefts)) == len(lefts)

    @pytest.mark.parametrize("c", [1, 21])
    def test_out_of_range_guarded(self, c):
        with pytest.raises(ValueError):
            enumerate_level_splits(c)


class TestBestSplit:
    def test_exhaustive_finds_planted_partition(self):
        # levels {a, c} sit at y ~ 0 and {b, d} at y ~ 10: the optimal split is forced
        column = ["a", "b", "c", "d"] * 25
        rng = np.random.default_rng(0)
        base = {"a": 0.0, "b": 10.0, "c": 0.1, "d": 9.9}
        y = [base[v] + 0.01 * rng.normal() for v in column]
        best = best_split_exhaustive(column, y, "mse")
        assert best.left == (0, 2)

    def test_contiguous_matches_exhaustive_on_random_real_targets(self):
        rng = np.random.default_rng(5)
        for trial in range(30):
            c = int(rng.integers(2, 7))
            n = int(rng.integers(c, 60))
            column = [f"v{i}" for i in range(c)] + [
                f"v{int(rng.integers(0, c))}" for _ in range(n)
            ]
            y = rng.normal(size=len(column))
            exh = best_split_exhaustive(column, y, "mse")
            contig = mean_code_split(column, y, "mse")
            assert contig.impurity == pytest.approx(exh.impurity, abs=1e-12), trial

    def test_contiguous_candidate_set_is_prefixes_only(self):
        column = ["a"] * 5 + ["b"] * 5 + ["c"] * 5
        y = [0.0] * 5 + [5.0] * 5 + [1.0] * 5
        best = mean_code_split(column, y, "mse")
        # sorted means: a (0) < c (1) < b (5); the best prefix splits off {b}
        assert best.left == (0, 2)

    def test_tied_means_explored_via_block_orderings(self):
        # means: a=1, b=1, c=1 -- all tied, so every bipartition's sides keep
        # the parent mean and no split beats the parent impurity; the tree on
        # the one tied code makes no split, which reaches that optimum
        column = ["a"] * 4 + ["b"] * 2 + ["c"] * 4
        y = [0.0, 0.0, 2.0, 2.0] + [1.0, 1.0] + [1.0, 1.0, 1.0, 1.0]
        exh = best_split_exhaustive(column, y, "mse")
        covered = mean_code_split(column, y, "mse").impurity
        assert covered == pytest.approx(exh.impurity, abs=1e-12)

    def test_mean_code_split_puts_level_zero_on_the_left(self):
        # level a (index 0) has the higher mean, so the tree's <= side is {b}
        column = ["a", "a", "b", "b", "b"]
        y = [1.0, 1.0, 0.0, 0.0, 1.0]
        split = mean_code_split(column, y, "gini")
        assert split.left == (0,)
        assert split.impurity == pytest.approx(best_split_exhaustive(column, y, "gini").impurity, abs=1e-12)

    def test_mean_code_split_without_a_split_keeps_every_level_left(self):
        column = ["a", "b", "c", "a"]
        split = mean_code_split(column, [1.0, 1.0, 1.0, 1.0], "entropy")
        assert split.left == (0, 1, 2)
        assert split.impurity == 0.0

    def test_split_impurity_binary_oracle(self):
        # left: 2 ones of 4 (gini .5); right: 1 one of 2 (gini .5)
        counts = np.array([4.0, 2.0])
        sums = np.array([2.0, 1.0])
        sumsq = sums.copy()
        got = split_impurity((0,), counts, sums, sumsq, "gini")
        assert got == pytest.approx(0.5)

    def test_single_level_rejected(self):
        with pytest.raises(ValueError):
            best_split_exhaustive(["a", "a"], [0.0, 1.0], "mse")


class TestVerifySuites:
    def test_onehot_equivalence_all_pass(self):
        rows = verify_onehot_equivalence(trials=25, seed=0)
        assert len(rows) == 25
        assert all(r.ok for r in rows)
        assert max(r.deviation for r in rows) < 1e-10

    def test_onehot_equivalence_fits_every_encoder_in_turn(self):
        rows = verify_onehot_equivalence(trials=len(ENCODER_VARIANTS), seed=3)
        assert [r.params.split()[1] for r in rows] == list(ENCODER_VARIANTS)

    @pytest.mark.parametrize("fault", ["reversed one-hot rows", "shifted row gather"])
    def test_onehot_equivalence_fails_on_a_broken_encoder(self, monkeypatch, fault):
        if fault == "reversed one-hot rows":
            def broken_fit(spec, column, target=None):
                enc = fit(spec, column, target)
                if spec.variant == "onehot":
                    enc.codes = enc.codes[::-1].copy()
                return enc
            monkeypatch.setattr(theory_mod, "fit", broken_fit)
        else:
            # both sides go through transform, so only the level-column check sees this
            monkeypatch.setattr(theory_mod, "transform", lambda enc, col: np.roll(transform(enc, col), 1, axis=0))
        rows = verify_onehot_equivalence(trials=len(ENCODER_VARIANTS), seed=0)
        assert not any(r.ok for r in rows)

    def test_split_count_rows_exact(self):
        rows = verify_split_counts(2, 8)
        assert len(rows) == 7
        assert all(r.ok and r.deviation == 0.0 for r in rows)

    def test_contiguity_all_pass(self):
        rows = verify_contiguity(instances=40, seed=1)
        main = [r for r in rows if r.name in ("contiguity-mse", "contiguity-entropy")]
        gini = [r for r in rows if r.name == "contiguity-gini"]
        assert len(main) == 40
        assert all(r.ok for r in rows)
        assert max(r.deviation for r in main) <= 1e-12
        assert len(gini) == 20
        assert max(abs(r.deviation) for r in gini) <= 1e-12

    def test_deterministic_per_seed(self):
        a = verify_onehot_equivalence(trials=5, seed=9)
        b = verify_onehot_equivalence(trials=5, seed=9)
        assert [(r.params, r.deviation) for r in a] == [(r.params, r.deviation) for r in b]

    @pytest.mark.parametrize("check", [verify_onehot_equivalence, verify_contiguity])
    def test_negative_seed_is_refused_by_name(self, check):
        # numpy's own refusal, "expected non-negative integer", names no option
        with pytest.raises(ValueError, match="^seed must be non-negative, got -3$"):
            check(1, seed=-3)


@given(c=st.integers(min_value=2, max_value=12))
@settings(max_examples=11, deadline=None)
def test_enumeration_count_closed_form(c):
    assert len(enumerate_level_splits(c)) == (2**c - 2) // 2


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    c=st.integers(min_value=2, max_value=6),
    impurity=st.sampled_from(["mse", "gini", "entropy"]),
)
@settings(max_examples=40, deadline=None)
def test_some_mean_ordering_always_reaches_the_exhaustive_optimum(seed, c, impurity):
    """The optimality guarantee behind mean encoding for tree splits: CART on
    the mean codes reaches the best of all bipartitions, ties included."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(c, 50))
    column = [f"v{i}" for i in range(c)] + [
        f"v{int(rng.integers(0, c))}" for _ in range(n)
    ]
    if impurity == "mse":
        y = np.round(rng.normal(size=len(column)), 1)  # rounding manufactures ties
    else:
        y = rng.integers(0, 2, size=len(column)).astype(float)
    exh = best_split_exhaustive(column, y, impurity)
    covered = mean_code_split(column, y, impurity).impurity
    assert covered <= exh.impurity + 1e-12
