import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catenc.encoders import (
    ENCODER_VARIANTS,
    Categorical,
    EncoderSpec,
    FittedEncoder,
    compute_group_stats,
    contrast_matrix,
    fit,
    gram_set,
    minhash_signature,
    ngram_overlap,
    output_dim,
    shrink_factors,
    transform,
)

ABCD = ["a", "b", "c", "d"]


def saturated_fit(codes: np.ndarray, means: np.ndarray):
    """Least-squares coefficients of group means on [1 | contrast codes].

    With c levels and a (c x (c-1)) full-rank contrast, the saturated system is
    square and the solution is exact: the intercept plus per-column weights that
    reproduce every group mean.
    """
    design = np.column_stack([np.ones(len(means)), codes])
    beta, *_ = np.linalg.lstsq(design, means, rcond=None)
    return beta[0], beta[1:]


class TestLevelTable:
    def test_first_appearance_order(self):
        enc = fit(EncoderSpec("onehot"), ["b", "a", "b", "c", "a"])
        assert enc.levels == ("b", "a", "c")
        assert enc.levels.index("c") == 2

    def test_non_string_rejected(self):
        with pytest.raises(TypeError):
            fit(EncoderSpec("onehot"), ["a", 3])


class TestCategorical:
    @settings(max_examples=200, deadline=None)
    @given(
        cells=st.lists(st.none() | st.text(alphabet="abc", max_size=2), min_size=1, max_size=30),
        data=st.data(),
    )
    def test_row_subset_is_canonical_and_fits_like_its_cells(self, cells, data):
        rows = data.draw(st.lists(st.integers(0, len(cells) - 1), max_size=40))
        sub = Categorical.of(cells)[rows]
        decoded = [cells[i] for i in rows]
        assert list(sub) == decoded
        assert sub.levels == tuple(dict.fromkeys(v for v in decoded if v is not None))
        present = [i for i in rows if cells[i] is not None]
        if not present:
            return
        col = Categorical.of(cells)[present]
        target = data.draw(st.lists(st.floats(-100, 100), min_size=len(present), max_size=len(present)))
        for variant in ("onehot", "count", "mean", "glmm"):
            got = fit(EncoderSpec(variant), col, target)
            want = fit(EncoderSpec(variant), list(col), target)
            assert got.levels == want.levels
            assert got.codes.tobytes() == want.codes.tobytes()

    def test_constructor_drops_absent_levels_and_renumbers(self):
        col = Categorical(("x", "y", "z"), [2, -1, 0, 2])
        assert col.levels == ("z", "x")
        np.testing.assert_array_equal(col.codes, [0, -1, 1, 0])
        assert col[1] is None and col[3] == "z"

    def test_constructor_rejects_bad_codes_and_repeated_levels(self):
        with pytest.raises(ValueError):
            Categorical(("x",), [0, 1])
        with pytest.raises(ValueError):
            Categorical(("x",), [-2])
        with pytest.raises(ValueError):
            Categorical(("x", "x"), [0, 1])

    def test_missing_cells_must_be_imputed_before_fit_and_transform(self):
        with pytest.raises(ValueError, match="impute"):
            fit(EncoderSpec("onehot"), ["a", None])
        with pytest.raises(ValueError, match="impute"):
            transform(fit(EncoderSpec("onehot"), ["a"]), [None])


class TestOnehot:
    def test_identity_codes(self):
        enc = fit(EncoderSpec("onehot"), ABCD)
        np.testing.assert_array_equal(
            np.stack([enc.codes[enc.levels.index(v)] for v in ABCD]), np.eye(4)
        )

    def test_unseen_is_zero_vector(self):
        enc = fit(EncoderSpec("onehot"), ABCD)
        np.testing.assert_array_equal(transform(enc, ["e"]), np.zeros((1, 4)))


class TestBaseN:
    def test_base2_codes_for_four_levels(self):
        # width 3 because 2**3 = 8 >= 4 + 1 (index 0 reserved for unseen)
        enc = fit(EncoderSpec("basen", base=2), ABCD)
        assert enc.output_dim == 3
        expected = {
            "a": [0, 0, 1],
            "b": [0, 1, 0],
            "c": [0, 1, 1],
            "d": [1, 0, 0],
        }
        for level, digits in expected.items():
            np.testing.assert_array_equal(enc.codes[enc.levels.index(level)], digits)
        np.testing.assert_array_equal(enc.unseen_policy, np.zeros(3))

    @pytest.mark.parametrize(
        "cardinality,base,width",
        [(1, 2, 1), (3, 2, 2), (7, 2, 3), (8, 2, 4), (26, 3, 3), (80, 3, 4), (255, 16, 2)],
    )
    def test_width_is_smallest_power_covering_levels_plus_reserved(self, cardinality, base, width):
        column = [f"v{i}" for i in range(cardinality)]
        assert fit(EncoderSpec("basen", base=base), column).output_dim == width

    def test_codes_are_distinct(self):
        enc = fit(EncoderSpec("basen", base=3), [f"v{i}" for i in range(37)])
        seen = {tuple(code) for code in enc.codes}
        assert len(seen) == 37
        assert tuple(np.zeros(enc.output_dim)) not in seen


class TestContrast:
    def test_sum_matrix_c4(self):
        expected = np.array(
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]], dtype=float
        )
        np.testing.assert_array_equal(contrast_matrix(4, "sum"), expected)

    def test_helmert_matrix_c4(self):
        expected = np.array(
            [[-1, -1, -1], [1, -1, -1], [0, 2, -1], [0, 0, 3]], dtype=float
        )
        np.testing.assert_array_equal(contrast_matrix(4, "helmert"), expected)

    def test_backdiff_matrix_c4(self):
        expected = np.array(
            [
                [-0.75, -0.50, -0.25],
                [0.25, -0.50, -0.25],
                [0.25, 0.50, -0.25],
                [0.25, 0.50, 0.75],
            ]
        )
        np.testing.assert_allclose(contrast_matrix(4, "backdiff"), expected, atol=1e-15)

    @pytest.mark.parametrize("scheme", ["sum", "helmert", "backdiff"])
    @pytest.mark.parametrize("c", [2, 3, 5, 9])
    def test_full_column_rank(self, scheme, c):
        m = contrast_matrix(c, scheme)
        assert m.shape == (c, c - 1)
        assert np.linalg.matrix_rank(m) == c - 1

    def test_sum_regression_identity(self):
        means = np.array([3.0, -1.0, 4.5, 0.25, 2.0])
        b0, beta = saturated_fit(contrast_matrix(5, "sum"), means)
        assert b0 == pytest.approx(means.mean(), abs=1e-12)
        np.testing.assert_allclose(beta, means[:-1] - means.mean(), atol=1e-12)

    def test_backdiff_regression_identity(self):
        means = np.array([3.0, -1.0, 4.5, 0.25, 2.0])
        b0, beta = saturated_fit(contrast_matrix(5, "backdiff"), means)
        assert b0 == pytest.approx(means.mean(), abs=1e-12)
        np.testing.assert_allclose(beta, np.diff(means), atol=1e-12)

    def test_helmert_regression_identity(self):
        means = np.array([3.0, -1.0, 4.5, 0.25, 2.0])
        b0, beta = saturated_fit(contrast_matrix(5, "helmert"), means)
        assert b0 == pytest.approx(means.mean(), abs=1e-12)
        # column j compares level j+1 against the running mean of levels 1..j
        expected = [
            (means[j + 1] - means[: j + 1].mean()) / (j + 2) for j in range(4)
        ]
        np.testing.assert_allclose(beta, expected, atol=1e-12)

    def test_unseen_is_zero_vector(self):
        enc = fit(EncoderSpec("helmert"), ABCD)
        np.testing.assert_array_equal(transform(enc, ["zzz"]), np.zeros((1, 3)))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            contrast_matrix(4, "poly")


class TestOrdering:
    def test_ordinal_is_one_indexed_by_first_appearance(self):
        enc = fit(EncoderSpec("ordinal"), ["v", "u", "w", "u"])
        got = transform(enc, ["v", "u", "w", "missingx"])
        np.testing.assert_array_equal(got[:, 0], [1.0, 2.0, 3.0, 0.0])

    def test_count_encodes_training_frequency(self):
        enc = fit(EncoderSpec("count"), ["u", "v", "u", "u", "w", "v"])
        got = transform(enc, ["u", "v", "w", "zz"])
        np.testing.assert_array_equal(got[:, 0], [3.0, 2.0, 1.0, 0.0])


class TestSimilarity:
    def test_trigram_overlap_paris_parisian(self):
        assert ngram_overlap("Paris", "Parisian", 3) == 3

    def test_gram_set_window(self):
        assert gram_set("abc", (2, 4)) == frozenset({"ab", "bc", "abc"})

    def test_short_string_falls_back_to_itself(self):
        assert gram_set("x", (2, 4)) == frozenset({"x"})

    def test_rows_count_shared_grams_against_each_level(self):
        enc = fit(EncoderSpec("similarity", ngram_range=(2, 4)), ["Paris", "Rome"])
        row = enc.encode_fn("Paris")
        # Paris against itself: 4 bigrams + 3 trigrams + 2 quadgrams
        np.testing.assert_array_equal(row, [9.0, 0.0])

    def test_unseen_string_encoded_on_the_fly(self):
        enc = fit(EncoderSpec("similarity", ngram_range=(3, 3)), ["Paris", "Rome"])
        np.testing.assert_array_equal(transform(enc, ["Parisian"]), [[3.0, 0.0]])


@pytest.mark.parametrize("variant", ["similarity", "minhash"])
def test_transform_encodes_each_distinct_unseen_string_once(variant):
    enc = fit(EncoderSpec(variant), ["Paris", "Rome"])
    per_row = enc.encode_fn
    calls = []

    def counting(value):
        calls.append(value)
        return per_row(value)

    enc.encode_fn = counting
    column = ["Parisian", "Paris", "Romeo", "Parisian", "Romeo", "Rome", "Parisian"]
    got = transform(enc, column)
    assert calls == ["Parisian", "Romeo"]
    np.testing.assert_array_equal(got, np.stack([per_row(v) for v in column]))


def test_fitted_encoder_needs_one_code_row_per_level():
    levels = tuple(ABCD)
    with pytest.raises(ValueError):
        FittedEncoder("onehot", levels, np.eye(3), unseen_policy=np.zeros(3))
    with pytest.raises(ValueError):
        FittedEncoder("onehot", levels, np.eye(4), unseen_policy=np.zeros(3))
    with pytest.raises(ValueError, match="no levels"):
        FittedEncoder("onehot", (), np.zeros((0, 0)), unseen_policy=np.zeros(0))
    with pytest.raises(ValueError, match="distinct"):
        FittedEncoder("onehot", ("a", "a"), np.eye(2), unseen_policy=np.zeros(2))


class TestMinhash:
    def test_signature_deterministic_and_bounded(self):
        a = minhash_signature("strawberry", n_components=64, hash_seed=7)
        b = minhash_signature("strawberry", n_components=64, hash_seed=7)
        np.testing.assert_array_equal(a, b)
        assert np.all(a >= 0.0) and np.all(a < 1.0)

    def test_seed_changes_signature(self):
        a = minhash_signature("strawberry", hash_seed=0)
        b = minhash_signature("strawberry", hash_seed=1)
        assert not np.array_equal(a, b)

    def test_component_match_rate_approximates_gram_jaccard(self):
        pairs = [("london", "londonderry"), ("table", "cable"), ("alpha", "omega")]
        for a, b in pairs:
            ga, gb = gram_set(a, (2, 4)), gram_set(b, (2, 4))
            jaccard = len(ga & gb) / len(ga | gb)
            sa = minhash_signature(a, n_components=4096)
            sb = minhash_signature(b, n_components=4096)
            match = float(np.mean(sa == sb))
            assert match == pytest.approx(jaccard, abs=0.05)

    def test_fitted_encoder_handles_unseen(self):
        enc = fit(EncoderSpec("minhash", n_components=8), ["red", "green"])
        got = transform(enc, ["blue"])
        np.testing.assert_array_equal(got[0], minhash_signature("blue", n_components=8))


class TestTargetEncoders:
    COLUMN = ["u"] * 30 + ["v"] * 10 + ["w"]
    TARGET = [2.0] * 30 + [5.0] * 10 + [11.0]

    def stats(self):
        return compute_group_stats(self.COLUMN, self.TARGET)

    def test_group_stats(self):
        s = self.stats()
        np.testing.assert_array_equal(s.counts, [30, 10, 1])
        np.testing.assert_allclose(s.means, [2.0, 5.0, 11.0])
        assert s.prior_mean == pytest.approx(121.0 / 41.0)

    def test_mean_encoder_is_unshrunk(self):
        np.testing.assert_array_equal(shrink_factors(self.stats(), "mean", EncoderSpec("mean")), 1.0)

    def test_sshrink_logistic_in_count(self):
        b = shrink_factors(self.stats(), "sshrink", EncoderSpec("sshrink"))
        # 1 / (1 + exp(-(m - 20) / 10)) at m = 30, 10, 1
        np.testing.assert_allclose(
            b,
            [0.7310585786300049, 0.2689414213699951, 0.13010847436299786],
            rtol=1e-15,
        )

    def test_sshrink_half_at_first_threshold(self):
        stats = compute_group_stats(["u"] * 20 + ["v"], [1.0] * 20 + [0.0])
        b = shrink_factors(stats, "sshrink", EncoderSpec("sshrink"))
        assert b[0] == pytest.approx(0.5)

    def test_mestimate_ratio(self):
        b = shrink_factors(self.stats(), "mestimate", EncoderSpec("mestimate"))
        np.testing.assert_allclose(b, [30 / 31, 10 / 11, 1 / 2], rtol=1e-15)

    def test_encoding_blends_toward_prior(self):
        spec = EncoderSpec("mestimate")
        enc = fit(spec, self.COLUMN, self.TARGET)
        prior = 121.0 / 41.0
        want_u = (30 / 31) * 2.0 + (1 / 31) * prior
        assert enc.codes[enc.levels.index("u")][0] == pytest.approx(want_u, rel=1e-15)
        np.testing.assert_allclose(enc.unseen_policy, [prior])

    def test_jamesstein_matches_direct_formula(self):
        rng = np.random.default_rng(42)
        column = []
        target = []
        for k, count in enumerate([12, 25, 7, 40, 18]):
            column += [f"g{k}"] * count
            target += list(rng.normal(loc=k, scale=1.5, size=count))
        stats = compute_group_stats(column, target)
        b = shrink_factors(stats, "jamesstein", EncoderSpec("jamesstein"))

        c = len(stats.counts)
        m = stats.total_count
        pooled = stats.sse.sum() / (m - c)
        tau2 = np.var(stats.means, ddof=1)
        one_minus = ((c - 3) / (c - 1)) * (pooled / stats.counts) / (pooled / stats.counts + tau2)
        np.testing.assert_allclose(b, np.clip(1.0 - one_minus, 0.0, 1.0), rtol=1e-12)

    def test_jamesstein_degenerates_to_mean_below_four_levels(self):
        stats = compute_group_stats(["u"] * 5 + ["v"] * 5, [1.0] * 5 + [2.0] * 5)
        np.testing.assert_array_equal(
            shrink_factors(stats, "jamesstein", EncoderSpec("jamesstein")), 1.0
        )

    def test_jamesstein_identical_group_means_stay_unshrunk(self):
        # tau2 = 0 and sigma2 = 0 make the shrink ratio 0/0; resolve to no shrinkage
        column = ["a", "b", "c", "d", "e"] * 4
        target = [1.0] * 20
        stats = compute_group_stats(column, target)
        np.testing.assert_array_equal(
            shrink_factors(stats, "jamesstein", EncoderSpec("jamesstein")), 1.0
        )

    def test_unseen_level_gets_prior_mean(self):
        for scheme in ("mean", "sshrink", "mestimate", "jamesstein"):
            spec = EncoderSpec(scheme)
            enc = fit(spec, self.COLUMN, self.TARGET)
            got = transform(enc, ["martian"])
            np.testing.assert_allclose(got, [[121.0 / 41.0]])


class TestDispatcher:
    def test_every_variant_fits_and_transforms(self):
        rng = np.random.default_rng(0)
        column = [f"lvl{i}" for i in rng.integers(0, 6, 80)]
        target = list(rng.normal(size=80))
        for variant in ENCODER_VARIANTS:
            enc = fit(EncoderSpec(variant), column, target)
            got = transform(enc, column[:10])
            assert got.shape == (10, enc.output_dim)
            assert np.all(np.isfinite(got))

    def test_target_required_for_target_family(self):
        with pytest.raises(ValueError):
            fit(EncoderSpec("mean"), ["a", "b"])

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            EncoderSpec("woodwork")


@given(
    variant=st.sampled_from(ENCODER_VARIANTS),
    cardinality=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=60, deadline=None)
def test_output_dim_law(variant, cardinality):
    """Fitted width always agrees with the closed-form dimension rule."""
    column = [f"v{i}" for i in range(cardinality)]
    target = [float(i % 3) for i in range(cardinality)]
    spec = EncoderSpec(variant, base=3, n_components=7)
    closed_form = {
        "onehot": cardinality,
        "basen": len(np.base_repr(cardinality, base=3)),  # digits of the largest code, c
        "backdiff": cardinality - 1,
        "helmert": cardinality - 1,
        "sum": cardinality - 1,
        "similarity": cardinality,
        "minhash": 7,
    }.get(variant, 1)  # the ordering and target families code a level as one scalar
    enc = fit(spec, column, target)
    assert enc.output_dim == closed_form == output_dim(variant, cardinality, spec)
    assert transform(enc, column).shape == (cardinality, enc.output_dim)


@given(
    scheme=st.sampled_from(["sshrink", "mestimate"]),
    counts=st.lists(st.integers(min_value=1, max_value=400), min_size=2, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_shrink_weight_monotone_in_count(scheme, counts):
    """More observations never means trusting the level mean less."""
    column = []
    target = []
    for k, count in enumerate(counts):
        column += [f"g{k}"] * count
        target += [float(k)] * count
    stats = compute_group_stats(column, target)
    b = shrink_factors(stats, scheme, EncoderSpec(scheme))
    assert np.all(b >= 0.0) and np.all(b <= 1.0)
    order = np.argsort(stats.counts, kind="stable")
    assert np.all(np.diff(b[order]) >= -1e-15)
