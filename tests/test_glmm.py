"""Random-intercept encoder: fixed points, signs, and degenerate collapses."""

import numpy as np
import pytest

from catenc.encoders import EncoderSpec, fit, fit_glmm, transform


def random_grouped(seed, n_levels=6, lo=3, hi=40, spread=2.0, noise=1.0):
    rng = np.random.default_rng(seed)
    column = []
    target = []
    for k in range(n_levels):
        count = int(rng.integers(lo, hi))
        column += [f"g{k}"] * count
        target += list(rng.normal(loc=spread * rng.normal(), scale=noise, size=count))
    return column, target


def blup_residual(fit_result, column, target):
    """How far the returned effects sit from the fixed-point formula
    w_k = m_k tau2 (ybar_k - mu) / (m_k tau2 + sigma2) at the returned estimates."""
    column = np.asarray(column)
    y = np.asarray(target, dtype=float)
    worst = 0.0
    for k, level in enumerate(fit_result.levels):
        mask = column == level
        m_k = float(mask.sum())
        ybar = float(y[mask].mean())
        denom = m_k * fit_result.tau2 + fit_result.sigma2
        want = m_k * fit_result.tau2 * (ybar - fit_result.mu) / denom
        worst = max(worst, abs(want - fit_result.effects[k]))
    return worst


class TestFixedPoint:
    @pytest.mark.parametrize("seed", range(8))
    def test_effects_satisfy_blup_identity(self, seed):
        column, target = random_grouped(seed)
        res = fit_glmm(column, target)
        assert blup_residual(res, column, target) < 1e-9

    def test_identity_holds_even_when_iteration_cap_hits(self):
        column, target = random_grouped(3)
        res = fit_glmm(column, target, max_iter=2)
        assert not res.converged
        assert blup_residual(res, column, target) < 1e-9

    def test_variance_components_nonnegative(self):
        for seed in range(5):
            column, target = random_grouped(seed, noise=0.01)
            res = fit_glmm(column, target)
            assert res.tau2 >= 0.0
            assert res.sigma2 > 0.0


class TestSignsAndScale:
    def test_higher_group_mean_higher_effect(self):
        column = ["hi"] * 50 + ["lo"] * 50 + ["mid"] * 50
        rng = np.random.default_rng(1)
        target = (
            list(rng.normal(2.0, 0.3, 50))
            + list(rng.normal(-2.0, 0.3, 50))
            + list(rng.normal(0.0, 0.3, 50))
        )
        res = fit_glmm(column, target)
        effect = dict(zip(res.levels, res.effects))
        assert effect["lo"] < effect["mid"] < effect["hi"]
        assert effect["hi"] == pytest.approx(2.0, abs=0.3)
        assert effect["lo"] == pytest.approx(-2.0, abs=0.3)

    def test_large_separated_groups_approach_their_offsets(self):
        # with many observations per level, shrinkage toward zero becomes negligible
        rng = np.random.default_rng(7)
        column, target = [], []
        offsets = {"a": -3.0, "b": 0.5, "c": 4.0}
        for level, off in offsets.items():
            column += [level] * 2000
            target += list(off + rng.normal(0, 1.0, 2000))
        res = fit_glmm(column, target)
        center = np.mean(list(offsets.values()))
        for k, level in enumerate(res.levels):
            assert res.effects[k] == pytest.approx(offsets[level] - center, abs=0.1)


class TestDegenerate:
    def test_equal_group_means_collapse_to_zero(self):
        column = ["a", "b", "c", "a", "b", "c"]
        target = [1.0, 1.0, 1.0, 3.0, 3.0, 3.0]
        res = fit_glmm(column, target)
        assert res.tau2 == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(res.effects, 0.0, atol=1e-9)

    def test_single_level(self):
        res = fit_glmm(["only"] * 10, list(np.arange(10.0)))
        np.testing.assert_allclose(res.effects, [0.0], atol=1e-9)
        assert res.mu == pytest.approx(4.5)

    def test_zero_noise_distinct_means(self):
        column = ["a"] * 4 + ["b"] * 4
        target = [1.0] * 4 + [5.0] * 4
        res = fit_glmm(column, target)
        # within-group variance hits its floor; effects go to the raw offsets
        np.testing.assert_allclose(res.effects, [-2.0, 2.0], atol=1e-5)


class TestEncoder:
    def test_level_map_carries_effects_and_unseen_is_zero(self):
        column, target = random_grouped(11)
        enc = fit(EncoderSpec("glmm"), column, target)
        res = enc.detail
        for k, level in enumerate(res.levels):
            assert enc.codes[enc.levels.index(level)][0] == res.effects[k]
        np.testing.assert_array_equal(transform(enc, ["never-seen"]), [[0.0]])

    def test_dispatcher_route(self):
        column, target = random_grouped(2)
        direct = fit_glmm(column, target)
        via = fit(EncoderSpec("glmm"), column, target)
        for k, level in enumerate(direct.levels):
            np.testing.assert_array_equal(direct.effects[k], via.codes[via.levels.index(level)][0])

    def test_spec_iteration_knobs_forwarded(self):
        column, target = random_grouped(4)
        enc = fit(EncoderSpec("glmm", glmm_max_iter=1), column, target)
        assert enc.detail.n_iter == 1
