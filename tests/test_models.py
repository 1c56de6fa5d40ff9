import numpy as np
import pytest

from catenc import models
from catenc.models import (
    MLP_DEFAULTS,
    RIDGE_ALPHAS,
    _node_impurity,
    fit_forest,
    fit_logistic,
    fit_mlp,
    fit_ridge,
    fit_tree,
    init_mlp,
    logistic_loss_and_grad,
    mlp_loss_and_grads,
    predict,
    predict_forest_proba,
    predict_proba,
    predict_tree,
    train_mlp,
)


def linear_data(n=200, p=4, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    w = np.arange(1.0, p + 1.0)
    y = x @ w + 0.5 + noise * rng.normal(size=n)
    return x, y, w


class TestRidge:
    def test_noiseless_recovery_at_smallest_alpha(self):
        x, y, w = linear_data(n=500)
        model = fit_ridge(x, y)
        assert model.alpha == 0.1
        np.testing.assert_allclose(model.weights, w, atol=1e-3)
        assert np.mean((predict(model, x) - y) ** 2) < 1e-4

    def test_matches_augmented_least_squares(self):
        x, y, _ = linear_data(n=60, p=3, noise=0.5, seed=4)
        alpha = 7.5
        model = fit_ridge(x, y, alphas=[alpha])
        xc = x - x.mean(axis=0)
        yc = y - y.mean()
        aug_x = np.vstack([xc, np.sqrt(alpha) * np.eye(3)])
        aug_y = np.concatenate([yc, np.zeros(3)])
        ref, *_ = np.linalg.lstsq(aug_x, aug_y, rcond=None)
        np.testing.assert_allclose(model.weights, ref, atol=1e-10)
        assert model.intercept == pytest.approx(
            y.mean() - x.mean(axis=0) @ model.weights
        )

    def test_selected_alpha_comes_from_candidate_grid(self):
        x, y, _ = linear_data(n=50, noise=2.0, seed=9)
        assert fit_ridge(x, y).alpha in RIDGE_ALPHAS

    def test_selection_is_deterministic(self):
        x, y, _ = linear_data(n=80, noise=1.0, seed=2)
        assert fit_ridge(x, y).alpha == fit_ridge(x, y).alpha

    def test_heavier_penalty_shrinks_norm(self):
        x, y, _ = linear_data(n=40, noise=1.0, seed=5)
        small = fit_ridge(x, y, alphas=[0.01])
        large = fit_ridge(x, y, alphas=[100.0])
        assert np.linalg.norm(large.weights) < np.linalg.norm(small.weights)


class TestLogistic:
    def make_problem(self, n=400, seed=3):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 3))
        logits = x @ np.array([1.5, -2.0, 0.5]) + 0.25
        y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-logits))).astype(float)
        return x, y

    def test_gradient_small_at_solution(self):
        x, y = self.make_problem()
        model = fit_logistic(x, y)
        params = np.concatenate([model.weights, [model.intercept]])
        _, grad = logistic_loss_and_grad(params, x, y, c=1.0)
        assert np.max(np.abs(grad)) < 1e-6
        assert model.converged

    def test_finite_difference_gradient(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 4))
        y = (rng.uniform(size=30) < 0.5).astype(float)
        params = rng.normal(size=5) * 0.3
        _, grad = logistic_loss_and_grad(params, x, y, c=2.0)
        h = 1e-6
        for i in range(5):
            bump = np.zeros(5)
            bump[i] = h
            lo, _ = logistic_loss_and_grad(params - bump, x, y, c=2.0)
            hi, _ = logistic_loss_and_grad(params + bump, x, y, c=2.0)
            assert (hi - lo) / (2 * h) == pytest.approx(grad[i], rel=1e-5, abs=1e-8)

    def test_recovers_generating_coefficients(self):
        x, y = self.make_problem(n=20000, seed=8)
        model = fit_logistic(x, y, c=1e6)
        np.testing.assert_allclose(model.weights, [1.5, -2.0, 0.5], atol=0.1)
        assert model.intercept == pytest.approx(0.25, abs=0.1)

    def test_probabilities_bounded_and_labels_binary(self):
        x, y = self.make_problem(n=120)
        model = fit_logistic(x, y)
        proba = predict_proba(model, x)
        assert np.all((proba > 0) & (proba < 1))
        assert set(np.unique(predict(model, x))) <= {0.0, 1.0}

    def test_separable_data_stays_finite_via_penalty(self):
        x = np.linspace(-1, 1, 20).reshape(-1, 1)
        y = (x[:, 0] > 0).astype(float)
        model = fit_logistic(x, y, c=1.0)
        assert np.isfinite(model.weights).all()

    def test_failed_line_search_keeps_current_parameters(self, monkeypatch):
        x, y = self.make_problem(n=60)
        real = models.logistic_loss_and_grad

        def reversed_gradient(params, x, y, c):
            # true loss, negated gradient: every Newton trial step goes uphill
            loss, grad = real(params, x, y, c)
            return loss, -grad

        monkeypatch.setattr(models, "logistic_loss_and_grad", reversed_gradient)
        model = fit_logistic(x, y)
        params = np.concatenate([model.weights, [model.intercept]])
        start_loss, _ = real(np.zeros(4), x, y, 1.0)
        assert real(params, x, y, 1.0)[0] <= start_loss
        assert not model.converged

    def test_rejects_bad_labels(self):
        x = np.zeros((4, 1))
        with pytest.raises(ValueError):
            fit_logistic(x, np.array([0.0, 1.0, 2.0, 0.0]))
        with pytest.raises(ValueError):
            fit_logistic(x, np.ones(4))


class TestMLP:
    def test_init_shapes_and_glorot_bounds(self):
        model = init_mlp(7, "regression", seed=0, hidden=50)
        assert model.w1.shape == (7, 50)
        assert model.w2.shape == (50, 1)
        np.testing.assert_array_equal(model.b1, 0.0)
        np.testing.assert_array_equal(model.b2, 0.0)
        bound1 = np.sqrt(6.0 / (7 + 50))
        assert np.max(np.abs(model.w1)) <= bound1
        assert np.max(np.abs(model.w2)) <= np.sqrt(6.0 / (50 + 1))

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_finite_difference_gradients(self, task):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(9, 3))
        y = (rng.uniform(size=9) < 0.5).astype(float) if task == "classification" else rng.normal(size=9)
        model = init_mlp(3, task, seed=2, hidden=5)
        _, grads = mlp_loss_and_grads(model, x, y, l2=1e-3)
        h = 1e-5
        params = model.params()
        for pi, (param, grad) in enumerate(zip(params, grads)):
            flat = param.ravel()
            for j in range(flat.size):
                keep = flat[j]
                flat[j] = keep + h
                hi, _ = mlp_loss_and_grads(model, x, y, l2=1e-3)
                flat[j] = keep - h
                lo, _ = mlp_loss_and_grads(model, x, y, l2=1e-3)
                flat[j] = keep
                fd = (hi - lo) / (2 * h)
                assert fd == pytest.approx(grad.ravel()[j], rel=1e-4, abs=1e-7), (
                    f"param {pi} entry {j}"
                )

    def test_same_seed_same_fit(self):
        x, y, _ = linear_data(n=60, p=3, noise=0.3, seed=6)
        a = fit_mlp(x, y, "regression", seed=5, epochs=20)
        b = fit_mlp(x, y, "regression", seed=5, epochs=20)
        np.testing.assert_array_equal(predict(a, x), predict(b, x))

    def test_different_seed_different_fit(self):
        x, y, _ = linear_data(n=60, p=3, noise=0.3, seed=6)
        a = fit_mlp(x, y, "regression", seed=5, epochs=20)
        b = fit_mlp(x, y, "regression", seed=6, epochs=20)
        assert not np.array_equal(predict(a, x), predict(b, x))

    def test_training_reduces_loss(self):
        x, y, _ = linear_data(n=150, p=2, noise=0.1, seed=7)
        model = init_mlp(2, "regression", seed=3)
        before, _ = mlp_loss_and_grads(model, x, y, l2=0.0)
        train_mlp(model, x, y, seed=4, epochs=200)
        after, _ = mlp_loss_and_grads(model, x, y, l2=0.0)
        assert after < before * 0.2

    def test_classification_outputs_probabilities(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(80, 2))
        y = (x[:, 0] + x[:, 1] > 0).astype(float)
        model = fit_mlp(x, y, "classification", seed=0, epochs=50)
        proba = predict_proba(model, x)
        assert np.all((proba >= 0) & (proba <= 1))
        assert np.mean(predict(model, x) == y) > 0.8

    def test_default_knobs(self):
        assert MLP_DEFAULTS["hidden"] == 100
        assert MLP_DEFAULTS["epochs"] == 200
        assert MLP_DEFAULTS["lr"] == pytest.approx(1e-3)


class TestImpurity:
    def test_oracles(self):
        y = np.array([0.0, 1.0])
        assert _node_impurity(y, "gini") == pytest.approx(0.5)
        assert _node_impurity(y, "entropy") == pytest.approx(np.log(2.0))
        assert _node_impurity(np.array([1.0, 3.0]), "mse") == pytest.approx(1.0)

    def test_pure_nodes_are_zero(self):
        y = np.ones(5)
        for kind in ("gini", "entropy", "mse"):
            assert _node_impurity(y, kind) == 0.0


class TestTree:
    def test_root_split_at_midpoint_between_classes(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        root = fit_tree(x, y, impurity="gini", min_samples_split=2)
        assert root.feature == 0
        assert root.threshold == pytest.approx(2.5)
        assert root.left.value == 0.0
        assert root.right.value == 1.0
        np.testing.assert_array_equal(predict_tree(root, x), y)

    def test_min_samples_split_stops_growth(self):
        x = np.arange(9.0).reshape(-1, 1)
        y = (x[:, 0] > 4).astype(float)
        root = fit_tree(x, y, impurity="gini", min_samples_split=10)
        assert root.is_leaf
        assert root.value == pytest.approx(4.0 / 9.0)

    def test_max_depth_zero_is_single_leaf(self):
        x, y, _ = linear_data(n=30, p=2, seed=1)
        root = fit_tree(x, y, max_depth=0)
        assert root.is_leaf
        assert root.value == pytest.approx(y.mean())

    def test_tie_prefers_lowest_feature_index(self):
        base = np.array([1.0, 2.0, 3.0, 4.0])
        x = np.column_stack([base, base])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        root = fit_tree(x, y, impurity="gini", min_samples_split=2)
        assert root.feature == 0

    def test_deep_tree_memorizes_distinct_points(self):
        rng = np.random.default_rng(3)
        x = rng.permutation(40).astype(float).reshape(-1, 1)
        y = rng.normal(size=40)
        root = fit_tree(x, y, max_depth=None, min_samples_split=2)
        np.testing.assert_allclose(predict_tree(root, x), y, atol=1e-12)

    def test_constant_feature_makes_leaf(self):
        x = np.ones((20, 1))
        y = np.arange(20.0)
        root = fit_tree(x, y, min_samples_split=2)
        assert root.is_leaf

    def test_predictions_constant_within_leaf_regions(self):
        x, y, _ = linear_data(n=100, p=1, noise=0.2, seed=8)
        root = fit_tree(x, y, max_depth=3, min_samples_split=2)
        got = predict_tree(root, x)
        # at depth <= 3 there are at most 8 distinct leaf values
        assert np.unique(got).size <= 8


class TestForest:
    def easy_classification(self, n=120, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 3))
        y = (x[:, 0] > 0).astype(float)
        return x, y

    def test_same_seed_reproduces(self):
        x, y = self.easy_classification()
        a = fit_forest(x, y, "classification", n_trees=10, seed=4)
        b = fit_forest(x, y, "classification", n_trees=10, seed=4)
        np.testing.assert_array_equal(
            predict_forest_proba(a, x), predict_forest_proba(b, x)
        )

    def test_no_randomness_collapses_to_single_tree(self):
        x, y = self.easy_classification(n=60)
        forest = fit_forest(
            x, y, "classification", n_trees=5, seed=0,
            bootstrap=False, subsample_features=False, min_samples_split=2,
        )
        tree = fit_tree(x, y, impurity="gini", max_depth=None, min_samples_split=2)
        np.testing.assert_array_equal(
            predict_forest_proba(forest, x),
            (predict_tree(tree, x) >= 0.5).astype(float),
        )

    def test_classification_proba_is_vote_fraction(self):
        x, y = self.easy_classification()
        forest = fit_forest(x, y, "classification", n_trees=9, seed=1)
        proba = predict_forest_proba(forest, x)
        np.testing.assert_allclose((proba * 9) % 1.0, 0.0, atol=1e-12)
        assert np.all((proba >= 0) & (proba <= 1))
        labels = predict(forest, x)
        np.testing.assert_array_equal(labels, (proba >= 0.5).astype(float))
        assert np.mean(labels == y) > 0.9

    def test_regression_predictions_track_target(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-2, 2, size=(150, 1))
        y = np.sin(x[:, 0])
        forest = fit_forest(x, y, "regression", n_trees=20, seed=2, min_samples_split=5)
        got = predict(forest, x)
        assert np.mean((got - y) ** 2) < 0.05

    def test_rejects_unknown_task(self):
        with pytest.raises(ValueError):
            fit_forest(np.zeros((4, 1)), np.zeros(4), "ranking")
