import numpy as np
import pytest

from catenc import models
from catenc.models import (
    MLP_DEFAULTS,
    RIDGE_ALPHAS,
    Tree,
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
from catenc.theory import _side_impurity


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

    def test_cv_matches_a_solve_per_alpha_and_fold(self):
        def solve(x, y, alpha):
            x_mean, y_mean = x.mean(axis=0), y.mean()
            xc, yc = x - x_mean, y - y_mean
            w = np.linalg.solve(xc.T @ xc + alpha * np.eye(x.shape[1]), xc.T @ yc)
            return w, float(y_mean - x_mean @ w)

        rng = np.random.default_rng(11)
        alphas = (0.01, 0.1, 1.0, 10.0, 100.0)
        for _ in range(40):
            n, p = int(rng.integers(2, 60)), int(rng.integers(1, 5))
            x = rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0, size=p)
            y = x @ rng.normal(size=p) + rng.normal(scale=rng.uniform(0.1, 3.0), size=n)
            folds = np.arange(n) % min(5, n)
            best, best_err = None, np.inf
            for alpha in alphas:
                err = 0.0
                for f in range(min(5, n)):
                    mask = folds == f
                    w, b = solve(x[~mask], y[~mask], alpha)
                    resid = y[mask] - (x[mask] @ w + b)
                    err += float(resid @ resid)
                if err < best_err:
                    best, best_err = alpha, err
            w, b = solve(x, y, best)
            model = fit_ridge(x, y, alphas=alphas)
            assert model.alpha == best
            assert np.array_equal(model.weights, w)
            assert model.intercept == b


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


def side_impurity(y, kind):
    y = np.asarray(y, dtype=float)
    return _side_impurity(y.size, float(y.sum()), float(y @ y), kind)


class TestImpurity:
    def test_oracles(self):
        y = np.array([0.0, 1.0])
        assert side_impurity(y, "gini") == pytest.approx(0.5)
        assert side_impurity(y, "entropy") == pytest.approx(np.log(2.0))
        assert side_impurity(np.array([1.0, 3.0]), "mse") == pytest.approx(1.0)

    def test_pure_nodes_are_zero(self):
        y = np.ones(5)
        for kind in ("gini", "entropy", "mse"):
            assert side_impurity(y, kind) == 0.0


def brute_child_impurity(y: np.ndarray, k: int, impurity: str) -> float:
    """Size-weighted mean impurity of y[:k] and y[k:], from class shares or
    squared deviations of each side on its own (an empty side weighs 0)."""
    total = 0.0
    for side in (y[:k], y[k:]):
        if side.size == 0:
            continue
        if impurity == "mse":
            total += float(np.sum((side - side.mean()) ** 2))
            continue
        shares = [float(np.mean(side == c)) for c in (0.0, 1.0)]
        if impurity == "gini":
            total += side.size * (1.0 - sum(q * q for q in shares))
        else:
            total += side.size * -sum(q * np.log(q) for q in shares if q > 0.0)
    return total / y.size


class TestSplitScores:
    """models._split_scores, the score CART minimizes, against brute force."""

    @pytest.mark.parametrize("impurity", ["gini", "entropy", "mse"])
    @pytest.mark.parametrize("sizes", [(9,), (6, 11)])
    def test_every_position_matches_brute_force(self, impurity, sizes):
        rng = np.random.default_rng(len(sizes))
        n = sum(sizes)
        ys = rng.integers(0, 2, n).astype(float) if impurity != "mse" else np.round(rng.normal(size=n), 2)
        order = rng.permutation(n).astype(np.int32)  # positions -> sample ids, segment by segment
        sizes = np.array(sizes)
        lev = models._level(np.cumsum(sizes) - sizes, sizes)
        right_n = np.maximum(lev.size_of - lev.left_n, 1)
        got = models._split_scores(ys, order, lev, right_n, impurity)
        want = []
        for start, end in zip(lev.starts, lev.ends):
            seg = ys[order[start:end]]
            want += [brute_child_impurity(seg, k, impurity) for k in range(1, seg.size + 1)]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestTree:
    def test_root_split_at_midpoint_between_classes(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        tree = fit_tree(x, y, impurity="gini", min_samples_split=2)
        assert tree.feature[0] == 0
        assert tree.threshold[0] == pytest.approx(2.5)
        assert tree.value[tree.left[0]] == 0.0
        assert tree.value[tree.left[0] + 1] == 1.0
        np.testing.assert_array_equal(predict_tree(tree, x)[0], y)

    def test_min_samples_split_stops_growth(self):
        x = np.arange(9.0).reshape(-1, 1)
        y = (x[:, 0] > 4).astype(float)
        tree = fit_tree(x, y, impurity="gini", min_samples_split=10)
        assert tree.feature[0] == -1
        assert tree.value[0] == pytest.approx(4.0 / 9.0)

    def test_max_depth_zero_is_single_leaf(self):
        x, y, _ = linear_data(n=30, p=2, seed=1)
        tree = fit_tree(x, y, max_depth=0)
        assert tree.feature[0] == -1
        assert tree.value[0] == pytest.approx(y.mean())

    def test_tie_prefers_lowest_feature_index(self):
        base = np.array([1.0, 2.0, 3.0, 4.0])
        x = np.column_stack([base, base])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        tree = fit_tree(x, y, impurity="gini", min_samples_split=2)
        assert tree.feature[0] == 0

    def test_deep_tree_memorizes_distinct_points(self):
        rng = np.random.default_rng(3)
        x = rng.permutation(40).astype(float).reshape(-1, 1)
        y = rng.normal(size=40)
        tree = fit_tree(x, y, max_depth=None, min_samples_split=2)
        np.testing.assert_allclose(predict_tree(tree, x)[0], y, atol=1e-12)

    def test_constant_feature_makes_leaf(self):
        x = np.ones((20, 1))
        y = np.arange(20.0)
        tree = fit_tree(x, y, min_samples_split=2)
        assert tree.feature[0] == -1

    def test_predictions_constant_within_leaf_regions(self):
        x, y, _ = linear_data(n=100, p=1, noise=0.2, seed=8)
        tree = fit_tree(x, y, max_depth=3, min_samples_split=2)
        got = predict_tree(tree, x)[0]
        # at depth <= 3 there are at most 8 distinct leaf values
        assert np.unique(got).size <= 8

    def test_golden_preorder(self):
        x, y_class, y_reg = golden_data()
        for impurity, params, expected in GOLDEN_TREES:
            y = y_reg if impurity == "mse" else y_class
            got = preorder(fit_tree(x, y, impurity=impurity, **params))
            assert got == expected, (impurity, params)

    def test_golden_rounding_tie(self):
        # both features split row 0 from rows 1-3; their scores differ only in
        # rounding, and the recorded tree takes feature 1
        x = np.array([[-1.6919796285526016, 1.1621330618831873]] + [[-1.6649404825371965, -0.9663480613993847]] * 3)
        y = np.array([0.3083802150957182] + [0.10925376578447477] * 3)
        got = preorder(fit_tree(x, y, impurity="mse", max_depth=None, min_samples_split=2))
        assert got == [
            (1, 0.09789250024190133, 0.15903537811228563, 4),
            (None, None, 0.10925376578447477, 3),
            (None, None, 0.3083802150957182, 1),
        ]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["x", "y"])
    def test_rejects_non_finite_input(self, bad, where):
        x = np.arange(5.0).reshape(-1, 1)
        y = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
        if where == "x":
            x[2, 0] = bad
        else:
            y[2] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_tree(x, y, impurity="mse", max_depth=None, min_samples_split=2)
        with pytest.raises(ValueError, match="finite"):
            fit_forest(x, y, "regression", n_trees=2)

    def test_rejects_unknown_impurity_and_non_binary_labels(self):
        x = np.arange(4.0).reshape(-1, 1)
        with pytest.raises(ValueError, match="unknown impurity"):
            fit_tree(x, np.zeros(4), impurity="variance")
        for kind in ("gini", "entropy"):
            with pytest.raises(ValueError, match="0/1"):
                fit_tree(x, np.array([0.0, 1.0, 2.0, 1.0]), impurity=kind)

    @pytest.mark.parametrize("lo", [np.nextafter(1.0, 2.0), 1e308])
    def test_split_between_values_whose_midpoint_rounds_up(self, lo):
        # (lo + hi) / 2 rounds to hi for adjacent floats and overflows to inf
        # for huge ones; the split must still separate lo from hi
        hi = np.nextafter(lo, np.inf) if lo < 2.0 else 1.5e308
        x = np.array([[lo], [hi], [lo], [hi]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        tree = fit_tree(x, y, impurity="gini", max_depth=3, min_samples_split=2)
        assert tree.threshold[0] == lo
        assert (tree.n_samples[tree.left[0]], tree.n_samples[tree.left[0] + 1]) == (2, 2)
        np.testing.assert_array_equal(predict_tree(tree, x)[0], y)


def preorder(tree: Tree, t: int = 0) -> list[tuple]:
    """(feature, threshold, value, n_samples) of every node of tree t, parent
    before children; feature and threshold are None at a leaf."""
    out, stack = [], [tree.roots[t]]
    while stack:
        i = stack.pop()
        split = tree.feature[i] >= 0
        feature, threshold = (int(tree.feature[i]), float(tree.threshold[i])) if split else (None, None)
        out.append((feature, threshold, float(tree.value[i]), int(tree.n_samples[i])))
        if split:
            stack.extend([tree.left[i] + 1, tree.left[i]])
    return out


def forest_preorders(forest) -> list[list[tuple]]:
    """preorder of every tree of a forest, across its batches."""
    return [preorder(batch, t) for batch in forest.trees for t in range(batch.roots.shape[0])]


def golden_data():
    """26 rows, 3 features with tied values; rows 20-23 repeat rows 0-3 and
    rows 24-25 repeat the x of rows 4-5 with another target."""
    rng = np.random.default_rng(2024)
    n = 20
    x = np.column_stack([
        rng.integers(0, 4, n),
        np.round(rng.normal(size=n), 1),
        rng.integers(0, 2, n),
    ]).astype(float)
    y_class = ((x[:, 0] + x[:, 1] + rng.normal(size=n)) > 1.5).astype(float)
    y_reg = np.round(x[:, 0] * 0.3 + x[:, 1] + rng.normal(scale=0.5, size=n), 2)
    x = np.vstack([x, x[:4], x[4:6]])
    y_class = np.concatenate([y_class, y_class[:4], 1.0 - y_class[4:6]])
    y_reg = np.concatenate([y_reg, y_reg[:4], y_reg[4:6] + 0.1])
    return x, y_class, y_reg


#: Preorder of fit_tree on golden_data, recorded from the depth-first grower
#: that preceded the level-wise one; growth order must not change any tree.
GOLDEN_TREES = [
    ("gini", dict(max_depth=None, min_samples_split=2), [
        (0, 2.5, 0.4230769230769231, 26),
        (1, 0.8500000000000001, 0.3, 20),
        (1, -0.15, 0.17647058823529413, 17),
        (None, None, 0.0, 8),
        (1, 0.25, 0.3333333333333333, 9),
        (0, 0.5, 0.6666666666666666, 3),
        (None, None, 1.0, 1),
        (None, None, 0.5, 2),
        (1, 0.7, 0.16666666666666666, 6),
        (None, None, 0.0, 4),
        (None, None, 0.5, 2),
        (None, None, 1.0, 3),
        (1, -1.05, 0.8333333333333334, 6),
        (1, -1.35, 0.5, 2),
        (None, None, 1.0, 1),
        (None, None, 0.0, 1),
        (None, None, 1.0, 4),
    ]),
    ("gini", dict(max_depth=3, min_samples_split=2, min_samples_leaf=3), [
        (0, 2.5, 0.4230769230769231, 26),
        (1, 0.8500000000000001, 0.3, 20),
        (1, -0.15, 0.17647058823529413, 17),
        (None, None, 0.0, 8),
        (None, None, 0.3333333333333333, 9),
        (None, None, 1.0, 3),
        (1, -0.65, 0.8333333333333334, 6),
        (None, None, 0.6666666666666666, 3),
        (None, None, 1.0, 3),
    ]),
    ("entropy", dict(max_depth=None, min_samples_split=4), [
        (1, 0.8500000000000001, 0.4230769230769231, 26),
        (0, 2.5, 0.34782608695652173, 23),
        (1, -0.15, 0.17647058823529413, 17),
        (None, None, 0.0, 8),
        (1, 0.25, 0.3333333333333333, 9),
        (None, None, 0.6666666666666666, 3),
        (1, 0.7, 0.16666666666666666, 6),
        (None, None, 0.0, 4),
        (None, None, 0.5, 2),
        (1, -1.05, 0.8333333333333334, 6),
        (None, None, 0.5, 2),
        (None, None, 1.0, 4),
        (None, None, 1.0, 3),
    ]),
    ("entropy", dict(max_depth=3, min_samples_split=2, min_samples_leaf=3), [
        (1, 0.8500000000000001, 0.4230769230769231, 26),
        (0, 2.5, 0.34782608695652173, 23),
        (1, -0.15, 0.17647058823529413, 17),
        (None, None, 0.0, 8),
        (None, None, 0.3333333333333333, 9),
        (1, -0.65, 0.8333333333333334, 6),
        (None, None, 0.6666666666666666, 3),
        (None, None, 1.0, 3),
        (None, None, 1.0, 3),
    ]),
    ("mse", dict(max_depth=None, min_samples_split=2), [
        (1, -0.6, 0.17192307692307696, 26),
        (0, 1.0, -0.7644444444444445, 9),
        (1, -0.9, -1.25, 4),
        (1, -1.3, -1.5233333333333334, 3),
        (None, None, -1.73, 1),
        (None, None, -1.42, 2),
        (None, None, -0.43, 1),
        (1, -1.35, -0.376, 5),
        (None, None, -0.9, 1),
        (1, -0.75, -0.24499999999999997, 4),
        (1, -1.05, -0.009999999999999995, 2),
        (None, None, -0.19, 1),
        (None, None, 0.17, 1),
        (None, None, -0.48, 2),
        (1, 0.7, 0.6676470588235293, 17),
        (0, 2.0, 0.4249999999999999, 12),
        (1, -0.35, 0.1711111111111111, 9),
        (None, None, -0.41, 1),
        (1, 0.1, 0.24375000000000002, 8),
        (0, 0.5, 0.09000000000000001, 3),
        (None, None, 0.03, 1),
        (None, None, 0.12000000000000001, 2),
        (0, 0.5, 0.336, 5),
        (1, 0.44999999999999996, 0.275, 4),
        (1, 0.25, 0.26, 2),
        (None, None, 0.25, 1),
        (None, None, 0.27, 1),
        (None, None, 0.29, 2),
        (None, None, 0.58, 1),
        (1, -0.45, 1.1866666666666668, 3),
        (None, None, 1.39, 1),
        (1, -0.30000000000000004, 1.085, 2),
        (None, None, 0.94, 1),
        (None, None, 1.23, 1),
        (1, 0.8500000000000001, 1.25, 5),
        (None, None, 1.72, 2),
        (1, 1.2, 0.9366666666666665, 3),
        (None, None, 0.49, 1),
        (None, None, 1.16, 2),
    ]),
    ("mse", dict(max_depth=4, min_samples_split=5, min_samples_leaf=3), [
        (1, -0.6, 0.17192307692307696, 26),
        (0, 1.0, -0.7644444444444445, 9),
        (None, None, -1.25, 4),
        (None, None, -0.376, 5),
        (1, 0.7, 0.6676470588235293, 17),
        (0, 2.0, 0.4249999999999999, 12),
        (1, 0.1, 0.1711111111111111, 9),
        (None, None, -0.03499999999999998, 4),
        (None, None, 0.336, 5),
        (None, None, 1.1866666666666668, 3),
        (None, None, 1.25, 5),
    ]),
]


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
            (predict_tree(tree, x)[0] >= 0.5).astype(float),
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

    def test_rejects_empty_forest(self):
        x, y = self.easy_classification(n=20)
        for n_trees in (0, -1):
            with pytest.raises(ValueError, match="n_trees"):
                fit_forest(x, y, "classification", n_trees=n_trees)

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_each_tree_is_fit_tree_on_its_bootstrap_sample(self, task):
        rng = np.random.default_rng(6)
        x = np.round(rng.normal(size=(50, 3)), 1)
        y = (x[:, 0] > 0).astype(float) if task == "classification" else np.round(x @ [1.0, -0.5, 0.2], 2)
        forest = fit_forest(x, y, task, n_trees=6, seed=9, subsample_features=False)
        impurity = "gini" if task == "classification" else "mse"
        for t, got in enumerate(forest_preorders(forest)):
            idx = np.random.default_rng([9, t]).integers(0, 50, size=50)
            alone = fit_tree(x[idx], y[idx], impurity=impurity, max_depth=None, min_samples_split=2)
            assert got == preorder(alone), t

    def test_feature_subsampling_is_seeded(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(80, 5))
        y = (x[:, 0] + x[:, 3] > 0).astype(float)
        a, b, c = (fit_forest(x, y, "classification", n_trees=8, seed=s) for s in (3, 3, 4))
        assert forest_preorders(a) == forest_preorders(b)
        assert forest_preorders(a) != forest_preorders(c)


def walk_reference(tree: Tree, x: np.ndarray) -> np.ndarray:
    """predict_tree from one walk per (tree, row) over the flat arrays."""
    table = np.empty((tree.roots.shape[0], x.shape[0]))
    for t, root in enumerate(tree.roots):
        for r, row in enumerate(x):
            i = root
            while tree.feature[i] >= 0:
                i = tree.left[i] if row[tree.feature[i]] <= tree.threshold[i] else tree.left[i] + 1
            table[t, r] = tree.value[i]
    return table


def forest_reference(forest, x: np.ndarray) -> np.ndarray:
    """predict_forest_proba from the walked (trees, rows) votes, a C-ordered
    array: for more than one row its mean adds the trees one at a time."""
    votes = np.vstack([walk_reference(batch, x) for batch in forest.trees])
    if forest.task == "classification":
        votes = (votes >= 0.5).astype(float)
    return votes.mean(axis=0)


class TestFlatPrediction:
    """predict equals a per-row walk bit for bit, on the inputs where grouping
    rows by threshold gaps could go wrong."""

    @pytest.fixture(scope="class", params=["classification", "regression"])
    def fitted(self, request):
        rng = np.random.default_rng(12)
        x = np.round(rng.normal(size=(150, 3)), 1)  # ties in every column
        if request.param == "classification":
            y = (x[:, 0] + rng.normal(size=150) > 0).astype(float)
        else:
            y = x @ [1.0, -0.5, 0.3] + rng.normal(size=150)
        return fit_forest(x, y, request.param, n_trees=30, seed=5), x

    def check(self, forest, x):
        want = forest_reference(forest, x)
        got = predict_forest_proba(forest, x)
        assert got.shape == want.shape == (x.shape[0],)
        assert np.array_equal(got, want)
        for batch in forest.trees:
            assert np.array_equal(predict_tree(batch, x), walk_reference(batch, x))

    def test_training_rows(self, fitted):
        self.check(*fitted)

    def test_rows_at_and_next_to_thresholds(self, fitted):
        forest, x = fitted
        (tree,) = forest.trees
        for f in range(x.shape[1]):  # one column varies, so rows on both sides of a cut meet
            cuts = tree.threshold[tree.feature == f][:60]
            near = np.repeat(x[:1], 3 * cuts.size, axis=0)
            near[:, f] = np.r_[cuts, np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf)]
            self.check(forest, near)

    def test_nan_and_infinite_cells(self, fitted):
        forest, x = fitted
        rng = np.random.default_rng(2)
        odd = x.copy()
        cells = rng.random(odd.shape) < 0.3
        odd[cells] = rng.choice([np.nan, np.inf, -np.inf], size=int(cells.sum()))
        self.check(forest, odd)
        self.check(forest, np.full((4, x.shape[1]), np.nan))

    def test_identical_rows_form_one_group(self, fitted):
        forest, x = fitted
        for row in x[:20]:
            self.check(forest, np.repeat(row[None, :], 7, axis=0))

    def test_zero_rows(self, fitted):
        forest, x = fitted
        self.check(forest, np.empty((0, x.shape[1])))
        assert predict(forest, np.empty((0, x.shape[1]))).shape == (0,)

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_depth_zero_forest_has_no_cuts(self, task):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 2))
        y = (x[:, 0] > 0).astype(float) if task == "classification" else x[:, 0]
        forest = fit_forest(x, y, task, n_trees=12, seed=1, max_depth=0)
        assert (forest.trees[0].feature == -1).all()
        self.check(forest, np.vstack([x, [[np.nan, np.inf]]]))

    def test_multi_batch_forest(self):
        rng = np.random.default_rng(4)
        x = np.round(rng.normal(size=(3000, 3)), 2)
        y = x[:, 0] - x[:, 1] + rng.normal(size=3000)
        forest = fit_forest(x, y, "regression", n_trees=60, seed=2, max_depth=4)
        assert 3000 * (3 + 1) * 60 > models._BATCH_CELLS and len(forest.trees) > 1
        self.check(forest, x[:300])

    @pytest.mark.parametrize("width", [1, 5])
    def test_wrong_width_is_rejected(self, width):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 2))
        y = (x[:, 0] > 0).astype(float)
        tree = fit_tree(x, y, impurity="gini", min_samples_split=2)
        forest = fit_forest(x, y, "classification", n_trees=5, seed=0)
        for model in (tree, forest):
            for fn in (predict, predict_proba):
                with pytest.raises(ValueError, match=rf"fit on 2 columns, got x of shape \(3, {width}\)"):
                    fn(model, np.zeros((3, width)))
