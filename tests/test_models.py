import dataclasses
import hashlib
import inspect
import os
import subprocess
import sys
import tracemalloc
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catenc import models
from catenc.models import (
    RIDGE_ALPHAS,
    Tree,
    fit_forest,
    fit_forests,
    fit_logistic,
    fit_mlp,
    fit_ridge,
    fit_tree,
    init_mlp,
    logistic_loss_and_grad,
    mlp_loss_and_grads,
    predict,
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
        # the matrix-vector and dot products are the same single-threaded
        # np.einsum loops fit_ridge runs, so the bits match; x'x stays on BLAS
        def solve(x, y, alpha):
            x_mean, y_mean = x.mean(axis=0), y.mean()
            xc, yc = x - x_mean, y - y_mean
            w = np.linalg.solve(xc.T @ xc + alpha * np.eye(x.shape[1]), np.einsum("ij,i->j", xc, yc))
            return w, float(y_mean - np.einsum("j,j->", x_mean, w))

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
                    resid = y[mask] - (np.einsum("ij,j->i", x[mask], w) + b)
                    err += float(np.einsum("i,i->", resid, resid))
                if err < best_err:
                    best, best_err = alpha, err
            w, b = solve(x, y, best)
            model = fit_ridge(x, y, alphas=alphas)
            assert model.alpha == best
            assert np.array_equal(model.weights, w)
            assert model.intercept == b

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("alphas", [RIDGE_ALPHAS, (1.0,)])
    def test_callers_x_is_never_written(self, order, alphas):
        x, y, _ = linear_data(n=90, p=4, noise=1.0, seed=8)
        x = np.array(x, order=order)
        want = fit_ridge(x.copy(order=order), y, alphas=alphas)
        seen = x.copy(order=order)
        x.flags.writeable = False  # an in-place write would raise
        got = fit_ridge(x, y, alphas=alphas)
        assert np.array_equal(x, seen)
        assert np.array_equal(got.weights, want.weights) and got.intercept == want.intercept

    @pytest.mark.parametrize("alphas", [(-1.0,), (0.1, -50.0), (np.nan,), (np.nan, np.nan), (np.inf,), (1.0, -np.inf)])
    def test_refuses_a_negative_or_non_finite_alpha(self, alphas):
        x, y, _ = linear_data(n=30, p=2, seed=1)
        with pytest.raises(ValueError, match="alphas must be finite and >= 0"):
            fit_ridge(x, y, alphas=alphas)

    @pytest.mark.parametrize("n, alphas, message", [(1, RIDGE_ALPHAS, "need at least 2 rows"), (30, (), "no alpha candidates")])
    def test_refuses_one_row_and_no_alphas(self, n, alphas, message):
        x, y, _ = linear_data(n=n, p=2, seed=1)
        with pytest.raises(ValueError, match=message):
            fit_ridge(x, y, alphas=alphas)

    def test_a_singular_candidate_scores_an_infinite_cv_error(self):
        # x = [a, b, a] has a singular x'x: alpha 0 used to abort the whole fit
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(2, 40))
        x, y = np.column_stack([a, b, a]), a - b + rng.normal(size=40)
        got, want = fit_ridge(x, y, alphas=(0.0, 1.0)), fit_ridge(x, y, alphas=(1.0,))
        assert got.alpha == 1.0
        assert np.array_equal(got.weights, want.weights) and got.intercept == want.intercept
        with pytest.raises(ValueError, match="^alpha 0.0 leaves a singular system: give a positive alpha$"):
            fit_ridge(x, y, alphas=(0.0,))
        with pytest.raises(ValueError, match="^no alpha candidate has a finite cross-validation error$"):
            fit_ridge(x, y, alphas=(0.0, 0.0))

    def test_peak_memory_is_about_one_copy_of_x(self):
        rng = np.random.default_rng(3)
        n, p = 20_000, 60
        x = np.zeros((n, p))
        x[np.arange(n), rng.integers(0, p, n)] = 1.0  # one-hot-like, as a wide encoding
        y = rng.normal(size=n)
        tracemalloc.start()
        try:
            fit_ridge(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the full-data centered copy; each fold's row subset is centered in place
        assert peak < 1.2 * x.nbytes

    @pytest.mark.parametrize("p", [17, 60])
    def test_fit_and_predict_are_byte_identical_at_one_and_two_blas_threads(self, p):
        # the matrix-vector and dot products run numpy's own single-threaded
        # loops; BLAS computes only x'x, which it does not split at these widths
        script = (
            "import hashlib, numpy as np\n"
            "from catenc.models import fit_ridge, predict\n"
            f"rng = np.random.default_rng([26, {p}])\n"
            f"x = rng.normal(size=(40_000, {p}))\n"
            "y = np.einsum('ij,j->i', x, rng.normal(size=x.shape[1])) + rng.normal(size=x.shape[0])\n"
            "m = fit_ridge(x, y)\n"
            "parts = m.weights, np.float64(m.intercept), np.float64(m.alpha), predict(m, x)\n"
            "print(*(hashlib.sha256(a.tobytes()).hexdigest() for a in parts))\n"
        )
        path = os.path.dirname(os.path.dirname(models.__file__))
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env)
            digests.append(dict(zip(("weights", "intercept", "alpha", "predictions"), out.stdout.split())))
        assert digests[0] == digests[1]


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

    @pytest.mark.parametrize("short, converged", [(0, True), (1, False)])
    def test_stopping_at_max_iter_reads_convergence_from_the_final_gradient(self, short, converged):
        x, y = self.make_problem()
        steps = fit_logistic(x, y).n_iter  # the accepted steps an unbounded fit takes
        model = fit_logistic(x, y, max_iter=steps - short)
        assert model.n_iter == steps - short
        assert model.converged is converged

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
        assert model.n_iter == 0  # the first step's line search failed: no step was accepted

    @pytest.mark.parametrize("c", [-1.0, 0.0, np.nan, np.inf])
    def test_refuses_a_non_positive_or_non_finite_c(self, c):
        x, y = self.make_problem(n=50)
        with pytest.raises(ValueError, match="c must be finite and > 0"):
            fit_logistic(x, y, c=c)

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

    def test_init_refuses_an_unknown_task(self):
        with pytest.raises(ValueError, match="unknown task 'ranking'"):
            init_mlp(2, "ranking", seed=0, hidden=4)

    def test_non_finite_loss_is_a_value_error(self):
        # it was a RuntimeError, which the command line let out as a traceback
        x, y, _ = linear_data(n=20, p=2, seed=1)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="non-finite MLP loss"):
            models.fit_model("mlp", "regression", x, y, 0, lr=1e300, epochs=2)

    def test_non_finite_loss_is_a_value_error_with_no_warning(self):
        # the overflow warnings came ahead of the refusal; with no errstate here
        # the configured filter would raise them in place of the ValueError
        x, y, _ = linear_data(n=20, p=2, seed=1)
        with pytest.raises(ValueError, match="non-finite MLP loss"):
            models.fit_model("mlp", "regression", x, y, 0, lr=1e300, epochs=2)

    def test_infinite_gradient_at_a_finite_loss_is_a_value_error(self):
        # the loss is 50, but gw2 overflows: as a last step, Adam would return
        # NaN weights, which predict as all-zero labels without a word
        model = init_mlp(2, "regression", seed=0, hidden=3)
        model.w1[:], model.w2[:] = 1.0, 0.0
        x = np.zeros((4, 2))
        x[:, 0] = 1e308
        with pytest.raises(ValueError, match="^non-finite MLP gradient$"):
            mlp_loss_and_grads(model, x, np.full(4, -10.0), l2=0.0)

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

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_fit_model_dispatch_matches_fit_mlp(self, task):
        x, y, _ = linear_data(n=60, p=3, noise=0.3, seed=6)
        if task == "classification":
            y = (y > np.median(y)).astype(float)
        got = models.fit_model("mlp", task, x, y, seed=5, hidden=4, epochs=3)
        want = fit_mlp(x, y, task, seed=5, hidden=4, epochs=3)
        assert got.task == want.task == task
        for g, w in zip(got.params(), want.params(), strict=True):
            np.testing.assert_array_equal(g, w)

    def test_different_seed_different_fit(self):
        x, y, _ = linear_data(n=60, p=3, noise=0.3, seed=6)
        a = fit_mlp(x, y, "regression", seed=5, epochs=20)
        b = fit_mlp(x, y, "regression", seed=6, epochs=20)
        assert not np.array_equal(predict(a, x), predict(b, x))

    def test_training_reduces_loss(self):
        x, y, _ = linear_data(n=150, p=2, noise=0.1, seed=7)
        model = init_mlp(2, "regression", seed=3, hidden=100)
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
        # each default is stated once, in the signature the grid's type check reads
        assert {"hidden", "epochs", "lr"} <= set(models.model_options("mlp"))
        assert inspect.signature(fit_mlp).parameters["hidden"].default == 100
        assert inspect.signature(train_mlp).parameters["epochs"].default == 200
        assert inspect.signature(train_mlp).parameters["lr"].default == pytest.approx(1e-3)


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
    @pytest.mark.parametrize("sizes", [(9,), (6, 11), (5, 2, 8, 3)])
    def test_every_position_matches_brute_force(self, impurity, sizes):
        rng = np.random.default_rng(len(sizes))
        n = sum(sizes)
        ys = rng.integers(0, 2, n).astype(float) if impurity != "mse" else np.round(rng.normal(size=n), 2)
        order = rng.permutation(n).astype(np.int32)  # positions -> sample ids, segment by segment
        sizes = np.array(sizes)
        lev = models._level(np.cumsum(sizes) - sizes, sizes)
        right_n = np.maximum(lev.size_of - lev.left_n, 1)
        got = models._split_scores(ys, order, lev, right_n, impurity, np.ones(sizes.size, dtype=bool))
        want = []
        for start, end in zip(lev.starts, lev.ends):
            seg = ys[order[start:end]]
            want += [brute_child_impurity(seg, k, impurity) for k in range(1, seg.size + 1)]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        # scored at some positions only: the full scores there, bit for bit
        points = np.flatnonzero((rng.random(n) < 0.4) | (np.arange(n) == lev.starts[-1]))
        counts = np.searchsorted(points, lev.ends) - np.searchsorted(points, lev.starts)
        at_points = models._split_scores(ys, order, lev, right_n, impurity, counts > 0, points, counts)
        np.testing.assert_array_equal(at_points, got[points])
        np.testing.assert_allclose(at_points, np.array(want)[points], rtol=1e-12, atol=1e-12)


class TestPartition:
    """models._partition, the stable split of a level's sample-id arrays into
    its kept children, against a per-segment list oracle."""

    @staticmethod
    def check(seed, n_split, n_unsplit, max_size, p_keep):
        rng = np.random.default_rng(seed)
        split = rng.permutation(np.r_[np.ones(n_split, bool), np.zeros(n_unsplit, bool)])
        sizes = rng.integers(1, max_size + 1, split.size)
        ids = rng.permutation(int(sizes.sum()) + 5)[: sizes.sum()].astype(np.int32)  # a few ids unused
        goes_left = (rng.random(ids.size) < 0.5).tolist()
        keep = (rng.random(2 * n_split) < p_keep).tolist()

        # per segment: its left rows in order, then its right rows, each if kept
        want, ranks, child, at = [], [], 0, 0
        for s, size in zip(split.tolist(), sizes.tolist()):
            seg = list(zip(ids[at : at + size].tolist(), goes_left[at : at + size]))
            at += size
            if not s:
                continue
            for side in (True, False):
                rows = [i for i, is_left in seg if is_left == side]
                if keep[child]:
                    want += rows
                    ranks += [child] * len(rows)
                child += 1
        # the grower's key: each kept child's rank in level order, else a rank past them all
        key = np.full(ids.size + 5, 2 * n_split, dtype=np.min_scalar_type(2 * n_split + 1))
        key[want] = ranks
        got = models._partition(ids, key, len(want))
        assert got.dtype == np.int32
        assert got.tolist() == want
        return key.dtype

    @pytest.mark.parametrize("key_type, splits", [(np.uint8, (0, 127)), (np.uint16, (128, 2000))])
    @settings(deadline=None)
    @given(data=st.data())
    def test_radix_sorted_keys(self, key_type, splits, data):
        got_type = self.check(
            seed=data.draw(st.integers(0, 2**32 - 1), label="seed"),
            n_split=data.draw(st.integers(*splits), label="n_split"),
            n_unsplit=data.draw(st.integers(0, 5), label="n_unsplit"),
            max_size=data.draw(st.integers(1, 6), label="max_size"),
            p_keep=data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="p_keep"),
        )
        assert got_type == key_type

    @settings(max_examples=3, deadline=None)  # each layout has over 65,535 children
    @given(seed=st.integers(0, 2**32 - 1), n_split=st.integers(32768, 32800), n_unsplit=st.integers(0, 5))
    def test_32_bit_keys(self, seed, n_split, n_unsplit):
        assert self.check(seed, n_split, n_unsplit, max_size=3, p_keep=0.5) == np.uint32


#: values where a tie test on ranks could part from one on the values: signed
#: zeros (equal), the smallest subnormals, and the largest finite floats
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]


class TestPresort:
    """models._presort: each feature's presorted sample ids and value ranks, on
    which the grower tests ties instead of on the values."""

    @settings(deadline=None)
    @given(
        data=st.data(),
        n_trees=st.integers(1, 3),
        n=st.integers(1, 40),
        pool=st.lists(
            st.sampled_from(EDGE_VALUES) | st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6
        ),
    )
    def test_rank_ties_are_value_ties(self, data, n_trees, n, pool):
        # few distinct values for many samples: heavy ties
        values = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n_trees * n, max_size=n_trees * n)))
        values = values.reshape(n_trees, n)
        id_type = np.min_scalar_type(n_trees * n - 1)
        order, ranks = models._presort(values, (np.arange(n_trees) * n)[:, None], id_type)
        assert order.dtype == id_type and ranks.dtype == np.min_scalar_type(ranks.max())
        for t in range(n_trees):
            ids = order[t * n : (t + 1) * n].astype(np.intp)
            np.testing.assert_array_equal(ids - t * n, np.argsort(values[t], kind="stable"))
            # any subsequence of the presort, as a partitioned segment keeps it
            ids = ids[np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)]
            xs, rs = values.ravel()[ids], ranks[ids]
            np.testing.assert_array_equal(rs[1:] != rs[:-1], xs[1:] != xs[:-1])


class TestNodeStats:
    """models._node_stats: a node is impure exactly when its targets are not all equal."""

    def test_mse_purity_is_not_all_equal_on_tied_segments(self):
        rng = np.random.default_rng(5)
        sizes = rng.integers(1, 9, 400)
        # few distinct values, so many segments tie throughout; 0.1 and 1/3
        # repeated have a nonzero np.var, 1e-200 beside 0 a zero one
        yrow = rng.choice([0.1, 1 / 3, -2.5, 1e-200, 0.0], size=sizes.sum())
        starts = np.cumsum(sizes) - sizes
        values, impure = models._node_stats(yrow, starts, sizes, binary=False)
        segments = [yrow[s : s + n] for s, n in zip(starts, sizes)]
        assert impure.tolist() == [bool((seg != seg[0]).any()) for seg in segments]
        assert values.tolist() == [np.mean(seg) for seg in segments]
        assert 0 < impure.sum() < impure.size

    @pytest.mark.parametrize("low, high", [(1, 9), (9, 300), (8000, 8400), (16000, 20001)])
    def test_mse_values_are_np_mean_at_every_segment_size(self, low, high):
        # np.add.reduce sums in unrolled blocks of 8, splits pairwise above 128
        # elements and buffers 8,192 at a time: sizes on both sides of each
        rng = np.random.default_rng(low)
        edges = [n for n in (8, 9, 127, 128, 129, 8191, 8192, 8193, 16384, 20000) if low <= n < high]
        sizes = np.r_[edges, rng.integers(low, high, 8)]
        yrow = rng.normal(size=sizes.sum()) * 10.0 ** rng.uniform(-3.0, 3.0, size=sizes.sum())
        starts = np.cumsum(sizes) - sizes
        values, _ = models._node_stats(yrow, starts, sizes, binary=False)
        assert values.tolist() == [np.mean(yrow[s : s + n]) for s, n in zip(starts, sizes)]

    def test_binary_purity_is_not_all_equal(self):
        yrow = np.array([1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0])
        values, impure = models._node_stats(yrow, np.array([0, 2, 4, 6]), np.array([2, 2, 2, 1]), binary=True)
        assert impure.tolist() == [False, True, False, False]
        assert values.tolist() == [1.0, 0.5, 0.0, 1.0]


class TestSplitPointScoring:
    """A level that scores a feature only at its split points grows the trees
    that scoring every position grows, byte for byte, for every impurity. Each
    path is forced through models._SPLIT_POINT_SHARE: no share of positions is
    below 0, and every share is below 2."""

    @staticmethod
    def grow(share, x, y, kind, seed, impurity="mse"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(models, "_SPLIT_POINT_SHARE", share)
            if kind == "forest":  # bootstrap samples and 2 candidate features of 4 per node
                task = "regression" if impurity == "mse" else "classification"
                return [tree_digests(t) for t in fit_forest(x, y, task, n_trees=3, seed=seed).trees]
            return [tree_digests(fit_tree(x, y, impurity, max_depth=None, min_samples_split=2, min_samples_leaf=kind))]

    @staticmethod
    def columns(data, rng, n):
        # few-valued columns, as encoded ones are, beside a continuous one
        return np.column_stack([
            data.draw(st.lists(st.sampled_from(EDGE_VALUES), min_size=n, max_size=n), label="edge column"),
            rng.integers(0, 2, n),
            np.round(rng.normal(size=n), 1),
            rng.normal(size=n),
        ]).astype(float)

    @settings(deadline=None)
    @given(
        data=st.data(),
        n=st.integers(2, 80),
        kind=st.sampled_from([1, 3, "forest"]),
        targets=st.sampled_from(["few", "rounded", "edge"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_split_points_alone_grow_the_same_trees(self, data, n, kind, targets, seed):
        rng = np.random.default_rng(seed)
        x = self.columns(data, rng, n)
        if targets == "few":  # many tied scores
            y = rng.integers(0, 3, n).astype(float)
        elif targets == "rounded":
            y = np.round(rng.normal(size=n), 1)
        else:  # sums that would overflow are refused before a tree grows
            y = rng.choice(EDGE_VALUES, size=n)
            y[rng.integers(n)] = rng.choice(EDGE_VALUES[-2:])
            with pytest.raises(ValueError, match="rescale y"):
                self.grow(2.0, x, y, kind, seed)
            return
        with np.errstate(over="ignore", invalid="ignore"):
            assert self.grow(-1.0, x, y, kind, seed) == self.grow(2.0, x, y, kind, seed)

    @settings(deadline=None)
    @given(
        data=st.data(),
        n=st.integers(2, 80),
        kind=st.sampled_from([1, 3, "forest"]),
        impurity=st.sampled_from(["gini", "entropy"]),
        ones=st.sampled_from([0.5, 0.1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_split_points_alone_grow_the_same_classifiers(self, data, n, kind, impurity, ones, seed):
        # a classification forest splits on gini, whichever impurity is drawn
        rng = np.random.default_rng(seed)
        x = self.columns(data, rng, n)
        # 0/1 labels with signed zeros; rare ones leave many tied scores
        y = np.where(rng.random(n) < ones, 1.0, rng.choice([0.0, -0.0], size=n))
        assert self.grow(-1.0, x, y, kind, seed, impurity) == self.grow(2.0, x, y, kind, seed, impurity)

    def test_a_gini_tree_scores_a_mean_encoded_column_at_its_split_points(self, monkeypatch):
        calls, real = [], models._split_scores

        def spy(*args):
            calls.append(len(args) > 6 and args[6] is not None)  # at: the positions scored
            return real(*args)

        monkeypatch.setattr(models, "_split_scores", spy)
        rng = np.random.default_rng(3)
        code = rng.integers(0, 12, 400)
        y = (rng.random(400) < (code + 1) / 13).astype(float)
        x = (np.bincount(code, y, 12) / np.bincount(code, minlength=12))[code][:, None]  # 12 values
        tree = fit_tree(x, y, "gini", max_depth=None, min_samples_split=2)
        assert tree.feature[0] == 0 and calls[0]  # the root: 11 split points of 400 positions


class TestTwoValuedColumns:
    """A column with at most two distinct values is scored from per-node sums
    in sample order, with no presort, ranks or partition, and grows the trees
    its presorted order grows, byte for byte: each fit is compared with the
    same fit whose two-valued detection finds nothing."""

    @staticmethod
    def digests(x, y_real, y_label, seed):
        trees = [
            fit_tree(x, y_real if impurity == "mse" else y_label, impurity, max_depth, 2, min_samples_leaf)
            for impurity in ("gini", "entropy", "mse")
            for min_samples_leaf in (1, 3)
            for max_depth in (None, 3)
        ]
        # bootstrap samples and 4 candidate features of 10 per node
        trees += fit_forest(x, y_real, "regression", n_trees=3, seed=seed).trees
        trees += fit_forest(x, y_label, "classification", n_trees=3, seed=seed).trees
        return [tree_digests(t) for t in trees]

    @settings(deadline=None, max_examples=40)
    @given(data=st.data(), n=st.integers(2, 60), seed=st.integers(0, 2**32 - 1))
    def test_trees_equal_those_grown_on_presorted_columns(self, data, n, seed):
        rng = np.random.default_rng(seed)
        numeric = np.round(rng.normal(size=n), 1)
        bits = rng.integers(0, 2, n).astype(float)
        c = data.draw(st.sampled_from([0.5, 3.0, 5e-324, 1e300]), label="c")
        pair = data.draw(st.lists(st.sampled_from(EDGE_VALUES), min_size=2, max_size=2), label="edge pair")
        columns = [
            numeric,
            bits,
            bits.copy(),  # identical to the one before: an exact tie keeps the lower feature
            np.where(rng.random(n) < 0.5, c, -c),
            rng.choice([-0.0, 0.0, 1.0], size=n),
            rng.choice([-0.0, 0.0], size=n),  # one value, numerically: never split
            np.where(numeric > np.median(numeric), 4.0, -4.0),  # splits the rows a numeric split does
            np.where(rng.random(n) < 0.5, *pair),
            rng.choice([-0.0, 0.0, 5e-324], size=n),  # both zeros on the low side
            rng.choice([-5e-324, -0.0, 0.0], size=n),  # both zeros on the high side
        ]
        order = data.draw(st.permutations(range(len(columns))), label="column order")
        x = np.column_stack([columns[i] for i in order])
        y_real = rng.choice([0.0, -0.0, 0.1, 1 / 3, -2.5, 7.0], size=n)  # signed-zero targets among them
        y_label = rng.choice([0.0, -0.0, 1.0], size=n)
        grown = self.digests(x, y_real, y_label, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(models, "_two_valued_sides", lambda values: None)
            assert self.digests(x, y_real, y_label, seed) == grown

    def test_one_hot_columns_are_neither_presorted_nor_partitioned(self, monkeypatch):
        calls = []

        def spy(name):
            real = getattr(models, name)

            def counting(*args):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(models, name, counting)

        spy("_presort")
        spy("_partition")
        code = np.random.default_rng(1).integers(0, 12, 300)
        x = (code[:, None] == np.arange(12.0)).astype(float)
        y = ((code % 3 == 0) != (np.arange(300) % 7 == 0)).astype(float)
        tree = fit_tree(x, y, "gini", max_depth=None, min_samples_split=2)
        forest = fit_forest(x, y, "classification", n_trees=5, seed=0)
        assert tree.value.size > 7 and forest.trees[0].value.size > 35  # several levels deep
        assert calls == []
        # a numeric column beside them is presorted, and partitioned at each level
        fit_tree(np.column_stack([x, np.arange(300.0) % 11]), y, "gini", max_depth=None, min_samples_split=2)
        assert calls.count("_presort") == 1 and calls.count("_partition") > 1

    def test_identical_columns_split_on_the_lower(self):
        bits = np.r_[np.zeros(6), np.ones(6)]
        tree = fit_tree(np.column_stack([np.arange(12.0) % 5, bits, bits]), bits, "gini", max_depth=1)
        assert tree.feature[0] == 1 and tree.threshold[0] == 0.5


class TestRouting:
    """Every training row walked through predict_tree reaches a leaf whose
    n_samples counts it: the grower sends rows to the children the thresholds
    send them to, on the values where a midpoint rounds, overflows or ties."""

    @staticmethod
    def leaf_counts(tree: Tree, x: np.ndarray) -> np.ndarray:
        # leaf values replaced by node ids, so predict_tree returns each row's leaf
        ids = dataclasses.replace(tree, value=np.arange(tree.value.size, dtype=float))
        return np.bincount(predict_tree(ids, x).astype(np.intp).ravel(), minlength=tree.value.size)

    def check(self, tree: Tree, x: np.ndarray) -> None:
        counts = self.leaf_counts(tree, x)
        leaf = tree.feature < 0
        np.testing.assert_array_equal(counts[leaf], tree.n_samples[leaf])
        assert not counts[~leaf].any()

    @settings(deadline=None)
    @given(
        data=st.data(),
        n=st.integers(2, 40),
        p=st.integers(3, 4),
        pool=st.lists(
            st.sampled_from(EDGE_VALUES) | st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=5
        ),
    )
    def test_training_rows_reach_their_leaves(self, data, n, p, pool):
        # a drawn value's neighbour floats join the pool, whose few values make heavy ties
        pool, big = np.array(pool), np.finfo(float).max
        pool = np.r_[pool, np.nextafter(pool, big), np.nextafter(pool, -big)]
        cells = data.draw(st.lists(st.integers(0, pool.size - 1), min_size=n * p, max_size=n * p), label="cells")
        x = pool[np.array(cells)].reshape(n, p)
        labels = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n), label="labels"))
        binary, real = (labels % 2).astype(float), np.array([0.1, 1 / 3, -2.5, 7.0])[labels]
        for impurity, y in (("gini", binary), ("mse", real)):
            for min_samples_leaf in (1, 3):
                self.check(fit_tree(x, y, impurity, None, 2, min_samples_leaf), x)
        assert int(np.ceil(np.sqrt(p))) < p  # the forests' nodes draw candidate features
        for task, y in (("classification", binary), ("regression", real)):
            forest = fit_forest(x, y, task, n_trees=4, seed=data.draw(st.integers(0, 9), label="seed"), bootstrap=False)
            self.check(forest.trees[0], x)


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

    def test_refuses_a_negative_max_depth(self):
        x, y, _ = linear_data(n=30, p=2, seed=1)
        with pytest.raises(ValueError, match="max_depth must be >= 0"):
            fit_tree(x, y, max_depth=-1)
        with pytest.raises(ValueError, match="max_depth must be >= 0"):
            fit_forest(x, y, "regression", n_trees=2, max_depth=-1)

    def test_refuses_mse_targets_whose_squared_sums_overflow(self):
        # a perfect split at 9.5; scaled by 1e160, the squared prefix sums overflow
        x = np.arange(20.0)[:, None]
        y = np.where(x[:, 0] < 10, 1.0, 3.0)
        tree = fit_tree(x, y * 1e150, max_depth=1, min_samples_split=2)
        assert tree.threshold[0] == 9.5
        with pytest.raises(ValueError, match=r"n \* max\|y\| < 2\*\*510, got n = 20, max\|y\| = 3e\+160: rescale y"):
            fit_tree(x, y * 1e160, max_depth=1, min_samples_split=2)
        with pytest.raises(ValueError, match="rescale y"):
            fit_forest(x, y * 1e160, "regression", n_trees=2)

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

    def test_equal_targets_make_a_leaf(self):
        # np.var of six 0.1s is 1.9e-34, which used to split this node twice
        tree = fit_tree(np.arange(6.0)[:, None], np.full(6, 0.1), impurity="mse", max_depth=None, min_samples_split=2)
        assert tree.value.size == 1 and tree.feature[0] == -1
        assert tree.value[0] == pytest.approx(0.1)

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

    @pytest.mark.parametrize("lo", [np.nextafter(1.0, 2.0), 1e308, -1.5e308])
    def test_split_between_values_whose_midpoint_rounds_up(self, lo):
        # (lo + hi) / 2 rounds to hi for adjacent floats and overflows to inf
        # (or -inf) for huge ones; the split must still separate lo from hi
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
        np.testing.assert_array_equal(predict_proba(a, x), predict_proba(b, x))

    def test_no_randomness_collapses_to_single_tree(self):
        x, y = self.easy_classification(n=60)
        forest = fit_forest(
            x, y, "classification", n_trees=5, seed=0,
            bootstrap=False, subsample_features=False, min_samples_split=2,
        )
        tree = fit_tree(x, y, impurity="gini", max_depth=None, min_samples_split=2)
        np.testing.assert_array_equal(
            predict_proba(forest, x),
            (predict_tree(tree, x)[0] >= 0.5).astype(float),
        )

    def test_classification_proba_is_vote_fraction(self):
        x, y = self.easy_classification()
        forest = fit_forest(x, y, "classification", n_trees=9, seed=1)
        proba = predict_proba(forest, x)
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


def takes_redraw(seed: int, t: int, n: int) -> bool:
    """Whether np.random.default_rng([seed, t]).integers(0, n, size=n), n even,
    rejects a 32-bit word: it then reads more than n // 2 raw words."""
    want = np.random.default_rng([seed, t])
    want.integers(0, n, size=n)
    plain = np.random.PCG64(np.random.SeedSequence([seed, t]))
    plain.random_raw(n // 2)
    return plain.state["state"] != want.bit_generator.state["state"]


class TestTreeSeeds:
    """Tree t's generator comes from memoized SeedSequence([seed, t]) words and
    draws what np.random.default_rng([seed, t]) draws."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**32 + 5])
    def test_draws_match_default_rng(self, seed):
        models._tree_seed_words.cache_clear()
        for warm in (False, True):
            for t in (0, 1, 99):
                got = np.random.Generator(np.random.PCG64(models._TreeSeed(seed, t)))
                want = np.random.default_rng([seed, t])
                assert np.array_equal(got.integers(0, 37, size=37), want.integers(0, 37, size=37)), (warm, t)
                assert np.array_equal(got.random((6, 4)), want.random((6, 4))), (warm, t)

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_cold_and_warm_fits_are_equal(self, task):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(40, 5))
        y = (x[:, 0] > 0).astype(float) if task == "classification" else x[:, 0] + rng.normal(size=40)
        models._tree_seed_words.cache_clear()
        cold = fit_forest(x, y, task, n_trees=12, seed=6)
        assert models._tree_seed_words.cache_info().misses == 12
        warm = fit_forest(x, y, task, n_trees=12, seed=6)
        assert models._tree_seed_words.cache_info().hits == 12
        for a, b in zip(cold.trees, warm.trees, strict=True):
            for field in dataclasses.fields(Tree):
                assert np.array_equal(getattr(a, field.name), getattr(b, field.name), equal_nan=True), field.name

    def test_negative_or_float_seed_is_refused_by_numpy(self):
        x = np.random.default_rng(0).normal(size=(20, 2))
        with pytest.raises(ValueError, match="expected non-negative integer"):
            fit_forest(x, x[:, 0], "regression", n_trees=3, seed=-1)
        fit_forest(x, x[:, 0], "regression", n_trees=3, seed=1)
        with pytest.raises(TypeError):  # 1.0 does not hit the memo entry of the seed 1
            fit_forest(x, x[:, 0], "regression", n_trees=3, seed=1.0)

    @pytest.mark.parametrize("seed", [0, 7, 2**32 + 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 37, 80, 65_537])
    def test_bootstrap_rows_are_numpys(self, n, seed):
        seeds = [(seed, t) for t in range(4)]
        bits, rows = models._bootstrap_rows(seeds, n, True)
        assert (rows.dtype, rows.shape) == (np.int64, (4, n))
        for (s, t), bit, got in zip(seeds, bits, rows):
            want = np.random.default_rng([s, t])
            assert got.tobytes() == want.integers(0, n, size=n).tobytes(), t
            # the trees' later draws (candidate features) come out as numpy's
            assert np.random.Generator(bit).random((6, 4)).tobytes() == want.random((6, 4)).tobytes(), t

    @pytest.mark.parametrize("n", [1, 2, 37])
    def test_no_bootstrap_draws_no_word(self, n):
        seeds = [(7, t) for t in range(4)]
        bits, rows = models._bootstrap_rows(seeds, n, False)
        assert (rows.dtype, rows.shape, rows.tobytes()) == (np.int64, (4, n), np.tile(np.arange(n), (4, 1)).tobytes())
        assert [bit.state for bit in bits] == [np.random.default_rng([s, t]).bit_generator.state for s, t in seeds]

    def test_rejected_draws_take_numpys_redraw(self):
        # at 32,000 rows one 32-bit word in about 184,000 is rejected, about one tree in six
        n, seeds = 32_000, [(3, t) for t in range(100)]
        bits, rows = models._bootstrap_rows(seeds, n, True)
        for (s, t), bit, got in zip(seeds, bits, rows):
            want = np.random.default_rng([s, t])
            assert got.tobytes() == want.integers(0, n, size=n).tobytes(), t
            assert bit.state["state"] == want.bit_generator.state["state"], t
            assert np.random.Generator(bit).random((6, 4)).tobytes() == want.random((6, 4)).tobytes(), t
        assert any(takes_redraw(s, t, n) for s, t in seeds)

    def test_memo_is_bounded_and_read_only(self):
        assert models._tree_seed_words.cache_info().maxsize is not None
        words = models._TreeSeed(3, 4).generate_state(4, np.uint64)
        assert not words.flags.writeable
        assert np.array_equal(words, np.random.SeedSequence([3, 4]).generate_state(4, np.uint64))


def assert_same_forest(got, want, x: np.ndarray) -> None:
    """Every array of every Tree byte-equal (dtype included), and the
    predictions on x too."""
    assert got.task == want.task and len(got.trees) == len(want.trees)
    for a, b in zip(got.trees, want.trees):
        assert a.n_features == b.n_features
        for field in dataclasses.fields(Tree):
            u, v = getattr(a, field.name), getattr(b, field.name)
            if isinstance(u, np.ndarray):
                assert (u.dtype, u.shape, u.tobytes()) == (v.dtype, v.shape, v.tobytes()), field.name
    assert predict(got, x).tobytes() == predict(want, x).tobytes()


def per_tree_forest(x, y, task, seed, n_trees, max_depth=None, bootstrap=True, min_samples_split=2):
    """The reference forest: tree t's np.random.default_rng([seed, t]) draws
    its bootstrap rows with integers (none without bootstrap), then its
    ceil(sqrt(p)) candidate features a node, and the grower grows the trees
    in one batch."""
    rngs = [np.random.default_rng([seed, t]) for t in range(n_trees)]
    n, p = x.shape
    samples = np.array([rng.integers(0, n, size=n) if bootstrap else np.arange(n) for rng in rngs])
    max_features = int(np.ceil(np.sqrt(p)))
    impurity = models._IMPURITY[task]
    trees = models._grow_trees(x, y, samples, impurity, max_depth, min_samples_split, 1, rngs, max_features, n_trees)
    return models.ForestModel(trees, task)


class TestForestDraws:
    """Each forest fit_forests grows is the reference's, whose trees draw one
    at a time from numpy's own generators, with its predictions."""

    @pytest.mark.parametrize("task", ["classification", "regression"])
    @pytest.mark.parametrize("n", [21, 40])
    def test_subsampled_features(self, task, n):
        x, y, seed = TestBatchedForests.job(task, n, 5, 3)  # 3 candidate features of 5
        got = fit_forest(x, y, task, n_trees=12, seed=seed)
        assert_same_forest(got, per_tree_forest(x, y, task, seed, 12), x)

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_a_redrawn_tree_draws_its_candidates_after_the_redraw(self, task):
        x, y, seed = TestBatchedForests.job(task, 32_000, 5, 3)
        assert takes_redraw(seed, 1, 32_000) and 2 * 32_000 * 6 <= models._BATCH_CELLS  # two trees, one batch
        got = fit_forest(x, y, task, n_trees=2, seed=seed, max_depth=2)
        assert_same_forest(got, per_tree_forest(x, y, task, seed, 2, max_depth=2), x[:500])

    @pytest.mark.parametrize("n", [21, 40])
    def test_no_bootstrap_draws_no_word_before_the_candidates(self, monkeypatch, n):
        x, y, seed = TestBatchedForests.job("regression", n, 5, 4)
        states, grow = [], models._grow_trees

        def spy(*args):
            states.extend(rng.bit_generator.state for rng in args[7])
            return grow(*args)

        monkeypatch.setattr(models, "_grow_trees", spy)
        got = fit_forest(x, y, "regression", n_trees=12, seed=seed, bootstrap=False)
        assert states == [np.random.default_rng([seed, t]).bit_generator.state for t in range(12)]
        assert_same_forest(got, per_tree_forest(x, y, "regression", seed, 12, bootstrap=False), x)

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_a_batch_of_equal_shape_jobs(self, monkeypatch, task):
        jobs = [TestBatchedForests.job(task, 33, 5, s) for s in (5, 6, 7, 6)]
        grown = TestBatchedForests.batches(monkeypatch)
        got = list(fit_forests(jobs, task, n_trees=15))
        assert grown == [60]
        for (x, y, seed), forest in zip(jobs, got, strict=True):
            assert_same_forest(forest, per_tree_forest(x, y, task, seed, 15), x)


class TestBatchedForests:
    """fit_forests grows the forests of consecutive equal-shape jobs in one
    batch; each is the forest fit_forest grows on its job alone."""

    @staticmethod
    def job(task: str, n: int, p: int, seed: int):
        rng = np.random.default_rng([n, p, seed])
        if p == 5:  # a one-hot block beside a numeric column, as a sweep's one-hot matrix
            x = np.column_stack([np.eye(4)[rng.integers(0, 4, n)], rng.uniform(-2, 3, n)])
        else:  # a code column beside a numeric one, as a sweep's truth matrix
            x = np.column_stack([rng.choice([-1.0, 1.0], n), rng.uniform(-2, 3, n)])
        y = (x @ np.linspace(1.0, -1.0, p) + rng.normal(size=n) > 0).astype(float)
        return x, (y if task == "classification" else x[:, -1] + rng.normal(size=n)), seed

    @staticmethod
    def batches(monkeypatch) -> list[int]:
        """The tree count of each batch the grower is handed."""
        grown, grow = [], models._grow_trees

        def spy(*args):
            grown.append(args[2].shape[0])
            return grow(*args)

        monkeypatch.setattr(models, "_grow_trees", spy)
        return grown

    @pytest.mark.parametrize("task", ["classification", "regression"])
    @pytest.mark.parametrize("n", [20, 80])
    def test_mixed_widths_equal_solo_fits(self, monkeypatch, task, n):
        # p = 5 draws 3 candidate features a node (max_features < p), p = 2 both
        jobs = [self.job(task, n, p, s) for s, p in enumerate([5, 5, 2, 2, 2, 5])]
        grown = self.batches(monkeypatch)
        got = list(fit_forests(jobs, task, n_trees=20))
        assert grown == [40, 60, 20]  # one batch per run of equal widths
        monkeypatch.undo()
        assert len(got) == len(jobs)
        for (x, y, seed), forest in zip(jobs, got):
            assert_same_forest(forest, fit_forest(x, y, task, n_trees=20, seed=seed), x)

    def test_a_batch_holds_as_many_whole_forests_as_fit(self, monkeypatch):
        # 60 cells a tree of 20 rows and 2 columns: 25 trees, two forests of 10, a batch
        monkeypatch.setattr(models, "_BATCH_CELLS", 25 * 60)
        jobs = [self.job("classification", 20, 2, s) for s in range(5)]
        grown = self.batches(monkeypatch)
        got = list(fit_forests(jobs, "classification", n_trees=10, max_depth=3, bootstrap=False))
        assert grown == [20, 20, 10]
        for (x, y, seed), forest in zip(jobs, got):
            want = fit_forest(x, y, "classification", n_trees=10, seed=seed, max_depth=3, bootstrap=False)
            assert_same_forest(forest, want, x)

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_a_forest_larger_than_a_batch_is_grown_alone(self, monkeypatch, task):
        small = [self.job(task, 40, 2, s) for s in range(2)]
        x, y, _ = self.job(task, 3000, 2, 7)
        jobs = [small[0], (x, y, 7), small[1], small[1]]
        grown = self.batches(monkeypatch)
        got = list(fit_forests(jobs, task, n_trees=60, max_depth=6))
        assert 3000 * (2 + 1) * 60 > models._BATCH_CELLS
        assert grown == [60, 58, 2, 120]
        monkeypatch.undo()
        assert len(got[1].trees) == 2
        for (x, y, seed), forest in zip(jobs, got):
            assert_same_forest(forest, fit_forest(x, y, task, n_trees=60, seed=seed, max_depth=6), x[:500])

    @pytest.mark.parametrize("task", ["classification", "regression"])
    @pytest.mark.parametrize("limits", [{}, {"max_depth": 0}, {"min_samples_split": 21}])
    def test_a_batch_whose_roots_are_partly_pure(self, task, limits):
        # one batch: every root of a constant target is pure, and a lone positive
        # among 20 rows is missing from some bootstrap draws, whose roots are pure
        lone = np.zeros(20)
        lone[7] = 1.0
        targets = [np.full(20, 1.0), lone, np.tile([0.0, 1.0], 10)]
        jobs = [(self.job(task, 20, 2, s)[0], y, s) for s, y in enumerate(targets)]
        got = list(fit_forests(jobs, task, n_trees=12, **limits))
        leaf_roots = [sum(int(t.feature[r] < 0) for t in f.trees for r in t.roots) for f in got]
        if limits:
            assert leaf_roots == [12, 12, 12]
        else:
            assert leaf_roots[0] == 12 and 0 < leaf_roots[1] < 12 and leaf_roots[2] == 0
        for (x, y, seed), forest in zip(jobs, got):
            assert_same_forest(forest, fit_forest(x, y, task, n_trees=12, seed=seed, **limits), x)
            assert_same_forest(forest, per_tree_forest(x, y, task, seed, 12, **limits), x)

    def test_jobs_are_checked_as_fit_forest_checks_them(self):
        x, y, _ = self.job("classification", 20, 2, 0)
        with pytest.raises(ValueError, match="unknown task"):
            next(fit_forests([(x, y, 0)], "ranking"))
        with pytest.raises(ValueError, match="labels must be 0/1"):
            list(fit_forests([(x, y, 0), (x, y + 2.0, 1)], "classification", n_trees=2))

    @pytest.mark.parametrize("name, task", [("tree", "regression"), ("ridge", "regression"), ("logistic", "classification")])
    def test_fit_models_fits_other_learners_one_job_at_a_time(self, name, task):
        jobs = [self.job(task, 30, p, s) for s, p in enumerate([5, 2])]
        for (x, y, seed), model in zip(jobs, models.fit_models(name, task, jobs), strict=True):
            want = models.fit_model(name, task, x, y, seed)
            assert predict(model, x).tobytes() == predict(want, x).tobytes()


class TestFrontDoor:
    """fit_model and fit_models: the one way a grid or sweep cell reaches a learner."""

    def test_model_options_are_frozen(self):
        # bench.parse_grid_config types a grid's overrides by these annotations
        # and lists them in this order when it refuses one
        assert {name: list(models.model_options(name).items()) for name in models.MODEL_NAMES} == {
            "ridge": [("alphas", Sequence[float])],
            "logistic": [("c", float), ("max_iter", int), ("tol", float)],
            "mlp": [
                ("hidden", int), ("epochs", int), ("lr", float), ("beta1", float), ("beta2", float),
                ("eps", float), ("l2", float), ("batch_size", int | None),
            ],
            "tree": [("impurity", str), ("max_depth", int | None), ("min_samples_split", int), ("min_samples_leaf", int)],
            "forest": [
                ("n_trees", int), ("max_depth", int | None), ("min_samples_split", int), ("bootstrap", bool),
                ("subsample_features", bool),
            ],
        }

    def test_forest_options_after_the_task_are_keyword_only(self):
        # a positional n_trees would otherwise become the seed
        x, y, _ = linear_data(n=20, p=2)
        with pytest.raises(TypeError):
            fit_forest(x, y, "regression", 5)

    @pytest.mark.parametrize(
        "name, task, error",
        [
            ("bogus", "regression", "unknown model 'bogus'"),
            ("ridge", "classification", "ridge is regression-only"),
            ("logistic", "regression", "logistic is classification-only"),
            ("forest", "ranking", "unknown task 'ranking'"),
        ],
    )
    def test_fit_models_checks_the_learner_and_task_when_called(self, name, task, error):
        # before, an empty job list yielded nothing, and any other the error at its first model
        with pytest.raises(ValueError, match=f"^{error}$"):
            models.fit_models(name, task, [])
        with pytest.raises(ValueError, match=f"^{error}$"):
            models.fit_model(name, task, np.zeros((4, 1)), np.zeros(4), 0)

    @pytest.mark.parametrize("name, fitter", [("ridge", "fit_ridge"), ("tree", "fit_tree"), ("forest", "fit_forest")])
    def test_fit_model_calls_its_fitter_through_the_module_attribute(self, monkeypatch, name, fitter):
        # a tracer wraps these attributes, so a bench cell's fit must look them up at call time
        calls, real = [], getattr(models, fitter)

        def counting(*args, **kwargs):
            calls.append(fitter)
            return real(*args, **kwargs)

        monkeypatch.setattr(models, fitter, counting)
        x, y, _ = linear_data(n=30, p=2, noise=0.5, seed=3)
        models.fit_model(name, "regression", x, y, 0, **({"n_trees": 3} if name == "forest" else {}))
        assert calls == [fitter]


def large_table(seed: int, n: int = 3000) -> tuple[np.ndarray, np.ndarray]:
    """n rows: two discrete columns (7 and 40 levels), a continuous one and a
    rounded one with ties; a real target from them plus uniform noise. Only
    uniform draws and exactly rounded arithmetic, so it is the same table
    wherever it is built."""
    u = np.random.default_rng(seed).random((n, 5))
    x = np.column_stack([
        np.floor(u[:, 0] * 7.0),
        np.floor(u[:, 1] * 40.0) / 4.0,
        u[:, 2],
        np.floor(u[:, 3] * 30.0) / 10.0 - 1.0,
    ])
    y = 0.5 * x[:, 0] + (x[:, 1] > 5.0) - 3.0 * x[:, 2] * x[:, 2] + u[:, 4]
    return x, y


def basen_table(seed: int, n: int = 4000) -> tuple[np.ndarray, np.ndarray]:
    """n rows: a continuous column, the 10 base-2 digits of a 1,000-level code,
    each as two values -c and c, and a rounded column with ties; a real
    target from them plus uniform noise. Built from uniform draws with exactly
    rounded arithmetic, as large_table is."""
    u = np.random.default_rng(seed).random((n, 4))
    code = np.floor(u[:, 0] * 1000.0)
    bits = np.floor(code[:, None] / 2.0 ** np.arange(10.0)) % 2.0
    x = np.column_stack([u[:, 1], (bits - 0.5) * np.arange(1.0, 11.0) / 4.0, np.floor(u[:, 2] * 50.0) / 10.0])
    y = 2.0 * u[:, 1] - 0.5 * x[:, -1] + bits @ np.r_[3.0, -2.0, 1.5, 1.0, -1.0, 0.5, 0.5, -0.25, 0.25, 0.125] + u[:, 3]
    return x, y


def tree_digests(tree: Tree) -> dict[str, str]:
    """sha256 of each flat array's bytes (little-endian int64 or float64)."""
    return {
        name: hashlib.sha256(
            np.ascontiguousarray(getattr(tree, name), dtype="<f8" if name in ("threshold", "value") else "<i8").tobytes()
        ).hexdigest()
        for name in ("feature", "threshold", "left", "value", "n_samples", "roots")
    }


class TestLargeNodes:
    """Trees on thousands of rows, byte for byte as recorded from the
    level-wise grower before its indices were cast to intp (the golden trees
    above have 26 rows, too few to reach the large-node paths)."""

    def test_mse_tree(self):
        x, y = large_table(11)
        tree = fit_tree(x, y, impurity="mse", max_depth=10, min_samples_split=10)
        assert tree.value.size == 875
        assert tree_digests(tree) == {
            "feature": "7a821148031caea6bfd43293ab2a89ae6457b696a01714b32eedbf9696ca572b",
            "threshold": "ea80d9936afd9d6521c0db09b8ca7fd0cc2ff586b67685a134b3018e825dba02",
            "left": "c356241a329249c5d5d0efae8ed06305f9efd3058a62ed81ba097c250049069a",
            "value": "1dd21a5dcecf73865be456ca58ac67a442e8dc798c56a2ce7fac3f959fd3be87",
            "n_samples": "297b25b15f2c06bb32c158f6ea110258c29125c3d8a91929c373e2b619acc060",
            "roots": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
        }

    def test_gini_forest(self):
        x, y = large_table(12)
        forest = fit_forest(x, (y > np.median(y)).astype(float), "classification", n_trees=20, seed=3)
        assert [t.value.size for t in forest.trees] == [7796]  # 20 trees grown as one batch
        assert tree_digests(forest.trees[0]) == {
            "feature": "a308acdaa3cf2992f2a2caeb334468b9b06cb1195d1413963012e6c7723e7340",
            "threshold": "dbfc2dce7ce45e7a81d44c83e3f412f506d20c2ed6e02d607de78e64b52665de",
            "left": "481f4badfac5702adc2d9db5ff5088f7065b562ac2e8d67ed19b05a9cb8f3ad6",
            "value": "8169e7df5f0842c4e7d4355dcbd6bb1d7e7e2721106ff56d36e14357172d4daa",
            "n_samples": "43cd596184b87d2907944cd7db7040d601a7cff1f2fdfda4ead40ddb52f98816",
            "roots": "f5c4cb24f4c9b43e624e0a83cb11934f932dbd5db24eee67fed696354ac88a61",
        }

    def test_wide_one_hot_forest(self, monkeypatch):
        # a gini forest on 60 one-hot columns draws 8 candidates a node, so
        # every level has features that no segment may split on; pinned
        # before the grower skipped such features
        u = np.random.default_rng(15).random((300, 2))
        code = np.floor(u[:, 0] * 60.0)
        x = (code[:, None] == np.arange(60.0)).astype(float)
        y = ((code % 7 < 3) != (u[:, 1] < 0.2)).astype(float)
        unused, draw = [], models._feature_candidates

        def spy(*args):
            candidate = draw(*args)
            unused.append(int((~candidate.any(axis=0)).sum()))
            return candidate

        monkeypatch.setattr(models, "_feature_candidates", spy)
        forest = fit_forest(x, y, "classification", n_trees=10, seed=2)
        assert len(unused) == 56 and min(unused) > 0
        assert [t.value.size for t in forest.trees] == [928]  # one batch
        assert tree_digests(forest.trees[0]) == {
            "feature": "36c976e55d95adf5990efbaaf85979a85d090700a0bc579fe66aa315a23b0c4f",
            "threshold": "dc435c802f843daf048c297648521ece88873801d217d8bbdc8c9a75e2020095",
            "left": "5ebd2c29f9716c7b222cd7af0a24a19e2bd55aaa2eaa6e4d91fde9b12308c7ba",
            "value": "02d1c3bb572cb94cf5a7daf412e4ff1e24457699c85385aee985f9203cc58bc1",
            "n_samples": "491d5e9c395924d85bcf04e193fd6f004734ea03825325b10c80162ff9b5e6ed",
            "roots": "23c379d6c0f22ef64cdef873fd530df1f1419b4a3935e9323d5f1d82ca697b6a",
        }

    def test_basen_mse_tree(self):
        # 10 two-valued columns (a base-2 code of 1,000 levels) beside 2
        # numeric ones, as on a base-n grid cell; pinned from the grower that
        # presorted and partitioned every column
        x, y = basen_table(16)
        tree = fit_tree(x, y, impurity="mse", max_depth=10, min_samples_split=10)
        assert tree.value.size == 1197
        assert tree_digests(tree) == {
            "feature": "893028c097dd3c9a5785487b36f36a3824e602eefc21af07e8e5a6df3dcbe13d",
            "threshold": "3a039a9d2349dd67655f3c81f4b616aeba6e6d2f303ee5c444a7ca49ba5eca3a",
            "left": "a4a5a629524584b05f82ea2079465b4e69b876b565ae0194204eb8b8ffb5627d",
            "value": "aa3ba0038b1aa9ed4c631c752b21342555cc32e5efa67cc4d363eab14f8c2ca2",
            "n_samples": "2f3f9ecae630f1e572b8f6ee772b0bc31b08050314433998321234b5066ca076",
            "roots": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
        }

    def test_level_of_32768_splits(self):
        # a balanced tree whose last split level holds 32,768 splits, so that
        # level's child ranks need a 32-bit key (numpy sorts it with timsort,
        # not radix); pinned as the rank-arithmetic partition grew it
        n = 1 << 16
        x, y = np.arange(float(n))[:, None], np.arange(float(n))
        tree = fit_tree(x, y, impurity="mse", max_depth=None, min_samples_split=2)
        assert tree.value.size == 2 * n - 1
        assert tree_digests(tree) == {
            "feature": "3bc90ef11b3b9df22c3368886a53ed4a94d35448b64b514ad09f179a27a35ce5",
            "threshold": "4dcf9dab940bf8fc17711848e6b652f056e120f9ae611c57dbe7f310103d159e",
            "left": "c73a2ce844417075e12ff8364cf86d76c94a13ca9f6ccb11197f85bb58af5622",
            "value": "a09b5edb505533915b68577e99ce64d292906f7f9b479b5479236cb438cac532",
            "n_samples": "b8549dc6b921562e313242214c959c55af025a5329e0d93da47bcab84860959a",
            "roots": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
        }

    def test_peak_memory_is_below_one_and_a_fifth_copies_of_x(self):
        # the per-feature sample ids and value ranks, stored in their smallest
        # dtypes, and the mse scoring buffers; no copy of x
        rng = np.random.default_rng(4)
        n = 20_000
        x = np.column_stack([rng.integers(0, 2, (n, 15)).astype(float), rng.normal(size=(n, 2))])
        y = x[:, :15] @ rng.normal(size=15) + rng.normal(size=n)
        tracemalloc.start()
        try:
            fit_tree(x, y, impurity="mse", max_depth=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * x.nbytes

    # trees on each side of the grower's index dtype edges, pinned before the
    # sample ids and value ranks were stored in their smallest dtype: at 256
    # and 257 rows the ids (and the continuous column's ranks) cross from
    # uint8 to uint16, at 65,536 and 65,537 from uint16 to uint32
    TREE_EDGE_DIGESTS = {
        256: (91, {
            "feature": "2fd966c2be65e1c7168eadd5fd7bf0a5c273c47ce0b0489284d20bca8ebf54b4",
            "threshold": "0120d8aaef4516522958e73e302e61a8548eacb36828e6b014544c36750ad1d9",
            "left": "a0b70eafe1fb2aa7e0205983f97c45cb724b6de26b52f8f582be52cc35ffb0ee",
            "value": "dd30ce955c6c167ccf1ddf67d4bcb4bf78bb63a4c6945423688c01159330f900",
            "n_samples": "f28dcad076d0e95d6d8c60930847f61d5b6d1a19f7bf7b0971fc92078919b859",
            "roots": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
        }),
        257: (85, {
            "feature": "7c0198e6bdeb9cbda847ae23227455d35432bbe08710ef3590b62a5eaf4b78ad",
            "threshold": "6fc439ea0ef818613a37e11100bf3365a0870dcb543e9abb7fa03f2029851274",
            "left": "64badef43784cda2c78aad1ea5fa3575163f10467e9a26d5d9c47f89967a7ed0",
            "value": "6a1277e47601fbdcb49f71fc794c3cdfebd86ab632453fa8b99d4e90dd85e4f2",
            "n_samples": "e0f39640d75d2c8db318dafb1c1adbab03c6186f1c0f40891fcbb35045e781bc",
            "roots": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
        }),
        65536: (1957, {
            "feature": "0019505d4afcb82048fbb1031514c71a45dc26c67671b64252a348e717f57a16",
            "threshold": "8da925758136eb5ef72d0d4c3b72bae14ddca5c0b7e4046f1c6c260123a8f81c",
            "left": "aaca9151c02fb2ffa88a0298cdf50c394f4f86ed2ba4babd5f362662822c720e",
            "value": "6f0bbcb04b4c143e414eed15d6ee2669840265f5efa799a54276a72a9c95a783",
            "n_samples": "37d383f67d0f1c21b3ca6f8000e3b3c63a5659db57d28e5634ce447b389c95d2",
            "roots": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
        }),
        65537: (1957, {
            "feature": "6b803742ea73b51b9a6142a91405ca762b7d957a2e5b5a9aac7602caaff358bb",
            "threshold": "527be1349695356a382cfeec51199afa07d66541015f9554540334051ab5538a",
            "left": "aaca9151c02fb2ffa88a0298cdf50c394f4f86ed2ba4babd5f362662822c720e",
            "value": "52a26ee83c9b416dfca375a6db4852b5fd743331d07d9b63dbc166ceb39df73c",
            "n_samples": "c975bf7ec59660ca5a30a2bd5fa1dd9f554062b0b58d0ee6eb4b68ee8c462261",
            "roots": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
        }),
    }

    # a gini forest batch of 16 trees: 65,536 sample ids (uint16) and 65,552 (uint32)
    FOREST_EDGE_DIGESTS = {
        4096: (7728, {
            "feature": "a7e189514deedcc0b19bd6fe5afd0c1c8d85dc0fa18b65aa2cf191a8011afaac",
            "threshold": "c0871d684d9e5f5540c36aa0173beb0f9bfd54ea3af4685b897497e37abbce6f",
            "left": "2fe952e30be6986ce0252172a67bb065b650f967e178da48039133c3effad034",
            "value": "d71ad838829ac58d6e56c7440bec7a1025c2bea5925723df1714403f1fbaedf4",
            "n_samples": "e37b7570748614f8f67b80957bc2d2745ae9e73aa68f98c0e57b62926e25825c",
            "roots": "f23d672bb9b341f9afa8498423b75deb80e726145969391d4b9392464c2298ee",
        }),
        4097: (7712, {
            "feature": "32358eee348961242d391bce26b62c95f9b01bc6c89a29a3717797acb50f88b3",
            "threshold": "beb58546004ec7472c4d4983a85812d86b16886585ae1a968691bf3cba25b5e6",
            "left": "030a213f2316cb1cc4dc8326834ac676cecdb4e46730d365507abdd962a0307b",
            "value": "1b6bebc052a3c20cda6bb3a2aa85306ee2c9a4071e7af5a35d76e77e9d5ba811",
            "n_samples": "4351a37e90d1f03ff8ede4c8f7e9e30d23da2cf61e2e0fe4ad642fd2abb5fe5b",
            "roots": "f23d672bb9b341f9afa8498423b75deb80e726145969391d4b9392464c2298ee",
        }),
    }

    @pytest.mark.parametrize("n", sorted(TREE_EDGE_DIGESTS))
    def test_tree_at_index_dtype_edges(self, n):
        x, y = large_table(13, n)
        tree = fit_tree(x, y, impurity="mse", max_depth=10, min_samples_split=10)
        size, digests = self.TREE_EDGE_DIGESTS[n]
        assert tree.value.size == size
        assert tree_digests(tree) == digests

    @pytest.mark.parametrize("n", sorted(FOREST_EDGE_DIGESTS))
    def test_forest_batch_at_index_dtype_edge(self, n):
        x, y = large_table(14, n)
        forest = fit_forest(x, (y > np.median(y)).astype(float), "classification", n_trees=16, seed=5, max_depth=12)
        size, digests = self.FOREST_EDGE_DIGESTS[n]
        assert [t.value.size for t in forest.trees] == [size]  # one batch
        assert tree_digests(forest.trees[0]) == digests


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
    """The forest's output (vote fraction or tree mean) from the walked (trees,
    rows) votes, a C-ordered array: for more than one row its mean adds the
    trees one at a time."""
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
        got = predict_proba(forest, x) if forest.task == "classification" else predict(forest, x)
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

    @staticmethod
    def chains(depths, p=2) -> Tree:
        """One tree per depth d: a chain whose node at level l sends x[l % p] <= l
        to a leaf and the rest on, down to a last leaf at depth d, so the
        leaves sit at every depth from 0 to max(depths)."""
        feature, threshold, left = [], [], []

        def node():
            feature.append(-1), threshold.append(np.nan), left.append(-1)
            return len(feature) - 1

        roots = [node() for _ in depths]
        for root, depth in zip(roots, depths):
            at = root
            for level in range(depth):
                lo, hi = node(), node()
                feature[at], threshold[at], left[at] = level % p, float(level), lo
                at = hi
        size = len(feature)
        value = np.random.default_rng(len(depths)).normal(size=size)
        return Tree(np.array(feature), np.array(threshold), np.array(left), value, np.ones(size, int), np.array(roots), p)

    def test_chain_leaves_at_every_depth(self):
        tree = self.chains(range(8))
        rng = np.random.default_rng(7)
        x = rng.integers(-1, 9, size=(400, 2)).astype(float)
        x[rng.random(x.shape) < 0.1] = np.nan
        x[rng.random(x.shape) < 0.05] = np.inf
        got = predict_tree(tree, x)
        assert np.array_equal(got, walk_reference(tree, x))
        leaves = np.flatnonzero(tree.feature < 0)
        assert np.isin(tree.value[leaves], got).all()  # every leaf, at every depth, is reached

    def test_roots_that_are_all_leaves(self):
        for p in (0, 2):
            tree = Tree(np.full(5, -1), np.full(5, np.nan), np.full(5, -1), np.arange(5.0), np.ones(5, int), np.arange(5), p)
            x = np.random.default_rng(1).normal(size=(6, p))
            if p:
                x[0] = np.nan
            got = predict_tree(tree, x)
            assert np.array_equal(got, walk_reference(tree, x))
            assert np.array_equal(got, np.repeat(np.arange(5.0)[:, None], 6, axis=1))

    def test_a_cell_at_a_threshold_goes_left_and_inf_and_nan_right(self):
        tree = Tree(np.array([0, -1, -1]), np.array([1.5, np.nan, np.nan]), np.array([1, -1, -1]),
                    np.array([0.0, 10.0, 20.0]), np.ones(3, int), np.array([0]), 1)
        x = np.array([[1.5], [np.nextafter(1.5, np.inf)], [np.inf], [np.nan], [-np.inf], [np.nextafter(1.5, 0.0)]])
        got = predict_tree(tree, x)
        assert np.array_equal(got, [[10.0, 20.0, 20.0, 20.0, 10.0, 10.0]])
        assert np.array_equal(got, walk_reference(tree, x))

    @staticmethod
    def hand(p, *roots) -> Tree:
        """One tree per root spec: a (feature, threshold, left, right) tuple at a
        split, the leaf value at a leaf; nodes are numbered breadth first."""
        feature, threshold, left, value = [], [], [], []

        def node():
            feature.append(-1), threshold.append(np.nan), left.append(-1), value.append(0.0)
            return len(feature) - 1

        queue = [(node(), spec) for spec in roots]
        for at, spec in queue:  # grows as it is read
            if isinstance(spec, tuple):
                f, t, lo, hi = spec
                feature[at], threshold[at], left[at] = f, t, node()
                node()
                queue += [(left[at], lo), (left[at] + 1, hi)]
            else:
                value[at] = float(spec)
        size = len(feature)
        return Tree(np.array(feature), np.array(threshold), np.array(left), np.array(value), np.ones(size, int),
                    np.arange(len(roots)), p)

    #: column 1 has three cuts and column 0 two, so column 1 is the inner one:
    #: the groups of one column-0 bin form a block, walked as one range until
    #: the cuts at 0.5, 1.0 and 1.5 fall inside it
    INNER_CUT_TREE = (
        (1, 0.5, (0, 0.0, 1, 2), (1, 1.5, 3, 4)),
        (1, 1.0, 5, (0, 0.0, 6, 7)),
    )

    def test_an_inner_cut_inside_a_block_cuts_its_range(self):
        tree = self.hand(2, *self.INNER_CUT_TREE)
        x = np.array([[a, b] for a in (-1.0, 1.0) for b in (0.0, 0.5, 1.0, 1.5, 2.0)])
        got = predict_tree(tree, x)
        assert np.array_equal(got, walk_reference(tree, x))
        assert np.array_equal(got, [[1, 1, 3, 3, 4, 2, 2, 3, 3, 4], [5, 5, 5, 6, 6, 5, 5, 5, 7, 7]])

    def test_nan_and_infinite_cells_in_the_inner_and_an_outer_column(self):
        tree = self.hand(2, *self.INNER_CUT_TREE)
        values = [-np.inf, -1.0, 0.0, 0.5, 1.0, 1.5, 2.0, np.inf, np.nan]
        x = np.array([[a, b] for a in values for b in values])
        got = predict_tree(tree, x)
        assert np.array_equal(got, walk_reference(tree, x))
        assert np.array_equal(got[:, -9:], [[2, 2, 2, 2, 3, 3, 4, 4, 4], [5, 5, 5, 5, 5, 7, 7, 7, 7]])  # column 0 NaN

    def test_one_feature_is_one_block(self):
        tree = self.hand(1, (0, 0.0, (0, -1.0, 1, 2), (0, 1.0, 3, (0, 2.0, 4, 5))), (0, 0.5, 6, 7))
        x = np.array([[-2.0], [-1.0], [-0.5], [0.0], [0.5], [1.0], [1.5], [2.0], [3.0], [np.nan], [np.inf], [-np.inf]])
        got = predict_tree(tree, x)
        assert np.array_equal(got, walk_reference(tree, x))
        assert np.array_equal(got[0], [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 5, 1])
        rng = np.random.default_rng(8)
        z = np.round(rng.normal(size=(200, 1)), 1)
        self.check(fit_forest(z, z[:, 0] + rng.normal(size=200), "regression", n_trees=20, seed=4), z)

    def test_equal_cut_counts_make_the_lower_column_inner(self):
        # two cuts on each column: column 0 is inner, so the ranges run along it
        tree = self.hand(2, (0, 0.0, (1, 0.0, 1, 2), (1, 1.0, 3, 4)), (0, 1.0, 5, 6))
        values = [-1.0, 0.0, 0.5, 1.0, 2.0, np.nan]
        x = np.array([[a, b] for a in values for b in values])
        assert np.array_equal(predict_tree(tree, x), walk_reference(tree, x))

    def test_zero_rows_and_zero_columns(self):
        tree = self.hand(2, *self.INNER_CUT_TREE)
        assert predict_tree(tree, np.empty((0, 2))).shape == (2, 0)
        stumps = self.hand(0, 1.0, 2.0)
        assert np.array_equal(predict_tree(stumps, np.empty((3, 0))), [[1.0] * 3, [2.0] * 3])
        assert predict_tree(stumps, np.empty((0, 0))).shape == (2, 0)

    def test_forest_grown_in_several_batches(self, monkeypatch):
        monkeypatch.setattr(models, "_BATCH_CELLS", 2000)
        rng = np.random.default_rng(6)
        x = np.column_stack([rng.integers(0, 4, 150).astype(float), rng.random(150)])
        y = (x[:, 0] % 2 == 1) != (x[:, 1] < 0.3)
        forest = fit_forest(x, y.astype(float), "classification", n_trees=12, seed=3)
        assert len(forest.trees) > 1
        self.check(forest, np.vstack([x, [[np.nan, 0.5], [1.0, np.nan], [-np.inf, np.inf]]]))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        levels=st.integers(1, 6),
        n=st.integers(2, 80),
        task=st.sampled_from(["classification", "regression"]),
    )
    def test_run_walk_matches_the_reference_beside_a_low_cardinality_column(self, seed, levels, n, task):
        rng = np.random.default_rng(seed)
        x = np.column_stack([rng.integers(0, levels, n).astype(float), np.round(rng.normal(size=n), 2)])
        y = x[:, 0] * x[:, 1] + rng.normal(size=n)
        forest = fit_forest(x, (y > 0).astype(float) if task == "classification" else y, task,
                            n_trees=int(rng.integers(1, 12)), seed=seed % 1000)
        test = np.column_stack([rng.integers(-1, levels + 1, 60).astype(float), np.round(rng.normal(size=60), 2)])
        odd = rng.random(test.shape) < 0.1
        test[odd] = rng.choice([np.nan, np.inf, -np.inf], size=int(odd.sum()))
        for batch in forest.trees:
            assert np.array_equal(predict_tree(batch, test), walk_reference(batch, test))

    def test_read_only_x_with_nan_is_not_written(self, fitted):
        forest, x = fitted
        odd = x[:40].copy()
        odd[::3, 1] = np.nan
        before = odd.copy()
        odd.flags.writeable = False
        (tree,) = forest.trees
        assert np.array_equal(predict_tree(tree, odd), walk_reference(tree, odd))
        assert np.array_equal(odd, before, equal_nan=True)

    @pytest.mark.parametrize("width", [1, 5])
    def test_wrong_width_is_rejected(self, width):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 2))
        y = (x[:, 0] > 0).astype(float)
        tree = models.fit_model("tree", "classification", x, y, 0, min_samples_split=2)
        forest = fit_forest(x, y, "classification", n_trees=5, seed=0)
        for model in (tree, forest):
            for fn in (predict, predict_proba):
                with pytest.raises(ValueError, match=rf"fit on 2 columns, got x of shape \(3, {width}\)"):
                    fn(model, np.zeros((3, width)))
        with pytest.raises(ValueError, match=rf"fit on 2 columns, got x of shape \(3, {width}\)"):
            predict_tree(tree.trees[0], np.zeros((3, width)))


class TestPredictionContract:
    """Every model fit_model returns knows its task; predict needs nothing else."""

    @staticmethod
    def noisy(task, n=80, seed=3):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 2))
        y = x[:, 0] + rng.normal(size=n)
        return x, (y > 0).astype(float) if task == "classification" else y

    def fit(self, name, task):
        x, y = self.noisy(task)
        quick = {"mlp": {"epochs": 2, "hidden": 4}, "forest": {"n_trees": 3}}.get(name, {})
        return models.fit_model(name, task, x, y, 0, **quick), x

    @pytest.mark.parametrize(
        "name, task",
        [(m, t) for m in models.MODEL_NAMES for t in ("regression", "classification")
         if (m, t) not in (("ridge", "classification"), ("logistic", "regression"))],
    )
    def test_every_fitted_model_carries_its_task(self, name, task):
        model, x = self.fit(name, task)
        assert model.task == task
        pred = predict(model, x)
        assert pred.shape == (x.shape[0],)
        if task == "classification":
            assert set(np.unique(pred)) <= {0.0, 1.0}
            np.testing.assert_array_equal(pred, (predict_proba(model, x) >= 0.5).astype(float))

    def test_classification_tree_predicts_labels(self):
        # a depth-1 tree on noisy labels has impure leaves: their class-1
        # fractions lie strictly between 0 and 1, and predict must cut them
        x, y = self.noisy("classification")
        model = models.fit_model("tree", "classification", x, y, 0, max_depth=1)
        (tree,) = model.trees
        leaf = predict_tree(tree, x)[0]
        assert ((leaf > 0.0) & (leaf < 1.0)).any()
        np.testing.assert_array_equal(predict(model, x), (leaf >= 0.5).astype(float))
        np.testing.assert_array_equal(predict_proba(model, x), (leaf >= 0.5).astype(float))

    def test_regression_tree_predicts_its_leaf_values(self):
        x, y = self.noisy("regression")
        model = models.fit_model("tree", "regression", x, y, 0, max_depth=3)
        np.testing.assert_array_equal(predict(model, x), predict_tree(model.trees[0], x)[0])

    @pytest.mark.parametrize(
        "name, task, params",
        [
            ("ridge", "regression", {}),
            ("ridge", "regression", {"alphas": (1.0,)}),
            ("logistic", "classification", {}),
            ("mlp", "regression", {"epochs": 2, "hidden": 4}),
            ("mlp", "classification", {"epochs": 2, "hidden": 4}),
            ("tree", "classification", {}),
            ("forest", "regression", {"n_trees": 3}),
        ],
        ids=["ridge", "ridge-one-alpha", "logistic", "mlp-regression", "mlp-classification", "tree", "forest"],
    )
    @pytest.mark.parametrize(
        "cell, bad", [((5, 1), np.nan), ((5, 0), np.inf), (5, np.nan), (7, -np.inf)], ids=["x-nan", "x-inf", "y-nan", "y-neg-inf"]
    )
    def test_non_finite_input_is_refused(self, name, task, params, cell, bad):
        # before, ridge returned all-NaN weights for one alpha and blamed the CV
        # for several, logistic returned zero weights, and the MLP a NaN loss
        x, y = self.noisy(task)
        (x if isinstance(cell, tuple) else y)[cell] = bad
        with pytest.raises(ValueError, match="^x and y must be finite$"):
            models.fit_model(name, task, x, y, 0, **params)

    #: each learner's public fitters, called as fit_model calls them
    PUBLIC_FITTERS = {
        "ridge": [lambda x, y, task: fit_ridge(x, y)],
        "logistic": [lambda x, y, task: fit_logistic(x, y)],
        "mlp": [
            lambda x, y, task: fit_mlp(x, y, task, epochs=1, hidden=2),
            lambda x, y, task: train_mlp(init_mlp(2, task, 0, hidden=2), x, y, seed=1, epochs=1),
        ],
        "tree": [lambda x, y, task: fit_tree(x, y, impurity="gini" if task == "classification" else "mse")],
        "forest": [lambda x, y, task: fit_forest(x, y, task, n_trees=2)],
    }

    def refusals(self, name, task, x, y, message):
        quick = {"mlp": {"epochs": 1, "hidden": 2}, "forest": {"n_trees": 2}}.get(name, {})
        with pytest.raises(ValueError, match=message):
            models.fit_model(name, task, x, y, 0, **quick)
        for fit in self.PUBLIC_FITTERS[name]:
            with pytest.raises(ValueError, match=message):
                fit(x, y, task)

    @pytest.mark.parametrize("name", models.MODEL_NAMES)
    @pytest.mark.parametrize("case", ["x-1d", "y-one-longer", "no-rows", "y-2d"])
    def test_every_learner_refuses_a_mismatched_shape(self, name, case):
        # before, the MLP dropped y's extra value or failed with an IndexError,
        # logistic with numpy's broadcast or unpack messages, ridge with a TypeError
        task = "regression" if name == "ridge" else "classification"
        x, y = self.noisy(task)
        x, y = {
            "x-1d": (x[:, 0], y),
            "y-one-longer": (x, np.append(y, y[0])),
            "no-rows": (x[:0], y[:0]),
            "y-2d": (x, y[:, None]),
        }[case]
        self.refusals(name, task, x, y, r"^x must be \(n, p\) with matching nonempty y$")

    @pytest.mark.parametrize("name", [m for m in models.MODEL_NAMES if m != "ridge"])
    def test_every_classifier_refuses_a_label_other_than_0_or_1(self, name):
        # before, the MLP trained on any labels and logistic listed every distinct value
        x, y = self.noisy("classification")
        y[7] = 2.0
        self.refusals(name, "classification", x, y, r"^labels must be 0/1, got 2.0$")

    @pytest.mark.parametrize("name", models.MODEL_NAMES)
    def test_unknown_task_is_refused(self, name):
        # a tree used to be fit as a regression tree for any task but classification
        x, y = self.noisy("classification")
        with pytest.raises(ValueError, match="unknown task 'ranking'"):
            models.fit_model(name, "ranking", x, y, 0)

    @pytest.mark.parametrize("name", ["ridge", "mlp", "tree", "forest"])
    def test_predict_proba_refuses_a_regression_model(self, name):
        model, x = self.fit(name, "regression")
        with pytest.raises(ValueError, match="regression .* has no probabilities"):
            predict_proba(model, x)

    @pytest.mark.parametrize(
        "name, key, refused, smallest",
        [
            ("mlp", "hidden", [0, -1], 1),
            ("mlp", "epochs", [0, -1], 1),
            ("mlp", "lr", [0.0, -1.0, np.nan, np.inf], 1e-300),
            ("mlp", "l2", [-5.0, np.nan, np.inf], 0.0),
            ("mlp", "batch_size", [0, -1], 1),
            ("logistic", "max_iter", [0, -3], 1),
            ("logistic", "tol", [-1.0, np.nan, np.inf], 0.0),
            ("tree", "min_samples_leaf", [0, -2], 1),
            ("tree", "min_samples_split", [0, -5], 1),
            ("forest", "min_samples_split", [0, -5], 1),
            ("mlp", "beta1", [1.0, -0.1, np.nan], 0.0),
            ("mlp", "beta2", [1.0, 2.0, np.nan], 0.0),
            ("mlp", "eps", [0.0, -1e-8, np.nan, np.inf], 1e-300),
        ],
    )
    def test_out_of_range_hyperparameters_are_refused(self, name, key, refused, smallest):
        # fit_model is the bench cell's path, so such a grid override fails its cells
        x, y = self.noisy("classification", n=30)
        quick = {"mlp": {"epochs": 2, "hidden": 4}, "forest": {"n_trees": 2}}.get(name, {})
        for value in refused:
            with pytest.raises(ValueError, match=rf"^{key} must be .*, got {value}$"):
                models.fit_model(name, "classification", x, y, 0, **{**quick, key: value})
        models.fit_model(name, "classification", x, y, 0, **{**quick, key: smallest})
