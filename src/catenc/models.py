"""In-repo learners: ridge, logistic regression, a small MLP, CART, and a forest.

All five are deterministic functions of (data, hyperparameters, seed). The
gradient-based ones expose their loss/gradient so tests can finite-difference
them; the trees use midpoint thresholds and vectorized prefix scans.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

RIDGE_ALPHAS = (0.1, 1.0, 10.0)


@dataclass
class RidgeModel:
    weights: np.ndarray
    intercept: float
    alpha: float


def _ridge_solve(x: np.ndarray, y: np.ndarray, alpha: float) -> tuple[np.ndarray, float]:
    x_mean = x.mean(axis=0)
    y_mean = y.mean()
    xc = x - x_mean
    yc = y - y_mean
    gram = xc.T @ xc + alpha * np.eye(x.shape[1])
    w = np.linalg.solve(gram, xc.T @ yc)
    return w, float(y_mean - x_mean @ w)


def fit_ridge(x: np.ndarray, y: np.ndarray, alphas: Sequence[float] = RIDGE_ALPHAS) -> RidgeModel:
    """L2-penalized least squares with an unpenalized intercept.

    alpha is picked from the candidates by deterministic k-fold CV (round-robin
    fold assignment, k = min(5, n)); ties keep the earliest candidate.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("x must be (n, p) with matching y")
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least 2 rows")
    if not alphas:
        raise ValueError("no alpha candidates")
    alphas = tuple(float(a) for a in alphas)
    if len(alphas) == 1:
        best = alphas[0]
    else:
        k = min(5, n)
        folds = np.arange(n) % k
        best, best_err = None, np.inf
        for alpha in alphas:
            err = 0.0
            for f in range(k):
                mask = folds == f
                w, b = _ridge_solve(x[~mask], y[~mask], alpha)
                resid = y[mask] - (x[mask] @ w + b)
                err += float(resid @ resid)
            if err < best_err:
                best, best_err = alpha, err
        assert best is not None
    w, b = _ridge_solve(x, y, best)
    return RidgeModel(weights=w, intercept=b, alpha=best)


@dataclass
class LogisticModel:
    weights: np.ndarray
    intercept: float
    c: float
    n_iter: int
    converged: bool


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_loss_and_grad(
    params: np.ndarray, x: np.ndarray, y: np.ndarray, c: float
) -> tuple[float, np.ndarray]:
    """Penalized objective sum(logloss) + ||w||^2 / (2C) and its gradient.

    params stacks (weights, intercept); the intercept is unpenalized.
    """
    w, b = params[:-1], params[-1]
    z = x @ w + b
    # stable log(1 + exp(z)) - y*z
    loss = float(np.sum(np.logaddexp(0.0, z) - y * z)) + float(w @ w) / (2.0 * c)
    p = _sigmoid(z)
    grad_w = x.T @ (p - y) + w / c
    grad_b = float(np.sum(p - y))
    return loss, np.concatenate([grad_w, [grad_b]])


def fit_logistic(
    x: np.ndarray,
    y: np.ndarray,
    c: float = 1.0,
    max_iter: int = 100,
    tol: float = 1e-8,
) -> LogisticModel:
    """Damped Newton (IRLS) on the penalized log-loss; intercept unpenalized.

    Refuses single-class targets. Step halving keeps the objective monotone, so
    the L2-regularized problem converges to its unique optimum. When 30 halvings
    find no step that does not raise the loss, the fit stops at the current
    parameters with converged=False; n_iter counts the accepted steps.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    classes = set(np.unique(y).tolist())
    if not classes <= {0.0, 1.0}:
        raise ValueError(f"labels must be 0/1, got {sorted(classes)}")
    if len(classes) < 2:
        raise ValueError("single-class targets: nothing to separate")
    n, p = x.shape
    params = np.zeros(p + 1)
    penalty = np.concatenate([np.full(p, 1.0 / c), [0.0]])
    xa = np.hstack([x, np.ones((n, 1))])
    loss, grad = logistic_loss_and_grad(params, x, y, c)
    converged = False
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        if float(np.max(np.abs(grad))) < tol:
            converged = True
            n_iter -= 1
            break
        prob = _sigmoid(xa @ params)
        s = np.maximum(prob * (1.0 - prob), 1e-12)
        hess = (xa * s[:, None]).T @ xa + np.diag(penalty)
        step = np.linalg.solve(hess, grad)
        scale = 1.0
        for _ in range(30):
            trial = params - scale * step
            trial_loss, trial_grad = logistic_loss_and_grad(trial, x, y, c)
            if trial_loss <= loss:
                break
            scale *= 0.5
        else:
            n_iter -= 1
            break
        params, loss, grad = trial, trial_loss, trial_grad
    else:
        converged = float(np.max(np.abs(grad))) < tol
    return LogisticModel(
        weights=params[:-1],
        intercept=float(params[-1]),
        c=c,
        n_iter=n_iter,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# MLP


@dataclass
class MLPModel:
    """One hidden ReLU layer; output is linear (regression) or a logit (binary)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    task: str
    adam_state: dict = field(default_factory=dict)

    def params(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2]


MLP_DEFAULTS = dict(
    hidden=100,
    lr=1e-3,
    beta1=0.9,
    beta2=0.999,
    eps=1e-8,
    l2=1e-4,
    epochs=200,
)


def _mlp_output(model: MLPModel, x: np.ndarray) -> np.ndarray:
    """Forward pass: the linear output (regression) or logit (binary), per row."""
    return (np.maximum(x @ model.w1 + model.b1, 0.0) @ model.w2 + model.b2).ravel()


def init_mlp(n_features: int, task: str, seed: int, hidden: int = 100) -> MLPModel:
    """Uniform +-sqrt(6 / (fan_in + fan_out)) weights, zero biases."""
    if task not in ("regression", "classification"):
        raise ValueError(f"unknown task {task!r}")
    rng = np.random.default_rng(seed)
    lim1 = np.sqrt(6.0 / (n_features + hidden))
    lim2 = np.sqrt(6.0 / (hidden + 1))
    return MLPModel(
        w1=rng.uniform(-lim1, lim1, size=(n_features, hidden)),
        b1=np.zeros(hidden),
        w2=rng.uniform(-lim2, lim2, size=(hidden, 1)),
        b2=np.zeros(1),
        task=task,
    )


def mlp_loss_and_grads(
    model: MLPModel, x: np.ndarray, y: np.ndarray, l2: float = MLP_DEFAULTS["l2"]
) -> tuple[float, list[np.ndarray]]:
    """Batch loss and parameter gradients.

    Regression: 0.5 * mean squared error. Classification: mean binary log-loss on
    the sigmoid output. Both add 0.5 * l2 * sum(||W||^2) / batch_size, biases
    excluded from the penalty.
    """
    n = x.shape[0]
    y = y.reshape(-1, 1)
    pre_h = x @ model.w1 + model.b1
    h = np.maximum(pre_h, 0.0)
    out = h @ model.w2 + model.b2
    if model.task == "regression":
        diff = out - y
        data_loss = 0.5 * float(np.mean(diff**2))
        dout = diff / n
    else:
        p = _sigmoid(out)
        eps = 1e-12
        data_loss = float(-np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))
        dout = (p - y) / n
    reg = 0.5 * l2 * (float(np.sum(model.w1**2)) + float(np.sum(model.w2**2))) / n
    loss = data_loss + reg
    gw2 = h.T @ dout + l2 * model.w2 / n
    gb2 = dout.sum(axis=0)
    dh = dout @ model.w2.T
    dh[pre_h <= 0.0] = 0.0
    gw1 = x.T @ dh + l2 * model.w1 / n
    gb1 = dh.sum(axis=0)
    if not np.isfinite(loss):
        raise RuntimeError(f"non-finite MLP loss: {loss}")
    return loss, [gw1, gb1, gw2, gb2]


def train_mlp(
    model: MLPModel,
    x: np.ndarray,
    y: np.ndarray,
    seed: int,
    epochs: int = MLP_DEFAULTS["epochs"],
    lr: float = MLP_DEFAULTS["lr"],
    beta1: float = MLP_DEFAULTS["beta1"],
    beta2: float = MLP_DEFAULTS["beta2"],
    eps: float = MLP_DEFAULTS["eps"],
    l2: float = MLP_DEFAULTS["l2"],
    batch_size: int | None = None,
) -> MLPModel:
    """Adam with seeded epoch shuffling, fixed epoch count, no early stopping."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    if batch_size is None:
        batch_size = min(200, n)
    rng = np.random.default_rng(seed)
    params = model.params()
    moment1 = [np.zeros_like(p) for p in params]
    moment2 = [np.zeros_like(p) for p in params]
    t = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            _, grads = mlp_loss_and_grads(model, x[batch], y[batch], l2=l2)
            t += 1
            for p, g, m1, m2 in zip(params, grads, moment1, moment2):
                m1 *= beta1
                m1 += (1 - beta1) * g
                m2 *= beta2
                m2 += (1 - beta2) * g * g
                mhat = m1 / (1 - beta1**t)
                vhat = m2 / (1 - beta2**t)
                p -= lr * mhat / (np.sqrt(vhat) + eps)
    model.adam_state = {"t": t, "m": moment1, "v": moment2}
    return model


def fit_mlp(
    x: np.ndarray,
    y: np.ndarray,
    task: str,
    seed: int = 0,
    hidden: int = MLP_DEFAULTS["hidden"],
    **train_kwargs,
) -> MLPModel:
    x = np.asarray(x, dtype=float)
    model = init_mlp(x.shape[1], task, seed=seed, hidden=hidden)
    # distinct stream for shuffling so init and batching do not interact
    return train_mlp(model, x, y, seed=seed + 1, **train_kwargs)


# ---------------------------------------------------------------------------
# trees and forests


@dataclass
class TreeNode:
    value: float
    n_samples: int
    depth: int
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _node_impurity(y: np.ndarray, kind: str) -> float:
    if kind == "mse":
        return float(np.var(y))
    p = float(np.mean(y))
    if kind == "gini":
        return 2.0 * p * (1.0 - p)
    if kind == "entropy":
        if p <= 0.0 or p >= 1.0:
            return 0.0
        return float(-(p * np.log(p) + (1 - p) * np.log(1 - p)))
    raise ValueError(f"unknown impurity {kind!r}")


def _best_split_on_feature(
    xcol: np.ndarray, y: np.ndarray, kind: str, min_leaf: int
) -> tuple[float, float] | None:
    """Best (weighted child impurity, midpoint threshold) on one feature, or None."""
    n = y.shape[0]
    order = np.argsort(xcol, kind="stable")
    xs = xcol[order]
    ys = y[order]
    # split after position i (1-based prefix sizes 1..n-1)
    left_n = np.arange(1, n)
    valid = xs[1:] != xs[:-1]
    if min_leaf > 1:
        valid &= (left_n >= min_leaf) & (n - left_n >= min_leaf)
    if not valid.any():
        return None
    csum = np.cumsum(ys)[:-1]
    if kind == "mse":
        csq = np.cumsum(ys * ys)[:-1]
        total_sum = csum[-1] + ys[-1] if n > 1 else ys[-1]
        total_sq = (csq[-1] + ys[-1] ** 2) if n > 1 else ys[-1] ** 2
        sse_left = csq - csum**2 / left_n
        right_n = n - left_n
        rsum = total_sum - csum
        sse_right = (total_sq - csq) - rsum**2 / right_n
        weighted = (sse_left + sse_right) / n
    else:
        ones_left = csum
        right_n = n - left_n
        ones_right = float(ys.sum()) - ones_left
        p_left = ones_left / left_n
        p_right = ones_right / right_n
        if kind == "gini":
            weighted = (
                left_n * 2.0 * p_left * (1.0 - p_left)
                + right_n * 2.0 * p_right * (1.0 - p_right)
            ) / n
        else:

            def ent(p: np.ndarray) -> np.ndarray:
                out = np.zeros_like(p)
                inner = (p > 0.0) & (p < 1.0)
                q = p[inner]
                out[inner] = -(q * np.log(q) + (1 - q) * np.log(1 - q))
                return out

            weighted = (left_n * ent(p_left) + right_n * ent(p_right)) / n
    weighted = np.where(valid, weighted, np.inf)
    best = int(np.argmin(weighted))
    return float(weighted[best]), float((xs[best] + xs[best + 1]) / 2.0)


def fit_tree(
    x: np.ndarray,
    y: np.ndarray,
    impurity: str = "mse",
    max_depth: int | None = 10,
    min_samples_split: int = 10,
    min_samples_leaf: int = 1,
    rng: np.random.Generator | None = None,
    max_features: int | None = None,
) -> TreeNode:
    """Greedy binary CART with midpoint thresholds.

    A node becomes a leaf when it is pure, too small to split, at max depth, or
    no feature offers a valid split. Ties across features keep the lowest feature
    index (candidates are scanned in ascending index order). rng/max_features
    enable per-split feature subsampling for forests.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape[0] != y.shape[0] or x.shape[0] == 0:
        raise ValueError("x must be (n, p) with matching nonempty y")
    p = x.shape[1]
    root = TreeNode(value=float(y.mean()), n_samples=y.shape[0], depth=0)
    stack: list[tuple[TreeNode, np.ndarray]] = [(root, np.arange(y.shape[0]))]
    while stack:
        node, idx = stack.pop()
        ny = y[idx]
        if (
            (max_depth is not None and node.depth >= max_depth)
            or idx.shape[0] < min_samples_split
            or _node_impurity(ny, impurity) == 0.0
        ):
            continue
        if max_features is not None and max_features < p:
            assert rng is not None
            feats = np.sort(rng.choice(p, size=max_features, replace=False))
        else:
            feats = np.arange(p)
        best: tuple[float, int, float] | None = None
        for f in feats:
            found = _best_split_on_feature(x[idx, f], ny, impurity, min_samples_leaf)
            if found is None:
                continue
            score, thr = found
            if best is None or score < best[0]:
                best = (score, int(f), thr)
        if best is None:
            continue
        _, f, thr = best
        mask = x[idx, f] <= thr
        left_idx, right_idx = idx[mask], idx[~mask]
        node.feature = f
        node.threshold = thr
        node.left = TreeNode(value=float(y[left_idx].mean()), n_samples=left_idx.shape[0], depth=node.depth + 1)
        node.right = TreeNode(value=float(y[right_idx].mean()), n_samples=right_idx.shape[0], depth=node.depth + 1)
        stack.append((node.right, right_idx))
        stack.append((node.left, left_idx))
    return root


def predict_tree(root: TreeNode, x: np.ndarray) -> np.ndarray:
    """Leaf values per row (group mean / class-1 fraction), batch traversal."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape[0])
    stack: list[tuple[TreeNode, np.ndarray]] = [(root, np.arange(x.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            out[idx] = node.value
            continue
        mask = x[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[mask]))
        stack.append((node.right, idx[~mask]))
    return out


@dataclass
class ForestModel:
    trees: list[TreeNode]
    task: str
    n_features: int


def fit_forest(
    x: np.ndarray,
    y: np.ndarray,
    task: str,
    n_trees: int = 100,
    seed: int = 0,
    max_depth: int | None = None,
    min_samples_split: int = 2,
    bootstrap: bool = True,
    subsample_features: bool = True,
) -> ForestModel:
    """Bagged CART forest; each split draws ceil(sqrt(p)) candidate features.

    Tree t uses its own generator seeded from (seed, t), so cells are
    reproducible regardless of execution order.
    """
    if task not in ("regression", "classification"):
        raise ValueError(f"unknown task {task!r}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = x.shape
    impurity = "gini" if task == "classification" else "mse"
    max_features = int(np.ceil(np.sqrt(p))) if subsample_features else None
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        idx = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        trees.append(
            fit_tree(
                x[idx],
                y[idx],
                impurity=impurity,
                max_depth=max_depth,
                min_samples_split=min_samples_split,
                rng=rng,
                max_features=max_features,
            )
        )
    return ForestModel(trees=trees, task=task, n_features=p)


def predict_forest_proba(model: ForestModel, x: np.ndarray) -> np.ndarray:
    """Classification: fraction of trees voting class 1. Regression: tree mean."""
    votes = np.stack([predict_tree(t, x) for t in model.trees])
    if model.task == "classification":
        votes = (votes >= 0.5).astype(float)
    return votes.mean(axis=0)


# ---------------------------------------------------------------------------
# shared fit and prediction front doors

MODEL_NAMES = ("ridge", "logistic", "mlp", "tree", "forest")


def fit_model(name: str, task: str, x: np.ndarray, y: np.ndarray, seed: int, **params):
    """Fit a learner by name for a task; params override its keyword defaults.

    Ridge is regression-only and logistic classification-only. A tree defaults
    to gini (classification) or mse impurity, max_depth 10 and
    min_samples_split 10. The seed drives the MLP and the forest.
    """
    if name == "ridge":
        if task != "regression":
            raise ValueError("ridge is regression-only")
        return fit_ridge(x, y, **params)
    if name == "logistic":
        if task != "classification":
            raise ValueError("logistic is classification-only")
        return fit_logistic(x, y, **params)
    if name == "mlp":
        return fit_mlp(x, y, task=task, seed=seed, **params)
    if name == "tree":
        params.setdefault("impurity", "gini" if task == "classification" else "mse")
        params.setdefault("max_depth", 10)
        params.setdefault("min_samples_split", 10)
        return fit_tree(x, y, **params)
    if name == "forest":
        return fit_forest(x, y, task=task, seed=seed, **params)
    raise ValueError(f"unknown model {name!r}")


def predict(model, x: np.ndarray, task: str | None = None) -> np.ndarray:
    """Point predictions: real values for regression, 0/1 labels at a 0.5 cut
    for the classifiers.

    Every model but a bare TreeNode knows its own task; a tree grown on 0/1
    targets stores class-1 fractions in its leaves, so classification callers
    must say so to get labels back.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(model, RidgeModel):
        return x @ model.weights + model.intercept
    if isinstance(model, LogisticModel):
        return (predict_proba(model, x) >= 0.5).astype(float)
    if isinstance(model, MLPModel):
        out = _mlp_output(model, x)
        if model.task == "classification":
            return (_sigmoid(out) >= 0.5).astype(float)
        return out
    if isinstance(model, TreeNode):
        raw = predict_tree(model, x)
        if task == "classification":
            return (raw >= 0.5).astype(float)
        return raw
    if isinstance(model, ForestModel):
        vals = predict_forest_proba(model, x)
        if model.task == "classification":
            return (vals >= 0.5).astype(float)
        return vals
    raise TypeError(f"unknown model type {type(model).__name__}")


def predict_proba(model, x: np.ndarray) -> np.ndarray:
    """Class-1 probabilities for the classifiers."""
    x = np.asarray(x, dtype=float)
    if isinstance(model, LogisticModel):
        return _sigmoid(x @ model.weights + model.intercept)
    if isinstance(model, MLPModel):
        if model.task != "classification":
            raise ValueError("regression MLP has no probabilities")
        return _sigmoid(_mlp_output(model, x))
    if isinstance(model, TreeNode):
        return predict_tree(model, x)
    if isinstance(model, ForestModel):
        if model.task != "classification":
            raise ValueError("regression forest has no probabilities")
        return predict_forest_proba(model, x)
    raise TypeError(f"no probabilities for {type(model).__name__}")
