"""In-repo learners: ridge, logistic regression, a small MLP, CART, and a forest.

All five are deterministic functions of (data, hyperparameters, seed). The
gradient-based ones expose their loss/gradient so tests can finite-difference
them. The trees search exact midpoint thresholds: one level-wise grower
scores every node of a level, across all the trees of a forest, in a few
vectorized prefix scans per presorted feature. The trees are flat node arrays
that prediction walks in lock step, one row per group of rows that no
threshold separates.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

RIDGE_ALPHAS = (0.1, 1.0, 10.0)


@dataclass
class RidgeModel:
    weights: np.ndarray
    intercept: float
    alpha: float


def _ridge_moments(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Column means, target mean, and the centered x'x and x'y of a ridge fit."""
    x_mean, y_mean = x.mean(axis=0), y.mean()
    xc, yc = x - x_mean, y - y_mean
    return x_mean, y_mean, xc.T @ xc, xc.T @ yc


def _ridge_solve(x_mean, y_mean, xtx, xty, alpha: float) -> tuple[np.ndarray, float]:
    w = np.linalg.solve(xtx + alpha * np.eye(xtx.shape[0]), xty)
    return w, float(y_mean - x_mean @ w)


def fit_ridge(x: np.ndarray, y: np.ndarray, alphas: Sequence[float] = RIDGE_ALPHAS) -> RidgeModel:
    """L2-penalized least squares with an unpenalized intercept.

    alpha is picked from the candidates by deterministic k-fold CV (round-robin
    fold assignment, k = min(5, n)); ties keep the earliest candidate. Each
    fold's centered moments are computed once and shared by the candidates.
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
        moments = [_ridge_moments(x[folds != f], y[folds != f]) for f in range(k)]  # (p, p) each, no copy of x
        best, best_err = None, np.inf
        for alpha in alphas:
            err = 0.0
            for f in range(k):
                mask = folds == f
                w, b = _ridge_solve(*moments[f], alpha)
                resid = y[mask] - (x[mask] @ w + b)
                err += float(resid @ resid)
            if err < best_err:
                best, best_err = alpha, err
        assert best is not None
    w, b = _ridge_solve(*_ridge_moments(x, y), best)
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
    is_one = y == 1
    if not (is_one | (y == 0)).all():
        raise ValueError(f"labels must be 0/1, got {sorted(set(y.tolist()))}")
    if is_one.all() or not is_one.any():
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
class Tree:
    """One or more CART trees as flat parallel arrays over their nodes.

    Node i sends a row with x[feature[i]] <= threshold[i] to node left[i] and
    any other row, NaN included, to left[i] + 1 (children come in pairs); at a
    leaf feature and left are -1 and threshold NaN. value is the target mean
    (class-1 fraction for 0/1 labels), n_samples the training rows. Tree t
    starts at node roots[t]; the roots come first, then each level's children
    in level order. n_features is the width of the x the trees were fit on.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray
    roots: np.ndarray
    n_features: int


#: Sample rows times (features + 1) that the index arrays of one batch of
#: forest trees may hold; a forest on a larger table is grown in batches.
_BATCH_CELLS = 1 << 19


def _tree_inputs(x: np.ndarray, y: np.ndarray, impurity: str) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0] or x.shape[0] == 0:
        raise ValueError("x must be (n, p) with matching nonempty y")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("x and y must be finite: a NaN or inf value cannot be split on")
    if impurity not in ("gini", "entropy", "mse"):
        raise ValueError(f"unknown impurity {impurity!r}")
    if impurity != "mse" and not np.isin(y, (0.0, 1.0)).all():
        raise ValueError(f"{impurity} impurity needs 0/1 labels")
    return x, y


def _node_stats(
    yrow: np.ndarray, starts: np.ndarray, sizes: np.ndarray, binary: bool, check: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Value (target mean) of each node and whether it is impure.

    yrow holds each node's targets in ascending row order. For 0/1 labels the
    sums are exact counts, so ones / n is the mean and 0 < ones < n the purity
    test. For mse the mean and variance come from np.mean / np.var over the
    node's rows; the variance is taken only where check is set.
    """
    if binary:
        csum = np.concatenate(([0.0], np.cumsum(yrow)))
        ones = csum[starts + sizes] - csum[starts]
        return ones / sizes, (ones > 0.0) & (ones < sizes)
    values = np.empty(starts.shape[0])
    impure = np.zeros(starts.shape[0], dtype=bool)
    for i, (s, n, c) in enumerate(zip(starts.tolist(), sizes.tolist(), check.tolist())):
        node_y = yrow[s : s + n]
        values[i] = np.mean(node_y)
        impure[i] = c and np.var(node_y) != 0.0
    return values, impure


class _Level(NamedTuple):
    """The layout of one level: segment bounds and, per position (int32, like
    the layout), its segment, its segment's size, and the rows up to and
    including it in its segment."""

    starts: np.ndarray
    ends: np.ndarray
    seg_of: np.ndarray
    size_of: np.ndarray
    left_n: np.ndarray


def _level(starts: np.ndarray, sizes: np.ndarray) -> _Level:
    seg_of = np.repeat(np.arange(sizes.shape[0], dtype=np.int32), sizes)
    left_n = np.arange(1, seg_of.shape[0] + 1, dtype=np.int32)
    left_n -= starts.astype(np.int32)[seg_of]
    return _Level(starts, starts + sizes, seg_of, sizes.astype(np.int32)[seg_of], left_n)


def _entropy(p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p)
    inner = (p > 0.0) & (p < 1.0)
    q = p[inner]
    out[inner] = -(q * np.log(q) + (1 - q) * np.log(1 - q))
    return out


def _split_scores(
    ys: np.ndarray, order: np.ndarray, lev: _Level, right_n: np.ndarray, impurity: str
) -> np.ndarray:
    """Weighted child impurity of a split after each position of every segment
    of order, with lev.left_n and right_n rows on its sides.

    Prefix sums run sequentially from each segment's first position, as
    np.cumsum does on the segment alone.
    """
    seg_of, left_n, size_of = lev.seg_of, lev.left_n, lev.size_of
    if impurity == "mse":
        # sse_left = csq - csum**2 / left_n and sse_right = (total_sq - csq)
        # - (total - csum)**2 / right_n, computed in place: the layout can be large
        sums = np.empty((2, order.shape[0]))
        csum, csq = sums
        np.take(ys, order, out=csum)
        last = lev.ends - 1
        # total_sq adds the last row's square as pow(y, 2), which can differ
        # from y * y in the last bit: enough to flip a near tie, so it is part
        # of the tree definition that the golden tests pin
        last_sq = np.float_power(csum[last], 2.0)
        np.multiply(csum, csum, out=csq)
        for s, e in zip(lev.starts.tolist(), lev.ends.tolist()):
            np.cumsum(sums[:, s:e], axis=1, out=sums[:, s:e])
        total_sq = csq[last - 1] + last_sq
        out = np.square(csum)
        out /= left_n
        np.subtract(csq, out, out=out)
        rest = csum[last][seg_of]
        rest -= csum
        np.square(rest, out=rest)
        rest /= right_n
        sse_right = np.take(total_sq, seg_of, out=csum, mode="clip")  # csum is spent
        sse_right -= csq
        sse_right -= rest
        out += sse_right
        out /= size_of
        return out
    # 0/1 labels: a running count minus the count before the segment is exact
    ys = ys[order]
    csum = np.cumsum(ys)
    before = csum[lev.starts] - ys[lev.starts]
    ones_left = csum - before[seg_of]
    ones_right = (csum[lev.ends - 1] - before)[seg_of] - ones_left
    p_left = ones_left / left_n
    p_right = ones_right / right_n
    if impurity == "gini":
        return (
            left_n * 2.0 * p_left * (1.0 - p_left)
            + right_n * 2.0 * p_right * (1.0 - p_right)
        ) / size_of
    return (left_n * _entropy(p_left) + right_n * _entropy(p_right)) / size_of


def _partition(
    order: np.ndarray,
    goes_left: np.ndarray,
    lev: _Level,
    child_of: np.ndarray,
    child_start: np.ndarray,
    size: int,
) -> np.ndarray:
    """Stable partition of each segment of order into its left child, then its
    right child, each placed at its child_start; a child at -1 is dropped.

    Per position, child_of indexes child_start at its segment's left child (the
    right child follows it).
    """
    left = goes_left[order]
    before = np.cumsum(left, dtype=np.int32)
    before -= left
    before -= before[lev.starts][lev.seg_of]  # rows before each position in its segment that go left
    rank = np.where(left, before, lev.left_n - 1 - before)
    dest = child_start[child_of + ~left]
    keep = dest >= 0
    dest += rank
    out = np.empty(size, dtype=np.int32)
    out[dest[keep]] = order[keep]
    return out


def _feature_candidates(
    rngs: Sequence[np.random.Generator], trees: np.ndarray, p: int, max_features: int
) -> np.ndarray:
    """(segments, p) mask of the features each segment may split on.

    Each tree draws from its own generator, in one call, a random ranking of
    the p features for each of its segments in level order, and keeps the
    max_features first of each.
    """
    firsts = np.flatnonzero(np.r_[True, trees[1:] != trees[:-1]])
    counts = np.diff(np.r_[firsts, trees.shape[0]])
    ranking = np.concatenate(
        [rngs[trees[a]].random((k, p)) for a, k in zip(firsts.tolist(), counts.tolist())]
    )
    candidate = np.zeros(ranking.shape, dtype=bool)
    np.put_along_axis(candidate, np.argsort(ranking, axis=1)[:, :max_features], True, axis=1)
    return candidate


def _best_splits(
    x: np.ndarray,
    rows: np.ndarray,
    ys: np.ndarray,
    orders: list[np.ndarray],
    lev: _Level,
    impurity: str,
    min_samples_leaf: int,
    candidate: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Best feature and midpoint threshold of each segment (feature -1 where no
    split is valid). Features are scanned in ascending order and a score must
    be strictly lower to win, so ties keep the lowest feature, and within a
    feature the first (lowest) threshold."""
    room = lev.left_n < lev.size_of
    right_n = np.maximum(lev.size_of - lev.left_n, 1)  # an empty right side counts 1: no 0/0
    if min_samples_leaf > 1:
        room &= (lev.left_n >= min_samples_leaf) & (right_n >= min_samples_leaf)
    best_score = np.full(lev.starts.shape[0], np.inf)
    best_feat = np.full(lev.starts.shape[0], -1)
    best_thr = np.zeros(lev.starts.shape[0])
    for f, order in enumerate(orders):
        xcol = x[:, f]
        xs = xcol[rows[order]]
        valid = room.copy()
        valid[:-1] &= xs[1:] != xs[:-1]
        del xs  # free before the scores are built
        if candidate is not None:
            valid &= candidate[lev.seg_of, f]
        scores = _split_scores(ys, order, lev, right_n, impurity)
        scores[~valid] = np.inf
        seg_min = np.minimum.reduceat(scores, lev.starts)
        better = seg_min < best_score
        if better.any():
            hits = np.flatnonzero(scores == seg_min[lev.seg_of])
            at = hits[np.searchsorted(hits, lev.starts[better])]  # first minimum of each segment
            best_score[better] = seg_min[better]
            best_feat[better] = f
            lo, hi = xcol[rows[order[at]]], xcol[rows[order[at + 1]]]
            with np.errstate(over="ignore"):
                mid = (lo + hi) / 2.0
            # a midpoint that rounds (or overflows) up to hi would send every row left
            best_thr[better] = np.where(mid < hi, mid, lo)
        del valid, scores  # free before the next feature's arrays are built
    return best_feat, best_thr


def _grow_trees(
    x: np.ndarray,
    y: np.ndarray,
    samples: np.ndarray,
    impurity: str,
    max_depth: int | None,
    min_samples_split: int,
    min_samples_leaf: int,
    rngs: Sequence[np.random.Generator | None],
    max_features: int | None,
) -> Tree:
    """Grow one CART tree per row of samples (row indices into x), level by level.

    The trees share one layout: per feature an int32 array of sample ids in
    which every node that may still split holds a contiguous segment, sorted
    by the feature's value with ties in sample order (one stable presort per
    tree), plus one such array in sample order. A level scores every split
    position of every segment in a few numpy passes per feature, then stably
    partitions each array into the children that may split in turn; leaves
    drop out. Each level appends its children's values and sizes and its
    split parents, features and thresholds to levels, so the k-th split's left
    child is node n_trees + 2k.
    """
    n_trees, n = samples.shape
    p = x.shape[1]
    binary = impurity != "mse"
    rows = samples.ravel().astype(np.int32, copy=False)
    ys = y[rows]
    base = (np.arange(n_trees, dtype=np.int32) * n)[:, None]
    orders = [
        (np.argsort(x[samples, f], axis=1, kind="stable").astype(np.int32) + base).ravel()
        for f in range(p)
    ]
    row_order = np.arange(n_trees * n, dtype=np.int32)
    goes_left = np.zeros(n_trees * n, dtype=bool)

    sizes = np.full(n_trees, n)
    check = np.full(n_trees, (max_depth is None or max_depth > 0) and n >= min_samples_split)
    values, impure = _node_stats(ys, np.arange(n_trees) * n, sizes, binary, check)
    levels = [(values, sizes, np.empty(0, dtype=int), np.empty(0, dtype=int), np.empty(0))]
    keep = impure & check
    if not keep.all():
        kept = np.repeat(keep, sizes)
        orders = [order[kept] for order in orders]
        row_order = row_order[kept]
    nodes = trees = np.flatnonzero(keep)  # a root's node id is its tree's
    sizes = sizes[keep]
    starts = np.cumsum(sizes) - sizes
    depth = 0
    while nodes.size:
        candidate = None
        if max_features is not None and max_features < p:
            candidate = _feature_candidates(rngs, trees, p, max_features)
        lev = _level(starts, sizes)
        best_feat, best_thr = _best_splits(x, rows, ys, orders, lev, impurity, min_samples_leaf, candidate)
        split = best_feat >= 0
        if not split.any():
            break
        seg_of = lev.seg_of
        for f in sorted(set(best_feat[split].tolist())):  # np.unique would import numpy.ma: 1 MiB
            mine = best_feat[seg_of] == f
            order = orders[f][mine]
            goes_left[order] = x[:, f][rows[order]] <= best_thr[seg_of[mine]]

        # children of the split segments, left then right, in level order;
        # the pair after the last one stands for the segments that did not split
        n_split = int(split.sum())
        child_of = np.where(split, 2 * (np.cumsum(split) - 1), 2 * n_split).astype(np.int32)[seg_of]
        n_left = np.bincount(seg_of[goes_left[row_order]], minlength=nodes.size)[split]
        child_sizes = np.column_stack([n_left, sizes[split] - n_left]).ravel()
        child_starts = np.cumsum(child_sizes) - child_sizes
        row_order = _partition(
            row_order, goes_left, lev, child_of,
            np.r_[child_starts, -1, -1].astype(np.int32), int(child_sizes.sum()),
        )
        check = child_sizes >= min_samples_split
        if max_depth is not None and depth + 1 >= max_depth:
            check[:] = False
        values, impure = _node_stats(ys[row_order], child_starts, child_sizes, binary, check)
        children = sum(len(level[0]) for level in levels) + np.arange(2 * n_split)  # after the nodes so far
        levels.append((values, child_sizes, nodes[split], best_feat[split], best_thr[split]))

        keep = impure & check
        sizes = child_sizes[keep]
        starts = np.cumsum(sizes) - sizes
        kept_starts = np.full(2 * n_split + 2, -1, dtype=np.int32)
        kept_starts[: 2 * n_split][keep] = starts
        m = int(sizes.sum())
        for f in range(p):  # one array at a time, so the old one is freed as the next is built
            orders[f] = _partition(orders[f], goes_left, lev, child_of, kept_starts, m)
        row_order = row_order[np.repeat(keep, child_sizes)]
        nodes = children[keep]
        trees = np.repeat(trees[split], 2)[keep]
        depth += 1
        del lev, seg_of, child_of, mine, order  # free before the next scan
    value, n_samples, parents, feats, thrs = (np.concatenate(a) for a in zip(*levels))
    feature, threshold, left = np.full(value.shape, -1), np.full(value.shape, np.nan), np.full(value.shape, -1)
    feature[parents], threshold[parents], left[parents] = feats, thrs, n_trees + 2 * np.arange(parents.shape[0])
    return Tree(feature, threshold, left, value, n_samples, np.arange(n_trees), p)


def fit_tree(
    x: np.ndarray,
    y: np.ndarray,
    impurity: str = "mse",
    max_depth: int | None = 10,
    min_samples_split: int = 10,
    min_samples_leaf: int = 1,
) -> Tree:
    """Greedy binary CART with midpoint thresholds, grown level by level.

    A node becomes a leaf when it is pure, too small to split, at max depth, or
    no feature offers a valid split. Ties across features keep the lowest feature
    index; ties within a feature keep the lowest threshold. gini and entropy
    need 0/1 labels. x and y must be finite.
    """
    x, y = _tree_inputs(x, y, impurity)
    n = x.shape[0]
    return _grow_trees(
        x, y, np.arange(n, dtype=np.int32)[None, :], impurity, max_depth, min_samples_split,
        min_samples_leaf, [None], None,
    )


def predict_tree(tree: Tree, x: np.ndarray) -> np.ndarray:
    """(trees, rows) leaf values (target mean / class-1 fraction) of x's rows.

    Rows in the same gap between the sorted thresholds of every feature take
    the same path, so one row per group walks all trees in lock step, leaving
    at its leaves, and the table is gathered back to rows. The walk compares
    real values with the thresholds, so it is exact: a NaN fails <= and goes right.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != tree.n_features:
        raise ValueError(f"model was fit on {tree.n_features} columns, got x of shape {x.shape}")
    key = np.zeros(x.shape[0], dtype=np.intp)
    for f in range(x.shape[1]):
        cuts = np.sort(tree.threshold[tree.feature == f])
        if cuts.size:  # renumbered after each column, so the key stays below the row count
            _, key = np.unique(key * (cuts.size + 1) + np.searchsorted(cuts, x[:, f]), return_inverse=True)
    _, rep, key = np.unique(key, return_index=True, return_inverse=True)  # rep: a row per group
    table = np.empty((tree.roots.shape[0], rep.shape[0]))
    at = np.arange(table.size)  # (tree, group) pairs still walking, as flat indices into table
    node = np.repeat(tree.roots, rep.shape[0])
    xg = x[rep].ravel()  # the groups' rows, flat
    start = np.tile(np.arange(rep.shape[0]) * x.shape[1], tree.roots.shape[0])  # each pair's row in xg
    while at.size:
        f = tree.feature[node]
        leaf = f < 0
        table.flat[at[leaf]] = tree.value[node[leaf]]
        walk = ~leaf
        at, node, f, start = at[walk], node[walk], f[walk], start[walk]
        node = tree.left[node] + ~(xg[start + f] <= tree.threshold[node])
    # np.take keeps the table C-ordered, so a mean over trees adds them in order
    return np.take(table, key, axis=1)


@dataclass
class ForestModel:
    trees: list[Tree]  # one per batch of trees grown together
    task: str


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
    """Bagged CART forest; each node draws ceil(sqrt(p)) candidate features.

    Tree t uses its own generator seeded from (seed, t): it draws the bootstrap
    sample, then, level by level, the candidate features of the tree's nodes
    (see _feature_candidates), so cells are reproducible regardless of
    execution order. The trees are grown together, level by level, in as few
    batches as memory allows; each batch is one flat Tree.
    """
    if task not in ("regression", "classification"):
        raise ValueError(f"unknown task {task!r}")
    if n_trees < 1:
        raise ValueError(f"n_trees must be at least 1, got {n_trees}")
    impurity = "gini" if task == "classification" else "mse"
    x, y = _tree_inputs(x, y, impurity)
    n, p = x.shape
    max_features = int(np.ceil(np.sqrt(p))) if subsample_features else None
    per_batch = max(1, _BATCH_CELLS // (n * (p + 1)))
    trees: list[Tree] = []
    for first in range(0, n_trees, per_batch):
        rngs = [np.random.default_rng([seed, t]) for t in range(first, min(first + per_batch, n_trees))]
        samples = np.array([rng.integers(0, n, size=n) if bootstrap else np.arange(n) for rng in rngs])
        trees.append(_grow_trees(x, y, samples, impurity, max_depth, min_samples_split, 1, rngs, max_features))
    return ForestModel(trees=trees, task=task)


def predict_forest_proba(model: ForestModel, x: np.ndarray) -> np.ndarray:
    """Classification: fraction of trees voting class 1. Regression: tree mean."""
    votes = np.concatenate([predict_tree(t, x) for t in model.trees])
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
        return fit_tree(x, y, **params)
    if name == "forest":
        return fit_forest(x, y, task=task, seed=seed, **params)
    raise ValueError(f"unknown model {name!r}")


def predict(model, x: np.ndarray, task: str | None = None) -> np.ndarray:
    """Point predictions: real values for regression, 0/1 labels at a 0.5 cut
    for the classifiers.

    Every model but a Tree knows its own task; a tree grown on 0/1 targets
    stores class-1 fractions in its leaves, so classification callers must say
    so to get labels back. A Tree predicts with its first tree (fit_tree grows one).
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
    if isinstance(model, Tree):
        raw = predict_tree(model, x)[0]
        return (raw >= 0.5).astype(float) if task == "classification" else raw
    if isinstance(model, ForestModel):
        vals = predict_forest_proba(model, x)
        return (vals >= 0.5).astype(float) if model.task == "classification" else vals
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
    if isinstance(model, Tree):
        return predict_tree(model, x)[0]
    if isinstance(model, ForestModel):
        if model.task != "classification":
            raise ValueError("regression forest has no probabilities")
        return predict_forest_proba(model, x)
    raise TypeError(f"no probabilities for {type(model).__name__}")
