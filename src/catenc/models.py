"""In-repo learners: ridge, logistic regression, a small MLP, CART, and a forest.

All five are deterministic functions of (data, hyperparameters, seed), and
each fitted model carries its task, one of TASKS, which is all predict needs.
Ridge leaves only its Gram matrix x'x to BLAS, so a narrow ridge fit (measured
up to 60 columns) has the same bits at any BLAS thread count; wide ridge (120
and 342 columns measured), logistic and the MLP change in the last bits with it.
fit_model fits a learner by name and fit_models one per (x, y, seed) job; both
refuse an unknown learner or task, or a task the learner is not fit for, when
called. fit_forests alone declares the forest's options: it grows the forests
of several equal-shape jobs in one batch, as one forest's trees are grown, and
cuts the batch into its forests. The gradient-based learners expose their
loss/gradient so tests can finite-difference them. The trees search exact
midpoint thresholds: one level-wise grower scores every node of a level,
across all the trees of a forest, in a few vectorized prefix scans per
presorted feature, skipping the nodes (and whole features) where a feature has
no split point; on an mse level, a feature with few split points, as an
encoded column has, is scored at those alone. It then moves each presorted
array into the level's children with one stable sort on each sample's child
rank (a radix sort on 8- or 16-bit ranks). Each feature is presorted by a
radix sort on its per-sample value ranks. The sample-id arrays are stored in
the smallest unsigned dtype that holds every id and cast to intp, one at a
time, to gather: numpy indexes about twice as fast with intp. Split positions
between equal values are found on the value ranks, so a level reads x only
where a split is chosen, and a node's rows go left up to the winning position
in the winning feature's order. A feature with at most two distinct values,
as a one-hot or base-2 column, is not presorted: each sample keeps only its
side, one byte, and a level scores the feature's one split point per node
from per-node sums in sample order (np.bincount), which are the prefix sums
its presorted order gives, bit for bit; the node's low rows go left. A node
is pure when its targets are all equal, and its value is their mean. The trees
are flat node arrays that predict_tree walks in lock step. A forest's tree t
draws from np.random.default_rng([seed, t])'s generator, built from memoized
seed words. A batch's bootstrap rows are drawn in one vectorized pass over the
trees' raw words, by numpy's own multiply-shift, so each tree's rows and later
draws are the ones that generator gives.
"""
from __future__ import annotations

import functools
import inspect
import itertools
from dataclasses import dataclass
from typing import ClassVar, Iterable, Iterator, NamedTuple, Sequence, get_type_hints

import numpy as np

RIDGE_ALPHAS = (0.1, 1.0, 10.0)
#: the tasks a learner is fit for, and a tree's split impurity on each
TASKS = ("regression", "classification")
_IMPURITY = {"regression": "mse", "classification": "gini"}


def _require(ok: bool, name: str, value, rule: str) -> None:
    """Refuse an out-of-range hyperparameter, naming it and its value."""
    if not ok:
        raise ValueError(f"{name} must be {rule}, got {value}")


def _learner_inputs(x, y, labels01: bool) -> tuple[np.ndarray, np.ndarray]:
    """Every learner's input contract: x as a finite float (n, p) matrix, n >= 1,
    and y as its n finite targets, each 0 or 1 when labels01."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.ndim != 2 or y.shape != x.shape[:1] or x.shape[0] == 0:
        raise ValueError("x must be (n, p) with matching nonempty y")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("x and y must be finite")
    if labels01 and (bad := y[(y != 0.0) & (y != 1.0)]).size:
        raise ValueError(f"labels must be 0/1, got {bad[0]}")
    return x, y


@dataclass
class RidgeModel:
    weights: np.ndarray
    intercept: float
    alpha: float
    task: ClassVar[str] = "regression"

    def _output(self, x: np.ndarray) -> np.ndarray:
        return np.einsum("ij,j->i", x, self.weights) + self.intercept


def _ridge_moments(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Column means, target mean, and the centered x'x and x'y of a ridge fit.

    x is centered in place, so the caller passes a copy.
    """
    x_mean, y_mean = x.mean(axis=0), y.mean()
    x -= x_mean
    yc = y - y_mean
    return x_mean, y_mean, x.T @ x, np.einsum("ij,i->j", x, yc)


def _ridge_solve(x_mean, y_mean, xtx, xty, alpha: float) -> tuple[np.ndarray, float]:
    try:
        w = np.linalg.solve(xtx + alpha * np.eye(xtx.shape[0]), xty)
    except np.linalg.LinAlgError:
        raise ValueError(f"alpha {alpha} leaves a singular system: give a positive alpha") from None
    return w, float(y_mean - np.einsum("j,j->", x_mean, w))


def fit_ridge(x: np.ndarray, y: np.ndarray, alphas: Sequence[float] = RIDGE_ALPHAS) -> RidgeModel:
    """L2-penalized least squares with an unpenalized intercept, on x and y as
    _learner_inputs takes them, with at least 2 rows.

    alpha is picked from the candidates, each finite and >= 0, by
    deterministic k-fold CV (round-robin fold assignment, k = min(5, n)): the
    smallest finite error wins and ties keep the earliest candidate; a singular
    solve on any fold makes a candidate's error infinite. A lone candidate is
    used without CV, and refused, naming it, when its system is singular. Each
    fold's centered moments and held-out rows are taken once and shared by the
    candidates, and each candidate's fold errors are added in fold order.

    Every matrix-vector and dot product, here and in predict, is an np.einsum
    without optimize: numpy's own single-threaded loops, never BLAS, whose
    threaded gemv and ddot stall a call and sum in an order set by the thread
    count. Only x'x goes to BLAS, which computes it unsplit up to 60 columns
    (measured): there the fit and its predictions have the same bits at any
    BLAS thread count; at 120 and 342 columns x'x, and so the fit, differs.
    """
    x, y = _learner_inputs(x, y, labels01=False)
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least 2 rows")
    if not alphas:
        raise ValueError("no alpha candidates")
    alphas = tuple(float(a) for a in alphas)
    _require(all(np.isfinite(a) and a >= 0.0 for a in alphas), "alphas", alphas, "finite and >= 0")
    if len(alphas) == 1:
        best = alphas[0]
    else:
        k = min(5, n)
        folds = np.arange(n) % k
        errs = [0.0] * len(alphas)
        for f in range(k):
            moments = _ridge_moments(x[folds != f], y[folds != f])  # frees its (n, p) copy
            x_out, y_out = x[f::k], y[f::k]  # the rows of folds == f, as views
            for i, alpha in enumerate(alphas):
                try:
                    w, b = _ridge_solve(*moments, alpha)
                except ValueError:  # singular on this fold
                    errs[i] = np.inf
                    continue
                resid = y_out - (np.einsum("ij,j->i", x_out, w) + b)
                errs[i] += float(np.einsum("i,i->", resid, resid))
        finite = [(err, i) for i, err in enumerate(errs) if err < np.inf]  # drops inf and NaN
        if not finite:
            raise ValueError("no alpha candidate has a finite cross-validation error")
        best = alphas[min(finite)[1]]  # the smallest error, then the earliest alpha
    w, b = _ridge_solve(*_ridge_moments(np.copy(x), y), best)  # np.copy keeps x's memory order
    return RidgeModel(weights=w, intercept=b, alpha=best)


@dataclass
class LogisticModel:
    weights: np.ndarray
    intercept: float
    c: float
    n_iter: int
    converged: bool
    task: ClassVar[str] = "classification"

    def _output(self, x: np.ndarray) -> np.ndarray:
        return _sigmoid(x @ self.weights + self.intercept)


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

    Refuses what _learner_inputs refuses (0/1 labels) and single-class targets;
    c must be finite and > 0, max_iter >= 1, and tol finite and >= 0.
    Newton steps run while fewer than max_iter were taken and max|grad| >= tol.
    Step halving keeps the objective monotone, so the L2-regularized problem
    converges to its unique optimum. When 30 halvings find no step that does
    not raise the loss, the fit stops at the current parameters. n_iter counts
    the accepted steps, and converged is max|grad| < tol at the end.
    """
    _require(np.isfinite(c) and c > 0.0, "c", c, "finite and > 0")
    _require(max_iter >= 1, "max_iter", max_iter, ">= 1")
    _require(np.isfinite(tol) and tol >= 0.0, "tol", tol, "finite and >= 0")
    x, y = _learner_inputs(x, y, labels01=True)
    if y.min() == y.max():
        raise ValueError("single-class targets: nothing to separate")
    n, p = x.shape
    params = np.zeros(p + 1)
    penalty = np.concatenate([np.full(p, 1.0 / c), [0.0]])
    xa = np.hstack([x, np.ones((n, 1))])
    loss, grad = logistic_loss_and_grad(params, x, y, c)
    n_iter = 0
    while n_iter < max_iter and float(np.max(np.abs(grad))) >= tol:
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
            break  # no step lowers the loss: stop at the current parameters
        params, loss, grad = trial, trial_loss, trial_grad
        n_iter += 1
    converged = float(np.max(np.abs(grad))) < tol
    return LogisticModel(params[:-1], float(params[-1]), c, n_iter, converged)


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

    def _output(self, x: np.ndarray) -> np.ndarray:
        out = (np.maximum(x @ self.w1 + self.b1, 0.0) @ self.w2 + self.b2).ravel()
        return _sigmoid(out) if self.task == "classification" else out


def init_mlp(n_features: int, task: str, seed: int, hidden: int) -> MLPModel:
    """Uniform +-sqrt(6 / (fan_in + fan_out)) weights, zero biases."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    _require(hidden >= 1, "hidden", hidden, ">= 1")
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
    model: MLPModel, x: np.ndarray, y: np.ndarray, l2: float
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
    epochs: int = 200,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    l2: float = 1e-4,
    batch_size: int | None = None,
) -> MLPModel:
    """Adam with seeded epoch shuffling, fixed epoch count, no early stopping.

    Refuses what _learner_inputs refuses (0/1 labels for a classifier); epochs
    and batch_size must be >= 1, lr and eps finite and > 0, beta1 and beta2 in
    [0, 1), and l2 finite and >= 0.
    """
    _require(epochs >= 1, "epochs", epochs, ">= 1")
    _require(np.isfinite(lr) and lr > 0.0, "lr", lr, "finite and > 0")
    _require(np.isfinite(eps) and eps > 0.0, "eps", eps, "finite and > 0")
    for name, beta in (("beta1", beta1), ("beta2", beta2)):
        _require(0.0 <= beta < 1.0, name, beta, "in [0, 1)")
    _require(np.isfinite(l2) and l2 >= 0.0, "l2", l2, "finite and >= 0")
    _require(batch_size is None or batch_size >= 1, "batch_size", batch_size, ">= 1 or None")
    x, y = _learner_inputs(x, y, model.task == "classification")
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
    hidden: int = 100,
    **train_kwargs,
) -> MLPModel:
    x, y = _learner_inputs(x, y, task == "classification")
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
#: forest trees may hold (per presorted feature its sample ids and value
#: ranks, per two-valued feature one side flag a sample, and one array in
#: sample order; each level adds a few float64 arrays over its positions); a
#: forest on a larger table is grown in batches, and the forests of several
#: small equal-shape fits share one (fit_forests).
_BATCH_CELLS = 1 << 19

#: An mse level scores a feature only at its split points when they are fewer
#: than this share of the level's positions, as on a target-encoded or base-n
#: column; a numeric column, split almost everywhere, is scored everywhere.
_SPLIT_POINT_SHARE = 0.25


def _tree_inputs(
    x: np.ndarray, y: np.ndarray, impurity: str, max_depth: int | None, min_samples_split: int, min_samples_leaf: int
) -> tuple[np.ndarray, np.ndarray]:
    _require(max_depth is None or max_depth >= 0, "max_depth", max_depth, ">= 0 or None")
    _require(min_samples_split >= 1, "min_samples_split", min_samples_split, ">= 1")
    _require(min_samples_leaf >= 1, "min_samples_leaf", min_samples_leaf, ">= 1")
    if impurity not in ("gini", "entropy", "mse"):
        raise ValueError(f"unknown impurity {impurity!r}")
    x, y = _learner_inputs(x, y, labels01=impurity != "mse")
    # below the bound, every prefix sum over a tree's n samples, drawn with
    # replacement or not, and its square stay below 2**1020: no score overflows
    # (max|y| is compared with the bound / n, as their product could overflow)
    if impurity == "mse" and (top := float(np.abs(y).max())) >= 2.0**510 / y.shape[0]:
        raise ValueError(f"mse targets need n * max|y| < 2**510, got n = {y.shape[0]}, max|y| = {top:.3g}: rescale y")
    return x, y


def _node_stats(
    yrow: np.ndarray, starts: np.ndarray, sizes: np.ndarray, binary: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Value (target mean) of each node and whether it is impure: whether its
    targets are not all equal.

    yrow holds each node's targets in ascending row order. For 0/1 labels the
    sums are exact counts, so ones / n is the mean and 0 < ones < n the purity
    test. For mse the mean is np.add.reduce over the node's rows divided by
    their count, which is the sum and division np.mean runs, without its
    wrapper, so the value is np.mean's bit for bit; the purity test compares
    each node's largest and smallest target (np.var of equal targets can round
    to nonzero, and of unequal tiny ones to zero).
    """
    if binary:
        csum = np.concatenate(([0.0], np.add.accumulate(yrow)))
        ones = csum[starts + sizes] - csum[starts]
        return ones / sizes, (ones > 0.0) & (ones < sizes)
    values = np.array([np.add.reduce(yrow[s : s + n]) / n for s, n in zip(starts.tolist(), sizes.tolist())])
    return values, np.maximum.reduceat(yrow, starts) != np.minimum.reduceat(yrow, starts)


class _Level(NamedTuple):
    """The layout of one level: segment bounds and sizes and, per position, its
    segment's size and the rows up to and including it in its segment (float64,
    exact, so that the scores divide by them without a conversion). A
    per-segment array v is spread over the positions with np.repeat(v, sizes)."""

    starts: np.ndarray
    ends: np.ndarray
    sizes: np.ndarray
    size_of: np.ndarray
    left_n: np.ndarray


def _level(starts: np.ndarray, sizes: np.ndarray) -> _Level:
    left_n = np.arange(1.0, sizes.sum() + 1.0)
    left_n -= np.repeat(starts.astype(float), sizes)
    return _Level(starts, starts + sizes, sizes, np.repeat(sizes.astype(float), sizes), left_n)


def _entropy(p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p)
    inner = (p > 0.0) & (p < 1.0)
    q = p[inner]
    out[inner] = -(q * np.log(q) + (1 - q) * np.log(1 - q))
    return out


def _impurity_scores(
    impurity: str,
    left: np.ndarray,
    left_sq: np.ndarray | None,
    total: np.ndarray,
    total_sq: np.ndarray | None,
    sizes: np.ndarray | int,
    left_n: np.ndarray,
    right_n: np.ndarray,
    size_of: np.ndarray,
) -> np.ndarray:
    """Weighted child impurity of splits with left_n and right_n rows on their
    sides in nodes of size_of rows, from the target sums of their left sides
    (left; for mse also the sums of squares, left_sq) and their nodes' totals
    (total and total_sq), one per run of sizes consecutive splits. This is the
    one impurity formula; left and left_sq are overwritten.

    For mse, sse_left = left_sq - left**2 / left_n and sse_right = (total_sq -
    left_sq) - (total - left)**2 / right_n, computed in place, the right
    side's terms in the spent rows of left and left_sq: the splits can be
    many, and a fresh array of their size can cost more in page faults than
    the pass filling it. For 0/1 labels the sums are exact counts, and the
    shares and gini or entropy terms take three buffers, filled in place in
    the order of the plain formula, so the scores are its bits.
    """
    if impurity == "mse":
        out = np.square(left)
        out /= left_n
        np.subtract(left_sq, out, out=out)
        rest = np.subtract(np.repeat(total, sizes), left, out=left)  # left is spent
        np.square(rest, out=rest)
        rest /= right_n
        sse_right = np.subtract(np.repeat(total_sq, sizes), left_sq, out=left_sq)  # left_sq is spent
        sse_right -= rest
        out += sse_right
    else:
        p_left = left  # ones on the left
        p_right = np.repeat(total, sizes)
        p_right -= p_left  # ones on the right
        p_left /= left_n
        p_right /= right_n
        if impurity == "gini":
            out = np.multiply(left_n, 2.0)
            out *= p_left
            out *= np.subtract(1.0, p_left, out=p_left)
            right = np.multiply(right_n, 2.0, out=p_left)
            right *= p_right
            right *= np.subtract(1.0, p_right, out=p_right)
        else:
            out = np.multiply(left_n, _entropy(p_left), out=p_left)
            right = np.multiply(right_n, _entropy(p_right), out=p_right)
        out += right
    out /= size_of
    return out


def _split_scores(
    ys: np.ndarray,
    order: np.ndarray,
    lev: _Level,
    right_n: np.ndarray,
    impurity: str,
    scored: np.ndarray,
    at: np.ndarray | None = None,
    counts: np.ndarray | None = None,
) -> np.ndarray:
    """Weighted child impurity of a split after each position of every segment
    of order, with lev.left_n and right_n rows on its sides; for mse, given
    at, the ascending positions to score, and counts, how many of them each
    segment holds, the scores at those positions only.

    For mse, prefix sums run sequentially from each segment's first position,
    as np.cumsum does on the segment alone: np.add.accumulate is the loop
    np.cumsum runs, without its wrapper, which costs more than the sum on a
    small segment. They run only over the segments that scored marks; the
    scores of the other segments are meaningless. Scoring at a subset of
    positions gathers the sums, sizes and segment totals there and applies
    the same formula, so each of its scores is the full one's bit for bit.
    For 0/1 labels a running count minus the count before the segment is
    exact.
    """
    sizes, left_n, size_of = lev.sizes, lev.left_n, lev.size_of
    order = order.astype(np.intp)  # numpy gathers fastest with intp indices
    if impurity == "mse":
        sums = np.empty((2, order.shape[0]))
        csum, csq = sums
        np.take(ys, order, out=csum, mode="clip")  # ids are in range; "raise" would buffer out
        del order
        last = lev.ends - 1
        # total_sq adds the last row's square as pow(y, 2), which can differ
        # from y * y in the last bit: enough to flip a near tie, so it is part
        # of the tree definition that the golden tests pin
        last_sq = np.float_power(csum[last], 2.0)
        np.multiply(csum, csum, out=csq)
        for s, e in zip(lev.starts[scored].tolist(), lev.ends[scored].tolist()):
            np.add.accumulate(sums[:, s:e], axis=1, out=sums[:, s:e])
        total, total_sq = csum[last], csq[last - 1] + last_sq
        if at is not None:
            csum, csq = sums[:, at]
            left_n, right_n, size_of, sizes = left_n[at], right_n[at], size_of[at], counts
        del sums  # the full sums are spent once gathered at the positions
        return _impurity_scores(impurity, csum, csq, total, total_sq, sizes, left_n, right_n, size_of)
    csum = np.take(ys, order, mode="clip")
    del order
    before = csum[lev.starts]
    np.add.accumulate(csum, out=csum)
    before = csum[lev.starts] - before
    ones = csum[lev.ends - 1] - before
    csum -= np.repeat(before, sizes)  # ones on the left
    return _impurity_scores(impurity, csum, None, ones, None, sizes, left_n, right_n, size_of)


def _two_valued_scores(
    high: np.ndarray,
    yrow: np.ndarray,
    sqrow: np.ndarray | None,
    lev: _Level,
    impurity: str,
    low_n: np.ndarray,
    valid: np.ndarray,
) -> np.ndarray:
    """Scores of a two-valued column's one split point in each valid segment,
    with its low_n low rows on the left, from the level's positions in sample
    order: high flags each position's side, yrow holds its target (sqrow its
    square, for mse).

    The sums go to the bins 2 * segment + high. For 0/1 labels they are exact
    counts of ones. For mse, the feature's order would hold each segment's
    low rows and then its high rows, each in sample order, and np.bincount
    adds its weights in input order, so a low bin holds the prefix sums that
    _split_scores builds at the split point, bit for bit (up to the sign of a
    zero sum, which only ever is squared). The node totals continue that
    chain over the high rows: each segment's low sum is fed into its bin
    ahead of them, and total_sq is the chain of squares up to the last high
    row plus pow(y_last, 2), as _split_scores takes it.
    """
    n_seg = lev.starts.shape[0]
    bins = np.repeat(np.arange(0, 2 * n_seg, 2), lev.sizes)
    bins += high
    sums = np.bincount(bins, yrow, 2 * n_seg)
    left = sums[0::2]
    left_n = low_n[valid].astype(float)
    size_of = lev.sizes[valid].astype(float)
    if impurity != "mse":
        ones = left + sums[1::2]
        return _impurity_scores(impurity, left[valid], None, ones[valid], None, 1, left_n, size_of - left_n, size_of)
    left_sq = np.bincount(bins, sqrow, 2 * n_seg)[0::2]
    up = np.flatnonzero(high)
    seg = np.concatenate((np.arange(n_seg), bins[up] >> 1))
    del bins
    last = np.searchsorted(up, lev.ends[valid]) - 1  # each valid segment's last high row, in up
    y_last = yrow[up[last]]
    sq_up = sqrow[up]
    sq_up[last] = 0.0  # adds nothing to a chain of squares, which is never -0.0
    total = np.bincount(seg, np.concatenate((left, yrow[up])), n_seg)[valid]
    total_sq = np.bincount(seg, np.concatenate((left_sq, sq_up)), n_seg)[valid]
    total_sq += np.float_power(y_last, 2.0)
    return _impurity_scores(
        impurity, left[valid], left_sq[valid], total, total_sq, 1, left_n, size_of - left_n, size_of
    )


def _partition(order: np.ndarray, key: np.ndarray, size: int) -> np.ndarray:
    """The first size sample ids of order, stably sorted by key (indexed by
    sample id): each segment's ids go to their child's place, in their order,
    and the ids whose key sorts last drop out. numpy sorts 8- and 16-bit keys
    stably with an O(n) radix sort."""
    return order[np.argsort(key[order.astype(np.intp)], kind="stable")[:size]]


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


def _presort(values: np.ndarray, base: np.ndarray, id_type: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """One feature's presort: each tree's stable argsort of its row of the
    (trees, n) values, offset by base to sample ids, flattened and cast to
    id_type, and each sample's value rank, indexed by sample id: the count of
    value changes before it along the trees' presorts laid end to end, so
    equal values in a tree (-0.0 and 0.0 too) share a rank. The ranks take the
    smallest dtype that holds them.

    The ranks come from each row's unstable argsort, in which only the order
    of equal values differs. Ranks never decrease along the trees laid end to
    end, and a tree's sample ids are below the next tree's, so sorting the
    ids by (rank, id) is the stable presort: one stable argsort of the ranks,
    which numpy runs as a radix sort on 8- and 16-bit ranks."""
    order = (np.argsort(values, axis=1) + base).ravel()
    values = values.ravel()[order]
    rank = np.empty(order.shape[0], dtype=id_type)  # fewer changes than samples
    rank[0] = 0
    np.cumsum(values[1:] != values[:-1], dtype=id_type, out=rank[1:])
    ranks = np.empty(order.shape[0], dtype=np.min_scalar_type(rank[-1]))
    ranks[order] = rank
    return np.argsort(ranks, kind="stable").astype(id_type), ranks


def _two_valued_sides(values: np.ndarray) -> np.ndarray | None:
    """Each sample's side of a feature whose (trees, n) values hold at most
    two distinct values, compared numerically (-0.0 == 0.0), flattened so
    that sample ids index it: True where the sample holds the higher value.
    None for a feature with more values."""
    lo, hi = values.min(), values.max()
    if ((values != lo) & (values != hi)).any():
        return None
    return (values > lo).ravel()


def _best_splits(
    ys: np.ndarray,
    orders: dict[int, np.ndarray],
    ranks: dict[int, np.ndarray],
    sides: dict[int, np.ndarray],
    at: np.ndarray,
    lev: _Level,
    impurity: str,
    min_samples_leaf: int,
    candidate: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Best feature and split position (the last position that goes left, in
    the feature's order) of each segment; feature -1 where no split is valid.
    Features are scanned in ascending order and a score must be strictly
    lower to win, so ties keep the lowest feature, and within a feature the
    first (lowest) threshold.

    A presorted feature (in orders) has no split point at a position whose
    next one holds an equal value, which ranks[f] (indexed by sample id, see
    _presort) tells from a small contiguous array. It is scored only on the
    segments where it has a split point, and not at all where it has none.
    On an mse level a feature whose split points are fewer than
    _SPLIT_POINT_SHARE of the positions is scored at its split points alone,
    and each segment's first minimum is found among them; the full scores
    there are the same, bit for bit. Gathering them costs more than it saves
    where most positions are split points, as on a numeric column.

    A two-valued feature (in sides) has one split point per segment, after
    its low rows, and is scored there by _two_valued_scores from the level's
    sample ids in sample order, at (intp)."""
    room = lev.left_n < lev.size_of
    right_n = np.maximum(lev.size_of - lev.left_n, 1.0)  # an empty right side counts 1: no 0/0
    if min_samples_leaf > 1:
        room &= (lev.left_n >= min_samples_leaf) & (right_n >= min_samples_leaf)
    n_seg = lev.starts.shape[0]
    best_score = np.full(n_seg, np.inf)
    best_feat = np.full(n_seg, -1)
    best_at = np.zeros(n_seg, dtype=np.intp)
    if sides:  # the level's targets in sample order, shared by the two-valued features
        yrow = ys[at]
        sqrow = yrow * yrow if impurity == "mse" else None
    for f in range(len(orders) + len(sides)):  # each feature is in one of them
        if candidate is not None and not candidate[:, f].any():
            continue
        if f in sides:
            high = sides[f][at]
            low_n = lev.sizes - np.add.reduceat(high, lev.starts, dtype=np.intp)
            valid = (low_n >= min_samples_leaf) & (lev.sizes - low_n >= min_samples_leaf)  # both sides nonempty
            if candidate is not None:
                valid &= candidate[:, f]
            if not valid.any():
                continue
            seg_min = np.full(n_seg, np.inf)
            seg_min[valid] = _two_valued_scores(high, yrow, sqrow, lev, impurity, low_n, valid)
            del high
            better = seg_min < best_score
            best_at[better] = (lev.starts + low_n - 1)[better]  # its order's last low position
        else:
            order = orders[f]
            rs = np.take(ranks[f], order, mode="clip")  # ids are in range; "clip" gathers faster than "raise"
            valid = room.copy()
            valid[:-1] &= rs[1:] != rs[:-1]
            del rs
            if candidate is not None:
                valid &= np.repeat(candidate[:, f], lev.sizes)
            scored = np.logical_or.reduceat(valid, lev.starts)
            if not scored.any():
                continue
            if impurity == "mse" and np.count_nonzero(valid) < _SPLIT_POINT_SHARE * valid.shape[0]:
                # few split points (an encoded column): scores at those alone, in
                # one group per segment that has any
                points = np.flatnonzero(valid)
                counts = np.add.reduceat(valid, lev.starts, dtype=np.intp)
                scores = _split_scores(ys, order, lev, right_n, impurity, scored, points, counts)
                groups, group_sizes = scored, counts[scored]
                group_starts = np.cumsum(group_sizes) - group_sizes
                seg_min = np.full(n_seg, np.inf)
                seg_min[scored] = np.minimum.reduceat(scores, group_starts)
            else:
                points = None
                scores = _split_scores(ys, order, lev, right_n, impurity, scored)
                scores[~valid] = np.inf
                groups, group_sizes, group_starts = slice(None), lev.sizes, lev.starts
                seg_min = np.minimum.reduceat(scores, lev.starts)
            better = seg_min < best_score
            if better.any():
                hits = np.flatnonzero(scores == np.repeat(seg_min[groups], group_sizes))
                first = hits[np.searchsorted(hits, group_starts[better[groups]])]  # first minimum of each segment
                best_at[better] = first if points is None else points[first]
            del valid, scores  # free before the next feature's arrays are built
        best_score[better] = seg_min[better]
        best_feat[better] = f
    return best_feat, best_at


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
    forest_trees: int,
) -> list[Tree]:
    """Grow one CART tree per row of samples (row indices into x), level by
    level, and return them as one Tree per forest_trees consecutive trees.

    The trees share one layout: one array of sample ids in sample order, in
    which every node of a level holds a contiguous segment, and per feature
    with more than two distinct values (over the batch's samples) an array of
    the same ids with each segment sorted by the feature's value, ties in
    sample order (one stable presort per tree). Beside each such feature's ids
    sit its value ranks, indexed by sample id, on which a level tests for
    ties. A two-valued feature keeps only each sample's side (see
    _two_valued_sides) and is scored from the sample-order array.

    The roots are the first level: one segment per tree, its ids in sample
    order, as the presorted arrays hold them. Each level records its nodes (a
    node's id is the count of nodes recorded before its level plus its place
    in it) and keeps those that are impure (targets not all equal), have
    min_samples_split rows and are above max_depth; the rest are leaves. Each
    presorted array is compacted to the kept segments by one stable argsort
    on a key, each sample's kept segment or a rank past every kept one's (the
    roots skip this when all are kept). The level scores every split position
    of every kept segment in a few numpy passes per feature, except where the
    feature has no split point. A split segment's rows up to its winning
    position, in the winning feature's order, go to the left child (for a
    two-valued feature, its low rows), and the sample-order array is sorted
    by each sample's child rank (left, then right, in level order) into the
    next level. Keys and ranks take their smallest dtype, 8- or 16-bit up to
    32,767 splits a level, which numpy radix-sorts. The id arrays take the
    smallest dtype that holds n_trees * n - 1 (uint16 up to 65,536 samples),
    which keeps the grower's peak below that of int32 ids without ranks, and
    each is cast to intp, one at a time, where it indexes (numpy gathers and
    scatters about twice as fast with intp indices); rows, which maps sample
    ids to rows of x, is intp. The nodes are then cut into their forests by
    each node's tree.
    """
    n_trees, n = samples.shape
    p = x.shape[1]
    binary = impurity != "mse"
    rows = samples.ravel().astype(np.intp, copy=False)
    ys = y[rows]
    id_type = np.min_scalar_type(n_trees * n - 1)
    base = (np.arange(n_trees) * n)[:, None]  # intp: in id_type the product can overflow
    sides, orders, ranks = {}, {}, {}
    for f in range(p):
        values = x[samples, f]
        if (side := _two_valued_sides(values)) is not None:
            sides[f] = side
        else:
            orders[f], ranks[f] = _presort(values, base, id_type)
        del values  # one column's values at a time
    row_order = np.arange(n_trees * n, dtype=id_type)

    # the roots are the first level: one segment per tree, holding its ids in
    # sample order, as every order array already does; they have no parents
    sizes, trees = np.full(n_trees, n), np.arange(n_trees)
    parents, feats, thrs = np.empty(0, dtype=int), np.empty(0, dtype=int), np.empty(0)
    levels, n_nodes, depth = [], 0, 0
    while True:
        values, impure = _node_stats(ys[row_order.astype(np.intp)], np.cumsum(sizes) - sizes, sizes, binary)
        levels.append((values, sizes, trees, parents, feats, thrs))
        nodes = n_nodes + np.arange(sizes.shape[0])  # after the nodes of the levels before
        n_nodes += sizes.shape[0]
        keep = impure & (sizes >= min_samples_split) & (max_depth is None or depth < max_depth)
        if not keep.any():
            break
        if depth or not keep.all():  # the roots' order arrays already hold their segments
            # each sample's kept segment, or a rank past every kept one's: the
            # ids of a leaf, and of a segment that found no split, drop out
            row_order = row_order[np.repeat(keep, sizes)]
            sizes = sizes[keep]
            rank_type = np.min_scalar_type(sizes.shape[0])
            key = np.full(n_trees * n, sizes.shape[0], dtype=rank_type)
            key[row_order.astype(np.intp)] = np.repeat(np.arange(sizes.shape[0], dtype=rank_type), sizes)
            for f in orders:  # one array at a time, so the old one is freed as the next is built
                orders[f] = _partition(orders[f], key, row_order.shape[0])
            del key
        nodes, trees = nodes[keep], trees[keep]
        candidate = None
        if max_features is not None and max_features < p:
            candidate = _feature_candidates(rngs, trees, p, max_features)
        lev = _level(np.cumsum(sizes) - sizes, sizes)
        at = row_order.astype(np.intp)
        best_feat, best_at = _best_splits(ys, orders, ranks, sides, at, lev, impurity, min_samples_leaf, candidate)
        split = best_feat >= 0
        if not split.any():
            break
        # a segment's rows up to its split position in the winning feature's
        # order go left, and its threshold is the midpoint of x there and at
        # the next position; a two-valued feature's low rows go left, and x is
        # read at the segment's last low row and first high row by sample id,
        # the rows its presorted order would hold there
        goes_left = np.zeros(n_trees * n, dtype=bool)
        threshold = np.zeros(lev.starts.shape[0])
        for f in sorted(set(best_feat[split].tolist())):  # np.unique would import numpy.ma: 1 MiB
            won = best_feat == f
            if f in sides:
                high = sides[f][at]
                up, down = np.flatnonzero(high), np.flatnonzero(~high)
                lo_id = at[down[np.searchsorted(down, lev.ends[won]) - 1]]
                hi_id = at[up[np.searchsorted(up, lev.starts[won])]]
                goes_left[at[np.repeat(won, lev.sizes) & ~high]] = True
                del high, up, down
            else:
                lo_id, hi_id = orders[f][best_at[won]], orders[f][best_at[won] + 1]
                n_left = np.repeat(np.where(won, lev.left_n[best_at], 0.0), lev.sizes)
                goes_left[orders[f][lev.left_n <= n_left].astype(np.intp)] = True
                del n_left
            lo, hi = x[rows[lo_id], f], x[rows[hi_id], f]
            with np.errstate(over="ignore"):
                mid = (lo + hi) / 2.0
            # a midpoint that rounds (or overflows) up to hi would send every row
            # left, and one that overflows down to -inf every row right
            threshold[won] = np.where((lo <= mid) & (mid < hi), mid, lo)

        # each position's child rank, left then right in level order; the pair
        # after the last one stands for the segments that did not split
        n_split = int(split.sum())
        rank_type = np.min_scalar_type(2 * n_split + 1)
        child = np.repeat(np.where(split, 2 * (np.cumsum(split) - 1), 2 * n_split).astype(rank_type), lev.sizes)
        child += ~goes_left[at]
        sizes = np.bincount(child, minlength=2 * n_split + 2)[: 2 * n_split]
        row_order = row_order[np.argsort(child, kind="stable")[: sizes.sum()]]
        trees, parents, feats, thrs = np.repeat(trees[split], 2), nodes[split], best_feat[split], threshold[split]
        depth += 1
        del lev, at, child, goes_left  # free before the next level's arrays are built
    del orders, ranks, sides, row_order, rows, ys  # spent: free before the node arrays are built
    value, n_samples, tree_of, parents, feats, thrs = (np.concatenate(a) for a in zip(*levels))
    del levels
    feature, threshold = np.full(value.shape, -1), np.full(value.shape, np.nan)
    feature[parents], threshold[parents] = feats, thrs
    # one Tree per forest: its nodes in batch order, roots first and then each
    # level's children in level order, renumbered from 0 as the forest grown
    # alone numbers them, so that its k-th split's left child is node
    # forest_trees + 2k
    forest = tree_of // forest_trees
    out = []
    for ids in np.split(np.argsort(forest, kind="stable"), np.cumsum(np.bincount(forest))[:-1]):
        split = feature[ids] >= 0
        left = np.where(split, forest_trees - 2 + 2 * np.cumsum(split), -1)
        out.append(Tree(feature[ids], threshold[ids], left, value[ids], n_samples[ids], np.arange(forest_trees), p))
    return out


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
    index; ties within a feature keep the lowest threshold. x and y are as
    _learner_inputs takes them (0/1 labels for gini and entropy), max_depth None
    or >= 0, the min_samples_* >= 1. An mse target needs n * max|y| below 2**510
    (about 3.4e153), so its squared sums stay finite: rescale a larger one.
    """
    x, y = _tree_inputs(x, y, impurity, max_depth, min_samples_split, min_samples_leaf)
    n = x.shape[0]
    return _grow_trees(
        x, y, np.arange(n)[None, :], impurity, max_depth, min_samples_split,
        min_samples_leaf, [None], None, 1,
    )[0]


#: Walk steps between two compactions of the (tree, range of groups) pairs in
#: predict_tree; a pair at a leaf loops there meanwhile (2 and 3 measured best).
_COMPACT_EVERY = 2


def predict_tree(tree: Tree, x: np.ndarray) -> np.ndarray:
    """(trees, rows) leaf values (target mean / class-1 fraction) of x's rows.

    Rows in the same gap between the sorted thresholds of every feature take
    the same path, so they form one group, walked once. The groups are sorted
    by their bins of the other features, then by their bin of the inner
    feature, the one with the most cuts (the lowest index on a tie); a block
    is a run of groups whose other bins are all equal. One pair per tree and
    block walks, carrying a range of groups: a step moves the range the way
    its first group goes, node = left[node] + (x > threshold[node]), and where
    its last group goes the other way the range is cut at the first group
    right of the threshold, found by one searchsorted on the sorted group
    keys, and that part walks on from left[node] + 1. This is exact: the
    groups of a block share a gap at every split on another feature, and at
    a split on the inner feature the groups going right are a suffix of the
    range, as they are sorted by their inner bin. Each leaf loops to itself
    (feature 0, threshold +inf, left its own id), and the pairs at a leaf
    drop out every _COMPACT_EVERY steps; each finished range fills its cells
    of the (trees, groups) table, which is gathered back to rows. A NaN cell
    reads +inf, so it goes right at every split, as it fails <=. That is
    exact because every split threshold is finite: fit refuses non-finite x,
    and a midpoint that is not below the upper value falls back to the lower.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != tree.n_features:
        raise ValueError(f"model was fit on {tree.n_features} columns, got x of shape {x.shape}")
    if x.shape[1] == 0:  # no column to split on, so every root is a leaf
        x = np.zeros((x.shape[0], 1))
    cuts = [np.sort(tree.threshold[tree.feature == f]) for f in range(x.shape[1])]
    spans = [c.shape[0] + 1 for c in cuts]  # bins per column
    inner = spans.index(max(spans))
    key, bound = np.zeros(x.shape[0], dtype=np.intp), 1  # the keys lie in [0, bound)
    for f in [f for f in range(x.shape[1]) if f != inner and spans[f] > 1] + [inner]:
        if bound * spans[f] > np.iinfo(np.intp).max:  # renumbered, so the next column's keys cannot overflow
            uniq, key = np.unique(key, return_inverse=True)
            bound = uniq.shape[0]
        key = key * spans[f] + np.searchsorted(cuts[f], x[:, f])
        bound *= spans[f]
    gkey, rep, key = np.unique(key, return_index=True, return_inverse=True)  # rep: a row per group
    block = gkey - gkey % spans[inner]  # a group's key with its inner bin zeroed: equal within a block
    leaf = tree.feature < 0
    feature = np.where(leaf, 0, tree.feature)
    threshold = np.where(leaf, np.inf, tree.threshold)
    left = np.where(leaf, np.arange(leaf.shape[0]), tree.left)
    rcut = np.searchsorted(cuts[inner], threshold, side="right")  # x > threshold iff inner bin >= rcut
    xg = x[rep]  # the groups' rows, a copy
    xg[np.isnan(xg)] = np.inf
    xg = xg.ravel()
    n_trees, n_groups, p = tree.roots.shape[0], rep.shape[0], x.shape[1]
    edges = np.flatnonzero(np.diff(block, prepend=-1, append=-1)) * p  # each block's first row in xg, then the end
    first, last = edges[:-1], edges[1:] - p
    wide = first < last
    first, last = np.concatenate((first[wide], first[~wide])), last[wide]  # blocks of several groups first
    node = np.tile(tree.roots, first.shape[0])  # a pair per block and tree
    start = np.repeat(first, n_trees)  # its first row in xg
    stop = np.repeat(last, n_trees)  # the last row of the leading pairs, which may hold several groups
    base = np.tile(np.arange(n_trees) * xg.shape[0], first.shape[0])  # its tree, in rows of xg
    pos, final = [], []  # each finished range's first cell in the (trees, groups) table, times p, and its leaf
    while True:
        done = leaf[node]
        pos.append(base[done] + start[done])
        final.append(node[done])
        walk = ~done
        if not walk.any():
            break
        node, start, stop, base = node[walk], start[walk], stop[walk[: stop.shape[0]]], base[walk]
        for _ in range(_COMPACT_EVERY):
            at, thr = feature[node], threshold[node]
            right = xg[start + at] > thr
            n = stop.shape[0]  # the ranges whose last group goes the other way than their first are cut
            w = np.flatnonzero((xg[stop + at[:n]] > thr[:n]) != right[:n])
            child = left[node] + right
            if w.shape[0]:  # the right parts join the leading pairs, from left[node] + 1
                s = np.searchsorted(gkey, block[start[w] // p] + rcut[node[w]]) * p
                cut_off = (child[w] + 1, s, stop[w], base[w])
                stop[w] = s - p
                child, start, stop, base = (np.concatenate(a) for a in zip(cut_off, (child, start, stop, base)))
            node = child
    del xg  # free before the table is built
    pos, final = np.concatenate(pos) // p, np.concatenate(final)
    order = np.argsort(pos)  # the finished ranges tile each tree's row of the table
    table = np.repeat(tree.value[final[order]], np.diff(pos[order], append=n_trees * n_groups))
    # np.take keeps the table C-ordered, so a mean over trees adds them in order
    return np.take(table.reshape(n_trees, n_groups), key, axis=1)


@dataclass
class ForestModel:
    """Trees that vote (classification) or average (regression); fit_model's
    "tree" is a forest of one."""

    trees: list[Tree]  # one per batch its trees were grown in, cut from batches shared with other forests
    task: str

    def _output(self, x: np.ndarray) -> np.ndarray:
        votes = np.concatenate([predict_tree(t, x) for t in self.trees])
        if self.task == "classification":
            votes = (votes >= 0.5).astype(float)
        return votes.mean(axis=0)


@functools.lru_cache(maxsize=4096, typed=True)  # 40 seeds of 100 trees
def _tree_seed_words(seed: int, t: int, n_words: int, dtype) -> np.ndarray:
    """SeedSequence([seed, t]).generate_state(n_words, dtype), read-only. A
    seed SeedSequence refuses (negative, or a float, which typed keeps from
    sharing an equal int's entry) raises on every call, as it is not cached."""
    words = np.random.SeedSequence([seed, t]).generate_state(n_words, dtype)
    words.flags.writeable = False
    return words


class _TreeSeed(np.random.bit_generator.ISeedSequence):
    """SeedSequence([seed, t]) as a bit generator reads it: the same state words
    for each (n_words, dtype) it asks for, from the _tree_seed_words memo, so a
    tree's generator is the one np.random.default_rng([seed, t]) builds."""

    def __init__(self, seed: int, t: int):
        self.seed, self.t = seed, t

    def generate_state(self, n_words, dtype=np.uint32):
        return _tree_seed_words(self.seed, self.t, n_words, dtype)


def _bootstrap_rows(seeds: Sequence[tuple[int, int]], n: int) -> tuple[list[np.random.PCG64], np.ndarray]:
    """Each tree's bit generator, PCG64(_TreeSeed(seed, t)) for its (seed, t),
    and the (trees, n) int64 rows np.random.default_rng([seed, t]).integers(0,
    n, size=n) draws, byte for byte, drawn in one pass over the batch.

    numpy draws each row by Lemire's multiply-shift on the next 32-bit word u
    (Lemire 2019, "Fast Random Integer Generation in an Interval"): the row is
    (u * n) >> 32, unless the product's low 32 bits fall below (2**32 - n) %
    n, where it draws another u. PCG64 cuts each raw 64-bit word into two such
    words, low half first. So each tree's first (n + 1) // 2 raw words are cut
    into halves by an explicit little-endian view (any byte order) and written
    into the tree's row of one (trees, n) array, which is multiplied at once;
    that array is the only batch-sized one the draw allocates. A tree with a
    rejected word, or any tree when n >= 2**32 (drawn by other methods), is
    drawn again by Generator.integers on a fresh generator, which takes
    numpy's own path. n == 1 draws no word, as numpy's does. Each generator is
    left where numpy's is for every 64-bit draw (the trees draw only doubles
    later); after an odd n numpy also keeps the last word's high half for a
    32-bit draw, which nothing here reads.
    """
    bits = [np.random.PCG64(_TreeSeed(*seed)) for seed in seeds]
    if n == 1:
        return bits, np.zeros((len(bits), 1), dtype=np.int64)
    product = np.empty((len(bits), n), dtype=np.uint64)
    for row, bit in zip(product, bits):
        row[:] = bit.random_raw((n + 1) // 2).astype("<u8", copy=False).view("<u4")[:n]
    product *= n
    low = product.astype("<u8", copy=False).view("<u4")[:, ::2]  # each product's low 32 bits
    redraw = (low < (2**32 - n) % n).any(axis=1) | (n >= 2**32)
    rows = np.right_shift(product, 32, out=product).view(np.int64)
    for k in np.flatnonzero(redraw).tolist():
        bits[k] = np.random.PCG64(_TreeSeed(*seeds[k]))
        rows[k] = np.random.Generator(bits[k]).integers(0, n, size=n)
    return bits, rows


def fit_forest(x: np.ndarray, y: np.ndarray, task: str, *, seed: int = 0, **params) -> ForestModel:
    """The forest fit_forests grows on the one job (x, y, seed), with its options."""
    return next(fit_forests([(x, y, seed)], task, **params))


def fit_forests(
    jobs: Iterable[tuple[np.ndarray, np.ndarray, int]],
    task: str,
    n_trees: int = 100,
    max_depth: int | None = None,
    min_samples_split: int = 2,
    bootstrap: bool = True,
    subsample_features: bool = True,
) -> Iterator[ForestModel]:
    """A bagged CART forest for each (x, y, seed) job, yielded in job order;
    each node draws ceil(sqrt(p)) candidate features.

    Tree t of a job uses its own generator seeded from (seed, t): it draws the
    bootstrap sample, then, level by level, the candidate features of the
    tree's nodes (see _feature_candidates), so cells are reproducible
    regardless of execution order. The generator is
    np.random.default_rng([seed, t])'s, built from _tree_seed_words, a bounded
    memo of the seed words: a sweep or grid refits the same few seeds, and a
    sweep-forest repetition (4,400 of its 4,800 trees hit the memo) would spend
    about 40-50 ms of its 0.30 s hashing them anew. The bootstrap rows are
    exactly what the generator's integers(0, n, size=n) gives, so the pinned
    sweep values hold, but _bootstrap_rows draws a batch's rows in one pass:
    about 2.3 us a tree on 20-80 rows, against 6.5 us for a Generator and its
    integers call per tree (2-vCPU Xeon VM). Without bootstrap no word is
    drawn, and a tree's generator is wrapped in a Generator only where it draws
    candidate features. n_trees must be >= 1, max_depth None or >= 0 and
    min_samples_split >= 1. A regression target needs n * max|y| below 2**510
    (about 3.4e153), so the squared sums over a bootstrap sample stay finite:
    rescale a larger one.

    The trees are grown together, level by level, in as few batches as memory
    allows (_BATCH_CELLS); each batch is one flat Tree. Consecutive jobs with
    equal x shapes share a batch while all their trees fit in one; their x and
    y are stacked and each tree's bootstrap rows are offset to its job's rows.
    Every tree keeps its own generator, and the grower splits nowhere across
    trees, so each forest, cut from the batch with its nodes renumbered, is
    the one its job grows alone, array for array. A forest larger than one
    batch is grown alone in batches. One batch of forests is held at a time: a
    caller that drops each forest after use holds no more.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    _require(n_trees >= 1, "n_trees", n_trees, ">= 1")
    impurity = _IMPURITY[task]
    checked = ((*_tree_inputs(x, y, impurity, max_depth, min_samples_split, 1), seed) for x, y, seed in jobs)
    for (n, p), run in itertools.groupby(checked, key=lambda job: job[0].shape):
        per_batch = max(1, _BATCH_CELLS // (n * (p + 1)))  # the trees one batch grows on an (n, p) x
        max_features = int(np.ceil(np.sqrt(p))) if subsample_features else p
        # a group is as many whole forests as one batch holds, or one forest in
        # as many batches as it needs; tree i of it is tree i % n_trees of job i // n_trees
        while group := list(itertools.islice(run, max(1, per_batch // n_trees))):
            # a lone job's x is used as it is: a forest larger than a batch can have a large x
            x = group[0][0] if len(group) == 1 else np.concatenate([job[0] for job in group])
            y = group[0][1] if len(group) == 1 else np.concatenate([job[1] for job in group])
            total = len(group) * n_trees
            forests: list[list[Tree]] = [[] for _ in group]
            for first in range(0, total, per_batch):
                batch = range(first, min(first + per_batch, total))
                seeds = [(group[i // n_trees][2], i % n_trees) for i in batch]
                if bootstrap:
                    bits, samples = _bootstrap_rows(seeds, n)
                else:  # no word is drawn before the candidate features
                    bits = [np.random.PCG64(_TreeSeed(*seed)) for seed in seeds]
                    samples = np.tile(np.arange(n), (len(batch), 1))
                samples += (np.arange(batch.start, batch.stop) // n_trees * n)[:, None]  # each job's rows
                # a tree's generator is needed only where it draws candidate features
                rngs = [np.random.Generator(bit) if max_features < p else None for bit in bits]
                grown = _grow_trees(
                    x, y, samples, impurity, max_depth, min_samples_split, 1, rngs, max_features, min(n_trees, len(batch))
                )
                for j, tree in enumerate(grown, start=first // n_trees):
                    forests[j].append(tree)
            del x, y, bits, rngs, samples, grown  # spent: only the forests stay while they are yielded
            yield from (ForestModel(trees=trees, task=task) for trees in forests)


# ---------------------------------------------------------------------------
# shared fit and prediction front doors

#: each learner's tasks, then its fitters, whose keyword defaults fit_model
#: lets a caller override
_FITTERS = {
    "ridge": (("regression",), fit_ridge),
    "logistic": (("classification",), fit_logistic),
    "mlp": (TASKS, fit_mlp, train_mlp),
    "tree": (TASKS, fit_tree),
    "forest": (TASKS, fit_forests),
}
MODEL_NAMES = tuple(_FITTERS)


def model_options(name: str) -> dict[str, object]:
    """The keyword overrides fit_model accepts for a learner, each with its type
    annotation: every fitter parameter with a default, except the seed, which
    fit_model passes itself."""
    return {
        p.name: get_type_hints(fn)[p.name]
        for fn in _FITTERS[name][1:]
        for p in inspect.signature(fn).parameters.values()
        if p.default is not p.empty and p.name != "seed"
    }


def _check_learner(name: str, task: str) -> None:
    """Refuse an unknown task or learner, or a task the learner is not fit for."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    if name not in _FITTERS:
        raise ValueError(f"unknown model {name!r}")
    if task not in (tasks := _FITTERS[name][0]):
        raise ValueError(f"{name} is {tasks[0]}-only")


def fit_model(name: str, task: str, x: np.ndarray, y: np.ndarray, seed: int, **params):
    """Fit a learner by name for a task; params override its keyword defaults.

    Ridge is regression-only and logistic classification-only. A tree defaults
    to gini (classification) or mse impurity and is returned as a forest of
    one, so it knows its task like every other model. The seed drives the MLP
    and the forest.
    """
    _check_learner(name, task)
    if name == "ridge":
        return fit_ridge(x, y, **params)
    if name == "logistic":
        return fit_logistic(x, y, **params)
    if name == "mlp":
        return fit_mlp(x, y, task=task, seed=seed, **params)
    if name == "tree":
        params.setdefault("impurity", _IMPURITY[task])
        return ForestModel([fit_tree(x, y, **params)], task)
    return fit_forest(x, y, task, seed=seed, **params)


def fit_models(name: str, task: str, jobs: Iterable[tuple[np.ndarray, np.ndarray, int]], **params) -> Iterator:
    """fit_model(name, task, x, y, seed, **params) of each (x, y, seed) job,
    yielded in job order; forests are grown several to a batch (fit_forests).
    The learner and task are checked when it is called, before any job."""
    _check_learner(name, task)
    if name == "forest":
        return fit_forests(jobs, task, **params)
    return (fit_model(name, task, x, y, seed, **params) for x, y, seed in jobs)


def predict(model, x: np.ndarray) -> np.ndarray:
    """Point predictions: real values for regression, 0/1 labels (the class-1
    probability or vote cut at 0.5) for classification."""
    out = model._output(np.asarray(x, dtype=float))
    return (out >= 0.5).astype(float) if model.task == "classification" else out


def predict_proba(model, x: np.ndarray) -> np.ndarray:
    """Class-1 probabilities of a classifier; for trees, the fraction voting 1."""
    if model.task != "classification":
        raise ValueError(f"a regression {type(model).__name__} has no probabilities")
    return model._output(np.asarray(x, dtype=float))
