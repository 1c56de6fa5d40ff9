"""Checkable structural claims behind the encoder comparisons.

Two families of checks live here:

* one-hot universality for models whose first operation is an affine map of the
  encoded input: any fixed encoding composed with such a map (an (h, l) weight
  matrix over the l code columns) is reproduced exactly by one-hot plus a
  constructed (h, c) weight matrix, on every row of trained levels (one-hot
  codes an unseen level as zeros). The check fits each of the package's
  encoders and one-hot on the same column and compares transformed rows;
* optimal level bipartitions for trees: with a single categorical feature, the
  best split over all 2^(c-1) - 1 bipartitions is already a threshold on the
  levels' target means (Fisher 1958; Breiman et al. 1984, Thm 4.5). Tied means
  stay together under a threshold and the optimum is still among them. The
  check runs the package's own mean encoder and a depth-1 CART tree against an
  exhaustive scan of every bipartition.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .encoders import ENCODER_VARIANTS, EncoderSpec, FittedEncoder, compute_group_stats, fit, transform
from .models import fit_tree


def build_equivalent_onehot_weights(w: np.ndarray, enc: FittedEncoder) -> np.ndarray:
    """Weights that make one-hot encoding reproduce the map `w` over `enc` exactly.

    Column k is w @ phi(v_k), so (W_OH @ onehot(v_k)) equals the original
    contribution for every trained level.
    """
    if w.shape[1] != enc.output_dim:
        raise ValueError(f"map expects width {w.shape[1]}, encoder emits {enc.output_dim}")
    return w @ enc.codes.T  # (h, c)


def encoded_contributions(w: np.ndarray, enc: FittedEncoder, column: Sequence[str]) -> np.ndarray:
    """Per-row categorical contributions z = w @ phi(v), shape (n, h)."""
    return transform(enc, column) @ w.T


# ---------------------------------------------------------------------------
# level bipartitions


@dataclass(frozen=True)
class PartitionSplit:
    """A bipartition of level indices; `left` is the side containing level 0, so
    each unordered split appears exactly once."""

    left: tuple[int, ...]
    impurity: float | None = None


def enumerate_level_splits(cardinality: int) -> list[PartitionSplit]:
    """All (2^c - 2) / 2 canonical bipartitions of c levels. Guarded to c <= 20;
    beyond that the enumeration is no longer a desk-scale object."""
    c = cardinality
    if not 2 <= c <= 20:
        raise ValueError(f"cardinality must be in [2, 20], got {c}")
    rest = list(range(1, c))
    splits = []
    for r in range(0, c - 1):
        for combo in itertools.combinations(rest, r):
            splits.append(PartitionSplit(left=(0,) + combo))
    return splits


def _level_aggregates(column: Sequence[str], y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    stats = compute_group_stats(column, y)
    counts = stats.counts.astype(float)
    sums = stats.means * counts
    sumsq = stats.sse + counts * stats.means**2
    return counts, sums, sumsq


def _side_impurity(n: float, s: float, sq: float, kind: str) -> float:
    if n == 0:
        return 0.0
    if kind == "mse":
        return max(sq / n - (s / n) ** 2, 0.0)
    p = s / n
    if kind == "gini":
        return 2.0 * p * (1.0 - p)
    if kind == "entropy":
        if p <= 0.0 or p >= 1.0:
            return 0.0
        return float(-(p * np.log(p) + (1.0 - p) * np.log(1.0 - p)))
    raise ValueError(f"unknown impurity {kind!r}")


def split_impurity(
    left: Sequence[int], counts: np.ndarray, sums: np.ndarray, sumsq: np.ndarray, kind: str
) -> float:
    """Weighted child impurity of a level bipartition, from per-level aggregates."""
    mask = np.zeros(counts.shape[0], dtype=bool)
    mask[list(left)] = True
    n_l, s_l, q_l = counts[mask].sum(), sums[mask].sum(), sumsq[mask].sum()
    n_r, s_r, q_r = counts[~mask].sum(), sums[~mask].sum(), sumsq[~mask].sum()
    n = n_l + n_r
    return (
        n_l * _side_impurity(n_l, s_l, q_l, kind) + n_r * _side_impurity(n_r, s_r, q_r, kind)
    ) / n


def best_split_exhaustive(column: Sequence[str], y: Sequence[float], impurity: str) -> PartitionSplit:
    """Minimum weighted child impurity over every level bipartition.

    Levels are indexed in first-appearance order; impurity ties keep the
    lexicographically smallest canonical left side.
    """
    y = np.asarray(y, dtype=float)
    counts, sums, sumsq = _level_aggregates(column, y)
    c = counts.shape[0]
    if c < 2:
        raise ValueError("need at least 2 levels to split")
    best: PartitionSplit | None = None
    for split in enumerate_level_splits(c):
        value = split_impurity(split.left, counts, sums, sumsq, impurity)
        if best is None or value < best.impurity - 1e-15 or (
            abs(value - best.impurity) <= 1e-15 and split.left < best.left
        ):
            best = PartitionSplit(left=split.left, impurity=value)
    assert best is not None
    return best


def mean_code_split(column: Sequence[str], y: Sequence[float], impurity: str) -> PartitionSplit:
    """The level bipartition that a depth-1 CART tree makes on mean-encoded levels.

    The left side holds the levels whose code is at or below the tree's
    threshold, swapped with the right so that it contains level 0; with no
    split every level is on the left and the impurity is the parent's.
    """
    y = np.asarray(y, dtype=float)
    enc = fit(EncoderSpec("mean"), column, y)
    tree = fit_tree(transform(enc, column), y, impurity, max_depth=1, min_samples_split=2)
    below = enc.codes[:, 0] <= tree.threshold[0]  # all False when the root is a leaf (NaN threshold)
    left = tuple(np.flatnonzero(below == below[0]).tolist())
    return PartitionSplit(left=left, impurity=split_impurity(left, *_level_aggregates(column, y), impurity))


# ---------------------------------------------------------------------------
# randomized verification suites (shared by the CLI and the acceptance tests)


@dataclass
class CheckRow:
    name: str
    params: str
    deviation: float
    ok: bool


def _require_seed(seed: int) -> None:
    """Refuse a negative seed by name: numpy's own refusal names no option."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def verify_onehot_equivalence(trials: int = 100, seed: int = 0, tol: float = 1e-10) -> list[CheckRow]:
    """Trial t fits encoder ENCODER_VARIANTS[t % 14] and one-hot on one random
    training column (2-10 levels, 10-100 rows, a normal target), then draws a
    map w (1-8 outputs). On every row, one-hot with the constructed weights and
    the encoder under w must give the same contribution, and both must be the
    constructed weights' column for the row's level, to within tol."""
    _require_seed(seed)
    rng = np.random.default_rng(seed)
    rows = []
    for t in range(trials):
        variant = ENCODER_VARIANTS[t % len(ENCODER_VARIANTS)]
        c = int(rng.integers(2, 11))
        n = int(rng.integers(10, 101))
        level = np.concatenate([np.arange(c), rng.integers(0, c, size=n - c)])  # v0..v(c-1) in order
        column = [f"v{k}" for k in level]
        y = rng.normal(size=n)
        enc = fit(EncoderSpec(variant), column, y)
        onehot = fit(EncoderSpec("onehot"), column)
        h = int(rng.integers(1, 9))
        w = rng.uniform(-1, 1, size=(h, enc.output_dim))
        w_oh = build_equivalent_onehot_weights(w, enc)
        z = encoded_contributions(w, enc, column)
        dev = max(
            float(np.max(np.abs(encoded_contributions(w_oh, onehot, column) - z))),
            # a fault in transform's row gather moves both sides alike; the level column does not move
            float(np.max(np.abs(w_oh.T[level] - z))),
        )
        rows.append(
            CheckRow(
                name="onehot-equivalence",
                params=f"trial={t} {variant} c={c} l={enc.output_dim} h={h}",
                deviation=dev,
                ok=dev < tol,
            )
        )
    return rows


def verify_split_counts(c_min: int = 2, c_max: int = 12) -> list[CheckRow]:
    """Enumerated bipartition counts must match (2^c - 2) / 2."""
    rows = []
    for c in range(c_min, c_max + 1):
        got = len(enumerate_level_splits(c))
        want = (2**c - 2) // 2
        rows.append(
            CheckRow(
                name="split-count",
                params=f"c={c} got={got} want={want}",
                deviation=float(abs(got - want)),
                ok=got == want,
            )
        )
    return rows


def verify_contiguity(instances: int = 200, seed: int = 0, tol: float = 1e-12) -> list[CheckRow]:
    """Random single-feature datasets (2-8 levels, 10-200 rows); the split of
    mean codes by CART must reach the exhaustive optimum. Half the instances use
    MSE on real targets, half entropy on binary targets; a binary instance is
    checked under gini as well."""
    _require_seed(seed)
    rng = np.random.default_rng(seed)
    rows = []
    for t in range(instances):
        binary = t % 2 == 1
        c = int(rng.integers(2, 9))
        n = int(rng.integers(max(10, c), 201))
        codes = np.concatenate([np.arange(c), rng.integers(0, c, size=n - c)])
        column = [f"v{k}" for k in codes]
        if binary:
            y = rng.integers(0, 2, size=n).astype(float)
            if len(set(y.tolist())) < 2:
                y[0] = 1.0 - y[0]
        else:
            y = rng.normal(size=n)
        for kind in ("entropy", "gini") if binary else ("mse",):
            gap = mean_code_split(column, y, kind).impurity - best_split_exhaustive(column, y, kind).impurity
            rows.append(
                CheckRow(
                    name=f"contiguity-{kind}",
                    params=f"trial={t} c={c} n={n}",
                    deviation=float(gap),
                    ok=abs(gap) <= tol,
                )
            )
    return rows
