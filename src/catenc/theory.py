"""Checkable structural claims behind the encoder comparisons.

Two families of checks live here:

* one-hot universality for models whose first operation is an affine map of the
  encoded input: any fixed encoding composed with such a map is reproduced
  exactly by one-hot plus a constructed weight matrix;
* optimal level bipartitions for trees: with a single categorical feature, the
  best split over all 2^(c-1) - 1 bipartitions is already found among the c - 1
  contiguous prefixes once levels are sorted by their target means (ties may
  need a different ordering of the tied block, which the randomized suite
  explores).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .encoders import FittedEncoder, LevelTable, compute_group_stats, transform


@dataclass(frozen=True)
class AffineMap:
    """The categorical block of a model's first layer: z = w_encoded @ phi(v)."""

    w_encoded: np.ndarray

    @property
    def width(self) -> int:
        return self.w_encoded.shape[0]


def build_equivalent_onehot_weights(map_: AffineMap, enc: FittedEncoder) -> np.ndarray:
    """Weights that make one-hot encoding reproduce `map_` over `enc` exactly.

    Column k is w_encoded @ phi(v_k), so (W_OH @ onehot(v_k)) equals the original
    contribution for every trained level.
    """
    if map_.w_encoded.shape[1] != enc.output_dim:
        raise ValueError(
            f"map expects width {map_.w_encoded.shape[1]}, encoder emits {enc.output_dim}"
        )
    return map_.w_encoded @ enc.codes.T  # (h, c)


def encoded_contributions(map_: AffineMap, enc: FittedEncoder, column: Sequence[str]) -> np.ndarray:
    """Per-row categorical contributions z = w_encoded @ phi(v), shape (n, h)."""
    return transform(enc, column) @ map_.w_encoded.T


def contribution_difference(
    map_a: AffineMap,
    enc_a: FittedEncoder,
    map_b: AffineMap,
    enc_b: FittedEncoder,
    column: Sequence[str],
) -> float:
    """Mean squared distance between two models' categorical contributions,
    (1/n) * sum ||z_a - z_b||^2 over the given column."""
    if map_a.width != map_b.width:
        raise ValueError(f"contribution widths differ: {map_a.width} vs {map_b.width}")
    if not column:
        raise ValueError("empty column")
    za = encoded_contributions(map_a, enc_a, column)
    zb = encoded_contributions(map_b, enc_b, column)
    return float(np.mean(np.sum((za - zb) ** 2, axis=1)))


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


def _canonical(left: Sequence[int], cardinality: int) -> tuple[int, ...]:
    left = tuple(sorted(left))
    if 0 in left:
        return left
    return tuple(i for i in range(cardinality) if i not in left)


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


def best_split_mean_contiguous(
    column: Sequence[str], y: Sequence[float], impurity: str
) -> PartitionSplit:
    """Best among the c - 1 contiguous prefixes of levels sorted by group mean
    (stable sort; tied means keep appearance order)."""
    y = np.asarray(y, dtype=float)
    counts, sums, sumsq = _level_aggregates(column, y)
    c = counts.shape[0]
    if c < 2:
        raise ValueError("need at least 2 levels to split")
    means = sums / counts
    order = np.argsort(means, kind="stable")
    best_value = np.inf
    best_left: tuple[int, ...] | None = None
    for k in range(1, c):
        left = _canonical(order[:k].tolist(), c)
        value = split_impurity(left, counts, sums, sumsq, impurity)
        if value < best_value - 1e-15 or (
            abs(value - best_value) <= 1e-15 and (best_left is None or left < best_left)
        ):
            best_value, best_left = value, left
    assert best_left is not None
    return PartitionSplit(left=best_left, impurity=float(best_value))


def contiguous_minimum_over_tie_orders(
    column: Sequence[str], y: Sequence[float], impurity: str, max_orderings: int = 100_000
) -> float:
    """Smallest contiguous-prefix impurity over all orderings of mean-tied levels.

    With distinct means this equals best_split_mean_contiguous; with ties the
    sorted order is not unique, and the optimality claim is that SOME ordering of
    each tied block admits an optimal prefix. Orderings are explored lazily.
    """
    y = np.asarray(y, dtype=float)
    counts, sums, sumsq = _level_aggregates(column, y)
    c = counts.shape[0]
    means = sums / counts
    order = np.argsort(means, kind="stable").tolist()
    blocks: list[list[int]] = []
    for idx in order:
        if blocks and means[blocks[-1][-1]] == means[idx]:
            blocks[-1].append(idx)
        else:
            blocks.append([idx])
    best = np.inf
    tried = 0
    for perm_parts in itertools.product(*(itertools.permutations(b) for b in blocks)):
        tried += 1
        if tried > max_orderings:
            raise RuntimeError(f"gave up after {max_orderings} tie orderings")
        ordering = [i for part in perm_parts for i in part]
        for k in range(1, c):
            value = split_impurity(ordering[:k], counts, sums, sumsq, impurity)
            if value < best:
                best = value
    return float(best)


# ---------------------------------------------------------------------------
# randomized verification suites (shared by the CLI and the acceptance tests)


@dataclass
class CheckRow:
    name: str
    params: str
    deviation: float
    ok: bool


def verify_onehot_equivalence(
    trials: int = 100,
    seed: int = 0,
    tol: float = 1e-10,
    c_range: tuple[int, int] = (2, 10),
    l_range: tuple[int, int] = (1, 5),
    h_range: tuple[int, int] = (1, 8),
) -> list[CheckRow]:
    """Random encoders + affine maps; the constructed one-hot weights must
    reproduce every level's contribution to within tol."""
    rng = np.random.default_rng(seed)
    rows = []
    for t in range(trials):
        c = int(rng.integers(c_range[0], c_range[1] + 1))
        l = int(rng.integers(l_range[0], l_range[1] + 1))
        h = int(rng.integers(h_range[0], h_range[1] + 1))
        enc = FittedEncoder(
            variant="onehot",  # stand-in tag; the map is what matters
            levels=LevelTable(levels=tuple(f"v{k}" for k in range(c))),
            codes=rng.uniform(-1, 1, size=(c, l)),
            unseen_policy=np.zeros(l),
        )
        map_ = AffineMap(w_encoded=rng.uniform(-1, 1, size=(h, l)))
        w_oh = build_equivalent_onehot_weights(map_, enc)
        dev = 0.0
        for k in range(c):
            direct = map_.w_encoded @ enc.codes[k]
            via_onehot = w_oh[:, k]
            dev = max(dev, float(np.max(np.abs(direct - via_onehot))))
        rows.append(
            CheckRow(
                name="onehot-equivalence",
                params=f"trial={t} c={c} l={l} h={h}",
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


def verify_contiguity(
    instances: int = 200,
    seed: int = 0,
    tol: float = 1e-12,
    c_range: tuple[int, int] = (2, 8),
    n_range: tuple[int, int] = (10, 200),
) -> list[CheckRow]:
    """Random single-feature datasets; the exhaustive optimum must be reached by
    a contiguous prefix under some tie ordering. Half the instances use MSE on
    real targets, half use entropy on binary targets; gini runs informationally
    (reported, never failed on)."""
    rng = np.random.default_rng(seed)
    rows = []
    for t in range(instances):
        binary = t % 2 == 1
        c = int(rng.integers(c_range[0], c_range[1] + 1))
        n = int(rng.integers(max(n_range[0], c), n_range[1] + 1))
        codes = np.concatenate([np.arange(c), rng.integers(0, c, size=n - c)])
        column = [f"v{k}" for k in codes]
        if binary:
            y = rng.integers(0, 2, size=n).astype(float)
            kind = "entropy"
            if len(set(y.tolist())) < 2:
                y[0] = 1.0 - y[0]
        else:
            y = rng.normal(size=n)
            kind = "mse"
        exhaustive = best_split_exhaustive(column, y, kind).impurity
        contiguous = contiguous_minimum_over_tie_orders(column, y, kind)
        gap = contiguous - exhaustive
        rows.append(
            CheckRow(
                name=f"contiguity-{kind}",
                params=f"trial={t} c={c} n={n}",
                deviation=float(gap),
                ok=abs(gap) <= tol,
            )
        )
        gini_gap = (
            contiguous_minimum_over_tie_orders(column, y, "gini")
            - best_split_exhaustive(column, y, "gini").impurity
            if binary
            else 0.0
        )
        if binary:
            rows.append(
                CheckRow(
                    name="contiguity-gini-informational",
                    params=f"trial={t} c={c} n={n}",
                    deviation=float(gini_gap),
                    ok=True,
                )
            )
    return rows
