"""Catalog of fourteen categorical encoders sharing one fit/transform contract.

Families:

* grouping: onehot, basen, backdiff, helmert, sum  (vector codes, target-free)
* ordering: ordinal, count                          (scalar codes, target-free)
* string:   similarity, minhash                     (codes from the level string)
* target:   mean, sshrink, mestimate, jamesstein, glmm  (codes from the target)

Columns are `Categorical`s, levels plus int codes (`Categorical.of` factorizes
strings). `fit(spec, column, target)` is the one constructor: it returns a
`FittedEncoder`, the column's levels tuple plus a code matrix whose row k, of
the (c, l) floats, codes training level k in first-appearance order; a policy
vector, or for string encoders the raw string, encodes unseen levels.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

GROUPING_VARIANTS = ("onehot", "basen", "backdiff", "helmert", "sum")
ORDERING_VARIANTS = ("ordinal", "count")
STRING_VARIANTS = ("similarity", "minhash")
TARGET_VARIANTS = ("mean", "sshrink", "mestimate", "jamesstein", "glmm")
ENCODER_VARIANTS = GROUPING_VARIANTS + ORDERING_VARIANTS + STRING_VARIANTS + TARGET_VARIANTS

_CONTRAST_SCHEMES = ("backdiff", "helmert", "sum")
_VAR_FLOOR = 1e-12


class Categorical:
    """A sequence of cells stored as a `levels` tuple plus one intp code per row
    into it, -1 for a missing cell (None). The constructor keeps `levels` to
    exactly the levels present, in order of first appearance, renumbering
    `codes` to match, so every row subset is canonical too."""

    __slots__ = ("levels", "codes")

    def __init__(self, levels: Sequence[str], codes) -> None:
        codes = np.asarray(codes, dtype=np.intp)
        n, k = codes.size, len(levels)
        if len(set(levels)) != k or (n and not -1 <= codes.min() <= codes.max() < k):
            raise ValueError(f"need distinct levels and codes in [-1, {k})")
        present = codes >= 0
        first = np.full(k, n, dtype=np.intp)
        np.minimum.at(first, codes[present], np.flatnonzero(present))
        order = np.argsort(first)[: np.count_nonzero(first < n)]
        remap = np.full(k + 1, -1, dtype=np.intp)  # slot k takes code -1
        remap[order] = np.arange(order.size)
        self.levels = tuple(levels[i] for i in order)
        self.codes = remap[codes]

    @classmethod
    def of(cls, cells: Sequence[str | None]) -> "Categorical":
        """Factorize string cells, None meaning missing; a Categorical passes through."""
        if isinstance(cells, Categorical):
            return cells
        position: dict[str, int] = {}
        codes = [-1 if v is None else position.setdefault(v, len(position)) for v in cells]
        for v in position:
            if not isinstance(v, str):
                raise TypeError(f"categorical cell is not a string: {v!r}")
        return cls(tuple(position), codes)

    def __len__(self) -> int:
        return self.codes.size

    def __getitem__(self, rows):
        """The cell at an int index (None when missing), else the rows' sub-column."""
        if isinstance(rows, (int, np.integer)):
            return self.levels[self.codes[rows]] if self.codes[rows] >= 0 else None
        return Categorical(self.levels, self.codes[rows])

    def __iter__(self):
        return map((self.levels + (None,)).__getitem__, self.codes.tolist())


def _complete(column: Sequence[str]) -> Categorical:
    """The column as a Categorical, refusing missing cells."""
    col = Categorical.of(column)
    if (col.codes < 0).any():
        raise ValueError("categorical column has missing cells; impute first")
    return col


@dataclass(frozen=True)
class EncoderSpec:
    """Encoder variant plus hyperparameters; unused fields are ignored by fit()."""

    variant: str
    base: int = 2
    s1: float = 20.0
    s2: float = 10.0
    m: float = 1.0
    ngram_range: tuple[int, int] = (2, 4)
    n_components: int = 30
    hash_seed: int = 0
    glmm_max_iter: int = 500
    glmm_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.variant not in ENCODER_VARIANTS:
            raise ValueError(f"unknown encoder variant {self.variant!r}")
        if self.base < 2:
            raise ValueError("base must be >= 2")
        if self.s2 <= 0:
            raise ValueError("s2 must be positive")
        if self.m < 0:
            raise ValueError("m must be nonnegative")
        lo, hi = self.ngram_range
        if not (1 <= lo <= hi):
            raise ValueError(f"bad ngram_range {self.ngram_range}")
        if self.n_components < 1:
            raise ValueError("n_components must be >= 1")
        if self.glmm_max_iter < 1 or self.glmm_tol <= 0:
            raise ValueError("bad GLMM iteration settings")


@dataclass
class FittedEncoder:
    """Levels tuple plus code matrix, with an unseen-level policy; `fit` builds one.

    levels holds the distinct training levels in first-appearance order, and
    row k of codes, a (cardinality, output_dim) float matrix, is the code of
    levels[k]. encode_fn, when set (string encoders), computes a code for
    levels outside the table; otherwise unseen levels get unseen_policy.
    """

    variant: str
    levels: tuple[str, ...]
    codes: np.ndarray
    unseen_policy: np.ndarray
    encode_fn: Callable[[str], np.ndarray] | None = None
    detail: object = None

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("no levels: column is empty")
        if len(set(self.levels)) != len(self.levels):
            raise ValueError("levels must be distinct")
        if self.codes.ndim != 2 or self.codes.shape[0] != len(self.levels):
            raise ValueError(
                f"codes of shape {self.codes.shape} need one row per level ({len(self.levels)})"
            )
        if self.unseen_policy.shape != (self.output_dim,):
            raise ValueError("unseen policy width disagrees with output_dim")

    @property
    def output_dim(self) -> int:
        return self.codes.shape[1]


def transform(enc: FittedEncoder, column: Sequence[str]) -> np.ndarray:
    """Encode a column into an (n_rows, output_dim) float matrix: look up each
    level once (encode_fn or the unseen policy for a new one), then gather rows."""
    col = _complete(column)
    known = dict(zip(enc.levels, enc.codes))
    fill = enc.encode_fn or (lambda _: enc.unseen_policy)
    table = [known[v] if v in known else fill(v) for v in col.levels]
    return np.array(table, dtype=float).reshape(len(table), enc.output_dim)[col.codes]


# ---------------------------------------------------------------------------
# grouping codes


def _basen_width(cardinality: int, base: int) -> int:
    width = 1
    while base**width < cardinality + 1:
        width += 1
    return width


def contrast_matrix(cardinality: int, scheme: str) -> np.ndarray:
    """Rows of the (c, c-1) contrast coding matrix for levels 1..c.

    sum: level k -> e_k for k < c, level c -> all -1.
    helmert: contrast j compares level j+1 against the mean of levels 1..j.
    backdiff: contrast j is the step from level j to level j+1 (fractional codes).
    """
    c = cardinality
    if c < 1:
        raise ValueError("need at least one level")
    if scheme == "sum":
        return np.vstack([np.eye(c - 1), -np.ones((1, c - 1))]) if c > 1 else np.zeros((1, 0))
    if scheme == "helmert":
        mat = np.zeros((c, c - 1))
        for j in range(1, c):
            mat[:j, j - 1] = -1.0
            mat[j, j - 1] = float(j)
        return mat
    if scheme == "backdiff":
        mat = np.zeros((c, c - 1))
        for j in range(1, c):
            mat[:j, j - 1] = -(c - j) / c
            mat[j:, j - 1] = j / c
        return mat
    raise ValueError(f"unknown contrast scheme {scheme!r}")


# ---------------------------------------------------------------------------
# string codes


def ngrams(s: str, n: int) -> list[str]:
    return [s[i : i + n] for i in range(len(s) - n + 1)]


def ngram_overlap(a: str, b: str, n: int) -> int:
    """Number of distinct length-n substrings the two strings share."""
    return len(set(ngrams(a, n)) & set(ngrams(b, n)))


def gram_set(s: str, ngram_range: tuple[int, int]) -> frozenset[str]:
    """Union of n-gram sets over the range; a string too short for even the
    smallest n is kept whole as a single gram."""
    lo, hi = ngram_range
    grams = set()
    for n in range(lo, hi + 1):
        grams.update(ngrams(s, n))
    return frozenset(grams) if grams else frozenset({s})


def _similarity_fn(levels: tuple[str, ...], ngram_range: tuple[int, int]) -> Callable[[str], np.ndarray]:
    """Component j of the code for value v is the raw count of distinct n-grams v
    shares with training level j, summed over the n-gram range. Unnormalized on
    purpose; a level string always matches itself with its full gram count."""
    lo, hi = ngram_range
    train_grams = [{n: frozenset(ngrams(v, n)) for n in range(lo, hi + 1)} for v in levels]

    def encode(value: str) -> np.ndarray:
        out = np.zeros(len(levels))
        for n in range(lo, hi + 1):
            value_grams = set(ngrams(value, n))
            if not value_grams:
                continue
            for j in range(len(levels)):
                out[j] += len(value_grams & train_grams[j][n])
        return out

    return encode


_MASK64 = (1 << 64) - 1


def _fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h


def _mix64_array(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 (wrapping arithmetic)."""
    x = x.copy()
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def minhash_signature(
    value: str,
    n_components: int = 30,
    ngram_range: tuple[int, int] = (2, 4),
    hash_seed: int = 0,
) -> np.ndarray:
    """Per component j: minimum over the value's grams of a 64-bit hash seeded by
    hash_seed + j, scaled by 2**-64 into [0, 1). Deterministic across platforms."""
    grams = sorted(gram_set(value, ngram_range))
    gram_hashes = np.fromiter(
        (_fnv1a64(g.encode("utf-8")) for g in grams), dtype=np.uint64, count=len(grams)
    )
    comp_seeds = (np.arange(n_components, dtype=np.uint64) + np.uint64(hash_seed & _MASK64))
    comp_seeds = _mix64_array(comp_seeds)
    table = _mix64_array(comp_seeds[:, None] ^ gram_hashes[None, :])
    return table.min(axis=1).astype(np.float64) * 2.0**-64


# ---------------------------------------------------------------------------
# target statistics


@dataclass(frozen=True)
class GroupStats:
    """Per-level target statistics plus the global mean, all from training rows.

    sse holds each level's within-group sum of squared deviations around its own
    mean, so pooled variances can be formed without a second pass.
    """

    levels: tuple[str, ...]
    counts: np.ndarray
    means: np.ndarray
    sse: np.ndarray
    total_count: int
    prior_mean: float


def compute_group_stats(column: Sequence[str], target: Sequence[float]) -> GroupStats:
    y = np.asarray(target, dtype=float)
    col = _complete(column)
    if len(col) != y.shape[0]:
        raise ValueError("column and target lengths differ")
    if y.shape[0] == 0:
        raise ValueError("empty column")
    c = len(col.levels)
    counts = np.bincount(col.codes, minlength=c)
    sums = np.bincount(col.codes, weights=y, minlength=c)
    means = sums / counts
    sq = np.bincount(col.codes, weights=y * y, minlength=c)
    sse = np.maximum(sq - counts * means**2, 0.0)
    return GroupStats(
        levels=col.levels,
        counts=counts,
        means=means,
        sse=sse,
        total_count=int(y.shape[0]),
        prior_mean=float(y.mean()),
    )


def shrink_factors(stats: GroupStats, scheme: str, spec: EncoderSpec) -> np.ndarray:
    """Per-level multiplier B_k on the group mean; the prior gets weight 1 - B_k."""
    m_k = stats.counts.astype(float)
    if scheme == "mean":
        return np.ones_like(m_k)
    if scheme == "sshrink":
        return 1.0 / (1.0 + np.exp(-(m_k - spec.s1) / spec.s2))
    if scheme == "mestimate":
        return m_k / (m_k + spec.m)
    if scheme == "jamesstein":
        c = len(stats.levels)
        if c < 4:
            # the (c-3)/(c-1) factor degenerates; fall back to plain group means
            return np.ones_like(m_k)
        m = stats.total_count
        pooled = float(stats.sse.sum()) / (m - c) if m > c else 0.0
        sigma_k2 = pooled / m_k
        tau2 = float(np.var(stats.means, ddof=1))
        denom = sigma_k2 + tau2
        ratio = (c - 3) / (c - 1)
        with np.errstate(invalid="ignore", divide="ignore"):
            one_minus_b = np.where(denom > 0, ratio * sigma_k2 / np.where(denom > 0, denom, 1.0), 0.0)
        return np.clip(1.0 - one_minus_b, 0.0, 1.0)
    raise ValueError(f"unknown shrinkage scheme {scheme!r}")


@dataclass(frozen=True)
class GlmmFit:
    """Converged state of the Gaussian random-intercept model y = mu + w_level + eps."""

    levels: tuple[str, ...]
    mu: float
    tau2: float
    sigma2: float
    effects: np.ndarray
    n_iter: int
    converged: bool


def fit_glmm(
    column: Sequence[str],
    target: Sequence[float],
    max_iter: int = 500,
    tol: float = 1e-10,
) -> GlmmFit:
    """EM fit of the random-intercept model; the returned effects are the BLUPs

        w_k = m_k tau2 (ybar_k - mu) / (m_k tau2 + sigma2)

    evaluated at the returned variance estimates (one extra E-step after the
    variance components settle). A level with higher conditional target mean gets
    a higher effect. tau2 collapsing to zero sends every effect to zero.
    """
    stats = compute_group_stats(column, target)
    counts = stats.counts.astype(float)
    ybar = stats.means
    m = float(stats.total_count)
    mu = stats.prior_mean
    tau2 = float(np.var(ybar))
    within = float(stats.sse.sum())
    sigma2 = within / m if within > 0 else float(np.var(np.asarray(target, dtype=float)))
    sigma2 = max(sigma2, _VAR_FLOOR)
    converged = False
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        denom = counts * tau2 + sigma2
        w = counts * tau2 * (ybar - mu) / denom
        v = tau2 * sigma2 / denom
        mu = stats.prior_mean - float(counts @ w) / m
        new_tau2 = float(np.mean(w * w + v))
        resid = stats.sse + counts * (ybar - mu - w) ** 2
        new_sigma2 = max(float((resid.sum() + counts @ v) / m), _VAR_FLOOR)
        delta = abs(new_tau2 - tau2) + abs(new_sigma2 - sigma2)
        tau2, sigma2 = new_tau2, new_sigma2
        if delta < tol:
            converged = True
            break
    denom = counts * tau2 + sigma2
    effects = counts * tau2 * (ybar - mu) / denom
    return GlmmFit(
        levels=stats.levels,
        mu=mu,
        tau2=tau2,
        sigma2=sigma2,
        effects=effects,
        n_iter=n_iter,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# the constructor and export


def fit(spec: EncoderSpec, column: Sequence[str], target: Sequence[float] | None = None) -> FittedEncoder:
    """Fit any cataloged encoder on a training column with no missing cell (plus
    target where needed): the column's levels and one (c, l) code row per level.
    Unseen levels encode to zeros unless the family says otherwise."""
    variant = spec.variant
    if variant in TARGET_VARIANTS and target is None:
        raise ValueError(f"encoder {variant!r} needs a target")
    col = _complete(column)
    c = len(col.levels)
    unseen = encode_fn = detail = None
    if variant == "onehot":
        # level k -> e_k
        codes = np.eye(c)
    elif variant == "basen":
        # level k (1-indexed) -> its base-`base` digits, most significant first
        # (all-zero is left for unseen levels)
        place = spec.base ** np.arange(_basen_width(c, spec.base) - 1, -1, -1)
        codes = ((np.arange(1, c + 1)[:, None] // place) % spec.base).astype(float)
    elif variant in _CONTRAST_SCHEMES:
        # level k -> row k of the (c, c-1) contrast matrix
        codes = contrast_matrix(c, variant)
    elif variant == "ordinal":
        # level k -> [k], 1-indexed
        codes = np.arange(1, c + 1, dtype=float)[:, None]
    elif variant == "count":
        # level -> [its number of occurrences in the training column]
        codes = np.bincount(col.codes, minlength=c).astype(float)[:, None]
    elif variant in STRING_VARIANTS:
        # any string, seen or not -> its n-gram overlaps with the levels, or its minhash signature
        if variant == "similarity":
            encode_fn = _similarity_fn(col.levels, spec.ngram_range)
        else:
            encode_fn = partial(
                minhash_signature, n_components=spec.n_components,
                ngram_range=spec.ngram_range, hash_seed=spec.hash_seed,
            )
        codes = np.stack([encode_fn(v) for v in col.levels])
    elif variant == "glmm":
        # level k -> [w_k], its fitted random effect; unseen -> [0], the model's prior
        detail = fit_glmm(col, target, max_iter=spec.glmm_max_iter, tol=spec.glmm_tol)
        codes = detail.effects[:, None]
    else:
        # level k -> [B_k * mean_k + (1 - B_k) * prior]; unseen -> [prior], full shrinkage
        detail = compute_group_stats(col, target)
        b = shrink_factors(detail, variant, spec)
        codes = (b * detail.means + (1.0 - b) * detail.prior_mean)[:, None]
        unseen = np.array([detail.prior_mean])
    if unseen is None:
        unseen = np.zeros(codes.shape[1])
    return FittedEncoder(variant, col.levels, codes, unseen, encode_fn, detail)


def output_dim(variant: str, cardinality: int, spec: EncoderSpec | None = None) -> int:
    """Encoded width as a function of training cardinality (the dimension law):
    the width of a fit on `cardinality` distinct levels."""
    spec = EncoderSpec(variant) if spec is None else replace(spec, variant=variant)
    return fit(spec, [f"v{k}" for k in range(cardinality)], np.zeros(cardinality)).output_dim


def export_encoder_csv(enc: FittedEncoder, path: str) -> None:
    """Audit dump: one row per trained level, columns level, c1..cl."""
    import csv as _csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["level"] + [f"c{j + 1}" for j in range(enc.output_dim)])
        for level, vec in zip(enc.levels, enc.codes):
            writer.writerow([level] + [repr(float(x)) for x in vec])
