"""Scoring, sample-per-level ratios, and relative performance tables."""
from __future__ import annotations

import csv
from dataclasses import astuple, dataclass, fields
from typing import Iterable, Sequence, get_type_hints

import numpy as np

from .data import DataTable

#: minASPL at or above which per-level data is considered sufficient
SUFFICIENT_MINASPL = 100.0

HIGHER_BETTER = frozenset({"f1", "accuracy"})
LOWER_BETTER = frozenset({"rmse", "mse"})


def _pair(y_true: Sequence[float], y_pred: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Both arrays as floats; unequal shapes are a length mismatch."""
    t = np.asarray(y_true, dtype=float)
    p = np.asarray(y_pred, dtype=float)
    if t.shape != p.shape:
        raise ValueError("length mismatch")
    return t, p


def f1_score(y_true: Sequence[float], y_pred: Sequence[float]) -> float:
    """Binary F1 with the zero conventions: empty precision or recall counts as 0,
    and P + R = 0 gives F1 = 0."""
    t, p = _pair(y_true, y_pred)
    both = np.concatenate([t, p])
    bad = set(both[(both != 0) & (both != 1)].tolist())
    if bad:
        raise ValueError(f"labels must be 0/1, got extras {sorted(bad)}")
    tp = float(np.sum((t == 1) & (p == 1)))
    fp = float(np.sum((t == 0) & (p == 1)))
    fn = float(np.sum((t == 1) & (p == 0)))
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def mse(y_true: Sequence[float], y_pred: Sequence[float]) -> float:
    t, p = _pair(y_true, y_pred)
    return float(np.mean((t - p) ** 2))


def rmse(y_true: Sequence[float], y_pred: Sequence[float]) -> float:
    return float(np.sqrt(mse(y_true, y_pred)))


def accuracy(y_true: Sequence[float], y_pred: Sequence[float]) -> float:
    t, p = _pair(y_true, y_pred)
    return float(np.mean(t == p))


def aspl(n_rows: int, cardinality: int) -> float:
    """Average samples per level: n / c."""
    if cardinality < 1:
        raise ValueError("cardinality must be positive")
    if n_rows < 0:
        raise ValueError("negative row count")
    return n_rows / cardinality


def minaspl(table: DataTable) -> float:
    """n over the largest categorical cardinality: the binding per-level budget.

    Missing cells count as rows but not as a level; a categorical column with
    no present cell raises ValueError.
    """
    cards = [len(table.column(name).levels) for name in table.categorical_names()]
    if not cards:
        raise ValueError("table has no categorical feature columns")
    if min(cards) == 0:
        raise ValueError("a categorical column has no present cell")
    return table.row_count / max(cards)


@dataclass(frozen=True)
class MetricRecord:
    """One grid cell: dataset x encoder x model x seed, scored once."""

    dataset: str
    encoder: str
    model: str
    seed: int
    metric: str
    value: float
    encode_time: float = 0.0
    train_time: float = 0.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.value):
            raise ValueError(f"metric value must be finite, got {self.value}")


def write_records_csv(path: str, cls: type, rows: Iterable) -> None:
    """Write dataclass rows under a header of `cls`'s field names, one
    `astuple` per row; csv writes a float as its repr, so reading it back is exact."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in fields(cls)])
        writer.writerows(map(astuple, rows))


def read_records_csv(path: str, cls: type) -> list:
    """Rows of `cls` from a file with a header row, each cell converted by its
    field's annotated type (str, int or float); extra columns and blank lines
    are skipped.

    A missing column raises ValueError naming the file; a cell that is absent,
    does not convert, or that `cls` rejects raises ValueError naming file:line.
    """
    hints = get_type_hints(cls)
    if not set(hints.values()) <= {str, int, float}:
        raise TypeError(f"{cls.__name__} has a field that is not str, int or float")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [name for name in hints if name not in header]
        if missing:
            raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
        columns = [(header.index(name), convert) for name, convert in hints.items()]
        out = []
        for row in filter(None, reader):  # a blank line reads as []
            try:
                out.append(cls(*(convert(row[i]) for i, convert in columns)))
            except (IndexError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    return out


def relative_perf_diff(records: Sequence[MetricRecord]) -> dict[str, float]:
    """|mean_e - mean_best| / |mean_best| per encoder, within one dataset x model.

    The reference is the best per-encoder mean across seeds: max for f1/accuracy,
    min for rmse/mse, so the best encoder reads 0. A zero best mean leaves every
    encoder whose own mean is not 0 reading NaN instead of dividing by zero.
    """
    if not records:
        raise ValueError("no records")
    datasets = {r.dataset for r in records}
    model_names = {r.model for r in records}
    metric_names = {r.metric for r in records}
    if len(datasets) != 1 or len(model_names) != 1 or len(metric_names) != 1:
        raise ValueError(
            "records must cover exactly one dataset, model, and metric; got "
            f"{sorted(datasets)} x {sorted(model_names)} x {sorted(metric_names)}"
        )
    metric = metric_names.pop()
    if metric in HIGHER_BETTER:
        better = max
    elif metric in LOWER_BETTER:
        better = min
    else:
        raise ValueError(f"no orientation known for metric {metric!r}")
    by_encoder: dict[str, list[float]] = {}
    for r in records:
        by_encoder.setdefault(r.encoder, []).append(r.value)
    means = {e: float(np.mean(vals)) for e, vals in by_encoder.items()}
    best_mean = better(means.values())
    if best_mean == 0.0:
        return {e: 0.0 if m == 0.0 else float("nan") for e, m in means.items()}
    return {e: abs(m - best_mean) / abs(best_mean) for e, m in means.items()}
