"""Dataset x encoder x model x seed benchmark grid with offline reports.

The grid config is a small plain-text format (sections in brackets, bare tokens
with optional key=value overrides; a value reads as a bool for true/false in any
case, else as an int, float, lo:hi int pair or string). A failing cell is
recorded and skipped, not fatal; timing can be disabled so two runs of the same
grid produce byte-identical records.
"""
from __future__ import annotations

import csv
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from . import encoders as enc_mod
from . import models as mod
from .data import DataTable, apply_pipeline, fit_pipeline, load_csv, read_schema, split_train_test
from .metrics import (
    SUFFICIENT_MINASPL,
    MetricRecord,
    f1_score,
    minaspl,
    relative_perf_diff,
    rmse,
    write_records_csv,
)


class ConfigError(ValueError):
    """Raised when a grid config file cannot be interpreted."""


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    csv_path: str
    schema_path: str


@dataclass(frozen=True)
class ModelSpec:
    name: str
    params: tuple[tuple[str, object], ...] = ()

    def kwargs(self) -> dict:
        return dict(self.params)


@dataclass(frozen=True)
class ExperimentGrid:
    datasets: tuple[DatasetSpec, ...]
    encoders: tuple[enc_mod.EncoderSpec, ...]
    models: tuple[ModelSpec, ...]
    seeds: tuple[int, ...]
    split_ratio: float = 0.8
    out_dir: str = "."

    def __post_init__(self) -> None:
        if not self.datasets or not self.encoders or not self.models or not self.seeds:
            raise ConfigError("grid needs at least one dataset, encoder, model, and seed")
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError(f"split_ratio must be in (0, 1), got {self.split_ratio}")
        names = [d.name for d in self.datasets]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate dataset names")


def _parse_value(text: str):
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    if ":" in text:
        lo, _, hi = text.partition(":")
        try:
            return (int(lo), int(hi))
        except ValueError:
            pass
    return text


def _parse_overrides(tokens: Sequence[str]) -> dict:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ConfigError(f"expected key=value, got {tok!r}")
        key, _, val = tok.partition("=")
        out[key.strip()] = _parse_value(val.strip())
    return out


def parse_grid_config(path: str) -> ExperimentGrid:
    """Read a grid description.

    Format by example::

        [datasets]
        sales = data/sales.csv data/sales.schema
        [encoders]
        onehot
        minhash n_components=16 hash_seed=3
        [models]
        ridge
        tree max_depth=5
        [run]
        seeds = 0 1 2
        ratio = 0.8
        out = results

    Relative dataset paths resolve against the config file's directory.
    """
    base_dir = os.path.dirname(os.path.abspath(path))
    datasets: list[DatasetSpec] = []
    encoders: list[enc_mod.EncoderSpec] = []
    models: list[ModelSpec] = []
    seeds: list[int] = []
    ratio = 0.8
    out_dir = "."
    section = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip().lower()
                if section not in ("datasets", "encoders", "models", "run"):
                    raise ConfigError(f"{path}:{lineno}: unknown section [{section}]")
                continue
            if section == "datasets":
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'name = csv schema'")
                name, _, rest = line.partition("=")
                parts = rest.split()
                if len(parts) != 2:
                    raise ConfigError(f"{path}:{lineno}: expected two paths after '='")
                csv_path, schema_path = (
                    p if os.path.isabs(p) else os.path.join(base_dir, p) for p in parts
                )
                datasets.append(DatasetSpec(name=name.strip(), csv_path=csv_path, schema_path=schema_path))
            elif section == "encoders":
                tokens = line.split()
                try:
                    encoders.append(enc_mod.EncoderSpec(variant=tokens[0], **_parse_overrides(tokens[1:])))
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from None
            elif section == "models":
                tokens = line.split()
                if tokens[0] not in mod.MODEL_NAMES:
                    raise ConfigError(f"{path}:{lineno}: unknown model {tokens[0]!r}")
                models.append(
                    ModelSpec(name=tokens[0], params=tuple(sorted(_parse_overrides(tokens[1:]).items())))
                )
            elif section == "run":
                key, _, val = line.partition("=")
                key, val = key.strip(), val.strip()
                if key == "seeds":
                    seeds = [int(tok) for tok in val.split()]
                elif key == "ratio":
                    ratio = float(val)
                elif key == "out":
                    out_dir = val if os.path.isabs(val) else os.path.join(base_dir, val)
                else:
                    raise ConfigError(f"{path}:{lineno}: unknown run key {key!r}")
            else:
                raise ConfigError(f"{path}:{lineno}: content before any [section]")
    return ExperimentGrid(
        datasets=tuple(datasets),
        encoders=tuple(encoders),
        models=tuple(models),
        seeds=tuple(seeds),
        split_ratio=ratio,
        out_dir=out_dir,
    )


@dataclass(frozen=True)
class CellFailure:
    dataset: str
    encoder: str
    model: str
    seed: int
    error: str


def _load_dataset(csv_path: str, schema_path: str) -> DataTable:
    """Load a dataset once per process; each file's (mtime, size) is part of the
    cache key, so a rewritten file is read again."""
    stamps = tuple((st.st_mtime_ns, st.st_size) for st in map(os.stat, (schema_path, csv_path)))
    return _read_dataset(csv_path, schema_path, stamps)


@lru_cache(maxsize=32)
def _read_dataset(csv_path: str, schema_path: str, stamps: tuple) -> DataTable:
    kinds, target = read_schema(schema_path)
    return load_csv(csv_path, kinds, target)


def _run_unit(
    dataset: DatasetSpec,
    enc_spec: enc_mod.EncoderSpec,
    models: Sequence[ModelSpec],
    seed: int,
    split_ratio: float,
    record_timing: bool,
) -> list[MetricRecord | CellFailure]:
    """Score every model on one (dataset, encoder, seed): load, split and fit the
    pipeline once, then fit, predict and score each model on the shared matrices.
    A failure before the model loop fails every model's cell with that error."""

    def failure(model_spec: ModelSpec, exc: Exception) -> CellFailure:
        error = f"{type(exc).__name__}: {exc}"
        return CellFailure(dataset.name, enc_spec.variant, model_spec.name, seed, error)

    try:  # a bad cell must not sink the grid
        table = _load_dataset(dataset.csv_path, dataset.schema_path)
        pair = split_train_test(table, split_ratio, seed)
        task = table.task()
        y_train = pair.train.target_values()
        y_test = pair.test.target_values()
        t0 = time.perf_counter()
        pipeline, x_train = fit_pipeline(pair.train, enc_spec)
        x_test = apply_pipeline(pipeline, pair.test)
        encode_time = time.perf_counter() - t0
    except Exception as exc:
        return [failure(m, exc) for m in models]
    results: list[MetricRecord | CellFailure] = []
    for model_spec in models:
        try:
            t0 = time.perf_counter()
            model = mod.fit_model(model_spec.name, task, x_train, y_train, seed, **model_spec.kwargs())
            train_time = time.perf_counter() - t0
            pred = mod.predict(model, x_test, task=task)
            if task == "classification":
                metric, value = "f1", f1_score(y_test, pred)
            else:
                metric, value = "rmse", rmse(y_test, pred)
            results.append(
                MetricRecord(
                    dataset=dataset.name,
                    encoder=enc_spec.variant,
                    model=model_spec.name,
                    seed=seed,
                    metric=metric,
                    value=value,
                    encode_time=encode_time if record_timing else 0.0,
                    train_time=train_time if record_timing else 0.0,
                )
            )
        except Exception as exc:
            results.append(failure(model_spec, exc))
    return results


def run_grid(
    grid: ExperimentGrid,
    workers: int = 1,
    record_timing: bool = True,
) -> tuple[list[MetricRecord], list[CellFailure], dict[str, float]]:
    """Evaluate every cell; returns (records, failures, minaspl per dataset).

    Work is done per (dataset, encoder, seed) unit, whose encoding every model
    shares; `workers` processes run the units. Output order is sorted by
    (dataset, encoder, model, seed) no matter how many workers ran, so runs are
    reproducible modulo the timing columns.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    units = [
        (d, e, grid.models, s, grid.split_ratio, record_timing)
        for d in grid.datasets
        for e in grid.encoders
        for s in grid.seeds
    ]
    args = zip(*units)
    if workers == 1:
        per_unit = list(map(_run_unit, *args))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_unit = list(pool.map(_run_unit, *args))
    results = [r for unit in per_unit for r in unit]
    records = [r for r in results if isinstance(r, MetricRecord)]
    failures = [r for r in results if isinstance(r, CellFailure)]
    records.sort(key=lambda r: (r.dataset, r.encoder, r.model, r.seed))
    failures.sort(key=lambda r: (r.dataset, r.encoder, r.model, r.seed))
    sufficiency = {}
    for d in grid.datasets:
        try:
            sufficiency[d.name] = minaspl(_load_dataset(d.csv_path, d.schema_path))
        except (OSError, ValueError):
            continue
    return records, failures, sufficiency


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class RankEntry:
    model: str
    bucket: str
    encoder: str
    mean_diff: float
    sd_diff: float
    n_slices: int


def rank_encoders(
    records: Sequence[MetricRecord],
    minaspl_by_dataset: Mapping[str, float] | None = None,
) -> list[RankEntry]:
    """Mean relative performance difference per encoder, per model, bucketed by
    dataset sufficiency (minASPL >= 100 vs < 100; boundary counts as sufficient).

    Without the minASPL map every dataset lands in one "all" bucket. Entries are
    sorted ascending within (model, bucket): smaller is closer to the best.
    """
    slices: dict[tuple[str, str], list[MetricRecord]] = {}
    for r in records:
        slices.setdefault((r.dataset, r.model), []).append(r)
    diffs: dict[tuple[str, str, str], list[float]] = {}
    for (dataset, model), rows in sorted(slices.items()):
        if minaspl_by_dataset is None:
            bucket = "all"
        elif dataset not in minaspl_by_dataset:
            bucket = "unknown"
        else:
            bucket = (
                "sufficient" if minaspl_by_dataset[dataset] >= SUFFICIENT_MINASPL else "insufficient"
            )
        row = relative_perf_diff(rows)
        for enc_name, diff in row.diffs.items():
            if np.isnan(diff):
                continue
            diffs.setdefault((model, bucket, enc_name), []).append(diff)
    entries = [
        RankEntry(
            model=model,
            bucket=bucket,
            encoder=enc_name,
            mean_diff=float(np.mean(vals)),
            sd_diff=float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0,
            n_slices=len(vals),
        )
        for (model, bucket, enc_name), vals in diffs.items()
    ]
    entries.sort(key=lambda e: (e.model, e.bucket, e.mean_diff, e.encoder))
    return entries


#: encoded width per categorical column as a function of cardinality; evaluated
#: at a reference cardinality for report ordering since records carry no widths.
_REFERENCE_CARDINALITY = 100


def _dimension_key(encoder_name: str) -> float:
    try:
        return float(enc_mod.output_dim(encoder_name, _REFERENCE_CARDINALITY))
    except ValueError:
        return float("inf")


@dataclass(frozen=True)
class TimeEntry:
    encoder: str
    mean_encode_time: float
    mean_train_time: float
    mean_total_time: float
    dimension_key: float


def time_report(records: Sequence[MetricRecord]) -> list[TimeEntry]:
    """Mean times per encoder, ordered by post-encoding dimensionality (width of
    the encoder family at a reference cardinality of 100), widest last."""
    grouped: dict[str, list[MetricRecord]] = {}
    for r in records:
        grouped.setdefault(r.encoder, []).append(r)
    entries = []
    for enc_name, rows in grouped.items():
        enc_t = float(np.mean([r.encode_time for r in rows]))
        train_t = float(np.mean([r.train_time for r in rows]))
        entries.append(
            TimeEntry(
                encoder=enc_name,
                mean_encode_time=enc_t,
                mean_train_time=train_t,
                mean_total_time=enc_t + train_t,
                dimension_key=_dimension_key(enc_name),
            )
        )
    entries.sort(key=lambda e: (e.dimension_key, e.encoder))
    return entries


def write_rank_csv(entries: Sequence[RankEntry], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "bucket", "encoder", "mean_diff", "sd_diff", "n_slices"])
        for e in entries:
            writer.writerow([e.model, e.bucket, e.encoder, repr(e.mean_diff), repr(e.sd_diff), e.n_slices])


def write_time_csv(entries: Sequence[TimeEntry], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["encoder", "mean_encode_time", "mean_train_time", "mean_total_time", "dimension_key"])
        for e in entries:
            writer.writerow(
                [
                    e.encoder,
                    repr(e.mean_encode_time),
                    repr(e.mean_train_time),
                    repr(e.mean_total_time),
                    repr(e.dimension_key),
                ]
            )


def write_failures_csv(failures: Sequence[CellFailure], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "encoder", "model", "seed", "error"])
        for f in failures:
            writer.writerow([f.dataset, f.encoder, f.model, f.seed, f.error])


def write_dataset_info_csv(sufficiency: Mapping[str, float], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "minaspl"])
        for name in sorted(sufficiency):
            writer.writerow([name, repr(sufficiency[name])])


def read_dataset_info_csv(path: str) -> dict[str, float]:
    out = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            out[row["dataset"]] = float(row["minaspl"])
    return out


def summarize(
    records: Sequence[MetricRecord],
    failures: Sequence[CellFailure],
    rank: Sequence[RankEntry],
    times: Sequence[TimeEntry],
) -> str:
    lines = [
        f"cells scored: {len(records)}",
        f"cells failed: {len(failures)}",
    ]
    for f in failures:
        lines.append(f"  FAILED {f.dataset}/{f.encoder}/{f.model}/seed={f.seed}: {f.error}")
    lines.append("")
    lines.append("encoder ranking (mean relative difference from best, ascending):")
    for e in rank:
        lines.append(
            f"  {e.model:<9} {e.bucket:<12} {e.encoder:<12} {e.mean_diff:.4f} +- {e.sd_diff:.4f} ({e.n_slices} slices)"
        )
    lines.append("")
    lines.append("timing by post-encoding dimensionality:")
    for t in times:
        lines.append(
            f"  {t.encoder:<12} encode {t.mean_encode_time:.4f}s train {t.mean_train_time:.4f}s total {t.mean_total_time:.4f}s"
        )
    return "\n".join(lines) + "\n"


def run_and_report(
    grid: ExperimentGrid, workers: int = 1, record_timing: bool = True
) -> tuple[list[MetricRecord], list[CellFailure]]:
    """Run the grid and drop records.csv, rank_report.csv, time_report.csv,
    failures.csv, dataset_info.csv, and summary.txt into grid.out_dir."""
    os.makedirs(grid.out_dir, exist_ok=True)
    records, failures, sufficiency = run_grid(grid, workers=workers, record_timing=record_timing)
    rank = rank_encoders(records, sufficiency)
    times = time_report(records)
    write_records_csv(records, os.path.join(grid.out_dir, "records.csv"))
    write_rank_csv(rank, os.path.join(grid.out_dir, "rank_report.csv"))
    write_time_csv(times, os.path.join(grid.out_dir, "time_report.csv"))
    write_failures_csv(failures, os.path.join(grid.out_dir, "failures.csv"))
    write_dataset_info_csv(sufficiency, os.path.join(grid.out_dir, "dataset_info.csv"))
    with open(os.path.join(grid.out_dir, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(summarize(records, failures, rank, times))
    return records, failures
