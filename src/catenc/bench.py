"""Dataset x encoder x model x seed benchmark grid with offline reports.

The grid config is a small plain-text format (sections in brackets, bare tokens
with optional key=value overrides; a value reads as None for none and as a bool
for true/false, in any case, else as an int, float, lo:hi int pair or string; a
model override must name a keyword of that learner, an encoder override a field
of EncoderSpec, and either must have its annotated type, so a bad value fails
when the config is read, naming its line, as does a repeated dataset, encoder,
model or seed).
A failing cell is recorded and skipped, not fatal; timing can be disabled so two
runs of the same grid produce byte-identical records.

Of the catenc commands, only bench and report import this module, and
run_grid imports the process pool (concurrent.futures, which loads
multiprocessing) only when it runs more than one worker.
"""
from __future__ import annotations

import os
import time
import types
import typing
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
    read_records_csv,
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


def _check_seeds(seeds: Sequence[int]) -> None:
    negative = [s for s in seeds if s < 0]
    if negative:  # the split's generator refuses a negative seed
        raise ConfigError(f"seeds must be non-negative, got {', '.join(map(str, negative))}")


def _check_ratio(ratio: float) -> None:
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"split_ratio must be in (0, 1), got {ratio}")


def _check_unique(what: str, keys: Sequence) -> None:
    # a repeat would share its cells' labels, and the reports would merge them
    repeats = sorted({k for k in keys if keys.count(k) > 1})
    if repeats:
        raise ConfigError(f"duplicate {what}: {', '.join(map(str, repeats))}")


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
        _check_seeds(self.seeds)
        _check_ratio(self.split_ratio)
        _check_unique("dataset name", [d.name for d in self.datasets])
        _check_unique("encoder variant", [e.variant for e in self.encoders])
        _check_unique("model name", [m.name for m in self.models])
        _check_unique("seed", self.seeds)


def _parse_value(text: str):
    if text.lower() == "none":
        return None
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


def _accepts(hint, value) -> bool:
    """Whether a parsed config value can be passed as a parameter annotated
    `hint`: an int is a float, a bool is neither, a lo:hi pair is a sequence."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return any(_accepts(arg, value) for arg in args)
    if args:  # a parametrized collection such as Sequence[float]
        return isinstance(value, tuple) and all(_accepts(args[0], v) for v in value)
    if hint is float:
        hint = (int, float)
    return isinstance(value, hint) and (hint is bool or not isinstance(value, bool))


def _parse_overrides(owner: str, options: Mapping[str, object], tokens: Sequence[str]) -> dict:
    """key=value tokens as a dict, each key one of `options` (name -> type
    annotation) and each value of that type; else ConfigError."""
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ConfigError(f"expected key=value, got {tok!r}")
        key, _, val = tok.partition("=")
        key, value = key.strip(), _parse_value(val.strip())
        if key not in options:
            raise ConfigError(f"{owner} takes no option {key!r} (it takes {', '.join(options)})")
        hint = options[key]
        if not _accepts(hint, value):
            hint = hint.__name__ if isinstance(hint, type) else str(hint).replace("typing.", "")
            raise ConfigError(f"{owner} option {key} must be {hint}, got {value!r}")
        out[key] = value
    return out


#: the [encoders] override keys and their types: every EncoderSpec field but the variant
_ENCODER_OPTIONS = {k: v for k, v in typing.get_type_hints(enc_mod.EncoderSpec).items() if k != "variant"}


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
    run_keys: list[str] = []
    section = None
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:  # every error, a repeated dataset, encoder, model, seed or run key too, names its line
                if line.startswith("[") and line.endswith("]"):
                    section = line[1:-1].strip().lower()
                    if section not in ("datasets", "encoders", "models", "run"):
                        raise ConfigError(f"unknown section [{section}]")
                elif section == "datasets":
                    if "=" not in line:
                        raise ConfigError("expected 'name = csv schema'")
                    name, _, rest = line.partition("=")
                    parts = rest.split()
                    if len(parts) != 2:
                        raise ConfigError("expected two paths after '='")
                    csv_path, schema_path = (
                        p if os.path.isabs(p) else os.path.join(base_dir, p) for p in parts
                    )
                    datasets.append(DatasetSpec(name=name.strip(), csv_path=csv_path, schema_path=schema_path))
                    _check_unique("dataset name", [d.name for d in datasets])
                elif section == "encoders":
                    tokens = line.split()
                    overrides = _parse_overrides(tokens[0], _ENCODER_OPTIONS, tokens[1:])
                    encoders.append(enc_mod.EncoderSpec(variant=tokens[0], **overrides))
                    _check_unique("encoder variant", [e.variant for e in encoders])
                elif section == "models":
                    tokens = line.split()
                    if tokens[0] not in mod.MODEL_NAMES:
                        raise ConfigError(f"unknown model {tokens[0]!r}")
                    overrides = _parse_overrides(tokens[0], mod.model_options(tokens[0]), tokens[1:])
                    models.append(ModelSpec(name=tokens[0], params=tuple(sorted(overrides.items()))))
                    _check_unique("model name", [m.name for m in models])
                elif section == "run":
                    key, _, val = (part.strip() for part in line.partition("="))
                    run_keys.append(key)
                    _check_unique("run key", run_keys)  # a second value would replace the first
                    try:
                        if key == "seeds":
                            seeds = [int(tok) for tok in val.split()]
                        elif key == "ratio":
                            ratio = float(val)
                    except ValueError:
                        raise ConfigError(f"bad {key} value {val!r}") from None
                    if key == "seeds":
                        _check_seeds(seeds)
                        _check_unique("seed", seeds)
                    elif key == "ratio":
                        _check_ratio(ratio)
                    elif key == "out":
                        out_dir = val if os.path.isabs(val) else os.path.join(base_dir, val)
                    else:
                        raise ConfigError(f"unknown run key {key!r}")
                else:
                    raise ConfigError("content before any [section]")
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
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
    cache key, so a rewritten file is read again. Several grids run in one
    process over one dataset, one cli.main call each, parse it once."""
    stamps = tuple((st.st_mtime_ns, st.st_size) for st in map(os.stat, (schema_path, csv_path)))
    return _read_dataset(csv_path, schema_path, stamps)


@lru_cache(maxsize=32)
def _read_dataset(csv_path: str, schema_path: str, stamps: tuple) -> DataTable:
    kinds, target = read_schema(schema_path)
    return load_csv(csv_path, kinds, target)


def _run_unit(
    name: str,
    table: DataTable,
    enc_spec: enc_mod.EncoderSpec,
    models: Sequence[ModelSpec],
    seed: int,
    split_ratio: float,
    record_timing: bool,
) -> list[MetricRecord | CellFailure]:
    """Score every model on one (dataset, encoder, seed): split and fit the
    pipeline once, then fit, predict and score each model on the shared matrices.
    A failure before the model loop fails every model's cell with that error."""

    def failure(model_spec: ModelSpec, exc: Exception) -> CellFailure:
        error = f"{type(exc).__name__}: {exc}"
        return CellFailure(name, enc_spec.variant, model_spec.name, seed, error)

    try:  # a bad cell must not sink the grid
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
            pred = mod.predict(model, x_test)
            if task == "classification":
                metric, value = "f1", f1_score(y_test, pred)
            else:
                metric, value = "rmse", rmse(y_test, pred)
            results.append(
                MetricRecord(
                    dataset=name,
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
    shares; up to `workers` processes, never more than there are units, run
    them. Output order is sorted by (dataset, encoder, model, seed) no matter
    how many workers ran, so runs are reproducible modulo the timing columns.
    Each dataset is loaded here, and only here, and its table handed to its
    units (pickled to a worker): one that cannot be loaded (SchemaError,
    OSError), or whose target has a missing or non-numeric value, stops the
    run before out_dir is made, and an out_dir that cannot be made stops it
    before any cell.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    tables = {d.name: _load_dataset(d.csv_path, d.schema_path) for d in grid.datasets}
    for table in tables.values():
        table.target_values()  # a missing or non-numeric target stops the run here
    os.makedirs(grid.out_dir, exist_ok=True)
    units = [
        (name, table, e, grid.models, s, grid.split_ratio, record_timing)
        for name, table in tables.items()
        for e in grid.encoders
        for s in grid.seeds
    ]
    args = zip(*units)
    workers = min(workers, len(units))  # a pool may start all its processes at once
    if workers <= 1:
        per_unit = list(map(_run_unit, *args))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_unit = list(pool.map(_run_unit, *args))
    results = [r for unit in per_unit for r in unit]
    records = [r for r in results if isinstance(r, MetricRecord)]
    failures = [r for r in results if isinstance(r, CellFailure)]
    records.sort(key=lambda r: (r.dataset, r.encoder, r.model, r.seed))
    failures.sort(key=lambda r: (r.dataset, r.encoder, r.model, r.seed))
    sufficiency = {}
    for name, table in tables.items():
        try:
            sufficiency[name] = minaspl(table)
        except ValueError:  # no categorical column to measure
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
) -> tuple[list[RankEntry], list[tuple[str, str, str]]]:
    """Mean relative performance difference per encoder, per model, bucketed by
    dataset sufficiency (minASPL >= 100 vs < 100; boundary counts as sufficient).

    Without the minASPL map every dataset lands in one "all" bucket. Entries are
    sorted ascending within (model, bucket): smaller is closer to the best.
    An encoder with a NaN difference (its slice's best mean is 0, its own is not)
    is not ranked but returned as (dataset, model, encoder) in the second list.
    """
    slices: dict[tuple[str, str], list[MetricRecord]] = {}
    for r in records:
        slices.setdefault((r.dataset, r.model), []).append(r)
    diffs: dict[tuple[str, str, str], list[float]] = {}
    unranked: list[tuple[str, str, str]] = []
    for (dataset, model), rows in sorted(slices.items()):
        if minaspl_by_dataset is None:
            bucket = "all"
        elif dataset not in minaspl_by_dataset:
            bucket = "unknown"
        else:
            bucket = (
                "sufficient" if minaspl_by_dataset[dataset] >= SUFFICIENT_MINASPL else "insufficient"
            )
        for enc_name, diff in relative_perf_diff(rows).items():
            if np.isnan(diff):
                unranked.append((dataset, model, enc_name))
            else:
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
    return entries, unranked


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
    write_records_csv(path, RankEntry, entries)


def write_time_csv(entries: Sequence[TimeEntry], path: str) -> None:
    write_records_csv(path, TimeEntry, entries)


def write_failures_csv(failures: Sequence[CellFailure], path: str) -> None:
    write_records_csv(path, CellFailure, failures)


@dataclass(frozen=True)
class DatasetInfo:
    """One row of dataset_info.csv: the minASPL that picks a dataset's sufficiency bucket."""

    dataset: str
    minaspl: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.minaspl) or self.minaspl <= 0:
            raise ValueError(f"minaspl must be finite and positive, got {self.minaspl}")


def write_dataset_info_csv(sufficiency: Mapping[str, float], path: str) -> None:
    write_records_csv(path, DatasetInfo, (DatasetInfo(n, sufficiency[n]) for n in sorted(sufficiency)))


def read_dataset_info_csv(path: str) -> dict[str, float]:
    return {row.dataset: row.minaspl for row in read_records_csv(path, DatasetInfo)}


def summarize(
    records: Sequence[MetricRecord],
    failures: Sequence[CellFailure],
    rank: Sequence[RankEntry],
    unranked: Sequence[tuple[str, str, str]],
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
    for dataset, model, enc_name in unranked:
        lines.append(f"  UNRANKED {dataset}/{enc_name}/{model}: the slice's best mean is 0")
    lines.append("")
    lines.append("timing by post-encoding dimensionality:")
    for t in times:
        lines.append(
            f"  {t.encoder:<12} encode {t.mean_encode_time:.4f}s train {t.mean_train_time:.4f}s total {t.mean_total_time:.4f}s"
        )
    return "\n".join(lines) + "\n"


def write_reports(
    records: Sequence[MetricRecord], failures: Sequence[CellFailure], sufficiency: Mapping[str, float] | None, out_dir: str
) -> str:
    """Write rank_report.csv, time_report.csv and summary.txt into out_dir; returns the summary."""
    rank, unranked = rank_encoders(records, sufficiency)
    times = time_report(records)
    write_rank_csv(rank, os.path.join(out_dir, "rank_report.csv"))
    write_time_csv(times, os.path.join(out_dir, "time_report.csv"))
    text = summarize(records, failures, rank, unranked, times)
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def run_and_report(
    grid: ExperimentGrid, workers: int = 1, record_timing: bool = True
) -> tuple[list[MetricRecord], list[CellFailure]]:
    """Run the grid; write records.csv, failures.csv, dataset_info.csv and write_reports' files."""
    records, failures, sufficiency = run_grid(grid, workers=workers, record_timing=record_timing)
    write_records_csv(os.path.join(grid.out_dir, "records.csv"), MetricRecord, records)
    write_failures_csv(failures, os.path.join(grid.out_dir, "failures.csv"))
    write_dataset_info_csv(sufficiency, os.path.join(grid.out_dir, "dataset_info.csv"))
    write_reports(records, failures, sufficiency, grid.out_dir)
    return records, failures
