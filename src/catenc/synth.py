"""Seasonal synthetic tasks and the samples-per-level sweep harness.

Both generators draw a four-level "season" feature whose ground-truth numeric
code is known, so every sweep can compare a learned encoder against an oracle
encoder that substitutes the true values. Training sets scale as 4 * ASPL; the
test set is drawn once per sweep from its own stream and shared by every cell.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import encoders as enc_mod
from . import models as mod
from .data import ColumnKind, DataTable, apply_pipeline, fit_pipeline
from .metrics import accuracy, mse

SEASONS = ("spring", "summer", "autumn", "winter")

#: regression truth: season index as a real level effect
REGRESSION_TRUTH = {"spring": 0.0, "summer": 1.0, "autumn": 2.0, "winter": 3.0}
#: classification truth: alternating +-1 level signs
CLASSIFICATION_TRUTH = {"spring": 1.0, "summer": -1.0, "autumn": 1.0, "winter": -1.0}

_TEST_STREAM_SALT = 104729  # keeps the shared test draw off every train stream


def generate_regression(n: int, rng: np.random.Generator, sigma: float = 1.0) -> DataTable:
    """y = truth(season) + Normal(0, sigma^2). Columns: season (categorical), y."""
    if n < 1:
        raise ValueError("need at least one row")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    idx = rng.integers(0, 4, size=n)
    noise = rng.normal(0.0, sigma, size=n) if sigma > 0 else np.zeros(n)
    y = np.array([REGRESSION_TRUTH[s] for s in SEASONS])[idx] + noise
    return DataTable(
        schema=(("season", ColumnKind.CATEGORICAL), ("y", ColumnKind.NUMERIC)),
        columns={"season": enc_mod.Categorical(SEASONS, idx), "y": y},
        target="y",
    )


def generate_classification(n: int, rng: np.random.Generator) -> DataTable:
    """label = [truth(season) * sign(sin(pi * phase)) + 1] / 2 with phase ~ U[-2, 3).

    sign(0) counts as -1, so the label is always well defined. The positive-label
    probability per season follows from the measure of {sin(pi * phase) > 0} on
    [-2, 3): 3/5 for +1 seasons, 2/5 for -1 seasons.
    """
    if n < 1:
        raise ValueError("need at least one row")
    idx = rng.integers(0, 4, size=n)
    phase = rng.uniform(-2.0, 3.0, size=n)
    sign = np.where(np.sin(np.pi * phase) > 0.0, 1.0, -1.0)
    truth = np.array([CLASSIFICATION_TRUTH[s] for s in SEASONS])[idx]
    label = (truth * sign + 1.0) / 2.0
    return DataTable(
        schema=(
            ("season", ColumnKind.CATEGORICAL),
            ("phase", ColumnKind.NUMERIC),
            ("label", ColumnKind.NUMERIC),
        ),
        columns={"season": enc_mod.Categorical(SEASONS, idx), "phase": phase, "label": label},
        target="label",
    )


@dataclass(frozen=True)
class SynthConfig:
    """Sweep shape: which problem, which ASPL grid, how many seeds, test size."""

    problem: str = "regression"
    aspl_values: tuple[int, ...] = tuple(range(5, 101, 5))
    seeds_per_aspl: int = 30
    test_size: int = 1000
    sigma: float = 1.0
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.problem not in ("regression", "classification"):
            raise ValueError(f"unknown problem {self.problem!r}")
        if not self.aspl_values or any(a < 1 for a in self.aspl_values):
            raise ValueError("aspl_values must be positive")
        if self.seeds_per_aspl < 1 or self.test_size < 1:
            raise ValueError("seeds_per_aspl and test_size must be positive")


@dataclass(frozen=True)
class SweepCell:
    problem: str
    encoder: str
    model: str
    aspl: int
    seed: int
    metric: str
    value: float


@dataclass(frozen=True)
class SweepSummary:
    problem: str
    encoder: str
    model: str
    aspl: int
    metric: str
    mean: float
    sd: float
    ci95_low: float
    ci95_high: float
    gap_to_best: float


def _truth_encoder(truth: Mapping[str, float]) -> enc_mod.FittedEncoder:
    prior = float(np.mean(list(truth.values())))
    return enc_mod.FittedEncoder(
        variant="truth",
        levels=tuple(truth),
        codes=np.array(list(truth.values()), dtype=float)[:, None],
        unseen_policy=np.array([prior]),
    )


def _score(task: str, model, x: np.ndarray, y: np.ndarray) -> tuple[str, float]:
    pred = mod.predict(model, x, task=task)
    if task == "classification":
        return "accuracy", accuracy(y, pred)
    return "mse", mse(y, pred)


def run_aspl_sweep(
    config: SynthConfig,
    model_kind: str,
    encoder_spec: enc_mod.EncoderSpec,
) -> tuple[list[SweepCell], list[SweepSummary]]:
    """Grid over aspl_values x seeds, always paired with the truth-encoder run.

    Train cell (a, s) draws from default_rng([base_seed, a, s]); the shared test
    table comes from its own salted stream, so results do not depend on the order
    cells execute in. Returns per-seed cells plus per-ASPL aggregates with a
    normal-approximation 95% interval and the signed gap to the truth run
    (positive means the requested encoder does worse).
    """
    if config.problem == "regression":
        truth = REGRESSION_TRUTH
        generate = lambda n, rng: generate_regression(n, rng, sigma=config.sigma)
        task = "regression"
    else:
        truth = CLASSIFICATION_TRUTH
        generate = generate_classification
        task = "classification"
    test = generate(config.test_size, np.random.default_rng([config.base_seed, _TEST_STREAM_SALT]))
    y_test = test.target_values()
    truth_encoders = {"season": _truth_encoder(truth)}
    cells: list[SweepCell] = []
    for a in config.aspl_values:
        for s in range(config.seeds_per_aspl):
            train = generate(4 * a, np.random.default_rng([config.base_seed, a, s]))
            y_train = train.target_values()
            for enc_name, spec in ((encoder_spec.variant, encoder_spec), ("truth", truth_encoders)):
                pipeline, x_train = fit_pipeline(train, spec)
                x_test = apply_pipeline(pipeline, test)
                model = mod.fit_model(model_kind, task, x_train, y_train, s)
                metric, value = _score(task, model, x_test, y_test)
                cells.append(
                    SweepCell(
                        problem=config.problem,
                        encoder=enc_name,
                        model=model_kind,
                        aspl=a,
                        seed=s,
                        metric=metric,
                        value=value,
                    )
                )
    return cells, summarize_sweep(cells)


def summarize_sweep(cells: Sequence[SweepCell]) -> list[SweepSummary]:
    """Per (encoder, aspl) mean, sd, 95% CI, and signed gap to the truth rows."""
    if not cells:
        return []
    metric = cells[0].metric
    truth_means: dict[int, float] = {}
    grouped: dict[tuple[str, int], list[float]] = {}
    for cell in cells:
        grouped.setdefault((cell.encoder, cell.aspl), []).append(cell.value)
    for (enc_name, a), vals in grouped.items():
        if enc_name == "truth":
            truth_means[a] = float(np.mean(vals))
    out = []
    for (enc_name, a), vals in grouped.items():
        arr = np.asarray(vals)
        mean = float(arr.mean())
        sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        half = float(1.96 * sd / np.sqrt(arr.size)) if arr.size > 1 else 0.0
        ref = truth_means.get(a, mean)
        gap = (mean - ref) if metric in ("mse", "rmse") else (ref - mean)
        out.append(
            SweepSummary(
                problem=cells[0].problem,
                encoder=enc_name,
                model=cells[0].model,
                aspl=a,
                metric=metric,
                mean=mean,
                sd=sd,
                ci95_low=mean - half,
                ci95_high=mean + half,
                gap_to_best=float(gap),
            )
        )
    out.sort(key=lambda s: (s.encoder, s.aspl))
    return out


def write_sweep_csv(cells: Sequence[SweepCell], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["problem", "encoder", "model", "aspl", "seed", "metric", "value"])
        for c in cells:
            writer.writerow([c.problem, c.encoder, c.model, c.aspl, c.seed, c.metric, repr(c.value)])


def write_sweep_summary_csv(summaries: Sequence[SweepSummary], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["problem", "encoder", "model", "aspl", "metric", "mean", "sd", "ci95_low", "ci95_high", "gap_to_best"]
        )
        for s in summaries:
            writer.writerow(
                [
                    s.problem,
                    s.encoder,
                    s.model,
                    s.aspl,
                    s.metric,
                    repr(s.mean),
                    repr(s.sd),
                    repr(s.ci95_low),
                    repr(s.ci95_high),
                    repr(s.gap_to_best),
                ]
            )
