"""Seasonal synthetic tasks and the samples-per-level sweep harness.

Both generators draw a four-level "season" feature whose ground-truth numeric
code is known, so every sweep can compare a learned encoder against the truth
run: the same pipeline on the table with `season` swapped, in place, for a
float column of each row's true effect. A generated `season` is a `Categorical`
and every other column a float array, so the swap alone makes `season` numeric.
Training sets scale as 4 * ASPL; the test set is drawn once per sweep from its
own stream and shared by every cell.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Mapping, Sequence

import numpy as np

from . import encoders as enc_mod
from . import models as mod
from .data import DataTable, apply_pipeline, fit_pipeline
from .metrics import LOWER_BETTER, accuracy, mse

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
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be nonnegative and finite, got {sigma}")
    idx = rng.integers(0, 4, size=n)
    noise = rng.normal(0.0, sigma, size=n) if sigma > 0 else np.zeros(n)
    y = np.array([REGRESSION_TRUTH[s] for s in SEASONS])[idx] + noise
    return DataTable({"season": enc_mod.Categorical(SEASONS, idx), "y": y}, "y")


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
    return DataTable({"season": enc_mod.Categorical(SEASONS, idx), "phase": phase, "label": label}, "label")


@dataclass(frozen=True)
class SynthConfig:
    """Sweep shape: which problem, which ASPL grid, how many seeds, test size,
    the regression noise scale sigma (finite and >= 0), and the base seed
    (>= 0)."""

    problem: str = "regression"
    aspl_values: tuple[int, ...] = tuple(range(5, 101, 5))
    seeds_per_aspl: int = 30
    test_size: int = 1000
    sigma: float = 1.0
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.problem not in mod.TASKS:
            raise ValueError(f"unknown problem {self.problem!r}")
        if not self.aspl_values or any(a < 1 for a in self.aspl_values):
            raise ValueError("aspl_values must be positive")
        if len(set(self.aspl_values)) != len(self.aspl_values):
            # a repeated value would score its cells twice and narrow every interval
            raise ValueError(f"aspl_values must be distinct, got {list(self.aspl_values)}")
        if self.seeds_per_aspl < 1 or self.test_size < 1:
            raise ValueError("seeds_per_aspl and test_size must be positive")
        if not (np.isfinite(self.sigma) and self.sigma >= 0):  # before any draw, NaN too
            raise ValueError(f"sigma must be nonnegative and finite, got {self.sigma}")
        if self.base_seed < 0:  # numpy's own refusal names no option
            raise ValueError(f"base_seed must be non-negative, got {self.base_seed}")


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


def _oracle(table: DataTable, truth: Mapping[str, float]) -> DataTable:
    """The table with `season` swapped, in its table position, for a numeric
    column holding each row's true effect."""
    season = table.column("season")
    effect = np.array([truth[level] for level in season.levels])[season.codes]
    return DataTable({**table.columns, "season": effect}, table.target)


def _score(model, x: np.ndarray, y: np.ndarray) -> tuple[str, float]:
    pred = mod.predict(model, x)
    if model.task == "classification":
        return "accuracy", accuracy(y, pred)
    return "mse", mse(y, pred)


@lru_cache(maxsize=1 << 14)
def _truth_slot(
    problem: str, sigma: float, base_seed: int, test_size: int, model_kind: str, aspl: int, seed: int
) -> list[tuple[str, float]]:
    """The memo slot of one truth cell, keyed on everything the cell depends on.

    run_aspl_sweep stores the cell's (metric, value) in the returned list the
    first time it computes it, so later sweeps in the process skip the truth
    fit; ``_truth_slot.cache_clear()`` empties the memo.
    """
    return []


def run_aspl_sweep(
    config: SynthConfig,
    model_kind: str,
    encoder_spec: enc_mod.EncoderSpec,
) -> tuple[list[SweepCell], list[SweepSummary]]:
    """Grid over aspl_values x seeds, always paired with the truth run (`_oracle`).

    Train cell (a, s) draws from default_rng([base_seed, a, s]); the shared test
    table comes from its own salted stream, so results do not depend on the order
    cells execute in. The truth cell does not depend on the encoder, so it is
    computed at most once per process for each (problem, sigma, base_seed,
    test_size, model_kind, a, s) and shared by every later sweep with that key.
    Per ASPL value, every seed's table is drawn and its pipelines fit, and the
    models of all its cells, the encoder's and then the truth fits the memo
    misses, come from one models.fit_models call, which grows forests several
    to a batch; each model is scored as it is yielded and then dropped.
    Returns per-seed cells plus per-ASPL aggregates with a normal-approximation
    95% interval and the signed gap to the truth run (positive means the
    requested encoder does worse). A learner not fit for the problem is refused
    before any table is drawn.
    """
    mod._check_learner(model_kind, config.problem)
    if config.problem == "regression":
        truth = REGRESSION_TRUTH
        generate = lambda n, rng: generate_regression(n, rng, sigma=config.sigma)
    else:
        truth = CLASSIFICATION_TRUTH
        generate = generate_classification
    test = generate(config.test_size, np.random.default_rng([config.base_seed, _TEST_STREAM_SALT]))
    truth_test = _oracle(test, truth)
    y_test = test.target_values()

    cells: list[SweepCell] = []
    seeds = range(config.seeds_per_aspl)
    for a in config.aspl_values:
        slots = [
            _truth_slot(config.problem, config.sigma, config.base_seed, config.test_size, model_kind, a, s)
            for s in seeds
        ]
        trains = [generate(4 * a, np.random.default_rng([config.base_seed, a, s])) for s in seeds]
        # every seed's encoder run, then the truth runs the memo misses, so
        # that runs of equal widths share forest batches
        runs = [(s, trains[s], test) for s in seeds]
        runs += [(s, _oracle(trains[s], truth), truth_test) for s in seeds if not slots[s]]
        jobs, x_tests = [], []
        for s, train, run_test in runs:
            pipeline, x_train = fit_pipeline(train, encoder_spec)
            jobs.append((x_train, train.target_values(), s))
            x_tests.append(apply_pipeline(pipeline, run_test))
        # map keeps no model once it is scored: at most one batch of forests is alive
        scores = list(map(_score, mod.fit_models(model_kind, config.problem, jobs), x_tests, repeat(y_test)))
        for (s, _, run_test), score in zip(runs, scores):
            if run_test is truth_test:
                slots[s].append(score)
        cells += [
            SweepCell(problem=config.problem, encoder=enc_name, model=model_kind, aspl=a, seed=s, metric=metric, value=value)
            for s in seeds
            for enc_name, (metric, value) in ((encoder_spec.variant, scores[s]), ("truth", slots[s][0]))
        ]
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
        gap = (mean - ref) if metric in LOWER_BETTER else (ref - mean)
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

