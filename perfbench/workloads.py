"""Workload definitions: deterministic input generators and CLI argument lists.

Each workload is generated from a workload seed alone, so the same seed gives
byte-identical input files. The program under test only ever sees the files
written here (CSV, schema, grid config) or, for the sweep, the CLI arguments.
Sizes come in two scales: ``full`` is what the benchmark measures, ``tiny`` is
what the self-test runs.
"""
from __future__ import annotations

import csv
import os

import numpy as np

#: Generator parameters per workload and scale. Every perf claim is made
#: against these values, so change them only together with a new baseline.
PARAMS = {
    "sweep-forest": {
        "full": {"aspl": [5, 10, 15, 20], "seeds": 4, "test_size": 1000, "encoders": ["sshrink", "mean"]},
        "tiny": {"aspl": [5, 10], "seeds": 1, "test_size": 100, "encoders": ["sshrink", "mean"]},
    },
    "grid-target": {
        "full": {
            "rows": 50000, "city_levels": 300, "city_zipf": 1.1, "city_missing": 0.02,
            "segment_levels": 40, "num_missing": [0.05, 0.03],
            "encoders": ["mean", "sshrink", "glmm", "count", "basen"], "models": ["ridge", "tree"],
            "seeds": [0], "ratio": 0.8,
        },
        "tiny": {
            "rows": 2000, "city_levels": 60, "city_zipf": 1.1, "city_missing": 0.02,
            "segment_levels": 8, "num_missing": [0.05, 0.03],
            "encoders": ["mean", "glmm", "basen"], "models": ["ridge", "tree"],
            "seeds": [0], "ratio": 0.8,
        },
    },
}

_SALT = 7001


def expected_cells(name: str, p: dict) -> int:
    """Scored cells one repetition of the workload should produce."""
    if name == "sweep-forest":
        return len(p["encoders"]) * len(p["aspl"]) * p["seeds"] * 2  # each cell paired with a truth run
    return len(p["encoders"]) * len(p["models"]) * len(p["seeds"])


def _zipf_probs(k: int, s: float) -> np.ndarray:
    w = 1.0 / np.arange(1, k + 1) ** s
    return w / w.sum()


def _fmt(values: np.ndarray, missing: np.ndarray | None = None, token: str = "") -> list[str]:
    out = [repr(round(float(v), 6)) for v in values]
    if missing is not None:
        for i in np.flatnonzero(missing):
            out[i] = token
    return out


def _write_table(path: str, header: list[str], columns: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))


def _write_grid(dirpath: str, p: dict, schema: dict[str, str], target: str) -> list[str]:
    """Write the schema and one grid config per encoder; return the config paths."""
    with open(os.path.join(dirpath, "data.schema"), "w", encoding="utf-8") as fh:
        for name, kind in schema.items():
            fh.write(f"{name} = {kind}\n")
        fh.write(f"target = {target}\n")
    configs = []
    for enc in p["encoders"]:
        config = os.path.join(dirpath, f"grid-{enc}.cfg")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(f"[datasets]\ndata = data.csv data.schema\n[encoders]\n{enc}\n[models]\n")
            fh.writelines(f"{m}\n" for m in p["models"])
            fh.write(f"[run]\nseeds = {' '.join(str(s) for s in p['seeds'])}\nratio = {p['ratio']}\n")
        configs.append(config)
    return configs


def _gen_target(dirpath: str, seed: int, p: dict) -> list[str]:
    rng = np.random.default_rng([_SALT, seed])
    n, c, g = p["rows"], p["city_levels"], p["segment_levels"]
    city = rng.choice(c, size=n, p=_zipf_probs(c, p["city_zipf"]))
    segment = rng.integers(0, g, size=n)
    x1 = rng.normal(0.0, 1.0, size=n)
    x2 = rng.gamma(2.0, 1.0, size=n)
    y = (
        rng.normal(0.0, 1.0, size=c)[city]
        + rng.normal(0.0, 0.5, size=g)[segment]
        + 0.8 * x1
        - 0.3 * x2
        + rng.normal(0.0, 1.0, size=n)
    )
    m1, m2 = p["num_missing"]
    city_txt = [f"city{k:04d}" for k in city]
    for i in np.flatnonzero(rng.random(n) < p["city_missing"]):
        city_txt[i] = ""
    columns = [
        city_txt,
        [f"seg{k:02d}" for k in segment],
        _fmt(x1, rng.random(n) < m1, ""),
        _fmt(x2, rng.random(n) < m2, "NA"),
        _fmt(y),
    ]
    _write_table(os.path.join(dirpath, "data.csv"), ["city", "segment", "x1", "x2", "y"], columns)
    schema = {"city": "categorical", "segment": "categorical", "x1": "numeric", "x2": "numeric", "y": "numeric"}
    return _write_grid(dirpath, p, schema, "y")


def write_inputs(name: str, seed: int, p: dict, dirpath: str) -> list[list[str]]:
    """Write the workload's input files into dirpath and return the CLI calls
    (argument lists for ``catenc.cli.main``) that make up one repetition.

    The workload is cut into short calls, each timed on its own: one sweep per
    (encoder, ASPL value), one grid per encoder. A sweep cell (a, s) draws its
    training table from ``[seed, a, s]`` and the test table from ``seed``, so
    the cut computes the same cells as one sweep over every ASPL value.
    Outputs of call i land in ``<dirpath>/out<i>``.
    """
    if name == "sweep-forest":
        calls = [
            ["sweep", "--problem", "classification", "--model", "forest", "--encoder", enc,
             "--aspl", str(a), "--seeds", str(p["seeds"]), "--test-size", str(p["test_size"]),
             "--seed", str(seed)]
            for enc in p["encoders"]
            for a in p["aspl"]
        ]
    else:
        calls = [["bench", "--config", config, "--no-timing", "--workers", "1"]
                 for config in _gen_target(dirpath, seed, p)]
    return [argv + ["--out", os.path.join(dirpath, f"out{i}")] for i, argv in enumerate(calls)]


def output_files(name: str, dirpath: str, p: dict) -> list[str]:
    """Timing-free output files of one repetition, in digest order."""
    if name == "sweep-forest":
        names = [f"sweep_classification_{enc}_forest.csv" for enc in p["encoders"] for _ in p["aspl"]]
        return [os.path.join(dirpath, f"out{i}", f) for i, f in enumerate(names)]
    return [os.path.join(dirpath, f"out{i}", f) for i in range(len(p["encoders"])) for f in ("records.csv", "failures.csv")]


def input_files(name: str, dirpath: str, p: dict) -> list[str]:
    if name == "sweep-forest":
        return []
    return [os.path.join(dirpath, f) for f in ("data.csv", "data.schema", *(f"grid-{e}.cfg" for e in p["encoders"]))]
