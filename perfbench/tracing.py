"""Out-of-program tracing: wrap catenc's layer functions from outside.

Spans are recorded at each layer boundary by replacing the function object at
every ``catenc`` module attribute bound to it, which is the attribute its
callers actually look up (``bench`` and ``synth`` import data functions by
name, ``fit_forest`` finds ``fit_tree`` as a module global). Everything is
restored when the ``Tracer`` context exits. Spans stay in memory as
(name, start, end, parent) rows and are written once, when the run ends.

Counters are taken at the same boundaries, after the wrapped call returns. The
time they take is subtracted from every enclosing span, so it shows up as
tracing overhead and not as any layer's self time.
"""
from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

#: (defining module, function, span name). A span name may cover several
#: functions, e.g. every scoring function is ``metrics.score``.
LAYER_FUNCTIONS = (
    ("catenc.data", "load_csv", "data.load_csv"),
    ("catenc.data", "split_train_test", "data.split_train_test"),
    ("catenc.data", "impute", "data.impute"),
    ("catenc.data", "fit_preprocessor", "data.fit_preprocessor"),
    ("catenc.data", "apply_pipeline", "data.apply_pipeline"),
    ("catenc.encoders", "fit", "encoders.fit"),
    ("catenc.encoders", "transform", "encoders.transform"),
    ("catenc.models", "fit_forest", "models.fit_forest"),
    ("catenc.models", "fit_tree", "models.fit_tree"),
    ("catenc.models", "fit_ridge", "models.fit_ridge"),
    ("catenc.models", "predict", "models.predict"),
    ("catenc.synth", "run_aspl_sweep", "synth.run_aspl_sweep"),
    ("catenc.synth", "generate_classification", "synth.generate_classification"),
    ("catenc.metrics", "f1_score", "metrics.score"),
    ("catenc.metrics", "rmse", "metrics.score"),
    ("catenc.metrics", "mse", "metrics.score"),
    ("catenc.metrics", "accuracy", "metrics.score"),
    ("catenc.metrics", "minaspl", "metrics.minaspl"),
    ("catenc.metrics", "write_records_csv", "metrics.write_records_csv"),
    ("catenc.bench", "run_grid", "bench.run_grid"),
    ("catenc.bench", "rank_encoders", "bench.report"),
    ("catenc.bench", "time_report", "bench.report"),
    ("catenc.bench", "summarize", "bench.report"),
    ("catenc.bench", "write_rank_csv", "bench.report"),
    ("catenc.bench", "write_time_csv", "bench.report"),
    ("catenc.bench", "write_failures_csv", "bench.report"),
    ("catenc.bench", "write_dataset_info_csv", "bench.report"),
)

ROOT_SPAN = "cli.main"


def fingerprint(value) -> str:
    """Content key for distinct-work counting: arrays by bytes, sequences by
    their items, tables by their columns."""
    if isinstance(value, np.ndarray) and value.dtype != object:
        return hashlib.blake2b(value.tobytes() + str(value.shape).encode(), digest_size=16).hexdigest()
    columns = getattr(value, "columns", None)
    if isinstance(columns, dict):
        return repr(sorted((k, fingerprint(v)) for k, v in columns.items()))
    if isinstance(value, (list, tuple, np.ndarray)):
        return repr(hash(tuple(value)))
    return repr(value)


def count_nodes(root) -> int:
    """Nodes in a tree built of objects with ``left``/``right`` children."""
    n, stack = 0, [root]
    while stack:
        node = stack.pop()
        n += 1
        for child in (getattr(node, "left", None), getattr(node, "right", None)):
            if child is not None:
                stack.append(child)
    return n


class Tracer:
    """Context manager that installs the span wrappers and collects counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # [name, start, end, parent index or -1, bookkeeping at start, at end]
        self.spans: list[list] = []
        self.bookkeeping_s = 0.0
        self.counters: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._keys: dict[str, set] = defaultdict(set)
        self._patched: list[tuple[object, str, object]] = []

    # -- span recording --------------------------------------------------
    def span(self, name: str, fn, after=None):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            stack = self._stack
            if stack and self.spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)  # a layer calling itself stays one span
            index = len(self.spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.bookkeeping_s, 0.0]
            self.spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                record[5] = self.bookkeeping_s
                stack.pop()
            if after is not None:
                t0 = time.perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(list(bound.arguments.values()), result)
                self.bookkeeping_s += time.perf_counter() - t0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters taken at the boundaries ----------------------------------
    # Each gets the call's arguments in parameter order, defaults filled in.
    def _count_split(self, args, result):
        table, ratio, seed = args[:3]
        self._keys["data.split_train_test"].add((fingerprint(table), ratio, seed))

    def _count_fit(self, args, result):
        spec, column, target = args[:3]
        key = (repr(spec), fingerprint(column), None if target is None else fingerprint(np.asarray(target)))
        self._keys["encoders.fit"].add(key)

    def _count_transform(self, args, result):
        self.counters["encoders.transform.rows"] += int(result.shape[0])
        self.counters["encoders.transform.cells_out"] += int(result.size)

    def _count_tree(self, args, result):
        self.counters["models.tree_nodes"] += count_nodes(result)

    # -- install / restore ----------------------------------------------
    def __enter__(self) -> "Tracer":
        after = {
            "data.split_train_test": self._count_split,
            "encoders.fit": self._count_fit,
            "encoders.transform": self._count_transform,
            "models.fit_tree": self._count_tree,
        }
        modules = [m for k, m in sys.modules.items() if k == "catenc" or k.startswith("catenc.")]
        for modname, attr, name in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(modname), attr, None)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self.span(name, original, after.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    # -- results --------------------------------------------------------
    def check_nesting(self) -> list[str]:
        """Problems with the span tree: unclosed spans, children outside parents."""
        problems = []
        for i, (name, start, end, parent, _, _) in enumerate(self.spans):
            if end < start:
                problems.append(f"span {i} {name} ends before it starts")
            if parent >= 0:
                pname, pstart, pend = self.spans[parent][:3]
                if parent >= i or start < pstart or end > pend:
                    problems.append(f"span {i} {name} not inside parent {parent} {pname}")
        return problems

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time its direct children cover, summed by name.
        Children of one span never overlap: the program is single-threaded."""
        durations = [(end - start) - (bk1 - bk0) for _, start, end, _, bk0, bk1 in self.spans]
        child_time = [0.0] * len(self.spans)
        for (_, _, _, parent, _, _), d in zip(self.spans, durations):
            if parent >= 0:
                child_time[parent] += d
        out: dict[str, float] = defaultdict(float)
        for span, d, inner in zip(self.spans, durations, child_time):
            out[span[0]] += d - inner
        return dict(out)

    def layer_metrics(self) -> dict[str, float]:
        calls = Counter(name for name, *_ in self.spans)
        values: dict[str, float] = {f"{k}.self_s": v for k, v in self.self_times().items()}
        values.update(self.counters)
        values["models.fit_tree.calls"] = calls["models.fit_tree"]
        for name in ("data.split_train_test", "encoders.fit"):
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.distinct"] = len(self._keys[name])
        return values

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, bk0, bk1 in self.spans:
                row = {"run": self.run_id, "name": name, "start": start, "end": end, "parent": parent,
                       "bookkeeping_s": bk1 - bk0}
                fh.write(json.dumps(row))
                fh.write("\n")
