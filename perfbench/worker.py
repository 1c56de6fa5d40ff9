"""One repetition of a workload, in a fresh process.

    python3 perfbench/worker.py '<json request>'

The request names the workload, seed, scale, work directory and whether to
trace, or asks for the set-up alone. The worker times ``import catenc`` and the writing of the generated
inputs (set-up), then runs the workload's CLI calls in-process through
``catenc.cli.main`` (the timed part), checks and digests the outputs, and
prints one JSON line with the results. catenc's own console output is dropped.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _read_rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _score_outputs(name: str, files: list[str]) -> dict:
    """Count scored and failed cells and collect per-cell losses: 1 - accuracy
    for sweeps, RMSE for grids. A value that is not finite is an error."""
    if name == "sweep-forest":
        rows = [row for path in files for row in _read_rows(path)]
        failed = 0
        losses = [1.0 - float(row["value"]) for row in rows]
        bad = [row for row in rows if row["metric"] != "accuracy" or not 0.0 <= float(row["value"]) <= 1.0]
    else:
        rows = [row for path in files[0::2] for row in _read_rows(path)]
        # counted here: `catenc bench` exits 0 even if every cell fails
        failed = sum(len(_read_rows(path)) for path in files[1::2])
        losses = [float(row["value"]) for row in rows]
        bad = [row for row in rows if row["metric"] != "rmse" or float(row["encode_time"]) != 0.0]
    errors = [f"bad cell row {row}" for row in bad[:3]]
    if not all(math.isfinite(v) for v in losses):
        errors.append("non-finite cell score")
    return {"scored": len(rows), "failed": failed, "loss_sum": math.fsum(losses), "errors": errors}


def _tree(lo: int, hi: int, depth: int):
    if hi - lo < 8 or depth > 12:
        return (lo, hi)
    mid = (lo + hi) // 2
    return (_tree(lo, mid, depth + 1), _tree(mid, hi, depth + 1))


def probe() -> float:
    """Seconds for a fixed reference job that leans on the interpreter, on heap
    objects and on memory, as the program does: an integer loop, numpy sorts of
    small arrays, dict counting, recursive tuple building, and gathers from a
    4 MiB array. Its inputs are built before the clock starts."""
    import numpy as np

    small = np.linspace(0.0, 1.0, 4000).reshape(200, 20)
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 1 << 30, size=10000).tolist()
    big = rng.random(1 << 19)
    idx = rng.integers(0, big.size, size=100_000)
    t0 = time.perf_counter()
    s = 0
    for i in range(150000):
        s += i * i % 7
    for j in range(300):
        order = np.argsort(small[:, j % 20])
        np.cumsum(small[order], axis=0)
    counts: dict[int, int] = {}
    for k in keys:
        counts[k] = counts.get(k, 0) + 1
    for _ in range(3):
        _tree(0, 20000, 0)
    for _ in range(6):
        big[idx].sum()
        np.sort(big[:75_000])
    return time.perf_counter() - t0


def main(request: dict) -> dict:
    src = request["src"]
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import catenc
    import catenc.cli

    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(catenc.__file__)) != os.path.join(src, "catenc"):
        raise SystemExit(f"imported catenc from {catenc.__file__}, not from {src}")
    sys.path.insert(0, HERE)
    import workloads

    name, seed, work = request["workload"], request["seed"], request["dir"]
    params = workloads.PARAMS[name][request["scale"]]
    t0 = time.perf_counter()
    calls = workloads.write_inputs(name, seed, params, work)
    write_s = time.perf_counter() - t0

    if request.get("setup_only"):
        return {"import_s": import_s, "write_s": write_s, "ref_s": [probe()]}

    tracer = None
    if request["trace"]:
        import tracing

        tracer = tracing.Tracer(request["run_id"])
    call_s = []
    ref_s = [probe()]
    cpu_s = 0.0
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        entry = catenc.cli.main
        if tracer is not None:
            stack.enter_context(tracer)
            entry = tracer.span(tracing.ROOT_SPAN, entry)
        for argv in calls:
            t0, c0 = time.perf_counter(), time.process_time()
            rc = entry(argv)
            call_s.append(time.perf_counter() - t0)
            ref_s.append(probe())
            cpu_s += time.process_time() - c0
            if rc != 0:
                raise SystemExit(f"catenc {' '.join(argv)} exited {rc}")

    outputs = workloads.output_files(name, work, params)
    result = {
        "import_s": import_s,
        "write_s": write_s,
        "wall_s": sum(call_s),
        "call_s": call_s,
        "ref_s": ref_s,
        "cpu_s": cpu_s,
        "attempted": workloads.expected_cells(name, params),
        "numpy": sys.modules["numpy"].__version__,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "output_digest": _digest(outputs),
        "input_digest": _digest(workloads.input_files(name, work, params)),
        **_score_outputs(name, outputs),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["bookkeeping_s"] = tracer.bookkeeping_s
        result["span_problems"] = tracer.check_nesting()
        result["missing_patch_points"] = tracer.missing
        result["root_spans_s"] = sum(end - start for n, start, end, *_ in tracer.spans if n == tracing.ROOT_SPAN)
        if request.get("spans_path"):
            tracer.write_spans(request["spans_path"])
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
