"""catenc benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each repetition of the workload runs
in a fresh Python process (``perfbench/worker.py``) that imports catenc from
``src/``, writes the inputs generated from the seed, and calls
``catenc.cli.main`` in-process. Repetitions continue until ``--seconds`` is
used up (at least three untraced ones). With ``--trace 1`` untraced and traced
repetitions alternate, so the tracing overhead is measured in the same run.

End-to-end times are scaled to a reference host by a fixed reference job timed
around every call (see ``scaled_wall``), because a shared host can change speed
from one second to the next.

Correctness: every repetition must score every attempted cell with a finite
value, and every repetition of the same seed must produce byte-identical inputs
and timing-masked outputs (SHA-256 digests). Any failure exits 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. The lines before
it are the same numbers for people, with units, plus the environment record.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("sweep-forest", "grid-target")
END_TO_END = (
    ("cells_per_s", "cells/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("score_loss_mean", "loss"),
)
#: Per-layer metrics reported by a traced run, in report order, with units.
PER_LAYER = (
    ("models.fit_forest.self_s", "s"),
    ("models.fit_tree.self_s", "s"),
    ("models.fit_tree.calls", "count"),
    ("models.tree_nodes", "count"),
    ("models.fit_ridge.self_s", "s"),
    ("models.predict.self_s", "s"),
    ("data.load_csv.self_s", "s"),
    ("data.split_train_test.self_s", "s"),
    ("data.split_train_test.calls", "count"),
    ("data.split_train_test.distinct", "count"),
    ("data.impute.self_s", "s"),
    ("data.fit_preprocessor.self_s", "s"),
    ("data.apply_pipeline.self_s", "s"),
    ("encoders.fit.self_s", "s"),
    ("encoders.fit.calls", "count"),
    ("encoders.fit.distinct", "count"),
    ("encoders.transform.self_s", "s"),
    ("encoders.transform.rows", "count"),
    ("encoders.transform.cells_out", "count"),
    ("synth.run_aspl_sweep.self_s", "s"),
    ("synth.generate_classification.self_s", "s"),
    ("metrics.score.self_s", "s"),
    ("metrics.minaspl.self_s", "s"),
    ("metrics.write_records_csv.self_s", "s"),
    ("bench.run_grid.self_s", "s"),
    ("bench.report.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)
MIN_REPS = 3  # untraced repetitions per run; a traced run needs two of each kind
EXTRA_SETUPS = 1  # set-up-only processes after each untraced repetition, for more setup_s samples
REP_TIMEOUT_S = 150
RUN_LIMIT_S = 160  # no repetition starts if it would likely end after this
BLAS_THREADS = os.cpu_count() or 1
REF_S = 0.040  # seconds `worker.probe` takes on the reference host; timings are scaled to it


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _run_rep(request: dict, env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(request)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=REP_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"repetition failed (exit {proc.returncode}):\n{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _run_setup(request: dict, env: dict) -> dict:
    """One more set-up sample: a fresh process that only imports and writes the inputs."""
    os.makedirs(request["dir"])
    try:
        return _run_rep({**request, "trace": False, "setup_only": True}, env)
    finally:
        shutil.rmtree(request["dir"])


def run_reps(name: str, seed: int, seconds: float, trace: bool, scale: str, work: str) -> list[dict]:
    """Repeat the workload in fresh processes until the time is used up."""
    env = _env()
    reps: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        rep_dir = os.path.join(work, f"rep{len(reps)}")
        os.makedirs(rep_dir)
        request = {
            "src": os.path.join(ROOT, "src"),
            "workload": name,
            "seed": seed,
            "scale": scale,
            "dir": rep_dir,
            "trace": traced,
            "run_id": f"{name}-{seed}-{len(reps)}",
            "spans_path": os.path.join(os.path.dirname(work), f"spans-{name}-{seed}.jsonl") if traced else None,
        }
        rep = _run_rep(request, env)
        rep["traced"] = traced
        shutil.rmtree(rep_dir)
        rep["setups"] = [] if trace else [_run_setup(request, env) for _ in range(EXTRA_SETUPS)]
        reps.append(rep)
        now = time.perf_counter()
        per_rep = (now - start) / len(reps)
        plain = sum(not r["traced"] for r in reps)
        enough = plain >= MIN_REPS if not trace else min(plain, len(reps) - plain) >= 2
        if enough and now + per_rep / 2 > start + seconds:  # overrun by at most half a repetition
            return reps
        if now + per_rep > start + RUN_LIMIT_S:
            return reps


def check(reps: list[dict]) -> list[str]:
    """Correctness problems across the repetitions of one run."""
    problems = []
    first = reps[0]
    for i, rep in enumerate(reps):
        problems += [f"rep {i}: {e}" for e in rep["errors"]]
        if rep["scored"] + rep["failed"] != rep["attempted"]:
            problems.append(f"rep {i}: {rep['scored']} scored + {rep['failed']} failed != {rep['attempted']} attempted")
        if rep["failed"]:
            problems.append(f"rep {i}: {rep['failed']} cells failed")
        for key in ("output_digest", "input_digest", "loss_sum"):
            if rep[key] != first[key]:
                problems.append(f"rep {i}: {key} differs from rep 0 ({rep[key]} vs {first[key]})")
        problems += [f"rep {i}: {p}" for p in rep.get("span_problems", [])]
    traced = [r for r in reps if r["traced"]]
    for rep in traced[1:]:
        for key, value in rep["layers"].items():
            if not key.endswith("_s") and value != traced[0]["layers"].get(key):
                problems.append(f"traced count {key} differs between repetitions")
    return problems


def _median(values) -> float:
    return float(statistics.median(values))


def _spread(values) -> str:
    return f"{len(values)} samples: median {_median(values):.4g}, min {min(values):.4g}, max {max(values):.4g}"


def scaled_wall(reps: list[dict]) -> float:
    """Seconds the timed calls of one repetition take on the reference host.

    A shared host can change speed every few seconds (on a 2-vCPU Xeon VM the
    same loop took up to 40 % longer in its slow state), so raw times spread
    more than any useful bound. Each worker times a fixed reference job
    (``worker.probe``) before the first call and after every call. A call's
    time is divided by the faster of its two neighbouring probes (a probe is
    only ever slowed down), the median of that ratio over the repetitions is
    taken per call, and the sum over calls is scaled by ``REF_S``."""
    ratios = zip(*([t / min(r["ref_s"][i], r["ref_s"][i + 1]) for i, t in enumerate(r["call_s"])] for r in reps))
    return REF_S * math.fsum(statistics.median(c) for c in ratios)


def scaled_setup(reps: list[dict]) -> float:
    """Median set-up time on the reference host, each sample scaled by the probe that follows it."""
    samples = [s for r in reps for s in [r, *r["setups"]]]
    return REF_S * _median([(s["import_s"] + s["write_s"]) / s["ref_s"][0] for s in samples])


def end_to_end(reps: list[dict]) -> tuple[dict, list[str]]:
    plain = [r for r in reps if not r["traced"]]
    raw = {
        "cells_per_s": [r["scored"] / r["wall_s"] for r in plain],
        "setup_s": [s["import_s"] + s["write_s"] for r in reps for s in [r, *r["setups"]]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    values = {
        "cells_per_s": plain[0]["scored"] / scaled_wall(plain),
        "setup_s": scaled_setup(reps),
        "peak_rss_mb": _median(raw["peak_rss_mb"]),
        "score_loss_mean": reps[0]["loss_sum"] / max(reps[0]["scored"], 1),
    }
    notes = {
        "cells_per_s": f"on the reference host; raw {_spread(raw['cells_per_s'])}",
        "setup_s": f"on the reference host; raw {_spread(raw['setup_s'])}",
        "peak_rss_mb": _spread(raw["peak_rss_mb"]),
        "score_loss_mean": "identical in every rep",
    }
    lines = [f"  {k:<16} {values[k]:>12.4f} {u:<8} {notes[k]}" for k, u in END_TO_END]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    lines.insert(3, f"  {'fail_ratio':<16} {failed / attempted:>12.4f} {'1':<8} {failed} failed / {attempted} attempted")
    probes = [p for r in reps for p in r["ref_s"]]
    lines.append(f"  reference job: {len(probes)} probes, median {_median(probes):.4g} s, min {min(probes):.4g} s;"
                 f" the reference host runs it in {REF_S} s")
    return values, lines


def per_layer(reps: list[dict]) -> tuple[dict, list[str]]:
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    wall = _median([r["wall_s"] for r in traced])
    values = {k: _median([r["layers"].get(k, 0.0) for r in traced]) for k, _ in PER_LAYER if not k.startswith("trace.")}
    values["trace.wall_s"] = wall
    values["trace.overhead_s"] = wall - _median([r["wall_s"] for r in plain])
    lines = [f"  {'layer metric':<38} {'value':>14}  unit   share of traced wall"]
    for key, unit in PER_LAYER:
        share = f"{values[key] / wall:7.1%}" if key.endswith("self_s") else ""
        lines.append(f"  {key:<38} {values[key]:>14.4f}  {unit:<6} {share}")

    def ratio(num: str, den: str) -> str:
        a, b = values[num], values[den]
        return f"{a:.0f}/{b:.0f}" + (f" = {a / b:.3f}" if b else "")

    lines += [
        f"  useful-work ratios: split distinct/calls {ratio('data.split_train_test.distinct', 'data.split_train_test.calls')},"
        f" encoder fit distinct/calls {ratio('encoders.fit.distinct', 'encoders.fit.calls')}",
        f"  wait time: none; one process, one thread of Python, no queue between layers",
        f"  tracing overhead {values['trace.overhead_s']:.4f} s = traced wall - untraced wall"
        f" (medians of {len(traced)} and {len(plain)} reps; counter bookkeeping"
        f" {_median([r['bookkeeping_s'] for r in traced]):.4f} s of it)",
    ]
    missing = sorted({m for r in traced for m in r["missing_patch_points"]})
    if missing:
        lines.append(f"  WARNING: functions not found, their layers read 0: {', '.join(missing)}")
    return values, lines


def environment(reps: list[dict]) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        ref_path = os.path.join(ROOT, ".git", ref[5:]) if ref.startswith("ref: ") else None
        if ref_path and os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                commit = fh.read().strip()
        elif ref_path is None:
            commit = ref
    src = os.path.join(ROOT, "src", "catenc")
    loc = 0
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py"):
            with open(os.path.join(src, fname), encoding="utf-8") as fh:
                loc += sum(1 for _ in fh)
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": reps[0]["numpy"],
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "src_loc": loc,
    }


def run(name: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> tuple[dict, list[str], list[dict]]:
    """One benchmark run; returns the result object, the report lines and the raw repetitions."""
    out_root = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_root, exist_ok=True)
    work = os.path.join(out_root, f"work-{os.getpid()}")
    try:
        reps = run_reps(name, seed, seconds, trace, scale, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems = check(reps)
    values, lines = (per_layer if trace else end_to_end)(reps)
    header = [
        f"workload {name}  seed {seed}  scale {scale}  {len(reps)} repetitions"
        f" ({sum(r['traced'] for r in reps)} traced), one fresh process each, workers=1",
    ]
    digest = reps[0]["output_digest"]
    footer = [
        f"  correctness: {'ok' if not problems else 'FAILED'}; output sha256 {digest[:16]}..."
        f" in {sum(r['output_digest'] == digest for r in reps)}/{len(reps)} reps,"
        f" {reps[0]['scored']}/{reps[0]['attempted']} cells scored per rep",
        *[f"  problem: {p}" for p in problems],
        "env " + json.dumps(environment(reps)),
    ]
    units = dict(PER_LAYER if trace else END_TO_END)
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    return result, header + lines + footer, reps


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "catenc", "cli.py")):
        print(f"error: no catenc source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        result, lines, _ = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
