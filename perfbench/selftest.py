"""Self-test of the benchmark: a tiny-size run of every workload.

    python3 perfbench/selftest.py

For each workload it runs untraced and traced repetitions at the ``tiny``
scale and checks that

* every repetition scores every cell and the output digest repeats, traced or
  not (tracing must not change what the program computes);
* spans nest: every span closes, and lies inside its parent;
* the self times of all spans add up to the traced wall time, short of it by
  no more than the counter bookkeeping plus 1 % + 5 ms of wrapper overhead;
* the result line carries exactly the metrics BENCHMARK.json declares.

It also checks that the benchmark refuses to run, without a result line, in a
directory holding only BENCHMARK.json and the benchmark's own files.
Exits 1 if any check fails.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run as bench


def _declared() -> dict:
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        "workloads": [w["name"] for w in spec["workloads"]],
    }


def check_workload(name: str, declared: dict) -> list[str]:
    problems = []
    for trace in (0, 1):
        result, _, reps = bench.run(name, seed=0, seconds=0, trace=bool(trace), scale="tiny")
        problems += bench.check(reps)
        if not result["correct"] or result["failed"]:
            problems.append(f"trace={trace}: result not correct or cells failed")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != declared[trace]:
            problems.append(f"trace={trace}: metrics {sorted(got)} differ from BENCHMARK.json")
        for rep in (r for r in reps if r["traced"]):
            self_sum = sum(v for k, v in rep["layers"].items() if k.endswith(".self_s"))
            gap = rep["wall_s"] - self_sum
            allowed = rep["bookkeeping_s"] + 0.01 * rep["wall_s"] + 0.005
            if not 0.0 <= gap <= allowed:
                problems.append(f"self times sum to {self_sum:.4f} s, traced wall {rep['wall_s']:.4f} s (allowed gap {allowed:.4f})")
            if rep["missing_patch_points"]:
                problems.append(f"functions not found: {rep['missing_patch_points']}")
    return problems


def check_bare_directory() -> list[str]:
    """Only BENCHMARK.json and the benchmark files, no program: must fail, print no result."""
    bare = os.path.join(bench.ROOT, ".bench_out", f"bare-{os.getpid()}")
    try:
        shutil.copytree(bench.HERE, os.path.join(bare, os.path.basename(bench.HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, os.path.join(os.path.basename(bench.HERE), "run.py"),
             "--workload", bench.WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    declared = _declared()
    failed = 0
    checks = [(f"workload {w}", lambda w=w: check_workload(w, declared)) for w in bench.WORKLOADS]
    checks.append(("workload names match BENCHMARK.json",
                   lambda: [] if list(bench.WORKLOADS) == declared["workloads"] else ["names differ"]))
    checks.append(("bare directory refused", check_bare_directory))
    for label, fn in checks:
        problems = fn()
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {label}")
        for p in problems:
            print(f"     {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
