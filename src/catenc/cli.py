"""Command line front door: encode, sweep, verify, bench, guide, report.

A command loads only the modules it runs: importing this module loads data,
encoders, models, synth, metrics and guide, which encode, sweep and guide
need; verify loads theory, and bench and report load bench, in their handlers.
bench --workers N > 1 loads the process pool on first use (see bench.run_grid).
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import encoders as enc_mod
from . import guide as guide_mod
from . import models as models_mod
from . import synth as synth_mod
from .data import ColumnKind, fit_preprocessor, impute, infer_schema, load_csv, read_schema
from .metrics import MetricRecord, read_records_csv, write_records_csv

VERIFY_SUITES = ("onehot-equivalence", "split-count", "contiguity", "all")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catenc",
        description="categorical encoder laboratory: encoders, learners, checks, benchmarks",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_encode = sub.add_parser("encode", help="fit one encoder on a CSV column and dump the level codes")
    p_encode.add_argument("--encoder", required=True, choices=enc_mod.ENCODER_VARIANTS)
    p_encode.add_argument("--input", required=True, help="CSV file with a header row")
    p_encode.add_argument("--column", required=True, help="categorical column to encode")
    p_encode.add_argument("--schema", help="sidecar schema file; inferred when omitted")
    p_encode.add_argument("--target", help="target column (required without --schema)")
    p_encode.add_argument("--out", default=".", help="output directory")

    p_sweep = sub.add_parser("sweep", help="samples-per-level sweep on a synthetic task")
    p_sweep.add_argument("--problem", required=True, choices=models_mod.TASKS)
    p_sweep.add_argument("--encoder", required=True, choices=enc_mod.ENCODER_VARIANTS)
    p_sweep.add_argument("--model", required=True, choices=models_mod.MODEL_NAMES)
    synth = synth_mod.SynthConfig()  # the sweep's defaults
    p_sweep.add_argument("--aspl", type=int, nargs="+", default=list(synth.aspl_values))
    p_sweep.add_argument("--seeds", type=int, default=synth.seeds_per_aspl, help="seeds per ASPL value")
    p_sweep.add_argument("--test-size", type=int, default=synth.test_size)
    p_sweep.add_argument("--sigma", type=float, default=synth.sigma, help="regression noise scale")
    p_sweep.add_argument("--seed", type=int, default=synth.base_seed, help="base seed for all streams")
    p_sweep.add_argument("--out", default=".", help="output directory")

    p_verify = sub.add_parser("verify", help="run the randomized structural checks")
    p_verify.add_argument("--suite", default="all", choices=VERIFY_SUITES)
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", help="also write the rows to <out>/verify_report.csv")

    p_bench = sub.add_parser("bench", help="run a dataset x encoder x model x seed grid")
    p_bench.add_argument("--config", required=True, help="grid config file")
    p_bench.add_argument("--out", help="override the config's output directory")
    p_bench.add_argument("--workers", type=int, default=1)
    p_bench.add_argument("--no-timing", action="store_true", help="zero the timing columns")

    p_guide = sub.add_parser("guide", help="encoder recommendation for a setting")
    p_guide.add_argument("--model-family", required=True, choices=guide_mod.MODEL_FAMILIES)
    group = p_guide.add_mutually_exclusive_group(required=True)
    group.add_argument("--min-aspl", type=float)
    group.add_argument("--input", help="CSV to measure minASPL from")
    p_guide.add_argument("--schema", help="sidecar schema for --input")
    p_guide.add_argument("--target", help="target column for --input without --schema")
    p_guide.add_argument("--time-sensitive", action="store_true")

    p_report = sub.add_parser("report", help="re-aggregate reports from a records.csv")
    p_report.add_argument("--records", required=True)
    p_report.add_argument(
        "--dataset-info", help="dataset_info.csv with minASPL values for sufficiency buckets"
    )
    p_report.add_argument("--out", default=".", help="output directory")
    return parser


def _read_kinds(args) -> tuple[dict[str, ColumnKind], str]:
    if args.schema:
        return read_schema(args.schema)
    if not args.target:
        raise ValueError("need --target when --schema is omitted")
    return infer_schema(args.input, args.target), args.target


def _cmd_encode(args) -> int:
    kinds, target = _read_kinds(args)
    if args.column not in kinds:
        raise ValueError(f"no column {args.column!r} in {args.input}")
    if kinds[args.column] is not ColumnKind.CATEGORICAL:
        raise ValueError(f"column {args.column!r} is numeric, nothing to encode")
    if args.column == target:
        raise ValueError(f"column {args.column!r} is the target, nothing to encode")
    # read only the column and the target, so a blank other column cannot fail the fill;
    # missing cells take the column's mode, the fill every bench cell uses
    table = load_csv(args.input, {args.column: kinds[args.column], target: kinds[target]}, target)
    column = impute(fit_preprocessor(table), table).column(args.column)
    spec = enc_mod.EncoderSpec(variant=args.encoder)
    y = table.target_values() if args.encoder in enc_mod.TARGET_VARIANTS else None
    enc = enc_mod.fit(spec, column, y)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, f"{args.column}_{args.encoder}.csv")
    enc_mod.export_encoder_csv(enc, out_path)
    print(f"wrote {len(enc.levels)} level codes ({enc.output_dim} components) to {out_path}")
    return 0


def _cmd_sweep(args) -> int:
    config = synth_mod.SynthConfig(
        problem=args.problem,
        aspl_values=tuple(args.aspl),
        seeds_per_aspl=args.seeds,
        test_size=args.test_size,
        sigma=args.sigma,
        base_seed=args.seed,
    )
    spec = enc_mod.EncoderSpec(variant=args.encoder)
    cells, summaries = synth_mod.run_aspl_sweep(config, args.model, spec)
    os.makedirs(args.out, exist_ok=True)
    cells_path = os.path.join(args.out, f"sweep_{args.problem}_{args.encoder}_{args.model}.csv")
    summary_path = os.path.join(
        args.out, f"sweep_{args.problem}_{args.encoder}_{args.model}_summary.csv"
    )
    write_records_csv(cells_path, synth_mod.SweepCell, cells)
    write_records_csv(summary_path, synth_mod.SweepSummary, summaries)
    print(f"wrote {len(cells)} cells to {cells_path}")
    print(f"wrote {len(summaries)} aggregate rows to {summary_path}")
    return 0


def _cmd_verify(args) -> int:
    from . import theory as theory_mod

    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    rows = []
    if args.suite in ("onehot-equivalence", "all"):
        rows += theory_mod.verify_onehot_equivalence(trials=args.trials, seed=args.seed)
    if args.suite in ("split-count", "all"):
        rows += theory_mod.verify_split_counts()
    if args.suite in ("contiguity", "all"):
        rows += theory_mod.verify_contiguity(instances=args.trials, seed=args.seed)
    n_bad = sum(not r.ok for r in rows)
    for r in rows:
        status = "ok" if r.ok else "FAIL"
        print(f"{status:<4} {r.name:<32} {r.params:<28} deviation={r.deviation:.3e}")
    print(f"{len(rows) - n_bad}/{len(rows)} checks passed")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "verify_report.csv")
        write_records_csv(path, theory_mod.CheckRow, rows)
        print(f"wrote {path}")
    return 1 if n_bad else 0


def _cmd_bench(args) -> int:
    from . import bench as bench_mod

    grid = bench_mod.parse_grid_config(args.config)
    if args.out:
        grid = dataclasses.replace(grid, out_dir=args.out)
    records, failures = bench_mod.run_and_report(
        grid, workers=args.workers, record_timing=not args.no_timing
    )
    print(f"scored {len(records)} cells, {len(failures)} failed; reports in {grid.out_dir}")
    return 1 if failures and not records else 0


def _cmd_guide(args) -> int:
    if args.input:
        table = load_csv(args.input, *_read_kinds(args))
        query = guide_mod.query_from_table(table, args.model_family, args.time_sensitive)
        print(f"measured minASPL = {query.min_aspl:.2f}")
    else:
        query = guide_mod.GuidanceQuery(
            model_family=args.model_family,
            min_aspl=args.min_aspl,
            time_sensitive=args.time_sensitive,
        )
    rec = guide_mod.recommend(query)
    if not rec.encoders:
        print(f"no recommendation: {rec.rationale}")
        return 0
    print("recommended encoders (best first): " + ", ".join(rec.encoders))
    print(f"why: {rec.rationale}")
    return 0


def _cmd_report(args) -> int:
    from . import bench as bench_mod

    records = read_records_csv(args.records, MetricRecord)
    sufficiency = bench_mod.read_dataset_info_csv(args.dataset_info) if args.dataset_info else None
    os.makedirs(args.out, exist_ok=True)
    print(bench_mod.write_reports(records, [], sufficiency, args.out), end="")
    return 0


_HANDLERS = {
    "encode": _cmd_encode,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
    "guide": _cmd_guide,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()  # a reader that closed the pipe shows here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the reader closed the pipe early: no error line, and stdout points at
        # devnull, so the flush at exit stays quiet (Python's SIGPIPE recipe)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
