"""Command line front door: encode, sweep, verify, bench, guide, report."""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import bench as bench_mod
from . import encoders as enc_mod
from . import guide as guide_mod
from . import models as models_mod
from . import synth as synth_mod
from . import theory as theory_mod
from .data import ColumnKind, fit_preprocessor, impute, infer_schema, load_csv, read_schema
from .metrics import read_records_csv

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
    p_sweep.add_argument("--problem", required=True, choices=("regression", "classification"))
    p_sweep.add_argument("--encoder", required=True, choices=enc_mod.ENCODER_VARIANTS)
    p_sweep.add_argument("--model", required=True, choices=models_mod.MODEL_NAMES)
    p_sweep.add_argument("--aspl", type=int, nargs="+", default=list(range(5, 101, 5)))
    p_sweep.add_argument("--seeds", type=int, default=30, help="seeds per ASPL value")
    p_sweep.add_argument("--test-size", type=int, default=1000)
    p_sweep.add_argument("--sigma", type=float, default=1.0, help="regression noise scale")
    p_sweep.add_argument("--seed", type=int, default=0, help="base seed for all streams")
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
        raise SystemExit("need --target when --schema is omitted")
    return infer_schema(args.input, args.target), args.target


def _cmd_encode(args) -> int:
    kinds, target = _read_kinds(args)
    if args.column not in kinds:
        print(f"error: no column {args.column!r} in {args.input}", file=sys.stderr)
        return 1
    if kinds[args.column] is not ColumnKind.CATEGORICAL:
        print(f"error: column {args.column!r} is numeric, nothing to encode", file=sys.stderr)
        return 1
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
    try:
        cells, summaries = synth_mod.run_aspl_sweep(config, args.model, spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(args.out, exist_ok=True)
    cells_path = os.path.join(args.out, f"sweep_{args.problem}_{args.encoder}_{args.model}.csv")
    summary_path = os.path.join(
        args.out, f"sweep_{args.problem}_{args.encoder}_{args.model}_summary.csv"
    )
    synth_mod.write_sweep_csv(cells, cells_path)
    synth_mod.write_sweep_summary_csv(summaries, summary_path)
    print(f"wrote {len(cells)} cells to {cells_path}")
    print(f"wrote {len(summaries)} aggregate rows to {summary_path}")
    return 0


def _cmd_verify(args) -> int:
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
        import csv as _csv

        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "verify_report.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = _csv.writer(fh)
            writer.writerow(["name", "params", "deviation", "ok"])
            for r in rows:
                writer.writerow([r.name, r.params, repr(r.deviation), int(r.ok)])
        print(f"wrote {path}")
    return 1 if n_bad else 0


def _cmd_bench(args) -> int:
    try:
        grid = bench_mod.parse_grid_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
    records = read_records_csv(args.records)
    sufficiency = None
    if args.dataset_info:
        sufficiency = bench_mod.read_dataset_info_csv(args.dataset_info)
    rank = bench_mod.rank_encoders(records, sufficiency)
    times = bench_mod.time_report(records)
    os.makedirs(args.out, exist_ok=True)
    bench_mod.write_rank_csv(rank, os.path.join(args.out, "rank_report.csv"))
    bench_mod.write_time_csv(times, os.path.join(args.out, "time_report.csv"))
    text = bench_mod.summarize(records, [], rank, times)
    with open(os.path.join(args.out, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)
    print(text, end="")
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
        return _HANDLERS[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
