"""Golden bytes of every report file: a tiny bench grid with a failing model,
`catenc report` on its output, a two-ASPL sweep and the split-count verify report.

The literals are the files written before the report writers were folded into
metrics.write_records_csv; they must not change. The one intended difference is
verify_report.csv's `ok` column, which reads True/False where it read 1/0.
"""
import pytest

from catenc.cli import main


def _csv(*rows):
    return "".join(row + "\r\n" for row in rows)


def _text(*lines):
    return "".join(line + "\n" for line in lines)


EXPECTED = {
    "bench/records.csv": _csv(
        'dataset,encoder,model,seed,metric,value,encode_time,train_time',
        'clf,count,tree,0,f1,0.4,0.0,0.0',
        'clf,count,tree,1,f1,0.4,0.0,0.0',
        'clf,count,tree,2,f1,0.5714285714285715,0.0,0.0',
        'clf,onehot,tree,0,f1,0.4,0.0,0.0',
        'clf,onehot,tree,1,f1,0.4,0.0,0.0',
        'clf,onehot,tree,2,f1,0.6666666666666665,0.0,0.0',
        'clf2,count,tree,0,f1,0.6666666666666666,0.0,0.0',
        'clf2,count,tree,1,f1,0.6,0.0,0.0',
        'clf2,count,tree,2,f1,0.2857142857142857,0.0,0.0',
        'clf2,onehot,tree,0,f1,0.6666666666666666,0.0,0.0',
        'clf2,onehot,tree,1,f1,0.6,0.0,0.0',
        'clf2,onehot,tree,2,f1,0.7272727272727272,0.0,0.0',
    ),
    "bench/failures.csv": _csv(
        'dataset,encoder,model,seed,error',
        'clf,count,ridge,0,ValueError: ridge is regression-only',
        'clf,count,ridge,1,ValueError: ridge is regression-only',
        'clf,count,ridge,2,ValueError: ridge is regression-only',
        'clf,onehot,ridge,0,ValueError: ridge is regression-only',
        'clf,onehot,ridge,1,ValueError: ridge is regression-only',
        'clf,onehot,ridge,2,ValueError: ridge is regression-only',
        'clf2,count,ridge,0,ValueError: ridge is regression-only',
        'clf2,count,ridge,1,ValueError: ridge is regression-only',
        'clf2,count,ridge,2,ValueError: ridge is regression-only',
        'clf2,onehot,ridge,0,ValueError: ridge is regression-only',
        'clf2,onehot,ridge,1,ValueError: ridge is regression-only',
        'clf2,onehot,ridge,2,ValueError: ridge is regression-only',
    ),
    "bench/dataset_info.csv": _csv(
        'dataset,minaspl',
        'clf,13.333333333333334',
        'clf2,13.333333333333334',
    ),
    "bench/rank_report.csv": _csv(
        'model,bucket,encoder,mean_diff,sd_diff,n_slices',
        'tree,insufficient,onehot,0.0,0.0,2',
        'tree,insufficient,count,0.14319267358781038,0.11067297151559868,2',
    ),
    "bench/time_report.csv": _csv(
        'encoder,mean_encode_time,mean_train_time,mean_total_time,dimension_key',
        'count,0.0,0.0,0.0,1.0',
        'onehot,0.0,0.0,0.0,100.0',
    ),
    "bench/summary.txt": _text(
        'cells scored: 12',
        'cells failed: 12',
        '  FAILED clf/count/ridge/seed=0: ValueError: ridge is regression-only',
        '  FAILED clf/count/ridge/seed=1: ValueError: ridge is regression-only',
        '  FAILED clf/count/ridge/seed=2: ValueError: ridge is regression-only',
        '  FAILED clf/onehot/ridge/seed=0: ValueError: ridge is regression-only',
        '  FAILED clf/onehot/ridge/seed=1: ValueError: ridge is regression-only',
        '  FAILED clf/onehot/ridge/seed=2: ValueError: ridge is regression-only',
        '  FAILED clf2/count/ridge/seed=0: ValueError: ridge is regression-only',
        '  FAILED clf2/count/ridge/seed=1: ValueError: ridge is regression-only',
        '  FAILED clf2/count/ridge/seed=2: ValueError: ridge is regression-only',
        '  FAILED clf2/onehot/ridge/seed=0: ValueError: ridge is regression-only',
        '  FAILED clf2/onehot/ridge/seed=1: ValueError: ridge is regression-only',
        '  FAILED clf2/onehot/ridge/seed=2: ValueError: ridge is regression-only',
        '',
        'encoder ranking (mean relative difference from best, ascending):',
        '  tree      insufficient onehot       0.0000 +- 0.0000 (2 slices)',
        '  tree      insufficient count        0.1432 +- 0.1107 (2 slices)',
        '',
        'timing by post-encoding dimensionality:',
        '  count        encode 0.0000s train 0.0000s total 0.0000s',
        '  onehot       encode 0.0000s train 0.0000s total 0.0000s',
    ),
    "report/summary.txt": _text(
        'cells scored: 12',
        'cells failed: 0',
        '',
        'encoder ranking (mean relative difference from best, ascending):',
        '  tree      insufficient onehot       0.0000 +- 0.0000 (2 slices)',
        '  tree      insufficient count        0.1432 +- 0.1107 (2 slices)',
        '',
        'timing by post-encoding dimensionality:',
        '  count        encode 0.0000s train 0.0000s total 0.0000s',
        '  onehot       encode 0.0000s train 0.0000s total 0.0000s',
    ),
    "sweep/sweep_classification_mean_tree.csv": _csv(
        'problem,encoder,model,aspl,seed,metric,value',
        'classification,mean,tree,5,0,accuracy,0.54',
        'classification,truth,tree,5,0,accuracy,0.52',
        'classification,mean,tree,5,1,accuracy,0.68',
        'classification,truth,tree,5,1,accuracy,0.54',
        'classification,mean,tree,5,2,accuracy,0.52',
        'classification,truth,tree,5,2,accuracy,0.52',
        'classification,mean,tree,10,0,accuracy,0.54',
        'classification,truth,tree,10,0,accuracy,0.54',
        'classification,mean,tree,10,1,accuracy,0.64',
        'classification,truth,tree,10,1,accuracy,0.64',
        'classification,mean,tree,10,2,accuracy,0.54',
        'classification,truth,tree,10,2,accuracy,0.48',
    ),
    "sweep/sweep_classification_mean_tree_summary.csv": _csv(
        'problem,encoder,model,aspl,metric,mean,sd,ci95_low,ci95_high,gap_to_best',
        'classification,mean,tree,5,accuracy,0.5800000000000001,0.08717797887081348,0.4813488300457956,0.6786511699542046,-0.053333333333333344',
        'classification,mean,tree,10,accuracy,0.5733333333333334,0.05773502691896256,0.508,0.6386666666666667,-0.020000000000000018',
        'classification,truth,tree,5,accuracy,0.5266666666666667,0.011547005383792525,0.5136000000000001,0.5397333333333334,0.0',
        'classification,truth,tree,10,accuracy,0.5533333333333333,0.08082903768654762,0.46186666666666665,0.6448,0.0',
    ),
    "verify/verify_report.csv": _csv(
        'name,params,deviation,ok',
        'split-count,c=2 got=1 want=1,0.0,True',
        'split-count,c=3 got=3 want=3,0.0,True',
        'split-count,c=4 got=7 want=7,0.0,True',
        'split-count,c=5 got=15 want=15,0.0,True',
        'split-count,c=6 got=31 want=31,0.0,True',
        'split-count,c=7 got=63 want=63,0.0,True',
        'split-count,c=8 got=127 want=127,0.0,True',
        'split-count,c=9 got=255 want=255,0.0,True',
        'split-count,c=10 got=511 want=511,0.0,True',
        'split-count,c=11 got=1023 want=1023,0.0,True',
        'split-count,c=12 got=2047 want=2047,0.0,True',
    ),
}
EXPECTED["report/rank_report.csv"] = EXPECTED["bench/rank_report.csv"]
EXPECTED["report/time_report.csv"] = EXPECTED["bench/time_report.csv"]


def _write_dataset(path, formula):
    """40 rows of grade (3 levels), x and a 0/1 target, from integer arithmetic only."""
    levels = ("lo", "mid", "hi")
    rows = [(levels[i % 3], *formula(i)) for i in range(40)]
    path.write_text("grade,x,y\n" + "".join(f"{g},{x!r},{y}\n" for g, x, y in rows))
    path.with_suffix(".schema").write_text("grade = categorical\nx = numeric\ny = numeric\ntarget = y\n")


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("reports")
    _write_dataset(d / "clf.csv", lambda i: ((i * 7) % 11 / 10, int((i * 5) % 7 > 2 + i % 3)))
    _write_dataset(d / "clf2.csv", lambda i: ((i * 4) % 13 / 10, int((i * 3) % 5 > 1 + (i % 3 == 0))))
    (d / "grid.cfg").write_text(
        "[datasets]\nclf = clf.csv clf.schema\nclf2 = clf2.csv clf2.schema\n"
        "[encoders]\nonehot\ncount\n[models]\ntree max_depth=2\nridge\n[run]\nseeds = 0 1 2\n"
    )
    # ridge is regression-only, so its 12 cells fail on these classification tables
    assert main(["bench", "--config", str(d / "grid.cfg"), "--no-timing", "--out", str(d / "bench")]) == 0
    assert main(["report", "--records", str(d / "bench" / "records.csv"),
                 "--dataset-info", str(d / "bench" / "dataset_info.csv"), "--out", str(d / "report")]) == 0
    assert main(["sweep", "--problem", "classification", "--encoder", "mean", "--model", "tree",
                 "--aspl", "5", "10", "--seeds", "3", "--test-size", "50", "--out", str(d / "sweep")]) == 0
    assert main(["verify", "--suite", "split-count", "--out", str(d / "verify")]) == 0
    return d


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_report_file_bytes(out_dir, name):
    assert (out_dir / name).read_bytes() == EXPECTED[name].encode("utf-8")


def test_no_other_report_file(out_dir):
    written = {str(p.relative_to(out_dir)) for p in out_dir.glob("*/*")}
    assert written == set(EXPECTED)
