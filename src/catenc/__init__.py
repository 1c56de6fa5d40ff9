"""catenc: a categorical encoder laboratory.

Fourteen encoders behind one fit/transform contract, five in-repo learners,
randomized structural checks, synthetic samples-per-level sweeps, a benchmark
grid, and a rule-based encoder selection guide.
"""

from .data import (
    ColumnKind,
    DataTable,
    SchemaError,
    SplitPair,
    apply_pipeline,
    fit_pipeline,
    fit_preprocessor,
    impute,
    load_csv,
    read_schema,
    split_train_test,
)
from .encoders import (
    ENCODER_VARIANTS,
    Categorical,
    EncoderSpec,
    FittedEncoder,
    GroupStats,
    LevelTable,
    fit,
    fit_levels,
    transform,
)
from .guide import GuidanceQuery, Recommendation, recommend
from .metrics import MetricRecord, accuracy, aspl, f1_score, minaspl, mse, relative_perf_diff, rmse
from .synth import SynthConfig, generate_classification, generate_regression, run_aspl_sweep

__version__ = "0.1.0"

__all__ = [
    "ColumnKind",
    "DataTable",
    "SchemaError",
    "SplitPair",
    "apply_pipeline",
    "fit_pipeline",
    "fit_preprocessor",
    "impute",
    "load_csv",
    "read_schema",
    "split_train_test",
    "ENCODER_VARIANTS",
    "Categorical",
    "EncoderSpec",
    "FittedEncoder",
    "GroupStats",
    "LevelTable",
    "fit",
    "fit_levels",
    "transform",
    "GuidanceQuery",
    "Recommendation",
    "recommend",
    "MetricRecord",
    "accuracy",
    "aspl",
    "f1_score",
    "minaspl",
    "mse",
    "relative_perf_diff",
    "rmse",
    "SynthConfig",
    "generate_classification",
    "generate_regression",
    "run_aspl_sweep",
    "__version__",
]
