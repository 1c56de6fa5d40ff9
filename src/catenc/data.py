"""Column-major tables, CSV ingestion, splitting, and the preprocessing pipeline.

Columns are arrays, and a column's kind is its type: an `encoders.Categorical`
(levels plus int codes, -1 for a missing cell) is categorical, a float64 array
(NaN for a missing cell) numeric. `load_csv` builds them from a CSV a chunk of
rows at a time, column by column, so memory beyond the columns stays bounded
by the chunk. Splitting gathers rows.

The pipeline order is fixed: impute on train statistics, encode categoricals,
standardize every encoded column with train statistics. `fit_pipeline` does all
three on the train table in one pass and returns a frozen `FittedPipeline` with
the standardized train matrix; `apply_pipeline` replays them on other rows.
`fit_preprocessor` and `impute` are the imputation step on its own. Nothing here
ever looks at test rows while fitting; the tests pin that down.
"""
from __future__ import annotations

import csv
import enum
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import encoders as enc_mod
from .encoders import Categorical


class SchemaError(ValueError):
    """Raised on a malformed table, CSV file or schema file."""


#: Cell spellings treated as missing on ingestion, for both column kinds.
MISSING_TOKENS = frozenset({"", "N.A", "N.A.", "NA", "N/A", "NaN", "nan", "NULL", "null", "?"})


class ColumnKind(enum.Enum):
    NUMERIC = "numeric"
    CATEGORICAL = "categorical"


@dataclass
class DataTable:
    """A column-major table: its columns, in table order, and its target's name.

    columns: name -> column. A `Categorical` column is categorical, code -1 for
        a missing cell. Any other column is numeric: construction converts it to
        a float64 array, NaN for a missing cell (None reads NaN), and refuses a
        column that does not convert. A column's kind is its type.
    target: name of the target column.
    """

    columns: dict[str, np.ndarray | Categorical]
    target: str

    def __post_init__(self) -> None:
        if self.target not in self.columns:
            raise SchemaError(f"target column {self.target!r} not in table")
        self.columns = {name: _as_column(name, col) for name, col in self.columns.items()}
        lengths = {len(col) for col in self.columns.values()}
        if len(lengths) > 1:
            raise SchemaError(f"ragged columns: lengths {sorted(lengths)}")

    @property
    def schema(self) -> tuple[tuple[str, ColumnKind], ...]:
        """(name, kind) pairs in table order, each kind read from its column's type."""
        return tuple(
            (name, ColumnKind.CATEGORICAL if isinstance(col, Categorical) else ColumnKind.NUMERIC)
            for name, col in self.columns.items()
        )

    @property
    def row_count(self) -> int:
        return len(self.columns[self.target])

    def column(self, name: str) -> np.ndarray | Categorical:
        return self.columns[name]

    def feature_names(self) -> list[str]:
        return [name for name in self.columns if name != self.target]

    def categorical_names(self) -> list[str]:
        return [name for name, col in self.columns.items() if isinstance(col, Categorical) and name != self.target]

    def target_values(self) -> np.ndarray:
        """The target as finite floats; a missing value, or a categorical level
        that is not a number, or a non-finite one (inf, nan), is a SchemaError."""
        col = self.columns[self.target]
        categorical = isinstance(col, Categorical)
        if (col.codes < 0 if categorical else np.isnan(col)).any():
            raise SchemaError(f"target column {self.target!r} has missing values")
        try:
            y = np.array(col.levels, dtype=float)[col.codes] if categorical else col.copy()
        except ValueError as exc:
            raise SchemaError(f"target column {self.target!r} must be numeric: {exc}") from None
        if not (finite := np.isfinite(y)).all():
            raise SchemaError(f"target column {self.target!r} has non-finite values, such as {y[~finite][0]}")
        return y

    def target_is_binary(self) -> bool:
        """True when every target value is 0 or 1; a single-class 0/1 target
        counts as binary."""
        y = self.target_values()
        return bool(((y == 0.0) | (y == 1.0)).all())  # np.isin would import numpy.ma

    def task(self) -> str:
        return "classification" if self.target_is_binary() else "regression"

    def subset(self, rows: Sequence[int]) -> "DataTable":
        rows = np.asarray(rows, dtype=np.intp)
        return DataTable({name: col[rows] for name, col in self.columns.items()}, self.target)

    def rows(self) -> Iterable[tuple]:
        """Cells row by row, in table order; a missing cell reads NaN or None."""
        return zip(*self.columns.values())


def _as_column(name: str, col) -> np.ndarray | Categorical:
    """A Categorical as it is, any other column as float64 or a SchemaError naming it."""
    if isinstance(col, Categorical):
        return col
    try:
        return np.asarray(col, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"column {name!r} is neither a Categorical nor numeric: {exc}") from None


def read_schema(path: str) -> tuple[dict[str, ColumnKind], str]:
    """Parse a sidecar schema file.

    Lines are ``column = numeric|categorical`` plus one ``target = <name>`` line;
    blank lines and ``#`` comments are skipped, and so is a leading UTF-8
    byte-order mark. A column or the target named twice is refused.
    """
    kinds: dict[str, ColumnKind] = {}
    target = None
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SchemaError(f"{path}:{lineno}: expected 'name = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in kinds or (key == "target" and target is not None):
                raise SchemaError(f"{path}:{lineno}: duplicate schema key: {key}")
            if key == "target":
                target = value
            else:
                try:
                    kinds[key] = ColumnKind(value)
                except ValueError:
                    raise SchemaError(
                        f"{path}:{lineno}: kind must be numeric or categorical, got {value!r}"
                    ) from None
    if target is None:
        raise SchemaError(f"{path}: no 'target =' line")
    if target not in kinds:
        raise SchemaError(f"{path}: target {target!r} has no declared kind")
    return kinds, target


#: rows converted per chunk by load_csv; a chunk's cells stay a few hundred KiB
_CHUNK_ROWS = 1024

#: missing tokens read as "nan" by the float conversion of a numeric chunk
_AS_NAN = dict.fromkeys(MISSING_TOKENS, "nan")


def _parse_numeric(cell: str) -> tuple[float, bool]:
    """Return (value, was_bad). Missing tokens and unparsable cells map to NaN;
    only the latter count as bad."""
    text = cell.strip()
    if text in MISSING_TOKENS:
        return np.nan, False
    try:
        value = float(text)
    except ValueError:
        return np.nan, True
    if not np.isfinite(value):
        return np.nan, True
    return value, False


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return np.nan


def _parse_numeric_cells(cells: list[str]) -> tuple[np.ndarray, int]:
    """Stripped cells to float64 with NaN for a missing cell, plus the number of
    bad cells, exactly as `_parse_numeric` reads them one at a time. A chunk
    with a cell numpy cannot convert is converted by `float` cell by cell, each
    failure a NaN that is counted bad with the non-finite cells."""
    text = list(map(_AS_NAN.get, cells, cells))
    try:
        values = np.array(text, dtype=float)
    except ValueError:
        values = np.fromiter(map(_float_or_nan, text), dtype=float, count=len(text))
    nonfinite = ~np.isfinite(values)
    values[nonfinite] = np.nan
    # every missing token reads NaN; the other non-finite cells are bad
    return values, int(np.count_nonzero(nonfinite)) - sum(map(MISSING_TOKENS.__contains__, cells))


def _level_codes(lookup: dict[str, int], cells: list[str]) -> np.ndarray:
    """Codes of stripped categorical cells. `lookup` maps each missing token to
    -1 and then each level seen so far to its code, in order of first
    appearance; a new level is added to it."""
    codes = list(map(lookup.get, cells))
    if None in codes:  # a new level: number the cells in order
        codes = [lookup.setdefault(c, len(lookup) - len(MISSING_TOKENS)) for c in cells]
    return np.array(codes, dtype=np.intp)


def _csv_rows(path: str, fh) -> Iterator[list[str]]:
    """The rows of an open CSV file; a csv.Error becomes a SchemaError naming
    the file and line."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise SchemaError(f"{path}:{reader.line_num}: {exc}") from None


def load_csv(path: str, schema: Mapping[str, ColumnKind], target: str) -> DataTable:
    """Load a header-ed CSV into a DataTable under a declared schema.

    Declared columns absent from the file or named more than once in its header
    raise SchemaError; file columns that are not declared are dropped, repeated
    or not. Unparsable or empty cells become missing cells.
    A declared numeric column whose unparsable cells outnumber half the rows is a
    schema error (the declaration is considered wrong, not the data). Blank rows
    are skipped and short rows read missing cells. A leading UTF-8 byte-order
    mark is dropped, and a malformed file (such as a field over
    `csv.field_size_limit()`) raises SchemaError naming the file and line.

    Rows are read `_CHUNK_ROWS` at a time and each chunk is converted column by
    column: a numeric column in one float conversion (cell by cell when a cell
    does not parse), a categorical column straight to level codes.
    """
    if target not in schema:
        raise SchemaError(f"target {target!r} missing from schema")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = _csv_rows(path, fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: no header row")
        header = [h.strip() for h in header]
        missing_cols = [name for name in schema if name not in header]
        if missing_cols:
            raise SchemaError(f"{path}: declared columns absent: {missing_cols}")
        repeated = [name for name in schema if header.count(name) > 1]
        if repeated:
            raise SchemaError(f"{path}: declared columns repeated in the header: {repeated}")
        col_pos = {name: header.index(name) for name in schema}
        chunks = {
            name: [np.empty(0, dtype=np.intp if kind is ColumnKind.CATEGORICAL else float)]
            for name, kind in schema.items()
        }
        lookups = {  # per categorical column, see _level_codes
            name: dict.fromkeys(MISSING_TOKENS, -1)
            for name, kind in schema.items()
            if kind is ColumnKind.CATEGORICAL
        }
        bad_counts = dict.fromkeys(schema, 0)
        n_rows = 0
        while chunk := list(itertools.islice(reader, _CHUNK_ROWS)):
            rows = list(filter(None, chunk))  # skip blank lines, which read as empty rows
            n_rows += len(rows)
            file_cols = list(itertools.zip_longest(*rows, fillvalue=""))
            blank = ("",) * len(rows)
            for name, pos in col_pos.items():
                cells = list(map(str.strip, file_cols[pos] if pos < len(file_cols) else blank))
                if name in lookups:
                    chunks[name].append(_level_codes(lookups[name], cells))
                else:
                    values, bad = _parse_numeric_cells(cells)
                    chunks[name].append(values)
                    bad_counts[name] += bad
    for name, kind in schema.items():
        if kind is ColumnKind.NUMERIC and n_rows and bad_counts[name] * 2 > n_rows:
            raise SchemaError(
                f"{path}: column {name!r} declared numeric but "
                f"{bad_counts[name]}/{n_rows} cells do not parse"
            )
    columns: dict[str, np.ndarray | Categorical] = {}
    for name in schema:
        data = np.concatenate(chunks.pop(name))  # pop: free each column's chunks as it is joined
        columns[name] = Categorical(tuple(lookups[name])[len(MISSING_TOKENS):], data) if name in lookups else data
    return DataTable(columns, target)


def infer_schema(path: str, target: str) -> dict[str, ColumnKind]:
    """Guess column kinds from a CSV: numeric when every non-missing cell parses
    as a finite float, categorical otherwise. Convenience for schema-less input."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header = [h.strip() for h in next(_csv_rows(path, fh), [])]
    if target not in header:
        raise SchemaError(f"target {target!r} not among CSV columns {header}")
    table = load_csv(path, dict.fromkeys(header, ColumnKind.CATEGORICAL), target)
    return {
        name: ColumnKind.NUMERIC
        if col.levels and not any(_parse_numeric(v)[1] for v in col.levels)
        else ColumnKind.CATEGORICAL
        for name, col in table.columns.items()
    }


@dataclass
class SplitPair:
    train: DataTable
    test: DataTable


def split_train_test(table: DataTable, ratio: float, seed: int) -> SplitPair:
    """Seeded uniform shuffle, then a prefix cut of round(ratio * n) train rows.

    The cut is clamped so both sides stay nonempty; no stratification.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    n = table.row_count
    if n < 2:
        raise ValueError("need at least 2 rows to split")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(round(ratio * n))
    n_train = min(max(n_train, 1), n - 1)
    return SplitPair(
        train=table.subset(perm[:n_train]),
        test=table.subset(perm[n_train:]),
    )


@dataclass(frozen=True, eq=False)  # array fields: compare by identity
class FittedPipeline:
    """Everything fitted on a train table: imputation fills, one encoder per
    categorical feature, and the per-column mean and population std of the
    imputed, encoded train matrix (float64 arrays aligned with its columns).
    The matrix has one block per feature in table order: a categorical
    feature's is `encoders[name].output_dim` wide, a numeric one's 1.
    """

    schema: tuple[tuple[str, ColumnKind], ...]
    target: str
    fills: dict[str, float | str]
    encoders: dict[str, enc_mod.FittedEncoder]
    mean: np.ndarray
    std: np.ndarray


def fit_preprocessor(train: DataTable) -> dict[str, float | str]:
    """Imputation fills learned from train rows only: numeric mean, categorical
    mode with first-appearance tie-break."""
    fills: dict[str, float | str] = {}
    for name in train.feature_names():
        col = train.column(name)
        numeric = not isinstance(col, Categorical)
        present = col[~np.isnan(col)] if numeric else col.codes[col.codes >= 0]
        if not present.size:
            raise SchemaError(f"column {name!r} is entirely missing; cannot impute")
        if numeric:
            fills[name] = float(np.mean(present))
        else:
            # levels are in first-appearance order, and argmax keeps the first tie
            fills[name] = col.levels[int(np.argmax(np.bincount(present)))]
    return fills


def impute(fills: Mapping[str, float | str], table: DataTable) -> DataTable:
    """Fill missing feature cells with train-time values. A categorical fill
    absent from the table's levels becomes a new level."""
    cols = dict(table.columns)
    for name, fill in fills.items():
        col = cols[name]
        if isinstance(col, Categorical):
            levels = col.levels if fill in col.levels else col.levels + (fill,)
            cols[name] = Categorical(levels, np.where(col.codes < 0, levels.index(fill), col.codes))
        else:
            cols[name] = np.where(np.isnan(col), fill, col)
    return DataTable(cols, table.target)


def fit_pipeline(train: DataTable, spec: enc_mod.EncoderSpec) -> tuple[FittedPipeline, np.ndarray]:
    """Fit the pipeline on train rows in one pass: fills, imputation, `spec`'s
    encoder on every categorical feature, standardization statistics.

    Returns the pipeline and the standardized train matrix, which equals
    `apply_pipeline(pipeline, train)` bit for bit.
    """
    fills = fit_preprocessor(train)
    filled = impute(fills, train)
    target = filled.target_values() if spec.variant in enc_mod.TARGET_VARIANTS else None
    encoders = {
        name: enc_mod.fit(spec, filled.column(name), target)
        for name in train.categorical_names()
    }
    matrix = _encode_features(encoders, filled)
    pipeline = FittedPipeline(
        schema=train.schema,
        target=train.target,
        fills=fills,
        encoders=encoders,
        mean=matrix.mean(axis=0),
        std=matrix.std(axis=0),  # population std
    )
    return pipeline, _standardize(pipeline, matrix)


def _encode_features(encoders: Mapping[str, enc_mod.FittedEncoder], table: DataTable) -> np.ndarray:
    blocks = [np.empty((table.row_count, 0))]
    for name in table.feature_names():
        col = table.column(name)
        blocks.append(enc_mod.transform(encoders[name], col) if isinstance(col, Categorical) else col.reshape(-1, 1))
    return np.hstack(blocks)


def _standardize(pipeline: FittedPipeline, matrix: np.ndarray) -> np.ndarray:
    """Train-statistics standardization of a freshly encoded matrix, in place
    (no second n x width copy); a zero-spread column reads 0."""
    std = pipeline.std
    matrix -= pipeline.mean
    np.divide(matrix, std, out=matrix, where=std != 0.0)
    matrix[:, std == 0.0] = 0.0
    return matrix


def apply_pipeline(pipeline: FittedPipeline, table: DataTable) -> np.ndarray:
    """Impute, encode and standardize a table (typically the test rows) into a
    float matrix with the train-time fills, encoders and statistics. The table's
    schema must match the fit-time schema."""
    if table.schema != pipeline.schema or table.target != pipeline.target:
        raise SchemaError("table schema does not match the fitted pipeline")
    matrix = _encode_features(pipeline.encoders, impute(pipeline.fills, table))
    return _standardize(pipeline, matrix)
