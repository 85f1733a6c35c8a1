"""Tabular ingestion, normalization, synthetic cohorts and split masks.

Clinical features and image embeddings both arrive as CSV with an id column
followed by numeric columns. Features may contain missing cells (imputed with
the column mean); embeddings are machine-generated and must be complete.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError

# split mask codes, stored as int8
TRAIN = 0
VAL = 1
TEST = 2
UNLABELED = 3

_MISSING_TOKENS = {"", "na", "nan", "null", "none", "n/a", "missing"}

# reserved in partition export files, see clustering.save_partition
_RESERVED_COLUMN_NAMES = {"source"}


@dataclass
class FeatureTable:
    """Numeric clinical features, rows = patients, columns = variables."""

    values: np.ndarray
    column_names: list[str]
    column_kinds: list[str]  # "numeric" or "ordinal", purely informational
    row_ids: list[str]
    imputed_cells: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DataError("feature values must be a 2-d array")
        n, f = self.values.shape
        if len(self.row_ids) != n:
            raise DataError("row id count does not match value rows")
        if len(self.column_names) != f or len(self.column_kinds) != f:
            raise DataError("column metadata does not match value columns")
        if len(set(self.row_ids)) != n:
            raise DataError("duplicate row ids in feature table")
        if not np.all(np.isfinite(self.values)):
            raise DataError("non-finite values in feature table after ingestion")
        for name in self.column_names:
            if name in _RESERVED_COLUMN_NAMES:
                raise DataError("column name %r is reserved" % name)
        if len(set(self.column_names)) != f:
            raise DataError("duplicate column names in feature table")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    def column_index(self, name: str) -> int:
        try:
            return self.column_names.index(name)
        except ValueError:
            raise DataError("unknown column %r" % name) from None

    def select_columns(self, idx) -> "FeatureTable":
        idx = np.asarray(idx, dtype=int)
        return FeatureTable(
            values=self.values[:, idx].copy(),
            column_names=[self.column_names[i] for i in idx],
            column_kinds=[self.column_kinds[i] for i in idx],
            row_ids=list(self.row_ids),
        )


@dataclass
class EmbeddingTable:
    """Precomputed per-patient image embeddings. May have zero columns."""

    values: np.ndarray
    row_ids: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DataError("embedding values must be a 2-d array")
        if len(self.row_ids) != self.values.shape[0]:
            raise DataError("row id count does not match embedding rows")
        if len(set(self.row_ids)) != len(self.row_ids):
            raise DataError("duplicate row ids in embedding table")
        if not np.all(np.isfinite(self.values)):
            raise DataError("non-finite values in embedding table")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


def is_number(value) -> bool:
    """Whether a value read from JSON is a finite number (int or float, not
    bool). Python's JSON reader takes Infinity and NaN, so this refuses them."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and -math.inf < value < math.inf)


def write_json(path, obj) -> None:
    """Write obj as JSON with indent 2, sorted keys and a final newline: the
    one layout of every JSON file medplex writes. A NaN or infinity, which
    JSON cannot hold, raises ValueError before the file is opened, so no
    part of it is written."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


@contextlib.contextmanager
def reading(path):
    """The one place that names an input file in an error: a DataError
    raised inside that names no file yet gets "<path>: " in front, once, so
    the innermost reading names the file."""
    try:
        yield
    except DataError as exc:
        if exc.path is None:
            exc.path = path
            exc.args = ("%s: %s" % (path, exc),)
        raise


@contextlib.contextmanager
def open_input(path, mode: str = "r", **kwargs):
    """open(path, mode) for reading an input file, its body run inside
    reading(path). A missing file, one that cannot be read (a directory, say)
    and, in text mode, one that is not UTF-8 are each a one-line DataError
    naming the file."""
    with reading(path):
        try:
            fh = open(path, mode, **kwargs)
        except FileNotFoundError:
            raise DataError("missing file: %s" % path, path) from None
        except OSError as exc:
            raise DataError("cannot read (%s)" % (exc.strerror or exc)) from None
        with fh:
            try:
                yield fh
            except UnicodeDecodeError as exc:
                raise DataError("not UTF-8 text (%s)" % exc) from None


def read_json(path):
    """The JSON value in a file. A missing file, one that cannot be read (a
    directory, say) and one that is not UTF-8 JSON are each a DataError."""
    with open_input(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DataError("not valid JSON (%s)" % exc) from None


def config_from_json(cls, d):
    """An instance of the config dataclass cls from its JSON object.

    Each key must be a field. A tuple field takes a list of numbers, a float
    field any number and an int field only ints, each finite; a field
    defaulting to None is left to the class's own checks.
    """
    if not isinstance(d, dict):
        raise DataError("a config must be a JSON object")
    fields = cls.__dataclass_fields__
    bad = set(d) - set(fields)
    if bad:
        raise DataError("unknown config keys: %s" % sorted(bad))
    for key, value in d.items():
        default = fields[key].default
        if default is None:
            continue
        if isinstance(default, tuple):
            ok = isinstance(value, (list, tuple)) and all(map(is_number, value))
        else:
            ok = is_number(value) and (isinstance(default, float) or isinstance(value, int))
        if not ok:
            raise DataError("%s has the wrong type: %r" % (key, value))
    return cls(**d)


def empty_embeddings(row_ids) -> EmbeddingTable:
    """Zero-width embedding table for cohorts without imaging."""
    return EmbeddingTable(np.zeros((len(row_ids), 0)), list(row_ids))


@dataclass
class LabelVector:
    """Class labels plus a train/val/test/unlabeled mask over the same rows."""

    labels: np.ndarray
    mask: np.ndarray
    n_classes: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.mask = np.array(self.mask, dtype=np.int8)
        self.mask.flags.writeable = False
        self._rows = {}
        if self.labels.ndim != 1 or self.mask.shape != self.labels.shape:
            raise DataError("labels and mask must be matching 1-d arrays")
        if not np.all((self.mask >= TRAIN) & (self.mask <= UNLABELED)):
            raise DataError("mask contains unknown codes")
        labeled = self.labels[self.mask != UNLABELED]
        if labeled.size:
            if labeled.min() < 0 or labeled.max() >= self.n_classes:
                raise DataError("label outside [0, n_classes) on a labeled row")
            present = np.unique(labeled)
            if present.size != self.n_classes:
                missing = sorted(set(range(self.n_classes)) - set(present.tolist()))
                raise DataError("classes %s have no labeled rows" % missing)

    @property
    def n_rows(self) -> int:
        return self.labels.shape[0]

    def rows_with(self, code: int) -> np.ndarray:
        """Rows whose mask is code, read-only, computed once per code: the
        mask is read-only too."""
        rows = self._rows.get(code)
        if rows is None:
            rows = self._rows[code] = np.flatnonzero(self.mask == code)
            rows.flags.writeable = False
        return rows

    def with_mask(self, mask) -> "LabelVector":
        return LabelVector(self.labels.copy(), np.asarray(mask, dtype=np.int8), self.n_classes)


@dataclass
class Normalizer:
    """Per-column z-score transform fitted on training data, reusable on new rows.

    n_rows counts the rows the mean was taken over; it sets how close to the
    mean a cell must be to count as the mean (transform). A transform stored
    without it reads 0 and snaps nothing.
    """

    mean: np.ndarray
    std: np.ndarray
    column_names: list[str]
    n_rows: int = 0

    @classmethod
    def fit(cls, values: np.ndarray, column_names: list[str]) -> "Normalizer":
        """Population mean and std of each column of values. A column whose
        mean or std overflows (cells near the float64 limit) is refused."""
        with np.errstate(over="ignore", invalid="ignore"):
            mean, std = values.mean(axis=0), values.std(axis=0)
        finite = np.isfinite(mean) & np.isfinite(std)
        if not finite.all():
            raise DataError("column %s: mean or std is not finite (cells too large)"
                            % column_names[int(np.argmin(finite))])
        return cls(mean, std, list(column_names), values.shape[0])

    def transform(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != self.mean.shape[0]:
            raise DataError(
                "cannot normalize %d columns with a transform fitted on %d"
                % (values.shape[-1], self.mean.shape[0])
            )
        out = values - self.mean
        # A mean over n rows is off by at most about n rounding steps of the
        # column's magnitude (its RMS); n * eps * RMS, twice that, also covers
        # a cell that is itself a computed mean. A cell that close to the mean
        # is the mean: it becomes exactly 0, not a residue of rounding that
        # unit-length scaling would blow up into a direction.
        snap = self.n_rows * np.finfo(np.float64).eps * np.hypot(self.mean, self.std)
        out[np.abs(out) <= snap] = 0.0
        # constant columns map to zero instead of dividing by zero
        nz = self.std > 0
        out[:, nz] /= self.std[nz]
        out[:, ~nz] = 0.0
        return out

    def to_dict(self) -> dict:
        return {
            "mean": [float(v) for v in self.mean],
            "std": [float(v) for v in self.std],
            "column_names": list(self.column_names),
            "n_rows": self.n_rows,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Normalizer":
        """Read back to_dict's output."""
        mean, std, names = (d.get(k) if isinstance(d, dict) else None
                            for k in ("mean", "std", "column_names"))
        if not (isinstance(mean, list) and isinstance(std, list) and isinstance(names, list)
                and len(mean) == len(std) == len(names)
                and all(map(is_number, mean + std + [d.get("n_rows", 0)]))):
            raise DataError("a transform needs lists mean, std and column_names, with one "
                            "number per column, and a number n_rows")
        return cls(
            mean=np.asarray(mean, dtype=np.float64),
            std=np.asarray(std, dtype=np.float64),
            column_names=list(names),
            n_rows=int(d.get("n_rows", 0)),
        )


@dataclass
class NodeAttributes:
    """Concatenated node matrix X = [embeddings | features], both normalized."""

    x: np.ndarray
    n_embed_cols: int
    row_ids: list[str]

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.x.ndim != 2:
            raise DataError("attribute matrix must be 2-d")
        if not 0 <= self.n_embed_cols <= self.x.shape[1]:
            raise DataError("embedding width exceeds attribute width")
        if len(self.row_ids) != self.x.shape[0]:
            raise DataError("row id count does not match attribute rows")
        if not np.all(np.isfinite(self.x)):
            raise DataError("non-finite values in attribute matrix")


def _parse_cell(text: str, row_num: int, col_name: str) -> float:
    token = text.strip()
    if token.lower() in _MISSING_TOKENS:
        return np.nan
    try:
        return float(token)
    except ValueError:
        raise DataError(
            "unparseable value %r at row %d, column %s" % (token, row_num, col_name)
        ) from None


def _parse_rows(rows):
    """(values, column names, row ids) of a CSV given as csv.reader's rows,
    converted row by row: the per-row rule. Each row's cells go through
    float() in one map call, and a row where that fails through _parse_cell,
    which reads the missing tokens and makes every parse error. Blank rows
    are skipped."""
    header = next(rows, None)
    if header is None:
        raise DataError("empty file")
    if len(header) < 1:
        raise DataError("header has no columns")
    col_names = [h.strip() for h in header[1:]]
    row_ids, values = [], []
    for row_num, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(
                "row %d has %d cells, expected %d" % (row_num, len(row), len(header))
            )
        row_ids.append(row[0].strip())
        try:
            # float() strips and parses each cell as _parse_cell does
            values.append(tuple(map(float, row[1:])))
        except ValueError:  # a missing token or a bad cell: the per-cell rule decides
            values.append([_parse_cell(cell, row_num, col_names[j])
                           for j, cell in enumerate(row[1:])])
    if not values:
        raise DataError("no data rows")
    return np.asarray(values, dtype=np.float64), col_names, row_ids


def _parse_block(text):
    """_parse_rows's result for a CSV text, its numbers parsed by one
    np.loadtxt call, or None where the per-row rule must decide.

    The text's lines end in LF or CRLF; blank lines are skipped. loadtxt
    reads every token float() reads to the same bits, except that it refuses
    some (underscores, non-ASCII digits, the missing tokens), so None is
    returned for a text with a quote or a lone CR, without a value column or
    data row, or one that loadtxt refuses or reads to another shape.
    """
    if '"' in text or text.count("\r") != text.count("\r\n"):
        return None
    lines = text.split("\n")
    header = lines[0].rstrip("\r").split(",")
    body = [line for line in lines[1:] if line and line != "\r"]
    k = len(header) - 1
    # with loadtxt finding column k on every line, k commas on each
    if k < 1 or not body or text.count(",") != k * (len(body) + 1):
        return None
    try:
        values = np.loadtxt(body, delimiter=",", comments=None, ndmin=2, usecols=range(1, k + 1))
    except ValueError:
        return None
    if values.shape != (len(body), k):
        return None
    return (values, [h.strip() for h in header[1:]],
            [line[:line.index(",")].strip() for line in body])


def _read_numeric_csv(path):
    """(values, column names, row ids) of a numeric CSV with an id column
    first: _parse_block's, else the per-row rule's."""
    with open_input(path, newline="") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:  # the per-row rule fails where it did, at the same byte
            fh.seek(0)
            text = None
        parsed = _parse_block(text) if text else None
        if parsed is None:
            parsed = _parse_rows(csv.reader(fh if text is None else io.StringIO(text, newline="")))
        values, col_names, row_ids = parsed
        seen = set()
        for rid in row_ids:
            if rid in seen:
                raise DataError("duplicate row id %r" % rid)
            seen.add(rid)
    return values, col_names, row_ids


def load_feature_csv(path, fill: dict | None = None) -> FeatureTable:
    """Read a clinical feature CSV (id column first), imputing missing cells.

    Missing cells (empty, na, nan, null, none) take the value fill gives
    their column ({column name: value}; `medplex infer` passes the training
    means), else their column's mean; a column with no observed values and no
    fill is an error. Columns whose observed values are all integral are
    tagged ordinal, the rest numeric. Both kinds are treated as continuous
    downstream.
    """
    fill = fill or {}
    with reading(path):
        values, col_names, row_ids = _read_numeric_csv(path)
        if values.shape[1] == 0:
            raise DataError("no feature columns")
        imputed = 0
        kinds = []
        for j, name in enumerate(col_names):
            col = values[:, j]
            missing = np.isnan(col)
            observed = col[~missing]
            if observed.size == 0 and name not in fill:
                raise DataError("column %s has no observed values" % name)
            if missing.any():
                col[missing] = fill[name] if name in fill else observed.mean()
                imputed += int(missing.sum())
            kinds.append("ordinal" if np.all(observed == np.round(observed)) else "numeric")
        return FeatureTable(values, col_names, kinds, row_ids, imputed_cells=imputed)


def load_embedding_csv(path) -> EmbeddingTable:
    """Read an image-embedding CSV. Missing cells are an error here."""
    with reading(path):
        values, _, row_ids = _read_numeric_csv(path)
        if np.isnan(values).any():
            r, c = np.argwhere(np.isnan(values))[0]
            raise DataError("missing embedding value at row %d, column %d" % (r + 1, c + 1))
        return EmbeddingTable(values, row_ids)


def load_label_csv(path) -> tuple[LabelVector, list[str]]:
    """Read an id,label CSV into (labels, row ids); one class per label up to
    the largest. All rows start as TRAIN; split_masks reassigns."""
    with open_input(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError("empty file")
        row_ids, labels = [], []
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise DataError("row %d needs exactly id,label" % row_num)
            row_ids.append(row[0].strip())
            try:
                labels.append(int(row[1]))
            except ValueError:
                raise DataError("unparseable label %r at row %d" % (row[1], row_num)) from None
        if not labels:
            raise DataError("no label rows")
        labels = np.asarray(labels, dtype=np.int64)
        if labels.min() < 0:
            raise DataError("negative class label")
        lv = LabelVector(labels, np.full(labels.shape, TRAIN, dtype=np.int8),
                         int(labels.max()) + 1)
    return lv, row_ids


def _normalized(normalizer: Normalizer, values: np.ndarray, row_ids) -> np.ndarray:
    """normalizer.transform(values), unless a row's sum of squares overflows,
    so that no unit-length scaling of the row is finite (Normalizer.fit
    refuses such cells in the column it fits; a stored transform meets them
    in new rows)."""
    with np.errstate(over="ignore"):
        out = normalizer.transform(values)
        finite = np.isfinite(np.einsum("ij,ij->i", out, out))
    if not finite.all():
        raise DataError("row %s: sum of squares is not finite after normalization (cells too "
                        "large)" % row_ids[int(np.argmin(finite))])
    return out


def normalize_columns(table: FeatureTable, normalizer: Normalizer | None = None):
    """Z-score each column; returns (normalized table, fitted transform).

    With a normalizer given, applies the stored transform instead of fitting
    (the inductive path). Population std; constant columns become zeros.
    """
    if normalizer is None:
        normalizer = Normalizer.fit(table.values, table.column_names)
    else:
        if normalizer.column_names != table.column_names:
            raise DataError("normalizer was fitted on different columns")
    out = FeatureTable(
        values=_normalized(normalizer, table.values, table.row_ids),
        column_names=list(table.column_names),
        column_kinds=list(table.column_kinds),
        row_ids=list(table.row_ids),
        imputed_cells=table.imputed_cells,
    )
    return out, normalizer


def normalize_embeddings(table: EmbeddingTable, normalizer: Normalizer | None = None):
    """Z-score embedding columns with the same rules as feature columns."""
    values = table.values
    if normalizer is None:
        normalizer = Normalizer.fit(values, ["e%d" % j for j in range(values.shape[1])])
    if values.shape[1] != normalizer.mean.shape[0]:
        raise DataError("embedding width does not match stored transform")
    return EmbeddingTable(_normalized(normalizer, values, table.row_ids),
                          list(table.row_ids)), normalizer


def prepare_tables(table: FeatureTable, embeddings: EmbeddingTable,
                   feat_norm: Normalizer | None = None, emb_norm: Normalizer | None = None):
    """Normalize a cohort; returns normalized tables + transforms.

    Without feat_norm, fits both transforms on the cohort. With it, applies the
    stored transforms (the inductive path), and embeddings need a stored one too.
    """
    if embeddings.n_cols > 0 and emb_norm is None and feat_norm is not None:
        raise DataError("embeddings given, but no stored embedding transform")
    c_norm, feat_norm = normalize_columns(table, feat_norm)
    if embeddings.n_cols == 0:
        return c_norm, embeddings, feat_norm, emb_norm
    z_norm, emb_norm = normalize_embeddings(embeddings, emb_norm)
    return c_norm, z_norm, feat_norm, emb_norm


def concat_attributes(embeddings: EmbeddingTable, features: FeatureTable) -> NodeAttributes:
    """X = [Z | C]. Row ids must agree elementwise, same order."""
    if embeddings.n_rows != features.n_rows:
        raise DataError(
            "embedding rows (%d) and feature rows (%d) differ"
            % (embeddings.n_rows, features.n_rows)
        )
    for i, (a, b) in enumerate(zip(embeddings.row_ids, features.row_ids)):
        if a != b:
            raise DataError("row id mismatch at index %d: %r vs %r" % (i, a, b))
    x = np.hstack([embeddings.values, features.values])
    return NodeAttributes(x, embeddings.n_cols, list(features.row_ids))


def split_masks(labels: np.ndarray, fractions=(0.6, 0.1, 0.3), seed: int = 0) -> np.ndarray:
    """Stratified train/val/test mask via per-class largest-remainder rounding.

    Within each class the requested fractions are honored to within one row;
    remainders go to the split with the largest fractional part (ties to the
    earlier split). Any class with fewer than 3 members is an error.
    """
    labels = np.asarray(labels, dtype=np.int64)
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != 3:
        raise DataError("fractions must be (train, val, test)")
    if any(f < 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise DataError("fractions must be non-negative and sum to 1")
    rng = np.random.default_rng(seed)
    mask = np.full(labels.shape, UNLABELED, dtype=np.int8)
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        m = idx.size
        if m < 3:
            raise DataError("class %d has only %d members, need at least 3" % (cls, m))
        ideal = [m * f for f in fractions]
        counts = [int(np.floor(v)) for v in ideal]
        rem = m - sum(counts)
        order = sorted(range(3), key=lambda s: (-(ideal[s] - counts[s]), s))
        for s in order[:rem]:
            counts[s] += 1
        perm = rng.permutation(idx)
        a, b = counts[0], counts[0] + counts[1]
        mask[perm[:a]] = TRAIN
        mask[perm[a:b]] = VAL
        mask[perm[b:]] = TEST
    return mask


@dataclass
class SynthConfig:
    """Knobs for the synthetic multi-modal cohort generator.

    Each feature type draws one centroid per class group (class_groups merges
    classes that should be indistinguishable under that type; default is one
    group per class). separations scale the centroids, noise_std the i.i.d.
    gaussian around them. Embeddings get their own separation/noise pair.
    """

    n: int = 300
    n_classes: int = 3
    n_types: int = 2
    cols_per_type: int = 5
    separations: tuple = (2.0, 2.0)
    noise_std: float = 1.0
    embed_dim: int = 8
    embed_separation: float = 0.0
    embed_noise_std: float = 1.0
    class_groups: list | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n < 2 * self.n_classes:
            raise DataError("need at least two rows per class")
        if self.n_classes < 2:
            raise DataError("need at least two classes")
        if self.n_types < 1 or self.cols_per_type < 1:
            raise DataError("need at least one type with at least one column")
        self.separations = tuple(float(s) for s in self.separations)
        if len(self.separations) != self.n_types:
            raise DataError("separations must list one value per type")
        if any(s < 0 for s in self.separations) or self.noise_std < 0:
            raise DataError("separations and noise must be non-negative")
        if self.embed_dim < 0 or self.embed_separation < 0 or self.embed_noise_std < 0:
            raise DataError("embedding knobs must be non-negative")
        if self.class_groups is not None:
            if not isinstance(self.class_groups, list) or len(self.class_groups) != self.n_types:
                raise DataError("class_groups must list one partition per type")
            for t, groups in enumerate(self.class_groups):
                if not (isinstance(groups, list) and all(
                        isinstance(g, list) and all(type(c) is int for c in g) for g in groups)):
                    raise DataError("class_groups[%d] must be a list of lists of class indices" % t)
                seen = sorted(c for g in groups for c in g)
                if seen != list(range(self.n_classes)):
                    raise DataError("class_groups[%d] is not a partition of the classes" % t)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SynthConfig":
        """A config from its JSON object."""
        return config_from_json(cls, d)


def generate_synthetic_cohort(cfg: SynthConfig):
    """Build (features, embeddings, labels, truth) for a synthetic cohort.

    truth maps column name -> type index, the ground-truth partition the
    clustering step is supposed to rediscover. Labels come back all-TRAIN;
    apply split_masks afterwards. Deterministic in cfg.seed.
    """
    rng = np.random.default_rng(cfg.seed)
    c = cfg.n_classes
    # near-equal class counts, remainder to the lowest class indices
    base = cfg.n // c
    counts = np.full(c, base, dtype=int)
    counts[: cfg.n % c] += 1
    labels = np.repeat(np.arange(c), counts)
    rng.shuffle(labels)

    blocks, names, truth = [], [], {}
    for t in range(cfg.n_types):
        if cfg.class_groups is not None:
            groups = cfg.class_groups[t]
        else:
            groups = [[k] for k in range(c)]
        group_of = np.empty(c, dtype=int)
        for gi, g in enumerate(groups):
            for k in g:
                group_of[k] = gi
        centroids = rng.normal(size=(len(groups), cfg.cols_per_type)) * cfg.separations[t]
        noise = rng.normal(size=(cfg.n, cfg.cols_per_type)) * cfg.noise_std
        blocks.append(centroids[group_of[labels]] + noise)
        for j in range(cfg.cols_per_type):
            name = "t%dc%d" % (t, j)
            names.append(name)
            truth[name] = t

    row_ids = ["p%04d" % i for i in range(cfg.n)]
    table = FeatureTable(
        values=np.hstack(blocks),
        column_names=names,
        column_kinds=["numeric"] * len(names),
        row_ids=row_ids,
    )
    if cfg.embed_dim > 0:
        e_cent = rng.normal(size=(c, cfg.embed_dim)) * cfg.embed_separation
        e_noise = rng.normal(size=(cfg.n, cfg.embed_dim)) * cfg.embed_noise_std
        embeddings = EmbeddingTable(e_cent[labels] + e_noise, row_ids)
    else:
        embeddings = empty_embeddings(row_ids)
    lv = LabelVector(labels, np.full(cfg.n, TRAIN, dtype=np.int8), c)
    return table, embeddings, lv, truth


def _csv_fields(texts, newline: str, alone: bool = False) -> list:
    """texts (each str()) as csv.writer's default dialect writes fields, with
    newline as its line terminator: a text that holds a comma, a quote or a
    character of newline is quoted, its quotes doubled; so is an empty text
    alone in its row."""
    texts = [str(t) for t in texts]
    special = ',"' + newline
    joined = "".join(texts)
    if not any(c in joined for c in special) and not (alone and "" in texts):
        return texts
    return ['"%s"' % t.replace('"', '""') if any(c in t for c in special) or (alone and not t)
            else t for t in texts]


def write_numeric_csv(path, header, values, row_ids=None, classes=None,
                      newline: str = "\r\n") -> None:
    """Write header, then one line per row of values: its row id and its
    integer class where given, then its cells as "%.17g", all in one %
    format per row. Header names and ids are quoted as csv.writer quotes
    them (_csv_fields), so the bytes are csv.writer's."""
    values = np.asarray(values, dtype=np.float64)
    k = values.shape[1]
    columns, formats = [], []
    if row_ids is not None:
        columns.append(_csv_fields(row_ids, newline, alone=k == 0 and classes is None))
        formats.append("%s")
    if classes is not None:
        columns.append(np.asarray(classes).tolist())
        formats.append("%d")
    fmt = ",".join(formats + ["%.17g"] * k) + newline
    columns += values.T.tolist()
    text = ",".join(_csv_fields(header, newline, alone=len(header) == 1)) + newline
    text += "".join([fmt % row for row in zip(*columns)])
    with open(path, "w", newline="") as fh:
        fh.write(text)


def write_feature_csv(path, table: FeatureTable) -> None:
    write_numeric_csv(path, ["id"] + list(table.column_names), table.values, table.row_ids)


def write_embedding_csv(path, table: EmbeddingTable) -> None:
    write_numeric_csv(path, ["id"] + ["e%d" % j for j in range(table.n_cols)], table.values,
                      table.row_ids)


def write_label_csv(path, labels: LabelVector, row_ids) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "label"])
        for rid, lab in zip(row_ids, labels.labels):
            w.writerow([rid, int(lab)])


def write_truth_json(path, truth: dict) -> None:
    write_json(path, truth)
