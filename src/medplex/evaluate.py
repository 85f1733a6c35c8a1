"""Classification metrics, attention reporting, and hyperparameter sweeps.

Macro-F1 here is the harmonic mean of macro-averaged precision and recall
(not the mean of per-class F1 scores, which is a different number). Micro-F1
pools counts over classes and collapses to plain accuracy for single-label
predictions; the code keeps that equality exact.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import DataError
from . import data as D
from .model import attention_weights


@dataclass
class ConfusionCounts:
    """Square confusion matrix, rows = truth, columns = prediction."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.int64)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise DataError("confusion matrix must be square")
        if (self.matrix < 0).any():
            raise DataError("negative confusion counts")

    @property
    def n_classes(self) -> int:
        return self.matrix.shape[0]

    @property
    def total(self) -> int:
        return int(self.matrix.sum())

    def tp(self) -> np.ndarray:
        return np.diag(self.matrix)

    def fp(self) -> np.ndarray:
        return self.matrix.sum(axis=0) - self.tp()

    def fn(self) -> np.ndarray:
        return self.matrix.sum(axis=1) - self.tp()


def confusion_counts(pred, truth, n_classes: int) -> ConfusionCounts:
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise DataError("pred and truth must be matching 1-d arrays")
    if pred.size == 0:
        raise DataError("no predictions to score")
    for name, arr in (("pred", pred), ("truth", truth)):
        if arr.min() < 0 or arr.max() >= n_classes:
            raise DataError("%s holds labels outside [0, %d)" % (name, n_classes))
    flat = truth * n_classes + pred
    matrix = np.bincount(flat, minlength=n_classes * n_classes).reshape(n_classes, n_classes)
    return ConfusionCounts(matrix)


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def macro_f1(cc: ConfusionCounts) -> float:
    """Harmonic mean of macro-averaged precision and macro-averaged recall."""
    tp = cc.tp().astype(np.float64)
    fp = cc.fp().astype(np.float64)
    fn = cc.fn().astype(np.float64)
    precision = np.array([_safe_div(t, t + f) for t, f in zip(tp, fp)])
    recall = np.array([_safe_div(t, t + f) for t, f in zip(tp, fn)])
    p = float(precision.mean())
    r = float(recall.mean())
    return _safe_div(2.0 * p * r, p + r)


def micro_f1(cc: ConfusionCounts) -> float:
    """F1 over pooled counts. In a square confusion matrix pooled FP and pooled
    FN both equal n - TP, so pooled precision and recall are both TP / n and
    their F1 is exactly accuracy."""
    return accuracy(cc)


def accuracy(cc: ConfusionCounts) -> float:
    return _safe_div(float(cc.tp().sum()), float(cc.total))


@dataclass
class MetricsReport:
    accuracy: float
    micro_f1: float
    macro_f1: float
    n: int
    per_class: list
    confusion: list

    def to_json_dict(self) -> dict:
        return asdict(self)


def metrics_report(pred, truth, n_classes: int) -> MetricsReport:
    cc = confusion_counts(pred, truth, n_classes)
    tp = cc.tp().astype(np.float64)
    fp = cc.fp().astype(np.float64)
    fn = cc.fn().astype(np.float64)
    per_class = []
    for k in range(n_classes):
        p = _safe_div(tp[k], tp[k] + fp[k])
        r = _safe_div(tp[k], tp[k] + fn[k])
        per_class.append(
            {
                "class": k,
                "support": int(tp[k] + fn[k]),
                "precision": p,
                "recall": r,
                "f1": _safe_div(2.0 * p * r, p + r),
            }
        )
    return MetricsReport(
        accuracy=accuracy(cc),
        micro_f1=micro_f1(cc),
        macro_f1=macro_f1(cc),
        n=cc.total,
        per_class=per_class,
        confusion=cc.matrix.tolist(),
    )


def attention_report(state_or_weights, partition=None) -> dict:
    """Relation importances plus which columns each relation covers.

    Takes either a trained model state (softmax of its attention logits) or a
    ready weight vector. Ranking is by weight, highest first, index order on
    ties.
    """
    if hasattr(state_or_weights, "params"):
        w = attention_weights(state_or_weights.params["att_logits"])
    else:
        w = np.asarray(state_or_weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise DataError("attention weights must be a non-empty vector")
    if abs(float(w.sum()) - 1.0) > 1e-6 or (w < 0).any():
        raise DataError("attention weights must be a probability vector")
    order = sorted(range(w.size), key=lambda r: (-w[r], r))
    relations = []
    for r in range(w.size):
        entry = {"relation": r, "weight": float(w[r])}
        if partition is not None:
            cols = partition.columns_of(r) if r < partition.n_types else np.array([], dtype=int)
            entry["columns"] = [partition.column_names[j] for j in cols]
        relations.append(entry)
    return {
        "weights": [float(v) for v in w],
        "ranking": order,
        "uniform_weight": 1.0 / w.size,
        "relations": relations,
    }


SWEEP_KINDS = ("cluster_count", "label_fraction", "feature_subset")


def subsample_train(labels, frac: float, seed: int):
    """Keep a stratified fraction of TRAIN rows labeled; demote the rest.

    Largest-remainder per class, never below one kept row per class. Used by
    label-scarcity sweeps; val/test rows are untouched.
    """
    if not 0 < frac <= 1:
        raise DataError("labeled fraction must be in (0, 1]")
    rng = np.random.default_rng(seed)
    mask = labels.mask.copy()
    for cls in range(labels.n_classes):
        idx = np.flatnonzero((labels.mask == D.TRAIN) & (labels.labels == cls))
        if idx.size == 0:
            continue
        keep = max(1, int(round(idx.size * frac)))
        chosen = rng.permutation(idx)[:keep]
        drop = np.setdiff1d(idx, chosen)
        mask[drop] = D.UNLABELED
    return labels.with_mask(mask)


def sweep(kind: str, values, table, embeddings, labels, base_cfg, seeds=(0, 1, 2, 3, 4),
          partition=None):
    """Grid of runs: every (value, seed) pair, metrics on the test split.

    Kinds: cluster_count varies the number of relation types (graphs are
    re-clustered per value, all at the laxest base threshold); label_fraction
    keeps only that fraction of TRAIN rows labeled; feature_subset keeps only
    the columns of the first v types of a fixed partition. Returns row dicts
    with keys grid_value, seed, macro_f1, micro_f1 in grid-major order.
    """
    from . import pipeline
    from .clustering import ClusterPartition, kmeans_columns
    from .data import normalize_columns

    if kind not in SWEEP_KINDS:
        raise DataError("unknown sweep kind %r (have: %s)" % (kind, ", ".join(SWEEP_KINDS)))
    if not len(values):
        raise DataError("sweep grid is empty")

    base_partition = partition
    if kind == "feature_subset" and base_partition is None:
        c_norm, _ = normalize_columns(table)
        base_partition = kmeans_columns(
            c_norm, base_cfg.n_relations,
            restarts=base_cfg.kmeans_restarts, max_iters=base_cfg.kmeans_max_iters,
            seed=base_cfg.seed,
        )

    rows = []
    for value in values:
        for seed in seeds:
            changes = {"seed": int(seed)}
            run_table, run_partition = table, partition
            if kind == "cluster_count":
                v = int(value)
                if v < 1:
                    raise DataError("cluster_count values must be positive")
                changes.update(n_relations=v, thetas=(min(base_cfg.thetas),) * v)
                run_partition = None  # re-cluster at each |R|
            elif kind == "label_fraction":
                changes.update(labeled_frac=float(value))
            else:  # feature_subset: keep the columns of the first v types
                v = int(value)
                if not 1 <= v <= base_partition.n_types:
                    raise DataError(
                        "feature_subset value %d outside [1, %d]" % (v, base_partition.n_types)
                    )
                keep = np.flatnonzero(base_partition.assignment < v)
                run_table = table.select_columns(keep)
                run_partition = ClusterPartition(
                    assignment=base_partition.assignment[keep],
                    n_types=v,
                    source=base_partition.source,
                    column_names=[base_partition.column_names[j] for j in keep],
                )
                changes.update(n_relations=v, thetas=base_cfg.thetas[:v])
            cfg = replace(base_cfg, **changes)
            result = pipeline.run_experiment(
                run_table, embeddings, labels, cfg, partition=run_partition)
            tm = result.report.test_metrics or {}
            rows.append(
                {
                    "grid_value": float(value),
                    "seed": int(seed),
                    "macro_f1": tm.get("macro_f1", float("nan")),
                    "micro_f1": tm.get("micro_f1", float("nan")),
                }
            )
    return rows


def write_sweep_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["grid_value", "seed", "macro_f1", "micro_f1"])
        for row in rows:
            w.writerow(
                ["%.17g" % row["grid_value"], row["seed"],
                 "%.17g" % row["macro_f1"], "%.17g" % row["micro_f1"]]
            )


def summarize_sweep(rows) -> dict:
    """Median and interquartile range per grid value over its seeds; None
    (JSON null) for a metric that some run lacks (a config without TEST
    rows)."""
    by_value: dict = {}
    for row in rows:
        by_value.setdefault(row["grid_value"], []).append(row)
    summary = {}
    for value, group in sorted(by_value.items()):
        entry = {"runs": len(group)}
        for metric in ("macro_f1", "micro_f1"):
            vals = np.asarray([g[metric] for g in group], dtype=np.float64)
            if np.isnan(vals).any():
                entry["median_%s" % metric] = entry["iqr_%s" % metric] = None
                continue
            q1, med, q3 = np.percentile(vals, [25, 50, 75])
            entry["median_%s" % metric] = float(med)
            entry["iqr_%s" % metric] = float(q3 - q1)
        summary[repr(value)] = entry
    return summary
