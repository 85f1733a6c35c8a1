"""Reference models the multiplex model must beat: an MLP on the node
attributes alone, and a single-graph GCN that collapses all feature types
into one similarity graph. Gradients are hand-written like the main model's
and checked the same way."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DataError, NumericError
from . import data as D
from .data import FeatureTable, LabelVector
from . import evaluate as E
from .model import FlatParams, _xavier, gcn_layer, gcn_layer_backward, normalize_adjacency, propagate
from .graph import build_relation_graph
from .train import AdamState, adam_step


@dataclass
class BaselineConfig:
    hidden_dim: int = 64
    learning_rate: float = 0.01
    epochs: int = 300
    patience: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.hidden_dim < 1:
            raise DataError("hidden_dim must be positive")
        if self.learning_rate <= 0:
            raise DataError("learning_rate must be positive")
        if self.epochs < 0 or self.patience < 0:
            raise DataError("epochs and patience must be non-negative")


@dataclass
class BaselineModel:
    kind: str  # "mlp" or "single_gcn"
    params: dict
    config: BaselineConfig
    report: dict
    op: sp.csr_matrix | None = None

    def predict_proba(self, x: np.ndarray, op: sp.csr_matrix | None = None) -> np.ndarray:
        op = self.op if op is None else op
        return forward(self.kind, self.params, x, op)[0]


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _forward(kind: str, params: dict, x: np.ndarray, op=None, ax=None):
    """Class probabilities plus the first layer's (cache, h); ax = op @ x if at hand."""
    if kind == "mlp":
        cache = x @ params["w1"] + params["b1"]
        h = np.maximum(cache, 0.0)
    elif kind == "single_gcn":
        if op is None:
            raise DataError("single_gcn forward needs the graph operator")
        h, cache = gcn_layer(op, x, params["w1"], ax)
    else:
        raise DataError("unknown baseline kind %r" % kind)
    logits = h @ params["w2"] + params["b2"]
    return _softmax_rows(logits), (cache, h)


def _loss_and_grads(kind: str, params: dict, x: np.ndarray, labels: LabelVector, op, ax):
    train_idx = labels.rows_with(D.TRAIN)
    if train_idx.size == 0:
        raise DataError("baseline training needs at least one TRAIN row")
    probs, (cache, h) = _forward(kind, params, x, op, ax)
    p_true = probs[train_idx, labels.labels[train_idx]]
    with np.errstate(divide="ignore"):
        loss = float(-np.mean(np.log(p_true)))

    dlogits = np.zeros_like(probs)
    g = probs[train_idx].copy()
    g[np.arange(train_idx.size), labels.labels[train_idx]] -= 1.0
    dlogits[train_idx] = g / train_idx.size
    grads = {"w2": h.T @ dlogits, "b2": dlogits.sum(axis=0)}
    dh = dlogits @ params["w2"].T
    if kind == "mlp":
        dpre = dh * (cache > 0.0)
        grads["w1"] = x.T @ dpre
        grads["b1"] = dpre.sum(axis=0)
    else:
        grads["w1"], _ = gcn_layer_backward(cache, dh)
    return loss, grads, probs


def forward(kind: str, params: dict, x: np.ndarray, op=None):
    """Class probabilities plus the intermediates the backward pass needs."""
    return _forward(kind, params, x, op)


def loss_and_grads(kind: str, params: dict, x: np.ndarray, labels: LabelVector, op=None):
    """Cross-entropy over TRAIN rows; returns (loss, grads dict, probs)."""
    return _loss_and_grads(kind, params, x, labels, op, None)


def _init_params(kind: str, in_dim: int, hidden: int, n_classes: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    params = {"w1": _xavier(rng, in_dim, hidden)}
    if kind == "mlp":
        params["b1"] = np.zeros(hidden)
    params["w2"] = _xavier(rng, hidden, n_classes)
    params["b2"] = np.zeros(n_classes)
    return params


def _train(kind: str, x: np.ndarray, labels: LabelVector, cfg: BaselineConfig, op=None):
    """Adam (train.adam_step) on the cross-entropy; x is propagated (for the
    GCN) once per fit."""
    ax = propagate(op, x) if kind == "single_gcn" else None
    val_idx = labels.rows_with(D.VAL)
    test_idx = labels.rows_with(D.TEST)
    c = labels.n_classes
    init = _init_params(kind, x.shape[1], cfg.hidden_dim, c, cfg.seed)
    state = FlatParams({k: v.shape for k, v in init.items()})
    state.load_params(init)
    params = state.params
    adam = AdamState.for_model(state)
    rows = []
    best = (-np.inf, -1, state.copy_params())

    for epoch in range(cfg.epochs):
        loss, grads, probs = _loss_and_grads(kind, params, x, labels, op, ax)
        if not np.isfinite(loss):
            raise NumericError("non-finite baseline loss at epoch %d" % epoch)
        if val_idx.size:
            pred = np.argmax(probs[val_idx], axis=1)
            val_micro = E.micro_f1(E.confusion_counts(pred, labels.labels[val_idx], c))
        else:
            val_micro = float("nan")
        rows.append({"epoch": epoch, "loss": loss, "val_micro": val_micro})
        if val_idx.size and val_micro > best[0]:
            best = (val_micro, epoch, state.copy_params())
        for name, g in grads.items():
            state.grads[name] = g
        adam_step(state, adam, cfg.learning_rate)

        if val_idx.size and cfg.patience and epoch - max(best[1], 0) >= cfg.patience:
            break

    params = best[2] if val_idx.size and best[1] >= 0 else state.copy_params()
    report = {
        "kind": kind,
        "rows": rows,
        "best_epoch": best[1] if val_idx.size else len(rows) - 1,
        "best_val_micro": best[0] if val_idx.size else float("nan"),
        "mask_digest": hashlib.sha256(
            np.ascontiguousarray(labels.mask, dtype=np.int8).tobytes()
        ).hexdigest(),
        "test_metrics": None,
    }
    if test_idx.size:
        probs, _ = _forward(kind, params, x, op, ax)
        pred = np.argmax(probs[test_idx], axis=1)
        report["test_metrics"] = E.metrics_report(pred, labels.labels[test_idx], c).to_json_dict()
    return BaselineModel(kind=kind, params=params, config=cfg, report=report, op=op)


def fit_mlp(x: np.ndarray, labels: LabelVector, cfg: BaselineConfig) -> BaselineModel:
    """Two-layer relu MLP on the node attributes, no graph at all."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != labels.n_rows:
        raise DataError("attribute rows do not match labels")
    return _train("mlp", x, labels, cfg)


def fit_single_gcn(x: np.ndarray, c: FeatureTable, labels: LabelVector,
                   theta: float, cfg: BaselineConfig) -> BaselineModel:
    """One-layer GCN + softmax head over a single graph built from all of c's
    columns at threshold theta.

    With theta = 1.0 the graph is edgeless, the operator is the identity, and
    this degrades to a relu-linear model on the raw attributes.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != labels.n_rows or c.n_rows != x.shape[0]:
        raise DataError("graph table, attributes and labels disagree on row count")
    graph = build_relation_graph(c.values, theta)
    op = normalize_adjacency(graph)
    return _train("single_gcn", x, labels, cfg, op=op)
