"""Reference models the multiplex model must beat: an MLP on the node
attributes alone, and a single-graph GCN that collapses all feature types
into one similarity graph. Gradients are hand-written like the main model's
and checked the same way."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .data import FeatureTable, LabelVector
from .model import (
    FlatParams,
    _xavier,
    classify,
    classify_backward_from_logits,
    encode,
    propagate,
    relation_operator,
)
from .graph import build_relation_graph
from .train import TrainingConfig, held_out_metrics, select_epochs, supervised_loss

# The baselines train at this rate, whatever the run's own learning_rate.
LEARNING_RATE = 0.01


@dataclass
class BaselineModel:
    kind: str  # "mlp" or "single_gcn"
    params: dict
    report: dict
    op: object | None = None  # the graph operator of a single_gcn

    def predict_proba(self, x: np.ndarray, op=None) -> np.ndarray:
        op = self.op if op is None else op
        return forward(self.kind, self.params, x, op)[0]


def forward(kind: str, params: dict, x: np.ndarray, op=None, ax=None):
    """Class probabilities plus the first layer's output and the head's
    cache; ax = op @ x if at hand."""
    if kind == "mlp":
        h = np.maximum(x @ params["w1"] + params["b1"], 0.0)
    elif kind == "single_gcn":
        if op is None:
            raise DataError("single_gcn forward needs the graph operator")
        h = encode([op], x, params["w1"][None], None if ax is None else ax[None])[0]
    else:
        raise DataError("unknown baseline kind %r" % kind)
    probs, head = classify(h, params["w2"], params["b2"])
    return probs, (h, head)


def loss_and_grads(kind: str, params: dict, x: np.ndarray, labels: LabelVector,
                   op=None, ax=None):
    """Cross-entropy over TRAIN rows; returns (loss, grads dict, probs)."""
    probs, (h, head) = forward(kind, params, x, op, ax)
    loss, dlogits = supervised_loss(probs, labels)
    dh, dw2, db2 = classify_backward_from_logits(head, dlogits)
    dpre = dh * (h > 0.0)
    # dW = (the layer's input)^T dpre: X for the MLP, op X for the GCN
    layer_in = x if kind == "mlp" else ax if ax is not None else propagate(op, x)
    grads = {"w1": layer_in.T @ dpre, "w2": dw2, "b2": db2}
    if kind == "mlp":
        grads["b1"] = dpre.sum(axis=0)
    return loss, grads, probs


def _init_params(kind: str, in_dim: int, hidden: int, n_classes: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    params = {"w1": _xavier(rng, in_dim, hidden)}
    if kind == "mlp":
        params["b1"] = np.zeros(hidden)
    params["w2"] = _xavier(rng, hidden, n_classes)
    params["b2"] = np.zeros(n_classes)
    return params


def _train(kind: str, x: np.ndarray, labels: LabelVector, cfg: TrainingConfig, op=None):
    """train.select_epochs on the cross-entropy, with the run's hidden width
    (embed_dim), epochs, patience and seed at LEARNING_RATE; x is propagated
    (for the GCN) once per fit."""
    ax = propagate(op, x) if kind == "single_gcn" else None
    init = _init_params(kind, x.shape[1], cfg.embed_dim, labels.n_classes, cfg.seed)
    state = FlatParams({k: v.shape for k, v in init.items()})
    state.load_params(init)

    def step(epoch):
        loss, grads, probs = loss_and_grads(kind, state.params, x, labels, op, ax)
        for name, g in grads.items():
            state.grads[name] = g
        return loss, probs, {"loss": loss}

    run = select_epochs(state, LEARNING_RATE, cfg.epochs, cfg.patience, labels, step)
    params = state.copy_params()
    report = {
        "kind": kind,
        "rows": run.rows,
        "best_epoch": run.best_epoch,
        "best_val_micro": run.best_val_micro,
        "mask_digest": run.mask_digest,
        "test_metrics": held_out_metrics(forward(kind, params, x, op, ax)[0], labels),
    }
    return BaselineModel(kind=kind, params=params, report=report, op=op)


def fit_mlp(x: np.ndarray, labels: LabelVector, cfg: TrainingConfig) -> BaselineModel:
    """Two-layer relu MLP on the node attributes, no graph at all."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != labels.n_rows:
        raise DataError("attribute rows do not match labels")
    return _train("mlp", x, labels, cfg)


def fit_single_gcn(x: np.ndarray, c: FeatureTable, labels: LabelVector,
                   theta: float, cfg: TrainingConfig) -> BaselineModel:
    """One-layer GCN + softmax head over a single graph built from all of c's
    columns at threshold theta.

    With theta = 1.0 the graph is edgeless, the operator is the identity, and
    this degrades to a relu-linear model on the raw attributes.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != labels.n_rows or c.n_rows != x.shape[0]:
        raise DataError("graph table, attributes and labels disagree on row count")
    graph = build_relation_graph(c.values, theta)
    op = relation_operator(graph)
    return _train("single_gcn", x, labels, cfg, op=op)
