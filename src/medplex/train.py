"""Losses, the Adam loop, and the full training procedure.

The objective is sum of per-relation infomax losses, plus a consensus term
tying one shared embedding matrix to the attention-pooled relation views,
plus weighted cross-entropy on labeled rows, plus an L2 penalty:

    L = sum_r L_r + alpha * l_cs + beta * l_sup + gamma * ||params||^2

All gradients are hand-written; finite differences pin them down in tests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .errors import DataError, NumericError
from . import data as D
from .data import LabelVector
from .graph import MultiplexGraph
from .model import (
    ForwardCache,
    ModelDims,
    ModelState,
    attentive_pool_backward,
    classify,
    classify_backward_from_logits,
    corrupt_features,
    discriminate,
    discriminate_backward_pre,
    gcn_layer_backward,
    model_forward,
    normalize_adjacency,
    propagate,
    propagate_block,
    propagates_first,
    summary_backward,
)

SCORE_CLAMP = 1e-7
# Columns of corrupted features propagated at once: fit makes one block
# product per relation every max(1, _BLOCK_COLUMNS // in_dim) epochs.
_BLOCK_COLUMNS = 144


@dataclass
class TrainingConfig:
    """Hyperparameters for one training run. Hash covers every field."""

    learning_rate: float = 0.0005
    embed_dim: int = 64
    n_relations: int = 4
    thetas: tuple = (0.9, 0.9, 0.9, 0.9)
    alpha: float = 0.001
    beta: float = 0.1
    gamma: float = 0.0001
    tau: float = 0.1
    epochs: int = 1000
    patience: int = 50
    seed: int = 0
    train_frac: float = 0.6
    val_frac: float = 0.1
    test_frac: float = 0.3
    kmeans_restarts: int = 20
    kmeans_max_iters: int = 100
    weighted_full: bool = False

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise DataError("learning_rate must be positive")
        if self.embed_dim < 1 or self.n_relations < 1:
            raise DataError("embed_dim and n_relations must be positive")
        self.thetas = tuple(float(t) for t in self.thetas)
        if len(self.thetas) == 1 and self.n_relations > 1:
            self.thetas = self.thetas * self.n_relations
        if len(self.thetas) != self.n_relations:
            raise DataError("need one threshold per relation")
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise DataError("loss coefficients must be non-negative")
        if self.tau <= 0:
            raise DataError("tau must be positive")
        if self.epochs < 0 or self.patience < 0:
            raise DataError("epochs and patience must be non-negative")
        fr = (self.train_frac, self.val_frac, self.test_frac)
        if any(f < 0 for f in fr) or abs(sum(fr) - 1.0) > 1e-9:
            raise DataError("split fractions must be non-negative and sum to 1")

    def to_json_dict(self) -> dict:
        d = dict(self.__dict__)
        d["thetas"] = list(self.thetas)
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "TrainingConfig":
        known = set(cls.__dataclass_fields__)
        bad = set(d) - known
        if bad:
            raise DataError("unknown config keys: %s" % sorted(bad))
        kwargs = dict(d)
        if "thetas" in kwargs:
            kwargs["thetas"] = tuple(kwargs["thetas"])
        return cls(**kwargs)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_json_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def fractions(self) -> tuple:
        return (self.train_frac, self.val_frac, self.test_frac)


# dataset presets plus one tuned for the synthetic cohorts
PRESETS: dict = {
    "adni": dict(learning_rate=0.0005, embed_dim=256, n_relations=4,
                 thetas=(0.9, 0.9, 0.9, 0.9), alpha=0.001, beta=0.1, gamma=0.0001),
    "oasis3": dict(learning_rate=0.0001, embed_dim=128, n_relations=4,
                   thetas=(0.75, 0.75, 0.9, 0.9), alpha=0.001, beta=0.1, gamma=0.0001),
    "abide": dict(learning_rate=0.0005, embed_dim=64, n_relations=4,
                  thetas=(0.9, 0.9, 0.9, 0.9), alpha=0.001, beta=1.0, gamma=0.0001),
    "duke": dict(learning_rate=0.0005, embed_dim=64, n_relations=4,
                 thetas=(0.75, 0.9, 0.75, 0.75), alpha=0.001, beta=0.01, gamma=0.0001),
    "cmmd": dict(learning_rate=0.0001, embed_dim=64, n_relations=4,
                 thetas=(0.9, 0.9, 0.9, 0.75), alpha=0.001, beta=0.01, gamma=0.0001),
    "synth": dict(learning_rate=0.01, embed_dim=32, n_relations=2,
                  thetas=(0.5, 0.5), alpha=10.0, beta=0.1, gamma=0.0001,
                  epochs=400, patience=400),
}


def preset_config(name: str, **overrides) -> TrainingConfig:
    if name not in PRESETS:
        raise DataError("unknown preset %r (have: %s)" % (name, sorted(PRESETS)))
    kwargs = dict(PRESETS[name])
    kwargs.update(overrides)
    return TrainingConfig(**kwargs)


@dataclass
class InfomaxCache:
    cache_pos: object
    cache_neg: object
    da_pos: np.ndarray
    da_neg: np.ndarray


def infomax_loss(h: np.ndarray, h_tilde: np.ndarray, s: np.ndarray, m: np.ndarray):
    """Mean binary cross-entropy over n clean (label 1) and n corrupted rows.

    Scores are clamped to [1e-7, 1 - 1e-7] before the logs; clamped terms
    contribute zero gradient. Returns (loss, cache).
    """
    n = h.shape[0]
    pos, cpos = discriminate(h, s, m)
    neg, cneg = discriminate(h_tilde, s, m)
    pos_c = np.clip(pos, SCORE_CLAMP, 1.0 - SCORE_CLAMP)
    neg_c = np.clip(neg, SCORE_CLAMP, 1.0 - SCORE_CLAMP)
    loss = float((-np.log(pos_c).sum() - np.log(1.0 - neg_c).sum()) / (2 * n))
    da_pos = np.where(pos == pos_c, pos - 1.0, 0.0) / (2 * n)
    da_neg = np.where(neg == neg_c, neg, 0.0) / (2 * n)
    return loss, InfomaxCache(cpos, cneg, da_pos, da_neg)


def infomax_backward(cache: InfomaxCache):
    """Returns (dh, dh_tilde, ds, dm) for one relation's infomax loss."""
    dh, ds1, dm1 = discriminate_backward_pre(cache.cache_pos, cache.da_pos)
    dht, ds2, dm2 = discriminate_backward_pre(cache.cache_neg, cache.da_neg)
    return dh, dht, ds1 + ds2, dm1 + dm2


def consensus_loss(o: np.ndarray, pooled: np.ndarray, pooled_tilde: np.ndarray):
    """Pull the consensus matrix toward the clean pool, push from the corrupt.

    Mean over all n*d entries of (O - Q)^2 - (O - Q~)^2. Returns
    (loss, do, dpooled, dpooled_tilde) at unit scale.
    """
    if o.shape != pooled.shape or o.shape != pooled_tilde.shape:
        raise DataError("consensus inputs must share one shape")
    nd = o.size
    d_clean = o - pooled
    d_corr = o - pooled_tilde
    loss = float((np.sum(d_clean ** 2) - np.sum(d_corr ** 2)) / nd)
    do = 2.0 * (d_clean - d_corr) / nd
    dpooled = -2.0 * d_clean / nd
    dpooled_tilde = 2.0 * d_corr / nd
    return loss, do, dpooled, dpooled_tilde


def supervised_loss(y_hat: np.ndarray, labels: LabelVector):
    """Cross-entropy averaged over the TRAIN-masked labeled rows.

    Returns (loss, dlogits) where dlogits is dense over all rows, zero off
    the training set, at unit scale (softmax and CE fused).
    """
    train_idx = labels.rows_with(D.TRAIN)
    if train_idx.size == 0:
        raise DataError("supervised loss needs at least one training row")
    truth = labels.labels
    p_true = y_hat[train_idx, truth[train_idx]]
    with np.errstate(divide="ignore"):
        loss = float(-np.mean(np.log(p_true)))
    dlogits = np.zeros_like(y_hat)
    grad_rows = y_hat[train_idx].copy()
    grad_rows[np.arange(train_idx.size), truth[train_idx]] -= 1.0
    dlogits[train_idx] = grad_rows / train_idx.size
    return loss, dlogits


def total_loss(infomax_sum: float, consensus: float, supervised: float,
               l2: float, cfg: TrainingConfig) -> float:
    return infomax_sum + cfg.alpha * consensus + cfg.beta * supervised + cfg.gamma * l2


def micle_loss(z1: np.ndarray, z2: np.ndarray, tau: float) -> float:
    """Contrastive loss over two pooled views of the same N items.

    The 2N rows [z1; z2] all act as anchors; row i's positive is its other
    view, the denominator runs over the remaining 2N - 1 rows. Cosine
    similarities are scaled by 1/tau. Scale-invariant in each row's norm.
    """
    z1 = np.asarray(z1, dtype=np.float64)
    z2 = np.asarray(z2, dtype=np.float64)
    if z1.shape != z2.shape or z1.ndim != 2:
        raise DataError("views must be two equal-shape 2-d arrays")
    n = z1.shape[0]
    if n < 2:
        raise DataError("need at least two items for a contrastive loss")
    if tau <= 0:
        raise DataError("tau must be positive")
    pool = np.vstack([z1, z2])
    norms = np.linalg.norm(pool, axis=1, keepdims=True)
    u = pool / np.where(norms > 0, norms, 1.0)
    sims = (u @ u.T) / tau
    np.fill_diagonal(sims, -np.inf)  # exclude self from every denominator
    pos = np.concatenate([np.arange(n) + n, np.arange(n)])
    logits_pos = sims[np.arange(2 * n), pos]
    denom = logsumexp(sims, axis=1)
    return float(np.mean(denom - logits_pos))


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0

    @classmethod
    def for_model(cls, state: ModelState) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in state.params.items()},
            v={k: np.zeros_like(p) for k, p in state.params.items()},
        )


def adam_step(state: ModelState, adam: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One bias-corrected Adam update from state.grads into state.params."""
    adam.t += 1
    c1 = 1.0 - beta1 ** adam.t
    c2 = 1.0 - beta2 ** adam.t
    for name in state.param_order:
        g = state.grads[name]
        if not np.all(np.isfinite(g)):
            raise NumericError("non-finite gradient: %s" % name)
        adam.m[name] = beta1 * adam.m[name] + (1.0 - beta1) * g
        adam.v[name] = beta2 * adam.v[name] + (1.0 - beta2) * (g * g)
        m_hat = adam.m[name] / c1
        v_hat = adam.v[name] / c2
        state.params[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)
    state.check_finite("parameter after update")


@dataclass
class StepResult:
    total: float
    infomax: float
    consensus: float
    supervised: float
    l2: float
    probs: np.ndarray
    forward: ForwardCache


def loss_and_grads(state: ModelState, ops: list, x: np.ndarray,
                   labels: LabelVector, cfg: TrainingConfig,
                   perm: np.ndarray, ax: list, ax_tilde: list | None = None) -> StepResult:
    """One full objective evaluation; fills state.grads as a side effect.

    ax is [propagate(op, x) for op in ops] and ax_tilde, if given,
    [op @ x[perm] for op in ops], as model_forward takes them. With both, the
    step makes no sparse product while X is no wider than the embedding.
    """
    state.zero_grads()
    fc = model_forward(state, ops, x, perm, ax, ax_tilde)
    r_count = state.dims.n_relations
    dh = [np.zeros_like(h) for h in fc.h]
    dht = [np.zeros_like(h) for h in fc.h_tilde]

    infomax_sum = 0.0
    for r in range(r_count):
        loss_r, icache = infomax_loss(
            fc.h[r], fc.h_tilde[r], fc.summaries[r], state.params["disc_m_%d" % r]
        )
        infomax_sum += loss_r
        g_h, g_ht, g_s, g_m = infomax_backward(icache)
        state.grads["disc_m_%d" % r] += g_m
        dh[r] += g_h
        dht[r] += g_ht
        dh[r] += summary_backward(fc.summary_caches[r], g_s)

    o = state.params["consensus"]
    cs, d_o, d_pool, d_pool_t = consensus_loss(o, fc.pooled, fc.pooled_tilde)
    state.grads["consensus"] += cfg.alpha * d_o
    dhs, dlog = attentive_pool_backward(fc.pool_cache, cfg.alpha * d_pool)
    dhs_t, dlog_t = attentive_pool_backward(fc.pool_cache_tilde, cfg.alpha * d_pool_t)
    for r in range(r_count):
        dh[r] += dhs[r]
        dht[r] += dhs_t[r]
    state.grads["att_logits"] += dlog + dlog_t

    probs, ccache = classify(o, state.params["cls_w"], state.params["cls_b"])
    sup, dlogits = supervised_loss(probs, labels)
    d_o2, d_wc, d_bc = classify_backward_from_logits(ccache, cfg.beta * dlogits)
    state.grads["consensus"] += d_o2
    state.grads["cls_w"] += d_wc
    state.grads["cls_b"] += d_bc

    for r in range(r_count):
        g_w1, _ = gcn_layer_backward(fc.gcn_caches[r], dh[r])
        g_w2, _ = gcn_layer_backward(fc.gcn_caches_tilde[r], dht[r])
        state.grads["enc_w_%d" % r] += g_w1 + g_w2

    l2 = state.l2()
    state.add_l2_grads(cfg.gamma)
    total = total_loss(infomax_sum, cs, sup, l2, cfg)
    return StepResult(total, infomax_sum, cs, sup, l2, probs, fc)


@dataclass
class TrainReport:
    """Per-epoch history plus the selected model's final numbers."""

    rows: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_micro: float = float("nan")
    epochs_run: int = 0
    stopped_early: bool = False
    att_weights: list = field(default_factory=list)
    test_metrics: dict | None = None
    config_hash: str = ""
    seed: int = 0
    n_nodes: int = 0
    mask_digest: str = ""

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "best_epoch": self.best_epoch,
            "best_val_micro": self.best_val_micro,
            "epochs_run": self.epochs_run,
            "stopped_early": self.stopped_early,
            "att_weights": self.att_weights,
            "test_metrics": self.test_metrics,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "n_nodes": self.n_nodes,
            "mask_digest": self.mask_digest,
        }


def _mask_digest(mask: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(mask, dtype=np.int8).tobytes()).hexdigest()


def _propagate_epochs(x: np.ndarray, ops: list, perms: list) -> list:
    """[[op @ x[p] for op in ops] for p in perms] from one propagate_block per op.

    The rows of all perms are gathered into one n x len(perms)*in_dim block.
    Each product is split into per-epoch copies at once, so one block product
    is alive at a time and a finished epoch holds on to no block.
    """
    n = x.shape[0]
    xs = x[np.stack(perms, axis=1)].reshape(n, -1)
    products = [[c.copy() for c in np.hsplit(propagate_block(op, xs), len(perms))]
                for op in ops]
    return [list(epoch) for epoch in zip(*products)]


def _corrupted_inputs(x: np.ndarray, ops: list, cfg: TrainingConfig):
    """Yields (perm, ax_tilde) for each of cfg.epochs epochs.

    The permutations depend only on (cfg.seed, epoch), not on the parameters.
    So where the layer propagates first, the products of k = max(1,
    _BLOCK_COLUMNS // in_dim) epochs are made at once (_propagate_epochs),
    the last block stopping at cfg.epochs. On the W-first side ax_tilde is
    None and the layer propagates per epoch.
    """
    d = x.shape[1]
    if not propagates_first(d, cfg.embed_dim):
        for epoch in range(cfg.epochs):
            yield corrupt_features(x, seed=[cfg.seed, epoch]), None
        return
    k = max(1, _BLOCK_COLUMNS // d)
    for start in range(0, cfg.epochs, k):
        perms = [corrupt_features(x, seed=[cfg.seed, e])
                 for e in range(start, min(start + k, cfg.epochs))]
        products = _propagate_epochs(x, ops, perms)
        for perm in perms:
            yield perm, products.pop(0)  # frees each epoch's products after use


def fit(graph: MultiplexGraph, labels: LabelVector, cfg: TrainingConfig):
    """Train on one multiplex graph; returns (best ModelState, TrainReport).

    Selection: highest validation micro-F1, earliest epoch on ties; training
    stops once `patience` epochs pass without improvement. Without validation
    rows the final epoch wins and early stopping is off. Deterministic in
    cfg.seed (corruption permutations derive from (seed, epoch)).
    """
    from . import evaluate as E

    if labels.n_rows != graph.n_nodes:
        raise DataError("labels cover %d rows, graph has %d" % (labels.n_rows, graph.n_nodes))
    if len(graph.relations) != cfg.n_relations:
        raise DataError(
            "config says %d relations, graph has %d" % (cfg.n_relations, len(graph.relations))
        )
    x = graph.attributes.x
    dims = ModelDims(
        n_nodes=graph.n_nodes,
        in_dim=x.shape[1],
        hidden_dim=cfg.embed_dim,
        n_relations=cfg.n_relations,
        n_classes=labels.n_classes,
    )
    state = ModelState(dims, seed=cfg.seed)
    adam = AdamState.for_model(state)
    ops = [normalize_adjacency(g) for g in graph.relations]
    ax = [propagate(op, x) for op in ops]
    val_idx = labels.rows_with(D.VAL)
    test_idx = labels.rows_with(D.TEST)

    report = TrainReport(
        config_hash=cfg.config_hash(),
        seed=cfg.seed,
        n_nodes=graph.n_nodes,
        mask_digest=_mask_digest(labels.mask),
    )
    best_params = state.copy_params()
    best_val = -np.inf
    best_epoch = -1

    for epoch, (perm, ax_tilde) in enumerate(_corrupted_inputs(x, ops, cfg)):
        step = loss_and_grads(state, ops, x, labels, cfg, perm, ax, ax_tilde)
        if not np.isfinite(step.total):
            raise NumericError("non-finite loss at epoch %d" % epoch)
        if val_idx.size:
            pred = np.argmax(step.probs[val_idx], axis=1)
            val_micro = E.micro_f1(E.confusion_counts(pred, labels.labels[val_idx], labels.n_classes))
        else:
            val_micro = float("nan")
        report.rows.append(
            {
                "epoch": epoch,
                "total": step.total,
                "infomax": step.infomax,
                "consensus": step.consensus,
                "supervised": step.supervised,
                "l2": step.l2,
                "val_micro": val_micro,
            }
        )
        improved = val_idx.size and val_micro > best_val
        if improved:
            best_val = val_micro
            best_epoch = epoch
            best_params = state.copy_params()
        adam_step(state, adam, cfg.learning_rate)
        report.epochs_run = epoch + 1
        if val_idx.size and cfg.epochs and epoch - max(best_epoch, 0) >= cfg.patience > 0:
            report.stopped_early = True
            break

    if val_idx.size and best_epoch >= 0:
        state.load_params(best_params)
        report.best_epoch = best_epoch
        report.best_val_micro = float(best_val)
    else:
        report.best_epoch = report.epochs_run - 1
    # attention weights of the selected model
    logits = state.params["att_logits"]
    z = np.exp(logits - logits.max())
    report.att_weights = [float(v) for v in z / z.sum()]

    if test_idx.size:
        probs, _ = classify(state.params["consensus"], state.params["cls_w"], state.params["cls_b"])
        pred = np.argmax(probs[test_idx], axis=1)
        report.test_metrics = E.metrics_report(
            pred, labels.labels[test_idx], labels.n_classes
        ).to_json_dict()
    return state, report
