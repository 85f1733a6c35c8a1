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
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DataError, NumericError
from . import data as D
from . import evaluate as E
from .data import LabelVector
from .graph import MultiplexGraph, _unit_rows, _usable_cpus
from .model import (
    FlatParams,
    ForwardCache,
    ModelDims,
    ModelState,
    StepArrays,
    attention_weights,
    attentive_pool_backward,
    classify,
    corrupt_features,
    discriminate,
    discriminate_backward_pre,
    model_forward,
    propagate,
    propagates_first,
    relation_operator,
    rows_product,
    summary_backward,
)

SCORE_CLAMP = 1e-7
# The dtype fit trains in. Its graph products are made from a copy of X in
# this dtype: a packed operator multiplies in it, a CSR one in float64 and
# the product is rounded into it. The state fit returns, and so checkpoints
# and inference, are float64 (README, "Precision").
_TRAIN_DTYPE = np.float32
# Columns of corrupted features propagated at once: fit makes one block
# product per relation every max(1, _BLOCK_COLUMNS // in_dim) epochs.
_BLOCK_COLUMNS = 144

log = logging.getLogger(__name__)


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
    epochs: int = 1000
    patience: int = 50
    seed: int = 0
    train_frac: float = 0.6
    val_frac: float = 0.1
    test_frac: float = 0.3
    labeled_frac: float = 1.0  # share of TRAIN rows that keep their labels
    kmeans_restarts: int = 20
    kmeans_max_iters: int = 100

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
        if self.epochs < 0 or self.patience < 0:
            raise DataError("epochs and patience must be non-negative")
        fr = (self.train_frac, self.val_frac, self.test_frac)
        if any(f < 0 for f in fr) or abs(sum(fr) - 1.0) > 1e-9:
            raise DataError("split fractions must be non-negative and sum to 1")
        if not 0 < self.labeled_frac <= 1:
            raise DataError("labeled fraction must be in (0, 1]")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "TrainingConfig":
        """A config from its JSON object.

        Also reads configs from before tau and weighted_full were dropped:
        tau never entered the objective, and only weighted_full false built
        the graphs this version builds. One written before labeled_frac was
        a field reads as 1.0."""
        if isinstance(d, dict):
            d = dict(d)
            d.pop("tau", None)
            if d.pop("weighted_full", False):
                raise DataError("weighted_full graphs are no longer supported")
        return D.config_from_json(cls, d)

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
    disc: object  # DiscCache over the 2n stacked rows
    da: np.ndarray  # loss gradient at the 2n pre-sigmoid scores
    split: bool  # whether the rows came as two arrays


def infomax_loss(h: np.ndarray, h_tilde: np.ndarray | None, s: np.ndarray, m: np.ndarray):
    """Mean binary cross-entropy over n clean (label 1) and n corrupted rows.

    h_tilde None takes h as the 2n-row stack of both, clean rows on top, as
    the training step holds them. A stacked h (R, 2n, d), with s (R, d) and
    m (R, d, d), gives the sum of the R relations' losses. Scores are
    clamped to [1e-7, 1 - 1e-7] before the logs; clamped terms contribute
    zero gradient. Returns (loss, cache).
    """
    hs = h if h_tilde is None else np.concatenate([h, h_tilde])
    n2 = hs.shape[-2]
    n = n2 // 2
    scores, disc = discriminate(hs, s, m)
    clamped = np.clip(scores, SCORE_CLAMP, 1.0 - SCORE_CLAMP)
    loss = float((-np.log(clamped[..., :n]).sum() - np.log(1.0 - clamped[..., n:]).sum()) / n2)
    label = np.arange(n2) < n  # 1 for the clean rows, 0 for the corrupted
    da = np.where(scores == clamped, scores - label, 0.0) / n2
    return loss, InfomaxCache(disc, da, h_tilde is not None)


def infomax_backward(cache: InfomaxCache, out: np.ndarray | None = None):
    """Returns (dh, dh_tilde, ds, dm) for the infomax loss.

    For a stacked input dh covers all 2n rows and dh_tilde is None. out, an
    array of the 2n stacked rows' shape, takes the rows of dh and dh_tilde.
    """
    dh, ds, dm = discriminate_backward_pre(cache.disc, cache.da, out)
    if cache.split:
        n = dh.shape[0] // 2
        return dh[:n], dh[n:], ds, dm
    return dh, None, ds, dm


def consensus_loss(o: np.ndarray, pooled: np.ndarray, pooled_tilde: np.ndarray | None,
                   out: tuple | None = None):
    """Pull the consensus matrix toward the clean pool, push from the corrupt.

    Mean over all n*d entries of (O - Q)^2 - (O - Q~)^2. pooled_tilde None
    takes pooled as the 2n-row stack [Q; Q~]. Returns (loss, do, dpooled,
    dpooled_tilde) at unit scale; for a stacked input dpooled is stacked too
    and dpooled_tilde is None. out = (do, dq), arrays of o's shape and of
    the 2n stacked rows' shape, takes do and the stacked gradient.
    """
    do_out, dq_out = (None, None) if out is None else out
    if pooled_tilde is not None:
        if o.shape != pooled.shape or o.shape != pooled_tilde.shape:
            raise DataError("consensus inputs must share one shape")
        q = np.concatenate([pooled, pooled_tilde])
    elif pooled.shape != (2 * o.shape[0],) + o.shape[1:]:
        raise DataError("stacked pool must have twice the consensus rows")
    else:
        q = pooled
    nd = o.size
    q = q.reshape((2,) + o.shape)
    # [O - Q, O - Q~], scaled into the gradient in place below
    dq = np.subtract(o, q, out=None if dq_out is None else dq_out.reshape(q.shape))
    flat = dq.reshape(2, -1)
    sq = np.einsum("ij,ij->i", flat, flat)
    loss = float((sq[0] - sq[1]) / nd)
    do = np.subtract(q[1], q[0], out=do_out)
    do *= 2.0 / nd
    dq *= np.array([-2.0 / nd, 2.0 / nd], dq.dtype).reshape((2,) + (1,) * o.ndim)
    if pooled_tilde is not None:
        return loss, do, dq[0], dq[1]
    return loss, do, dq.reshape(pooled.shape), None


def supervised_loss(y_hat: np.ndarray, labels: LabelVector):
    """Cross-entropy averaged over the TRAIN-masked labeled rows.

    Returns (loss, dlogits) where dlogits is dense over all rows, zero off
    the training set, at unit scale (softmax and CE fused).
    """
    train_idx = labels.rows_with(D.TRAIN)  # computed once per LabelVector
    if train_idx.size == 0:
        raise DataError("supervised loss needs at least one training row")
    grad_rows = y_hat[train_idx]  # a copy: fancy indexing
    true_cells = (np.arange(train_idx.size), labels.labels[train_idx])
    with np.errstate(divide="ignore"):
        loss = float(-np.mean(np.log(grad_rows[true_cells])))
    grad_rows[true_cells] -= 1.0
    grad_rows /= train_idx.size
    dlogits = np.zeros_like(y_hat)
    dlogits[train_idx] = grad_rows
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
    u = _unit_rows(np.vstack([z1, z2]))
    sims = (u @ u.T) / tau
    np.fill_diagonal(sims, -np.inf)  # exclude self from every denominator
    pos = np.concatenate([np.arange(n) + n, np.arange(n)])
    logits_pos = sims[np.arange(2 * n), pos]
    top = sims.max(axis=1, keepdims=True)  # finite: every row has 2N - 1 >= 3 others
    denom = np.log(np.exp(sims - top).sum(axis=1)) + top[:, 0]  # exp(-inf) = 0 on the diagonal
    return float(np.mean(denom - logits_pos))


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: np.ndarray  # scratch vectors each update works through
    denom: np.ndarray
    t: int = 0

    @classmethod
    def for_model(cls, state: FlatParams) -> "AdamState":
        return cls(m=np.zeros_like(state.flat), v=np.zeros_like(state.flat),
                   step=np.empty_like(state.flat), denom=np.empty_like(state.flat))


def adam_step(state: FlatParams, adam: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One bias-corrected Adam update from state.grad into state.flat.

    Whole-vector operations in the order of m = beta1 m + (1 - beta1) g,
    v = beta2 v + (1 - beta2) g^2, p -= lr m_hat / (sqrt(v_hat) + eps), so
    the update is bitwise that of the same expressions per parameter. Every
    temporary lives in adam.step and adam.denom.
    """
    adam.t += 1
    c1 = 1.0 - beta1 ** adam.t
    c2 = 1.0 - beta2 ** adam.t
    g, step, denom = state.grad, adam.step, adam.denom
    state.check_finite("gradient", g)
    adam.m *= beta1
    adam.m += np.multiply(g, 1.0 - beta1, out=step)
    g2 = np.multiply(g, g, out=step)
    g2 *= 1.0 - beta2
    adam.v *= beta2
    adam.v += g2
    np.divide(adam.m, c1, out=step)
    step *= lr
    np.divide(adam.v, c2, out=denom)
    np.sqrt(denom, out=denom)
    denom += eps
    step /= denom
    state.flat -= step
    state.check_finite("parameter after update")


@dataclass
class StepResult:
    """One step's losses, probabilities and forward cache. The cache's arrays
    are the StepArrays', valid only until the next step rewrites them."""

    total: float
    infomax: float
    consensus: float
    supervised: float
    l2: float
    probs: np.ndarray
    forward: ForwardCache


def loss_and_grads(state: ModelState, ops: list, x: np.ndarray,
                   labels: LabelVector, cfg: TrainingConfig,
                   perm: np.ndarray, ax, arrays: StepArrays) -> StepResult:
    """One full objective evaluation; writes every entry of state.grads.

    ax is as model_forward takes it: (R, 2n, in_dim) stacks
    [op @ x; op @ x[perm]] where the layer propagates first, so the step
    makes no graph product, and (R, n, in_dim) op @ x where it applies W
    first. The relations' encoders, infomax terms, pool and backward pass
    down to dW run once on the relation-stacked 2n rows, as batched
    products over the (R, ·, ·) parameter views of state.flat and
    state.grad. Every array of n or 2n rows and embedding width, but the
    graph products an n-row input makes, is one of arrays (StepArrays(state),
    made once per fit) and is filled in place; what the step returns in
    them is valid until the next step.
    """
    fc = model_forward(state, ops, x, perm, ax, arrays)
    n = x.shape[0]
    grads = state.grads

    infomax, icache = infomax_loss(fc.h, None, fc.summaries,
                                   state.relation_stack(state.flat, "disc_m"))
    dh, _, ds, state.relation_stack(state.grad, "disc_m")[...] = infomax_backward(
        icache, out=arrays.dh)
    dh[:, :n] += summary_backward(fc.summary_cache, ds)

    o = state.params["consensus"]
    cs, d_o, d_pool, _ = consensus_loss(o, fc.pool, None, out=(arrays.do, arrays.diff))
    d_pool *= cfg.alpha
    _, grads["att_logits"] = attentive_pool_backward(fc.pool_cache, d_pool,
                                                     add_into=dh, scratch=arrays.term)

    cls_w = state.params["cls_w"]
    probs, _ = classify(o, cls_w, state.params["cls_b"])
    sup, dlogits = supervised_loss(probs, labels)
    dlogits *= cfg.beta
    rows_product(o, dlogits, out=grads["cls_w"])
    grads["cls_b"] = dlogits.sum(axis=0)
    d_o *= cfg.alpha
    np.matmul(dlogits, cls_w.T, out=grads["consensus"])
    grads["consensus"] += d_o

    # the relu's backward, then dW = (op X)^T dpre over the stacked rows; the
    # W-first side adds X[perm]^T (op @ dpre) for its corrupted rows
    dpre = np.multiply(dh, np.greater(fc.h, 0.0, out=arrays.mask), out=dh)
    dw = rows_product(fc.ax, dpre[:, :fc.ax.shape[1]],
                      out=state.relation_stack(state.grad, "enc_w"))
    if fc.x_perm is not None:
        for op, dw_r, dpre_r in zip(ops, dw, dpre):
            dw_r += rows_product(fc.x_perm, propagate(op, dpre_r[n:]))

    l2 = state.l2(arrays.flat)
    state.add_l2_grads(cfg.gamma, arrays.flat)
    total = total_loss(infomax, cs, sup, l2, cfg)
    return StepResult(total, infomax, cs, sup, l2, probs, fc)


@dataclass
class TrainReport:
    """Per-epoch history plus the selected model's final numbers."""

    rows: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_micro: float | None = None  # None without validation rows
    epochs_run: int = 0
    stopped_early: bool = False
    att_weights: list = field(default_factory=list)
    test_metrics: dict | None = None
    config_hash: str = ""
    seed: int = 0
    n_nodes: int = 0
    mask_digest: str = ""

    def to_json_dict(self) -> dict:
        return asdict(self)


def _mask_digest(mask: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(mask, dtype=np.int8).tobytes()).hexdigest()


def _made_ahead(make, args: list):
    """Yields make(a) for each a in args, in order.

    With two or more usable CPUs one worker thread makes the next result
    while the caller uses the current one; closing the generator waits for
    that result, so at most one is made and never used (nor is an error in
    making it raised: without the worker it would not have been made). With
    one CPU each result is made inline when it is asked for, and no thread
    starts.
    """
    if len(args) < 2 or _usable_cpus() < 2:
        yield from map(make, args)
        return
    with ThreadPoolExecutor(max_workers=1) as worker:  # joined on any exit
        ahead = worker.submit(make, args[0])
        for nxt in args[1:]:
            current = ahead.result()
            ahead = worker.submit(make, nxt)
            yield current
        yield ahead.result()


def _corrupted_inputs(x: np.ndarray, ops: list, cfg: TrainingConfig, stacks):
    """Yields the permutation of each of cfg.epochs epochs.

    The permutations depend only on (cfg.seed, epoch), not on the parameters.
    stacks holds one input per op: fit's (R, rows, in_dim) array, whose
    first axis gives each relation's view. Where the layer propagates first,
    they are fit's 2n-row inputs and the
    products op @ x[perm] of k = max(1, _BLOCK_COLUMNS // in_dim) epochs are
    made at once, one propagate per op, the last block stopping at
    cfg.epochs. With two or more usable CPUs a worker thread makes block b + 1
    while the caller steps through block b (see _made_ahead); the products
    and their bytes are the same either way. Before each yield the epoch's
    columns of every block are written, on the caller's thread, into the
    bottom half of its stack. On the W-first side the stacks hold n rows and
    the step propagates per epoch. x is fit's copy of the attributes in the
    stacks' dtype, so the corrupted rows are gathered in it and a packed
    operator's block comes back in it; a CSR block, made in float64, is
    rounded to it as it is made.
    """
    n, d = x.shape
    if stacks[0].shape[0] == n:
        for epoch in range(cfg.epochs):
            yield corrupt_features(x, seed=[cfg.seed, epoch])
        return
    k = max(1, _BLOCK_COLUMNS // d)

    def make_block(start):
        perms = [corrupt_features(x, seed=[cfg.seed, e])
                 for e in range(start, min(start + k, cfg.epochs))]
        xs = x[np.stack(perms, axis=1)].reshape(n, -1)
        # held in x's dtype: rounding a CSR block here gives the bytes the
        # copy into the stacks would
        return perms, [propagate(op, xs).astype(x.dtype, copy=False) for op in ops]

    for perms, blocks in _made_ahead(make_block, list(range(0, cfg.epochs, k))):
        for i, perm in enumerate(perms):
            for stack, block in zip(stacks, blocks):
                stack[n:] = block[:, i * d:(i + 1) * d]
            yield perm
        del blocks  # freed before a further block is started


def select_epochs(state: FlatParams, lr: float, epochs: int, patience: int,
                  labels: LabelVector, step) -> TrainReport:
    """Adam on state for up to `epochs` epochs, keeping the best by validation.

    step(epoch) writes state.grads and returns (loss, probs, row): a loss that
    must be finite, class probabilities for every row, and the epoch's report
    entries, stored between "epoch" and "val_micro". Selection: highest
    validation micro-F1, earliest epoch on ties; training stops once
    `patience` epochs pass without improvement, or right after an epoch
    that scores every validation row right (0 never stops). The second stop
    is exact: no later epoch can score above 1.0, and a tie keeps the
    earlier one, so the selected parameters are those of the full run and
    only the report's rows end sooner. Without validation rows the final
    epoch wins, early stopping is off, and each val_micro and best_val_micro
    is None (JSON null). The selected parameters are left in state.
    """
    val_idx = labels.rows_with(D.VAL)
    val_truth = labels.labels[val_idx]
    report = TrainReport(mask_digest=_mask_digest(labels.mask))
    adam = AdamState.for_model(state)
    best_params, best_val = None, -np.inf
    for epoch in range(epochs):
        loss, probs, row = step(epoch)
        if not np.isfinite(loss):
            raise NumericError("non-finite loss at epoch %d" % epoch)
        if val_idx.size:
            # micro-F1 is accuracy; one count gives the same float as E.micro_f1
            pred = np.argmax(probs[val_idx], axis=1)
            correct = int(np.count_nonzero(pred == val_truth))
            val_micro = correct / val_idx.size
        else:
            val_micro = None
        report.rows.append({"epoch": epoch, **row, "val_micro": val_micro})
        if val_idx.size and val_micro > best_val:
            best_val, report.best_epoch, best_params = val_micro, epoch, state.copy_params()
        adam_step(state, adam, lr)
        report.epochs_run = epoch + 1
        if val_idx.size and patience > 0 and (
                correct == val_idx.size or epoch - max(report.best_epoch, 0) >= patience):
            report.stopped_early = True
            break
    if best_params is not None:
        state.load_params(best_params)
        report.best_val_micro = float(best_val)
    else:
        report.best_epoch = report.epochs_run - 1
    return report


def held_out_metrics(probs: np.ndarray, labels: LabelVector) -> dict | None:
    """Metrics of the argmax of probs over the TEST rows; None without any."""
    idx = labels.rows_with(D.TEST)
    if idx.size == 0:
        return None
    pred = np.argmax(probs[idx], axis=1)
    return E.metrics_report(pred, labels.labels[idx], labels.n_classes).to_json_dict()


def fit(graph: MultiplexGraph, labels: LabelVector, cfg: TrainingConfig):
    """Train on one multiplex graph; returns (best ModelState, TrainReport).

    Epochs, selection and early stopping are select_epochs': a run stops
    right after its first perfect validation score, since no later epoch
    could be selected, so that stop leaves the selected parameters and the
    test metrics as they would be after every epoch. Deterministic in
    cfg.seed (corruption permutations derive from (seed, epoch)). With two or
    more usable CPUs one worker thread makes the next block of corrupted-view
    products during the steps (see _corrupted_inputs); it is joined before
    fit returns or raises, and an early stop leaves at most one block unused.
    The step's n-row arrays are made once (StepArrays) and rewritten every
    epoch. The steps run on a _TRAIN_DTYPE copy of the model and the
    attributes, and every graph product is made from that copy (see
    _TRAIN_DTYPE); the selected parameters come back as a float64
    ModelState. A multiplex whose relations are all edgeless raises
    DataError; one where only some are logs a warning naming them.
    """
    if labels.n_rows != graph.n_nodes:
        raise DataError("labels cover %d rows, graph has %d" % (labels.n_rows, graph.n_nodes))
    if len(graph.relations) != cfg.n_relations:
        raise DataError(
            "config says %d relations, graph has %d" % (cfg.n_relations, len(graph.relations))
        )
    edgeless = [r for r, g in enumerate(graph.relations) if g.n_edges == 0]
    if len(edgeless) == len(graph.relations):
        raise DataError("every relation is edgeless at thresholds %s: no graph to learn from"
                        % ", ".join("%g" % t for t in graph.thetas))
    if edgeless:
        log.warning("edgeless relations %s at thresholds %s: their encoders see no neighbours",
                    ", ".join(map(str, edgeless)),
                    ", ".join("%g" % graph.thetas[r] for r in edgeless))
    x = graph.attributes.x
    dims = ModelDims(
        n_nodes=graph.n_nodes,
        in_dim=x.shape[1],
        hidden_dim=cfg.embed_dim,
        n_relations=cfg.n_relations,
        n_classes=labels.n_classes,
    )
    state = ModelState(dims, seed=cfg.seed, dtype=_TRAIN_DTYPE)
    ops = [relation_operator(g) for g in graph.relations]
    # op @ x on top; where the layer propagates first, a bottom half takes
    # each epoch's op @ x[perm] (see _corrupted_inputs)
    n = graph.n_nodes
    rows = 2 * n if propagates_first(x.shape[1], cfg.embed_dim) else n
    x_step = x.astype(_TRAIN_DTYPE)  # every X[perm] is gathered from it
    stacks = np.empty((len(ops), rows, x.shape[1]), _TRAIN_DTYPE)
    for op, stack in zip(ops, stacks):
        stack[:n] = propagate(op, x_step)
    arrays = StepArrays(state)
    perms = _corrupted_inputs(x_step, ops, cfg, stacks)

    def step(epoch):
        s = loss_and_grads(state, ops, x_step, labels, cfg, next(perms), stacks, arrays)
        return s.total, s.probs, {"total": s.total, "infomax": s.infomax,
                                  "consensus": s.consensus, "supervised": s.supervised,
                                  "l2": s.l2}

    try:
        report = select_epochs(state, cfg.learning_rate, cfg.epochs, cfg.patience, labels, step)
    finally:
        perms.close()  # joins the block worker after any end of the loop
    best = ModelState(dims, seed=cfg.seed)
    best.unflatten(state.flat)  # exact: every float32 value is a float64 one
    report.config_hash = cfg.config_hash()
    report.seed = cfg.seed
    report.n_nodes = n
    # attention weights and test metrics of the selected model, in float64
    report.att_weights = [float(v) for v in attention_weights(best.params["att_logits"])]
    probs, _ = classify(best.params["consensus"], best.params["cls_w"], best.params["cls_b"])
    report.test_metrics = held_out_metrics(probs, labels)
    return best, report
