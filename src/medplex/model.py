"""Model parameters and differentiable building blocks.

Every forward op returns a cache holding exactly what its hand-written
backward needs. Parameters and gradients live in ModelState as views of one
flat vector each. A relation's normalized adjacency operator is CSR or, for
a dense relation, packed bits (relation_operator); it is symmetric, so
transposes never appear in the backward passes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError, NumericError
from .graph import _TILE, RelationGraph

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelDims:
    n_nodes: int
    in_dim: int
    hidden_dim: int
    n_relations: int
    n_classes: int

    def validate(self):
        if min(self.n_nodes, self.in_dim, self.hidden_dim, self.n_relations, self.n_classes) < 1:
            raise DataError("all model dimensions must be positive")


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class _Views(dict):
    """Name -> view into one flat vector. Assigning to a name copies the value
    into its view, so the vector never goes stale behind a rebound entry."""

    def __setitem__(self, name, value):
        view = self[name]
        if np.shape(value) != view.shape:
            raise DataError("%s has shape %s, expected %s" % (name, np.shape(value), view.shape))
        view[...] = value


class FlatParams:
    """Named parameters and their gradients, as views of one flat vector each.

    `flat` and `grad` hold every parameter in param_order, both of one float
    dtype; `params` and `grads` map each name to its view. Whole-vector
    operations (L2, finiteness checks, Adam) act on the vectors; error
    messages name the parameter.
    """

    def __init__(self, shapes: dict, dtype=np.float64):
        self._order = list(shapes)
        self._shapes = [tuple(s) for s in shapes.values()]
        self._bounds = np.cumsum([0] + [int(np.prod(s, dtype=int)) for s in self._shapes])
        self.flat = np.zeros(self._bounds[-1], dtype=dtype)
        self.grad = np.zeros(self._bounds[-1], dtype=dtype)
        self.params = self._views(self.flat)
        self.grads = self._views(self.grad)

    def _views(self, vec: np.ndarray) -> dict:
        views = _Views()
        for name, shape, lo, hi in zip(self._order, self._shapes, self._bounds, self._bounds[1:]):
            dict.__setitem__(views, name, vec[lo:hi].reshape(shape))
        return views

    @property
    def param_order(self) -> list[str]:
        return list(self._order)

    def zero_grads(self) -> None:
        self.grad.fill(0.0)

    def l2(self, scratch: np.ndarray | None = None) -> float:
        """Sum of squared parameters; scratch, a vector of flat's size, takes
        the squares."""
        # numpy's pairwise sum, not a BLAS dot: the bytes stay equal across thread counts
        return float(np.sum(np.multiply(self.flat, self.flat, out=scratch)))

    def add_l2_grads(self, gamma: float, scratch: np.ndarray | None = None) -> None:
        """Adds the gradient of gamma * l2() to grad, through scratch as l2 does."""
        if gamma == 0.0:
            return
        self.grad += np.multiply(self.flat, 2.0 * gamma, out=scratch)

    def check_finite(self, what: str = "parameter", vec: np.ndarray | None = None) -> None:
        """Raises NumericError naming the first parameter with a non-finite value
        in vec (default: the parameters)."""
        finite = np.isfinite(self.flat if vec is None else vec)
        if not finite.all():
            at = int(np.argmin(finite))
            name = self._order[int(np.searchsorted(self._bounds, at, side="right")) - 1]
            raise NumericError("non-finite %s: %s" % (what, name))

    def copy_params(self) -> dict:
        return dict(self._views(self.flat.copy()))

    def load_params(self, params: dict) -> None:
        for name in self._order:
            if name not in params:
                raise DataError("missing parameter %s" % name)
            self.params[name] = params[name]  # a wrong shape raises DataError

    def flatten(self) -> np.ndarray:
        return self.flat.copy()

    def unflatten(self, flat: np.ndarray) -> None:
        if flat.size != self.flat.size:
            raise DataError("flat vector has %d values, expected %d" % (flat.size, self.flat.size))
        self.flat[...] = flat


class ModelState(FlatParams):
    """All trainable parameters, their gradients, and the parameter order.

    Order is frozen (it is also the checkpoint blob order): per-relation
    encoder weights, per-relation discriminator forms, consensus matrix,
    attention logits, classifier weights, classifier bias. dtype is that of
    the two vectors: float64 for checkpoints and inference, float32 for the
    copy fit trains. The initial values are float64 draws rounded to float32
    whatever the dtype, so both start equal for one seed.
    """

    def __init__(self, dims: ModelDims, seed: int = 0, dtype=np.float64):
        dims.validate()
        self.dims = dims
        self.seed = seed
        r, f, d, c = dims.n_relations, dims.in_dim, dims.hidden_dim, dims.n_classes
        shapes = {"enc_w_%d" % i: (f, d) for i in range(r)}
        shapes.update(("disc_m_%d" % i, (d, d)) for i in range(r))
        shapes.update(consensus=(dims.n_nodes, d), att_logits=(r,), cls_w=(d, c), cls_b=(c,))
        super().__init__(shapes, dtype)
        rng = np.random.default_rng(seed)  # draws in param_order; logits and bias stay 0
        for i in range(r):
            self.params["enc_w_%d" % i] = _xavier(rng, f, d)
        for i in range(r):
            self.params["disc_m_%d" % i] = _xavier(rng, d, d)
        self.params["consensus"] = rng.normal(0.0, 0.01, size=(dims.n_nodes, d))
        self.params["cls_w"] = _xavier(rng, d, c)
        self.flat[...] = self.flat.astype(np.float32)


def normalize_adjacency(graph: RelationGraph):
    """Symmetric operator D^-1/2 (A + I) D^-1/2 with degrees from A + I, as a
    scipy.sparse CSR matrix.

    The self loop keeps every degree at 1 or more. A + I is built as CSR from
    the stored upper triangle and scaled in place, row factor first, so the
    transient memory stays within a small multiple of the returned operator.
    scipy.sparse is imported here, the one place that needs it, so a run
    whose relations are all dense never loads it.
    """
    import scipy.sparse as sp

    n = graph.n
    i, j = graph.edges[:, 0], graph.edges[:, 1]
    upper = sp.csr_matrix((np.ones(graph.n_edges), (i, j)), shape=(n, n))
    a_hat = upper + upper.T + sp.identity(n, format="csr")
    dinv = 1.0 / np.sqrt(graph.degrees() + 1.0)
    a_hat.data *= np.repeat(dinv, np.diff(a_hat.indptr))
    a_hat.data *= dinv[a_hat.indices]
    return a_hat


# Share of nonzeros ((2E + n) / n^2 of A + I) from which a relation's operator
# is a PackedOperator rather than CSR. Set from timings on one BLAS thread
# (README, "Training cost and memory").
_DENSE_FROM = 0.14

_PACK_CHUNK = 1 << 16  # edges set per pass while packing


class PackedOperator:
    """D^-1/2 (A + I) D^-1/2 of a dense relation, held as the bits of A + I.

    `bits` holds one np.packbits row per node (n^2/8 bytes in all) and `dinv`
    the diagonal of D^-1/2, so op @ Y = dinv * ((A + I) @ (dinv * Y)). The
    product works through _TILE x _TILE blocks of A + I, each unpacked into
    one reused float tile, and adds a row block's products left to right; the
    fixed inner dimension keeps the bytes equal at 1 and 2 BLAS threads, where
    one full-width product per row block differs. The product is made in Y's
    float dtype (float64 for an integer Y): the tile, dinv and the result
    all take it, so a float32 Y gets float32 GEMMs. A float64 result is
    within rounding of the CSR product, not bitwise equal to it.
    """

    def __init__(self, graph: RelationGraph):
        n = graph.n
        width = (n + 7) // 8
        flat = np.zeros(n * width, dtype=np.uint8)
        # each edge sets bit j of row i and bit i of row j; the int64 byte
        # offsets are built one chunk of edges at a time
        for lo in range(0, graph.n_edges, _PACK_CHUNK):
            chunk = graph.edges[lo:lo + _PACK_CHUNK].astype(np.int64)
            for i, j in ((chunk[:, 0], chunk[:, 1]), (chunk[:, 1], chunk[:, 0])):
                np.bitwise_or.at(flat, i * width + (j >> 3), (128 >> (j & 7)).astype(np.uint8))
        diag = np.arange(n, dtype=np.int64)
        flat[diag * width + (diag >> 3)] |= (128 >> (diag & 7)).astype(np.uint8)
        self.bits = flat.reshape(n, width)
        self.dinv = 1.0 / np.sqrt(graph.degrees() + 1.0)
        self.shape = (n, n)
        self.nnz = 2 * graph.n_edges + n

    def __matmul__(self, y: np.ndarray) -> np.ndarray:
        n = self.shape[0]
        dtype = y.dtype if y.dtype.kind == "f" else np.float64
        dinv = self.dinv.astype(dtype, copy=False)
        out = np.empty((n, y.shape[1]), dtype)
        buf = np.empty((min(_TILE, n),) * 2, dtype)  # every block is unpacked into it
        for c in range(0, n, _TILE):
            z = y[c:c + _TILE] * dinv[c:c + _TILE, None]
            cols = self.bits[:, c // 8:(c + z.shape[0] + 7) // 8]
            for lo in range(0, n, _TILE):
                block = buf[:min(_TILE, n - lo), :z.shape[0]]
                block[...] = np.unpackbits(cols[lo:lo + _TILE], axis=1, count=z.shape[0])
                if c:
                    out[lo:lo + _TILE] += block @ z
                else:
                    np.matmul(block, z, out=out[lo:lo + _TILE])
        out *= dinv[:, None]
        return out


def relation_operator(graph: RelationGraph):
    """The GCN operator of one relation: CSR (normalize_adjacency) below
    _DENSE_FROM, a PackedOperator from it. Either one is `op` wherever an
    operator is taken, and propagate multiplies by it."""
    n = graph.n
    if 2 * graph.n_edges + n < _DENSE_FROM * n * n:
        return normalize_adjacency(graph)
    return PackedOperator(graph)


def propagate(op, x: np.ndarray) -> np.ndarray:
    """op @ X, the graph product of a GCN layer. X may stack the inputs of
    several epochs side by side; each CSR output column is bitwise the
    product of its own input column."""
    if op.shape[0] != x.shape[0]:
        raise DataError("operator size %d does not match %d rows" % (op.shape[0], x.shape[0]))
    return op @ x


def propagates_first(in_width: int, out_width: int) -> bool:
    """Whether a GCN layer evaluates op X W as (op @ X) @ W, not op @ (X @ W).

    The operator is symmetric, so both give the same H and dW. Propagating
    first makes the one forward sparse product at the input width and leaves
    the backward pass none (dW = (op X)^T dpre); applying W first makes it at
    the output width, and the backward pass makes one more (op @ dpre). The
    narrower forward product wins; ties propagate first.
    """
    return in_width <= out_width


@dataclass
class GcnCache:
    op: object  # CSR or PackedOperator
    x: np.ndarray
    ax: np.ndarray | None  # op @ x when the layer propagated first, else None
    w: np.ndarray
    h: np.ndarray  # the layer's output: positive exactly where its pre-activations are


def gcn_layer(op, x: np.ndarray, w: np.ndarray, ax: np.ndarray | None = None,
              out: np.ndarray | None = None):
    """H = relu(op @ X @ W); returns (H, cache).

    ax = op @ x, from a caller whose X stays fixed across calls, makes the
    layer (op X) W with no sparse product. ax may stack more rows than X,
    as fit's 2n-row [op X; op X[perm]] over an n-row X does; H and the
    cache then cover all of them. Without ax the association follows
    propagates_first. out, an array of H's shape, takes the pre-activations
    and then, rectified in place, H; only a W-first layer's graph product
    is then made afresh.
    """
    if x.shape[1] != w.shape[0]:
        raise DataError("input width %d does not match weight rows %d" % (x.shape[1], w.shape[0]))
    if ax is None and propagates_first(x.shape[1], w.shape[1]):
        ax = propagate(op, x)
    if ax is not None:
        h = np.matmul(ax, w, out=out)
    else:
        h = np.matmul(x, w, out=out)
        h[...] = propagate(op, h)
    np.maximum(h, 0.0, out=h)
    return h, GcnCache(op, x, ax, w, h)


def gcn_layer_backward(cache: GcnCache, dh: np.ndarray, mask: np.ndarray | None = None,
                       out: np.ndarray | None = None):
    """Returns (dW, dpre); a layer that propagated first makes no sparse product.

    mask, a bool array of dh's shape, takes the relu's mask and out takes
    dpre; out may be dh itself.
    """
    # a multiply by the mask; np.where is several times slower
    dpre = np.multiply(dh, np.greater(cache.h, 0.0, out=mask), out=out)
    if cache.ax is not None:
        return cache.ax.T @ dpre, dpre
    return cache.x.T @ propagate(cache.op, dpre), dpre


def gcn_forward(op, x: np.ndarray, w: np.ndarray):
    """H = relu(op @ X @ W); returns (H, cache). See propagates_first."""
    return gcn_layer(op, x, w)


def gcn_backward(cache: GcnCache, dh: np.ndarray):
    """Returns (dW, dX). Relies on the operator being symmetric."""
    dw, dpre = gcn_layer_backward(cache, dh)
    dx = propagate(cache.op, dpre @ cache.w.T)
    return dw, dx


def expit(x):
    """The logistic sigmoid 1 / (1 + exp(-x)), elementwise, in one buffer of
    x's float dtype (float64 for a Python scalar or an integer input). Where
    exp(-x) overflows to inf the result is exactly 0; nan stays nan."""
    x = np.asarray(x)
    dtype = x.dtype if x.dtype.kind == "f" else np.float64
    out = np.negative(x, out=np.empty(x.shape, dtype))  # an array also for scalar x
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


@dataclass
class SummaryCache:
    s: np.ndarray
    n: int


def readout_summary(h: np.ndarray):
    """s = sigmoid(column means of H); returns (s, cache)."""
    s = expit(h.mean(axis=0))
    return s, SummaryCache(s, h.shape[0])


def summary_backward(cache: SummaryCache, ds: np.ndarray) -> np.ndarray:
    """dH, every row the same: a read-only broadcast view of one row."""
    row = ds * cache.s * (1.0 - cache.s) / cache.n
    return np.broadcast_to(row, (cache.n, row.shape[0]))


@dataclass
class DiscCache:
    h: np.ndarray
    s: np.ndarray
    m: np.ndarray
    scores: np.ndarray
    ms: np.ndarray


def discriminate(h: np.ndarray, s: np.ndarray, m: np.ndarray):
    """Bilinear probe: sigmoid(h_i^T M s) per row; returns (scores, cache)."""
    if m.shape != (h.shape[1], s.shape[0]):
        raise DataError("discriminator shape mismatch")
    ms = m @ s
    scores = expit(h @ ms)
    return scores, DiscCache(h, s, m, scores, ms)


def discriminate_backward_pre(cache: DiscCache, da: np.ndarray, out: np.ndarray | None = None):
    """Backward with gradients already at the pre-sigmoid activations; out,
    an array of h's shape, takes dh."""
    dh = np.outer(da, cache.ms, out=out)
    hda = cache.h.T @ da
    dm = np.outer(hda, cache.s)
    ds = cache.m.T @ hda
    return dh, ds, dm


def discriminate_backward(cache: DiscCache, dscores: np.ndarray):
    """Returns (dh, ds, dm) for gradients arriving at the sigmoid outputs."""
    da = dscores * cache.scores * (1.0 - cache.scores)
    return discriminate_backward_pre(cache, da)


def corrupt_features(x: np.ndarray, seed) -> np.ndarray:
    """Row permutation that corrupts X into X[perm] (one per step).

    Only the permutation is returned. It depends on the seed alone, so a
    trainer may gather the corrupted rows of many steps at once and propagate
    them side by side as one block (see propagate).
    """
    rng = np.random.default_rng(seed)
    return rng.permutation(x.shape[0])


@dataclass
class PoolCache:
    hs: list
    weights: np.ndarray


def attention_weights(att_logits: np.ndarray) -> np.ndarray:
    """Softmax of the relation logits: the weights attentive_pool sums with."""
    e = np.exp(att_logits - att_logits.max())
    return e / e.sum()


def attentive_pool(hs: list, att_logits: np.ndarray, out: np.ndarray | None = None,
                   scratch: np.ndarray | None = None):
    """Relation-weighted sum of embeddings, weights = softmax of the logits.

    Returns (pooled, weights, cache). Weights are shared across nodes; they
    are the model's estimate of how informative each relation is. The sum is
    taken element by element, so a row's result does not depend on how many
    rows are pooled with it. out and scratch, arrays of an embedding's shape,
    take the sum and each weighted term before it is added.
    """
    if len(hs) != att_logits.shape[0]:
        raise DataError("one attention logit per relation required")
    weights = attention_weights(att_logits)
    pooled = np.multiply(hs[0], weights[0], out=out)
    for w, h in zip(weights[1:], hs[1:]):
        pooled += np.multiply(h, w, out=scratch)
    return pooled, weights, PoolCache(list(hs), weights)


def attentive_pool_backward(cache: PoolCache, dpooled: np.ndarray, add_into: list | None = None,
                            scratch: np.ndarray | None = None):
    """Returns (dhs list, dlogits).

    Given add_into, one array per relation, each relation's gradient is added
    into its array, through scratch (an array of dpooled's shape), and dhs
    is add_into.
    """
    w = cache.weights
    dw = np.array([np.einsum("i,i->", dpooled.ravel(), h.ravel()) for h in cache.hs])
    dlogits = w * (dw - float(np.dot(w, dw)))
    if add_into is None:
        return [w[r] * dpooled for r in range(w.shape[0])], dlogits
    for r, dh in enumerate(add_into):
        dh += np.multiply(dpooled, w[r], out=scratch)
    return add_into, dlogits


@dataclass
class ClassifyCache:
    o: np.ndarray
    w: np.ndarray
    probs: np.ndarray


def classify(o: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Row-wise softmax of O @ W + b; returns (probs, cache)."""
    if o.shape[1] != w.shape[0]:
        raise DataError("embedding width %d does not match head rows %d" % (o.shape[1], w.shape[0]))
    logits = o @ w + b
    # the row max column by column: exact like max(axis=1), and many times
    # faster on the few columns of a head
    top = logits[:, 0].copy()
    for k in range(1, logits.shape[1]):
        np.maximum(top, logits[:, k], out=top)
    logits -= top[:, None]
    e = np.exp(logits)
    probs = e / e.sum(axis=1, keepdims=True)
    return probs, ClassifyCache(o, w, probs)


def classify_backward(cache: ClassifyCache, dprobs: np.ndarray):
    """Returns (do, dw, db) through the softmax and the affine map."""
    p = cache.probs
    dlogits = p * (dprobs - np.sum(dprobs * p, axis=1, keepdims=True))
    return classify_backward_from_logits(cache, dlogits)


def classify_backward_from_logits(cache: ClassifyCache, dlogits: np.ndarray,
                                  out: np.ndarray | None = None):
    """Same as classify_backward but with gradients already at the logits;
    out, an array of o's shape, takes do."""
    dw = cache.o.T @ dlogits
    db = dlogits.sum(axis=0)
    do = np.matmul(dlogits, cache.w.T, out=out)
    return do, dw, db


class StepArrays:
    """The n-row arrays of the training step, made once per fit; every step
    writes them afresh, so a step's results hold only until the next step.

    Per relation, h and dh (2n x d): its embeddings, clean rows on top, and
    their gradient. Shared by the relations: the pool and one scratch for
    its terms, the consensus difference (2n x d) and dO (n x d), the head's
    dO (n x d), one bool relu mask (2n x d), X[perm] for an n-row input
    (n x in_dim), and one vector of the parameters' size for the L2 term.
    The float arrays take the dtype of the state's parameters.
    """

    def __init__(self, state: ModelState):
        n, f, d = state.dims.n_nodes, state.dims.in_dim, state.dims.hidden_dim
        r_count, dtype = state.dims.n_relations, state.flat.dtype
        self.h = [np.empty((2 * n, d), dtype) for _ in range(r_count)]
        self.dh = [np.empty((2 * n, d), dtype) for _ in range(r_count)]
        self.pool = np.empty((2 * n, d), dtype)
        self.term = np.empty((2 * n, d), dtype)
        self.diff = np.empty((2 * n, d), dtype)
        self.do = np.empty((n, d), dtype)
        self.head_do = np.empty((n, d), dtype)
        self.mask = np.empty((2 * n, d), dtype=bool)
        self.x_perm = np.empty((n, f), dtype)
        self.flat = np.empty_like(state.flat)


@dataclass
class ForwardCache:
    """Everything one training step computes before the losses.

    Each relation's embeddings stack 2n rows: the n clean rows on top, the n
    corrupted rows (X[perm]) below. The pool stacks the same way, so the
    clean pool is pool[:n]. A relation's layers are one GcnCache over all 2n
    rows where the layer propagated first, else the clean rows' cache and
    the corrupted rows' cache. The arrays are the StepArrays' own.
    """

    layers: list  # per relation: GcnCaches covering the 2n rows top to bottom
    h: list  # per relation: 2n x d embeddings
    summaries: list  # per relation: readout of the clean rows
    summary_caches: list
    pool: np.ndarray  # 2n x d
    pool_cache: PoolCache


def model_forward(state: ModelState, ops: list, x: np.ndarray, perm: np.ndarray,
                  ax: list, arrays: StepArrays) -> ForwardCache:
    """Run every relation encoder once on the clean and corrupted rows, stacked.

    ax[r] holds propagate(ops[r], x) in its first n rows, in one of the two
    forms fit builds. Where the layer propagates first, ax[r] has 2n rows,
    the last n holding ops[r] @ x[perm], and the step makes no sparse
    product. Where X is wider than the embedding, ax[r] has n rows and the
    corrupted rows apply W first: op @ (X[perm] W) here and one more product
    in the backward pass (see propagates_first). Either way the embeddings
    and the pool are written into arrays.
    """
    if len(ops) != state.dims.n_relations:
        raise DataError("operator count does not match n_relations")
    n = x.shape[0]
    for a in ax:
        if a.shape[0] not in (n, 2 * n):
            raise DataError("propagated input has %d rows, expected %d or %d"
                            % (a.shape[0], n, 2 * n))
    if any(a.shape[0] == n for a in ax):
        # mode "clip" writes straight into out; the default buffers it in a copy
        np.take(x, perm, axis=0, out=arrays.x_perm, mode="clip")
    layers, s_list, sc = [], [], []
    for r, h in enumerate(arrays.h):
        w = state.params["enc_w_%d" % r]
        rows = ax[r].shape[0]
        layers.append([gcn_layer(ops[r], x, w, ax[r], out=h[:rows])[1]])
        if rows == n:
            layers[-1].append(gcn_layer(ops[r], arrays.x_perm, w, out=h[n:])[1])
        sr, c3 = readout_summary(h[:n])
        s_list.append(sr)
        sc.append(c3)
    pool, _, pc = attentive_pool(arrays.h, state.params["att_logits"],
                                 out=arrays.pool, scratch=arrays.term)
    return ForwardCache(
        layers=layers,
        h=arrays.h,
        summaries=s_list,
        summary_caches=sc,
        pool=pool,
        pool_cache=pc,
    )


def save_checkpoint(path, state: ModelState, config_hash: str = ""):
    """One sorted-key JSON header line, then the little-endian float64 blob."""
    header = {
        "format_version": CHECKPOINT_VERSION,
        "dims": asdict(state.dims),
        "seed": state.seed,
        "config_hash": config_hash,
        "params": [
            {"name": name, "shape": list(state.params[name].shape)}
            for name in state.param_order
        ],
    }
    blob = state.flatten().astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(blob)


def load_checkpoint(path):
    """Returns (ModelState, header dict). Shape mismatches are hard errors."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise DataError("missing file: %s" % path) from None
    nl = raw.find(b"\n")
    if nl < 0:
        raise DataError("%s: missing checkpoint header line" % path)
    try:
        header = json.loads(raw[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError("%s: bad checkpoint header (%s)" % (path, exc)) from None
    if not isinstance(header, dict):
        raise DataError("%s: checkpoint header is not a JSON object" % path)
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise DataError("%s: unsupported checkpoint version %r" % (path, header.get("format_version")))
    d, params, seed = header.get("dims"), header.get("params"), header.get("seed", 0)
    if not (isinstance(d, dict) and sorted(d) == sorted(ModelDims.__dataclass_fields__)
            and all(type(v) is int for v in [*d.values(), seed])):
        raise DataError("%s: checkpoint header needs integer dims and seed" % path)
    if not (isinstance(params, list) and all(isinstance(p, dict) for p in params)):
        raise DataError("%s: checkpoint header lacks a params list" % path)
    state = ModelState(ModelDims(**d), seed=seed)
    if [p.get("name") for p in params] != state.param_order:
        raise DataError("%s: parameter order does not match this version" % path)
    for p in params:
        shape = list(state.params[p["name"]].shape)
        if p.get("shape") != shape:
            raise DataError("%s: parameter %s has shape %s, expected %s"
                            % (path, p["name"], p.get("shape"), shape))
    blob = raw[nl + 1 :]
    if len(blob) != 8 * state.flat.size:  # a truncated blob need not end on a whole value
        raise DataError("%s: blob has %d bytes, header says %d values"
                        % (path, len(blob), state.flat.size))
    state.unflatten(np.frombuffer(blob, dtype="<f8").astype(np.float64))
    return state, header
