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

from .data import open_input
from .errors import DataError, NumericError
from .graph import _BAND, _TILE, RelationGraph

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

    def relation_stack(self, vec: np.ndarray, prefix: str) -> np.ndarray:
        """prefix_0 ... prefix_{R-1} of vec (flat or grad) as one (R, *shape)
        view; param_order keeps a prefix's R arrays consecutive."""
        first = self._order.index(prefix + "_0")
        lo, hi = self._bounds[first], self._bounds[first + self.dims.n_relations]
        return vec[lo:hi].reshape((self.dims.n_relations,) + self._shapes[first])


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


class PackedOperator:
    """D^-1/2 (A + I) D^-1/2 of a dense relation, held as the bits of A + I.

    `bits` holds one np.packbits row per node (n^2/8 bytes in all) and `dinv`
    the diagonal of D^-1/2, so op @ Y = dinv * ((A + I) @ (dinv * Y)). The
    bits are made from the graph's upper-triangle bits (upper_bits: a built
    graph's own, so no edge array is read) one band of _BAND rows at a time:
    a band takes its own upper bits and ORs in its columns' upper bits
    transposed (unpacked, transposed and packed again); then the diagonal is
    set. The band loop runs inline: np.packbits and np.unpackbits hold the
    interpreter lock, and on two threads it took longer than on one. The
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
        upper = graph.upper_bits()
        bits = np.empty_like(upper)
        for lo in range(0, n, _BAND):
            hi = min(lo + _BAND, n)
            # columns lo..hi-1 have upper bits in rows < hi only; lo is a
            # byte boundary of a packed row
            columns = np.unpackbits(upper[:hi, lo // 8:(hi + 7) // 8], axis=1, count=hi - lo)
            bits[lo:hi] = upper[lo:hi]
            bits[lo:hi, :(hi + 7) // 8] |= np.packbits(np.ascontiguousarray(columns.T), axis=1)
        diag = np.arange(n)
        bits[diag, diag >> 3] |= (128 >> (diag & 7)).astype(np.uint8)
        self.bits = bits
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


def rows_product(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """aᵀ b over the rows a and b share (their second-to-last axis), as the
    sum of the products of fixed _TILE-row chunks, left to right; stacked
    (R, rows, ·) inputs give one product per relation. OpenBLAS splits one
    GEMM over a long inner dimension differently at 1 and 2 threads, and
    the bytes then differ; fixed chunks keep them equal. The whole chunks
    are one batched product. out takes the result."""
    k = a.shape[-2]
    whole = k - k % _TILE

    def chunks(m):
        return m[..., :whole, :].reshape(m.shape[:-2] + (whole // _TILE, _TILE, m.shape[-1]))

    out = np.sum(np.matmul(np.swapaxes(chunks(a), -1, -2), chunks(b)), axis=-3, out=out)
    if whole < k:
        out += np.swapaxes(a[..., whole:, :], -1, -2) @ b[..., whole:, :]
    return out


def encode(ops: list, x: np.ndarray, w: np.ndarray, ax=None, out: np.ndarray | None = None):
    """H = relu(ops[r] @ X @ w[r]) of every relation, stacked (R, rows, d)
    for w of shape (R, in_dim, d), in the inputs' dtype; out takes it.

    ax, the rows ops[r] @ X of a caller whose X stays fixed, makes the layers
    one batched product (op X) W. Without ax the association follows
    propagates_first: each op applied to X, then one batched product; or X W
    for every relation in one broadcast product, then each op applied in
    place. H is rectified in place: H > 0 exactly where its pre-activations are.
    """
    if len(ops) != w.shape[0] or (ax is not None and len(ax) != w.shape[0]):
        raise DataError("relation count differs: %d operators, %d weights"
                        % (len(ops), w.shape[0]))
    width = (x if ax is None else ax).shape[-1]
    if width != w.shape[1]:
        raise DataError("input width %d does not match weight rows %d" % (width, w.shape[1]))
    if ax is None and propagates_first(width, w.shape[2]):
        ax = [propagate(op, x) for op in ops]
    if ax is not None:
        h = np.matmul(ax, w, out=out)
    else:
        h = np.matmul(x, w, out=out)
        for op, hr in zip(ops, h):
            hr[...] = propagate(op, hr)
    return np.maximum(h, 0.0, out=h)


@dataclass
class GcnCache:
    op: object  # CSR or PackedOperator
    x: np.ndarray
    ax: np.ndarray | None  # op @ x when the layer propagated first, else None
    w: np.ndarray
    h: np.ndarray  # the layer's output: positive exactly where its pre-activations are


def gcn_forward(op, x: np.ndarray, w: np.ndarray, ax: np.ndarray | None = None):
    """encode for one relation; returns (H, cache). Where the layer
    propagates first, X is propagated here unless ax = op @ x is given."""
    if ax is None and propagates_first(x.shape[1], w.shape[1]):
        ax = propagate(op, x)
    h = encode([op], x, w[None], None if ax is None else ax[None])[0]
    return h, GcnCache(op, x, ax, w, h)


def gcn_layer_backward(cache: GcnCache, dh: np.ndarray):
    """Returns (dW, dpre); a layer that propagated first makes no sparse product."""
    dpre = dh * (cache.h > 0.0)
    if cache.ax is not None:
        return cache.ax.T @ dpre, dpre
    return cache.x.T @ propagate(cache.op, dpre), dpre


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
    """s = sigmoid(column means of H); returns (s, cache). A stacked
    (R, n, d) H gives one summary per relation, (R, d). The column sums are
    one product with a ones vector, several times faster than mean()."""
    n = h.shape[-2]
    s = expit(np.ones(n, h.dtype) @ h / n)
    return s, SummaryCache(s, n)


def summary_backward(cache: SummaryCache, ds: np.ndarray) -> np.ndarray:
    """dH, every row of a relation the same: a read-only broadcast view of
    one row per relation."""
    row = ds * cache.s * (1.0 - cache.s) / cache.n
    return np.broadcast_to(row[..., None, :], row.shape[:-1] + (cache.n, row.shape[-1]))


@dataclass
class DiscCache:
    h: np.ndarray
    s: np.ndarray
    m: np.ndarray
    scores: np.ndarray
    ms: np.ndarray


def discriminate(h: np.ndarray, s: np.ndarray, m: np.ndarray):
    """Bilinear probe: sigmoid(h_i^T M s) per row; returns (scores, cache).

    Stacked inputs, h (R, rows, d), s (R, d) and m (R, d, d), probe each
    relation's rows with its own summary and form, in one batched product
    each; scores are then (R, rows).
    """
    if m.shape != s.shape[:-1] + (h.shape[-1], s.shape[-1]) or h.ndim != s.ndim + 1:
        raise DataError("discriminator shape mismatch")
    ms = (m @ s[..., None])[..., 0]
    scores = expit((h @ ms[..., None])[..., 0])
    return scores, DiscCache(h, s, m, scores, ms)


def discriminate_backward_pre(cache: DiscCache, da: np.ndarray, out: np.ndarray | None = None):
    """Backward with gradients already at the pre-sigmoid activations; out,
    an array of h's shape, takes dh."""
    dh = np.einsum("...i,...j->...ij", da, cache.ms, out=out)  # twice np.outer's speed
    hda = (da[..., None, :] @ cache.h)[..., 0, :]
    dm = hda[..., :, None] * cache.s[..., None, :]
    ds = (hda[..., None, :] @ cache.m)[..., 0, :]
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
    hs: np.ndarray  # R x rows x d
    weights: np.ndarray


def attention_weights(att_logits: np.ndarray) -> np.ndarray:
    """Softmax of the relation logits: the weights attentive_pool sums with."""
    e = np.exp(att_logits - att_logits.max())
    return e / e.sum()


def attentive_pool(hs, att_logits: np.ndarray, out: np.ndarray | None = None):
    """Relation-weighted sum of embeddings, weights = softmax of the logits.

    hs is one (R, rows, d) array or a list of R (rows, d) arrays, which is
    stacked. Returns (pooled, weights, cache). Weights are shared across
    nodes; they are the model's estimate of how informative each relation
    is. The sum is one product of the weights with the R flattened
    embeddings. out, an array of an embedding's shape, takes it.
    """
    hs = np.asarray(hs)
    if hs.shape[0] != att_logits.shape[0]:
        raise DataError("one attention logit per relation required")
    weights = attention_weights(att_logits)
    flat = np.matmul(weights, hs.reshape(hs.shape[0], -1),
                     out=None if out is None else out.reshape(-1))
    return flat.reshape(hs.shape[1:]), weights, PoolCache(hs, weights)


def attentive_pool_backward(cache: PoolCache, dpooled: np.ndarray,
                            add_into: np.ndarray | None = None,
                            scratch: np.ndarray | None = None):
    """Returns (dhs, dlogits), dhs one (R, rows, d) array.

    Given add_into, an array of that shape, each relation's gradient is
    added into its rows, through scratch (an array of dpooled's shape), and
    dhs is add_into.
    """
    w = cache.weights
    dw = cache.hs.reshape(w.shape[0], -1) @ dpooled.ravel()  # <dpooled, H_r> per relation
    dlogits = w * (dw - float(np.dot(w, dw)))
    if add_into is None:
        return w[:, None, None] * dpooled, dlogits
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


def classify_backward_from_logits(cache: ClassifyCache, dlogits: np.ndarray):
    """Same as classify_backward but with gradients already at the logits."""
    return dlogits @ cache.w.T, cache.o.T @ dlogits, dlogits.sum(axis=0)


class StepArrays:
    """The n-row arrays of the training step, made once per fit; every step
    writes them afresh, so a step's results hold only until the next step.

    Stacked over the R relations: h and dh (R x 2n x d), the embeddings,
    clean rows on top, and their gradient, and the bool relu mask of the
    same shape. Shared by the relations: the pool and one scratch for its
    terms, the consensus difference (2n x d) and dO (n x d), X[perm] for an
    n-row input (n x in_dim), and one vector of the parameters' size for the
    L2 term. The float arrays take the dtype of the state's parameters.
    """

    def __init__(self, state: ModelState):
        n, f, d = state.dims.n_nodes, state.dims.in_dim, state.dims.hidden_dim
        r_count, dtype = state.dims.n_relations, state.flat.dtype
        self.h = np.empty((r_count, 2 * n, d), dtype)
        self.dh = np.empty((r_count, 2 * n, d), dtype)
        self.mask = np.empty((r_count, 2 * n, d), dtype=bool)
        self.pool = np.empty((2 * n, d), dtype)
        self.term = np.empty((2 * n, d), dtype)
        self.diff = np.empty((2 * n, d), dtype)
        self.do = np.empty((n, d), dtype)
        self.x_perm = np.empty((n, f), dtype)
        self.flat = np.empty_like(state.flat)


@dataclass
class ForwardCache:
    """Everything one training step computes before the losses.

    Each relation's embeddings stack 2n rows: the n clean rows on top, the n
    corrupted rows (X[perm]) below. The pool stacks the same way, so the
    clean pool is pool[:n]. The arrays are the StepArrays' own.
    """

    ax: np.ndarray  # R x 2n x in_dim propagated inputs, or R x n x in_dim on the W-first side
    x_perm: np.ndarray | None  # X[perm] on the W-first side, else None
    h: np.ndarray  # R x 2n x d embeddings
    summaries: np.ndarray  # R x d readouts of the clean rows
    summary_cache: SummaryCache
    pool: np.ndarray  # 2n x d
    pool_cache: PoolCache


def model_forward(state: ModelState, ops: list, x: np.ndarray, perm: np.ndarray,
                  ax, arrays: StepArrays) -> ForwardCache:
    """Run every relation encoder once on the clean and corrupted rows, stacked.

    ax, an (R, rows, in_dim) array (or a list of R (rows, in_dim) arrays,
    which is stacked), holds propagate(ops[r], x) in the first n rows of
    relation r. fit builds one of two forms (see propagates_first). With 2n
    rows the last n hold ops[r] @ x[perm] and the step makes no graph
    product; with n rows encode makes the corrupted rows from X[perm] here,
    and the backward pass makes one more product. The embeddings and the
    pool are written into arrays.
    """
    n = x.shape[0]
    for a in ax:
        if a.shape[0] not in (n, 2 * n):
            raise DataError("propagated input has %d rows, expected %d or %d"
                            % (a.shape[0], n, 2 * n))
    if len({a.shape for a in ax}) != 1:
        raise DataError("need one propagated input per relation, all of one shape")
    ax = np.asarray(ax)
    w, h, x_perm = state.relation_stack(state.flat, "enc_w"), arrays.h, None
    encode(ops, x, w, ax, out=h[:, :ax.shape[1]])
    if ax.shape[1] == n:
        # mode "clip" writes straight into out; the default buffers it in a copy
        x_perm = np.take(x, perm, axis=0, out=arrays.x_perm, mode="clip")
        encode(ops, x_perm, w, out=h[:, n:])
    summaries, summary_cache = readout_summary(h[:, :n])
    pool, _, pool_cache = attentive_pool(h, state.params["att_logits"], out=arrays.pool)
    return ForwardCache(ax, x_perm, h, summaries, summary_cache, pool, pool_cache)


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
    with open_input(path, "rb") as fh:
        raw = fh.read()
        nl = raw.find(b"\n")
        if nl < 0:
            raise DataError("missing checkpoint header line")
        try:
            header = json.loads(raw[:nl].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError("bad checkpoint header (%s)" % exc) from None
        if not isinstance(header, dict):
            raise DataError("checkpoint header is not a JSON object")
        if header.get("format_version") != CHECKPOINT_VERSION:
            raise DataError("unsupported checkpoint version %r" % header.get("format_version"))
        d, params, seed = header.get("dims"), header.get("params"), header.get("seed", 0)
        if not (isinstance(d, dict) and sorted(d) == sorted(ModelDims.__dataclass_fields__)
                and all(type(v) is int for v in [*d.values(), seed])):
            raise DataError("checkpoint header needs integer dims and seed")
        if not (isinstance(params, list) and all(isinstance(p, dict) for p in params)):
            raise DataError("checkpoint header lacks a params list")
        state = ModelState(ModelDims(**d), seed=seed)
        if [p.get("name") for p in params] != state.param_order:
            raise DataError("parameter order does not match this version")
        for p in params:
            shape = list(state.params[p["name"]].shape)
            if p.get("shape") != shape:
                raise DataError("parameter %s has shape %s, expected %s"
                                % (p["name"], p.get("shape"), shape))
        blob = raw[nl + 1 :]
        if len(blob) != 8 * state.flat.size:  # a truncated blob need not end on a whole value
            raise DataError("blob has %d bytes, header says %d values"
                            % (len(blob), state.flat.size))
        state.unflatten(np.frombuffer(blob, dtype="<f8").astype(np.float64))
        try:
            state.check_finite("value")
        except NumericError as exc:  # a bad file, not a failed computation
            raise DataError(str(exc)) from None
    return state, header
