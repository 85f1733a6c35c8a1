import os
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import expit

from conftest import CountingOp, fd_grad, max_rel_err, random_graph, stdout_at_blas_threads
from medplex import model as model_module
from medplex.data import EmbeddingTable, FeatureTable, SynthConfig, generate_synthetic_cohort
from medplex.errors import DataError, NumericError
from medplex.graph import RelationGraph, attach_new_nodes
from medplex.model import (
    ModelDims,
    ModelState,
    PackedOperator,
    attentive_pool,
    attentive_pool_backward,
    classify,
    classify_backward,
    corrupt_features,
    discriminate,
    discriminate_backward,
    gcn_backward,
    gcn_forward,
    gcn_layer_backward,
    load_checkpoint,
    normalize_adjacency,
    propagate,
    propagates_first,
    readout_summary,
    relation_operator,
    save_checkpoint,
    summary_backward,
)
from medplex.pipeline import build_graph_for
from medplex.train import preset_config


def dense_normalized(graph):
    """Independent dense oracle for D^-1/2 (A + I) D^-1/2."""
    n = graph.n
    a = np.zeros((n, n))
    for i, j in graph.edges:
        a[i, j] = 1.0
        a[j, i] = 1.0
    a += np.eye(n)
    d = a.sum(axis=1)
    dinv = 1.0 / np.sqrt(d)
    return a * dinv[:, None] * dinv[None, :]


# ---------------------------------------------------------------- adjacency


def test_adjacency_isolated_node():
    g = RelationGraph(n=1, edges=np.zeros((0, 2)))
    op = normalize_adjacency(g)
    assert op.toarray() == pytest.approx(np.array([[1.0]]))


def test_adjacency_edgeless_is_identity():
    g = RelationGraph(n=5, edges=np.zeros((0, 2)))
    assert np.array_equal(normalize_adjacency(g).toarray(), np.eye(5))


def test_adjacency_two_connected_nodes():
    g = RelationGraph(n=2, edges=np.array([[0, 1]]))
    op = normalize_adjacency(g).toarray()
    assert np.allclose(op, 0.5)


def test_adjacency_symmetric_bit_exact():
    rng = np.random.default_rng(0)
    for trial in range(10):
        n = int(rng.integers(2, 15))
        iu, ju = np.triu_indices(n, k=1)
        keep = rng.random(iu.shape[0]) < 0.4
        g = RelationGraph(n=n, edges=np.stack([iu[keep], ju[keep]], axis=1))
        op = normalize_adjacency(g).toarray()
        assert np.array_equal(op, op.T)


def test_adjacency_matches_dense_oracle():
    rng = np.random.default_rng(1)
    for trial in range(10):
        n = int(rng.integers(2, 12))
        iu, ju = np.triu_indices(n, k=1)
        keep = rng.random(iu.shape[0]) < 0.5
        g = RelationGraph(n=n, edges=np.stack([iu[keep], ju[keep]], axis=1))
        assert normalize_adjacency(g).toarray() == pytest.approx(dense_normalized(g), abs=1e-12)


def coo_normalized(graph):
    """The COO construction normalize_adjacency used before it built CSR directly."""
    n = graph.n
    if graph.edges.size:
        i = graph.edges[:, 0]
        j = graph.edges[:, 1]
        rows = np.concatenate([i, j, np.arange(n)])
        cols = np.concatenate([j, i, np.arange(n)])
        vals = np.ones(rows.shape[0])
    else:
        rows = cols = np.arange(n)
        vals = np.ones(n)
    a_hat = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    deg = np.asarray(a_hat.sum(axis=1)).ravel()
    dinv = 1.0 / np.sqrt(deg)
    vals = a_hat.data * dinv[a_hat.row] * dinv[a_hat.col]
    return sp.coo_matrix((vals, (a_hat.row, a_hat.col)), shape=(n, n)).tocsr()


def assert_same_csr(a, b):
    assert a.shape == b.shape
    for name in ("data", "indices", "indptr"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def test_adjacency_bytes_equal_coo_construction():
    rng = np.random.default_rng(42)
    for n, p in ((1, 0.0), (2, 1.0), (7, 0.0), (40, 0.3), (300, 0.05), (300, 0.4)):
        g = random_graph(rng, n, p)
        assert_same_csr(normalize_adjacency(g), coo_normalized(g))


def test_adjacency_bytes_equal_coo_construction_after_attach():
    scfg = SynthConfig(n=140, n_classes=2, n_types=2, cols_per_type=3, embed_dim=2, seed=43)
    table, emb, _, _ = generate_synthetic_cohort(scfg)

    def rows(lo, hi):
        ids = table.row_ids[lo:hi]
        return (FeatureTable(table.values[lo:hi], list(table.column_names),
                             list(table.column_kinds), ids),
                EmbeddingTable(emb.values[lo:hi], ids))

    g = build_graph_for(*rows(0, 120), preset_config("synth", seed=43))
    ext = attach_new_nodes(g, *rows(120, 140))
    unsorted = 0
    for rel in ext.relations:
        keys = rel.edges[:, 0] * rel.n + rel.edges[:, 1]
        unsorted += bool(np.any(keys[1:] < keys[:-1]))
        assert_same_csr(normalize_adjacency(rel), coo_normalized(rel))
    assert unsorted  # old edges, then the arrivals' pairs: not row-major


def test_adjacency_memory_stays_near_output():
    g = random_graph(np.random.default_rng(45), 1000, 0.2)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        op = normalize_adjacency(g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    out = op.data.nbytes + op.indices.nbytes + op.indptr.nbytes
    assert peak < 3.5 * out, (peak, out)


# ---------------------------------------------------------------- block products


def stacked(x, perms):
    """[x[p0] | x[p1] | ...], the block fit propagates for len(perms) epochs."""
    return x[np.stack(perms, axis=1)].reshape(x.shape[0], -1)


@pytest.mark.parametrize("n", [1, 255, 257, 513])
def test_propagate_block_matches_per_input_products(n, monkeypatch):
    rng = np.random.default_rng(46 + n)
    x = rng.normal(size=(n, 5))
    graphs = {
        "edgeless": RelationGraph(n=n, edges=np.zeros((0, 2))),
        "sparse": random_graph(rng, n, 0.02),
        "dense": random_graph(rng, n, 0.4),
    }
    csr = {kind: normalize_adjacency(g) for kind, g in graphs.items()}
    ops = {kind: relation_operator(g) for kind, g in graphs.items()}
    for kind, op in ops.items():
        for k in (8, 3):  # a full block and a final short one
            perms = [rng.permutation(n) for _ in range(k)]
            expected = np.hstack([csr[kind] @ x[p] for p in perms])
            counting = CountingOp(op)
            got = propagate(counting, stacked(x, perms))
            if isinstance(op, PackedOperator):
                assert np.max(np.abs(got - expected)) <= 1e-12, kind
            else:
                assert np.array_equal(got, expected), kind
            assert counting.widths == [5 * k], kind
    assert [isinstance(op, PackedOperator) for op in ops.values()] == (
        [True, True, True] if n == 1 else [False, False, True])
    # each kind of operator for every graph
    perms = [rng.permutation(n) for _ in range(4)]
    for dense_from in (0.0, np.inf):
        monkeypatch.setattr(model_module, "_DENSE_FROM", dense_from)
        for kind, g in graphs.items():
            expected = np.hstack([csr[kind] @ x[p] for p in perms])
            op = relation_operator(g)
            assert isinstance(op, PackedOperator) == (dense_from == 0.0), kind
            got = propagate(op, stacked(x, perms))
            if dense_from:
                assert np.array_equal(got, expected), kind
            else:
                assert np.max(np.abs(got - expected)) <= 1e-12, kind


def test_propagate_block_rejects_size_mismatch(monkeypatch):
    for dense_from in (0.0, np.inf):
        monkeypatch.setattr(model_module, "_DENSE_FROM", dense_from)
        with pytest.raises(DataError):
            propagate(relation_operator(RelationGraph(n=3, edges=np.zeros((0, 2)))),
                      np.zeros((4, 2)))


def assert_packed_matches_csr(g, rng):
    """Packed product against the CSR one, entry by entry within 4 eps of
    the scale |op| @ |Y| a dot product's rounding is measured against."""
    csr, packed = normalize_adjacency(g), PackedOperator(g)
    assert packed.shape == csr.shape and packed.nnz == csr.nnz
    bits = np.unpackbits(packed.bits, axis=1, count=g.n)
    assert np.array_equal(bits, (csr.toarray() != 0).astype(np.uint8))
    for width in (1, 7, 40):
        y = rng.normal(size=(g.n, width))
        want = csr @ y
        scale = abs(csr) @ np.abs(y)
        assert np.all(np.abs(packed @ y - want) <= 4 * np.finfo(float).eps * scale), width


def test_packed_operator_matches_csr():
    rng = np.random.default_rng(47)
    for n in (1, 3, 301, 517):  # neither a multiple of 8 nor of 256 past n = 1
        g = random_graph(rng, n, 0.3)
        # isolate the first and the last node
        keep = ~np.isin(g.edges, [0, n - 1]).any(axis=1)
        g = RelationGraph(n=n, edges=g.edges[keep])
        assert n == 1 or (g.degrees()[[0, -1]] == 0).all()
        assert_packed_matches_csr(g, rng)
    # an extended graph: old edges, then the arrivals' pairs, not row-major
    scfg = SynthConfig(n=301, n_classes=2, n_types=2, cols_per_type=3, embed_dim=2, seed=48)
    table, emb, _, _ = generate_synthetic_cohort(scfg)

    def rows(lo, hi):
        ids = table.row_ids[lo:hi]
        return (FeatureTable(table.values[lo:hi], list(table.column_names),
                             list(table.column_kinds), ids),
                EmbeddingTable(emb.values[lo:hi], ids))

    ext = attach_new_nodes(build_graph_for(*rows(0, 270), preset_config("synth", seed=48)),
                           *rows(270, 301))
    for rel in ext.relations:
        keys = rel.edges[:, 0].astype(np.int64) * rel.n + rel.edges[:, 1]
        assert np.any(keys[1:] < keys[:-1])
        assert_packed_matches_csr(rel, rng)


def float64_packed_product(op, y):
    """PackedOperator's product as made before it followed Y's dtype: the
    float64 kernel, whose bytes a float64 Y must still get."""
    n, t = op.shape[0], model_module._TILE
    out = np.empty((n, y.shape[1]))
    buf = np.empty((min(t, n),) * 2)
    for c in range(0, n, t):
        z = y[c:c + t] * op.dinv[c:c + t, None]
        cols = op.bits[:, c // 8:(c + z.shape[0] + 7) // 8]
        for lo in range(0, n, t):
            block = buf[:min(t, n - lo), :z.shape[0]]
            block[...] = np.unpackbits(cols[lo:lo + t], axis=1, count=z.shape[0])
            if c:
                out[lo:lo + t] += block @ z
            else:
                np.matmul(block, z, out=out[lo:lo + t])
    out *= op.dinv[:, None]
    return out


def test_packed_product_follows_the_input_dtype():
    rng = np.random.default_rng(49)
    for n in (1, 301, 517):
        g = random_graph(rng, n, 0.3)
        op = PackedOperator(g)
        y = rng.normal(size=(n, 12))
        got = op @ y
        assert got.dtype == np.float64
        assert got.tobytes() == float64_packed_product(op, y).tobytes()
        got32 = op @ y.astype(np.float32)
        assert got32.dtype == np.float32
        assert np.max(np.abs(got32 - got)) <= 1e-6 * np.max(np.abs(got))
        ints = rng.integers(-3, 4, size=(n, 3))
        assert (op @ ints).tobytes() == (op @ ints.astype(np.float64)).tobytes()


_PACKED_DIGEST = """
import hashlib
import numpy as np
from medplex.graph import RelationGraph
from medplex.model import PackedOperator
rng = np.random.default_rng(50)
iu, ju = np.triu_indices(600, k=1)
keep = rng.random(iu.shape[0]) < 0.3
op = PackedOperator(RelationGraph(n=600, edges=np.stack([iu[keep], ju[keep]], axis=1)))
y = rng.normal(size=(600, 144)).astype(np.float32)
print(hashlib.sha256((op @ y).tobytes()).hexdigest())
"""


def test_float32_packed_product_bytes_equal_across_blas_threads():
    # n = 600 spans three tiles; 144 columns is fit's block width
    digests = stdout_at_blas_threads(_PACKED_DIGEST)
    assert len(digests[0]) == 64 and digests[0] == digests[1]


# ---------------------------------------------------------------- gcn layer


def identity_op(n):
    return normalize_adjacency(RelationGraph(n=n, edges=np.zeros((0, 2))))


def test_gcn_identity_operator():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 4))
    w = rng.normal(size=(4, 3))
    h, _ = gcn_forward(identity_op(6), x, w)
    assert h == pytest.approx(np.maximum(x @ w, 0.0))


def test_gcn_relu_kills_negative():
    x = np.array([[1.0]])
    w = np.array([[-2.0]])
    h, cache = gcn_forward(identity_op(1), x, w)
    assert h[0, 0] == 0.0
    dw, dx = gcn_backward(cache, np.ones_like(h))
    assert dw[0, 0] == 0.0 and dx[0, 0] == 0.0


def test_gcn_gradients_match_fd():
    rng = np.random.default_rng(4)
    n, f = 7, 5
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.shape[0]) < 0.5
    op = normalize_adjacency(RelationGraph(n=n, edges=np.stack([iu[keep], ju[keep]], axis=1)))
    x = rng.normal(size=(n, f))
    for d in (3, 8):  # applies W first, then propagates first
        w = rng.normal(size=(f, d))
        r = rng.normal(size=(n, d))  # random projection so the loss is scalar

        h, cache = gcn_forward(op, x, w)
        assert (cache.ax is not None) == propagates_first(f, d)
        dw, dx = gcn_backward(cache, r)

        fd_w = fd_grad(lambda v: float(np.sum(gcn_forward(op, x, v.reshape(f, d))[0] * r)), w.ravel())
        fd_x = fd_grad(lambda v: float(np.sum(gcn_forward(op, v.reshape(n, f), w)[0] * r)), x.ravel())
        assert max_rel_err(dw.ravel(), fd_w) < 1e-4, d
        assert max_rel_err(dx.ravel(), fd_x) < 1e-4, d


def test_gcn_layer_matches_propagate_last():
    """Both associations against relu(op (X W)) and X^T (op dpre)."""
    rng = np.random.default_rng(40)
    n, f = 25, 6
    for trial in range(4):
        iu, ju = np.triu_indices(n, k=1)
        keep = rng.random(iu.shape[0]) < 0.3
        edges = np.stack([iu[keep], ju[keep]], axis=1)
        graphs = {
            "edgeless": RelationGraph(n=n, edges=np.zeros((0, 2))),
            "unweighted": RelationGraph(n=n, edges=edges),
        }
        x = rng.normal(size=(n, f))
        for d in (4, 9):
            w = rng.normal(size=(f, d))
            dh = rng.normal(size=(n, d))
            for kind, g in graphs.items():
                op = normalize_adjacency(g)
                old_pre = op @ (x @ w)
                old_dpre = np.where(old_pre > 0.0, dh, 0.0)
                old_dxw = op @ old_dpre

                # propagated once by the caller, and chosen from the widths
                for h, cache in (gcn_forward(op, x, w, propagate(op, x)), gcn_forward(op, x, w)):
                    dw, dpre = gcn_layer_backward(cache, dh)
                    assert np.max(np.abs(h - np.maximum(old_pre, 0.0))) <= 1e-12, kind
                    assert np.array_equal(dpre, old_dpre), kind
                    assert np.max(np.abs(dw - x.T @ old_dxw)) <= 1e-12, kind

                # the layer chosen from the widths again, and its dX
                h2, cache2 = gcn_forward(op, x, w)
                dw2, dx2 = gcn_backward(cache2, dh)
                assert np.array_equal(h2, h) and np.array_equal(dw2, dw), kind
                assert np.max(np.abs(dx2 - old_dxw @ w.T)) <= 1e-12, kind


def test_gcn_layer_propagates_the_narrower_side():
    rng = np.random.default_rng(41)
    n = 9
    iu, ju = np.triu_indices(n, k=1)
    op = normalize_adjacency(RelationGraph(n=n, edges=np.stack([iu, ju], axis=1)))
    for f, d, widths in ((3, 5, [3]), (5, 5, [5]), (7, 5, [5, 5])):
        counting = CountingOp(op)
        h, cache = gcn_forward(counting, rng.normal(size=(n, f)), rng.normal(size=(f, d)))
        gcn_layer_backward(cache, np.ones_like(h))
        assert counting.widths == widths, (f, d)
        assert propagates_first(f, d) == (len(widths) == 1)


def test_propagate_rejects_size_mismatch():
    with pytest.raises(DataError):
        propagate(identity_op(3), np.zeros((4, 2)))
    with pytest.raises(DataError):
        gcn_forward(identity_op(3), np.zeros((3, 2)), np.zeros((3, 1)))
    with pytest.raises(DataError):  # applies W first
        gcn_forward(identity_op(3), np.zeros((4, 5)), np.zeros((5, 2)))


# ---------------------------------------------------------------- sigmoid


def test_expit_agrees_with_scipy_to_one_rounding():
    x = np.linspace(-800.0, 800.0, 320_001)  # steps of 0.005
    assert np.max(np.abs(model_module.expit(x) - expit(x))) <= 2.3e-16


def test_expit_limits_are_exact_and_warn_nothing():
    x = np.array([-np.inf, -800.0, 0.0, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # exp(800) overflows
        assert model_module.expit(x).tolist() == [0.0, 0.0, 0.5, 1.0]
        assert model_module.expit(-800.0) == 0.0


def test_expit_propagates_nan():
    assert np.isnan(model_module.expit(np.array([np.nan, 1.0]))).tolist() == [True, False]


# ---------------------------------------------------------------- readout


def test_summary_of_zeros_is_half():
    s, _ = readout_summary(np.zeros((5, 4)))
    assert np.allclose(s, 0.5)


def test_summary_single_row():
    h = np.array([[2.0, -1.0]])
    s, _ = readout_summary(h)
    assert s == pytest.approx(expit(h[0]))


def test_summary_gradient_matches_fd():
    rng = np.random.default_rng(5)
    h = rng.normal(size=(6, 3))
    r = rng.normal(size=3)
    s, cache = readout_summary(h)
    dh = summary_backward(cache, r)
    fd = fd_grad(lambda v: float(np.dot(readout_summary(v.reshape(6, 3))[0], r)), h.ravel())
    assert max_rel_err(dh.ravel(), fd) < 1e-4


# ---------------------------------------------------------------- discriminator


def test_discriminate_zero_inputs_score_half():
    scores, _ = discriminate(np.zeros((4, 3)), np.zeros(3), np.zeros((3, 3)))
    assert np.allclose(scores, 0.5)


def test_discriminate_unit_example():
    h = np.zeros((1, 3))
    h[0, 0] = 1.0
    s = np.array([1.0, 0.0, 0.0])
    scores, _ = discriminate(h, s, np.eye(3))
    assert abs(scores[0] - 0.73106) < 1e-5


def test_discriminate_gradients_match_fd():
    rng = np.random.default_rng(6)
    n, d = 5, 4
    h = rng.normal(size=(n, d))
    s = rng.normal(size=d)
    m = rng.normal(size=(d, d))
    r = rng.normal(size=n)

    _, cache = discriminate(h, s, m)
    dh, ds, dm = discriminate_backward(cache, r)

    fd_h = fd_grad(lambda v: float(np.dot(discriminate(v.reshape(n, d), s, m)[0], r)), h.ravel())
    fd_s = fd_grad(lambda v: float(np.dot(discriminate(h, v, m)[0], r)), s)
    fd_m = fd_grad(lambda v: float(np.dot(discriminate(h, s, v.reshape(d, d))[0], r)), m.ravel())
    assert max_rel_err(dh.ravel(), fd_h) < 1e-4
    assert max_rel_err(ds, fd_s) < 1e-4
    assert max_rel_err(dm.ravel(), fd_m) < 1e-4


def test_discriminate_shape_mismatch():
    with pytest.raises(DataError):
        discriminate(np.zeros((2, 3)), np.zeros(3), np.zeros((2, 3)))


# ---------------------------------------------------------------- corruption


def test_corrupt_preserves_multiset():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(9, 4))
    perm = corrupt_features(x, seed=[3, 0])
    xt = x[perm]
    assert np.array_equal(np.sort(xt, axis=0), np.sort(x, axis=0))
    assert np.array_equal(np.sort(perm), np.arange(9))


def test_corrupt_deterministic():
    x = np.arange(20.0).reshape(10, 2)
    pa = corrupt_features(x, seed=[5, 1])
    pb = corrupt_features(x, seed=[5, 1])
    assert np.array_equal(x[pa], x[pb]) and np.array_equal(pa, pb)
    pc = corrupt_features(x, seed=[5, 2])
    assert not np.array_equal(x[pa], x[pc])


def test_corrupt_single_row():
    x = np.array([[1.0, 2.0]])
    perm = corrupt_features(x, seed=[0, 0])
    assert np.array_equal(x[perm], x) and perm.tolist() == [0]


# ---------------------------------------------------------------- attention pool


def test_pool_uniform_weights_give_mean():
    rng = np.random.default_rng(8)
    hs = [rng.normal(size=(5, 3)) for _ in range(4)]
    pooled, weights, _ = attentive_pool(hs, np.zeros(4))
    assert np.allclose(weights, 0.25)
    assert pooled == pytest.approx(sum(hs) / 4.0)


def test_pool_saturated_logit_picks_one_relation():
    rng = np.random.default_rng(9)
    hs = [rng.normal(size=(4, 2)) for _ in range(3)]
    pooled, weights, _ = attentive_pool(hs, np.array([40.0, 0.0, -5.0]))
    assert abs(weights[0] - 1.0) < 1e-9
    assert np.abs(pooled - hs[0]).max() < 1e-9


def test_pool_weights_sum_to_one():
    rng = np.random.default_rng(10)
    for trial in range(20):
        k = int(rng.integers(1, 6))
        hs = [rng.normal(size=(3, 2)) for _ in range(k)]
        _, weights, _ = attentive_pool(hs, rng.normal(size=k) * 10)
        assert abs(weights.sum() - 1.0) < 1e-9


def test_pool_shift_invariance():
    rng = np.random.default_rng(11)
    hs = [rng.normal(size=(4, 3)) for _ in range(3)]
    logits = rng.normal(size=3)
    _, w1, _ = attentive_pool(hs, logits)
    _, w2, _ = attentive_pool(hs, logits + 123.0)
    assert np.abs(w1 - w2).max() < 1e-12


def test_pool_gradients_match_fd():
    rng = np.random.default_rng(12)
    k, n, d = 3, 4, 2
    hs = [rng.normal(size=(n, d)) for _ in range(k)]
    logits = rng.normal(size=k)
    r = rng.normal(size=(n, d))

    _, _, cache = attentive_pool(hs, logits)
    dhs, dlogits = attentive_pool_backward(cache, r)

    fd_l = fd_grad(lambda v: float(np.sum(attentive_pool(hs, v)[0] * r)), logits)
    assert max_rel_err(dlogits, fd_l) < 1e-4
    for j in range(k):
        def f(v, j=j):
            trial = [h.copy() for h in hs]
            trial[j] = v.reshape(n, d)
            return float(np.sum(attentive_pool(trial, logits)[0] * r))
        assert max_rel_err(dhs[j].ravel(), fd_grad(f, hs[j].ravel())) < 1e-4


def test_pool_logit_count_mismatch():
    with pytest.raises(DataError):
        attentive_pool([np.zeros((2, 2))], np.zeros(2))


# ---------------------------------------------------------------- classifier


def test_classify_uniform():
    probs, _ = classify(np.zeros((4, 3)), np.zeros((3, 2)), np.zeros(2))
    assert np.allclose(probs, 0.5)


def test_classify_rows_sum_to_one():
    rng = np.random.default_rng(13)
    probs, _ = classify(rng.normal(size=(6, 4)), rng.normal(size=(4, 3)), rng.normal(size=3))
    assert np.allclose(probs.sum(axis=1), 1.0)


def test_classify_bias_shifts_argmax():
    o = np.zeros((1, 2))
    w = np.zeros((2, 3))
    probs, _ = classify(o, w, np.array([0.0, 5.0, 0.0]))
    assert probs[0].argmax() == 1


def test_classify_bytes_equal_the_row_max_reference():
    rng = np.random.default_rng(49)
    for c in (1, 2, 5):
        o, w, b = rng.normal(size=(30, 4)), rng.normal(size=(4, c)), rng.normal(size=c)
        o[0] *= 1e3  # a row far from the rest
        logits = o @ w + b
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs, _ = classify(o, w, b)
        assert probs.tobytes() == (e / e.sum(axis=1, keepdims=True)).tobytes(), c


def test_classify_gradients_match_fd():
    rng = np.random.default_rng(14)
    n, d, c = 5, 3, 4
    o = rng.normal(size=(n, d))
    w = rng.normal(size=(d, c))
    b = rng.normal(size=c)
    r = rng.normal(size=(n, c))

    _, cache = classify(o, w, b)
    do, dw, db = classify_backward(cache, r)

    fd_o = fd_grad(lambda v: float(np.sum(classify(v.reshape(n, d), w, b)[0] * r)), o.ravel())
    fd_w = fd_grad(lambda v: float(np.sum(classify(o, v.reshape(d, c), b)[0] * r)), w.ravel())
    fd_b = fd_grad(lambda v: float(np.sum(classify(o, w, v)[0] * r)), b)
    assert max_rel_err(do.ravel(), fd_o) < 1e-4
    assert max_rel_err(dw.ravel(), fd_w) < 1e-4
    assert max_rel_err(db, fd_b) < 1e-4


# ---------------------------------------------------------------- model state


def test_param_order_frozen():
    state = ModelState(ModelDims(5, 4, 3, 2, 2), seed=0)
    assert state.param_order == [
        "enc_w_0", "enc_w_1", "disc_m_0", "disc_m_1",
        "consensus", "att_logits", "cls_w", "cls_b",
    ]


def test_flatten_unflatten_roundtrip():
    state = ModelState(ModelDims(6, 4, 3, 2, 3), seed=1)
    flat = state.flatten()
    other = ModelState(ModelDims(6, 4, 3, 2, 3), seed=99)
    other.unflatten(flat)
    for name in state.param_order:
        assert np.array_equal(other.params[name], state.params[name])
    with pytest.raises(DataError):
        other.unflatten(np.zeros(flat.size + 1))


def test_check_finite_names_offender():
    state = ModelState(ModelDims(4, 3, 2, 1, 2), seed=0)
    state.params["cls_w"][0, 0] = np.nan
    with pytest.raises(NumericError, match="cls_w"):
        state.check_finite()


def test_l2_is_sum_of_squares():
    state = ModelState(ModelDims(4, 3, 2, 2, 2), seed=2)
    expected = sum(float(np.sum(p * p)) for p in state.params.values())
    assert state.l2() == pytest.approx(expected, rel=1e-12)


def test_state_deterministic_init():
    a = ModelState(ModelDims(5, 4, 3, 2, 2), seed=7)
    b = ModelState(ModelDims(5, 4, 3, 2, 2), seed=7)
    assert np.array_equal(a.flatten(), b.flatten())
    c = ModelState(ModelDims(5, 4, 3, 2, 2), seed=8)
    assert not np.array_equal(a.flatten(), c.flatten())


# ---------------------------------------------------------------- checkpoints


def test_checkpoint_roundtrip_byte_exact():
    state = ModelState(ModelDims(6, 5, 4, 2, 3), seed=3)
    fd, path = tempfile.mkstemp(suffix=".bin")
    os.close(fd)
    try:
        save_checkpoint(path, state, config_hash="abc123")
        back, header = load_checkpoint(path)
        assert np.array_equal(back.flatten(), state.flatten())
        assert header["config_hash"] == "abc123"
        # saving the loaded state reproduces the file byte for byte
        path2 = path + ".again"
        save_checkpoint(path2, back, config_hash="abc123")
        with open(path, "rb") as fh:
            one = fh.read()
        with open(path2, "rb") as fh:
            two = fh.read()
        os.unlink(path2)
        assert one == two
    finally:
        os.unlink(path)


def test_checkpoint_bad_version():
    state = ModelState(ModelDims(3, 2, 2, 1, 2), seed=0)
    fd, path = tempfile.mkstemp(suffix=".bin")
    os.close(fd)
    try:
        save_checkpoint(path, state)
        with open(path, "rb") as fh:
            raw = fh.read()
        nl = raw.find(b"\n")
        hacked = raw[:nl].replace(b'"format_version": 1', b'"format_version": 9')
        with open(path, "wb") as fh:
            fh.write(hacked + raw[nl:])
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)
    finally:
        os.unlink(path)


def test_checkpoint_truncated_blob():
    state = ModelState(ModelDims(3, 2, 2, 1, 2), seed=0)
    fd, path = tempfile.mkstemp(suffix=".bin")
    os.close(fd)
    try:
        save_checkpoint(path, state)
        with open(path, "rb") as fh:
            raw = fh.read()
        with open(path, "wb") as fh:
            fh.write(raw[:-16])
        with pytest.raises(DataError, match="blob"):
            load_checkpoint(path)
    finally:
        os.unlink(path)


def test_checkpoint_refuses_non_finite_values(tmp_path):
    state = ModelState(ModelDims(6, 5, 4, 2, 3), seed=3)
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(path, state)
    raw = path.read_bytes()
    blob = raw.index(b"\n") + 1
    at = 0
    for name in state.param_order:  # every parameter group, and its last value
        at += state.params[name].size
        for bad in (np.nan, np.inf, -np.inf):
            path.write_bytes(raw[:blob + 8 * (at - 1)] + np.array([bad], "<f8").tobytes()
                             + raw[blob + 8 * at:])
            with pytest.raises(DataError) as caught:
                load_checkpoint(path)
            assert str(caught.value) == "%s: non-finite value: %s" % (path, name)


def test_checkpoint_missing_header():
    fd, path = tempfile.mkstemp(suffix=".bin")
    with os.fdopen(fd, "wb") as fh:
        fh.write(b"\x00" * 64)
    try:
        with pytest.raises(DataError):
            load_checkpoint(path)
    finally:
        os.unlink(path)
