import dataclasses
import importlib
import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import CountingOp, fd_grad, max_rel_err, random_graph, stdout_at_blas_threads
from test_perfbench_targets import traced_targets
from medplex import data as D
from medplex import evaluate as E
from medplex import graph as G
from medplex import model as M
from medplex import train as T
from medplex.cli import run
from medplex.data import LabelVector, SynthConfig, generate_synthetic_cohort, split_masks
from medplex.errors import DataError, NumericError
from medplex.model import (
    ModelDims,
    ModelState,
    StepArrays,
    classify,
    model_forward,
    normalize_adjacency,
    propagate,
    propagates_first,
    relation_operator,
)
from medplex.graph import RelationGraph
from medplex.pipeline import (
    assign_masks,
    build_graph_for,
    pooled_probs,
    run_experiment,
    run_single_gcn_baseline,
)
from medplex.train import (
    AdamState,
    TrainingConfig,
    adam_step,
    consensus_loss,
    fit,
    infomax_backward,
    infomax_loss,
    loss_and_grads,
    micle_loss,
    preset_config,
    supervised_loss,
    total_loss,
)


def softmax_rows(logits):
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def labeled_vector(labels, mask):
    return LabelVector(np.asarray(labels), np.asarray(mask, dtype=np.int8),
                       int(np.max(labels)) + 1)


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(DataError):
        TrainingConfig(learning_rate=0.0)
    with pytest.raises(DataError):
        TrainingConfig(n_relations=2, thetas=(0.5, 0.5, 0.5))
    with pytest.raises(DataError):
        TrainingConfig(alpha=-1.0)
    with pytest.raises(DataError):
        TrainingConfig(epochs=-1)
    with pytest.raises(DataError):
        TrainingConfig(train_frac=0.5, val_frac=0.5, test_frac=0.5)
    for frac in (0.0, 1.5):
        with pytest.raises(DataError, match="labeled fraction"):
            TrainingConfig(labeled_frac=frac)


def test_config_single_theta_broadcasts():
    cfg = TrainingConfig(n_relations=3, thetas=(0.8,))
    assert cfg.thetas == (0.8, 0.8, 0.8)


def test_config_json_roundtrip_and_hash():
    cfg = TrainingConfig(n_relations=2, thetas=(0.5, 0.7), alpha=2.0, seed=3)
    back = TrainingConfig.from_json_dict(json.loads(json.dumps(cfg.to_json_dict())))
    assert back == cfg
    assert back.config_hash() == cfg.config_hash()
    other = TrainingConfig(n_relations=2, thetas=(0.5, 0.7), alpha=2.5, seed=3)
    assert other.config_hash() != cfg.config_hash()
    with pytest.raises(DataError):
        TrainingConfig.from_json_dict({"learning_rate": 0.1, "bogus": 1})


def test_config_reads_dropped_keys_of_old_runs():
    cfg = TrainingConfig(n_relations=2, thetas=(0.5, 0.7), seed=3)
    old = dict(cfg.to_json_dict(), tau=0.0, weighted_full=False)
    back = TrainingConfig.from_json_dict(old)
    assert back == cfg and back.config_hash() == cfg.config_hash()
    with pytest.raises(DataError, match="weighted_full"):
        TrainingConfig.from_json_dict(dict(old, weighted_full=True))


def test_config_fractions():
    cfg = TrainingConfig(n_relations=1, thetas=(0.9,))
    assert cfg.fractions() == (0.6, 0.1, 0.3)


def test_presets():
    with pytest.raises(DataError):
        preset_config("nope")
    cfg = preset_config("synth")
    assert cfg.n_relations == 2 and cfg.embed_dim == 32
    over = preset_config("synth", seed=9, epochs=5)
    assert over.seed == 9 and over.epochs == 5


# ---------------------------------------------------------------- infomax


def test_infomax_zero_inputs_is_ln2():
    h = np.zeros((6, 4))
    s = np.zeros(4)
    m = np.zeros((4, 4))
    loss, _ = infomax_loss(h, h, s, m)
    assert loss == pytest.approx(math.log(2.0), abs=1e-12)


def test_infomax_saturated_is_tiny():
    d = 3
    h = np.zeros((4, d))
    h[:, 0] = 40.0
    ht = -h
    s = np.zeros(d)
    s[0] = 1.0
    loss, _ = infomax_loss(h, ht, s, np.eye(d))
    assert 0.0 <= loss < 1e-6


def test_infomax_clamp_kills_gradient():
    d = 2
    h = np.zeros((3, d))
    h[:, 0] = 50.0
    ht = -h
    s = np.array([1.0, 0.0])
    _, cache = infomax_loss(h, ht, s, np.eye(d))
    dh, dht, ds, dm = infomax_backward(cache)
    assert np.all(dh == 0.0) and np.all(dht == 0.0)
    assert np.all(ds == 0.0) and np.all(dm == 0.0)


def test_infomax_gradients_match_fd():
    rng = np.random.default_rng(20)
    n, d = 5, 3
    h = rng.normal(size=(n, d))
    ht = rng.normal(size=(n, d))
    s = rng.normal(size=d)
    m = rng.normal(size=(d, d))

    _, cache = infomax_loss(h, ht, s, m)
    dh, dht, ds, dm = infomax_backward(cache)

    fd_h = fd_grad(lambda v: infomax_loss(v.reshape(n, d), ht, s, m)[0], h.ravel())
    fd_ht = fd_grad(lambda v: infomax_loss(h, v.reshape(n, d), s, m)[0], ht.ravel())
    fd_s = fd_grad(lambda v: infomax_loss(h, ht, v, m)[0], s)
    fd_m = fd_grad(lambda v: infomax_loss(h, ht, s, v.reshape(d, d))[0], m.ravel())
    assert max_rel_err(dh.ravel(), fd_h) < 1e-4
    assert max_rel_err(dht.ravel(), fd_ht) < 1e-4
    assert max_rel_err(ds, fd_s) < 1e-4
    assert max_rel_err(dm.ravel(), fd_m) < 1e-4


# ---------------------------------------------------------------- consensus


def test_consensus_zero_when_views_agree():
    rng = np.random.default_rng(21)
    o = rng.normal(size=(4, 3))
    loss, do, dp, dpt = consensus_loss(o, o.copy(), o.copy())
    assert loss == 0.0
    assert np.all(do == 0.0)


def test_consensus_minus_one_closed_form():
    o = np.zeros((5, 2))
    pooled = np.zeros((5, 2))
    tilde = np.ones((5, 2))
    loss, _, _, _ = consensus_loss(o, pooled, tilde)
    assert loss == pytest.approx(-1.0, abs=1e-12)


def test_consensus_gradients_match_fd():
    rng = np.random.default_rng(22)
    o = rng.normal(size=(4, 3))
    p = rng.normal(size=(4, 3))
    pt = rng.normal(size=(4, 3))
    _, do, dp, dpt = consensus_loss(o, p, pt)
    fd_o = fd_grad(lambda v: consensus_loss(v.reshape(4, 3), p, pt)[0], o.ravel())
    fd_p = fd_grad(lambda v: consensus_loss(o, v.reshape(4, 3), pt)[0], p.ravel())
    fd_pt = fd_grad(lambda v: consensus_loss(o, p, v.reshape(4, 3))[0], pt.ravel())
    assert max_rel_err(do.ravel(), fd_o) < 1e-4
    assert max_rel_err(dp.ravel(), fd_p) < 1e-4
    assert max_rel_err(dpt.ravel(), fd_pt) < 1e-4


def test_consensus_shape_mismatch():
    with pytest.raises(DataError):
        consensus_loss(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((3, 2)))


# ---------------------------------------------------------------- supervised


def test_supervised_uniform_is_ln_nclasses():
    probs = np.full((6, 3), 1.0 / 3.0)
    lv = labeled_vector([0, 1, 2, 0, 1, 2], [D.TRAIN] * 6)
    loss, _ = supervised_loss(probs, lv)
    assert loss == pytest.approx(math.log(3.0), abs=1e-12)


def test_supervised_confident_is_tiny():
    eps = 1e-9
    probs = np.full((4, 2), eps)
    truth = np.array([0, 1, 0, 1])
    probs[np.arange(4), truth] = 1.0 - eps
    lv = labeled_vector(truth, [D.TRAIN] * 4)
    loss, _ = supervised_loss(probs, lv)
    assert loss < 1e-6


def test_supervised_ignores_non_train_rows():
    rng = np.random.default_rng(23)
    logits = rng.normal(size=(5, 3))
    probs = softmax_rows(logits)
    lv = labeled_vector([0, 1, 2, 0, 1],
                        [D.TRAIN, D.VAL, D.TEST, D.TRAIN, D.UNLABELED])
    _, dlogits = supervised_loss(probs, lv)
    assert np.all(dlogits[[1, 2, 4]] == 0.0)
    assert np.any(dlogits[0] != 0.0) and np.any(dlogits[3] != 0.0)


def test_supervised_gradient_matches_fd_through_softmax():
    rng = np.random.default_rng(24)
    n, c = 6, 3
    logits = rng.normal(size=(n, c))
    lv = labeled_vector(rng.integers(0, c, size=n),
                        [D.TRAIN, D.TRAIN, D.VAL, D.TRAIN, D.TEST, D.TRAIN])

    _, dlogits = supervised_loss(softmax_rows(logits), lv)
    fd = fd_grad(lambda v: supervised_loss(softmax_rows(v.reshape(n, c)), lv)[0],
                 logits.ravel())
    assert max_rel_err(dlogits.ravel(), fd) < 1e-4


def test_supervised_bytes_equal_the_per_call_reference():
    """The loss and gradient as computed before the TRAIN rows were cached."""
    rng = np.random.default_rng(25)
    n, c = 40, 3
    lv = labeled_vector(rng.integers(0, c, size=n), rng.choice([D.TRAIN, D.VAL, D.TEST], n))
    for _ in range(3):  # the cached rows serve every call
        probs = softmax_rows(rng.normal(size=(n, c)))
        idx = np.flatnonzero(lv.mask == D.TRAIN)
        truth = lv.labels
        ref_loss = float(-np.mean(np.log(probs[idx, truth[idx]])))
        ref = np.zeros_like(probs)
        rows = probs[idx].copy()
        rows[np.arange(idx.size), truth[idx]] -= 1.0
        ref[idx] = rows / idx.size
        loss, dlogits = supervised_loss(probs, lv)
        assert loss == ref_loss and dlogits.tobytes() == ref.tobytes()


def test_supervised_needs_train_rows():
    lv = labeled_vector([0, 1], [D.TEST, D.TEST])
    with pytest.raises(DataError):
        supervised_loss(np.full((2, 2), 0.5), lv)


# ---------------------------------------------------------------- totals


def test_total_loss_composition():
    cfg = TrainingConfig(n_relations=1, thetas=(0.9,), alpha=2.0, beta=0.5, gamma=0.01)
    got = total_loss(1.2, -0.3, 0.7, 10.0, cfg)
    assert got == pytest.approx(1.2 + 2.0 * -0.3 + 0.5 * 0.7 + 0.01 * 10.0, abs=1e-12)
    off = TrainingConfig(n_relations=1, thetas=(0.9,), alpha=0.0, beta=0.0, gamma=0.0)
    assert total_loss(1.2, -0.3, 0.7, 10.0, off) == 1.2


# ---------------------------------------------------------------- contrastive


def test_micle_identical_rows_hits_log_2n_minus_1():
    for n in (2, 3, 5):
        z = np.tile(np.array([[1.0, 2.0, 3.0]]), (n, 1))
        loss = micle_loss(z, z.copy(), tau=0.5)
        assert loss == pytest.approx(math.log(2 * n - 1), abs=1e-9)


def test_micle_separated_views_near_zero():
    n = 3
    z = np.eye(n) * 4.0  # orthogonal items, both views aligned
    loss = micle_loss(z, z * 2.0, tau=0.1)
    assert 0.0 <= loss < 1e-3


def test_micle_row_scale_invariance():
    rng = np.random.default_rng(25)
    z1 = rng.normal(size=(4, 3))
    z2 = rng.normal(size=(4, 3))
    base = micle_loss(z1, z2, tau=0.3)
    s1 = rng.uniform(0.1, 9.0, size=(4, 1))
    s2 = rng.uniform(0.1, 9.0, size=(4, 1))
    assert micle_loss(z1 * s1, z2 * s2, tau=0.3) == pytest.approx(base, abs=1e-9)


def test_micle_matches_scipy_logsumexp_at_any_temperature():
    from scipy.special import logsumexp

    def oracle(z1, z2, tau):
        u = np.vstack([z1, z2])
        u = u / np.linalg.norm(u, axis=1, keepdims=True)
        sims = (u @ u.T) / tau
        n = len(z1)
        pos = sims[np.arange(2 * n), np.concatenate([np.arange(n) + n, np.arange(n)])]
        np.fill_diagonal(sims, -np.inf)
        return float(np.mean(logsumexp(sims, axis=1) - pos))

    rng = np.random.default_rng(26)
    z1 = rng.normal(size=(6, 4))
    z2 = z1 + rng.normal(scale=0.5, size=(6, 4))
    for tau in (0.5, 0.01, 1e-3):  # at 1e-3 the similarities reach 1000: exp overflows unshifted
        assert micle_loss(z1, z2, tau) == pytest.approx(oracle(z1, z2, tau), rel=1e-12)


def test_micle_validation():
    z = np.ones((1, 2))
    with pytest.raises(DataError):
        micle_loss(z, z, tau=0.5)
    z2 = np.ones((3, 2))
    with pytest.raises(DataError):
        micle_loss(z2, z2, tau=0.0)
    with pytest.raises(DataError):
        micle_loss(z2, np.ones((3, 3)), tau=0.5)


# ---------------------------------------------------------------- adam


def tiny_state():
    return ModelState(ModelDims(4, 3, 2, 1, 2), seed=0)


def test_adam_zero_gradient_is_fixed_point():
    state = tiny_state()
    before = state.flatten()
    adam = AdamState.for_model(state)
    state.zero_grads()
    adam_step(state, adam, lr=0.05)
    assert np.array_equal(state.flatten(), before)


def test_adam_first_step_is_signed_lr():
    state = tiny_state()
    before = state.flatten()
    adam = AdamState.for_model(state)
    state.zero_grads()
    for name in state.param_order:
        state.grads[name] = np.full_like(state.params[name], 3.7)
    adam_step(state, adam, lr=0.01)
    delta = state.flatten() - before
    assert np.abs(delta + 0.01).max() < 1e-6


def test_adam_minimizes_quadratic_bowl():
    state = tiny_state()
    adam = AdamState.for_model(state)
    for _ in range(2000):
        for name in state.param_order:
            state.grads[name] = 2.0 * state.params[name]
        adam_step(state, adam, lr=0.01)
    assert np.abs(state.flatten()).max() < 1e-3


def test_adam_rejects_non_finite_gradient():
    state = tiny_state()
    adam = AdamState.for_model(state)
    state.zero_grads()
    state.grads["att_logits"][0] = np.inf
    with pytest.raises(NumericError, match="att_logits"):
        adam_step(state, adam, lr=0.01)


def per_parameter_adam(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam applied one named array at a time, the reference for the flat step."""
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for name, g in grads.items():
        m[name] = beta1 * m[name] + (1.0 - beta1) * g
        v[name] = beta2 * v[name] + (1.0 - beta2) * (g * g)
        params[name] = params[name] - lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + eps)


def test_flat_adam_is_bitwise_the_per_parameter_update():
    rng = np.random.default_rng(40)
    state = ModelState(ModelDims(5, 3, 4, 2, 3), seed=1)
    adam = AdamState.for_model(state)
    ref = state.copy_params()
    m = {k: np.zeros_like(p) for k, p in ref.items()}
    v = {k: np.zeros_like(p) for k, p in ref.items()}
    for t in range(1, 51):
        grads = {k: rng.normal(scale=10.0 ** rng.integers(-6, 3), size=p.shape)
                 for k, p in ref.items()}
        for name, g in grads.items():
            state.grads[name] = g
        adam_step(state, adam, lr=0.01)
        per_parameter_adam(ref, grads, m, v, t, lr=0.01)
        for name in state.param_order:
            assert np.array_equal(state.params[name], ref[name]), (t, name)


def test_params_and_flat_vector_move_together():
    # every way of writing parameters keeps the named arrays views of the flat
    # vector: one Adam step must move both alike
    state = ModelState(ModelDims(4, 3, 2, 2, 2), seed=0)
    other = ModelState(ModelDims(4, 3, 2, 2, 2), seed=7)
    writes = {
        "load_params": lambda: state.load_params(other.copy_params()),
        "unflatten": lambda: state.unflatten(other.flatten()),
        "copy_params round trip": lambda: state.load_params(state.copy_params()),
    }
    for how, write in writes.items():
        write()
        adam = AdamState.for_model(state)
        for name in state.param_order:
            state.grads[name] = np.full_like(state.params[name], 1.5)
        before = {k: p.copy() for k, p in state.params.items()}
        adam_step(state, adam, lr=0.01)
        moved = np.concatenate([state.params[k].ravel() for k in state.param_order])
        assert np.array_equal(moved, state.flatten()), how
        assert not any(np.array_equal(state.params[k], before[k]) for k in before), how
    with pytest.raises(DataError):
        state.grads["cls_b"] = np.zeros(5)


# ---------------------------------------------------------------- full objective


def random_ops(rng, n, r_count):
    ops = []
    for _ in range(r_count):
        iu, ju = np.triu_indices(n, k=1)
        keep = rng.random(iu.shape[0]) < 0.4
        g = RelationGraph(n=n, edges=np.stack([iu[keep], ju[keep]], axis=1))
        ops.append(normalize_adjacency(g))
    return ops


def test_full_objective_gradient_matches_fd():
    rng = np.random.default_rng(26)
    n, f, r_count, c = 12, 8, 2, 3
    ops = random_ops(rng, n, r_count)
    x = rng.normal(size=(n, f))
    ax = [propagate(op, x) for op in ops]
    mask = np.array([D.TRAIN] * 6 + [D.VAL, D.VAL] + [D.TEST] * 2 + [D.UNLABELED] * 2)
    labels = labeled_vector(rng.integers(0, c, size=n), mask)
    perm = rng.permutation(n)
    for d in (4, 8):  # the corrupted path applies W first, then propagates first
        cfg = TrainingConfig(learning_rate=0.01, embed_dim=d, n_relations=r_count,
                             thetas=(0.5, 0.5), alpha=0.7, beta=0.9, gamma=0.02)
        state = ModelState(ModelDims(n, f, d, r_count, c), seed=5)

        loss_and_grads(state, ops, x, labels, cfg, perm, ax, StepArrays(state))
        analytic = np.concatenate([state.grads[k].ravel() for k in state.param_order])
        base = state.flatten()

        def f_total(v):
            probe = ModelState(ModelDims(n, f, d, r_count, c), seed=5)
            probe.unflatten(v)
            return loss_and_grads(probe, ops, x, labels, cfg, perm, ax, StepArrays(probe)).total

        numeric = fd_grad(f_total, base)
        assert max_rel_err(analytic, numeric, floor=1e-5) < 1e-4, d


def test_beta_zero_leaves_only_l2_on_head():
    rng = np.random.default_rng(27)
    n, f, d, c = 10, 6, 3, 2
    cfg = TrainingConfig(learning_rate=0.01, embed_dim=d, n_relations=1,
                         thetas=(0.5,), alpha=1.0, beta=0.0, gamma=0.003)
    state = ModelState(ModelDims(n, f, d, 1, c), seed=6)
    ops = random_ops(rng, n, 1)
    x = rng.normal(size=(n, f))
    labels = labeled_vector(rng.integers(0, c, size=n), [D.TRAIN] * n)
    loss_and_grads(state, ops, x, labels, cfg, rng.permutation(n), [propagate(ops[0], x)],
                   StepArrays(state))
    assert np.array_equal(state.grads["cls_w"], 2.0 * cfg.gamma * state.params["cls_w"])
    assert np.array_equal(state.grads["cls_b"], 2.0 * cfg.gamma * state.params["cls_b"])


def test_loss_and_grads_propagates_only_the_corrupted_input():
    rng = np.random.default_rng(28)
    n, f, r_count, c = 12, 7, 3, 2
    ops = random_ops(rng, n, r_count)
    x = rng.normal(size=(n, f))
    labels = labeled_vector(rng.integers(0, c, size=n), [D.TRAIN] * 8 + [D.VAL] * 4)
    perm = rng.permutation(n)
    ax = [propagate(op, x) for op in ops]
    stacked = [np.concatenate([a, propagate(op, x[perm])]) for a, op in zip(ax, ops)]
    # the 2n stack where the layer propagates first: no product; for inputs
    # wider than the embedding, op @ (X[perm] W) and op @ dpre at its width
    for d, given, widths in ((7, stacked, []), (10, stacked, []), (4, ax, [4, 4])):
        cfg = TrainingConfig(learning_rate=0.01, embed_dim=d, n_relations=r_count,
                             thetas=(0.5,), alpha=0.7, beta=0.9, gamma=0.02)
        state = ModelState(ModelDims(n, f, d, r_count, c), seed=3)
        counting = [CountingOp(op) for op in ops]
        loss_and_grads(state, counting, x, labels, cfg, perm, given, StepArrays(state))
        assert [op.widths for op in counting] == [widths] * r_count, d


def two_pass_loss_and_grads(state, ops, x, labels, cfg, perm, ax, ax_tilde=None):
    """The step as it was before the clean and corrupted rows were stacked:
    every layer, loss and backward pass run once on each n-row half.
    Returns (total, {name: gradient})."""
    params, r_count, n = state.params, state.dims.n_relations, x.shape[0]
    grads = {k: np.zeros_like(p) for k, p in params.items()}
    h, ht, summaries, caches, caches_t, scaches = [], [], [], [], [], []
    for r in range(r_count):
        w = params["enc_w_%d" % r]
        hr, c1 = M.gcn_forward(ops[r], x, w, ax[r])
        hrt, c2 = M.gcn_forward(ops[r], x[perm], w, None if ax_tilde is None else ax_tilde[r])
        sr, c3 = M.readout_summary(hr)
        h.append(hr), ht.append(hrt), summaries.append(sr)
        caches.append(c1), caches_t.append(c2), scaches.append(c3)
    dh = [np.zeros_like(a) for a in h]
    dht = [np.zeros_like(a) for a in ht]
    infomax_sum = 0.0
    for r in range(r_count):
        pos, cpos = M.discriminate(h[r], summaries[r], params["disc_m_%d" % r])
        neg, cneg = M.discriminate(ht[r], summaries[r], params["disc_m_%d" % r])
        pos_c = np.clip(pos, T.SCORE_CLAMP, 1.0 - T.SCORE_CLAMP)
        neg_c = np.clip(neg, T.SCORE_CLAMP, 1.0 - T.SCORE_CLAMP)
        infomax_sum += float((-np.log(pos_c).sum() - np.log(1.0 - neg_c).sum()) / (2 * n))
        g_h, ds1, dm1 = M.discriminate_backward_pre(
            cpos, np.where(pos == pos_c, pos - 1.0, 0.0) / (2 * n))
        g_ht, ds2, dm2 = M.discriminate_backward_pre(
            cneg, np.where(neg == neg_c, neg, 0.0) / (2 * n))
        grads["disc_m_%d" % r] += dm1 + dm2
        dh[r] += g_h + M.summary_backward(scaches[r], ds1 + ds2)
        dht[r] += g_ht
    o = params["consensus"]
    pooled, _, pcache = M.attentive_pool(h, params["att_logits"])
    pooled_t, _, pcache_t = M.attentive_pool(ht, params["att_logits"])
    d_clean, d_corr = o - pooled, o - pooled_t
    cs = float((np.sum(d_clean ** 2) - np.sum(d_corr ** 2)) / o.size)
    grads["consensus"] += cfg.alpha * 2.0 * (d_clean - d_corr) / o.size
    dhs, dlog = M.attentive_pool_backward(pcache, cfg.alpha * -2.0 * d_clean / o.size)
    dhs_t, dlog_t = M.attentive_pool_backward(pcache_t, cfg.alpha * 2.0 * d_corr / o.size)
    grads["att_logits"] += dlog + dlog_t
    probs, ccache = classify(o, params["cls_w"], params["cls_b"])
    sup, dlogits = supervised_loss(probs, labels)
    d_o, d_w, d_b = M.classify_backward_from_logits(ccache, cfg.beta * dlogits)
    grads["consensus"] += d_o
    grads["cls_w"] += d_w
    grads["cls_b"] += d_b
    for r in range(r_count):
        g_w1, _ = M.gcn_layer_backward(caches[r], dh[r] + dhs[r])
        g_w2, _ = M.gcn_layer_backward(caches_t[r], dht[r] + dhs_t[r])
        grads["enc_w_%d" % r] += g_w1 + g_w2
    l2 = float(sum(np.sum(p * p) for p in params.values()))
    for name, p in params.items():
        grads[name] += 2.0 * cfg.gamma * p
    return total_loss(infomax_sum, cs, sup, l2, cfg), grads


def test_stacked_step_matches_two_pass_reference():
    rng = np.random.default_rng(41)
    n, f, r_count, c = 14, 6, 3, 3
    ops = random_ops(rng, n, r_count - 1)
    ops.append(normalize_adjacency(RelationGraph(n=n, edges=np.zeros((0, 2), dtype=int))))
    x = rng.normal(size=(n, f))
    mask = [D.TRAIN] * 8 + [D.VAL] * 3 + [D.TEST] * 3
    labels = labeled_vector(rng.integers(0, c, size=n), mask)
    ax = [propagate(op, x) for op in ops]
    # two steps with different permutations on one set of arrays: a buffer
    # the first step leaves behind must not reach the second
    perms = [rng.permutation(n), rng.permutation(n)]
    for d in (4, 9):  # below and above in_dim
        cfg = TrainingConfig(learning_rate=0.01, embed_dim=d, n_relations=r_count,
                             thetas=(0.5,), alpha=0.7, beta=0.9, gamma=0.02)
        for how in ("n-row ax", "2n-row stacks"):
            logits = rng.normal(size=r_count)
            # fit's float32 step on the same parameter values, its inputs
            # rounded from float64, against the float64 reference
            for dtype in (np.float64, np.float32):
                state = ModelState(ModelDims(n, f, d, r_count, c), seed=8, dtype=dtype)
                state.params["att_logits"] = logits
                ref_state = ModelState(state.dims, seed=8)
                ref_state.unflatten(state.flat)
                arrays = StepArrays(state)
                for k, perm in enumerate(perms):
                    # the stacked step's input, then ax_tilde for the reference
                    a, ref_at = ax, None
                    if how == "2n-row stacks":
                        ref_at = [propagate(op, x[perm]) for op in ops]
                        a = [np.concatenate([top, bottom]) for top, bottom in zip(ax, ref_at)]
                    ref_total, ref_grads = two_pass_loss_and_grads(ref_state, ops, x, labels,
                                                                  cfg, perm, ax, ref_at)
                    step = loss_and_grads(state, ops, x.astype(dtype), labels, cfg, perm,
                                          [v.astype(dtype) for v in a], arrays)
                    where = (d, how, dtype.__name__, k)
                    if dtype is np.float64:
                        assert abs(step.total - ref_total) <= 1e-12, where
                        for name in state.param_order:
                            err = np.max(np.abs(state.grads[name] - ref_grads[name]))
                            assert err <= 1e-12, (where, name, err)
                        continue
                    assert abs(step.total - ref_total) <= 1e-6 * abs(ref_total), where
                    for name in state.param_order:
                        err = np.max(np.abs(state.grads[name] - ref_grads[name]))
                        assert err <= 1e-5 * np.max(np.abs(ref_grads[name])), (where, name, err)
                    # nothing the step computes is widened to float64
                    held = [state.grad, step.probs, step.forward.pool, step.forward.h,
                            step.forward.summaries, *vars(arrays).values()]
                    assert {v.dtype for v in held} == {np.dtype(bool), np.dtype(dtype)}, where


def test_model_forward_takes_only_n_or_2n_rows():
    rng = np.random.default_rng(43)
    n, f, d, r_count, c = 10, 5, 4, 2, 2
    ops = random_ops(rng, n, r_count)
    x = rng.normal(size=(n, f))
    perm = rng.permutation(n)
    state = ModelState(ModelDims(n, f, d, r_count, c), seed=9)
    ax = [propagate(op, x) for op in ops]
    for rows in (n + 1, 3 * n):
        # the last relation alone has the wrong height
        stacks = ax[:-1] + [np.concatenate([ax[-1]] * 3)[:rows]]
        with pytest.raises(DataError, match="expected %d or %d" % (n, 2 * n)):
            model_forward(state, ops, x, perm, stacks, StepArrays(state))


def test_stacked_losses_match_split_losses():
    rng = np.random.default_rng(42)
    n, d = 7, 3
    h, ht, o, p, pt = (rng.normal(size=(n, d)) for _ in range(5))
    s, m = rng.normal(size=d), rng.normal(size=(d, d))
    loss, cache = infomax_loss(h, ht, s, m)
    loss_s, cache_s = infomax_loss(np.concatenate([h, ht]), None, s, m)
    dh, dht, ds, dm = infomax_backward(cache)
    dhs, none, ds_s, dm_s = infomax_backward(cache_s)
    assert loss == loss_s and none is None
    assert np.array_equal(np.concatenate([dh, dht]), dhs)
    assert np.array_equal(ds, ds_s) and np.array_equal(dm, dm_s)
    loss, do, dp, dpt = consensus_loss(o, p, pt)
    loss_s, do_s, dq, none = consensus_loss(o, np.concatenate([p, pt]), None)
    assert loss == loss_s and none is None and np.array_equal(do, do_s)
    assert np.array_equal(np.concatenate([dp, dpt]), dq)
    with pytest.raises(DataError):
        consensus_loss(o, p, None)


# ---------------------------------------------------------------- selection loop


def scripted_run(correct, epochs, patience, val=True, losses=None):
    """select_epochs on one parameter whose step scores correct[epoch] of four
    VAL rows right, so that epoch's validation micro-F1 is correct[epoch] / 4.
    Returns (report, parameters seen by each step, final parameters)."""
    mask = [D.TRAIN] + [D.VAL if val else D.TEST] * 4 + [D.TEST]
    labels = labeled_vector([0, 0, 0, 0, 0, 1], mask)
    state = M.FlatParams({"w": (1,)})
    seen = []

    def step(epoch):
        seen.append(state.flat.copy())
        state.grads["w"] = [1.0]
        probs = np.tile([0.1, 0.9], (6, 1))
        probs[1:1 + correct[epoch]] = [0.9, 0.1]
        loss = 1.0 if losses is None else losses[epoch]
        return loss, probs, {"loss": loss}

    report = T.select_epochs(state, 0.1, epochs, patience, labels, step)
    return report, seen, state.flat.copy()


def test_select_epochs_tie_keeps_the_earliest_epoch():
    report, seen, final = scripted_run([1, 3, 3, 2, 3], epochs=5, patience=0)
    assert report.best_epoch == 1 and report.best_val_micro == 0.75
    assert np.array_equal(final, seen[1])
    assert [r["val_micro"] for r in report.rows] == [0.25, 0.75, 0.75, 0.5, 0.75]
    assert list(report.rows[0]) == ["epoch", "loss", "val_micro"]
    assert report.epochs_run == 5 and not report.stopped_early


def test_select_epochs_patience_stop():
    best, patience = 1, 3
    report, seen, final = scripted_run([1, 2, 2, 2, 2, 2, 4, 4], epochs=8, patience=patience)
    assert report.stopped_early
    assert len(report.rows) == report.epochs_run == best + patience + 1
    assert report.best_epoch == best and np.array_equal(final, seen[best])
    # short of a perfect score, a patience longer than the run never stops it
    report, seen, final = scripted_run([1, 3, 2, 3, 3, 2], epochs=6, patience=10)
    assert report.epochs_run == 6 and not report.stopped_early
    assert report.best_epoch == 1 and np.array_equal(final, seen[1])


def test_select_epochs_stops_after_a_perfect_score():
    # no later epoch can score above 1.0, and a tie keeps the earlier epoch
    script, perfect = [1, 3, 4, 2, 4, 3], 2
    report, seen, final = scripted_run(script, epochs=6, patience=10)
    assert report.stopped_early
    assert len(report.rows) == report.epochs_run == perfect + 1
    assert report.best_epoch == perfect and report.best_val_micro == 1.0
    assert np.array_equal(final, seen[perfect])
    # patience 0 never stops, and selects the same epoch
    full, _, full_final = scripted_run(script, epochs=6, patience=0)
    assert full.epochs_run == 6 and not full.stopped_early
    assert full.best_epoch == perfect and np.array_equal(full_final, final)
    assert full.rows[:perfect + 1] == report.rows
    # without validation rows there is no score, and every epoch runs
    blind, _, _ = scripted_run(script, epochs=6, patience=10, val=False)
    assert blind.epochs_run == 6 and not blind.stopped_early and blind.best_epoch == 5


def test_select_epochs_without_val_rows_takes_the_last_epoch():
    report, seen, final = scripted_run([4, 0, 0, 0, 0, 0], epochs=6, patience=1, val=False)
    assert report.best_epoch == 5 and report.epochs_run == 6
    assert not report.stopped_early
    assert report.best_val_micro is None
    assert all(r["val_micro"] is None for r in report.rows)
    assert final[0] < seen[-1][0]  # the last epoch's update is kept


def test_select_epochs_zero_epochs_leaves_parameters():
    report, seen, final = scripted_run([], epochs=0, patience=3)
    assert report.best_epoch == -1 and report.epochs_run == 0
    assert not report.rows and not seen
    assert report.best_val_micro is None
    assert np.array_equal(final, [0.0])


def test_select_epochs_scores_validation_as_micro_f1():
    # the loop counts correct rows; the float must be E.micro_f1's, also
    # where the accuracy is no short binary fraction
    rng = np.random.default_rng(61)
    for n_val, c in ((7, 3), (13, 4), (600, 2)):
        mask = np.array([D.TRAIN] * 3 + [D.VAL] * n_val + [D.TEST] * 2)
        truth = np.concatenate([np.arange(c), rng.integers(0, c, size=mask.size - c)])
        labels = labeled_vector(truth, mask)
        val = np.flatnonzero(mask == D.VAL)
        probs = [rng.random((mask.size, c)) for _ in range(6)]
        state = M.FlatParams({"w": (1,)})

        def step(epoch):
            state.grads["w"] = [0.0]
            return 1.0, probs[epoch], {}

        report = T.select_epochs(state, 0.1, len(probs), 0, labels, step)
        for row, p in zip(report.rows, probs, strict=True):
            want = E.micro_f1(E.confusion_counts(np.argmax(p[val], axis=1), truth[val], c))
            assert type(row["val_micro"]) is float and row["val_micro"] == want, (n_val, c)


def test_select_epochs_non_finite_loss_names_the_epoch():
    with pytest.raises(NumericError, match="epoch 2"):
        scripted_run([1, 2, 3, 4], epochs=4, patience=0, losses=[1.0, 0.5, np.nan, 0.1])


# ---------------------------------------------------------------- fit


def synth_setup(seed=0, epochs=60, embed_dim=8, n=60, **cfg_over):
    scfg = SynthConfig(n=n, n_classes=2, n_types=2, cols_per_type=4,
                       separations=(3.0, 3.0), noise_std=1.0,
                       embed_dim=4, embed_separation=2.0, embed_noise_std=1.0,
                       seed=seed)
    table, embeddings, labels, _ = generate_synthetic_cohort(scfg)
    cfg = preset_config("synth", embed_dim=embed_dim, epochs=epochs, seed=seed, **cfg_over)
    masked = assign_masks(labels, cfg)
    graph = build_graph_for(table, embeddings, cfg)
    return graph, masked, cfg


def test_fit_needs_one_relation_with_edges():
    graph, masked, cfg = synth_setup(seed=3, epochs=3)
    edgeless = RelationGraph(n=graph.n_nodes, edges=np.zeros((0, 2), dtype=np.int32))
    assert graph.relations[0].n_edges > 0
    _, report = fit(dataclasses.replace(graph, relations=[graph.relations[0], edgeless]),
                    masked, cfg)
    assert report.epochs_run == 3
    with pytest.raises(DataError, match="every relation is edgeless at thresholds 0.5, 0.5"):
        fit(dataclasses.replace(graph, relations=[edgeless, edgeless]), masked, cfg)


def test_fit_learns_separable_cohort():
    graph, masked, cfg = synth_setup(seed=0, epochs=200)
    state, report = fit(graph, masked, cfg)
    assert report.best_val_micro >= 0.9
    assert report.test_metrics["micro_f1"] >= 0.8


def test_fit_is_deterministic():
    graph, masked, cfg = synth_setup(seed=1, epochs=10)
    s1, r1 = fit(graph, masked, cfg)
    s2, r2 = fit(graph, masked, cfg)
    assert np.array_equal(s1.flatten(), s2.flatten())
    assert r1.rows == r2.rows
    assert r1.att_weights == r2.att_weights


def test_fit_zero_epochs():
    graph, masked, cfg = synth_setup(seed=2, epochs=0)
    state, report = fit(graph, masked, cfg)
    assert report.epochs_run == 0
    assert not report.rows
    fresh = ModelState(state.dims, seed=cfg.seed)
    assert np.array_equal(state.flatten(), fresh.flatten())


def test_fit_rows_decompose_total():
    graph, masked, cfg = synth_setup(seed=3, epochs=8)
    _, report = fit(graph, masked, cfg)
    assert len(report.rows) == 8
    for row in report.rows:
        recomposed = (row["infomax"] + cfg.alpha * row["consensus"]
                      + cfg.beta * row["supervised"] + cfg.gamma * row["l2"])
        assert row["total"] == pytest.approx(recomposed, abs=1e-9)


def test_fit_early_stopping_with_flat_validation():
    graph, masked, cfg = synth_setup(seed=4, epochs=80, learning_rate=1e-12,
                                     patience=5)
    _, report = fit(graph, masked, cfg)
    assert report.stopped_early
    assert report.epochs_run == 6
    assert report.best_epoch == 0


def test_fit_perfect_score_stop_keeps_the_full_run_outputs():
    graph, masked, cfg = synth_setup(seed=8, epochs=30, embed_dim=16)
    stopped_state, stopped = fit(graph, masked, cfg)
    full_state, full = fit(graph, masked, dataclasses.replace(cfg, patience=0))
    assert stopped.stopped_early and stopped.best_val_micro == 1.0
    assert stopped.epochs_run == stopped.best_epoch + 1 < full.epochs_run == cfg.epochs
    assert stopped_state.flatten().tobytes() == full_state.flatten().tobytes()
    assert stopped.test_metrics == full.test_metrics
    assert stopped.att_weights == full.att_weights
    assert stopped.best_epoch == full.best_epoch
    assert full.rows[:stopped.epochs_run] == stopped.rows


def test_fit_attention_weights_sum_to_one():
    graph, masked, cfg = synth_setup(seed=5, epochs=5)
    _, report = fit(graph, masked, cfg)
    assert len(report.att_weights) == cfg.n_relations
    assert sum(report.att_weights) == pytest.approx(1.0, abs=1e-9)


def test_fit_rejects_mismatched_shapes():
    graph, masked, cfg = synth_setup(seed=6, epochs=2)
    short = LabelVector(masked.labels[:-1], masked.mask[:-1], masked.n_classes)
    with pytest.raises(DataError):
        fit(graph, short, cfg)
    bad = preset_config("synth", n_relations=3, thetas=(0.5, 0.5, 0.5), epochs=2)
    with pytest.raises(DataError):
        fit(graph, masked, bad)


def test_fit_sparse_products_per_epoch(monkeypatch):
    counting = []

    def counting_operator(g):
        counting.append(CountingOp(relation_operator(g)))
        return counting[-1]

    monkeypatch.setattr(T, "relation_operator", counting_operator)
    # in_dim is 12: 4 embedding plus 8 clinical columns; patience 0 runs all
    # 30 epochs past the perfect validation score that would stop the run
    for embed_dim in (16, 12, 8):
        graph, masked, cfg = synth_setup(seed=8, epochs=30, embed_dim=embed_dim, patience=0)
        counting.clear()
        _, report = fit(graph, masked, cfg)
        in_dim = graph.attributes.x.shape[1]
        assert report.epochs_run == cfg.epochs
        if in_dim <= embed_dim:
            # op @ X once per relation, then one product per block of k epochs'
            # corrupted inputs; no block past cfg.epochs
            k = T._BLOCK_COLUMNS // in_dim
            after = [min(k, cfg.epochs - e) * in_dim for e in range(0, cfg.epochs, k)]
            assert after == [144, 144, 72]
        else:
            # per epoch, op @ (X[perm] W) and op @ dpre at the embedding width
            after = [embed_dim] * 2 * report.epochs_run
        assert len(counting) == cfg.n_relations == 2
        assert [op.widths for op in counting] == [[in_dim] + after] * 2


def test_w_first_fit_makes_float32_products(monkeypatch):
    # in_dim 12 above embed_dim 8: the corrupted rows apply W first, so each
    # epoch makes op @ (X[perm] W) and op @ dpre, by packed operators here
    dtypes, step_arrays = [], []
    matmul = M.PackedOperator.__matmul__

    def recording_matmul(op, y):
        out = matmul(op, y)
        dtypes.append((y.dtype, out.dtype))
        return out

    class RecordingArrays(StepArrays):
        def __init__(self, state):
            super().__init__(state)
            step_arrays.append(self)

    monkeypatch.setattr(M.PackedOperator, "__matmul__", recording_matmul)
    monkeypatch.setattr(T, "StepArrays", RecordingArrays)
    monkeypatch.setattr(M, "_DENSE_FROM", 0.0)
    graph, masked, cfg = synth_setup(seed=8, epochs=5, embed_dim=8)
    assert not propagates_first(graph.attributes.x.shape[1], cfg.embed_dim)
    _, report = fit(graph, masked, cfg)
    # op @ X per relation, then two products per relation and epoch
    assert len(dtypes) == cfg.n_relations * (1 + 2 * report.epochs_run)
    assert set(dtypes) == {(np.dtype(np.float32),) * 2}
    (arrays,) = step_arrays
    held = list(vars(arrays).values())
    assert {a.dtype for a in held} == {np.dtype(np.float32), np.dtype(bool)}
    assert [a for a in held if a.dtype == bool] == [arrays.mask]


def test_fit_blocks_match_per_epoch_products(monkeypatch):
    widths = []

    def recording_propagate(op, xs):
        widths.append(xs.shape[1])
        return propagate(op, xs)

    # in_dim 12 gives blocks of k = 12 epochs; each case lists the widths of
    # the blocks made per relation, inline (1 CPU) and one block ahead (2)
    cases = ((dict(epochs=29),  # 2 * 12 + 5: the last block is short
              {1: [144, 144, 60], 2: [144, 144, 60]}),
             (dict(epochs=80, learning_rate=1e-12, patience=5),  # stops mid-block
              {1: [144], 2: [144, 144]}))  # the worker has made block 2 too
    for over, made in cases:
        graph, masked, cfg = synth_setup(seed=11, n=300, embed_dim=16, **over)
        n, in_dim = graph.attributes.x.shape
        k = T._BLOCK_COLUMNS // in_dim
        ops = [relation_operator(g) for g in graph.relations]
        assert any(isinstance(op, M.PackedOperator) for op in ops)  # packed bits run too
        # the reference propagates each epoch's X[perm] alone, by the same
        # operators: a packed float32 product of 12 columns per epoch
        # (test_fit_block_products_match_csr checks the products against CSR)
        with monkeypatch.context() as m:
            m.setattr(T, "_BLOCK_COLUMNS", 1)
            ref_state, ref_report = fit(graph, masked, cfg)
        for cpus in (1, 2):
            widths.clear()
            with monkeypatch.context() as m:
                m.setattr(T, "propagate", recording_propagate)
                m.setattr(T, "_usable_cpus", lambda: cpus)
                state, report = fit(graph, masked, cfg)

            assert report.epochs_run % k and report.epochs_run == ref_report.epochs_run
            assert report.stopped_early == ref_report.stopped_early == (cfg.epochs == 80)
            assert report.best_epoch == ref_report.best_epoch
            assert np.max(np.abs(state.flatten() - ref_state.flatten())) <= 1e-9
            for row, ref in zip(report.rows, ref_report.rows, strict=True):
                for key in ("total", "infomax", "consensus", "supervised", "l2"):
                    assert row[key] == pytest.approx(ref[key], abs=1e-9), key
                assert row["val_micro"] == ref["val_micro"]
            # op @ X per relation, then ceil(epochs_run / k) blocks per
            # relation, plus the one the worker made ahead when the run
            # stopped before the last block; none past cfg.epochs
            starts = list(range(0, report.epochs_run, k))
            if cpus > 1 and len(starts) * k < cfg.epochs:
                starts.append(len(starts) * k)
            assert widths[:len(ops)] == [in_dim] * len(ops)
            assert widths[len(ops):] == [min(k, cfg.epochs - e) * in_dim
                                         for e in starts for _ in ops]
            assert widths[len(ops)::len(ops)] == made[cpus]


@pytest.mark.parametrize("n", [300, 1000])
def test_fit_block_products_match_csr(n, monkeypatch):
    # one block of fit's corrupted inputs by packed operators in float32,
    # against the float64 CSR product of the float64 attributes
    graph, masked, cfg = synth_setup(seed=11, n=n, embed_dim=16, epochs=12)
    x = graph.attributes.x
    k = T._BLOCK_COLUMNS // x.shape[1]
    monkeypatch.setattr(T, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(M, "_DENSE_FROM", 0.0)
    ops = [relation_operator(g) for g in graph.relations]
    assert all(isinstance(op, M.PackedOperator) for op in ops)
    csr = [normalize_adjacency(g) for g in graph.relations]
    stacks = [np.empty((2 * n, x.shape[1]), T._TRAIN_DTYPE) for _ in ops]
    epochs = 0
    for perm in T._corrupted_inputs(x.astype(T._TRAIN_DTYPE), ops, cfg, stacks):
        epochs += 1
        for a, stack in zip(csr, stacks):
            want = a @ x[perm]
            assert np.max(np.abs(stack[n:] - want)) <= 1e-6 * np.max(np.abs(want))
    assert epochs == k == cfg.epochs  # one block product per operator


def _propagate_threads(monkeypatch):
    """Patches train.propagate to record the thread of every call."""
    threads = []

    def recording_propagate(op, xs):
        threads.append(threading.current_thread())
        return propagate(op, xs)

    monkeypatch.setattr(T, "propagate", recording_propagate)
    return threads


def test_fit_joins_its_block_worker(monkeypatch):
    class Boom(Exception):
        pass

    class FailingOp(CountingOp):
        def __matmul__(self, other):
            if len(self.widths) == 2:  # after op @ X and the first block
                raise Boom("second block product")
            return super().__matmul__(other)

    monkeypatch.setattr(T, "_usable_cpus", lambda: 2)
    threads = _propagate_threads(monkeypatch)
    main = threading.main_thread()
    # in_dim 12 gives blocks of k = 12 epochs
    for over in (dict(epochs=40, patience=0),  # a full run of 4 blocks
                 dict(epochs=80, learning_rate=1e-12, patience=5),  # an early stop
                 dict(epochs=0)):
        graph, masked, cfg = synth_setup(seed=11, n=120, embed_dim=16, **over)
        threads.clear()
        before = threading.active_count()
        _, report = fit(graph, masked, cfg)
        assert threading.active_count() == before
        assert report.stopped_early == (cfg.epochs == 80)
        # the blocks came from the worker; epochs=0 makes only op @ X, inline
        assert (set(threads) != {main}) == (cfg.epochs > 0)

    # a failure on the worker, then one in the step while the worker is idle
    graph, masked, cfg = synth_setup(seed=11, n=120, embed_dim=16, epochs=40)
    steps = []

    def failing_step(*args):
        steps.append(args)
        if len(steps) == 15:  # in the second block, with the third one made
            raise Boom("step 15")
        return loss_and_grads(*args)

    for name, patched in (("relation_operator", lambda g: FailingOp(relation_operator(g))),
                          ("loss_and_grads", failing_step)):
        with monkeypatch.context() as m:
            m.setattr(T, name, patched)
            before = threading.active_count()
            with pytest.raises(Boom) as caught:
                fit(graph, masked, cfg)
            # joined when fit raised, while its frames are still held
            assert caught.tb is not None and threading.active_count() == before
    assert len(steps) == 15


def test_fit_starts_no_thread_on_one_cpu(monkeypatch):
    pools = []

    class RecordingPool(T.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(T, "ThreadPoolExecutor", RecordingPool)
    threads = _propagate_threads(monkeypatch)
    graph, masked, cfg = synth_setup(seed=11, n=120, embed_dim=16, epochs=40)
    for cpus, started in ((1, 0), (2, 1)):
        monkeypatch.setattr(T, "_usable_cpus", lambda: cpus)
        pools.clear()
        threads.clear()
        fit(graph, masked, cfg)
        assert len(pools) == started
        assert (set(threads) == {threading.main_thread()}) == (cpus == 1)


def test_training_reads_no_edges_out_of_dense_relations(monkeypatch):
    # a dense relation's operator is made from the built graph's bits, so
    # neither fit nor the single-GCN baseline reads its edges out; a CSR
    # relation's operator and an attachment still do
    table, emb, labels, _ = generate_synthetic_cohort(SynthConfig(n=300, seed=4))
    cfg = preset_config("synth", seed=4, epochs=20)
    read_outs = []
    real = G._read_pairs

    def refusing(*args, **kwargs):
        raise AssertionError("edges read out of a built graph")

    def recording(bits, row_counts, width, upper):
        read_outs.append(upper)
        return real(bits, row_counts, width, upper)

    monkeypatch.setattr(G, "_read_pairs", refusing)
    result = run_experiment(table, emb, labels, cfg)
    graphs = result.graph.relations
    assert all(isinstance(relation_operator(g), M.PackedOperator) for g in graphs)
    # what the run's notes and the graph command's log line read
    assert [g.n_edges for g in graphs] == [int(g.degrees().sum()) // 2 for g in graphs]
    run_single_gcn_baseline(table, emb, labels, cfg)

    monkeypatch.setattr(G, "_read_pairs", recording)
    csr = run_experiment(table, emb, labels, dataclasses.replace(cfg, thetas=(0.9, 0.9)))
    assert read_outs == [True, True]  # one read-out per CSR relation
    assert not any(isinstance(relation_operator(g), M.PackedOperator)
                   for g in csr.graph.relations)
    old, new = ([D.FeatureTable(table.values[rows], table.column_names, table.column_kinds,
                                table.row_ids[rows]),
                 D.EmbeddingTable(emb.values[rows], emb.row_ids[rows])]
                for rows in (slice(0, 250), slice(250, 300)))
    graph = build_graph_for(*old, cfg)
    read_outs.clear()
    G.attach_new_nodes(graph, *new)
    # each relation's pairs with the new rows, then its own edges
    assert read_outs == [False, True, False, True]


def test_dense_operators_need_no_edge_arrays(monkeypatch):
    # build_graph_for plus both relation_operators on the synth preset at
    # n = 3000 (seed 21: relations 20 % and 28 % dense) at 2 usable CPUs.
    # Building the graphs as edge arrays (17,164,880 bytes) and packing their
    # operators from those edges peaked at 24,331,534 traced bytes; built as
    # bits, the same graphs and operators must peak below that minus the edges.
    monkeypatch.setattr(G, "_usable_cpus", lambda: 2)  # two bands of similarities at once
    table, emb, _, _ = generate_synthetic_cohort(SynthConfig(n=3000, seed=21))
    cfg = preset_config("synth", seed=21)
    tracemalloc.start()
    try:
        graph = build_graph_for(table, emb, cfg)
        ops = [relation_operator(g) for g in graph.relations]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(isinstance(op, M.PackedOperator) for op in ops)
    edge_bytes = sum(8 * g.n_edges for g in graph.relations)
    assert edge_bytes == 17_164_880  # the graphs measured above
    assert peak < 24_331_534 - edge_bytes, peak


def test_traced_functions_run_on_the_main_thread(monkeypatch, tmp_path):
    # perfbench's Tracer keeps one span stack per process, so a traced
    # function called from fit's block worker, or from graph's pool, would
    # nest its spans wrongly
    calls = []

    def recorder(fn, name):
        def recorded(*args, **kwargs):
            calls.append((name, threading.current_thread()))
            return fn(*args, **kwargs)
        return recorded

    targets = [(importlib.import_module(module_name), module_name + "." + attr, attr)
               for module_name, attr in traced_targets()]
    modules = [m for k, m in sorted(sys.modules.items())
               if m is not None and (k == "medplex" or k.startswith("medplex."))]
    for owner, name, attr in targets:
        original = getattr(owner, attr)
        wrapped = recorder(original, name)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapped)
    monkeypatch.setattr(T, "_usable_cpus", lambda: 2)
    threads = _propagate_threads(monkeypatch)
    graph, masked, cfg = synth_setup(seed=11, n=120, embed_dim=16, epochs=40)
    assert any(isinstance(relation_operator(g), M.PackedOperator) for g in graph.relations)
    calls.clear()
    T.fit(graph, masked, cfg)
    assert set(threads) != {threading.main_thread()}  # the worker ran
    names = {name for name, _ in calls}
    # a step that inlined the losses would leave their spans empty
    assert {"medplex.train.fit", "medplex.train.loss_and_grads",
            "medplex.train.infomax_loss", "medplex.train.consensus_loss",
            "medplex.train.supervised_loss", "medplex.train.adam_step"} <= names
    assert [c for c in calls if c[1] is not threading.main_thread()] == []

    # `medplex graph` and an attachment, with graph's pool running
    monkeypatch.setattr(G, "_usable_cpus", lambda: 2)
    writers = []
    real_write = G.write_edge_list
    monkeypatch.setattr(G, "write_edge_list", lambda *args: writers.append(
        threading.current_thread()) or real_write(*args))
    calls.clear()
    data = tmp_path / "cohort"
    assert run(["--quiet", "synth", "--out", str(data)]) == 0
    assert run(["--quiet", "graph", "--data", str(data), "--preset", "synth",
                "--out", str(tmp_path / "graph")]) == 0
    table, emb, _, _ = generate_synthetic_cohort(SynthConfig(n=400, seed=11))
    old, new = ([D.FeatureTable(table.values[rows], table.column_names, table.column_kinds,
                                table.row_ids[rows]),
                 D.EmbeddingTable(emb.values[rows], emb.row_ids[rows])]
                for rows in (slice(0, 300), slice(300, 400)))
    G.attach_new_nodes(build_graph_for(*old, preset_config("synth", seed=11)), *new)
    assert set(writers) != {threading.main_thread()}  # the pool ran
    names = {name for name, _ in calls}
    assert {"medplex.graph.build_relation_graph", "medplex.graph.write_multiplex",
            "medplex.graph.attach_new_nodes"} <= names
    assert [c for c in calls if c[1] is not threading.main_thread()] == []


_FIT_DIGEST = """
import hashlib, json
from medplex.data import SynthConfig, generate_synthetic_cohort
from medplex.pipeline import assign_masks, build_graph_for, pooled_probs, run_single_gcn_baseline
from medplex.train import fit, preset_config
table, emb, labels, _ = generate_synthetic_cohort(SynthConfig(n=%d, seed=12))
cfg = preset_config("synth", epochs=20, seed=12)
graph = build_graph_for(table, emb, cfg)
state, report = fit(graph, assign_masks(labels, cfg), cfg)
gcn = run_single_gcn_baseline(table, emb, labels, cfg)
blob = state.flatten().tobytes() + json.dumps(report.to_json_dict(), sort_keys=True).encode()
blob += pooled_probs(state, graph).tobytes()
blob += b"".join(gcn.params[k].tobytes() for k in sorted(gcn.params))
print(hashlib.sha256(blob).hexdigest())
"""


def test_fit_bytes_equal_across_blas_threads():
    # the fit, the pooled probabilities and the single-GCN baseline; n = 600
    # spans three tiles of a dense operator; at n = 1000 a dW GEMM over all
    # 2n rows at once splits differently at 2 threads (see model.rows_product)
    for n in (600, 1000):
        digests = stdout_at_blas_threads(_FIT_DIGEST % n)
        assert len(digests[0]) == 64 and digests[0] == digests[1], n


def test_fit_never_holds_a_dense_operator():
    n = 2000
    table, emb, labels, _ = generate_synthetic_cohort(SynthConfig(n=n, seed=13))
    cfg = preset_config("synth", n_relations=1, thetas=(0.55,), epochs=2, seed=13)
    graph = build_graph_for(table, emb, cfg)
    masked = assign_masks(labels, cfg)
    assert 2 * graph.relations[0].n_edges + n >= M._DENSE_FROM * n * n
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fit(graph, masked, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n, peak


def test_making_a_block_holds_no_float64_block(monkeypatch):
    # fit's corrupted inputs gathered from its float32 X and propagated by a
    # packed operator: the block made and held is float32, and so is the
    # gather; a float64 gather alone would take one float64 n x k·in_dim array
    n, in_dim = 2000, 18
    rng = np.random.default_rng(51)
    op = M.PackedOperator(random_graph(rng, n, 0.3))
    x = rng.normal(size=(n, in_dim)).astype(T._TRAIN_DTYPE)
    cfg = preset_config("synth", n_relations=1, thetas=(0.5,), epochs=8)
    width = T._BLOCK_COLUMNS // in_dim * in_dim  # 144: one block of all 8 epochs
    stacks = [np.empty((2 * n, in_dim), T._TRAIN_DTYPE)]
    monkeypatch.setattr(T, "_usable_cpus", lambda: 1)  # the block is made inline
    blocks = T._corrupted_inputs(x, [op], cfg, stacks)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        next(blocks)
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
        blocks.close()
    float64_block = 8 * n * width  # 2,304,000 bytes
    # held: the float32 block (1,152,000 bytes) and the 8 permutations
    assert held < float64_block, held
    # beyond it: the float32 gather and the product's fixed tile buffers (at
    # n = 1000 those two alone come to just above the float64 block)
    assert peak - held < float64_block, peak - held


def test_warm_training_step_allocates_no_n_row_array():
    # fit's step at n = 1000 with the synth preset: 18 attribute columns,
    # 2n-row propagate-first stacks and 32 embedding columns
    n = 1000
    table, emb, labels, _ = generate_synthetic_cohort(SynthConfig(n=n, seed=10))
    cfg = preset_config("synth", seed=10)
    graph = build_graph_for(table, emb, cfg)
    masked = assign_masks(labels, cfg)
    x = graph.attributes.x
    assert x.shape[1] == 18 and cfg.embed_dim == 32
    ops = [relation_operator(g) for g in graph.relations]
    perm = M.corrupt_features(x, seed=[cfg.seed, 0])
    # one (R, 2n, in_dim) array, as fit holds them
    stacks = np.stack([np.concatenate([propagate(op, x), propagate(op, x[perm])]) for op in ops])
    # the float64 step, and fit's float32 one with its inputs rounded
    for dtype in (np.float64, np.float32):
        state = ModelState(ModelDims(n, x.shape[1], cfg.embed_dim, cfg.n_relations,
                                     masked.n_classes), seed=cfg.seed, dtype=dtype)
        arrays, adam = StepArrays(state), AdamState.for_model(state)
        x_step, ax = x.astype(dtype), stacks.astype(dtype)

        def step():
            loss_and_grads(state, ops, x_step, masked, cfg, perm, ax, arrays)
            adam_step(state, adam, cfg.learning_rate)

        step()  # warm: the label vector's row lists are made on first use
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            step()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # below one 2n x embed_dim array of the step's dtype: 512,000 bytes
        # for float64, 256,000 for float32
        assert peak < np.dtype(dtype).itemsize * 2 * n * cfg.embed_dim, (dtype, peak)


def test_pooled_probs_match_training_forward():
    # exactly while the input is no wider than the embedding, where inference
    # propagates first like the training's clean path; to rounding otherwise.
    # Against the per-relation layers written out, bytes in every case.
    for embed_dim, thetas in ((16, (0.5, 0.5)), (8, (0.5, 0.5)), (16, (0.9, 0.9)),
                              (8, (0.9, 0.9))):
        graph, masked, cfg = synth_setup(seed=9, epochs=5, embed_dim=embed_dim,
                                         thetas=thetas)
        state, _ = fit(graph, masked, cfg)
        ops = [relation_operator(g) for g in graph.relations]
        # at 0.9 one relation is sparse enough for CSR
        assert sum(not isinstance(op, M.PackedOperator) for op in ops) == (thetas[0] == 0.9)
        x = graph.attributes.x
        fc = model_forward(state, ops, x, np.arange(graph.n_nodes),
                           [propagate(op, x) for op in ops], StepArrays(state))
        expected, _ = classify(fc.pool[:graph.n_nodes], state.params["cls_w"],
                               state.params["cls_b"])
        got = pooled_probs(state, graph)
        if x.shape[1] <= embed_dim:
            assert np.array_equal(got, expected)
        else:
            assert np.max(np.abs(got - expected)) <= 1e-12

        hs = []
        for r, op in enumerate(ops):
            w = state.params["enc_w_%d" % r]
            pre = (op @ x) @ w if x.shape[1] <= embed_dim else op @ (x @ w)
            hs.append(np.maximum(pre, 0.0))
        weights = M.attention_weights(state.params["att_logits"])
        pooled = (weights @ np.stack(hs).reshape(len(hs), -1)).reshape(hs[0].shape)
        reference, _ = classify(pooled, state.params["cls_w"], state.params["cls_b"])
        assert np.array_equal(got, reference), (embed_dim, thetas)


def test_pooled_probs_refuse_another_relation_count():
    graph, masked, cfg = synth_setup(seed=9, epochs=2)
    state, _ = fit(graph, masked, cfg)
    one = dataclasses.replace(graph, relations=graph.relations[:1], thetas=graph.thetas[:1])
    with pytest.raises(DataError, match="1 operators, 2 weights"):
        pooled_probs(state, one)
