import dataclasses

import numpy as np
import pytest

from conftest import CountingOp, fd_grad, max_rel_err
from medplex import baselines as B
from medplex import data as D
from medplex.baselines import (
    fit_mlp,
    fit_single_gcn,
    forward,
    loss_and_grads,
)
from medplex.data import (
    FeatureTable,
    LabelVector,
    SynthConfig,
    generate_synthetic_cohort,
    split_masks,
)
from medplex.errors import DataError
from medplex.graph import RelationGraph
from medplex.model import normalize_adjacency, relation_operator
from medplex.pipeline import (
    run_experiment,
    run_mlp_baseline,
    run_single_gcn_baseline,
)
from medplex.train import TrainingConfig, preset_config


def table_from(values, prefix="c"):
    values = np.asarray(values, dtype=np.float64)
    names = ["%s%d" % (prefix, j) for j in range(values.shape[1])]
    ids = ["p%03d" % i for i in range(values.shape[0])]
    return FeatureTable(values=values, column_names=names,
                        column_kinds=["numeric"] * values.shape[1], row_ids=ids)


def masked_labels(labels, fractions=(0.6, 0.1, 0.3), seed=0):
    labels = np.asarray(labels)
    mask = split_masks(labels, fractions, seed)
    return LabelVector(labels, mask, int(labels.max()) + 1)


def all_train(labels):
    labels = np.asarray(labels)
    mask = np.full(labels.shape, D.TRAIN, dtype=np.int8)
    return LabelVector(labels, mask, int(labels.max()) + 1)


def two_blob_data(rng, n=40, d=5, gap=4.0):
    labels = np.arange(n) % 2
    x = rng.normal(size=(n, d))
    x[labels == 1, 0] += gap
    return x, labels


# ---------------------------------------------------------------- config


def test_baseline_config_validation():
    # the baselines read the run's config, so its checks guard them
    with pytest.raises(DataError):
        TrainingConfig(embed_dim=0)
    with pytest.raises(DataError):
        TrainingConfig(epochs=-1)


# ---------------------------------------------------------------- gradients


def test_mlp_gradients_match_fd():
    rng = np.random.default_rng(30)
    n, f, hdim, c = 8, 4, 3, 3
    x = rng.normal(size=(n, f))
    lv = all_train(rng.integers(0, c, size=n))
    params = {
        "w1": rng.normal(size=(f, hdim)),
        "b1": rng.normal(size=hdim),
        "w2": rng.normal(size=(hdim, c)),
        "b2": rng.normal(size=c),
    }
    _, grads, _ = loss_and_grads("mlp", params, x, lv)
    for name in params:
        shape = params[name].shape

        def f(v, name=name, shape=shape):
            trial = {k: p.copy() for k, p in params.items()}
            trial[name] = v.reshape(shape)
            return loss_and_grads("mlp", trial, x, lv)[0]

        fd = fd_grad(f, params[name].ravel())
        assert max_rel_err(grads[name].ravel(), fd) < 1e-4, name


def test_single_gcn_gradients_match_fd():
    rng = np.random.default_rng(31)
    n, f, hdim, c = 8, 4, 3, 2
    x = rng.normal(size=(n, f))
    table = table_from(rng.normal(size=(n, 3)))
    lv = all_train(rng.integers(0, c, size=n))
    model = fit_single_gcn(x, table, lv, theta=0.3,
                           cfg=TrainingConfig(embed_dim=hdim, epochs=0, patience=100))
    params = {k: rng.normal(size=v.shape) for k, v in model.params.items()}
    _, grads, _ = loss_and_grads("single_gcn", params, x, lv, op=model.op)
    for name in params:
        shape = params[name].shape

        def f(v, name=name, shape=shape):
            trial = {k: p.copy() for k, p in params.items()}
            trial[name] = v.reshape(shape)
            return loss_and_grads("single_gcn", trial, x, lv, op=model.op)[0]

        fd = fd_grad(f, params[name].ravel())
        assert max_rel_err(grads[name].ravel(), fd) < 1e-4, name


# ---------------------------------------------------------------- behavior


def test_mlp_fits_separable_blobs():
    rng = np.random.default_rng(32)
    x, labels = two_blob_data(rng)
    lv = all_train(labels)
    model = fit_mlp(x, lv, TrainingConfig(embed_dim=8, epochs=500, patience=100, seed=0))
    pred = np.argmax(model.predict_proba(x), axis=1)
    assert np.mean(pred == labels) == 1.0


def test_single_gcn_fits_separable_blobs():
    rng = np.random.default_rng(33)
    x, labels = two_blob_data(rng, gap=6.0)
    table = table_from(x)
    lv = all_train(labels)
    model = fit_single_gcn(x, table, lv, theta=0.5,
                           cfg=TrainingConfig(embed_dim=8, epochs=500, patience=100, seed=0))
    pred = np.argmax(model.predict_proba(x, op=model.op), axis=1)
    # a few cross-class edges smooth the features, so allow one missed row
    assert np.mean(pred == labels) >= 0.95


def test_mlp_at_chance_on_pure_noise():
    micros = []
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        x = rng.normal(size=(120, 6))
        labels = rng.integers(0, 2, size=120)
        labels[:2] = [0, 1]  # keep both classes present
        lv = masked_labels(labels, seed=seed)
        model = fit_mlp(x, lv, TrainingConfig(embed_dim=8, epochs=150, patience=100,
                                              seed=seed))
        micros.append(model.report["test_metrics"]["micro_f1"])
    assert abs(float(np.mean(micros)) - 0.5) < 0.15


def test_theta_one_gcn_degrades_to_relu_linear():
    rng = np.random.default_rng(34)
    x, labels = two_blob_data(rng, n=30)
    table = table_from(x)
    lv = all_train(labels)
    model = fit_single_gcn(x, table, lv, theta=1.0,
                           cfg=TrainingConfig(embed_dim=6, epochs=300, patience=100, seed=1))
    assert np.array_equal(model.op.toarray(), np.eye(30))
    probs = model.predict_proba(x, op=model.op)
    h = np.maximum(x @ model.params["w1"], 0.0)
    logits = h @ model.params["w2"] + model.params["b2"]
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    assert probs == pytest.approx(z / z.sum(axis=1, keepdims=True), abs=1e-12)
    pred = np.argmax(probs, axis=1)
    assert np.mean(pred == labels) == 1.0


def test_single_gcn_fit_propagates_once(monkeypatch):
    rng = np.random.default_rng(37)
    x, labels = two_blob_data(rng)
    lv = masked_labels(labels)
    for epochs in (0, 1, 30):
        counting = []

        def counting_operator(g):
            counting.append(CountingOp(relation_operator(g)))
            return counting[-1]

        monkeypatch.setattr(B, "relation_operator", counting_operator)
        model = fit_single_gcn(x, table_from(x), lv, theta=0.5,
                               cfg=TrainingConfig(embed_dim=4, epochs=epochs, patience=100,
                                                  seed=2))
        assert len(model.report["rows"]) == epochs
        assert len(counting) == 1 and counting[0].widths == [x.shape[1]], epochs


def test_predict_proba_uses_the_operator_it_is_given():
    rng = np.random.default_rng(38)
    x, labels = two_blob_data(rng, gap=2.0)
    identity = normalize_adjacency(RelationGraph(n=x.shape[0], edges=np.zeros((0, 2))))
    x_new = x + rng.normal(size=x.shape)
    # a hidden layer wider than x propagates x first, a narrower one x @ w1
    for hidden, widths in ((6, [x.shape[1]]), (3, [3])):
        model = fit_single_gcn(x, table_from(x), masked_labels(labels), theta=0.5,
                               cfg=TrainingConfig(embed_dim=hidden, epochs=50, patience=100,
                                                  seed=3))
        p = model.params

        def reference(x_, op_):
            h = np.maximum(op_ @ (x_ @ p["w1"]), 0.0)
            logits = h @ p["w2"] + p["b2"]
            z = np.exp(logits - logits.max(axis=1, keepdims=True))
            return z / z.sum(axis=1, keepdims=True)

        trained = model.predict_proba(x)
        assert trained == pytest.approx(reference(x, model.op), abs=1e-12)
        other = CountingOp(identity)
        assert model.predict_proba(x, other) == pytest.approx(reference(x, identity), abs=1e-12)
        assert other.widths == widths
        assert not np.allclose(model.predict_proba(x, identity), trained)
        assert model.predict_proba(x_new) == pytest.approx(reference(x_new, model.op), abs=1e-12)


def test_baselines_deterministic():
    rng = np.random.default_rng(35)
    x, labels = two_blob_data(rng)
    lv = masked_labels(labels)
    cfg = TrainingConfig(embed_dim=4, epochs=40, patience=100, seed=7)
    a = fit_mlp(x, lv, cfg)
    b = fit_mlp(x, lv, cfg)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
    assert a.report["rows"] == b.report["rows"]


def test_early_stopping_on_flat_validation(monkeypatch):
    rng = np.random.default_rng(36)
    x, labels = two_blob_data(rng)
    lv = masked_labels(labels)
    monkeypatch.setattr(B, "LEARNING_RATE", 1e-12)
    model = fit_mlp(x, lv, TrainingConfig(embed_dim=4, epochs=200, patience=5))
    assert len(model.report["rows"]) == 6
    assert model.report["best_epoch"] == 0


def test_perfect_score_stop_keeps_the_full_run_params():
    scfg = SynthConfig(n=60, n_classes=2, n_types=2, cols_per_type=4,
                       separations=(3.0, 3.0), noise_std=1.0, embed_dim=4,
                       embed_separation=2.0, embed_noise_std=1.0, seed=0)
    table, emb, labels, _ = generate_synthetic_cohort(scfg)
    cfg = preset_config("synth", embed_dim=8, epochs=60)
    for run_baseline in (run_mlp_baseline, run_single_gcn_baseline):
        stopped = run_baseline(table, emb, labels, cfg)
        full = run_baseline(table, emb, labels, dataclasses.replace(cfg, patience=0))
        rows = stopped.report["rows"]
        assert stopped.report["best_val_micro"] == 1.0
        assert len(rows) == stopped.report["best_epoch"] + 1 < len(full.report["rows"])
        assert full.report["rows"][:len(rows)] == rows
        for name in full.params:
            assert stopped.params[name].tobytes() == full.params[name].tobytes(), name
        assert stopped.report["test_metrics"] == full.report["test_metrics"]


# ---------------------------------------------------------------- errors


def test_forward_rejects_unknown_kind():
    with pytest.raises(DataError):
        forward("tree", {}, np.zeros((2, 2)))


def test_single_gcn_forward_needs_operator():
    with pytest.raises(DataError):
        forward("single_gcn", {"w1": np.zeros((2, 2))}, np.zeros((2, 2)), op=None)


def test_baselines_reject_row_mismatch():
    lv = all_train([0, 1, 0, 1])
    with pytest.raises(DataError):
        fit_mlp(np.zeros((3, 2)), lv, TrainingConfig(epochs=1, patience=100))
    with pytest.raises(DataError):
        fit_single_gcn(np.zeros((4, 2)), table_from(np.zeros((3, 2))), lv, 0.5,
                       TrainingConfig(epochs=1, patience=100))


def test_loss_needs_train_rows():
    lv = LabelVector(np.array([0, 1]), np.array([D.TEST, D.TEST], dtype=np.int8), 2)
    params = {"w1": np.zeros((2, 2)), "b1": np.zeros(2),
              "w2": np.zeros((2, 2)), "b2": np.zeros(2)}
    with pytest.raises(DataError):
        loss_and_grads("mlp", params, np.zeros((2, 2)), lv)


# ---------------------------------------------------------------- shared masks


def test_all_three_paths_see_identical_masks():
    scfg = SynthConfig(n=60, n_classes=2, n_types=2, cols_per_type=4,
                       separations=(2.0, 2.0), noise_std=1.0,
                       embed_dim=4, embed_separation=1.0, embed_noise_std=1.0, seed=0)
    table, embeddings, labels, _ = generate_synthetic_cohort(scfg)
    cfg = preset_config("synth", embed_dim=8, epochs=3, seed=0, labeled_frac=0.5)
    res = run_experiment(table, embeddings, labels, cfg)
    mlp = run_mlp_baseline(table, embeddings, labels, cfg)
    gcn = run_single_gcn_baseline(table, embeddings, labels, cfg)
    assert res.report.mask_digest == mlp.report["mask_digest"]
    assert res.report.mask_digest == gcn.report["mask_digest"]


def test_single_relation_collapse_matches_multiplex_edges():
    scfg = SynthConfig(n=40, n_classes=2, n_types=1, cols_per_type=5,
                       separations=(2.0,), noise_std=1.0,
                       embed_dim=0, embed_separation=0.0, embed_noise_std=1.0, seed=1)
    table, embeddings, labels, _ = generate_synthetic_cohort(scfg)
    cfg = preset_config("synth", n_relations=1, thetas=(0.4,), embed_dim=8,
                        epochs=2, seed=1)
    res = run_experiment(table, embeddings, labels, cfg)
    # with one relation the multiplex IS the collapsed all-columns graph
    from medplex.data import normalize_columns
    from medplex.graph import build_relation_graph
    c_norm, _ = normalize_columns(table)
    direct = build_relation_graph(c_norm.values, 0.4)
    assert res.graph.relations[0].edge_set() == direct.edge_set()
