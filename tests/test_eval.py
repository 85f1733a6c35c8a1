import csv
import math

import numpy as np
import pytest

from medplex import data as D
from medplex.data import LabelVector, SynthConfig, generate_synthetic_cohort, split_masks
from medplex.errors import DataError
from medplex.evaluate import (
    SWEEP_KINDS,
    ConfusionCounts,
    accuracy,
    attention_report,
    confusion_counts,
    macro_f1,
    metrics_report,
    micro_f1,
    subsample_train,
    summarize_sweep,
    sweep,
    write_sweep_csv,
)
from medplex.clustering import ClusterPartition
from medplex.model import ModelDims, ModelState, attention_weights, attentive_pool
from medplex.train import preset_config


def brute_confusion(pred, truth, n_classes):
    m = np.zeros((n_classes, n_classes), dtype=np.int64)
    for p, t in zip(pred, truth):
        m[t, p] += 1
    return m


# ---------------------------------------------------------------- confusion


def test_confusion_perfect_prediction():
    truth = np.array([0, 1, 2, 1, 0])
    cc = confusion_counts(truth, truth, 3)
    assert np.array_equal(cc.matrix, np.diag([2, 2, 1]))
    assert cc.tp().sum() == 5 and cc.fp().sum() == 0 and cc.fn().sum() == 0


def test_confusion_total_miss():
    cc = confusion_counts([1, 0], [0, 1], 2)
    assert np.array_equal(cc.matrix, [[0, 1], [1, 0]])
    assert cc.tp().sum() == 0


def test_confusion_matches_brute_force():
    rng = np.random.default_rng(40)
    for trial in range(20):
        c = int(rng.integers(2, 6))
        n = int(rng.integers(1, 50))
        pred = rng.integers(0, c, size=n)
        truth = rng.integers(0, c, size=n)
        cc = confusion_counts(pred, truth, c)
        assert np.array_equal(cc.matrix, brute_confusion(pred, truth, c))


def test_confusion_validation():
    with pytest.raises(DataError):
        confusion_counts([0, 1], [0], 2)
    with pytest.raises(DataError):
        confusion_counts([], [], 2)
    with pytest.raises(DataError):
        confusion_counts([0, 2], [0, 1], 2)
    with pytest.raises(DataError):
        confusion_counts([0, -1], [0, 1], 2)
    with pytest.raises(DataError):
        ConfusionCounts(np.zeros((2, 3)))
    with pytest.raises(DataError):
        ConfusionCounts(np.array([[1, -1], [0, 1]]))


# ---------------------------------------------------------------- f1 scores


def test_macro_f1_hand_value():
    # P = (1/2 + 1)/2 = 0.75, R = (1 + 1/2)/2 = 0.75, harmonic mean 0.75.
    cc = confusion_counts([0, 0, 1], [0, 1, 1], 2)
    assert macro_f1(cc) == pytest.approx(0.75, abs=1e-12)
    # the mean of the two per-class F1 scores is 2/3, a different statistic
    assert macro_f1(cc) != pytest.approx(2.0 / 3.0, abs=1e-6)


def test_macro_f1_all_predicted_one_class():
    # P = (1/2 + 0)/2 = 0.25, R = (1 + 0)/2 = 0.5, harmonic mean 1/3.
    cc = confusion_counts([0, 0, 0, 0], [0, 0, 1, 1], 2)
    assert macro_f1(cc) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_micro_f1_hand_values():
    assert micro_f1(confusion_counts([0, 0, 1], [0, 1, 1], 2)) == pytest.approx(2.0 / 3.0)
    assert micro_f1(confusion_counts([0, 0, 0, 0], [0, 0, 1, 1], 2)) == pytest.approx(0.5)


def test_micro_f1_equals_accuracy_bit_exact():
    rng = np.random.default_rng(41)
    for trial in range(50):
        c = int(rng.integers(2, 7))
        n = int(rng.integers(1, 80))
        cc = confusion_counts(rng.integers(0, c, size=n), rng.integers(0, c, size=n), c)
        assert micro_f1(cc) == accuracy(cc)


def test_metrics_invariant_under_row_permutation():
    rng = np.random.default_rng(42)
    pred = rng.integers(0, 3, size=30)
    truth = rng.integers(0, 3, size=30)
    perm = rng.permutation(30)
    a = confusion_counts(pred, truth, 3)
    b = confusion_counts(pred[perm], truth[perm], 3)
    assert np.array_equal(a.matrix, b.matrix)


def test_metric_bounds():
    rng = np.random.default_rng(43)
    for trial in range(30):
        c = int(rng.integers(2, 5))
        n = int(rng.integers(1, 40))
        cc = confusion_counts(rng.integers(0, c, size=n), rng.integers(0, c, size=n), c)
        for metric in (macro_f1(cc), micro_f1(cc), accuracy(cc)):
            assert 0.0 <= metric <= 1.0


def test_zero_everything_scores_zero():
    cc = confusion_counts([1], [0], 2)
    assert macro_f1(cc) == 0.0 and micro_f1(cc) == 0.0 and accuracy(cc) == 0.0


def test_metrics_report_contents():
    rep = metrics_report([0, 0, 1], [0, 1, 1], 2)
    assert rep.n == 3
    assert rep.accuracy == pytest.approx(2.0 / 3.0)
    assert rep.confusion == [[1, 0], [1, 1]]
    assert [pc["support"] for pc in rep.per_class] == [1, 2]
    assert rep.per_class[0]["recall"] == 1.0
    assert rep.per_class[0]["precision"] == 0.5
    assert metrics_report([0], [0], 1) is not None


# ---------------------------------------------------------------- attention


def test_attention_report_uniform():
    rep = attention_report(np.array([0.25, 0.25, 0.25, 0.25]))
    assert rep["weights"] == [0.25] * 4
    assert rep["ranking"] == [0, 1, 2, 3]
    assert rep["uniform_weight"] == 0.25


def test_attention_report_ranks_by_weight():
    rep = attention_report(np.array([0.2, 0.5, 0.3]))
    assert rep["ranking"] == [1, 2, 0]


def test_attention_report_from_model_state():
    state = ModelState(ModelDims(4, 3, 2, 2, 2), seed=0)
    state.params["att_logits"] = np.array([math.log(2.0), 0.0])
    rep = attention_report(state)
    assert rep["weights"][0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    # the report and the pool share one softmax, bit for bit
    pooled_weights = attentive_pool([np.ones((2, 2))] * 2, state.params["att_logits"])[1]
    assert rep["weights"] == attention_weights(state.params["att_logits"]).tolist()
    assert rep["weights"] == pooled_weights.tolist()
    assert rep["ranking"] == [0, 1]


def test_attention_report_lists_partition_columns():
    part = ClusterPartition(assignment=np.array([0, 1, 0]), n_types=2,
                            source="manual", column_names=["age", "vol", "score"])
    rep = attention_report(np.array([0.4, 0.6]), partition=part)
    assert rep["relations"][0]["columns"] == ["age", "score"]
    assert rep["relations"][1]["columns"] == ["vol"]


def test_attention_report_validation():
    with pytest.raises(DataError):
        attention_report(np.array([0.5, 0.6]))
    with pytest.raises(DataError):
        attention_report(np.array([-0.5, 1.5]))
    with pytest.raises(DataError):
        attention_report(np.array([]))


# ---------------------------------------------------------------- subsampling


def make_masked(n=40, n_classes=2, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.arange(n_classes)] * (n // n_classes))[:n]
    mask = split_masks(labels, (0.6, 0.1, 0.3), seed)
    return LabelVector(labels, mask, n_classes)


def test_subsample_keeps_at_least_one_per_class():
    lv = make_masked()
    out = subsample_train(lv, 0.01, seed=0)
    for cls in range(lv.n_classes):
        kept = np.sum((out.mask == D.TRAIN) & (out.labels == cls))
        assert kept == 1


def test_subsample_full_fraction_is_identity():
    lv = make_masked()
    out = subsample_train(lv, 1.0, seed=0)
    assert np.array_equal(out.mask, lv.mask)


def test_subsample_rounds_per_class():
    lv = make_masked(n=40)  # 12 TRAIN rows per class at the default split
    out = subsample_train(lv, 0.5, seed=3)
    for cls in range(2):
        kept = np.sum((out.mask == D.TRAIN) & (out.labels == cls))
        assert kept == 6


def test_subsample_leaves_val_and_test_alone():
    lv = make_masked()
    out = subsample_train(lv, 0.2, seed=1)
    for code in (D.VAL, D.TEST):
        assert np.array_equal(out.mask == code, lv.mask == code)
    # demoted rows became UNLABELED, none vanished
    assert np.sum(out.mask == D.UNLABELED) > np.sum(lv.mask == D.UNLABELED)


def test_subsample_fraction_range():
    lv = make_masked()
    with pytest.raises(DataError):
        subsample_train(lv, 0.0, seed=0)
    with pytest.raises(DataError):
        subsample_train(lv, 1.5, seed=0)


# ---------------------------------------------------------------- sweeps


def sweep_fixture():
    scfg = SynthConfig(n=45, n_classes=2, n_types=2, cols_per_type=4,
                       separations=(2.0, 2.0), noise_std=1.0,
                       embed_dim=4, embed_separation=1.0, embed_noise_std=1.0, seed=0)
    table, embeddings, labels, _ = generate_synthetic_cohort(scfg)
    cfg = preset_config("synth", embed_dim=8, epochs=2, seed=0)
    return table, embeddings, labels, cfg


def test_sweep_rejects_bad_inputs():
    table, embeddings, labels, cfg = sweep_fixture()
    with pytest.raises(DataError):
        sweep("bogus", [1], table, embeddings, labels, cfg)
    with pytest.raises(DataError):
        sweep("label_fraction", [], table, embeddings, labels, cfg)
    assert SWEEP_KINDS == ("cluster_count", "label_fraction", "feature_subset")


def test_label_fraction_sweep_rows():
    table, embeddings, labels, cfg = sweep_fixture()
    rows = sweep("label_fraction", [0.5, 1.0], table, embeddings, labels, cfg,
                 seeds=(0, 1))
    assert len(rows) == 4
    assert [r["grid_value"] for r in rows] == [0.5, 0.5, 1.0, 1.0]
    assert [r["seed"] for r in rows] == [0, 1, 0, 1]
    for r in rows:
        assert 0.0 <= r["micro_f1"] <= 1.0
        assert 0.0 <= r["macro_f1"] <= 1.0


def test_cluster_count_sweep_changes_relations():
    table, embeddings, labels, cfg = sweep_fixture()
    rows = sweep("cluster_count", [1, 2], table, embeddings, labels, cfg, seeds=(0,))
    assert len(rows) == 2
    assert rows[0]["grid_value"] == 1.0 and rows[1]["grid_value"] == 2.0


def test_feature_subset_sweep_bounds():
    table, embeddings, labels, cfg = sweep_fixture()
    with pytest.raises(DataError):
        sweep("feature_subset", [3], table, embeddings, labels, cfg, seeds=(0,))
    rows = sweep("feature_subset", [1, 2], table, embeddings, labels, cfg, seeds=(0,))
    assert len(rows) == 2


def test_sweep_csv_header_and_roundtrip(tmp_path):
    rows = [
        {"grid_value": 0.5, "seed": 0, "macro_f1": 0.8125, "micro_f1": 0.875},
        {"grid_value": 1.0, "seed": 1, "macro_f1": 0.75, "micro_f1": 0.75},
    ]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, rows)
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == ["grid_value", "seed", "macro_f1", "micro_f1"]
    assert len(parsed) == 3
    assert float(parsed[1][0]) == 0.5
    assert float(parsed[1][2]) == 0.8125
    assert int(parsed[2][1]) == 1


def test_sweep_csv_bytes_are_csv_writers(tmp_path):
    # the bytes csv.writer wrote, CRLF line ends included, one cell format
    # per column; nan for a run without TEST rows
    rows = [
        {"grid_value": 0.1, "seed": 0, "macro_f1": 2 / 3, "micro_f1": 0.7},
        {"grid_value": -1e-300, "seed": 12, "macro_f1": float("nan"), "micro_f1": 1.0},
        {"grid_value": 3.0, "seed": 7, "macro_f1": 0.0, "micro_f1": float("nan")},
    ]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, rows)
    assert path.read_bytes() == (
        b"grid_value,seed,macro_f1,micro_f1\r\n"
        b"0.10000000000000001,0,0.66666666666666663,0.69999999999999996\r\n"
        b"-1e-300,12,nan,1\r\n"
        b"3,7,0,nan\r\n")
    write_sweep_csv(path, [])
    assert path.read_bytes() == b"grid_value,seed,macro_f1,micro_f1\r\n"


def test_summarize_sweep_median_and_iqr():
    rows = [
        {"grid_value": 0.5, "seed": s, "macro_f1": v, "micro_f1": v}
        for s, v in enumerate([0.5, 0.7, 0.9])
    ]
    summary = summarize_sweep(rows)
    entry = summary[repr(0.5)]
    assert entry["runs"] == 3
    assert entry["median_micro_f1"] == pytest.approx(0.7)
    assert entry["iqr_micro_f1"] == pytest.approx(0.2)
