import itertools
import json
import os
import re
import tempfile

import numpy as np
import pytest

from medplex.clustering import (
    ClusterPartition,
    _lloyd,
    kmeans_columns,
    load_manual_split,
    save_partition,
)
from medplex.data import FeatureTable, empty_embeddings
from medplex.errors import DataError
from medplex.graph import build_multiplex


def table_from(values, names=None):
    values = np.asarray(values, dtype=np.float64)
    n, f = values.shape
    names = names or ["c%d" % j for j in range(f)]
    return FeatureTable(values, names, ["numeric"] * f, ["r%d" % i for i in range(n)])


def brute_force_bipartition_wcss(points):
    """Best 2-cluster WCSS by trying every non-trivial assignment."""
    m = points.shape[0]
    best = np.inf
    for bits in itertools.product([0, 1], repeat=m):
        bits = np.asarray(bits)
        if bits.min() == bits.max():
            continue
        wcss = 0.0
        for c in (0, 1):
            grp = points[bits == c]
            wcss += float(np.sum((grp - grp.mean(axis=0)) ** 2))
        best = min(best, wcss)
    return best


def test_kmeans_recovers_duplicated_columns():
    rng = np.random.default_rng(0)
    a = rng.normal(size=20)
    b = rng.normal(size=20) + 5
    values = np.stack([a, a + 1e-3, b, b - 1e-3], axis=1)
    part = kmeans_columns(table_from(values), 2)
    assert part.assignment[0] == part.assignment[1]
    assert part.assignment[2] == part.assignment[3]
    assert part.assignment[0] != part.assignment[2]


def test_kmeans_k_equals_columns_zero_wcss():
    rng = np.random.default_rng(1)
    part = kmeans_columns(table_from(rng.normal(size=(10, 4))), 4)
    assert part.wcss == pytest.approx(0.0, abs=1e-12)
    assert sorted(part.assignment.tolist()) == [0, 1, 2, 3]


def test_kmeans_k1_equals_total_column_variance():
    rng = np.random.default_rng(2)
    t = table_from(rng.normal(size=(15, 6)))
    part = kmeans_columns(t, 1)
    points = t.values.T  # the k=1 WCSS: scatter of the columns about the mean column
    assert part.wcss == pytest.approx(float(np.sum((points - points.mean(axis=0)) ** 2)), rel=1e-12)
    assert np.all(part.assignment == 0)


def test_kmeans_matches_exhaustive_bipartition():
    rng = np.random.default_rng(3)
    hits = 0
    for trial in range(10):
        values = rng.normal(size=(12, 6))
        t = table_from(values)
        part = kmeans_columns(t, 2, seed=trial)
        best = brute_force_bipartition_wcss(values.T)
        if part.wcss <= best + 1e-9:
            hits += 1
    assert hits >= 9


def test_lloyd_wcss_never_increases():
    rng = np.random.default_rng(4)
    for trial in range(10):
        points = rng.normal(size=(9, 5))
        _, _, history = _lloyd(points, 3, np.random.default_rng(trial), 100)
        for earlier, later in zip(history, history[1:]):
            assert later <= earlier + 1e-9
        assert history[-1] <= history[0]


def test_kmeans_deterministic():
    rng = np.random.default_rng(5)
    t = table_from(rng.normal(size=(30, 8)))
    p1 = kmeans_columns(t, 3, seed=7)
    p2 = kmeans_columns(t, 3, seed=7)
    assert np.array_equal(p1.assignment, p2.assignment)
    assert p1.wcss == p2.wcss


def test_kmeans_bad_k():
    t = table_from(np.zeros((5, 3)))
    with pytest.raises(DataError, match="exceeds"):
        kmeans_columns(t, 4)
    with pytest.raises(DataError, match="positive"):
        kmeans_columns(t, 0)


def test_kmeans_identical_columns_any_k():
    # degenerate: every column identical; repair must keep all clusters non-empty
    values = np.tile(np.arange(6.0)[:, None], (1, 4))
    part = kmeans_columns(table_from(values), 2)
    sizes = np.bincount(part.assignment, minlength=2)
    assert sizes.min() >= 1
    assert part.wcss == pytest.approx(0.0, abs=1e-9)


def test_partition_validation():
    with pytest.raises(DataError, match="have no columns"):
        ClusterPartition(np.array([0, 0]), 2, "manual", ["a", "b"])
    with pytest.raises(DataError, match="outside"):
        ClusterPartition(np.array([0, 3]), 2, "manual", ["a", "b"])
    p = ClusterPartition(np.array([1, 0, 1]), 2, "manual", ["a", "b", "c"])
    assert p.columns_of(1).tolist() == [0, 2]


# ---------------------------------------------------------------- manual splits


def write_json(obj):
    fd, path = tempfile.mkstemp(suffix=".json")
    with os.fdopen(fd, "w") as fh:
        json.dump(obj, fh)
    return path


def test_manual_split_four_types():
    t = table_from(np.zeros((4, 4)), names=["a", "b", "c", "d"])
    path = write_json({"a": 0, "b": 1, "c": 2, "d": 3})
    try:
        part = load_manual_split(path, t)
    finally:
        os.unlink(path)
    assert part.n_types == 4
    assert part.assignment.tolist() == [0, 1, 2, 3]
    assert part.source == "manual"


def test_manual_split_collapse_to_single_type():
    t = table_from(np.zeros((3, 3)), names=["a", "b", "c"])
    path = write_json({"a": 0, "b": 0, "c": 0})
    try:
        part = load_manual_split(path, t)
    finally:
        os.unlink(path)
    assert part.n_types == 1


def test_manual_split_missing_column():
    t = table_from(np.zeros((3, 2)), names=["a", "b"])
    path = write_json({"a": 0})
    try:
        with pytest.raises(DataError, match="have no type"):
            load_manual_split(path, t)
    finally:
        os.unlink(path)


def test_manual_split_unknown_column():
    t = table_from(np.zeros((3, 1)), names=["a"])
    path = write_json({"a": 0, "zzz": 1})
    try:
        with pytest.raises(DataError, match="unknown columns"):
            load_manual_split(path, t)
    finally:
        os.unlink(path)


def test_manual_split_non_dense_types():
    t = table_from(np.zeros((3, 2)), names=["a", "b"])
    path = write_json({"a": 0, "b": 2})
    try:
        with pytest.raises(DataError, match="dense"):
            load_manual_split(path, t)
    finally:
        os.unlink(path)


def test_manual_split_bool_type_rejected():
    t = table_from(np.zeros((3, 1)), names=["a"])
    path = write_json({"a": True})
    try:
        with pytest.raises(DataError, match="non-negative integer"):
            load_manual_split(path, t)
    finally:
        os.unlink(path)


def test_manual_split_not_json():
    t = table_from(np.zeros((3, 1)), names=["a"])
    fd, path = tempfile.mkstemp(suffix=".json")
    with os.fdopen(fd, "w") as fh:
        fh.write("{nope")
    try:
        with pytest.raises(DataError, match="not valid JSON"):
            load_manual_split(path, t)
    finally:
        os.unlink(path)


def test_manual_split_missing_file(tmp_path):
    t = table_from(np.zeros((3, 1)), names=["a"])
    path = tmp_path / "absent.json"
    with pytest.raises(DataError, match=re.escape("missing file: %s" % path)):
        load_manual_split(path, t)


def test_partition_save_load_roundtrip_with_source_key():
    rng = np.random.default_rng(6)
    t = table_from(rng.normal(size=(8, 5)))
    part = kmeans_columns(t, 2, seed=0)
    fd, path = tempfile.mkstemp(suffix=".json")
    os.close(fd)
    try:
        save_partition(path, part)
        with open(path) as fh:
            raw = json.load(fh)
        assert raw["source"] == "kmeans"
        back = load_manual_split(path, t)
    finally:
        os.unlink(path)
    assert np.array_equal(back.assignment, part.assignment)
    assert back.source == "manual"


def test_relabeled_partition_gives_same_edge_sets():
    rng = np.random.default_rng(7)
    t = table_from(rng.normal(size=(25, 6)))
    a = ClusterPartition(np.array([0, 0, 1, 1, 0, 1]), 2, "manual", list(t.column_names))
    b = ClusterPartition(np.array([1, 1, 0, 0, 1, 0]), 2, "manual", list(t.column_names))
    ga = build_multiplex(t, a, (0.3, 0.3), empty_embeddings(t.row_ids))
    gb = build_multiplex(t, b, (0.3, 0.3), empty_embeddings(t.row_ids))
    sets_a = {frozenset(g.edge_set()) for g in ga.relations}
    sets_b = {frozenset(g.edge_set()) for g in gb.relations}
    assert sets_a == sets_b
