"""Column clustering: group feature columns into types for the multiplex graph.

k-means runs over the columns of the normalized feature table, i.e. each
column is a point in R^n. Hand-rolled because we need deterministic tie
breaking, kmeans++ seeding, per-iteration WCSS monotonicity checks and
farthest-point repair of empty clusters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .data import FeatureTable, read_json, write_json


@dataclass
class ClusterPartition:
    """Assignment of every feature column to one type index in [0, n_types)."""

    assignment: np.ndarray
    n_types: int
    source: str  # "kmeans" or "manual"
    column_names: list[str]
    wcss: float | None = None

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=np.int64)
        if self.assignment.ndim != 1:
            raise DataError("assignment must be 1-d")
        if len(self.column_names) != self.assignment.shape[0]:
            raise DataError("column names do not match assignment length")
        if self.assignment.size == 0:
            raise DataError("empty partition")
        if self.assignment.min() < 0 or self.assignment.max() >= self.n_types:
            raise DataError("type index outside [0, n_types)")
        sizes = np.bincount(self.assignment, minlength=self.n_types)
        if (sizes == 0).any():
            empty = np.flatnonzero(sizes == 0).tolist()
            raise DataError("types %s have no columns" % empty)

    def columns_of(self, r: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == r)

    def to_export_dict(self) -> dict:
        d = {name: int(t) for name, t in zip(self.column_names, self.assignment)}
        d["source"] = self.source
        return d


def _squared_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # (m, k) matrix of squared euclidean distances
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("mkd,mkd->mk", diff, diff)


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    m = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(m)]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            # all remaining points coincide with a centroid
            centroids[j] = points[rng.integers(m)]
            continue
        centroids[j] = points[rng.choice(m, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((points - centroids[j]) ** 2, axis=1))
    return centroids


def _lloyd(points: np.ndarray, k: int, rng: np.random.Generator, max_iters: int):
    m = points.shape[0]
    centroids = _kmeanspp_init(points, k, rng)
    assign = None
    history = []
    for _ in range(max_iters):
        d2 = _squared_dists(points, centroids)
        new_assign = np.argmin(d2, axis=1)  # argmin takes the lowest index on ties
        # repair: hand each empty cluster the point currently farthest from
        # its own centroid (never a singleton's only member), lowest empty
        # cluster index first, lowest point index on distance ties
        sizes = np.bincount(new_assign, minlength=k)
        while (sizes == 0).any():
            cluster = int(np.flatnonzero(sizes == 0)[0])
            own = d2[np.arange(m), new_assign].copy()
            own[sizes[new_assign] <= 1] = -1.0
            victim = int(np.argmax(own))
            if own[victim] < 0:
                raise NumericError("cannot repair empty cluster %d" % cluster)
            sizes[new_assign[victim]] -= 1
            new_assign[victim] = cluster
            sizes[cluster] += 1
            d2[victim] = 0.0  # keep it from being grabbed again
        for cluster in range(k):
            centroids[cluster] = points[new_assign == cluster].mean(axis=0)
        wcss = float(np.sum((points - centroids[new_assign]) ** 2))
        if history and wcss > history[-1] + 1e-9 * max(1.0, abs(history[-1])):
            raise NumericError("k-means objective increased: %r -> %r" % (history[-1], wcss))
        history.append(wcss)
        if assign is not None and np.array_equal(assign, new_assign):
            break
        assign = new_assign
    return assign, centroids, history


def kmeans_columns(
    table: FeatureTable,
    k: int,
    restarts: int = 20,
    max_iters: int = 100,
    seed: int = 0,
) -> ClusterPartition:
    """Cluster the table's columns into k types; best of `restarts` runs.

    Deterministic for a fixed seed: restarts draw from spawned child seeds and
    ties in the final objective keep the earliest restart.
    """
    if k < 1:
        raise DataError("k must be positive")
    if k > table.n_cols:
        raise DataError("k=%d exceeds the %d available columns" % (k, table.n_cols))
    if restarts < 1:
        raise DataError("need at least one restart")
    points = np.ascontiguousarray(table.values.T)
    children = np.random.SeedSequence(seed).spawn(restarts)
    best = None
    for child in children:
        assign, _, history = _lloyd(points, k, np.random.default_rng(child), max_iters)
        wcss = history[-1]
        if best is None or wcss < best[0]:
            best = (wcss, assign)
    return ClusterPartition(
        assignment=best[1],
        n_types=k,
        source="kmeans",
        column_names=list(table.column_names),
        wcss=best[0],
    )


def load_manual_split(path, table: FeatureTable) -> ClusterPartition:
    """Read a {column_name: type_index} JSON file as a manual partition.

    Every table column must appear exactly once; type indices must be dense
    from zero. A "source" key, if present, is ignored (written by exports).
    """
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise DataError("%s: expected a JSON object" % path)
    raw = {k: v for k, v in raw.items() if k != "source"}
    unknown = sorted(set(raw) - set(table.column_names))
    if unknown:
        raise DataError("%s: unknown columns %s" % (path, unknown))
    missing = sorted(set(table.column_names) - set(raw))
    if missing:
        raise DataError("%s: columns %s have no type" % (path, missing))
    assign = np.empty(table.n_cols, dtype=np.int64)
    for j, name in enumerate(table.column_names):
        v = raw[name]
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise DataError("%s: type for column %s must be a non-negative integer" % (path, name))
        assign[j] = v
    n_types = int(assign.max()) + 1
    present = set(np.unique(assign).tolist())
    holes = sorted(set(range(n_types)) - present)
    if holes:
        raise DataError("%s: type indices %s are unused (must be dense)" % (path, holes))
    return ClusterPartition(assign, n_types, "manual", list(table.column_names))


def save_partition(path, partition: ClusterPartition) -> None:
    write_json(path, partition.to_export_dict())
