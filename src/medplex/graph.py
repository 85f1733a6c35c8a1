"""Patient-similarity graphs: one relation per feature type, shared node set.

Edges connect pairs whose cosine similarity over a type's columns is strictly
above that type's threshold. All relations see the same patients; only the
edge sets differ.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .data import (
    EmbeddingTable,
    FeatureTable,
    NodeAttributes,
    Normalizer,
    concat_attributes,
    normalize_columns,
    normalize_embeddings,
    write_json,
)
from .clustering import ClusterPartition


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between two vectors; zero vectors score 0."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise DataError("cosine_similarity needs vectors of equal length")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    # rounding can push the ratio past +/-1, which must stay unreachable
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def _unit_rows(values: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(values, axis=1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    return values / safe


def _usable_cpus() -> int:
    """CPUs this process may run on (all of them where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _map_threads(fn, items, most: int | None = None) -> list:
    """[fn(item) for item in items], made on min(_usable_cpus(), len(items),
    most) threads. With one usable CPU or one item each call runs inline and
    no thread starts. Every thread is joined before this returns or raises;
    the first error in item order is raised as it was (calls not yet started
    are dropped). fn runs untraced code only: a traced function keeps one
    span stack per process, and belongs on the caller's thread.
    """
    items = list(items)
    workers = min(_usable_cpus(), len(items), most or len(items))
    if workers < 2:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:  # joined on any exit
        return list(pool.map(fn, items))


# Rows of the fixed chunks that model.rows_product and PackedOperator's
# products work in, and the most rows of similarities that the similarity
# kernel's workers hold together.
_TILE = 256
# Rows of one band. The similarity kernel compares each band of _BAND rows
# with the columns from the band's first row on (every column of b) in one
# product, so every product, and so every bit, is the same at any worker
# count; and a band starts on a byte of a packed row.
_BAND = 32
# Kept of a band's first _BAND columns when pairing a's rows with themselves:
# there column c is row lo + c, so only cells above the diagonal have i < j.
_ABOVE_DIAGONAL = ~np.tri(_BAND, dtype=bool)


def _tiles(rows: int):
    """The first rows of the tiles that the kernel's passes map over
    _map_threads, and the number of workers (at most _TILE // _BAND). A tile
    has _TILE // workers rows rounded down to whole bands, so the workers
    together hold at most _TILE rows, and graph building needs O(_TILE * n)
    memory beside its n^2/8 bytes of bits."""
    workers = min(_usable_cpus(), _TILE // _BAND)
    return range(0, rows, _TILE // workers // _BAND * _BAND), workers


def _mask_bits(a: np.ndarray, theta: float, b: np.ndarray | None = None):
    """The similarity kernel's mask pass: the cells (i, j) whose clipped cosine
    similarity is strictly above theta, as packed bits with their counts.

    Without b, cells i < j of a's rows with themselves (the upper triangle);
    with b, every cell of a row i of a and a row j of b. Returns (bits,
    row_counts, col_counts): bits holds one np.packbits row per row of a over
    every column (len(b) or len(a) of them), row_counts the set cells of each
    row and col_counts, without b only (else None), those of each column.
    The tiles of a's rows map over _map_threads; each compares its bands
    once, packs each band's mask into the band's rows of bits and counts the
    mask's rows and columns while it holds it.
    """
    ua = _unit_rows(np.asarray(a, dtype=np.float64))
    ub = ua if b is None else _unit_rows(np.asarray(b, dtype=np.float64))
    bits = np.zeros((ua.shape[0], (ub.shape[0] + 7) // 8), dtype=np.uint8)
    row_counts = np.zeros(ua.shape[0], dtype=np.int64)
    col_counts = np.zeros(ub.shape[0], dtype=np.int64) if b is None else None
    starts, workers = _tiles(ua.shape[0])

    def mask(tile):
        cols = []  # each band's column counts, added up on the calling thread
        for lo in range(tile, min(tile + starts.step, ua.shape[0]), _BAND):
            first = lo if b is None else 0  # columns before lo lie below the diagonal
            sims = ua[lo:lo + _BAND] @ ub[first:].T
            np.clip(sims, -1.0, 1.0, out=sims)
            keep = sims > theta
            del sims  # before the mask's counts and bits are made
            if b is None:
                rows = keep.shape[0]
                keep[:, :rows] &= _ABOVE_DIAGONAL[:rows, :rows]
                cols.append((lo, np.count_nonzero(keep, axis=0)))
            bits[lo:lo + _BAND, first // 8:] = np.packbits(keep, axis=1)
            row_counts[lo:lo + _BAND] = np.count_nonzero(keep, axis=1)
        return cols

    for cols in _map_threads(mask, starts, workers):
        for lo, counts in cols:
            col_counts[lo:] += counts
    return bits, row_counts, col_counts


def _read_pairs(bits: np.ndarray, row_counts: np.ndarray, width: int, upper: bool) -> np.ndarray:
    """The set cells of _mask_bits' bits (upper: made without b; width
    columns) as an exact-size (E, 2) int32 array of (row, column) pairs,
    row-major. Each tile of rows reads its pairs straight into its slice of
    the result, found from the counts: row ids repeated by the counts, column
    ids compressed out of an int32 column range. So no pair is held twice,
    and no cell index is split into row and column by a divide and a
    remainder. The tiles map over _map_threads.
    """
    ends = np.concatenate([[0], np.cumsum(row_counts)])
    pairs = np.empty((int(ends[-1]), 2), dtype=np.int32)
    starts, workers = _tiles(bits.shape[0])

    def read_out(lo):
        first = lo if upper else 0
        counts = row_counts[lo:lo + starts.step]
        at, end = ends[lo], ends[lo + counts.size]
        keep = np.unpackbits(bits[lo:lo + starts.step, first // 8:], axis=1,
                             count=width - first).view(bool)
        pairs[at:end, 0] = np.repeat(np.arange(lo, lo + counts.size, dtype=np.int32), counts)
        columns = np.arange(first, width, dtype=np.int32)
        # np.compress (nonzero, then take) is several times faster here than
        # indexing with keep, whose copy loop is slow on scattered masks
        pairs[at:end, 1] = np.compress(keep.ravel(), np.tile(columns, counts.size))

    _map_threads(read_out, starts, workers)
    return pairs


def _similar_pairs(a: np.ndarray, theta: float, b: np.ndarray | None = None) -> np.ndarray:
    """Row pairs whose clipped cosine similarity is strictly above theta.

    Without b, pairs (i, j) of a's rows with i < j; with b, every pair of a row
    i of a and a row j of b. Returns the pairs row-major as an exact-size
    (E, 2) int32 array: the kernel's mask pass (_mask_bits, about n^2/8 bytes
    of bits), then its read-out (_read_pairs).
    """
    bits, row_counts, _ = _mask_bits(a, theta, b)
    width = bits.shape[0] if b is None else np.asarray(b).shape[0]
    return _read_pairs(bits, row_counts, width, upper=b is None)


# Node ids are stored as int32, so a graph has fewer than 2^31 nodes.
_MAX_NODES = np.iinfo(np.int32).max
_KEY_CHUNK = 1 << 16  # edges per temporary in the checks, degrees and packing


class RelationGraph:
    """Undirected simple graph over n nodes, each edge (i, j) stored once as
    i < j.

    A graph made from edges holds them as an (E, 2) int32 array. A built
    graph (build_relation_graph) holds what the similarity kernel's mask pass
    made instead: its upper triangle as packed bits, bit j of row i set for
    an edge (i, j) (n^2/8 bytes), with each row's and each column's count.
    n_edges and degrees() come from the counts, upper_bits() from the bits.
    Its int32 `edges` are read out of the bits only when something asks for
    them (the edge-list writer, attach_new_nodes, edge_set, a CSR relation's
    operator) and pass the same checks as given edges. They then replace the
    bits, which outweigh the edges of a sparse relation.
    """

    def __init__(self, n: int, edges=None, relation_index: int = 0, upper=None):
        """Give the edges, or as `upper` the (bits, row_counts, col_counts)
        of _mask_bits over the n nodes."""
        if (edges is None) == (upper is None):
            raise TypeError("a relation graph takes edges or upper bits, not both")
        self.n = n
        self.relation_index = relation_index
        self._edges = edges
        self._bits, self._row_counts, self._col_counts = upper or (None, None, None)
        self.__post_init__()

    def __post_init__(self):
        """Checks n and the edges held. Kept under the dataclass hook's name,
        which profilers wrap as the graph's validation step."""
        if self.n < 1:
            raise DataError("graph needs at least one node")
        if self.n > _MAX_NODES:
            raise DataError("graph has %d nodes, at most %d are supported" % (self.n, _MAX_NODES))
        if self._edges is None:
            return
        edges = np.asarray(self._edges).reshape(-1, 2)
        # range-checked before the cast, which would wrap an out-of-range id
        if edges.size and (edges.min() < 0 or edges.max() >= self.n):
            raise DataError("edge endpoint outside [0, n)")
        edges = self._edges = np.ascontiguousarray(edges, dtype=np.int32)
        # row-major order checked on the int32 columns, one chunk at a time;
        # each chunk reaches one row into the next, so the order check spans
        # chunk borders. Builds emit strictly increasing (i, j), and only other
        # inputs pay for a sort of all the edges.
        increasing = True
        for lo in range(0, edges.shape[0], _KEY_CHUNK):
            i, j = edges[lo:lo + _KEY_CHUNK + 1].T
            if np.any(i >= j):
                raise DataError("edges must satisfy i < j (no self loops)")
            if increasing and i.size > 1:
                di, dj = np.diff(i), np.diff(j)  # ids < 2^31: no int32 overflow
                # with di >= 0, (i, j) grows exactly where di > 0 or dj > 0
                increasing = di.min() >= 0 and np.maximum(di, dj).min() > 0
        if not increasing:
            # each (i, j) row read as one int64: equal rows give equal values
            keys = np.sort(edges.view(np.int64).ravel())
            if np.any(keys[1:] == keys[:-1]):
                raise DataError("duplicate edges")

    @property
    def edges(self) -> np.ndarray:
        if self._edges is None:
            self._edges = _read_pairs(self._bits, self._row_counts, self.n, upper=True)
            self._bits = None
            self.__post_init__()
        return self._edges

    @property
    def n_edges(self) -> int:
        if self._row_counts is not None:
            return int(self._row_counts.sum())
        return self._edges.shape[0]

    def degrees(self) -> np.ndarray:
        if self._row_counts is not None:
            return self._row_counts + self._col_counts
        deg = np.zeros(self.n, dtype=np.int64)
        for lo in range(0, self.n_edges, _KEY_CHUNK):
            deg += np.bincount(self._edges[lo:lo + _KEY_CHUNK].ravel(), minlength=self.n)
        return deg

    def upper_bits(self) -> np.ndarray:
        """The upper triangle as n x ceil(n/8) uint8 np.packbits rows, bit j
        of row i set for an edge (i, j): a built graph's own bits until its
        edges are read out, else packed from the edges, one bit per edge."""
        if self._bits is not None:
            return self._bits
        width = (self.n + 7) // 8
        flat = np.zeros(self.n * width, dtype=np.uint8)
        for lo in range(0, self.n_edges, _KEY_CHUNK):
            i, j = self._edges[lo:lo + _KEY_CHUNK].astype(np.int64).T
            np.bitwise_or.at(flat, i * width + (j >> 3), (128 >> (j & 7)).astype(np.uint8))
        return flat.reshape(self.n, width)

    def edge_set(self) -> set:
        return {(int(i), int(j)) for i, j in self.edges}


def build_relation_graph(block: np.ndarray, theta: float, relation_index: int = 0) -> RelationGraph:
    """Threshold the all-pairs cosine similarity of block's rows at theta.

    Strict inequality: an edge appears only when similarity > theta, so
    theta = 1.0 yields an edgeless graph even for duplicate rows. The graph
    keeps the kernel's upper-triangle bits and counts; it holds no edge array
    until one is asked for.
    """
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 2 or block.shape[1] < 1:
        raise DataError("relation block must be 2-d with at least one column")
    upper = _mask_bits(block, float(theta))
    return RelationGraph(n=block.shape[0], relation_index=relation_index, upper=upper)


@dataclass
class MultiplexGraph:
    """All relation graphs plus everything needed to score unseen patients."""

    relations: list[RelationGraph]
    attributes: NodeAttributes
    partition: ClusterPartition
    thetas: tuple
    feat_normalizer: Normalizer | None = None
    embed_normalizer: Normalizer | None = None

    def __post_init__(self):
        if not self.relations:
            raise DataError("multiplex graph needs at least one relation")
        n = self.attributes.x.shape[0]
        for g in self.relations:
            if g.n != n:
                raise DataError("relation %d has %d nodes, expected %d" % (g.relation_index, g.n, n))
        if len(self.thetas) != len(self.relations):
            raise DataError("one threshold per relation required")

    @property
    def n_nodes(self) -> int:
        return self.attributes.x.shape[0]

    @property
    def n_relations(self) -> int:
        return len(self.relations)


def build_multiplex(
    table: FeatureTable,
    partition: ClusterPartition,
    thetas,
    embeddings: EmbeddingTable,
    feat_normalizer: Normalizer | None = None,
    embed_normalizer: Normalizer | None = None,
) -> MultiplexGraph:
    """Build one relation graph per type over an already-normalized table.

    `table` and `embeddings` are expected normalized; pass the fitted
    normalizers so inductive attachment can reuse them.
    """
    if partition.column_names != table.column_names:
        raise DataError("partition was computed on different columns")
    thetas = tuple(float(t) for t in thetas)
    if len(thetas) != partition.n_types:
        raise DataError(
            "%d thresholds for %d types" % (len(thetas), partition.n_types)
        )
    relations = []
    for r in range(partition.n_types):
        block = table.values[:, partition.columns_of(r)]
        relations.append(build_relation_graph(block, thetas[r], relation_index=r))
    attributes = concat_attributes(embeddings, table)
    return MultiplexGraph(
        relations=relations,
        attributes=attributes,
        partition=partition,
        thetas=thetas,
        feat_normalizer=feat_normalizer,
        embed_normalizer=embed_normalizer,
    )


def arrival_features(g: MultiplexGraph, new_features: FeatureTable) -> FeatureTable:
    """Unseen patients' features normalized by g's stored transform. They
    must have g's columns and none of g's row ids."""
    if g.feat_normalizer is None:
        raise DataError("multiplex graph lacks a stored feature transform")
    if new_features.column_names != g.partition.column_names:
        raise DataError("new rows have different feature columns")
    overlap = set(new_features.row_ids) & set(g.attributes.row_ids)
    if overlap:
        raise DataError("new row ids collide with existing: %s" % sorted(overlap)[:5])
    return normalize_columns(new_features, g.feat_normalizer)[0]


def arrival_embeddings(g: MultiplexGraph, new_embeddings: EmbeddingTable,
                       row_ids) -> EmbeddingTable:
    """Unseen patients' embeddings, for the rows row_ids in that order,
    normalized by g's stored transform. They must have g's embedding width."""
    if new_embeddings.row_ids != list(row_ids):
        raise DataError("new embeddings and features disagree on row ids")
    if new_embeddings.n_cols != g.attributes.n_embed_cols:
        raise DataError("new embeddings have width %d, trained with %d"
                        % (new_embeddings.n_cols, g.attributes.n_embed_cols))
    if new_embeddings.n_cols == 0:
        return new_embeddings
    if g.embed_normalizer is None:
        raise DataError("embeddings given, but no stored embedding transform")
    return normalize_embeddings(new_embeddings, g.embed_normalizer)[0]


def attach_new_nodes(
    g: MultiplexGraph,
    new_features: FeatureTable,
    new_embeddings: EmbeddingTable,
) -> MultiplexGraph:
    """Extend the multiplex with unseen patients, appended after existing rows.

    New rows are normalized with the stored training transforms
    (arrival_features, arrival_embeddings), then linked to existing nodes
    wherever the per-type similarity clears that type's threshold. New nodes
    never link to each other, matching the inductive setting where each
    arrival is scored against the training cohort.
    """
    new_norm = arrival_features(g, new_features)
    new_emb = arrival_embeddings(g, new_embeddings, new_features.row_ids)
    expected_width = g.attributes.n_embed_cols

    n_old = g.n_nodes
    m = new_norm.n_rows
    old_features = g.attributes.x[:, expected_width:]
    relations = []
    for r, old in enumerate(g.relations):
        cols = g.partition.columns_of(r)
        pairs = _similar_pairs(old_features[:, cols], g.thetas[r], new_norm.values[:, cols])
        pairs[:, 1] += n_old  # RelationGraph refuses an n_old + m past int32
        relations.append(
            RelationGraph(n=n_old + m, edges=np.concatenate([old.edges, pairs]), relation_index=r)
        )

    new = concat_attributes(new_emb, new_norm)
    attributes = NodeAttributes(np.vstack([g.attributes.x, new.x]), expected_width,
                                g.attributes.row_ids + new.row_ids)
    return MultiplexGraph(
        relations=relations,
        attributes=attributes,
        partition=g.partition,
        thetas=g.thetas,
        feat_normalizer=g.feat_normalizer,
        embed_normalizer=g.embed_normalizer,
    )


def pairwise_class_similarity(
    table: FeatureTable, labels, columns: np.ndarray | None = None
) -> np.ndarray:
    """Mean cosine similarity between members of class a and class b.

    Diagonal cells average within-class pairs excluding self-similarity, so
    every class needs at least two labeled rows. `columns` restricts the
    similarity to a subset of feature columns (a single type, usually).
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != table.n_rows:
        raise DataError("labels do not match table rows")
    valid = labels >= 0
    if not valid.any():
        raise DataError("no labeled rows")
    values = table.values if columns is None else table.values[:, np.asarray(columns, dtype=int)]
    u = _unit_rows(values)
    classes = np.unique(labels[valid])
    c = int(classes.max()) + 1
    members = [np.flatnonzero(valid & (labels == k)) for k in range(c)]
    for k, idx in enumerate(members):
        if idx.size < 2:
            raise DataError("class %d has %d labeled rows, need at least 2" % (k, idx.size))
    out = np.empty((c, c))
    for a in range(c):
        ua = u[members[a]]
        for b in range(a, c):
            gram = ua @ u[members[b]].T
            if a == b:
                mm = gram.shape[0]
                val = (gram.sum() - np.trace(gram)) / (mm * (mm - 1))
            else:
                val = gram.mean()
            out[a, b] = val
            out[b, a] = val
    return out


_WRITE_CHUNK = 1 << 16  # edges gathered per write


def _id_table(n: int) -> np.ndarray:
    """The 2n byte strings of ids 0..n-1, "k " at k and "k\\n" at n + k, each
    NUL-padded to one 8-byte item (16 from 8 digits on), so that a gather
    moves one fixed-size item per id. Digits come from numpy arithmetic over
    each digit count's id range, not from one Python string per id."""
    digits = len(str(n - 1))
    width = 8 if digits < 8 else 16
    table = np.zeros((2, n, width), dtype=np.uint8)
    lo = 0
    for d in range(1, digits + 1):
        hi = min(n, 10 ** d)  # ids lo..hi-1 have d digits
        rest = np.arange(lo, hi)
        for p in range(d - 1, -1, -1):
            rest, digit = np.divmod(rest, 10)
            table[:, lo:hi, p] = digit + ord("0")
        table[0, lo:hi, d] = ord(" ")
        table[1, lo:hi, d] = ord("\n")
        lo = hi
    return table.reshape(2 * n, width).view(np.dtype((np.void, width))).ravel()


def write_edge_list(path, graph: RelationGraph, table: np.ndarray | None = None) -> None:
    """One `i j` line per edge, i < j, in the graph's edge order, which
    is row-major for every built graph. No id is formatted per edge: table is
    _id_table(graph.n), built here unless a caller writing several graphs over
    the same nodes passes it, so a chunk of edges is one gather of its ids'
    items into one buffer, written with the NUL padding dropped.
    """
    if table is None:
        table = _id_table(graph.n)
    with open(path, "wb") as fh:
        for lo in range(0, graph.n_edges, _WRITE_CHUNK):
            items = graph.edges[lo:lo + _WRITE_CHUNK].astype(np.intp)
            items[:, 1] += graph.n  # j's item is the one ending in a newline
            fh.write(table[items].tobytes().translate(None, b"\0"))


def write_multiplex(out_dir, g: MultiplexGraph) -> dict:
    """Write per-relation edge lists plus a JSON manifest; returns the manifest.

    Each relation's edges are read out (a built graph's, from its bits) on
    this thread, so their checks run here and no pool starts inside the
    writers'; the edge lists are then written on _map_threads. Degrees come
    from each graph's degrees(), a built graph's kernel counts."""
    os.makedirs(out_dir, exist_ok=True)
    table = _id_table(g.n_nodes)
    files = ["edges_r%d.txt" % r for r in range(g.n_relations)]
    for graph in g.relations:
        graph.edges  # read out before the writers start

    def write(r):
        write_edge_list(os.path.join(out_dir, files[r]), g.relations[r], table)

    _map_threads(write, range(g.n_relations))
    rel_meta = []
    for r, graph in enumerate(g.relations):
        deg = graph.degrees()
        rel_meta.append(
            {
                "relation": r,
                "file": files[r],
                "threshold": g.thetas[r],
                "n_edges": int(graph.n_edges),
                "mean_degree": float(deg.mean()),
                "isolated_nodes": int((deg == 0).sum()),
                "columns": [g.partition.column_names[j] for j in g.partition.columns_of(r)],
            }
        )
    manifest = {
        "n_nodes": g.n_nodes,
        "n_relations": g.n_relations,
        "partition_source": g.partition.source,
        "relations": rel_meta,
    }
    write_json(os.path.join(out_dir, "multiplex.json"), manifest)
    return manifest
