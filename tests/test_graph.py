import hashlib
import json
import os
import threading
import tracemalloc

import numpy as np
import pytest

from medplex import graph as graph_module
from medplex.cli import run
from medplex.clustering import ClusterPartition
from medplex.data import (
    EmbeddingTable,
    FeatureTable,
    SynthConfig,
    empty_embeddings,
    generate_synthetic_cohort,
    normalize_columns,
    normalize_embeddings,
)
from medplex.errors import DataError
from medplex.model import PackedOperator
from medplex.graph import (
    MultiplexGraph,
    RelationGraph,
    attach_new_nodes,
    build_multiplex,
    build_relation_graph,
    cosine_similarity,
    pairwise_class_similarity,
    write_edge_list,
    write_multiplex,
)

TILE = graph_module._TILE


def table_from(values, names=None, ids=None):
    values = np.asarray(values, dtype=np.float64)
    n, f = values.shape
    names = names or ["c%d" % j for j in range(f)]
    ids = ids or ["r%d" % i for i in range(n)]
    return FeatureTable(values, names, ["numeric"] * f, ids)


def brute_force_edges(block, theta):
    """O(n^2) oracle straight off the cosine definition."""
    n = block.shape[0]
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if cosine_similarity(block[i], block[j]) > theta:
                edges.add((i, j))
    return edges


def full_matrix_sims(a, b=None):
    """Reference: the whole clipped cosine matrix in one product."""
    def unit(x):
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        return x / np.where(norms > 0, norms, 1.0)
    ua = unit(a)
    ub = ua if b is None else unit(b)
    return np.clip(ua @ ub.T, -1.0, 1.0)


def full_matrix_edges(block, theta):
    """Reference build: full cosine matrix and triu_indices, row-major i < j."""
    sims = full_matrix_sims(block)
    iu, ju = np.triu_indices(block.shape[0], k=1)
    keep = sims[iu, ju] > theta
    return np.stack([iu[keep], ju[keep]], axis=1)


def scattered_bits(n, edges):
    """A + I packed by scattering both ends of every edge, and the diagonal,
    into the bits one at a time."""
    width = (n + 7) // 8
    flat = np.zeros(n * width, dtype=np.uint8)
    i, j = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    diag = np.arange(n)
    for row, col in ((i, j), (j, i), (diag, diag)):
        np.bitwise_or.at(flat, row * width + (col >> 3), (128 >> (col & 7)).astype(np.uint8))
    return flat.reshape(n, width)


def check_built_graph(block, theta):
    """A built graph's bits, counts and operator against the full-matrix
    oracle and the edge path; its edges are read out of the bits last."""
    n = block.shape[0]
    above = full_matrix_sims(block) > theta
    above[np.tri(n, dtype=bool)] = False  # pairs i < j only
    g = build_relation_graph(block, theta)
    bits, degrees, n_edges = PackedOperator(g).bits, g.degrees(), g.n_edges
    assert g._edges is None  # nothing above read the edges out
    assert np.array_equal(g.upper_bits(), np.packbits(above, axis=1))
    assert np.array_equal(g.edges, np.argwhere(above))
    assert np.array_equal(bits, scattered_bits(n, g.edges))
    assert np.array_equal(degrees, np.bincount(g.edges.ravel(), minlength=n))
    assert n_edges == len(g.edges)
    # the edges replace the bits, which are then packed from them
    assert g._bits is None and np.array_equal(g.upper_bits(), np.packbits(above, axis=1))
    return g


# ---------------------------------------------------------------- cosine


def test_cosine_known_value():
    got = cosine_similarity([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert abs(got - 0.97463) < 1e-5


def test_cosine_unit_and_orthogonal():
    assert cosine_similarity([1, 0], [1, 0]) == pytest.approx(1.0)
    assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)
    assert cosine_similarity([1, 0], [-2, 0]) == pytest.approx(-1.0)


def test_cosine_zero_vector_scores_zero():
    assert cosine_similarity([0.0, 0.0], [1.0, 2.0]) == 0.0
    assert cosine_similarity([0.0, 0.0], [0.0, 0.0]) == 0.0


def test_cosine_length_mismatch():
    with pytest.raises(DataError):
        cosine_similarity([1.0], [1.0, 2.0])


def test_similar_pairs_match_pairwise_cosine():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(7, 4))
    b = rng.normal(size=(5, 4))
    cos = np.array([[cosine_similarity(a[i], b[j]) for j in range(5)] for i in range(7)])
    for theta in (-0.5, 0.0, 0.3):
        pairs = graph_module._similar_pairs(a, theta, b)
        assert pairs.tolist() == np.argwhere(cos > theta).tolist()


def test_cosine_scale_invariance():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(5, 3))
    scaled = a * rng.uniform(0.1, 10.0, size=(5, 1))
    for i in range(5):
        for j in range(5):
            assert cosine_similarity(scaled[i], scaled[j]) == pytest.approx(
                cosine_similarity(a[i], a[j]), abs=1e-12)
    for theta in (-0.5, 0.0, 0.3):
        assert np.array_equal(graph_module._similar_pairs(scaled, theta),
                              graph_module._similar_pairs(a, theta))


# ---------------------------------------------------------------- relation graphs


def test_three_rows_single_edge():
    block = np.array([[1.0, 0.0], [0.99, 0.14], [0.0, 1.0]])
    g = build_relation_graph(block, 0.9)
    assert g.edge_set() == {(0, 1)}


def test_theta_one_is_edgeless():
    block = np.ones((4, 3))
    g = build_relation_graph(block, 1.0)
    assert g.n_edges == 0


def test_strict_inequality_at_threshold():
    block = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    g = build_relation_graph(block, 0.0)
    # identical rows have sim 1 > 0; orthogonal rows sit exactly at 0, excluded
    assert g.edge_set() == {(0, 1)}


def test_relation_graph_matches_brute_force():
    rng = np.random.default_rng(2)
    for trial in range(25):
        n = int(rng.integers(2, 40))
        f = int(rng.integers(1, 6))
        theta = float(rng.uniform(-0.5, 0.95))
        block = rng.normal(size=(n, f))
        g = build_relation_graph(block, theta)
        assert g.edge_set() == brute_force_edges(block, theta)


def test_theta_monotonicity():
    rng = np.random.default_rng(3)
    block = rng.normal(size=(30, 5))
    prev = None
    for theta in (-0.2, 0.1, 0.4, 0.7, 0.9):
        edges = build_relation_graph(block, theta).edge_set()
        if prev is not None:
            assert edges <= prev
        prev = edges


def test_node_permutation_equivariance():
    rng = np.random.default_rng(4)
    block = rng.normal(size=(12, 4))
    perm = rng.permutation(12)
    g = build_relation_graph(block, 0.3)
    gp = build_relation_graph(block[perm], 0.3)
    expected = {(min(a, b), max(a, b)) for a, b in
                ((int(np.where(perm == i)[0][0]), int(np.where(perm == j)[0][0]))
                 for i, j in g.edge_set())}
    assert gp.edge_set() == expected


@pytest.mark.parametrize("n", [1, TILE - 1, TILE, TILE + 1, 2 * TILE + 3])
def test_tiled_build_equals_full_matrix_reference(n):
    rng = np.random.default_rng(n)
    block = rng.normal(size=(n, 3))
    for theta in (-0.3, 0.2, 0.8):
        g = build_relation_graph(block, theta)
        assert np.array_equal(g.edges, full_matrix_edges(block, theta))


@pytest.mark.parametrize("n", [TILE // 2 + 5, TILE + 1, 2 * TILE, 2 * TILE + 3, 1001])
def test_tiled_build_with_duplicate_rows_at_theta(n):
    # rows repeat four prototypes with exact similarities 1, 0 and -1, so whole
    # blocks of pairs sit exactly at each theta in every summation order
    protos = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.5], [-4.0, 0.0, 0.0]])
    block = protos[np.random.default_rng(n).integers(0, 4, size=n)]
    for theta in (-1.0, 0.0, 1.0):
        g = check_built_graph(block, theta)
        assert np.array_equal(g.edges, full_matrix_edges(block, theta))
    assert build_relation_graph(block, 1.0).n_edges == 0
    if n < 1000:  # the brute-force oracle makes n^2 / 2 Python calls
        assert build_relation_graph(block, 0.0).edge_set() == brute_force_edges(block, 0.0)


def test_tiled_weighted_and_rectangular_pairs_equal_full_matrix():
    rng = np.random.default_rng(16)
    a = rng.normal(size=(2 * TILE + 3, 3))
    b = rng.normal(size=(7, 3))
    pairs = graph_module._similar_pairs(a, 0.4, b)
    assert np.array_equal(pairs, np.argwhere(full_matrix_sims(a, b) > 0.4))


@pytest.mark.parametrize("m", [None, 300])
@pytest.mark.parametrize("n", [1, TILE // 2 + 5, TILE - 1, TILE, TILE + 1, 2 * TILE,
                               2 * TILE + 1, 1001])
def test_similar_pairs_equal_argwhere_over_full_matrix(n, m):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, 3))
    b = None if m is None else rng.normal(size=(m, 3))
    sims = full_matrix_sims(a, b)
    if b is None:  # pairs i < j only
        sims[np.tri(n, dtype=bool)] = -np.inf
    every = n * (n - 1) // 2 if b is None else n * m
    for theta, count in ((-1.5, every), (0.2, None), (1.0, 0)):  # all, some, none pass
        pairs = graph_module._similar_pairs(a, theta, b)
        assert pairs.dtype == np.int32
        assert np.array_equal(pairs, np.argwhere(sims > theta))
        assert count is None or pairs.shape == (count, 2)
        if b is None:  # the built graph holds the same cells as bits
            assert np.array_equal(check_built_graph(a, theta).edges, pairs)


def clipped_mask_bits(a, theta, b=None):
    """Reference mask pass: each band's product as the kernel makes it,
    clipped to [-1, 1], then compared with theta."""
    band = graph_module._BAND
    ua = graph_module._unit_rows(a)
    ub = ua if b is None else graph_module._unit_rows(b)
    keep = np.zeros((len(ua), len(ub)), dtype=bool)
    for lo in range(0, len(ua), band):
        first = lo if b is None else 0
        keep[lo:lo + band, first:] = np.clip(ua[lo:lo + band] @ ub[first:].T, -1.0, 1.0) > theta
    if b is None:
        keep[np.tri(len(ua), dtype=bool)] = False  # pairs i < j only
    return (np.packbits(keep, axis=1), keep.sum(axis=1),
            keep.sum(axis=0) if b is None else None)


@pytest.mark.parametrize("with_b", [False, True])
def test_mask_bits_equal_clip_then_compare(with_b):
    rng = np.random.default_rng(25)
    rows = rng.normal(size=(30, 3))
    # duplicates, scaled copies and opposites score within rounding of +-1
    a = np.concatenate([rows, rows[:10], 3 * rows[10:20], -rows[:15], -7 * rows[20:],
                        np.zeros((3, 3))])
    b = np.concatenate([rows[5:25], -rows[:6], np.zeros((1, 3))]) if with_b else None
    ua = graph_module._unit_rows(a)
    sims = ua @ (ua if b is None else graph_module._unit_rows(b)).T
    assert sims.max() > 1.0 and sims.min() < -1.0  # the clip changes some cells
    ulp = np.spacing(1.0)
    for theta in (-2.0, -1.0 - ulp, -1.0, -0.5, 0.0, 0.5, 1.0 - ulp, 1.0, 1.0 + ulp, 2.0,
                  float("nan")):
        bits, row_counts, col_counts = graph_module._mask_bits(a, theta, b)
        ref_bits, ref_rows, ref_cols = clipped_mask_bits(a, theta, b)
        assert np.array_equal(bits, ref_bits), theta
        assert np.array_equal(row_counts, ref_rows), theta
        assert (col_counts is None) == with_b
        assert with_b or np.array_equal(col_counts, ref_cols), theta


def test_build_memory_stays_below_full_matrix():
    n = 3000
    block = np.random.default_rng(17).normal(size=(n, 4))
    tracemalloc.start()
    try:
        g = build_relation_graph(block, 0.999999)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n_edges < 1000
    assert peak < n * n * 8 / 4


def test_dense_build_memory_stays_near_its_edges():
    n = 1500
    table, _, _, _ = generate_synthetic_cohort(SynthConfig(n=n, seed=21))
    block = normalize_columns(table)[0].values[:, :4]
    tracemalloc.start()
    try:
        g = build_relation_graph(block, 0.5)
        g.edges  # the first read-out, out of the bits
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.edges.dtype == np.int32 and g.edges.flags.c_contiguous
    assert g.n_edges > 0.1 * n * n / 2  # a dense relation
    assert peak < 1.5 * g.edges.nbytes + TILE * n * 8, (peak, g.edges.nbytes)


def test_int32_edges_refuse_what_they_cannot_hold():
    with pytest.raises(DataError, match="outside"):  # would wrap to 1 as int32
        RelationGraph(n=3, edges=np.array([[0, 2 ** 32 + 1]], dtype=np.int64))
    with pytest.raises(DataError, match="outside"):
        RelationGraph(n=3, edges=np.array([[-(2 ** 32), 1]], dtype=np.int64))
    with pytest.raises(DataError, match="at most"):
        RelationGraph(n=2 ** 31, edges=np.empty((0, 2), dtype=np.int64))
    g = RelationGraph(n=2 ** 31 - 1, edges=np.array([[2 ** 31 - 3, 2 ** 31 - 2]]))
    assert g.edges.dtype == np.int32 and g.edges.tolist() == [[2 ** 31 - 3, 2 ** 31 - 2]]


def test_order_checks_span_chunks(monkeypatch):
    monkeypatch.setattr(graph_module, "_KEY_CHUNK", 2)
    edges = np.stack(np.triu_indices(5, k=1), axis=1)  # 10 row-major edges
    g = RelationGraph(n=5, edges=edges)
    assert g.degrees().tolist() == [4] * 5
    with pytest.raises(DataError, match="duplicate edges"):  # across a chunk border
        RelationGraph(n=5, edges=np.concatenate([edges[:2], edges[1:]]))
    # each chunk increasing, the border between the first two not, so only a
    # check that spans the border sends these edges to the duplicate search
    with pytest.raises(DataError, match="duplicate edges"):
        RelationGraph(n=5, edges=np.concatenate([edges[:2], edges[:1], edges[2:]]))
    with pytest.raises(DataError, match="i < j"):  # in the last chunk only
        RelationGraph(n=5, edges=np.concatenate([edges, [[4, 3]]]))
    swapped = edges[[0, 1, 3, 2, 4, 5, 6, 7, 8, 9]]  # not row-major, still valid
    assert RelationGraph(n=5, edges=swapped).degrees().tolist() == [4] * 5


def test_degrees_and_edge_invariants():
    g = RelationGraph(n=4, edges=np.array([[0, 1], [0, 2], [2, 3]]))
    assert g.degrees().tolist() == [2, 1, 2, 1]
    assert RelationGraph(n=3, edges=np.empty((0, 2))).degrees().tolist() == [0, 0, 0]
    with pytest.raises(DataError, match="i < j"):
        RelationGraph(n=3, edges=np.array([[1, 0]]))
    with pytest.raises(DataError, match="duplicate edges"):
        RelationGraph(n=3, edges=np.array([[0, 1], [0, 1]]))
    with pytest.raises(DataError, match="duplicate edges"):
        RelationGraph(n=4, edges=np.array([[0, 1], [0, 2], [0, 2], [2, 3]]))
    with pytest.raises(DataError, match="duplicate edges"):
        RelationGraph(n=4, edges=np.array([[2, 3], [0, 1], [2, 3]]))
    unsorted = RelationGraph(n=4, edges=np.array([[2, 3], [0, 2], [0, 1]]))
    assert unsorted.degrees().tolist() == [2, 1, 2, 1]
    with pytest.raises(DataError, match="outside"):
        RelationGraph(n=2, edges=np.array([[0, 5]]))


def test_write_edge_list_golden_bytes(tmp_path):
    edges = np.array([[0, 1], [0, 3], [2, 3]])
    path = tmp_path / "edges.txt"
    write_edge_list(path, RelationGraph(n=4, edges=edges))
    assert path.read_bytes() == b"0 1\n0 3\n2 3\n"
    write_edge_list(path, RelationGraph(n=4, edges=np.empty((0, 2))))
    assert path.read_bytes() == b""


def test_write_edge_list_chunks_match_line_by_line(tmp_path, monkeypatch):
    monkeypatch.setattr(graph_module, "_WRITE_CHUNK", 4)
    # the complete graph on 6 nodes has 15 edges: 3 full chunks + 3
    g = RelationGraph(n=6, edges=np.stack(np.triu_indices(6, k=1), axis=1))
    path = tmp_path / "edges.txt"
    write_edge_list(path, g)
    assert path.read_text() == "".join("%d %d\n" % (i, j) for i, j in g.edges)
    write_edge_list(path, RelationGraph(n=g.n, edges=g.edges[:8]))
    assert path.read_text() == "".join("%d %d\n" % (i, j) for i, j in g.edges[:8])


def line_by_line(g):
    return "".join("%d %d\n" % (i, j) for i, j in g.edges.tolist())


def test_write_edge_list_ids_across_digit_widths(tmp_path):
    ends = [0, 9, 10, 99, 100, 999, 1000]
    edges = [(i, j) for k, i in enumerate(ends) for j in ends[k + 1:]]
    path = tmp_path / "edges.txt"
    g = RelationGraph(n=1001, edges=edges)
    write_edge_list(path, g)
    assert path.read_text() == line_by_line(g)


@pytest.mark.parametrize("n", [1, 2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 1500])
def test_write_edge_list_equals_percent_formatting(tmp_path, n):
    path = tmp_path / "edges.txt"
    block = np.random.default_rng(n).normal(size=(n, 3))
    for g in (RelationGraph(n=n, edges=np.stack(np.triu_indices(n, k=1), axis=1)),
              RelationGraph(n=n, edges=np.empty((0, 2))),
              # built graphs: no edge, a sparse and a dense relation
              build_relation_graph(block, 1.0), build_relation_graph(block, 0.95),
              build_relation_graph(block, -0.5)):
        built = g._bits is not None
        write_edge_list(path, g)
        assert built == (g._bits is not None)  # written from the bits, which it keeps
        # as lists of lines, so that a failure reports its first wrong line;
        # a built graph's edges are read out here, with their checks
        assert path.read_text().splitlines(True) == line_by_line(g).splitlines(True)


def test_write_edge_list_keeps_stored_order(tmp_path, monkeypatch):
    monkeypatch.setattr(graph_module, "_WRITE_CHUNK", 7)
    path = tmp_path / "edges.txt"
    g, _ = make_trained_multiplex()
    new = table_from(np.random.default_rng(20).normal(size=(3, 6)), ids=["a", "b", "c"])
    ext = attach_new_nodes(g, new, empty_embeddings(["a", "b", "c"])).relations[0]
    keys = ext.edges[:, 0] * ext.n + ext.edges[:, 1]
    assert np.any(keys[1:] < keys[:-1])  # old edges, then the new pairs: not row-major
    write_edge_list(path, ext)
    assert path.read_text() == line_by_line(ext)


def test_write_edge_list_memory_stays_below_output(tmp_path):
    n = 2000
    g = RelationGraph(n=n, edges=np.stack(np.triu_indices(n, k=1), axis=1))
    path = tmp_path / "edges.txt"
    tracemalloc.start()
    try:
        write_edge_list(path, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # neither the whole file nor a list of every line is ever held
    assert peak < path.stat().st_size / 2


def test_write_multiplex_builds_the_id_table_once(tmp_path, monkeypatch):
    tables, given = [], []
    real_table, real_write = graph_module._id_table, graph_module.write_edge_list
    monkeypatch.setattr(graph_module, "_id_table",
                        lambda n: tables.append(real_table(n)) or tables[-1])
    monkeypatch.setattr(graph_module, "write_edge_list",
                        lambda path, graph, table=None: given.append(table)
                        or real_write(path, graph, table))
    g, _ = make_trained_multiplex()
    digests = {}
    manifest = write_multiplex(tmp_path, g, digests)
    # one table, of g.n_nodes ids, which every relation's writer is given
    assert len(tables) == 1 and tables[0].size == 2 * g.n_nodes
    assert len(given) == g.n_relations and all(t is tables[0] for t in given)
    paths = [os.path.join(tmp_path, "edges_r%d.txt" % r) for r in range(g.n_relations)]
    assert sorted(digests) == sorted(paths)
    for path, rel in zip(paths, g.relations):
        with open(path, "rb") as fh:
            text = fh.read()
        assert text.decode() == line_by_line(rel)
        assert digests[path] == hashlib.sha256(text).hexdigest()
    assert json.loads((tmp_path / "multiplex.json").read_text()) == manifest


def test_built_edge_list_blocks_split_rows_anywhere(tmp_path, monkeypatch):
    # blocks of 5 edges end on rows that are not on a byte of the bits, and
    # one row of up to 36 edges is a block alone
    monkeypatch.setattr(graph_module, "_WRITE_CHUNK", 5)
    block = np.random.default_rng(22).normal(size=(37, 2))
    for theta in (-2.0, 0.3):
        g = build_relation_graph(block, theta)
        blocks = list(g._edge_blocks())
        assert any(i[0] % 8 for i, _ in blocks) and max(i.size for i, _ in blocks) > 5
        write_edge_list(tmp_path / "edges.txt", g)
        assert (tmp_path / "edges.txt").read_text() == line_by_line(g)
        assert np.array_equal(np.concatenate([np.stack(b, axis=1) for b in blocks]), g.edges)


def test_write_edge_list_returns_the_file_digest(tmp_path):
    block = np.random.default_rng(23).normal(size=(300, 3))
    made = RelationGraph(n=300, edges=build_relation_graph(block, 0.2).edges[::2])
    for g in (build_relation_graph(block, 0.2), made, RelationGraph(n=3, edges=[])):
        path = tmp_path / "edges.txt"
        digest = write_edge_list(path, g)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_writing_a_built_graph_makes_no_pair_array(tmp_path):
    n = 2000
    g = build_relation_graph(np.random.default_rng(24).normal(size=(n, 3)), -2.0)
    assert g.n_edges == n * (n - 1) // 2
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        write_edge_list(tmp_path / "edges.txt", g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # (E, 2) int32 pairs would take E * 8 bytes
    assert peak < g.n_edges * 8, peak
    assert g._edges is None and g._bits is not None


def test_writer_refuses_bits_that_read_out_to_a_bad_edge(tmp_path):
    # a cell below the diagonal, (2, 1): the writer's checks refuse it as the
    # read-out edges' checks do
    bits = np.zeros((5, 1), dtype=np.uint8)
    bits[2, 0] = 128 >> 1
    counts = np.array([0, 0, 1, 0, 0])
    for ask in (lambda g: write_edge_list(tmp_path / "edges.txt", g), lambda g: g.edges):
        g = RelationGraph(n=5, upper=(bits, counts, np.roll(counts, -1)))
        with pytest.raises(DataError, match="i < j"):
            ask(g)


# ---------------------------------------------------------------- multiplex


def norm_table(values, **kw):
    out, norm = normalize_columns(table_from(values, **kw))
    return out, norm


def test_build_multiplex_collapse_single_relation():
    rng = np.random.default_rng(7)
    t, _ = norm_table(rng.normal(size=(10, 4)))
    part = ClusterPartition(np.zeros(4, dtype=int), 1, "manual", list(t.column_names))
    g = build_multiplex(t, part, (0.5,), empty_embeddings(t.row_ids))
    assert g.n_relations == 1
    direct = build_relation_graph(t.values, 0.5)
    assert g.relations[0].edge_set() == direct.edge_set()


def test_multiplex_relations_differ_when_signal_differs():
    cfg = SynthConfig(n=80, n_classes=3, n_types=2, cols_per_type=4,
                      separations=(2.0, 2.0), noise_std=0.5, embed_dim=0,
                      class_groups=[[[0], [1, 2]], [[0, 1], [2]]], seed=1)
    raw, e, l, truth = generate_synthetic_cohort(cfg)
    t, _ = normalize_columns(raw)
    assign = np.array([truth[c] for c in t.column_names])
    part = ClusterPartition(assign, 2, "manual", list(t.column_names))
    g = build_multiplex(t, part, (0.5, 0.5), e)
    assert g.relations[0].edge_set() != g.relations[1].edge_set()


def test_multiplex_block_slices_match_direct_build():
    rng = np.random.default_rng(8)
    t, _ = norm_table(rng.normal(size=(15, 6)))
    assign = np.array([0, 1, 0, 1, 1, 0])
    part = ClusterPartition(assign, 2, "manual", list(t.column_names))
    g = build_multiplex(t, part, (0.2, 0.6), empty_embeddings(t.row_ids))
    for r in range(2):
        direct = build_relation_graph(t.values[:, assign == r], (0.2, 0.6)[r])
        assert g.relations[r].edge_set() == direct.edge_set()


def test_multiplex_theta_count_mismatch():
    rng = np.random.default_rng(9)
    t, _ = norm_table(rng.normal(size=(5, 2)))
    part = ClusterPartition(np.array([0, 1]), 2, "manual", list(t.column_names))
    with pytest.raises(DataError, match="thresholds"):
        build_multiplex(t, part, (0.5,), empty_embeddings(t.row_ids))


def test_multiplex_partition_column_mismatch():
    rng = np.random.default_rng(10)
    t, _ = norm_table(rng.normal(size=(5, 2)))
    part = ClusterPartition(np.array([0, 1]), 2, "manual", ["other", "names"])
    with pytest.raises(DataError, match="different columns"):
        build_multiplex(t, part, (0.5, 0.5), empty_embeddings(t.row_ids))


# ---------------------------------------------------------------- inductive attachment


def make_trained_multiplex(seed=0, n=20, embed_width=0):
    rng = np.random.default_rng(seed)
    raw = table_from(rng.normal(size=(n, 6)))
    t, feat_norm = normalize_columns(raw)
    part = ClusterPartition(np.array([0, 0, 0, 1, 1, 1]), 2, "manual", list(t.column_names))
    emb, emb_norm = empty_embeddings(t.row_ids), None
    if embed_width:
        emb, emb_norm = normalize_embeddings(
            EmbeddingTable(rng.exponential(size=(n, embed_width)), list(t.row_ids)))
    return build_multiplex(t, part, (0.3, 0.3), emb, feat_normalizer=feat_norm,
                           embed_normalizer=emb_norm), feat_norm


def test_attach_duplicate_row_links_like_source():
    g, feat_norm = make_trained_multiplex()
    # raw values that normalize to exactly row 4's normalized values
    raw_dup = g.attributes.x[4] * feat_norm.std + feat_norm.mean
    new = table_from(raw_dup[None, :], ids=["new0"])
    ext = attach_new_nodes(g, new, empty_embeddings(["new0"]))
    n_old = g.n_nodes
    for r in range(2):
        old_edges = g.relations[r].edge_set()
        neigh_of_4 = {j for i, j in old_edges if i == 4} | {i for i, j in old_edges if j == 4}
        new_neigh = {i for i, j in ext.relations[r].edge_set() if j == n_old}
        # the copy also links to its source (similarity exactly 1 > theta)
        assert new_neigh == neigh_of_4 | {4}


def test_attach_zero_new_nodes_impossible_but_one_noop_graph():
    g, _ = make_trained_multiplex()
    before = [r.edge_set() for r in g.relations]
    rng = np.random.default_rng(11)
    new = table_from(rng.normal(size=(3, 6)) * 100, ids=["a", "b", "c"])
    ext = attach_new_nodes(g, new, empty_embeddings(["a", "b", "c"]))
    # original edges survive untouched
    for r in range(2):
        assert before[r] <= ext.relations[r].edge_set()
    assert ext.n_nodes == g.n_nodes + 3
    assert g.n_nodes == 20  # source graph untouched


def test_attach_matches_brute_force_oracle():
    rng = np.random.default_rng(12)
    # width 0 and an embedding block Z, so X = [Z | C] puts C at an offset
    for trial, width in [(t, w) for t in range(5) for w in (0, 3)]:
        g, feat_norm = make_trained_multiplex(seed=trial, embed_width=width)
        new_raw = rng.normal(size=(4, 6))
        ids = ["n%d" % i for i in range(4)]
        new_emb = EmbeddingTable(rng.exponential(size=(4, width)), ids)
        ext = attach_new_nodes(g, table_from(new_raw, ids=ids), new_emb)
        old_c = g.attributes.x[:, width:]
        new_c = feat_norm.transform(new_raw)
        new_z = g.embed_normalizer.transform(new_emb.values) if width else new_emb.values
        np.testing.assert_array_equal(
            ext.attributes.x, np.vstack([g.attributes.x, np.hstack([new_z, new_c])]))
        assert ext.attributes.n_embed_cols == width
        assert ext.attributes.row_ids == g.attributes.row_ids + ids
        n_old = g.n_nodes
        for r in range(2):
            cols = g.partition.columns_of(r)
            expected = set(g.relations[r].edge_set())
            for j in range(4):
                for i in range(n_old):
                    s = cosine_similarity(old_c[i, cols], new_c[j, cols])
                    if s > g.thetas[r]:
                        expected.add((i, n_old + j))
            assert ext.relations[r].edge_set() == expected


def test_attach_new_nodes_never_link_each_other():
    g, _ = make_trained_multiplex()
    new = table_from(np.ones((3, 6)), ids=["a", "b", "c"])
    ext = attach_new_nodes(g, new, empty_embeddings(["a", "b", "c"]))
    n_old = g.n_nodes
    for r in range(2):
        for i, j in ext.relations[r].edge_set():
            assert i < n_old  # at most one endpoint can be new


def test_attach_restriction_consistency():
    # attaching rows one at a time gives each new node the same old-neighbors
    g, _ = make_trained_multiplex(seed=3)
    rng = np.random.default_rng(13)
    new_raw = rng.normal(size=(2, 6))
    both = attach_new_nodes(
        g, table_from(new_raw, ids=["a", "b"]), empty_embeddings(["a", "b"]))
    solo = attach_new_nodes(
        g, table_from(new_raw[1:], ids=["b"]), empty_embeddings(["b"]))
    n_old = g.n_nodes
    for r in range(2):
        from_both = {i for i, j in both.relations[r].edge_set() if j == n_old + 1}
        from_solo = {i for i, j in solo.relations[r].edge_set() if j == n_old}
        assert from_both == from_solo


def test_attach_errors():
    g, _ = make_trained_multiplex()
    new = table_from(np.zeros((1, 6)), ids=["n0"])
    # missing stored transform
    bare = MultiplexGraph(relations=g.relations, attributes=g.attributes,
                          partition=g.partition, thetas=g.thetas)
    with pytest.raises(DataError, match="stored feature transform"):
        attach_new_nodes(bare, new, empty_embeddings(["n0"]))
    # column mismatch
    wrong_cols = table_from(np.zeros((1, 6)), names=["x%d" % i for i in range(6)], ids=["n0"])
    with pytest.raises(DataError, match="different feature columns"):
        attach_new_nodes(g, wrong_cols, empty_embeddings(["n0"]))
    # id collision
    dup = table_from(np.zeros((1, 6)), ids=["r4"])
    with pytest.raises(DataError, match="collide"):
        attach_new_nodes(g, dup, empty_embeddings(["r4"]))
    # embedding width mismatch
    with pytest.raises(DataError, match="width"):
        attach_new_nodes(g, new, EmbeddingTable(np.zeros((1, 3)), ["n0"]))


# ---------------------------------------------------------------- class similarity


def test_class_similarity_identical_members():
    values = np.vstack([np.tile([1.0, 2.0], (3, 1)), np.tile([-2.0, 1.0], (3, 1))])
    t = table_from(values)
    labels = np.array([0, 0, 0, 1, 1, 1])
    sim = pairwise_class_similarity(t, labels)
    assert sim[0, 0] == pytest.approx(1.0)
    assert sim[1, 1] == pytest.approx(1.0)
    assert sim[0, 1] == pytest.approx(0.0, abs=1e-12)  # orthogonal centroids
    assert sim[0, 1] == sim[1, 0]


def test_class_similarity_orthogonal_blocks():
    t = table_from(np.array([
        [1.0, 0.0, 0.0], [2.0, 0.0, 0.0],
        [0.0, 3.0, 0.0], [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0], [0.0, 0.0, 5.0],
    ]))
    labels = np.array([0, 0, 1, 1, 2, 2])
    sim = pairwise_class_similarity(t, labels)
    assert np.allclose(np.diag(sim), 1.0)
    off = sim[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 0.0)


def test_class_similarity_informative_subset_sharpens():
    cfg = SynthConfig(n=120, n_classes=3, n_types=2, cols_per_type=5,
                      separations=(3.0, 0.0), noise_std=1.0, embed_dim=0, seed=2)
    raw, _, l, truth = generate_synthetic_cohort(cfg)
    t, _ = normalize_columns(raw)
    informative = np.array([j for j, c in enumerate(t.column_names) if truth[c] == 0])
    noise = np.array([j for j, c in enumerate(t.column_names) if truth[c] == 1])
    sim_inf = pairwise_class_similarity(t, l.labels, columns=informative)
    sim_noise = pairwise_class_similarity(t, l.labels, columns=noise)
    contrast_inf = np.diag(sim_inf).mean() - sim_inf[~np.eye(3, dtype=bool)].mean()
    contrast_noise = np.diag(sim_noise).mean() - sim_noise[~np.eye(3, dtype=bool)].mean()
    assert contrast_inf > contrast_noise + 0.1


def test_class_similarity_ignores_unlabeled_rows():
    t = table_from(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [9.0, 9.0]]))
    labels = np.array([0, 0, 1, 1, -1])
    sim = pairwise_class_similarity(t, labels)
    assert sim.shape == (2, 2)
    assert sim[0, 0] == pytest.approx(1.0)


def test_class_similarity_needs_two_rows_per_class():
    t = table_from(np.ones((3, 2)))
    with pytest.raises(DataError, match="at least 2"):
        pairwise_class_similarity(t, np.array([0, 0, 1]))


def test_class_similarity_symmetric():
    rng = np.random.default_rng(15)
    t = table_from(rng.normal(size=(30, 4)))
    labels = rng.integers(0, 3, size=30)
    while np.bincount(labels, minlength=3).min() < 2:
        labels = rng.integers(0, 3, size=30)
    sim = pairwise_class_similarity(t, labels)
    assert np.array_equal(sim, sim.T)


# ---------------------------------------------------------------- threads


def at_cpus(monkeypatch, cpus):
    monkeypatch.setattr(graph_module, "_usable_cpus", lambda: cpus)


@pytest.mark.parametrize("n", [TILE // 2 + 5, 2 * TILE, 1000])  # 1000: a partial last band
def test_similar_pairs_equal_bytes_at_one_and_two_cpus(n, monkeypatch):
    # and at 3 and 8 CPUs: every band of rows is one product at any worker
    # count, so the pairs, a built graph's bits and degrees and its operator's
    # bits are the same bytes
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, 4))
    b = rng.normal(size=(37, 4))
    made = {}
    for cpus in (1, 2, 3, 8):
        at_cpus(monkeypatch, cpus)
        g = build_relation_graph(a, 0.3)
        made[cpus] = [graph_module._similar_pairs(a, 0.3, other).tobytes() for other in (None, b)]
        made[cpus] += [g.upper_bits().tobytes(), g.degrees().tobytes(),
                       PackedOperator(g).bits.tobytes()]
    assert made[1] == made[2] == made[3] == made[8]


def test_kernel_workers_hold_one_tile_in_all(monkeypatch):
    tiles = []
    real = graph_module._map_threads

    def recording(fn, items, most=None):
        if fn.__name__ == "mask":
            tiles.append((items.step, most))
        return real(fn, items, most)

    monkeypatch.setattr(graph_module, "_map_threads", recording)
    a = np.random.default_rng(3).normal(size=(600, 3))
    band = graph_module._BAND
    for cpus, workers in ((1, 1), (2, 2), (3, 3), (64, TILE // band)):
        at_cpus(monkeypatch, cpus)
        tiles.clear()
        graph_module._similar_pairs(a, 0.5)
        # whole bands of 32 rows: 85 rows at 3 workers round down to 64
        assert tiles == [(TILE // workers // band * band, workers)], cpus


def graph_run_bytes(tmp_path, name):
    """Runs `medplex graph` on a 300-row synth cohort under tmp_path; returns
    {file name: bytes} of its edge lists and multiplex.json, and {file name:
    digest} of its manifest's outputs."""
    data = tmp_path / "cohort"
    if not data.exists():
        assert run(["--quiet", "synth", "--out", str(data)]) == 0
    out = tmp_path / name
    assert run(["--quiet", "graph", "--data", str(data), "--preset", "synth",
                "--out", str(out)]) == 0
    written = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    return written, {os.path.basename(p): d for p, d in outputs.items()}


def test_graph_command_writes_equal_bytes_at_one_and_two_cpus(tmp_path, monkeypatch):
    # and at 3 and 8 CPUs; the manifest's digests, the edge lists' made as
    # they were written, are those of the files
    made = {}
    for cpus in (1, 2, 3, 8):
        at_cpus(monkeypatch, cpus)
        made[cpus] = graph_run_bytes(tmp_path, "graph%d" % cpus)
    assert sorted(made[1][0]) == ["edges_r0.txt", "edges_r1.txt", "multiplex.json"]
    assert sorted(made[1][1]) == sorted(made[1][0])
    assert made[1][1] == {name: hashlib.sha256(text).hexdigest()
                          for name, text in made[1][0].items()}
    assert made[1] == made[2] == made[3] == made[8]


def test_one_cpu_starts_no_thread(tmp_path, monkeypatch):
    pools = []

    class RecordingPool(graph_module.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(graph_module, "ThreadPoolExecutor", RecordingPool)
    for cpus in (1, 2):
        at_cpus(monkeypatch, cpus)
        pools.clear()
        graph_run_bytes(tmp_path, "graph%d" % cpus)
        # the kernel's mask pass per relation, the edge lists, the inputs'
        # digests: the edge lists are read out of the bits and hashed by
        # their writers, on the edge lists' pool
        assert pools == ([] if cpus == 1 else [2] * 4), cpus


def test_map_threads_keeps_order_and_the_first_error(tmp_path, monkeypatch):
    class Boom(Exception):
        pass

    def square(i):
        if i in (3, 5):
            raise Boom(i)
        return i * i

    at_cpus(monkeypatch, 2)
    assert graph_module._map_threads(square, range(3)) == [0, 1, 4]
    before = threading.active_count()
    with pytest.raises(Boom) as caught:
        graph_module._map_threads(square, range(8))
    assert caught.value.args == (3,) and threading.active_count() == before

    # a failing edge-list write on a worker, raised from write_multiplex
    real = graph_module.write_edge_list

    def failing_write(path, graph, table=None):
        if graph.relation_index == 1:
            raise OSError("disk full")
        real(path, graph, table)

    monkeypatch.setattr(graph_module, "write_edge_list", failing_write)
    g, _ = make_trained_multiplex()
    with pytest.raises(OSError, match="disk full"):
        write_multiplex(tmp_path, g)
    assert threading.active_count() == before
