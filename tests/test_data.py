import csv
import io
import os
import tempfile
import warnings

import numpy as np
import pytest

from medplex import data as D
from medplex.data import (
    TRAIN,
    VAL,
    TEST,
    UNLABELED,
    EmbeddingTable,
    FeatureTable,
    LabelVector,
    Normalizer,
    SynthConfig,
    concat_attributes,
    empty_embeddings,
    generate_synthetic_cohort,
    load_embedding_csv,
    load_feature_csv,
    load_label_csv,
    normalize_columns,
    normalize_embeddings,
    prepare_tables,
    split_masks,
    write_embedding_csv,
    write_feature_csv,
    write_label_csv,
)
from medplex.errors import DataError


def table_from(values, names=None):
    values = np.asarray(values, dtype=np.float64)
    n, f = values.shape
    names = names or ["c%d" % j for j in range(f)]
    return FeatureTable(values, names, ["numeric"] * f, ["r%d" % i for i in range(n)])


def write_tmp(text):
    fd, path = tempfile.mkstemp(suffix=".csv")
    with os.fdopen(fd, "w") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------- normalize


def test_zscore_single_column():
    t = table_from([[1.0], [2.0], [3.0]])
    out, norm = normalize_columns(t)
    expect = np.array([-1.224744871, 0.0, 1.224744871])
    assert np.abs(out.values[:, 0] - expect).max() < 1e-6
    assert abs(norm.mean[0] - 2.0) < 1e-12


def test_zscore_idempotent():
    rng = np.random.default_rng(3)
    t = table_from(rng.normal(size=(40, 5)) * 7 + 2)
    once, _ = normalize_columns(t)
    twice, _ = normalize_columns(once)
    assert np.abs(once.values - twice.values).max() < 1e-9


def test_zscore_constant_column_becomes_zeros():
    t = table_from([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
    out, _ = normalize_columns(t)
    assert np.all(out.values[:, 0] == 0.0)
    assert abs(out.values[:, 1].std() - 1.0) < 1e-12


def test_zscore_population_std():
    t = table_from([[0.0], [4.0]])
    out, norm = normalize_columns(t)
    # population std of {0,4} is 2, not the sample std 2*sqrt(2)
    assert abs(norm.std[0] - 2.0) < 1e-12
    assert np.allclose(out.values[:, 0], [-1.0, 1.0])


def test_stored_normalizer_applies_to_new_rows():
    t = table_from([[1.0, 10.0], [3.0, 30.0], [5.0, 20.0]])
    _, norm = normalize_columns(t)
    t_new = table_from([[3.0, 20.0]])
    out, norm2 = normalize_columns(t_new, norm)
    assert norm2 is norm
    assert np.abs(out.values - (np.array([[3.0, 20.0]]) - norm.mean) / norm.std).max() < 1e-12


def test_normalizer_column_mismatch():
    t = table_from([[1.0], [2.0], [3.0]])
    _, norm = normalize_columns(t)
    other = table_from([[1.0], [2.0]], names=["different"])
    with pytest.raises(DataError):
        normalize_columns(other, norm)


def test_normalizer_refuses_a_column_that_overflows():
    # finite cells whose mean or squared deviations pass the float64 limit
    for cells in ([1e308, 1.0, 2.0], [1e308, 1e308, 1.0], [-1e308, 1e308, -1e308]):
        values = np.column_stack([[1.0, 2.0, 3.0], cells])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^column big: mean or std is not finite"):
                Normalizer.fit(values, ["small", "big"])
    norm = Normalizer.fit(np.array([[1e150], [-1e150]]), ["large"])  # squares stay finite
    assert np.isfinite(norm.std).all()


def test_write_json_refuses_non_finite_numbers(tmp_path):
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            D.write_json(tmp_path / "out.json", {"mean": [bad]})
        assert not (tmp_path / "out.json").exists()  # not even a partial file


def test_normalizer_dict_roundtrip():
    t = table_from([[1.0, -2.0], [4.0, 0.0], [7.0, 2.0]])
    _, norm = normalize_columns(t)
    back = Normalizer.from_dict(norm.to_dict())
    probe = np.array([[2.5, 1.0]])
    assert np.array_equal(norm.transform(probe), back.transform(probe))


def test_normalize_embeddings_matches_column_rules():
    e = EmbeddingTable(np.array([[1.0, 5.0], [3.0, 5.0]]), ["a", "b"])
    out, norm = normalize_embeddings(e)
    assert np.allclose(out.values[:, 0], [-1.0, 1.0])
    assert np.all(out.values[:, 1] == 0.0)  # constant column
    again, _ = normalize_embeddings(EmbeddingTable(np.array([[2.0, 9.0]]), ["c"]), norm)
    assert abs(again.values[0, 0]) < 1e-12


def test_prepare_tables_fits_then_applies_stored_transforms():
    t = table_from([[1.0, 2.0], [3.0, 6.0]])
    e = EmbeddingTable(np.array([[1.0], [3.0]]), ["r0", "r1"])
    c_norm, z_norm, feat_norm, emb_norm = prepare_tables(t, e)
    assert np.allclose(c_norm.values, [[-1.0, -1.0], [1.0, 1.0]])
    assert np.allclose(z_norm.values, [[-1.0], [1.0]])
    new = table_from([[2.0, 4.0]])
    new_e = EmbeddingTable(np.array([[3.0]]), ["r0"])
    c_new, z_new, f2, e2 = prepare_tables(new, new_e, feat_norm, emb_norm)
    assert f2 is feat_norm and e2 is emb_norm
    assert np.allclose(c_new.values, [[0.0, 0.0]]) and np.allclose(z_new.values, [[1.0]])
    # no embedding columns: passed through, nothing fitted
    _, z_none, _, e_none = prepare_tables(t, empty_embeddings(t.row_ids))
    assert z_none.n_cols == 0 and e_none is None


def test_prepare_tables_refuses_embeddings_without_stored_transform():
    t = table_from([[1.0, 2.0], [3.0, 6.0]])
    _, feat_norm = normalize_columns(t)
    e = EmbeddingTable(np.array([[1.0], [3.0]]), ["r0", "r1"])
    with pytest.raises(DataError, match="no stored embedding transform"):
        prepare_tables(t, e, feat_norm)
    prepare_tables(t, empty_embeddings(t.row_ids), feat_norm)  # nothing to transform


# ---------------------------------------------------------------- csv ingestion


def test_load_feature_csv_imputes_column_mean():
    path = write_tmp("id,age,score\np1,10,1\np2,,2\np3,20,3\n")
    try:
        t = load_feature_csv(path)
    finally:
        os.unlink(path)
    assert t.values[1, 0] == 15.0
    assert t.imputed_cells == 1


def test_load_feature_csv_missing_token_variants():
    path = write_tmp("id,x\np1,na\np2,NaN\np3,null\np4,6\n")
    try:
        t = load_feature_csv(path)
    finally:
        os.unlink(path)
    assert np.all(t.values[:3, 0] == 6.0)
    assert t.imputed_cells == 3


def test_load_feature_csv_kinds():
    path = write_tmp("id,a,b\np1,1,1.5\np2,2,2.5\np3,3,3.0\n")
    try:
        t = load_feature_csv(path)
    finally:
        os.unlink(path)
    assert t.column_kinds == ["ordinal", "numeric"]


def test_load_feature_csv_duplicate_id():
    path = write_tmp("id,x\np1,1\np1,2\n")
    try:
        with pytest.raises(DataError, match="duplicate row id"):
            load_feature_csv(path)
    finally:
        os.unlink(path)


def test_load_feature_csv_ragged_row():
    path = write_tmp("id,x,y\np1,1,2\np2,3\n")
    try:
        with pytest.raises(DataError, match="row 3"):
            load_feature_csv(path)
    finally:
        os.unlink(path)


def test_load_feature_csv_unparseable_cell():
    path = write_tmp("id,x\np1,banana\n")
    try:
        with pytest.raises(DataError, match="banana"):
            load_feature_csv(path)
    finally:
        os.unlink(path)


def per_row_outcome(path):
    """What the per-row rule reads from path: (values, names, ids), or the
    one DataError line it gives."""
    with open(path, newline="") as fh:
        try:
            return D._parse_rows(csv.reader(fh))
        except DataError as err:
            return "%s: %s" % (path, err)


def assert_reads_as_per_row(path):
    """_read_numeric_csv gives the per-row rule's float64 bytes, names and
    ids, or its one DataError line."""
    expected = per_row_outcome(path)
    if isinstance(expected, str):
        with pytest.raises(DataError) as got:
            D._read_numeric_csv(path)
        assert str(got.value) == expected
        return expected
    values, names, ids = D._read_numeric_csv(path)
    assert (values.dtype, values.shape) == (np.float64, expected[0].shape)
    assert values.tobytes() == expected[0].tobytes()
    assert (names, ids) == (expected[1], expected[2])
    return values


@pytest.mark.parametrize("token", [" 1.5 ", "1e-3", "-0", "1_0", "nan", "NaN", "",
                                   "na", "n/a", "x", "inf", "\u0661\u0662", "#1", "\t3\t",
                                   "+inf", "-nan", "1e400", "4.9e-324", '"1.5"'])
def test_row_parse_matches_the_per_cell_rule(tmp_path, token):
    path = tmp_path / "cells.csv"
    # the token is the cell's text in the file: '"1.5"' is a quoted cell
    path.write_bytes(("id,a,b\r\np1,2,3\r\np2,4,%s\r\n" % token).encode())
    cell = next(csv.reader([token]))[0] if token else ""
    try:
        expected = D._parse_cell(cell, 3, "b")
    except DataError as err:
        assert assert_reads_as_per_row(path) == "%s: %s" % (path, err)
    else:
        values = assert_reads_as_per_row(path)
        assert values.tolist()[0] == [2.0, 3.0]
        assert values[1, 0] == 4.0
        assert values[1, 1].tobytes() == np.float64(expected).tobytes()


@pytest.mark.parametrize("text", [
    "id,a,b\np1,1,2\np2,3,4\n",  # LF
    "id,a,b\r\np1,1,2\r\np2,3,4\r\n",  # CRLF
    "id,a,b\rp1,1,2\rp2,3,4\r",  # lone CR
    "id,a,b\np1,1,2\n\np2,3,4\n",  # a blank middle line
    "id,a,b\r\np1,1,2\r\n\r\np2,3,4\r\n",
    "id,a,b\np1,1,2\np2,3,4",  # no final newline
    "\ufeffid,a,b\r\np1,1,2\r\np2,3,4\r\n",  # a UTF-8 BOM
    "id,a,b\np1,1,2\n\np2,3\n",  # a short row after a blank line
    "id,a,b\np1,1,2\n \np2,3,4\n",  # a line of one space is a row
    "id,a,b\np1,1,2,\np2,3,4\n",  # a long row
    "id,a,b\np1, 1 ,2\r\n p2 ,3,4\n",  # mixed line ends, spaces
    'id,a,b\n"p ""1""",1,2\np2,3,4\n',  # a quoted id
    "id\np1\np2\n",  # no value column
    "id,a,b\n",
    "\nid,a\np1,1\n",
    "",
], ids=["lf", "crlf", "cr", "blank_line", "blank_crlf_line", "no_final_newline", "bom",
        "short_row", "space_line", "long_row", "mixed", "quoted_id", "ids_only", "header_only",
        "blank_header", "empty"])
def test_file_shapes_read_as_per_row(tmp_path, text):
    path = tmp_path / "shape.csv"
    path.write_bytes(text.encode())
    assert_reads_as_per_row(path)


def test_a_bad_byte_past_the_first_chunk_is_reported_as_before(tmp_path):
    """A file that is not UTF-8 is read row by row, so an unparseable row
    before the bad byte is the error, and the bad byte's position is the one
    that line-by-line decoding gives."""
    rows = "".join("p%d,%d\n" % (i, i) for i in range(3000)).encode()
    path = tmp_path / "bytes.csv"
    path.write_bytes(b"id,a\n" + rows + b"p9,\xff\n")
    with pytest.raises(DataError, match=r"not UTF-8 text .*in position \d+") as got:
        D._read_numeric_csv(path)
    position = int(str(got.value).split("position ")[1].split(":")[0])
    assert position < len(rows)  # relative to the decoded chunk, not the file
    path.write_bytes(b"id,a\np0,x\n" + rows + b"\xff")
    assert assert_reads_as_per_row(path) == "%s: unparseable value 'x' at row 2, column a" % path


def test_errors_are_reported_in_row_order(tmp_path):
    path = tmp_path / "cells.csv"
    path.write_text("id,a,b\np1,1,na\np2,2,x\np3,3\n")
    with pytest.raises(DataError, match="unparseable value 'x' at row 3, column b"):
        D._read_numeric_csv(path)


def test_load_feature_csv_all_missing_column():
    path = write_tmp("id,x\np1,\np2,na\n")
    try:
        with pytest.raises(DataError, match="no observed values"):
            load_feature_csv(path)
    finally:
        os.unlink(path)


def test_load_feature_csv_empty_file():
    path = write_tmp("")
    try:
        with pytest.raises(DataError, match="empty file"):
            load_feature_csv(path)
    finally:
        os.unlink(path)


def test_reserved_column_name_rejected():
    path = write_tmp("id,source\np1,1\np2,2\n")
    try:
        with pytest.raises(DataError, match="reserved"):
            load_feature_csv(path)
    finally:
        os.unlink(path)


def test_load_embedding_csv_rejects_missing():
    path = write_tmp("id,e0\np1,1\np2,\n")
    try:
        with pytest.raises(DataError, match="missing embedding"):
            load_embedding_csv(path)
    finally:
        os.unlink(path)


def test_feature_csv_roundtrip():
    rng = np.random.default_rng(11)
    t = table_from(rng.normal(size=(6, 3)))
    fd, path = tempfile.mkstemp(suffix=".csv")
    os.close(fd)
    try:
        write_feature_csv(path, t)
        back = load_feature_csv(path)
    finally:
        os.unlink(path)
    assert np.array_equal(back.values, t.values)
    assert back.row_ids == t.row_ids
    assert back.column_names == t.column_names


def test_embedding_csv_roundtrip():
    rng = np.random.default_rng(12)
    e = EmbeddingTable(rng.normal(size=(5, 4)), ["p%d" % i for i in range(5)])
    fd, path = tempfile.mkstemp(suffix=".csv")
    os.close(fd)
    try:
        write_embedding_csv(path, e)
        back = load_embedding_csv(path)
    finally:
        os.unlink(path)
    assert np.array_equal(back.values, e.values)


ODD_NAMES = ["a,b", 'say "hi"', "cr\rhere", "lf\nhere", " lead", "plain"]
ODD_VALUES = [-0.0, 5e-324, 1.7976931348623157e308, 3.0, -2.0, 1e16, 0.1]


def csv_writer_bytes(header, rows, lineterminator="\r\n"):
    """The bytes csv.writer's default dialect makes of header and rows."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf, lineterminator=lineterminator)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().encode()


def test_writers_match_csv_writer_bytes(tmp_path):
    values = np.array([ODD_VALUES[i:] + ODD_VALUES[:i] for i in range(len(ODD_NAMES))])[:, :6]
    t = FeatureTable(values, ODD_NAMES, ["numeric"] * 6, ODD_NAMES[::-1])
    write_feature_csv(tmp_path / "f.csv", t)
    assert (tmp_path / "f.csv").read_bytes() == csv_writer_bytes(
        ["id"] + ODD_NAMES,
        [[rid] + ["%.17g" % v for v in row] for rid, row in zip(t.row_ids, values)])
    write_embedding_csv(tmp_path / "e.csv", EmbeddingTable(values, t.row_ids))
    assert (tmp_path / "e.csv").read_bytes() == csv_writer_bytes(
        ["id"] + ["e%d" % j for j in range(6)],
        [[rid] + ["%.17g" % v for v in row] for rid, row in zip(t.row_ids, values)])
    # predictions.csv's layout: LF line ends and an integer class after the id
    classes = np.argmax(values, axis=1)
    D.write_numeric_csv(tmp_path / "p.csv", ["id", "k"] + ODD_NAMES, values, t.row_ids,
                        classes=classes, newline="\n")
    assert (tmp_path / "p.csv").read_bytes() == csv_writer_bytes(
        ["id", "k"] + ODD_NAMES,
        [[rid, int(c)] + ["%.17g" % v for v in row]
         for rid, c, row in zip(t.row_ids, classes, values)], "\n")


def test_an_empty_field_alone_in_its_row_is_quoted(tmp_path):
    D.write_numeric_csv(tmp_path / "x.csv", [""], np.zeros((2, 0)), ["", "a"])
    assert (tmp_path / "x.csv").read_bytes() == csv_writer_bytes([""], [[""], ["a"]])


def test_write_then_read_returns_identical_bits(tmp_path):
    rng = np.random.default_rng(5)
    values = np.vstack([np.array(ODD_VALUES)[None, :6], rng.normal(size=(40, 6)) * 1e-3,
                        rng.standard_cauchy(size=(40, 6))])
    for ids, kind in ((["p%03d" % i for i in range(len(values))], "plain"),
                      ([n + "_%d" % i for i in range(len(values)) for n in ODD_NAMES[:4]][
                          :len(values)], "quoted")):
        t = FeatureTable(values, ["c%d" % j for j in range(6)], ["numeric"] * 6, ids)
        path = tmp_path / ("%s.csv" % kind)
        write_feature_csv(path, t)
        # quoted ids take the per-row rule, plain ones the one-call parse
        assert (D._parse_block(path.read_text()) is None) == (kind == "quoted")
        back = load_feature_csv(path)
        assert back.values.tobytes() == values.tobytes()
        assert (back.row_ids, back.column_names) == (ids, t.column_names)
        emb = load_embedding_csv(path)
        assert emb.values.tobytes() == values.tobytes()


def test_label_csv_roundtrip_and_inference():
    lv = LabelVector(np.array([0, 2, 1, 0]), np.zeros(4, dtype=np.int8), 3)
    fd, path = tempfile.mkstemp(suffix=".csv")
    os.close(fd)
    try:
        write_label_csv(path, lv, ["a", "b", "c", "d"])
        back, ids = load_label_csv(path)
    finally:
        os.unlink(path)
    assert np.array_equal(back.labels, lv.labels)
    assert back.n_classes == 3
    assert ids == ["a", "b", "c", "d"]


def test_label_csv_bad_label():
    path = write_tmp("id,label\np1,zero\n")
    try:
        with pytest.raises(DataError, match="unparseable label"):
            load_label_csv(path)
    finally:
        os.unlink(path)


def test_label_csv_negative_label():
    path = write_tmp("id,label\np1,-1\np2,0\n")
    try:
        with pytest.raises(DataError, match="negative"):
            load_label_csv(path)
    finally:
        os.unlink(path)


# ---------------------------------------------------------------- tables


def test_feature_table_validation():
    with pytest.raises(DataError, match="duplicate row ids"):
        FeatureTable(np.zeros((2, 1)), ["x"], ["numeric"], ["a", "a"])
    with pytest.raises(DataError, match="duplicate column names"):
        FeatureTable(np.zeros((1, 2)), ["x", "x"], ["numeric"] * 2, ["a"])
    with pytest.raises(DataError, match="non-finite"):
        FeatureTable(np.array([[np.inf]]), ["x"], ["numeric"], ["a"])


def test_select_columns():
    t = table_from(np.arange(12.0).reshape(3, 4))
    sub = t.select_columns([2, 0])
    assert sub.column_names == ["c2", "c0"]
    assert np.array_equal(sub.values, t.values[:, [2, 0]])


def test_concat_attributes_widths():
    e = EmbeddingTable(np.ones((2, 3)), ["a", "b"])
    f = table_from(np.zeros((2, 2)))
    f.row_ids = ["a", "b"]
    x = concat_attributes(e, f)
    assert x.x.shape == (2, 5)
    assert x.n_embed_cols == 3
    assert np.all(x.x[:, :3] == 1.0) and np.all(x.x[:, 3:] == 0.0)


def test_concat_attributes_zero_width_embeddings():
    f = table_from(np.ones((3, 2)))
    e = empty_embeddings(f.row_ids)
    x = concat_attributes(e, f)
    assert x.x.shape == (3, 2)
    assert x.n_embed_cols == 0


def test_concat_attributes_row_id_mismatch():
    e = EmbeddingTable(np.ones((2, 1)), ["a", "b"])
    f = table_from(np.ones((2, 1)))
    with pytest.raises(DataError, match="row id mismatch"):
        concat_attributes(e, f)


def test_concat_attributes_slicing_bit_exact():
    rng = np.random.default_rng(5)
    ids = ["p%d" % i for i in range(7)]
    e = EmbeddingTable(rng.normal(size=(7, 4)), ids)
    f = FeatureTable(rng.normal(size=(7, 3)), ["a", "b", "c"], ["numeric"] * 3, ids)
    x = concat_attributes(e, f)
    assert np.array_equal(x.x[:, :4], e.values)
    assert np.array_equal(x.x[:, 4:], f.values)


def test_label_vector_validation():
    with pytest.raises(DataError, match="no labeled rows"):
        LabelVector(np.array([0, 0, 1]), np.zeros(3, dtype=np.int8), 3)
    with pytest.raises(DataError, match="unknown codes"):
        LabelVector(np.array([0, 1]), np.array([0, 9], dtype=np.int8), 2)
    lv = LabelVector(np.array([0, 1, 1]), np.array([0, 0, 3], dtype=np.int8), 2)
    assert list(lv.rows_with(UNLABELED)) == [2]


def test_label_rows_are_computed_once_over_a_read_only_mask():
    mask = np.array([0, 1, 0, 3], dtype=np.int8)
    lv = LabelVector(np.array([0, 1, 1, 0]), mask, 2)
    rows = lv.rows_with(0)
    assert rows.tolist() == [0, 2] and lv.rows_with(0) is rows
    mask[1] = 0  # the caller's array is copied, not frozen or shared
    assert lv.rows_with(1).tolist() == [1]
    for frozen in (lv.mask, rows):
        with pytest.raises(ValueError):
            frozen[0] = 1


# ---------------------------------------------------------------- split masks


def test_split_masks_default_fractions():
    labels = np.repeat([0, 1, 2], 10)
    mask = split_masks(labels, (0.6, 0.1, 0.3), seed=0)
    for cls in range(3):
        m = mask[labels == cls]
        assert (m == TRAIN).sum() == 6
        assert (m == VAL).sum() == 1
        assert (m == TEST).sum() == 3


def test_split_masks_all_train():
    labels = np.repeat([0, 1], 5)
    mask = split_masks(labels, (1.0, 0.0, 0.0), seed=1)
    assert np.all(mask == TRAIN)


def test_split_masks_small_class_error():
    labels = np.array([0, 0, 0, 1, 1])
    with pytest.raises(DataError, match="class 1"):
        split_masks(labels, (0.6, 0.1, 0.3), seed=0)


def test_split_masks_bad_fractions():
    labels = np.repeat([0, 1], 5)
    with pytest.raises(DataError):
        split_masks(labels, (0.5, 0.5, 0.5), seed=0)
    with pytest.raises(DataError):
        split_masks(labels, (1.2, -0.2, 0.0), seed=0)


def test_split_masks_covers_every_row():
    rng = np.random.default_rng(7)
    for trial in range(20):
        labels = rng.integers(0, 4, size=rng.integers(20, 60))
        if np.bincount(labels, minlength=4).min() < 3:
            continue
        mask = split_masks(labels, (0.6, 0.1, 0.3), seed=trial)
        assert np.all((mask == TRAIN) | (mask == VAL) | (mask == TEST))


def test_split_masks_within_one_row_of_ideal():
    rng = np.random.default_rng(19)
    for trial in range(20):
        n_per = int(rng.integers(5, 40))
        labels = np.repeat(np.arange(3), n_per)
        mask = split_masks(labels, (0.6, 0.1, 0.3), seed=trial)
        for cls in range(3):
            m = mask[labels == cls]
            for code, frac in ((TRAIN, 0.6), (VAL, 0.1), (TEST, 0.3)):
                assert abs((m == code).sum() - n_per * frac) <= 1.0


def test_split_masks_seeds_differ_counts_agree():
    labels = np.repeat([0, 1, 2], 20)
    m1 = split_masks(labels, (0.6, 0.1, 0.3), seed=0)
    m2 = split_masks(labels, (0.6, 0.1, 0.3), seed=1)
    assert not np.array_equal(m1, m2)
    for cls in range(3):
        a, b = m1[labels == cls], m2[labels == cls]
        assert np.array_equal(np.bincount(a, minlength=4), np.bincount(b, minlength=4))


def test_split_masks_deterministic():
    labels = np.repeat([0, 1], 30)
    assert np.array_equal(
        split_masks(labels, (0.6, 0.1, 0.3), seed=42),
        split_masks(labels, (0.6, 0.1, 0.3), seed=42),
    )


# ---------------------------------------------------------------- synthetic cohorts


def nearest_centroid_holdout_accuracy(table, labels, seed=0):
    """Fit per-class mean on even rows, classify odd rows. Plain numpy oracle."""
    x = table.values
    y = labels.labels
    fit, hold = np.arange(0, len(y), 2), np.arange(1, len(y), 2)
    cents = np.stack([x[fit][y[fit] == k].mean(axis=0) for k in range(labels.n_classes)])
    d = ((x[hold][:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    return float((d.argmin(axis=1) == y[hold]).mean())


def test_synth_deterministic():
    cfg = SynthConfig(n=60, n_classes=3, n_types=2, cols_per_type=4, seed=9)
    t1, e1, l1, truth1 = generate_synthetic_cohort(cfg)
    t2, e2, l2, truth2 = generate_synthetic_cohort(cfg)
    assert np.array_equal(t1.values, t2.values)
    assert np.array_equal(e1.values, e2.values)
    assert np.array_equal(l1.labels, l2.labels)
    assert truth1 == truth2


def test_synth_truth_map_names_types():
    cfg = SynthConfig(n=30, n_classes=2, n_types=3, cols_per_type=2, separations=(1, 1, 1), seed=0)
    t, _, _, truth = generate_synthetic_cohort(cfg)
    assert set(truth) == set(t.column_names)
    assert truth["t0c0"] == 0 and truth["t2c1"] == 2


def test_synth_zero_separation_is_chance():
    accs = []
    for seed in range(5):
        cfg = SynthConfig(n=300, n_classes=3, n_types=2, cols_per_type=5,
                          separations=(0.0, 0.0), noise_std=1.0, embed_dim=0, seed=seed)
        t, _, l, _ = generate_synthetic_cohort(cfg)
        accs.append(nearest_centroid_holdout_accuracy(t, l))
    assert abs(np.median(accs) - 1.0 / 3.0) < 0.15


def test_synth_wide_separation_is_easy():
    cfg = SynthConfig(n=300, n_classes=3, n_types=2, cols_per_type=5,
                      separations=(10.0, 10.0), noise_std=0.1, embed_dim=0, seed=0)
    t, _, l, _ = generate_synthetic_cohort(cfg)
    assert nearest_centroid_holdout_accuracy(t, l) >= 0.95


def test_synth_class_groups_share_centroid():
    cfg = SynthConfig(n=90, n_classes=3, n_types=1, cols_per_type=4,
                      separations=(5.0,), noise_std=0.0,
                      class_groups=[[[0], [1, 2]]], seed=3)
    t, _, l, _ = generate_synthetic_cohort(cfg)
    y = l.labels
    row1 = t.values[y == 1][0]
    row2 = t.values[y == 2][0]
    row0 = t.values[y == 0][0]
    assert np.array_equal(row1, row2)
    assert not np.array_equal(row0, row1)


def test_synth_class_counts_near_equal():
    cfg = SynthConfig(n=100, n_classes=3, seed=0)
    _, _, l, _ = generate_synthetic_cohort(cfg)
    counts = np.bincount(l.labels, minlength=3)
    assert sorted(counts.tolist()) == [33, 33, 34]


def test_synth_embed_dim_zero():
    cfg = SynthConfig(n=30, n_classes=2, embed_dim=0, seed=0)
    _, e, _, _ = generate_synthetic_cohort(cfg)
    assert e.n_cols == 0 and e.n_rows == 30


def test_synth_config_validation():
    with pytest.raises(DataError):
        SynthConfig(n=4, n_classes=3)
    with pytest.raises(DataError):
        SynthConfig(separations=(1.0,), n_types=2)
    with pytest.raises(DataError):
        SynthConfig(n_types=1, class_groups=[[[0], [1]]], n_classes=3)


def test_synth_config_dict_roundtrip():
    cfg = SynthConfig(n=50, n_classes=2, separations=(1.5, 0.5), class_groups=[[[0], [1]], [[0, 1]]])
    back = SynthConfig.from_dict(cfg.to_dict())
    assert back == cfg
    with pytest.raises(DataError, match=r"^unknown config keys: \['bogus'\]$"):
        SynthConfig.from_dict({"n": 10, "bogus": 1})
