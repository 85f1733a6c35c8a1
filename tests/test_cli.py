import csv
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from medplex.cli import run
from medplex.clustering import load_manual_split
from medplex.data import (
    Normalizer,
    load_embedding_csv,
    load_feature_csv,
    normalize_columns,
    normalize_embeddings,
)
from medplex.graph import build_multiplex
from medplex import model as M
from medplex import pipeline
from medplex.model import ModelState, attention_weights, load_checkpoint
from medplex.pipeline import inductive_predict
from medplex.train import TrainingConfig, fit, preset_config

SYNTH_CONFIG = {
    "n": 45,
    "n_classes": 2,
    "n_types": 2,
    "cols_per_type": 4,
    "separations": [2.0, 2.0],
    "noise_std": 1.0,
    "embed_dim": 4,
    "embed_separation": 1.0,
    "embed_noise_std": 1.0,
    "seed": 0,
}


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One synth -> cluster -> graph -> train chain shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    scfg_path = root / "synth_config.json"
    scfg_path.write_text(json.dumps(SYNTH_CONFIG))
    data = root / "cohort"
    assert run(["--quiet", "synth", "--out", str(data), "--config", str(scfg_path)]) == 0

    part = root / "partition.json"
    assert run(["--quiet", "cluster", "--data", str(data), "--k", "2",
                "--out", str(part)]) == 0

    gdir = root / "graph"
    assert run(["--quiet", "graph", "--data", str(data), "--preset", "synth",
                "--out", str(gdir)]) == 0

    rundir = root / "run"
    assert run(["--quiet", "train", "--data", str(data), "--preset", "synth",
                "--epochs", "30", "--out", str(rundir)]) == 0

    # one arrival for infer: a copy of the first patient under a new id
    arrivals = {}
    for name in ("features", "embeddings"):
        arrivals["new_" + name] = root / ("new_%s.csv" % name)
        duplicate_first_row(data / ("%s.csv" % name), arrivals["new_" + name], "newcomer")
    return {"root": root, "data": data, "partition": part, "graph": gdir, "run": rundir,
            "synth_config": scfg_path, **arrivals}


# ---------------------------------------------------------------- synth


def test_synth_outputs(workdir):
    data = workdir["data"]
    for name in ("features.csv", "embeddings.csv", "labels.csv",
                 "truth_types.json", "manifest.json"):
        assert (data / name).exists(), name
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    key = str(data / "features.csv")
    assert manifest["outputs"][key] == sha256(data / "features.csv")


def test_synth_seed_reproducibility(workdir, tmp_path):
    scfg = workdir["synth_config"]
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run(["--quiet", "synth", "--out", str(a), "--config", str(scfg)]) == 0
    assert run(["--quiet", "synth", "--out", str(b), "--config", str(scfg)]) == 0
    assert run(["--quiet", "synth", "--out", str(c), "--config", str(scfg),
                "--seed", "9"]) == 0
    assert sha256(a / "features.csv") == sha256(b / "features.csv")
    assert sha256(a / "features.csv") != sha256(c / "features.csv")


def test_default_synth_cohort_bytes_are_pinned(tmp_path):
    assert run(["--quiet", "synth", "--out", str(tmp_path)]) == 0
    assert {name: sha256(tmp_path / name) for name in
            ("features.csv", "embeddings.csv", "labels.csv")} == {
        "features.csv": "d7a1adc1acf5cac9364269fb5baa76e6c2794cc6903f21360a7ce6cf13ddc7c0",
        "embeddings.csv": "314806658c0116e99e3398533146a04c139dc92acb3ff4adc2d0ebcb5a1db603",
        "labels.csv": "80fd2c10deeefe7daff67ed59ab544d98cf6564bd86d3ff676db2ed0573144a3"}


# the exact lines of a JSON and of a CSV file that is a directory or not
# UTF-8 (the input-fault table below asserts only that each names the file)
DECODE = "('utf-8' codec can't decode byte 0xff in position 0: invalid start byte)"
UNREADABLE = {"a_directory": ("{path}: cannot read (Is a directory)",) * 2,
              "not_utf8": ("{path}: not valid JSON " + DECODE, "{path}: not UTF-8 text " + DECODE)}


@pytest.mark.parametrize("kind", UNREADABLE)
def test_unreadable_json_exits_2(workdir, tmp_path, capsys, kind):
    # a synth --config, and a JSON file of the run directory eval reads
    for command, name in (("synth", "synth_config.json"), ("eval", "resolved_config.json")):
        check_fault_cell(workdir, tmp_path / command, capsys, command, name, kind,
                         KINDS[kind][0], UNREADABLE[kind][0])


@pytest.mark.parametrize("kind", UNREADABLE)
def test_unreadable_cohort_file_exits_2(workdir, tmp_path, capsys, kind):
    # the labels.csv that train and eval read
    for command in ("train", "eval"):
        check_fault_cell(workdir, tmp_path / command, capsys, command, "labels.csv", kind,
                         KINDS[kind][0], UNREADABLE[kind][1])


# ---------------------------------------------------------------- cluster


def test_cluster_partition_loads(workdir):
    table = load_feature_csv(workdir["data"] / "features.csv")
    part = load_manual_split(workdir["partition"], table)
    assert part.n_types == 2
    assert os.path.exists(str(workdir["partition"]) + ".manifest.json")


def test_cluster_needs_k_or_manual(workdir, capsys):
    assert run(["--quiet", "cluster", "--data", str(workdir["data"]),
                "--out", "/tmp/nope.json"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_cluster_manual_passthrough(workdir, tmp_path):
    out = tmp_path / "manual_part.json"
    truth = workdir["data"] / "truth_types.json"
    assert run(["--quiet", "cluster", "--data", str(workdir["data"]),
                "--manual", str(truth), "--out", str(out)]) == 0
    table = load_feature_csv(workdir["data"] / "features.csv")
    part = load_manual_split(out, table)
    assert part.source == "manual"


# ---------------------------------------------------------------- graph


def test_graph_export(workdir):
    gdir = workdir["graph"]
    meta = json.loads((gdir / "multiplex.json").read_text())
    assert meta["n_nodes"] == SYNTH_CONFIG["n"]
    assert meta["n_relations"] == 2
    for rel in meta["relations"]:
        assert (gdir / rel["file"]).exists()
        assert rel["threshold"] == 0.5
        assert len(rel["columns"]) > 0


# ---------------------------------------------------------------- train


def test_train_outputs(workdir):
    rundir = workdir["run"]
    for name in ("resolved_config.json", "partition.json", "normalizers.json",
                 "checkpoint.bin", "train_report.json", "metrics.json",
                 "manifest.json"):
        assert (rundir / name).exists(), name
    metrics = json.loads((rundir / "metrics.json").read_text())
    assert 0.0 <= metrics["metrics"]["micro_f1"] <= 1.0
    assert len(metrics["att_weights"]) == 2
    cfg = TrainingConfig.from_json_dict(
        json.loads((rundir / "resolved_config.json").read_text()))
    assert metrics["config_hash"] == cfg.config_hash()


def test_train_rerun_is_byte_identical(workdir, tmp_path):
    again = tmp_path / "run2"
    assert run(["--quiet", "train", "--data", str(workdir["data"]),
                "--preset", "synth", "--epochs", "30", "--out", str(again)]) == 0
    for name in ("resolved_config.json", "partition.json", "normalizers.json",
                 "checkpoint.bin", "train_report.json", "metrics.json"):
        assert sha256(workdir["run"] / name) == sha256(again / name), name
    # the manifest embeds wall time and absolute paths, equality not expected


def test_train_rejects_both_config_and_preset(workdir, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TrainingConfig().to_json_dict()))
    code = run(["--quiet", "train", "--data", str(workdir["data"]),
                "--preset", "synth", "--config", str(cfg_path),
                "--out", str(tmp_path / "x")])
    assert code == 1


# ---------------------------------------------------------------- eval


def test_eval_matches_training_metrics(workdir, tmp_path):
    out = tmp_path / "eval.json"
    assert run(["--quiet", "eval", "--run", str(workdir["run"]),
                "--data", str(workdir["data"]), "--split", "test",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    trained = json.loads((workdir["run"] / "metrics.json").read_text())
    assert payload["metrics"]["micro_f1"] == trained["metrics"]["micro_f1"]
    assert payload["metrics"]["confusion"] == trained["metrics"]["confusion"]
    assert payload["split"] == "test"


def test_eval_hashes_each_input_once(workdir, tmp_path, monkeypatch):
    from medplex import cli
    hashed, sha256_file = [], cli._sha256_file

    def counting(path):
        hashed.append(os.path.basename(path))
        return sha256_file(path)

    monkeypatch.setattr(cli, "_sha256_file", counting)
    out = tmp_path / "eval.json"
    assert run(["--quiet", "eval", "--run", str(workdir["run"]),
                "--data", str(workdir["data"]), "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "eval.json.manifest.json").read_text())
    assert sorted(hashed) == sorted(os.path.basename(p)
                                    for p in [*manifest["inputs"], *manifest["outputs"]])
    assert "labels.csv" in hashed and len(set(hashed)) == len(hashed)


def test_train_steps_in_float32_and_saves_the_float64_state(workdir, tmp_path, monkeypatch):
    returned = []

    def recording_fit(*args):
        state, report = fit(*args)
        returned.append(state)
        return state, report

    monkeypatch.setattr(pipeline, "fit", recording_fit)
    rundir, out = tmp_path / "run", tmp_path / "eval.json"
    assert run(["--quiet", "train", "--data", str(workdir["data"]), "--preset", "synth",
                "--epochs", "30", "--out", str(rundir)]) == 0
    assert run(["--quiet", "eval", "--run", str(rundir), "--data", str(workdir["data"]),
                "--split", "test", "--out", str(out)]) == 0
    trained = json.loads((rundir / "metrics.json").read_text())
    assert json.loads(out.read_text())["metrics"]["micro_f1"] == trained["metrics"]["micro_f1"]
    [state] = returned
    assert state.flat.dtype == np.float64
    saved, _ = load_checkpoint(rundir / "checkpoint.bin")
    assert np.array_equal(saved.flat, state.flat)
    # trained away from its start, and every value one a float32 holds
    assert not np.array_equal(saved.flat, ModelState(saved.dims, seed=saved.seed).flat)
    assert np.array_equal(saved.flat.astype(np.float32).astype(np.float64), saved.flat)


def test_eval_val_split_runs(workdir, tmp_path):
    out = tmp_path / "val.json"
    assert run(["--quiet", "eval", "--run", str(workdir["run"]),
                "--data", str(workdir["data"]), "--split", "val",
                "--out", str(out)]) == 0
    assert 0.0 <= json.loads(out.read_text())["metrics"]["micro_f1"] <= 1.0


def test_eval_rejects_unknown_split(workdir, tmp_path):
    code = run(["--quiet", "eval", "--run", str(workdir["run"]),
                "--data", str(workdir["data"]), "--split", "bogus",
                "--out", str(tmp_path / "x.json")])
    assert code == 1


def test_eval_scores_the_labeled_train_rows_of_a_labeled_frac_run(tmp_path, capsys):
    data = tmp_path / "cohort"
    assert run(["--quiet", "synth", "--out", str(data), "--seed", "4"]) == 0
    rundir = tmp_path / "run"
    assert run(["--quiet", "train", "--data", str(data), "--preset", "synth",
                "--epochs", "2", "--labeled-frac", "0.5", "--out", str(rundir)]) == 0
    resolved = json.loads((rundir / "resolved_config.json").read_text())
    assert resolved["labeled_frac"] == 0.5
    cfg = preset_config("synth", epochs=2, labeled_frac=0.5)
    assert TrainingConfig.from_json_dict(resolved) == cfg
    metrics = json.loads((rundir / "metrics.json").read_text())
    assert metrics["config_hash"] == cfg.config_hash() != preset_config(
        "synth", epochs=2).config_hash()

    # 180 TRAIN rows of 300, half of them labeled
    out = tmp_path / "train.json"
    assert run(["--quiet", "eval", "--run", str(rundir), "--data", str(data),
                "--split", "train", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["metrics"]["n"] == 90
    # the fraction is the run's; eval takes no flag for it
    assert run(["--quiet", "eval", "--run", str(rundir), "--data", str(data),
                "--labeled-frac", "1.0", "--out", str(tmp_path / "x.json")]) == 1
    assert "--labeled-frac" in capsys.readouterr().err


def test_eval_reads_runs_with_dropped_config_keys(workdir, tmp_path, capsys):
    def evaluate(run_dir, out):
        return run(["--quiet", "eval", "--run", str(run_dir), "--data", str(workdir["data"]),
                    "--split", "test", "--out", str(out)])

    assert evaluate(workdir["run"], tmp_path / "now.json") == 0
    old_run = tmp_path / "old_run"
    shutil.copytree(workdir["run"], old_run)
    cfg = json.loads((old_run / "resolved_config.json").read_text())
    (old_run / "resolved_config.json").write_text(
        json.dumps(dict(cfg, tau=0.1, weighted_full=False)))
    assert evaluate(old_run, tmp_path / "old.json") == 0
    now = json.loads((tmp_path / "now.json").read_text())
    assert json.loads((tmp_path / "old.json").read_text()) == now

    # written before labeled_frac was a field: reads as 1.0
    assert cfg.pop("labeled_frac") == 1.0
    (old_run / "resolved_config.json").write_text(json.dumps(cfg))
    assert evaluate(old_run, tmp_path / "no_frac.json") == 0
    assert json.loads((tmp_path / "no_frac.json").read_text()) == now

    (old_run / "resolved_config.json").write_text(json.dumps(dict(cfg, weighted_full=True)))
    assert evaluate(old_run, tmp_path / "weighted.json") == 2
    assert "weighted_full" in capsys.readouterr().err


# ---------------------------------------------------------------- explain


def test_explain_outputs(workdir, tmp_path):
    out = tmp_path / "explain"
    assert run(["--quiet", "explain", "--run", str(workdir["run"]),
                "--data", str(workdir["data"]), "--out", str(out)]) == 0
    att = json.loads((out / "attention.json").read_text())
    assert sum(att["weights"]) == pytest.approx(1.0, abs=1e-9)
    # explain, training's metrics and the pool all take one softmax of the logits
    state, _ = load_checkpoint(workdir["run"] / "checkpoint.bin")
    weights = attention_weights(state.params["att_logits"]).tolist()
    assert att["weights"] == weights
    assert json.loads((workdir["run"] / "metrics.json").read_text())["att_weights"] == weights
    assert sorted(att["ranking"]) == [0, 1]
    assert all(rel["columns"] for rel in att["relations"])
    for name in ("class_similarity_all.csv", "class_similarity_type0.csv",
                 "class_similarity_type1.csv"):
        with open(out / name, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["class_0", "class_1"]
        assert len(rows) == 3
        matrix = np.array([[float(v) for v in row] for row in rows[1:]])
        assert matrix.shape == (2, 2)


# ---------------------------------------------------------------- infer


def duplicate_first_row(src, dst, new_id):
    lines = src.read_text().splitlines()
    first = lines[1].split(",")
    first[0] = new_id
    dst.write_text(lines[0] + "\n" + ",".join(first) + "\n")


def test_infer_matches_library_path(workdir, tmp_path):
    data, rundir = workdir["data"], workdir["run"]
    new_feat = tmp_path / "new_features.csv"
    new_emb = tmp_path / "new_embeddings.csv"
    duplicate_first_row(data / "features.csv", new_feat, "newcomer")
    duplicate_first_row(data / "embeddings.csv", new_emb, "newcomer")
    out = tmp_path / "infer"
    assert run(["--quiet", "infer", "--run", str(rundir), "--data", str(data),
                "--new-features", str(new_feat), "--new-embeddings", str(new_emb),
                "--out", str(out)]) == 0

    with open(out / "predictions.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["id", "predicted_class", "prob_0", "prob_1"]
    assert len(rows) == 2 and rows[1][0] == "newcomer"
    probs_cli = np.array([float(rows[1][2]), float(rows[1][3])])
    assert probs_cli.sum() == pytest.approx(1.0, abs=1e-9)
    assert int(rows[1][1]) == int(np.argmax(probs_cli))

    # rebuild the training graph through the public api and compare
    cfg = TrainingConfig.from_json_dict(
        json.loads((rundir / "resolved_config.json").read_text()))
    state, _ = load_checkpoint(rundir / "checkpoint.bin")
    norms = json.loads((rundir / "normalizers.json").read_text())
    feat_norm = Normalizer.from_dict(norms["features"])
    emb_norm = Normalizer.from_dict(norms["embeddings"])
    table = load_feature_csv(data / "features.csv")
    emb = load_embedding_csv(data / "embeddings.csv")
    part = load_manual_split(rundir / "partition.json", table)
    c_norm, _ = normalize_columns(table, feat_norm)
    z_norm, _ = normalize_embeddings(emb, emb_norm)
    graph = build_multiplex(c_norm, part, cfg.thetas, z_norm,
                            feat_normalizer=feat_norm, embed_normalizer=emb_norm)
    ref_probs, _ = inductive_predict(state, graph,
                                     load_feature_csv(new_feat),
                                     load_embedding_csv(new_emb))
    assert probs_cli == pytest.approx(ref_probs[0], abs=1e-12)


def test_infer_quotes_ids_that_need_it(workdir, tmp_path):
    odd_id = 'new,"1"'
    new = {}
    for name in ("features.csv", "embeddings.csv"):
        with open(workdir["data"] / name, newline="") as fh:
            header, first = list(csv.reader(fh))[:2]
        new[name] = tmp_path / ("new_" + name)
        with open(new[name], "w", newline="") as fh:
            csv.writer(fh).writerows([header, [odd_id] + first[1:]])
    out = tmp_path / "infer"
    assert run(["--quiet", "infer", "--run", str(workdir["run"]), "--data", str(workdir["data"]),
                "--new-features", str(new["features.csv"]),
                "--new-embeddings", str(new["embeddings.csv"]), "--out", str(out)]) == 0
    with open(out / "predictions.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(r) for r in rows] == [4, 4] and rows[1][0] == odd_id
    assert int(rows[1][1]) == int(np.argmax([float(v) for v in rows[1][2:]]))


def test_infer_needs_matching_embeddings(workdir, tmp_path, capsys):
    new_feat = tmp_path / "new_features.csv"
    duplicate_first_row(workdir["data"] / "features.csv", new_feat, "newcomer")
    argv = ["--quiet", "infer", "--run", str(workdir["run"]), "--data", str(workdir["data"]),
            "--new-features", str(new_feat), "--out", str(tmp_path / "x")]
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "data error: the run was trained with 4 embedding columns: give the new rows' with "
        "--new-embeddings"]
    # embeddings of the right width, but for another patient
    new_emb = tmp_path / "new_embeddings.csv"
    duplicate_first_row(workdir["data"] / "embeddings.csv", new_emb, "stranger")
    assert run(argv + ["--new-embeddings", str(new_emb)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "data error: %s: new embeddings and features disagree on row ids" % new_emb]


def test_infer_fills_a_missing_cell_with_the_training_mean(workdir, tmp_path):
    """An arrival's missing cell takes the column's stored training mean, so
    it scores as it does with that mean written in."""
    mean = json.loads((workdir["run"] / "normalizers.json").read_text())["features"]["mean"]
    written = []
    for name, cell in (("missing", "na"), ("mean", repr(mean[0]))):
        new_feat = tmp_path / ("%s.csv" % name)
        shutil.copy(workdir["new_features"], new_feat)

        def edit(rows):
            assert rows[0][1] == "t0c0"
            rows[1][1] = cell
        rewrite_csv(new_feat, edit)
        out = tmp_path / name
        assert run(["--quiet", "infer", "--run", str(workdir["run"]),
                    "--data", str(workdir["data"]), "--new-features", str(new_feat),
                    "--new-embeddings", str(workdir["new_embeddings"]), "--out", str(out)]) == 0
        written.append((out / "predictions.csv").read_bytes())
    assert written[0] == written[1]


# ---------------------------------------------------------------- run loader


def smaller_cohort(tmp_path):
    """The fixture's generator with fewer rows: same columns, another row count."""
    scfg = tmp_path / "smaller.json"
    scfg.write_text(json.dumps(dict(SYNTH_CONFIG, n=40)))
    data = tmp_path / "smaller"
    assert run(["--quiet", "synth", "--out", str(data), "--config", str(scfg)]) == 0
    return data


@pytest.mark.parametrize("command", ["eval", "explain", "infer"])
def test_run_commands_reject_a_cohort_of_another_size(workdir, tmp_path, capsys, command):
    data = smaller_cohort(tmp_path)
    argv = ["--quiet", command, "--run", str(workdir["run"]), "--data", str(data)]
    if command == "infer":
        new_feat = tmp_path / "new_features.csv"
        new_emb = tmp_path / "new_embeddings.csv"
        duplicate_first_row(data / "features.csv", new_feat, "newcomer")
        duplicate_first_row(data / "embeddings.csv", new_emb, "newcomer")
        argv += ["--new-features", str(new_feat), "--new-embeddings", str(new_emb)]
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    assert "checkpoint was trained on" in capsys.readouterr().err
    assert not os.path.exists(str(out) + ".manifest.json")
    assert not (out / "manifest.json").exists()


def test_eval_and_explain_build_no_relation_graph(workdir, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a relation graph was built")

    monkeypatch.setattr("medplex.graph.build_relation_graph", refuse)
    common = ["--run", str(workdir["run"]), "--data", str(workdir["data"])]
    assert run(["--quiet", "eval"] + common + ["--out", str(tmp_path / "eval.json")]) == 0
    assert run(["--quiet", "explain"] + common + ["--out", str(tmp_path / "explain")]) == 0


# ---------------------------------------------------------------- manifests

RUN_FILES = ("resolved_config.json", "checkpoint.bin", "normalizers.json", "partition.json")
EXTRA = {"synth": "synth_config", "graph": "config_hash", "train": "config_hash"}


def command_case(command, w):
    """(arguments before --out, the paths the command reads), for the
    workdir fixture's files, or others that w names alike."""
    data, rundir, part = w["data"], w["run"], w["partition"]
    cohort = [data / "features.csv", data / "embeddings.csv"]
    labeled = cohort + [data / "labels.csv"]
    trained = labeled + [rundir / name for name in RUN_FILES]
    if command == "synth":
        return ["--config", w["synth_config"]], [w["synth_config"]]
    if command == "cluster":
        return ["--data", data, "--k", "2"], cohort
    if command == "graph":
        return ["--data", data, "--preset", "synth", "--partition", part], cohort + [part]
    if command == "train":
        return (["--data", data, "--preset", "synth", "--epochs", "5", "--partition", part],
                labeled + [part])
    if command in ("eval", "explain"):
        return ["--run", rundir, "--data", data], trained
    if command == "infer":
        new_feat, new_emb = w["new_features"], w["new_embeddings"]
        return (["--run", rundir, "--data", data, "--new-features", new_feat,
                 "--new-embeddings", new_emb], trained + [new_feat, new_emb])
    return (["--data", data, "--kind", "label_fraction", "--values", "1.0", "--seeds", "0",
             "--preset", "synth", "--epochs", "2", "--partition", part], labeled + [part])


@pytest.mark.parametrize("command", ["synth", "cluster", "graph", "train",
                                     "eval", "explain", "infer", "sweep"])
def test_manifest_records_what_the_command_read_and_wrote(workdir, tmp_path, command):
    args, inputs = command_case(command, workdir)
    out = tmp_path / "out"
    assert run(["--quiet", command] + [str(a) for a in args] + ["--out", str(out)]) == 0
    if command in ("cluster", "eval"):  # --out names a file
        manifest_path = tmp_path / "out.manifest.json"
        written = [out]
    else:
        manifest_path = out / "manifest.json"
        written = [p for p in out.iterdir() if p.name != "manifest.json"]
    manifest = json.loads(manifest_path.read_text())
    # every JSON file written has one layout: indent 2, sorted keys, a final newline
    for path in [manifest_path] + [p for p in written
                                   if p.suffix == ".json" or command in ("cluster", "eval")]:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path
    assert manifest["command"] == command
    assert manifest["outputs"] == {str(p): sha256(p) for p in written}
    assert manifest["inputs"] == {str(p): sha256(p) for p in inputs}
    assert manifest["wall_time_s"] >= 0
    keys = {"command", "package_version", "wall_time_s", "inputs", "outputs"}
    if command in EXTRA:
        keys.add("extra")
        assert list(manifest["extra"]) == [EXTRA[command]]
    assert set(manifest) == keys


def test_failing_command_leaves_no_manifest(workdir, tmp_path):
    data = tmp_path / "cohort"
    shutil.copytree(workdir["data"], data)
    # one row left in class 1: explain writes attention.json, then fails
    lines = (data / "labels.csv").read_text().splitlines()
    ones = [i for i, line in enumerate(lines[1:], 1) if line.endswith(",1")]
    for i in ones[1:]:
        lines[i] = lines[i][:-1] + "0"
    (data / "labels.csv").write_text("\n".join(lines) + "\n")
    # without its manifest the run cannot tell the edited labels from its own
    trained = tmp_path / "run"
    shutil.copytree(workdir["run"], trained)
    (trained / "manifest.json").unlink()
    out = tmp_path / "explain"
    assert run(["--quiet", "explain", "--run", str(trained), "--data", str(data),
                "--out", str(out)]) == 2
    assert (out / "attention.json").exists()
    assert not (out / "manifest.json").exists()


# ---------------------------------------------------------------- input faults
#
# One table of (command, file it reads, fault): every file of command_case's,
# plus the manifest.json of the run that eval, explain and infer read. A cell
# exits 0 with finite outputs (HARMLESS), or exits 2 with exactly one
# "data error:" line: the fault's own line where it has one, else any line
# that holds the faulted file's path. A huge cell in a column that a cohort
# command fits overflows its statistics once loaded, and gives
# test_degenerate_cohorts_exit_with_a_message's line for that (one_huge_cell).


def put(path, value):
    """value as the file's one number: the last cell of a CSV's first data
    row, the FIELD of a JSON file, or a checkpoint's first value (enc_w_0's)."""
    if path.suffix == ".csv":
        def edit(rows):
            rows[1][-1] = str(value)
        rewrite_csv(path, edit)
    elif path.suffix == ".json":
        doc = json.loads(path.read_text())
        *outer, last = FIELD[path.name]
        node = doc
        for key in outer:
            node = node[key]
        node[last] = value
        path.write_text(json.dumps(doc))
    else:
        raw = path.read_bytes()
        blob = raw.index(b"\n") + 1
        path.write_bytes(raw[:blob] + np.array([value], "<f8").tobytes() + raw[blob + 8:])


FIELD = {"synth_config.json": ["noise_std"], "resolved_config.json": ["learning_rate"],
         "normalizers.json": ["features", "mean", 0], "partition.json": ["t0c0"],
         "manifest.json": ["inputs"]}


def rewrite(path, edit):
    """Lets edit replace the JSON value of a file, or of a checkpoint's header line."""
    raw = path.read_bytes()
    end = raw.index(b"\n") if path.suffix == ".bin" else len(raw)
    path.write_bytes(json.dumps(edit(json.loads(raw[:end]))).encode() + raw[end:])


def cut(path):
    """A cell that is not a number; the JSON text, or a checkpoint's header
    line, cut in half."""
    if path.suffix == ".csv":
        return put(path, "x")
    raw = path.read_bytes()
    end = raw.index(b"\n") if path.suffix == ".bin" else len(raw)
    path.write_bytes(raw[:end // 2] + raw[end:])


# fault kind: (edit of the file at path, given the copied fixture w; the line
# it gives in every file, or None)
KINDS = {
    "drop": (lambda path, w: path.unlink(), "missing file: {path}"),
    "a_directory": (lambda path, w: path.unlink() or path.mkdir(),
                    "{path}: cannot read (Is a directory)"),
    "not_utf8": (lambda path, w: path.write_bytes(b"\xff\xfe{"), None),
    "empty": (lambda path, w: path.write_bytes(b""), None),
    "header_only": (lambda path, w: path.write_bytes(path.read_bytes().split(b"\n")[0] + b"\n"),
                    None),
    "unparseable": (lambda path, w: cut(path), None),
    "wrong_type": (lambda path, w: put(path, "x"), None),
    "inf": (lambda path, w: put(path, float("inf")), None),
    "huge": (lambda path, w: put(path, 1e200), None),
    # two data rows swapped, in a file whose row ids must be features.csv's
    "swapped_rows": (lambda path, w: rewrite_csv(path, swap_first_rows),
                     "{path}: row ids do not match those of features.csv"),
}
# every file of a suffix gets its kinds; swapped_rows goes to SWAPPABLE files only
SWAPPABLE = ("labels.csv", "embeddings.csv")
KINDS_OF = {suffix: [k for k in KINDS if k not in (skip, "swapped_rows")]
            for suffix, skip in ((".csv", "wrong_type"), (".json", "header_only"),
                                 (".bin", "wrong_type"))}


def swap_first_rows(rows):
    rows[1], rows[2] = rows[2], rows[1]


def truncate_checkpoint(path, w):
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])


def one_relation_run(path, w):
    """The config and partition of a 1-relation run of the same cohort."""
    rewrite(w["run"] / "resolved_config.json", lambda d: dict(d, n_relations=1, thetas=[0.5]))
    rewrite(w["run"] / "partition.json",
            lambda d: {k: v if k == "source" else 0 for k, v in d.items()})


def synth_config(config):
    return lambda path, w: rewrite(path, lambda d: config)


CLASS_GROUPS = "{path}: class_groups[0] must be a list of lists of class indices"
# faults of one file beyond its format's kinds, as (id, edit, line); the run
# directory's are faults of eval, explain and infer only
NAMED_FAULTS = {
    "synth_config.json": [
        ("n_a_word", synth_config({"n": "many"}), "{path}: n has the wrong type: 'many'"),
        ("noise_null", synth_config({"noise_std": None}),
         "{path}: noise_std has the wrong type: None"),
        ("separation_a_word", synth_config({"separations": [1, "x"]}),
         "{path}: separations has the wrong type: [1, 'x']"),
        ("n_types_a_float", synth_config({"n_types": 2.5}),
         "{path}: n_types has the wrong type: 2.5"),
        ("a_list", synth_config([1, 2]), "{path}: a config must be a JSON object"),
        ("class_groups_flat", synth_config({"class_groups": [1, 2]}), CLASS_GROUPS),
        ("class_group_a_string", synth_config({"class_groups": [[[0], ["1"]], [[0, 1, 2]]]}),
         CLASS_GROUPS)],
    "checkpoint.bin": [
        # the synth preset's model of the 45 patients holds 4324 values
        ("truncate_checkpoint", truncate_checkpoint,
         "{path}: blob has 34587 bytes, header says 4324 values"),
        ("nan_in_checkpoint", lambda path, w: put(path, np.nan),
         "{path}: non-finite value: enc_w_0"),
        ("checkpoint_without_dims",
         lambda path, w: rewrite(path, lambda h: {k: v for k, v in h.items() if k != "dims"}),
         "{path}: checkpoint header needs integer dims and seed"),
        ("checkpoint_seed_a_word", lambda path, w: rewrite(path, lambda h: dict(h, seed="x")),
         "{path}: checkpoint header needs integer dims and seed"),
        ("checkpoint_header_a_list", lambda path, w: rewrite(path, lambda h: [h]),
         "{path}: checkpoint header is not a JSON object"),
        ("checkpoint_of_two_relations_in_a_one_relation_run", one_relation_run,
         "{path} holds 2 relations, the partition has 1 types")],
    "resolved_config.json": [
        ("config_a_list", lambda path, w: rewrite(path, lambda d: [1, 2]),
         "{path}: a config must be a JSON object"),
        ("config_epochs_a_word", lambda path, w: rewrite(path, lambda d: dict(d, epochs="many")),
         "{path}: epochs has the wrong type: 'many'")],
    "normalizers.json": [
        ("normalizers_empty", lambda path, w: rewrite(path, lambda d: {}),
         "{path}: no feature transform"),
        ("normalizer_without_std",
         lambda path, w: rewrite(path, lambda d: dict(d, features=dict(
             d["features"], std=None))),
         "{path}: a transform needs lists mean, std and column_names, with one number per "
         "column, and a number n_rows")],
    # a cohort that keeps its shape, not its digest
    "features.csv": [("foreign_cohort", lambda path, w: put(path, 12.5),
                      "{path}: not the file {run} was trained on (see {run}/manifest.json)")],
    # cells whose squares still fit a float64
    "new_features.csv": [("large", lambda path, w: put(path, 1e150), None)],
    "new_embeddings.csv": [("large", lambda path, w: put(path, 1e150), None)],
}

RUN_COMMANDS = ("eval", "explain", "infer")
COHORT_COMMANDS = ("cluster", "graph", "train", "sweep")
# the workdir fixture's paths, relative to its root
FIXTURE = {"data": Path("cohort"), "run": Path("run"), "partition": Path("partition.json"),
           "synth_config": Path("synth_config.json"),
           "new_features": Path("new_features.csv"), "new_embeddings": Path("new_embeddings.csv")}


def fault_cells(commands):
    """pytest params (command, file name, fault id, edit, line) of the cells
    of commands, with ids command-kind_file or command-fault id."""
    cells = []
    for command in commands:
        names = [p.name for p in command_case(command, FIXTURE)[1]]
        if command in RUN_COMMANDS:
            names.append("manifest.json")
        for name in names:
            path = Path(name)
            for kind in KINDS_OF[path.suffix] + ["swapped_rows"] * (name in SWAPPABLE):
                cells.append(pytest.param(command, name, kind, *KINDS[kind],
                                          id="%s-%s_%s" % (command, kind, path.stem)))
            if command in COHORT_COMMANDS:
                continue
            for fault in NAMED_FAULTS.get(name, []):
                cells.append(pytest.param(command, name, *fault, id="%s-%s" % (command, fault[0])))
    return cells


# cells that are no fault for their command: each exits 0 with finite outputs
HARMLESS = {
    ("synth", "synth_config.json", "huge"),  # a cohort of huge but finite values
    ("cluster", "embeddings.csv", "huge"),  # which cluster does not normalize
    *((command, "embeddings.csv", "drop") for command in COHORT_COMMANDS),  # no imaging
    # a learning rate that only training reads, and a finite weight
    *((command, name, "huge") for command in RUN_COMMANDS
      for name in ("resolved_config.json", "checkpoint.bin")),
    # a run without a manifest is not compared with the cohort
    *((command, "manifest.json", "drop") for command in RUN_COMMANDS),
    ("infer", "new_features.csv", "large"), ("infer", "new_embeddings.csv", "large"),
}


def check_fault_cell(workdir, tmp_path, capsys, command, name, fault, edit, line):
    """Runs command on a copy of the workdir fixture's files, after edit
    made the fault in its file name, and checks the cell's outcome."""
    root = tmp_path / "w"
    shutil.copytree(workdir["root"], root)
    w = {key: root / path for key, path in FIXTURE.items()}
    args, inputs = command_case(command, w)
    path = {p.name: p for p in inputs + [w["run"] / "manifest.json"]}[name]
    edit(path, w)
    out = tmp_path / "out"
    code = run(["--quiet", command] + [str(a) for a in args] + ["--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    if (command, name, fault) in HARMLESS:
        assert (code, err) == (0, [])
        manifest = out / "manifest.json" if out.is_dir() else tmp_path / "out.manifest.json"
        for written in json.loads(manifest.read_text())["outputs"]:
            if written.endswith(".bin"):
                load_checkpoint(written)  # refuses a non-finite value
            else:
                assert not re.search(r"(?i)\b(nan|inf|infinity)\b", Path(written).read_text())
        return
    fitted = ["features.csv"] if command == "cluster" else ["features.csv", "embeddings.csv"]
    if command in COHORT_COMMANDS and name in fitted and fault == "huge":
        with open(path, newline="") as fh:
            line = "column %s: mean or std is not finite (cells too large)" % next(csv.reader(fh))[-1]
    assert code == 2
    if line is None:
        assert len(err) == 1 and err[0].startswith("data error: ") and str(path) in err[0], err
    else:
        assert err == ["data error: " + line.format(path=path, run=w["run"])]
    assert not out.exists() and not (tmp_path / "out.manifest.json").exists()


@pytest.mark.parametrize("command, name, fault, edit, line", [
    pytest.param(*cell.values, id=cell.id.split("-", 1)[1]) for cell in fault_cells(["synth"])])
def test_malformed_synth_config_exits_2(workdir, tmp_path, capsys, command, name, fault, edit,
                                        line):
    check_fault_cell(workdir, tmp_path, capsys, command, name, fault, edit, line)


@pytest.mark.parametrize("command, name, fault, edit, line", fault_cells(COHORT_COMMANDS))
def test_cohort_input_faults(workdir, tmp_path, capsys, command, name, fault, edit, line):
    check_fault_cell(workdir, tmp_path, capsys, command, name, fault, edit, line)


@pytest.mark.parametrize("command, name, fault, edit, line", fault_cells(RUN_COMMANDS))
def test_run_directory_faults_are_data_errors(workdir, tmp_path, capsys, command, name, fault,
                                              edit, line):
    check_fault_cell(workdir, tmp_path, capsys, command, name, fault, edit, line)


# ---------------------------------------------------------------- sweep


def test_sweep_subcommand(workdir, tmp_path):
    out = tmp_path / "sweep"
    assert run(["--quiet", "sweep", "--data", str(workdir["data"]),
                "--kind", "label_fraction", "--values", "0.5,1.0", "--seeds", "0",
                "--preset", "synth", "--epochs", "2", "--out", str(out)]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["grid_value", "seed", "macro_f1", "micro_f1"]
    assert len(rows) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["kind"] == "label_fraction"
    assert len(summary["summary"]) == 2


def test_label_fraction_sweep_rows_are_labeled_frac_train_runs(workdir, tmp_path):
    out = tmp_path / "sweep"
    assert run(["--quiet", "sweep", "--data", str(workdir["data"]),
                "--kind", "label_fraction", "--values", "0.5,1.0", "--seeds", "0,1",
                "--preset", "synth", "--epochs", "3", "--out", str(out)]) == 0
    expected = []
    for frac in ("0.5", "1.0"):
        for seed in ("0", "1"):
            rundir = tmp_path / ("run_%s_%s" % (frac, seed))
            assert run(["--quiet", "train", "--data", str(workdir["data"]),
                        "--preset", "synth", "--epochs", "3", "--seed", seed,
                        "--labeled-frac", frac, "--out", str(rundir)]) == 0
            tm = json.loads((rundir / "metrics.json").read_text())["metrics"]
            expected.append("%.17g,%s,%.17g,%.17g" % (float(frac), seed, tm["macro_f1"],
                                                      tm["micro_f1"]))
    written = (out / "sweep.csv").read_text().splitlines()
    assert written == ["grid_value,seed,macro_f1,micro_f1"] + expected


def _strict_json(path):
    """The JSON at path, read with NaN and infinities refused."""
    def refuse(token):
        raise AssertionError("%s holds %s" % (path, token))
    return json.loads(path.read_text(), parse_constant=refuse)


def test_runs_without_validation_or_test_rows_write_null(workdir, tmp_path):
    base = preset_config("synth").to_json_dict()
    no_val = tmp_path / "no_val.json"
    no_val.write_text(json.dumps({**base, "train_frac": 0.7, "val_frac": 0.0,
                                  "test_frac": 0.3, "epochs": 3}))
    rundir = tmp_path / "run"
    assert run(["--quiet", "train", "--data", str(workdir["data"]),
                "--config", str(no_val), "--out", str(rundir)]) == 0
    report = _strict_json(rundir / "train_report.json")
    assert report["best_val_micro"] is None and report["best_epoch"] == 2
    assert [r["val_micro"] for r in report["rows"]] == [None] * 3
    assert _strict_json(rundir / "metrics.json")["best_val_micro"] is None
    assert (rundir / "manifest.json").exists()

    no_test = tmp_path / "no_test.json"
    no_test.write_text(json.dumps({**base, "train_frac": 0.9, "val_frac": 0.1,
                                   "test_frac": 0.0}))
    out = tmp_path / "sweep"
    assert run(["--quiet", "sweep", "--data", str(workdir["data"]),
                "--kind", "label_fraction", "--values", "1.0", "--seeds", "0",
                "--config", str(no_test), "--epochs", "2", "--out", str(out)]) == 0
    entry = _strict_json(out / "summary.json")["summary"][repr(1.0)]
    assert entry["median_micro_f1"] is None and entry["iqr_macro_f1"] is None


def test_sweep_rejects_bad_values(workdir, tmp_path):
    code = run(["--quiet", "sweep", "--data", str(workdir["data"]),
                "--kind", "label_fraction", "--values", "abc", "--seeds", "0",
                "--out", str(tmp_path / "x")])
    assert code == 1


# ---------------------------------------------------------------- exit codes


def test_unknown_flag_is_usage_error(capsys):
    assert run(["train", "--bogus-flag", "x"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_no_subcommand_is_usage_error():
    assert run([]) == 1


def test_divergent_training_is_numeric_error(workdir, tmp_path, capsys):
    cfg = {"learning_rate": 1e8, "embed_dim": 8, "n_relations": 2,
           "thetas": [0.5, 0.5], "alpha": 10.0, "beta": 1.0, "gamma": 0.0001,
           "epochs": 10, "patience": 10, "seed": 0}
    cfg_path = tmp_path / "diverge.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run(["--quiet", "train", "--data", str(workdir["data"]),
                "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 3
    assert "numeric error" in capsys.readouterr().err


def synth_cohort(tmp_path, **overrides):
    """A synth cohort under tmp_path, SYNTH_CONFIG with overrides; returns its directory."""
    scfg_path = tmp_path / "synth.json"
    scfg_path.write_text(json.dumps(dict(SYNTH_CONFIG, **overrides)))
    data = tmp_path / "cohort"
    assert run(["--quiet", "synth", "--out", str(data), "--config", str(scfg_path)]) == 0
    return data


def rewrite_csv(path, edit):
    """Reads a CSV into a list of rows, lets edit change them, writes it back."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def constant_features(data):
    """Every feature column set to 3.0, so no relation has an edge."""
    def edit(rows):
        rows[1:] = [[row[0]] + ["3.0"] * (len(row) - 1) for row in rows[1:]]
    rewrite_csv(data / "features.csv", edit)
    return [], 2, ["data error: every relation is edgeless at thresholds 0.5, 0.5: "
                   "no graph to learn from"]


def one_constant_column(data):
    """Feature column t0c1 set to 3.0: z-scored to zeros, it trains normally."""
    def edit(rows):
        j = rows[0].index("t0c1")
        for row in rows[1:]:
            row[j] = "3.0"
    rewrite_csv(data / "features.csv", edit)
    return [], 0, []


def patient_0_at_the_means(data, exact):
    """Writes patient 0's features as the other patients' column means. With
    exact, the value is iterated until it is bitwise the mean of all rows;
    without, it differs from that mean by rounding. Either way a graph run
    links patient 0 in no relation."""
    def edit(rows):
        values = np.array([row[1:] for row in rows[1:]], dtype=np.float64)
        values[0] = values[1:].mean(axis=0)
        if exact:
            for _ in range(10):  # row 0 moves the mean by rounding: iterate to where it is the mean
                values[0] = values.mean(axis=0)
        assert (values[0] == values.mean(axis=0)).all() == exact
        rows[1][1:] = [repr(float(v)) for v in values[0]]
    rewrite_csv(data / "features.csv", edit)
    gdir = data.parent / "graph"
    assert run(["--quiet", "graph", "--data", str(data), "--preset", "synth",
                "--out", str(gdir)]) == 0
    for rel in json.loads((gdir / "multiplex.json").read_text())["relations"]:
        edges = np.loadtxt(gdir / rel["file"], dtype=np.int64, ndmin=2)
        assert len(edges) and 0 not in edges


def one_isolated_patient(data):
    """Patient 0's features set to the column means, so its z-scored row is
    all zeros and no relation links it: it trains normally."""
    patient_0_at_the_means(data, exact=True)
    return [], 0, []


def one_patient_at_the_means_to_rounding(data):
    """Patient 0's features written as the other rows' means, not iterated:
    z-scoring snaps the rounding residues to zero, so it is isolated too."""
    patient_0_at_the_means(data, exact=False)
    return [], 0, []


def one_edgeless_relation(data):
    """Relation 1 at threshold 1, which no pair exceeds: trains, with a warning."""
    return ["--thetas", "0.5,1"], 0, ["WARNING medplex.train: edgeless relations 1 at "
                                      "thresholds 1: their encoders see no neighbours"]


def relabel(data, n_rows):
    """The first n_rows patients relabelled into a third class of their own."""
    def edit(rows):
        for row in rows[1:n_rows + 1]:
            row[1] = "2"
    rewrite_csv(data / "labels.csv", edit)


def one_huge_cell(data):
    """One finite feature cell of 1e308, whose column's std overflows."""
    def edit(rows):
        rows[5][rows[0].index("t0c2")] = "1e308"
    rewrite_csv(data / "features.csv", edit)
    return [], 2, ["data error: column t0c2: mean or std is not finite (cells too large)"]


def class_of_size_one(data):
    """Too small to split: a data error."""
    relabel(data, 1)
    return [], 2, ["data error: class 2 has only 1 members, need at least 3"]


def class_of_size_three(data):
    """One member each for train, validation and test: trains normally."""
    relabel(data, 3)
    return [], 0, []


@pytest.mark.parametrize("fault", [constant_features, one_constant_column, one_isolated_patient,
                                   one_patient_at_the_means_to_rounding,
                                   one_edgeless_relation, one_huge_cell, class_of_size_one,
                                   class_of_size_three])
def test_degenerate_cohorts_exit_with_a_message(tmp_path, fault):
    data = synth_cohort(tmp_path, n=120)
    flags, code, lines = fault(data)
    # in a child process, where stderr holds all that --quiet lets through:
    # in this one, pytest's log capture would take the warnings
    proc = subprocess.run(
        [sys.executable, "-m", "medplex.cli", "--quiet", "train", "--data", str(data),
         "--preset", "synth", "--epochs", "5", *flags, "--out", str(tmp_path / "run")],
        capture_output=True, text=True)
    assert (proc.returncode, proc.stderr.splitlines()) == (code, lines)


# ---------------------------------------------------------------- import footprint


# Runs medplex.cli.run on its arguments in a fresh interpreter and prints the
# exit code and the scipy packages that the run loaded.
SCIPY_PROBE = (
    "import json, sys\n"
    "from medplex.cli import run\n"
    "code = run(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(m for m in sys.modules\n"
    "                            if m.startswith(('scipy.sparse', 'scipy.special')))]))\n"
)


def scipy_loaded_by(args):
    """(exit code, scipy.sparse and scipy.special modules loaded) of one command."""
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, "--quiet", *args],
                          capture_output=True, text=True)
    assert proc.stderr == ""
    return tuple(json.loads(proc.stdout))


def relation_densities(gdir):
    """Nonzero share (2E + n) / n^2 of each relation's A + I, from a graph run's output."""
    meta = json.loads((gdir / "multiplex.json").read_text())
    n = meta["n_nodes"]
    return [(2 * rel["n_edges"] + n) / (n * n) for rel in meta["relations"]]


def test_dense_relations_load_no_scipy(tmp_path):
    data = synth_cohort(tmp_path, n=120)
    flags = ["--data", str(data), "--preset", "synth", "--thetas", "0.5,0.5"]
    gdir = tmp_path / "graph"
    assert scipy_loaded_by(["graph", *flags, "--out", str(gdir)]) == (0, [])
    assert min(relation_densities(gdir)) >= M._DENSE_FROM  # the train run builds these
    assert scipy_loaded_by(["train", *flags, "--epochs", "5",
                            "--out", str(tmp_path / "run")]) == (0, [])


def test_a_sparse_relation_loads_scipy_sparse(tmp_path):
    data = synth_cohort(tmp_path, n=120)
    flags = ["--data", str(data), "--preset", "synth", "--thetas", "0.5,0.9"]
    gdir = tmp_path / "graph"
    assert run(["--quiet", "graph", *flags, "--out", str(gdir)]) == 0
    dense, sparse = relation_densities(gdir)
    assert 1 / 120 < sparse < M._DENSE_FROM <= dense  # relation 1 has edges and is CSR
    code, loaded = scipy_loaded_by(["train", *flags, "--epochs", "5",
                                    "--out", str(tmp_path / "run")])
    assert code == 0
    assert "scipy.sparse" in loaded


# ---------------------------------------------------------------- process entry


def test_module_entry_point_and_quiet(tmp_path):
    scfg_path = tmp_path / "synth.json"
    scfg_path.write_text(json.dumps(SYNTH_CONFIG))
    out = tmp_path / "cohort"
    proc = subprocess.run(
        [sys.executable, "-m", "medplex.cli", "--quiet", "synth",
         "--out", str(out), "--config", str(scfg_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "INFO" not in proc.stderr
    assert (out / "features.csv").exists()

    loud = subprocess.run(
        [sys.executable, "-m", "medplex.cli", "synth",
         "--out", str(tmp_path / "cohort2"), "--config", str(scfg_path)],
        capture_output=True, text=True)
    assert loud.returncode == 0
    assert "INFO" in loud.stderr
