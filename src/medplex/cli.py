"""Command line entry point.

Subcommands: synth, cluster, graph, train, eval, explain, infer, sweep.
Stages talk to each other through files; every run writes a manifest with
sha256 digests of what it read and wrote. Logs go to stderr, data to files.

Exit codes: 0 ok, 1 usage, 2 bad data, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import logging
import os
import sys
import time
from collections import namedtuple

import numpy as np

from .errors import DataError, NumericError, UsageError
from . import __version__
from . import data as D
from . import evaluate as E
from . import pipeline
from .clustering import kmeans_columns, load_manual_split, save_partition
from .data import Normalizer, SynthConfig
from .graph import (_map_threads, arrival_embeddings, arrival_features, build_multiplex,
                    pairwise_class_similarity, write_multiplex)
from .model import load_checkpoint, save_checkpoint
from .train import PRESETS, TrainingConfig, preset_config

log = logging.getLogger("medplex")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage -> 1
        raise UsageError(message)


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _digests(paths: list) -> dict:
    """{path: sha256 hex digest of the file} for each path, the files hashed
    on graph._map_threads."""
    return dict(zip(paths, _map_threads(_sha256_file, paths)))


def _write_manifest(path, command: str, inputs: list, outputs: list,
                    wall_s: float, extra: dict | None = None,
                    digests: dict | None = None) -> None:
    """digests: {path: sha256} of files already hashed, which are not read again."""
    known = digests or {}
    digests = {**known, **_digests([p for p in inputs + outputs if p not in known])}
    manifest = {
        "command": command,
        "package_version": __version__,
        "wall_time_s": round(wall_s, 3),
        "inputs": {p: digests[p] for p in inputs},
        "outputs": {p: digests[p] for p in outputs},
    }
    if extra:
        manifest["extra"] = extra
    D.write_json(path, manifest)


_COHORT_FILES = {"features": "features.csv", "embeddings": "embeddings.csv",
                 "labels": "labels.csv"}


def _cohort_paths(data_dir: str) -> dict:
    return {key: os.path.join(data_dir, name) for key, name in _COHORT_FILES.items()}


def _load_cohort(data_dir: str, need_labels: bool = True, need_embeddings: bool = False):
    """Read features.csv (+ embeddings.csv, labels.csv) from a dir.

    embeddings.csv is read when it exists or need_embeddings is set. Row ids
    must agree across files, same order. Returns
    (table, embeddings, labels_or_None, list_of_input_paths).
    """
    paths = _cohort_paths(data_dir)
    inputs = [paths["features"]]
    table = D.load_feature_csv(paths["features"])
    if need_embeddings or os.path.exists(paths["embeddings"]):
        embeddings = D.load_embedding_csv(paths["embeddings"])
        if embeddings.row_ids != table.row_ids:
            with D.reading(paths["embeddings"]):
                raise DataError("row ids do not match those of features.csv")
        inputs.append(paths["embeddings"])
    else:
        embeddings = D.empty_embeddings(table.row_ids)
    labels = None
    if need_labels:
        labels, label_ids = D.load_label_csv(paths["labels"])
        if label_ids != table.row_ids:
            with D.reading(paths["labels"]):
                raise DataError("row ids do not match those of features.csv")
        inputs.append(paths["labels"])
    return table, embeddings, labels, inputs


def _resolve_config(args) -> TrainingConfig:
    if getattr(args, "preset", None) and getattr(args, "config", None):
        raise UsageError("give either --preset or --config, not both")
    if getattr(args, "preset", None):
        cfg = preset_config(args.preset)
    elif getattr(args, "config", None):
        with D.reading(args.config):
            cfg = TrainingConfig.from_json_dict(D.read_json(args.config))
    else:
        cfg = TrainingConfig()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "thetas", None):
        overrides["thetas"] = tuple(_parse_floats(args.thetas, "--thetas"))
    if getattr(args, "epochs", None) is not None:
        overrides["epochs"] = args.epochs
    if getattr(args, "labeled_frac", None) is not None:
        overrides["labeled_frac"] = args.labeled_frac
    return dataclasses.replace(cfg, **overrides)


def _parse_floats(text: str, flag: str) -> list:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise UsageError("%s expects comma-separated numbers, got %r" % (flag, text)) from None


def _parse_ints(text: str, flag: str) -> list:
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise UsageError("%s expects comma-separated integers, got %r" % (flag, text)) from None


def _read_partition(path, table, inputs: list, n_relations: int | None = None):
    """A column->type JSON file as a partition, or None (k-means) without one.
    Given n_relations, the config's, the partition must have that many types."""
    if not path:
        return None
    inputs.append(path)
    with D.reading(path):
        partition = load_manual_split(path, table)
        if n_relations is not None and partition.n_types != n_relations:
            raise DataError("partition has %d types, config says %d relations"
                            % (partition.n_types, n_relations))
    return partition


_Run = namedtuple("_Run", "cfg state table embeddings partition labels feat_norm emb_norm "
                         "cohort_digests")


def _check_trained_cohort(run_dir: str, data_dir: str, cohort_digests: dict) -> None:
    """Refuses the cohort files read, {path: sha256}, unless each file has
    the digest that the run's manifest.json records for the file of its
    name. A run without a manifest is not checked."""
    path = os.path.join(run_dir, "manifest.json")
    if not os.path.exists(path):
        return
    with D.reading(path):
        recorded = D.read_json(path)
        inputs = recorded.get("inputs") if isinstance(recorded, dict) else None
        if not isinstance(inputs, dict):
            raise DataError("no input digests")
    trained = {os.path.basename(p): d for p, d in inputs.items()}
    given = {os.path.basename(p): d for p, d in cohort_digests.items()}
    for name in _COHORT_FILES.values():
        if trained.get(name) != given.get(name):
            with D.reading(os.path.join(data_dir, name)):
                raise DataError("not the file %s was trained on (see %s)" % (run_dir, path))


def _load_run(run_dir: str, data_dir: str):
    """Read a train run back with its cohort, normalized by the stored transforms.

    The cohort must have the checkpoint's row count and attribute width, the
    partition its relation count and the cohort's columns, stored transforms its
    embeddings, and its files must be those the run's manifest records (see
    _check_trained_cohort). Those files are checked before the stored
    transforms are applied, so a cohort that fails under them faults the run's
    normalizers.json. Builds no relation graph. Returns (_Run,
    list_of_input_paths); the _Run's cohort_digests are for the manifest.
    """
    cfg_path, ckpt_path, norm_path, part_path = (
        os.path.join(run_dir, name) for name in
        ("resolved_config.json", "checkpoint.bin", "normalizers.json", "partition.json"))
    with D.reading(cfg_path):
        cfg = TrainingConfig.from_json_dict(D.read_json(cfg_path))
    state, _ = load_checkpoint(ckpt_path)
    with D.reading(norm_path):
        norms = D.read_json(norm_path)
        if not isinstance(norms, dict) or "features" not in norms:
            raise DataError("no feature transform")
        feat_norm = Normalizer.from_dict(norms["features"])
        emb_norm = Normalizer.from_dict(norms["embeddings"]) if norms.get("embeddings") else None
    table, embeddings, labels, inputs = _load_cohort(data_dir,
                                                     need_embeddings=emb_norm is not None)
    cohort = list(inputs)
    inputs += [cfg_path, ckpt_path, norm_path]
    partition = _read_partition(part_path, table, inputs, cfg.n_relations)
    if state.dims.n_relations != partition.n_types:
        raise DataError("%s holds %d relations, the partition has %d types"
                        % (ckpt_path, state.dims.n_relations, partition.n_types))
    if table.n_rows != state.dims.n_nodes:
        with D.reading(cohort[0]):  # features.csv
            raise DataError("data dir has %d rows, checkpoint was trained on %d"
                            % (table.n_rows, state.dims.n_nodes))
    digests = _digests(cohort)
    _check_trained_cohort(run_dir, data_dir, digests)
    with D.reading(norm_path):
        c_norm, z_norm, _, _ = D.prepare_tables(table, embeddings, feat_norm, emb_norm)
    width = z_norm.n_cols + c_norm.n_cols
    if width != state.dims.in_dim:
        with D.reading(ckpt_path):
            raise DataError("data dir has %d attribute columns, checkpoint was trained on %d"
                            % (width, state.dims.in_dim))
    return _Run(cfg, state, c_norm, z_norm, partition, labels, feat_norm, emb_norm,
                digests), inputs


def _cmd_synth(args) -> dict:
    if args.config:
        with D.reading(args.config):
            scfg = SynthConfig.from_dict(D.read_json(args.config))
        inputs = [args.config]
    else:
        scfg = SynthConfig()
        inputs = []
    if args.seed is not None:
        scfg = dataclasses.replace(scfg, seed=args.seed)
    table, embeddings, labels, truth = D.generate_synthetic_cohort(scfg)
    os.makedirs(args.out, exist_ok=True)
    paths = _cohort_paths(args.out)
    D.write_feature_csv(paths["features"], table)
    outputs = [paths["features"]]
    if embeddings.n_cols > 0:
        D.write_embedding_csv(paths["embeddings"], embeddings)
        outputs.append(paths["embeddings"])
    D.write_label_csv(paths["labels"], labels, table.row_ids)
    outputs.append(paths["labels"])
    truth_path = os.path.join(args.out, "truth_types.json")
    D.write_truth_json(truth_path, truth)
    outputs.append(truth_path)
    log.info("synthetic cohort: %d rows, %d feature cols, %d classes",
             table.n_rows, table.n_cols, labels.n_classes)
    return dict(path=os.path.join(args.out, "manifest.json"), inputs=inputs, outputs=outputs,
                extra={"synth_config": scfg.to_dict()})


def _cmd_cluster(args) -> dict:
    table, _, _, inputs = _load_cohort(args.data, need_labels=False)
    partition = _read_partition(args.manual, table, inputs)
    if partition is not None:
        log.info("manual partition: %d types over %d columns", partition.n_types, table.n_cols)
    else:
        if args.k is None:
            raise UsageError("either --k or --manual is required")
        c_norm, _ = D.normalize_columns(table)
        partition = kmeans_columns(
            c_norm, args.k, restarts=args.restarts, max_iters=args.max_iters, seed=args.seed or 0
        )
        log.info("k-means partition: k=%d wcss=%.6f", args.k, partition.wcss)
    save_partition(args.out, partition)
    return dict(path=args.out + ".manifest.json", inputs=inputs, outputs=[args.out])


def _cmd_graph(args) -> dict:
    cfg = _resolve_config(args)
    table, embeddings, _, inputs = _load_cohort(args.data, need_labels=False)
    partition = _read_partition(args.partition, table, inputs, cfg.n_relations)
    graph = pipeline.build_graph_for(table, embeddings, cfg, partition)
    os.makedirs(args.out, exist_ok=True)
    manifest = write_multiplex(args.out, graph)
    for rel in manifest["relations"]:
        log.info("relation %d: %d edges, mean degree %.2f, %d isolated",
                 rel["relation"], rel["n_edges"], rel["mean_degree"], rel["isolated_nodes"])
    outputs = [os.path.join(args.out, r["file"]) for r in manifest["relations"]]
    outputs.append(os.path.join(args.out, "multiplex.json"))
    return dict(path=os.path.join(args.out, "manifest.json"), inputs=inputs, outputs=outputs,
                extra={"config_hash": cfg.config_hash()})


def _cmd_train(args) -> dict:
    cfg = _resolve_config(args)
    table, embeddings, labels, inputs = _load_cohort(args.data)
    partition = _read_partition(args.partition, table, inputs, cfg.n_relations)
    result = pipeline.run_experiment(table, embeddings, labels, cfg, partition=partition)
    os.makedirs(args.out, exist_ok=True)
    outputs = []

    cfg_path = os.path.join(args.out, "resolved_config.json")
    D.write_json(cfg_path, cfg.to_json_dict())
    outputs.append(cfg_path)

    part_path = os.path.join(args.out, "partition.json")
    save_partition(part_path, result.graph.partition)
    outputs.append(part_path)

    norm_path = os.path.join(args.out, "normalizers.json")
    D.write_json(norm_path, {
        "features": result.graph.feat_normalizer.to_dict(),
        "embeddings": result.graph.embed_normalizer.to_dict()
        if result.graph.embed_normalizer else None,
    })
    outputs.append(norm_path)

    ckpt_path = os.path.join(args.out, "checkpoint.bin")
    save_checkpoint(ckpt_path, result.state, config_hash=cfg.config_hash())
    outputs.append(ckpt_path)

    report_path = os.path.join(args.out, "train_report.json")
    D.write_json(report_path, result.report.to_json_dict())
    outputs.append(report_path)

    metrics_path = os.path.join(args.out, "metrics.json")
    D.write_json(metrics_path, {
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "split": "test",
        "metrics": result.report.test_metrics,
        "best_epoch": result.report.best_epoch,
        "best_val_micro": result.report.best_val_micro,
        "att_weights": result.report.att_weights,
    })
    outputs.append(metrics_path)

    tm = result.report.test_metrics or {}
    log.info("trained %d epochs (best %d), test micro %.4f macro %.4f",
             result.report.epochs_run, result.report.best_epoch,
             tm.get("micro_f1", float("nan")), tm.get("macro_f1", float("nan")))
    return dict(path=os.path.join(args.out, "manifest.json"), inputs=inputs, outputs=outputs,
                extra={"config_hash": cfg.config_hash()})


def _cmd_eval(args) -> dict:
    trained, inputs = _load_run(args.run, args.data)
    cfg = trained.cfg
    masked = pipeline.assign_masks(trained.labels, cfg)
    split_code = {"train": D.TRAIN, "val": D.VAL, "test": D.TEST}[args.split]
    idx = masked.rows_with(split_code)
    if idx.size == 0:
        raise DataError("split %r has no rows under this config" % args.split)
    probs = pipeline.transductive_probs(trained.state)
    pred = np.argmax(probs[idx], axis=1)
    report = E.metrics_report(pred, masked.labels[idx], masked.n_classes)
    payload = {
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "split": args.split,
        "metrics": report.to_json_dict(),
    }
    D.write_json(args.out, payload)
    log.info("%s split: micro %.4f macro %.4f over %d rows",
             args.split, report.micro_f1, report.macro_f1, idx.size)
    return dict(path=args.out + ".manifest.json", inputs=inputs, outputs=[args.out],
                digests=trained.cohort_digests)


def _cmd_explain(args) -> dict:
    trained, inputs = _load_run(args.run, args.data)
    table, partition, labels = trained.table, trained.partition, trained.labels.labels
    os.makedirs(args.out, exist_ok=True)
    outputs = []

    report = E.attention_report(trained.state, partition)
    att_path = os.path.join(args.out, "attention.json")
    D.write_json(att_path, report)
    outputs.append(att_path)

    def _write_matrix(path, matrix):
        D.write_numeric_csv(path, ["class_%d" % k for k in range(matrix.shape[0])], matrix,
                            newline="\n")
        outputs.append(path)

    sim_all = pairwise_class_similarity(table, labels)
    _write_matrix(os.path.join(args.out, "class_similarity_all.csv"), sim_all)
    for r in range(partition.n_types):
        sim_r = pairwise_class_similarity(table, labels, columns=partition.columns_of(r))
        _write_matrix(os.path.join(args.out, "class_similarity_type%d.csv" % r), sim_r)

    top = report["ranking"][0]
    log.info("most informative relation: %d (weight %.4f, uniform %.4f)",
             top, report["weights"][top], report["uniform_weight"])
    return dict(path=os.path.join(args.out, "manifest.json"), inputs=inputs, outputs=outputs,
                digests=trained.cohort_digests)


def _cmd_infer(args) -> dict:
    trained, inputs = _load_run(args.run, args.data)
    graph = build_multiplex(
        trained.table, trained.partition, trained.cfg.thetas, trained.embeddings,
        feat_normalizer=trained.feat_norm, embed_normalizer=trained.emb_norm,
    )
    # each file's checks against the run, made here to name the file
    with D.reading(args.new_features):
        new_table = D.load_feature_csv(
            args.new_features, dict(zip(trained.feat_norm.column_names, trained.feat_norm.mean)))
        arrival_features(graph, new_table)
    inputs.append(args.new_features)
    if args.new_embeddings:
        with D.reading(args.new_embeddings):
            new_emb = D.load_embedding_csv(args.new_embeddings)
            arrival_embeddings(graph, new_emb, new_table.row_ids)
        inputs.append(args.new_embeddings)
    elif trained.embeddings.n_cols:
        raise DataError("the run was trained with %d embedding columns: give the new rows' "
                        "with --new-embeddings" % trained.embeddings.n_cols)
    else:
        new_emb = D.empty_embeddings(new_table.row_ids)
    probs, _ = pipeline.inductive_predict(trained.state, graph, new_table, new_emb)
    os.makedirs(args.out, exist_ok=True)
    pred_path = os.path.join(args.out, "predictions.csv")
    D.write_numeric_csv(pred_path, ["id", "predicted_class"]
                        + ["prob_%d" % k for k in range(probs.shape[1])], probs,
                        new_table.row_ids, classes=np.argmax(probs, axis=1), newline="\n")
    log.info("scored %d new rows against %d training rows",
             new_table.n_rows, graph.n_nodes)
    return dict(path=os.path.join(args.out, "manifest.json"), inputs=inputs, outputs=[pred_path],
                digests=trained.cohort_digests)


def _cmd_sweep(args) -> dict:
    cfg = _resolve_config(args)
    table, embeddings, labels, inputs = _load_cohort(args.data)
    partition = _read_partition(args.partition, table, inputs)
    values = _parse_floats(args.values, "--values")
    if not values:
        raise UsageError("--values is empty")
    seeds = _parse_ints(args.seeds, "--seeds")
    if not seeds:
        raise UsageError("--seeds is empty")
    rows = E.sweep(args.kind, values, table, embeddings, labels, cfg,
                   seeds=seeds, partition=partition)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "sweep.csv")
    E.write_sweep_csv(csv_path, rows)
    summary_path = os.path.join(args.out, "summary.json")
    D.write_json(summary_path, {
        "kind": args.kind,
        "config_hash": cfg.config_hash(),
        "summary": E.summarize_sweep(rows),
    })
    log.info("swept %s over %d values x %d seeds", args.kind, len(values), len(seeds))
    return dict(path=os.path.join(args.out, "manifest.json"), inputs=inputs,
                outputs=[csv_path, summary_path])


def _add_config_flags(p):
    p.add_argument("--config", help="training config JSON")
    p.add_argument("--preset", help="named preset: %s" % ", ".join(sorted(PRESETS)))
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--thetas", help="comma-separated per-relation thresholds")


def build_parser() -> _Parser:
    parser = _Parser(prog="medplex",
                     description="multiplex patient-similarity graph learning")
    parser.add_argument("--quiet", action="store_true", help="only warnings on stderr")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("synth", help="generate a synthetic cohort", parents=[])
    p.add_argument("--out", required=True, help="output cohort directory")
    p.add_argument("--config", help="synthetic cohort config JSON")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("cluster", help="partition feature columns into types")
    p.add_argument("--data", required=True, help="cohort directory")
    p.add_argument("--k", type=int, default=None, help="number of types")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--manual", help="manual column->type JSON instead of k-means")
    p.add_argument("--out", required=True, help="partition JSON path")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("graph", help="build and export the multiplex graph")
    p.add_argument("--data", required=True)
    p.add_argument("--partition", help="partition JSON (default: k-means)")
    _add_config_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("train", help="train on a cohort")
    p.add_argument("--data", required=True)
    p.add_argument("--partition", help="partition JSON (default: k-means)")
    p.add_argument("--labeled-frac", type=float, default=None,
                   help="override the config's share of TRAIN rows kept labeled")
    p.add_argument("--epochs", type=int, default=None, help="override the epoch budget")
    _add_config_flags(p)
    p.add_argument("--out", required=True, help="run output directory")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a trained run on one split")
    p.add_argument("--run", required=True, help="train output directory")
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=["train", "val", "test"], default="test")
    p.add_argument("--out", required=True, help="metrics JSON path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("explain", help="attention weights and class similarity maps")
    p.add_argument("--run", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("infer", help="score unseen patients against a trained run")
    p.add_argument("--run", required=True)
    p.add_argument("--data", required=True, help="training cohort directory")
    p.add_argument("--new-features", required=True)
    p.add_argument("--new-embeddings", default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("sweep", help="grid of runs over one hyperparameter")
    p.add_argument("--data", required=True)
    p.add_argument("--kind", required=True, choices=list(E.SWEEP_KINDS))
    p.add_argument("--values", required=True, help="comma-separated grid values")
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--partition", help="partition JSON (default: k-means)")
    p.add_argument("--epochs", type=int, default=None, help="override the epoch budget")
    _add_config_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_sweep)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(
            stream=sys.stderr,
            level=logging.WARNING if args.quiet else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
        )
        if not getattr(args, "command", None):
            raise UsageError("a subcommand is required (see --help)")
        # a command returns what its manifest records; one that raises gets none
        started = time.monotonic()
        record = args.func(args)
        _write_manifest(command=args.command, wall_s=time.monotonic() - started, **record)
        return 0
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    except DataError as exc:
        print("data error: %s" % exc, file=sys.stderr)
        return 2
    except NumericError as exc:
        print("numeric error: %s" % exc, file=sys.stderr)
        return 3


def main(argv=None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
