"""End-to-end experiment orchestration shared by the CLI and the tests.

A run takes raw tables, normalizes them, picks (or accepts) a column
partition, builds the multiplex graph, trains, and reports metrics. Baseline
runs reuse the exact same masks so comparisons are apples to apples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .data import (
    EmbeddingTable,
    FeatureTable,
    LabelVector,
    concat_attributes,
    prepare_tables,
    split_masks,
)
from .clustering import ClusterPartition, kmeans_columns
from .graph import MultiplexGraph, attach_new_nodes, build_multiplex
from .model import ModelState, attentive_pool, classify, encode, relation_operator
from .train import TrainingConfig, TrainReport, fit
from .baselines import BaselineModel, fit_mlp, fit_single_gcn
from .evaluate import subsample_train


@dataclass
class ExperimentResult:
    graph: MultiplexGraph
    labels: LabelVector  # with the masks actually used
    state: ModelState
    report: TrainReport
    cfg: TrainingConfig


def assign_masks(labels: LabelVector, cfg: TrainingConfig) -> LabelVector:
    """The run's split masks. With cfg.labeled_frac below 1 only that
    stratified share of TRAIN rows keeps its labels (subsample_train)."""
    masked = labels.with_mask(split_masks(labels.labels, cfg.fractions(), cfg.seed))
    if cfg.labeled_frac < 1:
        masked = subsample_train(masked, cfg.labeled_frac, cfg.seed)
    return masked


def build_graph_for(table: FeatureTable, embeddings: EmbeddingTable, cfg: TrainingConfig,
                    partition: ClusterPartition | None = None) -> MultiplexGraph:
    """Normalize, partition (k-means unless given), and build the multiplex."""
    c_norm, z_norm, feat_norm, emb_norm = prepare_tables(table, embeddings)
    if partition is None:
        partition = kmeans_columns(
            c_norm, cfg.n_relations,
            restarts=cfg.kmeans_restarts, max_iters=cfg.kmeans_max_iters, seed=cfg.seed,
        )
    elif partition.n_types != cfg.n_relations:
        raise DataError(
            "partition has %d types, config says %d relations"
            % (partition.n_types, cfg.n_relations)
        )
    return build_multiplex(
        c_norm, partition, cfg.thetas, z_norm,
        feat_normalizer=feat_norm, embed_normalizer=emb_norm,
    )


def run_experiment(table: FeatureTable, embeddings: EmbeddingTable, labels: LabelVector,
                   cfg: TrainingConfig,
                   partition: ClusterPartition | None = None) -> ExperimentResult:
    """The whole pipeline on in-memory tables. Deterministic in cfg.seed."""
    if labels.n_rows != table.n_rows:
        raise DataError("labels cover %d rows, table has %d" % (labels.n_rows, table.n_rows))
    masked = assign_masks(labels, cfg)
    graph = build_graph_for(table, embeddings, cfg, partition)
    state, report = fit(graph, masked, cfg)
    return ExperimentResult(graph=graph, labels=masked, state=state, report=report, cfg=cfg)


def run_mlp_baseline(table: FeatureTable, embeddings: EmbeddingTable, labels: LabelVector,
                     cfg: TrainingConfig) -> BaselineModel:
    masked = assign_masks(labels, cfg)
    c_norm, z_norm, _, _ = prepare_tables(table, embeddings)
    x = concat_attributes(z_norm, c_norm).x
    return fit_mlp(x, masked, cfg)


def run_single_gcn_baseline(table: FeatureTable, embeddings: EmbeddingTable,
                            labels: LabelVector, cfg: TrainingConfig) -> BaselineModel:
    """Collapsed baseline: one graph over all columns at the laxest threshold."""
    masked = assign_masks(labels, cfg)
    c_norm, z_norm, _, _ = prepare_tables(table, embeddings)
    x = concat_attributes(z_norm, c_norm).x
    return fit_single_gcn(x, c_norm, masked, min(cfg.thetas), cfg)


def transductive_probs(state: ModelState) -> np.ndarray:
    """Class probabilities for the training cohort, read off the consensus."""
    probs, _ = classify(state.params["consensus"], state.params["cls_w"], state.params["cls_b"])
    return probs


def pooled_probs(state: ModelState, graph: MultiplexGraph) -> np.ndarray:
    """Classifier applied to attention-pooled encoder outputs for any graph.

    This is the inductive path: encoders + attention generalize to new nodes,
    the consensus matrix does not.
    """
    ops = [relation_operator(g) for g in graph.relations]
    hs = encode(ops, graph.attributes.x, state.relation_stack(state.flat, "enc_w"))
    pooled, _, _ = attentive_pool(hs, state.params["att_logits"])
    probs, _ = classify(pooled, state.params["cls_w"], state.params["cls_b"])
    return probs


def inductive_predict(state: ModelState, graph: MultiplexGraph,
                      new_features: FeatureTable, new_embeddings: EmbeddingTable):
    """Attach unseen patients and score them; returns (probs, extended graph).

    probs covers only the new rows, in their input order. They share one
    extended graph, where each adds to its training neighbours' degrees, so
    an arrival's probabilities depend on the others in the call.
    """
    extended = attach_new_nodes(graph, new_features, new_embeddings)
    all_probs = pooled_probs(state, extended)
    return all_probs[graph.n_nodes:], extended
