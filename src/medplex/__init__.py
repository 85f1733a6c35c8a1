"""medplex: multiplex patient-similarity graphs over multi-modal medical data.

Pipeline: cluster feature columns into types, build one cosine-similarity
graph per type over the shared patients, train per-relation GCN encoders with
an infomax objective plus an attention-pooled consensus embedding and a small
supervised head, then read predictions, attention weights and similarity maps
back out. Everything is numpy with hand-written gradients.
"""

__version__ = "0.1.0"

from .errors import DataError, MedplexError, NumericError, UsageError
from .data import (
    EmbeddingTable,
    FeatureTable,
    LabelVector,
    NodeAttributes,
    Normalizer,
    SynthConfig,
    concat_attributes,
    generate_synthetic_cohort,
    load_feature_csv,
    normalize_columns,
    split_masks,
)
from .clustering import ClusterPartition, kmeans_columns, load_manual_split
from .graph import (
    MultiplexGraph,
    RelationGraph,
    attach_new_nodes,
    build_multiplex,
    build_relation_graph,
    cosine_similarity,
    pairwise_class_similarity,
)
from .model import ForwardCache, ModelDims, ModelState
from .train import TrainingConfig, TrainReport, fit, micle_loss
from .baselines import BaselineModel, fit_mlp, fit_single_gcn
from .evaluate import ConfusionCounts, MetricsReport, confusion_counts, macro_f1, micro_f1

__all__ = [name for name in dir() if not name.startswith("_")]
