"""Spans around medplex's public functions, for the traced run only.

`Tracer.install` replaces each listed function wherever a medplex module
looks it up (a module attribute, or a name imported into another module), so
the library is measured from outside without changing a file of it. Spans
stay in memory as (name, start, end, parent, info) and are written out once
the run ends. `per_layer` turns them into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import os
import sys
import time

LAYERS = ("data", "clustering", "graph", "model", "train", "baselines",
          "evaluate", "pipeline", "cli")
CLI_COMMANDS = ("train", "graph", "infer")
RELATIONS = (0, 1)  # the synth preset builds two relations


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._paused = False

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent, "info": {}})
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, note=None):
        """`name` is a span name or a function of the call's arguments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = self.open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if note is not None:
                self.spans[idx]["info"].update(note(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        targets = [(importlib.import_module(module), attr, name, note)
                   for module, attr, name, note in _TARGETS]
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "medplex" or k.startswith("medplex."))]
        for owner, attr, name, note in targets:
            original = getattr(owner, attr)
            traced = self.wrap(original, name, note)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, traced)
        # RelationGraph's generated __init__ looks __post_init__ up on the class
        cls = sys.modules["medplex.graph"].RelationGraph
        self._restore.append((cls, "__post_init__", cls.__post_init__))
        cls.__post_init__ = self.wrap(cls.__post_init__, "graph.validate")

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()


def _note_kmeans(args, kwargs, result):
    bound = inspect.signature(sys.modules["medplex.clustering"].kmeans_columns).bind(
        *args, **kwargs)
    bound.apply_defaults()
    return {"restarts": bound.arguments["restarts"]}


def _note_build(args, kwargs, result):
    return {"relation": int(result.relation_index)}


def _note_multiplex(args, kwargs, result):
    return {"n": int(result.n_nodes), "edges": [int(g.n_edges) for g in result.relations]}


def _note_write(args, kwargs, result):
    out_dir = args[0] if args else kwargs["out_dir"]
    files = [r["file"] for r in result["relations"]] + ["multiplex.json"]
    return {"bytes": sum(os.path.getsize(os.path.join(out_dir, f)) for f in files)}


def _note_gcn_forward(args, kwargs, result):
    op, w = args[0], args[2]
    return {"nnz": int(op.nnz), "width": int(w.shape[1])}


def _note_gcn_backward(args, kwargs, result):
    cache, dh = args[0], args[1]
    return {"nnz": int(cache.op.nnz), "width": int(dh.shape[1])}


def _note_fit(args, kwargs, result):
    return {"epochs_run": int(result[1].epochs_run)}


def _note_baseline(args, kwargs, result):
    return {"micro_f1": float(result.report["test_metrics"]["micro_f1"])}


def _note_rows(args, kwargs, result):
    return {"rows": int(result.shape[0])}


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv") or []
    command = next((a for a in argv if not a.startswith("-")), "none")
    return "cli." + command


# (module, attribute, span name, note): each public function a caller reaches
_TARGETS = [
    ("medplex.data", "load_feature_csv", "data.load", None),
    ("medplex.data", "load_embedding_csv", "data.load", None),
    ("medplex.data", "load_label_csv", "data.load", None),
    ("medplex.data", "normalize_columns", "data.normalize", None),
    ("medplex.data", "normalize_embeddings", "data.normalize", None),
    ("medplex.clustering", "kmeans_columns", "clustering.kmeans", _note_kmeans),
    ("medplex.graph", "build_relation_graph", "graph.build", _note_build),
    ("medplex.graph", "build_multiplex", "graph.build_multiplex", _note_multiplex),
    ("medplex.graph", "attach_new_nodes", "graph.attach", None),
    ("medplex.graph", "write_multiplex", "graph.write", _note_write),
    ("medplex.model", "normalize_adjacency", "model.normalize_adjacency", None),
    ("medplex.model", "gcn_forward", "model.gcn_forward", _note_gcn_forward),
    ("medplex.model", "gcn_backward", "model.gcn_backward", _note_gcn_backward),
    ("medplex.model", "save_checkpoint", "model.save_checkpoint", None),
    ("medplex.model", "load_checkpoint", "model.load_checkpoint", None),
    ("medplex.train", "fit", "train.fit", _note_fit),
    ("medplex.train", "loss_and_grads", "train.loss_and_grads", None),
    ("medplex.train", "infomax_loss", "train.infomax_loss", None),
    ("medplex.train", "infomax_backward", "train.infomax_loss", None),
    ("medplex.train", "consensus_loss", "train.consensus_loss", None),
    ("medplex.train", "supervised_loss", "train.supervised_loss", None),
    ("medplex.train", "adam_step", "train.adam_step", None),
    ("medplex.baselines", "fit_mlp", "baselines.mlp", _note_baseline),
    ("medplex.baselines", "fit_single_gcn", "baselines.single_gcn", _note_baseline),
    ("medplex.evaluate", "confusion_counts", "evaluate.metrics", None),
    ("medplex.evaluate", "micro_f1", "evaluate.metrics", None),
    ("medplex.pipeline", "run_experiment", "pipeline.run_experiment", None),
    ("medplex.pipeline", "build_graph_for", "pipeline.build_graph_for", None),
    ("medplex.pipeline", "run_mlp_baseline", "pipeline.run_mlp_baseline", None),
    ("medplex.pipeline", "run_single_gcn_baseline", "pipeline.run_single_gcn_baseline", None),
    ("medplex.pipeline", "inductive_predict", "pipeline.inductive_predict", None),
    ("medplex.pipeline", "pooled_probs", "pipeline.pooled_probs", _note_rows),
    ("medplex.cli", "run", _cli_name, None),
]


# --- per-layer metrics -------------------------------------------------------

# exact counts: computed from the run's structure rather than timed, so they
# repeat exactly and a later change can rest a count-based claim on them
COUNTS = ("graph.r0.edges", "graph.r0.density", "graph.r1.edges", "graph.r1.density",
          "graph.bytes_written", "model.sparse_products_per_epoch",
          "model.spmm_flops_per_epoch", "pipeline.rows_computed_per_arrival")


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)])


class SpanIndex:
    """Durations, self times and ancestry over one list of closed spans."""

    def __init__(self, spans: list):
        self.spans = spans
        self.dur = [s["end"] - s["start"] for s in spans]
        child_time = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s["parent"] is not None:
                child_time[s["parent"]] += self.dur[i]
        # children run inside their parent on one thread, so they never overlap
        self.self_time = [d - c for d, c in zip(self.dur, child_time)]

    def named(self, name: str, under: str | None = None) -> list:
        return [i for i, s in enumerate(self.spans)
                if s["name"] == name and (under is None or self.under(i, under))]

    def under(self, i: int, name: str) -> bool:
        p = self.spans[i]["parent"]
        while p is not None:
            if self.spans[p]["name"] == name:
                return True
            p = self.spans[p]["parent"]
        return False

    def total(self, name: str, under: str | None = None) -> float:
        return float(sum(self.dur[i] for i in self.named(name, under)))


def per_layer(spans: list, overhead_frac: float, batch_dependence: float) -> dict:
    """Every per-layer metric from one traced pass; 0 where a layer did no work.

    Per-arrival figures (graph.attach_s, pipeline.*) are over the spans under
    the benchmark's single-arrival calls; the batch's own calls are excluded.
    """
    ix = SpanIndex(spans)
    info = [s["info"] for s in spans]
    m = {}
    for name in ("data.load", "data.normalize"):
        m[name + "_s"] = ix.total(name)
        m[name + "_calls"] = len(ix.named(name))
    m["clustering.kmeans_s"] = ix.total("clustering.kmeans")
    m["clustering.kmeans_restarts"] = sum(info[i]["restarts"]
                                          for i in ix.named("clustering.kmeans"))
    for name in ("graph.build", "graph.validate"):
        m[name + "_s"] = ix.total(name)
        m[name + "_calls"] = len(ix.named(name))
    builds = [info[i] for i in ix.named("graph.build_multiplex")]
    pairs = sum(b["n"] * (b["n"] - 1) / 2 for b in builds)
    for r in RELATIONS:
        m["graph.r%d.build_s" % r] = float(sum(
            ix.dur[i] for i in ix.named("graph.build", under="graph.build_multiplex")
            if info[i]["relation"] == r))
        edges = sum(b["edges"][r] for b in builds if r < len(b["edges"]))
        m["graph.r%d.edges" % r] = edges
        m["graph.r%d.density" % r] = edges / pairs if pairs else 0.0
    m["graph.write_s"] = ix.total("graph.write")
    m["graph.bytes_written"] = sum(info[i]["bytes"] for i in ix.named("graph.write"))
    m["graph.attach_s"] = percentile(
        [ix.dur[i] for i in ix.named("graph.attach", under="bench.arrival")], 50)
    m["graph.attach_calls"] = len(ix.named("graph.attach"))

    for fn in ("normalize_adjacency", "gcn_forward", "gcn_backward"):
        m["model.%s_s" % fn] = ix.total("model." + fn)
        m["model.%s_calls" % fn] = len(ix.named("model." + fn))
    epochs = sum(info[i]["epochs_run"] for i in ix.named("train.fit"))
    in_fit = (ix.named("model.gcn_forward", under="train.fit")
              + ix.named("model.gcn_backward", under="train.fit"))
    # each gcn_forward / gcn_backward call makes exactly one sparse product
    m["model.sparse_products_per_epoch"] = len(in_fit) / epochs if epochs else 0.0
    m["model.spmm_flops_per_epoch"] = (
        sum(2 * info[i]["nnz"] * info[i]["width"] for i in in_fit) / epochs if epochs else 0.0)
    m["model.save_checkpoint_s"] = ix.total("model.save_checkpoint")

    m["train.fit_s"] = ix.total("train.fit")
    m["train.epochs_run"] = epochs
    m["train.epoch_ms"] = 1000.0 * m["train.fit_s"] / epochs if epochs else 0.0
    m["train.loss_and_grads_self_s"] = float(sum(ix.self_time[i]
                                                 for i in ix.named("train.loss_and_grads")))
    for fn in ("infomax_loss", "consensus_loss", "supervised_loss", "adam_step"):
        m["train.%s_s" % fn] = ix.total("train." + fn)

    for kind in ("mlp", "single_gcn"):
        ids = ix.named("baselines." + kind)
        m["baselines.%s_s" % kind] = ix.total("baselines." + kind)
        m["baselines.%s_micro_f1" % kind] = info[ids[-1]]["micro_f1"] if ids else 0.0
    m["evaluate.metrics_s"] = ix.total("evaluate.metrics")
    m["evaluate.metrics_calls"] = len(ix.named("evaluate.metrics"))

    single = ix.named("pipeline.inductive_predict", under="bench.arrival")
    m["pipeline.inductive_predict_s"] = percentile([ix.dur[i] for i in single], 50)
    m["pipeline.inductive_predict_p90_s"] = percentile([ix.dur[i] for i in single], 90)
    pooled = ix.named("pipeline.pooled_probs", under="bench.arrival")
    m["pipeline.pooled_probs_self_s"] = percentile([ix.self_time[i] for i in pooled], 50)
    m["pipeline.rows_computed_per_arrival"] = percentile([info[i]["rows"] for i in pooled], 50)
    m["pipeline.batch_dependence"] = batch_dependence

    for c in CLI_COMMANDS:
        m["cli.%s.self_s" % c] = float(sum(ix.self_time[i] for i in ix.named("cli." + c)))
    for layer in LAYERS:
        m["%s.self_s" % layer] = float(sum(
            ix.self_time[i] for i, s in enumerate(spans) if s["name"].split(".")[0] == layer))
    m["trace.overhead_frac"] = overhead_frac
    m["trace.spans"] = len(spans)
    return {k: float(v) for k, v in m.items()}


def profile_shares(spans: list) -> dict:
    """The shares a cProfile of the seed claimed, as the traced pass measured them."""
    ix = SpanIndex(spans)

    def share(part, whole):
        return part / whole if whole else 0.0

    arrival = ix.total("pipeline.inductive_predict", under="bench.arrival")
    graph_cmd = ix.total("cli.graph")
    return {
        "gcn_forward_backward_of_fit": share(
            ix.total("model.gcn_forward", under="train.fit")
            + ix.total("model.gcn_backward", under="train.fit"), ix.total("train.fit")),
        "write_of_graph_command": share(ix.total("graph.write", under="cli.graph"), graph_cmd),
        "build_of_graph_command": share(ix.total("graph.build", under="cli.graph"), graph_cmd),
        "validate_of_build": share(ix.total("graph.validate", under="graph.build"),
                                   ix.total("graph.build")),
        "validate_of_arrival": share(ix.total("graph.validate", under="bench.arrival"), arrival),
        "normalize_adjacency_of_arrival": share(
            ix.total("model.normalize_adjacency", under="bench.arrival"), arrival),
    }
