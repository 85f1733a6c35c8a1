"""The three medplex workloads: set-up, timed passes, and the output checks.

Every workload drives medplex through `medplex.cli.run` and the public
`pipeline` functions, called as module attributes so a traced pass sees them.

Inputs: each workload makes one draw of the synthetic generator with
`SynthConfig` defaults apart from `n` (twice the rows it needs, seed
POOL_SEED), and the benchmark seed chooses which rows it uses. Every seed so
gets other patients from the same class geometry. A generator seed per
benchmark seed would change the class centroids, and with them graph
density at the synth thresholds by about ±15 % and the cost of every pass by
up to ±25 %: the seed, not the program, would set the timings. Training uses
`--preset synth` (epochs = patience = 400, so the run length is fixed) with
`--seed` set to the benchmark seed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

from medplex import cli, pipeline
from medplex import data as D
from medplex import evaluate as E
from medplex import graph as G
from medplex.clustering import load_manual_split
from medplex.model import load_checkpoint
from medplex.train import preset_config
from spans import percentile

POOL_SEED = 0
SETUPS = 5  # set-up is timed several times and its median reported


class CheckFailed(Exception):
    pass


def expect(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def digests(directory, names) -> dict:
    return {n: sha256(os.path.join(directory, n)) for n in names}


class Ops:
    """Operations attempted and the reasons any of them failed.

    While `tracer` is set, each operation is a root span named "bench.<label>"
    and checks run with the tracer paused, so spans cover only timed work.
    """

    def __init__(self):
        self.reasons: list[list] = []
        self.tracer = None

    def call(self, label: str, fn, *args):
        """Time one operation; returns (op id, result or None, seconds)."""
        self.reasons.append([])
        op = len(self.reasons) - 1
        span = self.tracer.open("bench." + label) if self.tracer else None
        start = time.perf_counter()
        failure = result = None
        try:
            result = fn(*args)
        except Exception:
            failure = traceback.format_exc(limit=3)
        finally:
            seconds = time.perf_counter() - start
            if span is not None:
                self.tracer.close(span)
        if failure:
            self.fail(op, label, failure)
        return op, result, seconds

    def check(self, op: int, label: str, fn, *args) -> None:
        """Run one output check; any exception marks the operation failed."""
        with self.tracer.paused() if self.tracer else contextlib.nullcontext():
            try:
                fn(*args)
            except Exception as exc:  # a check that cannot run is a failed check
                self.fail(op, label, "%s: %s" % (type(exc).__name__, exc))

    def fail(self, op: int, label: str, why: str) -> None:
        self.reasons[op].append("%s: %s" % (label, why))
        print("FAILED %s: %s" % (label, why), file=sys.stderr)

    @property
    def attempted(self) -> int:
        return len(self.reasons)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.reasons if r)


class OutputLog:
    """Output digests per seed, kept across runs of one source tree.

    The first run (or pass) of a seed records what it wrote; every later one
    must write the same bytes.
    """

    def __init__(self, path: str):
        self.path = path
        self.known = {}
        if os.path.exists(path):
            with open(path) as fh:
                self.known = json.load(fh)

    def same(self, key: str, found: dict) -> None:
        expected = self.known.setdefault(key, found)
        changed = sorted(n for n in found if expected.get(n) != found[n])
        expect(not changed, "%s differ from an earlier run of this seed: %s" % (key, changed))

    def save(self) -> None:
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        with open(self.path, "w") as fh:
            json.dump(self.known, fh, indent=1, sort_keys=True)


def check_cli(rc, out_manifest) -> None:
    """Exit code 0, and every digest in the manifest matches the file on disk."""
    expect(rc == 0, "exit code %r" % rc)
    with open(out_manifest) as fh:
        manifest = json.load(fh)
    for kind in ("inputs", "outputs"):
        for path, digest in manifest[kind].items():
            expect(sha256(path) == digest, "manifest digest differs for %s" % path)


def draw_rows(pool_n: int, seed: int, counts) -> list:
    """Row subsets of one fixed generator draw, chosen by the seed.

    Returns one (features, embeddings, labels) triple per count, on disjoint
    rows, each in generator order.
    """
    table, emb, labels, _ = D.generate_synthetic_cohort(D.SynthConfig(n=pool_n, seed=POOL_SEED))
    perm = np.random.default_rng(seed).permutation(pool_n)
    parts, start = [], 0
    for count in counts:
        idx = np.sort(perm[start:start + count])
        start += count
        ids = [table.row_ids[i] for i in idx]
        parts.append((
            D.FeatureTable(table.values[idx], list(table.column_names),
                           list(table.column_kinds), ids),
            D.EmbeddingTable(emb.values[idx], ids),
            D.LabelVector(labels.labels[idx], labels.mask[idx], labels.n_classes)))
    return parts


def write_cohort(directory, table, embeddings, labels) -> None:
    os.makedirs(directory, exist_ok=True)
    D.write_feature_csv(os.path.join(directory, "features.csv"), table)
    D.write_embedding_csv(os.path.join(directory, "embeddings.csv"), embeddings)
    D.write_label_csv(os.path.join(directory, "labels.csv"), labels, table.row_ids)


def load_cohort(directory):
    table = D.load_feature_csv(os.path.join(directory, "features.csv"))
    embeddings = D.load_embedding_csv(os.path.join(directory, "embeddings.csv"))
    labels, _ = D.load_label_csv(os.path.join(directory, "labels.csv"))
    return table, embeddings, labels


def timing(values) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    for p in (99.9, 99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            out["p%g" % p] = percentile(values, p)
            break
    return out


class Workload:
    SETUP_FILES: tuple = ()

    def __init__(self, seed: int, work: str, ops: Ops, outputs: OutputLog):
        self.seed = seed
        self.work = work
        self.ops = ops
        self.outputs = outputs
        self.setup_s: list = []
        self.pass_s: list = []
        self.command_s: list = []

    def setup(self) -> None:
        """Set up SETUPS times; each copy must hold the same bytes."""
        for k in range(SETUPS):
            d = os.path.join(self.work, "setup%d" % k)
            op, _, seconds = self.ops.call("set-up", self.setup_once, d)
            if self.ops.reasons[op]:
                raise RuntimeError("set-up failed: %s" % self.ops.reasons[op])
            self.setup_s.append(seconds)
            self.ops.check(op, "set-up", lambda: self.outputs.same(
                "setup", digests(d, self.SETUP_FILES)))
        self.dir = os.path.join(self.work, "setup0")

    def run_pass(self) -> float:
        """One timed pass; returns the summed time of its operations."""
        self.pass_s.append(self.timed_pass(os.path.join(self.work, "pass%d" % len(self.pass_s))))
        return self.pass_s[-1]

    def batch_dependence(self) -> float:
        """Largest gap between batch and alone probabilities; 0 without arrivals."""
        return 0.0

    def summary(self) -> dict:
        """End-to-end metrics (BENCHMARK.json names) of this run."""
        return {
            "setup_s": statistics.median(self.setup_s),
            "command_s": statistics.median(self.command_s),
            "pass_s": statistics.median(self.pass_s),
            "accuracy": self.accuracy(),
        }


COHORT_FILES = ("features.csv", "embeddings.csv", "labels.csv")


class TrainN1000(Workload):
    """`medplex train` on n = 1000, then both baselines on the same tables."""

    SETUP_FILES = COHORT_FILES

    def setup_once(self, d) -> None:
        (cohort,) = draw_rows(2000, self.seed, [1000])
        write_cohort(d, *cohort)
        self.tables = load_cohort(d)

    def setup(self) -> None:
        super().setup()
        self.cfg = preset_config("synth", seed=self.seed)
        self.baseline_s: list = []
        self.baseline_f1: dict = {}
        self.test_f1 = 0.0

    def timed_pass(self, out) -> float:
        argv = ["--quiet", "train", "--data", self.dir, "--preset", "synth",
                "--seed", str(self.seed), "--out", out]
        op, rc, train_s = self.ops.call("medplex train", cli.run, argv)
        self.command_s.append(train_s)
        self.ops.check(op, "medplex train", check_cli, rc, os.path.join(out, "manifest.json"))
        self.ops.check(op, "metrics.json", self.check_metrics, out)
        self.ops.check(op, "train outputs", lambda: self.outputs.same("train", digests(
            out, ("checkpoint.bin", "metrics.json", "train_report.json"))))
        base_s = 0.0
        for label, fn in (("mlp", pipeline.run_mlp_baseline),
                          ("single_gcn", pipeline.run_single_gcn_baseline)):
            bop, model, seconds = self.ops.call(label + " baseline", fn, *self.tables, self.cfg)
            base_s += seconds
            if model is not None:
                f1 = model.report["test_metrics"]["micro_f1"]
                self.baseline_f1[label] = f1
                self.ops.check(bop, label, lambda: self.outputs.same(label, {"micro_f1": repr(f1)}))
        self.baseline_s.append(base_s)
        return train_s + base_s

    def check_metrics(self, out) -> None:
        """metrics.json's test micro-F1 is what the saved checkpoint predicts."""
        with open(os.path.join(out, "metrics.json")) as fh:
            reported = json.load(fh)["metrics"]["micro_f1"]
        state, _ = load_checkpoint(os.path.join(out, "checkpoint.bin"))
        masked = pipeline.assign_masks(self.tables[2], self.cfg)
        test = masked.rows_with(D.TEST)
        pred = np.argmax(pipeline.transductive_probs(state)[test], axis=1)
        found = E.micro_f1(E.confusion_counts(pred, masked.labels[test], masked.n_classes))
        expect(found == reported, "metrics.json micro-F1 %r, checkpoint gives %r"
               % (reported, found))
        self.test_f1 = reported

    def accuracy(self) -> float:
        return self.test_f1

    def figures(self) -> dict:
        return {"train_s": timing(self.command_s), "baselines_s": timing(self.baseline_s),
                "test_micro_f1": self.test_f1, "baselines_micro_f1": self.baseline_f1}


class GraphN4000(Workload):
    """`medplex graph` on n = 4000: bulk build and edge-list writing."""

    SETUP_FILES = COHORT_FILES
    ORACLE_PAIRS = 1000  # per relation, recomputed one pair at a time

    def setup_once(self, d) -> None:
        (cohort,) = draw_rows(8000, self.seed, [4000])
        write_cohort(d, *cohort)

    def setup(self) -> None:
        super().setup()
        self.agreement = None

    def timed_pass(self, out) -> float:
        argv = ["--quiet", "graph", "--data", self.dir, "--preset", "synth",
                "--seed", str(self.seed), "--out", out]
        op, rc, seconds = self.ops.call("medplex graph", cli.run, argv)
        self.command_s.append(seconds)
        self.ops.check(op, "medplex graph", check_cli, rc, os.path.join(out, "manifest.json"))
        self.ops.check(op, "graph outputs", lambda: self.outputs.same("graph", digests(
            out, ("edges_r0.txt", "edges_r1.txt", "multiplex.json"))))
        if self.agreement is None:
            self.agreement = 0.0  # stays 0 unless the check gets through
            self.ops.check(op, "oracle", self.check_oracle, out)
        shutil.rmtree(out, ignore_errors=True)  # ~40 MB of edge lists
        return seconds

    def check_oracle(self, out) -> None:
        """A fixed sample of pairs, recomputed through graph.cosine_similarity."""
        with open(os.path.join(out, "multiplex.json")) as fh:
            manifest = json.load(fh)
        table = D.load_feature_csv(os.path.join(self.dir, "features.csv"))
        values, _ = D.normalize_columns(table)
        n = manifest["n_nodes"]
        rng = np.random.default_rng([self.seed, n])
        agree = total = 0
        for rel in manifest["relations"]:
            edges = np.fromfile(os.path.join(out, rel["file"]), dtype=np.int64, sep=" ")
            expect(edges.size == 2 * rel["n_edges"], "edge count differs from multiplex.json")
            i, j = edges[0::2], edges[1::2]
            expect(bool(np.all(i < j)), "edge with i >= j")
            keys = i * n + j
            expect(bool(np.all(np.diff(keys) > 0)), "edges not in row-major order or repeated")
            block = values.values[:, [values.column_index(c) for c in rel["columns"]]]
            a = rng.integers(0, n, size=self.ORACLE_PAIRS)
            b = rng.integers(0, n - 1, size=self.ORACLE_PAIRS)
            b = np.where(b >= a, b + 1, b)  # a != b
            for p, q in zip(np.minimum(a, b), np.maximum(a, b)):
                edge = G.cosine_similarity(block[p], block[q]) > rel["threshold"]
                at = np.searchsorted(keys, p * n + q)
                listed = bool(at < keys.size and keys[at] == p * n + q)
                agree += int(edge == listed)
                total += 1
        self.agreement = agree / total
        expect(agree == total, "%d of %d sampled pairs disagree with the oracle"
               % (total - agree, total))

    def accuracy(self) -> float:
        return self.agreement

    def figures(self) -> dict:
        return {"graph_s": timing(self.command_s), "oracle_agreement": self.agreement}


class InferN1000(Workload):
    """Score 100 held-out arrivals against a model trained on n = 1000.

    The arrivals are rows of the same generator draw as the training cohort.
    A cohort drawn with another seed has other class centroids: 200 arrivals
    drawn that way scored 0.52 against a model at 0.99 test micro-F1, so the
    accuracy measured nothing. Held-out rows of the same draw score 0.99-1.00.
    """

    SETUP_FILES = ("run/checkpoint.bin", "run/metrics.json", "run/train_report.json")

    def setup_once(self, d) -> None:
        cohort, (new_features, new_emb, new_labels) = draw_rows(2200, self.seed, [1000, 100])
        write_cohort(os.path.join(d, "cohort"), *cohort)
        D.write_feature_csv(os.path.join(d, "new_features.csv"), new_features)
        D.write_embedding_csv(os.path.join(d, "new_embeddings.csv"), new_emb)
        rc = cli.run(["--quiet", "train", "--data", os.path.join(d, "cohort"), "--preset", "synth",
                      "--seed", str(self.seed), "--epochs", "100", "--out", os.path.join(d, "run")])
        expect(rc == 0, "set-up training exited with %r" % rc)
        self.state, self.graph = self.load_run(os.path.join(d, "run"), os.path.join(d, "cohort"))
        feats = D.load_feature_csv(os.path.join(d, "new_features.csv"))
        embs = D.load_embedding_csv(os.path.join(d, "new_embeddings.csv"))
        self.new_ids = list(feats.row_ids)
        self.new_labels = new_labels.labels  # seen only by the benchmark
        self.alone = [(D.FeatureTable(feats.values[i:i + 1], list(feats.column_names),
                                      list(feats.column_kinds), [rid]),
                       D.EmbeddingTable(embs.values[i:i + 1], [rid]))
                      for i, rid in enumerate(self.new_ids)]

    @staticmethod
    def load_run(run, cohort):
        """The trained state and training graph, rebuilt as `medplex infer` does."""
        with open(os.path.join(run, "resolved_config.json")) as fh:
            thetas = json.load(fh)["thetas"]
        with open(os.path.join(run, "normalizers.json")) as fh:
            norms = json.load(fh)
        state, _ = load_checkpoint(os.path.join(run, "checkpoint.bin"))
        feat_norm = D.Normalizer.from_dict(norms["features"])
        emb_norm = D.Normalizer.from_dict(norms["embeddings"])
        table, emb, _ = load_cohort(cohort)
        partition = load_manual_split(os.path.join(run, "partition.json"), table)
        c_norm, _ = D.normalize_columns(table, feat_norm)
        z_norm, _ = D.normalize_embeddings(emb, emb_norm)
        graph = G.build_multiplex(c_norm, partition, thetas, z_norm,
                                  feat_normalizer=feat_norm, embed_normalizer=emb_norm)
        return state, graph

    def setup(self) -> None:
        super().setup()
        self.arrival_ms: list = []
        self.batch_probs = None
        self.gap = 0.0

    def timed_pass(self, out) -> float:
        timed = 0.0
        alone = []
        for i, (ft, et) in enumerate(self.alone):
            op, result, seconds = self.ops.call("arrival", pipeline.inductive_predict,
                                                self.state, self.graph, ft, et)
            timed += seconds
            self.arrival_ms.append(1000.0 * seconds)
            self.ops.check(op, "arrival %d" % i, self.check_alone, result)
            alone.append(None if result is None else result[0][0])
        for b in range(2):  # the second batch must write the same bytes
            argv = ["--quiet", "infer", "--run", os.path.join(self.dir, "run"),
                    "--data", os.path.join(self.dir, "cohort"),
                    "--new-features", os.path.join(self.dir, "new_features.csv"),
                    "--new-embeddings", os.path.join(self.dir, "new_embeddings.csv"),
                    "--out", out + "_%d" % b]
            op, rc, seconds = self.ops.call("medplex infer", cli.run, argv)
            timed += seconds
            self.command_s.append(seconds)
            self.ops.check(op, "medplex infer", check_cli, rc,
                           os.path.join(out + "_%d" % b, "manifest.json"))
            self.ops.check(op, "predictions.csv", self.check_predictions, out + "_%d" % b)
            self.ops.check(op, "infer outputs", lambda: self.outputs.same(
                "infer", digests(out + "_%d" % b, ("predictions.csv",))))
        if self.batch_probs is not None and all(p is not None for p in alone):
            self.gap = max(self.gap, float(np.max(np.abs(self.batch_probs - np.array(alone)))))
        return timed

    def check_alone(self, result) -> None:
        probs = result[0]
        expect(probs.shape[0] == 1, "one arrival gave %d rows" % probs.shape[0])
        expect(bool(np.all(np.isfinite(probs))), "non-finite probabilities")
        expect(abs(probs.sum() - 1.0) < 1e-9, "probabilities sum to %r" % probs.sum())

    def check_predictions(self, out) -> None:
        """100 rows in input order, argmax labels, probabilities summing to 1."""
        with open(os.path.join(out, "predictions.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        expect(header[:2] == ["id", "predicted_class"], "header %r" % header)
        expect([r[0] for r in body] == self.new_ids, "rows not in input order")
        probs = np.array([[float(v) for v in r[2:]] for r in body])
        expect(bool(np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-9)), "rows do not sum to 1")
        expect([int(r[1]) for r in body] == list(np.argmax(probs, axis=1)),
               "predicted_class is not the argmax")
        self.batch_probs = probs

    def accuracy(self) -> float:
        if self.batch_probs is None:
            return 0.0
        return float(np.mean(np.argmax(self.batch_probs, axis=1) == self.new_labels))

    def batch_dependence(self) -> float:
        """Largest gap between an arrival's probabilities in the batch and alone."""
        return self.gap

    def figures(self) -> dict:
        return {"infer_ms": timing(self.arrival_ms), "infer_batch_s": timing(self.command_s),
                "inductive_acc": self.accuracy(), "infer_batch_dependence": self.gap}


WORKLOADS = {"train_n1000": TrainN1000, "graph_n4000": GraphN4000, "infer_n1000": InferN1000}
