"""End-to-end acceptance gate. Each test prints one PASS/FAIL line; run with
pytest -s to see them all. The heavyweight cohort runs are shared between the
trend tests through a module-level cache, so order does not matter but the
first of them pays the training cost."""

import csv
import hashlib
import itertools
import json
import math
import statistics
import time

import numpy as np

from conftest import fd_grad, max_rel_err
from medplex.cli import run as cli_run
from medplex.clustering import _lloyd, kmeans_columns, load_manual_split
from medplex.data import (
    FeatureTable,
    LabelVector,
    SynthConfig,
    empty_embeddings,
    generate_synthetic_cohort,
    normalize_columns,
    write_truth_json,
)
from medplex.evaluate import accuracy, confusion_counts, macro_f1, micro_f1
from medplex.graph import (
    RelationGraph,
    attach_new_nodes,
    build_multiplex,
    build_relation_graph,
    pairwise_class_similarity,
)
from medplex.model import (
    ModelDims,
    ModelState,
    StepArrays,
    attentive_pool,
    attentive_pool_backward,
    classify,
    classify_backward,
    discriminate,
    discriminate_backward,
    gcn_backward,
    gcn_forward,
    normalize_adjacency,
    propagate,
    readout_summary,
    summary_backward,
)
from medplex.pipeline import (
    run_experiment,
    run_mlp_baseline,
    run_single_gcn_baseline,
)
from medplex.train import (
    TrainingConfig,
    consensus_loss,
    infomax_backward,
    infomax_loss,
    loss_and_grads,
    micle_loss,
    preset_config,
    supervised_loss,
)


def verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = "acceptance %02d %s: %s" % (num, label, "PASS" if ok else "FAIL")
    if detail:
        line += "  [%s]" % detail
    print(line)
    assert ok, line


# ------------------------------------------------------------------ shared runs

COHORT5 = dict(n=300, n_classes=3, n_types=2, cols_per_type=8,
               separations=(1.8, 1.2), noise_std=1.0,
               embed_dim=32, embed_separation=0.0, embed_noise_std=1.0,
               class_groups=[[[0], [1, 2]], [[0, 1], [2]]])

_trend_cache: dict = {}


def trend_micros(labeled_frac: float, seed: int):
    """Test micro-F1 for (multiplex, collapsed gcn, mlp) on the shared cohort."""
    key = (labeled_frac, seed)
    if key not in _trend_cache:
        scfg = SynthConfig(seed=seed, **COHORT5)
        table, embeddings, labels, _ = generate_synthetic_cohort(scfg)
        cfg = preset_config("synth", seed=seed, labeled_frac=labeled_frac)
        het = run_experiment(table, embeddings, labels, cfg)
        gcn = run_single_gcn_baseline(table, embeddings, labels, cfg)
        mlp = run_mlp_baseline(table, embeddings, labels, cfg)
        _trend_cache[key] = (
            het.report.test_metrics["micro_f1"],
            gcn.report["test_metrics"]["micro_f1"],
            mlp.report["test_metrics"]["micro_f1"],
        )
    return _trend_cache[key]


# ------------------------------------------------------------------ 1 gradients


def test_01_gradient_suite():
    started = time.monotonic()
    rng = np.random.default_rng(0)
    failures = []

    def check(name, analytic, numeric):
        err = max_rel_err(np.asarray(analytic).ravel(), np.asarray(numeric).ravel())
        if err > 1e-4:
            failures.append("%s rel err %.2e" % (name, err))

    # graph convolution
    n, f, d = 7, 5, 4
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.shape[0]) < 0.5
    op = normalize_adjacency(RelationGraph(n=n, edges=np.stack([iu[keep], ju[keep]], 1)))
    x = rng.normal(size=(n, f))
    w = rng.normal(size=(f, d))
    r = rng.normal(size=(n, d))
    _, cache = gcn_forward(op, x, w)
    dw, dx = gcn_backward(cache, r)
    check("gcn/dw", dw, fd_grad(lambda v: float(np.sum(gcn_forward(op, x, v.reshape(f, d))[0] * r)), w.ravel()))
    check("gcn/dx", dx, fd_grad(lambda v: float(np.sum(gcn_forward(op, v.reshape(n, f), w)[0] * r)), x.ravel()))

    # readout
    h = rng.normal(size=(n, d))
    rv = rng.normal(size=d)
    _, scache = readout_summary(h)
    check("summary/dh", summary_backward(scache, rv),
          fd_grad(lambda v: float(np.dot(readout_summary(v.reshape(n, d))[0], rv)), h.ravel()))

    # discriminator
    s = rng.normal(size=d)
    m = rng.normal(size=(d, d))
    rn = rng.normal(size=n)
    _, dcache = discriminate(h, s, m)
    dh, ds, dm = discriminate_backward(dcache, rn)
    check("disc/dh", dh, fd_grad(lambda v: float(np.dot(discriminate(v.reshape(n, d), s, m)[0], rn)), h.ravel()))
    check("disc/ds", ds, fd_grad(lambda v: float(np.dot(discriminate(h, v, m)[0], rn)), s))
    check("disc/dm", dm, fd_grad(lambda v: float(np.dot(discriminate(h, s, v.reshape(d, d))[0], rn)), m.ravel()))

    # attention pooling
    hs = [rng.normal(size=(n, d)) for _ in range(3)]
    logits = rng.normal(size=3)
    rm = rng.normal(size=(n, d))
    _, _, pcache = attentive_pool(hs, logits)
    dhs, dlogits = attentive_pool_backward(pcache, rm)
    check("pool/dlogits", dlogits,
          fd_grad(lambda v: float(np.sum(attentive_pool(hs, v)[0] * rm)), logits))
    for j in range(3):
        def fpool(v, j=j):
            trial = [q.copy() for q in hs]
            trial[j] = v.reshape(n, d)
            return float(np.sum(attentive_pool(trial, logits)[0] * rm))
        check("pool/dh%d" % j, dhs[j], fd_grad(fpool, hs[j].ravel()))

    # classifier head
    c = 3
    wc = rng.normal(size=(d, c))
    bc = rng.normal(size=c)
    rc = rng.normal(size=(n, c))
    _, ccache = classify(h, wc, bc)
    do, dwc, dbc = classify_backward(ccache, rc)
    check("cls/do", do, fd_grad(lambda v: float(np.sum(classify(v.reshape(n, d), wc, bc)[0] * rc)), h.ravel()))
    check("cls/dw", dwc, fd_grad(lambda v: float(np.sum(classify(h, v.reshape(d, c), bc)[0] * rc)), wc.ravel()))
    check("cls/db", dbc, fd_grad(lambda v: float(np.sum(classify(h, wc, v)[0] * rc)), bc))

    # infomax and consensus losses
    ht = rng.normal(size=(n, d))
    _, icache = infomax_loss(h, ht, s, m)
    ih, iht, isv, im = infomax_backward(icache)
    check("infomax/dh", ih, fd_grad(lambda v: infomax_loss(v.reshape(n, d), ht, s, m)[0], h.ravel()))
    check("infomax/dht", iht, fd_grad(lambda v: infomax_loss(h, v.reshape(n, d), s, m)[0], ht.ravel()))
    check("infomax/ds", isv, fd_grad(lambda v: infomax_loss(h, ht, v, m)[0], s))
    check("infomax/dm", im, fd_grad(lambda v: infomax_loss(h, ht, s, v.reshape(d, d))[0], m.ravel()))

    o = rng.normal(size=(n, d))
    p = rng.normal(size=(n, d))
    pt = rng.normal(size=(n, d))
    _, do2, dp, dpt = consensus_loss(o, p, pt)
    check("consensus/do", do2, fd_grad(lambda v: consensus_loss(v.reshape(n, d), p, pt)[0], o.ravel()))
    check("consensus/dp", dp, fd_grad(lambda v: consensus_loss(o, v.reshape(n, d), pt)[0], p.ravel()))
    check("consensus/dpt", dpt, fd_grad(lambda v: consensus_loss(o, p, v.reshape(n, d))[0], pt.ravel()))

    # full objective on the pinned instance size
    n2, f2, d2, r2, c2 = 12, 8, 4, 2, 3
    cfg = TrainingConfig(learning_rate=0.01, embed_dim=d2, n_relations=r2,
                         thetas=(0.5, 0.5), alpha=0.7, beta=0.9, gamma=0.02)
    state = ModelState(ModelDims(n2, f2, d2, r2, c2), seed=1)
    ops = []
    for _ in range(r2):
        iu2, ju2 = np.triu_indices(n2, k=1)
        keep2 = rng.random(iu2.shape[0]) < 0.4
        ops.append(normalize_adjacency(
            RelationGraph(n=n2, edges=np.stack([iu2[keep2], ju2[keep2]], 1))))
    x2 = rng.normal(size=(n2, f2))
    mask = np.array([0] * 6 + [1, 1] + [2, 2] + [3, 3], dtype=np.int8)
    labels = LabelVector(rng.integers(0, c2, size=n2), mask, c2)
    perm = rng.permutation(n2)
    ax2 = [propagate(op, x2) for op in ops]
    loss_and_grads(state, ops, x2, labels, cfg, perm, ax2, StepArrays(state))
    analytic = np.concatenate([state.grads[k].ravel() for k in state.param_order])

    def f_total(v):
        probe = ModelState(ModelDims(n2, f2, d2, r2, c2), seed=1)
        probe.unflatten(v)
        return loss_and_grads(probe, ops, x2, labels, cfg, perm, ax2,
                              StepArrays(probe)).total

    numeric = fd_grad(f_total, state.flatten())
    check("objective", analytic, numeric)

    elapsed = time.monotonic() - started
    ok = not failures and elapsed <= 30.0
    verdict(1, "gradient suite", ok,
            "; ".join(failures) if failures else "%.1fs" % elapsed)


# ------------------------------------------------------------------ 2 metrics


def test_02_metric_oracle():
    started = time.monotonic()
    problems = []
    cc = confusion_counts([0, 0, 1], [0, 1, 1], 2)
    if macro_f1(cc) != 0.75:
        problems.append("macro 0.75 case got %r" % macro_f1(cc))
    if micro_f1(cc) != 2.0 / 3.0:
        problems.append("micro 2/3 case got %r" % micro_f1(cc))
    cc = confusion_counts([0, 0, 0, 0], [0, 0, 1, 1], 2)
    if macro_f1(cc) != 1.0 / 3.0:
        problems.append("macro 1/3 case got %r" % macro_f1(cc))
    if micro_f1(cc) != 0.5:
        problems.append("micro 0.5 case got %r" % micro_f1(cc))

    rng = np.random.default_rng(2)
    mismatches = 0
    for _ in range(1000):
        c = int(rng.integers(2, 6))
        n = int(rng.integers(1, 60))
        cc = confusion_counts(rng.integers(0, c, size=n), rng.integers(0, c, size=n), c)
        if micro_f1(cc) != accuracy(cc):
            mismatches += 1
    if mismatches:
        problems.append("%d micro!=accuracy" % mismatches)

    elapsed = time.monotonic() - started
    ok = not problems and elapsed <= 5.0
    verdict(2, "metric oracle", ok,
            "; ".join(problems) if problems else "%.1fs" % elapsed)


# ------------------------------------------------------------------ 3 graphs


def test_03_graph_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(3)
    build_bad = attach_bad = mono_bad = 0
    for _ in range(100):
        n = int(rng.integers(4, 41))
        m = int(rng.integers(2, 7))
        values = rng.normal(size=(n, m))
        theta = float(rng.uniform(0.05, 0.95))

        norms = np.linalg.norm(values, axis=1)
        sims = np.clip(values @ values.T / np.outer(norms, norms), -1.0, 1.0)
        expected = {(i, j) for i in range(n) for j in range(i + 1, n)
                    if sims[i, j] > theta}
        g = build_relation_graph(values, theta)
        if g.edge_set() != expected:
            build_bad += 1

        tighter = build_relation_graph(values, min(theta + 0.2, 0.99))
        if not tighter.edge_set() <= g.edge_set():
            mono_bad += 1

        # attach three held-out rows through the full multiplex path
        n_old = n - 3
        names = ["c%d" % j for j in range(m)]
        old = FeatureTable(values=values[:n_old], column_names=names,
                           column_kinds=["numeric"] * m,
                           row_ids=["r%03d" % i for i in range(n_old)])
        new = FeatureTable(values=values[n_old:], column_names=names,
                           column_kinds=["numeric"] * m,
                           row_ids=["x%03d" % i for i in range(3)])
        c_norm, feat_norm = normalize_columns(old)
        partition = kmeans_columns(c_norm, 1, restarts=1, seed=0)
        graph = build_multiplex(c_norm, partition, (theta,),
                                empty_embeddings(old.row_ids),
                                feat_normalizer=feat_norm)
        extended = attach_new_nodes(graph, new, empty_embeddings(new.row_ids))
        new_norm, _ = normalize_columns(new, feat_norm)
        a = c_norm.values
        b = new_norm.values
        na = np.linalg.norm(a, axis=1)
        nb = np.linalg.norm(b, axis=1)
        na = np.where(na > 0, na, 1.0)
        nb = np.where(nb > 0, nb, 1.0)
        cross = np.clip((a / na[:, None]) @ (b / nb[:, None]).T, -1.0, 1.0)
        want = set(graph.relations[0].edge_set())
        for i in range(n_old):
            for j in range(3):
                if cross[i, j] > theta:
                    want.add((i, n_old + j))
        if extended.relations[0].edge_set() != want:
            attach_bad += 1

    elapsed = time.monotonic() - started
    ok = build_bad == 0 and attach_bad == 0 and mono_bad == 0 and elapsed <= 10.0
    verdict(3, "graph oracle", ok,
            "build %d/100 attach %d/100 monotone %d/100 bad, %.1fs"
            % (build_bad, attach_bad, mono_bad, elapsed))


# ------------------------------------------------------------------ 4 k-means


def best_bipartition_wcss(points):
    m = points.shape[0]
    best = math.inf
    for bits in range(1, 2 ** m - 1):
        groups = ([i for i in range(m) if bits >> i & 1],
                  [i for i in range(m) if not bits >> i & 1])
        w = 0.0
        for group in groups:
            g = points[group]
            w += float(((g - g.mean(axis=0)) ** 2).sum())
        best = min(best, w)
    return best


def test_04_kmeans_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(4)
    hits = 0
    monotone = True
    for trial in range(50):
        n = int(rng.integers(10, 25))
        if trial % 2 == 0:
            base = rng.normal(size=(2, n))
            cols = np.vstack([base[j % 2] + 0.3 * rng.normal(size=n) for j in range(6)]).T
        else:
            cols = rng.normal(size=(n, 6))
        table = FeatureTable(values=cols, column_names=["c%d" % j for j in range(6)],
                             column_kinds=["numeric"] * 6,
                             row_ids=["r%03d" % i for i in range(n)])
        part = kmeans_columns(table, 2, restarts=20, seed=trial)
        optimum = best_bipartition_wcss(cols.T)
        if part.wcss <= optimum + 1e-9:
            hits += 1
        for seed in range(3):
            _, _, history = _lloyd(cols.T.copy(), 2, np.random.default_rng(seed), 100)
            diffs = np.diff(np.asarray(history))
            if (diffs > 1e-9).any():
                monotone = False

    elapsed = time.monotonic() - started
    ok = hits >= 48 and monotone and elapsed <= 30.0
    verdict(4, "k-means oracle", ok,
            "%d/50 optimal, monotone=%s, %.1fs" % (hits, monotone, elapsed))


# ------------------------------------------------------------------ 5 trend


def test_05_end_to_end_ordering():
    started = time.monotonic()
    per_model = {"het": [], "gcn": [], "mlp": []}
    for seed in range(5):
        het, gcn, mlp = trend_micros(0.6, seed)
        per_model["het"].append(het)
        per_model["gcn"].append(gcn)
        per_model["mlp"].append(mlp)
    med = {k: statistics.median(v) for k, v in per_model.items()}
    ok = (med["het"] >= 0.85
          and med["het"] >= med["gcn"] + 0.02
          and med["gcn"] >= med["mlp"] + 0.02)
    elapsed = time.monotonic() - started
    ok = ok and elapsed <= 180.0
    verdict(5, "end-to-end ordering", ok,
            "medians het %.4f gcn %.4f mlp %.4f, %.0fs"
            % (med["het"], med["gcn"], med["mlp"], elapsed))


# ------------------------------------------------------------------ 6 scarcity


def test_06_label_scarcity():
    started = time.monotonic()
    gaps = {0.1: [], 0.6: []}
    for frac in (0.1, 0.6):
        for seed in range(5):
            het, _, mlp = trend_micros(frac, seed)
            gaps[frac].append(het - mlp)
    scarce = statistics.median(gaps[0.1])
    rich = statistics.median(gaps[0.6])
    elapsed = time.monotonic() - started
    ok = scarce > rich and elapsed <= 300.0
    verdict(6, "label scarcity", ok,
            "gap at 10%% labels %.4f vs 60%% labels %.4f, %.0fs"
            % (scarce, rich, elapsed))


# ------------------------------------------------------------------ 7 attention


def test_07_attention_dominance(tmp_path):
    started = time.monotonic()
    wins = 0
    sums_ok = True
    weights_seen = []
    for seed in range(5):
        scfg = SynthConfig(n=300, n_classes=3, n_types=2, cols_per_type=8,
                           separations=(1.8, 0.0), noise_std=1.0,
                           embed_dim=32, embed_separation=0.0, embed_noise_std=1.0,
                           class_groups=[[[0], [1], [2]], [[0, 1, 2]]], seed=seed)
        table, embeddings, labels, truth = generate_synthetic_cohort(scfg)
        truth_path = tmp_path / ("truth_%d.json" % seed)
        write_truth_json(truth_path, truth)
        partition = load_manual_split(truth_path, table)
        cfg = preset_config("synth", thetas=(0.8, 0.15), beta=1.0, seed=seed)
        result = run_experiment(table, embeddings, labels, cfg, partition=partition)
        w = result.report.att_weights
        weights_seen.append(w[0])
        if abs(sum(w) - 1.0) > 1e-9:
            sums_ok = False
        if w[0] > 1.0 / len(w):
            wins += 1
    elapsed = time.monotonic() - started
    ok = wins >= 4 and sums_ok
    verdict(7, "attention dominance", ok,
            "informative weight won %d/5 (%s), sums_ok=%s, %.0fs"
            % (wins, " ".join("%.3f" % v for v in weights_seen), sums_ok, elapsed))


# ------------------------------------------------------------------ 8 similarity


def test_08_class_similarity_structure():
    started = time.monotonic()
    all_dominant = True
    worst = math.inf
    for seed in range(5):
        scfg = SynthConfig(n=300, n_classes=3, n_types=2, cols_per_type=8,
                           separations=(2.0, 2.0), noise_std=1.0,
                           embed_dim=0, embed_separation=0.0, embed_noise_std=1.0,
                           seed=seed)
        table, _, labels, truth = generate_synthetic_cohort(scfg)
        c_norm, _ = normalize_columns(table)
        name_to_idx = {nm: j for j, nm in enumerate(c_norm.column_names)}
        for t in range(2):
            cols = [name_to_idx[nm] for nm, tt in truth.items() if tt == t]
            sim = pairwise_class_similarity(c_norm, labels.labels, columns=cols)
            for i in range(sim.shape[0]):
                margin = sim[i, i] - max(sim[i, j] for j in range(sim.shape[1]) if j != i)
                worst = min(worst, margin)
                if margin <= 0:
                    all_dominant = False
    elapsed = time.monotonic() - started
    verdict(8, "class-similarity structure", all_dominant,
            "worst diagonal margin %.4f over 5 seeds x 2 types, %.1fs"
            % (worst, elapsed))


# ------------------------------------------------------------------ 9 contrastive


def test_09_contrastive_closed_forms():
    problems = []
    z = np.tile(np.array([[1.0, 2.0, 3.0]]), (2, 1))
    ln3 = micle_loss(z, z.copy(), tau=0.5)
    if abs(ln3 - math.log(3.0)) > 1e-9:
        problems.append("identical-views case %r" % ln3)
    sep = micle_loss(np.eye(3) * 4.0, np.eye(3) * 8.0, tau=0.1)
    if not 0.0 <= sep < 1e-3:
        problems.append("separated case %r" % sep)
    rng = np.random.default_rng(9)
    z1 = rng.normal(size=(4, 3))
    z2 = rng.normal(size=(4, 3))
    base = micle_loss(z1, z2, tau=0.3)
    scaled = micle_loss(z1 * rng.uniform(0.1, 9.0, size=(4, 1)),
                        z2 * rng.uniform(0.1, 9.0, size=(4, 1)), tau=0.3)
    if abs(base - scaled) > 1e-9:
        problems.append("rescale drift %r" % abs(base - scaled))
    verdict(9, "contrastive closed forms", not problems, "; ".join(problems))


# ------------------------------------------------------------------ 10 determinism


def sha256_of(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_10_cli_determinism(tmp_path):
    started = time.monotonic()
    scfg = {"n": 45, "n_classes": 2, "n_types": 2, "cols_per_type": 4,
            "separations": [2.0, 2.0], "noise_std": 1.0, "embed_dim": 4,
            "embed_separation": 1.0, "embed_noise_std": 1.0, "seed": 0}
    scfg_path = tmp_path / "synth.json"
    scfg_path.write_text(json.dumps(scfg))
    data = tmp_path / "cohort"
    assert cli_run(["--quiet", "synth", "--out", str(data),
                    "--config", str(scfg_path)]) == 0
    # the synth preset with patience 0: this cohort scores every validation
    # row right at epoch 7, which would stop the run inside its first block
    # of corrupted-view products; all 30 epochs take three
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(preset_config("synth", patience=0).to_json_dict()))

    digests = []
    for attempt in ("one", "two"):
        rundir = tmp_path / ("run_" + attempt)
        assert cli_run(["--quiet", "train", "--data", str(data), "--config", str(cfg_path),
                        "--epochs", "30", "--out", str(rundir)]) == 0
        eval_path = tmp_path / ("eval_%s.json" % attempt)
        assert cli_run(["--quiet", "eval", "--run", str(rundir), "--data", str(data),
                        "--split", "test", "--out", str(eval_path)]) == 0
        digests.append({
            "metrics": sha256_of(rundir / "metrics.json"),
            "report": sha256_of(rundir / "train_report.json"),
            "checkpoint": sha256_of(rundir / "checkpoint.bin"),
            "eval": sha256_of(eval_path),
        })
    ok = digests[0] == digests[1]
    elapsed = time.monotonic() - started
    verdict(10, "pipeline determinism", ok,
            "metrics/report/checkpoint/eval digests %s, %.0fs"
            % ("match" if ok else "DIFFER", elapsed))
