"""medplex benchmark: one workload, end-to-end or traced, in this process.

    python3 perfbench/run.py --workload train_n1000 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; it imports medplex from ./src and
builds nothing. Inputs come from --seed alone. The run sets up its inputs
several times, repeats timed passes of the workload until --seconds have
passed (at least one), and checks every output. With --trace 1 it then makes
one more pass with spans around medplex's public functions, and reports
per-layer metrics and the tracing overhead instead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics, or with --trace 1 the per-layer ones). The
lines before it give the run context and the figures under the names the
workloads were designed around. Scratch files go under .perfbench/work and
are removed; a results file (with the spans of a traced run) is kept under
.perfbench/results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("train_n1000", "graph_n4000", "infer_n1000"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit():
    """HEAD of a git checkout at ROOT, read from .git; None elsewhere."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "medplex")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def run_context(env_threads: dict) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "thread_env_given": env_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def metrics_of(values: dict, listed: list) -> dict:
    """Every metric BENCHMARK.json lists, by name, with its unit."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def end_to_end(wl, ops) -> dict:
    values = wl.summary()
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["ok_frac"] = (ops.attempted - ops.failed) / ops.attempted
    return values


def traced_pass(wl, ops, view: dict):
    """One more pass with spans; returns (per-layer values, spans)."""
    import spans as T

    tracer = T.Tracer()
    tracer.install()
    ops.tracer = tracer
    try:
        traced_s = wl.run_pass()
    finally:
        ops.tracer = None
        tracer.uninstall()
    untraced_s = statistics.median(wl.pass_s[:-1])
    values = T.per_layer(tracer.spans, (traced_s - untraced_s) / untraced_s,
                         wl.batch_dependence())
    view["exact_counts"] = {name: values[name] for name in T.COUNTS}
    view["profile_shares"] = T.profile_shares(tracer.spans)
    view["traced_pass_s"] = traced_s
    view["untraced_pass_s"] = untraced_s
    return values, tracer.spans


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "medplex", "__init__.py")):
        print("no medplex sources under %s; run from a source checkout" % SRC, file=sys.stderr)
        return 2
    # one process, one BLAS thread: steadier on a shared box and never more
    # threads than cores. Must be set before numpy loads.
    env_threads = {k: os.environ.get(k) for k in THREAD_VARS}
    for k in THREAD_VARS:
        os.environ[k] = BLAS_THREADS
    sys.path.insert(0, SRC)

    import medplex
    if os.path.dirname(os.path.abspath(medplex.__file__)) != os.path.join(SRC, "medplex"):
        print("imported medplex from %s, not from this checkout" % medplex.__file__,
              file=sys.stderr)
        return 2
    import workloads as W

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    context = run_context(env_threads)
    work = os.path.join(ROOT, ".perfbench", "work",
                        "%s-s%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        ops = W.Ops()
        outputs = W.OutputLog(os.path.join(
            ROOT, ".perfbench", "outputs", "%s-numpy%s-%s-s%d.json"
            % (context["source_sha256"][:16], context["numpy"], args.workload, args.seed)))
        wl = W.WORKLOADS[args.workload](args.seed, work, ops, outputs)
        wl.setup()
        start = time.perf_counter()
        while not wl.pass_s or time.perf_counter() - start < args.seconds:
            wl.run_pass()
        view = wl.figures()
        if args.trace:
            values, spans = traced_pass(wl, ops, view)
        else:
            values, spans = end_to_end(wl, ops), None
        metrics = metrics_of(values, listed)
        view["failed_frac"] = ops.failed / ops.attempted
        view["setup_s"] = W.timing(wl.setup_s)
        view["passes"] = len(wl.pass_s)
        outputs.save()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed,
              "metrics": metrics}
    results_dir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(results_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(results_dir, "%s-s%d-trace%d-%s.json"
                           % (args.workload, args.seed, args.trace, stamp)), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "context": context, "figures": view, "result": result,
                   "failures": [r for r in ops.reasons if r], "spans": spans}, fh)
    print("context " + json.dumps(context, sort_keys=True))
    print("figures " + json.dumps(view, sort_keys=True, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
