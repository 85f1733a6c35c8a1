"""Shared helpers for the test suite. Import directly: from conftest import fd_grad."""
import os
import subprocess
import sys

import numpy as np


def fd_grad(f, x, eps=1e-5):
    """Central-difference gradient of a scalar function at a flat vector."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (f(xp) - f(xm)) / (2.0 * eps)
    return g


def max_rel_err(analytic, numeric, floor=1e-6):
    """Worst per-component relative error between two gradient vectors."""
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    numeric = np.asarray(numeric, dtype=np.float64).ravel()
    assert analytic.shape == numeric.shape
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / scale))


def random_graph(rng, n, p):
    """A relation graph on n nodes with each pair an edge with probability p."""
    from medplex.graph import RelationGraph

    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.shape[0]) < p
    return RelationGraph(n=n, edges=np.stack([iu[keep], ju[keep]], axis=1))


class CountingOp:
    """A graph operator (CSR or packed) that records the width of every
    product op @ M."""

    def __init__(self, op):
        self.op = op
        self.shape = op.shape
        self.nnz = op.nnz
        self.widths = []

    def __matmul__(self, other):
        self.widths.append(other.shape[1] if other.ndim == 2 else 1)
        return self.op @ other


def stdout_at_blas_threads(script, counts=("1", "2")):
    """The stripped stdout of `python -c script` run with each BLAS thread
    count. The count must be set before numpy loads, hence one process each."""
    import medplex

    src = os.path.dirname(os.path.dirname(os.path.abspath(medplex.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outs = []
    for threads in counts:
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout.strip())
    return outs
