"""Shared helpers for the test suite. Import directly: from conftest import fd_grad."""
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
