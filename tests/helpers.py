"""Helpers shared by more than one test module."""

import numpy as np


def same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def dense_coefficients(g):
    """D^-1/2 (A+I) D^-1/2 built densely from the edge list, by another
    route than the engine's operator."""
    a = np.eye(g.num_nodes)
    lo, hi = g.edge_arrays()
    a[lo, hi] = a[hi, lo] = 1.0
    inv = 1.0 / np.sqrt(a.sum(axis=1))
    return a * inv[:, None] * inv[None, :]
