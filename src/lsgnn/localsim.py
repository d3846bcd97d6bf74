"""Per-node local similarity: how much each node resembles its neighbors.

The per-node score is the mean pairwise similarity between a node's raw
features and each neighbor's.  It is the signal the model uses to decide,
node by node, how much to trust smoothed versus sharpened channels.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .graph import SparseGraph, _ratio, _row_norms, neighborhood_mean

__all__ = [
    "SIM_KINDS",
    "similarity",
    "edge_sim_values",
    "naive_localsim",
]

SIM_KINDS = ("cosine", "euclidean", "neg_sq_scalar")

# Floats per gathered operand when walking the edge set: a chunk holds
# _CHUNK // d entries (at least one), so each of its temporaries has at most
# this many floats whatever the graph size and the feature width d.
_CHUNK = 262144


def similarity(x: np.ndarray, y: np.ndarray, kind: str) -> np.ndarray:
    """Rowwise similarity between aligned (m, d) arrays.

    cosine returns 0 when either row has zero norm, so featureless nodes
    read as "no evidence" rather than propagating NaN.  neg_sq_scalar is
    defined for d = 1 only.
    """
    if x.shape != y.shape or x.ndim != 2:
        raise InputError(f"expected matching (m, d) arrays, got {x.shape} and {y.shape}")
    _check_kind(kind, x.shape[1])
    if kind == "cosine":
        return _ratio((x * y).sum(axis=1), _row_norms(x) * _row_norms(y))
    if kind == "euclidean":
        return -_row_norms(x - y)
    diff = (x[:, 0] - y[:, 0])
    return -(diff * diff)


def _check_kind(kind: str, d: int) -> None:
    """Reject an unknown kind, and neg_sq_scalar on features wider than 1."""
    if kind not in SIM_KINDS:
        raise InputError(f"similarity kind must be one of {SIM_KINDS}, got {kind!r}")
    if kind == "neg_sq_scalar" and d != 1:
        raise InputError(f"neg_sq_scalar requires 1-dimensional features, got d={d}")


def edge_sim_values(g: SparseGraph, x: np.ndarray, kind: str) -> np.ndarray:
    """Similarity for every directed adjacency entry, in CSR entry order.

    Walks the edge set in chunks of `_CHUNK` gathered floats, so the
    temporaries keep one size on any graph; chunking cannot change the
    result because each entry is computed independently.  The kind is
    checked before any chunk, so an edgeless graph rejects it too.  Cosine
    takes each node's norm once and multiplies the gathered rows in place;
    the values are bitwise those of `similarity`.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != g.num_nodes:
        raise InputError(f"features must be ({g.num_nodes}, d), got shape {x.shape}")
    _check_kind(kind, x.shape[1])
    rows = g.entry_rows()
    cols = g.col_indices
    norms = _row_norms(x) if kind == "cosine" else None
    out = np.empty(g.num_entries, dtype=np.float64)
    chunk = max(1, _CHUNK // max(1, x.shape[1]))
    for start in range(0, g.num_entries, chunk):
        stop = min(start + chunk, g.num_entries)
        r, c = rows[start:stop], cols[start:stop]
        if norms is None:
            out[start:stop] = similarity(x[r], x[c], kind)
        else:
            prod = x[r]
            prod *= x[c]
            out[start:stop] = _ratio(prod.sum(axis=1), norms[r] * norms[c])
    return out


def naive_localsim(g: SparseGraph, x: np.ndarray, kind: str = "cosine") -> np.ndarray:
    """Per-node mean similarity to neighbors, straight from raw features."""
    return neighborhood_mean(g, edge_sim_values(g, x, kind))
