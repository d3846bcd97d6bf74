"""Undirected graph container and the spectral filters built from it.

Graphs are stored once in CSR form with sorted column indices, so every
matrix product over them is deterministic: the same entries are visited in
the same order on every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import InputError

__all__ = [
    "SparseGraph",
    "FilterPair",
    "HomophilyReport",
    "build_graph",
    "sym_norm_adj",
    "self_loop_adj",
    "enhanced_filters",
    "complement_filter",
    "node_homophily",
    "read_edge_list",
    "write_edge_list",
]


@dataclass(eq=False)
class SparseGraph:
    """Simple undirected graph: CSR adjacency pattern plus degree vector.

    Each undirected edge appears as two directed entries.  `loops_dropped`
    and `duplicates_dropped` record how much cleaning `build_graph` did.
    """

    num_nodes: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    degrees: np.ndarray
    loops_dropped: int = 0
    duplicates_dropped: int = 0

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.col_indices.shape[0]) // 2

    @property
    def num_entries(self) -> int:
        """Number of directed adjacency entries (2 * num_edges)."""
        return int(self.col_indices.shape[0])

    def neighbors(self, i: int) -> np.ndarray:
        return self.col_indices[self.row_offsets[i] : self.row_offsets[i + 1]]

    def entry_rows(self) -> np.ndarray:
        """Row index of every directed entry, aligned with col_indices."""
        return np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees)

    def edge_array(self) -> np.ndarray:
        """Undirected edges as an (m, 2) array with i < j, sorted."""
        rows = self.entry_rows()
        keep = rows < self.col_indices
        return np.column_stack([rows[keep], self.col_indices[keep]])


@dataclass(eq=False)
class FilterPair:
    """Low- and high-pass filters sharing one sparsity pattern.

    The pair always sums to the identity entrywise, so a model mixing the
    two channels can trade smoothing against sharpening without losing
    information.
    """

    beta: float
    low: sp.csr_array
    high: sp.csr_array


@dataclass(eq=False)
class HomophilyReport:
    """Per-node fraction of same-label neighbors plus the graph-level mean.

    Isolated nodes get per-node value 0 and are excluded from the mean.
    """

    per_node: np.ndarray
    graph_level: float


def build_graph(edges: Iterable[Sequence[int]] | np.ndarray, num_nodes: int) -> SparseGraph:
    """Build a simple undirected graph from an iterable of (i, j) pairs.

    Self loops are dropped, duplicate edges (in either orientation) are
    collapsed, and both cleaning counts are recorded on the result.  Node
    ids outside [0, num_nodes) raise InputError.
    """
    if num_nodes <= 0:
        raise InputError(f"num_nodes must be positive, got {num_nodes}")
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InputError(f"edges must be (m, 2) pairs, got shape {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= num_nodes):
        bad = arr[(arr < 0).any(axis=1) | (arr >= num_nodes).any(axis=1)][0]
        raise InputError(f"edge {tuple(bad)} references a node outside [0, {num_nodes})")

    loops = arr[:, 0] == arr[:, 1]
    loops_dropped = int(loops.sum())
    arr = arr[~loops]

    # Canonical orientation i < j, then dedup.
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    keys = lo * num_nodes + hi
    unique_keys = np.unique(keys)
    duplicates_dropped = int(keys.shape[0] - unique_keys.shape[0])
    lo = unique_keys // num_nodes
    hi = unique_keys % num_nodes

    # Symmetrize and sort entries by (row, col); unique keys make this exact.
    rows = np.concatenate([lo, hi])
    cols = np.concatenate([hi, lo])
    order = np.argsort(rows * num_nodes + cols, kind="stable")
    rows = rows[order]
    cols = cols[order]

    degrees = np.bincount(rows, minlength=num_nodes).astype(np.int64)
    row_offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(degrees, out=row_offsets[1:])
    return SparseGraph(
        num_nodes=num_nodes,
        row_offsets=row_offsets,
        col_indices=cols.astype(np.int64),
        degrees=degrees,
        loops_dropped=loops_dropped,
        duplicates_dropped=duplicates_dropped,
    )


def _csr(
    n: int, row_offsets: np.ndarray, col_indices: np.ndarray, values: np.ndarray
) -> sp.csr_array:
    """Square CSR array over entries already sorted by (row, col).

    The arrays are used without copying and are never written afterwards.
    """
    return sp.csr_array((values, col_indices, row_offsets), shape=(n, n), copy=False)


def _adjacency_values(g: SparseGraph, entry_value) -> sp.csr_array:
    """CSR array on the adjacency pattern; entry_value(rows, cols) -> values."""
    values = entry_value(g.entry_rows(), g.col_indices)
    return _csr(g.num_nodes, g.row_offsets, g.col_indices, np.asarray(values, dtype=np.float64))


def sym_norm_adj(g: SparseGraph) -> sp.csr_array:
    """Symmetrically normalized adjacency D^{-1/2} A D^{-1/2}.

    Isolated nodes contribute empty rows, so no division guard is needed.
    """
    inv_sqrt = np.zeros(g.num_nodes, dtype=np.float64)
    nz = g.degrees > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(g.degrees[nz].astype(np.float64))
    return _adjacency_values(g, lambda r, c: inv_sqrt[r] * inv_sqrt[c])


def _with_diagonal(g: SparseGraph, diag: np.ndarray, off: np.ndarray) -> sp.csr_array:
    """CSR array on the adjacency pattern plus an always-stored diagonal.

    `off` holds one value per directed adjacency entry, `diag` one per node.
    Storing the diagonal even when a value is 0.0 keeps patterns of related
    filters identical.
    """
    n = g.num_nodes
    rows = np.concatenate([g.entry_rows(), np.arange(n, dtype=np.int64)])
    cols = np.concatenate([g.col_indices, np.arange(n, dtype=np.int64)])
    vals = np.concatenate([off, diag])
    order = np.argsort(rows * n + cols, kind="stable")
    cols = cols[order]
    vals = vals[order]
    counts = g.degrees + 1
    row_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=row_offsets[1:])
    return _csr(n, row_offsets, cols.astype(np.int64), vals.astype(np.float64))


def self_loop_adj(g: SparseGraph) -> sp.csr_array:
    """Adjacency with self loops added: A + I, unnormalized."""
    return _with_diagonal(
        g,
        diag=np.ones(g.num_nodes, dtype=np.float64),
        off=np.ones(g.num_entries, dtype=np.float64),
    )


def complement_filter(m: sp.csr_array) -> sp.csr_array:
    """Return I - m on the same sparsity pattern.

    Requires every diagonal entry to be stored in m, which holds for all
    filters built by this module's `_with_diagonal` construction.
    """
    n = m.shape[0]
    values = -m.data
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(m.indptr))
    diag_mask = rows == m.indices
    if int(diag_mask.sum()) != n:
        raise InputError("complement_filter requires an explicitly stored diagonal")
    values[diag_mask] += 1.0
    return _csr(n, m.indptr, m.indices, values)


def enhanced_filters(g: SparseGraph, beta: float) -> FilterPair:
    """Low-pass beta*I + D^{-1/2}AD^{-1/2} and its identity complement.

    Both matrices share one sparsity pattern (diagonal always stored), and
    low + high equals the identity exactly by construction.
    """
    if not 0.0 <= beta <= 1.0:
        raise InputError(f"beta must lie in [0, 1], got {beta}")
    norm = sym_norm_adj(g)
    low = _with_diagonal(
        g,
        diag=np.full(g.num_nodes, beta, dtype=np.float64),
        off=norm.data,
    )
    high = complement_filter(low)
    return FilterPair(beta=float(beta), low=low, high=high)


def node_homophily(g: SparseGraph, labels: np.ndarray) -> HomophilyReport:
    """Fraction of neighbors sharing each node's label, and the mean over
    non-isolated nodes."""
    labels = np.asarray(labels)
    if labels.shape != (g.num_nodes,):
        raise InputError(f"labels must have shape ({g.num_nodes},), got {labels.shape}")
    rows = g.entry_rows()
    same = (labels[rows] == labels[g.col_indices]).astype(np.float64)
    sums = np.bincount(rows, weights=same, minlength=g.num_nodes)
    per_node = np.zeros(g.num_nodes, dtype=np.float64)
    nz = g.degrees > 0
    per_node[nz] = sums[nz] / g.degrees[nz]
    graph_level = float(per_node[nz].mean()) if nz.any() else 0.0
    return HomophilyReport(per_node=per_node, graph_level=graph_level)


def read_edge_list(path) -> np.ndarray:
    """Read whitespace-separated "i j" pairs; '#' starts a comment line."""
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split()
            if len(parts) != 2:
                raise InputError(f"{path}:{lineno}: expected two node ids, got {text!r}")
            try:
                pairs.append((int(parts[0]), int(parts[1])))
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: non-integer node id in {text!r}") from exc
    if not pairs:
        return np.zeros((0, 2), dtype=np.int64)
    return np.asarray(pairs, dtype=np.int64)


def write_edge_list(path, g: SparseGraph) -> None:
    """Write each undirected edge once as "i j" with i < j, sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, j in g.edge_array():
            fh.write(f"{i} {j}\n")
